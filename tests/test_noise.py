import json
from dataclasses import replace
from itertools import combinations, product
from math import comb

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfsim import noise
from gfsim.cli import main
from gfsim.config import NOISE_PRESET, RunConfig
from gfsim.genfunc import GfSeries, gf_exact, hadamard_test_circuit
from gfsim.models import HubbardModel, PairingModel, build_dense, initial_state, pairing_to_qubits
from gfsim.noise import (
    NoiseModel,
    _coherence_p0,
    _run_with_errors,
    calibrate_reference,
    mitigate_readout,
    mitigate_series,
    noisy_sample,
)
from gfsim.statevector import (
    SimulationError,
    StateVector,
    ancilla_probability,
    derive_seed,
    sample_ancilla,
)

CONFUSION = np.array([[0.95, 0.10], [0.05, 0.90]])
READOUT = NoiseModel(p01=0.05, p10=0.10)  # CONFUSION's flips: C[1,0] = p01, C[0,1] = p10


# The probability-pair pipeline, the independent oracle for the bias-space
# mitigation: a bias b is the pair ((1 + b)/2, (1 - b)/2), readout inversion
# solves the confusion system and clips + renormalizes off-simplex pairs, and
# the reference correction is the 2x2 matrix whose first column is the Re
# circuit's observed t = 0 pair and whose column average is the Im circuit's.


def _pair(b):
    return np.array([(1.0 + b) / 2.0, (1.0 - b) / 2.0])


def _pair_readout(b, confusion):
    probs = np.linalg.solve(confusion, _pair(b))
    clipped = bool(np.any(probs < 0.0) or np.any(probs > 1.0))
    if clipped:
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
    return probs[0] - probs[1], clipped


def _pair_reference(f0_re, f0_im):
    col0 = _pair(f0_re)
    return np.column_stack([col0, 2.0 * _pair(f0_im) - col0])


def _pair_mitigate(b, confusion, reference):
    probs = np.linalg.inv(reference) @ np.linalg.solve(confusion, _pair(b))
    return probs[0] - probs[1]


def preset_model():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    return model, initial_state(model).members[0]


def _sample(member, model, t, cfg, shots, seeds, n_steps=1):
    """noisy_sample at the one time t: its (Re, Im) biases."""
    (bias_re,), (bias_im,) = noisy_sample(member, model, [t], shots, [seeds], n_steps=n_steps, noise=cfg)
    return bias_re, bias_im


def _block_p0(member, model, t, n_steps, quad, p):
    """The block route's ancilla-0 probability of one quadrature's circuit."""
    return _coherence_p0(member, model, [t], n_steps, p)[("re", "im").index(quad)][0]


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
@pytest.mark.parametrize("field", ["p01", "p10", "p_dep"])
def test_noise_model_range_checked(field, value):
    with pytest.raises(SimulationError, match=f"^{field} must lie in"):
        NoiseModel(**{field: value})


def test_noise_free_sampling_matches_clean_seed_path():
    # no flips + p_dep = 0 must reproduce sample_ancilla on the clean p0 exactly
    model, member = preset_model()
    cfg = NoiseModel(p_dep=0.0)
    both = _sample(member, model, 0.3, cfg, 5000, (21, 22))
    for quad, noisy, seed in zip(("re", "im"), both, (21, 22)):
        clean_final = hadamard_test_circuit(model, 0.3, 1, quad).apply(member.tensor_with_ancilla())
        clean = sample_ancilla(ancilla_probability(clean_final, 2), 5000, seed=seed)
        assert noisy == clean


def test_readout_only_shifts_reported_probabilities():
    # p0 = 1 truth under the documented confusion gives reported p0 ~= 0.95
    model, member = preset_model()
    bias, _ = _sample(member, model, 0.0, READOUT, 10**5, (3, 4))
    assert (1.0 + bias) / 2.0 == pytest.approx(0.95, abs=0.01)  # the share of shots reading 0


def test_full_depolarization_kills_the_signal():
    # t > 0 so every gate of the controlled step contributes error slots;
    # composed uniform-Pauli errors scramble the ancilla coherence
    model, member = preset_model()
    cfg = NoiseModel(p_dep=1.0)
    bias, _ = _sample(member, model, 0.5, cfg, 4000, (5, 6))
    assert abs(bias) < 0.05


def test_mild_depolarization_damps_towards_zero():
    model, member = preset_model()
    cfg = NoiseModel(p_dep=0.05)
    bias, _ = _sample(member, model, 0.0, cfg, 10**5, (7, 8))
    assert 0.7 < bias < 0.999


def _n_slots(circuit):
    return sum(len(gate.targets) for gate in circuit.gates)


@pytest.mark.parametrize("quad", ["re", "im"])
def test_channel_matches_error_pattern_sum(quad):
    # oracle: average the pure-state replay of every error pattern of weight
    # <= 2 with its probability (p/3)^k (1-p)^(n-k); the patterns left out
    # carry the remaining probability, which bounds the difference
    model, member = preset_model()
    init = member.tensor_with_ancilla()
    circuit = hadamard_test_circuit(model, 0.4, 1, quad)
    p, n = 0.002, _n_slots(circuit)
    expected = 0.0
    for k in range(3):
        weight = (p / 3) ** k * (1 - p) ** (n - k)
        for slots in combinations(range(n), k):
            for paulis in product(range(3), repeat=k):
                final = _run_with_errors(init, circuit, tuple(zip(slots, paulis)))
                expected += weight * ancilla_probability(final, 2)
    dropped = 1.0 - sum(comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(3))
    assert abs(_block_p0(member, model, 0.4, 1, quad, p) - expected) <= dropped


def _embed(matrix, targets, n):
    """The full 2^n x 2^n operator of a gate on the targets (targets[0] the most
    significant bit of the gate index), summed entry by entry as Kronecker
    products over qubits n-1 .. 0."""
    k = len(targets)
    full = np.zeros((1 << n, 1 << n), dtype=complex)
    for a, b in product(range(1 << k), repeat=2):
        if matrix[a, b] == 0:
            continue
        term = np.ones((1, 1), dtype=complex)
        for q in reversed(range(n)):
            factor = np.eye(2, dtype=complex)
            if q in targets:
                shift = k - 1 - targets.index(q)
                factor = np.zeros((2, 2), dtype=complex)
                factor[(a >> shift) & 1, (b >> shift) & 1] = 1.0
            term = np.kron(term, factor)
        full += matrix[a, b] * term
    return full


def _dense_channel_p0(init, circuit, ancilla, p):
    """Density-matrix oracle: each gate as a dense 2^n x 2^n unitary, then on each
    of its targets rho -> (1 - p) rho + (p/3) sum_P P rho P over P = X, Y, Z."""
    n = init.n_qubits
    paulis = [[_embed(pauli, (qubit,), n) for pauli in noise._PAULIS] for qubit in range(n)]
    rho = np.outer(init.amplitudes, init.amplitudes.conj())
    for gate in circuit.gates:
        full = _embed(gate.matrix, gate.targets, n)
        rho = full @ rho @ full.conj().T
        for qubit in gate.targets:
            rho = (1 - p) * rho + (p / 3) * sum(pauli @ rho @ pauli for pauli in paulis[qubit])
    diag = rho.diagonal().real
    return diag[((np.arange(diag.size) >> ancilla) & 1) == 0].sum() / diag.sum()


def _random_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


# each id names the quadrature of the circuit its case is built around; the
# block route returns both quadratures from one call, so every case checks both
_ORACLE_CASES = [
    ("preset-re", PairingModel.uniform(2, 1, 1.0, 1.0), 0.4, 1, "re"),
    ("preset-im", PairingModel.uniform(2, 1, 1.0, 1.0), 0.4, 1, "im"),
    ("pairing-4", PairingModel.uniform(4, 2, 1.0, 0.7), 0.4, 3, "re"),
    ("hubbard-2", HubbardModel(sites=2, hopping=1.0, onsite=2.0), 0.4, 3, "im"),
]


@pytest.mark.parametrize("p", [0.0, 0.002, 0.3, 0.75])
@pytest.mark.parametrize("case", _ORACLE_CASES, ids=[c[0] for c in _ORACLE_CASES])
def test_channel_matches_dense_density_matrix(case, p):
    # exact at every p, unlike the weight-<=2 pattern sum (small p) and the trajectory test (statistical)
    name, model, t, n_steps, _ = case
    if name.startswith("preset"):
        member = initial_state(model).members[0]
    else:
        member = _random_state(model.n_qubits, seed=model.n_qubits)
    both = _coherence_p0(member, model, [t], n_steps, p)
    for quad, (p0,) in zip(("re", "im"), both):
        circuit = hadamard_test_circuit(model, t, n_steps, quad)
        assert abs(p0 - _dense_channel_p0(member.tensor_with_ancilla(), circuit, model.n_qubits, p)) <= 1e-13


_GRID_CASES = [
    ("hubbard-2-member", HubbardModel(sites=2, hopping=1.0, onsite=2.0)),
    ("pairing-4", PairingModel.uniform(4, 2, 1.0, 0.7)),
]


@pytest.mark.parametrize("case", _GRID_CASES, ids=[c[0] for c in _GRID_CASES])
def test_batched_blocks_match_dense_density_matrix_at_every_point(case):
    # one pass over a grid whose step size t / n_steps differs from point to point, t = 0
    # included: gate tables indexed by the wrong point land on another point's probability
    name, model = case
    if name.startswith("hubbard"):
        # a member of a mixture off the default: the default's one member |1111> is an eigenstate
        member = initial_state(model, ["1001", "0110"]).members[0]
    else:
        member = _random_state(model.n_qubits, seed=7)
    times, n_steps, p = np.linspace(0.0, 0.6, 7), 3, 0.05
    both = _coherence_p0(member, model, times, n_steps, p)
    for quad, p0 in zip(("re", "im"), both):
        assert p0.shape == times.shape
        for t, got in zip(times, p0):
            circuit = hadamard_test_circuit(model, float(t), n_steps, quad)
            expected = _dense_channel_p0(member.tensor_with_ancilla(), circuit, model.n_qubits, p)
            assert abs(got - expected) <= 1e-13


def _trajectory_count(init, circuit, ancilla, shots, p_dep, confusion, seed):
    """Reference sampler: per shot, an independent Pauli error on each slot
    with probability p_dep, a replay, a measurement and a confused readout."""
    rng = np.random.default_rng(seed)
    n_slots = _n_slots(circuit)
    cache = {}
    n0 = 0
    for _ in range(shots):
        slots = np.flatnonzero(rng.random(n_slots) < p_dep)
        pattern = tuple((int(s), int(rng.integers(3))) for s in slots)
        if pattern not in cache:
            cache[pattern] = ancilla_probability(_run_with_errors(init, circuit, pattern), ancilla)
        true_outcome = 0 if rng.random() < cache[pattern] else 1
        n0 += rng.random() < confusion[0, true_outcome]
    return n0


@pytest.mark.parametrize(
    "t, n_steps, quad, p_dep",
    [(0.4, 1, "re", 0.1), (0.4, 1, "im", 0.05), (0.2, 2, "re", 0.02), (0.3, 2, "im", 0.02)],
)
def test_channel_binomial_matches_trajectory_sampling(t, n_steps, quad, p_dep):
    # the trajectory count must look like one Binomial(shots, q) draw, with
    # q the probability noisy_sample draws from
    model, member = preset_model()
    circuit = hadamard_test_circuit(model, t, n_steps, quad)
    shots = 20000
    p0 = _block_p0(member, model, t, n_steps, quad, p_dep)
    q = CONFUSION[0, 0] * p0 + CONFUSION[0, 1] * (1 - p0)
    n0 = _trajectory_count(member.tensor_with_ancilla(), circuit, 2, shots, p_dep, CONFUSION, seed=17)
    z = (n0 - shots * q) / np.sqrt(shots * q * (1 - q))
    assert abs(z) < 4.0


def test_noisy_sample_rejects_state_smaller_than_circuit():
    # a member must live on the model's qubits: one qubit short, or with an ancilla already attached
    model, member = preset_model()
    cfg = NoiseModel()
    for t in (0.0, 0.4):
        for state in (StateVector(1, [1.0, 0.0]), member.tensor_with_ancilla()):
            with pytest.raises(SimulationError, match="2 qubits"):
                _sample(state, model, t, cfg, 100, (1, 2))


def test_noisy_sample_rejects_shot_count_before_evolving(monkeypatch):
    model, member = preset_model()
    monkeypatch.setattr(noise, "_coherence_p0", lambda *args: pytest.fail("evolved before checking shots"))
    with pytest.raises(SimulationError, match="shots must be >= 1"):
        _sample(member, model, 0.4, NoiseModel(), 0, (1, 2))


@pytest.mark.parametrize(
    "model, diag, off, pair, match",
    [
        # a SWAP across the two spin chains keeps the weight but moves an up fermion to a down site
        (HubbardModel(sites=2, hopping=1.0, onsite=2.0), [1, 0, 0, 1], [0, 1, 1, 0], (0, 2), "different sectors"),
    ],
    ids=["spin"],
)
def test_coherence_block_rejects_gates_that_leave_the_sectors(monkeypatch, model, diag, off, pair, match):
    # the block keeps only same-sector entries of X, so such a gate would silently drop what it moves
    member = initial_state(model).members[0]

    def tables(_model, dt):
        shape = np.shape(dt) + (1, 4)
        return (*(np.broadcast_to(np.asarray(t, dtype=complex), shape) for t in (diag, off)), np.array([pair]))

    monkeypatch.setattr(noise, "_step_gates", tables)
    with pytest.raises(SimulationError, match=match):
        _coherence_p0(member, model, [0.0, 0.2], 1, 0.01)


def test_coherence_block_rejects_slots_that_leave_the_sectors(monkeypatch):
    # labels that flipping one qubit on both sides does not keep: state 00 alone, 01, 10 and 11 together.
    # The pairing gates keep X's entries among them, but the slot on qubit 0 takes (01, 11) to (00, 10)
    model, member = preset_model()
    monkeypatch.setattr(noise, "sector_labels", lambda _model, states: np.array([0, 1, 1, 1])[states])
    with pytest.raises(SimulationError, match="outside the sector basis"):
        _coherence_p0(member, model, [0.2], 1, 0.01)


def test_noisy_sample_is_one_binomial_draw():
    # one draw per point and quadrature, on that point's own seed
    model, member = preset_model()
    times, seeds = [0.0, 0.2, 0.4], [(9, 10), (11, 12), (13, 14)]
    cfg = replace(READOUT, p_dep=0.002)
    biases = np.transpose(noisy_sample(member, model, times, 10**6, seeds, n_steps=2, noise=cfg))
    p0 = np.transpose(_coherence_p0(member, model, times, 2, cfg.p_dep))
    assert biases.shape == (len(times), 2)
    for point_p0, point_biases, point_seeds in zip(p0, biases, seeds):
        for p, bias, seed in zip(point_p0, point_biases, point_seeds):
            q = CONFUSION[0, 0] * p + CONFUSION[0, 1] * (1 - p)
            n0 = np.random.default_rng(seed).binomial(10**6, q)  # all 10^6 shots, on the point's own seed
            assert bias == (n0 - (10**6 - n0)) / 10**6


def test_cmd_noise_raw_draws_equal_the_gate_level_loop(tmp_path):
    # gfsim noise against the loop it replaced: per point, quadrature and member, the dense
    # density matrix of hadamard_test_circuit and one sample_ancilla draw on the same sub-seed
    cfg = {
        "model": {"kind": "hubbard", "sites": 3, "hopping": 1.0, "onsite": 2.0},
        "time_grid": {"t_max": 0.4, "dt": 0.2},
        "shots": 3000,
        "seed": 5,
        "trotter": {"policy": "fixed", "n_steps": 2},
        "noise": {"readout": NOISE_PRESET["noise"]["readout"], "p_dep": 0.01},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["noise", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
    raw = GfSeries.from_csv(tmp_path / "gf_raw.csv")

    run = RunConfig.from_file(path)
    model, init = run.model, run.init
    c00, c01 = 1.0 - run.noise.p01, run.noise.p10  # P(read 0 | true 0) and P(read 0 | true 1)
    assert (len(init.members), run.t_grid.size) == (3, 3)
    expected = np.zeros((2, run.t_grid.size))
    for k, t in enumerate(run.t_grid):
        for quad, name in enumerate(("re", "im")):
            circuit = hadamard_test_circuit(model, float(t), 2, name)
            for m_idx, (weight, member) in enumerate(zip(init.weights, init.members)):
                p0 = _dense_channel_p0(member.tensor_with_ancilla(), circuit, model.n_qubits, 0.01)
                q = c00 * p0 + c01 * (1.0 - p0)
                expected[quad, k] += weight * sample_ancilla(q, 1000, derive_seed(5, k, quad, m_idx))
    assert np.array_equal(raw.re, expected[0]) and np.array_equal(raw.im, expected[1])


def test_mitigate_readout_identity():
    bias, clipped = mitigate_readout(0.4, NoiseModel())
    assert bias == pytest.approx(0.4, abs=1e-15)
    assert not clipped


def test_readout_bias_map_is_the_confusion_on_pairs():
    offset, slope = READOUT.bias_map
    for b in (-1.0, -0.3, 0.0, 0.6, 1.0):
        reported = CONFUSION @ _pair(b)
        assert offset + slope * b == pytest.approx(reported[0] - reported[1], abs=1e-15)
    assert slope == pytest.approx(np.linalg.det(CONFUSION), abs=1e-15)


def test_mitigate_readout_exact_inverse():
    reported = CONFUSION @ np.array([1.0, 0.0])
    bias, clipped = mitigate_readout(reported[0] - reported[1], READOUT)
    assert bias == pytest.approx(1.0, abs=1e-12)
    assert not clipped


def test_mitigate_readout_forward_inverse_identity():
    rng = np.random.default_rng(0)
    for _ in range(25):
        p0 = rng.random()
        reported = CONFUSION @ np.array([p0, 1.0 - p0])
        bias, _ = mitigate_readout(reported[0] - reported[1], READOUT)
        assert abs(bias - (2.0 * p0 - 1.0)) < 1e-12


def test_mitigate_readout_clips_off_simplex():
    # the reported pair (0.99, 0.01) inverts off the simplex; the pair oracle renormalizes it to bias 1
    bias, clipped = mitigate_readout(0.98, READOUT)
    assert clipped and bias == 1.0
    assert _pair_readout(0.98, CONFUSION) == (pytest.approx(1.0, abs=1e-15), True)


def test_readout_recovery_improves_with_shots():
    # shot-level recovery error shrinks like 1/sqrt(shots)
    model, member = preset_model()
    errors = []
    for shots in (10**3, 10**5):
        recovered = []
        for seed in range(20):
            raw, _ = _sample(member, model, 0.0, READOUT, shots, (seed, seed + 20))
            bias, _ = mitigate_readout(raw, READOUT)
            recovered.append(bias)
        errors.append(np.sqrt(np.mean((np.array(recovered) - 1.0) ** 2)))
    assert errors[1] < errors[0] / 3.0


def test_calibration_identity_on_clean_input():
    assert calibrate_reference(1.0, 0.0) == (0.0, 1.0)


def test_calibration_reproduces_confusion_matrix():
    # oracle: compose the known confusion with the known ideal t=0 probabilities
    re_obs = CONFUSION @ np.array([1.0, 0.0])
    im_obs = CONFUSION @ np.array([0.5, 0.5])
    f0_re, f0_im = (float(obs[0] - obs[1]) for obs in (re_obs, im_obs))
    assert np.allclose(calibrate_reference(f0_re, f0_im), READOUT.bias_map, atol=1e-12)
    assert np.allclose(_pair_reference(f0_re, f0_im), CONFUSION, atol=1e-12)


def test_calibration_self_consistency():
    # the calibrated map sends the observed t = 0 biases back to the ideal 1 and 0
    offset, slope = calibrate_reference(0.83, 0.06)
    assert (0.83 - offset) / slope == pytest.approx(1.0, abs=1e-12)
    assert (0.06 - offset) / slope == pytest.approx(0.0, abs=1e-12)
    oracle = _pair_mitigate(0.83, np.eye(2), _pair_reference(0.83, 0.06))
    assert oracle == pytest.approx(1.0, abs=1e-12)


def test_calibration_rejects_singular_map():
    # the pair oracle's matrix [[0.5, 0.5], [0.5, 0.5]]: both t = 0 biases read 0
    assert np.linalg.det(_pair_reference(0.0, 0.0)) == 0.0
    with pytest.raises(SimulationError, match="not invertible"):
        calibrate_reference(0.0, 0.0)
    with pytest.raises(SimulationError, match="singular"):
        mitigate_readout(0.1, NoiseModel(p01=0.5, p10=0.5))


def _noisy_series(model, init, t_grid, cfg, shots, seed):
    seeds = [(seed + 101 * k, seed + 101 * k + 1) for k in range(t_grid.size)]
    re, im = noisy_sample(init.members[0], model, t_grid, shots, seeds, n_steps=1, noise=cfg)
    err = np.sqrt(np.maximum(0.0, 1 - re**2) / shots)
    err_im = np.sqrt(np.maximum(0.0, 1 - im**2) / shots)
    return GfSeries(t_grid, re, im, err, err_im, shots=shots, route="noisy", model=model.fingerprint(), seed=seed)


def test_mitigation_pipeline_identity_without_noise():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    init = initial_state(model)
    dense = build_dense(pairing_to_qubits(model))
    t = np.arange(0.0, 0.31, 0.1)
    exact = gf_exact(dense, init, t, model=model.fingerprint())
    out = mitigate_series(exact, NoiseModel(), calibrate_reference(1.0, 0.0))
    assert np.abs(out.re - exact.re).max() < 1e-12
    assert np.abs(out.im - exact.im).max() < 1e-12
    assert out.route == "mitigated"


def test_mitigated_series_beats_raw_on_preset():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    init = initial_state(model)
    dense = build_dense(pairing_to_qubits(model))
    t = np.arange(0.0, 0.4001, 0.02)
    exact = gf_exact(dense, init, t)
    raw = _noisy_series(model, init, t, READOUT, shots=10**5, seed=2)

    re0, _ = mitigate_readout(raw.re[0], READOUT)
    im0, _ = mitigate_readout(raw.im[0], READOUT)
    mitigated = mitigate_series(raw, READOUT, calibrate_reference(re0, im0))

    rms = lambda s: np.sqrt(np.mean(np.concatenate([s.re - exact.re, s.im - exact.im]) ** 2))
    assert rms(mitigated) <= 0.3 * rms(raw)
    # correction restores F(0) within 3 sigma
    assert abs(mitigated.re[0] - 1.0) <= 3 * max(mitigated.re_err[0], 1e-6)
    assert abs(mitigated.im[0]) <= 3 * max(mitigated.im_err[0], 1e-6)
    # estimates stay inside the physical band
    mag = np.hypot(mitigated.re, mitigated.im)
    assert np.all(mag <= 1.0 + 3.0 * np.maximum(mitigated.re_err, mitigated.im_err) + 1e-12)


def test_error_bars_scaled_by_inverse_maps():
    raw = GfSeries(
        np.array([0.0]),
        np.array([0.85]),
        np.array([0.05]),
        np.array([1e-3]),
        np.array([1e-3]),
        shots=10**6,
        route="noisy",
    )
    # reference calibrated on readout-corrected t=0 values (the pipeline order)
    re0, _ = mitigate_readout(0.85, READOUT)
    im0, _ = mitigate_readout(0.05, READOUT)
    out = mitigate_series(raw, READOUT, calibrate_reference(re0, im0))
    assert out.re[0] == pytest.approx(1.0, abs=1e-9)
    assert out.re_err[0] > raw.re_err[0]  # inversion amplifies shot noise
    # the combined map's slope, read off the pair oracle
    reference = _pair_reference(*(_pair_readout(b, CONFUSION)[0] for b in (0.85, 0.05)))
    slope = (_pair_mitigate(1.0, CONFUSION, reference) - _pair_mitigate(-1.0, CONFUSION, reference)) / 2
    assert out.re_err[0] == pytest.approx(raw.re_err[0] * abs(slope), rel=1e-13)


def test_mitigate_series_matches_per_point_inverse():
    # oracle: per point, solve the confusion system, apply the reference inverse, read the bias
    rng = np.random.default_rng(4)
    size = 40
    values = rng.uniform(0, 0.5, size) * np.exp(2j * np.pi * rng.random(size))
    raw = GfSeries(
        np.arange(size) * 0.01,
        values.real,
        values.imag,
        rng.uniform(1e-4, 1e-2, size),
        rng.uniform(1e-4, 1e-2, size),
        shots=10**5,
        route="noisy",
    )
    out = mitigate_series(raw, READOUT, calibrate_reference(0.95, 0.02))
    reference = _pair_reference(0.95, 0.02)

    def bias(b):
        return _pair_mitigate(b, CONFUSION, reference)

    assert np.abs(out.re - [bias(b) for b in raw.re]).max() <= 1e-14
    assert np.abs(out.im - [bias(b) for b in raw.im]).max() <= 1e-14
    slope = abs(bias(1.0) - bias(-1.0)) / 2
    assert np.allclose(out.re_err, raw.re_err * slope, rtol=1e-13, atol=0)
    assert np.allclose(out.im_err, raw.im_err * slope, rtol=1e-13, atol=0)


_unit = st.floats(0.0, 1.0, allow_nan=False)
_bias = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(_unit, _unit, _bias, _bias, st.lists(st.tuples(_bias, _bias), min_size=1, max_size=8))
def test_bias_space_mitigation_matches_the_pair_pipeline(p01, p10, f0_re, f0_im, series):
    # the noise command's chain in bias space against the pair oracle: readout-invert the
    # t = 0 biases, calibrate on them, mitigate a series.  Rounding in either path grows
    # with the inverse maps' gain, and a rounding of the calibrated slope moves each
    # point in proportion to its size, so the 1e-14 is taken relative to both.
    # the oracle's matrix holds the flips' own floats, as NoiseModel.bias_map reads them
    confusion = np.array([[1.0 - p01, p10], [p01, 1.0 - p10]])
    readout = NoiseModel(p01, p10)
    assume(abs(confusion[0, 0] - confusion[0, 1]) >= 0.05)
    gain = 1.0 / abs(confusion[0, 0] - confusion[0, 1])
    t0 = []
    for b in (f0_re, f0_im):
        corrected, clipped = mitigate_readout(b, readout)
        oracle, oracle_clipped = _pair_readout(b, confusion)
        assert abs(corrected - oracle) <= 1e-14 * gain
        unclipped = np.linalg.solve(confusion, _pair(b))
        if abs(abs(unclipped[0] - unclipped[1]) - 1.0) > 1e-9:
            assert clipped == oracle_clipped
        t0.append((corrected, oracle))
    (re0, pair_re0), (im0, pair_im0) = t0
    assume(abs(pair_re0 - pair_im0) >= 0.05)
    gain /= abs(pair_re0 - pair_im0)
    re, im = np.array(series).T
    # error bars wide enough for GfSeries' |F| <= 1 check whatever the maps do
    raw = GfSeries(np.arange(re.size) * 0.1, re, im, np.full(re.size, 2.0), np.full(re.size, 3.0), route="noisy")
    out = mitigate_series(raw, readout, calibrate_reference(re0, im0))
    reference = _pair_reference(pair_re0, pair_im0)
    for got, values in ((out.re, re), (out.im, im)):
        expected = np.array([_pair_mitigate(b, confusion, reference) for b in values])
        assert np.all(np.abs(got - expected) <= 1e-14 * gain * (1.0 + np.abs(expected)))
    slope = abs(_pair_mitigate(1.0, confusion, reference) - _pair_mitigate(-1.0, confusion, reference)) / 2
    assert np.allclose(out.re_err, raw.re_err * slope, rtol=1e-13, atol=0)
    assert np.allclose(out.im_err, raw.im_err * slope, rtol=1e-13, atol=0)
