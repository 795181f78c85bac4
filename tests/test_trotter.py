import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gfsim import trotter
from gfsim.genfunc import gf_series
from gfsim.models import (
    HubbardModel,
    InitialState,
    PairingModel,
    build_dense,
    initial_state,
    pairing_to_qubits,
    sector_labels,
    to_qubits,
)
from gfsim.noise import _coherence_p0
from gfsim.statevector import GateMatrix, SimulationError, StateVector
from gfsim.trotter import (
    Circuit,
    _gate_action,
    _sector_step,
    _step_gates,
    controlled_evolve,
    reference_dt,
    steps_for,
    trotter_step,
)
from evolution import evolve
from model_oracles import pauli_terms_matrix, propagator


def circuit_matrix(circuit):
    """Multiply the step out into a dense matrix (oracle helper)."""
    dim = 1 << circuit.n_qubits
    cols = []
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        cols.append(circuit.apply(StateVector(circuit.n_qubits, amps)).amplitudes)
    return np.stack(cols, axis=1)


def split_parts(model):
    """Dense matrices of the two exactly-exponentiated Hamiltonian parts."""
    h = to_qubits(model)
    n = h.n_qubits
    coupling = [(c, ops) for ops, c in h.terms.items() if "X" in ops or "Y" in ops]
    diagonal = [(c, ops) for ops, c in h.terms.items() if "X" not in ops and "Y" not in ops]
    return pauli_terms_matrix(diagonal, n), pauli_terms_matrix(coupling, n)


def phase_insensitive_distance(a, b):
    overlap = np.vdot(a, b)
    return np.sqrt(max(0.0, 2.0 * (1.0 - abs(overlap))))


def test_hubbard_step_zero_hopping_blocks_are_identity():
    step = trotter_step(HubbardModel(sites=2, hopping=0.0, onsite=1.0), dt=0.1)
    hopping = [g for g in step.gates if g.name.startswith("Uj")]
    for g in hopping:
        assert np.allclose(g.matrix, np.eye(4))


def test_hopping_block_at_quarter_period_swaps_with_phase():
    # evaluate the printed 4x4 at lambda = pi/2: |01> <-> |10> up to -i
    step = trotter_step(HubbardModel(sites=2, hopping=1.0, onsite=0.0), dt=np.pi / 2)
    block = step.gates[0].matrix
    assert np.allclose(block @ np.array([0, 1, 0, 0]), [0, 0, -1j, 0])
    assert np.allclose(block @ np.array([0, 0, 1, 0]), [0, -1j, 0, 0])


def test_pairing_step_without_coupling_is_diagonal():
    model = PairingModel.uniform(3, 1, 1.0, 0.0)
    step = trotter_step(model, dt=0.05)
    mat = circuit_matrix(step)
    assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-12


def test_pairing_step_reproduces_split_propagator():
    # oracle: exp(-i dt H_eps) exp(-i dt H_g) as dense matrix exponentials
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dt = 0.01
    h_diag, h_coup = split_parts(model)
    step_mat = circuit_matrix(trotter_step(model, dt))
    oracle = expm(-1j * dt * h_coup) @ expm(-1j * dt * h_diag)
    assert np.abs(step_mat - oracle).max() < 1e-12


def test_hubbard_step_reproduces_split_propagator():
    model = HubbardModel(sites=2, hopping=0.7, onsite=1.3)
    dt = 0.02
    h_diag, h_coup = split_parts(model)  # diagonal = interaction, coupling = hopping
    step_mat = circuit_matrix(trotter_step(model, dt))
    oracle = expm(-1j * dt * h_diag) @ expm(-1j * dt * h_coup)
    assert np.abs(step_mat - oracle).max() < 1e-11


def test_step_matrix_is_unitary():
    for model in (PairingModel.uniform(3, 1, 1.0, 0.8), HubbardModel(sites=2, hopping=1.0, onsite=1.0)):
        mat = circuit_matrix(trotter_step(model, 0.03))
        dim = mat.shape[0]
        assert np.abs(mat.conj().T @ mat - np.eye(dim)).max() < 1e-10


def test_reference_steps():
    pairing = PairingModel.uniform(8, 4, 1.0, 1.0)
    assert reference_dt(pairing) == pytest.approx(0.002)
    hubbard = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    assert reference_dt(hubbard) == pytest.approx(0.02)
    assert steps_for(pairing, 1.0) == 500
    assert steps_for(pairing, 0.0) == 1
    assert steps_for(pairing, 1.0, policy=7) == 7
    # one level has no gap: its spacing is |eps_0|, or 1 at eps_0 = 0
    for eps, spacing in ((-2.5, 2.5), (0.0, 1.0)):
        assert reference_dt(PairingModel(eps=[eps], g=[[0.3]], n_pairs=1)) == pytest.approx(0.002 / spacing)


def test_steps_for_rejects_callable_policy():
    with pytest.raises(SimulationError):
        steps_for(PairingModel.uniform(2, 1), 1.0, policy=lambda t: 3)


def test_evolve_zero_time_is_identity():
    model = PairingModel.uniform(2, 1)
    state = initial_state(model).members[0]
    out = evolve(state, model, 0.0, 5)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_evolve_exact_when_parts_commute():
    # g = 0: diagonal model, one step is exact at any t
    model = PairingModel.uniform(3, 2, 1.0, 0.0)
    dense = build_dense(pairing_to_qubits(model))
    state = initial_state(model).members[0]
    t = 1.7
    out = evolve(state, model, t, 1)
    oracle = propagator(dense, t) @ state.amplitudes
    assert np.abs(out.amplitudes - oracle).max() < 1e-12


def first_order_slope(model, state, t, steps_list):
    dense = build_dense(to_qubits(model))
    oracle = propagator(dense, t) @ state.amplitudes
    errs = []
    for n in steps_list:
        out = evolve(state, model, t, n)
        errs.append(phase_insensitive_distance(out.amplitudes, oracle))
    slope = np.polyfit(np.log(1.0 / np.asarray(steps_list, dtype=float)), np.log(errs), 1)[0]
    return slope, errs


def test_first_order_error_scaling_pairing():
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    state = initial_state(model).members[0]
    slope, errs = first_order_slope(model, state, 1.0, [8, 16, 32, 64])
    assert errs[0] > errs[-1]
    assert abs(slope - 1.0) < 0.15
    # error roughly halves per doubling
    assert errs[1] / errs[0] == pytest.approx(0.5, abs=0.1)


def test_first_order_error_scaling_hubbard():
    # one up + one down on site 0 (the filled default is an eigenstate)
    model = HubbardModel(sites=2, hopping=1.0, onsite=1.0)
    state = StateVector.from_bitstring("1010")
    slope, _ = first_order_slope(model, state, 1.0, [8, 16, 32, 64])
    assert abs(slope - 1.0) < 0.15


def test_controlled_evolve_control_off():
    model = PairingModel.uniform(2, 1)
    state = initial_state(model).members[0].tensor_with_ancilla()  # ancilla |0>
    out = controlled_evolve(state, model, 0.8, 10)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_controlled_evolve_control_on_matches_plain():
    model = PairingModel.uniform(2, 1)
    sys_state = initial_state(model).members[0]
    amps = np.zeros(8, dtype=complex)
    amps[4:] = sys_state.amplitudes  # ancilla |1>
    out = controlled_evolve(StateVector(3, amps), model, 0.8, 10)
    plain = gate_level(sys_state, model, 0.8, 10)
    assert np.abs(out.amplitudes[4:] - plain.amplitudes).max() < 1e-12
    assert np.abs(out.amplitudes[:4]).max() == 0.0


def test_controlled_evolve_phase_kickback_on_eigenstate():
    # oracle: ancilla superposition over an eigenstate picks up e^{-i t E}
    model = PairingModel.uniform(2, 1, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    alpha = 1
    vec = dense.eigenvectors[:, alpha]
    amps = np.zeros(8, dtype=complex)
    amps[:4] = vec / np.sqrt(2.0)
    amps[4:] = vec / np.sqrt(2.0)
    t, n = 0.6, 4000
    out = controlled_evolve(StateVector(3, amps), model, t, n)
    ratio = np.vdot(amps[4:], out.amplitudes[4:]) / np.vdot(amps[:4], out.amplitudes[:4])
    assert abs(ratio - np.exp(-1j * t * dense.eigenvalues[alpha])) < 1e-5


def test_controlled_evolve_rejects_ancilla_inside_register():
    # the register is the model's qubits and one ancilla on top, nothing else
    model = PairingModel.uniform(2, 1)
    state = initial_state(model).members[0]
    with pytest.raises(SimulationError):  # the top qubit is a system qubit
        controlled_evolve(state, model, 0.1, 1)
    with pytest.raises(SimulationError):  # a spare qubit above the ancilla
        controlled_evolve(state.tensor_with_ancilla().tensor_with_ancilla(), model, 0.1, 1)


def test_controlled_circuit_refuses_a_second_control_and_an_ancilla_among_its_targets():
    # a controlled 2-qubit gate has 3 targets, and a gate on 4 is refused
    step = trotter_step(PairingModel.uniform(3, 1), 0.1)
    controlled = step.controlled(3)
    assert [len(g.targets) for g in controlled.gates] == [len(g.targets) + 1 for g in step.gates]
    with pytest.raises(SimulationError, match="gate arity must be 1, 2 or 3, got 4"):
        controlled.controlled(4)
    with pytest.raises(SimulationError, match="duplicate target qubits"):
        step.controlled(1)


def test_evolve_rejects_state_smaller_than_model():
    with pytest.raises(SimulationError):
        evolve(StateVector(2), PairingModel.uniform(3, 1), 0.1, 1)


# Property tests: the fused sector evolution against the gate-level circuit ----

coefficients = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def pairing_models(draw):
    m = draw(st.integers(1, 4))
    eps = draw(st.lists(coefficients, min_size=m, max_size=m))
    g = np.array(draw(st.lists(coefficients, min_size=m * m, max_size=m * m))).reshape(m, m)
    return PairingModel(eps=np.array(eps), g=(g + g.T) / 2.0, n_pairs=draw(st.integers(0, m)))


small_models = st.one_of(
    pairing_models(),
    st.builds(HubbardModel, sites=st.integers(2, 3), hopping=coefficients, onsite=coefficients),
)


def sector_superposition(n_qubits, n_system, seed):
    """Random amplitudes; each setting of the non-system qubits occupies its own random weight sectors."""
    rng = np.random.default_rng(seed)
    index = np.arange(1 << n_qubits)
    weight = sum((index >> q) & 1 for q in range(n_system))
    rows = index >> n_system
    occupied = rng.random((1 << (n_qubits - n_system), n_system + 1)) < 0.5
    amps = (rng.normal(size=index.size) + 1j * rng.normal(size=index.size)) * occupied[rows, weight]
    norm = np.linalg.norm(amps)
    return StateVector(n_qubits, amps / norm if norm else amps)


@settings(max_examples=60, deadline=None)
@given(small_models)
def test_every_step_gate_conserves_hamming_weight(model):
    # the sector restriction of controlled_evolve is exact only because of this
    for gate in trotter_step(model, 0.37).gates:
        local = np.arange(gate.matrix.shape[0])
        weight = sum((local >> b) & 1 for b in range(len(gate.targets)))
        moves = (gate.matrix != 0) & (weight[:, None] != weight[None, :])
        assert not moves.any(), gate.name


@settings(max_examples=60, deadline=None)
@given(small_models, st.floats(0.01, 3.0), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_evolve_matches_gate_level_steps(model, t, n_steps, seed):
    state = sector_superposition(model.n_qubits, model.n_qubits, seed)
    step = trotter_step(model, t / n_steps)
    expected = state
    for _ in range(n_steps):
        expected = step.apply(expected)
    out = evolve(state, model, t, n_steps)
    assert np.abs(out.amplitudes - expected.amplitudes).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(small_models, st.floats(0.01, 3.0), st.integers(1, 5), st.booleans(), st.integers(0, 2**32 - 1))
def test_controlled_evolve_matches_gate_level_steps(model, t, n_steps, control_off, seed):
    # the ancilla is the top qubit
    ancilla = model.n_qubits
    state = sector_superposition(ancilla + 1, ancilla, seed)
    if control_off:
        index = np.arange(state.amplitudes.size)
        state.amplitudes[(index >> ancilla) & 1 == 1] = 0.0
    step = trotter_step(model, t / n_steps).controlled(ancilla)
    expected = state
    for _ in range(n_steps):
        expected = step.apply(expected)
    out = controlled_evolve(state, model, t, n_steps)
    assert np.abs(out.amplitudes - expected.amplitudes).max() < 1e-12
    if control_off:
        assert np.array_equal(out.amplitudes, state.amplitudes)


# The shared step matrix and the weight-conservation check ---------------------


def gate_level(state, model, t, n_steps):
    step = trotter_step(model, t / n_steps)
    for _ in range(n_steps):
        state = step.apply(state)
    return state


def test_step_reuse_never_crosses_models():
    # equal shape and fingerprint, different couplings, one dt: a memo keyed on
    # anything weaker than the model object would hand one the other's step
    rng = np.random.default_rng(5)
    models = []
    for _ in range(2):
        g = rng.normal(size=(4, 4))
        models.append(PairingModel(eps=np.arange(1.0, 5.0), g=(g + g.T) / 2.0, n_pairs=2))
    assert models[0].fingerprint() == models[1].fingerprint()
    state = StateVector.from_bitstring("1100")
    for model in models + models:
        out = evolve(state, model, 0.9, 3)
        assert np.abs(out.amplitudes - gate_level(state, model, 0.9, 3).amplitudes).max() < 1e-12


def test_mixture_members_share_one_step_build(monkeypatch):
    # Hubbard models are value-equal, so an earlier test may have left this key in the memo
    trotter._propagator.cache_clear()
    model = HubbardModel(sites=4, hopping=1.0, onsite=1.0)
    init = initial_state(model)
    grid = np.arange(0.0, 2.0001, 0.0625)
    builds = []
    monkeypatch.setattr(trotter, "_sector_step", lambda *args: builds.append(1) or _sector_step(*args))
    mixture = gf_series(model, init, grid)
    assert len(builds) == grid.size - 1  # one per non-zero point, not one per member
    members = [gf_series(model, InitialState([m]), grid) for m in init.members]
    expected = sum(w * s.values for w, s in zip(init.weights, members))
    assert np.abs(mixture.values - expected).max() < 1e-13


def test_pairing_model_arrays_are_read_only():
    eps = np.arange(1.0, 4.0)
    model = PairingModel(eps=eps, g=np.ones((3, 3)), n_pairs=1)
    eps[0] = 7.0  # the model holds a copy
    assert model.eps[0] == 1.0
    with pytest.raises(ValueError):
        model.eps[0] = 2.0
    with pytest.raises(ValueError):
        model.g[0, 1] = 2.0


def gate_tables(circuit):
    """The circuit's gates as `_step_gates` tables; a 1-qubit gate on q sits on (q, q) at local values 0 and 3."""
    v = np.arange(4)
    diag = np.ones((len(circuit.gates), 4), dtype=complex)
    off = np.zeros_like(diag)
    pairs = np.empty((len(circuit.gates), 2), dtype=np.int64)
    for g, gate in enumerate(circuit.gates):
        if len(gate.targets) == 1:
            diag[g, [0, 3]] = np.diag(gate.matrix)
            pairs[g] = gate.targets * 2
        else:
            diag[g], off[g] = gate.matrix[v, v], gate.matrix[v, v ^ 3]
            pairs[g] = gate.targets
    return diag, off, pairs


@pytest.mark.parametrize(
    "model",
    [
        PairingModel(eps=np.array([np.nan, 2.0, 3.0]), g=np.ones((3, 3)), n_pairs=1),
        HubbardModel(sites=2, hopping=np.inf, onsite=1.0),
    ],
    ids=["nan-eps", "infinite-hopping"],
)
def test_non_finite_gate_angles_raise_on_both_routes(model):
    # cos, sin and exp of a finite angle make every gate unitary; a NaN or an
    # infinite one would write nan into the series instead
    member = initial_state(model).members[0]
    with pytest.raises(SimulationError, match="not finite"):
        evolve(member, model, 0.4, 2)
    with pytest.raises(SimulationError, match="not finite"):
        _coherence_p0(member, model, [0.0, 0.4], 2, 0.01)


def conserving_gate(targets, couples, rng):
    """Random phases on the targets' local states; a coupling 2-qubit gate also mixes 01 and 10."""
    matrix = np.diag(np.exp(1j * rng.normal(size=1 << len(targets))))
    if couples:
        matrix[1:3, 1:3], _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return GateMatrix(matrix, targets)


def test_sector_step_matches_gate_level_on_general_conserving_gates():
    # the Trotter blocks are symmetric; these are not, so a transposed
    # coupling or a swapped target order shows up.  The three orders: every
    # table diagonal (the prefix is the whole step), the first gate coupling
    # (no prefix), and a prefix with diagonal gates between coupling ones
    rng = np.random.default_rng(8)
    orders = [
        [((1,), False), ((0, 2), False), ((2,), False)],
        [((0, 2), True), ((2, 1), True), ((1,), False)],
        [((2,), False), ((0, 1), False), ((0, 2), True), ((1,), False), ((2, 1), False), ((2, 1), True)],
    ]
    basis = np.arange(8)
    for gates in orders:
        circuit = Circuit(tuple(conserving_gate(targets, couples, rng) for targets, couples in gates), 3)
        assert np.abs(_sector_step(*gate_tables(circuit), basis) - circuit_matrix(circuit).T).max() < 1e-14


def expression_step(diag, off, pairs, basis):
    """The step from eye(d), one new matrix per table: the product the kernel must equal bit for bit."""
    local, partner = _gate_action(off, pairs, basis)
    cols = np.eye(basis.size, dtype=complex)
    for d, o, p in zip(np.take_along_axis(diag, local, axis=1), np.take_along_axis(off, local, axis=1), partner):
        cols = d[:, None] * cols + o[:, None] * cols[p]
    return cols.T


@pytest.mark.parametrize(
    "model",
    [
        PairingModel.uniform(8, 4, 1.0, 1.0),
        HubbardModel(sites=4, hopping=1.0, onsite=1.0),
        PairingModel.uniform(4, 2, 1.0, 1.0),
    ],
    ids=["pairing-8", "hubbard-4", "pairing-4"],
)
@pytest.mark.parametrize("dt", [2e-3, 0.0625 / 3, 0.5])
def test_sector_step_equals_the_step_from_the_identity(model, dt):
    # the trace's and the chain's FDM models on their default sectors: folding the
    # leading diagonal tables and updating in place must not move a single bit
    member = initial_state(model).members[0]
    sectors = tuple(sorted(set(sector_labels(model, np.flatnonzero(member.amplitudes)).tolist())))
    basis = trotter._sector_basis(model, sectors)
    tables = _step_gates(model, dt)
    assert np.array_equal(_sector_step(*tables, basis), expression_step(*tables, basis))


def test_step_reuse_follows_the_occupied_sectors():
    # one model and one dt, inputs in different weight sectors in turn
    model = PairingModel.uniform(4, 2, 1.0, 0.7)
    for bits in ("1000", "1100", "1000", "1110"):
        state = StateVector.from_bitstring(bits)
        out = evolve(state, model, 0.5, 2)
        assert np.abs(out.amplitudes - gate_level(state, model, 0.5, 2).amplitudes).max() < 1e-12


def test_sector_step_rejects_gate_coupling_out_of_the_basis():
    # a hopping block across the two spin chains, on (a, a + M), moves an up
    # fermion to a down site: from the (2, 2) sector its partner lies in (1, 3) or (3, 1)
    diag, off, _ = _step_gates(HubbardModel(sites=4, hopping=1.0, onsite=1.0), 0.1)
    with pytest.raises(SimulationError, match="outside the sector basis"):
        _sector_step(diag[:1], off[:1], np.array([[0, 4]]), spin_basis(4, {(2, 2)}))


@pytest.mark.parametrize("sites", [3, 4])
def test_interaction_gates_build_on_every_spin_sector(sites):
    # the interaction blocks sit on (a, a + M) like the gate above, but their
    # 01/10 entries are zero, so no partner is looked up
    model = HubbardModel(sites=sites, hopping=0.8, onsite=1.3)
    stack = _step_gates(model, 0.1)
    full = _sector_step(*stack, np.arange(1 << model.n_qubits))
    for sector in itertools.product(range(sites + 1), repeat=2):
        basis = spin_basis(sites, {sector})
        assert np.abs(_sector_step(*stack, basis) - full[np.ix_(basis, basis)]).max() < 1e-15


# One propagator S^n per (model, t, n_steps, occupied sectors) -----------------


def sector_walk(state, model, t, n_steps):
    """n_steps products with the step matrix on every sector at once (the kernel before the power)."""
    full = np.arange(1 << model.n_qubits)
    step = _sector_step(*_step_gates(model, t / n_steps), full)
    rows = state.amplitudes.reshape(-1, full.size)
    for _ in range(n_steps):
        rows = rows @ step
    return rows.reshape(-1)


def weight_basis(n_qubits, weights):
    """The basis states whose Hamming weight is in weights."""
    return np.flatnonzero(np.isin(np.bitwise_count(np.arange(1 << n_qubits)), list(weights)))


def spin_basis(sites, sectors):
    """The Hubbard basis states whose (N_up, N_down) is in sectors; up on the low qubits, down on the high ones."""
    index = np.arange(1 << (2 * sites))
    spins = zip(np.bitwise_count(index & ((1 << sites) - 1)).tolist(), np.bitwise_count(index >> sites).tolist())
    return np.flatnonzero([spin in sectors for spin in spins])


def sector_state(n_qubits, basis, seed):
    """Random normalized amplitudes on the given basis states."""
    rng = np.random.default_rng(seed)
    inside = np.isin(np.arange(1 << n_qubits), basis)
    amps = (rng.normal(size=inside.size) + 1j * rng.normal(size=inside.size)) * inside
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


POWER_MODELS = {
    "pairing-4": PairingModel.uniform(4, 2, 1.0, 0.7),
    "hubbard-3": HubbardModel(sites=3, hopping=1.0, onsite=1.3),
}


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(sorted(POWER_MODELS)),
    st.floats(0.01, 3.0),
    st.integers(1, 2000),
    st.sets(st.integers(0, 4), min_size=1, max_size=2),
    st.integers(0, 2**32 - 1),
)
@example("pairing-4", 2.0, 2000, {1, 2}, 0)
@example("hubbard-3", 2.0, 2000, {2, 3}, 1)
def test_step_power_matches_step_walk(label, t, n_steps, weights, seed):
    model = POWER_MODELS[label]
    state = sector_state(model.n_qubits, weight_basis(model.n_qubits, weights), seed)
    out = evolve(state, model, t, n_steps)
    assert np.abs(out.amplitudes - sector_walk(state, model, t, n_steps)).max() < 1e-12


def test_step_power_is_not_reused_across_equal_step_sizes():
    # (0.5, 2) and (1.0, 4) share dt = 0.25; a power keyed on dt would apply U^2 at t = 1.0
    model = PairingModel.uniform(4, 2, 1.0, 0.7)
    state = StateVector.from_bitstring("1100")
    for t, n_steps in ((0.5, 2), (1.0, 4), (0.5, 2)):
        out = evolve(state, model, t, n_steps)
        assert np.abs(out.amplitudes - gate_level(state, model, t, n_steps).amplitudes).max() < 1e-12


# Spin-resolved sectors: Hubbard evolves on (N_up, N_down), not on the weight ---


@contextlib.contextmanager
def recorded_bases():
    """Record the basis of every propagator the kernel looks up inside the block."""
    bases = []
    lookup = trotter._propagator

    def record(*key):
        basis, power = lookup(*key)
        bases.append(basis)
        return basis, power

    with mock.patch.object(trotter, "_propagator", record):
        yield bases


def hubbard_case(model, sectors, seed):
    basis = spin_basis(model.sites, sectors)
    return model, basis, sector_state(model.n_qubits, basis, seed)


@st.composite
def hubbard_sector_states(draw):
    """A Hubbard model and a random state on one (N_up, N_down) sector or on the union of two."""
    sites = draw(st.integers(2, 4))
    model = HubbardModel(sites=sites, hopping=draw(coefficients), onsite=draw(coefficients))
    spins = st.tuples(st.integers(0, sites), st.integers(0, sites))
    return hubbard_case(model, draw(st.sets(spins, min_size=1, max_size=2)), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=40, deadline=None)
@given(hubbard_sector_states(), st.floats(0.01, 3.0), st.integers(1, 4))
@example(hubbard_case(HubbardModel(4, 1.0, 1.0), {(2, 2)}, 0), 1.0, 3)
@example(hubbard_case(HubbardModel(3, 1.0, 1.3), {(1, 2), (2, 1)}, 1), 0.7, 2)
def test_spin_sector_kernel_matches_gate_level(drawn, t, n_steps):
    model, basis, state = drawn
    expected = gate_level(state, model, t, n_steps).amplitudes
    with recorded_bases() as bases:
        out = evolve(state, model, t, n_steps)
    assert [b.size for b in bases] == [basis.size]
    assert np.abs(out.amplitudes - expected).max() < 1e-12
    # ancilla |0> half left alone, |1> half evolved
    ancilla = model.n_qubits
    both = StateVector(ancilla + 1, np.concatenate([state.amplitudes, state.amplitudes]) / np.sqrt(2.0))
    with recorded_bases() as bases:
        out = controlled_evolve(both, model, t, n_steps).amplitudes
    assert [b.size for b in bases] == [basis.size]
    assert np.array_equal(out[: state.amplitudes.size], both.amplitudes[: state.amplitudes.size])
    assert np.abs(out[state.amplitudes.size :] - expected / np.sqrt(2.0)).max() < 1e-12


@pytest.mark.parametrize(
    "model, size",
    [(HubbardModel(sites=4, hopping=1.0, onsite=1.0), 36), (PairingModel.uniform(8, 4, 1.0, 1.0), 70)],
)
def test_default_states_evolve_on_their_conserved_sector(model, size):
    # Hubbard-4's mixture lies in (2, 2), 36 of the 70 states of weight 4
    with recorded_bases() as bases:
        gf_series(model, initial_state(model), [0.0, 0.5])
    assert {b.size for b in bases} == {size}


def test_sector_sets_of_one_model_get_their_own_bases():
    # one Hubbard model, inputs on (1, 1), then (2, 1), then (1, 1) again: each sector set
    # evolves on its own basis, and a repeated set finds the basis built for it
    model = HubbardModel(sites=3, hopping=1.0, onsite=1.3)
    sets = [{(1, 1)}, {(2, 1)}, {(1, 1)}]
    with recorded_bases() as bases:
        for k, sectors in enumerate(sets):
            _, basis, state = hubbard_case(model, sectors, k)
            out = evolve(state, model, 0.4 + k, 2)
            assert np.array_equal(bases[-1], basis)
            assert np.abs(out.amplitudes - gate_level(state, model, 0.4 + k, 2).amplitudes).max() < 1e-12
    assert bases[0] is bases[2] and bases[0] is not bases[1]
    assert not any(b.flags.writeable for b in bases)
