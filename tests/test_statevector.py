import numpy as np
import pytest

from gfsim.statevector import (
    GateMatrix,
    SimulationError,
    StateVector,
    ancilla_probability,
    apply_gate,
    controlled_matrix,
    derive_seed,
    hadamard,
    pauli_x,
    phase_gate,
    sample_ancilla,
)


def random_unitary(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def test_x_flips_zero_to_one():
    state = apply_gate(StateVector(1), pauli_x(0))
    assert np.allclose(state.amplitudes, [0, 1])


def test_hadamard_makes_equal_superposition():
    state = apply_gate(StateVector(1), hadamard(0))
    assert np.allclose(state.amplitudes, np.array([1, 1]) / np.sqrt(2))


def test_phase_gate_minus_half_pi():
    # R(-pi/2) on (|0>+|1>)/sqrt2 -> (|0>-i|1>)/sqrt2
    state = apply_gate(StateVector(1), hadamard(0))
    state = apply_gate(state, phase_gate(-np.pi / 2, 0))
    assert np.allclose(state.amplitudes, np.array([1, -1j]) / np.sqrt(2))


def test_bitstring_convention_qubit0_is_lsb():
    state = StateVector.from_bitstring("10")  # qubit 0 set, qubit 1 clear
    assert np.argmax(np.abs(state.amplitudes)) == 1


def test_gate_on_qubit1_of_two():
    state = apply_gate(StateVector.from_bitstring("00"), pauli_x(1))
    assert np.argmax(np.abs(state.amplitudes)) == 2


def test_non_unitary_matrix_rejected():
    with pytest.raises(SimulationError):
        GateMatrix(np.array([[1.0, 0.0], [0.0, 0.5]]), (0,))


def test_target_out_of_range_rejected():
    with pytest.raises(SimulationError):
        apply_gate(StateVector(1), pauli_x(3))


def _apply_controlled(state, control, gate):
    """The gate controlled on one qubit: a GateMatrix on (control, *targets)."""
    return apply_gate(state, GateMatrix(controlled_matrix(gate), (control, *gate.targets)))


def test_control_off_leaves_state_unchanged():
    rng = np.random.default_rng(1)
    sys_state = random_state(2, rng)
    amps = np.zeros(8, dtype=complex)
    amps[:4] = sys_state.amplitudes  # control qubit 2 in |0>
    state = StateVector(3, amps)
    out = _apply_controlled(state, 2, GateMatrix(random_unitary(4, rng), (0, 1)))
    assert np.allclose(out.amplitudes, amps)


def test_control_on_acts_as_plain_gate():
    state = StateVector.from_bitstring("01")  # qubit 1 = control, on
    out = _apply_controlled(state, 1, pauli_x(0))
    assert np.allclose(out.amplitudes, StateVector.from_bitstring("11").amplitudes)


def test_controlled_equals_explicit_block_matrix():
    # oracle: build the 8x8 controlled matrix by hand and compare on random states
    rng = np.random.default_rng(7)
    for _ in range(20):
        gate = GateMatrix(random_unitary(4, rng), (1, 0))
        state = random_state(3, rng)
        fast = _apply_controlled(state, 2, gate)
        block = np.eye(8, dtype=complex)
        block[4:, 4:] = _dense_two_qubit(gate.matrix)
        expect = block @ state.amplitudes
        assert np.abs(fast.amplitudes - expect).max() < 1e-12


def _dense_two_qubit(matrix):
    """4x4 on (qubit 1, qubit 0) as an explicit matrix over amplitude index q1q0."""
    out = np.zeros((4, 4), dtype=complex)
    for col in range(4):
        b1, b0 = (col >> 1) & 1, col & 1
        gate_col = matrix[:, (b1 << 1) | b0]
        for row in range(4):
            r1, r0 = (row >> 1) & 1, row & 1
            out[row, col] = gate_col[(r1 << 1) | r0]
    return out


def test_controlled_matrix_block_structure():
    gate = GateMatrix(np.diag([1, 1j]), (0,))
    mat = controlled_matrix(gate)
    assert np.allclose(mat, np.diag([1, 1, 1, 1j]))


def test_norm_preserved_by_random_gate_sequences():
    rng = np.random.default_rng(42)
    state = random_state(4, rng)
    n_gates = 60
    for _ in range(n_gates):
        if rng.random() < 0.5:
            gate = GateMatrix(random_unitary(2, rng), (int(rng.integers(4)),))
        else:
            a, b = rng.choice(4, size=2, replace=False)
            gate = GateMatrix(random_unitary(4, rng), (int(a), int(b)))
        state = apply_gate(state, gate)
    assert abs(state.norm() ** 2 - 1.0) < 1e-12 * n_gates


def test_ancilla_probability_basis_states():
    assert ancilla_probability(StateVector.from_bitstring("00"), 1) == 1.0
    assert ancilla_probability(StateVector.from_bitstring("01"), 1) == 0.0  # bits[1] is qubit 1
    assert ancilla_probability(StateVector.from_bitstring("10"), 0) == 0.0
    assert ancilla_probability(StateVector.from_bitstring("10"), 1) == 1.0


def test_ancilla_probability_superposition():
    state = apply_gate(StateVector(2), hadamard(1))
    assert abs(ancilla_probability(state, 1) - 0.5) < 1e-15


def test_sampling_deterministic_and_certain_outcomes():
    p0 = ancilla_probability(StateVector.from_bitstring("0"), 0)
    bias = sample_ancilla(p0, 100, seed=5)
    assert bias == 1.0  # all 100 shots read 0
    assert sample_ancilla(p0, 100, seed=5) == bias
    assert sample_ancilla(1.0 - p0, 100, seed=5) == -1.0


def test_sampling_zero_shots_rejected():
    with pytest.raises(SimulationError):
        sample_ancilla(1.0, 0, seed=1)


def test_sampling_unbiased_at_half():
    # p0 = 1/2; 5-sigma binomial bound on the bias estimate
    state = apply_gate(StateVector(1), hadamard(0))
    bias = sample_ancilla(ancilla_probability(state, 0), 10**4, seed=9)
    n0_minus_n1 = round(bias * 10**4)
    assert n0_minus_n1 / 10**4 == bias and n0_minus_n1 % 2 == 0  # n0 + n1 = 10^4 shots drawn
    assert abs(bias) < 0.05


def test_sampling_converges_to_expectation():
    rng = np.random.default_rng(3)
    state = random_state(3, rng)
    p0 = ancilla_probability(state, 2)
    shots = 10**6
    bias = sample_ancilla(p0, shots, seed=17)
    exact = 2.0 * p0 - 1.0
    assert abs(bias - exact) < 5.0 / np.sqrt(shots)


@pytest.mark.parametrize("path", [(0,), (2**32 - 1, 0, 1), (7, 2**40 + 3, 2**64 + 5)], ids=["zero", "top", "wide"])
def test_derive_seed_equals_the_masked_int_list(path):
    # a uint32 array and the list of masked Python ints are the same SeedSequence entropy,
    # each int below 2^32 one word, so every sub-seed stays what it was
    entropy = [p & 0xFFFFFFFF for p in path]
    expected = int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
    assert derive_seed(*path) == expected
