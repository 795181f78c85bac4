import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from gfsim.models import (
    WEIGHT_TOL,
    HubbardModel,
    InitialState,
    PairingModel,
    QubitHamiltonian,
    SimulationError,
    _block_labels,
    build_dense,
    hubbard_to_qubits,
    initial_state,
    pairing_to_qubits,
    to_qubits,
)
from model_oracles import pauli_string_matrix, pauli_terms_matrix

SQRT2 = np.sqrt(2.0)


def pairing2(g=1.0):
    return PairingModel.uniform(levels=2, pairs=1, delta_e=1.0, g=g)


def test_pairing_terms_match_expected_structure():
    h = pairing_to_qubits(pairing2())
    # eps terms: (e1+e2) I, -e1 Z0, -e2 Z1; coupling: -(g/2) XX and YY
    assert h.terms == pytest.approx({"II": 3.0, "IZ": -2.0, "XX": -0.5, "YY": -0.5, "ZI": -1.0})
    assert list(h.terms) == ["II", "IZ", "XX", "YY", "ZI"]  # sorted


def test_pairing_without_coupling_is_diagonal():
    h = pairing_to_qubits(pairing2(g=0.0))
    assert all(set(ops) <= {"I", "Z"} for ops in h.terms)


def test_pairing_one_pair_sector_matrix():
    # oracle: expand the two-term action on {|10>, |01>} by hand
    dense = build_dense(pairing_to_qubits(pairing2()))
    sector = dense.matrix[np.ix_([1, 2], [1, 2])]
    assert np.allclose(sector, [[2.0, -1.0], [-1.0, 4.0]], atol=1e-12)


def test_pairing_sector_eigenvalues():
    dense = build_dense(pairing_to_qubits(pairing2()))
    evals = np.linalg.eigvalsh(dense.matrix[np.ix_([1, 2], [1, 2])])
    assert np.allclose(evals, [3.0 - SQRT2, 3.0 + SQRT2])


def test_pairing_model_equality_and_hash_are_by_identity():
    # array fields make value equality ambiguous; a model is equal only to itself
    model, twin = PairingModel.uniform(4, 2), PairingModel.uniform(4, 2)
    assert model == model and hash(model) == hash(model)
    assert model != twin
    assert len({model, twin, model}) == 2


def test_hubbard_hopping_links_skip_spin_boundary():
    h = hubbard_to_qubits(HubbardModel(sites=2, hopping=1.0, onsite=0.0))
    xx = {ops for ops in h.terms if "X" in ops}
    assert xx == {"XXII", "IIXX"}


def test_hubbard_without_interaction_has_no_z_terms():
    h = hubbard_to_qubits(HubbardModel(sites=2, hopping=1.0, onsite=0.0))
    assert all("Z" not in ops for ops in h.terms)


def test_hubbard_dimer_spectrum():
    # oracle: textbook dimer eigenvalues {0, U, (U +- sqrt(U^2+16J^2))/2}
    j_hop, u = 1.0, 2.0
    dense = build_dense(hubbard_to_qubits(HubbardModel(sites=2, hopping=j_hop, onsite=u)))
    # one up + one down: basis indices with qubit bits (up0,up1,dn0,dn1)
    sector = [i for i in range(16) if bin(i & 0b0011).count("1") == 1 and bin(i & 0b1100).count("1") == 1]
    evals = np.linalg.eigvalsh(dense.matrix[np.ix_(sector, sector)])
    disc = np.sqrt(u**2 + 16.0 * j_hop**2)
    expected = sorted([0.0, u, 0.5 * (u + disc), 0.5 * (u - disc)])
    assert np.allclose(evals, expected, atol=1e-12)


def test_dense_single_z():
    from gfsim.models import QubitHamiltonian

    dense = build_dense(QubitHamiltonian(1, [(1.0, "Z")]))
    assert np.allclose(dense.matrix, np.diag([1.0, -1.0]))


@pytest.mark.parametrize("ops", ["XQ", "XYZ", "X"])
def test_pauli_strings_are_checked(ops):
    with pytest.raises(SimulationError, match="not a Pauli string on 2 qubits"):
        QubitHamiltonian(2, [(1.0, ops)])


def test_duplicate_strings_merge_and_zero_sums_drop():
    h = QubitHamiltonian(2, [(1.0, "ZI"), (0.5, "XX"), (-1.0, "ZI"), (0.25, "XX")])
    assert h.terms == {"XX": 0.75}


def test_dense_rejects_oversized_systems():
    from gfsim.models import QubitHamiltonian

    h = QubitHamiltonian(13, [(1.0, "Z" + "I" * 12)])
    with pytest.raises(SimulationError):
        build_dense(h)


def test_number_conserving_block_dimension_70():
    # number-conserving sector of 4 pairs on 8 levels
    model = PairingModel.uniform(8, 4)
    dense = build_dense(pairing_to_qubits(model))
    sector = [i for i in range(256) if bin(i).count("1") == 4]
    assert len(sector) == 70
    # H must not connect different occupation numbers
    assert_commutes_with_number_operator(dense.matrix)


def assert_commutes_with_number_operator(hm):
    # the total number operator is the popcount diagonal
    number = np.array([bin(i).count("1") for i in range(hm.shape[0])], dtype=float)
    comm = hm * number[None, :] - number[:, None] * hm
    assert np.abs(comm).max() < 1e-12


def test_hamiltonians_commute_with_number_operator():
    for h in (
        pairing_to_qubits(PairingModel.uniform(4, 2, 1.0, 0.7)),
        hubbard_to_qubits(HubbardModel(sites=3, hopping=1.0, onsite=1.5)),
    ):
        assert_commutes_with_number_operator(h.to_matrix())


def test_hermiticity_of_encodings():
    for h in (
        pairing_to_qubits(PairingModel.uniform(5, 2, 1.0, 1.3)),
        hubbard_to_qubits(HubbardModel(sites=3, hopping=0.8, onsite=2.0)),
    ):
        mat = h.to_matrix()
        assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_pairing_weak_coupling_spectrum_is_occupation_sums():
    # g -> 0: eigenvalues are sums of 2 eps_p over occupied subsets (M <= 4 exhaustive)
    for m_levels in (2, 3, 4):
        model = PairingModel.uniform(m_levels, 1, delta_e=1.0, g=0.0)
        dense = build_dense(pairing_to_qubits(model))
        eps = model.eps
        expected = sorted(
            sum(2.0 * eps[p] for p in occ)
            for r in range(m_levels + 1)
            for occ in itertools.combinations(range(m_levels), r)
        )
        assert np.allclose(np.sort(dense.eigenvalues), expected, atol=1e-12)


def test_energy_bound_dominates_spectrum():
    h = pairing_to_qubits(PairingModel.uniform(4, 2, 1.0, 1.0))
    dense = build_dense(h)
    center, radius = h.spectral_window
    assert np.abs(dense.eigenvalues - center).max() <= radius + 1e-12


@pytest.mark.parametrize(
    "model, window",
    [
        (PairingModel.uniform(8, 4, 1.0, 1.0), (36.0, 64.0)),
        (HubbardModel(sites=4, hopping=1.0, onsite=1.0), (1.0, 9.0)),
    ],
    ids=["pairing-8", "hubbard-4"],
)
def test_weighted_spectrum_lies_in_the_spectral_window(model, window):
    h = to_qubits(model)
    assert h.spectral_window == pytest.approx(window, rel=1e-15)
    dense = build_dense(h)
    energies = dense.spectrum(initial_state(model)).reachable().energies
    center, radius = window
    assert energies.size > 0
    assert np.all(np.abs(energies - center) <= radius)


def test_initial_state_pairing_lowest_filled():
    state = initial_state(PairingModel.uniform(8, 4))
    assert len(state) == 1
    assert np.argmax(np.abs(state.members[0].amplitudes)) == 0b1111


def test_initial_state_hubbard_mixture():
    state = initial_state(HubbardModel(sites=4, hopping=1.0, onsite=1.0))
    assert len(state) == 6
    assert np.allclose(state.weights, 1.0 / 6.0)
    # members pairwise orthogonal (distinct bitstrings)
    for a, b in itertools.combinations(state.members, 2):
        assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-15


def test_initial_state_occupation_mismatch_rejected():
    with pytest.raises(SimulationError):
        initial_state(PairingModel.uniform(4, 2), ["1110"])


def test_initial_state_spin_mismatch_rejected():
    # both members hold two fermions, as (N_up, N_down) = (1, 1) and (2, 0)
    with pytest.raises(SimulationError, match="disagree on particle numbers: '1001' and '1100'"):
        initial_state(HubbardModel(sites=2, hopping=1.0, onsite=1.0), ["1001", "1100"])
    assert len(initial_state(HubbardModel(sites=2, hopping=1.0, onsite=1.0), ["1001", "0110"])) == 2


def test_initial_state_explicit_bitstrings():
    state = initial_state(PairingModel.uniform(4, 2), ["1100", "0011"])
    assert len(state) == 2


def test_ground_energy_uses_reachable_sector():
    model = PairingModel.uniform(4, 2, 1.0, 1.0)
    dense = build_dense(pairing_to_qubits(model))
    init = initial_state(model)
    # global minimum is the empty sector at 0; the reachable one is positive
    assert dense.eigenvalues.min() == pytest.approx(0.0, abs=1e-12)
    assert dense.ground_energy(init) > 1.0


def test_unreachable_weight_on_pairing_8_is_degenerate_mixing():
    # the weights in (0, WEIGHT_TOL] are not lone roundoff levels: each sits on a
    # level exactly degenerate with a reachable one, and together they stay
    # far below one part in 10^14
    model = PairingModel.uniform(8, 4, 1.0, 1.0)
    spec = build_dense(to_qubits(model)).spectrum(initial_state(model))
    reachable = spec.reachable()
    assert spec.energies.size == 60 and reachable.energies.size == 46
    dropped = spec.weights <= WEIGHT_TOL
    assert all(np.abs(reachable.energies - e).min() < 1e-9 for e in spec.energies[dropped])
    assert 0.0 < spec.weights[dropped].sum() < 1e-14
    assert spec.trace([0.0])[0] == pytest.approx(1.0, abs=1e-15)


def test_pauli_string_matrix_ordering():
    # "XI" acts on qubit 0: flips the least-significant bit
    mat = pauli_string_matrix("XI")
    basis = np.zeros(4)
    basis[0] = 1.0
    assert np.argmax(np.abs(mat @ basis)) == 1


def test_to_matrix_qubit_zero_is_lsb():
    mat = QubitHamiltonian(2, [(1.0, "XI")]).to_matrix()
    assert np.array_equal(mat, np.kron(np.eye(2), [[0.0, 1.0], [1.0, 0.0]]))


def kron_oracle(h):
    return pauli_terms_matrix([(c, ops) for ops, c in h.terms.items()], h.n_qubits)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 6))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    coeffs = st.floats(-3.0, 3.0, allow_nan=False)
    return QubitHamiltonian(n, draw(st.lists(st.tuples(coeffs, letters), min_size=1, max_size=12)))


@settings(max_examples=100, deadline=None)
@given(pauli_sums())
def test_to_matrix_equals_kron_oracle(h):
    assert np.array_equal(h.to_matrix(), kron_oracle(h))


def test_to_matrix_equals_kron_oracle_on_models():
    for h in (
        QubitHamiltonian(4, [(0.3, "XYZI"), (-1.1, "YZXY"), (0.7, "ZZYY"), (2.0, "IIII")]),
        pairing_to_qubits(PairingModel.uniform(8, 4, 1.0, 1.0)),
        pairing_to_qubits(PairingModel.uniform(5, 2, 0.7, 1.3)),
        hubbard_to_qubits(HubbardModel(sites=3, hopping=0.8, onsite=2.0)),
        hubbard_to_qubits(HubbardModel(sites=4, hopping=1.0, onsite=1.0)),
    ):
        assert np.array_equal(h.to_matrix(), kron_oracle(h))


def transverse_field_ising(n=3, j=1.0, field=0.7):
    terms = [(-j, "".join("Z" if q in (a, a + 1) else "I" for q in range(n))) for a in range(n - 1)]
    terms += [(-field, "".join("X" if q == a else "I" for q in range(n))) for a in range(n)]
    return QubitHamiltonian(n, terms)


def block_cases():
    pairing = PairingModel.uniform(8, 4, 1.0, 1.0)
    hubbard = HubbardModel(sites=3, hopping=1.0, onsite=1.5)
    return [
        (pairing_to_qubits(pairing), initial_state(pairing)),
        (hubbard_to_qubits(hubbard), initial_state(hubbard)),
        (transverse_field_ising(), InitialState.from_bitstrings(["000", "110"])),  # X flips every bit: one block
    ]


@pytest.mark.parametrize("h, init", block_cases(), ids=["pairing-8", "hubbard-3", "ising-3"])
def test_block_diagonalization_matches_full_eigh(h, init):
    dense = build_dense(h)
    evals, evecs = np.linalg.eigh(h.to_matrix())
    scale = np.abs(evals).max()
    assert np.abs(dense.eigenvalues - evals).max() <= 1e-12 * scale
    vecs = dense.eigenvectors
    assert np.abs(dense.matrix @ vecs - vecs * dense.eigenvalues).max() <= 1e-12 * scale
    assert np.abs(vecs.conj().T @ vecs - np.eye(evals.size)).max() < 1e-12
    # inside a degenerate eigenspace eigh may pick any basis, so the weight of
    # one eigenvector is not defined (on pairing-8 the two routes differ by
    # 0.027 vector by vector); the weights are compared per distinct eigenvalue
    full = sum(w * np.abs(evecs.conj().T @ m.amplitudes) ** 2 for w, m in zip(init.weights, init.members))
    starts = np.flatnonzero(np.diff(evals, prepend=-np.inf) > 1e-9 * scale)
    spec = dense.spectrum(init)
    group = np.searchsorted(0.5 * (evals[starts[1:] - 1] + evals[starts[1:]]), spec.energies)
    blocked = np.bincount(group, weights=spec.weights, minlength=starts.size)
    assert np.abs(blocked - np.add.reduceat(full, starts)).max() < 1e-12


def popcount(b):
    return bin(b).count("1")


@pytest.mark.parametrize(
    "model, sector",
    [
        (PairingModel.uniform(8, 4, 1.0, 1.0), popcount),  # 9 blocks
        (HubbardModel(sites=4, hopping=1.0, onsite=1.0), lambda b: 5 * popcount(b & 0x0F) + popcount(b >> 4)),  # 25
    ],
    ids=["pairing-8", "hubbard-4"],
)
def test_eigenvectors_stay_in_their_block(model, sector):
    dense = build_dense(to_qubits(model))
    init = initial_state(model)
    labels = np.array([sector(b) for b in range(256)])
    home = {labels[np.flatnonzero(m.amplitudes)[0]] for m in init.members}
    assert len(home) == 1
    block_of = []
    for col in dense.eigenvectors.T:
        support = np.unique(labels[col != 0])
        assert support.size == 1
        block_of.append(support[0])
    # weights outside the initial state's block are exact zeros, so the spectrum's
    # w > 0 cut keeps only levels of that block
    vecs = dense.eigenvectors
    w = sum(p * np.abs(vecs.conj().T @ m.amplitudes) ** 2 for p, m in zip(init.weights, init.members))
    outside = np.array(block_of) != home.pop()
    assert np.all(w[outside] == 0.0)
    assert np.array_equal(dense.spectrum(init).energies, dense.eigenvalues[w > 0.0])


def scipy_labels(matrix):
    """The independent oracle: scipy's undirected connected components."""
    return connected_components(csr_matrix(matrix != 0), directed=False)[1]


@st.composite
def sparsity_patterns(draw):
    """Symmetric patterns: at most n random edges, so some nodes stay isolated, plus one fully connected block."""
    n = draw(st.integers(1, 40))
    pattern = np.zeros((n, n), dtype=bool)
    nodes = st.integers(0, n - 1)
    for i, j in draw(st.lists(st.tuples(nodes, nodes), max_size=n)):
        pattern[i, j] = pattern[j, i] = True
    clique = draw(st.lists(nodes, unique=True, max_size=n))
    pattern[np.ix_(clique, clique)] = True
    return pattern


@settings(max_examples=200, deadline=None)
@given(sparsity_patterns())
@example(np.zeros((5, 5), dtype=bool))  # every node isolated
@example(np.ones((6, 6), dtype=bool))  # one block
def test_block_labels_match_scipy_components(pattern):
    matrix = pattern * (0.6 - 0.8j)
    assert np.array_equal(_block_labels(matrix), scipy_labels(matrix))


@pytest.mark.parametrize(
    "model",
    [PairingModel.uniform(8, 4, 1.0, 1.0), HubbardModel(sites=4, hopping=1.0, onsite=1.0), PairingModel.uniform(4, 2)],
    ids=["pairing-8", "hubbard-4", "pairing-4"],
)
def test_block_labels_match_scipy_on_models(model):
    matrix = to_qubits(model).to_matrix()
    assert np.array_equal(_block_labels(matrix), scipy_labels(matrix))
