"""Model Hamiltonians, qubit encodings, dense oracle, and initial states.

Two models are supported:

* a seniority-zero pairing Hamiltonian (one qubit per time-reversed pair),
  H = sum_p eps_p [1 - Z_p] - 1/2 sum_{p>q} g_pq [X_p X_q + Y_p Y_q];
* the open-boundary 1-D Fermi-Hubbard chain after a Jordan-Wigner mapping
  with spin-up sites on qubits 0..M-1 and spin-down on M..2M-1,
  H = J sum_{a != M-1} (X_{a+1} X_a + Y_{a+1} Y_a)/2
    + U/4 sum_a [I - Z_a][I - Z_{a+M}].

The dense matrix of any encoded Hamiltonian (eigendecomposition cached) is the
oracle every "exact" curve in the package is checked against.  It is built
from each Pauli term's bit action and diagonalized one block at a time.

A state's spectrum {(E_a, w_a)} is one Spectrum, whether it comes from the
dense oracle, from ESPRIT's tones or from Krylov's Ritz pairs; F(t), the
moments and the reachable ground energy are all read off it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .statevector import SimulationError, StateVector

HERMITICITY_TOL = 1e-12
MAX_DENSE_QUBITS = 12
# spectral weight below which a level counts as unreachable from the initial state
WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Levels E_a (ascending) with weights w_a: F(t) = sum_a w_a e^{-i E_a t}.

    Traces and moments use every level given; reachable() decides which levels
    a ground energy may come from.
    """

    energies: np.ndarray
    weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    def trace(self, t_grid) -> np.ndarray:
        """F(t) = sum_a w_a e^{-i E_a t} on t_grid."""
        return np.exp(-1j * np.outer(np.asarray(t_grid, dtype=float), self.energies)) @ self.weights

    def moments(self, order: int) -> np.ndarray:
        """<H^K> = sum_a w_a E_a^K for K = 0..order."""
        if order < 0:
            raise SimulationError(f"order must be >= 0, got {order}")
        return np.vander(self.energies, order + 1, increasing=True).T @ self.weights

    def reachable(self) -> "Spectrum":
        """The levels with weight above WEIGHT_TOL.

        Weight at or below it is not always roundoff: on pairing-8 the initial
        state spreads 6.4e-15 over 14 levels, each exactly degenerate with a
        kept one.  Dropping it from a trace would leave F(0) short of 1, so
        only reachability reads this cut.
        """
        keep = self.weights > WEIGHT_TOL
        return Spectrum(self.energies[keep], self.weights[keep], self.diagnostics)


@dataclass(frozen=True)
class PauliTerm:
    """Real-weighted Pauli string; ops[q] is the letter for qubit q."""

    coeff: float
    ops: str

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.ops):
            raise SimulationError(f"invalid Pauli letters in {self.ops!r}")


class QubitHamiltonian:
    """Hermitian sum of real-weighted Pauli strings on n qubits.

    Canonicalization merges duplicate strings, drops zero terms, and sorts by
    string so identical Hamiltonians compare equal term by term.
    """

    def __init__(self, n_qubits: int, terms):
        self.n_qubits = int(n_qubits)
        merged: dict[str, float] = {}
        for term in terms:
            if isinstance(term, PauliTerm):
                coeff, ops = term.coeff, term.ops
            else:
                coeff, ops = term
            if len(ops) != self.n_qubits:
                raise SimulationError(f"term {ops!r} does not match {self.n_qubits} qubits")
            if abs(float(np.imag(coeff))) > HERMITICITY_TOL:
                raise SimulationError(f"non-real coefficient {coeff} on {ops!r}")
            merged[ops] = merged.get(ops, 0.0) + float(np.real(coeff))
        self.terms = tuple(
            PauliTerm(c, ops) for ops, c in sorted(merged.items()) if c != 0.0
        )

    def __iter__(self):
        return iter(self.terms)

    def __len__(self):
        return len(self.terms)

    def coefficient(self, ops: str) -> float:
        for term in self.terms:
            if term.ops == ops:
                return term.coeff
        return 0.0

    @property
    def spectral_window(self) -> tuple[float, float]:
        """(c_I, B'): every eigenvalue lies within B' of the identity coefficient c_I.

        B' = sum of the non-identity |coeff|, a rigorous bound on |E - c_I|.
        """
        identity = "I" * self.n_qubits
        radius = sum(abs(t.coeff) for t in self.terms if t.ops != identity)
        return self.coefficient(identity), float(radius)

    def to_matrix(self) -> np.ndarray:
        """Dense matrix, each term entered by its action on basis states (qubit 0 = LSB).

        X and Y flip the bits of xmask; Z and Y contribute the sign
        (-1)^popcount(b & zmask) of the input bits b; each Y adds a factor i.
        """
        basis = np.arange(1 << self.n_qubits)
        out = np.zeros((basis.size, basis.size), dtype=complex)
        for term in self.terms:
            xmask = sum(1 << q for q, c in enumerate(term.ops) if c in "XY")
            zmask = sum(1 << q for q, c in enumerate(term.ops) if c in "YZ")
            phase = (1, 1j, -1, -1j)[term.ops.count("Y") % 4]
            signs = np.where(np.bitwise_count(basis & zmask) & 1, -1.0, 1.0)
            out[basis ^ xmask, basis] += (term.coeff * phase) * signs
        return out


def _string(n: int, letters: dict[int, str]) -> str:
    return "".join(letters.get(q, "I") for q in range(n))


# Models --------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairingModel:
    """Pairing model with M doubly degenerate levels and N pairs (one qubit per level)."""

    eps: np.ndarray
    g: np.ndarray
    n_pairs: int

    def __post_init__(self):
        # read-only copies: a model object then always means the same numbers,
        # which lets the Trotter kernel's propagator memo key on model identity
        # (eq=False: equality and hash are by identity)
        eps = np.array(self.eps, dtype=float)
        g = np.array(self.g, dtype=float)
        for name, value in (("eps", eps), ("g", g)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        m = eps.size
        if g.shape != (m, m):
            raise SimulationError(f"g must be {m}x{m}, got {g.shape}")
        if not np.allclose(g, g.T, atol=1e-12):
            raise SimulationError("g must be symmetric")
        if not 0 <= self.n_pairs <= m:
            raise SimulationError(f"need 0 <= N <= {m}, got N={self.n_pairs}")

    @classmethod
    def uniform(cls, levels: int, pairs: int, delta_e: float = 1.0, g: float = 1.0) -> "PairingModel":
        """eps_p = p * delta_e for p = 1..M and constant pair coupling g."""
        eps = delta_e * np.arange(1, levels + 1, dtype=float)
        return cls(eps=eps, g=np.full((levels, levels), float(g)), n_pairs=pairs)

    @property
    def n_levels(self) -> int:
        return self.eps.size

    @property
    def n_qubits(self) -> int:
        return self.eps.size

    @property
    def level_spacing(self) -> float:
        """Smallest gap between consecutive sorted level energies (energy scale)."""
        if self.eps.size < 2:
            return float(abs(self.eps[0])) or 1.0
        gaps = np.diff(np.sort(self.eps))
        positive = gaps[gaps > 0]
        return float(positive.min()) if positive.size else 1.0

    def fingerprint(self) -> str:
        eps = ",".join(f"{e:g}" for e in self.eps)
        gtxt = f"{self.g.flat[0]:g}" if np.allclose(self.g, self.g.flat[0]) else "matrix"
        return f"pairing(M={self.n_levels},N={self.n_pairs},eps=[{eps}],g={gtxt})"


@dataclass(frozen=True)
class HubbardModel:
    """1-D Fermi-Hubbard chain with open boundaries; 2M qubits for M sites."""

    sites: int
    hopping: float
    onsite: float

    def __post_init__(self):
        if self.sites < 2:
            raise SimulationError(f"need at least 2 sites, got {self.sites}")

    @property
    def n_qubits(self) -> int:
        return 2 * self.sites

    def fingerprint(self) -> str:
        return f"hubbard(M={self.sites},J={self.hopping:g},U={self.onsite:g})"


def pairing_to_qubits(model: PairingModel) -> QubitHamiltonian:
    """Encode the pairing Hamiltonian, one qubit per level."""
    m = model.n_levels
    terms: list[tuple[float, str]] = []
    for p in range(m):
        terms.append((model.eps[p], _string(m, {})))
        terms.append((-model.eps[p], _string(m, {p: "Z"})))
    for p in range(m):
        for q in range(p):
            c = -0.5 * model.g[p, q]
            terms.append((c, _string(m, {p: "X", q: "X"})))
            terms.append((c, _string(m, {p: "Y", q: "Y"})))
    return QubitHamiltonian(m, terms)


def hubbard_to_qubits(model: HubbardModel) -> QubitHamiltonian:
    """Encode the Hubbard chain on 2M qubits (up: 0..M-1, down: M..2M-1)."""
    m, n = model.sites, 2 * model.sites
    terms: list[tuple[float, str]] = []
    c = 0.5 * model.hopping
    for a in range(n - 1):
        if a != m - 1:  # no hop across the spin-sector boundary
            terms.append((c, _string(n, {a: "X", a + 1: "X"})))
            terms.append((c, _string(n, {a: "Y", a + 1: "Y"})))
    u4 = 0.25 * model.onsite
    for a in range(m):
        terms.append((u4, _string(n, {})))
        terms.append((-u4, _string(n, {a: "Z"})))
        terms.append((-u4, _string(n, {a + m: "Z"})))
        terms.append((u4, _string(n, {a: "Z", a + m: "Z"})))
    return QubitHamiltonian(n, terms)


def to_qubits(model) -> QubitHamiltonian:
    if isinstance(model, PairingModel):
        return pairing_to_qubits(model)
    if isinstance(model, HubbardModel):
        return hubbard_to_qubits(model)
    raise SimulationError(f"unsupported model type {type(model).__name__}")


def sector_labels(model, index) -> np.ndarray:
    """The conserved sector of each basis index of the model's register, as one integer label.

    Pairing conserves the Hamming weight; Hubbard conserves N_up (the low M
    qubits) and N_down (the high M qubits) separately, labelled N_up + (M + 1) N_down.
    """
    index = np.asarray(index, dtype=np.int64)
    if isinstance(model, PairingModel):
        return np.bitwise_count(index).astype(np.int64)
    if isinstance(model, HubbardModel):
        m = model.sites
        return np.bitwise_count(index & ((1 << m) - 1)) + (m + 1) * np.bitwise_count(index >> m).astype(np.int64)
    raise SimulationError(f"unsupported model type {type(model).__name__}")


# Dense oracle ----------------------------------------------------------------


def _block_labels(matrix: np.ndarray) -> np.ndarray:
    """Connected components of the nonzero pattern, numbered by their smallest index.

    Min-label propagation with pointer jumping: a label never exceeds its
    index, so each component settles on its smallest one.
    """
    rows, cols = np.nonzero(matrix)
    labels, settled = np.arange(matrix.shape[0]), None
    while not np.array_equal(labels, settled):
        settled = labels.copy()
        np.minimum.at(labels, rows, settled[cols])  # each nonzero links both ways
        np.minimum.at(labels, cols, settled[rows])
        labels = labels[labels]
    return np.unique(labels, return_inverse=True)[1]


class DenseHamiltonian:
    """Dense Hermitian matrix with a cached eigendecomposition.

    One eigh per connected component of the nonzero pattern (the sectors H
    conserves); eigenvalues ascend, eigenvectors are exactly zero off their block.
    """

    def __init__(self, matrix: np.ndarray, n_qubits: int):
        matrix = np.asarray(matrix, dtype=complex)
        herm_err = np.abs(matrix - matrix.conj().T).max()
        if herm_err > HERMITICITY_TOL * max(1.0, np.abs(matrix).max()):
            raise SimulationError(f"matrix not Hermitian: |H - H^H| = {herm_err:.3e}")
        self.matrix = matrix
        self.n_qubits = int(n_qubits)
        labels = _block_labels(matrix)
        values, vectors = np.empty(labels.size), np.zeros(matrix.shape, dtype=complex)
        start = 0
        for block in range(labels.max() + 1):
            idx = np.flatnonzero(labels == block)
            cols = slice(start, start + idx.size)
            values[cols], vectors[idx, cols] = np.linalg.eigh(matrix[np.ix_(idx, idx)])
            start += idx.size
        order = np.argsort(values, kind="stable")
        self.eigenvalues, self.eigenvectors = values[order], vectors[:, order]

    def spectrum(self, init: "InitialState") -> Spectrum:
        """The eigenstates with w_a = sum_members weight * |<a|member>|^2 > 0.

        The levels dropped are exact zeros: eigenvectors off the initial
        state's block.
        """
        w = np.zeros(self.eigenvalues.size)
        for weight, member in zip(init.weights, init.members):
            overlaps = self.eigenvectors.conj().T @ member.amplitudes
            w += weight * np.abs(overlaps) ** 2
        keep = w > 0.0
        return Spectrum(self.eigenvalues[keep], w[keep])

    def ground_energy(self, init: "InitialState") -> float:
        """Lowest eigenvalue the initial state reaches."""
        return float(self.spectrum(init).reachable().energies[0])


def build_dense(h: QubitHamiltonian) -> DenseHamiltonian:
    if h.n_qubits > MAX_DENSE_QUBITS:
        raise SimulationError(f"dense oracle limited to {MAX_DENSE_QUBITS} qubits, got {h.n_qubits}")
    return DenseHamiltonian(h.to_matrix(), h.n_qubits)


# Initial states --------------------------------------------------------------


class InitialState:
    """A pure state or a uniform mixture of orthogonal pure states."""

    def __init__(self, members: list[StateVector]):
        if not members:
            raise SimulationError("initial state needs at least one member")
        self.members = list(members)
        self.weights = [1.0 / len(members)] * len(members)
        for member in self.members:
            if abs(member.norm() - 1.0) > 1e-12:
                raise SimulationError("members must be normalized")

    @classmethod
    def from_bitstrings(cls, bitstrings: list[str]) -> "InitialState":
        return cls([StateVector.from_bitstring(b) for b in bitstrings])

    def __len__(self):
        return len(self.members)


def _pairing_lowest_filled(model: PairingModel) -> list[str]:
    filled = set(np.argsort(model.eps, kind="stable")[: model.n_pairs].tolist())
    return ["".join("1" if p in filled else "0" for p in range(model.n_levels))]


def _hubbard_pair_mixture(model: HubbardModel, pairs: int = 2) -> list[str]:
    m = model.sites
    if pairs > m:
        raise SimulationError(f"cannot place {pairs} up-down pairs on {m} sites")
    # the down half repeats the up half: each chosen site holds an up-down pair
    halves = ("".join("1" if i in sites else "0" for i in range(m)) for sites in itertools.combinations(range(m), pairs))
    return [half * 2 for half in halves]


def initial_state(model, spec="default") -> InitialState:
    """Build an initial state from a builtin name or explicit bitstring list.

    Builtins: "pairing-lowest-filled" (pairing default) occupies the N lowest
    levels; "hubbard-spin-saturated-mixture" (Hubbard default) is the uniform
    mixture of the C(M,2) determinants with an up-down pair on 2 of M sites.
    """
    if isinstance(spec, (list, tuple)):
        bitstrings = list(spec)
    elif spec in ("default", "pairing-lowest-filled") and isinstance(model, PairingModel):
        bitstrings = _pairing_lowest_filled(model)
    elif spec in ("default", "hubbard-spin-saturated-mixture") and isinstance(model, HubbardModel):
        bitstrings = _hubbard_pair_mixture(model)
    else:
        raise SimulationError(f"unknown initial-state spec {spec!r} for {type(model).__name__}")

    n = model.n_qubits
    for bits in bitstrings:
        if len(bits) != n:
            raise SimulationError(f"bitstring {bits!r} does not match {n} qubits")
    if isinstance(model, PairingModel):
        for bits in bitstrings:
            if bits.count("1") != model.n_pairs:
                raise SimulationError(
                    f"bitstring {bits!r} occupies {bits.count('1')} pairs, model has N={model.n_pairs}"
                )
    init = InitialState.from_bitstrings(bitstrings)
    labels = sector_labels(model, [np.flatnonzero(member.amplitudes)[0] for member in init.members])
    differ = np.flatnonzero(labels != labels[0])
    if differ.size:
        other = bitstrings[differ[0]]
        raise SimulationError(f"mixture members disagree on particle numbers: {bitstrings[0]!r} and {other!r}")
    return init
