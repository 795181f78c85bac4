"""Generating-function traces F(t) = <exp(-i t H)> by three routes.

* exact: spectral formula from the dense oracle, F(t) = sum_a w_a e^{-i t E_a};
* statevector (shots = 0): Hadamard-test circuits evaluated with exact ancilla
  biases;
* sampled (shots > 0): the same circuits with binomial shot sampling.

The Hadamard test prepares (|0> + |1>)/sqrt(2) on the ancilla, applies the
Trotterized evolution controlled on the ancilla, and closes with a Hadamard;
the ancilla bias p0 - p1 is Re F(t).  Inserting R(-pi/2) on the ancilla turns
the bias into Im F(t).  Both biases are read off the state before the closing
gates: its ancilla halves are psi_0 = psi/sqrt(2) and psi_1 = U psi/sqrt(2), so
F(t) = <psi|U|psi> = 2 <psi_0|psi_1>, and the closing Hadamard would measure 0
with probability (1 + Re F)/2 (the Re circuit) or (1 + Im F)/2 (the Im
circuit).  `gf_series` is the one Hadamard-test loop: time points outside,
mixture members inside, one controlled evolution per nonzero point and
member, which gives every member's exact biases over the grid.  It visits the
points grouped by their Trotter step size t/n, so that `trotter` builds each
size's step once, and keeps each bias at its point's index.  The sampled
route then draws each circuit's shots from that probability, one
`sample_ancilla` call per member and quadrature for the whole grid on its own
stream, SeedSequence([seed, member, quadrature]).  `mixture_series` averages
the members' biases, its own or `cli.cmd_noise`'s noisy ones, with the shot
budget split evenly: the one assembly of a GfSeries from Hadamard tests.

Every CSV the package writes or reads is one table format, written by
`write_table` and read by `read_table` here: `# key=value` header lines, one
line of comma-separated column names, then one line per row, floats rendered
with 17 significant digits.  A row whose cell count differs from the header's,
a missing required column, a cell that should be a number and is not, or a
table without data rows raises SimulationError naming the file (and the
line).  The GfSeries table is the contract between the quantum-side and
classical-side modules: `# model=`, `# shots=`, `# seed=`, `# route=` header
lines, then columns t,re,im,re_err,im_err and any extra overlay columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import DenseHamiltonian, InitialState
from .statevector import SimulationError, StateVector, hadamard, phase_gate, sample_ancilla
from .trotter import Circuit, controlled_evolve, steps_for, trotter_step

ROUTES = ("exact", "statevector", "sampled", "noisy", "mitigated")
GF_COLUMNS = ("t", "re", "im", "re_err", "im_err")


def _fmt(x: float) -> str:
    return f"{float(x):.16e}"


def write_table(path, meta: dict, names, rows):
    """One `# key=value` line per meta item, the column names, then one line per row.

    Strings and integers are written as they are, every other cell as a float
    with 17 significant digits.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            cells = (x if isinstance(x, str) else str(x) if isinstance(x, (int, np.integer)) else _fmt(x) for x in row)
            fh.write(",".join(cells) + "\n")


def read_table(path, required=(), numeric=()) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Meta, column names and rows (cells as strings) of a write_table file; blank lines are skipped.

    Cells of the `numeric` columns (True: of every column) must parse as finite floats.
    """
    meta: dict[str, str] = {}
    names: list[str] | None = None
    rows: list[list[str]] = []
    lineno = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
                continue
            cells = [c.strip() for c in line.split(",")]
            if names is None:
                names = cells
                missing = [c for c in required if c not in names]
                if missing:
                    raise SimulationError(f"{path}, line {lineno}: missing column(s) {', '.join(missing)}")
                checked = [i for i, name in enumerate(names) if numeric is True or name in numeric]
            elif len(cells) != len(names):
                raise SimulationError(f"{path}, line {lineno}: {len(cells)} cells under a {len(names)}-column header")
            else:
                for i in checked:
                    try:
                        finite = math.isfinite(float(cells[i]))
                    except ValueError:
                        finite = False
                    if not finite:
                        message = f"{names[i]} cell {cells[i]!r} is not a number"
                        raise SimulationError(f"{path}, line {lineno}: {message}")
                rows.append(cells)
    if not rows:
        problem = "no data rows after the header" if names else "no column header"
        raise SimulationError(f"{path}, line {lineno}: {problem}")
    return meta, names, rows


@dataclass
class GfSeries:
    """Sampled or exact F(t) on a time grid, with per-point standard errors."""

    t: np.ndarray
    re: np.ndarray
    im: np.ndarray
    re_err: np.ndarray
    im_err: np.ndarray
    shots: int = 0
    route: str = "exact"
    model: str = ""
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("t", "re", "im", "re_err", "im_err"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.t.size
        for name in ("re", "im", "re_err", "im_err"):
            if getattr(self, name).size != n:
                raise SimulationError(f"column {name} does not match grid length {n}")
        if self.route not in ROUTES:
            raise SimulationError(f"unknown route {self.route!r}")
        self.validate()

    def validate(self):
        """Refuse what the route cannot give.

        An exact or statevector F is <psi|U|psi>, so |F| <= 1.  A sampled or
        noisy quadrature is a shot-weighted mixture of ancilla biases
        (n0 - n1) / shots, each in [-1, 1], so its |F| may reach sqrt(2).  A
        mitigated point may leave [-1, 1] (`noise.mitigate_series`).
        """
        bounded = {"exact": ("|F|",), "statevector": ("|F|",), "sampled": ("|re|", "|im|"), "noisy": ("|re|", "|im|")}
        sizes = {"|F|": np.hypot(self.re, self.im), "|re|": np.abs(self.re), "|im|": np.abs(self.im)}
        for name in bounded.get(self.route, ()):
            bad = np.nonzero(sizes[name] > 1.0 + 1e-12)[0]
            if bad.size:
                k = bad[0]
                raise SimulationError(f"{name} = {sizes[name][k]:.6f} exceeds 1 at t = {self.t[k]:g}")
        if self.route == "exact" and self.t.size and self.t[0] == 0.0:
            if abs(self.re[0] - 1.0) > 1e-12 or abs(self.im[0]) > 1e-12:
                raise SimulationError("exact route must have F(0) = 1")

    @property
    def values(self) -> np.ndarray:
        return self.re + 1j * self.im

    def dt(self) -> float:
        """Grid spacing; requires a uniform grid."""
        if self.t.size < 2:
            raise SimulationError("grid too short")
        steps = np.diff(self.t)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise SimulationError("grid is not uniform")
        return float(steps[0])

    def to_csv(self, path):
        meta = {"model": self.model, "shots": self.shots, "seed": self.seed, "route": self.route}
        cols = [getattr(self, name) for name in GF_COLUMNS] + [np.asarray(c, dtype=float) for c in self.extra.values()]
        write_table(path, meta, [*GF_COLUMNS, *self.extra], zip(*cols))

    @classmethod
    def from_csv(cls, path) -> "GfSeries":
        meta, names, rows = read_table(path, required=GF_COLUMNS, numeric=True)
        data = {name: np.array(col, dtype=float) for name, col in zip(names, zip(*rows))}
        return cls(
            **{name: data.pop(name) for name in GF_COLUMNS},
            shots=int(meta.get("shots", 0)),
            route=meta.get("route", "exact"),
            model=meta.get("model", ""),
            seed=int(meta.get("seed", 0)),
            extra=data,
        )


def gf_exact(dense: DenseHamiltonian, init: InitialState, t_grid, model: str = "") -> GfSeries:
    """F(t) = sum_a w_a e^{-i t E_a} over the initial state's spectrum."""
    t = np.asarray(t_grid, dtype=float)
    values = dense.spectrum(init).trace(t)
    zeros = np.zeros_like(t)
    return GfSeries(t, values.real, values.imag, zeros, zeros, shots=0, route="exact", model=model)


def gf_series(
    model,
    init: InitialState,
    t_grid,
    n_steps_policy="reference",
    shots: int = 0,
    seed: int = 0,
) -> GfSeries:
    """Hadamard-test estimates of F(t) over a monotone grid starting at 0.

    The exact biases of every point and member come first.  shots = 0 keeps
    them (no sampling); otherwise each quadrature of each mixture member is
    sampled with shots // len(mixture) measurements per point (the actual
    total is recorded), its whole series in one draw on the stream of
    SeedSequence([seed, member, quadrature]).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.size == 0 or t[0] != 0.0 or np.any(np.diff(t) < 0):
        raise SimulationError("t_grid must be monotone and start at 0")
    # the schema's range: SeedSequence reads a seed as 32-bit words, so (2**32, 0, 0) would draw on (0, 1, 0)'s stream
    if not 0 <= seed <= 2**32 - 1:
        raise SimulationError(f"seed must lie in [0, 2**32 - 1], got {seed}")
    if not 0 <= shots <= 2**63 - 1:  # Generator.binomial takes the shot count as a C long
        raise SimulationError(f"shots must lie in [0, 2**63 - 1], got {shots}")
    members = len(init)
    per_member = shots // members
    if shots and per_member == 0:
        raise SimulationError(f"shot budget {shots} too small for a {members}-member mixture")

    biases = np.zeros((members, 2, t.size))  # each member's exact Re and Im bias at each point
    steps = [steps_for(model, tk, n_steps_policy) for tk in t]
    # the points of one step size in a row, so that they share one step build
    for k in sorted(range(t.size), key=lambda k: (t[k] / steps[k], steps[k])):
        tk, n_steps = t[k], steps[k]
        for m_idx, member in enumerate(init.members):
            # the ancilla's Hadamard on |0>|psi>: psi/sqrt(2) in both halves
            state = StateVector(member.n_qubits + 1, np.tile(member.amplitudes, 2) * (1 / np.sqrt(2.0)), copy=False)
            if tk != 0:
                state = controlled_evolve(state, model, float(tk), n_steps)
            halves = state.amplitudes.reshape(2, -1)  # the ancilla is the top qubit
            f = 2.0 * np.vdot(halves[0], halves[1])
            biases[m_idx, :, k] = f.real, f.imag
    if shots:
        for m_idx, quad in np.ndindex(members, 2):
            biases[m_idx, quad] = sample_ancilla((1.0 + biases[m_idx, quad]) / 2.0, per_member, (seed, m_idx, quad))
    return mixture_series(t, biases, init, per_member, "sampled" if shots else "statevector", model, seed)


def mixture_series(t, biases, init: InitialState, per_member: int, route: str, model, seed: int) -> GfSeries:
    """F(t) of a mixture from its (members, 2, points) Re and Im biases, with binomial bars at per_member > 0 shots."""
    estimates = np.zeros((2, len(t)))  # Re and Im, summed over the members in order
    for weight, member_biases in zip(init.weights, biases):
        estimates += weight * member_biases
    total = per_member * len(init)
    errs = np.sqrt(np.maximum(0.0, 1.0 - estimates**2) / total) if per_member else np.zeros_like(estimates)
    return GfSeries(t, *estimates, *errs, shots=total, route=route, model=model.fingerprint(), seed=int(seed))


def hadamard_test_circuit(model, t: float, n_steps: int, quadrature: str):
    """Full gate sequence of one Hadamard-test circuit (the gate-level oracle of the noise route).

    quadrature is "re" or "im"; the ancilla is qubit model.n_qubits.
    """
    if quadrature not in ("re", "im"):
        raise SimulationError(f"quadrature must be re|im, got {quadrature!r}")
    ancilla = model.n_qubits
    gates = [hadamard(ancilla)]
    if quadrature == "im":
        gates.append(phase_gate(-math.pi / 2.0, ancilla))
    if t != 0:
        gates.extend(trotter_step(model, t / n_steps).controlled(ancilla).gates * n_steps)
    gates.append(hadamard(ancilla))
    return Circuit(tuple(gates), ancilla + 1, n_steps=n_steps)
