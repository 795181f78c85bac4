"""Shared oracles for the test suite.

``texpand_exact`` redoes the order-10 t-expansion of the pairing benchmark
(M=8, N=4, g/de=1) without floating point up to the final quadrature.  At that
coupling the qubit Hamiltonian has integer entries and the initial state is a
basis state, so the moments <H^K> are integers; cumulants, Taylor coefficients
and Pade coefficients follow as Fractions, a Sturm sequence decides exactly
whether a denominator has a real root on tau >= 0, and the integral of the
approximant over [0, inf) is a 50-digit mpmath quadrature.  None of this
shares code with ``gfsim.texpand``: the Pade denominators come from
``_solve_fractions``, exact Gaussian elimination over the rationals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from gfsim.models import PairingModel, initial_state, pairing_to_qubits
from gfsim.statevector import SimulationError

EXACT_ORDER = 10

# Tier-1 is a function of the commit: each @given test draws the same examples, as many as its own
# settings ask for, on every run, and no example database carries failures from one run to the next.
# `--hypothesis-profile=explore` draws fresh random ones instead; CI repeats the @given tests under it.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", database=None, print_blob=True)
settings.load_profile("tier1")


def _solve_fractions(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Exact Gaussian elimination with partial pivoting over the rationals."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            raise SimulationError("singular stencil system")
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def integer_moments(matrix, start: int, order: int) -> list[int]:
    """<e|H^K|e> for K = 0..order, e the basis state `start`, in Python ints."""
    assert not np.any(matrix.imag), "Hamiltonian has imaginary entries"
    assert np.array_equal(matrix.real, np.round(matrix.real)), "Hamiltonian entries are not integers"
    ints = np.round(matrix.real).astype(np.int64).astype(object)
    vec = np.zeros(ints.shape[0], dtype=object)
    vec[start] = 1
    powers = [vec]  # powers[k] = H^k e
    for _ in range(order // 2 + 1):
        powers.append(ints @ powers[-1])
    return [int(powers[k // 2] @ powers[k - k // 2]) for k in range(order + 1)]


def exact_cumulants(moments: list[int]) -> list[Fraction]:
    """kappa_n = m_n - sum_{k<n} C(n-1, k-1) kappa_k m_{n-k}; kappa[0] is unused."""
    kappa = [Fraction(0)]
    for n in range(1, len(moments)):
        acc = Fraction(moments[n])
        for k in range(1, n):
            acc -= math.comb(n - 1, k - 1) * kappa[k] * moments[n - k]
        kappa.append(acc)
    return kappa


def exact_pade(coeffs: list[Fraction], i_order: int, j_order: int) -> tuple[list[Fraction], list[Fraction]]:
    """Numerator and denominator (ascending powers, b_0 = 1) of Pade[I, J]."""

    def c(k):
        return coeffs[k] if k >= 0 else Fraction(0)

    system = [[c(i_order + ell - m) for m in range(1, j_order + 1)] for ell in range(1, j_order + 1)]
    den = [Fraction(1)] + _solve_fractions(system, [-c(i_order + ell) for ell in range(1, j_order + 1)])
    num = [sum(den[m] * c(k - m) for m in range(min(k, j_order) + 1)) for k in range(i_order + 1)]
    return num, den


def positive_root_count(poly: list[Fraction]) -> int:
    """Distinct real roots on (0, inf) of a polynomial (ascending powers), by Sturm's theorem."""

    def trim(p):
        while p and p[-1] == 0:
            p = p[:-1]
        return p

    def remainder(a, b):
        a = list(a)
        while a and len(a) >= len(b):
            f = a[-1] / b[-1]
            shift = len(a) - len(b)
            for k, bk in enumerate(b):
                a[shift + k] -= f * bk
            a = trim(a)
        return a

    chain = [trim(poly), trim([k * poly[k] for k in range(1, len(poly))])]
    while chain[-1]:
        chain.append([-x for x in remainder(chain[-2], chain[-1])])
    chain.pop()

    def sign_changes(values):
        signs = [v > 0 for v in values if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return sign_changes([p[0] for p in chain]) - sign_changes([p[-1] for p in chain])


@pytest.fixture(scope="session")
def exact_pades():
    """<H> and every order-10 Pade[I, J] (J - I >= 2) of the pairing benchmark at g/de=1, exactly.

    Returns (h_mean, {(I, J): (num, den)}) with integer <H> and Fraction
    coefficients in ascending powers.
    """
    model = PairingModel.uniform(8, 4, 1.0, 1.0)
    (member,) = initial_state(model).members
    (start,) = np.flatnonzero(member.amplitudes)
    assert member.amplitudes[start] == 1.0
    moments = integer_moments(pairing_to_qubits(model).to_matrix(), int(start), EXACT_ORDER + 2)
    kappa = exact_cumulants(moments)
    coeffs = [-((-1) ** k) * kappa[k + 2] / math.factorial(k) for k in range(EXACT_ORDER + 1)]
    orders = [(i_order, EXACT_ORDER - i_order) for i_order in range(EXACT_ORDER // 2)]
    return moments[1], {(i, j): exact_pade(coeffs, i, j) for i, j in orders}


@pytest.fixture(scope="session")
def texpand_exact(exact_pades):
    """Exact order-10 asymptotes <H> + int_0^inf Pade[I, J] for the pairing benchmark at g/de=1.

    Maps every (I, J) with I + J = 10 and J - I >= 2 to the asymptote as a
    float, or to None when the denominator has a real root on tau >= 0 (the
    integral to infinity does not exist).
    """
    mpmath = pytest.importorskip("mpmath")
    h_mean, pades = exact_pades
    asymptotes = {}
    for (i_order, j_order), (num, den) in pades.items():
        if positive_root_count(den) > 0:
            asymptotes[(i_order, j_order)] = None
            continue
        with mpmath.workdps(50):
            num_mp = [mpmath.mpf(x.numerator) / x.denominator for x in reversed(num)]
            den_mp = [mpmath.mpf(x.numerator) / x.denominator for x in reversed(den)]
            integral, err = mpmath.quad(
                lambda tau: mpmath.polyval(num_mp, tau) / mpmath.polyval(den_mp, tau),
                [0, 1, 10, mpmath.inf],
                error=True,
            )
            assert err < mpmath.mpf(10) ** -30, f"quadrature error {err} for Pade[{i_order},{j_order}]"
            asymptotes[(i_order, j_order)] = float(h_mean + integral)
    return asymptotes
