"""Reference data for the operator pipeline, derived by routes that do not go
through the operator engine.

Hand-computed reference matrices for the N=2, m=2 sectors, the closed-form
eigenvalue families for the degenerate root configuration (2, -1, -1), the
levels of the decoupled-oscillator limit at a = b = 0, the algebraic-solution
counting formula and the root family of the spectral-flow sweeps.  Nothing
here builds a sector: the `verify` checks and the tests compare the sectors
they build against this data, and it shares no code with the engine beyond
scalar arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .model import GaugeMask, cubic_invariants
from .polynomials import RationalLike

# Not called here: the benchmark's tracer wraps these names where each module
# binds them, `oracles` included, so they stay bound.
from .matrices import build_matrix  # noqa: F401
from .operator import build_gauged_operator  # noqa: F401
from .spectral import spectrum_of  # noqa: F401

DEGENERATE_ROOTS: tuple[int, int, int] = (2, -1, -1)


# -- counting ----------------------------------------------------------------


def _choose(top: int, k: int) -> int:
    return comb(top, k) if top >= 0 else 0


def counting_formula(nvars: int, degree_m: RationalLike) -> int:
    """Closed-form number of symmetric algebraic solutions at b = 0.

    Integer m:      C(m+N, N) + 3 C(m-1+N, N)
    Half-integer m: 3 C(m-1/2+N, N) + C(m-3/2+N, N)

    The half-integer branch is the mask-dimension sum; the commonly quoted
    variant with m+1/2 in place of m-1/2 fails the single-variable sanity
    check (it yields 7 instead of 3 solutions at N=1, m=1/2, where the
    one-variable operator is known to admit 4m+1 = 3).
    """
    m = Fraction(degree_m)
    if m < 0:
        raise ValueError(f"degree must be non-negative, got {m}")
    n = nvars
    if m.denominator == 1:
        k = int(m)
        return _choose(k + n, n) + 3 * _choose(k - 1 + n, n)
    if m.denominator == 2:
        k = int(m - Fraction(1, 2))
        return 3 * _choose(k + n, n) + _choose(k - 1 + n, n)
    raise ValueError(f"degree must be an integer or half-integer, got {m}")


# -- hand-derived reference matrices (N = 2, m = 2) ---------------------------


def reference_empty_mask_matrix(
    a: RationalLike,
    b: RationalLike,
    roots: tuple[RationalLike, RationalLike, RationalLike],
) -> tuple[tuple[Fraction, ...], ...]:
    """Frozen 6x6 reference for the ungauged N=2, m=2 sector.

    Basis order [1, t1, t2, t1^2, t1*t2, t2^2]; columns are images.  Each
    entry was obtained by applying the operator to the basis monomials by
    hand and is kept as a literal so the test has no code in common with the
    engine it checks.
    """
    a = Fraction(a)
    b = Fraction(b)
    g2, g3 = cubic_invariants(roots)
    half = Fraction(1, 2)
    zero = Fraction(0)
    rows = (
        (zero, g2 * (2 * a + 2 * b + 1), -2 * a * g3, 4 * g3, zero, zero),
        (
            16 * a + 24 * b + 20,
            zero,
            g2 * (b + half),
            4 * g2 * (a + b + 1),
            2 * g3 * (1 - a),
            zero,
        ),
        (zero, 8 * a + 24 * b + 12, zero, zero, g2 * (2 * a + 2 * b + 5), -4 * g3 * (a + 1)),
        (zero, 8 * a + 12 * b + 14, zero, zero, g2 * (b + half), 2 * g3),
        (zero, zero, 8 * a + 12 * b + 14, 16 * (a + 3 * b + 3), zero, g2 * (2 * b + 3)),
        (zero, zero, zero, zero, 8 * a + 24 * b + 28, zero),
    )
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def reference_double_mask_matrix(
    a: RationalLike,
    roots: tuple[RationalLike, RationalLike, RationalLike],
    unmasked_index: int,
) -> tuple[tuple[Fraction, ...], ...]:
    """Frozen 3x3 reference for the N=2, m=2, b=0 double-mask sectors.

    The sector that leaves root index i unmasked (mask {1,2,3} minus {i}) has
    basis [1, t1, t2] and depends on the roots only through e_i and the cubic
    invariants.  Valid for the b = 0 quadruple of algebraisations, where the
    shifted cutoff m - 1 is an integer.
    """
    if unmasked_index not in (1, 2, 3):
        raise ValueError(f"root index must be 1, 2, or 3, got {unmasked_index}")
    a = Fraction(a)
    e = Fraction(roots[unmasked_index - 1])
    g2, g3 = cubic_invariants(roots)
    zero = Fraction(0)
    rows = (
        ((6 + 4 * a) * e, g2 * (2 * a + 1) + 8 * e * e, -2 * a * g3),
        (Fraction(14 + 8 * a), (10 + 4 * a) * e, g2 / 2 + 4 * e * e),
        (zero, Fraction(28 + 8 * a), (14 + 4 * a) * e),
    )
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def mask_for_unmasked_index(i: int) -> GaugeMask:
    """The double mask that leaves root i unmasked: {1,2,3} minus {i}."""
    return GaugeMask(tuple(sorted({1, 2, 3} - {i})))


# -- degenerate closed forms ---------------------------------------------------


def degenerate_closed_forms(a: RationalLike) -> dict[str, tuple[Fraction, ...]]:
    """Exact eigenvalue families at roots (2, -1, -1), b=0, N=m=2, sorted, by
    mask name.

    All fifteen algebraic eigenvalues are linear in a.  The 6-dimensional
    sector `none` splits into a triple of its own plus a triple shared with
    the sector `23` that leaves root 1 unmasked; the two sectors `13` and `12`
    that mask root 1 have one spectrum for every a (their matrices coincide
    when e2 = e3).
    """
    a = Fraction(a)
    shared = (-8 * (2 + a), 4 * (5 + 4 * a), 8 * (7 + 2 * a))
    unshared = (-8 * (5 + 4 * a), -4 * (7 + 2 * a), 8 * (1 + 2 * a))
    paired = tuple(sorted((-2 * (17 + 10 * a), -2 * (5 - 2 * a), 2 * (7 + 2 * a))))
    return {
        "none": tuple(sorted(unshared + shared)),
        "23": tuple(sorted(shared)),
        "13": paired,
        "12": paired,
    }


# -- oscillator limit ----------------------------------------------------------


def oscillator_energy(j1: int, j2: int) -> int:
    """Energy 3(j1^2 + j2^2) - 40 of the decoupled-oscillator limit."""
    return 3 * (j1 * j1 + j2 * j2) - 40


# -- root families -----------------------------------------------------------


def epsilon_roots(epsilon: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """The root family (2, -1+eps, -1-eps) used by the spectral-flow sweeps."""
    eps = Fraction(epsilon)
    return (Fraction(2), -1 + eps, -1 - eps)
