"""Reference data for the operator pipeline, derived by routes that do not go
through the operator engine.

Hand-computed reference matrices for the N=2, m=2 sectors, the closed-form
levels of every sector at the degenerate roots (2, -1, -1), where the model
is trigonometric, the algebraic-solution counting formula and the root family
of the spectral-flow sweeps.  Nothing here builds a sector: the `verify`
checks and the tests compare the sectors they build against this data, and it
shares no code with the engine beyond scalar arithmetic and the parameter
bookkeeping of `model`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

from .model import GaugeMask, ModelParams, cubic_invariants
from .polynomials import Coeff, RationalLike

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


# -- the trigonometric limit ---------------------------------------------------


def degenerate_levels(params: ModelParams, mask: GaugeMask) -> tuple[Coeff, ...]:
    """Every eigenvalue E_lambda of a sector at roots (2, -1, -1), sorted, with
    multiplicity; ValueError at any other roots.

    With e2 = e3 the elliptic operator is the trigonometric one.  In y = z + 1
    the cubic is 4 y^3 - 12 y^2, and every term of the gauged operator keeps
    or raises the y-degree.  The part that keeps it acts on the monomial
    symmetric functions m_lambda(y) as the trigonometric Calogero-Sutherland
    operator does, triangularly in dominance order (Macdonald, Symmetric
    Functions and Hall Polynomials, ch. VI).  So on the m_lambda(y), ordered by
    degree and then by dominance, the sector matrix is triangular, and its
    diagonal, over the partitions lambda_1 >= ... >= lambda_N >= 0 with
    lambda_1 <= the cutoff, is

        E_lambda = sum_i [12 lambda_i^2 + 24 (b + nu n23) lambda_i
                          + 24 a (N - i) lambda_i]
                   + N (12 nu^2 n23^2 + 24 b nu n23) + 12 a nu n23 N (N - 1)
                   - N m (12 b + 8 a (N - 1) + 4 m + 2),

    with nu = 1/2 - b and n23 the number of masked roots among e2 and e3 (a
    masked e1 does not enter the diagonal).  Each level is formed in ints as
    c^2 E_lambda from `ModelParams.ints` = (c, a c, b c, m c), with
    2 nu c = c - 2 b c, and is an int where it is integral.
    """
    if params.roots != DEGENERATE_ROOTS:
        raise ValueError(f"closed-form levels need roots {DEGENERATE_ROOTS}, "
                         f"got {', '.join(map(str, params.roots))}")
    cutoff, n = params.cutoff(mask), params.nvars
    c, a, b, m = params.ints
    n23 = (2 in mask) + (3 in mask)
    v = n23 * (c - 2 * b)  # 2 nu n23 c
    constant = (n * (3 * v * v + 12 * b * v) + 6 * a * v * n * (n - 1)
                - n * m * (12 * b + 8 * a * (n - 1) + 4 * m + 2 * c))
    linear = [24 * b + 12 * v + 24 * a * (n - i) for i in range(1, n + 1)]
    d = c * c
    levels = []
    for parts in combinations_with_replacement(range(cutoff, -1, -1), n):
        e = constant + c * sum(12 * c * x * x + w * x for x, w in zip(parts, linear))
        q, r = divmod(e, d)
        levels.append(Fraction(e, d) if r else q)
    return tuple(sorted(levels))


# -- root families -----------------------------------------------------------


def epsilon_roots(epsilon: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """The root family (2, -1+eps, -1-eps) used by the spectral-flow sweeps."""
    eps = Fraction(epsilon)
    return (Fraction(2), -1 + eps, -1 - eps)
