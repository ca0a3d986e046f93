"""Independent cross-checks for the operator pipeline.

The reference data here is derived by a route that does not go through the
operator engine: hand-computed reference matrices for the N=2, m=2 sectors,
closed-form eigenvalue families for the degenerate root configuration
(2, -1, -1), the decoupled-oscillator spectrum at a = b = 0, the
algebraic-solution counting formulas, and the additive structure of
two-particle spectra at a = 0.  Tests and the verification runner compare
pipeline output against these oracles.  The oscillator and decoupling
oracles build their sectors through the public pipeline
(`build_gauged_operator`, `build_matrix`) and test the exact characteristic
polynomial (`OperatorMatrix.charpoly`) against the independent structure;
everything else shares no code with the engine beyond scalar arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NonZeroRemainder
from .matrices import build_matrix
from .model import GaugeMask, ModelParams, cubic_invariants, list_valid_masks
from .operator import build_gauged_operator
from .polynomials import Coeff, Poly, RationalLike, from_roots

# Not called here: the benchmark's tracer wraps `spectrum_of` where each
# module binds it, `oracles` included, so the name stays bound.
from .spectral import spectrum_of  # noqa: F401

DEGENERATE_ROOTS: tuple[int, int, int] = (2, -1, -1)

_J_BOUND = 5  # largest oscillator quantum number searched


# -- counting ----------------------------------------------------------------


@dataclass(frozen=True)
class SectorCount:
    """One valid gauge sector: mask, shifted degree cutoff, space dimension."""

    mask: str
    cutoff: int
    dimension: int


@dataclass(frozen=True)
class CountReport:
    """Mask-by-mask dimension count against the closed-form total."""

    nvars: int
    degree_m: Fraction
    coupling_b: Fraction
    sectors: tuple[SectorCount, ...]
    total: int
    formula: int

    @property
    def matches(self) -> bool:
        return self.total == self.formula


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


def count_symmetric_solutions(
    nvars: int,
    degree_m: RationalLike,
    coupling_b: RationalLike = 0,
) -> CountReport:
    """Enumerate valid sectors and compare their total dimension to the formula.

    The closed-form formula describes the b = 0 sector structure; at other b
    the report still lists the actual sectors and the match flag simply
    records whether the b = 0 formula happens to agree.
    """
    m = Fraction(degree_m)
    b = Fraction(coupling_b)
    params = ModelParams(nvars, 0, b, m)
    sectors = tuple(
        SectorCount(
            mask=str(mask),
            cutoff=int(params.shifted_degree(mask)),
            dimension=params.basis_dimension(mask),
        )
        for mask in list_valid_masks(params)
    )
    total = sum(s.dimension for s in sectors)
    return CountReport(
        nvars=nvars,
        degree_m=m,
        coupling_b=b,
        sectors=sectors,
        total=total,
        formula=counting_formula(nvars, m),
    )


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


@dataclass(frozen=True)
class DegenerateSpectra:
    """Exact eigenvalue families at roots (2, -1, -1), b=0, N=m=2.

    All fifteen algebraic eigenvalues are linear in a.  The 6-dimensional
    sector splits into a triple of its own plus a triple shared with the
    sector that leaves root 1 unmasked; the two sectors that mask root 1
    have identical spectra for every a (their matrices coincide when
    e2 = e3).
    """

    unshared: tuple[Fraction, Fraction, Fraction]
    shared: tuple[Fraction, Fraction, Fraction]
    paired: tuple[Fraction, Fraction, Fraction]

    def sector_values(self, mask: str) -> tuple[Fraction, ...]:
        if mask == "none":
            return tuple(sorted(self.unshared + self.shared))
        if mask == "23":
            return tuple(sorted(self.shared))
        if mask in ("13", "12"):
            return tuple(sorted(self.paired))
        raise ValueError(f"no closed form for mask {mask!r}")


def degenerate_closed_forms(a: RationalLike) -> DegenerateSpectra:
    a = Fraction(a)
    return DegenerateSpectra(
        unshared=(-8 * (5 + 4 * a), -4 * (7 + 2 * a), 8 * (1 + 2 * a)),
        shared=(-8 * (2 + a), 4 * (5 + 4 * a), 8 * (7 + 2 * a)),
        paired=(-2 * (17 + 10 * a), -2 * (5 - 2 * a), 2 * (7 + 2 * a)),
    )


# -- oscillator limit ----------------------------------------------------------


def oscillator_energy(j1: int, j2: int) -> int:
    """Energy 3(j1^2 + j2^2) - 40 of the decoupled-oscillator limit."""
    return 3 * (j1 * j1 + j2 * j2) - 40


@dataclass(frozen=True)
class OscillatorAssignment:
    mask: str
    eigenvalue: int
    levels: tuple[int, int]  # (j1, j2) with j1 >= j2


@dataclass(frozen=True)
class OscillatorReport:
    ok: bool
    assignments: tuple[OscillatorAssignment, ...]
    sector_parities: dict[str, str]
    witness: str | None


def oscillator_membership() -> OscillatorReport:
    """Check that every algebraic eigenvalue at a=b=0, roots (2,-1,-1) is an
    even-parity two-oscillator level 3(j1^2+j2^2) - 40.

    For each j1 >= j2 >= 0 up to 5 with j1 + j2 even, (t - level) is divided
    out of each sector's characteristic polynomial as often as it divides
    exactly, one assignment each time; what is left must be 1.  Also records
    the per-sector parity of the matched levels: the ungauged sector and the
    one leaving root 1 unmasked land on even (j1, j2), the other two on odd.
    """
    params = ModelParams(2, 0, 0, 2, DEGENERATE_ROOTS)
    levels = [(j1, j2) for j1 in range(_J_BOUND + 1) for j2 in range(j1 % 2, j1 + 1, 2)]
    assignments: list[OscillatorAssignment] = []
    parities: dict[str, str] = {}
    witness: str | None = None
    for mask in list_valid_masks(params):
        chi = build_matrix(build_gauged_operator(params, mask)).charpoly()
        kinds = set()
        for j1, j2 in levels:
            energy = oscillator_energy(j1, j2)
            try:
                while True:
                    chi = chi.divide_exact(from_roots((energy,)))
                    assignments.append(OscillatorAssignment(str(mask), energy, (j1, j2)))
                    kinds.add("even" if j1 % 2 == 0 else "odd")
            except NonZeroRemainder:
                pass
        if chi != Poly.constant(1, 1) and witness is None:
            witness = f"mask {mask}: characteristic polynomial leaves {chi} after the levels"
        if len(kinds) == 1:
            parities[str(mask)] = kinds.pop()
        else:
            parities[str(mask)] = "mixed" if kinds else "unmatched"
    return OscillatorReport(witness is None, tuple(assignments), parities, witness)


# -- two-particle decoupling ----------------------------------------------------


@dataclass(frozen=True)
class DecouplingReport:
    """Power sums p_k = tr(M^k), k = 0..dim M2, of the one- and two-particle
    sectors and of the one-particle pair sums."""

    ok: bool
    one_particle: tuple[Coeff, ...]
    two_particle: tuple[Coeff, ...]
    pair_sums: tuple[Coeff, ...]


def _power_sums(chi: Poly, count: int) -> tuple[Coeff, ...]:
    """p_0..p_(count-1) of the roots of a monic univariate chi, by Newton's
    identities: p_k = -k c_k - sum_{0<i<k} c_i p_(k-i), with c_i the
    coefficient of t^(n-i)."""
    n = chi.leading()[0][0]
    c = [chi.coefficient((n - i,)) for i in range(count)]
    p = [n]
    for k in range(1, count):
        p.append(-k * c[k] - sum(c[i] * p[k - i] for i in range(1, k)))
    return tuple(p)


def decoupling_check(coupling_b: RationalLike, degree_m: RationalLike) -> DecouplingReport:
    """At a = 0 the two-particle ungauged spectrum is the multiset of pairwise
    sums (with repetition) of the one-particle spectrum with the same b and m
    at roots (2, -1, -1); the interaction term is the only coupling between
    variables.  Exactly: for k = 0..dim M2 the two-particle power sums equal
    those of the pair sums, (1/2)[sum_r C(k, r) p_r p_(k-r) + 2^k p_k] in
    the one-particle p_r; over Q these fix the multiset, k = 0 its size.
    """
    m1, m2 = (build_matrix(build_gauged_operator(
        ModelParams(n, 0, coupling_b, degree_m, DEGENERATE_ROOTS), GaugeMask(()))) for n in (1, 2))
    count = m2.dim + 1
    p1, p2 = (_power_sums(m.charpoly(), count) for m in (m1, m2))
    pairs = tuple(
        Fraction(sum(comb(k, r) * p1[r] * p1[k - r] for r in range(k + 1)) + 2**k * p1[k], 2)
        for k in range(count)
    )
    return DecouplingReport(p2 == pairs, p1, p2, pairs)


# -- root families -----------------------------------------------------------


def epsilon_roots(epsilon: RationalLike) -> tuple[Fraction, Fraction, Fraction]:
    """The root family (2, -1+eps, -1-eps) used by the spectral-flow sweeps."""
    eps = Fraction(epsilon)
    return (Fraction(2), -1 + eps, -1 - eps)
