"""Built-in verification suite.

Ten named checks compare the operator pipeline against the reference data
of `oracles` and against structure it must have: hand-derived reference
matrices, the closed-form levels at roots (2, -1, -1) on two sets of sectors
(`closed-forms` and, at a = 0, `oscillator`), the counting formula,
invariant-space closure, gauge pole cancellation, the degree-raising
coefficient, two-particle decoupling, the spectral-flow degeneracy pattern,
and eigensolver invariants.  A check returns the detail of its pass or
raises `_Failed` with the detail of its failure; `_run_guarded` alone turns
either, or any other exception, into a CheckResult, and the CLI turns
failures into a nonzero exit code.

Randomized checks draw from seeded generators, one per check, so any subset
selected with ``only`` sees the same parameter tuples as a full run.

Each `run_checks` call creates one sector store, and the checks take their
sectors from it: the reference matrices, the closure grid that `closure` and
`raising` share, the z-space sample and the sectors whose eigenvalues the
checks test as exact identities of characteristic polynomials, each set
written once as a list (`_closed_form_sectors`, `_ungauged_sectors`,
`_flow_sectors`) that `eigensolver`, the one check that diagonalizes, reads
too; it leaves the eigenvalue sum to the trace gate of `spectrum_of`.  The
store builds a sector's operator and matrix at most once per run, keyed by
(params, mask), hashed by the parameter set's integer view at construction,
and no check builds a sector matrix outside it; the grid's masks of one size
share one parameter set, a matrix keeps its characteristic polynomial, and an
operator forms, as it is built, the integer weight table that its matrix and
`apply` both read.  Nothing outlives the run, so repeated runs in one process
each do the full work.  `gauge-exponents` compares the oracle division
`gauge_polynomials`, times the operator's scale U, with the integer maps of
U q and U s of one-variable operators from `build_gauged_operator`, so it
checks the engine's own path; exponent 1/3, at which the engine builds
nothing, goes to the division alone.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb, prod
from typing import Callable

from .errors import NonCancellingPole, NonZeroRemainder
from .matrices import (
    OperatorMatrix,
    build_matrix,
    matches_operator,
    raising_coefficient_check,
    to_float,
)
from .model import (
    ALL_MASKS,
    GaugeMask,
    ModelParams,
    list_valid_masks,
)
from .operator import GaugedOperator, build_gauged_operator, gauge_polynomials
from .oracles import (
    DEGENERATE_ROOTS,
    counting_formula,
    degenerate_levels,
    epsilon_roots,
    mask_for_unmasked_index,
    reference_double_mask_matrix,
    reference_empty_mask_matrix,
)
from .polynomials import Coeff, Poly, from_roots
from .spectral import Spectrum, eigenvalues, spectrum_of

_EMPTY = GaugeMask(())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Failed(Exception):
    """A check's failure; its message is the detail the runner reports."""


def report_json(results: list[CheckResult]) -> dict:
    """JSON-ready summary: overall flag plus one record per check."""
    return {
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }


# -- shared randomness and the sector store ------------------------------------


def _random_fraction(rng: random.Random, lo: int, hi: int, dens: tuple[int, ...]) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def _random_roots(rng: random.Random) -> tuple[Fraction, Fraction, Fraction]:
    """Three distinct rationals summing to zero, with small denominators."""
    while True:
        e1 = _random_fraction(rng, -3, 3, (1, 2))
        e2 = _random_fraction(rng, -3, 3, (1, 2))
        e3 = -e1 - e2
        if len({e1, e2, e3}) == 3:
            return (e1, e2, e3)


GridEntry = tuple[GaugedOperator, OperatorMatrix]


class _SectorStore:
    """One run's sectors, keyed by (params, mask), each built at most once."""

    def __init__(self) -> None:
        self._sectors: dict[tuple[ModelParams, GaugeMask], GridEntry] = {}
        self._grid: list[GridEntry] | None = None

    def sector(self, params: ModelParams, mask: GaugeMask) -> GridEntry:
        """The sector's exact operator and matrix."""
        key = (params, mask)
        entry = self._sectors.get(key)
        if entry is None:
            op = build_gauged_operator(params, mask)
            entry = self._sectors[key] = (op, build_matrix(op))
        return entry

    def closure_grid(self) -> list[GridEntry]:
        """The sectors that `closure` and `raising` share, drawn once per run."""
        if self._grid is None:
            self._grid = _closure_grid(self)
        return self._grid


def _grid_entries(store: _SectorStore, nvars: int, cutoff: int, a: Fraction, b: Fraction,
                  roots: tuple[Fraction, Fraction, Fraction]) -> list[GridEntry]:
    """The eight mask sectors at the cutoff, each at m = cutoff + n_f (1/2 - b)
    so that it is valid; the masks of one size n_f share one parameter set."""
    q = b.denominator
    params = [ModelParams(nvars, a, b, Fraction((2 * cutoff + n_f) * q - 2 * n_f * b.numerator,
                                                2 * q), roots) for n_f in range(4)]
    return [store.sector(params[mask.n_f], mask) for mask in ALL_MASKS]


def _closure_grid(store: _SectorStore) -> list[GridEntry]:
    """All eight masks at N <= 3, shifted cutoff <= 3, five tuples per cell."""
    rng = random.Random(505)
    grid: list[GridEntry] = []
    for nvars in (1, 2, 3):
        for cutoff in range(4):
            for _ in range(5):
                a = _random_fraction(rng, -2, 2, (1, 2))
                b = _random_fraction(rng, -1, 2, (1, 2, 4))
                roots = _random_roots(rng)
                grid += _grid_entries(store, nvars, cutoff, a, b, roots)
    return grid


# The points of the sector lists below: the a of `closed-forms`, the (m, b) of
# `oscillator` and `decoupling` and the (eps, a) of `figure-degeneracy`.
_CLOSED_FORM_A = (Fraction(0), Fraction(1, 2), Fraction(5))
_DECOUPLING = tuple((m, b) for m in (1, 2) for b in (Fraction(0), Fraction(1, 4)))
_FLOW = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(5)), (Fraction(1, 2), Fraction(5)))


def _closed_form_sectors() -> list[tuple[ModelParams, GaugeMask]]:
    """Every valid mask (none, 12, 13, 23) at roots (2,-1,-1), b=0, N=m=2, for each a."""
    return [(params, mask) for a in _CLOSED_FORM_A
            for params in [ModelParams(2, a, 0, 2, DEGENERATE_ROOTS)]
            for mask in list_valid_masks(params)]


def _ungauged_sectors() -> list[tuple[ModelParams, GaugeMask]]:
    """The ungauged sectors at a = 0, roots (2, -1, -1): N = 1, then 2, for each (m, b)."""
    return [(ModelParams(n, 0, b, m, DEGENERATE_ROOTS), _EMPTY)
            for m, b in _DECOUPLING for n in (1, 2)]


def _flow_sectors() -> list[tuple[ModelParams, GaugeMask]]:
    """Every valid mask at b=0, N=m=2 on the roots (2, -1+eps, -1-eps), for each (eps, a)."""
    return [(params, mask) for eps, a in _FLOW
            for params in [ModelParams(2, a, 0, 2, epsilon_roots(eps))]
            for mask in list_valid_masks(params)]


def _sector_name(params: ModelParams, mask: GaugeMask) -> str:
    """A sector as the failure details name it."""
    roots = ",".join(map(str, params.roots))
    return (f"mask {mask}, N={params.nvars}, m={params.degree_m}, a={params.coupling_a}, "
            f"b={params.coupling_b}, roots {roots}")


# -- individual checks -----------------------------------------------------------


def _check_matrices(store: _SectorStore) -> str:
    """Five random rational parameter tuples: the built 6x6 sector and the
    three 3x3 double-mask sectors (at b = 0) must equal the hand-derived
    references entry for entry."""
    rng = random.Random(101)
    compared = 0
    for _ in range(5):
        a = _random_fraction(rng, -3, 3, (1, 2, 3))
        b = _random_fraction(rng, -3, 3, (1, 2, 3))
        roots = _random_roots(rng)
        params = ModelParams(2, a, b, 2, roots)
        _, built = store.sector(params, _EMPTY)
        if built != OperatorMatrix(built.basis, reference_empty_mask_matrix(a, b, roots)):
            raise _Failed(f"{_sector_name(params, _EMPTY)}: 6x6 mismatch")
        compared += 1
        params0 = ModelParams(2, a, 0, 2, roots)
        for i in (1, 2, 3):
            mask = mask_for_unmasked_index(i)
            _, built3 = store.sector(params0, mask)
            if built3 != OperatorMatrix(built3.basis, reference_double_mask_matrix(a, roots, i)):
                raise _Failed(f"{_sector_name(params0, mask)}: 3x3 mismatch")
            compared += 1
    return (f"{compared} matrices over 5 random rational tuples match the "
            "hand-derived references exactly")


def _match_levels(store: _SectorStore, sectors: list[tuple[ModelParams, GaugeMask]]) -> int:
    """Each sector's characteristic polynomial equals the product of (t - E)
    over its closed-form levels `degenerate_levels`; the number of levels."""
    count = 0
    for params, mask in sectors:
        levels = degenerate_levels(params, mask)
        chi = store.sector(params, mask)[1].charpoly()
        if chi != from_roots(levels):
            raise _Failed(f"{_sector_name(params, mask)}: characteristic polynomial "
                          f"{chi} is not the closed-form product")
        count += len(levels)
    return count


def _check_closed_forms(store: _SectorStore) -> str:
    """At roots (2,-1,-1), b=0, N=m=2 the fifteen sector eigenvalues at each a
    are the closed-form levels E_lambda, linear in a (three values shared
    between two sectors, two sectors identical)."""
    return (f"{_match_levels(store, _closed_form_sectors())} eigenvalues at a in "
            "{0, 1/2, 5}: each sector's characteristic polynomial equals the product of "
            "(t - x) over its closed forms")


def _check_oscillator(store: _SectorStore) -> str:
    """With the interaction off (a = 0) at roots (2, -1, -1) the ungauged
    sectors of `decoupling` have the closed-form levels E_lambda, each the sum
    of N one-particle oscillator levels."""
    return (f"{_match_levels(store, _ungauged_sectors())} eigenvalues at a = 0, N in {{1, 2}}, "
            "m in {1, 2}, b in {0, 1/4}: each ungauged sector's characteristic "
            "polynomial equals the product of (t - E_lambda) over its closed-form levels")


def _sector_total(nvars: int, m: Fraction) -> int:
    """The summed dimension of the valid sectors at N = nvars, degree m, b = 0."""
    params = ModelParams(nvars, 0, 0, m)
    return sum(params.basis_dimension(mask) for mask in list_valid_masks(params))


def _check_counting() -> str:
    """Counting formula versus actual sector dimensions: N=2, m=2 gives 15;
    exact agreement for all N <= 4 and m in {0, 1/2, ..., 4}; the N=1
    integer-m count is 4m + 1."""
    total, formula = _sector_total(2, Fraction(2)), counting_formula(2, 2)
    if total != 15 or total != formula:
        raise _Failed(f"N=2, m=2: sector total {total}, formula {formula}")
    cells = 0
    for nvars in (1, 2, 3, 4):
        for m in (Fraction(k, 2) for k in range(9)):
            total, formula = _sector_total(nvars, m), counting_formula(nvars, m)
            if total != formula:
                raise _Failed(f"N={nvars}, m={m}: sector total {total} != formula {formula}")
            cells += 1
    for k in range(5):
        if counting_formula(1, k) != 4 * k + 1:
            raise _Failed(f"N=1, m={k}: formula {counting_formula(1, k)} != {4 * k + 1}")
    return (f"N=2, m=2 gives 15; formula matches sector dimensions on {cells} "
            "(N, m) cells; N=1 integer count is 4m+1")


def _check_closure(store: _SectorStore) -> str:
    """Every valid sector on the random grid builds a matrix without leaving
    the invariant space and without a surviving gauge pole, and on a sample
    of cutoff-2 sectors every column equals the image that
    `GaugedOperator.apply` computes in z-space."""
    grid = store.closure_grid()
    sample = _cross_check_sample(store)
    for op, mat in sample:
        if not matches_operator(op, mat):
            raise _Failed(f"{_sector_name(op.params, op.mask)}: the tau-space matrix "
                          "differs from the z-space images")
    return (f"{len(grid)} sectors (all masks, N <= 3, cutoff <= 3, 5 random "
            "tuples per cell) closed on their invariant spaces; "
            f"{len(sample)} cutoff-2 sectors with a, g3 and 1/2 +- b non-zero "
            "cross-checked against z-space images")


def _cross_check_sample(store: _SectorStore) -> list[GridEntry]:
    """For N = 1, 2, 3, the eight mask sectors of one cutoff-2 tuple.

    At cutoff 2 the basis is 1, tau_i and tau_i tau_j, whose images fix the
    tau-space coefficients A, B and C.  Each of a, g3, 1/2 - b and b + 1/2
    switches off a group of terms of A, B and C when it vanishes, so the
    tuples make all four non-zero: a = +-k/3 with k in {1, 2, 4, 5}, so 2a
    is non-zero and not an integer; b has denominator 1 or 3; the roots are
    +-(e + g, e, e - h) with gaps g < h, so e = (h - g)/3 > 0 and no root is
    zero.
    """
    rng = random.Random(707)
    sample: list[GridEntry] = []
    for nvars in (1, 2, 3):
        a = Fraction(rng.choice((-1, 1)) * rng.choice((1, 2, 4, 5)), 3)
        b = _random_fraction(rng, -2, 4, (3,))
        g = _random_fraction(rng, 1, 3, (2,))
        h = _random_fraction(rng, 4, 6, (2,))
        e = (h - g) / 3
        sign = rng.choice((-1, 1))
        roots = (sign * (e + g), sign * e, sign * (e - h))
        sample += _grid_entries(store, nvars, 2, a, b, roots)
    return sample


def _check_gauge_exponents() -> str:
    """Pole cancellation holds exactly for exponents 0 and 1/2 - b on every
    mask, at 1/2 - b with the q and s of the operator the engine builds (one
    variable, cutoff 0); exponent 1/3 at b = 0 must raise NonCancellingPole on
    any mask containing a simple root, while a double root cancels any
    exponent."""
    rng = random.Random(606)
    half = Fraction(1, 2)
    third = Fraction(1, 3)
    successes = 0
    failures = 0
    for _ in range(3):
        b = _random_fraction(rng, -1, 1, (1, 2, 4))
        roots = _random_roots(rng)
        for mask in ALL_MASKS:
            op = build_gauged_operator(ModelParams(1, 0, b, mask.n_f * (half - b), roots), mask)
            q, s = gauge_polynomials(roots, mask, half - b, b)
            closed = [Poly(1, {(r,): x for r, x in c.items()}) for c in (op.charge, op.scalar)]
            if [q * op.scale, s * op.scale] != closed:
                raise _Failed(f"closed-form q, s differ from the division on mask {mask} "
                              f"at roots {roots}, b = {b}")
            gauge_polynomials(roots, mask, Fraction(0), b)
            successes += 2
            if not mask.indices:
                continue
            try:
                gauge_polynomials(roots, mask, third, Fraction(0))
            except NonCancellingPole:
                failures += 1
            else:
                raise _Failed(f"exponent 1/3 left no pole on mask {mask} with simple "
                              f"roots {roots}")
    double = tuple(map(Fraction, DEGENERATE_ROOTS))
    try:
        gauge_polynomials(double, GaugeMask((2, 3)), third, Fraction(0))
    except NonCancellingPole as exc:
        raise _Failed(f"double root failed to cancel exponent 1/3: {exc}") from None
    try:
        gauge_polynomials(double, GaugeMask((1, 2)), third, Fraction(0))
    except NonCancellingPole:
        failures += 1
    else:
        raise _Failed("exponent 1/3 on a simple root cancelled")
    return (f"{successes} valid exponents cancelled exactly; {successes // 2} closed-form "
            f"q, s agree with the division at 1/2 - b; {failures} simple-root sectors "
            "rejected exponent 1/3; a double root cancels any exponent")


def _check_raising(store: _SectorStore) -> str:
    """The degree-raising coefficient formula holds exactly at every degree
    up to the cutoff for every sector on the random grid."""
    checked = 0
    for op, mat in store.closure_grid():
        for degree in range(op.cutoff + 1):
            if not raising_coefficient_check(op, degree, mat):
                raise _Failed(f"{_sector_name(op.params, op.mask)}: coefficient mismatch "
                              f"at degree {degree}")
            checked += 1
    return f"raising coefficient exact at {checked} (sector, degree) pairs"


def _power_sums(chi: Poly, count: int) -> list[Coeff]:
    """p_0..p_(count-1) of the roots of a monic univariate chi, by Newton's
    identities: p_k = -k c_k - sum_{0<i<k} c_i p_(k-i), with c_i the
    coefficient of t^(n-i)."""
    n = chi.leading()[0][0]
    c = [chi.coefficient((n - i,)) for i in range(count)]
    p = [n]
    for k in range(1, count):
        p.append(-k * c[k] - sum(c[i] * p[k - i] for i in range(1, k)))
    return p


def _check_decoupling(store: _SectorStore) -> str:
    """With the interaction off (a = 0) the two-particle ungauged spectrum at
    roots (2, -1, -1) is the multiset of pairwise sums (with repetition) of
    the one-particle spectrum with the same b and m: the interaction term is
    the only coupling between variables.  Exactly: for k = 0..dim M2 the
    two-particle power sums equal those of the pair sums,
    (1/2)[sum_r C(k, r) p_r p_(k-r) + 2^k p_k] in the one-particle p_r; over
    Q these fix the multiset, k = 0 its size."""
    sectors = iter(_ungauged_sectors())
    for one, two in zip(sectors, sectors):  # N = 1 and N = 2 at one (m, b)
        m1, m2 = (store.sector(*sector)[1] for sector in (one, two))
        count = m2.dim + 1
        p1, p2 = (_power_sums(mat.charpoly(), count) for mat in (m1, m2))
        for k in range(count):
            pair_sum = Fraction(sum(comb(k, r) * p1[r] * p1[k - r] for r in range(k + 1))
                             + 2**k * p1[k], 2)
            if p2[k] != pair_sum:
                raise _Failed(f"{_sector_name(*two)}: power sum p_{k} of the spectrum "
                              f"is {p2[k]}, of the one-particle pair sums {pair_sum}")
    return ("two-particle spectra are pairwise sums for m in {1,2}, b in {0,1/4}: "
            "power sums p_0..p_dim agree exactly")


def _coprime(f: Poly, g: Poly) -> bool:
    """Whether two non-zero one-variable polynomials over Q have gcd 1: the
    last non-zero remainder of Euclid's algorithm is a constant."""
    while g:
        (dg,), lg = g.leading()
        while f and f.leading()[0][0] >= dg:
            (df,), lf = f.leading()
            f = f - g * Poly.monomial((df - dg,), Fraction(lf) / lg)
        f, g = g, f
    return f.leading()[0] == (0,)


def _check_figure_degeneracy(store: _SectorStore) -> str:
    """Along the root family (2, -1+eps, -1-eps) at b=0, N=m=2: at eps=0 the
    characteristic polynomial of mask 23 divides that of the 6-dimensional
    sector and masks 13 and 12 have equal ones; at eps=1/2, a=5 both pairs
    are coprime, so every such coincidence is gone."""
    sectors = iter(_flow_sectors())
    for point in zip(sectors, sectors, sectors, sectors):  # masks none, 12, 13, 23
        none, m12, m13, m23 = (store.sector(*sector)[1].charpoly() for sector in point)
        if point[0][0].roots == DEGENERATE_ROOTS:  # eps = 0
            try:
                none.divide_exact(m23)
            except NonZeroRemainder:
                raise _Failed(f"{_sector_name(*point[3])}: spectrum not in mask none's") from None
            if m13 != m12:
                raise _Failed(f"{_sector_name(*point[2])}: spectrum differs from mask 12's")
        elif not (_coprime(none, m23) and _coprime(m13, m12)):
            raise _Failed(f"{_sector_name(*point[0])}: a cross-sector coincidence survives")
    return ("degeneracy pattern holds exactly at eps=0 (mask 23 divides none, 13 equals 12) "
            "and is fully broken at eps=1/2, a=5 (both pairs coprime)")


# -- eigensolver invariants -------------------------------------------------------


def _invariant_pool(store: _SectorStore) -> list[tuple[str, OperatorMatrix, Spectrum]]:
    """Every sector of the exact checks' lists, once, in first-seen order,
    named and diagonalized here for the eigensolver check."""
    sectors = dict.fromkeys(_closed_form_sectors() + _ungauged_sectors() + _flow_sectors())
    return [(_sector_name(*sector), mat, spectrum_of(mat))
            for sector in sectors for mat in [store.sector(*sector)[1]]]


def _check_eigensolver(store: _SectorStore) -> str:
    """On every matrix of `_invariant_pool`: the eigenvalue product matches
    the exact determinant (relative 1e-8), the values equal their conjugates
    as a multiset, exactly (LAPACK gives each complex pair of a real matrix
    as wr +- i wi), and five random exact similarity transforms leave the
    spectrum unchanged to 1e-8.  The sum needs no check here: the trace gate
    of `spectrum_of` raises NoConvergence, which fails the check.  Each
    transform is 3 dim random elementary operations E M E^-1 with
    E = I + c e_t e_s^T, c = +-1 and s != t, applied to K: it is unimodular,
    keeps K integral over the same D and needs no inverse and no matrix
    product."""
    pool = _invariant_pool(store)
    worst_det = 0.0
    for label, mat, spec in pool:
        values = spec.values
        det = float(mat.determinant())
        product = prod(values, start=complex(1.0))
        det_defect = abs(product - det) / max(1.0, abs(det))
        worst_det = max(worst_det, det_defect)
        if det_defect > 1e-8:
            raise _Failed(f"{label}: eigenvalue product {product} vs determinant {det}")
        if unpaired := Counter(values) - Counter(v.conjugate() for v in values):
            raise _Failed(f"{label}: eigenvalue {next(iter(unpaired))} has no conjugate partner")

    rng = random.Random(1010)
    worst_sim = 0.0
    for label, mat, spec in [pool[i] for i in rng.sample(range(len(pool)), 5)]:
        n = mat.dim
        rows = mat.dense(lambda k, _: k, 0)
        for _ in range(3 * n):
            s, t = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            rows[t] = [x + c * y for x, y in zip(rows[t], rows[s])]
            for row in rows:
                row[s] -= c * row[t]
        transformed = OperatorMatrix(mat.basis, rows, denominator=mat.denominator)
        moved = eigenvalues(to_float(transformed)).values
        scale = max(1.0, max(abs(v) for v in spec.values))
        defect = max(abs(x - y) for x, y in zip(moved, spec.values)) / scale
        worst_sim = max(worst_sim, defect)
        if defect > 1e-8:
            raise _Failed(f"{label}: similarity transform moved the spectrum by {defect:.3e}")
    return (f"trace, determinant, and conjugate pairing hold on {len(pool)} matrices "
            f"(worst determinant defect {worst_det:.2e}); 5 similarity transforms "
            f"preserve spectra (worst defect {worst_sim:.2e})")


# -- runner -----------------------------------------------------------------------

# Every check in run order; `run_checks` hands each the run's sector store.
_CHECKS: dict[str, Callable[[_SectorStore], str]] = {
    "matrices": _check_matrices,
    "closed-forms": _check_closed_forms,
    "oscillator": _check_oscillator,
    "counting": lambda _: _check_counting(),
    "closure": _check_closure,
    "gauge-exponents": lambda _: _check_gauge_exponents(),
    "raising": _check_raising,
    "decoupling": _check_decoupling,
    "figure-degeneracy": _check_figure_degeneracy,
    "eigensolver": _check_eigensolver,
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    """Run the named verification checks (all ten by default), in order.

    Raises ValueError when ``only`` names an unknown check or no check at all.
    A failed check reports its own detail; a check that raises any other
    exception is reported as failed with the exception's type and message.
    """
    requested = list(CHECK_NAMES) if only is None else list(only)
    if not requested:
        raise ValueError(f"no check selected; available: {', '.join(CHECK_NAMES)}")
    unknown = [name for name in requested if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(
            f"unknown check name(s) {unknown}; available: {', '.join(CHECK_NAMES)}"
        )
    store = _SectorStore()
    return [_run_guarded(name, store) for name in CHECK_NAMES if name in requested]


def _run_guarded(name: str, store: _SectorStore) -> CheckResult:
    """Run one check: passed with the detail it returns, failed with the
    detail of its `_Failed`, or failed with the type and message of any
    other exception, since a crashed check is a failed check."""
    try:
        passed, detail = True, _CHECKS[name](store)
    except _Failed as exc:
        passed, detail = False, str(exc)
    except Exception as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail)
