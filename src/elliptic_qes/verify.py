"""Built-in verification suite.

Ten named checks compare the operator pipeline against the independent
oracles: hand-derived reference matrices, closed-form eigenvalue families,
the oscillator limit, the counting formulas, invariant-space closure, gauge
pole cancellation, the degree-raising coefficient, two-particle decoupling,
the spectral-flow degeneracy pattern, and eigensolver invariants.  Each check
returns a CheckResult; the CLI turns failures into a nonzero exit code.

Randomized checks draw from seeded generators, one per check, so any subset
selected with ``only`` sees the same parameter tuples as a full run.

Each `run_checks` call creates one sector store, and the checks take their
sectors from it: the reference matrices, the closure grid that `closure` and
`raising` share, the z-space sample and the sectors whose eigenvalues the
checks test, as exact identities of characteristic polynomials; only
`eigensolver` diagonalizes.  The store builds a sector's operator and matrix
at most once per run.  A sample operator lifts its coefficients into z-space
once, at its first `apply`.  The oracles behind `oscillator` and
`decoupling` build their own sectors, so a few sectors are built two or three
times per run.
Nothing outlives the run, so repeated runs in one process each do the full work.
`gauge-exponents` compares the exact division with the q and s of one-variable
operators from `build_gauged_operator`, so it checks the engine's own path.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import prod
from typing import Callable

import numpy as np

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
    count_symmetric_solutions,
    counting_formula,
    decoupling_check,
    degenerate_closed_forms,
    epsilon_roots,
    mask_for_unmasked_index,
    oscillator_membership,
    reference_double_mask_matrix,
    reference_empty_mask_matrix,
)
from .polynomials import Poly, from_roots
from .spectral import Spectrum, eigenvalues, spectrum_of

_EMPTY = GaugeMask(())


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


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


def _grid_entry(
    store: _SectorStore,
    nvars: int,
    cutoff: int,
    a: Fraction,
    b: Fraction,
    roots: tuple[Fraction, Fraction, Fraction],
    mask: GaugeMask,
) -> GridEntry:
    """The sector of `mask` at the given cutoff, with the original degree
    solved as m = cutoff + n_f (1/2 - b) so that it is valid."""
    params = ModelParams(nvars, a, b, cutoff + mask.n_f * (Fraction(1, 2) - b), roots)
    return store.sector(params, mask)


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
                grid += [
                    _grid_entry(store, nvars, cutoff, a, b, roots, mask) for mask in ALL_MASKS
                ]
    return grid


# -- individual checks -----------------------------------------------------------


def _check_matrices(store: _SectorStore) -> CheckResult:
    """Five random rational parameter tuples: the built 6x6 sector and the
    three 3x3 double-mask sectors (at b = 0) must equal the hand-derived
    references entry for entry."""
    rng = random.Random(101)
    compared = 0
    for _ in range(5):
        a = _random_fraction(rng, -3, 3, (1, 2, 3))
        b = _random_fraction(rng, -3, 3, (1, 2, 3))
        roots = _random_roots(rng)
        _, built = store.sector(ModelParams(2, a, b, 2, roots), _EMPTY)
        expected = reference_empty_mask_matrix(a, b, roots)
        if built != OperatorMatrix(built.basis, expected):
            return CheckResult(
                "matrices",
                False,
                f"6x6 mismatch at a={a}, b={b}, roots={roots}",
            )
        compared += 1
        params0 = ModelParams(2, a, 0, 2, roots)
        for i in (1, 2, 3):
            mask = mask_for_unmasked_index(i)
            _, built3 = store.sector(params0, mask)
            if built3 != OperatorMatrix(built3.basis, reference_double_mask_matrix(a, roots, i)):
                return CheckResult(
                    "matrices",
                    False,
                    f"3x3 mismatch for unmasked root {i} at a={a}, roots={roots}",
                )
            compared += 1
    return CheckResult(
        "matrices",
        True,
        f"{compared} matrices over 5 random rational tuples match the "
        "hand-derived references exactly",
    )


def _check_closed_forms(store: _SectorStore) -> CheckResult:
    """At roots (2,-1,-1), b=0, N=m=2 the fifteen sector eigenvalues follow
    nine closed linear-in-a forms (three values shared between two sectors,
    two sectors identical): each sector's characteristic polynomial equals
    the product of (t - x) over its closed-form values."""
    count = 0
    for a in (Fraction(0), Fraction(1, 2), Fraction(5)):
        params = ModelParams(2, a, 0, 2, DEGENERATE_ROOTS)
        forms = degenerate_closed_forms(a)
        for mask in list_valid_masks(params):
            values = forms.sector_values(str(mask))
            chi = store.sector(params, mask)[1].charpoly()
            if chi != from_roots(values):
                return CheckResult(
                    "closed-forms",
                    False,
                    f"a={a}, mask {mask}: characteristic polynomial {chi} is not the "
                    "closed-form product",
                )
            count += len(values)
    return CheckResult(
        "closed-forms",
        True,
        f"{count} eigenvalues at a in {{0, 1/2, 5}}: each sector's characteristic "
        "polynomial equals the product of (t - x) over its closed forms",
    )


def _check_oscillator() -> CheckResult:
    """At a = b = 0 every algebraic eigenvalue is an even two-oscillator
    level 3(j1^2 + j2^2) - 40: dividing those (t - level) out of each
    sector's characteristic polynomial leaves 1."""
    report = oscillator_membership()
    if not report.ok:
        return CheckResult("oscillator", False, report.witness)
    parities = ", ".join(f"{k}:{v}" for k, v in sorted(report.sector_parities.items()))
    return CheckResult(
        "oscillator",
        True,
        f"all {len(report.assignments)} eigenvalues are even oscillator levels, "
        f"with multiplicity (sector parities {parities})",
    )


def _check_counting() -> CheckResult:
    """Counting formula versus actual sector dimensions: N=2, m=2 gives 15;
    exact agreement for all N <= 4 and m in {0, 1/2, ..., 4}; the N=1
    integer-m count is 4m + 1."""
    report = count_symmetric_solutions(2, 2)
    if report.total != 15 or not report.matches:
        return CheckResult(
            "counting",
            False,
            f"N=2, m=2: sector total {report.total}, formula {report.formula}",
        )
    cells = 0
    for nvars in (1, 2, 3, 4):
        m = Fraction(0)
        while m <= 4:
            r = count_symmetric_solutions(nvars, m)
            if not r.matches:
                return CheckResult(
                    "counting",
                    False,
                    f"N={nvars}, m={m}: sector total {r.total} != formula {r.formula}",
                )
            cells += 1
            m += Fraction(1, 2)
    for k in range(5):
        if counting_formula(1, k) != 4 * k + 1:
            return CheckResult(
                "counting", False, f"N=1, m={k}: formula {counting_formula(1, k)} != {4 * k + 1}"
            )
    return CheckResult(
        "counting",
        True,
        f"N=2, m=2 gives 15; formula matches sector dimensions on {cells} "
        "(N, m) cells; N=1 integer count is 4m+1",
    )


def _check_closure(store: _SectorStore) -> CheckResult:
    """Every valid sector on the random grid builds a matrix without leaving
    the invariant space and without a surviving gauge pole, and on a sample
    of cutoff-2 sectors every column equals the image that
    `GaugedOperator.apply` computes in z-space."""
    grid = store.closure_grid()
    sample = _cross_check_sample(store)
    for op, mat in sample:
        if not matches_operator(op, mat):
            params = op.params
            roots = ",".join(map(str, params.roots))
            return CheckResult(
                "closure",
                False,
                f"mask {op.mask}, N={params.nvars}, m={params.degree_m}, "
                f"a={params.coupling_a}, b={params.coupling_b}, roots {roots}: "
                "the tau-space matrix differs from the z-space images",
            )
    return CheckResult(
        "closure",
        True,
        f"{len(grid)} sectors (all masks, N <= 3, cutoff <= 3, 5 random "
        "tuples per cell) closed on their invariant spaces; "
        f"{len(sample)} cutoff-2 sectors with a, g3 and 1/2 +- b non-zero "
        "cross-checked against z-space images",
    )


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
        sample += [_grid_entry(store, nvars, 2, a, b, roots, mask) for mask in ALL_MASKS]
    return sample


def _check_gauge_exponents() -> CheckResult:
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
            if gauge_polynomials(roots, mask, half - b, b) != (op.charge, op.scalar):
                return CheckResult("gauge-exponents", False, f"closed-form q, s differ from "
                                   f"the division on mask {mask} at roots {roots}, b = {b}")
            gauge_polynomials(roots, mask, Fraction(0), b)
            successes += 2
            if not mask.indices:
                continue
            try:
                gauge_polynomials(roots, mask, third, Fraction(0))
            except NonCancellingPole:
                failures += 1
            else:
                return CheckResult(
                    "gauge-exponents",
                    False,
                    f"exponent 1/3 left no pole on mask {mask} with simple "
                    f"roots {roots}",
                )
    double = tuple(map(Fraction, DEGENERATE_ROOTS))
    try:
        gauge_polynomials(double, GaugeMask((2, 3)), third, Fraction(0))
    except NonCancellingPole as exc:
        return CheckResult("gauge-exponents", False,
                           f"double root failed to cancel exponent 1/3: {exc}")
    try:
        build_gauged_operator(ModelParams(2, 1, 0, 2, double), GaugeMask((1, 2)), exponent=third)
        return CheckResult("gauge-exponents", False, "exponent 1/3 on a simple root built cleanly")
    except NonCancellingPole:
        failures += 1
    return CheckResult(
        "gauge-exponents",
        True,
        f"{successes} valid exponents cancelled exactly; {successes // 2} closed-form "
        f"q, s agree with the division at 1/2 - b; {failures} simple-root sectors "
        "rejected exponent 1/3; a double root cancels any exponent",
    )


def _check_raising(store: _SectorStore) -> CheckResult:
    """The degree-raising coefficient formula holds exactly at every degree
    up to the cutoff for every sector on the random grid."""
    checked = 0
    for op, mat in store.closure_grid():
        for degree in range(op.cutoff + 1):
            if not raising_coefficient_check(op, degree, mat):
                params = op.params
                return CheckResult(
                    "raising",
                    False,
                    f"coefficient mismatch at degree {degree}, mask {op.mask}, "
                    f"N={params.nvars}, m={params.degree_m}, b={params.coupling_b}",
                )
            checked += 1
    return CheckResult(
        "raising",
        True,
        f"raising coefficient exact at {checked} (sector, degree) pairs",
    )


def _check_decoupling() -> CheckResult:
    """With the interaction off (a = 0) the two-particle spectrum is the
    multiset of pairwise sums of the one-particle spectrum: their power sums
    agree exactly up to the two-particle dimension."""
    for m in (1, 2):
        for b in (Fraction(0), Fraction(1, 4)):
            report = decoupling_check(b, m)
            if not report.ok:
                k = next(k for k, (x, y) in enumerate(zip(report.two_particle, report.pair_sums))
                         if x != y)
                return CheckResult(
                    "decoupling",
                    False,
                    f"m={m}, b={b}: power sum p_{k} of the two-particle spectrum is "
                    f"{report.two_particle[k]}, of the pair sums {report.pair_sums[k]}",
                )
    return CheckResult(
        "decoupling",
        True,
        "two-particle spectra are pairwise sums for m in {1,2}, b in {0,1/4}: "
        "power sums p_0..p_dim agree exactly",
    )


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


def _check_figure_degeneracy(store: _SectorStore) -> CheckResult:
    """Along the root family (2, -1+eps, -1-eps) at b=0, N=m=2: at eps=0 the
    characteristic polynomial of mask 23 divides that of the 6-dimensional
    sector and masks 13 and 12 have equal ones; at eps=1/2, a=5 both pairs
    are coprime, so every such coincidence is gone."""

    def chi(params: ModelParams, mask: tuple[int, ...]) -> Poly:
        return store.sector(params, GaugeMask(mask))[1].charpoly()

    for a in (Fraction(0), Fraction(5)):
        params = ModelParams(2, a, 0, 2, DEGENERATE_ROOTS)
        try:
            chi(params, ()).divide_exact(chi(params, (2, 3)))
        except NonZeroRemainder:
            return CheckResult(
                "figure-degeneracy",
                False,
                f"eps=0, a={a}: mask 23 does not share its eigenvalues with the 6x6 sector",
            )
        if chi(params, (1, 3)) != chi(params, (1, 2)):
            return CheckResult(
                "figure-degeneracy",
                False,
                f"eps=0, a={a}: the two root-1 masked sectors have different spectra",
            )

    params = ModelParams(2, 5, 0, 2, epsilon_roots(Fraction(1, 2)))
    if not (_coprime(chi(params, ()), chi(params, (2, 3)))
            and _coprime(chi(params, (1, 3)), chi(params, (1, 2)))):
        return CheckResult(
            "figure-degeneracy", False, "eps=1/2, a=5: a cross-sector coincidence survives"
        )
    return CheckResult(
        "figure-degeneracy",
        True,
        "degeneracy pattern holds exactly at eps=0 (mask 23 divides none, 13 equals 12) "
        "and is fully broken at eps=1/2, a=5 (both pairs coprime)",
    )


# -- eigensolver invariants -------------------------------------------------------


def _invariant_pool(store: _SectorStore) -> list[tuple[str, OperatorMatrix, Spectrum]]:
    """Every matrix whose eigenvalues the exact checks read, deduplicated and
    diagonalized here, for the eigensolver check."""
    pool: dict[tuple[ModelParams, GaugeMask], tuple[str, OperatorMatrix, Spectrum]] = {}

    def add(params: ModelParams, mask: GaugeMask, label: str) -> None:
        if (params, mask) not in pool:
            mat = store.sector(params, mask)[1]
            pool[params, mask] = (label, mat, spectrum_of(mat))

    for a in (Fraction(0), Fraction(1, 2), Fraction(5)):
        params = ModelParams(2, a, 0, 2, DEGENERATE_ROOTS)
        for mask in list_valid_masks(params):
            add(params, mask, f"degenerate a={a} mask {mask}")
    for m in (1, 2):
        for b in (Fraction(0), Fraction(1, 4)):
            add(ModelParams(1, 0, b, m, DEGENERATE_ROOTS), _EMPTY, f"1-var m={m} b={b}")
            add(ModelParams(2, 0, b, m, DEGENERATE_ROOTS), _EMPTY, f"2-var m={m} b={b}")
    for eps, a in ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(5)), (Fraction(1, 2), Fraction(5))):
        params = ModelParams(2, a, 0, 2, epsilon_roots(eps))
        for mask in list_valid_masks(params):
            add(params, mask, f"flow eps={eps} a={a} mask {mask}")
    return list(pool.values())


def _check_eigensolver(store: _SectorStore) -> CheckResult:
    """On every matrix of `_invariant_pool`: the eigenvalue sum
    matches the trace, the product matches the exact determinant (relative
    1e-8), complex values pair into conjugates, and five random exact
    similarity transforms leave the spectrum unchanged to 1e-8.  Each
    transform is 3 dim random elementary operations E M E^-1 with
    E = I + c e_t e_s^T, c = +-1 and s != t, applied to K: it is unimodular,
    keeps K integral over the same D and needs no inverse and no matrix
    product."""
    pool = _invariant_pool(store)
    worst_det = 0.0
    for label, mat, spec in pool:
        values = spec.values
        frob = float(np.linalg.norm(to_float(mat)))
        trace_scale = max(1.0, abs(float(mat.trace())), frob)
        trace_defect = abs(sum(values) - float(mat.trace()))
        if trace_defect > 1e-9 * trace_scale:
            return CheckResult(
                "eigensolver", False, f"{label}: trace defect {trace_defect:.3e}"
            )
        det = float(mat.determinant())
        product = prod(values, start=complex(1.0))
        det_defect = abs(product - det) / max(1.0, abs(det))
        worst_det = max(worst_det, det_defect)
        if det_defect > 1e-8:
            return CheckResult(
                "eigensolver",
                False,
                f"{label}: eigenvalue product {product} vs determinant {det}",
            )
        unmatched = [v for v in values if abs(v.imag) > 1e-7 * (1.0 + abs(v.real))]
        while unmatched:
            v = unmatched.pop()
            partner = min(
                range(len(unmatched)),
                key=lambda i: abs(unmatched[i] - v.conjugate()),
                default=None,
            )
            if partner is None or abs(unmatched[partner] - v.conjugate()) > 1e-7 * (
                1.0 + abs(v)
            ):
                return CheckResult(
                    "eigensolver", False, f"{label}: eigenvalue {v} has no conjugate partner"
                )
            unmatched.pop(partner)

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
        columns = tuple(tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*rows))
        transformed = OperatorMatrix(mat.basis, denominator=mat.denominator, columns=columns)
        moved = eigenvalues(to_float(transformed)).values
        scale = max(1.0, max(abs(v) for v in spec.values))
        defect = max(abs(x - y) for x, y in zip(moved, spec.values)) / scale
        worst_sim = max(worst_sim, defect)
        if defect > 1e-8:
            return CheckResult(
                "eigensolver",
                False,
                f"{label}: similarity transform moved the spectrum by {defect:.3e}",
            )
    return CheckResult(
        "eigensolver",
        True,
        f"trace, determinant, and conjugate pairing hold on {len(pool)} matrices "
        f"(worst determinant defect {worst_det:.2e}); 5 similarity transforms "
        f"preserve spectra (worst defect {worst_sim:.2e})",
    )


# -- runner -----------------------------------------------------------------------

# Every check in run order; `run_checks` hands each the run's sector store.
_CHECKS: dict[str, Callable[[_SectorStore], CheckResult]] = {
    "matrices": _check_matrices,
    "closed-forms": _check_closed_forms,
    "oscillator": lambda _: _check_oscillator(),
    "counting": lambda _: _check_counting(),
    "closure": _check_closure,
    "gauge-exponents": lambda _: _check_gauge_exponents(),
    "raising": _check_raising,
    "decoupling": lambda _: _check_decoupling(),
    "figure-degeneracy": _check_figure_degeneracy,
    "eigensolver": _check_eigensolver,
}

CHECK_NAMES: tuple[str, ...] = tuple(_CHECKS)


def run_checks(only: list[str] | None = None) -> list[CheckResult]:
    """Run the named verification checks (all ten by default), in order.

    Raises ValueError when ``only`` names an unknown check or no check at all.
    A check that raises is reported as failed with the exception's type and
    message.
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
    try:
        return _CHECKS[name](store)
    except Exception as exc:  # a crashed check is a failed check
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")
