"""Exact matrix assembly, closure detection, and serialization."""

import dataclasses
import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import elliptic_qes.matrices as matrices
import elliptic_qes.verify as verify
from elliptic_qes.errors import OperatorNotClosed
from elliptic_qes.matrices import (
    OperatorMatrix,
    build_matrix,
    export_matrix,
    matches_operator,
    raising_coefficient_check,
    to_float,
)
from elliptic_qes.model import (
    ALL_MASKS,
    GaugeMask,
    ModelParams,
    external_field_coupling,
    list_valid_masks,
)
from elliptic_qes.operator import (
    GaugedOperator,
    build_gauged_operator,
    raising_ratio,
)
from elliptic_qes.oracles import (
    mask_for_unmasked_index,
    reference_double_mask_matrix,
    reference_empty_mask_matrix,
)
from elliptic_qes.polynomials import Poly, from_roots
from elliptic_qes.symmetric import enumerate_basis, pack

EMPTY = GaugeMask(())


def F(x) -> Fraction:
    return Fraction(x)


def test_smallest_nontrivial_matrix():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 1), EMPTY))
    assert mat.rows == ((F(0), F(6)), (F(6), F(0)))


def test_one_variable_degree_two_matrix():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 2), EMPTY))
    assert mat.rows == (
        (F(0), F(6), F(16)),
        (F(20), F(0), F(36)),
        (F(0), F(14), F(0)),
    )


def test_dim_one_sector():
    # N=1, m=0: the space is the constants and the operator annihilates them
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 0), EMPTY))
    assert mat.rows == ((F(0),),)


def test_reference_equality_one_tuple():
    a, b = Fraction(2, 3), Fraction(-1, 4)
    roots = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    mat = build_matrix(build_gauged_operator(ModelParams(2, a, b, 2, roots), EMPTY))
    assert mat.rows == reference_empty_mask_matrix(a, b, roots)
    params0 = ModelParams(2, a, 0, 2, roots)
    for i in (1, 2, 3):
        built = build_matrix(build_gauged_operator(params0, mask_for_unmasked_index(i)))
        assert built.rows == reference_double_mask_matrix(a, roots, i)


def _k(mat: OperatorMatrix) -> list[list[int]]:
    """K as dense rows of ints."""
    return mat.dense(lambda k, _: k, 0)


def _diagonal_sum(mat: OperatorMatrix) -> Fraction:
    """The sum of K's diagonal over D, read from the dense rows of K."""
    return Fraction(sum(row[i] for i, row in enumerate(_k(mat))), mat.denominator)


def test_entry_access_and_trace():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 1), EMPTY))
    assert mat.dim == 2
    assert mat.rows[0][1] == 6
    assert tuple(row[0] for row in mat.rows) == (F(0), F(6))
    assert _diagonal_sum(mat) == 0


def test_determinant_and_characteristic_values():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 1), EMPTY))
    assert mat.determinant() == -36
    assert mat.charpoly() == from_roots((6, -6))
    big = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 2), EMPTY))
    assert big.determinant() == 4480
    assert big.charpoly() == from_roots((-20, -8, 28))


def test_a_matrix_keeps_its_characteristic_polynomial_and_a_transformed_copy_has_its_own():
    mat = build_matrix(build_gauged_operator(ModelParams(2, F("1/3"), 0, 2), EMPTY))
    chi = mat.charpoly()
    assert mat.charpoly() is chi
    rows = _k(mat)
    rows[1] = [x + y for x, y in zip(rows[1], rows[0])]  # E M E^-1, E = I + e_1 e_0^T
    for row in rows:
        row[0] -= row[1]
    similar = OperatorMatrix(mat.basis, rows, denominator=mat.denominator)
    doubled = OperatorMatrix(mat.basis, mat.dense(lambda k, _: 2 * k, 0),
                             denominator=mat.denominator)
    assert similar != mat and similar.charpoly() is not chi and similar.charpoly() == chi
    n = mat.dim
    assert doubled.charpoly() == Poly(1, {(n - i,): 2**i * chi.coefficient((n - i,))
                                          for i in range(n + 1)})
    assert mat.charpoly() is chi and doubled.determinant() == 2**n * mat.determinant()


@pytest.mark.parametrize("nvars,m", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_characteristic_polynomial_at_zero_is_the_signed_determinant(nvars, m):
    """(-1)^n chi(0), and `determinant` read from it, equal sympy's det of the
    rows on every valid sector at a rational point whose denominators make D > 1."""
    sympy = pytest.importorskip("sympy")
    params = ModelParams(nvars, F("2/3"), F("-1/4"), m, (F(2), F("-1/2"), F("-3/2")))
    for mask in list_valid_masks(params):
        mat = build_matrix(build_gauged_operator(params, mask))
        assert mat.denominator > 1
        chi = mat.charpoly()
        assert chi.leading() == ((mat.dim,), 1)
        reference = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                                  for row in mat.rows]).det()
        expected = Fraction(int(reference.p), int(reference.q))
        assert (-1) ** mat.dim * chi.evaluate((0,)) == expected
        det = mat.determinant()
        assert isinstance(det, Fraction) and det == expected


def test_characteristic_polynomial_equals_sympy_on_random_rational_matrices():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 6)
        rows = tuple(
            tuple(F(rng.randint(-9, 9)) / rng.choice((1, 2, 3, 5, 12)) for _ in range(n))
            for _ in range(n)
        )
        chi = OperatorMatrix(enumerate_basis(1, n - 1), rows).charpoly()
        expected = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                       for row in rows for x in row]).charpoly().all_coeffs()
        assert [chi.coefficient((n - i,)) for i in range(n + 1)] == [
            Fraction(int(x.p), int(x.q)) for x in expected]


def integer_rows(min_dim: int = 1, max_dim: int = 5):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def determinant(rows) -> Fraction:
    basis = enumerate_basis(1, len(rows) - 1)
    return OperatorMatrix(basis, tuple(tuple(map(F, r)) for r in rows)).determinant()


@given(integer_rows())
def test_exact_determinant_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert determinant(rows) == sympy.Matrix(rows).det()


@given(integer_rows(min_dim=2), st.data())
def test_repeated_row_is_singular(rows, data):
    index = st.integers(0, len(rows) - 1)
    i, j = data.draw(st.lists(index, min_size=2, max_size=2, unique=True))
    rows[j] = list(rows[i])
    assert determinant(rows) == 0


def test_raising_check_holds_at_every_degree():
    op = build_gauged_operator(
        ModelParams(2, Fraction(1, 3), Fraction(-1, 2), 2), EMPTY
    )
    mat = build_matrix(op)
    for degree in range(op.cutoff + 1):
        assert raising_coefficient_check(op, degree, mat) is True
    with pytest.raises(ValueError):
        raising_coefficient_check(op, op.cutoff + 1, mat)


def test_raising_check_detects_tampering():
    op = build_gauged_operator(ModelParams(2, 0, 0, 2), EMPTY)
    mat = build_matrix(op)
    rows = [list(r) for r in mat.rows]
    # corrupt the degree-raising entry (t1 component of the image of 1)
    rows[1][0] += 1
    tampered = OperatorMatrix(mat.basis, tuple(tuple(r) for r in rows))
    assert raising_coefficient_check(op, 0, tampered) is False


@pytest.mark.parametrize(
    ("nvars", "cutoff"),
    [
        # truncated to cutoff 1: the image of tau_1 leaves the space
        pytest.param(1, 2, id="n1-truncated-to-1"),
        # truncated to cutoff 3: only columns of degree 3 leave the space
        pytest.param(2, 4, id="n2-truncated-to-3"),
    ],
)
def test_closure_violation_detected(nvars, cutoff):
    op = build_gauged_operator(ModelParams(nvars, 0, 0, cutoff), EMPTY)
    # the same operator on a truncated space no longer closes
    truncated = dataclasses.replace(op, cutoff=cutoff - 1)
    with pytest.raises(OperatorNotClosed, match=rf"\({cutoff}(, 0)*,?\) of degree {cutoff}, above"):
        build_matrix(truncated)


def rationals(lo=-3, hi=3, dens=(1, 2, 4)):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens))


def oracle_rows(op: GaugedOperator) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the sector matrix with every column an applied image."""
    basis = enumerate_basis(op.nvars, op.cutoff)
    images = [op.apply(Poly.monomial(exps)) for exps in basis]
    return tuple(tuple(image.coefficient(exps) for image in images) for exps in basis)


def sector(nvars, a, b, roots, mask, cutoff) -> GaugedOperator:
    m = cutoff + mask.n_f * (Fraction(1, 2) - b)
    return build_gauged_operator(ModelParams(nvars, a, b, m, roots), mask)


@given(
    nvars=st.integers(1, 4),
    cutoff=st.integers(0, 3),
    mask=st.sampled_from(ALL_MASKS),
    a=rationals(),
    b=rationals(),
    e1=rationals(),
    e2=rationals(),
)
def test_matrix_equals_applied_images(nvars, cutoff, mask, a, b, e1, e2):
    roots = (e1, e2, -e1 - e2)
    assume(len(set(roots)) == 3)
    op = sector(nvars, a, b, roots, mask, cutoff)
    assert build_matrix(op).rows == oracle_rows(op)


# The terms that `GaugedOperator.apply` reads; it reads the pair terms 2a.p and
# 2a.q only at a != 0.
_SINGLE_TERMS = [("V", 0), ("s", 0), ("s", 1), *(("p", r) for r in range(4)),
                 *(("drift", r) for r in range(3))]
_PAIR_TERMS = [*(("2a.p", r) for r in range(4)), *(("2a.q", r) for r in range(3))]


@given(
    nvars=st.integers(1, 3),
    cutoff=st.integers(0, 3),
    mask=st.sampled_from(ALL_MASKS),
    a=rationals(),
    b=rationals(),
    e1=rationals(),
    e2=rationals(),
    term=st.sampled_from(_SINGLE_TERMS + _PAIR_TERMS),
    step=st.sampled_from([-1, 1]),
)
def test_a_nudged_weight_table_builds_its_applied_images_or_is_refused(
        nvars, cutoff, mask, a, b, e1, e2, term, step):
    """A weight table moved by one unit in one term, zero at that point or
    not, gives the matrix of its z-space images where they stay in the basis,
    and otherwise OperatorNotClosed naming the first monomial outside it, by
    column and then by packed code."""
    roots = (e1, e2, -e1 - e2)
    assume(len(set(roots)) == 3 and (a or term not in _PAIR_TERMS))
    op = sector(nvars, a, b, roots, mask, cutoff)
    d, table = op.weights
    op.__dict__["weights"] = (d, {**table, term: table.get(term, 0) + step})
    basis = enumerate_basis(nvars, cutoff)
    outside = [(exps, e) for exps in basis
               for e in sorted(op.apply(Poly.monomial(exps)).terms, key=pack) if e not in basis]
    if not outside:
        assert build_matrix(op).rows == oracle_rows(op)
        return
    exps, e = outside[0]
    with pytest.raises(OperatorNotClosed) as refused:
        build_matrix(op)
    assert str(refused.value) == (f"image of tau-monomial {exps} contains {e} of degree "
                                  f"{sum(e)}, above the cutoff {cutoff}")


@given(
    nvars=st.integers(1, 4),
    cutoff=st.integers(0, 4),
    mask=st.sampled_from(ALL_MASKS),
    a=rationals(),
    b=rationals(),
    e1=rationals(),
    e2=rationals(),
)
def test_every_weight_table_closes_and_one_more_v_does_not(nvars, cutoff, mask, a, b, e1, e2):
    """Closure is linear in the weight table: every valid sector's table lies
    in the kernel of the map to the monomials above the cutoff, and the same
    table with the V weight raised by one leaves it, its image reaching degree
    cutoff + 1."""
    roots = (e1, e2, -e1 - e2)
    assume(len(set(roots)) == 3)
    op = sector(nvars, a, b, roots, mask, cutoff)
    assert build_matrix(op).dim == len(enumerate_basis(nvars, cutoff))
    d, table = op.weights
    op.__dict__["weights"] = (d, {**table, ("V", 0): table.get(("V", 0), 0) + 1})
    with pytest.raises(OperatorNotClosed, match=rf"of degree {cutoff + 1}, above the cutoff"):
        build_matrix(op)


def _python_int_route(op: GaugedOperator):
    """The entries of K, as sorted (position, k) pairs, and the float image of
    K / D by the previous engine's route, kept as the reference for `build_matrix` and `to_float`: K summed
    term by term in Python ints over the entries of the (N, cutoff) cell, its
    non-zero sums listed column by column, and k / D appended to three Python
    lists and scattered."""
    keys, _, term, coefficient, starts, _, positions, _ = matrices._term_basis(
        op.nvars, op.cutoff)
    d, table = op.weights
    dim = len(enumerate_basis(op.nvars, op.cutoff))
    position = np.repeat(np.arange(len(starts)), np.diff([*starts.tolist(), len(term)]))
    sums = [0] * len(starts)
    for t, key in enumerate(keys):
        weight = table.get(key, 0)
        for p, c in zip(position[term == t].tolist(), coefficient[term == t].tolist()):
            sums[p] += weight * c
    columns = [[] for _ in range(dim)]
    for p, k in zip(positions.tolist(), sums):  # stops at the positions in the basis
        if k:
            columns[p % dim].append((p // dim, k))
    rows, cols, values = [], [], []
    for j, column in enumerate(columns):
        for i, k in column:
            values.append(k / d)
            rows.append(i)
            cols.append(j)
    out = np.zeros((dim, dim))
    out[rows, cols] = values
    return sorted((i * dim + j, k) for j, column in enumerate(columns) for i, k in column), out


def _assert_equals_the_python_int_route(op: GaugedOperator, dtype) -> OperatorMatrix:
    """`build_matrix` sums K in ``dtype``; its entries equal the reference's,
    and `to_float` its doubles bit for bit, signs of zero included."""
    mat = build_matrix(op)
    entries, floats = _python_int_route(op)
    assert mat.values.dtype == dtype
    assert sorted(zip(mat.positions.tolist(), mat.values.tolist())) == entries
    assert to_float(mat).tobytes() == floats.tobytes()
    return mat


@given(
    nvars=st.integers(1, 4),
    cutoff=st.integers(0, 4),
    mask=st.sampled_from(ALL_MASKS),
    a=st.one_of(rationals(), st.sampled_from([Fraction(1, 2**53 + 1), Fraction(2**52),
                                              Fraction(-(2**40), 3), Fraction(10**30)])),
    b=rationals(),
    e1=rationals(),
    e2=rationals(),
)
def test_k_is_summed_in_int64_exactly_when_the_bound_allows_and_both_routes_agree(
        nvars, cutoff, mask, a, b, e1, e2):
    """K is int64 when D and sum_j |D c_j| max|S_j| over the terms with entries
    in the cell are at most 2**53, and Python ints otherwise; either way it
    equals the Python-int route, and so do its doubles."""
    roots = (e1, e2, -e1 - e2)
    assume(len(set(roots)) == 3)
    op = sector(nvars, a, b, roots, mask, cutoff)
    d, table = op.weights
    keys, largest = matrices._term_basis(nvars, cutoff)[:2]
    bound = sum(abs(table.get(key, 0)) * m for key, m in zip(keys, largest))
    _assert_equals_the_python_int_route(op, np.int64 if max(d, bound) <= 2**53 else object)


def test_a_denominator_above_2_53_sums_k_in_python_ints():
    """At a = 1/(2**53 + 1) D exceeds 2**53, so K is summed in Python ints;
    the same matrix over D times 2**53 + 1 gives the same doubles."""
    op = build_gauged_operator(ModelParams(2, Fraction(1, 2**53 + 1), Fraction(1, 3), 2), EMPTY)
    mat = _assert_equals_the_python_int_route(op, object)
    assert mat.denominator > 2**53
    small = build_gauged_operator(ModelParams(2, Fraction(1, 3), Fraction(1, 3), 2), EMPTY)
    d, table = small.weights
    assert d <= 2**53 and build_matrix(small).values.dtype == np.int64
    scale = 2**53 + 1
    small.__dict__["weights"] = (d * scale, {key: w * scale for key, w in table.items()})
    scaled = _assert_equals_the_python_int_route(small, object)
    plain = build_matrix(build_gauged_operator(small.params, EMPTY))
    assert scaled == plain and to_float(scaled).tobytes() == to_float(plain).tobytes()


def test_a_weight_bound_above_2_53_at_a_small_denominator_sums_k_in_python_ints():
    """At a = 2**52 and N = 2, D is 1 and the weights 2a p_r push
    sum_j |D c_j| max|S_j| past 2**53."""
    op = build_gauged_operator(ModelParams(2, Fraction(2**52), 0, 2), EMPTY)
    mat = _assert_equals_the_python_int_route(op, object)
    assert mat.denominator == 1 and max(map(abs, mat.values.tolist())) > 2**53


def test_a_weight_beyond_int64_on_a_term_without_entries_keeps_k_in_int64():
    """At N = 1 and cutoff 0 no derivative term has an entry, so the weights
    2a p_r, beyond int64 at a = 10**30, neither raise nor leave int64."""
    op = build_gauged_operator(ModelParams(1, Fraction(10**30), 0, 0), EMPTY)
    d, table = op.weights
    keys = matrices._term_basis(1, 0)[0]
    assert any(abs(w) >= 2**63 and key not in keys for key, w in table.items())
    _assert_equals_the_python_int_route(op, np.int64)


# a, b, e1, e2 (e3 = -e1 - e2) with denominators that are distinct primes, so
# the common denominator of a sector collects a different prime power from
# each weight.  The lcm of one sector's entry denominators, which divides that
# denominator, exceeds `bound` in at least one sector.
@pytest.mark.parametrize(
    ("a", "b", "e1", "e2", "bound"),
    [
        (Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(-5, 11), 2**16),
        (Fraction(-7, 13), Fraction(-3, 17), Fraction(11, 19), Fraction(4, 23), 2**28),
        (Fraction(5, 101), Fraction(2, 1013), Fraction(3, 1019), Fraction(-7, 1021), 2**64),
    ],
    ids=["3-5-7-11", "13-17-19-23", "101-1013-1019-1021"],
)
def test_matrix_equals_applied_images_at_coprime_denominators(a, b, e1, e2, bound):
    largest = 0
    for nvars in (2, 3):
        for cutoff in range(4):
            for mask in ALL_MASKS:
                op = sector(nvars, a, b, (e1, e2, -e1 - e2), mask, cutoff)
                rows = build_matrix(op).rows
                assert rows == oracle_rows(op), (nvars, cutoff, mask)
                largest = max(largest, lcm(*(x.denominator for row in rows for x in row)))
    assert largest > bound


def test_a_dropped_matrix_leaves_nothing_allocated():
    # the per-N term tables are built by the small sector, and the term basis
    # of (N=5, cutoff 5), at most 2 MB, by a build at other parameters; after
    # that, building and dropping a dim-252 sector must not leave its columns
    # cached.  The term basis is cleared first, so that it is built here.
    roots = (Fraction(5, 2), Fraction(-3, 4), Fraction(-7, 4))
    build_matrix(sector(5, Fraction(-2, 3), Fraction(1, 3), roots, EMPTY, 1))
    matrices._term_basis.cache_clear()
    other = sector(5, Fraction(3, 2), Fraction(-1, 5), roots, EMPTY, 5)
    op = sector(5, Fraction(-2, 3), Fraction(1, 3), roots, EMPTY, 5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert build_matrix(other).dim == 252
        gc.collect()
        cell = tracemalloc.get_traced_memory()[0] - before
        assert build_matrix(op).dim == 252
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before - cell
    finally:
        tracemalloc.stop()
    assert cell < 2 * 2**20
    assert retained < 0.1 * 2**20


def test_forming_a_wide_cell_sorts_its_contributions_without_a_pattern_bitmap():
    """The cell of N = 32, cutoff 2 (dim 561, 11,074 offsets) is formed by one
    sort of its contributions and peaks below 4 MB; a dim x width bitmap of
    the pattern alone would take 6.2 MB."""
    matrices._term_entries(32)
    enumerate_basis(32, 2)
    matrices._term_basis.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        matrices._term_basis(32, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_the_per_n_term_table_is_the_only_copy_of_the_structure_sums():
    """Forming the term table of N = 20, which no other test builds, keeps its
    int64 rows (about 0.5 MB) and nothing of the structure sums they are read
    from, which would take 2 MB more."""
    misses = matrices._term_entries.cache_info().misses
    gc.collect()
    tracemalloc.start()
    try:
        matrices._term_entries(20)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert matrices._term_entries.cache_info().misses == misses + 1
    assert held < 1.5 * 2**20


def test_the_b_dual_sector_has_the_same_matrix_and_the_same_mask_does_not():
    """(m, b, S) and (m + 3b - 3/2, 1 - b, S^c), S^c the complementary mask,
    have the same cutoff m + n_f (b - 1/2), the same matrix and the same
    external-field coupling, over a seeded sample of N <= 3, cutoffs <= 3,
    all eight masks and random a, b and roots; with S in place of S^c the
    partner's matrix differs."""
    rng, half, pairs = random.Random(14), Fraction(1, 2), 0
    while pairs < 300:
        nvars, cutoff, mask = rng.randint(1, 3), rng.randint(0, 3), rng.choice(ALL_MASKS)
        a, b, e1, e2 = (Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in "abcd")
        roots = (e1, e2, -e1 - e2)
        if b == half or len(set(roots)) < 3:  # at b = 1/2 the map fixes every sector
            continue
        params = ModelParams(nvars, a, b, cutoff + mask.n_f * (half - b), roots)
        dual = ModelParams(nvars, a, 1 - b, params.degree_m + 3 * b - 3 * half, roots)
        complement = GaugeMask(tuple(i for i in (1, 2, 3) if i not in mask))
        mat = build_matrix(build_gauged_operator(params, mask))
        assert build_matrix(build_gauged_operator(dual, complement)) == mat
        assert external_field_coupling(dual) == external_field_coupling(params)
        if dual.sector_is_valid(mask):
            assert build_matrix(build_gauged_operator(dual, mask)) != mat
        pairs += 1


def test_matrix_equals_applied_images_four_particles_cutoff_four():
    roots = (Fraction(7, 6), Fraction(-1, 3), Fraction(-5, 6))
    op = sector(4, Fraction(3, 2), Fraction(-1, 4), roots, GaugeMask((1, 3)), 4)
    assert build_matrix(op).rows == oracle_rows(op)


def test_matrix_equals_applied_images_five_particles_cutoff_two():
    # the columns 1, tau_i and tau_i tau_j fix every coefficient of L at N=5
    roots = (Fraction(5, 2), Fraction(-3, 4), Fraction(-7, 4))
    op = sector(5, Fraction(-2, 3), Fraction(1, 3), roots, GaugeMask((2,)), 2)
    assert build_matrix(op).rows == oracle_rows(op)


# SHA-256 of the basis and rows of every mask's sector at one point whose a, b
# and roots are all non-integral.  The cutoffs reach falling factors of high
# degree at N=5 and N=6, beyond the z-space comparisons above.
@pytest.mark.parametrize(
    ("nvars", "cutoff", "digest"),
    [
        (5, 5, "b48070ec0a01dfb1d1fcc01d4ef55b5b4b71eab97d0e907da045044e94ec11cd"),
        (6, 3, "3ef45ff759d0a8063d005cd546d308d947814d2b801a94385448ad2240fffe26"),
    ],
)
def test_large_sector_matrices_equal_the_recorded_engine(nvars, cutoff, digest):
    roots = (Fraction(9, 4), Fraction(-3, 5), Fraction(-33, 20))
    sha = hashlib.sha256()
    for mask in ALL_MASKS:
        mat = build_matrix(sector(nvars, Fraction(5, 3), Fraction(-2, 7), roots, mask, cutoff))
        sha.update(repr(mat.basis.monomials).encode())
        for row in mat.rows:
            sha.update((",".join(str(x) for x in row) + "\n").encode())
    assert sha.hexdigest() == digest


def _large_sectors(nvars, cutoff):
    roots = (Fraction(9, 4), Fraction(-3, 5), Fraction(-33, 20))
    return [build_matrix(sector(nvars, Fraction(5, 3), Fraction(-2, 7), roots, mask, cutoff))
            for mask in ALL_MASKS]


# Equality compares entries as dicts and `to_float` keeps the last of two
# values assigned to one entry, so neither would notice a repeated position.
@pytest.mark.parametrize(
    "matrices",
    [lambda: [mat for _, mat in verify._SectorStore().closure_grid()],
     lambda: _large_sectors(4, 4),
     lambda: _large_sectors(5, 5)],
    ids=["closure-grid", "n4-cutoff4", "n5-cutoff5"],
)
def test_every_column_lists_each_row_once(matrices):
    for mat in matrices():
        positions = mat.positions.tolist()
        assert len(set(positions)) == len(positions)
        assert all(mat.values.tolist())


@pytest.mark.parametrize(
    ("nvars", "cutoff"), [(1, 0), (1, 1), (1, 5), (2, 1), (3, 2), (4, 4)]
)
def test_build_matrix_never_applies_operator(monkeypatch, nvars, cutoff):
    op = build_gauged_operator(ModelParams(nvars, Fraction(1, 2), 0, cutoff), EMPTY)

    def forbidden_apply(self, f):
        raise AssertionError("build_matrix applied the operator in z-space")

    monkeypatch.setattr(GaugedOperator, "apply", forbidden_apply)
    assert build_matrix(op).dim == len(enumerate_basis(nvars, cutoff))



def test_matches_operator_applies_the_degree_two_columns(monkeypatch):
    op = build_gauged_operator(ModelParams(4, Fraction(1, 2), 0, 4), EMPTY)
    mat = build_matrix(op)
    applied = []
    original = GaugedOperator.apply

    def counting_apply(self, f):
        applied.append(next(iter(f.terms)))
        return original(self, f)

    monkeypatch.setattr(GaugedOperator, "apply", counting_apply)
    assert matches_operator(op, mat)
    assert sorted(applied) == sorted(e for e in mat.basis if sum(e) <= 2)
    assert len(applied) == 15
    rows = [list(row) for row in mat.rows]
    j = mat.basis.index_of((1, 1, 0, 0))
    rows[0][j] += 1
    assert not matches_operator(op, OperatorMatrix(mat.basis, tuple(map(tuple, rows))))
    assert matches_operator(op, _scaled(mat, 6))
    # at a = 1/3 the images carry the denominator 3: one entry of K off by one
    # is an entry of M off by 1/D
    third = build_gauged_operator(ModelParams(2, Fraction(1, 3), Fraction(1, 4), 2,
                                              (2, Fraction(-3, 2), Fraction(-1, 2))), EMPTY)
    mat = build_matrix(third)
    assert mat.denominator % 3 == 0 and matches_operator(third, _scaled(mat, 6))
    for j, exps in enumerate(mat.basis):
        if sum(exps) <= 2 and any(row[j] for row in mat.rows):
            assert not matches_operator(third, _bumped(mat, j))


def _scaled(mat: OperatorMatrix, factor: int) -> OperatorMatrix:
    """The same matrix with K and D both multiplied by factor."""
    return OperatorMatrix(mat.basis, mat.dense(lambda k, _: k * factor, 0),
                          denominator=mat.denominator * factor)


def _bumped(mat: OperatorMatrix, j: int) -> OperatorMatrix:
    """The same matrix with the first non-zero entry of column j of K raised by one."""
    rows = _k(mat)
    next(row for row in rows if row[j])[j] += 1
    return OperatorMatrix(mat.basis, rows, denominator=mat.denominator)


@pytest.mark.parametrize(
    ("nvars", "cutoff", "mask"),
    [(1, 2, EMPTY), (2, 2, EMPTY), (2, 3, GaugeMask((1, 3))), (3, 3, GaugeMask((2,)))],
)
def test_readers_of_k_agree_with_the_matrix_rebuilt_from_its_rows(nvars, cutoff, mask):
    roots = (Fraction(9, 4), Fraction(-3, 5), Fraction(-33, 20))
    built = build_matrix(sector(nvars, Fraction(5, 3), Fraction(-2, 7), roots, mask, cutoff))
    again = OperatorMatrix(built.basis, built.rows)
    assert again == built and _scaled(built, 6) == built
    assert again.denominator <= built.denominator
    assert again.rows == built.rows
    diagonal = sum(built.rows[i][i] for i in range(built.dim))
    assert _diagonal_sum(again) == _diagonal_sum(built) == diagonal
    assert again.determinant() == built.determinant() == _scaled(built, 6).determinant()
    for fmt in ("json", "csv"):
        assert export_matrix(again, fmt) == export_matrix(built, fmt)


def test_equality_compares_values():
    built = build_matrix(build_gauged_operator(ModelParams(2, Fraction(1, 3), 0, 2), EMPTY))
    assert _scaled(built, 5) == built
    assert _scaled(built, 6) == built
    rows = [list(row) for row in built.rows]
    rows[2][1] += Fraction(1, 7)
    assert OperatorMatrix(built.basis, tuple(map(tuple, rows))) != built
    assert OperatorMatrix(enumerate_basis(1, 5), built.rows) != built
    d = built.denominator
    assert d > 1 and np.bincount(built.positions % built.dim).max() > 1
    reversed_entries = built.positions[::-1], built.values[::-1]
    assert OperatorMatrix(built.basis, denominator=d, entries=reversed_entries) == built
    assert _bumped(built, int(built.positions[0]) % built.dim) != built


@pytest.mark.parametrize(
    ("op", "dtype"),
    [(build_gauged_operator(ModelParams(2, Fraction(1, 3), Fraction(-1, 2), 3), EMPTY),
      np.int64),
     (sector(3, Fraction(5, 3), Fraction(-2, 7), (Fraction(9, 4), Fraction(-3, 5),
                                                  Fraction(-33, 20)), GaugeMask((2,)), 3),
      np.int64),
     (build_gauged_operator(ModelParams(2, Fraction(2**52), 0, 2), EMPTY), object),
     (build_gauged_operator(ModelParams(3, Fraction(1, 2**53 + 1), Fraction(1, 3), 2), EMPTY),
      object)],
    ids=["n2-int64", "n3-mask2-int64", "n2-object", "n3-object-d"],
)
def test_no_reader_of_k_depends_on_the_order_of_its_entries(op, dtype):
    """`positions` and `values` permuted together are the same matrix to
    every reader of K: equality, the float image, the dense rows, chi, the
    raising check at each degree and the z-space check."""
    mat = build_matrix(op)
    assert mat.values.dtype == dtype
    order = np.random.default_rng(0).permutation(len(mat.positions))
    shuffled = OperatorMatrix(mat.basis, denominator=mat.denominator,
                              entries=(mat.positions[order], mat.values[order]))
    assert shuffled.positions.tolist() != mat.positions.tolist()
    assert shuffled == mat and mat == shuffled
    assert to_float(shuffled).tobytes() == to_float(mat).tobytes()
    assert shuffled.dense(Fraction, 0) == mat.dense(Fraction, 0)
    assert shuffled.charpoly() == mat.charpoly()
    degrees = range(op.cutoff + 1)
    assert [raising_coefficient_check(op, d, shuffled) for d in degrees] == [
        raising_coefficient_check(op, d, mat) for d in degrees]
    assert matches_operator(op, shuffled) and matches_operator(op, mat)


def test_shape_of_the_rows_is_checked():
    basis = enumerate_basis(1, 1)
    wrong = (((F(1),),), ((F(1), F(0)),), ((F(1),), (F(0), F(1))), ((1, 0), (0,)),
             ((1, 0), (0, 1), (0, 0)), ())
    for rows in wrong:
        for denominator in ({}, {"denominator": 3}):
            with pytest.raises(ValueError, match="shape"):
                OperatorMatrix(basis, rows, **denominator)
    for denominator in ({}, {"denominator": 3}):
        with pytest.raises(ValueError, match="shape"):
            OperatorMatrix(basis, **denominator)


def _tampered_k(mat: OperatorMatrix, i: int, j: int, delta: int) -> OperatorMatrix:
    """The matrix with delta added to K_ij, over the same D."""
    rows = _k(mat)
    rows[i][j] += delta
    return OperatorMatrix(mat.basis, rows, denominator=mat.denominator)


def test_a_tampered_k_entry_fails_the_raising_and_z_space_checks():
    op = build_gauged_operator(ModelParams(2, Fraction(1, 3), Fraction(-1, 2), 2), EMPTY)
    mat = build_matrix(op)
    assert matches_operator(op, mat)
    assert all(raising_coefficient_check(op, d, mat) for d in range(op.cutoff + 1))
    basis = mat.basis
    t1, t2 = basis.index_of((1, 0)), basis.index_of((0, 1))
    # the raising entry tau_1 of the image of 1, off by 1 / D
    raised = _tampered_k(mat, t1, 0, 1)
    assert not raising_coefficient_check(op, 0, raised)
    assert not matches_operator(op, raised)
    # a spurious degree-1 component tau_2 in the image of 1
    spurious = _tampered_k(mat, t2, 0, 1)
    assert not raising_coefficient_check(op, 0, spurious)
    assert not matches_operator(op, spurious)
    # a degree-lowering entry: invisible to the raising check, not to z-space
    lowered = _tampered_k(mat, 0, t1, 1)
    assert raising_coefficient_check(op, 0, lowered)
    assert not matches_operator(op, lowered)


def test_raising_check_reads_k_over_any_common_denominator():
    # K and D both times 6 are the same matrix: the check holds at every degree
    op = build_gauged_operator(ModelParams(3, Fraction(2, 3), Fraction(1, 6), 3), EMPTY)
    mat = build_matrix(op)
    scaled = OperatorMatrix(mat.basis, mat.dense(lambda k, _: 6 * k, 0),
                            denominator=6 * mat.denominator)
    assert scaled == mat
    assert all(raising_coefficient_check(op, d, scaled) for d in range(op.cutoff + 1))
    # a raising entry off by one fails at its own degree only
    basis = scaled.basis
    for degree in range(op.cutoff):
        j = basis.index_of((degree, 0, 0))
        i = basis.index_of((degree + 1, 0, 0))
        tampered = _tampered_k(scaled, i, j, 1)
        assert [raising_coefficient_check(op, d, tampered) for d in range(op.cutoff + 1)] == [
            d != degree for d in range(op.cutoff + 1)
        ]


def test_raising_check_fails_when_d_times_the_coefficient_is_not_integral():
    # N = 2, a = 1/5, b = 0, m = 2: coeff(d) = 4 (2 - d) (d + 29/10) is 116/5, 78/5, 0
    op = build_gauged_operator(ModelParams(2, Fraction(1, 5), 0, 2), EMPTY)
    mat = build_matrix(op)
    assert all(raising_coefficient_check(op, d, mat) for d in range(op.cutoff + 1))
    for degree in range(op.cutoff):
        coeff = Fraction(*raising_ratio(op.params, op.mask, degree))
        assert coeff.denominator > 1
        # over D = 1 no integer entry equals coeff, not even the nearest one
        rounded = mat.dense(lambda k, d: round(Fraction(k, d)), 0)
        coarse = OperatorMatrix(mat.basis, rounded, denominator=1)
        assert (coeff * coarse.denominator).denominator != 1
        assert not raising_coefficient_check(op, degree, coarse)


def test_the_raising_check_compares_in_ints(monkeypatch):
    """coeff = num / den from `raising_ratio`; an entry k passes when
    k den == num D, so the check forms no Fraction."""
    op = build_gauged_operator(ModelParams(3, Fraction(2, 7), Fraction(1, 3), 3), EMPTY)
    mat = build_matrix(op)
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    passed = [raising_coefficient_check(op, d, mat) for d in range(op.cutoff + 1)]
    monkeypatch.undo()
    assert passed == [True] * (op.cutoff + 1) and made == []
    num, den = raising_ratio(op.params, op.mask, 0)
    assert num != 0 and den > 0


def test_csv_export_shape():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 1), EMPTY))
    text = export_matrix(mat, "csv")
    assert text.splitlines() == ["0.0,6.0", "6.0,0.0"]
    with pytest.raises(ValueError):
        export_matrix(mat, "xml")


def test_root_relabeling_preserves_characteristic_polynomial():
    # permuting root labels is a change of basis: characteristic polynomials
    # agree
    a = Fraction(1, 2)
    roots = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    swapped = (Fraction(2), Fraction(-3, 2), Fraction(-1, 2))
    m1 = build_matrix(build_gauged_operator(ModelParams(2, a, 0, 2, roots), EMPTY))
    m2 = build_matrix(build_gauged_operator(ModelParams(2, a, 0, 2, swapped), EMPTY))
    assert m1.charpoly() == m2.charpoly()
    # a mask tracking the swapped root keeps the spectrum as well
    g1 = build_matrix(
        build_gauged_operator(ModelParams(2, a, 0, 2, roots), GaugeMask((1, 2)))
    )
    g2 = build_matrix(
        build_gauged_operator(ModelParams(2, a, 0, 2, swapped), GaugeMask((1, 3)))
    )
    assert g1.charpoly() == g2.charpoly()


def _matmul(x, y):
    cols = list(zip(*y))
    return [[sum((u * v for u, v in zip(row, col) if u and v), F(0)) for col in cols]
            for row in x]


@pytest.mark.parametrize(
    "nvars,m,a", [(2, 2, F(0)), (2, 2, F(1)), (3, 4, F(1)), (3, 4, F("5/3"))]
)
def test_sector_matrices_are_nilpotent_at_the_triple_root(nvars, m, a):
    # At e1 = e2 = e3 = 0 the cubic is 4 z^3, and entry (i, j) is homogeneous of
    # degree 1 - (w_i - w_j) in the roots (tau_k of weight k), so only entries
    # raising the weight by exactly one survive: M is strictly block triangular.
    params = ModelParams(nvars, a, 0, m, (0, 0, 0))
    for mask in list_valid_masks(params):
        rows = [list(r) for r in build_matrix(build_gauged_operator(params, mask)).rows]
        dim = len(rows)
        power = [[F(i == j) for j in range(dim)] for i in range(dim)]
        base, k = rows, dim
        while k:
            if k & 1:
                power = _matmul(power, base)
            base, k = _matmul(base, base), k >> 1
        assert all(x == 0 for row in power for x in row), f"M^{dim} != 0 for mask {mask}"
