"""Exact matrix assembly, closure detection, and serialization."""

import dataclasses
import gc
import hashlib
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from elliptic_qes.errors import OperatorNotClosed
from elliptic_qes.matrices import (
    OperatorMatrix,
    build_matrix,
    export_matrix,
    matches_operator,
    matrix_from_json,
    raising_coefficient_check,
)
from elliptic_qes.model import ALL_MASKS, GaugeMask, ModelParams, list_valid_masks
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
from elliptic_qes.symmetric import enumerate_basis

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


def test_entry_access_and_trace():
    mat = build_matrix(build_gauged_operator(ModelParams(1, 0, 0, 1), EMPTY))
    assert mat.dim == 2
    assert mat.rows[0][1] == 6
    assert tuple(row[0] for row in mat.rows) == (F(0), F(6))
    assert mat.trace() == 0


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
    rows = mat.dense(lambda k, _: k, 0)
    rows[1] = [x + y for x, y in zip(rows[1], rows[0])]  # E M E^-1, E = I + e_1 e_0^T
    for row in rows:
        row[0] -= row[1]
    similar = OperatorMatrix(mat.basis, denominator=mat.denominator, columns=tuple(
        tuple((i, x) for i, x in enumerate(col) if x) for col in zip(*rows)))
    doubled = OperatorMatrix(mat.basis, denominator=mat.denominator, columns=tuple(
        tuple((i, 2 * k) for i, k in col) for col in mat.columns))
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
    # the per-N term tables are built by the small sector; after that, building
    # and dropping a dim-252 sector must not leave its columns cached.  It runs
    # before this file's other N=5 builds, so a column cache would start cold.
    roots = (Fraction(5, 2), Fraction(-3, 4), Fraction(-7, 4))
    build_matrix(sector(5, Fraction(-2, 3), Fraction(1, 3), roots, EMPTY, 1))
    op = sector(5, Fraction(-2, 3), Fraction(1, 3), roots, EMPTY, 5)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert build_matrix(op).dim == 252
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 0.1 * 2**20


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
        if sum(exps) <= 2 and mat.columns[j]:
            assert not matches_operator(third, _bumped(mat, j))


def _scaled(mat: OperatorMatrix, factor: int) -> OperatorMatrix:
    """The same matrix with K and D both multiplied by factor."""
    columns = tuple(tuple((i, k * factor) for i, k in col) for col in mat.columns)
    return OperatorMatrix(mat.basis, denominator=mat.denominator * factor, columns=columns)


def _bumped(mat: OperatorMatrix, j: int) -> OperatorMatrix:
    """The same matrix with the first stored entry of column j of K raised by one."""
    (i, k), *rest = mat.columns[j]
    columns = mat.columns[:j] + (((i, k + 1), *rest),) + mat.columns[j + 1 :]
    return OperatorMatrix(mat.basis, denominator=mat.denominator, columns=columns)


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
    assert again.trace() == built.trace() == sum(built.rows[i][i] for i in range(built.dim))
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
    assert d > 1 and any(len(col) > 1 for col in built.columns)
    reversed_pairs = tuple(col[::-1] for col in built.columns)
    assert OperatorMatrix(built.basis, denominator=d, columns=reversed_pairs) == built
    assert _bumped(built, next(j for j, col in enumerate(built.columns) if col)) != built


def test_shape_of_the_rows_is_checked():
    basis = enumerate_basis(1, 1)
    for rows in (((F(1),),), ((F(1), F(0)),), ((F(1),), (F(0), F(1)))):
        with pytest.raises(ValueError, match="shape"):
            OperatorMatrix(basis, rows)
    with pytest.raises(ValueError, match="shape"):
        OperatorMatrix(basis, columns=((),))


def _tampered_k(mat: OperatorMatrix, i: int, j: int, delta: int) -> OperatorMatrix:
    """The matrix with delta added to K_ij, over the same D."""
    column = dict(mat.columns[j])
    column[i] = column.get(i, 0) + delta
    columns = list(mat.columns)
    columns[j] = tuple((r, k) for r, k in column.items() if k)
    return OperatorMatrix(mat.basis, denominator=mat.denominator, columns=tuple(columns))


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
    scaled = OperatorMatrix(mat.basis, denominator=6 * mat.denominator,
                            columns=tuple(tuple((i, 6 * k) for i, k in column)
                                          for column in mat.columns))
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
        rounded = [tuple((i, round(Fraction(k, mat.denominator))) for i, k in column)
                   for column in mat.columns]
        coarse = OperatorMatrix(mat.basis, denominator=1, columns=tuple(rounded))
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


def test_json_round_trip():
    mat = build_matrix(
        build_gauged_operator(
            ModelParams(2, Fraction(1, 3), Fraction(2, 5), 2), EMPTY
        )
    )
    again = matrix_from_json(export_matrix(mat, "json"))
    assert again == mat
    assert again.rows == mat.rows


def test_matrix_json_names_a_numeric_entry():
    with pytest.raises(ValueError, match=r"entry \(0,0\) is 1"):
        matrix_from_json('{"basis": [[0]], "entries": [[1]]}')


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
