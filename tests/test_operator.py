"""Gauge polynomials and exact application of the gauged operator."""

import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import elliptic_qes.operator as operator
from elliptic_qes import verify
from elliptic_qes.errors import InvalidDegree, NonCancellingPole, NotSymmetric
from elliptic_qes.matrices import build_matrix
from elliptic_qes.model import (
    ALL_MASKS,
    GaugeMask,
    ModelParams,
    cubic_invariants,
    external_field_coupling,
    list_valid_masks,
)
from elliptic_qes.operator import (
    _natural_gauge_polynomials,
    build_gauged_operator,
    gauge_polynomials,
    raising_ratio,
)
from elliptic_qes.polynomials import Poly, weierstrass_cubic

EMPTY = GaugeMask(())
HALF = Fraction(1, 2)


def rationals(lo=-3, hi=3, dens=(1, 2, 4)):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens))


def _poly(coeffs):
    """The one-variable Poly of a z-power -> coefficient map."""
    return Poly(1, {(r,): x for r, x in coeffs.items()})


# -- gauge polynomials ----------------------------------------------------------


def test_empty_mask_is_trivial_gauge():
    q, s = gauge_polynomials(
        (Fraction(2), Fraction(-1), Fraction(-1)), EMPTY, HALF, Fraction(0)
    )
    assert q == Poly.zero(1)
    assert s == Poly.zero(1)


@pytest.mark.parametrize("eps", [Fraction(0), Fraction(1, 4), Fraction(1, 2)])
def test_double_mask_gauge_scalar_closed_form(eps):
    # mask {2,3} at b=0: working through the conjugation by hand with
    # A = z + e1/2 and D = (z-e2)(z-e3) collapses s to 6z - 3 e1 and
    # q to 4 (z - e1)(z + e1/2), independent of e2 and e3
    roots = (Fraction(2), -1 + eps, -1 - eps)
    q, s = gauge_polynomials(roots, GaugeMask((2, 3)), HALF, Fraction(0))
    z = Poly.variable(1, 0)
    e1 = Poly.constant(1, 2)
    assert s == z * 6 - e1 * 3
    assert q == (z - e1) * (z + Poly.constant(1, 1)) * 4


def test_simple_root_rejects_perturbed_exponent():
    roots = (Fraction(2), Fraction(-3, 4), Fraction(-5, 4))
    for mask in (GaugeMask((1,)), GaugeMask((1, 2)), GaugeMask((1, 2, 3))):
        with pytest.raises(NonCancellingPole):
            gauge_polynomials(roots, mask, Fraction(1, 3), Fraction(0))


def test_double_root_cancels_any_exponent():
    # e2 = e3 = -1 is a double root of the cubic, so the residue that
    # normally blocks exponents outside {0, 1/2 - b} vanishes identically
    roots = (Fraction(2), Fraction(-1), Fraction(-1))
    q, s = gauge_polynomials(roots, GaugeMask((2, 3)), Fraction(1, 3), Fraction(0))
    assert max(map(sum, q.terms)) == 2
    assert max(map(sum, s.terms)) >= 0


@given(rationals())
def test_zero_exponent_always_cancels(b):
    roots = (Fraction(2), Fraction(-3, 4), Fraction(-5, 4))
    for mask in (GaugeMask((2,)), GaugeMask((1, 3))):
        q, s = gauge_polynomials(roots, mask, Fraction(0), b)
        assert q == Poly.zero(1)
        assert s == Poly.zero(1)


# -- closed forms at the natural exponent ------------------------------------------


def _gauge_draws():
    """Root triples and couplings b; the last roots are over the coprime
    denominators 9 and 11 and the last b over 8, so the integer closed forms
    scale by an lcm that none of the denominators reaches alone."""
    rng = random.Random(1111)
    roots = [(Fraction(2), Fraction(-1), Fraction(-1)), (Fraction(0),) * 3]
    for _ in range(8):
        e1 = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5)))
        e2 = Fraction(rng.randint(-9, 9), rng.choice((1, 4, 7)))
        roots.append((e1, e2, -e1 - e2))
    couplings = [-HALF, Fraction(0), Fraction(1, 4), HALF, Fraction(rng.randint(-9, 9), 5)]
    for k, l in ((10, -1), (8, 8), (-13, 5)):
        e1, e2 = Fraction(k, 9), Fraction(l, 11)
        roots.append((e1, e2, -e1 - e2))
    couplings += [Fraction(-7, 8), Fraction(3, 8), Fraction(5, 8)]
    return roots, couplings


def test_closed_form_gauge_equals_the_division_at_the_natural_exponent():
    roots, couplings = _gauge_draws()
    assert [(e1.denominator, e2.denominator) for e1, e2, _ in roots[-3:]] == [(9, 11)] * 3
    assert {b.denominator for b in couplings[-3:]} == {8}
    for e, b, mask in itertools.product(roots, couplings, ALL_MASKS):
        scale, cubic, charge, scalar = _natural_gauge_polynomials(e, mask, b)
        q, s = gauge_polynomials(e, mask, HALF - b, b)
        assert (q * scale, s * scale) == (_poly(charge), _poly(scalar))
        assert weierstrass_cubic(*cubic_invariants(e)) * scale == _poly(cubic)
        assert all(type(x) is int and x for c in (cubic, charge, scalar) for x in c.values())


def test_cubic_equals_the_symmetric_function_formulas():
    roots, _ = _gauge_draws()
    for e1, e2, e3 in roots:
        g2, g3 = -4 * (e1 * e2 + e1 * e3 + e2 * e3), 4 * e1 * e2 * e3
        assert cubic_invariants((e1, e2, e3)) == (g2, g3)
        assert all(type(g) is Fraction for g in cubic_invariants((e1, e2, e3)))
        p = weierstrass_cubic(g2, g3)
        assert p == Poly(1, {(3,): 4, (1,): -g2, (0,): -g3})
        z = Poly.variable(1, 0)
        factored = Poly.constant(1, 4)
        for e in (e1, e2, e3):
            factored = factored * (z - Poly.constant(1, e))
        assert p == factored
        for shift in (Fraction(1, 99), Fraction(-1, 8), Fraction(1)):
            with pytest.raises(ValueError, match="sum to zero"):
                cubic_invariants((e1 + shift, e2, e3))


def test_closed_form_gauge_is_an_identity():
    sp = pytest.importorskip("sympy")
    z, e1, e2, b = sp.symbols("z e1 e2 b")
    e = (e1, e2, -e1 - e2)
    nu = sp.Rational(1, 2) - b
    p = 4 * (z - e[0]) * (z - e[1]) * (z - e[2])
    # (c, c') in s = c z + c' sum_{i in mask} e_i, by mask size
    table = {
        1: (2 - 8 * b**2, 1 - 4 * b**2),
        2: (6 - 8 * b - 8 * b**2, 3 - 8 * b + 4 * b**2),
        3: (12 - 24 * b, 0),
    }

    def exact_polynomial(expr):
        numer, denom = sp.fraction(sp.together(expr))
        quotient, remainder = sp.div(sp.expand(numer), sp.expand(denom), z)
        assert remainder == 0
        return quotient

    def at(terms, point):
        return Poly(1, {k: Fraction(str(c.subs(point))) for k, c in terms})

    grid = (sp.Integer(-1), sp.Rational(1, 2), sp.Integer(2))
    for mask in ALL_MASKS:
        if not mask.indices:
            continue
        lam = sum(nu / (z - e[i - 1]) for i in mask.indices)
        q = exact_polynomial(p * lam)
        s = exact_polynomial(
            p * (lam**2 + sp.diff(lam, z)) + (b + sp.Rational(1, 2)) * sp.diff(p, z) * lam
        )
        others = [sp.prod([z - e[k] for k in range(3) if k != i - 1]) for i in mask.indices]
        c, c_prime = table[mask.n_f]
        assert sp.expand(q - 4 * nu * sum(others)) == 0
        assert sp.expand(s - c * z - c_prime * sum(e[i - 1] for i in mask.indices)) == 0
        # The helper's coefficients are polynomials of degree <= 2 in each of
        # e1, e2 and b, and so are those of q and s; agreeing on a 3 x 3 x 3
        # grid therefore makes them equal identically.
        q_terms, s_terms = sp.Poly(q, z).terms(), sp.Poly(s, z).terms()
        for x1, x2, y in itertools.product(grid, repeat=3):
            point = {e1: x1, e2: x2, b: y}
            r1, r2 = Fraction(str(x1)), Fraction(str(x2))
            scale, _, charge, scalar = _natural_gauge_polynomials((r1, r2, -r1 - r2), mask,
                                                                  Fraction(str(y)))
            expected = (at(q_terms, point) * scale, at(s_terms, point) * scale)
            assert (_poly(charge), _poly(scalar)) == expected


def test_build_takes_the_closed_form_never_the_division(monkeypatch):
    # b = -1/2 makes every mask valid with the natural exponent nu = 1
    params = ModelParams(1, 0, Fraction(-1, 2), 3, (2, Fraction(-3, 4), Fraction(-5, 4)))
    division = operator.gauge_polynomials
    calls = []

    def spy(*args):
        calls.append(args)
        return division(*args)

    monkeypatch.setattr(operator, "gauge_polynomials", spy)
    for mask in list_valid_masks(params):
        op = build_gauged_operator(params, mask)
        q, s = division(params.roots, mask, 1, params.coupling_b)
        assert (_poly(op.charge), _poly(op.scalar)) == (q * op.scale, s * op.scale)
    assert calls == []


# -- operator construction ---------------------------------------------------------


def test_invalid_sector_raises():
    with pytest.raises(InvalidDegree):
        build_gauged_operator(ModelParams(2, 0, 0, 2), GaugeMask((1,)))
    with pytest.raises(InvalidDegree):
        build_gauged_operator(ModelParams(2, 0, Fraction(1, 4), 2), GaugeMask((1, 2)))


def test_forced_exponent_reaches_pole_check():
    # the sector is valid and builds at 1/2 - b, so the forced exponent 1/3
    # is what fails, in the division that decides pole cancellation
    params, mask = ModelParams(2, 0, 0, 2), GaugeMask((1, 2))
    build_gauged_operator(params, mask)
    with pytest.raises(NonCancellingPole):
        gauge_polynomials(params.roots, mask, Fraction(1, 3), params.coupling_b)


def test_cutoff_and_coupling_fields():
    op = build_gauged_operator(ModelParams(2, 1, 0, 2), GaugeMask((2, 3)))
    assert op.cutoff == 1
    # [2m + 2a(N-1) + 4b][2m + 1 + 2a(N-1) + 2b] at N=2, a=1, b=0, m=2
    assert external_field_coupling(ModelParams(2, 1, 0, 2)) == 42


def test_building_a_sector_forms_no_fraction(monkeypatch):
    # b = -1/2 makes every mask valid; a and the roots are over 3, 9, 11 and 99
    params = ModelParams(2, Fraction(2, 3), Fraction(-1, 2), 3,
                         (Fraction(5, 9), Fraction(-3, 11), Fraction(-28, 99)))
    masks = list_valid_masks(params)
    assert masks == ALL_MASKS
    for mask in masks:  # from here on `ints` and the term entries exist
        build_matrix(build_gauged_operator(params, mask))
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for mask in masks:
        build_matrix(build_gauged_operator(params, mask))
    monkeypatch.undo()
    assert made == []


_TWELFTHS = tuple(range(1, 13))


@given(st.just(Fraction(0)) | rationals(-6, 6, _TWELFTHS), rationals(-6, 6, _TWELFTHS),
       st.integers(0, 3), st.integers(0, 3), st.integers(1, 4),
       rationals(-6, 6, _TWELFTHS), rationals(-6, 6, _TWELFTHS))
def test_weights_equal_the_fraction_formulas(a, b, cutoff, n_f, nvars, e1, e2):
    # `apply` and the matrix read the same table, so neither can check it;
    # m puts the masks of size n_f at the drawn cutoff
    params = ModelParams(nvars, a, b, cutoff - n_f * (b - HALF), (e1, e2, -e1 - e2))
    m = params.degree_m
    p = weierstrass_cubic(*cubic_invariants(params.roots))
    masks = list_valid_masks(params)
    assert masks
    for mask in masks:
        q, s = gauge_polynomials(params.roots, mask, HALF - b, b)
        expected = {("V", 0): m * (12 * b + 8 * a * (nvars - 1) + 4 * m + 2)}
        for r in range(4):
            p_r, q_r = p.coefficient((r,)), q.coefficient((r,))
            expected["p", r], expected["s", r] = p_r, s.coefficient((r,))
            expected["2a.p", r], expected["2a.q", r] = 2 * a * p_r, 2 * a * q_r
            expected["drift", r] = 2 * q_r + (b + HALF) * (r + 1) * p.coefficient((r + 1,))
        d, weights = build_gauged_operator(params, mask).weights
        assert all(weights.values())
        assert {term: Fraction(w, d) for term, w in weights.items()} == {
            term: x for term, x in expected.items() if x}


# -- applying the operator ------------------------------------------------------------


def test_apply_to_constant_ungauged():
    a, b = Fraction(1, 3), Fraction(-2, 5)
    op = build_gauged_operator(ModelParams(2, a, b, 2), EMPTY)
    image = op.apply(Poly.constant(2, 1))
    coeff = 16 * a + 24 * b + 20
    assert image == Poly(2, {(1, 0): coeff})


def test_apply_to_first_elementary_ungauged():
    a, b = Fraction(1, 3), Fraction(-2, 5)
    roots = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    g2 = -4 * (roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2])
    op = build_gauged_operator(ModelParams(2, a, b, 2, roots), EMPTY)
    image = op.apply(Poly(2, {(1, 0): Fraction(1)}))
    expected = Poly(
        2,
        {
            (0, 0): g2 * (2 * a + 2 * b + 1),
            (0, 1): 8 * a + 24 * b + 12,
            (2, 0): 8 * a + 12 * b + 14,
        },
    )
    assert image == expected


def test_apply_to_constant_double_mask():
    # the gauged sector keeping root 1 unmasked sends 1 to
    # (6+4a) e1 + (14+8a) t1
    a = Fraction(1, 3)
    roots = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))
    op = build_gauged_operator(ModelParams(2, a, 0, 2, roots), GaugeMask((2, 3)))
    image = op.apply(Poly.constant(2, 1))
    expected = Poly(
        2, {(0, 0): (6 + 4 * a) * roots[0], (1, 0): 14 + 8 * a}
    )
    assert image == expected


@given(rationals(), rationals(), st.integers(1, 3))
def test_potential_coefficient_property(a, b, m):
    # for the ungauged sector the image of 1 is the potential term alone
    params = ModelParams(2, a, b, m)
    op = build_gauged_operator(params, EMPTY)
    d, weights = op.weights
    expected = Fraction(weights.get(("V", 0), 0), d)
    assert op.apply(Poly.constant(2, 1)) == Poly(2, {(1, 0): expected})
    assert expected == Fraction(m) * (12 * b + 8 * a + 4 * m + 2)
    assert expected == Fraction(*raising_ratio(params, EMPTY, 0))


@given(rationals(), rationals(), st.integers(0, 3))
def test_potential_matches_raising_at_degree_zero(a, b, m):
    params = ModelParams(2, a, b, m)
    d, weights = build_gauged_operator(params, EMPTY).weights
    assert Fraction(weights.get(("V", 0), 0), d) == Fraction(*raising_ratio(params, EMPTY, 0))


def _fraction_raising_coefficient(params, mask, degree):
    """The coefficient as a chain of Fraction operations, formed term by term."""
    a, b, m = params.coupling_a, params.coupling_b, params.degree_m
    mt = params.shifted_degree(mask)
    d = Fraction(degree)
    return -4 * (d - mt) * (
        d + m + 2 * a * (params.nvars - 1) + (3 - mask.n_f) * b + Fraction(1 + mask.n_f, 2)
    )


@given(rationals(-6, 6, tuple(range(1, 13))), rationals(-6, 6, tuple(range(1, 13))),
       rationals(0, 24, tuple(range(1, 13))), st.integers(1, 4))
def test_integer_raising_coefficient_equals_the_fraction_formula(a, b, m, nvars):
    params = ModelParams(nvars, a, b, m)
    for mask in ALL_MASKS:
        mt = params.shifted_degree(mask)
        top = int(mt) if params.sector_is_valid(mask) else 3
        for degree in [*range(top + 1), mt]:
            got = Fraction(*raising_ratio(params, mask, degree))
            assert type(got) is Fraction
            assert got == _fraction_raising_coefficient(params, mask, degree)
        assert Fraction(*raising_ratio(params, mask, mt)) == 0


def test_raising_coefficient_vanishes_at_cutoff():
    params = ModelParams(2, Fraction(1, 2), Fraction(1, 4), 3)
    assert Fraction(*raising_ratio(params, EMPTY, 3)) == 0
    assert Fraction(*raising_ratio(params, EMPTY, 2)) != 0


def test_raising_coefficient_examples():
    params = ModelParams(2, Fraction(1, 7), Fraction(2, 3), 2)
    a, b = params.coupling_a, params.coupling_b
    # ungauged degree-0 and degree-1 coefficients
    assert Fraction(*raising_ratio(params, EMPTY, 0)) == 16 * a + 24 * b + 20
    assert Fraction(*raising_ratio(params, EMPTY, 1)) == 8 * a + 12 * b + 14
    # two-root mask at b=0, degree 0
    params0 = ModelParams(2, a, 0, 2)
    assert Fraction(*raising_ratio(params0, GaugeMask((2, 3)), 0)) == 14 + 8 * a


@given(rationals(-2, 2), rationals(-2, 2))
def test_apply_is_linear(alpha, beta):
    op = build_gauged_operator(ModelParams(2, Fraction(1, 2), 0, 2), EMPTY)
    f = Poly(2, {(1, 0): Fraction(1)})
    g = Poly(2, {(0, 1): Fraction(1), (0, 0): Fraction(2)})
    combined = op.apply(f * alpha + g * beta)
    assert combined == op.apply(f) * alpha + op.apply(g) * beta


def test_one_variable_images():
    # N=1, b=0, m=2, roots (2,-1,-1): images of 1, z, z^2 derived by hand
    op = build_gauged_operator(ModelParams(1, 0, 0, 2), EMPTY)
    one = Poly.constant(1, 1)
    z = Poly.variable(1, 0)
    assert op.apply(one) == z * 20
    assert op.apply(z) == Poly(1, {(0,): Fraction(6), (2,): Fraction(14)})
    assert op.apply(z * z) == Poly(1, {(0,): Fraction(16), (1,): Fraction(36)})


# -- apply against the assembled matrix, beyond the trust gate ----------------------


ROOTS_G3 = (Fraction(2), Fraction(-1, 2), Fraction(-3, 2))  # g3 = 6


@pytest.mark.parametrize("nvars", [2, 3])
def test_every_column_equals_apply_of_its_monomial(nvars):
    # a, g3, 1/2 - b and 1/2 + b all non-zero; m puts every mask at cutoff 3
    a, b = Fraction(2, 3), Fraction(1, 3)
    for mask in ALL_MASKS:
        params = ModelParams(nvars, a, b, 3 - mask.n_f * (b - HALF), ROOTS_G3)
        assert mask in list_valid_masks(params)
        op = build_gauged_operator(params, mask)
        assert op.cutoff == 3
        mat = build_matrix(op)
        for j, exps in enumerate(mat.basis):
            column = {mat.basis[i]: row[j] for i, row in enumerate(mat.rows)}
            assert op.apply(Poly.monomial(exps)) == Poly(nvars, column)


def test_apply_on_fraction_coefficients_and_zero():
    params = ModelParams(3, Fraction(2, 3), Fraction(1, 3), Fraction(10, 3), ROOTS_G3)
    op = build_gauged_operator(params, GaugeMask((1, 3)))
    f = Poly(3, {(1, 0, 0): Fraction(1, 3), (0, 1, 0): Fraction(-2, 5), (0, 0, 1): 7})
    expected = (
        op.apply(Poly.monomial((1, 0, 0))) * Fraction(1, 3)
        + op.apply(Poly.monomial((0, 1, 0))) * Fraction(-2, 5)
        + op.apply(Poly.monomial((0, 0, 1))) * 7
    )
    assert op.apply(f) == expected
    assert op.apply(Poly.zero(3)) == Poly.zero(3)


def test_apply_keeps_its_operator_data_per_operator():
    # two sectors of one N and mask at other a, b, m and roots (over 9, 11 and 99)
    one = build_gauged_operator(ModelParams(3, Fraction(2, 3), Fraction(1, 3), Fraction(7, 3),
                                            ROOTS_G3), GaugeMask((1, 3)))
    other = build_gauged_operator(
        ModelParams(3, Fraction(-1, 5), Fraction(3, 4), Fraction(3, 2),
                    (Fraction(5, 9), Fraction(-3, 11), Fraction(-28, 99))),
        GaugeMask((1, 3)))
    f = Poly(3, {(1, 0, 0): Fraction(1, 3), (0, 1, 1): Fraction(-2, 7), (0, 0, 0): 5})

    def expected(op):
        """The images from the matrix, which never applies the operator."""
        mat = build_matrix(op)
        images = [Poly(3, dict(zip(mat.basis, (row[j] for row in mat.rows))))
                  for j in range(mat.dim)]
        combined = sum((images[mat.basis.index_of(e)] * c for e, c in f.terms.items()),
                       Poly.zero(3))
        return images, combined

    for first, second in ((one, other), (other, one)):
        images, combined = expected(first)
        for _ in range(2):  # the same operator twice, then after the other one
            assert [first.apply(Poly.monomial(e)) for e in build_matrix(first).basis] == images
            assert first.apply(f) == combined
        second.apply(f)
        assert [first.apply(Poly.monomial(e)) for e in build_matrix(first).basis] == images
        assert first.apply(f) == combined


def test_gauged_operator_stays_frozen_after_apply():
    op = build_gauged_operator(ModelParams(2, Fraction(1, 2), 0, 2), EMPTY)
    op.apply(Poly.constant(2, 1))
    names = [field.name for field in dataclasses.fields(op)]
    assert names == ["params", "mask", "cutoff", "scale", "cubic", "charge", "scalar"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, getattr(op, name))


@pytest.mark.parametrize("a", [Fraction(2, 3), 0])
def test_asymmetric_input_is_reported(monkeypatch, a):
    # with the expansion bypassed, z_1 reaches the z-space operator as it is
    op = build_gauged_operator(ModelParams(2, a, Fraction(1, 3), 2, ROOTS_G3), EMPTY)
    expand = operator.tau_to_z
    monkeypatch.setattr(operator, "tau_to_z", lambda f: f)
    with pytest.raises(NonCancellingPole if a else NotSymmetric):
        op.apply(Poly.variable(2, 0))
    # a perturbation below the leading term: the expansion of tau_1 tau_2,
    # z_1^2 z_2 + z_1 z_2^2, plus z_1
    monkeypatch.setattr(operator, "tau_to_z", lambda f: expand(f) + Poly.variable(2, 0))
    with pytest.raises(NonCancellingPole if a else NotSymmetric):
        op.apply(Poly.monomial((1, 1)))


# SHA-256 of the image of every basis monomial under `apply`, over the 24
# sectors of verify's z-space sample and the eight masks at N=4, cutoff 2.
APPLY_DIGEST = "ce92d958772193b6423d661b5b26b5ec6dd8f267b135cc3eae30da1c0af96aac"


def test_apply_images_equal_the_recorded_engine():
    ops = [op for op, _ in verify._cross_check_sample(verify._SectorStore())]
    b = Fraction(1, 3)
    for mask in ALL_MASKS:
        params = ModelParams(4, Fraction(1, 3), b, 2 - mask.n_f * (b - HALF), ROOTS_G3)
        assert mask in list_valid_masks(params)
        ops.append(build_gauged_operator(params, mask))
    assert len(ops) == 24 + 8
    digest = hashlib.sha256()
    for op in ops:
        for exps in build_matrix(op).basis:
            image = op.apply(Poly.monomial(exps))
            digest.update((repr(image.items_canonical()) + "\n").encode())
    assert digest.hexdigest() == APPLY_DIGEST


@pytest.mark.parametrize("nvars", [2, 3])
def test_apply_equals_the_z_space_formula(nvars):
    """The image of random rational tau-polynomials equals the docstring's
    z-space formula, formed with sympy's `diff` and `cancel` and compared
    after substituting the elementary symmetric polynomials for tau."""
    sp = pytest.importorskip("sympy")
    z = sp.symbols(f"z1:{nvars + 1}")
    taus = [sp.Add(*(sp.Mul(*c) for c in itertools.combinations(z, k)))
            for k in range(1, nvars + 1)]

    def rational(c):
        return sp.Rational(c.numerator, c.denominator)

    def to_sympy(poly, symbols):
        return sp.Add(*(rational(c) * sp.Mul(*(x**e for x, e in zip(symbols, exps)))
                        for exps, c in poly.terms.items()))

    x = sp.Symbol("x")
    rng = random.Random(2222 + nvars)
    for _ in range(3):
        a = Fraction(rng.choice((-5, -2, 1, 4)), rng.choice((3, 7)))
        b = Fraction(rng.randint(-4, 4), rng.choice((3, 5)))
        e1, e2 = Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 3)
        mask = rng.choice(ALL_MASKS)
        params = ModelParams(nvars, a, b, 2 - mask.n_f * (b - HALF), (e1, e2, -e1 - e2))
        op = build_gauged_operator(params, mask)
        f = Poly(nvars, {exps: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                         for exps in rng.sample(list(build_matrix(op).basis), 4)})
        big_f = to_sympy(f, taus)
        p, q, s = (sp.Add(*(sp.Rational(c, op.scale) * x**r for r, c in coeffs.items()))
                   for coeffs in (op.cubic, op.charge, op.scalar))
        drift = 2 * q + rational(b + HALF) * sp.diff(p, x)
        m = params.degree_m
        image = rational(m * (12 * b + 8 * a * (nvars - 1) + 4 * m + 2)) * taus[0] * big_f
        for zk in z:
            fk = sp.diff(big_f, zk)
            image -= (p.subs(x, zk) * sp.diff(fk, zk) + drift.subs(x, zk) * fk
                      + s.subs(x, zk) * big_f)
        for k, l in itertools.combinations(range(nvars), 2):
            zk, zl = z[k], z[l]
            numer = (p.subs(x, zk) * sp.diff(big_f, zk) - p.subs(x, zl) * sp.diff(big_f, zl)
                     + (q.subs(x, zk) - q.subs(x, zl)) * big_f)
            image -= rational(2 * a) * sp.cancel(numer / (zk - zl))
        assert sp.expand(image - to_sympy(op.apply(f), taus)) == 0
