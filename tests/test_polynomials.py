"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elliptic_qes.errors import NonZeroRemainder
from elliptic_qes.polynomials import (
    Poly,
    grlex_key,
    listing_key,
    parse_rational,
)


def fractions_(lo: int = -4, hi: int = 4, dens: tuple[int, ...] = (1, 2, 3)):
    return st.builds(Fraction, st.integers(lo, hi), st.sampled_from(dens))


@st.composite
def polys(draw, nvars: int = 2, max_deg: int = 3, max_terms: int = 4):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_deg)] * nvars),
            fractions_(),
            max_size=max_terms,
        )
    )
    return Poly(nvars, terms)


@st.composite
def points(draw, nvars: int = 2):
    return tuple(draw(fractions_(-3, 3, (1, 2))) for _ in range(nvars))


# -- ring axioms -------------------------------------------------------------


@given(polys(), polys())
def test_addition_commutes(p, q):
    assert p + q == q + p


@given(polys(), polys(), polys())
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys())
def test_zero_is_additive_identity(p):
    assert p + Poly.zero(2) == p
    assert p - p == Poly.zero(2)
    assert not (p - p)


@given(polys(), polys())
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@given(polys(), polys(), polys())
def test_multiplication_associates_and_distributes(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys())
def test_one_is_multiplicative_identity(p):
    assert p * Poly.constant(2, 1) == p
    assert p * Fraction(1) == p


@given(polys(), st.integers(0, 4))
def test_power_is_repeated_multiplication(p, k):
    expected = Poly.constant(2, 1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


# -- calculus and evaluation ---------------------------------------------------


@given(polys(), polys(), st.integers(0, 1))
def test_derivative_satisfies_product_rule(p, q, k):
    assert (p * q).diff(k) == p.diff(k) * q + p * q.diff(k)


@given(polys(), polys(), points())
def test_evaluation_is_a_ring_homomorphism(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_evaluate_example():
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    p = z1 * z1 + z2 * Fraction(3)
    assert p.evaluate((Fraction(2), Fraction(-1))) == 1


# -- exact division --------------------------------------------------------------


@given(polys(), polys())
def test_exact_division_inverts_multiplication(p, q):
    if not q:
        return
    assert (p * q).divide_exact(q) == p


def test_division_stall_raises():
    z1 = Poly.variable(2, 0)
    with pytest.raises(NonZeroRemainder):
        (z1 + Poly.constant(2, 1)).divide_exact(z1)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Poly.constant(2, 1).divide_exact(Poly.zero(2))


def test_cubic_difference_quotient():
    # (p(z1) - p(z2)) / (z1 - z2) for the cubic with g2=12, g3=8
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    p1, p2 = (z * z * z * 4 - z * 12 - Poly.constant(2, 8) for z in (z1, z2))
    quotient = (p1 - p2).divide_exact(z1 - z2)
    expected = (z1 * z1 + z1 * z2 + z2 * z2) * Fraction(4) - Poly.constant(2, 12)
    assert quotient == expected


# -- parsing and formatting ----------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("3/4", Fraction(3, 4)),
        ("-1/2", Fraction(-1, 2)),
        ("0.25", Fraction(1, 4)),
        ("2", Fraction(2)),
        ("-3", Fraction(-3)),
        ("1.5", Fraction(3, 2)),
    ],
)
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["x", "1/0", "", "1/2/3"])
def test_parse_rational_rejects_garbage(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        parse_rational(text)


@given(fractions_(-20, 20, (1, 2, 3, 7)))
def test_format_parse_round_trip(x):
    assert parse_rational(str(x)) == x


# -- orderings and views ----------------------------------------------------------------


def test_monomial_orderings():
    # graded orders: total degree first
    assert grlex_key((0, 2)) < grlex_key((3, 0))
    # within a degree, the listing order puts higher leading exponents first
    degree_two = sorted([(0, 2), (1, 1), (2, 0)], key=listing_key)
    assert degree_two == [(2, 0), (1, 1), (0, 2)]


@given(polys())
def test_total_degree_and_leading(p):
    if not p:
        return
    exps, coeff = p.leading()
    assert coeff != 0
    assert sum(exps) == max(map(sum, p.terms))


# -- the coefficient contract: exact rationals, int where integral, never float ---------


def int_polys(nvars: int = 2, max_deg: int = 3, max_terms: int = 4):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_deg)] * nvars), st.integers(-5, 5), max_size=max_terms
    ).map(lambda terms: Poly(nvars, terms))


def all_int(p: Poly) -> bool:
    return all(type(c) is int for c in p.terms.values())


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Poly(1, {(1,): 0.1})
    with pytest.raises(TypeError):
        Poly.constant(1, 0.5)
    with pytest.raises(TypeError):
        Poly.monomial((1,), 0.5)
    z = Poly.variable(1, 0)
    with pytest.raises(TypeError):
        z * 0.25
    with pytest.raises(TypeError):
        0.25 * z
    with pytest.raises(TypeError):
        z.evaluate((0.5,))


def test_integral_coefficients_are_stored_as_int():
    p = Poly(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3), (0, 0): 5})
    assert p.terms == {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): 5}
    assert type(p.coefficient((1, 0))) is int
    assert p == Poly(2, {(1, 0): 2, (0, 1): Fraction(1, 3), (0, 0): Fraction(5)})
    assert all_int(p * 3)
    assert all_int(Poly(1, {(1,): Fraction(1, 2)}) * 2)
    assert all_int(Poly(1, {(1,): Fraction(1, 2)}) + Poly(1, {(1,): Fraction(1, 2)}))
    assert all_int(Poly.constant(2, Fraction(6, 3)))


@given(polys())
def test_equal_across_int_and_fraction_representations(p):
    as_fractions = Poly._wrap(2, {e: Fraction(c) for e, c in p.terms.items()})
    assert as_fractions == p
    assert Poly(2, as_fractions.terms).terms == p.terms


@given(int_polys(), int_polys(), st.integers(0, 1))
def test_integer_inputs_stay_int(p, q, k):
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    for result in (p + q, p - q, p * q, p * 3, p.diff(k), (p * (z1 - z2)).divide_exact(z1 - z2)):
        assert all_int(result)


@given(polys(), polys())
def test_no_operation_yields_a_float(p, q):
    for result in (p + q, p - q, p * q, p * Fraction(2, 3), p.diff(0)):
        assert all(isinstance(c, (int, Fraction)) for c in result.terms.values())


def test_non_monic_division_is_exact():
    z = Poly.variable(1, 0)
    r = Poly(1, {(2,): Fraction(1, 3), (1,): Fraction(-5, 7), (0,): 2})
    divisor = z * 2 + Poly.constant(1, 1)
    assert (divisor * r).divide_exact(divisor) == r
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    r2 = Poly(2, {(1, 1): Fraction(3, 4), (0, 2): Fraction(-1, 6), (1, 0): 1})
    divisor2 = x * 2 + y * Fraction(1, 3) + Poly.constant(2, 1)
    assert (divisor2 * r2).divide_exact(divisor2) == r2


def _random_poly(rng, nvars: int, max_deg: int, terms: int, dens=(1,)) -> Poly:
    out = {}
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        out[exps] = Fraction(rng.randint(-6, 6), rng.choice(dens))
    return Poly(nvars, out)


def _to_sympy(sp, p: Poly, gens):
    return sum((sp.Rational(c.numerator, c.denominator) * sp.prod([g**e for g, e in zip(gens, exps)])
                for exps, c in p.terms.items()), sp.Integer(0))


@pytest.mark.parametrize("nvars", [2, 3])
def test_division_agrees_with_sympy(nvars):
    sp = pytest.importorskip("sympy")
    import random

    rng = random.Random(1200 + nvars)
    gens = sp.symbols(f"x1:{nvars + 1}")
    for _ in range(15):
        q = _random_poly(rng, nvars, 3, 5, dens=(1, 2, 3))
        d = _random_poly(rng, nvars, 2, 3)
        if not d:
            continue
        noise = _random_poly(rng, nvars, 2, 2, dens=(1, 5))
        for dividend in (q * d, q * d + noise):
            quot, rem = sp.div(_to_sympy(sp, dividend, gens), _to_sympy(sp, d, gens), *gens)
            if rem == 0:
                assert sp.expand(_to_sympy(sp, dividend.divide_exact(d), gens) - quot) == 0
            else:
                with pytest.raises(NonZeroRemainder):
                    dividend.divide_exact(d)
