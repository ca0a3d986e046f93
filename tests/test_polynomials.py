"""Exact multivariate polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elliptic_qes.errors import NonZeroRemainder
from elliptic_qes.polynomials import (
    Poly,
    format_rational,
    grlex_key,
    listing_key,
    parse_rational,
    weierstrass_cubic,
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
    p = weierstrass_cubic(Fraction(12), Fraction(8))
    p1, p2 = p.lift(2, 0), p.lift(2, 1)
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    quotient = (p1 - p2).divide_exact(z1 - z2)
    expected = (z1 * z1 + z1 * z2 + z2 * z2) * Fraction(4) - Poly.constant(2, 12)
    assert quotient == expected


# -- the cubic ---------------------------------------------------------------------


def test_weierstrass_cubic_matches_factored_form():
    # roots (2, -1, -1) give g2 = 12, g3 = 8
    p = weierstrass_cubic(Fraction(12), Fraction(8))
    z = Poly.variable(1, 0)
    factored = (z - Poly.constant(1, 2)) * (z + Poly.constant(1, 1)) ** 2 * Fraction(4)
    assert p == factored
    assert p.coefficient((3,)) == 4
    assert p.coefficient((2,)) == 0


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
    assert parse_rational(format_rational(x)) == x


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
        assert p.total_degree() == -1
        return
    exps, coeff = p.leading()
    assert coeff != 0
    assert sum(exps) == p.total_degree()


@given(polys(nvars=1), points(nvars=3))
def test_lift_preserves_evaluation(p, x):
    lifted = p.lift(3, 2)
    assert lifted.nvars == 3
    assert lifted.evaluate(x) == p.evaluate((x[2],))


def test_lift_rejects_multivariate():
    with pytest.raises(ValueError):
        Poly.variable(2, 0).lift(3, 0)


def test_lift_example():
    z = Poly.variable(1, 0)
    p = z * z + Poly.constant(1, 5)
    lifted = p.lift(3, 1)
    z2 = Poly.variable(3, 1)
    assert lifted == z2 * z2 + Poly.constant(3, 5)
