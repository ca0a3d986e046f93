"""Symmetric-polynomial bases and the two changes of variables."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from elliptic_qes.errors import NotSymmetric
from elliptic_qes.polynomials import Poly, listing_key
from elliptic_qes.symmetric import (
    BITS,
    elementary_symmetric,
    enumerate_basis,
    pack,
    structure_sums,
    tau_to_z,
    unpack,
    z_to_tau,
)


@st.composite
def tau_polys(draw, nvars: int = 2, max_deg: int = 3):
    """Random polynomial in the elementary-symmetric variables."""
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        while True:
            exps = tuple(draw(st.integers(0, max_deg)) for _ in range(nvars))
            if sum(exps) <= max_deg:
                break
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2, 3))))
        terms[exps] = terms.get(exps, Fraction(0)) + coeff
    return Poly(nvars, terms)


# -- basis enumeration ---------------------------------------------------------


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("cutoff", [0, 1, 2, 3, 4, 5])
def test_basis_count_is_binomial(nvars, cutoff):
    assert len(enumerate_basis(nvars, cutoff)) == comb(nvars + cutoff, nvars)


def test_basis_canonical_order():
    basis = enumerate_basis(2, 2)
    assert list(basis) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # brute force: every exponent tuple of sum <= d, sorted by the listing key
    for nvars in range(1, 7):
        for cutoff in range(6):
            tuples = (e for e in product(range(cutoff + 1), repeat=nvars) if sum(e) <= cutoff)
            expected = tuple(sorted(tuples, key=listing_key))
            assert enumerate_basis(nvars, cutoff).monomials == expected
    assert len(enumerate_basis(32, 1)) == 33
    assert len(enumerate_basis(16, 2)) == comb(18, 2) == 153


def test_basis_lookup():
    basis = enumerate_basis(2, 2)
    assert basis.index_of((1, 1)) == 4
    assert (2, 0) in basis
    assert (3, 0) not in basis
    with pytest.raises(KeyError):
        basis.index_of((3, 0))


# Tuples outside the N=2 basis whose 32-bit packed codes are those of basis
# monomials: 2**32 overflows into tau_2's field, and a third exponent of 0
# adds nothing to tau_1's code.
@pytest.mark.parametrize(
    ("alias", "monomial"),
    [((2**32, 0), (0, 1)), ((1, 0, 0), (1, 0)), ((2**32 + 1, 0), (1, 1)), ((0,), (0, 0))],
)
def test_basis_lookup_confirms_a_packed_code_against_the_monomial(alias, monomial):
    basis = enumerate_basis(2, 2)
    assert monomial in basis
    assert alias not in basis
    with pytest.raises(KeyError):
        basis.index_of(alias)


@pytest.mark.parametrize("outside", [(-1, 1), (0, -1), (2**32, 0), (0, 2**32), (2**40, 1)])
def test_basis_lookup_refuses_an_exponent_that_has_no_32_bit_word(outside):
    basis = enumerate_basis(2, 2)
    assert outside not in basis
    with pytest.raises(KeyError):
        basis.index_of(outside)


def test_packed_codes_are_the_shifted_sums_of_the_exponents():
    """`pack` writes each exponent in [0, 2**32) as one 32-bit field, low
    field first, and `unpack` reads the fields back."""
    rng = random.Random(32)
    cases = [(), (0,), (2**32 - 1,), (1, 0, 2**32 - 1), tuple(range(32))]
    cases += [tuple(rng.randrange(2**32) for _ in range(rng.randint(1, 33))) for _ in range(50)]
    for exps in cases:
        code = pack(exps)
        assert code == sum(e << (BITS * k) for k, e in enumerate(exps))
        assert unpack(code, len(exps)) == exps


# -- elementary symmetric polynomials ---------------------------------------------


def test_elementary_symmetric_three_variables():
    z1, z2, z3 = (Poly.variable(3, k) for k in range(3))
    assert elementary_symmetric(3, 1) == z1 + z2 + z3
    assert elementary_symmetric(3, 2) == z1 * z2 + z1 * z3 + z2 * z3
    assert elementary_symmetric(3, 3) == z1 * z2 * z3
    assert elementary_symmetric(3, 0) == Poly.constant(3, 1)


# -- changes of variables ----------------------------------------------------------------


def test_power_sum_in_elementary_basis():
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    tau = z_to_tau(z1 * z1 + z2 * z2)
    # z1^2 + z2^2 = t1^2 - 2 t2
    assert tau == Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(-2)})


def test_z_to_tau_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        z_to_tau(Poly.variable(2, 0))


# Each input breaks symmetry in one way that the one-pass test must see:
@pytest.mark.parametrize(
    ("nvars", "terms"),
    [
        (2, {(2, 1): 1, (1, 2): 2}),  # a differing coefficient inside an orbit
        (2, {(2, 1): 1}),  # an incomplete orbit whose only term is dominant
        (3, {(2, 0, 0): 1, (1, 1, 0): 5, (1, 0, 1): 5}),  # (0, 1, 1) missing
        (2, {(1, 2): 1}),  # a lone non-dominant term
        (3, {(0, 0, 1): 1, (1, 1, 1): 2}),  # one beside a complete orbit
    ],
    ids=["differing-coefficient", "incomplete-dominant-orbit", "incomplete-orbit-n3",
         "lone-non-dominant", "non-dominant-beside-an-orbit"],
)
def test_z_to_tau_rejects_each_kind_of_asymmetry(nvars, terms):
    with pytest.raises(NotSymmetric):
        z_to_tau(Poly(nvars, terms))


def _full_reduction(p: Poly) -> Poly:
    """Leading-term reduction over every term, as z_to_tau once ran: a
    non-dominant leading monomial raises NotSymmetric, and its coefficient
    times the whole expansion of the matching tau-monomial is subtracted."""
    n, tau_terms = p.nvars, {}
    while p:
        exps, coeff = p.leading()
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise NotSymmetric(f"leading monomial z^{exps}")
        tau_exps = tuple(exps[i] - (exps[i + 1] if i + 1 < n else 0) for i in range(n))
        tau_terms[tau_exps] = coeff
        p = p - coeff * tau_to_z(Poly.monomial(tau_exps))
    return Poly(n, tau_terms)


@st.composite
def near_symmetric(draw):
    """tau_to_z of a random tau-polynomial in 1..4 variables, plus at most two
    random z-space terms, which mostly break its symmetry."""
    nvars = draw(st.integers(1, 4))
    t = draw(tau_polys(nvars=nvars, max_deg=3 if nvars < 4 else 2))
    extra = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                                 st.integers(-3, 3), max_size=2))
    return tau_to_z(t) + Poly(nvars, extra)


@given(near_symmetric())
def test_dominant_reduction_equals_the_full_reduction(p):
    try:
        expected = _full_reduction(p)
    except NotSymmetric:
        with pytest.raises(NotSymmetric):
            z_to_tau(p)
    else:
        assert z_to_tau(p) == expected


@given(tau_polys(nvars=2))
def test_round_trip_two_variables(t):
    assert z_to_tau(tau_to_z(t)) == t


@given(tau_polys(nvars=3, max_deg=2))
def test_round_trip_three_variables(t):
    assert z_to_tau(tau_to_z(t)) == t


def test_expansion_example():
    # t2 in two variables is z1 z2; t1*t2 is (z1+z2) z1 z2
    z1, z2 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert tau_to_z(Poly(2, {(0, 1): Fraction(1)})) == z1 * z2
    assert tau_to_z(Poly(2, {(1, 1): Fraction(1)})) == (z1 + z2) * z1 * z2


# -- structure sums of the gauged operator ----------------------------------------


def subset_sum(nvars: int, size: int, others: list[int]) -> Poly:
    """Elementary symmetric polynomial of degree ``size`` in the given variables."""
    terms = {}
    for subset in combinations(others, size):
        terms[tuple(int(i in subset) for i in range(nvars))] = Fraction(1)
    return Poly(nvars, terms)


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_structure_sums_match_z_space(nvars, r):
    sums = structure_sums(nvars)
    z = [Poly.variable(nvars, k) for k in range(nvars)]
    zr = [zk**r for zk in z]
    pairs = list(combinations(range(nvars), 2))
    # sigma[k][j]: elementary symmetric polynomial of degree j without z_k
    sigma = [
        [subset_sum(nvars, j, [i for i in range(nvars) if i != k]) for j in range(nvars)]
        for k in range(nvars)
    ]

    def total(polys) -> Poly:
        return sum(polys, Poly.zero(nvars))

    assert tau_to_z(sums.P[r]) == total(zr)
    assert tau_to_z(sums.D[r]) == total(
        (zr[k] - zr[l]).divide_exact(z[k] - z[l]) for k, l in pairs
    )
    for j in range(nvars):
        assert tau_to_z(sums.T[r][j]) == total(zr[k] * sigma[k][j] for k in range(nvars))
        assert tau_to_z(sums.E[r][j]) == total(
            (zr[k] * sigma[k][j] - zr[l] * sigma[l][j]).divide_exact(z[k] - z[l])
            for k, l in pairs
        )
        for i in range(nvars):
            assert tau_to_z(sums.Q[r][i][j]) == total(
                zr[k] * sigma[k][i] * sigma[k][j] for k in range(nvars)
            )
    entries = [sums.P[r], sums.D[r], *sums.T[r], *sums.E[r]]
    entries += [q for row in sums.Q[r] for q in row]
    assert all(c.denominator == 1 for p in entries for c in p.terms.values())


def elementary_values(values: list[Fraction]) -> list[Fraction]:
    """Coefficients e_0..e_n of prod (1 + x t) over n given values."""
    e = [Fraction(1)]
    for x in values:
        e = [a + x * b for a, b in zip(e + [0], [0] + e)]
    return e


@pytest.mark.parametrize("nvars", [1, 2, 7, 12, 16])
def test_structure_sums_match_direct_sums_at_rational_points(nvars):
    # the z-space expansion above stops at N = 5; here every entry is
    # evaluated at tau(z) and compared with the sum over sigma^k_j(z) itself
    sums = structure_sums(nvars)
    rng = random.Random(1600 + nvars)
    for _ in range(2):
        z = []
        while len(z) < nvars:
            x = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
            if x not in z:
                z.append(x)
        tau = elementary_values(z)[1:]
        sigma = [elementary_values(z[:k] + z[k + 1 :]) for k in range(nvars)]
        pairs = list(combinations(range(nvars), 2))
        for r in range(4):
            assert sums.P[r].evaluate(tau) == sum(zk**r for zk in z)
            assert sums.D[r].evaluate(tau) == sum(
                (z[k] ** r - z[l] ** r) / (z[k] - z[l]) for k, l in pairs
            )
            for j in range(nvars):
                assert sums.T[r][j].evaluate(tau) == sum(
                    z[k] ** r * sigma[k][j] for k in range(nvars)
                )
                assert sums.E[r][j].evaluate(tau) == sum(
                    (z[k] ** r * sigma[k][j] - z[l] ** r * sigma[l][j]) / (z[k] - z[l])
                    for k, l in pairs
                )
                for i in range(nvars):
                    assert sums.Q[r][i][j].evaluate(tau) == sum(
                        z[k] ** r * sigma[k][i] * sigma[k][j] for k in range(nvars)
                    )


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5, 6])
def test_structure_sums_are_stored_as_int(nvars):
    # matrix assembly reads these maps directly and stays in int arithmetic
    def coefficients(x):
        if isinstance(x, Poly):
            yield from x.terms.values()
        else:
            for y in x:
                yield from coefficients(y)

    values = list(coefficients(structure_sums(nvars)))
    assert values and all(type(c) is int for c in values)


# -- the coefficient contract --------------------------------------------------------------


@given(tau_polys(nvars=3, max_deg=2))
def test_conversions_keep_integer_coefficients_int(t):
    integral = t * lcm(*(c.denominator for c in t.terms.values()))
    for p in (tau_to_z(integral), z_to_tau(tau_to_z(integral))):
        assert all(type(c) is int for c in p.terms.values())
    for p in (tau_to_z(t), z_to_tau(tau_to_z(t))):
        assert all(isinstance(c, (int, Fraction)) for c in p.terms.values())


@pytest.mark.parametrize("nvars", [2, 3])
def test_z_to_tau_agrees_with_sympy_symmetrize(nvars):
    sp = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    rng = random.Random(1300 + nvars)
    zs = sp.symbols(f"z1:{nvars + 1}")
    taus = sp.symbols(f"t1:{nvars + 1}")
    for _ in range(10):
        terms = {}
        for _ in range(4):
            exps = tuple(rng.randint(0, 2) for _ in range(nvars))
            terms[exps] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        z_poly = tau_to_z(Poly(nvars, terms))
        expr = sum(
            sp.Rational(c.numerator, c.denominator) * sp.prod([z**e for z, e in zip(zs, exps)])
            for exps, c in z_poly.terms.items()
        )
        sym, rest, subs = symmetrize(expr, *zs, formal=True)
        assert rest == 0
        expected = sp.expand(sym.subs({s: taus[int(str(s)[1:]) - 1] for s, _ in subs}))
        got = sum(
            sp.Rational(c.numerator, c.denominator) * sp.prod([t**e for t, e in zip(taus, exps)])
            for exps, c in z_to_tau(z_poly).terms.items()
        )
        assert sp.expand(got - expected) == 0
