"""Gauge conjugation and exact application of the invariant-space Hamiltonian.

The spectral problem is worked on in z-space after two transformations.  The
first yields a second-order operator whose coefficients involve the cubic
p(z) = 4z^3 - g2 z - g3:

    H f = sum_k [ -p(z_k) f_kk ] - 2a sum_{k!=l} [ p(z_k)/(z_k - z_l) ] f_k
          - (b + 1/2) sum_k p'(z_k) f_k + V f ,

with the multiplicative potential V = m (12b + 8a(N-1) + 4m + 2) tau_1.  The
second conjugates by a product of root factors (z_k - e_i)^nu over a chosen
mask of cubic roots, with common exponent nu = 1/2 - b.  Conjugation is done
analytically once per variable: with lambda(z) = sum_{i in mask} nu/(z - e_i)
the transformed operator picks up

    q(z) = p(z) * lambda(z)                                (extra drift)
    s(z) = p(z) (lambda^2 + lambda') + (b + 1/2) p'(z) lambda(z)   (scalar)

and both must be polynomials for the conjugated operator to preserve
polynomial spaces.  q always is, since every masked factor divides p.  s is a
polynomial exactly when the residue nu (nu - 1/2 + b) p'(e_i) vanishes at each
masked root, which for simple roots means nu in {0, 1/2 - b}; any other
exponent leaves a genuine pole and raises NonCancellingPole.  Every sector is
built at the natural exponent, with p, q and s in closed form, as ints over one
scale; the operator's weight table (V, the drift and the products with 2a, all
over one denominator D) is what both `apply` and the matrix assembly read.
`gauge_polynomials` performs the divisions exactly for any exponent, so pole
cancellation is decided by arithmetic rather than asserted; it is the oracle
for the closed forms, and only `verify` and the tests call it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

from .errors import NonCancellingPole, NonZeroRemainder
from .model import GaugeMask, ModelParams, cubic_invariants
from .polynomials import Exponents, Poly, weierstrass_cubic
from .symmetric import tau_to_z, z_to_tau

# A term of the operator: its kind and the power r of z in its weight (0 for V).
Term = tuple[str, int]


def raising_ratio(params: ModelParams, mask: GaugeMask, degree: int | Fraction) -> tuple[int, int]:
    """Predicted degree-raising coefficient as ints (num, den), den > 0, unreduced.

    The component of the gauged operator that raises tau-degree by one sends
    every degree-d monomial t to  coeff(d) * tau_1 * t  with

        coeff(d) = -4 (d - mt) (d + m + 2a(N-1) + (3 - n_f) b + (1 + n_f)/2) ,

    mt the sector's shifted degree cutoff.  The factor (d - mt) annihilates
    the top degree, which is what closes the operator on the finite space.
    Both factors are formed in ints, times 2 c e: `ModelParams.ints`, e = den d,
    so coeff(d) = -top rest / (c e)^2.
    """
    c, a, b, m = params.ints
    d, e = degree.as_integer_ratio()
    n_f, half, d, a, b, m = mask.n_f, c * e, 2 * c * d, 2 * e * a, 2 * e * b, 2 * e * m
    top = d - m - n_f * (b - half)
    rest = d + m + 2 * a * (params.nvars - 1) + (3 - n_f) * b + (1 + n_f) * half
    return -top * rest, half * half


def gauge_polynomials(
    roots: tuple[Fraction, Fraction, Fraction],
    mask: GaugeMask,
    exponent: Fraction,
    coupling_b: Fraction,
) -> tuple[Poly, Poly]:
    """Exact single-variable gauge polynomials (q, s) for any exponent.

    Works over the common denominator D(z) = prod_{i in mask} (z - e_i):
    lambda = A/D with A = nu * sum_i prod_{j != i} (z - e_j), so

        q = p A / D ,
        s = [ p (A^2 + A'D - AD') + (b + 1/2) p' A D ] / D^2 .

    The q division is always exact.  The s division is exact precisely when
    every pole cancels; a stall raises NonCancellingPole.  Sectors are built at
    nu = 1/2 - b from closed forms, and this division is their oracle.
    """
    g2, g3 = cubic_invariants(roots)
    p = weierstrass_cubic(g2, g3)
    dp = p.diff(0)
    if not mask.indices:
        return Poly.zero(1), Poly.zero(1)

    z = Poly.variable(1, 0)
    factors = [z - Poly.constant(1, roots[i - 1]) for i in mask.indices]
    one = Poly.constant(1, 1)
    denom = prod(factors, start=one)
    partials = (prod(factors[:i] + factors[i + 1 :], start=one) for i in range(len(factors)))
    numer_a = sum(partials, Poly.zero(1)) * exponent

    charge = (p * numer_a).divide_exact(denom)

    da = numer_a.diff(0)
    dd = denom.diff(0)
    scalar_numer = p * (numer_a * numer_a + da * denom - numer_a * dd) + (
        (coupling_b + Fraction(1, 2)) * (dp * numer_a * denom)
    )
    try:
        scalar = scalar_numer.divide_exact(denom * denom)
    except NonZeroRemainder as exc:
        raise NonCancellingPole(
            f"gauge exponent {exponent} leaves an uncancelled pole at a root of "
            f"the cubic for mask {mask}; only exponents 0 and 1/2 - b cancel"
        ) from exc
    return charge, scalar


def _natural_gauge_polynomials(
    roots: tuple[Fraction, Fraction, Fraction], mask: GaugeMask, coupling_b: Fraction
) -> tuple[int, dict[int, int], dict[int, int], dict[int, int]]:
    """U and the z-power -> int maps of U p, U q and U s at nu = 1/2 - b:

        p = 4 z^3 + 4 (e1 e2 + e1 e3 + e2 e3) z - 4 e1 e2 e3 ,
        q = 4 nu sum_{i in mask} (z^2 + e_i z + e_j e_k) ,   {i, j, k} = {1, 2, 3}
        s = 4 nu n_f (2 + nu (n_f - 3)) z + 4 nu (1 + nu (2 n_f - 3)) S ,

    S = sum_{i in mask} e_i.  q is p lambda with the roots summing to zero; s has
    degree <= 1, so it is the polynomial part of its expansion at z -> infinity.
    With u the lcm of the denominators of 2b and the roots, the roots times u
    and w = 2 nu u are ints, and U = u^3 clears every denominator; zeros are
    left out of the maps.
    """
    b = coupling_b
    u = lcm(b.denominator // gcd(2, b.denominator), *(x.denominator for x in roots))
    w = u - 2 * b.numerator * u // b.denominator
    e = [x.numerator * (u // x.denominator) for x in roots]
    n_f, total = mask.n_f, sum(e[i - 1] for i in mask.indices)
    pairs = sum(e[i % 3] * e[(i + 1) % 3] for i in mask.indices)
    cubic = {3: 4 * u**3, 1: 4 * u * (e[0] * e[1] + e[0] * e[2] + e[1] * e[2]), 0: -4 * prod(e)}
    charge = {2: 2 * w * n_f * u * u, 1: 2 * w * total * u, 0: 2 * w * pairs}
    scalar = {1: w * n_f * u * (4 * u + w * (n_f - 3)), 0: w * (2 * u + w * (2 * n_f - 3)) * total}
    return u**3, *({r: x for r, x in coeffs.items() if x} for coeffs in (cubic, charge, scalar))


def _pair_quotient(numer: dict[Exponents, int], k: int, l: int) -> dict[Exponents, int]:
    """numer / (z_k - z_l), by synthetic division in z_k.

    Terms are taken by descending power of z_k: each c z^alpha with alpha_k >= 1
    puts c z^(alpha - e_k) into the quotient and adds c z^(alpha - e_k + e_l)
    to the terms one power lower.  What is left at power 0 is the remainder,
    the numerator at z_k = z_l; if it is not zero NonCancellingPole is raised.
    """
    by_power: dict[int, dict[Exponents, int]] = {}
    for exps, c in numer.items():
        by_power.setdefault(exps[k], {})[exps] = c
    quotient: dict[Exponents, int] = {}
    for power in range(max(by_power, default=0), 0, -1):
        lower = by_power.setdefault(power - 1, {})
        for exps, c in by_power[power].items():
            if c:
                shifted = list(exps)
                shifted[k] -= 1
                quotient[tuple(shifted)] = c
                shifted[l] += 1
                key = tuple(shifted)
                lower[key] = lower.get(key, 0) + c
    if any(by_power.get(0, {}).values()):
        raise NonCancellingPole(f"pair term for variables {k + 1}, {l + 1} is not a "
                                "polynomial; the input is not symmetric")
    return quotient


def _shifted(terms: dict[Exponents, int], k: int, weights: list[tuple[int, int, int, int]],
             out: dict[Exponents, int]) -> None:
    """Add c w(alpha_k) z^(alpha + t e_k) to out for every term c z^alpha and
    every (t, x, y, w0) in weights, where w(e) = (x (e - 1) + y) e + w0."""
    for exps, c in terms.items():
        e = exps[k]
        head, tail = exps[:k], exps[k + 1 :]
        for t, x, y, w0 in weights:
            if w := (x * (e - 1) + y) * e + w0:
                key = head + (e + t,) + tail
                out[key] = out.get(key, 0) + c * w


@dataclass(frozen=True, eq=False)
class GaugedOperator:
    """One algebraised sector: exact operator data, ready to apply.

    The sector's data is held once, in ints: a scale U and the z-power -> int
    maps of U p, U q and U s (the cubic, the gauge charge and the gauge
    scalar).  `weights` combines them with `ModelParams.ints` into the one
    weight table that `apply` and `matrices.build_matrix` both read.
    """

    params: ModelParams
    mask: GaugeMask
    cutoff: int
    scale: int
    cubic: dict[int, int]
    charge: dict[int, int]
    scalar: dict[int, int]

    @property
    def nvars(self) -> int:
        return self.params.nvars

    @cached_property
    def weights(self) -> tuple[int, dict[Term, int]]:
        """D and the non-zero D c_j of each term of the operator.

        The weights c_j are V = m (12b + 8a(N-1) + 4m + 2) and, per power r of
        z, p_r, s_r, 2a p_r, 2a q_r and drift_r, with drift = 2q + (b + 1/2) p'.
        With a, b, m = A, B, M over c (`ModelParams.ints`) and p, q, s over U,
        each is an integer over 2 U c^2, e.g. V = M (12B + 8A(N-1) + 4M + 2c)
        / c^2; the gcd leaves D, the lcm of the weights' denominators.
        """
        c, a, b, m = self.params.ints
        u, p, q = self.scale, self.cubic, self.charge
        one, two_a = 2 * c * c, 4 * a * c
        weights = {("V", 0): 2 * u * m * (12 * b + 8 * a * (self.nvars - 1) + 4 * m + 2 * c)}
        for kind, coeffs, f in (("s", self.scalar, one), ("2a.q", q, two_a), ("2a.p", p, two_a),
                                ("p", p, one)):
            weights.update(((kind, r), f * x) for r, x in coeffs.items())
        for r in range(3):  # the drift has degree 2
            weights["drift", r] = (2 * one * q.get(r, 0)
                                   + (2 * b + c) * c * (r + 1) * p.get(r + 1, 0))
        g = gcd(u * one, *weights.values())
        return u * one // g, {term: w // g for term, w in weights.items() if w}

    def apply(self, f: Poly) -> Poly:
        """Exact image of a tau-space polynomial under the gauged operator.

        The input is expanded to z-space, transported through

            sum_k [ -p_k F_kk - (2 q_k + (b + 1/2) p'_k) F_k - s_k F ]
            - 2a sum_{k<l} [ (p_k F_k - p_l F_l) + (q_k - q_l) F ] / (z_k - z_l)
            + V F ,

        and reduced back to the tau basis.  Each term of F puts its images
        straight into one result map, with no intermediate polynomial; a pair
        numerator is the difference of the maps of 2a (p_k F_k + q_k F) and
        2a (p_l F_l + q_l F), and its quotient a synthetic division in z_k
        (`_pair_quotient`).  For symmetric F the remainder is identically zero
        (the numerators are antisymmetric in z_k, z_l), so a non-zero
        remainder, or a stall in the final reduction, reports NonCancellingPole
        or NotSymmetric respectively: the input or engine broke an invariant.

        It runs in integer arithmetic on the weight table D c_j (`weights`):
        with f_s the lcm of the denominators of f, the image of f_s f scaled
        by D has integer coefficients (every divisor is monic), and it is
        divided by D f_s once, after the reduction.
        """
        n = self.nvars
        if f.nvars != n:
            raise ValueError(f"polynomial has {f.nvars} variables, operator expects {n}")
        scale, table = self.weights
        f_scale = lcm(*(c.denominator for c in f.terms.values()))
        big_f = tau_to_z(f * f_scale).terms

        # z_k^e goes to w(e) z_k^(e+t), w(e) = -p_(t+2) e(e-1) - drift_(t+1) e
        # - s_t, plus V at t = 1; p has degree 3, the drift and q degree 2 and s
        # degree <= 1, and every w vanishes where e + t < 0
        single = [(t, -table.get(("p", t + 2), 0), -table.get(("drift", t + 1), 0),
                   table.get(("V", 0), 0) * (t == 1) - table.get(("s", t), 0))
                  for t in range(-2, 2)]
        out: dict[Exponents, int] = {}
        for k in range(n):
            _shifted(big_f, k, single, out)

        if self.params.coupling_a:
            # 2a (p_k F_k + q_k F): z_k^e goes to (2a p_(t+1) e + 2a q_t) z_k^(e+t)
            pair = [(t, 0, table.get(("2a.p", t + 1), 0), table.get(("2a.q", t), 0))
                    for t in range(-1, 3)]
            parts: list[dict[Exponents, int]] = [{} for _ in range(n)]
            for k, part in enumerate(parts):
                _shifted(big_f, k, pair, part)
            for k, l in combinations(range(n), 2):
                numer = dict(parts[k])
                for exps, c in parts[l].items():
                    numer[exps] = numer.get(exps, 0) - c
                for exps, c in _pair_quotient(numer, k, l).items():
                    out[exps] = out.get(exps, 0) - c
        return z_to_tau(Poly(n, out)) * Fraction(1, scale * f_scale)


def build_gauged_operator(params: ModelParams, mask: GaugeMask) -> GaugedOperator:
    """Construct the exact gauged operator for one mask.

    The gauge exponent is the natural nu = 1/2 - b, at which the poles of
    every mask cancel, so q and s take their closed forms, formed in ints
    with the cubic.  Raises InvalidDegree unless the sector's shifted cutoff
    is a non-negative integer.
    """
    cutoff = params.cutoff(mask)
    scale, cubic, charge, scalar = _natural_gauge_polynomials(params.roots, mask,
                                                              params.coupling_b)
    return GaugedOperator(params, mask, cutoff, scale, cubic, charge, scalar)
