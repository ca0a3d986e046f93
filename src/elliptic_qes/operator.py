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
exponent leaves a genuine pole and raises NonCancellingPole.  Sectors at the
natural exponent take q and s in closed form; `gauge_polynomials` performs the
divisions exactly for any exponent, so pole cancellation is decided by
arithmetic rather than asserted, and it is the oracle for the closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm, prod

from .errors import InvalidDegree, NonCancellingPole, NonZeroRemainder
from .model import GaugeMask, ModelParams, cubic_invariants
from .polynomials import Poly, weierstrass_cubic
from .symmetric import elementary_symmetric, tau_to_z, z_to_tau

_HALF = Fraction(1, 2)


def potential_coefficient(params: ModelParams) -> Fraction:
    """Coefficient of tau_1 in the multiplicative potential term.

    Equals m (12b + 8a(N-1) + 4m + 2); it is part of the operator itself and
    does not change under gauge conjugation, so all masked sectors share it.
    """
    a, b, m = params.coupling_a, params.coupling_b, params.degree_m
    return m * (12 * b + 8 * a * (params.nvars - 1) + 4 * m + 2)


def raising_coefficient(params: ModelParams, mask: GaugeMask, degree: int | Fraction) -> Fraction:
    """Predicted degree-raising coefficient at the given tau-degree.

    The component of the gauged operator that raises tau-degree by one sends
    every degree-d monomial t to  coeff(d) * tau_1 * t  with

        coeff(d) = -4 (d - mt) (d + m + 2a(N-1) + (3 - n_f) b + (1 + n_f)/2) ,

    mt the sector's shifted degree cutoff.  The factor (d - mt) annihilates
    the top degree, which is what closes the operator on the finite space.
    Both factors are formed in ints, times c = 2 lcm(denominators of a, b, m, d).
    """
    xs = (params.coupling_a, params.coupling_b, params.degree_m, Fraction(degree))
    c = 2 * lcm(*(x.denominator for x in xs))
    a, b, m, d = (x.numerator * (c // x.denominator) for x in xs)
    n_f, half = mask.n_f, c // 2
    top = d - m - n_f * (b - half)
    rest = d + m + 2 * a * (params.nvars - 1) + (3 - n_f) * b + (1 + n_f) * half
    return Fraction(-4 * top * rest, c * c)


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
    every pole cancels; a stall raises NonCancellingPole.  Sectors at nu = 1/2 - b
    use closed forms, with this division as their oracle.
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
        (coupling_b + _HALF) * (dp * numer_a * denom)
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
) -> tuple[Poly, Poly]:
    """(q, s) at the natural exponent nu = 1/2 - b, in closed form:

        q = 4 nu sum_{i in mask} (z^2 + e_i z + e_j e_k) ,   {i, j, k} = {1, 2, 3}
        s = 4 nu n_f (2 + nu (n_f - 3)) z + 4 nu (1 + nu (2 n_f - 3)) S ,

    S = sum_{i in mask} e_i.  q is p lambda with the roots summing to zero; s has
    degree <= 1, so it is the polynomial part of its expansion at z -> infinity.
    The sums are formed in ints, with nu and the roots times u = lcm of the
    denominators of 2b and the roots, and each coefficient is one Fraction.
    """
    u = lcm(2 * coupling_b.denominator, *(e.denominator for e in roots))
    nu = u // 2 - coupling_b.numerator * (u // coupling_b.denominator)
    e = [x.numerator * (u // x.denominator) for x in roots]
    n_f, total = mask.n_f, sum(e[i - 1] for i in mask.indices)
    pairs = sum(e[i % 3] * e[(i + 1) % 3] for i in mask.indices)
    charge = Poly(1, {(2,): Fraction(4 * nu * n_f, u), (1,): Fraction(4 * nu * total, u * u),
                      (0,): Fraction(4 * nu * pairs, u**3)})
    scalar = Poly(1, {(1,): Fraction(4 * nu * n_f * (2 * u + nu * (n_f - 3)), u * u),
                      (0,): Fraction(4 * nu * (u + nu * (2 * n_f - 3)) * total, u**3)})
    return charge, scalar


@dataclass(frozen=True, eq=False)
class GaugedOperator:
    """One algebraised sector: exact operator data, ready to apply.

    Single-variable ingredients are stored once: the cubic, the gauge charge
    q and the gauge scalar s.  `apply` forms the cubic's derivative and lifts
    them into the N variables at its first call; `matrices._weights` reads the
    coefficients of the cubic, q and s directly.
    """

    params: ModelParams
    mask: GaugeMask
    exponent: Fraction
    cutoff: int
    cubic: Poly
    charge: Poly
    scalar: Poly

    @property
    def nvars(self) -> int:
        return self.params.nvars

    @cached_property
    def _lifted(self) -> tuple[int, int, list[tuple[Poly, ...]]]:
        """`apply`'s D, D V and, per variable k, D (p, drift, q, s) in z_k."""
        n, potential = self.nvars, potential_coefficient(self.params)
        drift = 2 * self.charge + (self.params.coupling_b + _HALF) * self.cubic.diff(0)
        coeffs = (self.cubic, drift, self.charge, self.scalar)
        scale = lcm(potential.denominator,
                    *(c.denominator for poly in coeffs for c in poly.terms.values()))
        scaled = [poly * scale for poly in coeffs]
        return scale, int(potential * scale), [tuple(c.lift(n, k) for c in scaled)
                                                for k in range(n)]

    def apply(self, f: Poly) -> Poly:
        """Exact image of a tau-space polynomial under the gauged operator.

        The input is expanded to z-space, transported through

            sum_k [ -p_k F_kk - (2 q_k + (b + 1/2) p'_k) F_k - s_k F ]
            - 2a sum_{k<l} [ (p_k F_k - p_l F_l) + (q_k - q_l) F ] / (z_k - z_l)
            + V F ,

        and reduced back to the tau basis.  Each pairwise difference quotient
        is an exact polynomial division; for symmetric F divisibility is an
        identity (the numerators are antisymmetric in z_k, z_l), so a stall
        there or in the final reduction reports NonCancellingPole or
        NotSymmetric respectively, both of which mean the input or engine
        broke an invariant.

        It runs in integer arithmetic: with D the lcm of the denominators of
        p, the drift, q, s and V, f_s that of f and 2a = n_a / d_a, the image
        of f_s f scaled by D d_a has integer coefficients (every divisor is
        monic), and it is divided by D d_a f_s once, after the reduction.
        D, D V and the lifts of D p, D drift, D q and D s depend on the
        operator alone, so its first call forms them and the operator keeps them.
        """
        n = self.nvars
        if f.nvars != n:
            raise ValueError(f"polynomial has {f.nvars} variables, operator expects {n}")
        a2 = 2 * self.params.coupling_a
        scale, potential, lifted = self._lifted
        f_scale = lcm(*(c.denominator for c in f.terms.values()))
        big_f = tau_to_z(f * f_scale)
        derivs = [big_f.diff(k) for k in range(n)]

        out = potential * (elementary_symmetric(n, 1) * big_f)
        for k, (p_k, drift_k, _, s_k) in enumerate(lifted):
            f_k = derivs[k]
            out = out - p_k * f_k.diff(k) - drift_k * f_k - s_k * big_f

        if a2:
            out = out * a2.denominator
            for k in range(n):
                p_k, _, q_k, _ = lifted[k]
                for l in range(k + 1, n):
                    p_l, _, q_l, _ = lifted[l]
                    numer = (p_k * derivs[k] - p_l * derivs[l]) + (q_k - q_l) * big_f
                    divisor = Poly.variable(n, k) - Poly.variable(n, l)
                    try:
                        quotient = numer.divide_exact(divisor)
                    except NonZeroRemainder as exc:
                        raise NonCancellingPole(
                            f"pair term for variables {k + 1}, {l + 1} is not a "
                            "polynomial; the input is not symmetric"
                        ) from exc
                    out = out - a2.numerator * quotient
        return z_to_tau(out) * Fraction(1, scale * a2.denominator * f_scale)


def build_gauged_operator(
    params: ModelParams,
    mask: GaugeMask,
    *,
    exponent: Fraction | None = None,
) -> GaugedOperator:
    """Construct the exact gauged operator for one mask.

    Raises InvalidDegree unless the sector's shifted cutoff is a non-negative
    integer, and NonCancellingPole if the gauge exponent fails to cancel the
    poles it introduces.  ``exponent`` overrides the natural value 1/2 - b
    (closed-form q and s) and goes through `gauge_polynomials`' division; it
    exists to let callers demonstrate the failure case deliberately and
    leaves the degree bookkeeping untouched.
    """
    mt = params.shifted_degree(mask)
    if mt.denominator != 1 or mt < 0:
        raise InvalidDegree(
            f"mask {mask} shifts the degree cutoff to {mt}, which is not a "
            "non-negative integer; no invariant space exists"
        )
    natural = params.gauge_exponent()
    nu = natural if exponent is None else Fraction(exponent)
    if nu == natural:
        charge, scalar = _natural_gauge_polynomials(params.roots, mask, params.coupling_b)
    else:
        charge, scalar = gauge_polynomials(params.roots, mask, nu, params.coupling_b)

    return GaugedOperator(
        params=params,
        mask=mask,
        exponent=nu,
        cutoff=int(mt),
        cubic=weierstrass_cubic(*cubic_invariants(params.roots)),
        charge=charge,
        scalar=scalar,
    )
