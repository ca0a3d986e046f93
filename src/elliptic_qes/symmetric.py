"""Symmetric polynomials and the tau-monomial basis.

Two coordinate systems coexist.  ``z``-space is the ring of polynomials in
z_1..z_N; tau-space writes symmetric z-polynomials over the elementary
symmetric polynomials tau_k = sum_{i1<...<ik} z_{i1}...z_{ik}.  Both are
represented by `Poly` in N variables; which space a value lives in is part of
each function's contract, not of the type.

The grading used throughout the operator pipeline is the *tau*-degree
sum(l_i) of a tau-monomial tau_1^{l_1}...tau_N^{l_N}, not the z-degree
sum(k*l_k) of its expansion.  The two differ for N >= 2, and every closure and
degree-raising statement downstream refers to the tau-degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import NotSymmetric
from .polynomials import Exponents, Poly, listing_key


@dataclass(frozen=True, eq=False)
class BasisIndex:
    """Ordered tau-monomial basis of the space {sum(l_i) <= max_degree}.

    Monomials are listed degree by degree, tau_1-dominant first within a
    degree, so position 0 is the constant monomial and (N=2, max_degree=2)
    lists [1, t1, t2, t1^2, t1*t2, t2^2].  Size is C(N + max_degree, N).
    """

    nvars: int
    max_degree: int
    monomials: tuple[Exponents, ...]
    _position: dict[Exponents, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.monomials)

    def __getitem__(self, i: int) -> Exponents:
        return self.monomials[i]

    def __iter__(self):
        return iter(self.monomials)

    def index_of(self, exponents: Exponents) -> int:
        """Position of a tau-monomial; KeyError if it lies outside the basis."""
        return self._position[exponents]

    def __contains__(self, exponents: Exponents) -> bool:
        return exponents in self._position


def enumerate_basis(nvars: int, max_degree: int) -> BasisIndex:
    """All tau-monomials with sum(l_i) <= max_degree, canonically ordered."""
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, got {nvars}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")

    monomials: list[Exponents] = []

    def extend(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            monomials.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            prefix.append(e)
            extend(prefix, remaining - e, slots - 1)
            prefix.pop()

    extend([], max_degree, nvars)
    monomials.sort(key=listing_key)
    position = {exps: i for i, exps in enumerate(monomials)}
    return BasisIndex(nvars, max_degree, tuple(monomials), position)


@lru_cache(maxsize=None)
def elementary_symmetric(nvars: int, k: int) -> Poly:
    """tau_k in z-space: the sum of all k-fold products of distinct variables."""
    if not 0 <= k <= nvars:
        raise ValueError(f"need 0 <= k <= {nvars}, got {k}")
    one = Fraction(1)
    terms: dict[Exponents, Fraction] = {}
    for subset in combinations(range(nvars), k):
        exps = [0] * nvars
        for i in subset:
            exps[i] = 1
        terms[tuple(exps)] = one
    return Poly(nvars, terms)


@lru_cache(maxsize=None)
def _tau_monomial_in_z(nvars: int, exponents: Exponents) -> Poly:
    result = Poly.constant(nvars, 1)
    for k, l in enumerate(exponents, start=1):
        if l:
            result = result * elementary_symmetric(nvars, k) ** l
    return result


def tau_to_z(tau_poly: Poly) -> Poly:
    """Expand a tau-space polynomial into z-space by substituting each tau_k."""
    n = tau_poly.nvars
    result = Poly.zero(n)
    for exps, coeff in tau_poly.terms.items():
        result = result + _tau_monomial_in_z(n, exps) * coeff
    return result


def is_symmetric(p: Poly) -> bool:
    """True iff p is invariant under every adjacent transposition of variables."""
    for i in range(p.nvars - 1):
        swapped = {
            exps[:i] + (exps[i + 1], exps[i]) + exps[i + 2 :]: coeff
            for exps, coeff in p.terms.items()
        }
        if swapped != p.terms:
            return False
    return True


def z_to_tau(p: Poly) -> Poly:
    """Write a symmetric z-polynomial over the elementary symmetric basis.

    Leading-term reduction: the graded-lex leading monomial z^(a1,..,aN) of a
    symmetric polynomial has a1 >= a2 >= ... >= aN, and is matched exactly by
    the tau-monomial tau_1^(a1-a2) tau_2^(a2-a3) ... tau_N^(aN).  Subtracting
    its expansion strictly lowers the leading monomial, so the loop terminates
    with the unique tau-form.  A stall (decreasing-exponent condition broken)
    proves the input was not symmetric.
    """
    n = p.nvars
    tau_terms: dict[Exponents, Fraction] = {}
    remainder = p
    while remainder.terms:
        exps, coeff = remainder.leading()
        if any(exps[i] < exps[i + 1] for i in range(n - 1)):
            raise NotSymmetric(
                f"leading monomial z^{exps} cannot come from a symmetric polynomial"
            )
        tau_exps = tuple(
            exps[i] - (exps[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        tau_terms[tau_exps] = tau_terms.get(tau_exps, Fraction(0)) + coeff
        remainder = remainder - _tau_monomial_in_z(n, tau_exps) * coeff
    return Poly(n, tau_terms)
