"""Symmetric polynomials and the tau-monomial basis.

Two coordinate systems coexist.  ``z``-space is the ring of polynomials in
z_1..z_N; tau-space writes symmetric z-polynomials over the elementary
symmetric polynomials tau_k = sum_{i1<...<ik} z_{i1}...z_{ik}.  Both are
represented by `Poly` in N variables; which space a value lives in is part of
each function's contract, not of the type.

The grading used throughout the operator pipeline is the *tau*-degree
sum(l_i) of a tau-monomial tau_1^{l_1}...tau_N^{l_N}, not the z-degree
sum(k*l_k) of its expansion.  The two differ for N >= 2, and every closure and
degree-raising statement downstream refers to the tau-degree.  A basis keys
its rows by `pack` code, so `matrices` shifts exponents by int addition.

`structure_sums` writes the symmetric z-space sums that the gauged operator's
tau-space coefficients are built from, by two-term recurrences in E(t) =
sum_m tau_m t^m, without a trip through z-space.  Its one engine caller,
`matrices._term_entries`, forms them once per N and keeps only int64 rows;
`tau_to_z` and `z_to_tau` remain the exact conversions that check them.
`z_to_tau` tests symmetry in one pass, then reduces only the dominant terms
z^a (a1 >= ... >= aN), by the cached dominant parts of tau-monomials.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, factorial, prod
from typing import NamedTuple

from .errors import NotSymmetric
from .polynomials import Coeff, Exponents, Poly


# A tau-monomial packed into one int, BITS bits per exponent, so that an
# exponent shift is one integer addition: its exponents written as unsigned
# little-endian 32-bit words and read back as one int.  Exponents stay far
# below 2**BITS, as a basis that reached it could not be stored; one outside
# [0, 2**BITS) raises struct.error.
BITS = 32


def pack(exps: Exponents) -> int:
    return int.from_bytes(struct.pack(f"<{len(exps)}I", *exps), "little")


def unpack(code: int, nvars: int) -> Exponents:
    return tuple((code >> (BITS * k)) & ((1 << BITS) - 1) for k in range(nvars))


@dataclass(frozen=True, eq=False)
class BasisIndex:
    """Ordered tau-monomial basis of the space {sum(l_i) <= max_degree}.

    Monomials are listed degree by degree, tau_1-dominant first within a
    degree, so position 0 is the constant monomial and (N=2, max_degree=2)
    lists [1, t1, t2, t1^2, t1*t2, t2^2].  Size is C(N + max_degree, N).
    `row_of` maps each monomial's `pack` code to its row, its keys in basis
    order; callers only read it.
    """

    nvars: int
    max_degree: int
    monomials: tuple[Exponents, ...]
    row_of: dict[int, int] = field(repr=False)

    def __len__(self) -> int:
        return len(self.monomials)

    def __getitem__(self, i: int) -> Exponents:
        return self.monomials[i]

    def __iter__(self):
        return iter(self.monomials)

    def index_of(self, exponents: Exponents) -> int:
        """Position of a tau-monomial; KeyError if it lies outside the basis.
        A tuple with an exponent outside [0, 2**BITS) has no code, and a code
        stands for more than one tuple (trailing zeros, a wrong length), so a
        hit is confirmed against `monomials`."""
        try:
            row = self.row_of.get(pack(exponents), -1)
        except struct.error:
            row = -1
        if row < 0 or self.monomials[row] != exponents:
            raise KeyError(exponents)
        return row

    def __contains__(self, exponents: Exponents) -> bool:
        try:
            self.index_of(exponents)
        except KeyError:
            return False
        return True


@lru_cache(maxsize=32)
def enumerate_basis(nvars: int, max_degree: int) -> BasisIndex:
    """All tau-monomials with sum(l_i) <= max_degree, canonically ordered (cached):
    per degree d, `combinations_with_replacement` lists the multisets of d
    variable indices tau_1-dominant first, the order of `listing_key`."""
    if nvars < 1:
        raise ValueError(f"nvars must be >= 1, got {nvars}")
    if max_degree < 0:
        raise ValueError(f"max_degree must be >= 0, got {max_degree}")
    monomials = tuple(
        tuple(map(combo.count, range(nvars)))
        for d in range(max_degree + 1)
        for combo in combinations_with_replacement(range(nvars), d)
    )
    return BasisIndex(nvars, max_degree, monomials, {pack(e): i for i, e in enumerate(monomials)})


@lru_cache(maxsize=None)
def elementary_symmetric(nvars: int, k: int) -> Poly:
    """tau_k in z-space: the sum of all k-fold products of distinct variables."""
    if not 0 <= k <= nvars:
        raise ValueError(f"need 0 <= k <= {nvars}, got {k}")
    subsets = combinations(range(nvars), k)
    return Poly(nvars, {tuple(map(subset.count, range(nvars))): 1 for subset in subsets})


@lru_cache(maxsize=None)
def _tau_monomial_in_z(nvars: int, exponents: Exponents) -> Poly:
    factors = (elementary_symmetric(nvars, k) ** l for k, l in enumerate(exponents, start=1) if l)
    return prod(factors, start=Poly.constant(nvars, 1))


def tau_to_z(tau_poly: Poly) -> Poly:
    """Expand a tau-space polynomial into z-space by substituting each tau_k."""
    n = tau_poly.nvars
    images = (_tau_monomial_in_z(n, exps) * coeff for exps, coeff in tau_poly.terms.items())
    return sum(images, Poly.zero(n))


@lru_cache(maxsize=None)
def _dominant_in_z(lead: Exponents) -> tuple[int, Exponents, tuple[tuple[Exponents, int], ...]]:
    """For z^a with a1 >= ... >= aN: the size N! / prod m_i! of its orbit (m_i
    the multiplicities of the distinct a_i), the tau-monomial
    tau_1^(a1-a2) ... tau_N^(aN) whose expansion it leads, and the terms c z^e
    of that expansion with e1 >= ... >= eN."""
    n = len(lead)
    exponents = tuple(lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n))
    terms = _tau_monomial_in_z(n, exponents).terms.items()
    return (factorial(n) // prod(map(factorial, map(lead.count, set(lead)))), exponents,
            tuple((e, c) for e, c in terms if list(e) == sorted(e, reverse=True)))


def z_to_tau(p: Poly) -> Poly:
    """Write a symmetric z-polynomial over the elementary symmetric basis.

    One pass tests symmetry exactly: every term's sorted exponents name its
    orbit, whose dominant term z^a (a1 >= ... >= aN) must carry the same
    coefficient, and every orbit must hold all its N! / prod m_i! terms;
    else NotSymmetric is raised.  Leading-term reduction (Sturmfels,
    Algorithms in Invariant Theory, 1.1) then reads the dominant terms
    alone: the lex-largest z^a left leads tau_1^(a1-a2) ... tau_N^(aN),
    whose monic expansion keeps integer coefficients ``int``, and
    subtracting that expansion's dominant part (`_dominant_in_z`) lowers
    it, so the loop ends with the unique tau-form.
    """
    n, terms = p.nvars, p.terms
    orbits: dict[Exponents, int] = {}
    for exps, coeff in terms.items():
        lead = tuple(sorted(exps, reverse=True))
        if terms.get(lead) != coeff:
            raise NotSymmetric(f"z^{exps} and z^{lead} have different coefficients")
        orbits[lead] = orbits.get(lead, 0) + 1
    for lead, count in orbits.items():
        if count != _dominant_in_z(lead)[0]:
            raise NotSymmetric(f"the orbit of z^{lead} lacks some of its terms")
    remainder = {lead: terms[lead] for lead in orbits}
    tau_terms: dict[Exponents, Coeff] = {}
    while remainder:
        exps = max(remainder)
        _, tau_exps, dominant = _dominant_in_z(exps)
        coeff = tau_terms[tau_exps] = remainder[exps]
        for e, c in dominant:
            if acc := remainder.get(e, 0) - coeff * c:
                remainder[e] = acc
            else:
                del remainder[e]
    return Poly.from_terms(n, tau_terms)


# The cubic p, the gauge charge q and the gauge scalar s have degree <= 3, so
# the operator only ever needs the sums below for z-powers r = 0..3.
_MAX_POWER = 3


class StructureSums(NamedTuple):
    """Symmetric z-space sums in tau-space, for z-powers r = 0..3.

    With sigma^k_j = d tau_{j+1} / d z_k, the j-th elementary symmetric
    polynomial of the variables other than z_k, and i, j = 0..N-1:

        P[r]       = sum_k z_k^r
        T[r][j]    = sum_k z_k^r sigma^k_j
        Q[r][i][j] = sum_k z_k^r sigma^k_i sigma^k_j
        D[r]       = sum_{k<l} (z_k^r - z_l^r) / (z_k - z_l)
        E[r][j]    = sum_{k<l} (z_k^r sigma^k_j - z_l^r sigma^l_j) / (z_k - z_l)

    Every entry is a polynomial in tau with integer coefficients; Q is
    symmetric in (i, j), and Q[r][j][i] is the same `Poly` as Q[r][i][j].
    """

    P: tuple[Poly, ...]
    T: tuple[tuple[Poly, ...], ...]
    Q: tuple[tuple[tuple[Poly, ...], ...], ...]
    D: tuple[Poly, ...]
    E: tuple[tuple[Poly, ...], ...]


def structure_sums(nvars: int) -> StructureSums:
    """The sums of `StructureSums` for N = nvars, written over tau (not cached).

    Everything follows from the generating function
    E(t) = prod_k (1 + z_k t) = sum_m tau_m t^m, whose quotient by 1 + z_k t
    is sigma^k(t) = sum_j sigma^k_j t^j.  Comparing coefficients gives
    z_k sigma^k_m = tau_{m+1} - sigma^k_{m+1}, so, with tau_j = 0 outside
    0..N and sigma^k_m = 0 for m >= N,

        T[0][m] = (N - m) tau_m,          T[r][m] = P[r-1] tau_{m+1} - T[r-1][m+1]
        E[0][m] = -C(N-m+1, 2) tau_{m-1}, E[r][m] = D[r-1] tau_{m+1} - E[r-1][m+1]

    where E[0] holds because sigma^k(t) - sigma^l(t) = -(z_k - z_l) t times
    the product over the other N - 2 variables.  As sigma^k_0 = 1, P and D are
    the first entries of T and E.  Finally 1/((1+zt)(1+zu)) =
    (t/(1+zt) - u/(1+zu))/(t - u) gives, for i <= j, formed once and shared
    with Q[r][j][i],

        Q[r][i][j] = sum_{a=j}^{i+j} T[r][a] tau_{i+j-a} - sum_{a<i} T[r][a] tau_{i+j-a}.
    """
    n = nvars
    zero = Poly.zero(n)
    taus = [Poly.constant(n, 1)] + [
        Poly.monomial(tuple(int(i == k) for i in range(n))) for k in range(n)
    ]

    def tau(j: int) -> Poly:
        return taus[j] if 0 <= j <= n else zero

    t_rows = [[(n - m) * tau(m) for m in range(n)]]
    e_rows = [[-comb(n - m + 1, 2) * tau(m - 1) for m in range(n)]]
    for _ in range(_MAX_POWER):
        for rows in (t_rows, e_rows):
            prev = rows[-1] + [zero]
            rows.append([prev[0] * tau(m + 1) - prev[m + 1] for m in range(n)])

    def q_entry(row: list[Poly], i: int, j: int) -> Poly:
        # each product with tau_k (tau_0 = 1) is a shift of the row's exponents
        out: dict[Exponents, int] = {}
        for sign, span in ((1, range(j, min(i + j, n - 1) + 1)), (-1, range(max(0, i + j - n), i))):
            for a in span:
                k = i + j - a
                for e, c in row[a].terms.items():
                    key = e[: k - 1] + (e[k - 1] + 1,) + e[k:] if k else e
                    if acc := out.get(key, 0) + sign * c:
                        out[key] = acc
                    else:
                        del out[key]
        return Poly.from_terms(n, out)

    def q_rows(row: list[Poly]) -> tuple[tuple[Poly, ...], ...]:
        upper = [[q_entry(row, i, j) for j in range(i, n)] for i in range(n)]
        return tuple(tuple(upper[min(i, j)][abs(i - j)] for j in range(n)) for i in range(n))

    return StructureSums(
        P=tuple(row[0] for row in t_rows),
        T=tuple(map(tuple, t_rows)),
        Q=tuple(map(q_rows, t_rows)),
        D=tuple(row[0] for row in e_rows),
        E=tuple(map(tuple, e_rows)),
    )
