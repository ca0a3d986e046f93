"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in ``nvars`` variables is a sparse map from exponent tuples to
exact rational coefficients: ``int`` where integral, so integer work runs in
integer arithmetic, and ``fractions.Fraction`` otherwise.  Zero coefficients
are never stored, so two equal polynomials always have equal term maps and
identity testing is exact.  Every operation returns a new polynomial;
instances are treated as immutable, which makes them safe to share and cache.

The canonical term order is graded lexicographic with the first variable
dominant: monomials are compared by total degree first, then lexicographically
on the exponent tuple.  The leading term of a product is the product of the
leading terms in this order, which is what makes single-divisor exact division
(`Poly.divide_exact`) a decision procedure: the reduction stalls if and only
if the division is not exact.

No floating point enters this module (a float coefficient or scalar raises
TypeError); all downstream exactness guarantees rest on it.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import prod
from operator import add, sub
from typing import Callable, Iterable, Iterator, Mapping

from .errors import NonZeroRemainder

Exponents = tuple[int, ...]

# Exact rational inputs accepted at API boundaries, and stored coefficients.
# Floats are deliberately excluded: a float has already lost exactness.
RationalLike = int | str | Fraction
Coeff = int | Fraction


def _exact(x: Coeff) -> Coeff:
    """``int`` if x is integral, else the Fraction; a float raises TypeError."""
    try:
        return x.numerator if x.denominator == 1 else x
    except AttributeError:
        raise TypeError(f"coefficient {x!r} is not an exact rational") from None


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, integer, or decimal strings to an exact rational.

    Decimal strings convert exactly (``"0.25"`` becomes 1/4), never through a
    binary float.  Raises ValueError on malformed input.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def grlex_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key realizing graded lex order; max() under it gives the leading monomial."""
    return (sum(exponents), exponents)


def listing_key(exponents: Exponents) -> tuple[int, Exponents]:
    """Sort key for canonical listings: degree ascending, first-variable-dominant
    monomials first within each degree (so ``[1, x1, x2, x1^2, x1*x2, x2^2]``)."""
    return (sum(exponents), tuple(-e for e in exponents))


class Poly:
    """Sparse exact polynomial in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coeff] | None = None):
        if nvars < 0:
            raise ValueError(f"nvars must be non-negative, got {nvars}")
        clean: dict[Exponents, Coeff] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {nvars}"
                    )
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                c = _exact(coeff)
                if c:
                    clean[tuple(exps)] = c
        self.nvars = nvars
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def _wrap(cls, nvars: int, terms: dict[Exponents, Coeff]) -> Poly:
        """Wrap a term dict that is already clean: exponent tuples of length
        ``nvars`` and no zero coefficients.  Nothing is checked or copied."""
        result = cls.__new__(cls)
        result.nvars = nvars
        result.terms = terms
        return result

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Coeff) -> Poly:
        c = _exact(value)
        if not c:
            return cls(nvars)
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Poly:
        """The polynomial x_index (0-based index)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coeff: Coeff = 1) -> Poly:
        exps = tuple(exponents)
        return cls(len(exps), {exps: coeff})

    # -- ring operations ----------------------------------------------------

    def _check_same_space(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: Poly) -> Poly:
        return self._combine(other, add)

    def __sub__(self, other: Poly) -> Poly:
        return self._combine(other, sub)

    def _combine(self, other: Poly, op: Callable[[Coeff, Coeff], Coeff]) -> Poly:
        """op (add or sub) applied term by term to one copy of self's terms."""
        self._check_same_space(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = op(out.get(exps, 0), coeff)
            if acc:
                out[exps] = _exact(acc)
            else:
                out.pop(exps, None)
        return Poly._wrap(self.nvars, out)

    def __neg__(self) -> Poly:
        return Poly._wrap(self.nvars, {exps: -coeff for exps, coeff in self.terms.items()})

    def __mul__(self, other: Poly | Coeff) -> Poly:
        if not isinstance(other, Poly):
            c = _exact(other)
            terms = {exps: _exact(coeff * c) for exps, coeff in self.terms.items()} if c else {}
            return Poly._wrap(self.nvars, terms)
        self._check_same_space(other)
        out: dict[Exponents, Coeff] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(map(add, ea, eb))
                acc = out.get(exps, 0) + ca * cb
                if acc:
                    out[exps] = _exact(acc)
                else:
                    out.pop(exps, None)
        return Poly._wrap(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Poly:
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.constant(self.nvars, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- calculus and evaluation --------------------------------------------

    def diff(self, index: int) -> Poly:
        """Exact partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range for nvars={self.nvars}")
        out: dict[Exponents, Coeff] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            acc = out.get(lowered, 0) + coeff * e
            if acc:
                out[lowered] = _exact(acc)
            else:
                out.pop(lowered, None)
        return Poly._wrap(self.nvars, out)

    def evaluate(self, point: Iterable[int | Fraction]) -> Fraction:
        """Exact value at a rational point (one value per variable)."""
        values = [_exact(v) for v in point]
        if len(values) != self.nvars:
            raise ValueError(f"point has length {len(values)}, expected {self.nvars}")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for e, v in zip(exps, values):
                if e:
                    term *= v**e
            total += term
        return total

    # -- structure ----------------------------------------------------------

    def leading(self) -> tuple[Exponents, Coeff]:
        """Leading (monomial, coefficient) in graded lex order."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, self.terms[exps]

    def coefficient(self, exponents: Iterable[int]) -> Coeff:
        return self.terms.get(tuple(exponents), 0)

    def items_canonical(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in the canonical listing order (deterministic serialization)."""
        return sorted(self.terms.items(), key=lambda item: listing_key(item[0]))

    def lift(self, nvars: int, index: int) -> Poly:
        """Embed a univariate polynomial as a polynomial in variable ``index``
        of an ``nvars``-variable ring (substitute x -> x_index)."""
        if self.nvars != 1:
            raise ValueError("lift() applies to univariate polynomials only")
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        out: dict[Exponents, Coeff] = {}
        for (e,), coeff in self.terms.items():
            exps = [0] * nvars
            exps[index] = e
            out[tuple(exps)] = coeff
        return Poly._wrap(nvars, out)

    # -- exact division ------------------------------------------------------

    def divide_exact(self, divisor: Poly) -> Poly:
        """Return q with ``self == q * divisor`` exactly.

        Single-divisor reduction by the graded-lex leading term
        (`reduce_leading`); each quotient coefficient is formed exactly, an
        ``int`` for a monic divisor and integral dividend.  If the division is
        not exact the reduction stalls and NonZeroRemainder is raised; a
        non-zero remainder is never returned silently.
        """
        self._check_same_space(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        lead_exps, lead_coeff = divisor.leading()
        quotient: dict[Exponents, Coeff] = {}

        def step(rexps: Exponents, rcoeff: Coeff) -> tuple[Exponents, Coeff, Poly]:
            texps = tuple(r - d for r, d in zip(rexps, lead_exps))
            if any(e < 0 for e in texps):
                raise NonZeroRemainder(
                    f"leading term x^{rexps} not divisible by x^{lead_exps}"
                )
            tcoeff = _exact(rcoeff if lead_coeff == 1 else Fraction(rcoeff) / lead_coeff)
            quotient[texps] = tcoeff
            return texps, tcoeff, divisor

        self.reduce_leading(step)
        return Poly._wrap(self.nvars, quotient)

    def reduce_leading(self, step: Callable[[Exponents, Coeff], tuple]) -> None:
        """Reduce self to zero by leading terms, in one remainder map updated in
        place whose monomials leave a heap in descending graded-lex order.

        ``step(exps, coeff)`` gets each leading term and returns (shift, scale,
        reducer), whose product scale * x^shift * reducer leads with
        coeff * x^exps and is subtracted; ``step`` raises on a stall.
        """
        remainder = dict(self.terms)
        heap = [(-sum(e), [-x for x in e], e) for e in remainder]
        heapify(heap)
        while heap:
            exps = heappop(heap)[2]
            coeff = remainder.get(exps)
            if coeff is None:
                continue
            shift, scale, reducer = step(exps, coeff)
            for e, c in reducer.terms.items():
                key = tuple(map(add, e, shift))
                old = remainder.get(key)
                if old is None:
                    remainder[key] = -scale * c
                    heappush(heap, (-sum(key), [-x for x in key], key))
                elif acc := old - scale * c:
                    remainder[key] = acc
                else:
                    del remainder[key]

    def __iter__(self) -> Iterator[tuple[Exponents, Coeff]]:
        return iter(self.items_canonical())

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.items_canonical():
            factors = [
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e
            ]
            body = "*".join(factors)
            if body:
                if coeff == 1:
                    parts.append(body)
                elif coeff == -1:
                    parts.append(f"-{body}")
                else:
                    parts.append(f"{coeff}*{body}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")


def weierstrass_cubic(g2: Coeff, g3: Coeff) -> Poly:
    """The univariate cubic 4x^3 - g2*x - g3 whose roots are the half-period values."""
    return Poly(1, {(3,): 4, (1,): -g2, (0,): -g3})


def from_roots(roots: Iterable[Coeff]) -> Poly:
    """The monic univariate product of (x - r) over the roots, with repetition."""
    return prod((Poly(1, {(1,): 1, (0,): -r}) for r in roots), start=Poly.constant(1, 1))
