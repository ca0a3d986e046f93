"""Model parameters, gauge masks, and the valid-sector arithmetic.

A parameter set fixes the particle number, the two coupling exponents, the
polynomial degree cutoff, and the three roots of the quartic-free cubic
p(z) = 4 z^3 - g2 z - g3 = 4 (z - e1)(z - e2)(z - e3).  The roots must sum to
zero; g2 and g3 are then determined by them (`cubic_invariants`).

A gauge mask selects a subset of the three roots.  Each selected root e_i
contributes a factor (z - e_i)^nu to the gauge prefactor, with the common
exponent nu = 1/2 - b, and shifts the invariant degree cutoff from m to
mt = m + n_f * (b - 1/2) where n_f is the mask size.  A mask is usable only
when mt is a non-negative integer, since mt is the top tau-degree of the
preserved polynomial space.  Per-sector formulas read the integer view
`ModelParams.ints` = (c, a c, b c, m c), c = lcm(den a, den b, den m), formed
with the parameter set."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import index

from .errors import InvalidDegree
from .polynomials import RationalLike

MASK_NAMES = ("none", "1", "2", "3", "12", "13", "23", "123")


@dataclass(frozen=True, order=True)
class GaugeMask:
    """An ordered subset of the root indices {1, 2, 3}."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError(f"mask indices must be sorted and distinct, got {self.indices}")
        if any(i not in (1, 2, 3) for i in self.indices):
            raise ValueError(f"mask indices must lie in {{1, 2, 3}}, got {self.indices}")

    @classmethod
    def from_string(cls, text: str) -> "GaugeMask":
        """Parse 'none' (empty mask) or a digit string such as '13' or '123'."""
        text = text.strip().lower()
        if text in ("none", "0", ""):
            return cls(())
        if not all(c in "123" for c in text):
            raise ValueError(f"mask must be 'none' or digits from 1-3, got {text!r}")
        return cls(tuple(sorted(set(int(c) for c in text))))

    def __str__(self) -> str:
        return "".join(str(i) for i in self.indices) if self.indices else "none"

    @property
    def n_f(self) -> int:
        """Number of selected roots (the count of gauge factors)."""
        return len(self.indices)

    def __contains__(self, i: int) -> bool:
        return i in self.indices


ALL_MASKS: tuple[GaugeMask, ...] = tuple(
    GaugeMask.from_string(name) for name in MASK_NAMES
)


def _as_fraction(x: RationalLike, name: str) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact (int, Fraction, or string), got float")
    return x if isinstance(x, Fraction) else Fraction(x)


def _integer_roots(roots: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(r, the roots times r), r the lcm of their denominators; ValueError
    unless the roots sum to zero, tested in ints."""
    r = lcm(*(x.denominator for x in roots))
    e = tuple(x.numerator * (r // x.denominator) for x in roots)
    if sum(e) != 0:
        raise ValueError(f"roots must sum to zero, got {' + '.join(map(str, roots))}")
    return r, e


def cubic_invariants(
    roots: tuple[RationalLike, RationalLike, RationalLike],
) -> tuple[Fraction, Fraction]:
    """(g2, g3) of the cubic 4(z-e1)(z-e2)(z-e3) = 4z^3 - g2 z - g3.

    Requires the roots to sum to zero, otherwise the z^2 term would survive.
    The symmetric functions are formed in ints, with the roots times the lcm
    r of their denominators, and each invariant is one Fraction over r^2 or r^3.
    """
    r, (e1, e2, e3) = _integer_roots(tuple(x if isinstance(x, Fraction) else Fraction(x)
                                           for x in roots))
    return Fraction(-4 * (e1 * e2 + e1 * e3 + e2 * e3), r * r), Fraction(4 * e1 * e2 * e3, r**3)


@dataclass(frozen=True)
class ModelParams:
    """Exact parameter set: particle number, couplings, degree, cubic roots.

    N is an int (a bool, float, Fraction or str raises TypeError); rationals
    are given as int, Fraction or str (never float) and kept as Fractions.
    Construction forms `ints` = (c, a c, b c, m c), c = lcm(den a, den b, den m),
    and the hash, of N, `ints` and the roots times the lcm of their denominators,
    so equal values give one key however they were given."""

    nvars: int
    coupling_a: Fraction
    coupling_b: Fraction
    degree_m: Fraction
    roots: tuple[Fraction, Fraction, Fraction] = (2, -1, -1)

    def __post_init__(self) -> None:
        if isinstance(self.nvars, bool):
            raise TypeError("nvars must be an int, not bool")
        nvars = index(self.nvars)  # TypeError for a float, Fraction or str
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        a = _as_fraction(self.coupling_a, "coupling_a")
        b = _as_fraction(self.coupling_b, "coupling_b")
        m = _as_fraction(self.degree_m, "degree_m")
        if len(self.roots) != 3:
            raise ValueError(f"exactly three roots required, got {len(self.roots)}")
        e = tuple(_as_fraction(r, "root") for r in self.roots)
        c = lcm(a.denominator, b.denominator, m.denominator)
        ints = (c, *(x.numerator * (c // x.denominator) for x in (a, b, m)))
        for name, value in (("nvars", nvars), ("coupling_a", a), ("coupling_b", b),
                            ("degree_m", m), ("roots", e), ("ints", ints),
                            ("_hash", hash((nvars, ints, _integer_roots(e))))):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    def gauge_exponent(self) -> Fraction:
        """Exponent nu = 1/2 - b carried by every masked root factor."""
        return Fraction(1, 2) - self.coupling_b

    def _twice_cutoff(self, mask: GaugeMask) -> tuple[int, int]:
        """mt = m + n_f (b - 1/2) as 2 c mt over 2 c, in ints."""
        c, _, b, m = self.ints
        return 2 * m + mask.n_f * (2 * b - c), 2 * c

    def shifted_degree(self, mask: GaugeMask) -> Fraction:
        """Degree cutoff mt = m + n_f (b - 1/2) of the sector gauged by `mask`."""
        return Fraction(*self._twice_cutoff(mask))

    def sector_is_valid(self, mask: GaugeMask) -> bool:
        """Whether the masked sector has a non-negative integer degree cutoff."""
        top, den = self._twice_cutoff(mask)
        return top >= 0 and top % den == 0

    def cutoff(self, mask: GaugeMask) -> int:
        """The sector's degree cutoff mt; InvalidDegree unless it is a non-negative integer."""
        top, den = self._twice_cutoff(mask)
        if top < 0 or top % den:
            raise InvalidDegree(f"mask {mask} shifts the degree cutoff to {Fraction(top, den)}, "
                                "which is not a non-negative integer; no invariant space exists")
        return top // den

    def basis_dimension(self, mask: GaugeMask) -> int:
        """Dimension C(N + mt, N) of the preserved space for a valid mask."""
        return comb(self.nvars + self.cutoff(mask), self.nvars)


def external_field_coupling(params: ModelParams) -> Fraction:
    """Coefficient pairing the external field with the algebraic sector.

    Equals [2m + 2a(N-1) + 4b] [2m + 1 + 2a(N-1) + 2b]; the model is
    algebraised at exactly this coupling strength.
    """
    a, b, m = params.coupling_a, params.coupling_b, params.degree_m
    n = params.nvars
    return (2 * m + 2 * a * (n - 1) + 4 * b) * (2 * m + 1 + 2 * a * (n - 1) + 2 * b)


def list_valid_masks(params: ModelParams) -> tuple[GaugeMask, ...]:
    """All masks whose sector cutoff mt is a non-negative integer.

    For generic b this is governed purely by whether m and m + n_f (b - 1/2)
    land on non-negative integers; at b = 1/2 every mask shares the cutoff m,
    but the gauge exponent nu vanishes so all masks coincide with the trivial
    one, and only the empty mask is reported.
    """
    c, _, b, _ = params.ints
    masks = ALL_MASKS[:1] if 2 * b == c else ALL_MASKS
    return tuple(mask for mask in masks if params.sector_is_valid(mask))
