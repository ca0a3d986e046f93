"""Exact matrices of gauged operators on the tau-monomial basis.

Columns are images: entry (i, j) is the coefficient of basis monomial i in
the image of basis monomial j.  On symmetric polynomials the gauged operator
is a second-order differential operator in the elementary-symmetric
coordinates tau,

    L = sum_{i<=j} A_ij d_i d_j + sum_i B_i d_i + C ,

with polynomial coefficients.  A, B and C are written in closed form: fixed
integer tau-polynomials that depend only on N (`symmetric.structure_sums`),
combined linearly with the coefficients of the cubic, the gauge charge, the
gauge scalar and the couplings.  Every column follows from them by exponent
shifts in tau-space, so assembly never passes through z-space;
`GaugedOperator.apply` stays the independent z-space oracle that checks it.

Assembly runs in integer arithmetic.  The structure sums hold ``int``
coefficients, and D, the lcm of the denominators of those rational weights,
turns D*A, D*B and D*C into integer tau-polynomials, every column of D*L is
a sum of integer products, and each non-zero entry becomes a Fraction once.

Assembling a matrix is itself the closure proof for its parameter point.
Every column is the full exact image, components above the cutoff included,
and any image component outside the basis raises OperatorNotClosed.  A
constructed OperatorMatrix therefore certifies that the sector's invariant
space really is invariant.

The exact linear algebra on these matrices (determinant, values of the
characteristic polynomial, inverse) is one fraction Gauss-Jordan routine,
`_gauss_jordan`, so the invariants that check the float solve are computed
in exactly one place.  `interpolate` continues a family of matrices exactly
between builds, for sweeps whose entries are polynomial in the swept value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add
from typing import Callable, Sequence

from .errors import OperatorNotClosed
from .operator import GaugedOperator, potential_coefficient, raising_coefficient
from .polynomials import Coeff, Exponents, Poly, format_rational, parse_rational
from .symmetric import BasisIndex, enumerate_basis, structure_sums

# Fills every absent entry of a built matrix; one shared object, not one per entry.
_ZERO = Fraction(0)


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense exact-rational matrix over an ordered tau-monomial basis."""

    basis: BasisIndex
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        d = len(self.basis)
        if len(self.rows) != d or any(len(r) != d for r in self.rows):
            raise ValueError("matrix shape does not match basis size")

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.rows)

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), Fraction(0))

    def determinant(self) -> Fraction:
        """Exact determinant by fraction Gauss-Jordan elimination."""
        return _gauss_jordan([list(row) for row in self.rows])

    def char_poly_eval(self, t: int | Fraction) -> Fraction:
        """Exact value of det(M - t*I); equal values at dim+1 points pin the
        characteristic polynomial, which is how similarity is tested exactly."""
        tf = Fraction(t)
        work = [list(row) for row in self.rows]
        for i in range(self.dim):
            work[i][i] -= tf
        return _gauss_jordan(work)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.basis.monomials == other.basis.monomials and self.rows == other.rows


def inverse(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix, or None if it is singular."""
    n = len(rows)
    work = [
        [Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    if not _gauss_jordan(work):
        return None
    return [row[n:] for row in work]


def _gauss_jordan(work: list[list[Fraction]]) -> Fraction:
    """Reduce the leading square block of ``work`` to the identity, in place.

    Row operations act on whole rows, so columns past the block (an
    augmented identity, say) end up multiplied by the block's inverse.
    Returns the block's determinant; at the first column without a pivot it
    stops and returns 0, leaving ``work`` partly reduced.
    """
    n = len(work)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pval = work[col][col]
        det *= pval
        # columns left of col are already reduced in every row
        prow = [x / pval for x in work[col][col:]]
        work[col][col:] = prow
        for r in range(n):
            factor = work[r][col]
            if r != col and factor:
                work[r][col:] = [x - factor * y for x, y in zip(work[r][col:], prow)]
    return det


def build_matrix(op: GaugedOperator) -> OperatorMatrix:
    """Matrix of the operator on the basis of its invariant space.

    Writes the coefficients of L = sum A_ij d_i d_j + sum B_i d_i + C in
    closed form, as integer tau-polynomials over one common denominator D,
    and builds every column from the tau-space formula for L(tau^l) in
    integer arithmetic.  Each non-zero entry is formed once, as k / D.  Each
    column is the exact, untruncated image, so this raises OperatorNotClosed
    if any image has a non-zero component of tau-degree above the sector
    cutoff.
    """
    basis = enumerate_basis(op.nvars, op.cutoff)
    dim = len(basis)
    denominator, parts = _tau_coefficients(op)
    rows = [[_ZERO] * dim for _ in range(dim)]
    for j, exps in enumerate(basis):
        for iexps, k in _image(exps, parts).items():
            if iexps not in basis:
                raise OperatorNotClosed(
                    f"image of tau-monomial {exps} contains {iexps} of degree "
                    f"{sum(iexps)}, above the cutoff {op.cutoff}"
                )
            rows[basis.index_of(iexps)][j] = Fraction(k, denominator)
    return OperatorMatrix(basis, tuple(map(tuple, rows)))


def _divided_differences(
    nodes: Sequence[Fraction], mats: Sequence[OperatorMatrix]
) -> list[tuple[int, int, list[Fraction]]]:
    """Newton coefficients of every entry that is non-zero at some node,
    with trailing zero coefficients dropped."""
    positions = sorted(
        {(i, j) for mat in mats for i, row in enumerate(mat.rows) for j, x in enumerate(row) if x}
    )
    newton = []
    for i, j in positions:
        c = [mat.rows[i][j] for mat in mats]
        for k in range(1, len(nodes)):
            for t in range(len(nodes) - 1, k - 1, -1):
                c[t] = (c[t] - c[t - 1]) / (nodes[t] - nodes[t - k])
        while not c[-1] and len(c) > 1:
            c.pop()
        newton.append((i, j, c))
    return newton


def interpolate(
    nodes: Sequence[Fraction], mats: Sequence[OperatorMatrix]
) -> Callable[[Fraction], OperatorMatrix]:
    """The matrix polynomial of degree < len(nodes) through (nodes[k], mats[k]).

    ``nodes`` must be distinct, with one matrix per node.  At a node the
    interpolant returns that node's matrix itself.  Elsewhere it uses exact
    Newton interpolation entry by entry over the union of the non-zero
    positions of ``mats``, evaluated by Horner.  The divided differences are
    taken at the first evaluation off the nodes, so a grid made only of
    nodes costs nothing beyond its builds.  The interpolant reproduces a
    family of matrices exactly when every entry is a polynomial of degree
    < len(nodes) in the variable; that degree bound is the caller's to prove.
    """
    basis = mats[0].basis
    dim = len(basis)
    at_node = dict(zip(nodes, mats))
    newton: list[tuple[int, int, list[Fraction]]] | None = None

    def evaluate(x: Fraction) -> OperatorMatrix:
        nonlocal newton
        mat = at_node.get(x)
        if mat is not None:
            return mat
        if newton is None:
            newton = _divided_differences(nodes, mats)
        shifts = [x - node for node in nodes]
        rows = [[_ZERO] * dim for _ in range(dim)]
        for i, j, c in newton:
            value = c[-1]
            for k in range(len(c) - 2, -1, -1):
                value = value * shifts[k] + c[k]
            rows[i][j] = value
        return OperatorMatrix(basis, tuple(map(tuple, rows)))

    return evaluate


def matches_operator(op: GaugedOperator, mat: OperatorMatrix) -> bool:
    """The columns of tau-degree <= 2 equal the z-space images `op.apply`.

    Those columns are the images of 1, tau_i and tau_i tau_j, which fix A, B
    and C; every other column follows from them by the tau-space formula.
    So this checks the closed-form coefficients of a built matrix against
    the operator they were derived from, at C(N+2, 2) applications at most.
    """
    basis = mat.basis
    return all(
        op.apply(Poly.monomial(exps))
        == Poly(op.nvars, {basis[i]: row[j] for i, row in enumerate(mat.rows)})
        for j, exps in enumerate(basis)
        if sum(exps) <= 2
    )

# One term of L in tau-space: the indices of its tau-derivatives (none, i, or
# i <= j) and its polynomial coefficient times the common denominator, as a
# map from exponents to non-zero int.
_Part = tuple[tuple[int, ...], dict[Exponents, int]]


def _tau_coefficients(op: GaugedOperator) -> tuple[int, list[_Part]]:
    """Coefficients of L as a second-order operator in tau, in closed form.

    For F(tau), F_k = sum_i F_i sigma^k_i and, tau being linear in each z_k,
    F_kk = sum_{i,j} F_ij sigma^k_i sigma^k_j.  Substituted into the z-space
    operator of `GaugedOperator.apply`, with p_r, p'_r, q_r and s_r the
    coefficients of z^r in the cubic, its derivative, the gauge charge and
    the gauge scalar, and the sums of `symmetric.StructureSums`:

        C    = V tau_1 - sum_r s_r P_r - 2a sum_r q_r D_r
        B_i  = -sum_r (2 q_r + (b + 1/2) p'_r) T_ri - 2a sum_r p_r E_ri
        A_ij = -(2 - delta_ij) sum_r p_r Q_rij

    The sums have ``int`` coefficients, so every coefficient is an integer
    combination of them with the rational weights above.  Returns D, the lcm
    of the weights' denominators, and the coefficients multiplied by D, which
    are integer tau-polynomials.
    """
    n = op.nvars
    sums = structure_sums(n)
    a2 = 2 * op.params.coupling_a
    b_half = op.params.coupling_b + Fraction(1, 2)
    cubic, charge = _by_power(op.cubic), _by_power(op.charge)
    drift = _by_power(2 * op.charge + b_half * op.cubic_prime)

    tau1 = Poly.monomial((1,) + (0,) * (n - 1))
    weighted = {
        (): [(potential_coefficient(op.params), tau1)]
        + [(-w, sums.P[r]) for r, w in _by_power(op.scalar).items()]
        + [(-a2 * w, sums.D[r]) for r, w in charge.items()]
    }
    for i in range(n):
        weighted[(i,)] = [(-w, sums.T[r][i]) for r, w in drift.items()] + [
            (-a2 * w, sums.E[r][i]) for r, w in cubic.items()
        ]
    for i in range(n):
        for j in range(i, n):
            scale = -1 if i == j else -2
            weighted[i, j] = [(scale * w, sums.Q[r][i][j]) for r, w in cubic.items()]
    denominator = lcm(*(w.denominator for terms in weighted.values() for w, _ in terms))

    def combine(terms: list[tuple[Fraction, Poly]]) -> dict[Exponents, int]:
        out: dict[Exponents, int] = {}
        for w, structure in terms:
            k = w.numerator * (denominator // w.denominator)
            for e, c in structure.terms.items():
                out[e] = out.get(e, 0) + k * c
        return {e: c for e, c in out.items() if c}

    parts = [(idx, combine(terms)) for idx, terms in weighted.items()]
    return denominator, [(idx, coeff) for idx, coeff in parts if coeff]


def _by_power(poly: Poly) -> dict[int, Coeff]:
    """Coefficients of a univariate polynomial, keyed by the power of z."""
    return {e: c for (e,), c in poly.terms.items()}


def _image(exps: Exponents, parts: list[_Part]) -> dict[Exponents, int]:
    """D L(tau^l), from the integer parts D A_ij, D B_i and D C.

    L(tau^l) = sum_{i<=j} A_ij d_i d_j tau^l + sum_i B_i d_i tau^l + C tau^l,
    d_i d_j tau^l = l_i (l_j - delta_ij) tau^(l - e_i - e_j) and
    d_i tau^l = l_i tau^(l - e_i), so each part shifts its coefficient's
    exponents by the lowered l and scales it by the falling factor.  Returns
    the non-zero integer coefficients of the image.
    """
    out: dict[Exponents, int] = {}
    for idx, coeff in parts:
        weight, lowered = 1, list(exps)
        for k in idx:
            weight *= lowered[k]
            lowered[k] -= 1
        if weight:
            for e, c in coeff.items():
                key = tuple(map(add, e, lowered))
                out[key] = out.get(key, 0) + weight * c
    return {key: k for key, k in out.items() if k}


def raising_coefficient_check(op: GaugedOperator, degree: int, matrix: OperatorMatrix) -> bool:
    """Verify the closed-form degree-raising coefficient at one tau-degree.

    For every basis monomial t of the given degree, the degree-(degree+1)
    part of its image must equal coeff * tau_1 * t exactly, with coeff from
    `raising_coefficient`.  The images are read from the columns of the
    operator's matrix; at the cutoff there is no higher degree in the basis,
    so the coefficient itself must vanish there.
    """
    if not 0 <= degree <= op.cutoff:
        raise ValueError(f"degree must lie in [0, {op.cutoff}], got {degree}")
    expected = raising_coefficient(op.params, op.mask, degree)
    if degree == op.cutoff:
        return expected == 0
    basis = matrix.basis
    for j, exps in enumerate(basis):
        if sum(exps) != degree:
            continue
        raised = (exps[0] + 1,) + exps[1:]
        for i, iexps in enumerate(basis):
            if sum(iexps) != degree + 1:
                continue
            want = expected if iexps == raised else Fraction(0)
            if matrix.entry(i, j) != want:
                return False
    return True


def export_matrix(mat: OperatorMatrix, fmt: str = "json") -> str:
    """Serialize a matrix: exact JSON (round-trips bit-for-bit) or float CSV."""
    if fmt == "json":
        payload = {
            "dim": mat.dim,
            "basis": [list(exps) for exps in mat.basis],
            "entries": [[format_rational(x) for x in row] for row in mat.rows],
        }
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(repr(float(x)) for x in row) for row in mat.rows)
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")


def matrix_from_json(text: str) -> OperatorMatrix:
    """Parse the JSON produced by `export_matrix` back into an exact matrix."""
    payload = json.loads(text)
    monomials = tuple(tuple(int(e) for e in exps) for exps in payload["basis"])
    if not monomials:
        raise ValueError("matrix JSON has an empty basis")
    nvars = len(monomials[0])
    cutoff = max(sum(exps) for exps in monomials)
    basis = enumerate_basis(nvars, cutoff)
    if basis.monomials != monomials:
        raise ValueError("basis in JSON is not a canonical full basis listing")
    rows = tuple(
        tuple(_json_entry(i, j, x) for j, x in enumerate(row))
        for i, row in enumerate(payload["entries"])
    )
    return OperatorMatrix(basis, rows)


def _json_entry(i: int, j: int, x: object) -> Fraction:
    if not isinstance(x, str):
        raise ValueError(f"matrix JSON entry ({i},{j}) is {x!r}, not a rational string")
    return parse_rational(x)
