"""Exact matrices of gauged operators on the tau-monomial basis.

Columns are images: entry (i, j) is the coefficient of basis monomial i in
the image of basis monomial j.  On symmetric polynomials the gauged operator
is a second-order differential operator in the elementary-symmetric
coordinates tau,

    L = sum_{i<=j} A_ij d_i d_j + sum_i B_i d_i + C ,

with polynomial coefficients.  A, B and C are fixed linear combinations of
integer tau-polynomials that depend only on N (`symmetric.structure_sums`),
and the parameters enter only through the scalar weights: the coefficients
of the cubic, the gauge charge, the gauge scalar and the couplings.  So
every sector matrix is

    M = sum_j c_j S_j ,

with S_j a parameter-free integer term matrix and c_j the sector's rational
weight of that term.  Each sector sums the entries of the S_j, listed once
per N from the structure sums, into one integer table scaled by its weights
and by D, the lcm of their denominators, and images every basis column from
that table by exponent shifts in tau-space; no column is cached.  Assembly
never passes through z-space, and `GaugedOperator.apply` stays the
independent z-space oracle that checks it.

Assembling a matrix is itself the closure proof for its parameter point.
Every column of every S_j is the full exact image, components above the
cutoff included, and any non-zero component of the combined image outside
the basis raises OperatorNotClosed.  A constructed OperatorMatrix therefore
certifies that the sector's invariant space really is invariant.

The only exact linear algebra on these matrices is
`OperatorMatrix.determinant`, by fraction forward elimination: the product
of the eigenvalues is checked against it, and det(M - t I) at dim + 1
points pins a characteristic polynomial.  `verify` transforms a matrix by
similarity with exact unimodular row and column operations, which need
neither an inverse nor a matrix product."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

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
        """Exact determinant by fraction forward elimination."""
        n = self.dim
        work = [list(row) for row in self.rows]
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
            # column col of the rows below is not read again, so it is left as is
            tail = work[col][col + 1 :]
            for row in work[col + 1 :]:
                factor = row[col] / pval
                if factor:
                    row[col + 1 :] = [x - factor * y for x, y in zip(row[col + 1 :], tail)]
        return det

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        return self.basis.monomials == other.basis.monomials and self.rows == other.rows


def build_matrix(op: GaugedOperator) -> OperatorMatrix:
    """Matrix of the operator on the basis of its invariant space.

    K = sum_j (D c_j) S_j, with c_j the sector's weights (`_weights`) and D
    the lcm of their denominators.  Once per sector, the entries of
    `_term_entries` of non-zero weight are scaled and summed per derivative
    index and monomial.  As d_i d_j tau^l = l_i (l_j - delta_ij)
    tau^(l - e_i - e_j) and d_i tau^l = l_i tau^(l - e_i), column l is each
    summed entry shifted by l and times the falling factor of its index.
    Each non-zero entry is formed once, as k / D.  The images hold every
    component, those above the sector cutoff included, so this raises
    OperatorNotClosed if the image of any basis monomial has a non-zero
    component outside the basis.
    """
    n = op.nvars
    basis = enumerate_basis(n, op.cutoff)
    dim = len(basis)
    codes = [_pack(exps) for exps in basis]
    row_of = {code: i for i, code in enumerate(codes)}
    weights = _weights(op)
    denominator = lcm(*(w.denominator for w in weights.values()))
    scaled = {term: w.numerator * (denominator // w.denominator) for term, w in weights.items()}
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for term, idx, e, c in _term_entries(n):
        k = scaled.get(term)
        if k:
            group = groups.setdefault(idx, {})
            group[e] = group.get(e, 0) + k * c
    rows = [[_ZERO] * dim for _ in range(dim)]
    for col, (exps, code) in enumerate(zip(basis, codes)):
        image: dict[int, int] = {}
        for idx, group in groups.items():
            if not idx:
                f = 1
            elif len(idx) == 1:
                f = exps[idx[0]]
            else:
                i, j = idx
                f = exps[i] * (exps[j] - (i == j))
            if f:
                for e, v in group.items():
                    target = code + e
                    image[target] = image.get(target, 0) + f * v
        for target, v in image.items():
            if not v:
                continue
            row = row_of.get(target)
            if row is None:
                iexps = _unpack(target, n)
                raise OperatorNotClosed(
                    f"image of tau-monomial {exps} contains {iexps} of degree "
                    f"{sum(iexps)}, above the cutoff {op.cutoff}"
                )
            rows[row][col] = Fraction(v, denominator)
    return OperatorMatrix(basis, tuple(map(tuple, rows)))


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


# A term of L: its kind and the power r of z in its weight (0 for V).
_Term = tuple[str, int]

# A tau-monomial packed into one int, _BITS bits per exponent, so that an
# exponent shift is one integer addition.  Exponents stay far below 2**_BITS:
# a basis that reached it could not be stored.
_BITS = 32

# One monomial of a term's coefficient of d_idx, idx being (), (i,) or (i, j)
# with i <= j: the term, idx, the packed monomial minus the packed product of
# tau_k over k in idx, and its integer coefficient.  Adding the packed l gives
# the monomial it contributes to the image of tau^l.
_Entry = tuple[_Term, tuple[int, ...], int, int]


def _pack(exps: Exponents) -> int:
    return sum(e << (_BITS * k) for k, e in enumerate(exps))


def _unpack(code: int, nvars: int) -> Exponents:
    return tuple((code >> (_BITS * k)) & ((1 << _BITS) - 1) for k in range(nvars))


def _weights(op: GaugedOperator) -> dict[_Term, Coeff]:
    """The sector's non-zero weight c_j of each term of L.

    For F(tau), F_k = sum_i F_i sigma^k_i and, tau being linear in each z_k,
    F_kk = sum_{i,j} F_ij sigma^k_i sigma^k_j.  Substituted into the z-space
    operator of `GaugedOperator.apply`, with p_r, p'_r, q_r and s_r the
    coefficients of z^r in the cubic, its derivative, the gauge charge and
    the gauge scalar, and the sums of `symmetric.StructureSums`, L is
    sum_{i<=j} A_ij d_i d_j + sum_i B_i d_i + C with

        C    = V tau_1 - sum_r s_r P_r - 2a sum_r q_r D_r
        B_i  = -sum_r drift_r T_ri - 2a sum_r p_r E_ri
        A_ij = -(2 - delta_ij) sum_r p_r Q_rij

    and drift = 2q + (b + 1/2) p'.  Each product is a rational weight (V,
    s_r, 2a q_r, drift_r, 2a p_r, p_r) times a parameter-free integer term
    (`_term_entries`), keyed by the term's kind and r.
    """
    a2 = 2 * op.params.coupling_a
    drift = 2 * op.charge + (op.params.coupling_b + Fraction(1, 2)) * op.cubic_prime
    weights = {("V", 0): potential_coefficient(op.params)}
    for kind, poly, scale in (
        ("s", op.scalar, 1),
        ("2a.q", op.charge, a2),
        ("drift", drift, 1),
        ("2a.p", op.cubic, a2),
        ("p", op.cubic, 1),
    ):
        for (r,), c in poly.terms.items():
            weights[kind, r] = scale * c
    return {term: w for term, w in weights.items() if w}


@lru_cache(maxsize=None)
def _term_entries(nvars: int) -> tuple[_Entry, ...]:
    """The entries of every integer term of `_weights`, from the structure sums."""
    n = nvars
    sums = structure_sums(n)
    terms: dict[_Term, list[tuple[tuple[int, ...], Poly]]] = {
        ("V", 0): [((), Poly.monomial((1,) + (0,) * (n - 1)))]
    }
    for r in range(len(sums.P)):
        terms["s", r] = [((), -sums.P[r])]
        terms["2a.q", r] = [((), -sums.D[r])]
        terms["drift", r] = [((i,), -sums.T[r][i]) for i in range(n)]
        terms["2a.p", r] = [((i,), -sums.E[r][i]) for i in range(n)]
        terms["p", r] = [
            ((i, j), (-1 if i == j else -2) * sums.Q[r][i][j])
            for i in range(n)
            for j in range(i, n)
        ]
    return tuple(
        (term, idx, _pack(e) - sum(1 << (_BITS * k) for k in idx), c)
        for term, parts in terms.items()
        for idx, poly in parts
        for e, c in poly.terms.items()
    )


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
