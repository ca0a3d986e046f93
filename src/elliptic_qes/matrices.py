"""Exact matrices of gauged operators on the tau-monomial basis.

Columns are images: entry (i, j) is the coefficient of basis monomial i in
the image of basis monomial j.  On symmetric polynomials the gauged operator
is a second-order differential operator in the elementary-symmetric
coordinates tau,

    L = sum_{i<=j} A_ij d_i d_j + sum_i B_i d_i + C ,

whose coefficients combine integer tau-polynomials fixed by N
(`symmetric.structure_sums`) with scalar weights from the parameters.  So a
sector matrix is M = sum_j c_j S_j, with S_j a parameter-free integer term
matrix and c_j a rational weight, and it is stored as M = K / D, with D the
lcm of the weights' denominators and K = sum_j (D c_j) S_j integer sparse
columns.  Each sector sums the entries of its S_j once, in ints, and images
every basis column from them by exponent shifts in tau-space.  Assembly never
passes through z-space; `GaugedOperator.apply` stays the independent oracle.

Assembling a matrix is itself the closure proof for its parameter point:
every column is the full exact image, components above the cutoff included,
and a non-zero component outside the basis raises OperatorNotClosed.  The exact
linear algebra here is `OperatorMatrix.determinant`, by fraction forward
elimination, and `OperatorMatrix.charpoly`, by Berkowitz's algorithm in ints;
`verify` transforms a matrix by similarity with unimodular row and column
operations on K, which keep it integral over D.
Equality and `matches_operator` compare in ints too, and `to_float` forms the
nearest-double image that `spectral` diagonalizes from K and D."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

import numpy as np

from .errors import OperatorNotClosed
from .operator import GaugedOperator, raising_coefficient
from .polynomials import Exponents, Poly, parse_rational
from .symmetric import BasisIndex, enumerate_basis, structure_sums


class OperatorMatrix:
    """Exact matrix M = K / D over an ordered tau-monomial basis.

    It stores a positive integer D, not always the least one, and the integer
    matrix K as columns of (row index, k) pairs, k != 0.  `OperatorMatrix(basis,
    rows)` derives D and K from dense rational rows; `rows` is built when read.
    """

    def __init__(self, basis: BasisIndex, rows=None, *, denominator: int = 1, columns=()):
        if ({len(columns)} if rows is None else {len(rows), *map(len, rows)}) != {len(basis)}:
            raise ValueError("matrix shape does not match basis size")
        if rows is not None:
            denominator = lcm(*(x.denominator for row in rows for x in row))
            columns = tuple(tuple((i, x.numerator * (denominator // x.denominator))
                                  for i, x in enumerate(col) if x) for col in zip(*rows))
        self.basis, self.dim = basis, len(basis)
        self.denominator, self.columns = denominator, columns

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(map(tuple, self.dense(Fraction, Fraction(0))))

    def dense(self, convert, zero) -> list[list]:
        """Dense rows: convert(k, D) at each non-zero entry k of K, zero elsewhere."""
        out = [[zero] * self.dim for _ in range(self.dim)]
        for j, column in enumerate(self.columns):
            for i, k in column:
                out[i][j] = convert(k, self.denominator)
        return out

    def trace(self) -> Fraction:
        diagonal = (k for j, column in enumerate(self.columns) for i, k in column if i == j)
        return Fraction(sum(diagonal), self.denominator)

    def determinant(self) -> Fraction:
        """Exact determinant by fraction forward elimination, seeded from K / D."""
        n = self.dim
        work = self.dense(Fraction, Fraction(0))
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

    def charpoly(self) -> Poly:
        """chi_M(t) = det(t I - M) exactly, as a one-variable Poly.

        Berkowitz's division-free algorithm (Inf. Process. Lett. 18 (1984)
        147) forms chi_K in Python ints, growing the leading principal block
        of K one row and column at a time; then chi_M(t) = chi_K(D t) / D^n.
        """
        k = self.dense(lambda x, _: x, 0)
        chi = [1]  # chi_K of the leading j x j block, highest power first
        for j, row in enumerate(k):
            # the block [[A, s], [r, k_jj]] multiplies chi_A by the Toeplitz
            # matrix of 1, -k_jj, -r s, -r A s, ..., -r A^(j-1) s
            # (map stops at the shorter argument, so rows are cut to the block)
            toeplitz, col = [1, -row[j]], [above[j] for above in k[:j]]
            for _ in range(j):
                toeplitz.append(-sum(map(mul, row, col)))
                col = [sum(map(mul, above, col)) for above in k[:j]]
            chi = [sum(toeplitz[i - l] * c for l, c in enumerate(chi[: i + 1]))
                   for i in range(j + 2)]
        d = self.denominator
        return Poly(1, {(self.dim - i,): Fraction(c, d**i) for i, c in enumerate(chi)})

    def __eq__(self, other: object) -> bool:
        """Same basis, and each column's k D' equal the other's k' D."""
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        d, e = self.denominator, other.denominator
        return self.basis.monomials == other.basis.monomials and all(
            {i: k * e for i, k in mine} == {i: k * d for i, k in theirs}
            for mine, theirs in zip(self.columns, other.columns))


def to_float(mat: OperatorMatrix) -> np.ndarray:
    """Nearest-double image of an exact matrix; rejects entries that overflow.

    Each non-zero entry is k / D in Python ints, whose true division is
    correctly rounded, so it equals float(Fraction(k, D)) bit for bit.  The
    doubles are scattered into an array of zeros in one numpy assignment.
    """
    d = mat.denominator
    rows, cols, values = [], [], []
    for j, column in enumerate(mat.columns):
        for i, k in column:
            try:
                values.append(k / d)
            except OverflowError as exc:
                raise ValueError(f"entry ({i},{j}) = {k}/{d} overflows a double") from exc
            rows.append(i)
            cols.append(j)
    out = np.zeros((mat.dim, mat.dim), dtype=float)
    out[rows, cols] = values
    return out


def build_matrix(op: GaugedOperator) -> OperatorMatrix:
    """Matrix of the operator on the basis of its invariant space, as K / D.

    K = sum_j (D c_j) S_j, with c_j the sector's weights and D the lcm of
    their denominators (`_weights`).  Once per sector, the entries of
    `_term_entries` of non-zero weight are scaled and summed per derivative
    index and monomial.  As d_i d_j tau^l = l_i (l_j - delta_ij)
    tau^(l - e_i - e_j) and d_i tau^l = l_i tau^(l - e_i), column l of K is
    each summed entry shifted by l and times the falling factor of its index.
    The images hold every component, those above the sector cutoff included,
    so this raises OperatorNotClosed if the image of any basis monomial has a
    non-zero component outside the basis.
    """
    n = op.nvars
    basis = enumerate_basis(n, op.cutoff)
    row_of = {_pack(exps): i for i, exps in enumerate(basis)}
    denominator, scaled = _weights(op)
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for term, idx, e, c in _term_entries(n):
        k = scaled.get(term)
        if k:
            group = groups.setdefault(idx, {})
            group[e] = group.get(e, 0) + k * c
    columns = []
    for exps, code in zip(basis, row_of):
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
        try:
            columns.append(tuple((row_of[target], v) for target, v in image.items() if v))
        except KeyError as exc:
            iexps = _unpack(exc.args[0], n)
            raise OperatorNotClosed(
                f"image of tau-monomial {exps} contains {iexps} of degree "
                f"{sum(iexps)}, above the cutoff {op.cutoff}"
            ) from None
    return OperatorMatrix(basis, denominator=denominator, columns=tuple(columns))


def matches_operator(op: GaugedOperator, mat: OperatorMatrix) -> bool:
    """The columns of tau-degree <= 2 equal the z-space images `op.apply`.

    Those columns are the images of 1, tau_i and tau_i tau_j, which fix A, B
    and C; every other column follows from them by the tau-space formula.
    So this checks the closed-form coefficients of a built matrix against
    the operator they were derived from, at C(N+2, 2) applications at most.
    """
    basis, d = mat.basis, mat.denominator
    return all(
        op.apply(Poly.monomial(exps)) * d
        == Poly(op.nvars, {basis[i]: k for i, k in mat.columns[j]})
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


def _weights(op: GaugedOperator) -> tuple[int, dict[_Term, int]]:
    """The sector's D and its non-zero scaled weight D c_j of each term of L.

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
    (`_term_entries`), keyed by the term's kind and r.  With a, b, m = A, B,
    M over c and p, q, s over u, each weight is an integer over 2 u c^2, e.g.
    V = M (12B + 8A(N-1) + 4M + 2c) / c^2; the gcd reduction leaves D.
    """
    prm = op.params
    c = lcm(*(x.denominator for x in (prm.coupling_a, prm.coupling_b, prm.degree_m)))
    a, b, m = (x.numerator * (c // x.denominator)
               for x in (prm.coupling_a, prm.coupling_b, prm.degree_m))
    polys = (op.scalar, op.charge, op.cubic)
    u = lcm(*(x.denominator for poly in polys for x in poly.terms.values()))
    s, q, p = ({r: x.numerator * (u // x.denominator) for (r,), x in poly.terms.items()}
               for poly in polys)
    one, two_a = 2 * c * c, 4 * a * c
    weights = {("V", 0): 2 * u * m * (12 * b + 8 * a * (prm.nvars - 1) + 4 * m + 2 * c)}
    for kind, coeffs, f in (("s", s, one), ("2a.q", q, two_a), ("2a.p", p, two_a), ("p", p, one)):
        weights.update(((kind, r), f * x) for r, x in coeffs.items())
    for r in range(4):  # the powers of z that `_term_entries` lists
        weights["drift", r] = 2 * one * q.get(r, 0) + (2 * b + c) * c * (r + 1) * p.get(r + 1, 0)
    g = gcd(u * one, *weights.values())
    return u * one // g, {term: w // g for term, w in weights.items() if w}


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
    `raising_coefficient`: the degree-(degree+1) entries of column t of K
    are exactly {tau_1 t: coeff D}.  At the cutoff there is no higher degree
    in the basis, so the coefficient itself must vanish there.
    """
    if not 0 <= degree <= op.cutoff:
        raise ValueError(f"degree must lie in [0, {op.cutoff}], got {degree}")
    expected = raising_coefficient(op.params, op.mask, degree)
    if degree == op.cutoff:
        return expected == 0
    basis = matrix.basis
    k = expected * matrix.denominator
    for j, exps in enumerate(basis):
        if sum(exps) != degree:
            continue
        want = {basis.index_of((exps[0] + 1,) + exps[1:]): k} if k else {}
        if {i: v for i, v in matrix.columns[j] if sum(basis[i]) == degree + 1} != want:
            return False
    return True


def export_matrix(mat: OperatorMatrix, fmt: str = "json") -> str:
    """Serialize a matrix: exact JSON (round-trips bit-for-bit) or float CSV.

    The CSV holds the doubles of `to_float`, which raises ValueError naming
    an entry that overflows."""
    if fmt == "json":
        payload = {
            "dim": mat.dim,
            "basis": [list(exps) for exps in mat.basis],
            "entries": mat.dense(lambda k, d: str(Fraction(k, d)), "0"),
        }
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return "\n".join(",".join(map(repr, row)) for row in to_float(mat).tolist())
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
