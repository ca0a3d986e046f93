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
lcm of the weights' denominators and K = sum_j (D c_j) S_j sparse and
integer.  The weights D c_j are the operator's own table,
`GaugedOperator.weights`, which `apply` reads too.  The S_j depend on N and
the cutoff alone: they are formed once per (N, cutoff), on one entry pattern
shared by all of them, from a per-N table of their entries as exponent shifts
in tau-space, and each build sums (D c_j) S_j over it in one numpy pass.  That
table, of int64 rows, is the one per-N copy of the structure sums' terms.
Assembly never passes through z-space; `GaugedOperator.apply` stays the
independent oracle for the term matrices.

Assembling a matrix is itself the closure proof for its parameter point: the
S_j hold every component of the images, those above the cutoff included, and
a non-zero component outside the basis raises OperatorNotClosed.  The exact
linear algebra here is one route, `OperatorMatrix.charpoly`, by Berkowitz's
algorithm in ints and kept on the matrix; `determinant` reads (-1)^n chi_M(0).
`verify` transforms a matrix by similarity with unimodular row and column
operations on K, which keep it integral over D.
Equality and `matches_operator` compare in ints too, and `to_float` forms the
nearest-double image that `spectral` diagonalizes from K and D."""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice, repeat
from math import comb, lcm
from operator import add, mul

import numpy as np

from .errors import OperatorNotClosed
from .operator import TERM_POWERS, GaugedOperator, Term, raising_ratio
from .polynomials import Poly
from .symmetric import BasisIndex, enumerate_basis, pack, structure_sums, unpack


class OperatorMatrix:
    """Exact matrix M = K / D over an ordered tau-monomial basis.

    It stores a positive integer D, not always the least one, and the entries
    k != 0 of K, in no set order, as `positions` (row * dim + column) and
    `values` (int64 if D and every |k| are at most 2**53, else Python ints).
    `OperatorMatrix(basis, rows, denominator=D)` is M = rows / D, for rows of
    ints or Fractions: it stores D times the lcm of their denominators, and K
    the rows times that lcm."""

    def __init__(self, basis: BasisIndex, rows=None, *, denominator: int = 1, entries=None):
        dim = len(basis)
        if entries is None:
            if rows is None or {len(rows), *map(len, rows)} != {dim}:
                raise ValueError("matrix shape does not match basis size")
            flat = [x for row in rows for x in row]
            scale = lcm(*(x.denominator for x in flat))
            denominator *= scale
            positions = [p for p, x in enumerate(flat) if x]
            values = [x.numerator * (scale // x.denominator) for x in flat if x]
            exact = max(0, denominator, *map(abs, values)) <= 2**53
            entries = np.array(positions, np.int64), np.array(values, np.int64 if exact else object)
        self.basis, self.dim, self.denominator = basis, dim, denominator
        self.positions, self.values = entries

    @cached_property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """M as dense rows of `Fraction`, formed when first read; `perfbench/`
        reads it, and nothing in the package does."""
        return tuple(map(tuple, self.dense(Fraction, Fraction(0))))

    def dense(self, convert, zero) -> list[list]:
        """Dense rows: convert(k, D) at each non-zero entry k of K, zero elsewhere."""
        out, dim = [zero] * self.dim**2, self.dim
        for p, k in zip(self.positions.tolist(), self.values.tolist()):
            out[p] = convert(k, self.denominator)
        return [out[i : i + dim] for i in range(0, len(out), dim)]

    def determinant(self) -> Fraction:
        """Exact determinant, (-1)^n chi_M(0) from `charpoly`."""
        return Fraction((-1) ** self.dim * self.charpoly().coefficient((0,)))

    def charpoly(self) -> Poly:
        """chi_M(t) = det(t I - M) exactly, as a one-variable Poly."""
        return self._charpoly

    @cached_property
    def _charpoly(self) -> Poly:
        """Berkowitz's division-free algorithm (Inf. Process. Lett. 18 (1984)
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
        """Same basis, and each entry's k D' equal the other's k' D."""
        if not isinstance(other, OperatorMatrix):
            return NotImplemented
        d, e = self.denominator, other.denominator
        return self.basis.monomials == other.basis.monomials and (
            dict(zip(self.positions.tolist(), map(mul, self.values.tolist(), repeat(e))))
            == dict(zip(other.positions.tolist(), map(mul, other.values.tolist(), repeat(d)))))


def to_float(mat: OperatorMatrix) -> np.ndarray:
    """Nearest-double image of an exact matrix; rejects entries that overflow.

    Each k / D is one correctly rounded division, in doubles where k and D are
    int64 (so at most 2**53 and exact) and in Python ints otherwise, so it
    equals float(Fraction(k, D)) bit for bit; one assignment scatters them.
    """
    d, dim, out = mat.denominator, mat.dim, np.zeros(mat.dim**2)
    try:
        out[mat.positions] = mat.values / d
    except OverflowError:
        for p, k in zip(mat.positions.tolist(), mat.values.tolist()):
            try:
                k / d
            except OverflowError as exc:
                raise ValueError(f"entry ({p // dim},{p % dim}) = {k}/{d} overflows a double"
                                 ) from exc
    return out.reshape(dim, dim)


def build_matrix(op: GaugedOperator) -> OperatorMatrix:
    """Matrix of the operator on the basis of its invariant space, as K / D.

    K = sum_j (D c_j) S_j (`GaugedOperator.weights`) is one `np.add.reduceat`
    over the S_j entries that `_term_basis` keeps per (N, cutoff), in int64 if
    D and sum_j |D c_j| max|S_j|, which bounds every partial sum, are at most
    2**53, else in Python ints.  A non-zero sum outside the basis raises
    OperatorNotClosed naming the first by column and packed code."""
    n, basis = op.nvars, enumerate_basis(op.nvars, op.cutoff)
    keys, largest, term, coef, starts, inside, positions, outside = _term_basis(n, op.cutoff)
    denominator, scaled = op.weights
    weights = list(map(scaled.get, keys, repeat(0)))
    exact = max(denominator, sum(map(mul, map(abs, weights), largest))) <= 2**53
    sums = np.add.reduceat(np.array(weights, np.int64 if exact else object)[term] * coef, starts)
    unclosed = sums[inside:].nonzero()[0]
    if unclosed.size:
        offsets = _term_entries(n)[1]
        column, offset = divmod(int(outside[unclosed[0]]), len(offsets))
        exps, iexps = basis[column], unpack(pack(basis[column]) + offsets[offset], n)
        raise OperatorNotClosed(
            f"image of tau-monomial {exps} contains {iexps} of degree "
            f"{sum(iexps)}, above the cutoff {op.cutoff}"
        )
    kept = sums[:inside].nonzero()[0]
    return OperatorMatrix(basis, denominator=denominator, entries=(positions[kept], sums[kept]))


def matches_operator(op: GaugedOperator, mat: OperatorMatrix) -> bool:
    """The columns of tau-degree <= 2 equal the z-space images `op.apply`.

    Those columns are the images of 1, tau_i and tau_i tau_j, which fix A, B
    and C; every other column follows from them by the tau-space formula.
    So this checks the closed-form coefficients of a built matrix against
    the operator they were derived from, at C(N+2, 2) applications at most.
    Each is applied to D tau^l, D the operator's own denominator
    (`GaugedOperator.weights`), so its image D L(tau^l) comes back in ints,
    and the image times the matrix's denominator d must equal the column of
    K times D, entry by entry; the entries of K are gathered from
    `positions` and `values` in any order.  Both read the same weights, so a
    wrong weight passes: this checks the term matrices and the assembly, not
    the weight table.
    """
    basis, dim, d, scale = mat.basis, mat.dim, mat.denominator, op.weights[0]
    images = {j: {} for j, exps in enumerate(basis) if sum(exps) <= 2}
    for p, k in zip(mat.positions.tolist(), mat.values.tolist()):
        if p % dim in images:
            images[p % dim][basis[p // dim]] = k * scale
    return all({e: c * d for e, c in op.apply(Poly.monomial(basis[j], scale)).terms.items()}
               == image for j, image in images.items())


# A derivative index's (i, j) and delta, and the int64 rows of its entries'
# term indices, offset positions and coefficients (`_term_entries`).
_Group = tuple[tuple[int, int], bool, np.ndarray]


@lru_cache(maxsize=None)
def _term_entries(nvars: int) -> tuple[tuple[Term, ...], tuple[int, ...], np.ndarray,
                                       tuple[_Group, ...]]:
    """The integer terms S_j of `operator.TERM_POWERS`, keyed like
    `GaugedOperator.weights`, the sorted distinct packed offsets of their
    entries (4, 9, 18, 33, 56 and 89 of them for N = 1..6) with each one's
    rise in degree, and their entries grouped by derivative index.

    An entry is one monomial of a term's coefficient of d_idx, idx being (),
    (i,) or (i, j) with i <= j.  As d_i d_j tau^l = l_i (l_j - delta_ij)
    tau^(l - e_i - e_j) and d_i tau^l = l_i tau^(l - e_i), it adds its
    coefficient times the falling factor l'_i (l'_j - delta) to the image of
    tau^l, l' being l with a 1 appended, so that () reads (N, N) with delta 0
    and (i,) reads (i, N).  Its offset, the packed monomial e minus the packed
    product of tau_k over k in idx, added to the packed l gives the monomial
    it contributes to, sum(e) - len(idx) above l in degree (its rise).  Each
    group is ((i, j), delta) and one int64 row each of its entries' term
    indices, offset positions and coefficients.

    For F(tau), F_k = sum_i F_i sigma^k_i and, tau being linear in each z_k,
    F_kk = sum_{i,j} F_ij sigma^k_i sigma^k_j.  Substituted into the z-space
    operator of `GaugedOperator.apply`, with p_r, q_r and s_r the coefficients
    of z^r in the cubic, the gauge charge and the gauge scalar, and the sums of
    `symmetric.StructureSums`, L is sum_{i<=j} A_ij d_i d_j + sum_i B_i d_i + C
    with

        C    = V tau_1 - sum_r s_r P_r - 2a sum_r q_r D_r
        B_i  = -sum_r drift_r T_ri - 2a sum_r p_r E_ri
        A_ij = -(2 - delta_ij) sum_r p_r Q_rij .

    Each product is a weight (V, s_r, 2a q_r, drift_r, 2a p_r, p_r) times a
    parameter-free integer term, listed here by its kind and r: the sums' own
    coefficients times the sign or factor shown, read in place.
    """
    n = nvars
    sums = structure_sums(n)
    terms: dict[Term, list[tuple[tuple[int, ...], int, Poly]]] = {
        ("V", 0): [((), 1, Poly.monomial((1,) + (0,) * (n - 1)))]
    }
    for r in range(len(sums.P)):
        terms["s", r] = [((), -1, sums.P[r])]
        terms["2a.q", r] = [((), -1, sums.D[r])]
        terms["drift", r] = [((i,), -1, sums.T[r][i]) for i in range(n)]
        terms["2a.p", r] = [((i,), -1, sums.E[r][i]) for i in range(n)]
        terms["p", r] = [((i, j), -1 if i == j else -2, sums.Q[r][i][j])
                         for i in range(n) for j in range(i, n)]
    terms = {(kind, r): parts for (kind, r), parts in terms.items() if r <= TERM_POWERS[kind]}
    groups: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    rise = {}
    for t, parts in enumerate(terms.values()):
        for idx, factor, poly in parts:
            shift = pack(tuple(map(idx.count, range(n))))
            for e, c in poly.terms.items():
                offset = pack(e) - shift
                groups.setdefault(idx, []).append((t, offset, factor * c))
                rise[offset] = sum(e) - len(idx)
    offsets = tuple(sorted(rise))
    position = dict(zip(offsets, range(len(offsets))))
    return tuple(terms), offsets, np.array(list(map(rise.get, offsets)), np.int64), tuple(
        ((*idx, n, n)[:2], len(idx) == 2 and idx[0] == idx[1],
         np.array([(t, position[e], c) for t, e, c in entries], np.int64).T)
        for idx, entries in groups.items())


@lru_cache(maxsize=32)
def _term_basis(nvars: int, cutoff: int) -> tuple:
    """The terms S_j of `_term_entries` on the basis of (nvars, cutoff), on one
    entry pattern: the union of their entries, those in the basis first, each
    part in (column, offset) order.

    Each entry of a group adds its coefficient times the group's falling factor
    to every column where that factor is non-zero, outside the basis where the
    offset's rise exceeds the column's room, cutoff - degree; one sort by
    (outside, column, offset, term) and one sum per term entry form the pattern
    in order.  It returns the keys of the terms with entries and each one's
    largest |coefficient|; each entry's key index and int64 coefficient, by
    position; each position's first entry; the number of positions in the
    basis, their row * dim + column, and the column * len(offsets) + offset of
    the others.  The sort's arrays are dropped once used."""
    basis = enumerate_basis(nvars, cutoff)
    keys, offsets, rise, groups = _term_entries(nvars)
    dim, width, size = len(basis), len(offsets), len(keys)
    exps = np.ones((dim, nvars + 1), np.int64)
    exps[:, :nvars] = basis.monomials
    room = cutoff + 1 - exps.sum(1)
    key, contribution = [], []
    for (i, j), delta, (term, position, coefficient) in groups:
        factor = exps[:, i] * (exps[:, j] - delta)
        column = np.flatnonzero(factor)[:, None]
        outside = rise[position] > room[column]
        key.append((((outside * dim + column) * width + position) * size + term).ravel())
        contribution.append((factor[column] * coefficient).ravel())
    key, contribution = np.concatenate(key), np.concatenate(contribution)
    order = np.argsort(key)
    key, contribution = key[order], contribution[order]
    del order
    first = np.flatnonzero(np.diff(key, prepend=-1))
    value = np.add.reduceat(contribution, first)
    del contribution
    nonzero = value != 0
    cell, term = np.divmod(key[first[nonzero]], size)
    del key, first
    value = value[nonzero]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    cells = cell[starts]
    inside = int(np.searchsorted(cells, dim * width))
    column, offset = np.divmod(cells[:inside], width)
    codes = list(basis.row_of)
    targets = map(add, map(codes.__getitem__, column.data), map(offsets.__getitem__, offset.data))
    row = np.fromiter(map(basis.row_of.__getitem__, targets), np.int64, inside)
    largest = np.zeros(size, np.int64)
    np.maximum.at(largest, term, np.abs(value))
    used = np.flatnonzero(largest)
    return (tuple(map(keys.__getitem__, used.tolist())), largest[used].tolist(),
            np.searchsorted(used, term), value, starts, inside, row * dim + column,
            cells[inside:] - dim * width)


def raising_coefficient_check(op: GaugedOperator, degree: int, matrix: OperatorMatrix) -> bool:
    """Verify the closed-form degree-raising coefficient at one tau-degree.

    For every basis monomial t of the given degree, the degree-(degree+1)
    part of its image must equal coeff * tau_1 * t exactly, with coeff = num /
    den from `raising_ratio`: the entries of K in the columns of that degree
    and the rows of the next are exactly {(tau_1 t, t): k} with k den == num D,
    compared in ints.  tau_1 t is the packed code of t plus one.  At the cutoff
    there is no higher degree in the basis, so num itself must vanish.
    """
    if not 0 <= degree <= op.cutoff:
        raise ValueError(f"degree must lie in [0, {op.cutoff}], got {degree}")
    num, den = raising_ratio(op.params, op.mask, degree)
    if degree == op.cutoff:
        return num == 0
    basis, dim, n = matrix.basis, matrix.dim, matrix.basis.nvars
    # the basis goes degree by degree: columns [lo, mid) have this one, rows [mid, hi) next
    lo, mid, hi = comb(n + degree - 1, n), comb(n + degree, n), comb(n + degree + 1, n)
    start, stop, k, row = mid * dim, hi * dim, num * matrix.denominator, basis.row_of
    want = {row[code + 1] * dim + j: k for code, j in islice(row.items(), lo, mid)} if k else {}
    return want == {p: v * den for p, v in zip(matrix.positions.tolist(), matrix.values.tolist())
                    if start <= p < stop and lo <= p % dim < mid}


def export_matrix(mat: OperatorMatrix, fmt: str = "json") -> str:
    """Serialize a matrix: exact JSON, each entry K / D as a rational string, or float CSV.

    The CSV holds the doubles of `to_float`, which raises ValueError naming
    an entry that overflows."""
    if fmt == "json":
        payload = {
            "dim": mat.dim,
            "basis": list(map(list, mat.basis)),
            "entries": mat.dense(lambda k, d: str(Fraction(k, d)), "0"),
        }
        return json.dumps(payload, indent=2)
    if fmt == "csv":
        return "\n".join(map(",".join, map(map, repeat(repr), to_float(mat).tolist())))
    raise ValueError(f"unknown format {fmt!r}; expected 'json' or 'csv'")

