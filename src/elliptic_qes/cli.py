"""Command-line interface.

Subcommands:

  matrix          exact sector matrix as JSON or float CSV
  spectrum        eigenvalues of one sector or of every valid sector
  sweep           eigenvalues along an exact rational parameter grid
  masks           the eight gauge sectors with their cutoffs and dimensions
  eigenfunctions  gauge prefactor and polynomial factor of each eigenstate
  verify          the built-in verification suite

All rational inputs ("3", "-1/2", "0.25") are parsed exactly; sweeps place
their grid points exactly as lo + k (hi - lo)/(steps - 1) and build each
sector at its first two; a later point on their weight line gets the exact
combination of their matrices, which proves its closure as a build would.
Before building or counting anything, every command but verify refuses N above
MAX_PARTICLES; matrix, spectrum, sweep and eigenfunctions also sum the basis
dimensions of their sectors over every grid point and refuse a total above
MAX_TOTAL_DIMENSION, and matrix refuses a z-space self-check above
MAX_CHECK_WORK.  A sector dimension, or a sweep's total, with more digits than
Python will print refuses --m or --range.  spectrum and sweep make one
`SectorRecord` per sector and grid point and write it by one CSV renderer or a
JSON template; an eigenvalue that is NaN or infinite is refused, not printed.
Exit codes: 0 success, 1 a verification or convergence failure (such an
eigenvalue included), 2 a parameter error or a refused size.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidDegree,
    NoConvergence,
    NonCancellingPole,
    NotSymmetric,
    OperatorNotClosed,
)
from .matrices import OperatorMatrix, build_matrix, export_matrix, matches_operator, to_float
from .model import ALL_MASKS, GaugeMask, ModelParams, list_valid_masks
from .operator import build_gauged_operator
from .oracles import epsilon_roots
from .polynomials import Exponents, parse_rational
from .spectral import eigenvector, spectrum_of
from .verify import CHECK_NAMES, report_json, run_checks

# Largest total basis dimension one command may build and diagonalize, summed
# over its sectors and grid points.  `spectrum` at N=6, m=6 over all masks
# (2310) takes 0.9-1.2 s and peaks at 48.5-48.9 MB in one fresh process on a
# 2-core VM (OPENBLAS_NUM_THREADS=1); N=7, m=6 (4092) and N=8, m=8 (32175)
# are refused.
MAX_TOTAL_DIMENSION = 3000

# Largest particle number N one command may build.  The dimension budget does
# not bound N at cutoff 0 or 1, where the work still grows with N: `spectrum
# --n 32 --m 0 --mask none` takes 1.3 s in one fresh process on the same VM,
# and --n 48 takes 4.5 s and 97 MB.
MAX_PARTICLES = 32

# Largest work `matrix` may spend checking its columns 1, tau_i, tau_i tau_j
# against `GaugedOperator.apply`: C(N, 2) pair divisions times a bound on their
# z-space terms, 1 + sum_i C(N, i) + sum_{i<=j} C(N, i) C(N, j).  `matrix --mask
# none --a=1/3` takes 0.38-0.43 s at N=6, m=2 (37650) and 0.50-0.54 s at N=10,
# m=1 (46080) in one fresh process on the same VM; N=7, m=2 (208068, 0.8-1.1 s
# with the limit lifted) and N=11, m=1 (112640, 0.74-0.76 s) are refused.
MAX_CHECK_WORK = 50_000


def _parse_roots(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ValueError(f"--roots needs three comma-separated rationals, got {text!r}")
    e1, e2, e3 = (parse_rational(p) for p in parts)
    return (e1, e2, e3)


def _parse_range(text: str) -> tuple[Fraction, Fraction, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--range must be lo:hi:steps, got {text!r}")
    lo, hi = parse_rational(parts[0]), parse_rational(parts[1])
    try:
        steps = int(parts[2])
    except ValueError:
        raise ValueError(f"--range steps must be a positive integer, got {parts[2]!r}") from None
    if steps < 1:
        raise ValueError(f"--range needs at least one step, got {steps}")
    return lo, hi, steps


def _grid(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    if steps == 1:
        return [lo]
    return [lo + Fraction(k, steps - 1) * (hi - lo) for k in range(steps)]


def _selected_masks(params: ModelParams, text: str) -> list[GaugeMask]:
    """Resolve a --mask value: 'all' means every valid sector, anything else
    names one mask that must itself be valid."""
    if text.strip().lower() == "all":
        masks = list(list_valid_masks(params))
        if not masks:
            raise InvalidDegree(
                f"no gauge sector of m={params.degree_m}, "
                f"b={params.coupling_b} has an integer cutoff"
            )
        return masks
    return [GaugeMask.from_string(text)]


def _dimension(params: ModelParams, mask: GaugeMask) -> int:
    """The sector's basis dimension, refused when Python will not write it in
    decimal (more digits than `sys.get_int_max_str_digits`)."""
    dimension = params.basis_dimension(mask)
    try:
        str(dimension)
    except ValueError:
        raise ValueError(f"--m = {params.degree_m} gives a sector dimension with too many "
                         "digits to print") from None
    return dimension


def _check_budget(params: ModelParams, masks: list[GaugeMask], points: int = 1,
                  *, z_space: bool = False) -> None:
    """Refuse N above MAX_PARTICLES, work above MAX_TOTAL_DIMENSION and, with
    ``z_space`` (`matrix`), a z-space check above MAX_CHECK_WORK, before
    anything is built.  Every mask's cutoff is decided first, so an invalid mask
    raises InvalidDegree before a sweep forms its grid."""
    n = params.nvars
    if n > MAX_PARTICLES:
        raise ValueError(f"N = {n} is above the limit of {MAX_PARTICLES} particles")
    cutoffs = [params.cutoff(mask) for mask in masks]
    total = points * sum(_dimension(params, mask) for mask in masks)
    if total > MAX_TOTAL_DIMENSION:
        try:
            text = str(total)
        except ValueError:
            flag = "--range" if points > 1 else f"--m = {params.degree_m}"
            raise ValueError(f"{flag} gives a total dimension with too many digits to "
                             "print") from None
        raise ValueError(f"the requested sectors have total dimension {text}, above the limit "
                         f"{MAX_TOTAL_DIMENSION}")
    s = 2**n - 1  # sum_i C(N, i), and sum_i C(N, i)^2 = C(2N, N) - 1
    for cutoff in cutoffs if z_space else []:
        terms = 1 + s * (cutoff >= 1) + (s * s + comb(2 * n, n) - 1) // 2 * (cutoff >= 2)
        if (work := comb(n, 2) * terms) > MAX_CHECK_WORK:
            raise ValueError(f"the z-space check takes work {work}, above the limit "
                             f"{MAX_CHECK_WORK}")


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _params_from(args: argparse.Namespace) -> ModelParams:
    roots = _parse_roots(args.roots)
    return ModelParams(
        args.n,
        parse_rational(args.a),
        parse_rational(args.b),
        parse_rational(args.m),
        roots,
    )


def _params_payload(params: ModelParams) -> dict:
    return {
        "nvars": params.nvars,
        "a": str(params.coupling_a),
        "b": str(params.coupling_b),
        "m": str(params.degree_m),
        "roots": [str(e) for e in params.roots],
    }


# -- subcommands -----------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mask = GaugeMask.from_string(args.mask)
    _check_budget(params, [mask], z_space=True)
    op = build_gauged_operator(params, mask)
    mat = build_matrix(op)
    if not matches_operator(op, mat):
        print("error: the tau-space matrix differs from the z-space images", file=sys.stderr)
        return 1
    _emit(export_matrix(mat, args.format), args.out)
    return 0


class SectorRecord(NamedTuple):
    """What `spectrum` and `sweep` print of one sector: its mask text, cutoff,
    dimension and the eigenvalues of its `Spectrum`."""

    mask: str
    cutoff: int
    dimension: int
    values: tuple[complex, ...]


def _weight_line(first, second):
    """A function from an operator to its exact matrix, or None, given two
    built (operator, matrix) pairs with weight tables c0 and c1.

    An operator on the same basis with c = (1 - t) c0 + t c1 has the matrix
    (1 - t) M0 + t M1 and is closed, since assembly is linear in the weights.
    With x_j = (c_j - c0_j) D D0 D1, y_j = (c1_j - c0_j) D0 D1 and a pivot p
    where y_p != 0, the identity holds, at t = x_p / (D y_p), iff
    x_j y_p == x_p y_j for every term j; it is then alpha K0 + beta K1 over
    one denominator, on the union of the two patterns formed here once, each
    column in ascending packed code as `build_matrix` lists it.  None means
    the identity fails, the basis differs or the two tables are equal.
    """
    (op0, mat0), (op1, mat1) = first, second
    (d0, u), (d1, v) = op0.weights, op1.weights
    y = {}
    for j in {**u, **v}:
        y[j] = v.get(j, 0) * d0 - u.get(j, 0) * d1
    p = next(filter(y.get, y), None)
    code = tuple(mat0.basis.row_of).__getitem__
    pattern = []
    for c0, c1 in zip(mat0.columns, mat1.columns):
        k0, k1 = dict(c0), dict(c1)
        zeros = dict.fromkeys(sorted(k0.keys() | k1.keys(), key=code), 0)
        pattern.append(tuple(zip(zeros, (zeros | k0).values(), (zeros | k1).values())))

    def combined(op):
        d, w = op.weights
        if p is None or (op.nvars, op.cutoff) != (op0.nvars, op0.cutoff):
            return None
        xp, yp = (w.get(p, 0) * d0 - d * u.get(p, 0)) * d1, y[p]
        for j in {**y, **w}:
            if (w.get(j, 0) * d0 - d * u.get(j, 0)) * d1 * yp != xp * y.get(j, 0):
                return None
        alpha, beta, e = (d * yp - xp) * d1, xp * d0, d * yp * d0 * d1
        g = gcd(alpha, beta, e) if e > 0 else -gcd(alpha, beta, e)
        alpha, beta, columns = alpha // g, beta // g, []
        for column in pattern:
            entries = []
            for i, a, b in column:
                if k := alpha * a + beta * b:
                    entries.append((i, k))
            columns.append(tuple(entries))
        return OperatorMatrix(mat0.basis, denominator=e // g, columns=tuple(columns))

    return combined


def _finite(record: SectorRecord) -> tuple[complex, ...]:
    """The record's eigenvalues; a NaN or infinite one raises NoConvergence, so no
    renderer prints nan, inf, NaN or Infinity."""
    finite = np.isfinite(record.values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NoConvergence(f"sector {record.mask}: eigenvalue {i} is {record.values[i]}, "
                            "not finite")
    return record.values


# The JSON renderers fill these templates with what json.dumps(payload,
# indent=2) wrote, without its pure-Python encoder: %r writes a finite float
# as json does, and `_json_text` C-encodes a string.  No list they fill is
# empty: every sweep has a grid point, every command a sector and every sector
# an eigenvalue.
_SPECTRUM_JSON = """\
{
  "params": {
    "nvars": %d,
    "a": %s,
    "b": %s,
    "m": %s,
    "roots": [
      %s,
      %s,
      %s
    ]
  },
  "sectors": [
%s
  ]
}"""
_SECTOR_JSON = """\
    {
      "mask": %s,
      "cutoff": %d,
      "dimension": %d,
      "eigenvalues": [
%s
      ]
    }"""
_EIGENVALUE_JSON = """\
        {
          "re": %r,
          "im": %r
        }"""
_SWEEP_JSON = """\
{
  "sweep_var": %s,
  "rows": [
%s
  ]
}"""
_SWEEP_ROW_JSON = """\
    {
      "value": %s,
      "mask": %s,
      "eig_index": %d,
      "re": %r,
      "im": %r
    }"""


def _json_text(x: object) -> str:
    return json.dumps(str(x))


def _spectrum_json(params: ModelParams, records: list[SectorRecord]) -> str:
    texts = (params.coupling_a, params.coupling_b, params.degree_m, *params.roots)
    sectors = ",\n".join(
        _SECTOR_JSON % (_json_text(r.mask), r.cutoff, r.dimension, ",\n".join(
            [_EIGENVALUE_JSON % (v.real, v.imag) for v in _finite(r)]))
        for r in records)
    return _SPECTRUM_JSON % (params.nvars, *map(_json_text, texts), sectors)


def _eigenvalue_csv(columns: str, records: list[tuple[str, SectorRecord]]) -> str:
    """One CSV line per eigenvalue: the header names ``columns`` before
    mask,eig_index,re,im, and each line writes its record's prefix there."""
    lines = [columns + "mask,eig_index,re,im"]
    for prefix, r in records:
        head = f"{prefix}{r.mask},"
        lines.extend(f"{head}{i},{v.real!r},{v.imag!r}" for i, v in enumerate(_finite(r)))
    return "\n".join(lines)


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params_from(args)
    masks = _selected_masks(params, args.mask)
    _check_budget(params, masks)
    records = []
    for mask in masks:
        mat = build_matrix(build_gauged_operator(params, mask))
        records.append(SectorRecord(str(mask), params.cutoff(mask), mat.dim,
                                    spectrum_of(mat).values))
    if args.format == "json":
        _emit(_spectrum_json(params, records), args.out)
    else:
        _emit(_eigenvalue_csv("", [("", r) for r in records]), args.out)
    return 0


def _sweep_json(sweep_var: str, points: list[tuple[Fraction, SectorRecord]]) -> str:
    rows = []
    for value, r in points:
        value_text, mask_text = _json_text(value), _json_text(r.mask)
        rows.extend(_SWEEP_ROW_JSON % (value_text, mask_text, i, v.real, v.imag)
                    for i, v in enumerate(_finite(r)))
    return _SWEEP_JSON % (_json_text(sweep_var), ",\n".join(rows))


def cmd_sweep(args: argparse.Namespace) -> int:
    """Spectra along an exact grid, one record per grid point and sector, in
    grid-then-mask order.  --sweep-var epsilon moves the roots along
    (2, -1+eps, -1-eps) and rejects explicit --roots; --sweep-var a sweeps the
    interaction coupling over fixed roots.  Each sector is built at its first
    two grid points, and a later point off their weight line (`_weight_line`)
    is built too: every weight is affine in a, so an a-sweep builds each
    sector twice, and an epsilon sweep those whose weights are affine in
    eps^2."""
    lo, hi, steps = _parse_range(args.range)
    roots = _parse_roots(args.roots) if args.roots is not None else None
    if args.sweep_var == "a" and args.a is not None:
        raise ValueError("the swept coupling comes from --range; drop --a")
    m = parse_rational(args.m)
    a = parse_rational(args.a) if args.a is not None else Fraction(0)
    b = parse_rational(args.b)
    if args.sweep_var == "epsilon" and roots is not None:
        raise ValueError("an epsilon sweep fixes the root family; drop --roots")

    def params_at(value: Fraction) -> ModelParams:
        if args.sweep_var == "epsilon":
            return ModelParams(args.n, a, b, m, epsilon_roots(value))
        return ModelParams(args.n, value, b, m, roots or (2, -1, -1))

    # every grid point has the same sectors: they depend on N, m and b only
    first = params_at(lo)
    masks = _selected_masks(first, args.mask)
    _check_budget(first, masks, steps)
    firsts, lines = {}, {}  # each sector's first (operator, matrix), then its weight line
    points = []
    for value in _grid(lo, hi, steps):
        params = params_at(value)
        for mask in masks:
            op = build_gauged_operator(params, mask)
            mat = lines[mask](op) if mask in lines else None
            if mat is None:
                mat = build_matrix(op)
                if mask in firsts and mask not in lines:
                    lines[mask] = _weight_line(firsts[mask], (op, mat))
                firsts.setdefault(mask, (op, mat))
            points.append((value, SectorRecord(str(mask), op.cutoff, mat.dim,
                                               spectrum_of(mat).values)))
    if args.format == "csv":
        _emit(_eigenvalue_csv("sweep_value,", [(f"{float(v)!r},", r) for v, r in points]),
              args.out)
    else:
        _emit(_sweep_json(args.sweep_var, points), args.out)
    return 0


def cmd_masks(args: argparse.Namespace) -> int:
    params = _params_from(args)
    _check_budget(params, [])
    records = []
    for mask in ALL_MASKS:
        cutoff = params.shifted_degree(mask)
        valid = params.sector_is_valid(mask)
        records.append(
            {
                "mask": str(mask),
                "cutoff": str(cutoff),
                "dimension": _dimension(params, mask) if valid else None,
                "valid": valid,
            }
        )
    if args.format == "json":
        _emit(json.dumps({"params": _params_payload(params), "masks": records}, indent=2), args.out)
    else:
        lines = ["mask  cutoff  dimension  valid"]
        for r in records:
            dim = "-" if r["dimension"] is None else str(r["dimension"])
            lines.append(
                f"{r['mask']:<5} {r['cutoff']:>6}  {dim:>9}  {'yes' if r['valid'] else 'no'}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def _monomial_name(exponents: Exponents) -> str:
    if not any(exponents):
        return "1"
    parts = []
    for i, e in enumerate(exponents):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    return "*".join(parts)


def _gauge_prefix_text(params: ModelParams, mask: GaugeMask) -> str:
    exponent = params.gauge_exponent()
    if not mask.indices or exponent == 0:
        return "1"
    factors = []
    for i in mask.indices:
        e = params.roots[i - 1]
        if e == 0:
            base = "z_k"
        elif e > 0:
            base = f"(z_k - {e})"
        else:
            base = f"(z_k + {-e})"
        factors.append(f"{base}^({exponent})")
    return "prod_k " + " * ".join(factors)


def cmd_eigenfunctions(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mask = GaugeMask.from_string(args.mask)
    _check_budget(params, [mask])
    mat = build_matrix(build_gauged_operator(params, mask))
    spectrum, vectors = eigenvector(to_float(mat))
    lines = [
        f"sector mask {mask}: cutoff {params.cutoff(mask)}, "
        f"dimension {mat.dim}",
        f"gauge prefix: {_gauge_prefix_text(params, mask)}",
    ]
    factors = _polynomial_factors(vectors, [_monomial_name(exps) for exps in mat.basis])
    for value, text in zip(spectrum.values, factors, strict=True):
        value_text = (
            f"{value.real:.9g}" if abs(value.imag) < 1e-9 else f"{value.real:.9g}{value.imag:+.9g}j"
        )
        lines.append(f"eigenvalue {value_text}: polynomial factor {text}")
    _emit("\n".join(lines), args.out)
    return 0


# A printed term by kind 0-2: positive, negative, complex; kinds 3-5 open a factor.
_TERM_PIECES = (" + %.9g", " - %.9g", " + (%.9g%+.9gj)", "\n%.9g", "\n-%.9g", "\n(%.9g%+.9gj)")


def _polynomial_factors(vectors: np.ndarray, names: list[str]) -> list[str]:
    """The text of each column of ``vectors`` over the monomials ``names``, scaled
    so that its entry of largest modulus is real and positive, without terms
    below 1e-12 or imaginary parts below 1e-9.  One ``%`` fills one template
    for all columns from one flat tuple of floats: each term's value, then its
    imaginary part if it has one."""
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    terms = (vectors / (peaks / np.abs(peaks))).T  # one row per column, walked in order
    re, im = terms.real, terms.imag
    real = np.abs(im) < 1e-9
    negative = real & (re < 0)
    printed = np.abs(terms) >= 1e-12
    kind = np.where(real, negative, 2) + 3 * (np.cumsum(printed, axis=1) == 1)
    suffixes = ["" if name == "1" else "*" + name for name in names]
    pieces = np.array([[piece + s for piece in _TERM_PIECES] for s in suffixes], dtype=object)
    template = "".join(pieces[np.nonzero(printed)[1], kind[printed]])
    keep = np.stack([printed, printed & ~real], -1)  # a value, then the imaginary part if complex
    slots = np.stack([np.where(negative, -re, re), im], -1)[keep]
    return (template % tuple(slots.tolist())).split("\n")[1:]


def cmd_verify(args: argparse.Namespace) -> int:
    only = None
    if args.only is not None:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    results = run_checks(only=only)
    if args.format == "json":
        _emit(json.dumps(report_json(results), indent=2), args.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        ok = all(r.passed for r in results)
        lines.append(f"{len(results)} checks, {'all passed' if ok else 'FAILURES PRESENT'}")
        _emit("\n".join(lines), args.out)
    return 0 if all(r.passed for r in results) else 1


# -- parser ------------------------------------------------------------------------

_A_HELP = "interaction coupling a, exact rational (default 0)"


def _add_param_flags(sub: argparse.ArgumentParser, *, roots_default: str | None) -> None:
    sub.add_argument("--n", type=int, default=2, help="number of variables (default 2)")
    sub.add_argument(
        "--m",
        default="2",
        help="degree parameter, exact rational (default 2)",
    )
    sub.add_argument(
        "--b",
        default="0",
        help="external coupling b, exact rational (default 0)",
    )
    sub.add_argument(
        "--roots",
        default=roots_default,
        help="three cubic roots e1,e2,e3 summing to zero (default 2,-1,-1)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="elliptic-qes",
        description="Exact sector matrices and spectra of a quasi-exactly-solvable "
        "elliptic many-body operator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser(
        "matrix", help="print one sector matrix, checked against the z-space operator"
    )
    _add_param_flags(p_matrix, roots_default="2,-1,-1")
    p_matrix.add_argument("--a", default="0", help=_A_HELP)
    p_matrix.add_argument("--mask", default="none", help="gauge mask (default none)")
    p_matrix.add_argument("--format", choices=("json", "csv"), default="json")
    p_matrix.add_argument("--out", default=None, help="write to a file instead of stdout")
    p_matrix.set_defaults(func=cmd_matrix)

    p_spec = sub.add_parser("spectrum", help="eigenvalues of one or all sectors")
    _add_param_flags(p_spec, roots_default="2,-1,-1")
    p_spec.add_argument("--a", default="0", help=_A_HELP)
    p_spec.add_argument("--mask", default="all", help="gauge mask or 'all' (default all)")
    p_spec.add_argument("--format", choices=("json", "csv"), default="json")
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=cmd_spectrum)

    p_sweep = sub.add_parser("sweep", help="spectra along an exact parameter grid")
    _add_param_flags(p_sweep, roots_default=None)
    p_sweep.add_argument(
        "--a",
        default=None,
        help="interaction coupling a, epsilon sweeps only",
    )
    p_sweep.add_argument("--mask", default="all", help="gauge mask or 'all' (default all)")
    p_sweep.add_argument(
        "--sweep-var", choices=("epsilon", "a"), required=True, dest="sweep_var"
    )
    p_sweep.add_argument("--range", required=True, help="grid as lo:hi:steps")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_masks = sub.add_parser("masks", help="list the eight gauge sectors")
    _add_param_flags(p_masks, roots_default="2,-1,-1")
    p_masks.add_argument("--a", default="0", help=_A_HELP)
    p_masks.add_argument("--format", choices=("text", "json"), default="text")
    p_masks.add_argument("--out", default=None)
    p_masks.set_defaults(func=cmd_masks)

    p_eig = sub.add_parser(
        "eigenfunctions", help="gauge prefactor and polynomial factor per eigenvalue"
    )
    _add_param_flags(p_eig, roots_default="2,-1,-1")
    p_eig.add_argument("--a", default="0", help=_A_HELP)
    p_eig.add_argument("--mask", default="none", help="gauge mask (default none)")
    p_eig.add_argument("--out", default=None)
    p_eig.set_defaults(func=cmd_eigenfunctions)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument(
        "--only",
        default=None,
        help="comma-separated subset of checks: " + ", ".join(CHECK_NAMES),
    )
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each flag to a following value that starts with '-' and a digit.

    argparse takes a value such as -1/2 or -1,2,-1 for an unknown flag and
    stops with "expected one argument".  No flag of this CLI starts that way,
    so ``--a -1/2`` becomes ``--a=-1/2``.
    """
    out: list[str] = []
    for token in argv:
        prev = out[-1] if out else ""
        if (token[:1] == "-" and token[1:2].isdecimal() and prev.startswith("--")
                and "=" not in prev):
            out[-1] = f"{prev}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (NoConvergence, OperatorNotClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (
        ValueError,
        InvalidDegree,
        NonCancellingPole,
        NotSymmetric,
        ZeroDivisionError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
