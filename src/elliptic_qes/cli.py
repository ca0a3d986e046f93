"""Command-line interface.

Subcommands:

  matrix          exact sector matrix as JSON or float CSV
  spectrum        eigenvalues of one sector or of every valid sector
  sweep           eigenvalues along an exact rational parameter grid
  masks           the eight gauge sectors with their cutoffs and dimensions
  eigenfunctions  gauge prefactor and polynomial factor of each eigenstate
  verify          the built-in verification suite

All rational inputs ("3", "-1/2", "0.25") are parsed exactly; sweeps place
their grid points exactly as lo + k (hi - lo)/(steps - 1) and build every
sector at every point, each build being its own closure proof.
Before building or counting anything, every command but verify refuses N above
MAX_PARTICLES; matrix, spectrum, sweep and eigenfunctions also sum the basis
dimensions of their sectors over every grid point and refuse a total above
MAX_TOTAL_DIMENSION (`_check_budget`), and matrix alone refuses its z-space
self-check above MAX_CHECK_WORK (`_check_z_space`).  A rational flag value,
sector dimension or sweep total with more digits than Python will print is
refused by an error that names the flag behind it (--m and --b for a masked
sector; `_printed`), and so is a sweep grid value that its output format cannot
write (--range).
spectrum and sweep make their `SectorRecord`s, one per sector and parameter
point, in one loop (`_sector_records`), and write them by one CSV renderer or a
JSON template.  A NaN or infinite eigenvalue fails `spectral`'s trace gate before
anything is printed, in these two commands and in eigenfunctions alike.
Each subcommand's flags are declared once, in `build_parser`, and a command line
that names a subcommand is parsed by that subcommand's parser alone; the full
parser is built only for top-level help, an unknown or missing command, or
arguments that the subcommand's parser leaves over.
Exit codes: 0 success, 1 a verification or convergence failure (a NaN or
infinite eigenvalue included), 2 a parameter error or a refused size.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from fractions import Fraction
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import InvalidDegree, NoConvergence, NonCancellingPole, OperatorNotClosed
from .matrices import build_matrix, export_matrix, matches_operator, to_float
from .model import ALL_MASKS, GaugeMask, ModelParams, list_valid_masks
from .operator import build_gauged_operator
from .oracles import epsilon_roots
from .polynomials import Exponents, parse_rational
from .spectral import eigenvector, spectrum_of
from .verify import CHECK_NAMES, report_json, run_checks

# Largest total basis dimension one command may build and diagonalize, summed
# over its sectors and grid points.  `spectrum` at N=6, m=6 over all masks
# (2310) takes 0.51 s and peaks at 50.6-50.9 MB in one fresh process on a
# 2-core VM (OPENBLAS_NUM_THREADS=1), of which the term bases kept for N=6 at
# cutoffs 6 and 5 hold 2.0 MB and forming the larger peaks 3.4 MB; N=7, m=6
# (4092) and N=8, m=8 (32175) are refused.
MAX_TOTAL_DIMENSION = 3000

# Largest particle number N one command may build.  The dimension budget does
# not bound N at cutoff 0 or 1, where the work still grows with N: `spectrum
# --n 32 --m 0 --mask none` takes 0.28 s and peaks at 41 MB in one fresh process
# on the same VM, and --n 48, with this limit lifted, 0.86 s and 73 MB.
MAX_PARTICLES = 32

# Largest work `matrix` may spend checking its columns 1, tau_i, tau_i tau_j
# against `GaugedOperator.apply`: C(N, 2) pair divisions times a bound on their
# z-space terms, 1 + sum_i C(N, i) + sum_{i<=j} C(N, i) C(N, j).  `matrix --mask
# none --a=1/3` takes 0.38-0.43 s at N=6, m=2 (37650) and 0.50-0.54 s at N=10,
# m=1 (46080) in one fresh process on the same VM; N=7, m=2 (208068, 0.8-1.1 s
# with the limit lifted) and N=11, m=1 (112640, 0.74-0.76 s) are refused.
MAX_CHECK_WORK = 50_000


def _printed(x, what: str) -> str:
    """``str(x)``, refused by "``what`` too many digits to print" when Python
    will not write x in decimal (more digits than `sys.get_int_max_str_digits`)."""
    try:
        return str(x)
    except ValueError:
        raise ValueError(f"{what} too many digits to print") from None


def _rational(text, flag):
    """The exact value of ``flag``'s ``text``, refused when it will not print."""
    value = parse_rational(text)
    _printed(value, f"{flag} has")
    return value


def _parse_roots(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3 or not all(p.strip() for p in parts):
        raise ValueError(f"--roots needs three comma-separated rationals, got {text!r}")
    return tuple(_rational(p, "--roots") for p in parts)


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
    decimal.  The message names --m, and --b too when the mask is not empty,
    its cutoff being m + n_f (b - 1/2)."""
    dimension = params.basis_dimension(mask)
    b = f", with --b = {params.coupling_b}," if mask.indices else ""
    _printed(dimension, f"--m = {params.degree_m}{b} gives a sector dimension with")
    return dimension


def _check_budget(params: ModelParams, masks: list[GaugeMask], points: int = 1) -> None:
    """Refuse N above MAX_PARTICLES and work above MAX_TOTAL_DIMENSION before
    anything is built; an invalid mask raises InvalidDegree as its dimension is
    counted, before a sweep forms its grid."""
    if params.nvars > MAX_PARTICLES:
        raise ValueError(f"N = {params.nvars} is above the limit of {MAX_PARTICLES} particles")
    total = points * sum(_dimension(params, mask) for mask in masks)
    if total > MAX_TOTAL_DIMENSION:
        flag = "--range" if points > 1 else f"--m = {params.degree_m}"
        text = _printed(total, f"{flag} gives a total dimension with")
        raise ValueError(f"the requested sectors have total dimension {text}, above the limit "
                         f"{MAX_TOTAL_DIMENSION}")


def _check_z_space(params: ModelParams, mask: GaugeMask) -> None:
    """Refuse `matrix`'s z-space check above MAX_CHECK_WORK before it is built."""
    n, cutoff = params.nvars, params.cutoff(mask)
    s = 2**n - 1  # sum_i C(N, i), and sum_i C(N, i)^2 = C(2N, N) - 1
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
        _rational(args.a, "--a"),
        _rational(args.b, "--b"),
        _rational(args.m, "--m"),
        roots,
    )


# -- subcommands -----------------------------------------------------------------


def cmd_matrix(args: argparse.Namespace) -> int:
    params = _params_from(args)
    mask = GaugeMask.from_string(args.mask)
    _check_budget(params, [mask])
    _check_z_space(params, mask)
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


def _sector_records(points: list[tuple[str, ModelParams]],
                    masks: list[GaugeMask]) -> list[tuple[str, SectorRecord]]:
    """A (label, record) pair for each mask at each (label, parameter point)
    of the list ``points``, in point-then-mask order, each from its own build.
    Every record's eigenvalues have passed `spectral`'s trace gate, which a NaN
    or infinite one fails, so no renderer prints nan, inf, NaN or Infinity."""
    rows = []
    for label, params in points:
        for mask in masks:
            op = build_gauged_operator(params, mask)
            mat = build_matrix(op)
            values = spectrum_of(mat).values
            rows.append((label, SectorRecord(str(mask), op.cutoff, mat.dim, values)))
    return rows


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


def _spectrum_json(params: ModelParams, rows: list[tuple[str, SectorRecord]]) -> str:
    texts = (params.coupling_a, params.coupling_b, params.degree_m, *params.roots)
    sectors = ",\n".join(
        _SECTOR_JSON % (_json_text(r.mask), r.cutoff, r.dimension, ",\n".join(
            [_EIGENVALUE_JSON % (v.real, v.imag) for v in r.values]))
        for _, r in rows)
    return _SPECTRUM_JSON % (params.nvars, *map(_json_text, texts), sectors)


def _eigenvalue_csv(columns: str, records: list[tuple[str, SectorRecord]]) -> str:
    """One CSV line per eigenvalue: the header names ``columns`` before
    mask,eig_index,re,im, and each line writes its record's prefix there."""
    lines = [columns + "mask,eig_index,re,im"]
    for prefix, r in records:
        head = f"{prefix}{r.mask},"
        lines.extend(f"{head}{i},{v.real!r},{v.imag!r}" for i, v in enumerate(r.values))
    return "\n".join(lines)


def cmd_spectrum(args: argparse.Namespace) -> int:
    params = _params_from(args)
    masks = _selected_masks(params, args.mask)
    _check_budget(params, masks)
    rows = _sector_records([("", params)], masks)
    if args.format == "json":
        _emit(_spectrum_json(params, rows), args.out)
    else:
        _emit(_eigenvalue_csv("", rows), args.out)
    return 0


def _sweep_json(sweep_var: str, points: list[tuple[str, SectorRecord]]) -> str:
    rows = []
    for value_text, r in points:
        mask_text = _json_text(r.mask)
        rows.extend(_SWEEP_ROW_JSON % (value_text, mask_text, i, v.real, v.imag)
                    for i, v in enumerate(r.values))
    return _SWEEP_JSON % (_json_text(sweep_var), ",\n".join(rows))


def cmd_sweep(args: argparse.Namespace) -> int:
    """Spectra along an exact grid, one record per grid point and sector, in
    grid-then-mask order.  --sweep-var epsilon moves the roots along
    (2, -1+eps, -1-eps) and rejects explicit --roots; --sweep-var a sweeps the
    interaction coupling over fixed roots.  A grid value that the format
    cannot write, beyond a double in CSV or with too many digits in JSON, is
    refused before anything is built."""
    parts = args.range.split(":")
    if len(parts) != 3:
        raise ValueError(f"--range must be lo:hi:steps, got {args.range!r}")
    lo, hi = _rational(parts[0], "--range"), _rational(parts[1], "--range")
    try:
        steps = int(parts[2])
    except ValueError:
        raise ValueError(f"--range steps must be a positive integer, got {parts[2]!r}") from None
    if steps < 1:
        raise ValueError(f"--range needs at least one step, got {steps}")
    roots = _parse_roots(args.roots) if args.roots is not None else None
    if args.sweep_var == "a" and args.a is not None:
        raise ValueError("the swept coupling comes from --range; drop --a")
    m = _rational(args.m, "--m")
    a = _rational(args.a, "--a") if args.a is not None else Fraction(0)
    b = _rational(args.b, "--b")
    if args.sweep_var == "epsilon" and roots is not None:
        raise ValueError("an epsilon sweep fixes the root family; drop --roots")
    # every grid point has the same sectors: they depend on N, m and b only
    params = ModelParams(args.n, a, b, m, roots or (2, -1, -1))
    masks = _selected_masks(params, args.mask)
    _check_budget(params, masks, steps)
    grid = _grid(lo, hi, steps)
    try:
        labels = [f"{float(v)!r}," if args.format == "csv" else
                  json.dumps(_printed(v, "--range gives a grid value with")) for v in grid]
    except OverflowError:
        raise ValueError("--range gives a grid value too large for a double") from None
    field, at = ("coupling_a", Fraction) if args.sweep_var == "a" else ("roots", epsilon_roots)
    points = [(label, dataclasses.replace(params, **{field: at(v)}))
              for label, v in zip(labels, grid)]
    rows = _sector_records(points, masks)
    if args.format == "csv":
        _emit(_eigenvalue_csv("sweep_value,", rows), args.out)
    else:
        _emit(_sweep_json(args.sweep_var, rows), args.out)
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
        payload = {"nvars": params.nvars, "a": str(params.coupling_a), "b": str(params.coupling_b),
                   "m": str(params.degree_m), "roots": list(map(str, params.roots))}
        _emit(json.dumps({"params": payload, "masks": records}, indent=2), args.out)
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
    ok = all(r.passed for r in results)
    if args.format == "json":
        _emit(json.dumps(report_json(results), indent=2), args.out)
    else:
        lines = [
            f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results
        ]
        lines.append(f"{len(results)} checks, {'all passed' if ok else 'FAILURES PRESENT'}")
        _emit("\n".join(lines), args.out)
    return 0 if ok else 1


# -- parser ------------------------------------------------------------------------

# The help of each flag that two or more subcommands share, and the defaults of
# the model's parameters; `build_parser` gives each subcommand the shared flags
# it has a default for.
_HELP = {
    "n": "number of variables (default %(default)s)",
    "m": "degree parameter, exact rational (default %(default)s)",
    "b": "external coupling b, exact rational (default %(default)s)",
    "roots": "three cubic roots e1,e2,e3 summing to zero (default 2,-1,-1; an epsilon "
             "sweep sets them to 2,-1+eps,-1-eps)",
    "a": "interaction coupling a, exact rational (default 0; an a-sweep takes it from "
         "--range)",
    "mask": "gauge mask such as none or 13 (default %(default)s)",
    "format": "output format (default %(default)s)",
    "out": "write to a file instead of stdout",
}
_MODEL = {"n": 2, "m": "2", "b": "0", "roots": "2,-1,-1", "a": "0"}


# The subcommands, which `main` parses each with its own parser.
_COMMANDS = ("matrix", "spectrum", "sweep", "masks", "eigenfunctions", "verify")


@functools.cache
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of subcommand ``command``, or with no command the full CLI
    parser of all six; each is built on its first call and shared by every
    later one.

    Both read a subcommand's flags from the one table below, which is written
    here so that importing the module builds none of it.  So the parser of
    ``command``, with prog "elliptic-qes ``command``", is the full parser's
    subparser of that name, help text included.  A subcommand states only its
    defaults and its --format choices; the help of each flag it shares is
    `_HELP`'s.
    """
    json_csv, text_json = ("json", "csv"), ("text", "json")
    table = {
        "matrix": (cmd_matrix, "print one sector matrix, checked against the z-space operator",
                   json_csv, {**_MODEL, "mask": "none", "format": "json"}),
        "spectrum": (cmd_spectrum, "eigenvalues of one or all sectors", json_csv,
                     {**_MODEL, "mask": "all", "format": "json"}),
        "sweep": (cmd_sweep, "spectra along an exact parameter grid", json_csv,
                  {**_MODEL, "roots": None, "a": None, "mask": "all", "format": "csv"}),
        "masks": (cmd_masks, "list the eight gauge sectors", text_json,
                  {**_MODEL, "format": "text"}),
        "eigenfunctions": (cmd_eigenfunctions,
                           "gauge prefactor and polynomial factor per eigenvalue", None,
                           {**_MODEL, "mask": "none"}),
        "verify": (cmd_verify, "run the verification suite", text_json, {"format": "text"}),
    }
    parser = argparse.ArgumentParser(
        prog=f"elliptic-qes {command}" if command else "elliptic-qes",
        description=None if command else "Exact sector matrices and spectra of a "
        "quasi-exactly-solvable elliptic many-body operator.",
    )
    if not command:
        sub = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command else table:
        func, help_, formats, defaults = table[name]
        p = parser if command else sub.add_parser(name, help=help_)
        for dest, default in {**defaults, "out": None}.items():
            p.add_argument(f"--{dest}", type=int if dest == "n" else None, default=default,
                           choices=formats if dest == "format" else None, help=_HELP[dest])
        if name == "sweep":
            p.add_argument("--sweep-var", choices=("epsilon", "a"), required=True,
                           help="the swept parameter")
            p.add_argument("--range", required=True, help="grid as lo:hi:steps")
        elif name == "verify":
            p.add_argument("--only", default=None,
                           help="comma-separated subset of checks: " + ", ".join(CHECK_NAMES))
        p.set_defaults(func=func)
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
    """Run the subcommand that ``argv`` (default the process's arguments) names.

    A command line that starts with a subcommand is parsed by that command's
    own parser.  The full parser is built only for any other line, or when
    that parser leaves arguments over; it then parses the whole line again,
    so that every usage, help and error text is the one it gives."""
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    args, rest = None, argv
    if argv and argv[0] in _COMMANDS:
        args, rest = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoConvergence, OperatorNotClosed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NonCancellingPole, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
