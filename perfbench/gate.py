"""Correctness gate applied to every benchmark operation.

For each generated input the exact sector matrices are built once, outside
timing, through the public API (`build_gauged_operator`, `build_matrix`).
Each matrix gets a SHA-256 digest of its exact entries, the closed-form
raising coefficient is checked at every degree, and numpy's `eigvals` gives
the reference spectrum.  `check` then compares one operation's exit code and
captured stdout against those references and returns every problem found; an
empty list means the operation passed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from elliptic_qes import (
    BasisIndex,
    GaugeMask,
    ModelParams,
    OperatorMatrix,
    build_gauged_operator,
    build_matrix,
    list_valid_masks,
    raising_coefficient_check,
)

from workloads import Inputs

# A printed eigenvalue (or an eigenpair residual) may differ from numpy's by
# this share of max(1, ||M||_F).  On the generated inputs the gap is below
# 1e-14 for full-precision output and below 1e-9 for the 9-digit
# eigenfunctions output; 1e-6 leaves room for defective parameter points.
EIG_RTOL = 1e-6

VERIFY_CHECKS = 10


@dataclass(frozen=True)
class Sector:
    """Reference data for one exact sector matrix."""

    value: Fraction | None  # sweep grid value; None outside sweeps
    mask: str
    basis: BasisIndex
    floats: np.ndarray
    eigs: np.ndarray
    digest: str

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def scale(self) -> float:
        return max(1.0, float(np.linalg.norm(self.floats)))


@dataclass(frozen=True)
class Reference:
    """Every sector an input's operation reports, plus problems found while
    building them (a failed raising check fails every operation on the input)."""

    sectors: tuple[Sector, ...]
    problems: tuple[str, ...]


def matrix_digest(mat: OperatorMatrix) -> str:
    """SHA-256 over the basis listing and the exact entries, row by row."""
    h = hashlib.sha256(repr(mat.basis.monomials).encode())
    for row in mat.rows:
        h.update((",".join(str(x) for x in row) + "\n").encode())
    return h.hexdigest()


def sector(value: Fraction | None, mask: str, mat: OperatorMatrix) -> Sector:
    """Reference data of one exact matrix: floats, numpy eigenvalues, digest.

    The exact entries are not kept: Fractions are tracked by the garbage
    collector, so keeping them alive would add to every collection made
    during the timed operations."""
    floats = np.array([[float(x) for x in row] for row in mat.rows])
    return Sector(value, mask, mat.basis, floats, np.linalg.eigvals(floats), matrix_digest(mat))


def _grid(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    if steps == 1:
        return [lo]
    return [lo + Fraction(k, steps - 1) * (hi - lo) for k in range(steps)]


def _points(inp: Inputs) -> list[tuple[Fraction | None, ModelParams, list[GaugeMask]]]:
    if inp.workload == "verify":
        return []
    if inp.sweep is not None:
        points = [(v, ModelParams(inp.nvars, v, 0, inp.degree_m, inp.roots))
                  for v in _grid(*inp.sweep)]
    else:
        points = [(None, ModelParams(inp.nvars, inp.coupling_a, 0, inp.degree_m, inp.roots))]
    return [
        (v, params, list(list_valid_masks(params)) if inp.mask == "all"
         else [GaugeMask.from_string(inp.mask)])
        for v, params in points
    ]


def reference(inp: Inputs, digests: list[str] | None = None) -> Reference:
    """Build, digest and check every exact matrix the operation reports.

    `digests`, when given, are the digests stored with the benchmark for this
    input; any difference is a problem.
    """
    sectors: list[Sector] = []
    problems: list[str] = []
    for value, params, masks in _points(inp):
        for mask in masks:
            op = build_gauged_operator(params, mask)
            mat = build_matrix(op)
            bad = [d for d in range(op.cutoff + 1) if not raising_coefficient_check(op, d, mat)]
            if bad:
                problems.append(f"mask {mask} at a={params.coupling_a}: raising "
                                f"coefficient wrong at degrees {bad}")
            sectors.append(sector(value, str(mask), mat))
    if digests is not None and [s.digest for s in sectors] != digests:
        problems.append("matrix digests differ from those stored for this seed")
    return Reference(tuple(sectors), tuple(problems))


def _match_eigenvalues(printed: list[complex], sector: Sector, where: str) -> list[str]:
    """Pair each printed value with the nearest unused numpy eigenvalue."""
    if len(printed) != sector.dim:
        return [f"{where}: {len(printed)} eigenvalues for dimension {sector.dim}"]
    unused = list(sector.eigs)
    worst = 0.0
    for value in printed:
        k = min(range(len(unused)), key=lambda i: abs(unused[i] - value))
        worst = max(worst, abs(unused.pop(k) - value))
    if worst > EIG_RTOL * sector.scale:
        return [f"{where}: eigenvalue off numpy's by {worst:.3e} "
                f"(allowed {EIG_RTOL * sector.scale:.3e})"]
    return []


def _check_verify(stdout: str, sectors: tuple[Sector, ...]) -> list[str]:
    lines = stdout.strip().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if passed != VERIFY_CHECKS or lines[-1] != f"{VERIFY_CHECKS} checks, all passed":
        return [f"verify printed {passed}/{VERIFY_CHECKS} PASS lines"]
    return []


def _check_spectrum(stdout: str, sectors: tuple[Sector, ...]) -> list[str]:
    reported = json.loads(stdout)["sectors"]
    if [s["mask"] for s in reported] != [s.mask for s in sectors]:
        return [f"sectors {[s['mask'] for s in reported]} != {[s.mask for s in sectors]}"]
    problems = []
    for got, want in zip(reported, sectors):
        if got["dimension"] != want.dim:
            problems.append(f"mask {want.mask}: dimension {got['dimension']}")
        values = [complex(v["re"], v["im"]) for v in got["eigenvalues"]]
        problems += _match_eigenvalues(values, want, f"mask {want.mask}")
    return problems


def _check_sweep(stdout: str, sectors: tuple[Sector, ...]) -> list[str]:
    lines = stdout.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    expected_rows = sum(s.dim for s in sectors)
    if len(rows) != expected_rows:
        return [f"sweep printed {len(rows)} rows, expected steps x sum(dims) = {expected_rows}"]
    problems = []
    start = 0
    for sector in sectors:
        group = rows[start:start + sector.dim]
        start += sector.dim
        where = f"a={sector.value} mask {sector.mask}"
        if any(float(r[0]) != float(sector.value) or r[1] != sector.mask for r in group):
            problems.append(f"{where}: rows out of order")
            continue
        problems += _match_eigenvalues([complex(float(r[3]), float(r[4])) for r in group],
                                       sector, where)
    return problems


_TERM_SPLIT = re.compile(r" ([+-]) ")


def _monomial(name: str, nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    if name != "1":
        for factor in name.split("*"):
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] = int(power or 1)
    return tuple(exps)


def _parse_polynomial(text: str, sector: Sector) -> np.ndarray:
    """Coefficient vector, over the sector basis, of a printed polynomial factor."""
    vec = np.zeros(sector.dim, dtype=complex)
    parts = _TERM_SPLIT.split(text)
    signed = [(1, parts[0])] + [
        (1 if sign == "+" else -1, term) for sign, term in zip(parts[1::2], parts[2::2])
    ]
    for sign, term in signed:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        if term.startswith("("):
            coeff_text, _, name = term[1:].partition(")")
            name = name.lstrip("*") or "1"
        else:
            coeff_text, _, name = term.partition("*")
            name = name or "1"
        exps = _monomial(name, sector.basis.nvars)
        vec[sector.basis.index_of(exps)] = sign * complex(coeff_text)
    return vec


def _check_eigenfunctions(stdout: str, sectors: tuple[Sector, ...]) -> list[str]:
    (sector,) = sectors
    lines = [line for line in stdout.splitlines() if line.startswith("eigenvalue ")]
    if len(lines) != sector.dim:
        return [f"{len(lines)} eigenfunction lines for dimension {sector.dim}"]
    values, problems = [], []
    for line in lines:
        head, _, poly = line.partition(": polynomial factor ")
        value = complex(head.removeprefix("eigenvalue "))
        values.append(value)
        vec = _parse_polynomial(poly, sector)
        residual = float(np.linalg.norm(sector.floats @ vec - value * vec))
        if residual > EIG_RTOL * sector.scale * float(np.linalg.norm(vec)):
            problems.append(f"eigenvalue {value}: eigenvector residual {residual:.3e}")
    return problems + _match_eigenvalues(values, sector, f"mask {sector.mask}")


_CHECKERS = {
    "verify": _check_verify,
    "spectrum-n4": _check_spectrum,
    "sweep-coupling": _check_sweep,
    "eigenfunctions": _check_eigenfunctions,
}


def check(inp: Inputs, ref: Reference, exit_code: object, stdout: str) -> list[str]:
    """Every problem with one operation's result; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return list(ref.problems) + _CHECKERS[inp.workload](stdout, ref.sectors)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
