"""Floating-point diagonalization of the exact sector matrices.

Eigenvalues come from LAPACK through ``numpy.linalg.eigvals`` (balancing,
Hessenberg reduction and shifted QR), eigenvectors from inverse iteration with
LAPACK solves.  Double precision throughout; the exact rational layer upstream
supplies trace and determinant oracles, and the trace is checked on every
diagonalization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matrices import OperatorMatrix

_TRACE_TOL = 1e-9
_INVERSE_ITERATIONS = 60
_REAL_TOL = 1e-7
# Shift moved off an exact eigenvalue, in units of the matrix scale.
_SHIFT_NUDGE = 4 * np.finfo(float).eps


def to_float(mat: OperatorMatrix) -> np.ndarray:
    """Nearest-double image of an exact matrix; rejects non-finite entries."""
    out = np.empty((mat.dim, mat.dim), dtype=float)
    for i, row in enumerate(mat.rows):
        for j, x in enumerate(row):
            try:
                v = float(x)
            except OverflowError as exc:
                raise ValueError(f"entry ({i},{j}) = {x} overflows a double") from exc
            if not math.isfinite(v):
                raise ValueError(f"entry ({i},{j}) = {x} is not finite as a double")
            out[i, j] = v
    return out


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by (real, imaginary), plus a convergence report.

    LAPACK reports no iteration count, so ``iterations`` is always 0; the
    field stays for callers that read it.
    """

    values: tuple[complex, ...]
    iterations: int
    trace_defect: float

    def __len__(self) -> int:
        return len(self.values)

    def real_values(self) -> tuple[float, ...]:
        """Real parts, insisting that imaginary parts are negligible (1e-7
        relative to 1 + |real part|)."""
        for v in self.values:
            if abs(v.imag) > _REAL_TOL * (1.0 + abs(v.real)):
                raise ValueError(f"eigenvalue {v} is not real within {_REAL_TOL}")
        return tuple(v.real for v in self.values)


def _square(matrix: np.ndarray) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return a


def eigenvalues(matrix: np.ndarray) -> Spectrum:
    """All eigenvalues of a square real matrix, by LAPACK.

    A LAPACK failure raises NoConvergence.  The sum of the returned values is
    checked against the matrix trace at 1e-9 relative to max(1, |trace|,
    Frobenius norm) on every call; a larger defect raises NoConvergence.
    """
    a = _square(matrix)
    if a.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")

    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigenvalue solver failed: {exc}") from exc
    values = sorted((complex(v) for v in raw), key=lambda v: (v.real, v.imag))

    trace = float(np.trace(a))
    scale = max(1.0, abs(trace), float(np.linalg.norm(a)))
    defect = abs(sum(values) - trace)
    if defect > _TRACE_TOL * scale:
        raise NoConvergence(
            f"eigenvalue sum deviates from trace by {defect:.3e} "
            f"(allowed {_TRACE_TOL * scale:.3e})"
        )
    return Spectrum(tuple(values), 0, defect)


def spectrum_of(mat: OperatorMatrix) -> Spectrum:
    """Eigenvalues of an exact matrix (float pipeline)."""
    return eigenvalues(to_float(mat))


def eigenvector(matrix: np.ndarray, value: complex) -> np.ndarray:
    """Unit eigenvector for an approximate eigenvalue, by inverse iteration.

    Each step is a LAPACK solve with the shifted matrix, from a fixed seeded
    start; a shift that makes the matrix exactly singular is moved by a few
    ulps of the matrix scale.  Stops when the residual ||Av - value*v|| drops
    below 1e-8 times the Frobenius norm of the matrix (at least 1) and raises
    NoConvergence after 60 steps without getting there.  The vector is real
    (as a complex array) when the value is real.
    """
    a = _square(matrix)
    n = a.shape[0]
    mnorm = max(float(np.linalg.norm(a)), 1.0)
    lam = complex(value)
    real = lam.imag == 0.0

    # stdlib random: numpy.random would be imported just for the start vector
    rng = random.Random(181054)

    def start() -> np.ndarray:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        if not real:
            v = v + 1j * np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
        return v / np.linalg.norm(v)

    shifted = a - (lam.real if real else lam) * np.eye(n)
    v = start()
    for _ in range(_INVERSE_ITERATIONS):
        try:
            w = np.linalg.solve(shifted, v)
        except np.linalg.LinAlgError:
            shifted -= _SHIFT_NUDGE * mnorm * np.eye(n)
            continue
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0 or not math.isfinite(wnorm):
            v = start()
            continue
        v = w / wnorm
        if float(np.linalg.norm(a @ v - lam * v)) <= 1e-8 * mnorm:
            return v.astype(complex)
    raise NoConvergence(
        f"inverse iteration did not reach residual 1e-8 within {_INVERSE_ITERATIONS} steps"
    )
