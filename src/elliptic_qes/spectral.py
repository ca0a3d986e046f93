"""Floating-point diagonalization of the exact sector matrices.

Eigenvalues come from LAPACK through ``numpy.linalg.eigvals`` (balancing,
Hessenberg reduction and shifted QR); eigenvalues together with eigenvectors
come from one ``numpy.linalg.eig`` call.  Double precision throughout; the
float image of a matrix is `matrices.to_float`, and the trace is checked on
every diagonalization.  Exact questions about eigenvalues go to the exact
characteristic polynomial upstream (`OperatorMatrix.charpoly`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matrices import OperatorMatrix, to_float

_TRACE_TOL = 1e-9


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


def _diagonalize(matrix: np.ndarray, vectors: bool) -> tuple[Spectrum, np.ndarray | None]:
    """Validate, diagonalize by LAPACK, sort by (real, imag) and gate on the trace.

    With ``vectors`` the eigenvectors come back as the columns of a complex
    array, in the order of the sorted values; otherwise the second item is
    None.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")

    try:
        raw, vecs = np.linalg.eig(a) if vectors else (np.linalg.eigvals(a), None)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"LAPACK eigenvalue solver failed: {exc}") from exc
    order = sorted(range(len(raw)), key=lambda k: (raw[k].real, raw[k].imag))
    values = tuple(complex(raw[k]) for k in order)

    trace = float(np.trace(a))
    scale = max(1.0, abs(trace), float(np.linalg.norm(a)))
    defect = abs(sum(values) - trace)
    if defect > _TRACE_TOL * scale:
        raise NoConvergence(
            f"eigenvalue sum deviates from trace by {defect:.3e} "
            f"(allowed {_TRACE_TOL * scale:.3e})"
        )
    return Spectrum(values, 0, defect), None if vecs is None else vecs[:, order].astype(complex)


def eigenvalues(matrix: np.ndarray) -> Spectrum:
    """All eigenvalues of a square real matrix, by LAPACK.

    A LAPACK failure raises NoConvergence.  The sum of the returned values is
    checked against the matrix trace at 1e-9 relative to max(1, |trace|,
    Frobenius norm) on every call; a larger defect raises NoConvergence.
    """
    return _diagonalize(matrix, vectors=False)[0]


def spectrum_of(mat: OperatorMatrix) -> Spectrum:
    """Eigenvalues of an exact matrix (float pipeline)."""
    return eigenvalues(to_float(mat))


def eigenvector(matrix: np.ndarray) -> tuple[Spectrum, np.ndarray]:
    """Every eigenvalue and a unit eigenvector for each, from one LAPACK call.

    Returns a Spectrum with the validation, order, trace gate and
    NoConvergence-on-failure of `eigenvalues`, and a complex array whose
    column k is the unit eigenvector of ``values[k]``.  The column of a real
    eigenvalue has zero imaginary part.
    """
    return _diagonalize(matrix, vectors=True)
