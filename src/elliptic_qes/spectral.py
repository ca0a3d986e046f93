"""Floating-point diagonalization of the exact sector matrices.

The pipeline is the classical dense nonsymmetric one: radix-2 balancing,
Householder reduction to upper Hessenberg form, then Francis double-shift QR
with exceptional shifts, chasing the bulge only inside the active window
(valid because only eigenvalues are wanted).  Double precision throughout;
the exact rational layer upstream supplies trace and determinant oracles that
every diagonalization is checked against.

numpy arrays are used as containers; the algorithms themselves live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence
from .matrices import OperatorMatrix

_DEFLATION_TOL = 1e-14
_TRACE_TOL = 1e-9
_ITERATION_FACTOR = 100
_INVERSE_ITERATIONS = 60
_REAL_TOL = 1e-7


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
    """Eigenvalues sorted by (real, imaginary), plus a convergence report."""

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


def eigenvalues(matrix: np.ndarray) -> Spectrum:
    """All eigenvalues of a square real matrix.

    Contract: balance, Householder Hessenberg, Francis double-shift QR with
    exceptional shifts every tenth iteration on a stuck block, deflation at
    relative threshold 1e-14, iteration cap 100 * dim (NoConvergence beyond).
    The sum of the returned values is checked against the matrix trace at
    1e-9 relative to the matrix scale on every call.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")

    trace = float(np.trace(a))
    h = a.copy()
    _balance(h)
    _hessenberg(h)
    values, iterations = _francis_qr(h)
    values.sort(key=lambda v: (v.real, v.imag))

    scale = max(1.0, abs(trace), float(np.linalg.norm(a)))
    defect = abs(sum(values) - trace)
    if defect > _TRACE_TOL * scale:
        raise NoConvergence(
            f"eigenvalue sum deviates from trace by {defect:.3e} "
            f"(allowed {_TRACE_TOL * scale:.3e})"
        )
    return Spectrum(tuple(values), iterations, defect)


def spectrum_of(mat: OperatorMatrix) -> Spectrum:
    """Eigenvalues of an exact matrix (float pipeline)."""
    return eigenvalues(to_float(mat))


def _balance(a: np.ndarray) -> None:
    """Radix-2 diagonal similarity balancing, in place (trace preserved)."""
    n = a.shape[0]
    radix = 2.0
    done = False
    while not done:
        done = True
        for i in range(n):
            r = float(np.sum(np.abs(a[i, :]))) - abs(a[i, i])
            c = float(np.sum(np.abs(a[:, i]))) - abs(a[i, i])
            if r == 0.0 or c == 0.0:
                continue
            start = c + r
            f = 1.0
            while c < r / radix:
                c *= radix
                r /= radix
                f *= radix
            while c >= r * radix:
                c /= radix
                r *= radix
                f /= radix
            if (c + r) < 0.95 * start:
                done = False
                a[i, :] /= f
                a[:, i] *= f


def _hessenberg(h: np.ndarray) -> None:
    """Householder reduction to upper Hessenberg form, in place."""
    n = h.shape[0]
    for k in range(n - 2):
        x = h[k + 1 :, k]
        sigma = float(np.sqrt(np.dot(x, x)))
        if sigma == 0.0:
            continue
        alpha = -sigma if x[0] >= 0.0 else sigma
        v = x.copy()
        v[0] -= alpha
        vnorm = float(np.sqrt(np.dot(v, v)))
        if vnorm == 0.0:
            continue
        v /= vnorm
        h[k + 1 :, k:] -= 2.0 * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= 2.0 * np.outer(h[:, k + 1 :] @ v, v)
        h[k + 1, k] = alpha
        h[k + 2 :, k] = 0.0


def _eig2(a: float, b: float, c: float, d: float) -> list[complex]:
    """Eigenvalues of [[a, b], [c, d]] via the stable quadratic."""
    t = 0.5 * (a + d)
    det = a * d - b * c
    disc = (0.5 * (a - d)) ** 2 + b * c
    if disc >= 0.0:
        r = math.sqrt(disc)
        big = t + r if t >= 0.0 else t - r
        small = det / big if big != 0.0 else 0.0
        return [complex(big), complex(small)]
    r = math.sqrt(-disc)
    return [complex(t, -r), complex(t, r)]


def _reflector(col: np.ndarray) -> np.ndarray | None:
    """Unit Householder vector v with (I - 2 v v^T) col parallel to e1."""
    scale = float(np.max(np.abs(col)))
    if scale == 0.0:
        return None
    w = col / scale
    sigma = float(np.sqrt(np.dot(w, w)))
    w[0] += sigma if w[0] >= 0.0 else -sigma
    wnorm = float(np.sqrt(np.dot(w, w)))
    if wnorm == 0.0:
        return None
    return w / wnorm


def _francis_qr(h: np.ndarray) -> tuple[list[complex], int]:
    """Double-shift QR on an upper Hessenberg matrix; eigenvalues only."""
    n = h.shape[0]
    hnorm = float(np.sum(np.abs(h)))
    cap = _ITERATION_FACTOR * n
    values: list[complex] = []
    hi = n - 1
    total = 0
    since_deflation = 0

    while hi >= 0:
        lo = hi
        while lo > 0:
            s = abs(h[lo - 1, lo - 1]) + abs(h[lo, lo])
            if s == 0.0:
                s = hnorm
            if abs(h[lo, lo - 1]) <= _DEFLATION_TOL * s:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1

        if lo == hi:
            values.append(complex(h[hi, hi]))
            hi -= 1
            since_deflation = 0
            continue
        if lo == hi - 1:
            values.extend(_eig2(h[hi - 1, hi - 1], h[hi - 1, hi], h[hi, hi - 1], h[hi, hi]))
            hi -= 2
            since_deflation = 0
            continue

        total += 1
        since_deflation += 1
        if total > cap:
            raise NoConvergence(
                f"QR iteration exceeded {cap} steps with {hi + 1} rows unresolved"
            )

        if since_deflation % 10 == 0:
            # Synthetic shift block for a stuck window, built from the two
            # trailing subdiagonals (dlahqr's exceptional-shift recipe).
            exc = abs(h[hi, hi - 1]) + abs(h[hi - 1, hi - 2])
            b11 = 0.75 * exc + h[hi, hi]
            b12 = -0.4375 * exc
            b21 = exc
            b22 = b11
        else:
            b11, b12 = h[hi - 1, hi - 1], h[hi - 1, hi]
            b21, b22 = h[hi, hi - 1], h[hi, hi]
        shift_sum = b11 + b22
        shift_prod = b11 * b22 - b12 * b21

        x = h[lo, lo] * h[lo, lo] + h[lo, lo + 1] * h[lo + 1, lo] - shift_sum * h[lo, lo] + shift_prod
        y = h[lo + 1, lo] * (h[lo, lo] + h[lo + 1, lo + 1] - shift_sum)
        z = h[lo + 2, lo + 1] * h[lo + 1, lo]

        for k in range(lo, hi):
            if k > lo:
                x = h[k, k - 1]
                y = h[k + 1, k - 1]
                z = h[k + 2, k - 1] if k + 2 <= hi else 0.0
            size = 3 if k + 2 <= hi else 2
            col = np.array([x, y, z][:size])
            v = _reflector(col)
            if v is None:
                continue
            rows = slice(k, k + size)
            cols = slice(max(lo, k - 1), hi + 1)
            h[rows, cols] -= 2.0 * np.outer(v, v @ h[rows, cols])
            rrows = slice(lo, min(k + 3, hi) + 1)
            h[rrows, rows] -= 2.0 * np.outer(h[rrows, rows] @ v, v)
            if k > lo:
                h[k + 1, k - 1] = 0.0
                if size == 3:
                    h[k + 2, k - 1] = 0.0

    return values, total


def _lu_factor(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Partial-pivot LU in place on a copy; exact-zero pivots are replaced by
    a tiny multiple of the matrix scale so inverse iteration can proceed."""
    lu = a.astype(complex, copy=True)
    n = lu.shape[0]
    scale = max(float(np.max(np.abs(lu))), 1.0)
    pivots: list[int] = []
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        if abs(lu[p, k]) == 0.0:
            lu[p, k] = 2.3e-16 * scale
        if p != k:
            lu[[k, p], :] = lu[[p, k], :]
        pivots.append(p)
        lu[k + 1 :, k] /= lu[k, k]
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu, pivots


def _lu_solve(lu: np.ndarray, pivots: list[int], rhs: np.ndarray) -> np.ndarray:
    n = lu.shape[0]
    x = rhs.astype(complex, copy=True)
    for k in range(n):
        p = pivots[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
        x[k + 1 :] -= lu[k + 1 :, k] * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - np.dot(lu[k, k + 1 :], x[k + 1 :])) / lu[k, k]
    return x


def eigenvector(matrix: np.ndarray, value: complex) -> np.ndarray:
    """Unit eigenvector for an approximate eigenvalue, by inverse iteration.

    Deterministic seeded start; stops when the residual ||Av - value*v||
    drops below 1e-8 times the Frobenius norm of the matrix, and raises
    NoConvergence after 60 steps without getting there.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    mnorm = max(float(np.linalg.norm(a)), 1.0)
    lam = complex(value)

    rng = np.random.default_rng(181054)
    v = rng.standard_normal(n).astype(complex)
    if lam.imag != 0.0:
        v = v + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)

    shifted = a.astype(complex) - lam * np.eye(n, dtype=complex)
    lu, pivots = _lu_factor(shifted)
    for _ in range(_INVERSE_ITERATIONS):
        w = _lu_solve(lu, pivots, v)
        wnorm = float(np.linalg.norm(w))
        if wnorm == 0.0 or not math.isfinite(wnorm):
            v = rng.standard_normal(n).astype(complex)
            v /= np.linalg.norm(v)
            continue
        v = w / wnorm
        residual = float(np.linalg.norm(a @ v - lam * v))
        if residual <= 1e-8 * mnorm:
            if lam.imag == 0.0:
                v = v.real.astype(complex) if np.linalg.norm(v.imag) < 1e-12 else v
                renorm = float(np.linalg.norm(v))
                if renorm:
                    v = v / renorm
            return v
    raise NoConvergence(
        f"inverse iteration did not reach residual 1e-8 within {_INVERSE_ITERATIONS} steps"
    )
