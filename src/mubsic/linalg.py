"""Small dense complex linear algebra helpers.

Everything here operates on plain numpy arrays of complex128 at the
dimensions this package targets (a few dozen at most), so dense storage
is used throughout.  No function hides a tolerance: callers compare.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, DomainError


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def hs_inner(x, y) -> complex:
    """Hilbert-Schmidt inner product tr(x^dag y).

    Conjugate-linear in ``x``, linear in ``y``.  Raises
    :class:`DimensionMismatchError` when the shapes differ.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape mismatch: {x.shape} vs {y.shape}")
    return complex(np.trace(x.conj().T @ y))


def kron(a, b) -> np.ndarray:
    """Kronecker product with row index i_a * rows_b + i_b.

    Two stacks of matrices (N, ra, ca) and (N, rb, cb) give the stack of the
    N products, (N, ra rb, ca cb).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 3 and b.ndim < 3:
        return np.kron(a, b)
    if a.ndim != 3 or b.ndim != 3 or a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(f"cannot pair stacks of shapes {a.shape} and {b.shape}")
    n, ra, ca = a.shape
    rb, cb = b.shape[1:]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(n, ra * rb, ca * cb)


def conj_vector(v) -> np.ndarray:
    """Entrywise complex conjugate in the fixed computational basis."""
    return np.conj(np.asarray(v, dtype=complex))


def vec_qnorm(u, q) -> float:
    """q-norm (sum_j |u_j|^q)^(1/q); ``q = inf`` gives max_j |u_j|.

    Requires q >= 1 or q = inf, else :class:`DomainError`.
    """
    u = np.asarray(u, dtype=complex).ravel()
    a = np.abs(u)
    if np.isinf(q):
        return float(a.max()) if a.size else 0.0
    q = float(q)
    if not q >= 1.0:
        raise DomainError(f"q-norm needs q >= 1 or q = inf, got {q}")
    m = float(a.max()) if a.size else 0.0
    if m == 0.0:
        return 0.0
    # factor out the max so large q does not under/overflow
    return m * float(np.sum((a / m) ** q)) ** (1.0 / q)
