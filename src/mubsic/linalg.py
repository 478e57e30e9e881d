"""Kronecker products of complex matrices and of stacks of matrices.

The dimensions this package targets are a few dozen at most, so dense
storage is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


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
