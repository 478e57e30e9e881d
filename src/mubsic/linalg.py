"""Kronecker products of complex matrices and of stacks of matrices.

The dimensions this package targets are a few dozen at most, so dense
storage is used throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .states import _read_array


def kron(a, b) -> np.ndarray:
    """Kronecker product with row index i_a * rows_b + i_b.

    Two matrices give their product and two stacks of matrices (N, ra, ca)
    and (N, rb, cb) the stack of the N products, (N, ra rb, ca cb), both as
    one broadcast multiply: the same products as ``np.kron``, without its
    per-call overhead.  Vectors go to ``np.kron``.  Each operand goes through
    the one reader, ``states._read_array``: an unreadable or empty one raises
    :class:`~mubsic.errors.DomainError`.
    """
    a = _read_array(a, "kron operand", complex)
    b = _read_array(b, "kron operand", complex)
    if a.ndim < 2 or b.ndim < 2:
        return np.kron(a, b)
    if a.ndim != b.ndim or a.ndim > 3 or a.shape[:-2] != b.shape[:-2]:
        raise DimensionMismatchError(f"cannot pair stacks of shapes {a.shape} and {b.shape}")
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(a.shape[:-2] + (ra * rb, ca * cb))
