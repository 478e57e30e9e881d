"""Entanglement detection with a product SIC-POVM.

A SIC ket family on one party, conjugated on the other, yields the
product POVM with elements (1/d^2)|phi_i phi_j*><phi_i phi_j*| on
H (x) H.  The sum G of its diagonal outcome probabilities is capped at
2/(d(d+1)) for every separable state, while the maximally entangled
state reaches 1/d, so G > 2/(d(d+1)) witnesses entanglement.  G is
tr(W rho) for the one operator W, the sum of the d^2 diagonal elements,
so this module builds only W; the cap and the witness are the ENT-G
check of :mod:`mubsic.bounds` (``separable_bound``,
``detect_entanglement``).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError, DomainError
from .measurements import Measurement, _kind, apply_design, design_matrix
from .states import DensityMatrix, _check_state, check_dimension


@functools.lru_cache
def product_sic_povm(sic: Measurement) -> np.ndarray:
    """The read-only design column of W = (1/d^2) sum_j |w_j><w_j|, w_j = phi_j (x) phi_j*.

    Party B carries the conjugated SIC kets, taken in the same fixed
    computational basis used everywhere in this package.  Memoized per SIC
    object (the 128 most recent), so ENT-G checks on one SIC build W once.
    """
    d = sic.dim
    w = (sic.kets[:, :, None] * sic.kets.conj()[:, None, :]).reshape(d * d, d * d)
    op = w.T @ w.conj() / d**2
    return design_matrix(op[None])


def maximally_entangled(d: int) -> DensityMatrix:
    """The projector onto d^(-1/2) sum_n |n> (x) |n>."""
    d = check_dimension(d)
    ket = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return DensityMatrix(np.outer(ket, ket.conj()))


def correlation_G(sic: Measurement, rho: DensityMatrix):
    """G = tr(W rho), the sum of the product SIC-POVM's d^2 diagonal probabilities P(j, j).

    ``sic`` must be a "sic" :class:`Measurement` and ``rho`` a state on
    H (x) H.  A float, or an (N,) array for a stack of N states.
    """
    if _kind(sic) != "sic":
        raise DomainError(f"correlation_G takes a sic measurement, got {_kind(sic)}")
    _check_state(rho)
    d = sic.dim
    if rho.dim != d * d:
        raise DimensionMismatchError(f"state dim {rho.dim} is not {d * d}")
    g = apply_design(product_sic_povm(sic), rho.mat)[..., 0]
    return float(g) if rho.mat.ndim == 2 else g
