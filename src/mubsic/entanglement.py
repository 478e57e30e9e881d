"""Entanglement detection with a product SIC-POVM.

A SIC ket family on one party, conjugated on the other, yields the
product POVM with elements (1/d^2)|phi_i phi_j*><phi_i phi_j*| on
H (x) H.  The sum G of its diagonal outcome probabilities is capped at
2/(d(d+1)) for every separable state, while the maximally entangled
state reaches 1/d, so G > 2/(d(d+1)) witnesses entanglement.  This
module holds the measurement; the cap and the witness are the ENT-G
check of :mod:`mubsic.bounds` (``separable_bound``,
``detect_entanglement``).
"""

from __future__ import annotations

import numpy as np

from .errors import ConstructionError, DimensionMismatchError, DomainError
from .linalg import kron
from .measurements import SicPovm, expectations
from .states import DensityMatrix


class BipartitePovm:
    """The d^4-outcome product measurement built from a SIC ket family.

    Party B carries the conjugated kets, taken in the same fixed
    computational basis used everywhere in this package.
    """

    __slots__ = ("kets_a", "kets_b", "dim")

    def __init__(self, kets_a, kets_b):
        kets_a = np.array(kets_a, dtype=complex)
        kets_b = np.array(kets_b, dtype=complex)
        if kets_a.shape != kets_b.shape or kets_a.ndim != 2:
            raise DomainError("party ket arrays must share one (n, d) shape")
        d = kets_a.shape[1]
        if kets_a.shape[0] != d * d:
            raise DomainError(f"expected d^2 kets per party, got {kets_a.shape[0]}")
        # completeness factorizes over the parties
        sum_a = np.einsum("jk,jl->kl", kets_a, kets_a.conj())
        sum_b = np.einsum("jk,jl->kl", kets_b, kets_b.conj())
        total = kron(sum_a, sum_b) / (d * d)
        dev = float(np.max(np.abs(total - np.eye(d * d))))
        if dev > 1e-8:
            raise ConstructionError(f"product POVM completeness fails (deviation {dev:.3e})")
        kets_a.setflags(write=False)
        kets_b.setflags(write=False)
        self.kets_a = kets_a
        self.kets_b = kets_b
        self.dim = d

    def __len__(self):
        return self.kets_a.shape[0] ** 2

    def element(self, i: int, j: int) -> np.ndarray:
        """The PSD matrix (1/d^2)|phi_i phi_j*><phi_i phi_j*| on H (x) H."""
        w = kron(self.kets_a[i], self.kets_b[j])
        return np.outer(w, w.conj()) / self.dim**2


def product_sic_povm(sic: SicPovm) -> BipartitePovm:
    """Product POVM with SIC kets on party A and their conjugates on party B."""
    return BipartitePovm(sic.kets, sic.kets.conj())


def maximally_entangled(d: int) -> DensityMatrix:
    """The projector onto d^(-1/2) sum_n |n> (x) |n>."""
    d = int(d)
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    ket = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return DensityMatrix(np.outer(ket, ket.conj()))


def joint_probabilities(povm: BipartitePovm, rho: DensityMatrix) -> np.ndarray:
    """All d^4 outcome probabilities P(i, j) as an (d^2, d^2) array.

    A stack of N states gives (N, d^2, d^2).
    """
    d = povm.dim
    if rho.dim != d * d:
        raise DimensionMismatchError(f"state dim {rho.dim} is not {d * d}")
    w = np.einsum("ik,jl->ijkl", povm.kets_a, povm.kets_b).reshape(d**4, d * d)
    p = expectations(w, rho.mat) / d**2
    return p.reshape(p.shape[:-1] + (d * d, d * d))


def correlation_G(povm: BipartitePovm, rho: DensityMatrix):
    """Sum of the d^2 diagonal probabilities P(j, j); linear in the state.

    A float, or an (N,) array for a stack of N states.
    """
    d = povm.dim
    if rho.dim != d * d:
        raise DimensionMismatchError(f"state dim {rho.dim} is not {d * d}")
    w = np.einsum("jk,jl->jkl", povm.kets_a, povm.kets_b).reshape(d * d, d * d)
    g = (expectations(w, rho.mat) / d**2).sum(axis=-1)
    return float(g) if rho.mat.ndim == 2 else g

