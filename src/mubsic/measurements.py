"""Quantum measurements: bases, MUB sets, POVMs, and SIC-POVMs.

Every constructed object re-verifies its defining structural invariant
before it is returned, so downstream code never sees an unverified
measurement:

* orthonormal bases check their Gram matrix,
* MUB sets check all cross-basis overlaps against 1/d,
* POVMs check positivity and completeness,
* SIC ket families check the pairwise overlap condition
  |<phi_j|phi_k>|^2 = 1/(d+1) and the completeness relation
  (1/d) sum_j |phi_j><phi_j| = I.

The SIC tolerance is looser (1e-8) than elsewhere because fiducial
vectors loaded from published numerical data are themselves inexact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .entropy import ProbDist
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    DomainError,
    NotASicError,
    PreconditionError,
)
from .linalg import kron
from .states import DensityMatrix

GRAM_ATOL = 1e-10
MUB_ATOL = 1e-10
POVM_ATOL = 1e-10
SIC_ATOL = 1e-8


class OrthonormalBasis:
    """d unit vectors of dimension d with Gram matrix equal to identity."""

    __slots__ = ("vectors", "dim")

    def __init__(self, vectors):
        vectors = np.array(vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise DomainError(f"expected d vectors of dimension d, got shape {vectors.shape}")
        gram = vectors.conj() @ vectors.T
        dev = float(np.max(np.abs(gram - np.eye(vectors.shape[0]))))
        if not dev <= GRAM_ATOL:
            raise ConstructionError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        vectors.setflags(write=False)
        self.vectors = vectors
        self.dim = vectors.shape[0]

    def to_povm(self) -> "Povm":
        """The projective measurement |b_j><b_j|."""
        elems = np.einsum("ji,jk->jik", self.vectors, self.vectors.conj())
        return Povm(elems)


class MubSet:
    """M pairwise mutually unbiased orthonormal bases in dimension d.

    ``vectors`` stacks the bases as an (M, d, d) array, row j of slice m
    being the j-th vector of basis m; ``max_deviation`` is the largest
    | |<a_i|b_j>|^2 - 1/d | over all pairs of distinct bases found by the
    construction check.
    """

    __slots__ = ("bases", "dim", "count", "vectors", "max_deviation")

    def __init__(self, bases):
        bases = tuple(
            b if isinstance(b, OrthonormalBasis) else OrthonormalBasis(b) for b in bases
        )
        if len(bases) < 1:
            raise DomainError("a MUB set needs at least one basis")
        d = bases[0].dim
        if any(b.dim != d for b in bases):
            raise DimensionMismatchError("bases have differing dimensions")
        vectors = np.stack([b.vectors for b in bases])
        vectors.setflags(write=False)
        # [a, b, i, j] = |<a_i|b_j>|^2 for every ordered pair of bases at once
        overlap2 = np.abs(vectors.conj()[:, None] @ vectors.swapaxes(-1, -2)[None]) ** 2
        first, second = np.triu_indices(len(bases), 1)
        devs = np.abs(overlap2[first, second] - 1.0 / d).max(axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(~(devs <= MUB_ATOL))
        if bad.size:
            k = bad[0]
            raise ConstructionError(
                f"bases {first[k]} and {second[k]} are not unbiased "
                f"(worst deviation {devs[k]:.3e})"
            )
        self.bases = bases
        self.dim = d
        self.count = len(bases)
        self.vectors = vectors
        self.max_deviation = float(devs.max(initial=0.0))

    def __iter__(self):
        return iter(self.bases)

    def __len__(self):
        return self.count


class Povm:
    """Positive operators summing to the identity."""

    __slots__ = ("elements", "dim")

    def __init__(self, elements):
        elements = np.array(elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
            raise DomainError(f"expected N square matrices, got shape {elements.shape}")
        d = elements.shape[1]
        total = elements.sum(axis=0)
        dev = float(np.max(np.abs(total - np.eye(d))))
        if not dev <= POVM_ATOL:
            raise ConstructionError(f"POVM completeness fails (deviation {dev:.3e})")
        for k, e in enumerate(elements):
            herm_dev = float(np.max(np.abs(e - e.conj().T)))
            if not herm_dev <= POVM_ATOL:
                raise ConstructionError(f"element {k} is not Hermitian ({herm_dev:.3e})")
            min_eig = float(np.linalg.eigvalsh(e).min())
            if not min_eig >= -1e-10:
                raise ConstructionError(f"element {k} has negative eigenvalue {min_eig:.3e}")
        elements.setflags(write=False)
        self.elements = elements
        self.dim = d

    def __len__(self):
        return self.elements.shape[0]

    def rank_one_kets(self) -> np.ndarray:
        """Subnormalized kets m_j with element_j = |m_j><m_j|.

        Raises :class:`~mubsic.errors.PreconditionError` when any element
        has rank above one within ``POVM_ATOL``.
        """
        kets = np.empty((len(self), self.dim), dtype=complex)
        for k, e in enumerate(self.elements):
            eigs, vecs = np.linalg.eigh(e)
            if eigs.size > 1 and eigs[-2] > POVM_ATOL:
                raise PreconditionError(
                    f"element {k} is not rank-one (second eigenvalue {eigs[-2]:.3e})"
                )
            kets[k] = np.sqrt(max(eigs[-1], 0.0)) * vecs[:, -1]
        return kets


class SicPovm:
    """d^2 unit kets whose weighted projectors (1/d)|phi_j><phi_j| form a POVM."""

    __slots__ = ("kets", "dim")

    def __init__(self, kets, atol: float = SIC_ATOL):
        kets = np.array(kets, dtype=complex)
        d = kets.shape[1] if kets.ndim == 2 else 0
        if kets.ndim != 2 or kets.shape[0] != d * d:
            raise DomainError(f"expected d^2 kets of dimension d, got shape {kets.shape}")
        overlap2 = np.abs(kets.conj() @ kets.T) ** 2
        off = overlap2 - 1.0 / (d + 1.0)
        np.fill_diagonal(off, 0.0)
        worst = float(np.max(np.abs(off)))
        norm_dev = float(np.max(np.abs(np.diag(overlap2) - 1.0)))
        completeness = np.einsum("jk,jl->kl", kets, kets.conj()) / d
        comp_dev = float(np.max(np.abs(completeness - np.eye(d))))
        devs = np.array([worst, norm_dev, comp_dev])
        if not np.all(devs <= atol):
            raise NotASicError(
                "kets fail the SIC conditions "
                f"(worst overlap deviation {worst:.3e}, norm {norm_dev:.3e}, "
                f"completeness {comp_dev:.3e})",
                worst_deviation=float(devs.max()),
            )
        kets.setflags(write=False)
        self.kets = kets
        self.dim = d

    def __len__(self):
        return self.kets.shape[0]

    def elements(self) -> np.ndarray:
        """The POVM elements (1/d)|phi_j><phi_j| as an (d^2, d, d) array."""
        return np.einsum("ji,jk->jik", self.kets, self.kets.conj()) / self.dim

    def to_povm(self) -> Povm:
        return Povm(self.elements())


def expectations(kets, mats) -> np.ndarray:
    """<k_j|A|k_j> for every ket row k_j and matrix A of a stack, real part.

    ``kets`` is (K, d) and ``mats`` is (d, d) or (N, d, d); the result is
    (K,) or (N, K).  One matmul per matrix and one sum along the last axis,
    so row n of the result depends on mats[n] alone, whatever N is.
    """
    return (np.matmul(kets.conj(), mats) * kets).sum(axis=-1).real


def probabilities(meas, rho: DensityMatrix) -> ProbDist:
    """Outcome probabilities of a measurement on a state or a stack of states.

    p_j = <b_j|rho|b_j> for a basis, tr(M_j rho) for a POVM, and
    (1/d)<phi_j|rho|phi_j> for a SIC ket family.  A :class:`MubSet` gives
    every basis at once, with shape (M, d).  A stack of N states puts N in
    front of that shape.
    """
    if not isinstance(meas, (MubSet, OrthonormalBasis, SicPovm, Povm)):
        raise DomainError(f"unsupported measurement type {type(meas).__name__}")
    if meas.dim != rho.dim:
        raise DimensionMismatchError(
            f"{type(meas).__name__} dim {meas.dim} vs state dim {rho.dim}"
        )
    batch = rho.mat.shape[:-2]
    if isinstance(meas, MubSet):
        p = expectations(meas.vectors.reshape(-1, meas.dim), rho.mat)
        p = p.reshape(batch + meas.vectors.shape[:2])
    elif isinstance(meas, OrthonormalBasis):
        p = expectations(meas.vectors, rho.mat)
    elif isinstance(meas, SicPovm):
        p = expectations(meas.kets, rho.mat) / meas.dim
    else:
        p = np.einsum("jkl,...lk->...j", meas.elements, rho.mat).real
    return ProbDist(p)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


_PAULI_EIGENBASES = (
    # sigma_z, sigma_x, sigma_y eigenbases
    np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0),
)


def mub_construct(d: int, count: int) -> MubSet:
    """Build ``count`` mutually unbiased bases in prime dimension d.

    d = 2 uses the three Pauli eigenbases.  For an odd prime d the set is
    the standard basis followed by the d quadratic-phase bases with
    components <k|b_j^(m)> = d^(-1/2) omega^(m k^2 + j k), omega =
    exp(2 pi i / d); the first ``count`` of those d+1 bases are returned.
    The unbiasedness invariant is re-verified on construction.
    """
    d = int(d)
    count = int(count)
    if d != 2 and not (_is_prime(d) and d % 2 == 1):
        raise DomainError(f"unsupported dimension {d}: construction needs d = 2 or an odd prime")
    if not 2 <= count <= d + 1:
        raise DomainError(f"basis count must lie in [2, {d + 1}], got {count}")
    if d == 2:
        return MubSet(_PAULI_EIGENBASES[:count])
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    bases = [np.eye(d, dtype=complex)]
    for m in range(d):
        phase = m * k[None, :] ** 2 + k[:, None] * k[None, :]  # rows j, columns k
        bases.append(omega ** np.mod(phase, d) / np.sqrt(d))
        if len(bases) == count:
            break
    return MubSet(bases[:count])


_TETRAHEDRON_BLOCH = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / np.sqrt(3.0)


def _ket_from_bloch(s) -> np.ndarray:
    sx, sy, sz = s
    theta = np.arccos(np.clip(sz, -1.0, 1.0))
    phi = np.arctan2(sy, sx)
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


_BUILTIN_FIDUCIALS = {
    3: np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


def weyl_heisenberg_orbit(fiducial) -> np.ndarray:
    """The d^2 kets X^a Z^b |f> with X|k> = |k+1 mod d>, Z|k> = omega^k |k>.

    Ket a d + b has component k equal to omega^(b (k - a)) f[k - a], indices
    mod d.
    """
    f = np.asarray(fiducial, dtype=complex).ravel()
    d = f.size
    omega = np.exp(2j * np.pi / d)
    a, b, k = np.ix_(*(np.arange(d),) * 3)
    return (omega ** np.mod(b * (k - a), d) * f[np.mod(k - a, d)]).reshape(d * d, d)


def sic_from_fiducial(d: int, fiducial=None) -> SicPovm:
    """SIC-POVM from a Weyl-Heisenberg orbit of a fiducial ket.

    With ``fiducial=None`` the builtin is used: for d = 2 the four
    Bloch-tetrahedron kets with Bloch vectors (+-1, +-1, +-1)/sqrt(3)
    having an even number of minus signs, for d = 3 the orbit of
    (0, 1, -1)/sqrt(2).  Other dimensions need an explicit fiducial
    (e.g. loaded with :func:`load_fiducial`).

    Raises :class:`~mubsic.errors.NotASicError` with the worst pairwise
    deviation if the orbit fails the SIC conditions.
    """
    d = int(d)
    if fiducial is None:
        if d == 2:
            kets = np.array([_ket_from_bloch(s) for s in _TETRAHEDRON_BLOCH])
            return SicPovm(kets)
        if d in _BUILTIN_FIDUCIALS:
            return SicPovm(weyl_heisenberg_orbit(_BUILTIN_FIDUCIALS[d]))
        raise DomainError(f"no builtin fiducial for dimension {d}; provide one")
    f = np.asarray(fiducial, dtype=complex).ravel()
    if f.size != d:
        raise DimensionMismatchError(f"fiducial has dimension {f.size}, expected {d}")
    norm_dev = abs(np.linalg.norm(f) - 1.0)
    if not norm_dev <= 1e-10:
        raise DomainError(f"fiducial is not unit norm (deviation {norm_dev:.3e})")
    return SicPovm(weyl_heisenberg_orbit(f))


@dataclass(frozen=True)
class SicConsequences:
    """Deviations from the two completeness-relation identities."""

    trace_identity_dev: float
    reconstruction_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return max(self.trace_identity_dev, self.reconstruction_dev) <= self.tolerance


def sic_consequences_check(sic: SicPovm, a, psi, tolerance: float = 1e-10) -> SicConsequences:
    """Check (1/d^2) sum_ij <phi_i|A|phi_j><phi_j|phi_i> = tr A and ket reconstruction.

    Both identities follow from completeness; the report carries the
    maximal deviations.
    """
    a = np.asarray(a, dtype=complex)
    psi = np.asarray(psi, dtype=complex).ravel()
    d = sic.dim
    if a.shape != (d, d) or psi.size != d:
        raise DimensionMismatchError("operator or ket dimension does not match the SIC")
    kets = sic.kets
    cross = kets.conj() @ kets.T  # cross[i, j] = <phi_i|phi_j>
    amat = np.einsum("ik,kl,jl->ij", kets.conj(), a, kets)  # <phi_i|A|phi_j>
    double_sum = np.einsum("ij,ji->", amat, cross) / d**2
    trace_dev = abs(double_sum - np.trace(a))
    rebuilt = (kets.T * (kets.conj() @ psi)).sum(axis=1) / d
    rec_dev = float(np.max(np.abs(rebuilt - psi)))
    return SicConsequences(float(trace_dev), rec_dev, tolerance)


def sic_design_basis(sic: SicPovm) -> np.ndarray:
    """Orthonormal basis of H (x) H built from a SIC ket family.

    Returns the d^2 vectors

        v_0     = d^(-3/2) sum_j phi_j (x) phi_j*
        v_k     = sqrt(d+1) d^(-3/2) sum_j omega^(k(j-1)) phi_j (x) phi_j*

    for k = 1..d^2-1, with omega = exp(2 pi i / d^2) and j-1 running over
    the stored ket order.  The Gram matrix is re-verified; deviations
    beyond 1e-8 raise :class:`~mubsic.errors.ConstructionError` (the
    input did not satisfy the SIC conditions tightly enough).
    """
    d = sic.dim
    n = d * d
    pairs = np.empty((n, n), dtype=complex)
    for j in range(n):
        pairs[j] = kron(sic.kets[j], sic.kets[j].conj())
    omega = np.exp(2j * np.pi / n)
    phases = omega ** (np.arange(n)[:, None] * np.arange(n)[None, :])  # [k, j]
    vectors = phases @ pairs / d**1.5
    vectors[1:] *= np.sqrt(d + 1.0)
    gram = vectors.conj() @ vectors.T
    dev = float(np.max(np.abs(gram - np.eye(n))))
    if dev > 1e-8:
        raise ConstructionError(
            f"design-basis Gram deviation {dev:.3e}; input kets are not a SIC"
        )
    return vectors


def distort(p, eta: float) -> ProbDist:
    """Detector-inefficiency distortion: scale by eta, append the no-click outcome.

    The output has one more entry than the input along the last axis; the
    final entry is 1 - eta.
    """
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {eta}")
    p = p.p if isinstance(p, ProbDist) else ProbDist(p).p
    no_click = np.full(p.shape[:-1] + (1,), 1.0 - eta)
    return ProbDist(np.concatenate([eta * p, no_click], axis=-1))


def load_fiducial(path) -> tuple[np.ndarray, float]:
    """Load a fiducial ket from JSON {"dim": d, "re": [...], "im": [...]}.

    The vector is normalized to unit norm; the applied rescaling factor
    is returned alongside it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        d = int(obj["dim"])
        vec = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed fiducial JSON: {exc}") from exc
    vec = vec.ravel()
    if vec.size != d:
        raise DomainError(f"fiducial JSON dim {d} does not match {vec.size} components")
    if not np.all(np.isfinite(vec)):
        raise DomainError("fiducial vector has a non-finite component")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DomainError("fiducial vector is zero")
    return vec / norm, 1.0 / norm
