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
import math
import os

import numpy as np

from .entropy import ProbDist, as_probabilities, check_efficiency
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    DomainError,
    NotASicError,
    PreconditionError,
)
from .states import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    check_dimension,
    check_integer,
    positivity_failure,
)

GRAM_ATOL = 1e-10
MUB_ATOL = 1e-10
POVM_ATOL = 1e-10
SIC_ATOL = 1e-8


def _identity_deviation(m) -> float:
    """max |m - I| over the entries of a square matrix."""
    return float(np.max(np.abs(m - np.eye(m.shape[-1]))))


def _projectors(kets) -> np.ndarray:
    """The (K, d, d) stack of |k_j><k_j| for ket rows k_j of a (K, d) array."""
    return np.einsum("ji,jk->jik", kets, kets.conj())


def design_matrix(elements) -> np.ndarray:
    """Real (2n^2, K) matrix D of the linear maps A -> tr(E_j A), read-only.

    Column j is vec(E_j^H), row-major, viewed as interleaved (re, im)
    floats.  With x = vec(A) viewed the same way, x @ D is exactly
    Re sum_ab A_ab (E_j^T)_ab = Re tr(E_j A), with no Hermiticity assumed
    of E_j or A; for a projector E_j = |k_j><k_j| it is <k_j|A|k_j>.
    """
    elements = np.asarray(elements, dtype=complex)
    columns = elements.conj().swapaxes(-1, -2).reshape(elements.shape[0], -1)
    design = columns.view(np.float64).T
    design.setflags(write=False)
    return design


def apply_design(design, mat) -> np.ndarray:
    """Re tr(E_j A) for every column j of ``design`` and matrix A of a (n, n) or (N, n, n) stack.

    The result is (K,) or (N, K).  One real matmul per matrix, so row n
    depends on mat[n] alone, bit for bit, whatever N is: a single
    (N, 2n^2) @ (2n^2, K) product would be faster, but BLAS may block its
    rows differently for different N.  The float view of ``mat`` is taken
    after a reshape, which copies any matrix that is not row-major.
    """
    x = mat.reshape(mat.shape[:-2] + (1, -1)).view(np.float64)
    return np.matmul(x, design)[..., 0, :]


class OrthonormalBasis:
    """d unit vectors of dimension d with Gram matrix equal to identity.

    ``design`` is the :func:`design_matrix` of the projectors |b_j><b_j|.
    """

    __slots__ = ("vectors", "dim", "design")

    def __init__(self, vectors):
        vectors = np.array(vectors, dtype=complex)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1] or vectors.size == 0:
            raise DomainError(f"expected d vectors of dimension d, got shape {vectors.shape}")
        check_dimension(vectors.shape[0])
        dev = _identity_deviation(vectors.conj() @ vectors.T)
        if not dev <= GRAM_ATOL:
            raise ConstructionError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        vectors.setflags(write=False)
        self.vectors = vectors
        self.dim = vectors.shape[0]
        self.design = design_matrix(_projectors(vectors))


class MubSet:
    """M pairwise mutually unbiased orthonormal bases in dimension d.

    ``vectors`` stacks the bases as an (M, d, d) array, row j of slice m
    being the j-th vector of basis m; ``max_deviation`` is the largest
    | |<a_i|b_j>|^2 - 1/d | over all pairs of distinct bases found by the
    construction check.  ``design`` is the :func:`design_matrix` of all
    M d projectors, basis by basis.
    """

    __slots__ = ("bases", "dim", "count", "vectors", "max_deviation", "design")

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
        self.design = design_matrix(_projectors(vectors.reshape(-1, d)))

    def __iter__(self):
        return iter(self.bases)

    def __len__(self):
        return self.count


class Povm:
    """Positive operators summing to the identity; ``design`` is their :func:`design_matrix`."""

    __slots__ = ("elements", "dim", "design")

    def __init__(self, elements):
        elements = np.array(elements, dtype=complex)
        if elements.ndim != 3 or elements.shape[1] != elements.shape[2] or elements.size == 0:
            raise DomainError(f"expected N square matrices, got shape {elements.shape}")
        check_dimension(elements.shape[1])
        dev = _identity_deviation(elements.sum(axis=0))
        if not dev <= POVM_ATOL:
            raise ConstructionError(f"POVM completeness fails (deviation {dev:.3e})")
        herm_dev = np.abs(elements - elements.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        bad = np.flatnonzero(~(herm_dev <= POVM_ATOL))
        if bad.size:
            raise ConstructionError(f"element {bad[0]} is not Hermitian ({herm_dev[bad[0]]:.3e})")
        min_eig = positivity_failure(elements)
        if min_eig is not None:
            bad = np.flatnonzero(~(min_eig >= EIGENVALUE_FLOOR))
            raise ConstructionError(
                f"element {bad[0]} has negative eigenvalue {min_eig[bad[0]]:.3e}"
            )
        elements.setflags(write=False)
        self.elements = elements
        self.dim = elements.shape[1]
        self.design = design_matrix(elements)

    def __len__(self):
        return self.elements.shape[0]

    def rank_one_kets(self) -> np.ndarray:
        """Subnormalized kets m_j with element_j = |m_j><m_j|.

        Raises :class:`~mubsic.errors.PreconditionError` when any element
        has rank above one within ``POVM_ATOL``.
        """
        eigs, vecs = np.linalg.eigh(self.elements)
        # eigenvalues ascend, so the largest below the top one is the second
        second = eigs[:, :-1].max(axis=-1, initial=-np.inf)
        bad = np.flatnonzero(second > POVM_ATOL)
        if bad.size:
            raise PreconditionError(
                f"element {bad[0]} is not rank-one (second eigenvalue {second[bad[0]]:.3e})"
            )
        return np.sqrt(np.maximum(eigs[:, -1], 0.0))[:, None] * vecs[:, :, -1]


class SicPovm:
    """d^2 unit kets whose weighted projectors (1/d)|phi_j><phi_j| form a POVM.

    ``design`` is the :func:`design_matrix` of those POVM elements.
    """

    __slots__ = ("kets", "dim", "design")

    def __init__(self, kets):
        kets = np.array(kets, dtype=complex)
        d = kets.shape[1] if kets.ndim == 2 else 0
        if d == 0 or kets.shape[0] != d * d:
            raise DomainError(f"expected d^2 kets of dimension d, got shape {kets.shape}")
        check_dimension(d)
        overlap2 = np.abs(kets.conj() @ kets.T) ** 2
        off = overlap2 - 1.0 / (d + 1.0)
        np.fill_diagonal(off, 0.0)
        worst = float(np.max(np.abs(off)))
        norm_dev = float(np.max(np.abs(np.diag(overlap2) - 1.0)))
        comp_dev = _identity_deviation(np.einsum("jk,jl->kl", kets, kets.conj()) / d)
        devs = np.array([worst, norm_dev, comp_dev])
        if not np.all(devs <= SIC_ATOL):
            raise NotASicError(
                "kets fail the SIC conditions "
                f"(worst overlap deviation {worst:.3e}, norm {norm_dev:.3e}, "
                f"completeness {comp_dev:.3e})",
                worst_deviation=float(devs.max()),
            )
        kets.setflags(write=False)
        self.kets = kets
        self.dim = d
        self.design = design_matrix(self.elements())

    def __len__(self):
        return self.kets.shape[0]

    def elements(self) -> np.ndarray:
        """The POVM elements (1/d)|phi_j><phi_j| as an (d^2, d, d) array."""
        return _projectors(self.kets) / self.dim


def probabilities(meas, rho: DensityMatrix) -> ProbDist:
    """Outcome probabilities p_j = tr(E_j rho) of a measurement on a state or a stack.

    E_j is |b_j><b_j| for a basis, the element M_j for a POVM, and
    (1/d)|phi_j><phi_j| for a SIC ket family.  Every measurement class
    carries the :func:`design_matrix` of its elements, built once at
    construction, so the probabilities are one real matmul x @ D per state
    (:func:`apply_design`), with x = vec(rho) as interleaved (re, im)
    floats; x @ D equals Re tr(E_j rho) exactly in exact arithmetic.  The
    matmul stays per state so that row n of a stack is bitwise the
    single-state result.  A :class:`MubSet` gives every basis at once,
    with shape (M, d).  A stack of N states puts N in front of that shape.
    """
    if not isinstance(meas, (MubSet, OrthonormalBasis, SicPovm, Povm)):
        raise DomainError(f"unsupported measurement type {type(meas).__name__}")
    if meas.dim != rho.dim:
        raise DimensionMismatchError(
            f"{type(meas).__name__} dim {meas.dim} vs state dim {rho.dim}"
        )
    p = apply_design(meas.design, rho.mat)
    if isinstance(meas, MubSet):
        p = p.reshape(p.shape[:-1] + (meas.count, meas.dim))
    return ProbDist(p)


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
    d = check_dimension(d)
    count = check_integer(count, "basis count", 2)
    odd_prime = d % 2 == 1 and all(d % f for f in range(3, math.isqrt(d) + 1, 2))
    if d != 2 and not odd_prime:
        raise DomainError(f"unsupported dimension {d}: construction needs d = 2 or an odd prime")
    if count > d + 1:
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
    if f.size == 0:
        raise DomainError(f"fiducial ket must be non-empty, got shape {np.shape(fiducial)}")
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
    d = check_dimension(d)
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
    pairs = (sic.kets[:, :, None] * sic.kets.conj()[:, None, :]).reshape(n, n)
    omega = np.exp(2j * np.pi / n)
    phases = omega ** (np.arange(n)[:, None] * np.arange(n)[None, :])  # [k, j]
    vectors = phases @ pairs / d**1.5
    vectors[1:] *= np.sqrt(d + 1.0)
    dev = _identity_deviation(vectors.conj() @ vectors.T)
    if not dev <= 1e-8:
        raise ConstructionError(
            f"design-basis Gram deviation {dev:.3e}; input kets are not a SIC"
        )
    return vectors


def distort(p, eta: float) -> ProbDist:
    """Detector-inefficiency distortion: scale by eta, append the no-click outcome.

    The output has one more entry than the input along the last axis; the
    final entry is 1 - eta.
    """
    eta = check_efficiency(eta)
    p = as_probabilities(p)
    no_click = np.full(p.shape[:-1] + (1,), 1.0 - eta)
    return ProbDist(np.concatenate([eta * p, no_click], axis=-1))


def check_fiducial_path(path):
    """``path`` itself, which must be a str or an os.PathLike: ``open`` takes an int as a descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"fiducial path must be a str or os.PathLike, got {path!r}")
    return path


def load_fiducial(path) -> tuple[np.ndarray, float]:
    """Load a fiducial ket from JSON {"dim": d, "re": [...], "im": [...]}.

    ``path`` must be a str or an os.PathLike.  The vector is normalized to
    unit norm; the applied rescaling factor is returned alongside it.
    """
    with open(check_fiducial_path(path), "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
            d = check_dimension(obj["dim"])
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
