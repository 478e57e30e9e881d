"""Quantum measurements: one verified, read-only record, :class:`Measurement`.

A measurement is known only through its outcome statistics tr(E_j rho).
Each builder re-verifies the invariant of its ``kind`` before it returns,
so downstream code never sees an unverified measurement:

* :func:`orthonormal_basis` ("basis") checks the Gram matrix,
* :func:`mub_set` ("mubs") checks all cross-basis overlaps against 1/d,
* :func:`povm` ("povm") checks positivity and completeness,
* :func:`sic_povm` ("sic") checks the pairwise overlap condition
  |<phi_j|phi_k>|^2 = 1/(d+1) and the completeness relation
  (1/d) sum_j |phi_j><phi_j| = I.

Each rejects a non-finite entry before any arithmetic.  The SIC tolerance
is looser (1e-8) than elsewhere because fiducial vectors loaded from
published numerical data are themselves inexact.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .entropy import ProbDist, _dist, check_efficiency
from .errors import (
    ConstructionError,
    DimensionMismatchError,
    DomainError,
    NotASicError,
)
from .states import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    _check_state,
    _complex_json,
    _read_array,
    check_dimension,
    check_integer,
    positivity_failure,
    state_slack,
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
    elements = _read_array(elements, "measurement input", complex)
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


class Measurement:
    """A measurement of K outcomes in dimension d, read-only, verified by the builder that made it.

    ``kind`` is "basis", "mubs", "povm" or "sic"; ``shape`` is (K,), or
    (M, d) for M bases; ``design`` is the :func:`design_matrix` of the
    elements E_j, the only form of them kept.  ``kets`` are the (K, d)
    defining kets k_j, E_j = |k_j><k_j| / ``scale`` (d for a SIC's unit
    kets, else 1), or None for a POVM with an element of rank above one.
    ``deviation`` is the worst deviation from its invariant that the builder
    found.  It compares and hashes by identity, so one object keys the memos.
    """

    __slots__ = ("kind", "dim", "shape", "design", "kets", "scale", "deviation")

    def __init__(self, kind, elements, kets, scale, deviation, shape=None):
        if kets is not None:
            kets.setflags(write=False)
        d, design = elements.shape[-1], design_matrix(elements)
        values = (kind, d, shape or elements.shape[:1], design, kets, scale, deviation)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a Measurement is read-only: cannot set {name!r}")


def _kind(meas) -> str:
    """The kind of a :class:`Measurement`, else the name of the type of what was given."""
    return meas.kind if isinstance(meas, Measurement) else type(meas).__name__


def _basis_vectors(vectors) -> tuple[np.ndarray, float]:
    """d orthonormal vectors of dimension d as a new array, with their Gram deviation."""
    vectors = _read_array(vectors, "measurement input", complex, finite=True)
    if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
        raise DomainError(f"expected d vectors of dimension d, got shape {vectors.shape}")
    check_dimension(vectors.shape[0])
    dev = _identity_deviation(vectors.conj() @ vectors.T)
    if not dev <= GRAM_ATOL:
        raise ConstructionError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
    return vectors, dev


def orthonormal_basis(vectors) -> Measurement:
    """The "basis" of d orthonormal vectors of dimension d, row j being |b_j>."""
    vectors, dev = _basis_vectors(vectors)
    return Measurement("basis", _projectors(vectors), vectors, 1, dev)


def mub_set(bases) -> Measurement:
    """The "mubs" of M pairwise mutually unbiased orthonormal bases in dimension d.

    ``bases`` holds "basis" measurements or what :func:`orthonormal_basis`
    takes.  ``deviation`` is the largest | |<a_i|b_j>|^2 - 1/d | over all
    pairs of distinct bases.
    """
    # a raw basis is checked as orthonormal_basis checks it, without building its record
    bases = [b if isinstance(b, Measurement) else _basis_vectors(b)[0] for b in bases]
    if len(bases) < 1:
        raise DomainError("a MUB set needs at least one basis")
    kinds = [b.kind if isinstance(b, Measurement) else "basis" for b in bases]
    if any(kind != "basis" for kind in kinds):
        raise DomainError(f"a MUB set takes bases, got {', '.join(kinds)}")
    vectors = [b.kets if isinstance(b, Measurement) else b for b in bases]
    d = vectors[0].shape[-1]
    if any(v.shape[-1] != d for v in vectors):
        raise DimensionMismatchError("bases have differing dimensions")
    vectors = np.stack(vectors)
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
    kets, deviation = vectors.reshape(-1, d), float(devs.max(initial=0.0))
    return Measurement("mubs", _projectors(kets), kets, 1, deviation, vectors.shape[:2])


def povm(elements) -> Measurement:
    """The "povm" of positive operators summing to the identity.

    Its ``kets`` are the subnormalized m_j with element_j = |m_j><m_j|, by
    ``eigh``, when every element has rank one within ``POVM_ATOL``.
    """
    elements = _read_array(elements, "measurement input", complex, finite=True)
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
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
    eigs, vecs = np.linalg.eigh(elements)
    kets = None
    if not (eigs[:, :-1] > POVM_ATOL).any():  # eigenvalues ascend: all but the top one vanish
        kets = np.sqrt(np.maximum(eigs[:, -1], 0.0))[:, None] * vecs[:, :, -1]
    return Measurement("povm", elements, kets, 1, max(dev, float(herm_dev.max())))


def sic_povm(kets) -> Measurement:
    """The "sic" of d^2 unit kets whose weighted projectors (1/d)|phi_j><phi_j| form a POVM."""
    kets = _read_array(kets, "measurement input", complex, finite=True)
    d = kets.shape[-1]
    if kets.ndim != 2 or kets.shape[0] != d * d:
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
    return Measurement("sic", _projectors(kets) / d, kets, d, float(devs.max()))


def probabilities(meas, rho: DensityMatrix) -> ProbDist:
    """Outcome probabilities p_j = tr(E_j rho) of a measurement on a state or a stack.

    Every :class:`Measurement` carries the :func:`design_matrix` of its
    elements, built once by its builder, so the probabilities are one real
    matmul x @ D per state (:func:`apply_design`), with x = vec(rho) as
    interleaved (re, im) floats; x @ D equals Re tr(E_j rho) exactly in
    exact arithmetic.  The matmul stays per state so that row n of a stack
    is bitwise the single-state result.  The result has the measurement's
    ``shape``, (M, d) for a MUB set; a stack of N states puts N in front.
    It is validated with the state's slack, :func:`states.state_slack`.
    """
    _check_state(rho)
    if not isinstance(meas, Measurement):
        raise DomainError(f"unsupported measurement type {type(meas).__name__}")
    if meas.dim != rho.dim:
        raise DimensionMismatchError(f"{meas.kind} dim {meas.dim} vs state dim {rho.dim}")
    p = apply_design(meas.design, rho.mat)
    return ProbDist(p.reshape(p.shape[:-1] + meas.shape), state_slack(rho.dim))


_PAULI_EIGENBASES = (
    # sigma_z, sigma_x, sigma_y eigenbases
    np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),
    np.array([[1.0, 1.0j], [1.0, -1.0j]], dtype=complex) / np.sqrt(2.0),
)


def mub_construct(d: int, count: int) -> Measurement:
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
        return mub_set(_PAULI_EIGENBASES[:count])
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    bases = [np.eye(d, dtype=complex)]
    for m in range(count - 1):
        phase = m * k[None, :] ** 2 + k[:, None] * k[None, :]  # rows j, columns k
        bases.append(omega ** np.mod(phase, d) / np.sqrt(d))
    return mub_set(bases)


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
    f = _read_array(fiducial, "measurement input", complex, finite=True).ravel()
    d = f.size
    omega = np.exp(2j * np.pi / d)
    a, b, k = np.ix_(*(np.arange(d),) * 3)
    return (omega ** np.mod(b * (k - a), d) * f[np.mod(k - a, d)]).reshape(d * d, d)


def sic_from_fiducial(d: int, fiducial=None) -> Measurement:
    """SIC-POVM from a Weyl-Heisenberg orbit of a fiducial ket.

    With ``fiducial=None`` the builtin is used: for d = 2 the four
    Bloch-tetrahedron kets with Bloch vectors (+-1, +-1, +-1)/sqrt(3)
    having an even number of minus signs, for d = 3 the orbit of
    (0, 1, -1)/sqrt(2).  A builtin fiducial meets the checks a given one
    does.  Other dimensions need an explicit fiducial (e.g. loaded with
    :func:`load_fiducial`).

    Raises :class:`~mubsic.errors.NotASicError` with the worst pairwise
    deviation if the orbit fails the SIC conditions.
    """
    d = check_dimension(d)
    if fiducial is None:
        if d == 2:
            return sic_povm(np.array([_ket_from_bloch(s) for s in _TETRAHEDRON_BLOCH]))
        if d not in _BUILTIN_FIDUCIALS:
            raise DomainError(f"no builtin fiducial for dimension {d}; provide one")
        fiducial = _BUILTIN_FIDUCIALS[d]
    f = _read_array(fiducial, "measurement input", complex, finite=True).ravel()
    if f.size != d:
        raise DimensionMismatchError(f"fiducial has dimension {f.size}, expected {d}")
    norm_dev = abs(np.linalg.norm(f) - 1.0)
    if not norm_dev <= 1e-10:
        raise DomainError(f"fiducial is not unit norm (deviation {norm_dev:.3e})")
    return sic_povm(weyl_heisenberg_orbit(f))


def distort(p, eta: float) -> ProbDist:
    """Detector-inefficiency distortion: scale by eta, append the no-click outcome.

    The output has one more entry than the input along the last axis; the
    final entry is 1 - eta.  It is valid when the input is: its entries are
    >= 0 and its sums are off 1 by eta times the input's.
    """
    eta = check_efficiency(eta)
    p = _dist(p).p
    no_click = np.full(p.shape[:-1] + (1,), 1.0 - eta)
    out = np.concatenate([eta * p, no_click], axis=-1)
    out.setflags(write=False)
    return ProbDist._unchecked(out)


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
        d, vec = _complex_json(json.load, fh, "fiducial")
    vec = _read_array(vec, "measurement input", complex, finite=True).ravel()
    if vec.size != d:
        raise DomainError(f"fiducial JSON dim {d} does not match {vec.size} components")
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise DomainError("fiducial vector is zero")
    return vec / norm, 1.0 / norm
