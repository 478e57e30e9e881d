"""Density matrices: validation, purity, Bloch form, and random sampling.

A :class:`DensityMatrix` is one state or a stack of states, validated
together.  Every random draw goes through :func:`stream`, which checks
its key and returns a fresh counter-based Philox generator whose key is
the seed and whose counter holds the stream ids (Salmon et al., SC'11),
so Monte-Carlo campaigns stay bitwise reproducible in any execution
order.  :func:`random_mixed` is the one sampler (Ginibre-induced
states); :func:`random_pure` is its rank-1 case.
"""

from __future__ import annotations

import functools
import json
import sys

import numpy as np

from .errors import DomainError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
# the largest stream id: id + 1 must fit one 64-bit counter word
_MAX_STREAM_ID = 2**64 - 2


def state_slack(d: int) -> float:
    """s = (d - 1)(|EIGENVALUE_FLOOR| + d HERMITICITY_ATOL) + TRACE_ATOL for dimension d.

    How far a d x d state that :class:`DensityMatrix` accepts can lie outside
    the true states.  The floor is checked on the Hermitian matrix of the
    lower triangle, within d HERMITICITY_ATOL / 2 in norm of the Hermitian
    part H of the matrix, so H's negative eigenvalues, at most d - 1 of them,
    sum to at least -(s - TRACE_ATOL), and all of them sum to 1 within
    TRACE_ATOL.  Hence:

    * its largest eigenvalue is at most 1 + s, and its purity at most
      (1 + s)^2 + s^2 = 1 + 2s(1 + s);
    * an outcome Re tr(E rho) of an element 0 <= E <= I is at least -s, and
      clamping the negative outcomes of one complete measurement to zero
      moves their sum, 1 within TRACE_ATOL, by at most s.

    The readers of a state allow exactly this (``entropy.ProbDist`` through
    ``measurements.probabilities``, and the bounds' purity check), so each
    accepts every state the validator accepts.
    """
    return (d - 1) * (-EIGENVALUE_FLOOR + d * HERMITICITY_ATOL) + TRACE_ATOL


def check_integer(value, what: str, least: int) -> int:
    """``value`` as an int, which must be integral (4.0 passes, 4.5 does not) and >= ``least``."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, inf, non-numbers
        n = None
    if n is None or n != value:
        raise DomainError(f"{what} must be an integer, got {value!r}")
    if n < least:
        raise DomainError(f"{what} must be >= {least}, got {n}")
    return n


def check_dimension(d) -> int:
    """The package's one dimension rule: d as an int, which must be an integer >= 2."""
    return check_integer(d, "dimension", 2)


def _read_array(values, what: str, dtype=float, *, finite=False, ndmin=0) -> np.ndarray:
    """The one reader of a caller's array: ``values`` as a new row-major array of ``dtype``.

    Raises :class:`DomainError` when numpy cannot read it ("<what> is not a
    numeric array: ..."; ragged lists, text and dicts), when it is empty
    ("empty <what> array, shape ...") and, with ``finite``, when an entry is
    NaN or infinite ("<what> has a non-finite entry").  ``ndmin`` is numpy's.
    """
    try:
        array = np.array(values, dtype=dtype, order="C", ndmin=ndmin)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} is not a numeric array: {exc}") from None
    if not array.size:
        raise DomainError(f"empty {what} array, shape {array.shape}")
    if finite and not np.isfinite(array).all():
        raise DomainError(f"{what} has a non-finite entry")
    return array


@functools.cache
def _cholesky_shift(d: int) -> np.ndarray:
    """(|EIGENVALUE_FLOOR| / 2) I_d, read-only: the diagonal shift of :func:`positivity_failure`."""
    shift = (-0.5 * EIGENVALUE_FLOOR) * np.eye(d)
    shift.setflags(write=False)
    return shift


def positivity_failure(mat):
    """None if each Hermitian matrix of a (d, d) or (N, d, d) array has eigenvalues >= -1e-10.

    Otherwise the smallest eigenvalue of each matrix, of shape ``mat.shape[:-2]``,
    for the caller's message.  The fast path is one Cholesky factorization of
    mat + 5e-11 I (half of |EIGENVALUE_FLOOR|) over the whole stack.  It succeeds
    only if every lambda_min >= -5e-11 - O(d eps |mat|), far above the floor for
    matrices whose trace or completeness keeps |mat| near 1, so it accepts only
    what the eigenvalue test accepts.  When it fails, one batched ``eigvalsh``
    decides alone.  Both read the lower triangle.  ``mat`` must be finite: the
    factorization can pass NaN, so callers reject non-finite entries first.
    """
    try:
        np.linalg.cholesky(mat + _cholesky_shift(mat.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        pass
    min_eig = np.linalg.eigvalsh(mat)[..., 0]
    return None if (min_eig >= EIGENVALUE_FLOOR).all() else min_eig


@functools.cache
def _key_type() -> type:
    """The 128-bit key that :func:`stream` hands to ``Philox`` as it is.

    A subclass of numpy's documented seed hook
    ``numpy.random.bit_generator.ISeedSequence``, built on the first draw so
    that ``import mubsic`` does not load ``numpy.random``.  ``Philox(key=…)``
    would seed a throwaway ``SeedSequence`` from OS entropy on every call.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        __slots__ = ("seed",)

        def __init__(self, seed: int):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            """The seed as ``n_words`` little-endian words of ``dtype``, which must make 128 bits."""
            dtype = np.dtype(dtype)
            if dtype.kind != "u" or n_words * dtype.itemsize != 16:
                raise DomainError(f"a Philox key is 128 bits, not {n_words} words of {dtype}")
            words = np.frombuffer(self.seed.to_bytes(16, "little"), dtype.newbyteorder("<"))
            return words.astype(dtype)

    return PhiloxKey


def stream(seed, *stream_id) -> np.random.Generator:
    """The Philox generator for the key (seed, stream_id): the package's one source of draws.

    Counter-based, as in Salmon et al., SC'11: the seed is the 128-bit
    Philox key [seed mod 2^64, seed >> 64] and the ids go in the counter,
    [0, id_1 + 1, id_2 + 1, id_3 + 1], a missing id giving 0, so
    ``stream(s)``, ``stream(s, 0)`` and ``stream(s, 0, 0)`` differ.  Word 0
    is the block counter that draws advance, so the streams of one seed
    never share a block while each draws fewer than 2^64 blocks of four
    64-bit words.
    The seed must be an integer in [0, 2^128) and each of at most 3 ids an
    integer in [0, 2^64 - 2]; else :class:`DomainError`.  Every call returns
    a fresh generator.  A Generator passed as ``seed`` with no id is
    returned as it is.
    """
    if isinstance(seed, np.random.Generator) and not stream_id:
        return seed
    seed = check_integer(seed, "seed", 0)
    if seed >> 128:
        raise DomainError(f"seed must be < 2**128, got {seed}")
    if len(stream_id) > 3:
        raise DomainError(f"a stream takes at most 3 ids, got {len(stream_id)}")
    counter = np.zeros(4, dtype=np.uint64)  # numpy reads a list with a word >= 2**63 as floats
    for i, k in enumerate(stream_id, 1):
        k = check_integer(k, "stream id", 0)
        if k > _MAX_STREAM_ID:
            raise DomainError(f"stream id must be <= 2**64 - 2, got {k}")
        counter[i] = k + 1
    return np.random.Generator(np.random.Philox(_key_type()(seed), counter=counter))


class DensityMatrix:
    """A validated density operator, or a stack of them, validated together.

    ``mat`` has shape (d, d) for one state or (N, d, d) for a stack of N
    states of dimension ``dim``.  Construction checks hermiticity and trace
    to 1e-12 and eigenvalues >= -1e-10 (one shifted Cholesky factorization
    of the stack, and a batched eigenvalue call only when that fails: see
    :func:`positivity_failure`), after rejecting a non-finite entry before
    any arithmetic, and freezes the
    underlying array, stored row-major whatever the input's layout.
    Callers that need a matrix function of the state, such as its square
    root, decompose ``mat`` themselves.
    """

    __slots__ = ("mat", "dim")

    def __init__(self, mat):
        mat = _read_array(mat, "density matrix", complex, finite=True)
        if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
            raise DomainError(f"density matrix must be square and non-empty, got shape {mat.shape}")
        herm_dev = np.abs(mat - mat.conj().swapaxes(-1, -2)).max()
        if not herm_dev <= HERMITICITY_ATOL:
            raise DomainError(f"matrix is not Hermitian (deviation {herm_dev:.3e})")
        trace_dev = np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max()
        if not trace_dev <= TRACE_ATOL:
            raise DomainError(f"trace differs from 1 by {trace_dev:.3e}")
        min_eig = positivity_failure(mat)
        if min_eig is not None:
            raise DomainError(f"matrix has negative eigenvalue {min_eig.min():.3e}")
        mat.setflags(write=False)
        self.mat = mat
        self.dim = mat.shape[-1]

    def __repr__(self):
        if self.mat.ndim == 3:
            return f"DensityMatrix(dim={self.dim}, states={self.mat.shape[0]})"
        return f"DensityMatrix(dim={self.dim}, purity={purity(self):.6f})"


def _check_state(rho, state_type=DensityMatrix) -> None:
    """:class:`DomainError` unless ``rho`` is a :class:`DensityMatrix`.

    The class is bound here when the module loads, so a wrapper that a
    tracer or a test puts in place of ``states.DensityMatrix`` is not read.
    """
    if not isinstance(rho, state_type):
        raise DomainError(f"expected a DensityMatrix, got {type(rho).__name__}")


def purity(rho: DensityMatrix):
    """tr(rho^2): a float, or an (N,) array for a stack.

    It lies in [1/d, 1] for a true state.  A state :class:`DensityMatrix`
    accepts may stray by :func:`state_slack` s: its purity can reach
    1 + 2s(1 + s), which the bounds allow (``bounds._high``), and its trace,
    off 1 by up to TRACE_ATOL, can put it a rounding below 1/d.
    """
    _check_state(rho)
    m = rho.mat
    # tr(rho^2) = sum |rho_ij|^2 for Hermitian rho, over the real and
    # imaginary parts as one real vector per state
    x = m.reshape(m.shape[:-2] + (-1,)).view(np.float64)
    value = (x * x).sum(axis=-1)
    return float(value) if m.ndim == 2 else value


def maximally_mixed(d: int) -> DensityMatrix:
    """The state I/d."""
    d = check_dimension(d)
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def from_bloch(s) -> DensityMatrix:
    """Qubit state (I + s . sigma)/2 for a Bloch vector with |s| <= 1."""
    s = _read_array(s, "Bloch vector")
    if s.shape != (3,):
        raise DomainError(f"Bloch vector must have 3 real components, got shape {s.shape}")
    norm = float(np.linalg.norm(s))
    if not norm <= 1.0 + 1e-12:  # NaN fails here, not later as a non-Hermitian matrix
        raise DomainError(f"Bloch vector has length {norm:.12f} > 1")
    sx, sy, sz = s
    mat = 0.5 * np.array(
        [[1.0 + sz, sx - 1j * sy], [sx + 1j * sy, 1.0 - sz]], dtype=complex
    )
    return DensityMatrix(mat)


def random_pure(d: int, seed) -> DensityMatrix:
    """Haar-random pure state |psi><psi| in dimension d: ``random_mixed(d, 1, seed)``.

    The rank-1 Ginibre state is the projector on a normalized vector of
    i.i.d. standard complex Gaussians, so its law is unitarily invariant.
    ``seed`` is an integer key or a Generator, as for :func:`stream`.  For a
    stack, pass ranks of ones and ``normals`` to :func:`random_mixed`.
    """
    return random_mixed(d, 1, seed)


def _ginibre(normals: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """G = (X + iY) keep in one complex buffer, masked in place, for each rank of a stack.

    X = normals[..., 0, :, :] and Y = normals[..., 1, :, :]; ``keep`` is 1 in
    the columns below the rank and 0 in the rest.  Same entries as the
    product, without its three temporaries.
    """
    g = np.empty(normals.shape[:-3] + normals.shape[-2:], dtype=complex)
    g.real = normals[..., 0, :, :]
    g.imag = normals[..., 1, :, :]
    g *= np.arange(normals.shape[-1]) < rank[..., None, None]
    return g


def random_mixed(d: int, rank, seed=None, *, normals=None) -> DensityMatrix:
    """Ginibre-induced mixed state G G^dag / tr(G G^dag) with G of shape (d, rank).

    G is the first ``rank`` columns of X + iY, where X = normals[0] and
    Y = normals[1] are d x d matrices of standard normals.  ``rank`` is one
    integer in [1, d] or a non-empty array of them.  For one rank and no
    ``normals``, one (2, d, d) block is drawn from ``stream(seed)``, so
    ``seed`` is an integer >= 0 or a Generator; with neither, it raises
    :class:`DomainError`.  An array of N ranks needs ``normals`` of shape
    (N, 2, d, d), drawn by the caller; the result is the stack of N states,
    state i built from normals[i] alone.  Rank 1 is the Haar pure state.
    Normals with a non-finite entry, or a block whose kept columns are too
    small or too large to square (their squared norm is zero, subnormal or
    infinite), raise :class:`DomainError`.
    """
    d = check_dimension(d)
    try:
        rank = np.asarray(rank)
        kind = rank.dtype.kind
        # floor, not % 1, which warns at inf
        integral = kind in "biu" or (kind == "f" and (rank == np.floor(rank)).all())
    except ValueError:  # a ragged list
        integral = False
    if not (integral and rank.size and rank.min() >= 1 and rank.max() <= d):
        # numpy abbreviates a long stack; a ragged list stays a list
        got = repr(rank.item()) if getattr(rank, "ndim", 1) == 0 else rank
        raise DomainError(
            f"rank must be an integer in [1, {d}] or a non-empty array of them, got {got}"
        )
    if normals is None:
        if rank.ndim:
            raise DomainError(
                f"a stack of ranks needs caller-drawn normals of shape {rank.shape + (2, d, d)}"
            )
        normals = stream(seed).standard_normal((2, d, d))
    normals = _read_array(normals, "normals", finite=True)
    if normals.shape[-3:] != (2, d, d) or normals.shape[:-3] != rank.shape:
        raise DomainError(f"need normals of shape {rank.shape + (2, d, d)}, got {normals.shape}")
    g = _ginibre(normals, rank)
    with np.errstate(over="ignore", invalid="ignore"):  # a block beyond floats is named below
        m = g @ g.conj().swapaxes(-1, -2)
        # exactly Hermitian; the factor 1/2 of the mean with the adjoint
        # cancels in the trace normalization
        m += m.conj().swapaxes(-1, -2)
    # a trace that is a normal float bounds every entry, so the division is safe
    trace = m.trace(axis1=-2, axis2=-1).real
    normal = (trace >= sys.float_info.min) & (trace <= sys.float_info.max)
    if not normal.all():
        bad = np.flatnonzero(~normal)[0]
        raise DomainError(f"normals block {bad}: kept columns too small or too large to square")
    m /= trace[..., None, None]
    return DensityMatrix(m)


def to_json(rho: DensityMatrix) -> str:
    """Serialize to the JSON wire format {"dim", "re", "im"}."""
    _check_state(rho)
    return json.dumps(
        {
            "dim": rho.dim,
            "re": rho.mat.real.tolist(),
            "im": rho.mat.imag.tolist(),
        }
    )


def _complex_json(parse, source, what: str) -> tuple[int, np.ndarray]:
    """(d, complex array) of the JSON {"dim", "re", "im"} that ``parse`` reads from ``source``.

    A failure of the parse (a file's read included), "dim" or the arrays raises
    ``DomainError("malformed <what> JSON: ...")``.
    """
    try:
        obj = parse(source)
        d = check_dimension(obj["dim"])
        with np.errstate(invalid="ignore"):  # 1j * inf: the caller's non-finite check names it
            return d, np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"malformed {what} JSON: {exc}") from exc


def from_json(text: str) -> DensityMatrix:
    """Parse the JSON wire format produced by :func:`to_json`."""
    d, mat = _complex_json(json.loads, text, "density-matrix")
    if mat.shape != (d, d):
        raise DomainError(f"JSON dim field {d} does not match matrix shape {mat.shape}")
    return DensityMatrix(mat)
