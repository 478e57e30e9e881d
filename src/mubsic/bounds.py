"""Entropic uncertainty bounds and their margin reports.

Each bound function returns the right-hand-side value of one
uncertainty relation, for one purity or an array of them;
:func:`check_bound` pairs it with the directly computed entropy quantity
and wraps the comparison in a :class:`BoundReport`.  Every labelled check
is one :class:`Proposition` entry in :data:`PROPOSITIONS`, whose evaluator
reads the :class:`Inputs` it is given (outcome probabilities and purity,
or the state itself) of a single state or a stack of states alike, so
:func:`check_bound` and campaigns share it.  P1-P3 and P6-P8 are one
evaluator: an entropy is at least the lemma map f(C) of its family at the
cap C on its index of coincidence, and the ``mub_*``/``sic_*`` bound
functions call the same two functions, :func:`_cap` and :func:`_lemma`.
:class:`Inputs` carries C, so every order of a label reads one C.  The
implemented relations are labeled

* ``P1-mub-tsallis``  -- averaged Tsallis entropy over a MUB set,
  order in (0, 2], state-dependent via tr(rho^2), with a detector
  inefficiency variant,
* ``P2-mub-renyi``    -- averaged Renyi entropy, order in [2, inf],
* ``P3-mub-minent``   -- averaged min-entropy, improved over the
  order-inf limit of P2,
* ``P4-mub-sym``      -- averaged symmetrized entropies at conjugate
  orders alpha >= 1 and beta = alpha/(2 alpha - 1),
* ``P5-sic-ic``       -- the exact SIC index-of-coincidence identity
  sum p^2 = (tr(rho^2) + 1)/(d(d+1)),
* ``P6-sic-tsallis`` / ``P7-sic-renyi`` / ``P8-sic-minent`` -- single
  SIC-POVM bounds built on that identity,
* ``P9-mu-pair``      -- Maassen-Uffink-type pair bound for two
  rank-one POVMs, driven by the state-dependent overlap factor g,
* ``LWBM-sum``        -- the coincidence-sum inequality
  sum_m C_m <= tr(rho^2) + (M-1)/d underlying P1-P3,
* ``APXA-max``        -- max probability vs. the coincidence cap,
* ``APXB-riesz``      -- the 2-norm contraction property of the
  overlap transformation used by P9, checked as its operator norm,
* ``ENT-G``           -- the separable-state cap on the diagonal
  correlation measure of a product SIC-POVM; :func:`detect_entanglement`
  reads it as an entanglement witness.

Margins follow the signed convention lhs - rhs; a lower bound passes
when margin >= -tolerance.  The default pass threshold 1e-10 absorbs
accumulated floating error in d^2-outcome entropy sums.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import entanglement, states
from .entropy import (
    ProbDist,
    _dist,
    _entropy_fn,
    _max_prob,
    _real,
    _result,
    _within,
    alpha_log,
    binary_tsallis,
    check_efficiency,
    check_order,
    conjugate_order,
    index_of_coincidence,
    max_prob_bound,  # noqa: F401  (bench/tracer.py times the calls of bounds.max_prob_bound)
    renyi,
    symmetrized,
    tsallis,
)
from .errors import DimensionMismatchError, DomainError, PreconditionError
from .measurements import POVM_ATOL, Measurement, _kind, distort, probabilities
from .states import DensityMatrix, check_dimension, check_integer, purity, state_slack

DEFAULT_TOLERANCE = 1e-10
ZERO_PROB_THRESHOLD = 1e-14


class BoundReport(NamedTuple):
    """Outcome of one bound check, an immutable tuple of its fields.

    ``margin`` is always lhs - rhs; ``sense`` records the inequality
    direction that ``lhs`` must satisfy (">=", "<=", or "==" for exact
    identities), and ``passed``/``saturated`` are evaluated at
    ``tolerance``.
    """

    label: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    saturated: bool
    passed: bool
    sense: str = ">="


# the pass rule of each sense, over a list of margins
_PASSES = {
    ">=": lambda margins, tolerance: [m >= -tolerance for m in margins],
    "<=": lambda margins, tolerance: [m <= tolerance for m in margins],
    "==": lambda margins, tolerance: [abs(m) <= tolerance for m in margins],
}


def check_tolerance(tolerance) -> float:
    """The package's one tolerance rule: the pass threshold as a float, finite and >= 0."""
    message = "tolerance must be finite and nonnegative, got {got}"
    return _real(tolerance, lambda t: 0.0 <= t < math.inf, message)


class Columns(NamedTuple):
    """The per-state results of one check, as lists in stack order.

    ``margin`` is lhs - rhs; ``saturated`` and ``passed`` apply the pass
    rule of the label's sense at the tolerance.  :func:`reports` turns them
    into :class:`BoundReport` objects.  A rhs that does not depend on the
    state is one float object repeated, so a reader can tell it by
    ``rhs[0] is rhs[-1]``: the floats of an array's ``tolist`` are distinct
    objects.
    """

    lhs: list
    rhs: list
    margin: list
    saturated: list
    passed: list


def _columns(lhs, rhs, tolerance, sense) -> Columns:
    """The one pass rule, over each entry of lhs; rhs is an array like lhs or one value for all."""
    lhs = np.asarray(lhs, dtype=float).ravel().tolist()
    rhs = np.asarray(rhs, dtype=float)
    rhs = rhs.ravel().tolist() if rhs.size == len(lhs) else [float(rhs)] * len(lhs)
    margin = [left - right for left, right in zip(lhs, rhs)]
    saturated = [abs(m) <= tolerance for m in margin]
    return Columns(lhs, rhs, margin, saturated, _PASSES[sense](margin, tolerance))


def reports(label: str, columns: Columns, tolerance: float, sense: str) -> list[BoundReport]:
    """One :class:`BoundReport` per state of a check's :class:`Columns`."""
    return [
        BoundReport(label, lhs, rhs, margin, tolerance, saturated, passed, sense)
        for lhs, rhs, margin, saturated, passed in zip(*columns)
    ]


def _high(d: int) -> float:
    """The most a purity or an index of coincidence read off an accepted d x d state may reach.

    1 + 1e-9 + 2s(1 + s), s = :func:`states.state_slack`: a state the
    validator accepts has purity at most 1 + 2s(1 + s), its clamped
    outcomes' index of coincidence at most (1 + s)^2, below it, and 1e-9
    absorbs rounding in either.
    """
    s = state_slack(d)
    return 1.0 + 1e-9 + 2.0 * s * (1.0 + s)


def _check_purity(d: int, value):
    """Purities in [1/d, :func:`_high`], 1e-9 of slack below; those below 1/d are raised to it.

    Above 1 a purity is read as it is, so a bound reads the same state as
    the outcomes it is compared with: at alpha = 2 on a complete MUB set or
    a SIC the relations are identities, and a clamp to 1 would show the
    state's excess purity as a margin.
    """
    lo = 1.0 / d
    message = "purity {got!r} outside [{}, 1] for dimension {}"
    return np.maximum(_within(value, lo - 1e-9, _high(d), "purity", message, lo, d), lo)


# Every state-dependent bound is a map of a cap C on an index of
# coincidence, and purity 1 gives the state-independent form.


def _cap(d, m, state_purity):
    """The cap C on an index of coincidence, at the purity tr(rho^2).

    C = (d tr(rho^2) + M - 1)/(M d) on the average over m MUBs (LWBM-sum
    over M), and C = (tr(rho^2) + 1)/(d(d+1)) for a SIC when m is None (P5).
    """
    d = check_dimension(d)
    if m is not None:
        m = check_integer(m, "basis count", 1)
    p2 = _check_purity(d, state_purity)
    return (p2 + 1.0) / (d * (d + 1.0)) if m is None else (d * p2 + m - 1.0) / (m * d)


def _lemma(kind, alpha, d, m, cap):
    """The lemma map f(C) at the cap C (:func:`_cap`): an entropy of family ``kind`` is >= f(C).

    f is ln_alpha(1/C) for "tsallis", alpha/(2(alpha-1)) ln(1/C) for "renyi"
    (ln(1/C)/2 at alpha = inf), and for the min-entropy (kind None) -ln of
    the largest outcome probability C allows, among d outcomes of a basis
    (m MUBs) or d^2 of a SIC (m None).
    """
    if kind == "tsallis":
        return alpha_log(1.0 / cap, alpha)
    if kind == "renyi":
        # alpha/(2(alpha - 1)) in a form whose denominator cannot overflow
        factor = 0.5 if math.isinf(alpha) else (0.5 * alpha) / (alpha - 1.0)
        return _result(-factor * np.log(cap))
    return _result(-np.log(_max_prob(d * d if m is None else d, cap, _high(d))))


def mub_tsallis_bound(d, m, alpha, state_purity):
    """Lower bound ln_alpha(1/C) on the MUB-averaged Tsallis entropy, order in (0, 2]."""
    return _lemma("tsallis", check_order(alpha, "tsallis"), d, m, _cap(d, m, state_purity))


def mub_renyi_bound(d, m, alpha, state_purity):
    """Lower bound on the MUB-averaged Renyi entropy, order in [2, inf]."""
    return _lemma("renyi", check_order(alpha, "renyi"), d, m, _cap(d, m, state_purity))


def mub_minentropy_bound(d, m, state_purity):
    """Lower bound -ln(max p) on the MUB-averaged min-entropy, max p capped by C."""
    return _lemma(None, None, d, m, _cap(d, m, state_purity))


def mub_symmetrized_bound(d, alpha, kind: str = "tsallis") -> float:
    """Lower bound on the MUB-averaged symmetrized entropy, larger order alpha in [1, inf)."""
    d = check_dimension(d)
    alpha = check_order(alpha, "symmetrized")
    _entropy_fn(kind)
    return 0.5 * (alpha_log(d, alpha) if kind == "tsallis" else math.log(d))


def sic_tsallis_bound(d, alpha, state_purity):
    """Lower bound ln_alpha(1/C) on the Tsallis entropy of a single SIC-POVM, order in (0, 2]."""
    return _lemma("tsallis", check_order(alpha, "tsallis"), d, None, _cap(d, None, state_purity))


def sic_renyi_bound(d, alpha, state_purity):
    """Lower bound on the Renyi entropy of a single SIC-POVM, order in [2, inf]."""
    return _lemma("renyi", check_order(alpha, "renyi"), d, None, _cap(d, None, state_purity))


def sic_minentropy_bound(d, state_purity):
    """Lower bound -ln(max p) on the min-entropy of a single SIC-POVM, max p capped by C."""
    return _lemma(None, None, d, None, _cap(d, None, state_purity))


def separable_bound(d, purity_a, purity_b):
    """Cap on the ENT-G correlation G for a product state with the given marginal purities.

    sqrt(C_a C_b) = sqrt(purity_a + 1) sqrt(purity_b + 1) / (d(d+1)), with
    C the SIC index of coincidence of each party's marginal; both purities
    at 1 give the universal separable cap 2/(d(d+1)).
    """
    return _result(np.sqrt(_cap(d, None, purity_a) * _cap(d, None, purity_b)))


def simple_bounds(p, d, alpha, kind: str = "tsallis", tolerance=DEFAULT_TOLERANCE) -> BoundReport:
    """Max-probability bounds for SIC statistics: entropy >= ln_a(1/max p) >= ln_a(d).

    ``p`` is one distribution, shape (n,); a stack raises :class:`DomainError`.
    The report checks the first inequality, whose rhs is ln_a(1/max p)
    (-ln max p for "renyi").  The second rests on the SIC fact max p <= 1/d,
    the one precondition: a max p above 1/d + 1e-12 raises
    :class:`PreconditionError`.
    """
    tolerance = check_tolerance(tolerance)
    dist = _dist(p)
    if dist.p.ndim != 1:
        raise DomainError(f"simple_bounds takes one distribution, got shape {dist.p.shape}")
    d = check_dimension(d)
    pmax = float(dist.p.max())
    if pmax > 1.0 / d + 1e-12:
        raise PreconditionError(
            f"max probability {pmax!r} exceeds 1/d = {1.0 / d!r}; not SIC statistics"
        )
    lhs = _entropy_fn(kind)(dist, alpha)
    rhs = alpha_log(1.0 / pmax, alpha) if kind == "tsallis" else -math.log(pmax)
    return reports(f"simple-{kind}", _columns(lhs, rhs, tolerance, ">="), tolerance, ">=")[0]


def _factor(rho: DensityMatrix) -> np.ndarray:
    """A factor F of each state, rho = F F^dag: eigenvectors times root eigenvalues clipped at 0.

    Only the pair labels (P9, APXB) need it, so the state is decomposed here.
    """
    eigs, vecs = np.linalg.eigh(rho.mat)
    return vecs * np.sqrt(np.clip(eigs, 0.0, None))[..., None, :]


def _overlap_transform(kets_m, kets_n, rho: DensityMatrix):
    """The matrix t_ij = <m_i|n_j><n_j|rho|m_i> / sqrt(<m_i|rho|m_i><n_j|rho|n_j>).

    With rho = F F^dag (:func:`_factor`) and each ket k's image F^dag k of
    squared norm q_k = <k|rho|k>, t_ij = <m_i|n_j> <u_nj|u_mi> for the unit
    images u_k = F^dag k / sqrt(q_k), so the Cauchy-Schwarz structure
    survives rounding even for probabilities many orders below one.  A ket
    whose probability is at most ``ZERO_PROB_THRESHOLD`` has u_k = 0, so its
    row or column is zero, matching the exclusion of unobservable outcomes.
    A stack of states gives a stack of matrices.
    """
    images = np.matmul(np.concatenate((kets_m, kets_n)), _factor(rho).conj())  # row k: (F^dag k)^T
    q = (images.real * images.real + images.imag * images.imag).sum(axis=-1)
    scale = np.divide(1.0, np.sqrt(q), out=np.zeros_like(q), where=q > ZERO_PROB_THRESHOLD)
    units = images * scale[..., None]
    um, un = units[..., : len(kets_m), :], units[..., len(kets_m) :, :]
    return (kets_m.conj() @ kets_n.T) * np.matmul(um, un.conj().swapaxes(-1, -2))


def _pair_kets(meas_m, meas_n, dim=None):
    """Subnormalized kets m_j, element_j = |m_j><m_j|, of two rank-one measurements on one space.

    A POVM with an element of rank above one has none: the error names the first such element.
    """
    for meas in (meas_m, meas_n):
        if _kind(meas) not in _MEASUREMENT_KINDS["pair"]:
            raise DomainError(f"unsupported measurement type {_kind(meas)}")
        if meas.kets is None:  # the rows of the design's transpose are vec(E_j^H), bit for bit
            adjoints = np.ascontiguousarray(meas.design.T).view(complex)
            second = np.linalg.eigvalsh(adjoints.reshape(-1, meas.dim, meas.dim))[:, -2]
            j = int(np.argmax(second > POVM_ATOL))
            message = f"element {j} is not rank-one (second eigenvalue {second[j]:.3e})"
            raise PreconditionError(message)
    dm, dn = meas_m.dim, meas_n.dim
    if dm != dn:
        raise DimensionMismatchError(f"pair measurements have dimensions {dm} and {dn}")
    if dim is not None and dm != dim:
        raise DimensionMismatchError(f"pair dimension {dm} differs from state dimension {dim}")
    return tuple(m.kets if m.scale == 1 else m.kets / np.sqrt(m.scale) for m in (meas_m, meas_n))


def mu_g_factor(meas_m, meas_n, rho: DensityMatrix):
    """State-dependent overlap factor g driving the Maassen-Uffink pair bounds.

    The maximum of |<m_i|n_j><n_j|rho|m_i>| over the geometric mean of
    the outcome probabilities, taken over pairs where both probabilities
    exceed ``ZERO_PROB_THRESHOLD``.  Always <= 1 by Cauchy-Schwarz; for two
    SIC-POVMs the subnormalized kets carry the 1/d prefactor
    automatically.  An array for a stack of states.
    """
    states._check_state(rho)
    t = _overlap_transform(*_pair_kets(meas_m, meas_n, rho.dim), rho)
    return _result(np.abs(t).max(axis=(-2, -1)))


def mu_f_bar(meas_m, meas_n) -> float:
    """State-independent overlap cap: max_ij |<m_i|n_j>| over subnormalized kets."""
    kets_m, kets_n = _pair_kets(meas_m, meas_n)
    return float(np.max(np.abs(kets_m.conj() @ kets_n.T)))


class CheckArguments(NamedTuple):
    """The validated arguments of one labelled check (see :func:`check_arguments`)."""

    alpha: float | None = None
    kind: str | None = None  # the entropy family the label reads; None for order-free labels
    eta: float | None = None


class Proposition(NamedTuple):
    """One labelled check: what it measures, which orders it takes, its two sides.

    ``code`` is the label's fixed integer, never reused: a campaign draws the
    label's states at dimension d from ``stream(seed, d, code)``.
    ``measurement`` names the kinds of :class:`Measurement` that
    :func:`check_bound` admits as ``meas`` (``_MEASUREMENT_KINDS``): "mubs",
    "sic", "any" (a basis, POVM or SIC; campaigns use the SIC), "pair" (a
    tuple or list of two rank-one ones) or "product" (a SIC, with states on
    H (x) H).  ``order`` names the order range the check takes its order
    from, a key of ``entropy.ORDER_RANGES`` ("tsallis", "renyi", or
    "symmetrized" for the larger order alpha of a conjugate pair), and is
    None for the order-free checks.
    ``evaluate(meas, inputs, args)`` returns the lhs and rhs arrays over the
    states of an :class:`Inputs`.
    """

    code: int
    measurement: str
    sense: str
    order: str | None
    efficiency: bool
    evaluate: Callable

    @property
    def statistical(self) -> bool:
        """True when the check reads only the outcome statistics and purity of its states."""
        return self.measurement in ("mubs", "sic", "any")


class Inputs(NamedTuple):
    """What an evaluator reads of a state or a stack of states, built by :func:`inputs`.

    ``p`` is the label's measurement's :class:`ProbDist`, with the no-click
    outcome of an efficiency (:func:`distort`), for a
    :attr:`Proposition.statistical` label, and None for the pair and
    product labels, which read ``rho`` itself; ``purity`` is tr(rho^2).
    ``cap`` is :func:`_cap` at the purity whenever the measurement is a MUB
    set or a SIC, the two measurements with a cap, and None otherwise; P4
    and APXA take it without reading it.  Every order of a label reads the
    same inputs, so each is taken once.
    """

    rho: DensityMatrix
    p: ProbDist | None
    purity: float | np.ndarray
    cap: float | np.ndarray | None


def inputs(which: str, meas, rho: DensityMatrix, eta=None) -> Inputs:
    """The :class:`Inputs` of label ``which``: its outcome probabilities, the purity and any cap.

    ``eta`` is the label's validated efficiency (P1/P6), or None.
    """
    if not PROPOSITIONS[which].statistical:
        return Inputs(rho, None, purity(rho), None)
    p = probabilities(meas, rho)
    p2 = purity(rho)
    cap = None
    if meas.kind in ("mubs", "sic"):
        cap = _cap(meas.dim, meas.shape[0] if meas.kind == "mubs" else None, p2)
    return Inputs(rho, p if eta is None else distort(p, eta), p2, cap)


def _average(values):
    """The mean over the last axis as sum / M: numpy's ``mean`` bit for bit, minus its overhead."""
    return values.sum(axis=-1) / values.shape[-1]


def _cap_chain(meas, x, a):
    """P1-P3 and P6-P8: the entropy of the family ``a.kind`` against f(C) (:func:`_lemma`).

    A MUB set's entropies are averaged over its bases.  The order-free
    labels (kind None) read the min-entropy.  With an efficiency eta the
    Tsallis entropy reads the no-click outcome too (``x.p``, :func:`inputs`),
    against h_alpha(eta) + eta^alpha f(C).
    """
    mubs = meas.kind == "mubs"
    rhs = _lemma(a.kind, a.alpha, meas.dim, meas.shape[0] if mubs else None, x.cap)
    if a.eta is not None:
        rhs = binary_tsallis(a.eta, a.alpha) + a.eta**a.alpha * rhs
    if a.kind == "tsallis":
        lhs = tsallis(x.p, a.alpha)
    else:
        lhs = renyi(x.p, np.inf if a.kind is None else a.alpha)
    return (_average(lhs) if mubs else lhs), rhs


def _p4(mubs, x, a):
    """Half of ln_alpha d, the Maassen-Uffink pair bound averaged over pairs: two bases or more."""
    if mubs.shape[0] < 2:
        raise DomainError(f"P4-mub-sym needs at least two bases, got {mubs.shape[0]}")
    lhs = _average(symmetrized(x.p, a.alpha, a.kind))
    return lhs, mub_symmetrized_bound(mubs.dim, a.alpha, a.kind)


def _p5(sic, x, a):
    return index_of_coincidence(x.p), x.cap


def _p9(pair, x, a):
    """H_a(M) + H_b(N) >= ln_a(g^-2) (Tsallis) or R_a(M) + R_b(N) >= -2 ln g (Renyi)."""
    g = mu_g_factor(*pair, x.rho)
    pm = probabilities(pair[0], x.rho)
    pn = probabilities(pair[1], x.rho)
    beta = conjugate_order(a.alpha)
    if a.kind == "tsallis":
        return tsallis(pm, a.alpha) + tsallis(pn, beta), alpha_log(np.power(g, -2.0), a.alpha)
    return renyi(pm, a.alpha) + renyi(pn, beta), -2.0 * np.log(g)


def _lwbm(mubs, x, a):
    lhs = index_of_coincidence(x.p).sum(axis=-1)
    return lhs, mubs.shape[0] * x.cap


def _apxa(meas, x, a):
    """max p against the most its index of coincidence allows; the index may reach :func:`_high`."""
    return x.p.p.max(axis=-1), _max_prob(len(x.p), index_of_coincidence(x.p), _high(meas.dim))


def _apxb(pair, x, a):
    """The largest singular value of t against 1: ||t u||_2 <= ||u||_2 for every u at once.

    It is 1 up to rounding: t maps the unit vector sqrt(p(N)) onto the unit
    vector sqrt(p(M)), so the norm is at least 1, and the contraction caps it.
    """
    t = _overlap_transform(*_pair_kets(*pair, x.rho.dim), x.rho)
    gram = np.matmul(t.conj().swapaxes(-1, -2), t)
    return np.sqrt(np.linalg.eigvalsh(gram)[..., -1]), 1.0


def _ent_g(sic, x, a):
    g = entanglement.correlation_G(sic, x.rho)
    return g, _cap(sic.dim, None, 1.0)


PROPOSITIONS = {
    "P1-mub-tsallis": Proposition(1, "mubs", ">=", "tsallis", True, _cap_chain),
    "P2-mub-renyi": Proposition(2, "mubs", ">=", "renyi", False, _cap_chain),
    "P3-mub-minent": Proposition(3, "mubs", ">=", None, False, _cap_chain),
    "P4-mub-sym": Proposition(4, "mubs", ">=", "symmetrized", False, _p4),
    "P5-sic-ic": Proposition(5, "sic", "==", None, False, _p5),
    "P6-sic-tsallis": Proposition(6, "sic", ">=", "tsallis", True, _cap_chain),
    "P7-sic-renyi": Proposition(7, "sic", ">=", "renyi", False, _cap_chain),
    "P8-sic-minent": Proposition(8, "sic", ">=", None, False, _cap_chain),
    "P9-mu-pair": Proposition(9, "pair", ">=", "symmetrized", False, _p9),
    "LWBM-sum": Proposition(10, "mubs", "<=", None, False, _lwbm),
    "APXA-max": Proposition(11, "any", "<=", None, False, _apxa),
    "APXB-riesz": Proposition(12, "pair", "<=", None, False, _apxb),
    "ENT-G": Proposition(13, "product", "<=", None, False, _ent_g),
}
PROPOSITION_LABELS = tuple(PROPOSITIONS)

# Proposition.measurement -> the kinds of Measurement it admits; each of a pair's two
_MEASUREMENT_KINDS = {
    "mubs": {"mubs"},
    "sic": {"sic"},
    "product": {"sic"},
    "any": {"basis", "povm", "sic"},
    "pair": {"basis", "povm", "sic"},
}


def check_label(which) -> Proposition:
    """The registry entry of a label; :class:`DomainError` for anything else, unhashable too."""
    try:
        return PROPOSITIONS[which]
    except (KeyError, TypeError):
        raise DomainError(f"unknown proposition label {which!r}") from None


def check_arguments(which: str, *, alpha=None, kind=None, eta=None) -> CheckArguments:
    """Validate a labelled check's order arguments without a state.

    Raises :class:`DomainError` for an unknown label, an order outside the
    label's range, an unknown entropy kind or a kind given to a label other
    than P4/P9 (None means "tsallis" there), or an efficiency outside
    [0, 1] or given to a label without the inefficiency model.  Order-free
    labels ignore ``alpha``.  The returned ``kind`` is the family the label
    reads: the given one for P4/P9, its order range's for P1/P2/P6/P7
    ("renyi" for P2/P7), and None for the order-free labels.
    """
    prop = check_label(which)
    if eta is not None:
        if not prop.efficiency:
            raise DomainError(f"inefficiency model applies to P1/P6 only, not {which}")
        eta = check_efficiency(eta)
    if kind is not None and prop.order != "symmetrized":
        raise DomainError(f"entropy kind applies to P4/P9 only, not {which}")
    if prop.order is None:
        return CheckArguments()
    if alpha is None:
        raise DomainError(f"{which} needs an order alpha")
    alpha = check_order(alpha, prop.order)
    if kind is None:
        kind = "tsallis" if prop.order == "symmetrized" else prop.order
    _entropy_fn(kind)
    return CheckArguments(alpha, kind, eta)


def check_bound(
    meas,
    rho: DensityMatrix,
    which: str,
    *,
    alpha=None,
    kind=None,
    eta=None,
    tolerance: float = DEFAULT_TOLERANCE,
):
    """Evaluate one labeled bound check on a state, or on each state of a stack.

    ``meas`` is a :class:`Measurement` of a kind the label admits
    (:class:`Proposition`): a "mubs" for P1-P4 and LWBM-sum, a "sic" for
    P5-P8 and ENT-G (ENT-G takes the bipartite state on H (x) H), a "basis",
    "povm" or "sic" for APXA-max, and a pair of rank-one ones for P9 and
    APXB-riesz.  ``alpha`` sets the order (for P4 and P9 the larger order
    of the conjugate pair) and ``kind`` the entropy family of P4 and P9,
    "tsallis" when None; ``eta`` switches P1/P6 to the
    detector-inefficiency variant.  APXB-riesz checks ||t u||_2 <= ||u||_2
    at its worst u: lhs is the operator 2-norm of the overlap transformation
    t, rhs is 1.
    ``tolerance`` must be finite and >= 0.
    Returns one :class:`BoundReport` for a single state and a list of
    them, in stack order, for a stack.
    """
    tolerance = check_tolerance(tolerance)
    args = check_arguments(which, alpha=alpha, kind=kind, eta=eta)
    prop = PROPOSITIONS[which]
    pair = prop.measurement == "pair"
    kinds = [_kind(m) for m in (meas if pair and isinstance(meas, (tuple, list)) else [meas])]
    if len(kinds) != 1 + pair or not _MEASUREMENT_KINDS[prop.measurement].issuperset(kinds):
        got = ", ".join(kinds)
        raise DomainError(f"{which} expects a {prop.measurement} measurement, got {got}")
    columns = evaluate(which, meas, inputs(which, meas, rho, args.eta), args, tolerance)
    result = reports(which, columns, tolerance, prop.sense)
    return result if rho.mat.ndim == 3 else result[0]


def evaluate(which: str, meas, x: Inputs, args: CheckArguments, tolerance: float) -> Columns:
    """The label's evaluator on validated inputs, then the one pass rule on each state.

    :func:`check_bound` validates its arguments and calls this; a campaign
    validates its plan once and calls it per cell.
    """
    prop = PROPOSITIONS[which]
    lhs, rhs = prop.evaluate(meas, x, args)
    return _columns(lhs, rhs, tolerance, prop.sense)


def detect_entanglement(sic: Measurement, rho: DensityMatrix, tolerance=DEFAULT_TOLERANCE):
    """Flag a bipartite state as entangled when G exceeds the universal cap (ENT-G).

    The cap 2/(d(d+1)) is purity-independent, since G alone does not show
    the marginals.  True is sufficient for entanglement; False is inconclusive.
    The default tolerance is the campaigns' pass threshold: a product of two
    accepted states, each of purity up to 1 + 2s(1 + s) (s =
    :func:`states.state_slack`), can exceed the cap by 2s(1 + s)/(d(d+1)),
    under 3.5e-11 for every d.
    Returns the flag and the :class:`BoundReport` for a single state, and
    the list of flags and the list of reports, in stack order, for a stack.
    """
    report = check_bound(sic, rho, "ENT-G", tolerance=tolerance)
    if rho.mat.ndim == 3:
        return [not r.passed for r in report], report
    return not report.passed, report
