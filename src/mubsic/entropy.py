"""Generalized entropies of finite probability distributions.

Renyi and Tsallis entropies of order alpha > 0, the alpha-logarithm,
binary Tsallis entropy, symmetrized entropies at conjugate order pairs,
the index of coincidence, and the max-element bound that converts a
known coincidence value into a cap on the largest probability.

All entropies are in nats.  Order alpha = 1 and alpha = inf dispatch to
the Shannon and min-entropy closed forms.  Other finite orders go
through sum (p^alpha - p) in an expm1 form that does not cancel near
order 1, and ln_alpha(x) is expm1((1 - alpha) ln x)/(1 - alpha); Renyi
entropies above order 2 factor out max p instead.  Every order is checked
by :func:`check_order` against one named range of :data:`ORDER_RANGES`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError
from .states import _read_array, check_integer

PROB_CLAMP = 1e-14
PROB_SUM_ATOL = 1e-12


# name -> (interval, test): every entropic order range, written once; NaN fails each test
ORDER_RANGES = {
    "positive": ("(0, inf]", lambda a: a > 0.0),
    "finite": ("(0, inf)", lambda a: 0.0 < a < math.inf),
    "conjugate": ("(1/2, inf)", lambda a: 0.5 < a < math.inf),
    "tsallis": ("(0, 2]", lambda a: 0.0 < a <= 2.0),
    "renyi": ("[2, inf]", lambda a: a >= 2.0),
    "symmetrized": ("[1, inf)", lambda a: 1.0 <= a < math.inf),
}


def _real(value, test, message: str, *fields) -> float:
    """The one real-number rule: ``value`` as a float that passes ``test``; NaN fails every test.

    Else raises ``DomainError(message.format(*fields, got=...))``, ``got`` being the float read,
    or ``value`` itself when it is not a number.
    """
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):  # non-numbers
        pass
    if not (isinstance(value, float) and test(value)):
        raise DomainError(message.format(*fields, got=value))
    return value


def check_order(alpha, name: str = "positive") -> float:
    """The package's one order rule: alpha as a float in the range ``ORDER_RANGES[name]``."""
    interval, test = ORDER_RANGES[name]
    return _real(alpha, test, "{} order must lie in {}, got {got!r}", name, interval)


def _within(values, lo: float, hi: float, what: str, message: str, *fields) -> np.ndarray:
    """The one array range rule: ``values`` as a non-empty float array with entries in [lo, hi].

    Else raises ``DomainError``: the reader's (:func:`states._read_array`) for an unreadable or
    empty array, or ``message.format(*fields, got=...)`` at the first entry outside, NaN
    included, as a plain float, not a numpy repr.
    """
    values = _read_array(values, what)
    if not (values.min() >= lo and values.max() <= hi):
        worst = float(values[~((values >= lo) & (values <= hi))][0])
        raise DomainError(message.format(*fields, got=worst))
    return values


def _result(x):
    """A float for a single distribution, the array for a stack of them."""
    return float(x) if np.ndim(x) == 0 else x


class ProbDist:
    """Probability vectors along the last axis, with the normalization invariant.

    ``p`` has shape (n,) for one distribution or (..., n) for a stack of
    them.  Entries in [-1e-14 - slack, 0) are clamped to zero; larger
    negatives, NaN, and sums off 1 by more than 1e-12 + slack are rejected.
    ``slack`` is 0 for given probabilities and ``states.state_slack(d)`` for
    the outcomes of a d x d state (:func:`measurements.probabilities`).  This
    is the one probability validator of the package: every reader of
    probabilities goes through it (:func:`_dist`).  The entropies of one ProbDist
    share one ln p, taken by the first that reads it, so a sweep takes it once.
    """

    __slots__ = ("p", "_lp")

    def __init__(self, p, slack: float = 0.0):
        p = _read_array(p, "probability", ndmin=1)
        worst = p.min()
        if not worst >= -PROB_CLAMP - slack:
            raise DomainError(f"negative or undefined probability {worst:.3e}")
        if worst < 0.0:
            np.maximum(p, 0.0, out=p)
        dev = np.abs(p.sum(axis=-1) - 1.0).max()
        if not dev <= PROB_SUM_ATOL + slack:
            raise DomainError(f"probabilities sum to 1 only within {float(dev)!r}")
        p.setflags(write=False)
        self.p = p
        self._lp = None

    @classmethod
    def _unchecked(cls, p: np.ndarray) -> ProbDist:
        """A ProbDist of ``p`` without checks.

        ``p`` is read-only and made from a valid ProbDist by a map that keeps it valid.
        """
        sub = object.__new__(cls)
        sub.p = p
        sub._lp = None
        return sub

    def _ln(self) -> np.ndarray:
        """ln p (:func:`_log`), taken on the first call and kept for every entropy of p."""
        if self._lp is None:
            self._lp = _log(self.p)
        return self._lp

    def __len__(self):
        """Number of outcomes."""
        return self.p.shape[-1]

    def __repr__(self):
        return f"ProbDist({np.array2string(self.p, precision=6)})"


def _dist(p) -> ProbDist:
    """``p`` itself when it is a :class:`ProbDist`, else a validated one of it."""
    return p if isinstance(p, ProbDist) else ProbDist(p)


def _log(p: np.ndarray) -> np.ndarray:
    """ln p, clamped to [ln 5e-324, 0] (5e-324 is the least positive double).

    A zero's terms, and those of an entry that rounded above 1 within the sum
    tolerance, are 0 at every order, Shannon's included.
    """
    return np.minimum(np.log(np.maximum(p, 5e-324)), 0.0)


def _shannon(p: np.ndarray, lp: np.ndarray):
    """-sum p ln p along the last axis, from p and its ln p (:func:`_log`)."""
    return -(p * lp).sum(axis=-1)


def _power_excess(p: np.ndarray, alpha: float, lp=None):
    """sum (p^alpha - p) along the last axis for finite alpha != 1, without cancellation.

    Terms are p expm1((alpha - 1) ln p) above order 1 and -p^alpha expm1((1 - alpha) ln p)
    below it.  ln p is clamped at 0 (:func:`_log`), so the expm1 argument is never positive
    and no term overflows: an entry that rounded above 1 contributes 0.  The factor
    alpha - 1 is clamped at 1e300, because (alpha - 1) ln p overflows above order 2.4e305
    (ln p >= -745).  |ln p| is 0 or at least 1.1e-16, so past the clamp the product is 0 or
    beyond 1e284 in size, and expm1 gives the same value as without the clamp.
    ``lp`` is ln p (:func:`_log`), taken here when not given.
    """
    lp = _log(p) if lp is None else lp
    if alpha > 1.0:
        return (p * np.expm1(min(alpha - 1.0, 1e300) * lp)).sum(axis=-1)
    return -(p**alpha * np.expm1((1.0 - alpha) * lp)).sum(axis=-1)


def renyi(p, alpha):
    """Renyi alpha-entropy (1 - alpha)^-1 ln(sum p_j^alpha), in nats.

    alpha = 1 gives the Shannon entropy, alpha = inf the min-entropy
    -ln(max p_j), alpha = 2 the collision entropy -ln(sum p_j^2).  Reduces
    along the last axis: a float for one distribution, an array for a stack.
    """
    dist = _dist(p)
    p = dist.p
    alpha = check_order(alpha)
    if math.isinf(alpha):
        return _result(-np.log(p.max(axis=-1)))
    if alpha == 1.0:
        return _result(_shannon(p, dist._ln()))
    if alpha > 2.0:
        # factor out max p: sum p^alpha underflows once alpha ln(1/max p) > 708,
        # which below order 2 would take more than e^354 outcomes
        pmax = p.max(axis=-1)
        scaled = ((p / pmax[..., None]) ** alpha).sum(axis=-1)
        lnmax = np.log(pmax)
        with np.errstate(over="ignore"):
            head = alpha * lnmax
        # where alpha ln max p leaves the floats, the entropy is -ln max p, the
        # order-inf value, to the last bit
        h = (head + np.log(scaled)) / (1.0 - alpha)
        return _result(np.where(np.isinf(head), -lnmax, h))
    return _result(np.log1p(_power_excess(p, alpha, dist._ln())) / (1.0 - alpha))


def tsallis(p, alpha):
    """Tsallis alpha-entropy (1 - alpha)^-1 (sum p_j^alpha - 1), in nats at alpha = 1.

    Reduces along the last axis like :func:`renyi`.
    """
    dist = _dist(p)
    alpha = check_order(alpha, "finite")
    if alpha == 1.0:
        return _result(_shannon(dist.p, dist._ln()))
    return _result(_power_excess(dist.p, alpha, dist._ln()) / (1.0 - alpha))


def alpha_log(x, alpha):
    """Deformed logarithm ln_alpha(x) = (x^(1-alpha) - 1)/(1 - alpha) for finite x > 0.

    Continuous in alpha at 1, where it equals ln x.  ``x`` may be an array.  A
    value beyond the float range, such as ln_2(5e-324), raises :class:`DomainError`.
    """
    message = "alpha-logarithm needs finite x > 0, got {got!r}"
    # for floats, [5e-324, max float] is finite x > 0
    x = _within(x, 5e-324, sys.float_info.max, "alpha-logarithm argument", message)
    alpha = check_order(alpha, "finite")
    if alpha == 1.0:
        return _result(np.log(x))
    with np.errstate(over="ignore"):  # a value beyond the float range is named below
        value = np.expm1((1.0 - alpha) * np.log(x)) / (1.0 - alpha)
    if not np.isfinite(value).all():
        worst = float(x[~np.isfinite(value)][0])
        raise DomainError(f"ln_{alpha!r}({worst!r}) is beyond the float range")
    return _result(value)


def check_efficiency(eta) -> float:
    """The package's one efficiency rule: eta as a float, which must lie in [0, 1]."""
    return _real(eta, lambda e: 0.0 <= e <= 1.0, "efficiency must lie in [0, 1], got {got}")


def binary_tsallis(eta, alpha) -> float:
    """Binary Tsallis entropy -eta^a ln_a(eta) - (1-eta)^a ln_a(1-eta) on [0, 1]."""
    eta = check_efficiency(eta)
    return tsallis([eta, 1.0 - eta], alpha)


def conjugate_order(alpha) -> float:
    """The order beta with 1/alpha + 1/beta = 2; requires finite alpha > 1/2."""
    alpha = check_order(alpha, "conjugate")
    # alpha/(2 alpha - 1) in a form whose denominator cannot overflow
    return (0.5 * alpha) / (alpha - 0.5)


def symmetrized(p, alpha, kind: str = "tsallis"):
    """Half-sum of the order-alpha and order-beta entropies, 1/alpha + 1/beta = 2.

    ``alpha`` in [1, inf) is the larger order of the pair and beta is
    :func:`conjugate_order`; ``kind`` selects "renyi" or "tsallis".
    Reduces along the last axis.  At alpha = 1, beta is 1 too, and the one
    entropy is taken once.
    """
    alpha = check_order(alpha, "symmetrized")
    fn = _entropy_fn(kind)
    p = _dist(p)
    beta = conjugate_order(alpha)
    h = fn(p, alpha)
    return 0.5 * (h + (h if beta == alpha else fn(p, beta)))


def _entropy_fn(kind: str):
    if kind == "renyi":
        return renyi
    if kind == "tsallis":
        return tsallis
    raise DomainError(f"unknown entropy kind {kind!r} (expected 'renyi' or 'tsallis')")


def index_of_coincidence(p):
    """Collision probability sum_j p_j^2, in (0, 1], along the last axis."""
    p = _dist(p).p
    return _result((p * p).sum(axis=-1))


def max_prob_bound(n: int, b2):
    """Largest element allowed for n nonnegative numbers with sum 1, sum of squares b2.

    Returns (1 + sqrt(n-1) sqrt(n b2 - 1)) / n.  Only b2 in [1/n, 1] is
    feasible; a 1e-12 slack absorbs rounding in computed coincidences.
    ``b2`` may be an array.
    """
    return _max_prob(n, b2, 1.0 + 1e-12)


def _max_prob(n, b2, high):
    """:func:`max_prob_bound`, with sums of squares up to ``high`` feasible."""
    n = check_integer(n, "outcome count", 1)
    message = "sum of squares {got!r} infeasible for n = {}"
    b2 = _within(b2, 1.0 / n - 1e-12, high, "sum-of-squares", message, n)
    radicand = np.maximum(n * b2 - 1.0, 0.0)
    return _result((1.0 + np.sqrt(n - 1.0) * np.sqrt(radicand)) / n)
