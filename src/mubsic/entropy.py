"""Generalized entropies of finite probability distributions.

Renyi and Tsallis entropies of order alpha > 0, the alpha-logarithm,
binary Tsallis entropy, symmetrized entropies at conjugate order pairs,
the index of coincidence, and the max-element bound that converts a
known coincidence value into a cap on the largest probability.

All entropies are in nats.  Order alpha = 1 and alpha = inf dispatch to
the Shannon and min-entropy closed forms; a guard band |alpha - 1| <
1e-6 reroutes to first-order expansions because the generic formulas
lose all precision there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

ALPHA_ONE_BAND = 1e-6
PROB_CLAMP = 1e-14
PROB_SUM_ATOL = 1e-12


def _check_order(alpha) -> float:
    alpha = float(alpha)
    if not alpha > 0.0:
        raise DomainError(f"entropy order must be positive, got {alpha}")
    return alpha


def _result(x):
    """A float for a single distribution, the array for a stack of them."""
    return float(x) if np.ndim(x) == 0 else x


class ProbDist:
    """Probability vectors along the last axis, with the normalization invariant.

    ``p`` has shape (n,) for one distribution or (..., n) for a stack of
    them.  Entries in [-1e-14, 0) are clamped to zero; larger negatives,
    NaN, and sums off 1 by more than 1e-12 are rejected.  This is the one
    probability validator of the package: :func:`as_probabilities` and
    every entropy go through it.
    """

    __slots__ = ("p",)

    def __init__(self, p):
        p = np.array(p, dtype=float, ndmin=1)
        if p.shape[-1] == 0:
            raise DomainError("empty probability vector")
        worst = p.min()
        if not worst >= -PROB_CLAMP:
            raise DomainError(f"negative or undefined probability {worst:.3e}")
        if worst < 0.0:
            np.maximum(p, 0.0, out=p)
        dev = np.abs(p.sum(axis=-1) - 1.0).max()
        if not dev <= PROB_SUM_ATOL:
            raise DomainError(f"probabilities sum to 1 only within {dev!r}")
        p.setflags(write=False)
        self.p = p

    def __len__(self):
        """Number of outcomes."""
        return self.p.shape[-1]

    def __iter__(self):
        return iter(self.p)

    def __repr__(self):
        return f"ProbDist({np.array2string(self.p, precision=6)})"


def as_probabilities(p) -> np.ndarray:
    """Validate and return probability vectors (last axis) as a float array.

    A :class:`ProbDist` is already validated and passes through; anything
    else array-like is checked by constructing one.
    """
    return p.p if isinstance(p, ProbDist) else ProbDist(p).p


def _log_moments(p: np.ndarray):
    """sum p ln p and sum p (ln p)^2 along the last axis, with 0 ln 0 = 0."""
    lp = np.log(np.where(p > 0.0, p, 1.0))
    plp = p * lp
    return plp.sum(axis=-1), (plp * lp).sum(axis=-1)


def renyi(p, alpha):
    """Renyi alpha-entropy (1 - alpha)^-1 ln(sum p_j^alpha), in nats.

    alpha = 1 gives the Shannon entropy, alpha = inf the min-entropy
    -ln(max p_j), alpha = 2 the collision entropy -ln(sum p_j^2).  Reduces
    along the last axis: a float for one distribution, an array for a stack.
    """
    p = as_probabilities(p)
    alpha = _check_order(alpha)
    if math.isinf(alpha):
        return _result(-np.log(p.max(axis=-1)))
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        s1, m2 = _log_moments(p)
        return _result(-s1 - 0.5 * (alpha - 1.0) * (m2 - s1 * s1))
    if alpha > 2.0:
        # factor out max p: sum p^alpha underflows once alpha ln(1/max p) > 708,
        # which below order 2 would take more than e^354 outcomes
        pmax = p.max(axis=-1)
        scaled = ((p / pmax[..., None]) ** alpha).sum(axis=-1)
        return _result((alpha * np.log(pmax) + np.log(scaled)) / (1.0 - alpha))
    return _result(np.log((p**alpha).sum(axis=-1)) / (1.0 - alpha))


def tsallis(p, alpha):
    """Tsallis alpha-entropy (1 - alpha)^-1 (sum p_j^alpha - 1), in nats at alpha = 1.

    Reduces along the last axis like :func:`renyi`.
    """
    p = as_probabilities(p)
    alpha = _check_order(alpha)
    if math.isinf(alpha):
        raise DomainError("Tsallis entropy is defined for finite positive order")
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        s1, m2 = _log_moments(p)
        return _result(-s1 - 0.5 * (alpha - 1.0) * m2)
    return _result(((p**alpha).sum(axis=-1) - 1.0) / (1.0 - alpha))


def alpha_log(x, alpha):
    """Deformed logarithm ln_alpha(x) = (x^(1-alpha) - 1)/(1 - alpha) for x > 0.

    Continuous in alpha at 1, where it equals ln x.  ``x`` may be an array.
    """
    x = np.asarray(x, dtype=float)
    if not x.min() > 0.0:
        raise DomainError(f"alpha-logarithm needs x > 0, got {x}")
    alpha = _check_order(alpha)
    if math.isinf(alpha):
        raise DomainError("alpha-logarithm is defined for finite positive order")
    if abs(alpha - 1.0) < ALPHA_ONE_BAND:
        lx = np.log(x)
        return _result(lx + 0.5 * (1.0 - alpha) * lx * lx)
    return _result((x ** (1.0 - alpha) - 1.0) / (1.0 - alpha))


def binary_tsallis(eta, alpha) -> float:
    """Binary Tsallis entropy -eta^a ln_a(eta) - (1-eta)^a ln_a(1-eta) on [0, 1]."""
    eta = float(eta)
    if not 0.0 <= eta <= 1.0:
        raise DomainError(f"efficiency must lie in [0, 1], got {eta}")
    alpha = _check_order(alpha)
    total = 0.0
    for t in (eta, 1.0 - eta):
        if t > 0.0:
            total -= t**alpha * alpha_log(t, alpha)
    return total


@dataclass(frozen=True)
class SymOrderPair:
    """Conjugate entropic orders alpha = 1/(1-s), beta = 1/(1+s).

    The constraint 1/alpha + 1/beta = 2 holds exactly by construction
    for s in [0, 1).
    """

    s: float

    def __post_init__(self):
        if not 0.0 <= self.s < 1.0:
            raise DomainError(f"symmetrization parameter must lie in [0, 1), got {self.s}")

    @property
    def alpha(self) -> float:
        return 1.0 / (1.0 - self.s)

    @property
    def beta(self) -> float:
        return 1.0 / (1.0 + self.s)

    @property
    def mu(self) -> float:
        """max of the pair, 1/(1-s)."""
        return self.alpha


def conjugate_order(alpha) -> float:
    """The order beta with 1/alpha + 1/beta = 2; requires alpha > 1/2."""
    alpha = _check_order(alpha)
    if np.isinf(alpha) or alpha <= 0.5:
        raise DomainError(f"conjugate order needs finite alpha > 1/2, got {alpha}")
    return alpha / (2.0 * alpha - 1.0)


def symmetrized(p, s, kind: str = "tsallis"):
    """Half-sum of the order-alpha and order-beta entropies of the pair for s.

    ``kind`` selects "renyi" or "tsallis".  Reduces along the last axis.
    """
    pair = s if isinstance(s, SymOrderPair) else SymOrderPair(float(s))
    fn = _entropy_fn(kind)
    return 0.5 * (fn(p, pair.alpha) + fn(p, pair.beta))


def _entropy_fn(kind: str):
    if kind == "renyi":
        return renyi
    if kind == "tsallis":
        return tsallis
    raise DomainError(f"unknown entropy kind {kind!r} (expected 'renyi' or 'tsallis')")


def index_of_coincidence(p):
    """Collision probability sum_j p_j^2, in (0, 1], along the last axis."""
    p = as_probabilities(p)
    return _result((p * p).sum(axis=-1))


def max_prob_bound(n: int, b2):
    """Largest element allowed for n nonnegative numbers with sum 1, sum of squares b2.

    Returns (1 + sqrt(n-1) sqrt(n b2 - 1)) / n.  Only b2 in [1/n, 1] is
    feasible; a 1e-12 slack absorbs rounding in computed coincidences.
    ``b2`` may be an array.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    b2 = np.asarray(b2, dtype=float)
    if not (b2.min() >= 1.0 / n - 1e-12 and b2.max() <= 1.0 + 1e-12):
        raise DomainError(f"sum of squares {b2!r} infeasible for n = {n}")
    radicand = np.maximum(n * b2 - 1.0, 0.0)
    return _result((1.0 + np.sqrt(n - 1.0) * np.sqrt(radicand)) / n)
