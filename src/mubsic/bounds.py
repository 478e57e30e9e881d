"""Entropic uncertainty bounds and their margin reports.

Each bound function returns the right-hand-side value of one
uncertainty relation, for one purity or an array of them;
:func:`check_bound` pairs it with the directly computed entropy quantity
and wraps the comparison in a :class:`BoundReport`.  Every labelled check
is one :class:`Proposition` entry in :data:`PROPOSITIONS`, whose evaluator
works on a single state and on a stack of states alike.  The implemented
relations are labeled

* ``P1-mub-tsallis``  -- averaged Tsallis entropy over a MUB set,
  order in (0, 2], state-dependent via tr(rho^2), with a detector
  inefficiency variant,
* ``P2-mub-renyi``    -- averaged Renyi entropy, order in [2, inf],
* ``P3-mub-minent``   -- averaged min-entropy, improved over the
  order-inf limit of P2,
* ``P4-mub-sym``      -- averaged symmetrized entropies at conjugate
  orders 1/(1-s), 1/(1+s),
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
  overlap transformation used by P9,
* ``ENT-G``           -- the separable-state cap on the diagonal
  correlation measure of a product SIC-POVM; :func:`detect_entanglement`
  reads it as an entanglement witness.

Margins follow the signed convention lhs - rhs; a lower bound passes
when margin >= -tolerance.  The default pass threshold 1e-10 absorbs
accumulated floating error in d^2-outcome entropy sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import entanglement
from .entropy import (
    SymOrderPair,
    _entropy_fn,
    _result,
    alpha_log,
    as_probabilities,
    binary_tsallis,
    conjugate_order,
    index_of_coincidence,
    max_prob_bound,
    renyi,
    symmetrized,
    tsallis,
)
from .errors import ConstructionError, DomainError, PreconditionError
from .measurements import (
    MubSet,
    OrthonormalBasis,
    Povm,
    SicPovm,
    distort,
    probabilities,
)
from .states import DensityMatrix, generator, purity

DEFAULT_TOLERANCE = 1e-10
ZERO_PROB_THRESHOLD = 1e-14


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check.

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


_PASSES = {
    ">=": lambda margin, tolerance: margin >= -tolerance,
    "<=": lambda margin, tolerance: margin <= tolerance,
    "==": lambda margin, tolerance: abs(margin) <= tolerance,
}


def _reports(label, lhs, rhs, tolerance, sense) -> list[BoundReport]:
    """One report per entry of lhs; rhs is an array like lhs or one value for all."""
    passes = _PASSES.get(sense)
    if passes is None:
        raise DomainError(f"unknown report sense {sense!r}")
    lhs = np.asarray(lhs, dtype=float).ravel().tolist()
    rhs = np.asarray(rhs, dtype=float)
    rhs = rhs.ravel().tolist() if rhs.size == len(lhs) else [float(rhs)] * len(lhs)
    reports = []
    for left, right in zip(lhs, rhs):
        margin = left - right
        saturated = abs(margin) <= tolerance
        passed = passes(margin, tolerance)
        reports.append(BoundReport(label, left, right, margin, tolerance, saturated, passed, sense))
    return reports


def make_report(label, lhs, rhs, tolerance=DEFAULT_TOLERANCE, sense=">=") -> BoundReport:
    (report,) = _reports(label, float(lhs), float(rhs), tolerance, sense)
    return report


def _check_purity(d: int, value):
    value = np.asarray(value, dtype=float)
    lo = 1.0 / d
    if not (value.min() >= lo - 1e-9 and value.max() <= 1.0 + 1e-9):
        raise DomainError(f"purity {value!r} outside [{lo}, 1] for dimension {d}")
    return np.minimum(np.maximum(value, lo), 1.0)


def _check_counts(d, m) -> tuple[int, int]:
    d = int(d)
    m = int(m)
    if d < 2:
        raise DomainError(f"dimension must be >= 2, got {d}")
    if m < 1:
        raise DomainError(f"basis count must be >= 1, got {m}")
    return d, m


def _tsallis_order(alpha) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 2.0:
        raise DomainError(f"Tsallis-type bound needs order in (0, 2], got {alpha}")
    return alpha


def _renyi_order(alpha) -> float:
    alpha = float(alpha)
    if not alpha >= 2.0:
        raise DomainError(f"Renyi-type bound needs order in [2, inf], got {alpha}")
    return alpha


# Every state-dependent bound is a map of a cap C on an index of
# coincidence, and purity 1 gives the state-independent form.


def _mub_cap(d, m, state_purity, state_independent=False):
    """C = (d tr(rho^2) + M - 1)/(M d), the cap on the MUB-averaged index of coincidence."""
    p2 = 1.0 if state_independent else _check_purity(d, state_purity)
    return (d * p2 + m - 1.0) / (m * d)


def _sic_cap(d, state_purity, state_independent=False):
    """C = (tr(rho^2) + 1)/(d(d+1)), the index of coincidence of any SIC (P5)."""
    p2 = 1.0 if state_independent else _check_purity(d, state_purity)
    return (p2 + 1.0) / (d * (d + 1.0))


def _renyi_from_cap(alpha, cap):
    """alpha/(2(alpha-1)) ln(1/C), and ln(1/C)/2 at alpha = inf."""
    factor = 0.5 if math.isinf(alpha) else alpha / (2.0 * (alpha - 1.0))
    return _result(-factor * np.log(cap))


def _with_inefficiency(base, alpha, eta):
    """h_alpha(eta), which checks eta, plus eta^alpha times a clean Tsallis bound."""
    return binary_tsallis(eta, alpha) + float(eta) ** float(alpha) * base


def mub_tsallis_bound(d, m, alpha, state_purity, state_independent=False):
    """Lower bound ln_alpha(1/C) on the MUB-averaged Tsallis entropy, order in (0, 2]."""
    d, m = _check_counts(d, m)
    alpha = _tsallis_order(alpha)
    return alpha_log(1.0 / _mub_cap(d, m, state_purity, state_independent), alpha)


def mub_tsallis_bound_inefficiency(d, m, alpha, state_purity, eta, state_independent=False):
    """Inefficiency-model variant: eta^alpha times the clean bound plus h_alpha(eta)."""
    base = mub_tsallis_bound(d, m, alpha, state_purity, state_independent)
    return _with_inefficiency(base, alpha, eta)


def mub_renyi_bound(d, m, alpha, state_purity, state_independent=False):
    """Lower bound on the MUB-averaged Renyi entropy, order in [2, inf]."""
    d, m = _check_counts(d, m)
    alpha = _renyi_order(alpha)
    return _renyi_from_cap(alpha, _mub_cap(d, m, state_purity, state_independent))


def mub_minentropy_bound(d, m, state_purity, state_independent=False):
    """Lower bound -ln(max p) on the MUB-averaged min-entropy, max p capped by C.

    Improves the alpha = inf Renyi form.
    """
    d, m = _check_counts(d, m)
    return _result(-np.log(max_prob_bound(d, _mub_cap(d, m, state_purity, state_independent))))


def mub_symmetrized_bound(d, s, kind: str = "tsallis") -> float:
    """Lower bound on the MUB-averaged symmetrized entropy of parameter s."""
    d, _ = _check_counts(d, 1)
    pair = s if isinstance(s, SymOrderPair) else SymOrderPair(float(s))
    if kind == "tsallis":
        return 0.5 * alpha_log(d, pair.mu)
    if kind == "renyi":
        return 0.5 * math.log(d)
    raise DomainError(f"unknown entropy kind {kind!r}")


def sic_tsallis_bound(d, alpha, state_purity, state_independent=False):
    """Lower bound ln_alpha(1/C) on the Tsallis entropy of a single SIC-POVM, order in (0, 2]."""
    d = int(d)
    alpha = _tsallis_order(alpha)
    return alpha_log(1.0 / _sic_cap(d, state_purity, state_independent), alpha)


def sic_tsallis_bound_inefficiency(d, alpha, state_purity, eta, state_independent=False):
    """Inefficiency-model variant of the single-SIC Tsallis bound."""
    base = sic_tsallis_bound(d, alpha, state_purity, state_independent)
    return _with_inefficiency(base, alpha, eta)


def sic_renyi_bound(d, alpha, state_purity, state_independent=False):
    """Lower bound on the Renyi entropy of a single SIC-POVM, order in [2, inf]."""
    d = int(d)
    alpha = _renyi_order(alpha)
    return _renyi_from_cap(alpha, _sic_cap(d, state_purity, state_independent))


def sic_minentropy_bound(d, state_purity):
    """Lower bound -ln(max p) on the min-entropy of a single SIC-POVM, max p capped by C."""
    d = int(d)
    return _result(-np.log(max_prob_bound(d * d, _sic_cap(d, state_purity))))


def separable_bound(d: int, purity_a: float, purity_b: float) -> float:
    """Cap on the ENT-G correlation G for a product state with the given marginal purities.

    sqrt(C_a C_b) = sqrt(purity_a + 1) sqrt(purity_b + 1) / (d(d+1)), with
    C the SIC index of coincidence of each party's marginal; both purities
    at 1 give the universal separable cap 2/(d(d+1)).
    """
    d = int(d)
    return float(np.sqrt(_sic_cap(d, purity_a) * _sic_cap(d, purity_b)))


def coincidence_sum_check(mubs: MubSet, rho: DensityMatrix, tolerance=1e-12) -> BoundReport:
    """Check sum_m C(B_m|rho) <= tr(rho^2) + (M-1)/d over a MUB set."""
    return check_bound(mubs, rho, "LWBM-sum", tolerance=tolerance)


def simple_bounds(p, d, alpha, kind: str = "tsallis", tolerance=DEFAULT_TOLERANCE) -> BoundReport:
    """Max-probability bounds for SIC statistics: entropy >= ln_a(1/max p) >= ln_a(d).

    Requires max p <= 1/d (every SIC probability obeys it); violation
    raises :class:`PreconditionError`.
    """
    p = as_probabilities(p).ravel()
    d = int(d)
    pmax = float(p.max())
    if pmax > 1.0 / d + 1e-12:
        raise PreconditionError(
            f"max probability {pmax!r} exceeds 1/d = {1.0 / d!r}; not SIC statistics"
        )
    if kind == "tsallis":
        lhs = tsallis(p, alpha)
        rhs = alpha_log(1.0 / pmax, alpha)
        floor = alpha_log(d, alpha)
        label = "simple-tsallis"
    elif kind == "renyi":
        lhs = renyi(p, alpha)
        rhs = -math.log(pmax)
        floor = math.log(d)
        label = "simple-renyi"
    else:
        raise DomainError(f"unknown entropy kind {kind!r}")
    # max p <= 1/d implies rhs >= floor; the 1e-9 slack mirrors the
    # precondition slack scaled by d
    if rhs < floor - 1e-9:
        raise ConstructionError(
            f"intermediate bound {rhs!r} fell below its floor {floor!r}"
        )
    return make_report(label, lhs, rhs, tolerance)


def _rank_one_kets(meas) -> np.ndarray:
    """Subnormalized kets of a rank-one measurement."""
    if isinstance(meas, SicPovm):
        return meas.kets / np.sqrt(meas.dim)
    if isinstance(meas, OrthonormalBasis):
        return np.asarray(meas.vectors)
    if isinstance(meas, Povm):
        return meas.rank_one_kets()
    raise DomainError(f"unsupported measurement type {type(meas).__name__}")


def _sqrt_factor(rho: DensityMatrix) -> np.ndarray:
    """Hermitian square root of each state, eigenvalues clipped at zero.

    Reuses the eigendecomposition kept by the state's validation, if any.
    """
    eigs, vecs = rho.eigh if rho.eigh is not None else np.linalg.eigh(rho.mat)
    scaled = vecs * np.sqrt(np.clip(eigs, 0.0, None))[..., None, :]
    return scaled @ vecs.conj().swapaxes(-1, -2)


def _overlap_transform(kets_m, kets_n, rho: DensityMatrix):
    """The matrix t_ij = <m_i|n_j><n_j|rho|m_i> / sqrt(<m_i|rho|m_i><n_j|rho|n_j>).

    Evaluated through the factorization rho = R R with R = rho^(1/2):
    <n|rho|m> = (R n)^dag (R m) and the probabilities are squared norms
    of R-images, so the Cauchy-Schwarz structure survives rounding even
    for probabilities many orders below one.  Rows and columns whose
    probability is at most ``ZERO_PROB_THRESHOLD`` are zeroed, matching
    the exclusion of unobservable outcomes.  A stack of states gives a stack
    of matrices.
    """
    root_t = _sqrt_factor(rho).swapaxes(-1, -2)
    zm = np.matmul(kets_m, root_t)  # row i is R m_i
    zn = np.matmul(kets_n, root_t)
    qm = (zm.real * zm.real + zm.imag * zm.imag).sum(axis=-1)
    qn = (zn.real * zn.real + zn.imag * zn.imag).sum(axis=-1)
    overlap = kets_m.conj() @ kets_n.T  # [i, j] = <m_i|n_j>
    cross = np.matmul(zm, zn.conj().swapaxes(-1, -2))  # [i, j] = <n_j|rho|m_i>
    keep_m = qm > ZERO_PROB_THRESHOLD
    keep_n = qn > ZERO_PROB_THRESHOLD
    qm_safe = np.where(keep_m, qm, 1.0)
    qn_safe = np.where(keep_n, qn, 1.0)
    denom = np.sqrt(qm_safe[..., :, None] * qn_safe[..., None, :])
    keep = keep_m[..., :, None] & keep_n[..., None, :]
    return np.where(keep, overlap * cross / denom, 0.0)


def mu_g_factor(meas_m, meas_n, rho: DensityMatrix):
    """State-dependent overlap factor g driving the Maassen-Uffink pair bounds.

    The maximum of |<m_i|n_j><n_j|rho|m_i>| over the geometric mean of
    the outcome probabilities, taken over pairs where both probabilities
    exceed ``ZERO_PROB_THRESHOLD``.  Always <= 1 by Cauchy-Schwarz; for two
    SIC-POVMs the subnormalized kets carry the 1/d prefactor
    automatically.  An array for a stack of states.
    """
    kets_m = _rank_one_kets(meas_m)
    kets_n = _rank_one_kets(meas_n)
    if kets_m.shape[1] != rho.dim or kets_n.shape[1] != rho.dim:
        raise DomainError("measurement and state dimensions differ")
    t = _overlap_transform(kets_m, kets_n, rho)
    return _result(np.abs(t).max(axis=(-2, -1)))


def mu_f_bar(meas_m, meas_n) -> float:
    """State-independent overlap cap: max_ij |<m_i|n_j>| over subnormalized kets."""
    kets_m = _rank_one_kets(meas_m)
    kets_n = _rank_one_kets(meas_n)
    return float(np.max(np.abs(kets_m.conj() @ kets_n.T)))


@dataclass(frozen=True)
class MuPairReports:
    """Maassen-Uffink pair-bound reports at conjugate orders (alpha, beta)."""

    tsallis: BoundReport
    renyi: BoundReport
    tsallis_state_independent: BoundReport
    renyi_state_independent: BoundReport
    g: float
    f_bar: float


_PAIR_LABELS = {
    "tsallis": "P9-mu-pair-tsallis",
    "renyi": "P9-mu-pair-renyi",
    "tsallis_state_independent": "P9-mu-pair-tsallis-si",
    "renyi_state_independent": "P9-mu-pair-renyi-si",
}


def _resolve_order_pair(alpha=None, beta=None, s=None):
    if s is not None:
        pair = s if isinstance(s, SymOrderPair) else SymOrderPair(float(s))
        return pair.alpha, pair.beta
    if alpha is None:
        raise DomainError("give either s or the order alpha (optionally beta)")
    alpha = float(alpha)
    if beta is None:
        return alpha, conjugate_order(alpha)
    beta = float(beta)
    if not abs(1.0 / alpha + 1.0 / beta - 2.0) <= 1e-12:
        raise DomainError(f"orders must satisfy 1/alpha + 1/beta = 2, got {alpha}, {beta}")
    return alpha, beta


def _mu_pair_sides(meas_m, meas_n, rho: DensityMatrix, alpha: float, beta: float):
    """(lhs, rhs) of the four pair bounds, keyed like :class:`MuPairReports`; g; f-bar."""
    mu = max(alpha, beta)
    g = mu_g_factor(meas_m, meas_n, rho)
    fbar = mu_f_bar(meas_m, meas_n)
    pm = probabilities(meas_m, rho)
    pn = probabilities(meas_n, rho)
    lhs_t = tsallis(pm, alpha) + tsallis(pn, beta)
    lhs_r = renyi(pm, alpha) + renyi(pn, beta)
    sides = {
        "tsallis": (lhs_t, alpha_log(np.power(g, -2.0), mu)),
        "renyi": (lhs_r, -2.0 * np.log(g)),
        "tsallis_state_independent": (lhs_t, alpha_log(fbar**-2, mu)),
        "renyi_state_independent": (lhs_r, -2.0 * math.log(fbar)),
    }
    return sides, g, fbar


def mu_pair_bounds(
    meas_m,
    meas_n,
    rho: DensityMatrix,
    alpha=None,
    beta=None,
    s=None,
    tolerance=DEFAULT_TOLERANCE,
) -> MuPairReports:
    """Check the Tsallis and Renyi pair bounds for two rank-one POVMs on one state.

    H_a(M|rho) + H_b(N|rho) >= ln_mu(g^-2) and R_a + R_b >= -2 ln g with
    mu = max(alpha, beta); the state-independent variants replace g by
    the overlap cap f-bar.
    """
    alpha, beta = _resolve_order_pair(alpha, beta, s)
    sides, g, fbar = _mu_pair_sides(meas_m, meas_n, rho, alpha, beta)
    reports = {
        key: make_report(_PAIR_LABELS[key], lhs, rhs, tolerance)
        for key, (lhs, rhs) in sides.items()
    }
    return MuPairReports(**reports, g=g, f_bar=fbar)


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norms of complex vectors along the last axis."""
    return np.sqrt((x.real * x.real + x.imag * x.imag).sum(axis=-1))


def _riesz_sides(t: np.ndarray, u, trials: int, seed):
    """Worst ||t v||_2 and its ||v||_2 over the input vectors v of each state.

    ``u`` holds given inputs: one vector (n,), several (T, n), or several
    per state (N, T, n); ``trials`` random complex vectors drawn from
    ``seed`` are applied to every state as well.
    """
    n = t.shape[-1]
    inputs = []
    if u is not None:
        u = np.asarray(u, dtype=complex)
        if u.shape[-1] != n:
            raise DomainError(f"input vector has length {u.shape[-1]}, expected {n}")
        inputs.append(u.reshape(1, n) if u.ndim == 1 else u)
    if trials > 0:
        z = generator(seed).standard_normal((int(trials), 2, n))
        inputs.append(z[:, 0] + 1j * z[:, 1])
    if len(inputs) == 2:
        batch = np.broadcast_shapes(t.shape[:-2], *(v.shape[:-2] for v in inputs))
        inputs = [np.concatenate([np.broadcast_to(v, batch + v.shape[-2:]) for v in inputs], -2)]
    if not inputs or inputs[0].shape[-2] == 0:
        raise DomainError("need an input vector or trials >= 1")
    nu = _norms(inputs[0])
    nv = _norms(np.matmul(inputs[0], t.swapaxes(-1, -2)))
    nu = nu if nu.shape == nv.shape else np.broadcast_to(nu, nv.shape)
    worst = np.arange(nv.shape[-1]) == (nv - nu).argmax(axis=-1)[..., None]
    return nv[worst], nu[worst]


def riesz_precondition_check(
    meas_m,
    meas_n,
    rho: DensityMatrix,
    u=None,
    trials: int = 0,
    seed=0,
    tolerance: float = 1e-12,
):
    """Verify the overlap transformation is a 2-norm contraction.

    Applies t to the given input vectors (if any) and to ``trials``
    random complex vectors, and reports the worst case of
    ||t u||_2 <= ||u||_2: one report, or a list of them for a stack of
    states.
    """
    return check_bound(
        (meas_m, meas_n), rho, "APXB-riesz", u=u, trials=trials, seed=seed, tolerance=tolerance
    )


def _sym_param_from_alpha(alpha) -> float:
    alpha = float(alpha)
    if not 1.0 <= alpha < math.inf:
        raise DomainError(
            f"symmetrized orders need 1 <= alpha < inf (alpha is max of the pair), got {alpha}"
        )
    return 1.0 - 1.0 / alpha


class CheckArguments(NamedTuple):
    """The validated arguments of one labelled check (see :func:`check_arguments`)."""

    alpha: float | None = None
    pair: SymOrderPair | None = None
    kind: str = "tsallis"
    eta: float | None = None
    u: object = None
    trials: int = 16
    seed: object = 0


class Proposition(NamedTuple):
    """One labelled check: what it measures, which orders it takes, its two sides.

    ``measurement`` is what :func:`check_bound` expects as ``meas``:
    "mubs" (a :class:`MubSet`), "sic" (a :class:`SicPovm`), "any" (any
    single measurement; campaigns use the SIC), "pair" (two rank-one
    measurements) or "product" (a :class:`SicPovm`, with states on
    H (x) H).  ``order`` names the order range the check takes its order
    from ("tsallis": (0, 2], "renyi": [2, inf], "symmetrized": s = 1 - 1/alpha
    with 1 <= alpha < inf) and is None for the order-free checks.
    ``evaluate(meas, rho, args)`` returns the lhs and rhs arrays over the
    states of ``rho``.
    """

    measurement: str
    sense: str
    order: str | None
    efficiency: bool
    evaluate: Callable


def _statistics(meas, rho, eta=None):
    """Outcome probabilities, with the no-click outcome appended when eta is given."""
    p = probabilities(meas, rho)
    return p if eta is None else distort(p, eta)


def _p1(mubs, rho, a):
    rhs = mub_tsallis_bound(mubs.dim, mubs.count, a.alpha, purity(rho))
    if a.eta is not None:
        rhs = _with_inefficiency(rhs, a.alpha, a.eta)
    return tsallis(_statistics(mubs, rho, a.eta), a.alpha).mean(axis=-1), rhs


def _p2(mubs, rho, a):
    lhs = renyi(_statistics(mubs, rho), a.alpha).mean(axis=-1)
    return lhs, mub_renyi_bound(mubs.dim, mubs.count, a.alpha, purity(rho))


def _p3(mubs, rho, a):
    lhs = renyi(_statistics(mubs, rho), np.inf).mean(axis=-1)
    return lhs, mub_minentropy_bound(mubs.dim, mubs.count, purity(rho))


def _p4(mubs, rho, a):
    lhs = symmetrized(_statistics(mubs, rho), a.pair, a.kind).mean(axis=-1)
    return lhs, mub_symmetrized_bound(mubs.dim, a.pair, a.kind)


def _p5(sic, rho, a):
    return index_of_coincidence(_statistics(sic, rho)), _sic_cap(sic.dim, purity(rho))


def _p6(sic, rho, a):
    rhs = sic_tsallis_bound(sic.dim, a.alpha, purity(rho))
    if a.eta is not None:
        rhs = _with_inefficiency(rhs, a.alpha, a.eta)
    return tsallis(_statistics(sic, rho, a.eta), a.alpha), rhs


def _p7(sic, rho, a):
    return renyi(_statistics(sic, rho), a.alpha), sic_renyi_bound(sic.dim, a.alpha, purity(rho))


def _p8(sic, rho, a):
    return renyi(_statistics(sic, rho), np.inf), sic_minentropy_bound(sic.dim, purity(rho))


def _p9(pair, rho, a):
    sides, _g, _fbar = _mu_pair_sides(*pair, rho, a.pair.alpha, a.pair.beta)
    return sides[a.kind]


def _lwbm(mubs, rho, a):
    lhs = index_of_coincidence(_statistics(mubs, rho)).sum(axis=-1)
    return lhs, mubs.count * _mub_cap(mubs.dim, mubs.count, purity(rho))


def _apxa(meas, rho, a):
    p = _statistics(meas, rho)
    return p.p.max(axis=-1), max_prob_bound(len(p), index_of_coincidence(p))


def _apxb(pair, rho, a):
    t = _overlap_transform(_rank_one_kets(pair[0]), _rank_one_kets(pair[1]), rho)
    return _riesz_sides(t, a.u, a.trials, a.seed)


def _ent_g(sic, rho, a):
    g = entanglement.correlation_G(entanglement.product_sic_povm(sic), rho)
    return g, _sic_cap(sic.dim, 1.0, state_independent=True)


PROPOSITIONS = {
    "P1-mub-tsallis": Proposition("mubs", ">=", "tsallis", True, _p1),
    "P2-mub-renyi": Proposition("mubs", ">=", "renyi", False, _p2),
    "P3-mub-minent": Proposition("mubs", ">=", None, False, _p3),
    "P4-mub-sym": Proposition("mubs", ">=", "symmetrized", False, _p4),
    "P5-sic-ic": Proposition("sic", "==", None, False, _p5),
    "P6-sic-tsallis": Proposition("sic", ">=", "tsallis", True, _p6),
    "P7-sic-renyi": Proposition("sic", ">=", "renyi", False, _p7),
    "P8-sic-minent": Proposition("sic", ">=", None, False, _p8),
    "P9-mu-pair": Proposition("pair", ">=", "symmetrized", False, _p9),
    "LWBM-sum": Proposition("mubs", "<=", None, False, _lwbm),
    "APXA-max": Proposition("any", "<=", None, False, _apxa),
    "APXB-riesz": Proposition("pair", "<=", None, False, _apxb),
    "ENT-G": Proposition("product", "<=", None, False, _ent_g),
}
PROPOSITION_LABELS = tuple(PROPOSITIONS)

_MEASUREMENT_TYPES = {
    "mubs": MubSet,
    "sic": SicPovm,
    "product": SicPovm,
    "any": (SicPovm, OrthonormalBasis, Povm),
    "pair": (tuple, list),
}


def check_arguments(
    which: str, *, alpha=None, s=None, kind: str = "tsallis", eta=None
) -> CheckArguments:
    """Validate a labelled check's order arguments without a state.

    Raises :class:`DomainError` for an unknown label, an order outside the
    label's range, an unknown entropy kind, or an efficiency given to a
    label without the inefficiency model (its range is checked where it
    is used).  Order-free labels ignore ``alpha``.
    """
    prop = PROPOSITIONS.get(which)
    if prop is None:
        raise DomainError(f"unknown proposition label {which!r}")
    if eta is not None and not prop.efficiency:
        raise DomainError(f"inefficiency model applies to P1/P6 only, not {which}")
    if prop.order is None:
        return CheckArguments()
    if prop.order == "symmetrized":
        _entropy_fn(kind)
        if s is None:
            if alpha is None:
                raise DomainError(f"{which} needs s or an order alpha")
            s = _sym_param_from_alpha(alpha)
        pair = s if isinstance(s, SymOrderPair) else SymOrderPair(float(s))
        return CheckArguments(pair=pair, kind=kind)
    if alpha is None:
        raise DomainError(f"{which} needs an order alpha")
    alpha = _tsallis_order(alpha) if prop.order == "tsallis" else _renyi_order(alpha)
    return CheckArguments(alpha=alpha, eta=eta)


def check_bound(
    meas,
    rho: DensityMatrix,
    which: str,
    *,
    alpha=None,
    s=None,
    kind: str = "tsallis",
    eta=None,
    trials: int = 16,
    seed=0,
    u=None,
    tolerance: float = DEFAULT_TOLERANCE,
):
    """Evaluate one labeled bound check on a state, or on each state of a stack.

    ``meas`` is the measurement object the label expects: a
    :class:`MubSet` for P1-P4 and LWBM-sum, a :class:`SicPovm` for
    P5-P8 and ENT-G (ENT-G takes the bipartite state on H (x) H), any
    single measurement for APXA-max, and a pair of rank-one measurements
    for P9 and APXB-riesz.  ``eta`` switches P1/P6 to the
    detector-inefficiency variant.  APXB-riesz applies the input vectors
    ``u`` (see :func:`riesz_precondition_check`) and ``trials`` random
    ones drawn from ``seed``.  Returns one :class:`BoundReport` for a
    single state and a list of them, in stack order, for a stack.
    """
    args = check_arguments(which, alpha=alpha, s=s, kind=kind, eta=eta)
    prop = PROPOSITIONS[which]
    if not isinstance(meas, _MEASUREMENT_TYPES[prop.measurement]) or (
        prop.measurement == "pair" and len(meas) != 2
    ):
        raise DomainError(
            f"{which} expects a {prop.measurement} measurement, got {type(meas).__name__}"
        )
    lhs, rhs = prop.evaluate(meas, rho, args._replace(u=u, trials=trials, seed=seed))
    reports = _reports(which, lhs, rhs, tolerance, prop.sense)
    return reports if rho.mat.ndim == 3 else reports[0]


def detect_entanglement(
    sic: SicPovm, rho: DensityMatrix, tolerance: float = 1e-12
) -> tuple[bool, BoundReport]:
    """Flag a bipartite state as entangled when G exceeds the universal cap (ENT-G).

    The cap 2/(d(d+1)) is purity-independent, since G alone does not show
    the marginals.  True is sufficient for entanglement; False is inconclusive.
    """
    report = check_bound(sic, rho, "ENT-G", tolerance=tolerance)
    return report.lhs > report.rhs + tolerance, report
