import decimal
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubsic import (
    DomainError,
    ProbDist,
    alpha_log,
    binary_tsallis,
    conjugate_order,
    distort,
    index_of_coincidence,
    max_prob_bound,
    mub_symmetrized_bound,
    probabilities,
    random_pure,
    renyi,
    sic_from_fiducial,
    symmetrized,
    tsallis,
)
from mubsic import entropy
from mubsic.entropy import _power_excess


def _random_dist(rng, n):
    p = rng.uniform(0.0, 1.0, size=n)
    return p / p.sum()


distributions = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8
).map(lambda xs: np.array(xs) / np.sum(xs))


class TestRenyi:
    def test_rejects_nan_probability(self):
        # NaN used to slip through and give -0.0
        with pytest.raises(DomainError):
            renyi([np.nan, 1.0], 2)
        with pytest.raises(DomainError):
            tsallis([np.nan, 1.0], 2)
        with pytest.raises(DomainError):
            index_of_coincidence([0.5, np.nan])

    def test_reduces_along_last_axis(self):
        p = np.array([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]])
        for alpha in (0.5, 1.0, 1.0 + 5e-7, 2.0, np.inf):
            assert np.array_equal(renyi(p, alpha), [renyi(row, alpha) for row in p])

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 2.0, 5.0, np.inf])
    def test_uniform(self, alpha):
        for n in (2, 5, 9):
            assert renyi(np.ones(n) / n, alpha) == pytest.approx(np.log(n), abs=1e-12)

    def test_collision_form(self):
        p = [0.5, 0.5]
        assert renyi(p, 2) == pytest.approx(np.log(2.0), abs=1e-13)
        q = [0.3, 0.25, 0.45]
        assert renyi(q, 2) == pytest.approx(-np.log(np.sum(np.square(q))), abs=1e-13)

    def test_min_entropy(self):
        assert renyi([0.5, 0.3, 0.2], np.inf) == pytest.approx(-np.log(0.5), abs=1e-14)

    def test_rejects_nonpositive_order(self):
        with pytest.raises(DomainError):
            renyi([0.5, 0.5], 0.0)
        with pytest.raises(DomainError):
            renyi([0.5, 0.5], -1.0)

    def test_guard_band_matches_shannon(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            p = _random_dist(rng, 6)
            h1 = renyi(p, 1.0)
            for eps in (1e-9, -1e-9, 1e-7, -1e-7):
                assert renyi(p, 1.0 + eps) == pytest.approx(h1, abs=1e-6)

    def test_skips_zero_entries(self):
        assert renyi([0.5, 0.5, 0.0], 0.5) == pytest.approx(np.log(2.0), abs=1e-13)

    @staticmethod
    def _decimal_renyi(p, alpha):
        """ln(sum p^alpha)/(1 - alpha) to 50 digits, exponents unbounded."""
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            ctx.Emin = decimal.MIN_EMIN
            a = decimal.Decimal(alpha)
            total = sum(decimal.Decimal(float(x)) ** a for x in p if x > 0.0)
            return float(total.ln() / (1 - a))

    @pytest.mark.parametrize("alpha", [1100.0, 5000.0, 1e6])
    def test_large_finite_order_matches_decimal_reference(self, alpha):
        # p^alpha underflows to 0 here; the entropy is still about -ln(max p)
        rng = np.random.default_rng(7)
        dists = [np.array([0.5, 0.3, 0.2]), _random_dist(rng, 9), _random_dist(rng, 49)]
        for p in dists:
            want = self._decimal_renyi(p, alpha)
            assert renyi(p, alpha) == pytest.approx(want, abs=1e-13)
        stack = renyi(np.stack([dists[0], dists[0][::-1]]), alpha)
        assert np.all(np.isfinite(stack))


def _decimal_entropies(p, alpha):
    """(Renyi, Tsallis) of p normalized exactly, to 60 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        exact = [decimal.Decimal(float(x)) for x in p]
        total = sum(exact)
        a = decimal.Decimal(alpha)
        power_sum = sum((x / total) ** a for x in exact if x > 0)
        return float(power_sum.ln() / (1 - a)), float((power_sum - 1) / (1 - a))


def _reference_distributions():
    rng = np.random.default_rng(5)
    dists = [_random_dist(rng, n) for n in (2, 3, 7, 16, 49) for _ in range(2)]
    for tiny in ([1e-300, 0.0], [1e-200, 1e-17], [0.0, 0.0, 1e-300]):
        p = rng.uniform(size=9)
        p[: len(tiny)] = tiny
        dists.append(p / p.sum())
    return dists


class TestOrderNearOne:
    # the generic (sum p^alpha - 1)/(1 - alpha) divides a rounding error of
    # about 1e-16 by 1 - alpha: 5e-10 at alpha = 1 + 1.01e-6
    ORDERS = [1 + 1.01e-6, 1 - 1.01e-6, 1 + 1e-9, 1 - 1e-9, 1 + 1e-4, 1 - 1e-4, 0.3, 1.5, 2.0]

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_matches_decimal_reference(self, alpha):
        for p in _reference_distributions():
            want_renyi, want_tsallis = _decimal_entropies(p, alpha)
            assert renyi(p, alpha) == pytest.approx(want_renyi, rel=4e-15)
            assert tsallis(p, alpha) == pytest.approx(want_tsallis, rel=4e-15)

    @pytest.mark.parametrize("alpha", ORDERS)
    def test_alpha_log_matches_decimal_reference(self, alpha):
        for x in (0.3, 1.5, 2.0, 7.0, 42.0):
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                a = decimal.Decimal(alpha)
                want = float((decimal.Decimal(x) ** (1 - a) - 1) / (1 - a))
            assert alpha_log(x, alpha) == pytest.approx(want, rel=4e-15)


class TestTsallis:
    @pytest.mark.parametrize("alpha", [0.4, 1.0, 1.7, 2.0])
    def test_uniform_is_alpha_log(self, alpha):
        for n in (2, 4, 9):
            assert tsallis(np.ones(n) / n, alpha) == pytest.approx(
                alpha_log(n, alpha), abs=1e-12
            )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
    def test_indicator_is_zero(self, alpha):
        assert tsallis([0.0, 1.0, 0.0], alpha) == pytest.approx(0.0, abs=1e-14)

    def test_two_equivalent_forms(self):
        # -sum p^a ln_a(p) and sum p ln_a(1/p), summed directly
        rng = np.random.default_rng(2)
        for alpha in (0.5, 1.3, 2.0):
            for _ in range(10):
                p = _random_dist(rng, 7)
                form1 = -sum(x**alpha * alpha_log(x, alpha) for x in p if x > 0)
                form2 = sum(x * alpha_log(1.0 / x, alpha) for x in p if x > 0)
                val = tsallis(p, alpha)
                assert val == pytest.approx(form1, abs=1e-12)
                assert val == pytest.approx(form2, abs=1e-12)

    def test_shannon_limit(self):
        p = np.array([0.2, 0.5, 0.3])
        shannon = -np.sum(p * np.log(p))
        assert tsallis(p, 1.0) == pytest.approx(shannon, abs=1e-14)

    def test_rejects_infinite_order(self):
        with pytest.raises(DomainError):
            tsallis([1.0], np.inf)

    def test_bitwise_unchanged_where_the_unclamped_product_is_finite(self):
        # clamping alpha - 1 at 1e300 moves no value at orders up to 2.4e305, where
        # (alpha - 1) ln p is still finite for every p >= 5e-324
        rng = np.random.default_rng(8)
        edge = [
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            [5e-324, 1.0, 0.0, 0.0, 0.0, 0.0],
            [1e-300, 1e-20, 0.25, 0.75, 0.0, 0.0],
            [0.5, 0.5 - 1e-16, 1e-16, 0.0, 0.0, 0.0],
            [1.0 - 2.0**-53, 2.0**-53, 0.0, 0.0, 0.0, 0.0],
        ]
        p = np.vstack([edge, [_random_dist(rng, 6) for _ in range(8)]])
        orders = [*np.geomspace(1.0 + 1e-6, 2.4e305, 400), 1e300, np.nextafter(1e300, 2e300), 2.4e305]
        for alpha in orders:
            lp = np.log(np.maximum(p, 5e-324))
            unclamped = (p * np.expm1((alpha - 1.0) * lp)).sum(axis=-1) / (1.0 - alpha)
            assert tsallis(p, alpha).tobytes() == unclamped.tobytes(), alpha


    @pytest.mark.parametrize("fn", [tsallis, symmetrized])
    def test_entry_rounded_above_one_contributes_zero(self, fn):
        # the sum is within tolerance of 1, so the distribution is valid; ln p > 0
        # of the first entry used to overflow expm1 at large orders and give -inf,
        # and gave a Shannon term of -2.2e-16 at order 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha in (1e20, 1.0):
                assert fn([1.0000000000000002, 0.0], alpha) == 0.0, alpha

    def test_log_clamp_leaves_every_probability_in_the_unit_interval_bitwise(self):
        p = np.concatenate([
            [0.0, 5e-324, 1e-300, 1e-20, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0],
            np.linspace(0.0, 1.0, 101),
            np.geomspace(1e-300, 1.0, 101),
        ])[:, None]
        orders = [*np.geomspace(0.5, 1e300, 300), 1.0 - 1e-6, 1.0 + 1e-6, 2.4e305]
        for alpha in orders:
            lp = np.log(np.maximum(p, 5e-324))
            if alpha > 1.0:
                old = (p * np.expm1(min(alpha - 1.0, 1e300) * lp)).sum(axis=-1)
            else:
                old = -(p**alpha * np.expm1((1.0 - alpha) * lp)).sum(axis=-1)
            assert _power_excess(p, alpha).tobytes() == old.tobytes(), alpha

    def test_entropies_of_one_distribution_take_ln_p_once(self, monkeypatch):
        # a ProbDist keeps ln p for every entropy of it; each value keeps its bits
        rng = np.random.default_rng(8)
        p = np.concatenate([rng.dirichlet(np.ones(6), size=5), np.eye(6)[:2]])
        orders = (0.5, 1.0 - 1e-6, 1.0, 1.5, 2.0, 3.0, np.inf)
        want = [renyi(p, a) for a in orders] + [tsallis(p, a) for a in orders[:-1]]
        want += [symmetrized(p, a, kind) for a in (1.0, 2.0) for kind in ("renyi", "tsallis")]
        calls = []
        log = entropy._log
        monkeypatch.setattr(entropy, "_log", lambda x: calls.append(x) or log(x))
        dist = ProbDist(p)
        got = [renyi(dist, a) for a in orders] + [tsallis(dist, a) for a in orders[:-1]]
        got += [symmetrized(dist, a, kind) for a in (1.0, 2.0) for kind in ("renyi", "tsallis")]
        assert len(calls) == 1 and calls[0] is dist.p
        assert len(got) == len(want) and all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestAlphaLog:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            alpha_log(np.nan, 2.0)
        with pytest.raises(DomainError):
            alpha_log(2.0, np.nan)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [np.inf, [2.0, np.inf]])
    def test_rejects_inf(self, x, alpha):
        # below order 1 ln_alpha(inf) was inf, above it 1/(alpha - 1): neither is a value at an x
        with pytest.raises(DomainError, match="finite"):
            alpha_log(x, alpha)

    def test_a_value_beyond_the_float_range_raises(self):
        # ln_2(5e-324) = 1 - 2e323 used to warn "overflow encountered in expm1" and give -inf
        message = r"^ln_2\.0\(5e-324\) is beyond the float range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                alpha_log(5e-324, 2)
            with pytest.raises(DomainError, match=message):
                alpha_log([1.0, 5e-324], 2)
            # an order whose product with ln x overflows still has a value, 1 / (alpha - 1)
            assert alpha_log(1e300, 1e308) == pytest.approx(1e-308, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 7.0])
    def test_log_of_one_is_zero(self, alpha):
        assert alpha_log(1.0, alpha) == 0.0

    def test_order_two_value(self):
        assert alpha_log(4.0, 2.0) == pytest.approx(0.75, abs=1e-15)

    def test_guard_band_near_one(self):
        for x in np.linspace(0.1, 10.0, 37):
            for alpha in (1.0 - 1e-7, 1.0 + 1e-7):
                assert abs(alpha_log(x, alpha) - np.log(x)) <= 1e-6

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(DomainError):
            alpha_log(0.0, 0.5)
        with pytest.raises(DomainError):
            alpha_log(-2.0, 0.5)


class TestBinaryTsallis:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_endpoints_vanish(self, alpha):
        assert binary_tsallis(0.0, alpha) == 0.0
        assert binary_tsallis(1.0, alpha) == 0.0

    def test_binary_shannon_at_half(self):
        assert binary_tsallis(0.5, 1.0) == pytest.approx(np.log(2.0), abs=1e-14)

    def test_symmetry(self):
        for eta in np.linspace(0.0, 1.0, 11):
            for alpha in (0.5, 1.0, 2.0):
                assert binary_tsallis(eta, alpha) == pytest.approx(
                    binary_tsallis(1.0 - eta, alpha), abs=1e-14
                )

    def test_matches_two_outcome_tsallis(self):
        for eta in np.linspace(0.02, 0.98, 25):
            for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
                assert binary_tsallis(eta, alpha) == pytest.approx(
                    tsallis([eta, 1.0 - eta], alpha), abs=1e-13
                )

    def test_rejects_bad_efficiency(self):
        with pytest.raises(DomainError):
            binary_tsallis(1.2, 1.0)


class TestSymmetrized:
    def test_order_pair_constraint(self):
        for alpha in (1.0, 4.0 / 3.0, 2.0, 10.0, 1000.0):
            beta = conjugate_order(alpha)
            assert beta == alpha / (2.0 * alpha - 1.0) and beta <= 1.0 <= alpha
            assert abs(1.0 / alpha + 1.0 / beta - 2.0) < 1e-14

    def test_rejects_bad_parameter(self):
        # the larger order of the pair lies in [1, inf)
        p = np.ones(3) / 3
        for alpha in (np.inf, 1.0 / 1.1, 0.0, 0.5, 0.999):
            with pytest.raises(DomainError):
                symmetrized(p, alpha)
            with pytest.raises(DomainError):
                mub_symmetrized_bound(3, alpha)

    def test_s_zero_is_shannon(self):
        # alpha = 1 pairs with beta = 1
        p = np.array([0.1, 0.6, 0.3])
        shannon = -np.sum(p * np.log(p))
        assert symmetrized(p, 1.0, "renyi") == pytest.approx(shannon, abs=1e-13)
        assert symmetrized(p, 1.0, "tsallis") == pytest.approx(shannon, abs=1e-13)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.8])
    def test_uniform_renyi(self, s):
        # the pair of orders 1/(1 - s) and 1/(1 + s)
        assert symmetrized(np.ones(5) / 5, 1.0 / (1.0 - s), "renyi") == pytest.approx(
            np.log(5.0), abs=1e-12
        )

    def test_half_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = _random_dist(rng, 6)
            # alpha = 2 pairs with beta = 2/3
            for kind, fn in (("renyi", renyi), ("tsallis", tsallis)):
                direct = 0.5 * (fn(p, 2.0) + fn(p, 2.0 / 3.0))
                assert symmetrized(p, 2.0, kind) == pytest.approx(direct, abs=1e-13)

    @pytest.mark.parametrize("kind", ["renyi", "tsallis"])
    def test_order_one_takes_its_one_entropy_once(self, monkeypatch, kind):
        # beta = alpha = 1: h + h has the bits of the two equal terms
        p = np.array([0.1, 0.6, 0.3, 0.0])
        h = (renyi if kind == "renyi" else tsallis)(p, 1.0)
        calls = []
        original = getattr(entropy, kind)
        monkeypatch.setattr(entropy, kind, lambda *a: calls.append(a[1]) or original(*a))
        assert symmetrized(p, 1.0, kind) == 0.5 * (h + h)
        assert calls == [1.0]
        symmetrized(p, 2.0, kind)
        assert calls == [1.0, 2.0, 2.0 / 3.0]

    def test_conjugate_order(self):
        assert conjugate_order(1.0) == pytest.approx(1.0)
        assert conjugate_order(2.0) == pytest.approx(2.0 / 3.0)
        with pytest.raises(DomainError):
            conjugate_order(0.5)
        with pytest.raises(DomainError):
            conjugate_order(np.inf)

    def test_conjugate_order_at_the_top_of_the_float_range(self):
        # 2 alpha overflows above about 9e307; beta tends to 1/2
        assert conjugate_order(1e308) == 0.5
        assert conjugate_order(np.finfo(float).max) == 0.5

    def test_conjugate_order_is_bitwise_the_textbook_form(self):
        alphas = np.concatenate(
            [np.linspace(0.5 + 1e-7, 10.0, 2001), np.exp(np.linspace(-0.69, 700.0, 2001))]
        )
        got = np.array([conjugate_order(a) for a in alphas])
        assert np.array_equal(got, alphas / (2.0 * alphas - 1.0))


class TestIndexOfCoincidence:
    def test_uniform(self):
        assert index_of_coincidence(np.ones(8) / 8) == pytest.approx(1.0 / 8, abs=1e-15)

    def test_indicator(self):
        assert index_of_coincidence([0.0, 1.0]) == pytest.approx(1.0)

    def test_qubit_sic_on_pure_state(self):
        sic = sic_from_fiducial(2)
        for seed in range(10):
            p = probabilities(sic, random_pure(2, seed))
            assert index_of_coincidence(p) == pytest.approx(1.0 / 3.0, abs=1e-12)


# each message names the offending number as a plain float, never as np.float64(...) or array(...)
PLAIN_FLOAT_MESSAGES = {
    "ProbDist-sum": (
        lambda: ProbDist([0.5, 0.4]),
        "probabilities sum to 1 only within 0.09999999999999998",
    ),
    "max_prob_bound-stack": (
        lambda: max_prob_bound(3, [0.5, 2.0, 0.1]),
        "sum of squares 2.0 infeasible for n = 3",
    ),
    "max_prob_bound-nan": (
        lambda: max_prob_bound(4, np.nan),
        "sum of squares nan infeasible for n = 4",
    ),
    "max_prob_bound-empty": (
        lambda: max_prob_bound(3, []),
        "empty sum-of-squares array, shape (0,)",
    ),
    # alpha_log names its first bad argument; it used to print the whole array
    "alpha_log-stack": (
        lambda: alpha_log([[2.0, -3.0, np.nan]], 2.0),
        "alpha-logarithm needs finite x > 0, got -3.0",
    ),
    "alpha_log-empty": (
        lambda: alpha_log([], 2.0),
        "empty alpha-logarithm argument array, shape (0,)",
    ),
}


@pytest.mark.parametrize("call, message", PLAIN_FLOAT_MESSAGES.values(), ids=PLAIN_FLOAT_MESSAGES)
def test_messages_show_plain_floats(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


class TestMaxProbBound:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            max_prob_bound(4, np.nan)

    def test_uniform_boundary(self):
        assert max_prob_bound(6, 1.0 / 6) == pytest.approx(1.0 / 6, abs=1e-15)

    def test_indicator_boundary(self):
        assert max_prob_bound(6, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        # the d=2 fiducial-state SIC statistics (1/2, 1/6, 1/6, 1/6)
        assert max_prob_bound(4, 1.0 / 3.0) == pytest.approx(0.5, abs=1e-14)

    def test_grid_search_oracle(self):
        # 2-parameter family (m, t, u, u): the closed form must dominate
        # every feasible point, and the constrained max at coincidence
        # 1/3 must approach the closed-form value 1/2; the 751 x 301 grid is
        # evaluated as one array, row k of t being linspace(0, 1 - m_k, 301)
        band = 2e-3
        m = np.linspace(0.25, 1.0, 751)
        t = np.array([np.linspace(0.0, 1.0 - mk, 301) for mk in m])
        m = np.broadcast_to(m[:, None], t.shape)
        u = (1.0 - m - t) / 2.0
        feasible = u >= -1e-12
        m, t, u = m[feasible], t[feasible], u[feasible]
        c = m * m + t * t + 2.0 * u * u
        assert np.all(np.maximum(np.maximum(m, t), u) <= max_prob_bound(4, c) + 1e-12)
        best = m[np.abs(c - 1.0 / 3.0) < band].max(initial=0.0)
        assert best <= max_prob_bound(4, 1.0 / 3.0 + band) + 1e-12
        assert best == pytest.approx(max_prob_bound(4, 1.0 / 3.0), abs=5e-3)

    def test_rejects_infeasible(self):
        with pytest.raises(DomainError):
            max_prob_bound(4, 0.1)
        with pytest.raises(DomainError):
            max_prob_bound(4, 1.1)


class TestDistributionProperties:
    def test_renyi_monotone_in_order(self):
        rng = np.random.default_rng(6)
        grid = [0.3, 0.7, 1.0, 2.0, 5.0, np.inf]
        for _ in range(50):
            p = _random_dist(rng, rng.integers(2, 9))
            values = [renyi(p, a) for a in grid]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi + 1e-12

    def test_tsallis_concavity(self):
        rng = np.random.default_rng(7)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            for _ in range(25):
                n = rng.integers(2, 7)
                p, q = _random_dist(rng, n), _random_dist(rng, n)
                lam = rng.uniform()
                mix = lam * p + (1.0 - lam) * q
                assert tsallis(mix, alpha) >= (
                    lam * tsallis(p, alpha) + (1.0 - lam) * tsallis(q, alpha) - 1e-12
                )

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_distortion_identity(self, alpha):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p = _random_dist(rng, 6)
            for eta in (0.0, 0.3, 0.8, 1.0):
                lhs = tsallis(distort(p, eta), alpha)
                rhs = eta**alpha * tsallis(p, alpha) + binary_tsallis(eta, alpha)
                assert abs(lhs - rhs) <= 1e-12

    @given(distributions, st.sampled_from([0.3, 0.8, 1.0, 1.5, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_tsallis_coincidence_floor(self, p, alpha):
        assert tsallis(p, alpha) >= alpha_log(1.0 / index_of_coincidence(p), alpha) - 1e-12

    @given(distributions, st.sampled_from([2.0, 3.0, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_renyi_coincidence_floor(self, p, alpha):
        floor = alpha / (2.0 * (1.0 - alpha)) * np.log(index_of_coincidence(p))
        assert renyi(p, alpha) >= floor - 1e-12

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12).filter(
            lambda xs: sum(xs) > 0.0
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_renyi_nonincreasing_across_order_one(self, xs):
        # crosses the former order-1 band edges and the order-2 switch of form
        p = np.array(xs) / np.sum(xs)
        grid = [0.3, 1 - 1.01e-6, 1 - 0.99e-6, 1.0, 1 + 0.99e-6, 1 + 1.01e-6, 2.0, 2.5, np.inf]
        values = [renyi(p, a) for a in grid]
        for lo, hi in zip(values[1:], values[:-1]):
            assert lo <= hi + 1e-13

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_binary_tsallis_is_two_outcome_tsallis(self, eta, alpha):
        assert binary_tsallis(eta, alpha) == tsallis([eta, 1.0 - eta], alpha)

    @given(distributions)
    @settings(max_examples=200, deadline=None)
    def test_max_element_cap(self, p):
        assert p.max() <= max_prob_bound(p.size, index_of_coincidence(p)) + 1e-12

    def test_max_element_cap_saturation(self):
        indicator = np.zeros(5)
        indicator[2] = 1.0
        assert max_prob_bound(5, index_of_coincidence(indicator)) == pytest.approx(
            1.0, abs=1e-12
        )
        uniform = np.ones(7) / 7
        assert max_prob_bound(7, index_of_coincidence(uniform)) == pytest.approx(
            1.0 / 7, abs=1e-12
        )

    def test_power_sum_order_comparison(self):
        # sum p^a vs (max p)^(a-1): >= below order 1, <= above it
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = _random_dist(rng, 6)
            pmax = p.max()
            for alpha in (0.3, 0.6, 0.9):
                assert np.sum(p**alpha) >= pmax ** (alpha - 1.0) - 1e-12
            for alpha in (1.5, 2.0, 4.0):
                assert np.sum(p**alpha) <= pmax ** (alpha - 1.0) + 1e-12
