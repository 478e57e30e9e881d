import decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubsic import (
    DomainError,
    SymOrderPair,
    alpha_log,
    binary_tsallis,
    conjugate_order,
    distort,
    index_of_coincidence,
    max_prob_bound,
    probabilities,
    random_pure,
    renyi,
    sic_from_fiducial,
    symmetrized,
    tsallis,
)


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


class TestAlphaLog:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            alpha_log(np.nan, 2.0)
        with pytest.raises(DomainError):
            alpha_log(2.0, np.nan)

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
        for s in (0.0, 0.25, 0.5, 0.9, 0.999):
            pair = SymOrderPair(s)
            assert pair.alpha == 1.0 / (1.0 - s) and pair.beta == 1.0 / (1.0 + s)
            assert abs(1.0 / pair.alpha + 1.0 / pair.beta - 2.0) < 1e-14

    def test_rejects_bad_parameter(self):
        with pytest.raises(DomainError):
            SymOrderPair(1.0)
        with pytest.raises(DomainError):
            SymOrderPair(-0.1)

    def test_s_zero_is_shannon(self):
        p = np.array([0.1, 0.6, 0.3])
        shannon = -np.sum(p * np.log(p))
        assert symmetrized(p, 0.0, "renyi") == pytest.approx(shannon, abs=1e-13)
        assert symmetrized(p, 0.0, "tsallis") == pytest.approx(shannon, abs=1e-13)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.8])
    def test_uniform_renyi(self, s):
        assert symmetrized(np.ones(5) / 5, s, "renyi") == pytest.approx(
            np.log(5.0), abs=1e-12
        )

    def test_half_sum_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = _random_dist(rng, 6)
            # s = 0.5 pairs orders 2 and 2/3
            for kind, fn in (("renyi", renyi), ("tsallis", tsallis)):
                direct = 0.5 * (fn(p, 2.0) + fn(p, 2.0 / 3.0))
                assert symmetrized(p, 0.5, kind) == pytest.approx(direct, abs=1e-13)

    def test_conjugate_order(self):
        assert conjugate_order(1.0) == pytest.approx(1.0)
        assert conjugate_order(2.0) == pytest.approx(2.0 / 3.0)
        with pytest.raises(DomainError):
            conjugate_order(0.5)
        with pytest.raises(DomainError):
            conjugate_order(np.inf)


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
        # 1/3 must approach the closed-form value 1/2
        band = 2e-3
        best = 0.0
        for m in np.linspace(0.25, 1.0, 751):
            for t in np.linspace(0.0, 1.0 - m, 301):
                u = (1.0 - m - t) / 2.0
                if u < -1e-12:
                    continue
                c = m * m + t * t + 2.0 * u * u
                assert max(m, t, u) <= max_prob_bound(4, c) + 1e-12
                if abs(c - 1.0 / 3.0) < band:
                    best = max(best, m)
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
