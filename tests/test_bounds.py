import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubsic import (
    DensityMatrix,
    DomainError,
    PROPOSITIONS,
    MubSet,
    PreconditionError,
    SicPovm,
    alpha_log,
    check_bound,
    coincidence_sum_check,
    from_bloch,
    index_of_coincidence,
    maximally_mixed,
    max_prob_bound,
    mu_f_bar,
    mu_g_factor,
    mu_pair_bounds,
    mub_construct,
    mub_minentropy_bound,
    mub_renyi_bound,
    mub_symmetrized_bound,
    mub_tsallis_bound,
    mub_tsallis_bound_inefficiency,
    probabilities,
    random_mixed,
    random_pure,
    renyi,
    riesz_precondition_check,
    separable_bound,
    sic_from_fiducial,
    sic_minentropy_bound,
    sic_renyi_bound,
    sic_tsallis_bound,
    sic_tsallis_bound_inefficiency,
    simple_bounds,
    binary_tsallis,
    tsallis,
)
from mubsic.bounds import PROPOSITION_LABELS


def _haar_basis(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    from mubsic import OrthonormalBasis

    return OrthonormalBasis(q.T)


def _rotated_sic(d, seed=0):
    base = sic_from_fiducial(d)
    u = _haar_basis(d, 100 + seed).vectors.T
    return base, SicPovm(base.kets @ u.T)


class TestMubTsallisBound:
    def test_complete_set_shannon_limit(self):
        # M = d+1 and purity 1 at order 1 gives ln((d+1)/2)
        for d in (2, 3, 5):
            val = mub_tsallis_bound(d, d + 1, 1.0, 1.0)
            assert val == pytest.approx(np.log((d + 1.0) / 2.0), abs=1e-12)

    def test_single_basis_pure_state(self):
        assert mub_tsallis_bound(3, 1, 0.7, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_saturated_at_maximally_mixed(self):
        # d=3, M=4, purity 1/3, order 1: bound is ln 3 = average entropy at I/3
        val = mub_tsallis_bound(3, 4, 1.0, 1.0 / 3.0)
        assert val == pytest.approx(np.log(3.0), abs=1e-12)
        rho = maximally_mixed(3)
        mubs = mub_construct(3, 4)
        avg = np.mean([tsallis(probabilities(b, rho), 1.0) for b in mubs])
        assert avg == pytest.approx(val, abs=1e-12)

    def test_state_independent_flag(self):
        assert mub_tsallis_bound(3, 4, 1.5, 0.5, state_independent=True) == (
            mub_tsallis_bound(3, 4, 1.5, 1.0)
        )

    def test_rejects_order_above_two(self):
        with pytest.raises(DomainError):
            mub_tsallis_bound(3, 4, 2.5, 1.0)

    def test_rejects_bad_purity(self):
        with pytest.raises(DomainError):
            mub_tsallis_bound(3, 4, 1.0, 0.1)

    def test_rejects_nan_purity(self):
        with pytest.raises(DomainError):
            mub_tsallis_bound(3, 4, 1.0, np.nan)
        with pytest.raises(DomainError):
            mub_renyi_bound(3, 4, 2.0, np.array([0.5, np.nan]))
        with pytest.raises(DomainError):
            mub_tsallis_bound(3, 4, np.nan, 0.5)

    def test_purity_array_matches_each_value(self):
        values = np.array([1.0 / 3.0, 0.5, 0.8, 1.0])
        bounds = mub_tsallis_bound(3, 4, 1.5, values)
        assert bounds.shape == (4,)
        for value, bound in zip(values, bounds):
            assert bound == pytest.approx(mub_tsallis_bound(3, 4, 1.5, value), abs=1e-15)


class TestMubTsallisInefficiency:
    def test_full_efficiency_reduces_to_clean_bound(self):
        assert mub_tsallis_bound_inefficiency(3, 4, 1.5, 0.8, 1.0) == pytest.approx(
            mub_tsallis_bound(3, 4, 1.5, 0.8), abs=1e-14
        )

    def test_zero_efficiency_gives_zero(self):
        assert mub_tsallis_bound_inefficiency(3, 4, 1.5, 0.8, 0.0) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_shannon_case_adds_binary_entropy(self):
        for eta in (0.3, 0.8):
            val = mub_tsallis_bound_inefficiency(2, 3, 1.0, 1.0, eta)
            expected = mub_tsallis_bound(2, 3, 1.0, 1.0) * eta + binary_tsallis(eta, 1.0)
            assert val == pytest.approx(expected, abs=1e-13)


class TestMubRenyiBound:
    def test_order_two_form(self):
        for d, m, p2 in ((2, 3, 1.0), (3, 4, 0.6), (5, 6, 0.3)):
            val = mub_renyi_bound(d, m, 2.0, p2)
            assert val == pytest.approx(np.log(m * d / (p2 * d + m - 1.0)), abs=1e-13)

    def test_infinite_order_is_half_of_order_two(self):
        assert mub_renyi_bound(3, 4, np.inf, 0.5) == pytest.approx(
            0.5 * mub_renyi_bound(3, 4, 2.0, 0.5), abs=1e-14
        )

    def test_saturation_value_matches_direct_evaluation(self):
        # every tetrahedron direction saturates the order-2 bound for the
        # three Pauli bases; direct collision entropies average to ln(3/2)
        rho = from_bloch(np.ones(3) / np.sqrt(3.0))
        mubs = mub_construct(2, 3)
        avg = np.mean([renyi(probabilities(b, rho), 2.0) for b in mubs])
        bound = mub_renyi_bound(2, 3, 2.0, 1.0)
        assert bound == pytest.approx(np.log(1.5), abs=1e-14)
        assert avg == pytest.approx(bound, abs=1e-12)

    def test_rejects_order_below_two(self):
        with pytest.raises(DomainError):
            mub_renyi_bound(2, 3, 1.5, 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_saturated_by_every_orbit_ket(self, d):
        # complete MUB set + order 2: every ket of the covariant orbit
        # meets the bound exactly
        mubs = mub_construct(d, d + 1)
        bound = mub_renyi_bound(d, d + 1, 2.0, 1.0)
        for ket in sic_from_fiducial(d).kets:
            rho = DensityMatrix(np.outer(ket, ket.conj()))
            avg = np.mean([renyi(probabilities(b, rho), 2.0) for b in mubs])
            assert avg == pytest.approx(bound, abs=1e-12)


class TestMubMinentropyBound:
    def test_maximally_mixed_gives_log_d(self):
        for d in (2, 3, 5):
            assert mub_minentropy_bound(d, d + 1, 1.0 / d) == pytest.approx(
                np.log(d), abs=1e-13
            )

    def test_pure_matches_state_independent(self):
        for d, m in ((2, 3), (3, 4), (5, 2)):
            assert mub_minentropy_bound(d, m, 1.0) == pytest.approx(
                mub_minentropy_bound(d, m, 1.0, state_independent=True), abs=1e-13
            )

    def test_plugin_value(self):
        expected = np.log(2.0 * np.sqrt(3.0) / (1.0 + np.sqrt(3.0)))
        assert mub_minentropy_bound(2, 3, 1.0) == pytest.approx(expected, abs=1e-14)

    def test_improves_on_infinite_order_renyi(self):
        for d, m in ((2, 3), (3, 4), (5, 6)):
            for p2 in np.linspace(1.0 / d, 1.0, 7):
                assert mub_minentropy_bound(d, m, p2) >= (
                    mub_renyi_bound(d, m, np.inf, p2) - 1e-12
                )


class TestCoincidenceSum:
    def test_maximally_mixed_saturates(self):
        for d, m in ((2, 3), (3, 4), (5, 6)):
            rep = coincidence_sum_check(mub_construct(d, m), maximally_mixed(d))
            assert rep.saturated and rep.passed

    def test_pure_qubit_saturates_complete_pauli_set(self):
        # the three Bloch components of a pure state have unit square sum
        mubs = mub_construct(2, 3)
        for seed in range(25):
            rep = coincidence_sum_check(mubs, random_pure(2, seed))
            assert abs(rep.margin) < 1e-12

    def test_random_qutrit_states_pass(self):
        mubs = mub_construct(3, 4)
        for seed in range(1000):
            rep = coincidence_sum_check(mubs, random_mixed(3, 1 + seed % 3, seed))
            assert rep.margin <= 1e-12


class TestSymmetrizedBound:
    def test_s_zero_is_half_log_d(self):
        for kind in ("renyi", "tsallis"):
            assert mub_symmetrized_bound(4, 0.0, kind) == pytest.approx(
                0.5 * np.log(4.0), abs=1e-13
            )

    def test_renyi_kind_is_s_independent(self):
        for s in (0.0, 0.3, 0.9):
            assert mub_symmetrized_bound(3, s, "renyi") == pytest.approx(
                0.5 * np.log(3.0), abs=1e-15
            )

    def test_tsallis_kind_value(self):
        # d=4, s=0.5: half of ln_2(4) = 0.375
        assert mub_symmetrized_bound(4, 0.5, "tsallis") == pytest.approx(0.375, abs=1e-14)
        assert alpha_log(4.0, 2.0) == pytest.approx(0.75, abs=1e-15)


class TestSicBounds:
    def test_tsallis_shannon_pure(self):
        for d in (2, 3):
            assert sic_tsallis_bound(d, 1.0, 1.0) == pytest.approx(
                np.log(d * (d + 1.0) / 2.0), abs=1e-13
            )

    def test_tsallis_saturated_at_maximally_mixed(self):
        for d in (2, 3):
            val = sic_tsallis_bound(d, 1.3, 1.0 / d)
            assert val == pytest.approx(alpha_log(d * d, 1.3), abs=1e-12)
            p = probabilities(sic_from_fiducial(d), maximally_mixed(d))
            assert tsallis(p, 1.3) == pytest.approx(val, abs=1e-12)

    def test_stronger_than_simple_log_d(self):
        assert sic_tsallis_bound(2, 1.0, 1.0) == pytest.approx(np.log(3.0), abs=1e-14)
        assert sic_tsallis_bound(2, 1.0, 1.0) > np.log(2.0)

    def test_tsallis_rejects_order_above_two(self):
        with pytest.raises(DomainError):
            sic_tsallis_bound(2, 2.1, 1.0)

    def test_inefficiency_reduces_to_clean_bound(self):
        assert sic_tsallis_bound_inefficiency(3, 0.5, 0.6, 1.0) == pytest.approx(
            sic_tsallis_bound(3, 0.5, 0.6), abs=1e-14
        )
        val = sic_tsallis_bound_inefficiency(3, 1.0, 0.6, 0.4)
        expected = 0.4 * sic_tsallis_bound(3, 1.0, 0.6) + binary_tsallis(0.4, 1.0)
        assert val == pytest.approx(expected, abs=1e-13)

    def test_renyi_collision_form(self):
        for d, p2 in ((2, 1.0), (3, 0.5)):
            assert sic_renyi_bound(d, 2.0, p2) == pytest.approx(
                np.log(d * (d + 1.0) / (p2 + 1.0)), abs=1e-13
            )

    def test_renyi_saturated_at_maximally_mixed(self):
        assert sic_renyi_bound(3, 2.0, 1.0 / 3.0) == pytest.approx(
            np.log(9.0), abs=1e-13
        )

    def test_renyi_infinite_order_weaker_than_log_d(self):
        for d in (2, 3, 5):
            val = sic_renyi_bound(d, np.inf, 1.0)
            assert val == pytest.approx(0.5 * np.log(d * (d + 1.0) / 2.0), abs=1e-13)
            assert val < np.log(d)

    def test_renyi_rejects_order_below_two(self):
        with pytest.raises(DomainError):
            sic_renyi_bound(2, 1.9, 1.0)

    def test_minentropy_pure_is_log_d(self):
        for d in (2, 3):
            assert sic_minentropy_bound(d, 1.0) == pytest.approx(np.log(d), abs=1e-13)

    def test_minentropy_maximally_mixed(self):
        for d in (2, 3):
            assert sic_minentropy_bound(d, 1.0 / d) == pytest.approx(
                2.0 * np.log(d), abs=1e-13
            )

    def test_minentropy_plugin_value(self):
        expected = 2.0 * np.log(2.0) - np.log(1.6)
        assert sic_minentropy_bound(2, 0.68) == pytest.approx(expected, abs=1e-14)

    def test_minentropy_saturated_at_fiducial_kets(self):
        for d in (2, 3):
            sic = sic_from_fiducial(d)
            for ket in sic.kets:
                rho = DensityMatrix(np.outer(ket, ket.conj()))
                lhs = renyi(probabilities(sic, rho), np.inf)
                assert lhs == pytest.approx(sic_minentropy_bound(d, 1.0), abs=1e-12)


class TestSimpleBounds:
    def test_uniform_statistics(self):
        for d in (2, 3):
            p = np.ones(d * d) / (d * d)
            rep_t = simple_bounds(p, d, 0.5, "tsallis")
            assert rep_t.rhs == pytest.approx(alpha_log(d * d, 0.5), abs=1e-13)
            rep_r = simple_bounds(p, d, 3.0, "renyi")
            assert rep_r.rhs == pytest.approx(2.0 * np.log(d), abs=1e-13)
            assert rep_t.passed and rep_r.passed

    def test_fiducial_statistics_hit_floor(self):
        d = 2
        p = np.array([0.5, 1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])
        rep = simple_bounds(p, d, 0.7, "tsallis")
        assert rep.rhs == pytest.approx(alpha_log(d, 0.7), abs=1e-13)
        assert rep.passed

    def test_rejects_non_sic_statistics(self):
        with pytest.raises(PreconditionError):
            simple_bounds([0.9, 0.1, 0.0, 0.0], 2, 1.0)

    def test_monte_carlo(self):
        for d in (2, 3):
            sic = sic_from_fiducial(d)
            for seed in range(200):
                p = probabilities(sic, random_mixed(d, 1 + seed % d, seed))
                for alpha in (0.5, 3.0):
                    for kind in ("tsallis", "renyi"):
                        assert simple_bounds(p, d, alpha, kind).passed


class TestGFactor:
    def test_shared_eigenbasis_gives_one(self):
        basis = mub_construct(3, 2).bases[0]
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        assert mu_g_factor(basis, basis, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_pair_on_maximally_mixed(self):
        # exhaustive pair evaluation gives max |<b_i|c_j>|^2 = 1/2 here
        # (the ratio reduces to the squared overlap at I/d)
        b = mub_construct(2, 3).bases
        assert mu_g_factor(b[0], b[1], maximally_mixed(2)) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_pure_state_gives_max_supported_overlap(self):
        # for a pure state the ratio collapses to |<m_i|n_j>| on every
        # supported pair, which is 1/sqrt(2) between unbiased qubit bases
        b = mub_construct(2, 3).bases
        s = np.array([0.3, -0.2, 0.8])
        rho = from_bloch(s / np.linalg.norm(s))
        assert mu_g_factor(b[0], b[1], rho) == pytest.approx(
            1.0 / np.sqrt(2.0), abs=1e-12
        )

    def test_never_exceeds_f_bar_or_one(self):
        for seed in range(50):
            d = 2 + seed % 2
            meas_m = _haar_basis(d, seed)
            meas_n = _haar_basis(d, 1000 + seed)
            rho = random_mixed(d, 1 + seed % d, seed)
            g = mu_g_factor(meas_m, meas_n, rho)
            assert g <= mu_f_bar(meas_m, meas_n) + 1e-12
            assert g <= 1.0 + 1e-12

    def test_sic_pair_carries_inverse_d(self):
        sic_a, sic_b = _rotated_sic(2)
        fbar = mu_f_bar(sic_a, sic_b)
        direct = np.max(np.abs(sic_a.kets.conj() @ sic_b.kets.T)) / 2.0
        assert fbar == pytest.approx(direct, abs=1e-13)


class TestMuPairBounds:
    def test_shannon_pair_bound(self):
        sic_a, sic_b = _rotated_sic(2)
        rho = random_mixed(2, 2, 3)
        reports = mu_pair_bounds(sic_a, sic_b, rho, s=0.0)
        g = reports.g
        assert reports.renyi.rhs == pytest.approx(-2.0 * np.log(g), abs=1e-13)
        assert reports.tsallis.rhs == pytest.approx(-2.0 * np.log(g), abs=1e-12)

    def test_random_pure_states_pass(self):
        sic_a, sic_b = _rotated_sic(2)
        for seed in range(1000):
            rho = random_pure(2, seed)
            for s in (0.0, 0.5):
                reports = mu_pair_bounds(sic_a, sic_b, rho, s=s)
                assert reports.tsallis.margin >= -1e-12
                assert reports.renyi.margin >= -1e-12
                assert reports.g <= reports.f_bar + 1e-12

    def test_state_independent_rhs_is_weaker(self):
        sic_a, sic_b = _rotated_sic(3)
        for seed in range(20):
            rho = random_mixed(3, 1 + seed % 3, seed)
            reports = mu_pair_bounds(sic_a, sic_b, rho, s=0.5)
            assert reports.tsallis_state_independent.rhs <= reports.tsallis.rhs + 1e-12
            assert reports.renyi_state_independent.rhs <= reports.renyi.rhs + 1e-12

    def test_rejects_inconsistent_orders(self):
        sic_a, sic_b = _rotated_sic(2)
        with pytest.raises(DomainError):
            mu_pair_bounds(sic_a, sic_b, maximally_mixed(2), alpha=2.0, beta=2.0)

    def test_bounds_are_nonnegative(self):
        sic_a, sic_b = _rotated_sic(2)
        for seed in range(20):
            rho = random_mixed(2, 1 + seed % 2, seed)
            reports = mu_pair_bounds(sic_a, sic_b, rho, s=0.5)
            assert reports.tsallis.rhs >= -1e-12
            assert reports.renyi.rhs >= -1e-12


class TestRieszPrecondition:
    def test_probability_square_roots_map_exactly(self):
        # u = sqrt(p(N)) maps to v = sqrt(q(M)); both have unit 2-norm
        # for a full-rank state
        b = mub_construct(3, 3).bases
        rho = random_mixed(3, 3, 5)
        u = np.sqrt(probabilities(b[1], rho).p)
        rep = riesz_precondition_check(b[0], b[1], rho, u=u)
        assert rep.rhs == pytest.approx(1.0, abs=1e-12)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_zero_input_passes(self):
        b = mub_construct(2, 2).bases
        rep = riesz_precondition_check(b[0], b[1], maximally_mixed(2), u=np.zeros(2))
        assert rep.passed and rep.margin == 0.0

    def test_random_inputs_contract(self):
        for seed in range(100):
            d = 2 + seed % 2
            meas_m = _haar_basis(d, seed)
            meas_n = _haar_basis(d, 500 + seed)
            rho = random_mixed(d, 1 + seed % d, seed)
            rep = riesz_precondition_check(meas_m, meas_n, rho, trials=10, seed=seed)
            # contraction slack rhs - lhs must not go negative
            assert rep.rhs - rep.lhs >= -1e-12
            assert rep.passed

    def test_requires_some_input(self):
        b = mub_construct(2, 2).bases
        with pytest.raises(DomainError):
            riesz_precondition_check(b[0], b[1], maximally_mixed(2), trials=0)


class TestCheckBound:
    def test_p8_saturated_at_maximally_mixed(self):
        rep = check_bound(sic_from_fiducial(2), maximally_mixed(2), "P8-sic-minent")
        assert rep.saturated

    def test_p2_saturated_at_tetrahedron_direction(self):
        rho = from_bloch(np.ones(3) / np.sqrt(3.0))
        rep = check_bound(mub_construct(2, 3), rho, "P2-mub-renyi", alpha=2.0)
        assert rep.saturated

    def test_p1_random_states_pass(self):
        mubs = mub_construct(3, 4)
        for seed in range(100):
            rho = random_mixed(3, 1 + seed % 3, seed)
            rep = check_bound(mubs, rho, "P1-mub-tsallis", alpha=1.5)
            assert rep.passed

    def test_p5_exact_identity(self):
        sic = sic_from_fiducial(3)
        for seed in range(50):
            rho = random_mixed(3, 1 + seed % 3, seed)
            rep = check_bound(sic, rho, "P5-sic-ic")
            assert rep.saturated and rep.passed

    def test_p4_includes_alpha_mapping(self):
        mubs = mub_construct(2, 3)
        rho = random_mixed(2, 2, 9)
        via_s = check_bound(mubs, rho, "P4-mub-sym", s=0.5)
        via_alpha = check_bound(mubs, rho, "P4-mub-sym", alpha=2.0)
        assert via_s.rhs == pytest.approx(via_alpha.rhs, abs=1e-14)
        assert via_s.lhs == pytest.approx(via_alpha.lhs, abs=1e-13)

    def test_apxa_label_uses_coincidence_cap(self):
        sic = sic_from_fiducial(2)
        rho = random_mixed(2, 2, 17)
        rep = check_bound(sic, rho, "APXA-max")
        p = probabilities(sic, rho)
        assert rep.lhs == pytest.approx(float(np.max(p.p)), abs=1e-15)
        assert rep.rhs == pytest.approx(
            max_prob_bound(4, index_of_coincidence(p)), abs=1e-14
        )
        assert rep.passed and rep.sense == "<="

    def test_ent_g_label_on_entangled_and_product_states(self):
        from mubsic import kron, maximally_entangled

        sic = sic_from_fiducial(2)
        rep = check_bound(sic, maximally_entangled(2), "ENT-G")
        assert not rep.passed  # the separable cap is exceeded
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        rho_a, rho_b = random_mixed(2, 1, 1), random_mixed(2, 2, 2)
        product = DensityMatrix(kron(rho_a.mat, rho_b.mat))
        assert check_bound(sic, product, "ENT-G").passed

    def test_p9_label_matches_pair_reports(self):
        sic_a, sic_b = _rotated_sic(2)
        rho = random_mixed(2, 2, 21)
        rep_t = check_bound((sic_a, sic_b), rho, "P9-mu-pair", s=0.5, kind="tsallis")
        rep_r = check_bound((sic_a, sic_b), rho, "P9-mu-pair", s=0.5, kind="renyi")
        direct = mu_pair_bounds(sic_a, sic_b, rho, s=0.5)
        assert rep_t.margin == pytest.approx(direct.tsallis.margin, abs=1e-14)
        assert rep_r.margin == pytest.approx(direct.renyi.margin, abs=1e-14)

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            check_bound(sic_from_fiducial(2), maximally_mixed(2), "P99-unknown")

    def test_eta_restricted_to_tsallis_props(self):
        with pytest.raises(DomainError):
            check_bound(
                mub_construct(2, 3), maximally_mixed(2), "P2-mub-renyi", alpha=2.0, eta=0.5
            )

    def test_wrong_measurement_type(self):
        with pytest.raises(DomainError):
            check_bound(sic_from_fiducial(2), maximally_mixed(2), "P1-mub-tsallis", alpha=1.0)

    def test_all_labels_registered(self):
        assert len(PROPOSITION_LABELS) == 13


class TestBoundShapeProperties:
    def test_bounds_nonincreasing_in_purity(self):
        grid = np.linspace(1.0 / 3.0, 1.0, 9)
        for lo, hi in zip(grid[:-1], grid[1:]):
            assert mub_tsallis_bound(3, 4, 1.5, lo) >= mub_tsallis_bound(3, 4, 1.5, hi) - 1e-12
            assert mub_renyi_bound(3, 4, 3.0, lo) >= mub_renyi_bound(3, 4, 3.0, hi) - 1e-12
            assert mub_minentropy_bound(3, 4, lo) >= mub_minentropy_bound(3, 4, hi) - 1e-12
            assert sic_tsallis_bound(3, 1.5, lo) >= sic_tsallis_bound(3, 1.5, hi) - 1e-12
            assert sic_renyi_bound(3, 3.0, lo) >= sic_renyi_bound(3, 3.0, hi) - 1e-12
            assert sic_minentropy_bound(3, lo) >= sic_minentropy_bound(3, hi) - 1e-12

    def test_state_dependent_dominates_state_independent(self):
        for p2 in np.linspace(0.4, 1.0, 7):
            assert mub_tsallis_bound(3, 4, 1.5, p2) >= (
                mub_tsallis_bound(3, 4, 1.5, p2, state_independent=True) - 1e-12
            )
            assert mub_renyi_bound(3, 4, 2.0, p2) >= (
                mub_renyi_bound(3, 4, 2.0, p2, state_independent=True) - 1e-12
            )
            assert mub_minentropy_bound(3, 4, p2) >= (
                mub_minentropy_bound(3, 4, p2, state_independent=True) - 1e-12
            )

    def test_max_prob_transform_concave_increasing(self):
        # x -> (1 + sqrt(d-1) sqrt(xd - 1))/d on [1/d, 1]
        for d in (2, 3, 5):
            xs = np.linspace(1.0 / d, 1.0, 41)
            vals = np.array([max_prob_bound(d, x) for x in xs])
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-14)
            assert np.all(np.diff(diffs) <= 1e-12)


class TestReportInvariants:
    def test_saturated_implies_small_margin(self):
        rep = check_bound(sic_from_fiducial(2), maximally_mixed(2), "P8-sic-minent")
        assert rep.saturated and abs(rep.margin) <= rep.tolerance

    def test_margin_is_lhs_minus_rhs(self):
        rep = check_bound(
            mub_construct(2, 3), random_mixed(2, 2, 4), "P1-mub-tsallis", alpha=1.0
        )
        assert rep.margin == rep.lhs - rep.rhs


def _ln_q(x, alpha):
    # the deformed logarithm as printed, ln x at alpha = 1
    return np.log(x) if alpha == 1.0 else (x ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def _renyi_factor(alpha):
    return 0.5 if np.isinf(alpha) else alpha / (2.0 * (alpha - 1.0))


class TestClosedForms:
    """Every purity bound against its closed form, over the state-independent case too."""

    DIMS = (2, 3, 5, 7)
    TSALLIS_ORDERS = (0.3, 0.5, 1.0, 1.5, 2.0)
    RENYI_ORDERS = (2.0, 3.0, 50.0, np.inf)

    @staticmethod
    def _purities(d):
        return [*np.linspace(1.0 / d, 1.0, 9), None]  # None: state_independent=True

    @pytest.mark.parametrize("d", DIMS)
    def test_mub_bounds(self, d):
        for m in sorted({1, 2, d, d + 1}):
            for p2 in self._purities(d):
                si = p2 is None
                x = 1.0 if si else p2
                ratio = m * d / (d * x + m - 1.0)
                for alpha in self.TSALLIS_ORDERS:
                    got = mub_tsallis_bound(d, m, alpha, x, state_independent=si)
                    assert got == pytest.approx(_ln_q(ratio, alpha), abs=1e-13)
                for alpha in self.RENYI_ORDERS:
                    got = mub_renyi_bound(d, m, alpha, x, state_independent=si)
                    assert got == pytest.approx(_renyi_factor(alpha) * np.log(ratio), abs=1e-13)
                got = mub_minentropy_bound(d, m, x, state_independent=si)
                if si:
                    want = np.log(np.sqrt(m) * d / (d + np.sqrt(m) - 1.0))
                else:
                    want = np.log(d) - np.log(1.0 + np.sqrt((d - 1.0) * (d * x - 1.0) / m))
                assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", DIMS)
    def test_sic_bounds(self, d):
        for p2 in self._purities(d):
            si = p2 is None
            x = 1.0 if si else p2
            ratio = d * (d + 1.0) / (x + 1.0)
            for alpha in self.TSALLIS_ORDERS:
                got = sic_tsallis_bound(d, alpha, x, state_independent=si)
                assert got == pytest.approx(_ln_q(ratio, alpha), abs=1e-13)
            for alpha in self.RENYI_ORDERS:
                got = sic_renyi_bound(d, alpha, x, state_independent=si)
                assert got == pytest.approx(_renyi_factor(alpha) * np.log(ratio), abs=1e-13)
            want = 2.0 * np.log(d) - np.log(1.0 + np.sqrt((d - 1.0) * (d * x - 1.0)))
            assert sic_minentropy_bound(d, x) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", DIMS)
    def test_separable_bound(self, d):
        for pa in self._purities(d)[:-1]:
            for pb in (1.0 / d, 0.5 * (1.0 + 1.0 / d), 1.0):
                want = np.sqrt(pa + 1.0) * np.sqrt(pb + 1.0) / (d * (d + 1.0))
                assert separable_bound(d, pa, pb) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", (2, 3))
    def test_coincidence_right_hand_sides(self, d):
        # LWBM-sum: tr(rho^2) + (M - 1)/d, for M = 1 too; P5: (tr(rho^2) + 1)/(d(d+1))
        rho = DensityMatrix(np.stack([random_mixed(d, 1 + i % d, seed=i).mat for i in range(8)]))
        p2 = np.array([np.real(np.trace(r @ r)) for r in rho.mat])
        full = mub_construct(d, d + 1)
        for m in range(1, d + 2):
            mubs = MubSet(full.bases[:m])
            rhs = [r.rhs for r in check_bound(mubs, rho, "LWBM-sum")]
            np.testing.assert_allclose(rhs, p2 + (m - 1.0) / d, rtol=0, atol=1e-13)
        rhs = [r.rhs for r in check_bound(sic_from_fiducial(d), rho, "P5-sic-ic")]
        np.testing.assert_allclose(rhs, (p2 + 1.0) / (d * (d + 1.0)), rtol=0, atol=1e-13)


# labels whose bound is attained at I/d, checked at d = 2, 3; "tsallis" stands
# for every order in (0, 2]
SATURATED_AT_MAXIMALLY_MIXED = [
    ("P1-mub-tsallis", "tsallis"),
    ("P6-sic-tsallis", "tsallis"),
    ("P2-mub-renyi", 2.0),
    ("P7-sic-renyi", 2.0),
    ("P3-mub-minent", None),
    ("P5-sic-ic", None),
    ("P8-sic-minent", None),
    ("LWBM-sum", None),
    ("APXA-max", None),
]


@pytest.mark.parametrize("d", (2, 3))
@pytest.mark.parametrize("label, order", SATURATED_AT_MAXIMALLY_MIXED)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_saturated_at_maximally_mixed(d, label, order, data):
    alpha = order
    if order == "tsallis":
        near_one = st.sampled_from([1 - 1.01e-6, 1.0, 1 + 1.01e-6, 2.0])
        alpha = data.draw(near_one | st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
    mubs = PROPOSITIONS[label].measurement == "mubs"
    meas = mub_construct(d, d + 1) if mubs else sic_from_fiducial(d)
    report = check_bound(meas, maximally_mixed(d), label, alpha=alpha)
    assert report.saturated and report.passed
