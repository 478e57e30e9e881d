import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubsic import (
    BoundReport,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    PROPOSITIONS,
    PreconditionError,
    ProbDist,
    alpha_log,
    check_bound,
    from_bloch,
    index_of_coincidence,
    maximally_mixed,
    max_prob_bound,
    mu_f_bar,
    mu_g_factor,
    mub_construct,
    mub_minentropy_bound,
    mub_set,
    mub_renyi_bound,
    mub_symmetrized_bound,
    mub_tsallis_bound,
    orthonormal_basis,
    povm,
    probabilities,
    random_mixed,
    random_pure,
    renyi,
    separable_bound,
    sic_from_fiducial,
    sic_minentropy_bound,
    sic_povm,
    sic_renyi_bound,
    sic_tsallis_bound,
    simple_bounds,
    binary_tsallis,
    check_arguments,
    cli,
    detect_entanglement,
    distort,
    tsallis,
)
from mubsic import bounds
from mubsic.bounds import PROPOSITION_LABELS
from mubsic.states import purity, state_slack
from test_measurements import _FIDUCIALS

# every call passes an efficiency outside [0, 1], and the message shows it as a float
BAD_EFFICIENCIES = {
    "check_arguments-high": (lambda: check_arguments("P1-mub-tsallis", alpha=1.0, eta=1.5), 1.5),
    "check_arguments-nan": (lambda: check_arguments("P6-sic-tsallis", alpha=1, eta=np.nan), "nan"),
    "check_bound": (
        lambda: check_bound(
            sic_from_fiducial(2), maximally_mixed(2), "P6-sic-tsallis", alpha=1, eta=2
        ),
        2.0,
    ),
    "campaign": (
        lambda: cli.CampaignConfig(
            dims=[2], props=["P1-mub-tsallis"], alphas=[1.0], samples=1, seed=0, eta=-0.5
        ),
        -0.5,
    ),
    "distort": (lambda: distort([1.0], 1.5), 1.5),
    "binary_tsallis": (lambda: binary_tsallis(np.inf, 1.0), "inf"),
    "not-a-number": (lambda: binary_tsallis("high", 1.0), "high"),
    "too-large-for-a-float": (lambda: binary_tsallis(10**400, 1.0), 10**400),
}

# every call names an entropy kind that does not exist
UNKNOWN_KINDS = {
    "check_arguments": lambda: check_arguments("P4-mub-sym", alpha=2.0, kind="shannon"),
    "mub_symmetrized_bound": lambda: mub_symmetrized_bound(3, 2.0, "shannon"),
    "simple_bounds": lambda: simple_bounds([0.5, 0.5, 0.0, 0.0], 2, 2.0, "shannon"),
}

# every entry point that looks up a proposition label, each given something that is not one
UNKNOWN_LABELS = {
    "campaign": lambda label: cli.CampaignConfig(
        dims=[2], props=[label], alphas=[2.0], samples=1, seed=0
    ),
    "check_arguments": lambda label: check_arguments(label, alpha=2.0),
    "check_bound": lambda label: check_bound(
        mub_construct(2, 3), maximally_mixed(2), label, alpha=2.0
    ),
}

# every entry point that takes a pass threshold
TOLERANCE_ENTRY_POINTS = {
    "check_tolerance": bounds.check_tolerance,
    "check_bound": lambda t: check_bound(
        sic_from_fiducial(2), maximally_mixed(2), "P5-sic-ic", tolerance=t
    ),
    "simple_bounds": lambda t: simple_bounds(np.ones(4) / 4, 2, 2.0, tolerance=t),
    "campaign": lambda t: cli.CampaignConfig(
        dims=[2], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0, tolerance=t
    ),
}

# every call reaches an empty stack, which used to fail in numpy's .min()
EMPTY_STACKS = {
    "ProbDist": lambda: ProbDist(np.zeros((0, 3))),
    "renyi": lambda: renyi(np.zeros((0, 3)), 2.0),
    "tsallis": lambda: tsallis(np.zeros((0, 3)), 2.0),
    "alpha_log": lambda: alpha_log([], 2.0),
    "max_prob_bound": lambda: max_prob_bound(3, []),
    "mub_tsallis_bound": lambda: mub_tsallis_bound(3, 4, 2.0, []),
    "mub_renyi_bound": lambda: mub_renyi_bound(3, 4, 2.0, []),
    "mub_minentropy_bound": lambda: mub_minentropy_bound(3, 4, []),
    "sic_tsallis_bound": lambda: sic_tsallis_bound(3, 2.0, []),
    "sic_renyi_bound": lambda: sic_renyi_bound(3, 2.0, []),
    "sic_minentropy_bound": lambda: sic_minentropy_bound(3, []),
    "separable_bound": lambda: separable_bound(3, [], 1.0),
}


@pytest.mark.parametrize("call", EMPTY_STACKS.values(), ids=EMPTY_STACKS.keys())
def test_empty_stack_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_empty_purity_is_named_with_its_shape():
    with pytest.raises(DomainError, match=r"^empty purity array, shape \(0,\)$"):
        mub_tsallis_bound(3, 4, 2.0, [])
    with pytest.raises(DomainError, match=r"^empty purity array, shape \(2, 0\)$"):
        sic_renyi_bound(3, 2.0, np.zeros((2, 0)))


def _haar_basis(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return orthonormal_basis(q.T)


def _bases(mubs):
    """Each basis of a MUB set as its own basis record."""
    return [orthonormal_basis(b) for b in mubs.kets.reshape(mubs.shape + (mubs.dim,))]


def _elements(meas):
    """The (K, d, d) elements |k_j><k_j| / scale of a measurement with kets."""
    return np.einsum("ji,jk->jik", meas.kets, meas.kets.conj()) / meas.scale


def _state_with_purity(d, p2):
    """diag(p, 1 - p, 0, ...) with p^2 + (1 - p)^2 = p2, for p2 in [1/2, 1]."""
    p = 0.5 * (1.0 + np.sqrt(2.0 * p2 - 1.0))
    return DensityMatrix(np.diag([p, 1.0 - p] + [0.0] * (d - 2)))


def _inefficiency_rhs(meas, which, alpha, p2, eta):
    """The rhs of a P1/P6 check at efficiency eta on a state of purity p2."""
    return check_bound(meas, _state_with_purity(meas.dim, p2), which, alpha=alpha, eta=eta).rhs


def _rotated_sic(d, seed=0):
    base = sic_from_fiducial(d)
    u = _haar_basis(d, 100 + seed).kets.T
    return base, sic_povm(base.kets @ u.T)


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
        avg = np.mean([tsallis(probabilities(b, rho), 1.0) for b in _bases(mubs)])
        assert avg == pytest.approx(val, abs=1e-12)

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
        assert _inefficiency_rhs(mub_construct(3, 4), "P1-mub-tsallis", 1.5, 0.8, 1.0) == (
            pytest.approx(mub_tsallis_bound(3, 4, 1.5, 0.8), abs=1e-14)
        )

    def test_zero_efficiency_gives_zero(self):
        assert _inefficiency_rhs(mub_construct(3, 4), "P1-mub-tsallis", 1.5, 0.8, 0.0) == (
            pytest.approx(0.0, abs=1e-14)
        )

    def test_shannon_case_adds_binary_entropy(self):
        for eta in (0.3, 0.8):
            val = _inefficiency_rhs(mub_construct(2, 3), "P1-mub-tsallis", 1.0, 1.0, eta)
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
        avg = np.mean([renyi(probabilities(b, rho), 2.0) for b in _bases(mubs)])
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
            avg = np.mean([renyi(probabilities(b, rho), 2.0) for b in _bases(mubs)])
            assert avg == pytest.approx(bound, abs=1e-12)


class TestMubMinentropyBound:
    def test_maximally_mixed_gives_log_d(self):
        for d in (2, 3, 5):
            assert mub_minentropy_bound(d, d + 1, 1.0 / d) == pytest.approx(
                np.log(d), abs=1e-13
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
            rep = check_bound(mub_construct(d, m), maximally_mixed(d), "LWBM-sum", tolerance=1e-12)
            assert rep.saturated and rep.passed

    def test_pure_qubit_saturates_complete_pauli_set(self):
        # the three Bloch components of a pure state have unit square sum
        mubs = mub_construct(2, 3)
        for seed in range(25):
            rep = check_bound(mubs, random_pure(2, seed), "LWBM-sum", tolerance=1e-12)
            assert abs(rep.margin) < 1e-12

    def test_random_qutrit_states_pass(self):
        mubs = mub_construct(3, 4)
        for seed in range(1000):
            rho = random_mixed(3, 1 + seed % 3, seed)
            rep = check_bound(mubs, rho, "LWBM-sum", tolerance=1e-12)
            assert rep.margin <= 1e-12


class TestSymmetrizedBound:
    def test_s_zero_is_half_log_d(self):
        # the Shannon pair alpha = beta = 1
        for kind in ("renyi", "tsallis"):
            assert mub_symmetrized_bound(4, 1.0, kind) == pytest.approx(
                0.5 * np.log(4.0), abs=1e-13
            )

    def test_renyi_kind_is_s_independent(self):
        for alpha in (1.0, 1.0 / 0.7, 10.0):
            assert mub_symmetrized_bound(3, alpha, "renyi") == pytest.approx(
                0.5 * np.log(3.0), abs=1e-15
            )

    def test_tsallis_kind_value(self):
        # d=4, alpha=2: half of ln_2(4) = 0.375
        assert mub_symmetrized_bound(4, 2.0, "tsallis") == pytest.approx(0.375, abs=1e-14)
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
        sic = sic_from_fiducial(3)
        assert _inefficiency_rhs(sic, "P6-sic-tsallis", 0.5, 0.6, 1.0) == pytest.approx(
            sic_tsallis_bound(3, 0.5, 0.6), abs=1e-14
        )
        val = _inefficiency_rhs(sic, "P6-sic-tsallis", 1.0, 0.6, 0.4)
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


SIC_BOUNDS = {
    "tsallis": lambda d: sic_tsallis_bound(d, 1.0, 1.0),
    "renyi": lambda d: sic_renyi_bound(d, 2.0, 1.0),
    "minentropy": lambda d: sic_minentropy_bound(d, 1.0),
    "separable": lambda d: separable_bound(d, 1.0, 1.0),
    "simple": lambda d: simple_bounds([1.0], d, 2.0),
}


@pytest.mark.parametrize("d", (0, 1, -2, 2.5, None, np.nan, [2]))
@pytest.mark.parametrize("bound", SIC_BOUNDS)
def test_sic_bounds_reject_dimension_below_two(bound, d):
    with pytest.raises(DomainError):
        SIC_BOUNDS[bound](d)


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
        basis = _bases(mub_construct(3, 2))[0]
        rho = DensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex))
        assert mu_g_factor(basis, basis, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pauli_pair_on_maximally_mixed(self):
        # exhaustive pair evaluation gives max |<b_i|c_j>|^2 = 1/2 here
        # (the ratio reduces to the squared overlap at I/d)
        b = _bases(mub_construct(2, 3))
        assert mu_g_factor(b[0], b[1], maximally_mixed(2)) == pytest.approx(
            0.5, abs=1e-13
        )

    def test_pure_state_gives_max_supported_overlap(self):
        # for a pure state the ratio collapses to |<m_i|n_j>| on every
        # supported pair, which is 1/sqrt(2) between unbiased qubit bases
        b = _bases(mub_construct(2, 3))
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_transform_excludes_unobservable_outcomes(self, d):
        # at a basis state b_0 of B_0 the other kets of B_0 have probability 0: their
        # rows are exactly zero, and row 0 is |<b_0|n_j>| = 1/sqrt(d) against unbiased B_1
        b = _bases(mub_construct(d, d + 1))
        rho = DensityMatrix(np.outer(b[0].kets[0], b[0].kets[0].conj()))
        t = bounds._overlap_transform(b[0].kets, b[1].kets, rho)
        assert not t[1:].any()
        np.testing.assert_allclose(np.abs(t[0]), 1.0 / np.sqrt(d), rtol=0, atol=1e-15)

    def test_transform_never_exceeds_the_overlaps(self):
        # |t_ij| = |<m_i|n_j>| |<u_n|u_m>| for unit images u, on the campaign's SIC pair
        pair = cli.measurement("pair", 3, None, None)
        kets_m, kets_n = bounds._pair_kets(*pair)
        overlap = np.abs(kets_m.conj() @ kets_n.T)
        for seed in range(300):
            t = bounds._overlap_transform(kets_m, kets_n, random_mixed(3, 1 + seed % 3, seed))
            assert (np.abs(t) <= overlap + 1e-15).all(), seed


def _p9_report(pair, rho, alpha, kind):
    return check_bound(pair, rho, "P9-mu-pair", alpha=alpha, kind=kind)


class TestMuPairBounds:
    def test_shannon_pair_bound(self):
        sic_a, sic_b = _rotated_sic(2)
        rho = random_mixed(2, 2, 3)
        g = mu_g_factor(sic_a, sic_b, rho)
        assert _p9_report((sic_a, sic_b), rho, 1.0, "renyi").rhs == pytest.approx(
            -2.0 * np.log(g), abs=1e-13
        )
        assert _p9_report((sic_a, sic_b), rho, 1.0, "tsallis").rhs == pytest.approx(
            -2.0 * np.log(g), abs=1e-12
        )

    def test_random_pure_states_pass(self):
        sic_a, sic_b = _rotated_sic(2)
        f_bar = mu_f_bar(sic_a, sic_b)
        for seed in range(1000):
            rho = random_pure(2, seed)
            for alpha in (1.0, 2.0):
                assert _p9_report((sic_a, sic_b), rho, alpha, "tsallis").margin >= -1e-12
                assert _p9_report((sic_a, sic_b), rho, alpha, "renyi").margin >= -1e-12
            assert mu_g_factor(sic_a, sic_b, rho) <= f_bar + 1e-12

    def test_f_bar_rhs_is_weaker(self):
        # the state-independent forms put f-bar >= g into the same decreasing maps
        sic_a, sic_b = _rotated_sic(3)
        f_bar = mu_f_bar(sic_a, sic_b)
        for seed in range(20):
            rho = random_mixed(3, 1 + seed % 3, seed)
            rhs_t = _p9_report((sic_a, sic_b), rho, 2.0, "tsallis").rhs
            rhs_r = _p9_report((sic_a, sic_b), rho, 2.0, "renyi").rhs
            assert alpha_log(f_bar**-2, 2.0) <= rhs_t + 1e-12
            assert -2.0 * np.log(f_bar) <= rhs_r + 1e-12

    def test_bounds_are_nonnegative(self):
        sic_a, sic_b = _rotated_sic(2)
        for seed in range(20):
            rho = random_mixed(2, 1 + seed % 2, seed)
            assert _p9_report((sic_a, sic_b), rho, 2.0, "tsallis").rhs >= -1e-12
            assert _p9_report((sic_a, sic_b), rho, 2.0, "renyi").rhs >= -1e-12


def _riesz(meas_m, meas_n, rho):
    return check_bound((meas_m, meas_n), rho, "APXB-riesz", tolerance=1e-12)


class TestRieszPrecondition:
    def test_probability_square_roots_map_exactly(self):
        # u = sqrt(p(N)) maps to v = sqrt(q(M)); both have unit 2-norm
        # for a full-rank state, so the operator norm is 1
        b = _bases(mub_construct(3, 3))
        rho = random_mixed(3, 3, 5)
        rep = _riesz(b[0], b[1], rho)
        assert rep.rhs == 1.0
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.passed

    def test_random_inputs_contract(self):
        for seed in range(100):
            d = 2 + seed % 2
            meas_m = _haar_basis(d, seed)
            meas_n = _haar_basis(d, 500 + seed)
            rho = random_mixed(d, 1 + seed % d, seed)
            rep = _riesz(meas_m, meas_n, rho)
            # contraction slack 1 - ||t||_2 must not go negative
            assert rep.rhs - rep.lhs >= -1e-12
            assert rep.passed


class TestPairDimensions:
    """A pair whose dimensions disagree, with each other or with the state."""

    def _pairs(self):
        b2, b3 = _bases(mub_construct(2, 2))[0], _bases(mub_construct(3, 2))
        return [(b2, b3[0]), (b3[0], b3[1])]  # mixed pair; qutrit pair on a qubit state

    def test_checks_raise_dimension_mismatch(self):
        rho = random_mixed(2, 2, 1)
        for pair in self._pairs():
            with pytest.raises(DimensionMismatchError):
                check_bound(pair, rho, "APXB-riesz")
            with pytest.raises(DimensionMismatchError):
                check_bound(pair, rho, "P9-mu-pair", alpha=2.0)
            with pytest.raises(DimensionMismatchError):
                mu_g_factor(*pair, rho)

    def test_f_bar_raises_dimension_mismatch(self):
        mixed, same = self._pairs()
        with pytest.raises(DimensionMismatchError):
            mu_f_bar(*mixed)
        assert mu_f_bar(*same) == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-14)


@pytest.mark.parametrize(
    "values, message",
    [
        (0.2, "purity 0.2 outside [0.5, 1] for dimension 2"),
        ([0.7, 0.2, 1.5], "purity 0.2 outside [0.5, 1] for dimension 2"),
        ([0.7, np.nan], "purity nan outside [0.5, 1] for dimension 2"),
    ],
    ids=["one", "stack", "nan"],
)
def test_purity_message_shows_a_plain_float(values, message):
    # it used to print the whole array's repr, array([0.7, 0.2, 1.5])
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        sic_tsallis_bound(2, 2.0, values)


# arguments that are not measurements, unhashable ones too: each a DomainError, never a TypeError
NOT_PAIR_MEMBERS = {
    "list": ([[1.0, 0.0], [0.0, 1.0]], "list"),
    "ndarray": (np.eye(2), "ndarray"),
    "dict": ({}, "dict"),
    "mubs": (mub_construct(2, 3), "mubs"),
}


@pytest.mark.parametrize("first", [True, False], ids=("first", "second"))
@pytest.mark.parametrize("bad, kind", NOT_PAIR_MEMBERS.values(), ids=NOT_PAIR_MEMBERS)
def test_pair_functions_reject_a_non_member(bad, kind, first):
    sic = sic_from_fiducial(2)
    pair = (bad, sic) if first else (sic, bad)
    message = f"^unsupported measurement type {kind}$"
    with pytest.raises(DomainError, match=message):
        mu_f_bar(*pair)
    with pytest.raises(DomainError, match=message):
        mu_g_factor(*pair, maximally_mixed(2))


PAIR_LABELS = [("P9-mu-pair", {"alpha": 2.0}), ("APXB-riesz", {})]


@pytest.mark.parametrize("label, kwargs", PAIR_LABELS)
def test_povm_pair_agrees_with_its_sic_pair(label, kwargs):
    # the pair labels read the rank-one kets of a general POVM too
    sics = _rotated_sic(3)
    povms = tuple(povm(_elements(sic)) for sic in sics)
    for seed in range(5):
        rho = random_mixed(3, 1 + seed % 3, seed)
        want, got = (check_bound(pair, rho, label, **kwargs) for pair in (sics, povms))
        assert got.lhs == pytest.approx(want.lhs, abs=1e-12)
        assert got.rhs == pytest.approx(want.rhs, abs=1e-12)


# the kinds of measurement each label takes, written out; "pair" is a tuple of two
# rank-one ones (a basis, a POVM or a SIC).  Every other kind is rejected.
ADMITTED_KINDS = {
    "P1-mub-tsallis": {"mubs"},
    "P2-mub-renyi": {"mubs"},
    "P3-mub-minent": {"mubs"},
    "P4-mub-sym": {"mubs"},
    "P5-sic-ic": {"sic"},
    "P6-sic-tsallis": {"sic"},
    "P7-sic-renyi": {"sic"},
    "P8-sic-minent": {"sic"},
    "P9-mu-pair": "pair",
    "LWBM-sum": {"mubs"},
    "APXA-max": {"basis", "povm", "sic"},
    "APXB-riesz": "pair",
    "ENT-G": {"sic"},
}
KINDS = ("basis", "mubs", "povm", "sic")


def _rejected_cases():
    """(label, what it is given, what the error says it got) for each input the label rejects.

    A kind name stands for one measurement of that kind, a tuple of them
    for a tuple of measurements, and "ndarray" for a bare array.
    """
    cases = []
    for label, admitted in ADMITTED_KINDS.items():
        if admitted == "pair":
            tuples = [("sic",), ("sic", "sic", "sic"), ("mubs", "basis"), ("sic", "mubs")]
            given = [(k, k) for k in KINDS] + [(t, ", ".join(t)) for t in tuples]
        else:
            given = [(k, k) for k in KINDS if k not in admitted] + [(("sic", "sic"), "tuple")]
        cases += [(label, *g) for g in given + [("ndarray", "ndarray")]]
    return cases


def _one_of_each_kind(d=2):
    mubs, sic = mub_construct(d, d + 1), sic_from_fiducial(d)
    kinds = {"basis": _bases(mubs)[0], "mubs": mubs, "povm": povm(_elements(sic)), "sic": sic}
    return {**kinds, "ndarray": np.eye(d)}


def test_every_label_is_pinned():
    assert ADMITTED_KINDS.keys() == PROPOSITIONS.keys()


# each label's stream code, in registry order; a code is never reused, since
# a campaign draws the label's states at dimension d from stream(seed, d, code)
LABEL_CODES = [
    ("P1-mub-tsallis", 1),
    ("P2-mub-renyi", 2),
    ("P3-mub-minent", 3),
    ("P4-mub-sym", 4),
    ("P5-sic-ic", 5),
    ("P6-sic-tsallis", 6),
    ("P7-sic-renyi", 7),
    ("P8-sic-minent", 8),
    ("P9-mu-pair", 9),
    ("LWBM-sum", 10),
    ("APXA-max", 11),
    ("APXB-riesz", 12),
    ("ENT-G", 13),
]


def test_every_label_keeps_its_code():
    assert len({code for _, code in LABEL_CODES}) == len(LABEL_CODES)
    assert [(label, prop.code) for label, prop in PROPOSITIONS.items()] == LABEL_CODES


@pytest.mark.parametrize("label, given, got", _rejected_cases(), ids=repr)
def test_each_label_rejects_the_other_kinds(label, given, got):
    made = _one_of_each_kind()
    meas = tuple(made[g] for g in given) if isinstance(given, tuple) else made[given]
    message = f"{label} expects a {PROPOSITIONS[label].measurement} measurement, got {got}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        check_bound(meas, maximally_mixed(2), label, alpha=2.0)


@pytest.mark.parametrize("first", [True, False], ids=("first", "second"))
@pytest.mark.parametrize("label, kwargs", PAIR_LABELS)
def test_pair_rejects_a_povm_of_higher_rank(label, kwargs, first):
    # the POVM is valid, so it is built; only a pair needs its kets
    rank_two = povm(np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), np.eye(2) / 2]))
    sic = sic_from_fiducial(2)
    pair = (rank_two, sic) if first else (sic, rank_two)
    message = r"^element 2 is not rank-one \(second eigenvalue 5\.000e-01\)$"
    with pytest.raises(PreconditionError, match=message):
        check_bound(pair, maximally_mixed(2), label, **kwargs)
    with pytest.raises(PreconditionError, match=message):
        mu_f_bar(*pair)


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
        # alpha = 2 pairs with its conjugate order 2/3
        mubs = mub_construct(2, 3)
        rho = random_mixed(2, 2, 9)
        rep = check_bound(mubs, rho, "P4-mub-sym", alpha=2.0)
        pairs = [tsallis(probabilities(b, rho), 2.0) + tsallis(probabilities(b, rho), 2.0 / 3.0)
                 for b in _bases(mubs)]
        assert rep.rhs == pytest.approx(0.5 * alpha_log(2.0, 2.0), abs=1e-14)
        assert rep.lhs == pytest.approx(0.5 * np.mean(pairs), abs=1e-13)

    def test_p4_needs_two_bases(self):
        # half of ln_alpha d averages a pair bound; one basis state has entropy 0
        bases = _bases(mub_construct(3, 4))
        ket0 = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        with pytest.raises(DomainError, match="at least two bases"):
            check_bound(mub_set(bases[:1]), ket0, "P4-mub-sym", alpha=1)
        rho = random_mixed(3, 2, 9)
        for alpha in (1.0, 2.0):
            rep = check_bound(mub_set(bases[:2]), rho, "P4-mub-sym", alpha=alpha)
            assert rep.passed and rep.rhs == mub_symmetrized_bound(3, alpha)

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

    def test_p9_label_matches_direct_formula(self):
        sic_a, sic_b = _rotated_sic(2)
        rho = random_mixed(2, 2, 21)
        rep_t = check_bound((sic_a, sic_b), rho, "P9-mu-pair", alpha=2.0, kind="tsallis")
        rep_r = check_bound((sic_a, sic_b), rho, "P9-mu-pair", alpha=2.0, kind="renyi")
        # orders alpha = 2 and its conjugate 2/3
        pa, pb = probabilities(sic_a, rho), probabilities(sic_b, rho)
        g = mu_g_factor(sic_a, sic_b, rho)
        margin_t = tsallis(pa, 2.0) + tsallis(pb, 2.0 / 3.0) - alpha_log(g**-2, 2.0)
        margin_r = renyi(pa, 2.0) + renyi(pb, 2.0 / 3.0) + 2.0 * np.log(g)
        assert rep_t.margin == pytest.approx(margin_t, abs=1e-14)
        assert rep_r.margin == pytest.approx(margin_r, abs=1e-14)

    def test_unknown_label(self):
        with pytest.raises(DomainError):
            check_bound(sic_from_fiducial(2), maximally_mixed(2), "P99-unknown")

    @pytest.mark.parametrize("entry", UNKNOWN_LABELS)
    @pytest.mark.parametrize("label", [["P1-mub-tsallis"], "P99-unknown"], ids=("list", "str"))
    def test_one_label_rule(self, entry, label):
        # an unhashable label used to raise a bare TypeError: unhashable type
        message = f"unknown proposition label {label!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            UNKNOWN_LABELS[entry](label)

    def test_eta_restricted_to_tsallis_props(self):
        with pytest.raises(DomainError):
            check_bound(
                mub_construct(2, 3), maximally_mixed(2), "P2-mub-renyi", alpha=2.0, eta=0.5
            )

    @pytest.mark.parametrize("call, eta", BAD_EFFICIENCIES.values(), ids=BAD_EFFICIENCIES.keys())
    def test_one_efficiency_rule(self, call, eta):
        message = f"efficiency must lie in [0, 1], got {eta}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_efficiency_checked_before_probabilities(self, monkeypatch):
        monkeypatch.setattr(bounds, "probabilities", lambda *a: pytest.fail("evaluated"))
        with pytest.raises(DomainError, match="efficiency"):
            check_bound(mub_construct(2, 3), maximally_mixed(2), "P1-mub-tsallis", alpha=1, eta=2)

    def test_efficiency_is_a_float(self):
        args = check_arguments("P6-sic-tsallis", alpha=1.0, eta=np.float32(0.5))
        assert type(args.eta) is float and args.eta == 0.5

    @pytest.mark.parametrize("call", UNKNOWN_KINDS.values(), ids=UNKNOWN_KINDS.keys())
    def test_one_entropy_kind_rule(self, call):
        message = "unknown entropy kind 'shannon' (expected 'renyi' or 'tsallis')"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_wrong_measurement_type(self):
        with pytest.raises(DomainError):
            check_bound(sic_from_fiducial(2), maximally_mixed(2), "P1-mub-tsallis", alpha=1.0)
        # a pair takes two rank-one measurements, and a MUB set is not one
        mubs = mub_construct(2, 3)
        for label, kwargs in PAIR_LABELS:
            message = f"{label} expects a pair measurement, got mubs, basis"
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check_bound((mubs, _bases(mubs)[0]), maximally_mixed(2), label, **kwargs)

    def test_all_labels_registered(self):
        assert len(PROPOSITION_LABELS) == 13

    def test_kind_restricted_to_symmetrized_props(self):
        mubs, rho = mub_construct(2, 3), maximally_mixed(2)
        for kind in ("renyi", "tsallis"):
            with pytest.raises(DomainError):
                check_bound(mubs, rho, "P1-mub-tsallis", alpha=1, kind=kind)
            for label, prop in PROPOSITIONS.items():
                if prop.order != "symmetrized":
                    with pytest.raises(DomainError):
                        check_arguments(label, alpha=2.0, kind=kind)
        # None is Tsallis for P4 and P9
        assert check_bound(mubs, rho, "P4-mub-sym", alpha=2.0) == (
            check_bound(mubs, rho, "P4-mub-sym", alpha=2.0, kind="tsallis")
        )
        with pytest.raises(DomainError):
            check_bound(mubs, rho, "P4-mub-sym", alpha=2.0, kind="shannon")

    def test_symmetrized_order_out_of_range_rejected(self):
        # alpha is the larger order of the pair, so it lies in [1, inf)
        mubs, pair, rho = mub_construct(2, 3), _rotated_sic(2), random_mixed(2, 2, 5)
        for alpha in (0.0, 0.5, 0.75, np.inf):
            with pytest.raises(DomainError):
                check_bound(mubs, rho, "P4-mub-sym", alpha=alpha)
            with pytest.raises(DomainError):
                check_bound(pair, rho, "P9-mu-pair", alpha=alpha)

    def test_symmetrized_order_at_the_top_of_the_float_range(self):
        # the conjugate order stays 1/2 where 2 alpha overflows
        mubs, rho = mub_construct(2, 3), random_mixed(2, 2, 5)
        assert check_bound(mubs, rho, "P4-mub-sym", alpha=1e308, kind="renyi").passed

    @pytest.mark.parametrize("d", [2, 3])
    def test_tsallis_symmetrized_order_at_the_top_of_the_float_range(self, d):
        # unclamped, (alpha - 1) ln p overflows here for any probability below e^-1.8 ~ 0.17
        mubs = mub_construct(d, d + 1)
        for seed in range(5):
            rho = random_mixed(d, 1 + seed % d, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert check_bound(mubs, rho, "P4-mub-sym", alpha=1e308).passed


@pytest.mark.parametrize("alpha", [1.5, 3.0, 100.0])
def test_symmetrized_orders_are_exact(alpha):
    # P4 and P9 evaluate at alpha and alpha/(2 alpha - 1) themselves, bit for bit
    beta = alpha / (2.0 * alpha - 1.0)
    d = 3
    mubs, pair = mub_construct(d, d + 1), _rotated_sic(d)
    rho = DensityMatrix(np.stack([random_mixed(d, 1 + i % d, seed=i).mat for i in range(20)]))
    p = probabilities(mubs, rho)
    pm, pn = probabilities(pair[0], rho), probabilities(pair[1], rho)
    g = mu_g_factor(*pair, rho)
    p4 = check_bound(mubs, rho, "P4-mub-sym", alpha=alpha)
    p9 = check_bound(pair, rho, "P9-mu-pair", alpha=alpha)
    lhs4 = (0.5 * (tsallis(p, alpha) + tsallis(p, beta))).mean(axis=-1)
    assert [r.lhs for r in p4] == lhs4.tolist()
    assert [r.rhs for r in p4] == [0.5 * alpha_log(d, alpha)] * len(p4)
    assert [r.lhs for r in p9] == (tsallis(pm, alpha) + tsallis(pn, beta)).tolist()
    assert [r.rhs for r in p9] == alpha_log(np.power(g, -2.0), alpha).tolist()


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

    def test_state_dependent_dominates_purity_one(self):
        for p2 in np.linspace(0.4, 1.0, 7):
            assert mub_tsallis_bound(3, 4, 1.5, p2) >= (
                mub_tsallis_bound(3, 4, 1.5, 1.0) - 1e-12
            )
            assert mub_renyi_bound(3, 4, 2.0, p2) >= mub_renyi_bound(3, 4, 2.0, 1.0) - 1e-12
            assert mub_minentropy_bound(3, 4, p2) >= mub_minentropy_bound(3, 4, 1.0) - 1e-12

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

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-12])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance):
        sic = sic_from_fiducial(2)
        with pytest.raises(DomainError):
            check_bound(sic, maximally_mixed(2), "P5-sic-ic", tolerance=tolerance)
        with pytest.raises(DomainError):
            detect_entanglement(sic, maximally_mixed(4), tolerance=tolerance)
        with pytest.raises(DomainError):
            simple_bounds(np.ones(4) / 4, 2, 2.0, tolerance=tolerance)

    @pytest.mark.parametrize(
        "tolerance",
        ["x", None, [1e-10], 10**400, np.nan, -1e-12],
        ids=("x", "None", "list", "10**400", "nan", "negative"),
    )
    @pytest.mark.parametrize("entry", TOLERANCE_ENTRY_POINTS)
    def test_one_tolerance_rule(self, entry, tolerance):
        # a non-number used to raise a bare TypeError from math.isfinite
        message = f"tolerance must be finite and nonnegative, got {tolerance}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            TOLERANCE_ENTRY_POINTS[entry](tolerance)

    @pytest.mark.parametrize("tolerance", ["1e-9", 0, np.float64(1e-9)], ids=repr)
    def test_tolerance_is_stored_as_a_float(self, tolerance):
        assert type(bounds.check_tolerance(tolerance)) is float
        rep = check_bound(sic_from_fiducial(2), maximally_mixed(2), "P5-sic-ic", tolerance=tolerance)
        assert type(rep.tolerance) is float and rep.tolerance == float(tolerance)
        config = cli.CampaignConfig(
            dims=[2], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0, tolerance=tolerance
        )
        assert type(config.tolerance) is float

    def test_report_fields_default_sense_and_immutability(self):
        fields = ("label", "lhs", "rhs", "margin", "tolerance", "saturated", "passed", "sense")
        assert BoundReport._fields == fields
        rep = BoundReport("P5-sic-ic", 0.5, 0.25, 0.25, 1e-10, False, True)
        assert rep.sense == ">="
        assert rep == ("P5-sic-ic", 0.5, 0.25, 0.25, 1e-10, False, True, ">=")
        label, *_, sense = rep
        assert (label, sense) == ("P5-sic-ic", ">=")
        with pytest.raises(AttributeError):
            rep.passed = False
        assert rep.passed


def _ln_q(x, alpha):
    # the deformed logarithm as printed, ln x at alpha = 1
    return np.log(x) if alpha == 1.0 else (x ** (1.0 - alpha) - 1.0) / (1.0 - alpha)


def _renyi_factor(alpha):
    return 0.5 if np.isinf(alpha) else alpha / (2.0 * (alpha - 1.0))


class TestClosedForms:
    """Every purity bound against its closed form; purity 1 is the state-independent case."""

    DIMS = (2, 3, 5, 7)
    TSALLIS_ORDERS = (0.3, 0.5, 1.0, 1.5, 2.0)
    RENYI_ORDERS = (2.0, 3.0, 50.0, np.inf)

    @staticmethod
    def _purities(d):
        return np.linspace(1.0 / d, 1.0, 9)

    @pytest.mark.parametrize("d", DIMS)
    def test_mub_bounds(self, d):
        for m in sorted({1, 2, d, d + 1}):
            for x in self._purities(d):
                ratio = m * d / (d * x + m - 1.0)
                for alpha in self.TSALLIS_ORDERS:
                    got = mub_tsallis_bound(d, m, alpha, x)
                    assert got == pytest.approx(_ln_q(ratio, alpha), abs=1e-13)
                for alpha in self.RENYI_ORDERS:
                    got = mub_renyi_bound(d, m, alpha, x)
                    assert got == pytest.approx(_renyi_factor(alpha) * np.log(ratio), abs=1e-13)
                got = mub_minentropy_bound(d, m, x)
                want = np.log(d) - np.log(1.0 + np.sqrt((d - 1.0) * (d * x - 1.0) / m))
                assert got == pytest.approx(want, abs=1e-13)
            # the state-independent form at purity 1
            want = np.log(np.sqrt(m) * d / (d + np.sqrt(m) - 1.0))
            assert mub_minentropy_bound(d, m, 1.0) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", DIMS)
    def test_sic_bounds(self, d):
        for x in self._purities(d):
            ratio = d * (d + 1.0) / (x + 1.0)
            for alpha in self.TSALLIS_ORDERS:
                got = sic_tsallis_bound(d, alpha, x)
                assert got == pytest.approx(_ln_q(ratio, alpha), abs=1e-13)
            for alpha in self.RENYI_ORDERS:
                got = sic_renyi_bound(d, alpha, x)
                assert got == pytest.approx(_renyi_factor(alpha) * np.log(ratio), abs=1e-13)
            want = 2.0 * np.log(d) - np.log(1.0 + np.sqrt((d - 1.0) * (d * x - 1.0)))
            assert sic_minentropy_bound(d, x) == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("d", DIMS)
    def test_separable_bound(self, d):
        for pa in self._purities(d):
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
            mubs = mub_set(_bases(full)[:m])
            rhs = [r.rhs for r in check_bound(mubs, rho, "LWBM-sum")]
            assert np.max(np.abs(np.subtract(rhs, p2 + (m - 1.0) / d))) <= 1e-13
        rhs = [r.rhs for r in check_bound(sic_from_fiducial(d), rho, "P5-sic-ic")]
        assert np.max(np.abs(np.subtract(rhs, (p2 + 1.0) / (d * (d + 1.0))))) <= 1e-13


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


def _campaign_measurements(d):
    """The MUB set and the SIC a campaign builds at d (the SIC from a test fiducial at d = 5, 7)."""
    ket = None if d not in _FIDUCIALS else tuple(_FIDUCIALS[d] / np.linalg.norm(_FIDUCIALS[d]))
    return {"mubs": mub_construct(d, d + 1), "sic": sic_from_fiducial(d, ket)}


def _floor_state(d, eps, trace_error=0.0, seed=None):
    """diag(1 + t + (d - 1) eps, -eps, ..., -eps), in a seeded random basis unless seed is None."""
    lam = np.array([1.0 + trace_error + (d - 1) * eps] + [-eps] * (d - 1))
    if seed is None:
        return DensityMatrix(np.diag(lam).astype(complex))
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = (q * lam) @ q.conj().T
    return DensityMatrix((m + m.conj().T) / 2)


# orders of each range that the edge states are checked at
STATISTICAL_ORDERS = {
    "tsallis": (0.5, 1.0, 2.0),
    "renyi": (2.0, 3.0, np.inf),
    "symmetrized": (1.0, 2.0),
    None: (None,),
}


class TestAcceptedStatesAreRead:
    """Every state DensityMatrix accepts goes through every statistical label.

    The validator lets eigenvalues down to -1e-10 and traces off 1 by 1e-12
    through; :func:`states.state_slack` bounds what that does to outcome
    probabilities and purities, and their readers allow exactly that.  The
    bounds read the purity as it is, so at alpha = 2 the identities of a
    complete MUB set and of a SIC hold on these states to rounding.
    """

    @pytest.mark.parametrize("d", (2, 3, 5, 7))
    @pytest.mark.parametrize("seed", (None, 1, 2), ids=("diagonal", "basis1", "basis2"))
    def test_edge_states_give_reports_for_every_statistical_label(self, d, seed):
        measurements = _campaign_measurements(d)
        bases = _bases(measurements["mubs"])
        # P1-P3 and LWBM-sum on incomplete sets too, and P4, which needs two bases
        # and is tight at a basis state, on the two-basis one
        subsets = [mub_set(bases[:m]) for m in (1, 2)]
        basis = orthonormal_basis(np.eye(d))
        for trace_error in (0.0, 0.99e-12, -0.99e-12):
            rho = _floor_state(d, 0.99e-10, trace_error, seed)
            for label, entry in PROPOSITIONS.items():
                if not entry.statistical:
                    continue
                meas = measurements["mubs" if entry.measurement == "mubs" else "sic"]
                incomplete = subsets[1:] if entry.order == "symmetrized" else subsets
                for alpha in STATISTICAL_ORDERS[entry.order]:
                    for eta in (None, 0.8) if entry.efficiency else (None,):
                        for each in [meas, *incomplete] if entry.measurement == "mubs" else [meas]:
                            report = check_bound(each, rho, label, alpha=alpha, eta=eta)
                            assert report.passed, (label, each.shape, alpha, eta, report)
            # a basis, and the same basis as a POVM, can give a clamped index above 1
            for meas in (basis, povm(_elements(basis))):
                report = check_bound(meas, rho, "APXA-max")
                assert report.passed and np.isfinite(report.margin)

    @pytest.mark.parametrize("d", (2, 3, 5, 7))
    def test_products_of_edge_states_are_not_flagged(self, d):
        # each party's purity reaches 1 + 2s(1 + s), so G can pass the cap by 3.5e-11
        sic = _campaign_measurements(d)["sic"]
        for seed in (None, 1, 2):
            rho = _floor_state(d, 0.99e-10, 0.0, seed).mat
            flag, report = detect_entanglement(sic, DensityMatrix(np.kron(rho, rho.conj())))
            assert not flag and report.passed, report

    def test_the_reported_cases(self):
        # the purity of this state at d = 7 is 1 + 1.19e-9, past the old 1e-9 slack
        rho = _floor_state(7, 0.99e-10, seed=3)
        assert 1.0 + 1e-9 < purity(rho) <= 1.0 + 2.0 * state_slack(7)
        assert check_bound(mub_construct(7, 8), rho, "P2-mub-renyi", alpha=2).passed
        # a basis outcome of -0.99e-10, past the old 1e-14 clamp
        rho = _floor_state(3, 0.99e-10)
        assert probabilities(mub_construct(3, 4), rho).p.min() == 0.0
        check_bound(mub_construct(3, 4), rho, "LWBM-sum")
        check_bound(sic_from_fiducial(3), rho, "P5-sic-ic")

    @pytest.mark.parametrize("d", (2, 3, 5, 7))
    def test_slack_covers_the_extreme_state(self, d):
        s = state_slack(d)
        lam = np.array([1.0 + 1e-12 + (d - 1) * 1e-10] + [-1e-10] * (d - 1))
        assert lam.min() >= -s and (lam**2).sum() <= 1.0 + 2.0 * s * (1.0 + s)
        # read as it is, above 1 too
        assert bounds._check_purity(d, (lam**2).sum()) == (lam**2).sum() > 1.0
        with pytest.raises(DomainError, match="outside"):
            bounds._check_purity(d, 1.0 + 1e-9 + 2.0 * s * (1.0 + s) + 1e-12)

    def test_given_probabilities_keep_the_strict_rule(self):
        assert ProbDist([1.0, -1e-14]).p.tolist() == [1.0, 0.0]
        with pytest.raises(DomainError, match="negative or undefined probability"):
            ProbDist([1.0 + 1e-13, -1e-13])
        with pytest.raises(DomainError, match="sum to 1 only within"):
            ProbDist([0.5, 0.5 - 2e-12])
        # the slack a state's outcomes get widens both rules by exactly its amount
        assert ProbDist([1.0 + 1e-11, -1e-11], slack=1e-11).p.tolist() == [1.0 + 1e-11, 0.0]
        with pytest.raises(DomainError, match="negative or undefined probability"):
            ProbDist([1.0 + 2e-11, -2e-11], slack=1e-11)

    def test_distorted_state_outcomes_stay_valid(self):
        rho = _floor_state(5, 0.99e-10)
        p = probabilities(mub_construct(5, 6), rho)
        q = distort(p, 0.8)
        assert q.p.shape == (6, 6) and not q.p.flags.writeable
        want = np.concatenate([0.8 * p.p, np.full((6, 1), 1.0 - 0.8)], axis=-1)
        assert q.p.tolist() == want.tolist()


PURITY_GRID = 41


class TestFormulaLimits:
    """The bound formulas at known limits, with no state."""

    DIMS = (2, 3, 5, 7)

    @staticmethod
    def _grid(d):
        return np.linspace(1.0 / d, 1.0, PURITY_GRID)

    @pytest.mark.parametrize("d", DIMS)
    def test_shannon_bound_of_pure_states(self, d):
        # Wu, Yu & Molmer, PRA 79, 022104 (2009): ln(Md / (d + M - 1)), ln((d + 1)/2) at M = d + 1
        for m in range(2, d + 2):
            assert abs(mub_tsallis_bound(d, m, 1, 1) - np.log(m * d / (d + m - 1.0))) <= 1e-14
        assert abs(mub_tsallis_bound(d, d + 1, 1, 1) - np.log((d + 1) / 2.0)) <= 1e-14

    @pytest.mark.parametrize("d", DIMS)
    def test_minentropy_bound_improves_the_renyi_limit(self, d):
        for m in range(2, d + 2):
            grid = self._grid(d)
            assert np.all(mub_minentropy_bound(d, m, grid) >= mub_renyi_bound(d, m, np.inf, grid))

    @pytest.mark.parametrize("d", DIMS)
    def test_every_state_dependent_rhs_is_nonincreasing_in_purity(self, d):
        grid = self._grid(d)
        columns = [sic_minentropy_bound(d, grid)]
        for alpha in (0.5, 1.0, 1.5, 2.0):
            columns.append(sic_tsallis_bound(d, alpha, grid))
        for alpha in (2.0, 3.0, np.inf):
            columns.append(sic_renyi_bound(d, alpha, grid))
        for m in range(2, d + 2):
            columns.append(mub_minentropy_bound(d, m, grid))
            columns += [mub_tsallis_bound(d, m, alpha, grid) for alpha in (0.5, 1.0, 1.5, 2.0)]
            columns += [mub_renyi_bound(d, m, alpha, grid) for alpha in (2.0, 3.0, np.inf)]
        for rhs in columns:
            assert np.all(np.diff(rhs) <= 0.0)

    @pytest.mark.parametrize("d", DIMS)
    def test_collision_bounds_agree_at_order_two(self, d):
        # R_2 = -ln(sum p^2) = -ln(1 - T_2), and both bounds are maps of one cap
        grid = self._grid(d)
        for m in range(2, d + 2):
            tsallis_rhs = mub_tsallis_bound(d, m, 2.0, grid)
            renyi_rhs = mub_renyi_bound(d, m, 2.0, grid)
            assert np.max(np.abs(renyi_rhs + np.log1p(-tsallis_rhs))) <= 1e-14
        tsallis_rhs = sic_tsallis_bound(d, 2.0, grid)
        assert np.max(np.abs(sic_renyi_bound(d, 2.0, grid) + np.log1p(-tsallis_rhs))) <= 1e-14

    @pytest.mark.parametrize("d", DIMS)
    def test_tsallis_bound_is_continuous_at_order_one(self, d):
        grid = self._grid(d)
        for m in range(2, d + 2):
            at_one = mub_tsallis_bound(d, m, 1.0, grid)
            for alpha in (1.0 - 1e-8, 1.0 + 1e-8):
                assert np.max(np.abs(mub_tsallis_bound(d, m, alpha, grid) - at_one)) <= 1e-7
