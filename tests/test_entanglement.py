import numpy as np
import pytest

from mubsic import (
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    correlation_G,
    detect_entanglement,
    kron,
    maximally_entangled,
    maximally_mixed,
    mub_construct,
    povm,
    random_mixed,
    separable_bound,
    sic_from_fiducial,
    stream,
)


def _partial_trace(rho_ab, d, party):
    m = rho_ab.reshape(d, d, d, d)
    return np.trace(m, axis1=1, axis2=3) if party == 0 else np.trace(m, axis1=0, axis2=2)


def _product_state(d, seed):
    rng_a, rng_b = 2 * seed, 2 * seed + 1
    rho_a = random_mixed(d, 1 + seed % d, rng_a)
    rho_b = random_mixed(d, 1 + (seed // d) % d, rng_b)
    return rho_a, rho_b, DensityMatrix(kron(rho_a.mat, rho_b.mat))


def _element(sic, i, j):
    """The product element (1/d^2)|phi_i phi_j*><phi_i phi_j*| on H (x) H, from the SIC kets."""
    w = np.kron(sic.kets[i], sic.kets[j].conj())
    return np.outer(w, w.conj()) / sic.dim**2


def _joint(sic, rho):
    """Reference P(i, j) = <phi_i phi_j*| rho |phi_i phi_j*> / d^2, (d^2, d^2) or (N, d^2, d^2)."""
    d = sic.dim
    w = np.einsum("ik,jl->ijkl", sic.kets, sic.kets.conj()).reshape(d * d, d * d, d * d)
    return np.einsum("ijk,...kl,ijl->...ij", w.conj(), rho.mat, w).real / d**2


def _random_stack(dim, ranks, seed):
    """Ginibre states of dimension ``dim``, one per entry of ``ranks``."""
    normals = stream(seed).standard_normal((len(ranks), 2, dim, dim))
    return random_mixed(dim, np.array(ranks), normals=normals)


def _product_stack(d, n):
    pairs = [_product_state(d, seed) for seed in range(n)]
    return DensityMatrix(np.stack([rho.mat for _, _, rho in pairs]))


class TestProductPovm:
    def test_qubit_elements_sum_to_identity(self):
        # oracle: direct sum over all 16 elements
        sic = sic_from_fiducial(2)
        total = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                total += _element(sic, i, j)
        assert np.max(np.abs(total - np.eye(4))) < 1e-12

    def test_element_trace(self):
        for d in (2, 3):
            sic = sic_from_fiducial(d)
            assert np.trace(_element(sic, 1, 2)).real == pytest.approx(1.0 / d**2, abs=1e-13)

    def test_probabilities_factorize_on_product_states(self):
        from mubsic import probabilities

        sic = sic_from_fiducial(2)
        for seed in range(10):
            rho_a, rho_b, rho_ab = _product_state(2, seed)
            joint = _joint(sic, rho_ab)
            pa = probabilities(sic, rho_a).p
            # party B carries conjugated kets, so its factor is the SIC
            # distribution of the transposed state
            rho_b_t = DensityMatrix(rho_b.mat.T)
            pb = probabilities(sic, rho_b_t).p
            assert np.max(np.abs(joint - np.outer(pa, pb))) < 1e-12

    def test_joint_distribution_normalized(self):
        sic = sic_from_fiducial(3)
        for seed in range(5):
            rho = random_mixed(9, 4, seed)
            joint = _joint(sic, rho)
            assert joint.min() > -1e-14
            assert joint.sum() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            correlation_G(sic_from_fiducial(2), maximally_mixed(9))


class TestMaximallyEntangled:
    def test_qubit_bell_state(self):
        rho = maximally_entangled(2)
        ket = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        assert np.max(np.abs(rho.mat - np.outer(ket, ket))) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_marginals_are_maximally_mixed(self, d):
        rho = maximally_entangled(d)
        for party in (0, 1):
            reduced = _partial_trace(rho.mat, d, party)
            assert np.max(np.abs(reduced - np.eye(d) / d)) < 1e-13

    @pytest.mark.parametrize("d", [2, 3])
    def test_diagonal_sic_overlap(self, d):
        # <phi_j phi_j* | Phi+> = 1/sqrt(d) for every SIC ket
        sic = sic_from_fiducial(d)
        ket = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
        for j in range(d * d):
            w = kron(sic.kets[j], sic.kets[j].conj())
            assert abs(np.vdot(w, ket)) == pytest.approx(1.0 / np.sqrt(d), abs=1e-12)

    def test_rejects_small_dimension(self):
        with pytest.raises(DomainError):
            maximally_entangled(1)


class TestCorrelationMeasure:
    def test_takes_only_a_sic(self):
        # None raised AttributeError, a MUB set numpy's reshape ValueError, and the
        # d = 2 SIC's elements as a povm gave G = 0.0625 for I/4 instead of 0.25
        sic = sic_from_fiducial(2)
        rho = maximally_mixed(4)
        assert correlation_G(sic, rho) == pytest.approx(0.25, abs=1e-15)
        elements = povm(np.einsum("ji,jk->jik", sic.kets, sic.kets.conj()) / 2)
        for meas, kind in ((None, "NoneType"), (mub_construct(2, 3), "mubs"), (elements, "povm")):
            message = f"^correlation_G takes a sic measurement, got {kind}$"
            with pytest.raises(DomainError, match=message):
                correlation_G(meas, rho)

    @pytest.mark.parametrize("d", [2, 3])
    def test_value_on_maximally_entangled(self, d):
        sic = sic_from_fiducial(d)
        assert correlation_G(sic, maximally_entangled(d)) == pytest.approx(
            1.0 / d, abs=1e-12
        )

    @pytest.mark.parametrize("d", [2, 3])
    def test_value_on_white_noise(self, d):
        sic = sic_from_fiducial(d)
        rho = maximally_mixed(d * d)
        assert correlation_G(sic, rho) == pytest.approx(1.0 / d**2, abs=1e-13)

    def test_linearity_in_state(self):
        d = 2
        sic = sic_from_fiducial(d)
        rng = np.random.default_rng(7)
        for _ in range(10):
            _, _, rho1 = _product_state(d, int(rng.integers(100)))
            rho2 = maximally_entangled(d)
            lam = float(rng.uniform())
            mix = DensityMatrix(lam * rho1.mat + (1.0 - lam) * rho2.mat)
            direct = lam * correlation_G(sic, rho1) + (1.0 - lam) * correlation_G(sic, rho2)
            assert correlation_G(sic, mix) == pytest.approx(direct, abs=1e-12)

    def test_range(self):
        sic = sic_from_fiducial(2)
        for seed in range(20):
            _, _, rho = _product_state(2, seed)
            g = correlation_G(sic, rho)
            assert -1e-14 <= g <= 1.0 + 1e-14

    def test_product_states_respect_purity_bound(self):
        d = 2
        sic = sic_from_fiducial(d)
        from mubsic import purity

        for seed in range(1000):
            rho_a, rho_b, rho_ab = _product_state(d, seed)
            g = correlation_G(sic, rho_ab)
            cap = separable_bound(d, purity(rho_a), purity(rho_b))
            assert g <= cap + 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_equals_the_reference_diagonal(self, d):
        sic = sic_from_fiducial(d)
        entangled = _random_stack(d * d, np.arange(1, d * d + 1), 60 + d)
        for stack in (_product_stack(d, 12), entangled):
            want = np.trace(_joint(sic, stack), axis1=-2, axis2=-1)
            assert np.max(np.abs(correlation_G(sic, stack) - want)) < 1e-14


class TestWitnessIdentity:
    """A SIC is a 2-design, so W = (I + d|Phi+><Phi+|)/(d(d+1)) and G = (1 + dF)/(d(d+1))."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_G_is_affine_in_the_phi_plus_fidelity(self, d):
        sic = sic_from_fiducial(d)
        phi = np.eye(d).ravel() / np.sqrt(d)
        ranks = np.repeat(np.arange(1, d * d + 1), 5)  # every rank on H (x) H
        for stack in (_random_stack(d * d, ranks, 40 + d), _product_stack(d, 20)):
            fidelity = np.einsum("k,nkl,l->n", phi, stack.mat, phi).real
            want = (1.0 + d * fidelity) / (d * (d + 1.0))
            assert np.max(np.abs(correlation_G(sic, stack) - want)) < 1e-14


class TestSeparableBound:
    def test_universal_value(self):
        for d in (2, 3, 5):
            assert separable_bound(d, 1.0, 1.0) == pytest.approx(
                2.0 / (d * (d + 1.0)), abs=1e-15
            )

    def test_qubit_universal_bound_is_one_third(self):
        assert separable_bound(2, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_white_noise_marginals(self):
        for d in (2, 3):
            val = separable_bound(d, 1.0 / d, 1.0 / d)
            assert val == pytest.approx(1.0 / d**2, abs=1e-14)

    def test_rejects_bad_purity(self):
        with pytest.raises(DomainError):
            separable_bound(2, 0.2, 1.0)

    def test_purity_arrays_match_single_calls(self):
        assert separable_bound(2, np.array([1.0, 0.5]), 1.0).tolist() == [
            separable_bound(2, 1.0, 1.0),
            separable_bound(2, 0.5, 1.0),
        ]
        for d in (2, 3):
            pa = np.linspace(1.0 / d, 1.0, 7)
            pb = pa[::-1]
            want = [separable_bound(d, float(a), float(b)) for a, b in zip(pa, pb)]
            assert separable_bound(d, pa, pb).tolist() == want


class TestDetection:
    @pytest.mark.parametrize("d", [2, 3])
    def test_fires_on_maximally_entangled(self, d):
        flag, report = detect_entanglement(sic_from_fiducial(d), maximally_entangled(d))
        assert flag
        assert not report.passed  # the separable cap is violated

    @pytest.mark.parametrize("d", [2, 3])
    def test_stack_gives_one_flag_per_state(self, d):
        sic = sic_from_fiducial(d)
        stack = DensityMatrix(np.stack([maximally_entangled(d).mat, maximally_mixed(d * d).mat]))
        flags, reports = detect_entanglement(sic, stack)
        assert flags == [True, False]
        for rho, flag, report in zip(stack.mat, flags, reports):
            assert detect_entanglement(sic, DensityMatrix(rho)) == (flag, report)

    def test_silent_on_product_states(self):
        for d in (2, 3):
            sic = sic_from_fiducial(d)
            for seed in range(100):
                _, _, rho = _product_state(d, seed)
                flag, report = detect_entanglement(sic, rho)
                assert not flag
                assert report.passed

    @pytest.mark.parametrize("d", [2, 3])
    def test_threshold_on_isotropic_line(self, d):
        # G is linear in lambda along lam*Phi+ + (1-lam)*I/d^2, so the
        # detection threshold sits at lam* = 1/(d+1); bisect the flag
        sic = sic_from_fiducial(d)
        phi = maximally_entangled(d).mat
        noise = np.eye(d * d, dtype=complex) / d**2

        def fires(lam):
            rho = DensityMatrix(lam * phi + (1.0 - lam) * noise)
            return detect_entanglement(sic, rho)[0]

        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fires(mid):
                hi = mid
            else:
                lo = mid
        assert hi == pytest.approx(1.0 / (d + 1.0), abs=1e-9)

    def test_linearity_of_G_along_the_line(self):
        d = 2
        sic = sic_from_fiducial(d)
        phi = maximally_entangled(d)
        noise = DensityMatrix(np.eye(4, dtype=complex) / 4)
        g0 = correlation_G(sic, noise)
        g1 = correlation_G(sic, phi)
        for lam in np.linspace(0.0, 1.0, 11):
            rho = DensityMatrix(lam * phi.mat + (1.0 - lam) * noise.mat)
            assert correlation_G(sic, rho) == pytest.approx(
                lam * g1 + (1.0 - lam) * g0, abs=1e-12
            )
