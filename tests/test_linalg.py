import numpy as np
import pytest

from mubsic import (
    DomainError,
    DimensionMismatchError,
    conj_vector,
    hs_inner,
    kron,
    sic_from_fiducial,
    vec_qnorm,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHsInner:
    def test_identity(self):
        assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            hs_inner(np.eye(2), np.eye(3))

    def test_sic_element_pairs(self):
        # distinct elements of a d=2 SIC have inner product 1/(d^2 (d+1)) = 1/12
        sic = sic_from_fiducial(2)
        elems = sic.elements()
        for j in range(4):
            for k in range(4):
                if j != k:
                    val = hs_inner(elems[j], elems[k])
                    assert val == pytest.approx(1.0 / 12.0, abs=1e-12)
                    assert abs(val.imag) < 1e-12

    def test_self_inner_matches_elementwise_sum(self):
        # oracle: brute-force double loop over |x_ij|^2
        rng = _rng(11)
        for _ in range(20):
            x = _random_complex(rng, (4, 4))
            direct = 0.0
            for i in range(4):
                for j in range(4):
                    direct += abs(x[i, j]) ** 2
            assert hs_inner(x, x) == pytest.approx(direct, abs=1e-14 * direct)

    def test_self_inner_real_nonnegative(self):
        rng = _rng(12)
        for _ in range(20):
            x = _random_complex(rng, (3, 3))
            val = hs_inner(x, x)
            assert abs(val.imag) < 1e-13
            assert val.real >= 0.0

    def test_sesquilinearity(self):
        rng = _rng(13)
        x1, x2, y = (_random_complex(rng, (3, 3)) for _ in range(3))
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        left = hs_inner(a * x1 + b * x2, y)
        right = np.conj(a) * hs_inner(x1, y) + np.conj(b) * hs_inner(x2, y)
        assert left == pytest.approx(right, abs=1e-13)
        left = hs_inner(y, a * x1 + b * x2)
        right = a * hs_inner(y, x1) + b * hs_inner(y, x2)
        assert left == pytest.approx(right, abs=1e-13)


class TestKron:
    def test_identities(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_vector_convention(self):
        a = np.array([1.0, 2.0j])
        b = np.array([3.0, -1.0])
        out = kron(a, b)
        for i in range(2):
            for j in range(2):
                assert out[i * 2 + j] == a[i] * b[j]

    def test_mixed_product_property(self):
        rng = _rng(14)
        for _ in range(10):
            a, b, c, d = (_random_complex(rng, (2, 2)) for _ in range(4))
            left = kron(a, b) @ kron(c, d)
            right = kron(a @ c, b @ d)
            assert np.max(np.abs(left - right)) < 1e-13


    def test_stacks_pair_elementwise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        b = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        out = kron(a, b)
        assert out.shape == (4, 6, 6)
        for i in range(4):
            assert np.array_equal(out[i], np.kron(a[i], b[i]))


class TestConjVector:
    def test_real_fixed_point(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.array_equal(conj_vector(v), v)

    def test_inner_product_conjugation(self):
        rng = _rng(15)
        for _ in range(20):
            phi = _random_complex(rng, 5)
            psi = _random_complex(rng, 5)
            left = np.vdot(conj_vector(phi), conj_vector(psi))
            right = np.conj(np.vdot(phi, psi))
            assert left == pytest.approx(right, abs=1e-14 * abs(right))

    def test_involution(self):
        rng = _rng(16)
        v = _random_complex(rng, 6)
        assert np.array_equal(conj_vector(conj_vector(v)), v)


class TestQnorm:
    def test_euclidean(self):
        assert vec_qnorm([3.0, 4.0], 2) == pytest.approx(5.0)

    def test_infinity(self):
        assert vec_qnorm([1.0, -2.0, 0.5], np.inf) == pytest.approx(2.0)

    def test_rejects_q_below_one(self):
        with pytest.raises(DomainError):
            vec_qnorm([1.0, 1.0], 0.5)

    def test_nonincreasing_in_q(self):
        rng = _rng(17)
        qs = [1.0, 1.5, 2.0, 3.0, 7.0, 25.0, np.inf]
        for _ in range(10):
            u = _random_complex(rng, 6)
            norms = [vec_qnorm(u, q) for q in qs]
            for lo, hi in zip(norms[1:], norms[:-1]):
                assert lo <= hi + 1e-12

    @staticmethod
    def _max_element_cap(u):
        # the infinity-norm corollary of the max-element inequality
        n = u.size
        n1 = vec_qnorm(u, 1)
        n2 = vec_qnorm(u, 2)
        rad = max(n * n2**2 - n1**2, 0.0)
        return (n1 + np.sqrt(n - 1.0) * np.sqrt(rad)) / n

    def test_infnorm_corollary(self):
        rng = _rng(18)
        for _ in range(50):
            u = _random_complex(rng, 7)
            assert vec_qnorm(u, np.inf) <= self._max_element_cap(u) + 1e-12

    def test_infnorm_corollary_saturation(self):
        single = np.array([0.0, 0.0, 1.7j, 0.0])
        assert vec_qnorm(single, np.inf) == pytest.approx(
            self._max_element_cap(single), abs=1e-13
        )
        equal = 0.3 * np.exp(1j * np.linspace(0.0, 5.0, 6))
        assert vec_qnorm(equal, np.inf) == pytest.approx(
            self._max_element_cap(equal), abs=1e-13
        )
