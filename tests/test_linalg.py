import numpy as np
import pytest

from mubsic import DimensionMismatchError, kron, sic_from_fiducial


def _rng(seed=0):
    return np.random.default_rng(seed)


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestHsInner:
    def test_sic_element_pairs(self):
        # distinct elements of a d=2 SIC have HS inner product 1/(d^2 (d+1)) = 1/12
        sic = sic_from_fiducial(2)
        elems = np.einsum("ji,jk->jik", sic.kets, sic.kets.conj()) / sic.scale
        for j in range(4):
            for k in range(4):
                if j != k:
                    val = np.vdot(elems[j], elems[k])
                    assert val == pytest.approx(1.0 / 12.0, abs=1e-12)
                    assert abs(val.imag) < 1e-12


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

    def test_matrices_match_numpy_bitwise(self):
        rng = _rng(5)
        for shape_a, shape_b in (((2, 2), (3, 3)), ((2, 3), (4, 1)), ((1, 5), (3, 2))):
            a, b = _random_complex(rng, shape_a), _random_complex(rng, shape_b)
            assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_rejects_a_matrix_paired_with_a_stack(self):
        with pytest.raises(DimensionMismatchError):
            kron(np.eye(2), np.eye(2)[None])


class TestQnorm:
    @staticmethod
    def _max_element_cap(u):
        # the infinity-norm corollary of the max-element inequality
        n = u.size
        n1 = np.linalg.norm(u, 1)
        n2 = np.linalg.norm(u, 2)
        rad = max(n * n2**2 - n1**2, 0.0)
        return (n1 + np.sqrt(n - 1.0) * np.sqrt(rad)) / n

    def test_infnorm_corollary(self):
        rng = _rng(18)
        for _ in range(50):
            u = _random_complex(rng, 7)
            assert np.linalg.norm(u, np.inf) <= self._max_element_cap(u) + 1e-12

    def test_infnorm_corollary_saturation(self):
        single = np.array([0.0, 0.0, 1.7j, 0.0])
        assert np.linalg.norm(single, np.inf) == pytest.approx(
            self._max_element_cap(single), abs=1e-13
        )
        equal = 0.3 * np.exp(1j * np.linspace(0.0, 5.0, 6))
        assert np.linalg.norm(equal, np.inf) == pytest.approx(
            self._max_element_cap(equal), abs=1e-13
        )
