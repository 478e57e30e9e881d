import json

import numpy as np
import pytest

from mubsic import (
    ConstructionError,
    DensityMatrix,
    DomainError,
    Povm,
    bloch_vector,
    from_bloch,
    from_json,
    maximally_mixed,
    purity,
    random_mixed,
    random_pure,
    stream,
    mub_construct,
    sic_from_fiducial,
    to_json,
)
from mubsic.states import EIGENVALUE_FLOOR


class TestValidation:
    def test_rejects_nan_entry(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[np.nan, 0.0], [0.0, 0.5]]))
        with pytest.raises(DomainError):
            DensityMatrix(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.zeros((0, 0)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(DomainError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.ones((2, 3)))

    def test_matrix_is_frozen(self):
        rho = maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 7.0


# smallest eigenvalues on both sides of the Cholesky shift (-5e-11) and of the floor (-1e-10)
EDGE_EIGENVALUES = (0.0, -1e-16, -4.9e-11, -5.1e-11, -1e-10 * (1 - 1e-6), -1e-10 * (1 + 1e-6), -1e-9)


def _hermitian(eigenvalues, seed):
    """U diag(eigenvalues) U^dag for a seeded random unitary U, exactly Hermitian."""
    d = len(eigenvalues)
    rng = stream(seed, d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    m = (q * np.asarray(eigenvalues)) @ q.conj().T
    return (m + m.conj().T) / 2


def _edge_state(d, lam, seed):
    """A Hermitian trace-1 matrix whose smallest eigenvalue is lam."""
    rest = stream(seed, d, 1).uniform(0.5, 1.5, d - 1)
    return _hermitian([lam, *(rest * (1.0 - lam) / rest.sum())], seed)


class TestPositivity:
    """The shifted-Cholesky test accepts and rejects exactly what eigvalsh does."""

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_density_matrix_agrees_with_eigvalsh(self, d):
        for seed, lam in enumerate(EDGE_EIGENVALUES * 4):
            mat = _edge_state(d, lam, seed)
            min_eig = np.linalg.eigvalsh(mat).min()
            if min_eig >= EIGENVALUE_FLOOR:
                DensityMatrix(mat)
            else:
                with pytest.raises(DomainError) as err:
                    DensityMatrix(mat)
                assert str(err.value) == f"matrix has negative eigenvalue {min_eig:.3e}"

    @pytest.mark.parametrize("d", [2, 3, 5, 7])
    def test_povm_agrees_with_eigvalsh(self, d):
        # {A, I - A}: A's smallest eigenvalue is lam, I - A's is -mu
        for seed, (lam, mu) in enumerate(zip(EDGE_EIGENVALUES * 7, EDGE_EIGENVALUES[::-1] * 7)):
            middle = stream(seed, d, 2).uniform(0.1, 0.9, d - 2)
            a = _hermitian([lam, *middle, 1.0 + mu], seed)
            elements = np.array([a, np.eye(d) - a])
            min_eig = np.linalg.eigvalsh(elements)[:, 0]
            bad = np.flatnonzero(~(min_eig >= EIGENVALUE_FLOOR))
            if not bad.size:
                Povm(elements)
            else:
                with pytest.raises(ConstructionError) as err:
                    Povm(elements)
                k = bad[0]
                assert str(err.value) == f"element {k} has negative eigenvalue {min_eig[k]:.3e}"

    def test_one_bad_state_in_a_stack(self):
        n, d = 25, 5
        ranks = 1 + np.arange(n) % d
        mats = np.array(random_mixed(d, ranks, normals=stream(4, 0).standard_normal((n, 2, d, d))).mat)
        mats[13] = _edge_state(d, -1e-9, 13)
        with pytest.raises(DomainError) as err:
            DensityMatrix(mats)
        assert str(err.value) == "matrix has negative eigenvalue -1.000e-09"

    def test_valid_states_never_reach_eigvalsh(self, monkeypatch):
        n, d = 70, 7
        normals = stream(5, 0).standard_normal((n, 2, d, d))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called on a valid stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        rho = random_mixed(d, 1 + np.arange(n) % d, normals=normals)
        assert rho.mat.shape == (n, d, d)
        for rank in range(1, d + 1):
            random_mixed(d, rank, rank)
        random_pure(d, 0)
        maximally_mixed(d)
        mub_construct(d, d + 1).bases[-1].to_povm()
        sic_from_fiducial(3).to_povm()


class TestPurity:
    def test_pure_state(self):
        for seed in range(5):
            assert purity(random_pure(3, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert purity(maximally_mixed(d)) == pytest.approx(1.0 / d, abs=1e-14)

    def test_bloch_state(self):
        rho = from_bloch(np.array([0.0, 0.6, 0.0]))
        assert purity(rho) == pytest.approx(0.68, abs=1e-14)

    def test_range(self):
        rng_seeds = range(20)
        for seed in rng_seeds:
            rho = random_mixed(4, 1 + seed % 4, seed)
            p2 = purity(rho)
            assert 1.0 / 4 - 1e-12 <= p2 <= 1.0 + 1e-12


class TestBloch:
    def test_zero_vector_gives_maximally_mixed(self):
        assert np.allclose(from_bloch([0, 0, 0]).mat, np.eye(2) / 2)

    def test_z_eigenstate(self):
        assert np.allclose(from_bloch([0, 0, 1]).mat, np.diag([1.0, 0.0]))

    def test_diagonal_pure_state(self):
        s = np.ones(3) / np.sqrt(3.0)
        assert purity(from_bloch(s)) == pytest.approx(1.0, abs=1e-13)

    def test_rejects_long_vector(self):
        with pytest.raises(DomainError):
            from_bloch([0.8, 0.8, 0.8])

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0, size=3)
            norm = np.linalg.norm(s)
            if norm > 1.0:
                s /= norm * 1.01
            assert np.max(np.abs(bloch_vector(from_bloch(s)) - s)) < 1e-13


class TestRandomStates:
    def test_pure_is_pure(self):
        for seed in (0, 1, 99):
            assert purity(random_pure(4, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_determinism(self):
        a = random_pure(3, 1234)
        b = random_pure(3, 1234)
        assert np.array_equal(a.mat, b.mat)
        c = random_mixed(3, 2, 77)
        d = random_mixed(3, 2, 77)
        assert np.array_equal(c.mat, d.mat)

    def test_first_moment_unitary_invariance(self):
        # Haar mean of <e1|rho|e1> is 1/d; var of a single draw is
        # (d-1)/(d^2 (d+1)), so a 3-sigma band around 1/d must hold.
        d, n = 3, 100_000
        rng = stream(2024, 0)
        total = 0.0
        for _ in range(n):
            total += random_pure(d, rng).mat[0, 0].real
        mean = total / n
        sigma = np.sqrt((d - 1.0) / (d**2 * (d + 1.0)) / n)
        assert abs(mean - 1.0 / d) < 3.0 * sigma

    def test_mixed_rank_one_is_pure(self):
        for seed in range(10):
            assert purity(random_mixed(3, 1, seed)) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_full_rank_never_pure(self):
        for seed in range(100):
            for d in (2, 3):
                assert purity(random_mixed(d, d, seed)) < 1.0 - 1e-6

    def test_mixed_is_valid_state(self):
        for seed in range(20):
            rho = random_mixed(5, 3, seed)
            assert abs(np.trace(rho.mat) - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho.mat).min() > -1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            random_pure(1, 0)
        with pytest.raises(DomainError):
            random_mixed(3, 0, 0)
        with pytest.raises(DomainError):
            random_mixed(3, 4, 0)


class TestStreams:
    def test_same_key_same_stream(self):
        a = stream(9, 1, 2).standard_normal(4)
        b = stream(9, 1, 2).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(9, 1).standard_normal(4)
        b = stream(9, 2).standard_normal(4)
        assert not np.array_equal(a, b)


class TestJson:
    def test_rejects_nan_entries(self):
        text = '{"dim": 2, "re": [[NaN, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}'
        with pytest.raises(DomainError):
            from_json(text)

    def test_round_trip(self):
        rho = random_mixed(3, 2, 5)
        again = from_json(to_json(rho))
        assert np.array_equal(rho.mat, again.mat)

    def test_wire_format_fields(self):
        obj = json.loads(to_json(maximally_mixed(2)))
        assert obj["dim"] == 2
        assert obj["re"] == [[0.5, 0.0], [0.0, 0.5]]
        assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            from_json(json.dumps({"dim": 2, "re": [[1.0]]}))
        with pytest.raises(DomainError):
            from_json(json.dumps({"dim": 3, "re": [[1.0]], "im": [[0.0]]}))
