import json
import re
import threading
import warnings

import numpy as np
import pytest

from mubsic import (
    ConstructionError,
    DensityMatrix,
    DomainError,
    povm,
    cli,
    maximally_entangled,
    max_prob_bound,
    mub_tsallis_bound,
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
    check_bound,
    correlation_G,
    detect_entanglement,
    mu_g_factor,
    probabilities,
)
from mubsic.states import EIGENVALUE_FLOOR, _ginibre, _ginibre_states, check_dimension


# every call takes a dimension or a count that is not an integer
NON_INTEGRAL = {
    "random_mixed-rank": lambda: random_mixed(2, 1.5, 0),
    "random_mixed-dim": lambda: random_mixed(2.5, 1, 0),
    "random_pure-dim": lambda: random_pure(2.5, 0),
    "maximally_mixed-dim": lambda: maximally_mixed(2.5),
    "from_json-dim": lambda: from_json(json.dumps({"dim": 2.5, "re": [[1.0]], "im": [[0.0]]})),
    "mub_construct-count": lambda: mub_construct(3, 4.5),
    "mub_construct-dim": lambda: mub_construct(3.5, 2),
    "maximally_entangled-dim": lambda: maximally_entangled(2.5),
    "mub_tsallis_bound-count": lambda: mub_tsallis_bound(3, 2.5, 1.5, 0.5),
    "mub_tsallis_bound-dim": lambda: mub_tsallis_bound(3.5, 4, 1.5, 0.5),
    "max_prob_bound-count": lambda: max_prob_bound(2.5, 0.5),
    "campaign-samples": lambda: cli.CampaignConfig(
        dims=[2], props=["P5-sic-ic"], alphas=[2.0], samples=2.5, seed=0
    ),
}


# every call draws from a key outside the stream rule (integers >= 0, seed < 2**128,
# at most 3 ids, each <= 2**64 - 2), or from no key at all
BAD_KEYS = {
    "stream-id": (lambda: stream(3, 1.7), "stream id must be an integer, got 1.7"),
    "stream-seed": (lambda: stream(2.9, 0), "seed must be an integer, got 2.9"),
    "stream-negative": (lambda: stream(-1), "seed must be >= 0, got -1"),
    "stream-wide-seed": (lambda: stream(2**128, 0), f"seed must be < 2**128, got {2**128}"),
    "stream-four-ids": (lambda: stream(3, 0, 0, 0, 0), "a stream takes at most 3 ids, got 4"),
    "stream-wide-id": (
        lambda: stream(3, 1, 2**64 - 1),
        f"stream id must be <= 2**64 - 2, got {2**64 - 1}",
    ),
    "random_mixed-seed": (lambda: random_mixed(2, 1, 2.5), "seed must be an integer, got 2.5"),
    "random_pure-nan": (lambda: random_pure(2, np.nan), "seed must be an integer, got nan"),
    "random_mixed-unseeded": (lambda: random_mixed(2, 1), "seed must be an integer, got None"),
}


# every call passes ranks, or normals, that random_mixed cannot use; each message
# names the mistake
BAD_RANKS = {
    "empty-stack": (
        lambda: random_mixed(3, np.array([]), normals=np.zeros((0, 2, 3, 3))),
        "rank must be an integer in [1, 3] or a non-empty array of them, got []",
    ),
    "stack-without-normals": (
        lambda: random_mixed(3, [1, 2], 0),
        "a stack of ranks needs caller-drawn normals of shape (2, 2, 3, 3)",
    ),
    "string": (
        lambda: random_mixed(3, "1", 0),
        "rank must be an integer in [1, 3] or a non-empty array of them, got '1'",
    ),
    "normals-of-another-dimension": (
        lambda: random_mixed(3, 1, normals=np.ones((2, 2, 2))),
        "need normals of shape (2, 3, 3), got (2, 2, 2)",
    ),
    "normals-for-another-stack": (
        lambda: random_mixed(3, [1, 2], normals=np.ones((3, 2, 3, 3))),
        "need normals of shape (2, 2, 3, 3), got (3, 2, 3, 3)",
    ),
}


class TestIntegerRule:
    @pytest.mark.parametrize("value", [2, 3.0, np.int64(5), np.float64(7.0)])
    def test_integral_dimension_is_an_int(self, value):
        d = check_dimension(value)
        assert type(d) is int and d == value

    @pytest.mark.parametrize("value", [2.5, np.nan, np.inf, "3", None])
    def test_rejects_non_integral_dimension(self, value):
        with pytest.raises(DomainError, match="^dimension must be an integer, got "):
            check_dimension(value)

    @pytest.mark.parametrize("value", [1, 0, -1, 1.0])
    def test_rejects_dimension_below_2(self, value):
        with pytest.raises(DomainError, match=r"^dimension must be >= 2, got -?\d+$"):
            check_dimension(value)

    @pytest.mark.parametrize("call", NON_INTEGRAL.values(), ids=NON_INTEGRAL.keys())
    def test_rejects_non_integral_counts(self, call):
        with pytest.raises(DomainError, match="must be an integer"):
            call()

    @pytest.mark.parametrize("call, message", BAD_KEYS.values(), ids=BAD_KEYS.keys())
    def test_rejects_bad_stream_keys(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call, message", BAD_RANKS.values(), ids=BAD_RANKS.keys())
    def test_rejects_bad_ranks(self, call, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_integral_floats_still_work(self):
        assert np.array_equal(random_mixed(3.0, 2.0, 4).mat, random_mixed(3, 2, 4).mat)
        assert np.array_equal(random_pure(3.0, 4).mat, random_pure(3, 4).mat)
        assert mub_construct(3.0, 4.0).shape[0] == 4
        assert mub_tsallis_bound(3.0, 4.0, 1.5, 0.5) == mub_tsallis_bound(3, 4, 1.5, 0.5)


class TestValidation:
    def test_rejects_nan_entry(self):
        # inf used to reach the hermiticity test and warn "invalid value encountered" first
        message = "^density matrix has a non-finite entry$"
        for value in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
            with pytest.raises(DomainError, match=message):
                DensityMatrix(np.array([[value, 0.0], [0.0, 0.5]]))
            with pytest.raises(DomainError, match=message):
                DensityMatrix(np.array([[0.5, value], [value, 0.5]]))

    def test_rejects_empty(self):
        with pytest.raises(DomainError, match=r"^empty density matrix array, shape \(0, 0\)$"):
            DensityMatrix(np.zeros((0, 0)))
        with pytest.raises(DomainError, match=r"^empty density matrix array, shape \(0, 2, 2\)$"):
            DensityMatrix(np.zeros((0, 2, 2)))

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


# every public function that reads a state, each given a bare array in its place
_SIC2 = sic_from_fiducial(2)
NOT_A_STATE = {
    "purity": purity,
    "to_json": to_json,
    "probabilities": lambda x: probabilities(_SIC2, x),
    "correlation_G": lambda x: correlation_G(_SIC2, x),
    "mu_g_factor": lambda x: mu_g_factor(_SIC2, _SIC2, x),
    "check_bound": lambda x: check_bound(_SIC2, x, "P5-sic-ic"),
    "detect_entanglement": lambda x: detect_entanglement(_SIC2, x),
}


@pytest.mark.parametrize("call", NOT_A_STATE.values(), ids=NOT_A_STATE)
def test_a_bare_array_is_not_a_state(call):
    with pytest.raises(DomainError, match="^expected a DensityMatrix, got ndarray$"):
        call(np.eye(2) / 2)


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
                povm(elements)
            else:
                with pytest.raises(ConstructionError) as err:
                    povm(elements)
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
        vectors = mub_construct(d, d + 1).kets[-d:]
        povm(np.einsum("ji,jk->jik", vectors, vectors.conj()))
        kets = sic_from_fiducial(3).kets
        povm(np.einsum("ji,jk->jik", kets, kets.conj()) / 3)


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

    def test_rejects_a_2_vector(self):
        with pytest.raises(DomainError, match=re.escape("3 real components, got shape (2,)")):
            from_bloch([0.6, 0.8])

    def test_rejects_nan_as_a_bloch_vector(self):
        with pytest.raises(DomainError, match="^Bloch vector has length nan"):
            from_bloch([np.nan, 0.0, 0.0])

    def test_round_trip(self):
        paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = rng.uniform(-1.0, 1.0, size=3)
            norm = np.linalg.norm(s)
            if norm > 1.0:
                s /= norm * 1.01
            # the Pauli expectations tr(rho sigma_k) read the Bloch vector back
            read = np.trace(paulis @ from_bloch(s).mat, axis1=1, axis2=2).real
            assert np.max(np.abs(read - s)) < 1e-13


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
        normals = stream(2024, 0).standard_normal((n, 2, d, d))
        rho = random_mixed(d, np.ones(n, dtype=int), normals=normals)
        # the stack's rows are the states of sequential random_pure calls on the same stream
        rng = stream(2024, 0)
        for row in rho.mat[:1000]:
            assert np.array_equal(row, random_pure(d, rng).mat)
        mean = rho.mat[:, 0, 0].real.mean()
        sigma = np.sqrt((d - 1.0) / (d**2 * (d + 1.0)) / n)
        assert abs(mean - 1.0 / d) < 3.0 * sigma

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_pure_is_rank_one_mixed(self, d):
        for seed in range(10):
            assert np.array_equal(random_pure(d, seed).mat, random_mixed(d, 1, seed).mat)
        shared_a, shared_b = stream(7, d), stream(7, d)
        for _ in range(10):
            assert np.array_equal(random_pure(d, shared_a).mat, random_mixed(d, 1, shared_b).mat)

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

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_ginibre_factor_is_the_masked_product(self, d):
        # one complex buffer masked in place, against the three-temporary form
        normals = stream(31, d).standard_normal((4 * d, 2, d, d))
        ranks = 1 + np.arange(4 * d) % d  # every rank 1 ... d, four times
        keep = np.arange(d) < ranks[:, None, None]
        want = (normals[:, 0] + 1j * normals[:, 1]) * keep
        got = _ginibre(normals, ranks)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape, ranks", [((2, 3, 3), 2), ((2, 2, 3, 3), [1, 2])])
    def test_the_kernel_names_a_zero_block(self, shape, ranks):
        # the campaign's path past the reader keeps the check on the result
        message = r"^normals block 0: kept columns too small or too large to square$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                _ginibre_states(np.zeros(shape), np.array(ranks))

    @pytest.mark.parametrize("scale", [0.0, 1e-200, 1e200])
    def test_normals_beyond_the_float_range_name_their_block(self, scale):
        # these used to warn "invalid value encountered in divide" (0, 1e-200) or
        # "overflow encountered in matmul" (1e200) before any check
        normals = stream(5, 3).standard_normal((3, 2, 3, 3))
        normals[1, :, :, :2] = scale  # block 1 keeps its first two columns only
        message = r"^normals block 1: kept columns too small or too large to square$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                random_mixed(3, [3, 2, 3], normals=normals)
            with pytest.raises(DomainError, match=r"^normals block 0: "):
                random_mixed(3, 2, normals=normals[1])
        # the dropped third column may hold anything finite
        normals[1, :, :, :2] = 1.0
        normals[1, :, :, 2] = 1e200
        assert random_mixed(3, [3, 2, 3], normals=normals).mat.shape == (3, 3, 3)

    @pytest.mark.parametrize("rank", [[[1, 2], [1]], np.inf, [1.0, np.inf]])
    def test_a_ragged_or_infinite_rank_gets_the_rank_rule(self, rank):
        # a ragged list raised numpy's ValueError, and inf warned in its remainder
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^rank must be an integer in \[1, 3\]"):
                random_mixed(3, rank, normals=np.ones((2, 2, 3, 3)))

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

    def test_bare_seed_and_generator(self):
        # the seed is the Philox key, counter 0: the draws of coincidence --random-rank
        want = np.random.Generator(np.random.Philox(key=[7, 0], counter=0))
        state = stream(7).bit_generator.state["state"]
        assert state["key"].tolist() == [7, 0] and state["counter"].tolist() == [0, 0, 0, 0]
        assert np.array_equal(stream(7).standard_normal(4), want.standard_normal(4))
        assert np.array_equal(stream(np.int64(7)).standard_normal(4), stream(7).standard_normal(4))
        rng = np.random.default_rng(1)
        assert stream(rng) is rng
        with pytest.raises(DomainError, match="^seed must be an integer, got Generator"):
            stream(rng, 0)

    @pytest.mark.parametrize(
        "key, words, counter",
        [
            ((7, 2), [7, 0], [0, 3, 0, 0]),
            ((7, 1, 2, 0), [7, 0], [0, 2, 3, 1]),
            ((2**64 + 5, 0, 2**64 - 2), [5, 1], [0, 1, 2**64 - 1, 0]),
            ((2**128 - 1,), [2**64 - 1, 2**64 - 1], [0, 0, 0, 0]),
        ],
    )
    def test_seed_is_the_key_and_ids_are_the_counter(self, key, words, counter):
        state = stream(*key).bit_generator.state["state"]
        assert state["key"].tolist() == words and state["counter"].tolist() == counter
        words, counter = (np.array(w, dtype=np.uint64) for w in (words, counter))
        want = np.random.Generator(np.random.Philox(key=words, counter=counter))
        assert np.array_equal(stream(*key).standard_normal(9), want.standard_normal(9))

    def test_arities_differ(self):
        draws = [stream(7, *[0] * k).standard_normal(4) for k in range(4)]
        for i in range(4):
            for j in range(i):
                assert not np.array_equal(draws[i], draws[j]), (i, j)

    def test_key_rejects_uneven_words(self):
        key = stream(7).bit_generator.seed_seq
        assert key.generate_state(4).tolist() == [7, 0, 0, 0]
        with pytest.raises(DomainError, match="^a Philox key is 128 bits, not 3 words of uint64$"):
            key.generate_state(3, np.uint64)

    def test_interleaved_draws_equal_separate_draws(self):
        a, b = stream(5, 1), stream(5, 2)
        mixed = [g.standard_normal(7) for _ in range(3) for g in (a, b)]
        alone = [stream(5, k).standard_normal(21).reshape(3, 7) for k in (1, 2)]
        assert np.array_equal(np.array(mixed[0::2]), alone[0])
        assert np.array_equal(np.array(mixed[1::2]), alone[1])

    def test_streams_in_threads_equal_serial_draws(self):
        keys = [(5, k) for k in range(4)]
        out = {}

        def draw(key):
            out[key] = stream(*key).standard_normal(20_000)

        threads = [threading.Thread(target=draw, args=(key,)) for key in keys]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        for key in keys:
            assert np.array_equal(out[key], stream(*key).standard_normal(20_000)), key

    @pytest.mark.parametrize(
        "a, b",
        [
            ((7,), (8,)),
            ((2**64 - 1,), (2**64,)),
            ((7, 1, 2, 0), (7, 1, 2, 1)),
            ((7, 1, 2, 0), (7, 1, 3, 0)),
            ((7, 1, 2, 0), (7, 2, 2, 0)),
            ((7,), (7, 0)),
            ((7, 0, 0), (7, 1)),
        ],
    )
    def test_neighbouring_keys_give_uncorrelated_normals(self, a, b):
        n = 40_000
        r = np.corrcoef(stream(*a).standard_normal(n), stream(*b).standard_normal(n))[0, 1]
        assert abs(r) < 5 / np.sqrt(n), r


class TestJson:
    def test_rejects_nan_entries(self):
        for value in ("NaN", "Infinity", "1e400"):
            text = f'{{"dim": 2, "re": [[{value}, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}}'
            with pytest.raises(DomainError, match="^density matrix has a non-finite entry$"):
                from_json(text)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-1e400"])
    def test_rejects_a_non_finite_imaginary_part(self, value):
        # 1j * inf used to warn "invalid value encountered in multiply" first
        text = f'{{"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0, {value}], [0, 0]]}}'
        with pytest.raises(DomainError, match="^density matrix has a non-finite entry$"):
            from_json(text)

    def test_round_trip(self):
        rho = random_mixed(3, 2, 5)
        again = from_json(to_json(rho))
        assert np.array_equal(rho.mat, again.mat)

    def test_a_stack_is_not_one_state(self):
        # from_json reads one (d, d) matrix, so to_json writes no stack
        stack = DensityMatrix(np.stack([np.eye(2) / 2, np.diag([1.0, 0.0])]))
        with pytest.raises(DomainError, match=r"^the JSON wire format .* shape \(2, 2, 2\)$"):
            to_json(stack)

    def test_wire_format_fields(self):
        obj = json.loads(to_json(maximally_mixed(2)))
        assert obj["dim"] == 2
        assert obj["re"] == [[0.5, 0.0], [0.0, 0.5]]
        assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]

    @pytest.mark.parametrize("text", ["{", "", "[1, 2", "not json"])
    def test_rejects_text_that_is_not_json(self, text):
        # the parse used to run outside the check and raise json.JSONDecodeError
        with pytest.raises(DomainError, match="^malformed density-matrix JSON: "):
            from_json(text)

    def test_rejects_malformed(self):
        with pytest.raises(DomainError):
            from_json(json.dumps({"dim": 2, "re": [[1.0]]}))
        with pytest.raises(DomainError):
            from_json(json.dumps({"dim": 3, "re": [[1.0]], "im": [[0.0]]}))
