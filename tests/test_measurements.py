import json
import re

import numpy as np
import pytest

from mubsic import (
    ConstructionError,
    DensityMatrix,
    DimensionMismatchError,
    DomainError,
    NotASicError,
    PreconditionError,
    ProbDist,
    distort,
    load_fiducial,
    maximally_mixed,
    mu_f_bar,
    mub_construct,
    mub_set,
    orthonormal_basis,
    povm,
    probabilities,
    random_mixed,
    random_pure,
    sic_from_fiducial,
    sic_povm,
    weyl_heisenberg_orbit,
)
from mubsic import measurements


def _bases(mubs):
    """Each basis of a MUB set as its own basis record."""
    return [orthonormal_basis(b) for b in mubs.kets.reshape(mubs.shape + (mubs.dim,))]


def _projectors(kets):
    return np.einsum("ji,jk->jik", kets, kets.conj())


def _elements(meas):
    """The (K, d, d) elements |k_j><k_j| / scale of a measurement with kets."""
    return _projectors(meas.kets) / meas.scale


def _overlap2(basis_a, basis_b):
    return np.abs(basis_a.kets.conj() @ basis_b.kets.T) ** 2


# each constructor given an empty array, and the shape its message must name
EMPTY_INPUTS = {
    "weyl_heisenberg_orbit": (lambda: weyl_heisenberg_orbit([]), "(0,)"),
    "sic_povm": (lambda: sic_povm(np.zeros((0, 0))), "(0, 0)"),
    "orthonormal_basis": (lambda: orthonormal_basis(np.zeros((0, 0))), "(0, 0)"),
    "povm-no-elements": (lambda: povm(np.zeros((0, 2, 2))), "(0, 2, 2)"),
    "povm-empty-elements": (lambda: povm(np.zeros((0, 0, 0))), "(0, 0, 0)"),
}


@pytest.mark.parametrize("build, shape", EMPTY_INPUTS.values(), ids=EMPTY_INPUTS.keys())
def test_empty_input_is_a_domain_error_naming_its_shape(build, shape):
    with pytest.raises(DomainError) as info:
        build()
    assert f"shape {shape}" in str(info.value)


# each builder given an otherwise valid measurement of dimension 1
DIMENSION_ONE = {
    "sic_povm": lambda: sic_povm([[1.0]]),
    "orthonormal_basis": lambda: orthonormal_basis([[1.0]]),
    "mub_set": lambda: mub_set([[[1.0]], [[1.0]]]),
    "povm": lambda: povm([[[1.0]]]),
}


@pytest.mark.parametrize("build", DIMENSION_ONE.values(), ids=DIMENSION_ONE.keys())
def test_builders_apply_the_dimension_rule(build):
    with pytest.raises(DomainError, match=r"^dimension must be >= 2, got 1$"):
        build()


def _with_entry(array, value):
    """A complex copy of ``array`` with its first entry set to ``value``."""
    array = np.array(array, dtype=complex)
    array.flat[0] = value
    return array


_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)

# each builder given an otherwise valid input whose first entry is ``value``
NON_FINITE = {
    "orthonormal_basis": lambda value: orthonormal_basis(_with_entry(np.eye(2), value)),
    "mub_set": lambda value: mub_set([np.eye(2), _with_entry(_HADAMARD, value)]),
    "povm": lambda value: povm(_with_entry(np.array([np.eye(2) / 2, np.eye(2) / 2]), value)),
    "sic_povm": lambda value: sic_povm(_with_entry(sic_from_fiducial(2).kets, value)),
    # an exported builder that used to return NaN kets for a NaN fiducial
    "weyl_heisenberg_orbit": lambda value: weyl_heisenberg_orbit([value, 1.0]),
    # its norm check used to run first: "fiducial is not unit norm (deviation nan)"
    "sic_from_fiducial": lambda value: sic_from_fiducial(2, [value, 1.0]),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)], ids=repr)
@pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_builders_reject_non_finite_entries(build, value):
    # inf used to reach the invariant checks and warn "invalid value encountered" first
    with pytest.raises(DomainError, match="^measurement input has a non-finite entry$"):
        build(value)


def _every_builder(d=3):
    """One measurement from each builder and each construction, at dimension d."""
    mubs = mub_construct(d, d + 1)
    sic = sic_from_fiducial(d)
    basis = orthonormal_basis(mubs.kets[:d])
    rank_two = 0.5 * (_projectors(mubs.kets[:d]) + _projectors(mubs.kets[d : 2 * d]))
    return {
        "orthonormal_basis": basis,
        "mub_set": mub_set([basis, mubs.kets[d : 2 * d]]),
        "mub_construct": mubs,
        "povm-rank-one": povm(_elements(sic)),
        "povm-rank-two": povm(rank_two),
        "sic_povm": sic_povm(sic.kets),
        "sic_from_fiducial": sic,
    }


@pytest.mark.parametrize("name", _every_builder())
def test_builders_return_read_only_records(name):
    # cli.measurement shares one memoized record per process among all its callers
    meas = _every_builder()[name]
    arrays = [meas.design] + ([] if meas.kets is None else [meas.kets])
    assert (meas.kets is None) == (name == "povm-rank-two")
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0, 0] = 1.0
    with pytest.raises(AttributeError, match="^a Measurement is read-only: cannot set 'kets'$"):
        meas.kets = None


def test_a_measurement_compares_and_hashes_by_identity():
    first, second = sic_from_fiducial(2), sic_from_fiducial(2)
    assert first == first and first != second
    assert len({first, second, first}) == 2


def test_mub_set_checks_a_raw_basis_without_building_its_record(monkeypatch):
    raw = [b.kets for b in _bases(mub_construct(3, 4))]
    want = mub_set([orthonormal_basis(b) for b in raw])
    designs = []
    original = measurements.design_matrix
    monkeypatch.setattr(
        measurements, "design_matrix", lambda e: designs.append(e.shape) or original(e)
    )
    got = mub_set(raw)
    assert designs == [(12, 3, 3)]  # the MUB set's own design, no basis's
    assert got.kets.tobytes() == want.kets.tobytes() and got.deviation == want.deviation
    assert got.design.tobytes() == want.design.tobytes()
    # a raw basis is still held to orthonormal_basis's rule and message
    skewed = np.array([[1.0, 0.0], [1.0, 1.0]]) / np.sqrt([[1.0], [2.0]])
    message = f"basis is not orthonormal (Gram deviation {0.5**0.5:.3e})"
    for build in (orthonormal_basis, lambda b: mub_set([np.eye(2), b])):
        with pytest.raises(ConstructionError, match=f"^{re.escape(message)}$"):
            build(skewed)


def test_mub_set_takes_bases_only():
    sic = sic_from_fiducial(2)
    with pytest.raises(DomainError, match="^a MUB set takes bases, got basis, sic$"):
        mub_set([orthonormal_basis(np.eye(2)), sic])


class TestMubConstruct:
    def test_qubit_pauli_eigenbases(self):
        mubs = mub_construct(2, 3)
        assert mubs.shape[0] == 3
        bases = _bases(mubs)
        z, x, y = (b.kets for b in bases)
        assert np.allclose(z, np.eye(2))
        assert np.allclose(x, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        assert np.allclose(y, np.array([[1, 1j], [1, -1j]]) / np.sqrt(2))
        for a in range(3):
            for b in range(a + 1, 3):
                assert np.max(np.abs(_overlap2(bases[a], bases[b]) - 0.5)) < 1e-14

    @pytest.mark.parametrize("d,count", [(3, 4), (5, 6), (7, 8)])
    def test_odd_prime_full_sets(self, d, count):
        bases = _bases(mub_construct(d, count))
        target = 1.0 / d
        for a in range(count):
            for b in range(a + 1, count):
                dev = np.max(np.abs(_overlap2(bases[a], bases[b]) - target))
                assert dev < 1e-12

    def test_partial_set(self):
        mubs = mub_construct(5, 3)
        assert mubs.shape[0] == 3 and mubs.dim == 5

    def test_keeps_stacked_vectors_and_worst_deviation(self):
        mubs = mub_construct(5, 6)
        assert mubs.kets.shape == (30, 5) and mubs.shape == (6, 5)
        bases = _bases(mubs)
        worst = max(
            np.max(np.abs(_overlap2(bases[a], bases[b]) - 0.2))
            for a in range(6)
            for b in range(a + 1, 6)
        )
        assert mubs.deviation == worst

    @pytest.mark.parametrize("d", [4, 6, 9, 12])
    def test_rejects_unsupported_dimensions(self, d):
        with pytest.raises(DomainError, match="unsupported dimension"):
            mub_construct(d, 2)

    def test_rejects_count_out_of_range(self):
        with pytest.raises(DomainError):
            mub_construct(3, 1)
        with pytest.raises(DomainError):
            mub_construct(3, 5)


class TestSicConstruct:
    def test_qubit_tetrahedron(self):
        sic = sic_from_fiducial(2)
        assert sic.shape == (4,)
        overlap2 = np.abs(sic.kets.conj() @ sic.kets.T) ** 2
        for j in range(4):
            for k in range(4):
                expected = 1.0 if j == k else 1.0 / 3.0
                assert overlap2[j, k] == pytest.approx(expected, abs=1e-12)

    def test_qutrit_orbit(self):
        sic = sic_from_fiducial(3)
        assert sic.shape == (9,)
        overlap2 = np.abs(sic.kets.conj() @ sic.kets.T) ** 2
        # 36 unordered pairs, all at 1/(d+1) = 1/4
        for j in range(9):
            for k in range(j + 1, 9):
                assert overlap2[j, k] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_completeness(self, d):
        sic = sic_from_fiducial(d)
        total = _elements(sic).sum(axis=0)
        assert np.max(np.abs(total - np.eye(d))) < 1e-12

    def test_degenerate_fiducial_rejected(self):
        with pytest.raises(NotASicError) as err:
            sic_from_fiducial(2, np.array([1.0, 0.0]))
        assert err.value.worst_deviation > 0.1

    def test_non_unit_fiducial_rejected(self):
        with pytest.raises(DomainError, match="unit norm"):
            sic_from_fiducial(2, np.array([1.0, 1.0]))

    def test_builtin_fiducial_meets_the_checks_of_a_given_one(self, monkeypatch):
        not_unit = np.array([0.0, 1.0, -1.0], dtype=complex)
        message = f"^{re.escape('fiducial is not unit norm (deviation 4.142e-01)')}$"
        with pytest.raises(DomainError, match=message):
            sic_from_fiducial(3, not_unit)
        monkeypatch.setitem(measurements._BUILTIN_FIDUCIALS, 3, not_unit)
        with pytest.raises(DomainError, match=message):
            sic_from_fiducial(3)

    def test_wrong_length_fiducial_rejected(self):
        with pytest.raises(DimensionMismatchError):
            sic_from_fiducial(3, np.array([1.0, 0.0]))

    def test_no_builtin_for_other_dims(self):
        with pytest.raises(DomainError, match="builtin"):
            sic_from_fiducial(5)


class TestProbabilities:
    def test_sic_on_maximally_mixed_is_uniform(self):
        for d in (2, 3):
            p = probabilities(sic_from_fiducial(d), maximally_mixed(d))
            assert np.max(np.abs(p.p - 1.0 / d**2)) < 1e-14

    def test_basis_on_own_state_is_indicator(self):
        basis = _bases(mub_construct(3, 4))[2]
        ket = basis.kets[1]
        from mubsic import DensityMatrix

        rho = DensityMatrix(np.outer(ket, ket.conj()))
        p = probabilities(basis, rho).p
        assert p[1] == pytest.approx(1.0, abs=1e-13)
        assert np.sum(p) == pytest.approx(1.0, abs=1e-13)

    def test_sic_on_own_fiducial_ket(self):
        # matching outcome 1/d, all others 1/(d(d+1))
        sic = sic_from_fiducial(2)
        from mubsic import DensityMatrix

        rho = DensityMatrix(np.outer(sic.kets[0], sic.kets[0].conj()))
        p = np.sort(probabilities(sic, rho).p)[::-1]
        assert p[0] == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(p[1:] - 1.0 / 6.0)) < 1e-12

    def test_povm_route_matches_ket_route(self):
        sic = sic_from_fiducial(3)
        rho = random_mixed(3, 2, 8)
        via_kets = probabilities(sic, rho).p
        via_povm = probabilities(povm(_elements(sic)), rho).p
        assert np.max(np.abs(via_kets - via_povm)) < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            probabilities(sic_from_fiducial(2), maximally_mixed(3))

    def test_rejects_a_non_measurement(self):
        with pytest.raises(DomainError, match="^unsupported measurement type ndarray$"):
            probabilities(np.eye(2), maximally_mixed(2))

    def test_mub_set_gives_every_basis(self):
        mubs = mub_construct(3, 4)
        rho = random_mixed(3, 2, 8)
        p = probabilities(mubs, rho).p
        assert p.shape == (4, 3)
        for m, basis in enumerate(_bases(mubs)):
            assert np.max(np.abs(p[m] - probabilities(basis, rho).p)) < 1e-15

    def test_normalization_and_range(self):
        for seed in range(10):
            rho = random_mixed(3, 1 + seed % 3, seed)
            for basis in _bases(mub_construct(3, 4)):
                p = probabilities(basis, rho).p
                assert abs(p.sum() - 1.0) < 1e-12
                assert p.min() >= 0.0 and p.max() <= 1.0 + 1e-14

    def test_sic_probability_cap(self):
        # every SIC probability is at most 1/d
        for seed in range(10):
            rho = random_mixed(2, 1 + seed % 2, seed)
            p = probabilities(sic_from_fiducial(2), rho).p
            assert p.max() <= 0.5 + 1e-14


# Weyl-Heisenberg SIC fiducials for the dimensions without a builtin, found by a
# least-squares fit to the overlap conditions (residual below 1e-15)
_FIDUCIALS = {
    5: np.array(
        [0.19993636214633706, 0.04884669956661706, 0.6483220181641406,
         -0.09348065941601345, -0.39520446790534686]
    ) + 1j * np.array(
        [0.0, 0.23669126770086601, 0.2690414456618804,
         -0.40546486079001337, -0.2821081311028974]
    ),
    7: np.array(
        [0.3705859758052572, 0.06312790048691702, -0.3966430021304859, -0.2936947465257769,
         0.1394171672160043, -0.6401627684780191, -0.2609504366026522]
    ) + 1j * np.array(
        [0.0, -0.03322553741647954, -0.00813220442686655, -0.014617138474063991,
         0.10848345805270301, 0.01602792572940528, -0.32303048698331494]
    ),
}
KERNEL_DIMS = (2, 3, 5, 7)


def _kernel_cases(d):
    """(measurement, its (K, d, d) elements, output shape) for every builder.

    The POVM with elements (|a_j><a_j| + |b_j><b_j|)/2 over two unbiased bases
    has rank-two elements.
    """
    mubs = mub_construct(d, d + 1)
    fiducial = _FIDUCIALS.get(d)
    sic = sic_from_fiducial(d, None if fiducial is None else fiducial / np.linalg.norm(fiducial))
    bases = _bases(mubs)
    mixed_elements = 0.5 * (_projectors(bases[0].kets) + _projectors(bases[1].kets))
    mixed = povm(mixed_elements)
    with pytest.raises(PreconditionError):
        mu_f_bar(mixed, mixed)
    return [
        (bases[1], _projectors(bases[1].kets), (d,)),
        (mubs, _projectors(mubs.kets), (d + 1, d)),
        (sic, _elements(sic), (d * d,)),
        (povm(_elements(sic)), _elements(sic), (d * d,)),
        (mixed, mixed_elements, (d,)),
    ]


def _kernel_states(d, n):
    """n random states of every rank, as a (n, d, d) array."""
    ranks = 1 + np.arange(n) % d
    return random_mixed(d, ranks, normals=np.random.default_rng(d).standard_normal((n, 2, d, d))).mat


class TestProbabilityKernel:
    @pytest.mark.parametrize("d", KERNEL_DIMS)
    def test_matches_trace_state_by_state(self, d):
        mats = _kernel_states(d, 2 * d)
        for meas, elements, shape in _kernel_cases(d):
            p = probabilities(meas, DensityMatrix(mats)).p
            assert p.shape == (len(mats),) + shape
            for row, mat in zip(p, mats):
                want = [np.trace(e @ mat).real for e in elements]
                assert np.max(np.abs(row.ravel() - want)) <= 1e-15, meas.kind

    @pytest.mark.parametrize("d", KERNEL_DIMS)
    def test_stack_rows_are_single_state_results(self, d):
        mats = _kernel_states(d, 8)
        for meas, _, _ in _kernel_cases(d):
            for n in range(1, 9):
                for layout in (lambda m: m, lambda m: m.swapaxes(-1, -2)):
                    stack = probabilities(meas, DensityMatrix(layout(mats[:n]))).p
                    for i in range(n):
                        for single in (layout(mats[i]), np.asfortranarray(layout(mats[i]))):
                            got = probabilities(meas, DensityMatrix(single)).p
                            assert np.array_equal(stack[i], got), (meas.kind, n, i)

    @pytest.mark.parametrize("d", KERNEL_DIMS)
    def test_design_is_read_only(self, d):
        for meas, elements, _ in _kernel_cases(d):
            assert meas.design.shape == (2 * d * d, len(elements))
            assert not meas.design.flags.writeable
            with pytest.raises(ValueError):
                meas.design[0, 0] = 1.0


class TestDistort:
    def test_full_efficiency_appends_zero(self):
        p = distort([0.25, 0.75], 1.0)
        assert np.allclose(p.p, [0.25, 0.75, 0.0])

    def test_zero_efficiency_is_no_click_indicator(self):
        p = distort([0.25, 0.75], 0.0)
        assert np.allclose(p.p, [0.0, 0.0, 1.0])

    def test_length_grows_by_one(self):
        assert len(distort(np.ones(5) / 5, 0.3)) == 6

    def test_rejects_bad_efficiency(self):
        with pytest.raises(DomainError):
            distort([1.0], 1.5)
        with pytest.raises(DomainError):
            distort([1.0], -0.1)


class TestProbDist:
    def test_clamps_tiny_negatives(self):
        p = ProbDist([1.0 + 5e-15, -5e-15])
        assert p.p[1] == 0.0

    def test_rejects_large_negatives(self):
        with pytest.raises(DomainError):
            ProbDist([1.0, -1e-12])

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            ProbDist([0.5, 0.4])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ProbDist([np.nan, 1.0])

    def test_validates_each_row_of_a_stack(self):
        assert len(ProbDist([[0.5, 0.5], [1.0, 0.0]])) == 2
        with pytest.raises(DomainError):
            ProbDist([[0.5, 0.5], [0.5, 0.4]])


def test_reprs_name_the_dimension_and_the_purity_or_the_stack_size():
    assert repr(ProbDist([0.5, 0.5])) == "ProbDist([0.5 0.5])"
    assert repr(maximally_mixed(2)) == "DensityMatrix(dim=2, purity=0.500000)"
    assert repr(DensityMatrix(np.stack([np.eye(3) / 3] * 4))) == "DensityMatrix(dim=3, states=4)"


class TestStructuralInvariants:
    def test_basis_rejects_non_orthonormal(self):
        with pytest.raises(ConstructionError):
            orthonormal_basis(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_mubset_rejects_biased_pair(self):
        standard = np.eye(2)
        tilted = np.array([[np.cos(0.2), np.sin(0.2)], [-np.sin(0.2), np.cos(0.2)]])
        with pytest.raises(ConstructionError):
            mub_set([standard, tilted])

    def test_mubset_rejects_no_bases(self):
        with pytest.raises(DomainError, match="^a MUB set needs at least one basis$"):
            mub_set([])

    def test_mubset_rejects_bases_of_two_dimensions(self):
        with pytest.raises(DimensionMismatchError, match="^bases have differing dimensions$"):
            mub_set([np.eye(2), np.eye(3)])

    def test_povm_rejects_incomplete(self):
        with pytest.raises(ConstructionError):
            povm(np.array([np.eye(2) / 2, np.eye(2) / 4]))

    def test_povm_rejects_negative_element(self):
        elems = np.array([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
        with pytest.raises(ConstructionError):
            povm(elems)

    def test_povm_names_first_non_hermitian_element(self):
        skew = np.array([[0.0, 0.1], [0.0, 0.0]])
        quarter = np.eye(2) / 4
        elems = np.array([quarter, quarter, quarter + skew, quarter - skew])
        with pytest.raises(ConstructionError, match="element 2 is not Hermitian"):
            povm(elems)

    def test_povm_names_first_negative_element(self):
        quarter = np.eye(2) / 4
        elems = np.array([quarter, quarter, np.diag([0.75, -0.25]), np.diag([-0.25, 0.75])])
        with pytest.raises(ConstructionError, match="element 2 has negative eigenvalue"):
            povm(elems)

    def test_rank_one_extraction_names_first_rank_two_element(self):
        meas = povm(np.array([np.diag([0.5, 0.0]), np.diag([0.0, 0.5]), np.eye(2) / 2]))
        assert meas.kets is None
        with pytest.raises(PreconditionError, match="element 2 is not rank-one"):
            mu_f_bar(meas, meas)

    def test_rank_one_extraction_round_trip(self):
        vectors = mub_construct(3, 2).kets[3:]
        elements = np.einsum("ji,jk->jik", vectors, vectors.conj())
        kets = povm(elements).kets
        rebuilt = np.einsum("ji,jk->jik", kets, kets.conj())
        assert np.max(np.abs(rebuilt - elements)) < 1e-12

    def test_rank_one_extraction_rejects_rank_two(self):
        meas = povm(np.array([np.eye(2) / 2, np.eye(2) / 2]))
        assert meas.kets is None
        with pytest.raises(PreconditionError):
            mu_f_bar(meas, meas)


class TestFiducialLoader:
    def test_normalizes_and_reports_scale(self, tmp_path):
        vec = np.array([0.0, 3.0, -3.0])  # 3x the builtin qutrit fiducial, real
        path = tmp_path / "fid.json"
        path.write_text(
            json.dumps({"dim": 3, "re": vec.tolist(), "im": [0.0, 0.0, 0.0]})
        )
        loaded, scale = load_fiducial(path)
        assert np.linalg.norm(loaded) == pytest.approx(1.0, abs=1e-14)
        assert scale == pytest.approx(1.0 / np.linalg.norm(vec))
        sic = sic_from_fiducial(3, loaded)
        assert sic.shape == (9,)

    def test_rejects_dim_mismatch(self, tmp_path):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"dim": 4, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        with pytest.raises(DomainError):
            load_fiducial(path)

    def test_rejects_non_integral_dim(self, tmp_path):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"dim": 2.5, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        with pytest.raises(DomainError, match="dimension must be an integer, got 2.5"):
            load_fiducial(path)
        path.write_text(json.dumps({"dim": 2.0, "re": [1.0, 0.0], "im": [0.0, 0.0]}))
        assert load_fiducial(path)[0].shape == (2,)

    def test_rejects_nan_component(self, tmp_path):
        # one non-finite rule for every fiducial: states._read_array and its text
        path = tmp_path / "fid.json"
        path.write_text('{"dim": 3, "re": [0.0, 1.0, NaN], "im": [0.0, 0.0, 0.0]}')
        with pytest.raises(DomainError, match="^measurement input has a non-finite entry$"):
            load_fiducial(path)

    @pytest.mark.parametrize("re, im", [("1e400", "0.0"), ("0.0", "-Infinity")])
    def test_rejects_an_infinite_component(self, tmp_path, re, im):
        # 1j * inf in the imaginary part used to warn "invalid value encountered" first
        path = tmp_path / "fid.json"
        path.write_text(f'{{"dim": 3, "re": [0.0, 1.0, {re}], "im": [0.0, 0.0, {im}]}}')
        with pytest.raises(DomainError, match="^measurement input has a non-finite entry$"):
            load_fiducial(path)

    def test_rejects_a_file_that_is_not_json(self, tmp_path):
        # the parse used to run outside the check and raise json.JSONDecodeError
        path = tmp_path / "fid.json"
        path.write_text('{"dim": 3, "re": [0, 1')
        with pytest.raises(DomainError, match="^malformed fiducial JSON: "):
            load_fiducial(path)

    def test_rejects_zero_vector(self, tmp_path):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"dim": 2, "re": [0.0, 0.0], "im": [0.0, 0.0]}))
        with pytest.raises(DomainError):
            load_fiducial(path)

    @pytest.mark.parametrize("path", [0, 3, 3.5, b"fid.json", None], ids=repr)
    def test_rejects_a_path_that_is_not_a_str_or_path(self, path):
        # an int was opened as a file descriptor (0 read stdin, then closed it); 3.5 raised TypeError
        message = f"fiducial path must be a str or os.PathLike, got {path!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            load_fiducial(path)

    def test_reads_a_str_path(self, tmp_path):
        path = tmp_path / "fid.json"
        path.write_text(json.dumps({"dim": 2, "re": [3.0, 4.0], "im": [0.0, 0.0]}))
        loaded, scale = load_fiducial(str(path))
        assert loaded == pytest.approx([0.6, 0.8], abs=1e-15) and scale == pytest.approx(0.2)


class TestPureStateSicStatistics:
    def test_coincidence_constant_on_pure_states(self):
        # 2/(d(d+1)) for every pure state
        for d in (2, 3):
            sic = sic_from_fiducial(d)
            for seed in range(20):
                p = probabilities(sic, random_pure(d, seed)).p
                assert np.sum(p * p) == pytest.approx(
                    2.0 / (d * (d + 1.0)), abs=1e-12
                )
