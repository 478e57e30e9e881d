"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every tolerance is fixed here, not configurable.
"""

import numpy as np
import pytest

from mubsic import (
    DensityMatrix,
    check_bound,
    correlation_G,
    detect_entanglement,
    distort,
    from_bloch,
    index_of_coincidence,
    kron,
    maximally_entangled,
    maximally_mixed,
    max_prob_bound,
    mu_f_bar,
    mu_g_factor,
    mub_construct,
    binary_tsallis,
    probabilities,
    purity,
    random_mixed,
    random_pure,
    sic_from_fiducial,
    simple_bounds,
    stream,
    tsallis,
)
from mubsic.cli import main as cli_main
from mubsic.measurements import orthonormal_basis, sic_povm

MASTER_SEED = 20260810

TSALLIS_GRID = (0.3, 0.5, 1.0, 1.5, 2.0)
RENYI_GRID = (2.0, 3.0, 10.0, np.inf)


def _announce(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} :: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _states(d, count, stream_id):
    rng = stream(MASTER_SEED, stream_id)
    for sample in range(count):
        yield random_mixed(d, 1 + sample % d, rng)


def _stack(d, count, stream_id):
    """The states of :func:`_states` as one stack, from one block of the same stream."""
    normals = stream(MASTER_SEED, stream_id).standard_normal((count, 2, d, d))
    return random_mixed(d, 1 + np.arange(count) % d, normals=normals)


def _worst(reports):
    return min(report.margin for report in reports)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stack_rows_are_the_sequential_draws(d):
    stack = _stack(d, 4 * d, 40 + 10 * d)
    for row, rho in zip(stack.mat, _states(d, 4 * d, 40 + 10 * d), strict=True):
        assert np.array_equal(row, rho.mat)


def test_criterion_01_exact_index_of_coincidence():
    worst = 0.0
    for d in (2, 3):
        sic = sic_from_fiducial(d)
        for rho in _states(d, 1000, d):
            report = check_bound(sic, rho, "P5-sic-ic")
            worst = max(worst, abs(report.margin))
    _announce(
        "01 exact-coincidence",
        worst <= 1e-10,
        f"worst |sum p^2 - (tr rho^2 + 1)/(d(d+1))| = {worst:.3e} over 2000 states",
    )


def test_criterion_02_qubit_special_values():
    sic = sic_from_fiducial(2)
    pure_dev = 0.0
    for seed in range(25):
        p = probabilities(sic, random_pure(2, seed))
        pure_dev = max(pure_dev, abs(index_of_coincidence(p) - 1.0 / 3.0))
    mixed_dev = abs(
        index_of_coincidence(probabilities(sic, maximally_mixed(2))) - 0.25
    )
    ok = pure_dev <= 1e-12 and mixed_dev <= 1e-12
    _announce(
        "02 qubit-values",
        ok,
        f"pure-state dev from 1/3 = {pure_dev:.3e}, I/2 dev from 1/4 = {mixed_dev:.3e}",
    )


def test_criterion_03_design_gram():
    # every SIC probability is x @ D; D^T D holds tr(E_j E_k) = (d delta_jk + 1)/(d^2 (d+1))
    worst, ranks = 0.0, []
    for d in (2, 3):
        design = sic_from_fiducial(d).design
        n = d * d
        want = (d * np.eye(n) + np.ones((n, n))) / (d * d * (d + 1))
        worst = max(worst, float(np.max(np.abs(design.T @ design - want))))
        ranks.append(int(np.linalg.matrix_rank(design)))
    _announce(
        "03 design-gram",
        worst <= 1e-12 and ranks == [4, 9],
        f"worst |D^T D - (d I + J)/(d^2 (d+1))| = {worst:.3e}, ranks {ranks} for d = 2, 3",
    )


def test_criterion_04_mub_bound_suite():
    worst = np.inf
    checks = 0
    for d in (2, 3, 5):
        for m in range(2, d + 2):
            mubs = mub_construct(d, m)
            rho = _stack(d, 500, 40 + 10 * d + m)
            for alpha in TSALLIS_GRID:
                worst = min(worst, _worst(check_bound(mubs, rho, "P1-mub-tsallis", alpha=alpha)))
            for alpha in RENYI_GRID:
                worst = min(worst, _worst(check_bound(mubs, rho, "P2-mub-renyi", alpha=alpha)))
            worst = min(worst, _worst(check_bound(mubs, rho, "P3-mub-minent")))
            checks += 500 * (len(TSALLIS_GRID) + len(RENYI_GRID) + 1)
    _announce(
        "04 mub-suite",
        worst >= -1e-10,
        f"min margin of the three MUB bounds = {worst:.3e} over {checks} checks",
    )


def test_criterion_05_saturation_cases():
    # each family is a set of the paper's equality cases: every margin is 0 in exact arithmetic
    worst = {}

    def record(family, report):
        worst[family] = max(worst.get(family, 0.0), abs(report.margin))

    # the order-2 bound at the tetrahedron direction with the Pauli MUBs
    pauli = mub_construct(2, 3)
    rho = from_bloch(np.ones(3) / np.sqrt(3.0))
    record("P2@tetrahedron", check_bound(pauli, rho, "P2-mub-renyi", alpha=2.0))

    # the SIC min-entropy bound and the max-probability cap at every SIC ket;
    # the SIC and complete-MUB bounds at I/d
    for d in (2, 3):
        sic = sic_from_fiducial(d)
        for ket in sic.kets:
            rho_k = DensityMatrix(np.outer(ket, ket.conj()))
            record("P8@kets,I/d", check_bound(sic, rho_k, "P8-sic-minent"))
            record("APXA@kets", check_bound(sic, rho_k, "APXA-max"))
        mixed = maximally_mixed(d)
        record("P8@kets,I/d", check_bound(sic, mixed, "P8-sic-minent"))
        mubs = mub_construct(d, d + 1)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            record("P1@I/d", check_bound(mubs, mixed, "P1-mub-tsallis", alpha=alpha))
        record("P2@I/d", check_bound(mubs, mixed, "P2-mub-renyi", alpha=2.0))
        record("P3@I/d", check_bound(mubs, mixed, "P3-mub-minent"))
        for alpha in (0.5, 1.0, 2.0):
            record("P6@I/d", check_bound(sic, mixed, "P6-sic-tsallis", alpha=alpha))

        # P9 in Renyi form on two MUBs at a state of the first: g = 1/sqrt(d), lhs = rhs = ln d
        first, second = (orthonormal_basis(b) for b in mubs.kets.reshape(d + 1, d, d)[:2])
        basis_state = DensityMatrix(np.outer(first.kets[0], first.kets[0].conj()))
        for alpha in (1.0, 2.0):
            report = check_bound(
                (first, second), basis_state, "P9-mu-pair", alpha=alpha, kind="renyi"
            )
            record("P9-renyi@basis-state", report)

    # the Pauli-MUB bounds along the Bloch ray r (1, 1, 1)/sqrt(3), I/2 to the tetrahedron
    for r in (0.0, 0.3, 0.7, 1.0):
        rho = from_bloch(r * np.ones(3) / np.sqrt(3.0))
        record("P1@ray", check_bound(pauli, rho, "P1-mub-tsallis", alpha=2.0))
        record("P2@ray", check_bound(pauli, rho, "P2-mub-renyi", alpha=2.0))
        record("P3@ray", check_bound(pauli, rho, "P3-mub-minent"))

    # coincidence-sum saturation on pure qubit states, complete Pauli set
    rng = stream(MASTER_SEED, 99)
    for _ in range(200):
        record("LWBM@pure-qubit", check_bound(pauli, random_pure(2, rng), "LWBM-sum"))

    _announce(
        "05 saturations",
        max(worst.values()) <= 1e-13,
        "worst |margin|: " + ", ".join(f"{family} = {dev:.3e}" for family, dev in worst.items()),
    )


def test_criterion_06_symmetrized_bounds():
    worst = np.inf
    for d in (2, 3, 5):
        mubs = mub_construct(d, d + 1)
        for rho in _states(d, 200, 60 + d):
            for alpha in (1.0, 4.0 / 3.0, 2.0, 10.0):
                for kind in ("tsallis", "renyi"):
                    rep = check_bound(mubs, rho, "P4-mub-sym", alpha=alpha, kind=kind)
                    worst = min(worst, rep.margin)
    _announce(
        "06 symmetrized",
        worst >= -1e-10,
        f"min margin of symmetrized bounds = {worst:.3e} (alpha grid, both kinds)",
    )


def test_criterion_07_sic_single_measurement_suite():
    worst = np.inf
    worst_identity = 0.0
    for d in (2, 3):
        sic = sic_from_fiducial(d)
        rho = _stack(d, 500, 70 + d)
        p = probabilities(sic, rho)
        for alpha in TSALLIS_GRID:
            worst = min(worst, _worst(check_bound(sic, rho, "P6-sic-tsallis", alpha=alpha)))
            for eta in (0.3, 0.8):
                reports = check_bound(sic, rho, "P6-sic-tsallis", alpha=alpha, eta=eta)
                worst = min(worst, _worst(reports))
                identity_dev = np.abs(
                    tsallis(distort(p, eta), alpha)
                    - (eta**alpha * tsallis(p, alpha) + binary_tsallis(eta, alpha))
                )
                worst_identity = max(worst_identity, float(identity_dev.max()))
        for alpha in RENYI_GRID:
            worst = min(worst, _worst(check_bound(sic, rho, "P7-sic-renyi", alpha=alpha)))
        worst = min(worst, _worst(check_bound(sic, rho, "P8-sic-minent")))
        for row in p.p:
            for alpha in (0.5, 1.0, 3.0):
                for kind in ("tsallis", "renyi"):
                    worst = min(worst, simple_bounds(row, d, alpha, kind).margin)
    ok = worst >= -1e-10 and worst_identity <= 1e-12
    _announce(
        "07 sic-suite",
        ok,
        f"min margin = {worst:.3e}, worst distortion-identity residual = "
        f"{worst_identity:.3e}",
    )


def test_criterion_08_maassen_uffink_pair():
    from mubsic.cli import _fixed_rotation

    sic_a = sic_from_fiducial(2)
    sic_b = sic_povm(sic_a.kets @ _fixed_rotation(2).T)
    f_bar = mu_f_bar(sic_a, sic_b)
    worst = np.inf
    overlap_ok = True
    rng = stream(MASTER_SEED, 80)
    for sample in range(500):
        rho = random_mixed(2, 1 + sample % 2, rng)
        for alpha in (1.0, 2.0):
            for kind in ("tsallis", "renyi"):
                rep = check_bound((sic_a, sic_b), rho, "P9-mu-pair", alpha=alpha, kind=kind)
                worst = min(worst, rep.margin)
        overlap_ok = overlap_ok and mu_g_factor(sic_a, sic_b, rho) <= f_bar + 1e-12
    ok = worst >= -1e-10 and overlap_ok
    _announce(
        "08 mu-pair",
        ok,
        f"min pair-bound margin = {worst:.3e}, g <= f-bar on every sample: {overlap_ok}",
    )


def test_criterion_09_max_element_inequality():
    rng = stream(MASTER_SEED, 90)
    worst = -np.inf
    for n in (4, 9, 16):
        dists = rng.dirichlet(np.ones(n), size=10_000)
        caps = np.array([max_prob_bound(n, float(np.sum(p * p))) for p in dists])
        worst = max(worst, float(np.max(dists.max(axis=1) - caps)))
    eq_dev = 0.0
    for n in (4, 9, 16):
        indicator = np.zeros(n)
        indicator[n // 2] = 1.0
        eq_dev = max(
            eq_dev,
            abs(max_prob_bound(n, index_of_coincidence(indicator)) - 1.0),
            abs(max_prob_bound(n, index_of_coincidence(np.ones(n) / n)) - 1.0 / n),
        )
    ok = worst <= 1e-12 and eq_dev <= 1e-12
    _announce(
        "09 max-element",
        ok,
        f"worst (max p - cap) = {worst:.3e} over 3x10^4 distributions, "
        f"boundary equality dev = {eq_dev:.3e}",
    )


def _haar_basis(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return orthonormal_basis((q * (np.diag(r) / np.abs(np.diag(r)))).T)


def test_criterion_10_contraction_precondition():
    rng = stream(MASTER_SEED, 100)
    worst_slack = np.inf
    for trial in range(1000):
        d = 2 + trial % 2
        meas_m = _haar_basis(d, rng)
        meas_n = _haar_basis(d, rng)
        rho = random_mixed(d, 1 + trial % d, rng)
        rep = check_bound((meas_m, meas_n), rho, "APXB-riesz", tolerance=1e-12)
        worst_slack = min(worst_slack, rep.rhs - rep.lhs)
    _announce(
        "10 contraction",
        worst_slack >= -1e-12,
        f"worst 2-norm slack 1 - ||t||_2 = {worst_slack:.3e} over 1000 (state, pair) draws",
    )


def test_criterion_11_entanglement_sketch():
    value_dev = 0.0
    fires = True
    for d in (2, 3):
        sic = sic_from_fiducial(d)
        g = correlation_G(sic, maximally_entangled(d))
        value_dev = max(value_dev, abs(g - 1.0 / d))
        flag, _ = detect_entanglement(sic, maximally_entangled(d))
        fires = fires and flag
    false_positives = 0
    rng = stream(MASTER_SEED, 110)
    for trial in range(1000):
        d = 2 + trial % 2
        rho_a = random_mixed(d, 1 + trial % d, rng)
        rho_b = random_mixed(d, 1 + (trial // 2) % d, rng)
        rho = DensityMatrix(kron(rho_a.mat, rho_b.mat))
        flag, _ = detect_entanglement(sic_from_fiducial(d), rho)
        false_positives += int(flag)
    ok = value_dev <= 1e-12 and fires and false_positives == 0
    _announce(
        "11 entanglement",
        ok,
        f"|G(Phi+) - 1/d| = {value_dev:.3e}, detection fires: {fires}, "
        f"false positives: {false_positives}/1000",
    )


def test_criterion_12_campaign_determinism(tmp_path):
    args = [
        "verify",
        "--dims",
        "2,3",
        "--props",
        "all",
        "--alphas",
        "2",
        "--samples",
        "10",
        "--seed",
        "7",
    ]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _announce(
        "12 determinism",
        ok,
        f"exit codes ({code1}, {code2}), bitwise-identical CSV: {identical}",
    )
