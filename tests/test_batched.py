"""The stacked evaluation core against the public single-state functions.

Every labelled check evaluates a whole (N, d, d) stack of states at once.
Its lhs must equal the public ``renyi``/``tsallis``/``symmetrized``/
``index_of_coincidence`` applied to each basis's ``probabilities`` of each
state on its own, and the rhs of P1-P3 and P6-P8 must be the public bound
function at the state's purity.  A campaign row must depend only on its
(dim, label), order and sample index, whether the label runs alone, next
to other labels on one measurement, or at any place in an order sweep,
whose orders all read the label's one block of states.
"""

import csv
import json
from collections import Counter

import numpy as np
import pytest
from test_measurements import _FIDUCIALS

from mubsic import (
    DensityMatrix,
    DomainError,
    binary_tsallis,
    check_bound,
    conjugate_order,
    correlation_G,
    distort,
    index_of_coincidence,
    kron,
    mub_construct,
    mub_minentropy_bound,
    mub_renyi_bound,
    mub_tsallis_bound,
    probabilities,
    purity,
    random_mixed,
    renyi,
    sic_from_fiducial,
    sic_minentropy_bound,
    sic_renyi_bound,
    sic_tsallis_bound,
    stream,
    symmetrized,
    tsallis,
)
from mubsic import bounds, cli, entropy, states
from mubsic.cli import _fixed_rotation, main
from mubsic.measurements import orthonormal_basis, sic_povm

AGREEMENT = 1e-12
NEAR_ONE = (1.0 - 5e-7, 1.0 + 5e-7)
TSALLIS_ORDERS = (0.5, *NEAR_ONE, 1.0, 2.0)
RENYI_ORDERS = (2.0, 3.0, np.inf)
SYM_ORDERS = (1.0, 1.0 + 5e-7, 2.0)


def _singles(d, seed):
    """Random states of every rank plus |0><0|, whose statistics have zeros."""
    rng = stream(seed, d)
    states = [random_mixed(d, 1 + i % d, rng) for i in range(2 * d)]
    ket0 = np.zeros((d, d))
    ket0[0, 0] = 1.0
    return states + [DensityMatrix(ket0)]


def _stack(singles):
    return DensityMatrix(np.stack([rho.mat for rho in singles]))


def _bases(mubs):
    """Each basis of a MUB set as its own basis record."""
    return [orthonormal_basis(b) for b in mubs.kets.reshape(mubs.shape + (mubs.dim,))]


def _sic(d):
    """The builtin SIC at d = 2, 3, and the SIC of a test fiducial at d = 5, 7."""
    ket = _FIDUCIALS.get(d)
    return sic_from_fiducial(d, None if ket is None else tuple(ket / np.linalg.norm(ket)))


def _pair(d):
    sic = _sic(d)
    return sic, sic_povm(sic.kets @ _fixed_rotation(d).T)


def _assert_lhs(reports, expected):
    assert len(reports) == len(expected)
    for report, want in zip(reports, expected):
        assert abs(report.lhs - want) <= AGREEMENT, (report, want)


def _assert_rhs(reports, stack, bound, *args, eta=None):
    """Each state's rhs is the public bound function at its purity, bit for bit.

    With an efficiency eta it is h_alpha(eta) + eta^alpha times that, alpha
    the first of ``args``.
    """
    for report, p2 in zip(reports, purity(stack), strict=True):
        want = bound(*args, p2)
        if eta is not None:
            want = binary_tsallis(eta, args[0]) + eta ** args[0] * want
        assert report.rhs == want, (report, want)


@pytest.mark.parametrize("d", [2, 3, 5, 7])
class TestBatchedMatchesScalar:
    def test_zero_probabilities_are_present(self, d):
        ket0 = _singles(d, 1)[-1]
        assert min(probabilities(_bases(mub_construct(d, d + 1))[0], ket0).p) == 0.0

    @pytest.mark.parametrize("alpha", TSALLIS_ORDERS)
    @pytest.mark.parametrize("eta", [None, 0.8])
    def test_p1_and_p6(self, d, alpha, eta):
        singles = _singles(d, 2)
        mubs, sic = mub_construct(d, d + 1), _sic(d)

        def stats(p):
            return p if eta is None else distort(p, eta)

        stack = _stack(singles)
        bases = _bases(mubs)
        want = [np.mean([tsallis(stats(probabilities(b, r)), alpha) for b in bases])
                for r in singles]
        reports = check_bound(mubs, stack, "P1-mub-tsallis", alpha=alpha, eta=eta)
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, lambda *a: mub_tsallis_bound(d, d + 1, *a), alpha, eta=eta)
        want = [tsallis(stats(probabilities(sic, r)), alpha) for r in singles]
        reports = check_bound(sic, stack, "P6-sic-tsallis", alpha=alpha, eta=eta)
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, lambda *a: sic_tsallis_bound(d, *a), alpha, eta=eta)

    @pytest.mark.parametrize("alpha", RENYI_ORDERS)
    def test_p2_p3_p7_p8(self, d, alpha):
        singles = _singles(d, 3)
        mubs, sic = mub_construct(d, d + 1), _sic(d)
        stack, bases = _stack(singles), _bases(mubs)
        want = [np.mean([renyi(probabilities(b, r), alpha) for b in bases]) for r in singles]
        reports = check_bound(mubs, stack, "P2-mub-renyi", alpha=alpha)
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, mub_renyi_bound, d, d + 1, alpha)
        want = [renyi(probabilities(sic, r), alpha) for r in singles]
        reports = check_bound(sic, stack, "P7-sic-renyi", alpha=alpha)
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, sic_renyi_bound, d, alpha)
        want = [np.mean([renyi(probabilities(b, r), np.inf) for b in bases]) for r in singles]
        reports = check_bound(mubs, stack, "P3-mub-minent")
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, mub_minentropy_bound, d, d + 1)
        want = [renyi(probabilities(sic, r), np.inf) for r in singles]
        reports = check_bound(sic, stack, "P8-sic-minent")
        _assert_lhs(reports, want)
        _assert_rhs(reports, stack, sic_minentropy_bound, d)

    @pytest.mark.parametrize("alpha", SYM_ORDERS)
    @pytest.mark.parametrize("kind", ["tsallis", "renyi"])
    def test_p4_and_p9(self, d, alpha, kind):
        singles = _singles(d, 4)
        mubs = mub_construct(d, d + 1)
        want = [np.mean([symmetrized(probabilities(b, r), alpha, kind) for b in _bases(mubs)])
                for r in singles]
        _assert_lhs(check_bound(mubs, _stack(singles), "P4-mub-sym", alpha=alpha, kind=kind), want)
        pair = _pair(d)
        fn = tsallis if kind == "tsallis" else renyi
        a, b = alpha, conjugate_order(alpha)
        want = [fn(probabilities(pair[0], r), a) + fn(probabilities(pair[1], r), b)
                for r in singles]
        reports = check_bound(pair, _stack(singles), "P9-mu-pair", alpha=alpha, kind=kind)
        _assert_lhs(reports, want)
        for report, rho in zip(reports, singles):
            single = check_bound(pair, rho, "P9-mu-pair", alpha=alpha, kind=kind)
            assert abs(report.rhs - single.rhs) <= AGREEMENT

    def test_coincidences_and_max_probability(self, d):
        singles = _singles(d, 5)
        mubs, sic = mub_construct(d, d + 1), _sic(d)
        stack = _stack(singles)
        want = [index_of_coincidence(probabilities(sic, r)) for r in singles]
        _assert_lhs(check_bound(sic, stack, "P5-sic-ic"), want)
        bases = _bases(mubs)
        want = [sum(index_of_coincidence(probabilities(b, r)) for b in bases) for r in singles]
        _assert_lhs(check_bound(mubs, stack, "LWBM-sum"), want)
        want = [float(np.max(probabilities(sic, r).p)) for r in singles]
        _assert_lhs(check_bound(sic, stack, "APXA-max"), want)

    def test_riesz_operator_norm_per_state(self, d):
        singles = _singles(d, 6)
        pair = _pair(d)
        reports = check_bound(pair, _stack(singles), "APXB-riesz")
        for report, rho in zip(reports, singles):
            single = check_bound(pair, rho, "APXB-riesz")
            assert abs(report.lhs - single.lhs) <= AGREEMENT
            assert abs(report.rhs - single.rhs) <= AGREEMENT

    def test_entanglement_on_product_stack(self, d):
        sic = _sic(d)
        a, b = _singles(d, 7), _singles(d, 8)[::-1]
        stack = DensityMatrix(kron(np.stack([r.mat for r in a]), np.stack([r.mat for r in b])))
        want = [
            correlation_G(sic, DensityMatrix(kron(x.mat, y.mat)))
            for x, y in zip(a, b)
        ]
        _assert_lhs(check_bound(sic, stack, "ENT-G"), want)


class TestStacks:
    def test_stack_is_validated_as_a_whole(self):
        good = random_mixed(3, 2, 1).mat
        with pytest.raises(DomainError, match="eigenvalue"):
            DensityMatrix(np.stack([good, np.diag([1.5, -0.5, 0.0])]))

    def test_purity_of_a_stack(self):
        singles = _singles(3, 9)
        values = purity(_stack(singles))
        assert values.shape == (len(singles),)
        assert np.max(np.abs(values - [purity(r) for r in singles])) <= 1e-15

    def test_sampled_stack_rows_match_single_draws(self):
        normals = np.random.default_rng(4).standard_normal((5, 2, 3, 3))
        ranks = np.array([1, 2, 3, 1, 2])
        stack = random_mixed(3, ranks, normals=normals)
        for i in range(5):
            single = random_mixed(3, ranks[i], normals=normals[i])
            assert np.array_equal(stack.mat[i], single.mat)
            assert np.linalg.matrix_rank(single.mat, tol=1e-10) == ranks[i]

    def test_single_state_gives_one_report_and_stack_a_list(self):
        sic = sic_from_fiducial(2)
        singles = _singles(2, 10)
        assert check_bound(sic, singles[0], "P5-sic-ic").passed
        reports = check_bound(sic, _stack(singles), "P5-sic-ic")
        assert isinstance(reports, list) and len(reports) == len(singles)


def _cells(path):
    """CSV lines of a report, grouped by (prop, dim, alpha) in file order."""
    with open(path, newline="") as fh:
        header, *lines = fh.read().splitlines()
    cells = {}
    for line in lines:
        row = dict(zip(header.split(","), next(csv.reader([line]))))
        cells.setdefault((row["prop"], row["dim"], row["alpha"]), []).append(line)
    return cells


def _assert_prefix(tmp_path, args, n_short, n_cells):
    """Each cell of an n_short-sample campaign is the start of the same cell at 25 samples."""
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    assert main(args + ["--samples", str(n_short), "--out", str(short)]) == 0
    assert main(args + ["--samples", "25", "--out", str(long)]) == 0
    short_cells, long_cells = _cells(short), _cells(long)
    assert short_cells.keys() == long_cells.keys() and len(short_cells) == n_cells
    for key, lines in short_cells.items():
        assert len(lines) == n_short and len(long_cells[key]) == 25
        assert long_cells[key][:n_short] == lines, key


def test_rows_are_a_prefix_of_longer_campaigns(tmp_path):
    # the replay property: row i depends only on its cell key and i
    args = ["verify", "--dims", "2,3", "--props", "all", "--alphas", "2", "--seed", "5"]
    _assert_prefix(tmp_path, args, 5, 26)


@pytest.mark.parametrize(
    "props,alphas,n_cells",
    [
        ("P1-mub-tsallis", "0.5,1,2", 6),
        ("P2-mub-renyi", "2,3,inf", 6),
        ("P4-mub-sym", "1,2,4", 6),
        ("P3-mub-minent,LWBM-sum", "2", 4),
    ],
)
def test_one_row_campaigns_are_a_prefix_at_dims_5_and_7(tmp_path, props, alphas, n_cells):
    # the mub-orders benchmark's labels; a one-state cell pins the single-state path
    args = ["verify", "--dims", "5,7", "--props", props, "--alphas", alphas, "--seed", "5"]
    _assert_prefix(tmp_path, args, 1, n_cells)


SIC_LABELS = "P5-sic-ic,P6-sic-tsallis,P7-sic-renyi,P8-sic-minent"
# (label, its orders alone, the campaign with its neighbours, their orders); a
# label's states come from its stream (seed, d, code) in both campaigns
FUSED = [
    ("P1-mub-tsallis", "0.5", "P1-mub-tsallis", "0.5,1,2"),
    ("P3-mub-minent", "2", "P3-mub-minent,LWBM-sum", "2"),
    ("LWBM-sum", "2", "P3-mub-minent,LWBM-sum", "2"),
    ("P5-sic-ic", "2", SIC_LABELS, "2"),
    ("P6-sic-tsallis", "2", SIC_LABELS, "2"),
]


def _fiducial_args(tmp_path, d):
    """--fiducial for the dimensions without a builtin SIC."""
    if d not in _FIDUCIALS:
        return []
    ket = _FIDUCIALS[d] / np.linalg.norm(_FIDUCIALS[d])
    path = tmp_path / f"fiducial{d}.json"
    path.write_text(json.dumps({"dim": d, "re": ket.real.tolist(), "im": ket.imag.tolist()}))
    return ["--fiducial", str(path)]


@pytest.mark.parametrize("eta", [None, "0.8"])
@pytest.mark.parametrize("d", [2, 3, 5, 7])
@pytest.mark.parametrize("label, alone_alphas, neighbours, neighbours_alphas", FUSED)
def test_a_cell_gives_the_same_rows_alone_and_in_a_group(
    tmp_path, label, alone_alphas, neighbours, neighbours_alphas, d, eta
):
    args = ["verify", "--dims", str(d), "--samples", "7", "--seed", "11"]
    args += _fiducial_args(tmp_path, d) + ([] if eta is None else ["--eta", eta])
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    assert main(args + ["--props", label, "--alphas", alone_alphas, "--out", str(one)]) == 0
    props = ["--props", neighbours, "--alphas", neighbours_alphas]
    assert main(args + props + ["--out", str(many)]) == 0
    (key, lines), = _cells(one).items()
    assert len(lines) == 7 and _cells(many)[key] == lines, key


def test_a_row_is_its_own_key(tmp_path):
    # LWBM-sum at d = 3 alone, as the second label at the second dim, and in
    # the reference campaign: the same 200 rows, byte for byte
    args = ["verify", "--alphas", "2", "--samples", "200", "--seed", "7"]
    campaigns = [
        ["--dims", "3", "--props", "LWBM-sum"],
        ["--dims", "2,3", "--props", "P3-mub-minent,LWBM-sum"],
        ["--dims", "2,3", "--props", "all"],
    ]
    cells = []
    for i, campaign in enumerate(campaigns):
        path = tmp_path / f"{i}.csv"
        assert main(args + campaign + ["--out", str(path)]) == 0
        cells.append(_cells(path)[("LWBM-sum", "3", "")])
    assert len(cells[0]) == 200 and cells[1] == cells[0] and cells[2] == cells[0]


def test_every_label_keeps_its_rows_whatever_else_runs(tmp_path):
    # the reference labels at seven samples: the same cells in reverse order of
    # dims and labels, and each (dim, label) alone
    args = ["verify", "--alphas", "2", "--samples", "7", "--seed", "3"]
    labels = list(bounds.PROPOSITION_LABELS)
    forward, backward = tmp_path / "forward.csv", tmp_path / "backward.csv"
    assert main(args + ["--dims", "2,3", "--props", "all", "--out", str(forward)]) == 0
    reverse = ["--dims", "3,2", "--props", ",".join(labels[::-1])]
    assert main(args + reverse + ["--out", str(backward)]) == 0
    cells = _cells(forward)
    assert len(cells) == 26 and _cells(backward) == cells
    alone = tmp_path / "alone.csv"
    for d in (2, 3):
        for label in labels:
            assert main(args + ["--dims", str(d), "--props", label, "--out", str(alone)]) == 0
            (key, lines), = _cells(alone).items()
            assert lines == cells[key], key


@pytest.mark.parametrize(
    "argv, labels",
    [
        (["--dims", "5,7", "--props", "P1-mub-tsallis", "--alphas", "0.5,1,2"], 2),
        (["--dims", "5,7", "--props", "P3-mub-minent,LWBM-sum"], 4),
        (["--dims", "2,3", "--props", SIC_LABELS + ",APXA-max", "--alphas", "2"], 10),
        (["--dims", "2", "--props", "P2-mub-renyi,P5-sic-ic,LWBM-sum", "--alphas", "2,3"], 3),
    ],
)
def test_purity_and_probabilities_run_once_per_label(monkeypatch, capsys, argv, labels):
    calls = Counter()
    for module, name in ((bounds, "purity"), (cli, "purity"), (bounds, "probabilities")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert main(["verify", "--samples", "3", "--out", "", *argv]) == 0
    assert "failed=0" in capsys.readouterr().out
    assert calls == {"purity": labels, "probabilities": labels}


@pytest.mark.parametrize(
    "props, alphas, eta, caps, logs",
    [
        ("P1-mub-tsallis", "0.5,1,2", None, 2, 2),
        ("P2-mub-renyi", "2,3,inf", None, 2, 2),  # orders 3 and inf read max p, not ln p
        # a MUB set gives its cap to every label on it, P4 too, whose rhs never reads it
        ("P4-mub-sym", "1,2,4", None, 2, 2),
        ("P3-mub-minent,LWBM-sum", "2", None, 4, 0),  # each label reads a cap of its own
        # the distorted outcomes once per label; binary_tsallis takes ln eta per order
        ("P1-mub-tsallis", "0.5,1,2", "0.8", 2, 8),
    ],
)
def test_a_sweep_takes_the_cap_and_ln_p_once_per_label(
    monkeypatch, capsys, props, alphas, eta, caps, logs
):
    # dims 5 and 7: the cap, with its purity check, the distorted outcomes of
    # an efficiency and ln p of the label's probabilities are taken once per
    # (dim, label), not once per order
    calls = Counter()
    for module, name in ((bounds, "_check_purity"), (entropy, "_log"), (bounds, "distort")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    argv = ["verify", "--dims", "5,7", "--props", props, "--alphas", alphas, "--samples", "3"]
    argv += [] if eta is None else ["--eta", eta]
    assert main([*argv, "--out", ""]) == 0
    assert "failed=0" in capsys.readouterr().out
    distorts = 0 if eta is None else 2
    assert calls == Counter({"_check_purity": caps, "_log": logs, "distort": distorts})


def test_report_text_prints_a_shared_value_once(monkeypatch):
    # P4 at dims 5, 7, orders 1, 2, 4, three samples: 18 rows, each with its lhs
    # and margin; one purity column per dim and one rhs per (dim, order), since
    # half of ln_alpha d is the same for every state; and the order of each cell
    texts = []
    monkeypatch.setattr(cli, "repr", lambda x: texts.append(x) or repr(x), raising=False)
    fields = dict(dims=[5, 7], props=["P4-mub-sym"], alphas=[1, 2, 4], samples=3, seed=2)
    config = cli.CampaignConfig(**fields)
    reports, rows = cli.run_campaign(config)
    assert len(rows) == 18 and len(texts) == 18 + 18 + 6 + 6 + 6
    for report, row in zip(reports, rows, strict=True):
        assert (row["lhs"], row["rhs"], row["margin"]) == (
            repr(report.lhs), repr(report.rhs), repr(report.margin)
        )
    by_dim = {}
    for row in rows:
        by_dim.setdefault(row["dim"], set()).add((row["sample"], row["purity"]))
    assert [len(pairs) for pairs in by_dim.values()] == [3, 3]


# (label, order, its sweep, dims): the order sits first, in the middle or last of its sweep
SWEEPS = [
    ("P1-mub-tsallis", "0.5", "1,0.5,2", (2, 3, 5, 7)),
    ("P2-mub-renyi", "3", "2,3,inf", (2, 3, 5, 7)),
    ("P4-mub-sym", "4", "1,2,4", (2, 3, 5, 7)),
    ("P9-mu-pair", "1.5", "1,1.5,3", (2, 3)),
]
SWEEP_CASES = [
    (label, order, sweep, d, eta)
    for label, order, sweep, dims in SWEEPS
    for d in dims
    for eta in ((None, "0.8") if label == "P1-mub-tsallis" else (None,))
]


@pytest.mark.parametrize("label, order, sweep, d, eta", SWEEP_CASES)
def test_an_order_gives_the_same_rows_alone_and_in_a_sweep(tmp_path, label, order, sweep, d, eta):
    # every order of a label reads the label's one block, drawn from stream (seed, d, code)
    args = ["verify", "--dims", str(d), "--props", label, "--samples", "7", "--seed", "11"]
    args += [] if eta is None else ["--eta", eta]
    one, many = tmp_path / "one.csv", tmp_path / "many.csv"
    assert main(args + ["--alphas", order, "--out", str(one)]) == 0
    assert main(args + ["--alphas", sweep, "--out", str(many)]) == 0
    (key, lines), = _cells(one).items()
    assert len(lines) == 7 and _cells(many)[key] == lines


def test_every_order_of_a_label_reads_the_same_states():
    # each (dim, label) is a stack of its own, read by every order of the label
    labels = ["P1-mub-tsallis", "P4-mub-sym", "P9-mu-pair"]
    alphas = [1.0, 1.5, 2.0]
    config = cli.CampaignConfig(dims=[2, 3], props=labels, alphas=alphas, samples=9, seed=4)
    purities = {}
    for row in cli.run_campaign(config)[1]:
        by_order = purities.setdefault((row["prop"], row["dim"]), {})
        by_order.setdefault(row["alpha"], []).append(row["purity"])
    assert len(purities) == 6
    columns = []
    for by_order in purities.values():
        assert list(by_order) == ["1.0", "1.5", "2.0"]
        first, *rest = by_order.values()
        assert len(first) == 9 and all(column == first for column in rest)
        columns.append(first)
    # each (dim, label) has its own block
    assert len({tuple(column) for column in columns}) == 6


def test_each_stack_holds_one_labels_states(monkeypatch, capsys):
    # the reference labels at seven samples: one stack of 7 per (dim, label),
    # and ENT-G's 14 party states with their 7 products; none holds two labels
    sizes = []
    for module in (cli, states):
        original = module.DensityMatrix

        def counted(mat, _original=original):
            sizes.append(len(mat))
            return _original(mat)

        monkeypatch.setattr(module, "DensityMatrix", counted)
    argv = ["verify", "--dims", "2,3", "--props", "all", "--alphas", "2", "--samples", "7"]
    assert main([*argv, "--out", ""]) == 0
    assert "checks=182 failed=0" in capsys.readouterr().out
    assert Counter(sizes) == {7: 26, 14: 2}


@pytest.mark.parametrize(
    "dims, props, alphas, keys",
    [
        ("5,7", "P1-mub-tsallis", "0.5,1,2", [(5, 1), (7, 1)]),
        ("5,7", "P1-mub-tsallis,P4-mub-sym", "1,2", [(5, 1), (5, 4), (7, 1), (7, 4)]),
        ("7,5", "P4-mub-sym,P1-mub-tsallis", "1,2", [(7, 4), (7, 1), (5, 4), (5, 1)]),
        # a pair label, with one block for all its orders
        ("2,3", "P9-mu-pair", "1,1.5,3", [(2, 9), (3, 9)]),
    ],
)
def test_one_stream_per_dim_and_label(monkeypatch, capsys, dims, props, alphas, keys):
    for d in (2, 3):  # the pairs' fixed rotations are drawn once per process, before counting
        cli.measurement("pair", d, None, None)
    drawn = []
    original = cli.stream

    def counted(seed, *ids):
        drawn.append(ids)
        return original(seed, *ids)

    monkeypatch.setattr(cli, "stream", counted)
    argv = ["verify", "--dims", dims, "--props", props, "--alphas", alphas, "--samples", "3"]
    assert main(argv + ["--out", ""]) == 0
    assert "failed=0" in capsys.readouterr().out
    # each (dim, label) is keyed (d, code), in plan order
    assert drawn == keys


@pytest.mark.parametrize(
    "label, alphas", [("P1-mub-tsallis", [0.5, 1.0, 2.0]), ("P2-mub-renyi", [2.0, 3.0, np.inf])]
)
def test_both_sides_fall_with_the_order_on_shared_states(label, alphas):
    # Tsallis and Renyi entropies decrease in the order, and so do ln_a(1/C)
    # and a/(2(a - 1)) ln(1/C); on one set of states each row must follow
    config = cli.CampaignConfig(dims=[2, 3, 5, 7], props=[label], alphas=alphas, samples=40, seed=7)
    sides = {}
    for row in cli.run_campaign(config)[1]:
        pair = float(row["lhs"]), float(row["rhs"])
        sides.setdefault((row["dim"], row["sample"]), []).append(pair)
    assert len(sides) == 160
    for key, by_order in sides.items():
        assert len(by_order) == 3
        for (lhs, rhs), (next_lhs, next_rhs) in zip(by_order, by_order[1:]):
            assert next_lhs <= lhs + 1e-12 and next_rhs <= rhs + 1e-12, key
