import ast
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mubsic import (
    DomainError,
    cli,
    entanglement,
    maximally_mixed,
    random_mixed,
    random_pure,
    states,
    to_json,
)
from mubsic.linalg import kron
from mubsic.cli import main


class TestMubCommand:
    def test_qutrit_full_set(self, tmp_path, capsys):
        out = tmp_path / "mubs.json"
        assert main(["mub", "--dim", "3", "--count", "4", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 3 and payload["count"] == 4
        assert len(payload["bases"]) == 4
        assert payload["max_unbiasedness_deviation"] < 1e-12
        vectors = np.asarray(payload["bases"][1]["re"]) + 1j * np.asarray(
            payload["bases"][1]["im"]
        )
        assert np.max(np.abs(np.abs(vectors) - 1.0 / np.sqrt(3.0))) < 1e-12

    def test_unsupported_dimension_exits_2(self, capsys):
        assert main(["mub", "--dim", "6", "--count", "3"]) == 2
        assert "unsupported dimension" in capsys.readouterr().err

    def test_qubit_pauli_bases(self, capsys):
        assert main(["mub", "--dim", "2", "--count", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        z = np.asarray(payload["bases"][0]["re"])
        assert np.allclose(z, np.eye(2))
        y = np.asarray(payload["bases"][2]["re"]) + 1j * np.asarray(
            payload["bases"][2]["im"]
        )
        assert np.allclose(np.abs(y), 1.0 / np.sqrt(2.0))


class TestVerifyCommand:
    def test_small_campaign_all_props(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "verify",
                "--dims",
                "2,3",
                "--props",
                "all",
                "--alphas",
                "2",
                "--samples",
                "5",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "campaign produced no rows"
        header = rows[0].keys()
        assert list(header) == [
            "prop",
            "dim",
            "M",
            "alpha",
            "eta",
            "seed",
            "sample",
            "purity",
            "lhs",
            "rhs",
            "margin",
            "saturated",
        ]
        labels = {r["prop"] for r in rows}
        assert len(labels) == 13
        summary = capsys.readouterr().out
        assert "failed=0" in summary

    def test_exact_identity_rows_saturated(self, tmp_path):
        out = tmp_path / "p5.csv"
        assert (
            main(
                [
                    "verify",
                    "--dims",
                    "2,3",
                    "--props",
                    "P5-sic-ic",
                    "--samples",
                    "20",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for row in rows:
            assert abs(float(row["margin"])) <= 1e-10
            assert row["saturated"] == "true"

    def test_alpha_out_of_proposition_range_exits_2(self, capsys):
        code = main(
            ["verify", "--dims", "2", "--props", "P1-mub-tsallis", "--alphas", "3", "--samples", "2"]
        )
        assert code == 2
        assert "(0, 2]" in capsys.readouterr().err

    def test_nan_tolerance_exits_2(self, capsys):
        args = ["verify", "--dims", "2", "--props", "P5-sic-ic", "--samples", "2"]
        assert main(args + ["--tolerance", "nan"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_whole_plan_validated_before_sampling(self, tmp_path, monkeypatch, capsys):
        # d = 7 has no builtin SIC fiducial; nothing may be sampled or written
        def no_sampling(*args, **kwargs):
            raise AssertionError("a state was sampled before the plan was validated")

        monkeypatch.setattr(cli, "_ginibre_states", no_sampling)
        out = tmp_path / "report.csv"
        args = ["verify", "--dims", "7,5", "--props", "all", "--samples", "2"]
        assert main(args + ["--out", str(out)]) == 2
        assert "builtin fiducial" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_order_found_before_sampling(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "stream", lambda *a: pytest.fail("sampled before validation"))
        code = main(
            ["verify", "--dims", "2", "--props", "P2-mub-renyi,P1-mub-tsallis", "--alphas", "3"]
        )
        assert code == 2
        assert "(0, 2]" in capsys.readouterr().err

    def test_unknown_proposition_exits_2(self, capsys):
        code = main(["verify", "--props", "P0-nope", "--samples", "1"])
        assert code == 2

    def test_empty_campaign_exits_2(self, capsys):
        code = main(["verify", "--dims", "", "--props", "P1-mub-tsallis", "--samples", "1"])
        assert code == 2
        assert "empty" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "empty, message",
        [
            ("dims", "^campaign is empty: "),
            ("props", "^campaign is empty: "),
            # no orders leave an order-dependent label with none, not out of the plan
            ("alphas", "^P1-mub-tsallis needs an order alpha$"),
        ],
        ids=["dims", "props", "alphas"],
    )
    def test_library_campaign_rejects_an_empty_plan(self, monkeypatch, empty, message):
        monkeypatch.setattr(cli, "stream", lambda *a: pytest.fail("sampled an empty campaign"))
        fields = dict(dims=[2], props=["P1-mub-tsallis"], alphas=[2.0], samples=1, seed=0)
        fields[empty] = []
        with pytest.raises(DomainError, match=message):
            cli.run_campaign(cli.CampaignConfig(**fields))

    def test_no_orders_still_run_order_free_labels(self):
        fields = dict(dims=[2], props=["P3-mub-minent", "P5-sic-ic"], alphas=[], samples=2, seed=0)
        reports, rows = cli.run_campaign(cli.CampaignConfig(**fields))
        assert [r["prop"] for r in rows] == ["P3-mub-minent"] * 2 + ["P5-sic-ic"] * 2
        assert {r["alpha"] for r in rows} == {""} and all(r.passed for r in reports)

    @pytest.mark.parametrize(
        "field, value", [("dims", 3), ("props", "P5-sic-ic"), ("alphas", None)]
    )
    def test_library_campaign_list_fields_must_be_lists(self, field, value):
        # a string would be read letter by letter, a scalar or None is not iterable
        fields = dict(dims=[2], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0)
        fields[field] = value
        with pytest.raises(DomainError, match=f"^{field} must be a list or tuple, got "):
            cli.CampaignConfig(**fields)

    def test_tiny_tolerance_flags_violation(self, tmp_path, capsys):
        # the exact identity holds to ~1e-16; an absurd 1e-18 tolerance
        # must trip the violation exit path, and the summary is still the
        # reduction of the rows
        out = tmp_path / "tight.json"
        code = main(
            [
                "verify",
                "--dims",
                "2",
                "--props",
                "P5-sic-ic",
                "--samples",
                "10",
                "--seed",
                "1",
                "--tolerance",
                "1e-18",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads(out.read_text())
        rows, summary = report["rows"], report["summary"]
        margins = [float(r["margin"]) for r in rows]
        reduced = {
            "checks": len(rows),
            "failed": sum(not abs(m) <= 1e-18 for m in margins),  # P5's "==" pass rule
            "min_margin": min(margins),
            "saturated": sum(r["saturated"] == "true" for r in rows),
        }
        assert summary == reduced and repr(summary["min_margin"]) == repr(min(margins))
        assert summary["checks"] == 10 and summary["failed"] > 0
        line = "checks={checks} failed={failed} min_margin={min_margin!r} saturated={saturated}/{checks}"
        assert capsys.readouterr().out == line.format(**summary) + "\n"

    def test_unwritable_output_exits_3(self):
        code = main(
            [
                "verify",
                "--dims",
                "2",
                "--props",
                "P5-sic-ic",
                "--samples",
                "1",
                "--out",
                "/nonexistent-dir/report.csv",
            ]
        )
        assert code == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--dims",
                "2",
                "--props",
                "P8-sic-minent",
                "--samples",
                "4",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["checks"] == 4
        assert payload["summary"]["failed"] == 0
        assert len(payload["rows"]) == 4

    def test_json_report_has_one_row_per_line(self, tmp_path):
        out = tmp_path / "report.json"
        args = ["verify", "--dims", "2", "--props", "P8-sic-minent,P1-mub-tsallis"]
        assert main(args + ["--samples", "3", "--format", "json", "--out", str(out)]) == 0
        text = out.read_text()
        lines = text.splitlines()
        assert lines[0] == '{"rows": [' and lines[-2] == "],"
        rows = [json.loads(line.rstrip(",")) for line in lines[1:-2]]
        config = cli.CampaignConfig(
            dims=[2], props=["P8-sic-minent", "P1-mub-tsallis"], alphas=[2.0], samples=3, seed=0
        )
        _, expected = cli.run_campaign(config)
        assert rows == expected
        assert json.loads(text) == {"rows": expected, "summary": json.loads(lines[-1][11:-1])}

    def test_eta_applies_to_tsallis_props(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = main(
            [
                "verify",
                "--dims",
                "2",
                "--props",
                "P1-mub-tsallis,P6-sic-tsallis,P8-sic-minent",
                "--alphas",
                "0.5,1,2",
                "--eta",
                "0.8",
                "--samples",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        etas = {r["prop"]: r["eta"] for r in rows}
        assert etas["P1-mub-tsallis"] == repr(0.8)
        assert etas["P6-sic-tsallis"] == repr(0.8)
        assert etas["P8-sic-minent"] == ""

    def test_determinism_bitwise(self, tmp_path):
        args = [
            "verify",
            "--dims",
            "2,3",
            "--props",
            "P1-mub-tsallis,P5-sic-ic,P9-mu-pair,APXB-riesz",
            "--alphas",
            "1,2",
            "--samples",
            "10",
            "--seed",
            "42",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_count_flag_limits_mub_set(self, tmp_path):
        out = tmp_path / "partial.csv"
        code = main(
            [
                "verify",
                "--dims",
                "5",
                "--props",
                "P1-mub-tsallis,LWBM-sum",
                "--alphas",
                "1",
                "--count",
                "3",
                "--samples",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["M"] == "3" for r in rows)

    def test_different_seeds_differ(self, tmp_path):
        base = [
            "verify",
            "--dims",
            "2",
            "--props",
            "P1-mub-tsallis",
            "--alphas",
            "1",
            "--samples",
            "5",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_large_renyi_orders_report_finite_margins(self, tmp_path, capsys):
        # p^alpha underflows at these orders; lhs and margin used to read inf
        out = tmp_path / "large.csv"
        args = ["verify", "--dims", "2,3", "--props", "P2-mub-renyi,P7-sic-renyi"]
        args += ["--alphas", "1100,5000", "--samples", "6", "--out", str(out)]
        assert main(args) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 48
        for row in rows:
            assert np.isfinite(float(row["lhs"])) and np.isfinite(float(row["margin"]))
        assert "min_margin=inf" not in capsys.readouterr().out

    def test_config_rejects_dimension_below_2(self):
        with pytest.raises(DomainError, match=r"^dimension must be >= 2, got 1$"):
            cli.CampaignConfig(dims=[2, 1], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0)

    @pytest.mark.parametrize(
        "dims, props, alphas, repeat",
        [
            ([2, 2], ["P5-sic-ic"], [2.0], "2"),
            ([2, 3, 5, 3, 2], ["P5-sic-ic"], [2.0], "3"),
            ([2], ["P1-mub-tsallis", "P5-sic-ic", "P1-mub-tsallis"], [2.0], "'P1-mub-tsallis'"),
            # an integral float is the dimension it names
            ([3.0, 3], ["P5-sic-ic"], [2.0], "3"),
            # the first repeat is named, the dims read before the labels
            ([2, 2], ["P5-sic-ic", "P5-sic-ic"], [2.0], "2"),
            # orders are compared as validated: 2 and 2.0 are one order, "inf" and inf too
            ([2], ["P1-mub-tsallis"], [2, 2.0], "2.0"),
            ([2], ["P2-mub-renyi"], [2, "inf", np.inf], "inf"),
            # the dims read before the orders
            ([3, 3], ["P1-mub-tsallis"], [2, 2.0], "3"),
        ],
        ids=[
            "dims", "first-dim", "props", "float-dim", "both", "order", "inf-order", "dim-and-order"
        ],
    )
    def test_config_rejects_a_repeated_dim_or_label(self, dims, props, alphas, repeat):
        # a row is keyed by its (dim, label, order), so a repeat would write its rows twice
        message = f"campaign repeats {repeat}: its rows would be written twice"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cli.CampaignConfig(dims=dims, props=props, alphas=alphas, samples=1, seed=0)

    @pytest.mark.parametrize(
        "seed, message",
        [(2.5, r"^seed must be an integer, got 2\.5$"), (-1, r"^seed must be >= 0, got -1$")],
    )
    def test_config_applies_the_seed_rule(self, seed, message):
        # a fractional seed used to draw the states of its integer part
        with pytest.raises(DomainError, match=message):
            cli.CampaignConfig(dims=[2], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=seed)

    @pytest.mark.parametrize(
        "count, message",
        [
            (2.5, r"^basis count must be an integer, got 2\.5$"),
            (1, r"^basis count must be >= 2, got 1$"),
            ("3", r"^basis count must be an integer, got '3'$"),
        ],
        ids=("fraction", "below-2", "string"),
    )
    def test_config_applies_the_count_rule(self, count, message):
        # the count used to be checked only when a MUB set was built
        with pytest.raises(DomainError, match=message):
            cli.CampaignConfig(
                dims=[3], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0, count=count
            )

    def test_count_checked_without_a_mub_label(self, capsys):
        args = ["verify", "--dims", "2", "--props", "P5-sic-ic", "--samples", "2", "--count", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err == "error: basis count must be >= 2, got 1\n"

    def test_integral_float_counts_run_as_ints(self):
        # a float dimension used to reach the sampler and fail there with a TypeError
        def rows(dims, samples, seed):
            config = cli.CampaignConfig(
                dims=dims,
                props=list(cli.bnd.PROPOSITION_LABELS),
                alphas=[2.0],
                samples=samples,
                seed=seed,
            )
            return cli.run_campaign(config)[1]

        assert rows([2.0], 2.0, 3.0) == rows([2], 2, 3)


class TestMeasurementBuilder:
    @staticmethod
    def _config():
        props = ["P1-mub-tsallis", "P5-sic-ic", "P9-mu-pair", "APXA-max", "ENT-G"]
        return cli.CampaignConfig(dims=[2, 3], props=props, alphas=[2.0], samples=2, seed=1)

    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        return calls

    def test_each_measurement_built_once_per_process(self, monkeypatch):
        cli.measurement.cache_clear()
        sics = self._count_calls(monkeypatch, "sic_from_fiducial")
        mubs = self._count_calls(monkeypatch, "mub_construct")
        first = cli.run_campaign(self._config())
        second = cli.run_campaign(self._config())
        # one SIC per dim serves P5, P9's pair, APXA and ENT-G, in both campaigns
        assert [a[0] for a in sics] == [2, 3]
        assert [a[0] for a in mubs] == [2, 3]
        assert first[1] == second[1]

    def test_product_povm_built_once_per_sic(self):
        cli.measurement.cache_clear()
        entanglement.product_sic_povm.cache_clear()
        config = cli.CampaignConfig(dims=[2, 3], props=["ENT-G"], alphas=[2.0], samples=1, seed=1)
        rows = [cli.run_campaign(config)[1] for _ in range(3)]
        # each one-row campaign reuses the witness operator of its dimension's SIC
        info = entanglement.product_sic_povm.cache_info()
        assert (info.misses, info.hits) == (2, 4)
        assert rows[0] == rows[1] == rows[2]

    def test_failed_construction_is_not_memoized(self, capsys):
        args = ["verify", "--dims", "5", "--props", "P5-sic-ic", "--samples", "2"]
        for _ in range(2):
            assert main(args) == 2
            assert "builtin fiducial" in capsys.readouterr().err

    def test_verify_with_fiducial_file(self, tmp_path, capsys):
        # the builtin d = 3 fiducial (0, 1, -1)/sqrt(2), scaled by sqrt(2)
        fid = tmp_path / "fid.json"
        fid.write_text(json.dumps({"dim": 3, "re": [0.0, 1.0, -1.0], "im": [0.0, 0.0, 0.0]}))
        args = ["verify", "--dims", "2,3", "--props", "P5-sic-ic,P9-mu-pair", "--samples", "3"]
        args += ["--fiducial", str(fid), "--out", str(tmp_path / "report.csv")]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "failed=0" in captured.out
        assert captured.err.count(f"fiducial rescaled by factor {1.0 / 2.0**0.5!r}") == 1
        # the same path, rewritten to a unit ket whose orbit is not a SIC
        fid.write_text(json.dumps({"dim": 3, "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}))
        assert main(args) == 2
        assert "SIC conditions" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [5, 0, 3.5, b"fid.json"], ids=repr)
    def test_config_takes_only_a_str_or_path_fiducial(self, monkeypatch, path):
        # an int used to be opened as a file descriptor: 0 read stdin and closed it
        monkeypatch.setattr(cli, "load_fiducial", lambda p: pytest.fail("opened"))
        message = f"fiducial path must be a str or os.PathLike, got {path!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cli.CampaignConfig(
                dims=[3], props=["P5-sic-ic"], alphas=[2.0], samples=1, seed=0, fiducial_path=path
            )

    def test_library_campaign_reads_a_path_fiducial(self, tmp_path):
        fid = tmp_path / "fid.json"
        fid.write_text(json.dumps({"dim": 3, "re": [0.0, 1.0, -1.0], "im": [0.0, 0.0, 0.0]}))
        fields = dict(dims=[3], props=["P5-sic-ic"], alphas=[2.0], samples=2, seed=0)
        by_path = cli.run_campaign(cli.CampaignConfig(**fields, fiducial_path=fid))
        assert by_path == cli.run_campaign(cli.CampaignConfig(**fields, fiducial_path=str(fid)))
        assert by_path == cli.run_campaign(cli.CampaignConfig(**fields))


class TestRepeatedCampaign:
    """One-row campaigns run again in one process, and the ENT-G sampler."""

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            (dict(dims=[5], props=["P5-sic-ic"]), DomainError, "no builtin fiducial"),
            (dict(dims=[2], props=["P1-mub-tsallis"], alphas=[3.0]), DomainError, "(0, 2]"),
            (dict(dims=[4], props=["P3-mub-minent"]), DomainError, "unsupported dimension 4"),
        ],
        ids=["fiducial", "order", "mub-dimension"],
    )
    def test_rejected_config_raises_on_every_call(self, monkeypatch, fields, error, message):
        monkeypatch.setattr(cli, "stream", lambda *a: pytest.fail("sampled a rejected campaign"))
        config = cli.CampaignConfig(**{"alphas": [2.0], "samples": 1, "seed": 0, **fields})
        for _ in range(3):
            with pytest.raises(error, match=re.escape(message)):
                cli.run_campaign(config)

    def test_rewritten_fiducial_file_is_read_again(self, tmp_path, capsys):
        fid = tmp_path / "fid.json"
        config = cli.CampaignConfig(
            dims=[3], props=["P5-sic-ic"], alphas=[2.0], samples=3, seed=4, fiducial_path=fid
        )

        def write(re):
            fid.write_text(json.dumps({"dim": 3, "re": re, "im": [0.0, 0.0, 0.0]}))

        write([0.0, 1.0, -1.0])  # the builtin fiducial scaled by sqrt(2)
        first = cli.run_campaign(config)
        assert capsys.readouterr().err == f"fiducial rescaled by factor {1.0 / 2.0**0.5!r}\n"
        write([1.0, 0.0, 0.0])  # a unit ket whose orbit is not a SIC
        with pytest.raises(ValueError, match="SIC conditions"):
            cli.run_campaign(config)
        write([0.0, 2.0, -2.0])
        assert cli.run_campaign(config) == first
        assert capsys.readouterr().err == f"fiducial rescaled by factor {1.0 / 8.0**0.5!r}\n"

    def test_zero_efficiency_keeps_its_sign(self):
        # 0.0 == -0.0, but the eta column prints the sign
        fields = dict(dims=[2], props=["P1-mub-tsallis"], alphas=[2.0], samples=1, seed=0)
        rows = [cli.run_campaign(cli.CampaignConfig(**fields, eta=e))[1] for e in (0.0, -0.0, 0.0)]
        assert [r[0]["eta"] for r in rows] == ["0.0", "-0.0", "0.0"]

    @pytest.mark.parametrize("d", [2, 3])
    def test_ent_g_parties_sampled_as_one_stack(self, monkeypatch, d):
        n, seed = 2 * d + 1, 13
        config = cli.CampaignConfig(dims=[d], props=["ENT-G"], alphas=[], samples=n, seed=seed)
        [label] = cli._plan(config)
        validations, kernel_calls = [], []
        for module in (cli, states):
            original = module.DensityMatrix

            def counted(mat, _original=original):
                validations.append(np.shape(mat))
                return _original(mat)

            monkeypatch.setattr(module, "DensityMatrix", counted)

        def kernel(normals, rank, _original=cli._ginibre_states):
            kernel_calls.append(np.shape(normals))
            return _original(normals, rank)

        monkeypatch.setattr(cli, "_ginibre_states", kernel)
        rho = cli._states(label, config)
        # one kernel call on the 2N party blocks, one validation of the 2N
        # party states and one of the N products
        assert kernel_calls == [(2 * n, 2, d, d)]
        assert validations == [(2 * n, d, d), (n, d * d, d * d)]
        monkeypatch.undo()
        # the product of two separate samplers on the same normals, bit for bit, drawn
        # from the stream (seed, d, code) of ENT-G at d
        code = cli.bnd.PROPOSITIONS["ENT-G"].code
        draws = states.stream(seed, d, code).standard_normal((n, 4 * d * d))
        i = np.arange(n)
        a = random_mixed(d, 1 + i % d, normals=draws[:, : 2 * d * d].reshape(n, 2, d, d))
        b = random_mixed(d, 1 + (i // d) % d, normals=draws[:, 2 * d * d :].reshape(n, 2, d, d))
        assert rho.mat.tobytes() == kron(a.mat, b.mat).tobytes()

    @pytest.mark.parametrize(
        "d, prop",
        [
            (2, "P1-mub-tsallis"),
            (3, "P6-sic-tsallis"),
            (5, "P2-mub-renyi"),
            (7, "LWBM-sum"),
        ],
    )
    def test_each_stack_is_random_mixed_of_its_block(self, monkeypatch, d, prop):
        # the campaign hands its own block and ranks to random_mixed's kernel,
        # past the reader: the stack is random_mixed's on that block, bit for
        # bit (ENT-G's 2N-row stack: test_ent_g_parties_sampled_as_one_stack)
        n, seed = 2 * d + 1, 11
        config = cli.CampaignConfig(dims=[d], props=[prop], alphas=[2.0], samples=n, seed=seed)
        [label] = cli._plan(config)
        stacks = []

        def kernel(normals, rank, _original=cli._ginibre_states):
            stacks.append(_original(normals, rank))
            return stacks[-1]

        monkeypatch.setattr(cli, "_ginibre_states", kernel)
        rho = cli._states(label, config)
        code = cli.bnd.PROPOSITIONS[prop].code
        block = states.stream(seed, d, code).standard_normal((n, 2 * d * d))
        want = random_mixed(d, 1 + np.arange(n) % d, normals=block.reshape(n, 2, d, d))
        assert len(stacks) == 1 and rho is stacks[0]
        assert rho.mat.tobytes() == want.mat.tobytes()


class TestCoincidenceCommand:
    def test_maximally_mixed_default(self, capsys):
        assert main(["coincidence", "--dim", "2"]) == 0
        out = capsys.readouterr().out
        assert "lhs=0.25" in out and "rhs=0.25" in out

    def test_pure_state_value(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(to_json(random_pure(2, 5)))
        assert main(["coincidence", "--dim", "2", "--state", str(path)]) == 0
        out = capsys.readouterr().out
        lhs = float(out.split("lhs=")[1].split()[0])
        assert lhs == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_random_state(self, capsys):
        assert main(["coincidence", "--dim", "3", "--random-rank", "2", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "residual=" in out
        residual = float(out.split("residual=")[1])
        assert residual <= 1e-12

    def test_state_dimension_mismatch(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(to_json(maximally_mixed(3)))
        assert main(["coincidence", "--dim", "2", "--state", str(path)]) == 2

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
    def test_non_finite_state_entry_exits_2(self, tmp_path, capsys, value):
        # an inf entry used to warn "invalid value encountered" first: a traceback, exit 1
        path = tmp_path / "state.json"
        path.write_text(f'{{"dim": 2, "re": [[{value}, 0.0], [0.0, 0.5]], "im": [[0, 0], [0, 0]]}}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["coincidence", "--dim", "2", "--state", str(path)]) == 2
        assert capsys.readouterr().err == "error: density matrix has a non-finite entry\n"

    def test_dimension_zero_exits_2(self, capsys):
        assert main(["coincidence", "--dim", "0"]) == 2
        assert capsys.readouterr().err == "error: dimension must be >= 2, got 0\n"

    def test_stray_value_error_exits_2(self, monkeypatch, capsys):
        def broken(args):
            raise ValueError("math domain error")

        monkeypatch.setattr(cli, "cmd_coincidence", broken)
        assert main(["coincidence", "--dim", "2"]) == 2
        assert "math domain error" in capsys.readouterr().err

    def test_unsupported_dim_without_fiducial(self, capsys):
        assert main(["coincidence", "--dim", "5"]) == 2
        assert "builtin" in capsys.readouterr().err

    def test_fiducial_override(self, tmp_path, capsys):
        fid = tmp_path / "fid.json"
        fid.write_text(
            json.dumps({"dim": 3, "re": [0.0, 1.0, -1.0], "im": [0.0, 0.0, 0.0]})
        )
        assert main(["coincidence", "--dim", "3", "--fiducial", str(fid)]) == 0


_P5 = ["verify", "--dims", "2", "--props", "P5-sic-ic", "--samples", "2"]

# (arguments, exit code, start of stderr for codes 2 and 3, of stdout for 0 and 1);
# {dir} is a directory, {missing} a path that does not exist, {malformed} bad JSON
EXIT_CONTRACT = [
    (["mub", "--dim", "4", "--count", "3"], 2, "error:"),
    (["mub", "--dim", "3", "--count", "9"], 2, "error:"),
    (["mub", "--dim", "3", "--count", "4", "--out", "{dir}"], 3, "i/o error:"),
    (_P5 + ["--dims", "x"], 2, "error:"),
    (_P5 + ["--samples", "0"], 2, "error:"),
    (_P5 + ["--alphas", "nan"], 2, "error:"),
    (_P5 + ["--eta", "2"], 2, "error:"),
    (_P5 + ["--seed", "-1"], 2, "error:"),
    (_P5 + ["--dims", "3", "--fiducial", "{missing}"], 3, "i/o error:"),
    (_P5 + ["--dims", "3", "--fiducial", "{malformed}"], 2, "error:"),
    (_P5 + ["--out", "{dir}"], 3, "i/o error:"),
    (_P5 + ["--format", "xml"], 2, "usage:"),
    (["coincidence", "--dim", "2", "--state", "{missing}"], 3, "i/o error:"),
    (["coincidence", "--dim", "2", "--state", "{malformed}"], 2, "error:"),
    (["coincidence", "--dim", "2", "--random-rank", "0"], 2, "error:"),
    (["coincidence", "--dim", "0"], 2, "error:"),
    (["coincidence", "--dim", "2", "--tolerance", "-1"], 2, "error:"),
    (["coincidence", "--dim", "5"], 2, "error:"),
    (_P5 + ["--samples", "10", "--seed", "1", "--tolerance", "1e-18"], 1, "prop,dim,M,"),
    # a stack above the 128 TiB user address space: numpy refuses it before touching memory
    (_P5 + ["--samples", "10000000000000"], 2, "error: Unable to allocate"),
    # an empty --out writes to stdout for every writer
    (["mub", "--dim", "2", "--count", "3", "--out", ""], 0, '{\n  "dim": 2,'),
    (_P5 + ["--out", ""], 0, "prop,dim,M,"),
    (_P5 + ["--format", "json", "--out", ""], 0, '{"rows": [\n'),
    # an infinite tolerance would pass every margin
    (_P5 + ["--tolerance", "inf"], 2, "error:"),
    (["coincidence", "--dim", "2", "--tolerance", "inf"], 2, "error:"),
    # a removed option is a usage error
    (_P5 + ["--trials", "3"], 2, "usage:"),
    # an order-dependent label with no order is an error, not a dropped cell
    (
        ["verify", "--dims", "2", "--props", "P1-mub-tsallis,P5-sic-ic", "--alphas", ""],
        2,
        "error: P1-mub-tsallis needs an order alpha\n",
    ),
    # dimensions below 2 are rejected before any measurement is looked up
    (["coincidence", "--dim", "-3"], 2, "error: dimension must be >= 2, got -3\n"),
    (_P5 + ["--dims", "0"], 2, "error: dimension must be >= 2, got 0\n"),
    (_P5 + ["--dims", "3,1"], 2, "error: dimension must be >= 2, got 1\n"),
    (["verify", "--dims", "0", "--props", "APXA-max"], 2, "error: dimension must be >= 2, got 0\n"),
    (_P5 + ["--seed", "-1"], 2, "error: seed must be >= 0, got -1\n"),
    # a sampled state's seed is checked like a campaign's
    (
        ["coincidence", "--dim", "2", "--random-rank", "1", "--seed", "-1"],
        2,
        "error: seed must be >= 0, got -1\n",
    ),
    # a repeated dim, label or order would write its rows twice
    (["verify", "--dims", "2,2"], 2, "error: campaign repeats 2: its rows would be written twice\n"),
    (
        ["verify", "--props", "P1-mub-tsallis,P1-mub-tsallis"],
        2,
        "error: campaign repeats 'P1-mub-tsallis': its rows would be written twice\n",
    ),
    (
        ["verify", "--dims", "2", "--props", "P1-mub-tsallis", "--alphas", "2,2.0", "--samples", "2"],
        2,
        "error: campaign repeats 2.0: its rows would be written twice\n",
    ),
]


@pytest.mark.parametrize("argv, code, start", EXIT_CONTRACT)
def test_exit_code_contract(argv, code, start, tmp_path, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"dim": 3, "re": [0, 1')
    paths = {"{dir}": tmp_path, "{missing}": tmp_path / "missing.json", "{malformed}": malformed}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the command line before main runs it
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert (captured.err if code >= 2 else captured.out).startswith(start)
    assert "Traceback" not in captured.err


def _stdlib_report(rows, summary, fmt):
    """The report as csv.DictWriter, or json.dumps of each row in CSV_COLUMNS order, writes it."""
    if fmt == "json":
        lines = ",\n".join(json.dumps({c: row[c] for c in cli.CSV_COLUMNS}) for row in rows)
        return f'{{"rows": [\n{lines}\n],\n"summary": {json.dumps(summary)}}}\n'
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=cli.CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_writer_matches_stdlib_writers(fmt, tmp_path):
    labels = list(cli.bnd.PROPOSITION_LABELS)
    configs = [
        cli.CampaignConfig(dims=[2, 3], props=labels, alphas=[2.0], samples=3, seed=7),
        cli.CampaignConfig(
            dims=[2, 3],
            props=["P1-mub-tsallis", "P6-sic-tsallis"],
            alphas=[0.5, 1.0, 1.000001],
            eta=0.8,
            samples=3,
            seed=7,
        ),
        cli.CampaignConfig(dims=[2, 3], props=["P2-mub-renyi"], alphas=[np.inf], samples=3, seed=7),
    ]
    rows = [row for config in configs for row in cli.run_campaign(config)[1]]
    # flip margins as the benchmark's gate test does, and turn a zero into "-0.0"
    flipped = next(r for r in rows if float(r["margin"]) != 0.0)
    flipped["margin"] = repr(-float(flipped["margin"]))
    zero = next(r for r in rows if r["margin"] == "0.0")
    zero["margin"] = repr(-0.0)
    # the writer reads fields by name: a row with its keys in another order renders the same
    rows.append(dict(reversed(flipped.items())))
    values = {v for row in rows for v in row.values()}
    assert {"inf", "-0.0", "0.8", "1.000001", ""} <= values
    assert any("e-" in str(v) for v in values)
    summary = {"checks": len(rows), "failed": 0, "min_margin": -2.5e-16, "saturated": 4}

    out = tmp_path / f"report.{fmt}"
    cli._write_report(rows, summary, str(out), fmt)
    with open(out, newline="", encoding="utf-8") as fh:
        text = fh.read()
    assert text == _stdlib_report(rows, summary, fmt)
    assert flipped["margin"] in text and "-0.0" in text


# the labels that are identities in the reference campaign: P1, P6 and P7 at alpha = 2 on a
# complete MUB set or a SIC, P5, LWBM-sum at M = d + 1, and APXB's operator norm 1
IDENTITY_LABELS = (
    "P1-mub-tsallis", "P5-sic-ic", "P6-sic-tsallis", "P7-sic-renyi", "LWBM-sum", "APXB-riesz"
)


def test_identity_rows_of_the_reference_campaign_stay_at_rounding():
    # the rows sit at 4.4e-15; a cap shifted by 1e-12 passes the 1e-10 pass rule but not this
    labels = list(cli.bnd.PROPOSITION_LABELS)
    config = cli.CampaignConfig(dims=[2, 3], props=labels, alphas=[2.0], samples=200, seed=7)
    rows = [r for r in cli.run_campaign(config)[1] if r["prop"] in IDENTITY_LABELS]
    assert len(rows) == 2400 and {r["saturated"] for r in rows} == {"true"}
    assert max(abs(float(r["margin"])) for r in rows) <= 1e-13


def _console(args, cwd, timeout=300):
    """The ``mubsic`` console entry run in a fresh interpreter, with its real stdout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", "from mubsic.cli import entry; entry()", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


@pytest.mark.parametrize(
    "args",
    [
        ["mub", "--dim", str(2**89 - 1), "--count", "2"],
        ["verify", "--dims", str(2**61 - 1), "--props", "P1-mub-tsallis", "--samples", "1"],
    ],
    ids=["mub-2^89-1", "verify-2^61-1"],
)
def test_a_prime_dimension_too_large_to_allocate_exits_2(args, tmp_path):
    # the prime test takes bounded time, so numpy's refusal to allocate ends the command
    done = _console(args, tmp_path, timeout=60)
    assert done.returncode == 2 and done.stderr.startswith(b"error: "), done.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--dims", "2,3", "--props", "all", "--samples", "3", "--seed", "7"],
        ["verify", "--dims", "2,3", "--props", "all", "--samples", "3", "--format", "json"],
        ["mub", "--dim", "5", "--count", "6"],
    ],
    ids=["verify-csv", "verify-json", "mub"],
)
def test_out_file_holds_the_bytes_stdout_gets(args, tmp_path):
    to_file = _console(args + ["--out", "report"], tmp_path)
    to_stdout = _console(args, tmp_path)
    assert to_file.returncode == to_stdout.returncode == 0, to_stdout.stderr
    assert to_file.stderr == to_stdout.stderr
    # verify prints its summary line after the report; mub prints its own to stderr
    assert to_stdout.stdout == (tmp_path / "report").read_bytes() + to_file.stdout


def test_parser_reuse_keeps_no_state_between_calls(tmp_path, capsys):
    args = ["verify", "--dims", "2", "--props", "P1-mub-tsallis", "--samples", "2"]
    first, second = tmp_path / "first.json", tmp_path / "second.csv"
    assert main(args + ["--format", "json", "--eta", "0.8", "--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert cli._parser() is cli._parser()
    assert {row["eta"] for row in json.loads(first.read_text())["rows"]} == {"0.8"}
    text = second.read_text()
    assert text.startswith(",".join(cli.CSV_COLUMNS) + "\n")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 2 and {row["eta"] for row in rows} == {""}


@pytest.mark.parametrize("margins", [(0.0, -0.0), (-0.0, 0.0)])
def test_summary_keeps_the_first_minimum_margin(monkeypatch, capsys, tmp_path, margins):
    # two cells whose margins are zeros of either sign: Python's min keeps the first
    left = list(margins)

    def evaluate(which, meas, x, args, tolerance):
        margin = [left.pop(0)]
        return cli.bnd.Columns([0.5], [0.5], margin, [True], [True])

    monkeypatch.setattr(cli.bnd, "evaluate", evaluate)
    out = tmp_path / "report.json"
    args = ["verify", "--dims", "2", "--props", "P1-mub-tsallis", "--alphas", "0.5,1"]
    assert main(args + ["--samples", "1", "--format", "json", "--out", str(out)]) == 0
    assert f"min_margin={margins[0]!r} saturated=2/2" in capsys.readouterr().out
    summary = json.loads(out.read_text())["summary"]
    assert repr(summary["min_margin"]) == repr(margins[0]) and summary["checks"] == 2


def test_every_option_of_the_parser_is_read():
    # a removed setting must not leave its flag behind: each --option that
    # build_parser adds is read as args.<dest> somewhere in cli.py
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    build = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "build_parser"
    )
    dests = set()
    for call in ast.walk(build):
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "add_argument":
            flags = [a.value for a in call.args if isinstance(a, ast.Constant)]
            dest = [k.value.value for k in call.keywords if k.arg == "dest"]
            if flags[0].startswith("--"):
                dests.add(dest[0] if dest else flags[0][2:].replace("-", "_"))
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args"
    }
    assert {"dims", "samples", "random_rank"} <= dests  # the walk finds the options
    assert not dests - read, sorted(dests - read)
