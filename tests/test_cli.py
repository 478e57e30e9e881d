import csv
import json

import numpy as np
import pytest

from mubsic import cli, maximally_mixed, random_pure, to_json
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

        monkeypatch.setattr(cli, "random_mixed", no_sampling)
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
        code = main(
            ["verify", "--dims", "2", "--props", "P1-mub-tsallis", "--alphas", "", "--samples", "1"]
        )
        assert code == 2
        assert "empty" in capsys.readouterr().err

    def test_tiny_tolerance_flags_violation(self, tmp_path):
        # the exact identity holds to ~1e-16; an absurd 1e-18 tolerance
        # must trip the violation exit path
        out = tmp_path / "tight.csv"
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
                "--out",
                str(out),
            ]
        )
        assert code == 1

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

    def test_dimension_zero_exits_2(self, capsys):
        assert main(["coincidence", "--dim", "0"]) == 2
        assert "error:" in capsys.readouterr().err

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
    # an empty --out writes to stdout for every writer
    (["mub", "--dim", "2", "--count", "3", "--out", ""], 0, '{\n  "dim": 2,'),
    (_P5 + ["--out", ""], 0, "prop,dim,M,"),
    (_P5 + ["--format", "json", "--out", ""], 0, '{"rows": [\n'),
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
