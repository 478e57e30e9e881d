"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import gate
import harness
from mubsic import cli
from tracer import Tracer

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload, trace):
    """One run at one sample per cell and a single set-up process."""
    tiny = dataclasses.replace(harness.WORKLOADS[workload], samples=1)
    result, lines = harness.run_benchmark(tiny, 3, 0, bool(trace), setup_runs=1)
    return lines, result


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(harness.PER_LAYER)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_every_metric_printed_with_unit(capsys, workload, trace):
    lines, result = run_tiny(workload, trace)
    assert harness.emit(result, lines) == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed == [*lines, json.dumps(result)]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        assert any(line.startswith(metric["name"] + " ") and line.endswith(" " + metric["unit"]) for line in lines)
    env = json.loads(lines[0][len("env ") :])
    assert env["seed"] == 3 and env["workload"] == workload and env["nproc"] >= 1


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_layer_self_times_account_for_traced_wall(workload):
    _, result = run_tiny(workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    accounted = sum(metrics[name] for name, _ in harness.LAYER_TIMES)
    assert accounted == pytest.approx(metrics["trace.wall_us_per_check"], rel=0.05)
    assert accounted <= metrics["trace.wall_us_per_check"]


def test_gate_trips_on_flipped_margin(monkeypatch):
    write = cli._write_report

    def corrupt(rows, summary, out, fmt):
        row = next(r for r in rows if float(r["margin"]) != 0.0)
        row["margin"] = repr(-float(row["margin"]))
        return write(rows, summary, out, fmt)

    monkeypatch.setattr(cli, "_write_report", corrupt)
    lines, result = run_tiny("mub-orders", 0)
    assert harness.emit(result, lines) != 0
    assert result["correct"] is False and result["failed"] > 0
    assert any(line.startswith("gate: ") and "margin" in line for line in lines)
    fail_frac = next(line for line in lines if line.startswith("fail_frac "))
    assert float(fail_frac.split()[1]) > 0


def test_gate_passes_real_rows_and_flags_each_corruption():
    _, rows = cli.run_campaign(
        cli.CampaignConfig(dims=[2, 3], props=list(cli.bnd.PROPOSITION_LABELS), alphas=[2.0], samples=2, seed=5)
    )
    plan = gate.plan([2, 3], cli.bnd.PROPOSITION_LABELS, ["2.0"], 2)
    assert gate.check_rows(rows, plan) == (0, [])

    def corrupted(prop, **fields):
        bad = [dict(r) for r in rows]
        row = next(r for r in bad if r["prop"] == prop)
        row.update(fields)
        return gate.check_rows(bad, plan)[0]

    p2 = next(r for r in rows if r["prop"] == "P2-mub-renyi")
    shifted_rhs = repr(float(p2["rhs"]) + 1e-9)
    # rhs and margin moved together, so only the recomputation catches it
    shifted_margin = repr(float(p2["lhs"]) - float(shifted_rhs))
    assert corrupted("P2-mub-renyi", rhs=shifted_rhs, margin=shifted_margin) == 1
    p5 = next(r for r in rows if r["prop"] == "P5-sic-ic")
    p5_lhs = float(p5["lhs"]) + 1e-9
    assert corrupted("P5-sic-ic", lhs=repr(p5_lhs), margin=repr(p5_lhs - float(p5["rhs"]))) == 1
    assert corrupted("P2-mub-renyi", margin=repr(-float(p2["margin"]))) == 1
    assert corrupted("P8-sic-minent", purity="0.1") == 1  # outside [1/d, 1]: the bound refuses it
    assert gate.check_rows(rows[1:], plan)[0] == 1


def test_samples_refer_call_times_to_the_reference_kernel():
    samples = harness.Samples()
    kernel = 2 * harness.REF_S  # a host twice as slow as the reference
    samples.add(harness.Unit([0.5, 0.25], [kernel, kernel / 2], 0.8, 3, 0, [], ""))
    assert list(samples.calls_s) == [0.5, 0.25]
    assert list(samples.referred_s) == pytest.approx([0.25, 0.25])
    assert (samples.wall_s, samples.checks) == (0.8, 3)


def test_tracer_restores_module_attributes():
    before = (cli.stream, cli.bnd.check_bound, cli.bnd.renyi, cli._write_report)
    with Tracer("t").installed():
        assert cli.stream is not before[0]
    assert (cli.stream, cli.bnd.check_bound, cli.bnd.renyi, cli._write_report) == before


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mub-orders", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
