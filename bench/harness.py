"""mubsic benchmark: campaign workloads, end-to-end metrics, a traced per-layer run.

Run from the repository root (``bench/run.py`` pins BLAS to one thread first):

    python3 bench/run.py --workload mub-orders --seed 1 --seconds 45 --trace 0

Every workload is a closed loop with one caller and no threads.  A run does
one untimed warm-up unit at one sample per cell, then repeats the workload's
unit of work, each time with a seed derived from ``--seed``, until
``--seconds`` have passed, and gates every unit's output (see ``gate.py``).
Units:

* ``mub-orders``: four ``cli.main`` verify calls at ``--dims 5,7 --samples
  25``, writing JSON, one per order group, since the CLI applies every
  ``--alphas`` value to every label (550 checks).
* ``replay-rows``: 26 ``cli.run_campaign`` calls of a single row each, one
  per (label, dim) cell of the reference campaign (``--dims 2,3 --props all
  --alphas 2``), each with its own seed.

Times are the process's CPU time, referred to a fixed host speed (see
``hostspeed.py``), because the shared host takes the CPU away for stalls of
milliseconds and its own speed swings by up to 2 times for spells as long
as a run.  A reference kernel runs before and after each timed call, and in
each set-up process right after its set-up, and a time is scaled by
``REF_S`` over the kernel's time next to it.  The unreferred figures, the
wall-clock throughput and the host slowdown (the calls' CPU time over their
referred time) are printed too, on a line that is not a metric.

End-to-end metrics (``--trace 0``), all from untraced units, in referred
CPU time, which equals wall time on an unloaded host since a run has one
caller, no threads and no blocking I/O:

* ``checks_per_s``: checks completed over the summed time of the calls,
  report writing included.
* ``call_us_p50``, ``call_us_p99``: nearest-rank latency of one call (a
  ``cli.main`` or ``cli.run_campaign`` call), printed with the call count.
* ``setup_s``: median over fresh processes of the time to import mubsic and
  build the workload's MUB sets and SICs once with the public constructors.
  The processes run between units, spread over the measuring time.
* ``peak_rss_mb``: peak resident memory of the benchmark process.

With ``--trace 1`` traced and untraced units alternate on the same seeds and
the run prints, per check of the traced units, each layer's self time
(wall time, scaled by the traced units' referred-to-wall ratio) and call counts, plus
the tracing overhead against the untraced units.  The
failure fraction is printed as ``fail_frac``; the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Spans go to ``.bench_run/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import mubsic  # noqa: E402
from mubsic import cli  # noqa: E402

import gate  # noqa: E402
from hostspeed import REF_S, kernel_s  # noqa: E402
from run import BLAS_VARS  # noqa: E402
from tracer import SPAN_FIELDS, Tracer  # noqa: E402

if Path(mubsic.__file__).resolve().parent != SRC / "mubsic":
    raise ImportError(f"mubsic imported from {mubsic.__file__}, not from {SRC}")

OUT_DIR = ROOT / ".bench_run"
SETUP_RUNS = 41
MAX_MESSAGES = 20

END_TO_END = (
    ("checks_per_s", "1/s"),
    ("call_us_p50", "us"),
    ("call_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# per-layer times are self times, so together with cli.self they add up to
# trace.wall_us_per_check
LAYER_TIMES = (
    ("states.stream.us_per_check", "states.stream"),
    ("states.sample.us_per_check", "states.sample"),
    ("states.validate.us_per_check", "states.validate"),
    ("measurements.construct.us", "measurements.construct"),
    ("measurements.probabilities.us_per_check", "measurements.probabilities"),
    ("entropy.us_per_check", "entropy"),
    ("bounds.check_bound.self_us_per_check", "bounds.check_bound"),
    ("entanglement.us_per_check", "entanglement"),
    ("linalg.kron.us_per_check", "linalg.kron"),
    ("cli.write.us_per_check", "cli.write"),
    ("cli.self_us_per_check", "cli"),
)
LAYER_CALLS = (
    ("states.stream.calls_per_check", "states.stream"),
    ("states.validate.calls_per_check", "states.validate"),
    ("states.purity.calls_per_check", "states.purity"),
    ("measurements.construct.calls", "measurements.construct"),
    ("measurements.probabilities.calls_per_check", "measurements.probabilities"),
    ("entropy.calls_per_check", "entropy"),
)
PER_LAYER = (
    *((name, "us/check") for name, _ in LAYER_TIMES),
    *((name, "calls/check") for name, _ in LAYER_CALLS),
    ("cli.write.bytes_per_check", "B/check"),
    ("trace.wall_us_per_check", "us/check"),
    ("trace.overhead_frac", "ratio"),
)

SUMMARY = re.compile(r"checks=(\d+) failed=(\d+)")

# Fresh-process set-up: import mubsic and build the workload's measurement
# objects once through the public constructors; then, untimed, the reference
# kernel in the same process, for the host's speed at that moment.
SETUP_CODE = """
import sys, time
t0 = time.process_time()
sys.path.insert(0, sys.argv[1])
import mubsic
for d in (int(x) for x in sys.argv[2].split(",") if x):
    mubsic.mub_construct(d, d + 1)
for d in (int(x) for x in sys.argv[3].split(",") if x):
    mubsic.sic_from_fiducial(d)
setup = time.process_time() - t0
sys.path.insert(0, sys.argv[4])
from hostspeed import kernel_s
print(repr(setup), repr(kernel_s()))
"""


def timed_call(tracer, name: str, fn):
    """Return ``fn()``, its CPU time and its wall time.

    Under a tracer the call is the root span, in the ``cli`` layer, and the
    layer wrappers are installed around it outside the timed region, so the
    gate's own calls into mubsic are never traced.
    """
    call = fn if tracer is None else tracer.span(name, "cli", fn)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        cpu, wall = process_time(), perf_counter()
        result = call()
        return result, process_time() - cpu, perf_counter() - wall


@dataclasses.dataclass
class Unit:
    """One unit of work and what the gate found in its output."""

    calls_s: list  # CPU time of each call into mubsic
    kernel_s: list  # reference kernel time around each call
    wall_s: float  # summed wall time of the calls
    checks: int
    failed: int
    messages: list
    digest: str
    report_bytes: int = 0


@dataclasses.dataclass(frozen=True)
class Campaign:
    """A unit of one or more ``mubsic verify`` calls through ``cli.main``."""

    name: str
    dims: tuple
    groups: tuple  # (props, alphas) per call, as given on the command line
    samples: int
    sic_dims: tuple = ()  # dims whose builtin SIC the campaign builds (none: MUB labels only)

    def plans(self):
        for props, alphas in self.groups:
            alphas = [gate.format_order(a) for a in alphas.split(",")]
            yield gate.plan(self.dims, props.split(","), alphas, self.samples)

    def run_unit(self, k: int, seed: int, tracer=None) -> Unit:
        unit = Unit([], [], 0.0, 0, 0, [], "")
        digest = hashlib.sha256()
        if tracer is not None:
            tracer.begin_unit(f"u{k}")
        before = kernel_s()
        for g, ((props, alphas), expected) in enumerate(zip(self.groups, self.plans())):
            out = OUT_DIR / f"{self.name}-{g}.json"
            argv = [
                "verify", "--dims", ",".join(map(str, self.dims)), "--props", props,
                "--alphas", alphas, "--samples", str(self.samples), "--seed", str(seed),
                "--format", "json", "--out", str(out),
            ]  # fmt: skip
            out.unlink(missing_ok=True)
            captured = io.StringIO()

            def verify():
                with contextlib.redirect_stdout(captured):
                    return cli.main(argv)

            rc, cpu, wall = timed_call(tracer, "cli.main", verify)
            after = kernel_s()
            unit.calls_s.append(cpu)
            unit.wall_s += wall
            unit.kernel_s.append((before + after) / 2)
            before = after
            planned = sum(expected.values())
            unit.checks += planned
            data = out.read_bytes() if out.exists() else b""
            unit.report_bytes += len(data)
            digest.update(data)
            digest.update(captured.getvalue().encode())
            try:
                rows = json.loads(data)["rows"]
            except (ValueError, KeyError) as exc:
                rows = []
                unit.messages.append(f"{self.name} call {g}: unreadable report: {exc!r}")
            failed, messages = gate.check_rows(rows, expected)
            summary = SUMMARY.search(captured.getvalue())
            if rc != 0 or summary is None or summary.groups() != (str(planned), "0"):
                failed += max(1, int(summary.group(2)) if summary else 0)
                messages.append(f"{self.name} call {g}: exit {rc}, summary {captured.getvalue().strip()!r}, planned {planned}")
            unit.failed += failed
            unit.messages += messages
        unit.digest = digest.hexdigest()
        return unit


@dataclasses.dataclass(frozen=True)
class Replay:
    """A unit of single-row ``cli.run_campaign`` calls, one per cell."""

    name: str
    dims: tuple
    samples: int = 1  # rows per call; part of the workload's definition

    @property
    def cells(self):
        return [(label, d) for d in self.dims for label in mubsic.PROPOSITION_LABELS]

    @property
    def sic_dims(self):
        return self.dims

    def run_unit(self, k: int, seed: int, tracer=None) -> Unit:
        unit = Unit([], [], 0.0, 0, 0, [], "")
        digest = hashlib.sha256()
        before = kernel_s()  # one kernel pair per unit: a call takes well under a millisecond
        for j, (label, d) in enumerate(self.cells):
            call_seed = seed * 100 + j
            if tracer is not None:
                tracer.begin_unit(f"{label}@d{d}#{k}")

            def replay():
                config = cli.CampaignConfig(dims=[d], props=[label], alphas=[2.0], samples=self.samples, seed=call_seed)
                return cli.run_campaign(config)

            (reports, rows), cpu, wall = timed_call(tracer, "cli.run_campaign", replay)
            unit.calls_s.append(cpu)
            unit.wall_s += wall
            unit.checks += self.samples
            alpha = "2.0" if label in gate.ALPHA_DEPENDENT else ""
            failed, messages = gate.check_rows(rows, gate.plan([d], [label], [alpha], self.samples))
            not_passed = sum(not r.passed for r in reports)
            if not_passed:
                failed += not_passed
                messages.append(f"{label} d={d} seed={call_seed}: {not_passed} check(s) did not pass")
            unit.failed += failed
            unit.messages += messages
            digest.update(repr(rows).encode())
        unit.kernel_s = [(before + kernel_s()) / 2] * len(unit.calls_s)
        unit.digest = digest.hexdigest()
        return unit


WORKLOADS = {
    w.name: w
    for w in (
        Campaign(
            "mub-orders",
            (5, 7),
            (
                ("P1-mub-tsallis", "0.5,1,2"),
                ("P2-mub-renyi", "2,3,inf"),
                ("P4-mub-sym", "1,2,4"),
                ("P3-mub-minent,LWBM-sum", "2"),
            ),
            samples=25,
        ),
        Replay("replay-rows", (2, 3)),
    )
}


def unit_seed(seed: int, k: int) -> int:
    return seed * 1_000_000 + k


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def setup_time(workload) -> tuple[float, float]:
    """Set-up time of one fresh process, and the kernel time after it."""
    mub_dims, sic_dims = (",".join(map(str, ds)) for ds in (workload.dims, workload.sic_dims))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), mub_dims, sic_dims, str(Path(__file__).resolve().parent)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    setup, kernel = proc.stdout.split()
    return float(setup), float(kernel)


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},  # look no further up
            capture_output=True,
            text=True,
            timeout=30,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload": workload,
        "seed": seed,
    }


class Tally:
    """Checks attempted and failed over every unit a run executes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, unit: Unit) -> Unit:
        self.attempted += unit.checks
        self.failed += unit.failed
        self.messages += unit.messages[: max(0, MAX_MESSAGES - len(self.messages))]
        return unit

    def fail(self, message: str) -> None:
        self.failed += 1
        self.messages += [message][: max(0, MAX_MESSAGES - len(self.messages))]


class Samples:
    """Call times and checks of each unit, kept compactly so memory stays flat."""

    def __init__(self):
        self.calls_s = array("d")
        self.referred_s = array("d")  # the same calls in referred time
        self.wall_s = 0.0
        self.checks = 0
        self.report_bytes = 0

    def add(self, unit: Unit) -> None:
        self.calls_s.extend(unit.calls_s)
        self.referred_s.extend(cpu * REF_S / kernel for cpu, kernel in zip(unit.calls_s, unit.kernel_s))
        self.wall_s += unit.wall_s
        self.checks += unit.checks
        self.report_bytes += unit.report_bytes


def run_benchmark(workload, seed: int, seconds: float, trace: bool, setup_runs: int = SETUP_RUNS):
    """Run one workload; returns (result object, printable metric lines)."""
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    tracer = Tracer(workload.name) if trace else None
    # untimed warm-up of every code path: lazy imports and first-call set-up
    tally.add(dataclasses.replace(workload, samples=1).run_unit(0, unit_seed(seed, 999_999)))

    setups = []  # set-up times of fresh processes, run between untraced units
    if tracer is None:
        setup_time(workload)  # untimed: fills the file cache
    untraced, traced = Samples(), Samples()
    start = perf_counter()
    k = 0
    while k == 0 or perf_counter() - start < seconds:
        due = len(setups) * seconds / setup_runs  # evenly spaced over the run
        if tracer is None and len(setups) < setup_runs and perf_counter() - start >= due:
            setups.append(setup_time(workload))
        s = unit_seed(seed, k)
        if tracer is None:
            unit = tally.add(workload.run_unit(k, s))
        else:
            pair = {}
            for with_trace in (False, True) if k % 2 == 0 else (True, False):
                if with_trace:
                    pair[True] = tally.add(workload.run_unit(k, s, tracer))
                else:
                    pair[False] = tally.add(workload.run_unit(k, s))
            unit = pair[False]
            traced.add(pair[True])
            if pair[True].digest != unit.digest:
                tally.fail(f"unit {k}: traced report differs from the untraced one")
        untraced.add(unit)
        if k == 0:
            first_digest = unit.digest
        k += 1
    while tracer is None and len(setups) < setup_runs:
        setups.append(setup_time(workload))
    again = tally.add(workload.run_unit(0, unit_seed(seed, 0)))
    if again.digest != first_digest:
        tally.fail("unit 0: rerun with the same seed gave a different report")

    lines = ["env " + json.dumps(environment(workload.name, seed), sort_keys=True)]
    if tracer is None:
        metrics = end_to_end(untraced, setups, lines)
    else:
        metrics = per_layer(tracer, untraced, traced, lines)
        write_trace(tracer, workload.name, seed)
    lines.append(f"fail_frac {tally.failed / tally.attempted!r} ratio (failed={tally.failed} attempted={tally.attempted})")
    lines += [f"gate: {m}" for m in tally.messages]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in metrics},
    }
    return result, lines


def timings(checks: int, calls_s, setups_s) -> dict:
    return {
        "checks_per_s": checks / sum(calls_s),
        "call_us_p50": percentile(calls_s, 50) * 1e6,
        "call_us_p99": percentile(calls_s, 99) * 1e6,
        "setup_s": statistics.median(setups_s),
    }


def end_to_end(units: Samples, setups, lines):
    """``setups`` holds (CPU time, kernel time) of each set-up process."""
    values = timings(units.checks, units.referred_s, [cpu * REF_S / kernel for cpu, kernel in setups])
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = [(name, unit, values[name]) for name, unit in END_TO_END]
    for name, unit, value in metrics:
        lines.append(f"{name} {value!r} {unit}")
    raw = timings(units.checks, units.calls_s, [cpu for cpu, _ in setups])
    raw["wall_checks_per_s"] = units.checks / units.wall_s
    raw["host_slowdown"] = sum(units.calls_s) / sum(units.referred_s)
    lines.append(f"samples: {len(units.calls_s)} calls, {units.checks} checks; setup over {len(setups)} fresh processes")
    lines.append("unreferred (not a metric): " + ", ".join(f"{name} {value!r}" for name, value in raw.items()))
    return metrics


def per_layer(tracer, untraced: Samples, traced: Samples, lines):
    checks = traced.checks
    traced_wall = traced.wall_s
    scale = sum(traced.referred_s) / traced_wall  # span wall times to referred time
    untraced_wall = sum(untraced.referred_s)  # the same units, run untraced
    values = {name: tracer.self_s[layer] * scale * 1e6 / checks for name, layer in LAYER_TIMES}
    values.update({name: tracer.calls[layer] / checks for name, layer in LAYER_CALLS})
    values["cli.write.bytes_per_check"] = traced.report_bytes / checks
    values["trace.wall_us_per_check"] = traced_wall * scale * 1e6 / checks
    values["trace.overhead_frac"] = traced_wall * scale / untraced_wall - 1.0
    metrics = [(name, unit, values[name]) for name, unit in PER_LAYER]
    for name, unit, value in metrics:
        lines.append(f"{name} {value!r} {unit}")
    accounted = sum(tracer.self_s[layer] for _, layer in LAYER_TIMES)
    lines.append(
        f"trace: {len(traced.calls_s)} traced calls, {checks} checks, {tracer.n_spans} spans; "
        f"layer self times sum to {accounted / traced_wall!r} of the traced wall time"
    )
    return metrics


def write_trace(tracer, workload: str, seed: int) -> None:
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    payload = {
        "env": environment(workload, seed),
        "layers": {
            layer: {"self_s": tracer.self_s.get(layer, 0.0), "calls": tracer.calls.get(layer, 0)}
            for layer in sorted(tracer.self_s.keys() | tracer.calls.keys())
        },
        "spans_total": tracer.n_spans,
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans,
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def emit(result, lines) -> int:
    """Print the metric lines and the result object; the exit code of a run."""
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return emit(*run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
