"""Command-line driver: construct measurements and run bound campaigns.

Subcommands:

* ``mub``         -- construct and verify a MUB set, emit it as JSON.
* ``verify``      -- run a Monte-Carlo bound-verification campaign over
  random states and write one CSV row (or JSON record) per check.
* ``coincidence`` -- evaluate both sides of the exact SIC
  index-of-coincidence identity for one state.

Exit codes: 0 all checks passed, 1 a bound check failed, 2 unsupported
or out-of-domain input or an allocation failure, 3 I/O failure.
Campaigns with identical configuration and seed produce bitwise-identical
reports.  A campaign's plan is its list of (dim, label)s, each with its
measurement and its validated orders, all built and checked before the
first draw.  Each label
at dimension d is one stack of N states from its stream (seed, d, code),
``code`` being the label's fixed :attr:`~mubsic.bounds.Proposition.code`,
and every order of the label is checked on that stack.  So a row is keyed
by what it is: its rows are the same whatever else the campaign runs, and
an order's rows the same alone or in a sweep.  A campaign that repeats a
dimension, a label or an order is rejected, so no two rows share a key.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .entropy import check_efficiency, check_order
from .errors import DomainError
from .linalg import kron
from .measurements import (
    check_fiducial_path,
    load_fiducial,
    mub_construct,
    sic_from_fiducial,
)
from .measurements import sic_povm as SicPovm  # bench/tracer.py times the calls of cli.SicPovm
from .states import (
    DensityMatrix,
    _ginibre_states,
    check_dimension,
    check_integer,
    from_json,
    maximally_mixed,
    purity,  # noqa: F401  (bench/tracer.py counts the calls of cli.purity)
    random_mixed,
    stream,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_UNSUPPORTED = 2
EXIT_IO = 3

CSV_COLUMNS = (
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
)

# Report rows hold registry labels, ints, float reprs, "" and "true"/"false"
# only, so neither format needs quoting or escaping: one positional
# %-template per row, filled with the row's values read by column name,
# renders exactly what json.dumps and csv.DictWriter would.
_INT_COLUMNS = ("dim", "M", "seed", "sample")
_ROW_VALUES = operator.itemgetter(*CSV_COLUMNS)
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\n"
_JSON_ROW = "{" + ", ".join(
    f'"{c}": %s' if c in _INT_COLUMNS else f'"{c}": "%s"' for c in CSV_COLUMNS
) + "}"

# seed of the fixed unitary that rotates the builtin SIC for pair checks
PAIR_ROTATION_SEED = 20130416


@dataclass
class CampaignConfig:
    """A verification campaign's configuration, each field stored as its check returns it."""

    dims: list[int]
    props: list[str]
    alphas: list[float]
    samples: int
    seed: int
    eta: float | None = None
    tolerance: float = bnd.DEFAULT_TOLERANCE
    count: int | None = None
    fiducial_path: str | os.PathLike | None = None

    def __post_init__(self):
        for name in ("dims", "props", "alphas"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)):
                raise DomainError(f"{name} must be a list or tuple, got {value!r}")
        self.dims = [check_dimension(d) for d in self.dims]
        self.samples = check_integer(self.samples, "samples", 1)
        self.seed = check_integer(self.seed, "seed", 0)
        self.tolerance = bnd.check_tolerance(self.tolerance)
        self.alphas = [check_order(a) for a in self.alphas]
        for p in self.props:
            bnd.check_label(p)
        # rows are keyed by (dim, label, order), so a repeat would write its rows twice;
        # each list is compared as validated, so 2 and 2.0 are one order
        for keys in (self.dims, self.props, self.alphas):
            if len(set(keys)) < len(keys):
                first = next(k for i, k in enumerate(keys) if k in keys[:i])
                raise DomainError(f"campaign repeats {first!r}: its rows would be written twice")
        if self.eta is not None:
            self.eta = check_efficiency(self.eta)
        if self.count is not None:  # the cap d + 1 is checked per dimension, on construction
            self.count = check_integer(self.count, "basis count", 2)
        if self.fiducial_path is not None:
            self.fiducial_path = check_fiducial_path(self.fiducial_path)


def _fixed_rotation(d: int) -> np.ndarray:
    """Deterministic unitary used to produce the second measurement of a pair."""
    rng = stream(PAIR_ROTATION_SEED, d)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@functools.lru_cache
def measurement(kind: str, d: int, count: int | None, fiducial: tuple | None):
    """The MUB set, SIC or SIC pair of dimension d, built and verified once per process.

    ``kind`` is "mubs" (``count`` bases), "sic" or "pair" (the SIC and its
    copy under :func:`_fixed_rotation`).  ``fiducial`` is the SIC
    fiducial's components as a tuple, or None for the builtin, so the memo
    is keyed by the ket itself and not by where it was read from.  A
    failed construction raises and is not memoized.  The 128 most recent
    results are kept and shared by every caller; their arrays are read-only.
    """
    if kind == "mubs":
        return mub_construct(d, count)
    if kind == "pair":
        base = measurement("sic", d, None, fiducial)
        return base, SicPovm(base.kets @ _fixed_rotation(d).T)
    return sic_from_fiducial(d, fiducial)


def _fiducial_ket(path: str | None) -> tuple | None:
    """The unit fiducial ket in a JSON file as a tuple; reports any rescaling."""
    if path is None:
        return None
    vec, scale = load_fiducial(path)
    if abs(scale - 1.0) > 1e-12:
        print(f"fiducial rescaled by factor {scale!r}", file=sys.stderr)
    return tuple(vec.tolist())


class _Label(NamedTuple):
    """One (dim, label) of a campaign: its measurement, M column and validated orders."""

    d: int
    prop: str
    meas: object
    outcomes: int  # the M column
    orders: list  # the bnd.CheckArguments of each order


def _plan(config: CampaignConfig) -> list[_Label]:
    """The campaign's (dim, label)s in order, with every measurement built and every order checked.

    A label's place in the plan orders its rows in the report and nothing
    else: its states are keyed by its (d, code) (:func:`_states`).  Raises
    :class:`DomainError` when the campaign has no label.
    """
    fiducial = _fiducial_ket(config.fiducial_path)
    plan = []
    for d in config.dims:
        # a fiducial file serves the one dimension it was written for
        ket = fiducial if fiducial is not None and len(fiducial) == d else None
        for prop in config.props:
            entry = bnd.PROPOSITIONS[prop]
            eta = config.eta if entry.efficiency else None
            if entry.measurement == "mubs":
                count = d + 1 if config.count is None else config.count
                meas = measurement("mubs", d, count, None)
                outcomes = meas.shape[0]
            else:
                meas = measurement("pair" if entry.measurement == "pair" else "sic", d, None, ket)
                outcomes = d**4 if entry.measurement == "product" else d * d
            # with no orders, an order-dependent label gets None, which check_arguments rejects
            alphas = (config.alphas or [None]) if entry.order else [None]
            orders = [bnd.check_arguments(prop, alpha=alpha, eta=eta) for alpha in alphas]
            plan.append(_Label(d, prop, meas, outcomes, orders))
    if not plan:
        raise DomainError("campaign is empty: no (dim, proposition, order) cells to run")
    return plan


def _states(label: _Label, config: CampaignConfig):
    """The label's stack of N states, drawn from its stream (seed, d, code).

    One (N, K) block of standard normals: row i holds all K numbers sample i
    needs, so a row depends only on the label's (d, code) and i.  Row layout:
    the Ginibre block (2, d, d) of the state; for ENT-G, a second one for
    party B.  ENT-G samples both parties as one stack of 2N states, A and B
    of sample i at rows 2i and 2i + 1, in one call, and validates the N
    products as a second stack.  The block and ranks are the package's own,
    so they go to the kernel of :func:`random_mixed` without its reader: the
    same bits as ``random_mixed(d, ranks, normals=block)``.
    """
    d, n = label.d, config.samples
    entry = bnd.PROPOSITIONS[label.prop]
    product = entry.measurement == "product"
    draws = stream(config.seed, d, entry.code).standard_normal(
        (n, 2 * d * d * (2 if product else 1))
    )
    samples = np.arange(n)
    ranks = 1 + samples % d
    if product:  # party B of sample i at rank 1 + (i // d) mod d
        ranks = np.stack([ranks, 1 + (samples // d) % d], axis=-1).ravel()
    rho = _ginibre_states(draws.reshape(-1, 2, d, d), ranks)
    if product:
        rho = DensityMatrix(kron(rho.mat[0::2], rho.mat[1::2]))
    return rho


def _results(config: CampaignConfig):
    """Every (label, order) of the plan as (label, order, purity reprs, Columns), in plan order.

    The whole plan is validated before the first draw.  Each label is one
    stack (:func:`_states`) with one sampling, validation, purity, cap and
    probability pass, and one repr of each purity.  Every order of a label
    reads that stack and what is taken of it once (the cap, the distorted
    probabilities of an efficiency, and ln p), so an order's results are
    bitwise those of it run alone, and the orders of a sweep are checked on
    the same states.
    """
    for label in _plan(config):
        x = bnd.inputs(label.prop, label.meas, _states(label, config), label.orders[0].eta)
        p2 = list(map(repr, x.purity.tolist()))
        for order in label.orders:
            yield label, order, p2, bnd.evaluate(label.prop, label.meas, x, order, config.tolerance)


def _rows(label: _Label, order, purities: list, columns: bnd.Columns, config: CampaignConfig):
    """A label's order as report rows, dicts keyed by CSV_COLUMNS, from purity reprs and Columns."""
    prop, d, m, seed = label.prop, label.d, label.outcomes, config.seed
    alpha = "" if order.alpha is None else repr(order.alpha)
    eta = "" if order.eta is None else repr(order.eta)
    lhs, rhs, margin, saturated, _ = columns
    # a state-independent rhs is one float object repeated (bnd.Columns): print it once
    rhs = [repr(rhs[0])] * len(rhs) if rhs[0] is rhs[-1] else map(repr, rhs)
    return [
        {
            "prop": prop,
            "dim": d,
            "M": m,
            "alpha": alpha,
            "eta": eta,
            "seed": seed,
            "sample": sample,
            "purity": p2,
            "lhs": left,
            "rhs": right,
            "margin": diff,
            "saturated": "true" if sat else "false",
        }
        for sample, p2, left, right, diff, sat in zip(
            range(config.samples),
            purities,
            map(repr, lhs),
            rhs,
            map(repr, margin),
            saturated,
        )
    ]


def run_campaign(config: CampaignConfig):
    """Execute a campaign; returns (reports, rows) in deterministic order.

    The whole plan (every measurement and every order range) is validated
    before any state is sampled.
    """
    reports = []
    rows = []
    for label, order, p2, columns in _results(config):
        sense = bnd.PROPOSITIONS[label.prop].sense
        reports += bnd.reports(label.prop, columns, config.tolerance, sense)
        rows += _rows(label, order, p2, columns, config)
    return reports, rows


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None or empty."""
    if out:
        # one binary write of the bytes a UTF-8 text file with newline="" would hold
        with open(out, "wb") as fh:
            fh.write(text.encode("utf-8"))
    else:
        sys.stdout.write(text)


def _write_report(rows, summary, out, fmt):
    """Write the report rows (dicts read by CSV_COLUMNS name) as CSV or one JSON row per line."""
    if fmt == "json":
        lines = ",\n".join(map(_JSON_ROW.__mod__, map(_ROW_VALUES, rows)))
        text = f'{{"rows": [\n{lines}\n],\n"summary": {json.dumps(summary)}}}\n'
    else:
        text = _CSV_HEADER + "".join(map(_CSV_ROW.__mod__, map(_ROW_VALUES, rows)))
    _emit(text, out)


def cmd_verify(args) -> int:
    config = CampaignConfig(
        dims=[int(x) for x in args.dims.split(",") if x],
        props=(
            list(bnd.PROPOSITION_LABELS)
            if args.props.strip().lower() == "all"
            else [x.strip() for x in args.props.split(",") if x.strip()]
        ),
        alphas=[x for x in args.alphas.split(",") if x.strip()],
        samples=args.samples,
        seed=args.seed,
        eta=args.eta,
        tolerance=args.tolerance,
        count=args.count,
        fiducial_path=args.fiducial,
    )
    rows = []
    checks = n_failed = n_saturated = 0
    min_margin = None
    for label, order, p2, columns in _results(config):
        rows += _rows(label, order, p2, columns, config)
        margin = columns.margin
        checks += len(margin)
        n_failed += columns.passed.count(False)
        n_saturated += columns.saturated.count(True)
        # Python's min, continued over the cells: the first minimum, so a zero keeps its sign
        min_margin = min(margin) if min_margin is None else min(min_margin, *margin)
    summary = {
        "checks": checks,
        "failed": n_failed,
        "min_margin": min_margin,
        "saturated": n_saturated,
    }
    _write_report(rows, summary, args.out, args.format)
    print(
        f"checks={checks} failed={n_failed} "
        f"min_margin={min_margin!r} saturated={n_saturated}/{checks}"
    )
    return EXIT_VIOLATION if n_failed else EXIT_OK


def cmd_mub(args) -> int:
    mubs = mub_construct(args.dim, args.count)
    count, d = mubs.shape
    payload = {
        "dim": d,
        "count": count,
        "bases": [
            {"re": b.real.tolist(), "im": b.imag.tolist()} for b in mubs.kets.reshape(count, d, d)
        ],
        "max_unbiasedness_deviation": mubs.deviation,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    print(
        f"mub ok: dim={d} count={count} max_unbiasedness_deviation={mubs.deviation:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_coincidence(args) -> int:
    d = check_dimension(args.dim)
    if args.state is not None:
        with open(args.state, "r", encoding="utf-8") as fh:
            rho = from_json(fh.read())
        if rho.dim != d:
            raise DomainError(f"state dimension {rho.dim} does not match --dim {d}")
    elif args.random_rank is not None:
        rho = random_mixed(d, args.random_rank, args.seed)
    else:
        rho = maximally_mixed(d)
    sic = measurement("sic", d, None, _fiducial_ket(args.fiducial))
    report = bnd.check_bound(sic, rho, "P5-sic-ic", tolerance=args.tolerance)
    print(
        f"coincidence dim={d} lhs={report.lhs!r} rhs={report.rhs!r} "
        f"residual={abs(report.margin):.3e}"
    )
    return EXIT_OK if report.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mubsic",
        description="Measurement construction and entropic-bound verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mub = sub.add_parser("mub", help="construct and verify a MUB set")
    p_mub.add_argument("--dim", type=int, required=True, help="Hilbert-space dimension")
    p_mub.add_argument("--count", type=int, required=True, help="number of bases")
    p_mub.add_argument("--out", default=None, help="JSON path (default or empty: stdout)")

    p_ver = sub.add_parser("verify", help="run a bound-verification campaign")
    p_ver.add_argument("--dims", default="2,3", help="comma list of dimensions")
    p_ver.add_argument(
        "--props",
        default="all",
        help="comma list of proposition labels, or 'all' "
        f"(available: {', '.join(bnd.PROPOSITION_LABELS)})",
    )
    p_ver.add_argument(
        "--alphas",
        default="2",
        help="comma list of entropy orders ('inf' allowed); alpha=2 is valid "
        "for every order-dependent label",
    )
    p_ver.add_argument("--samples", type=int, default=100, help="random states per cell")
    p_ver.add_argument("--seed", type=int, default=0, help="master seed")
    p_ver.add_argument("--count", type=int, default=None, help="MUB count (default d+1)")
    p_ver.add_argument("--eta", type=float, default=None, help="detector efficiency for P1/P6")
    p_ver.add_argument(
        "--tolerance", type=float, default=bnd.DEFAULT_TOLERANCE, help="pass threshold"
    )
    p_ver.add_argument("--out", default=None, help="report path (default or empty: stdout)")
    p_ver.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ver.add_argument("--fiducial", default=None, help="JSON fiducial for non-builtin dims")

    p_ic = sub.add_parser("coincidence", help="evaluate the exact SIC coincidence identity")
    p_ic.add_argument("--dim", type=int, required=True)
    p_ic.add_argument("--state", default=None, help="density-matrix JSON file")
    p_ic.add_argument("--random-rank", type=int, default=None, help="sample a random state")
    p_ic.add_argument("--seed", type=int, default=0)
    p_ic.add_argument("--fiducial", default=None, help="JSON fiducial file")
    p_ic.add_argument("--tolerance", type=float, default=bnd.DEFAULT_TOLERANCE)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first :func:`main` call of a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced cmd_* function is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ValueError, MemoryError) as exc:  # every rejected input; a stack too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
