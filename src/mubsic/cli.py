"""Command-line driver: construct measurements and run bound campaigns.

Subcommands:

* ``mub``         -- construct and verify a MUB set, emit it as JSON.
* ``verify``      -- run a Monte-Carlo bound-verification campaign over
  random states and write one CSV row (or JSON record) per check.
* ``coincidence`` -- evaluate both sides of the exact SIC
  index-of-coincidence identity for one state.

Exit codes: 0 all checks passed, 1 a bound check failed, 2 unsupported
or out-of-domain input, 3 I/O failure.  Campaigns with identical
configuration and seed produce bitwise-identical reports.  A campaign
validates its whole plan first, then evaluates each (dim, label, order)
cell as one stack of states drawn from the cell's own stream.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .errors import DomainError
from .linalg import kron
from .measurements import SicPovm, load_fiducial, mub_construct, sic_from_fiducial
from .states import (
    DensityMatrix,
    from_json,
    maximally_mixed,
    purity,
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

# seed of the fixed unitary that rotates the builtin SIC for pair checks
PAIR_ROTATION_SEED = 20130416


@dataclass
class CampaignConfig:
    """Validated configuration of one verification campaign."""

    dims: list[int]
    props: list[str]
    alphas: list[float]
    samples: int
    seed: int
    eta: float | None = None
    tolerance: float = bnd.DEFAULT_TOLERANCE
    count: int | None = None
    fiducial_path: str | None = None
    trials: int = 4

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if not self.tolerance >= 0.0:
            raise DomainError(f"tolerance must be nonnegative, got {self.tolerance}")
        for a in self.alphas:
            if not a > 0.0:
                raise DomainError(f"entropy order must be positive, got {a}")
        for p in self.props:
            if p not in bnd.PROPOSITIONS:
                raise DomainError(f"unknown proposition label {p!r}")
        if self.eta is not None and not 0.0 <= self.eta <= 1.0:
            raise DomainError(f"efficiency must lie in [0, 1], got {self.eta}")
        if self.trials < 1:
            raise DomainError(f"trials must be >= 1, got {self.trials}")


def _parse_alpha(text: str) -> float:
    text = text.strip().lower()
    if text == "inf":
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise DomainError(f"cannot parse entropy order {text!r}") from exc


def _format_alpha(alpha) -> str:
    if alpha is None:
        return ""
    if math.isinf(alpha):
        return "inf"
    return repr(float(alpha))


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


class _Cell(NamedTuple):
    """One (dim, label, order) cell of a campaign, its stream key and measurement."""

    key: tuple  # (di, pi, ai): the cell's stream id under the campaign seed
    d: int
    prop: str
    alpha: float | None
    eta: float | None
    meas: object
    outcomes: int  # the M column


def _plan(config: CampaignConfig) -> list[_Cell]:
    """Every cell of the campaign, with its measurement built and its orders checked."""
    fiducial = _fiducial_ket(config.fiducial_path)
    cells = []
    for di, d in enumerate(config.dims):
        # a fiducial file serves the one dimension it was written for
        ket = fiducial if fiducial is not None and len(fiducial) == d else None
        for pi, prop in enumerate(config.props):
            entry = bnd.PROPOSITIONS[prop]
            eta = config.eta if entry.efficiency else None
            if entry.measurement == "mubs":
                count = d + 1 if config.count is None else config.count
                meas = measurement("mubs", d, count, None)
                outcomes = meas.count
            else:
                meas = measurement("pair" if entry.measurement == "pair" else "sic", d, None, ket)
                outcomes = d**4 if entry.measurement == "product" else d * d
            for ai, alpha in enumerate(config.alphas if entry.order else [None]):
                bnd.check_arguments(prop, alpha=alpha, eta=eta)
                cells.append(_Cell((di, pi, ai), d, prop, alpha, eta, meas, outcomes))
    return cells


def _run_cell(cell: _Cell, config: CampaignConfig):
    """Evaluate every sample of one cell as one stack of states.

    The cell's stream (seed, di, pi, ai) gives one (N, K) block of standard
    normals: row i holds all K numbers sample i needs, so a row depends
    only on the cell key and i.  Row layout: the Ginibre block (2, d, d) of
    the state; for ENT-G, a second one for party B; for APXB-riesz,
    (trials, 2, d^2) for the input vectors.
    """
    d, n = cell.d, config.samples
    entry = bnd.PROPOSITIONS[cell.prop]
    block = 2 * d * d
    product = entry.measurement == "product"
    trials = config.trials if cell.prop == "APXB-riesz" else 0
    width = block * (2 if product else 1) + 2 * trials * d * d
    draws = stream(config.seed, *cell.key).standard_normal((n, width))
    samples = np.arange(n)
    rho = random_mixed(
        d,
        1 + samples % d,
        normals=draws[:, :block].reshape(n, 2, d, d),
        eigh=entry.measurement == "pair",
    )
    if product:
        rho_b = random_mixed(
            d, 1 + (samples // d) % d, normals=draws[:, block : 2 * block].reshape(n, 2, d, d)
        )
        rho = DensityMatrix(kron(rho.mat, rho_b.mat))
    u = None
    if trials:
        z = draws[:, block:].reshape(n, trials, 2, d * d)
        u = z[:, :, 0] + 1j * z[:, :, 1]
    reports = bnd.check_bound(
        cell.meas,
        rho,
        cell.prop,
        alpha=cell.alpha,
        eta=cell.eta,
        trials=0,
        u=u,
        tolerance=config.tolerance,
    )
    fixed = {
        "prop": cell.prop,
        "dim": d,
        "M": cell.outcomes,
        "alpha": _format_alpha(cell.alpha),
        "eta": "" if cell.eta is None else repr(float(cell.eta)),
        "seed": config.seed,
    }
    rows = [
        {
            **fixed,
            "sample": sample,
            "purity": repr(p2),
            "lhs": repr(report.lhs),
            "rhs": repr(report.rhs),
            "margin": repr(report.margin),
            "saturated": "true" if report.saturated else "false",
        }
        for sample, p2, report in zip(range(n), purity(rho).tolist(), reports)
    ]
    return reports, rows


def run_campaign(config: CampaignConfig):
    """Execute a campaign; returns (reports, rows) in deterministic order.

    The whole plan (every measurement and every order range) is validated
    before any state is sampled.
    """
    cells = _plan(config)
    reports = []
    rows = []
    for cell in cells:
        cell_reports, cell_rows = _run_cell(cell, config)
        reports += cell_reports
        rows += cell_rows
    return reports, rows


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None or empty."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_report(rows, summary, out, fmt):
    if fmt == "json":
        # one row per line, so each row goes through the C encoder
        lines = ",\n".join(map(json.dumps, rows))
        text = f'{{"rows": [\n{lines}\n],\n"summary": {json.dumps(summary)}}}\n'
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _emit(text, out)


def cmd_verify(args) -> int:
    config = CampaignConfig(
        dims=[int(x) for x in args.dims.split(",") if x],
        props=(
            list(bnd.PROPOSITION_LABELS)
            if args.props.strip().lower() == "all"
            else [x.strip() for x in args.props.split(",") if x.strip()]
        ),
        alphas=[_parse_alpha(x) for x in args.alphas.split(",") if x.strip()],
        samples=args.samples,
        seed=args.seed,
        eta=args.eta,
        tolerance=args.tolerance,
        count=args.count,
        fiducial_path=args.fiducial,
        trials=args.trials,
    )
    reports, rows = run_campaign(config)
    if not reports:
        raise DomainError("campaign is empty: no (dim, proposition, order) cells to run")
    min_margin = min(r.margin for r in reports)
    n_saturated = sum(r.saturated for r in reports)
    n_failed = sum(not r.passed for r in reports)
    summary = {
        "checks": len(reports),
        "failed": n_failed,
        "min_margin": min_margin,
        "saturated": n_saturated,
    }
    _write_report(rows, summary, args.out, args.format)
    print(
        f"checks={len(reports)} failed={n_failed} "
        f"min_margin={min_margin!r} saturated={n_saturated}/{len(reports)}"
    )
    return EXIT_VIOLATION if n_failed else EXIT_OK


def cmd_mub(args) -> int:
    mubs = mub_construct(args.dim, args.count)
    payload = {
        "dim": mubs.dim,
        "count": mubs.count,
        "bases": [
            {"re": b.vectors.real.tolist(), "im": b.vectors.imag.tolist()}
            for b in mubs.bases
        ],
        "max_unbiasedness_deviation": mubs.max_deviation,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    print(
        f"mub ok: dim={mubs.dim} count={mubs.count} "
        f"max_unbiasedness_deviation={mubs.max_deviation:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_coincidence(args) -> int:
    d = args.dim
    if not args.tolerance >= 0.0:
        raise DomainError(f"tolerance must be nonnegative, got {args.tolerance}")
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
    p_mub.set_defaults(func=cmd_mub)

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
    p_ver.add_argument("--trials", type=int, default=4, help="random inputs per APXB check")
    p_ver.add_argument("--out", default=None, help="report path (default or empty: stdout)")
    p_ver.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ver.add_argument("--fiducial", default=None, help="JSON fiducial for non-builtin dims")
    p_ver.set_defaults(func=cmd_verify)

    p_ic = sub.add_parser("coincidence", help="evaluate the exact SIC coincidence identity")
    p_ic.add_argument("--dim", type=int, required=True)
    p_ic.add_argument("--state", default=None, help="density-matrix JSON file")
    p_ic.add_argument("--random-rank", type=int, default=None, help="sample a random state")
    p_ic.add_argument("--seed", type=int, default=0)
    p_ic.add_argument("--fiducial", default=None, help="JSON fiducial file")
    p_ic.add_argument("--tolerance", type=float, default=bnd.DEFAULT_TOLERANCE)
    p_ic.set_defaults(func=cmd_coincidence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # DomainError and every other rejected input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
