"""Correctness gate for campaign reports.

Every check here holds for any way the campaign driver derives its random
streams, so a change to the stream layout does not trip it:

* the rows cover exactly the planned (label, dim, order) cells, each with
  the planned number of samples;
* ``margin == lhs - rhs`` exactly, after the ``float(repr)`` round trip;
* the P5 exact identity holds to ``P5_RESIDUAL``;
* for P1/P2/P3/P6/P7/P8 the row's ``rhs`` agrees to ``RHS_AGREEMENT`` with
  the public bound function evaluated on the row's (dim, M, alpha, purity).

Run-to-run identity of reports for one seed is checked by the harness,
which reruns a unit and compares digests.
"""

from __future__ import annotations

import math
from collections import Counter

import mubsic

# labels whose rows take an entropic order from --alphas
ALPHA_DEPENDENT = frozenset(
    {
        "P1-mub-tsallis",
        "P2-mub-renyi",
        "P4-mub-sym",
        "P6-sic-tsallis",
        "P7-sic-renyi",
        "P9-mu-pair",
    }
)
P5_RESIDUAL = 1e-10
RHS_AGREEMENT = 1e-12

# rhs recomputed from (dim, M, alpha, purity) with the public bound functions
RHS = {
    "P1-mub-tsallis": lambda d, m, a, p: mubsic.mub_tsallis_bound(d, m, a, p),
    "P2-mub-renyi": lambda d, m, a, p: mubsic.mub_renyi_bound(d, m, a, p),
    "P3-mub-minent": lambda d, m, a, p: mubsic.mub_minentropy_bound(d, m, p),
    "P6-sic-tsallis": lambda d, m, a, p: mubsic.sic_tsallis_bound(d, a, p),
    "P7-sic-renyi": lambda d, m, a, p: mubsic.sic_renyi_bound(d, a, p),
    "P8-sic-minent": lambda d, m, a, p: mubsic.sic_minentropy_bound(d, p),
}


def parse_order(text: str) -> float:
    text = text.strip().lower()
    return math.inf if text == "inf" else float(text)


def format_order(text: str) -> str:
    """The report's spelling of an order given on the command line."""
    alpha = parse_order(text)
    return "inf" if math.isinf(alpha) else repr(alpha)


def plan(dims, props, alphas, samples: int) -> Counter:
    """Expected row count per (label, dim, alpha column) cell."""
    cells = Counter()
    for d in dims:
        for prop in props:
            for alpha in alphas if prop in ALPHA_DEPENDENT else [""]:
                cells[(prop, int(d), alpha)] += samples
    return cells


def check_row(row) -> str | None:
    """Return why a report row is wrong, or None when it is right."""
    try:
        lhs, rhs, margin = (float(row[k]) for k in ("lhs", "rhs", "margin"))
        if margin != lhs - rhs:
            return f"margin {row['margin']} != lhs - rhs = {lhs - rhs!r}"
        if row["prop"] == "P5-sic-ic" and not abs(lhs - rhs) <= P5_RESIDUAL:
            return f"P5 residual {abs(lhs - rhs)!r} > {P5_RESIDUAL}"
        recompute = RHS.get(row["prop"])
        if recompute is not None:
            alpha = parse_order(row["alpha"]) if row["alpha"] else None
            want = recompute(int(row["dim"]), int(row["M"]), alpha, float(row["purity"]))
            if not abs(want - rhs) <= RHS_AGREEMENT:
                return f"rhs {rhs!r} != recomputed {want!r}"
    except (KeyError, ValueError) as exc:  # mubsic.DomainError is a ValueError
        return f"unreadable row: {exc!r}"
    return None


def check_rows(rows, expected: Counter) -> tuple[int, list[str]]:
    """Gate a report's rows against the plan; returns (failed checks, messages)."""
    messages = []
    failed = 0
    for i, row in enumerate(rows):
        problem = check_row(row)
        if problem is not None:
            failed += 1
            messages.append(f"row {i} ({row.get('prop')}, d={row.get('dim')}): {problem}")
    got = Counter((r.get("prop"), int(r.get("dim", 0)), r.get("alpha")) for r in rows)
    for cell in expected.keys() | got.keys():
        if got[cell] != expected[cell]:
            failed += abs(got[cell] - expected[cell])
            messages.append(f"cell {cell}: {got[cell]} rows, planned {expected[cell]}")
    return failed, messages
