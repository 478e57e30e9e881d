"""Every entropic order goes through ``entropy.check_order`` against one named range.

Each entry point that takes an order is given a non-number, None, NaN, an
int too large for a float and a number outside its range, and must raise
:class:`DomainError` in the one message format, naming the range of
``ORDER_RANGES`` it checks against.
"""

import math
import re

import numpy as np
import pytest

import mubsic
from mubsic import DomainError, cli
from mubsic.bounds import PROPOSITIONS, check_arguments
from mubsic.entropy import ORDER_RANGES, check_order

UNIFORM = np.full(4, 0.25)  # a d = 2 SIC distribution: max p <= 1/d
OUTSIDE = {"tsallis": 3.0, "renyi": 1.5, "symmetrized": 0.9}

# entry point -> (call, the range it checks against, a number outside that range)
ENTRY_POINTS = {
    "renyi": (lambda a: mubsic.renyi(UNIFORM, a), "positive", 0.0),
    "tsallis": (lambda a: mubsic.tsallis(UNIFORM, a), "finite", math.inf),
    "alpha_log": (lambda a: mubsic.alpha_log(2.0, a), "finite", math.inf),
    "symmetrized": (lambda a: mubsic.symmetrized(UNIFORM, a), "symmetrized", 0.9),
    "conjugate_order": (mubsic.conjugate_order, "conjugate", 0.5),
    "mub_tsallis_bound": (lambda a: mubsic.mub_tsallis_bound(3, 4, a, 1.0), "tsallis", 3.0),
    "mub_renyi_bound": (lambda a: mubsic.mub_renyi_bound(3, 4, a, 1.0), "renyi", 1.5),
    "mub_symmetrized_bound": (lambda a: mubsic.mub_symmetrized_bound(3, a), "symmetrized", 0.9),
    "sic_tsallis_bound": (lambda a: mubsic.sic_tsallis_bound(3, a, 1.0), "tsallis", 3.0),
    "sic_renyi_bound": (lambda a: mubsic.sic_renyi_bound(3, a, 1.0), "renyi", 1.5),
    "simple_bounds": (lambda a: mubsic.simple_bounds(UNIFORM, 2, a), "finite", math.inf),
    "CampaignConfig": (
        lambda a: cli.CampaignConfig(dims=[2], props=["P5-sic-ic"], alphas=[a], samples=1, seed=0),
        "positive",
        -1.0,
    ),
    **{
        f"check_arguments-{label}": (
            lambda a, label=label: check_arguments(label, alpha=a),
            prop.order,
            OUTSIDE[prop.order],
        )
        for label, prop in PROPOSITIONS.items()
        if prop.order is not None
    },
}


@pytest.mark.parametrize(
    "bad", ("x", None, math.nan, 10**400, "out of range"), ids=("x", "None", "nan", "10**400", "out")
)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_applies_the_one_order_rule(entry, bad):
    call, name, outside = ENTRY_POINTS[entry]
    alpha = outside if bad == "out of range" else bad
    interval = re.escape(ORDER_RANGES[name][0])
    message = f"^{name} order must lie in {interval}, got {re.escape(repr(alpha))}$"
    if bad is None and entry.startswith("check_arguments"):
        message = "needs an order alpha$"  # a missing order, not a bad one
    with pytest.raises(DomainError, match=message):
        call(alpha)


@pytest.mark.parametrize("bad", ("x", "None", "nan", "0", "-1"))
def test_verify_rejects_a_bad_order_with_exit_2(bad, capsys):
    argv = ["verify", "--dims", "2", "--props", "P2-mub-renyi", "--alphas", bad, "--samples", "2"]
    assert cli.main(argv) == cli.EXIT_UNSUPPORTED
    assert capsys.readouterr().err.startswith("error: positive order must lie in (0, inf], got ")


@pytest.mark.parametrize(
    "alpha, value",
    [("inf", math.inf), (" INF ", math.inf), ("2", 2.0), (np.float64(2.0), 2.0), (3, 3.0)],
    ids=repr,
)
def test_check_order_returns_a_float(alpha, value):
    result = check_order(alpha)
    assert type(result) is float and result == value


def test_each_proposition_order_names_a_range():
    orders = {prop.order for prop in PROPOSITIONS.values()} - {None}
    assert orders == {"tsallis", "renyi", "symmetrized"}
    assert orders <= ORDER_RANGES.keys()


def test_config_reads_numeric_strings_as_floats():
    # a string order used to fail with a bare TypeError from "a > 0.0"
    def rows(props, alphas):
        config = cli.CampaignConfig(dims=[2, 3], props=props, alphas=alphas, samples=2, seed=4)
        return config.alphas, cli.run_campaign(config)[1]

    assert rows(list(PROPOSITIONS), ["2"]) == rows(list(PROPOSITIONS), [2.0])
    renyi = ["P2-mub-renyi", "P7-sic-renyi"]
    assert rows(renyi, [" inf ", "3"]) == rows(renyi, [math.inf, 3.0])
