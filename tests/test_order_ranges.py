"""Negative controls for the order ranges: just outside its range, a bound fails.

The Tsallis bounds P1 and P6 are proved for orders in (0, 2] and the Rényi
bounds P2 and P7 for orders in [2, inf] (``entropy.ORDER_RANGES``): the
lemma needs ln_alpha(1/x) convex, or ||p||_alpha <= ||p||_2.  Each label is
evaluated here as a campaign evaluates it (:func:`bounds.inputs`, the
entropy of its family, :func:`bounds._average` over a MUB set's bases and
:func:`bounds._lemma` at the cap), but at an order just outside its range,
on random pure states.  There some state breaks the bound, while at order
2 every state keeps it, so the range is as wide as the proof and no wider.
Basis states are no control: P2 at 1.99 holds on them with margin 5e-2,
and P6 at 2.01 and d = 3 gives |0> a margin of -3e-16, a rounding error.
"""

import numpy as np
import pytest

from mubsic import bounds as bnd
from mubsic import (
    DomainError,
    mub_construct,
    random_mixed,
    renyi,
    sic_from_fiducial,
    stream,
    tsallis,
)
from mubsic.entropy import check_order

N = 2000  # random pure states per dimension
# label -> the order just outside its range
OUTSIDE = {
    "P1-mub-tsallis": 2.01,
    "P2-mub-renyi": 1.99,
    "P6-sic-tsallis": 2.01,
    "P7-sic-renyi": 1.99,
}
ENTROPY = {"tsallis": tsallis, "renyi": renyi}
CASES = [(label, d) for label in OUTSIDE for d in (2, 3)]


def _pure_states(d):
    normals = stream(5, d).standard_normal((N, 2, d, d))
    return random_mixed(d, np.ones(N, dtype=int), normals=normals)


def _margins(label, d, alpha):
    """lhs - rhs of ``label`` at order ``alpha`` on the random pure states, range unchecked."""
    kind = bnd.PROPOSITIONS[label].order
    mubs = bnd.PROPOSITIONS[label].measurement == "mubs"
    meas = mub_construct(d, d + 1) if mubs else sic_from_fiducial(d)
    x = bnd.inputs(label, meas, _pure_states(d))
    lhs = ENTROPY[kind](x.p, alpha)
    rhs = bnd._lemma(kind, alpha, d, d + 1 if mubs else None, x.cap)
    return (bnd._average(lhs) if mubs else lhs) - rhs


@pytest.mark.parametrize("label, d", CASES)
def test_just_outside_its_range_a_bound_fails(label, d):
    assert _margins(label, d, OUTSIDE[label]).min() < -1e-4


@pytest.mark.parametrize("label, d", CASES)
def test_at_order_2_every_state_keeps_the_bound(label, d):
    assert _margins(label, d, 2.0).min() >= -1e-10


@pytest.mark.parametrize("label", OUTSIDE)
def test_the_order_rule_rejects_the_outside_order(label):
    name = bnd.PROPOSITIONS[label].order
    with pytest.raises(DomainError, match=f"^{name} order must lie in "):
        check_order(OUTSIDE[label], name)
