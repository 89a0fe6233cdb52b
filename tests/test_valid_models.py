"""From a model that loads to a finite J: bounded property tests.

Random strongly connected networks, zone attributes with zeros and blanks,
and one or two strata anywhere in the default calibration box are written
with write_model and read back with load_model. Whenever loading passes,
assign in both modes and ModelObjective must give finite values, a counted
Furness failure (J = +inf), or a documented Furness error. So must every
point of a random calibration box that WeightVector accepts, on the toy
star.
"""

import math
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfit.assignment import assign
from flowfit.calibrate import DEFAULT_BOUNDS, ModelObjective, WeightVector
from flowfit.demand import (
    DETERRENCE_KINDS,
    DemandStratum,
    FurnessConvergenceError,
    FurnessInfeasibleError,
    Zone,
)
from flowfit.metrics import TrafficCount
from flowfit.model_io import ModelLoadError, load_model, write_model
from flowfit.sample_models import eight_zone_star, synthetic_counts

from conftest import random_strongly_connected

ATTRIBUTES = ("population", "jobs")
FURNESS_ERRORS = (FurnessConvergenceError, FurnessInfeasibleError)

# an attribute cell: blank (left off the zone), zero, or a positive amount
cell = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1e5))
stratum_fields = st.tuples(st.sampled_from(ATTRIBUTES), st.sampled_from(ATTRIBUTES),
                           st.floats(*DEFAULT_BOUNDS["mu"]), st.floats(*DEFAULT_BOUNDS["beta"]),
                           st.sampled_from(DETERRENCE_KINDS))


@st.composite
def models(draw):
    """(zones, network, counts, strata) of a random model."""
    net = random_strongly_connected(np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    zones = []
    for zone_id in sorted(net.zone_anchors):
        cells = {attr: draw(cell) for attr in ATTRIBUTES}
        zones.append(Zone(zone_id, attributes={a: v for a, v in cells.items() if v is not None}))
    counted = draw(st.lists(st.sampled_from(net.link_ids), min_size=1, max_size=3, unique=True))
    counts = [TrafficCount(lid, draw(st.floats(0.0, 1e5))) for lid in counted]
    strata = [DemandStratum(f"s{k}", *fields)
              for k, fields in enumerate(draw(st.lists(stratum_fields, min_size=1, max_size=2)))]
    return zones, net, counts, strata


def assert_finite_or_furness_error(run):
    try:
        total = run().total
    except FURNESS_ERRORS:
        return
    assert np.isfinite(total).all()


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(models())
def test_a_model_that_loads_gives_finite_flows_and_j_or_a_counted_failure(model):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            loaded = load_model(write_model(tmp, *model))
        except ModelLoadError:
            return
    zones, net, counts, strata = loaded.zones, loaded.network, loaded.counts, loaded.strata
    assert_finite_or_furness_error(lambda: assign(net, zones, strata, mode="oneoff"))
    assert_finite_or_furness_error(
        lambda: assign(net, zones, strata, mode="iterative", n_outer=3))
    objective = ModelObjective(zones, net, strata, counts)
    j = objective(objective.template.values())
    assert math.isfinite(j) or (j == math.inf and objective.furness_failures == 1)


STAR_ZONES, STAR = eight_zone_star(jobs_cutoff=5000.0)
STAR_STRATA = [DemandStratum("home", "population", "population", 0.6, 0.06),
               DemandStratum("work", "population", "jobs", 0.4, 0.11)]
STAR_COUNTS = synthetic_counts(STAR_ZONES, STAR, STAR_STRATA)


@st.composite
def boxes(draw):
    """bound_overrides for some of STAR_STRATA's weights: a lower bound from
    the weight down to half of it below 0, and an upper bound up to 100, or
    any amount (infinity too), above the weight."""
    overrides = {}
    for s in STAR_STRATA:
        for param in ("mu", "beta"):
            if draw(st.booleans()):
                value = getattr(s, param)
                below = draw(st.floats(0.0, 1.5))
                above = draw(st.floats(0.0, 100.0) | st.floats(0.0, math.inf))
                overrides[f"{s.name}.{param}"] = (value * (1.0 - below), value + above)
    return overrides


@settings(max_examples=200, derandomize=True, deadline=None)
@given(overrides=boxes(), shares=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
def test_every_point_of_an_accepted_box_gives_valid_strata_and_a_finite_or_counted_j(
        overrides, shares):
    try:
        WeightVector.from_strata(STAR_STRATA, overrides=overrides)
    except ValueError as exc:
        assert "bounds must be finite and >= 0" in str(exc)
        return
    objective = ModelObjective(STAR_ZONES, STAR, STAR_STRATA, STAR_COUNTS,
                               bound_overrides=overrides)
    lo, hi = objective.template.lower(), objective.template.upper()
    for x in (lo, hi, np.clip(lo + np.array(shares) * (hi - lo), lo, hi)):
        objective.template.with_values(x).apply(STAR_STRATA)  # each weight in its range
        failures = objective.furness_failures
        with np.errstate(over="ignore", invalid="ignore"):  # trip ends of a mu near 1e300
            j = objective(x)
        assert math.isfinite(j) or (j == math.inf and objective.furness_failures == failures + 1)
