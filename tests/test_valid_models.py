"""From a model that loads to a finite J: a bounded property test.

Random strongly connected networks, zone attributes with zeros and blanks,
and one or two strata anywhere in the default calibration box are written
with write_model and read back with load_model. Whenever loading passes,
assign in both modes and ModelObjective must give finite values, a counted
Furness failure (J = +inf), or a documented Furness error.
"""

import math
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfit.assignment import assign
from flowfit.calibrate import DEFAULT_BOUNDS, ModelObjective
from flowfit.demand import (
    DETERRENCE_KINDS,
    DemandStratum,
    FurnessConvergenceError,
    FurnessInfeasibleError,
    Zone,
)
from flowfit.metrics import TrafficCount
from flowfit.model_io import ModelLoadError, load_model, write_model

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
