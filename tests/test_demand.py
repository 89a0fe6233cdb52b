import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowfit import demand
from flowfit.assignment import AssignmentOptions, PathSet
from flowfit.calibrate import DEFAULT_BOUNDS, AnnealingOptions, CalibrationOptions, ModelObjective
from flowfit.demand import (
    FIELD_TYPES,
    RANGES,
    DegenerateStratumError,
    DemandStratum,
    FurnessConvergenceError,
    FurnessInfeasibleError,
    ODMatrix,
    TripEnds,
    Zone,
    ZoneAttributes,
    derive_jobs,
    deterrence,
    distribute,
    furness_balance,
    seed_matrix,
)
from flowfit.model_io import DerivationRule
from flowfit.network import CostMatrix, free_flow_times
from flowfit.sample_models import eight_zone_star, grid_region, synthetic_counts, toy_strata

# no balance may lean on numpy's floating-point warnings: overflow and
# division inside furness_balance are expected and silenced there
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def costs_of(values, zone_ids=None):
    values = np.asarray(values, dtype=float)
    zone_ids = tuple(zone_ids or (f"z{i}" for i in range(values.shape[0])))
    return CostMatrix(zone_ids, values)


def pop_zones(pops):
    return [Zone(f"z{i}", attributes={"population": float(p)})
            for i, p in enumerate(pops)]


class TestDeriveJobs:
    def test_above_cutoff(self):
        # sqrt(13000**2 - 5000**2) = sqrt(144e6)
        assert derive_jobs(13000.0, 5000.0) == 12000.0

    def test_below_cutoff_is_residential(self):
        assert derive_jobs(4000.0, 5000.0) == 1.0

    def test_exactly_at_cutoff(self):
        # the formula is taken literally, jump at the cutoff included
        assert derive_jobs(5000.0, 5000.0) == 0.0

    @given(st.floats(5000.0, 1e7), st.floats(5000.0, 1e7))
    def test_increasing_above_cutoff(self, p1, p2):
        lo, hi = sorted((p1, p2))
        assert derive_jobs(lo) <= derive_jobs(hi)

    def test_continuous_above_cutoff(self):
        # difference quotient stays bounded just above the cutoff
        for pop in np.linspace(5000.0, 6000.0, 50):
            a, b = derive_jobs(pop), derive_jobs(pop + 1e-3)
            assert b - a < 10.0


class TestZoneAttributes:
    def test_single_zone_direct_arithmetic(self):
        stratum = DemandStratum("s", "population", "population", 1.5, 0.1)
        ends = ZoneAttributes(pop_zones([1000])).trip_ends(stratum)
        assert ends.origins.tolist() == [1500.0]
        assert ends.destinations.tolist() == [1500.0]

    def test_rescale_is_identity_when_totals_match(self):
        stratum = DemandStratum("s", "population", "population", 1.0, 0.0)
        ends = ZoneAttributes(pop_zones([100, 300])).trip_ends(stratum)
        assert ends.origins.tolist() == [100.0, 300.0]
        assert ends.destinations.tolist() == [100.0, 300.0]

    def test_occupancy_divides_origins(self):
        stratum = DemandStratum("s", "population", "population", 1.5, 0.1,
                                occupancy=1.5)
        ends = ZoneAttributes(pop_zones([1000])).trip_ends(stratum)
        assert ends.origins.tolist() == [1000.0]

    def test_attraction_rescaled_to_origin_total(self):
        zones = [
            Zone("a", attributes={"population": 1000.0, "jobs": 10.0}),
            Zone("b", attributes={"population": 0.0, "jobs": 30.0}),
        ]
        stratum = DemandStratum("s", "population", "jobs", 1.0, 0.1)
        ends = ZoneAttributes(zones).trip_ends(stratum)
        assert ends.origins.sum() == 1000.0
        assert ends.destinations.tolist() == [250.0, 750.0]

    def test_mu_zero_yields_zero_ends_with_warning(self, caplog):
        stratum = DemandStratum("s", "population", "population", 0.0, 0.1)
        with caplog.at_level("WARNING"):
            ends = ZoneAttributes(pop_zones([1000, 2000])).trip_ends(stratum)
        assert ends.origins.tolist() == [0.0, 0.0]
        assert ends.destinations.tolist() == [0.0, 0.0]
        assert any("no trips" in r.message for r in caplog.records)

    def test_attraction_summing_to_a_subnormal_balances(self):
        # 100 / 1e-308 overflows: the attraction scales through its shares
        zones, net = eight_zone_star()
        zones = [dataclasses.replace(z, attributes={**z.attributes, "jobs": 0.0})
                 for z in zones]
        zones[0].attributes["jobs"] = 1e-308
        stratum = DemandStratum("s", "population", "jobs", 1.0, 0.1)
        ends = ZoneAttributes(zones).trip_ends(stratum)
        assert ends.destinations.tolist() == [ends.origins.sum()] + [0.0] * 7
        skim = net.free_flow_paths.skim
        trips = distribute(ZoneAttributes(zones, skim.zone_ids), stratum, skim).trips
        assert trips[:, 0].sum() == pytest.approx(ends.origins.sum(), rel=1e-12)
        assert trips[:, 1:].sum() == 0.0
        counts = synthetic_counts(zones, net, [stratum])
        objective = ModelObjective(zones, net, [stratum], counts)
        assert math.isfinite(objective(np.array([1.0, 0.1])))
        assert objective.furness_failures == 0

    def test_all_zero_production_is_degenerate(self):
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        with pytest.raises(DegenerateStratumError, match="production"):
            ZoneAttributes(pop_zones([0, 0])).trip_ends(stratum)

    def test_all_zero_attraction_is_degenerate(self):
        zones = [Zone("a", attributes={"population": 10.0, "jobs": 0.0})]
        stratum = DemandStratum("s", "population", "jobs", 1.0, 0.1)
        with pytest.raises(DegenerateStratumError, match="attraction"):
            ZoneAttributes(zones).trip_ends(stratum)

    def test_missing_attribute_counts_as_zero(self):
        zones = [Zone("a", attributes={"population": 10.0}), Zone("b")]
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        ends = ZoneAttributes(zones).trip_ends(stratum)
        assert ends.origins.tolist() == [10.0, 0.0]

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_attribute_outside_its_range_rejected(self, value):
        zones = [Zone("a", attributes={"population": value}),
                 Zone("b", attributes={"population": 5.0})]
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        with pytest.raises(ValueError,
                           match=f"zone 'a' must be finite and >= 0, got {value!r}"):
            ZoneAttributes(zones).trip_ends(stratum)

    def test_zone_order_is_the_zones_own_or_the_one_given(self):
        zones = pop_zones([100, 300, 200])
        stratum = DemandStratum("s", "population", "population", 1.0, 0.0)
        assert ZoneAttributes(zones).zone_ids == ("z0", "z1", "z2")
        given = ZoneAttributes(zones, ["z2", "z0", "z1"])
        assert given.zone_ids == ("z2", "z0", "z1")
        assert given.trip_ends(stratum).origins.tolist() == [200.0, 100.0, 300.0]

    def test_vectors_are_read_once_per_attribute_pair(self):
        zones = pop_zones([100, 300])
        attributes = ZoneAttributes(zones)
        first = attributes.vectors(DemandStratum("s", "population", "population", 1.0, 0.1))
        zones[0].attributes["population"] = 7.0
        again = attributes.vectors(DemandStratum("t", "population", "population", 0.5, 0.2))
        assert again is first and first[0].tolist() == [100.0, 300.0]

    @pytest.mark.parametrize("name, value, rule", [
        ("mu", -1.0, ">= 0"), ("mu", math.nan, ">= 0"), ("mu", math.inf, ">= 0"),
        ("beta", -0.1, ">= 0"), ("beta", math.nan, ">= 0"), ("beta", math.inf, ">= 0"),
        ("occupancy", 0.0, "> 0"), ("occupancy", math.inf, "> 0"),
    ])
    def test_weight_outside_its_range_rejected(self, name, value, rule):
        weights = {"mu": 1.0, "beta": 0.1, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite and {rule}"):
            DemandStratum("s", "p", "p", **weights)

    def test_stratum_invariants_enforced(self):
        with pytest.raises(ValueError, match="deterrence"):
            DemandStratum("s", "p", "p", 1.0, 0.1, deterrence_kind="sigmoid")


SETTINGS_CLASSES = (AssignmentOptions, CalibrationOptions, AnnealingOptions, DemandStratum,
                    DerivationRule)
STRATUM = {"name": "s", "production_attr": "p", "attraction_attr": "p", "mu": 1.0, "beta": 0.1}
DERIVATION = {"attribute": "jobs", "method": "jobs_from_population", "source": "population"}


class TestSettingsFieldTypes:
    def test_every_annotation_is_one_the_check_handles(self):
        annotations = {f.type for cls in SETTINGS_CLASSES for f in dataclasses.fields(cls)}
        assert annotations <= set(FIELD_TYPES)
        # every number declares its range, a RANGES key or a tuple of values,
        # and every default lies in its own range
        for cls in SETTINGS_CLASSES:
            for f in dataclasses.fields(cls):
                where, rule = f"{cls.__name__}.{f.name}", f.metadata.get("range")
                if f.type in ("int", "float", "float | None"):
                    assert rule is not None, f"{where} declares no range"
                if rule is None:
                    continue
                assert isinstance(rule, tuple) or rule in RANGES, f"{where}: {rule!r}"
                if f.default is not dataclasses.MISSING:
                    inside = (f.default in rule if isinstance(rule, tuple)
                              else RANGES[rule](f.default))
                    assert inside, f"{where} = {f.default!r} is outside {rule!r}"

    @pytest.mark.parametrize("cls, values, message", [
        (AssignmentOptions, {"n_outer": math.inf, "gap_tol": 0.0},
         "n_outer: expected int, got inf"),
        (AssignmentOptions, {"n_outer": 2.5}, "n_outer: expected int, got 2.5"),
        (CalibrationOptions, {"max_evals": 2.5}, "max_evals: expected int, got 2.5"),
        (CalibrationOptions, {"sa": {"bogus": 1}}, "unexpected keyword argument 'bogus'"),
        (CalibrationOptions, {"bounds": {"mu": 5}},
         "bounds.mu: expected a list of two numbers, got 5"),
        (CalibrationOptions, {"bound_overrides": {"s.mu": (0, True)}},
         r"bound_overrides.s.mu: expected a list of two numbers, got \(0, True\)"),
        (DemandStratum, {**STRATUM, "mu": True}, "mu: expected float, got True"),
        (AnnealingOptions, {"polish": "no"}, "polish: expected bool, got 'no'"),
        (DerivationRule, {**DERIVATION, "cutoff": "5000"}, "cutoff: expected float, got '5000'"),
    ])
    def test_wrong_type_rejected_at_construction(self, cls, values, message):
        with pytest.raises(TypeError, match=message):
            cls(**values)

    def test_number_for_a_float_becomes_a_float(self):
        assert type(DemandStratum(**{**STRATUM, "mu": 1}).mu) is float
        assert type(AssignmentOptions(gap_tol=0).gap_tol) is float
        assert AssignmentOptions(n_outer=np.int64(3)).n_outer == 3  # numpy ints are ints
        assert type(DerivationRule(**DERIVATION, cutoff=np.int64(5000)).cutoff) is float
        options = CalibrationOptions(bounds={"mu": [0, 3]}, sa={"cooling": 1, "n_sweeps": 3})
        assert options.bounds == {"mu": (0, 3)}
        assert {k: type(v) for k, v in options.sa.items()} == {"cooling": float, "n_sweeps": int}


class TestDeterrence:
    def test_exponential_hand_value(self):
        assert deterrence(10.0, 0.1, "exponential") == pytest.approx(math.e, rel=1e-12)

    def test_beta_zero_is_identity(self):
        assert deterrence(37.3, 0.0, "exponential") == 1.0

    def test_power_hand_value(self):
        assert deterrence(3.0, 2.0, "power") == pytest.approx(9.0, rel=1e-12)

    def test_power_clamps_zero_cost(self):
        assert deterrence(0.0, 2.0, "power") == pytest.approx(1e-12, rel=1e-9)
        assert deterrence(0.0, 2.0, "power") > 0.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            deterrence(-1.0, 0.1, "exponential")

    @given(st.floats(0.0, 500.0), st.floats(0.0, 1.0),
           st.sampled_from(["exponential", "power"]))
    def test_always_positive(self, cost, beta, kind):
        assert deterrence(cost, beta, kind) > 0.0

    @pytest.mark.parametrize("kind", ["exponential", "power"])
    def test_negative_beta_is_the_reciprocal_within_two_ulp(self, rng, kind):
        costs = rng.uniform(0.0, 300.0, (30, 30))
        costs[rng.random((30, 30)) < 0.1] = 0.0
        for beta in (0.01, 0.08, 0.3, 1.0):
            product = deterrence(costs, -beta, kind) * deterrence(costs, beta, kind)
            assert np.abs(product - 1.0).max() <= 2 * np.finfo(float).eps


class TestSeedMatrix:
    def test_beta_zero_gives_pure_product(self):
        ends = TripEnds(np.array([10.0, 20.0]), np.array([15.0, 15.0]))
        seed = seed_matrix(ends, costs_of([[1.0, 2.0], [2.0, 1.0]]), 0.0, "exponential")
        assert np.array_equal(seed.trips, np.outer([10.0, 20.0], [15.0, 15.0]))

    def test_one_by_one_direct_product(self):
        ends = TripEnds(np.array([10.0]), np.array([10.0]))
        seed = seed_matrix(ends, costs_of([[2.0]]), 0.0, "exponential")
        assert seed.trips.tolist() == [[100.0]]

    def test_symmetric_inputs_give_symmetric_seed(self):
        ends = TripEnds(np.array([5.0, 5.0]), np.array([5.0, 5.0]))
        seed = seed_matrix(ends, costs_of([[1.0, 3.0], [3.0, 1.0]]), 0.2, "exponential")
        assert np.array_equal(seed.trips, seed.trips.T)

    def test_dimension_mismatch(self):
        ends = TripEnds(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError, match="do not match"):
            seed_matrix(ends, costs_of([[1.0]]), 0.0, "exponential")

    @pytest.mark.parametrize("kind", ["exponential", "power"])
    def test_matches_the_product_over_the_deterrence(self, rng, kind):
        n = 40
        values = rng.uniform(0.0, 120.0, (n, n))
        values[rng.random((n, n)) < 0.1] = 0.0
        ends = TripEnds(rng.uniform(0.0, 5e3, n), rng.uniform(0.0, 5e3, n))
        for beta in (0.0, 0.05, 0.3, 1.0):
            trips = seed_matrix(ends, costs_of(values), beta, kind).trips
            expected = np.outer(ends.origins, ends.destinations) / deterrence(values, beta, kind)
            assert trips.flags.c_contiguous
            assert np.all(np.abs(trips - expected) <= 1e-15 * expected)

    def test_entry_past_exp_overflow_is_positive(self):
        # exp(beta * c) overflows above about 709.8, but exp(-beta * c) stays
        # a positive subnormal up to about 745
        ends = TripEnds(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        costs = costs_of([[1.0, 720.0], [740.0, 1.0]])
        trips = seed_matrix(ends, costs, 1.0, "exponential").trips
        assert trips[0, 1] > 0.0 and trips[1, 0] > 0.0
        assert trips[0, 1] < np.finfo(float).tiny


class TestFurnessBalance:
    def test_already_balanced_is_fixed_point(self):
        seed = ODMatrix(("a", "b"), np.ones((2, 2)))
        ends = TripEnds(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
        out = furness_balance(seed, ends)
        assert np.array_equal(out.trips, np.ones((2, 2)))

    def test_one_row_scaling_suffices(self):
        seed = ODMatrix(("a", "b"), np.ones((2, 2)))
        ends = TripEnds(np.array([3.0, 1.0]), np.array([2.0, 2.0]))
        out = furness_balance(seed, ends)
        assert np.array_equal(out.trips, np.array([[1.5, 1.5], [0.5, 0.5]]))

    def test_random_margins_hit_tolerance(self, rng):
        for _ in range(5):
            seed = ODMatrix(tuple(f"z{i}" for i in range(50)),
                            rng.uniform(0.1, 5.0, (50, 50)))
            O = rng.uniform(1.0, 100.0, 50)
            D = rng.uniform(1.0, 100.0, 50)
            D *= O.sum() / D.sum()
            out = furness_balance(seed, TripEnds(O, D), tol=1e-8)
            # independent margin check, not the loop's own deviation
            assert np.abs(out.trips.sum(axis=1) - O).max() <= 1e-8 * O.max()
            assert np.abs(out.trips.sum(axis=0) / D - 1.0).max() <= 1e-8

    def test_output_is_diagonal_rescaling_of_seed(self, rng):
        seed_vals = rng.uniform(0.1, 5.0, (20, 20))
        O = rng.uniform(1.0, 50.0, 20)
        D = rng.uniform(1.0, 50.0, 20)
        D *= O.sum() / D.sum()
        out = furness_balance(ODMatrix(tuple(f"z{i}" for i in range(20)), seed_vals),
                              TripEnds(O, D))
        assert out.trips.flags.c_contiguous
        ratio = out.trips / seed_vals
        a = ratio[:, 0] / ratio[0, 0]
        b = ratio[0, :]
        assert np.allclose(ratio, np.outer(a, b), rtol=1e-6)

    def test_product_in_one_buffer_is_bitwise_the_scaled_seed(self, rng):
        K = rng.uniform(0.0, 5.0, (30, 40))
        a, b = rng.uniform(0.0, 1e3, 30), rng.uniform(0.0, 1e-3, 40)
        assert demand._balanced(K, a, b).tobytes() == (a[:, None] * K * b).tobytes()

    def test_preserves_zero_pattern(self, rng):
        seed_vals = rng.uniform(0.5, 2.0, (10, 10))
        seed_vals[rng.random((10, 10)) < 0.2] = 0.0
        np.fill_diagonal(seed_vals, 1.0)  # keep the system feasible
        O = seed_vals.sum(axis=1)
        D = seed_vals.sum(axis=0)
        out = furness_balance(ODMatrix(tuple(f"z{i}" for i in range(10)), seed_vals),
                              TripEnds(O, D))
        assert np.all(out.trips[seed_vals == 0.0] == 0.0)

    def test_invariant_under_seed_rescaling(self, rng):
        seed_vals = rng.uniform(0.1, 3.0, (8, 8))
        O = rng.uniform(1.0, 20.0, 8)
        D = rng.uniform(1.0, 20.0, 8)
        D *= O.sum() / D.sum()
        ids = tuple(f"z{i}" for i in range(8))
        ends = TripEnds(O, D)
        out1 = furness_balance(ODMatrix(ids, seed_vals), ends)
        out2 = furness_balance(ODMatrix(ids, 37.5 * seed_vals), ends)
        assert np.allclose(out1.trips, out2.trips, rtol=1e-8)

    def test_inconsistent_totals_rejected(self):
        seed = ODMatrix(("a", "b"), np.ones((2, 2)))
        with pytest.raises(ValueError, match="must agree"):
            furness_balance(seed, TripEnds(np.array([2.0, 2.0]), np.array([1.0, 2.0])))

    def test_zero_row_with_positive_target_is_infeasible(self):
        seed = ODMatrix(("a", "b"), np.array([[0.0, 0.0], [1.0, 1.0]]))
        ends = TripEnds(np.array([2.0, 2.0]), np.array([2.0, 2.0]))
        with pytest.raises(FurnessInfeasibleError, match="'a'"):
            furness_balance(seed, ends)

    def test_nonconvergence_carries_last_deviation(self):
        # block-diagonal support with cross-block margins never balances
        seed = ODMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        ends = TripEnds(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        with pytest.raises(FurnessConvergenceError) as err:
            furness_balance(seed, ends, tol=1e-12, max_iter=50)
        assert err.value.iterations == 50
        assert err.value.deviation > 0.0

    @staticmethod
    def tiny_scale_case(rng, rows=(), cols=(), scale=1e-315):
        """40 zones, seed entries 1e-3..1e-2, the given rows and columns
        scaled down so far that their balancing factor overflows whatever
        the draws: a scaled row sums to at most 4e-316 against an origin of
        at least 1, and a scaled column to at most about 1e-312 against a
        destination of at least 0.01."""
        seed = rng.uniform(1e-3, 1e-2, (40, 40))
        seed[list(rows)] *= scale
        seed[:, list(cols)] *= scale
        O = rng.uniform(1.0, 100.0, 40)
        D = rng.uniform(1.0, 100.0, 40)
        D *= O.sum() / D.sum()
        return ODMatrix(tuple(str(i) for i in range(40)), seed), TripEnds(O, D)

    def test_row_scale_that_overflows_names_its_zone(self, rng):
        seed, ends = self.tiny_scale_case(rng, rows=[3])
        with pytest.raises(FurnessInfeasibleError, match="row scale for zone '3'"):
            furness_balance(seed, ends)

    def test_row_scale_that_overflows_names_its_zone_beside_a_small_column(self, rng):
        # the in-place loop ran all sweeps on NaN here and reported no zone
        seed, ends = self.tiny_scale_case(rng, rows=[3])
        seed.trips[:, 7] *= 1e-50
        with pytest.raises(FurnessInfeasibleError, match="row scale for zone '3'"):
            furness_balance(seed, ends)

    def test_column_scale_that_overflows_names_its_zone(self, rng):
        seed, ends = self.tiny_scale_case(rng, cols=[7])
        with pytest.raises(FurnessInfeasibleError, match="column scale for zone '7'"):
            furness_balance(seed, ends)

    @pytest.mark.parametrize("margin", ["origin", "destination"])
    @pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
    def test_trip_end_negative_or_not_finite_is_infeasible_before_any_sweep(
            self, monkeypatch, margin, value):
        # the margins' totals agree wherever they are finite
        ends = {"origin": np.full(6, 10.0), "destination": np.full(6, 10.0)}
        ends[margin][2:4] = value, 25.0
        sweeps, scale = [], demand._scale
        monkeypatch.setattr(demand, "_scale", lambda *a: sweeps.append(a) or scale(*a))
        message = f"{margin} of zone 'c' must be finite and >= 0, got {value!r}"
        with pytest.raises(FurnessInfeasibleError, match=re.escape(message)):
            furness_balance(ODMatrix(tuple("abcdef"), np.ones((6, 6))),
                            TripEnds(ends["origin"], ends["destination"]))
        assert sweeps == []


def assert_margins(trips, ends, tol=1e-8):
    """Independent margin check, not the balancing loop's own deviation."""
    O, D = ends.origins, ends.destinations
    assert np.abs(trips.sum(axis=1) - O).max() <= tol * O.max()
    assert np.abs(trips.sum(axis=0) / D - 1.0).max() <= tol


def furness_in_place(seed, ends, tol=1e-8, max_iter=1000):
    """Reference Furness loop: rescales the whole matrix in place, rows then
    columns, and sums it four times per sweep. furness_balance computes the
    same diag(a) @ seed @ diag(b) from the scale vectors alone."""
    T = np.array(seed.trips, dtype=float)
    O = np.asarray(ends.origins, dtype=float)
    D = np.asarray(ends.destinations, dtype=float)
    o_div = np.where(O > 0, O, 1.0)
    d_div = np.where(D > 0, D, 1.0)
    deviation = np.inf
    for _ in range(max_iter):
        row = T.sum(axis=1)
        if ((O > 0) & (row <= 0)).any():
            raise FurnessInfeasibleError("zero seed row")
        T *= np.where(O > 0, O / np.where(row > 0, row, 1.0), 0.0)[:, None]
        col = T.sum(axis=0)
        if ((D > 0) & (col <= 0)).any():
            raise FurnessInfeasibleError("zero seed column")
        T *= np.where(D > 0, D / np.where(col > 0, col, 1.0), 0.0)[None, :]
        deviation = max(
            (np.abs(T.sum(axis=1) - O) / o_div).max(),
            (np.abs(T.sum(axis=0) - D) / d_div).max(),
        )
        if deviation <= tol:
            return ODMatrix(seed.zone_ids, T)
    raise FurnessConvergenceError(float(deviation), max_iter)


def furness_vectors(seed, ends, tol=1e-8, max_iter=1000, scale=None):
    """Reference scale-vector loop: furness_balance as it stood before its
    sweeps wrote into buffers, each half-sweep, relaxed scale and deviation
    a fresh array, and each relaxed half checked on its own. scale stands in
    for its _scale (reference_scale) to inject a fault. furness_balance must
    give bitwise the same trips, or the same exception."""
    scale = scale or reference_scale
    K = np.asarray(seed.trips, dtype=float)
    O = np.asarray(ends.origins, dtype=float)
    D = np.asarray(ends.destinations, dtype=float)
    for margin, target in (("origin", O), ("destination", D)):
        bad = np.flatnonzero(~((target >= 0) & (target < math.inf)))
        if bad.size:
            raise FurnessInfeasibleError(
                f"{margin} of zone {seed.zone_ids[bad[0]]!r} must be finite and >= 0, "
                f"got {float(target[bad[0]])!r}")
    if O.sum() == 0.0:
        return ODMatrix(seed.zone_ids, np.zeros_like(K))
    o_div, d_div = np.where(O > 0, O, 1.0), np.where(D > 0, D, 1.0)
    o_num, d_num = np.where(O > 0, O, 0.0), np.where(D > 0, D, 0.0)
    o_off, d_off = 1.0 * (O <= 0), 1.0 * (D <= 0)
    a, b = np.ones(O.size), np.ones(D.size)
    row = K @ b
    deviation = window_start = np.inf
    newton_cost = demand.NEWTON_SWITCH_STEPS * demand.newton_step_sweeps(*K.shape)
    newton_tried = False
    omega, relax, swept, saved = 1.0, True, 0, None
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(1, max_iter + 1):
            try:
                a = reference_relaxed(a, scale(o_num, row, o_off, seed.zone_ids, "row", "origin"),
                                      omega, o_off)
                col = a @ K
                b = reference_relaxed(
                    b, scale(d_num, col, d_off, seed.zone_ids, "column", "destination"),
                    omega, d_off)
            except FurnessInfeasibleError:
                if omega == 1.0:
                    raise
                (a, b, row, deviation), omega, relax, swept = saved, 1.0, False, 0
                continue
            row = K @ b
            deviation = max(
                (np.abs(a * row - O) / o_div).max(),
                (np.abs(b * col - D) / d_div).max(),
            )
            if deviation <= tol:
                return ODMatrix(seed.zone_ids, demand._balanced(K, a, b))
            swept += 1
            if newton_tried or swept % demand.FURNESS_RATE_WINDOW:
                continue
            if omega > 1.0 and not deviation < window_start:
                (a, b, row, deviation), omega, relax, swept = saved, 1.0, False, 0
                continue
            needed = demand._sweeps_needed(window_start, deviation, tol)
            if needed > min(max_iter - k, newton_cost):
                newton_tried, omega = True, 1.0
                trips = reference_newton_balance(K, O, D, a, b, tol)
                if trips is not None:
                    return ODMatrix(seed.zone_ids, trips)
                continue
            if relax and window_start < np.inf:
                omega = demand._over_relaxation(window_start, deviation, omega)
            window_start, saved = deviation, (a, b, row, deviation)
    raise FurnessConvergenceError(float(deviation), max_iter)


def reference_scale(target, sums, off, zone_ids, axis, margin):
    scale = target / (sums + off)
    if not math.isfinite(scale.max()):
        zero = (off == 0) & (sums <= 0)
        if zero.any():
            raise FurnessInfeasibleError(
                f"zero seed {axis} for zone {zone_ids[int(np.argmax(zero))]!r} "
                f"with positive {margin} target"
            )
        raise FurnessInfeasibleError(
            f"{axis} scale for zone {zone_ids[int(np.argmax(~np.isfinite(scale)))]!r} "
            f"is not finite: the seed {axis} is too small for its {margin} target"
        )
    return scale


def reference_relaxed(previous, plain, omega, off):
    if omega == 1.0:
        return plain
    scale = previous * (plain / (previous + off)) ** omega
    if not (scale.max() < math.inf and (scale + off).min() > 0.0):
        raise FurnessInfeasibleError("an over-relaxed scale left float range")
    return scale


def reference_newton_balance(K, O, D, a, b, tol):
    rows, cols = O > 0, D > 0
    o, d = O[rows], D[cols]
    with np.errstate(divide="ignore"):
        log_k = np.log(K[np.ix_(rows, cols)])
    u, v = np.log(a[rows]), np.log(b[cols])

    def margins(u, v):
        P = np.exp(u[:, None] + log_k + v)
        r, c = P.sum(axis=1), P.sum(axis=0)
        return P, r, c, max((np.abs(r - o) / o).max(), (np.abs(c - d) / d).max())

    P, r, c, deviation = margins(u, v)
    for _ in range(demand.NEWTON_MAX_STEPS):
        if deviation <= tol:
            scale_a, scale_b = np.zeros(O.size), np.zeros(D.size)
            scale_a[rows], scale_b[cols] = np.exp(u), np.exp(v)
            trips = demand._balanced(K, scale_a, scale_b)
            return trips if np.isfinite(trips).all() else None
        try:
            du, dv = reference_newton_step(P, r, c, o, d)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(du).all() and np.isfinite(dv).all()):
            return None
        step = 1.0
        for _ in range(demand.NEWTON_MAX_HALVINGS):
            trial = margins(u + step * du, v + step * dv)
            if trial[3] < deviation:
                break
            step /= 2.0
        else:
            return None
        u, v = u + step * du, v + step * dv
        P, r, c, deviation = trial
    return None


def reference_newton_step(P, r, c, o, d):
    g_u, g_v = r - o, c - d
    Q = P / np.sqrt(r)[:, None]
    S = np.diag(c) - Q.T @ Q
    dv = np.append(np.linalg.solve(S[:-1, :-1], (P.T @ (g_u / r) - g_v)[:-1]), 0.0)
    return -(g_u + P @ dv) / r, dv


class TestFurnessParity:
    """furness_balance against the in-place reference loop: the same outcome,
    and matrices equal to within rounding."""

    @staticmethod
    def outcome(balance, seed, ends, **kw):
        try:
            return "balanced", balance(seed, ends, **kw).trips
        except FurnessConvergenceError as exc:
            return f"not converged after {exc.iterations}", None
        except FurnessInfeasibleError:
            return "infeasible", None

    @staticmethod
    def case(seed_vals, rng):
        n = seed_vals.shape[0]
        O = rng.uniform(1.0, 200.0, n)
        D = rng.uniform(1.0, 200.0, n)
        D *= O.sum() / D.sum()
        return ODMatrix(tuple(f"z{i}" for i in range(n)), seed_vals), TripEnds(O, D)

    def compare(self, seed_vals, rng):
        seed, ends = self.case(seed_vals, rng)
        ref, ref_trips = self.outcome(furness_in_place, seed, ends)
        got, trips = self.outcome(furness_balance, seed, ends)
        assert got == ref
        if trips is not None:
            assert np.abs(trips - ref_trips).max() <= 1e-12 * ref_trips.max()
            assert_margins(trips, ends)
        return got

    def test_uniform_seeds(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            assert self.compare(rng.uniform(0.05, 10.0, (50, 50)), rng) == "balanced"

    def test_log_uniform_seeds(self):
        # entries 1e-250..1: some of these systems balance within 1000 sweeps.
        # Newton may take any of them over from the sweeps, so a balanced
        # result is held to a long in-place run rather than to the 1000-sweep
        # one; a system the reference leaves unconverged may now balance, or
        # fail as the reference does.
        rng = np.random.default_rng(3)
        ref_balanced = balanced = 0
        for _ in range(30):
            seed, ends = self.case(10.0 ** rng.uniform(-250.0, 0.0, (6, 6)), rng)
            ref, _ = self.outcome(furness_in_place, seed, ends)
            got, trips = self.outcome(furness_balance, seed, ends)
            assert got == "balanced" or got == ref == "not converged after 1000"
            if trips is not None:
                _, long_run = self.outcome(furness_in_place, seed, ends, max_iter=100_000)
                assert np.abs(trips - long_run).max() <= 1e-6 * long_run.max()
                assert_margins(trips, ends)
            ref_balanced += ref == "balanced"
            balanced += got == "balanced"
        assert 0 < ref_balanced < balanced

    def test_one_tiny_row_and_one_small_column(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            seed_vals = rng.uniform(0.05, 10.0, (50, 50))
            seed_vals[rng.integers(50)] *= 1e-300
            seed_vals[:, rng.integers(50)] *= 1e-50
            assert self.compare(seed_vals, rng) == "balanced"

    def test_block_diagonal_reports_the_same_iterations(self):
        seed = ODMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        ends = TripEnds(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        ref = self.outcome(furness_in_place, seed, ends, tol=1e-12, max_iter=50)
        assert self.outcome(furness_balance, seed, ends, tol=1e-12, max_iter=50) == ref
        assert ref == ("not converged after 50", None)


@pytest.fixture(scope="module")
def grid():
    """grid_region(nx, ny, seed=0), built once; its network keeps its
    free-flow path set."""
    built = {}

    def get(nx, ny):
        if (nx, ny) not in built:
            built[nx, ny] = grid_region(nx, ny, seed=0)
        return built[nx, ny]

    return get


@pytest.fixture
def newton_results(monkeypatch):
    """What every _newton_balance call returns, in order."""
    results = []
    newton = demand._newton_balance

    def spy(*args):
        results.append(newton(*args))
        return results[-1]

    monkeypatch.setattr(demand, "_newton_balance", spy)
    return results


@pytest.fixture
def newton_sweeps(monkeypatch):
    """The sweeps run before each _newton_balance call, in order; a sweep
    makes two _scale calls."""
    halves, sweeps = [0], []
    scale, newton = demand._scale, demand._newton_balance

    def counted_scale(*args):
        halves[0] += 1
        return scale(*args)

    def recorded_newton(*args):
        sweeps.append(halves[0] // 2)
        return newton(*args)

    monkeypatch.setattr(demand, "_scale", counted_scale)
    monkeypatch.setattr(demand, "_newton_balance", recorded_newton)
    return sweeps


class TestNewton:
    """Balances whose sweeps stall move to Newton's method on the log scales."""

    @staticmethod
    def grid_case(grid, beta):
        zones, net = grid
        costs = net.free_flow_paths.skim
        stratum = DemandStratum("all", "population", "population", 0.8, beta)
        ends = ZoneAttributes(zones, costs.zone_ids).trip_ends(stratum)
        return seed_matrix(ends, costs, beta, "exponential"), ends

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("size", [(10, 8), (30, 30)], ids=["10x8", "30x30"])
    def test_high_beta_grids_balance(self, grid, size, beta):
        seed, ends = self.grid_case(grid(*size), beta)
        trips = furness_balance(seed, ends).trips
        assert_margins(trips, ends)
        # criterion 2's structure check: the result is diag(a) @ seed @ diag(b)
        ratio = trips / seed.trips
        a, b = ratio[:, 0], ratio[0, :] / ratio[0, 0]
        assert np.abs(np.outer(a, b) / ratio - 1.0).max() <= 1e-6

    def test_agrees_with_a_long_sweep_run(self, grid, newton_results):
        seed, ends = self.grid_case(grid(10, 8), 1.0)
        with pytest.raises(FurnessConvergenceError):
            furness_in_place(seed, ends)
        reference = furness_in_place(seed, ends, max_iter=20_000).trips
        trips = furness_balance(seed, ends).trips
        assert len(newton_results) == 1 and newton_results[0] is trips
        assert np.abs(trips - reference).max() <= 1e-6 * reference.max()

    def test_slow_80_zone_balance_hands_off_at_the_first_projection(self, grid, newton_sweeps):
        # the criterion-7 grid at beta 1.0: the first window only sets the
        # rate's baseline, and the second projects more sweeps than two
        # Newton steps cost (at ten steps it ran 60 sweeps first)
        seed, ends = self.grid_case(grid(10, 8), 1.0)
        trips = furness_balance(seed, ends).trips
        assert newton_sweeps == [2 * demand.FURNESS_RATE_WINDOW]
        reference = furness_in_place(seed, ends, max_iter=100_000).trips
        assert np.abs(trips - reference).max() <= 1e-8 * reference.max()

    @pytest.mark.parametrize("tol", [-1.0, math.nan])
    def test_a_negative_or_nan_tol_is_rejected_before_any_sweep(self, grid, newton_sweeps,
                                                                  tol):
        seed, ends = self.grid_case(grid(10, 8), 0.3)
        with pytest.raises(ValueError, match=r"^tol must be >= 0, got "):
            furness_balance(seed, ends, tol=tol)
        assert newton_sweeps == []

    def test_zero_tol_projects_endless_sweeps_and_hands_off_once(self, grid, newton_sweeps):
        # no deviation of this balance reaches exactly 0, so Newton fails and
        # the plain sweeps run out
        seed, ends = self.grid_case(grid(10, 8), 0.3)
        with pytest.raises(FurnessConvergenceError) as err:
            furness_balance(seed, ends, tol=0.0)
        assert newton_sweeps == [2 * demand.FURNESS_RATE_WINDOW]
        assert err.value.iterations == demand.DEFAULT_FURNESS_MAX_ITER
        assert 0.0 < err.value.deviation < 1e-12

    def test_fast_400_zone_balance_never_hands_off(self, grid, newton_sweeps):
        # grid 20x20 at the benchmark's generating weights converges in 33
        # relaxed sweeps (61 plain ones); at a price of zero it would hand
        # off after 20
        seed, ends = self.grid_case(grid(20, 20), 0.08)
        assert_margins(furness_balance(seed, ends).trips, ends)
        assert newton_sweeps == []

    def test_sweeps_that_converge_fast_never_switch(self, rng, newton_results):
        seed, ends = TestFurnessParity.case(rng.uniform(0.05, 10.0, (50, 50)), rng)
        furness_balance(seed, ends)
        assert newton_results == []

    def test_failed_newton_resumes_the_sweeps(self, newton_results):
        # block-diagonal support with cross-block margins: the reduced Schur
        # complement is singular, so numpy.linalg.solve raises LinAlgError,
        # and the sweeps run out exactly as the in-place loop does
        seed = ODMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        ends = TripEnds(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        with pytest.raises(FurnessConvergenceError) as ref:
            furness_in_place(seed, ends, tol=1e-12, max_iter=50)
        with pytest.raises(FurnessConvergenceError) as got:
            furness_balance(seed, ends, tol=1e-12, max_iter=50)
        assert newton_results == [None]
        assert (got.value.iterations, got.value.deviation) == (50, ref.value.deviation)

    @pytest.mark.parametrize("m, n", [(6, 6), (7, 4), (4, 7)])
    def test_step_solves_the_full_newton_system(self, rng, m, n):
        # the Hessian [[diag(r), P], [P^T, diag(c)]] against the gradient
        # (r - o, c - d), with the last v held fixed: drop its row and column
        P = rng.uniform(0.1, 5.0, (m, n))
        r, c = P.sum(axis=1), P.sum(axis=0)
        o, d = r * rng.uniform(0.5, 1.5, m), c * rng.uniform(0.5, 1.5, n)
        du, dv = demand._newton_step(P, r, c, o, d)
        hessian = np.block([[np.diag(r), P], [P.T, np.diag(c)]])
        keep = m + n - 1
        full = np.linalg.solve(hessian[:keep, :keep], -np.concatenate([r - o, c - d])[:keep])
        expected = np.append(full, 0.0)
        assert dv[-1] == 0.0
        got = np.concatenate([du, dv])
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()

    @pytest.mark.parametrize("size", [(10, 8), (30, 30)], ids=["10x8", "30x30"])
    def test_objective_is_finite_on_the_default_box(self, grid, size):
        zones, net = grid(*size)
        truth = [DemandStratum("all", "population", "population", 0.8, 0.08)]
        counts = synthetic_counts(zones, net, truth, n_counts=250, noise=0.1, seed=1)
        objective = ModelObjective(zones, net, truth, counts)
        (mu_lo, mu_hi), (beta_lo, beta_hi) = DEFAULT_BOUNDS["mu"], DEFAULT_BOUNDS["beta"]
        points = [(mu, beta) for mu in (mu_lo, mu_hi) for beta in (beta_lo, beta_hi)]
        points.append(((mu_lo + mu_hi) / 2, (beta_lo + beta_hi) / 2))
        for x in points:
            assert math.isfinite(objective(np.array(x))), x
        assert objective.furness_failures == 0


@pytest.fixture
def omegas(monkeypatch):
    """The relaxation factor of every _relaxed call, in order: one for the
    rows, then one for the columns of each sweep."""
    seen, relaxed = [], demand._relaxed

    def spy(previous, plain, omega, off):
        seen.append(omega)
        return relaxed(previous, plain, omega, off)

    monkeypatch.setattr(demand, "_relaxed", spy)
    return seen


class TestOverRelaxation:
    """From the second rate window on, the sweeps over-relax the scales."""

    @pytest.mark.parametrize("beta", [0.08, 0.1, 0.15])
    def test_agrees_with_a_long_sweep_run_in_fewer_sweeps(self, grid, monkeypatch, omegas, beta):
        seed, ends = TestNewton.grid_case(grid(20, 20), beta)
        trips = furness_balance(seed, ends).trips
        relaxed_sweeps = len(omegas) // 2
        assert omegas[:40] == [1.0] * 40 and min(omegas[40:]) > 1.0
        reference = furness_in_place(seed, ends, max_iter=100_000).trips
        assert np.abs(trips - reference).max() <= 1e-8 * reference.max()
        assert_margins(trips, ends)
        # criterion 2's structure check: the result is diag(a) @ seed @ diag(b)
        ratio = trips / seed.trips
        a, b = ratio[:, 0], ratio[0, :] / ratio[0, 0]
        assert np.abs(np.outer(a, b) / ratio - 1.0).max() <= 1e-6
        # the same balance held at omega = 1 sweeps plainly, and longer
        monkeypatch.setattr(demand, "_over_relaxation", lambda *args: 1.0)
        omegas.clear()
        furness_balance(seed, ends)
        assert set(omegas) == {1.0} and relaxed_sweeps < len(omegas) // 2

    @staticmethod
    def faulty(scale, sums):
        """scale, recording the sums of each call, with sweep 25's column
        scale blown up so that its relaxed scale overflows."""
        def blown(*args):
            sums.append(args[1].copy())
            out = scale(*args)
            return out * 1e300 if len(sums) == 50 else out
        return blown

    def test_overflowing_relaxed_sweep_restores_the_saved_window(self, grid, monkeypatch, omegas):
        # sweep 25's relaxed column scale overflows: the balance goes back to
        # the scales saved at sweep 20 and sweeps on plainly from there
        seed, ends = TestNewton.grid_case(grid(20, 20), 0.15)
        sums = []
        monkeypatch.setattr(demand, "_scale", self.faulty(demand._scale, sums))
        trips = furness_balance(seed, ends).trips
        assert min(omegas[40:50]) > 1.0 and set(omegas[50:]) == {1.0}
        # sweep 25 stops at its columns; sweep 26 scales the rows from the
        # row sums saved at sweep 20, as sweep 21 did
        assert np.array_equal(sums[50], sums[40])
        reference = furness_in_place(seed, ends, max_iter=100_000).trips
        assert np.abs(trips - reference).max() <= 1e-8 * reference.max()
        assert_margins(trips, ends)

    def test_window_that_does_not_fall_restores_without_reading_as_stalled(
            self, grid, omegas, newton_sweeps):
        # grid 20x20 at beta 0.3: a relaxed window's deviation rises, the
        # sweeps go back to its start and on plainly, and the plain rate
        # from there projects fewer sweeps than Newton's price (a stalled
        # window projects infinitely many and would hand off)
        seed, ends = TestNewton.grid_case(grid(20, 20), 0.3)
        trips = furness_balance(seed, ends).trips
        assert max(omegas) > 1.0 and omegas[-1] == 1.0
        assert newton_sweeps == []
        reference = furness_in_place(seed, ends, max_iter=100_000).trips
        assert np.abs(trips - reference).max() <= 1e-6 * reference.max()
        assert_margins(trips, ends)


class TestFurnessBitwise:
    """furness_balance against furness_vectors, the scale-vector loop before
    its sweeps wrote into buffers: bitwise the same trips, or the same
    exception with the same message, iterations and deviation."""

    @staticmethod
    def outcome(balance, seed, ends, **kw):
        try:
            return balance(seed, ends, **kw).trips
        except (FurnessConvergenceError, FurnessInfeasibleError) as exc:
            return (type(exc), str(exc), getattr(exc, "iterations", None),
                    getattr(exc, "deviation", None))

    def same(self, seed, ends, **kw):
        got = self.outcome(furness_balance, seed, ends, **kw)
        ref = self.outcome(furness_vectors, seed, ends, **kw)
        if isinstance(ref, np.ndarray):
            assert isinstance(got, np.ndarray) and np.array_equal(got, ref)
        else:
            assert got == ref
        return got

    @pytest.mark.parametrize("size, beta, relaxed, handed_off", [
        ((10, 8), 0.0, False, False), ((10, 8), 0.08, True, False),
        ((10, 8), 0.3, False, True), ((10, 8), 1.0, False, True),
        ((20, 20), 0.0, False, False), ((20, 20), 0.08, True, False),
        ((20, 20), 0.3, True, False), ((20, 20), 1.0, True, True),
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else None)
    def test_grid_balances(self, grid, omegas, newton_sweeps, size, beta, relaxed,
                           handed_off):
        seed, ends = TestNewton.grid_case(grid(*size), beta)
        assert isinstance(self.same(seed, ends), np.ndarray)
        assert (max(omegas) > 1.0, bool(newton_sweeps)) == (relaxed, handed_off)

    def test_restored_relaxed_window(self, grid, monkeypatch):
        seed, ends = TestNewton.grid_case(grid(20, 20), 0.15)
        monkeypatch.setattr(demand, "_scale", TestOverRelaxation.faulty(demand._scale, []))
        trips = furness_balance(seed, ends).trips
        faulty = TestOverRelaxation.faulty(reference_scale, [])
        assert np.array_equal(trips, furness_vectors(seed, ends, scale=faulty).trips)

    def test_failed_newton_resumes_the_sweeps(self, newton_results):
        seed = ODMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 1.0]]))
        ends = TripEnds(np.array([3.0, 1.0]), np.array([1.0, 3.0]))
        assert self.same(seed, ends, tol=1e-12, max_iter=50)[0] is FurnessConvergenceError
        assert newton_results == [None]

    def test_zero_row_with_positive_target(self):
        seed = ODMatrix(("a", "b", "c"), np.array([[1.0, 2.0, 0.5], [0.0, 0.0, 0.0],
                                                   [1.0, 1.0, 3.0]]))
        ends = TripEnds(np.array([2.0, 2.0, 2.0]), np.array([3.0, 2.0, 1.0]))
        assert self.same(seed, ends)[:2] == (
            FurnessInfeasibleError, "zero seed row for zone 'b' with positive origin target")

    def test_unconverged_after_relaxed_sweeps_and_newton(self, grid, omegas, newton_results):
        # a tol below rounding: the sweeps relax, Newton's line search stalls
        # and the sweeps run out
        seed, ends = TestNewton.grid_case(grid(10, 8), 0.08)
        got = self.same(seed, ends, tol=1e-17, max_iter=60)
        assert got[0] is FurnessConvergenceError and got[2] == 60
        assert max(omegas) > 1.0 and newton_results == [None]


class TestDistribute:
    def test_beta_zero_closed_form(self, rng):
        zones = pop_zones([100, 250, 400])
        stratum = DemandStratum("s", "population", "population", 1.2, 0.0)
        costs = costs_of(rng.uniform(1.0, 30.0, (3, 3)))
        out = distribute(ZoneAttributes(zones), stratum, costs)
        O = 1.2 * np.array([100.0, 250.0, 400.0])
        expected = np.outer(O, O) / O.sum()
        assert np.allclose(out.trips, expected, rtol=1e-12)

    def test_symmetric_system_gives_symmetric_matrix(self):
        zones = pop_zones([500, 500])
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        costs = costs_of([[2.0, 4.0], [4.0, 2.0]])
        out = distribute(ZoneAttributes(zones), stratum, costs)
        assert np.allclose(out.trips, out.trips.T, rtol=1e-12)

    def test_toy_margins_match_targets(self):
        zones, net = eight_zone_star()
        costs = PathSet(net, free_flow_times(net)).skim
        stratum = toy_strata(1.5, 0.1)[0]
        out = distribute(ZoneAttributes(zones, costs.zone_ids), stratum, costs)
        pops = {z.zone_id: z.attributes["population"] for z in zones}
        O = np.array([1.5 * pops[z] for z in costs.zone_ids])
        assert np.abs(out.trips.sum(axis=1) / O - 1.0).max() <= 1e-8

    def test_trips_flatten_without_a_copy(self):
        zones, net = grid_region(5, 4, seed=0)
        costs = PathSet(net, free_flow_times(net)).skim
        stratum = DemandStratum("s", "population", "population", 0.8, 0.08)
        out = distribute(ZoneAttributes(zones, costs.zone_ids), stratum, costs)
        assert out.trips.flags.c_contiguous
        assert np.shares_memory(np.ravel(out.trips), out.trips)

    def test_mu_zero_returns_zero_matrix(self):
        zones = pop_zones([100, 200])
        stratum = DemandStratum("s", "population", "population", 0.0, 0.1)
        out = distribute(ZoneAttributes(zones), stratum, costs_of([[1.0, 2.0], [2.0, 1.0]]))
        assert np.array_equal(out.trips, np.zeros((2, 2)))

    def test_zone_set_must_match_costs(self):
        zones = pop_zones([100, 200])
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        costs = costs_of(np.ones((3, 3)))
        with pytest.raises(ValueError, match="zone set"):
            distribute(ZoneAttributes(zones, costs.zone_ids), stratum, costs)

    def test_a_list_of_zones_is_rejected(self):
        zones = pop_zones([100, 200])
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        with pytest.raises(TypeError, match="expected a ZoneAttributes, got list"):
            distribute(zones, stratum, costs_of([[1.0, 2.0], [2.0, 1.0]]))

    def test_zone_order_must_match_costs(self):
        zones = pop_zones([100, 200])
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        costs = costs_of([[1.0, 2.0], [2.0, 1.0]], zone_ids=("z1", "z0"))
        with pytest.raises(ValueError, match="zone order does not match the cost matrix"):
            distribute(ZoneAttributes(zones), stratum, costs)

    def test_mean_trip_cost_weakly_decreases_in_beta(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            zones = pop_zones(rng.uniform(100.0, 5000.0, n))
            base = rng.uniform(2.0, 40.0, (n, n))
            costs = costs_of((base + base.T) / 2.0)
            betas = np.sort(rng.uniform(0.0, 0.3, 3))
            means = []
            for beta in betas:
                stratum = DemandStratum("s", "population", "population", 1.0,
                                        float(beta))
                out = distribute(ZoneAttributes(zones), stratum, costs)
                means.append((out.trips * costs.values).sum() / out.trips.sum())
            assert means[0] + 1e-9 >= means[1] >= means[2] - 1e-9
