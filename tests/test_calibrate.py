import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from flowfit import demand
from flowfit.assignment import PathSet, assign
from flowfit.calibrate import (
    ModelObjective,
    ObjectiveError,
    WeightVector,
    calibrate,
    nelder_mead,
    simulated_annealing,
    split_test,
)
from flowfit.demand import (
    DegenerateStratumError,
    DemandStratum,
    FurnessConvergenceError,
    FurnessInfeasibleError,
    Zone,
    ZoneAttributes,
    distribute,
)
from flowfit.metrics import TrafficCount, evaluate, geh_from_daily, geh_objective, split_counts
from flowfit.network import DisconnectedZonesError, free_flow_times
from flowfit.sample_models import (
    TOY_TRUE_BETA,
    TOY_TRUE_MU,
    eight_zone_star,
    synthetic_counts,
    toy_strata,
)

from conftest import make_network


class TestWeightVector:
    def test_packing_order_and_defaults(self):
        strata = [DemandStratum("a", "population", "population", 1.0, 0.1),
                  DemandStratum("b", "population", "population", 0.5, 0.2)]
        wv = WeightVector.from_strata(strata)
        assert [(e.stratum, e.param) for e in wv.entries] == [
            ("a", "mu"), ("a", "beta"), ("b", "mu"), ("b", "beta")
        ]
        assert wv.values().tolist() == [1.0, 0.1, 0.5, 0.2]
        assert wv.lower().tolist() == [0.0, 0.0, 0.0, 0.0]
        assert wv.upper().tolist() == [5.0, 1.0, 5.0, 1.0]

    def test_bound_overrides(self):
        strata = [DemandStratum("a", "population", "population", 1.0, 0.1)]
        wv = WeightVector.from_strata(strata, overrides={"a.beta": (0.05, 0.5)})
        assert wv.entries[1].lower == 0.05 and wv.entries[1].upper == 0.5

    def test_out_of_bounds_initial_value_rejected(self):
        strata = [DemandStratum("a", "population", "population", 9.0, 0.1)]
        with pytest.raises(ValueError, match="outside bounds"):
            WeightVector.from_strata(strata)

    @pytest.mark.parametrize("bounds, overrides, message", [
        ({"mu": (-1.0, 5.0)}, None, r"a.mu: bounds must be finite and >= 0, got \[-1.0, 5.0\]"),
        ({"beta": (0.0, math.nan)}, None, r"a.beta: bounds must be finite and >= 0, got \[0.0, nan\]"),
        (None, {"a.beta": (-0.5, 0.5)},
         r"a.beta: bounds must be finite and >= 0, got \[-0.5, 0.5\]"),
    ])
    def test_box_outside_a_weight_range_rejected(self, bounds, overrides, message):
        strata = [DemandStratum("a", "population", "population", 1.0, 0.1)]
        with pytest.raises(ValueError, match=message):
            WeightVector.from_strata(strata, bounds, overrides)

    def test_strata_sharing_a_name_rejected(self):
        strata = [DemandStratum("a", "population", "population", 0.7, 0.1),
                  DemandStratum("a", "population", "population", 0.3, 0.1)]
        with pytest.raises(ValueError, match=r"strata share a name: \['a'\]"):
            WeightVector.from_strata(strata)

    def test_override_naming_no_stratum_parameter_rejected(self):
        strata = [DemandStratum("a", "population", "population", 1.0, 0.1)]
        for key in ("nobody.mu", "a.gamma", "a"):
            with pytest.raises(ValueError, match=rf"name no stratum parameter: \['{key}'\]"):
                WeightVector.from_strata(strata, overrides={key: (0.0, 1.0)})

    def test_apply_roundtrip(self):
        strata = [DemandStratum("a", "population", "population", 1.0, 0.1)]
        wv = WeightVector.from_strata(strata).with_values([0.7, 0.074])
        (updated,) = wv.apply(strata)
        assert updated.mu == 0.7 and updated.beta == 0.074
        assert strata[0].mu == 1.0  # original untouched


class TestNelderMead:
    def test_shifted_quadratic(self):
        res = nelder_mead(lambda x: (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2,
                          np.array([0.0, 0.0]))
        assert res.converged
        assert res.x == pytest.approx([2.0, -1.0], abs=1e-4)
        assert res.objective < 1e-8

    def test_rosenbrock(self):
        def rosenbrock(x):
            return (1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2

        res = nelder_mead(rosenbrock, np.array([-1.2, 1.0]), max_evals=4000)
        assert res.x == pytest.approx([1.0, 1.0], abs=1e-3)

    def test_converges_onto_active_bound(self):
        # unconstrained minimum at x = 2 sits beyond the box
        res = nelder_mead(lambda x: (x[0] - 2.0) ** 2, np.array([0.0]),
                          bounds=([-1.0], [1.0]))
        assert res.x[0] == pytest.approx(1.0, abs=1e-6)
        assert res.objective == pytest.approx(1.0, abs=1e-6)

    def test_never_evaluates_outside_bounds(self):
        seen = []

        def f(x):
            seen.append(np.array(x))
            return float(np.sum(x**2))

        nelder_mead(f, np.array([4.0, 0.5]), bounds=([0.0, 0.0], [5.0, 1.0]))
        pts = np.array(seen)
        assert (pts >= 0.0).all() and (pts[:, 0] <= 5.0).all() and (pts[:, 1] <= 1.0).all()

    def test_budget_exhaustion_reports_not_converged(self):
        res = nelder_mead(lambda x: float(np.sum(x**2)), np.ones(4), max_evals=10)
        assert not res.converged
        assert res.n_evaluations >= 10

    @pytest.mark.parametrize("options, error, rule", [
        ({"max_evals": 2.5}, TypeError, "max_evals: expected int, got 2.5"),
        ({"xatol": -1.0, "fatol": math.nan, "max_evals": 50}, ValueError,
         "xatol must be finite and >= 0, got -1.0"),
    ])
    def test_stopping_rule_checked_before_any_evaluation(self, options, error, rule):
        seen = []
        with pytest.raises(error, match=re.escape(rule)):
            nelder_mead(lambda x: seen.append(x) or float(x[0] ** 2), [1.0], **options)
        assert seen == []

    def test_history_tracks_every_evaluation(self):
        res = nelder_mead(lambda x: (x[0] - 1.0) ** 2, np.array([0.0]))
        assert res.n_evaluations == len(res.history)
        assert [h[0] for h in res.history] == list(range(res.n_evaluations))
        assert min(h[1] for h in res.history) == res.objective


def double_well(x):
    # wells near -1 and +1; the +1 well is globally lower
    return float((x[0] ** 2 - 1.0) ** 2 - 0.3 * x[0])


class TestSimulatedAnnealing:
    BOUNDS = ([-2.0], [2.0])

    def test_constant_objective(self):
        res = simulated_annealing(lambda x: 7.0, self.BOUNDS, seed=0,
                                  n_sweeps=10, steps_per_sweep=5)
        assert res.objective == 7.0
        assert -2.0 <= res.x[0] <= 2.0

    def test_finds_global_basin_on_most_seeds(self):
        # brute-force grid oracle for the global minimum basin
        grid = np.linspace(-2.0, 2.0, 4001)
        values = (grid**2 - 1.0) ** 2 - 0.3 * grid
        x_star = grid[np.argmin(values)]
        assert x_star > 0.0
        hits = 0
        for seed in range(10):
            res = simulated_annealing(double_well, self.BOUNDS, seed=seed,
                                      n_sweeps=40, steps_per_sweep=10)
            if abs(res.x[0] - x_star) < 0.2:
                hits += 1
        assert hits >= 9

    def test_same_seed_bit_identical_history(self):
        a = simulated_annealing(double_well, self.BOUNDS, seed=3,
                                n_sweeps=15, steps_per_sweep=5)
        b = simulated_annealing(double_well, self.BOUNDS, seed=3,
                                n_sweeps=15, steps_per_sweep=5)
        assert len(a.history) == len(b.history)
        for (ia, fa, xa), (ib, fb, xb) in zip(a.history, b.history):
            assert ia == ib and fa == fb and np.array_equal(xa, xb)

    def test_different_seeds_explore_differently(self):
        a = simulated_annealing(double_well, self.BOUNDS, seed=0,
                                n_sweeps=5, steps_per_sweep=5, polish=False)
        b = simulated_annealing(double_well, self.BOUNDS, seed=1,
                                n_sweeps=5, steps_per_sweep=5, polish=False)
        assert any(
            not np.array_equal(xa, xb)
            for (_, _, xa), (_, _, xb) in zip(a.history, b.history)
        )

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            simulated_annealing(double_well, ([-np.inf], [np.inf]), seed=0)

    @pytest.mark.parametrize("option, value, rule", [
        ("seed", -1, ">= 0"), ("restarts", -1, ">= 0"),
        ("initial_temp", 0.0, "null or finite and > 0"),
        ("initial_temp", math.nan, "null or finite and > 0"),
        ("initial_temp", math.inf, "null or finite and > 0"),
        ("cooling", 0.0, "in (0, 1]"), ("cooling", 1.5, "in (0, 1]"),
        ("cooling", math.nan, "in (0, 1]"),
        ("n_sweeps", -1, ">= 0"), ("steps_per_sweep", -1, ">= 0"),
    ])
    def test_option_outside_its_range_rejected(self, option, value, rule):
        calls = []
        with pytest.raises(ValueError,
                           match=re.escape(f"{option} must be {rule}, got {value!r}")):
            simulated_annealing(lambda x: calls.append(x) or 0.0, self.BOUNDS,
                                **{option: value})
        assert not calls  # rejected before the first evaluation

    @pytest.mark.parametrize("option, value, kind", [
        ("seed", 1.5, "int"), ("steps_per_sweep", math.nan, "int"),
        ("polish", "no", "bool"), ("cooling", True, "float"),
    ])
    def test_option_of_the_wrong_type_rejected(self, option, value, kind):
        calls = []
        with pytest.raises(TypeError,
                           match=re.escape(f"{option}: expected {kind}, got {value!r}")):
            simulated_annealing(lambda x: calls.append(x) or 0.0, self.BOUNDS,
                                **{option: value})
        assert not calls  # rejected before the first evaluation


def walled_bowl(x):
    """+inf for x[0] > 0.5, where a failed Furness balance would be; the
    finite part's minimum lies on that wall, at (0.5, 0)."""
    return math.inf if x[0] > 0.5 else float((x[0] - 0.8) ** 2 + x[1] ** 2)


class TestInfiniteObjective:
    BOX = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))

    def test_nelder_mead_settles_against_the_wall(self):
        res = nelder_mead(walled_bowl, [0.0, 0.5], self.BOX)
        assert any(math.isinf(f) for _, f, _ in res.history)
        assert res.converged and math.isfinite(res.objective)
        assert res.x == pytest.approx([0.5, 0.0], abs=1e-4)

    def test_simulated_annealing_starting_beyond_the_wall(self):
        # the start and some temperature probes score +inf; an infinite
        # uphill difference must not set the temperature, or every
        # proposal after it is NaN
        res = simulated_annealing(walled_bowl, self.BOX, seed=0, x0=[0.9, 0.9],
                                  n_sweeps=20, steps_per_sweep=10)
        assert math.isinf(res.history[0][1])
        assert all(np.isfinite(x).all() for _, _, x in res.history)
        assert math.isfinite(res.objective)
        assert res.x == pytest.approx([0.5, 0.0], abs=1e-3)

    def test_infinite_everywhere_returns_the_start(self):
        nm = nelder_mead(lambda x: math.inf, [0.2, 0.3], self.BOX, max_evals=20)
        sa = simulated_annealing(lambda x: math.inf, self.BOX, seed=0, x0=[0.2, 0.3],
                                 n_sweeps=2, steps_per_sweep=3)
        for res in (nm, sa):
            assert res.objective == math.inf
            assert res.x.tolist() == [0.2, 0.3]


@pytest.fixture(scope="module")
def toy_setup():
    zones, net = eight_zone_star()
    truth = toy_strata(TOY_TRUE_MU, TOY_TRUE_BETA)
    counts = synthetic_counts(zones, net, truth)
    return zones, net, counts


class TestObjective:
    def test_self_consistency_is_zero(self, toy_setup):
        zones, net, counts = toy_setup
        truth = toy_strata(TOY_TRUE_MU, TOY_TRUE_BETA)
        wv = WeightVector.from_strata(truth)
        assert ModelObjective(zones, net, truth, counts)(wv.values()) < 1e-6

    def test_trial_weights_score_poorly(self, toy_setup):
        zones, net, counts = toy_setup
        strata = toy_strata()  # (1.5, 0.1)
        wv = WeightVector.from_strata(strata)
        assert ModelObjective(zones, net, strata, counts)(wv.values()) > 10.0

    def test_all_mu_zero_closed_form(self, toy_setup):
        zones, net, counts = toy_setup
        strata = toy_strata()
        obj = ModelObjective(zones, net, strata, counts)
        expected = np.mean([geh_from_daily(0.0, c.observed) for c in counts])
        assert obj(np.array([0.0, 0.1])) == pytest.approx(expected, rel=1e-12)

    def test_repeated_evaluation_is_pure(self, toy_setup):
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts)
        x = np.array([0.9, 0.08])
        assert obj(x) == obj(x)

    def test_oneoff_fast_path_matches_full_pipeline(self, toy_setup):
        zones, net, counts = toy_setup
        strata = toy_strata(0.8, 0.09)
        obj = ModelObjective(zones, net, strata, counts)
        j_fast = obj(WeightVector.from_strata(strata).values())
        flows = assign(net, zones, strata, mode="oneoff").flows
        j_full = evaluate(flows, counts).objective_j
        assert j_fast == pytest.approx(j_full, rel=1e-12)

    @pytest.mark.parametrize("mode", ["oneoff", "iterative"])
    def test_both_modes_score_exactly_as_evaluate(self, mode):
        zones, net = eight_zone_star()
        strata = [DemandStratum("home", "population", "population", 0.7, 0.07),
                  DemandStratum("away", "population", "population", 0.3, 0.1)]
        counts = synthetic_counts(zones, net, strata, noise=0.1, seed=2)
        obj = ModelObjective(zones, net, strata, counts, assignment_mode=mode)
        for x in ([0.7, 0.07, 0.3, 0.1], [1.5, 0.1, 0.0, 0.05], [0.2, 0.3, 2.0, 0.0]):
            trial = obj.template.with_values(x).apply(strata)
            flows = assign(net, zones, trial, mode=mode).flows
            assert obj(np.array(x)) == evaluate(flows, counts).objective_j

    @pytest.mark.parametrize("mode", ["oneoff", "iterative"])
    @pytest.mark.parametrize("n_strata", [1, 2])
    def test_scores_assign_bit_for_bit_across_the_box(self, mode, n_strata):
        # the trip-end vectors read at construction give the J that assign
        # gives from the zones at ten points of the default box
        zones, net = eight_zone_star(jobs_cutoff=20000.0)
        strata = [DemandStratum("home", "population", "population", 0.7, 0.07),
                  DemandStratum("work", "population", "jobs", 0.3, 0.1)][:n_strata]
        counts = synthetic_counts(zones, net, strata, noise=0.1, seed=2)
        obj = ModelObjective(zones, net, strata, counts, assignment_mode=mode)
        idx = [net.link_index[c.link_id] for c in counts]
        observed = np.array([c.observed for c in counts])
        lo, hi = obj.template.lower(), obj.template.upper()
        for x in lo + np.random.default_rng(7).uniform(size=(10, lo.size)) * (hi - lo):
            trial = obj.template.with_values(x).apply(strata)
            total = assign(net, zones, trial, mode=mode).total
            assert obj(x) == geh_objective(total[idx], observed)[0]
        assert obj.furness_failures == 0

    @pytest.mark.parametrize("x, message", [
        ([-1.0, 0.1], "mu must be finite and >= 0, got -1.0"),
        ([1.0, math.nan], "beta must be finite and >= 0, got nan"),
    ])
    def test_weight_outside_its_range_raises(self, toy_setup, x, message):
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts)
        with pytest.raises(ObjectiveError, match=re.escape(message)):
            obj(np.array(x))

    def test_pipeline_errors_carry_the_weights(self, toy_setup, monkeypatch):
        zones, net, counts = toy_setup
        strata = [DemandStratum("s", "population", "population", 1.0, 0.1)]
        obj = ModelObjective(zones, net, strata, counts)

        def breaks(*args):
            raise ValueError("seed broke")

        monkeypatch.setattr(demand, "deterrence", breaks)
        with pytest.raises(ObjectiveError, match=r"s\.mu=1.*seed broke"):
            obj(np.array([1.0, 0.1]))

    @pytest.mark.parametrize("production, attraction, role", [
        ("population", "nonexistent", "attraction"), ("jobs", "population", "production"),
    ])
    def test_degenerate_stratum_rejected_at_construction(self, toy_setup, production,
                                                         attraction, role):
        zones, net, counts = toy_setup
        zones = [dataclasses.replace(z, attributes={**z.attributes, "jobs": 0.0}) for z in zones]
        strata = [DemandStratum("s", production, attraction, 1.0, 0.1)]
        with pytest.raises(DegenerateStratumError,
                           match=f"stratum 's': {role} attribute '.*' is zero on every zone"):
            ModelObjective(zones, net, strata, counts)

    def test_construction_at_mu_zero_logs_nothing(self, toy_setup, caplog):
        zones, net, counts = toy_setup
        with caplog.at_level("WARNING"):
            ModelObjective(zones, net, toy_strata(0.0, 0.1), counts)
        assert caplog.records == []

    @staticmethod
    def far_apart_pair():
        """Two zones 2000 min apart: at beta = 1, exp(beta * c) overflows for
        every cost, the intrazonal 1000 min included, so the seed is empty."""
        net = make_network(["a", "b"], [("ab", "a", "b", 2000.0), ("ba", "b", "a", 2000.0)],
                           {"z1": "a", "z2": "b"})
        zones = [Zone("z1", attributes={"population": 100.0, "jobs": 300.0}),
                 Zone("z2", attributes={"population": 200.0, "jobs": 100.0})]
        stratum = DemandStratum("s", "population", "jobs", 1.0, 1.0)
        return zones, net, stratum

    def test_infeasible_balance_scores_inf_and_is_counted(self):
        zones, net, stratum = self.far_apart_pair()
        obj = ModelObjective(zones, net, [stratum], [TrafficCount("ab", 50.0)])
        with np.errstate(over="ignore"):
            skim = PathSet(net, free_flow_times(net)).skim
            with pytest.raises(FurnessInfeasibleError):
                distribute(ZoneAttributes(zones, skim.zone_ids), stratum, skim)
            assert obj(np.array([1.0, 1.0])) == math.inf
            assert math.isfinite(obj(np.array([1.0, 0.0])))
            assert obj(np.array([2.0, 1.0])) == math.inf
        assert obj.furness_failures == 2

    def test_unconverged_balance_scores_inf_and_is_counted(self, monkeypatch):
        zones, net, stratum = self.far_apart_pair()
        obj = ModelObjective(zones, net, [stratum], [TrafficCount("ab", 50.0)])

        def stalls(seed, ends):
            raise FurnessConvergenceError(1e-3, 1000)

        monkeypatch.setattr(demand, "furness_balance", stalls)
        assert obj(np.array([1.0, 0.0])) == math.inf
        assert obj.furness_failures == 1

    def test_tiny_mu_scores_as_a_small_one(self, toy_setup):
        # mu scales the trip ends, the seed's margins, and never the seed
        # f(C; -beta), so no mu in the box underflows it
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts)
        reference = obj(np.array([1e-160, TOY_TRUE_BETA]))
        assert math.isfinite(reference)
        for mu in (1e-170, 1e-300):
            assert obj(np.array([mu, TOY_TRUE_BETA])) == pytest.approx(reference, rel=1e-9)
        assert obj.furness_failures == 0

    def test_flows_past_float_range_score_inf_and_are_counted(self, toy_setup):
        # the balance holds at mu 1e150; from about 1e152 the GEH leaves float range
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts)
        assert math.isfinite(obj(np.array([1e150, TOY_TRUE_BETA])))
        assert obj.furness_failures == 0
        for failures, mu in enumerate((1e152, 1e302), start=1):
            assert obj(np.array([mu, TOY_TRUE_BETA])) == math.inf
            assert obj.furness_failures == failures

    @pytest.mark.parametrize("x", [[1e300, TOY_TRUE_BETA], [TOY_TRUE_MU, 1e300],
                                   [TOY_TRUE_MU, 1e308]])
    def test_extreme_weights_score_inf_without_a_warning(self, toy_setup, x):
        # mu 1e300 overflows the trip ends, beta 1e308 the deterrence's
        # beta * c; beta 1e300 keeps beta * c in range, and the seed is 0
        # off the diagonal
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert obj(np.array(x)) == math.inf
        assert obj.furness_failures == 1

    def test_iterative_evaluation_builds_a_path_set_per_later_iteration(
            self, toy_setup, monkeypatch):
        zones, net, counts = toy_setup
        obj = ModelObjective(zones, net, toy_strata(), counts,
                             assignment_mode="iterative", n_outer=4, gap_tol=0.0)
        built = count_path_sets(monkeypatch)
        for x in ([0.9, 0.08], [0.7, 0.074]):
            obj(np.array(x))
        # iteration 1 runs on the network's free-flow path set
        assert len(built) == 2 * 3

    @pytest.mark.parametrize("mode", ["oneoff", "iterative"])
    def test_disconnected_zones_rejected_at_construction(self, mode):
        net = make_network(["a", "b"], [("ab", "a", "b", 5.0)], {"z1": "a", "z2": "b"})
        zones = [Zone("z1", attributes={"population": 100.0}),
                 Zone("z2", attributes={"population": 200.0})]
        stratum = DemandStratum("s", "population", "population", 1.0, 0.1)
        with pytest.raises(DisconnectedZonesError):
            ModelObjective(zones, net, [stratum], [TrafficCount("ab", 50.0)],
                           assignment_mode=mode)

    @pytest.mark.parametrize("mode", ["oneoff", "iterative"])
    def test_zones_sharing_an_id_rejected_at_construction(self, toy_setup, mode):
        # a second Z1 used to replace the first quietly, and J moved with it
        zones, net, counts = toy_setup
        zones = [*zones, Zone("Z1", attributes={"population": 1e6})]
        with pytest.raises(ValueError, match=r"^zones share an id: \['Z1'\]$"):
            ModelObjective(zones, net, toy_strata(), counts, assignment_mode=mode)

    def test_unknown_count_link_rejected_up_front(self, toy_setup):
        zones, net, _ = toy_setup
        with pytest.raises(ValueError, match="unknown link"):
            ModelObjective(zones, net, toy_strata(), [TrafficCount("ghost", 1.0)])

    @pytest.mark.parametrize("setting, message", [
        ({"gap_tol": -1.0}, "gap_tol must be finite and >= 0, got -1.0"),
        ({"gap_tol": math.nan}, "gap_tol must be finite and >= 0, got nan"),
        ({"n_outer": 0}, "n_outer must be >= 1, got 0"),
        ({"assignment_mode": "bogus"}, "mode must be one of"),
    ])
    def test_assignment_setting_outside_its_range_rejected_at_construction(
            self, toy_setup, setting, message):
        zones, net, counts = toy_setup
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelObjective(zones, net, toy_strata(), counts, **setting)


class TestCalibrate:
    def test_recovers_ground_truth_from_trial_weights(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(1.5, 0.1), counts)
        assert res.best_objective < 0.01
        by_name = {f"{e.stratum}.{e.param}": e.value for e in res.best_weights.entries}
        assert by_name["everyone.mu"] == pytest.approx(TOY_TRUE_MU, rel=0.01)
        assert by_name["everyone.beta"] == pytest.approx(TOY_TRUE_BETA, rel=0.01)

    def test_never_worse_than_initial_weights(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(1.5, 0.1), counts)
        assert res.best_objective <= res.history[0][1]

    def test_start_at_optimum_terminates_quickly(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(TOY_TRUE_MU, TOY_TRUE_BETA), counts)
        assert res.converged
        assert res.best_objective <= res.history[0][1] + 1e-15
        assert res.n_evaluations < 200

    def test_weights_stay_inside_bounds(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(1.5, 0.1), counts,
                        bounds={"mu": (0.0, 5.0), "beta": (0.0, 1.0)})
        for e in res.best_weights.entries:
            assert e.lower <= e.value <= e.upper
        for _, _, x in res.history:
            assert (x >= res.best_weights.lower()).all()
            assert (x <= res.best_weights.upper()).all()

    def test_running_best_is_monotone(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(1.5, 0.1), counts)
        best = np.minimum.accumulate([h[1] for h in res.history])
        assert (np.diff(best) <= 0).all()
        assert best[-1] == res.best_objective

    def test_simulated_annealing_also_recovers(self, toy_setup):
        zones, net, counts = toy_setup
        res = calibrate(zones, net, toy_strata(1.5, 0.1), counts,
                        method="simulated_annealing", seed=0,
                        sa={"n_sweeps": 30, "steps_per_sweep": 10})
        assert res.best_objective < 0.05

    def test_mu_and_count_scaling_leaves_beta_invariant(self, toy_setup):
        zones, net, counts = toy_setup
        scale = 2.0
        scaled_counts = [TrafficCount(c.link_id, scale * c.observed) for c in counts]
        res = calibrate(zones, net, toy_strata(1.0, 0.09), scaled_counts)
        by_name = {f"{e.stratum}.{e.param}": e.value for e in res.best_weights.entries}
        assert by_name["everyone.mu"] == pytest.approx(scale * TOY_TRUE_MU, rel=0.01)
        assert by_name["everyone.beta"] == pytest.approx(TOY_TRUE_BETA, rel=0.01)

    def test_requires_strata_and_counts(self, toy_setup):
        zones, net, counts = toy_setup
        with pytest.raises(ValueError, match="stratum"):
            calibrate(zones, net, [], counts)
        with pytest.raises(ValueError, match="counts"):
            calibrate(zones, net, toy_strata(), [])

    @pytest.mark.parametrize("setting, rule", [
        ({"xatol": math.nan}, "xatol must be finite and >= 0, got nan"),
        ({"xatol": math.inf}, "xatol must be finite and >= 0, got inf"),
        ({"fatol": -1.0}, "fatol must be finite and >= 0, got -1.0"),
        ({"max_evals": -5}, "max_evals must be >= 1, got -5"),
        ({"max_evals": 0}, "max_evals must be >= 1, got 0"),
    ])
    def test_stopping_rule_outside_its_range_rejected(self, toy_setup, setting, rule):
        zones, net, counts = toy_setup
        with pytest.raises(ValueError, match=re.escape(rule)):
            calibrate(zones, net, toy_strata(), counts, **setting)


def count_path_sets(monkeypatch) -> list:
    """Patch PathSet's constructor to log the arguments of every build."""
    built, init = [], PathSet.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(PathSet, "__init__", counting)
    return built


class TestSplitTest:
    def test_oneoff_grid_builds_one_path_set(self, toy_setup, monkeypatch):
        _, _, counts = toy_setup
        zones, net = eight_zone_star()  # toy_setup's network holds its set already
        built = count_path_sets(monkeypatch)
        results = split_test(zones, net, toy_strata(1.0, 0.09), counts,
                             fractions=[0.5, 0.7], seeds=[0, 1, 2], max_evals=20)
        assert len(results) == 6
        assert len(built) == 1

    def test_calls_on_one_network_share_its_free_flow_path_set(self, toy_setup, monkeypatch):
        _, _, counts = toy_setup
        zones, net = eight_zone_star()
        built = count_path_sets(monkeypatch)
        assign(net, zones, toy_strata(), mode="oneoff")
        for seed in (0, 1):
            calibrate(zones, net, toy_strata(1.0, 0.09), counts, seed=seed, max_evals=20)
        split_test(zones, net, toy_strata(1.0, 0.09), counts, fractions=[0.5], seeds=[0],
                   max_evals=20)
        assert len(built) == 1

    def test_grid_shape_and_ordering(self, toy_setup):
        zones, net, counts = toy_setup
        results = split_test(zones, net, toy_strata(1.0, 0.09), counts,
                             fractions=[0.5, 0.7], seeds=[0, 1, 2],
                             max_evals=150)
        assert [(r.split_fraction, r.seed) for r in results] == [
            (0.5, 0), (0.5, 1), (0.5, 2), (0.7, 0), (0.7, 1), (0.7, 2)
        ]
        for r in results:
            assert r.train_geh >= 0.0 and r.test_geh >= 0.0

    def test_cells_scored_under_the_calibrating_assignment(self, toy_setup):
        zones, net, counts = toy_setup
        strata = toy_strata(2.0, 0.05)
        options = dict(assignment_mode="iterative", n_outer=8, gap_tol=0.05)
        (res,) = split_test(zones, net, strata, counts, fractions=[0.5], seeds=[0],
                            max_evals=8, **options)
        train, test = split_counts(counts, 0.5, 0)
        cal = calibrate(zones, net, strata, train, seed=0, max_evals=8, **options)
        flows = assign(net, zones, cal.best_weights.apply(strata), mode="iterative",
                       n_outer=8, gap_tol=0.05).flows
        assert res.train_geh == evaluate(flows, train).objective_j
        assert res.test_geh == evaluate(flows, test).objective_j

    def test_a_cell_that_never_balances_scores_inf_on_both_sides(self, toy_setup,
                                                                 monkeypatch):
        zones, net, counts = toy_setup

        def never_balances(*args, **kwargs):
            raise FurnessConvergenceError(1.0, 0)

        monkeypatch.setattr(demand, "furness_balance", never_balances)
        (res,) = split_test(zones, net, toy_strata(1.0, 0.09), counts,
                            fractions=[0.5], seeds=[0], max_evals=8)
        assert (res.train_geh, res.test_geh) == (math.inf, math.inf)

    def test_cells_scored_inside_the_configured_bounds(self, toy_setup):
        # mu 7 lies outside the default box: the test side takes the cell's bounds
        zones, net, counts = toy_setup
        (res,) = split_test(zones, net, toy_strata(7.0, 0.09), counts, fractions=[0.5],
                            seeds=[0], max_evals=8, bounds={"mu": [0.0, 10.0]})
        assert math.isfinite(res.train_geh) and math.isfinite(res.test_geh)

    def test_noise_free_counts_fit_both_sides(self, toy_setup):
        zones, net, counts = toy_setup
        (res,) = split_test(zones, net, toy_strata(1.0, 0.09), counts,
                            fractions=[0.5], seeds=[0])
        assert res.train_geh < 0.01
        assert res.test_geh < 0.01
