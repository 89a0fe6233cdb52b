import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowfit.metrics import (
    TrafficCount,
    evaluate,
    geh_from_daily,
    geh_hourly,
    geh_objective,
    report_text,
    split_counts,
)

# zero or a physical flow magnitude; squared differences of subnormal
# inputs underflow and break the zero-iff-equal property vacuously
flows_st = st.floats(0.0, 1e6).filter(lambda v: v == 0.0 or v >= 1e-6)


class TestTrafficCount:
    @pytest.mark.parametrize("observed", [math.nan, math.inf, -5.0])
    def test_count_outside_its_range_rejected(self, observed):
        with pytest.raises(ValueError,
                           match=f"observed flow must be finite and >= 0, got {observed!r}"):
            TrafficCount("l1", observed)


class TestGehHourly:
    def test_equal_flows_give_zero(self):
        assert geh_hourly(500.0, 500.0) == 0.0

    def test_hand_value(self):
        # sqrt(2 * 50**2 / 150)
        assert geh_hourly(100.0, 50.0) == pytest.approx(5.7735, abs=1e-4)

    def test_both_zero_defined_as_zero(self):
        assert geh_hourly(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            geh_hourly(-1.0, 5.0)
        with pytest.raises(ValueError):
            geh_hourly(5.0, -1.0)

    @given(flows_st, flows_st)
    def test_symmetry(self, p, m):
        assert geh_hourly(p, m) == geh_hourly(m, p)

    @given(flows_st, flows_st, st.floats(0.01, 100.0))
    def test_scaling_law(self, p, m, k):
        # abs floor covers the cancellation case p ~ m, where k*p and k*m
        # round independently before subtraction
        assert geh_hourly(k * p, k * m) == pytest.approx(
            math.sqrt(k) * geh_hourly(p, m), rel=1e-9, abs=1e-8
        )

    @given(flows_st, flows_st)
    def test_nonnegative_and_zero_iff_equal(self, p, m):
        g = geh_hourly(p, m)
        assert g >= 0.0
        if p + m > 0:
            assert (g == 0.0) == (p == m)

    def test_vectorized(self):
        out = geh_hourly(np.array([100.0, 500.0]), np.array([50.0, 500.0]))
        assert out[0] == pytest.approx(5.7735, abs=1e-4)
        assert out[1] == 0.0


class TestGehFromDaily:
    def test_equal_daily_flows(self):
        assert geh_from_daily(5000.0, 5000.0) == 0.0

    def test_reduces_to_hourly_at_one_tenth(self):
        assert geh_from_daily(1000.0, 500.0) == pytest.approx(
            geh_hourly(100.0, 50.0), rel=1e-12
        )
        assert geh_from_daily(1000.0, 500.0) == pytest.approx(5.7735, abs=1e-4)

    @given(flows_st, flows_st)
    def test_sqrt10_identity(self, p, m):
        # applying the raw statistic to daily flows overstates the hourly
        # error by exactly sqrt(10)
        assert geh_hourly(10.0 * p, 10.0 * m) == pytest.approx(
            math.sqrt(10.0) * geh_hourly(p, m), rel=1e-9, abs=1e-8
        )


def reference_geh_hourly(p, m):
    """geh_hourly's arithmetic before it wrote into one buffer."""
    s = p + m
    return np.where(s > 0, np.sqrt(2.0 * (p - m) ** 2 / np.where(s > 0, s, 1.0)), 0.0)


class TestGehObjective:
    @pytest.mark.parametrize("n", [1, 7, 250, 1000])
    def test_bitwise_the_reference_expression(self, rng, n):
        for _ in range(20):
            predicted, observed = rng.uniform(0.0, 2e5, (2, n))
            predicted[rng.random(n) < 0.3] = 0.0
            observed[rng.random(n) < 0.3] = 0.0
            expected = reference_geh_hourly(predicted / 10.0, observed / 10.0)
            j, gehs = geh_objective(predicted, observed)
            assert gehs.tobytes() == expected.tobytes()
            assert j == float(np.mean(expected))

    def test_scalars_broadcasts_and_not_a_number_as_the_reference(self):
        assert geh_hourly(0.0, 0.0) == 0.0 and isinstance(geh_hourly(3.0, 1.0), float)
        p = np.array([math.nan, 4.0, 0.0, -0.0, 9.0])
        m = np.array([1.0, math.nan, 0.0, 0.0, 0.0])
        assert geh_hourly(p, m).tobytes() == reference_geh_hourly(p, m).tobytes()
        assert geh_hourly(p, 2.0).tobytes() == reference_geh_hourly(p, 2.0).tobytes()


class TestEvaluate:
    def test_perfect_match(self):
        flows = {"l1": 1000.0, "l2": 500.0}
        report = evaluate(flows, [TrafficCount("l1", 1000.0),
                                  TrafficCount("l2", 500.0)])
        assert report.objective_j == 0.0
        assert report.share_geh_below_5 == 1.0
        assert report.n_measurements == 2

    def test_single_count_mean(self):
        report = evaluate({"l1": 1000.0}, [TrafficCount("l1", 500.0)])
        assert report.objective_j == pytest.approx(5.7735, abs=1e-4)

    def test_two_counts_mean_and_share(self):
        flows = {"l1": 1000.0, "l2": 1000.0}
        report = evaluate(flows, [TrafficCount("l1", 1000.0),
                                  TrafficCount("l2", 500.0)])
        # gehs are {0, 5.7735}; only the first clears the 5.0 bar
        assert report.objective_j == pytest.approx(2.88675, abs=1e-4)
        assert report.share_geh_below_5 == 0.5

    def test_uncounted_links_ignored(self):
        flows = {"l1": 1000.0, "noise": 123456.0}
        report = evaluate(flows, [TrafficCount("l1", 1000.0)])
        assert report.objective_j == 0.0
        assert report.n_measurements == 1

    def test_j_matches_independent_mean(self, rng):
        links = [f"l{i}" for i in range(40)]
        flows = {lid: float(rng.uniform(100, 20000)) for lid in links}
        counts = [TrafficCount(lid, float(rng.uniform(100, 20000))) for lid in links]
        report = evaluate(flows, counts)
        by_hand = sum(
            geh_hourly(flows[c.link_id] / 10.0, c.observed / 10.0) for c in counts
        ) / len(counts)
        assert report.objective_j == pytest.approx(by_hand, rel=1e-12)

    def test_share_degrades_as_one_prediction_drifts(self):
        counts = [TrafficCount("l1", 1000.0), TrafficCount("l2", 1000.0)]
        shares = [
            evaluate({"l1": 1000.0, "l2": q}, counts).share_geh_below_5
            for q in (1000.0, 1500.0, 3000.0, 9000.0)
        ]
        assert shares == sorted(shares, reverse=True)
        assert shares[0] == 1.0 and shares[-1] == 0.5

    def test_vector_report_equals_the_per_count_loop(self, rng):
        links = [f"l{i}" for i in range(40)]
        flows = {lid: float(rng.uniform(100, 20000)) for lid in links}
        counts = [TrafficCount(lid, float(rng.uniform(100, 20000))) for lid in links]
        report = evaluate(flows, counts)
        by_count = [geh_from_daily(flows[c.link_id], c.observed) for c in counts]
        assert [e.geh for e in report.per_link] == by_count
        assert report.objective_j == float(np.mean(by_count))
        assert report.objective_j == geh_objective(
            [flows[lid] for lid in links], [c.observed for c in counts])[0]
        for e in report.per_link:
            assert type(e.predicted) is float and type(e.geh) is float

    def test_empty_counts_rejected(self):
        with pytest.raises(ValueError, match="objective undefined"):
            evaluate({"l1": 1.0}, [])

    def test_unknown_link_rejected(self):
        with pytest.raises(ValueError, match="unknown link"):
            evaluate({"l1": 1.0}, [TrafficCount("ghost", 5.0)])

    def test_report_text_mentions_summary(self):
        report = evaluate({"l1": 1000.0}, [TrafficCount("l1", 500.0)])
        text = report_text(report)
        assert "mean GEH" in text and "l1" in text


class TestSplitCounts:
    def counts(self, n):
        return [TrafficCount(f"l{i}", float(i)) for i in range(n)]

    def test_half_split_partitions(self):
        counts = self.counts(10)
        train, test = split_counts(counts, 0.5, seed=0)
        assert len(train) == 5 and len(test) == 5
        assert {c.link_id for c in train} | {c.link_id for c in test} == {
            c.link_id for c in counts
        }
        assert {c.link_id for c in train} & {c.link_id for c in test} == set()

    def test_same_seed_same_partition(self):
        counts = self.counts(30)
        assert split_counts(counts, 0.3, 7) == split_counts(counts, 0.3, 7)

    def test_ten_seeds_give_distinct_partitions(self):
        counts = self.counts(250)
        partitions = set()
        for seed in range(10):
            train, test = split_counts(counts, 0.3, seed)
            assert len(train) == 75 and len(test) == 175
            partitions.add(frozenset(c.link_id for c in train))
        assert len(partitions) == 10

    def test_round_half_up_train_size(self):
        train, test = split_counts(self.counts(10), 0.25, 0)
        assert len(train) == 3  # round(2.5) -> 3

    def test_degenerate_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_counts(self.counts(10), 0.0, 0)
        with pytest.raises(ValueError):
            split_counts(self.counts(10), 1.0, 0)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError, match="degenerate split"):
            split_counts(self.counts(2), 0.9, 0)
