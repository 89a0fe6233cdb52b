"""GEH error statistics, the calibration objective, and count splitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Daily flows run roughly 8-12x the typical hourly flow; the fixed middle
# value converts stored veh/24h volumes to hourly-equivalent GEH.
DAILY_TO_HOURLY = 10.0

# Common guideline: a well-calibrated model keeps GEH below 5 on most counts.
GEH_THRESHOLD = 5.0


@dataclass(frozen=True)
class TrafficCount:
    """Observed daily flow (veh/24h) on one directed link; finite and >= 0."""

    link_id: str
    observed: float

    def __post_init__(self):
        if not 0 <= self.observed < math.inf:
            raise ValueError(f"observed flow must be finite and >= 0, got {self.observed!r}")


class LinkGeh(NamedTuple):
    link_id: str
    predicted: float
    observed: float
    geh: float


@dataclass(frozen=True)
class EvaluationReport:
    per_link: tuple[LinkGeh, ...]
    objective_j: float
    share_geh_below_5: float
    n_measurements: int


@dataclass(frozen=True)
class SplitExperimentResult:
    split_fraction: float
    seed: int
    train_geh: float
    test_geh: float


def geh_hourly(predicted, measured):
    """GEH statistic sqrt(2 (P-M)^2 / (P+M)) between hourly flows.

    Defined as 0 when both flows are 0 (the limit along P = M). Accepts
    scalars or arrays; inputs must be nonnegative.
    """
    p = np.asarray(predicted, dtype=float)
    m = np.asarray(measured, dtype=float)
    if (p < 0).any() or (m < 0).any():
        raise ValueError("flows must be >= 0")
    s = np.add(p, m)
    positive = s > 0
    # sqrt(2 (p - m)^2 / s) in one buffer, left at 0 where s is not > 0
    out = np.zeros(positive.shape)
    np.subtract(p, m, out=out, where=positive)
    np.square(out, out=out)
    out *= 2.0
    np.divide(out, s, out=out, where=positive)
    np.sqrt(out, out=out)
    return float(out) if out.ndim == 0 else out


def geh_from_daily(predicted_daily, measured_daily):
    """Hourly-equivalent GEH for daily (veh/24h) flows via the 10x divisor."""
    p = np.asarray(predicted_daily, dtype=float)
    m = np.asarray(measured_daily, dtype=float)
    return geh_hourly(p / DAILY_TO_HOURLY, m / DAILY_TO_HOURLY)


def geh_objective(predicted_daily, observed_daily) -> tuple[float, np.ndarray]:
    """The calibration objective J and the per-count GEH it averages.

    J is the plain mean of hourly-equivalent GEH between two aligned
    vectors: predicted daily flows at the counted links and the counts.
    """
    gehs = geh_from_daily(predicted_daily, observed_daily)
    return float(np.mean(gehs)), gehs


def evaluate(flows, counts) -> EvaluationReport:
    """Per-link GEH report against observed counts.

    The per-link rows and J come from one geh_objective call, the same one
    that scores each weight vector during calibration; links without counts
    are ignored.
    """
    if not counts:
        raise ValueError("no traffic counts: objective undefined")
    for count in counts:
        if count.link_id not in flows:
            raise ValueError(f"count references unknown link {count.link_id!r}")
    predicted = np.array([float(flows[c.link_id]) for c in counts])
    j, gehs = geh_objective(predicted, [c.observed for c in counts])
    per_link = tuple(
        LinkGeh(c.link_id, p, c.observed, g)
        for c, p, g in zip(counts, predicted.tolist(), gehs.tolist())
    )
    return EvaluationReport(
        per_link=per_link,
        objective_j=j,
        share_geh_below_5=float((gehs < GEH_THRESHOLD).mean()),
        n_measurements=len(per_link),
    )


def split_counts(counts, fraction: float, seed: int):
    """Seeded random train/test partition with round-half-up train size."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must be in (0, 1), got {fraction!r}")
    n = len(counts)
    n_train = int(fraction * n + 0.5)
    if n_train < 1 or n - n_train < 1:
        raise ValueError(f"degenerate split: {n_train} train / {n - n_train} test")
    perm = np.random.default_rng(seed).permutation(n)
    train = [counts[i] for i in perm[:n_train]]
    test = [counts[i] for i in perm[n_train:]]
    return train, test


def report_text(report: EvaluationReport) -> str:
    """Human-readable evaluation summary with the worst links listed first."""
    lines = [
        f"measurements: {report.n_measurements}",
        f"mean GEH (hourly-equivalent): {report.objective_j:.4f}",
        f"share GEH < {GEH_THRESHOLD:g}: {100.0 * report.share_geh_below_5:.1f}%",
        "",
        f"{'link':<20} {'observed':>12} {'predicted':>12} {'GEH':>8}",
    ]
    ranked = sorted(report.per_link, key=lambda e: (-e.geh, e.link_id))
    for e in ranked:
        lines.append(
            f"{e.link_id:<20} {e.observed:>12.1f} {e.predicted:>12.1f} {e.geh:>8.3f}"
        )
    return "\n".join(lines)


def split_summary_text(results) -> str:
    """Per-fraction summary of a split_test grid, in the grid's order: mean
    train and test GEH over the seeds, and the test GEH's spread."""
    lines = [f"{'fraction':>8} {'mean train':>11} {'mean test':>10} {'sd test':>8}"]
    for fraction in dict.fromkeys(r.split_fraction for r in results):
        cell = [r for r in results if r.split_fraction == fraction]
        train = np.array([r.train_geh for r in cell])
        test = np.array([r.test_geh for r in cell])
        lines.append(f"{fraction:>8.2f} {train.mean():>11.4f} {test.mean():>10.4f} "
                     f"{test.std(ddof=0):>8.4f}")
    return "\n".join(lines)
