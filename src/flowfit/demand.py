"""Demand strata, trip-end generation, and doubly-constrained gravity distribution."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .network import CostMatrix

logger = logging.getLogger(__name__)

# Lower clamp on costs fed to the power deterrence; guards c = 0 inputs.
COST_FLOOR = 1e-6

DETERRENCE_KINDS = ("exponential", "power")

DEFAULT_FURNESS_TOL = 1e-8
DEFAULT_FURNESS_MAX_ITER = 1000

DEFAULT_JOBS_CUTOFF = 5000.0


class DegenerateStratumError(ValueError):
    """A stratum whose production or attraction attribute is zero everywhere."""


class FurnessInfeasibleError(ValueError):
    """Seed has a zero row/column where the target margin is positive."""


class FurnessConvergenceError(RuntimeError):
    def __init__(self, deviation: float, iterations: int):
        self.deviation = deviation
        self.iterations = iterations
        super().__init__(
            f"margins not balanced after {iterations} iterations "
            f"(residual deviation {deviation:.3e})"
        )


@dataclass(frozen=True)
class Zone:
    """Population cluster acting as a graph vertex; x, y in km."""

    zone_id: str
    name: str = ""
    x: float = 0.0
    y: float = 0.0
    attributes: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class DemandStratum:
    """One trip-generating production/attraction attribute pair.

    mu is the mobility (person-trips per person per 24h), converted to
    vehicle trips via occupancy; beta weights the deterrence function.
    """

    name: str
    production_attr: str
    attraction_attr: str
    mu: float
    beta: float
    deterrence_kind: str = "exponential"
    occupancy: float = 1.0

    def __post_init__(self):
        if self.deterrence_kind not in DETERRENCE_KINDS:
            raise ValueError(
                f"stratum {self.name!r}: unknown deterrence kind "
                f"{self.deterrence_kind!r} (expected one of {DETERRENCE_KINDS})"
            )
        if self.mu < 0:
            raise ValueError(f"stratum {self.name!r}: mu must be >= 0")
        if self.beta < 0:
            raise ValueError(f"stratum {self.name!r}: beta must be >= 0")
        if not self.occupancy > 0:
            raise ValueError(f"stratum {self.name!r}: occupancy must be > 0")


def require_unique_names(strata) -> None:
    """Raise ValueError when two strata share a name, by which calibration
    weights and per-stratum flows are keyed."""
    names = [s.name for s in strata]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ValueError(f"strata share a name: {shared}")


@dataclass(frozen=True, eq=False)
class TripEnds:
    """Origin and destination vectors (veh-trips/24h), one entry per zone."""

    origins: np.ndarray
    destinations: np.ndarray

    @property
    def total(self) -> float:
        return float(self.origins.sum())


@dataclass(frozen=True, eq=False)
class ODMatrix:
    """Trip table (veh-trips/24h), rows = origins, columns = destinations."""

    zone_ids: tuple[str, ...]
    trips: np.ndarray

    @cached_property
    def index(self) -> dict[str, int]:
        return {z: i for i, z in enumerate(self.zone_ids)}

    @property
    def total(self) -> float:
        return float(self.trips.sum())


def derive_jobs(population: float, cutoff: float = DEFAULT_JOBS_CUTOFF) -> float:
    """Job places implied by population.

    Zones at or above the cutoff hold sqrt(population^2 - cutoff^2) jobs;
    smaller zones are residential only and keep a single token job place.
    The formula is applied literally, including its jump at the cutoff.
    """
    if population >= cutoff:
        return float(np.sqrt(population**2 - cutoff**2))
    return 1.0


def _attribute_vector(zones, attr: str, stratum_name: str) -> np.ndarray:
    missing = [z.zone_id for z in zones if attr not in z.attributes]
    if missing:
        logger.warning(
            "stratum %r: attribute %r missing on %d zone(s) (e.g. %s); treated as 0",
            stratum_name, attr, len(missing), missing[0],
        )
    vec = np.array([z.attributes.get(attr, 0.0) for z in zones], dtype=float)
    if (vec < 0).any():
        bad = zones[int(np.argmax(vec < 0))].zone_id
        raise ValueError(f"attribute {attr!r} is negative on zone {bad!r}")
    return vec


def generate_trip_ends(zones, stratum: DemandStratum) -> TripEnds:
    """Vehicle-trip origins and destinations per zone for one stratum.

    O_i = mu * production_attr(i) / occupancy; the attraction attribute is
    rescaled so that destinations sum to the same total as origins.
    """
    prod = _attribute_vector(zones, stratum.production_attr, stratum.name)
    attr = _attribute_vector(zones, stratum.attraction_attr, stratum.name)
    if prod.sum() == 0:
        raise DegenerateStratumError(
            f"stratum {stratum.name!r}: production attribute "
            f"{stratum.production_attr!r} is zero on every zone"
        )
    if attr.sum() == 0:
        raise DegenerateStratumError(
            f"stratum {stratum.name!r}: attraction attribute "
            f"{stratum.attraction_attr!r} is zero on every zone"
        )
    origins = stratum.mu * prod / stratum.occupancy
    total = origins.sum()
    if total == 0.0:
        logger.warning("stratum %r generates no trips (mu = %g)", stratum.name, stratum.mu)
        return TripEnds(np.zeros_like(prod), np.zeros_like(attr))
    destinations = attr * (total / attr.sum())
    return TripEnds(origins, destinations)


def deterrence(cost, beta: float, kind: str):
    """Gravity-model cost penalty f(c); trips between zones scale as 1/f(c).

    exponential: f(c) = exp(beta * c); power: f(c) = c ** beta with the
    cost clamped below by COST_FLOOR. Accepts scalars or arrays.
    """
    c = np.asarray(cost, dtype=float)
    if (c < 0).any():
        raise ValueError("deterrence cost must be >= 0")
    if kind == "exponential":
        out = np.exp(beta * c)
    elif kind == "power":
        out = np.maximum(c, COST_FLOOR) ** beta
    else:
        raise ValueError(f"unknown deterrence kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def seed_matrix(ends: TripEnds, costs: CostMatrix, beta: float, kind: str) -> ODMatrix:
    """Unbalanced gravity seed S_ij = O_i * D_j / f(C_ij), diagonal included."""
    n = len(costs.zone_ids)
    if ends.origins.shape != (n,) or ends.destinations.shape != (n,):
        raise ValueError(
            f"trip ends ({ends.origins.shape[0]} zones) do not match "
            f"cost matrix ({n} zones)"
        )
    trips = np.outer(ends.origins, ends.destinations) / deterrence(costs.values, beta, kind)
    return ODMatrix(costs.zone_ids, trips)


def furness_balance(
    seed: ODMatrix,
    ends: TripEnds,
    tol: float = DEFAULT_FURNESS_TOL,
    max_iter: int = DEFAULT_FURNESS_MAX_ITER,
) -> ODMatrix:
    """Alternate row/column scaling until both margins match the trip ends.

    The result has the form diag(a) @ seed @ diag(b), i.e. the seed's
    cross-ratio structure is preserved. tol bounds the maximum relative
    deviation of row sums from origins and column sums from destinations.
    """
    T = np.array(seed.trips, dtype=float)
    if (T < 0).any():
        raise ValueError("seed matrix must be nonnegative")
    O = np.asarray(ends.origins, dtype=float)
    D = np.asarray(ends.destinations, dtype=float)
    if T.shape != (O.size, D.size):
        raise ValueError("seed shape does not match trip ends")
    tot_o, tot_d = O.sum(), D.sum()
    if abs(tot_o - tot_d) > 1e-9 * max(tot_o, tot_d, 1.0):
        raise ValueError(
            f"origin total {tot_o!r} and destination total {tot_d!r} must agree"
        )
    if tot_o == 0.0:
        return ODMatrix(seed.zone_ids, np.zeros_like(T))

    o_div = np.where(O > 0, O, 1.0)
    d_div = np.where(D > 0, D, 1.0)
    deviation = np.inf
    for _ in range(max_iter):
        row = T.sum(axis=1)
        if ((O > 0) & (row <= 0)).any():
            zid = seed.zone_ids[int(np.argmax((O > 0) & (row <= 0)))]
            raise FurnessInfeasibleError(
                f"zero seed row for zone {zid!r} with positive origin target"
            )
        T *= np.where(O > 0, O / np.where(row > 0, row, 1.0), 0.0)[:, None]
        col = T.sum(axis=0)
        if ((D > 0) & (col <= 0)).any():
            zid = seed.zone_ids[int(np.argmax((D > 0) & (col <= 0)))]
            raise FurnessInfeasibleError(
                f"zero seed column for zone {zid!r} with positive destination target"
            )
        T *= np.where(D > 0, D / np.where(col > 0, col, 1.0), 0.0)[None, :]
        deviation = max(
            (np.abs(T.sum(axis=1) - O) / o_div).max(),
            (np.abs(T.sum(axis=0) - D) / d_div).max(),
        )
        if deviation <= tol:
            return ODMatrix(seed.zone_ids, T)
    raise FurnessConvergenceError(float(deviation), max_iter)


def distribute(zones, stratum: DemandStratum, costs: CostMatrix) -> ODMatrix:
    """Per-stratum OD matrix: trip ends -> gravity seed -> Furness balancing."""
    by_id = {z.zone_id: z for z in zones}
    if set(by_id) != set(costs.zone_ids):
        raise ValueError("zone set does not match the cost matrix")
    ordered = [by_id[z] for z in costs.zone_ids]
    ends = generate_trip_ends(ordered, stratum)
    if ends.total == 0.0:
        n = len(costs.zone_ids)
        return ODMatrix(costs.zone_ids, np.zeros((n, n)))
    seed = seed_matrix(ends, costs, stratum.beta, stratum.deterrence_kind)
    return furness_balance(seed, ends)
