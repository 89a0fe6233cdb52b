"""Demand strata, trip-end generation, and doubly-constrained gravity distribution."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .network import CostMatrix

logger = logging.getLogger(__name__)

# Lower clamp on costs fed to the power deterrence; guards c = 0 inputs.
COST_FLOOR = 1e-6

DETERRENCE_KINDS = ("exponential", "power")

DEFAULT_FURNESS_TOL = 1e-8
DEFAULT_FURNESS_MAX_ITER = 1000

# Every FURNESS_RATE_WINDOW sweeps, furness_balance projects the sweeps still
# needed from the deviation's contraction over the window. It hands the
# balance to Newton's method once that projection exceeds the sweeps left,
# or the price of NEWTON_SWITCH_STEPS Newton steps at (2mn^2 + n^3/3) / 4mn
# sweeps each. The 2 was fitted to hand-offs timed by scripts/time_layers.py
# while a step took a Cholesky factor: one hand-off (2-3 steps with their
# line searches) then cost 37-51 sweeps at 80 zones, 141-252 at 400 and
# 214-344 at 900, about one priced step or less. At 1 the price fell inside
# that range, and some 400-zone balances that the sweeps were about to
# finish handed off and ran slower. With one numpy.linalg.solve per step a
# hand-off costs 28-32 sweeps at 80 zones and 131-228 at 400 (one BLAS
# thread), so the price (93 and 467 sweeps) sits two to three times above
# it; re-fitting it would move hand-offs. All these costs are in plain
# sweeps, and the projection reads over-relaxed sweeps' rate from sweep 20
# on, so the hand-offs were fitted to a different rate than it now reads.
FURNESS_RATE_WINDOW = 10
NEWTON_SWITCH_STEPS = 2
# Newton gives up (and the sweeps resume) after this many steps, or when
# this many step halvings do not lower the margin deviation.
NEWTON_MAX_STEPS = 30
NEWTON_MAX_HALVINGS = 40

DEFAULT_JOBS_CUTOFF = 5000.0


class DegenerateStratumError(ValueError):
    """A stratum whose production or attraction attribute is zero everywhere."""


class FurnessInfeasibleError(ValueError):
    """A trip end is negative or not finite, or the seed has a zero row/column
    where the target margin is positive."""


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
        check_field_types(self)
        if self.deterrence_kind not in DETERRENCE_KINDS:
            raise ValueError(
                f"stratum {self.name!r}: unknown deterrence kind "
                f"{self.deterrence_kind!r} (expected one of {DETERRENCE_KINDS})"
            )
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"stratum {self.name!r}: mu must be finite and >= 0")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"stratum {self.name!r}: beta must be finite and >= 0")
        if not 0 < self.occupancy < math.inf:
            raise ValueError(f"stratum {self.name!r}: occupancy must be finite and > 0")


def require_unique_names(strata) -> None:
    """Raise ValueError when two strata share a name, by which calibration
    weights and per-stratum flows are keyed."""
    names = [s.name for s in strata]
    shared = sorted({n for n in names if names.count(n) > 1})
    if shared:
        raise ValueError(f"strata share a name: {shared}")


# a settings field's annotation -> the value types it accepts
_REAL = (float, int, np.floating, np.integer)
FIELD_TYPES = {"str": (str,), "int": (int, np.integer), "float": _REAL, "bool": (bool,),
               "float | None": (*_REAL, type(None)), "dict": (dict,)}


def fits_field_type(value, annotation: str) -> bool:
    """Whether value fits a field annotated annotation, a FIELD_TYPES key; a
    bool stands for no number."""
    return isinstance(value, FIELD_TYPES[annotation]) and (
        annotation == "bool" or not isinstance(value, bool))


def check_field_types(options) -> None:
    """Raise TypeError naming the first field of the settings dataclass
    options whose value does not fit its annotation; a number for a float
    field becomes a float. NaN is left to the range checks."""
    for f in fields(options):
        value = getattr(options, f.name)
        if not fits_field_type(value, f.type):
            raise TypeError(f"{f.name}: expected {f.type}, got {value!r}")
        if type(value) is not float and f.type.startswith("float") and value is not None:
            object.__setattr__(options, f.name, float(value))  # frozen classes too


@dataclass(frozen=True, eq=False)
class TripEnds:
    """Origin and destination vectors (veh-trips/24h), one entry per zone."""

    origins: np.ndarray
    destinations: np.ndarray


@dataclass(frozen=True, eq=False)
class ODMatrix:
    """Trip table (veh-trips/24h), rows = origins, columns = destinations."""

    zone_ids: tuple[str, ...]
    trips: np.ndarray


def derive_jobs(population: float, cutoff: float = DEFAULT_JOBS_CUTOFF) -> float:
    """Job places implied by population.

    Zones at or above the cutoff hold sqrt(population^2 - cutoff^2) jobs;
    smaller zones are residential only and keep a single token job place.
    The formula is applied literally, including its jump at the cutoff.
    """
    if population >= cutoff:
        return float(np.sqrt(population**2 - cutoff**2))
    return 1.0


def _attribute_vector(zones, attr: str) -> np.ndarray:
    vec = np.array([z.attributes.get(attr, 0.0) for z in zones], dtype=float)
    ok = (vec >= 0) & (vec < math.inf)
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"attribute {attr!r} on zone {zones[k].zone_id!r} "
                         f"must be finite and >= 0, got {float(vec[k])!r}")
    return vec


def stratum_attributes(zones, stratum: DemandStratum) -> tuple[np.ndarray, np.ndarray]:
    """A stratum's production and attraction attribute vectors over zones; a
    zone without an attribute counts 0 for it. Raises DegenerateStratumError
    when either is zero on every zone: the stratum has no trips to spread."""
    prod = _attribute_vector(zones, stratum.production_attr)
    attr = _attribute_vector(zones, stratum.attraction_attr)
    for role, name, vec in (("production", stratum.production_attr, prod),
                            ("attraction", stratum.attraction_attr, attr)):
        if vec.sum() == 0:
            raise DegenerateStratumError(
                f"stratum {stratum.name!r}: {role} attribute {name!r} is zero on every zone")
    return prod, attr


def generate_trip_ends(zones, stratum: DemandStratum) -> TripEnds:
    """Vehicle-trip origins and destinations per zone for one stratum.

    O_i = mu * production_attr(i) / occupancy; the attraction attribute is
    rescaled so that destinations sum to the same total as origins, both
    read by stratum_attributes.
    """
    prod, attr = stratum_attributes(zones, stratum)
    origins = stratum.mu * prod / stratum.occupancy
    total = origins.sum()
    if total == 0.0:
        logger.warning("stratum %r generates no trips (mu = %g)", stratum.name, stratum.mu)
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
    cross-ratio structure is preserved. Only the scale vectors change
    during the sweeps: each costs two matrix-vector products with the
    seed, row = seed @ b and col = a @ seed, and the product is formed
    once, on convergence. tol bounds the maximum relative deviation of
    row sums from origins and column sums from destinations. A trip end
    that is negative or not finite raises FurnessInfeasibleError naming its
    zone, origins first, before any sweep.

    Every FURNESS_RATE_WINDOW sweeps the deviation's contraction rate rho
    over the window projects the sweeps still needed, log(tol / dev) /
    log(rho), or infinitely many when rho >= 1. Once that exceeds the
    sweeps left, or the price of NEWTON_SWITCH_STEPS = 2 Newton steps, the
    balance switches to Newton's method on the log scale vectors (Knight &
    Ruiz 2013), which stops at the same tol test. A step is priced by its
    flops at (2mn^2 + n^3/3) / 4mn sweeps, from the seed's shape alone and
    never by a clock, so the result does not depend on the machine's speed;
    the two steps come to 93 sweeps at 80 zones and 467 at 400, two to
    three times the measured cost of a hand-off there (see
    NEWTON_SWITCH_STEPS).

    From the second window on (sweep 20), a balance that does not switch
    over-relaxes its sweeps (Thibault, Chizat, Dossal & Papadakis 2021;
    Lehmann, von Renesse, Sambale & Uschmajew 2022): with s the plain
    scale, a <- a (s / a)^omega, then the same for b, rows and columns
    without a positive target keeping scale 0. The first omega is
    2 / (1 + sqrt(1 - rho)) from the plain rate of sweeps 10 to 20; every
    later window re-estimates it from its relaxed rate r by Young's
    relation, rho = (r + omega - 1)^2 / (r omega^2) (_over_relaxation).
    omega comes from deviations only, so a balance depends on its inputs
    alone. Each window saves the scales and their deviation. If a relaxed
    window does not lower the deviation, or a relaxed sweep's scale leaves
    float range, the balance restores the saved window and sweeps plainly
    (omega = 1) to the end; the next projection reads the plain rate from
    the restored window, not a stall.

    If Newton fails (a singular step system, e.g. on block-diagonal support,
    a step that is not finite or does not lower the deviation, or
    NEWTON_MAX_STEPS used up), the sweeps resume plainly from where they
    switched and Newton is not tried again, so a system that does not
    balance raises FurnessConvergenceError after max_iter sweeps as before.
    """
    K = np.asarray(seed.trips, dtype=float)
    if (K < 0).any():
        raise ValueError("seed matrix must be nonnegative")
    O = np.asarray(ends.origins, dtype=float)
    D = np.asarray(ends.destinations, dtype=float)
    if K.shape != (O.size, D.size):
        raise ValueError("seed shape does not match trip ends")
    for margin, target in (("origin", O), ("destination", D)):
        bad = np.flatnonzero(~((target >= 0) & (target < math.inf)))
        if bad.size:
            raise FurnessInfeasibleError(
                f"{margin} of zone {seed.zone_ids[bad[0]]!r} must be finite and >= 0, "
                f"got {float(target[bad[0]])!r}")
    tot_o, tot_d = O.sum(), D.sum()
    if abs(tot_o - tot_d) > 1e-9 * max(tot_o, tot_d, 1.0):
        raise ValueError(
            f"origin total {tot_o!r} and destination total {tot_d!r} must agree"
        )
    if tot_o == 0.0:
        return ODMatrix(seed.zone_ids, np.zeros_like(K))

    o_div, d_div = np.where(O > 0, O, 1.0), np.where(D > 0, D, 1.0)
    # a row (column) without a positive target scales by 0 / (sum + 1) = 0,
    # so the divisor is never 0 there, even where the seed's sum is
    o_num, d_num = np.where(O > 0, O, 0.0), np.where(D > 0, D, 0.0)
    o_off, d_off = 1.0 * (O <= 0), 1.0 * (D <= 0)
    a, b = np.ones(O.size), np.ones(D.size)
    row = K @ b  # row sums of diag(a) @ K @ diag(b) are a * row
    deviation = window_start = np.inf
    newton_cost = NEWTON_SWITCH_STEPS * newton_step_sweeps(*K.shape)
    newton_tried = False
    omega, relax, swept, saved = 1.0, True, 0, None
    with np.errstate(divide="ignore", over="ignore"):
        for k in range(1, max_iter + 1):
            try:
                a = _relaxed(a, _scale(o_num, row, o_off, seed.zone_ids, "row", "origin"),
                             omega, o_off)
                col = a @ K
                b = _relaxed(b, _scale(d_num, col, d_off, seed.zone_ids, "column", "destination"),
                             omega, d_off)
            except FurnessInfeasibleError:
                if omega == 1.0:
                    raise
                # a relaxed scale left float range, or a sum under it fell
                # too small to scale: back to the saved window
                (a, b, row, deviation), omega, relax, swept = saved, 1.0, False, 0
                continue
            row = K @ b
            deviation = max(
                (np.abs(a * row - O) / o_div).max(),
                (np.abs(b * col - D) / d_div).max(),
            )
            if deviation <= tol:
                return ODMatrix(seed.zone_ids, a[:, None] * K * b)
            swept += 1
            if newton_tried or swept % FURNESS_RATE_WINDOW:
                continue
            if omega > 1.0 and not deviation < window_start:
                # the relaxed window did not lower the deviation: restore its
                # start and sweep plainly, so the next window's rate is plain
                (a, b, row, deviation), omega, relax, swept = saved, 1.0, False, 0
                continue
            needed = _sweeps_needed(window_start, deviation, tol)
            if needed > min(max_iter - k, newton_cost):
                newton_tried, omega = True, 1.0
                trips = _newton_balance(K, O, D, a, b, tol)
                if trips is not None:
                    return ODMatrix(seed.zone_ids, trips)
                continue
            if relax and window_start < np.inf:
                omega = _over_relaxation(window_start, deviation, omega)
            window_start, saved = deviation, (a, b, row, deviation)
    raise FurnessConvergenceError(float(deviation), max_iter)


def newton_step_sweeps(m: int, n: int) -> float:
    """A Newton step's price in sweeps of an m x n seed, by flops: about
    2mn^2 + n^3/3 (2mn^2 of it forming the n x n Schur complement) against
    about 4mn for a plain sweep. The step's numpy.linalg.solve does about
    2n^3/3 flops, yet a step measures below this price (see
    NEWTON_SWITCH_STEPS)."""
    return (2.0 * m * n * n + n**3 / 3.0) / (4.0 * m * n)


def _sweeps_needed(previous: float, deviation: float, tol: float) -> float:
    """Sweeps that take deviation below tol at the contraction rate seen over
    the last window, which began at deviation previous."""
    rate = (deviation / previous) ** (1.0 / FURNESS_RATE_WINDOW)
    if rate >= 1.0:
        return math.inf
    if rate == 0.0:  # the first window, which began at an infinite deviation
        return 0.0
    return math.log(tol / deviation) / math.log(rate)


def _over_relaxation(previous, deviation: float, omega: float) -> float:
    """The relaxation factor 2 / (1 + sqrt(1 - rho)) for the next window.

    rho is the plain sweeps' rate, read by Young's relation (r + omega - 1)^2
    = r omega^2 rho from the rate r seen over the last window, which began at
    deviation previous, under omega (so rho = r at omega = 1). A rate below
    omega - 1, which the relation does not reach, reads as omega - 1 and
    keeps omega."""
    rate = max((deviation / previous) ** (1.0 / FURNESS_RATE_WINDOW), omega - 1.0)
    rho = (rate + omega - 1.0) ** 2 / (rate * omega**2)
    return 2.0 / (1.0 + math.sqrt(max(1.0 - rho, 0.0)))


def _relaxed(previous, plain, omega: float, off):
    """The over-relaxed scale previous * (plain / previous) ** omega, plain
    itself at omega = 1; a row or column without a positive target (off)
    keeps scale 0. Raises FurnessInfeasibleError when a live entry leaves
    float range (is 0 or not finite), which furness_balance answers by
    restoring its saved window."""
    if omega == 1.0:
        return plain
    scale = previous * (plain / (previous + off)) ** omega
    if not (scale.max() < math.inf and (scale + off).min() > 0.0):
        raise FurnessInfeasibleError("an over-relaxed scale left float range")
    return scale


def _newton_balance(K, O, D, a, b, tol):
    """Balance diag(a) @ K @ diag(b) by Newton's method, or return None.

    Works on the log scales u = log a, v = log b of the rows and columns
    with positive targets (the others keep scale 0) and minimises
    sum(K_ij e^(u_i + v_j)) - O.u - D.v with the last v held fixed. A step
    is halved until it lowers the largest relative margin deviation; that
    test, unlike the objective itself, is not lost in rounding near the
    optimum. Returns the balanced matrix once that deviation is within tol,
    None when a step's system is singular, a step or the product is not
    finite, or the halvings or NEWTON_MAX_STEPS run out.
    """
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
    for _ in range(NEWTON_MAX_STEPS):
        if deviation <= tol:
            scale_a, scale_b = np.zeros(O.size), np.zeros(D.size)
            scale_a[rows], scale_b[cols] = np.exp(u), np.exp(v)
            trips = scale_a[:, None] * K * scale_b
            return trips if np.isfinite(trips).all() else None
        try:
            du, dv = _newton_step(P, r, c, o, d)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(du).all() and np.isfinite(dv).all()):
            return None
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            trial = margins(u + step * du, v + step * dv)
            if trial[3] < deviation:
                break
            step /= 2.0
        else:
            return None
        u, v = u + step * du, v + step * dv
        P, r, c, deviation = trial
    return None


def _newton_step(P, r, c, o, d):
    """Newton direction (du, dv) at P = diag(e^u) K diag(e^v), dv[-1] = 0.

    The Hessian is [[diag(r), P], [P^T, diag(c)]]. Eliminating du leaves
    the Schur complement S = diag(c) - P^T diag(1/r) P in dv. Holding the
    last v fixed leaves S minus its last row and column, positive definite
    when the support of P is connected; numpy.linalg.solve raises
    LinAlgError when it is singular.
    """
    g_u, g_v = r - o, c - d
    Q = P / np.sqrt(r)[:, None]
    S = np.diag(c) - Q.T @ Q
    dv = np.append(np.linalg.solve(S[:-1, :-1], (P.T @ (g_u / r) - g_v)[:-1]), 0.0)
    return -(g_u + P @ dv) / r, dv


def _scale(target, sums, off, zone_ids, axis: str, margin: str) -> np.ndarray:
    """Scale factors target / (sums + off). Raises FurnessInfeasibleError
    naming the first zone whose factor is undefined (zero sum, positive
    target) or else not finite (a sum below about 1e-308 of its target)."""
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


def distribute(zones, stratum: DemandStratum, costs: CostMatrix) -> ODMatrix:
    """Per-stratum OD matrix: trip ends -> gravity seed -> Furness balancing,
    in the zone order of costs (a PathSet's skim gives its flow_vector's)."""
    by_id = {z.zone_id: z for z in zones}
    if set(by_id) != set(costs.zone_ids):
        raise ValueError("zone set does not match the cost matrix")
    ordered = [by_id[z] for z in costs.zone_ids]
    ends = generate_trip_ends(ordered, stratum)
    seed = seed_matrix(ends, costs, stratum.beta, stratum.deterrence_kind)
    return furness_balance(seed, ends)
