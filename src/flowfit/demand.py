"""Demand strata, trip-end generation, and doubly-constrained gravity distribution."""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, field, fields

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


# a settings field's annotation -> the value types it accepts
_REAL = (float, int, np.floating, np.integer)
FIELD_TYPES = {"str": (str,), "int": (int, np.integer), "float": _REAL, "bool": (bool,),
               "float | None": (*_REAL, type(None)), "dict": (dict,)}

# a settings field's range -> its test, which NaN fails
RANGES = {
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "finite and >= 0": lambda v: 0 <= v < math.inf,
    "finite and > 0": lambda v: 0 < v < math.inf,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "null or finite and > 0": lambda v: v is None or 0 < v < math.inf,
}


def ranged(rule, default=MISSING):
    """A settings field that check_fields holds to rule: a RANGES key, or
    the tuple of the values allowed."""
    return field(default=default, metadata={"range": rule})


def fits_field_type(value, annotation: str) -> bool:
    """Whether value fits a field annotated annotation, a FIELD_TYPES key; a
    bool stands for no number."""
    return isinstance(value, FIELD_TYPES[annotation]) and (
        annotation == "bool" or not isinstance(value, bool))


def check_fields(options) -> None:
    """Hold the settings dataclass options to its fields, the one type and
    range check of every settings class. Raise TypeError naming the first
    field whose value does not fit its annotation (a number for a float
    field becomes a float), then ValueError naming the first, in field
    order, outside the range declared on it with ranged: "<field> must be
    <range>, got <value>"."""
    declared = fields(options)
    for f in declared:
        value = getattr(options, f.name)
        if not fits_field_type(value, f.type):
            raise TypeError(f"{f.name}: expected {f.type}, got {value!r}")
        if type(value) is not float and f.type.startswith("float") and value is not None:
            object.__setattr__(options, f.name, float(value))  # frozen classes too
    for f in declared:
        rule, value = f.metadata.get("range"), getattr(options, f.name)
        if isinstance(rule, tuple) and value not in rule:
            raise ValueError(f"{f.name} must be one of {rule}, got {value!r}")
        if isinstance(rule, str) and not RANGES[rule](value):
            raise ValueError(f"{f.name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class DemandStratum:
    """One trip-generating production/attraction attribute pair.

    mu is the mobility (person-trips per person per 24h), converted to
    vehicle trips via occupancy; beta weights the deterrence function.
    """

    name: str
    production_attr: str
    attraction_attr: str
    mu: float = ranged("finite and >= 0")
    beta: float = ranged("finite and >= 0")
    deterrence_kind: str = ranged(DETERRENCE_KINDS, "exponential")
    occupancy: float = ranged("finite and > 0", 1.0)

    def __post_init__(self):
        check_fields(self)


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


class ZoneAttributes:
    """Zones in the order zone_ids, or their own, and the one reader of their
    attributes: each stratum's production and attraction vectors are read
    once and kept by attribute pair (calibration changes only mu and beta).
    distribute and load_strata take one in their skim's zone order, which
    assign_iterative and ModelObjective make from a list of Zone."""

    def __init__(self, zones, zone_ids=None):
        by_id = {z.zone_id: z for z in zones}
        if zone_ids is not None and set(by_id) != set(zone_ids):
            raise ValueError("zone set does not match the cost matrix")
        self.zone_ids = tuple(by_id if zone_ids is None else zone_ids)
        self._zones = [by_id[z] for z in self.zone_ids]
        self._vectors = {}

    def vectors(self, stratum: DemandStratum) -> tuple[np.ndarray, np.ndarray]:
        """stratum's production and attraction vectors, a missing attribute
        counting 0. Raises ValueError naming the first zone whose attribute
        is not finite and >= 0, production first, then DegenerateStratumError
        when either is zero on every zone: no trips to spread."""
        key = stratum.production_attr, stratum.attraction_attr
        if key not in self._vectors:
            vecs = tuple(np.array([z.attributes.get(name, 0.0) for z in self._zones], dtype=float)
                         for name in key)
            for name, vec in zip(key, vecs):
                ok = (vec >= 0) & (vec < math.inf)
                if not ok.all():
                    k = int(np.argmin(ok))
                    raise ValueError(f"attribute {name!r} on zone {self.zone_ids[k]!r} "
                                     f"must be finite and >= 0, got {float(vec[k])!r}")
            for role, name, vec in zip(("production", "attraction"), key, vecs):
                if vec.sum() == 0:
                    raise DegenerateStratumError(
                        f"stratum {stratum.name!r}: {role} attribute {name!r} is zero on every zone")
            self._vectors[key] = vecs
        return self._vectors[key]

    def trip_ends(self, stratum: DemandStratum) -> TripEnds:
        """stratum's vehicle trip ends: origins mu * prod / occupancy,
        destinations attr * (total / sum(attr)), or attr / sum(attr) * total
        where that factor is not finite (a subnormal attraction sum)."""
        prod, attr = self.vectors(stratum)
        origins = stratum.mu * prod / stratum.occupancy
        total = origins.sum()
        if total == 0.0:
            logger.warning("stratum %r generates no trips (mu = %g)", stratum.name, stratum.mu)
        factor = float(total) / float(attr.sum())  # a float overflows to inf quietly
        if math.isfinite(factor):
            return TripEnds(origins, attr * factor)
        return TripEnds(origins, attr / attr.sum() * total)


def require_zone_order(zones, zone_ids) -> None:
    """TypeError unless zones is a ZoneAttributes, ValueError unless in the order zone_ids."""
    if not isinstance(zones, ZoneAttributes):
        raise TypeError(f"zones: expected a ZoneAttributes, got {type(zones).__name__}")
    if zones.zone_ids != tuple(zone_ids):
        raise ValueError("zone order does not match the cost matrix")


def deterrence(cost, beta: float, kind: str):
    """Gravity-model cost penalty f(c); trips between zones scale as 1/f(c).

    exponential: f(c) = exp(beta * c); power: f(c) = c ** beta with the
    cost clamped below by COST_FLOOR. Accepts scalars or arrays; an array
    result is one new buffer, computed in place. For both kinds f(c; -beta)
    is 1 / f(c; beta), the form seed_matrix multiplies by; exp(-beta * c)
    is a positive subnormal where beta * c lies between about 709.8 and 745,
    where exp(beta * c) overflows and its reciprocal reads 0.
    """
    c = np.asarray(cost, dtype=float)
    if c.min(initial=0.0) < 0:
        raise ValueError("deterrence cost must be >= 0")
    out = np.empty(c.shape)
    if kind == "exponential":
        np.exp(np.multiply(c, beta, out=out), out=out)
    elif kind == "power":
        np.power(np.maximum(c, COST_FLOOR, out=out), beta, out=out)
    else:
        raise ValueError(f"unknown deterrence kind {kind!r}")
    return float(out) if out.ndim == 0 else out


def seed_matrix(ends: TripEnds, costs: CostMatrix, beta: float, kind: str) -> ODMatrix:
    """Unbalanced gravity seed S_ij = O_i * D_j / f(C_ij), diagonal included,
    formed in one row-major buffer as O_i * D_j * f(C_ij; -beta)."""
    n = len(costs.zone_ids)
    if ends.origins.shape != (n,) or ends.destinations.shape != (n,):
        raise ValueError(
            f"trip ends ({ends.origins.shape[0]} zones) do not match "
            f"cost matrix ({n} zones)"
        )
    trips = deterrence(costs.values, -beta, kind)
    trips *= ends.origins[:, None]
    trips *= ends.destinations
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
    once, on convergence, in place in one new buffer. The buffers are made
    once per balance: a and b are views of one stacked vector, row and col
    of two more taken in turn, and each half-sweep, relaxed scale and
    margin deviation is written into them. A sweep checks its scales once,
    through its deviation, and diagnoses one that is not finite only then.
    tol bounds the
    maximum relative deviation of row sums from origins and column sums
    from destinations; a negative or NaN tol raises ValueError. A trip end
    that is negative or not finite raises FurnessInfeasibleError naming its
    zone, origins first, before any sweep.

    Every FURNESS_RATE_WINDOW sweeps the deviation's contraction rate rho
    over the window projects the sweeps still needed, log(tol / dev) /
    log(rho), or infinitely many when rho >= 1 or tol is 0. Once that
    exceeds the sweeps left, or the price of NEWTON_SWITCH_STEPS = 2 Newton
    steps, the balance switches to Newton's method on the log scale
    vectors (Knight & Ruiz 2013), which stops at the same tol test. A step
    is priced by its
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
    if not tol >= 0:  # NaN too
        raise ValueError(f"tol must be >= 0, got {tol!r}")
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

    m = O.size
    OD = np.concatenate((O, D))
    div = np.where(OD > 0, OD, 1.0)
    # a row (column) without a positive target scales by 0 / (sum + 1) = 0,
    # so the divisor is never 0 there, even where the seed's sum is
    num, off = np.where(OD > 0, OD, 0.0), 1.0 * (OD <= 0)
    o_num, d_num, o_off, d_off = num[:m], num[m:], off[:m], off[m:]
    # the scales [a, b] and two sums buffers [row, col], where a * row and
    # b * col are the margins of diag(a) @ K @ diag(b): sweep k scales the
    # rows by the row sums in sums[(k - 1) % 2] and writes its own into
    # sums[k % 2], so a scale that is not finite, which the deviation
    # shows, is diagnosed from the sums that gave it. work holds a relaxed
    # sweep's plain scales, then the deviation.
    scales, work = np.ones(OD.size), np.empty(OD.size)
    a, b = scales[:m], scales[m:]
    sums = [(both, both[:m], both[m:]) for both in np.empty((2, OD.size))]
    np.matmul(K, b, out=sums[0][1])
    deviation = window_start = np.inf
    newton_cost = NEWTON_SWITCH_STEPS * newton_step_sweeps(*K.shape)
    newton_tried = False
    omega, relax, swept, saved = 1.0, True, 0, None
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            row, (both, next_row, col) = sums[(k - 1) % 2][1], sums[k % 2]
            _relaxed(a, _scale(o_num, row, o_off, a if omega == 1.0 else work[:m]),
                     omega, o_off)
            np.matmul(a, K, out=col)
            _relaxed(b, _scale(d_num, col, d_off, b if omega == 1.0 else work[m:]),
                     omega, d_off)
            # a relaxed scale that fell to 0 on a row or column with a target
            dropped = omega != 1.0 and not np.add(scales, off, out=work).min() > 0.0
            np.matmul(K, b, out=next_row)
            np.multiply(scales, both, out=work)
            work -= OD
            np.abs(work, out=work)
            work /= div
            deviation = np.maximum.reduce(work)
            if not deviation < math.inf:  # a scale, or a margin, left float range
                error = (_infeasible(a, row, o_off, seed.zone_ids, "row", "origin")
                         or _infeasible(b, col, d_off, seed.zone_ids, "column", "destination"))
                if error is not None and omega == 1.0:
                    raise error
                dropped = dropped or error is not None
                deviation = max(work[:m].max(), work[m:].max())
            if deviation <= tol and not dropped:
                return ODMatrix(seed.zone_ids, _balanced(K, a, b))
            swept += 1
            if not dropped and (newton_tried or swept % FURNESS_RATE_WINDOW):
                continue
            if dropped or omega > 1.0 and not deviation < window_start:
                # a relaxed scale left float range, a sum under it fell too
                # small to scale, or the relaxed window did not lower the
                # deviation: back to the saved window, sweeping plainly, so
                # the next window's rate is plain
                (scales[:], next_row[:], deviation), omega, relax, swept = saved, 1.0, False, 0
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
            window_start, saved = deviation, (scales.copy(), next_row.copy(), deviation)
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
    if tol == 0.0:  # no rate below 1 reaches a deviation of exactly 0
        return math.inf
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
    """Write the over-relaxed scale previous * (plain / previous) ** omega
    into previous and return it, plain itself at omega = 1; a row or column
    without a positive target (off) keeps scale 0. plain is overwritten.
    furness_balance checks once a sweep, for both scales, that no entry left
    float range (is 0 where a target is positive, or not finite)."""
    if omega == 1.0:
        if plain is not previous:
            previous[:] = plain
        return previous
    np.divide(plain, previous + off, out=plain)
    plain **= omega
    previous *= plain
    return previous


def _balanced(K, a, b):
    """diag(a) @ K @ diag(b), formed in one buffer: bitwise a[:, None] * K * b."""
    trips = np.multiply(K, a[:, None])
    trips *= b
    return trips


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
        # in C order, as the sums' rounding depends on the layout
        log_k = np.log(K.compress(rows, axis=0).compress(cols, axis=1))
    u, v = np.log(a[rows]), np.log(b[cols])

    def margins(u, v):
        P = np.add(u[:, None], log_k)
        P += v
        np.exp(P, out=P)
        r, c = P.sum(axis=1), P.sum(axis=0)
        return P, r, c, max((np.abs(r - o) / o).max(), (np.abs(c - d) / d).max())

    P, r, c, deviation = margins(u, v)
    for _ in range(NEWTON_MAX_STEPS):
        if deviation <= tol:
            scale_a, scale_b = np.zeros(O.size), np.zeros(D.size)
            scale_a[rows], scale_b[cols] = np.exp(u), np.exp(v)
            trips = _balanced(K, scale_a, scale_b)
            return trips if np.isfinite(trips).all() else None
        try:
            du, dv = _newton_step(P, r, c, o, d)
        except np.linalg.LinAlgError:
            return None
        if not (np.isfinite(du).all() and np.isfinite(dv).all()):
            return None
        step = 1.0
        for _ in range(NEWTON_MAX_HALVINGS):
            trial_u, trial_v = u + step * du, v + step * dv
            trial = margins(trial_u, trial_v)
            if trial[3] < deviation:
                break
            step /= 2.0
        else:
            return None
        u, v = trial_u, trial_v
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
    S = np.diag(c)
    S -= Q.T @ Q
    dv = np.append(np.linalg.solve(S[:-1, :-1], (P.T @ (g_u / r) - g_v)[:-1]), 0.0)
    return -(g_u + P @ dv) / r, dv


def _scale(target, sums, off, out) -> np.ndarray:
    """Scale factors target / (sums + off), written into out."""
    return np.divide(target, np.add(sums, off, out=out), out=out)


def _infeasible(scale, sums, off, zone_ids, axis: str, margin: str):
    """None when every factor of scale, from sums, is finite; else the
    FurnessInfeasibleError naming the first zone whose factor is undefined
    (zero sum, positive target) or else not finite (a sum below about
    1e-308 of its target)."""
    if math.isfinite(scale.max()):
        return None
    zero = (off == 0) & (sums <= 0)
    if zero.any():
        return FurnessInfeasibleError(
            f"zero seed {axis} for zone {zone_ids[int(np.argmax(zero))]!r} "
            f"with positive {margin} target"
        )
    return FurnessInfeasibleError(
        f"{axis} scale for zone {zone_ids[int(np.argmax(~np.isfinite(scale)))]!r} "
        f"is not finite: the seed {axis} is too small for its {margin} target"
    )


def distribute(zones: ZoneAttributes, stratum: DemandStratum, costs: CostMatrix) -> ODMatrix:
    """Per-stratum OD matrix: trip ends -> gravity seed -> Furness balancing,
    in the zone order of costs (a PathSet's skim gives its flow_vector's),
    which zones must share."""
    require_zone_order(zones, costs.zone_ids)
    ends = zones.trip_ends(stratum)
    seed = seed_matrix(ends, costs, stratum.beta, stratum.deterrence_kind)
    return furness_balance(seed, ends)
