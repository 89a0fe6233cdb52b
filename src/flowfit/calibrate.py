"""Derivative-free calibration of stratum weights (mu, beta) against counts."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .assignment import ASSIGNMENT_MODES, AssignmentOptions, assign
from .demand import (
    RANGES,
    DemandStratum,
    FurnessConvergenceError,
    FurnessInfeasibleError,
    ZoneAttributes,
    check_fields,
    fits_field_type,
    ranged,
    require_unique_names,
)
from .metrics import SplitExperimentResult, geh_objective, split_counts
from .network import Network

# Brackets every plausible mobility / deterrence weight; calibration never
# steps outside these unless the model config overrides them.
DEFAULT_BOUNDS = {"mu": (0.0, 5.0), "beta": (0.0, 1.0)}

CALIBRATION_METHODS = ("nelder_mead", "simulated_annealing")


class ObjectiveError(RuntimeError):
    """Pipeline failure during an objective evaluation, with the weights attached."""


@dataclass(frozen=True)
class AnnealingOptions:
    """simulated_annealing's tuning options, model.yaml's calibration.sa.

    initial_temp None estimates the temperature from probe moves; each
    sweep multiplies it by cooling; restarts adds independent runs; polish
    ends with a Nelder-Mead polish. Ranges are declared on the fields.
    """

    initial_temp: float | None = ranged("null or finite and > 0", None)
    cooling: float = ranged("in (0, 1]", 0.95)
    n_sweeps: int = ranged(">= 0", 100)
    steps_per_sweep: int = ranged(">= 0", 20)
    restarts: int = ranged(">= 0", 1)
    polish: bool = True

    def __post_init__(self):
        check_fields(self)


@dataclass
class CalibrationOptions:
    """calibrate()'s settings, model.yaml's calibration section; ranges are
    declared on the fields. Bounds are stored as tuples, take only
    DEFAULT_BOUNDS' keys, and sa as AnnealingOptions reads the keys given."""

    method: str = ranged(CALIBRATION_METHODS, "nelder_mead")
    seed: int = ranged(">= 0", 0)
    # Nelder-Mead stopping rule: budget, simplex spread, objective spread
    max_evals: int = ranged(">= 1", 2000)
    xatol: float = ranged("finite and >= 0", 1e-6)
    fatol: float = ranged("finite and >= 0", 1e-8)
    # inner-loop assignment during optimization; the final report re-runs
    # the calibrated weights through the configured assignment mode
    assignment_mode: str = ranged(ASSIGNMENT_MODES, "oneoff")
    bounds: dict = field(default_factory=dict)  # param -> [lo, hi]
    bound_overrides: dict = field(default_factory=dict)  # "stratum.param" -> [lo, hi]
    sa: dict = field(default_factory=dict)  # AnnealingOptions' fields

    def __post_init__(self):
        check_fields(self)
        for key in ("bounds", "bound_overrides"):
            pairs = getattr(self, key)
            for name, pair in pairs.items():
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                        and all(fits_field_type(v, "float") for v in pair)):
                    raise TypeError(
                        f"{key}.{name}: expected a list of two numbers, got {pair!r}")
            setattr(self, key, {name: tuple(pair) for name, pair in pairs.items()})
        sa = AnnealingOptions(**self.sa)
        self.sa = {key: getattr(sa, key) for key in self.sa}  # numbers for floats as floats
        unknown = [k for k in self.bounds if k not in DEFAULT_BOUNDS]
        if unknown:
            raise ValueError(
                f"unknown bounds key(s) {unknown}; accepted: {', '.join(DEFAULT_BOUNDS)}")


@dataclass(frozen=True)
class WeightEntry:
    stratum: str
    param: str  # "mu" | "beta"
    value: float
    lower: float
    upper: float


@dataclass(frozen=True)
class WeightVector:
    """Flattened calibration weights: (mu, beta) per stratum, with bounds."""

    entries: tuple[WeightEntry, ...]

    @classmethod
    def from_strata(cls, strata, bounds=None, overrides=None) -> "WeightVector":
        """Pack stratum weights; bounds by parameter name, overridable per
        "<stratum>.<param>" key, which must name a stratum's parameter.
        Strata must have distinct names. Each bound must lie in the range
        declared on DemandStratum's field, so that no point of the box
        fails as a weight, and the weight in its bounds, so lo <= hi."""
        require_unique_names(strata)
        bounds = {**DEFAULT_BOUNDS, **(bounds or {})}
        overrides = overrides or {}
        rules = {f.name: f.metadata.get("range") for f in dataclasses.fields(DemandStratum)}
        entries = []
        for s in strata:
            for param in ("mu", "beta"):
                lo, hi = overrides.get(f"{s.name}.{param}", bounds[param])
                value = getattr(s, param)
                rule = rules[param]
                if not (RANGES[rule](lo) and RANGES[rule](hi)):
                    raise ValueError(f"{s.name}.{param}: bounds must be {rule}, got [{lo}, {hi}]")
                if not lo <= value <= hi:
                    raise ValueError(
                        f"{s.name}.{param} = {value!r} outside bounds [{lo}, {hi}]"
                    )
                entries.append(WeightEntry(s.name, param, value, lo, hi))
        named = {f"{e.stratum}.{e.param}" for e in entries}
        unknown = [key for key in overrides if key not in named]
        if unknown:
            raise ValueError(f"bound_overrides name no stratum parameter: {unknown}")
        return cls(tuple(entries))

    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def lower(self) -> np.ndarray:
        return np.array([e.lower for e in self.entries])

    def upper(self) -> np.ndarray:
        return np.array([e.upper for e in self.entries])

    def with_values(self, x) -> "WeightVector":
        if len(x) != len(self.entries):
            raise ValueError("weight vector length mismatch")
        return WeightVector(tuple(
            dataclasses.replace(e, value=float(v)) for e, v in zip(self.entries, x)
        ))

    def apply(self, strata) -> list[DemandStratum]:
        """New strata with this vector's mu/beta substituted in."""
        updates: dict[str, dict[str, float]] = {}
        for e in self.entries:
            updates.setdefault(e.stratum, {})[e.param] = e.value
        out = []
        for s in strata:
            if s.name not in updates:
                raise ValueError(f"no weights for stratum {s.name!r}")
            out.append(dataclasses.replace(s, **updates[s.name]))
        return out


@dataclass
class OptimizeResult:
    """Raw optimizer output; history rows are (evaluation index, J, weights)."""

    x: np.ndarray
    objective: float
    history: list[tuple[int, float, np.ndarray]]
    n_evaluations: int
    converged: bool


@dataclass
class CalibrationResult:
    best_weights: WeightVector
    best_objective: float
    history: list[tuple[int, float, np.ndarray]]
    n_evaluations: int
    method: str
    converged: bool


class _Recorder:
    """Wraps an objective: logs every evaluation and tracks the running best."""

    def __init__(self, f):
        self.f = f
        self.history: list[tuple[int, float, np.ndarray]] = []
        self.best_x: np.ndarray | None = None
        self.best = math.inf

    @property
    def n(self) -> int:
        return len(self.history)

    def __call__(self, x: np.ndarray) -> float:
        value = float(self.f(x))
        self.history.append((self.n, value, np.array(x)))
        if value < self.best or self.best_x is None:
            self.best = value
            self.best_x = np.array(x)
        return value


def _unpack_bounds(bounds, n: int):
    if bounds is None:
        return np.full(n, -math.inf), np.full(n, math.inf)
    lo, hi = bounds
    lo = np.asarray(lo, dtype=float) * np.ones(n)
    hi = np.asarray(hi, dtype=float) * np.ones(n)
    if (lo > hi).any():
        raise ValueError("lower bound exceeds upper bound")
    return lo, hi


def _nelder_mead_core(rec, x0, lo, hi, xatol, fatol, max_evals):
    """Simplex descent with reflect 1, expand 2, contract 0.5, shrink 0.5.

    Candidate points are clipped to the bounds before evaluation, so the
    search can settle on a boundary.
    """
    n = x0.size

    def clip(x):
        return np.minimum(np.maximum(x, lo), hi)

    x0 = clip(np.asarray(x0, dtype=float))
    simplex = [x0]
    for i in range(n):
        span = hi[i] - lo[i]
        step = 0.05 * span if math.isfinite(span) and span > 0 else 0.05
        vertex = x0.copy()
        vertex[i] += step
        if clip(vertex)[i] == x0[i]:  # x0 sits on the upper bound
            vertex[i] = x0[i] - step
        simplex.append(clip(vertex))
    values = [rec(x) for x in simplex]

    converged = False
    while rec.n < max_evals:
        order = sorted(range(n + 1), key=lambda k: values[k])
        simplex = [simplex[k] for k in order]
        values = [values[k] for k in order]
        spread_x = max(np.abs(x - simplex[0]).max() for x in simplex[1:])
        spread_f = values[-1] - values[0]
        if spread_x < xatol and spread_f < fatol:
            converged = True
            break
        centroid = np.mean(simplex[:-1], axis=0)
        worst = simplex[-1]
        reflected = clip(centroid + (centroid - worst))
        f_r = rec(reflected)
        if f_r < values[0]:
            expanded = clip(centroid + 2.0 * (centroid - worst))
            f_e = rec(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            if f_r < values[-1]:
                contracted = clip(centroid + 0.5 * (reflected - centroid))
            else:
                contracted = clip(centroid + 0.5 * (worst - centroid))
            f_c = rec(contracted)
            if f_c < min(f_r, values[-1]):
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, n + 1):
                    simplex[i] = clip(simplex[0] + 0.5 * (simplex[i] - simplex[0]))
                    values[i] = rec(simplex[i])
    return converged


def nelder_mead(
    f,
    x0,
    bounds=None,
    *,
    xatol: float = CalibrationOptions.xatol,
    fatol: float = CalibrationOptions.fatol,
    max_evals: int = CalibrationOptions.max_evals,
) -> OptimizeResult:
    """Minimize f by the Nelder-Mead simplex method.

    The initial simplex spans x0 plus per-coordinate steps of 5% of the
    bound range (0.05 absolute for unbounded coordinates). Terminates when
    both the simplex spread and the objective spread fall below xatol /
    fatol, or when the evaluation budget is exhausted (converged=False);
    the three take CalibrationOptions' types and ranges. max_evals is
    checked before each simplex step, which evaluates up to n + 2 points
    (n = x0.size), so a run can end up to n + 1 evaluations past it, and
    its best point may be one of those.
    """
    CalibrationOptions(xatol=xatol, fatol=fatol, max_evals=max_evals)
    x0 = np.asarray(x0, dtype=float)
    lo, hi = _unpack_bounds(bounds, x0.size)
    rec = _Recorder(f)
    converged = _nelder_mead_core(rec, x0, lo, hi, xatol, fatol, max_evals)
    return OptimizeResult(rec.best_x, rec.best, rec.history, rec.n, converged)


def _estimate_temperature(rec, x, fx, lo, hi, rng):
    """Initial temperature such that ~80% of 20 probe uphill moves are accepted.

    Moves to or from a non-finite value are left out of the estimate.
    """
    span = hi - lo
    uphill = []
    cur_x, cur_f = x, fx
    for _ in range(20):
        cand = np.clip(cur_x + rng.uniform(-1.0, 1.0, size=x.size) * span * 0.5, lo, hi)
        f_c = rec(cand)
        if f_c > cur_f and math.isfinite(f_c - cur_f):
            uphill.append(f_c - cur_f)
        cur_x, cur_f = cand, f_c
    if not uphill:
        return 1.0
    return float(np.mean(uphill) / math.log(1.0 / 0.8))


def simulated_annealing(f, bounds, seed: int = 0, *, x0=None, **options) -> OptimizeResult:
    """Metropolis search with geometric cooling and a Nelder-Mead polish.

    options are AnnealingOptions' fields. Proposal steps are uniform
    perturbations scaled by the bound range and the current temperature
    fraction. The first run starts from x0 when given, each restart from a
    random in-bounds point. Fully reproducible for a fixed seed, which must
    be one CalibrationOptions accepts. Bad options fail before the first
    evaluation.
    """
    opts = AnnealingOptions(**options)
    CalibrationOptions(seed=seed)  # the seed's range rule
    lo, hi = bounds
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()) or (lo > hi).any():
        raise ValueError("simulated annealing requires finite, ordered bounds")
    n = lo.size
    span = hi - lo
    rec = _Recorder(f)
    temp0 = opts.initial_temp
    for run in range(opts.restarts + 1):
        rng = np.random.default_rng([seed, run])
        if run == 0 and x0 is not None:
            x = np.clip(np.asarray(x0, dtype=float), lo, hi)
        else:
            x = lo + rng.uniform(size=n) * span
        fx = rec(x)
        if temp0 is None:
            temp0 = _estimate_temperature(rec, x, fx, lo, hi, rng)
        temp = temp0
        for _ in range(opts.n_sweeps):
            scale = span * max(temp / temp0, 0.01) * 0.5
            for _ in range(opts.steps_per_sweep):
                cand = np.clip(x + rng.uniform(-1.0, 1.0, size=n) * scale, lo, hi)
                f_c = rec(cand)
                delta = f_c - fx
                if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-300)):
                    x, fx = cand, f_c
            temp *= opts.cooling
    if opts.polish:
        _nelder_mead_core(rec, rec.best_x, lo, hi, 1e-8, 1e-10,
                          rec.n + 200 * max(n, 2))
    return OptimizeResult(rec.best_x, rec.best, rec.history, rec.n, True)


class ModelObjective:
    """J(weights): mean GEH between assigned and observed daily flows.

    Each evaluation is one assignment.assign in assignment_mode, with n_outer
    and gap_tol (AssignmentOptions' fields, checked at construction), started
    from network.free_flow_paths: one-off mode is then one load_strata
    (gravity distribution plus one push of the trips up the shortest-path
    trees per stratum), and iterative mode builds a path set only for
    iterations 2 and on. The total flows at the counted links are scored
    with metrics.geh_objective, as evaluate does. Construction touches
    network.free_flow_paths, so disconnected zones fail there, then reads
    each stratum's production and attraction vectors once, in its zone
    order, into the demand.ZoneAttributes every evaluation passes to assign
    in place of the zones: a zone set that differs from the network's, or a
    stratum whose production or attraction is zero on every zone
    (DegenerateStratumError), fails there, and no evaluation reads a zone's
    attributes again.

    A Furness balance that fails (FurnessConvergenceError or
    FurnessInfeasibleError) scores J = +inf, which the optimizers rank
    worst, and is counted in furness_failures; any other pipeline error
    raises ObjectiveError with the weights attached.
    """

    def __init__(
        self,
        zones,
        network: Network,
        strata,
        counts,
        *,
        assignment_mode: str = "oneoff",
        n_outer: int = AssignmentOptions.n_outer,
        gap_tol: float = AssignmentOptions.gap_tol,
        bounds=None,
        bound_overrides=None,
    ):
        if not counts:
            raise ValueError("no traffic counts: objective undefined")
        self.zones = zones
        self.network = network
        self.strata = list(strata)
        self.counts = list(counts)
        opts = AssignmentOptions(mode=assignment_mode, n_outer=n_outer, gap_tol=gap_tol)
        self._settings = dataclasses.asdict(opts)  # assign's keywords
        self.template = WeightVector.from_strata(self.strata, bounds, bound_overrides)
        for c in self.counts:
            if c.link_id not in network.links:
                raise ValueError(f"count references unknown link {c.link_id!r}")
        self._observed = np.array([c.observed for c in self.counts])
        self.furness_failures = 0
        # network.free_flow_paths is built here: where disconnected zones fail
        self._zones = ZoneAttributes(zones, network.free_flow_paths.zone_ids)
        for s in self.strata:
            self._zones.vectors(s)
        self._count_idx = np.array([network.link_index[c.link_id] for c in self.counts])

    def __call__(self, x) -> float:
        weights = self.template.with_values(x)
        try:
            result = assign(self.network, self._zones, weights.apply(self.strata), **self._settings)
            return geh_objective(result.total[self._count_idx], self._observed)[0]
        except (FurnessConvergenceError, FurnessInfeasibleError):
            self.furness_failures += 1
            return math.inf
        except Exception as exc:
            detail = ", ".join(
                f"{e.stratum}.{e.param}={e.value:g}" for e in weights.entries
            )
            raise ObjectiveError(f"objective failed at {detail}: {exc}") from exc


def calibrate(
    zones,
    network: Network,
    strata,
    counts,
    *,
    n_outer: int = AssignmentOptions.n_outer,
    gap_tol: float = AssignmentOptions.gap_tol,
    **settings,
) -> CalibrationResult:
    """Minimize the mean-GEH objective over all stratum weights.

    settings are CalibrationOptions' fields; n_outer and gap_tol set the
    inner-loop assignment. The initial weights are taken from the strata
    themselves and are always part of the search, so the result can never
    be worse than the input.
    """
    if not strata:
        raise ValueError("at least one stratum is required")
    opts = CalibrationOptions(**settings)
    objective = ModelObjective(
        zones, network, strata, counts,
        assignment_mode=opts.assignment_mode, n_outer=n_outer, gap_tol=gap_tol,
        bounds=opts.bounds, bound_overrides=opts.bound_overrides,
    )
    template = objective.template
    box = (template.lower(), template.upper())
    if opts.method == "nelder_mead":
        res = nelder_mead(
            objective, template.values(), box,
            xatol=opts.xatol, fatol=opts.fatol, max_evals=opts.max_evals,
        )
    else:
        res = simulated_annealing(objective, box, opts.seed, x0=template.values(), **opts.sa)
    return CalibrationResult(
        best_weights=template.with_values(res.x),
        best_objective=res.objective,
        history=res.history,
        n_evaluations=res.n_evaluations,
        method=opts.method,
        converged=res.converged,
    )


def split_test(
    zones,
    network: Network,
    strata,
    counts,
    *,
    fractions,
    seeds,
    n_outer: int = AssignmentOptions.n_outer,
    gap_tol: float = AssignmentOptions.gap_tol,
    **settings,
) -> list[SplitExperimentResult]:
    """Train/test robustness grid: calibrate on a count subset, score both sides.

    settings are CalibrationOptions' fields but seed: each cell calibrates
    with its own seed. Results are ordered by (fraction, seed). A cell's
    train score is its calibrated J, its test score the J of a
    ModelObjective over its test counts at the calibrated weights, under the
    same assignment (mode, n_outer, gap_tol); a cell whose best J is +inf
    reports a test J of +inf, without raising.
    """
    opts = CalibrationOptions(**settings)
    results = []
    for fraction in fractions:
        for seed in seeds:
            train, test = split_counts(counts, fraction, seed)
            res = calibrate(zones, network, strata, train, seed=seed,
                            n_outer=n_outer, gap_tol=gap_tol, **settings)
            test_j = ModelObjective(zones, network, strata, test, n_outer=n_outer,
                                    gap_tol=gap_tol, assignment_mode=opts.assignment_mode,
                                    bounds=opts.bounds, bound_overrides=opts.bound_overrides)
            results.append(SplitExperimentResult(
                split_fraction=fraction,
                seed=seed,
                train_geh=res.best_objective,
                test_geh=test_j(res.best_weights.values()),
            ))
    return results
