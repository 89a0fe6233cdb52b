"""Command-line entry points: validate, assign, evaluate, calibrate, split-test, compare."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .assignment import assign
from .calibrate import CALIBRATION_METHODS, CalibrationOptions, calibrate, split_test
from .metrics import evaluate, report_text, split_summary_text
from .model_io import (
    LoadedModel,
    ModelLoadError,
    apply_scenario,
    load_model,
    load_scenario,
    write_compare_csv,
    write_flows_csv,
    write_history_csv,
    write_scatter_csv,
    write_split_csv,
    write_weights_yaml,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_RUNTIME = 4

log = logging.getLogger("flowfit")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _run_assignment(model: LoadedModel, strata=None, network=None):
    return assign(network or model.network, model.zones, strata or model.strata,
                  **dataclasses.asdict(model.assignment))


def _calibrate_keywords(model: LoadedModel, method: str | None) -> dict:
    """calibrate()'s keywords, shared by calibrate and split-test: the spec's
    calibration options, with method when given, and the configured
    assignment's n_outer and gap_tol."""
    return dict(dataclasses.asdict(model.calibration), method=method or model.calibration.method,
                n_outer=model.assignment.n_outer, gap_tol=model.assignment.gap_tol)


def cmd_validate(args) -> int:
    try:
        model = load_model(args.spec)
    except ModelLoadError as exc:
        print(exc)
        return EXIT_PARSE if exc.stage == "parse" else EXIT_VALIDATION
    print(
        f"OK: {len(model.zones)} zones, {len(model.network.links)} links, "
        f"{len(model.counts)} counts, {len(model.strata)} strata"
    )
    return EXIT_OK


def cmd_assign(args) -> int:
    model = load_model(args.spec)
    result = _run_assignment(model)
    out = _outdir(args)
    write_flows_csv(out / "flows.csv", result)
    print(
        f"assigned {len(model.strata)} strata in {result.iterations} iteration(s), "
        f"relative gap {result.relative_gap:.3e}, converged={result.converged}"
    )
    print(f"wrote {out / 'flows.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model = load_model(args.spec)
    result = _run_assignment(model)
    report = evaluate(result.flows, model.counts)
    out = _outdir(args)
    write_scatter_csv(out / "scatter.csv", report)
    text = report_text(report)
    (out / "report.txt").write_text(text + "\n")
    print(text)
    print(f"wrote {out / 'scatter.csv'} and {out / 'report.txt'}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    model = load_model(args.spec)
    settings = _calibrate_keywords(model, args.method)
    if args.seed is not None:
        settings["seed"] = args.seed
    result = calibrate(model.zones, model.network, model.strata, model.counts, **settings)
    best_strata = result.best_weights.apply(model.strata)
    out = _outdir(args)
    write_history_csv(out / "history.csv", result)
    write_weights_yaml(out / "calibrated_weights.yaml", best_strata)

    initial_j = result.history[0][1]
    print(f"method: {result.method}  seed: {settings['seed']}  evaluations: {result.n_evaluations}")
    print(f"objective J: {initial_j:.4f} -> {result.best_objective:.4f} "
          f"(converged={result.converged})")
    for e in result.best_weights.entries:
        print(f"  {e.stratum}.{e.param} = {e.value:.6g}")
    # the inner loop ran in opts.assignment_mode; re-score the calibrated
    # weights under the configured (possibly iterative) assignment
    final = _run_assignment(model, best_strata)
    final_report = evaluate(final.flows, model.counts)
    print(f"J at calibrated weights under {model.assignment.mode} assignment: "
          f"{final_report.objective_j:.4f} "
          f"(share GEH<5: {100 * final_report.share_geh_below_5:.1f}%)")
    print(f"wrote {out / 'history.csv'} and {out / 'calibrated_weights.yaml'}")
    return EXIT_OK


def _parse_fractions(raw: str) -> list[float]:
    """"0.3..0.9" expands in steps of 0.1 and must span a whole number of
    them; otherwise a comma list like "0.3,0.5". Every fraction must lie
    strictly between 0 and 1."""
    raw = raw.strip()
    if ".." in raw:
        lo_s, hi_s = raw.split("..", 1)
        lo, hi = float(lo_s), float(hi_s)
        # ends outside (0, 1) or reversed: no steps, so no fractions
        steps = (hi - lo) / 0.1 if 0.0 < lo <= hi < 1.0 else -1.0
        if abs(steps - round(steps)) > 1e-9:
            raise argparse.ArgumentTypeError(
                f"bad fractions {raw!r}: a range must span whole steps of 0.1")
        fractions = [round(lo + 0.1 * k, 10) for k in range(round(steps) + 1)]
    else:
        fractions = [float(tok) for tok in raw.split(",") if tok.strip()]
    if not fractions or not all(0.0 < f < 1.0 for f in fractions):
        raise argparse.ArgumentTypeError(
            f"bad fractions {raw!r}: need a range or list within (0, 1)")
    return fractions


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw!r}")
    return value


def _seed(raw: str) -> int:
    """--seed: an integer that CalibrationOptions accepts as a seed."""
    seed = int(raw)
    try:
        CalibrationOptions(seed=seed)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return seed


def cmd_split_test(args) -> int:
    model = load_model(args.spec)
    settings = _calibrate_keywords(model, args.method)
    del settings["seed"]  # each cell calibrates with its own seed
    results = split_test(model.zones, model.network, model.strata, model.counts,
                         fractions=args.fractions, seeds=list(range(args.seeds)), **settings)
    out = _outdir(args)
    write_split_csv(out / "split_test.csv", results)
    print(split_summary_text(results))
    print(f"wrote {out / 'split_test.csv'} ({len(results)} rows)")
    return EXIT_OK


def cmd_compare(args) -> int:
    model = load_model(args.spec)
    scenario = load_scenario(args.scenario)
    edited = apply_scenario(model.network, scenario)
    # the base runs on a copy of the network, so its free-flow path set is
    # freed before the edited network builds its own
    base = _run_assignment(model, network=dataclasses.replace(model.network))
    changed = _run_assignment(model, network=edited)
    out = _outdir(args)
    deltas = write_compare_csv(out / "compare.csv", base.flows, changed.flows)
    top = sorted(deltas.items(), key=lambda kv: (-abs(kv[1]), kv[0]))[:10]
    print(f"scenario {scenario.name!r}: {len(scenario.edits)} edit(s)")
    print(f"{'link':<20} {'delta veh/24h':>14}")
    for lid, delta in top:
        print(f"{lid:<20} {delta:>14.1f}")
    print(f"wrote {out / 'compare.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowfit",
        description="Macroscopic traffic model: build flows from zonal "
                    "attributes and calibrate stratum weights against counts.",
    )
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log pipeline warnings and progress")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model spec and its data files")
    p.add_argument("spec", help="path to model.yaml")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("assign", help="assign flows and write flows.csv")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.set_defaults(func=cmd_assign)

    p = sub.add_parser("evaluate", help="score assigned flows against counts")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("calibrate", help="learn stratum weights from counts")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--method", choices=CALIBRATION_METHODS,
                   help="override the configured optimizer")
    p.add_argument("--seed", type=_seed, help="override the configured seed (>= 0)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("split-test",
                       help="train/test robustness grid over count splits")
    p.add_argument("spec")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--fractions", type=_parse_fractions, default="0.3..0.9",
                   help='range "0.3..0.9" (whole steps of 0.1) or comma list '
                        '(default: %(default)s)')
    p.add_argument("--seeds", type=_positive_int, default=10,
                   help="number of random seeds 0..N-1 (default: %(default)s)")
    p.add_argument("--method", choices=CALIBRATION_METHODS)
    p.set_defaults(func=cmd_split_test)

    p = sub.add_parser("compare",
                       help="flow deltas between the base network and a scenario")
    p.add_argument("spec")
    p.add_argument("scenario", help="path to a scenario YAML")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ModelLoadError as exc:
        print(exc, file=sys.stderr)
        return EXIT_PARSE if exc.stage == "parse" else EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - map to the runtime exit class
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
