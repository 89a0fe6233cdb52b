#!/usr/bin/env python3
"""Digest every Furness balance that a flowfit command runs on model specs.

For each model spec, runs `flowfit calibrate SPEC` or `flowfit assign SPEC`
(output to a temporary directory) with demand.furness_balance wrapped, and
prints one JSON line per spec: the number of balances, how many raised, and
a SHA-256 over the bytes of every balanced matrix (or the error's class
name) in call order. Equal digests from two versions of flowfit mean their
balances were bitwise equal on that run.

    PYTHONPATH=src python scripts/furness_digest.py calibrate model_a/model.yaml model_b/model.yaml
"""

import argparse
import contextlib
import hashlib
import io
import json
import tempfile

from flowfit import demand
from flowfit.cli import main as flowfit_main


def digest(command: str, spec: str) -> dict:
    balance = demand.furness_balance
    sha, calls, failed = hashlib.sha256(), 0, 0

    def recorded(*args, **kwargs):
        nonlocal calls, failed
        calls += 1
        try:
            out = balance(*args, **kwargs)
        except Exception as exc:
            failed += 1
            sha.update(type(exc).__name__.encode())
            raise
        sha.update(out.trips.tobytes())
        return out

    demand.furness_balance = recorded
    try:
        with tempfile.TemporaryDirectory() as out, \
                contextlib.redirect_stdout(io.StringIO()):
            code = flowfit_main([command, spec, "-o", out])
    finally:
        demand.furness_balance = balance
    return {"spec": spec, "exit": code, "balances": calls, "raised": failed,
            "sha256": sha.hexdigest()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=["calibrate", "assign"])
    parser.add_argument("specs", nargs="+", help="model.yaml paths")
    args = parser.parse_args()
    for spec in args.specs:
        print(json.dumps(digest(args.command, spec)), flush=True)


if __name__ == "__main__":
    main()
