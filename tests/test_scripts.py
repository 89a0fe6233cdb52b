"""Smoke tests for the experiment scripts in scripts/."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flowfit
from flowfit import network

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def run_script(script, *args):
    # the child process imports the same flowfit as this one, installed or not
    src = str(Path(flowfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_help_exits_zero(script):
    out = run_script(script, "--help")
    assert out.returncode == 0, out.stderr
    assert "usage:" in out.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_script_is_listed_in_readme(script):
    assert f"`{script.name}`" in (ROOT / "README.md").read_text()


def test_toy_instance_regenerates_byte_identical(tmp_path):
    out = run_script(ROOT / "scripts" / "make_toy_instance.py", tmp_path)
    assert out.returncode == 0, out.stderr
    toy = ROOT / "data" / "toy"
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        sorted(p.name for p in toy.iterdir())
    for p in toy.iterdir():
        assert (tmp_path / p.name).read_bytes() == p.read_bytes(), p.name


def test_time_layers_reports_every_row():
    # grid 10x8, where both hand-off betas hand the balance to Newton
    out = run_script(ROOT / "scripts" / "time_layers.py", "--grid", "10x8", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["zones"] == 80
    assert report["machine"]["blas_threads"] == {
        name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    assert report["machine"]["cpu_count"] == os.cpu_count()
    assert report["machine"]["path_workers"] == network.path_workers() >= 1
    rows = report["rows"]
    assert [(r["layer"], r["beta"]) for r in rows] == [
        ("PathSet build (free flow)", None), ("shortest_path_tree (free flow)", None),
        ("_frontier_distances (free flow)", None), ("seed_matrix", 0.08),
        ("furness_balance", 0.08),
        ("furness_balance", 0.3), ("furness_balance", 1.0),
        ("Newton step / sweep", 0.3), ("Newton hand-off", 0.3), ("Newton hand-off", 1.0),
        ("PathSet.flow_vector (free flow)", 0.08), ("one J eval (one-off)", 0.08),
        ("one J eval (one-off, 10x8)", 0.08), ("one J eval (one-off, 10x8)", 1.0),
        ("MSA-5 assign_iterative", 0.08), ("load_model", None),
        *((f"load_model: {part}", None) for part in (
            "spec parse", "zones.csv", "nodes.csv", "links.csv", "counts.csv",
            "network check", "rest")),
        ("criterion-7 split grid", None)]
    # one node per zone, all reached: the skim and the OD slots hold 80 x 80
    # entries, the entering links and the level parents one per tree edge
    assert rows[0]["held_bytes"] == 8 * (2 * 80 * 80 + 2 * 80 * 79)
    for row in rows:
        assert row["outcome"] == "ok"
        assert len(row["runs_s"]) == 1 and row["median_s"] > 0.0
        assert isinstance(row["minor_faults"], int) and row["minor_faults"] >= 0
    for furness in rows[4:7]:
        assert isinstance(furness["sweeps"], int) and furness["sweeps"] > 0
    # beta 0.08 balances in relaxed sweeps; the others hand off at the
    # second window, before any sweep is relaxed
    assert (rows[4]["handed_off"], rows[4]["omega"] > 1.0) == (False, True)
    for furness in rows[5:7]:
        assert (furness["handed_off"], furness["sweeps"], furness["omega"]) == (True, 20, 1.0)
    ratio = rows[7]
    assert ratio["ratio"] == ratio["median_s"] / ratio["sweep_s"] > 0.0
    for handoff in rows[8:10]:
        assert handoff["sweeps_before"] == 20 and handoff["newton_steps"] >= 1
        assert handoff["cost_in_sweeps"] > 0.0
    load = rows[10]
    # one node per zone; a corner's tree reaches the far corner, 9 + 7 hops away
    assert load["entries"] == 80 * 80 and load["levels"] >= 16
    # the criterion-7 instance's J: relaxed sweeps at beta 0.08, a hand-off
    # to Newton at the second window at beta 1.0, as furness_balance alone
    small = rows[12:14]
    assert [(r["handed_off"], r["sweeps"] > 20, r["omega"] > 1.0) for r in small] == [
        (False, True, True), (True, False, False)]
    assert small[1]["sweeps"] == 20
    for row in small:
        assert math.isfinite(row["j"]) and row["j"] > 0.0
        for layer in ("seed_matrix_s", "furness_balance_s", "flow_vector_s"):
            assert row[layer] > 0.0
    # load_model and its parts: each table's data rows, read per second
    loads = {r["layer"]: r for r in rows if r["layer"].startswith("load_model")}
    tables = {"zones.csv": 80, "nodes.csv": 80, "links.csv": report["links"],
              "counts.csv": min(250, loads["load_model: counts.csv"]["rows"])}
    for table, n in tables.items():
        part = loads[f"load_model: {table}"]
        assert part["rows"] == n > 0 and part["rows_per_s"] == n / part["median_s"]
    assert loads["load_model"]["rows"] == sum(tables.values())
    parts = sum(r["runs_s"][0] for layer, r in loads.items()
                if layer not in ("load_model", "load_model: rest"))
    assert loads["load_model: rest"]["runs_s"][0] == pytest.approx(
        loads["load_model"]["runs_s"][0] - parts)
    assert rows[-1]["calibrations"] == 70
