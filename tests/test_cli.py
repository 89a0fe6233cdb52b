import csv
import dataclasses
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import flowfit
from flowfit.assignment import PathSet, assign
from flowfit.calibrate import calibrate, split_test
from flowfit.cli import main
from flowfit.demand import DemandStratum, Zone, derive_jobs
from flowfit.metrics import TrafficCount, evaluate, split_counts
from flowfit.model_io import AssignmentOptions, CalibrationOptions, load_model, write_model
from flowfit.network import Link, Network, Node
from flowfit.sample_models import eight_zone_star, synthetic_counts, toy_strata

from test_calibrate import count_path_sets


@pytest.fixture
def toy_spec(tmp_path):
    zones, net = eight_zone_star()
    counts = synthetic_counts(zones, net, toy_strata(0.7, 0.074))
    model_dir = tmp_path / "model"
    write_model(model_dir, zones, net, counts, toy_strata(1.5, 0.1),
                AssignmentOptions(mode="oneoff"),
                CalibrationOptions(max_evals=400))
    return model_dir / "model.yaml"


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "name: faster_ring\n"
        "edits:\n"
        "- action: modify_link\n"
        "  link_id: n2_n3\n"
        "  t0_min: 4.0\n"
        "- action: modify_link\n"
        "  link_id: n3_n2\n"
        "  t0_min: 4.0\n"
    )
    return path


TOY = Path(__file__).resolve().parents[1] / "data" / "toy"
# model.yaml's option sections and the classes that read them
SECTIONS = {"assignment": AssignmentOptions, "calibration": CalibrationOptions}


@pytest.fixture
def data_toy(tmp_path):
    """A copy of the shipped data/toy model."""
    return Path(shutil.copytree(TOY, tmp_path / "toy"))


def set_cell(path, row_id, column, value):
    """Write value into the column of the row whose first cell is row_id;
    returns that row's line number."""
    rows = path.read_text().splitlines()
    column = rows[0].split(",").index(column)
    (k,) = [k for k, row in enumerate(rows) if row.split(",")[0] == row_id]
    cells = rows[k].split(",")
    cells[column] = value
    rows[k] = ",".join(cells)
    path.write_text("\n".join(rows) + "\n")
    return k + 1


def run_cli(*args):
    """flowfit's CLI in a child process, which imports the same flowfit as
    this one, installed or not."""
    src = str(Path(flowfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "flowfit.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestValidateCommand:
    def test_clean_spec_exits_zero(self, toy_spec, capsys):
        assert main(["validate", str(toy_spec)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validation_failure_exits_three(self, toy_spec):
        links = toy_spec.parent / "links.csv"
        links.write_text(links.read_text().replace("n1_n2,n1,n2", "n1_n2,n1,n99"))
        assert main(["validate", str(toy_spec)]) == 3

    def test_parse_failure_exits_two(self, toy_spec):
        (toy_spec.parent / "nodes.csv").write_text("node_id,x,y\nn1,abc,0\n")
        assert main(["validate", str(toy_spec)]) == 2

    def test_missing_spec_exits_two(self, tmp_path):
        assert main(["validate", str(tmp_path / "none.yaml")]) == 2

    @pytest.mark.parametrize("key, value, message", [
        ("calibration", {"bounds": {"mu": 5}},
         "calibration: bounds.mu: expected a list of two numbers, got 5"),
        ("calibration", {"bound_overrides": {"everyone.beta": [0.1, "x"]}},
         "calibration: bound_overrides.everyone.beta: expected a list of two numbers"),
        ("calibration", {"sa": 5}, "calibration.sa: expected a mapping, got 5"),
        ("calibration", 5, "calibration: expected a mapping, got 5"),
        ("files", 5, "files: expected a mapping, got 5"),
        ("files", {"zones": 5, "nodes": "nodes.csv", "links": "links.csv"},
         "files.zones: expected a file name, got 5"),
    ])
    def test_malformed_spec_section_exits_two(self, toy_spec, capsys, key, value, message):
        raw = yaml.safe_load(toy_spec.read_text())
        raw[key] = value
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        assert message in capsys.readouterr().out

    def test_misspelt_top_level_key_exits_two(self, toy_spec, capsys):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["calibraton"] = raw.pop("calibration")
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        assert (f"{toy_spec}: unknown key(s) ['calibraton']; accepted: files, strata, "
                "derivations, assignment, calibration") in capsys.readouterr().out

    def test_misspelt_file_key_exits_two(self, toy_spec, tmp_path, capsys):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["files"]["count"] = raw["files"].pop("counts")
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        assert (f"{toy_spec}: files: unknown key(s) ['count']; accepted: zones, nodes, links, "
                "counts") in capsys.readouterr().out
        assert main(["calibrate", str(toy_spec), "-o", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("section, key, value, message", [
        ("assignment", "n_outer", "five", "assignment: n_outer: expected int, got 'five'"),
        ("assignment", "n_outer", 2.5, "assignment: n_outer: expected int, got 2.5"),
        ("assignment", "gap_tol", True, "assignment: gap_tol: expected float, got True"),
        ("assignment", "mode", 1, "assignment: mode: expected str, got 1"),
        ("calibration", "seed", True, "calibration: seed: expected int, got True"),
        ("calibration", "xatol", "tiny", "calibration: xatol: expected float, got 'tiny'"),
        ("calibration", "max_evals", None, "calibration: max_evals: expected int, got None"),
        ("calibration", "sa", {"n_sweeps": "five"},
         "calibration.sa: n_sweeps: expected int, got 'five'"),
        ("calibration", "sa", {"restarts": 1.0}, "calibration.sa: restarts: expected int, got 1.0"),
        ("calibration", "sa", {"cooling": True}, "calibration.sa: cooling: expected float, got True"),
        ("calibration", "sa", {"initial_temp": "hot"},
         "calibration.sa: initial_temp: expected float | None, got 'hot'"),
        ("calibration", "sa", {"polish": 1}, "calibration.sa: polish: expected bool, got 1"),
    ])
    def test_scalar_option_of_the_wrong_type_exits_two(self, toy_spec, capsys,
                                                         section, key, value, message):
        raw = yaml.safe_load(toy_spec.read_text())
        raw[section][key] = value
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("section, key, value, message", [
        ("calibration", "method", "bogus", "method must be one of"),
        ("calibration", "assignment_mode", "bogus", "assignment_mode must be one of"),
        ("assignment", "n_outer", 0, "n_outer must be >= 1, got 0"),
        ("assignment", "gap_tol", float("nan"),
         "assignment: gap_tol must be finite and >= 0, got nan"),
        ("assignment", "gap_tol", -1,
         "assignment: gap_tol must be finite and >= 0, got -1"),
        ("assignment", "gap_tol", float("inf"),
         "assignment: gap_tol must be finite and >= 0, got inf"),
        ("calibration", "xatol", float("nan"),
         "calibration: xatol must be finite and >= 0, got nan"),
        ("calibration", "fatol", -1.0, "calibration: fatol must be finite and >= 0, got -1.0"),
        ("calibration", "max_evals", -5, "calibration: max_evals must be >= 1, got -5"),
        ("strata", "mu", True, "strata[0]: mu: expected float, got True"),
        ("strata", "beta", "0.1", "strata[0]: beta: expected float, got '0.1'"),
        ("strata", "name", 7, "strata[0]: name: expected str, got 7"),
        ("strata", "deterrence", "bogus",
         "deterrence_kind must be one of ('exponential', 'power'), got 'bogus'"),
        ("strata", "colour", "red", "strata[0]: unknown key(s) ['colour']; accepted: name, "
         "production_attr, attraction_attr, mu, beta, deterrence_kind, occupancy"),
        ("calibration", "seed", -1, "calibration: seed must be >= 0, got -1"),
        ("calibration", "sa", {"restarts": -1}, "calibration.sa: restarts must be >= 0, got -1"),
        ("calibration", "sa", {"initial_temp": 0},
         "calibration.sa: initial_temp must be null or finite and > 0, got 0.0"),
        ("calibration", "sa", {"initial_temp": float("nan")},
         "calibration.sa: initial_temp must be null or finite and > 0, got nan"),
        ("calibration", "sa", {"initial_temp": float("inf")},
         "calibration.sa: initial_temp must be null or finite and > 0, got inf"),
        ("calibration", "sa", {"cooling": float("nan")},
         "calibration.sa: cooling must be in (0, 1], got nan"),
        ("calibration", "sa", {"cooling": 0}, "calibration.sa: cooling must be in (0, 1], got 0.0"),
        ("calibration", "sa", {"n_sweeps": -1}, "calibration.sa: n_sweeps must be >= 0, got -1"),
        ("calibration", "sa", {"steps_per_sweep": -1},
         "calibration.sa: steps_per_sweep must be >= 0, got -1"),
        ("calibration", "tolerance", 1e-3, "calibration: unknown key(s) ['tolerance']; "
         "accepted: method, seed, max_evals, xatol, fatol, assignment_mode, bounds, "
         "bound_overrides, sa"),
        ("assignment", "gap", 0.1, "assignment: unknown key(s) ['gap']; "
         "accepted: mode, n_outer, gap_tol"),
    ])
    def test_option_value_rejected_by_its_class_exits_two(self, toy_spec, capsys,
                                                           section, key, value, message):
        raw = yaml.safe_load(toy_spec.read_text())
        entry = raw["strata"][0] if section == "strata" else raw[section]
        entry[key] = value
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        out = capsys.readouterr().out
        assert message in out
        assert "1 issue(s)" in out  # a wrong type gives no second diagnostic

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(entry=st.sampled_from([(section, f.name, f.type) for section, cls in SECTIONS.items()
                                  for f in dataclasses.fields(cls)]),
           value=st.one_of(st.none(), st.booleans(), st.integers(-3, 3000), st.floats(),
                           st.sampled_from(["oneoff", "iterative", "nelder_mead",
                                            "simulated_annealing", "five", ""])))
    def test_spec_option_rejected_exactly_when_its_class_rejects_it(self, data_toy, capsys,
                                                                     entry, value):
        section, key, annotation = entry
        raw = yaml.safe_load((TOY / "model.yaml").read_text())
        raw[section][key] = value
        spec = data_toy / "model.yaml"
        spec.write_text(yaml.safe_dump(raw))
        # a null mapping reads as an empty one
        library = {**raw[section], key: {} if value is None and annotation == "dict" else value}
        try:
            SECTIONS[section](**library)
            code = 0
        except (TypeError, ValueError):
            code = 2
        assert main(["validate", str(spec)]) == code
        capsys.readouterr()

    def test_sa_problem_and_bad_method_are_reported_together(self, toy_spec, capsys):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["calibration"].update(method="newton", sa={"n_sweeps": "five"})
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        out = capsys.readouterr().out
        assert "2 issue(s)" in out
        assert "calibration.sa: n_sweeps: expected int, got 'five'" in out
        assert "calibration: method must be one of" in out

    @pytest.mark.parametrize("derivation, message", [
        ({"attribute": "jobs", "method": "bogus", "source": "population"},
         "derivations[0]: method must be one of ('jobs_from_population',), got 'bogus'"),
        ({"attribute": "jobs", "method": "jobs_from_population", "source": "population",
          "cutoff": "5000"}, "derivations[0]: cutoff: expected float, got '5000'"),
        ({"attribute": "jobs", "method": "jobs_from_population", "source": "population",
          "cutoff": float("nan")}, "derivations[0]: cutoff must be finite and >= 0, got nan"),
        ({"attribute": "jobs", "method": "jobs_from_population", "source": "population",
          "cutoff": -1.0}, "derivations[0]: cutoff must be finite and >= 0, got -1.0"),
        ("jobs", "derivations[0]: expected a mapping, got 'jobs'"),
    ])
    def test_bad_derivation_exits_two(self, toy_spec, capsys, derivation, message):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["derivations"] = [derivation]
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        assert message in capsys.readouterr().out

    @pytest.mark.parametrize("key, value, message", [
        ("sa", {"n_sweep": 5}, "calibration.sa: unknown key(s) ['n_sweep']; accepted: "
         "initial_temp, cooling, n_sweeps, steps_per_sweep, restarts, polish"),
        ("bounds", {"mu": [3, 0]}, "calibration: everyone.mu = 1.5 outside bounds [3, 0]"),
        ("bounds", {"mu": [0, float("inf")]}, "calibration: everyone.mu: bounds must be finite"),
        ("bounds", {"mu": [-1.0, 5.0]},
         "calibration: everyone.mu: bounds must be finite and >= 0, got [-1.0, 5.0]"),
        ("bound_overrides", {"everyone.beta": [-0.5, 0.5]},
         "calibration: everyone.beta: bounds must be finite and >= 0, got [-0.5, 0.5]"),
        ("bounds", {"gamma": [0, 1]},
         "calibration: unknown bounds key(s) ['gamma']; accepted: mu, beta"),
        ("bound_overrides", {"nobody.mu": [0, 1]},
         "calibration: bound_overrides name no stratum parameter: ['nobody.mu']"),
    ])
    def test_calibration_section_that_calibrate_rejects_exits_two(self, toy_spec, capsys,
                                                                   key, value, message):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["calibration"][key] = value
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 2
        out = capsys.readouterr().out
        assert message in out
        assert "1 issue(s)" in out

    def test_calibration_section_that_calibrate_accepts_exits_zero(self, toy_spec, capsys):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["calibration"].update(
            bounds={"mu": [1, 2]}, bound_overrides={"everyone.beta": [0.05, 0.2]},
            sa={"n_sweeps": 1, "steps_per_sweep": 2, "restarts": 0, "polish": False})
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 0
        assert main(["calibrate", str(toy_spec), "-o", str(toy_spec.parent / "out"),
                     "--method", "simulated_annealing"]) == 0
        assert "OK" in capsys.readouterr().out

    @pytest.mark.parametrize("sources, code", [
        (["populaton"], 3), (["jobs", "population"], 3), (["population", "jobs"], 0),
    ])
    def test_derivation_source_must_be_declared_or_derived_earlier(self, toy_spec, capsys,
                                                                     sources, code):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["derivations"] = [
            {"attribute": f"jobs{'2' * k}", "method": "jobs_from_population", "source": src}
            for k, src in enumerate(sources)]
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == code
        if code:
            assert f"attribute {sources[0]!r} is neither declared on any zone nor derived" \
                in capsys.readouterr().out

    def test_integer_stands_for_a_float_option(self, toy_spec, capsys):
        raw = yaml.safe_load(toy_spec.read_text())
        raw["assignment"]["gap_tol"] = 0
        raw["calibration"]["fatol"] = 1
        raw["calibration"]["sa"] = {"cooling": 1, "initial_temp": 2, "n_sweeps": 3}
        toy_spec.write_text(yaml.safe_dump(raw))
        assert main(["validate", str(toy_spec)]) == 0
        assert "OK" in capsys.readouterr().out
        sa = load_model(toy_spec).calibration.sa
        assert {k: type(v) for k, v in sa.items()} == {
            "cooling": float, "initial_temp": float, "n_sweeps": int}

    @pytest.mark.parametrize("table, row_id, column, value, message", [
        ("links", "n1_n2", "alpha1", "nan",
         "link 'n1_n2': alpha1 must be finite and >= 0, got nan"),
        ("links", "n1_n2", "alpha1", "inf",
         "link 'n1_n2': alpha1 must be finite and >= 0, got inf"),
        ("links", "n1_n2", "alpha2", "nan",
         "link 'n1_n2': alpha2 must be finite and >= 1, got nan"),
        ("links", "n1_n2", "alpha2", "inf",
         "link 'n1_n2': alpha2 must be finite and >= 1, got inf"),
        ("zones", "Z1", "attr:population", "nan",
         "attribute 'population' must be finite and >= 0, got nan"),
        ("zones", "Z1", "attr:population", "inf",
         "attribute 'population' must be finite and >= 0, got inf"),
        ("counts", "n1_n2", "observed_veh24h", "nan",
         "observed flow must be finite and >= 0, got nan"),
        ("counts", "n1_n2", "observed_veh24h", "-5.0",
         "observed flow must be finite and >= 0, got -5.0"),
        ("counts", "n1_n2", "observed_veh24h", "inf",
         "observed flow must be finite and >= 0, got inf"),
    ], ids=["alpha1-nan", "alpha1-inf", "alpha2-nan", "alpha2-inf", "attribute-nan",
            "attribute-inf", "observed-nan", "observed-negative", "observed-inf"])
    def test_value_outside_its_range_exits_three(self, data_toy, capsys,
                                                 table, row_id, column, value, message):
        path = data_toy / f"{table}.csv"
        lineno = set_cell(path, row_id, column, value)
        assert main(["validate", str(data_toy / "model.yaml")]) == 3
        out = capsys.readouterr().out
        assert f"{path}:{lineno}: {message}" in out
        assert "1 issue(s)" in out


    def test_exponent_without_a_dot_is_a_number(self, data_toy, capsys):
        spec = data_toy / "model.yaml"
        text = spec.read_text().replace("gap_tol: 0.001", "gap_tol: 1e-3")
        text = text.replace("xatol: 1.0e-06", "xatol: 1e-6")
        text += ("  bounds:\n    mu: [0, 5e0]\n"
                 "derivations:\n- attribute: jobs\n  method: jobs_from_population\n"
                 "  source: population\n  cutoff: 2e4\n")
        spec.write_text(text)
        assert main(["validate", str(spec)]) == 0
        assert "OK" in capsys.readouterr().out
        model = load_model(spec)
        assert model.assignment.gap_tol == 1e-3 and model.calibration.xatol == 1e-6
        assert model.calibration.bounds["mu"] == (0.0, 5.0)
        assert type(model.calibration.bounds["mu"][1]) is float
        jobs = {z.attributes["population"]: z.attributes["jobs"] for z in model.zones}
        assert jobs == {p: derive_jobs(p, 2e4) for p in jobs}

    def test_quoted_exponent_is_a_string(self, data_toy, capsys):
        spec = data_toy / "model.yaml"
        spec.write_text(spec.read_text().replace("gap_tol: 0.001", "gap_tol: '1e-3'"))
        assert main(["validate", str(spec)]) == 2
        assert "assignment: gap_tol: expected float, got '1e-3'" in capsys.readouterr().out

    def test_missing_table_file_exits_two(self, data_toy, capsys):
        spec = data_toy / "model.yaml"
        spec.write_text(spec.read_text().replace("zones: zones.csv", "zones: nozones.csv"))
        assert main(["validate", str(spec)]) == 2
        assert f"{data_toy / 'nozones.csv'}: file not found" in capsys.readouterr().out

    def test_missing_column_exits_two(self, data_toy, capsys):
        links = data_toy / "links.csv"
        rows = [row.split(",") for row in links.read_text().splitlines()]
        links.write_text("".join(",".join(row[:3] + row[4:]) + "\n" for row in rows))
        assert main(["validate", str(data_toy / "model.yaml")]) == 2
        assert f"{links}: missing column(s) ['t0_min']" in capsys.readouterr().out

    @pytest.mark.parametrize("table, column, cell", [
        ("zones.csv", "attr:population", "5"), ("links.csv", "t0_min", "1e9")])
    def test_repeated_column_exits_two(self, data_toy, capsys, table, column, cell):
        path = data_toy / table
        rows = path.read_text().splitlines()
        path.write_text("\n".join([f"{rows[0]},{column}"] + [f"{row},{cell}" for row in rows[1:]])
                        + "\n")
        assert main(["validate", str(data_toy / "model.yaml")]) == 2
        out = capsys.readouterr().out
        assert f"{path}: repeated column(s) ['{column}']" in out
        assert "1 issue(s)" in out

    def test_invalid_yaml_exits_two(self, data_toy, capsys):
        spec = data_toy / "model.yaml"
        spec.write_text("files: [zones.csv\n")
        assert main(["validate", str(spec)]) == 2
        assert f"{spec}: invalid YAML: " in capsys.readouterr().out

    def test_bidirectional_count_without_a_reverse_link_exits_three(self, data_toy, capsys):
        links, counts = data_toy / "links.csv", data_toy / "counts.csv"
        links.write_text(links.read_text() + "n2_n5,n2,n5,3.0,30000.0,0.15,4.0,12.0\n")
        counts.write_text("link_id,observed_veh24h,bidirectional\n"
                          "n1_n2,100.0,yes\nn2_n5,100.0,yes\n")
        assert main(["validate", str(data_toy / "model.yaml")]) == 3
        out = capsys.readouterr().out
        assert f"{counts}:3: bidirectional count on 'n2_n5' but no reverse link exists" in out
        assert "1 issue(s)" in out


class TestDegenerateStratum:
    """A stratum whose attraction attribute is zero on every zone: a jobs
    column of zeros, or of zeros and blanks, which count as zero."""

    @pytest.fixture(params=["zeros", "zeros-and-blanks"])
    def jobless_toy(self, request, data_toy):
        zones = data_toy / "zones.csv"
        rows = zones.read_text().splitlines()
        cells = ["" if request.param != "zeros" and k % 2 else "0" for k in range(len(rows) - 1)]
        zones.write_text("\n".join([rows[0] + ",attr:jobs"]
                                   + [f"{row},{cell}" for row, cell in zip(rows[1:], cells)])
                         + "\n")
        spec = data_toy / "model.yaml"
        spec.write_text(spec.read_text().replace("attraction_attr: population",
                                                 "attraction_attr: jobs"))
        return spec

    MESSAGE = "stratum 'everyone': attraction attribute 'jobs' is zero on every zone"

    def test_validate_exits_three(self, jobless_toy, capsys):
        assert main(["validate", str(jobless_toy)]) == 3
        assert f"{jobless_toy.parent / 'zones.csv'}: {self.MESSAGE}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["assign", "calibrate"])
    def test_run_exits_three_before_it_starts(self, jobless_toy, tmp_path, capsys, command):
        assert main([command, str(jobless_toy), "-o", str(tmp_path / "o")]) == 3
        assert self.MESSAGE in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_column_blank_on_every_zone_is_named_as_blank(self, data_toy, capsys):
        # the attr:jobs column is declared, so it is not "neither declared
        # on any zone nor derived"
        zones = data_toy / "zones.csv"
        rows = zones.read_text().splitlines()
        zones.write_text("\n".join([rows[0] + ",attr:jobs"] + [f"{row}," for row in rows[1:]])
                         + "\n")
        spec = data_toy / "model.yaml"
        spec.write_text(spec.read_text().replace("attraction_attr: population",
                                                 "attraction_attr: jobs"))
        assert main(["validate", str(spec)]) == 3
        out = capsys.readouterr().out
        assert "stratum 'everyone': attribute 'jobs' is blank on every zone" in out
        assert "neither declared" not in out

    def test_stratum_at_mu_zero_is_checked_without_a_warning(self, data_toy, caplog):
        # criterion 6 starts a stratum at mu = 0, and the CLI prints warnings
        spec = data_toy / "model.yaml"
        spec.write_text(spec.read_text().replace("mu: 1.5", "mu: 0.0"))
        with caplog.at_level("WARNING"):
            assert main(["validate", str(spec)]) == 0
        assert caplog.records == []


class TestAssignCommand:
    def test_writes_flow_csv_with_stratum_columns(self, toy_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["assign", str(toy_spec), "-o", str(out)]) == 0
        rows = read_csv(out / "flows.csv")
        assert len(rows) == 28
        assert set(rows[0]) == {"link_id", "flow_total", "flow:everyone"}
        for row in rows:
            assert float(row["flow_total"]) == pytest.approx(
                float(row["flow:everyone"]), rel=1e-12
            )

    def test_byte_stable_across_runs(self, toy_spec, tmp_path):
        main(["assign", str(toy_spec), "-o", str(tmp_path / "a")])
        main(["assign", str(toy_spec), "-o", str(tmp_path / "b")])
        assert (tmp_path / "a/flows.csv").read_bytes() == \
            (tmp_path / "b/flows.csv").read_bytes()


    def test_link_times_lost_in_rounding_pass_validate_and_fail_assign(self, tmp_path, capsys):
        # 1 + 1e-20 == 1, so ab and ba look tight both ways and the tie pass
        # returns a predecessor cycle, which the path set reports
        nodes = [Node(n) for n in ("z", "a", "b")]
        times = {"za": 1.0, "zb": 1.0, "az": 1.0, "bz": 1.0, "ab": 1e-20, "ba": 1e-20}
        links = [Link(lid, lid[0], lid[1], t0, 1000.0) for lid, t0 in times.items()]
        net = Network.from_parts(nodes, links, {f"Z{n}": n for n in ("z", "a", "b")})
        zones = [Zone(f"Z{n}", attributes={"population": 100.0}) for n in ("z", "a", "b")]
        strata = [DemandStratum("s", "population", "population", 1.0, 0.1)]
        spec = write_model(tmp_path / "model", zones, net, [TrafficCount("za", 10.0)], strata)
        assert main(["validate", str(spec)]) == 0
        capsys.readouterr()
        assert main(["assign", str(spec), "-o", str(tmp_path / "out")]) == 4
        assert "error: predecessor cycle: " in capsys.readouterr().err


class TestEvaluateCommand:
    def test_writes_scatter_and_report(self, toy_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["evaluate", str(toy_spec), "-o", str(out)]) == 0
        assert "mean GEH" in capsys.readouterr().out
        rows = read_csv(out / "scatter.csv")
        assert len(rows) == 28
        assert set(rows[0]) == {"link_id", "observed_veh24h",
                                "predicted_veh24h", "geh_hourly"}
        assert (out / "report.txt").exists()

    def test_runtime_failure_exits_four(self, toy_spec, tmp_path):
        # empty counts file: parsing is fine, the objective is undefined
        (toy_spec.parent / "counts.csv").write_text("link_id,observed_veh24h\n")
        assert main(["evaluate", str(toy_spec), "-o", str(tmp_path / "o")]) == 4

    def test_iterative_assignment_mode_from_config(self, toy_spec, tmp_path, capsys):
        spec = toy_spec.parent / "model.yaml"
        spec.write_text(spec.read_text().replace("mode: oneoff", "mode: iterative"))
        out = tmp_path / "out"
        assert main(["evaluate", str(spec), "-o", str(out)]) == 0
        assert "mean GEH" in capsys.readouterr().out


class TestCalibrateCommand:
    def test_prints_result_and_writes_artifacts(self, toy_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", str(toy_spec), "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "objective J" in text
        assert "everyone.mu" in text
        assert "seed: 0" in text  # defaulted seed is echoed
        history = read_csv(out / "history.csv")
        assert set(history[0]) == {"evaluation", "objective",
                                   "everyone.mu", "everyone.beta"}
        assert len(history) >= 10
        weights = (out / "calibrated_weights.yaml").read_text()
        assert "mu:" in weights and "beta:" in weights

    def test_history_byte_identical_for_same_seed(self, toy_spec, tmp_path):
        main(["calibrate", str(toy_spec), "-o", str(tmp_path / "a"), "--seed", "5"])
        main(["calibrate", str(toy_spec), "-o", str(tmp_path / "b"), "--seed", "5"])
        assert (tmp_path / "a/history.csv").read_bytes() == \
            (tmp_path / "b/history.csv").read_bytes()

    def test_calibrated_weights_paste_back_into_spec(self, toy_spec, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["calibrate", str(toy_spec), "-o", str(out)]) == 0
        capsys.readouterr()
        # splice the learned strata block into a copy of the model spec
        spec_text = toy_spec.read_text()
        head = spec_text.split("strata:")[0]
        tail = "assignment:" + spec_text.split("assignment:")[1]
        weights = (out / "calibrated_weights.yaml").read_text()
        recal = toy_spec.parent / "model_recal.yaml"
        recal.write_text(head + weights + tail)
        assert main(["evaluate", str(recal), "-o", str(tmp_path / "o2")]) == 0
        text = capsys.readouterr().out
        assert "mean GEH (hourly-equivalent): 0.0000" in text

    def test_method_override(self, toy_spec, tmp_path, capsys):
        spec_dir = toy_spec.parent
        spec = spec_dir / "model.yaml"
        spec.write_text(spec.read_text().replace(
            "max_evals: 400",
            "max_evals: 400\n  sa:\n    n_sweeps: 10\n    steps_per_sweep: 5",
        ))
        assert main(["calibrate", str(spec), "-o", str(tmp_path / "o"),
                     "--method", "simulated_annealing"]) == 0
        assert "simulated_annealing" in capsys.readouterr().out

    def test_box_outside_a_weight_range_exits_two_before_any_evaluation(
            self, data_toy, tmp_path, capsys):
        spec = data_toy / "model.yaml"
        raw = yaml.safe_load(spec.read_text())
        raw["calibration"]["bounds"] = {"mu": [-1.0, 5.0]}
        spec.write_text(yaml.safe_dump(raw))
        assert main(["calibrate", str(spec), "-o", str(tmp_path / "o"),
                     "--method", "simulated_annealing"]) == 2
        assert "everyone.mu: bounds must be finite and >= 0, got [-1.0, 5.0]" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_seed_argument_exits_two(self, toy_spec, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", str(toy_spec), "-o", str(tmp_path / "o"), "--seed", "-1"])
        assert err.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_blank_attribute_is_reported_once_per_run(self, data_toy, tmp_path):
        zones = data_toy / "zones.csv"
        lineno = set_cell(zones, "Z3", "attr:population", "")
        out = run_cli("calibrate", str(data_toy / "model.yaml"), "-o", str(tmp_path / "o"))
        assert out.returncode == 0, out.stderr
        warnings = [line for line in out.stderr.splitlines() if "treated as 0" in line]
        assert warnings == [f"WARNING flowfit.model_io: {zones}:{lineno}: "
                            "attribute 'population' is blank; treated as 0"]

    def test_builds_the_free_flow_path_set_once(self, data_toy, tmp_path, monkeypatch):
        # the calibration and the final re-score both start from it
        built = count_path_sets(monkeypatch)
        assert main(["calibrate", str(data_toy / "model.yaml"), "-o", str(tmp_path / "o")]) == 0
        assert len(built) == 1


class TestSplitTestCommand:
    def test_grid_row_count(self, toy_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["split-test", str(toy_spec), "-o", str(out),
                     "--fractions", "0.4,0.6", "--seeds", "3"]) == 0
        rows = read_csv(out / "split_test.csv")
        assert len(rows) == 6
        assert [r["fraction"] for r in rows] == ["0.4"] * 3 + ["0.6"] * 3
        assert [r["seed"] for r in rows] == ["0", "1", "2"] * 2

    def test_range_syntax_expands_with_step_tenth(self, toy_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["split-test", str(toy_spec), "-o", str(out),
                     "--fractions", "0.3..0.5", "--seeds", "2"]) == 0
        rows = read_csv(out / "split_test.csv")
        assert sorted({r["fraction"] for r in rows}) == ["0.3", "0.4", "0.5"]
        assert len(rows) == 6

    def test_default_grid_is_seven_fractions_by_ten_seeds(self, toy_spec, tmp_path):
        out = tmp_path / "out"
        assert main(["split-test", str(toy_spec), "-o", str(out),
                     "--fractions", "0.3..0.9", "--seeds", "10"]) == 0
        rows = read_csv(out / "split_test.csv")
        assert len(rows) == 70
        assert len({r["fraction"] for r in rows}) == 7

    @pytest.mark.parametrize("args, message", [
        (["--seeds", "0"], "expected a positive integer, got '0'"),
        (["--seeds", "-2"], "expected a positive integer"),
        (["--fractions", "1.5"], "bad fractions '1.5'"),
        (["--fractions", "0.5,1.0"], "bad fractions"),
        (["--fractions", "0.0..0.5"], "bad fractions"),
        (["--fractions", "0.9..0.3"], "bad fractions"),
        (["--fractions", ","], "bad fractions"),
        (["--fractions", "0.3..0.85"],
         "bad fractions '0.3..0.85': a range must span whole steps of 0.1"),
        (["--fractions", "0.3..0.95"], "a range must span whole steps of 0.1"),
        (["--fractions", "0.3..inf"], "bad fractions '0.3..inf'"),
    ])
    def test_bad_grid_arguments_exit_two(self, toy_spec, tmp_path, capsys, args, message):
        with pytest.raises(SystemExit) as err:
            main(["split-test", str(toy_spec), "-o", str(tmp_path / "out"), *args])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_forwards_simulated_annealing_options(self, tmp_path):
        zones, net = eight_zone_star()
        counts = synthetic_counts(zones, net, toy_strata(0.7, 0.074))
        strata = toy_strata(1.5, 0.1)
        sa = {"n_sweeps": 2, "steps_per_sweep": 3, "restarts": 0, "polish": False}
        spec = write_model(tmp_path / "model", zones, net, counts, strata,
                           AssignmentOptions(mode="oneoff"), CalibrationOptions(sa=sa))
        out = tmp_path / "out"
        assert main(["split-test", str(spec), "-o", str(out), "--fractions", "0.5",
                     "--seeds", "2", "--method", "simulated_annealing"]) == 0
        expected = split_test(zones, net, strata, counts, fractions=[0.5], seeds=[0, 1],
                              method="simulated_annealing", sa=sa)
        rows = read_csv(out / "split_test.csv")
        assert [(float(r["train_geh"]), float(r["test_geh"])) for r in rows] == \
            [(r.train_geh, r.test_geh) for r in expected]

    def test_forwards_gap_tol_to_calibration_and_scoring(self, tmp_path):
        zones, net = eight_zone_star()
        counts = synthetic_counts(zones, net, toy_strata(2.0, 0.05))
        strata = toy_strata(1.5, 0.1)
        spec = write_model(tmp_path / "model", zones, net, counts, strata,
                           AssignmentOptions(mode="iterative", n_outer=8, gap_tol=0.05),
                           CalibrationOptions(max_evals=8, assignment_mode="iterative"))
        out = tmp_path / "out"
        assert main(["split-test", str(spec), "-o", str(out), "--fractions", "0.5",
                     "--seeds", "1"]) == 0
        # calibrated and scored by hand, both under gap_tol 0.05
        train, test = split_counts(counts, 0.5, 0)
        cal = calibrate(zones, net, strata, train, max_evals=8,
                        assignment_mode="iterative", n_outer=8, gap_tol=0.05)
        flows = assign(net, zones, cal.best_weights.apply(strata), mode="iterative",
                       n_outer=8, gap_tol=0.05).flows
        (row,) = read_csv(out / "split_test.csv")
        assert float(row["train_geh"]) == evaluate(flows, train).objective_j
        assert float(row["test_geh"]) == evaluate(flows, test).objective_j


def test_console_script_lists_all_commands():
    out = run_cli("--help")
    assert out.returncode == 0
    for cmd in ("validate", "assign", "evaluate", "calibrate",
                "split-test", "compare"):
        assert cmd in out.stdout


class TestCompareCommand:
    def test_writes_per_link_deltas(self, toy_spec, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", str(toy_spec), str(scenario_file),
                     "-o", str(out)]) == 0
        assert "faster_ring" in capsys.readouterr().out
        rows = read_csv(out / "compare.csv")
        assert len(rows) == 28
        by_link = {r["link_id"]: r for r in rows}
        # the upgraded segment attracts flow; some deltas must be nonzero
        assert float(by_link["n2_n3"]["delta"]) > 0.0
        for row in rows:
            assert float(row["delta"]) == pytest.approx(
                float(row["flow_scenario"]) - float(row["flow_base"]), abs=1e-9
            )

    def test_base_free_flow_set_is_freed_before_the_edited_build(
            self, toy_spec, scenario_file, tmp_path, monkeypatch):
        # one-off: each build is a network's free-flow set
        alive_at_build, built, init = [], [], PathSet.__init__

        def tracking(self, *args):
            alive_at_build.append(sum(ref() is not None for ref in built))
            built.append(weakref.ref(self))
            init(self, *args)

        monkeypatch.setattr(PathSet, "__init__", tracking)
        assert main(["compare", str(toy_spec), str(scenario_file),
                     "-o", str(tmp_path / "out")]) == 0
        assert alive_at_build == [0, 0]

    def test_added_link_appears_with_zero_base(self, toy_spec, tmp_path):
        scenario = tmp_path / "add.yaml"
        scenario.write_text(
            "name: bypass\n"
            "edits:\n"
            "- action: add_link\n"
            "  link_id: express\n"
            "  from_node: n2\n"
            "  to_node: n5\n"
            "  t0_min: 3.0\n"
            "  capacity_veh24h: 30000\n"
        )
        out = tmp_path / "out"
        assert main(["compare", str(toy_spec), str(scenario), "-o", str(out)]) == 0
        by_link = {r["link_id"]: r for r in read_csv(out / "compare.csv")}
        assert float(by_link["express"]["flow_base"]) == 0.0
        assert float(by_link["express"]["flow_scenario"]) > 0.0

    @pytest.mark.parametrize("text", [
        "- action: remove_link\n  link_id: n1_n2\n",  # a list, not a mapping
        "name: x\nedits:\n- remove_link n1_n2\n",  # an edit that is a string
    ])
    def test_malformed_scenario_exits_two(self, toy_spec, tmp_path, capsys, text):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(text)
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 2
        assert "expected a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("name: x\nedit:\n- action: remove_link\n  link_id: n1_n2\n",
         "bad.yaml: unknown key(s) ['edit']; accepted: name, edits"),
        ("name: x\nedits: 5\n", "bad.yaml: edits: expected a list, got 5"),
        ("name: x\nedits: {a: 1}\n", "bad.yaml: edits: expected a list, got {'a': 1}"),
        ("name: [1, 2]\nedits: []\n", "bad.yaml: name: expected a string, got [1, 2]"),
        ("name: x\nedits:\n- action: remove_link\n  link_id: 5\n",
         "bad.yaml: edits[0]: link_id must be a non-empty string, got 5"),
        ("name: x\nedits:\n- action: remove_link\n  link_id: ''\n",
         "bad.yaml: edits[0]: link_id must be a non-empty string, got ''"),
    ])
    def test_scenario_other_than_a_name_and_a_list_of_edits_exits_two(
            self, toy_spec, tmp_path, capsys, text, message):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(text)
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["fast", "null", "true"])
    def test_edit_value_that_is_not_a_number_exits_three(self, toy_spec, tmp_path, capsys,
                                                          value):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            f"name: x\nedits:\n- action: modify_link\n  link_id: n1_n2\n  t0_min: {value}\n"
        )
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 3
        assert "column 't0_min': not a number" in capsys.readouterr().err

    def test_field_on_remove_link_exits_three(self, toy_spec, tmp_path, capsys):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "name: x\nedits:\n- action: remove_link\n  link_id: n1_n2\n  t0_min: 3\n"
        )
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 3
        assert "remove_link 'n1_n2': unknown field 't0_min'" in capsys.readouterr().err

    @pytest.mark.parametrize("action, link_id, message", [
        ("add_link", "n1_n2", "add_link: link 'n1_n2' already exists"),
        ("modify_link", "nope", "modify_link: unknown link 'nope'"),
    ])
    def test_edit_of_a_link_that_does_or_does_not_exist_exits_three(
            self, toy_spec, tmp_path, capsys, action, link_id, message):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(f"name: x\nedits:\n- action: {action}\n  link_id: {link_id}\n"
                            "  t0_min: 3.0\n")
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    def test_broken_scenario_exits_three(self, toy_spec, tmp_path):
        scenario = tmp_path / "bad.yaml"
        scenario.write_text(
            "edits:\n- action: remove_link\n  link_id: ghost\n"
        )
        assert main(["compare", str(toy_spec), str(scenario),
                     "-o", str(tmp_path / "o")]) == 3
