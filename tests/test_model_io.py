import csv
import dataclasses
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowfit import model_io
from flowfit.calibrate import AnnealingOptions, simulated_annealing
from flowfit.demand import DemandStratum, Zone, derive_jobs, fits_field_type
from flowfit.metrics import TrafficCount
from flowfit.model_io import (
    _COUNT_COLUMNS,
    _COUNT_DEFAULTS,
    _COUNT_FIELDS,
    _LINK_DEFAULTS,
    _LINK_FIELDS,
    _LINK_REQUIRED,
    _NODE_COLUMNS,
    _NODE_DEFAULTS,
    _NODE_FIELDS,
    _ZONE_COLUMNS,
    _ZONE_DEFAULTS,
    _ZONE_FIELDS,
    ATTR_PREFIX,
    AssignmentOptions,
    CalibrationOptions,
    LinkEdit,
    LoadedModel,
    ModelLoadError,
    Scenario,
    apply_scenario,
    load_model,
    load_scenario,
    write_model,
)
from flowfit.network import Link, Network, Node, validate
from flowfit.sample_models import eight_zone_star, grid_region, synthetic_counts, toy_strata

TOY = Path(__file__).resolve().parents[1] / "data" / "toy"


@pytest.fixture
def toy_dir(tmp_path):
    zones, net = eight_zone_star()
    strata = toy_strata(0.7, 0.074)
    counts = synthetic_counts(zones, net, strata)
    write_model(tmp_path, zones, net, counts, strata,
                AssignmentOptions(mode="oneoff"), CalibrationOptions(seed=3))
    return tmp_path


class TestLoadModel:
    def test_toy_instance_loads_clean(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        assert len(model.zones) == 8
        assert len(model.network.links) == 28
        assert len(model.counts) == 28
        assert validate(model.network) == []
        assert model.calibration.seed == 3
        assert model.assignment.mode == "oneoff"

    def test_roundtrip_is_identical(self, toy_dir):
        first = load_model(toy_dir / "model.yaml")
        calibration = dataclasses.replace(
            first.calibration,
            bounds={"mu": (0.5, 3.0), "beta": (0.01, 0.5)},
            bound_overrides={"everyone.beta": (0.02, 0.2)},
            sa={"n_sweeps": 10, "cooling": 0.9, "polish": False},
        )
        out = toy_dir / "copy"
        write_model(out, first.zones, first.network, first.counts, first.strata,
                    first.assignment, calibration)
        second = load_model(out / "model.yaml")
        assert second.zones == first.zones
        assert second.network == first.network
        assert second.counts == first.counts
        assert second.strata == first.strata
        assert second.assignment == first.assignment
        assert second.calibration == calibration
        for name in ("zones.csv", "nodes.csv", "links.csv", "counts.csv"):
            assert (out / name).read_bytes() == (toy_dir / name).read_bytes()

    def test_missing_node_reference_names_file_row_and_node(self, toy_dir):
        links = toy_dir / "links.csv"
        rows = links.read_text().splitlines()
        rows[3] = rows[3].replace("n1", "n99")
        links.write_text("\n".join(rows) + "\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "validation"
        assert any("links.csv:4" in d and "'n99'" in d for d in err.value.diagnostics)

    def test_all_reference_errors_reported_together(self, toy_dir):
        links = toy_dir / "links.csv"
        rows = links.read_text().splitlines()
        rows[3] = rows[3].replace("n1", "n99")
        rows[7] = rows[7].replace("n1", "n98")
        links.write_text("\n".join(rows) + "\n")
        zones = toy_dir / "zones.csv"
        zones.write_text(zones.read_text().replace("Z3,Satellite 2", "Z3x,Satellite 2")
                         .replace(",n3,", ",ghost,"))
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        joined = "\n".join(err.value.diagnostics)
        assert "'n99'" in joined and "'n98'" in joined and "'ghost'" in joined

    def test_parse_errors_are_aggregated_with_file_and_line(self, toy_dir):
        nodes = toy_dir / "nodes.csv"
        rows = nodes.read_text().splitlines()
        rows[2] = "n2,not_a_number,0.0"
        rows[4] = "n4,1.0"
        nodes.write_text("\n".join(rows) + "\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "parse"
        assert any("nodes.csv:3" in d for d in err.value.diagnostics)
        assert any("nodes.csv:5" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("table, column", [
        ("zones.csv", "zone_id"), ("nodes.csv", "node_id"), ("links.csv", "link_id"),
    ])
    def test_empty_and_duplicate_ids_name_file_and_line(self, toy_dir, table, column):
        path = toy_dir / table
        rows = path.read_text().splitlines()
        first_id = rows[1].split(",")[0]
        rows[2] = "," + rows[2].split(",", 1)[1]  # line 3: empty id
        rows[4] = first_id + "," + rows[4].split(",", 1)[1]  # line 5: repeats line 2
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "parse"
        assert err.value.diagnostics == [
            f"{path}:3: empty {column}",
            f"{path}:5: duplicate {column} {first_id!r}",
        ]

    def test_a_link_may_be_counted_on_several_rows(self, toy_dir):
        counts = toy_dir / "counts.csv"
        counts.write_text(counts.read_text() + "n1_n2,123.0\n")
        model = load_model(toy_dir / "model.yaml")
        assert len(model.counts) == 29
        assert [c.observed for c in model.counts if c.link_id == "n1_n2"][1] == 123.0

    def test_strata_sharing_a_name_is_a_parse_error(self, toy_dir):
        spec = toy_dir / "model.yaml"
        raw = yaml.safe_load(spec.read_text())
        raw["strata"].append(dict(raw["strata"][0], mu=0.3))
        spec.write_text(yaml.safe_dump(raw))
        with pytest.raises(ModelLoadError, match="strata share a name: \\['everyone'\\]") as err:
            load_model(spec)
        assert err.value.stage == "parse"

    def test_jobs_derivation_applied_at_load(self, toy_dir):
        spec = toy_dir / "model.yaml"
        text = spec.read_text()
        text += (
            "derivations:\n"
            "- attribute: jobs\n"
            "  method: jobs_from_population\n"
            "  source: population\n"
            "  cutoff: 5000\n"
        )
        spec.write_text(text)
        model = load_model(spec)
        by_id = {z.zone_id: z for z in model.zones}
        # sqrt(100000^2 - 5000^2)
        assert by_id["Z1"].attributes["jobs"] == pytest.approx(99874.92178, abs=1e-4)

    def test_stratum_with_unknown_attribute_is_a_validation_error(self, toy_dir):
        spec = toy_dir / "model.yaml"
        spec.write_text(spec.read_text().replace(
            "attraction_attr: population", "attraction_attr: mystery"
        ))
        with pytest.raises(ModelLoadError) as err:
            load_model(spec)
        assert err.value.stage == "validation"
        assert any("mystery" in d for d in err.value.diagnostics)

    def test_unknown_count_link_is_a_validation_error(self, toy_dir):
        counts = toy_dir / "counts.csv"
        counts.write_text(counts.read_text() + "ghost,123\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert any("ghost" in d for d in err.value.diagnostics)

    @pytest.mark.parametrize("flag, split", [
        ("1", True), ("true", True), ("TRUE", True), ("Yes", True),
        ("0", False), ("false", False), ("No", False), ("", False),
    ])
    def test_bidirectional_flag_is_read_in_any_case(self, toy_dir, flag, split):
        (toy_dir / "counts.csv").write_text(
            f"link_id,observed_veh24h,bidirectional\nn1_n2,10000,{flag}\n")
        model = load_model(toy_dir / "model.yaml")
        expected = [("n1_n2", 5000.0), ("n2_n1", 5000.0)] if split else [("n1_n2", 10000.0)]
        assert sorted((c.link_id, c.observed) for c in model.counts) == expected

    @pytest.mark.parametrize("flag", ["y", "maybe", "2"])
    def test_unknown_bidirectional_flag_names_its_line(self, toy_dir, flag):
        counts = toy_dir / "counts.csv"
        counts.write_text("link_id,observed_veh24h,bidirectional\n"
                          f"n1_n2,10000,0\nn2_n1,10000,{flag}\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "parse"
        assert err.value.diagnostics == [
            f"{counts}:3: column 'bidirectional': expected one of 1, true, yes, 0, false, "
            f"no or blank: {flag!r}"]

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(ModelLoadError) as err:
            load_model(tmp_path / "nope.yaml")
        assert err.value.stage == "parse"

    def test_blank_bpr_columns_fall_back_to_defaults(self, toy_dir):
        links = toy_dir / "links.csv"
        rows = links.read_text().splitlines()
        cells = rows[1].split(",")
        cells[5] = cells[6] = ""  # alpha1, alpha2
        rows[1] = ",".join(cells)
        links.write_text("\n".join(rows) + "\n")
        model = load_model(toy_dir / "model.yaml")
        link = model.network.links[rows[1].split(",")[0]]
        assert link.alpha1 == 0.15 and link.alpha2 == 4.0


class TestNetworkFindings:
    """load_model reports network.validate's findings, each with the file and
    line of the link or zone it concerns."""

    def test_nonpositive_t0_names_file_and_line(self, toy_dir):
        links = toy_dir / "links.csv"
        rows = links.read_text().splitlines()
        assert rows[2].startswith("n1_n3,")
        cells = rows[2].split(",")
        cells[3] = "-1.0"
        rows[2] = ",".join(cells)
        links.write_text("\n".join(rows) + "\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "validation"
        assert err.value.diagnostics == [f"{links}:3: link 'n1_n3': t0 must be > 0, got -1.0"]

    def test_isolated_anchor_names_its_zone_line_on_both_reachability_findings(self, toy_dir):
        nodes = toy_dir / "nodes.csv"
        nodes.write_text(nodes.read_text() + "iso,50.0,50.0\n")
        zones = toy_dir / "zones.csv"
        rows = zones.read_text().splitlines()
        (lineno,) = [k + 1 for k, row in enumerate(rows) if row.startswith("Z3,")]
        zones.write_text(zones.read_text().replace(",n3,", ",iso,"))
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "validation"
        assert err.value.diagnostics == [
            f"{zones}:{lineno}: zone 'Z3': anchor 'iso' unreachable from zone 'Z1'",
            f"{zones}:{lineno}: zone 'Z3': anchor 'iso' cannot reach zone 'Z1'",
        ]

    def test_unknown_node_reference_takes_validates_wording(self, toy_dir):
        links = toy_dir / "links.csv"
        links.write_text(links.read_text().replace("n1_n3,n1,n3", "n1_n3,n1,n99"))
        zones = toy_dir / "zones.csv"
        zones.write_text(zones.read_text().replace(",n2,", ",ghost,"))
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.diagnostics == [
            f"{links}:3: link 'n1_n3': to_node 'n99' is not a known node",
            f"{zones}:3: zone 'Z2': anchor node 'ghost' is not a known node",
        ]

    @pytest.mark.parametrize("anchor", ["ghost", "iso"])
    def test_diagnostics_are_validate_with_file_and_line(self, tmp_path, anchor):
        zones, net = eight_zone_star()
        strata = toy_strata(0.7, 0.074)
        counts = synthetic_counts(zones, net, strata)
        links = dict(net.links)
        links["n1_n2"] = dataclasses.replace(links["n1_n2"], t0=-1.0, q_max=0.0)
        links["n2_n3"] = dataclasses.replace(links["n2_n3"], alpha1=-0.5, alpha2=0.5)
        links["n4_n5"] = dataclasses.replace(links["n4_n5"], t0=0.0)
        links["n5_n5"] = Link("n5_n5", "n5", "n5", 1.0, 1000.0)
        if anchor == "ghost":  # an unknown reference: reachability is not checked
            links["n3_n4"] = dataclasses.replace(links["n3_n4"], to_node="n99")
        nodes = {**net.nodes, "iso": Node("iso", 50.0, 50.0)}
        broken = Network(nodes, links, {**net.zone_anchors, "Z4": anchor, "Z6": anchor})
        issues = validate(broken)
        assert len(issues) >= 7
        write_model(tmp_path, zones, broken, counts, strata)
        with pytest.raises(ModelLoadError) as err:
            load_model(tmp_path / "model.yaml")
        assert err.value.stage == "validation"
        stripped = []
        for d in err.value.diagnostics:
            match = re.match(r"(.*/(links|zones)\.csv):(\d+): ((link|zone) '([^']*)'.*)", d)
            assert match, d
            path, table, lineno, message, _, rid = match.groups()
            assert path == str(tmp_path / f"{table}.csv")
            rows = (tmp_path / f"{table}.csv").read_text().splitlines()
            assert rows[int(lineno) - 1].startswith(f"{rid},")
            stripped.append(message)
        assert stripped == issues


class TestTableCells:
    def test_blank_attribute_cell_leaves_the_attribute_off(self, toy_dir):
        zones = toy_dir / "zones.csv"
        rows = zones.read_text().splitlines()
        rows[0] += ",attr:jobs"
        rows[1] += ",5000"
        rows[2:] = [row + "," for row in rows[2:]]
        zones.write_text("\n".join(rows) + "\n")
        model = load_model(toy_dir / "model.yaml")
        by_id = {z.zone_id: z for z in model.zones}
        assert by_id["Z1"].attributes == {"population": 100000.0, "jobs": 5000.0}
        assert by_id["Z2"].attributes == {"population": 40000.0}

    def test_every_bad_cell_of_a_row_is_reported(self, toy_dir):
        zones = toy_dir / "zones.csv"
        rows = zones.read_text().splitlines()
        cells = rows[1].split(",")
        cells[2], cells[5] = "east", "many"
        rows[1] = ",".join(cells)
        zones.write_text("\n".join(rows) + "\n")
        counts = toy_dir / "counts.csv"
        counts.write_text(counts.read_text() + "n1_n2,\n")
        with pytest.raises(ModelLoadError) as err:
            load_model(toy_dir / "model.yaml")
        assert err.value.stage == "parse"
        assert err.value.diagnostics == [
            f"{zones}:2: column 'x': not a number: 'east'",
            f"{zones}:2: column 'attr:population': not a number: 'many'",
            f"{counts}:30: column 'observed_veh24h' is empty",
        ]

    def test_loaded_model_holds_what_it_serves(self, toy_dir):
        assert [f.name for f in dataclasses.fields(LoadedModel)] == [
            "zones", "network", "counts", "strata", "assignment", "calibration"]
        model = load_model(toy_dir / "model.yaml")
        assert model.calibration == CalibrationOptions(seed=3)
        assert model.assignment == AssignmentOptions(mode="oneoff")


class TestSpecChecks:
    def test_sa_keys_are_simulated_annealings_tuning_options(self, toy_dir):
        tuning = {"initial_temp": 1, "cooling": 1, "n_sweeps": 1, "steps_per_sweep": 1,
                  "restarts": 0, "polish": False}
        assert [f.name for f in dataclasses.fields(AnnealingOptions)] == list(tuning)
        simulated_annealing(lambda x: 0.0, ([0.0], [1.0]), **tuning)
        spec = toy_dir / "model.yaml"
        raw = yaml.safe_load(spec.read_text())
        for key in ("x0", "n_sweep", "seed"):
            raw["calibration"]["sa"] = {**tuning, key: 1}
            spec.write_text(yaml.safe_dump(raw))
            with pytest.raises(ModelLoadError,
                               match=rf"calibration\.sa: unknown key\(s\) \['{key}'\]"):
                load_model(spec)

    def test_bounds_keys_are_mu_and_beta(self):
        CalibrationOptions(bounds={"mu": (0.0, 2.0), "beta": (0.0, 0.5)})
        with pytest.raises(ValueError, match=r"unknown bounds key\(s\) \['gamma'\]"):
            CalibrationOptions(bounds={"gamma": (0.0, 1.0)})

    @pytest.mark.parametrize("rules, stage, message", [
        ([("jobs", "populaton")], "validation",
         "derivation of 'jobs': attribute 'populaton' is neither declared on any zone "
         "nor derived"),
        ([("jobs2", "jobs"), ("jobs", "population")], "validation",
         "derivation of 'jobs2': attribute 'jobs' is neither declared on any zone "
         "nor derived"),
        ([("jobs", "population"), ("jobs2", "jobs")], None, None),
    ])
    def test_derivation_source_is_declared_or_derived_earlier(self, toy_dir, rules,
                                                               stage, message):
        spec = toy_dir / "model.yaml"
        raw = yaml.safe_load(spec.read_text())
        raw["derivations"] = [{"attribute": a, "method": "jobs_from_population", "source": src}
                              for a, src in rules]
        spec.write_text(yaml.safe_dump(raw))
        if stage is None:
            model = load_model(spec)
            attrs = model.zones[0].attributes
            assert attrs["jobs2"] == derive_jobs(attrs["jobs"])
            return
        with pytest.raises(ModelLoadError) as err:
            load_model(spec)
        assert err.value.stage == stage
        assert err.value.diagnostics == [message]


class TestScenario:
    def test_empty_edit_list_is_identity(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        edited = apply_scenario(model.network, Scenario("noop", []))
        assert edited == model.network
        assert edited is not model.network

    def test_base_network_never_mutated(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        before = dict(model.network.links)
        apply_scenario(model.network, Scenario("mod", [
            LinkEdit("modify_link", "n1_n2", {"t0_min": 1.0}),
            LinkEdit("remove_link", "n2_n3", {}),
        ]))
        assert model.network.links == before
        assert model.network.links["n1_n2"].t0 == 10.0

    def test_bypass_shortens_or_preserves_all_skims(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        edits = [
            LinkEdit("add_link", "bypass_ab", {
                "from_node": "n2", "to_node": "n5",
                "t0_min": 3.0, "capacity_veh24h": 30000.0,
            }),
            LinkEdit("add_link", "bypass_ba", {
                "from_node": "n5", "to_node": "n2",
                "t0_min": 3.0, "capacity_veh24h": 30000.0,
            }),
        ]
        before = model.network.free_flow_paths.skim
        edited = apply_scenario(model.network, Scenario("bypass", edits))
        after = edited.free_flow_paths.skim  # its own, not the base's
        off = ~np.eye(len(before.zone_ids), dtype=bool)
        assert (after.values[off] <= before.values[off] + 1e-12).all()
        assert after.values[1, 4] == 3.0 < before.values[1, 4]  # Z2 -> Z5

    def test_removing_the_only_access_fails_validation(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        # strip every link that leaves n2: Z2 can no longer reach anyone
        edits = [LinkEdit("remove_link", lid, {})
                 for lid, l in model.network.links.items() if l.from_node == "n2"]
        with pytest.raises(ModelLoadError) as err:
            apply_scenario(model.network, Scenario("cut", edits))
        assert err.value.stage == "validation"
        assert any("'Z2'" in d for d in err.value.diagnostics)

    def test_edit_referencing_unknown_link(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        with pytest.raises(ModelLoadError, match="unknown link"):
            apply_scenario(model.network,
                           Scenario("bad", [LinkEdit("remove_link", "ghost", {})]))

    @pytest.mark.parametrize("value", ["fast", None, True])
    def test_modify_with_a_value_that_is_not_a_number(self, toy_dir, value):
        model = load_model(toy_dir / "model.yaml")
        with pytest.raises(ModelLoadError) as err:
            apply_scenario(model.network, Scenario("bad", [
                LinkEdit("modify_link", "n1_n2", {"t0_min": value}),
            ]))
        assert err.value.stage == "validation"
        assert err.value.diagnostics == [
            f"modify_link 'n1_n2': column 't0_min': not a number: {value!r}"
        ]

    @pytest.mark.parametrize("action", ["add_link", "modify_link"])
    def test_unknown_edit_field_rejected(self, toy_dir, action):
        model = load_model(toy_dir / "model.yaml")
        fields = {"from_node": "n2", "to_node": "n5", "t0_min": 3.0,
                  "capacity_veh24h": 30000.0, "alpha_1": 0.9}
        link_id = "bypass" if action == "add_link" else "n1_n2"
        with pytest.raises(ModelLoadError) as err:
            apply_scenario(model.network, Scenario("typo", [LinkEdit(action, link_id, fields)]))
        assert err.value.diagnostics == [f"{action} {link_id!r}: unknown field 'alpha_1'"]

    def test_add_link_takes_link_defaults(self, toy_dir):
        model = load_model(toy_dir / "model.yaml")
        edited = apply_scenario(model.network, Scenario("bypass", [
            LinkEdit("add_link", "bypass", {"from_node": "n2", "to_node": "n5",
                                            "t0_min": 3, "capacity_veh24h": 30000}),
        ]))
        assert edited.links["bypass"] == Link("bypass", "n2", "n5", 3.0, 30000.0)

    def test_scenario_yaml_loading(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text(
            "name: test\n"
            "edits:\n"
            "- action: modify_link\n"
            "  link_id: n1_n2\n"
            "  t0_min: 2.5\n"
        )
        scenario = load_scenario(path)
        assert scenario.name == "test"
        assert scenario.edits == [LinkEdit("modify_link", "n1_n2", {"t0_min": 2.5})]

    def test_scenario_with_unknown_action_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("edits:\n- action: repaint_link\n  link_id: x\n")
        with pytest.raises(ModelLoadError, match="unknown action"):
            load_scenario(path)

    def test_scenario_that_is_a_list_is_a_parse_error(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("- action: remove_link\n  link_id: n1_n2\n")
        with pytest.raises(ModelLoadError, match="mapping at top level") as err:
            load_scenario(path)
        assert err.value.stage == "parse"

    def test_edit_that_is_a_string_is_a_parse_error(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: x\nedits:\n- remove_link n1_n2\n")
        with pytest.raises(ModelLoadError, match=r"edits\[0\]: expected a mapping") as err:
            load_scenario(path)
        assert err.value.stage == "parse"


# ---------------------------------------------------------------------------
# The table readers before they converted a column at a time: csv.DictReader
# rows, each cell converted on its own. load_model must give the same model
# with them, or the same diagnostics in the same order.

class RefRowReader:
    """CSV reader that records per-row diagnostics instead of raising.

    records() yields (lineno, id, values) for rows with the header's column
    count, a non-empty id (the first required column) and cells that all
    convert; unique=True also skips repeated ids. linenos maps each id to
    its first line.
    """

    def __init__(self, path: Path, required: tuple, diagnostics: list[str], unique: bool = True):
        self.path = path
        self.id_column = required[0]
        self.unique = unique
        self.diagnostics = diagnostics
        self.fieldnames: list[str] = []
        self.rows: list[dict] = []
        self.linenos: dict[str, int] = {}
        if not path.is_file():
            diagnostics.append(f"{path}: file not found")
            return
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            self.fieldnames = reader.fieldnames or []
            missing = [c for c in required if c not in self.fieldnames]
            if missing:
                diagnostics.append(f"{path}: missing column(s) {missing}")
            else:
                self.rows = list(reader)

    def records(self, columns: dict, defaults: dict):
        """Each row's id and its cells converted by _convert; a row with any
        problem is reported with its line and skipped."""
        # header is line 1, first data row line 2
        for lineno, row in enumerate(self.rows, start=2):
            if row.get(None) or None in row.values():
                self.error(lineno, f"expected {len(self.fieldnames)} columns")
                continue
            rid = row[self.id_column].strip()
            if not rid:
                self.error(lineno, f"empty {self.id_column}")
                continue
            if rid not in self.linenos:
                self.linenos[rid] = lineno
            elif self.unique:
                self.error(lineno, f"duplicate {self.id_column} {rid!r}")
                continue
            problems: list[str] = []
            values = ref_convert(row, columns, defaults, problems)
            for problem in problems:
                self.error(lineno, problem)
            if not problems:
                yield lineno, rid, values

    def error(self, lineno: int, message: str):
        self.diagnostics.append(f"{self.path}:{lineno}: {message}")


def ref_convert(cells: dict, columns: dict, defaults: dict, problems: list[str]) -> dict:
    """Field values by name from a CSV row or a scenario edit's fields, for
    each column -> (field, conversion) in columns. A blank or absent cell
    takes its field's value from defaults; one without a default, or one that
    does not convert, is appended to problems with its column, what the
    conversion expected and the value."""
    values = {}
    for column, (name, convert) in columns.items():
        raw = cells.get(column, "")
        if isinstance(raw, str):
            raw = raw.strip()
            if not raw:
                if name in defaults:
                    values[name] = defaults[name]
                else:
                    problems.append(f"column {column!r} is empty")
                continue
        try:
            if convert is float and not (isinstance(raw, str) or fits_field_type(raw, "float")):
                raise TypeError  # a YAML bool is no number
            values[name] = convert(raw)
        except (TypeError, ValueError) as exc:
            # float's own message repeats the value; _flag says what it expects
            problem = "not a number" if convert is float else exc
            problems.append(f"column {column!r}: {problem}: {raw!r}")
    return values


def ref_load_zone_rows(path: Path, diagnostics: list[str]):
    """Returns (zones, anchors, linenos, declared) parsed from zones.csv;
    declared names the attributes of its attr: columns."""
    reader = RefRowReader(path, _ZONE_COLUMNS, diagnostics)
    zones: list[Zone] = []
    anchors: dict[str, str] = {}
    # an attr: column's field is the column itself, so it cannot clash with
    # name, x or y; its None default marks a blank cell
    attrs = [(c, c[len(ATTR_PREFIX):]) for c in reader.fieldnames if c.startswith(ATTR_PREFIX)]
    columns = {**_ZONE_FIELDS, **{c: (c, float) for c, _ in attrs}}
    defaults = {**_ZONE_DEFAULTS, **{c: None for c, _ in attrs}}
    for _, zid, values in reader.records(columns, defaults):
        anchors[zid] = values.pop("anchor")
        attributes = {a: v for c, a in attrs if (v := values.pop(c)) is not None}
        zones.append(Zone(zid, **values, attributes=attributes))
    return zones, anchors, reader.linenos, {a for _, a in attrs}


def ref_load_node_rows(path: Path, diagnostics: list[str]) -> list[Node]:
    reader = RefRowReader(path, _NODE_COLUMNS, diagnostics)
    return [Node(nid, **values) for _, nid, values in reader.records(_NODE_FIELDS, _NODE_DEFAULTS)]


def ref_load_link_rows(path: Path, diagnostics: list[str]):
    """Returns (links, linenos) parsed from links.csv."""
    reader = RefRowReader(path, _LINK_REQUIRED, diagnostics)
    links = [Link(lid, **values) for _, lid, values in reader.records(_LINK_FIELDS, _LINK_DEFAULTS)]
    return links, reader.linenos


def ref_load_count_rows(path: Path, diagnostics: list[str]) -> list[dict]:
    # one link may be counted on several rows
    reader = RefRowReader(path, _COUNT_COLUMNS, diagnostics, unique=False)
    return [{"lineno": lineno, "link_id": lid, **values}
            for lineno, lid, values in reader.records(_COUNT_FIELDS, _COUNT_DEFAULTS)]


def ref_resolve_counts(rows, network: Network, source: Path, diagnostics: list[str]):
    """Directional counts; bidirectional rows split 50/50 with the reverse link."""
    reverse_of = {(link.from_node, link.to_node): lid for lid, link in network.links.items()}
    counts: list[TrafficCount] = []
    for row in rows:
        lid = row["link_id"]
        link = network.links.get(lid)
        if link is None:
            diagnostics.append(f"{source}:{row['lineno']}: unknown link {lid!r}")
            continue
        try:
            count = TrafficCount(lid, row["observed"])
        except ValueError as exc:
            diagnostics.append(f"{source}:{row['lineno']}: {exc}")
            continue
        if not row["bidirectional"]:
            counts.append(count)
            continue
        rev = reverse_of.get((link.to_node, link.from_node))
        if rev is None or rev == lid:
            diagnostics.append(
                f"{source}:{row['lineno']}: bidirectional count on {lid!r} "
                "but no reverse link exists"
            )
            continue
        counts.append(TrafficCount(lid, row["observed"] / 2.0))
        counts.append(TrafficCount(rev, row["observed"] / 2.0))
    return counts


REFERENCE_READERS = {"load_zone_rows": ref_load_zone_rows, "load_node_rows": ref_load_node_rows,
                     "load_link_rows": ref_load_link_rows, "load_count_rows": ref_load_count_rows,
                     "_resolve_counts": ref_resolve_counts}


def load_outcome(spec, reference: bool):
    """load_model(spec), or its ModelLoadError's stage and diagnostics; with
    reference=True through the reference readers."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            for name, reader in REFERENCE_READERS.items():
                mp.setattr(model_io, name, reader)
        try:
            return load_model(spec)
        except ModelLoadError as exc:
            return exc.stage, exc.diagnostics


def assert_same_as_reference(spec):
    got = load_outcome(spec, reference=False)
    assert got == load_outcome(spec, reference=True)
    return got


def toy_table(name: str) -> list[list[str]]:
    with open(TOY / name, newline="") as fh:
        return list(csv.reader(fh))


def toy_tables() -> dict[str, list[list[str]]]:
    """data/toy's tables, zones with a second attr: column and counts with a
    bidirectional column, for the reader test to break."""
    tables = {name: toy_table(name) for name in ("zones.csv", "nodes.csv", "links.csv",
                                                 "counts.csv")}
    for k, row in enumerate(tables["zones.csv"]):
        row.append("attr:jobs" if k == 0 else str(1000 * k))
    for k, row in enumerate(tables["counts.csv"]):
        row.append("bidirectional" if k == 0 else ("", "0", "1")[k % 3])
    return tables


# the columns a drawn table may leave out
OPTIONAL_COLUMNS = {"zones.csv": ("attr:jobs",), "links.csv": ("alpha1", "alpha2", "length_km"),
                    "counts.csv": ("bidirectional",)}
CELLS = ("", "  ", " 12.5 ", "3", "-1", "nan", "1e3", "abc", "true", "yes", "maybe", "No",
         "TRUE", "n1", " n2 ", "ghost", "Z1")
EDITS = ("cell", "cell", "short", "long", "blank line", "empty id", "duplicate id")


@st.composite
def broken_tables(draw):
    """data/toy's tables as text, each with its optional columns drawn in or
    out and up to three edits: a cell replaced (blank, padded, not a number,
    a flag), a row cut short or made long, a blank line, an empty id or an
    id repeated from another row."""
    texts = {}
    for name, (header, *rows) in toy_tables().items():
        keep = [i for i, column in enumerate(header)
                if column not in OPTIONAL_COLUMNS.get(name, ()) or draw(st.booleans())]
        header = [header[i] for i in keep]
        rows = [[row[i] for i in keep] for row in rows]
        edit = st.tuples(st.sampled_from(EDITS), st.integers(0, 60), st.integers(0, 9),
                         st.sampled_from(CELLS))
        edits = draw(st.one_of(st.just([]), st.lists(edit, max_size=3)))
        for edit, k, column, cell in edits:
            row = rows[k % len(rows)]
            if edit == "blank line":
                rows.insert(k % (len(rows) + 1), [])
            elif not row:
                continue
            elif edit == "cell":
                row[column % len(row)] = cell
            elif edit == "short":
                del row[-1]
            elif edit == "long":
                row.append(cell)
            elif edit == "empty id":
                row[0] = cell.strip() and " "
            else:
                row[0] = next((r[0] for r in rows[k % len(rows) + 1:] if r), row[0])
        texts[name] = "".join(",".join(row) + "\n" for row in [header, *rows])
    return texts


class TestReferenceReaders:
    """The column-wise table readers against the row-wise ones they replaced."""

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(broken_tables())
    def test_drawn_tables_load_or_fail_as_the_reference(self, texts):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(TOY / "model.yaml", tmp)
            for name, text in texts.items():
                (Path(tmp) / name).write_text(text)
            assert_same_as_reference(Path(tmp) / "model.yaml")

    def test_toy_instance(self):
        assert isinstance(assert_same_as_reference(TOY / "model.yaml"), LoadedModel)

    @pytest.mark.parametrize("size", [(10, 8), (20, 20)], ids=["10x8", "20x20"])
    def test_written_grids(self, tmp_path, size):
        zones, net = grid_region(*size, seed=0)
        strata = [DemandStratum("all", "population", "population", 0.8, 0.08)]
        counts = synthetic_counts(zones, net, strata, n_counts=250)
        spec = write_model(tmp_path, zones, net, counts, strata)
        model = assert_same_as_reference(spec)
        assert model.zones == zones and model.network == net and model.counts == counts

    def test_row_errors_and_cell_problems_interleave_by_line(self, toy_dir):
        links = toy_dir / "links.csv"
        rows = links.read_text().splitlines()
        first_id = rows[1].split(",")[0]
        rows[2] = rows[2].replace(",12.0,", ",fast,", 1)
        rows[3] = first_id + "," + rows[3].split(",", 1)[1]
        rows[4] = rows[4].rsplit(",", 1)[0]
        cells = rows[5].split(",")
        cells[4], cells[6] = "", "steep"
        rows[5] = ",".join(cells)
        rows.insert(6, "")
        rows[7] = "," + rows[7].split(",", 1)[1]
        links.write_text("\n".join(rows) + "\n")
        stage, diagnostics = assert_same_as_reference(toy_dir / "model.yaml")
        assert stage == "parse"
        assert diagnostics == [
            f"{links}:3: column 't0_min': not a number: 'fast'",
            f"{links}:4: duplicate link_id {first_id!r}",
            f"{links}:5: expected 8 columns",
            f"{links}:6: column 'capacity_veh24h' is empty",
            f"{links}:6: column 'alpha2': not a number: 'steep'",
            f"{links}:7: empty link_id",
        ]
