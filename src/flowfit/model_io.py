"""Model file formats: CSV data tables, YAML model spec, scenario edits, exports.

Schemas (all CSV files carry a header row; links are directed, so a two-way
road appears as two rows):

    zones.csv:  zone_id,name,x,y,anchor_node,attr:<name>...
    nodes.csv:  node_id,x,y
    links.csv:  link_id,from_node,to_node,t0_min,capacity_veh24h[,alpha1,alpha2,length_km]
    counts.csv: link_id,observed_veh24h[,bidirectional]

A header names each column once; ids are non-empty, and unique except in
counts.csv. One converter reads every other cell and every scenario edit
field: a blank optional cell takes its field's default, a blank attr: cell
leaves that attribute off the zone.
A count's bidirectional cell reads 1/true/yes or 0/false/no in any case (blank
is no); a bidirectional count is split 50/50 onto the named link and its reverse.
The model spec and scenarios are single YAML mappings; see data/toy/. An
unknown key in any of their mappings is a parse error.
Scenario edits name links.csv columns as fields. load_model reports
network.validate's findings with the file and line of each link or zone.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
import math
import re
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter
from pathlib import Path

import yaml

from .assignment import AssignmentOptions, AssignmentResult
from .calibrate import AnnealingOptions, CalibrationOptions, CalibrationResult, WeightVector
from .demand import (
    DEFAULT_JOBS_CUTOFF,
    DegenerateStratumError,
    DemandStratum,
    Zone,
    ZoneAttributes,
    check_fields,
    derive_jobs,
    fits_field_type,
    ranged,
    require_unique_names,
)
from .metrics import EvaluationReport, SplitExperimentResult, TrafficCount
from .network import Link, Network, Node, findings, validate

ATTR_PREFIX = "attr:"

logger = logging.getLogger(__name__)


def _defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


# a bidirectional cell, in any case; a blank one reads as no
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _flag(raw: str) -> bool:
    if raw.lower() not in _FLAGS:
        raise ValueError(f"expected one of {', '.join(_FLAGS)} or blank")
    return _FLAGS[raw.lower()]


# Each table's columns: the reader requires them, the writer's header starts
# with them, and the first holds the table's ids.
_ZONE_COLUMNS = ("zone_id", "name", "x", "y", "anchor_node")
_NODE_COLUMNS = ("node_id", "x", "y")
_COUNT_COLUMNS = ("link_id", "observed_veh24h")
# Each table's columns after its id -> (field, conversion), read by _convert
# with the defaults beside them; a zone's attr: columns join at read time.
# The fields come in their class's order: the loaders build objects
# positionally.
_ZONE_FIELDS = {"name": ("name", str), "x": ("x", float), "y": ("y", float),
                "anchor_node": ("anchor", str)}
_ZONE_DEFAULTS = {**_defaults(Zone), "anchor": ""}  # validate reports a blank anchor
_NODE_FIELDS = {"x": ("x", float), "y": ("y", float)}
_NODE_DEFAULTS = _defaults(Node)
_COUNT_FIELDS = {"observed_veh24h": ("observed", float),
                 "bidirectional": ("bidirectional", _flag)}
_COUNT_DEFAULTS = {"bidirectional": False}
# links.csv in Link's field order; one map for the reader, the scenario edits
# and the writer. A field with a default in Link makes its column optional.
_LINK_FIELDS = {
    "from_node": ("from_node", str),
    "to_node": ("to_node", str),
    "t0_min": ("t0", float),
    "capacity_veh24h": ("q_max", float),
    "alpha1": ("alpha1", float),
    "alpha2": ("alpha2", float),
    "length_km": ("length", float),
}
_LINK_DEFAULTS = _defaults(Link)
_LINK_REQUIRED = ("link_id", *(c for c, (name, _) in _LINK_FIELDS.items()
                               if name not in _LINK_DEFAULTS))


class ModelLoadError(Exception):
    """Aggregated load failure; stage is "parse" or "validation"."""

    def __init__(self, stage: str, diagnostics: list[str]):
        self.stage = stage
        self.diagnostics = list(diagnostics)
        lines = "\n  ".join(self.diagnostics)
        super().__init__(f"{stage} failed with {len(self.diagnostics)} issue(s):\n  {lines}")


_DERIVATION_METHODS = ("jobs_from_population",)


@dataclass
class DerivationRule:
    attribute: str
    method: str = ranged(_DERIVATION_METHODS)
    source: str
    cutoff: float = ranged("finite and >= 0", DEFAULT_JOBS_CUTOFF)

    def __post_init__(self):
        check_fields(self)


# the keys of model.yaml, of its files section and of a scenario file
_SPEC_KEYS = ("files", "strata", "derivations", "assignment", "calibration")
_FILES_KEYS = ("zones", "nodes", "links", "counts")
_SCENARIO_KEYS = ("name", "edits")

# model.yaml stratum keys that differ from their DemandStratum field
_STRATUM_KEYS = {"deterrence": "deterrence_kind"}


@dataclass
class ModelSpec:
    zones_path: Path
    nodes_path: Path
    links_path: Path
    counts_path: Path | None
    strata: list[DemandStratum]
    derivations: list[DerivationRule]
    assignment: AssignmentOptions
    calibration: CalibrationOptions


@dataclass
class LoadedModel:
    zones: list[Zone]
    network: Network
    counts: list[TrafficCount]
    strata: list[DemandStratum]
    assignment: AssignmentOptions
    calibration: CalibrationOptions


@dataclass
class LinkEdit:
    action: str  # "add_link" | "remove_link" | "modify_link"
    link_id: str
    fields: dict


@dataclass
class Scenario:
    name: str
    edits: list[LinkEdit]


def _fmt(value) -> str:
    """Stable scalar formatting: shortest round-trip repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _RowReader:
    """CSV reader that records per-row diagnostics instead of raising.

    Reads the header, whose columns must be distinct, and every row that is
    not empty; as csv.DictReader does, a blank line is skipped and takes no
    line number. index maps each column to its position. Each row is
    checked once: it must have the header's column count and a non-empty id
    (the first required column), and unique=True also rejects a repeated id.
    linenos maps each id to its first line. records() converts the rows that
    pass, a column at a time.
    """

    def __init__(self, path: Path, required: tuple, diagnostics: list[str], unique: bool = True):
        self.path = path
        self.diagnostics = diagnostics
        self.fieldnames: list[str] = []
        self.index: dict[str, int] = {}
        self.linenos: dict[str, int] = {}
        # the rows that pass the row checks, with their lines and ids, and
        # the (line, message) of each row that does not
        self.rows: list[list[str]] = []
        self.lines: list[int] = []
        self.ids: list[str] = []
        self.errors: list[tuple[int, str]] = []
        if not path.is_file():
            diagnostics.append(f"{path}: file not found")
            return
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            self.fieldnames = next(reader, [])
            self.index = {column: i for i, column in enumerate(self.fieldnames)}
            missing = [c for c in required if c not in self.index]
            if missing:
                diagnostics.append(f"{path}: missing column(s) {missing}")
            repeated = [c for c, i in self.index.items() if self.fieldnames.index(c) != i]
            if repeated:
                diagnostics.append(f"{path}: repeated column(s) {repeated}")
            if missing or repeated:
                return
            rows = [row for row in reader if row]
        id_column, width = required[0], len(self.fieldnames)
        at = self.index[id_column]
        # header is line 1, first data row line 2
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                self.errors.append((lineno, f"expected {width} columns"))
                continue
            rid = row[at].strip()
            if not rid:
                self.errors.append((lineno, f"empty {id_column}"))
                continue
            if rid not in self.linenos:
                self.linenos[rid] = lineno
            elif unique:
                self.errors.append((lineno, f"duplicate {id_column} {rid!r}"))
                continue
            self.rows.append(row)
            self.lines.append(lineno)
            self.ids.append(rid)

    def records(self, columns: dict, defaults: dict):
        """(lines, ids, values) of the rows whose cells all convert, where
        values maps each field of columns to its converted cells, in row
        order; a column the header lacks reads as blank. Writes each row
        check's error and each cell's problem to the diagnostics, by line and
        then by column."""
        index = self.index
        table = list(zip(*self.rows)) or [()] * len(self.fieldnames)
        blank = ("",) * len(self.rows)
        problems: list[tuple[int, str]] = []
        values = _convert({c: table[index[c]] if c in index else blank for c in columns},
                          columns, defaults, problems)
        lines, ids = self.lines, self.ids
        if problems:
            failed = {row for row, _ in problems}
            keep = [row not in failed for row in range(len(ids))]
            lines, ids = list(compress(lines, keep)), list(compress(ids, keep))
            values = {name: list(compress(column, keep)) for name, column in values.items()}
        # a row fails its checks or its cells, never both; the sort is stable
        reported = self.errors + [(self.lines[row], message) for row, message in problems]
        for lineno, message in sorted(reported, key=itemgetter(0)):
            self.diagnostics.append(f"{self.path}:{lineno}: {message}")
        return lines, ids, values


def _convert(cells: dict, columns: dict, defaults: dict, problems: list) -> dict:
    """Field values by name, one list per field, from a table's columns or a
    scenario edit's fields: cells[column] holds the column's raw cells, one
    per row, for each column -> (field, conversion) in columns.

    A column of non-blank strings converts in one pass, and a column blank
    on every row takes its field's value from defaults. Any other column
    converts cell by cell: a blank cell takes its field's default; one
    without a default, or one that does not convert, is appended to problems
    as (row, message), the message naming its column, what the conversion
    expected and the value, and reads as None."""
    values = {}
    for column, (name, convert) in columns.items():
        raw = cells[column]
        try:
            stripped = list(map(str.strip, raw))  # TypeError: a cell that is no string
            if all(stripped):
                values[name] = list(map(convert, stripped))  # ValueError: one that does not convert
                continue
            if name in defaults and not any(stripped):
                values[name] = [defaults[name]] * len(stripped)
                continue
        except (TypeError, ValueError):
            pass
        out = values[name] = []
        for row, cell in enumerate(raw):
            value = None
            if isinstance(cell, str) and not (cell := cell.strip()):
                if name in defaults:
                    value = defaults[name]
                else:
                    problems.append((row, f"column {column!r} is empty"))
            else:
                try:
                    if convert is float and not (isinstance(cell, str)
                                                 or fits_field_type(cell, "float")):
                        raise TypeError  # a YAML bool is no number
                    value = convert(cell)
                except (TypeError, ValueError) as exc:
                    # float's own message repeats the value; _flag says what it expects
                    problem = "not a number" if convert is float else exc
                    problems.append((row, f"column {column!r}: {problem}: {cell!r}"))
            out.append(value)
    return values


def load_zone_rows(path: Path, diagnostics: list[str]):
    """Returns (zones, anchors, linenos, declared) parsed from zones.csv;
    declared names the attributes of its attr: columns."""
    reader = _RowReader(path, _ZONE_COLUMNS, diagnostics)
    # an attr: column's field is the column itself, so it cannot clash with
    # name, x or y; its None default marks a blank cell
    attrs = [(c, c[len(ATTR_PREFIX):]) for c in reader.index if c.startswith(ATTR_PREFIX)]
    columns = {**_ZONE_FIELDS, **{c: (c, float) for c, _ in attrs}}
    defaults = {**_ZONE_DEFAULTS, **{c: None for c, _ in attrs}}
    _, ids, values = reader.records(columns, defaults)
    anchors = dict(zip(ids, values.pop("anchor")))
    names = [a for _, a in attrs]
    cells = zip(*(values.pop(c) for c, _ in attrs)) if attrs else [()] * len(ids)
    zones = [Zone(zid, name, x, y, {a: v for a, v in zip(names, row) if v is not None})
             for zid, name, x, y, row in zip(ids, *values.values(), cells)]
    return zones, anchors, reader.linenos, set(names)


def load_node_rows(path: Path, diagnostics: list[str]) -> list[Node]:
    _, ids, values = _RowReader(path, _NODE_COLUMNS, diagnostics).records(
        _NODE_FIELDS, _NODE_DEFAULTS)
    return list(map(Node, ids, *values.values()))


def load_link_rows(path: Path, diagnostics: list[str]):
    """Returns (links, linenos) parsed from links.csv."""
    reader = _RowReader(path, _LINK_REQUIRED, diagnostics)
    _, ids, values = reader.records(_LINK_FIELDS, _LINK_DEFAULTS)
    return list(map(Link, ids, *values.values())), reader.linenos


def load_count_rows(path: Path, diagnostics: list[str]) -> list[tuple]:
    """Each counts.csv row that reads as (lineno, link_id, observed,
    bidirectional); one link may be counted on several rows."""
    reader = _RowReader(path, _COUNT_COLUMNS, diagnostics, unique=False)
    lines, ids, values = reader.records(_COUNT_FIELDS, _COUNT_DEFAULTS)
    return list(zip(lines, ids, *values.values()))


def _resolve_counts(rows, network: Network, source: Path, diagnostics: list[str]):
    """Directional counts; bidirectional rows split 50/50 with the reverse link."""
    reverse_of = ({(link.from_node, link.to_node): lid for lid, link in network.links.items()}
                  if any(row[3] for row in rows) else {})
    counts: list[TrafficCount] = []
    for lineno, lid, observed, bidirectional in rows:
        link = network.links.get(lid)
        if link is None:
            diagnostics.append(f"{source}:{lineno}: unknown link {lid!r}")
            continue
        try:
            count = TrafficCount(lid, observed)
        except ValueError as exc:
            diagnostics.append(f"{source}:{lineno}: {exc}")
            continue
        if not bidirectional:
            counts.append(count)
            continue
        rev = reverse_of.get((link.to_node, link.from_node))
        if rev is None or rev == lid:
            diagnostics.append(
                f"{source}:{lineno}: bidirectional count on {lid!r} "
                "but no reverse link exists"
            )
            continue
        counts.append(TrafficCount(lid, observed / 2.0))
        counts.append(TrafficCount(rev, observed / 2.0))
    return counts


def _exponent_floats(loader):
    """loader, subclassed to also read an exponent form without a dot or an
    exponent sign, such as 1e-3, 2E4 or 1e5, as a float, as YAML 1.2 does."""
    subclass = type(loader.__name__, (loader,), {})
    subclass.add_implicit_resolver("tag:yaml.org,2002:float", re.compile(
        r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"), list("-+.0123456789"))
    return subclass


# libyaml where PyYAML has it; the pure-Python loader words the diagnostic of
# a file libyaml rejects, which libyaml words otherwise, without the caret
_Loader = _exponent_floats(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
_PureLoader = _exponent_floats(yaml.SafeLoader)


def _read_yaml_mapping(path: Path) -> dict:
    """A YAML file's top-level mapping (an empty file reads as {}), read by
    _Loader, so an unquoted 1e-3 is a number, or by _PureLoader if it rejects it.

    A missing file, invalid YAML or any other top-level value raises
    ModelLoadError(stage="parse").
    """
    if not path.is_file():
        raise ModelLoadError("parse", [f"{path}: file not found"])
    try:
        with open(path) as fh:
            try:
                raw = yaml.load(fh, Loader=_Loader) or {}
            except yaml.YAMLError:
                fh.seek(0)
                raw = yaml.load(fh, Loader=_PureLoader) or {}
    except yaml.YAMLError as exc:
        raise ModelLoadError("parse", [f"{path}: invalid YAML: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ModelLoadError("parse", [f"{path}: expected a mapping at top level"])
    return raw


def _entry(mapping: dict, key: str, kind: type, where: str, diagnostics: list[str]):
    """mapping[key] when it is a `kind`; absent or null reads as an empty
    one. Any other value is a diagnostic naming the key and reads as empty."""
    value = mapping.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        expected = "mapping" if kind is dict else "list"
        diagnostics.append(f"{where}{key}: expected a {expected}, got {value!r}")
        return kind()
    return value


def _unknown_keys(mapping: dict, accepted, where: str, diagnostics: list[str]) -> bool:
    """Whether mapping has keys outside accepted; they give one diagnostic
    that lists them with the accepted ones."""
    unknown = [key for key in mapping if key not in accepted]
    if unknown:
        diagnostics.append(f"{where}: unknown key(s) {unknown}; accepted: {', '.join(accepted)}")
    return bool(unknown)


def _options(cls, values, where: str, diagnostics: list[str]):
    """cls(**values), which checks each value's type and range. A value that
    is not a mapping, unknown keys (listed with the accepted ones), a missing
    key, or a value cls rejects with TypeError or ValueError give one
    diagnostic and None."""
    if not isinstance(values, dict):
        diagnostics.append(f"{where}: expected a mapping, got {values!r}")
        return None
    if _unknown_keys(values, [f.name for f in dataclasses.fields(cls)], where, diagnostics):
        return None
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        diagnostics.append(f"{where}: {exc}")
        return None


def _parse_spec(path: Path) -> ModelSpec:
    diagnostics: list[str] = []
    raw = _read_yaml_mapping(path)
    where = f"{path}: "
    _unknown_keys(raw, _SPEC_KEYS, str(path), diagnostics)

    base = path.parent
    files = _entry(raw, "files", dict, where, diagnostics)
    _unknown_keys(files, _FILES_KEYS, f"{where}files", diagnostics)
    for key in _FILES_KEYS:
        name = files.get(key) or ""
        if not isinstance(name, str):
            diagnostics.append(f"{path}: files.{key}: expected a file name, got {name!r}")
        elif not name and key != "counts":
            diagnostics.append(f"{path}: files.{key} is required")

    raw_strata = _entry(raw, "strata", list, where, diagnostics)
    if not raw_strata:
        diagnostics.append(f"{path}: at least one stratum is required")
    strata: list[DemandStratum] = []
    for i, s in enumerate(raw_strata):
        if isinstance(s, dict):
            s = {_STRATUM_KEYS.get(key, key): value for key, value in s.items()}
        stratum = _options(DemandStratum, s, f"{where}strata[{i}]", diagnostics)
        if stratum is not None:
            strata.append(stratum)
    try:
        require_unique_names(strata)
    except ValueError as exc:
        diagnostics.append(f"{path}: {exc}")

    derivations = [_options(DerivationRule, d, f"{where}derivations[{i}]", diagnostics)
                   for i, d in enumerate(_entry(raw, "derivations", list, where, diagnostics))]

    assignment = _options(AssignmentOptions, _entry(raw, "assignment", dict, where, diagnostics),
                          f"{where}assignment", diagnostics)

    cal_raw = dict(_entry(raw, "calibration", dict, where, diagnostics))
    cal_where = f"{path}: calibration."
    for key in ("bounds", "bound_overrides", "sa"):
        cal_raw[key] = _entry(cal_raw, key, dict, cal_where, diagnostics)
    # sa is read on its own, so its problems are reported beside the section's
    if _options(AnnealingOptions, cal_raw["sa"], f"{cal_where}sa", diagnostics) is None:
        cal_raw["sa"] = {}
    calibration = _options(CalibrationOptions, cal_raw, f"{where}calibration", diagnostics)
    if not diagnostics:
        # the strata's weights in the calibration box, as calibrate checks them
        try:
            WeightVector.from_strata(strata, calibration.bounds, calibration.bound_overrides)
        except ValueError as exc:
            diagnostics.append(f"{where}calibration: {exc}")

    if diagnostics:
        raise ModelLoadError("parse", diagnostics)
    counts_path = base / files["counts"] if files.get("counts") else None
    return ModelSpec(
        zones_path=base / files["zones"],
        nodes_path=base / files["nodes"],
        links_path=base / files["links"],
        counts_path=counts_path,
        strata=strata,
        derivations=derivations,
        assignment=assignment,
        calibration=calibration,
    )


def _unknown_attributes(zones: list[Zone], declared: set[str], rules: list[DerivationRule],
                        strata) -> list[str]:
    """One walk over the attributes in use: a derivation's source must be set
    on a zone or derived by an earlier rule, a stratum's attributes set or
    derived by any rule. An attribute that is declared (an attr: column) but
    set on no zone is reported as blank on every zone."""
    known = {a for z in zones for a in z.attributes}
    issues: list[str] = []

    def require(owner: str, attr: str):
        if attr in known:
            return
        problem = ("is blank on every zone" if attr in declared
                   else "is neither declared on any zone nor derived")
        issues.append(f"{owner}: attribute {attr!r} {problem}")

    for rule in rules:
        require(f"derivation of {rule.attribute!r}", rule.source)
        known.add(rule.attribute)
    for s in strata:
        require(f"stratum {s.name!r}", s.production_attr)
        require(f"stratum {s.name!r}", s.attraction_attr)
    return issues


def _apply_derivations(zones: list[Zone], rules: list[DerivationRule]) -> list[Zone]:
    if not rules:
        return zones
    out = []
    for zone in zones:
        attrs = dict(zone.attributes)
        for rule in rules:
            attrs[rule.attribute] = derive_jobs(attrs.get(rule.source, 0.0), rule.cutoff)
        out.append(dataclasses.replace(zone, attributes=attrs))
    return out


def load_model(path) -> LoadedModel:
    """Parse, derive attributes, and validate a complete model instance.

    Parse problems raise ModelLoadError(stage="parse"); semantic problems
    (network.validate's findings, each with its links.csv or zones.csv line,
    unknown or negative attributes, unresolved counts) are aggregated and
    raised as ModelLoadError(stage="validation"); when there are none, so is
    a stratum whose production or attraction attribute is zero on every zone.
    A blank attr: cell that a stratum reads counts as 0, with one warning
    naming its zones.csv line.
    """
    path = Path(path)
    spec = _parse_spec(path)

    parse_diag: list[str] = []
    zones, anchors, zone_lines, declared = load_zone_rows(spec.zones_path, parse_diag)
    nodes = load_node_rows(spec.nodes_path, parse_diag)
    links, link_lines = load_link_rows(spec.links_path, parse_diag)
    count_rows = load_count_rows(spec.counts_path, parse_diag) if spec.counts_path else []
    if parse_diag:
        raise ModelLoadError("parse", parse_diag)

    # the readers already dropped duplicate ids, so from_parts does not raise
    network = Network.from_parts(nodes, links, anchors)
    diagnostics: list[str] = []
    lines = {"links": (spec.links_path, link_lines), "zones": (spec.zones_path, zone_lines)}
    for table, rid, message in findings(network):
        source, linenos = lines[table]
        diagnostics.append(f"{source}:{linenos[rid]}: {message}")
    diagnostics.extend(_unknown_attributes(zones, declared, spec.derivations, spec.strata))
    zones = _apply_derivations(zones, spec.derivations)
    for zone in zones:
        for attr, value in zone.attributes.items():
            if not 0 <= value < math.inf:
                diagnostics.append(
                    f"{spec.zones_path}:{zone_lines[zone.zone_id]}: "
                    f"attribute {attr!r} must be finite and >= 0, got {value!r}"
                )
    counts = _resolve_counts(count_rows, network, spec.counts_path, diagnostics)
    if not diagnostics:  # each stratum's attributes are known and valid
        for stratum in spec.strata:
            try:
                ZoneAttributes(zones).vectors(stratum)
            except DegenerateStratumError as exc:
                diagnostics.append(f"{spec.zones_path}: {exc}")
    if diagnostics:
        raise ModelLoadError("validation", diagnostics)
    used = sorted({a for s in spec.strata for a in (s.production_attr, s.attraction_attr)})
    for zone in zones:
        for attr in used:
            if attr not in zone.attributes:
                logger.warning("%s:%d: attribute %r is blank; treated as 0",
                               spec.zones_path, zone_lines[zone.zone_id], attr)
    return LoadedModel(zones, network, counts, spec.strata, spec.assignment, spec.calibration)


def load_scenario(path) -> Scenario:
    """A scenario file's name (a string, the file's stem when absent) and
    list of edits, each a mapping with an action and a non-empty link_id
    string. Any problem raises ModelLoadError(stage="parse")."""
    path = Path(path)
    raw = _read_yaml_mapping(path)
    where = f"{path}: "
    diagnostics: list[str] = []
    _unknown_keys(raw, _SCENARIO_KEYS, str(path), diagnostics)
    name = raw.get("name", path.stem)
    if not isinstance(name, str):
        diagnostics.append(f"{where}name: expected a string, got {name!r}")
    edits: list[LinkEdit] = []
    for i, e in enumerate(_entry(raw, "edits", list, where, diagnostics)):
        if not isinstance(e, dict):
            diagnostics.append(f"{where}edits[{i}]: expected a mapping, got {e!r}")
            continue
        action = e.get("action")
        if action not in ("add_link", "remove_link", "modify_link"):
            diagnostics.append(f"{where}edits[{i}]: unknown action {action!r}")
            continue
        link_id = e.get("link_id")
        if not (isinstance(link_id, str) and link_id):
            diagnostics.append(
                f"{where}edits[{i}]: link_id must be a non-empty string, got {link_id!r}")
            continue
        fields = {k: v for k, v in e.items() if k not in ("action", "link_id")}
        edits.append(LinkEdit(action, link_id, fields))
    if diagnostics:
        raise ModelLoadError("parse", diagnostics)
    return Scenario(name=name, edits=edits)


def apply_scenario(network: Network, scenario: Scenario) -> Network:
    """Edited copy of the network; the base network is never touched.

    add_link and modify_link take links.csv columns as fields; any other
    field, and any field on remove_link, is rejected. The edited network is
    revalidated; a bad edit or any violated invariant raises
    ModelLoadError(stage="validation").
    """
    links = dict(network.links)
    diagnostics: list[str] = []
    for edit in scenario.edits:
        if edit.action == "remove_link":
            if edit.link_id not in links:
                diagnostics.append(f"remove_link: unknown link {edit.link_id!r}")
            elif edit.fields:
                diagnostics.extend(f"remove_link {edit.link_id!r}: unknown field {key!r}"
                                   for key in edit.fields)
            else:
                del links[edit.link_id]
            continue
        if edit.action == "add_link":
            if edit.link_id in links:
                diagnostics.append(f"add_link: link {edit.link_id!r} already exists")
                continue
            base = _LINK_DEFAULTS
        else:  # modify_link: fields it does not name keep their values
            if edit.link_id not in links:
                diagnostics.append(f"modify_link: unknown link {edit.link_id!r}")
                continue
            base = dataclasses.asdict(links[edit.link_id])
        problems = [f"unknown field {key!r}" for key in edit.fields if key not in _LINK_FIELDS]
        cell_problems: list[tuple[int, str]] = []
        # each field a one-cell column; a field the edit leaves out reads as blank
        values = _convert({c: [edit.fields.get(c, "")] for c in _LINK_FIELDS}, _LINK_FIELDS,
                          base, cell_problems)
        problems += [p for _, p in cell_problems]
        if problems:
            diagnostics.extend(f"{edit.action} {edit.link_id!r}: {p}" for p in problems)
        else:
            links[edit.link_id] = Link(edit.link_id, *(column[0] for column in values.values()))
    if diagnostics:
        raise ModelLoadError("validation", diagnostics)
    edited = Network(dict(network.nodes), links, dict(network.zone_anchors))
    issues = validate(edited)
    if issues:
        raise ModelLoadError("validation", issues)
    return edited


# ---------------------------------------------------------------------------
# Writers. All CSVs use "\n" line endings and round-trip float formatting so
# identical runs produce byte-identical outputs under the same BLAS thread
# count: at 30x30 zones (not at 20x20) Furness's matrix-vector products
# split across threads, and the balanced trips move in the last bits.

def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _strata_yaml(strata) -> list[dict]:
    """Strata as model.yaml `strata:` entries; DemandStratum holds its numbers
    as plain floats."""
    keys = {f: k for k, f in _STRATUM_KEYS.items()}
    return [{keys.get(f, f): v for f, v in dataclasses.asdict(s).items()} for s in strata]


def write_model(
    directory,
    zones,
    network: Network,
    counts,
    strata,
    assignment: AssignmentOptions | None = None,
    calibration: CalibrationOptions | None = None,
) -> Path:
    """Write a complete model instance; returns the model.yaml path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    attr_names = sorted({a for z in zones for a in z.attributes})

    _write_csv(
        directory / "zones.csv",
        [*_ZONE_COLUMNS] + [ATTR_PREFIX + a for a in attr_names],
        ([z.zone_id, z.name, _fmt(z.x), _fmt(z.y), network.zone_anchors[z.zone_id]]
         + [_fmt(z.attributes[a]) if a in z.attributes else "" for a in attr_names]
         for z in zones),
    )
    _write_csv(directory / "nodes.csv", _NODE_COLUMNS,
               ([n.node_id, _fmt(n.x), _fmt(n.y)] for _, n in sorted(network.nodes.items())))
    _write_csv(
        directory / "links.csv",
        ["link_id", *_LINK_FIELDS],
        ([l.link_id] + [_fmt(getattr(l, name)) for name, _ in _LINK_FIELDS.values()]
         for _, l in sorted(network.links.items())),
    )
    _write_csv(directory / "counts.csv", _COUNT_COLUMNS,
               ([c.link_id, _fmt(c.observed)] for c in counts))

    assignment = assignment or AssignmentOptions()
    calibration = calibration or CalibrationOptions()
    config = {
        "files": {table: f"{table}.csv" for table in ("zones", "nodes", "links", "counts")},
        "strata": _strata_yaml(strata),
        "assignment": dataclasses.asdict(assignment),
        # empty mappings are left out, so a default spec carries none
        "calibration": {k: v for k, v in dataclasses.asdict(calibration).items() if v != {}},
    }
    spec_path = directory / "model.yaml"
    with open(spec_path, "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    return spec_path


def write_flows_csv(path, result: AssignmentResult) -> None:
    names = sorted(result.per_stratum)
    columns = [result.total.tolist()] + [result.per_stratum[s].tolist() for s in names]
    rows = dict(zip(result.link_ids, zip(*columns)))
    _write_csv(path, ["link_id", "flow_total"] + [f"flow:{s}" for s in names],
               ([lid] + [_fmt(q) for q in rows[lid]] for lid in sorted(rows)))


def write_scatter_csv(path, report: EvaluationReport) -> None:
    _write_csv(path, ["link_id", "observed_veh24h", "predicted_veh24h", "geh_hourly"],
               ([e.link_id, _fmt(e.observed), _fmt(e.predicted), _fmt(e.geh)]
                for e in report.per_link))


def write_history_csv(path, result: CalibrationResult) -> None:
    names = [f"{e.stratum}.{e.param}" for e in result.best_weights.entries]
    _write_csv(path, ["evaluation", "objective"] + names,
               ([idx, _fmt(objective)] + [_fmt(float(v)) for v in x]
                for idx, objective, x in result.history))


def write_split_csv(path, results: list[SplitExperimentResult]) -> None:
    _write_csv(path, ["fraction", "seed", "train_geh", "test_geh"],
               ([_fmt(r.split_fraction), r.seed, _fmt(r.train_geh), _fmt(r.test_geh)]
                for r in results))


def write_compare_csv(path, base_flows, scenario_flows) -> dict:
    """Per-link flow deltas, written and returned by link id; links absent
    from one side count as zero flow."""
    deltas = {}
    rows = []
    for lid in sorted(set(base_flows) | set(scenario_flows)):
        qb = base_flows.get(lid, 0.0)
        qs = scenario_flows.get(lid, 0.0)
        deltas[lid] = qs - qb
        rows.append([lid, _fmt(qb), _fmt(qs), _fmt(deltas[lid])])
    _write_csv(path, ["link_id", "flow_base", "flow_scenario", "delta"], rows)
    return deltas


def write_weights_yaml(path, strata) -> None:
    """Calibrated strata in the model.yaml `strata:` format, ready to paste back."""
    with open(path, "w") as fh:
        yaml.safe_dump({"strata": _strata_yaml(strata)}, fh, sort_keys=False)
