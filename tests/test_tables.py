"""The stage CSV tables: one reader, one writer, errors that name file and line.

Every table a subcommand reads is checked three ways: a matrix of broken
files run through the CLI, a write-then-read round trip on generated
rows (labels with commas, quotes, line breaks and non-ASCII text), and
every byte-prefix of a written file, which must read cleanly or fail
with one error naming the file and a line. The ambient event log, one
JSON object per line, gets the round trip and the prefix check too. A
prefix of an inertial log reads back its leading samples or names a line,
and one of a model file names a line unless it holds the whole object.
Every input kind reports a byte that is not UTF-8 the same way, and
`tables` is the only module that opens an input file.
"""

import ast
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from homeactivity import (
    ambient, cli, features, fusion, labelling, neural, occupancy, pipeline, simulate, timeseries,
)
from homeactivity.ambient import APPLIANCES, EVENT_KINDS, ROOMS, AmbientEvent, EventParseError
from homeactivity.features import FeatureLayoutError
from homeactivity.fusion import DerivedActivity, FusionRule, FusionRuleTable, RuleFileError
from homeactivity.labelling import PriorityFileError, PriorityTable, WindowLabel
from homeactivity.neural import CentroidModel, LayerSpec, WeightsBundle, save_centroids
from homeactivity.occupancy import Interval
from homeactivity.simulate import ScheduleEntry, ScriptError
from homeactivity.tables import TableError, read_table, write_table
from homeactivity.timeseries import SampleSeries

SETTINGS = settings(max_examples=20, deadline=None)


class TestReadTable:
    COLUMNS = ("ts", "name")

    def read(self, path, text):
        path.write_text(text, encoding="utf-8", newline="")
        return read_table(path, self.COLUMNS, lambda ts, name: (int(ts), name))

    def test_columns_are_read_by_name(self, tmp_path):
        rows = self.read(tmp_path / "t.csv", "name,ts\r\na,1\r\n\r\nb,2\r\n")
        assert rows == [(1, "a"), (2, "b")]

    @pytest.mark.parametrize(
        "header, reason",
        [
            ("ts", "missing column name"),
            ("ts,name,extra", "expected columns ts, name, got ts, name, extra"),
            ("ts,name,ts", "expected columns ts, name, got ts, name, ts"),
            ("", "missing column ts, name"),
        ],
    )
    def test_header_must_hold_exactly_the_columns(self, tmp_path, header, reason):
        path = tmp_path / "t.csv"
        with pytest.raises(TableError) as exc:
            self.read(path, header + "\r\n1,a\r\n")
        assert str(exc.value) == f"{path}: line 1: {reason}"

    def test_long_row(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(TableError, match=r"line 3: expected 2 fields, got 3$"):
            self.read(path, "ts,name\r\n1,a\r\n2,b,c\r\n")

    def test_bad_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"ts,name\r\n1,a\r\n2,\xff\r\n")
        with pytest.raises(TableError) as exc:
            read_table(path, self.COLUMNS, lambda ts, name: (int(ts), name))
        assert str(exc.value) == f"{path}: line 3: not UTF-8"

    def test_writer_rows_end_in_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, self.COLUMNS, [(1, "a,b"), (2, 'say "hi"')])
        assert path.read_bytes() == b'ts,name\r\n1,"a,b"\r\n2,"say ""hi"""\r\n'


# --- the CLI error matrix ----------------------------------------------------


def _companions(tmp):
    """Well-formed files for the inputs a command reads besides the broken one."""
    pipeline.write_basic_windows(tmp / "good_windows.csv", [(0, 6400, "Sit"), (3200, 9600, "Sit")])
    occupancy.write_intervals(tmp / "good_intervals.csv", [Interval(0, 9600, "pir", "Hall")])
    fusion.write_derived(tmp / "good_derived.csv", [(0, 5000, DerivedActivity("Sitting in Hall"))])
    save_centroids(
        tmp / "centroids.json",
        CentroidModel(("Sit", "Walk"), np.zeros((2, 43)), features.LAYOUT_ACC, np.ones(43)),
    )


# table -> (writer of a two-row sample, command reading it, integer column).
# The rule table has no integer column; its bad value is an unknown flag.
MATRIX = {
    "basic_windows": (
        lambda p: pipeline.write_basic_windows(p, [(0, 6400, "Sit"), (3200, 9600, "Walk")]),
        lambda t, bad: ["fuse", "--windows", bad, "--intervals", t / "good_intervals.csv"],
        0,
    ),
    "intervals": (
        lambda p: occupancy.write_intervals(
            p, [Interval(0, 5000, "pir", "Hall"), Interval(5000, 9000, "pir", "Kitchen")]
        ),
        lambda t, bad: ["fuse", "--windows", t / "good_windows.csv", "--intervals", bad],
        2,
    ),
    "derived": (
        lambda p: fusion.write_derived(
            p, [(0, 5000, DerivedActivity("Sitting in Hall")),
                (5000, 10000, DerivedActivity("Walking"))]
        ),
        lambda t, bad: ["label", "--in", bad],
        0,
    ),
    "window_labels": (
        lambda p: labelling.write_window_labels(
            p, [WindowLabel(0, 120_000, "Sitting", "frequency"),
                WindowLabel(120_000, 240_000, "Walking", "frequency")]
        ),
        lambda t, bad: ["profile", "--in", bad],
        1,
    ),
    "script": (
        lambda p: simulate.write_script(
            p, [ScheduleEntry(21_600_000, 480_000, "Bedroom", "Lie"),
                ScheduleEntry(22_080_000, 240_000, "Kitchen", "Sit")]
        ),
        lambda t, bad: ["simulate", "--script", bad],
        1,
    ),
    "priorities": (
        lambda p: oracles.write_priorities(
            p, PriorityTable({"Drinking Activity": 1, "Walking Outside": 2})
        ),
        lambda t, bad: ["label", "--in", t / "good_derived.csv", "--priorities", bad],
        1,
    ),
    "rules": (
        lambda p: oracles.write_rules(
            p, FusionRuleTable([
                FusionRule("Sit", "Hall", None, DerivedActivity("Sitting in Hall")),
                FusionRule("Walk", "Hall", None, DerivedActivity("Walking in Hall")),
            ])
        ),
        lambda t, bad: ["fuse", "--windows", t / "good_windows.csv",
                        "--intervals", t / "good_intervals.csv", "--rules", bad],
        4,
    ),
    "features": (
        lambda p: features.write_features(
            p, np.zeros((2, 43)), [(0, 6400), (3200, 9600)], features.LAYOUT_ACC
        ),
        lambda t, bad: ["classify", "--in", bad, "--model", t / "centroids.json"],
        0,
    ),
}


def _break(text: str, case: str, int_col: int) -> tuple[str, int]:
    """A broken copy of a written table, and the line its error must name."""
    lines = text.splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if i > 0 and not line.startswith("#")]

    def edit(i, fn):
        body = lines[i].rstrip("\r\n")
        lines[i] = ",".join(fn(body.split(","))) + lines[i][len(body):]

    if case == "missing_column":
        for i in [0] + rows:
            edit(i, lambda fields: fields[:-1])
        return "".join(lines), 1
    if case == "short_row":
        edit(rows[0], lambda fields: fields[:-1])
        return "".join(lines), rows[0] + 1
    if case == "bad_integer":
        edit(rows[0], lambda fields: fields[:int_col] + ["x1"] + fields[int_col + 1:])
        return "".join(lines), rows[0] + 1
    assert case == "truncated"
    return "".join(lines[:-1]) + lines[-1][:2], len(lines)


@pytest.mark.parametrize("case", ["missing_column", "short_row", "bad_integer", "truncated"])
@pytest.mark.parametrize("table", sorted(MATRIX))
def test_cli_names_the_file_and_line(table, case, tmp_path, capsys):
    write, command, int_col = MATRIX[table]
    _companions(tmp_path)
    sample = tmp_path / "sample.csv"
    write(sample)
    text, line = _break(sample.read_bytes().decode(), case, int_col)
    bad = tmp_path / f"{table}.csv"
    bad.write_bytes(text.encode())
    argv = [str(a) for a in command(tmp_path, bad)] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    lines = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"error: {bad}: line {line}: "), lines[0]


@pytest.mark.parametrize("table, row, reason", [
    ("good_windows.csv", "6400,12800,Dance", "unknown basic activity 'Dance'"),
    ("good_intervals.csv", "pir,Attic,0,9600,0", "unknown room 'Attic'"),
    ("good_intervals.csv", "relay,toaster,2000,9000,0", "unknown appliance 'toaster'"),
])
def test_fuse_names_the_line_of_an_unknown_name(table, row, reason, tmp_path, capsys):
    _companions(tmp_path)
    bad = tmp_path / table
    bad.write_bytes(bad.read_bytes() + row.encode() + b"\r\n")
    lines = bad.read_bytes().count(b"\n")
    argv = ["fuse", "--windows", str(tmp_path / "good_windows.csv"),
            "--intervals", str(tmp_path / "good_intervals.csv"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
    assert err == [f"error: {bad}: line {lines}: {reason}"]


# input kind -> (the header of a file of that kind, command reading it)
HEADED = {
    "events": ("", lambda t, bad: ["occupancy", "--events", bad]),
    "rules": ("basic,room,appliance,derived_name,flag",
              lambda t, bad: ["fuse", "--windows", t / "good_windows.csv",
                              "--intervals", t / "good_intervals.csv", "--rules", bad]),
    "priorities": ("activity,priority",
                   lambda t, bad: ["label", "--in", t / "good_derived.csv", "--priorities", bad]),
    "window_labels": ("window_start,window_end,label,method",
                      lambda t, bad: ["profile", "--in", bad]),
    "window_labels_csv": ("window_start,window_end,label,method",
                          lambda t, bad: ["report", "--in", bad, "--format", "csv"]),
    "intervals": ("kind,location,start_ts,end_ts,truncated",
                  lambda t, bad: ["fuse", "--windows", t / "good_windows.csv",
                                  "--intervals", bad]),
    "script": ("clock_start,duration_s,room,basic,appliances",
               lambda t, bad: ["simulate", "--script", bad]),
}


@pytest.mark.parametrize("kind, row, reason", [
    ("events", '{"payload": "1", "topic": "home/relay/toaster", "ts": 0}',
     "line 1: unknown appliance 'toaster'"),
    ("events", '{"topic": "home/pir/Hall", "ts": 0}', "line 1: missing field 'payload'"),
    ("events", "[1, 2]", "line 1: event line must be a JSON object"),
    ("rules", "Dance,Hall,,X,Normal", "line 2: unknown basic activity 'Dance'"),
    ("rules", "Sit,Hall,toaster,X,Normal", "line 2: unknown appliance 'toaster'"),
    ("rules", "Sit,Hall,,,Normal", "line 2: empty derived_name"),
    ("priorities", ",1", "line 2: empty activity name"),
    ("priorities", "Walk,0", "line 2: priority must be >= 1"),
    ("window_labels", "6400,6400,Sit,frequency", "line 2: empty window [6400, 6400)"),
    ("window_labels", None, "line 2: no windows to profile"),
    ("window_labels_csv", None, "line 2: no windows to profile"),
    ("intervals", "pir,Hall,9600,9600,0", "line 2: empty interval [9600, 9600)"),
    ("intervals", "door,Hall,0,9600,0", "line 2: unknown interval kind 'door'"),
    ("script", "06:00:00,0,Hall,Sit,", "line 2: duration must be positive, got 0"),
    ("script", "6h,60,Hall,Sit,", "line 2: bad clock time '6h'"),
    ("script", "24:00,60,Hall,Sit,", "line 2: bad clock time '24:00'"),
])
def test_a_refused_row_is_one_error_line_naming_it(kind, row, reason, tmp_path, capsys):
    """Each reader's refusal of a row, or of a table with no row (None), is
    one `error: <file>: line N: ` line, and the command writes no output."""
    header, command = HEADED[kind]
    _companions(tmp_path)
    bad, out = tmp_path / f"{kind}.in", tmp_path / "out"
    bad.write_text("".join(f"{line}\r\n" for line in (header, row) if line),
                   encoding="utf-8", newline="")
    assert cli.main([str(a) for a in command(tmp_path, bad)] + ["--out", str(out)]) == 1
    err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
    assert err == [f"error: {bad}: {reason}"]
    assert not out.exists()


def _inertial(path, first_semicolon=True):
    """A 400-line (14 kB) inertial log; its first line may lack its `;`."""
    ts = 50 * np.arange(400, dtype=np.int64)
    timeseries.write_inertial(path, SampleSeries("s", ts, np.ones((400, 3))))
    if not first_semicolon:
        path.write_bytes(path.read_bytes().replace(b";", b"", 1))


# input kind -> (writer of a good file, command reading it), beyond MATRIX.
INPUTS = {
    "events": (
        lambda p: ambient.write_events(p, [AmbientEvent(0, "pir", "Hall", True),
                                           AmbientEvent(9_600, "pir", "Hall", False)]),
        lambda t, bad: ["occupancy", "--events", bad],
    ),
    "inertial": (
        _inertial,
        lambda t, bad: ["filter", "--in", bad],
    ),
    # Its first block fails the columnar shape, so the per-line reader
    # meets the byte: it lies past the first 8 kB the decoder reads.
    "inertial_per_line": (
        lambda p: _inertial(p, first_semicolon=False),
        lambda t, bad: ["filter", "--in", bad],
    ),
    "model": (
        lambda p: save_centroids(
            p, CentroidModel(("Sit", "Walk"), np.zeros((2, 43)), features.LAYOUT_ACC,
                             np.ones(43))),
        lambda t, bad: ["classify", "--in", t / "features.csv", "--model", bad],
    ),
    "config": (
        lambda p: p.write_text(json.dumps({"span": 2, "timezone": "UTC"}, indent=1)),
        lambda t, bad: ["label", "--in", t / "good_derived.csv", "--config", bad],
    ),
    **{table: (write, command) for table, (write, command, _col) in MATRIX.items()},
}


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_a_byte_that_is_not_utf8_names_its_line(kind, tmp_path, capsys, monkeypatch):
    """\\xff on the last line k of each input: `error: <file>: line k: not UTF-8`."""
    monkeypatch.setattr(timeseries, "_BLOCK_LINES", 4)  # the log spans 100 blocks
    write, command = INPUTS[kind]
    _companions(tmp_path)
    MATRIX["features"][0](tmp_path / "features.csv")
    bad = tmp_path / f"{kind}.in"
    write(bad)
    lines = bad.read_bytes().splitlines(keepends=True)
    body = lines[-1].rstrip(b"\r\n")
    lines[-1] = body + b"\xff" + lines[-1][len(body):]
    bad.write_bytes(b"".join(lines))
    argv = [str(a) for a in command(tmp_path, bad)] + ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 1
    err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
    assert err == [f"error: {bad}: line {len(lines)}: not UTF-8"]


def _reads_a_file(call: ast.Call) -> bool:
    """Whether the call opens a file for reading (a mode that is not one
    of w, a or x without +, or no mode at all), or reads one whole."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_bytes", "read_text"):
        return True
    if name == "load":
        return isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "json"
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode); Path.open(mode)
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    modes = [mode.body, mode.orelse] if isinstance(mode, ast.IfExp) else [mode]
    return not all(
        isinstance(m, ast.Constant) and isinstance(m.value, str)
        and set(m.value) & set("wax") and "+" not in m.value
        for m in modes
    )


def _file_reads(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and _reads_a_file(node)]


def test_the_guard_sees_each_way_to_read_a_file():
    reads = ["open(p)", "open(p, 'rb')", "open(p, mode='r+')", "Path(p).open()",
             "p.read_text()", "p.read_bytes()", "json.load(fh)", "open(p, 'w' if a else 'r')"]
    writes = ["open(p, 'w')", "open(p, 'a' if a else 'w', encoding='utf-8')",
              "open(p, mode='xb')", "Path(p).open('w')", "json.loads(s)", "json.dump(d, fh)"]
    assert _file_reads("\n".join(reads)) == list(range(1, len(reads) + 1))
    assert _file_reads("\n".join(writes)) == []


def test_tables_is_the_only_module_that_reads_a_file():
    package = Path(cli.__file__).parent
    found = {path.name: _file_reads(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert found.pop("tables.py")
    assert {name: lines for name, lines in found.items() if lines} == {}


# --- round trips and truncations over generated rows --------------------------

# Commas, quotes, line breaks and non-ASCII text turn up often.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(',"\r\n é中'),
               max_size=10)
# Fields the readers strip, in files read line by line: no edge spaces, no breaks.
NAME = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")) | st.sampled_from(',"é中'),
    min_size=1, max_size=10,
).filter(lambda s: s == s.strip())
TS = st.integers(0, 2**53)


@st.composite
def spans(draw):
    start = draw(TS)
    return start, start + draw(st.integers(1, 10**7))


@st.composite
def scripts(draw):
    entries, clock = [], 0
    for gap, duration, room, basic, appliances in draw(st.lists(st.tuples(
        st.integers(0, 3600), st.integers(1, 7200), st.sampled_from(ROOMS),
        st.sampled_from(simulate.CLASSIFIER_CLASSES),
        st.frozensets(st.sampled_from(APPLIANCES)),
    ), min_size=1, max_size=5)):
        clock += gap
        if clock >= 86_400:
            break
        entries.append(ScheduleEntry(clock * 1000, duration * 1000, room, basic, appliances))
        clock += duration
    return entries


@st.composite
def rule_tables(draw):
    rules = []
    for basic, room, appliance, name, flag in draw(st.lists(st.tuples(
        st.none() | st.sampled_from(fusion.BASIC_ACTIVITIES), st.none() | st.sampled_from(ROOMS),
        st.none() | st.sampled_from(APPLIANCES), NAME, st.sampled_from(fusion.FLAGS),
    ), min_size=1, max_size=5)):
        if basic is None and room is None and appliance is None:
            room = ROOMS[0]
        rules.append(FusionRule(basic, room, appliance, DerivedActivity(name, flag)))
    return FusionRuleTable(rules)


@st.composite
def priority_tables(draw):
    names = draw(st.lists(NAME, max_size=5, unique_by=str.lower))
    ranks = draw(st.lists(st.none() | st.integers(1, 99), min_size=len(names),
                          max_size=len(names)))
    return PriorityTable(
        {n: r for n, r in zip(names, ranks) if r is not None},
        [n for n, r in zip(names, ranks) if r is None],
    )


@st.composite
def feature_files(draw):
    n = draw(st.integers(0, 2))
    values = st.floats(allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n, 43), elements=values)), draw(
        st.lists(spans(), min_size=n, max_size=n)
    )


def _features_read(path):
    matrix, spans_back, layout = features.read_features(path)
    return matrix.tolist(), spans_back, layout


def _features_want(value):
    matrix, spans_in = value
    return [[float(f"{v:.9g}") for v in row] for row in matrix], spans_in, features.LAYOUT_ACC


# table -> (strategy, writer, reader, value the reader must return, error classes)
TABLES = {
    "basic_windows": (
        st.lists(st.tuples(TS, TS, TEXT), max_size=5),
        pipeline.write_basic_windows, pipeline.read_basic_windows, list, (TableError,),
    ),
    "intervals": (
        st.lists(st.builds(
            lambda s, kind, room, appliance, trunc: Interval(
                *s, kind, room if kind == "pir" else appliance, trunc),
            spans(), st.sampled_from(EVENT_KINDS), st.sampled_from(ROOMS),
            st.sampled_from(APPLIANCES), st.booleans(),
        ), max_size=5),
        occupancy.write_intervals, occupancy.read_intervals, list, (TableError,),
    ),
    "derived": (
        st.lists(st.tuples(TS, st.builds(DerivedActivity, TEXT, st.sampled_from(fusion.FLAGS))),
                 max_size=5),
        lambda p, timeline: fusion.write_derived(p, oracles.runs_of_ticks(timeline, 5000)),
        fusion.read_derived, list, (TableError,),
    ),
    "window_labels": (
        st.lists(st.builds(lambda s, label, method: WindowLabel(*s, label, method),
                           spans(), TEXT, st.sampled_from(labelling.METHODS)), max_size=5),
        labelling.write_window_labels, labelling.read_window_labels, list, (TableError,),
    ),
    "script": (
        scripts(), simulate.write_script, simulate.load_script, list, (ScriptError,),
    ),
    "priorities": (
        priority_tables(), oracles.write_priorities,
        lambda p: dict(labelling.load_priorities(p).items()),
        lambda t: dict(t.items()), (PriorityFileError,),
    ),
    "rules": (
        rule_tables(), oracles.write_rules, lambda p: fusion.load_rules(p).rules,
        lambda t: t.rules, (RuleFileError,),
    ),
    "features": (
        feature_files(),
        lambda p, v: features.write_features(p, v[0], v[1], features.LAYOUT_ACC),
        _features_read, _features_want, (TableError, FeatureLayoutError),
    ),
}


@pytest.mark.parametrize("table", sorted(TABLES))
@SETTINGS
@given(data=st.data())
def test_roundtrip(table, data, tmp_path_factory):
    strategy, write, read, want, _errors = TABLES[table]
    value = data.draw(strategy)
    path = tmp_path_factory.mktemp(table) / f"{table}.csv"
    write(path, value)
    assert read(path) == want(value)


@pytest.mark.parametrize("table", sorted(TABLES))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_prefix_reads_or_names_a_line(table, data, tmp_path_factory):
    strategy, write, read, _want, errors = TABLES[table]
    path = tmp_path_factory.mktemp(table) / f"{table}.csv"
    write(path, data.draw(strategy))
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        try:
            read(path)
        except errors as exc:
            assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)


@pytest.mark.parametrize("line", [1, 2])
@pytest.mark.parametrize("table", sorted(TABLES))
def test_a_field_over_the_csv_limit_names_its_line(table, line, tmp_path):
    """csv.Error is not a ValueError; every reader still names the file and line."""
    write, errors, read = MATRIX[table][0], TABLES[table][4], TABLES[table][2]
    path = tmp_path / f"{table}.csv"
    write(path)
    header = path.read_bytes().splitlines(keepends=True)[0] if line == 2 else b""
    path.write_bytes(header + b"x" * (csv.field_size_limit() + 1) + b"\r\n")
    with pytest.raises(errors) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: line {line}: field larger than field limit")


EVENTS = st.lists(st.builds(
    lambda ts, kind, room, appliance, state: AmbientEvent(
        ts, kind, room if kind == "pir" else appliance, state),
    TS, st.sampled_from(EVENT_KINDS), st.sampled_from(ROOMS), st.sampled_from(APPLIANCES),
    st.booleans(),
), max_size=5)


@SETTINGS
@given(events=EVENTS)
def test_event_log_roundtrip(events, tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.ndjson"
    ambient.write_events(path, events)
    assert ambient.load_events(path) == events


@settings(max_examples=8, deadline=None)
@given(events=EVENTS)
def test_any_prefix_of_an_event_log_reads_or_names_a_line(events, tmp_path_factory):
    path = tmp_path_factory.mktemp("events") / "events.ndjson"
    ambient.write_events(path, events)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        try:
            ambient.load_events(path)
        except EventParseError as exc:
            assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)


@st.composite
def inertial_series(draw, channels):
    """A few samples of one subject, 3 channels (a 6-field log) or 6 (9-field)."""
    n = draw(st.integers(1, 4))
    steps = draw(st.lists(st.integers(1, 10**6), min_size=n - 1, max_size=n - 1))
    ts = np.cumsum([draw(st.integers(-(2**40), 2**40)), *steps])
    values = draw(arrays(np.float64, (n, channels), elements=st.floats(-1e9, 1e9)))
    return SampleSeries(draw(st.sampled_from(["sim", "é中"])), ts, values)


@pytest.mark.parametrize("channels", [3, 6])
@SETTINGS
@given(data=st.data())
def test_any_prefix_of_an_inertial_log_reads_its_leading_samples_or_names_a_line(
        channels, data, tmp_path_factory):
    """A sample is read once its line holds the closing `;`."""
    path = tmp_path_factory.mktemp("log") / "inertial.csv"
    logged = timeseries.write_inertial(path, data.draw(inertial_series(channels)))
    blob = path.read_bytes()
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        try:
            (got,) = timeseries.load_inertial(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)
        else:
            n = blob[:cut].count(b";")
            assert got.subject_id == logged.subject_id
            assert got.ts.tolist() == logged.ts[:n].tolist()
            assert got.values.tobytes() == logged.values[:n].tobytes()


def _small_centroids():
    rng = np.random.default_rng(5)
    return CentroidModel(("Lie", "Walk"), rng.normal(size=(2, 43)), features.LAYOUT_ACC,
                         rng.uniform(0.5, 2.0, 43))


def _small_bundle():
    rng = np.random.default_rng(6)
    return WeightsBundle(
        layers=(
            LayerSpec("gru", {"units": 2}, {"W": rng.normal(size=(3, 2, 2)),
                                            "U": rng.normal(size=(3, 2, 3)),
                                            "b": rng.normal(size=(3, 2))}),
            LayerSpec("dense", {"activation": "softmax"},
                      {"weights": rng.normal(size=(2, 2)), "bias": rng.normal(size=2)}),
        ),
        class_names=("Lie", "Walk"), input_len=4, input_channels=3,
        feature_norm={"mean": [0.0, 9.81, 0.0], "scale": [1.0, 2.0, 3.0]},
    )


MODELS = {"centroids": (_small_centroids, save_centroids),
          "bundle": (_small_bundle, neural.save_bundle)}


@pytest.mark.parametrize("kind", sorted(MODELS))
def test_any_prefix_of_a_model_file_names_a_line_unless_it_holds_the_whole_object(
        kind, tmp_path):
    make, save = MODELS[kind]
    path = tmp_path / "model.json"
    save(path, make())
    blob = path.read_bytes()
    whole = len(blob.rstrip())  # the JSON object without its final newline
    for cut in range(len(blob) + 1):
        path.write_bytes(blob[:cut])
        try:
            got = pipeline.load_model(path)
        except ValueError as exc:
            assert cut < whole
            assert re.match(rf"{re.escape(str(path))}: line \d+: ", str(exc)), str(exc)
        else:
            assert cut >= whole
            save(tmp_path / "again.json", got)
            assert (tmp_path / "again.json").read_bytes() == blob
