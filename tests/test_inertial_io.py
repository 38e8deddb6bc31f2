"""The block-wise inertial reader and writer against per-line oracles.

The per-line reader stays in the package as the fallback path, so it is
the oracle for `load_inertial`: on any log, generated or mutated, both
must return equal series or raise the same exception with the same
message. The writer's oracle is the per-sample f-string writer it
replaced, kept here.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from homeactivity import cli, simulate, timeseries
from homeactivity.timeseries import (
    SampleSeries,
    SeriesError,
    load_inertial,
    write_inertial,
)
from oracles import series_equal

SETTINGS = settings(max_examples=150, deadline=None)

FLOAT_FORMATS = ("{:.6f}", "{!r}", "{:g}", "{:.3e}", "{:+.2f}")


def oracle_write(path, series, append=False):
    """The writer before block formatting: one f-string per value."""
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for i in range(len(series)):
            fields = [series.subject_id, "", str(int(series.ts[i]))]
            fields += [f"{v:.6f}" for v in series.xyz[i]]
            if series.gyro is not None:
                fields += [f"{v:.6f}" for v in series.gyro[i]]
            fh.write(",".join(fields) + ";\n")


def outcome(reader, path):
    try:
        return reader(path)
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@contextmanager
def block_lines(n):
    with mock.patch.object(timeseries, "_BLOCK_LINES", n):
        yield


def assert_readers_agree(path, block=timeseries._BLOCK_LINES):
    want = outcome(timeseries._load_inertial_lines, path)
    with block_lines(block):
        got = outcome(load_inertial, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, list) and len(got) == len(want)
        for a, b in zip(got, want):
            assert series_equal(a, b)
            assert (a.xyz.strides, a.ts.strides) == (b.xyz.strides, b.ts.strides)


def takes_block_path(path, block=timeseries._BLOCK_LINES) -> bool:
    with block_lines(block):
        return timeseries._load_inertial_columnar(path) is not None


subjects = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=",;%"),
    min_size=1, max_size=6,
) | st.sampled_from(["sim", "33", "a b", "50%"])
hints = st.text(
    st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=",;"),
    max_size=8,
)
values = st.floats(allow_nan=False, allow_infinity=False, width=64)
# Small enough that no FLOAT_FORMATS rounding overflows to inf.
log_values = st.floats(-1e300, 1e300)


@st.composite
def logs(draw):
    """A valid single-subject log as a list of lines, values in mixed syntax."""
    subject = draw(subjects)
    width = draw(st.sampled_from((6, 9)))
    n = draw(st.integers(1, 40))
    steps = draw(st.lists(st.integers(1, 200), min_size=n, max_size=n))
    ts = draw(st.integers(-(10**12), 10**12)) + np.cumsum(steps)
    fmt = draw(st.sampled_from(FLOAT_FORMATS))
    lines = []
    for t in ts:
        row = [fmt.format(draw(log_values)) for _ in range(width - 3)]
        lines.append(",".join([subject, draw(hints), str(t), *row]) + ";\n")
    return lines


def _edit(i, fn):
    def mutate(lines):
        lines = list(lines)
        k = i % len(lines)
        lines[k] = fn(lines[k])
        return lines
    return mutate


def mutations(i):
    """Each known way for a log to leave the block reader's shape."""
    return {
        "crlf": lambda lines: [l.replace("\n", "\r\n") for l in lines],
        "no final newline": lambda lines: lines[:-1] + [lines[-1].rstrip("\n")],
        "double semicolon": _edit(i, lambda l: l.replace(";", ";;")),
        "missing semicolon": _edit(i, lambda l: l.replace(";", "")),
        "blank line": lambda lines: lines[:i] + ["\n"] + lines[i:],
        "whitespace line": lambda lines: lines[:i] + ["  \t\n"] + lines[i:],
        "comment line": lambda lines: lines[:i] + ["# note\n"] + lines[i:],
        "hash in a value": _edit(i, lambda l: l.replace(";", "#;")),
        "padding spaces": _edit(i, lambda l: "  " + l.replace(",", " , ")),
        "leading space": _edit(i, lambda l: " " + l),
        "second subject": _edit(i, lambda l: "other" + l[l.index(","):]),
        "wider line": _edit(i, lambda l: l.replace(";", ",1,2,3;")),
        "narrower line": _edit(i, lambda l: l[: l.rindex(",", 0, l.rindex(","))] + ";\n"),
        "short line": _edit(i, lambda l: l[: l.rindex(",")] + ";\n"),
        "nan": _edit(i, lambda l: l[: l.rindex(",")] + ",nan;\n"),
        "inf": _edit(i, lambda l: l[: l.rindex(",")] + ",-inf;\n"),
        "overflow": _edit(i, lambda l: l[: l.rindex(",")] + ",1e999;\n"),
        "bad number": _edit(i, lambda l: l[: l.rindex(",")] + ",oops;\n"),
        "underscore": _edit(i, lambda l: l[: l.rindex(",")] + ",1_0.5;\n"),
        "float timestamp": _edit(i, lambda l: _field(l, 2, "5.0")),
        "signed timestamp": _edit(i, lambda l: _field(l, 2, "+" + l.split(",")[2])),
        "huge timestamp": _edit(i, lambda l: _field(l, 2, "9" * 25)),
        "repeated timestamp": lambda lines: lines + [lines[-1]],
        "non-ascii subject": lambda lines: [_field(l, 0, "é") for l in lines],
        "non-ascii hint": _edit(i, lambda l: _field(l, 1, "café")),
        "tab": _edit(i, lambda l: l.replace(";", "\t;")),
        "separator character": _edit(i, lambda l: l.replace(";", "\x1c;")),
        "separator in a timestamp": _edit(i, lambda l: _field(l, 2, "\x1f" + l.split(",")[2])),
        "nul": _edit(i, lambda l: _field(l, 1, "a\x00b")),
        "byte order mark": lambda lines: ["\ufeff" + lines[0]] + lines[1:],
    }


# Mutations that both readers accept with the same values.
KEPT_ON_BLOCK_PATH = {"signed timestamp", "tab", "nul"}


def _field(line, k, text):
    parts = line.split(",")
    parts[k] = text
    return ",".join(parts)


class TestReaderAgainstOracle:
    @SETTINGS
    @given(lines=logs(), block=st.integers(1, 9))
    def test_generated_logs(self, tmp_path_factory, lines, block):
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_text("".join(lines), encoding="utf-8")
        assert_readers_agree(path, block)
        assert takes_block_path(path, block)

    @SETTINGS
    @given(
        lines=logs(),
        block=st.integers(1, 9),
        name=st.sampled_from(sorted(mutations(0))),
        at=st.integers(0, 50),
    )
    def test_mutated_logs(self, tmp_path_factory, lines, block, name, at):
        path = tmp_path_factory.mktemp("log") / "log.csv"
        text = "".join(mutations(at)[name](lines))
        path.write_bytes(text.encode("utf-8"))
        assert_readers_agree(path, block)

    @pytest.mark.parametrize("name", sorted(mutations(0)))
    def test_bad_line_opens_a_block(self, tmp_path, name):
        """The mutated line is the first line of the second block."""
        lines = [f"s,,{50 * i},{i}.5,-1.25,9.8;\n" for i in range(12)]
        path = tmp_path / "log.csv"
        path.write_bytes("".join(mutations(4)[name](lines)).encode("utf-8"))
        assert_readers_agree(path, block=4)
        if name not in KEPT_ON_BLOCK_PATH:
            assert not takes_block_path(path, block=4), name

    @pytest.mark.parametrize("text", ["", "\n", "\n\n  \n"])
    def test_empty_logs(self, tmp_path, text):
        path = tmp_path / "log.csv"
        path.write_text(text, encoding="utf-8")
        assert_readers_agree(path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"s,,0,1,2,3;\ns,\xff,50,1,2,3;\n")
        assert_readers_agree(path, block=1)


# Values %.6f must round exactly as f"{v:.6f}" does: signed zeros, exact
# binary ties at the seventh decimal (1/128 = 0.0078125 rounds to even),
# decimal near-ties that are not binary ties, and magnitudes needing
# hundreds of digits.
EDGE_VALUES = [
    0.0, -0.0, 1 / 128, -1 / 128, 3 / 128, 0.5 + 1 / 128, 2.5e-6, 1.0000005,
    0.0000005, -0.0000005, 9.9999995, 1e-7, -4e-7, 5e-324, 2.0**53 + 2,
    1e300, -1.7976931348623157e308, 123456789.1234565,
]


def make_series(subject, ts, xyz, gyro=None):
    values = xyz if gyro is None else np.hstack([xyz, gyro])
    return SampleSeries(subject_id=subject, ts=ts, values=values)


class TestWriterAgainstOracle:
    def assert_same_bytes(self, tmp_path, series, block=None):
        oracle_write(tmp_path / "want.csv", series)
        with block_lines(block or timeseries._BLOCK_LINES):
            write_inertial(tmp_path / "got.csv", series)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_edge_values(self, tmp_path):
        v = np.array(EDGE_VALUES, dtype=np.float64)
        xyz = np.column_stack([v, -v, v[::-1]])
        ts = np.arange(v.size, dtype=np.int64) * 50 - 500
        self.assert_same_bytes(tmp_path, make_series("s", ts, xyz, gyro=xyz[::-1]), block=4)

    @SETTINGS
    @given(
        subject=subjects,
        n=st.integers(1, 30),
        gyro=st.booleans(),
        block=st.integers(1, 9),
        data=st.data(),
    )
    def test_generated_series(self, tmp_path_factory, subject, n, gyro, block, data):
        tmp_path = tmp_path_factory.mktemp("w")
        floats = st.lists(values, min_size=3 * n, max_size=3 * n)
        xyz = np.array(data.draw(floats)).reshape(n, 3)
        g = np.array(data.draw(floats)).reshape(n, 3) if gyro else None
        start = data.draw(st.integers(-(10**12), 10**12))
        ts = start + 50 * np.arange(n, dtype=np.int64)
        self.assert_same_bytes(tmp_path, make_series(subject, ts, xyz, g), block)

    def test_append_continues_the_file(self, tmp_path):
        """One call over a gapped series writes what the oracle writes
        appending each gapless stretch."""
        rng = np.random.default_rng(3)
        first = make_series("s", np.arange(7, dtype=np.int64) * 50, rng.normal(size=(7, 3)))
        second = make_series("s", 1000 + np.arange(5, dtype=np.int64) * 50,
                             rng.normal(size=(5, 3)))
        oracle_write(tmp_path / "want.csv", first)
        oracle_write(tmp_path / "want.csv", second, append=True)
        with block_lines(3):
            write_inertial(tmp_path / "got.csv", timeseries.join([first, second]))
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_written_logs_take_the_block_path(self, tmp_path):
        rng = np.random.default_rng(11)
        series = make_series("sim", 21_600_000 + 50 * np.arange(40, dtype=np.int64),
                             rng.normal(0, 5, size=(40, 3)), rng.normal(size=(40, 3)))
        write_inertial(tmp_path / "log.csv", series)
        assert takes_block_path(tmp_path / "log.csv", block=7)
        assert_readers_agree(tmp_path / "log.csv", block=7)


def through_text(values) -> np.ndarray:
    """The oracle of the values write_inertial returns: each value
    written as `%.6f` and parsed."""
    return np.array([float("%.6f" % v) for v in values.ravel().tolist()]).reshape(values.shape)


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Below this magnitude the writer computes a value's read-back; from it on
# it formats and parses.
MICRO_EXACT = 2.0**53 / 1e6


@st.composite
def near_ties(draw):
    """A float nearest (k + 1/2)/1e6, or one ulp to either side, either sign:
    where |v|·1e6 rounds to a half-integer and only the exact product says
    which way `%.6f` goes."""
    tie = (draw(st.integers(0, 10**7) | st.integers(0, 2**44)) + 0.5) / 1e6
    toward = draw(st.sampled_from([None, 0.0, np.inf]))
    v = tie if toward is None else float(np.nextafter(tie, toward))
    return draw(st.sampled_from([v, -v]))


# A series holds finite values only, so NaN and the infinities, which
# _micro_units also marks slow, never reach the writer.
written_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and the slow range too
    near_ties(),
    st.floats(MICRO_EXACT / 2, MICRO_EXACT * 2) | st.floats(-1e-6, 1e-6),
    st.sampled_from([0.0, -0.0, 1 / 128, 3 / 128, -3 / 128, -1 / 128, -1e-9, 5e-324, -5e-324,
                     2.2250738585072014e-308, 1e-310, MICRO_EXACT, -MICRO_EXACT,
                     float(np.nextafter(MICRO_EXACT, 0)), 1e308, -1e308, *EDGE_VALUES]),
)


def template_write(path, series, append=False):
    """The writer before the byte matrix: each line through the `%d` and
    `%.6f` template, value by value."""
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        for ts, row in zip(series.ts.tolist(), series.values.tolist()):
            fh.write("%s,,%d" % (series.subject_id, ts) + "".join(",%.6f" % v for v in row)
                     + ";\n")


INT64_MAX = 2**63 - 1


@st.composite
def stamps(draw, n):
    """n increasing timestamps: below 0, from 0, up to 2^63 - 1, or
    anywhere, with steps wide enough to change the digit count in a block."""
    steps = draw(st.lists(st.integers(1, 10**draw(st.integers(1, 15))),
                          min_size=n - 1, max_size=n - 1))
    rel = np.concatenate([[0], np.cumsum(steps, dtype=np.int64)])
    anchor = draw(st.sampled_from(["below 0", "at 0", "at the top", "anywhere"]))
    if anchor == "below 0":
        return rel - int(rel[-1]) - draw(st.integers(1, 10**12))
    if anchor == "at 0":
        return rel
    if anchor == "at the top":
        return INT64_MAX - int(rel[-1]) + rel
    return rel + draw(st.integers(-(10**15), 10**15))


class TestAsLogged:
    """write_inertial returns the series as logged, and logged gives it
    without a file: float("%.6f" % v) of every value, bit for bit, which
    load_inertial also reads from the file, on the blocks its byte matrix
    formats and on those that fall back to the template (a slow value or
    a negative timestamp)."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.sampled_from((3, 6)), n=st.integers(1, 12), block=st.integers(1, 5),
           data=st.data())
    def test_matches_format_and_parse(self, tmp_path_factory, width, n, block, data):
        path = tmp_path_factory.mktemp("logged") / "log.csv"
        values = data.draw(arrays(np.float64, (n, width), elements=written_values))
        series = SampleSeries("s", data.draw(stamps(n)), values)
        with block_lines(block):
            got = write_inertial(path, series)
        assert same_bits(got.values, through_text(values))
        assert got.subject_id == "s" and np.array_equal(got.ts, series.ts)

    def test_ties_and_their_neighbours(self, tmp_path):
        """Three real blocks, of which the first is all ties and one ulp
        either side, and the rest plain values; 6- and 9-field lines."""
        k = np.random.default_rng(5).integers(0, 2**43, size=timeseries._BLOCK_LINES)
        ties = (k + 0.5) / 1e6
        near = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
        near = np.concatenate([near, -near])
        plain = np.random.default_rng(6).normal(0, 9, size=timeseries._BLOCK_LINES * 12)
        for width in (3, 6):
            size = timeseries._BLOCK_LINES * width
            values = np.concatenate([near[:size], plain[:2 * size]]).reshape(-1, width)
            series = SampleSeries("s", 50 * np.arange(len(values), dtype=np.int64), values)
            got = write_inertial(tmp_path / "log.csv", series).values
            assert same_bits(got, through_text(values))
            (back,) = load_inertial(tmp_path / "log.csv")
            assert same_bits(got, back.values)
            assert same_bits(timeseries.logged(series).values, back.values)

    @pytest.mark.parametrize("gyro", [False, True])
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 12), block=st.integers(1, 5), data=st.data())
    def test_is_the_series_the_log_reads_back(self, tmp_path_factory, gyro, n, block, data):
        width = 6 if gyro else 3
        path = tmp_path_factory.mktemp("back") / "log.csv"
        values = data.draw(arrays(np.float64, (n, width), elements=written_values))
        series = SampleSeries("s", data.draw(stamps(n)), values)
        with block_lines(block):
            got = write_inertial(path, series)
        (back,) = load_inertial(path)
        assert series_equal(got, back)
        assert same_bits(got.values, back.values)
        assert series_equal(timeseries.logged(series), back)
        assert same_bits(timeseries.logged(series).values, back.values)


class TestBlockFormatter:
    """write_inertial's bytes are those of the per-value `%` template for
    6- and 9-field series, on the blocks its byte matrix formats and on
    those that fall back to the template."""

    @SETTINGS
    @given(subject=subjects | st.sampled_from(["%d", "a%%b", "é", "受试者", "🙂%s"]),
           width=st.sampled_from((3, 6)), n=st.integers(1, 20), block=st.integers(1, 6),
           data=st.data())
    def test_matches_the_template(self, tmp_path_factory, subject, width, n, block, data):
        """One call over the series writes what the template writes
        appending each of its gapless stretches."""
        tmp_path = tmp_path_factory.mktemp("fmt")
        values = data.draw(arrays(np.float64, (n, width), elements=written_values))
        series = SampleSeries(subject, data.draw(stamps(n)), values)
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        for i, stretch in enumerate(timeseries.split_on_gaps(series)):
            template_write(want, stretch, append=i > 0)
        with block_lines(block):
            write_inertial(got, series)
        assert got.read_bytes() == want.read_bytes()

    def test_plain_blocks_take_the_matrix_and_the_rest_the_template(self, tmp_path):
        ts = np.array([0, 7, 93, 1500, 2**40], dtype=np.int64)
        plain = np.array([[-1e-9, 0.0, -0.0], [1 / 3, -12.5, 99.999999],
                          [5e-324, 1e9, -7.0], [0.25, 0.125, -1e-7], [3.0, 2.0, 1.0]])
        tie, wide = plain.copy(), plain.copy()
        tie[2, 1] = 1 / 128
        wide[4, 2] = -MICRO_EXACT

        def matrix_blocks(stamps_, values, block=5):
            series = SampleSeries("s", stamps_, values)
            with block_lines(block), mock.patch.object(
                    timeseries, "_format_block", wraps=timeseries._format_block) as matrix:
                write_inertial(tmp_path / "log.csv", series)
            return matrix.call_count

        assert matrix_blocks(ts, plain) == 1
        for stamps_, values in ((ts - 1, plain), (ts, tie), (ts, wide)):
            assert matrix_blocks(stamps_, values) == 0
        # In blocks of 2 lines, only the block that holds the tie, or the
        # negative timestamp, takes the template.
        assert matrix_blocks(ts, tie, block=2) == 2
        assert matrix_blocks(ts - 1, plain, block=2) == 2

    def test_longer_than_a_block_with_one_block_on_the_template(self, tmp_path):
        """Three blocks of the real size and a short fourth; the second holds
        a tie, so it alone is formatted by the template."""
        n = 3 * timeseries._BLOCK_LINES + 5
        rng = np.random.default_rng(21)
        values = rng.normal(0, 8, size=(n, 6))
        values[timeseries._BLOCK_LINES + 17, 4] = -1 / 128
        series = SampleSeries("sim", 21_600_000 + 50 * np.arange(n, dtype=np.int64), values)
        template_write(tmp_path / "want.csv", series)
        write_inertial(tmp_path / "got.csv", series)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSubjectIds:
    """A subject id goes into the first field of every line, so it must
    read back: no comma, no line break, no leading whitespace, and no lone
    surrogate, which is what Python makes of an argv byte that is not UTF-8."""

    @pytest.mark.parametrize("subject", ["a,b", "a\nb", "a\rb", " a", "\ta", "\x1ca", "\udcff"])
    def test_an_id_the_log_cannot_carry_is_refused_before_the_file_opens(self, tmp_path,
                                                                         subject):
        path = tmp_path / "log.csv"
        series = make_series(subject, 50 * np.arange(3, dtype=np.int64), np.zeros((3, 3)))
        with pytest.raises(SeriesError, match="cannot be logged"):
            write_inertial(path, series)
        assert not path.exists()

    @SETTINGS
    @given(subject=st.text(st.characters() | st.sampled_from(",;%\r\n \t\x1c"), max_size=6))
    @example(subject="\ud800")
    def test_an_accepted_id_reads_back_unchanged(self, tmp_path_factory, subject):
        path = tmp_path_factory.mktemp("id") / "log.csv"
        series = make_series(subject, 50 * np.arange(3, dtype=np.int64), np.ones((3, 3)))
        try:
            write_inertial(path, series)
        except SeriesError:
            return
        (back,) = load_inertial(path)
        assert back.subject_id == subject

    def test_simulate_refuses_such_an_id(self, tmp_path, capsys):
        script = tmp_path / "script.csv"
        simulate.write_script(script, [simulate.ScheduleEntry(21_600_000, 60_000, "Hall", "Sit")])
        argv = ["simulate", "--script", str(script), "--out", str(tmp_path / "sim"),
                "--subject", "a,b"]
        assert cli.main(argv) == 1
        err = [l for l in capsys.readouterr().err.splitlines() if not l.startswith("config: ")]
        assert len(err) == 1 and err[0].startswith("error: subject id 'a,b' cannot be logged")
