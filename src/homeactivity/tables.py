"""The one place input files are opened for reading, the one reader
and writer of the stage CSV tables (a header row, then csv.writer rows
ending in \\r\\n), and the one JSON reader and writer (sorted keys, a final
newline). Reader errors name the file and line: `<file>: line N: ...`."""

import csv
import json
from itertools import chain
from operator import itemgetter
from pathlib import Path


class TableError(ValueError):
    """Raised when a table or JSON-object file is malformed."""


class RowError(ValueError):
    """A check failed on the index-th row read from a table, 0 being the
    first row after the header; record_line(path, index + 1) is its line."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


def write_table(path: str | Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_lines(path: str | Path, error=TableError):
    """Yield the file's lines as open(newline="") splits them. A byte that
    is not UTF-8 raises `error` naming its line once reading reaches the
    block the decoder takes it in, so lines just before it may go unread."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            yield from fh
            return
        except UnicodeDecodeError:
            pass
    # Read again with each bad byte as a lone surrogate, which UTF-8 cannot encode.
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line, text in enumerate(fh, start=1):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                break
    raise error(f"{path}: line {line}: not UTF-8")


def _located(path, line: int, exc: Exception, error) -> Exception:
    """exc's text behind `<file>: line N: `, in exc's class; a bare
    ValueError or csv.Error becomes `error`."""
    cls = error if type(exc) in (ValueError, csv.Error) else type(exc)
    return cls(f"{path}: line {line}: {exc}")


def parse_lines(path: str | Path, parse, error=TableError) -> int:
    """parse(line) for each line of the file, in order; returns the number
    of lines. Errors from parse name the file and line (`_located`)."""
    line = 0
    for line, text in enumerate(read_lines(path, error), start=1):
        try:
            parse(text)
        except (ValueError, csv.Error) as exc:
            raise _located(path, line, exc, error) from None
    return line


def read_table(path: str | Path, columns, convert, error=TableError) -> list:
    """convert(*fields) for every non-blank row, fields in `columns` order;
    the header must hold exactly `columns` (two or more), in any order.
    An error names the line its record ends on."""
    reader = csv.reader(read_lines(path, error))
    out = []
    pick = None  # of the fields in `columns` order, once the header is read
    # Two clauses, not one: the inner one locates a row's ValueError; the
    # outer one catches only the csv.Error the reader raises between rows.
    # read_lines' UTF-8 error is also a ValueError raised between rows, and
    # it already names its line, so it must pass through unwrapped.
    try:
        # An empty file reads as an empty header; its line is 1.
        for fields in chain([next(reader, [])], reader):
            try:
                if pick is None:
                    missing = [name for name in columns if name not in fields]
                    if missing:
                        raise ValueError(f"missing column {', '.join(missing)}")
                    if len(fields) != len(columns):
                        raise ValueError(
                            f"expected columns {', '.join(columns)}, got {', '.join(fields)}")
                    pick = itemgetter(*(fields.index(name) for name in columns))
                elif len(fields) == len(columns):
                    out.append(convert(*pick(fields)))
                elif fields:
                    raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
            except ValueError as exc:
                raise _located(path, reader.line_num or 1, exc, error) from None
    except csv.Error as exc:
        raise _located(path, reader.line_num or 1, exc, error) from None
    return out


def record_line(path: str | Path, index: int) -> int:
    """The line that a table's index-th non-blank record ends on, the
    header being record 0, as read_table counts lines."""
    reader = csv.reader(read_lines(path))
    return [reader.line_num for fields in reader if fields][index]


def read_json_object(path: str | Path) -> dict:
    """Parse a file holding one JSON object, read in one call; errors name
    the file and line."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            doc = json.loads(fh.read())
    except UnicodeDecodeError:
        "".join(read_lines(path))  # raises the error naming the first bad line
        raise
    except json.JSONDecodeError as exc:
        raise TableError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise TableError(f"{path}: expected a JSON object")
    return doc


def write_json(path: str | Path, doc, indent: int | None = None) -> None:
    """Write doc as JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")
