"""The one reader and writer of the stage CSV tables: a header row, then
one csv row per record as csv.writer writes it (ending in \\r\\n). Reader
errors name the file and line: `<file>: line N: <reason>`."""

import csv
import io
import json
from operator import itemgetter
from pathlib import Path


class TableError(ValueError):
    """Raised when a table or JSON-object file is malformed."""


def write_table(path: str | Path, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def read_lines(path: str | Path, error=TableError) -> io.StringIO:
    """The file's lines as open(newline="") splits them; bytes that are
    not UTF-8 raise `error` naming their line."""
    data = Path(path).read_bytes()
    try:
        return io.StringIO(data.decode("utf-8"), newline="")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8") from None


def read_table(path: str | Path, columns, convert, error=TableError) -> list:
    """convert(*fields) for every non-blank row, fields in `columns` order;
    the header must hold exactly `columns` (two or more), in any order."""
    reader = csv.reader(read_lines(path, error))
    out = []
    try:
        header = next(reader, [])
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"missing column {', '.join(missing)}")
        if len(header) != len(columns):
            raise ValueError(f"expected columns {', '.join(columns)}, got {', '.join(header)}")
        pick = itemgetter(*(header.index(name) for name in columns))
        for fields in reader:
            if len(fields) != len(header):
                if not fields:
                    continue
                raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
            out.append(convert(*pick(fields)))
    except (ValueError, csv.Error) as exc:
        # An empty file has read no line; its missing header is line 1.
        raise error(f"{path}: line {reader.line_num or 1}: {exc}") from None
    return out


def read_json_object(path: str | Path) -> dict:
    """Parse a file holding one JSON object; errors name the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TableError(f"{path}: line {exc.lineno}: {exc.msg}") from None
        except UnicodeDecodeError as exc:
            raise TableError(f"{path}: byte {exc.start}: not UTF-8") from None
    if not isinstance(doc, dict):
        raise TableError(f"{path}: expected a JSON object")
    return doc
