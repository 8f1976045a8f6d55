"""Result persistence: CSV tables plus a JSON envelope.

CSV files are deterministic (LF endings, '.' decimal, repr-roundtrip floats)
so reruns with the same seed are byte-identical.  The JSON envelope carries
the config echo, the seed, the run's parameters (a command's flags), the
version string and the wall clock, which is enough to reproduce the CSV
exactly, and the rows again, each as an object over the columns in column
order.  It is written as one line of JSON; ``python -m json.tool <name>.json``
prints it indented.

The version string is ``git describe`` of the checkout holding the package,
taken on the first envelope of a process.  Only where git fails (an
installed copy, or no git) is it the installed version, and only then is
``importlib.metadata`` imported; importing this module loads neither it nor
``subprocess``.

Each cell is formatted once, into a CSV text and a JSON text, and both files
are written from those texts.  A column of finite plain floats needs one
text per cell, since json writes a float as its repr, and a constant such
column (one non-zero value in every row) is formatted once for all its
cells.  When every column is of finite plain floats, no cell needs csv's
quoting, and the CSV lines come from one ``%`` template over the texts;
any other table is written by ``csv.writer``.  The envelope without its
rows goes through json's C encoder, and the rows text is spliced in before
the closing brace.
"""

from __future__ import annotations

import csv
import datetime
import functools
import json
import math
from operator import is_, itemgetter
from pathlib import Path

import numpy as np


@functools.cache
def _version_string() -> str:
    """Git description of the checkout holding this package (not of the
    caller's working directory), else the installed version; once per process."""
    import subprocess
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True, timeout=5,
        )
        return out.stdout.strip()
    except Exception:
        import importlib.metadata  # ~15 ms of email, socket and calendar
        try:
            return importlib.metadata.version("hetcache")
        except importlib.metadata.PackageNotFoundError:
            return "unknown"


def _cell(value) -> str:
    # float() first: under numpy >= 2 a numpy float's repr is "np.float64(x)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# json.dumps(value, default=float) without building an encoder per call
_json_text = json.JSONEncoder(default=float).encode


def _column_texts(cells: list) -> tuple[list[str], list[str]]:
    """The CSV texts and the JSON texts of one column's cells (NaN is
    ``nan`` in one, ``NaN`` in the other)."""
    # a sum over a NaN or an infinity is not finite (an overflowing sum of
    # finite floats only takes the per-cell path)
    if set(map(type, cells)) == {float} and math.isfinite(sum(cells)):
        # equal non-zero floats have one repr; 0.0 == -0.0 but their reprs differ
        if cells[0] and cells.count(cells[0]) == len(cells):
            texts = [float.__repr__(cells[0])] * len(cells)
        else:
            texts = list(map(float.__repr__, cells))
        return texts, texts
    return list(map(_cell, cells)), list(map(_json_text, cells))


def _columns(rows: list[dict], columns: list[str]) -> list[list]:
    """Each column's cells, after checking that every row is a dict over
    exactly ``columns``."""
    if not columns or len(set(columns)) != len(columns):
        raise ValueError(f"columns {columns} must be distinct, and at least one")
    try:
        # rows of the right size, each holding every column, hold no other key
        if set(map(len, rows)) <= {len(columns)}:
            return [list(map(itemgetter(c), rows)) for c in columns]
    except KeyError:
        pass
    bad = next(row for row in rows if row.keys() != set(columns))
    raise ValueError(f"row keys {sorted(bad)} do not match columns {sorted(columns)}")


def emit_results(rows: list[dict], columns: list[str], out_dir, name: str, *,
                 config: dict | None = None, seed: int | None = None,
                 params: dict | None = None, meta: dict | None = None) -> tuple[Path, Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``out_dir``.

    ``columns`` is the authoritative header, one or more distinct names (an
    empty row set still yields a header-only CSV); every row must be a dict
    over exactly these keys.
    ``params`` are the keyword arguments the rows were computed with; they
    are only recorded.  Returns the two paths.
    """
    csv_columns, json_columns = zip(*map(_column_texts, _columns(rows, columns)))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        # a column whose CSV and JSON texts are one list holds finite floats
        # only, and a float's repr (digits, '.', '-', '+', 'e') is never
        # quoted, so an all-float table's lines come from one template
        if all(map(is_, csv_columns, json_columns)):
            line = ",".join(["%s"] * len(columns)) + "\n"
            fh.write("".join(map(line.__mod__, zip(*csv_columns))))
        else:
            writer.writerows(zip(*csv_columns))

    envelope = {
        "name": name,
        "version": _version_string(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "params": params or {},
        "meta": meta or {},
        "columns": columns,
    }
    # one object template per table, the row's JSON texts filling its slots
    template = "{%s}" % ", ".join(json.dumps(c).replace("%", "%%") + ": %s" for c in columns)
    json_rows = ", ".join(map(template.__mod__, zip(*json_columns)))
    # no indent, so that json runs its C encoder; "rows" is the last key
    head = json.dumps(envelope, default=float)
    json_path.write_text(f'{head[:-1]}, "rows": [{json_rows}]}}\n')
    return csv_path, json_path
