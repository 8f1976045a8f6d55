"""Result persistence: CSV tables plus a JSON envelope.

CSV files are deterministic (LF endings, '.' decimal, repr-roundtrip floats)
so reruns with the same seed are byte-identical.  The JSON envelope carries
the config echo, the seed, the run's parameters (a command's flags), the
version string and the wall clock, which is enough to reproduce the CSV
exactly, and the rows again.  It is written as one line
of JSON by json's C encoder; ``python -m json.tool <name>.json`` prints it
indented.
"""

from __future__ import annotations

import csv
import datetime
import functools
import importlib.metadata
import json
import subprocess
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np


@functools.cache
def _version_string() -> str:
    """Git description of the checkout holding this package (not of the
    caller's working directory), else the installed version; once per process."""
    try:
        out = subprocess.run(
            ["git", "-C", str(Path(__file__).resolve().parent), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True, timeout=5,
        )
        return out.stdout.strip()
    except Exception:
        try:
            return importlib.metadata.version("hetcache")
        except importlib.metadata.PackageNotFoundError:
            return "unknown"


def _cell(value) -> str:
    # float() first: under numpy >= 2 a numpy float's repr is "np.float64(x)"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


# cell types the csv module writes as ``_cell`` does: a float as its repr
_PLAIN_CELLS = frozenset({str, int, float})


def _records(rows: list[dict], columns: list[str]):
    """The rows as cell sequences in column order.  When every cell is a
    plain str, int or float the csv module formats them itself, at C level;
    any other cell (a numpy float, None, a bool) sends all rows through
    ``_cell``."""
    if columns and set(map(type, chain.from_iterable(map(dict.values, rows)))) <= _PLAIN_CELLS:
        cells = map(itemgetter(*columns), rows)
        # a one-column itemgetter returns the bare cell, not a 1-tuple
        return zip(cells) if len(columns) == 1 else cells
    return ([_cell(row[c]) for c in columns] for row in rows)


def emit_results(rows: list[dict], columns: list[str], out_dir, name: str, *,
                 config: dict | None = None, seed: int | None = None,
                 params: dict | None = None, meta: dict | None = None) -> tuple[Path, Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``out_dir``.

    ``columns`` is the authoritative header (an empty row set still yields a
    header-only CSV); every row must be a dict over exactly these keys.
    ``params`` are the keyword arguments the rows were computed with; they
    are only recorded.  Returns the two paths.
    """
    for row in rows:
        if set(row) != set(columns):
            raise ValueError(f"row keys {sorted(row)} do not match columns {sorted(columns)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    json_path = out_dir / f"{name}.json"

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(_records(rows, columns))

    envelope = {
        "name": name,
        "version": _version_string(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "params": params or {},
        "meta": meta or {},
        "columns": columns,
        "rows": rows,
    }
    # no indent, so that json runs its C encoder
    json_path.write_text(json.dumps(envelope, default=float) + "\n")
    return csv_path, json_path
