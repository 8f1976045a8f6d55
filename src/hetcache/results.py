"""Result persistence: CSV tables plus a JSON envelope.

CSV files are deterministic (LF endings, '.' decimal, repr-roundtrip floats)
so reruns with the same seed are byte-identical.  The JSON envelope carries
the config echo, seed, version string and wall clock, which is enough to
reproduce the CSV exactly.
"""

from __future__ import annotations

import csv
import datetime
import functools
import importlib.metadata
import json
import subprocess
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


def emit_results(rows: list[dict], columns: list[str], out_dir, name: str, *,
                 config: dict | None = None, seed: int | None = None,
                 meta: dict | None = None) -> tuple[Path, Path]:
    """Write ``<name>.csv`` and ``<name>.json`` under ``out_dir``.

    ``columns`` is the authoritative header (an empty row set still yields a
    header-only CSV); every row must be a dict over exactly these keys.
    Returns the two paths.
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
        for row in rows:
            writer.writerow([_cell(row[c]) for c in columns])

    envelope = {
        "name": name,
        "version": _version_string(),
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": seed,
        "config": config,
        "meta": meta or {},
        "columns": columns,
        "rows": rows,
    }
    with open(json_path, "w") as fh:
        json.dump(envelope, fh, indent=2, default=float)
        fh.write("\n")
    return csv_path, json_path
