"""Command-line harness generated from the experiment registry.

Each subcommand is one record of ``presets.COMMANDS``, and each ``--preset``
one record of ``presets.PRESETS``: the record gives the subcommand's help,
flags and accepted presets, the config it runs on without ``--config``, and
the function that computes its rows.  Units at the boundary follow radio
conventions (dBm powers, dB thresholds in flags ending in ``-db``);
everything internal is watts/linear/nats.  A value outside its flag's
domain (the flag's ``type``) exits 2 as ``argument --<flag>: ...``; a
``ValueError`` of the run exits 2 with its message, and so do a ``--config``
file that does not load and an ``--out`` path that cannot be written; all
print the subcommand's usage.  A preset runs its own fixed grid and reads
only those of its subcommand's flags that it declares; any other must stay
at its default, since the preset would ignore it.  Every run writes a CSV
table and a JSON envelope with the config that was run and the flags it
read (``params``, with the seed where one was read, which ``seed`` repeats
and is null otherwise); the config and the params rerun the CSV
byte-identically.  The files are ``<command>.csv``/``.json``, or
``<command>-<preset>.csv``/``.json`` for a ``--preset`` run, so no two runs
share a file name.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .presets import COMMANDS, PRESETS
from .results import emit_results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetcache",
        description="Analysis and simulation of a cache-enabled heterogeneous network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, exp in COMMANDS.items():
        p = sub.add_parser(name, help=exp.help)
        p.set_defaults(error=p.error)  # a usage error of the run names its subcommand
        p.add_argument("--config", help="JSON config file (flat keys; *_dbm accepted)")
        p.add_argument("--out", default="results", help="output directory")
        if exp.presets:
            p.add_argument("--preset", choices=exp.presets)
        for flag, kwargs in exp.flags:
            p.add_argument(flag, **kwargs)
    return parser


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def main(argv=None) -> int:
    params = vars(build_parser().parse_args(argv))
    command, preset, error = params.pop("command"), params.pop("preset", None), params.pop("error")
    config, out = params.pop("config"), params.pop("out")
    if preset:
        exp = PRESETS[preset]
        given = [flag for flag, kwargs in COMMANDS[command].flags
                 if (flag, kwargs) not in exp.flags
                 and params[_dest(flag)] != kwargs.get("default")]
        if given:
            error(f"--preset {preset} runs a fixed grid; drop {', '.join(given)}")
        name = f"{command}-{preset}"
        params = {_dest(flag): params[_dest(flag)] for flag, _ in exp.flags}
    else:
        name, exp = command, COMMANDS[command]
    try:
        cfg = load_config(config) if config else exp.config()
        columns, rows, meta = exp.run(cfg, **params)
    except ValueError as exc:
        error(str(exc))
    try:
        csv_path, json_path = emit_results(
            rows, columns, out, name, config=cfg.to_flat_dict(), seed=params.get("seed"),
            params=params, meta=meta,
        )
    except OSError as exc:  # an --out path that is a file, or not writable
        error(f"cannot write results to --out {out}: {exc}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
