"""Command-line harness generated from the experiment registry.

Each subcommand is one record of ``presets.COMMANDS``, and each ``--preset``
one record of ``presets.PRESETS``: the record gives the subcommand's help,
flags and accepted presets, the config it runs on without ``--config``, and
the function that computes its rows.  Units at the boundary follow radio
conventions (dBm powers, dB thresholds in flags ending in ``-db``);
everything internal is watts/linear/nats.  Every run writes a CSV table and
a JSON envelope with the config that was run, the seed and the
subcommand's flags (``params``, empty for a preset), sufficient to
reproduce the CSV byte-identically: ``<command>.csv``/``.json``, or
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
        p.add_argument("--config", help="JSON config file (flat keys; *_dbm accepted)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="results", help="output directory")
        if exp.presets:
            p.add_argument("--preset", choices=exp.presets)
        for flag, kwargs in exp.flags:
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    params = vars(parser.parse_args(argv))
    command, preset = params.pop("command"), params.pop("preset", None)
    config, seed, out = params.pop("config"), params.pop("seed"), params.pop("out")
    if preset:
        # a preset runs its own fixed grid, so a flag of the subcommand would be ignored
        given = [flag for flag, kwargs in COMMANDS[command].flags
                 if params[flag.lstrip("-").replace("-", "_")] != kwargs.get("default")]
        if given:
            parser.error(f"--preset {preset} runs a fixed grid; drop {', '.join(given)}")
        name, exp, params = f"{command}-{preset}", PRESETS[preset], {}
    else:
        name, exp = command, COMMANDS[command]
    try:
        cfg = load_config(config) if config else exp.config()
        columns, rows, meta = exp.run(cfg, seed, **params)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        csv_path, json_path = emit_results(
            rows, columns, out, name, config=cfg.to_flat_dict(), seed=seed, params=params, meta=meta,
        )
    except OSError as exc:  # an --out path that is a file, or not writable
        parser.error(f"cannot write results to --out {out}: {exc}")
    print(f"wrote {csv_path} and {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
