"""README's examples are checked against the code, so that they cannot drift
from it: every ``hetcache`` line of its ``sh`` blocks parses, its ``python``
quick start runs as written, and it names every subcommand and preset."""

import re
import shlex
from pathlib import Path

from hetcache.cli import build_parser
from hetcache.presets import COMMANDS, PRESETS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_readme_examples_parse_run_and_name_every_command_and_preset():
    lines = [line for block in _blocks("sh") for line in block.splitlines()
             if line.startswith("hetcache ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])

    (quick_start,) = _blocks("python")
    exec(compile(quick_start, "README.md", "exec"), {})

    assert [name for name in [*COMMANDS, *PRESETS] if f"`{name}`" not in README] == []
