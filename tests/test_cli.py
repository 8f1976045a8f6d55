import csv
import io
import json
import math
import re

import numpy as np
import pytest

from hetcache import (
    montecarlo,
    network_model,
    presets,
    queue_metrics,
    queueing,
    results,
    run_monte_carlo,
    throughput_gain,
)
from hetcache.cli import build_parser, main
from hetcache.config import fig6_config
from hetcache.presets import COMMANDS, PRESET_NAMES, PRESETS, run_preset
from hetcache.results import emit_results


def test_emit_results_round_trip(tmp_path, cfg):
    rows = [{"x": 1.0, "y": 0.1234567890123}, {"x": 2.0, "y": math.nan}]
    csv_path, json_path = emit_results(
        rows, ["x", "y"], tmp_path, "demo",
        config=cfg.to_flat_dict(), seed=7, meta={"note": 1})
    env = json.loads(json_path.read_text())
    assert env["name"] == "demo" and env["seed"] == 7
    assert env["rows"][0]["y"] == 0.1234567890123
    assert env["meta"] == {"note": 1}
    text = csv_path.read_text()
    assert text.splitlines()[0] == "x,y"
    assert len(text.splitlines()) == 3


def test_emit_results_writes_numpy_floats_as_plain_repr(tmp_path):
    csv_path, _ = emit_results([{"x": np.float64(0.1), "y": np.float32(0.5)}], ["x", "y"],
                               tmp_path, "np")
    assert csv_path.read_text() == "x,y\n0.1,0.5\n"


def test_emit_results_cell_format(tmp_path):
    # plain cells and cells that need ``_cell`` (numpy floats) give the same bytes
    row = {"small": 1e-05, "big": 1e+16, "inf": math.inf, "nan": math.nan, "neg0": -0.0,
           "np": np.float64(0.30000000000000004), "int": 7, "str": "bs"}
    columns = list(row)
    expect = ("small,big,inf,nan,neg0,np,int,str\n"
              "1e-05,1e+16,inf,nan,-0.0,0.30000000000000004,7,bs\n")
    csv_path, _ = emit_results([row], columns, tmp_path, "mixed")
    assert csv_path.read_text() == expect
    plain = {**row, "np": 0.30000000000000004}
    csv_path, _ = emit_results([plain, plain], columns, tmp_path, "plain")
    assert csv_path.read_text() == expect + expect.splitlines(keepends=True)[1]
    csv_path, _ = emit_results([{"x": np.float32(0.1), "y": None}], ["x", "y"], tmp_path, "f32")
    assert csv_path.read_text() == "x,y\n0.10000000149011612,None\n"


def _emit_and_check_bytes(tmp_path, rows, columns, name="t", *, config=None, seed=None,
                          params=None, meta=None) -> dict:
    """Emit a table and check that both files hold the bytes that csv.writer
    over ``_cell`` and one json.dumps of the whole envelope give; returns the
    envelope."""
    csv_path, json_path = emit_results(rows, columns, tmp_path, name, config=config,
                                       seed=seed, params=params, meta=meta)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([results._cell(row[c]) for c in columns] for row in rows)
    assert csv_path.read_bytes().decode() == buf.getvalue()
    text = json_path.read_text()
    env = json.loads(text)
    expect = {"name": name, "version": env["version"], "created": env["created"],
              "seed": seed, "config": config, "params": params or {}, "meta": meta or {},
              "columns": columns, "rows": [{c: row[c] for c in columns} for row in rows]}
    assert text == json.dumps(expect, default=float) + "\n"
    return env


def test_emit_results_bytes_match_one_encoder_pass(tmp_path):
    # each cell is formatted once, yet both files hold the bytes of one
    # csv.writer pass and one json.dumps pass
    kinds = [0.1, math.nan, math.inf, -math.inf, -0.0, np.float64(0.30000000000000004),
             np.float32(0.1), np.int64(7), 3, True, None, 'a, "b"\nc']
    columns = ["plain %s", 'mixed "kinds"', "100%"]
    rows = [{"plain %s": i / 3 - 1.0, 'mixed "kinds"': kind, "100%": str(i)}
            for i, kind in enumerate(kinds)]
    # a row in another key order than ``columns``
    rows.append({"100%": "last", 'mixed "kinds"': 2.5, "plain %s": -0.0})
    env = _emit_and_check_bytes(tmp_path, rows, columns, "kinds", config={"a": 1.0}, seed=3,
                                params={"p": [1, 2]}, meta={"m": math.nan})
    # the envelope's rows follow ``columns``, as the CSV does
    assert list(rows[-1]) != columns and list(env["rows"][-1]) == columns


@pytest.mark.parametrize("column", [
    [2.5] * 4,
    [-1.0000000000000002e-07] * 4,
    [0.0] * 4,
    [-0.0] * 4,
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, 0.0, 0.0, 0.0],
], ids=["positive", "negative", "zeros", "negative-zeros", "zero-mix", "negative-zero-first"])
def test_emit_results_constant_column_bytes(tmp_path, column):
    # a constant non-zero column is formatted once; 0.0 == -0.0, so zeros
    # keep one repr per cell.  Alone, beside a float column (the CSV's line
    # template) and beside a str column (csv.writer)
    _emit_and_check_bytes(tmp_path, [{"c": v} for v in column], ["c"], "alone")
    rows = [{"t": i / 7, "c": v} for i, v in enumerate(column)]
    _emit_and_check_bytes(tmp_path, rows, ["t", "c"], "floats")
    rows = [{"c": v, "s": f"row {i}"} for i, v in enumerate(column)]
    _emit_and_check_bytes(tmp_path, rows, ["c", "s"], "mixed")


def test_emit_results_float_extremes_bytes(tmp_path):
    # the subnormal minimum, the float maximum and the reprs that switch to
    # or from exponent form, in a one-column table and beside a negated copy
    values = [5e-324, 1.7976931348623157e308, 1e16, 1e-05, 0.1, -2.5e-10]
    _emit_and_check_bytes(tmp_path, [{"x": v} for v in values], ["x"], "one")
    rows = [{"x": v, "-x": -v} for v in values]
    _emit_and_check_bytes(tmp_path, rows, ["x", "-x"], "two")
    # a constant column whose sum overflows is written cell by cell
    _emit_and_check_bytes(tmp_path, [{"x": 1.7976931348623157e308}] * 3, ["x"], "max")
    csv_path, _ = emit_results([{"x": v} for v in values], ["x"], tmp_path, "text")
    assert csv_path.read_text().split("\n")[1:-1] == [
        "5e-324", "1.7976931348623157e+308", "1e+16", "1e-05", "0.1", "-2.5e-10"]


def test_emit_results_quotes_str_cells_beside_float_columns(tmp_path):
    # a table with one str cell goes through csv.writer, so ',', '"' and a
    # newline are still quoted; its constant float column still has one repr
    cells = ["a,b", 'say "hi"', "two\nlines", "plain"]
    rows = [{"x": i / 3, "k": 0.25, "s": text} for i, text in enumerate(cells)]
    _emit_and_check_bytes(tmp_path, rows, ["x", "k", "s"], "quoted")
    with open(tmp_path / "quoted.csv", newline="") as fh:
        assert [line[2] for line in csv.reader(fh)][1:] == cells


def test_emit_results_csv_writer_only_for_tables_with_a_non_float_cell(tmp_path, monkeypatch):
    # the CSV body of an all-float table comes from the line template; one
    # non-float cell anywhere (NaN, inf, an int, None, a numpy float, a str)
    # puts the table's body back on csv.writer
    bodies = []

    class Writer:
        def __init__(self, fh, **kwargs):
            self._writer = csv_writer(fh, **kwargs)
            self.writerow = self._writer.writerow

        def writerows(self, rows):
            bodies.append(1)
            self._writer.writerows(rows)

    csv_writer = csv.writer
    monkeypatch.setattr(results.csv, "writer", Writer)
    floats = [{"a": 0.5, "b": -1.5}, {"a": 2.0, "b": 1e-300}]
    emit_results(floats, ["a", "b"], tmp_path, "floats")
    assert bodies == []
    for odd in (math.nan, math.inf, 3, None, np.float64(0.5), "x"):
        emit_results([*floats, {"a": 1.0, "b": odd}], ["a", "b"], tmp_path, "odd")
    assert len(bodies) == 6


@pytest.mark.parametrize("bad", [
    {"a": 1.0},                        # a missing key
    {"a": 1.0, "b": 2.0, "c": 3.0},    # an extra key
    {"a": 1.0, "c": 2.0},              # a renamed key, same count
], ids=["missing", "extra", "renamed"])
def test_emit_results_rejects_a_row_off_the_columns(tmp_path, bad):
    with pytest.raises(ValueError, match=re.escape(f"row keys {sorted(bad)} do not match")):
        emit_results([{"a": 0.0, "b": 0.0}, bad], ["a", "b"], tmp_path / "out", "bad")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("columns", [[], ["a", "a"]], ids=["none", "repeated"])
def test_emit_results_rejects_empty_or_repeated_columns(tmp_path, columns):
    with pytest.raises(ValueError, match="must be distinct, and at least one"):
        emit_results([], columns, tmp_path, "bad")


def test_emit_results_one_column(tmp_path):
    csv_path, json_path = emit_results([{"tau": 0.5}, {"tau": "bs"}], ["tau"], tmp_path, "one")
    assert csv_path.read_text() == "tau\n0.5\nbs\n"
    csv_path, _ = emit_results([{"x": np.float64(0.25)}], ["x"], tmp_path, "one_np")
    assert csv_path.read_text() == "x\n0.25\n"
    text = json_path.read_text()
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text)["rows"] == [{"tau": 0.5}, {"tau": "bs"}]


def test_emit_results_empty_rows(tmp_path, cfg):
    csv_path, json_path = emit_results([], ["a", "b"], tmp_path, "empty",
                                       config=cfg.to_flat_dict(), seed=0, meta={})
    assert csv_path.read_text() == "a,b\n"
    assert json.loads(json_path.read_text())["rows"] == []


def test_emit_results_rejects_bad_rows(tmp_path, cfg):
    with pytest.raises(ValueError):
        emit_results([{"a": 1.0}], ["a", "b"], tmp_path, "bad",
                     config=cfg.to_flat_dict(), seed=0, meta={})


def test_version_stamp_ignores_working_directory(tmp_path, monkeypatch):
    # the stamp names the checkout holding the package, wherever it is called from
    results._version_string.cache_clear()
    here = results._version_string()
    results._version_string.cache_clear()
    monkeypatch.chdir(tmp_path)
    assert results._version_string() == here


def test_version_stamp_falls_back_to_the_installed_version(monkeypatch):
    # where git cannot run, the stamp is the installed version, else "unknown"
    import importlib.metadata
    import subprocess

    def no_git(*args, **kwargs):
        raise FileNotFoundError("git")

    try:
        expect = importlib.metadata.version("hetcache")
    except importlib.metadata.PackageNotFoundError:
        expect = "unknown"
    monkeypatch.setattr(subprocess, "run", no_git)
    results._version_string.cache_clear()
    try:
        assert results._version_string() == expect
    finally:
        results._version_string.cache_clear()


def test_cli_association_writes_csv_and_json(tmp_path):
    rc = main(["association", "--out", str(tmp_path)])
    assert rc == 0
    csv_path = tmp_path / "association.csv"
    json_path = tmp_path / "association.json"
    assert csv_path.exists() and json_path.exists()
    env = json.loads(json_path.read_text())
    total = sum(r["probability"] for r in env["rows"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cli_rerun_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["d2d-density", "--points", "10", "--out", str(out1)])
    main(["d2d-density", "--points", "10", "--out", str(out2)])
    assert (out1 / "d2d-density.csv").read_bytes() == (out2 / "d2d-density.csv").read_bytes()


def test_cli_outage_tau_flags(tmp_path):
    main(["outage", "--tau-db", "-10", "-5", "--out", str(tmp_path)])
    env = json.loads((tmp_path / "outage.json").read_text())
    assert {r["tau_db"] for r in env["rows"]} == {-10.0, -5.0}
    assert all(0.0 <= r["outage"] <= 1.0 for r in env["rows"])


@pytest.mark.parametrize("argv", [
    ["outage", "--tau-db", "-10", "-5"],
    ["sinr-cdf", "--tau-min", "-5", "--tau-max", "5", "--tau-step", "10"],
])
def test_cli_cdf_runs_on_a_noisy_config(tmp_path, argv):
    # case 3 is defined without noise only, so a noisy config yields cases 1 and 2
    cfg_path = tmp_path / "noisy.json"
    cfg_path.write_text(json.dumps({"noise": 1e-12}))
    assert main(argv + ["--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"{argv[0]}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 and {r["case"] for r in rows} == {"1", "2"}


@pytest.mark.parametrize("command", ["queue", "steady", "baseline-compare"])
def test_cli_queueing_on_a_noisy_config_names_the_starved_classes(tmp_path, capsys, command):
    # case 3 has no noise-inclusive rate, but its users still carry traffic
    cfg_path = tmp_path / "noisy.json"
    cfg_path.write_text(json.dumps({"noise": 1e-12}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: classes (case, backhaul, node) with traffic but zero service rate: "
        "(case3, bh_free, relay), (case3, bh_free, bs), (case3, bh_needed, relay); "
        "case 3 has no noise-inclusive rate\n")


def test_cli_steady_meta(tmp_path):
    main(["steady", "--out", str(tmp_path)])
    env = json.loads((tmp_path / "steady.json").read_text())
    assert env["meta"]["varsigma_star"] > 0.0
    assert env["meta"]["binding_node"] in ("d2d", "relay", "bs", "local")


def test_cli_preset_runs_on_the_preset_config(tmp_path):
    # without --config the steady preset runs on, and echoes, fig6_config
    main(["steady", "--preset", "steady", "--out", str(tmp_path)])
    env = json.loads((tmp_path / "steady-steady.json").read_text())
    assert env["config"] == fig6_config().to_flat_dict()
    library = run_preset("steady")
    assert [r["gain"] for r in env["rows"]] == [r["gain"] for r in library.rows]
    gains = {r["gamma"]: r["gain"] for r in env["rows"] if r["kappa"] == 0.8}
    assert gains[0.8] == pytest.approx(0.046, abs=1e-3)
    assert gains[1.8] == pytest.approx(0.436, abs=1e-3)


def test_cli_subcommand_and_its_preset_write_separate_files(tmp_path):
    # the steady subcommand and the steady preset share a name, not a file
    main(["steady", "--out", str(tmp_path)])
    main(["steady", "--preset", "steady", "--out", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "steady-steady.csv", "steady-steady.json", "steady.csv", "steady.json"]
    assert "varsigma_star" in json.loads((tmp_path / "steady.json").read_text())["meta"]
    assert "gain" in json.loads((tmp_path / "steady-steady.json").read_text())["columns"]


def test_cli_config_file_dbm_keys(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 0.2, "p1_dbm": 13.0}))
    main(["association", "--config", str(cfg_path), "--out", str(tmp_path)])
    env = json.loads((tmp_path / "association.json").read_text())
    assert env["config"]["alpha"] == 0.2
    assert env["config"]["p1_dbm"] == pytest.approx(13.0)


# one run per subcommand, with flags wherever it takes them
_RERUNS = [
    ["association"],
    ["d2d-density", "--points", "5"],
    ["rate"],
    ["outage", "--tau-db", "-3", "2.5"],
    ["sinr-cdf", "--tau-min", "-5", "--tau-max", "5", "--tau-step", "5"],
    ["queue"],
    ["steady"],
    ["baseline-compare"],
    ["simulate", "--topologies", "2", "--window", "1500", "--seed", "4"],
    ["sweep", "--var", "alpha", "--start", "0.1", "--stop", "0.3", "--num", "3",
     "--quantity", "varsigma_star"],
    # the default quantity; "--var" goes last so the test id stays distinct
    ["sweep", "--start", "0.1", "--stop", "0.3", "--num", "3", "--var", "alpha"],
    ["queue", "--config", "off-grid"],
    ["simulate", "--topologies", "2", "--window", "1500", "--seed", "4", "--config", "beta-3.5"],
    ["simulate", "--topologies", "2", "--window", "1500", "--seed", "4", "--config", "alpha-0"],
    ["simulate", "--topologies", "2", "--window", "1500", "--seed", "4",
     "--config", "alpha-0.25"],
    ["rate", "--config", "noise-1e-12"],
    ["rate", "--config", "noise-1"],
    ["outage", "--config", "noise-1"],
]
# the config files that _RERUNS names
_CONFIGS = {
    # powers with no exact dBm value: the config echo must keep the watts
    "off-grid": {"p1": 0.3, "p2": 2.1, "p3": 19.0},
    "beta-3.5": {"beta": 3.5},
    # no cache-enabled user: cases 2 and 3 hold NaN from 0 samples
    "alpha-0": {"alpha": 0.0},
    # above alpha*, so the D2D tier is thinned, and all seven (case, serving
    # tier) row sets of the oracle's pass fill
    "alpha-0.25": {"alpha": 0.25},
    "noise-1e-12": {"noise": 1e-12},
    "noise-1": {"noise": 1.0},
}


def _rerun_id(argv: list[str]) -> str:
    """The subcommand and its first flag, then the name of its config; the
    one off-grid run keeps the bare ``queue---config``."""
    return "-".join(argv[:2] + [a for a in argv if a in _CONFIGS and a != "off-grid"])


def _rerun_argv(env: dict, config_path) -> list[str]:
    """A command line that runs an envelope's config and params again; the
    params hold the seed of a run that reads one."""
    config_path.write_text(json.dumps(env["config"]))
    argv = [env["name"], "--config", str(config_path)]
    for dest, value in env["params"].items():
        argv.append("--" + dest.replace("_", "-"))
        argv += [str(v) for v in value] if isinstance(value, list) else [str(value)]
    return argv


def test_rerun_cases_cover_every_command():
    assert {argv[0] for argv in _RERUNS} == set(COMMANDS)


# the flags a run needs, and a short Monte Carlo run; every other flag at its default
_SHORT_RUNS = {"simulate": ["--topologies", "2", "--window", "1500"],
               "sweep": ["--var", "alpha", "--start", "0.1", "--stop", "0.3", "--num", "3"]}


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_seed_is_a_flag_of_the_runs_that_draw(tmp_path, capsys, command):
    # simulate alone draws, so it alone takes --seed; the envelope's seed is
    # the one read, and null where none is
    draws = command == "simulate"
    assert ("--seed" in dict(COMMANDS[command].flags)) == draws
    argv = [command, *_SHORT_RUNS.get(command, [])]
    main([*argv, "--out", str(tmp_path)])
    env = json.loads((tmp_path / f"{command}.json").read_text())
    assert env["seed"] == env["params"].get("seed") == (0 if draws else None)
    if draws:
        assert build_parser().parse_args([*argv, "--seed", "1"]).seed == 1
    else:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "1", "--out", str(tmp_path / "seeded")])
        assert exc.value.code == 2
        message = f"hetcache {command}: error: unrecognized arguments: --seed 1"
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", _RERUNS, ids=_rerun_id)
def test_cli_rerun_from_envelope_is_byte_identical(tmp_path, argv):
    for name in set(argv) & set(_CONFIGS):
        (tmp_path / f"{name}.json").write_text(json.dumps(_CONFIGS[name]))
    argv = [str(tmp_path / f"{a}.json") if a in _CONFIGS else a for a in argv]
    first, second = tmp_path / "first", tmp_path / "second"
    main(argv + ["--out", str(first)])
    env = json.loads((first / f"{argv[0]}.json").read_text())
    assert "params" not in env["meta"]
    assert env["seed"] == (4 if argv[0] == "simulate" else None)
    main(_rerun_argv(env, tmp_path / "echo.json") + ["--out", str(second)])
    name = f"{argv[0]}.csv"
    assert (second / name).read_bytes() == (first / name).read_bytes()


def test_cli_simulate_has_positive_std_errors(tmp_path):
    main(["simulate", "--topologies", "4",
          "--window", "1500", "--tau-db", "-10", "-3", "3", "--out", str(tmp_path), "--seed", "3"])
    env = json.loads((tmp_path / "simulate.json").read_text())
    rates = [r for r in env["rows"] if r["quantity"] == "rate_nats"]
    assert any(r["std_error"] > 0.0 for r in rates)
    # -3 and 3 dB do not survive 10 log10(10^(x/10)); the column holds the flag's values
    with open(tmp_path / "simulate.csv", newline="") as fh:
        taus = [r["tau_db"] for r in csv.DictReader(fh) if r["quantity"] == "outage"]
    assert taus == ["-10.0", "-3.0", "3.0"] * 3
    # analytic outputs carry no sampling error column at all
    main(["outage", "--out", str(tmp_path)])
    out_env = json.loads((tmp_path / "outage.json").read_text())
    assert "std_error" not in out_env["columns"]


def test_cli_simulate_rejects_repeated_tau_db(tmp_path, capsys):
    # outage wrote each row twice; both commands keep one row per threshold
    for argv in (["simulate", "--topologies", "2", "--window", "1500"], ["outage"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tau-db", "-5", "-5", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "outage thresholds must be distinct" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


_WINDOW_DOMAIN = ("argument --window: window side must be positive, "
                  "with a finite area and node count")


@pytest.mark.parametrize("argv, message", [
    (["--window", "1500", "--tau-db", "nan"], "argument --tau-db: nan dB is not a number"),
    (["--window", "10"], "relay/BS tier stayed empty"),
    (["--window", "inf"], f"{_WINDOW_DOMAIN}; got inf"),
    (["--window", "nan"], f"{_WINDOW_DOMAIN}; got nan"),
    (["--seed", "-1"], "argument --seed: must be a non-negative integer, got -1"),
], ids=["nan-threshold", "starved-window", "infinite-window", "nan-window", "negative-seed"])
def test_cli_simulate_rejects_bad_inputs(tmp_path, capsys, argv, message):
    # a NaN threshold wrote NaN rows from 0 samples; a window too small for a
    # relay and a BS ended in a traceback; an infinite or NaN window reached
    # numpy's Poisson draw, and a negative seed numpy's generator, whose
    # messages named neither the flag nor the value
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--topologies", "1", *argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "simulate.csv").exists()


@pytest.mark.parametrize("argv, value", [
    (["outage", "--tau-db", "4000"], "4000.0"),
    (["sweep", "--var", "alpha", "--start", "0.1", "--stop", "0.2", "--num", "2",
      "--quantity", "outage_case1", "--tau-db", "4000"], "4000.0"),
    (["simulate", "--topologies", "1", "--window", "1500", "--tau-db", "1e308"], "1e+308"),
], ids=["outage", "sweep", "simulate"])
def test_cli_db_value_past_the_float_range_is_usage_error(tmp_path, capsys, argv, value):
    # 10 ** (x / 10) overflows past ~3083 dB; that was an OverflowError traceback
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"{value} dB gives a ratio outside the float range" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_cli_simulate_accepts_an_infinite_threshold(tmp_path):
    # 10 ** inf is inf, not an overflow: every draw falls short of it
    assert main(["simulate", "--topologies", "1", "--window", "1500", "--tau-db", "inf",
                 "--out", str(tmp_path)]) == 0
    with open(tmp_path / "simulate.csv", newline="") as fh:
        outage = [r["value"] for r in csv.DictReader(fh) if r["quantity"] == "outage"]
    assert outage and all(v == "1.0" for v in outage)


def test_cli_simulate_meta_counts_rows_per_case_and_tier(tmp_path, cfg):
    # next to the association fractions, the reference users measured per
    # (case, serving tier), summed over topologies
    main(["simulate", "--topologies", "2", "--window", "1500", "--seed", "4",
          "--out", str(tmp_path)])
    counts = json.loads((tmp_path / "simulate.json").read_text())["meta"]["reference_rows"]
    summary = run_monte_carlo(cfg, n_topologies=2, seed=4, window=1500.0)
    assert counts == {f"case{c}_tier{t}": n for (c, t), n in summary.reference_rows.items()}
    assert len(counts) == 7 and all(n > 0 for n in counts.values())


def test_cli_sweep(tmp_path):
    main(["sweep", "--var", "gamma", "--start", "0.4", "--stop", "1.2",
          "--num", "3", "--quantity", "rate_case1", "--out", str(tmp_path)])
    env = json.loads((tmp_path / "sweep.json").read_text())
    assert [r["gamma"] for r in env["rows"]] == [0.4, 0.8, 1.2]
    assert all(r["rate_case1"] > 0.0 for r in env["rows"])


def test_cli_sweep_rejects_bad_grid(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--var", "gamma", "--start", "1.0", "--stop", "0.5",
              "--num", "3", "--out", str(tmp_path)])
    # a usage error of the run is printed by its subcommand's parser
    assert "hetcache sweep: error: sweep grid must be strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("start, stop, num", [(1.0, 0.5, 3)], ids=["3"])
def test_sweep_rejects_bad_grid_without_exiting(cfg, start, stop, num):
    # a decreasing grid is a ValueError for a library caller; each flag's own
    # domain is its argparse type (test_cli_flag_domains)
    with pytest.raises(ValueError, match=re.escape(
            f"strictly increasing; got --start {start}, --stop {stop}, --num {num}")):
        COMMANDS["sweep"].run(cfg, var="gamma", start=start, stop=stop, num=num,
                              quantity="rate_case1", tau_db=-10.0)


_EMPTY_GRIDS = [
    ("sinr-cdf", dict(tau_min=-5.0, tau_max=5.0, tau_step=0.0)),
    ("sinr-cdf", dict(tau_min=-5.0, tau_max=5.0, tau_step=-1.0)),
    ("sinr-cdf", dict(tau_min=5.0, tau_max=-5.0, tau_step=1.0)),
    ("d2d-density", dict(points=0)),
    ("sinr-cdf", dict(tau_min=-5.0, tau_max=math.inf, tau_step=1.0)),
    ("sinr-cdf", dict(tau_min=-5.0, tau_max=5.0, tau_step=math.inf)),
    ("sinr-cdf", dict(tau_min=math.nan, tau_max=5.0, tau_step=1.0)),
    ("sinr-cdf", dict(tau_min=-5.0, tau_max=5.0, tau_step=math.nan)),
]


_EMPTY_GRID_IDS = ["tau-step-0", "tau-step-negative", "tau-min-above-max", "points-0",
                   "tau-max-inf", "tau-step-inf", "tau-min-nan", "tau-step-nan"]


@pytest.mark.parametrize("command, params", _EMPTY_GRIDS, ids=_EMPTY_GRID_IDS)
def test_cli_rejects_empty_grid(tmp_path, capsys, command, params):
    # a zero step ended in a ZeroDivisionError, the rest wrote a header-only CSV
    flags = [x for k, v in params.items() for x in ("--" + k.replace("_", "-"), str(v))]
    with pytest.raises(SystemExit) as exc:
        main([command, *flags, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_simulate_window_past_its_bound_is_usage_error(tmp_path, capsys, monkeypatch):
    # a window's mean node count at the config's densities is bounded by what
    # a run holds in memory; a window just past the bound is refused before
    # any draw, and one at the bound runs
    cfg = COMMANDS["simulate"].config()
    bound = (cfg.lambda0 + cfg.lambda2 + cfg.lambda3) * 1500.0 * 1500.0
    monkeypatch.setattr(montecarlo, "_MAX_MEAN_COUNT", bound)
    argv = ["simulate", "--topologies", "1", "--window"]
    assert main([*argv, "1500", "--out", str(tmp_path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main([*argv, "1501", "--out", str(tmp_path / "past")])
    assert exc.value.code == 2
    assert (f"node count; got 1501.0 (at most {bound:.0f} nodes on average"
            in capsys.readouterr().err)
    assert not (tmp_path / "past").exists()


# a library caller's SINR CDF grids; d2d-density's point count is its flag's type
_LIBRARY_GRIDS = {i: params for i, (command, params) in zip(_EMPTY_GRID_IDS, _EMPTY_GRIDS)
                  if command == "sinr-cdf"}
_LIBRARY_GRIDS["tau-max-past-numpy"] = dict(tau_min=-5.0, tau_max=1e308, tau_step=1.0)


def test_cli_sinr_cdf_grid_past_its_bound_is_usage_error(tmp_path, capsys, monkeypatch):
    # a --tau-step of 1e-9 asked numpy for a 298 GiB grid and ended in a
    # traceback; a grid past the bound is refused before it is built
    monkeypatch.setattr(presets, "_MAX_GRID_POINTS", 10)
    main(["sinr-cdf", "--tau-min", "0", "--tau-max", "9", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exc:
        main(["sinr-cdf", "--tau-min", "0", "--tau-max", "10", "--out", str(tmp_path / "past")])
    assert exc.value.code == 2
    assert ("at most 10 points; got --tau-min 0.0, --tau-max 10.0, --tau-step 1.0"
            in capsys.readouterr().err)
    assert not (tmp_path / "past").exists()


@pytest.mark.parametrize("params", _LIBRARY_GRIDS.values(), ids=list(_LIBRARY_GRIDS))
def test_empty_grid_is_a_value_error_without_exiting(cfg, params):
    # an infinite bound or step, or a grid past numpy's array size, reached
    # numpy's arange, whose message named no flag; the SINR CDF grid's
    # message names every flag and its value
    with pytest.raises(ValueError) as exc:
        COMMANDS["sinr-cdf"].run(cfg, **params)
    assert str(exc.value).endswith(", ".join(
        f"--{k.replace('_', '-')} {v}" for k, v in params.items()))


# the flags a run needs, kept small; each walk replaces one flag's value
_WALK_BASE = {"simulate": ["--topologies", "1", "--window", "1500"],
              "sweep": ["--var", "varsigma", "--start", "0.1", "--stop", "0.3", "--num", "3"]}
_WALK = [(command, flag, value)
         for command, exp in COMMANDS.items()
         for flag, kwargs in exp.flags if "choices" not in kwargs
         for value in ("nan", "inf", "-inf", "-1", "0", "1e308")]


@pytest.mark.parametrize("command, flag, value", _WALK,
                         ids=[f"{c}{f}={v}" for c, f, v in _WALK])
def test_cli_flag_domains(tmp_path, capsys, command, flag, value):
    # every value either runs or is a usage error naming its flag, or for a
    # swept bound the swept field; 17 of these runs named neither, or gave
    # numpy's message, before each flag's domain was its argparse type
    try:
        main([command, *_WALK_BASE.get(command, []), f"{flag}={value}", "--out", str(tmp_path)])
    except SystemExit as exc:
        assert exc.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert flag in error or (flag in ("--start", "--stop") and "varsigma" in error), error
        # a text that does not parse as the flag's number is outside its domain too
        kind = int if isinstance(dict(COMMANDS[command].flags)[flag].get("default"), int) else float
        try:
            kind(value)
        except ValueError:
            assert "must be" in error, error
        assert not list(tmp_path.iterdir())
    else:
        assert (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("var", ["bogus", "seed", "n_contents", "nu", "bias"])
def test_cli_sweep_rejects_bad_variable(tmp_path, capsys, var):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--var", var, "--start", "0.4", "--stop", "1.2",
              "--num", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_cli_preset_echoes_its_config_and_rows(tmp_path, name):
    # fig7 alone draws, so it alone takes, and echoes, a seed
    command = next(c for c, exp in COMMANDS.items() if name in exp.presets)
    seed = ["--seed", "3"] if name == "fig7" else []
    assert ("--seed" in dict(PRESETS[name].flags)) == bool(seed)
    main([command, "--preset", name, *seed, "--out", str(tmp_path)])
    env = json.loads((tmp_path / f"{command}-{name}.json").read_text())
    assert env["config"] == PRESETS[name].config().to_flat_dict()
    assert env["params"] == ({"seed": 3} if seed else {})
    assert env["seed"] == env["params"].get("seed")
    library = run_preset(name, seed=3)
    with open(tmp_path / f"{command}-{name}.csv", newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == library.columns
    for line, row in zip(lines, library.rows, strict=True):
        for cell, column in zip(line, library.columns, strict=True):
            want = row[column]
            if isinstance(want, str):
                assert cell == want
            else:
                assert float(cell) == want or math.isnan(want) and math.isnan(float(cell))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_files_hold_the_bytes_of_one_encoder_pass(tmp_path, name):
    # every paper table keeps the bytes csv.writer and json.dumps give it,
    # whichever path its CSV body takes
    r = run_preset(name, seed=3)
    _emit_and_check_bytes(tmp_path, r.rows, r.columns, name, seed=3, meta=r.meta)


def test_fig3b_is_the_fig3a_sweep_on_the_low_power_set():
    low_power = PRESETS["fig3b"].config()
    assert low_power.to_flat_dict()["p1_dbm"] == pytest.approx(13.0)
    assert run_preset("fig3b").rows == run_preset("fig3a", low_power).rows


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["no-such-command"])
    # a flag before the command is hetcache's own error, not the command's
    with pytest.raises(SystemExit) as exc:
        main(["--bogus", "rate"])
    assert exc.value.code == 2
    assert "hetcache: error: unrecognized arguments: --bogus" in capsys.readouterr().err


def test_cli_simulate_rejects_fading_flag(tmp_path):
    # the fading is averaged in closed form, so there is no redraw count, and
    # the window is always a torus, so there is no edge treatment to choose
    for flag in (["--fading", "3"], ["--boundary", "torus"], ["--margin", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--topologies", "1", *flag, "--out", str(tmp_path)])
        assert exc.value.code == 2, flag
    assert not list(tmp_path.iterdir())


def test_cli_schema_invalid_config_is_usage_error(tmp_path, capsys):
    # a config file that fails the JSON schema exits 2 with a message, not a traceback
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"alpha": 2.0}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["association", "--config", str(cfg_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("config,out", [
    ("missing.json", "out"),   # no such file
    ("adir", "out"),           # a directory
    ("notes.txt", "out"),      # not JSON
    (None, "afile"),           # --out names an existing file
])
def test_cli_bad_config_or_out_path_is_usage_error(tmp_path, capsys, config, out):
    # a path that holds no config, or cannot hold the results, exits 2 naming it
    (tmp_path / "adir").mkdir()
    (tmp_path / "notes.txt").write_text("not json\n")
    (tmp_path / "afile").write_text("")
    argv = ["rate", "--out", str(tmp_path / out)]
    if config:
        argv += ["--config", str(tmp_path / config)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / (config or out)) in err
    assert ("invalid config file" in err) == bool(config)
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("raw", ['{"m1": 5.0}', '{"beta": NaN}', '{"bias": 2.0}', '{"beta": 2.0}'])
def test_cli_config_that_no_network_accepts_is_usage_error(tmp_path, capsys, raw):
    # a float cache size, a NaN exponent or beta = 2 is rejected before any analysis runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(raw)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["rate", "--config", str(cfg_path), "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["outage", "--preset", "fig4", "--tau-db", "-3"],
    ["sinr-cdf", "--preset", "fig5", "--tau-step", "2"],
    ["simulate", "--preset", "fig7", "--topologies", "5"],
    ["rate", "--preset", "fig3a", "--seed", "1"],
])
def test_cli_preset_rejects_subcommand_flags(tmp_path, capsys, argv):
    # a preset runs its own grid, so a subcommand flag would be silently ignored
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert argv[3] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_rows_hold_plain_values(name):
    # plain str/int/float cells, never numpy scalars (np.float64 passes isinstance float)
    r = run_preset(name)
    assert {type(v) for row in r.rows for v in row.values()} <= {str, int, float}
    if name == "steady":
        assert type(r.meta["varsigma_star"]) is float


@pytest.mark.parametrize("name", ["fig2", "fig4", "fig6", "steady"])
def test_presets_produce_rows(name, cfg):
    r = run_preset(name, cfg, seed=0)
    assert r.name == name
    assert len(r.rows) > 0
    assert all(set(row) == set(r.columns) for row in r.rows)


def test_preset_names_and_unknown(cfg):
    assert len(set(PRESET_NAMES)) == len(PRESET_NAMES)
    with pytest.raises(ValueError):
        run_preset("fig99", cfg, seed=0)


def test_preset_fig2_monotone_case1(cfg):
    r = run_preset("fig2", cfg, seed=0)
    case1 = [row["case1"] for row in r.rows]
    assert all(b > a for a, b in zip(case1, case1[1:]))


def test_preset_fig2_writes_the_gamma_each_row_ran_at(cfg):
    assert [row["gamma"] for row in run_preset("fig2", cfg).rows] == [k / 10 for k in range(2, 21)]


def _count_builds(monkeypatch) -> dict[str, int]:
    """Count cached and baseline model builds through the state matrix each
    builder makes once."""
    counts = {"cached": 0, "baseline": 0}
    for key, name in (("cached", "state_matrix"), ("baseline", "baseline_state_matrix")):
        def counted(cfg, _build=getattr(queueing, name), _key=key):
            counts[_key] += 1
            return _build(cfg)
        monkeypatch.setattr(queueing, name, counted)
    return counts


@pytest.mark.parametrize("run, builds", [
    (lambda: run_preset("steady"), {"cached": 6, "baseline": 3}),
    (lambda: COMMANDS["baseline-compare"].run(fig6_config()), {"cached": 1, "baseline": 1}),
], ids=["steady-preset", "baseline-compare"])
def test_queueing_outputs_build_each_model_once(monkeypatch, run, builds):
    # the steady preset: one cached model per (gamma, kappa) row, which its
    # config's meta reads, and one baseline per kappa
    counts = _count_builds(monkeypatch)
    run()
    assert counts == builds


def test_preset_steady_meta():
    # the preset's meta is the steady-state analysis of fig6_config
    r = run_preset("steady")
    cfg = fig6_config()
    m = queue_metrics(cfg, *network_model(cfg)[1:])
    assert r.meta == {
        "rulers": dict(zip(("d2d", "relay", "bs", "local"), m.rulers.tolist())),
        "binding_node": m.binding_node,
        "varsigma_star": m.varsigma_star,
    }
    assert r.meta["binding_node"] == "bs"


def test_baseline_compare_meta_is_throughput_gain(cfg):
    _, rows, meta = COMMANDS["baseline-compare"].run(cfg)
    assert meta == throughput_gain(cfg)
    star = {r["model"]: r["varsigma_star"] for r in rows}
    assert star == {"cached": meta["varsigma_star_cached"],
                    "baseline": meta["varsigma_star_baseline"]}
