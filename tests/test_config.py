import dataclasses
import json
import math

import numpy as np
import pytest

from hetcache import NetworkConfig, dbm_to_watts, load_config, watts_to_dbm
from hetcache.config import DISK_500M_AREA, config_from_dict, db_to_linear


def test_unit_conversions_roundtrip():
    assert dbm_to_watts(30.0) == pytest.approx(1.0)
    assert dbm_to_watts(23.0) == pytest.approx(0.19952623, rel=1e-8)
    assert watts_to_dbm(dbm_to_watts(13.0)) == pytest.approx(13.0, abs=1e-12)
    assert db_to_linear(-10.0) == pytest.approx(0.1)
    assert db_to_linear(math.inf) == math.inf
    with pytest.raises(ValueError, match="nan dB is not a number"):
        db_to_linear(math.nan)
    with pytest.raises(ValueError, match="4000.0 dB gives a ratio outside the float range"):
        db_to_linear(4000.0)
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)


def test_default_densities(cfg):
    assert cfg.lambda0 == pytest.approx(300.0 / DISK_500M_AREA)
    assert cfg.lambda2 == pytest.approx(5.0 / DISK_500M_AREA)
    assert cfg.lambda3 == pytest.approx(1.0 / DISK_500M_AREA)
    assert cfg.lambda1 == pytest.approx(0.1 * cfg.lambda0)
    assert cfg.densities == (cfg.lambda1, cfg.lambda2, cfg.lambda3)


@pytest.mark.parametrize("bad", [
    dict(alpha=1.5),
    dict(alpha=-0.1),
    dict(lambda2=1.0),            # violates lambda0 > lambda2
    dict(beta=1.5),
    dict(m1=50),                  # m1 >= m2
    dict(m2=200),                 # m2 >= n_contents
    dict(backhaul_kappa=1.0),
    dict(backhaul_kappa=0.0),
    dict(noise=-1e-9),
    dict(p1=0.0),
    dict(varsigma=-1.0),
    dict(varrho_inv=0.0),
])
def test_invalid_configs_rejected(bad):
    # the message names the field (one traffic message once covered both
    # varsigma and varrho_inv)
    with pytest.raises(ValueError, match=next(iter(bad))):
        NetworkConfig(**bad)


def test_with_updates_is_functional(cfg):
    c2 = cfg.with_updates(alpha=0.3)
    assert c2.alpha == 0.3
    assert cfg.alpha == 0.1


def test_flat_dict_has_dbm_views(cfg):
    flat = cfg.to_flat_dict()
    assert flat["p1_dbm"] == pytest.approx(23.0)
    assert flat["p3_dbm"] == pytest.approx(43.0)
    assert flat["alpha"] == cfg.alpha


def test_config_from_dict_dbm_wins():
    cfg = config_from_dict({"p1_dbm": 13.0, "alpha": 0.2})
    assert cfg.p1 == pytest.approx(dbm_to_watts(13.0))
    assert cfg.alpha == 0.2


def test_config_echo_round_trips_off_grid_powers():
    # 0.3 W is not an exact dBm value: its dBm echo rebuilds 0.3000000000000001 W
    cfg = NetworkConfig(p1=0.3, p2=2.1, p3=19.0)
    assert dbm_to_watts(watts_to_dbm(0.3)) != 0.3
    assert config_from_dict(cfg.to_flat_dict()) == cfg
    rng = np.random.default_rng(21)
    for powers in 10.0 ** rng.uniform(-6.0, 4.0, size=(2000, 3)):
        cfg = NetworkConfig(p1=float(powers[0]), p2=float(powers[1]), p3=float(powers[2]))
        echo = json.loads(json.dumps(cfg.to_flat_dict()))
        assert config_from_dict(echo) == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(Exception):
        config_from_dict({"frequency": 2.4e9})


_KEYS = [f.name for f in dataclasses.fields(NetworkConfig)] + ["p1_dbm", "p2_dbm", "p3_dbm"]

# each rule a config mapping must pass: a number of the right type per key,
# each range, no unknown key, a mapping at all
_INVALID_MAPPINGS = [
    *({key: "1"} for key in _KEYS),
    {"alpha": True},
    {"m1": False},
    {"lambda0": 0.0}, {"lambda2": -1e-6}, {"lambda3": 0.0},
    {"alpha": -0.1}, {"alpha": 1.5},
    {"p1": 0.0}, {"p2": -1.0}, {"p3": 0.0},
    {"beta": 1.9}, {"beta": 2.0}, {"noise": -1e-12}, {"bandwidth_w": 0.0},
    {"n_contents": 1}, {"content_size_s": 0.0}, {"m1": 0}, {"m2": 1}, {"gamma": -0.1},
    {"varsigma": -0.1}, {"varrho_inv": 0.0},
    {"nu": 2.0}, {"bias": 0.5},   # both fixed at 1
    {"backhaul_kappa": 0.0}, {"backhaul_kappa": 1.0}, {"local_rate_ul": 0.0},
    {"p1": -1.0, "p1_dbm": 13.0},   # the dBm key wins, but the watts value is still checked
    {"frequency": 2.4e9},
    [["alpha", 0.2]],
    # integral floats, NaN and infinities
    {"m1": 5.0}, {"n_contents": 200.0}, {"beta": math.nan}, {"p1_dbm": math.nan},
    {"noise": math.inf},
    # a dBm power beyond the float range in watts
    {"p1_dbm": 1e5},
]


@pytest.mark.parametrize("raw", _INVALID_MAPPINGS, ids=json.dumps)
def test_config_from_dict_rejects_invalid_mappings(raw):
    with pytest.raises(ValueError, match="^invalid config: ") as exc:
        config_from_dict(json.loads(json.dumps(raw)))
    # a message about one key names that key; a dBm key, not the watts value it maps to
    keys = list(raw) if isinstance(raw, dict) else []
    if len(keys) == 1:
        assert keys[0] in str(exc.value)


def test_config_from_dict_names_an_int_beyond_float_range():
    # json reads a long integer literal as an int that no float holds
    with pytest.raises(ValueError, match="^invalid config: lambda0 lies outside the float range"):
        config_from_dict(json.loads('{"lambda0": 1' + "0" * 400 + "}"))


def test_numpy_scalars_are_numbers():
    cfg = NetworkConfig(alpha=np.float64(0.2), beta=np.float32(3.5), m1=np.int64(3))
    assert (cfg.alpha, cfg.beta, cfg.m1) == (0.2, 3.5, 3)


def test_load_default_config_file(tmp_path):
    # the default network as a file states it: densities in nodes/m^2,
    # powers in dBm
    path = tmp_path / "cfg.json"
    path.write_text('{"lambda0": 3.819718634205488e-04, "lambda2": 6.366197723675814e-06, '
                    '"lambda3": 1.2732395447351628e-06, "alpha": 0.1, '
                    '"p1_dbm": 23.0, "p2_dbm": 33.0, "p3_dbm": 43.0, "beta": 4.0}')
    cfg = load_config(str(path))
    assert cfg.lambda0 == pytest.approx(300.0 / DISK_500M_AREA, rel=1e-9)
    assert math.isclose(cfg.p2, dbm_to_watts(33.0), rel_tol=1e-9)
