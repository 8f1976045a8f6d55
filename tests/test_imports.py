"""``import hetcache`` loads numpy, ``scipy.special`` and the standard
library only; the simulator's k-d tree and QUADPACK load on first use.  Each check runs in a fresh interpreter, since
this test process has long since imported all of them.  The modules import
no private name of one another."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ON_DEMAND = ("scipy.spatial", "scipy.integrate", "scipy.sparse")


def _fresh(code: str) -> dict:
    """Run code in a new interpreter with the package from src/; it prints
    one JSON object, which is returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_import_leaves_on_demand_modules_unloaded():
    loaded = _fresh(
        "import json, sys\n"
        "import hetcache, hetcache.cli\n"
        f"print(json.dumps([m for m in {ON_DEMAND!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_on_demand_modules_load_on_first_use():
    out = _fresh(
        "import json, math, sys\n"
        "from hetcache import NetworkConfig, integrate_interval, run_monte_carlo\n"
        "mc = run_monte_carlo(NetworkConfig(), n_topologies=1, window=1000.0,\n"
        "                     max_users=5, max_reference_users=5)\n"
        "value, _ = integrate_interval(math.exp, 0.0, 1.0)\n"
        "print(json.dumps({'rate': mc.rates[1].value, 'value': value,\n"
        f"                  'loaded': [m for m in {ON_DEMAND!r} if m in sys.modules]}}))\n"
    )
    assert out["rate"] > 0.0
    assert out["value"] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert {"scipy.spatial", "scipy.integrate"} <= set(out["loaded"])


def test_no_module_imports_a_private_name_of_another():
    # each module owns its private names: a relative import of one fails here
    found = []
    for path in sorted((SRC / "hetcache").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}{node.module} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def test_outage_reexports_the_one_sinr_cdf():
    # the benchmark's tracer patches every module's reference by identity
    import hetcache.outage
    import hetcache.rates

    assert hetcache.outage.sinr_cdf is hetcache.rates.sinr_cdf
