"""``import hetcache`` loads numpy and the standard library only, and no
scipy module, nor does a Monte Carlo run: only ``gauss_2f1`` (its
``scipy.special``) and ``integrate_interval`` (QUADPACK) load scipy, on
first use.  Nor does a run load a module it does not need: no
``importlib.metadata`` (with ``email``) or ``subprocess`` until an envelope
asks for the version string, no ``argparse`` before ``hetcache.cli``, and
no ``numpy.ma`` in a Monte Carlo run.  Each check runs in a fresh
interpreter, since this test process has long since imported all of them,
and counts only the modules that the interpreter did not hold at its start
(a site hook may preload some).  The modules import no private name of one
another."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ON_DEMAND = ("scipy.special", "scipy.integrate")
VERSION_MODULES = ("importlib.metadata", "email", "subprocess")


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
    # not one scipy module: the on-demand ones above and scipy itself
    loaded = _fresh(
        "import json, sys\n"
        "import hetcache, hetcache.cli\n"
        "print(json.dumps([m for m in sys.modules if m.partition('.')[0] == 'scipy']))\n"
    )
    assert loaded == []


def _new_modules(code: str) -> list[str]:
    """The modules that running code loads in a fresh interpreter, beyond
    those that it holds before the code starts."""
    return _fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "new = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(new))\n"
    )


def _among(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    # each package and its submodules
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


@pytest.mark.parametrize("module", ["hetcache", "hetcache.presets", "hetcache.results",
                                    "hetcache.cli"])
def test_import_defers_what_only_some_runs_need(module):
    # the version string's modules load with the first envelope, argparse with the parser
    unloaded = VERSION_MODULES + (() if module == "hetcache.cli" else ("argparse",))
    new = _new_modules(f"import {module}")
    assert module in new
    assert _among(new, unloaded) == []


def test_monte_carlo_run_loads_no_masked_arrays():
    # the reference set is built without np.union1d, whose unique step imports numpy.ma
    new = _new_modules(
        "from hetcache import NetworkConfig, run_monte_carlo\n"
        "run_monte_carlo(NetworkConfig(), n_topologies=1, n_fading=2, window=1000.0,\n"
        "                max_users=5, max_reference_users=5, tau_grid=(0.1,))"
    )
    assert "hetcache.montecarlo" in new and "numpy" in new
    assert _among(new, ("numpy.ma",)) == []


def test_on_demand_modules_load_on_first_use():
    # the Monte Carlo run first, which loads no scipy module at all
    out = _fresh(
        "import json, math, sys\n"
        "from hetcache import NetworkConfig, gauss_2f1, integrate_interval, run_monte_carlo\n"
        "def scipy(): return [m for m in sys.modules if m.partition('.')[0] == 'scipy']\n"
        f"def loaded(): return [m for m in {ON_DEMAND!r} if m in sys.modules]\n"
        "mc = run_monte_carlo(NetworkConfig(), n_topologies=1, window=1000.0,\n"
        "                     max_users=5, max_reference_users=5)\n"
        "after_mc = scipy()\n"
        "f = gauss_2f1(1.0, 0.5, 1.5, -1.0)\n"
        "after_2f1 = loaded()\n"
        "value, _ = integrate_interval(math.exp, 0.0, 1.0)\n"
        "print(json.dumps({'f': f, 'rate': mc.rates[1].value, 'value': value,\n"
        "                  'after_mc': after_mc, 'after_2f1': after_2f1, 'loaded': loaded()}))\n"
    )
    assert out["rate"] > 0.0
    assert out["after_mc"] == []
    assert out["f"] == pytest.approx(math.pi / 4.0, rel=1e-14)
    assert out["after_2f1"] == ["scipy.special"]
    assert out["value"] == pytest.approx(math.e - 1.0, rel=1e-12)
    assert out["loaded"] == list(ON_DEMAND)


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
