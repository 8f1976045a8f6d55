"""The benchmark's workloads: what each pass calls, and how its outputs are
checked.

Every workload is a list of operations.  ``run(label)`` makes only calls
into hetcache's public functions, through module attributes so that the
tracer's wrappers are reached; the runner times exactly that call.
``check(label, output)`` runs outside the timed region and returns the
failed checks of one operation.

- ``figures``: the eight presets through ``run_preset`` on the configs the
  library gives them, each written with ``emit_results``.  The seed sets the
  CTMC seed of ``fig7``; every other preset is deterministic.
- ``noisy``: noise-inclusive operating points, each ``network_model`` (five
  nested double integrals) plus the case-1/2 SINR CDF from -20 to 20 dB.
  The seed sets the order of the points.
- ``oracles``: the Monte Carlo oracle on criterion 3's geometry, seeded from
  the workload seed, and the CTMC on criterion 5's queues.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from pathlib import Path

import numpy as np

from hetcache import association, config, montecarlo, outage, presets, queueing, rates, results

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Reference comparison: rel 1e-7 is the rate-vs-independent-quadrature
# tolerance of tests/test_rates.py; abs 1e-12 the outage floor of
# tests/test_outage.py.  Both are written into the reference files.
REL_TOL = 1e-7
ABS_TOL = 1e-12

# fig7 columns and meta keys that depend on the CTMC seed
FIG7_SEED_DEPENDENT = ("occupancy", "simulated_mean", "seed")

# (alpha, noise power [W]): one point below the activity threshold at low
# noise, one above alpha-hat at high noise.  Each costs ~4 s, so the grid of
# six points would leave one pass per run.
NOISY_POINTS = ((0.05, 1e-12), (0.25, 1e-9))
NOISY_TAU_DB = tuple(float(x) for x in range(-20, 21))

# criterion 3's geometry, with fewer topologies per caching fraction
MC_ALPHAS = (0.05, 0.1, 0.25)
MC_TAUS = (0.1, 10.0 ** -0.5)
MC_TOPOLOGIES = 4
MC_ARGS = dict(n_fading=20, window=6000.0, boundary="torus", margin=0.0,
               max_users=150, max_reference_users=500, tau_grid=MC_TAUS)

# criterion 5's queues, fewer replications
MM1_ARGS = dict(node_type=3, horizon=3000.0, warmup=300.0)
BS_ARGS = dict(node_type=3, horizon=20000.0, warmup=1000.0)
CTMC_REPLICATIONS = 4

# The oracle checks keep criterion 3's shape: inside the 95% CI, or within
# a relative tolerance.  Criterion 3 allows 5% at 200 topologies; the
# standard error grows as 1/sqrt(topologies), so the tolerance here is 5%
# scaled by sqrt(200 / MC_TOPOLOGIES).  The CTMC gets the same relative
# tolerance, which is more than four standard errors of either queue's mean
# at CTMC_REPLICATIONS.  A 95% CI alone fails one cell in twenty on fresh
# seeds, and the seeds change with every run.
ORACLE_REL_TOL = 0.05 * math.sqrt(200 / MC_TOPOLOGIES)


def same(a, b, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    """Nested equality of JSON-like values, floats within rel/abs tolerance
    (NaN equals NaN, infinities compare exactly)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k], rel, abs_) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y, rel, abs_) for x, y in zip(a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _agrees(simulated: float, std_error: float, analytic: float) -> bool:
    diff = abs(simulated - analytic)
    return diff <= 1.96 * std_error or diff <= ORACLE_REL_TOL * abs(analytic)


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json") as fh:
        return json.load(fh)


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


class Figures:
    name = "figures"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.labels = presets.PRESET_NAMES
        self.reference = None

    def run(self, label: str):
        result = presets.run_preset(label, seed=self.seed)
        paths = results.emit_results(result.rows, result.columns, self.workdir, label,
                                     config=result.meta.get("config"), seed=self.seed,
                                     meta=result.meta)
        return result, paths

    @staticmethod
    def reference_view(result) -> dict:
        drop = FIG7_SEED_DEPENDENT if result.name == "fig7" else ()
        columns = [c for c in result.columns if c not in drop]
        return _jsonable({
            "columns": columns,
            "rows": [[row[c] for c in columns] for row in result.rows],
            "meta": {k: v for k, v in result.meta.items() if k not in drop},
        })

    def check(self, label: str, output) -> list[str]:
        if self.reference is None:
            self.reference = load_reference(self.name)
        result, (csv_path, json_path) = output
        ref = self.reference
        failures = []
        if not same(self.reference_view(result), ref["presets"][label],
                    ref["rel_tol"], ref["abs_tol"]):
            failures.append(f"{label}: rows or meta differ from the reference")
        if label == "fig7":
            occ = [row["occupancy"] for row in result.rows]
            sim = result.meta["simulated_mean"]
            if not all(math.isfinite(o) and o >= 0.0 for o in occ + [sim]):
                failures.append("fig7: occupancy not finite and non-negative")
        with open(csv_path, newline="") as fh:
            table = list(csv.reader(fh))
        if table[0] != list(result.columns) or len(table) != len(result.rows) + 1:
            failures.append(f"{label}: CSV header or row count is wrong")
        with open(json_path) as fh:
            envelope = json.load(fh)
        if envelope["name"] != label or len(envelope["rows"]) != len(result.rows):
            failures.append(f"{label}: JSON envelope is wrong")
        return failures

    def values(self, output):
        """What must repeat exactly when the same operation runs again."""
        result, _ = output
        return [[row[c] for c in result.columns] for row in result.rows]

    def summary(self, medians, passes) -> dict:
        return {
            "fig3_s": (medians["fig3a"] + medians["fig3b"], "s"),
            "queue_presets_s": (medians["fig6"] + medians["fig7"] + medians["steady"], "s"),
        }


class Noisy:
    name = "noisy"

    def __init__(self, seed: int, workdir: Path):
        points = list(NOISY_POINTS)
        random.Random(seed).shuffle(points)
        self.labels = tuple(f"alpha={a}:noise={s}" for a, s in points)
        self.points = dict(zip(self.labels, points))
        self.reference = None

    def run(self, label: str):
        alpha, noise = self.points[label]
        cfg = config.NetworkConfig(alpha=alpha, noise=noise)
        states, loads, rate_matrix = queueing.network_model(cfg)
        cdf = [[outage.sinr_cdf(cfg, case_id, 3, 10.0 ** (db / 10.0)) for db in NOISY_TAU_DB]
               for case_id in (1, 2)]
        return states, loads, rate_matrix, cdf

    @staticmethod
    def reference_view(output) -> dict:
        states, loads, rate_matrix, cdf = output
        return _jsonable({"states": states.d, "sigma": loads.sigma,
                          "rates": rate_matrix.a, "cdf_case1": cdf[0], "cdf_case2": cdf[1]})

    def check(self, label: str, output) -> list[str]:
        if self.reference is None:
            self.reference = load_reference(self.name)
        ref = self.reference
        if same(self.reference_view(output), ref["points"][label], ref["rel_tol"], ref["abs_tol"]):
            return []
        return [f"{label}: network model or SINR CDF differs from the reference"]

    def values(self, output):
        return self.reference_view(output)

    def summary(self, medians, passes) -> dict:
        # the points differ in cost: the mean over points of each one's median
        return {"noisy_point_s": (statistics.fmean(medians.values()), "s")}


class Oracles:
    name = "oracles"

    def __init__(self, seed: int, workdir: Path):
        seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(
            len(MC_ALPHAS) + 2 * CTMC_REPLICATIONS)]
        self.mc = {f"mc:alpha={a}": (config.NetworkConfig(alpha=a), s)
                   for a, s in zip(MC_ALPHAS, seeds)}
        self.labels = tuple(self.mc) + ("ctmc:mm1", "ctmc:bs")
        # analytic references, computed here so no timed work reaches them
        rate_fns = {1: rates.rate_case1, 2: rates.rate_case2, 3: rates.rate_case3}
        self.analytic = {}
        for label, (cfg, _) in self.mc.items():
            self.analytic[label] = {
                **{("rate", c): rate_fns[c](cfg, 3).value for c in (1, 2, 3)},
                **{("outage", c, t): outage.sinr_cdf(cfg, c, 3, t)
                   for c in (1, 2, 3) for t in MC_TAUS},
            }
        base = config.NetworkConfig()
        z = np.zeros((8, 4))
        a = np.zeros((8, 4))
        z[0, 2] = 0.6  # M/M/1-PS at rho = 0.6: unit mean service time
        a[0, 2] = base.content_size_s * base.varrho_inv
        mm1_loads = queueing.QueueClassLoad(np.zeros((8, 4)), z,
                                            z * base.content_size_s * base.varrho_inv,
                                            (0.0, 1.0, 1.0, 0.0))
        fig6 = config.fig6_config()
        _, bs_loads, bs_rates = queueing.network_model(fig6)
        self.ctmc = {
            "ctmc:mm1": (base, mm1_loads, queueing.RateMatrix(a),
                         seeds[-2 * CTMC_REPLICATIONS:-CTMC_REPLICATIONS], MM1_ARGS),
            "ctmc:bs": (fig6, bs_loads, bs_rates, seeds[-CTMC_REPLICATIONS:], BS_ARGS),
        }
        for label, (cfg, loads, rate_matrix, _, args) in self.ctmc.items():
            m = queueing.queue_metrics(cfg, loads, rate_matrix)
            self.analytic[label] = float(m.n_node[args["node_type"] - 1])

    def run(self, label: str):
        if label in self.mc:
            cfg, seed = self.mc[label]
            return montecarlo.run_monte_carlo(cfg, n_topologies=MC_TOPOLOGIES, seed=seed, **MC_ARGS)
        cfg, loads, rate_matrix, seeds, args = self.ctmc[label]
        traces = [queueing.ctmc_simulate(cfg, loads, rate_matrix, seed=s, **args) for s in seeds]
        return [(float(t.time_average.sum()), len(t.times) - 1) for t in traces]

    def check(self, label: str, output) -> list[str]:
        ana = self.analytic[label]
        failures = []
        if label in self.mc:
            for key, value in ana.items():
                est = output.rates[key[1]] if key[0] == "rate" else output.outage[key[1:]]
                if not _agrees(est.value, est.std_error, value):
                    failures.append(f"{label}: {key} simulated {est.value:.5g} "
                                    f"+/- {est.std_error:.2g}, analytic {value:.5g}")
            return failures
        occupancy = np.array([v for v, _ in output])
        mean = float(occupancy.mean())
        se = float(occupancy.std(ddof=1) / math.sqrt(len(occupancy)))
        if not _agrees(mean, se, ana):
            failures.append(f"{label}: mean occupancy {mean:.4g} +/- {se:.2g}, analytic {ana:.4g}")
        return failures

    def values(self, output):
        if isinstance(output, list):
            return output
        return [[(e.value, e.std_error, e.n_samples) for e in group.values()]
                for group in (output.rates, output.outage, output.association)]

    def summary(self, medians, passes) -> dict:
        mc_time = sum(medians[label] for label in self.mc)
        ctmc_time = sum(medians[label] for label in self.ctmc)
        # every pass repeats the same simulations, so one pass's events count
        events = sum(n for label, *_, out in passes[0] if label in self.ctmc for _, n in out)
        return {
            "mc_topologies_per_s": (len(self.mc) * MC_TOPOLOGIES / mc_time, "1/s"),
            "ctmc_events_per_s": (events / ctmc_time, "1/s"),
        }


WORKLOADS = {w.name: w for w in (Figures, Noisy, Oracles)}


def cold(name: str, workdir) -> None:
    """One cheap first call into each layer the workload uses."""
    cfg = config.NetworkConfig()
    association.state_matrix(cfg)
    if name == "oracles":
        montecarlo.run_monte_carlo(cfg, n_topologies=1, n_fading=2, window=1000.0,
                                   boundary="torus", margin=0.0, max_users=5,
                                   max_reference_users=5, tau_grid=MC_TAUS)
        _, loads, rate_matrix = queueing.baseline_model(cfg)
        queueing.ctmc_simulate(cfg, loads, rate_matrix, node_type=3, horizon=10.0, seed=0)
        return
    rates.rate_case1(cfg, 3)
    outage.sinr_cdf(cfg.with_updates(noise=1e-12) if name == "noisy" else cfg, 1, 3, 0.1)
    _, loads, rate_matrix = queueing.baseline_model(cfg)
    queueing.queue_metrics(cfg, loads, rate_matrix)
    if name == "figures":
        result = presets.run_preset("fig2")
        results.emit_results(result.rows, result.columns, workdir, "cold")
