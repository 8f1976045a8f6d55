"""Run-to-run spread of the end-to-end metrics over several seeds:

    python3 perfbench/spread.py --workload figures --seeds 0 1 2 3 4 [--seconds 30]

Runs run.py once per seed, one after another, and prints for each metric
of the run's report the median and the distance between the first and
third quartiles as a share of the median, next to the bound in
BENCHMARK.json.  ``--out`` also writes every run's report to a JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
        lines = out.stdout.strip().splitlines()
        report = json.loads(next(ln for ln in lines if ln.startswith("report "))[len("report "):])
        report["result"] = json.loads(lines[-1])
        report["elapsed_s"] = time.perf_counter() - start
        runs.append(report)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in report["result"]["metrics"].items())
            + f" failed={report['result']['failed']}/{report['result']['attempted']}"
            + f" elapsed={report['elapsed_s']:.1f}s", flush=True)
    ok = all(r["result"]["correct"] for r in runs)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = f"bound {bounds[name]:.0%}" if name in bounds else ""
        print(f"{name:20s} median {med:12.4f} {metric['unit']:5s} spread {spread:7.2%}  {bound}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "runs": runs}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
