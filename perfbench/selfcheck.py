"""Self-check of the traced run: two traced runs at the same seed must report
identical counts (calls, evals, events, resamples, errors).

    python3 perfbench/selfcheck.py [--seed N] [workload ...]

Also checks that run.py reports exactly the per-layer metrics that
BENCHMARK.json names.  Exits non-zero on any mismatch.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("workloads", nargs="*", default=["figures", "noisy", "oracles"])
    args = p.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        if set(first["metrics"]) != declared:
            print(f"{workload}: metrics differ from BENCHMARK.json per_layer: "
                  f"{sorted(set(first['metrics']) ^ declared)}")
            ok = False
        counts = {name: m["value"] for name, m in first["metrics"].items() if m["unit"] == "count"}
        again = {name: second["metrics"][name]["value"] for name in counts}
        diff = {name: (counts[name], again[name]) for name in counts if counts[name] != again[name]}
        failed = first["failed"] + second["failed"]
        print(f"{workload} seed {args.seed}: {len(counts)} counts, "
              f"{'identical' if not diff else f'differ: {diff}'}; {failed} failed checks")
        ok = ok and not diff and failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
