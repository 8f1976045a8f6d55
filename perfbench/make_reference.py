"""Regenerate the reference outputs that the figures and noisy workloads are
checked against:

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known to be right; the files in
reference/ were produced at the commit that added the benchmark.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        figures = workloads.Figures(0, Path(tmp))
        presets = {label: figures.reference_view(figures.run(label)[0])
                   for label in figures.labels}
    noisy = workloads.Noisy(0, Path("."))
    points = {label: noisy.reference_view(noisy.run(label)) for label in sorted(noisy.labels)}
    for name, key, body in (("figures", "presets", presets), ("noisy", "points", points)):
        ref = {"rel_tol": workloads.REL_TOL, "abs_tol": workloads.ABS_TOL, key: body}
        with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
            json.dump(ref, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
