"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workloads ivp_ladder --seeds 1 2 3 4 5

Runs ``run.py`` once per workload and seed (one process at a time) and
prints, per metric, the median and the distance between the first and third
quartiles as a share of the median, next to a third of the metric's bound
from ``BENCHMARK.json``.  Exits non-zero if a run is not correct or a spread
is not below a third of its bound.  ``--json PATH`` also writes every run's
result, standard output and duration.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    """Result line, full standard output and duration of one run."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=180, check=True)
    return (json.loads(out.stdout.strip().splitlines()[-1]), out.stdout,
            perf_counter() - start)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--json", help="write every run's result and output here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    ok = True
    for wl in args.workloads:
        outputs = [run_once(wl, s, args.seconds) for s in args.seeds]
        runs[wl] = [{"seed": s, "result": r, "stdout": text, "seconds": t}
                    for s, (r, text, t) in zip(args.seeds, outputs)]
        results = [r for r, _, _ in outputs]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print("%s: %d runs, %d not correct, longest run %.1f s"
              % (wl, len(results), len(bad), max(t for _, _, t in outputs)))
        ok &= not bad
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            steady = share < bound / 3
            ok &= steady
            print("  %-12s median %-14.6g spread %.4f (bound/3 %.4f) %s"
                  % (name, med, share, bound / 3, "ok" if steady else "WIDE"))
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
