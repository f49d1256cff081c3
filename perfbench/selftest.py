"""Quick self-test of the benchmark, every workload at a tiny size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that
  * each run prints every metric named in ``BENCHMARK.json`` (end-to-end
    untraced, per-layer traced) with its unit, and no other metric;
  * the traced self times sum to the traced round time within 10%;
  * a deliberately wrong output, and a solve whose step receipts disagree
    with its ledger, each count as a failed operation;
  * without the rqode sources the benchmark exits non-zero and prints no
    result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def require(ok, detail):
    """Fail the self-test (an explicit check, kept under ``python -O``)."""
    if not ok:
        raise SystemExit("selftest FAILED: %s" % (detail,))


def run_cli(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_cli(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_cli(workload, trace)
        require(proc.returncode == 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"},
                sorted(result))
        require(result["correct"] and result["failed"] == 0, lines)
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        require(got == want, (workload, trace, set(got) ^ set(want)))
        for name, unit in want.items():
            require(any(ln.startswith("metric %s " % name)
                        and ln.endswith(" " + unit) for ln in lines), name)
        if trace:
            share = result["metrics"]["trace.self_share"]["value"]
            require(abs(share - 1.0) <= 0.10, (workload, share))
    print("ok  %s: metrics and units, self-time share" % workload)


def corrupt(workload, out):
    """Make one operation's output wrong in a way its check must catch."""
    if workload == "ivp_ladder":
        out.slope = float("nan")
    elif workload == "bisect_scalar":
        out.y_out += 1.0
    elif workload == "ivp_rand_2d":
        out.y_grid[-1, 0] = np.nan
    else:
        out.y_grid[-1, 0] += 1e-3
    return out


def check_failures_counted(workload):
    sys.path.insert(0, str(ROOT / "src"))
    import run
    from calibrate import Pacer
    from workloads import WORKLOADS, SolveHook

    hook, pacer = SolveHook(), Pacer()
    hook.install()
    try:
        wl = WORKLOADS[workload](7, True)
        wl.setup()
        require(run.run_round(wl, hook, pacer).failed == 0, "clean round")
        call = wl.call
        wl.call = lambda i: corrupt(workload, call(i))
        failed = run.run_round(wl, hook, pacer).failed
        require(failed == wl.n_ops, "wrong outputs: %d failed" % failed)
        wl.call = call
        if workload != "bisect_scalar":     # the solve-based workloads
            solve = hook._solve

            def tampered(*args):
                res = solve(*args)
                res.step_receipts[0]["f_evals"] += 1
                return res
            hook._solve = tampered
            failed = run.run_round(wl, hook, pacer).failed
            require(failed == wl.n_ops, "bad receipts: %d failed" % failed)
            hook._solve = solve
    finally:
        hook.remove()
    print("ok  %s: wrong outputs counted as failed operations" % workload)


def check_no_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_cli(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    require(proc.returncode != 0 and not proc.stdout.strip(), proc.stdout)
    print("ok  without sources: exit %d, no result" % proc.returncode)


def main() -> int:
    for wl in SPEC["workloads"]:
        check_cli(wl["name"])
        check_failures_counted(wl["name"])
    check_no_sources()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
