"""rqode benchmark: one workload per process, end to end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ivp_ladder --seed 1 --seconds 24 \
        --trace 0

Workloads: ``ivp_ladder``, ``ivp_rand_2d``, ``bisect_scalar`` and
``planted_det`` (see ``workloads.py`` and ``BASELINE.json``).  Set-up is the
import time (timed in fresh interpreters, see ``import_seconds``) plus the
median of five workload set-ups, each with a warm-up call.  The run then
repeats rounds of the workload's fixed operations in a closed loop, starting
a round only while it is expected to end within ``--seconds`` (at least one
round).

Printed per run: ``wall_s`` (median round time), ``op_p50_ms`` and, with at
least 100 operations, ``op_p90_ms`` (operation latency), ``oracle_calls``
(ledger total of one round), ``peak_rss_mb``, the operations attempted and
failed, and ``us_per_oracle_call``.  Because the host's speed drifts, the
gated times (``setup_s``, ``wall_ref_s``, ``op_p50_ref_ms``) are the same
times rescaled by a calibration slice interleaved with the work
(``calibrate.py``), and the import time by a reference import.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` a traced warm-up round runs first,
then untraced rounds and rounds under the span tracer (``tracing.py``) in
turn, and the JSON holds the per-layer metrics.  Spans are written to
``.bench_out/trace-<workload>.npz`` in the checkout.  The process exits
non-zero without a result line when the rqode sources are missing.
``--tiny`` shrinks every workload for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORT_PAIRS = 10
# standard-library modules only, so no change to the repository moves them
REFERENCE_IMPORT = ("asyncio, email.parser, http.client, xml.dom.minidom, "
                    "unittest, logging.handlers, decimal, tarfile, sqlite3, "
                    "urllib.request, ctypes, ssl, multiprocessing, lzma, bz2, "
                    "csv, json, pydoc")
REFERENCE_IMPORT_S = 0.15   # its median CPU time on a 2.1 GHz Xeon vCPU
P90_MIN_SAMPLES = 100   # at least ten samples lie beyond the 90th percentile
LEDGER_KEYS = ("f_evals", "deriv_evals", "quantum_queries", "rng_draws",
               "sim_evals")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (self-test only)")
    return ap.parse_args(argv)


class Round:
    """One pass over a workload's operations.

    Times exclude the calibration slices.  ``scale`` converts the round's
    times, its operations' latencies too, to reference-host seconds (see
    ``calibrate.py``); one operation spans too few slices to rescale it on
    its own.
    """

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.ledger = dict.fromkeys(LEDGER_KEYS, 0)
        self.wall = 0.0
        self.scale = 1.0

    @property
    def oracle_calls(self) -> int:
        return (self.ledger["f_evals"] + self.ledger["deriv_evals"]
                + self.ledger["quantum_queries"])


def run_round(wl, hook, pacer) -> Round:
    rnd = Round()
    first_slice = len(pacer.slices)
    pacer.tick(force=True)
    start, spent = perf_counter(), pacer.spent
    for i in range(wl.n_ops):
        bad, snap = hook.bad, hook.ledger.snapshot()
        try:
            t0, s0 = perf_counter(), pacer.spent
            out = wl.call(i)
            rnd.latencies.append(perf_counter() - t0 - (pacer.spent - s0))
            pacer.tick(force=True)
            ok = bool(wl.check(i, out)) and hook.bad == bad
            ledger = wl.ledger(i, out)
        except Exception:
            traceback.print_exc()
            ok, ledger = False, None
        delta = hook.ledger.delta_since(snap) if ledger is None \
            else ledger.as_dict()
        for key in LEDGER_KEYS:
            rnd.ledger[key] += delta[key]
        rnd.failed += not ok
    rnd.wall = perf_counter() - start - (pacer.spent - spent)
    pacer.tick(force=True)
    rnd.scale = pacer.scale(first_slice)
    return rnd


def run_rounds(wl, hook, pacer, seconds) -> list:
    """Closed loop: start another round only while it fits in ``seconds``."""
    start = perf_counter()
    rounds = []
    while True:
        rounds.append(run_round(wl, hook, pacer))
        elapsed = perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def import_cpu_seconds(modules: str) -> float:
    """CPU seconds of a fresh interpreter importing ``modules``."""
    code = "import sys; sys.path[:0] = %r; import %s" % (
        [str(SRC), str(HERE)], modules)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", code], capture_output=True,
                   timeout=120, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


def import_seconds():
    """Start-up and import time of numpy, rqode and the benchmark.

    Each of ``IMPORT_PAIRS`` fresh interpreters that import them is followed
    by one that imports ``REFERENCE_IMPORT``.  Import speed drifts on a
    shared host apart from the compute speed the calibration slices see, so
    the import is rescaled by its own reference: the median ratio of the
    pairs' CPU times (steadier than their wall times when other processes
    contend for the host) times ``REFERENCE_IMPORT_S``.  Returns that and
    the median measured CPU time.
    """
    pairs = [(import_cpu_seconds("numpy, rqode, workloads"),
              import_cpu_seconds(REFERENCE_IMPORT))
             for _ in range(IMPORT_PAIRS)]
    ratio = statistics.median(t / r for t, r in pairs)
    return ratio * REFERENCE_IMPORT_S, statistics.median(t for t, _ in pairs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(import_s, build_s, rounds, pacer, lines) -> dict:
    # the set-ups run the workload's own code, rescaled like the rounds
    setup_s = import_s + build_s * pacer.scale(0)
    lines.append("setup_s %.4f s at reference speed (import %.4f s + median "
                 "of %d set-ups %.4f s measured, rescaled over %d slices)"
                 % (setup_s, import_s, SETUP_REPEATS, build_s,
                    len(pacer.slices)))
    lat = [x for r in rounds for x in r.latencies]
    lat_ref = [x * r.scale for r in rounds for x in r.latencies]
    wall = statistics.median(r.wall for r in rounds)
    wall_ref = statistics.median(r.wall * r.scale for r in rounds)
    calls = rounds[0].oracle_calls
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append("wall_s %.4f s (median of %d rounds: %s)" % (
        wall, len(rounds), " ".join("%.3f" % r.wall for r in rounds)))
    lines.append("wall_ref_s %.4f s (median calibration slice %.3f ms of %d)"
                 % (wall_ref, 1e3 * statistics.median(pacer.slices),
                    len(pacer.slices)))
    for name, values in (("op_p50_ms", lat), ("op_p50_ref_ms", lat_ref)):
        lines.append("%s %.3f ms (%d ops)"
                     % (name, 1e3 * statistics.median(values), len(values)))
    for name, values in (("op_p90_ms", lat), ("op_p90_ref_ms", lat_ref)):
        if len(values) >= P90_MIN_SAMPLES:
            lines.append("%s %.3f ms (%d ops)" % (
                name, 1e3 * statistics.quantiles(values, n=10)[-1],
                len(values)))
        else:
            lines.append("%s undefined (%d ops, needs %d)"
                         % (name, len(values), P90_MIN_SAMPLES))
    lines.append("us_per_oracle_call %.5f us (diagnostic, not gated)"
                 % (1e6 * wall / calls))
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_ref_s": metric(wall_ref, "s"),
        "op_p50_ref_ms": metric(1e3 * statistics.median(lat_ref), "ms"),
        "oracle_calls": metric(calls, "count"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def traced_metrics(wl, hook, pacer, seconds, lines):
    """Traced warm-up round, then untraced and traced rounds in turn.

    The tracing overhead is the median traced round minus the median
    untraced round, both rescaled to reference speed, less the audit's time;
    taking the rounds in turn after a warm-up keeps warm-up and host drift
    out of the difference.  The warm-up runs traced, its spans discarded:
    after the audit's large arrays, later ivp_rand_2d rounds run about 25%
    faster (likely glibc's raised mmap and trim thresholds; setting them by
    environment gives the same speed-up), so both kinds of round follow it.
    """
    from tracing import Tracer, installed, layer_metrics

    start = perf_counter()
    tracer = Tracer()
    pacer.on_slice = tracer.exclude
    with installed(tracer, wl.problems()):
        warm = run_round(wl, hook, pacer)
    tracer = Tracer()
    pacer.on_slice = tracer.exclude
    plain, rounds = [], []
    while True:
        plain.append(run_round(wl, hook, pacer))
        with installed(tracer, wl.problems()):
            rounds.append(run_round(wl, hook, pacer))
        elapsed = perf_counter() - start
        per_pair = (elapsed - warm.wall) / len(rounds)
        if elapsed + per_pair > seconds:
            break
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / ("trace-%s.npz" % wl.name))

    n = len(rounds)
    per_layer = layer_metrics(tracer, n)
    traced_wall = statistics.median(r.wall for r in rounds)
    plain_wall = statistics.median(r.wall for r in plain)
    overhead = (statistics.median(r.wall * r.scale for r in rounds)
                - statistics.median(r.wall * r.scale for r in plain)
                - per_layer["audit_s"][0]
                * statistics.median(r.scale for r in rounds))
    self_share = tracer.self_time_total() / sum(r.wall for r in rounds)
    per_layer.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (plain_wall, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.self_share": (self_share, "ratio"),
        "trace.spans": (len(tracer.span_start) / n, "count"),
        "bench.slope_verdict_fails": (
            sum(not v[1] for v in getattr(wl, "verdicts", {}).values()),
            "count"),
    })
    for key in LEDGER_KEYS:
        per_layer["ledger." + key] = (rounds[0].ledger[key], "count")
    lines.append("traced %d rounds after a warm-up round, median %.4f s/round "
                 "traced vs %.4f s untraced (%s); overhead %.4f s at "
                 "reference speed; self times cover %.1f%% of the traced "
                 "rounds"
                 % (n, traced_wall, plain_wall,
                    " ".join("%.3f/%.3f" % (u.wall, t.wall)
                             for u, t in zip(plain, rounds)),
                    overhead, 100 * self_share))
    ledger_equal = all(r.ledger == plain[0].ledger for r in rounds)
    if not ledger_equal:
        lines.append("ledger MISMATCH traced %r vs untraced %r"
                     % (rounds[0].ledger, plain[0].ledger))
    metrics = {k: metric(v, u) for k, (v, u) in sorted(per_layer.items())}
    return [warm] + plain + rounds, metrics, ledger_equal


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rqode" / "__init__.py").is_file():
        print("perfbench: no rqode sources under %s" % SRC, file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    from calibrate import Pacer
    from workloads import WORKLOADS, SolveHook

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload %r; known: %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    hook, pacer = SolveHook(), Pacer()
    hook.install()
    pacer.install()
    try:
        import_s, import_raw = import_seconds()
        builds = []
        for _ in range(SETUP_REPEATS):
            t1, s1 = perf_counter(), pacer.spent
            wl = WORKLOADS[args.workload](args.seed, args.tiny)
            wl.setup()
            builds.append(perf_counter() - t1 - (pacer.spent - s1))
            pacer.tick(force=True)

        lines = ["workload %s seed %d" % (args.workload, args.seed),
                 "import %.4f s at reference speed (median of %d: %.4f s "
                 "CPU measured)" % (import_s, IMPORT_PAIRS, import_raw)]
        consistent = True
        if args.trace:
            rounds, metrics, consistent = traced_metrics(
                wl, hook, pacer, args.seconds, lines)
        else:
            rounds = run_rounds(wl, hook, pacer, args.seconds)
            metrics = end_to_end(import_s, statistics.median(builds),
                                 rounds, pacer, lines)
    finally:
        pacer.remove()
        hook.remove()

    # identical rounds must charge identical ledgers
    consistent &= all(r.ledger == rounds[0].ledger for r in rounds)
    for _, v in sorted(getattr(wl, "verdicts", {}).items()):
        lines.append("ladder %s slope %.4f target %.4f verdict %s"
                     % (v[0], v[2], v[3], "PASS" if v[1] else "FAIL"))
    attempted = wl.n_ops * len(rounds)
    failed = sum(r.failed for r in rounds)
    lines.append("ops attempted %d failed %d; ledger consistent %s"
                 % (attempted, failed, consistent))
    for name, m in metrics.items():
        lines.append("metric %s %r %s" % (name, m["value"], m["unit"]))
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
