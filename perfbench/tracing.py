"""Span tracer and per-layer counters for the traced benchmark run.

The tracer wraps the public entry points of each rqode layer from outside
the package (module attributes, class methods and problem oracles are
swapped for recording wrappers and restored afterwards), so the package
itself runs unmodified.  Every wrapped call records a span (name, start,
end, parent); a span's self time is its duration minus the time covered by
its child spans, so the self times of all spans sum to the time covered by
the top-level spans.  Calibration slices (``calibrate.py``) taken inside a
span count as no layer's time, as they count in no round's time.

Layers are named after the modules: ``taylor``, ``solver``, ``estimators``,
``rng``, ``scalar``, ``oracle`` (the problem's ``f`` and ``derivs``, from
fixtures or planted problems), ``bench`` and ``core`` (the ledger counts).
The estimator audit compares every estimate against the family's exact mean
from ``peek_all``; its classical work is refunded from the solve's ledger
and reported on its own, so ledger counts are identical traced and
untraced.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from rqode import bench, estimators, rng, scalar, solver

SPAN_LAYER = {
    "taylor.fetch_jet": "taylor",
    "taylor.flow_coeffs": "taylor",
    "taylor.integrate": "taylor",
    "solver.solve": "solver",
    "solver.sup_error": "solver",
    "solver.residual": "solver",
    "estimators.access": "estimators",
    "estimators.peek_all": "estimators",
    "estimators.mc_mean": "estimators",
    "estimators.quantum_sim_mean": "estimators",
    "estimators.median_boost": "estimators",
    "estimators.full_mean": "estimators",
    "rng.spawn": "rng",
    "rng.integers": "rng",
    "rng.uniform": "rng",
    "scalar.bisection_solve": "scalar",
    "scalar.geometry": "scalar",
    "scalar.residual": "scalar",
    "oracle.f": "oracle",
    "oracle.derivs": "oracle",
    "bench.run_ladder": "bench",
    "bench.run_trials": "bench",
    "audit": "audit",
}
LAYERS = ("taylor", "solver", "estimators", "rng", "scalar", "oracle", "bench",
          "audit")
ESTIMATORS = ("mc_mean", "quantum_sim_mean", "median_boost", "full_mean")


def _charged(ledger) -> int:
    return ledger.f_evals + ledger.quantum_queries


class Tracer:
    """In-memory span store with per-name call, total and self-time sums."""

    def __init__(self):
        self.names = list(SPAN_LAYER)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.paused = False
        self._stack = []          # [span index, time covered by children]
        self._boost_target = []   # nominal boosted failure rate per solve
        self._family = None       # family of the estimate group in progress
        self._family_charge = 0
        self.charge_ratios = []
        self.audit = defaultdict(float)

    # -- spans

    def call(self, name, fn, *args, **kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(self._name_id[name])
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        self.span_start.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            dur = end - start
            self.span_end[idx] = end
            if self._stack:
                self._stack[-1][1] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[1]

    def exclude(self, seconds):
        """Count ``seconds`` of the open span as no layer's (a calibration
        slice), so self times add up to the round time, which excludes it."""
        if self._stack:
            self._stack[-1][1] += seconds

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
        return traced

    def self_time_total(self) -> float:
        return float(sum(self.self_s.values()))

    def write(self, path):
        """Write every recorded span to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))

    # -- estimator audit and charge accounting

    def _group_estimate(self, family, charged):
        """Accumulate charges per family; one group per boosted estimate."""
        if family is not self._family:
            self.flush_group()
            self._family = family
        self._family_charge += charged

    def flush_group(self):
        if self._family is not None:
            self.charge_ratios.append(self._family_charge / self._family.size)
        self._family = None
        self._family_charge = 0

    def _truth(self, family):
        """Exact family mean from peek_all, with its sim_evals refunded."""
        before = family.ledger.sim_evals
        truth = family.peek_all().mean(axis=0)
        spent = family.ledger.sim_evals - before
        family.ledger.sim_evals = before
        self.audit["sim_evals"] += spent
        return truth

    def _audit(self, kind, family, est, eps1):
        def check():
            self.paused = True
            try:
                truth = self._truth(family)
            finally:
                self.paused = False
            fail = float(np.max(np.abs(np.asarray(est.value) - truth))) > eps1
            self.audit[kind + "_estimates"] += 1
            self.audit[kind + "_failures"] += fail
            if kind == "boost" and self._boost_target:
                self.audit["boost_nominal_sum"] += self._boost_target[-1]
        self.call("audit", check)

    def estimator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            family = args[1] if name == "median_boost" else args[0]
            top = not any(tracer.names[tracer.span_name[i]].startswith(
                "estimators.") for i, _ in tracer._stack)
            before = _charged(family.ledger)
            est = tracer.call("estimators." + name, fn, *args, **kwargs)
            if top:
                tracer._group_estimate(family,
                                       _charged(family.ledger) - before)
            if name in ("mc_mean", "quantum_sim_mean"):
                tracer._audit("mc" if name == "mc_mean" else "quantum",
                              family, est, args[1])
            elif name == "median_boost":
                tracer._audit("boost", family, est, args[2])
            return est
        return traced


def _patch(saved, owner, attr, new):
    saved.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, new)


@contextmanager
def installed(tracer: Tracer, problems):
    """Install the recording wrappers; restore the originals on exit."""
    saved = []
    t = tracer
    try:
        for src, name in ((solver.fetch_jet, "taylor.fetch_jet"),
                          (solver.flow_coeffs_from_jet, "taylor.flow_coeffs"),
                          (solver.integrate_field_along, "taylor.integrate")):
            _patch(saved, solver, src.__name__, t.wrap(name, src))

        solve = solver.solve

        def traced_solve(problem, params, config):
            cfg = config.resolved()
            t._boost_target.append(1.0 - (1.0 - cfg.delta) ** (1.0 / cfg.n))
            try:
                res = t.call("solver.solve", solve, problem, params, config)
            finally:
                t._boost_target.pop()
                t.flush_group()
            t.counts["taylor.pieces"] += res.config.n * res.config.m
            return res
        sup = t.wrap("solver.sup_error", solver.sup_error)
        for mod in (solver, bench):
            _patch(saved, mod, "solve", traced_solve)
            _patch(saved, mod, "sup_error", sup)
        _patch(saved, bench, "run_trials", t.wrap("bench.run_trials",
                                                  solver.run_trials))
        _patch(saved, bench, "run_ladder", t.wrap("bench.run_ladder",
                                                  bench.run_ladder))

        bisect = scalar.bisection_solve

        def traced_bisect(*args, **kwargs):
            try:
                res = t.call("scalar.bisection_solve", bisect, *args, **kwargs)
            finally:
                t.flush_group()
            t.counts["scalar.iters"] += res.iters
            return res
        _patch(saved, scalar, "bisection_solve", traced_bisect)

        geometry = scalar.CellGeometry

        def traced_geometry(problem, params, y, cells, ledger):
            t.counts["scalar.cells"] += int(cells)
            return t.call("scalar.geometry", geometry, problem, params, y,
                          cells, ledger)
        _patch(saved, scalar, "CellGeometry", traced_geometry)

        for name in ESTIMATORS:
            for mod in (solver, scalar):
                if hasattr(mod, name):
                    # wraps what is installed, calibration hooks included
                    _patch(saved, mod, name,
                           t.estimator(name, getattr(mod, name)))

        family_cls = estimators.IndexedFamily
        access, peek_all = family_cls.access, family_cls.peek_all
        residual_layer = {solver.ResidualFamily: "solver.residual",
                          scalar.CellResidualFamily: "scalar.residual"}

        def traced_access(family, idx):
            if t.paused:
                return access(family, idx)
            span = residual_layer.get(type(family), "estimators.access")
            items = np.size(idx)
            t.counts["estimators.access.calls"] += 1
            t.counts["estimators.access.items"] += items
            t.counts[span + ".items"] += items
            return t.call(span, access, family, idx)
        _patch(saved, family_cls, "access", traced_access)
        _patch(saved, family_cls, "peek_all",
               t.wrap("estimators.peek_all", peek_all))

        stream_cls = rng.RngStream
        spawn, integers, uniform = (stream_cls.spawn, stream_cls.integers,
                                    stream_cls.uniform)

        def traced_spawn(stream, k):
            if not t.paused:
                t.counts["rng.streams"] += int(k)
            return t.call("rng.spawn", spawn, stream, k)
        _patch(saved, stream_cls, "spawn", traced_spawn)
        _patch(saved, stream_cls, "integers", t.wrap("rng.integers", integers))
        _patch(saved, stream_cls, "uniform", t.wrap("rng.uniform", uniform))

        for problem in problems:
            f, derivs = problem.f, problem.derivs

            def traced_f(y, _f=f):
                if not t.paused:
                    y_arr = np.asarray(y)
                    t.counts["oracle.f.points"] += \
                        y_arr.shape[0] if y_arr.ndim > 1 else 1
                return t.call("oracle.f", _f, y)
            _patch(saved, problem, "f", traced_f)
            _patch(saved, problem, "derivs", t.wrap("oracle.derivs", derivs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-round layer metrics from a traced run of ``rounds`` rounds."""
    c, s, n = tracer.calls, tracer.self_s, tracer.counts
    per = float(rounds)
    layer_s = defaultdict(float)
    for name, secs in s.items():
        layer_s[SPAN_LAYER[name]] += secs
    access_calls = n["estimators.access.calls"]
    a = tracer.audit

    def frac(kind):
        est = a[kind + "_estimates"]
        return a[kind + "_failures"] / est if est else 0.0

    out = {
        "taylor.fetch_jet.calls": (c["taylor.fetch_jet"] / per, "count"),
        "taylor.integrate.calls": (c["taylor.integrate"] / per, "count"),
        "taylor.pieces": (n["taylor.pieces"] / per, "count"),
        "solver.solve.calls": (c["solver.solve"] / per, "count"),
        "solver.residual.calls": (c["solver.residual"] / per, "count"),
        "solver.residual.items": (n["solver.residual.items"] / per, "count"),
        "solver.residual_s": (s["solver.residual"] / per, "s"),
        "solver.sup_error_s": (s["solver.sup_error"] / per, "s"),
        "estimators.access.calls": (access_calls / per, "count"),
        "estimators.items_per_access": (
            n["estimators.access.items"] / access_calls if access_calls
            else 0.0, "count"),
        "estimators.peek_all_s": (s["estimators.peek_all"] / per, "s"),
        "estimators.charge_over_enum": (
            float(np.mean(tracer.charge_ratios)) if tracer.charge_ratios
            else 0.0, "ratio"),
        "estimators.audit.mc_estimates": (a["mc_estimates"] / per, "count"),
        "estimators.audit.mc_fail_frac": (frac("mc"), "ratio"),
        "estimators.audit.quantum_estimates": (
            a["quantum_estimates"] / per, "count"),
        "estimators.audit.quantum_fail_frac": (frac("quantum"), "ratio"),
        "estimators.audit.boost_estimates": (
            a["boost_estimates"] / per, "count"),
        "estimators.audit.boost_fail_frac": (frac("boost"), "ratio"),
        "estimators.audit.boost_nominal": (
            a["boost_nominal_sum"] / a["boost_estimates"]
            if a["boost_estimates"] else 0.0, "ratio"),
        "estimators.audit.sim_evals": (a["sim_evals"] / per, "count"),
        "rng.spawn.calls": (c["rng.spawn"] / per, "count"),
        "rng.streams": (n["rng.streams"] / per, "count"),
        "rng.draw.calls": ((c["rng.integers"] + c["rng.uniform"]) / per,
                           "count"),
        "scalar.geometry.calls": (c["scalar.geometry"] / per, "count"),
        "scalar.geometry_s": (s["scalar.geometry"] / per, "s"),
        "scalar.cells": (n["scalar.cells"] / per, "count"),
        "scalar.residual.items": (n["scalar.residual.items"] / per, "count"),
        "scalar.residual_s": (s["scalar.residual"] / per, "s"),
        "scalar.iters": (n["scalar.iters"] / per, "count"),
        "oracle.f.calls": (c["oracle.f"] / per, "count"),
        "oracle.f.points": (n["oracle.f.points"] / per, "count"),
        "oracle.derivs.calls": (c["oracle.derivs"] / per, "count"),
        "bench.run_trials.calls": (c["bench.run_trials"] / per, "count"),
        "audit_s": (s["audit"] / per, "s"),
    }
    for name in ESTIMATORS:
        out["estimators.%s.calls" % name] = (c["estimators." + name] / per,
                                             "count")
    for layer in LAYERS[:-1]:
        out[layer + ".self_s"] = (layer_s[layer] / per, "s")
    return out
