"""Problem fixtures: registered oracle families plus a declarative JSON form.

A fixture bundles an :class:`IvpProblem` (the jet oracle from its family's
builder), its smoothness-class declaration, and a reference solution where
a closed form exists.  The declarative file format carries one JSON object
per fixture: ``{name, family?, d, r, rho, D, H, p?, component_H?, a, b,
eta}``, plus its family's own keys: ``c`` for ``constant``, ``lambdas``
and ``peak_coeff?`` for ``planted``.
The stock fixtures are the entries of the shipped ``fixtures.json``, read on
first use.  A fixture keeps its entry as ``meta`` and pickles as that entry,
so worker processes rebuild it.

Derivative bounds are declared on a reachable tube around the solution, not
on all of R^d; ``validate_holder`` checks them on sampled grids only.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .core import HolderParams, IvpProblem, require_count, require_whole
from .planted import PlantedProblem

__all__ = [
    "Fixture",
    "get_fixture",
    "fixture_names",
    "load_fixture_file",
    "reference_solver",
]


@dataclass
class Fixture:
    name: str
    problem: IvpProblem
    params: HolderParams
    reference: Optional[Callable]   # t (scalar or array) -> states
    y_star: Optional[float] = None  # endpoint value for scalar fixtures
    meta: Optional[dict] = None     # the declarative entry it was built from

    def __reduce__(self):
        if self.meta is None:
            raise TypeError("fixture %r has no entry to rebuild it from"
                            % self.name)
        return _fixture_from_entry, (self.meta,)


# ---------------------------------------------------------------------------
# oracle families

# Scalar families, one row each: (f, f', f'') as elementwise functions of y,
# and the closed form z(a + s) of the solution from z(a) = eta.
_SCALAR_FAMILIES = {
    "sin_flow": ((np.sin, np.cos, lambda y: -np.sin(y)),
                 lambda eta, s: 2.0 * np.arctan(np.tan(eta / 2.0) * np.exp(s))),
    "exp_flow": ((lambda y: y, np.ones_like, np.zeros_like),
                 lambda eta, s: eta * np.exp(s)),
    "inv1p": ((lambda y: 1.0 / (1.0 + y), lambda y: -((1.0 + y) ** -2.0),
               lambda y: 2.0 * (1.0 + y) ** -3.0),
              lambda eta, s: -1.0 + np.sqrt((1.0 + eta) ** 2 + 2.0 * s)),
}


def _cos_time_derivs(k, y):
    # the jet of f(t, x) = (1, cos t) at a point (2,) or a batch (B, 2)
    if k not in (0, 1, 2):
        raise ValueError("cos_time supplies derivatives up to order 2")
    y = np.asarray(y, dtype=float)
    u = y[..., 0]
    jet = [np.zeros(y.shape[:-1] + (2,) * (q + 1)) for q in range(k + 1)]
    jet[0][..., 0] = 1.0
    jet[0][..., 1] = np.cos(u)
    if k >= 1:
        jet[1][..., 1, 0] = -np.sin(u)
    if k == 2:
        jet[2][..., 1, 0, 0] = -jet[0][..., 1]
    return jet


# ---------------------------------------------------------------------------
# registry

def _build_scalar(entry, params):
    """Jet oracle, reference and endpoint of a ``_SCALAR_FAMILIES`` row.

    ``derivs`` writes order 0, the row's f itself, first with no loop or
    reshape: r = 0 solves fetch it per fine piece.  ``y_star`` is given when
    the entry declares the lower bound ``p`` that the endpoint solver needs.
    """
    family = entry.get("family", entry["name"])
    rows, closed_form = _SCALAR_FAMILIES[family]
    a, b, eta = entry["a"], entry["b"], entry["eta"]
    eta0 = eta[0]

    def derivs(k, y):
        y = np.asarray(y, dtype=float)
        if k == 0:
            return [rows[0](y)]
        if k not in (1, 2):
            raise ValueError("%s supplies derivatives up to order 2" % family)
        lead = y.shape[:-1]
        return [rows[0](y)] + [rows[q](y).reshape(lead + (1,) * (q + 1))
                               for q in range(1, k + 1)]

    def ref(t):
        v = closed_form(eta0, np.asarray(t, dtype=float) - a)
        return v[..., None] if v.ndim else np.array([v])
    problem = IvpProblem(1, derivs, eta, (a, b), name=entry["name"])
    y_star = None if entry.get("p") is None else float(closed_form(eta0, b - a))
    return problem, params, ref, y_star


def _build_constant(entry, params):
    name, a, b, eta = entry["name"], entry["a"], entry["b"], entry["eta"]
    c = entry.get("c")
    if c is None:
        raise KeyError("fixture %r: the constant entry has no 'c'" % name)
    _check_dim("len(c)", len(c), entry["d"])
    if not np.isfinite(c).all():
        raise ValueError("'c' is %r, not all finite" % c.tolist())

    def derivs(k, y):
        lead = np.shape(y)[:-1]
        return [np.broadcast_to(c, lead + c.shape).copy()] + [
            np.zeros(lead + (c.size,) * (q + 1)) for q in range(1, k + 1)]

    def ref(t):
        t = np.asarray(t, dtype=float)
        return eta + np.multiply.outer(t - a, c)
    problem = IvpProblem(len(eta), derivs, eta, (a, b), name=entry["name"])
    return problem, params, ref, None


def _build_cos_time(entry, params):
    a, b, eta = entry["a"], entry["b"], entry["eta"]

    def ref(t):
        t = np.asarray(t, dtype=float)
        return np.stack([t, np.sin(t)], axis=-1)
    problem = IvpProblem(2, _cos_time_derivs, eta, (a, b), name=entry["name"])
    return problem, params, ref, None


def _build_planted(entry, params):
    # an entry of PlantedProblem.to_entry; params is the class of g, not 1/g
    if "lambdas" not in entry:
        raise KeyError("fixture %r: the planted entry has no 'lambdas'"
                       % entry["name"])
    pl = PlantedProblem(entry["lambdas"], params, eta=entry["eta"][0],
                        peak_coeff=entry.get("peak_coeff"))
    return pl.problem, pl.params_f, None, pl.closed_form_endpoint()


# family -> builder(entry, params) -> (problem, params of f, reference, y_star);
# the entry's _ENTRY_KEYS and _OPTIONAL_KEYS hold their converted values
_BUILDERS = {
    **dict.fromkeys(_SCALAR_FAMILIES, _build_scalar),
    "constant": _build_constant,
    "cos_time": _build_cos_time,
    "planted": _build_planted,
}


# the keys of the declarative format that every family reads, each with the
# conversion its value must pass
_floats = functools.partial(np.fromiter, dtype=float)
_ENTRY_KEYS = {"name": str, "d": functools.partial(require_count, "d"),
               "r": functools.partial(require_whole, "r"), "rho": float,
               "D": _floats, "H": float, "a": float, "b": float, "eta": _floats}
# the keys that an entry may leave out (or set to null), converted alike
_OPTIONAL_KEYS = {"p": float, "component_H": _floats, "peak_coeff": float,
                  "c": _floats}


def _check_dim(what, n, d):
    if n != d:
        raise ValueError("%s is %d but d is %d" % (what, n, d))


def _fixture_from_entry(entry: dict) -> Fixture:
    missing = [k for k in _ENTRY_KEYS if k not in entry]
    if missing:
        raise KeyError("fixture %r: the entry has no %s; entries need {%s}"
                       % (entry.get("name", "?"), " or ".join(map(repr, missing)),
                          ", ".join(_ENTRY_KEYS)))
    name = entry["name"]
    family = entry.get("family", name)
    if not isinstance(family, str) or family not in _BUILDERS:
        raise KeyError("fixture %r: unknown family %r; known: %s"
                       % (name, family, ", ".join(sorted(_BUILDERS))))
    spec = {}
    for key, convert in {**_ENTRY_KEYS, **_OPTIONAL_KEYS}.items():
        if key in _OPTIONAL_KEYS and entry.get(key) is None:
            continue
        try:
            spec[key] = convert(entry[key])
        except (TypeError, ValueError) as exc:
            raise ValueError("fixture %r: %r is %r (%s)"
                             % (name, key, entry[key], exc)) from None
    # dimension, class and family-builder errors all name the fixture
    try:
        _check_dim("len(eta)", len(spec["eta"]), spec["d"])
        if "component_H" in spec:
            _check_dim("len(component_H)", len(spec["component_H"]), spec["d"])
        params = HolderParams(r=spec["r"], rho=spec["rho"], D=tuple(spec["D"]),
                              H=spec["H"], p=spec.get("p"),
                              component_H=spec.get("component_H"))
        problem, params, reference, y_star = _BUILDERS[family](
            {**entry, **spec}, params)
        _check_dim("the problem's dim", problem.dim, spec["d"])
    except ValueError as exc:
        raise ValueError("fixture %r: %s" % (name, exc)) from None
    return Fixture(name=name, problem=problem, params=params,
                   reference=reference, y_star=y_star, meta=dict(entry))


@functools.lru_cache(maxsize=None)
def _stock_entries() -> dict:
    shipped = Path(__file__).with_name("fixtures.json")
    return {e["name"]: e for e in json.loads(shipped.read_text())}


def fixture_names() -> list:
    return sorted(_stock_entries())


def get_fixture(name: str) -> Fixture:
    """Build a stock fixture by name."""
    try:
        entry = _stock_entries()[name]
    except KeyError:
        raise KeyError("unknown fixture %r; known: %s"
                       % (name, ", ".join(fixture_names()))) from None
    return _fixture_from_entry(entry)


def load_fixture_file(path) -> list:
    """Load fixtures from a declarative JSON file (a list of entries)."""
    with open(path) as fh:
        entries = json.load(fh)
    if not (isinstance(entries, list)
            and all(isinstance(e, dict) for e in entries)):
        raise ValueError("fixture file %s does not hold a JSON list of "
                         "entry objects" % path)
    return [_fixture_from_entry(e) for e in entries]


def reference_solver(problem: IvpProblem, rtol: float = 1e-12,
                     atol: float = 1e-13, max_step: float = np.inf) -> Callable:
    """High-order reference integrator, tightened until self-consistent.

    Returns a callable t -> states built on a dense DOP853 solution.  The
    solve is repeated at a 10x looser tolerance and the two must agree to
    1e-9; otherwise the fixture needs a closed form instead.
    ``max_step`` guards problems with narrow features the step controller
    could otherwise skip.
    """
    from scipy.integrate import solve_ivp   # only here: scipy loads slowly

    def rhs(t, y):
        return np.asarray(problem.f(y), dtype=float)

    sols = []
    for scale in (10.0, 1.0):
        sol = solve_ivp(rhs, problem.interval, problem.eta, method="DOP853",
                        rtol=max(rtol * scale, 2.4e-14), atol=atol * scale,
                        max_step=max_step, dense_output=True)
        if not sol.success:
            raise RuntimeError("reference integration failed: %s" % sol.message)
        sols.append(sol)
    probe = np.linspace(problem.a, problem.b, 17)
    gap = np.max(np.abs(sols[0].sol(probe) - sols[1].sol(probe)))
    if gap > 1e-9:
        raise RuntimeError("reference integrator not self-consistent: gap %g" % gap)
    dense = sols[1].sol

    def ref(t):
        t = np.asarray(t, dtype=float)
        out = dense(t.ravel() if t.ndim else t[None])
        out = out.T
        return out if t.ndim else out[0]
    return ref
