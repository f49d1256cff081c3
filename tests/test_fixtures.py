import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqode
from rqode.core import validate_holder
from rqode.fixtures import (fixture_names, get_fixture, load_fixture_file,
                            reference_solver)
from rqode.planted import make_planted
from rqode.core import HolderParams


def shipped_entries():
    """The stock fixture entries, as the package ships them."""
    return json.loads((Path(rqode.__file__).parent / "fixtures.json").read_text())


class TestRegistry:
    def test_names_available(self):
        names = fixture_names()
        for expected in ("sin_flow", "exp_flow", "constant", "cos_time",
                         "inv1p", "inv1p_r1"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown fixture"):
            get_fixture("does_not_exist")

    def test_entry_schema(self):
        for entry in shipped_entries():
            for key in ("name", "d", "r", "rho", "D", "H", "a", "b", "eta"):
                assert key in entry, (entry["name"], key)
            assert len(entry["D"]) == entry["r"] + 1
            assert len(entry["eta"]) == entry["d"]

    def test_references_match_dynamics(self):
        # reference solutions satisfy z' = f(z) (finite-difference check)
        for name in ("sin_flow", "exp_flow", "cos_time", "inv1p"):
            fx = get_fixture(name)
            a, b = fx.problem.interval
            ts = np.linspace(a + 0.05, b - 0.05, 7)
            h = 1e-6
            lhs = (fx.reference(ts + h) - fx.reference(ts - h)) / (2 * h)
            rhs = np.stack([np.asarray(fx.problem.f(z))
                            for z in fx.reference(ts)])
            assert np.allclose(lhs, rhs, atol=1e-7)

    def test_classes_validate_on_solution_tube(self):
        for name in ("sin_flow", "sin_flow_r1", "exp_flow_r1", "cos_time_r1",
                     "inv1p_r1"):
            fx = get_fixture(name)
            a, b = fx.problem.interval
            states = fx.reference(np.linspace(a, b, 41))
            assert validate_holder(fx.problem, fx.params, states, tol=1e-9).passed

    def test_derivatives_match_central_differences(self):
        # derivs(k)[..., j] is the y_j-derivative of derivs(k-1), k = 1, 2
        h = 1e-6
        for name in fixture_names():
            fx = get_fixture(name)
            d = fx.problem.dim
            for offset in (-0.2, 0.0, 0.3):
                y = fx.problem.eta + offset
                for k in (1, 2):
                    exact = fx.problem.derivs(k, y)[k]
                    assert exact.shape == (d,) * (k + 1), (name, k)
                    for j, e in enumerate(np.eye(d)):
                        fd = (fx.problem.derivs(k - 1, y + h * e)[k - 1]
                              - fx.problem.derivs(k - 1, y - h * e)[k - 1]
                              ) / (2 * h)
                        assert np.allclose(exact[..., j], fd, rtol=1e-6,
                                           atol=1e-8), (name, k, offset, j)

    def test_oracles_take_a_batch(self):
        # derivs(k, .) returns orders 0..k; order q of derivs(k, Y) for Y of
        # shape (B, d) has shape (B,) + (d,) * (q + 1), its row b is order q
        # of the single-point call at Y[b], and at a point and on a batch it
        # is order q of derivs(q, .), all bit for bit; row b of f(Y) is
        # f(Y[b]) and order 0 of derivs(0, Y[b])
        planted = make_planted([0.5, -0.25, 0.75, -1.0],
                               HolderParams(r=2, rho=0.5, D=(1.2, 1.0, 1.0),
                                            H=1.0))
        problems = [get_fixture(name).problem for name in fixture_names()]
        problems.append(planted.problem)
        assert len(problems) >= 11
        for prob in problems:
            d = prob.dim
            Y = prob.eta + np.multiply.outer(np.linspace(-0.3, 0.6, 23),
                                             np.arange(1.0, d + 1.0))
            F = np.asarray(prob.f(Y), dtype=float)
            assert F.shape == (23, d), prob.name
            for b in range(23):
                for single in (prob.f(Y[b]), prob.derivs(0, Y[b])[0]):
                    assert F[b].tobytes() == \
                        np.asarray(single, dtype=float).tobytes(), \
                        (prob.name, b)
            for k in (0, 1, 2):
                batch = prob.derivs(k, Y)
                assert len(batch) == k + 1, (prob.name, k)
                for b in range(23):
                    single = prob.derivs(k, Y[b])
                    assert len(single) == k + 1, (prob.name, k, b)
                    for q in range(k + 1):
                        assert batch[q][b].shape == single[q].shape
                        assert batch[q][b].tobytes() == single[q].tobytes(), \
                            (prob.name, k, q, b)
                        assert single[q].tobytes() == \
                            prob.derivs(q, Y[b])[q].tobytes(), \
                            (prob.name, k, q, b)
                for q in range(k + 1):
                    assert batch[q].shape == (23,) + (d,) * (q + 1), \
                        (prob.name, k, q)
                    assert batch[q].tobytes() == \
                        prob.derivs(q, Y)[q].tobytes(), (prob.name, k, q)

    def test_derivative_order_limit(self):
        for name in ("sin_flow", "exp_flow", "cos_time", "inv1p"):
            fx = get_fixture(name)
            with pytest.raises(ValueError,
                               match="%s supplies derivatives up to order 2"
                               % fx.meta["family"]):
                fx.problem.derivs(3, fx.problem.eta)

    def test_inv1p_endpoint(self):
        fx = get_fixture("inv1p")
        assert fx.y_star == pytest.approx(1.0, abs=1e-14)


class TestFixtureFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps(shipped_entries()))
        fixtures = load_fixture_file(path)
        assert {f.name for f in fixtures} == set(fixture_names())
        fx = [f for f in fixtures if f.name == "sin_flow"][0]
        assert fx.problem.interval == (0.0, 1.0)

    def test_planted_entry_round_trip(self, tmp_path):
        params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
        pl = make_planted([0.5, -0.25], params)
        entry = pl.to_entry("planted_demo")
        path = tmp_path / "planted.json"
        path.write_text(json.dumps([entry]))
        (fx,) = load_fixture_file(path)
        assert fx.name == "planted_demo"
        ys = np.linspace(0, 1, 17)
        assert np.allclose(fx.problem.f(ys[:, None]),
                           pl.problem.f(ys[:, None]))
        assert fx.y_star == pl.closed_form_endpoint()

    @pytest.mark.parametrize("name", ["sin_flow", "cos_time"])
    def test_eta_length_must_match_d(self, tmp_path, name):
        entry = dict(get_fixture(name).meta, d=2, eta=[0.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError,
                           match=r"fixture '%s': len\(eta\) is 1 but d is 2"
                           % name):
            load_fixture_file(path)

    def test_problem_dim_must_match_d(self, tmp_path):
        # the planted family reads eta[0] only, so it builds a 1-D problem
        params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
        entry = dict(make_planted([0.5, -0.25], params).to_entry("wide"),
                     d=2, eta=[0.0, 0.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match="fixture 'wide': the problem's "
                                             "dim is 1 but d is 2"):
            load_fixture_file(path)

    @pytest.mark.parametrize("content", [
        lambda: dict(get_fixture("inv1p").meta), lambda: [1, 2]])
    def test_file_must_hold_a_list_of_entries(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(content()))
        with pytest.raises(ValueError) as exc:
            load_fixture_file(path)
        assert exc.value.args[0] == ("fixture file %s does not hold a JSON "
                                     "list of entry objects" % path)

    @pytest.mark.parametrize("key", ["b", "eta", "rho", "name"])
    def test_missing_key_named(self, tmp_path, key):
        entry = dict(get_fixture("inv1p").meta)
        del entry[key]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(KeyError) as exc:
            load_fixture_file(path)
        assert exc.value.args[0] == (
            "fixture %r: the entry has no %r; entries need "
            "{name, d, r, rho, D, H, a, b, eta}" % (entry.get("name", "?"), key))

    @pytest.mark.parametrize("change, error, message", [
        ({"D": 1.0}, ValueError, r"fixture 'sin_flow': 'D' is 1\.0 \("),
        ({"eta": 0.5}, ValueError, r"fixture 'sin_flow': 'eta' is 0\.5 \("),
        ({"r": "x"}, ValueError, r"fixture 'sin_flow': 'r' is 'x' \("),
        ({"a": "zero"}, ValueError, r"fixture 'sin_flow': 'a' is 'zero' \("),
        ({"family": "nope"}, KeyError,
         r"fixture 'sin_flow': unknown family 'nope'; known: constant, "),
        ({"family": ["x"]}, KeyError,
         r"fixture 'sin_flow': unknown family \['x'\]; known: constant, "),
        ({"family": "planted"}, KeyError,
         r"fixture 'sin_flow': the planted entry has no 'lambdas'"),
        ({"p": "abc"}, ValueError, r"fixture 'sin_flow': 'p' is 'abc' \("),
        ({"component_H": 3}, ValueError,
         r"fixture 'sin_flow': 'component_H' is 3 \("),
        ({"peak_coeff": "abc"}, ValueError,
         r"fixture 'sin_flow': 'peak_coeff' is 'abc' \("),
        # values that convert but leave the class
        ({"p": float("nan")}, ValueError,
         r"^fixture 'sin_flow': p must be finite$"),
        ({"p": 5.0}, ValueError,
         r"^fixture 'sin_flow': p must not exceed D_0$"),
        ({"H": -1}, ValueError, r"^fixture 'sin_flow': H must be positive$"),
        ({"component_H": [2.0]}, ValueError,
         r"^fixture 'sin_flow': component_H entries must lie in \[0, H\]$"),
        # counts are never truncated, and component_H has one entry per
        # component
        ({"r": 1.5}, ValueError, r"^fixture 'sin_flow': 'r' is 1\.5 \(r must "
                                 r"be a whole number, got 1\.5\)$"),
        ({"d": 1.7}, ValueError, r"^fixture 'sin_flow': 'd' is 1\.7 \(d must "
                                 r"be a whole number, got 1\.7\)$"),
        ({"component_H": [1.0, 1.0]}, ValueError,
         r"^fixture 'sin_flow': len\(component_H\) is 2 but d is 1$"),
    ], ids=["D", "eta", "r", "a", "family", "family_list", "lambdas", "p",
            "component_H", "peak_coeff", "p_nan", "p_above_D0", "H_negative",
            "component_H_above_H", "r_fractional", "d_fractional",
            "component_H_length"])
    def test_malformed_entry_named(self, tmp_path, change, error, message):
        entry = dict(get_fixture("sin_flow").meta, **change)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(error, match=message):
            load_fixture_file(path)

    @pytest.mark.parametrize("peak_coeff, message", [
        (5.0, r"^peak_coeff 5\.0 gives sup \|g - 1\| = peak_coeff \* "
              r"2\^-\(r \+ rho\) = 2\.5 >= 1, so g reaches 0$"),
        (0.0, r"^peak_coeff must be positive$"),
        (-1.0, r"^peak_coeff must be positive$"),
        (float("nan"), r"^peak_coeff must be finite$"),
        (float("inf"), r"^peak_coeff must be finite$"),
    ], ids=["g_reaches_0", "zero", "negative", "nan", "inf"])
    def test_planted_peak_coeff_named(self, tmp_path, peak_coeff, message):
        params = HolderParams(r=0, rho=1.0, D=(1.2,), H=1.0)
        entry = make_planted([0.5, -0.25], params).to_entry("pl")
        entry["peak_coeff"] = peak_coeff
        path = tmp_path / "planted.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match=message):
            load_fixture_file(path)

    @pytest.mark.parametrize("d, c, error, message", [
        (2, None, KeyError, r"fixture 'constant': the constant entry has no "
                            r"'c'"),
        (3, None, KeyError, r"fixture 'constant': the constant entry has no "
                            r"'c'"),
        (2, [0.7, -0.3, 0.1], ValueError,
         r"fixture 'constant': len\(c\) is 3 but d is 2"),
        (2, [float("nan"), 0.1], ValueError,
         r"fixture 'constant': 'c' is \[nan, 0\.1\], not all finite"),
    ], ids=["missing", "missing_d3", "length", "nan"])
    def test_constant_entry_needs_finite_c(self, tmp_path, d, c, error,
                                           message):
        entry = dict(get_fixture("constant").meta, d=d, eta=[0.0] * d, c=c)
        if c is None:
            del entry["c"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(error, match=message):
            load_fixture_file(path)

    def test_builders_read_converted_values(self, tmp_path):
        # "a" passes its float conversion as a string; the builder must get
        # the float, not the string
        entry = dict(get_fixture("sin_flow").meta, a="0")
        path = tmp_path / "fixtures.json"
        path.write_text(json.dumps([entry]))
        (fx,) = load_fixture_file(path)
        assert fx.meta["a"] == "0"
        assert fx.problem.interval == (0.0, 1.0)
        assert np.array_equal(fx.reference(0.5),
                              get_fixture("sin_flow").reference(0.5))

    def test_family_dim_must_match_eta(self, tmp_path):
        entry = dict(get_fixture("sin_flow").meta, d=2, eta=[1.0, 1.0])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([entry]))
        with pytest.raises(ValueError, match="problem 'sin_flow': eta has 2 "
                                             "entries but dim is 1"):
            load_fixture_file(path)


class TestReferenceSolver:
    def test_import_leaves_scipy_unloaded(self):
        # only reference_solver needs scipy, and it imports it itself
        code = "import sys, rqode; print('scipy' in sys.modules)"
        src = str(Path(rqode.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "False\n"

    def test_matches_closed_form(self):
        fx = get_fixture("sin_flow")
        ref = reference_solver(fx.problem)
        ts = np.linspace(0, 1, 9)
        assert np.allclose(ref(ts), fx.reference(ts), atol=1e-10)

    def test_scalar_and_array_calls(self):
        fx = get_fixture("exp_flow")
        ref = reference_solver(fx.problem)
        single = ref(0.25)
        batch = ref(np.array([0.25, 0.5]))
        assert single.shape == (1,)
        assert batch.shape == (2, 1)
        assert single[0] == batch[0, 0]
