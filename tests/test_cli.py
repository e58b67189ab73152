import ast
import contextlib
import copy
import dataclasses
import io
import json
import os
import platform
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadint
from quadint import analysis, cli, exprdsl, model
from quadint.cli import main
from quadint.errors import ExpressionSyntaxError
from quadint.exprdsl import FUNCTIONS, Add, Call, Div, Mul, Neg, Num, Pow, Sub, Var
from quadint.spectral import Grid

import support

SRC = str(Path(__file__).resolve().parent.parent / "src")
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

CERTIFIED = {
    "grid": {"d": 2, "n": 64, "L": 8.0},
    "components": 1,
    "kernels": [{"type": "expression", "expr": "0.005*exp(-x1^2-x2^2)"}],
    "operators": [{"type": "inverse_helmholtz"}],
    "u0": ["0.1*exp(-x1^2-x2^2)"],
    "g": ["z1^2"],
}


# two coupled tanh components: M is an interval enclosure
TANH = {
    "grid": {"d": 2, "n": 16, "L": 8.0},
    "components": 2,
    "kernels": [{"type": "expression", "expr": "0.0002*exp(-x1^2-x2^2)"}] * 2,
    "operators": [{"type": "inverse_helmholtz"}] * 2,
    "u0": ["0.03*exp(-x1^2-x2^2)", "0.02*exp(-x1^2-x2^2)"],
    "g": ["tanh(z1*z2)", "tanh(z2*z1)"],
}


# TANH with a first component the interval enclosure refuses on every box
# (z1 - z1 encloses to an interval below 0) and the same C^1 values: M
# cannot be enclosed, so the problem is not certified
TANH_UNENCLOSED = dict(TANH, g=["tanh(z1*z2)+sqrt(z1-z1)", "tanh(z2*z1)"])
UNENCLOSED_M = ("the C1 bound of g cannot be enclosed on the state ball of radius {} "
                "(a divisor may vanish, or a square-root argument may be negative)")
# the structural check's violation when g cannot be enclosed at its probe
# points: on a point box, z1 - z1 encloses to an interval that holds 0
UNENCLOSED_G = ("nonlinearity is not proved non-zero on the state ball: its enclosure "
                "at the probe points refuses (a divisor may vanish, or a square-root "
                "argument may be negative)")

# the canonical problem at n = 16, whose state ball has radius 0.497, with a
# g that has a pole at z1 = 0.1, inside the ball, or at z1 = 1/1.9 = 0.526,
# outside it
POLE_INSIDE = dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0}, g=["1e-9*z1^2/(1-10*z1)"])
POLE_OUTSIDE = dict(POLE_INSIDE, g=["1e-9*z1^2/(1-1.9*z1)"])

# the constants-tanh benchmark shape at n = 16: six components coupled
# cyclically through tanh(z_m z_m+1)
CONSTANTS_TANH = {
    "grid": {"d": 2, "n": 16, "L": 8.0},
    "components": 6,
    "kernels": [{"type": "expression", "expr": "0.0002*exp(-1.0*x1^2-1.0*x2^2)"}] * 6,
    "operators": [{"type": "inverse_helmholtz"}] * 6,
    "u0": [f"{a}*exp(-x1^2-x2^2)" for a in (0.02, 0.025, 0.03, 0.035, 0.04, 0.03)],
    "g": [f"tanh(z{m + 1}*z{(m + 1) % 6 + 1})" for m in range(6)],
}

# the solve-3d benchmark shape at n = 32: two coupled components in 3-D
SOLVE_3D = {
    "grid": {"d": 3, "n": 32, "L": 8.0},
    "components": 2,
    "kernels": [{"type": "expression", "expr": "0.002*exp(-x1^2-x2^2-x3^2)"},
                {"type": "expression", "expr": "0.002*exp(-2*x1^2-2*x2^2-2*x3^2)"}],
    "operators": [{"type": "inverse_helmholtz"}, {"type": "scaled_identity", "alpha": 0.5}],
    "u0": ["0.1*exp(-x1^2-x2^2-x3^2)", "0.05*exp(-x1^2-x2^2-x3^2)"],
    "g": ["z1*z2", "z1^2"],
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestCheck:
    def test_certified_problem_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "check", path)
        assert code == 0
        assert doc["certified"] is True
        assert doc["constants"]["sigma"] < 1.0
        assert doc["constants"]["condition_pass"] is True

    def test_nonzero_origin_fails(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, g=["z1+1"])
        code, doc = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 1
        assert any("origin" in v for v in doc["assumptions"]["violations"])

    def test_unenclosed_m_is_not_certified(self, tmp_path, capsys):
        path = write_problem(tmp_path, TANH_UNENCLOSED)
        for command in ("check", "solve"):
            code, doc = run(capsys, command, path)
            assert code == 1
            assert doc["certified"] is False
            assert doc["constants"] is None
            assert doc["assumptions"]["violations"] == [
                UNENCLOSED_G, "constants computation failed: " + UNENCLOSED_M.format(0.405241)]

    def test_pole_inside_the_state_ball_is_not_certified(self, tmp_path, capsys):
        # 0.8.0 sampled M = 4.2e-4 here and certified the problem
        code, doc = run(capsys, "check", write_problem(tmp_path, POLE_INSIDE))
        assert code == 1
        assert doc["certified"] is False
        assert doc["constants"] is None
        assert doc["assumptions"]["violations"] == [
            "constants computation failed: " + UNENCLOSED_M.format(0.496908)]

    def test_pole_outside_the_state_ball_certifies(self, tmp_path, capsys):
        code, doc = run(capsys, "check", write_problem(tmp_path, POLE_OUTSIDE))
        assert code == 0
        assert doc["certified"] is True
        assert doc["constants"]["r_state"] < 1 / 1.9
        assert doc["constants"]["provenance"]["M"] == "rigorous-bound"
        assert doc["constants"]["M"] == pytest.approx(1.82e-7, rel=1e-3)

    def test_odd_grid_is_input_error(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, grid={"d": 2, "n": 63, "L": 8.0})
        code, _ = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 2

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        # a newline in the path stays inside the one stderr line
        for name in ("broken.json", "bro\nken.json"):
            path = tmp_path / name
            path.write_text("{not json")
            assert main(["check", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: malformed JSON in {str(path)!r}: ")
            assert err.count("\n") == 1

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        for path in ("/nonexistent/problem.json", str(tmp_path / "no\nfile.json")):
            assert main(["check", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot read {path!r}: ")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("g, violations", [
        ("1e-14*z1^2", []),
        ("1e-20*z1^2", []),
        ("z1+1", ["nonlinearity does not vanish at the origin"]),
        ("z1+1e-15", ["nonlinearity does not vanish at the origin"]),
    ])
    def test_structural_hypotheses_have_no_threshold(self, tmp_path, capsys, g, violations):
        # 0.10.0 flagged both small g as vanishing on the state ball and
        # certified z1 + 1e-15, whose g(0) is not 0
        code, doc = run(capsys, "check", write_problem(tmp_path, dict(POLE_INSIDE, g=[g])))
        assert doc["assumptions"]["violations"] == violations
        assert doc["certified"] is (not violations)
        assert code == (1 if violations else 0)

    def test_removable_singularity_is_not_certified(self, tmp_path, capsys):
        # z1^2/z1 is undefined at the origin: 0.10.0 exited 2 with "division by zero"
        code, doc = run(capsys, "check",
                        write_problem(tmp_path, dict(POLE_INSIDE, g=["z1^2/z1"])))
        assert code == 1
        assert doc["certified"] is False
        assert doc["assumptions"]["violations"] == [
            UNENCLOSED_G, "constants computation failed: " + UNENCLOSED_M.format(0.496908)]

    def test_wrong_section_length_is_input_error(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, g=["z1^2", "z1^2"])
        code, _ = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 2

    def test_unknown_kernel_type_is_input_error(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, kernels=[{"type": "bessel"}])
        code, _ = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 2

    def test_constants_override_is_flagged(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, constants={"c_e": 0.3, "c_a": 1.5})
        code, doc = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 0
        assert doc["constants"]["constants_overridden"] is True
        assert any("non-certified" in w for w in doc["constants"]["warnings"])

    @pytest.mark.parametrize("constants", [
        {"c_a": -1}, {"c_e": -0.5}, {"c_a": 0}, {"c_e": float("nan")}, {"c_a": float("inf")}])
    def test_constant_override_must_be_finite_and_positive(self, tmp_path, capsys,
                                                           constants):
        # a negative c_a or c_e made sigma negative, and the condition passed;
        # a NaN or an Infinity token is refused as it is loaded
        path = write_problem(tmp_path, dict(CERTIFIED, constants=constants))
        (name, value), = constants.items()
        message = (f"constant override {name} must be finite and positive, got {float(value)}"
                   if np.isfinite(value) else f"constants {name!r} must be a finite number")
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_negative_constant_override_in_a_process(self, tmp_path):
        path = write_problem(tmp_path, dict(CERTIFIED, constants={"c_a": -1}))
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: constant override c_a must be finite and positive, got -1.0\n"

    def test_uncertified_problem_exits_one(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, kernels=[{"type": "gaussian", "alpha": 1.0}])
        code, doc = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 1
        assert doc["constants"]["condition_pass"] is False

    def test_trivial_kernel_is_hypothesis_failure(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED,
                      grid={"d": 2, "n": 16, "L": 8.0},
                      kernels=[{"type": "tabulated",
                                "values": [[0.0] * 16 for _ in range(16)]}])
        code, doc = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 1
        assert any("kernel 1 vanishes" in v
                   for v in doc["assumptions"]["violations"])
        assert doc["constants"] is None

    def test_failed_constants_keep_the_overridden_state_ball(
            self, tmp_path, capsys, monkeypatch):
        # c_e = 0.05 gives a state ball of radius 0.66, on which
        # sqrt(1 - z1^2) is defined.  A zero kernel makes the constants fail
        # (Q = 0); the structural checks still probe g on the same ball
        from quadint import model
        radii = []
        real = model.validate_assumptions

        def recording(mat, ball_radius=None):
            radii.append(ball_radius)
            return real(mat, ball_radius=ball_radius)

        monkeypatch.setattr(model, "validate_assumptions", recording)
        base = dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0},
                    u0=["3*exp(-x1^2-x2^2)"], g=["sqrt(1-z1^2)-1"],
                    constants={"c_e": 0.05})
        code, doc = run(capsys, "check", write_problem(tmp_path, base))
        r_state = doc["constants"]["r_state"]
        assert r_state < 1.0
        assert not any("evaluation failed" in v for v in doc["assumptions"]["violations"])
        zero = dict(base, kernels=[{"type": "tabulated",
                                    "values": [[0.0] * 16 for _ in range(16)]}])
        code, doc = run(capsys, "check", write_problem(tmp_path, zero))
        assert code == 1
        assert doc["constants"] is None
        assert doc["assumptions"]["violations"] == [
            "kernel 1 vanishes identically",
            "constants computation failed: cumulative weight Q must be "
            "positive and finite, got 0.0",
        ]
        assert radii == [r_state, r_state]

    @pytest.mark.parametrize("L", [1e100, 1e150, 1e-100, 1e-150])
    def test_box_with_nonfinite_weights_is_input_error(self, tmp_path, capsys, L):
        # h^d and (2L)^d fit a double, but the Sobolev weight (small L) or
        # the squared kernel norms in Q (large L) do not
        path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": L}))
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1

    def test_box_with_nonfinite_weights_in_a_process(self, tmp_path):
        for L in (1e100, 1e-100):
            path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": L}))
            proc = run_python("-m", "quadint.cli", "solve", path)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1
            assert "Warning" not in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("L", [1e300, 1e-300, float("inf")])
    def test_box_beyond_a_double_is_input_error(self, tmp_path, capsys, L):
        # h^d or (2L)^d overflows or underflows; json writes inf as
        # Infinity, which the loader refuses as no finite number
        path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 3, "n": 16, "L": L}))
        prefix = ("error: box half-width " if np.isfinite(L)
                  else "error: grid 'L' must be a finite number")
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(prefix)
            assert captured.err.count("\n") == 1

    def test_box_beyond_a_double_in_a_process(self, tmp_path):
        for L in (1e300, 1e-300):
            path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": L}))
            proc = run_python("-m", "quadint.cli", "check", path)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: box half-width ")
            assert proc.stderr.count("\n") == 1
            assert "Traceback" not in proc.stderr


class TestSolve:
    def test_certified_solve(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        trace_path = tmp_path / "trace.csv"
        code, doc = run(capsys, "solve", path, "--trace", str(trace_path))
        assert code == 0
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["residual"] <= 1e-10
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "k,norm,delta,ratio,apost_bound,step_bound"
        sigma = doc["constants"]["sigma"]
        for line in lines[2:]:
            ratio = float(line.split(",")[3])
            assert ratio <= sigma + 1e-9
        # the last step's bound is the report's error bound, bit for bit
        assert float(lines[-1].split(",")[5]) == doc["solve"]["error_bound"]

    def test_solve_runs_only_batched_real_transforms(self, tmp_path, capsys, fft_calls):
        # u0 and each distinct kernel at load, four per step, four for the
        # residual; the report's norms reuse known spectra, and nothing is a
        # complex fftn.  Each inverse is an ifftn in place over the leading
        # grid axes, then irfft over the last, which the prefactor T(u0 + v)
        # runs once per component
        distinct = 2  # the file's two kernels differ
        code, doc = run(capsys, "solve", str(PROBLEMS / "two_component.json"))
        assert code == 0
        k = doc["solve"]["iterations"]
        names = [name for name, _, _ in fft_calls]
        assert set(names) == {"rfftn", "ifftn", "irfft"}
        assert names.count("rfftn") + names.count("ifftn") == 1 + distinct + 4 * k + 4
        assert names.count("ifftn") == 2 * k + 2
        assert names.count("irfft") == (1 + 2) * (k + 1)
        assert {shape for _, shape, _ in fft_calls} == \
            {(2, 32, 32), (32, 32), (2, 32, 17), (32, 17)}
        assert {shape for name, shape, _ in fft_calls if name != "irfft"} == \
            {(2, 32, 32), (32, 32), (2, 32, 17)}
        assert {axes for name, _, axes in fft_calls if name == "ifftn"} == {(-2,)}

    @pytest.mark.parametrize("name", ["gaussian_certified.json", "two_component.json"])
    def test_error_bound_covers_the_distance_to_the_fixed_point(self, capsys, name):
        # criterion 05 for the returned iterate w: the a-posteriori Banach
        # bound sigma/(1-sigma) delta_k holds against a reference solved to
        # a far tighter tolerance, with the reference's own bound added
        from quadint import analysis, model, solver, spectral
        path = str(PROBLEMS / name)
        code, doc = run(capsys, "solve", path)
        assert code == 0
        sigma, bound = doc["constants"]["sigma"], doc["solve"]["error_bound"]
        assert bound == sigma / (1.0 - sigma) * doc["solve"]["residual"]
        mat = model.materialize(cli.load_problem(path)[0])
        report = analysis.constants_report(mat)
        sol, _ = solver.picard_solve(mat, report)
        assert sol.residual == doc["solve"]["residual"]
        reference, _ = solver.picard_solve(mat, report, tol=1e-16, max_iter=60)
        distance = spectral.h2_norm(mat.grid, sol.u_p_spectrum, reference.u_p_spectrum)
        assert distance + sigma / (1.0 - sigma) * reference.residual <= bound

    def test_no_error_bound_without_a_certificate(self, capsys):
        code, doc = run(capsys, "solve", str(PROBLEMS / "gaussian_uncertified.json"),
                        "--best-effort")
        assert code == 0
        assert doc["constants"]["sigma"] >= 1.0
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["error_bound"] is None

    def test_no_trace_bound_without_a_certificate(self, tmp_path, capsys):
        # rho = 0.3 fails the condition (lhs 0.158 > rho / 2) with sigma =
        # 0.23 < 1; before 0.14.0 the trace still read finite bounds
        doc_in = json.loads((PROBLEMS / "gaussian_certified.json").read_text())
        trace_path = tmp_path / "trace.csv"
        code, doc = run(capsys, "solve", write_problem(tmp_path, dict(doc_in, rho=0.3)),
                        "--best-effort", "--trace", str(trace_path))
        assert code == 0
        assert doc["certified"] is False and doc["constants"]["sigma"] < 1.0
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["error_bound"] is None
        rows = [line.split(",") for line in trace_path.read_text().splitlines()[1:]]
        assert rows and all(row[4:] == ["nan", "nan"] for row in rows)

    def test_uncertified_refused_without_flag(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, kernels=[{"type": "gaussian", "alpha": 1.0}])
        code, doc = run(capsys, "solve", write_problem(tmp_path, doc_in))
        assert code == 1
        assert "refused" in doc["solve"]

    def test_best_effort_divergence_exits_three(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED,
                      kernels=[{"type": "expression",
                                "expr": "200.0*exp(-x1^2-x2^2)"}])
        code, doc = run(capsys, "solve", write_problem(tmp_path, doc_in),
                        "--best-effort", "--max-iter", "60")
        assert code == 3
        assert doc["solve"]["converged"] is False

    def test_violation_exits_one(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, u0=["0"])
        code, doc = run(capsys, "solve", write_problem(tmp_path, doc_in))
        assert code == 1
        assert doc["assumptions"]["violations"]

    @pytest.mark.parametrize("name", ["gaussian_certified", "gaussian_uncertified"])
    def test_max_iter_below_one_is_input_error(self, capsys, monkeypatch, name):
        # refused before the file is read; 0.9.0 blamed the tolerance on the
        # certified problem and exited 1 on the uncertified one
        loaded = []
        monkeypatch.setattr(cli, "load_problem", lambda path: loaded.append(path))
        code = main(["solve", str(PROBLEMS / f"{name}.json"), "--max-iter", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --max-iter must be at least 1, got 0\n"
        assert loaded == []


class TestContinuity:
    def test_identical_nonlinearity(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        g2 = write_problem(tmp_path, {"g": ["z1^2"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2)
        assert code == 0
        assert doc["continuity"]["passed"] is True
        assert doc["continuity"]["measured_distance"] <= 1e-9

    def test_perturbed_nonlinearity_within_bound(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        g2 = write_problem(tmp_path, {"g": ["1.01*z1^2"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2)
        assert code == 0
        cont = doc["continuity"]
        assert cont["measured_distance"] <= cont["bound"]

    def test_report_has_the_keys_the_readme_documents(self, tmp_path, capsys):
        readme = (Path(SRC).parent / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"The `continuity` section of the report holds (.*?)\.\s",
                             readme, re.S).group(1)
        documented = set(re.findall(r"`(\w+)`", sentence))
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "continuity", path, "--g2", path)
        assert code == 0
        assert set(doc["continuity"]) == documented
        assert len(documented) == 8

    def test_missing_g2_is_usage_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        assert main(["continuity", path]) == 2

    def test_g2_component_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        g2 = write_problem(tmp_path, {"g": ["z1^2", "z2^2"]}, "g2.json")
        code, _ = run(capsys, "continuity", path, "--g2", g2)
        assert code == 2

    def test_unenclosed_g2_is_refused(self, tmp_path, capsys):
        # the report's M is enclosed; both walks refuse the partial of
        # z1*sqrt(z1^2), which divides by sqrt(z1^2), so M_2 is refused
        path = write_problem(tmp_path, TANH)
        g2 = write_problem(tmp_path, {"g": ["1.01*tanh(z1*z2)+0.01*z1*sqrt(z1^2)",
                                            "tanh(z2*z1)"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2, "--seed", "3")
        assert code == 1
        assert doc["constants"]["provenance"]["M"] == "rigorous-bound"
        assert doc["continuity"] == {"error": UNENCLOSED_M.format(0.405241).replace(
            "C1 bound of g", "C1 bound of g2")}

    def test_failed_experiment_keeps_the_verdict(self, tmp_path, capsys):
        # the problem certifies, and M of a g2 with a pole inside the state
        # ball cannot be enclosed; 0.9.0 wrote no `certified` key here
        path = write_problem(tmp_path, POLE_OUTSIDE)
        g2 = write_problem(tmp_path, {"g": POLE_INSIDE["g"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2)
        assert code == 1
        assert doc["certified"] is True
        assert doc["continuity"] == {"error": UNENCLOSED_M.format(0.496908).replace(
            "C1 bound of g", "C1 bound of g2")}

    def test_unenclosed_distance_is_refused(self, tmp_path, capsys, monkeypatch):
        # M_2 is enclosed; an affine walk that refuses leaves no distance
        monkeypatch.setattr(exprdsl, "enclose_affine", lambda *args: None)
        path = write_problem(tmp_path, TANH)
        g2 = write_problem(tmp_path, {"g": ["1.01*tanh(z1*z2)", "tanh(z2*z1)"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2)
        assert code == 1
        assert doc["continuity"] == {"error": UNENCLOSED_M.format(0.405241).replace(
            "C1 bound of g", "C1 distance of g and g2")}

    def test_scaled_tanh_distance_is_enclosed(self, tmp_path, capsys):
        path = write_problem(tmp_path, TANH)
        g2 = write_problem(tmp_path, {"g": ["1.01*tanh(z1*z2)", "tanh(z2*z1)"]}, "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2)
        assert code == 0
        assert doc["continuity"]["c1_provenance"] == "rigorous-bound"
        assert 0.0 < doc["continuity"]["c1_distance"] < 0.01

    @pytest.mark.parametrize("name", ["gaussian_certified", "gaussian_uncertified",
                                      "two_component"])
    def test_same_file_is_exactly_zero_apart(self, tmp_path, capsys, name):
        # the uncertified problem stops before the experiment, so its
        # distance is taken on the report's ball directly
        path = str(PROBLEMS / f"{name}.json")
        problem, _ = cli.load_problem(path)
        report = analysis.constants_report(model.materialize(problem))
        assert analysis.c1_distance(problem.g, problem.g, report.r_state) == 0.0
        code, doc = run(capsys, "continuity", path, "--g2", path)
        assert code == (1 if name == "gaussian_uncertified" else 0)
        if code == 0:
            assert doc["continuity"]["c1_distance"] == 0.0
            assert doc["continuity"]["c1_provenance"] == "rigorous-bound"

    MALFORMED_G2 = {
        "non_utf8": b"{\"g\": [\"z1\xff\"]}",
        "json_string": b"\"g2\"",
        "g_not_a_list": b"{\"g\": 5}",
    }

    @pytest.mark.parametrize("kind", sorted(MALFORMED_G2))
    def test_malformed_g2_is_input_error(self, tmp_path, capsys, kind):
        path = write_problem(tmp_path, CERTIFIED)
        g2 = tmp_path / "g2.json"
        g2.write_bytes(self.MALFORMED_G2[kind])
        code = main(["continuity", path, "--g2", str(g2)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_malformed_g2_in_a_process(self, tmp_path):
        g2 = tmp_path / "g2.json"
        g2.write_bytes(self.MALFORMED_G2["non_utf8"])
        proc = run_python("-m", "quadint.cli", "continuity",
                          str(PROBLEMS / "gaussian_certified.json"), "--g2", str(g2))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: malformed JSON in {str(g2)!r}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-10"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        path = write_problem(tmp_path, CERTIFIED)
        for argv in (["solve", path], ["continuity", path, "--g2", path]):
            code = main(argv + [f"--tol={tol}"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == (f"error: --tol must be finite and positive, "
                                    f"got {float(tol)}\n")


class TestOracle:
    def test_default_size_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "oracle", path, "--size", "16")
        assert code == 0
        assert doc["oracle"]["all_passed"] is True

    def test_cached_spectra_unchanged(self, tmp_path, capsys, monkeypatch):
        # the oracle convolves with the cached kernel spectra; the in-place
        # inverse transform must not write into them
        from quadint import model
        original = model.materialize
        made = []

        def recording(*args, **kwargs):
            mat = original(*args, **kwargs)
            made.append((mat, {name: getattr(mat, name).copy() for name in
                               ("kernel_spectra", "u0_spectrum")}))
            return mat

        monkeypatch.setattr(model, "materialize", recording)
        code, doc = run(capsys, "oracle", str(PROBLEMS / "two_component.json"))
        assert code == 0
        assert len(made) == 1
        mat, cached = made[0]
        for name, before in cached.items():
            assert np.array_equal(getattr(mat, name), before), name

    def test_oversized_grid_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        code, _ = run(capsys, "oracle", path, "--size", "64")
        assert code == 2

    def test_corrupted_spectral_path_detected(self, tmp_path, capsys, monkeypatch):
        import quadint.spectral as sp
        original = sp.convolve

        def corrupted(grid, K_hat, f):
            return original(grid, K_hat, f) * (1.0 + 1e-6)

        monkeypatch.setattr("quadint.spectral.convolve", corrupted)
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "oracle", path, "--size", "16")
        assert code == 1
        assert doc["oracle"]["all_passed"] is False

    def test_oracle_checks_the_convolution_of_the_map(self, tmp_path, capsys, monkeypatch):
        # mutation pair: one convolution off by 0.1% moves the solver's map
        # and fails the oracle, so the oracle guards the map's convolution
        from quadint import model, solver
        import quadint.spectral as sp
        mat = model.materialize(cli.problem_from_dict(CERTIFIED))
        v = np.zeros((mat.n,) + mat.grid.shape)
        before = solver.apply_map_tg(mat, v)
        original = sp.convolve

        def scaled(grid, K_hat, f, out=None):
            result = original(grid, K_hat, f, out=out)
            result *= 1.001
            return result

        monkeypatch.setattr(sp, "convolve", scaled)
        after = solver.apply_map_tg(mat, v)
        assert np.allclose(after, 1.001 * before, rtol=1e-12, atol=0.0)
        assert not np.allclose(after, before, rtol=1e-4, atol=0.0)
        code, doc = run(capsys, "oracle", write_problem(tmp_path, CERTIFIED))
        assert code == 1
        assert doc["oracle"]["checks"][0]["passed"] is False


    def test_corrupted_kernel_spectrum_detected(self, tmp_path, capsys, monkeypatch):
        # the check runs on the spectra materialize caches for the solver
        from quadint import model
        original = model.materialize

        def corrupted(problem, strict=True):
            mat = original(problem, strict)
            return dataclasses.replace(mat, kernel_spectra=mat.kernel_spectra * (1.0 + 1e-6))

        monkeypatch.setattr(model, "materialize", corrupted)
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "oracle", path, "--size", "16")
        assert code == 1
        assert doc["oracle"]["checks"][0]["passed"] is False

    def test_dense_reference_is_drawn_once_and_independently(
            self, tmp_path, capsys, monkeypatch):
        # the report's M is enclosed and draws no points; the dense
        # reference is one pseudo-random set for all N + N^2 sups
        from quadint import oracle
        calls = []
        real = oracle.random_ball_points
        monkeypatch.setattr(oracle, "random_ball_points",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        path = write_problem(tmp_path, TANH)
        code, doc = run(capsys, "oracle", path, "--size", "16", "--seed", "2")
        assert code == 0
        assert len(calls) == 1
        sup_check = doc["oracle"]["checks"][-1]
        assert sup_check["name"] == "c1_bound_dominates_dense_sup"
        assert sup_check["dense_reference"] < sup_check["M"]

    def test_unenclosed_m_is_an_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, TANH_UNENCLOSED)
        assert main(["oracle", path, "--size", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: " + UNENCLOSED_M.format(0.405241) + "\n"

    def test_oracle_checks_the_enclosed_c1_bound(self, tmp_path, capsys, monkeypatch):
        # mutation pair: the enclosed M of the constants-tanh shape lies
        # ~5% above the dense sup, so M / 1.2 fails the oracle's sup check
        path = write_problem(tmp_path, CONSTANTS_TANH)
        code, doc = run(capsys, "check", path)
        assert code == 0
        assert doc["constants"]["provenance"]["M"] == "rigorous-bound"
        code, doc = run(capsys, "oracle", path)
        assert code == 0
        assert doc["oracle"]["all_passed"] is True
        original = analysis._enclosed_bound
        monkeypatch.setattr(analysis, "_enclosed_bound",
                            lambda *args: original(*args) / 1.2)
        code, doc = run(capsys, "oracle", path)
        assert code == 1
        failed = [c["name"] for c in doc["oracle"]["checks"] if not c["passed"]]
        assert failed == ["c1_bound_dominates_dense_sup"]

    def test_c1_bound_dominates_the_extended_dense_reference(self, tmp_path, capsys):
        # before 0.14.0 the oracle's 100 000 points read 5.989 on the
        # constants-tanh shape; the 72 axis and diagonal points of the sphere
        # raise that to the exact sup 6.1716
        from quadint import oracle
        path = write_problem(tmp_path, CONSTANTS_TANH)
        code, doc = run(capsys, "oracle", path, "--seed", "7")
        assert code == 0
        sup_check = doc["oracle"]["checks"][-1]
        assert 6.1716 <= sup_check["dense_reference"] <= 6.1718
        assert sup_check["M"] >= sup_check["dense_reference"] * (1.0 - 1e-9)
        problem, _ = cli.load_problem(path)
        report = analysis.constants_report(model.materialize(problem))
        assert oracle.dense_c1_norm(problem.g, report.r_state, 100_000, seed=7) == \
            sup_check["dense_reference"]

    def test_oracle_fails_an_M_below_the_exact_sup(self, tmp_path, capsys, monkeypatch):
        # mutation pair: M / 1.06 = 6.118 lies above the sup 5.989 of the
        # pseudo-random points and below the exact sup, which the sphere's
        # axis and diagonal points read; before 0.14.0 the oracle passed it
        original = analysis._enclosed_bound
        monkeypatch.setattr(analysis, "_enclosed_bound",
                            lambda *args: original(*args) / 1.06)
        path = write_problem(tmp_path, CONSTANTS_TANH)
        code, doc = run(capsys, "oracle", path, "--seed", "7")
        assert code == 1
        failed = [c["name"] for c in doc["oracle"]["checks"] if not c["passed"]]
        assert failed == ["c1_bound_dominates_dense_sup"]
        sup_check = doc["oracle"]["checks"][-1]
        assert sup_check["M"] < sup_check["dense_reference"] * (1.0 - 1e-9)


class TestWorkingSet:
    @staticmethod
    def solve_3d(tmp_path, n, components):
        doc = {key: value[:components] if isinstance(value, list) else value
               for key, value in SOLVE_3D.items()}
        doc.update(components=components, grid=dict(SOLVE_3D["grid"], n=n))
        if components == 1:
            doc["g"] = ["z1^2"]
        return write_problem(tmp_path, doc)

    def traced_peak(self, tmp_path, n, components):
        path = self.solve_3d(tmp_path, n, components)
        argv = ["solve", path, "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0  # warm: first-call allocations are not the grid's
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("components", [1, 2])
    def test_solve_peak_grows_by_the_stated_field_count(self, tmp_path, capsys,
                                                        components):
        # README "Memory": from n = 16 to n = 32 the peak of a solve grows by
        # 8.8 fields of n^d doubles at N = 1 and by 15.1 at N = 2, under
        # the working_set_bytes the refusal counts (9 and 16).  The growth
        # leaves out the fixed part of the peak; one more retained or
        # duplicated stacked field goes over it
        from quadint.model import working_set_bytes
        from quadint.spectral import Grid
        small, large = (self.traced_peak(tmp_path, n, components) for n in (16, 32))
        estimate = (working_set_bytes(Grid(3, 32, 8.0), components)
                    - working_set_bytes(Grid(3, 16, 8.0), components))
        assert large - small <= estimate, (large - small) / estimate

    @pytest.mark.parametrize("components, n", [(1, 64), (2, 32)])
    def test_materialize_peaks_below_a_picard_step(self, tmp_path, components, n):
        # README "Memory": materialize samples, measures and transforms one
        # kernel at a time, so with u0 and the spectra it keeps it holds less
        # than one Picard step holds on top of them.  At N = 1 the two peaks
        # lie within 1%: sampling a kernel takes a fixed ~85 kB beyond its
        # fields, which at n = 32 puts materialize 0.5% above the step and
        # at n = 64 weighs 8 times less against a field
        from quadint import analysis, model, solver
        problem, _ = cli.load_problem(self.solve_3d(tmp_path, n, components))
        tracemalloc.start()
        try:
            mat = model.materialize(problem)
            materialize_peak = tracemalloc.get_traced_memory()[1]
            report = analysis.constants_report(mat)
            tracemalloc.reset_peak()
            solver.picard_solve(mat, report, tol=1e300, max_iter=1)
            step_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert materialize_peak < step_peak, materialize_peak / step_peak


class TestHeapRetention:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_warm_solve_takes_no_fresh_pages(self, tmp_path):
        # the same solve twice in one process: the second takes its fields
        # and spectra from the heap the first freed.  Without the retention
        # glibc gives that heap back, and the second solve faults in ~9 times
        # a stacked field's pages (18.4k at n = 80).  A solve takes ~10 faults
        # whatever the grid, so the smallest n whose 1% clears them is 80
        n = 80
        path = write_problem(tmp_path, dict(SOLVE_3D, grid=dict(SOLVE_3D["grid"], n=n)))
        code = (
            "import resource, sys\n"
            "from quadint.cli import main\n"
            "argv = ['solve', sys.argv[1], '--tol', '1e-8', '--out', sys.argv[2]]\n"
            "for _ in range(2):\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    assert main(argv) == 0\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        proc = run_python("-c", code, path, str(tmp_path / "report.json"))
        assert proc.returncode == 0, proc.stderr
        first, second = map(int, proc.stdout.split())
        stacked_field_pages = 2 * n ** 3 * 8 // resource.getpagesize()
        assert second < 0.01 * stacked_field_pages, (first, second)

    @staticmethod
    def no_library(name):
        raise OSError(f"{name}: cannot open shared object file")

    @pytest.mark.parametrize("cdll", [no_library, lambda name: object()],
                             ids=["no-library", "no-mallopt"])
    def test_main_without_mallopt_gives_the_same_report(self, tmp_path, monkeypatch, cdll):
        path = write_problem(tmp_path, CERTIFIED)
        expected, got = tmp_path / "expected.json", tmp_path / "got.json"
        assert main(["solve", path, "--out", str(expected)]) == 0
        calls = []
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: calls.append(name) or cdll(name))
        cli.retain_freed_heap.cache_clear()
        try:
            assert main(["solve", path, "--out", str(got)]) == 0
            assert main(["solve", path, "--out", str(got)]) == 0
        finally:
            cli.retain_freed_heap.cache_clear()
        assert calls == [None]  # once per process
        assert got.read_bytes() == expected.read_bytes()


class TestParser:
    def test_main_builds_one_parser_per_process(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        cli.build_parser.cache_clear()
        assert main(["check", path]) == 0
        assert main(["check", path, "--seed", "1"]) == 0
        assert cli.build_parser.cache_info().misses == 1
        capsys.readouterr()
        # the shared parser still refuses a usage error and answers --version
        assert main(["check"]) == 2
        assert "the following arguments are required: file" in capsys.readouterr().err
        for _ in range(2):
            assert main(["--version"]) == 0
            assert capsys.readouterr().out == f"quadint {quadint.__version__}\n"
        assert cli.build_parser.cache_info().misses == 1


class TestWriteErrors:
    """A report or trace that cannot be written is an input error: exit 2
    and one line on stderr.  0.9.0 ended each case in a traceback."""

    CASES = [("check", "--out"), ("solve", "--out"), ("solve", "--trace")]

    @staticmethod
    def argv(tmp_path, command, option, directory="missing"):
        path = write_problem(tmp_path, POLE_OUTSIDE)
        return [command, path, option, str(tmp_path / directory / "out")]

    @pytest.mark.parametrize("command, option", CASES)
    def test_unwritable_path_is_input_error(self, tmp_path, capsys, command, option):
        # a newline in the path stays inside the one stderr line
        for directory in ("missing", "no\ndir"):
            code = main(self.argv(tmp_path, command, option, directory))
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith(
                f"error: cannot write {str(tmp_path / directory / 'out')!r}: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, option", CASES)
    def test_unwritable_path_in_a_process(self, tmp_path, command, option):
        proc = run_python("-m", "quadint.cli", *self.argv(tmp_path, command, option))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


class TestDeterminism:
    @pytest.mark.parametrize("doc_in", [
        CERTIFIED,
        dict(CERTIFIED, g=["sin(z1)"]),  # an enclosed M
        dict(CERTIFIED, g=["sin(z1)+sqrt(z1-z1)"]),  # M refused: not certified
    ])
    def test_check_reports_are_byte_identical(self, tmp_path, capsys, doc_in):
        path = write_problem(tmp_path, doc_in)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        code = 1 if "sqrt" in doc_in["g"][0] else 0
        assert main(["check", path, "--seed", "7", "--out", str(out1)]) == code
        assert main(["check", path, "--seed", "7", "--out", str(out2)]) == code
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("g", ["z1^2", "sqrt(z1)", "sqrt(z1+0.494)-sqrt(0.494)"])
    def test_reports_do_not_depend_on_the_seed(self, tmp_path, capsys, g):
        # the seed drives only the oracle.  In 0.10.0 the 256 random points
        # of the structural check reached the last g's square root below 0
        # at seed 7 and not at seed 0, and the two reports differed
        path = write_problem(tmp_path, dict(POLE_INSIDE, g=[g]))
        for argv in (["check", path], ["solve", path], ["continuity", path, "--g2", path]):
            reports = []
            for seed in (0, 7):
                code, doc = run(capsys, *argv, "--seed", str(seed))
                assert doc.pop("seed") == seed
                reports.append((code, doc))
            assert reports[0] == reports[1]

    def test_solve_reports_and_traces_are_byte_identical(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        outs, traces = [], []
        for tag in ("a", "b"):
            out = tmp_path / f"report_{tag}.json"
            trace = tmp_path / f"trace_{tag}.csv"
            assert main(["solve", path, "--out", str(out),
                         "--trace", str(trace)]) == 0
            outs.append(out.read_bytes())
            traces.append(trace.read_bytes())
        assert outs[0] == outs[1]
        assert traces[0] == traces[1]


class TestPathologicalInput:
    DEEP = "(" * 3000 + "z1" + ")" * 3000

    def test_deep_nesting_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, dict(CERTIFIED, g=[self.DEEP]))
        code = main(["check", path])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_deep_nesting_in_a_process(self, tmp_path):
        path = write_problem(tmp_path, dict(CERTIFIED, g=[self.DEEP]))
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_negative_seed_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        for command in ("check", "solve", "oracle"):
            code = main([command, path, "--seed", "-1"])
            err = capsys.readouterr().err
            assert code == 2
            assert err == "error: --seed must be a non-negative integer, got -1\n"

    def test_negative_seed_in_a_process(self):
        proc = run_python("-m", "quadint.cli", "check",
                          str(PROBLEMS / "gaussian_certified.json"),
                          "--seed", "-1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: --seed must be a non-negative integer, got -1\n"

    def test_nonfinite_iterate_is_input_error(self, tmp_path, capsys):
        # u0 of size 1e110 keeps every constant finite, but the first
        # iterate overflows: the same exit code as before, one stderr line
        path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0},
                                            u0=["1e110*exp(-x1^2-x2^2)"]))
        code = main(["solve", path, "--best-effort"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: field contains non-finite samples\n"

    @pytest.mark.parametrize("section, text", [
        ("g", "z1^2*2^5000"),           # folded while differentiating at load
        ("g", "z1^2*exp(1000)"),        # folded through math.exp
        ("g", "0*z1^2+z1*1e300^2"),     # a float power while evaluating
        ("u0", "0.1*exp(-x1^2-x2^2)*(10^400)"),
    ])
    def test_overflowing_literal_is_input_error(self, tmp_path, capsys, section, text):
        path = write_problem(tmp_path, dict(CERTIFIED, **{section: [text]}))
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert "overflows a double" in captured.err
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ("z1^2*1e400", "error: evaluation produced a non-finite value\n"),
        ("z1^2*sin(1e400)", "error: sin(inf) is outside the domain of sin (byte offset 5)\n"),
    ])
    def test_infinite_literal_stays_input_error(self, tmp_path, capsys, text, message):
        path = write_problem(tmp_path, dict(CERTIFIED, g=[text]))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("section, entry, message", [
        ("u0", "0.1*exp(-x1^2-x2^2)*cos(-1e400)",
         "error: cos(-inf) is outside the domain of cos (byte offset 20)\n"),
        ("kernels", {"type": "expression", "expr": "sin(1e400)*exp(-x1^2-x2^2)"},
         "error: sin(inf) is outside the domain of sin (byte offset 0)\n"),
    ])
    def test_infinite_literal_in_a_function_names_its_offset(self, tmp_path, capsys,
                                                             section, entry, message):
        path = write_problem(tmp_path, dict(CERTIFIED, **{section: [entry]}))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("where", ["kernel", "g2"])
    def test_literal_outside_a_math_domain_is_input_error(self, tmp_path, capsys, where):
        # sin(inf) is refused where its text is parsed: the kernel when the
        # problem file is read, the --g2 file after it
        if where == "kernel":
            kernel = {"type": "expression", "expr": "sin(1e400)*exp(-x1^2-x2^2)"}
            argv = ["check", write_problem(tmp_path, dict(CERTIFIED, kernels=[kernel]))]
        else:
            argv = ["continuity", write_problem(tmp_path, CERTIFIED),
                    "--g2", write_problem(tmp_path, {"g": ["z1^2*sin(1e400)"]}, "g2.json")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("amplitude, message", [
        ("1e200", "error: initial data reaches 1e+200, whose square overflows a double\n"),
        ("1e154", "error: the H2 norm of the initial data overflows a double\n"),
    ])
    def test_overflowing_initial_data_is_one_line(self, tmp_path, capsys, amplitude, message):
        # refused before any norm or tail mass squares the samples: one
        # stderr line, and no numpy warning on the way
        path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0},
                                            u0=[f"{amplitude}*exp(-x1^2-x2^2)"]))
        for command in ("check", "solve"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == message
            assert [str(w.message) for w in caught] == []

    def test_overflowing_initial_data_in_a_process(self, tmp_path):
        path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0},
                                            u0=["1e200*exp(-x1^2-x2^2)"]))
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: initial data reaches 1e+200, whose square overflows a double\n"

    @pytest.mark.parametrize("section", ["g", "kernel"])
    def test_nesting_beyond_the_limit_names_its_offset(self, tmp_path, capsys, section):
        depth = exprdsl.MAX_NESTING + 1
        text = "sin(" * depth + ("z1" if section == "g" else "x1") + ")" * depth
        doc = (dict(CERTIFIED, g=[text]) if section == "g" else
               dict(CERTIFIED, kernels=[{"type": "expression", "expr": text}]))
        code = main(["check", write_problem(tmp_path, doc)])
        assert code == 2
        # the parenthesis that opens level MAX_NESTING + 1
        assert capsys.readouterr().err == (
            f"error: parentheses nested deeper than {exprdsl.MAX_NESTING} levels "
            f"(byte offset {4 * depth - 1})\n")

    @pytest.mark.parametrize("section", ["g", "kernel"])
    def test_nesting_at_the_limit_evaluates(self, tmp_path, capsys, section):
        # the gradient of g, the Laplacian of a 3-D kernel and the sampled C1
        # bound all walk trees as deep as the nesting; none reaches Python's
        # recursion limit
        depth = exprdsl.MAX_NESTING
        doc = dict(SOLVE_3D, grid={"d": 3, "n": 8, "L": 8.0})
        if section == "g":
            doc["g"] = ["sin(-(" * (depth // 2) + "z1*z2" + ")^2)" * (depth // 2), "z1^2"]
        else:
            nest = "sin(-(" * (depth // 2) + "0.1*x1" + ")^2)" * (depth // 2)
            doc["kernels"] = [{"type": "expression",
                               "expr": f"0.002*exp(-x1^2-x2^2-x3^2)*{nest}"},
                              SOLVE_3D["kernels"][1]]
        code = main(["check", write_problem(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        assert json.loads(captured.out)["constants"]["M"] > 0.0

    @pytest.mark.parametrize("section, head, head_depth, term", [
        ("g", "z1^2", 2, "+0*z1"),
        ("u0", "0.1*exp(-x1^2-x2^2)", 6, "+0*x1"),
    ])
    def test_flat_chain_beyond_the_depth_limit_names_its_offset(
            self, tmp_path, capsys, section, head, head_depth, term):
        # no parenthesis: each term deepens the tree of the sum by one level
        text = head + term * 3000
        code = main(["check", write_problem(tmp_path, dict(CERTIFIED, **{section: [text]}))])
        assert code == 2
        # the operator that builds level MAX_DEPTH + 1
        offset = len(head) + (exprdsl.MAX_DEPTH - head_depth) * len(term)
        assert capsys.readouterr().err == (
            f"error: expression tree deeper than {exprdsl.MAX_DEPTH} levels "
            f"(byte offset {offset})\n")

    def test_division_chain_at_the_depth_limit_evaluates(self, tmp_path, capsys):
        # a chain of divisions makes the deepest Laplacian, ~6 times the
        # kernel's depth, and the evaluator numbers it recursively
        head = "0.002*exp(-x1^2-x2^2-x3^2)"  # 7 levels
        text = head + "/(1+x1^2)" * (exprdsl.MAX_DEPTH - 7)
        doc = dict(SOLVE_3D, grid={"d": 3, "n": 8, "L": 8.0})
        doc["kernels"] = [{"type": "expression", "expr": text}, SOLVE_3D["kernels"][1]]
        code = main(["check", write_problem(tmp_path, doc)])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        with pytest.raises(ExpressionSyntaxError, match="deeper than"):
            exprdsl.parse(text + "/(1+x1^2)", 3, "x")

    def test_non_ascii_digit_is_an_input_error(self, tmp_path, capsys):
        code = main(["check", write_problem(tmp_path, dict(CERTIFIED, g=["\u0663*z1"]))])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: unexpected character '\u0663' (byte offset 0)\n")

    def test_exponent_beyond_the_limit_names_its_offset(self, tmp_path, capsys):
        text = f"z1^2+z1^{exprdsl.MAX_EXPONENT + 1}"
        code = main(["check", write_problem(tmp_path, dict(CERTIFIED, g=[text]))])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: exponent {exprdsl.MAX_EXPONENT + 1} is above "
            f"{exprdsl.MAX_EXPONENT} (byte offset 8)\n")

    @staticmethod
    def nested_sum(levels):
        """A sum of 10^levels z1, grouped ten to a parenthesis at each level."""
        text = "z1"
        for _ in range(levels):
            text = "(" + "+".join([text] * 10) + ")"
        return text

    def test_expression_beyond_the_node_cap_is_an_input_error(self, tmp_path):
        # a sum of 100 000 z1 is 322 kB and 50 levels deep; it took 2.8 s in
        # check at 0.7.0, and is refused at the node that passes MAX_NODES
        assert exprdsl.MAX_NODES == 10_000
        text = "1e-6*sin(" + self.nested_sum(5) + ")^2"
        assert 320_000 < len(text) < 330_000
        with pytest.raises(ExpressionSyntaxError, match="more than 10000 nodes") as err:
            exprdsl.parse(text, 1)
        assert text[err.value.offset:err.value.offset + 2] == "z1"
        exprdsl.parse("1e-6*sin(" + self.nested_sum(3) + ")^2", 1)
        path = write_problem(tmp_path, dict(CERTIFIED, g=[text]))
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error: expression of more than 10000 nodes "
                               f"(byte offset {err.value.offset})\n")

    def test_overflowing_enclosure_of_a_non_polynomial_g_is_input_error(self, tmp_path, capsys):
        # the exponent is 0 at every point, but z1 - z1 encloses to [-w, w]
        # on each box of width w = 0.015, and e^(1e5 w) overflows; 0.7.0
        # sampled M here and certified the problem
        path = write_problem(tmp_path, dict(CERTIFIED, g=["z1^2*exp(1e5*(z1-z1))"]))
        code = main(["check", path])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: an enclosure on the state ball overflows a double\n"

    def test_polynomial_expansion_past_the_budget_is_enclosed(self, tmp_path, capsys):
        # k = 99 and 100 were the two sides of the expansion budget that
        # 0.8.0 removed; every power is enclosed, and none is an input error
        for k, provenance in ((70, "rigorous-bound"), (99, "rigorous-bound"),
                              (100, "rigorous-bound"), (300, "rigorous-bound")):
            path = write_problem(tmp_path, dict(CERTIFIED, g=[f"(z1+0.5*z1^2)^{k}"]))
            code = main(["check", path])
            captured = capsys.readouterr()
            assert code in (0, 1), (k, captured.err)
            assert json.loads(captured.out)["constants"]["provenance"]["M"] == provenance, k

    def test_polynomial_cap_leaves_spatial_expressions_alone(self, tmp_path, capsys):
        # only g is enclosed, so a power over x goes to the sampling of u0;
        # the depth, nesting and node caps still hold for x (tests above),
        # and the same text over z parses too
        text = "1e-7*(1+x1+x2)^20*exp(-x1^2-x2^2)"
        path = write_problem(tmp_path, dict(CERTIFIED, u0=[text]))
        code = main(["check", path])
        captured = capsys.readouterr()
        assert code in (0, 1), captured.err
        over_z = text.replace("x1", "z1").replace("x2", "z2")
        assert isinstance(exprdsl.parse(over_z, 2), exprdsl.Mul)

    def test_overflowing_literal_in_a_process(self, tmp_path):
        path = write_problem(tmp_path, dict(CERTIFIED, g=["z1^2*exp(1000)"]))
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: exp(1000.0) overflows a double\n"
        assert "Traceback" not in proc.stderr

    # u0 of amplitude 8 gives a state ball of radius ~11.8, on which the
    # enclosure of z1^1100 exceeds the largest double
    OVERFLOWING_BOUND = dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0},
                             u0=["8*exp(-x1^2-x2^2)"], g=["z1^2+0.001*z1^1100"])

    def test_overflowing_bound_is_input_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, self.OVERFLOWING_BOUND)
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: an enclosure on the state ball")
            assert captured.err.endswith("overflows a double\n")
            assert captured.err.count("\n") == 1

    def test_overflowing_bound_in_a_process(self, tmp_path):
        path = write_problem(tmp_path, self.OVERFLOWING_BOUND)
        proc = run_python("-m", "quadint.cli", "check", path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_grid_beyond_physical_memory_is_input_error(self, tmp_path, capsys, monkeypatch):
        # 3-D n = 2048 is 8.6e9 points, ~69 GB per component field; the
        # refusal comes from (d, n, N) alone, before any field is sampled
        from quadint import model
        monkeypatch.setattr(model, "physical_memory_bytes", lambda: 64 * 10 ** 9)
        doc = dict(SOLVE_3D, grid={"d": 3, "n": 2048, "L": 8.0})
        path = write_problem(tmp_path, doc)
        for command in ("check", "solve"):
            code = main([command, path])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err.startswith("error: grid d=3, n=2048 with 2 component(s) ")
            assert captured.err.endswith("more than the 64 GB of physical memory\n")
            assert captured.err.count("\n") == 1

    def test_memory_error_is_input_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_problem", exhausted)
        code = main(["check", write_problem(tmp_path, CERTIFIED)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: input exceeds interpreter limits: MemoryError\n"


class TestProblemInputs:
    """After load every input has one representation: an expression kernel
    is its tree, a tabulated kernel its array, an operator a
    RationalMultiplier."""

    @pytest.mark.parametrize("d, n", [(2, 32), (3, 64)])
    def test_loaded_multipliers_are_the_closed_forms(self, d, n):
        p, q = (1.0, -0.5, 0.25), (2.0, 0.0, 1.0, 0.5)
        problem = cli.problem_from_dict(dict(
            CERTIFIED, grid={"d": d, "n": n, "L": 8.0}, components=3,
            kernels=CERTIFIED["kernels"] * 3, u0=CERTIFIED["u0"] * 3,
            g=["z1^2", "z2^2", "z3^2"],
            operators=[{"type": "inverse_helmholtz"},
                       {"type": "scaled_identity", "alpha": 0.7},
                       {"type": "rational_multiplier", "p": list(p), "q": list(q)}]))
        grid = Grid(d, n, 8.0)
        s = grid.xi_squared
        helmholtz, identity, rational = (model.multiplier_values(op, grid)
                                         for op in problem.operators)
        assert helmholtz.tobytes() == (1.0 / (1.0 + s)).tobytes()
        assert identity.tobytes() == np.full(grid.spectral_shape, 0.7).tobytes()
        polyval = np.polynomial.polynomial.polyval
        assert rational.tobytes() == (polyval(s, p) / polyval(s, q)).tobytes()

    def test_kernel_texts_are_parsed_once_and_equal_trees_sampled_once(self, monkeypatch):
        text, spaced = "0.005*exp(-x1^2-x2^2)", " 0.005 * exp( -x1^2 - x2^2 )"
        doc = dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0}, components=3,
                   kernels=[{"type": "expression", "expr": t} for t in (text, spaced, text)],
                   u0=CERTIFIED["u0"] * 3, g=["z1^2", "z2^2", "z3^2"],
                   operators=CERTIFIED["operators"] * 3)
        parsed, sampled = [], []
        parse, sample = cli.parse_expr, model.sample_kernel
        monkeypatch.setattr(cli, "parse_expr", lambda t, *a: parsed.append(t) or parse(t, *a))
        monkeypatch.setattr(model, "sample_kernel",
                            lambda k, grid: sampled.append(k) or sample(k, grid))
        problem = cli.problem_from_dict(doc)
        assert [t for t in parsed if t in (text, spaced)] == [text, spaced]
        assert problem.kernels[0] is problem.kernels[2]
        model.materialize(problem)
        assert sampled == [problem.kernels[0]]

    @pytest.mark.parametrize("p, q", [([], [1.0]), ([1.0], [])])
    def test_empty_coefficient_list_is_input_error(self, tmp_path, capsys, p, q):
        operator = {"type": "rational_multiplier", "p": p, "q": q}
        path = write_problem(tmp_path, dict(CERTIFIED, operators=[operator]))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: operator 1: p and q need a coefficient each\n"

    @pytest.mark.parametrize("operator, key", [
        ({"type": "rational_multiplier", "p": "12", "q": [1.0]}, "p"),
        ({"type": "rational_multiplier", "p": [1.0, float("nan")], "q": [1.0]}, "p"),
        ({"type": "rational_multiplier", "p": [1.0], "q": [1.0, float("inf")]}, "q"),
        ({"type": "rational_multiplier", "p": [1.0], "q": [10 ** 400]}, "q"),
        ({"type": "rational_multiplier", "p": [True], "q": [1.0]}, "p"),
        ({"type": "rational_multiplier", "q": [1.0]}, "p"),
        ({"type": "scaled_identity", "alpha": float("nan")}, "alpha"),
        ({"type": "scaled_identity", "alpha": float("-inf")}, "alpha"),
        ({"type": "scaled_identity", "alpha": "0.5"}, "alpha"),
        ({"type": "scaled_identity"}, "alpha"),
    ])
    def test_coefficients_must_be_finite_numbers(self, tmp_path, capsys, operator, key):
        path = write_problem(tmp_path, dict(CERTIFIED, operators=[operator]))
        assert main(["check", path]) == 2
        kind = "a finite number" if key == "alpha" else "a list of finite numbers"
        assert capsys.readouterr().err == f"error: operator 1: {key!r} must be {kind}\n"

    @pytest.mark.parametrize("grid, key", [
        ({"d": 2, "n": 16.9, "L": 8.0}, "n"),
        ({"d": 2, "n": 16.0, "L": 8.0}, "n"),
        ({"d": 2, "n": "16", "L": 8.0}, "n"),
        ({"d": 2.7, "n": 16, "L": 8.0}, "d"),
        ({"d": True, "n": 16, "L": 8.0}, "d"),
    ])
    def test_grid_sizes_must_be_integers(self, tmp_path, capsys, grid, key):
        path = write_problem(tmp_path, dict(CERTIFIED, grid=grid))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == f"error: grid {key!r} must be an integer\n"

    @pytest.mark.parametrize("components", [True, 1.0, "1"])
    def test_components_must_be_an_integer(self, tmp_path, capsys, components):
        path = write_problem(tmp_path, dict(CERTIFIED, components=components))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: 'components' must be an integer\n"

    @pytest.mark.parametrize("change, name", [
        ({"grid": {"d": 2, "n": 16, "L": True}}, "grid 'L'"),
        ({"grid": {"d": 2, "n": 16, "L": "8"}}, "grid 'L'"),
        ({"grid": {"d": 2, "n": 16, "L": float("nan")}}, "grid 'L'"),
        ({"rho": "0.5"}, "'rho'"),
        ({"rho": float("inf")}, "'rho'"),
        ({"rho": None}, "'rho'"),
        ({"kernels": [{"type": "gaussian", "alpha": "1"}]}, "kernel 1: 'alpha'"),
        ({"kernels": [{"type": "gaussian", "alpha": float("nan")}]}, "kernel 1: 'alpha'"),
        ({"constants": {"c_e": "0.3"}}, "constants 'c_e'"),
        ({"constants": {"c_a": True}}, "constants 'c_a'"),
        ({"constants": {"c_a": 10 ** 400}}, "constants 'c_a'"),
    ])
    def test_scalars_must_be_finite_numbers(self, tmp_path, capsys, change, name):
        path = write_problem(tmp_path, dict(CERTIFIED, **change))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == f"error: {name} must be a finite number\n"

    @pytest.mark.parametrize("change, message", [
        ({"Rho": 0.5}, "problem file: unknown key 'Rho'"),
        ({"constants": {"C_E": 0.3}}, "constants: unknown key 'C_E'"),
        ({"constants": {"c_e": 0.4, "c_a\n": 2.0}}, "constants: unknown key 'c_a\\n'"),
        ({"constants": "c_e"}, "constants must be an object"),
        ({"constants": None}, "constants must be an object"),
        ({"grid": {"d": 2, "n": 16, "L": 8.0, "l": 8.0}}, "grid: unknown key 'l'"),
        ({"grid": [2, 16, 8.0]}, "grid must be an object"),
        ({"kernels": [{"type": "gaussian", "alpha": 1.0, "expr": "1"}]},
         "kernel 1: unknown key 'expr'"),
        ({"kernels": [{"type": "expression", "expr": "exp(-x1^2)", "alpha": 1.0}]},
         "kernel 1: unknown key 'alpha'"),
        ({"kernels": [{"type": "tabulated", "value": [[1.0] * 64] * 64}]},
         "kernel 1: unknown key 'value'"),
        ({"operators": [{"type": "inverse_helmholtz", "alpha": 1.0}]},
         "operator 1: unknown key 'alpha'"),
        ({"operators": [{"type": "scaled_identity", "alpha": 0.5, "p": [1.0]}]},
         "operator 1: unknown key 'p'"),
        ({"operators": [{"type": "rational_multiplier", "p": [1.0], "q": [1.0], "r": [1.0]}]},
         "operator 1: unknown key 'r'"),
        ({"u0": [{"type": "tabulated", "values": [[0.1] * 64] * 64, "Values": []}]},
         "u0 entry 1: unknown key 'Values'"),
    ])
    def test_unknown_keys_are_input_errors(self, tmp_path, capsys, change, message):
        # 0.9.0 ignored every one of these keys, and read "c_e" as a string
        path = write_problem(tmp_path, dict(CERTIFIED, **change))
        assert main(["check", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("section", ["kernels", "u0"])
    def test_tabulated_integer_beyond_the_doubles_is_input_error(self, tmp_path, capsys,
                                                                 section):
        # found by TestMutatedProblems: 0.9.0 ended in an OverflowError traceback
        entry = {"type": "tabulated", "values": [[10 ** 400]]}
        path = write_problem(tmp_path, dict(CERTIFIED, **{section: [entry]}))
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == (
            "error: invalid problem file: int too large to convert to float\n")

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = write_problem(tmp_path, [CERTIFIED])
        assert main(["check", path]) == 2
        assert capsys.readouterr().err == "error: problem file must be an object\n"

    def test_every_listed_key_loads(self):
        tabulated = {"type": "tabulated", "values": [[0.0] * 16] * 16}
        problem = cli.problem_from_dict(dict(
            CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0}, components=3, g=["z1", "z2", "z3"],
            kernels=[{"type": "gaussian", "alpha": 1.0}, tabulated,
                     {"type": "expression", "expr": "exp(-x1^2)"}],
            operators=[{"type": "inverse_helmholtz"}, {"type": "scaled_identity", "alpha": 0.5},
                       {"type": "rational_multiplier", "p": [1.0], "q": [1.0]}],
            u0=["0.1", tabulated, "0.2"], rho=0.5, constants={"c_e": 0.4, "c_a": 2.5}))
        assert (problem.rho, problem.c_e_override, problem.c_a_override) == (0.5, 0.4, 2.5)

    def test_kernel_syntax_error_is_refused_at_load(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(model, "materialize", lambda *a, **k: calls.append(a))
        kernel = {"type": "expression", "expr": "exp(-x1^2"}
        path = write_problem(tmp_path, dict(CERTIFIED, kernels=[kernel]))
        for command in ("check", "solve", "oracle"):
            assert main([command, path]) == 2
            assert capsys.readouterr().err == "error: expected ')' (byte offset 9)\n"
        assert calls == []


# valid problems at n <= 16 for the mutations below: the canonical problem
# with every optional key, and one with each other kernel, operator and u0
# form, whose tabulated rows are few enough to be mutated one by one
MUTABLE_PROBLEMS = (
    dict(POLE_OUTSIDE, g=["z1^2"], rho=0.8, constants={"c_e": 0.36, "c_a": 2.1}),
    {
        "grid": {"d": 2, "n": 4, "L": 2.0},
        "components": 2,
        "kernels": [{"type": "gaussian", "alpha": 1.0},
                    {"type": "tabulated",
                     "values": [[0.01, 0.02, 0.01, 0.0] for _ in range(4)]}],
        "operators": [{"type": "scaled_identity", "alpha": 0.5},
                      {"type": "rational_multiplier", "p": [1.0], "q": [1.0, 1.0]}],
        "u0": ["0.1*exp(-x1^2-x2^2)",
               {"type": "tabulated", "values": [[0.0, 0.05, 0.0, 0.05] for _ in range(4)]}],
        "g": ["z1*z2", "z1^2"],
    },
)

ODD_VALUES = st.sampled_from(["", "1", True, False, None, [], [1.0], float("nan"), 10 ** 400])

# g components over z1, z2: every node kind, and literals that reach the
# domain faults and overflows of the enclosures and of the evaluator
G_TREES = st.recursive(
    st.builds(Var, st.just("z"), st.integers(1, 2))
    | st.builds(Num, st.sampled_from((0.0, 0.5, -2.0, 1e-9, 1e200))),
    lambda tree: st.one_of(
        st.builds(Neg, tree),
        st.builds(Pow, tree, st.integers(0, 12)),
        st.builds(Call, st.sampled_from(FUNCTIONS), tree),
        *(st.builds(node, tree, tree) for node in (Add, Sub, Mul, Div))),
    max_leaves=8)


def _containers(doc):
    """doc and every dict or list nested in it."""
    yield doc
    for value in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(value, (dict, list)):
            yield from _containers(value)


@st.composite
def mutated_problems(draw):
    """A valid problem with one change: a key or entry dropped, an unknown
    key added, a value swapped for a string, bool, null, list, NaN or
    10**400, or a generated g."""
    doc = copy.deepcopy(draw(st.sampled_from(MUTABLE_PROBLEMS)))
    kind = draw(st.sampled_from(("drop", "add", "swap", "g")))
    if kind == "g":
        size = len(doc["g"])
        doc["g"] = [support.to_string(tree)
                    for tree in draw(st.lists(G_TREES, min_size=size, max_size=size))]
        return doc
    containers = [c for c in _containers(doc) if c or kind == "add"]
    if kind == "add":
        container = draw(st.sampled_from([c for c in containers if isinstance(c, dict)]))
        container[draw(st.text(max_size=6))] = draw(ODD_VALUES)
        return doc
    container = draw(st.sampled_from(containers))
    key = draw(st.sampled_from(list(container) if isinstance(container, dict)
                               else range(len(container))))
    if kind == "drop":
        del container[key]
    else:
        container[key] = draw(ODD_VALUES)
    return doc


class TestMutatedProblems:
    """Any problem file ends in a documented exit code: 0 or 1 with a
    report that holds the verdict, or 2 with one line on stderr; never a
    traceback or a warning."""

    @staticmethod
    def mutated_file(tmp_path_factory, doc) -> str:
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def assert_exit_contract(argv):
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(record=True) as caught,
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            warnings.simplefilter("always")
            code = main(argv)
        err = err.getvalue()
        assert caught == []
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err and "Warning" not in err
        if code == 2:
            assert out.getvalue() == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        if code in (0, 1):
            assert isinstance(json.loads(out.getvalue())["certified"], bool)

    @settings(max_examples=400, deadline=None)
    @given(doc=mutated_problems())
    def test_check_keeps_the_exit_contract(self, tmp_path_factory, doc):
        self.assert_exit_contract(["check", self.mutated_file(tmp_path_factory, doc)])

    @settings(max_examples=100, deadline=None)
    @given(doc=mutated_problems())
    def test_solve_and_continuity_keep_the_exit_contract(self, tmp_path_factory, doc):
        # continuity compares the file's g with itself, read again by --g2
        path = self.mutated_file(tmp_path_factory, doc)
        self.assert_exit_contract(["solve", path])
        self.assert_exit_contract(["continuity", path, "--g2", path])


def test_only_the_oracle_subcommand_imports_oracle(tmp_path):
    path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0}))
    code = (
        "import sys\n"
        "import quadint.cli\n"
        "for argv in (['check'], ['solve'], ['continuity', '--g2', sys.argv[1]], ['oracle']):\n"
        "    rc = quadint.cli.main([*argv, sys.argv[1], '--out', sys.argv[2]])\n"
        "    print(rc, 'quadint.oracle' in sys.modules, 'numpy.random' in sys.modules)\n"
    )
    proc = run_python("-c", code, path, str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    # only the oracle draws random points, so only it loads numpy.random
    assert proc.stdout.split() == ["0", "False", "False"] * 3 + ["0", "True", "True"]


# the classes that stay dataclasses: ProblemSpec, MaterializedProblem and
# ConstantsReport are copied with dataclasses.replace, and Grid keeps its
# cached properties in an instance __dict__; every other value class is a
# record (quadint/records.py)
KEPT_DATACLASSES = {"ConstantsReport", "Grid", "MaterializedProblem", "ProblemSpec"}


def traced_modules() -> set[str]:
    """The quadint modules whose functions perfbench/tracer.py wraps, among
    those that exist: it wraps only modules already imported."""
    tracer = Path(SRC).parent / "perfbench" / "tracer.py"
    [targets] = [node.value for node in ast.parse(tracer.read_text()).body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "TARGETS"]
    return {module for _, module, _ in ast.literal_eval(targets)
            if (Path(SRC) / (module.replace(".", "/") + ".py")).exists()}


def test_cold_import_loads_what_the_tracer_wraps_and_builds_few_dataclasses():
    code = (
        "import dataclasses, json, sys\n"
        "built = []\n"
        "real = dataclasses.dataclass\n"
        "def counting(cls=None, /, **kwargs):\n"
        "    def build(c):\n"
        "        built.append(c.__qualname__)\n"
        "        return real(c, **kwargs)\n"
        "    return build if cls is None else build(cls)\n"
        "dataclasses.dataclass = counting\n"
        "import quadint.cli\n"
        "print(json.dumps({'built': built, 'modules': sorted(sys.modules)}))\n"
    )
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    modules = set(doc["modules"])
    wrapped = traced_modules()
    assert wrapped == {f"quadint.{name}" for name in
                       ("cli", "model", "analysis", "exprdsl", "solver", "spectral")}
    assert wrapped <= modules
    assert "quadint.oracle" not in modules and "quadint.affine" not in modules
    # at most the four kept classes, each once; no expression node
    assert set(doc["built"]) <= KEPT_DATACLASSES
    assert len(doc["built"]) == len(set(doc["built"]))


def test_only_continuity_loads_the_affine_walk(tmp_path):
    path = write_problem(tmp_path, dict(CERTIFIED, grid={"d": 2, "n": 16, "L": 8.0}))
    code = (
        "import sys\n"
        "import quadint.cli\n"
        "for argv in (['check'], ['solve'], ['continuity', '--g2', sys.argv[1]]):\n"
        "    rc = quadint.cli.main([*argv, sys.argv[1], '--out', sys.argv[2]])\n"
        "    print(rc, 'quadint.affine' in sys.modules)\n"
    )
    proc = run_python("-c", code, path, str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "0", "False", "0", "True"]


def test_non_polynomial_solve_loads_no_scipy(tmp_path):
    path = write_problem(tmp_path, TANH)
    out = tmp_path / "report.json"
    code = (
        "import sys\n"
        "import quadint.cli\n"
        "rc = quadint.cli.main(['solve', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "print(rc, len(loaded), *sorted(loaded)[:5])\n"
    )
    proc = run_python("-c", code, path, str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
    doc = json.loads(out.read_text())
    assert doc["constants"]["provenance"]["M"] == "rigorous-bound"
    assert doc["solve"]["converged"] is True
