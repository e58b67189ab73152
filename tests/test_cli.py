import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadint import cli
from quadint.cli import main

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


# two coupled tanh components: M takes the sampled route
TANH = {
    "grid": {"d": 2, "n": 16, "L": 8.0},
    "components": 2,
    "kernels": [{"type": "expression", "expr": "0.0002*exp(-x1^2-x2^2)"}] * 2,
    "operators": [{"type": "inverse_helmholtz"}] * 2,
    "u0": ["0.03*exp(-x1^2-x2^2)", "0.02*exp(-x1^2-x2^2)"],
    "g": ["tanh(z1*z2)", "tanh(z2*z1)"],
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

    def test_odd_grid_is_input_error(self, tmp_path, capsys):
        doc_in = dict(CERTIFIED, grid={"d": 2, "n": 63, "L": 8.0})
        code, _ = run(capsys, "check", write_problem(tmp_path, doc_in))
        assert code == 2

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _ = run(capsys, "check", str(path))
        assert code == 2

    def test_missing_file_is_input_error(self, capsys):
        code, _ = run(capsys, "check", "/nonexistent/problem.json")
        assert code == 2

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


class TestSolve:
    def test_certified_solve(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        trace_path = tmp_path / "trace.csv"
        code, doc = run(capsys, "solve", path, "--trace", str(trace_path))
        assert code == 0
        assert doc["solve"]["converged"] is True
        assert doc["solve"]["residual"] <= 1e-10
        lines = trace_path.read_text().strip().split("\n")
        assert lines[0] == "k,norm,delta,ratio,apost_bound"
        sigma = doc["constants"]["sigma"]
        for line in lines[2:]:
            ratio = float(line.split(",")[3])
            assert ratio <= sigma + 1e-9

    def test_solve_runs_only_batched_real_transforms(self, tmp_path, capsys, fft_calls):
        # kernels and u0 at load, four per step, four for the residual; the
        # report's norms reuse known spectra, and nothing is a complex fftn
        code, doc = run(capsys, "solve", str(PROBLEMS / "two_component.json"))
        assert code == 0
        assert {name for name, _ in fft_calls} == {"rfftn", "irfftn"}
        assert len(fft_calls) == 2 + 4 * doc["solve"]["iterations"] + 4
        assert {shape for _, shape in fft_calls} == {(2, 32, 32), (2, 32, 17)}

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

    def test_missing_g2_is_usage_error(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        assert main(["continuity", path]) == 2

    def test_g2_component_mismatch(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        g2 = write_problem(tmp_path, {"g": ["z1^2", "z2^2"]}, "g2.json")
        code, _ = run(capsys, "continuity", path, "--g2", g2)
        assert code == 2

    def test_each_point_set_is_drawn_once(self, tmp_path, capsys, ball_point_calls):
        # the report's M, M_2 and |g1 - g2|_C1 share one interior and one
        # sphere set
        path = write_problem(tmp_path, TANH)
        g2 = write_problem(tmp_path, {"g": ["1.01*tanh(z1*z2)", "tanh(z2*z1)"]},
                           "g2.json")
        code, doc = run(capsys, "continuity", path, "--g2", g2, "--seed", "3")
        assert code == 0
        assert doc["constants"]["provenance"]["M"] == "sampled-estimate"
        assert doc["continuity"]["c1_provenance"] == "sampled-estimate"
        assert len(ball_point_calls) == 2


class TestOracle:
    def test_default_size_passes(self, tmp_path, capsys):
        path = write_problem(tmp_path, CERTIFIED)
        code, doc = run(capsys, "oracle", path, "--size", "16")
        assert code == 0
        assert doc["oracle"]["all_passed"] is True

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
            self, tmp_path, capsys, ball_point_calls):
        # on the sampled route the report's M uses its two quasi-random sets;
        # the dense reference is one pseudo-random set for all N + N^2 sups
        path = write_problem(tmp_path, TANH)
        code, doc = run(capsys, "oracle", path, "--size", "16", "--seed", "2")
        assert code == 0
        assert len(ball_point_calls) == 2
        sup_check = doc["oracle"]["checks"][-1]
        assert sup_check["name"] == "c1_bound_dominates_dense_sup"
        assert sup_check["dense_reference"] < sup_check["M"]


class TestDeterminism:
    @pytest.mark.parametrize("doc_in", [
        CERTIFIED,
        dict(CERTIFIED, g=["sin(z1)"]),  # sampled-M path uses the seed
    ])
    def test_check_reports_are_byte_identical(self, tmp_path, capsys, doc_in):
        path = write_problem(tmp_path, doc_in)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["check", path, "--seed", "7", "--out", str(out1)]) == 0
        assert main(["check", path, "--seed", "7", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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

    def test_memory_error_is_input_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_problem", exhausted)
        code = main(["check", write_problem(tmp_path, CERTIFIED)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: input exceeds interpreter limits: MemoryError\n"


def test_sampled_solve_loads_no_scipy(tmp_path):
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
    assert doc["constants"]["provenance"]["M"] == "sampled-estimate"
    assert doc["solve"]["converged"] is True
