"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines; every tolerance is fixed here, nothing is calibrated at runtime."""

import dataclasses
import json
import time

import numpy as np

import quadint.spectral as sp
from quadint import solver
from quadint.cli import main
from quadint.exprdsl import NonlinearitySpec
from quadint.model import materialize, validate_assumptions
from quadint.oracle import direct_convolution, finite_diff_gradient
from quadint.solver import apply_map_tg, picard_solve, residual_original_system
from quadint.spectral import Grid

import support
from conftest import h2, make_certified_problem
from test_exprdsl import random_expr


def report_line(num: int, name: str, passed: bool) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {num:02d} {name}: {status}", flush=True)


def gaussian(grid, alpha=1.0, center=None):
    center = center or (0.0,) * grid.d
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coords, center))
    return np.array(np.broadcast_to(np.exp(-alpha * r2), grid.shape))


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for grid in (Grid(2, 16, 8.0), Grid(3, 8, 8.0)):
        K = gaussian(grid)
        shift = (1.0,) + (0.5,) * (grid.d - 1)
        f = gaussian(grid, alpha=0.5, center=shift)
        fast = sp.convolve(grid, sp.kernel_spectrum(grid, K), f)
        direct = direct_convolution(grid, K, f)
        worst = max(worst, sp.l2_norm(grid, fast - direct) / sp.l2_norm(grid, direct))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    report_line(1, "oracle-equivalence", ok)
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_02_contraction(certified):
    mat, report = certified
    # the canonical problem must satisfy the condition with a factor-2 margin
    assert report.rho / 2.0 >= 2.0 * report.certificate.lhs
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(100):
        v1 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
        v2 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
        lhs = h2(mat.grid, apply_map_tg(mat, v1) - apply_map_tg(mat, v2))
        if lhs > report.sigma * h2(mat.grid, v1 - v2) + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report_line(2, "contraction-factor", ok)
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_03_self_map(certified):
    mat, report = certified
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(100):
        v = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
        if h2(mat.grid, apply_map_tg(mat, v)) > report.rho:
            violations += 1
    report_line(3, "self-map", violations == 0)
    assert violations == 0


def test_criterion_04_fixed_point_and_uniqueness(certified):
    mat, report = certified
    assert report.sigma <= 0.6
    sol, _ = picard_solve(mat, report, tol=1e-10, max_iter=60)
    converged = sol.residual <= 1e-10 and sol.iterations <= 60

    rng = np.random.default_rng(404)
    max_spread = 0.0
    for _ in range(10):
        start = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
        restarted, _ = picard_solve(mat, report, tol=1e-10, max_iter=60,
                                    start=start)
        max_spread = max(max_spread, h2(mat.grid, restarted.u_p - sol.u_p))
    unique = max_spread <= 1e-9
    report_line(4, "fixed-point-uniqueness", converged and unique)
    assert converged
    assert unique


def test_criterion_05_geometric_rate(certified):
    mat, report = certified
    rng = np.random.default_rng(505)
    start = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)

    iterates = [start]
    v = start
    for _ in range(14):
        v = apply_map_tg(mat, v)
        iterates.append(v)
    reference = v
    for _ in range(20):
        reference = apply_map_tg(mat, reference)

    deltas = [h2(mat.grid, iterates[k] - iterates[k - 1])
              for k in range(1, len(iterates))]
    ratios_ok = all(deltas[k] <= report.sigma * deltas[k - 1] + 1e-9
                    for k in range(1, len(deltas)))
    d1 = deltas[0]
    bounds_ok = True
    for k in range(1, len(iterates)):
        bound = report.sigma ** k / (1.0 - report.sigma) * d1
        true_err = h2(mat.grid, iterates[k] - reference)
        bounds_ok &= true_err <= bound

    # the solver's own trace must show the same rate discipline
    sol, trace = picard_solve(mat, report)
    trace_ok = all(r <= report.sigma + 1e-9 for r in trace.ratios[1:])

    ok = ratios_ok and bounds_ok and trace_ok
    report_line(5, "geometric-rate-and-aposteriori", ok)
    assert ratios_ok
    assert bounds_ok
    assert trace_ok


def test_criterion_06_continuity_bound(certified):
    mat, report = certified
    measured_per_eps = []
    all_within = True
    for eps in (1e-1, 1e-2, 1e-3):
        out = solver.continuity_experiment(mat, report, support.scaled(mat.g, 1.0 + eps),
                                           tol=1e-12)
        all_within &= out.measured_distance <= out.bound
        measured_per_eps.append(out.measured_distance / eps)
    linear = max(measured_per_eps) / min(measured_per_eps) <= 1.2
    report_line(6, "continuity-bound", all_within and linear)
    assert all_within
    assert linear


def test_criterion_07_constant_soundness(certified):
    mat, report = certified
    grid = Grid(2, 32, 8.0)
    emb_viol, _ = support.falsify_embedding(grid, 10_000, seed=700)
    alg_viol, _ = support.falsify_algebra(grid, 10_000, seed=701)

    # mean-value and Lipschitz bounds with the computed M on the state ball
    pts = support.ball_points(mat.n, report.r_state, 10_000, seed=702)
    g_vals = np.abs(support.evaluate_arrays(mat.g.components[0], [pts[:, 0]]))
    mean_value_ok = bool(np.all(g_vals <= report.M * np.abs(pts[:, 0]) * (1 + 1e-12)))
    a = support.ball_points(mat.n, report.r_state, 10_000, seed=703)[:, 0]
    b = support.ball_points(mat.n, report.r_state, 10_000, seed=704)[:, 0]
    lips = np.abs(a ** 2 - b ** 2) <= report.M * np.abs(a - b) * (1 + 1e-12)
    lipschitz_ok = bool(np.all(lips))

    ok = emb_viol == 0 and alg_viol == 0 and mean_value_ok and lipschitz_ok
    report_line(7, "constant-soundness", ok)
    assert emb_viol == 0
    assert alg_viol == 0
    assert mean_value_ok
    assert lipschitz_ok


def test_criterion_08_gradient_correctness():
    rng = np.random.default_rng(808)
    checked = 0
    worst = 0.0
    while checked < 100:
        arity = int(rng.integers(1, 4))
        comps = [random_expr(rng, arity) for _ in range(arity)]
        g = NonlinearitySpec.from_exprs(comps)
        z = rng.uniform(-1, 1, arity)
        try:
            sym = g.gradient_at(z)
            fd = finite_diff_gradient(g, z)
        except Exception:
            continue
        rel = np.max(np.abs(sym - fd)) / max(1.0, np.max(np.abs(sym)))
        worst = max(worst, rel)
        checked += 1
    ok = worst <= 1e-6
    report_line(8, "gradient-correctness", ok)
    assert worst <= 1e-6


def test_criterion_09_trivial_cases(certified):
    # zero-valued nonlinearity components reproduce the initial data exactly
    spec = dataclasses.replace(make_certified_problem(n=32),
                               g=NonlinearitySpec.from_strings(["0*z1"]))
    mat0 = materialize(spec)
    u_p = apply_map_tg(mat0, np.zeros((1,) + mat0.grid.shape))
    exact_zero = bool(np.all(u_p == 0.0))
    residual = residual_original_system(mat0, mat0.u0)

    # trivial kernel and trivial initial data are rejected at validation
    from quadint.exprdsl import parse
    base = make_certified_problem(n=16)

    def violations(problem):
        return validate_assumptions(materialize(problem), 1.0).violations

    kernel_rejected = "kernel 1 vanishes identically" in violations(
        dataclasses.replace(base, kernels=(np.zeros((16, 16)),)))
    u0_rejected = "initial data vanishes identically in every component" in violations(
        dataclasses.replace(base, u0=(parse("0", 2, "x"),)))

    ok = exact_zero and residual == 0.0 and kernel_rejected and u0_rejected
    report_line(9, "trivial-cases", ok)
    assert exact_zero
    assert residual == 0.0
    assert kernel_rejected
    assert u0_rejected


def test_criterion_10_determinism(tmp_path):
    problem = {
        "grid": {"d": 2, "n": 32, "L": 8.0},
        "components": 1,
        "kernels": [{"type": "expression", "expr": "0.005*exp(-x1^2-x2^2)"}],
        "operators": [{"type": "inverse_helmholtz"}],
        "u0": ["0.1*exp(-x1^2-x2^2)"],
        "g": ["sin(z1)"],  # not a polynomial: M is an interval enclosure
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))

    outputs = []
    for tag in ("a", "b"):
        check_out = tmp_path / f"check_{tag}.json"
        solve_out = tmp_path / f"solve_{tag}.json"
        trace_out = tmp_path / f"trace_{tag}.csv"
        assert main(["check", str(path), "--seed", "3",
                     "--out", str(check_out)]) == 0
        assert main(["solve", str(path), "--seed", "3", "--out", str(solve_out),
                     "--trace", str(trace_out)]) == 0
        outputs.append((check_out.read_bytes(), solve_out.read_bytes(),
                        trace_out.read_bytes()))
    identical = outputs[0] == outputs[1]
    report_line(10, "determinism", identical)
    assert identical
