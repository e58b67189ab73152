import dataclasses

import numpy as np
import pytest

import quadint.spectral as sp
from quadint import sampling, solver
from quadint.analysis import constants_report
from quadint.errors import (BallEscapeError, ConfigurationError,
                            NonConvergenceError)
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import (ExpressionKernel, InverseHelmholtz, ProblemSpec,
                           TabulatedKernel, materialize)
from quadint.oracle import direct_convolution
from quadint.solver import (IterationTrace, a_posteriori_bound, apply_map_tg,
                            assemble_solution, continuity_experiment,
                            picard_solve, residual_original_system)
from quadint.spectral import Grid

from conftest import h2


def zero(mat):
    return np.zeros((mat.n,) + mat.grid.shape)


def small_problem(g_texts=("z1^2",), kernel="0.005*exp(-x1^2-x2^2)", n=16):
    grid = Grid(2, n, 8.0)
    n_comp = len(g_texts)
    return ProblemSpec(
        grid=grid,
        kernels=tuple(ExpressionKernel(kernel) for _ in range(n_comp)),
        operators=tuple(InverseHelmholtz() for _ in range(n_comp)),
        g=NonlinearitySpec.from_strings(list(g_texts)),
        u0=tuple(parse("0.1*exp(-x1^2-x2^2)", 2, "x") for _ in range(n_comp)),
    )


class TestApplyMap:
    def test_zero_nonlinearity_gives_zero(self):
        mat = materialize(dataclasses.replace(
            small_problem(), g=NonlinearitySpec.from_strings(["0*z1"])))
        out = apply_map_tg(mat, zero(mat))
        assert np.all(out == 0.0)

    def test_zero_kernel_gives_zero(self):
        # diagnostic mode: materialize non-strictly with an all-zero kernel
        mat = materialize(dataclasses.replace(
            small_problem(), kernels=(TabulatedKernel(np.zeros((16, 16))),)),
            strict=False)
        out = apply_map_tg(mat, zero(mat))
        assert np.all(out == 0.0)

    def test_matches_direct_quadrature_composition(self):
        # same map with the convolution replaced by the literal Riemann sum
        mat = materialize(small_problem(n=16))
        grid = mat.grid
        v = sampling.random_vector_in_ball(grid, 1, 0.5, np.random.default_rng(5))
        fast = apply_map_tg(mat, v)

        w = (mat.u0 + v)[0]
        conv = direct_convolution(grid, mat.kernels[0].values, w ** 2)
        # T w from the full complex spectrum, independent of the rfft layout
        xi = np.pi * np.fft.fftfreq(grid.n) * grid.n / grid.L
        s = xi[:, None] ** 2 + xi[None, :] ** 2
        prefactor = np.fft.ifftn(np.fft.fftn(w) / (1.0 + s)).real
        reference = prefactor * conv

        rel = sp.l2_norm(grid, fast[0] - reference) / sp.l2_norm(grid, reference)
        assert rel <= 1e-9
        # a known spectrum of v gives the same map
        assert np.array_equal(apply_map_tg(mat, v, sp.forward_transform(grid, v)), fast)

    def test_grid_mismatch_rejected(self, certified):
        mat, _ = certified
        with pytest.raises(ConfigurationError):
            apply_map_tg(mat, np.zeros((1, 16, 16)))
        with pytest.raises(ConfigurationError):
            apply_map_tg(mat, np.zeros((2,) + mat.grid.shape))


class TestPicard:
    def test_certified_problem_converges(self, certified):
        mat, report = certified
        sol, trace = picard_solve(mat, report)
        assert sol.certified
        assert sol.residual <= solver.default_tolerance(mat.u0_norm)
        assert h2(mat.grid, sol.u_p) <= report.rho
        assert np.array_equal(sol.u_p_spectrum, sp.forward_transform(mat.grid, sol.u_p))
        for ratio in trace.ratios[1:]:
            assert ratio <= report.sigma + 1e-9
        # deltas non-increasing once contraction kicks in
        for a, b in zip(trace.deltas, trace.deltas[1:]):
            assert b <= a + 1e-12

    def test_two_component_system(self, two_component):
        mat, report = two_component
        tol = 1e-10
        sol, _ = picard_solve(mat, report, tol=tol)
        assert residual_original_system(mat, sol.u) <= 10 * tol

    def test_nonconvergence_carries_first_delta(self, certified):
        mat, report = certified
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(mat, report, tol=1e-30, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.last_delta > 0

    def test_uncertified_requires_best_effort(self):
        mat = materialize(small_problem(kernel="5.0*exp(-x1^2-x2^2)"))
        report = constants_report(mat)
        assert not report.certificate.passed
        with pytest.raises(ConfigurationError, match="best_effort"):
            picard_solve(mat, report)

    def test_best_effort_can_converge_without_certificate(self):
        # moderately above the certifiable amplitude: iteration still contracts
        mat = materialize(small_problem(kernel="0.05*exp(-x1^2-x2^2)"))
        report = constants_report(mat)
        assert not report.certificate.passed
        sol, _ = picard_solve(mat, report, best_effort=True)
        assert not sol.certified
        assert sol.residual <= solver.default_tolerance(mat.u0_norm)

    def test_best_effort_divergence_is_reported(self):
        mat = materialize(small_problem(kernel="40.0*exp(-x1^2-x2^2)"))
        report = constants_report(mat)
        with pytest.raises(NonConvergenceError):
            picard_solve(mat, report, best_effort=True, max_iter=60)

    def test_nonfinite_iterate_is_an_input_error(self, certified, monkeypatch):
        # a NaN norm compares false with the ball and escape bounds, so the
        # iteration checks for non-finite samples itself
        mat, report = certified

        def poisoned(mat, v, v_spectrum=None):
            return np.full_like(v, np.nan)

        monkeypatch.setattr(solver, "apply_map_tg", poisoned)
        with pytest.raises(ConfigurationError, match="non-finite"):
            picard_solve(mat, report)
        with pytest.raises(ConfigurationError, match="non-finite"):
            picard_solve(mat, report, best_effort=True, max_iter=1)

    def test_start_outside_ball_rejected(self, certified):
        mat, report = certified
        start = np.ones((1,) + mat.grid.shape)
        assert h2(mat.grid, start) > report.rho
        with pytest.raises(ConfigurationError, match="outside"):
            picard_solve(mat, report, start=start)

    def test_ball_escape_guard_fires_on_unsound_radius(self, certified):
        # simulate an unsound certificate by shrinking rho below the reach
        # of the very first iterate
        mat, report = certified
        fake_cert = dataclasses.replace(report.certificate, rho=1e-9)
        fake = dataclasses.replace(report, rho=1e-9, certificate=fake_cert)
        with pytest.raises(BallEscapeError):
            picard_solve(mat, fake)

    def test_uniqueness_from_random_starts(self, two_component):
        mat, report = two_component
        tol = 1e-11
        baseline, _ = picard_solve(mat, report, tol=tol)
        rng = np.random.default_rng(3)
        for _ in range(3):
            start = sampling.random_vector_in_ball(mat.grid, mat.n,
                                                   report.rho, rng)
            sol, _ = picard_solve(mat, report, tol=tol, start=start)
            assert h2(mat.grid, sol.u_p - baseline.u_p) <= 10 * tol


class TestTransformBudget:
    def test_one_step_is_four_batched_real_transforms(self, two_component, fft_calls):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)
        assert sol.iterations >= 2
        # from the centre: forward g(u0 + v), inverse K^ g^, inverse T(u0 + v),
        # forward of the new iterate; each call carries both components
        assert len(fft_calls) == 4 * sol.iterations
        assert [name for name, _ in fft_calls[:4]] == ["rfftn", "irfftn", "irfftn", "rfftn"]
        assert all(shape[0] == mat.n for _, shape in fft_calls)

    def test_residual_is_four_real_transforms(self, two_component, fft_calls):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)
        u_spectrum = mat.u0_spectrum + sol.u_p_spectrum
        del fft_calls[:]
        known = residual_original_system(mat, sol.u, u_spectrum)
        assert sorted(name for name, _ in fft_calls) == ["irfftn", "irfftn", "rfftn", "rfftn"]
        # without the spectrum, u costs one more transform and the residual
        # is the same up to rounding of fields of size |u0|
        assert residual_original_system(mat, sol.u) == pytest.approx(
            known, rel=0, abs=1e-13 * mat.u0_norm)
        assert len(fft_calls) == 4 + 5


class TestAssembleAndResidual:
    def test_assemble_trivial_cases(self, certified):
        mat, _ = certified
        assert np.all(assemble_solution(mat.u0, zero(mat)) == mat.u0)
        assert np.all(assemble_solution(zero(mat), mat.u0) == mat.u0)

    def test_triangle_inequality(self, certified):
        mat, report = certified
        sol, _ = picard_solve(mat, report)
        assert h2(mat.grid, sol.u) <= mat.u0_norm + report.rho

    def test_nontrivial_solution(self, certified):
        mat, report = certified
        sol, _ = picard_solve(mat, report)
        assert sp.sup_norm(sol.u[0]) > 0.0

    def test_residual_zero_for_zero_nonlinearity(self):
        mat = materialize(dataclasses.replace(
            small_problem(), g=NonlinearitySpec.from_strings(["0*z1"])))
        assert residual_original_system(mat, mat.u0) == 0.0

    def test_residual_positive_at_initial_data(self, certified):
        mat, _ = certified
        assert residual_original_system(mat, mat.u0) > 0.0

    def test_residual_consistent_with_perturbative_route(self, certified):
        mat, report = certified
        tol = 1e-10
        sol, _ = picard_solve(mat, report, tol=tol)
        assert residual_original_system(mat, sol.u) <= 10 * tol


class TestAPosteriori:
    def test_geometric_series(self):
        trace = IterationTrace(sigma=0.5)
        trace.record(1, 1.0, 1.0)
        trace.record(2, 1.0, 0.5)
        trace.record(3, 1.0, 0.25)
        assert trace.bounds == pytest.approx([1.0, 0.5, 0.25])
        assert a_posteriori_bound(0.5, 3, 1.0) == trace.bounds[-1]

    def test_sigma_at_least_one_rejected(self):
        with pytest.raises(ConfigurationError):
            a_posteriori_bound(1.0, 1, 1.0)
        # a trace without a contraction factor records no bound
        trace = IterationTrace(sigma=None)
        trace.record(1, 1.0, 1.0)
        assert np.isnan(trace.bounds[0])

    def test_bound_dominates_true_error(self, certified):
        # oversolve and compare each iterate against a much later one
        mat, report = certified
        rng = np.random.default_rng(8)
        start = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
        iterates = [start]
        v = start
        for _ in range(12):
            v = apply_map_tg(mat, v)
            iterates.append(v)
        reference = v
        for _ in range(20):
            reference = apply_map_tg(mat, reference)
        d1 = h2(mat.grid, iterates[1] - iterates[0])
        for k in range(1, len(iterates)):
            bound = a_posteriori_bound(report.sigma, k, d1)
            true_err = h2(mat.grid, iterates[k] - reference)
            assert true_err <= bound + 1e-12


class TestMapProperties:
    def test_self_map_and_growth(self, certified, rng):
        mat, report = certified
        cap = report.c_a * report.M * (report.u0_norm + 1) ** 2 * report.Q
        for _ in range(20):
            v = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            img = h2(mat.grid, apply_map_tg(mat, v))
            assert img <= report.rho
            assert img <= cap * (1 + 1e-12)

    def test_contraction(self, certified, rng):
        mat, report = certified
        for _ in range(20):
            v1 = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            v2 = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            lhs = h2(mat.grid, apply_map_tg(mat, v1) - apply_map_tg(mat, v2))
            assert lhs <= report.sigma * h2(mat.grid, v1 - v2) + 1e-9

    def test_contraction_3d(self, certified_3d, rng):
        mat, report = certified_3d
        for _ in range(10):
            v1 = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            v2 = sampling.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            lhs = h2(mat.grid, apply_map_tg(mat, v1) - apply_map_tg(mat, v2))
            assert lhs <= report.sigma * h2(mat.grid, v1 - v2) + 1e-9


class TestTrace:
    def test_csv_format(self, certified, tmp_path):
        mat, report = certified
        _, trace = picard_solve(mat, report)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "k,norm,delta,ratio,apost_bound"
        assert len(lines) == len(trace.ks) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(trace.norms[0])
        assert first[3] == "nan"
        # 17 significant digits survive a round trip
        assert float(first[2]) == trace.deltas[0]


class TestContinuity:
    def test_identical_nonlinearities(self, certified):
        mat, report = certified
        out = continuity_experiment(mat, report, mat.g, tol=1e-11)
        assert out.measured_distance <= 2e-11
        assert out.passed

    def test_small_perturbation_within_bound(self, certified):
        mat, report = certified
        out = continuity_experiment(mat, report, mat.g.scaled(1.001), tol=1e-12)
        assert out.passed
        assert out.measured_distance <= out.bound
        assert out.M_joint >= report.M

    def test_uncertifiable_joint_bound_rejected(self, certified):
        mat, report = certified
        # scaling by 3 pushes the joint C1 bound past the condition
        with pytest.raises(ConfigurationError, match="joint"):
            continuity_experiment(mat, report, mat.g.scaled(3.0), tol=1e-10)
