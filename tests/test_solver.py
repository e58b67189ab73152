import dataclasses

import numpy as np
import pytest

import quadint.spectral as sp
from quadint import solver
from quadint.analysis import constants_report
from quadint.errors import (BallEscapeError, ConfigurationError,
                            NonConvergenceError)
from quadint.exprdsl import NonlinearitySpec, evaluate_many, parse
from quadint.model import ProblemSpec, materialize, multiplier_values, sample_kernel
from quadint.oracle import direct_convolution
from quadint.solver import (IterationTrace, a_posteriori_bound, apply_map_tg,
                            continuity_experiment, picard_solve,
                            residual_original_system)
from quadint.spectral import Grid

import support
from conftest import h2, sup_norm
from support import INVERSE_HELMHOLTZ, scaled_identity


def zero(mat):
    return np.zeros((mat.n,) + mat.grid.shape)


def small_problem(g_texts=("z1^2",), kernel="0.005*exp(-x1^2-x2^2)", n=16):
    grid = Grid(2, n, 8.0)
    n_comp = len(g_texts)
    return ProblemSpec(
        grid=grid,
        kernels=tuple(parse(kernel, 2, "x") for _ in range(n_comp)),
        operators=tuple(INVERSE_HELMHOLTZ for _ in range(n_comp)),
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
        # materialize keeps an all-zero kernel for validation to report
        mat = materialize(dataclasses.replace(
            small_problem(), kernels=(np.zeros((16, 16)),)))
        out = apply_map_tg(mat, zero(mat))
        assert np.all(out == 0.0)

    def test_matches_direct_quadrature_composition(self):
        # same map with the convolution replaced by the literal Riemann sum
        mat = materialize(small_problem(n=16))
        grid = mat.grid
        v = support.random_vector_in_ball(grid, 1, 0.5, np.random.default_rng(5))
        fast = apply_map_tg(mat, v)

        w = (mat.u0 + v)[0]
        K, _ = sample_kernel(mat.spec.kernels[0], grid)
        conv = direct_convolution(grid, K, w ** 2)
        # T w from the full complex spectrum, independent of the rfft layout
        xi = np.pi * np.fft.fftfreq(grid.n) * grid.n / grid.L
        s = xi[:, None] ** 2 + xi[None, :] ** 2
        prefactor = np.fft.ifftn(np.fft.fftn(w) / (1.0 + s)).real
        reference = prefactor * conv

        rel = sp.l2_norm(grid, fast[0] - reference) / sp.l2_norm(grid, reference)
        assert rel <= 1e-9
        # a known spectrum of v gives the same map
        assert np.array_equal(apply_map_tg(mat, v, sp.forward_transform(grid, v)), fast)

    @pytest.mark.parametrize("g_texts, g", [
        (("z1*z2", "z1"), lambda u: [u[0] * u[1], u[0]]),
        (("z2", "z1"), lambda u: [u[1], u[0]]),
        (("z2", "z1*z2"), lambda u: [u[1], u[0] * u[1]]),
    ])
    def test_bare_variable_components(self, g_texts, g):
        # g(u0 + v) is written over u0 + v; a component that is a bare
        # variable must still read u0 + v, not an earlier component of g
        mat = materialize(small_problem(g_texts, n=16))
        grid = mat.grid
        v = support.random_vector_in_ball(grid, 2, 0.5, np.random.default_rng(3))
        v_spectrum = sp.forward_transform(grid, v)
        integrand = np.stack(g(mat.u0 + v))
        reference = sp.convolve(grid, mat.kernel_spectra, integrand)
        multipliers = np.stack([multiplier_values(op, grid) for op in mat.spec.operators])
        reference *= support.apply_multiplier(grid, multipliers, mat.u0_spectrum + v_spectrum)
        assert np.array_equal(apply_map_tg(mat, v), reference)
        assert np.array_equal(apply_map_tg(mat, v, v_spectrum), reference)
        # the spending map forms u0 + v, g(u0 + v) and its result in v's
        # buffer and leaves v^ as it is
        spent, kept = v.copy(), v_spectrum.copy()
        w = apply_map_tg(mat, spent, v_spectrum, overwrite_input=True)
        assert w is spent
        assert np.array_equal(w, reference)
        assert np.array_equal(v_spectrum, kept)
        u = mat.u0 + v
        expected = sp.h2_norm(grid, sp.forward_transform(grid, (u - mat.u0) - reference))
        assert residual_original_system(mat, u) == pytest.approx(expected, rel=1e-12)

    def test_each_distinct_multiplier_evaluated_once(self, monkeypatch):
        # one evaluation per distinct operator per application, and the same
        # map as with each component's own multiplier
        ops = (INVERSE_HELMHOLTZ, scaled_identity(0.5), INVERSE_HELMHOLTZ, scaled_identity(0.5))
        mat = materialize(dataclasses.replace(
            small_problem(("z1*z2", "z2*z3", "z3*z4", "z4*z1")), operators=ops))
        grid = mat.grid
        v = support.random_vector_in_ball(grid, 4, 0.5, np.random.default_rng(7))
        v_spectrum = sp.forward_transform(grid, v)
        reference = sp.convolve(grid, mat.kernel_spectra, np.stack(
            evaluate_many(mat.g.components, list(mat.u0 + v))))
        multipliers = np.stack([multiplier_values(op, grid) for op in ops])
        reference *= support.apply_multiplier(grid, multipliers, mat.u0_spectrum + v_spectrum)
        calls = []
        monkeypatch.setattr(solver, "multiplier_values",
                            lambda op, g: calls.append(op) or multiplier_values(op, g))
        assert np.array_equal(apply_map_tg(mat, v, v_spectrum), reference)
        assert calls == [INVERSE_HELMHOLTZ, scaled_identity(0.5)]

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
        assert report.certificate.passed
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
        assert residual_original_system(mat, mat.u0 + sol.u_p) <= 10 * tol

    def test_nonconvergence_carries_first_delta(self, certified):
        mat, report = certified
        with pytest.raises(NonConvergenceError) as err:
            picard_solve(mat, report, tol=1e-30, max_iter=1)
        assert err.value.iterations == 1
        assert err.value.last_delta > 0

    @pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, certified, tol):
        mat, report = certified
        with pytest.raises(ConfigurationError, match="finite and positive"):
            picard_solve(mat, report, tol=tol)

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
        assert not report.certificate.passed
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

        def poisoned(mat, v, v_spectrum=None, *, overwrite_input=False):
            return np.full_like(v, np.nan)

        monkeypatch.setattr(solver, "apply_map_tg", poisoned)
        with pytest.raises(ConfigurationError, match="non-finite"):
            picard_solve(mat, report)
        with pytest.raises(ConfigurationError, match="non-finite"):
            picard_solve(mat, report, best_effort=True, max_iter=1)

    @pytest.mark.parametrize("with_start", [False, True])
    def test_returns_the_newest_iterate(self, two_component, with_start):
        # the solution is w = t_g(v) of the last step, bit for bit, and its
        # residual is |w - v|; a start array is the caller's and stays as it is
        mat, report = two_component
        start = support.random_vector_in_ball(mat.grid, mat.n, report.rho,
                                               np.random.default_rng(6))
        before = start.copy()
        sol, trace = picard_solve(mat, report, tol=1e-10,
                                  start=start if with_start else None)
        assert np.array_equal(start, before)
        previous = before if with_start else zero(mat)
        for _ in range(sol.iterations - 1):
            previous = apply_map_tg(mat, previous)
        assert np.array_equal(sol.u_p, apply_map_tg(mat, previous))
        assert np.array_equal(sol.u_p_spectrum, sp.forward_transform(mat.grid, sol.u_p))
        assert sol.residual == trace.deltas[-1] == sp.h2_norm(
            mat.grid, sol.u_p_spectrum, sp.forward_transform(mat.grid, previous))

    def test_each_step_spends_its_iterate(self, two_component, monkeypatch):
        # w is formed in v's buffer, so no step holds v and w side by side
        mat, report = two_component
        real, spent = solver.apply_map_tg, []

        def recording(mat, v, *args, **kwargs):
            w = real(mat, v, *args, **kwargs)
            spent.append(w is v)
            return w

        monkeypatch.setattr(solver, "apply_map_tg", recording)
        sol, _ = picard_solve(mat, report, tol=1e-10)
        assert spent == [True] * sol.iterations

    def test_start_outside_ball_rejected(self, certified):
        mat, report = certified
        start = np.ones((1,) + mat.grid.shape)
        assert h2(mat.grid, start) > report.rho
        with pytest.raises(ConfigurationError, match="outside"):
            picard_solve(mat, report, start=start)

    def test_ball_escape_guard_fires_on_unsound_radius(self, certified):
        # an unsound M, 1e-9 of the true bound, certifies a radius of 1e-9,
        # which the very first iterate overshoots
        mat, report = certified
        fake = dataclasses.replace(report, M=report.M * 1e-9, rho=1e-9)
        assert fake.certificate.passed
        with pytest.raises(BallEscapeError, match="iterate 1 left"):
            picard_solve(mat, fake)

    def test_uniqueness_from_random_starts(self, two_component):
        mat, report = two_component
        tol = 1e-11
        baseline, _ = picard_solve(mat, report, tol=tol)
        rng = np.random.default_rng(3)
        for _ in range(3):
            start = support.random_vector_in_ball(mat.grid, mat.n,
                                                   report.rho, rng)
            sol, _ = picard_solve(mat, report, tol=tol, start=start)
            assert h2(mat.grid, sol.u_p - baseline.u_p) <= 10 * tol


class TestTransformBudget:
    def test_one_step_is_four_batched_real_transforms(self, two_component, fft_calls):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)
        assert sol.iterations >= 2
        # from the centre: forward g(u0 + v), inverse K^ g^, inverse T(u0 + v),
        # forward of the new iterate.  Each inverse is an in-place ifftn over
        # the leading grid axes followed by the real pass over the last axis;
        # every call carries both components, except the real pass of
        # T(u0 + v), which runs one component at a time
        per_step = 5 + mat.n
        assert len(fft_calls) == per_step * sol.iterations
        assert [name for name, _, _ in fft_calls[:per_step]] == \
            ["rfftn", "ifftn", "irfft", "ifftn"] + ["irfft"] * mat.n + ["rfftn"]
        transforms = [call for call in fft_calls if call[0] != "irfft"]
        assert len(transforms) == 4 * sol.iterations
        assert all(shape[0] == mat.n for _, shape, _ in transforms)
        assert {shape for name, shape, _ in fft_calls if name == "irfft"} == \
            {(mat.n,) + mat.grid.spectral_shape, mat.grid.spectral_shape}
        assert {axes for name, _, axes in fft_calls if name == "ifftn"} == {(-2,)}
        assert {axes for name, _, axes in fft_calls if name == "irfft"} == {(-1,)}

    def test_residual_is_four_real_transforms(self, two_component, fft_calls):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)
        u_spectrum = mat.u0_spectrum + sol.u_p_spectrum
        del fft_calls[:]
        known = residual_original_system(mat, mat.u0 + sol.u_p, u_spectrum)
        # the real pass of the prefactor runs once per component
        assert sorted(name for name, _, _ in fft_calls) == \
            ["ifftn", "ifftn"] + ["irfft"] * (1 + mat.n) + ["rfftn", "rfftn"]
        assert all(-1 not in axes for name, _, axes in fft_calls if name == "ifftn")
        # without the spectrum, u costs one more transform and the residual
        # is the same up to rounding of fields of size |u0|
        assert residual_original_system(mat, mat.u0 + sol.u_p) == pytest.approx(
            known, rel=0, abs=1e-13 * mat.u0_norm)
        assert len(fft_calls) == 2 * (5 + mat.n) + 1


class TestCachedSpectraUnchanged:
    """The inverse transform overwrites the spectrum it is given, so no
    cached spectrum may reach it."""

    def test_solver_paths_leave_cached_spectra_intact(self, two_component):
        mat, report = two_component
        cached = {name: getattr(mat, name).copy()
                  for name in ("kernel_spectra", "u0_spectrum", "u0")}
        sol, _ = picard_solve(mat, report, tol=1e-10)
        u_p_spectrum = sol.u_p_spectrum.copy()
        start = support.random_vector_in_ball(mat.grid, mat.n, report.rho,
                                               np.random.default_rng(4))
        picard_solve(mat, report, tol=1e-10, start=start)
        residual_original_system(mat, mat.u0 + sol.u_p, mat.u0_spectrum + sol.u_p_spectrum)
        residual_original_system(mat, mat.u0 + sol.u_p)
        residual_original_system(mat, mat.u0 + sol.u_p,
                                 mat.u0_spectrum + sol.u_p_spectrum, overwrite_input=True)
        residual_original_system(mat, mat.u0 + sol.u_p, overwrite_input=True)
        residual_original_system(mat, mat.u0)
        apply_map_tg(mat, sol.u_p, sol.u_p_spectrum)
        apply_map_tg(mat, sol.u_p.copy(), sol.u_p_spectrum, overwrite_input=True)
        apply_map_tg(mat, sol.u_p.copy(), overwrite_input=True)
        continuity_experiment(mat, report, support.scaled(mat.g, 1.001), tol=1e-10)
        for name, before in cached.items():
            assert np.array_equal(getattr(mat, name), before), name
        assert np.array_equal(sol.u_p_spectrum, u_p_spectrum)


class TestAssembleAndResidual:
    def test_triangle_inequality(self, certified):
        mat, report = certified
        sol, _ = picard_solve(mat, report)
        assert h2(mat.grid, mat.u0 + sol.u_p) <= mat.u0_norm + report.rho

    def test_nontrivial_solution(self, certified):
        mat, report = certified
        sol, _ = picard_solve(mat, report)
        assert sup_norm(mat.u0 + sol.u_p[0]) > 0.0

    def test_residual_zero_for_zero_nonlinearity(self):
        mat = materialize(dataclasses.replace(
            small_problem(), g=NonlinearitySpec.from_strings(["0*z1"])))
        assert residual_original_system(mat, mat.u0) == 0.0

    def test_residual_positive_at_initial_data(self, certified):
        mat, _ = certified
        assert residual_original_system(mat, mat.u0) > 0.0

    def test_residual_leaves_its_arguments_unchanged(self, two_component):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)
        u = mat.u0 + sol.u_p
        u_spectrum = mat.u0_spectrum + sol.u_p_spectrum
        for args in ((u,), (u, u_spectrum), (mat.u0,), (mat.u0, mat.u0_spectrum)):
            before = [a.copy() for a in args]
            residual_original_system(mat, *args)
            for a, b in zip(args, before):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("with_spectrum", [False, True])
    def test_overwriting_residual_is_bit_identical(self, two_component, with_spectrum):
        mat, report = two_component
        sol, _ = picard_solve(mat, report, tol=1e-10)

        def inputs():
            u = mat.u0 + sol.u_p
            return (u, mat.u0_spectrum + sol.u_p_spectrum) if with_spectrum else (u,)

        kept = residual_original_system(mat, *inputs())
        args = inputs()
        spent = residual_original_system(mat, *args, overwrite_input=True)
        assert spent == kept
        # the map spends u; v^ = u^ - u0^ is formed in the caller's u^
        assert not np.array_equal(args[0], mat.u0 + sol.u_p)
        if with_spectrum:
            assert np.array_equal(args[1], (mat.u0_spectrum + sol.u_p_spectrum) - mat.u0_spectrum)

    def test_residual_consistent_with_perturbative_route(self, certified):
        mat, report = certified
        tol = 1e-10
        sol, _ = picard_solve(mat, report, tol=tol)
        assert residual_original_system(mat, mat.u0 + sol.u_p) <= 10 * tol


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
        start = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
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
            v = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            img = h2(mat.grid, apply_map_tg(mat, v))
            assert img <= report.rho
            assert img <= cap * (1 + 1e-12)

    def test_contraction(self, certified, rng):
        mat, report = certified
        for _ in range(20):
            v1 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            v2 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            lhs = h2(mat.grid, apply_map_tg(mat, v1) - apply_map_tg(mat, v2))
            assert lhs <= report.sigma * h2(mat.grid, v1 - v2) + 1e-9

    def test_contraction_3d(self, certified_3d, rng):
        mat, report = certified_3d
        for _ in range(10):
            v1 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            v2 = support.random_vector_in_ball(mat.grid, mat.n, report.rho, rng)
            lhs = h2(mat.grid, apply_map_tg(mat, v1) - apply_map_tg(mat, v2))
            assert lhs <= report.sigma * h2(mat.grid, v1 - v2) + 1e-9


class TestTrace:
    def test_csv_format(self, certified):
        mat, report = certified
        _, trace = picard_solve(mat, report)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "k,norm,delta,ratio,apost_bound,step_bound"
        assert len(lines) == len(trace.ks) + 1
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == pytest.approx(trace.norms[0])
        assert first[3] == "nan"
        # 17 significant digits survive a round trip
        assert float(first[2]) == trace.deltas[0]

    def test_step_bound_uses_each_step(self, certified):
        # step_bound is sigma/(1 - sigma) delta_k; apost_bound, from delta_1
        # alone, is the larger from step 2 on
        mat, report = certified
        _, trace = picard_solve(mat, report)
        rows = [line.split(",") for line in trace.to_csv().strip().split("\n")[1:]]
        sigma = report.sigma
        for row, delta in zip(rows, trace.deltas):
            assert float(row[5]) == sigma / (1.0 - sigma) * delta
        assert float(rows[0][4]) == float(rows[0][5])
        assert all(float(r[5]) < float(r[4]) for r in rows[1:])

    def test_error_bound_is_the_last_step_bound(self, certified):
        mat, report = certified
        _, trace = picard_solve(mat, report)
        last = trace.to_csv().strip().split("\n")[-1].split(",")
        assert trace.error_bound == float(last[5])
        for sigma in (None, 1.0):
            trace = IterationTrace(sigma=sigma)
            trace.record(1, 1.0, 0.5)
            assert trace.error_bound is None

    def test_no_step_bound_without_contraction(self):
        for sigma in (None, 1.0, 2.5):
            trace = IterationTrace(sigma=sigma)
            trace.record(1, 1.0, 0.5)
            assert trace.to_csv().split("\n")[1].split(",")[4:] == ["nan", "nan"]


class TestContinuity:
    def test_identical_nonlinearities(self, certified):
        mat, report = certified
        out = continuity_experiment(mat, report, mat.g, tol=1e-11)
        assert out.measured_distance <= 2e-11
        assert out.passed

    def test_small_perturbation_within_bound(self, certified):
        mat, report = certified
        out = continuity_experiment(mat, report, support.scaled(mat.g, 1.001), tol=1e-12)
        assert out.passed
        assert out.measured_distance <= out.bound
        assert out.M_joint >= report.M

    @pytest.mark.parametrize("excess, passed", [(-0.5, True), (0.5, False)])
    def test_margin_is_the_two_error_bounds(self, certified, monkeypatch, excess, passed):
        # mutation pair: each solution lies within its trace's error_bound
        # e_i of its fixed point, so the experiment passes a distance of
        # bound + (1 + excess)(e1 + e2) only when excess <= 0.  Before 0.15.0
        # the margin was 2 tol, which passed both sides here
        mat, report = certified
        g2, tol = support.scaled(mat.g, 1.001), 1e-12
        traces = []
        real = solver.picard_solve

        def recording(*args, **kwargs):
            solution, trace = real(*args, **kwargs)
            traces.append(trace)
            return solution, trace

        monkeypatch.setattr(solver, "picard_solve", recording)
        measured = continuity_experiment(mat, report, g2, tol=tol).measured_distance
        margin = traces[0].error_bound + traces[1].error_bound
        assert 0.0 < 1.5 * margin < 2.0 * tol
        bound = measured - (1.0 + excess) * margin
        monkeypatch.setattr(type(report), "continuity_bound", lambda self, dist: bound)
        out = continuity_experiment(mat, report, g2, tol=tol)
        assert (out.measured_distance, out.bound) == (measured, bound)
        assert out.passed is passed

    def test_uncertifiable_joint_bound_rejected(self, certified):
        mat, report = certified
        # scaling by rho / lhs takes the joint lhs to rho, twice the
        # condition's rho / 2, whatever the constants are
        factor = report.rho / report.certificate.lhs
        with pytest.raises(ConfigurationError, match="joint"):
            continuity_experiment(mat, report, support.scaled(mat.g, factor), tol=1e-10)
