import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import quadint.spectral as sp
from quadint import model
from quadint.errors import AssumptionViolation, ConfigurationError, NumericOverflowError
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import (GaussianKernel, ProblemSpec, RationalMultiplier, materialize,
                           materialize_kernel, materialize_u0, sample_kernel,
                           validate_assumptions)
from quadint.spectral import Grid

import support
from conftest import cosine_x1, h2, make_certified_problem, make_two_component_problem
from support import INVERSE_HELMHOLTZ, scaled_identity


def apply_operator(op, grid, f):
    """The operator's multiplier applied to f in frequency space."""
    return support.apply_multiplier(grid, model.multiplier_values(op, grid),
                                    sp.forward_transform(grid, f))


def one_component(grid, u0, kernel=GaussianKernel(1.0), op=INVERSE_HELMHOLTZ):
    return ProblemSpec(grid=grid, kernels=(kernel,), operators=(op,),
                       g=NonlinearitySpec.from_strings(["z1^2"]), u0=(u0,))


class TestKernels:
    def test_gaussian_l1_is_pi(self):
        g = Grid(2, 64, 8.0)
        mk, K = materialize_kernel(GaussianKernel(1.0), g)
        assert sp.l1_norm(g, K) == pytest.approx(np.pi, abs=1e-6)
        assert mk.nontrivial is True

    def test_zero_tabulated_kernel_rejected(self):
        g = Grid(2, 16, 4.0)
        with pytest.raises(AssumptionViolation, match="vanishes"):
            materialize_kernel(np.zeros(g.shape), g)

    def test_expression_matches_builtin(self):
        g = Grid(2, 32, 8.0)
        K_a, dK_a = sample_kernel(GaussianKernel(1.0), g)
        K_b, dK_b = sample_kernel(parse("exp(-x1^2-x2^2)", 2, "x"), g)
        assert np.max(np.abs(K_a - K_b)) < 1e-14
        assert np.max(np.abs(dK_a - dK_b)) < 1e-12
        a, _ = materialize_kernel(GaussianKernel(1.0), g)
        b, _ = materialize_kernel(parse("exp(-x1^2-x2^2)", 2, "x"), g)
        assert a.w21 == pytest.approx(b.w21, rel=1e-13)

    def test_symbolic_delta_agrees_with_spectral(self):
        g = Grid(2, 64, 8.0)
        K, dK_symbolic = sample_kernel(GaussianKernel(1.0), g)
        _, dK_spectral = sample_kernel(K, g)
        assert np.array_equal(dK_spectral, sp.laplacian(g, K))
        diff = sp.l1_norm(g, dK_symbolic - dK_spectral)
        assert diff < 1e-6
        # the report's kernel norm is spectral.tilde_w21_norm of the pair
        symbolic, samples = materialize_kernel(GaussianKernel(1.0), g)
        assert np.array_equal(samples, K)
        assert symbolic.w21 == sp.tilde_w21_norm(g, K, dK_symbolic)

    def test_tabulated_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            materialize_kernel(np.ones((8, 8)), Grid(2, 16, 4.0))

    def test_nonfinite_tabulated_kernel_rejected(self):
        g = Grid(2, 16, 4.0)
        for bad in (np.nan, np.inf):
            vals = np.ones(g.shape)
            vals[0, 0] = bad
            with pytest.raises(ConfigurationError, match="non-finite"):
                materialize_kernel(vals, g)

    def test_gaussian_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GaussianKernel(0.0)

    def test_tail_fraction_recorded(self):
        g = Grid(2, 32, 2.0)  # box too small for a unit gaussian
        mk, _ = materialize_kernel(GaussianKernel(1.0), g)
        assert mk.tail_fraction > 1e-8

    @pytest.mark.parametrize("kernel", [parse("0.002*exp(-x1^2-x2^2-x3^2)", 3, "x"),
                                        GaussianKernel(2.0)])
    def test_gaussian_and_its_laplacian_take_one_exp(self, monkeypatch, kernel):
        # K and the three second derivatives of the Laplacian share exp(-a|x|^2);
        # a walk of the two trees calls exp 7 times
        calls = []
        real = np.exp

        def counting(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        K, dK = sample_kernel(kernel, Grid(3, 8, 8.0))
        assert calls == [(8, 8, 8)]
        assert K.shape == dK.shape == (8, 8, 8)


class TestOperators:
    def test_inverse_helmholtz_on_constant(self):
        g = Grid(2, 16, 4.0)
        out = apply_operator(INVERSE_HELMHOLTZ, g, np.full(g.shape, 3.0))
        assert np.max(np.abs(out - 3.0)) < 1e-12

    def test_inverse_helmholtz_on_cosine(self):
        g = Grid(2, 32, 4.0)
        for f in (cosine_x1(g), cosine_x1(g).T):
            out = apply_operator(INVERSE_HELMHOLTZ, g, f)
            expected = f / (1.0 + (np.pi / g.L) ** 2)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_scaled_identity_exact(self, rng):
        g = Grid(2, 16, 4.0)
        f = rng.standard_normal(g.shape)
        out = apply_operator(scaled_identity(2.5), g, f)
        assert np.max(np.abs(out - 2.5 * f)) < 1e-13

    def test_linearity(self, rng):
        g = Grid(2, 16, 4.0)
        op = INVERSE_HELMHOLTZ
        f1 = rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape)
        lhs = apply_operator(op, g, 2.0 * f1 + f2)
        rhs = 2.0 * apply_operator(op, g, f1) + apply_operator(op, g, f2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_h2_bound_by_operator_norm(self, rng):
        g = Grid(2, 16, 4.0)
        for op in (INVERSE_HELMHOLTZ, scaled_identity(0.7),
                   RationalMultiplier(p=(1.0, 1.0), q=(2.0, 0.0, 1.0))):
            norm = model.operator_norm(model.multiplier_values(op, g))
            for _ in range(20):
                f = rng.standard_normal(g.shape)
                assert h2(g, apply_operator(op, g, f)) <= norm * h2(g, f) * (1 + 1e-12)

    def test_operator_norms(self):
        g = Grid(2, 32, 4.0)
        for op, expected in ((INVERSE_HELMHOLTZ, 1.0), (scaled_identity(-2.5), 2.5),
                             (RationalMultiplier(p=(1.0,), q=(1.0, 0.0, 1.0)), 1.0)):
            assert model.operator_norm(model.multiplier_values(op, g)) == expected
        # materialize records the same norms
        mat = materialize(one_component(g, parse("exp(-x1^2-x2^2)", 2, "x"),
                                        op=scaled_identity(-2.5)))
        assert mat.operator_norms == (2.5,)

    def test_degree_zero_rational_multiplier(self, rng):
        g = Grid(2, 16, 4.0)
        op = RationalMultiplier(p=(3.0,), q=(2.0,))
        assert model.operator_norm(model.multiplier_values(op, g)) == pytest.approx(1.5)
        f = rng.standard_normal(g.shape)
        out = apply_operator(op, g, f)
        assert np.max(np.abs(out - 1.5 * f)) < 1e-13

    def test_zero_multiplier_rejected(self):
        g = Grid(2, 16, 4.0)
        problem = one_component(g, parse("exp(-x1^2-x2^2)", 2, "x"), op=scaled_identity(0.0))
        with pytest.raises(AssumptionViolation, match="multiplier vanishes"):
            materialize(problem)
        # diagnostic mode keeps the zero norm for validation to report
        mat = materialize(problem, strict=False)
        assert mat.operator_norms == (0.0,)
        assert any("operator 1 multiplier vanishes" in v
                   for v in validate_assumptions(mat).violations)

    def test_nonpositive_denominator_rejected(self):
        g = Grid(2, 16, 4.0)
        with pytest.raises(ConfigurationError):
            model.multiplier_values(RationalMultiplier(p=(1.0,), q=(1.0, -1.0)), g)


class TestVectorField:
    def test_requires_shared_grid(self, rng):
        # components are stacked on one grid; a tabulated component sampled
        # on another grid is refused at load
        problem = ProblemSpec(
            grid=Grid(2, 16, 4.0),
            kernels=(GaussianKernel(1.0),) * 2,
            operators=(INVERSE_HELMHOLTZ,) * 2,
            g=NonlinearitySpec.from_strings(["z1*z2", "z1^2"]),
            u0=(rng.standard_normal((16, 16)), rng.standard_normal((8, 8))),
        )
        with pytest.raises(ConfigurationError, match="shape"):
            materialize_u0(problem)

    def test_norm_and_arithmetic(self, rng):
        g = Grid(2, 16, 4.0)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        u = np.stack([a, b])
        assert h2(g, u) == pytest.approx(np.hypot(h2(g, a), h2(g, b)), rel=1e-12)
        v = u + u - u
        assert np.allclose(v[0], a)
        assert np.allclose((0.5 * u)[1], 0.5 * b)
        assert h2(g, 0.5 * u) == pytest.approx(0.5 * h2(g, u), rel=1e-12)


class TestInitialData:
    def test_gaussian_norm_matches_fourier_quadrature(self):
        # |exp(-|x|^2)|_H2 in d=2 from the closed-form transform pi*exp(-|xi|^2/4)
        problem = ProblemSpec(
            grid=Grid(2, 64, 8.0),
            kernels=(GaussianKernel(1.0),),
            operators=(INVERSE_HELMHOLTZ,),
            g=NonlinearitySpec.from_strings(["z1^2"]),
            u0=(parse("exp(-x1^2-x2^2)", 2, "x"),),
        )
        u0 = materialize_u0(problem)
        radial, _ = quad(lambda r: np.pi ** 2 * np.exp(-r * r / 2) * (1 + r ** 4) * r,
                         0, np.inf)
        expected = np.sqrt(radial / (2 * np.pi))
        assert h2(problem.grid, u0) == pytest.approx(expected, abs=1e-6)
        assert materialize(problem).u0_norm == pytest.approx(expected, abs=1e-6)

    def test_all_zero_rejected(self):
        problem = ProblemSpec(
            grid=Grid(2, 16, 4.0),
            kernels=(GaussianKernel(1.0), GaussianKernel(1.0)),
            operators=(INVERSE_HELMHOLTZ, INVERSE_HELMHOLTZ),
            g=NonlinearitySpec.from_strings(["z1*z2", "z1^2"]),
            u0=(parse("0", 2, "x"), parse("0", 2, "x")),
        )
        with pytest.raises(AssumptionViolation, match="initial data"):
            materialize_u0(problem)

    def test_tabulated_component(self):
        g = Grid(2, 16, 4.0)
        vals = np.ones(g.shape)
        problem = ProblemSpec(
            grid=g,
            kernels=(GaussianKernel(1.0),),
            operators=(INVERSE_HELMHOLTZ,),
            g=NonlinearitySpec.from_strings(["z1^2"]),
            u0=(vals,),
        )
        u0 = materialize_u0(problem)
        assert u0.shape == (1,) + g.shape
        assert np.all(u0[0] == 1.0)

    def test_nonfinite_tabulated_rejected(self):
        g = Grid(2, 16, 4.0)
        vals = np.ones(g.shape)
        vals[3, 4] = np.inf
        with pytest.raises(ConfigurationError, match="non-finite"):
            materialize_u0(one_component(g, vals))

    @pytest.mark.parametrize("amplitude, message", [
        ("1e200", "whose square overflows"), ("1e154", "H2 norm of the initial data")])
    def test_overflowing_data_refused_before_use(self, monkeypatch, amplitude, message):
        # the squares or the norm overflow: refused before the tail mass or
        # any kernel is computed, with no numpy warning
        problem = one_component(Grid(2, 16, 8.0), parse(f"{amplitude}*exp(-x1^2-x2^2)", 2, "x"))
        monkeypatch.setattr(model, "materialize_kernel", None)
        monkeypatch.setattr(sp, "tail_mass_fraction", None)
        with pytest.raises(NumericOverflowError, match=message):
            with np.errstate(all="raise"):
                materialize(problem)

    def test_stacked_rows_take_each_component(self):
        # an expression over fewer than d coordinates broadcasts over its row
        g = Grid(2, 8, 4.0)
        problem = ProblemSpec(
            grid=g, kernels=(GaussianKernel(1.0),) * 3, operators=(INVERSE_HELMHOLTZ,) * 3,
            g=NonlinearitySpec.from_strings(["z1^2", "z2^2", "z3^2"]),
            u0=(parse("x1", 2, "x"), np.full(g.shape, 2.0), parse("0.5", 2, "x")))
        u0 = materialize_u0(problem)
        assert np.array_equal(u0[0], np.broadcast_to(g.coords[0], g.shape))
        assert np.all(u0[1] == 2.0) and np.all(u0[2] == 0.5)


class TestCachedKernelSpectra:
    def test_equal_to_kernel_spectrum_of_sampled_kernels(self):
        g = Grid(3, 8, 4.0)
        K = np.exp(-sum(x ** 2 for x in g.coords) * np.ones(g.shape))
        problem = ProblemSpec(
            grid=g,
            kernels=(GaussianKernel(1.0), parse("(1+x1)*exp(-2*x1^2-x2^2-x3^2)", 3, "x"),
                     K),
            operators=(INVERSE_HELMHOLTZ,) * 3,
            g=NonlinearitySpec.from_strings(["z1^2", "z2^2", "z1*z3"]),
            u0=(parse("exp(-x1^2-x2^2-x3^2)", 3, "x"),) * 3,
        )
        mat = materialize(problem)
        sampled = np.stack([sample_kernel(k, g)[0] for k in problem.kernels])
        assert np.array_equal(mat.kernel_spectra, sp.kernel_spectrum(g, sampled))
        for m, k in enumerate(problem.kernels):
            assert np.array_equal(mat.kernel_spectra[m],
                                  sp.kernel_spectrum(g, sample_kernel(k, g)[0]))


class TestRepeatedSpecs:
    # the constants-tanh benchmark shape: one kernel and one operator for
    # all six components
    @staticmethod
    def six_equal(g=Grid(2, 32, 8.0)):
        return ProblemSpec(
            grid=g, kernels=(parse("2e-4*exp(-x1^2-x2^2)", 2, "x"),) * 6,
            operators=(INVERSE_HELMHOLTZ,) * 6,
            g=NonlinearitySpec.from_strings([f"tanh(z{m + 1}*z{m % 6 + 1})" for m in range(6)]),
            u0=(parse("0.03*exp(-x1^2-x2^2)", 2, "x"),) * 6)

    @staticmethod
    def counting(monkeypatch, module, name):
        calls = []
        inner = getattr(module, name)

        def counted(spec, grid):
            calls.append(spec)
            return inner(spec, grid)
        monkeypatch.setattr(module, name, counted)
        return calls

    def test_repeated_kernels_give_the_spectra_of_sampled_kernels(self):
        g = Grid(3, 8, 4.0)
        K = np.exp(-sum(x ** 2 for x in g.coords) * np.ones(g.shape))
        gauss, expr = GaussianKernel(1.0), parse("(1+x1)*exp(-2*x1^2-x2^2-x3^2)", 3, "x")
        kernels = (expr, gauss, K, gauss, expr, K.copy(),
                   GaussianKernel(2.0), expr)
        problem = ProblemSpec(
            grid=g, kernels=kernels, operators=(INVERSE_HELMHOLTZ,) * len(kernels),
            g=NonlinearitySpec.from_strings([f"z{m + 1}^2" for m in range(len(kernels))]),
            u0=(parse("exp(-x1^2-x2^2-x3^2)", 3, "x"),) * len(kernels))
        mat = materialize(problem)
        for m, k in enumerate(kernels):
            assert np.array_equal(mat.kernel_spectra[m],
                                  sp.kernel_spectrum(g, sample_kernel(k, g)[0]))
            assert mat.kernels[m] == materialize_kernel(k, g)[0]
        assert mat.kernels[4] is mat.kernels[0] and mat.kernels[3] is mat.kernels[1]

    def test_sample_kernel_runs_once_per_distinct_spec(self, monkeypatch):
        calls = self.counting(monkeypatch, model, "sample_kernel")
        materialize(self.six_equal())
        assert calls == [parse("2e-4*exp(-x1^2-x2^2)", 2, "x")]
        # tabulated kernels hold arrays and are sampled each time, even the same one
        g = Grid(2, 16, 8.0)
        tab = np.exp(-(g.coords[0] ** 2 + g.coords[1] ** 2))
        kernels = (GaussianKernel(1.0), tab, GaussianKernel(1.0), tab, GaussianKernel(0.5))
        calls.clear()
        materialize(ProblemSpec(
            grid=g, kernels=kernels, operators=(INVERSE_HELMHOLTZ,) * 5,
            g=NonlinearitySpec.from_strings([f"z{m + 1}^2" for m in range(5)]),
            u0=(parse("exp(-x1^2-x2^2)", 2, "x"),) * 5))
        assert len(calls) == 4 and calls[1] is calls[2] is tab
        assert calls[0] == GaussianKernel(1.0) and calls[3] == GaussianKernel(0.5)

    def test_operator_norms_once_per_distinct_spec(self, monkeypatch):
        ops = (INVERSE_HELMHOLTZ, scaled_identity(0.5), INVERSE_HELMHOLTZ,
               RationalMultiplier(p=(1.0,), q=(1.0, 1.0)), scaled_identity(0.5), INVERSE_HELMHOLTZ)
        calls = self.counting(monkeypatch, model, "multiplier_values")
        mat = materialize(dataclasses.replace(self.six_equal(), operators=ops))
        # ops[3] is the inverse Helmholtz multiplier spelled out
        assert calls == [INVERSE_HELMHOLTZ, scaled_identity(0.5)]
        assert mat.operator_norms == (1.0, 0.5, 1.0, 1.0, 0.5, 1.0)

    def test_repeated_vanishing_kernel_raises_where_it_first_appears(self, monkeypatch):
        vanishing = parse("0*x1", 2, "x")
        problem = dataclasses.replace(
            self.six_equal(Grid(2, 16, 8.0)),
            kernels=(GaussianKernel(1.0), vanishing, GaussianKernel(1.0), vanishing,
                     GaussianKernel(2.0), vanishing))
        calls = self.counting(monkeypatch, model, "sample_kernel")
        with pytest.raises(AssumptionViolation, match="kernel vanishes identically on the grid"):
            materialize(problem)
        assert calls == [GaussianKernel(1.0), vanishing]
        report = validate_assumptions(materialize(problem, strict=False))
        assert [v for v in report.violations if v.startswith("kernel")] == [
            "kernel 2 vanishes identically", "kernel 4 vanishes identically",
            "kernel 6 vanishes identically"]


class TestWorkingSet:
    def test_estimate_is_the_stated_field_count(self):
        g = Grid(3, 2048, 8.0)
        fields = model.PEAK_STACKED_FIELDS * 2 + model.PEAK_COMPONENT_FIELDS
        assert model.working_set_bytes(g, 2) == fields * 2048 ** 3 * 8

    def test_refused_above_physical_memory_without_allocating(self, monkeypatch):
        monkeypatch.setattr(model, "physical_memory_bytes", lambda: 64 * 10 ** 9)
        problem = ProblemSpec(
            grid=Grid(3, 2048, 8.0),
            kernels=(GaussianKernel(1.0),),
            operators=(INVERSE_HELMHOLTZ,),
            g=NonlinearitySpec.from_strings(["z1^2"]),
            u0=(parse("exp(-x1^2-x2^2-x3^2)", 3, "x"),),
        )
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="physical memory"):
                materialize(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 6

    def test_limit_is_the_estimate(self, monkeypatch):
        g = Grid(2, 16, 4.0)
        need = model.working_set_bytes(g, 3)
        monkeypatch.setattr(model, "physical_memory_bytes", lambda: need)
        model.check_working_set(g, 3)
        monkeypatch.setattr(model, "physical_memory_bytes", lambda: need - 1)
        with pytest.raises(ConfigurationError, match="physical memory"):
            model.check_working_set(g, 3)
        # where the OS does not report its memory, nothing is refused
        monkeypatch.setattr(model, "physical_memory_bytes", lambda: None)
        model.check_working_set(Grid(3, 2048, 8.0), 16)

    def test_physical_memory_is_reported(self):
        have = model.physical_memory_bytes()
        assert have is None or have > 0


class TestProblemSpec:
    def test_component_count_must_agree(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(
                grid=Grid(2, 16, 4.0),
                kernels=(GaussianKernel(1.0),),
                operators=(INVERSE_HELMHOLTZ, INVERSE_HELMHOLTZ),
                g=NonlinearitySpec.from_strings(["z1^2"]),
                u0=(parse("exp(-x1^2-x2^2)", 2, "x"),),
            )

    def test_rho_range(self):
        base = make_certified_problem(n=16)
        import dataclasses
        with pytest.raises(ConfigurationError):
            dataclasses.replace(base, rho=1.5)
        with pytest.raises(ConfigurationError):
            dataclasses.replace(base, rho=0.0)


class TestValidation:
    def test_well_posed_problem_is_clean(self):
        mat = materialize(make_certified_problem(n=32))
        report = validate_assumptions(mat)
        assert report.ok
        assert report.violations == []

    def test_vanishing_nonlinearity_flagged(self):
        import dataclasses
        base = make_certified_problem(n=16)
        bad = dataclasses.replace(base, g=NonlinearitySpec.from_strings(["0*z1"]))
        mat = materialize(bad, strict=False)
        report = validate_assumptions(mat)
        assert report.violations == [
            "nonlinearity is not proved non-zero on the state ball: its enclosure "
            "excludes 0 at none of the probe points"]

    def test_widened_enclosures_prove_nothing(self, monkeypatch):
        # z1^2 is proved non-zero; with every enclosure of g widened to
        # contain 0, the same problem is not
        mat = materialize(make_certified_problem(n=16))
        assert validate_assumptions(mat).ok
        real = model.exprdsl.enclose_many

        def widened(exprs, boxes):
            return [np.stack([np.minimum(v[0], 0.0), np.maximum(v[1], 0.0)])
                    for v in real(exprs, boxes)]

        monkeypatch.setattr(model.exprdsl, "enclose_many", widened)
        assert validate_assumptions(mat).violations == [
            "nonlinearity is not proved non-zero on the state ball: its enclosure "
            "excludes 0 at none of the probe points"]

    def test_zero_at_origin(self):
        # g(0) != 0 is proved by an enclosure at the origin that excludes 0
        def vanishes_at_origin(problem):
            report = validate_assumptions(materialize(problem, strict=False))
            return "nonlinearity does not vanish at the origin" not in report.violations

        def with_g(text):
            return dataclasses.replace(make_certified_problem(n=16),
                                       g=NonlinearitySpec.from_strings([text]))

        assert vanishes_at_origin(make_two_component_problem())  # z1*z2, z1^2
        assert not vanishes_at_origin(with_g("z1+1"))
        assert vanishes_at_origin(with_g("sin(z1)"))

    def test_probe_points_lie_in_the_ball(self, monkeypatch):
        # g is enclosed on point boxes: the origin, and 2N + 3 points at
        # distance r/2, one with distinct coordinates of alternating sign
        boxes = []
        real = model.exprdsl.enclose_many
        monkeypatch.setattr(model.exprdsl, "enclose_many",
                            lambda exprs, b: boxes.append(b) or real(exprs, b))
        base = make_certified_problem(n=16)
        for n in (1, 2, 5):
            g = NonlinearitySpec.from_strings([f"z{m + 1}^2" for m in range(n)])
            mat = materialize(dataclasses.replace(
                base, g=g, kernels=base.kernels * n, operators=base.operators * n,
                u0=base.u0 * n))
            assert validate_assumptions(mat, ball_radius=0.7).ok
            points = np.array([boxes[-1][m + 1][0] for m in range(n)])
            assert all(np.array_equal(boxes[-1][m + 1][1], points[m]) for m in range(n))
            assert points.shape == (n, 2 * n + 4)
            assert not np.any(points[:, 0])
            np.testing.assert_allclose(np.linalg.norm(points[:, 1:], axis=0), 0.35, rtol=1e-15)
            assert np.array_equal(np.sign(points[:, -1]), [(-1) ** m for m in range(n)])
            assert np.unique(np.abs(points[:, -1])).size == n

    def test_nonzero_origin_flagged(self):
        import dataclasses
        base = make_certified_problem(n=16)
        bad = dataclasses.replace(base, g=NonlinearitySpec.from_strings(["z1+1"]))
        mat = materialize(bad, strict=False)
        report = validate_assumptions(mat)
        assert any("origin" in v for v in report.violations)

    def test_trivial_kernel_flagged(self):
        import dataclasses
        base = make_certified_problem(n=16)
        bad = dataclasses.replace(
            base, kernels=(np.zeros((16, 16)),))
        mat = materialize(bad, strict=False)
        report = validate_assumptions(mat)
        assert any("kernel 1 vanishes" in v for v in report.violations)

    def test_small_box_warns_about_tails(self):
        problem = ProblemSpec(
            grid=Grid(2, 16, 2.0),
            kernels=(GaussianKernel(1.0),),
            operators=(INVERSE_HELMHOLTZ,),
            g=NonlinearitySpec.from_strings(["z1^2"]),
            u0=(parse("exp(-x1^2-x2^2)", 2, "x"),),
        )
        report = validate_assumptions(materialize(problem))
        assert any("tail mass" in w for w in report.warnings)
