import numpy as np
import pytest
from scipy.integrate import quad

import quadint.spectral as sp
from quadint import model
from quadint.errors import AssumptionViolation, ConfigurationError
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import (ExpressionKernel, GaussianKernel, InverseHelmholtz,
                           ProblemSpec, RationalMultiplier, ScaledIdentity,
                           TabulatedKernel, materialize, materialize_kernel,
                           materialize_u0, validate_assumptions)
from quadint.spectral import Grid

from conftest import cosine_x1, h2, make_certified_problem


def apply_operator(op, grid, f):
    """The operator's multiplier applied to f in frequency space."""
    return sp.apply_multiplier(grid, model.multiplier_values(op, grid),
                               sp.forward_transform(grid, f))


def one_component(grid, u0, kernel=GaussianKernel(1.0), op=InverseHelmholtz()):
    return ProblemSpec(grid=grid, kernels=(kernel,), operators=(op,),
                       g=NonlinearitySpec.from_strings(["z1^2"]), u0=(u0,))


class TestKernels:
    def test_gaussian_l1_is_pi(self):
        g = Grid(2, 64, 8.0)
        mk = materialize_kernel(GaussianKernel(1.0), g)
        assert sp.l1_norm(g, mk.values) == pytest.approx(np.pi, abs=1e-6)
        assert mk.delta_source == "symbolic"

    def test_zero_tabulated_kernel_rejected(self):
        g = Grid(2, 16, 4.0)
        with pytest.raises(AssumptionViolation, match="vanishes"):
            materialize_kernel(TabulatedKernel(np.zeros(g.shape)), g)

    def test_expression_matches_builtin(self):
        g = Grid(2, 32, 8.0)
        a = materialize_kernel(GaussianKernel(1.0), g)
        b = materialize_kernel(ExpressionKernel("exp(-x1^2-x2^2)"), g)
        assert np.max(np.abs(a.values - b.values)) < 1e-14
        assert np.max(np.abs(a.delta - b.delta)) < 1e-12
        assert a.w21 == pytest.approx(b.w21, rel=1e-13)

    def test_symbolic_delta_agrees_with_spectral(self):
        g = Grid(2, 64, 8.0)
        symbolic = materialize_kernel(GaussianKernel(1.0), g)
        tabulated = materialize_kernel(TabulatedKernel(symbolic.values), g)
        assert tabulated.delta_source == "spectral"
        diff = sp.l1_norm(g, symbolic.delta - tabulated.delta)
        assert diff < 1e-6
        # the report's kernel norm is spectral.tilde_w21_norm of the pair
        assert symbolic.w21 == sp.tilde_w21_norm(g, symbolic.values, symbolic.delta)

    def test_tabulated_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="shape"):
            materialize_kernel(TabulatedKernel(np.ones((8, 8))), Grid(2, 16, 4.0))

    def test_nonfinite_tabulated_kernel_rejected(self):
        g = Grid(2, 16, 4.0)
        for bad in (np.nan, np.inf):
            vals = np.ones(g.shape)
            vals[0, 0] = bad
            with pytest.raises(ConfigurationError, match="non-finite"):
                materialize_kernel(TabulatedKernel(vals), g)

    def test_gaussian_alpha_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            GaussianKernel(0.0)

    def test_tail_fraction_recorded(self):
        g = Grid(2, 32, 2.0)  # box too small for a unit gaussian
        mk = materialize_kernel(GaussianKernel(1.0), g)
        assert mk.tail_fraction > 1e-8


class TestOperators:
    def test_inverse_helmholtz_on_constant(self):
        g = Grid(2, 16, 4.0)
        out = apply_operator(InverseHelmholtz(), g, np.full(g.shape, 3.0))
        assert np.max(np.abs(out - 3.0)) < 1e-12

    def test_inverse_helmholtz_on_cosine(self):
        g = Grid(2, 32, 4.0)
        for f in (cosine_x1(g), cosine_x1(g).T):
            out = apply_operator(InverseHelmholtz(), g, f)
            expected = f / (1.0 + (np.pi / g.L) ** 2)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_scaled_identity_exact(self, rng):
        g = Grid(2, 16, 4.0)
        f = rng.standard_normal(g.shape)
        out = apply_operator(ScaledIdentity(2.5), g, f)
        assert np.max(np.abs(out - 2.5 * f)) < 1e-13

    def test_linearity(self, rng):
        g = Grid(2, 16, 4.0)
        op = InverseHelmholtz()
        f1 = rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape)
        lhs = apply_operator(op, g, 2.0 * f1 + f2)
        rhs = 2.0 * apply_operator(op, g, f1) + apply_operator(op, g, f2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_h2_bound_by_operator_norm(self, rng):
        g = Grid(2, 16, 4.0)
        for op in (InverseHelmholtz(), ScaledIdentity(0.7),
                   RationalMultiplier(p=(1.0, 1.0), q=(2.0, 0.0, 1.0))):
            norm = model.operator_norm(model.multiplier_values(op, g))
            for _ in range(20):
                f = rng.standard_normal(g.shape)
                assert h2(g, apply_operator(op, g, f)) <= norm * h2(g, f) * (1 + 1e-12)

    def test_operator_norms(self):
        g = Grid(2, 32, 4.0)
        for op, expected in ((InverseHelmholtz(), 1.0), (ScaledIdentity(-2.5), 2.5),
                             (RationalMultiplier(p=(1.0,), q=(1.0, 0.0, 1.0)), 1.0)):
            assert model.operator_norm(model.multiplier_values(op, g)) == expected
        # materialize records the same norms
        mat = materialize(one_component(g, parse("exp(-x1^2-x2^2)", 2, "x"),
                                        op=ScaledIdentity(-2.5)))
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
        problem = one_component(g, parse("exp(-x1^2-x2^2)", 2, "x"), op=ScaledIdentity(0.0))
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
            operators=(InverseHelmholtz(),) * 2,
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
            operators=(InverseHelmholtz(),),
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
            operators=(InverseHelmholtz(), InverseHelmholtz()),
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
            operators=(InverseHelmholtz(),),
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


class TestProblemSpec:
    def test_component_count_must_agree(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec(
                grid=Grid(2, 16, 4.0),
                kernels=(GaussianKernel(1.0),),
                operators=(InverseHelmholtz(), InverseHelmholtz()),
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
        assert any("vanishes identically on the state ball" in v
                   for v in report.violations)

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
            base, kernels=(TabulatedKernel(np.zeros((16, 16))),))
        mat = materialize(bad, strict=False)
        report = validate_assumptions(mat)
        assert any("kernel 1 vanishes" in v for v in report.violations)

    def test_small_box_warns_about_tails(self):
        problem = ProblemSpec(
            grid=Grid(2, 16, 2.0),
            kernels=(GaussianKernel(1.0),),
            operators=(InverseHelmholtz(),),
            g=NonlinearitySpec.from_strings(["z1^2"]),
            u0=(parse("exp(-x1^2-x2^2)", 2, "x"),),
        )
        report = validate_assumptions(materialize(problem))
        assert any("tail mass" in w for w in report.warnings)
