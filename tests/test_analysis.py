import numpy as np
import pytest
from scipy.integrate import quad

from quadint import analysis, sampling
from quadint.analysis import (algebra_constant, ball_radius_state,
                              check_contraction_condition, compute_Q,
                              compute_sigma, constants_report, continuity_bound,
                              c1_distance, embedding_constant, estimate_M,
                              falsify_algebra, falsify_embedding,
                              lattice_embedding_constant)
from quadint.errors import ConfigurationError
from quadint.exprdsl import NonlinearitySpec
from quadint.oracle import dense_sup_estimate
from quadint.spectral import Grid

from conftest import h2


class TestEmbeddingConstant:
    def test_d2_closed_form(self):
        # radial integral of r/(1+r^4) is pi/4, giving 1/(2 sqrt 2)
        assert embedding_constant(2) == pytest.approx(1 / (2 * np.sqrt(2)), rel=1e-15)

    def test_d3_matches_independent_quadrature(self):
        radial, _ = quad(lambda r: r * r / (1 + r ** 4), 0, np.inf)
        expected = (2 * np.pi) ** -1.5 * np.sqrt(4 * np.pi * radial)
        assert embedding_constant(3) == pytest.approx(expected, rel=1e-12)
        # closed form of the radial integral is pi/(2 sqrt 2)
        assert radial == pytest.approx(np.pi / (2 * np.sqrt(2)), rel=1e-9)

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            embedding_constant(4)

    def test_falsification_suite(self):
        violations, worst = falsify_embedding(Grid(2, 32, 8.0), 2000, seed=1)
        assert violations == 0
        assert worst <= 1.0

    def test_falsification_suite_3d(self):
        violations, _ = falsify_embedding(Grid(3, 16, 8.0), 600, seed=2)
        assert violations == 0

    def test_lattice_constant_below_continuum_on_large_boxes(self):
        for grid in (Grid(2, 32, 8.0), Grid(2, 64, 8.0), Grid(3, 16, 8.0)):
            assert lattice_embedding_constant(grid) <= embedding_constant(grid.d)

    def test_lattice_constant_exceeds_continuum_on_tiny_boxes(self):
        # a constant field on a unit box violates the continuum constant,
        # which is why reports carry the lattice value as a diagnostic
        g = Grid(2, 8, 1.0)
        assert lattice_embedding_constant(g) > embedding_constant(2)


class TestAlgebraConstant:
    def test_values(self):
        assert algebra_constant(2) == pytest.approx(2.0, rel=1e-9)
        assert algebra_constant(3) == pytest.approx(
            4 * np.sqrt(2) * embedding_constant(3), rel=1e-12)

    def test_constant_pair_degenerate_case(self):
        g = Grid(2, 16, 8.0)
        one = np.ones(g.shape)
        ratio = h2(g, one * one) / h2(g, one) ** 2
        assert ratio <= algebra_constant(2)

    def test_gaussian_pair_strictly_below_bound(self):
        g = Grid(2, 32, 8.0)
        x, y = g.coords
        f = np.exp(-(x ** 2 + y ** 2))
        ratio = h2(g, f * f) / h2(g, f) ** 2
        assert ratio < algebra_constant(2)

    def test_falsification_suite(self):
        violations, worst = falsify_algebra(Grid(2, 32, 8.0), 2000, seed=3)
        assert violations == 0
        assert worst <= 1.0


class TestStateBall:
    def test_examples(self):
        assert ball_radius_state(0.5, 1.0) == 1.0
        assert ball_radius_state(0.35, 0.0) == 0.35

    def test_report_consistency(self, certified):
        _, report = certified
        assert report.r_state == pytest.approx(
            report.c_e * (report.u0_norm + 1.0), rel=1e-12)


class TestEstimateM:
    def test_linear_component(self):
        g = NonlinearitySpec.from_strings(["z1"])
        M, prov = estimate_M(g, 3.0)
        assert prov == "rigorous-bound"
        assert M == pytest.approx(3.0 + 1.0)

    def test_quadratic_component(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        M, prov = estimate_M(g, 2.0)
        assert prov == "rigorous-bound"
        assert M == pytest.approx(4.0 + 4.0)

    def test_sampled_estimate_close_to_dense_oracle(self):
        g = NonlinearitySpec.from_strings(["sin(z1)"])
        M, prov = estimate_M(g, 2.0, seed=0)
        assert prov == "sampled-estimate"
        dense = (dense_sup_estimate(g.components[0], 1, 2.0, 10 ** 6, seed=1)
                 + dense_sup_estimate(g.gradient[0][0], 1, 2.0, 10 ** 6, seed=2))
        assert M / analysis.SAMPLED_INFLATION == pytest.approx(dense, rel=0.02)

    def test_one_point_set_per_estimate(self, monkeypatch):
        calls = []
        real = sampling.ball_points

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(sampling, "ball_points", counting)
        g = NonlinearitySpec.from_strings(
            ["tanh(z1*z2)", "sin(z2)", "z3*exp(z4)", "z4^2"])
        _, prov = estimate_M(g, 1.0, seed=3)
        assert prov == "sampled-estimate"
        assert len(calls) == 2
        calls.clear()
        _, prov = c1_distance(g, g.scaled(1.5), 1.0, seed=3)
        assert prov == "sampled-estimate"
        assert len(calls) == 2

    def test_shared_sample_is_drawn_once(self, ball_point_calls):
        g = NonlinearitySpec.from_strings(["tanh(z1*z2)", "sin(z2)"])
        sample = analysis.C1Sample(2, 1.0, seed=3)
        shared = (estimate_M(g, 1.0, sample=sample),
                  c1_distance(g, g.scaled(1.5), 1.0, sample=sample))
        assert len(ball_point_calls) == 2
        assert shared == (estimate_M(g, 1.0, seed=3),
                          c1_distance(g, g.scaled(1.5), 1.0, seed=3))

    def test_sample_on_another_ball_is_refused(self):
        g = NonlinearitySpec.from_strings(["tanh(z1*z2)", "sin(z2)"])
        with pytest.raises(ConfigurationError):
            estimate_M(g, 1.0, sample=analysis.C1Sample(2, 2.0))
        with pytest.raises(ConfigurationError):
            c1_distance(g, g, 1.0, sample=analysis.C1Sample(3, 1.0))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.3])
    def test_shared_set_matches_dense_oracle(self, n, radius):
        g = NonlinearitySpec.from_strings(
            [f"tanh(z{m + 1}*z{(m + 1) % n + 1})" for m in range(n)])
        M, prov = estimate_M(g, radius, seed=0)
        assert prov == "sampled-estimate"
        exprs = [e for m in range(n) for e in (g.components[m], *g.gradient[m])]
        dense = sum(dense_sup_estimate(e, n, radius, 2 * 10 ** 5, seed=11 + k)
                    for k, e in enumerate(exprs))
        assert dense <= M
        assert M / analysis.SAMPLED_INFLATION == pytest.approx(dense, rel=0.02)

    def test_mean_value_bound(self, certified):
        # |g(z)| <= M |z| on the state ball when g(0) = 0
        mat, report = certified
        pts = sampling.ball_points(1, report.r_state, 2000, seed=4)
        vals = np.abs(pts[:, 0] ** 2)
        assert np.all(vals <= report.M * np.abs(pts[:, 0]) + 1e-15)

    def test_lipschitz_bound(self, certified):
        mat, report = certified
        a = sampling.ball_points(1, report.r_state, 2000, seed=5)[:, 0]
        b = sampling.ball_points(1, report.r_state, 2000, seed=6)[:, 0]
        assert np.all(np.abs(a ** 2 - b ** 2) <= report.M * np.abs(a - b) + 1e-15)


class TestQSigma:
    def test_q_single_channel(self):
        assert compute_Q([1.0], [3.0]) == 3.0

    def test_q_two_identical_channels(self):
        assert compute_Q([1.0, 1.0], [3.0, 3.0]) == pytest.approx(np.sqrt(2) * 3.0)

    def test_q_from_certified_problem(self, certified):
        _, report = certified
        # single channel with unit operator norm: Q equals the kernel norm
        assert report.Q == pytest.approx(report.kernel_w21_norms[0], rel=1e-12)
        recomposed = np.sqrt(sum(
            (t * w) ** 2 for t, w in zip(report.operator_norms,
                                         report.kernel_w21_norms)))
        assert report.Q == pytest.approx(recomposed, rel=1e-12)

    def test_sigma_plugin(self):
        assert compute_sigma(1.0, 0.1, 1.0, 0.0) == pytest.approx(0.2)

    def test_sigma_requires_positive_q(self):
        with pytest.raises(ConfigurationError):
            compute_sigma(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            compute_Q([1.0], [0.0])

    def test_sigma_recomposition(self, certified):
        _, report = certified
        assert report.sigma == pytest.approx(
            2 * report.c_a * report.Q * report.M * (report.u0_norm + 1), rel=1e-12)


class TestContractionCondition:
    def test_pass_case(self):
        # lhs = 0.3 with rho = 1
        cert = check_contraction_condition(c_a=1.0, M=1.0, u0_norm=0.0,
                                           Q=0.3, rho=1.0)
        assert cert.passed
        assert cert.lhs == pytest.approx(0.3)
        assert cert.sigma == pytest.approx(0.6)
        assert cert.feasible_interval == pytest.approx((0.6, 1.0))

    def test_fail_case(self):
        cert = check_contraction_condition(c_a=1.0, M=1.0, u0_norm=0.0,
                                           Q=0.6, rho=1.0)
        assert not cert.passed
        assert cert.feasible_interval is None

    def test_pass_implies_sigma_below_one(self, certified):
        _, report = certified
        assert report.certificate.passed
        assert report.sigma < 1.0

    def test_report_verdict_matches_inequality(self, certified):
        _, report = certified
        assert report.certificate.passed == (
            report.c_a * report.M * (report.u0_norm + 1) ** 2 * report.Q
            <= report.rho / 2)


class TestC1Distance:
    def test_identical(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        dist, _ = c1_distance(g, g, 1.0)
        assert dist == 0.0

    def test_linear_difference(self):
        g1 = NonlinearitySpec.from_strings(["z1"])
        g2 = g1.scaled(1.25)
        dist, prov = c1_distance(g1, g2, 3.0)
        assert prov == "rigorous-bound"
        assert dist == pytest.approx(0.25 * (3.0 + 1.0))

    def test_sampled_vs_dense_oracle(self):
        g1 = NonlinearitySpec.from_strings(["sin(z1)"])
        g2 = NonlinearitySpec.from_strings(["z1"])
        dist, prov = c1_distance(g1, g2, 0.5, seed=0)
        assert prov == "sampled-estimate"
        diff = g1.difference(g2)
        dense = (dense_sup_estimate(diff.components[0], 1, 0.5, 10 ** 6, seed=1)
                 + dense_sup_estimate(diff.gradient[0][0], 1, 0.5, 10 ** 6, seed=2))
        assert dist / analysis.SAMPLED_INFLATION == pytest.approx(dense, rel=0.02)


class TestContinuityBound:
    def test_zero_distance(self):
        assert continuity_bound(1.0, 0.25, 1.0, 0.0, 0.0) == 0.0

    def test_plugin(self):
        # sigma = 2*1*0.25*1*(0+1) = 0.5; bound = 0.5/(2*0.5) * 0.1 = 0.05
        assert continuity_bound(1.0, 0.25, 1.0, 0.0, 0.1) == pytest.approx(0.05)

    def test_requires_contraction(self):
        with pytest.raises(ConfigurationError):
            continuity_bound(1.0, 1.0, 1.0, 0.0, 0.1)


class TestConstantsReport:
    def test_provenance_and_serialization(self, certified):
        _, report = certified
        assert report.provenance["c_e"] == "rigorous-bound"
        assert report.provenance["M"] == "rigorous-bound"
        doc = report.to_dict()
        assert doc["condition_pass"] is True
        assert doc["sigma"] == report.sigma
        import json
        json.dumps(doc)  # must be plain JSON types

    def test_overrides_are_flagged(self):
        import dataclasses
        from conftest import make_certified_problem
        from quadint.model import materialize
        spec = dataclasses.replace(make_certified_problem(n=16),
                                   c_e_override=0.3, c_a_override=1.5)
        report = constants_report(materialize(spec))
        assert report.constants_overridden
        assert report.c_e == 0.3 and report.c_a == 1.5
        assert report.provenance["c_e"] == "override"
        assert any("non-certified" in w for w in report.warnings)

    def test_sampled_m_warns(self):
        import dataclasses
        from conftest import make_certified_problem
        from quadint.model import materialize
        spec = dataclasses.replace(
            make_certified_problem(n=16),
            g=NonlinearitySpec.from_strings(["sin(z1)"]))
        report = constants_report(materialize(spec))
        assert report.provenance["M"] == "sampled-estimate"
        assert any("sampled" in w for w in report.warnings)
