import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from quadint import analysis, exprdsl, oracle
from quadint.analysis import (ConstantsReport, algebra_constant,
                              ball_radius_state, check_contraction_condition,
                              c1_distance, compute_Q, constants_report,
                              embedding_constant, estimate_M,
                              lattice_embedding_constant)
from quadint.errors import ConfigurationError, NumericOverflowError
from quadint.exprdsl import Add, Div, Mul, Neg, NonlinearitySpec, Num, Pow, Sub, Var
from quadint.spectral import Grid

import support
from conftest import dense_sup_estimate, h2
from support import falsify_algebra, falsify_embedding

# the interval enclosure refuses this component on every box, as z1 - z1
# encloses to an interval that reaches below 0, yet its C^1 values are those
# of sin(z1): M cannot be enclosed, and is refused
FALLBACK_SIN = "sin(z1)+sqrt(z1-z1)"
REFUSED = "cannot be enclosed on the state ball"


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
        assert algebra_constant(2) == pytest.approx(np.sqrt(2), rel=1e-15)
        assert algebra_constant(3) == 4 * embedding_constant(3)

    def test_split_slack_is_the_stated_polynomial(self):
        # 4(1+s^4) + 4(1+t^4) + 8 s^2 t^2 - (1 + (s+t)^4), the square of the
        # split with sqrt((1+s^4)(1+t^4)) >= s^2 t^2, equals
        # 7 + (s-t)^2 (3s^2 + 2st + 3t^2).  Both sides have degree <= 4 in
        # each variable, so agreeing on a 5 x 5 grid makes them identical
        points = [Fraction(p, q) for p, q in ((0, 1), (1, 3), (-2, 5), (7, 2), (-11, 4))]
        for s in points:
            for t in points:
                squared_slack = 4 * (1 + s ** 4) + 4 * (1 + t ** 4) + 8 * s * s * t * t \
                    - (1 + (s + t) ** 4)
                assert squared_slack == 7 + (s - t) ** 2 * (3 * s * s + 2 * s * t + 3 * t * t)

    def test_split_holds_with_constant_two(self):
        # sqrt(1 + (s+t)^4) <= 2 (sqrt(1+s^4) + sqrt(1+t^4)) up to rounding,
        # and the constant 2 is approached as s = t grows
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 200)])
        S, T = np.meshgrid(s, s)
        lhs = np.hypot(1.0, (S + T) ** 2)
        rhs = 2.0 * (np.hypot(1.0, S * S) + np.hypot(1.0, T * T))
        ratio = lhs / rhs
        assert np.all(ratio <= 1.0 + 4 * np.finfo(float).eps)
        assert np.max(ratio) > 1.0 - 1e-9

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


class TestExtremalFalsifier:
    """The field with spectrum 1/(1+|xi|^4) against c_e and c_a = 4 c_e,
    and paired runs with each constant lowered to a wrong value."""

    GRIDS = (Grid(2, 64, 8.0), Grid(3, 32, 8.0))

    @pytest.mark.parametrize("grid", GRIDS)
    def test_ratios_stay_below_the_constants(self, grid):
        embedding, algebra = support.extremal_ratios(grid)
        assert embedding * embedding_constant(grid.d) == pytest.approx(
            lattice_embedding_constant(grid), rel=1e-12)
        assert 0.9 < embedding <= 1.0
        assert 0.25 < algebra <= 1.0

    def test_catches_a_lowered_embedding_constant(self, monkeypatch):
        monkeypatch.setattr(support, "embedding_constant", lambda d: embedding_constant(d) / 1.01)
        assert support.extremal_ratios(self.GRIDS[0])[0] > 1.0

    @pytest.mark.parametrize("grid", GRIDS)
    def test_catches_a_quartered_algebra_constant(self, monkeypatch, grid):
        monkeypatch.setattr(support, "algebra_constant", lambda d: algebra_constant(d) / 4)
        assert support.extremal_ratios(grid)[1] > 1.0

    def test_random_pairs_miss_a_quartered_algebra_constant(self, monkeypatch):
        # the seeds of test_falsification_suite and criterion 07: the random
        # pairs cannot tell c_a / 4 from c_a, the extremal field can
        monkeypatch.setattr(support, "algebra_constant", lambda d: algebra_constant(d) / 4)
        for count, seed in ((2000, 3), (10_000, 701)):
            violations, worst = falsify_algebra(Grid(2, 32, 8.0), count, seed=seed)
            assert violations == 0 and worst < 0.25


class TestStateBall:
    def test_examples(self):
        assert ball_radius_state(0.5, 1.0) == 1.0
        assert ball_radius_state(0.35, 0.0) == 0.35

    def test_report_consistency(self, certified):
        _, report = certified
        assert report.r_state == pytest.approx(
            report.c_e * (report.u0_norm + 1.0), rel=1e-12)


# literals of the random polynomials below
LITERALS = (0.5, 1.0, -2.5, 3.0, 0.1, -0.3)


@st.composite
def polynomial_nonlinearities(draw, depth=5):
    """A polynomial g of 1 to 3 components over as many variables, each a
    tree at most `depth` deep of sums, differences, products, negations,
    powers up to 3 and divisions by a literal."""
    n = draw(st.integers(1, 3))

    def tree(level):
        if level == 0 or draw(st.integers(0, 9)) < 3:
            if draw(st.booleans()):
                return Var("z", draw(st.integers(1, n)))
            return Num(draw(st.sampled_from(LITERALS)))
        kind = draw(st.sampled_from(("add", "sub", "mul", "neg", "pow", "div")))
        a = tree(level - 1)
        if kind == "neg":
            return Neg(a)
        if kind == "pow":
            return Pow(a, draw(st.integers(0, 3)))
        if kind == "div":
            return Div(a, Num(draw(st.sampled_from(LITERALS))))
        return {"add": Add, "sub": Sub, "mul": Mul}[kind](a, tree(level - 1))

    return NonlinearitySpec.from_exprs([tree(depth) for _ in range(n)])


class TestEstimateM:
    def test_linear_component(self):
        g = NonlinearitySpec.from_strings(["z1"])
        assert estimate_M(g, 3.0) == pytest.approx(3.0 + 1.0)

    def test_quadratic_component(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        assert estimate_M(g, 2.0) == pytest.approx(4.0 + 4.0)

    @settings(max_examples=300, deadline=None)
    @given(g=polynomial_nonlinearities(), radius=st.sampled_from((0.3, 1.0, 2.5)))
    def test_bounds_the_dense_c1_sup(self, g, radius):
        # M is enclosed and at least the sum of the sups on a dense point
        # set, each evaluated in floating point, so a sup may sit a few
        # ulps above its exact value
        M = estimate_M(g, radius)
        points = support.ball_points(g.n, radius, 2000, seed=9)
        dense = math.fsum(exprdsl.evaluate_many(
            g.c1_expressions, [points[:, j] for j in range(g.n)],
            take=lambda _, v: float(np.max(np.abs(v)))))
        assert dense * (1.0 - 1e-12) <= M

    @pytest.mark.parametrize("text, radius", [
        ("z1^2+0.001*z1^1100", 11.8),   # the power of the radius overflows
        ("1e300*z1^2", 1e5),            # the product with the coefficient does
    ])
    def test_overflowing_enclosure_is_an_overflow_error(self, text, radius):
        g = NonlinearitySpec.from_strings([text])
        with pytest.raises(NumericOverflowError, match="overflows a double"):
            estimate_M(g, radius)

    def test_top_powers_of_sixteen_components_stay_rigorous(self):
        # each component is z_m^MAX_EXPONENT on the unit ball: the sup of the
        # component and its partial is 1 + 10 000; r rounded up one ulp and
        # raised to the 10 000th power reads 2.2e-12 above that
        g = NonlinearitySpec.from_strings(
            [f"z{m}^{exprdsl.MAX_EXPONENT}" for m in range(1, 17)])
        M = estimate_M(g, 1.0)
        assert 16 * (1.0 + exprdsl.MAX_EXPONENT) <= M <= 160016 * (1.0 + 3e-12)

    def test_enclosed_estimate_bounds_the_exact_sup(self):
        # sup|sin| + sup|cos| on [-2, 2] is 2
        g = NonlinearitySpec.from_strings(["sin(z1)"])
        assert 2.0 <= estimate_M(g, 2.0) <= 2.02

    @pytest.mark.parametrize("text", [
        FALLBACK_SIN,
        "tanh(z1*z2)+z1*sqrt(z1^2)",  # the partial divides by sqrt(z1^2)
        "1e-9*z1^2/(1-10*z1)",        # a pole at z1 = 0.1
    ])
    def test_unenclosed_bound_is_refused(self, text):
        g = NonlinearitySpec.from_strings([text, "sin(z2)"])
        with pytest.raises(ConfigurationError, match=REFUSED) as err:
            estimate_M(g, 0.5)
        assert str(err.value) == (
            "the C1 bound of g cannot be enclosed on the state ball of radius 0.5 "
            "(a divisor may vanish, or a square-root argument may be negative)")
        if text != FALLBACK_SIN:  # affine forms turn z1 - z1 into 0
            with pytest.raises(ConfigurationError,
                               match="the C1 distance of g and g2 " + REFUSED):
                c1_distance(g, support.scaled(g, 1.5), 0.5)

    @pytest.mark.parametrize("k, per_axis, boxes", [
        (1, 64, 64), (2, 8, 60), (3, 4, 64), (4, 2, 16), (6, 2, 64), (7, 1, 1)])
    def test_box_cover_covers_the_ball(self, k, per_axis, boxes):
        assert analysis.ENCLOSURE_BOXES == 64
        cover = analysis.box_cover(k, 0.7)
        assert cover.shape == (k, 2, boxes)
        assert all(np.unique(cover[j]).size == per_axis + 1 for j in range(k))
        inner = oracle.random_ball_points(k, 0.7, 2000, seed=1)
        points = np.vstack([inner, inner / np.linalg.norm(inner, axis=1, keepdims=True) * 0.7])
        inside = (cover[:, 0] <= points[:, :, None]) & (points[:, :, None] <= cover[:, 1])
        assert np.all(np.any(np.all(inside, axis=1), axis=1))

    def test_enclosed_estimate_draws_no_points(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("M drew points")

        monkeypatch.setattr(oracle, "random_ball_points", refuse)
        g = NonlinearitySpec.from_strings(["tanh(z1*z2)", "sin(z2)"])
        assert estimate_M(g, 1.0) > 0.0
        assert c1_distance(g, support.scaled(g, 1.5), 1.0) > 0.0

    @staticmethod
    def cyclic_tanh(n, radius):
        """M of g_m = tanh(z_m z_m+1) on the ball, and the dense sup of its
        C^1 expressions."""
        g = NonlinearitySpec.from_strings(
            [f"tanh(z{m + 1}*z{(m + 1) % n + 1})" for m in range(n)])
        dense = sum(dense_sup_estimate(e, n, radius, 2 * 10 ** 5, seed=11 + k)
                    for k, e in enumerate(g.c1_expressions))
        return estimate_M(g, radius), dense

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.3])
    def test_shared_set_matches_dense_oracle(self, n, radius):
        # the enclosure; M / dense reads 1.051 to 1.056 on these four shapes
        M, dense = self.cyclic_tanh(n, radius)
        assert dense <= M <= 1.1 * dense

    def test_mean_value_bound(self, certified):
        # |g(z)| <= M |z| on the state ball when g(0) = 0
        mat, report = certified
        pts = support.ball_points(1, report.r_state, 2000, seed=4)
        vals = np.abs(pts[:, 0] ** 2)
        assert np.all(vals <= report.M * np.abs(pts[:, 0]) + 1e-15)

    def test_lipschitz_bound(self, certified):
        mat, report = certified
        a = support.ball_points(1, report.r_state, 2000, seed=5)[:, 0]
        b = support.ball_points(1, report.r_state, 2000, seed=6)[:, 0]
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
        cert = check_contraction_condition(c_a=1.0, M=1.0, u0_norm=0.0, Q=0.1, rho=1.0)
        assert cert.sigma == pytest.approx(0.2)

    def test_sigma_requires_positive_q(self):
        with pytest.raises(ConfigurationError):
            check_contraction_condition(c_a=1.0, M=1.0, u0_norm=0.0, Q=0.0, rho=1.0)
        with pytest.raises(ConfigurationError):
            compute_Q([1.0], [0.0])

    def test_sigma_recomposition(self, certified):
        _, report = certified
        assert report.sigma == pytest.approx(
            2 * report.c_a * report.Q * report.M * (report.u0_norm + 1), rel=1e-12)


# constants whose product c_a M Q rounds to exactly 1/2
BOUNDARY = (1.7385877177298523, 1.4035240878873405, 0.20490545791201753)
BOUNDARY_WARNING = "boundary case: contraction factor reached 1; treating as pass-with-warning"
NO_MARGIN = "condition holds with equality; no margin"


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

    @pytest.mark.parametrize("u0_norm", [0.0, 1e-300])
    def test_boundary_case_passes_with_sigma_one(self, u0_norm):
        # c_a M Q rounds to exactly 1/2 here; 0.12.0 rounded sigma as its own
        # product, raised AssertionError at u0_norm = 1e-300 and reported
        # sigma = 1.0000000000000002 at u0_norm = 0
        c_a, M, Q = BOUNDARY
        cert = check_contraction_condition(c_a, M, u0_norm, Q, rho=1.0)
        assert cert.passed and cert.lhs == 0.5 and cert.sigma == 1.0
        assert cert.warnings == (BOUNDARY_WARNING, NO_MARGIN)

    def test_equality_below_radius_one_has_no_margin_only(self):
        cert = check_contraction_condition(c_a=1.0, M=1.0, u0_norm=0.0, Q=0.25, rho=0.5)
        assert cert.passed and cert.lhs == 0.25 and cert.sigma == 0.5
        assert cert.warnings == (NO_MARGIN,)

    @settings(max_examples=1000, deadline=None)
    @given(c_a=st.floats(1e-100, 1e100), M=st.floats(1e-100, 1e100),
           u0_norm=st.sampled_from((0.0, 1e-300)) | st.floats(0.0, 1e6),
           rho=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True),
           ulps=st.integers(-3, 3))
    def test_a_pass_proves_sigma_at_most_one(self, c_a, M, u0_norm, rho, ulps):
        # Q within a few ulps of the value that puts lhs at rho / 2
        Q = rho / 2.0 / (c_a * M * (u0_norm + 1.0) ** 2)
        for _ in range(abs(ulps)):
            Q = math.nextafter(Q, math.inf if ulps > 0 else 0.0)
        assume(0.0 < Q < math.inf)
        cert = check_contraction_condition(c_a, M, u0_norm, Q, rho)
        assert cert.sigma == 2.0 * cert.lhs / (u0_norm + 1.0)
        if cert.passed:
            assert cert.sigma <= 1.0
        if cert.passed and cert.sigma == 1.0:
            assert cert.lhs == 0.5 and rho == 1.0
        assert (BOUNDARY_WARNING in cert.warnings) == (cert.passed and cert.sigma == 1.0)
        assert (NO_MARGIN in cert.warnings) == (cert.lhs == rho / 2.0)

    @pytest.mark.parametrize("rho", [2.0, 0.0, -0.5, math.nan, math.inf])
    def test_radius_outside_the_unit_interval_is_refused(self, certified, rho):
        # the proof that a pass has sigma <= 1 needs 0 < rho <= 1; 0.13.0
        # passed rho = 2 here with sigma = 1.8
        import dataclasses
        with pytest.raises(ConfigurationError, match=r"ball radius must lie in \(0, 1\]"):
            check_contraction_condition(1.0, 1.0, 0.0, 0.9, rho)
        _, report = certified
        with pytest.raises(ConfigurationError, match=r"ball radius must lie in \(0, 1\]"):
            dataclasses.replace(report, rho=rho).certificate

    def test_pass_implies_sigma_below_one(self, certified):
        _, report = certified
        assert report.certificate.passed
        assert report.sigma < 1.0

    def test_report_verdict_matches_inequality(self, certified):
        _, report = certified
        assert report.certificate.passed == (
            report.c_a * report.M * (report.u0_norm + 1) ** 2 * report.Q
            <= report.rho / 2)


# the state ball of test_cli's TANH problem, two coupled tanh components
TANH_RADIUS = 0.40524060936432565


class TestC1Distance:
    def test_identical(self):
        # exactly 0 from the enclosure, for one object or two equal ones
        for texts in (["z1^2"], ["tanh(z1*z2)", "tanh(z2*z1)"]):
            g = NonlinearitySpec.from_strings(texts)
            for g2 in (g, NonlinearitySpec.from_strings(texts)):
                assert c1_distance(g, g2, 1.0) == 0.0

    def test_linear_difference(self):
        g1 = NonlinearitySpec.from_strings(["z1"])
        g2 = support.scaled(g1, 1.25)
        assert c1_distance(g1, g2, 3.0) == pytest.approx(0.25 * (3.0 + 1.0))

    @staticmethod
    def dense(g1, g2, radius):
        diff = g1.difference(g2)
        return sum(dense_sup_estimate(e, diff.n, radius, 2 * 10 ** 5, seed=11 + k)
                   for k, e in enumerate(diff.c1_expressions))

    def test_scaled_tanh_is_enclosed_below_the_sampled_estimate(self):
        # 0.7.0 sampled this distance as 0.01963; affine forms read 0.01867
        g1 = NonlinearitySpec.from_strings(["tanh(z1*z2)", "tanh(z2*z1)"])
        g2 = support.scaled(g1, 1.01)
        dist = c1_distance(g1, g2, TANH_RADIUS)
        assert self.dense(g1, g2, TANH_RADIUS) <= dist <= 0.01963

    def test_perturbed_argument_is_enclosed(self):
        g1 = NonlinearitySpec.from_strings(["tanh(z1*z2)", "tanh(z2*z1)"])
        g2 = NonlinearitySpec.from_strings(["tanh(1.01*z1*z2)", "tanh(z2*z1)"])
        dist = c1_distance(g1, g2, TANH_RADIUS)
        assert self.dense(g1, g2, TANH_RADIUS) <= dist


def report_of(c_a, Q, M, u0_norm, rho=1.0):
    """A report that carries the given constants, with placeholders for the
    ones its verdict does not read."""
    return ConstantsReport(d=2, c_e=1.0, c_a=c_a, lattice_c_e=1.0, u0_norm=u0_norm,
                           M=M, Q=Q, operator_norms=(1.0,), kernel_w21_norms=(Q,),
                           rho=rho, r_state=1.0)


class TestContinuityBound:
    def test_zero_distance(self):
        assert report_of(1.0, 0.25, 1.0, 0.0).continuity_bound(0.0) == 0.0

    def test_plugin(self):
        # sigma = 2*1*0.25*1*(0+1) = 0.5; bound = 0.5/(2*0.5) * 0.1 = 0.05
        assert report_of(1.0, 0.25, 1.0, 0.0).continuity_bound(0.1) == pytest.approx(0.05)

    def test_requires_contraction(self):
        with pytest.raises(ConfigurationError):
            report_of(1.0, 1.0, 1.0, 0.0).continuity_bound(0.1)

    @pytest.mark.parametrize("c_a, Q, M, u0_norm, dist", [
        (2.0, 0.04, 1.2, 0.1, 0.3), (1.34, 0.045, 1.8, 0.62, 1e-3),
        (4.0, 1e-3, 30.0, 2.5, 7.0), (1.0, 0.25, 1.0, 0.0, 0.1), (3.0, 0.01, 1e-6, 1e3, 1e-9)])
    def test_equals_the_form_without_M(self, c_a, Q, M, u0_norm, dist):
        # sigma / (2 M (1 - sigma)) (|u0| + 1) = c_a Q (|u0| + 1)^2 / (1 - sigma)
        report = report_of(c_a, Q, M, u0_norm)
        sigma = report.sigma
        assert sigma < 1.0
        alternate = c_a * Q * (u0_norm + 1.0) ** 2 * dist / (1.0 - sigma)
        assert report.continuity_bound(dist) == pytest.approx(
            alternate, rel=1e-12, abs=1e-300)


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

    def test_to_dict_is_the_fields_and_the_verdict(self, certified):
        # every field under its own name, the certificate's four verdict
        # keys, and the report's warnings followed by the certificate's
        import dataclasses
        _, report = certified
        c_a, M, Q = BOUNDARY
        report = dataclasses.replace(report, c_a=c_a, M=M, Q=Q, u0_norm=0.0, rho=1.0,
                                     warnings=("a report warning",))
        cert = report.certificate
        doc = report.to_dict()
        names = [f.name for f in dataclasses.fields(report)]
        verdict = {"sigma": cert.sigma, "condition_lhs": cert.lhs,
                   "condition_pass": cert.passed,
                   "rho_feasible_interval": cert.feasible_interval}
        assert set(doc) == set(names) | set(verdict)
        assert all(doc[name] is getattr(report, name) for name in names if name != "warnings")
        assert {key: doc[key] for key in verdict} == verdict
        assert doc["warnings"] == ("a report warning", BOUNDARY_WARNING, NO_MARGIN)

    def test_certificate_follows_the_constants(self, certified):
        import dataclasses
        _, report = certified
        for M in (report.M, 0.5 * report.M, 1e3 * report.M):
            moved = dataclasses.replace(report, M=M)
            assert moved.certificate == check_contraction_condition(
                report.c_a, M, report.u0_norm, report.Q, report.rho)
        assert not dataclasses.replace(report, M=1e3 * report.M).certificate.passed
        # the certificate is derived, not a field: it cannot be passed in
        with pytest.raises(TypeError):
            dataclasses.replace(report, certificate=report.certificate)

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

    def test_unenclosed_m_is_refused(self):
        import dataclasses
        from conftest import make_certified_problem
        from quadint.model import materialize
        spec = make_certified_problem(n=16)
        report = constants_report(materialize(dataclasses.replace(
            spec, g=NonlinearitySpec.from_strings(["sin(z1)"]))))
        assert report.provenance["M"] == "rigorous-bound"
        assert report.warnings == ()
        unenclosed = dataclasses.replace(spec, g=NonlinearitySpec.from_strings([FALLBACK_SIN]))
        with pytest.raises(ConfigurationError, match="the C1 bound of g " + REFUSED):
            constants_report(materialize(unenclosed))

    def test_only_a_tabulated_kernel_warns_of_its_laplacian(self):
        import dataclasses
        from conftest import make_certified_problem
        from quadint.model import materialize, sample_kernel
        spec = make_certified_problem(n=16)
        K, _ = sample_kernel(spec.kernels[0], spec.grid)
        warning = ("a tabulated kernel uses a spectral Laplacian; "
                   "its W21~ norm carries discretization error")
        assert warning not in constants_report(materialize(spec)).warnings
        tabulated = dataclasses.replace(spec, kernels=(K,))
        assert warning in constants_report(materialize(tabulated)).warnings
