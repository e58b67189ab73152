import numpy as np
import pytest

import quadint.spectral as sp
from quadint.errors import OracleBudgetError
from quadint.exprdsl import NonlinearitySpec, Num, parse
from quadint.oracle import (OracleBudget, dense_c1_norm, dense_sup_estimate,
                            direct_convolution, finite_diff_gradient)
from quadint.spectral import Grid


def gaussian(grid):
    r2 = sum(x ** 2 for x in grid.coords)
    return np.array(np.broadcast_to(np.exp(-r2), grid.shape))


class TestDirectConvolution:
    def test_zero_field(self):
        g = Grid(2, 8, 4.0)
        out = direct_convolution(g, gaussian(g), np.zeros(g.shape))
        assert np.all(out == 0.0)

    def test_discrete_delta_is_identity(self, rng):
        g = Grid(2, 8, 4.0)
        delta = np.zeros(g.shape)
        delta[g.n // 2, g.n // 2] = 1.0 / g.cell_volume
        f = rng.standard_normal(g.shape)
        out = direct_convolution(g, delta, f)
        assert np.max(np.abs(out - f)) < 1e-12

    def test_budget_enforced(self):
        g2 = Grid(2, 32, 4.0)
        z = np.zeros(g2.shape)
        with pytest.raises(OracleBudgetError):
            direct_convolution(g2, z, z)
        g3 = Grid(3, 16, 4.0)
        z3 = np.zeros(g3.shape)
        with pytest.raises(OracleBudgetError):
            direct_convolution(g3, z3, z3)
        direct_convolution(g3, z3, z3, OracleBudget(max_points_3d=16))
        # fields sampled on another grid are refused
        with pytest.raises(OracleBudgetError):
            direct_convolution(Grid(2, 8, 4.0), z, z)

    def test_linear_and_symmetric(self, rng):
        g = Grid(2, 8, 4.0)
        K = rng.standard_normal(g.shape)
        f1 = rng.standard_normal(g.shape)
        f2 = rng.standard_normal(g.shape)
        lhs = direct_convolution(g, K, f1 + 2.0 * f2)
        rhs = direct_convolution(g, K, f1) + 2.0 * direct_convolution(g, K, f2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
        swapped = direct_convolution(g, f1, K)
        assert np.max(np.abs(swapped - direct_convolution(g, K, f1))) < 1e-12

    def test_3d_agreement_with_spectral(self, rng):
        g = Grid(3, 8, 4.0)
        K = gaussian(g)
        f = rng.standard_normal(g.shape)
        fast = sp.convolve(g, sp.kernel_spectrum(g, K), f)
        direct = direct_convolution(g, K, f)
        assert sp.l2_norm(g, fast - direct) / sp.l2_norm(g, direct) <= 1e-10


class TestFiniteDiffGradient:
    def test_single_square(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        out = finite_diff_gradient(g, [3.0])
        assert out[0, 0] == pytest.approx(6.0, abs=1e-6)

    def test_two_by_two(self):
        g = NonlinearitySpec.from_strings(["z1*z2", "z2"])
        out = finite_diff_gradient(g, [1.0, 2.0])
        assert out == pytest.approx(np.array([[2.0, 1.0], [0.0, 1.0]]), abs=1e-6)

    def test_cross_validates_symbolic_gradient(self, rng):
        g = NonlinearitySpec.from_strings(["tanh(z1)*z2", "sin(z1)+z2^3"])
        for _ in range(25):
            z = rng.uniform(-1, 1, 2)
            sym = g.gradient_at(z)
            fd = finite_diff_gradient(g, z)
            assert np.max(np.abs(sym - fd)) / max(1.0, np.max(np.abs(sym))) <= 1e-6


class TestDenseSup:
    def test_constant(self):
        assert dense_sup_estimate(Num(2.0), 1, 5.0, 100) == 2.0

    def test_linear_approaches_radius(self):
        est = dense_sup_estimate(parse("z1", 1), 1, 3.0, 10 ** 6, seed=0)
        assert 2.97 <= est <= 3.0

    def test_quadratic_boundary_maximum(self):
        est = dense_sup_estimate(parse("z1^2+z2^2", 2), 2, 1.0, 10 ** 6, seed=0)
        assert 0.99 <= est <= 1.0


class TestDenseC1Norm:
    def test_polynomial_matches_closed_form(self):
        # sup|z1^2| + sup|2 z1| on the radius-2 ball of R^2 is 4 + 4
        g = NonlinearitySpec.from_strings(["z1^2"])
        assert dense_c1_norm(g, 2.0, 10 ** 5, seed=3) == pytest.approx(8.0, rel=2e-3)
        g2 = NonlinearitySpec.from_strings(["z1*z2", "z1^2"])
        # sups: |z1 z2| <= r^2/2, |z2|, |z1| <= r; |z1^2| <= r^2, |2 z1| <= 2r
        expected = 0.5 + 1 + 1 + 1 + 2
        assert dense_c1_norm(g2, 1.0, 10 ** 5, seed=3) == pytest.approx(expected, rel=2e-2)
        assert dense_c1_norm(g2, 1.0, 10 ** 5, seed=3) <= expected

    def test_one_independent_draw_per_call(self, monkeypatch):
        import quadint.oracle as oracle
        calls = []
        real = oracle.random_ball_points
        monkeypatch.setattr(oracle, "random_ball_points",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        monkeypatch.setattr(oracle, "ball_points", None)
        dense_c1_norm(NonlinearitySpec.from_strings(["tanh(z1*z2)", "z1^2", "sin(z3)"]),
                      0.7, 1000, seed=5)
        assert calls == [(3, 0.7, 1000)]
