import numpy as np
import pytest
from scipy.integrate import quad

import quadint.spectral as sp
from quadint.errors import ConfigurationError
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import ExpressionKernel, InverseHelmholtz, ProblemSpec, ScaledIdentity, \
    materialize
from quadint.oracle import direct_convolution
from quadint.spectral import Grid

from conftest import cosine_x1


def gaussian_field(grid, alpha=1.0, amplitude=1.0, center=None):
    center = center or (0.0,) * grid.d
    r2 = sum((x - c) ** 2 for x, c in zip(grid.coords, center))
    return np.array(np.broadcast_to(amplitude * np.exp(-alpha * r2), grid.shape))


def full_lattice_h2_norm(grid, f):
    """The H2 norm from the full complex spectrum, as the weight
    (1 + |xi|^4) h^d/n^d summed over every frequency of the lattice."""
    xi = np.pi * np.fft.fftfreq(grid.n) * grid.n / grid.L
    s = sum(a * a for a in np.meshgrid(*([xi] * grid.d), indexing="ij", sparse=True))
    A = np.fft.fftn(f)
    return np.sqrt(grid.cell_volume / grid.num_points * np.sum((1 + s ** 2) * np.abs(A) ** 2))


class TestGrid:
    def test_spacing(self):
        g = Grid(2, 64, 8.0)
        assert g.h == pytest.approx(0.25)
        assert g.shape == (64, 64)
        assert g.axis[0] == -8.0 and g.axis[-1] == pytest.approx(8.0 - 0.25)

    def test_frequency_lattice_is_physical(self):
        g = Grid(2, 8, 2.0)
        # k in [-n/2, n/2) on the leading axis, 0..n/2 on the last (rfftn layout)
        lead, last = g.wavenumbers
        assert set(lead.ravel()) == set(range(-4, 4))
        assert list(last.ravel()) == [0, 1, 2, 3, 4]
        assert g.spectral_shape == (8, 5) == g.xi_squared.shape
        # xi = pi*k/L
        assert g.xi_squared[1, 0] == pytest.approx((np.pi / g.L) ** 2)
        assert g.xi_squared[-4, 4] == pytest.approx(2 * (4 * np.pi / g.L) ** 2)

    @pytest.mark.parametrize("d,n,L", [(1, 8, 1.0), (4, 8, 1.0), (2, 3, 1.0),
                                       (2, 6.5, 1.0), (2, 8, 0.0), (2, 2, 1.0)])
    def test_rejects_bad_parameters(self, d, n, L):
        with pytest.raises((ConfigurationError, TypeError)):
            Grid(d, n, L)


class TestTransform:
    def test_constant_field_is_dc_only(self):
        g = Grid(2, 16, 4.0)
        c = 2.5
        F = sp.forward_transform(g, np.full(g.shape, c))
        assert F.shape == g.spectral_shape
        assert F[0, 0] == pytest.approx(g.num_points * c)
        rest = F.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-12

    def test_cosine_splits_mass_on_two_modes(self):
        g = Grid(2, 16, 4.0)
        F = sp.forward_transform(g, cosine_x1(g))
        # modes k = (+-1, 0), both kept on the leading axis; each carries half.
        # Samples start at x = -L, so mode k carries the phase (-1)^k
        expected = -0.5 * g.num_points
        assert F[1, 0] == pytest.approx(expected)
        assert F[-1, 0] == pytest.approx(expected)
        rest = F.copy()
        rest[1, 0] = rest[-1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-10
        # along the last axis only k = +1 is stored; k = -1 is its mirror
        G = sp.forward_transform(g, cosine_x1(g).T)
        assert G[0, 1] == pytest.approx(expected)

    def test_round_trip_identity(self, rng):
        for grid in (Grid(2, 32, 8.0), Grid(3, 8, 4.0)):
            # stacked components transform independently
            f = rng.standard_normal((2,) + grid.shape)
            back = sp.inverse_transform(grid, sp.forward_transform(grid, f))
            assert back.shape == f.shape
            assert np.max(np.abs(back - f)) <= 1e-12 * np.max(np.abs(f))
            for m in range(2):
                single = sp.forward_transform(grid, f[m])
                assert np.array_equal(single, sp.forward_transform(grid, f)[m])

    def test_matches_continuous_gaussian_transform(self):
        # the kernel spectrum approximates the continuous transform of
        # exp(-|x|^2), pi^(d/2) exp(-|xi|^2/4); box large enough that
        # periodization error is negligible
        g = Grid(2, 64, 8.0)
        F = sp.kernel_spectrum(g, gaussian_field(g))
        analytic = np.pi * np.exp(-g.xi_squared / 4.0)
        assert np.max(np.abs(F - analytic)) < 1e-10

    def test_conjugate_symmetry_for_real_fields(self, rng):
        # the half spectrum is the first n/2+1 columns of the full one, and
        # the full spectrum of a real field has F(-k) = conj(F(k)), so the
        # dropped columns carry nothing new
        g = Grid(2, 16, 4.0)
        f = rng.standard_normal(g.shape)
        full = np.fft.fftn(f)
        assert np.allclose(sp.forward_transform(g, f), full[:, :g.n // 2 + 1],
                           rtol=0, atol=1e-12)
        mirrored = np.roll(np.flip(full, axis=(0, 1)), 1, axis=(0, 1))
        assert np.allclose(mirrored.conj(), full, rtol=0, atol=1e-12)


class TestConvolve:
    def test_zero_field(self):
        g = Grid(2, 16, 4.0)
        K_hat = sp.kernel_spectrum(g, gaussian_field(g))
        out = sp.convolve(g, K_hat, np.zeros(g.shape))
        assert np.all(out == 0.0)

    def test_commutativity(self, rng):
        g = Grid(2, 16, 4.0)
        a = rng.standard_normal(g.shape)
        b = rng.standard_normal(g.shape)
        lhs = sp.convolve(g, sp.kernel_spectrum(g, a), b)
        rhs = sp.convolve(g, sp.kernel_spectrum(g, b), a)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * sp.sup_norm(lhs)

    def test_grid_mismatch_rejected(self):
        g = Grid(2, 16, 4.0)
        K_hat = sp.kernel_spectrum(g, gaussian_field(g))
        with pytest.raises(ConfigurationError):
            sp.convolve(g, K_hat, gaussian_field(Grid(2, 8, 4.0)))
        with pytest.raises(ConfigurationError):
            sp.convolve(Grid(2, 8, 4.0), K_hat, gaussian_field(Grid(2, 8, 4.0)))

    def test_gaussian_pair_matches_direct_quadrature(self):
        g = Grid(2, 16, 8.0)
        K = gaussian_field(g)
        f = gaussian_field(g, alpha=0.5, center=(1.0, -2.0))
        fast = sp.convolve(g, sp.kernel_spectrum(g, K), f)
        direct = direct_convolution(g, K, f)
        rel = sp.l2_norm(g, fast - direct) / sp.l2_norm(g, direct)
        assert rel <= 1e-10

    @pytest.mark.parametrize("d,n", [(2, 16), (3, 8)])
    def test_cached_kernel_spectra_match_direct_quadrature(self, d, n, rng):
        # the spectra materialize caches, convolved with stacked fields in
        # one call as the solver does, against the literal sum per channel
        x2 = "-".join(f"x{i}^2" for i in range(1, d + 1))
        grid = Grid(d, n, 6.0)
        mat = materialize(ProblemSpec(
            grid=grid,
            kernels=(ExpressionKernel(f"0.3*exp(-{x2})"),
                     ExpressionKernel(f"(1+x1)*exp(-2*{x2.replace('-', '-2*')})")),
            operators=(InverseHelmholtz(), ScaledIdentity(0.5)),
            g=NonlinearitySpec.from_strings(["z1*z2", "z1^2"]),
            u0=(parse(f"exp(-{x2})", d, "x"), parse(f"0.5*exp(-{x2})", d, "x")),
        ))
        f = rng.standard_normal((2,) + grid.shape)
        fast = sp.convolve(grid, mat.kernel_spectra, f)
        for m in range(2):
            direct = direct_convolution(grid, mat.kernels[m].values, f[m])
            assert sp.l2_norm(grid, fast[m] - direct) <= 1e-12 * sp.l2_norm(grid, direct)

    def test_young_inequality(self, rng):
        # |K (*) f|_L2 <= |K|_L1 |f|_L2, exactly on the grid
        g = Grid(2, 16, 4.0)
        for _ in range(50):
            K = rng.standard_normal(g.shape)
            f = rng.standard_normal(g.shape)
            lhs = sp.l2_norm(g, sp.convolve(g, sp.kernel_spectrum(g, K), f))
            rhs = sp.l1_norm(g, K) * sp.l2_norm(g, f)
            assert lhs <= rhs * (1 + 1e-12)

    def test_young_inequality_for_laplacian(self, rng):
        g = Grid(2, 16, 4.0)
        for _ in range(50):
            K = rng.standard_normal(g.shape)
            f = rng.standard_normal(g.shape)
            conv = sp.convolve(g, sp.kernel_spectrum(g, K), f)
            lhs = sp.l2_norm(g, sp.laplacian(g, conv))
            rhs = sp.l1_norm(g, sp.laplacian(g, K)) * sp.l2_norm(g, f)
            assert lhs <= rhs * (1 + 1e-12)


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        g = Grid(2, 16, 4.0)
        out = sp.laplacian(g, np.full(g.shape, 7.0))
        assert np.max(np.abs(out)) < 1e-12

    def test_cosine_eigenfunction(self):
        g = Grid(2, 32, 4.0)
        f = cosine_x1(g)
        expected = -(np.pi / g.L) ** 2
        assert np.max(np.abs(sp.laplacian(g, f) - expected * f)) < 1e-12
        assert np.max(np.abs(sp.laplacian(g, f.T) - expected * f.T)) < 1e-12

    def test_gaussian_matches_symbolic_formula(self):
        g = Grid(2, 64, 8.0)
        out = sp.laplacian(g, gaussian_field(g))
        x, y = g.coords
        analytic = (4 * (x ** 2 + y ** 2) - 4) * np.exp(-(x ** 2 + y ** 2))
        interior = np.s_[8:-8, 8:-8]
        assert np.max(np.abs(out[interior] - analytic[interior])) < 1e-8


class TestNorms:
    def test_l2_trivial_cases(self):
        g = Grid(2, 16, 4.0)
        assert sp.l2_norm(g, np.zeros(g.shape)) == 0.0
        assert sp.l2_norm(g, np.ones(g.shape)) == pytest.approx(2 * g.L)

    def test_l2_gaussian_closed_form(self):
        # integral of exp(-2|x|^2) over R^2 is pi/2
        g = Grid(2, 64, 8.0)
        assert sp.l2_norm(g, gaussian_field(g)) == pytest.approx(np.sqrt(np.pi / 2), abs=1e-8)

    def test_l1_trivial_cases(self):
        g = Grid(2, 16, 4.0)
        assert sp.l1_norm(g, np.zeros(g.shape)) == 0.0
        assert sp.l1_norm(g, np.ones(g.shape)) == pytest.approx(4 * g.L ** 2)

    def test_l1_gaussian_is_pi(self):
        g = Grid(2, 64, 8.0)
        assert sp.l1_norm(g, gaussian_field(g)) == pytest.approx(np.pi, abs=1e-8)

    def test_h2_zero(self):
        g = Grid(2, 16, 4.0)
        assert sp.h2_norm(g, sp.forward_transform(g, np.zeros(g.shape))) == 0.0

    def test_h2_single_mode_formula(self):
        g = Grid(2, 32, 4.0)
        a = 1.7
        expected = a * np.sqrt(g.volume / 2) * np.sqrt(1 + (np.pi / g.L) ** 4)
        for f in (a * cosine_x1(g), a * cosine_x1(g).T):
            assert sp.h2_norm(g, sp.forward_transform(g, f)) == pytest.approx(expected, rel=1e-12)

    def test_h2_spectral_equals_spatial(self, rng):
        for grid in (Grid(2, 32, 8.0), Grid(3, 8, 4.0)):
            f = rng.standard_normal(grid.shape)
            spectral_side = sp.h2_norm(grid, sp.forward_transform(grid, f))
            spatial_side = np.sqrt(sp.l2_norm(grid, f) ** 2
                                   + sp.l2_norm(grid, sp.laplacian(grid, f)) ** 2)
            assert spectral_side == pytest.approx(spatial_side, rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_h2_half_spectrum_matches_full_fftn(self, d, n, rng):
        # the half spectrum with doubled inner columns gives the norm of the
        # full lattice; the random fields and the alternating field put mass
        # on the Nyquist planes k = n/2 of every axis
        grid = Grid(d, n, 3.0)
        alternating = np.ones(grid.shape)
        for x in np.indices(grid.shape):
            alternating = alternating * (-1.0) ** x
        for f in (rng.standard_normal(grid.shape), alternating,
                  alternating + rng.standard_normal(grid.shape)):
            half = sp.h2_norm(grid, sp.forward_transform(grid, f))
            assert half == pytest.approx(full_lattice_h2_norm(grid, f), rel=1e-13)

    def test_h2_vector(self, rng):
        g = Grid(2, 16, 4.0)
        single = rng.standard_normal(g.shape)
        one = sp.h2_norm(g, sp.forward_transform(g, single))
        assert sp.h2_norm(g, sp.forward_transform(g, single[None])) == pytest.approx(one)
        assert sp.h2_norm(g, sp.forward_transform(g, np.stack([single, single]))) == \
            pytest.approx(np.sqrt(2) * one)
        comps = rng.standard_normal((3,) + g.shape)
        per_field = sp.h2_norms(g, sp.forward_transform(g, comps))
        expected = [sp.h2_norm(g, sp.forward_transform(g, c)) for c in comps]
        assert per_field == pytest.approx(expected, rel=1e-12)
        assert sp.h2_norm(g, sp.forward_transform(g, comps)) == pytest.approx(
            np.sqrt(sum(e ** 2 for e in expected)), rel=1e-12)

    def test_sup_norm(self, rng):
        g = Grid(2, 16, 4.0)
        assert sp.sup_norm(np.zeros(g.shape)) == 0.0
        vals = np.zeros(g.shape)
        vals[3, 5] = -2.0
        assert sp.sup_norm(vals) == 2.0

    def test_w21_trivial_cases(self):
        g = Grid(2, 16, 4.0)
        zero = np.zeros(g.shape)
        assert sp.tilde_w21_norm(g, zero, zero) == 0.0
        # 3-4-5 composition from the definition
        a = np.full(g.shape, 3.0 / (4 * g.L ** 2))
        b = np.full(g.shape, 4.0 / (4 * g.L ** 2))
        assert sp.tilde_w21_norm(g, a, b) == pytest.approx(5.0)

    def test_w21_gaussian_vs_quadrature_oracle(self):
        # |Lap K|_L1 for K = exp(-|x|^2) in d=2, by radial quadrature of the
        # closed-form |4r^2 - 4| exp(-r^2); the grid value converges to it
        oracle_delta, _ = quad(
            lambda r: np.abs(4 * r * r - 4) * np.exp(-r * r) * 2 * np.pi * r, 0, np.inf)
        oracle = float(np.hypot(np.pi, oracle_delta))
        for n, tol in ((64, 1e-2), (256, 3e-4)):
            g = Grid(2, n, 8.0)
            x, y = g.coords
            analytic_delta = (4 * (x ** 2 + y ** 2) - 4) * np.exp(-(x ** 2 + y ** 2))
            value = sp.tilde_w21_norm(g, gaussian_field(g), analytic_delta)
            assert value == pytest.approx(oracle, rel=tol)

    def test_embedding_property_with_certified_constant(self, rng):
        from quadint.analysis import embedding_constant, lattice_embedding_constant
        g = Grid(2, 32, 8.0)
        c_e = embedding_constant(2)
        assert lattice_embedding_constant(g) <= c_e
        low_pass = (g.xi_squared <= 4.0).astype(float)
        for _ in range(100):
            F = low_pass * sp.forward_transform(g, rng.standard_normal(g.shape))
            low = sp.inverse_transform(g, F)
            assert sp.sup_norm(low) <= c_e * sp.h2_norm(g, F) * (1 + 1e-12)


class TestTailMass:
    def test_centered_gaussian_has_tiny_tail(self):
        g = Grid(2, 64, 8.0)
        assert sp.tail_mass_fraction(g, gaussian_field(g), "l1") < 1e-8

    def test_shifted_bump_has_large_tail(self):
        g = Grid(2, 64, 8.0)
        f = gaussian_field(g, center=(7.5, 0.0))
        assert sp.tail_mass_fraction(g, f, "l2") > 0.1

    def test_zero_field(self):
        g = Grid(2, 16, 4.0)
        assert sp.tail_mass_fraction(g, np.zeros(g.shape), "l1") == 0.0
