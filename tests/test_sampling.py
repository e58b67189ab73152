import numpy as np
import pytest
from scipy.stats import qmc

from quadint import sampling

DIMENSIONS = [1, 2, 3, 6]


class TestBallPoints:
    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("boundary", [False, True])
    def test_seed_determines_points(self, n, boundary):
        a = sampling.ball_points(n, 1.3, 1024 * n, seed=5, boundary=boundary)
        b = sampling.ball_points(n, 1.3, 1024 * n, seed=5, boundary=boundary)
        c = sampling.ball_points(n, 1.3, 1024 * n, seed=6, boundary=boundary)
        assert a.shape == (1024 * n, n)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("radius", [0.4, 1.0, 7.5])
    def test_interior_points_lie_in_closed_ball(self, n, radius):
        pts = sampling.ball_points(n, radius, 4096 * n, seed=1)
        assert np.all(np.linalg.norm(pts, axis=1) <= radius * (1 + 1e-15))

    @pytest.mark.parametrize("n", DIMENSIONS)
    @pytest.mark.parametrize("radius", [0.4, 1.0, 7.5])
    def test_sphere_points_have_exact_radius(self, n, radius):
        pts = sampling.ball_points(n, radius, 1024 * n, seed=2, boundary=True)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), radius,
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_mean_radius_of_uniform_ball(self, n):
        # |x| of a uniform point in the n-ball has mean n/(n+1) * radius
        radius = 1.3
        pts = sampling.ball_points(n, radius, 4096 * n, seed=3)
        mean = float(np.mean(np.linalg.norm(pts, axis=1)))
        assert mean == pytest.approx(n / (n + 1) * radius, rel=1e-3)

    @pytest.mark.parametrize("n", DIMENSIONS)
    def test_directions_are_balanced(self, n):
        pts = sampling.ball_points(n, 1.0, 1024 * n, seed=4, boundary=True)
        assert np.max(np.abs(pts.mean(axis=0))) < 0.01


class TestRadicalInverse:
    @pytest.mark.parametrize("axis, base", enumerate([2, 3, 5, 7, 11, 13]))
    def test_identity_digits_match_unscrambled_halton(self, axis, base):
        # the digit count the sampler uses: base**digits <= 2**52
        digits = int(52 // np.log2(base))
        identity = np.tile(np.arange(base), (digits, 1))
        ours = sampling.radical_inverse(1000, identity) / float(base) ** digits
        reference = qmc.Halton(d=6, scramble=False).random(1000)[:, axis]
        np.testing.assert_allclose(ours, reference, rtol=0, atol=1e-15)

    def test_permutations_act_per_digit_position(self):
        # base 3, two digits: index 1 has digits (1, 0), index 3 has (0, 1)
        perms = np.array([[2, 0, 1], [1, 2, 0]])
        values = sampling.radical_inverse(9, perms)
        assert values[1] == 0 * 3 + 1
        assert values[3] == 2 * 3 + 2
        assert sorted(values) == list(range(9))


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 7), (5, 123)])
def test_random_ball_points_reproduce_the_validation_probe(n, seed):
    # the 256-point probe validate_assumptions drew inline before it moved
    # here, written out as the reference: the points stay bit-identical
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((256, n))
    radii = np.linalg.norm(pts, axis=1, keepdims=True)
    radii[radii == 0.0] = 1.0
    expected = pts / radii * (0.8 * rng.uniform(0, 1, (256, 1)) ** (1.0 / n))
    assert np.array_equal(sampling.random_ball_points(n, 0.8, 256, seed=seed), expected)


def test_random_ball_points_fill_the_ball():
    pts = sampling.random_ball_points(3, 2.0, 20000, seed=1)
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(radii <= 2.0 * (1 + 1e-15))
    assert np.mean(radii) == pytest.approx(2.0 * 3 / 4, rel=1e-2)
    # unlike the Halton sets, a shorter set is no prefix of a longer one
    assert not np.array_equal(sampling.random_ball_points(3, 2.0, 100, seed=1), pts[:100])
