"""Pseudo-random point sets on balls of R^n, used by the structural check
of the nonlinearity and the brute-force oracle."""

import numpy as np


def random_ball_points(n: int, radius: float, count: int, seed=0) -> np.ndarray:
    """Pseudo-random points uniform in the closed ball of R^n, shape
    (count, n): Gaussian directions from np.random.default_rng(seed), and
    radius r u^(1/n) for a uniform u."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    radii = np.linalg.norm(pts, axis=1, keepdims=True)
    radii[radii == 0.0] = 1.0
    return pts / radii * (radius * rng.uniform(0, 1, (count, 1)) ** (1.0 / n))
