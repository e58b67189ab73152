"""Brute-force reference implementations for cross-checking the fast paths.

Nothing here shares code with the spectral routes it validates: the
convolution is a literal periodic Riemann sum, the gradient is central
finite differences, the sup estimate is dense sampling.  All paths are
size-budgeted; they exist for correctness, not speed.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .errors import OracleBudgetError
from .exprdsl import NonlinearitySpec, evaluate, evaluate_many
from .spectral import Grid


# largest grids, in points per axis by dimension, the O(n^2d) paths accept
MAX_POINTS = {2: 16, 3: 8}
# central-difference step, relative to max(1, |z|)
FD_STEP_SCALE = 1e-5


def check_budget(grid: Grid) -> None:
    """Refuse a grid larger than MAX_POINTS allows in its dimension."""
    limit = MAX_POINTS[grid.d]
    if grid.n > limit:
        raise OracleBudgetError(
            f"direct path limited to {limit} points per axis in d={grid.d}, got {grid.n}")


def direct_convolution(grid: Grid, K: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Literal periodic quadrature sum_y K(x - y) f(y) h^d of two fields
    sampled on the grid.

    x = 0 sits at sample index n/2, so the kernel index for the pair (j, l)
    is (j - l + n/2) mod n per axis.
    """
    if K.shape != grid.shape or f.shape != grid.shape:
        raise OracleBudgetError("kernel and field must both be sampled on the grid")
    check_budget(grid)
    n = grid.n
    out = np.zeros(grid.shape)
    idx = np.indices(grid.shape)
    for j in product(range(n), repeat=grid.d):
        shifted = tuple((j[ax] - idx[ax] + n // 2) % n for ax in range(grid.d))
        out[j] = np.sum(K[shifted] * f)
    return out * grid.cell_volume


def finite_diff_gradient(g: NonlinearitySpec, z) -> np.ndarray:
    """Central-difference Jacobian of the nonlinearity at the point z."""
    z = np.asarray(z, dtype=float)
    h = FD_STEP_SCALE * max(1.0, float(np.linalg.norm(z)))
    n = g.n
    out = np.zeros((n, n))
    for j in range(n):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        for m in range(n):
            out[m, j] = (evaluate(g.components[m], zp) -
                         evaluate(g.components[m], zm)) / (2.0 * h)
    return out


def random_ball_points(n: int, radius: float, count: int, seed=0) -> np.ndarray:
    """Pseudo-random points uniform in the closed ball of R^n, shape
    (count, n): Gaussian directions from np.random.default_rng(seed), and
    radius r u^(1/n) for a uniform u."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    radii = np.linalg.norm(pts, axis=1, keepdims=True)
    radii[radii == 0.0] = 1.0
    return pts / radii * (radius * rng.uniform(0, 1, (count, 1)) ** (1.0 / n))


def dense_c1_norm(g: NonlinearitySpec, radius: float, samples: int,
                  seed: int = 0) -> float:
    """sum_m (sup|g_m| + sum_j sup|dg_m/dz_j|) over one set of `samples`
    pseudo-random points of the ball of the given radius in R^N, drawn once
    and shared by all N + N^2 expressions."""
    pts = random_ball_points(g.n, radius, samples, seed=seed)
    cols = [pts[:, j] for j in range(g.n)]
    return float(sum(evaluate_many(g.c1_expressions, cols,
                                   take=lambda _, v: np.max(np.abs(v)))))
