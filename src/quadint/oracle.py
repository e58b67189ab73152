"""Brute-force reference implementations for cross-checking the fast paths.

Nothing here shares code with the spectral routes it validates: the
convolution is a literal periodic Riemann sum, the gradient is central
finite differences, the sup estimate is dense sampling.  All paths are
size-budgeted; they exist for correctness, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import OracleBudgetError
from .exprdsl import Expr, NonlinearitySpec, evaluate, evaluate_arrays
from .sampling import ball_points, random_ball_points
from .spectral import Grid


@dataclass(frozen=True)
class OracleBudget:
    """Largest grids the O(n^2d) paths will accept."""

    max_points_2d: int = 16
    max_points_3d: int = 8

    def check(self, grid: Grid) -> None:
        limit = self.max_points_2d if grid.d == 2 else self.max_points_3d
        if grid.n > limit:
            raise OracleBudgetError(
                f"direct path limited to {limit} points per axis in d={grid.d}, "
                f"got {grid.n}")


DEFAULT_BUDGET = OracleBudget()


def direct_convolution(grid: Grid, K: np.ndarray, f: np.ndarray,
                       budget: OracleBudget = DEFAULT_BUDGET) -> np.ndarray:
    """Literal periodic quadrature sum_y K(x - y) f(y) h^d of two fields
    sampled on the grid.

    x = 0 sits at sample index n/2, so the kernel index for the pair (j, l)
    is (j - l + n/2) mod n per axis.
    """
    if K.shape != grid.shape or f.shape != grid.shape:
        raise OracleBudgetError("kernel and field must both be sampled on the grid")
    budget.check(grid)
    n = grid.n
    out = np.zeros(grid.shape)
    idx = np.indices(grid.shape)
    for j in product(range(n), repeat=grid.d):
        shifted = tuple((j[ax] - idx[ax] + n // 2) % n for ax in range(grid.d))
        out[j] = np.sum(K[shifted] * f)
    return out * grid.cell_volume


def finite_diff_gradient(g: NonlinearitySpec, z, step_scale: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of the nonlinearity at the point z."""
    z = np.asarray(z, dtype=float)
    h = step_scale * max(1.0, float(np.linalg.norm(z)))
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


def dense_sup_estimate(e: Expr, arity: int, radius: float, samples: int,
                       seed: int = 0) -> float:
    """Max |e| over `samples` quasi-random points of the ball of the given
    radius in R^arity."""
    pts = ball_points(arity, radius, samples, seed=seed)
    cols = [pts[:, j] for j in range(arity)]
    return float(np.max(np.abs(evaluate_arrays(e, cols))))


def dense_c1_norm(g: NonlinearitySpec, radius: float, samples: int,
                  seed: int = 0) -> float:
    """sum_m (sup|g_m| + sum_j sup|dg_m/dz_j|) over one set of `samples`
    pseudo-random points of the ball of the given radius in R^N, drawn once
    and shared by all N + N^2 expressions."""
    pts = random_ball_points(g.n, radius, samples, seed=seed)
    cols = [pts[:, j] for j in range(g.n)]
    return float(sum(np.max(np.abs(evaluate_arrays(e, cols)))
                     for m in range(g.n) for e in (g.components[m], *g.gradient[m])))
