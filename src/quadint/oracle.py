"""Brute-force reference implementations for cross-checking the fast paths,
and cross_checks, the three checks of `quadint oracle` that compare them.

No reference shares code with the spectral routes it validates: the
convolution is a literal periodic Riemann sum, the gradient is central
finite differences, the sup estimate is dense sampling.  All paths are
size-budgeted; they exist for correctness, not speed.
"""

from __future__ import annotations

import dataclasses
from itertools import product

import numpy as np

from . import analysis, model, spectral
from .errors import ConfigurationError, OracleBudgetError
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


def sphere_axis_points(n: int, radius: float) -> np.ndarray:
    """The 2n points +-r e_j and the 2n(n-1) points r(+-e_i +- e_j)/sqrt(2),
    i < j, of the sphere of radius r in R^n, shape (2n^2, n).  A sup of a
    product of one or two coordinates sits at such a point, and uniform
    points seldom come near them once n is 6 or more."""
    axis = radius * np.vstack([np.eye(n), -np.eye(n)])
    i, j = np.triu_indices(n, 1)
    rows = np.arange(i.size)
    diagonals = []
    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        p = np.zeros((i.size, n))
        p[rows, i], p[rows, j] = si, sj
        diagonals.append(p)
    return np.vstack([axis, np.vstack(diagonals) * (radius / np.sqrt(2.0))])


def dense_c1_norm(g: NonlinearitySpec, radius: float, samples: int,
                  seed: int = 0) -> float:
    """sum_m (sup|g_m| + sum_j sup|dg_m/dz_j|) over one set of `samples`
    pseudo-random points of the ball of the given radius in R^N and the
    sphere_axis_points, drawn once and shared by all N + N^2 expressions."""
    pts = np.vstack([random_ball_points(g.n, radius, samples, seed=seed),
                     sphere_axis_points(g.n, radius)])
    cols = [pts[:, j] for j in range(g.n)]
    return float(sum(evaluate_many(g.c1_expressions, cols,
                                   take=lambda _, v: np.max(np.abs(v)))))


def cross_checks(problem: model.ProblemSpec, size: int | None, seed: int) -> dict:
    """The oracle's report on the problem resampled with `size` points per
    axis (MAX_POINTS by default): the map's convolution of each channel
    against literal quadrature, the symbolic gradient against finite
    differences at 20 points uniform in the state ball, and the enclosed
    C^1 bound against the dense sup.  The points of both random checks come
    from `seed`."""
    d = problem.grid.d
    size = size if size is not None else MAX_POINTS[d]
    small = Grid(d=d, n=size, L=problem.grid.L)
    check_budget(small)

    if any(isinstance(e, np.ndarray) for e in problem.u0 + problem.kernels):
        raise ConfigurationError(
            "oracle rerun needs expression-based kernels and initial data "
            "(tabulated fields cannot be resampled on the reduced grid)")
    reduced = dataclasses.replace(problem, grid=small)
    mat = model.materialize(reduced, strict=False)
    report = analysis.constants_report(mat)

    checks = []
    ok = True

    # convolution: the map's spectral.convolve and kernel spectra vs literal quadrature
    for m in range(mat.n):
        f = mat.u0[m] if np.any(mat.u0[m] != 0.0) else mat.u0[0]
        fast = spectral.convolve(small, mat.kernel_spectra[m], f)
        K, _ = model.sample_kernel(reduced.kernels[m], small)
        direct = direct_convolution(small, K, f)
        scale = max(spectral.l2_norm(small, direct), 1e-300)
        err = spectral.l2_norm(small, fast - direct) / scale
        passed = err <= 1e-10
        ok &= passed
        checks.append({"name": f"convolution_channel_{m + 1}",
                       "relative_error": float(err), "tolerance": 1e-10,
                       "passed": bool(passed)})

    # gradient: symbolic vs central finite differences at points uniform in
    # the ball: a Gaussian direction and the radius r u^(1/N)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(mat.n)
        z *= (report.r_state * rng.uniform(0, 1) ** (1.0 / mat.n)
              / max(np.linalg.norm(z), 1e-300))
        sym = mat.g.gradient_at(z)
        fd = finite_diff_gradient(mat.g, z)
        denom = max(1.0, float(np.max(np.abs(sym))))
        worst = max(worst, float(np.max(np.abs(sym - fd)) / denom))
    grad_ok = worst <= 1e-6
    ok &= grad_ok
    checks.append({"name": "gradient_vs_finite_differences",
                   "relative_error": float(worst), "tolerance": 1e-6,
                   "passed": bool(grad_ok)})

    # sup estimates: the enclosed C1 bound must dominate a dense reference
    # sup, taken on pseudo-random points and the sphere's axis and diagonal
    # points
    dense_total = dense_c1_norm(mat.g, report.r_state, 100_000, seed=seed)
    sup_ok = report.M >= dense_total * (1.0 - 1e-9)
    ok &= sup_ok
    checks.append({"name": "c1_bound_dominates_dense_sup",
                   "M": float(report.M), "dense_reference": float(dense_total),
                   "passed": bool(sup_ok)})
    return {"grid_points": size, "checks": checks, "all_passed": bool(ok)}
