"""Helpers that only the tests use: seeded random fields, the randomized
falsification suites for c_e and c_a, one-expression and Fourier-multiplier
shorthands, the operators a problem file names, a scaled nonlinearity, and
the expression printer.  No subcommand reaches them, so they live here and
not in the package (tests/test_layout.py keeps it that way)."""

from __future__ import annotations

import math

import numpy as np

import quadint.spectral as sp
from quadint.analysis import algebra_constant, embedding_constant
from quadint.exprdsl import (Add, Call, Div, Expr, Mul, Neg, NonlinearitySpec, Num,
                             Pow, Sub, Var, evaluate_many, fold_mul)
from quadint.model import RationalMultiplier
from quadint.spectral import Grid


# --- operators -------------------------------------------------------------------

# the multipliers a problem file's inverse_helmholtz and scaled_identity load as
INVERSE_HELMHOLTZ = RationalMultiplier(p=(1.0,), q=(1.0, 1.0))


def scaled_identity(alpha: float) -> RationalMultiplier:
    return RationalMultiplier(p=(float(alpha),), q=(1.0,))


# --- spectral ------------------------------------------------------------------

def apply_multiplier(grid: Grid, multiplier: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The field with spectrum multiplier * F: a Fourier multiplier applied
    to a field given by its spectrum F.  F is scaled and transformed in
    place; callers pass a spectrum they do not keep."""
    F *= multiplier
    return sp.inverse_transform(grid, F)


# --- random fields ---------------------------------------------------------------

def band_limited_batch(grid: Grid, count: int, rng: np.random.Generator,
                       band: int | None = None, slope: float = 2.0) -> np.ndarray:
    """`count` real fields with spectrum restricted to |k_i| <= band and a
    (1 + |xi|^2)^(-slope/2) falloff.  Returns shape (count, n, ..., n)."""
    if band is None:
        band = grid.n // 4
    noise = rng.standard_normal((count,) + grid.shape)
    mask = np.ones(grid.spectral_shape, dtype=bool)
    for k in grid.wavenumbers:
        mask = mask & (np.abs(k) <= band)
    weight = mask * (1.0 + grid.xi_squared) ** (-slope / 2.0)
    return sp.inverse_transform(grid, sp.forward_transform(grid, noise) * weight)


def random_vector_in_ball(grid: Grid, n: int, rho: float,
                          rng: np.random.Generator) -> np.ndarray:
    """A random band-limited field with n stacked components, scaled to a
    uniform radius in the Sobolev ball of radius rho."""
    v = band_limited_batch(grid, n, rng)
    norm = sp.h2_norm(grid, sp.forward_transform(grid, v))
    if norm == 0.0:
        return np.zeros_like(v)
    return v * (rho * rng.uniform(0.0, 1.0) / norm)


# --- randomized falsification ----------------------------------------------------

def falsify_embedding(grid: Grid, count: int, seed: int = 0) -> tuple[int, float]:
    """Try to violate sup|f| <= c_e |f|_H2 on random band-limited fields.
    Returns (violations, max observed ratio / c_e)."""
    c_e = embedding_constant(grid.d)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for band, slope in _spectral_shapes(grid):
        batch = -(-count // 6)  # ceil so the suite size is at least `count`
        fields = band_limited_batch(grid, batch, rng, band, slope)
        sups = np.max(np.abs(fields), axis=tuple(range(1, grid.d + 1)))
        h2 = sp.h2_norms(grid, sp.forward_transform(grid, fields))
        keep = h2 > 0
        ratios = sups[keep] / (c_e * h2[keep])
        violations += int(np.sum(ratios > 1.0))
        if ratios.size:
            worst = max(worst, float(np.max(ratios)))
    return violations, worst


def falsify_algebra(grid: Grid, count: int, seed: int = 0) -> tuple[int, float]:
    """Try to violate |fg|_H2 <= c_a |f|_H2 |g|_H2 on random pairs."""
    c_a = algebra_constant(grid.d)
    rng = np.random.default_rng(seed)
    violations = 0
    worst = 0.0
    for band, slope in _spectral_shapes(grid):
        batch = -(-count // 6)  # ceil so the suite size is at least `count`
        f = band_limited_batch(grid, batch, rng, band, slope)
        g = band_limited_batch(grid, batch, rng, band, slope)
        prod = f * g
        hf, hg, hp = (sp.h2_norms(grid, sp.forward_transform(grid, arr))
                      for arr in (f, g, prod))
        keep = (hf > 0) & (hg > 0)
        ratios = hp[keep] / (c_a * hf[keep] * hg[keep])
        violations += int(np.sum(ratios > 1.0))
        if ratios.size:
            worst = max(worst, float(np.max(ratios)))
    return violations, worst


def _spectral_shapes(grid: Grid):
    full = grid.n // 2
    return [(grid.n // 8, 0.0), (grid.n // 8, 2.0), (grid.n // 4, 1.0),
            (grid.n // 4, 3.0), (full, 0.0), (full, 2.0)]


# --- expressions -------------------------------------------------------------------

def evaluate_arrays(e: Expr, args) -> np.ndarray:
    """evaluate_many of the one expression e."""
    return evaluate_many([e], args)[0]


def scaled(g: NonlinearitySpec, factor: float) -> NonlinearitySpec:
    """The nonlinearity factor * g, with its gradient."""
    return NonlinearitySpec.from_exprs(
        [fold_mul(Num(float(factor)), c) for c in g.components]
    )


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg) or (isinstance(e, Num) and math.copysign(1.0, e.value) < 0):
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _render(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"{e.family}{e.index}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_POW)
    if isinstance(e, Add):
        return _wrap(e.left, _LEVEL_ADD) + "+" + _wrap(e.right, _LEVEL_MUL)
    if isinstance(e, Sub):
        return _wrap(e.left, _LEVEL_ADD) + "-" + _wrap(e.right, _LEVEL_MUL)
    if isinstance(e, Mul):
        return _wrap(e.left, _LEVEL_MUL) + "*" + _wrap(e.right, _LEVEL_NEG)
    if isinstance(e, Div):
        return _wrap(e.left, _LEVEL_MUL) + "/" + _wrap(e.right, _LEVEL_NEG)
    if isinstance(e, Pow):
        return _wrap(e.base, _LEVEL_ATOM) + "^" + str(e.exponent)
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, min_level: int) -> str:
    s = _render(e)
    return s if _level(e) >= min_level else f"({s})"


def to_string(e: Expr) -> str:
    """Canonical text form; parsing it back yields a structurally
    identical tree."""
    return _render(e)
