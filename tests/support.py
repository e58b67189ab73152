"""Helpers that only the tests use: seeded random fields, quasi-random ball
points, the randomized and extremal falsification of c_e and c_a,
one-expression and Fourier-multiplier shorthands, the operators a problem
file names, a scaled nonlinearity, and the expression printer.  No
subcommand reaches them, so they live here and not in the package
(tests/test_layout.py keeps it that way)."""

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


# --- quasi-random ball points ----------------------------------------------------

def radical_inverse(count: int, perms: np.ndarray) -> np.ndarray:
    """Digit reversal of the indices 0..count-1: with d_k the base-`base`
    digits of an index (k = 0 least significant), sum_k perms[k, d_k]
    base**(D-1-k), where perms has shape (D, base) and count <= base**D.
    Divided by base**D this is the radical inverse; with identity rows it is
    the unscrambled Halton coordinate."""
    digits, base = perms.shape
    out = np.zeros(1, dtype=np.int64)
    k = 0
    while out.size < count:
        # index d*base**k + i for every earlier index i and each leading
        # digit d that still gives an index below count
        rows = -(-count // out.size)
        out = (perms[k, :rows, None] * base ** (digits - 1 - k) + out).ravel()
        k += 1
    # digits k and up are 0 for every index below count
    tail = sum(int(perms[j, 0]) * base ** (digits - 1 - j) for j in range(k, digits))
    return out[:count] + tail


def _primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def ball_points(n: int, radius: float, count: int, seed: int = 0,
                boundary: bool = False) -> np.ndarray:
    """Quasi-random points in the closed ball of R^n, shape (count, n).  With
    boundary=True the points lie on the sphere.

    Each point is the Halton point of its index, scrambled by one seeded
    digit permutation per base and digit position, and centred in its digit
    cell so every coordinate lies strictly inside (0, 1).  Box-Muller on
    pairs of coordinates gives a direction, and one more coordinate u gives
    the radius u^(1/n).  The same arguments give bit-identical points."""
    pairs = (n + 1) // 2
    rng = np.random.default_rng(seed)
    u = np.empty((2 * pairs + 1, count))
    for axis, base in enumerate(_primes(2 * pairs + 1)):
        digits = int(52 // np.log2(base))  # base**digits <= 2**52: exact in float64
        perms = np.argsort(rng.random((digits, base)), axis=1)
        u[axis] = (2 * radical_inverse(count, perms) + 1) / (2.0 * base ** digits)
    length = np.sqrt(-2.0 * np.log(u[0:2 * pairs:2]))
    angle = 2.0 * np.pi * u[1:2 * pairs:2]
    z = np.empty((2 * pairs, count))
    z[0::2] = length * np.cos(angle)
    z[1::2] = length * np.sin(angle)
    z = z[:n].T
    directions = z / np.linalg.norm(z, axis=1, keepdims=True)
    if boundary:
        return directions * radius
    return directions * (radius * u[-1] ** (1.0 / n))[:, None]


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


def extremal_field(grid: Grid) -> np.ndarray:
    """The field with spectrum 1/(1+|xi|^4).  Cauchy-Schwarz holds with
    equality for it at its peak, so its sup|f| / |f|_H2 is the lattice
    embedding constant, the most any grid field reaches."""
    return sp.inverse_transform(grid, (1.0 / grid.h2_weight).astype(complex))


def extremal_ratios(grid: Grid) -> tuple[float, float]:
    """sup|f| / (c_e |f|_H2) and |f^2|_H2 / (c_a |f|_H2^2) of the extremal
    field f; a ratio above 1 violates the constant.  The square reaches
    0.28-0.30 of c_a, where the random pairs of falsify_algebra reach about
    0.05; the products of f with its shifts reach no higher than f^2."""
    f = extremal_field(grid)
    h2 = sp.h2_norm(grid, sp.forward_transform(grid, f))
    h2_square = sp.h2_norm(grid, sp.forward_transform(grid, f * f))
    return (float(np.max(np.abs(f))) / (embedding_constant(grid.d) * h2),
            h2_square / (algebra_constant(grid.d) * h2 * h2))


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
