"""Seeded random fields, and pseudo- and quasi-random point sets, used by
the falsification suites, the solver probes, the structural checks and the
sampled sup estimates."""

from __future__ import annotations

import numpy as np

from . import spectral
from .spectral import Grid


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
    return spectral.inverse_transform(grid, spectral.forward_transform(grid, noise) * weight)


def random_vector_in_ball(grid: Grid, n: int, rho: float,
                          rng: np.random.Generator) -> np.ndarray:
    """A random band-limited field with n stacked components, scaled to a
    uniform radius in the Sobolev ball of radius rho."""
    v = band_limited_batch(grid, n, rng)
    norm = spectral.h2_norm(grid, spectral.forward_transform(grid, v))
    if norm == 0.0:
        return np.zeros_like(v)
    return v * (rho * rng.uniform(0.0, 1.0) / norm)


def random_ball_points(n: int, radius: float, count: int, seed=0) -> np.ndarray:
    """Pseudo-random points uniform in the closed ball of R^n, shape
    (count, n): Gaussian directions from np.random.default_rng(seed), and
    radius r u^(1/n) for a uniform u.  A stream independent of the
    quasi-random ball_points sets."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, n))
    radii = np.linalg.norm(pts, axis=1, keepdims=True)
    radii[radii == 0.0] = 1.0
    return pts / radii * (radius * rng.uniform(0, 1, (count, 1)) ** (1.0 / n))


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
