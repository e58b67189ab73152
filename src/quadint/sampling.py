"""Seeded random fields and quasi-random point sets used by the
falsification suites, the solver probes, and the sampled sup estimates."""

from __future__ import annotations

import numpy as np

from .model import VectorField
from .spectral import Grid, ScalarField


def band_limited_batch(grid: Grid, count: int, rng: np.random.Generator,
                       band: int | None = None, slope: float = 2.0) -> np.ndarray:
    """`count` real fields with spectrum restricted to |k_i| <= band and a
    (1 + |xi|^2)^(-slope/2) falloff.  Returns shape (count, n, ..., n)."""
    if band is None:
        band = grid.n // 4
    noise = rng.standard_normal((count,) + grid.shape)
    spec = np.fft.fftn(noise, axes=tuple(range(1, grid.d + 1)))
    mask = np.ones(grid.shape, dtype=bool)
    for ax_k in np.meshgrid(*([grid.freq_index] * grid.d), indexing="ij", sparse=True):
        mask = mask & (np.abs(ax_k) <= band)
    weight = mask * (1.0 + grid.xi_squared) ** (-slope / 2.0)
    out = np.fft.ifftn(spec * weight, axes=tuple(range(1, grid.d + 1))).real
    return out


def random_field(grid: Grid, rng: np.random.Generator,
                 band: int | None = None, slope: float = 2.0) -> ScalarField:
    return ScalarField(grid, band_limited_batch(grid, 1, rng, band, slope)[0])


def random_vector_in_ball(grid: Grid, n: int, rho: float,
                          rng: np.random.Generator) -> VectorField:
    """A random band-limited vector field scaled to a uniform radius in the
    Sobolev ball of radius rho."""
    comps = [random_field(grid, rng) for _ in range(n)]
    vf = VectorField(tuple(comps))
    norm = vf.h2_norm()
    if norm == 0.0:
        return VectorField.zero(grid, n)
    return vf * (rho * rng.uniform(0.0, 1.0) / norm)


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
