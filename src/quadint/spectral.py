"""Periodic spectral toolbox: grid, transforms, convolution, and norms.

Everything operates on a uniform grid over the box [-L, L)^d (d = 2 or 3)
with n points per axis and spacing h = 2L/n.  The transform convention is

    F(xi) = h^d  * sum_x  f(x) exp(-i xi . x)
    f(x)  = (2L)^-d * sum_xi F(xi) exp(+i xi . x)

with xi on the lattice pi*k/L, integer k in [-n/2, n/2) per axis.  Under
this convention the discrete norms are direct approximations of their
continuous counterparts and the convolution theorem carries no extra
weight: forward(K (*) f) = forward(K) . forward(f), where (*) denotes
periodic convolution with cell weight h^d.

Spectral coefficients are stored in numpy's unshifted FFT layout; the grid
exposes the matching frequency arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np
# numpy loads its fft module on first use; load it with this module, so that
# code wrapping its entry points (perfbench/tracer.py) finds it in place
import numpy.fft  # noqa: F401

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d.

    d must be 2 or 3, n even and at least 4, L positive.  x = 0 sits at
    sample index n/2 on every axis.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ConfigurationError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigurationError(f"points per axis must be even and >= 4, got {self.n}")
        if not self.L > 0:
            raise ConfigurationError(f"box half-width must be positive, got {self.L}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def num_points(self) -> int:
        return self.n ** self.d

    @property
    def cell_volume(self) -> float:
        return self.h ** self.d

    @property
    def volume(self) -> float:
        return (2.0 * self.L) ** self.d

    @cached_property
    def axis(self) -> np.ndarray:
        """Sample coordinates along one axis: -L, -L+h, ..., L-h."""
        return -self.L + self.h * np.arange(self.n)

    @cached_property
    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        return list(np.meshgrid(*([self.axis] * self.d), indexing="ij", sparse=True))

    @cached_property
    def freq_index(self) -> np.ndarray:
        """Integer frequencies k in [-n/2, n/2), numpy FFT order."""
        return np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)

    @cached_property
    def xi_axis(self) -> np.ndarray:
        """Physical frequencies pi*k/L along one axis, FFT order."""
        return np.pi * self.freq_index / self.L

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice."""
        axes = np.meshgrid(*([self.xi_axis] * self.d), indexing="ij", sparse=True)
        out = np.zeros(self.shape)
        for a in axes:
            out = out + a * a
        return out

    @cached_property
    def h2_weight(self) -> np.ndarray:
        """Sobolev weight 1 + |xi|^4 on the frequency lattice."""
        return 1.0 + self.xi_squared ** 2

    @cached_property
    def center_phase(self) -> np.ndarray:
        """(-1)^(k1+...+kd): relates numpy's FFT (origin at index 0) to the
        box convention (origin at index n/2)."""
        parity = np.meshgrid(*([self.freq_index] * self.d), indexing="ij", sparse=True)
        total = np.zeros(self.shape, dtype=np.int64)
        for p in parity:
            total = total + p
        return np.where(total % 2 == 0, 1.0, -1.0)


@dataclass(frozen=True)
class ScalarField:
    """One real-valued component sampled on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ConfigurationError(
                f"field shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field contains non-finite samples")

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            _require_same_grid(self.grid, other.grid)
            return ScalarField(self.grid, self.values * other.values)
        return ScalarField(self.grid, self.values * float(other))

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    @classmethod
    def zero(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Sample fn(x1, ..., xd) on the grid (fn must broadcast)."""
        vals = np.broadcast_to(np.asarray(fn(*grid.coords), dtype=float), grid.shape)
        return cls(grid, np.array(vals))


@dataclass(frozen=True)
class SpectralField:
    """Fourier coefficients of a field, in numpy FFT layout, scaled so they
    approximate the continuous transform (see module docstring)."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != self.grid.shape:
            raise ConfigurationError(
                f"coefficient shape {self.coefficients.shape} does not match grid "
                f"shape {self.grid.shape}"
            )


def _require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ConfigurationError(f"grids differ: {a} vs {b}")


def forward_transform(f: ScalarField) -> SpectralField:
    """Scaled DFT approximating the continuous Fourier transform."""
    g = f.grid
    coeffs = np.fft.fftn(f.values) * (g.cell_volume * g.center_phase)
    return SpectralField(g, coeffs)


def inverse_transform(F: SpectralField) -> ScalarField:
    """Inverse of :func:`forward_transform`; returns the real part."""
    g = F.grid
    vals = np.fft.ifftn(F.coefficients * g.center_phase).real / g.cell_volume
    return ScalarField(g, vals)


def convolve(K: ScalarField, f: ScalarField) -> ScalarField:
    """Periodic convolution with cell-volume weight:
    (K (*) f)(x) = h^d sum_y K(x - y) f(y), computed spectrally."""
    _require_same_grid(K.grid, f.grid)
    FK = forward_transform(K)
    Ff = forward_transform(f)
    return inverse_transform(SpectralField(K.grid, FK.coefficients * Ff.coefficients))


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian: multiplier -|xi|^2."""
    g = f.grid
    vals = np.fft.ifftn(-g.xi_squared * np.fft.fftn(f.values)).real
    return ScalarField(g, vals)


def apply_multiplier(f: ScalarField, multiplier: np.ndarray) -> ScalarField:
    """Apply a real Fourier multiplier given on the grid's frequency lattice."""
    g = f.grid
    if multiplier.shape != g.shape:
        raise ConfigurationError("multiplier shape does not match the frequency lattice")
    vals = np.fft.ifftn(multiplier * np.fft.fftn(f.values)).real
    return ScalarField(g, vals)


def l2_norm(f: ScalarField) -> float:
    return float(np.sqrt(f.grid.cell_volume * np.sum(f.values ** 2)))


def l1_norm(f: ScalarField) -> float:
    return float(f.grid.cell_volume * np.sum(np.abs(f.values)))


def sup_norm(f: ScalarField) -> float:
    return float(np.max(np.abs(f.values)))


def h2_norm(f: ScalarField) -> float:
    """Sobolev norm (|f|_L2^2 + |Lap f|_L2^2)^(1/2), computed spectrally
    as a (1 + |xi|^4)-weighted coefficient sum."""
    g = f.grid
    A = np.fft.fftn(f.values)
    # h^d/n^d is (2L)^-d combined with the h^d transform scaling squared
    scale = g.cell_volume / g.num_points
    return float(np.sqrt(scale * np.sum(g.h2_weight * np.abs(A) ** 2)))


def h2_norm_many(components: Iterable[ScalarField]) -> float:
    """Vector Sobolev norm: square root of the sum of squared component norms."""
    total = 0.0
    for c in components:
        total += h2_norm(c) ** 2
    return float(np.sqrt(total))


def tilde_w21_norm(K: ScalarField, deltaK: ScalarField) -> float:
    """Kernel norm (|K|_L1^2 + |Lap K|_L1^2)^(1/2).  deltaK must be the
    Laplacian of K (symbolic where available, spectral otherwise)."""
    _require_same_grid(K.grid, deltaK.grid)
    return float(np.hypot(l1_norm(K), l1_norm(deltaK)))


def is_conjugate_symmetric(F: SpectralField, tol: float = 1e-12) -> bool:
    """True when the coefficients satisfy F(-xi) = conj(F(xi)), i.e. the
    spatial field is real up to `tol` (relative)."""
    A = F.coefficients
    mirrored = A
    for ax in range(F.grid.d):
        mirrored = np.flip(np.roll(mirrored, -1, axis=ax), axis=ax)
    scale = np.max(np.abs(A))
    if scale == 0.0:
        return True
    return bool(np.max(np.abs(mirrored.conj() - A)) <= tol * scale)


def tail_mass_fraction(f: ScalarField, kind: str = "l1", shell: float = 0.1) -> float:
    """Fraction of the field's mass (L1 for kernels, L2 for data fields)
    sitting in the outer `shell` fraction of the box, per axis in sup norm.
    Quantifies how much of the function the box truncation is clipping."""
    g = f.grid
    cutoff = (1.0 - shell) * g.L
    outer = np.zeros(g.shape, dtype=bool)
    for a in np.meshgrid(*([g.axis] * g.d), indexing="ij", sparse=True):
        outer = outer | (np.abs(a) >= cutoff)
    if kind == "l1":
        mass = np.abs(f.values)
    elif kind == "l2":
        mass = f.values ** 2
    else:
        raise ConfigurationError(f"unknown mass kind {kind!r}")
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    return float(np.sum(mass[outer]) / total)
