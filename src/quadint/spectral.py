"""Periodic spectral toolbox: grid, real transforms, convolution, and norms.

Everything operates on a uniform grid over the box [-L, L)^d (d = 2 or 3)
with n points per axis and spacing h = 2L/n; x = 0 sits at sample index n/2
on every axis.  A field is a real ndarray whose last d axes are the grid;
N components are stacked on a leading axis, shape (N, n, ..., n).

Spectra are numpy's unnormalized real transform over the last d axes, in
rfftn layout: the frequencies k in [-n/2, n/2) on the leading grid axes
(FFT order) and 0..n/2 on the last, the physical frequency being xi = pi*k/L.
The columns 1..n/2-1 of the last axis also stand for their mirror images
-k, whose coefficients are the complex conjugates.  Every transform passes
its axes explicitly, so leading axes batch over components.

With this convention the discrete norms approximate their continuous
counterparts: the L2 norm carries the cell volume h^d, and the H2 norm sums
(1 + |xi|^4) |F|^2 h^d / n^d over the full lattice (Parseval).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# numpy loads its fft module on first use; load it with this module, so that
# code wrapping its entry points (perfbench/tracer.py) finds it in place
import numpy.fft  # noqa: F401

from .errors import ConfigurationError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d.

    d must be 2 or 3, n even and at least 4, L positive.
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
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of one component's spectrum in rfftn layout."""
        return (self.n,) * (self.d - 1) + (self.n // 2 + 1,)

    @property
    def axes(self) -> tuple[int, ...]:
        """The grid axes of a field or spectrum: the last d."""
        return tuple(range(-self.d, 0))

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
    def wavenumbers(self) -> list[np.ndarray]:
        """Integer frequencies k of the rfftn layout, one broadcastable array
        per axis: [-n/2, n/2) in FFT order on the leading axes, 0..n/2 on
        the last."""
        full = np.rint(np.fft.fftfreq(self.n) * self.n).astype(np.int64)
        half = np.arange(self.n // 2 + 1)
        return list(np.meshgrid(*([full] * (self.d - 1) + [half]),
                                indexing="ij", sparse=True))

    @cached_property
    def xi_squared(self) -> np.ndarray:
        """|xi|^2 on the half lattice."""
        out = np.zeros(self.spectral_shape)
        for k in self.wavenumbers:
            xi = np.pi * k / self.L
            out = out + xi * xi
        return out

    @cached_property
    def h2_weight(self) -> np.ndarray:
        """Sobolev weight 1 + |xi|^4 on the half lattice."""
        return 1.0 + self.xi_squared ** 2

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How many full-lattice frequencies each half-lattice column stands
        for: 2 on the columns 1..n/2-1 of the last axis, 1 on the columns 0
        and n/2, which are their own mirror images."""
        out = np.ones(self.n // 2 + 1)
        out[1:self.n // 2] = 2.0
        return out

    @cached_property
    def norm_weight(self) -> np.ndarray:
        """Weight of |F|^2 in the squared H2 norm: (1 + |xi|^4) times the
        column multiplicity times h^d/n^d = (2L)^-d (h^d)^2, Parseval's
        factor with the square of the h^d that scales the raw transform to
        the continuous one."""
        return (self.cell_volume / self.num_points) * self.multiplicity * self.h2_weight


def forward_transform(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Unnormalized real DFT over the grid axes; leading axes are batched."""
    return np.fft.rfftn(f, axes=grid.axes)


def inverse_transform(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_transform`."""
    return np.fft.irfftn(F, s=grid.shape, axes=grid.axes)


def kernel_spectrum(grid: Grid, K: np.ndarray) -> np.ndarray:
    """Spectrum of a kernel sampled on the grid, ready for :func:`convolve`:
    ifftshift moves x = 0 from index n/2 to index 0, and h^d is the
    quadrature weight of the convolution."""
    return grid.cell_volume * forward_transform(grid, np.fft.ifftshift(K, axes=grid.axes))


def apply_multiplier(grid: Grid, multiplier: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The field with spectrum multiplier * F: a Fourier multiplier applied
    to a field given by its spectrum F.  F is scaled in place, which saves
    one spectrum of memory; callers pass a spectrum they do not keep."""
    F *= multiplier
    return inverse_transform(grid, F)


def convolve(grid: Grid, K_hat: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Periodic convolution (K (*) f)(x) = h^d sum_y K(x - y) f(y), with
    K_hat = kernel_spectrum(grid, K).  Stacked kernels and fields convolve
    component by component in one transform pair."""
    if f.shape[-grid.d:] != grid.shape or K_hat.shape[-grid.d:] != grid.spectral_shape:
        raise ConfigurationError("kernel spectrum or field does not match the grid")
    return apply_multiplier(grid, K_hat, forward_transform(grid, f))


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Spectral Laplacian: multiplier -|xi|^2."""
    return apply_multiplier(grid, -grid.xi_squared, forward_transform(grid, f))


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(f ** 2)))


def l1_norm(grid: Grid, f: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(np.abs(f)))


def sup_norm(f: np.ndarray) -> float:
    return float(np.max(np.abs(f)))


def h2_norms(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Sobolev norm (|f|_L2^2 + |Lap f|_L2^2)^(1/2) of each field whose
    spectrum is F, by Parseval from the coefficients; leading axes index
    the fields."""
    return np.sqrt(np.sum(grid.norm_weight * (F.real ** 2 + F.imag ** 2), axis=grid.axes))


def h2_norm(grid: Grid, F: np.ndarray) -> float:
    """Vector Sobolev norm of the stacked fields whose spectrum is F: the
    root of the sum of the squared component norms."""
    return float(np.sqrt(np.sum(h2_norms(grid, F) ** 2)))


def tilde_w21_norm(grid: Grid, K: np.ndarray, deltaK: np.ndarray) -> float:
    """Kernel norm (|K|_L1^2 + |Lap K|_L1^2)^(1/2).  deltaK must be the
    Laplacian of K (symbolic where available, spectral otherwise)."""
    return float(np.hypot(l1_norm(grid, K), l1_norm(grid, deltaK)))


def tail_mass_fraction(grid: Grid, f: np.ndarray, kind: str = "l1",
                       shell: float = 0.1) -> float:
    """Fraction of the field's mass (L1 for kernels, L2 for data fields)
    sitting in the outer `shell` fraction of the box, per axis in sup norm.
    Quantifies how much of the function the box truncation is clipping."""
    cutoff = (1.0 - shell) * grid.L
    outer = np.zeros(grid.shape, dtype=bool)
    for a in grid.coords:
        outer = outer | (np.abs(a) >= cutoff)
    if kind == "l1":
        mass = np.abs(f)
    elif kind == "l2":
        mass = f ** 2
    else:
        raise ConfigurationError(f"unknown mass kind {kind!r}")
    total = float(np.sum(mass))
    if total == 0.0:
        return 0.0
    return float(np.sum(mass[outer]) / total)
