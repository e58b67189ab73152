"""Periodic spectral toolbox: grid, real transforms, convolution, and norms.

Everything operates on a uniform grid over the box [-L, L)^d (d = 2 or 3)
with n points per axis and spacing h = 2L/n; x = 0 sits at sample index n/2
on every axis, in kernels too, until :func:`kernel_spectrum` moves it to
index 0 (np.fft.ifftshift).  A field is a real ndarray whose last d axes are
the grid; N components are stacked on a leading axis, shape (N, n, ..., n).

Spectra are numpy's unnormalized real transform over the last d axes, in
rfftn layout: the frequencies k in [-n/2, n/2) on the leading grid axes
(FFT order) and 0..n/2 on the last, the physical frequency being xi = pi*k/L.
The columns 1..n/2-1 of the last axis also stand for their mirror images
-k, whose coefficients are the complex conjugates.  Every transform passes
its axes explicitly, so leading axes batch over components.

Every axis pass of a transform writes into one complex array.
:func:`inverse_transform` and :func:`multiply_by_inverse` overwrite the
spectrum they are given, so callers pass them a scratch spectrum, never a
cached one.  Every other helper leaves its arguments unchanged;
:func:`convolve` and :func:`laplacian` overwrite only spectra they made.

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

TAIL_SHELL = 0.1  # the outer fraction of the box, per axis, for tail_mass_fraction


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [-L, L)^d.

    d must be 2 or 3, n even and at least 4, L positive and finite, with a
    cell volume h^d, a box volume (2L)^d and a largest Sobolev weight
    1 + |xi|^4 that are positive finite doubles.  A dataclass, not a record
    (records.py): its cached properties live in an instance __dict__.
    """

    d: int
    n: int
    L: float

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ConfigurationError(f"dimension must be 2 or 3, got {self.d}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigurationError(f"points per axis must be even and >= 4, got {self.n}")
        if not 0.0 < self.L < np.inf:
            raise ConfigurationError(f"box half-width must be positive and finite, got {self.L}")
        try:
            # |xi|^2 peaks at d (pi (n/2) / L)^2, where every axis is at k = n/2
            xi_max_squared = self.d * (np.pi * (self.n / 2) / self.L) ** 2
            limits = (self.cell_volume, self.volume, 1.0 + xi_max_squared ** 2)
        except OverflowError:  # float ** int raises where it would overflow
            limits = (np.inf,)
        if not all(0.0 < v < np.inf for v in limits):
            raise ConfigurationError(
                f"box half-width {self.L} gives a cell volume h^d, a box volume "
                f"(2L)^d or a Sobolev weight 1 + |xi|^4 that a double cannot hold")

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
    """Unnormalized real DFT over the grid axes; leading axes are batched.
    Every axis pass writes into the one array returned."""
    out = np.empty(f.shape[:-1] + (grid.n // 2 + 1,), dtype=complex)
    return np.fft.rfftn(f, axes=grid.axes, out=out)


def inverse_transform(grid: Grid, F: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Inverse of :func:`forward_transform`; overwrites F.  The complex
    passes run in place on F, then the real pass over the last axis makes
    the field, in `out` when given.  ifftn runs its axes last to first, so
    the reversed leading axes give irfftn's pass order and bit-identical
    output."""
    np.fft.ifftn(F, axes=grid.axes[-2::-1], out=F)
    return np.fft.irfft(F, n=grid.n, axis=-1, out=out)


def multiply_by_inverse(grid: Grid, f: np.ndarray, F: np.ndarray) -> None:
    """f *= inverse_transform(grid, F) for stacked f and F of matching
    leading axes; overwrites F.  The complex passes run batched, the real
    pass one field at a time, so the inverse never exists as a whole
    stack; the product is bit-identical to the batched one."""
    np.fft.ifftn(F, axes=grid.axes[-2::-1], out=F)
    for i in np.ndindex(F.shape[:F.ndim - grid.d]):
        f[i] *= np.fft.irfft(F[i], n=grid.n, axis=-1)


def kernel_spectrum(grid: Grid, K: np.ndarray) -> np.ndarray:
    """Spectrum of a kernel sampled on the grid, ready for :func:`convolve`:
    ifftshift moves x = 0 to index 0, and h^d is the quadrature weight of
    the convolution."""
    F = forward_transform(grid, np.fft.ifftshift(K, axes=grid.axes))
    F *= grid.cell_volume
    return F


def convolve(grid: Grid, K_hat: np.ndarray, f: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Periodic convolution (K (*) f)(x) = h^d sum_y K(x - y) f(y), with
    K_hat = kernel_spectrum(grid, K).  Stacked kernels and fields convolve
    component by component in one transform pair.  The result is written
    into `out` when given, which may be f itself."""
    if f.shape[-grid.d:] != grid.shape or K_hat.shape[-grid.d:] != grid.spectral_shape:
        raise ConfigurationError("kernel spectrum or field does not match the grid")
    F = forward_transform(grid, f)
    F *= K_hat
    return inverse_transform(grid, F, out=out)


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Spectral Laplacian: multiplier -|xi|^2."""
    F = forward_transform(grid, f)
    F *= -grid.xi_squared
    return inverse_transform(grid, F)


def l2_norm(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum(f ** 2)))


def l1_norm(grid: Grid, f: np.ndarray) -> float:
    return float(grid.cell_volume * np.sum(np.abs(f)))


def h2_norms(grid: Grid, F: np.ndarray) -> np.ndarray:
    """Sobolev norm (|f|_L2^2 + |Lap f|_L2^2)^(1/2) of each field whose
    spectrum is F, by Parseval from the coefficients; leading axes index
    the fields.  One pass over the real and imaginary parts reduces the
    last axis against the weight, so nothing of the spectrum's size is
    allocated; the remaining grid axes are summed from that small array."""
    w = grid.norm_weight
    rows = np.einsum("...j,...j,...j->...", F.real, F.real, w)
    rows += np.einsum("...j,...j,...j->...", F.imag, F.imag, w)
    return np.sqrt(np.sum(rows, axis=grid.axes[1:]))


def h2_norm(grid: Grid, F: np.ndarray, G: np.ndarray | None = None) -> float:
    """Vector Sobolev norm of the stacked fields whose spectrum is F: the
    root of the sum of the squared component norms.  Given G, of F's
    shape, the norm of F - G, formed one component at a time."""
    if G is None:
        norms = h2_norms(grid, F)
    else:
        norms = np.array([h2_norms(grid, F[i] - G[i])
                          for i in np.ndindex(F.shape[:F.ndim - grid.d])])
    return float(np.sqrt(np.sum(norms ** 2)))


def tilde_w21_norm(grid: Grid, K: np.ndarray, deltaK: np.ndarray) -> float:
    """Kernel norm (|K|_L1^2 + |Lap K|_L1^2)^(1/2).  deltaK must be the
    Laplacian of K (symbolic where available, spectral otherwise)."""
    return float(np.hypot(l1_norm(grid, K), l1_norm(grid, deltaK)))


def tail_mass_fraction(grid: Grid, f: np.ndarray, kind: str = "l1") -> float:
    """Fraction of the field's mass (L1 for kernels, L2 for data fields)
    sitting in the outer TAIL_SHELL fraction of the box, per axis in sup
    norm.  Quantifies how much of the function the box truncation is
    clipping."""
    cutoff = (1.0 - TAIL_SHELL) * grid.L
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
