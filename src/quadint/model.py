"""Problem assembly: kernels, Fourier-multiplier operators, initial data,
the nonlinearity, and the structural checks they must pass.

A problem couples N scalar equations on one grid.  Each channel m carries a
convolution kernel K_m, a bounded multiplier operator T_m, and an initial
data component; the channels interact only through the nonlinearity
g: R^N -> R^N applied pointwise to the full state.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import exprdsl, spectral
from .errors import AssumptionViolation, ConfigurationError, NumericOverflowError
from .exprdsl import Expr, NonlinearitySpec
from .records import Record
from .spectral import Grid

TAIL_MASS_WARN = 1e-8

# Estimated peak working set of check and solve on a large grid: this many
# stacked fields of N * n^d doubles plus this many fields of n^d doubles; an
# estimate for the grid-size refusal, not a bound (README, "Memory").
PEAK_STACKED_FIELDS = 7
PEAK_COMPONENT_FIELDS = 2


# --- kernels -----------------------------------------------------------------

class GaussianKernel(Record, namedtuple("GaussianKernel", "alpha")):
    """Built-in kernel exp(-alpha |x|^2)."""

    __slots__ = ()

    def __new__(cls, alpha: float):
        if not alpha > 0:
            raise ConfigurationError(f"gaussian decay rate must be positive, got {alpha}")
        return super().__new__(cls, alpha)


def _gaussian_expr(alpha: float, d: int) -> Expr:
    r2: Expr = exprdsl.Pow(exprdsl.Var("x", 1), 2)
    for i in range(2, d + 1):
        r2 = exprdsl.Add(r2, exprdsl.Pow(exprdsl.Var("x", i), 2))
    return exprdsl.Call("exp", exprdsl.fold_neg(
        exprdsl.fold_mul(exprdsl.Num(float(alpha)), r2)))


class MaterializedKernel(Record, namedtuple("MaterializedKernel",
                                             "w21 tail_fraction nontrivial")):
    """The norms of a kernel sampled on the grid; the samples themselves
    live on only as the kernel's spectrum (MaterializedProblem.kernel_spectra),
    and sample_kernel gives them again."""

    __slots__ = ()


def sample_kernel(spec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The kernel K and its Laplacian sampled on the grid: the spectral
    Laplacian of a tabulated kernel (an ndarray), the exact symbolic one of
    a Gaussian or an expression kernel (an Expr over x1..xd)."""
    if isinstance(spec, np.ndarray):
        K = _tabulated(spec, grid, "tabulated kernel")
        return K, spectral.laplacian(grid, K)
    expr = _gaussian_expr(spec.alpha, grid.d) if isinstance(spec, GaussianKernel) else spec
    # the Laplacian first: K then takes the buffer of a temporary that it is
    # the last to read, exp(-alpha |x|^2) for a Gaussian.  evaluate_many
    # refuses non-finite values; one over fewer than d coordinates is broadcast
    dK, K = (v if v.shape == grid.shape else np.array(np.broadcast_to(v, grid.shape))
             for v in exprdsl.evaluate_many(
                 [exprdsl.laplacian_symbolic(expr, grid.d), expr], grid.coords))
    return K, dK


def materialize_kernel(spec, grid: Grid, strict: bool = True
                       ) -> tuple[MaterializedKernel, np.ndarray]:
    """Sample the kernel and compute its norms; returns them with the
    samples K, which the caller turns into the kernel's spectrum.  The
    Laplacian serves the W21 norm and is not kept.  With strict=True a
    kernel that vanishes identically raises."""
    K, dK = sample_kernel(spec, grid)
    nontrivial = bool(np.any(K != 0.0))
    if strict and not nontrivial:
        raise AssumptionViolation("kernel vanishes identically on the grid")
    return MaterializedKernel(
        w21=spectral.tilde_w21_norm(grid, K, dK),
        tail_fraction=spectral.tail_mass_fraction(grid, K, "l1"),
        nontrivial=nontrivial,
    ), K


def _tabulated(values, grid: Grid, what: str) -> np.ndarray:
    """Raw samples from a problem file, checked against the grid."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != grid.shape:
        raise ConfigurationError(
            f"{what} shape {vals.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError(f"{what} contains non-finite samples")
    return vals


# --- operators ---------------------------------------------------------------

class RationalMultiplier(Record, namedtuple("RationalMultiplier", "p q")):
    """Multiplier p(s)/q(s) with s = |xi|^2; q must stay positive on s >= 0.
    Coefficients, tuples of floats, are ascending in s.  The problem file's
    inverse_helmholtz is p = (1,), q = (1, 1), and its scaled_identity
    alpha is p = (alpha,), q = (1,)."""

    __slots__ = ()


def _horner(coeffs: tuple[float, ...], s: np.ndarray):
    """Horner's rule from the top coefficient; a constant stays a float."""
    value = float(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        value = value * s + c
    return value


def multiplier_values(spec: RationalMultiplier, grid: Grid) -> np.ndarray:
    """The multiplier evaluated on the half lattice of the grid's spectra.
    It depends on |xi|^2 alone, so the mirrored half takes the same values."""
    s = grid.xi_squared
    p, q = _horner(spec.p, s), _horner(spec.q, s)
    if np.min(q) <= 0:
        raise ConfigurationError("rational multiplier denominator is not positive "
                                 "on the frequency lattice")
    values = p / q
    return values if isinstance(values, np.ndarray) else np.full(grid.spectral_shape, values)


def operator_norm(multiplier: np.ndarray) -> float:
    """Exact operator norm on the discrete Sobolev space: the multiplier
    commutes with the (1 + |xi|^4) weight, so the norm is sup |multiplier|
    over the lattice."""
    return float(np.max(np.abs(multiplier)))


def equal_groups(specs) -> list[list[int]]:
    """The indices of kernel or operator specs grouped by equality, in the
    order of each group's first index; materialize and the map do the work
    of a group once.  An expression kernel compares by its tree, an
    operator by its coefficients; a tabulated kernel is an array and forms
    a group of its own."""
    groups: dict = {}
    for m, spec in enumerate(specs):
        groups.setdefault(m if isinstance(spec, np.ndarray) else spec, []).append(m)
    return list(groups.values())


# --- problem -----------------------------------------------------------------

# ProblemSpec and MaterializedProblem stay frozen dataclasses, not records:
# continuity and the oracle copy them with dataclasses.replace.

@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description prior to sampling."""

    grid: Grid
    kernels: tuple[GaussianKernel | Expr | np.ndarray, ...]
    operators: tuple[RationalMultiplier, ...]
    g: NonlinearitySpec
    u0: tuple[Expr | np.ndarray, ...]
    rho: float | None = None
    c_e_override: float | None = None
    c_a_override: float | None = None

    def __post_init__(self):
        n = self.g.n
        if not (len(self.kernels) == len(self.operators) == len(self.u0) == n):
            raise ConfigurationError(
                "kernels, operators, u0, and g must all have the same component count")
        if self.rho is not None and not (0.0 < self.rho <= 1.0):
            raise ConfigurationError(f"ball radius must lie in (0, 1], got {self.rho}")
        for name, value in (("c_e", self.c_e_override), ("c_a", self.c_a_override)):
            # a constant of zero or below would pass the contraction condition
            if value is not None and not 0.0 < value < np.inf:
                raise ConfigurationError(
                    f"constant override {name} must be finite and positive, got {value}")

    @property
    def n(self) -> int:
        return self.g.n


@dataclass(frozen=True)
class MaterializedProblem:
    """A problem with every field sampled and every operator norm computed.
    Fields are stacked over the components, spectra in rfftn layout (see
    spectral).  The multipliers are not held: the map evaluates each
    distinct one from its operator (multiplier_values) when it applies it."""

    spec: ProblemSpec
    kernels: tuple[MaterializedKernel, ...]
    kernel_spectra: np.ndarray   # (N, *spectral_shape), spectral.kernel_spectrum of each kernel
    operator_norms: tuple[float, ...]
    u0: np.ndarray               # (N, *shape)
    u0_spectrum: np.ndarray      # (N, *spectral_shape)
    u0_norm: float
    u0_tail_fractions: tuple[float, ...]

    @property
    def grid(self) -> Grid:
        return self.spec.grid

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def g(self) -> NonlinearitySpec:
        return self.spec.g


def materialize_u0(problem: ProblemSpec, strict: bool = True) -> np.ndarray:
    """Sample the initial data, stacked over the components.  Data whose
    squares overflow a double raises NumericOverflowError.  With
    strict=True, initial data that vanishes identically in every component
    raises."""
    grid = problem.grid
    u0 = np.empty((problem.n,) + grid.shape)
    rows = [m for m, entry in enumerate(problem.u0) if not isinstance(entry, np.ndarray)]
    for m, entry in enumerate(problem.u0):
        if m not in rows:
            u0[m] = _tabulated(entry, grid, "tabulated initial data")
    # each expression component is broadcast into its row as soon as it is sampled
    exprdsl.evaluate_many([problem.u0[m] for m in rows], grid.coords,
                          take=lambda i, values: np.copyto(u0[rows[i]], values))
    peak = max(float(np.max(u0)), -float(np.min(u0)))
    if not math.isfinite(peak * peak):
        raise NumericOverflowError(
            f"initial data reaches {peak:.3g}, whose square overflows a double")
    if strict and not np.any(u0 != 0.0):
        raise AssumptionViolation("initial data vanishes identically in every component")
    return u0


def working_set_bytes(grid: Grid, components: int) -> int:
    """Estimated peak working set of check and solve on the grid, in bytes."""
    fields = PEAK_STACKED_FIELDS * components + PEAK_COMPONENT_FIELDS
    return fields * grid.num_points * 8


def physical_memory_bytes() -> int | None:
    """Physical memory of the machine, or None where the OS does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_working_set(grid: Grid, components: int) -> None:
    """Refuse a grid whose estimated working set exceeds physical memory;
    it only computes, so it runs before any field is allocated."""
    need, have = working_set_bytes(grid, components), physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigurationError(
            f"grid d={grid.d}, n={grid.n} with {components} component(s) needs about "
            f"{need / 1e9:.3g} GB ({PEAK_STACKED_FIELDS}N + {PEAK_COMPONENT_FIELDS} fields "
            f"of n^d doubles), more than the {have / 1e9:.3g} GB of physical memory")


def materialize(problem: ProblemSpec, strict: bool = True) -> MaterializedProblem:
    """Sample all fields and precompute operator data: the kernel spectra,
    the operator norms and the spectrum of u0, each computed once here:
    once per group of equal specs (equal_groups), whose members share the
    result.  Of the sampled fields only u0 is kept: each kernel is sampled,
    measured and transformed in turn, and dropped once its spectrum is
    written.  A grid too large for the machine is refused first, and
    initial data whose squares or H2 norm overflow a double before anything
    else uses it."""
    grid = problem.grid
    check_working_set(grid, problem.n)
    u0 = materialize_u0(problem, strict=strict)
    u0_spectrum = spectral.forward_transform(grid, u0)
    with np.errstate(over="ignore", invalid="ignore"):
        u0_norm = spectral.h2_norm(grid, u0_spectrum)
    if not math.isfinite(u0_norm):
        raise NumericOverflowError("the H2 norm of the initial data overflows a double")
    norms = [0.0] * problem.n
    for rows in equal_groups(problem.operators):
        norm = operator_norm(multiplier_values(problem.operators[rows[0]], grid))
        for m in rows:
            norms[m] = norm
    if strict and 0.0 in norms:
        raise AssumptionViolation("operator multiplier vanishes identically")
    kernels: list = [None] * problem.n
    kernel_spectra = np.empty((problem.n,) + grid.spectral_shape, dtype=complex)
    for rows in equal_groups(problem.kernels):
        kernel, K = materialize_kernel(problem.kernels[rows[0]], grid, strict=strict)
        kernel_spectra[rows] = spectral.kernel_spectrum(grid, K)
        del K
        for m in rows:
            kernels[m] = kernel
    return MaterializedProblem(
        spec=problem,
        kernels=tuple(kernels),
        kernel_spectra=kernel_spectra,
        operator_norms=tuple(norms),
        u0=u0,
        u0_spectrum=u0_spectrum,
        u0_norm=u0_norm,
        u0_tail_fractions=tuple(spectral.tail_mass_fraction(grid, c, "l2") for c in u0),
    )


# --- validation -----------------------------------------------------------------

class ValidationReport:
    """The violated hypotheses and the warnings, lists of messages that
    validate_assumptions fills."""

    def __init__(self):
        self.violations: list[str] = []
        self.warnings: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_assumptions(mat: MaterializedProblem,
                         ball_radius: float | None = None) -> ValidationReport:
    """Check the structural hypotheses of the problem data and collect every
    violation instead of stopping at the first.

    g(0) = 0 and a g not identically zero on the state ball of radius
    `ball_radius` (1 when omitted) are decided by enclosures at fixed
    points (README, "The structural checks").
    """
    report = ValidationReport()
    spec = mat.spec

    for m, k in enumerate(mat.kernels):
        if not k.nontrivial:
            report.violations.append(f"kernel {m + 1} vanishes identically")
        elif k.tail_fraction > TAIL_MASS_WARN:
            report.warnings.append(
                f"kernel {m + 1} has relative tail mass {k.tail_fraction:.3e} "
                f"in the outer shell of the box; consider a larger L")

    if not np.any(mat.u0 != 0.0):
        report.violations.append("initial data vanishes identically in every component")
    for m, frac in enumerate(mat.u0_tail_fractions):
        if frac > TAIL_MASS_WARN:
            report.warnings.append(
                f"initial data component {m + 1} has relative tail mass {frac:.3e}")

    # one point box per column: the origin, +-(r/2) e_j, +-(r/2)(1,...,1)/sqrt(N),
    # and (r/2)(1, -2, 3, ...)/|(1, 2, 3, ...)|; an enclosure that excludes 0
    # proves that g is not 0 at its point
    h = 0.5 * (1.0 if ball_radius is None else float(ball_radius))
    j = np.arange(1.0, spec.n + 1.0)
    spokes = np.column_stack([np.eye(spec.n) * h, np.full(spec.n, h / math.sqrt(spec.n))])
    points = np.column_stack([np.zeros(spec.n), spokes, -spokes,
                              h * np.where(j % 2, j, -j) / math.sqrt(j @ j)])
    values = exprdsl.enclose_many(spec.g.components,
                                  {m + 1: np.stack([p, p]) for m, p in enumerate(points)})
    proved = np.zeros(points.shape[1], dtype=bool)
    for v in values or ():
        proved |= (v[0] > 0) | (v[1] < 0)
    if proved[0]:
        report.violations.append("nonlinearity does not vanish at the origin")
    if not proved[1:].any():
        report.violations.append("nonlinearity is not proved non-zero on the state ball: " + (
            "its enclosure excludes 0 at none of the probe points" if values else
            "its enclosure at the probe points refuses (a divisor may vanish, or a "
            "square-root argument may be negative)"))

    for m, norm in enumerate(mat.operator_norms):
        if norm == 0.0:
            report.violations.append(f"operator {m + 1} multiplier vanishes identically")
        elif not np.isfinite(norm):
            report.violations.append(f"operator {m + 1} norm is not finite")

    return report
