"""Problem assembly: kernels, Fourier-multiplier operators, initial data,
the nonlinearity, and the structural checks they must pass.

A problem couples N scalar equations on one grid.  Each channel m carries a
convolution kernel K_m, a bounded multiplier operator T_m, and an initial
data component; the channels interact only through the nonlinearity
g: R^N -> R^N applied pointwise to the full state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from . import exprdsl, sampling, spectral
from .errors import AssumptionViolation, ConfigurationError
from .exprdsl import Expr, NonlinearitySpec
from .spectral import Grid

TAIL_MASS_WARN = 1e-8


# --- kernels -----------------------------------------------------------------

@dataclass(frozen=True)
class GaussianKernel:
    """Built-in kernel exp(-alpha |x|^2)."""
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigurationError(f"gaussian decay rate must be positive, got {self.alpha}")


@dataclass(frozen=True)
class ExpressionKernel:
    """Kernel given as a spatial expression over x1..xd."""
    text: str


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel given as raw samples on the grid."""
    values: np.ndarray


KernelSpec = Union[GaussianKernel, ExpressionKernel, TabulatedKernel]


def _gaussian_expr(alpha: float, d: int) -> Expr:
    r2: Expr = exprdsl.Pow(exprdsl.Var("x", 1), 2)
    for i in range(2, d + 1):
        r2 = exprdsl.Add(r2, exprdsl.Pow(exprdsl.Var("x", i), 2))
    return exprdsl.Call("exp", exprdsl.fold_neg(
        exprdsl.fold_mul(exprdsl.Num(float(alpha)), r2)))


@dataclass(frozen=True)
class MaterializedKernel:
    """A kernel sampled on the grid with its Laplacian and norms."""

    values: np.ndarray
    delta: np.ndarray
    delta_source: str  # 'symbolic' or 'spectral'
    w21: float
    tail_fraction: float

    @property
    def nontrivial(self) -> bool:
        return bool(np.any(self.values != 0.0))


def materialize_kernel(spec: KernelSpec, grid: Grid, strict: bool = True) -> MaterializedKernel:
    """Sample the kernel and its Laplacian.  The Laplacian is exact symbolic
    for built-in and expression kernels, spectral for tabulated ones.
    With strict=True a kernel that vanishes identically raises."""
    if isinstance(spec, GaussianKernel):
        expr = _gaussian_expr(spec.alpha, grid.d)
    elif isinstance(spec, ExpressionKernel):
        expr = exprdsl.parse(spec.text, grid.d, "x")
    elif isinstance(spec, TabulatedKernel):
        expr = None
    else:
        raise ConfigurationError(f"unknown kernel spec {spec!r}")

    if expr is not None:
        K = _sample_expression(expr, grid)
        delta_expr = exprdsl.laplacian_symbolic(expr, grid.d)
        dK = _sample_expression(delta_expr, grid)
        source = "symbolic"
    else:
        K = _tabulated(spec.values, grid, "tabulated kernel")
        dK = spectral.laplacian(grid, K)
        source = "spectral"

    if strict and not np.any(K != 0.0):
        raise AssumptionViolation("kernel vanishes identically on the grid")

    return MaterializedKernel(
        values=K,
        delta=dK,
        delta_source=source,
        w21=spectral.tilde_w21_norm(grid, K, dK),
        tail_fraction=spectral.tail_mass_fraction(grid, K, "l1"),
    )


def _sample_expression(expr: Expr, grid: Grid) -> np.ndarray:
    # evaluate_arrays refuses non-finite values
    vals = exprdsl.evaluate_arrays(expr, grid.coords)
    return np.array(np.broadcast_to(vals, grid.shape), dtype=float)


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

@dataclass(frozen=True)
class InverseHelmholtz:
    """Multiplier 1 / (1 + |xi|^2)."""


@dataclass(frozen=True)
class ScaledIdentity:
    alpha: float


@dataclass(frozen=True)
class RationalMultiplier:
    """Multiplier p(s)/q(s) with s = |xi|^2; q must stay positive on s >= 0.
    Coefficients are ascending in s."""
    p: tuple[float, ...]
    q: tuple[float, ...]


OperatorSpec = Union[InverseHelmholtz, ScaledIdentity, RationalMultiplier]


def multiplier_values(spec: OperatorSpec, grid: Grid) -> np.ndarray:
    """The multiplier evaluated on the half lattice of the grid's spectra.
    It depends on |xi|^2 alone, so the mirrored half takes the same values."""
    s = grid.xi_squared
    if isinstance(spec, InverseHelmholtz):
        return 1.0 / (1.0 + s)
    if isinstance(spec, ScaledIdentity):
        return np.full(grid.spectral_shape, float(spec.alpha))
    if isinstance(spec, RationalMultiplier):
        p = np.polynomial.polynomial.polyval(s, np.asarray(spec.p, dtype=float))
        q = np.polynomial.polynomial.polyval(s, np.asarray(spec.q, dtype=float))
        if np.min(q) <= 0:
            raise ConfigurationError("rational multiplier denominator is not positive "
                                     "on the frequency lattice")
        # polyval collapses degree-0 polynomials to scalars
        return np.array(np.broadcast_to(np.asarray(p / q, dtype=float), grid.spectral_shape))
    raise ConfigurationError(f"unknown operator spec {spec!r}")


def operator_norm(multiplier: np.ndarray) -> float:
    """Exact operator norm on the discrete Sobolev space: the multiplier
    commutes with the (1 + |xi|^4) weight, so the norm is sup |multiplier|
    over the lattice."""
    return float(np.max(np.abs(multiplier)))


# --- problem -----------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """Full problem description prior to sampling."""

    grid: Grid
    kernels: tuple[KernelSpec, ...]
    operators: tuple[OperatorSpec, ...]
    g: NonlinearitySpec
    u0: tuple[Union[Expr, np.ndarray], ...]
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

    @property
    def n(self) -> int:
        return self.g.n


@dataclass(frozen=True)
class MaterializedProblem:
    """A problem with every field sampled and every operator norm computed.
    Fields are stacked over the components, spectra in rfftn layout (see
    spectral)."""

    spec: ProblemSpec
    kernels: tuple[MaterializedKernel, ...]
    kernel_spectra: np.ndarray   # (N, *spectral_shape), from spectral.kernel_spectrum
    multipliers: np.ndarray      # (N, *spectral_shape)
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
    """Sample the initial data, stacked over the components.  With
    strict=True, initial data that vanishes identically in every component
    raises."""
    grid = problem.grid
    u0 = np.stack([_tabulated(entry, grid, "tabulated initial data")
                   if isinstance(entry, np.ndarray) else _sample_expression(entry, grid)
                   for entry in problem.u0])
    if strict and not np.any(u0 != 0.0):
        raise AssumptionViolation("initial data vanishes identically in every component")
    return u0


def materialize(problem: ProblemSpec, strict: bool = True) -> MaterializedProblem:
    """Sample all fields and precompute operator data: the kernel spectra,
    the multipliers and the spectrum of u0, each computed once here."""
    grid = problem.grid
    kernels = tuple(materialize_kernel(k, grid, strict=strict) for k in problem.kernels)
    mults = np.stack([multiplier_values(op, grid) for op in problem.operators])
    norms = tuple(operator_norm(m) for m in mults)
    if strict and 0.0 in norms:
        raise AssumptionViolation("operator multiplier vanishes identically")
    u0 = materialize_u0(problem, strict=strict)
    u0_spectrum = spectral.forward_transform(grid, u0)
    return MaterializedProblem(
        spec=problem,
        kernels=kernels,
        kernel_spectra=spectral.kernel_spectrum(grid, np.stack([k.values for k in kernels])),
        multipliers=mults,
        operator_norms=norms,
        u0=u0,
        u0_spectrum=u0_spectrum,
        u0_norm=spectral.h2_norm(grid, u0_spectrum),
        u0_tail_fractions=tuple(spectral.tail_mass_fraction(grid, c, "l2") for c in u0),
    )


# --- validation -----------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_assumptions(mat: MaterializedProblem,
                         ball_radius: float | None = None,
                         sample_seed: int = 0) -> ValidationReport:
    """Check the structural hypotheses of the problem data and collect every
    violation instead of stopping at the first.

    `ball_radius` is the radius of the state ball on which the nonlinearity
    must not vanish identically; when omitted a unit ball is probed.
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

    if not exprdsl.check_zero_at_origin(spec.g):
        report.violations.append("nonlinearity does not vanish at the origin")

    r = 1.0 if ball_radius is None else float(ball_radius)
    pts = sampling.random_ball_points(spec.n, r, 256, seed=sample_seed)
    cols = [pts[:, j] for j in range(spec.n)]
    try:
        values = spec.g.evaluate_components(cols)
        if all(np.max(np.abs(v)) <= 1e-14 for v in values):
            report.violations.append("nonlinearity vanishes identically on the state ball")
    except Exception as exc:  # domain fault inside the probed ball
        report.violations.append(f"nonlinearity evaluation failed on the state ball: {exc}")

    for m, norm in enumerate(mat.operator_norms):
        if norm == 0.0:
            report.violations.append(f"operator {m + 1} multiplier vanishes identically")
        elif not np.isfinite(norm):
            report.violations.append(f"operator {m + 1} norm is not finite")

    if spec.rho is not None and not (0.0 < spec.rho <= 1.0):
        report.violations.append(f"ball radius {spec.rho} outside (0, 1]")

    return report
