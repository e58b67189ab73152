"""Constants and certification: embedding and algebra constants, the C^1
bound on the nonlinearity, the cumulative kernel-operator weight Q, the
contraction factor sigma, and the verdict on the contraction condition

    c_a * M * (|u0| + 1)^2 * Q  <=  rho / 2,

which guarantees that the fixed-point map is a strict contraction of the
Sobolev ball of radius rho with factor sigma = 2 c_a Q M (|u0| + 1) < 1.

Constant provenance is tracked: 'rigorous-bound' values come from explicit
Fourier-side derivations, 'sampled-estimate' values from quasi-random sup
estimates inflated by a safety factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import exprdsl, sampling, spectral
from .errors import ConfigurationError
from .exprdsl import NonlinearitySpec
from .model import MaterializedProblem
from .spectral import Grid

SAMPLED_INFLATION = 1.1

# Derivation notes embedded in reports (the constants are not pulled from a
# table; these document how the code arrives at them).
EMBEDDING_DERIVATION = (
    "sup|f| <= (2pi)^-d int|F| <= (2pi)^-d (int |F|^2 (1+|xi|^4))^(1/2) "
    "(int (1+|xi|^4)^-1)^(1/2) by Cauchy-Schwarz, so c_e = "
    "(2pi)^(-d/2) (int_Rd (1+|xi|^4)^-1 dxi)^(1/2), with the radial integral in "
    "closed form: int_0^inf r^(d-1)/(1+r^4) dr = pi/(4 sin(d pi/4))."
)
ALGEBRA_DERIVATION = (
    "pointwise (1+|xi|^4) <= 8(1+|eta|^4) + 8(1+|xi-eta|^4) splits the weighted "
    "product transform into two Young-type convolutions; bounding the unweighted "
    "factor in L1 by the c_e integral gives c_a = 4*sqrt(2)*c_e."
)


def embedding_constant(d: int) -> float:
    """Constant in sup|f| <= c_e |f|_H2, valid on R^d for d = 2, 3."""
    if d not in (2, 3):
        raise ConfigurationError(f"dimension must be 2 or 3, got {d}")
    radial = np.pi / (4.0 * np.sin(d * np.pi / 4.0))
    angular = 2.0 * np.pi if d == 2 else 4.0 * np.pi
    return float((2.0 * np.pi) ** (-d / 2.0) * np.sqrt(angular * radial))


def lattice_embedding_constant(grid: Grid) -> float:
    """The exact embedding constant of the discrete frequency lattice:
    sup|f| <= c_lattice |f|_H2 holds for every grid field, with equality
    achievable.  Smaller than embedding_constant(d) on adequately large
    boxes; if it exceeds the continuous value the box is too small for the
    continuum constants to be valid on the grid."""
    total = float(np.sum(grid.multiplicity / grid.h2_weight))
    return float(np.sqrt(total / grid.volume))


def algebra_constant(d: int) -> float:
    """Constant in |fg|_H2 <= c_a |f|_H2 |g|_H2 for d = 2, 3."""
    return float(4.0 * np.sqrt(2.0) * embedding_constant(d))


def ball_radius_state(c_e: float, u0_norm: float) -> float:
    """Radius of the state-space ball on which the nonlinearity is measured:
    every pointwise value of u0 + v with |v|_H2 <= 1 lands inside it."""
    return float(c_e * (u0_norm + 1.0))


# --- sup norms of expressions -------------------------------------------------

@dataclass(frozen=True)
class C1Sample:
    """The point set of the sampled C^1 sups on the ball of radius `radius` in
    R^n: interior_per_component * n interior points (seed `seed`) and
    boundary_per_component * n sphere points (seed `seed + 1`).  Drawn on
    first use, then shared by every sampled estimate on the same ball."""

    n: int
    radius: float
    seed: int = 0
    interior_per_component: int = 4096
    boundary_per_component: int = 1024

    @cached_property
    def columns(self) -> list[np.ndarray]:
        pts = np.vstack([
            sampling.ball_points(self.n, self.radius,
                                 self.interior_per_component * self.n, seed=self.seed),
            sampling.ball_points(self.n, self.radius,
                                 self.boundary_per_component * self.n,
                                 seed=self.seed + 1, boundary=True)])
        return [pts[:, j] for j in range(self.n)]


def _c1_norm(g: NonlinearitySpec, sample: C1Sample, radius: float
             ) -> tuple[float, str]:
    """Sum over components of sup|g_m| + sum_j sup|dg_m/dz_j| on the ball.
    Rigorous coefficient bound when every piece is polynomial, otherwise a
    quasi-random sup estimate on `sample` inflated by SAMPLED_INFLATION."""
    n = g.n
    if (sample.n, sample.radius) != (n, radius):
        raise ConfigurationError(
            f"point set drawn in R^{sample.n} on radius {sample.radius}, "
            f"estimate asks for R^{n} on radius {radius}")
    polys = [exprdsl.as_polynomial(c, n) for c in g.components]
    if all(p is not None for p in polys):
        total = 0.0
        for m, comp_poly in enumerate(polys):
            total += exprdsl.polynomial_sup_bound(comp_poly, radius)
            for j in range(n):
                grad_poly = exprdsl.as_polynomial(g.gradient[m][j], n)
                total += exprdsl.polynomial_sup_bound(grad_poly, radius)
        return float(total), "rigorous-bound"

    # one interior and one sphere set shared by all N + N^2 sups
    cols = sample.columns
    total = 0.0
    for m in range(n):
        for e in (g.components[m], *g.gradient[m]):
            total += float(np.max(np.abs(exprdsl.evaluate_arrays(e, cols))))
    return float(total * SAMPLED_INFLATION), "sampled-estimate"


def estimate_M(g: NonlinearitySpec, r_state: float, seed: int = 0,
               interior_per_component: int = 4096,
               boundary_per_component: int = 1024,
               sample: C1Sample | None = None) -> tuple[float, str]:
    """C^1 bound of the nonlinearity on the state ball of radius r_state.
    A given `sample` on the same ball replaces the seed and point counts."""
    if sample is None:
        sample = C1Sample(g.n, r_state, seed, interior_per_component,
                          boundary_per_component)
    return _c1_norm(g, sample, r_state)


def c1_distance(g1: NonlinearitySpec, g2: NonlinearitySpec, r_state: float,
                seed: int = 0, sample: C1Sample | None = None) -> tuple[float, str]:
    """C^1 norm of g1 - g2 on the state ball (same policy as estimate_M)."""
    if sample is None:
        sample = C1Sample(g1.n, r_state, seed)
    return _c1_norm(g1.difference(g2), sample, r_state)


# --- aggregate constants --------------------------------------------------------

def compute_Q(operator_norms, kernel_w21_norms) -> float:
    """Cumulative weight sqrt(sum_m |T_m|^2 |K_m|_W21~^2)."""
    ops = np.asarray(operator_norms, dtype=float)
    kts = np.asarray(kernel_w21_norms, dtype=float)
    if ops.shape != kts.shape:
        raise ConfigurationError("operator and kernel norm lists differ in length")
    Q = float(np.sqrt(np.sum(ops ** 2 * kts ** 2)))
    if not 0.0 < Q < np.inf:
        raise ConfigurationError(f"cumulative weight Q must be positive and finite, got {Q}")
    return Q


def compute_sigma(c_a: float, Q: float, M: float, u0_norm: float) -> float:
    """Contraction factor sigma = 2 c_a Q M (|u0| + 1)."""
    if not Q > 0:
        raise ConfigurationError("Q must be positive")
    return float(2.0 * c_a * Q * M * (u0_norm + 1.0))


@dataclass(frozen=True)
class ContractionCertificate:
    """Verdict on the contraction condition for a given ball radius."""

    passed: bool
    lhs: float
    rho: float
    sigma: float
    feasible_interval: tuple[float, float] | None
    warnings: tuple[str, ...] = ()


def check_contraction_condition(c_a: float, M: float, u0_norm: float, Q: float,
                                rho: float) -> ContractionCertificate:
    """Evaluate c_a M (|u0|+1)^2 Q <= rho/2 and derive sigma.

    The feasible interval is the set of admissible radii [2*lhs, 1]; it is
    None when empty.  On a pass with nontrivial initial data, sigma < 1 is
    implied and asserted."""
    lhs = float(c_a * M * (u0_norm + 1.0) ** 2 * Q)
    sigma = compute_sigma(c_a, Q, M, u0_norm)
    feasible = (2.0 * lhs, 1.0) if 2.0 * lhs <= 1.0 else None
    passed = lhs <= rho / 2.0
    warnings = []
    if passed:
        # sigma = 2*lhs/(u0_norm+1) <= rho/(u0_norm+1) <= 1, strictly when u0 != 0
        if not sigma < 1.0:
            if sigma == 1.0 or u0_norm == 0.0:
                warnings.append("boundary case: contraction factor reached 1; "
                                "treating as pass-with-warning")
            else:
                raise AssertionError(
                    f"inconsistent certificate: condition passed but sigma = {sigma}")
        if lhs == rho / 2.0:
            warnings.append("condition holds with equality; no margin")
    return ContractionCertificate(passed=passed, lhs=lhs, rho=float(rho),
                                  sigma=sigma, feasible_interval=feasible,
                                  warnings=tuple(warnings))


def continuity_bound(c_a: float, Q: float, M: float, u0_norm: float,
                     c1_dist: float) -> float:
    """Theoretical bound on the solution shift caused by replacing the
    nonlinearity: sigma / (2 M (1 - sigma)) * (|u0| + 1) * |g1 - g2|_C1.

    Cross-checked against the equivalent form c_a Q (|u0|+1)^2 |g1-g2| / (1-sigma).
    Requires sigma < 1."""
    sigma = compute_sigma(c_a, Q, M, u0_norm)
    if not sigma < 1.0:
        raise ConfigurationError(f"continuity bound needs sigma < 1, got {sigma}")
    primary = sigma / (2.0 * M * (1.0 - sigma)) * (u0_norm + 1.0) * c1_dist
    alternate = c_a * Q * (u0_norm + 1.0) ** 2 * c1_dist / (1.0 - sigma)
    if not np.isclose(primary, alternate, rtol=1e-12, atol=1e-300):
        raise AssertionError(
            f"continuity bound identity violated: {primary} vs {alternate}")
    return float(primary)


# --- full constants report -------------------------------------------------------

@dataclass(frozen=True)
class ConstantsReport:
    """Every certified constant, its provenance, and the verdict."""

    d: int
    c_e: float
    c_a: float
    lattice_c_e: float
    u0_norm: float
    r_state: float
    M: float
    Q: float
    sigma: float
    rho: float
    operator_norms: tuple[float, ...]
    kernel_w21_norms: tuple[float, ...]
    certificate: ContractionCertificate
    provenance: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    constants_overridden: bool = False
    warnings: tuple[str, ...] = ()
    # the point set behind a sampled M, for later estimates on the same ball
    sample: C1Sample | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "c_e": float(self.c_e),
            "c_a": float(self.c_a),
            "lattice_c_e": float(self.lattice_c_e),
            "u0_norm": float(self.u0_norm),
            "r_state": float(self.r_state),
            "M": float(self.M),
            "Q": float(self.Q),
            "sigma": float(self.sigma),
            "rho": float(self.rho),
            "operator_norms": [float(v) for v in self.operator_norms],
            "kernel_w21_norms": [float(v) for v in self.kernel_w21_norms],
            "condition_lhs": float(self.certificate.lhs),
            "condition_pass": bool(self.certificate.passed),
            "rho_feasible_interval": (
                [float(v) for v in self.certificate.feasible_interval]
                if self.certificate.feasible_interval is not None else None),
            "provenance": dict(self.provenance),
            "notes": dict(self.notes),
            "constants_overridden": bool(self.constants_overridden),
            "warnings": list(self.warnings) + list(self.certificate.warnings),
        }


def constants_report(mat: MaterializedProblem, seed: int = 0) -> ConstantsReport:
    """Compute every constant for a materialized problem and judge the
    contraction condition.

    The ball radius defaults to the largest admissible value 1 when the
    condition is feasible there; an explicit radius in the problem spec is
    honored as given."""
    spec = mat.spec
    d = mat.grid.d
    overridden = spec.c_e_override is not None or spec.c_a_override is not None
    c_e = float(spec.c_e_override) if spec.c_e_override is not None else embedding_constant(d)
    c_a = float(spec.c_a_override) if spec.c_a_override is not None else algebra_constant(d)

    lattice_c_e = lattice_embedding_constant(mat.grid)
    warnings = []
    if overridden:
        warnings.append("non-certified constants: c_e/c_a overridden by the problem file")
    if lattice_c_e > c_e:
        warnings.append(
            f"lattice embedding constant {lattice_c_e:.6g} exceeds the continuum "
            f"value {c_e:.6g}; the box is too small for the continuum constants "
            f"to hold on this grid")

    r_state = ball_radius_state(c_e, mat.u0_norm)
    sample = C1Sample(spec.g.n, r_state, seed)
    M, m_prov = estimate_M(spec.g, r_state, sample=sample)
    kernel_norms = tuple(k.w21 for k in mat.kernels)
    Q = compute_Q(mat.operator_norms, kernel_norms)
    rho = spec.rho if spec.rho is not None else 1.0
    cert = check_contraction_condition(c_a, M, mat.u0_norm, Q, rho)
    sigma = cert.sigma

    provenance = {
        "c_e": "override" if spec.c_e_override is not None else "rigorous-bound",
        "c_a": "override" if spec.c_a_override is not None else "rigorous-bound",
        "M": m_prov,
        "Q": "composed",
        "sigma": "composed",
    }
    if m_prov == "sampled-estimate":
        warnings.append(
            f"M is a sampled estimate (inflated by {SAMPLED_INFLATION}); "
            f"not a rigorous bound")
    for k in mat.kernels:
        if k.delta_source == "spectral":
            warnings.append("a tabulated kernel uses a spectral Laplacian; "
                            "its W21~ norm carries discretization error")
            break

    return ConstantsReport(
        d=d, c_e=c_e, c_a=c_a, lattice_c_e=lattice_c_e,
        u0_norm=mat.u0_norm, r_state=r_state, M=M, Q=Q, sigma=sigma, rho=rho,
        operator_norms=mat.operator_norms, kernel_w21_norms=kernel_norms,
        certificate=cert, provenance=provenance,
        notes={"c_e": EMBEDDING_DERIVATION, "c_a": ALGEBRA_DERIVATION},
        constants_overridden=overridden, warnings=tuple(warnings), sample=sample,
    )


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
        fields = sampling.band_limited_batch(grid, batch, rng, band, slope)
        sups = np.max(np.abs(fields), axis=tuple(range(1, grid.d + 1)))
        h2 = spectral.h2_norms(grid, spectral.forward_transform(grid, fields))
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
        f = sampling.band_limited_batch(grid, batch, rng, band, slope)
        g = sampling.band_limited_batch(grid, batch, rng, band, slope)
        prod = f * g
        hf, hg, hp = (spectral.h2_norms(grid, spectral.forward_transform(grid, arr))
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

