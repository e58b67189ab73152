"""Constants and certification: embedding and algebra constants, the C^1
bound on the nonlinearity, the cumulative kernel-operator weight Q, the
contraction factor sigma, and the verdict on the contraction condition

    c_a * M * (|u0| + 1)^2 * Q  <=  rho / 2,

which guarantees that the fixed-point map is a strict contraction of the
Sobolev ball of radius rho with factor sigma = 2 c_a Q M (|u0| + 1) < 1.

Constant provenance is tracked: 'rigorous-bound' values come from explicit
Fourier-side derivations or outward-rounded enclosures, 'override' values
from the problem file.  A C^1 bound that cannot be enclosed is refused,
never estimated.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, fields
from functools import cached_property

import numpy as np

from . import exprdsl
from .errors import ConfigurationError, NumericOverflowError
from .exprdsl import NonlinearitySpec
from .model import MaterializedProblem, ProblemSpec
from .records import Record
from .spectral import Grid

# Derivation notes embedded in reports (the constants are not pulled from a
# table; these document how the code arrives at them).
EMBEDDING_DERIVATION = (
    "sup|f| <= (2pi)^-d int|F| <= (2pi)^-d (int |F|^2 (1+|xi|^4))^(1/2) "
    "(int (1+|xi|^4)^-1)^(1/2) by Cauchy-Schwarz, so c_e = "
    "(2pi)^(-d/2) (int_Rd (1+|xi|^4)^-1 dxi)^(1/2), with the radial integral in "
    "closed form: int_0^inf r^(d-1)/(1+r^4) dr = pi/(4 sin(d pi/4))."
)
ALGEBRA_DERIVATION = (
    "(1+|xi|^4)^(1/2) <= 2(1+|eta|^4)^(1/2) + 2(1+|xi-eta|^4)^(1/2): squared, the "
    "slack is at least 7 + (s-t)^2(3s^2+2st+3t^2), s = |eta|, t = |xi-eta|. Two "
    "Young convolutions and the c_e integral give c_a = 4*c_e."
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
    return 4.0 * embedding_constant(d)


def problem_embedding_constant(spec: ProblemSpec) -> float:
    """The c_e of a problem: the file's override, else embedding_constant(d)."""
    c_e = spec.c_e_override
    return embedding_constant(spec.grid.d) if c_e is None else float(c_e)


def ball_radius_state(c_e: float, u0_norm: float) -> float:
    """Radius of the state-space ball on which the nonlinearity is measured:
    every pointwise value of u0 + v with |v|_H2 <= 1 lands inside it."""
    return float(c_e * (u0_norm + 1.0))


# --- sup norms of expressions -------------------------------------------------

# boxes per group of C^1 expressions in the interval enclosure of M: a group
# that reads k variables covers [-r, r]^k with m^k boxes, m the largest
# whole number (at least 1) with m^k <= ENCLOSURE_BOXES
ENCLOSURE_BOXES = 64


def box_cover(k: int, radius: float) -> np.ndarray:
    """The boxes of a uniform grid on [-r, r]^k, r = `radius` rounded up,
    that meet the ball of radius r: shape (k, 2, boxes), the lower and the
    upper edges of each box along each axis.  Neighbouring boxes share
    their edges, so the boxes kept cover the ball."""
    r = math.nextafter(radius, math.inf)
    m = 1
    while (m + 1) ** k <= ENCLOSURE_BOXES:
        m += 1
    edges = np.linspace(-r, r, m + 1)
    cells = np.indices((m,) * k).reshape(k, -1)
    cover = np.stack([edges[cells], edges[cells + 1]], axis=1)
    # the point of each box nearest the origin; the slack keeps a box whose
    # distance rounds above r
    nearest = np.where(cover[:, 0] > 0, cover[:, 0],
                       np.where(cover[:, 1] < 0, -cover[:, 1], 0.0))
    return cover[:, :, np.sum(nearest ** 2, axis=0) <= r * r * (1.0 + 1e-12)]


def _enclosed_bound(exprs, radius: float, enclose, what: str) -> float:
    """The C^1 bound by enclosure: each of the C^1 expressions `exprs` that
    reads k variables is enclosed by `enclose` (exprdsl.enclose_many or
    enclose_affine) on box_cover(k, radius) along those variables, which
    covers the projection of the ball of R^N, and its sup is the largest
    endpoint magnitude.  The sups are summed and rounded up.  When an
    enclosure refuses, ConfigurationError names `what`."""
    exprs = [e for e in exprs if e != exprdsl.Num(0.0)]
    groups: dict[tuple[int, ...], list] = {}
    for e, variables in zip(exprs, exprdsl.variables(exprs)):
        groups.setdefault(variables, []).append(e)
    covers: dict[int, np.ndarray] = {}
    sups = []
    for variables, members in groups.items():
        k = len(variables)
        if k and k not in covers:
            covers[k] = box_cover(k, radius)
        enclosures = enclose(members, dict(zip(variables, covers.get(k, ()))))
        if enclosures is None:
            raise ConfigurationError(
                f"{what} cannot be enclosed on the state ball of radius {radius:.6g} "
                f"(a divisor may vanish, or a square-root argument may be negative)")
        sups.extend(float(np.max(np.abs(v))) for v in enclosures)
    total = math.fsum(sups)
    return math.nextafter(total, math.inf) if total else 0.0


def estimate_M(g: NonlinearitySpec, radius: float, name: str = "g") -> float:
    """C^1 bound of the nonlinearity on the state ball of the given radius:
    the sum over components of sup|g_m| + sum_j sup|dg_m/dz_j|, by a
    rigorous interval enclosure (_enclosed_bound).  A refusal names g
    as `name`."""
    return _enclosed_bound(g.c1_expressions, radius, exprdsl.enclose_many,
                           f"the C1 bound of {name}")


def c1_distance(g1: NonlinearitySpec, g2: NonlinearitySpec, radius: float) -> float:
    """|g1 - g2|_C1 on the state ball of the given radius, as estimate_M
    bounds M but by affine forms, in which the subexpressions that g1 and
    g2 share cancel."""
    return _enclosed_bound(g1.difference(g2).c1_expressions, radius,
                           exprdsl.enclose_affine, "the C1 distance of g and g2")


# --- aggregate constants --------------------------------------------------------

def compute_Q(operator_norms, kernel_w21_norms) -> float:
    """Cumulative weight sqrt(sum_m |T_m|^2 |K_m|_W21~^2)."""
    ops = np.asarray(operator_norms, dtype=float)
    kts = np.asarray(kernel_w21_norms, dtype=float)
    if ops.shape != kts.shape:
        raise ConfigurationError("operator and kernel norm lists differ in length")
    with np.errstate(over="ignore"):
        Q = float(np.sqrt(np.sum(ops ** 2 * kts ** 2)))
    if Q == np.inf:
        raise NumericOverflowError(
            f"the squares in the cumulative weight Q overflow a double (largest "
            f"kernel W21~ norm {float(np.max(kts)):.3g}, largest operator norm "
            f"{float(np.max(ops)):.3g})")
    if not 0.0 < Q < np.inf:
        raise ConfigurationError(f"cumulative weight Q must be positive and finite, got {Q}")
    return Q


class ContractionCertificate(Record, namedtuple(
        "ContractionCertificate", "passed lhs sigma feasible_interval warnings")):
    """Verdict on the contraction condition for a given ball radius; the
    feasible interval is a pair of floats or None, the warnings a tuple of
    strings."""

    __slots__ = ()


def check_contraction_condition(c_a: float, M: float, u0_norm: float, Q: float,
                                rho: float) -> ContractionCertificate:
    """Evaluate c_a M (|u0|+1)^2 Q <= rho/2, for rho in (0, 1] and Q > 0, and
    derive the contraction factor sigma = 2 c_a Q M (|u0|+1) = 2 lhs/(|u0|+1).
    The feasible interval is the set of admissible radii [2*lhs, 1]; it is
    None when empty."""
    if not Q > 0:
        raise ConfigurationError("Q must be positive")
    if not 0.0 < rho <= 1.0:
        raise ConfigurationError(f"ball radius must lie in (0, 1], got {rho}")
    lhs = float(c_a * M * (u0_norm + 1.0) ** 2 * Q)
    # a pass gives lhs <= rho/2 <= 1/2, and |u0| + 1 rounds to 1 or more, so
    # the rounded quotient is at most 1; it is 1 only when lhs = 1/2 (hence
    # rho = 1) and |u0| + 1 rounds to 1
    sigma = 2.0 * lhs / (u0_norm + 1.0)
    feasible = (2.0 * lhs, 1.0) if 2.0 * lhs <= 1.0 else None
    passed = lhs <= rho / 2.0
    warnings = []
    if passed and sigma == 1.0:
        warnings.append("boundary case: contraction factor reached 1; "
                        "treating as pass-with-warning")
    if passed and lhs == rho / 2.0:
        warnings.append("condition holds with equality; no margin")
    return ContractionCertificate(passed=passed, lhs=lhs, sigma=sigma,
                                  feasible_interval=feasible, warnings=tuple(warnings))


# --- full constants report -------------------------------------------------------

@dataclass(frozen=True)
class ConstantsReport:
    """Every certified constant, its provenance, and the verdict, which the
    report derives from its own constants: `dataclasses.replace` with a new
    M or rho judges them afresh, and a certificate is not a field, so it
    cannot be passed in.  That copy is why it stays a dataclass where the
    other value classes are records (records.py)."""

    d: int
    c_e: float
    c_a: float
    lattice_c_e: float
    u0_norm: float
    M: float
    Q: float
    operator_norms: tuple[float, ...]
    kernel_w21_norms: tuple[float, ...]
    rho: float
    # the radius of the state ball on which M is enclosed
    r_state: float
    provenance: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    constants_overridden: bool = False
    warnings: tuple[str, ...] = ()

    @cached_property
    def certificate(self) -> ContractionCertificate:
        return check_contraction_condition(self.c_a, self.M, self.u0_norm, self.Q, self.rho)

    @property
    def sigma(self) -> float:
        return self.certificate.sigma

    def continuity_bound(self, c1_dist: float) -> float:
        """Theoretical bound on the solution shift caused by replacing the
        nonlinearity by one within `c1_dist` in C^1 norm, both bounded by
        this report's M: sigma / (2 M (1 - sigma)) * (|u0| + 1) * c1_dist,
        which equals c_a Q (|u0|+1)^2 c1_dist / (1-sigma).  Requires
        sigma < 1."""
        sigma = self.sigma
        if not sigma < 1.0:
            raise ConfigurationError(f"continuity bound needs sigma < 1, got {sigma}")
        return float(sigma / (2.0 * self.M * (1.0 - sigma)) * (self.u0_norm + 1.0) * c1_dist)

    def to_dict(self) -> dict:
        """Every field under its own name, the certificate's verdict, and the
        report's warnings followed by the certificate's."""
        cert = self.certificate
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "sigma": cert.sigma, "condition_lhs": cert.lhs,
                "condition_pass": cert.passed,
                "rho_feasible_interval": cert.feasible_interval,
                "warnings": self.warnings + cert.warnings}


def constants_report(mat: MaterializedProblem) -> ConstantsReport:
    """Compute every constant for a materialized problem and judge the
    contraction condition.

    The ball radius is the problem spec's, as given, or else the largest
    admissible value 1, whether or not the condition holds there; the
    report's feasible interval says which radii would pass."""
    spec = mat.spec
    d = mat.grid.d
    overridden = spec.c_e_override is not None or spec.c_a_override is not None
    c_e = problem_embedding_constant(spec)
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
    M = estimate_M(spec.g, r_state)
    kernel_norms = tuple(k.w21 for k in mat.kernels)
    Q = compute_Q(mat.operator_norms, kernel_norms)

    provenance = {
        "c_e": "override" if spec.c_e_override is not None else "rigorous-bound",
        "c_a": "override" if spec.c_a_override is not None else "rigorous-bound",
        "M": "rigorous-bound",
        "Q": "composed",
        "sigma": "composed",
    }
    if any(isinstance(k, np.ndarray) for k in spec.kernels):
        warnings.append("a tabulated kernel uses a spectral Laplacian; "
                        "its W21~ norm carries discretization error")

    return ConstantsReport(
        d=d, c_e=c_e, c_a=c_a, lattice_c_e=lattice_c_e,
        u0_norm=mat.u0_norm, M=M, Q=Q,
        operator_norms=mat.operator_norms, kernel_w21_norms=kernel_norms,
        rho=spec.rho if spec.rho is not None else 1.0,
        r_state=r_state, provenance=provenance,
        notes={"c_e": EMBEDDING_DERIVATION, "c_a": ALGEBRA_DERIVATION},
        constants_overridden=overridden, warnings=tuple(warnings),
    )

