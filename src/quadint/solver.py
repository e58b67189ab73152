"""Fixed-point machinery: the auxiliary map, Picard iteration with a full
convergence trace, residuals against the original system, and the
nonlinearity-continuity experiment.

The auxiliary map sends v to the vector field with components

    (t_g v)_m = [T_m (u0_m + v_m)] . (K_m (*) g_m(u0 + v)),

where (*) is periodic convolution.  On a certified problem this map is a
strict contraction of the ball B_rho, so iteration from the center
converges geometrically to the unique perturbation u_p, and u = u0 + u_p
solves the original system.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import spectral
from .analysis import ConstantsReport, c1_distance, check_contraction_condition, \
    compute_sigma, continuity_bound, estimate_M
from .errors import BallEscapeError, ConfigurationError, NonConvergenceError
from .exprdsl import NonlinearitySpec
from .model import MaterializedProblem, VectorField
from .spectral import ScalarField

BALL_SLACK = 1e-9


def default_tolerance(u0_norm: float) -> float:
    return 1e-10 * max(1.0, u0_norm)


def apply_map_tg(mat: MaterializedProblem, v: VectorField) -> VectorField:
    """One application of the auxiliary map at v."""
    if v.grid != mat.grid or v.n != mat.n:
        raise ConfigurationError("input field does not match the problem grid/components")
    w = mat.u0 + v
    g_values = mat.g.evaluate_components(w.values_list())
    out = []
    for m in range(mat.n):
        integrand = ScalarField(mat.grid, np.array(np.broadcast_to(g_values[m], mat.grid.shape)))
        conv = spectral.convolve(mat.kernels[m].field, integrand)
        prefactor = spectral.apply_multiplier(w.components[m], mat.multipliers[m])
        out.append(prefactor * conv)
    return VectorField(tuple(out))


@dataclass
class IterationTrace:
    """Per-step record of the iteration: iterate norm, step difference,
    observed contraction ratio, and the geometric a-posteriori bound."""

    sigma: float | None
    ks: list[int] = field(default_factory=list)
    norms: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)
    bounds: list[float] = field(default_factory=list)

    def record(self, k: int, norm: float, delta: float) -> None:
        ratio = delta / self.deltas[-1] if self.deltas and self.deltas[-1] > 0 else float("nan")
        self.ks.append(k)
        self.norms.append(norm)
        self.deltas.append(delta)
        self.ratios.append(ratio if k > 1 else float("nan"))
        if self.sigma is not None and self.sigma < 1.0 and self.deltas:
            self.bounds.append(self.sigma ** k / (1.0 - self.sigma) * self.deltas[0])
        else:
            self.bounds.append(float("nan"))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("k,norm,delta,ratio,apost_bound\n")
        for k, norm, delta, ratio, bound in zip(
                self.ks, self.norms, self.deltas, self.ratios, self.bounds):
            buf.write(f"{k},{norm:.17g},{delta:.17g},{ratio:.17g},{bound:.17g}\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_csv())


@dataclass(frozen=True)
class Solution:
    u_p: VectorField
    u: VectorField
    residual: float
    iterations: int
    certified: bool


def a_posteriori_bound(trace: IterationTrace, sigma: float) -> list[float]:
    """Geometric error bounds sigma^k / (1 - sigma) * delta_1 for each
    recorded step; valid only for sigma < 1."""
    if not 0.0 <= sigma < 1.0:
        raise ConfigurationError(f"a-posteriori bound needs sigma in [0, 1), got {sigma}")
    if not trace.deltas:
        return []
    d1 = trace.deltas[0]
    return [sigma ** k / (1.0 - sigma) * d1 for k in trace.ks]


def picard_solve(mat: MaterializedProblem, report: ConstantsReport,
                 tol: float | None = None, max_iter: int = 200,
                 start: VectorField | None = None,
                 best_effort: bool = False) -> tuple[Solution, IterationTrace]:
    """Iterate the auxiliary map to its fixed point.

    Starts from the center of the ball (or `start`, which must lie inside it
    on certified runs).  Convergence is judged on the residual
    |v - t_g(v)|_H2, which the fixed-point statement controls directly; the
    returned iterate carries exactly that residual.

    Uncertified problems are refused unless best_effort is set, in which
    case divergence is a reportable outcome rather than an internal error.
    """
    certified = report.certificate.passed
    if not certified and not best_effort:
        raise ConfigurationError(
            "problem is not certified; pass best_effort=True to iterate anyway")
    if tol is None:
        tol = default_tolerance(mat.u0_norm)
    if tol <= 0 or max_iter < 1:
        raise ConfigurationError("tolerance must be positive and max_iter >= 1")

    rho = report.rho
    v = start if start is not None else VectorField.zero(mat.grid, mat.n)
    if certified and v.h2_norm() > rho * (1.0 + BALL_SLACK):
        raise ConfigurationError("starting point lies outside the certified ball")

    sigma = report.sigma if report.sigma < 1.0 else None
    trace = IterationTrace(sigma=sigma)
    escape_limit = 1e8 * max(1.0, mat.u0_norm)

    for k in range(1, max_iter + 1):
        w = apply_map_tg(mat, v)
        delta = (w - v).h2_norm()
        norm_w = w.h2_norm()
        trace.record(k, norm_w, delta)
        if delta <= tol:
            u_p = v
            u = assemble_solution(mat.u0, u_p)
            return Solution(u_p=u_p, u=u, residual=delta, iterations=k,
                            certified=certified), trace
        if certified and norm_w > rho * (1.0 + BALL_SLACK):
            raise BallEscapeError(
                f"iterate {k} left the certified ball: |w| = {norm_w} > rho = {rho}")
        if not certified and norm_w > escape_limit:
            raise NonConvergenceError(
                f"iteration diverged at step {k} (|w| = {norm_w:.3e})",
                iterations=k, last_delta=delta, trace=trace)
        v = w

    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations (last residual "
        f"{trace.deltas[-1]:.3e}, tolerance {tol:.3e})",
        iterations=max_iter, last_delta=trace.deltas[-1], trace=trace)


def assemble_solution(u0: VectorField, u_p: VectorField) -> VectorField:
    """The solution of the original system is initial data plus perturbation."""
    return u0 + u_p


def residual_original_system(mat: MaterializedProblem, u: VectorField) -> float:
    """Residual of the original system at u, independent of the perturbative
    route: |u_m - u0_m - [T_m u_m] . (K_m (*) g_m(u))| in the vector Sobolev
    norm.  Note the prefactor uses T_m u_m, not T_m(u0_m + v_m)."""
    if u.grid != mat.grid or u.n != mat.n:
        raise ConfigurationError("field does not match the problem grid/components")
    g_values = mat.g.evaluate_components(u.values_list())
    residual_components = []
    for m in range(mat.n):
        integrand = ScalarField(mat.grid, np.array(np.broadcast_to(g_values[m], mat.grid.shape)))
        conv = spectral.convolve(mat.kernels[m].field, integrand)
        prefactor = spectral.apply_multiplier(u.components[m], mat.multipliers[m])
        residual_components.append(
            u.components[m] - mat.u0.components[m] - prefactor * conv)
    return VectorField(tuple(residual_components)).h2_norm()


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of solving the same problem under two nonlinearities."""

    measured_distance: float
    bound: float
    passed: bool
    sigma_joint: float
    M_joint: float
    c1_dist: float
    c1_provenance: str
    iterations: tuple[int, int]

    def to_dict(self) -> dict:
        return {
            "measured_distance": float(self.measured_distance),
            "bound": float(self.bound),
            "passed": bool(self.passed),
            "sigma_joint": float(self.sigma_joint),
            "M_joint": float(self.M_joint),
            "c1_distance": float(self.c1_dist),
            "c1_provenance": self.c1_provenance,
            "iterations": [int(v) for v in self.iterations],
        }


def continuity_experiment(mat: MaterializedProblem, report: ConstantsReport,
                          g2: NonlinearitySpec, tol: float | None = None,
                          seed: int = 0) -> ContinuityReport:
    """Solve the problem under its own nonlinearity and under g2, then compare
    the measured solution distance with the theoretical bound.

    Both nonlinearities must satisfy the contraction condition with the joint
    C^1 bound M = max(M_1, M_2); sigma and the bound are formed with that M.
    `report` must come from constants_report(mat, seed): its M is taken as
    M_1 rather than estimated again, and its point set serves the sampled
    estimates of M_2 and |g1 - g2|_C1.
    """
    if tol is None:
        tol = default_tolerance(mat.u0_norm)
    g1 = mat.g
    if g2.n != g1.n:
        raise ConfigurationError("the two nonlinearities have different component counts")

    M1, prov1 = report.M, report.provenance["M"]
    M2, prov2 = estimate_M(g2, report.r_state, seed=seed, sample=report.sample)
    M_joint = max(M1, M2)
    cert = check_contraction_condition(report.c_a, M_joint, report.u0_norm,
                                       report.Q, report.rho)
    if not cert.passed:
        raise ConfigurationError(
            "contraction condition fails with the joint C1 bound; "
            "the continuity statement does not apply")
    sigma_joint = cert.sigma

    joint_report = _with_joint_M(report, M_joint, cert)
    sol1, _ = picard_solve(mat, joint_report, tol=tol)
    mat2 = _with_nonlinearity(mat, g2)
    sol2, _ = picard_solve(mat2, joint_report, tol=tol)

    measured = (sol1.u - sol2.u).h2_norm()
    dist, dist_prov = c1_distance(g1, g2, report.r_state, seed=seed,
                                  sample=report.sample)
    bound = continuity_bound(report.c_a, report.Q, M_joint, report.u0_norm, dist)
    passed = measured <= bound + 2.0 * tol
    return ContinuityReport(
        measured_distance=measured, bound=bound, passed=passed,
        sigma_joint=sigma_joint, M_joint=M_joint, c1_dist=dist,
        c1_provenance=dist_prov if prov1 == prov2 == "rigorous-bound" else "sampled-estimate",
        iterations=(sol1.iterations, sol2.iterations),
    )


def _with_joint_M(report: ConstantsReport, M_joint: float, cert) -> ConstantsReport:
    sigma = compute_sigma(report.c_a, report.Q, M_joint, report.u0_norm)
    return replace(report, M=M_joint, sigma=sigma, certificate=cert)


def _with_nonlinearity(mat: MaterializedProblem, g2: NonlinearitySpec) -> MaterializedProblem:
    return replace(mat, spec=replace(mat.spec, g=g2))
