"""Fixed-point machinery: the auxiliary map, Picard iteration with a full
convergence trace, residuals against the original system, and the
nonlinearity-continuity experiment.

The auxiliary map sends v to the vector field with components

    (t_g v)_m = [T_m (u0_m + v_m)] . (K_m (*) g_m(u0 + v)),

where (*) is periodic convolution.  On a certified problem this map is a
strict contraction of the ball B_rho, so iteration from the center
converges geometrically to the unique perturbation u_p, and u = u0 + u_p
solves the original system.

Fields are stacked real arrays of shape (N, n, ..., n) and spectra are in
rfftn layout (see spectral).  One Picard step costs four real transforms,
each batched over the N components: forward of g(u0 + v), inverse of the
kernel product, inverse of T(u0 + v) from the known spectra of u0 and v,
and forward of the new iterate, whose spectrum gives both norms and serves
the next step.
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
from .model import MaterializedProblem

BALL_SLACK = 1e-9


def default_tolerance(u0_norm: float) -> float:
    return 1e-10 * max(1.0, u0_norm)


def apply_map_tg(mat: MaterializedProblem, v: np.ndarray,
                 v_spectrum: np.ndarray | None = None) -> np.ndarray:
    """One application of the auxiliary map at v, stacked over the
    components.  `v_spectrum`, when known, saves the transform of v."""
    grid = mat.grid
    if v.shape != (mat.n,) + grid.shape:
        raise ConfigurationError("input field does not match the problem grid/components")
    if v_spectrum is None:
        v_spectrum = spectral.forward_transform(grid, v)
    integrand = np.empty_like(v)
    for m, values in enumerate(mat.g.evaluate_components(list(mat.u0 + v))):
        integrand[m] = values
    conv = spectral.convolve(grid, mat.kernel_spectra, integrand)
    del integrand  # free it before the next transform
    prefactor = spectral.apply_multiplier(grid, mat.multipliers, mat.u0_spectrum + v_spectrum)
    conv *= prefactor
    return conv


def a_posteriori_bound(sigma: float, k: int, delta_1: float) -> float:
    """Geometric error bound sigma^k / (1 - sigma) * delta_1 after step k;
    valid only for sigma < 1."""
    if not 0.0 <= sigma < 1.0:
        raise ConfigurationError(f"a-posteriori bound needs sigma in [0, 1), got {sigma}")
    return sigma ** k / (1.0 - sigma) * delta_1


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
        if self.sigma is not None and self.sigma < 1.0:
            self.bounds.append(a_posteriori_bound(self.sigma, k, self.deltas[0]))
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
    u_p: np.ndarray
    u_p_spectrum: np.ndarray
    u: np.ndarray
    residual: float
    iterations: int
    certified: bool


def picard_solve(mat: MaterializedProblem, report: ConstantsReport,
                 tol: float | None = None, max_iter: int = 200,
                 start: np.ndarray | None = None,
                 best_effort: bool = False) -> tuple[Solution, IterationTrace]:
    """Iterate the auxiliary map to its fixed point.

    Starts from the center of the ball (or `start`, which must lie inside it
    on certified runs).  Convergence is judged on the residual
    |v - t_g(v)|_H2, which the fixed-point statement controls directly; the
    returned iterate carries exactly that residual.

    Uncertified problems are refused unless best_effort is set, in which
    case divergence is a reportable outcome rather than an internal error.
    An iterate with non-finite samples raises ConfigurationError.
    """
    certified = report.certificate.passed
    if not certified and not best_effort:
        raise ConfigurationError(
            "problem is not certified; pass best_effort=True to iterate anyway")
    if tol is None:
        tol = default_tolerance(mat.u0_norm)
    if tol <= 0 or max_iter < 1:
        raise ConfigurationError("tolerance must be positive and max_iter >= 1")

    grid = mat.grid
    rho = report.rho
    if start is None:
        v = np.zeros((mat.n,) + grid.shape)
        v_spectrum = np.zeros((mat.n,) + grid.spectral_shape, dtype=complex)
    else:
        v = start
        v_spectrum = spectral.forward_transform(grid, v)
        if certified and spectral.h2_norm(grid, v_spectrum) > rho * (1.0 + BALL_SLACK):
            raise ConfigurationError("starting point lies outside the certified ball")

    sigma = report.sigma if report.sigma < 1.0 else None
    trace = IterationTrace(sigma=sigma)
    escape_limit = 1e8 * max(1.0, mat.u0_norm)

    for k in range(1, max_iter + 1):
        # overflow shows up as a non-finite norm, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            w = apply_map_tg(mat, v, v_spectrum)
            w_spectrum = spectral.forward_transform(grid, w)
            delta = spectral.h2_norm(grid, w_spectrum - v_spectrum)
            norm_w = spectral.h2_norm(grid, w_spectrum)
        # a NaN compares false with every bound below
        if not np.isfinite(norm_w) and not np.all(np.isfinite(w)):
            raise ConfigurationError("field contains non-finite samples")
        trace.record(k, norm_w, delta)
        if delta <= tol:
            return Solution(u_p=v, u_p_spectrum=v_spectrum, u=assemble_solution(mat.u0, v),
                            residual=delta, iterations=k, certified=certified), trace
        if certified and norm_w > rho * (1.0 + BALL_SLACK):
            raise BallEscapeError(
                f"iterate {k} left the certified ball: |w| = {norm_w} > rho = {rho}")
        if not certified and norm_w > escape_limit:
            raise NonConvergenceError(
                f"iteration diverged at step {k} (|w| = {norm_w:.3e})",
                iterations=k, last_delta=delta, trace=trace)
        v, v_spectrum = w, w_spectrum

    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations (last residual "
        f"{trace.deltas[-1]:.3e}, tolerance {tol:.3e})",
        iterations=max_iter, last_delta=trace.deltas[-1], trace=trace)


def assemble_solution(u0: np.ndarray, u_p: np.ndarray) -> np.ndarray:
    """The solution of the original system is initial data plus perturbation."""
    return u0 + u_p


def residual_original_system(mat: MaterializedProblem, u: np.ndarray,
                             u_spectrum: np.ndarray | None = None) -> float:
    """Residual of the original system at u,
    |u_m - u0_m - [T_m u_m] . (K_m (*) g_m(u))| in the vector Sobolev norm.
    With v = u - u0 this is |v - t_g(v)|, so it goes through the same map
    as the iteration; the independent check of that map is oracle.py.
    `u_spectrum`, when known, saves the transform of u."""
    if u.shape != (mat.n,) + mat.grid.shape:
        raise ConfigurationError("field does not match the problem grid/components")
    v = u - mat.u0
    v_spectrum = None if u_spectrum is None else u_spectrum - mat.u0_spectrum
    r = v - apply_map_tg(mat, v, v_spectrum)
    return spectral.h2_norm(mat.grid, spectral.forward_transform(mat.grid, r))


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

    # both solutions share u0, so their distance is that of the perturbations
    measured = spectral.h2_norm(mat.grid, sol1.u_p_spectrum - sol2.u_p_spectrum)
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
