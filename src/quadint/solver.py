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
kernel product, inverse of T(u0 + v) from the known spectra of u0 and v
(its last, real pass one component at a time), and forward of the new
iterate, whose spectrum gives both norms and serves the next step.  The
step spends v: u0 + v, g(u0 + v), the convolution and the new iterate
are formed in its buffer, in turn.
"""

from __future__ import annotations

import io
from collections import namedtuple
from dataclasses import replace

import numpy as np

from . import spectral
from .analysis import ConstantsReport, c1_distance, estimate_M
from .errors import BallEscapeError, ConfigurationError, NonConvergenceError
from .exprdsl import NonlinearitySpec, evaluate_many
from .model import MaterializedProblem, equal_groups, multiplier_values
from .records import Record

BALL_SLACK = 1e-9


def default_tolerance(u0_norm: float) -> float:
    return 1e-10 * max(1.0, u0_norm)


def apply_map_tg(mat: MaterializedProblem, v: np.ndarray,
                 v_spectrum: np.ndarray | None = None, *,
                 overwrite_input: bool = False) -> np.ndarray:
    """One application of the auxiliary map at v, stacked over the
    components.  `v_spectrum`, when known, saves the transform of v; it is
    left unchanged.  So is v, unless `overwrite_input`, with which the map
    forms u0 + v, then g(u0 + v), then its result in v's own buffer and
    returns that buffer: a caller with no further use for v saves a
    stacked field at the map's peak.  The result is the same either way."""
    if v.shape != (mat.n,) + mat.grid.shape:
        raise ConfigurationError("input field does not match the problem grid/components")
    if v_spectrum is None:
        v_spectrum = spectral.forward_transform(mat.grid, v)
    return _map_at(mat, np.add(mat.u0, v, out=v if overwrite_input else None), v_spectrum)


def _map_at(mat: MaterializedProblem, u: np.ndarray, v_spectrum: np.ndarray) -> np.ndarray:
    """t_g(v) from u = u0 + v and the spectrum of v.  u is spent: the map
    writes g(u), then the convolution, then the result into it, and
    returns it; v_spectrum is left unchanged.  Beside u the map holds one
    spectrum, the convolution's and then the prefactor's, and one component
    of the prefactor field."""
    grid = mat.grid
    values = evaluate_many(mat.g.components, list(u))
    for m in range(mat.n):
        u[m] = values[m]  # g(u) replaces u; no value is a view of it
    del values
    w = spectral.convolve(grid, mat.kernel_spectra, u, out=u)
    spectrum = np.add(mat.u0_spectrum, v_spectrum)
    operators = mat.spec.operators
    for rows in equal_groups(operators):  # each multiplier once, one at a time
        multiplier = multiplier_values(operators[rows[0]], grid)
        for m in rows:
            spectrum[m] *= multiplier
    del multiplier  # not held through the inverse, the map's peak
    spectral.multiply_by_inverse(grid, w, spectrum)
    return w


def a_posteriori_bound(sigma: float, k: int, delta_1: float) -> float:
    """Geometric error bound sigma^k / (1 - sigma) * delta_1 after step k;
    valid only for sigma < 1."""
    if not 0.0 <= sigma < 1.0:
        raise ConfigurationError(f"a-posteriori bound needs sigma in [0, 1), got {sigma}")
    return sigma ** k / (1.0 - sigma) * delta_1


class IterationTrace:
    """Per-step record of the iteration: iterate norm, step difference,
    observed contraction ratio, and the geometric a-posteriori bound.  The
    bounds are NaN without a contraction factor sigma < 1, which
    picard_solve gives only to a certified problem."""

    def __init__(self, sigma: float | None):
        self.sigma = sigma
        self.ks: list[int] = []
        self.norms: list[float] = []
        self.deltas: list[float] = []
        self.ratios: list[float] = []
        self.bounds: list[float] = []

    def record(self, k: int, norm: float, delta: float) -> None:
        ratio = delta / self.deltas[-1] if self.deltas and self.deltas[-1] > 0 else float("nan")
        self.ks.append(k)
        self.norms.append(norm)
        self.deltas.append(delta)
        self.ratios.append(ratio if k > 1 else float("nan"))
        self.bounds.append(self._bound(k, self.deltas[0]))

    def _bound(self, k: int, delta: float) -> float:
        contracts = self.sigma is not None and self.sigma < 1.0
        return a_posteriori_bound(self.sigma, k, delta) if contracts else float("nan")

    @property
    def error_bound(self) -> float | None:
        """The last row's step_bound, or None where it is NaN."""
        bound = self._bound(1, self.deltas[-1])
        return None if np.isnan(bound) else bound

    def to_csv(self) -> str:
        """The trace with 17 significant digits, and a last column
        step_bound = sigma / (1 - sigma) * delta_k, the bound on the
        distance of step k's iterate to the fixed point."""
        buf = io.StringIO()
        buf.write("k,norm,delta,ratio,apost_bound,step_bound\n")
        for k, norm, delta, ratio, bound in zip(
                self.ks, self.norms, self.deltas, self.ratios, self.bounds):
            buf.write(f"{k},{norm:.17g},{delta:.17g},{ratio:.17g},{bound:.17g},"
                      f"{self._bound(1, delta):.17g}\n")
        return buf.getvalue()


class Solution(Record, namedtuple("Solution", "u_p u_p_spectrum residual iterations")):
    """The newest iterate w = t_g(v) as the perturbation u_p, with its
    spectrum, the residual |w - v|, the step difference delta_k of the last
    step, and the number of iterations."""

    __slots__ = ()


def picard_solve(mat: MaterializedProblem, report: ConstantsReport,
                 tol: float | None = None, max_iter: int = 200,
                 start: np.ndarray | None = None,
                 best_effort: bool = False) -> tuple[Solution, IterationTrace]:
    """Iterate the auxiliary map to its fixed point.

    Starts from the center of the ball (or `start`, which must lie inside it
    on certified runs, and which is left unchanged).  Step k maps v to
    w = t_g(v) and converges when delta_k = |w - v|_H2 <= tol; it returns
    w, the newest iterate, which on a certified problem lies within
    sigma / (1 - sigma) * delta_k of the fixed point.  Each step spends v:
    w is formed in its buffer.

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
    if not 0.0 < tol < np.inf or max_iter < 1:
        raise ConfigurationError("tolerance must be finite and positive and max_iter >= 1")

    grid = mat.grid
    rho = report.rho
    if start is None:
        v = np.zeros((mat.n,) + grid.shape)
        v_spectrum = np.zeros((mat.n,) + grid.spectral_shape, dtype=complex)
    else:
        v = np.array(start, dtype=float)  # the steps spend v; start is the caller's
        v_spectrum = spectral.forward_transform(grid, v)
        if certified and spectral.h2_norm(grid, v_spectrum) > rho * (1.0 + BALL_SLACK):
            raise ConfigurationError("starting point lies outside the certified ball")

    # the one gate of every sigma-derived bound: a trace without sigma
    # records NaN bounds
    trace = IterationTrace(sigma=report.sigma if certified else None)
    escape_limit = 1e8 * max(1.0, mat.u0_norm)

    for k in range(1, max_iter + 1):
        # overflow shows up as a non-finite norm, checked below
        with np.errstate(over="ignore", invalid="ignore"):
            w = apply_map_tg(mat, v, v_spectrum, overwrite_input=True)
            w_spectrum = spectral.forward_transform(grid, w)
            delta = spectral.h2_norm(grid, w_spectrum, v_spectrum)
            norm_w = spectral.h2_norm(grid, w_spectrum)
        # a NaN compares false with every bound below
        if not np.isfinite(norm_w) and not np.all(np.isfinite(w)):
            raise ConfigurationError("field contains non-finite samples")
        trace.record(k, norm_w, delta)
        if certified and norm_w > rho * (1.0 + BALL_SLACK):
            raise BallEscapeError(
                f"iterate {k} left the certified ball: |w| = {norm_w} > rho = {rho}")
        if delta <= tol:
            return Solution(u_p=w, u_p_spectrum=w_spectrum, residual=delta,
                            iterations=k), trace
        if not certified and norm_w > escape_limit:
            raise NonConvergenceError(
                f"iteration diverged at step {k} (|w| = {norm_w:.3e})",
                iterations=k, last_delta=delta, trace=trace)
        v, v_spectrum = w, w_spectrum

    raise NonConvergenceError(
        f"no convergence within {max_iter} iterations (last residual "
        f"{trace.deltas[-1]:.3e}, tolerance {tol:.3e})",
        iterations=max_iter, last_delta=trace.deltas[-1], trace=trace)


def residual_original_system(mat: MaterializedProblem, u: np.ndarray,
                             u_spectrum: np.ndarray | None = None, *,
                             overwrite_input: bool = False) -> float:
    """Residual of the original system at u,
    |u_m - u0_m - [T_m u_m] . (K_m (*) g_m(u))| in the vector Sobolev norm.
    With v = u - u0 this is |v - t_g(v)|, so it goes through the same map
    as the iteration, taken at u itself, and is measured as |v^ - F[t_g(v)]|;
    the independent check of that map is oracle.py.  `u_spectrum`, when
    known, saves the transform of u.  u and u_spectrum are left unchanged
    unless `overwrite_input`, with which the map spends u and v^ is formed
    in u_spectrum; a caller with no further use for u and u^ saves a field
    and a spectrum at the map's peak.  The result is the same float either
    way."""
    grid = mat.grid
    if u.shape != (mat.n,) + grid.shape:
        raise ConfigurationError("field does not match the problem grid/components")
    if u_spectrum is None:
        v_spectrum = spectral.forward_transform(grid, u)
        v_spectrum -= mat.u0_spectrum
    else:
        v_spectrum = np.subtract(u_spectrum, mat.u0_spectrum,
                                 out=u_spectrum if overwrite_input else None)
    w = _map_at(mat, u if overwrite_input else u.copy(), v_spectrum)
    return spectral.h2_norm(grid, spectral.forward_transform(grid, w), v_spectrum)


class ContinuityReport(Record, namedtuple(
        "ContinuityReport",
        "measured_distance bound passed sigma_joint M_joint c1_distance iterations")):
    """Outcome of solving the same problem under two nonlinearities;
    iterations holds the two solves' counts."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {**self._asdict(), "c1_provenance": "rigorous-bound"}


def continuity_experiment(mat: MaterializedProblem, report: ConstantsReport,
                          g2: NonlinearitySpec, tol: float | None = None
                          ) -> ContinuityReport:
    """Solve the problem under its own nonlinearity and under g2, then compare
    the measured solution distance with the theoretical bound.

    Both nonlinearities must satisfy the contraction condition with the joint
    C^1 bound M = max(M_1, M_2); sigma and the bound are formed with that M.
    `report` must come from constants_report(mat): its M is taken as M_1
    rather than estimated again.  M_2 comes from analysis.estimate_M and
    |g1 - g2|_C1 from analysis.c1_distance, both enclosed on the report's
    state ball; either raises ConfigurationError when its enclosure refuses.
    """
    if tol is None:
        tol = default_tolerance(mat.u0_norm)
    g1 = mat.g
    if g2.n != g1.n:
        raise ConfigurationError("the two nonlinearities have different component counts")

    joint = replace(report, M=max(report.M, estimate_M(g2, report.r_state, "g2")))
    if not joint.certificate.passed:
        raise ConfigurationError(
            "contraction condition fails with the joint C1 bound; "
            "the continuity statement does not apply")

    sol1, _ = picard_solve(mat, joint, tol=tol)
    mat2 = replace(mat, spec=replace(mat.spec, g=g2))
    sol2, _ = picard_solve(mat2, joint, tol=tol)

    # both solutions share u0, so their distance is that of the perturbations
    measured = spectral.h2_norm(mat.grid, sol1.u_p_spectrum, sol2.u_p_spectrum)
    dist = c1_distance(g1, g2, report.r_state)
    bound = joint.continuity_bound(dist)
    passed = measured <= bound + 2.0 * tol
    return ContinuityReport(
        measured_distance=measured, bound=bound, passed=passed,
        sigma_joint=joint.sigma, M_joint=joint.M, c1_distance=dist,
        iterations=(sol1.iterations, sol2.iterations),
    )
