"""Command-line surface.

Subcommands:
    check       validate a problem file, compute constants, print the verdict
    solve       check, then iterate to the fixed point; optional trace CSV
    continuity  solve under two nonlinearities and compare with the bound
    oracle      rerun the brute-force cross-checks at a reduced grid size

Exit codes: 0 success, 1 hypothesis or bound failure, 2 input error,
3 non-convergence.  Reports are JSON on stdout unless --out is given;
identical input file, seed, and tool version produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

import numpy as np

from . import __version__, analysis, model, oracle, solver, spectral
from .errors import (AssumptionViolation, ConfigurationError, ExpressionDomainError,
                     ExpressionSyntaxError, NonConvergenceError, OracleBudgetError,
                     QuadIntError)
from .exprdsl import NonlinearitySpec, parse as parse_expr
from .model import (ExpressionKernel, GaussianKernel, InverseHelmholtz,
                    MaterializedProblem, ProblemSpec, RationalMultiplier,
                    ScaledIdentity, TabulatedKernel)
from .spectral import Grid

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3


# --- problem file -----------------------------------------------------------

def _parse_kernel(entry, index: int):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigurationError(f"kernel {index + 1}: expected an object with a 'type' field")
    kind = entry["type"]
    if kind == "gaussian":
        return GaussianKernel(alpha=float(entry["alpha"]))
    if kind == "expression":
        return ExpressionKernel(text=str(entry["expr"]))
    if kind == "tabulated":
        return TabulatedKernel(values=np.asarray(entry["values"], dtype=float))
    raise ConfigurationError(f"kernel {index + 1}: unknown type {kind!r}")


def _parse_operator(entry, index: int):
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigurationError(f"operator {index + 1}: expected an object with a 'type' field")
    kind = entry["type"]
    if kind == "inverse_helmholtz":
        return InverseHelmholtz()
    if kind == "scaled_identity":
        return ScaledIdentity(alpha=float(entry["alpha"]))
    if kind == "rational_multiplier":
        return RationalMultiplier(p=tuple(float(c) for c in entry["p"]),
                                  q=tuple(float(c) for c in entry["q"]))
    raise ConfigurationError(f"operator {index + 1}: unknown type {kind!r}")


def load_problem(path: str) -> tuple[ProblemSpec, str]:
    """Read a JSON problem file; returns the problem and the input digest."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"malformed JSON in {path}: {exc}") from exc
    return problem_from_dict(doc), digest


def problem_from_dict(doc: dict) -> ProblemSpec:
    try:
        gdoc = doc["grid"]
        grid = Grid(d=int(gdoc["d"]), n=int(gdoc["n"]), L=float(gdoc["L"]))
        n = int(doc["components"])
        if n < 1:
            raise ConfigurationError("components must be >= 1")
        for key in ("kernels", "operators", "u0", "g"):
            if len(doc[key]) != n:
                raise ConfigurationError(
                    f"section {key!r} has {len(doc[key])} entries, expected {n}")
        kernels = tuple(_parse_kernel(e, i) for i, e in enumerate(doc["kernels"]))
        operators = tuple(_parse_operator(e, i) for i, e in enumerate(doc["operators"]))
        g = NonlinearitySpec.from_strings([str(s) for s in doc["g"]])
        u0 = []
        for entry in doc["u0"]:
            if isinstance(entry, str):
                u0.append(parse_expr(entry, grid.d, "x"))
            elif isinstance(entry, dict) and entry.get("type") == "tabulated":
                u0.append(np.asarray(entry["values"], dtype=float))
            else:
                raise ConfigurationError(
                    "u0 entries must be expression strings or tabulated objects")
        rho = float(doc["rho"]) if "rho" in doc else None
        consts = doc.get("constants", {})
        return ProblemSpec(
            grid=grid, kernels=kernels, operators=operators, g=g, u0=tuple(u0),
            rho=rho,
            c_e_override=float(consts["c_e"]) if "c_e" in consts else None,
            c_a_override=float(consts["c_a"]) if "c_a" in consts else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid problem file: {exc}") from exc


# --- report assembly ----------------------------------------------------------

def _base_report(problem: ProblemSpec, digest: str, seed: int) -> dict:
    return {
        "tool": {"name": "quadint", "version": __version__},
        "input": {"sha256": digest},
        "seed": seed,
        "problem": {
            "d": problem.grid.d, "n": problem.grid.n, "L": problem.grid.L,
            "components": problem.n,
        },
    }


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_pipeline(problem: ProblemSpec, seed: int
                    ) -> tuple[MaterializedProblem,
                               analysis.ConstantsReport | None,
                               model.ValidationReport]:
    """Materialize, compute constants, and validate.  Degenerate data can make
    the constants uncomputable (e.g. a trivial kernel gives Q = 0); that is an
    assumption failure, not an input error, so it lands in the validation
    report and the constants slot stays empty."""
    mat = model.materialize(problem, strict=False)
    report = None
    failure = None
    try:
        report = analysis.constants_report(mat, seed=seed)
    except QuadIntError as exc:
        failure = str(exc)
    if report is not None:
        r_state = report.r_state
    else:
        r_state = analysis.ball_radius_state(
            analysis.embedding_constant(problem.grid.d), mat.u0_norm)
    validation = model.validate_assumptions(mat, ball_radius=r_state,
                                            sample_seed=seed)
    if failure is not None:
        validation.violations.append(f"constants computation failed: {failure}")
    return mat, report, validation


# --- subcommands ----------------------------------------------------------------

def cmd_check(args) -> int:
    problem, digest = load_problem(args.file)
    mat, report, validation = _check_pipeline(problem, args.seed)
    doc = _base_report(problem, digest, args.seed)
    doc["constants"] = report.to_dict() if report is not None else None
    doc["assumptions"] = {"violations": validation.violations,
                          "warnings": validation.warnings}
    certified = bool(validation.ok and report is not None
                     and report.certificate.passed)
    doc["certified"] = certified
    _emit(doc, args.out)
    return EXIT_OK if certified else EXIT_HYPOTHESIS


def cmd_solve(args) -> int:
    problem, digest = load_problem(args.file)
    mat, report, validation = _check_pipeline(problem, args.seed)
    doc = _base_report(problem, digest, args.seed)
    doc["constants"] = report.to_dict() if report is not None else None
    doc["assumptions"] = {"violations": validation.violations,
                          "warnings": validation.warnings}

    if not validation.ok:
        doc["certified"] = False
        _emit(doc, args.out)
        return EXIT_HYPOTHESIS
    certified = report.certificate.passed
    if not certified and not args.best_effort:
        doc["certified"] = False
        doc["solve"] = {"refused": "problem is not certified; "
                                   "rerun with --best-effort to iterate anyway"}
        _emit(doc, args.out)
        return EXIT_HYPOTHESIS

    try:
        solution, trace = solver.picard_solve(
            mat, report, tol=args.tol, max_iter=args.max_iter,
            best_effort=args.best_effort)
    except NonConvergenceError as exc:
        doc["certified"] = certified
        doc["solve"] = {"converged": False, "error": str(exc),
                        "iterations": exc.iterations,
                        "last_delta": float(exc.last_delta)}
        if args.trace and exc.trace is not None:
            exc.trace.write_csv(args.trace)
        _emit(doc, args.out)
        return EXIT_NONCONVERGENCE

    if args.trace:
        trace.write_csv(args.trace)
    # the spectra of u_p and u0 are known, so the norms need no transform
    u_spectrum = mat.u0_spectrum + solution.u_p_spectrum
    doc["certified"] = certified
    doc["solve"] = {
        "converged": True,
        "iterations": solution.iterations,
        "residual": float(solution.residual),
        "residual_original_system": solver.residual_original_system(
            mat, solution.u, u_spectrum),
        "solution_norm": spectral.h2_norm(mat.grid, u_spectrum),
        "perturbation_norm": spectral.h2_norm(mat.grid, solution.u_p_spectrum),
        "best_effort": bool(args.best_effort and not certified),
    }
    _emit(doc, args.out)
    return EXIT_OK


def cmd_continuity(args) -> int:
    problem, digest = load_problem(args.file)
    try:
        with open(args.g2, "rb") as fh:
            raw2 = fh.read()
        doc2 = json.loads(raw2.decode("utf-8"))
        if "g" not in doc2 or len(doc2["g"]) != problem.n:
            raise ConfigurationError(
                "--g2 file must contain a 'g' list with the same component count")
        g2 = NonlinearitySpec.from_strings([str(s) for s in doc2["g"]])
    except OSError as exc:
        raise ConfigurationError(f"cannot read {args.g2}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {args.g2}: {exc}") from exc

    mat, report, validation = _check_pipeline(problem, args.seed)
    doc = _base_report(problem, digest, args.seed)
    doc["constants"] = report.to_dict() if report is not None else None
    doc["assumptions"] = {"violations": validation.violations,
                          "warnings": validation.warnings}
    if not validation.ok or not report.certificate.passed:
        doc["certified"] = False
        _emit(doc, args.out)
        return EXIT_HYPOTHESIS

    try:
        cont = solver.continuity_experiment(mat, report, g2, tol=args.tol,
                                            seed=args.seed)
    except NonConvergenceError as exc:
        doc["continuity"] = {"error": str(exc)}
        _emit(doc, args.out)
        return EXIT_NONCONVERGENCE
    except ConfigurationError as exc:
        doc["continuity"] = {"error": str(exc)}
        _emit(doc, args.out)
        return EXIT_HYPOTHESIS

    doc["certified"] = True
    doc["continuity"] = cont.to_dict()
    _emit(doc, args.out)
    return EXIT_OK if cont.passed else EXIT_HYPOTHESIS


def cmd_oracle(args) -> int:
    problem, digest = load_problem(args.file)
    d = problem.grid.d
    size = args.size if args.size is not None else (16 if d == 2 else 8)
    budget = oracle.DEFAULT_BUDGET
    small = Grid(d=d, n=size, L=problem.grid.L)
    budget.check(small)

    if any(isinstance(e, np.ndarray) for e in problem.u0) or any(
            isinstance(k, TabulatedKernel) for k in problem.kernels):
        raise ConfigurationError(
            "oracle rerun needs expression-based kernels and initial data "
            "(tabulated fields cannot be resampled on the reduced grid)")
    reduced = dataclasses.replace(problem, grid=small)
    mat = model.materialize(reduced, strict=False)
    report = analysis.constants_report(mat, seed=args.seed)

    checks = []
    ok = True

    # convolution: the solver's cached kernel spectra vs literal quadrature
    for m in range(mat.n):
        f = mat.u0[m] if np.any(mat.u0[m] != 0.0) else mat.u0[0]
        fast = spectral.convolve(small, mat.kernel_spectra[m], f)
        direct = oracle.direct_convolution(small, mat.kernels[m].values, f, budget)
        scale = max(spectral.l2_norm(small, direct), 1e-300)
        err = spectral.l2_norm(small, fast - direct) / scale
        passed = err <= 1e-10
        ok &= passed
        checks.append({"name": f"convolution_channel_{m + 1}",
                       "relative_error": float(err), "tolerance": 1e-10,
                       "passed": bool(passed)})

    # gradient: symbolic vs central finite differences at random ball points
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(20):
        z = rng.standard_normal(mat.n)
        z *= report.r_state * rng.uniform(0, 1) / max(np.linalg.norm(z), 1e-300)
        sym = mat.g.gradient_at(z)
        fd = oracle.finite_diff_gradient(mat.g, z)
        denom = max(1.0, float(np.max(np.abs(sym))))
        worst = max(worst, float(np.max(np.abs(sym - fd)) / denom))
    grad_ok = worst <= 1e-6
    ok &= grad_ok
    checks.append({"name": "gradient_vs_finite_differences",
                   "relative_error": float(worst), "tolerance": 1e-6,
                   "passed": bool(grad_ok)})

    # sup estimates: the C1 bound must dominate a dense reference sup, taken
    # on pseudo-random points that share nothing with the report's point set
    dense_total = oracle.dense_c1_norm(mat.g, report.r_state, 100_000, seed=args.seed)
    sup_ok = report.M >= dense_total * (1.0 - 1e-9)
    ok &= sup_ok
    checks.append({"name": "c1_bound_dominates_dense_sup",
                   "M": float(report.M), "dense_reference": float(dense_total),
                   "passed": bool(sup_ok)})

    doc = _base_report(problem, digest, args.seed)
    doc["oracle"] = {"grid_points": size, "checks": checks, "all_passed": bool(ok)}
    _emit(doc, args.out)
    return EXIT_OK if ok else EXIT_HYPOTHESIS


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadint",
        description="Solve and certify systems of quadratic integral equations "
                    "on periodic boxes.")
    parser.add_argument("--version", action="version", version=f"quadint {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="JSON problem file")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled estimates (default 0)")
        p.add_argument("--out", default=None, help="write the JSON report here "
                                                   "instead of stdout")

    p_check = sub.add_parser("check", help="validate hypotheses and compute constants")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_solve = sub.add_parser("solve", help="run the fixed-point iteration")
    common(p_solve)
    p_solve.add_argument("--tol", type=float, default=None,
                         help="residual tolerance (default 1e-10 * max(1, |u0|))")
    p_solve.add_argument("--max-iter", type=int, default=200)
    p_solve.add_argument("--trace", default=None, help="write per-step CSV here")
    p_solve.add_argument("--best-effort", action="store_true",
                         help="iterate even when the problem is not certified")
    p_solve.set_defaults(fn=cmd_solve)

    p_cont = sub.add_parser("continuity",
                            help="compare solutions under two nonlinearities")
    common(p_cont)
    p_cont.add_argument("--g2", required=True,
                        help="JSON file with a 'g' list for the second nonlinearity")
    p_cont.add_argument("--tol", type=float, default=None)
    p_cont.set_defaults(fn=cmd_continuity)

    p_oracle = sub.add_parser("oracle", help="rerun brute-force cross-checks")
    common(p_oracle)
    p_oracle.add_argument("--size", type=int, default=None,
                          help="points per axis for the reduced grid "
                               "(default 16 in d=2, 8 in d=3)")
    p_oracle.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching the input-error code
        return int(exc.code) if exc.code is not None else EXIT_INPUT
    try:
        if args.seed < 0:
            raise ConfigurationError(
                f"--seed must be a non-negative integer, got {args.seed}")
        return args.fn(args)
    except (ConfigurationError, ExpressionSyntaxError, ExpressionDomainError,
            OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssumptionViolation as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except QuadIntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RecursionError, MemoryError) as exc:
        # pathological input: nesting deeper than the interpreter's stack, or
        # sizes beyond the memory of the machine
        print(f"error: input exceeds interpreter limits: "
              f"{str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
