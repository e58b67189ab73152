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
import ctypes
import functools
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__, analysis, model, solver, spectral
from .errors import (ConfigurationError, NonConvergenceError, NumericOverflowError,
                     QuadIntError)
from .exprdsl import NonlinearitySpec, parse as parse_expr
from .model import GaussianKernel, MaterializedProblem, ProblemSpec, RationalMultiplier
from .spectral import Grid

EXIT_OK = 0
EXIT_HYPOTHESIS = 1
EXIT_INPUT = 2
EXIT_NONCONVERGENCE = 3

# below this size glibc serves arrays from its heap and keeps freed memory
# mapped; both thresholds are set, as one alone does worse (README, "Memory")
HEAP_RETAIN_BYTES = 1 << 30


# --- problem file -----------------------------------------------------------

def _object(entry, where: str, *keys: str) -> dict:
    """entry, which must be a JSON object with no key outside `keys`; a
    misspelt key is refused rather than ignored."""
    if not isinstance(entry, dict):
        raise ConfigurationError(f"{where} must be an object")
    for key in entry:
        if key not in keys:
            raise ConfigurationError(f"{where}: unknown key {key!r}")
    return entry


def _parse_kernel(entry, index: int, parse_x):
    """A GaussianKernel, the tree parse_x gives an expression, or an array."""
    where = f"kernel {index + 1}"
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigurationError(f"{where}: expected an object with a 'type' field")
    kind = entry["type"]
    if kind == "gaussian":
        _object(entry, where, "type", "alpha")
        return GaussianKernel(alpha=_number(entry["alpha"], f"{where}: 'alpha'"))
    if kind == "expression":
        _object(entry, where, "type", "expr")
        return parse_x(str(entry["expr"]))
    if kind == "tabulated":
        _object(entry, where, "type", "values")
        return np.asarray(entry["values"], dtype=float)
    raise ConfigurationError(f"{where}: unknown type {kind!r}")


def _finite(value) -> float | None:
    """A JSON number as a float, or None when it is no number or its double
    is not finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the doubles
        return None
    return value if math.isfinite(value) else None


def _number(value, what: str) -> float:
    """_finite(value); ConfigurationError naming `what` when it is None."""
    number = _finite(value)
    if number is None:
        raise ConfigurationError(f"{what} must be a finite number")
    return number


def _integer(value, what: str) -> int:
    """A JSON integer: not a bool, and not a number with a fraction part."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{what} must be an integer")
    return value


def _coefficients(entry: dict, key: str, index: int) -> tuple[float, ...]:
    """The list entry[key] of operator `index` as floats; each must be finite."""
    values = entry.get(key)
    coeffs = tuple(map(_finite, values)) if isinstance(values, list) else (None,)
    if None in coeffs:
        raise ConfigurationError(
            f"operator {index + 1}: {key!r} must be a list of finite numbers")
    return coeffs


def _parse_operator(entry, index: int):
    where = f"operator {index + 1}"
    if not isinstance(entry, dict) or "type" not in entry:
        raise ConfigurationError(f"{where}: expected an object with a 'type' field")
    kind = entry["type"]
    if kind == "inverse_helmholtz":
        _object(entry, where, "type")
        return RationalMultiplier(p=(1.0,), q=(1.0, 1.0))
    if kind == "scaled_identity":
        _object(entry, where, "type", "alpha")
        alpha = _number(entry.get("alpha"), f"{where}: 'alpha'")
        return RationalMultiplier(p=(alpha,), q=(1.0,))
    if kind == "rational_multiplier":
        _object(entry, where, "type", "p", "q")
        p, q = (_coefficients(entry, key, index) for key in ("p", "q"))
        if not (p and q):
            raise ConfigurationError(f"{where}: p and q need a coefficient each")
        return RationalMultiplier(p=p, q=q)
    raise ConfigurationError(f"{where}: unknown type {kind!r}")


def _read_json(path: str) -> tuple[object, str]:
    """Read a JSON file; returns the document and the digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path!r}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"malformed JSON in {path!r}: {exc}") from exc


def load_problem(path: str) -> tuple[ProblemSpec, str]:
    """Read a JSON problem file; returns the problem and the input digest."""
    doc, digest = _read_json(path)
    return problem_from_dict(doc), digest


def problem_from_dict(doc: dict) -> ProblemSpec:
    """The problem a JSON document describes; any key outside the ones
    README "Problem files" lists is refused."""
    try:
        _object(doc, "problem file", "grid", "components", "kernels", "operators",
                "u0", "g", "rho", "constants")
        gdoc = _object(doc["grid"], "grid", "d", "n", "L")
        grid = Grid(d=_integer(gdoc["d"], "grid 'd'"), n=_integer(gdoc["n"], "grid 'n'"),
                    L=_number(gdoc["L"], "grid 'L'"))
        n = _integer(doc["components"], "'components'")
        if n < 1:
            raise ConfigurationError("components must be >= 1")
        for key in ("kernels", "operators", "u0", "g"):
            if not isinstance(doc[key], list):
                raise ConfigurationError(f"section {key!r} must be a list")
            if len(doc[key]) != n:
                raise ConfigurationError(
                    f"section {key!r} has {len(doc[key])} entries, expected {n}")
        # each distinct kernel text is parsed once
        parse_x = functools.cache(lambda text: parse_expr(text, grid.d, "x"))
        kernels = tuple(_parse_kernel(e, i, parse_x) for i, e in enumerate(doc["kernels"]))
        operators = tuple(_parse_operator(e, i) for i, e in enumerate(doc["operators"]))
        g = NonlinearitySpec.from_strings([str(s) for s in doc["g"]])
        u0 = []
        for index, entry in enumerate(doc["u0"]):
            if isinstance(entry, str):
                u0.append(parse_expr(entry, grid.d, "x"))
            elif isinstance(entry, dict) and entry.get("type") == "tabulated":
                _object(entry, f"u0 entry {index + 1}", "type", "values")
                u0.append(np.asarray(entry["values"], dtype=float))
            else:
                raise ConfigurationError(
                    "u0 entries must be expression strings or tabulated objects")
        rho = _number(doc["rho"], "'rho'") if "rho" in doc else None
        consts = _object(doc.get("constants", {}), "constants", "c_e", "c_a")
        c_e, c_a = (_number(consts[key], f"constants {key!r}") if key in consts else None
                    for key in ("c_e", "c_a"))
        return ProblemSpec(
            grid=grid, kernels=kernels, operators=operators, g=g, u0=tuple(u0),
            rho=rho, c_e_override=c_e, c_a_override=c_a,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"invalid problem file: {exc}") from exc


# --- report assembly ----------------------------------------------------------

def _base_report(problem: ProblemSpec, digest: str) -> dict:
    return {
        "tool": {"name": "quadint", "version": __version__},
        "input": {"sha256": digest},
        "problem": {
            "d": problem.grid.d, "n": problem.grid.n, "L": problem.grid.L,
            "components": problem.n,
        },
    }


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path!r}: {exc}") from exc


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out_path:
        _write(out_path, text)
    else:
        sys.stdout.write(text)


def _check_pipeline(problem: ProblemSpec, digest: str) -> tuple[
        MaterializedProblem, analysis.ConstantsReport | None, dict]:
    """Materialize, compute constants, validate, and decide whether the
    problem is certified: every assumption holds and the contraction
    condition passes.  Returns the materialized problem, the constants
    report (None when an assumption fails), and the report preamble that
    check, solve and continuity share, with its `constants`, `assumptions`
    and `certified` entries.  Degenerate data can make the constants
    uncomputable (e.g. a trivial kernel gives Q = 0, or the enclosure of
    the C1 bound refuses); that is an assumption failure, not an input
    error, so it lands in the validation report and the constants slot
    stays empty.  A constant beyond the range of a double
    is an input error, raised as such."""
    mat = model.materialize(problem, strict=False)
    report = None
    failure = None
    try:
        report = analysis.constants_report(mat)
    except NumericOverflowError:
        raise
    except QuadIntError as exc:
        failure = str(exc)
    # the report's state ball, which is also there when the constants failed
    r_state = analysis.ball_radius_state(
        analysis.problem_embedding_constant(problem), mat.u0_norm)
    validation = model.validate_assumptions(mat, ball_radius=r_state)
    if failure is not None:
        validation.violations.append(f"constants computation failed: {failure}")
    doc = _base_report(problem, digest)
    doc["constants"] = report.to_dict() if report is not None else None
    doc["assumptions"] = {"violations": validation.violations,
                          "warnings": validation.warnings}
    if not validation.ok:
        report = None
    doc["certified"] = report is not None and report.certificate.passed
    return mat, report, doc


# --- subcommands ----------------------------------------------------------------
# each returns its report and exit code; main writes the report

def cmd_check(args) -> tuple[dict, int]:
    _, _, doc = _check_pipeline(*load_problem(args.file))
    return doc, EXIT_OK if doc["certified"] else EXIT_HYPOTHESIS


def cmd_solve(args) -> tuple[dict, int]:
    mat, report, doc = _check_pipeline(*load_problem(args.file))
    certified = doc["certified"]
    if report is None:  # an assumption fails
        return doc, EXIT_HYPOTHESIS
    if not certified and not args.best_effort:
        doc["solve"] = {"refused": "problem is not certified; "
                                   "rerun with --best-effort to iterate anyway"}
        return doc, EXIT_HYPOTHESIS

    try:
        solution, trace = solver.picard_solve(
            mat, report, tol=args.tol, max_iter=args.max_iter,
            best_effort=args.best_effort)
    except NonConvergenceError as exc:
        doc["solve"] = {"converged": False, "error": str(exc),
                        "iterations": exc.iterations,
                        "last_delta": float(exc.last_delta)}
        if args.trace:
            _write(args.trace, exc.trace.to_csv())
        return doc, EXIT_NONCONVERGENCE

    if args.trace:
        _write(args.trace, trace.to_csv())
    # the spectra are known, so the norms need no transform; u = u0 + u_p
    # and u^ are formed in the solution's buffers, which the residual spends
    u, u_spectrum = solution.u_p, solution.u_p_spectrum
    doc["solve"] = {
        "converged": True,
        "iterations": solution.iterations,
        "residual": float(solution.residual),
        "error_bound": trace.error_bound,
        "perturbation_norm": spectral.h2_norm(mat.grid, u_spectrum),
        "best_effort": bool(args.best_effort and not certified),
    }
    del solution
    u += mat.u0
    u_spectrum += mat.u0_spectrum
    doc["solve"]["solution_norm"] = spectral.h2_norm(mat.grid, u_spectrum)
    doc["solve"]["residual_original_system"] = solver.residual_original_system(
        mat, u, u_spectrum, overwrite_input=True)
    return doc, EXIT_OK


def cmd_continuity(args) -> tuple[dict, int]:
    problem, digest = load_problem(args.file)
    doc2, _ = _read_json(args.g2)
    if not (isinstance(doc2, dict) and isinstance(doc2.get("g"), list)
            and len(doc2["g"]) == problem.n):
        raise ConfigurationError(
            "--g2 file must contain a 'g' list with the same component count")
    g2 = NonlinearitySpec.from_strings([str(s) for s in doc2["g"]])

    mat, report, doc = _check_pipeline(problem, digest)
    if not doc["certified"]:
        return doc, EXIT_HYPOTHESIS
    try:
        cont = solver.continuity_experiment(mat, report, g2, tol=args.tol)
    except (NonConvergenceError, ConfigurationError) as exc:
        doc["continuity"] = {"error": str(exc)}
        return doc, (EXIT_NONCONVERGENCE if isinstance(exc, NonConvergenceError)
                     else EXIT_HYPOTHESIS)
    doc["continuity"] = cont.to_dict()
    return doc, EXIT_OK if cont.passed else EXIT_HYPOTHESIS


def cmd_oracle(args) -> tuple[dict, int]:
    from . import oracle  # no other subcommand runs the brute-force paths

    problem, digest = load_problem(args.file)
    checks = oracle.cross_checks(problem, args.size, args.seed)
    doc = _base_report(problem, digest)
    doc["oracle"] = checks
    return doc, EXIT_OK if checks["all_passed"] else EXIT_HYPOTHESIS


# --- entry point -----------------------------------------------------------------

@functools.cache
def retain_freed_heap() -> None:
    """Keep freed fields and spectra mapped until the process exits, for the
    next Picard step and operation to reuse; a no-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    for parameter in (-1, -3):  # M_TRIM_THRESHOLD, M_MMAP_THRESHOLD
        mallopt(parameter, HEAP_RETAIN_BYTES)


@functools.cache
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
                       help="seed of the random points of the oracle's checks "
                            "(default 0); the other subcommands only record it")
        p.add_argument("--out", default=None, help="write the JSON report here "
                                                   "instead of stdout")

    p_check = sub.add_parser("check", help="validate hypotheses and compute constants")
    common(p_check)
    p_check.set_defaults(fn=cmd_check)

    p_solve = sub.add_parser("solve", help="run the fixed-point iteration")
    common(p_solve)
    p_solve.add_argument("--tol", type=float, default=None,
                         help="residual tolerance, finite and positive "
                              "(default 1e-10 * max(1, |u0|))")
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
    retain_freed_heap()
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
        tol = getattr(args, "tol", None)
        if tol is not None and not 0.0 < tol < np.inf:
            raise ConfigurationError(f"--tol must be finite and positive, got {tol}")
        if getattr(args, "max_iter", 1) < 1:
            raise ConfigurationError(f"--max-iter must be at least 1, got {args.max_iter}")
        doc, code = args.fn(args)
        doc["seed"] = args.seed
        _emit(doc, args.out)
        return code
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
