import numpy as np
import pytest

import quadint.spectral as sp
from quadint.analysis import constants_report
from quadint.errors import ExpressionDomainError
from quadint.exprdsl import (Add, Call, Div, Mul, Neg, NonlinearitySpec, Num, Pow, Sub,
                             Var, _power, parse)
from quadint.model import ProblemSpec, materialize
from quadint.spectral import Grid
from support import INVERSE_HELMHOLTZ, ball_points, evaluate_arrays, scaled_identity


def h2(grid, f):
    """Sobolev norm of a field, or the vector norm of stacked fields."""
    return sp.h2_norm(grid, sp.forward_transform(grid, f))


def sup_norm(f):
    return float(np.max(np.abs(f)))


def dense_sup_estimate(e, arity, radius, samples, seed=0):
    """Max |e| over `samples` quasi-random points of the ball of the given
    radius in R^arity."""
    pts = ball_points(arity, radius, samples, seed=seed)
    return sup_norm(evaluate_arrays(e, [pts[:, j] for j in range(arity)]))


def reference_eval(e, args):
    """The recursive tree walk that exprdsl's value-numbered evaluator
    replaced, kept as the reference it must match bit for bit: every
    occurrence of a subtree is evaluated again, a quotient's denominator
    before its numerator."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(args):
            raise ExpressionDomainError(
                f"expression uses {e.family}{e.index} but only "
                f"{len(args)} coordinates were supplied")
        return args[e.index - 1]
    if isinstance(e, Neg):
        return -reference_eval(e.arg, args)
    if isinstance(e, Add):
        return reference_eval(e.left, args) + reference_eval(e.right, args)
    if isinstance(e, Sub):
        return reference_eval(e.left, args) - reference_eval(e.right, args)
    if isinstance(e, Mul):
        return reference_eval(e.left, args) * reference_eval(e.right, args)
    if isinstance(e, Div):
        denom = reference_eval(e.right, args)
        if np.any(denom == 0):
            raise ExpressionDomainError("division by zero")
        return reference_eval(e.left, args) / denom
    if isinstance(e, Pow):
        return _power(reference_eval(e.base, args), e.exponent)
    if isinstance(e, Call):
        val = reference_eval(e.arg, args)
        if e.fn == "sqrt":
            if np.any(val < 0):
                raise ExpressionDomainError("sqrt of a negative value")
            return np.sqrt(val)
        return getattr(np, e.fn)(val)
    raise TypeError(f"not an expression node: {e!r}")


def reference_evaluate_arrays(e, args):
    """evaluate_arrays as the tree walk gave it: float values, a copy where
    the walk returned an argument, and non-finite values refused."""
    with np.errstate(all="ignore"):
        out = np.asarray(reference_eval(e, list(args)), dtype=float)
    if any(np.may_share_memory(out, a) for a in args):
        out = out.copy()
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("evaluation produced non-finite values")
    return out


def cosine_x1(grid):
    """cos(pi x1 / L) sampled on the grid: one mode along the first axis."""
    return np.array(np.broadcast_to(np.cos(np.pi * grid.coords[0] / grid.L), grid.shape))


def make_certified_problem(n=64):
    """1-component Gaussian problem whose contraction condition holds with a
    factor-2 margin (kernel amplitude 0.005, sigma about 0.32)."""
    grid = Grid(2, n, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(parse("0.005*exp(-x1^2-x2^2)", 2, "x"),),
        operators=(INVERSE_HELMHOLTZ,),
        g=NonlinearitySpec.from_strings(["z1^2"]),
        u0=(parse("0.1*exp(-x1^2-x2^2)", 2, "x"),),
    )


def make_two_component_problem():
    grid = Grid(2, 32, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(parse("0.003*exp(-x1^2-x2^2)", 2, "x"),
                 parse("0.003*exp(-2*x1^2-2*x2^2)", 2, "x")),
        operators=(INVERSE_HELMHOLTZ, scaled_identity(0.5)),
        g=NonlinearitySpec.from_strings(["z1*z2", "z1^2"]),
        u0=(parse("0.1*exp(-x1^2-x2^2)", 2, "x"),
            parse("0.05*exp(-x1^2-x2^2)", 2, "x")),
    )


def make_certified_problem_3d():
    grid = Grid(3, 16, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(parse("0.005*exp(-x1^2-x2^2-x3^2)", 3, "x"),),
        operators=(INVERSE_HELMHOLTZ,),
        g=NonlinearitySpec.from_strings(["z1^2"]),
        u0=(parse("0.1*exp(-x1^2-x2^2-x3^2)", 3, "x"),),
    )


@pytest.fixture(scope="session")
def certified():
    """(materialized problem, constants report) for the canonical problem."""
    mat = materialize(make_certified_problem())
    report = constants_report(mat)
    assert report.certificate.passed
    return mat, report


@pytest.fixture(scope="session")
def two_component():
    mat = materialize(make_two_component_problem())
    report = constants_report(mat)
    assert report.certificate.passed
    return mat, report


@pytest.fixture(scope="session")
def certified_3d():
    mat = materialize(make_certified_problem_3d())
    report = constants_report(mat)
    assert report.certificate.passed
    return mat, report


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, input shape, axes) of every numpy.fft transform called in the
    test.  axes are the `axes` or `axis` keyword, counted from the end as
    negative numbers, or None when the call names none."""
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
        real = getattr(np.fft, name)

        def counting(a, *args, _name=name, _real=real, **kwargs):
            shape = np.shape(a)
            axes = kwargs.get("axes", (kwargs["axis"],) if "axis" in kwargs else None)
            if axes is not None:
                axes = tuple(ax - len(shape) if ax >= 0 else ax for ax in axes)
            calls.append((_name, shape, axes))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls
