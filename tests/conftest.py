import numpy as np
import pytest

import quadint.spectral as sp
from quadint import sampling
from quadint.analysis import constants_report
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import ExpressionKernel, InverseHelmholtz, ProblemSpec, \
    ScaledIdentity, materialize
from quadint.spectral import Grid


def h2(grid, f):
    """Sobolev norm of a field, or the vector norm of stacked fields."""
    return sp.h2_norm(grid, sp.forward_transform(grid, f))


def cosine_x1(grid):
    """cos(pi x1 / L) sampled on the grid: one mode along the first axis."""
    return np.array(np.broadcast_to(np.cos(np.pi * grid.coords[0] / grid.L), grid.shape))


def make_certified_problem(n=64):
    """1-component Gaussian problem whose contraction condition holds with a
    factor-2 margin (kernel amplitude 0.005, sigma about 0.32)."""
    grid = Grid(2, n, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(ExpressionKernel("0.005*exp(-x1^2-x2^2)"),),
        operators=(InverseHelmholtz(),),
        g=NonlinearitySpec.from_strings(["z1^2"]),
        u0=(parse("0.1*exp(-x1^2-x2^2)", 2, "x"),),
    )


def make_two_component_problem():
    grid = Grid(2, 32, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(ExpressionKernel("0.003*exp(-x1^2-x2^2)"),
                 ExpressionKernel("0.003*exp(-2*x1^2-2*x2^2)")),
        operators=(InverseHelmholtz(), ScaledIdentity(0.5)),
        g=NonlinearitySpec.from_strings(["z1*z2", "z1^2"]),
        u0=(parse("0.1*exp(-x1^2-x2^2)", 2, "x"),
            parse("0.05*exp(-x1^2-x2^2)", 2, "x")),
    )


def make_certified_problem_3d():
    grid = Grid(3, 16, 8.0)
    return ProblemSpec(
        grid=grid,
        kernels=(ExpressionKernel("0.005*exp(-x1^2-x2^2-x3^2)"),),
        operators=(InverseHelmholtz(),),
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
def ball_point_calls(monkeypatch):
    """The argument tuples of every sampling.ball_points call in the test."""
    calls = []
    real = sampling.ball_points

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sampling, "ball_points", counting)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """(name, input shape) of every numpy.fft transform called in the test."""
    calls = []
    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
                 "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
        real = getattr(np.fft, name)

        def counting(a, *args, _name=name, _real=real, **kwargs):
            calls.append((_name, np.shape(a)))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)
    return calls
