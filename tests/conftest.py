import numpy as np
import pytest

from quadint import sampling
from quadint.analysis import constants_report
from quadint.exprdsl import NonlinearitySpec, parse
from quadint.model import ExpressionKernel, InverseHelmholtz, ProblemSpec, \
    ScaledIdentity, materialize
from quadint.spectral import Grid


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
