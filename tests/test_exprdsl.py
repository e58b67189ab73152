import math

import numpy as np
import pytest

from quadint import exprdsl as dsl
from quadint.errors import ExpressionDomainError, ExpressionSyntaxError
from quadint.exprdsl import (Add, Call, Mul, NonlinearitySpec, Num, Pow,
                             Var, check_zero_at_origin, differentiate,
                             evaluate, evaluate_arrays, laplacian_symbolic,
                             parse, to_string)


class TestParse:
    def test_product(self):
        e = parse("z1*z2", 2)
        assert e == Mul(Var("z", 1), Var("z", 2))
        assert evaluate(e, (2.0, 3.0)) == 6.0

    def test_function_and_power(self):
        e = parse("sin(z1)+z2^3", 2)
        assert e == Add(Call("sin", Var("z", 1)), Pow(Var("z", 2), 3))

    def test_index_out_of_range(self):
        with pytest.raises(ExpressionSyntaxError, match="out of range"):
            parse("z3", 2)

    def test_family_mismatch(self):
        with pytest.raises(ExpressionSyntaxError, match="family"):
            parse("x1", 2, "z")

    def test_spatial_rational(self):
        e = parse("1/(1+x1^2+x2^2)", 2, "x")
        assert evaluate(e, (0.0, 0.0)) == 1.0

    def test_precedence(self):
        assert evaluate(parse("2+3*4", 1), (0.0,)) == 14.0
        assert evaluate(parse("2*3^2", 1), (0.0,)) == 18.0
        # power binds tighter than unary minus
        assert evaluate(parse("-2^2", 1), (0.0,)) == -4.0
        assert evaluate(parse("(-2)^2", 1), (0.0,)) == 4.0
        # left associativity
        assert evaluate(parse("8/4/2", 1), (0.0,)) == 1.0
        assert evaluate(parse("8-4-2", 1), (0.0,)) == 2.0

    def test_whitespace_insensitive(self):
        assert parse(" z1 * ( z2 + 1.5 ) ", 2) == parse("z1*(z2+1.5)", 2)

    def test_numbers_with_exponents(self):
        assert evaluate(parse("1e-3", 1), (0.0,)) == 1e-3
        assert evaluate(parse("2.5E+2", 1), (0.0,)) == 250.0
        assert evaluate(parse(".5", 1), (0.0,)) == 0.5

    def test_syntax_error_carries_offset(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("z1 + $", 1)
        assert err.value.offset == 5
        with pytest.raises(ExpressionSyntaxError) as err:
            parse("z1 + ", 1)
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionSyntaxError, match="unknown identifier"):
            parse("foo(z1)", 1)

    def test_exponent_must_be_unsigned_integer(self):
        with pytest.raises(ExpressionSyntaxError, match="exponent"):
            parse("z1^-2", 1)
        with pytest.raises(ExpressionSyntaxError, match="exponent"):
            parse("z1^2.5", 1)
        with pytest.raises(ExpressionSyntaxError, match="exponent"):
            parse("z1^z2", 2)

    def test_unbalanced_parens(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("(z1+1", 1)
        with pytest.raises(ExpressionSyntaxError):
            parse("sin z1", 1)

    def test_arity_limits(self):
        parse("z16", 16)
        with pytest.raises(ExpressionSyntaxError):
            parse("z1", 17)
        with pytest.raises(ExpressionSyntaxError):
            parse("x1", 4, "x")


class TestEvaluate:
    def test_polynomial_root(self):
        assert evaluate(parse("z1^2-z1", 1), (1.0,)) == 0.0

    def test_exp_minus_one(self):
        assert evaluate(parse("exp(z1)-1", 1), (0.0,)) == 0.0

    def test_tanh_matches_reference(self):
        val = evaluate(parse("tanh(z1*z2)", 2), (0.5, 0.5))
        assert val == pytest.approx(math.tanh(0.25), rel=1e-15)

    def test_division_by_zero(self):
        with pytest.raises(ExpressionDomainError, match="division"):
            evaluate(parse("1/z1", 1), (0.0,))

    def test_sqrt_of_negative(self):
        with pytest.raises(ExpressionDomainError, match="sqrt"):
            evaluate(parse("sqrt(z1)", 1), (-1.0,))

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ExpressionDomainError, match="non-finite"):
            evaluate(parse("exp(z1)", 1), (1e9,))

    def test_array_evaluation_broadcasts(self):
        e = parse("z1*z2", 2)
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert np.allclose(evaluate_arrays(e, [a, b]), a * b)

    def test_array_domain_fault(self):
        e = parse("1/z1", 1)
        with pytest.raises(ExpressionDomainError):
            evaluate_arrays(e, [np.array([1.0, 0.0])])


def random_expr(rng, arity, depth=3):
    """Random expression tree staying inside safe evaluation domains
    (no bare division, sqrt only of 1 + (.)^2, damped exp)."""
    if depth == 0 or rng.uniform() < 0.25:
        if rng.uniform() < 0.5:
            return Var("z", int(rng.integers(1, arity + 1)))
        return Num(round(float(rng.uniform(-2, 2)), 3))
    pick = rng.integers(0, 8)
    child = random_expr(rng, arity, depth - 1)
    other = random_expr(rng, arity, depth - 1)
    if pick == 0:
        return dsl.fold_add(child, other)
    if pick == 1:
        return dsl.fold_sub(child, other)
    if pick == 2:
        return dsl.fold_mul(child, other)
    if pick == 3:
        return dsl.fold_div(child, Add(Num(1.0), Pow(other, 2)))
    if pick == 4:
        return dsl.fold_pow(child, int(rng.integers(2, 4)))
    if pick == 5:
        return Call(str(rng.choice(["sin", "cos", "tanh"])), child)
    if pick == 6:
        return Call("exp", dsl.fold_mul(Num(0.3), child))
    return Call("sqrt", Add(Num(1.0), Pow(child, 2)))


class TestDifferentiate:
    def test_power_plus_other_variable(self):
        e = parse("z1^2+sin(z2)", 2)
        assert differentiate(e, 1) == Mul(Num(2.0), Var("z", 1))

    def test_product(self):
        assert differentiate(parse("z1*z2", 2), 2) == Var("z", 1)

    def test_total_on_all_nodes(self):
        e = parse("sqrt(1+z1^2)/(1+tanh(z2)^2)", 2)
        d = differentiate(e, 1)
        assert evaluate(d, (0.0, 0.0)) == pytest.approx(0.0)

    def test_random_exprs_match_finite_differences(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 100:
            arity = int(rng.integers(1, 4))
            e = random_expr(rng, arity)
            i = int(rng.integers(1, arity + 1))
            d = differentiate(e, i)
            z = rng.uniform(-1, 1, arity)
            h = 1e-5
            zp, zm = z.copy(), z.copy()
            zp[i - 1] += h
            zm[i - 1] -= h
            try:
                fd = (evaluate(e, zp) - evaluate(e, zm)) / (2 * h)
                sym = evaluate(d, z)
            except ExpressionDomainError:
                continue
            assert sym == pytest.approx(fd, rel=1e-6, abs=1e-6)
            checked += 1

    def test_linearity(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            e1 = random_expr(rng, 2)
            e2 = random_expr(rng, 2)
            a = 1.75
            combo = dsl.fold_add(dsl.fold_mul(Num(a), e1), e2)
            d_combo = differentiate(combo, 1)
            d_split = dsl.fold_add(dsl.fold_mul(Num(a), differentiate(e1, 1)),
                                   differentiate(e2, 1))
            for _ in range(5):
                z = rng.uniform(-1, 1, 2)
                try:
                    lhs, rhs = evaluate(d_combo, z), evaluate(d_split, z)
                except ExpressionDomainError:
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestSymbolicLaplacian:
    def test_paraboloid(self):
        assert laplacian_symbolic(parse("x1^2+x2^2", 2, "x"), 2) == Num(4.0)

    def test_constant(self):
        assert laplacian_symbolic(parse("3.5", 2, "x"), 2) == Num(0.0)

    def test_gaussian_matches_closed_form_and_spectral(self):
        from quadint.spectral import Grid, laplacian as lap_spectral
        e = parse("exp(-x1^2-x2^2)", 2, "x")
        sym = laplacian_symbolic(e, 2)
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            expected = (4 * (x[0] ** 2 + x[1] ** 2) - 4) * math.exp(-x[0] ** 2 - x[1] ** 2)
            assert evaluate(sym, x) == pytest.approx(expected, rel=1e-12)
        grid = Grid(2, 64, 8.0)
        spectral_vals = lap_spectral(grid, evaluate_arrays(e, grid.coords))
        sym_vals = evaluate_arrays(sym, grid.coords)
        inner = np.s_[8:-8, 8:-8]
        assert np.max(np.abs(spectral_vals[inner] - sym_vals[inner])) < 1e-6


class TestPrinting:
    def test_round_trip_samples(self):
        samples = ["z1*z2", "sin(z1)+z2^3", "1/(1+z1^2+z2^2)", "-z1^2",
                   "(-2)^3", "z1-(z2-z1)", "z1/(z2+2)/z1", "2.5e-3*z1",
                   "-(z1*z2)", "z1--2"]
        for text in samples:
            tree = parse(text, 2)
            assert parse(to_string(tree), 2) == tree

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tree = random_expr(rng, 3, depth=4)
            assert parse(to_string(tree), 3) == tree

    def test_round_trip_derivatives(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tree = differentiate(random_expr(rng, 2, depth=4), 1)
            assert parse(to_string(tree), 2) == tree


class TestPolynomialClassification:
    def test_simple(self):
        coeffs = dsl.as_polynomial(parse("z1^2+2*z1*z2-3", 2), 2)
        assert coeffs == {(2, 0): 1.0, (1, 1): 2.0, (0, 0): -3.0}

    def test_division_by_constant_stays_polynomial(self):
        coeffs = dsl.as_polynomial(parse("z1/2", 1), 1)
        assert coeffs == {(1,): 0.5}

    def test_non_polynomial(self):
        assert dsl.as_polynomial(parse("sin(z1)", 1), 1) is None
        assert dsl.as_polynomial(parse("1/z1", 1), 1) is None

    def test_sup_bound(self):
        coeffs = dsl.as_polynomial(parse("z1^2", 1), 1)
        assert dsl.polynomial_sup_bound(coeffs, 3.0) == 9.0
        coeffs = dsl.as_polynomial(parse("z1-z2^3", 2), 2)
        assert dsl.polynomial_sup_bound(coeffs, 2.0) == 2.0 + 8.0


class TestNonlinearitySpec:
    def test_gradient_is_exact(self):
        g = NonlinearitySpec.from_strings(["z1*z2", "z2"])
        assert g.gradient[0][0] == Var("z", 2)
        assert g.gradient[0][1] == Var("z", 1)
        assert g.gradient[1][0] == Num(0.0)
        assert g.gradient[1][1] == Num(1.0)
        assert np.allclose(g.gradient_at((1.0, 2.0)), [[2.0, 1.0], [0.0, 1.0]])

    def test_zero_at_origin(self):
        assert check_zero_at_origin(NonlinearitySpec.from_strings(["z1*z2", "z1^2"]))
        assert not check_zero_at_origin(NonlinearitySpec.from_strings(["z1+1"]))
        assert check_zero_at_origin(NonlinearitySpec.from_strings(["sin(z1)"]))

    def test_scaled(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        g2 = g.scaled(1.5)
        assert evaluate(g2.components[0], (2.0,)) == 6.0
        assert evaluate(g2.gradient[0][0], (2.0,)) == 6.0

    def test_difference(self):
        g1 = NonlinearitySpec.from_strings(["z1^2"])
        diff = g1.scaled(1.25).difference(g1)
        assert evaluate(diff.components[0], (2.0,)) == pytest.approx(1.0)
