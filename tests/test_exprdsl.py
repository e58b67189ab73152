import copy
import gc
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from conftest import reference_eval, reference_evaluate_arrays
from support import evaluate_arrays, to_string
from quadint import exprdsl as dsl
from quadint.errors import (ExpressionDomainError, ExpressionSyntaxError, NumericOverflowError,
                            QuadIntError)
from quadint.exprdsl import (Add, Call, Div, Mul, Neg, NonlinearitySpec, Num, Pow, Sub,
                             Var, differentiate,
                             evaluate, evaluate_many, laplacian_symbolic, parse)


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
        # offsets count UTF-8 bytes: an em space is whitespace of 3 bytes, a
        # no-break space whitespace of 2; an Arabic-Indic three is no digit
        for text, offset in (("z1 + $", 5), ("z1 + ", 5), ("\u2003z1 + $", 8),
                             ("z1+\u00a0$", 5), ("z1+\u0663$", 3), ("z1 +\u00e9", 4),
                             ("\u2003(z1", 6)):
            with pytest.raises(ExpressionSyntaxError) as err:
                parse(text, 1)
            assert err.value.offset == offset

    def test_long_input_is_refused_in_linear_time(self):
        # a flat sum of 1 MB is refused at the depth cap, as a short one is;
        # the tokenizer, which reads all of it first, must not take quadratic time
        text = "z1" + "+z1" * 350_000
        with pytest.raises(ExpressionSyntaxError) as short:
            parse(text[:1000], 1)
        start = time.perf_counter()
        with pytest.raises(ExpressionSyntaxError) as long:
            parse(text, 1)
        assert time.perf_counter() - start < 10.0
        assert str(long.value) == str(short.value) == (
            "expression tree deeper than 100 levels (byte offset 299)")

    def test_non_ascii_digits_are_refused(self):
        # numbers and variable indices are written in [0-9] only
        for text, offset in (("\u0663*z1", 0), ("z1^\u0663", 3), ("z\u0661", 1),
                             ("1.\u0665", 2), ("2e\u0663", 2)):
            with pytest.raises(ExpressionSyntaxError, match="unexpected character") as err:
                parse(text, 1)
            assert err.value.offset == offset, text

    def test_refused_long_input_holds_no_token_stream(self):
        # the 1 MB flat sum is refused at byte offset 299; the tokens after
        # that point are checked for lexer errors but never held
        text = "z1" + "+z1" * 350_000
        tracemalloc.start()
        try:
            with pytest.raises(ExpressionSyntaxError, match="byte offset 299"):
                parse(text, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20, peak
        # a lexer error at the end still comes before the parse error
        with pytest.raises(ExpressionSyntaxError, match=r"unexpected character '\$'"):
            parse(text + "$", 1)

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

    def test_overflowing_constant_power_is_a_domain_error(self):
        # a float literal raised to a power overflows in Python, not numpy
        with pytest.raises(ExpressionDomainError, match="overflows"):
            evaluate(parse("z1*1e300^2", 1), (1.0,))
        with pytest.raises(ExpressionDomainError, match="overflows"):
            evaluate_arrays(parse("z1*10^400", 1), [np.ones(3)])

    def test_overflowing_fold_is_a_domain_error(self):
        with pytest.raises(ExpressionDomainError, match="overflows"):
            dsl.fold_pow(Num(2.0), 5000)
        with pytest.raises(ExpressionDomainError, match="overflows"):
            dsl.fold_call("exp", Num(1000.0))
        with pytest.raises(ExpressionDomainError, match="overflows"):
            NonlinearitySpec.from_strings(["z1^2*2^5000"])

    def test_array_evaluation_broadcasts(self):
        e = parse("z1*z2", 2)
        a = np.array([1.0, 2.0, 3.0])
        b = np.array([4.0, 5.0, 6.0])
        assert np.allclose(evaluate_arrays(e, [a, b]), a * b)

    def test_array_result_owns_its_memory(self):
        # a bare variable evaluates to its argument; the result is a copy,
        # so a caller may overwrite the arguments with the results
        rows = np.arange(6.0).reshape(2, 3)
        for text, j in (("z2", 1), ("z1", 0), ("(z2)", 1)):
            out = evaluate_arrays(parse(text, 2), list(rows))
            assert np.array_equal(out, rows[j])
            assert not np.shares_memory(out, rows)
        values = evaluate_many(NonlinearitySpec.from_strings(["z2", "z1"]).components,
                               list(rows))
        assert not any(np.shares_memory(v, rows) for v in values)

    def test_array_domain_fault(self):
        e = parse("1/z1", 1)
        with pytest.raises(ExpressionDomainError):
            evaluate_arrays(e, [np.array([1.0, 0.0])])


@st.composite
def evaluation_cases(draw, arity=3):
    """A few expressions over z1..z<arity> built from one pool of subtrees,
    so that they share subtrees both as objects and as equal copies, and
    their arguments: scalars, 1-D arrays, or broadcastable grid coordinates.
    The expressions are the last pool node and others from the pool, in
    any order, so a later expression may read an earlier one as a subtree.
    Half the cases also draw zeros, negative coordinates and huge values,
    which reach every domain fault; the others mostly evaluate."""
    faults = draw(st.booleans())
    literals = (1.0, -2.5, 0.5, 3.0) + ((0.0, -0.0, 1e200, 1e-200) if faults else ())
    coordinates = st.floats(0.25, 2.0)
    if faults:
        coordinates = coordinates | st.sampled_from((0.0, -0.0, -1.0, 1e160))
    pool = [Var("z", i) for i in range(1, arity + 1)]
    pool += [Num(v) for v in draw(st.lists(st.sampled_from(literals), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(2, 16))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(("add", "sub", "mul", "div", "neg", "pow", "call", "copy")))
        if kind == "neg":
            node = Neg(a)
        elif kind == "pow":
            node = Pow(a, draw(st.integers(0, 4)))
        elif kind == "call":
            node = Call(draw(st.sampled_from(dsl.FUNCTIONS)), a)
        elif kind == "copy":
            node = copy.deepcopy(a)  # equal to a, but not the same object
        else:
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)
        pool.append(node)
    exprs = draw(st.permutations([pool[-1]] + draw(st.lists(st.sampled_from(pool),
                                                            max_size=4))))
    kind = draw(st.sampled_from(("scalar", "array", "grid")))
    if kind == "scalar":
        return exprs, kind, [draw(coordinates) for _ in range(arity)]
    if kind == "array":
        size = draw(st.integers(1, 6))
        return exprs, kind, [np.array(draw(st.lists(coordinates, min_size=size, max_size=size)))
                             for _ in range(arity)]
    shapes = [[n if axis == j else 1 for axis in range(arity)] for j, n in enumerate((3, 4, 2))]
    return exprs, kind, [np.array(draw(st.lists(coordinates, min_size=max(shape),
                                                max_size=max(shape)))).reshape(shape)
                         for shape in shapes]


def outcome(evaluate_set):
    """The list of values, or the type and text of the error raised."""
    try:
        return evaluate_set()
    except QuadIntError as exc:
        return type(exc), str(exc)


class TestValueNumberedEvaluator:
    @settings(max_examples=400, deadline=None)
    @given(case=evaluation_cases())
    def test_matches_the_tree_walk_bit_for_bit(self, case):
        # the reference evaluates the expressions in turn and stops at the
        # first fault; the evaluator must raise that fault, or give the same
        # bits in the same shapes
        exprs, kind, values = case
        expected = outcome(lambda: [reference_evaluate_arrays(e, values) for e in exprs])
        got = outcome(lambda: evaluate_many(exprs, values))
        if isinstance(expected, tuple):
            assert got == expected
            return
        assert isinstance(got, list) and len(got) == len(expected)
        for out, ref in zip(got, expected):
            assert out.dtype == float and out.shape == ref.shape
            assert out.tobytes() == ref.tobytes()
        arrays = [v for v in values if isinstance(v, np.ndarray)] + got
        for out in got:
            assert not any(np.shares_memory(out, other) for other in arrays if other is not out)
        if kind == "scalar":
            for e in exprs:
                assert outcome(lambda: evaluate(e, values)) == outcome(
                    lambda: reference_scalar(e, values))

    def test_identical_and_bare_variable_roots_share_no_memory(self):
        rows = np.arange(6.0).reshape(2, 3) + 1.0
        e = parse("z1*z2+z1", 2)
        exprs = [e, parse("z1*z2+z1", 2), e, parse("z2", 2), parse("z2", 2), parse("(z1)", 2)]
        out = evaluate_many(exprs, list(rows))
        assert [v.tobytes() for v in out] == [
            ref.tobytes() for ref in (rows[0] * rows[1] + rows[0],) * 3 + (rows[1],) * 2 + (rows[0],)]
        for i, v in enumerate(out):
            assert not np.shares_memory(v, rows)
            assert not any(np.shares_memory(v, w) for w in out[i + 1:])

    def test_a_value_read_again_is_not_overwritten(self):
        # exp(z1) is yielded and then read by the product for the last time;
        # the root reads z1+z1 after the walk of its other operand reads it
        a = np.linspace(-1.0, 1.0, 5)
        twice = Add(Var("z", 1), Var("z", 1))
        exprs = [parse("exp(z1)", 1), parse("exp(z1)*2.0", 1), Add(twice, Add(Var("z", 1), twice))]
        assert [v.tobytes() for v in evaluate_many(exprs, [a])] == [
            reference_evaluate_arrays(e, [a]).tobytes() for e in exprs]

    def test_evaluation_leaves_no_cyclic_garbage(self):
        # the memo, the operands and the arguments are freed when a call
        # returns or raises, not when the cyclic collector next runs
        z = [np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5)]
        exprs = [parse(text, 2) for text in ("tanh(z1*z2)", "z1/z2+tanh(z1*z2)", "z2")]
        gc.collect()
        gc.disable()
        try:
            evaluate(exprs[1], [0.5, 0.25])
            evaluate_many(exprs, z)
            evaluate_many(exprs, z, take=lambda i, v: float(np.sum(v)))
            try:
                evaluate_many([parse("1/z1", 1)], [np.zeros(3)])
            except ExpressionDomainError:
                pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_take_receives_each_value_in_order(self):
        a = np.linspace(-1.0, 1.0, 7)
        exprs = [parse(text, 1) for text in ("sin(z1)^2", "2*sin(z1)*cos(z1)", "z1", "0")]
        seen = []
        sums = evaluate_many(exprs, [a], take=lambda i, v: seen.append(i) or float(np.sum(v)))
        assert seen == [0, 1, 2, 3]
        assert sums == [float(np.sum(reference_evaluate_arrays(e, [a]))) for e in exprs]

    def test_faults_come_in_the_order_of_the_walk(self):
        # a quotient's denominator is tested before its numerator runs, and a
        # value is checked for finiteness only after every expression before
        # it, even when an earlier expression computed it as a subtree
        z = [np.array([0.0, 1000.0]), np.array([0.0, 1.0])]
        quotient = parse("sqrt(z1-1)/z2", 2)
        inner = parse("exp(z1)", 2)
        for exprs, message in (([quotient], "division by zero"),
                               ([Add(inner, parse("1/z2", 2)), inner], "division by zero")):
            with pytest.raises(ExpressionDomainError, match=message):
                evaluate_many(exprs, z)
            with pytest.raises(ExpressionDomainError, match=message):
                [reference_evaluate_arrays(e, z) for e in exprs]
        with pytest.raises(ExpressionDomainError, match="non-finite"):
            evaluate_many([inner, Add(inner, parse("1/z2", 2))], z)

    def test_each_distinct_subtree_is_evaluated_once(self, monkeypatch):
        calls = []
        real = np.tanh

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "tanh", counting)
        g = NonlinearitySpec.from_strings(["tanh(z1*z2)", "tanh(z2*z1)"])
        cols = [np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5)]
        evaluate_many(g.c1_expressions, cols)
        # each component's tanh, shared by its value and both partial derivatives
        assert len(calls) == 2


@st.composite
def enclosure_cases(draw, arity=3):
    """A few expressions over z1..z<arity> of every node type and function,
    built from one pool of subtrees, and 1 to 4 boxes, each given by its
    lower edge and width along every axis."""
    literals = (1.0, -2.5, 0.5, 3.0, 0.0, 1e-3)
    pool = [Var("z", i) for i in range(1, arity + 1)]
    pool += [Num(v) for v in draw(st.lists(st.sampled_from(literals), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(2, 12))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        kind = draw(st.sampled_from(("add", "sub", "mul", "div", "neg", "pow", "call")))
        if kind == "neg":
            node = Neg(a)
        elif kind == "pow":
            node = Pow(a, draw(st.sampled_from((0, 1, 2, 3, 4, 7))))
        elif kind == "call":
            node = Call(draw(st.sampled_from(dsl.FUNCTIONS)), a)
        else:
            node = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind](a, b)
        pool.append(node)
    exprs = [pool[-1]] + draw(st.lists(st.sampled_from(pool[arity:]), max_size=3))
    edges = st.floats(-4.0, 4.0) | st.sampled_from((0.0, -0.0, math.pi / 2, -math.pi, 40.0))
    widths = st.floats(0.0, 3.0) | st.sampled_from((0.0, 1e-9, 7.0))
    count = draw(st.integers(1, 4))
    lower = np.array([[draw(edges) for _ in range(count)] for _ in range(arity)])
    width = np.array([[draw(widths) for _ in range(count)] for _ in range(arity)])
    fractions = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * arity, max_size=2 * arity))
    return exprs, lower, lower + width, np.array(fractions).reshape(2, arity)


def box_points(lower, upper, fractions):
    """The corners, the centre and one point per row of `fractions` of each
    box, as one coordinate array per axis: shape (axes, boxes, points)."""
    arity = lower.shape[0]
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * arity, indexing="ij")).reshape(arity, -1)
    where = np.concatenate([corners, np.full((arity, 1), 0.5), fractions.T], axis=1)
    points = lower[:, :, None] + where[:, None, :] * (upper - lower)[:, :, None]
    return np.minimum(points, upper[:, :, None])


WALKS = (dsl.enclose_many, dsl.enclose_affine)


def assert_encloses(exprs, lower, upper, fractions, enclose=dsl.enclose_many):
    """Each enclosure by the walk `enclose` holds the tree walk's value at
    every point of box_points; the walk may raise nowhere there.  False
    when the enclosure refuses or overflows."""
    try:
        enclosures = enclose(exprs, {j + 1: np.stack([lower[j], upper[j]])
                                     for j in range(lower.shape[0])})
    except NumericOverflowError:
        return False
    if enclosures is None:
        return False
    points = box_points(lower, upper, fractions)
    for e, v in zip(exprs, enclosures):
        with np.errstate(all="ignore"):
            value = np.broadcast_to(reference_eval(e, list(points)), points.shape[1:])
        assert np.all(v[0][:, None] <= value) and np.all(value <= v[1][:, None]), e
    return True


class TestIntervalEnclosure:
    @settings(max_examples=500, deadline=None)
    @given(case=enclosure_cases())
    def test_holds_the_tree_walk_at_points_of_each_box(self, case):
        for enclose in WALKS:
            assert_encloses(*case, enclose=enclose)

    def test_holds_safe_random_expressions_without_refusing(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            exprs = [random_expr(rng, 2) for _ in range(3)]
            lower = rng.uniform(-3.0, 3.0, (2, 5))
            upper = lower + rng.uniform(0.0, 2.0, (2, 5))
            fractions = rng.uniform(0.0, 1.0, (2, 2))
            for enclose in WALKS:
                assert assert_encloses(exprs, lower, upper, fractions, enclose), enclose

    def test_rounds_each_operation_outward(self):
        x = {1: np.array([[0.1], [0.1]]), 2: np.array([[0.2], [0.2]])}
        for text, value in (("z1+z2", 0.1 + 0.2), ("z1-z2", 0.1 - 0.2),
                            ("z1*z2", 0.1 * 0.2), ("z1/z2", 0.1 / 0.2)):
            [v] = dsl.enclose_many([parse(text, 2)], x)
            assert v[0, 0] < value < v[1, 0], text

    @pytest.mark.parametrize("text, lower, upper, low, high", [
        ("z1^2", -1.0, 2.0, 0.0, 4.0),                  # an even power from 0
        ("z1^10000", -0.5, 0.5, 0.0, 0.0),              # no loop per factor
        ("sin(z1)", 0.0, math.pi, 0.0, 1.0),            # meets the peak at pi/2
        ("cos(z1)", 3.0, 3.5, -1.0, math.cos(3.5)),     # meets the dip at pi
        ("tanh(z1)", 30.0, 40.0, math.tanh(30.0), 1.0),  # clamped to 1
    ])
    def test_extrema_and_clamps(self, text, lower, upper, low, high):
        [v] = dsl.enclose_many([parse(text, 1)], {1: np.array([[lower], [upper]])})
        assert v[0, 0] <= low and high <= v[1, 0]
        assert v[1, 0] - v[0, 0] <= high - low + 1e-13
        if text == "z1^2":
            assert v[0, 0] == 0.0  # so sqrt(z1^2) is not refused

    @pytest.mark.parametrize("text", ["1/z1", "sqrt(z1)", "sqrt(z2-z2+1e-9)",
                                      "exp(1000*z1)"])
    def test_refuses_a_pole_a_negative_root_and_overflow(self, text):
        boxes = {1: np.array([[-1.0, 1.0], [0.5, 2.0]]), 2: np.array([[1.0, 2.0], [1.5, 3.0]])}
        if text.startswith("exp"):  # e^1000 overflows a double
            with pytest.raises(NumericOverflowError, match="overflows a double"):
                dsl.enclose_many([parse(text, 2)], boxes)
        else:
            assert dsl.enclose_many([parse(text, 2)], boxes) is None

    def test_affine_walk_refuses_and_raises_where_the_interval_walk_does(self):
        # z2 - z2 is exactly 0 in affine forms, so sqrt(z2-z2+1e-9) is not refused
        boxes = {1: np.array([[-1.0, 1.0], [0.5, 2.0]]), 2: np.array([[1.0, 2.0], [1.5, 3.0]])}
        for text in ("1/z1", "sqrt(z1)", "z1*sqrt(z1^2)/sqrt(z1^2)"):
            assert dsl.enclose_affine([parse(text, 2)], boxes) is None, text
        with pytest.raises(NumericOverflowError, match="overflows a double"):
            dsl.enclose_affine([parse("exp(1000*z1)", 2)], boxes)
        [v] = dsl.enclose_affine([parse("sqrt(z2-z2+1e-9)", 2)], boxes)
        assert np.all(v[0] <= math.sqrt(1e-9)) and np.all(v[1] >= math.sqrt(1e-9))
        assert np.all(v[1] - v[0] < 1e-18)

    def test_copies_of_a_subtree_cancel_in_affine_forms(self):
        # g - g is exactly 0, and g - 1.01 g a hundredth of g, where the
        # interval walk widens both copies of g on their own
        g = parse("tanh(z1*z2)*exp(z2)/(2+z1)", 2)
        boxes = {1: np.array([[-0.5, 0.0], [0.0, 0.5]]), 2: np.array([[0.1, -0.4], [0.3, -0.2]])}
        [zero, small, whole] = dsl.enclose_affine(
            [Sub(g, copy.deepcopy(g)), Sub(g, Mul(Num(1.01), g)), g], boxes)
        assert not zero.any()
        assert np.all(np.abs(small) <= 0.0101 * np.max(np.abs(whole), axis=0))
        [wide] = dsl.enclose_many([Sub(g, Mul(Num(1.01), g))], boxes)
        assert np.all(wide[1] - wide[0] > 10 * (small[1] - small[0]))

    def test_variables(self):
        assert dsl.variables([parse("sin(z3)*z1 + z3^2", 4), Num(1.0), parse("z4/z2", 4),
                              Pow(parse("-z2", 4), 3)]) == [(1, 3), (), (2, 4), (2,)]


def reference_scalar(e, point):
    """evaluate at a point as the tree walk gave it."""
    with np.errstate(all="ignore"):
        out = float(reference_eval(e, [float(p) for p in point]))
    if not math.isfinite(out):
        raise ExpressionDomainError("evaluation produced a non-finite value")
    return out


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

    def test_negative_zero_prints_with_its_sign(self):
        # -0.0 binds as a negated literal, like any negative one; Num(0.0)
        # equals Num(-0.0), so the printed forms are compared
        assert to_string(parse("(-0.0)^2", 1)) == "(-0.0)^2"
        assert to_string(parse(to_string(Pow(Num(-0.0), 2)), 1)) == "(-0.0)^2"
        assert to_string(Neg(Num(-0.0))) == "-(-0.0)"
        assert to_string(parse("-(-0.0)", 1)) == "0.0"

    @settings(max_examples=400, deadline=None)
    @given(case=evaluation_cases())
    def test_printed_trees_parse_to_a_fixed_point(self, case):
        # a negated literal parses as a literal, so the first round trip may
        # change the tree; the tree it gives must then survive one unchanged
        for tree in case[0]:
            once = parse(to_string(tree), 3)
            twice = parse(to_string(once), 3)
            assert twice == once and to_string(twice) == to_string(once)

    def test_round_trip_derivatives(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            tree = differentiate(random_expr(rng, 2, depth=4), 1)
            assert parse(to_string(tree), 2) == tree


class TestNonlinearitySpec:
    def test_gradient_is_exact(self):
        g = NonlinearitySpec.from_strings(["z1*z2", "z2"])
        assert g.gradient[0][0] == Var("z", 2)
        assert g.gradient[0][1] == Var("z", 1)
        assert g.gradient[1][0] == Num(0.0)
        assert g.gradient[1][1] == Num(1.0)
        assert np.allclose(g.gradient_at((1.0, 2.0)), [[2.0, 1.0], [0.0, 1.0]])

    def test_scaled(self):
        g = NonlinearitySpec.from_strings(["z1^2"])
        g2 = support.scaled(g, 1.5)
        assert evaluate(g2.components[0], (2.0,)) == 6.0
        assert evaluate(g2.gradient[0][0], (2.0,)) == 6.0

    def test_difference(self):
        g1 = NonlinearitySpec.from_strings(["z1^2"])
        diff = support.scaled(g1, 1.25).difference(g1)
        assert evaluate(diff.components[0], (2.0,)) == pytest.approx(1.0)


A, B = Var("z", 1), Num(2.0)
# one node of each class; the binary ones share their operands
NODES = (Num(2.0), Var("z", 1), Neg(A), Add(A, B), Sub(A, B), Mul(A, B), Div(A, B),
         Pow(A, 3), Call("sin", A))
FIELDS = {Num: ("value",), Var: ("family", "index"), Neg: ("arg",), Add: ("left", "right"),
          Sub: ("left", "right"), Mul: ("left", "right"), Div: ("left", "right"),
          Pow: ("base", "exponent"), Call: ("fn", "arg")}


def fields_of(node) -> tuple:
    return tuple(getattr(node, name) for name in FIELDS[type(node)])


def assert_equal_by_class_and_fields(node):
    """Equality of a node: equal to a node of its class with equal fields,
    and to nothing else, neither the tuple of its fields nor a node of
    another class with the same fields."""
    fields = fields_of(node)
    assert node == type(node)(*fields) and not node != type(node)(*fields)
    assert node != fields and fields != node and not node == fields
    for cls, names in FIELDS.items():
        if cls is not type(node) and len(names) == len(fields):
            twin = cls(*fields)
            assert node != twin and twin != node and not node == twin


class TestNodeContract:
    """The node classes keep the contract of the frozen dataclasses they
    were before 0.12.0; every test but the mutation pair passes on both."""

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_equal_by_class_and_fields(self, node):
        assert_equal_by_class_and_fields(node)

    def test_add_is_not_mul(self):
        assert Add(A, B) != Mul(A, B)
        assert Num(1.0) != (1.0,)
        assert parse("z1*z2", 2) != parse("z1+z2", 2)

    def test_class_blind_equality_fails_the_check(self, monkeypatch):
        # mutation pair: tuple equality alone merges Add and Mul
        from quadint.records import Record
        monkeypatch.setattr(Record, "__eq__", tuple.__eq__)
        monkeypatch.setattr(Record, "__ne__", tuple.__ne__)
        assert Add(A, B) == Mul(A, B)
        with pytest.raises(AssertionError):
            assert_equal_by_class_and_fields(Add(A, B))

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_hash_is_that_of_the_fields(self, node):
        assert hash(node) == hash(fields_of(node))
        assert hash(node) == hash(copy.deepcopy(node))

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_repr(self, node):
        fields = ", ".join(f"{name}={getattr(node, name)!r}" for name in FIELDS[type(node)])
        assert repr(node) == f"{type(node).__name__}({fields})"

    def test_repr_of_a_tree(self):
        assert repr(Add(A, B)) == "Add(left=Var(family='z', index=1), right=Num(value=2.0))"

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_immutable(self, node):
        for name in FIELDS[type(node)]:
            with pytest.raises(AttributeError):
                setattr(node, name, Num(0.0))
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.extra = 1

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_deepcopy_and_pickle_round_trip(self, node):
        import pickle
        for copied in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(copied) is type(node) and copied == node
            assert repr(copied) == repr(node)

    def test_deepcopy_of_a_tree_copies_its_nodes(self):
        tree = parse("tanh(z1*z2)+z1*z2", 2)
        copied = copy.deepcopy(tree)
        assert copied == tree and copied.left is not tree.left
        assert copied.left.arg is not tree.left.arg

    def test_equal_groups_keep_classes_apart(self):
        # Mul(x1, x2) and Add(x1, x2), and Num(1.0) and GaussianKernel(1.0),
        # hash alike: only equality tells the kernels apart
        from quadint.model import GaussianKernel, equal_groups
        product, total = parse("x1*x2", 2, "x"), parse("x1+x2", 2, "x")
        assert hash(product) == hash(total)
        assert equal_groups([product, total, product, parse("x1*x2", 2, "x")]) == [
            [0, 2, 3], [1]]
        assert equal_groups([Num(1.0), GaussianKernel(1.0), GaussianKernel(1.0)]) == [
            [0], [1, 2]]
