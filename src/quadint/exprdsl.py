"""Small expression language for nonlinearities, initial data, and kernels.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' integer)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers: variables z1..z16 (state space) or x1..x3 (spatial), and the
functions sin, cos, tanh, exp, sqrt.  Numbers are decimals with an optional
exponent.  '^' binds tighter than unary minus, which binds tighter than
'*' and '/'.

Expressions are immutable trees; evaluation is IEEE double arithmetic and
works elementwise on numpy arrays.  Differentiation is exact and symbolic;
the only rewriting ever applied is local constant folding.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ExpressionDomainError, ExpressionSyntaxError, NumericOverflowError

FUNCTIONS = ("sin", "cos", "tanh", "exp", "sqrt")
MAX_Z_ARITY = 16
MAX_X_ARITY = 3


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    family: str  # 'z' or 'x'
    index: int   # 1-based


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text[: len(text) - len(stripped)].encode("utf-8"))
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        start = m.start("num") if m.group("num") else (
            m.start("ident") if m.group("ident") else m.start("op"))
        offset = len(text[:start].encode("utf-8"))
        if m.group("num"):
            tokens.append(("num", m.group("num"), offset))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), offset))
        else:
            tokens.append(("op", m.group("op"), offset))
        pos = m.end()
    tokens.append(("end", "", len(text.encode("utf-8"))))
    return tokens


_VAR_RE = re.compile(r"^([zx])([0-9]+)$")


class _Parser:
    def __init__(self, text: str, arity: int, family: str):
        if family not in ("z", "x"):
            raise ExpressionSyntaxError(f"unknown variable family {family!r}", 0)
        limit = MAX_Z_ARITY if family == "z" else MAX_X_ARITY
        if not 1 <= arity <= limit:
            raise ExpressionSyntaxError(
                f"arity {arity} out of range for family {family!r} (max {limit})", 0)
        self.tokens = _tokenize(text)
        self.arity = arity
        self.family = family
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.peek()
        if kind != "op" or text != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Expr:
        kind, text, _ = self.peek()
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        node = self.atom()
        kind, text, offset = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, noffset = self.peek()
            if nkind != "num" or not re.fullmatch(r"[0-9]+", ntext):
                raise ExpressionSyntaxError("exponent must be an unsigned integer", noffset)
            self.advance()
            node = Pow(node, int(ntext))
        if negate:
            # fold a negated literal into a negative literal
            node = Num(-node.value) if isinstance(node, Num) else Neg(node)
        return node

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "ident":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            m = _VAR_RE.match(text)
            if m is None:
                raise ExpressionSyntaxError(f"unknown identifier {text!r}", offset)
            family, idx = m.group(1), int(m.group(2))
            if family != self.family:
                raise ExpressionSyntaxError(
                    f"variable {text!r} does not belong to family {self.family!r}", offset)
            if not 1 <= idx <= self.arity:
                raise ExpressionSyntaxError(
                    f"variable index {idx} out of range 1..{self.arity}", offset)
            return Var(family, idx)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)


def parse(text: str, arity: int, family: str = "z") -> Expr:
    """Parse an expression over z1..z<arity> or x1..x<arity>."""
    return _Parser(text, arity, family).parse()


# --- evaluation ------------------------------------------------------------

def _eval(e: Expr, args: Sequence):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index > len(args):
            raise ExpressionDomainError(
                f"expression uses {e.family}{e.index} but only "
                f"{len(args)} coordinates were supplied")
        return args[e.index - 1]
    if isinstance(e, Neg):
        return -_eval(e.arg, args)
    if isinstance(e, Add):
        return _eval(e.left, args) + _eval(e.right, args)
    if isinstance(e, Sub):
        return _eval(e.left, args) - _eval(e.right, args)
    if isinstance(e, Mul):
        return _eval(e.left, args) * _eval(e.right, args)
    if isinstance(e, Div):
        denom = _eval(e.right, args)
        if np.any(denom == 0):
            raise ExpressionDomainError("division by zero")
        return _eval(e.left, args) / denom
    if isinstance(e, Pow):
        return _power(_eval(e.base, args), e.exponent)
    if isinstance(e, Call):
        val = _eval(e.arg, args)
        if e.fn == "sqrt":
            if np.any(val < 0):
                raise ExpressionDomainError("sqrt of a negative value")
            return np.sqrt(val)
        return getattr(np, e.fn)(val)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a single point; raises ExpressionDomainError on faults."""
    with np.errstate(all="ignore"):
        out = _eval(e, [float(p) for p in point])
    out = float(out)
    if not math.isfinite(out):
        raise ExpressionDomainError("evaluation produced a non-finite value")
    return out


def evaluate_arrays(e: Expr, args: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate elementwise over broadcastable numpy arrays.  The result
    never shares memory with an argument (a bare variable is copied), so
    the caller may overwrite the arguments with it."""
    with np.errstate(all="ignore"):
        out = np.asarray(_eval(e, list(args)), dtype=float)
    if any(np.may_share_memory(out, a) for a in args):
        out = out.copy()
    if not np.all(np.isfinite(out)):
        raise ExpressionDomainError("evaluation produced non-finite values")
    return out


# --- folding constructors ---------------------------------------------------

def _is_num(e: Expr, v: float | None = None) -> bool:
    return isinstance(e, Num) and (v is None or e.value == v)


def fold_add(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    return Add(a, b)


def fold_sub(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(b, 0.0):
        return a
    if _is_num(a, 0.0):
        return fold_neg(b)
    return Sub(a, b)


def fold_mul(a: Expr, b: Expr) -> Expr:
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    return Mul(a, b)


def fold_div(a: Expr, b: Expr) -> Expr:
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b) and b.value != 0.0:
        return Num(a.value / b.value)
    return Div(a, b)


def fold_neg(a: Expr) -> Expr:
    if _is_num(a):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def fold_pow(base: Expr, k: int) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return base
    if _is_num(base):
        return Num(_power(base.value, k))
    return Pow(base, k)


def fold_call(fn: str, arg: Expr) -> Expr:
    if _is_num(arg) and not (fn == "sqrt" and arg.value < 0):
        try:
            return Num(getattr(math, fn)(arg.value))
        except OverflowError:
            raise NumericOverflowError(f"{fn}({arg.value!r}) overflows a double") from None
    return Call(fn, arg)


def _power(base, k: int):
    """base ** k.  On a Python float, which raises where numpy arrays give
    inf, an overflow is a domain fault."""
    try:
        return base ** k
    except OverflowError:
        raise NumericOverflowError(f"{base!r}^{k} overflows a double") from None


# --- differentiation --------------------------------------------------------

def differentiate(e: Expr, index: int, family: str = "z") -> Expr:
    """Exact symbolic partial derivative with respect to the 1-based
    variable `index` of the given family."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0 if (e.family == family and e.index == index) else 0.0)
    if isinstance(e, Neg):
        return fold_neg(differentiate(e.arg, index, family))
    if isinstance(e, Add):
        return fold_add(differentiate(e.left, index, family),
                        differentiate(e.right, index, family))
    if isinstance(e, Sub):
        return fold_sub(differentiate(e.left, index, family),
                        differentiate(e.right, index, family))
    if isinstance(e, Mul):
        da = differentiate(e.left, index, family)
        db = differentiate(e.right, index, family)
        return fold_add(fold_mul(da, e.right), fold_mul(e.left, db))
    if isinstance(e, Div):
        da = differentiate(e.left, index, family)
        db = differentiate(e.right, index, family)
        num = fold_sub(fold_mul(da, e.right), fold_mul(e.left, db))
        return fold_div(num, fold_pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0.0)
        du = differentiate(e.base, index, family)
        return fold_mul(fold_mul(Num(float(e.exponent)), fold_pow(e.base, e.exponent - 1)), du)
    if isinstance(e, Call):
        du = differentiate(e.arg, index, family)
        u = e.arg
        if e.fn == "sin":
            outer = fold_call("cos", u)
        elif e.fn == "cos":
            outer = fold_neg(fold_call("sin", u))
        elif e.fn == "tanh":
            outer = fold_sub(Num(1.0), fold_pow(fold_call("tanh", u), 2))
        elif e.fn == "exp":
            outer = fold_call("exp", u)
        elif e.fn == "sqrt":
            return fold_div(du, fold_mul(Num(2.0), fold_call("sqrt", u)))
        else:
            raise TypeError(f"unknown function {e.fn!r}")
        return fold_mul(outer, du)
    raise TypeError(f"not an expression node: {e!r}")


def laplacian_symbolic(e: Expr, d: int) -> Expr:
    """Sum of second spatial derivatives, as an exact expression tree."""
    acc: Expr = Num(0.0)
    for i in range(1, d + 1):
        acc = fold_add(acc, differentiate(differentiate(e, i, "x"), i, "x"))
    return acc


# --- printing ---------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _LEVEL_ADD
    if isinstance(e, (Mul, Div)):
        return _LEVEL_MUL
    if isinstance(e, Neg) or (isinstance(e, Num) and e.value < 0):
        return _LEVEL_NEG
    if isinstance(e, Pow):
        return _LEVEL_POW
    return _LEVEL_ATOM


def _render(e: Expr) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return f"{e.family}{e.index}"
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _LEVEL_POW)
    if isinstance(e, Add):
        return _wrap(e.left, _LEVEL_ADD) + "+" + _wrap(e.right, _LEVEL_MUL)
    if isinstance(e, Sub):
        return _wrap(e.left, _LEVEL_ADD) + "-" + _wrap(e.right, _LEVEL_MUL)
    if isinstance(e, Mul):
        return _wrap(e.left, _LEVEL_MUL) + "*" + _wrap(e.right, _LEVEL_NEG)
    if isinstance(e, Div):
        return _wrap(e.left, _LEVEL_MUL) + "/" + _wrap(e.right, _LEVEL_NEG)
    if isinstance(e, Pow):
        return _wrap(e.base, _LEVEL_ATOM) + "^" + str(e.exponent)
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")


def _wrap(e: Expr, min_level: int) -> str:
    s = _render(e)
    return s if _level(e) >= min_level else f"({s})"


def to_string(e: Expr) -> str:
    """Canonical text form; parsing it back yields a structurally
    identical tree."""
    return _render(e)


# --- polynomial classification ----------------------------------------------

def as_polynomial(e: Expr, arity: int) -> dict[tuple[int, ...], float] | None:
    """Monomial coefficients {exponent tuple: coefficient} when the tree is
    polynomial (arithmetic, integer powers, division only by constants);
    None otherwise."""
    zero = (0,) * arity

    def merge(a, b, sign=1.0):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0.0) + sign * v
        return out

    def product(a, b):
        out: dict[tuple[int, ...], float] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0.0) + va * vb
        return out

    def rec(node: Expr):
        if isinstance(node, Num):
            return {zero: node.value}
        if isinstance(node, Var):
            exps = list(zero)
            exps[node.index - 1] = 1
            return {tuple(exps): 1.0}
        if isinstance(node, Neg):
            inner = rec(node.arg)
            return None if inner is None else {k: -v for k, v in inner.items()}
        if isinstance(node, (Add, Sub)):
            a, b = rec(node.left), rec(node.right)
            if a is None or b is None:
                return None
            return merge(a, b, 1.0 if isinstance(node, Add) else -1.0)
        if isinstance(node, Mul):
            a, b = rec(node.left), rec(node.right)
            if a is None or b is None:
                return None
            return product(a, b)
        if isinstance(node, Div):
            a = rec(node.left)
            if a is None or not isinstance(node.right, Num) or node.right.value == 0.0:
                return None
            return {k: v / node.right.value for k, v in a.items()}
        if isinstance(node, Pow):
            base = rec(node.base)
            if base is None or node.exponent < 0:
                return None
            out = {zero: 1.0}
            for _ in range(node.exponent):
                out = product(out, base)
            return out
        return None

    return rec(e)


def polynomial_sup_bound(coeffs: dict[tuple[int, ...], float], radius: float) -> float:
    """Rigorous sup bound on the ball |z| <= radius: sum |c| * radius^degree.
    A bound that overflows a double while every coefficient is finite
    raises NumericOverflowError."""
    try:
        total = float(sum(abs(c) * radius ** sum(k) for k, c in coeffs.items()))
    except OverflowError:
        total = math.inf
    if math.isinf(total) and all(map(math.isfinite, coeffs.values())):
        degree = max(sum(k) for k in coeffs)
        raise NumericOverflowError(
            f"sup bound of a degree-{degree} polynomial on the ball of radius "
            f"{radius:.6g} overflows a double")
    return total


# --- nonlinearity bundle ------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """N component expressions over z1..zN plus their exact gradient."""

    components: tuple[Expr, ...]
    gradient: tuple[tuple[Expr, ...], ...]

    @property
    def n(self) -> int:
        return len(self.components)

    @classmethod
    def from_exprs(cls, components: Sequence[Expr]) -> "NonlinearitySpec":
        comps = tuple(components)
        n = len(comps)
        grad = tuple(
            tuple(differentiate(c, j, "z") for j in range(1, n + 1)) for c in comps
        )
        return cls(comps, grad)

    @classmethod
    def from_strings(cls, texts: Sequence[str]) -> "NonlinearitySpec":
        n = len(texts)
        return cls.from_exprs([parse(t, n, "z") for t in texts])

    def scaled(self, factor: float) -> "NonlinearitySpec":
        return NonlinearitySpec.from_exprs(
            [fold_mul(Num(float(factor)), c) for c in self.components]
        )

    def difference(self, other: "NonlinearitySpec") -> "NonlinearitySpec":
        if other.n != self.n:
            raise ValueError("component counts differ")
        return NonlinearitySpec.from_exprs(
            [fold_sub(a, b) for a, b in zip(self.components, other.components)]
        )

    def evaluate_components(self, args: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [evaluate_arrays(c, args) for c in self.components]

    def gradient_at(self, point: Sequence[float]) -> np.ndarray:
        return np.array(
            [[evaluate(self.gradient[m][j], point) for j in range(self.n)]
             for m in range(self.n)]
        )


def check_zero_at_origin(g: NonlinearitySpec, tol: float = 1e-14) -> bool:
    """Every component must vanish at z = 0 (up to `tol`)."""
    origin = [0.0] * g.n
    return all(abs(evaluate(c, origin)) <= tol for c in g.components)
