"""Small expression language for nonlinearities, initial data, and kernels.

Grammar (whitespace-insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? atom ('^' integer)?
    atom   := number | ident | ident '(' expr ')' | '(' expr ')'

Identifiers: variables z1..z16 (state space) or x1..x3 (spatial), and the
functions sin, cos, tanh, exp, sqrt.  Numbers are decimals with an optional
exponent, written in the ASCII digits [0-9].  '^' binds tighter than unary
minus, which binds tighter than '*' and '/'.

Parentheses and function calls nest at most MAX_NESTING deep, a tree is at
most MAX_DEPTH nodes deep and has at most MAX_NODES nodes, and an exponent
is at most MAX_EXPONENT; the parser refuses anything beyond them with the
byte offset of the token that goes too far, and sin or cos of an infinite
literal with that of the call.
Expressions are immutable trees; evaluation is IEEE double arithmetic, at a
point or elementwise on numpy arrays, and computes each distinct subtree of
the expressions evaluated together once.  Two walks enclose expressions over
boxes with outward rounding: intervals (enclose_many), and affine forms
(enclose_affine), in which copies of a subtree cancel.  Differentiation is
exact and symbolic; the only rewriting ever applied is local constant
folding.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from typing import Sequence, Union

import numpy as np

from .errors import ExpressionDomainError, ExpressionSyntaxError, NumericOverflowError
from .records import Record

FUNCTIONS = ("sin", "cos", "tanh", "exp", "sqrt")
MAX_Z_ARITY = 16
MAX_X_ARITY = 3
# deepest nesting of parentheses, function calls included; the Laplacian and
# the gradient of an expression nested this deep still evaluate within
# Python's default recursion limit
MAX_NESTING = 64
# deepest tree, counted in nodes from the root to a leaf: the Laplacian of a
# tree this deep is at most ~6 times deeper (a chain of divisions), and the
# symbolic routines and the evaluator, which recurse once per level, still
# walk it within Python's default recursion limit
MAX_DEPTH = 100
MAX_EXPONENT = 10_000
# the most nodes the parser makes for one expression; it bounds the work one
# expression can cause (README, "Problem files")
MAX_NODES = 10_000


# --- AST -------------------------------------------------------------------

# Each node is a Record (records.py): a named tuple of its fields that
# compares and hashes like a frozen dataclass.

class Num(Record, namedtuple("Num", "value")):
    __slots__ = ()


class Var(Record, namedtuple("Var", "family index")):
    __slots__ = ()  # family 'z' or 'x', index 1-based


class Neg(Record, namedtuple("Neg", "arg")):
    __slots__ = ()


class Add(Record, namedtuple("Add", "left right")):
    __slots__ = ()


class Sub(Record, namedtuple("Sub", "left right")):
    __slots__ = ()


class Mul(Record, namedtuple("Mul", "left right")):
    __slots__ = ()


class Div(Record, namedtuple("Div", "left right")):
    __slots__ = ()


class Pow(Record, namedtuple("Pow", "base exponent")):
    __slots__ = ()  # exponent: int


class Call(Record, namedtuple("Call", "fn arg")):
    __slots__ = ()


Expr = Union[Num, Var, Neg, Add, Sub, Mul, Div, Pow, Call]


# --- tokenizer -------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z]+[0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokens(text: str):
    """The tokens of text, each as (kind, token, byte offset in UTF-8), then
    ("end", "", length); a character that starts no token raises."""
    pos = offset = 0  # offset: the byte offset of text[pos] in UTF-8
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset += len(text[pos: len(text) - len(stripped)].encode("utf-8"))
            raise ExpressionSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        kind, token = m.lastgroup, m.group(m.lastgroup)
        offset += len(text[pos:m.start(kind)].encode("utf-8"))  # the whitespace
        yield kind, token, offset
        offset += len(token)  # tokens are ASCII
        pos = m.end()
    yield "end", "", offset + len(text[pos:].encode("utf-8"))


# up to 1024 tokens in one match: a text is checked in few matches, each
# with a bounded backtracking state
_TOKEN_RUN_RE = re.compile(f"(?:{_TOKEN_RE.pattern}){{0,1024}}")


def _check_characters(text: str) -> None:
    """Raise the error of _tokens if a character of text starts no token,
    without holding its tokens."""
    pos = 0
    while (end := _TOKEN_RUN_RE.match(text, pos).end()) > pos:
        pos = end
    if text[pos:].strip():
        for _ in _tokens(text):
            pass


_VAR_RE = re.compile(r"^([zx])([0-9]+)$")


class _Parser:
    def __init__(self, text: str, arity: int, family: str):
        if family not in ("z", "x"):
            raise ExpressionSyntaxError(f"unknown variable family {family!r}", 0)
        limit = MAX_Z_ARITY if family == "z" else MAX_X_ARITY
        if not 1 <= arity <= limit:
            raise ExpressionSyntaxError(
                f"arity {arity} out of range for family {family!r} (max {limit})", 0)
        # a lexer error anywhere comes before any parse error; then the parser
        # pulls one token at a time, so it holds none past its refusal
        _check_characters(text)
        self.tokens = _tokens(text)
        self.token = next(self.tokens)
        self.arity = arity
        self.family = family
        self.depth = 0
        self.depths: dict[int, int] = {}

    def made(self, node: Expr, offset: int) -> Expr:
        """Register a node built by the token at `offset` with its depth;
        refuse it beyond MAX_DEPTH or MAX_NODES."""
        # the fields that are nodes are tuples; the others are numbers and names
        depth = 1 + max((self.depths[id(v)] for v in node if isinstance(v, tuple)),
                        default=0)
        if depth > MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"expression tree deeper than {MAX_DEPTH} levels", offset)
        if len(self.depths) >= MAX_NODES:
            raise ExpressionSyntaxError(f"expression of more than {MAX_NODES} nodes", offset)
        self.depths[id(node)] = depth
        return node

    def advance(self):
        tok = self.token
        self.token = next(self.tokens, tok)  # the end token stays
        return tok

    def expect_op(self, symbol: str):
        kind, text, offset = self.token
        if kind != "op" or text != symbol:
            raise ExpressionSyntaxError(f"expected {symbol!r}", offset)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.token
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)
        return node

    def expr(self) -> Expr:
        return self.chain(self.term, "+-", Add, Sub)

    def term(self) -> Expr:
        return self.chain(self.factor, "*/", Mul, Div)

    def chain(self, operand, symbols: str, first, second) -> Expr:
        """operand (symbol operand)*, left-associative: `first` joins by
        symbols[0], `second` by symbols[1]."""
        node = operand()
        while True:
            kind, text, offset = self.token
            if kind != "op" or text not in symbols:
                return node
            self.advance()
            rhs = operand()
            node = self.made((first if text == symbols[0] else second)(node, rhs), offset)

    def factor(self) -> Expr:
        kind, text, minus = self.token
        negate = False
        if kind == "op" and text == "-":
            self.advance()
            negate = True
        node = self.atom()
        kind, text, offset = self.token
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, noffset = self.token
            if nkind != "num" or not re.fullmatch(r"[0-9]+", ntext):
                raise ExpressionSyntaxError("exponent must be an unsigned integer", noffset)
            if (len(ntext.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(ntext) > MAX_EXPONENT):
                raise ExpressionSyntaxError(
                    f"exponent {ntext} is above {MAX_EXPONENT}", noffset)
            self.advance()
            node = self.made(Pow(node, int(ntext)), offset)
        if negate:
            # fold a negated literal into a negative literal
            node = self.made(Num(-node.value) if isinstance(node, Num) else Neg(node), minus)
        return node

    def nested(self, offset: int) -> Expr:
        """The expression inside the parenthesis opened at `offset`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExpressionSyntaxError(
                f"parentheses nested deeper than {MAX_NESTING} levels", offset)
        node = self.expr()
        self.expect_op(")")
        self.depth -= 1
        return node

    def atom(self) -> Expr:
        kind, text, offset = self.advance()
        if kind == "num":
            return self.made(Num(float(text)), offset)
        if kind == "op" and text == "(":
            return self.nested(offset)
        if kind == "ident":
            if text in FUNCTIONS:
                arg = self.nested(self.expect_op("(")[2])
                # math raises on these where numpy gives nan; the node stays
                # unfolded, so evaluation is unchanged
                if text in ("sin", "cos") and isinstance(arg, Num) and math.isinf(arg.value):
                    raise ExpressionSyntaxError(
                        f"{text}({arg.value!r}) is outside the domain of {text}", offset)
                return self.made(Call(text, arg), offset)
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
            return self.made(Var(family, idx), offset)
        raise ExpressionSyntaxError(f"unexpected token {text!r}", offset)


def parse(text: str, arity: int, family: str = "z") -> Expr:
    """Parse an expression over z1..z<arity> or x1..x<arity>."""
    return _Parser(text, arity, family).parse()


# --- evaluation ------------------------------------------------------------
#
# Value numbering (Aho, Lam, Sethi & Ullman, Compilers, 2nd ed., 6.1.1): a
# first pass numbers the distinct subtrees of the expressions evaluated
# together and counts the reads of each number; a second pass walks the
# expressions in turn as the tree walk does, but computes each number once
# and keeps it until its last read.  Each value is the walk's own IEEE
# operation, so every result is the walk's bit for bit and the first fault
# is the walk's.  A float64 operand read for the last time takes the value
# of the node that reads it through out=.  A nested function that calls
# itself would be a reference cycle that outlives the call, so none is used.

_FLOAT = np.dtype(float)
_OPERATORS = {Add: (operator.add, np.add), Sub: (operator.sub, np.subtract),
              Mul: (operator.mul, np.multiply), Div: (operator.truediv, np.true_divide)}


def _numbered(e, seen: dict, nodes: list, reads: list) -> int:
    """The value number of e: the index in `nodes` of its node (type, two
    operand numbers or leaf fields, attribute).  `seen` maps subtrees and
    nodes to numbers, and `reads` counts the reads of each number; a
    variable has one more, by the caller, so it is never released."""
    vn = seen.get(id(e))  # a subtree shared as one object is walked once
    if vn is not None:
        return vn
    t = type(e)
    if t is Num:
        node = (t, e.value, math.copysign(1.0, e.value), None)
    elif t is Var:
        node = (t, e.index, e.family, None)
    elif t in _OPERATORS:
        node = (t, _numbered(e.left, seen, nodes, reads),
                _numbered(e.right, seen, nodes, reads), _OPERATORS[t])
    elif t is Pow:
        node = (t, _numbered(e.base, seen, nodes, reads), None, e.exponent)
    elif t is Neg or t is Call:
        node = (t, _numbered(e.arg, seen, nodes, reads), None,
                getattr(np, e.fn) if t is Call else None)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    vn = seen.get(node)
    if vn is None:
        vn = seen[node] = len(nodes)
        nodes.append(node)
        reads.append(int(t is Var))
        if t is not Num and t is not Var:
            reads[node[1]] += 1
            if node[2] is not None:
                reads[node[2]] += 1
    seen[id(e)] = vn
    return vn


def _fits(buf, other=0.0) -> bool:
    """Whether the float64 array buf can take the result of an elementwise
    operation on buf and other."""
    if type(buf) is not np.ndarray or buf.dtype is not _FLOAT:
        return False
    shape = getattr(other, "shape", ())
    return shape in ((), buf.shape) or np.broadcast(buf, other).shape == buf.shape


def _value(vn: int, nodes: list, memo: list, reads: list, kept: set, args: Sequence):
    """The value of number vn, computed as the tree walk computes its node
    and kept in memo until its last read, which may write it into an
    operand read for the last time that is not in `kept`."""
    t, a, b, attribute = nodes[vn]
    if t is Var:  # the others are the arguments, in memo from the start
        raise ExpressionDomainError(f"expression uses {b}{a} but only "
                                    f"{len(args)} coordinates were supplied")
    if t is Div:  # as in the walk: the denominator, its test, the numerator
        y = memo[b] if memo[b] is not None else _value(b, nodes, memo, reads, kept, args)
        if np.any(y == 0):
            raise ExpressionDomainError("division by zero")
    x = memo[a] if memo[a] is not None else _value(a, nodes, memo, reads, kept, args)
    if b is not None and t is not Div:
        y = memo[b] if memo[b] is not None else _value(b, nodes, memo, reads, kept, args)
    reads[a] -= 1  # only now: the walk of b may read a
    if b is not None:
        reads[b] -= 1
        if not reads[a] and a not in kept and _fits(x, y):
            v = attribute[1](x, y, out=x)
        elif not reads[b] and b not in kept and _fits(y, x):
            v = attribute[1](x, y, out=y)
        else:
            v = attribute[0](x, y)
        if not reads[b]:
            memo[b] = None
    else:
        out = x if not reads[a] and a not in kept and _fits(x) else None
        if t is Pow:
            v = _power(x, attribute) if out is None else np.power(x, attribute, out=out)
        elif t is Neg:
            v = -x if out is None else np.negative(x, out=out)
        elif attribute is np.sqrt and np.any(x < 0):
            raise ExpressionDomainError("sqrt of a negative value")
        else:
            v = attribute(x) if out is None else attribute(x, out=out)
    if not reads[a]:
        memo[a] = None
    memo[vn] = v
    return v


def _values(exprs: Sequence[Expr], args: Sequence):
    """Yield the value of each expression of `exprs` at `args` (a scalar or
    an array per variable index), in order, as soon as its walk ends.  No
    value is an argument or another value, or is written into once
    yielded; the caller must not change one before the generator ends."""
    seen, nodes, reads = {}, [], []
    roots = [_numbered(e, seen, nodes, reads) for e in exprs]
    memo = [node[1] if node[0] is Num else args[node[1] - 1]
            if node[0] is Var and node[1] <= len(args) else None for node in nodes]
    for vn in roots:  # a result is read until it is yielded
        reads[vn] += 1
    yielded = set()
    for vn in roots:
        v = memo[vn] if memo[vn] is not None else _value(vn, nodes, memo, reads, yielded, args)
        reads[vn] -= 1
        if not reads[vn]:
            memo[vn] = None
        if isinstance(v, np.ndarray) and (vn in yielded or nodes[vn][0] is Var):
            v = v.copy()
        yielded.add(vn)
        yield v


def variables(exprs: Sequence[Expr]) -> list[tuple[int, ...]]:
    """The indices of the variables each expression reads, in increasing
    order, found in one walk of the distinct subtrees."""
    seen, nodes, reads = {}, [], []
    roots = [_numbered(e, seen, nodes, reads) for e in exprs]
    read: list[frozenset] = []
    for t, a, b, _ in nodes:  # operands come before the nodes reading them
        if t is Var or t is Num:
            read.append(frozenset((a,)) if t is Var else frozenset())
        else:
            read.append(read[a] if b is None else read[a] | read[b])
    return [tuple(sorted(read[vn])) for vn in roots]


# --- interval enclosure -------------------------------------------------------
#
# An interval is one float array of shape (2, boxes): its lower endpoints,
# then its upper ones (Moore, Kearfott & Cloud, Introduction to Interval
# Analysis, SIAM 2009).  +, -, * and / round each endpoint outward by one
# step of np.nextafter.  A power and the functions widen their endpoints by
# _WIDEN of their magnitude plus the smallest normal double: at least 16
# ulp, beyond the 4 ulp that numpy's SIMD float64 routines may err by, and
# beyond any error on a subnormal result.

_OUTWARD = np.array([[-np.inf], [np.inf]])
_SIGNS = np.array([[-1.0], [1.0]])
_WIDEN = 2.0 ** -48
_TINY = np.finfo(float).tiny
# slack, in periods, of the test whether an interval meets an extremum of
# sin or cos: far above the rounding error of the reduction (x - phase)/2pi
_PHASE_SLACK = 2.0 ** -40


def _outward(v: np.ndarray) -> np.ndarray:
    return np.nextafter(v, _OUTWARD)


def _hull(candidates: np.ndarray) -> np.ndarray:
    """The outward-rounded hull of the endpoint products or quotients,
    shape (2, 2, boxes)."""
    flat = candidates.reshape(4, -1)
    hull = np.empty((2, flat.shape[1]))
    np.min(flat, axis=0, out=hull[0])
    np.max(flat, axis=0, out=hull[1])
    return np.nextafter(hull, _OUTWARD, out=hull)


def _widened(v: np.ndarray) -> np.ndarray:
    return _outward(v + (np.abs(v) * _WIDEN + _TINY) * _SIGNS)


def _power_interval(x: np.ndarray, k: int) -> np.ndarray:
    """x^k: monotone for odd k; for even k the powers of the smallest and
    largest |x|, from 0 when the interval holds 0."""
    if k % 2:
        return _widened(x ** k)
    mags = np.abs(x)
    low = np.where((x[0] > 0) | (x[1] < 0), mags.min(axis=0), 0.0)
    return np.maximum(_widened(np.stack([low, mags.max(axis=0)]) ** k), 0.0)


def _periodic_interval(x: np.ndarray, fn, peak: float) -> np.ndarray:
    """fn = sin or cos, which peaks at peak + 2 pi j and dips at
    peak + pi + 2 pi j: the values at the endpoints, and 1 or -1 wherever
    the interval may meet a peak or a dip."""
    ends = fn(x)
    v = _widened(np.stack([ends.min(axis=0), ends.max(axis=0)]))
    for row, phase, extreme in ((1, peak, 1.0), (0, peak + np.pi, -1.0)):
        turns = (x - phase) / (2.0 * np.pi)
        slack = _PHASE_SLACK * (1.0 + np.abs(turns))
        meets = np.floor(turns[1] + slack[1]) >= np.ceil(turns[0] - slack[0])
        v[row] = np.where(meets, extreme, v[row])
    return np.clip(v, -1.0, 1.0)


def _call_interval(x: np.ndarray, fn) -> np.ndarray | None:
    if fn is np.sin:
        return _periodic_interval(x, fn, np.pi / 2.0)
    if fn is np.cos:
        return _periodic_interval(x, fn, 0.0)
    if fn is np.sqrt and np.any(x[0] < 0):
        return None
    v = _widened(fn(x))  # exp, tanh and sqrt increase
    return np.clip(v, -1.0, 1.0) if fn is np.tanh else np.maximum(v, 0.0)


def _enclose(exprs: Sequence[Expr], boxes: dict, cut=None) -> list[np.ndarray] | None:
    """enclose_many, or with cut = affine.cut enclose_affine, whose range of
    a node is its interval from its operands' ranges cut to the range of
    its form."""
    seen, nodes, reads = {}, [], []
    roots = [_numbered(e, seen, nodes, reads) for e in exprs]
    forms, ranges = [], []
    with np.errstate(all="ignore"):
        for vn, (t, a, b, attribute) in enumerate(nodes):  # operands come first
            if t is Num:
                if not math.isfinite(a):
                    raise NumericOverflowError("evaluation produced a non-finite value")
                v = np.full((2, 1), a)
            elif t is Var:
                v = boxes[a]
            elif t is Add:
                v = _outward(ranges[a] + ranges[b])
            elif t is Sub:
                v = _outward(ranges[a] - ranges[b][::-1])
            elif t is Mul:
                v = _hull(ranges[a][:, None] * ranges[b])
            elif t is Div:
                y = ranges[b]
                v = None if np.any((y[0] <= 0) & (y[1] >= 0)) else _hull(ranges[a][:, None] / y)
            elif t is Neg:
                v = -ranges[a][::-1]
            elif t is Pow:
                v = _power_interval(ranges[a], attribute) if attribute else np.ones((2, 1))
            else:
                v = _call_interval(ranges[a], attribute)
            if v is None:
                return None
            if cut is not None:
                v = cut(nodes[vn], vn, forms, ranges, v)
            if not np.isfinite(v).all():
                raise NumericOverflowError("an enclosure on the state ball overflows a double")
            ranges.append(v)
    return [ranges[vn] for vn in roots]


def enclose_many(exprs: Sequence[Expr], boxes: dict) -> list[np.ndarray] | None:
    """Interval enclosures of the expressions over boxes: `boxes` maps each
    variable index the expressions read to its (2, boxes) array of lower
    and upper endpoints.  Returns one (2, boxes) array per expression, each
    holding every value the expression takes in each box, or None when a
    divisor may be 0 or a sqrt argument may be negative; a literal or an
    endpoint that is not finite raises NumericOverflowError.
    Each distinct subtree is enclosed once."""
    return _enclose(exprs, boxes)


def enclose_affine(exprs: Sequence[Expr], boxes: dict) -> list[np.ndarray] | None:
    """enclose_many by affine forms: a node's range is never wider than
    there, and it refuses and raises where enclose_many does, but copies of
    a subtree cancel, so g - g encloses to exactly 0."""
    from .affine import cut  # only continuity runs the affine walk
    return _enclose(exprs, boxes, cut)


def evaluate(e: Expr, point: Sequence[float]) -> float:
    """Evaluate at a single point; raises ExpressionDomainError on faults."""
    with np.errstate(all="ignore"):
        [out] = _values([e], [float(p) for p in point])
    out = float(out)
    if not math.isfinite(out):
        raise ExpressionDomainError("evaluation produced a non-finite value")
    return out


def evaluate_many(exprs: Sequence[Expr], args: Sequence[np.ndarray], take=None) -> list:
    """The expressions evaluated together elementwise over broadcastable
    numpy arrays, as float arrays in order; with `take`, take(position,
    array) instead, called as soon as the array is final, which must leave
    it unchanged.  No array shares memory with an argument or another, so
    the caller may overwrite the arguments with them.  Raises
    ExpressionDomainError on a domain fault or a non-finite value."""
    results = []
    with np.errstate(all="ignore"):
        for i, value in enumerate(_values(exprs, args)):
            value = np.asarray(value, dtype=float)
            if not np.all(np.isfinite(value)):
                raise ExpressionDomainError("evaluation produced non-finite values")
            results.append(value if take is None else take(i, value))
            del value  # not held while the next values are computed
    return results


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
        except ValueError:  # math's domain error: sin(inf), cos(inf)
            raise ExpressionDomainError(
                f"{fn}({arg.value!r}) is outside the domain of {fn}") from None
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


# --- nonlinearity bundle ------------------------------------------------------

class NonlinearitySpec(Record, namedtuple("NonlinearitySpec", "components gradient")):
    """N component expressions over z1..zN (components, a tuple of Expr)
    plus their exact gradient (gradient[m][j] = dg_m/dz_j)."""

    __slots__ = ()

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

    def difference(self, other: "NonlinearitySpec") -> "NonlinearitySpec":
        if other.n != self.n:
            raise ValueError("component counts differ")
        return NonlinearitySpec.from_exprs(
            [fold_sub(a, b) for a, b in zip(self.components, other.components)]
        )

    @property
    def c1_expressions(self) -> tuple[Expr, ...]:
        """The N + N^2 expressions of the C^1 norm: each component followed
        by its partial derivatives."""
        return tuple(e for c, grad in zip(self.components, self.gradient) for e in (c, *grad))

    def gradient_at(self, point: Sequence[float]) -> np.ndarray:
        return np.array(
            [[evaluate(self.gradient[m][j], point) for j in range(self.n)]
             for m in range(self.n)]
        )

