"""Symbolic scalar expressions over a chart: parse, evaluate, differentiate.

The expression language is deliberately small.  Grammar (EBNF):

    expr   = term { ("+" | "-") term } ;
    term   = unary { ("*" | "/") unary } ;
    unary  = ("+" | "-") unary | power ;
    power  = atom [ "^" unary ] ;
    atom   = NUMBER | "pi" | IDENT | FUNC "(" expr ")" | "(" expr ")" ;
    FUNC   = "exp" | "log" | "sqrt" | "sin" | "cos" ;

NUMBER is a decimal literal with optional fraction and exponent.  Every
IDENT must appear in the variable list supplied to the parser; "pi" and
the function names are reserved.

Expressions are immutable trees.  Differentiation is exact and symbolic;
simplification is limited to constant folding and identity elimination
(x+0, x*1, x^1 and friends), so structural equality of equivalent trees
is not guaranteed and callers compare by evaluation instead.

Evaluation has one compiler, compile_expressions: a batch of expressions
becomes one flat register program in which every distinct subexpression
runs once.  compile_expression and evaluate are single-expression
shorthands for it.

Power semantics: an exponent that evaluates to an integer is valid for
any base (0 excluded for negative exponents); a non-integer exponent
requires a strictly positive base.  All domain violations raise
DomainError, never return NaN or infinity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping


class SvflowError(Exception):
    """Base class of every error svflow raises on purpose."""


class ExpressionError(SvflowError):
    """Base class for errors raised by this module."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"unknown identifier '{name}'", position)
        self.name = name


class DomainError(ExpressionError):
    """Evaluation left the real domain (log of non-positive, zero division,
    fractional power of a non-positive base, overflow)."""

    def __init__(self, message: str, kind: str = "domain"):
        super().__init__(message)
        self.kind = kind


# --------------------------------------------------------------------------
# Expression nodes


@dataclass(frozen=True)
class Expression:
    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Const(Expression):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))


@dataclass(frozen=True)
class Var(Expression):
    name: str


@dataclass(frozen=True)
class _Unary(Expression):
    arg: Expression


class Neg(_Unary):
    pass


class Exp(_Unary):
    pass


class Log(_Unary):
    pass


class Sqrt(_Unary):
    pass


class Sin(_Unary):
    pass


class Cos(_Unary):
    pass


@dataclass(frozen=True)
class _Binary(Expression):
    left: Expression
    right: Expression


class Add(_Binary):
    pass


class Sub(_Binary):
    pass


class Mul(_Binary):
    pass


class Div(_Binary):
    pass


class Pow(_Binary):
    pass


FUNCTIONS: dict[str, type] = {
    "exp": Exp,
    "log": Log,
    "sqrt": Sqrt,
    "sin": Sin,
    "cos": Cos,
}
_FUNC_NAMES = {cls: name for name, cls in FUNCTIONS.items()}
RESERVED = set(FUNCTIONS) | {"pi"}

ZERO = Const(0.0)
ONE = Const(1.0)


def is_const(e: Expression, value: float | None = None) -> bool:
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


# --------------------------------------------------------------------------
# Smart constructors: constant folding plus the cheap identities.  Folding
# of function/power constants happens only when the evaluation succeeds,
# so trees like log(-1) survive and fail at evaluation time as required.


def _try_fold(make: Callable[[], float]) -> Const | None:
    try:
        v = make()
    except DomainError:
        return None
    return Const(v)


def add(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value + r.value)
    if is_const(l, 0.0):
        return r
    if is_const(r, 0.0):
        return l
    return Add(l, r)


def sub(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value - r.value)
    if is_const(r, 0.0):
        return l
    if is_const(l, 0.0):
        return neg(r)
    return Sub(l, r)


def mul(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value * r.value)
    if is_const(l, 1.0):
        return r
    if is_const(r, 1.0):
        return l
    if is_const(l, 0.0) or is_const(r, 0.0):
        return ZERO
    if is_const(l, -1.0):
        return neg(r)
    if is_const(r, -1.0):
        return neg(l)
    return Mul(l, r)


def div(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const) and r.value != 0.0:
        return Const(l.value / r.value)
    if is_const(r, 1.0):
        return l
    if is_const(l, 0.0):
        return ZERO
    return Div(l, r)


def pow_(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const):
        folded = _try_fold(lambda: _eval_pow(l.value, r.value))
        if folded is not None:
            return folded
    if is_const(r, 1.0):
        return l
    if is_const(r, 0.0):
        return ONE
    return Pow(l, r)


def neg(e: Expression) -> Expression:
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def _unary_ctor(cls: type) -> Callable[[Expression], Expression]:
    op = _UNARY_EVAL[cls]

    def make(e: Expression) -> Expression:
        if isinstance(e, Const):
            folded = _try_fold(lambda: op(e.value))
            if folded is not None:
                return folded
        return cls(e)

    return make


# --------------------------------------------------------------------------
# Evaluation: the _eval_* helpers raise DomainError instead of returning
# NaN or infinity; compile_expressions runs them over batches of trees.


def _check_finite(v: float, what: str) -> float:
    if not math.isfinite(v):
        raise DomainError(f"{what} overflowed the double range", kind="overflow")
    return v


def _eval_exp(x: float) -> float:
    try:
        return _check_finite(math.exp(x), "exp")
    except OverflowError:
        raise DomainError(f"exp({x}) overflows", kind="overflow") from None


def _eval_log(x: float) -> float:
    if x <= 0.0:
        raise DomainError(f"log of non-positive value {x}")
    return math.log(x)


def _eval_sqrt(x: float) -> float:
    if x < 0.0:
        raise DomainError(f"sqrt of negative value {x}")
    return math.sqrt(x)


def _eval_pow(b: float, e: float) -> float:
    if e == math.floor(e) and abs(e) < 2**31:
        n = int(e)
        if b == 0.0 and n < 0:
            raise DomainError("zero base raised to a negative power")
        try:
            return _check_finite(float(b**n), "pow")
        except OverflowError:
            raise DomainError(f"pow({b}, {n}) overflows", kind="overflow") from None
    if b <= 0.0:
        raise DomainError(
            f"non-integer power {e} of non-positive base {b}"
        )
    try:
        return _check_finite(b**e, "pow")
    except OverflowError:
        raise DomainError(f"pow({b}, {e}) overflows", kind="overflow") from None


_UNARY_EVAL: dict[type, Callable[[float], float]] = {
    Neg: lambda x: -x,
    Exp: _eval_exp,
    Log: _eval_log,
    Sqrt: _eval_sqrt,
    Sin: math.sin,
    Cos: math.cos,
}

exp_ = _unary_ctor(Exp)
log_ = _unary_ctor(Log)
sqrt_ = _unary_ctor(Sqrt)
sin_ = _unary_ctor(Sin)
cos_ = _unary_ctor(Cos)


def _eval_add(a, b):
    return _check_finite(a + b, "sum")


def _eval_sub(a, b):
    return _check_finite(a - b, "difference")


def _eval_mul(a, b):
    return _check_finite(a * b, "product")


def _eval_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    return _check_finite(a / b, "quotient")


_EVAL: dict[type, Callable] = {
    **_UNARY_EVAL,
    Add: _eval_add,
    Sub: _eval_sub,
    Mul: _eval_mul,
    Div: _eval_div,
    Pow: _eval_pow,
}


def _operands(node: Expression) -> tuple[Expression, ...]:
    if isinstance(node, _Binary):
        return (node.left, node.right)
    return (node.arg,) if isinstance(node, _Unary) else ()


def _postorder(e: Expression) -> list[Expression]:
    out: list[Expression] = []
    stack: list[tuple[Expression, bool]] = [(e, False)]
    while stack:
        node, seen = stack.pop()
        if seen:
            out.append(node)
            continue
        stack.append((node, True))
        if isinstance(node, _Binary):
            stack.append((node.right, False))
            stack.append((node.left, False))
        elif isinstance(node, _Unary):
            stack.append((node.arg, False))
    return out


def compile_expressions(exprs: Iterable[Expression]) -> Callable[..., list[float]]:
    """Compile a batch of expressions into one register program.

    The returned callable reads each variable once from env (a Point or a
    name->value mapping) and returns the values of exprs in order.  Each
    distinct subexpression of the batch runs once: nodes are numbered by
    identity, then by structure (class and operand registers; a Const by
    value and sign, so 0.0 and -0.0 stay apart).  Operations run in
    first-occurrence post-order through the _eval_* helpers, so the values
    and the first DomainError are those of evaluating each expression
    alone, in order.
    """
    regs: list[float | None] = []  # constants preset, the rest set by run
    loads: list[tuple[int, str]] = []
    prog: list[tuple[int, Callable, int, int | None]] = []
    by_id: dict[int, int] = {}
    by_key: dict[tuple, int] = {}
    roots: list[int] = []
    for root in list(exprs):  # the list keeps every root alive: no id() reuse
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in by_id:
                stack.pop()
                continue
            operands = _operands(node)
            pending = [o for o in reversed(operands) if id(o) not in by_id]
            if pending:
                stack += pending
                continue
            stack.pop()
            if operands:
                ids = [by_id[id(o)] for o in operands] + [None]
                key = (type(node), ids[0], ids[1])
            elif isinstance(node, Var):
                key = (Var, node.name)
            else:
                key = (Const, node.value, math.copysign(1.0, node.value))
            slot = by_key.get(key)
            if slot is None:
                slot = by_key[key] = len(regs)
                regs.append(node.value if isinstance(node, Const) else None)
                if operands:
                    prog.append((slot, _EVAL[type(node)], key[1], key[2]))
                elif isinstance(node, Var):
                    loads.append((slot, node.name))
            by_id[id(node)] = slot
        roots.append(by_id[id(root)])

    def run(env) -> list[float]:
        reg = regs[:]
        for slot, name in loads:
            reg[slot] = env[name]
        for slot, fn, i, j in prog:
            reg[slot] = fn(reg[i]) if j is None else fn(reg[i], reg[j])
        return [reg[k] for k in roots]

    return run


def compile_expression(e: Expression) -> Callable[[Mapping[str, float] | Point], float]:
    """compile_expressions for a single expression."""
    run = compile_expressions([e])
    return lambda env: run(env)[0]


def evaluate(e: Expression, env: Mapping[str, float] | Point) -> float:
    """Value of e at env (a Point or a name->value mapping), raising
    DomainError on any real-domain violation."""
    return compile_expression(e)(env)


# --------------------------------------------------------------------------
# Differentiation


def differentiate(e: Expression, var: str) -> Expression:
    """Exact partial derivative with respect to ``var``.

    Repeated application yields higher derivatives; the result is lightly
    simplified so derivative towers stay compact.
    """
    if isinstance(e, Const):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == var else ZERO
    if isinstance(e, Neg):
        return neg(differentiate(e.arg, var))
    if isinstance(e, Exp):
        return mul(differentiate(e.arg, var), exp_(e.arg))
    if isinstance(e, Log):
        return div(differentiate(e.arg, var), e.arg)
    if isinstance(e, Sqrt):
        return div(differentiate(e.arg, var), mul(Const(2.0), sqrt_(e.arg)))
    if isinstance(e, Sin):
        return mul(differentiate(e.arg, var), cos_(e.arg))
    if isinstance(e, Cos):
        return neg(mul(differentiate(e.arg, var), sin_(e.arg)))
    if isinstance(e, Add):
        return add(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Sub):
        return sub(differentiate(e.left, var), differentiate(e.right, var))
    if isinstance(e, Mul):
        return add(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
    if isinstance(e, Div):
        num = sub(
            mul(differentiate(e.left, var), e.right),
            mul(e.left, differentiate(e.right, var)),
        )
        return div(num, pow_(e.right, Const(2.0)))
    if isinstance(e, Pow):
        base, expo = e.left, e.right
        db = differentiate(base, var)
        if isinstance(expo, Const):
            # c * f^(c-1) * f', valid for any base when c is an integer
            return mul(mul(expo, pow_(base, Const(expo.value - 1.0))), db)
        de = differentiate(expo, var)
        # f^g * (g' log f + g f'/f); evaluation will demand f > 0
        return mul(e, add(mul(de, log_(base)), div(mul(expo, db), base)))
    raise TypeError(f"cannot differentiate node {type(e).__name__}")


def substitute(e: Expression, var: str, replacement: Expression) -> Expression:
    """Replace every occurrence of ``var`` by ``replacement``."""
    if isinstance(e, Const):
        return e
    if isinstance(e, Var):
        return replacement if e.name == var else e
    if isinstance(e, _Unary):
        return _UNARY_CTORS[type(e)](substitute(e.arg, var, replacement))
    if isinstance(e, _Binary):
        return _BINARY_CTORS[type(e)](
            substitute(e.left, var, replacement),
            substitute(e.right, var, replacement),
        )
    raise TypeError(f"cannot substitute in node {type(e).__name__}")


_UNARY_CTORS = {Neg: neg, Exp: exp_, Log: log_, Sqrt: sqrt_, Sin: sin_, Cos: cos_}
_BINARY_CTORS = {Add: add, Sub: sub, Mul: mul, Div: div, Pow: pow_}


def simplify(e: Expression) -> Expression:
    """Constant folding and identity elimination, bottom up.  Never raises:
    subtrees that would fail to fold are left untouched."""
    if isinstance(e, (Const, Var)):
        return e
    if isinstance(e, _Unary):
        return _UNARY_CTORS[type(e)](simplify(e.arg))
    if isinstance(e, _Binary):
        return _BINARY_CTORS[type(e)](simplify(e.left), simplify(e.right))
    return e


def node_count(e: Expression) -> int:
    return len(_postorder(e))


def variables_of(e: Expression) -> set[str]:
    return {n.name for n in _postorder(e) if isinstance(n, Var)}


# --------------------------------------------------------------------------
# Printing.  The printed form re-parses to an evaluation-equivalent tree.

_PREC = {
    Add: 1,
    Sub: 1,
    Mul: 2,
    Div: 2,
    Neg: 2,
    Pow: 3,
}
_OP_SYMBOL = {Add: "+", Sub: "-", Mul: "*", Div: "/", Pow: "^"}


def _fmt_number(v: float) -> str:
    if v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e: Expression) -> str:
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}"
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = to_string(e.arg)
        if _prec(e.arg) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, _Unary):
        return f"{_FUNC_NAMES[type(e)]}({to_string(e.arg)})"
    if isinstance(e, _Binary):
        cls = type(e)
        p = _PREC[cls]
        ls = to_string(e.left)
        rs = to_string(e.right)
        if cls is Pow:
            # right-associative; negative constants print as unary minus
            if _prec(e.left) <= p:
                ls = f"({ls})"
            if _prec(e.right) < p and not _is_negconst(e.right):
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            if _prec(e.right) < p or (_prec(e.right) == p and cls in (Sub, Div)):
                rs = f"({rs})"
        return f"{ls} {_OP_SYMBOL[cls]} {rs}"
    raise TypeError(f"cannot print node {type(e).__name__}")


def _is_negconst(e: Expression) -> bool:
    return isinstance(e, Const) and e.value < 0


def _prec(e: Expression) -> int:
    if isinstance(e, Const):
        return 2 if e.value < 0 else 4
    if isinstance(e, Var):
        return 4
    if isinstance(e, Neg):
        return _PREC[Neg]
    if isinstance(e, _Unary):
        return 4
    return _PREC[type(e)]


# --------------------------------------------------------------------------
# Parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            tail = text[pos:].lstrip()
            if not tail:
                break
            at = len(text) - len(tail)
            raise ParseError(f"unexpected character {tail[0]!r}", at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Iterable[str]):
        self.variables = set(variables)
        clash = self.variables & RESERVED
        if clash:
            raise ValueError(
                f"variable names {sorted(clash)} collide with reserved words"
            )
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value, pos = self.take()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected '{symbol}'", pos)

    def parse(self) -> Expression:
        e = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return e

    def expr(self) -> Expression:
        e = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.term()
                e = Add(e, rhs) if value == "+" else Sub(e, rhs)
            else:
                return e

    def term(self) -> Expression:
        e = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.unary()
                e = Mul(e, rhs) if value == "*" else Div(e, rhs)
            else:
                return e

    def unary(self) -> Expression:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.take()
            inner = self.unary()
            return inner if value == "+" else Neg(inner)
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.take()
            return Pow(base, self.unary())
        return base

    def atom(self) -> Expression:
        kind, value, pos = self.take()
        if kind == "num":
            v = float(value)
            if not math.isfinite(v):
                raise ParseError(f"number {value} overflows the double range", pos)
            return Const(v)
        if kind == "ident":
            if value == "pi":
                return Const(math.pi)
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return FUNCTIONS[value](arg)
            if value in self.variables:
                return Var(value)
            raise UnknownIdentifierError(value, pos)
        if kind == "op" and value == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {value!r}", pos)


def parse_expression(text: str, variables: Iterable[str]) -> Expression:
    """Parse a formula over the given variable names.

    Raises ParseError (with position) on malformed input and
    UnknownIdentifierError for identifiers outside the variable list.
    Nesting deeper than the recursive descent can hold is a ParseError.
    """
    parser = _Parser(text, variables)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("formula nests too deeply", parser.peek()[2]) from None


# --------------------------------------------------------------------------
# Charts, points, fields

Chart = tuple[str, ...]


def _as_chart(names: Iterable[str]) -> Chart:
    chart = tuple(names)
    if len(chart) == 0:
        raise ValueError("chart needs at least one coordinate")
    if len(set(chart)) != len(chart):
        raise ValueError(f"duplicate coordinate names in chart {chart}")
    return chart


@dataclass(frozen=True)
class Point:
    """A point of a d-chart: coordinate names plus the same number of reals."""

    chart: Chart
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "chart", _as_chart(self.chart))
        object.__setattr__(self, "coords", tuple(float(c) for c in self.coords))
        if len(self.coords) != len(self.chart):
            raise ValueError(
                f"{len(self.coords)} coordinates for {len(self.chart)}-chart {self.chart}"
            )

    @property
    def dimension(self) -> int:
        return len(self.chart)

    def env(self) -> dict[str, float]:
        return dict(zip(self.chart, self.coords))

    def __getitem__(self, name: str) -> float:
        if name not in self.chart:
            raise KeyError(name)
        return self.coords[self.chart.index(name)]


def _check_chart_vars(chart: Chart, exprs: Iterable[Expression], what: str):
    allowed = set(chart)
    for e in exprs:
        extra = variables_of(e) - allowed
        if extra:
            raise ValueError(f"{what} uses variables {sorted(extra)} outside chart {chart}")


@dataclass(frozen=True)
class ScalarField:
    """One expression over a chart."""

    chart: Chart
    expression: Expression

    def __post_init__(self):
        object.__setattr__(self, "chart", _as_chart(self.chart))
        _check_chart_vars(self.chart, [self.expression], "scalar field")

    def eval_at(self, p: Point) -> float:
        return evaluate(self.expression, p)


@dataclass(frozen=True)
class VectorField:
    """d component expressions B^mu over a d-chart."""

    chart: Chart
    components: tuple[Expression, ...]

    def __post_init__(self):
        object.__setattr__(self, "chart", _as_chart(self.chart))
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != len(self.chart):
            raise ValueError(
                f"{len(self.components)} components for chart {self.chart}"
            )
        _check_chart_vars(self.chart, self.components, "vector field")

    @property
    def dimension(self) -> int:
        return len(self.chart)

    def eval_at(self, p: Point) -> list[float]:
        return compile_expressions(self.components)(p)


def scalar_field(text: str, chart: Iterable[str]) -> ScalarField:
    chart = _as_chart(chart)
    return ScalarField(chart, parse_expression(text, chart))


def vector_field(texts: Iterable[str], chart: Iterable[str]) -> VectorField:
    chart = _as_chart(chart)
    return VectorField(chart, tuple(parse_expression(t, chart) for t in texts))
