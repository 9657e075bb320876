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

Expressions are immutable and hash-consed: every node constructor (and
so the parser and the smart constructors) returns the one live node for
its key from a weak unique table, so structurally equal expressions are
the same object and equality and hashing go by identity.  A derivative
tower or a series is therefore a DAG with each distinct subexpression
stored once, and every walk over it (differentiate, substitute,
simplify, printing, node_count) is an explicit-stack walk that visits
each distinct node once.  Differentiation is exact and symbolic.  Inside
a derivative_memo() block, differentiate keeps every (node, variable)
result until the block exits, so a run that differentiates the same
subexpressions again (a bracket, a curvature bundle, a series) walks
each of them once; outside a block each call keeps its results to
itself.  Simplification is limited to constant folding and identity
elimination (x+0, x*1, x^1 and friends), so equivalent expressions need
not be the same node and callers compare by evaluation instead.

Evaluation has one compiler, compile_expressions: a batch of expressions
becomes one flat register program in which every distinct subexpression
runs once.  compile_expression and evaluate are single-expression
shorthands for it.  Programs are memoized by their roots (a bounded LRU
per derivative_memo() block, else per context), and a program that keeps
running generates itself as straight-line Python.  Both tiers give
bitwise the same values and errors.

Power semantics: an exponent that evaluates to an integer is valid for
any base (0 excluded for negative exponents); a non-integer exponent
requires a strictly positive base.  All domain violations raise
DomainError, never return NaN or infinity.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import re
import weakref
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping

import numpy as np


class SvflowError(Exception):
    """Base class of every error svflow raises on purpose."""


class InputError(SvflowError, ValueError):
    """Input refused before computing; a ValueError too, for callers that catch one."""


class ParseError(InputError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(ParseError):
    def __init__(self, name: str, position: int):
        ParseError.__init__(self, f"unknown identifier '{name}'", position)
        self.name = name


class DomainError(SvflowError):
    """Evaluation left the real domain (log of non-positive, zero division,
    fractional power of a non-positive base, overflow)."""

    def __init__(self, message: str, kind: str = "domain"):
        super().__init__(message)
        self.kind = kind


class VariableError(DomainError):
    """A program read the variable name as NaN or infinite; key is where env held it."""

    def __init__(self, name: str, key: str | int, v: float):
        super().__init__(f"variable {name} is {'NaN' if v != v else 'infinite'}")
        self.name = name
        self.key = key


def _not_a_number(name: str, value: object) -> InputError:
    """The refusal of a variable that float() cannot read."""
    return InputError(f"variable {name} is not a number: {value!r}")


def _is_finite(name: str, v: object) -> bool:
    """math.isfinite(v) for an argument named name, refusing one that is
    not a number or is an int beyond the double range."""
    try:
        return math.isfinite(v)
    except OverflowError:
        raise InputError(f"{name} lies beyond the double range") from None
    except TypeError:
        raise InputError(f"{name} is not a number: {v!r}") from None


def _require_finite(values: Mapping[str, object]) -> None:
    """Refuse each value of the name -> value map that is not a finite
    number, naming it."""
    for name, v in values.items():
        if not _is_finite(name, v):
            raise InputError(f"{name} must be finite, got {v}")


@contextlib.contextmanager
def naming_params(params):
    """Raise a DomainError of the block again with the fields of params, a
    dataclass of physical parameters, in front of its message."""
    try:
        yield
    except DomainError as err:
        at = ", ".join(f"{f.name} = {getattr(params, f.name):g}" for f in fields(params))
        raise DomainError(f"at {at}: {err}", kind=err.kind) from err


# --------------------------------------------------------------------------
# Expression nodes


# The unique table maps a node's key to a weak reference to the node:
# (class, id(operand)...) for unary and binary nodes, (Var, name) and
# (Const, value, sign of value).  An operand's id() is a sound key part
# because the node keeps its operands alive; a node's entry leaves the
# table when the node dies, before its operands can.


class _Entry(weakref.ref):
    __slots__ = ("key",)


_TABLE: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    if _TABLE.get(entry.key) is entry:
        del _TABLE[entry.key]


def _intern(cls: type, key: tuple, slots: tuple[str, ...], values: tuple) -> Expression:
    """The live node for key, or a new cls node with slots set to values."""
    entry = _TABLE.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            return node
    node = object.__new__(cls)
    for name, value in zip(slots, values):
        object.__setattr__(node, name, value)
    entry = _Entry(node, _forget)
    entry.key = key
    _TABLE[key] = entry
    return node


class Expression:
    """Base of the interned, immutable expression nodes.  _ops holds a
    node's operands, _fields its constructor arguments."""

    __slots__ = ("__weakref__",)
    _ops: tuple[Expression, ...] = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # unpickling calls the constructor, which re-interns the node
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __str__(self) -> str:
        return to_string(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_string(self)}>"


class Const(Expression):
    __slots__ = _fields = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        key = (cls, value, math.copysign(1.0, value))
        return _intern(cls, key, cls._fields, (value,))


class Var(Expression):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str):
        return _intern(cls, (cls, name), cls._fields, (name,))


class _Unary(Expression):
    __slots__ = ("arg", "_ops")
    _fields = ("arg",)

    def __new__(cls, arg: Expression):
        return _intern(cls, (cls, id(arg)), _Unary.__slots__, (arg, (arg,)))


class Neg(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Log(_Unary):
    __slots__ = ()


class Sqrt(_Unary):
    __slots__ = ()


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class _Binary(Expression):
    __slots__ = ("left", "right", "_ops")
    _fields = ("left", "right")

    def __new__(cls, left: Expression, right: Expression):
        key = (cls, id(left), id(right))
        return _intern(cls, key, _Binary.__slots__, (left, right, (left, right)))


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(_Binary):
    __slots__ = ()


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


def is_const(e: Expression, value: float) -> bool:
    return isinstance(e, Const) and e.value == value


# --------------------------------------------------------------------------
# Smart constructors: constant folding plus the cheap identities.  Folding
# of function/power constants happens only when the evaluation succeeds,
# so trees like log(-1) survive and fail at evaluation time as required.


def _try_fold(op: Callable[..., float], *values: float) -> Const | None:
    try:
        v = op(*values)
    except DomainError:
        return None
    return Const(v)


def add(l: Expression, r: Expression) -> Expression:
    if type(l) is Const:
        if type(r) is Const:
            folded = _try_fold(_eval_add, l.value, r.value)
            if folded is not None:
                return folded
        elif l.value == 0.0:
            return r
    elif type(r) is Const and r.value == 0.0:
        return l
    return Add(l, r)


def sub(l: Expression, r: Expression) -> Expression:
    if type(r) is Const:
        if type(l) is Const:
            folded = _try_fold(_eval_sub, l.value, r.value)
            if folded is not None:
                return folded
        elif r.value == 0.0:
            return l
    elif type(l) is Const and l.value == 0.0:
        return neg(r)
    return Sub(l, r)


def mul(l: Expression, r: Expression) -> Expression:
    if type(l) is Const:
        if type(r) is Const:
            folded = _try_fold(_eval_mul, l.value, r.value)
            if folded is not None:
                return folded
        c, other = l.value, r
    elif type(r) is Const:
        c, other = r.value, l
    else:
        return Mul(l, r)
    if c == 1.0:
        return other
    if c == 0.0:
        return ZERO
    if c == -1.0:
        return neg(other)
    return Mul(l, r)


def div(l: Expression, r: Expression) -> Expression:
    if type(r) is Const:
        if type(l) is Const:
            folded = _try_fold(_eval_div, l.value, r.value)
            if folded is not None:
                return folded
        if r.value == 1.0:
            return l
    if type(l) is Const and l.value == 0.0:
        return ZERO
    return Div(l, r)


def pow_(l: Expression, r: Expression) -> Expression:
    if isinstance(l, Const) and isinstance(r, Const):
        folded = _try_fold(_eval_pow, l.value, r.value)
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
            folded = _try_fold(op, e.value)
            if folded is not None:
                return folded
        return cls(e)

    return make


# --------------------------------------------------------------------------
# Evaluation: the _eval_* helpers raise DomainError instead of returning
# NaN or infinity; compile_expressions runs them over batches of trees.
# The arithmetic and power helpers test their result inline: v - v == 0.0
# holds exactly when v is finite (inf - inf and NaN - NaN are NaN), so the
# common case costs no second call and _check_finite runs only to raise.


@contextlib.contextmanager
def _checked_numpy(what: str):
    """numpy overflow, NaN or zero division as a DomainError; einsum and interp set no flag."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as err:
        raise DomainError(f"{what}: {err}", kind="overflow") from None


def _check_finite(v: float, what: str) -> float:
    if not math.isfinite(v):
        if math.isnan(v):
            raise DomainError(
                f"{what} is NaN: an operand is infinite or NaN", kind="overflow"
            )
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


def _eval_sin(x: float) -> float:
    try:
        return math.sin(x)
    except ValueError:
        raise DomainError(f"sin of infinite value {x}") from None


def _eval_cos(x: float) -> float:
    try:
        return math.cos(x)
    except ValueError:
        raise DomainError(f"cos of infinite value {x}") from None


def _eval_pow(b: float, e: float) -> float:
    try:
        integral = e == math.floor(e)
    except (OverflowError, ValueError):
        raise DomainError(f"pow with non-finite exponent {e}") from None
    if integral:
        e = int(e)
        if b == 0.0 and e < 0:
            raise DomainError("zero base raised to a negative power")
    elif b <= 0.0:
        raise DomainError(
            f"non-integer power {e} of non-positive base {b}"
        )
    # Python floats raise on overflow where numpy scalars return inf; both
    # read "pow overflowed the double range"
    try:
        v = float(b**e)
    except OverflowError:
        v = math.inf
    if v - v == 0.0:
        return v
    return _check_finite(v, "pow")


def _eval_neg(x: float) -> float:
    return -x


_UNARY_EVAL: dict[type, Callable[[float], float]] = {
    Neg: _eval_neg,
    Exp: _eval_exp,
    Log: _eval_log,
    Sqrt: _eval_sqrt,
    Sin: _eval_sin,
    Cos: _eval_cos,
}

exp_ = _unary_ctor(Exp)
log_ = _unary_ctor(Log)
sqrt_ = _unary_ctor(Sqrt)
sin_ = _unary_ctor(Sin)
cos_ = _unary_ctor(Cos)


def _eval_add(a, b):
    v = a + b
    if v - v == 0.0:
        return v
    return _check_finite(v, "sum")


def _eval_sub(a, b):
    v = a - b
    if v - v == 0.0:
        return v
    return _check_finite(v, "difference")


def _eval_mul(a, b):
    v = a * b
    if v - v == 0.0:
        return v
    return _check_finite(v, "product")


def _eval_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    v = a / b
    if v - v == 0.0:
        return v
    return _check_finite(v, "quotient")


_EVAL: dict[type, Callable] = {
    **_UNARY_EVAL,
    Add: _eval_add,
    Sub: _eval_sub,
    Mul: _eval_mul,
    Div: _eval_div,
    Pow: _eval_pow,
}


# --------------------------------------------------------------------------
# Walks.  Every algorithm over expressions is one _fold: an explicit-stack
# walk that visits each distinct node once, so none can hit the recursion
# limit and none repeats work on shared subexpressions.


def _fold(
    roots: list[Expression],
    visit: Callable[[Expression, list], object],
    done: dict[int, object] | None = None,
) -> dict:
    """visit(node, results of its operands) for each distinct node reachable
    from roots, in first-occurrence post-order, operands left to right.

    Returns every result keyed by id(node), in visiting order.  The list
    keeps the roots, and so every visited node, alive: no id() is reused
    during the walk.  A done dict from earlier walks with the same visit
    is extended in place and its nodes are not visited again; its owner
    keeps those nodes alive.
    """
    if done is None:
        done = {}
    for root in roots:
        if id(root) in done:
            continue
        # a DAG has no cycles, so a node is never on the stack twice
        stack = [(root, iter(root._ops))]
        while stack:
            node, pending = stack[-1]
            for o in pending:
                if id(o) not in done:
                    stack.append((o, iter(o._ops)))
                    break
            else:
                stack.pop()
                done[id(node)] = visit(node, [done[id(o)] for o in node._ops])
    return done


def _nodes(e: Expression, seen: set[int] | None = None) -> list[Expression]:
    """The distinct nodes of e whose ids are not in seen, in no particular
    order; their ids are added to seen.  A seen filled by earlier calls
    holds the nodes of each node in it, so their walk stops there."""
    seen = set() if seen is None else seen
    out = [] if id(e) in seen else [e]
    seen.add(id(e))
    for node in out:
        for o in node._ops:
            if id(o) not in seen:
                seen.add(id(o))
                out.append(o)
    return out


# Programs.  memoized() keeps programs of at most MAX_MEMO_OPS operations,
# keyed by the nodes of their roots and the variable order; hash-consing
# makes equal batches the same key, and the key keeps its nodes alive.
# The memo is an LRU of MEMO_PROGRAMS entries; derivative_memo() opens a
# fresh one.  A program is first interpreted (one helper call per
# operation).  The interpreter counts its runs: its GENERATE_AFTER_RUNS-th
# run generates the program as one straight-line Python function doing
# the same operations in the same order, and runs that from then on,
# whoever holds the interpreter.  The constants, measured on 2 cores with
# Python 3.11.7:
# - GENERATE_AFTER_RUNS: for the flow programs of the benchmark's five
#   cases (1 to 12 operations, with and without the Jacobian), generation
#   takes 66 to 380 us against 5 to 25 us for the interpreter's compile,
#   and evaluation gets 2.9 to 4.9 times faster (shear2d with its Jacobian
#   2.16 -> 0.56 us), so generation pays back after 130 to 260 runs.
#   For the 49 curvature-grid and block-formula programs of the pointwise
#   benchmark within MAX_MEMO_OPS (0 to 79 operations), generation takes
#   31 us to 2.0 ms, evaluation gets 2.6 to 7.8 times faster (the 79-op
#   grid 10.1 -> 2.7 us) and generation pays back after 77 to 330 runs,
#   about 150 in the median.  A grid runs once per CurvatureBundle.at(),
#   so in that benchmark each passes 64 runs in its first sweeps and runs
#   thousands of times more; verify-all, with a fresh memo per criterion,
#   generates 14 programs in 3 to 4 ms in all.
# - MAX_MEMO_OPS: Python's compile() of generated code peaks at about
#   9.3 KB per operation (256 ops 2.4 MB, 1,000 ops 9.3 MB), against a
#   bound of 4 MB on the benchmark's 42 MB peak.  A larger program is
#   neither memoized nor generated.
# - MEMO_PROGRAMS: a pointwise benchmark sweep asks the memo 240 times
#   for 26 distinct entries (programs, flow fields, eps's generator and
#   t-field); 32 hold them all, and no sweep after the first misses.
GENERATE_AFTER_RUNS = 64
MAX_MEMO_OPS = 256
MEMO_PROGRAMS = 32

# The memo of the innermost derivative_memo() block, else of the context
# (each thread has its own), made on first use.
_PROGRAMS: contextvars.ContextVar[OrderedDict] = contextvars.ContextVar("svflow_programs")

# the helpers that generated code inlines, with their operator
_INLINE = {_eval_add: "+", _eval_sub: "-", _eval_mul: "*", _eval_div: "/"}


def _define(signature: str, lines: list[str], bound: dict[str, object]) -> Callable:
    """The function `def signature:` with the given body lines, whose free
    names are bound to the values of bound."""
    name = signature[:signature.index("(")]
    text = (f"def make({', '.join(bound)}):\n    def {signature}:\n"
            + "".join(f"        {line}\n" for line in lines) + f"    return {name}\n")
    namespace: dict[str, Callable] = {}
    exec(compile(text, "<svflow program>", "exec"), namespace)
    return namespace["make"](**bound)


# A program's code: registers with the constants preset, variable loads
# (slot, name, key into env), operations (slot, helper, i, j) in
# first-occurrence post-order and the slots of the roots.
_Code = tuple[list, list, list, list]


def _interpreter(code: _Code, tier: list, generate_after: float) -> Callable[..., list[float]]:
    """The code run by one helper call per operation, counting its runs.
    From its generate_after-th run on, the generated run, made once into
    tier[0], runs instead.  The closure holds the code's lists, never its
    program, so a program that leaves the memo is freed at once."""
    regs, loads, prog, roots = code
    runs = [0]

    def run(env) -> list[float]:
        runs[0] += 1
        if runs[0] >= generate_after:
            if tier[0] is None:
                tier[0] = _generate(code)
            return tier[0](env)
        reg = regs[:]
        for slot, name, key in loads:
            try:
                v = reg[slot] = float(env[key])
            except OverflowError:  # an int beyond the double range
                raise VariableError(name, key, math.inf) from None
            except (TypeError, ValueError):
                raise _not_a_number(name, env[key]) from None
            if v - v != 0.0:  # exactly when v is infinite or NaN
                raise VariableError(name, key, v)
        for slot, fn, i, j in prog:
            reg[slot] = fn(reg[i]) if j is None else fn(reg[i], reg[j])
        return [reg[k] for k in roots]

    return run


def _emit(code: _Code, load: Callable[[str | int], str], bound: dict[str, object],
          convert: bool = False) -> tuple[list[str], list[str]]:
    """Python lines doing the code's loads and operations in order, with
    variable k read as the Python expression load(k), through float() as
    the interpreter reads it if convert is set, and the names holding the
    roots' values.  + - * / and negation are inline with the helpers'
    finiteness test, and so is ^ with a finite constant exponent, after
    the helper's domain test for that exponent; where a test fails, the
    helper itself runs and raises its DomainError.  Constants, names and
    helpers are put in bound, so no formula text reaches the source."""
    regs, loads, ops, roots = code
    src = {}  # slot -> the Python name holding its value
    bound["VariableError"] = VariableError
    bound["_not_a_number"] = _not_a_number
    for slot, v in enumerate(regs):
        if v is not None:
            src[slot] = f"c{slot}"
            bound[src[slot]] = v
    lines = []
    bound["inf"] = math.inf
    for slot, name, key in loads:
        r = src[slot] = f"r{slot}"
        bound[f"n{slot}"] = name
        k = key if isinstance(key, int) else f"n{slot}"
        if convert:
            lines += [f"try: {r} = float({load(k)})",
                      f"except OverflowError: raise VariableError(n{slot}, {k}, inf) from None",
                      f"except (TypeError, ValueError): "
                      f"raise _not_a_number(n{slot}, {load(k)}) from None"]
        else:
            lines.append(f"{r} = {load(k)}")
        lines.append(f"if {r} - {r} != 0.0: raise VariableError(n{slot}, {k}, {r})")
    for slot, fn, i, j in ops:
        r = src[slot] = f"r{slot}"
        a = src[i]
        if fn is _eval_neg:
            lines.append(f"{r} = -{a}")
            continue
        bound[fn.__name__] = fn
        if j is None:
            lines.append(f"{r} = {fn.__name__}({a})")
            continue
        b = src[j]
        call = f"{fn.__name__}({a}, {b})"
        if fn in _INLINE:
            if fn is _eval_div:
                lines.append(f"if {b} == 0.0: {call}")
            lines += [f"{r} = {a} {_INLINE[fn]} {b}", f"if {r} - {r} != 0.0: {call}"]
        elif fn is _eval_pow and regs[j] is not None and math.isfinite(regs[j]):
            # _eval_pow's tests and operation for this exponent; float()
            # as in the helper, where an int base stays an int, and Python
            # raises OverflowError where the helper reads inf
            e = regs[j]
            if e == math.floor(e):
                b = repr(int(e))
                if e < 0:
                    lines.append(f"if {a} == 0.0: {call}")
            else:
                lines.append(f"if {a} <= 0.0: {call}")
            lines += [f"try: {r} = float({a} ** {b})", f"except OverflowError: {r} = inf",
                      f"if {r} - {r} != 0.0: {call}"]
        else:
            lines.append(f"{r} = {call}")
    return lines, [src[k] for k in roots]


def _generate(code: _Code) -> Callable[..., list[float]]:
    """The code as one straight-line Python function of env."""
    bound: dict[str, object] = {}
    lines, roots = _emit(code, lambda k: f"env[{k}]", bound, convert=True)
    return _define("run(env)", lines + [f"return [{', '.join(roots)}]"], bound)


class _Program:
    """A batch of expressions as a flat register program (see _Code) and
    its tiers: the interpreter and the generated run once made (tier[0])."""

    __slots__ = ("code", "ops", "tier", "interpret")

    def __init__(self, exprs: list[Expression], order: tuple[str, ...] | None):
        position = None if order is None else {name: i for i, name in enumerate(order)}
        regs: list[float | None] = []
        loads: list[tuple[int, str, str | int]] = []
        ops: list[tuple[int, Callable, int, int | None]] = []

        def number(node: Expression, operands: list[int]) -> int:
            slot = len(regs)
            regs.append(node.value if isinstance(node, Const) else None)
            if operands:
                j = operands[1] if len(operands) == 2 else None
                ops.append((slot, _EVAL[type(node)], operands[0], j))
            elif isinstance(node, Var):
                name = node.name
                loads.append((slot, name, name if position is None else position[name]))
            return slot

        slots = _fold(exprs, number)
        self.code = (regs, loads, ops, [slots[id(e)] for e in exprs])
        self.ops = ops
        self.tier = [None]
        generate_after = GENERATE_AFTER_RUNS if len(ops) <= MAX_MEMO_OPS else math.inf
        self.interpret = _interpreter(self.code, self.tier, generate_after)

    @property
    def run(self) -> Callable[..., list[float]]:
        """The fastest tier made so far."""
        return self.tier[0] or self.interpret

    @property
    def generated(self) -> bool:
        return self.tier[0] is not None

    def generate(self) -> Callable[..., list[float]]:
        """The program as one straight-line Python function of env."""
        return _generate(self.code)


def memoized(key: tuple, build: Callable[[], object]) -> object:
    """The value memoized under key in the current memo; else build()'s,
    memoized under key unless it is a program of more than MAX_MEMO_OPS
    operations.  key holds what the value is built from: nodes, which it
    keeps alive while the entry lives, or values that determine them."""
    memo = _PROGRAMS.get(None)
    if memo is None:
        memo = OrderedDict()
        _PROGRAMS.set(memo)
    value = memo.get(key)
    if value is None:
        value = build()
        if not isinstance(value, _Program) or len(value.ops) <= MAX_MEMO_OPS:
            memo[key] = value
            if len(memo) > MEMO_PROGRAMS:
                memo.popitem(last=False)
    else:
        memo.move_to_end(key)
    return value


def compile_expressions(exprs: Iterable[Expression],
                        order: Iterable[str] | None = None) -> Callable[..., list[float]]:
    """Compile a batch of expressions into one register program.

    The returned callable reads each variable once from env (a Point or a
    name->value mapping) and returns the values of exprs in order.  Given
    an order of variable names, env is instead a sequence of values and
    variable order[i] is read from env[i].  Each distinct subexpression of
    the batch, that is each distinct node, runs once.  Operations run in
    first-occurrence post-order through the _eval_* helpers, so the values
    and the first DomainError are those of evaluating each expression
    alone, in order.  Each variable is read as float() gives it: a NaN
    or infinite one (or an int beyond the double range) is a
    VariableError, and one that float() refuses an InputError.
    Programs are memoized and hot ones generated as Python (see above);
    both tiers give bitwise the same values and errors.
    """
    exprs = list(exprs)
    order = None if order is None else tuple(order)
    return memoized((*exprs, order), lambda: _Program(exprs, order)).run


def compile_expression(e: Expression) -> Callable[[Mapping[str, float] | Point], float]:
    """compile_expressions for a single expression."""
    run = compile_expressions([e])
    return lambda env: run(env)[0]


def evaluate(e: Expression, env: Mapping[str, float] | Point) -> float:
    """Value of e at env (a Point or a name->value mapping), raising
    DomainError on any real-domain violation."""
    return compile_expression(e)(env)


# --------------------------------------------------------------------------
# Differentiation and rewriting


# The derivative memo of the innermost derivative_memo() block: per
# variable, id(node) -> derivative, plus the roots differentiated so far,
# which keep every keyed node alive so no id() is reused while it lives.
_DERIVATIVES: contextvars.ContextVar[
    tuple[dict[str, dict[int, Expression]], list[Expression]] | None
] = contextvars.ContextVar("svflow_derivatives", default=None)


@contextlib.contextmanager
def derivative_memo():
    """Keep every derivative that differentiate builds inside the block,
    and open a fresh program memo for compile_expressions.

    Each block starts empty and drops its results on exit, so nothing is
    shared between two blocks and the unique table shrinks afterwards.
    Results are the very nodes differentiate returns outside a block.
    """
    token = _DERIVATIVES.set(({}, []))
    programs = _PROGRAMS.set(OrderedDict())
    try:
        yield
    finally:
        _PROGRAMS.reset(programs)
        _DERIVATIVES.reset(token)


def differentiate(e: Expression, var: str) -> Expression:
    """Exact partial derivative with respect to ``var``.

    One walk over the distinct nodes of e: each node's derivative is built
    once from its operands' derivatives.  Outside a derivative_memo()
    block only this call keeps them; inside one the block keeps them, and
    nodes that an earlier call differentiated are not walked again.
    Repeated application yields higher derivatives; the result is lightly
    simplified so derivative towers stay compact.
    """

    def derivative(node: Expression, d: list[Expression]) -> Expression:
        # d holds the derivatives of node's operands
        cls = type(node)
        if cls is Mul:
            return add(mul(d[0], node.right), mul(node.left, d[1]))
        if cls is Add:
            return add(d[0], d[1])
        if cls is Const:
            return ZERO
        if cls is Var:
            return ONE if node.name == var else ZERO
        if cls is Pow:
            base, expo = node.left, node.right
            if type(expo) is Const:
                # c * f^(c-1) * f', valid for any base when c is an integer
                return mul(mul(expo, pow_(base, Const(expo.value - 1.0))), d[0])
            # f^g * (g' log f + g f'/f); evaluation will demand f > 0
            return mul(node, add(mul(d[1], log_(base)), div(mul(expo, d[0]), base)))
        if cls is Neg:
            return neg(d[0])
        if cls is Sub:
            return sub(d[0], d[1])
        if cls is Div:
            num = sub(mul(d[0], node.right), mul(node.left, d[1]))
            return div(num, pow_(node.right, Const(2.0)))
        if cls is Exp:
            return mul(d[0], exp_(node.arg))
        if cls is Log:
            return div(d[0], node.arg)
        if cls is Sqrt:
            return div(d[0], mul(Const(2.0), sqrt_(node.arg)))
        if cls is Sin:
            return mul(d[0], cos_(node.arg))
        if cls is Cos:
            return neg(mul(d[0], sin_(node.arg)))
        raise TypeError(f"cannot differentiate node {cls.__name__}")

    memo = _DERIVATIVES.get()
    if memo is None:
        return _fold([e], derivative)[id(e)]
    by_var, roots = memo
    done = by_var.setdefault(var, {})
    if id(e) not in done:
        # kept before the walk: a walk that raises leaves results behind
        roots.append(e)
        _fold([e], derivative, done)
    return done[id(e)]


_UNARY_CTORS = {Neg: neg, Exp: exp_, Log: log_, Sqrt: sqrt_, Sin: sin_, Cos: cos_}
_BINARY_CTORS = {Add: add, Sub: sub, Mul: mul, Div: div, Pow: pow_}


def _rebuild(node: Expression, operands: list[Expression]) -> Expression:
    """node's class over new operands, through the smart constructors."""
    if isinstance(node, _Unary):
        return _UNARY_CTORS[type(node)](operands[0])
    if isinstance(node, _Binary):
        return _BINARY_CTORS[type(node)](*operands)
    return node


def substitute(e: Expression, var: str, replacement: Expression) -> Expression:
    """Replace every occurrence of ``var`` by ``replacement``."""

    def visit(node: Expression, operands: list[Expression]) -> Expression:
        if isinstance(node, Var) and node.name == var:
            return replacement
        return _rebuild(node, operands)

    return _fold([e], visit)[id(e)]


def simplify(e: Expression) -> Expression:
    """Constant folding and identity elimination, bottom up.  Never raises:
    subtrees that would fail to fold are left untouched."""
    return _fold([e], _rebuild)[id(e)]


def node_count(e: Expression) -> int:
    """Number of distinct nodes of e."""
    return len(_nodes(e))


def variables_of(e: Expression) -> set[str]:
    return {n.name for n in _nodes(e) if isinstance(n, Var)}


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
    return _fold([e], _print)[id(e)]


def _print(e: Expression, printed: list[str]) -> str:
    # printed holds the strings of e's operands
    if isinstance(e, Const):
        if e.value < 0:
            return f"-{_fmt_number(-e.value)}"
        return _fmt_number(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        inner = printed[0]
        if _prec(e.arg) < _PREC[Neg]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, _Unary):
        return f"{_FUNC_NAMES[type(e)]}({printed[0]})"
    if isinstance(e, _Binary):
        cls = type(e)
        p = _PREC[cls]
        ls, rs = printed
        if cls is Pow:
            # right-associative; negative constants print as unary minus
            if _prec(e.left) <= p:
                ls = f"({ls})"
            if _prec(e.right) < p and not _is_negconst(e.right):
                rs = f"({rs})"
        else:
            if _prec(e.left) < p:
                ls = f"({ls})"
            # an operation of equal precedence on the right keeps its
            # parentheses: a + (b - c) rounds otherwise than a + b - c
            grouped = cls in (Sub, Div) or isinstance(e.right, _Binary)
            if _prec(e.right) < p or (_prec(e.right) == p and grouped):
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
            raise InputError(
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
        raise InputError("chart needs at least one coordinate")
    if len(set(chart)) != len(chart):
        raise InputError(f"duplicate coordinate names in chart {chart}")
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
            raise InputError(
                f"{len(self.coords)} coordinates for {len(self.chart)}-chart {self.chart}"
            )

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
            raise InputError(f"{what} uses variables {sorted(extra)} outside chart {chart}")


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
            raise InputError(
                f"{len(self.components)} components for chart {self.chart}"
            )
        _check_chart_vars(self.chart, self.components, "vector field")

    @property
    def dimension(self) -> int:
        return len(self.chart)


def scalar_field(text: str, chart: Iterable[str]) -> ScalarField:
    chart = _as_chart(chart)
    return ScalarField(chart, parse_expression(text, chart))


def vector_field(texts: Iterable[str], chart: Iterable[str]) -> VectorField:
    chart = _as_chart(chart)
    return VectorField(chart, tuple(parse_expression(t, chart) for t in texts))
