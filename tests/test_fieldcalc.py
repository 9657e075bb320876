import copy
import gc
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svflow import fieldcalc as fc
from svflow import flowexp
from svflow.fieldcalc import (
    Add,
    Const,
    DomainError,
    Mul,
    ParseError,
    Point,
    Pow,
    UnknownIdentifierError,
    Var,
    compile_expressions,
    differentiate,
    evaluate,
    node_count,
    parse_expression,
    scalar_field,
    simplify,
    substitute,
    to_string,
    variables_of,
    vector_field,
)


def ev(text, variables, **values):
    e = parse_expression(text, variables)
    return evaluate(e, values)


# ---------------------------------------------------------------- parsing


def test_parse_atom_variable():
    e = parse_expression("t", ["t", "r"])
    assert e == Var("t")


def test_parse_two_operator_tree():
    e = parse_expression("t^2 * r", ["t", "r"])
    assert e == Mul(Pow(Var("t"), Const(2.0)), Var("r"))


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as exc:
        parse_expression("t + q", ["t", "r"])
    assert exc.value.position == 4


@pytest.mark.parametrize(
    "bad",
    ["t +", "(t", "t))", "exp t", "1..2", "t $ r", "", "* t"],
)
def test_parse_syntax_errors_carry_position(bad):
    with pytest.raises(ParseError) as exc:
        parse_expression(bad, ["t", "r"])
    assert exc.value.position >= 0


def test_reserved_names_rejected_as_variables():
    with pytest.raises(ValueError):
        parse_expression("exp(t)", ["t", "exp"])


def test_pi_constant():
    assert ev("2*pi", ["t"], t=0.0) == pytest.approx(2 * math.pi, rel=1e-15)


def test_precedence_and_associativity():
    assert ev("2 + 3 * 4", ["t"], t=0) == 14
    assert ev("2 * 3 ^ 2", ["t"], t=0) == 18
    assert ev("-3^2", ["t"], t=0) == -9  # unary minus binds looser than ^
    assert ev("(-3)^2", ["t"], t=0) == 9
    assert ev("2^3^2", ["t"], t=0) == 512  # right associative
    assert ev("8 - 3 - 2", ["t"], t=0) == 3
    assert ev("8 / 4 / 2", ["t"], t=0) == 1
    assert ev("t^-2", ["t"], t=2.0) == 0.25


# ---------------------------------------------------------------- evaluation


def test_evaluate_examples():
    assert ev("t^2 * r", ["t", "r"], t=2.0, r=3.0) == 12.0
    assert ev("exp(0)", ["t"], t=0.0) == 1.0


def test_log_domain_error():
    e = parse_expression("log(t)", ["t"])
    with pytest.raises(DomainError):
        evaluate(e, {"t": -1.0})


def test_division_by_zero():
    with pytest.raises(DomainError):
        ev("1/t", ["t"], t=0.0)


def test_pow_domain_rules():
    # integer exponents are fine for any base
    assert ev("t^2", ["t"], t=-2.0) == 4.0
    assert ev("t^3", ["t"], t=-2.0) == -8.0
    assert ev("t^-1", ["t"], t=-4.0) == -0.25
    # non-integer exponent demands a positive base
    assert ev("t^0.5", ["t"], t=4.0) == 2.0
    with pytest.raises(DomainError):
        ev("t^0.5", ["t"], t=-4.0)
    with pytest.raises(DomainError):
        ev("t^-2", ["t"], t=0.0)


def test_sqrt_domain():
    with pytest.raises(DomainError):
        ev("sqrt(t)", ["t"], t=-1e-9)


def test_sin_and_cos_of_infinity_are_domain_errors():
    for text in ("sin(t)", "cos(t)"):
        for value in (math.inf, -math.inf):
            with pytest.raises(DomainError) as exc:
                ev(text, ["t"], t=value)
            assert exc.value.kind == "domain"


def test_nan_input_is_a_domain_error_that_names_nan():
    for text in ("t", "t * 2", "t + 1", "log(t)", "sin(t)"):
        with pytest.raises(DomainError) as exc:
            ev(text, ["t"], t=math.nan)
        assert "NaN" in str(exc.value) and "overflow" not in str(exc.value)


def test_overflow_is_an_error_not_inf():
    with pytest.raises(DomainError) as exc:
        ev("exp(t)", ["t"], t=1e4)
    assert exc.value.kind == "overflow"


def test_sum_and_difference_overflow_is_an_error_not_inf():
    for text, values in (("x + x", {"x": 1e308}), ("x - y", {"x": 1e308, "y": -1e308})):
        with pytest.raises(DomainError) as exc:
            ev(text, ["x", "y"], **values)
        assert exc.value.kind == "overflow"


def test_constant_folding_keeps_the_finiteness_check():
    for text in ("1e308*10", "1e308 + 1e308", "-1e308 - 1e308", "1e308 / 1e-10"):
        folded = simplify(parse_expression(text, ["t"]))
        assert not isinstance(folded, Const)
        assert "1e+308" in str(folded)  # printable: no bare OverflowError
        with pytest.raises(DomainError) as exc:
            evaluate(folded, {"t": 0.0})
        assert exc.value.kind == "overflow"
    assert fc.mul(Const(1e308), Const(10.0)) is Mul(Const(1e308), Const(10.0))
    assert fc.div(Const(1.0), Const(0.0)) is fc.Div(Const(1.0), Const(0.0))
    assert simplify(parse_expression("2*3 - 1/4 + 0.5", ["t"])) is Const(6.25)


def test_infinite_variable_is_a_domain_error():
    for text in ("t", "t * 2", "t - t", "sin(t)"):
        for value in (math.inf, -math.inf):
            with pytest.raises(DomainError) as exc:
                ev(text, ["t"], t=value)
            assert str(exc.value) == "variable t is infinite"
    with pytest.raises(DomainError, match="variable t is NaN"):
        ev("t", ["t"], t=math.nan)


def test_compiled_order_reads_a_sequence_by_position():
    e = parse_expression("t - 2*r", ["t", "r"])
    run = compile_expressions([e, Var("r")], order=["r", "s", "t"])
    assert run([1.0, 99.0, 5.0]) == [3.0, 1.0]
    assert run((0.25, math.inf, 1.0)) == [0.5, 0.25]  # s is never loaded
    with pytest.raises(DomainError, match="^variable t is infinite$"):
        run([1.0, 0.0, -math.inf])
    with pytest.raises(DomainError, match="^variable r is NaN$"):
        run([math.nan, 0.0, 1.0])


def test_non_finite_exponent_is_a_domain_error():
    # a variable cannot carry an infinite exponent (see above), a constant can
    for value in (math.inf, -math.inf):
        with pytest.raises(DomainError) as exc:
            evaluate(Pow(Var("t"), Const(value)), {"t": 2.0})
        assert "exponent" in str(exc.value)


def test_integral_exponents_beyond_int32_are_integers():
    for e in (2.0**31, 2.0**31 + 2, 2.0**40, 1e300):
        assert ev("t^r", ["t", "r"], t=-1.0, r=e) == 1.0
        assert ev("t^r", ["t", "r"], t=-0.5, r=e) == 0.0
        assert ev("t^r", ["t", "r"], t=1.0, r=-e) == 1.0
    assert ev("t^r", ["t", "r"], t=-1.0, r=2.0**31 + 1) == -1.0
    with pytest.raises(DomainError) as exc:
        ev("t^r", ["t", "r"], t=-2.0, r=2.0**31)
    assert exc.value.kind == "overflow"
    with pytest.raises(DomainError, match="zero base"):
        ev("t^r", ["t", "r"], t=0.0, r=-(2.0**31))


def _old_eval_pow(b, e):
    """_eval_pow as it read when integral exponents stopped at 2^31."""
    try:
        integral = e == math.floor(e)
    except (OverflowError, ValueError):
        raise DomainError(f"pow with non-finite exponent {e}") from None
    if integral and abs(e) < 2**31:
        e = int(e)
        if b == 0.0 and e < 0:
            raise DomainError("zero base raised to a negative power")
    elif b <= 0.0:
        raise DomainError(f"non-integer power {e} of non-positive base {b}")
    try:
        v = float(b**e)
    except OverflowError:
        v = math.inf
    return fc._check_finite(v, "pow")


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from([0.0, -0.0, -1.0, 1.0, -2.0, 0.5, 1e308])
    | st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**31) + 1, 2**31 - 1).map(float)
    | st.floats(-(2.0**31) + 1, 2.0**31 - 1, allow_nan=False),
)
def test_pow_below_int32_exponents_is_unchanged(b, e):
    try:
        expected = _old_eval_pow(b, e)
    except DomainError as err:
        with pytest.raises(DomainError) as exc:
            fc._eval_pow(b, e)
        assert (exc.value.kind, str(exc.value)) == (err.kind, str(err))
    else:
        assert bits([fc._eval_pow(b, e)]) == bits([expected])


def test_pow_overflow_reads_the_same_for_floats_and_numpy_scalars():
    # Python's ** raises on overflow, numpy's returns inf: one message
    messages = set()
    for t in (2.0, np.float64(2.0)):
        with np.errstate(over="ignore"), pytest.raises(DomainError) as exc:
            ev("t^5000 + t^0.5", ["t"], t=t)
        assert exc.value.kind == "overflow"
        messages.add(str(exc.value))
    assert messages == {"pow overflowed the double range"}


def _checked(op, what):
    """An arithmetic helper as a result passed through _check_finite."""
    return lambda a, b: fc._check_finite(op(a, b), what)


def _checked_div(a, b):
    if b == 0.0:
        raise DomainError("division by zero")
    return fc._check_finite(a / b, "quotient")


_EXTREMES = st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 1.5e-320, math.inf, -math.inf, math.nan]
) | st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=300, deadline=None)
@given(_EXTREMES, _EXTREMES)
def test_inline_finiteness_test_matches_check_finite(a, b):
    for helper, checked in (
        (fc._eval_add, _checked(lambda x, y: x + y, "sum")),
        (fc._eval_sub, _checked(lambda x, y: x - y, "difference")),
        (fc._eval_mul, _checked(lambda x, y: x * y, "product")),
        (fc._eval_div, _checked_div),
    ):
        try:
            expected = checked(a, b)
        except DomainError as err:
            with pytest.raises(DomainError) as exc:
                helper(a, b)
            assert (exc.value.kind, str(exc.value)) == (err.kind, str(err))
        else:
            assert bits([helper(a, b)]) == bits([expected])


def test_non_finite_literal_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_expression("t + 1e999", ["t"])
    assert exc.value.position == 4


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_expression("(" * 2000 + "t" + ")" * 2000, ["t"])


def test_point_env_and_validation():
    p = Point(("t", "r"), (1.0, 2.0))
    assert p.dimension == 2
    assert p.env() == {"t": 1.0, "r": 2.0}
    assert p["r"] == 2.0
    with pytest.raises(KeyError):
        p["x"]
    with pytest.raises(ValueError):
        Point(("t", "r"), (1.0,))


def test_fields_validate_chart():
    with pytest.raises(UnknownIdentifierError):
        scalar_field("t + q", ("t", "r"))  # parse-level unknown identifier
    with pytest.raises(ValueError):
        vector_field(["t", "r", "t"], ("t", "r"))  # wrong component count
    f = scalar_field("t*r", ("t", "r"))
    assert f.eval_at(Point(("t", "r"), (3.0, 4.0))) == 12.0


# ---------------------------------------------------------------- derivatives

SAMPLE_EXPRS = [
    ("t^3", ("t",)),
    ("exp(-r^2/t)", ("t", "r")),
    ("sin(t)*cos(r) + t^2*r", ("t", "r")),
    ("log(1 + t^2) / (2 + sin(r))", ("t", "r")),
    ("sqrt(1 + t^2 + r^2)", ("t", "r")),
    ("t^2.5 * exp(0.3*t)", ("t",)),
    ("(t + 2*r)^4 - r/t", ("t", "r")),
]


def test_power_rule():
    d = differentiate(parse_expression("t^3", ["t"]), "t")
    assert evaluate(d, {"t": 2.0}) == 12.0
    assert simplify(d) == Mul(Const(3.0), Pow(Var("t"), Const(2.0)))


def test_chain_rule_matches_closed_form():
    e = parse_expression("exp(-r^2/t)", ["t", "r"])
    d = differentiate(e, "r")
    closed = parse_expression("(-2*r/t) * exp(-r^2/t)", ["t", "r"])
    rng = np.random.default_rng(7)
    for _ in range(20):
        env = {"t": float(rng.uniform(0.5, 2.0)), "r": float(rng.uniform(-2, 2))}
        assert evaluate(d, env) == pytest.approx(evaluate(closed, env), rel=1e-12)


def test_derivative_against_central_difference_oracle():
    # independent oracle: (f(x+h) - f(x-h)) / 2h with h = 1e-5 * scale
    rng = np.random.default_rng(42)
    for text, chart in SAMPLE_EXPRS:
        e = parse_expression(text, chart)
        for var in chart:
            d = differentiate(e, var)
            for _ in range(5):
                env = {v: float(rng.uniform(0.6, 1.8)) for v in chart}
                h = 1e-5 * max(1.0, abs(env[var]))
                up = dict(env, **{var: env[var] + h})
                dn = dict(env, **{var: env[var] - h})
                fd = (evaluate(e, up) - evaluate(e, dn)) / (2 * h)
                exact = evaluate(d, env)
                assert exact == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_fourth_derivative_is_exact():
    # curvature cross-checks need derivative towers up to order 4
    e = parse_expression("exp(0.5*t)", ["t"])
    d = e
    for _ in range(4):
        d = differentiate(d, "t")
    assert evaluate(d, {"t": 1.3}) == pytest.approx(
        0.5**4 * math.exp(0.65), rel=1e-13
    )


def test_differentiate_linearity():
    rng = np.random.default_rng(3)
    e1 = parse_expression("sin(t)*r^2", ["t", "r"])
    e2 = parse_expression("exp(0.2*t) + r", ["t", "r"])
    for _ in range(10):
        a = float(rng.uniform(-3, 3))
        combo = Add(Mul(Const(a), e1), e2)
        d_combo = differentiate(combo, "t")
        d_manual = Add(Mul(Const(a), differentiate(e1, "t")), differentiate(e2, "t"))
        env = {"t": float(rng.uniform(-1, 1)), "r": float(rng.uniform(-1, 1))}
        assert evaluate(d_combo, env) == pytest.approx(evaluate(d_manual, env), rel=1e-12)


def test_clairaut_mixed_partials():
    rng = np.random.default_rng(11)
    for text, chart in SAMPLE_EXPRS:
        if len(chart) < 2:
            continue
        e = parse_expression(text, chart)
        dxy = differentiate(differentiate(e, "t"), "r")
        dyx = differentiate(differentiate(e, "r"), "t")
        for _ in range(5):
            env = {v: float(rng.uniform(0.6, 1.8)) for v in chart}
            a, b = evaluate(dxy, env), evaluate(dyx, env)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------- round trip


def test_print_parse_round_trip_on_samples():
    rng = np.random.default_rng(123)
    for text, chart in SAMPLE_EXPRS:
        e = parse_expression(text, chart)
        reparsed = parse_expression(to_string(e), chart)
        for _ in range(100):
            env = {v: float(rng.uniform(0.6, 1.8)) for v in chart}
            assert evaluate(e, env) == pytest.approx(
                evaluate(reparsed, env), rel=1e-15, abs=0.0
            )


@st.composite
def small_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(
            st.one_of(
                st.sampled_from([Var("t"), Var("r")]),
                st.floats(-4, 4).map(lambda v: Const(round(v, 3))),
            )
        )
        return leaf
    left = draw(small_exprs(depth=depth + 1))
    right = draw(small_exprs(depth=depth + 1))
    from svflow import fieldcalc as fc

    kind = draw(st.sampled_from(["add", "sub", "mul", "sin", "cos", "neg", "exp"]))
    if kind == "add":
        return fc.Add(left, right)
    if kind == "sub":
        return fc.Sub(left, right)
    if kind == "mul":
        return fc.Mul(left, right)
    if kind == "sin":
        return fc.Sin(left)
    if kind == "cos":
        return fc.Cos(left)
    if kind == "neg":
        return fc.Neg(left)
    return fc.Exp(fc.Mul(Const(0.1), left))


def test_printing_keeps_the_grouping_of_right_operands():
    t, r = Var("t"), Var("r")
    for e in (Add(Const(0.001), fc.Sub(t, t)), Mul(t, fc.Div(r, Const(3.0))),
              Add(t, Add(r, t)), Mul(t, Mul(r, t))):
        assert parse_expression(to_string(e), ["t", "r"]) is e
    assert evaluate(parse_expression(to_string(Add(Const(0.001), fc.Sub(t, t))), ["t"]),
                    {"t": 1.0}) == 0.001


@settings(max_examples=60, deadline=None)
@given(small_exprs(), st.floats(-2, 2), st.floats(-2, 2))
def test_round_trip_random_trees(e, tv, rv):
    reparsed = parse_expression(to_string(e), ("t", "r"))
    env = {"t": tv, "r": rv}
    assert evaluate(reparsed, env) == pytest.approx(evaluate(e, env), rel=1e-14, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_simplify_preserves_value(e):
    s = simplify(e)
    env = {"t": 0.7, "r": -0.4}
    assert evaluate(s, env) == pytest.approx(evaluate(e, env), rel=1e-13, abs=1e-300)
    assert node_count(s) <= node_count(e)


# ---------------------------------------------------------------- compiler

_REFERENCE_OPS = {
    fc.Neg: lambda x: -x, fc.Exp: fc._eval_exp, fc.Log: fc._eval_log,
    fc.Sqrt: fc._eval_sqrt, fc.Sin: math.sin, fc.Cos: math.cos,
    fc.Add: fc._eval_add, fc.Sub: fc._eval_sub, fc.Mul: fc._eval_mul,
    fc.Div: fc._eval_div, fc.Pow: fc._eval_pow,
}


def reference(e, env):
    """Plain recursion over the tree, every occurrence evaluated anew."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, fc._Unary):
        return _REFERENCE_OPS[type(e)](reference(e.arg, env))
    return _REFERENCE_OPS[type(e)](reference(e.left, env), reference(e.right, env))


def reference_batch(exprs, env):
    """Values in order, or the first DomainError, as (values, error)."""
    try:
        return [reference(e, env) for e in exprs], None
    except DomainError as err:
        return None, err


def bits(values):
    return [struct.pack("<d", v) for v in values]


_LEAVES = [Const(0.0), Const(-0.0), Const(1e308), Const(-1e300), Const(2.5), Const(-1.0)]
_OPS = sorted(_REFERENCE_OPS, key=lambda cls: cls.__name__)


@st.composite
def shared_batches(draw):
    """Roots over a pool where each new node reuses earlier nodes, so the
    roots share subtrees by identity; rebuilt copies share them by
    structure only."""
    pool = [Var("t"), Var("r")] + draw(
        st.lists(st.sampled_from(_LEAVES) | st.floats(-1e3, 1e3).map(Const), max_size=3)
    )
    index = st.integers(0, 10**6)
    for _ in range(draw(st.integers(1, 12))):
        cls = draw(st.sampled_from(_OPS))
        a = pool[draw(index) % len(pool)]
        if issubclass(cls, fc._Unary):
            pool.append(cls(a))
        else:
            pool.append(cls(a, pool[draw(index) % len(pool)]))
        if draw(st.booleans()):  # an equal tree that shares no object
            pool.append(copy.deepcopy(pool[-1]))
    return [pool[draw(index) % len(pool)] for _ in range(draw(st.integers(1, 5)))]


_VALUES = st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-320, 0.5]) | st.floats(-1e6, 1e6)


@settings(max_examples=300, deadline=None)
@given(shared_batches(), _VALUES, _VALUES)
def test_compiled_batch_matches_reference(exprs, tv, rv):
    env = {"t": tv, "r": rv}
    values, error = reference_batch(exprs, env)
    run = compile_expressions(exprs)
    if error is None:
        assert bits(run(env)) == bits(values)
    else:
        with pytest.raises(DomainError) as exc:
            run(env)
        assert (exc.value.kind, str(exc.value)) == (error.kind, str(error))


def test_batch_keeps_the_sign_of_zero():
    t = Var("t")
    values = compile_expressions([Const(0.0), Const(-0.0), Mul(t, Const(-0.0))])({"t": 1.0})
    assert bits(values) == bits([0.0, -0.0, -0.0])


def test_batch_raises_the_first_error_in_order():
    t, r = Var("t"), Var("r")
    shared = fc.Sqrt(fc.Neg(t))  # fails for t > 0
    exprs = [Add(t, Const(1.0)), Add(fc.Log(r), shared), shared]
    env = {"t": 2.0, "r": -1.0}
    for batch, first in ((exprs, "log"), (exprs[::-1], "sqrt")):
        with pytest.raises(DomainError) as one_by_one:
            for e in batch:
                evaluate(e, env)
        with pytest.raises(DomainError) as batched:
            compile_expressions(batch)(env)
        assert str(batched.value) == str(one_by_one.value)
        assert str(batched.value).startswith(first)


# ---------------------------------------------------------------- simplify


def test_simplify_identities():
    t = Var("t")
    assert simplify(Add(t, Const(0.0))) == t
    assert simplify(Mul(t, Const(1.0))) == t
    assert simplify(Pow(t, Const(1.0))) == t
    assert simplify(Add(Const(2.0), Const(3.0))) == Const(5.0)
    assert to_string(simplify(parse_expression("t*1 + 0", ["t"]))) == "t"


def test_simplify_never_raises_on_bad_constants():
    e = parse_expression("log(0 - 1)", ["t"])
    s = simplify(e)  # must not raise at fold time
    with pytest.raises(DomainError):
        evaluate(s, {"t": 0.0})


def test_substitute():
    # compose psi(t, x) -> psi(t + x0/c, x)
    e = parse_expression("t^2 * x", ["t", "x"])
    shifted = substitute(e, "t", parse_expression("t + x0/2", ["t", "x0", "x"]))
    assert evaluate(shifted, {"t": 1.0, "x0": 2.0, "x": 3.0}) == 12.0
    assert variables_of(shifted) == {"t", "x0", "x"}


# ---------------------------------------------------------------- interning


def test_parsing_twice_gives_the_same_node():
    a = parse_expression("t*r + 1", ["t", "r"])
    b = parse_expression("t*r + 1", ["t", "r"])
    assert a is b
    assert a is Add(Mul(Var("t"), Var("r")), Const(1))
    assert hash(a) == hash(b)


def test_signed_zeros_are_distinct_constants():
    assert Const(0.0) is not Const(-0.0)
    assert Const(0) is Const(0.0) is fc.ZERO
    assert math.copysign(1.0, Const(-0.0).value) == -1.0


def test_nodes_are_immutable():
    e = parse_expression("t + 1", ["t"])
    with pytest.raises(AttributeError):
        e.left = Var("r")
    with pytest.raises(AttributeError):
        fc.ONE.value = 2.0


def test_copies_and_pickles_give_back_the_node():
    e = parse_expression("exp(-r^2/t) * sin(t) - 0.5", ["t", "r"])
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert pickle.loads(pickle.dumps(e)) is e
    assert pickle.loads(pickle.dumps([Const(-0.0)]))[0] is Const(-0.0)


def test_unique_table_shrinks_after_the_last_reference_goes():
    gc.collect()
    before = len(fc._TABLE)
    e = Var("t")
    for k in range(1000):
        e = Add(Mul(Const(k + 0.123), e), Var(f"x{k}"))
    assert len(fc._TABLE) > before + 3900
    del e
    gc.collect()
    assert len(fc._TABLE) == before


def test_unique_table_shrinks_after_a_derivative_memo_exits():
    gc.collect()
    before = len(fc._TABLE)
    with fc.derivative_memo():
        e = Var("t")
        for k in range(300):
            e = Add(Mul(Const(k + 0.123), fc.Sin(e)), Var(f"x{k}"))
        d = differentiate(e, "t")
        assert differentiate(e, "t") is d
        del e, d
        gc.collect()
        held = len(fc._TABLE)  # the memo keeps e and its derivative alive
    gc.collect()
    assert held > before + 1500
    assert len(fc._TABLE) == before


def _derivative_towers(exprs, calls):
    """For each call (i, vars), the derivatives of exprs[i] taken one
    variable after the other."""
    towers = []
    for i, variables in calls:
        e = exprs[i % len(exprs)]
        tower = []
        for var in variables:
            e = differentiate(e, var)
            tower.append(e)
        towers.append(tower)
    return towers


@settings(max_examples=80, deadline=None)
@given(
    st.lists(small_exprs(), min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.sampled_from("tr"), min_size=1, max_size=3)),
        min_size=1,
        max_size=8,
    ),
)
def test_derivative_memo_returns_the_nodes_differentiate_builds_alone(exprs, calls):
    plain = _derivative_towers(exprs, calls)
    with fc.derivative_memo():
        first = _derivative_towers(exprs, calls)
        with fc.derivative_memo():
            nested = _derivative_towers(exprs, calls[::-1])[::-1]
        again = _derivative_towers(exprs, calls)
    for towers in (first, nested, again):
        pairs = [pair for ta, tb in zip(plain, towers) for pair in zip(ta, tb, strict=True)]
        assert len(towers) == len(plain) and all(a is b for a, b in pairs)
    assert fc._DERIVATIVES.get() is None


def _shear2d_series(order):
    B = vector_field(["0.7*t + 0.3*r", "0.5*r"], ("t", "r"))
    C = scalar_field("0.6*r", ("t", "r"))
    psi = scalar_field("exp(0.3*t) * r", ("t", "r"))
    u = psi.expression
    for _ in range(order):
        u = flowexp.apply_operator(B, C, u)
    return (B, C, psi), u


def test_node_count_counts_distinct_nodes():
    _, u = _shear2d_series(6)
    tree_size = fc._fold([u], lambda node, sizes: 1 + sum(sizes))[id(u)]
    assert (node_count(u), tree_size) == (716, 189_724)


def test_series_budget_counts_distinct_nodes():
    (B, C, psi), _ = _shear2d_series(0)
    x = Point(("t", "r"), (0.6, 0.9))
    flowexp.series_oracle(B, C, psi, x, 0.1, 6, max_nodes=716)
    with pytest.raises(flowexp.ExpressionSizeError):
        flowexp.series_oracle(B, C, psi, x, 0.1, 6, max_nodes=715)


def test_walks_handle_a_5000_term_sum():
    e = parse_expression(" + ".join(["t"] * 5000), ["t"])
    assert evaluate(differentiate(e, "t"), {"t": 0.3}) == 5000.0
    assert hash(e) == hash(e) and e == parse_expression(to_string(e), ["t"])
    assert node_count(e) == 5000 and variables_of(e) == {"t"}
    assert evaluate(simplify(e), {"t": 0.5}) == evaluate(e, {"t": 0.5}) == 2500.0
    r2 = parse_expression("2*r", ["r"])
    assert evaluate(substitute(e, "t", r2), {"r": 0.25}) == 2500.0
