"""Parser round-trips, star-evaluation, derivatives, limits, continuity."""

import random
from fractions import Fraction

import pytest

import hyperreal.calculus as calculus
from hyperreal import EPS, OMEGA, HyperReal, eval_hyper, parse_expr, to_text
from hyperreal.calculus import (
    Abs,
    BinOp,
    Const,
    Pow,
    Root,
    Var,
    continuity_at,
    derivative,
    free_variable,
    limit_fun,
    limit_seq,
    newton_quotient,
)
from hyperreal.errors import (
    ExactZeroDivisionError,
    NonDifferentiableError,
    NotRationalSequenceError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)

F = Fraction


# ---------------------------------------------------------------------------
# Parsing


def test_parse_power():
    assert parse_expr("x^2") == Pow(Var("x"), F(2))


def test_parse_rational_function():
    node = parse_expr("(2*n^2+1)/(n^2+3)")
    assert isinstance(node, BinOp) and node.op == "/"
    assert free_variable(node) == "n"


def test_parse_root_call():
    node = parse_expr("root(1+eps, 2)")
    assert isinstance(node, Root) and node.degree == 2


def test_parse_abs_and_constants():
    assert parse_expr("abs(x)") == Abs(Var("x"))
    assert parse_expr("eps") == Const("eps")
    assert parse_expr("w") == Const("w")


def test_parse_negative_and_fractional_exponents():
    assert parse_expr("eps^-1") == Pow(Const("eps"), F(-1))
    assert parse_expr("eps^(1/2)") == Pow(Const("eps"), F(1, 2))
    assert parse_expr("eps^(-3/2)") == Pow(Const("eps"), F(-3, 2))


def test_parse_decimal_is_exact():
    assert eval_hyper("0.25") == HyperReal.from_rational(F(1, 4))
    assert eval_hyper("1/3") == HyperReal.from_rational(F(1, 3))


def test_unary_minus_binds_below_power():
    assert eval_hyper("-eps^2") == -(EPS * EPS)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_expr("1 + * 2")
    assert info.value.position == 4


def test_second_variable_rejected():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x + y")


def test_unbound_variable_at_eval():
    with pytest.raises(UnboundVariableError):
        eval_hyper("x + 1")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("1 + 2 )")


def test_roundtrip_through_printer():
    corpus = [
        "x^2",
        "(2*n^2+1)/(n^2+3)",
        "root(1+eps, 2)",
        "abs(x) / (x - 1)",
        "-x^3 + 2*x - 1/2",
        "eps^(1/2) + w",
        "1 - eps + eps^2 - eps^3 + O(eps^4)",
        "x^-2",
    ]
    for text in corpus:
        node = parse_expr(text)
        assert parse_expr(to_text(node)) == node


def test_constructed_nested_power_prints_unambiguously():
    node = Pow(Pow(Var("x"), F(2)), F(3))
    assert to_text(node) == "(x^2)^3"
    assert eval_hyper(parse_expr(to_text(node)), 2) == HyperReal.from_rational(64)


def test_value_roundtrip_through_canonical_text():
    values = [
        HyperReal(),
        HyperReal.from_rational(F(-3, 2)),
        (1 + EPS).inv(4),
        EPS.root(2),
        OMEGA + 5 - EPS,
        HyperReal((), order_bound=F(1, 2)),
        HyperReal([(F(-3, 2), F(5, 7)), (0, -2)]),
    ]
    for value in values:
        assert eval_hyper(str(value)) == value


# ---------------------------------------------------------------------------
# Star-evaluation


def test_eval_agrees_with_classical_on_rationals():
    rng = random.Random(5)
    node = parse_expr("(x^3 - 2*x + 1) / (x^2 + 1)")
    for _ in range(25):
        q = F(rng.randint(-20, 20), rng.randint(1, 10))
        classical = (q**3 - 2 * q + 1) / (q**2 + 1)
        assert eval_hyper(node, q) == HyperReal.from_rational(classical)


def test_eval_square_at_three():
    assert eval_hyper("x^2", 3) == HyperReal.from_rational(9)


def test_eval_square_near_three():
    got = eval_hyper("x^2", 3 + EPS)
    assert got == 9 + 6 * EPS + EPS * EPS
    # x infinitesimally close to 3 lands infinitesimally close to 9.
    assert (got - 9).is_infinitesimal()


def test_eval_abs_of_negative_infinitesimal():
    assert eval_hyper("abs(x)", -EPS) == EPS


def test_eval_division_by_exact_zero():
    with pytest.raises(ExactZeroDivisionError):
        eval_hyper("1/x", 0)


# ---------------------------------------------------------------------------
# Newton quotients


def test_newton_quotient_square_random_points():
    rng = random.Random(9)
    for _ in range(20):
        x0 = F(rng.randint(-30, 30), rng.randint(1, 12))
        got = newton_quotient("x^2", x0, EPS)
        assert got == 2 * x0 + EPS


def test_newton_quotient_cube_at_one():
    got = newton_quotient("x^3", 1, EPS)
    assert got == 3 + 3 * EPS + EPS * EPS
    # Finite-difference oracle for the shadow: (f(1+h)-f(1))/h at h=1e-6.
    h = 1e-6
    fd = ((1 + h) ** 3 - 1) / h
    assert abs(fd - float(got.shadow())) < 1e-5


def test_newton_quotient_abs_is_one_sided():
    assert newton_quotient("abs(x)", 0, EPS) == HyperReal.from_rational(1)
    assert newton_quotient("abs(x)", 0, -EPS) == HyperReal.from_rational(-1)


def test_newton_quotient_rejects_non_infinitesimal():
    with pytest.raises(ValueError):
        newton_quotient("x^2", 0, HyperReal.from_rational(1))


# ---------------------------------------------------------------------------
# Derivatives


def test_derivative_of_square_is_exact():
    rng = random.Random(13)
    for _ in range(20):
        x0 = F(rng.randint(-40, 40), rng.randint(1, 12))
        assert derivative("x^2", x0) == 2 * x0


def test_derivative_cube_matches_finite_differences():
    got = derivative("x^3", 2)
    assert got == 12
    h = 1e-6
    fd = ((2 + h) ** 3 - (2 - h) ** 3) / (2 * h)
    assert abs(fd - float(got)) < 1e-6


def test_derivative_abs_at_zero_not_differentiable():
    with pytest.raises(NonDifferentiableError) as info:
        derivative("abs(x)", 0)
    outcomes = {w[1] for w in info.value.witnesses}
    assert "1" in outcomes and "-1" in outcomes


def test_derivative_at_pole_not_differentiable():
    with pytest.raises(NonDifferentiableError) as info:
        derivative("1/x", 0)
    assert str(info.value) == "function undefined at probe eps"
    assert info.value.witnesses == (("eps", "undefined"),)


def test_derivative_evaluates_the_base_point_once(monkeypatch):
    points = []
    evaluate = calculus.eval_hyper

    def counting(node, at=None, precision=None):
        points.append(at)
        return evaluate(node, at, precision)

    monkeypatch.setattr(calculus, "eval_hyper", counting)
    assert derivative("1/(1+x^2)", 3) == F(-3, 50)
    # One evaluation per probe, plus f(3) once.
    assert len(points) == 6
    assert points.count(HyperReal.from_rational(3)) == 1


def test_derivative_linearity_and_product_rule():
    rng = random.Random(17)
    corpus = ["x^2", "x^3 - x", "2*x + 1", "x^4 - 3*x^2 + 2", "x"]
    for _ in range(20):
        f = parse_expr(rng.choice(corpus))
        g = parse_expr(rng.choice(corpus))
        x0 = F(rng.randint(-10, 10), rng.randint(1, 6))
        fs = derivative(f, x0)
        gs = derivative(g, x0)
        assert derivative(BinOp("+", f, g), x0) == fs + gs
        f0 = eval_hyper(f, x0).shadow()
        g0 = eval_hyper(g, x0).shadow()
        assert derivative(BinOp("*", f, g), x0) == f0 * gs + fs * g0


def test_derivative_matches_central_differences_on_rational_functions():
    for text, x0 in [
        ("(x^2+1)/(x+2)", F(1)),
        ("1/(x^2+1)", F(1, 2)),
        ("(x^3-x)/(x^2+3)", F(-1)),
        ("x^5 - x^2", F(2, 3)),
    ]:
        exact = float(derivative(text, x0))
        node = parse_expr(text)

        def f(value):
            return float(eval_hyper(node, F(value)).shadow())

        h = F(1, 10**6)
        fd = (f(x0 + h) - f(x0 - h)) / (2 * float(h))
        assert abs(fd - exact) < 1e-6


# ---------------------------------------------------------------------------
# Sequence limits


def test_limit_seq_reciprocal():
    result = limit_seq("1/n")
    assert result.kind == "finite" and result.value == 0


def test_limit_seq_rational_function():
    result = limit_seq("(2*n^2+1)/(n^2+3)")
    assert result.kind == "finite" and result.value == 2


def test_limit_seq_square_diverges():
    assert limit_seq("n^2").kind == "plus-infinity"
    assert limit_seq("-n").kind == "minus-infinity"


def test_limit_seq_rejects_non_rational_expressions():
    for text in ("abs(n)", "root(n, 2)", "eps + n", "n^(1/2)"):
        with pytest.raises(NotRationalSequenceError):
            limit_seq(text)


def test_limit_seq_epsilon_index_oracle():
    # Classical convergence check: past some index every term is within
    # 1e-6 of the claimed limit.
    node = parse_expr("(2*n^2+1)/(n^2+3)")
    limit = limit_seq(node).value
    tol = F(1, 10**6)
    threshold = 3000
    for n in [threshold + 1, 10**4, 10**5, 10**6, 10**9]:
        value = eval_hyper(node, F(n)).shadow()
        assert abs(value - limit) < tol


# ---------------------------------------------------------------------------
# Function limits


def test_limit_removable_singularity():
    result = limit_fun("(x^2 - 1)/(x - 1)", 1)
    assert result.kind == "finite"
    # Algebraic simplification oracle: the function equals x + 1 off x = 1.
    assert result.value == eval_hyper("x + 1", 1).shadow()


def test_limit_one_over_x_from_the_right():
    assert limit_fun("1/x", 0, side="right").kind == "plus-infinity"


def test_limit_one_over_x_from_the_left():
    assert limit_fun("1/x", 0, side="left").kind == "minus-infinity"


def test_limit_one_over_x_two_sided_fails():
    result = limit_fun("1/x", 0)
    assert result.kind == "no-limit"
    assert len(result.witnesses) == 2


def test_limit_square_at_infinity():
    assert limit_fun("x^2", "+inf").kind == "plus-infinity"
    assert limit_fun("x^2", "-inf").kind == "plus-infinity"
    assert limit_fun("x^3", "-inf").kind == "minus-infinity"


def test_limit_finite_at_infinity():
    result = limit_fun("(2*x^2+1)/(x^2+3)", "+inf")
    assert result.kind == "finite" and result.value == 2


def test_limit_undefined_at_probe():
    result = limit_fun("1/(x - 1)", 1, side="both")
    assert result.kind in ("no-limit",)


def test_limit_of_sum_is_sum_of_limits():
    rng = random.Random(19)
    corpus = ["(x^2+1)/(x^2+3)", "x/(x+10)", "(3*x+1)/(x+2)", "5 - 1/(x^2+1)"]
    for _ in range(15):
        f = parse_expr(rng.choice(corpus))
        g = parse_expr(rng.choice(corpus))
        c = F(rng.randint(0, 5))
        lf = limit_fun(f, c)
        lg = limit_fun(g, c)
        combined = limit_fun(BinOp("+", f, g), c)
        assert lf.kind == lg.kind == combined.kind == "finite"
        assert combined.value == lf.value + lg.value


# ---------------------------------------------------------------------------
# Continuity


def test_square_continuous_at_random_rationals():
    rng = random.Random(29)
    for _ in range(10):
        c = F(rng.randint(-20, 20), rng.randint(1, 8))
        assert continuity_at("x^2", c)


def test_reciprocal_discontinuous_at_pole():
    assert not continuity_at("1/x", 0)


def test_abs_continuous_at_zero():
    assert continuity_at("abs(x)", 0)
    # Classical delta-epsilon oracle: delta = tol works for |x| at 0.
    tol = 1e-6
    for x in (-9e-7, -1e-9, 1e-9, 5e-7):
        assert abs(abs(x) - 0) <= tol


def test_step_like_quotient_discontinuous_at_zero():
    # abs(x)/x jumps from -1 to 1 across 0 and is undefined there.
    assert not continuity_at("abs(x)/x", 0)
    assert continuity_at("abs(x)/x", 1)


def test_polynomial_corpus_continuity():
    for text in ("x^3 - x", "(x^2+1)/(x^2+2)", "abs(x) + x^2"):
        assert continuity_at(text, F(1, 3))
