import random
from fractions import Fraction

import pytest

from degbern.core import LAMBDA, LambdaPoly, XPoly
from degbern.families import bernoulli_poly, bernoulli_poly_order, euler_poly, genocchi_poly
from degbern.parser import (
    Bin,
    Call,
    Lit,
    Neg,
    ParseError,
    Pow,
    Var,
    lower,
    parse,
    parse_poly,
)
from helpers import random_xpoly


def test_grammar_smoke():
    p = parse_poly("x^2 - 1/2*x")
    assert p.degree == 2
    assert p.coeff(1) == LambdaPoly.const(Fraction(-1, 2))


def test_call_nodes():
    p = parse_poly("B(2)*B(3)")
    assert p.degree == 5
    assert p == bernoulli_poly(2) * bernoulli_poly(3)


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError, match="non-integer exponent"):
        parse("x^(1/2)")


def test_symbolic_division_rejected():
    with pytest.raises(ParseError, match="symbolic division"):
        parse("x/2")
    with pytest.raises(ParseError, match="symbolic division"):
        parse("B(2)/B(1)")


def test_rational_literals():
    assert parse_poly("3/4") == XPoly.const(Fraction(3, 4))
    assert parse_poly("-3/4") == XPoly.const(Fraction(-3, 4))
    with pytest.raises(ParseError, match="zero denominator"):
        parse("1/0")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse("2x")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError, match="expected"):
        parse("(x + 1")


def test_lexical_error_carries_offset():
    # non-ASCII digits and spaces are rejected, not read as their ASCII twins
    cases = [("x + $", 4), ("x^\u0663", 2), ("x^\u00b2", 2), ("B(\uff11)", 2), ("x +\u3000 1", 3)]
    for src, offset in cases:
        with pytest.raises(ParseError) as excinfo:
            parse(src)
        assert excinfo.value.offset == offset
        assert f"offset {offset}" in str(excinfo.value)


def test_unary_minus_binds_looser_than_power():
    assert parse_poly("-x^2") == -XPoly.monomial(2)
    assert parse_poly("(-x)^2") == XPoly.monomial(2)


def test_chained_power_rejected():
    with pytest.raises(ParseError):
        parse("x^2^3")


def test_precedence_of_product_and_sum():
    assert parse_poly("1 + 2*x^2") == XPoly([1, 0, 2])
    assert parse_poly("-1/2*x") == XPoly([0, Fraction(-1, 2)])


def test_call_arity_checks():
    assert parse_poly("B(3,2)") == bernoulli_poly_order(3, 2)
    with pytest.raises(ParseError):
        parse("E(1,2)")
    with pytest.raises(ParseError):
        parse("B(1,2,3)")
    with pytest.raises(ParseError):
        parse("B(x)")


def test_lower_genocchi():
    assert parse_poly("G(2)") == XPoly([-1, 2])
    assert parse_poly("G(2)") == genocchi_poly(2)


def test_lower_lambda_symbol():
    p = parse_poly("l*x + 3")
    assert p.coeff(1) == LAMBDA
    assert p.coeff(0) == LambdaPoly.const(3)


def test_lower_square_of_linear():
    assert parse_poly("B(1)^2") == XPoly([Fraction(1, 4), -1, 1])


def test_lower_euler():
    assert parse_poly("E(2)") == euler_poly(2)


def test_degree_guard_default():
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_poly("x^65")
    assert parse_poly("x^64").degree == 64


def test_degree_guard_env_override(monkeypatch):
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "5")
    with pytest.raises(ValueError, match="exceeds the limit 5"):
        parse_poly("x^6")
    assert parse_poly("x^5").degree == 5
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "bogus")
    with pytest.raises(ValueError, match="DEGBERN_MAX_DEGREE"):
        parse_poly("x")


def test_degree_guard_blocks_huge_products():
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_poly("x^40*x^40")


def test_exponent_bounded_on_a_constant_base():
    # a constant has degree 0, so only the exponent itself bounds 2^(10^8)
    assert parse_poly("2^64") == XPoly.const(2**64)
    for src in ("2^65", "2^100000000", "(1/2)^65", "(x-x)^65"):
        with pytest.raises(ValueError, match="exponent must be between 0 and 64"):
            parse_poly(src)


def test_lambda_degree_guard_default():
    for src in ("l^65", "(1+l)^65", "l^40*l^40"):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_poly(src)
    assert parse_poly("(1+l)^64") == XPoly.const((1 + LAMBDA) ** 64)


def test_lambda_degree_guard_env_override(monkeypatch):
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "5")
    with pytest.raises(ValueError, match="l-degree 6 exceeds the limit 5"):
        parse_poly("l^6")
    with pytest.raises(ValueError, match="l-degree 6 exceeds the limit 5"):
        parse_poly("(x*l^3)^2")
    assert parse_poly("(1+l)^5").coeff(0).degree == 5


def test_family_arguments_bounded_by_the_degree_limit():
    with pytest.raises(ValueError, match="family index of E"):
        parse_poly("E(65)")
    with pytest.raises(ValueError, match="order r of B.* between 0 and 64"):
        parse_poly("B(2,65)")
    with pytest.raises(ValueError, match="order r of B.* between 0 and 5"):
        parse_poly("B(2,6)", max_degree=5)
    assert parse_poly("B(2,5)", max_degree=5).degree == 2


def test_recursion_depth_bounded():
    deep = "(" * 300 + "x" + ")" * 300
    with pytest.raises(ParseError, match="nesting"):
        parse(deep)


def test_print_parse_round_trip():
    rng = random.Random(211)
    for _ in range(60):
        p = random_xpoly(rng, 10, lam_bearing=True, bound=60)
        assert parse_poly(str(p)) == p
    assert parse_poly(str(XPoly.zero())) == XPoly.zero()


def _random_ast(rng, depth=0):
    choice = rng.random()
    if depth > 3 or choice < 0.35:
        kind = rng.randrange(4)
        if kind == 0:
            return Lit(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if kind == 1:
            return Var("x")
        if kind == 2:
            return Var("l")
        return Call(rng.choice(["B", "E", "G"]), (rng.randint(0, 4),))
    if choice < 0.5:
        return Neg(_random_ast(rng, depth + 1))
    if choice < 0.65:
        return Pow(_random_ast(rng, depth + 1), rng.randint(0, 2))
    op = rng.choice(["+", "-", "*"])
    return Bin(op, _random_ast(rng, depth + 1), _random_ast(rng, depth + 1))


def test_lower_is_a_homomorphism():
    rng = random.Random(223)
    for _ in range(60):
        a, b = _random_ast(rng), _random_ast(rng)
        assert lower(Bin("+", a, b)) == lower(a) + lower(b)
        assert lower(Bin("*", a, b)) == lower(a) * lower(b)
        assert lower(Neg(a)) == -lower(a)


def test_offsets_point_into_source():
    src = "x + B(1,2,3)"
    with pytest.raises(ParseError) as excinfo:
        parse(src)
    assert 0 <= excinfo.value.offset <= len(src)
