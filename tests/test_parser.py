from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbern.core import LAMBDA, LambdaPoly, XPoly
from degbern.families import bernoulli_poly, bernoulli_poly_order, euler_poly, genocchi_poly
from degbern.parser import ParseError, parse_poly


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
        parse_poly("x^(1/2)")


def test_symbolic_division_rejected():
    with pytest.raises(ParseError, match="symbolic division"):
        parse_poly("x/2")
    with pytest.raises(ParseError, match="symbolic division"):
        parse_poly("B(2)/B(1)")


def test_rational_literals():
    assert parse_poly("3/4") == XPoly.const(Fraction(3, 4))
    assert parse_poly("-3/4") == XPoly.const(Fraction(-3, 4))
    with pytest.raises(ParseError, match="zero denominator"):
        parse_poly("1/0")


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_unbalanced_parentheses():
    with pytest.raises(ParseError, match="expected"):
        parse_poly("(x + 1")


def test_lexical_error_carries_offset():
    # non-ASCII digits and spaces are rejected, not read as their ASCII twins
    cases = [("x + $", 4), ("x^\u0663", 2), ("x^\u00b2", 2), ("B(\uff11)", 2), ("x +\u3000 1", 3)]
    for src, offset in cases:
        with pytest.raises(ParseError) as excinfo:
            parse_poly(src)
        assert excinfo.value.offset == offset
        assert f"offset {offset}" in str(excinfo.value)


def test_unary_minus_binds_looser_than_power():
    assert parse_poly("-x^2") == -XPoly.monomial(2)
    assert parse_poly("(-x)^2") == XPoly.monomial(2)


def test_chained_power_rejected():
    with pytest.raises(ParseError):
        parse_poly("x^2^3")


def test_precedence_of_product_and_sum():
    assert parse_poly("1 + 2*x^2") == XPoly([1, 0, 2])
    assert parse_poly("-1/2*x") == XPoly([0, Fraction(-1, 2)])


def test_call_arity_checks():
    assert parse_poly("B(3,2)") == bernoulli_poly_order(3, 2)
    with pytest.raises(ParseError):
        parse_poly("E(1,2)")
    with pytest.raises(ParseError):
        parse_poly("B(1,2,3)")
    with pytest.raises(ParseError):
        parse_poly("B(x)")


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


def test_no_product_past_the_limit_is_formed(monkeypatch):
    # each XPoly product the parser asks for, powers included, is checked
    # before it is computed, and a product by zero passes at any degree
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "8")
    formed = []
    multiply = XPoly.__mul__

    def recording(a, b):
        if isinstance(b, XPoly) and a and b:
            formed.append((a.degree + b.degree, max(c.degree for c in a.coeffs) + max(c.degree for c in b.coeffs)))
        return multiply(a, b)

    monkeypatch.setattr(XPoly, "__mul__", recording)
    for src, message in [
        ("(1+x+l)^8*(1+x+l)^8", "expression degree 16 exceeds the limit 8"),
        ("(1+x)^8*x", "expression degree 9 exceeds the limit 8"),
        ("(1+l)^5*(x+l)^4", "expression l-degree 9 exceeds the limit 8"),
        ("x^4*x^4*x", "expression degree 9 exceeds the limit 8"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_poly(src)
    assert parse_poly("x^8*0*x^8") == XPoly.zero()
    assert parse_poly("(1+x+l)^4*(1-x-l)^4") == (1 - (XPoly.x() + LAMBDA) ** 2) ** 4
    assert formed and max(max(d) for d in formed) <= 8


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


def test_family_arguments_bounded_by_the_degree_limit(monkeypatch):
    with pytest.raises(ValueError, match="family index of E"):
        parse_poly("E(65)")
    with pytest.raises(ValueError, match="order r of B.* between 0 and 64"):
        parse_poly("B(2,65)")
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "5")
    with pytest.raises(ValueError, match=r"order r of B.* between 0 and 5 \(DEGBERN_MAX_DEGREE\)"):
        parse_poly("B(2,6)")
    assert parse_poly("B(2,5)").degree == 2


def test_recursion_depth_bounded():
    deep = "(" * 300 + "x" + ")" * 300
    with pytest.raises(ParseError, match="nesting"):
        parse_poly(deep)


# unit coefficients print without a factor, negative ones pull their sign out
_PRINTED_SCALARS = st.sampled_from([1, -1]) | st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60))
# an empty dict is an empty l-slot, an empty list the zero polynomial
_PRINTED_COEFFS = st.dictionaries(st.integers(0, 4), _PRINTED_SCALARS, max_size=4).map(LambdaPoly)
_PRINTED_POLYS = st.lists(_PRINTED_COEFFS, max_size=10).map(XPoly)


@settings(max_examples=150, deadline=None)
@given(_PRINTED_POLYS)
def test_print_parse_round_trip(p):
    assert parse_poly(str(p)) == p


def test_offsets_point_into_source():
    src = "x + B(1,2,3)"
    with pytest.raises(ParseError) as excinfo:
        parse_poly(src)
    assert 0 <= excinfo.value.offset <= len(src)


def test_errors_come_in_source_order():
    # values are guarded as they are parsed, so the first error from the left wins
    with pytest.raises(ValueError, match="expression degree 65 exceeds the limit 64") as excinfo:
        parse_poly("x^65 + )")
    assert not isinstance(excinfo.value, ParseError)
    with pytest.raises(ParseError, match="expected a value") as excinfo:
        parse_poly("x + ) + x^65")
    assert excinfo.value.offset == 4


@settings(max_examples=400, deadline=None)
@given(st.text(st.characters(max_codepoint=127)) | st.text("0123456789xlBEG+-*/^(), "))
def test_any_ascii_string_parses_or_raises_value_error(src):
    try:
        assert isinstance(parse_poly(src), XPoly)
    except ParseError as exc:
        assert 0 <= exc.offset <= len(src)
    except ValueError:
        pass


# Grammar-drawn expressions of bounded size: at most 5 leaves of degree at
# most 6 in x and 2 in l, and only exponents 0 and 1 on a compound base, so a
# product of two stays inside the default limit 64.
_LEAF = st.one_of(
    st.builds("{}/{}".format, st.integers(0, 99), st.integers(1, 9)),
    st.integers(0, 99).map(str),
    st.sampled_from(["x", "l"]),
    st.builds("{}({})".format, st.sampled_from("BEG"), st.integers(0, 3)),
    st.builds("B({},{})".format, st.integers(0, 3), st.integers(0, 3)),
)
_EXPR = st.recursive(
    st.one_of(_LEAF, st.builds("{}^{}".format, _LEAF, st.integers(0, 2))),
    lambda inner: st.one_of(
        inner.map("-{}".format),
        st.builds("({})^{}".format, inner, st.integers(0, 1)),
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*"), inner),
    ),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(_EXPR, _EXPR)
def test_parse_poly_is_a_homomorphism(a, b):
    pa, pb = parse_poly(a), parse_poly(b)
    assert parse_poly(f"({a})+({b})") == pa + pb
    assert parse_poly(f"({a})-({b})") == pa - pb
    assert parse_poly(f"({a})*({b})") == pa * pb
    assert parse_poly(f"-({a})") == -pa
