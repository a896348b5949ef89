import math
import random
import re
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degbern.core as core
from degbern.core import (
    LAMBDA,
    ExactDivisionError,
    LambdaPoly,
    TruncSeries,
    XPoly,
    _dot,
    _packed_plan,
    _packed_products,
    _packed_sums,
    _product_side,
    _slots,
)
from degbern.families import harmonic
from helpers import (
    SMALL_FRACTIONS,
    SMALL_LAMBDA_POLYS,
    all_primitive,
    is_primitive,
    list_mul,
    newton_inverse,
    random_fraction,
    random_lambda_poly,
    random_xpoly,
    small_xpolys,
    taylor_shift,
    terms_add,
    terms_mul,
)


# -- rationals ---------------------------------------------------------------


def test_rational_ring_laws():
    rng = random.Random(11)
    for _ in range(1000):
        p, q, r = (random_fraction(rng, 100) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)


# -- LambdaPoly ----------------------------------------------------------------


def test_lambda_poly_drops_zero_terms():
    assert LambdaPoly({1: 0, 2: 1}) == LambdaPoly({2: 1})
    assert LambdaPoly({3: 0}).is_zero


def test_lambda_poly_degree_sentinel():
    zero = LambdaPoly.zero()
    assert zero.degree < 0
    assert zero.degree < LambdaPoly.one().degree
    assert zero.degree == float("-inf")


def test_lpoly_divexact_monomial_shift():
    p = LambdaPoly({2: 1, 3: -2})
    assert p.divexact(2) == LambdaPoly({0: 1, 1: -2})


def test_lpoly_divexact_identity_case():
    assert LAMBDA.divexact(0) == LAMBDA


def test_lpoly_divexact_blocked_by_constant():
    with pytest.raises(ExactDivisionError):
        LambdaPoly({0: 1, 1: 1}).divexact(1)


def test_lambda_poly_ring_laws():
    rng = random.Random(23)
    for _ in range(1000):
        p, q, r = (random_lambda_poly(rng, 3, 40) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p + q == q + p


def test_lambda_poly_eval_at_zero_is_homomorphism():
    rng = random.Random(37)
    for _ in range(300):
        p, q = random_lambda_poly(rng, 4, 30), random_lambda_poly(rng, 4, 30)
        assert (p * q).coeff(0) == p.coeff(0) * q.coeff(0)
        assert (p + q).coeff(0) == p.coeff(0) + q.coeff(0)


# 0 and 1 take their own paths in evaluation; each as every type of argument.
_ZERO_ONE_SCALARS = (0, 1, Fraction(0), Fraction(1))
_ZERO_ONE_POINTS = (*_ZERO_ONE_SCALARS, LambdaPoly.zero(), LambdaPoly.one())


def test_lambda_poly_subs_is_homomorphism():
    rng = random.Random(41)
    for _ in range(300):
        p, q = random_lambda_poly(rng, 3, 30), random_lambda_poly(rng, 3, 30)
        for s in (random_fraction(rng, 10), *_ZERO_ONE_SCALARS):
            assert (p * q).subs(s) == p.subs(s) * q.subs(s)
        for s in _ZERO_ONE_SCALARS:
            assert p.subs(s) == sum((c * s**e for e, c in p.items()), Fraction(0))


def test_lambda_poly_pow_matches_repeated_mul():
    p = LambdaPoly({0: Fraction(1, 2), 1: -3})
    assert p**3 == p * p * p
    assert p**0 == LambdaPoly.one()


# denominators with shared factors, so sums and products have content to remove
_FRACTIONS = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=720)
_TERMS = st.dictionaries(st.integers(0, 6), _FRACTIONS | st.just(Fraction(0)), max_size=7)


@settings(max_examples=200, deadline=None)
@given(_TERMS, _TERMS, _FRACTIONS.filter(bool), st.integers(-50, 50), st.integers(0, 3))
def test_lambda_poly_is_primitive_and_matches_a_fraction_dict(a, b, s, n, k):
    p, q = LambdaPoly(a), LambdaPoly(b)
    a = terms_add(a, {})
    cases = [
        (p, a),
        (p + q, terms_add(a, b)),
        (p * q, terms_mul(a, b)),
        (p * s, terms_mul(a, {0: s})),
        (p * n, terms_mul(a, {0: Fraction(n)})),
        (p / s, terms_mul(a, {0: 1 / s})),
        (-p, terms_mul(a, {0: Fraction(-1)})),
        (LambdaPoly({e + k: c for e, c in a.items()}).divexact(k), a),
    ]
    for value, reference in cases:
        nums, den = value._coeffs, value._den
        assert den > 0 and math.gcd(den, *nums) == 1
        assert not nums or nums[-1] != 0
        assert all(type(c) is int for c in (den, *nums))
        assert value.items() == tuple(sorted(reference.items()))
        twin = LambdaPoly(reference)  # the same value, built from its terms
        assert twin == value and hash(twin) == hash(value)
    if any(e < k for e in a):
        with pytest.raises(ExactDivisionError):
            p.divexact(k)


# -- XPoly ------------------------------------------------------------------------


def test_xpoly_strips_trailing_zeros():
    p = XPoly([LambdaPoly.one(), LambdaPoly.zero()])
    assert p.degree == 0
    assert XPoly([LambdaPoly.zero()]).is_zero


def test_xpoly_leading_nonzero():
    rng = random.Random(3)
    for _ in range(100):
        p = random_xpoly(rng, 6, True, 20)
        assert not p.leading().is_zero


def test_xpoly_ring_laws():
    rng = random.Random(59)
    for _ in range(1000):
        p, q, r = (random_xpoly(rng, 4, True, 15) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p


def test_xpoly_eval_commutes_with_arithmetic():
    rng = random.Random(61)
    for _ in range(200):
        p, q = random_xpoly(rng, 5, True, 20), random_xpoly(rng, 5, True, 20)
        xv, lv = random_fraction(rng, 9), random_fraction(rng, 9)
        for xv in (xv, *_ZERO_ONE_POINTS):
            assert (p * q).eval_x(xv).subs(lv) == p.eval_x(xv).subs(lv) * q.eval_x(xv).subs(lv)
            assert (p + q).eval_x(xv).subs(lv) == p.eval_x(xv).subs(lv) + q.eval_x(xv).subs(lv)
            assert (p - q).eval_x(xv).subs(lv) == p.eval_x(xv).subs(lv) - q.eval_x(xv).subs(lv)
        # a rational point is summed by the kernel: the terms' sum, at primitive content
        for xv in (random_fraction(rng, 9), rng.randint(-6, 6), *_ZERO_ONE_POINTS):
            value = p.eval_x(xv)
            assert value == sum((c * xv**i for i, c in enumerate(p.coeffs)), LambdaPoly.zero())
            assert is_primitive(value)


def test_xpoly_shift_then_eval():
    rng = random.Random(67)
    for _ in range(100):
        p = random_xpoly(rng, 6, True, 20)
        c = random_fraction(rng, 7)
        xv, lv = random_fraction(rng, 7), random_fraction(rng, 7)
        assert p.shift(c).eval_x(xv).subs(lv) == p.eval_x(xv + c).subs(lv)


# an int, a Fraction, l, a rational times a power of l, and any other LambdaPoly
_SHIFTS = st.one_of(
    st.integers(-6, 6),
    SMALL_FRACTIONS,
    st.just(LAMBDA),
    st.builds(LambdaPoly.monomial, st.integers(0, 3), SMALL_FRACTIONS),
    SMALL_LAMBDA_POLYS,
)


@settings(max_examples=150, deadline=None)
@given(small_xpolys(9), _SHIFTS)
def test_shift_matches_the_taylor_terms_at_primitive_content(p, c):
    shifted = p.shift(c)
    assert shifted == taylor_shift(p, c)
    assert all_primitive(shifted)


def test_xpoly_derivative_antiderivative_inverse():
    rng = random.Random(71)
    for _ in range(100):
        p = random_xpoly(rng, 8, True, 20)
        assert p.antiderivative().derivative() == p


def test_xpoly_divexact():
    p = XPoly([LAMBDA, LambdaPoly({2: 3})])
    assert p.divexact(1) == XPoly([LambdaPoly.one(), LambdaPoly({1: 3})])
    with pytest.raises(ExactDivisionError):
        XPoly([LambdaPoly.one()]).divexact(1)
    # k is checked before any coefficient, so also on the zero polynomial
    for q in (p, XPoly.zero()):
        with pytest.raises(ValueError, match="^k must be a non-negative integer, got -1$"):
            q.divexact(-1)


# -- packed rows ------------------------------------------------------------------


@pytest.mark.parametrize("width", [2, 3, 8, 64, 97])
def test_packed_rows_round_trip_at_the_slot_bounds(monkeypatch, width):
    edge = (1 << (width - 1)) - 1  # the largest slot magnitude a width-bit slot holds
    rows = [
        [],
        [edge],
        [-edge],
        [edge, -edge, edge],
        [-edge, -edge, -edge],
        [edge, 0, 0, -edge],
        [0, 0, -edge],
        [-edge, edge],
        [1, -1, 0, 1, -1],
        # the least top slot over the widest lower slots of the other sign: the
        # fewest bits for a slot count, where _slots' bound on its passes is tight
        [-edge, -edge, 1],
        [edge, edge, -1],
    ]
    for row in rows:  # none ends in a zero slot, so each comes back as it is
        assert _slots(sum(c << (width * e) for e, c in enumerate(row)), width) == row
    # _packed_sums picks the narrowest width whose slots hold max|numerator| * l1:
    # each poly by itself, at l1 = 1, comes back through width-bit slots
    widths = []
    monkeypatch.setattr(core, "_slots", lambda v, w: widths.append(w) or _slots(v, w))
    polys = [LambdaPoly._make(list(row), 6) for row in rows]
    identity = _packed_plan([[(i, 1)] for i in range(len(polys))], [(1, [(i, 1)]) for i in range(len(polys))])
    assert identity.l1 == 1
    assert _packed_sums(polys, identity) == polys
    assert set(widths) == {width}


def test_unpack_raises_when_a_slot_does_not_fit_the_width():
    # at width 1 the slot 1 reads as -1 and borrows v back to 1; an unbounded
    # loop would spin here and grow its list until memory runs out
    def hang(signum, frame):
        raise TimeoutError("_slots(1, 1) did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(ArithmeticError, match="does not fit 1 bits"):
            _slots(1, 1)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_packed_sums_match_the_sums_over_q_l():
    rng = random.Random(71)

    def weight():
        return rng.choice([rng.randint(-(10**6), 10**6), rng.choice([-1, 1]) << rng.randint(0, 90)])

    for _ in range(200):
        polys = [random_lambda_poly(rng, 4, 10**9) for _ in range(5)]
        rows = [[(rng.randrange(5), weight()) for _ in range(rng.randint(0, 4))] for _ in range(4)]
        sums = [
            (rng.randint(1, 10**4), [(rng.randrange(4), weight()) for _ in range(rng.randint(0, 5))])
            for _ in range(3)
        ]
        plan = _packed_plan(rows, sums)
        hash(plan)  # immutable all the way down, so one plan serves every caller
        # one plan over inputs of different sizes: each call picks its own width
        for scale in (1, rng.choice([-1, 1]) << rng.randint(1, 100)):
            polys = [q * scale for q in polys]
            w = [sum((polys[i] * c for i, c in row), LambdaPoly.zero()) for row in rows]
            expected = [
                sum((w[j] * s * LAMBDA**e for e, (j, s) in enumerate(terms)), LambdaPoly.zero()) / d
                for d, terms in sums
            ]
            assert _packed_sums(polys, plan) == expected
    assert _packed_sums(polys, _packed_plan(rows, [])) == []


def test_packed_sums_of_zero_inputs_are_zero():
    zero = LambdaPoly.zero()
    plan = _packed_plan([[(0, 3)], [(0, -1), (1, 2)]], [(1, [(0, 1), (1, 5)]), (7, [(1, 1)])])
    assert _packed_sums([zero, zero], plan) == [zero, zero]
    assert _packed_sums([], _packed_plan([[]], [(1, [(0, 1)])])) == [zero]
    # rows that sum no poly: every output is zero, whatever the polys
    empty = _packed_plan([[], []], [(1, [(0, 1), (1, -4)]), (3, [])])
    assert empty.l1 == 0
    assert _packed_sums([LambdaPoly({0: 5, 2: Fraction(-3, 7)}), zero], empty) == [zero, zero]


def test_packed_products_match_the_products_over_q_l():
    # the connection sums d_i = sum_(k>=i) C(k,i) x_(k-i) y_k against plain LambdaPoly sums
    rng = random.Random(83)

    def poly():
        kind = rng.random()
        if kind < 0.2:
            return LambdaPoly.zero()
        if kind < 0.45:  # an l-monomial, packed as one small int
            return LambdaPoly.monomial(rng.randint(0, 6), random_fraction(rng, 10**40) or 1)
        return random_lambda_poly(rng, 6, rng.choice([10**3, 10**12, 10**40]))

    for _ in range(150):
        n = rng.choice([0, 1, 2, rng.randint(3, 12)])
        xs, ys = [poly() for _ in range(n + 1)], [poly() for _ in range(n + 1)]
        expected = [
            sum((xs[k - i] * ys[k] * math.comb(k, i) for k in range(i, n + 1)), LambdaPoly.zero()) for i in range(n + 1)
        ]
        assert expected == [_dot((xs[k - i], ys[k] * math.comb(k, i)) for k in range(i, n + 1)) for i in range(n + 1)]
        rows, den = _packed_products(_product_side(xs), ys)
        # int rows with no trailing zero, over the product of the two sides' lcm denominators
        assert den == math.lcm(*(x._den for x in xs)) * math.lcm(*(y._den for y in ys))
        assert all(all(type(c) is int for c in row) and (not row or row[-1]) for row in rows)
        assert [LambdaPoly._make(row, den) for row in rows] == expected
    zero = LambdaPoly.zero()
    assert _packed_products(_product_side([zero, zero]), [zero, zero]) == ([[], []], 1)


# -- products over Q[l], each coefficient one kernel dot product -----------------------


def _dense_lambda_poly(rng, degree):
    """Every l-term from l^0 to l^degree nonzero, of either sign, over shared denominators."""
    terms = {}
    for e in range(degree + 1):
        terms[e] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 720))
    return LambdaPoly(terms)


def _dense_coeffs(rng, size):
    """size coefficients, about one in five of them zero."""
    return [
        _dense_lambda_poly(rng, rng.randint(0, 5)) if rng.random() < 0.8 else LambdaPoly.zero()
        for _ in range(size)
    ]


def _product_by_terms(a, b, size):
    """Coefficients 0..size-1 of the product as {exponent: Fraction} dicts, term by term."""
    out = [{} for _ in range(size)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < size:
                out[i + j] = terms_add(out[i + j], terms_mul(dict(x.items()), dict(y.items())))
    return out


def test_products_over_q_l_match_the_terms():
    rng = random.Random(83)
    for _ in range(60):
        a, b = _dense_coeffs(rng, rng.randint(0, 8)), _dense_coeffs(rng, rng.randint(0, 8))
        product = XPoly(a) * XPoly(b)
        expected = _product_by_terms(a, b, len(a) + len(b) - 1)
        while expected and not expected[-1]:
            expected.pop()
        assert [dict(c.items()) for c in product.coeffs] == expected
        assert all_primitive(product)
        order = rng.randint(0, 8)
        a, b = _dense_coeffs(rng, order + 1), _dense_coeffs(rng, order + 1)
        series = TruncSeries(LambdaPoly, order, a) * TruncSeries(LambdaPoly, order, b)
        assert [dict(c.items()) for c in series.coeffs] == _product_by_terms(a, b, order + 1)
        assert all(is_primitive(c) for c in series.coeffs)


# -- TruncSeries --------------------------------------------------------------------


def _lp_series(coeffs, order):
    return TruncSeries(LambdaPoly, order, [LambdaPoly.const(c) for c in coeffs])


def test_series_inverse_geometric():
    inv = _lp_series([1, 1], 3).inverse()
    assert inv == _lp_series([1, -1, 1, -1], 3)


def test_series_inverse_identity():
    one = TruncSeries.one(LambdaPoly, 5)
    assert one.inverse() == one


def test_series_inverse_exponential_against_newton_oracle():
    # oracle first: invert 1 + t + t^2/2 + t^3/6 by Newton iteration on lists
    coeffs = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    oracle = newton_inverse(coeffs, 3)
    assert oracle == [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 6)]
    assert _lp_series(coeffs, 3).inverse() == _lp_series(oracle, 3)


def test_series_inverse_requires_unit():
    with pytest.raises(ValueError):
        TruncSeries(LambdaPoly, 2, [LAMBDA, LambdaPoly.one()]).inverse()
    with pytest.raises(ValueError):
        TruncSeries(LambdaPoly, 2, [LambdaPoly.zero()]).inverse()


def test_series_pow_binomial():
    assert _lp_series([1, 1], 2) ** 2 == _lp_series([1, 2, 1], 2)


def test_series_pow_zero_exponent():
    f = _lp_series([5, 7], 4)
    assert f**0 == TruncSeries.one(LambdaPoly, 4)


def test_series_pow_order2_bernoulli_against_list_oracle():
    # (t/(e^t-1))^2: invert [1, 1/2, 1/6] by the oracle, square on lists
    base = [Fraction(1), Fraction(1, 2), Fraction(1, 6)]
    inv = newton_inverse(base, 2)
    squared = list_mul(inv, inv, 2)
    assert squared[2] == Fraction(5, 12)  # so the second order-2 number is 2!*5/12 = 5/6
    ours = _lp_series(base, 2).inverse() ** 2
    assert ours == _lp_series(squared, 2)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        min_size=1,
        max_size=17,
    ).filter(lambda cs: cs[0] != 0)
)
def test_series_inverse_times_self_is_one(coeffs):
    order = len(coeffs) - 1
    f = _lp_series(coeffs, order)
    assert f * f.inverse() == TruncSeries.one(LambdaPoly, order)


def test_series_order_bounds_enforced():
    f = _lp_series([1, 2, 3], 2)
    with pytest.raises(IndexError):
        f.coeff(3)
    g = _lp_series([1], 4)
    with pytest.raises(ValueError):
        _ = f * g  # order mismatch
    with pytest.raises(ValueError):
        TruncSeries(LambdaPoly, 1, [1, 2, 3])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: XPoly.monomial(True), "x-exponent"),
        (lambda: XPoly.x() ** True, "exponent"),
        (lambda: LambdaPoly({True: 1}), "l-exponent"),
        (lambda: LambdaPoly.monomial(True), "l-exponent"),
        (lambda: LAMBDA.divexact(True), "k"),
        (lambda: XPoly.zero().divexact(True), "k"),
        (lambda: XPoly.x().derivative(True), "derivative order"),
        (lambda: TruncSeries(LambdaPoly, True, [1]), "truncation order"),
        (lambda: harmonic(True), "harmonic()"),
    ],
    ids=[
        "x-monomial", "pow", "LambdaPoly", "l-monomial", "divexact", "x-divexact", "derivative", "TruncSeries", "harmonic"
    ],
)
def test_a_bool_is_no_index_exponent_or_order(call, name):
    # True == 1 and hashes as 1, so an int check alone would take it as 1
    need = "(must be a non-negative|needs a positive) integer"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {need}, got True$"):
        call()


def test_series_over_xpoly_ring():
    x = XPoly.x()
    f = TruncSeries(XPoly, 2, [XPoly.one(), x])
    g = f * f
    assert g.coeff(1) == x * 2
    assert g.coeff(2) == x * x
    assert f.inverse().coeff(2) == x * x


def test_immutability_of_arithmetic():
    p = LambdaPoly({1: 1})
    q = p + p
    assert p == LAMBDA and q == LambdaPoly({1: 2})
    a = XPoly([p])
    b = a * 3
    assert a.coeff(0) == LAMBDA and b.coeff(0) == LambdaPoly({1: 3})


# -- canonical form and scalar types of both polynomial classes --------------------


@pytest.mark.parametrize(
    "draw",
    [lambda rng: random_lambda_poly(rng, 6, 50), lambda rng: random_xpoly(rng, 6, True, 50)],
    ids=["LambdaPoly", "XPoly"],
)
def test_sums_keep_one_canonical_form(draw):
    rng = random.Random(41)
    for _ in range(300):
        p, r = draw(rng), draw(rng)
        # with q = r - p, the sum p + q = r cancels the leading terms of p
        for q in (draw(rng), r - p):
            back = (p + q) - q
            assert back == p and hash(back) == hash(p) and back.degree == p.degree
        total = p + (r - p)
        assert total == r and hash(total) == hash(r) and total.degree == r.degree
        assert (p - p).is_zero and (p - p).degree == float("-inf")
        if isinstance(p, LambdaPoly):
            assert LambdaPoly(dict(p.items())) == p


_SCALARS = st.integers(-60, 60) | SMALL_FRACTIONS


@settings(max_examples=150, deadline=None)
@given(st.booleans(), st.randoms(use_true_random=False), _SCALARS)
def test_subtraction_is_the_sum_with_the_negation(lambda_poly, rng, s):
    def draw():
        return random_lambda_poly(rng, 4, 50) if lambda_poly else random_xpoly(rng, 5, True, 50)

    def primitive(value):
        return is_primitive(value) if lambda_poly else all_primitive(value)

    p, q = draw(), draw()
    scalars = [s] if lambda_poly else [s, random_lambda_poly(rng, 3, 50)]
    # scalars on either side, and q = p + s, whose coefficients mostly equal p's
    for a, b in [(p, q), (p, p + s), (p, p), *((p, c) for c in scalars), *((c, p) for c in scalars)]:
        diff = a - b
        assert diff == a + (-b) and primitive(diff)
    assert (p - p).is_zero and (p - p).degree == float("-inf")
    assert -(-p) == p and hash(-(-p)) == hash(p) and primitive(-p)


def test_subtraction_reads_the_denominators():
    x, half = XPoly.x(), Fraction(1, 2)
    assert 1 - x == XPoly([1, -1])
    assert x - half == XPoly([-half, 1]) and half - x == XPoly([half, -1])
    assert LAMBDA - 3 == LambdaPoly({0: -3, 1: 1}) and 3 - LAMBDA == LambdaPoly({0: 3, 1: -1})
    # equal numerators over different denominators: 1/2 - 1/3, not 0
    assert LambdaPoly.const(half) - LambdaPoly.const(Fraction(1, 3)) == LambdaPoly.const(Fraction(1, 6))
    assert XPoly([half, 1]) - XPoly([Fraction(1, 3), 1]) == XPoly([Fraction(1, 6)])


def test_floats_are_rejected():
    attempts = [
        lambda: LambdaPoly({0: 0.5}),
        lambda: LambdaPoly({0: 1, 3: 0.5}),
        lambda: XPoly([0.5]),
        lambda: XPoly([1, 0.5]),
        lambda: LambdaPoly.const(0.5),
        lambda: XPoly.const(0.5),
    ]
    for p in (LambdaPoly({0: 1, 2: 3}), XPoly([1, LAMBDA])):
        attempts += [
            lambda p=p: p + 0.5,
            lambda p=p: 0.5 + p,
            lambda p=p: p * 0.5,
            lambda p=p: 0.5 * p,
            lambda p=p: p / 0.5,
        ]
    for attempt in attempts:
        with pytest.raises(TypeError):
            attempt()
