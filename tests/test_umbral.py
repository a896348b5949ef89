import random
import sys
import threading
import time
from fractions import Fraction
from math import factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbern.core import LAMBDA, LambdaPoly, XPoly, clear_caches
from degbern.expansion import _alternating, expand, reconstruct
from degbern.families import bernoulli_poly, deg_bernoulli, deg_falling, scaled_bernoulli
from degbern.identities import _ex_g_iop_lhs
from degbern.umbral import (
    OperatorSeries,
    _diff_plan,
    _integral_power,
    apply,
    delta_op,
    exp_op,
    forward_diff,
    functional,
    integral_01,
    integral_I,
    monomial_op,
    scaled_bernoulli_op,
    sequence_diff,
    umbral_compose,
    unit_integral_op,
)
from helpers import (
    SMALL_FRACTIONS,
    SMALL_LAMBDA_POLYS,
    all_primitive,
    apply_by_derivatives,
    chained_integral_I,
    compose_by_products,
    difference_by_values,
    functional_by_terms,
    is_primitive,
    member_reconstruct,
    random_fraction,
    random_lambda_poly,
    random_xpoly,
    record_grows,
    series_stirling2,
    small_xpolys,
    taylor_shift,
)


def _random_op(rng, width=5):
    coeffs = [LambdaPoly.const(random_fraction(rng, 10)) for _ in range(width)]

    def fn(k):
        return coeffs[k] if k < width else LambdaPoly.zero()

    return OperatorSeries.from_coeff_fn(fn)


def test_exp_op_is_shift():
    rng = random.Random(5)
    for _ in range(50):
        p = random_xpoly(rng, 7, True, 20)
        y = random_fraction(rng, 9)
        assert apply(exp_op(y), p) == p.shift(y)
    # symbolic steps, as forward_diff and the delta_lambda route take them
    for degree in (1, 3, 8, 16, 24):
        p = XPoly([random_lambda_poly(rng, 3, 20) for _ in range(degree)] + [LambdaPoly.const(7)])
        for y in (LAMBDA, 1 + 2 * LAMBDA, LAMBDA * Fraction(-3, 2), random_lambda_poly(rng, 2, 9)):
            assert apply(exp_op(y), p) == p.shift(y)


def test_identity_operator():
    rng = random.Random(7)
    p = random_xpoly(rng, 8, True, 20)
    one = OperatorSeries.from_coeff_fn(lambda k: 1 if k == 0 else 0)
    assert apply(one, p) == p


def test_monomial_operator_on_cube():
    assert apply(monomial_op(2), XPoly.monomial(3)) == XPoly.monomial(1) * 6


def test_functional_monomial_duality():
    for k in range(6):
        for n in range(6):
            value = functional(monomial_op(k), XPoly.monomial(n))
            expected = factorial(n) if n == k else 0
            assert value == LambdaPoly.const(expected)


def test_functional_exponential_is_evaluation():
    rng = random.Random(13)
    for _ in range(50):
        p = random_xpoly(rng, 7, True, 20)
        y = random_fraction(rng, 9)
        assert functional(exp_op(y), p) == p.eval_x(y)


def test_functional_exp_integral_is_definite_integral():
    rng = random.Random(17)
    for _ in range(50):
        p = random_xpoly(rng, 7, True, 20)
        y = random_fraction(rng, 9)
        op = OperatorSeries.from_coeff_fn(lambda k, y=y: Fraction(y) ** (k + 1) / factorial(k + 1))
        anti = p.antiderivative()
        assert functional(op, p) == anti.eval_x(y) - anti.eval_x(0)


def test_operator_composition_consistency():
    rng = random.Random(19)
    for _ in range(40):
        f, g = _random_op(rng), _random_op(rng)
        p = random_xpoly(rng, 8, True, 15)
        assert apply(f, apply(g, p)) == apply(f * g, p)


def test_functional_of_product_matches_nested_application():
    rng = random.Random(29)
    for _ in range(40):
        f, g = _random_op(rng), _random_op(rng)
        p = random_xpoly(rng, 8, True, 15)
        assert functional(f * g, p) == functional(f, apply(g, p))


def test_operator_power_and_inverse():
    rng = random.Random(31)
    f = delta_op(Fraction(1, 3))
    p = random_xpoly(rng, 6, True, 15)
    assert apply(f**2, p) == apply(f, apply(f, p))
    g = scaled_bernoulli_op(LAMBDA)
    h = g.inverse()
    assert apply(g * h, p) == p


def test_forward_diff_zeroth_is_identity():
    rng = random.Random(37)
    p = random_xpoly(rng, 6, True, 15)
    assert forward_diff(p, LAMBDA, 0) == p


def test_forward_diff_unit_step_on_degenerate_family():
    for n in range(1, 11):
        assert forward_diff(deg_bernoulli(n), 1, 1) == deg_falling(n - 1) * n


def test_forward_diff_symbolic_step_square():
    # (x+2l)^2 - 2(x+l)^2 + x^2 = 2 l^2
    value = forward_diff(XPoly.monomial(2), LAMBDA, 2)
    assert value == XPoly.const(LambdaPoly({2: 2}))


def test_forward_diff_matches_iterated_difference():
    rng = random.Random(41)
    for _ in range(30):
        p = random_xpoly(rng, 6, True, 12)
        step = LAMBDA * rng.randint(1, 3)
        iterated = p
        for _ in range(3):
            iterated = iterated.shift(step) - iterated
        assert forward_diff(p, step, 3) == iterated


_NONZERO = SMALL_FRACTIONS.filter(bool)

# the unit steps, a rational of either sign, a monomial in l with a negative
# coefficient, and a step of two or more terms; every step with l takes shift(c) - p
_STEPS = st.one_of(
    st.sampled_from([1, -1]),
    _NONZERO,
    st.builds(LambdaPoly.monomial, st.integers(0, 3), _NONZERO.map(lambda q: -abs(q))),
    st.builds(lambda a, b, e: LambdaPoly({0: a, e: b}), _NONZERO, _NONZERO, st.integers(1, 3)),
    SMALL_LAMBDA_POLYS,
)


@settings(max_examples=150, deadline=None)
@given(small_xpolys(9), _STEPS, st.integers(1, 6))
def test_forward_diff_is_the_shift_minus_p(p, c, n):
    # a rational step: one int-weighted map, the same plan for every n; a step with
    # a power of l: n passes of p(x + c) - p(x), each one shift per term of c
    reference = p
    for _ in range(n):
        reference = taylor_shift(reference, c) - reference
    diff = forward_diff(p, c, n)
    assert diff == reference
    assert all_primitive(diff)
    assert forward_diff(p, c, 1) == p.shift(c) - p


def test_forward_diff_is_the_shift_minus_p_at_the_degree_limit():
    # a dense degree-64 p, by a monomial step, one with a negative coefficient and two terms
    p = (XPoly([1, 1]) + LAMBDA) ** 64 - XPoly.monomial(17) * Fraction(2, 3)
    for c in (LAMBDA, LambdaPoly.monomial(2, Fraction(-2, 3)), LAMBDA + 1):
        diff = forward_diff(p, c, 1)
        assert diff == taylor_shift(p, c) - p
        assert all_primitive(diff)


@settings(max_examples=100, deadline=None)
@given(small_xpolys(9), _NONZERO | st.sampled_from([1, -1]), st.integers(0, 4))
def test_forward_diff_of_a_rational_step_ends_past_the_degree(p, c, extra):
    # Delta_c^0 p = p, and Delta_c^k p = 0 for every k > deg p
    assert forward_diff(p, c, 0) == p
    assert forward_diff(p, LambdaPoly.const(c), 0) == p
    top = p.degree + 1 if p else 0
    assert forward_diff(p, c, top + extra).is_zero
    if p:
        assert forward_diff(p, c, p.degree) == XPoly.const(p.leading() * factorial(p.degree) * c**p.degree)


def test_forward_diff_past_the_degree_is_zero_at_once():
    # for an l-power step as for a rational one: no 10^9 differences, no 10^9!
    p = XPoly.x() ** 3
    start = time.perf_counter()
    for step in (LAMBDA, LAMBDA * 3 + 1, 1, Fraction(2, 3)):
        assert forward_diff(p, step, 10**9).is_zero
    assert time.perf_counter() - start < 1


def test_forward_diff_keeps_one_bounded_plan_per_degree_and_order():
    # every rational step shares the plan of its (degree, order); the bound is
    # checked with every other cache's in test_caches
    clear_caches()
    x = XPoly.x()
    for k in range(4):
        for c in (1, -1, Fraction(2, 3), LambdaPoly.const(5)):
            forward_diff(x**7 + 3, c, k)
    info = _diff_plan.cache_info()
    assert info.currsize == 4 and info.misses == 4


def test_a_bool_is_no_difference_order_and_no_operator_power():
    # True == 1 and hashes as 1: it would pass an int check and key a plan of its own
    clear_caches()
    for order in (True, False):
        with pytest.raises(ValueError, match="difference order"):
            forward_diff(XPoly.x() ** 3, 1, order)
        with pytest.raises(ValueError, match="operator power"):
            delta_op(1) ** order
    assert _diff_plan.cache_info().currsize == 0


@settings(max_examples=80, deadline=None)
@given(small_xpolys(9), st.integers(0, 5))
def test_integral_power_is_the_chained_integral(p, a):
    # I^a = Delta^a A^a on polynomials: one map against a chained integral_I calls
    power = _integral_power(p, a)
    assert power == chained_integral_I(p, a)
    assert all_primitive(power)
    assert _integral_power(p, a, 6) == power * 6


def test_ex_g_iop_left_side_is_the_scaled_chained_integral():
    for n, r, a in [(0, 0, 1), (3, 1, 2), (5, 2, 5), (8, 3, 4)]:
        lhs = _ex_g_iop_lhs(n, r, a)
        assert lhs == chained_integral_I(scaled_bernoulli(n, r), a) * perm(n + a, a)
        assert all_primitive(lhs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 8), st.randoms(use_true_random=False))
def test_sequence_diff_is_the_forward_difference_at_zero(n, k, rng):
    assert sequence_diff([j**n for j in range(k + 1)], k) == factorial(k) * series_stirling2(n, k)
    p = random_xpoly(rng, 8, True, 20)
    assert sequence_diff([p.eval_x(j) for j in range(k + 1)], k) == forward_diff(p, 1, k).eval_x(0)


def test_delta_op_matches_divided_difference():
    # the exactness of the division is itself the test
    rng = random.Random(43)
    for _ in range(30):
        p = random_xpoly(rng, 7, True, 12)
        assert apply(delta_op(LAMBDA), p) == forward_diff(p, LAMBDA, 1).divexact(1)


def test_integral_I_simple_values():
    assert integral_I(XPoly.one()) == XPoly.one()
    assert integral_I(XPoly.x()) == XPoly([Fraction(1, 2), 1])


def test_integral_I_inverts_bernoulli():
    for n in range(9):
        assert integral_I(bernoulli_poly(n)) == XPoly.monomial(n)


def test_integral_I_equals_series_operator():
    rng = random.Random(47)
    op = unit_integral_op()
    for _ in range(40):
        p = random_xpoly(rng, 10, True, 12)
        assert integral_I(p) == apply(op, p)


def test_integral_01_values():
    assert integral_01(XPoly.one()) == LambdaPoly.one()
    assert integral_01(XPoly.x()) == LambdaPoly.const(Fraction(1, 2))
    assert integral_01(XPoly.monomial(2, LAMBDA)) == LAMBDA / 3


@settings(max_examples=120, deadline=None)
@given(small_xpolys(9), st.data())
def test_stirling_weighted_difference_matches_the_values(w, data):
    # k past the degree included: the difference is then 0
    k = data.draw(st.integers(0, max(w.degree, 0) + 2), label="k")
    value = _alternating(w, k)
    assert value == difference_by_values(w, k)
    assert is_primitive(value)
    if k > w.degree:
        assert value.is_zero


def _series_of(coeffs: list[LambdaPoly]) -> OperatorSeries:
    """The operator sum_k coeffs[k] t^k, zero past the list."""
    return OperatorSeries.from_coeff_fn(lambda k: coeffs[k] if k < len(coeffs) else 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(SMALL_LAMBDA_POLYS, max_size=10), small_xpolys(9))
def test_apply_matches_the_derivative_chain(coeffs, p):
    applied = apply(_series_of(coeffs), p)
    assert applied == apply_by_derivatives(_series_of(coeffs), p)
    assert all_primitive(applied)


@settings(max_examples=50, deadline=None)
@given(st.lists(SMALL_LAMBDA_POLYS, max_size=10), small_xpolys(9))
def test_functional_matches_the_term_by_term_sum(coeffs, p):
    value = functional(_series_of(coeffs), p)
    assert value == functional_by_terms(_series_of(coeffs), p)
    assert is_primitive(value)


@settings(max_examples=80, deadline=None)
@given(small_xpolys(5), st.lists(small_xpolys(5), min_size=5, max_size=5))
def test_umbral_compose_matches_a_sum_of_products(p, family):
    composed = umbral_compose(p, family.__getitem__)
    assert composed == compose_by_products(p, family.__getitem__)
    assert all_primitive(composed)


def test_umbral_compose_identity_family():
    rng = random.Random(53)
    p = random_xpoly(rng, 8, True, 12)
    assert umbral_compose(p, XPoly.monomial) == p


def test_umbral_compose_single_monomial():
    for n in range(7):
        assert umbral_compose(XPoly.monomial(n), lambda i: scaled_bernoulli(i, 1)) == (
            scaled_bernoulli(n, 1)
        )


def test_umbral_compose_grows_a_cold_table_once(monkeypatch):
    # composing with deg_bernoulli_order(k, 3) for k = 0..n reads the members
    # from the top down; on a cold table that is one grow to number n, not one
    # grow per member, and reconstruct grows the same numbers once; their two
    # order-3 sources grow first, once each
    p = XPoly.monomial(12)
    e = expand(p, 3)
    for rebuild in (member_reconstruct, reconstruct):
        grown = record_grows(monkeypatch)
        assert rebuild(e) == p
        assert grown == [("bernoulli_r", 3), ("bernoulli2_r", 3), ("deg_bernoulli_r", 3)]


def test_umbral_compose_then_integrate_gives_scaled_number():
    # composing B_n(x) with the scaled family and integrating over [0,1]
    # leaves l^n B_n
    from degbern.families import bernoulli_number

    for n in range(9):
        composed = umbral_compose(bernoulli_poly(n), lambda i: scaled_bernoulli(i, 1))
        assert integral_01(composed) == LambdaPoly.monomial(n, bernoulli_number(n))


def test_operator_series_truncation_policy():
    f = delta_op(LAMBDA)
    wide = f.series(8)
    narrow = f.series(3)
    assert narrow.order == 3
    assert wide.coeffs[:4] == narrow.coeffs


def _g_delta_ops() -> list[OperatorSeries]:
    """g^m (e^t-1)^k for m, k <= 2, over shared g and delta factors, all caches cold."""
    g = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    delta = delta_op(1)
    return [g**m * delta**k for m in (1, 2) for k in (0, 1, 2)]


def test_one_operator_read_by_threads_gives_the_serial_series():
    # eight threads read one cold operator at orders 0..32, each in its own order,
    # while its coefficient table grows under the package's lock
    serial = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    expected = {order: serial.series(order) for order in range(33)}
    shared = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    plans = [random.Random(t).sample(range(33), 33) for t in range(8)]
    results: list = [None] * len(plans)
    barrier = threading.Barrier(len(plans))

    def worker(t: int) -> None:
        barrier.wait(timeout=30)
        results[t] = {order: shared.series(order) for order in plans[t]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(plans)


def test_shared_operator_series_race_benignly():
    # operators over shared factors, each keeping its coefficients in a table:
    # racing readers of mixed degree must always get the serial answer.
    rng = random.Random(149)
    polys = [random_xpoly(rng, d, True, 20) for d in (2, 9, 4, 12, 6, 11, 3, 8)]
    jobs = [(i, j) for i in range(6) for j in range(len(polys))]
    expected = {(i, j): apply(_g_delta_ops()[i], polys[j]) for i, j in jobs}

    ops = _g_delta_ops()
    plans = [random.Random(t).sample(jobs, len(jobs)) for t in range(8)]
    results: list = [None] * len(plans)
    barrier = threading.Barrier(len(plans))

    def worker(t: int) -> None:
        barrier.wait(timeout=30)
        results[t] = {(i, j): apply(ops[i], polys[j]) for i, j in plans[t]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * len(plans)
