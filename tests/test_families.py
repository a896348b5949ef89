import inspect
import random
import re
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache
from math import comb, perm

import pytest

import degbern.core as core
import degbern.families as families
from degbern.core import LAMBDA, LambdaPoly, XPoly, clear_caches
from degbern.expansion import expand
from degbern.families import (
    FamilyTable,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_order,
    deg_bernoulli,
    deg_bernoulli_order,
    deg_falling,
    euler_number,
    euler_poly,
    genocchi_number,
    genocchi_poly,
    harmonic,
    scaled_bernoulli,
    stirling2,
)
from degbern.parser import parse_poly
from degbern.umbral import apply, delta_op, forward_diff, scaled_bernoulli_op, unit_integral_op
from helpers import (
    all_primitive,
    miller_deg_numbers,
    partition_count,
    record_grows,
    scaled_member,
    series_family,
    series_stirling2,
)

HALF = Fraction(1, 2)

BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}

EULER = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    3: Fraction(1, 4),
    5: Fraction(-1, 2),
    7: Fraction(17, 8),
    9: Fraction(-31, 2),  # derived from the generating function
}

GENOCCHI = {
    0: Fraction(0),
    1: Fraction(1),
    2: Fraction(-1),
    4: Fraction(1),
    6: Fraction(-3),
    8: Fraction(17),
    10: Fraction(-155),
    12: Fraction(2073),
}


def test_bernoulli_numbers():
    for n, value in BERNOULLI.items():
        assert bernoulli_number(n) == value
    for k in range(1, 6):
        assert bernoulli_number(2 * k + 1) == 0


def test_euler_numbers():
    for n, value in EULER.items():
        assert euler_number(n) == value
    for k in range(1, 6):
        assert euler_number(2 * k) == 0


def test_genocchi_numbers():
    for n, value in GENOCCHI.items():
        assert genocchi_number(n) == value
    for k in range(1, 6):
        assert genocchi_number(2 * k + 1) == 0


def test_bernoulli_poly_smallest():
    assert bernoulli_poly(0) == XPoly.one()
    assert bernoulli_poly(1) == XPoly([Fraction(-1, 2), 1])


def test_bernoulli_poly_binomial_formula():
    for n in range(9):
        expected = XPoly.zero()
        for j in range(n + 1):
            expected = expected + XPoly.monomial(j, comb(n, j) * bernoulli_number(n - j))
        assert bernoulli_poly(n) == expected


def test_bernoulli_poly_derivative_rule():
    for n in range(1, 11):
        assert bernoulli_poly(n).derivative() == bernoulli_poly(n - 1) * n


def test_bernoulli_poly_order_edges():
    for n in range(6):
        assert bernoulli_poly_order(n, 0) == XPoly.monomial(n)
        assert bernoulli_poly_order(n, 1) == bernoulli_poly(n)


def test_bernoulli_poly_order2_value():
    assert bernoulli_poly_order(2, 2).eval_x(0) == Fraction(5, 6)


def test_deg_falling_small():
    assert deg_falling(0) == XPoly.one()
    assert deg_falling(1) == XPoly.x()
    assert deg_falling(2) == XPoly([0, -LAMBDA, LambdaPoly.one()])


def test_deg_falling_product_structure():
    # matches the binomial-series coefficients of (1+lt)^{x/l}
    for n in range(1, 9):
        assert deg_falling(n) == deg_falling(n - 1) * XPoly([-LAMBDA * (n - 1), 1])


def test_deg_falling_rows_grown_from_threads_match_the_product():
    # concurrent growth of the Stirling-number rows publishes complete rows only
    expected = [XPoly.one()]
    for n in range(1, 33):
        expected.append(expected[-1] * XPoly([-LAMBDA * (n - 1), 1]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for seed in range(20):  # each round grows the rows from scratch
                plan = list(range(33)) * 2
                random.Random(seed).shuffle(plan)
                clear_caches()
                got = list(pool.map(deg_falling, plan, timeout=60))
                assert all(p == expected[n] for n, p in zip(plan, got)), seed
    finally:
        sys.setswitchinterval(interval)


def test_deg_falling_classical_limit():
    for n in range(13):
        assert deg_falling(n).subs_lambda(0) == XPoly.monomial(n)


def _dict_mul(a, b):
    # independent l-polynomial arithmetic on {exp: Fraction} dicts
    res = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            res[ea + eb] = res.get(ea + eb, Fraction(0)) + ca * cb
    return {e: c for e, c in res.items() if c}


def test_deg_bernoulli_first_value_against_triangular_oracle():
    # oracle: invert 1 + (1-l)/2 t + ... by the triangular recurrence
    # b_0 = 1, b_1 = -a_1 done with plain dict arithmetic
    a1 = _dict_mul({0: Fraction(1), 1: Fraction(-1)}, {0: Fraction(1, 2)})
    b1 = {e: -c for e, c in a1.items()}
    assert b1 == {0: Fraction(-1, 2), 1: Fraction(1, 2)}
    assert deg_bernoulli(1).eval_x(0) == LambdaPoly(b1)


def test_deg_bernoulli_zeroth():
    assert deg_bernoulli(0) == XPoly.one()


def test_deg_bernoulli_classical_limit():
    for n in range(13):
        assert deg_bernoulli(n).subs_lambda(0) == bernoulli_poly(n)


def test_deg_bernoulli_order_classical_limit():
    for r in range(5):
        for n in range(13):
            assert deg_bernoulli_order(n, r).subs_lambda(0) == bernoulli_poly_order(n, r)


def test_scaled_bernoulli_classical_limit():
    # only the top term of l^n B_n^(a)(x/l) survives at l = 0
    for a in range(4):
        for n in range(13):
            assert scaled_bernoulli(n, a).subs_lambda(0) == XPoly.monomial(n)


def test_deg_bernoulli_order_edges():
    for n in range(7):
        assert deg_bernoulli_order(n, 0) == deg_falling(n)
        assert deg_bernoulli_order(n, 1) == deg_bernoulli(n)


def test_deg_bernoulli_order_difference_lowers_order():
    for r in range(1, 7):
        for n in range(1, 7):
            lhs = forward_diff(deg_bernoulli_order(n, r), 1, 1)
            assert lhs == deg_bernoulli_order(n - 1, r - 1) * n


def test_second_kind_numbers_match_the_series_oracle():
    # b_j^(r) = j! [t^j] (t/log(1+t))^r, the oracle's member j at x = 0
    table = FamilyTable()
    for r in range(9):
        key = ("bernoulli2_r", r)
        assert table.numbers(key, 20)[:21] == [p.eval_x(0) for p in series_family(key, 20)], r


def test_second_kind_sums_collapse_for_m_at_least_r():
    # sum_j C(N,j) b_j^(r) s(N-j,m) = perm(N,r)/perm(m,r) s(N-r,m-r) for m >= r,
    # as (t/u)^r u^m = t^r u^(m-r) with u = log(1+lt)/l; in ints over b's lcm den
    rows = core._stirling1_rows(30)
    for r in range(9):
        b, den = families._over_lcm([c.as_rational() for c in FamilyTable().numbers(("bernoulli2_r", r), 30)[:31]])
        for n in range(r, 31):
            for m in range(r, n + 1):
                lhs = sum(comb(n, j) * b[j] * rows[n - j][m] for j in range(n - m + 1))
                assert lhs * perm(m, r) == perm(n, r) * rows[n - r][m - r] * den, (r, n, m)


@pytest.mark.parametrize("r, n", [*((r, 24) for r in range(9)), (16, 64), (64, 64)])
def test_deg_numbers_closed_form_matches_the_q_l_recurrence(r, n):
    assert FamilyTable().numbers(("deg_bernoulli_r", r), n)[: n + 1] == miller_deg_numbers(r, n)


def test_scaled_bernoulli_edges():
    for n in range(6):
        assert scaled_bernoulli(n, 0) == XPoly.monomial(n)
    assert scaled_bernoulli(1, 1) == XPoly([-LAMBDA * HALF, 1])


def test_scaled_bernoulli_collapses_at_l_equal_1():
    for n in range(9):
        assert scaled_bernoulli(n, 1).subs_lambda(1) == bernoulli_poly(n)
    for n in range(7):
        assert scaled_bernoulli(n, 2).subs_lambda(1) == bernoulli_poly_order(n, 2)


def test_scaled_bernoulli_is_the_operator_image_of_monomials():
    op = scaled_bernoulli_op(LAMBDA)
    for n in range(7):
        assert apply(op, XPoly.monomial(n)) == scaled_bernoulli(n, 1)


def test_scaled_bernoulli_is_the_l_shift_of_the_order_a_member():
    for a in range(9):
        for n in range(25):
            value = scaled_bernoulli(n, a)
            assert value == scaled_member(n, a) and all_primitive(value), (n, a)


def test_a_cold_scaled_bernoulli_reads_numbers_and_builds_no_member(monkeypatch):
    # each call reads the order-a numbers afresh; a cleared table is grown again
    for _ in range(2):
        grown = record_grows(monkeypatch)
        value = scaled_bernoulli(9, 2)
        assert value == scaled_bernoulli(9, 2)
        assert grown == [("bernoulli_r", 2)] and families._member.cache_info().currsize == 0
        assert value.subs_lambda(1) == bernoulli_poly_order(9, 2)


def test_genocchi_degree_anomaly():
    assert genocchi_poly(0).is_zero
    for n in range(1, 10):
        assert genocchi_poly(n).degree == n - 1


def test_genocchi_derivative_rule():
    for n in range(2, 10):
        assert genocchi_poly(n).derivative() == genocchi_poly(n - 1) * n


def test_stirling2_diagonal_and_empty():
    for n in range(8):
        assert stirling2(n, n) == 1
    for n in range(1, 8):
        assert stirling2(n, 0) == 0
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0


def test_stirling2_against_partition_enumeration():
    assert partition_count(4, 2) == 7
    assert stirling2(4, 2) == 7
    for n in range(7):
        for k in range(n + 1):
            assert stirling2(n, k) == partition_count(n, k)


def test_stirling2_against_series_power_and_triangle():
    rows = core._stirling2_rows(20)  # the int rows the expansion routes read
    for n in range(21):
        assert len(rows[n]) == n + 1
        for k in range(n + 2):
            assert stirling2(n, k) == series_stirling2(n, k)
            if k <= n:
                assert rows[n][k] == stirling2(n, k)
            if n and k:
                assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_stirling2_past_the_diagonal_is_zero_at_once():
    stirling2.cache_clear()
    start = time.perf_counter()
    assert stirling2(3, 10**6) == 0
    assert time.perf_counter() - start < 1


def test_stirling2_large_n_on_cold_cache():
    stirling2.cache_clear()  # a cold cache is what used to recurse and take minutes
    value = stirling2(1200, 3)
    assert isinstance(value, Fraction)
    assert value == Fraction(3**1200 - 3 * 2**1200 + 3, 6)


def test_harmonic_values():
    assert harmonic(1) == 1
    assert harmonic(2) == Fraction(3, 2)
    assert harmonic(4) == Fraction(25, 12)


def test_harmonic_large_n_without_recursion():
    harmonic.cache_clear()  # a cold cache is what used to recurse n deep
    assert harmonic(3000) - harmonic(2999) == Fraction(1, 3000)


def test_number_memos_are_bounded_and_clearable():
    for memo, call in ((stirling2, lambda i: stirling2(i, 1)), (harmonic, lambda i: harmonic(i + 1))):
        memo.cache_clear()
        bound = memo.cache_info().maxsize
        for i in range(bound + 10):
            call(i)
        info = memo.cache_info()
        assert info.currsize == bound
        memo.cache_clear()
        assert memo.cache_info().currsize == 0


def test_harmonic_rejects_zero():
    with pytest.raises(ValueError):
        harmonic(0)


def test_cached_families_check_their_arguments_on_every_call():
    # an int argument's cached value is not returned for an equal float
    assert scaled_bernoulli(2, 1) and stirling2(3, 1) == 1 and harmonic(2) == Fraction(3, 2)
    with pytest.raises(ValueError, match="n must be a non-negative integer, got 2.0"):
        scaled_bernoulli(2.0, 1)
    with pytest.raises(ValueError, match="a must be a non-negative integer, got 1.0"):
        scaled_bernoulli(2, 1.0)
    with pytest.raises(ValueError, match="n must be a non-negative integer, got 3.0"):
        stirling2(3.0, 1)
    with pytest.raises(ValueError, match="needs a positive integer, got 2.0"):
        harmonic(2.0)


_INDEXED = sorted(set(families.__all__) - {"FamilyTable"})


@pytest.mark.parametrize("name", _INDEXED)
def test_an_unhashable_index_is_a_value_error_before_any_cache(name):
    # a cached family checks its index before the lookup, which would raise
    # TypeError (unhashable) first; each index in turn, the others valid
    fn = getattr(families, name)
    arity = len(inspect.signature(fn).parameters)
    for at in range(arity):
        args = [3] * arity
        args[at] = [1]
        with pytest.raises(ValueError, match=re.escape("integer, got [1]")):
            fn(*args)


# -- structural identities of the degenerate family ------------------------------


def test_unit_jump_is_kronecker_delta():
    for n in range(13):
        jump = deg_bernoulli(n).eval_x(1) - deg_bernoulli(n).eval_x(0)
        assert jump == (LambdaPoly.one() if n == 1 else LambdaPoly.zero())


def test_unit_difference_gives_falling_factorial():
    for n in range(1, 13):
        diff = deg_bernoulli(n).shift(1) - deg_bernoulli(n)
        assert diff == deg_falling(n - 1) * n


def test_delta_operator_lowers_degree():
    f = delta_op(LAMBDA)
    for n in range(1, 11):
        assert apply(f, deg_bernoulli(n)) == deg_bernoulli(n - 1) * n


def test_smoothing_operator_lowers_order():
    g = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    for r in range(1, 5):
        for n in range(9):
            assert apply(g, deg_bernoulli_order(n, r)) == deg_bernoulli_order(n, r - 1)


def test_addition_formula_at_rational_second_argument():
    for y in (Fraction(1, 2), Fraction(-2), Fraction(3, 5)):
        for n in range(9):
            lhs = deg_bernoulli(n).shift(y)
            rhs = XPoly.zero()
            for j in range(n + 1):
                rhs = rhs + deg_bernoulli(j) * (
                    deg_falling(n - j).eval_x(y) * comb(n, j)
                )
            assert lhs == rhs


def test_family_table_concurrent_reads():
    # threads reading one cold key all get the one list it publishes, and threads
    # reading one cold member all get the serial member
    table = FamilyTable()
    key = ("deg_bernoulli_r", 1)
    clear_caches()
    with ThreadPoolExecutor(max_workers=8) as pool:
        numbers = list(pool.map(lambda _: table.numbers(key, 10), range(16)))
        members = list(pool.map(lambda _: deg_bernoulli(10), range(16)))
    assert all(c is numbers[0] for c in numbers)
    assert numbers[0][:11] == FamilyTable().numbers(key, 10)[:11]
    assert all(p == members[0] for p in members)
    assert members[0] == _oracle(key)[10]


def test_family_table_append_only_growth():
    table = FamilyTable()
    key = ("deg_bernoulli_r", 0)
    first = table.numbers(key, 3)
    grown = table.numbers(key, 6)
    assert table.numbers(key, 3) is grown
    # growth replaced the list, it did not extend it, and kept each number it had
    assert len(first) == 4 and len(grown) == 7
    assert all(a is b for a, b in zip(first, grown))
    # a cached member is the one built, and member n of the order-0 key is (x)_{n,l}
    member = deg_bernoulli_order(3, 0)
    assert deg_bernoulli_order(6, 0) == deg_falling(6)
    assert deg_bernoulli_order(3, 0) is member


# -- family tables against the generating-series oracle -----------------------------

ORACLE_N = 24
ORACLE_KEYS = (
    [("bernoulli_r", r) for r in range(4)]
    + [("bernoulli2_r", r) for r in range(4)]
    + [("deg_bernoulli_r", r) for r in range(4)]
    + [("euler", 1)]
)


@lru_cache(maxsize=None)
def _oracle(key: tuple) -> tuple[XPoly, ...]:
    return tuple(series_family(key, ORACLE_N))


def _requests(order: str) -> list[tuple[tuple, int]]:
    ns = range(ORACLE_N + 1)
    if order == "descending":
        return [(key, n) for key in ORACLE_KEYS for n in reversed(ns)]
    requests = [(key, n) for key in ORACLE_KEYS for n in ns]
    if order == "shuffled":
        random.Random(20261018).shuffle(requests)
    return requests


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_family_table_matches_series_oracle(order):
    # the numbers of a fresh table, then the members built from cold caches, each
    # in the same request order: the bernoulli2_r members have no public function
    table = FamilyTable()
    for key, n in _requests(order):
        assert table.numbers(key, n)[n] == _oracle(key)[n].coeff(0), (key, n)
    clear_caches()
    for key, n in _requests(order):
        assert families._member(*key, n) == _oracle(key)[n], (key, n)


def test_public_families_match_series_oracle():
    # the derived families included: deg_falling is order-0 degenerate
    # Bernoulli and genocchi_poly is n E_{n-1}, neither a table kind
    public = [
        (bernoulli_poly, ("bernoulli_r", 1)),
        (euler_poly, ("euler", 1)),
        (deg_bernoulli, ("deg_bernoulli_r", 1)),
        (deg_falling, ("deg_falling",)),
        (genocchi_poly, ("genocchi",)),
    ]
    public += [(lambda n, r=r: bernoulli_poly_order(n, r), ("bernoulli_r", r)) for r in range(4)]
    public += [(lambda n, r=r: deg_bernoulli_order(n, r), ("deg_bernoulli_r", r)) for r in range(4)]
    public += [(lambda n, a=a: scaled_bernoulli(n, a), ("scaled_bernoulli", a)) for a in range(4)]
    for fn, key in public:
        for n in range(ORACLE_N + 1):
            assert fn(n) == _oracle(key)[n], (key, n)
    for number, key in ((bernoulli_number, ("bernoulli_r", 1)), (euler_number, ("euler", 1)), (genocchi_number, ("genocchi",))):
        for n in range(ORACLE_N + 1):
            assert number(n) == _oracle(key)[n].coeff(0).as_rational(), (key, n)


def test_family_table_rejects_unknown_family():
    # the derived families and a key without its order are not table keys
    for key in [("fibonacci",), ("fibonacci", 1), ("deg_falling",), ("genocchi",), ("scaled_bernoulli", 1), ("euler",)]:
        with pytest.raises(ValueError, match="unknown family"):
            FamilyTable().numbers(key, 3)
    for kind in ("fibonacci", "deg_falling", "genocchi", "scaled_bernoulli"):
        with pytest.raises(ValueError, match="unknown family"):
            families._member(kind, 1, 3)


def test_family_table_checks_the_index_and_the_order():
    # n is checked on a grown table and past cached members as on empty ones,
    # before any read; an order that is not a non-negative int is refused before
    # anything is built. A bool is neither: True == 1 and hashes as 1
    def member(key, n):
        return families._member(*key, n)

    clear_caches()
    grown = FamilyTable()
    grown.numbers(("bernoulli_r", 1), 5)
    for n in range(6):
        member(("bernoulli_r", 1), n)
    for read in (grown.numbers, FamilyTable().numbers, member):
        for n in (-1, 2.0, True, False):
            with pytest.raises(ValueError, match=re.escape(f"n must be a non-negative integer, got {n!r}")):
                read(("bernoulli_r", 1), n)
    for order in (-1, 1.5, True, False):
        for kind in ("bernoulli_r", "deg_bernoulli_r"):
            clear_caches()
            table = FamilyTable()
            for read in (member, table.numbers):
                with pytest.raises(ValueError, match=re.escape(f"r must be a non-negative integer, got {order!r}")):
                    read((kind, order), 3)
            assert table._numbers == families._TABLE._numbers == {}
            assert families._member.cache_info().currsize == 0
    # also on a table grown for the int a bool equals, where a lookup would hit
    for order in (True, False):
        grown = FamilyTable()
        grown.numbers(("bernoulli_r", int(order)), 5)
        with pytest.raises(ValueError, match=re.escape(f"r must be a non-negative integer, got {order!r}")):
            grown.numbers(("bernoulli_r", order), 3)


def test_a_cached_member_never_answers_a_bool():
    # the member cache is typed: with (3, 1) and (1, 1) cached, an untyped cache
    # would answer (3, True) and (True, 1)
    for fn in (bernoulli_poly_order, deg_bernoulli_order):
        for n in (5, 3, 1):
            fn(n, 1)
        with pytest.raises(ValueError, match=re.escape("r must be a non-negative integer, got True")):
            fn(3, True)
        with pytest.raises(ValueError, match=re.escape("n must be a non-negative integer, got True")):
            fn(True, 1)


def test_family_table_threaded_growth_matches_serial():
    # kinds grow at once under the table's one lock, each thread reading numbers
    # and cold members of each in its own order; the degenerate key grows its two
    # sources while other threads read them directly
    keys = [("deg_bernoulli_r", 2), ("euler", 1), ("bernoulli_r", 2), ("bernoulli2_r", 2)]
    plans = []
    for seed in range(8):
        plan = [(key, n, read) for key in keys for n in range(17) for read in ("numbers", "member")]
        random.Random(seed).shuffle(plan)
        plans.append(plan)

    def reads(plan):
        return [families._numbers(*key, n)[: n + 1] if read == "numbers" else families._member(*key, n) for key, n, read in plan]

    clear_caches()
    expected = [reads(plan) for plan in plans]
    clear_caches()
    barrier = threading.Barrier(len(plans))
    results: list = [None] * len(plans)

    def worker(i: int) -> None:
        barrier.wait(timeout=30)
        results[i] = reads(plans[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(plans))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected


def test_plan_cache_threaded_expands_match_serial():
    # eight polys of one shape that no other test expands: every thread asks for
    # the same cold plans at once, and each result must be the serial one
    polys = [parse_poly(f"{c}*x^11 - {c}/7*l*x^9 + x^4 - {c}") for c in range(1, 9)]
    expected = [expand(p, 3) for p in polys]
    clear_caches()
    barrier = threading.Barrier(len(polys))
    results: list = [None] * len(polys)

    def worker(i: int) -> None:
        barrier.wait(timeout=30)
        results[i] = expand(polys[i], 3)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(polys))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == expected
