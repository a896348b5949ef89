import inspect
import random
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbern import cli, core, expansion, families, umbral
from degbern.core import LAMBDA, LambdaPoly, XPoly, _slots
from degbern.expansion import (
    F_ROUTES,
    G_ROUTES,
    BasisExpansion,
    RouteMismatchError,
    classical_limit,
    crosscheck,
    expand,
    expand_higher,
    expand_order1,
    reconstruct,
)
from degbern.families import (
    bernoulli_number,
    bernoulli_poly,
    deg_bernoulli,
    deg_bernoulli_order,
    genocchi_poly,
)
from degbern.identities import verify_all
from degbern.parser import max_degree_limit, parse_poly
from degbern.umbral import forward_diff
from helpers import classical_coeffs_higher, classical_coeffs_order1, member_reconstruct, random_xpoly, record_grows


def test_basis_elements_expand_to_kronecker_delta():
    for m in range(7):
        p = deg_bernoulli(m)
        for g in G_ROUTES:
            for f in F_ROUTES:
                e = expand(p, 1, g, f)
                for k in range(m + 1):
                    assert e.coeff(k) == (LambdaPoly.one() if k == m else LambdaPoly.zero())


def test_higher_basis_elements_expand_to_kronecker_delta():
    for r in range(1, 4):
        for m in range(6):
            p = deg_bernoulli_order(m, r)
            for g in G_ROUTES:
                for f in F_ROUTES:
                    e = expand(p, r, g, f)
                    for k in range(m + 1):
                        assert e.coeff(k) == (
                            LambdaPoly.one() if k == m else LambdaPoly.zero()
                        )


def test_bernoulli_poly_expansion_closed_form():
    # a_0 = l^n B_n and k! l^{k-1} a_k = n * (k-1 step-l differences of x^{n-1} at 0)
    for n in range(1, 9):
        e = expand(bernoulli_poly(n))
        assert e.coeff(0) == LambdaPoly.monomial(n, bernoulli_number(n))
        for k in range(1, n + 1):
            delta = forward_diff(XPoly.monomial(n - 1), LAMBDA, k - 1).eval_x(0)
            assert e.coeff(k) == delta.divexact(k - 1) * Fraction(n, factorial(k))


def test_classical_limit_of_square():
    e = expand(XPoly.monomial(2))
    assert classical_limit(e) == [Fraction(1, 3), Fraction(1), Fraction(1)]


def test_classical_limit_matches_derivative_integral_oracle():
    rng = random.Random(97)
    for _ in range(25):
        p = random_xpoly(rng, 10, lam_bearing=False, bound=10**4)
        assert classical_limit(expand(p)) == classical_coeffs_order1(p)


def test_classical_limit_higher_matches_two_case_oracle():
    rng = random.Random(101)
    for _ in range(12):
        p = random_xpoly(rng, 6, lam_bearing=False, bound=10**3)
        for r in range(1, 5):
            assert classical_limit(expand(p, r)) == classical_coeffs_higher(p, r)
    # r larger than the degree exercises the pure g-branch case
    p = random_xpoly(rng, 3, lam_bearing=False, bound=100)
    assert classical_limit(expand(p, 6)) == classical_coeffs_higher(p, 6)


def test_classical_limit_rejects_l_bearing_source():
    p = XPoly([LAMBDA, LambdaPoly.one()])
    with pytest.raises(ValueError):
        classical_limit(expand(p))


def test_classical_limit_needs_source():
    e = BasisExpansion(order=1, degree=0, coeffs=(LambdaPoly.one(),), routes=("x",))
    with pytest.raises(ValueError):
        classical_limit(e)


def test_reconstruct_of_zero_coefficients_is_zero():
    e = BasisExpansion(order=2, degree=1, coeffs=(LambdaPoly.zero(),) * 2, routes=("x",) * 2)
    assert reconstruct(e).is_zero


def test_reconstruct_of_unit_constant_any_order():
    for r in (1, 3, 5):
        e = BasisExpansion(order=r, degree=0, coeffs=(LambdaPoly.one(),), routes=("x",))
        assert reconstruct(e) == XPoly.one()


def test_bernoulli_constant_coefficient_vanishes_classically():
    # a_0 = l^n B_n has no constant term, so its l -> 0 value is 0
    for n in range(1, 7):
        assert classical_limit(expand(bernoulli_poly(n)))[0] == 0


def test_constant_polynomial_expansion():
    e = expand(XPoly.const(Fraction(7, 3)))
    assert e.degree == 0
    assert e.coeff(0) == LambdaPoly.const(Fraction(7, 3))
    eh = expand(XPoly.const(5), 3)
    assert eh.coeffs == (LambdaPoly.const(5),)
    assert reconstruct(eh) == XPoly.const(5)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        expand(XPoly.zero())
    with pytest.raises(ValueError):
        expand(XPoly.zero(), 2)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        expand(XPoly.one(), 0)


def test_first_route_of_each_branch_is_the_default():
    defaults = {
        name: param.default
        for name, param in inspect.signature(expand).parameters.items()
        if name.endswith("_route")
    }
    assert defaults == {"g_route": G_ROUTES[0], "f_route": F_ROUTES[0]}


def test_unknown_routes_rejected():
    with pytest.raises(ValueError):
        expand(XPoly.one(), f_route="nope")
    with pytest.raises(ValueError):
        expand(XPoly.one(), 1, g_route="nope")


def test_route_agreement_order1():
    rng = random.Random(103)
    for _ in range(20):
        p = random_xpoly(rng, 8, lam_bearing=True, bound=50)
        base = expand(p)
        for f in F_ROUTES:
            assert expand(p, 1, f_route=f).coeffs == base.coeffs
        for g in G_ROUTES:
            assert expand(p, 1, g).coeffs == base.coeffs


def test_route_agreement_higher_order_including_both_cases():
    rng = random.Random(107)
    for trial in range(10):
        # small degrees guarantee both r > degree and r <= degree show up
        p = random_xpoly(rng, 4, lam_bearing=(trial % 2 == 0), bound=40)
        for r in range(1, 6):
            expansions = [expand(p, r, g, f) for g in G_ROUTES for f in F_ROUTES]
            for other in expansions[1:]:
                assert other.coeffs == expansions[0].coeffs
    # every g-route on a taller l-bearing input, past the small orders above:
    # umbral_integral_op's chain runs r steps, operator_functional takes g^r f^k
    p = parse_poly("x^12 - 3*l*x^9 + 1/2*l^2*x^5 - 7/3*x^4 + l*x - 5")
    for r in (8, 16):
        base = expand(p, r).coeffs
        for g in G_ROUTES[1:]:
            assert expand(p, r, g).coeffs == base, (r, g)


def test_order1_and_higher_coincide_at_r1():
    # the order-1 era names that perfbench/layers.py still calls are views of expand
    assert expand_higher is expand
    rng = random.Random(109)
    for _ in range(10):
        p = random_xpoly(rng, 7, lam_bearing=True, bound=40)
        for f, g in zip(F_ROUTES, G_ROUTES[::-1]):
            assert expand_order1(p, f, g) == expand(p, 1, g, f)


def test_round_trip_small_sample():
    rng = random.Random(113)
    for _ in range(8):
        p = random_xpoly(rng, 10, lam_bearing=True, bound=100)
        assert reconstruct(expand(p)) == p
        for r in (2, 3, 4):
            assert reconstruct(expand(p, r)) == p


def test_linearity_of_expansion():
    rng = random.Random(127)
    for _ in range(10):
        p = random_xpoly(rng, 7, True, 30)
        q = random_xpoly(rng, 7, True, 30)
        alpha, beta = Fraction(3, 7), Fraction(-5, 2)
        combo = p * alpha + q * beta
        if combo.is_zero:
            continue
        e = expand(combo)
        ep, eq = expand(p), expand(q)
        for k in range(e.degree + 1):
            assert e.coeff(k) == ep.coeff(k) * alpha + eq.coeff(k) * beta


def test_leading_coefficient_passthrough():
    rng = random.Random(131)
    for _ in range(20):
        p = random_xpoly(rng, 9, True, 40)
        e = expand(p)
        assert e.coeff(e.degree) == p.leading()
        eh = expand(p, 3)
        assert eh.coeff(eh.degree) == p.leading()


def test_difference_divisibility_invariant():
    # the (k-1)-fold step-l difference of p(x+1)-p(x) at 0 is divisible by l^{k-1}
    rng = random.Random(137)
    for _ in range(15):
        p = random_xpoly(rng, 8, True, 30)
        h = p.shift(1) - p
        for k in range(1, p.degree + 1):
            forward_diff(h, LAMBDA, k - 1).eval_x(0).divexact(k - 1)


def test_expand_dispatch():
    p = XPoly.monomial(3)
    assert expand(p).order == 1
    assert expand(p, 2).order == 2
    assert expand(p, 1, f_route="stirling_sum").routes[1] == "stirling_sum"


def test_genocchi_product_higher_routes_agree():
    p = XPoly.zero()
    n = 4
    for k in range(1, n):
        p = p + genocchi_poly(k) * genocchi_poly(n - k) * Fraction(1, k * (n - k))
    expansions = [expand(p, 2, g, f) for g in G_ROUTES for f in F_ROUTES]
    for other in expansions[1:]:
        assert other.coeffs == expansions[0].coeffs
    assert reconstruct(expansions[0]) == p


def test_crosscheck_returns_verified_expansion():
    rng = random.Random(139)
    p = random_xpoly(rng, 6, True, 30)
    e = crosscheck(p)
    assert reconstruct(e) == p
    e2 = crosscheck(p, 3)
    assert reconstruct(e2) == p


@pytest.mark.parametrize("r", [1, 2, 3, 6])
def test_crosscheck_runs_each_route_once_beside_the_other_default(monkeypatch, r):
    calls = Counter()

    def counting(key, route):
        def wrapped(*args):
            calls[key] += 1
            return route(*args)

        return wrapped

    p = parse_poly("x^3 - 1/2*l*x + 2")
    default = expand(p, r)
    for key, route in list(expansion._ROUTES.items()):
        monkeypatch.setitem(expansion._ROUTES, key, counting(key, route))
    monkeypatch.setattr(expansion, "_pass", counting("pass", expansion._pass))
    assert crosscheck(p, r) == default
    # the defaults once, as expand's one pass, then every other route once; no
    # f-route runs when r > deg p = 3
    others = [key for key in expansion._ROUTES if key[1] not in (G_ROUTES[0], F_ROUTES[0])]
    assert calls == Counter(["pass", *(key for key in others if key[0] == "g" or r <= 3)])


def test_crosscheck_reads_one_bernoulli_table_per_order(monkeypatch):
    # every route reads order m as the ("bernoulli_r", m) table: scaled_bernoulli
    # is a view of it, and umbral_integral_op reads order 1 alone; the order-3
    # degenerate members and reconstruct read the order-3 Bernoulli and
    # second-kind numbers. The residual route reads its top member first, so the
    # second-kind key grows once, not once per degree
    grown = record_grows(monkeypatch)
    crosscheck(parse_poly("x^6 - 2/3*l*x^4 + l^2*x + 5"), 3)
    assert set(grown) == {
        ("bernoulli_r", 1),
        ("bernoulli_r", 2),
        ("bernoulli_r", 3),
        ("bernoulli2_r", 3),
    }
    assert grown.count(("bernoulli2_r", 3)) == 1


def test_order_is_bounded_by_the_degree_limit(monkeypatch):
    p = parse_poly("x^2")
    for r in (65, 100000):
        with pytest.raises(ValueError, match="order r must be between 1 and 64"):
            expand(p, r)
        with pytest.raises(ValueError, match="order r must be between 1 and 64"):
            crosscheck(p, r)
    # the degree is guarded alike: a plan keys on it, so the guard bounds each plan
    for n in (65, 100):
        with pytest.raises(ValueError, match="degree must be between 0 and 64"):
            expand(XPoly.monomial(n), 1)
        with pytest.raises(ValueError, match="degree must be between 0 and 64"):
            crosscheck(XPoly.monomial(n), 1)
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "3")
    with pytest.raises(ValueError, match="between 1 and 3"):
        expand(p, 4)
    for check in (expand, crosscheck):
        with pytest.raises(ValueError, match="degree must be between 0 and 3"):
            check(XPoly.monomial(4), 1)
    assert reconstruct(crosscheck(p, 3)) == p
    assert reconstruct(crosscheck(XPoly.monomial(3), 1)) == XPoly.monomial(3)


def test_expand_reads_the_degree_limit_once(monkeypatch):
    # the order and the degree are checked against one read of the limit, which is
    # still read live on every expand
    p = parse_poly("x^5 - 2*l*x + 1")
    e = expand(p, 2)
    reads = []
    limit = core.max_degree_limit
    for module in (core, expansion):
        monkeypatch.setattr(module, "max_degree_limit", lambda: reads.append(1) or limit())
    assert expand(p, 2) == e and len(reads) == 1
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "4")
    with pytest.raises(ValueError, match="degree must be between 0 and 4"):
        expand(p, 2)


def test_route_mismatch_error_payload():
    err = RouteMismatchError(2, "a", LambdaPoly.one(), "b", LambdaPoly.zero())
    assert err.k == 2
    assert "a_2" in str(err)


def test_provenance_records_routes():
    p = XPoly.monomial(4)
    e = expand(p, 1, "residual", "stirling_sum")
    assert e.routes[0] == "residual"
    assert set(e.routes[1:]) == {"stirling_sum"}
    eh = expand(p, 2, "stirling_op", "stirling_sum")
    assert eh.routes[0] == "stirling_op"
    assert eh.routes[-1] == "stirling_sum"


# -- the packed default routes against the dot-product routes -------------------

# numerators up to 10^40 of either sign over denominators up to 10^12, l-degree <= 4
_BIG_LAMBDA_POLYS = st.dictionaries(
    st.integers(0, 4), st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**12)), max_size=5
).map(LambdaPoly)
_DENSE = st.lists(_BIG_LAMBDA_POLYS, min_size=1, max_size=9).map(XPoly)
_SPARSE = st.dictionaries(st.integers(0, 16), _BIG_LAMBDA_POLYS, min_size=1, max_size=3).map(
    lambda terms: XPoly([terms.get(i, 0) for i in range(max(terms) + 1)])
)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_DENSE, _SPARSE).filter(lambda p: not p.is_zero), st.integers(1, 4))
def test_packed_default_routes_match_the_dot_routes(p, r):
    # umbral_integral and stirling_sum run on packed rows; umbral_integral_op and
    # functional sum every linear combination with core._dot
    assert expand(p, r).coeffs == expand(p, r, "umbral_integral_op", "functional").coeffs


# -- the default pass's weight plan, one per (degree, r) ---------------------------

_NONZERO = st.builds(
    Fraction, st.integers(1, 10**40) | st.integers(-(10**40), -1), st.integers(1, 10**12)
)
_NONZERO_LAMBDA_POLYS = st.dictionaries(st.integers(0, 4), _NONZERO, min_size=1, max_size=3).map(LambdaPoly)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 8), min_size=1), st.integers(1, 4), st.data())
def test_a_cached_plan_serves_every_poly_of_its_shape(support, r, data):
    n = max(support)

    def poly(values):
        return XPoly([values.pop() if i in support else 0 for i in range(n + 1)])

    # the first poly has numerators +-1 and takes the narrowest slots; the last
    # has a top numerator of at least 2, so it reads the same plans at a wider width
    first = poly([LambdaPoly.const(data.draw(st.sampled_from([1, -1]))) for _ in support])
    def values(size):
        return data.draw(st.lists(_NONZERO_LAMBDA_POLYS, min_size=size, max_size=size))

    later = [poly(values(len(support))) for _ in range(data.draw(st.integers(1, 3)))]
    top = data.draw(st.integers(2, 10**40) | st.integers(-(10**40), -2))
    later.append(poly([*values(len(support) - 1), LambdaPoly.const(top)]))
    def misses():
        return expansion._pass_plan.cache_info().misses

    widths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_slots", lambda v, w: widths.append(w) or _slots(v, w))
        expanded = [expand(first, r)]
        first_width, built = max(widths), misses()
        widths.clear()
        expanded += [expand(p, r) for p in later]
    assert misses() == built  # every later call reused the first call's plans
    assert max(widths) > first_width
    for p, e in zip([first, *later], expanded):
        assert e.coeffs == expand(p, r, "umbral_integral_op", "functional").coeffs


def test_one_plan_serves_every_support_of_its_degree():
    # a plan's weights belong to the basis: x^6 + x, x^6 + x^2 and their sum read
    # the one plan the first one built, for every k, and no term of the others is dropped
    a, b = parse_poly("x^6 + x"), parse_poly("x^6 + x^2")
    core.clear_caches()
    expanded = [expand(p, 2) for p in (a, b, a + b)]
    assert expansion._pass_plan.cache_info().misses == 1
    for p, e in zip((a, b, a + b), expanded):
        assert e.coeffs == expand(p, 2, "umbral_integral_op", "functional").coeffs


def test_the_shared_difference_table_stays_crosschecked():
    # the default pass's Delta^r rows are the row tuples of forward_diff's Delta^r plan,
    # which delta_lambda and functional read, so a wrong weight in that one table moves
    # all three f-routes alike, and the g sums that read Y_u = w_(u-r) / perm(u,r) off
    # those rows; crosscheck must still fail, on a route of another kernel
    for n, r in ((3, 1), (10, 2), (12, 3), (max_degree_limit(), 8)):
        f_rows, d_rows = expansion._pass_plan(n, r).delta, umbral._diff_plan(n, r).rows
        assert len(f_rows) == len(d_rows) and all(f is d for f, d in zip(f_rows, d_rows))
    diff_plan = umbral._diff_plan.__wrapped__

    def one_off(n, r):
        """_diff_plan, but at (n, r) the weight of p_n in [x^0] Delta^r p is one too large."""
        def plan(m, k):
            right = diff_plan(m, k)
            if (m, k) != (n, r):
                return right
            *rest, (i, c) = right.rows[0]
            return core._packed_plan([(*rest, (i, c + 1)), *right.rows[1:]], right.sums)
        return plan

    for src in ("x^3 - 1/2*l*x + 2", "(1+x+l)^10", "x^12 + l*x^3"):
        p = parse_poly(src)
        for r in (1, 2, 3):
            core.clear_caches()
            try:
                with pytest.MonkeyPatch.context() as mp:
                    for module in (umbral, expansion):
                        mp.setattr(module, "_diff_plan", one_off(p.degree, r))
                    with pytest.raises(RouteMismatchError) as caught:
                        crosscheck(p, r)
            finally:
                core.clear_caches()
            assert caught.value.route_b in ("umbral_integral_op", "residual", "binomial_sum")


def test_plan_caches_are_bounded_and_clearable(monkeypatch):
    caches = (expansion._pass_plan, families._number_side, families._t_plan)
    for cache in caches:
        cache.cache_clear()
    bound = max(cache.cache_info().maxsize for cache in caches)
    x = XPoly.x()
    for i in range(bound + 10):  # that many (degree, order) shapes
        expand(x ** (i % 37 + 2), 1 + i // 37)

    # reconstruct keeps a number side and a T plan per (order, degree): one basis member at
    # every degree up to the limit, and member 3 at many orders, each read from that order's numbers
    def member(n, r):
        return reconstruct(BasisExpansion(r, n, (LambdaPoly.zero(),) * n + (LambdaPoly.one(),), ("unit",) * (n + 1)))

    for n in range(max_degree_limit() + 1):
        assert member(n, 1).degree == n
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", str(bound + 9))  # a family order is a size
    for r in range(1, bound + 10):
        assert member(3, r) == deg_bernoulli_order(3, r)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.maxsize
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


def test_a_second_degree_sweep_builds_no_plan():
    # one plan per (degree, order), and 64 kept: a sweep over every degree at one
    # order reads, the second time, only plans the first one built
    x = XPoly.x()
    core.clear_caches()
    degrees = range(1, max_degree_limit() + 1)
    for n in degrees:
        expand(x**n, 8)
    built = expansion._pass_plan.cache_info().misses
    for n in degrees:
        expand(x**n, 8)
    assert expansion._pass_plan.cache_info().misses == built == len(degrees)


_SMALL_LAMBDA_POLYS = st.dictionaries(
    st.integers(0, 3), st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**3)), max_size=3
).map(LambdaPoly)
_UP_TO_DEGREE_12 = st.lists(_SMALL_LAMBDA_POLYS, min_size=1, max_size=13).map(XPoly)


@settings(max_examples=60, deadline=None)
@given(_UP_TO_DEGREE_12, st.integers(0, 6), st.data())
def test_integral_powers_after_differences_are_derivatives_of_one_integral_power(p, r, data):
    # I^(r-k) Delta^k = D^k I^r on polynomials, as Delta = D I: the pass reads every
    # a_k with k < r from the one polynomial I^r p. Built from umbral alone
    k = data.draw(st.integers(0, r))

    def integral_power(q, a):
        return umbral._integral_power(q, a) if a else q

    assert integral_power(forward_diff(p, 1, k), r - k) == integral_power(p, r).derivative(k)


@settings(max_examples=30, deadline=None)
@given(_UP_TO_DEGREE_12.filter(lambda p: not p.is_zero), st.data())
def test_the_pass_matches_the_dot_routes_past_the_degree(p, data):
    # r up to deg p + 2: past deg p the pass has no f part, and every a_k is a g sum
    r = data.draw(st.integers(1, p.degree + 2))
    assert expand(p, r).coeffs == expand(p, r, "umbral_integral_op", "functional").coeffs


# -- reconstruct from the numbers alone ------------------------------------------

_COEFF = st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**12))
_BASIS_COEFFS = st.one_of(
    st.just(LambdaPoly.zero()),
    st.builds(LambdaPoly.monomial, st.integers(0, 8), _COEFF),  # l-monomials
    st.dictionaries(st.integers(0, 8), _COEFF, max_size=4).map(LambdaPoly),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.data())
def test_reconstruct_matches_the_member_composition(n, data):
    # orders 1..8 and past the degree, and lists that are sparse, all zero or
    # all l-monomials as often as dense
    r = data.draw(st.integers(1, 8) | st.integers(n + 1, n + 3))
    coeffs = data.draw(st.lists(_BASIS_COEFFS, min_size=n + 1, max_size=n + 1))
    e = BasisExpansion(r, n, tuple(coeffs), ("drawn",) * (n + 1))
    assert reconstruct(e) == member_reconstruct(e)


def test_a_cold_reconstruct_reads_numbers_and_builds_no_member(monkeypatch):
    grown = record_grows(monkeypatch)
    p = parse_poly("x^9 - 2/5*l*x^4 + 3")
    assert reconstruct(expand(p, 3)) == p
    assert ("bernoulli2_r", 3) in grown and ("bernoulli2_r", 3) in families._TABLE._entries
    assert families._t_plan.cache_info().currsize == 1  # the T weights of (9, 3)
    assert families._member.cache_info().currsize == 0  # neither expand nor reconstruct built a member


def test_reconstruct_at_the_degree_limit_matches_the_member_composition():
    for expr in ("(1+x+l)^64", "x^64 - 3/7*l*x^59 + x^3"):
        p = parse_poly(expr)
        e = expand(p, 1)
        assert reconstruct(e) == member_reconstruct(e) == p, expr


def _plus_one_in_d4(monkeypatch):
    # the table kinds' Appell sum reads _packed_products: the classical Bernoulli sums and the
    # degenerate members, of which residual reads no x^4 at r <= 3
    products = families._packed_products

    def patched(xs, ys):
        rows, den = products(xs, ys)
        if len(rows) > 4:  # d_4 + 1
            rows[4] = [(rows[4][0] if rows[4] else 0) + den, *rows[4][1:]]
        return rows, den

    monkeypatch.setattr(families, "_packed_products", patched)


def _plus_one_in_output_1(monkeypatch):
    # + 1 in output 1 of _packed_sums, read by the default pass, forward_diff and reconstruct
    sums = core._packed_sums

    def patched(polys, plan):
        out = sums(polys, plan)
        if len(out) > 1:
            out[1] += 1
        return out

    for module in (expansion, umbral, families):
        monkeypatch.setattr(module, "_packed_sums", patched)


def _plus_one_in_dot(monkeypatch):
    # + 1 in every _dot that expansion and umbral read: the dot-product routes and
    # umbral's apply, functional and umbral_compose; core's own products are left right
    dot = core._dot
    for module in (expansion, umbral):
        monkeypatch.setattr(module, "_dot", lambda terms: dot(terms) + 1)


def _plus_one_in_t_5_1(monkeypatch):
    # + 1 in the int weight of T(5,1), which reconstruct's T plan and the degenerate
    # members both read from _t_rows
    t_rows = families._t_rows

    def patched(r, n, ks):
        dens, rows = t_rows(r, n, ks)
        for k, row in zip(ks, rows):
            if k == 5:
                row[1] += 1
        return dens, rows

    monkeypatch.setattr(families, "_t_rows", patched)


def _plus_one_in_integral_row_r_minus_1(monkeypatch):
    # + 1 in the weight of p_n in Y_(r-1) = [x^(r-1)] I^r p, a row of the pass's own,
    # which every default a_k with k < r reads: B_(r-1-k)^(r-k) = (-1)^(r-1-k) (r-1-k)!
    plan = expansion._pass_plan

    def patched(n, r):
        right = plan(n, r)
        integral = list(right.integral)
        span, weights = integral[r - 1]
        integral[r - 1] = (span, (*weights[:-1], weights[-1] + 1))
        return right._replace(integral=tuple(integral), l1=2 * right.l1)

    monkeypatch.setattr(expansion, "_pass_plan", patched)


def _plus_one_in(table, key, i, j=None):
    """+ 1 in entry i of the table key, or in its entry j if entry i is a row."""

    def patch(monkeypatch):
        # grown through 2L first, so that no later entry is computed from the wrong one
        entries = list(table(2 * max_degree_limit(), key))
        entries[i] = entries[i] + 1 if j is None else (*entries[i][:j], entries[i][j] + 1, *entries[i][j + 1 :])
        table._entries[key] = entries

    return patch


def _plus_one_in_number_5(key):
    return _plus_one_in(families._TABLE, key, 5)


_CHECKED = [(expr, r) for expr in ("x^12 + l*x^3", "(1+x+l)^10", "x^3 - 1/2*l*x + 2") for r in (1, 3)]
# one wrong entry of a shared table or kernel, patched where it is read: the crosscheck
# cases that catch it, each as (route_a, route_b, k), and the number of verify_all()
# cases that fail; one of the two must catch it
_WRONG = {
    "packed_products-d4": (_plus_one_in_d4, {}, 108),
    "packed_sums-out1": (  # a_1 of the pass is wrong at r = 1, and Y_1 of its I^r rows at r = 3
        _plus_one_in_output_1,
        {(expr, r): ("umbral_integral", "residual" if r == 1 else "umbral_integral_op", 0) for expr, r in _CHECKED},
        135,
    ),
    "dot-+1": (  # verify_all reads no _dot of expansion or umbral
        _plus_one_in_dot,
        {case: ("umbral_integral", "umbral_integral_op", 0) for case in _CHECKED},
        0,
    ),
    "t-weight-T(5,1)": (  # the members of degree 5 up, for residual; reconstruct, for verify_all
        _plus_one_in_t_5_1,
        {case: ("umbral_integral", "residual", 0) for case in _CHECKED[:4]},
        94,
    ),
    "bernoulli_r1-c5": (
        _plus_one_in_number_5(("bernoulli_r", 1)),
        {
            ("x^12 + l*x^3", 1): ("umbral_integral", "operator_functional", 0),
            ("x^12 + l*x^3", 3): ("umbral_integral", "umbral_integral_op", 0),
            ("(1+x+l)^10", 1): ("umbral_integral", "operator_functional", 0),
            ("(1+x+l)^10", 3): ("umbral_integral", "umbral_integral_op", 0),
        },
        194,
    ),
    "stirling2-S2(7,1)": (  # what _jumps(1)[7] reads
        _plus_one_in(core._stirling2_rows, (), 7, 1),
        {
            ("x^12 + l*x^3", 1): ("umbral_integral", "operator_functional", 0),
            ("x^12 + l*x^3", 3): ("umbral_integral", "umbral_integral_op", 0),
            ("(1+x+l)^10", 1): ("umbral_integral", "operator_functional", 0),
            ("(1+x+l)^10", 3): ("umbral_integral", "umbral_integral_op", 0),
        },
        36,
    ),
    "stirling1-s(5,1)": (
        _plus_one_in(core._stirling1_rows, (), 5, 1),
        {case: ("umbral_integral", "residual", 0) for case in _CHECKED[:4]},
        82,
    ),
    "bernoulli2_r3-c5": (  # read by the order-3 T weights
        _plus_one_in_number_5(("bernoulli2_r", 3)),
        {("x^12 + l*x^3", 3): ("umbral_integral", "residual", 0), ("(1+x+l)^10", 3): ("umbral_integral", "residual", 0)},
        0,
    ),
    "euler1-c5": (_plus_one_in_number_5(("euler", 1)), {}, 86),  # no route reads it
    "integral-row-Y(r-1)": (  # verify_all calls no expand
        _plus_one_in_integral_row_r_minus_1,
        {case: ("umbral_integral", "umbral_integral_op", 0) for case in _CHECKED},
        0,
    ),
}


@pytest.mark.parametrize("row", list(_WRONG))
def test_a_wrong_shared_table_is_caught(monkeypatch, capsys, row):
    patch, want, failures = _WRONG[row]
    assert want or failures
    for expr, r in _CHECKED:  # crosscheck rebuilds p from its expansion
        assert reconstruct(crosscheck(parse_poly(expr), r)) == parse_poly(expr)
    core.clear_caches()
    try:
        patch(monkeypatch)
        caught = {}
        for expr, r in _CHECKED:
            try:
                crosscheck(parse_poly(expr), r)
            except RouteMismatchError as e:
                caught[expr, r] = e
        assert {case: (e.route_a, e.route_b, e.k) for case, e in caught.items()} == want
        assert sum(not case.passed for case in verify_all()) == failures
        for (expr, r), e in caught.items():
            # with k a power of x, the message says so
            of = f"of x^{e.k}" if e.route_a == "p" else f"a_{e.k}"
            assert str(e).startswith(f"coefficient {of} differs between routes: {e.route_a} -> {e.value_a}, "), e
        if ("x^12 + l*x^3", 3) in caught:
            capsys.readouterr()
            assert cli.main(["expand", "--expr", "x^12 + l*x^3", "--order", "3", "--crosscheck"]) == 2
            assert capsys.readouterr() == ("", f"route disagreement: {caught['x^12 + l*x^3', 3]}\n")
    finally:
        core.clear_caches()


# -- every registered route is cross-checked ------------------------------------

# Each entry at r = 1, 2 and 3 under its branch, and at r = 1 also under the
# order-1 name of its branch (ak: f, a0: g) while AK_ROUTES / A0_ROUTES remain.
_ORDER1_NAMES = (("ak", "f", expansion.AK_ROUTES), ("a0", "g", expansion.A0_ROUTES))
_PERTURBED = [(r, key[0], key) for r in (1, 2, 3) for key in expansion._ROUTES] + [
    (1, alias, (branch, name)) for alias, branch, names in _ORDER1_NAMES for name in names
]


@pytest.mark.parametrize(
    "r, label, key", _PERTURBED, ids=[f"r{r}-{label}-{key[1]}" for r, label, key in _PERTURBED]
)
def test_crosscheck_catches_a_wrong_route(monkeypatch, r, label, key):
    def off_by_one(route, i):
        def wrong(*args):
            coeffs = list(route(*args))
            coeffs[i] += LambdaPoly.one()
            return coeffs

        return wrong

    if key[1] in (G_ROUTES[0], F_ROUTES[0]):
        # a default is its slice of the one pass expand makes: a_0 on, or a_r on
        monkeypatch.setattr(expansion, "_pass", off_by_one(expansion._pass, 0 if key[0] == "g" else r))
    else:
        monkeypatch.setitem(expansion._ROUTES, key, off_by_one(expansion._ROUTES[key], 0))
    with pytest.raises(RouteMismatchError) as caught:
        crosscheck(parse_poly("x^3 - 1/2*l*x + 2"), r)
    if key[1] in (G_ROUTES[0], F_ROUTES[0]):
        # the g slice is caught by the first g-route, the f slice by the g-route that reads it
        assert caught.value.route_b == ("umbral_integral_op" if key[0] == "g" else "residual")
