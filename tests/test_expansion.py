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
    assert crosscheck(p, r) == default
    # every route once, the defaults inside expand; no f-route runs when r > deg p = 3
    assert calls == Counter(key for key in expansion._ROUTES if key[0] == "g" or r <= 3)


def test_crosscheck_reads_one_bernoulli_table_per_order(monkeypatch):
    # every route reads order m as the ("bernoulli_r", m) table: scaled_bernoulli
    # is a view of it, and umbral_integral_op reads order 1 alone; the order-3
    # degenerate numbers read the order-3 Bernoulli and second-kind numbers.
    # The residual route reads its top member first, so the degenerate key
    # grows once, not once per degree
    grown = record_grows(monkeypatch)
    crosscheck(parse_poly("x^6 - 2/3*l*x^4 + l^2*x + 5"), 3)
    assert set(grown) == {
        ("bernoulli_r", 1),
        ("bernoulli_r", 2),
        ("bernoulli_r", 3),
        ("bernoulli2_r", 3),
        ("deg_bernoulli_r", 3),
    }
    assert grown.count(("deg_bernoulli_r", 3)) == 1


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


# -- the default routes' weight plans, one per (degree, r), k too for branch g ---

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
        return expansion._f_plan.cache_info().misses, expansion._g_plan.cache_info().misses

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
    # the plans the first one built, and no term of the others is dropped
    a, b = parse_poly("x^6 + x"), parse_poly("x^6 + x^2")
    core.clear_caches()
    expanded = [expand(p, 2) for p in (a, b, a + b)]
    assert expansion._f_plan.cache_info().misses == 1
    assert expansion._g_plan.cache_info().misses == 2  # one per k < r
    for p, e in zip((a, b, a + b), expanded):
        assert e.coeffs == expand(p, 2, "umbral_integral_op", "functional").coeffs


def test_the_shared_difference_table_stays_crosschecked():
    # stirling_sum reads the row tuples of forward_diff's Delta^r plan, as
    # delta_lambda and functional do, so a wrong weight in that one table moves
    # all three alike; crosscheck must still fail, on a route of another kernel
    for n, r in ((3, 1), (10, 2), (12, 3), (max_degree_limit(), 8)):
        f_rows, d_rows = expansion._f_plan(n, r).rows, umbral._diff_plan(n, r).rows
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
            assert caught.value.route_b in ("residual", "binomial_sum")


def test_plan_caches_are_bounded_and_clearable():
    caches = (expansion._f_plan, expansion._g_plan, expansion._degree_plan)
    for cache in caches:
        cache.cache_clear()
    bound = max(cache.cache_info().maxsize for cache in caches)
    x = XPoly.x()
    for i in range(bound + 10):  # that many (degree, order) shapes
        expand(x ** (i % 37 + 2), 1 + i // 37)

    # reconstruct keeps its falling-factorial plan per degree: one basis member
    # at every degree up to the limit, and member 3 at many orders, each read
    # from that order's numbers
    def member(n, r):
        return reconstruct(BasisExpansion(r, n, (LambdaPoly.zero(),) * n + (LambdaPoly.one(),), ("unit",) * (n + 1)))

    for n in range(max_degree_limit() + 1):
        assert member(n, 1).degree == n
    for r in range(1, bound + 10):
        assert member(3, r) == deg_bernoulli_order(3, r)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize == info.maxsize
        cache.cache_clear()
        assert cache.cache_info().currsize == 0


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
    assert ("deg_bernoulli_r", 3) in grown and ("deg_bernoulli_r", 3) in families._TABLE._numbers
    assert families._member.cache_info().currsize == 0  # neither expand nor reconstruct built a member


def test_reconstruct_at_the_degree_limit_matches_the_member_composition():
    for expr in ("(1+x+l)^64", "x^64 - 3/7*l*x^59 + x^3"):
        p = parse_poly(expr)
        e = expand(p, 1)
        assert reconstruct(e) == member_reconstruct(e) == p, expr


def test_crosscheck_rebuilds_p_and_catches_a_wrong_connection_constant(monkeypatch, capsys):
    # reconstruct is the one reader of _packed_products; no route reads it
    products = expansion._packed_products

    def plus_one_in_output_4(xs, ys, sums):
        rows, den = products(xs, ys, sums)
        rows[4] = [(rows[4][0] if rows[4] else 0) + den, *rows[4][1:]]  # d_4 + 1
        return rows, den

    p = parse_poly("x^12 + l*x^3")
    assert reconstruct(crosscheck(p, 3)) == p
    monkeypatch.setattr(expansion, "_packed_products", plus_one_in_output_4)
    with pytest.raises(RouteMismatchError) as caught:
        crosscheck(p, 3)
    # d_4 + 1 adds (x)_(4,l) = x^4 - 6l x^3 + ..., whose lowest term is a multiple of x
    assert (caught.value.k, caught.value.route_a, caught.value.route_b) == (1, "p", "reconstruct")
    # k there is a power of x, and the message says so
    assert str(caught.value).startswith("coefficient of x^1 differs between routes: p -> 0, reconstruct -> ")
    capsys.readouterr()
    assert cli.main(["expand", "--expr", "x^12 + l*x^3", "--order", "3", "--crosscheck"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "coefficient of x^1 differs" in err and "a_1" not in err


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
    route = expansion._ROUTES[key]

    def off_by_one(*args):
        coeffs = route(*args)
        return [coeffs[0] + LambdaPoly.one(), *coeffs[1:]]

    monkeypatch.setitem(expansion._ROUTES, key, off_by_one)
    with pytest.raises(RouteMismatchError):
        crosscheck(parse_poly("x^3 - 1/2*l*x + 2"), r)
