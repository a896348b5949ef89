import inspect
import random
from fractions import Fraction
from math import factorial

import pytest

from degbern import expansion
from degbern.core import LAMBDA, LambdaPoly, XPoly
from degbern.expansion import (
    A0_ROUTES,
    AK_ROUTES,
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
from degbern.parser import parse_poly
from degbern.umbral import forward_diff
from helpers import classical_coeffs_higher, classical_coeffs_order1, random_xpoly


def test_basis_elements_expand_to_kronecker_delta():
    for m in range(7):
        p = deg_bernoulli(m)
        for ak in AK_ROUTES:
            for a0 in A0_ROUTES:
                e = expand_order1(p, ak, a0)
                for k in range(m + 1):
                    assert e.coeff(k) == (LambdaPoly.one() if k == m else LambdaPoly.zero())


def test_higher_basis_elements_expand_to_kronecker_delta():
    for r in range(1, 4):
        for m in range(6):
            p = deg_bernoulli_order(m, r)
            for g in G_ROUTES:
                for f in F_ROUTES:
                    e = expand_higher(p, r, g, f)
                    for k in range(m + 1):
                        assert e.coeff(k) == (
                            LambdaPoly.one() if k == m else LambdaPoly.zero()
                        )


def test_bernoulli_poly_expansion_closed_form():
    # a_0 = l^n B_n and k! l^{k-1} a_k = n * (k-1 step-l differences of x^{n-1} at 0)
    for n in range(1, 9):
        e = expand_order1(bernoulli_poly(n))
        assert e.coeff(0) == LambdaPoly.monomial(n, bernoulli_number(n))
        for k in range(1, n + 1):
            delta = forward_diff(XPoly.monomial(n - 1), LAMBDA, k - 1).eval_x(0)
            assert e.coeff(k) == delta.divexact(k - 1) * Fraction(n, factorial(k))


def test_classical_limit_of_square():
    e = expand_order1(XPoly.monomial(2))
    assert classical_limit(e) == [Fraction(1, 3), Fraction(1), Fraction(1)]


def test_classical_limit_matches_derivative_integral_oracle():
    rng = random.Random(97)
    for _ in range(25):
        p = random_xpoly(rng, 10, lam_bearing=False, bound=10**4)
        assert classical_limit(expand_order1(p)) == classical_coeffs_order1(p)


def test_classical_limit_higher_matches_two_case_oracle():
    rng = random.Random(101)
    for _ in range(12):
        p = random_xpoly(rng, 6, lam_bearing=False, bound=10**3)
        for r in range(1, 5):
            assert classical_limit(expand_higher(p, r)) == classical_coeffs_higher(p, r)
    # r larger than the degree exercises the pure g-branch case
    p = random_xpoly(rng, 3, lam_bearing=False, bound=100)
    assert classical_limit(expand_higher(p, 6)) == classical_coeffs_higher(p, 6)


def test_classical_limit_rejects_l_bearing_source():
    p = XPoly([LAMBDA, LambdaPoly.one()])
    with pytest.raises(ValueError):
        classical_limit(expand_order1(p))


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
        assert classical_limit(expand_order1(bernoulli_poly(n)))[0] == 0


def test_constant_polynomial_expansion():
    e = expand_order1(XPoly.const(Fraction(7, 3)))
    assert e.degree == 0
    assert e.coeff(0) == LambdaPoly.const(Fraction(7, 3))
    eh = expand_higher(XPoly.const(5), 3)
    assert eh.coeffs == (LambdaPoly.const(5),)
    assert reconstruct(eh) == XPoly.const(5)


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        expand_order1(XPoly.zero())
    with pytest.raises(ValueError):
        expand_higher(XPoly.zero(), 2)


def test_order_must_be_positive():
    with pytest.raises(ValueError):
        expand_higher(XPoly.one(), 0)


def test_first_route_of_each_branch_is_the_default():
    defaults = {
        name: param.default
        for fn in (expand_order1, expand_higher)
        for name, param in inspect.signature(fn).parameters.items()
        if name.endswith("_route")
    }
    assert defaults == {
        "ak_route": AK_ROUTES[0],
        "a0_route": A0_ROUTES[0],
        "g_route": G_ROUTES[0],
        "f_route": F_ROUTES[0],
    }


def test_unknown_routes_rejected():
    with pytest.raises(ValueError):
        expand_order1(XPoly.one(), ak_route="nope")
    with pytest.raises(ValueError):
        expand_higher(XPoly.one(), 1, g_route="nope")


def test_route_agreement_order1():
    rng = random.Random(103)
    for _ in range(20):
        p = random_xpoly(rng, 8, lam_bearing=True, bound=50)
        base = expand_order1(p, "binomial_sum", "umbral_integral")
        for ak in AK_ROUTES:
            assert expand_order1(p, ak, "umbral_integral").coeffs == base.coeffs
        for a0 in A0_ROUTES:
            assert expand_order1(p, "binomial_sum", a0).coeffs == base.coeffs


def test_route_agreement_higher_order_including_both_cases():
    rng = random.Random(107)
    for trial in range(10):
        # small degrees guarantee both r > degree and r <= degree show up
        p = random_xpoly(rng, 4, lam_bearing=(trial % 2 == 0), bound=40)
        for r in range(1, 6):
            expansions = [expand_higher(p, r, g, f) for g in G_ROUTES for f in F_ROUTES]
            for other in expansions[1:]:
                assert other.coeffs == expansions[0].coeffs


def test_order1_and_higher_coincide_at_r1():
    rng = random.Random(109)
    for _ in range(10):
        p = random_xpoly(rng, 7, lam_bearing=True, bound=40)
        assert expand_higher(p, 1).coeffs == expand_order1(p).coeffs


def test_round_trip_small_sample():
    rng = random.Random(113)
    for _ in range(8):
        p = random_xpoly(rng, 10, lam_bearing=True, bound=100)
        assert reconstruct(expand_order1(p)) == p
        for r in (2, 3, 4):
            assert reconstruct(expand_higher(p, r)) == p


def test_linearity_of_expansion():
    rng = random.Random(127)
    for _ in range(10):
        p = random_xpoly(rng, 7, True, 30)
        q = random_xpoly(rng, 7, True, 30)
        alpha, beta = Fraction(3, 7), Fraction(-5, 2)
        combo = p * alpha + q * beta
        if combo.is_zero:
            continue
        e = expand_order1(combo)
        ep, eq = expand_order1(p), expand_order1(q)
        for k in range(e.degree + 1):
            assert e.coeff(k) == ep.coeff(k) * alpha + eq.coeff(k) * beta


def test_leading_coefficient_passthrough():
    rng = random.Random(131)
    for _ in range(20):
        p = random_xpoly(rng, 9, True, 40)
        e = expand_order1(p)
        assert e.coeff(e.degree) == p.leading()
        eh = expand_higher(p, 3)
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
    assert expand(p, 1, ak_route="stirling_sum").routes[1] == "stirling_sum"


def test_genocchi_product_higher_routes_agree():
    p = XPoly.zero()
    n = 4
    for k in range(1, n):
        p = p + genocchi_poly(k) * genocchi_poly(n - k) * Fraction(1, k * (n - k))
    expansions = [expand_higher(p, 2, g, f) for g in G_ROUTES for f in F_ROUTES]
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


def test_route_mismatch_error_payload():
    err = RouteMismatchError(2, "a", LambdaPoly.one(), "b", LambdaPoly.zero())
    assert err.k == 2
    assert "a_2" in str(err)


def test_provenance_records_routes():
    p = XPoly.monomial(4)
    e = expand_order1(p, "stirling_sum", "residual")
    assert e.routes[0] == "residual"
    assert set(e.routes[1:]) == {"stirling_sum"}
    eh = expand_higher(p, 2, "stirling_op", "stirling_sum")
    assert eh.routes[0] == "stirling_op"
    assert eh.routes[-1] == "stirling_sum"


# -- every registered route is cross-checked ------------------------------------

_PERTURBED = [(1, key) for key in expansion._ROUTES] + [
    (2, key) for key in expansion._ROUTES if key[0] in ("g", "f")
]


@pytest.mark.parametrize(
    "r, key", _PERTURBED, ids=[f"r{r}-{branch}-{name}" for r, (branch, name) in _PERTURBED]
)
def test_crosscheck_catches_a_wrong_route(monkeypatch, r, key):
    route = expansion._ROUTES[key]

    def off_by_one(*args):
        coeffs = route(*args)
        return [coeffs[0] + LambdaPoly.one(), *coeffs[1:]]

    monkeypatch.setitem(expansion._ROUTES, key, off_by_one)
    with pytest.raises(RouteMismatchError):
        crosscheck(parse_poly("x^3 - 1/2*l*x + 2"), r)
