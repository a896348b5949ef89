"""Expansion of polynomials in the degenerate Bernoulli bases.

Any p(x) of degree n has a unique exact expansion
p(x) = sum_{k=0}^{n} a_k beta_k^(r)(x) in the order-r degenerate Bernoulli
basis, r >= 1; order 1 is the degenerate Bernoulli basis itself. With
f(t) = (e^{lt}-1)/l, g(t) = l(e^t-1)/(e^{lt}-1), Delta the unit forward
difference and D_l the step-l one,

    a_k = Delta^k [g(t)^{r-k} p](0) / k!    for k < r     (branch g)
    a_k = Delta^r [f(t)^{k-r} p](0) / k!    for k >= r    (branch f)

and every route below computes its branch at every order r.

Branch f, with m = k - r:

    stirling_sum   a_k = (m!/k!) sum_j S2(j,m) l^{j-m}/j! Delta^r p^(j)(0)
    binomial_sum   a_k = sum_i C(m,i)(-1)^{m-i} h_i / (k! l^m),  h_i = Delta^r p(il)
    delta_lambda   a_k = D_l^m Delta^r p(0) / (k! l^m)
    functional     a_k = <f(t)^m | Delta^r p> / k!

Branch g, with m = r - k and q_m = (lt/(e^{lt}-1))^m p, that is p with
x^i replaced by l^i B_i^(m)(x/l):

    umbral_integral      a_k = Delta^r [A^m q_m](0) / k!,  A the antiderivative
    umbral_integral_op   a_k = Delta^k [I^m q_m](0) / k!,  I q(x) = integral_x^{x+1} q
    stirling_op          a_k = Delta^k [sum_j S2(j+m,m) m!/(j+m)! q_m^(j)](0) / k!
    operator_functional  a_k = <g(t)^m (e^t-1)^k | p> / k! = <g(t)^r f(t)^k | p> / k!
    residual             a_k = [x^k](p - sum_{j>k} a_j beta_j^(r)), top down

The first and the third g-routes agree because Delta^m A^m = I^m on
polynomials; residual uses that beta_k^(r) is monic of degree k and reads
the f-branch coefficients it is given. At r = 1 the f-branch gives a_k for
k >= 1 from p(x+1)-p(x), and umbral_integral is a_0 = integral_0^1 q_1.

Every route is one entry of the table ``_ROUTES``, keyed by (branch, name).
The ``*_ROUTES`` name tuples, the route checks, expand and crosscheck all
read that table; the first route of each branch is its default.

All divisions by powers of l are exact divisions; a failure raises
ExactDivisionError and signals a formula-implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .core import LAMBDA, LambdaPoly, XPoly
from .families import deg_bernoulli_order, scaled_bernoulli, stirling2
from .parser import check_size
from .umbral import (
    OperatorSeries,
    delta_op,
    forward_diff,
    functional,
    integral_I,
    monomial_op,
    scaled_bernoulli_op,
    sequence_diff,
    umbral_compose,
    unit_integral_op,
)

__all__ = [
    "A0_ROUTES",
    "AK_ROUTES",
    "BasisExpansion",
    "F_ROUTES",
    "G_ROUTES",
    "RouteMismatchError",
    "classical_limit",
    "crosscheck",
    "expand",
    "expand_higher",
    "expand_order1",
    "reconstruct",
]


class RouteMismatchError(Exception):
    """Two supposedly equivalent coefficient routes disagreed."""

    def __init__(self, k: int, route_a: str, value_a, route_b: str, value_b):
        self.k = k
        self.route_a = route_a
        self.value_a = value_a
        self.route_b = route_b
        self.value_b = value_b
        super().__init__(
            f"coefficient a_{k} differs between routes: "
            f"{route_a} -> {value_a}, {route_b} -> {value_b}"
        )


@dataclass(frozen=True)
class BasisExpansion:
    """p(x) = sum_k coeffs[k] * beta_k^(order)(x), with per-coefficient provenance."""

    order: int
    degree: int
    coeffs: tuple[LambdaPoly, ...]
    routes: tuple[str, ...]
    source: XPoly | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count does not match degree")

    def coeff(self, k: int) -> LambdaPoly:
        if 0 <= k <= self.degree:
            return self.coeffs[k]
        return LambdaPoly.zero()


def _validated(p: XPoly) -> int:
    if not isinstance(p, XPoly):
        raise TypeError("expected an XPoly")
    if p.is_zero:
        raise ValueError("cannot expand the zero polynomial")
    return p.degree


def _derivative_chain(p: XPoly) -> list[XPoly]:
    out = [p]
    for _ in range(p.degree):
        out.append(out[-1].derivative())
    return out


def _alternating(w: XPoly, k: int) -> LambdaPoly:
    """The k-th forward difference of w at 0."""
    return sequence_diff([w.eval_x(j) for j in range(k + 1)], k)


# -- branch f: (p, r) -> [a_r, ..., a_n], called only when r <= deg p -------------


def _f_binomial_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    # h_i = Delta^r p(il), shared across k; one exact division per coefficient.
    span = range(p.degree - r + 1)
    h = [sequence_diff([p.eval_x(LambdaPoly({0: j, 1: i})) for j in range(r + 1)], r) for i in span]
    return [sequence_diff(h, m).divexact(m) / factorial(m + r) for m in span]


def _f_delta_lambda(p: XPoly, r: int) -> list[LambdaPoly]:
    coeffs = []
    d = forward_diff(p, 1, r)  # then D_l^m Delta^r p, one step-l difference per k
    for k in range(r, p.degree + 1):
        coeffs.append(d.eval_x(0).divexact(k - r) / factorial(k))
        if k < p.degree:
            d = d.shift(LAMBDA) - d
    return coeffs


def _functionals(start: OperatorSeries, q: XPoly, ks: range) -> list[LambdaPoly]:
    """<start f(t)^i | q> / k! for the i-th k of ks: one series product by f per k."""
    f = delta_op(LAMBDA)
    power = start
    coeffs = []
    for k in ks:
        coeffs.append(functional(power, q) / factorial(k))
        power = power * f  # lazy: the product past the last k is never built
    return coeffs


def _f_functional(p: XPoly, r: int) -> list[LambdaPoly]:
    return _functionals(monomial_op(0), forward_diff(p, 1, r), range(r, p.degree + 1))


def _f_stirling_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    top = p.degree - r  # Delta^r p^(j)(0) is 0 for j > top, where deg p^(j) < r
    jumps = [_alternating(d, r) for d in _derivative_chain(p)[: top + 1]]
    coeffs = []
    for m in range(top + 1):
        acc = LambdaPoly.zero()
        for j in range(top, m - 1, -1):  # Horner in l: a product by l per step, not by l^(j-m)
            acc = acc * LAMBDA + jumps[j] * (stirling2(j, m) / factorial(j))
        coeffs.append(acc / Fraction(factorial(m + r), factorial(m)))
    return coeffs


# -- branch g: (p, r, [a_r, ..., a_n]) -> [a_0, ..., a_{min(r, n+1)-1}] -----------


def _g_by_antiderivatives(q: XPoly, m: int, k: int) -> LambdaPoly:
    """Delta^(m+k) [A^m q](0), which is Delta^k [I^m q](0) since Delta^m A^m = I^m."""
    for _ in range(m):
        q = q.antiderivative()
    return _alternating(q, m + k)


def _g_by_integrals(q: XPoly, m: int, k: int) -> LambdaPoly:
    """Delta^k [I^m q](0), with m unit-interval integrals."""
    for _ in range(m):
        q = integral_I(q)
    return _alternating(q, k)


def _g_by_stirling(q: XPoly, m: int, k: int) -> LambdaPoly:
    """Delta^k of ((e^t-1)/t)^m q = sum_l S2(l+m,m) m!/(l+m)! q^(l), at 0."""
    w = XPoly.zero()
    for l, d in enumerate(_derivative_chain(q)):
        coeff = stirling2(l + m, m) * Fraction(factorial(m), factorial(l + m))
        if coeff:
            w = w + d * coeff
    return _alternating(w, k)


def _g_composed(difference):
    """A g-route that applies ``difference(q_m, m, k)`` to the umbral composition q_m."""

    def route(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
        coeffs = []
        for k in range(min(r, p.degree + 1)):
            m = r - k
            composed = umbral_compose(p, lambda i: scaled_bernoulli(i, m))
            coeffs.append(difference(composed, m, k) / factorial(k))
        return coeffs

    return route


def _g_operator_functional(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    g = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    return _functionals(g**r, p, range(min(r, p.degree + 1)))


def _g_residual(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    # rest[j] is [x^j] of p minus every term a_k beta_k^(r) taken so far: first the
    # given k >= r, then k < r from the top down, where a_k is rest[k] itself.
    count = min(r, p.degree + 1)
    rest = list(p.coeffs[:count])
    for k in [*range(r, p.degree + 1), *reversed(range(count))]:
        a = upper[k - r] if k >= r else rest[k]
        beta = deg_bernoulli_order(k, r)
        for j in range(min(k, count)):
            rest[j] = rest[j] - a * beta.coeff(j)
    return rest


# -- the route table ------------------------------------------------------------

#: (branch, name) -> route. The first route of each branch is its default, chosen
#: by the per-route timings in BENCH_default_routes.json.
_ROUTES = {
    ("g", "umbral_integral"): _g_composed(_g_by_antiderivatives),
    ("g", "umbral_integral_op"): _g_composed(_g_by_integrals),
    ("g", "stirling_op"): _g_composed(_g_by_stirling),
    ("g", "operator_functional"): _g_operator_functional,
    ("g", "residual"): _g_residual,
    ("f", "stirling_sum"): _f_stirling_sum,
    ("f", "binomial_sum"): _f_binomial_sum,
    ("f", "delta_lambda"): _f_delta_lambda,
    ("f", "functional"): _f_functional,
}


def _names(branch: str) -> tuple[str, ...]:
    return tuple(name for b, name in _ROUTES if b == branch)


G_ROUTES, F_ROUTES = _names("g"), _names("f")


def expand(
    p: XPoly,
    r: int = 1,
    g_route: str = "umbral_integral",
    f_route: str = "stirling_sum",
) -> BasisExpansion:
    """Expand p in the order-r degenerate Bernoulli basis, 1 <= r <= the degree limit.

    Coefficients with k < r come from ``g_route``, those with k >= r from
    ``f_route``.
    """
    check_size("order r", r, 1)
    for branch, name in (("g", g_route), ("f", f_route)):
        if (branch, name) not in _ROUTES:
            raise ValueError(f"unknown {branch}_route {name!r}; options: {_names(branch)}")
    n = _validated(p)
    upper = _ROUTES["f", f_route](p, r) if r <= n else []
    lower = _ROUTES["g", g_route](p, r, upper)
    return BasisExpansion(
        order=r,
        degree=n,
        coeffs=(*lower, *upper),
        routes=(g_route,) * len(lower) + (f_route,) * len(upper),
        source=p,
    )


# Order-1 aliases for perfbench/layers.py, until ROADMAP's "Remove the order-1 aliases".
AK_ROUTES, A0_ROUTES = F_ROUTES, G_ROUTES
expand_higher = expand


def expand_order1(p: XPoly, ak_route: str, a0_route: str) -> BasisExpansion:
    return expand(p, 1, a0_route, ak_route)


def reconstruct(e: BasisExpansion) -> XPoly:
    """Rebuild the polynomial sum_k a_k beta_k^(order)(x)."""
    return umbral_compose(XPoly(e.coeffs), lambda k: deg_bernoulli_order(k, e.order))


def classical_limit(e: BasisExpansion) -> list[Fraction]:
    """Coefficients at l = 0; defined only for expansions of l-free polynomials."""
    if e.source is None:
        raise ValueError("expansion carries no source polynomial")
    if e.source.has_lambda:
        raise ValueError("classical limit requires an l-free source polynomial")
    return [c.coeff(0) for c in e.coeffs]


def crosscheck(p: XPoly, r: int = 1) -> BasisExpansion:
    """Expand p by every route and fail loudly on any mismatch.

    The default expansion comes first and is returned. Every other route runs
    once against it, a g-route reading its f-coefficients; no f-route runs
    when r > deg p, where every a_k is in branch g.
    """
    base = expand(p, r)
    upper = list(base.coeffs[r:])
    for (branch, name), route in _ROUTES.items():
        if name == _names(branch)[0] or (branch == "f" and r > base.degree):
            continue
        coeffs = route(p, r) if branch == "f" else route(p, r, upper)
        for k, value in enumerate(coeffs, r if branch == "f" else 0):
            if value != base.coeffs[k]:
                raise RouteMismatchError(k, base.routes[k], base.coeffs[k], name, value)
    return base
