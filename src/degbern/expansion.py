"""Expansion of polynomials in the degenerate Bernoulli bases.

Any p(x) of degree n has a unique exact expansion
p(x) = sum_{k=0}^{n} a_k beta_k(x) in the degenerate Bernoulli basis, and
more generally in the order-r basis. With f(t) = (e^{lt}-1)/l and
g(t) = l(e^t-1)/(e^{lt}-1), the order-1 coefficients are computable by
four equivalent routes for k >= 1

    functional     a_k = <f^{k-1} | p(x+1)-p(x)> / k!
    delta_lambda   a_k = D_l^{k-1} (p(x+1)-p(x)) |_{x=0} / (k! l^{k-1})
    binomial_sum   a_k = sum_j C(k-1,j)(-1)^{k-1-j}(p(1+jl)-p(jl)) / (k! l^{k-1})
    stirling_sum   a_k = (1/k) sum_l S2(l,k-1) l^{l-k+1}/l! (p^(l)(1)-p^(l)(0))

and three for the constant coefficient

    umbral_integral      a_0 = integral_0^1 of p with x^i replaced by l^i B_i(u/l)
    operator_functional  a_0 = <g(t) | p(x)>
    residual             a_0 = p(0) - sum_{k>=1} a_k beta_k(0)

For order r, coefficients with k < r come from an alternating sum over
g(t)^{r-k} p(j) (computed either through repeated unit-interval integrals
of an umbral composition, route ``umbral_integral_op``, or through a
Stirling-weighted derivative sum, route ``stirling_op``); coefficients
with k >= r come from an alternating sum over f(t)^{k-r} p(j) (either a
forward difference with symbolic step divided exactly by l^{k-r}, route
``delta_lambda``, or a Stirling sum, route ``stirling_sum``).

Every route is one entry of the table ``_ROUTES``, keyed by (branch, name)
with branches ``ak`` and ``a0`` (order 1) and ``g`` and ``f`` (order r).
The ``*_ROUTES`` name tuples, the route checks, expand_order1 (the r = 1
case), expand_higher and crosscheck all read that table; the first route
of each branch is its default.

All divisions by powers of l are exact divisions; a failure raises
ExactDivisionError and signals a formula-implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .core import LAMBDA, LambdaPoly, XPoly
from .families import deg_bernoulli, deg_bernoulli_order, scaled_bernoulli, stirling2
from .umbral import (
    delta_op,
    functional,
    integral_01,
    integral_I,
    scaled_bernoulli_op,
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
    """sum_j (-1)^(k-j) C(k,j) w(j), the k-th forward difference of w at 0."""
    acc = LambdaPoly.zero()
    for j in range(k + 1):
        acc = acc + w.eval_x(j) * Fraction((-1) ** (k - j) * comb(k, j))
    return acc


# -- the k >= r branch: "ak" at r = 1, "f" at any r; (p, r) -> [a_r, ..., a_n] --


def _ak_binomial_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    # h(jl) values shared across k; one exact division per coefficient.
    n = p.degree
    hvals = []
    for j in range(n):
        point = LambdaPoly({0: 1, 1: j}) if j else LambdaPoly.one()
        hvals.append(p.eval_x(point) - p.eval_x(LAMBDA * j))
    aks = []
    for k in range(1, n + 1):
        acc = LambdaPoly.zero()
        for j in range(k):
            acc = acc + hvals[j] * Fraction((-1) ** (k - 1 - j) * comb(k - 1, j))
        aks.append(acc.divexact(k - 1) / factorial(k))
    return aks


def _ak_delta_lambda(p: XPoly, r: int) -> list[LambdaPoly]:
    n = p.degree
    aks = []
    d = p.shift(1) - p
    for k in range(1, n + 1):
        aks.append(d.eval_x(0).divexact(k - 1) / factorial(k))
        if k < n:
            d = d.shift(LAMBDA) - d
    return aks


def _ak_functional(p: XPoly, r: int) -> list[LambdaPoly]:
    n = p.degree
    h = p.shift(1) - p
    f = delta_op(LAMBDA)
    power = f**0
    aks = []
    for k in range(1, n + 1):
        aks.append(functional(power, h) / factorial(k))
        if k < n:
            power = power * f
    return aks


def _ak_stirling_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    n = p.degree
    derivs = _derivative_chain(p)
    jumps = [d.eval_x(1) - d.eval_x(0) for d in derivs]
    aks = []
    for k in range(1, n + 1):
        acc = LambdaPoly.zero()
        for l in range(k - 1, n + 1):
            s2 = stirling2(l, k - 1)
            if s2:
                weight = LambdaPoly.monomial(l - k + 1, s2 / factorial(l))
                acc = acc + jumps[l] * weight
        aks.append(acc / k)
    return aks


def _f_delta_lambda(p: XPoly, r: int) -> list[LambdaPoly]:
    coeffs = []
    diff = p  # running forward difference D_l^{k-r} p
    for k in range(r, p.degree + 1):
        m = k - r
        if m > 0:
            diff = diff.shift(LAMBDA) - diff
        coeffs.append(_alternating(diff.divexact(m), r) / factorial(k))
    return coeffs


def _f_stirling_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    n = p.degree
    derivs = _derivative_chain(p)
    coeffs = []
    for k in range(r, n + 1):
        m = k - r
        acc = LambdaPoly.zero()
        for j in range(r + 1):
            sign = Fraction((-1) ** (r - j) * comb(r, j))
            inner = LambdaPoly.zero()
            for l in range(m, n + 1):
                s2 = stirling2(l, m)
                if s2:
                    weight = LambdaPoly.monomial(l - m, s2 * factorial(m) / factorial(l))
                    inner = inner + derivs[l].eval_x(j) * weight
            acc = acc + inner * sign
        coeffs.append(acc / factorial(k))
    return coeffs


# -- the k < r branch: "a0" at r = 1, "g" at any r; (p, r, upper) -> [a_0, ...] --


def _a0_umbral_integral(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    composed = umbral_compose(p, lambda i: scaled_bernoulli(i, 1))
    return [integral_01(composed)]


def _a0_operator_functional(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    g = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    return [functional(g, p)]


def _a0_residual(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    a0 = p.eval_x(0)
    for k, ak in enumerate(upper, start=1):
        a0 = a0 - ak * deg_bernoulli(k).eval_x(0)
    return [a0]


def _g_by_integrals(composed: XPoly, m: int, derivs_len: int) -> XPoly:
    """g(t)^m p as m unit-interval integrals of the umbral composition."""
    w = composed
    for _ in range(m):
        w = integral_I(w)
    return w


def _g_by_stirling(composed: XPoly, m: int, derivs_len: int) -> XPoly:
    """g(t)^m p as ((e^t-1)/t)^m = sum_l S2(l+m,m) m!/(l+m)! t^l on the composition."""
    w = XPoly.zero()
    d = composed
    for l in range(derivs_len):
        coeff = stirling2(l + m, m) * Fraction(factorial(m), factorial(l + m))
        if coeff:
            w = w + d * coeff
        if l + 1 < derivs_len:
            d = d.derivative()
    return w


def _g_branch(p: XPoly, r: int, g_power) -> list[LambdaPoly]:
    """a_k for k < r: the k-th difference at 0 of g(t)^{r-k} p, over k!."""
    n = p.degree
    coeffs = []
    for k in range(min(r, n + 1)):
        m = r - k
        composed = umbral_compose(p, lambda i: scaled_bernoulli(i, m))
        coeffs.append(_alternating(g_power(composed, m, n + 1), k) / factorial(k))
    return coeffs


# -- the route table ------------------------------------------------------------

#: (branch, name) -> route. The first route of each branch is its default.
_ROUTES = {
    ("ak", "binomial_sum"): _ak_binomial_sum,
    ("ak", "delta_lambda"): _ak_delta_lambda,
    ("ak", "functional"): _ak_functional,
    ("ak", "stirling_sum"): _ak_stirling_sum,
    ("a0", "umbral_integral"): _a0_umbral_integral,
    ("a0", "operator_functional"): _a0_operator_functional,
    ("a0", "residual"): _a0_residual,
    ("g", "umbral_integral_op"): lambda p, r, upper: _g_branch(p, r, _g_by_integrals),
    ("g", "stirling_op"): lambda p, r, upper: _g_branch(p, r, _g_by_stirling),
    ("f", "delta_lambda"): _f_delta_lambda,
    ("f", "stirling_sum"): _f_stirling_sum,
}


def _names(branch: str) -> tuple[str, ...]:
    return tuple(name for b, name in _ROUTES if b == branch)


AK_ROUTES, A0_ROUTES, G_ROUTES, F_ROUTES = (_names(b) for b in ("ak", "a0", "g", "f"))


def _assemble(p: XPoly, r: int, low: tuple[str, str], high: tuple[str, str]) -> BasisExpansion:
    """Coefficients k < r by route ``low``, k >= r by route ``high``."""
    for branch, name in (low, high):
        if (branch, name) not in _ROUTES:
            raise ValueError(f"unknown {branch}_route {name!r}; options: {_names(branch)}")
    n = _validated(p)
    upper = _ROUTES[high](p, r)
    lower = _ROUTES[low](p, r, upper)
    return BasisExpansion(
        order=r,
        degree=n,
        coeffs=(*lower, *upper),
        routes=(low[1],) * len(lower) + (high[1],) * len(upper),
        source=p,
    )


def expand_order1(
    p: XPoly,
    ak_route: str = "binomial_sum",
    a0_route: str = "umbral_integral",
) -> BasisExpansion:
    """Expand p in the degenerate Bernoulli basis (order 1)."""
    return _assemble(p, 1, ("a0", a0_route), ("ak", ak_route))


def expand_higher(
    p: XPoly,
    r: int,
    g_route: str = "umbral_integral_op",
    f_route: str = "delta_lambda",
) -> BasisExpansion:
    """Expand p in the order-r degenerate Bernoulli basis (r >= 1).

    Coefficients with k < r use the g-branch, coefficients with k >= r the
    f-branch; for r = 1 the result coincides with expand_order1 on every
    coefficient.
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"order r must be a positive integer, got {r!r}")
    return _assemble(p, r, ("g", g_route), ("f", f_route))


def expand(p: XPoly, r: int = 1, **route_options) -> BasisExpansion:
    """Expand p in the order-r basis with each route's default choices."""
    if r == 1 and not (set(route_options) & {"g_route", "f_route"}):
        return expand_order1(p, **route_options)
    return expand_higher(p, r, **route_options)


def reconstruct(e: BasisExpansion) -> XPoly:
    """Rebuild the polynomial sum_k a_k beta_k^(order)(x)."""
    out = XPoly.zero()
    for k, ak in enumerate(e.coeffs):
        if not ak.is_zero:
            out = out + deg_bernoulli_order(k, e.order) * ak
    return out


def classical_limit(e: BasisExpansion) -> list[Fraction]:
    """Coefficients at l = 0; defined only for expansions of l-free polynomials."""
    if e.source is None:
        raise ValueError("expansion carries no source polynomial")
    if e.source.has_lambda:
        raise ValueError("classical limit requires an l-free source polynomial")
    return [c.at_zero() for c in e.coeffs]


def _all_expansions(p: XPoly, r: int) -> list[BasisExpansion]:
    # At r = 1 each order-1 route runs once, beside the other branch's default;
    # the g/f routes run in every pairing. The default expansion comes first.
    out = []
    if r == 1:
        ak_default, a0_default = _names("ak")[0], _names("a0")[0]
        out += [expand_order1(p, ak, a0_default) for ak in _names("ak")]
        out += [expand_order1(p, ak_default, a0) for a0 in _names("a0")[1:]]
    out += [expand_higher(p, r, g, f) for g in _names("g") for f in _names("f")]
    return out


def crosscheck(p: XPoly, r: int = 1) -> BasisExpansion:
    """Compute the expansion by every route and fail loudly on any mismatch."""
    expansions = _all_expansions(p, r)
    base = expansions[0]
    for other in expansions[1:]:
        for k in range(base.degree + 1):
            if base.coeffs[k] != other.coeffs[k]:
                raise RouteMismatchError(
                    k, base.routes[k], base.coeffs[k], other.routes[k], other.coeffs[k]
                )
    return base
