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

    stirling_sum   a_k = (m!/k!) sum_j S2(j,m) l^{j-m} w_j,
                   w_j = Delta^r p^(j)(0)/j! = [x^j] Delta^r p = r! sum_i C(i,j) S2(i-j,r) p_i
    binomial_sum   a_k = sum_i C(m,i)(-1)^{m-i} h_i / (k! l^m),  h_i = Delta^r p(il)
    delta_lambda   a_k = D_l^m Delta^r p(0) / (k! l^m)
    functional     a_k = <f(t)^m | Delta^r p> / k!

Branch g, with m = r - k, S = lt/(e^{lt}-1) and q_m = S^m p, that is p with
x^i replaced by l^i B_i^(m)(x/l):

    umbral_integral      a_k = Delta^r [A^m q_m](0) / k!,  A the antiderivative
    umbral_integral_op   a_k = Delta^k [(I S)^m p](0) / k!,  I q(x) = integral_x^{x+1} q
    stirling_op          a_k = Delta^k [sum_j S2(j+m,m) m!/(j+m)! q_m^(j)](0) / k!
    operator_functional  a_k = <g(t)^m (e^t-1)^k | p> / k! = <g(t)^r f(t)^k | p> / k!
    residual             a_k = [x^k](p - sum_{j>k} a_j beta_j^(r)), top down

The first and the second g-routes agree because Delta^m A^m = I^m on
polynomials and I commutes with S, so I^m q_m = (I S)^m p; the second
takes its powers as one chain of r steps. stirling_op applies I^m as the
series ((e^t-1)/t)^m. residual uses that beta_k^(r) is monic of degree k
and reads the f-branch coefficients it is given. At r = 1 the f-branch
gives a_k for k >= 1 from p(x+1)-p(x), and umbral_integral is
a_0 = integral_0^1 q_1.

Every route is one entry of the table ``_ROUTES``, keyed by (branch, name).
The ``*_ROUTES`` name tuples, the route checks, expand and crosscheck all
read that table; the first route of each branch is its default.

The two defaults are int linear maps of the coefficients p_i: stirling_sum
with weights C(i,j) r! S2(i-j,r), the rows of ``umbral.forward_diff``'s
Delta^r, then S2(j,m) l^(j-m); umbral_integral with C(i,j) B_(i-j)^(m)
l^(i-j), then (m+k)! S2(j+m,m+k) / (perm(j+m,m) k!), each over one lcm.
Those weights belong to the basis, not to p: they depend only on the degree
and r, and p supplies the values they multiply. So each default builds them
once into an immutable plan (``core._packed_plan``: the rows of weights and
the l1 bound of their sums) and hands plan and p to ``core._packed_sums``,
which sums them on packed rows: each p_i packed once into one int, each term
one int multiply-add, each power of l a shift. ``_f_plan`` keeps a plan per
(degree, r), whose rows are the row tuples of ``umbral._diff_plan`` at
(degree, r), and ``_g_plan`` one per (degree, r, k). Every plan is dense, so
p's zero coefficients take part as zeros, and the degree guard bounds it.
Every other route sums with ``core._dot``, except that delta_lambda,
functional and umbral_integral_op take their unit differences
(``forward_diff`` by 1, ``integral_I``) on the same packed Delta^k plans.
binomial_sum, stirling_op, operator_functional and residual take no packed
sum, so crosscheck still compares two independent kernels in each branch.

reconstruct reads no member either. The basis is Appell in the degenerate
falling factorials, beta_k^(r)(x) = sum_i C(k,i) c_(k-i) (x)_(i,l) with the
numbers c_t = beta_t^(r)(0), so sum_k a_k beta_k^(r)(x) = sum_i d_i (x)_(i,l)
with d_i = sum_(k>=i) C(k,i) c_(k-i) a_k, the Sheffer connection constants
(S. Roman, The Umbral Calculus, 1984). The d_i are sums of products on
packed rows (``core._packed_products``), kept as int rows over one
denominator, and sum_i s(i,j) l^(i-j) d_i is ``core._row_sums`` of those rows
on a plan of Stirling numbers of the first kind, so only p's coefficients get
a gcd, one each. ``_degree_plan`` keeps the binomial terms of the d_i and that
plan per degree, shared by every r. The residual g-route still reads the
members, so crosscheck checks the same basis through them, and crosscheck
ends by rebuilding p with reconstruct.

All divisions by powers of l are exact divisions; a failure raises
ExactDivisionError and signals a formula-implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, perm

from .core import (
    LAMBDA,
    LambdaPoly,
    XPoly,
    _cached,
    _dot,
    _over_lcm,
    _packed_plan,
    _packed_products,
    _packed_sums,
    _PackedPlan,
    _row_sums,
    _stirling1_rows,
    _stirling2_rows,
)
from .families import _numbers, deg_bernoulli_order, scaled_bernoulli
from .parser import check_size
from .umbral import (
    OperatorSeries,
    _diff_plan,
    _jumps,
    apply,
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
    """Two supposedly equivalent coefficient routes disagreed: at a_k, or, with
    ``of_x``, at the coefficient of x^k of p and of its reconstruction."""

    def __init__(self, k: int, route_a: str, value_a, route_b: str, value_b, *, of_x: bool = False):
        self.k = k
        self.route_a = route_a
        self.value_a = value_a
        self.route_b = route_b
        self.value_b = value_b
        super().__init__(
            f"coefficient {f'of x^{k}' if of_x else f'a_{k}'} differs between routes: "
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
    check_size("degree", p.degree)
    return p.degree


def _alternating(w: XPoly, k: int) -> LambdaPoly:
    """The k-th forward difference of w at 0, as one kernel dot product:
    Delta^k w(0) = sum_i [x^i]w Delta^k x^i(0), which is 0 for k > deg w."""
    return _dot(zip(w.coeffs[k:], _jumps(k, len(w.coeffs))[k:]))


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
            d = forward_diff(d, LAMBDA, 1)
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


@_cached(64)
def _f_plan(n: int, r: int) -> _PackedPlan:
    """stirling_sum's weights at degree n and order r: the row tuples of
    ``umbral._diff_plan(n, r)``, then the sums S2(j,m) l^(j-m) w_j."""
    top = n - r  # [x^j] Delta^r p is 0 for j > top
    s2 = _stirling2_rows(top)
    sums = [(perm(m + r, r), [(j, s2[j][m]) for j in range(m, top + 1)]) for m in range(top + 1)]
    return _packed_plan(_diff_plan(n, r).rows, sums)


def _f_stirling_sum(p: XPoly, r: int) -> list[LambdaPoly]:
    """a_{m+r} = m!/(m+r)! sum_j S2(j,m) l^(j-m) w_j, w_j = [x^j] Delta^r p, on packed rows."""
    return _packed_sums(p.coeffs, _f_plan(p.degree, r))


# -- branch g: (p, r, [a_r, ..., a_n]) -> [a_0, ..., a_{min(r, n+1)-1}] -----------


def _g_umbral_integral_op(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    """a_k = Delta^k u_m(0) / k!, m = r - k, on the chain u_0 = p, u_m = I(S u_(m-1))."""
    scaled = [scaled_bernoulli(i, 1) for i in range(p.degree + 1)]
    chain = [p]
    for _ in range(r):
        chain.append(integral_I(umbral_compose(chain[-1], scaled.__getitem__)))
    return [_alternating(chain[r - k], k) / factorial(k) for k in range(min(r, p.degree + 1))]


def _g_stirling_op(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    """a_k = Delta^k of ((e^t-1)/t)^m q_m = sum_j S2(j+m,m) m!/(j+m)! q_m^(j), at 0, over k!."""
    coeffs = []
    for k in range(min(r, p.degree + 1)):
        m = r - k
        weights = OperatorSeries.from_coeff_fn(lambda j: Fraction(_stirling2_rows(j + m)[j + m][m], perm(j + m, j)))
        q = umbral_compose(p, lambda i: scaled_bernoulli(i, m))
        coeffs.append(_alternating(apply(weights, q), k) / factorial(k))
    return coeffs


# 64 plans: one expand at the top order r = 64 reads one per a_k with k < r.
@_cached(64)
def _g_plan(n: int, r: int, k: int) -> _PackedPlan:
    """umbral_integral's weights for a_k at degree n and order r: s_t l^t for the
    sum and, for each t, the row C(i,t) cw_(i-t) over i = t..n."""
    m = r - k
    jump = _jumps(r, n + r + 1)
    s, s_den = _over_lcm([c.coeff(0) for c in _numbers("bernoulli_r", m, n)[: n + 1]])
    cw, cw_den = _over_lcm([Fraction(jump[j + m], perm(j + m, m) * factorial(k)) for j in range(n + 1)])
    rows = [
        [(i, cw[i - t] * comb(i, t)) for i in range(t, n + 1) if cw[i - t]] if st else []
        for t, st in enumerate(s)
    ]
    return _packed_plan(rows, [(s_den * cw_den, list(enumerate(s)))])


def _g_umbral_integral(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    """a_k = Delta^(m+k) [A^m q_m](0) / k!, m = r - k, on packed rows.

    A^m maps x^j to x^(j+m) j!/(j+m)!, Delta^(m+k) x^i at 0 is (m+k)! S2(i,m+k) and
    [x^j] q_m = sum_i C(i,j) s_(i-j) l^(i-j) p_i with s_t = B_t^(m), so
    a_k = sum_t s_t l^t y_t, y_t = sum_j cw_j C(j+t,j) p_(j+t) and
    cw_j = r! S2(j+m,r) j! / ((j+m)! k!).
    """
    n = p.degree
    return [a for k in range(min(r, n + 1)) for a in _packed_sums(p.coeffs, _g_plan(n, r, k))]


def _g_operator_functional(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    g = unit_integral_op() * scaled_bernoulli_op(LAMBDA)
    return _functionals(g**r, p, range(min(r, p.degree + 1)))


def _g_residual(p: XPoly, r: int, upper: list[LambdaPoly]) -> list[LambdaPoly]:
    # rest[j] is [x^j] of p minus every term a_k beta_k^(r) taken so far: first the
    # given k >= r, then k < r from the top down, where a_k is rest[k] itself.
    count = min(r, p.degree + 1)
    rest = list(p.coeffs[:count])
    deg_bernoulli_order(p.degree, r)  # the top member first: cold numbers grow once
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
    ("g", "umbral_integral"): _g_umbral_integral,
    ("g", "umbral_integral_op"): _g_umbral_integral_op,
    ("g", "stirling_op"): _g_stirling_op,
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


@_cached(64)
def _degree_plan(n: int) -> tuple[tuple[tuple[tuple[int, int, int], ...], ...], _PackedPlan]:
    """What reconstruct reads at degree n for every r: for each i the terms
    (k - i, k, C(k,i)) of d_i, and the plan of [x^j] sum_i d_i (x)_(i,l) =
    sum_i s(i,j) l^(i-j) d_i over d_0..d_n."""
    terms = tuple(tuple((k - i, k, comb(k, i)) for k in range(i, n + 1)) for i in range(n + 1))
    s1 = _stirling1_rows(n)
    sums = [(1, [(i, s1[i][j]) for i in range(j, n + 1)]) for j in range(n + 1)]
    return terms, _packed_plan([[(i, 1)] for i in range(n + 1)], sums)


def reconstruct(e: BasisExpansion) -> XPoly:
    """Rebuild the polynomial sum_k a_k beta_k^(order)(x) from the order-r numbers
    alone, as sum_i d_i (x)_(i,l) on packed rows; the module docstring says how."""
    terms, plan = _degree_plan(e.degree)
    d, den = _packed_products(_numbers("deg_bernoulli_r", e.order, e.degree)[: e.degree + 1], e.coeffs, terms)
    return XPoly._make(_row_sums(d, den, plan))


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
    when r > deg p, where every a_k is in branch g. Last, reconstruct must
    rebuild p from it; if not, k of the error is the lowest power of x that differs.
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
    back, k = reconstruct(base), 0
    if back != p:
        while back.coeff(k) == p.coeff(k):
            k += 1
        raise RouteMismatchError(k, "p", p.coeff(k), "reconstruct", back.coeff(k), of_x=True)
    return base
