"""Operator calculus on polynomials.

A formal power series f(t) = sum_k a_k t^k/k! acts on a polynomial three
ways: as a differential operator (t is d/dx, so f(t)p = sum_k (a_k/k!) p^(k)),
as a linear functional (<f|p> = f(t)p(x) evaluated at x=0), and as a plain
series. OperatorSeries carries the series form with a truncation policy
that auto-extends to the degree of the operand, so applying an operator to
a degree-n polynomial consumes exactly the coefficients of t^0..t^n.

Also here: forward differences with a possibly symbolic step and of a
value sequence, the unit interval integral operator
I q(x) = integral_{x}^{x+1} q(u) du, definite integration over [0,1], and
umbral composition.

Delta = e^t - 1 and I = (e^t - 1)/t act as int linear maps. With A the
antiderivative (zero constant term), A^a x^j = x^(j+a) j!/(j+a)! and
I^a = Delta^a A^a on polynomials. Delta^k with a rational step is one map
[x^j] Delta^k p = sum_i C(i,j) k! S2(i-j,k) p_i, whose int weights depend only
on (deg p, k): ``_diff_plan`` keeps them as a dense plan for
``core._packed_sums``, which sums them on packed rows. ``expansion``'s
stirling_sum route reads the same row tuples as its first stage.
So I^a p is Delta^a A^a p, one map, and ``integral_I`` is its a = 1. Any
other step takes p(x + c) - p(x) by ``XPoly.shift``, once per difference.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, perm
from typing import Any, Callable, Sequence

from .core import (
    LambdaPoly, Scalar, TruncSeries, XPoly, _cached, _check_index, _dot, _packed_plan, _packed_sums, _PackedPlan,
    _stirling2_rows, _Table,
)

__all__ = [
    "OperatorSeries",
    "apply",
    "delta_op",
    "exp_op",
    "forward_diff",
    "functional",
    "integral_01",
    "integral_I",
    "monomial_op",
    "scaled_bernoulli_op",
    "sequence_diff",
    "umbral_compose",
    "unit_integral_op",
]


def _lp(value: LambdaPoly | Scalar) -> LambdaPoly:
    if isinstance(value, LambdaPoly):
        return value
    return LambdaPoly.const(value)


class OperatorSeries:
    """A power series over Q[l] used as an operator on XPoly.

    Wraps a builder ``order -> TruncSeries`` so truncation always extends
    lazily to the operand's degree; the coefficients built so far are kept in
    a ``core._Table``, so threads may read one operator at once. A cold table
    is built to the order read, a held one to at least twice its order, so
    reads at rising orders call the builder O(log order) times.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, build: Callable[[int], TruncSeries]) -> None:
        self._coeffs = _Table(lambda coeffs, order: build(max(order, 2 * len(coeffs) - 2)).coeffs)

    @classmethod
    def from_coeff_fn(cls, fn: Callable[[int], LambdaPoly | Scalar]) -> "OperatorSeries":
        """Operator with ordinary t^k coefficient fn(k)."""
        return cls(lambda order: TruncSeries.from_fn(LambdaPoly, order, fn))

    def series(self, order: int) -> TruncSeries:
        return TruncSeries(LambdaPoly, order, self._coeffs(order)[: order + 1])

    def coeff(self, k: int) -> LambdaPoly:
        return self.series(k).coeff(k)

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        return OperatorSeries(lambda order: self.series(order) * other.series(order))

    def __pow__(self, r: int) -> "OperatorSeries":
        if _check_index(r, "operator power") == 1:
            return self
        return OperatorSeries(lambda order: self.series(order) ** r)

    def inverse(self) -> "OperatorSeries":
        return OperatorSeries(lambda order: self.series(order).inverse())


def exp_op(y: LambdaPoly | Scalar) -> OperatorSeries:
    """e^{yt}: the shift operator p(x) -> p(x+y)."""
    y = _lp(y)
    return OperatorSeries.from_coeff_fn(lambda k: y**k / factorial(k))


def monomial_op(k: int) -> OperatorSeries:
    """t^k: the k-th derivative as a falling-factorial action on monomials."""
    return OperatorSeries.from_coeff_fn(lambda j: 1 if j == k else 0)


def delta_op(step: LambdaPoly | Scalar) -> OperatorSeries:
    """(e^{st}-1)/s: maps p to (p(x+s)-p(x))/s, exact even for symbolic s."""
    step = _lp(step)
    return OperatorSeries.from_coeff_fn(
        lambda k: LambdaPoly.zero() if k == 0 else step ** (k - 1) / factorial(k)
    )


def unit_integral_op() -> OperatorSeries:
    """(e^t-1)/t: the series form of I q(x) = integral_x^{x+1} q(u) du."""
    return OperatorSeries.from_coeff_fn(lambda k: Fraction(1, factorial(k + 1)))


def scaled_bernoulli_op(step: LambdaPoly | Scalar) -> OperatorSeries:
    """st/(e^{st}-1): maps x^n to s^n B_n(x/s)."""
    step = _lp(step)
    base = OperatorSeries.from_coeff_fn(lambda k: step**k / factorial(k + 1))
    return base.inverse()


def apply(f: OperatorSeries, p: XPoly) -> XPoly:
    """Apply the operator: f(t)p(x) = sum_k c_k p^(k)(x) with c_k = [t^k]f.

    [x^i] f(t)p = (1/i!) sum_k c_k (i+k)! p_(i+k), one kernel dot product per i.
    """
    if p.is_zero:
        return XPoly.zero()
    ts = f._coeffs(p.degree)
    scaled = [c * factorial(j) for j, c in enumerate(p.coeffs)]
    return XPoly._make([_dot(zip(ts, scaled[i:])) / factorial(i) for i in range(len(scaled))])


def functional(f: OperatorSeries, p: XPoly) -> LambdaPoly:
    """The linear functional <f(t) | p(x)> = f(t)p(x) at x=0,
    sum_k c_k k! [x^k]p as one kernel dot product."""
    if p.is_zero:
        return LambdaPoly.zero()
    ts = f._coeffs(p.degree)
    return _dot(zip(ts, (c * factorial(k) for k, c in enumerate(p.coeffs))))


def _jumps(k: int, size: int) -> list[int]:
    """Delta^k x^i at 0, that is k! S2(i,k), for i = 0..size-1."""
    weight = factorial(k)
    return [weight * row[k] if k < len(row) else 0 for row in _stirling2_rows(size - 1)[:size]]


# 64 plans: the verify sweep reads about 60 (degree, k) pairs.
@_cached(64)
def _diff_plan(n: int, k: int) -> _PackedPlan:
    """Delta^k at degree n as a dense plan for ``core._packed_sums``: output j is
    row j, the int weights (i, C(i,j) k! S2(i-j,k)) of [x^j] Delta^k p."""
    jump = _jumps(k, n + 1)
    rows = [[(i, comb(i, j) * jump[i - j]) for i in range(j + k, n + 1)] for j in range(n - k + 1)]
    return _packed_plan(rows, [(1, [(j, 1)]) for j in range(n - k + 1)])


def forward_diff(p: XPoly, step: LambdaPoly | Scalar, n: int) -> XPoly:
    """n-th forward difference with step a: sum_i C(n,i)(-1)^{n-i} p(x+ia).

    A rational step is one int-weighted map on packed rows, for every n: with
    q(y) = p(ay), Delta_a^n p(x) = (Delta^n q)(x/a), and
    [x^j] Delta^n q = sum_i C(i,j) n! S2(i-j,n) q_i, whose weights depend only
    on (deg p, n); ``_diff_plan`` keeps them. Any other step, such as the
    symbol l itself, takes n successive differences p(x+a) - p(x) by exact
    shifts, no numeric substitution. Each difference lowers the degree by one,
    so for n > deg p the result is 0 at once, whatever the step.
    """
    if _check_index(n, "difference order") > p.degree:
        return XPoly.zero()
    if isinstance(step, LambdaPoly) and step.degree == 0:
        step = step.coeff(0)
    if isinstance(step, (int, Fraction)) and step:
        coeffs = p.coeffs
        if step != 1:
            coeffs = [c * step**i for i, c in enumerate(coeffs)]
        out = _packed_sums(coeffs, _diff_plan(p.degree, n))
        if step != 1:
            out = [c / step**j for j, c in enumerate(out)]
        return XPoly._make(out)
    for _ in range(n):
        p = p.shift(step) - p
    return p


def sequence_diff(values: Sequence[Any], k: int) -> Any:
    """sum_j (-1)^(k-j) C(k,j) values[j], the k-th forward difference of the sequence at 0."""
    acc = values[k]
    for j in range(k):
        weight = (-1) ** (k - j) * comb(k, j)
        if weight == 1:
            acc = acc + values[j]
        elif weight == -1:
            acc = acc - values[j]
        else:
            acc = acc + values[j] * weight
    return acc


def integral_I(p: XPoly) -> XPoly:
    """I p(x) = integral_x^{x+1} p(u) du = Delta(A p), A the antiderivative; exact in Q[l]."""
    return _integral_power(p, 1)


def _integral_power(p: XPoly, a: int, scale: int = 1) -> XPoly:
    """scale I^a p as Delta^a [scale A^a p], one ``forward_diff`` map in place of a
    successive unit integrals: A^a maps x^j to x^(j+a) j!/(j+a)!, and
    I^a = Delta^a A^a on polynomials (S. Roman, The Umbral Calculus, 1984)."""
    anti = [c * Fraction(scale, perm(j + a, a)) for j, c in enumerate(p.coeffs)]
    return forward_diff(XPoly._make([XPoly._ZERO] * a + anti), 1, a)


def integral_01(p: XPoly) -> LambdaPoly:
    """integral_0^1 p(u) du with l treated as a constant."""
    anti = p.antiderivative()
    return anti.eval_x(1) - anti.eval_x(0)


def umbral_compose(p: XPoly, family: Callable[[int], XPoly]) -> XPoly:
    """Substitute family(i) for x^i in the monomial expansion of p.

    [x^j] of the result is the dot product sum_i p_i [x^j]family(i), summed
    by the kernel in ints over one denominator. The members are read from the
    top degree down, so the first read grows a cold table in one step.
    """
    terms = [(family(i).coeffs, b) for i, b in reversed(list(enumerate(p.coeffs))) if b]
    size = max((len(f) for f, _ in terms), default=0)
    return XPoly._make([_dot((f[j], b) for f, b in terms if j < len(f)) for j in range(size)])
