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
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Any, Callable, Sequence

from .core import LambdaPoly, Scalar, TruncSeries, XPoly

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
    lazily to the operand's degree; the highest series built so far is
    cached (a benign race at worst rebuilds it).
    """

    __slots__ = ("_build", "_cached")

    def __init__(self, build: Callable[[int], TruncSeries]) -> None:
        self._build = build
        self._cached: TruncSeries | None = None

    @classmethod
    def from_coeff_fn(cls, fn: Callable[[int], LambdaPoly | Scalar]) -> "OperatorSeries":
        """Operator with ordinary t^k coefficient fn(k)."""
        return cls(lambda order: TruncSeries.from_fn(LambdaPoly, order, fn))

    def series(self, order: int) -> TruncSeries:
        cached = self._cached
        if cached is None or cached.order < order:
            cached = self._build(order)
            self._cached = cached
        if cached.order == order:
            return cached
        return cached.truncated(order)

    def coeff(self, k: int) -> LambdaPoly:
        return self.series(k).coeff(k)

    def __mul__(self, other: "OperatorSeries") -> "OperatorSeries":
        if not isinstance(other, OperatorSeries):
            return NotImplemented
        return OperatorSeries(lambda order: self.series(order) * other.series(order))

    def __pow__(self, r: int) -> "OperatorSeries":
        if not isinstance(r, int) or r < 0:
            raise ValueError("operator power must be a non-negative integer")
        if r == 1:
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
    """Apply the operator: f(t)p(x) = sum_k c_k p^(k)(x) with c_k = [t^k]f."""
    if p.is_zero:
        return XPoly.zero()
    ts = f.series(p.degree)
    out = XPoly.zero()
    d = p
    for k in range(p.degree + 1):
        c = ts.coeff(k)
        if not c.is_zero:
            out = out + d * c
        if k < p.degree:
            d = d.derivative()
    return out


def functional(f: OperatorSeries, p: XPoly) -> LambdaPoly:
    """The linear functional <f(t) | p(x)> = f(t)p(x) at x=0."""
    if p.is_zero:
        return LambdaPoly.zero()
    # <f|p> = sum_k c_k p^(k)(0) = sum_k c_k k! [x^k]p
    ts = f.series(p.degree)
    total = LambdaPoly.zero()
    for k in range(p.degree + 1):
        c = ts.coeff(k)
        if not c.is_zero:
            total = total + c * p.coeff(k) * factorial(k)
    return total


def forward_diff(p: XPoly, step: LambdaPoly | Scalar, n: int) -> XPoly:
    """n-th forward difference with step a: sum_i C(n,i)(-1)^{n-i} p(x+ia),
    taken as n successive differences q(x+a) - q(x).

    The step may be the symbol l itself; shifts are exact binomial
    compositions, no numeric substitution.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError("difference order must be a non-negative integer")
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
    """I p(x) = integral_x^{x+1} p(u) du, exact in Q[l]."""
    anti = p.antiderivative()
    return anti.shift(1) - anti


def integral_01(p: XPoly) -> LambdaPoly:
    """integral_0^1 p(u) du with l treated as a constant."""
    anti = p.antiderivative()
    return anti.eval_x(1) - anti.eval_x(0)


def umbral_compose(p: XPoly, family: Callable[[int], XPoly]) -> XPoly:
    """Substitute family(i) for x^i in the monomial expansion of p."""
    out = XPoly.zero()
    for i in range(p.degree + 1 if not p.is_zero else 0):
        b = p.coeff(i)
        if not b.is_zero:
            out = out + family(i) * b
    return out
