"""Exact arithmetic kernel: rationals, polynomials in the deformation
parameter ``l``, polynomials in ``x`` over Q[l], and truncated power series.

Every value is immutable and every operation exact; there is no floating
point anywhere. The coefficient ring is Q[l] (polynomials), deliberately
not the fraction field Q(l): the only divisions by ``l`` the expansion
formulas need are exact, and ``divexact`` raises ExactDivisionError when
exactness fails, so an algebra bug surfaces as a loud error instead of a
silently wrong rational function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

__all__ = [
    "ExactDivisionError",
    "LAMBDA",
    "LambdaPoly",
    "NEG_INFINITY",
    "Scalar",
    "TruncSeries",
    "XPoly",
]

Scalar = Union[int, Fraction]

#: degree of the zero polynomial
NEG_INFINITY = -math.inf


class ExactDivisionError(ArithmeticError):
    """A division the algebra promises to be exact left a remainder."""


def _fr(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def _convolve(a: Sequence, b: Sequence, zero, size: int) -> list:
    """Coefficients 0..size-1 of the product of the coefficient sequences a and b."""
    out = [zero] * size
    for i, x in enumerate(a[:size]):
        if not x:
            continue
        for j, y in enumerate(b[: size - i]):
            if y:
                out[i + j] = out[i + j] + x * y
    return out


class _Ring:
    """The operators each ring class derives from its own ``+``, unary ``-``,
    ``*`` and ``_unit()``. Every ring here is commutative, so the reflected
    operators just swap operands."""

    __slots__ = ()

    def _unit(self):
        return self.one()

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        """Exact division by a nonzero int or Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.__mul__(Fraction(other.denominator, other.numerator))  # ZeroDivisionError at 0

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = self._unit(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


class LambdaPoly(_Ring):
    """Sparse polynomial in ``l`` with exact rational coefficients.

    Zero coefficients are never stored; two values are equal iff their
    canonical term maps are equal. Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | None = None) -> None:
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                if not isinstance(exp, int) or exp < 0:
                    raise ValueError(f"invalid l-exponent {exp!r}")
                coeff = _fr(coeff)
                if coeff:
                    clean[exp] = coeff
        self._terms = clean

    @classmethod
    def zero(cls) -> "LambdaPoly":
        return cls()

    @classmethod
    def one(cls) -> "LambdaPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, value: Scalar) -> "LambdaPoly":
        return cls({0: value})

    @classmethod
    def lam(cls) -> "LambdaPoly":
        """The generator ``l`` itself."""
        return cls({1: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LambdaPoly":
        return cls({exponent: coeff})

    # -- structure ---------------------------------------------------------

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return tuple(sorted(self._terms.items()))

    def coeff(self, exponent: int) -> Fraction:
        return self._terms.get(exponent, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | float:
        return max(self._terms) if self._terms else NEG_INFINITY

    def as_rational(self) -> Fraction:
        if self.degree > 0:
            raise ValueError(f"{self} is not a rational constant")
        return self._terms.get(0, Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LambdaPoly | None":
        if isinstance(other, LambdaPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LambdaPoly.const(other)
        return None

    def __add__(self, other) -> "LambdaPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            terms[exp] = terms.get(exp, Fraction(0)) + coeff
        return LambdaPoly(terms)

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other) -> "LambdaPoly":
        if not isinstance(other, LambdaPoly):  # tested first: isinstance(_, Fraction) is slow on a miss
            if isinstance(other, (int, Fraction)):
                return LambdaPoly({e: c * other for e, c in self._terms.items()})
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LambdaPoly(out)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- evaluation and exact division ---------------------------------------

    def subs(self, value: Scalar) -> Fraction:
        """Evaluate at l = value."""
        value = _fr(value)
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            total += coeff * value**exp
        return total

    def divexact(self, k: int) -> "LambdaPoly":
        """Exact division by l**k; every term must have exponent >= k."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("k must be a non-negative integer")
        if k == 0:
            return self
        for exp in self._terms:
            if exp < k:
                raise ExactDivisionError(f"{self} is not divisible by l^{k}")
        return LambdaPoly({e - k: c for e, c in self._terms.items()})

    def inv_unit(self) -> "LambdaPoly":
        """Multiplicative inverse, defined only for nonzero rational constants."""
        if self.degree != 0:
            raise ValueError(f"{self} is not a unit (nonzero rational constant)")
        return LambdaPoly.const(1 / self._terms[0])

    # -- formatting ------------------------------------------------------------

    def _single(self) -> tuple[int, Fraction] | None:
        if len(self._terms) == 1:
            return next(iter(self._terms.items()))
        return None

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            mag = abs(coeff)
            if exp == 0:
                body = str(mag)
            else:
                var = "l" if exp == 1 else f"l^{exp}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"


LAMBDA = LambdaPoly.lam()


class XPoly(_Ring):
    """Dense polynomial in ``x`` with LambdaPoly coefficients.

    Coefficients are indexed by x-exponent; trailing zeros are stripped so
    the leading coefficient of a nonzero value is nonzero. Instances are
    immutable; evaluation at rational points is a ring homomorphism.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[LambdaPoly | Scalar] = ()) -> None:
        lst: list[LambdaPoly] = []
        for c in coeffs:
            if not isinstance(c, LambdaPoly):
                c = LambdaPoly.const(c)
            lst.append(c)
        while lst and lst[-1].is_zero:
            lst.pop()
        self._coeffs = tuple(lst)

    @classmethod
    def zero(cls) -> "XPoly":
        return cls()

    @classmethod
    def one(cls) -> "XPoly":
        return cls((LambdaPoly.one(),))

    @classmethod
    def x(cls) -> "XPoly":
        return cls((LambdaPoly.zero(), LambdaPoly.one()))

    @classmethod
    def const(cls, value: LambdaPoly | Scalar) -> "XPoly":
        if not isinstance(value, LambdaPoly):
            value = LambdaPoly.const(value)
        return cls((value,))

    @classmethod
    def monomial(cls, exponent: int, coeff: LambdaPoly | Scalar = 1) -> "XPoly":
        if exponent < 0:
            raise ValueError("negative x-exponent")
        if not isinstance(coeff, LambdaPoly):
            coeff = LambdaPoly.const(coeff)
        return cls((LambdaPoly.zero(),) * exponent + (coeff,))

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[LambdaPoly, ...]:
        return self._coeffs

    def coeff(self, exponent: int) -> LambdaPoly:
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return LambdaPoly.zero()

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def leading(self) -> LambdaPoly:
        return self._coeffs[-1] if self._coeffs else LambdaPoly.zero()

    @property
    def has_lambda(self) -> bool:
        return any(c.degree > 0 for c in self._coeffs)

    # -- arithmetic --------------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "XPoly | None":
        if isinstance(other, XPoly):
            return other
        if isinstance(other, (int, Fraction, LambdaPoly)):
            return XPoly.const(other)
        return None

    def __add__(self, other) -> "XPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    def __neg__(self) -> "XPoly":
        return XPoly(tuple(-c for c in self._coeffs))

    def __mul__(self, other) -> "XPoly":
        if not isinstance(other, XPoly):
            if isinstance(other, (int, Fraction, LambdaPoly)):
                return XPoly(tuple(c * other for c in self._coeffs))
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return XPoly.zero()
        return XPoly(_convolve(a, b, LambdaPoly.zero(), len(a) + len(b) - 1))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- calculus -----------------------------------------------------------------

    def derivative(self, order: int = 1) -> "XPoly":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = XPoly(tuple(c * (i + 1) for i, c in enumerate(p._coeffs[1:])))
        return p

    def antiderivative(self) -> "XPoly":
        """The antiderivative with zero constant term, exact in Q[l]."""
        out = [LambdaPoly.zero()]
        out.extend(c / (i + 1) for i, c in enumerate(self._coeffs))
        return XPoly(out)

    def shift(self, c: LambdaPoly | Scalar) -> "XPoly":
        """The composition p(x + c) for a constant c in Q[l], by the Taylor
        shift [x^j] p(x+c) = sum_{i>=j} C(i,j) c^(i-j) a_i."""
        if isinstance(c, LambdaPoly) and c.degree <= 0:
            c = c.coeff(0)  # a rational c keeps every term a scalar multiply
        a = self._coeffs
        if not c or not a:
            return self
        powers = [1]
        for _ in range(1, len(a)):
            powers.append(powers[-1] * c)
        out = []
        for j in range(len(a)):
            acc = LambdaPoly.zero()
            for i in range(j, len(a)):
                if a[i]:
                    acc = acc + a[i] * (powers[i - j] * math.comb(i, j))
            out.append(acc)
        return XPoly(out)

    def eval_x(self, c: LambdaPoly | Scalar) -> LambdaPoly:
        """Evaluate at x = c, with c a constant in Q[l]; result in Q[l]."""
        if not isinstance(c, LambdaPoly):
            c = LambdaPoly.const(c)
        total = LambdaPoly.zero()
        for coeff in reversed(self._coeffs):
            total = total * c + coeff
        return total

    def subs_lambda(self, value: Scalar) -> "XPoly":
        """Specialize l to a rational value, keeping x symbolic."""
        return XPoly(tuple(LambdaPoly.const(c.subs(value)) for c in self._coeffs))

    def divexact(self, k: int) -> "XPoly":
        """Exact coefficient-wise division by l**k."""
        return XPoly(tuple(c.divexact(k) for c in self._coeffs))

    def inv_unit(self) -> "XPoly":
        if self.degree != 0:
            raise ValueError(f"{self} is not a unit (nonzero rational constant)")
        return XPoly.const(self._coeffs[0].inv_unit())

    # -- formatting -------------------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for k in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[k]
            if c.is_zero:
                continue
            xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            single = c._single()
            if single is not None:
                exp, value = single
                negative = value < 0
                mag = LambdaPoly.monomial(exp, abs(value))
                scalar = str(mag)
                if xpart and scalar == "1":
                    body = xpart
                elif xpart:
                    body = f"{scalar}*{xpart}"
                else:
                    body = scalar
            else:
                negative = False
                body = f"({c})*{xpart}" if xpart else f"({c})"
            if not parts:
                parts.append(f"-{body}" if negative else body)
            else:
                parts.append(f" - {body}" if negative else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"XPoly({self})"


class TruncSeries(_Ring):
    """Formal power series in t truncated at a fixed order N (t^0..t^N kept).

    Coefficients are plain ring elements (LambdaPoly or XPoly); coeff(k)
    multiplies t^k. Arithmetic never reads or writes beyond index N, and
    binary operations require both operands to share the same order.
    """

    __slots__ = ("_ring", "_order", "_coeffs")

    def __init__(self, ring: type, order: int, coeffs: Iterable = ()) -> None:
        if not isinstance(order, int) or order < 0:
            raise ValueError("truncation order must be a non-negative integer")
        lst = []
        for c in coeffs:
            if not isinstance(c, ring):
                c = ring.const(c)
            lst.append(c)
        if len(lst) > order + 1:
            raise ValueError("more coefficients than the truncation order allows")
        zero = ring.zero()
        lst.extend(zero for _ in range(order + 1 - len(lst)))
        self._ring = ring
        self._order = order
        self._coeffs = tuple(lst)

    @classmethod
    def one(cls, ring: type, order: int) -> "TruncSeries":
        return cls(ring, order, (ring.one(),))

    @classmethod
    def from_fn(cls, ring: type, order: int, fn: Callable[[int], object]) -> "TruncSeries":
        return cls(ring, order, [fn(k) for k in range(order + 1)])

    @property
    def ring(self) -> type:
        return self._ring

    @property
    def order(self) -> int:
        return self._order

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def coeff(self, k: int):
        if not 0 <= k <= self._order:
            raise IndexError(f"coefficient index {k} outside truncation order {self._order}")
        return self._coeffs[k]

    def truncated(self, order: int) -> "TruncSeries":
        if order > self._order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self._ring, order, self._coeffs[: order + 1])

    def map_coeffs(self, fn: Callable, ring: type | None = None) -> "TruncSeries":
        return TruncSeries(ring or self._ring, self._order, [fn(c) for c in self._coeffs])

    def _check(self, other: "TruncSeries") -> None:
        if self._ring is not other._ring:
            raise ValueError("series are over different coefficient rings")
        if self._order != other._order:
            raise ValueError(f"order mismatch: {self._order} vs {other._order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        return TruncSeries(
            self._ring, self._order, [a + b for a, b in zip(self._coeffs, other._coeffs)]
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self._ring, self._order, [-c for c in self._coeffs])

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction, LambdaPoly)):
            return TruncSeries(self._ring, self._order, [c * other for c in self._coeffs])
        if not isinstance(other, TruncSeries):
            return NotImplemented
        self._check(other)
        n = self._order
        return TruncSeries(self._ring, n, _convolve(self._coeffs, other._coeffs, self._ring.zero(), n + 1))

    def _unit(self) -> "TruncSeries":
        return TruncSeries.one(self._ring, self._order)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a unit constant term."""
        inv0 = self._coeffs[0].inv_unit()
        n = self._order
        zero = self._ring.zero()
        out = [inv0]
        for k in range(1, n + 1):
            acc = zero
            for i in range(1, k + 1):
                a = self._coeffs[i]
                if a:
                    acc = acc + a * out[k - i]
            out.append(-(inv0 * acc))
        return TruncSeries(self._ring, n, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self._ring is other._ring
            and self._order == other._order
            and self._coeffs == other._coeffs
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self._coeffs)
        return f"TruncSeries[{self._ring.__name__}; O(t^{self._order + 1})]({inner})"
