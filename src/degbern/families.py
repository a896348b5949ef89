"""Number sequences and polynomial families, grown one member at a time.

Every polynomial family here is of Appell type: its generating function
(EGF convention, ``family_n(x) = n! [t^n] F(t, x)``) is a core series
``core(t)^r`` times a basis series in t and x, so member n is the numbers
``c_k = k! [t^k] core^r`` times the basis members below n:

    family                        generating function         member n
    order-r Bernoulli             (t/(e^t-1))^r e^{xt}        sum_j C(n,j) c_j x^{n-j}
    Euler                         2/(e^t+1) e^{xt}            sum_j C(n,j) c_j x^{n-j}
    scaled order-a Bernoulli      (lt/(e^{lt}-1))^a e^{xt}    sum_j C(n,j) c_j x^{n-j}
    order-r degenerate Bernoulli  (t/(e_l(t)-1))^r e_l^x(t)   sum_j C(n,j) c_j (x)_{n-j,l}
    degenerate falling factorial  e_l^x(t)                    (x)_{n-1,l} (x-(n-1)l)
    Genocchi                      2t/(e^t+1) e^{xt}           n E_{n-1}(x)

where e_l^x(t) = (1+lt)^{x/l}, e_l(t) = e_l^1(t), order 1 gives the plain
Bernoulli families and the scaled family is l^n B_n^(a)(x/l). Each core
is A(t)^(-r) for a closed-form series A with A(0) = 1, so c_k follows
from c_0..c_{k-1} by J. C. P. Miller's power recurrence, exactly in Q[l].
Since c_k is member k at x = 0, the members are all a table stores.
Stirling numbers of the second kind and harmonic numbers round out the kit.

A table computes only the members it lacks and publishes each grown list
wholesale; reads are safe from multiple threads (a reader sees either a
missing entry or a complete one).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .core import LAMBDA, LambdaPoly, XPoly
from .umbral import sequence_diff

__all__ = [
    "FamilyTable",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_order",
    "deg_bernoulli",
    "deg_bernoulli_order",
    "deg_falling",
    "euler_number",
    "euler_poly",
    "genocchi_number",
    "genocchi_poly",
    "harmonic",
    "scaled_bernoulli",
    "stirling2",
]


def _check_index(n: int, name: str = "n") -> int:
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {n!r}")
    return n


def _deg_base(k: int) -> list[LambdaPoly]:
    """(1)_{j+1,l}/(j+1)! for j = 0..k, where (1)_{j+1,l} = (1-l)(1-2l)...(1-jl)."""
    out, falling = [], LambdaPoly.one()
    for j in range(k + 1):
        out.append(falling / factorial(j + 1))
        falling = falling * (1 - LAMBDA * (j + 1))
    return out


# a_0..a_k of the series A(t), A(0) = 1, whose power A^(-r) is the family's core.
_BASES = {
    # A = (e^t-1)/t
    "bernoulli_r": lambda k: [LambdaPoly.const(Fraction(1, factorial(j + 1))) for j in range(k + 1)],
    # A = (e^t+1)/2
    "euler": lambda k: [LambdaPoly.const(Fraction(1, 2 * factorial(j)) if j else 1) for j in range(k + 1)],
    # A = (e^{lt}-1)/(lt)
    "scaled_bernoulli": lambda k: [LambdaPoly.monomial(j, Fraction(1, factorial(j + 1))) for j in range(k + 1)],
    # A = (e_l(t)-1)/t
    "deg_bernoulli_r": _deg_base,
}


def _next_number(kind: str, r: int, numbers: list[LambdaPoly]) -> LambdaPoly:
    """c_k = k! [t^k] A^(-r) from c_0..c_{k-1}, by Miller's power recurrence.

    For B = A^alpha with a_0 = 1: b_k = (1/k) sum_{j=1..k} ((alpha+1)j - k) a_j b_{k-j};
    in terms of c_k = k! b_k the weights (k-1)!/(k-j)! are integers.
    """
    k = len(numbers)
    if k == 0:
        return LambdaPoly.one()
    base = _BASES[kind](k)
    total = LambdaPoly.zero()
    weight = 1
    for j in range(1, k + 1):
        if numbers[k - j]:
            total = total + base[j] * (((1 - r) * j - k) * weight) * numbers[k - j]
        weight *= k - j
    return total


class FamilyTable:
    """Append-only cache of polynomial families keyed by family id.

    Keys are tuples such as ("deg_falling",), ("deg_bernoulli_r", r) or
    ("scaled_bernoulli", a). A request past the cached end computes only
    the missing members, then replaces the cached list wholesale; lists are
    never mutated in place, so unlocked readers always see complete entries.
    The lock is re-entrant because some families read others.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, list[XPoly]] = {}
        self._lock = threading.RLock()

    def get(self, key: tuple, n: int) -> XPoly:
        entry = self._cache.get(key)
        if entry is not None and n < len(entry):
            return entry[n]
        return self._grow(key, n)[n]

    def _grow(self, key: tuple, n: int) -> list[XPoly]:
        """The published members of key, grown to at least 0..n."""
        with self._lock:
            members = self._cache.get(key, [])
            if n >= len(members):
                members = list(members)
                for m in range(len(members), n + 1):
                    p = self._member(key, members, m)
                    if key[0] != "genocchi" and p.degree != m:
                        raise ArithmeticError(f"family {key!r} member {m} has degree {p.degree}")
                    members.append(p)
                self._cache[key] = members
            return members

    def _member(self, key: tuple, members: list[XPoly], m: int) -> XPoly:
        kind = key[0]
        if kind == "deg_falling":
            return members[-1] * XPoly((-(LAMBDA * (m - 1)), LambdaPoly.one())) if m else XPoly.one()
        if kind == "genocchi":
            return self._grow(("euler",), m - 1)[m - 1] * m if m else XPoly.zero()
        if kind not in _BASES:
            raise ValueError(f"unknown family {key!r}")
        numbers = [p.coeff(0) for p in members]
        numbers.append(_next_number(kind, 1 if kind == "euler" else key[1], numbers))
        if kind == "deg_bernoulli_r":
            falling = self._grow(("deg_falling",), m)
            terms = (falling[m - j] * (c * comb(m, j)) for j, c in enumerate(numbers) if c)
            return sum(terms, XPoly.zero())
        return XPoly([c * comb(m, i) for i, c in enumerate(reversed(numbers))])


_TABLE = FamilyTable()


def bernoulli_poly(n: int) -> XPoly:
    """Bernoulli polynomial of degree n."""
    return _TABLE.get(("bernoulli_r", 1), _check_index(n))


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number, the constant term of the Bernoulli polynomial."""
    return bernoulli_poly(n).coeff(0).as_rational()


def bernoulli_poly_order(n: int, r: int) -> XPoly:
    """Order-r Bernoulli polynomial; order 0 gives x^n, order 1 the classical one."""
    return _TABLE.get(("bernoulli_r", _check_index(r, "r")), _check_index(n))


def euler_poly(n: int) -> XPoly:
    return _TABLE.get(("euler",), _check_index(n))


def euler_number(n: int) -> Fraction:
    return euler_poly(n).coeff(0).as_rational()


def genocchi_poly(n: int) -> XPoly:
    """Genocchi polynomial; the zeroth member is 0 and deg G_n = n-1 for n >= 1."""
    return _TABLE.get(("genocchi",), _check_index(n))


def genocchi_number(n: int) -> Fraction:
    return genocchi_poly(n).coeff(0).as_rational()


def deg_falling(n: int) -> XPoly:
    """Degenerate falling factorial (x)_{n,l}, monic of degree n."""
    return _TABLE.get(("deg_falling",), _check_index(n))


def deg_bernoulli(n: int) -> XPoly:
    """Degenerate Bernoulli polynomial; specializes to the Bernoulli polynomial at l=0."""
    return _TABLE.get(("deg_bernoulli_r", 1), _check_index(n))


def deg_bernoulli_order(n: int, r: int) -> XPoly:
    """Order-r degenerate Bernoulli polynomial; order 0 gives (x)_{n,l}."""
    return _TABLE.get(("deg_bernoulli_r", _check_index(r, "r")), _check_index(n))


def scaled_bernoulli(n: int, a: int) -> XPoly:
    """The polynomial l^n B_n^(a)(x/l): order-a Bernoulli, argument x/l, cleared of l-denominators."""
    return _TABLE.get(("scaled_bernoulli", _check_index(a, "a")), _check_index(n))


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind, by the explicit integer sum
    S2(n,k) = sum_j (-1)^(k-j) C(k,j) j^n / k!."""
    _check_index(n)
    _check_index(k, "k")
    return Fraction(sequence_diff([j**n for j in range(k + 1)], k) // factorial(k))


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """Harmonic number 1 + 1/2 + ... + 1/n, exact."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"harmonic() needs a positive integer, got {n!r}")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total
