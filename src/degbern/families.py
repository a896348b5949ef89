"""Number sequences and polynomial families, built from generating functions.

All families come out of one shared truncated-series engine, so each is
consistent with its defining series by construction (EGF convention:
``family_n(x) = n! [t^n] F(t, x)``):

    Bernoulli                  t/(e^t-1) * e^{xt}
    order-r Bernoulli          (t/(e^t-1))^r * e^{xt}
    Euler                      2/(e^t+1) * e^{xt}
    Genocchi                   2t/(e^t+1) * e^{xt}
    degenerate falling factorial   (x)_{n,l} = x(x-l)...(x-(n-1)l)
    degenerate Bernoulli           t/(e_l(t)-1) * e_l^x(t)
    order-r degenerate Bernoulli   (t/(e_l(t)-1))^r * e_l^x(t)
    scaled order-a Bernoulli       l^n B_n^(a)(x/l) from (lt/(e^{lt}-1))^a * e^{xt}

where e_l^x(t) = (1+lt)^{x/l}. Stirling numbers of the second kind and
harmonic numbers round out the kit.

Family members are cached append-only; reads are safe from multiple
threads (a reader sees either a missing entry or a complete one).
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .core import LambdaPoly, TruncSeries, XPoly

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


def _inv_fact(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def _falling_list(n: int) -> list[XPoly]:
    """(x)_{0,l} .. (x)_{n,l} via the product x(x-l)...(x-(k-1)l)."""
    out = [XPoly.one()]
    lam = LambdaPoly.lam()
    for k in range(1, n + 1):
        factor = XPoly((-(lam * (k - 1)), LambdaPoly.one()))
        out.append(out[-1] * factor)
    return out


def _exp_x_series(order: int) -> TruncSeries:
    """e^{xt}: coefficient of t^k is x^k/k!."""
    return TruncSeries.from_fn(
        XPoly, order, lambda k: XPoly.monomial(k, _inv_fact(k))
    )


def _deg_exp_series(order: int) -> TruncSeries:
    """e_l^x(t): coefficient of t^k is (x)_{k,l}/k!."""
    falling = _falling_list(order)
    return TruncSeries(
        XPoly, order, [falling[k] * _inv_fact(k) for k in range(order + 1)]
    )


def _classic_core(order: int) -> TruncSeries:
    """t/(e^t-1), i.e. the inverse of sum_k t^k/(k+1)!."""
    base = TruncSeries.from_fn(LambdaPoly, order, lambda k: LambdaPoly.const(_inv_fact(k + 1)))
    return base.inverse()


def _deg_core(order: int) -> TruncSeries:
    """t/(e_l(t)-1), inverse of sum_k (1)_{k+1,l} t^k/(k+1)!."""
    lam = LambdaPoly.lam()
    one_falling = [LambdaPoly.one()]
    for k in range(1, order + 2):
        one_falling.append(one_falling[-1] * (LambdaPoly.one() - lam * (k - 1)))
    base = TruncSeries(
        LambdaPoly,
        order,
        [one_falling[k + 1] * _inv_fact(k + 1) for k in range(order + 1)],
    )
    return base.inverse()


def _scaled_core(order: int) -> TruncSeries:
    """lt/(e^{lt}-1), inverse of sum_k l^k t^k/(k+1)!."""
    base = TruncSeries.from_fn(
        LambdaPoly, order, lambda k: LambdaPoly.monomial(k, _inv_fact(k + 1))
    )
    return base.inverse()


def _euler_core(order: int) -> TruncSeries:
    """2/(e^t+1)."""
    base = TruncSeries.from_fn(
        LambdaPoly,
        order,
        lambda k: LambdaPoly.const(2 if k == 0 else _inv_fact(k)),
    )
    return base.inverse() * 2


def _lift(series: TruncSeries) -> TruncSeries:
    """Reinterpret a LambdaPoly series as an XPoly series of constants."""
    return series.map_coeffs(XPoly.const, XPoly)


class FamilyTable:
    """Append-only cache of polynomial families keyed by family id.

    Keys are tuples such as ("bernoulli",), ("deg_bernoulli_r", r) or
    ("scaled_bernoulli", a). Cached lists are replaced wholesale, never
    mutated in place, so unlocked readers always see complete entries.
    """

    def __init__(self) -> None:
        self._cache: dict[tuple, list[XPoly]] = {}
        self._lock = threading.Lock()

    def get(self, key: tuple, n: int) -> XPoly:
        entry = self._cache.get(key)
        if entry is not None and n < len(entry):
            return entry[n]
        with self._lock:
            entry = self._cache.get(key)
            if entry is None or n >= len(entry):
                built = self._build(key, n)
                if entry:
                    built = list(entry) + built[len(entry):]
                self._cache[key] = built
                entry = built
        return entry[n]

    def _build(self, key: tuple, n: int) -> list[XPoly]:
        kind = key[0]
        if kind == "deg_falling":
            polys = _falling_list(n)
        elif kind == "bernoulli_r":
            core = _classic_core(n) ** key[1]
            polys = self._extract(_lift(core) * _exp_x_series(n))
        elif kind == "euler":
            polys = self._extract(_lift(_euler_core(n)) * _exp_x_series(n))
        elif kind == "genocchi":
            # 2t/(e^t+1)e^{xt} = t * (Euler series): shift indices by one.
            s = _lift(_euler_core(n)) * _exp_x_series(n)
            polys = [XPoly.zero()]
            polys.extend(s.coeff(m - 1) * factorial(m) for m in range(1, n + 1))
        elif kind == "deg_bernoulli_r":
            core = _deg_core(n) ** key[1]
            polys = self._extract(_lift(core) * _deg_exp_series(n))
        elif kind == "scaled_bernoulli":
            core = _scaled_core(n) ** key[1]
            polys = self._extract(_lift(core) * _exp_x_series(n))
        else:
            raise ValueError(f"unknown family {key!r}")
        if kind != "genocchi":
            for m, p in enumerate(polys):
                if p.degree != m:
                    raise ArithmeticError(f"family {key!r} member {m} has degree {p.degree}")
        return polys

    @staticmethod
    def _extract(series: TruncSeries) -> list[XPoly]:
        return [series.coeff(m) * factorial(m) for m in range(series.order + 1)]


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
    """Stirling number of the second kind, from (e^t-1)^k/k!.

    Also recomputed through the triangle recurrence
    S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1) as a built-in self-check.
    """
    _check_index(n)
    _check_index(k, "k")
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    base = TruncSeries.from_fn(
        LambdaPoly, n - k, lambda j: LambdaPoly.const(_inv_fact(j + 1))
    )
    via_series = (base**k).coeff(n - k).as_rational() * factorial(n) / factorial(k)
    via_triangle = k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)
    if via_series != via_triangle:
        raise ArithmeticError(f"Stirling self-check failed at ({n}, {k})")
    return via_series


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """Harmonic number 1 + 1/2 + ... + 1/n, exact."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"harmonic() needs a positive integer, got {n!r}")
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total
