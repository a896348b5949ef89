"""Executable corpus of exact special-function identities.

Each case constructs its left and right hand sides independently from the
family and expansion machinery and passes only when the discrepancy
lhs - rhs is the zero polynomial, never merely "numerically small".

Corpus (ids):

    miki_poly     quadratic Bernoulli-polynomial convolution identity
    miki          Miki's Bernoulli-number convolution identity
    fpz           Faber-Pandharipande-Zagier identity (half-integer values)
    ex_a_polyid   one-variable polynomial identity behind the a_0 of B_n(x)
    ex_a          B_n(x) expanded in the degenerate Bernoulli basis
    ex_b_classical / ex_b   sum B_k(x)B_{n-k}(x)/(k(n-k)) in Bernoulli /
                            degenerate Bernoulli form
    ex_c_classical / ex_c   same for Euler-polynomial products
    ex_d_classical / ex_d   same for Genocchi-polynomial products
    ex_e_classical / ex_e   Nielsen's product of two Bernoulli polynomials
    ex_f_classical / ex_f   Nielsen's product of two Euler polynomials
    ex_g_iop      iterated unit-interval integral of l^n B_n^(r)(x/l)
    ex_g          Genocchi products in the order-r degenerate basis

Each identity is one entry of the table ``_IDENTITIES``: its parameters
with their minima, an optional cross-parameter constraint (``n >= r``,
``m + n <= n_max``), its default sweep bounds, its left side and exactly
one stated right side. That is either a polynomial ``rhs`` or, for the
degenerate-basis expansions, a ``closed_form`` coefficient list in the
order-r basis (r = 1 unless the case has an r), rebuilt into a polynomial
by ``expansion.reconstruct``. DEFAULT_BOUNDS, parameter validation,
closed_form_coeffs and the verify_all sweep all read that table. A case
outside the range raises ValueError naming the violated constraint (e.g.
miki needs n >= 2, ex_g needs n >= 3 and n >= r).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, inf
from typing import Callable, Iterator, Mapping

from .core import LAMBDA, LambdaPoly, Scalar, XPoly
from .expansion import BasisExpansion, reconstruct
from .families import (
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    genocchi_number,
    genocchi_poly,
    harmonic,
    scaled_bernoulli,
)
from .umbral import forward_diff, integral_I

__all__ = [
    "DEFAULT_BOUNDS",
    "IdentityCase",
    "closed_form_coeffs",
    "identity_ids",
    "verify",
    "verify_all",
]


@dataclass(frozen=True)
class IdentityCase:
    """One verified identity instance; passes iff the discrepancy is zero."""

    id: str
    params: tuple[tuple[str, int], ...]
    lhs: XPoly
    rhs: XPoly
    discrepancy: XPoly

    @property
    def passed(self) -> bool:
        return self.discrepancy.is_zero

    def offending_term(self) -> str | None:
        """Leading monomial of a nonzero discrepancy, for failure reports."""
        if self.discrepancy.is_zero:
            return None
        k = self.discrepancy.degree
        c = self.discrepancy.leading()
        xpart = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        return f"({c})*{xpart}" if xpart else f"({c})"

    def param_str(self) -> str:
        return ", ".join(f"{name}={value}" for name, value in self.params)


def _H(m: int) -> Fraction:
    return harmonic(m) if m >= 1 else Fraction(0)


def _rising(a: int, m: int) -> int:
    out = 1
    for i in range(m):
        out *= a + i
    return out


@lru_cache(maxsize=None)
def _dl0(k: int, e: int) -> LambdaPoly:
    """k-th forward difference with step l of x^e, evaluated at 0 (0^0 = 1)."""
    return forward_diff(XPoly.monomial(e), LAMBDA, k).eval_x(0)


def _lam_bernoulli(l: int) -> LambdaPoly:
    """l^j B_j as an element of Q[l]."""
    return LambdaPoly.monomial(l, bernoulli_number(l))


def _order1_tail(weights: Mapping[int, Fraction], top: int, scale: Scalar) -> list[LambdaPoly]:
    """a_1..a_top of an order-1 closed form with Delta p = scale * sum_e weights[e] x^e.

    a_k = D_l^(k-1)[Delta p](0) / (k! l^(k-1)), D_l the step-l forward difference.
    """
    coeffs = []
    for k in range(1, top + 1):
        acc = LambdaPoly.zero()
        for e, w in weights.items():
            if w:
                acc = acc + _dl0(k - 1, e) * w
        coeffs.append(acc.divexact(k - 1) * (Fraction(scale) / factorial(k)))
    return coeffs


def _product_sum(family: Callable[[int], XPoly], n: int) -> XPoly:
    """sum_{k=1}^{n-1} P_k(x) P_{n-k}(x) / (k(n-k)) for a polynomial family P."""
    out = XPoly.zero()
    for k in range(1, n):
        out = out + family(k) * family(n - k) * Fraction(1, k * (n - k))
    return out


# -- quadratic Bernoulli convolution and its specializations ------------------


def _miki_poly_rhs(n: int) -> XPoly:
    # The left side is the product sum of B_j(x)B_{2n-j}(x); its interior
    # odd-index products (3 <= j <= 2n-3) vanish at x = 0 and x = 1/2, which
    # is why the number specializations keep only the even part.
    rhs = XPoly.zero()
    for k in range(1, n + 1):
        rhs = rhs + bernoulli_poly(2 * n - 2 * k) * (
            Fraction(comb(2 * n, 2 * k), 2 * k) * bernoulli_number(2 * k) / n
        )
    rhs = rhs + bernoulli_poly(2 * n) * (harmonic(2 * n - 1) / n)
    return rhs + bernoulli_poly(1) * (bernoulli_number(2 * n - 1) * Fraction(2, 2 * n - 1))


def _bbar(j: int) -> Fraction:
    # B_j at 1/2, via the closed form (2^{1-j} - 1) B_j
    return (Fraction(2) ** (1 - j) - 1) * bernoulli_number(j)


def _miki_lhs(at: Callable[[int], Fraction], n: int) -> XPoly:
    """Miki's left side with B_j(x) at one point: bernoulli_number (x = 0) or _bbar (x = 1/2)."""
    lhs = Fraction(0)
    for k in range(1, n):
        lhs += at(2 * k) * at(2 * n - 2 * k) / Fraction(2 * k * (2 * n - 2 * k))
    return XPoly.const(lhs)


def _miki_rhs(at: Callable[[int], Fraction], n: int) -> XPoly:
    rhs = Fraction(0)
    for k in range(1, n + 1):
        rhs += Fraction(comb(2 * n, 2 * k), 2 * k) * bernoulli_number(2 * k) * at(2 * n - 2 * k)
    return XPoly.const(rhs / n + harmonic(2 * n - 1) * at(2 * n) / n)


# -- Bernoulli polynomials in the degenerate basis ---------------------------


def _ex_a_polyid_lhs(n: int) -> XPoly:
    # sum_j C(n,j) B_{n-j} y^{j+1}/(j+1) (B_{j+1}(1/y) - B_{j+1}) = y^n B_n,
    # an identity in Q[y]; y is modelled by the coefficient-ring generator.
    lhs = LambdaPoly.zero()
    for j in range(n + 1):
        scaled_at_one = scaled_bernoulli(j + 1, 1).eval_x(1)
        tail = scaled_at_one - LambdaPoly.monomial(j + 1, bernoulli_number(j + 1))
        lhs = lhs + tail * (Fraction(comb(n, j), j + 1) * bernoulli_number(n - j))
    return XPoly.const(lhs)


def _ex_a_coeffs(n: int) -> list[LambdaPoly]:
    return [_lam_bernoulli(n), *_order1_tail({n - 1: n}, n, 1)]


# -- products of two Bernoulli polynomials, weighted by 1/(k(n-k)) -----------


def _ex_b_rhs(n: int) -> XPoly:
    rhs = XPoly.zero()
    for l in range(n - 1):
        rhs = rhs + bernoulli_poly(l) * (
            Fraction(2 * comb(n, l), n * (n - l)) * bernoulli_number(n - l)
        )
    return rhs + bernoulli_poly(n) * (Fraction(2, n) * harmonic(n - 1))


def _ex_b_coeffs(n: int) -> list[LambdaPoly]:
    a0 = LambdaPoly.zero()
    for l in range(n - 1):
        a0 = a0 + _lam_bernoulli(l) * (Fraction(comb(n, l), n - l) * bernoulli_number(n - l))
    a0 = a0 + _lam_bernoulli(n) * harmonic(n - 1)
    weights = {
        l - 1: Fraction(l * comb(n, l), n - l) * bernoulli_number(n - l) for l in range(1, n - 1)
    }
    weights[n - 1] = n * harmonic(n - 1)
    return [a0 * Fraction(2, n), *_order1_tail(weights, n, Fraction(2, n))]


# -- products of two Euler polynomials, weighted by 1/(k(n-k)) ----------------


def _ex_c_weight(n: int, l: int) -> Fraction:
    return Fraction(comb(n, l)) * (_H(n - 1) - _H(n - l)) / (n - l + 1)


def _ex_c_rhs(n: int) -> XPoly:
    rhs = XPoly.const(Fraction(4) * euler_number(n + 1) / (n * n * (n + 1)))
    for l in range(1, n + 1):
        rhs = rhs - bernoulli_poly(l) * (
            Fraction(4, n) * _ex_c_weight(n, l) * euler_number(n - l + 1)
        )
    return rhs


def _ex_c_coeffs(n: int) -> list[LambdaPoly]:
    a0 = LambdaPoly.const(euler_number(n + 1) / Fraction(n * (n + 1)))
    for l in range(1, n + 1):
        a0 = a0 - _lam_bernoulli(l) * (_ex_c_weight(n, l) * euler_number(n - l + 1))
    weights = {l - 1: l * _ex_c_weight(n, l) * euler_number(n - l + 1) for l in range(1, n + 1)}
    return [a0 * Fraction(4, n), *_order1_tail(weights, n, Fraction(-4, n))]


# -- products of two Genocchi polynomials, weighted by 1/(k(n-k)) -------------


def _ex_d_rhs(n: int) -> XPoly:
    rhs = XPoly.zero()
    for k in range(n - 1):
        rhs = rhs - bernoulli_poly(k) * (
            Fraction(4 * comb(n, k), n * (n - k)) * genocchi_number(n - k)
        )
    return rhs


def _ex_d_coeffs(n: int) -> list[LambdaPoly]:
    a0 = LambdaPoly.zero()
    for l in range(n - 1):
        a0 = a0 + _lam_bernoulli(l) * (Fraction(comb(n, l), n - l) * genocchi_number(n - l))
    weights = {
        l - 1: Fraction(l * comb(n, l), n - l) * genocchi_number(n - l) for l in range(1, n - 1)
    }
    return [a0 * Fraction(-4, n), *_order1_tail(weights, n - 2, Fraction(-4, n))]


# -- Nielsen products ---------------------------------------------------------


def _nielsen_weight(m: int, n: int, r: int) -> int:
    return comb(m, 2 * r) * n + comb(n, 2 * r) * m


def _ex_e_rhs(m: int, n: int) -> XPoly:
    rhs = XPoly.const(Fraction((-1) ** (m + 1)) * bernoulli_number(m + n) / comb(m + n, m))
    for r in range((m + n + 1) // 2):  # while m + n - 2r >= 1
        rhs = rhs + bernoulli_poly(m + n - 2 * r) * (
            Fraction(_nielsen_weight(m, n, r), m + n - 2 * r) * bernoulli_number(2 * r)
        )
    return rhs


def _ex_e_coeffs(m: int, n: int) -> list[LambdaPoly]:
    total = m + n
    a0 = LambdaPoly.const(Fraction((-1) ** (m + 1)) * bernoulli_number(total) / comb(total, m))
    weights = {}
    for r in range((total + 1) // 2):  # while total - 2r >= 1
        a0 = a0 + _lam_bernoulli(total - 2 * r) * (
            Fraction(_nielsen_weight(m, n, r), total - 2 * r) * bernoulli_number(2 * r)
        )
        weights[total - 2 * r - 1] = _nielsen_weight(m, n, r) * bernoulli_number(2 * r)
    return [a0, *_order1_tail(weights, total, 1)]


def _ex_f_rhs(m: int, n: int) -> XPoly:
    rhs = XPoly.const(
        Fraction(2 * (-1) ** (n + 1) * factorial(m) * factorial(n), factorial(m + n + 1))
        * euler_number(m + n + 1)
    )
    for size in (m, n):  # the sum over r <= m, then the sum over s <= n
        for r in range(1, size + 1):
            rhs = rhs - bernoulli_poly(m + n - r + 1) * (
                Fraction(2 * comb(size, r), m + n - r + 1) * euler_number(r)
            )
    return rhs


def _ex_f_coeffs(m: int, n: int) -> list[LambdaPoly]:
    a0 = LambdaPoly.const(
        Fraction((-1) ** n * factorial(m) * factorial(n), factorial(m + n + 1))
        * euler_number(m + n + 1)
    )
    weights: Counter[int] = Counter()
    for size in (m, n):  # the sum over r <= m, then the sum over s <= n
        for r in range(1, size + 1):
            a0 = a0 + _lam_bernoulli(m + n - r + 1) * (
                Fraction(comb(size, r), m + n - r + 1) * euler_number(r)
            )
            weights[m + n - r] += comb(size, r) * euler_number(r)
    return [a0 * Fraction(-2), *_order1_tail(weights, m + n, -2)]


# -- order-r machinery --------------------------------------------------------


def _ex_g_iop_lhs(n: int, r: int, a: int) -> XPoly:
    # <n+1>_a I^a [l^n B_n^(r)(x/l)] = sum_m (-1)^{a-m} C(a,m) l^{n+a} B_{n+a}^(r)((x+m)/l)
    lhs = scaled_bernoulli(n, r)
    for _ in range(a):
        lhs = integral_I(lhs)
    return lhs * _rising(n + 1, a)


def _ex_g_coeffs(n: int, r: int) -> list[LambdaPoly]:
    coeffs: list[LambdaPoly] = []
    for k in range(max(r, n - 1)):
        if k < r:
            mm = r - k - 1
            acc = LambdaPoly.zero()
            for j in range(k + 1):
                for l in range(n - 1):
                    g_coef = Fraction(comb(n, l)) * genocchi_number(n - l) / (n - l)
                    if not g_coef:
                        continue
                    base = g_coef / _rising(l + 1, mm)
                    for m2 in range(mm + 1):
                        sign = (-1) ** (r - j - m2 - 1)
                        weight = Fraction(sign * comb(k, j) * comb(mm, m2)) * base
                        acc = acc + scaled_bernoulli(l + mm, r - k).eval_x(j + m2) * weight
            coeffs.append(acc * Fraction(-4, n * factorial(k)))
        else:
            m = k - r
            acc = LambdaPoly.zero()
            for j in range(r + 1):
                for l in range(m + 1):
                    point = LambdaPoly({0: j, 1: l})
                    value = LambdaPoly.zero()
                    for mu in range(1, n):
                        value = value + genocchi_poly(mu).eval_x(point) * genocchi_poly(
                            n - mu
                        ).eval_x(point) * Fraction(1, mu * (n - mu))
                    acc = acc + value * Fraction((-1) ** (k - j - l) * comb(r, j) * comb(k - r, l))
            coeffs.append(acc.divexact(m) / factorial(k))
    return coeffs


# -- the identity table ---------------------------------------------------------

#: The sweep bound for each parameter name (n_max bounds m as well as n).
_BOUND_OF = {"m": "n_max", "n": "n_max", "r": "r_max", "a": "a_max"}

#: Cross-parameter constraints by their text. A predicate sees the parameters
#: and, in a sweep, the bounds; a single case has no bounds to exceed.
_CONSTRAINTS: dict[str, Callable[..., bool]] = {
    "n >= r": lambda n, r, **_: n >= r,
    "m + n <= n_max": lambda m, n, n_max=inf, **_: m + n <= n_max,
}


@dataclass(frozen=True)
class _Identity:
    lhs: Callable[..., XPoly]
    minima: Mapping[str, int]  # parameter -> least value, in argument order
    bounds: Mapping[str, int]  # default sweep bounds
    rhs: Callable[..., XPoly] | None = None
    closed_form: Callable[..., list[LambdaPoly]] | None = None  # order-r basis coefficients
    constraint: str | None = None  # a key of _CONSTRAINTS

    def __post_init__(self) -> None:
        if (self.rhs is None) == (self.closed_form is None):
            raise TypeError("an identity states exactly one of rhs and closed_form")

    def violations(self, values: Mapping[str, int]) -> list[str]:
        out = [f"{name} >= {lo}" for name, lo in self.minima.items() if values[name] < lo]
        if self.constraint and not _CONSTRAINTS[self.constraint](**values):
            out.append(self.constraint)
        return out

    def sweep(self, bounds: Mapping[str, int]) -> Iterator[dict[str, int]]:
        """The product of the parameter ranges, in declaration order, within the constraint."""
        ranges = [range(lo, bounds[_BOUND_OF[name]] + 1) for name, lo in self.minima.items()]
        for values in product(*ranges):
            params = dict(zip(self.minima, values))
            if not self.violations({**bounds, **params}):
                yield params

    def stated(self, identity_id: str, params: Mapping[str, int]) -> XPoly:
        """The stated right side: rhs, or the closed-form coefficients rebuilt."""
        if self.rhs is not None:
            return self.rhs(**params)
        coeffs = tuple(self.closed_form(**params))
        routes = (identity_id,) * len(coeffs)
        return reconstruct(BasisExpansion(params.get("r", 1), len(coeffs) - 1, coeffs, routes))


#: What the four Nielsen-product entries share: pairs (m, n) with m + n <= n_max.
_NIELSEN = {"minima": {"m": 1, "n": 1}, "bounds": {"n_max": 10}, "constraint": "m + n <= n_max"}

# Left sides look the families up at call time, where perfbench's tracer rebinds them.
_IDENTITIES: dict[str, _Identity] = {
    "miki_poly": _Identity(
        lambda n: _product_sum(bernoulli_poly, 2 * n), {"n": 2}, {"n_max": 8}, _miki_poly_rhs
    ),
    "miki": _Identity(
        lambda n: _miki_lhs(bernoulli_number, n),
        {"n": 2},
        {"n_max": 8},
        lambda n: _miki_rhs(bernoulli_number, n),
    ),
    "fpz": _Identity(
        lambda n: _miki_lhs(_bbar, n), {"n": 2}, {"n_max": 8}, lambda n: _miki_rhs(_bbar, n)
    ),
    "ex_a_polyid": _Identity(
        _ex_a_polyid_lhs, {"n": 1}, {"n_max": 8}, lambda n: XPoly.const(_lam_bernoulli(n))
    ),
    "ex_a": _Identity(
        lambda n: bernoulli_poly(n), {"n": 1}, {"n_max": 8}, closed_form=_ex_a_coeffs
    ),
    "ex_b_classical": _Identity(
        lambda n: _product_sum(bernoulli_poly, n), {"n": 2}, {"n_max": 10}, _ex_b_rhs
    ),
    "ex_b": _Identity(
        lambda n: _product_sum(bernoulli_poly, n), {"n": 2}, {"n_max": 8}, closed_form=_ex_b_coeffs
    ),
    "ex_c_classical": _Identity(
        lambda n: _product_sum(euler_poly, n), {"n": 2}, {"n_max": 8}, _ex_c_rhs
    ),
    "ex_c": _Identity(
        lambda n: _product_sum(euler_poly, n), {"n": 2}, {"n_max": 8}, closed_form=_ex_c_coeffs
    ),
    "ex_d_classical": _Identity(
        lambda n: _product_sum(genocchi_poly, n), {"n": 3}, {"n_max": 10}, _ex_d_rhs
    ),
    "ex_d": _Identity(
        lambda n: _product_sum(genocchi_poly, n), {"n": 3}, {"n_max": 10}, closed_form=_ex_d_coeffs
    ),
    "ex_e_classical": _Identity(
        lambda m, n: bernoulli_poly(m) * bernoulli_poly(n), rhs=_ex_e_rhs, **_NIELSEN
    ),
    "ex_e": _Identity(
        lambda m, n: bernoulli_poly(m) * bernoulli_poly(n), closed_form=_ex_e_coeffs, **_NIELSEN
    ),
    "ex_f_classical": _Identity(
        lambda m, n: euler_poly(m) * euler_poly(n), rhs=_ex_f_rhs, **_NIELSEN
    ),
    "ex_f": _Identity(
        lambda m, n: euler_poly(m) * euler_poly(n), closed_form=_ex_f_coeffs, **_NIELSEN
    ),
    "ex_g_iop": _Identity(
        _ex_g_iop_lhs,
        {"n": 0, "r": 0, "a": 1},
        {"n_max": 6, "r_max": 3, "a_max": 3},
        lambda n, r, a: forward_diff(scaled_bernoulli(n + a, r), 1, a),
    ),
    "ex_g": _Identity(
        lambda n, r: _product_sum(genocchi_poly, n),
        {"n": 3, "r": 1},
        {"n_max": 6, "r_max": 4},
        closed_form=_ex_g_coeffs,
        constraint="n >= r",
    ),
}

DEFAULT_BOUNDS: dict[str, dict[str, int]] = {
    identity_id: dict(entry.bounds) for identity_id, entry in _IDENTITIES.items()
}


def identity_ids() -> tuple[str, ...]:
    return tuple(sorted(_IDENTITIES))


def _lookup(identity_id: str) -> _Identity:
    entry = _IDENTITIES.get(identity_id)
    if entry is None:
        raise ValueError(f"unknown identity {identity_id!r}; known: {', '.join(identity_ids())}")
    return entry


def _check_params(identity_id: str, entry: _Identity, params: Mapping[str, int]) -> None:
    names = tuple(entry.minima)
    unknown = set(params) - set(names)
    if unknown:
        raise ValueError(f"{identity_id} takes parameters {names}, not {sorted(unknown)}")
    missing = set(names) - set(params)
    if missing:
        raise ValueError(f"{identity_id} is missing parameters {sorted(missing)}")
    violated = entry.violations(params)
    if violated:
        raise ValueError(f"{identity_id} requires {' and '.join(violated)}")


def closed_form_coeffs(identity_id: str, **params: int) -> list[LambdaPoly]:
    """Coefficient list stated by the closed-form expansion of an identity."""
    entry = _IDENTITIES.get(identity_id)
    if entry is None or entry.closed_form is None:
        raise ValueError(f"{identity_id!r} has no closed-form coefficient list")
    _check_params(identity_id, entry, params)
    return entry.closed_form(**params)


def verify(
    identity_id: str,
    params: Mapping[str, int] | None = None,
    *,
    perturb: bool = False,
    **kw: int,
) -> IdentityCase:
    """Verify one identity instance exactly; ValueError on bad id or range."""
    entry = _lookup(identity_id)
    merged = {**(params or {}), **kw}
    _check_params(identity_id, entry, merged)
    lhs = entry.lhs(**merged)
    rhs = entry.stated(identity_id, merged)
    if perturb:
        rhs = rhs + XPoly.one()
    return IdentityCase(
        id=identity_id,
        params=tuple(sorted(merged.items())),
        lhs=lhs,
        rhs=rhs,
        discrepancy=lhs - rhs,
    )


def verify_all(
    bounds: Mapping[str, Mapping[str, int]] | None = None,
    ids: tuple[str, ...] | list[str] | None = None,
    *,
    perturb: bool = False,
) -> list[IdentityCase]:
    """Sweep identities over their parameter ranges; deterministic order."""
    cases: list[IdentityCase] = []
    for identity_id in sorted(ids) if ids is not None else identity_ids():
        entry = _lookup(identity_id)
        eff = dict(entry.bounds)
        if bounds and identity_id in bounds:
            eff.update(bounds[identity_id])
        for params in entry.sweep(eff):
            cases.append(verify(identity_id, params, perturb=perturb))
    return cases
