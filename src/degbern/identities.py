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
    ex_g          ex_d's Genocchi products and terms in the order-r degenerate basis

Each identity is one entry of the table ``_IDENTITIES``: its parameters
with their minima, an optional cross-parameter constraint (``n >= r``,
``m + n <= n_max``), its default sweep bounds, its left side and exactly
one stated right side. That is either a polynomial ``rhs`` or, for the
degenerate-basis expansions, a ``closed_form`` coefficient list in the
order-r basis (r = 1 unless the case has an r), rebuilt into a polynomial
by ``expansion.reconstruct``.

A right side in the Bernoulli basis (miki_poly, ex_b..ex_g) is written
once, as terms ``{j: w_j}`` of sum_j w_j B_j(x) with the constant at
j = 0. Each pair ex_X_classical / ex_X comes from ``_pair``, which takes
one left side and one term function. The classical entry sums the terms
(``_bernoulli_sum``: ``families._appell`` on the Bernoulli numbers, the Appell
sum that is also reconstruct, so it reads no member); the degenerate entry maps
them to the order-1 basis. ex_a is the single term {n: 1}, and ex_g is
ex_d's left side and terms at order r. One map serves them all,
``_degenerate_form(terms, r)``: each a_k is a sum of int products of the
w_j over their lcm, order-s Bernoulli numbers and rows of S2
(``core._stirling2_rows``), with one gcd; its docstring gives the two
formulas, for k < r and k >= r. It builds no member.
A left side that sums products of a family, sum_k P_k P_{n-k}/(k(n-k))
(``_product_sum``), takes each pair {k, n-k} once and each coefficient
in x as one kernel dot product.

What cases share is computed once: each term list and each product left
side (``_product_sum``, the Nielsen products ``_nielsen``) is a bounded cache
entry, so the twins of a pair read one left side and one term list, ex_g at
every order reads ex_d's, and miki_poly at n reads ex_b's left side at 2n. A left side is
keyed by the family function it reads, looked up in this module at call
time. A cached value is never mutated: a term list is a read-only mapping,
and ``perturb`` adds to a new right side. DEFAULT_BOUNDS, parameter validation,
closed_form_coeffs and the verify_all sweep all read that table. A case
outside the range raises ValueError naming the violated constraint (e.g.
miki needs n >= 2, ex_g needs n >= 3 and n >= r).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, inf, lcm, perm
from types import MappingProxyType
from typing import Callable, Iterator, Mapping

from .core import LambdaPoly, XPoly, _cached, _dot_products, _over_lcm, _stirling2_rows, check_size, max_degree_limit
from .expansion import BasisExpansion, reconstruct
from .families import (
    _appell,
    _numbers,
    bernoulli_number,
    bernoulli_poly,
    euler_number,
    euler_poly,
    genocchi_number,
    genocchi_poly,
    harmonic,
    scaled_bernoulli,
)
from .umbral import _integral_power, _jumps, forward_diff

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


@_cached(128)
def _product_sum(family: Callable[[int], XPoly], n: int) -> XPoly:
    """sum_{k=1}^{n-1} P_k(x) P_{n-k}(x) / (k(n-k)) for a polynomial family P.

    The terms k and n-k are equal, so each pair k < n-k is taken once with
    weight 2/(k(n-k)), the midpoint k = n/2 with 1/k^2, and each coefficient
    in x is one kernel dot product over all the pairs. Cached by the family
    itself, so a family rebound in this module's namespace keys its own entries.
    """
    pairs = [
        ((family(k) * Fraction(1 if 2 * k == n else 2, k * (n - k))).coeffs, family(n - k).coeffs)
        for k in range(1, n // 2 + 1)
    ]
    return XPoly._make(_dot_products(pairs, max((len(a) + len(b) - 1 for a, b in pairs), default=0)))


# -- right sides in the Bernoulli basis, classical and degenerate -------------


def _bernoulli_sum(terms: Mapping[int, Fraction]) -> XPoly:
    """sum_j w_j B_j(x) for terms {j: w_j}, from the Bernoulli numbers alone (``families._appell``)."""
    return _appell("bernoulli_r", 1, [LambdaPoly.const(terms.get(j, 0)) for j in range(max(terms, default=0) + 1)])


def _degenerate_form(terms: Mapping[int, Fraction], r: int = 1) -> list[LambdaPoly]:
    """a_0..a_(max(r, top+1)-1) of sum_j w_j B_j(x) in the order-r degenerate basis.

    Write q = sum_j w_j x^j, so the sum is (t/(e^t-1)) q, with A the
    antiderivative, D = d/dx and Delta the unit difference. For k < r, with
    s = r - k and S = lt/(e^{lt}-1),

        a_k = (1/k!) sum_e B_e^(s) l^e [x^e] Delta^(r-1) A^(s-1) q,

    since g(t)^s t/(e^t-1) = I^(s-1) S^s, I^(s-1) = Delta^(s-1) A^(s-1), and
    [x^0] S^s x^e = B_e^(s) l^e. For k >= r, with m = k - r,

        a_k = m!/k! sum_i S2(i,m) l^(i-m) [x^i] Delta^(r-1) D q,

    since Delta^r t/(e^t-1) = Delta^(r-1) D. Both read
    [x^e] Delta^(r-1) u = sum_N C(N,e) (r-1)! S2(N-e, r-1) u_N, as int sums
    over one lcm with one gcd per a_k. At r = 1 they are a_0 = sum_j w_j l^j B_j
    and a_k = sum_j w_j j S2(j-1, k-1) l^(j-k) / k. Entries with top < k < r are 0.
    """
    top = max(j for j, w in terms.items() if w)
    s2 = _stirling2_rows(top + r - 1)
    column = [(d, c) for d, c in enumerate(_jumps(r - 1, top + r)) if c]  # (r-1)! S2(d, r-1), no zeros

    def diff(u: list[int]) -> list[int]:
        """[x^e] Delta^(r-1) u for e = 0..len(u)-r, from the nonzero u_N."""
        out = [0] * (len(u) - r + 1)
        for n, x in enumerate(u):
            if x:
                for d, c in column:
                    if d > n:
                        break
                    out[n - d] += comb(n, d) * c * x
        return out

    w, den = _over_lcm([terms.get(j, 0) for j in range(top + 1)])  # w_j = w[j] / den
    coeffs = []
    for k in range(min(r, top + 1)):
        mm = r - k - 1  # A^mm x^j = x^(j+mm) / perm(j+mm, mm)
        scale = lcm(*(perm(j + mm, mm) for j in range(top + 1)))
        du = diff([0] * mm + [x and x * (scale // perm(j + mm, mm)) for j, x in enumerate(w)])
        b, b_den = _over_lcm([x and c.as_rational() for c, x in zip(_numbers("bernoulli_r", mm + 1, top - k), du)])
        coeffs.append(LambdaPoly._make([x * y for x, y in zip(b, du)], den * scale * b_den * factorial(k)))
    coeffs += [LambdaPoly.zero()] * (r - len(coeffs))
    dq = diff([j * x for j, x in enumerate(w)][1:])
    for m in range(top - r + 1):
        coeffs.append(LambdaPoly._make([s2[i][m] * dq[i] for i in range(m, top - r + 1)], den * perm(m + r, r)))
    return coeffs


# -- quadratic Bernoulli convolution and its specializations ------------------


def _miki_poly_terms(n: int) -> dict[int, Fraction]:
    # The left side is the product sum of B_j(x)B_{2n-j}(x); its odd-index
    # products vanish at x = 0 and x = 1/2, so miki and fpz read these terms
    # at those points and keep only the even part on the left.
    terms = {
        2 * n - 2 * k: Fraction(comb(2 * n, 2 * k), 2 * k) * bernoulli_number(2 * k) / n
        for k in range(1, n + 1)
    }
    terms[2 * n] = harmonic(2 * n - 1) / n
    terms[1] = bernoulli_number(2 * n - 1) * Fraction(2, 2 * n - 1)
    return terms


def _bbar(j: int) -> Fraction:
    # B_j at 1/2, via the closed form (2^{1-j} - 1) B_j
    return (Fraction(2) ** (1 - j) - 1) * bernoulli_number(j)


def _miki_lhs(at: Callable[[int], Fraction], n: int) -> XPoly:
    """Miki's left side with B_j(x) at one point: bernoulli_number (x = 0) or _bbar (x = 1/2)."""
    pairs = (at(2 * k) * at(2 * n - 2 * k) / (2 * k * (2 * n - 2 * k)) for k in range(1, n))
    return XPoly.const(sum(pairs, Fraction(0)))


def _miki_rhs(at: Callable[[int], Fraction], n: int) -> XPoly:
    """The right side of miki_poly with B_j(x) at the same point as _miki_lhs."""
    return XPoly.const(sum(w * at(j) for j, w in _miki_poly_terms(n).items() if w))


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


# -- products of two polynomials, weighted by 1/(k(n-k)) ----------------------


@_cached(64)
def _ex_b_terms(n: int) -> Mapping[int, Fraction]:
    terms = {
        l: Fraction(2 * comb(n, l), n * (n - l)) * bernoulli_number(n - l) for l in range(n - 1)
    }
    terms[n] = Fraction(2, n) * harmonic(n - 1)
    return MappingProxyType(terms)


@_cached(64)
def _ex_c_terms(n: int) -> Mapping[int, Fraction]:
    terms = {
        l: Fraction(-4 * comb(n, l), n * (n - l + 1))
        * (_H(n - 1) - _H(n - l))
        * euler_number(n - l + 1)
        for l in range(1, n + 1)
    }
    terms[0] = Fraction(4) * euler_number(n + 1) / (n * n * (n + 1))
    return MappingProxyType(terms)


@_cached(64)
def _ex_d_terms(n: int) -> Mapping[int, Fraction]:
    return MappingProxyType(
        {k: Fraction(-4 * comb(n, k), n * (n - k)) * genocchi_number(n - k) for k in range(n - 1)}
    )


# -- Nielsen products ---------------------------------------------------------


@_cached(512)
def _nielsen(family: Callable[[int], XPoly], m: int, n: int) -> XPoly:
    """P_m(x) P_n(x), the left side of both entries of a Nielsen pair; cached by the
    family itself, as ``_product_sum`` is."""
    return family(m) * family(n)


@_cached(512)
def _ex_e_terms(m: int, n: int) -> Mapping[int, Fraction]:
    terms = {
        m + n - 2 * r: Fraction(comb(m, 2 * r) * n + comb(n, 2 * r) * m, m + n - 2 * r)
        * bernoulli_number(2 * r)
        for r in range((m + n + 1) // 2)  # while m + n - 2r >= 1
    }
    terms[0] = Fraction((-1) ** (m + 1)) * bernoulli_number(m + n) / comb(m + n, m)
    return MappingProxyType(terms)


@_cached(512)
def _ex_f_terms(m: int, n: int) -> Mapping[int, Fraction]:
    constant = Fraction(2 * (-1) ** (n + 1) * factorial(m) * factorial(n), factorial(m + n + 1))
    terms = Counter({0: constant * euler_number(m + n + 1)})
    for size in (m, n):  # the sum over r <= m, then the sum over s <= n
        for r in range(1, size + 1):
            terms[m + n - r + 1] -= Fraction(2 * comb(size, r), m + n - r + 1) * euler_number(r)
    return MappingProxyType(terms)


# -- order-r machinery --------------------------------------------------------


def _ex_g_iop_lhs(n: int, r: int, a: int) -> XPoly:
    # <n+1>_a I^a [l^n B_n^(r)(x/l)] = sum_m (-1)^{a-m} C(a,m) l^{n+a} B_{n+a}^(r)((x+m)/l),
    # with I^a = Delta^a A^a as one map
    return _integral_power(scaled_bernoulli(n, r), a, perm(n + a, a))


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

    def violations(self, values: Mapping[str, int]) -> list[str]:
        out = [f"{name} >= {lo}" for name, lo in self.minima.items() if values[name] < lo]
        if self.constraint and not _CONSTRAINTS[self.constraint](**values):
            out.append(self.constraint)
        return out

    def sweep(self, bounds: Mapping[str, int]) -> Iterator[dict[str, int]]:
        """The product of the parameter ranges, in declaration order, within the constraint."""
        for name in self.minima:
            check_size(_BOUND_OF[name], bounds[_BOUND_OF[name]])
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


def _pair(
    name: str,
    lhs: Callable[..., XPoly],
    terms: Callable[..., Mapping[int, Fraction]],
    minima: Mapping[str, int],
    bounds: Mapping[str, int],
    classical_bounds: Mapping[str, int] | None = None,
    constraint: str | None = None,
) -> dict[str, _Identity]:
    """Entries name_classical and name from one left side and one term list {j: w_j},
    summed in the Bernoulli basis and mapped to the order-1 degenerate basis."""
    shared = {"lhs": lhs, "minima": minima, "constraint": constraint}
    return {
        f"{name}_classical": _Identity(
            bounds=classical_bounds or bounds, rhs=lambda **p: _bernoulli_sum(terms(**p)), **shared
        ),
        name: _Identity(bounds=bounds, closed_form=lambda **p: _degenerate_form(terms(**p)), **shared),
    }


#: What the two Nielsen-product pairs share: pairs (m, n) with m + n <= n_max.
_NIELSEN = {"minima": {"m": 1, "n": 1}, "bounds": {"n_max": 10}, "constraint": "m + n <= n_max"}

# Left sides look the families up at call time, where perfbench's tracer rebinds them.
_IDENTITIES: dict[str, _Identity] = {
    "miki_poly": _Identity(
        lambda n: _product_sum(bernoulli_poly, 2 * n),
        {"n": 2},
        {"n_max": 8},
        lambda n: _bernoulli_sum(_miki_poly_terms(n)),
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
        _ex_a_polyid_lhs,
        {"n": 1},
        {"n_max": 8},
        lambda n: XPoly.const(LambdaPoly.monomial(n, bernoulli_number(n))),
    ),
    "ex_a": _Identity(
        lambda n: bernoulli_poly(n),
        {"n": 1},
        {"n_max": 8},
        closed_form=lambda n: _degenerate_form({n: 1}),
    ),
    **_pair(
        "ex_b", lambda n: _product_sum(bernoulli_poly, n), _ex_b_terms, {"n": 2}, {"n_max": 8}, {"n_max": 10}
    ),
    **_pair("ex_c", lambda n: _product_sum(euler_poly, n), _ex_c_terms, {"n": 2}, {"n_max": 8}),
    **_pair("ex_d", lambda n: _product_sum(genocchi_poly, n), _ex_d_terms, {"n": 3}, {"n_max": 10}),
    **_pair("ex_e", lambda m, n: _nielsen(bernoulli_poly, m, n), _ex_e_terms, **_NIELSEN),
    **_pair("ex_f", lambda m, n: _nielsen(euler_poly, m, n), _ex_f_terms, **_NIELSEN),
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
        closed_form=lambda n, r: _degenerate_form(_ex_d_terms(n), r),
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
    for name in names:
        check_size(name, params[name])
    violated = entry.violations(params)
    if violated:
        raise ValueError(f"{identity_id} requires {' and '.join(violated)}")


def closed_form_coeffs(identity_id: str, **params: int) -> list[LambdaPoly]:
    """Coefficient list stated by the closed-form expansion of an identity: a_0..a_(N-1) in
    the order-r basis, N = max(r, top + 1) for terms up to B_top (ex_g: max(r, n - 1))."""
    entry = _lookup(identity_id)
    if entry.closed_form is None:
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
    """Sweep identities over their parameter ranges; deterministic order. A case takes
    work of about (sum of its parameters)^3, L^3 at the degree limit L: a sweep of more
    than 4 L^4 in all raises ValueError before any case."""
    chosen = sorted(ids) if ids is not None else identity_ids()
    entries = [(identity_id, _lookup(identity_id)) for identity_id in chosen]  # every id, before any case
    sweep = [
        (identity_id, params)
        for identity_id, entry in entries
        for params in entry.sweep({**entry.bounds, **(bounds or {}).get(identity_id, {})})
    ]
    limit = max_degree_limit()
    if sum(sum(params.values()) ** 3 for _, params in sweep) > 4 * limit**4:
        raise ValueError(f"a sweep of {len(sweep)} cases is too big for the degree limit {limit} (DEGBERN_MAX_DEGREE)")
    return [verify(identity_id, params, perturb=perturb) for identity_id, params in sweep]
