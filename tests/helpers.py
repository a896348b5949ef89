"""Shared random generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
series inverse uses Newton iteration on plain coefficient lists, Stirling
numbers come from brute-force set-partition enumeration and from a series
power, the classical expansion coefficients come straight from
derivative/integral formulas, and the polynomial families come from
products of truncated generating series instead of the tables' numbers x
basis recurrences. The degenerate numbers, which the library sums from a
closed form, have a second oracle: Miller's recurrence on the Q[l]
coefficients of (e_l(t)-1)/t. So do the scaled Bernoulli family, the Appell
sums over a family's members (reconstruct, the Bernoulli sums) and ex_g's
closed form, which the library reads off the numbers: the members themselves,
and their composition.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, gcd, perm

from hypothesis import strategies as st

from degbern import families
from degbern.core import LambdaPoly, TruncSeries, XPoly, clear_caches
from degbern.expansion import _alternating
from degbern.families import bernoulli_poly_order, genocchi_number
from degbern.umbral import integral_I, sequence_diff, umbral_compose

BOUND = 10**6


def record_grows(monkeypatch) -> list[tuple]:
    """Empty every cache, then record the key of each grow of the family table's
    numbers, in order, in the list returned; a key's sources grow, and are
    recorded, before it. A second call starts a new record."""
    clear_caches()
    grown: list[tuple] = []

    def grow(numbers, n, kind, r):
        numbers = families._grow_numbers(numbers, n, kind, r)
        grown.append((kind, r))
        return numbers

    monkeypatch.setattr(families._TABLE, "_grow", grow)
    return grown


def random_fraction(rng: random.Random, bound: int = BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_lambda_poly(rng: random.Random, max_lam_deg: int = 3, bound: int = BOUND) -> LambdaPoly:
    terms = {}
    for e in range(rng.randint(0, max_lam_deg) + 1):
        if rng.random() < 0.7:
            terms[e] = random_fraction(rng, bound)
    return LambdaPoly(terms)


def random_xpoly(
    rng: random.Random,
    max_degree: int = 10,
    lam_bearing: bool = True,
    bound: int = BOUND,
) -> XPoly:
    degree = rng.randint(0, max_degree)
    coeffs = []
    for _ in range(degree + 1):
        if lam_bearing:
            coeffs.append(random_lambda_poly(rng, 3, bound))
        else:
            coeffs.append(LambdaPoly.const(random_fraction(rng, bound)))
    p = XPoly(coeffs)
    return p if not p.is_zero else XPoly.monomial(degree)


def corpus(count: int = 200, seed: int = 20260810, max_degree: int = 10) -> list[XPoly]:
    """Deterministic mixed corpus: odd indices carry l, even ones are l-free."""
    rng = random.Random(seed)
    return [random_xpoly(rng, max_degree, lam_bearing=(i % 2 == 1)) for i in range(count)]


# -- independent oracles -------------------------------------------------------


def list_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j in range(order + 1 - i):
                if b[j]:
                    out[i + j] += ai * b[j]
    return out


def terms_add(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Sum of two polynomials held as {exponent: Fraction}, zero terms dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def terms_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of two polynomials held as {exponent: Fraction}, zero terms dropped."""
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return {e: c for e, c in out.items() if c}


def newton_inverse(coeffs: list[Fraction], order: int) -> list[Fraction]:
    """Series inverse by Newton iteration g -> g(2 - f g) on plain lists."""
    f = [Fraction(c) for c in coeffs] + [Fraction(0)] * (order + 1 - len(coeffs))
    g = [1 / f[0]] + [Fraction(0)] * order
    precision = 1
    while precision <= order:
        precision *= 2
        fg = list_mul(f, g, order)
        two_minus = [-c for c in fg]
        two_minus[0] += 2
        g = list_mul(g, two_minus, order)
    return g


def partition_count(n: int, k: int) -> int:
    """Number of set partitions of {0..n-1} into exactly k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    blocks: list[list[int]] = []

    def rec(i: int) -> None:
        nonlocal count
        if i == n:
            count += len(blocks) == k
            return
        for b in blocks:
            b.append(i)
            rec(i + 1)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            rec(i + 1)
            blocks.pop()

    rec(0)
    return count


def classical_coeffs_order1(p: XPoly) -> list[Fraction]:
    """a_0 = integral_0^1 p, a_k = (p^(k-1)(1) - p^(k-1)(0))/k! for l-free p."""
    anti = p.antiderivative()
    out = [(anti.eval_x(1) - anti.eval_x(0)).as_rational()]
    d = p
    for k in range(1, p.degree + 1):
        out.append((d.eval_x(1) - d.eval_x(0)).as_rational() / factorial(k))
        d = d.derivative()
    return out


def classical_coeffs_higher(p: XPoly, r: int) -> list[Fraction]:
    """Two-case classical coefficients for the order-r Bernoulli basis."""
    out = []
    for k in range(p.degree + 1):
        if k < r:
            w = chained_integral_I(p, r - k)
            acc = Fraction(0)
            for j in range(k + 1):
                acc += Fraction((-1) ** (k - j) * comb(k, j)) * w.eval_x(j).as_rational()
            out.append(acc / factorial(k))
        else:
            d = p.derivative(k - r)
            acc = Fraction(0)
            for j in range(r + 1):
                acc += Fraction((-1) ** (r - j) * comb(r, j)) * d.eval_x(j).as_rational()
            out.append(acc / factorial(k))
    return out


# -- term-by-term references for the kernel's Q[l] linear combinations ---------------

# small denominators with shared factors, so the kernel's sums rescale to a growing lcm:
# every n/d in [-60, 60] with d <= 12, drawn as two plain integers (drawing through
# st.fractions took most of each property's time)
SMALL_FRACTIONS = st.builds(lambda u, d: Fraction(u * d // 12, d), st.integers(-720, 720), st.integers(1, 12))
SMALL_LAMBDA_POLYS = st.dictionaries(st.integers(0, 4), SMALL_FRACTIONS, max_size=4).map(LambdaPoly)


def small_xpolys(max_terms: int):
    return st.lists(SMALL_LAMBDA_POLYS, max_size=max_terms).map(XPoly)


def is_primitive(value: LambdaPoly) -> bool:
    """A positive denominator, a gcd of 1 with the numerators, no trailing zero."""
    nums, den = value._coeffs, value._den
    return den > 0 and gcd(den, *nums) == 1 and (not nums or nums[-1] != 0)


def all_primitive(p: XPoly) -> bool:
    return all(is_primitive(c) for c in p.coeffs) and (not p.coeffs or bool(p.coeffs[-1]))


def taylor_shift(p: XPoly, c: LambdaPoly | Fraction | int) -> XPoly:
    """p(x + c) = sum_k p^(k)(x) c^k / k!, one Taylor term at a time, each
    derivative taken from the last."""
    c = c if isinstance(c, LambdaPoly) else LambdaPoly.const(c)
    total, term, k = XPoly.zero(), p, 0
    while term:
        total = total + term * (c**k / factorial(k))
        term, k = term.derivative(), k + 1
    return total


def chained_integral_I(p: XPoly, a: int) -> XPoly:
    """I^a p as a chained integral_I calls, one difference of one antiderivative each."""
    for _ in range(a):
        p = integral_I(p)
    return p


def difference_by_values(w: XPoly, k: int) -> LambdaPoly:
    """Delta^k w(0) from the values w(0), ..., w(k) and their alternating sum."""
    return sequence_diff([w.eval_x(j) for j in range(k + 1)], k)


def apply_by_derivatives(f, p: XPoly) -> XPoly:
    """f(t)p = sum_k c_k p^(k), one derivative, XPoly product and sum per term."""
    total, d = XPoly.zero(), p
    for c in f.series(max(p.degree, 0)).coeffs:
        total = total + d * c
        d = d.derivative()
    return total


def functional_by_terms(f, p: XPoly) -> LambdaPoly:
    """<f(t) | p> = sum_k c_k k! p_k, one LambdaPoly product and sum per term."""
    total = LambdaPoly.zero()
    for k, c in enumerate(p.coeffs):
        total = total + f.coeff(k) * c * factorial(k)
    return total


def member_sum(kind: str, r: int, coeffs) -> XPoly:
    """sum_k a_k P_k(x) for the members P_k of the table key (kind, r), composed with
    the members themselves, where ``families._appell`` reads only their numbers."""
    return umbral_compose(XPoly(coeffs), lambda k: families._member(kind, r, k))


def member_reconstruct(e) -> XPoly:
    """sum_k a_k beta_k^(r)(x) of an expansion, composed with the order-r members
    themselves: the tables' members, where reconstruct reads only their numbers."""
    return member_sum("deg_bernoulli_r", e.order, e.coeffs)


def scaled_member(n: int, a: int) -> XPoly:
    """l^n B_n^(a)(x/l): the order-a Bernoulli member with [x^i], a rational, times l^(n-i)."""
    member = bernoulli_poly_order(n, a)
    return XPoly([LambdaPoly._make([0] * (n - i) + list(c._coeffs), c._den) for i, c in enumerate(member.coeffs)])


def member_ex_g_coeffs(n: int, r: int) -> list[LambdaPoly]:
    """a_0..a_(r-1) of ex_g's closed form, composed with the scaled members:
    a_k = -4/(n k!) Delta^(r-1) [sum_i t_i l^(i+mm) B_(i+mm)^(r-k)(x/l)](0), with
    mm = r-k-1 and t_i = C(n,i) G_(n-i) / ((n-i) perm(i+mm, mm))."""
    weights = [Fraction(comb(n, i)) * genocchi_number(n - i) / (n - i) for i in range(n - 1)]
    lower = []
    for k in range(r):
        mm = r - k - 1
        terms = XPoly([c / perm(i + mm, mm) for i, c in enumerate(weights)])
        w = umbral_compose(terms, lambda i: scaled_member(i + mm, r - k))
        lower.append(_alternating(w, r - 1) * Fraction(-4, n * factorial(k)))
    return lower


def compose_by_products(p: XPoly, family) -> XPoly:
    """sum_i p_i family(i), one XPoly product and sum per term."""
    total = XPoly.zero()
    for i, c in enumerate(p.coeffs):
        total = total + family(i) * c
    return total


# -- generating-series oracle for the family tables -----------------------------------


def _inv_fact(k: int) -> Fraction:
    return Fraction(1, factorial(k))


def _falling_list(n: int) -> list[XPoly]:
    """(x)_{0,l} .. (x)_{n,l} via the product x(x-l)...(x-(k-1)l)."""
    out = [XPoly.one()]
    lam = LambdaPoly.lam()
    for k in range(1, n + 1):
        out.append(out[-1] * XPoly((-(lam * (k - 1)), LambdaPoly.one())))
    return out


def _exp_x_series(order: int) -> TruncSeries:
    """e^{xt}: coefficient of t^k is x^k/k!."""
    return TruncSeries.from_fn(XPoly, order, lambda k: XPoly.monomial(k, _inv_fact(k)))


def _deg_exp_series(order: int) -> TruncSeries:
    """e_l^x(t) = (1+lt)^{x/l}: coefficient of t^k is (x)_{k,l}/k!."""
    falling = _falling_list(order)
    return TruncSeries(XPoly, order, [falling[k] * _inv_fact(k) for k in range(order + 1)])


def _classic_core(order: int) -> TruncSeries:
    """t/(e^t-1), i.e. the inverse of sum_k t^k/(k+1)!."""
    return TruncSeries.from_fn(LambdaPoly, order, lambda k: LambdaPoly.const(_inv_fact(k + 1))).inverse()


def _deg_core(order: int) -> TruncSeries:
    """t/(e_l(t)-1), inverse of sum_k (1)_{k+1,l} t^k/(k+1)!."""
    lam = LambdaPoly.lam()
    one_falling = [LambdaPoly.one()]
    for k in range(1, order + 2):
        one_falling.append(one_falling[-1] * (LambdaPoly.one() - lam * (k - 1)))
    base = TruncSeries(LambdaPoly, order, [one_falling[k + 1] * _inv_fact(k + 1) for k in range(order + 1)])
    return base.inverse()


def _scaled_core(order: int) -> TruncSeries:
    """lt/(e^{lt}-1), inverse of sum_k l^k t^k/(k+1)!."""
    return TruncSeries.from_fn(LambdaPoly, order, lambda k: LambdaPoly.monomial(k, _inv_fact(k + 1))).inverse()


def _second_kind_core(order: int) -> TruncSeries:
    """t/log(1+t), inverse of sum_k (-1)^k t^k/(k+1)."""
    return TruncSeries.from_fn(LambdaPoly, order, lambda k: LambdaPoly.const(Fraction((-1) ** k, k + 1))).inverse()


def _euler_core(order: int) -> TruncSeries:
    """2/(e^t+1)."""
    base = TruncSeries.from_fn(LambdaPoly, order, lambda k: LambdaPoly.const(2 if k == 0 else _inv_fact(k)))
    return base.inverse() * 2


def _lift(series: TruncSeries) -> TruncSeries:
    """Reinterpret a LambdaPoly series as an XPoly series of constants."""
    return TruncSeries(XPoly, series.order, [XPoly.const(c) for c in series.coeffs])


def _extract(series: TruncSeries) -> list[XPoly]:
    return [series.coeff(m) * factorial(m) for m in range(series.order + 1)]


def series_family(key: tuple, n: int) -> list[XPoly]:
    """Members 0..n of a family table key, or of the derived ("deg_falling",) or
    ("genocchi",), as n! [t^n] of core^r times the basis series."""
    kind = key[0]
    if kind == "deg_falling":
        polys = _falling_list(n)
    elif kind == "bernoulli_r":
        polys = _extract(_lift(_classic_core(n) ** key[1]) * _exp_x_series(n))
    elif kind == "bernoulli2_r":
        polys = _extract(_lift(_second_kind_core(n) ** key[1]) * _exp_x_series(n))
    elif kind == "euler":
        polys = _extract(_lift(_euler_core(n) ** key[1]) * _exp_x_series(n))
    elif kind == "genocchi":
        # 2t/(e^t+1)e^{xt} = t * (Euler series): shift indices by one.
        s = _lift(_euler_core(n)) * _exp_x_series(n)
        return [XPoly.zero()] + [s.coeff(m - 1) * factorial(m) for m in range(1, n + 1)]
    elif kind == "deg_bernoulli_r":
        polys = _extract(_lift(_deg_core(n) ** key[1]) * _deg_exp_series(n))
    elif kind == "scaled_bernoulli":
        polys = _extract(_lift(_scaled_core(n) ** key[1]) * _exp_x_series(n))
    else:
        raise ValueError(f"unknown family {key!r}")
    for m, p in enumerate(polys):
        if p.degree != m:
            raise ArithmeticError(f"family {key!r} member {m} has degree {p.degree}")
    return polys


def _deg_base(k: int) -> list[LambdaPoly]:
    """(1)_{j+1,l}/(j+1)! for j = 0..k, the coefficients of (e_l(t)-1)/t, where
    (1)_{j+1,l} = (1-l)(1-2l)...(1-jl)."""
    out, falling = [], LambdaPoly.one()
    lam = LambdaPoly.lam()
    for j in range(k + 1):
        out.append(falling * _inv_fact(j + 1))
        falling = falling * (1 - lam * (j + 1))
    return out


def miller_deg_numbers(r: int, n: int) -> list[LambdaPoly]:
    """c_0..c_n, c_k = k! [t^k] (t/(e_l(t)-1))^r, by Miller's power recurrence on the
    Q[l] coefficients a_j of A = (e_l(t)-1)/t:
    c_k = sum_(j=1..k) ((1-r)j - k) (k-1)!/(k-j)! a_j c_(k-j), one LambdaPoly product
    and sum per term."""
    base = _deg_base(n)
    out = [LambdaPoly.one()]
    for k in range(1, n + 1):
        total = LambdaPoly.zero()
        for j in range(1, k + 1):
            total = total + out[k - j] * base[j] * (((1 - r) * j - k) * perm(k - 1, j - 1))
        out.append(total)
    return out


def series_stirling2(n: int, k: int) -> Fraction:
    """S2(n,k) = n! [t^n] (e^t-1)^k/k!, as a power of the series (e^t-1)/t."""
    if k == 0 or k > n:
        return Fraction(int(n == k))
    base = TruncSeries.from_fn(LambdaPoly, n - k, lambda j: LambdaPoly.const(_inv_fact(j + 1)))
    return (base**k).coeff(n - k).as_rational() * factorial(n) / factorial(k)
