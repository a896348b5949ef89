"""Number sequences and polynomial families, grown one member at a time.

Every polynomial family here is of Appell type: its generating function
(EGF convention, ``family_n(x) = n! [t^n] F(t, x)``) is a core series
``core(t)^r`` times e^{xt}, so member n is sum_i C(n,i) c_{n-i} x^i, with
numbers ``c_k = k! [t^k] core^r``:

    table kind        family                        generating function
    bernoulli_r       order-r Bernoulli             (t/(e^t-1))^r e^{xt}
    bernoulli2_r      order-r, second kind          (t/log(1+t))^r e^{xt}
    euler             Euler (r = 1)                 2/(e^t+1) e^{xt}
    (derived)         order-r degenerate Bernoulli  (t/(e_l(t)-1))^r e_l^x(t), the T sum below
    (derived)         scaled order-a Bernoulli      (lt/(e^{lt}-1))^a e^{xt}, order a with [x^i] times l^(n-i)
    (derived)         degenerate falling factorial  e_l^x(t), order-0 degenerate Bernoulli
    (derived)         Genocchi                      2t/(e^t+1) e^{xt}, so G_n(x) = n E_{n-1}(x)

where e_l^x(t) = (1+lt)^{x/l}, e_l(t) = e_l^1(t), (x)_{i,l} is
x(x-l)...(x-(i-1)l), order 1 gives the plain Bernoulli families and the
scaled family is l^n B_n^(a)(x/l). The numbers, c_k being member k at
x = 0, are a table's state; ``_KINDS`` holds each kind's rule. Each core is
A(t)^(-r) for a closed-form series A with A(0) = 1 ((e^t-1)/t, log(1+t)/t,
(e^t+1)/2), so c_k follows from c_0..c_{k-1} by J. C. P. Miller's power
recurrence, with int weights.

The degenerate family takes no table of its own. With u = log(1+lt)/l,
e_l^x(t) = e^{xu} and the core factors into two rational ones,

    (t/(e_l(t)-1))^r = (lt/log(1+lt))^r (u/(e^u-1))^r,

the second-kind core at lt, whose numbers are l^j b_j^(r), times the order-r
Bernoulli core at u. As u^m/m! is sum_N s(N,m) l^(N-m) t^N/N!, with s the
signed Stirling numbers of the first kind, each member is a finite sum of
order-r Bernoulli polynomials,

    beta_N^(r)(x) = sum_(m=0..N) T(N,m) l^(N-m) B_m^(r)(x),
    T(N,m) = sum_(j=0..N-m) C(N,j) b_j^(r) s(N-j,m)
           = perm(N,r)/perm(m,r) s(N-r,m-r)   for m >= r,

the collapse because (t/u)^r u^m = t^r u^(m-r) (N. E. Norlund, Vorlesungen
uber Differenzenrechnung, 1924; L. Carlitz, Degenerate Stirling, Bernoulli
and Eulerian numbers, 1979). ``_t_rows`` states T once, in ints.

Every family is Appell in x, so a sum over its members is one sum over its
numbers, sum_k a_k P_k(x) = sum_i d_i x^i with d_i = sum_(k>=i) C(k,i)
c_(k-i) a_k (S. Roman, The Umbral Calculus, 1984). ``_appell`` is that sum: one
``core._packed_products`` over a number side kept per (kind, r, n), and on the
degenerate kind, as ``expansion.reconstruct``, one ``core._packed_sums`` on a
plan kept per (n, r) that sums e_m = sum_(k>=m) T(k,m) l^(k-m) a_k and then,
at the same width, the order-r Bernoulli sum of the e_m. Member n is the row
C(n,i) c_(n-i) (``_row``), scaled member n that row on the order-a Bernoulli
numbers times l^(n-i), and degenerate member n the order-r Bernoulli sum of
row n of T. ``_member`` keeps the 512 members read last; the table keeps
numbers only. Stirling numbers of the second kind and harmonic numbers round
out the kit.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm
from operator import add
from typing import Iterable, Sequence

from .core import (
    LambdaPoly, XPoly, _cached, _check_index, _over_lcm, _packed_plan, _packed_products, _packed_sums, _PackedPlan,
    _product_side, _ProductSide, _register, _stirling1_rows, _Table, check_size,
)

__all__ = [
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


def deg_falling(n: int) -> XPoly:
    """Degenerate falling factorial (x)_{n,l} = x(x-l)...(x-(n-1)l) = sum_m s(n,m) l^(n-m) x^m,
    order-0 degenerate Bernoulli."""
    row = _stirling1_rows(_check_index(n))[n]
    return XPoly._make([LambdaPoly._make([0] * (n - m) + [s]) for m, s in enumerate(row)])


def _miller(recip, numbers: list[LambdaPoly], r: int, n: int) -> list[LambdaPoly]:
    """The rational numbers extended through c_n, c_k = k! [t^k] A^(-r) for
    A = sum_j t^j / recip(j), recip(0) = 1, by Miller's power recurrence.

    For B = A^alpha with a_0 = 1: b_k = (1/k) sum_{j=1..k} ((alpha+1)j - k) a_j b_{k-j};
    in terms of c_k = k! b_k the weights (k-1)!/(k-j)! are integers, and so are the
    a_j over den, the lcm of the recip(j). Each sum runs in plain ints over the running
    lcm of the c_(k-j) denominators, with one gcd.
    """
    qs = [recip(j) for j in range(n + 1)]
    den = lcm(*qs)
    base = [den // q for q in qs]
    out = list(numbers) or [LambdaPoly.one()]
    for k in range(len(out), n + 1):
        acc, d, w = 0, 1, 1  # w = perm(k-1, j-1)
        for j in range(1, k + 1):
            c = out[k - j]
            if c._coeffs:
                q = c._den
                up = q // gcd(d, q)
                if up != 1:  # q does not divide d: raise d to their lcm
                    acc *= up
                    d *= up
                acc += c._coeffs[0] * (d // q) * base[j] * (((1 - r) * j - k) * w)
            w *= k - j
        out.append(LambdaPoly._make([acc], d * den))
    return out


# kind -> recip of A = sum_j t^j / recip(j), whose core A^(-r) gives the numbers by ``_miller``
_KINDS = {
    "bernoulli_r": lambda j: factorial(j + 1),  # A = (e^t-1)/t
    # A = log(1+t)/t: the second-kind numbers b_j^(r) = j! [t^j] (t/log(1+t))^r
    "bernoulli2_r": lambda j: (-1) ** j * (j + 1),
    "euler": lambda j: 2 * factorial(j) if j else 1,  # A = (e^t+1)/2
}
#: The kinds with members and Appell sums: the table kinds and the degenerate one (T weights).
_MEMBER_KINDS = (*_KINDS, "deg_bernoulli_r")


def _check_key(key: tuple, kinds: Sequence[str] = tuple(_KINDS)) -> None:
    """Refuse a key that is not (kind, r) for one of kinds: checked on every read, since a
    cached ("bernoulli_r", 1) would also answer ("bernoulli_r", True)."""
    _check_index(key[1], "r")
    if key[0] not in kinds:
        raise ValueError(f"unknown family {key!r}")


def _grow_numbers(numbers: Sequence[LambdaPoly], n: int, kind: str, r: int) -> list[LambdaPoly]:
    """The numbers of (kind, r) extended through c_n by Miller's recurrence; r is bounded by
    the degree limit."""
    check_size("order r", r)
    return _miller(_KINDS[kind], numbers, r, n)


#: The module docstring's numbers c_0, c_1, ... keyed by (kind, r); it keeps no member.
_TABLE = _register(_Table(_grow_numbers))


def _numbers(kind: str, r: int, n: int) -> list[LambdaPoly]:
    """c_0..c_n, at least, of the table key (kind, r): the published list, read and never mutated."""
    _check_index(n)
    _check_key(key := (kind, r))
    return _TABLE(n, key)


def _row(kind: str, r: int, n: int, graded: bool = False) -> list[LambdaPoly]:
    """C(n,i) c_(n-i) for i = 0..n, member n on its basis, each times l^(n-i) if graded:
    one gcd each, of C(n,i) and the denominator, as c_(n-i) is at primitive content."""
    numbers, row = _numbers(kind, r, n), []
    for i in range(n + 1):
        c = numbers[n - i]
        if c._coeffs:  # a zero number gives a zero entry as it is
            w, p = comb(n, i), object.__new__(LambdaPoly)
            g = gcd(w, c._den)
            p._coeffs = (0,) * (n - i if graded else 0) + tuple([x * (w // g) for x in c._coeffs])
            p._den, c = c._den // g, p
        row.append(c)
    return row


@_cached(128)
def _number_side(kind: str, r: int, n: int) -> _ProductSide:
    """c_0..c_n of (kind, r) as the number side of ``core._packed_products`` at degree n."""
    return _product_side(_numbers(kind, r, n)[: n + 1])


def _t_rows(r: int, n: int, ks: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """Row k of the module docstring's T for each k of ks, k <= n: T(k,m), m = 0..k, as an int
    over dens[m] (m = 0..n). For m < r that is sd, the lcm denominator of b_0^(r)..b_n^(r),
    over which T(k,m) is the dot product of C(k,j) sd b_j^(r) with column m of the Stirling
    rows; for m >= r it is perm(m,r), over which T(k,m) is perm(k,r) s(k-r,m-r)."""
    sn, sd = _over_lcm([c.as_rational() for c in _numbers("bernoulli2_r", r, n)[: n + 1]])
    s1 = _stirling1_rows(n)
    rows = []
    for k in ks:
        row = [0] * (k + 1)
        low = min(r, k + 1)
        for j in range(k + 1 if low else 0):  # m < r, for all such m at once
            w = comb(k, j) * sn[j]
            if w:
                s = s1[k - j][:low]
                row[: len(s)] = map(add, row, [w * x for x in s])
        if k >= r:
            w, s = perm(k, r), s1[k - r]
            row[r:] = [w * x for x in s]
        rows.append(row)
    return [sd if m < r else perm(m, r) for m in range(n + 1)], rows


# 64 plans of at most 0.54 MB (degree L): the verify sweep reads 46 (degree, r) pairs.
@_cached(64)
def _t_plan(n: int, r: int) -> _PackedPlan:
    """The degenerate Appell sum at degree n as one ``core._packed_plan`` on a_0..a_n
    themselves: its sums e_m dens[m] = sum_(k>=m) T(k,m) dens[m] l^(k-m) a_k in the ints of
    ``_t_rows``, then its cols [x^i] = sum_(m>=i) C(m,i) B_(m-i)^(r) e_m, each weight over
    bd dens[m] reduced first: C(m,i)/perm(m,r) is C(m-r,i-r)/perm(i,r) for i >= r."""
    dens, rows = _t_rows(r, n, range(n + 1))
    bn, bd = _over_lcm([c.as_rational() for c in _numbers("bernoulli_r", r, n)[: n + 1]])
    cols = []
    for i in range(n + 1):
        terms = [(m, comb(m, i) * bn[m - i], dens[m]) for m in range(i, n + 1) if bn[m - i]]
        terms = [(m, w // g, d // g) for m, w, d in terms for g in (gcd(w, d),)]
        big = lcm(*(d for _, _, d in terms))
        cols.append((bd * big, [(m, w * (big // d)) for m, w, d in terms]))
    return _packed_plan(None, [(1, [(k, rows[k][m]) for k in range(m, n + 1)]) for m in range(n + 1)], cols)


def _appell(kind: str, r: int, coeffs: Sequence[LambdaPoly]) -> XPoly:
    """sum_k a_k P_k(x) over the members of (kind, r), for coeffs a_0..a_n, from the numbers
    alone: sum_i d_i x^i, d_i = sum_(k>=i) C(k,i) c_(k-i) a_k as int rows over one denominator,
    so only the output gets a gcd. The degenerate kind is the one pass of ``_t_plan``."""
    if kind == "deg_bernoulli_r":
        return XPoly._make(_packed_sums(coeffs, _t_plan(len(coeffs) - 1, r)))
    d, den = _packed_products(_number_side(kind, r, len(coeffs) - 1), coeffs)
    return XPoly._make([LambdaPoly._make(row, den) for row in d])


@_cached(512, lambda kind, r, n: (_check_index(n), _check_key((kind, r), _MEMBER_KINDS)))
def _member(kind: str, r: int, n: int) -> XPoly:
    """Member n of (kind, r): its ``_row`` on x^i, or for the degenerate kind the order-r
    Bernoulli sum of row n of T, sum_m T(n,m) l^(n-m) B_m^(r)(x)."""
    if kind != "deg_bernoulli_r":
        return XPoly._make(_row(kind, r, n))
    dens, (row,) = _t_rows(r, n, [n])
    return _appell("bernoulli_r", r, [LambdaPoly._make([0] * (n - m) + [t], dens[m]) for m, t in enumerate(row)])


def bernoulli_poly(n: int) -> XPoly:
    """Bernoulli polynomial of degree n."""
    return _member("bernoulli_r", 1, n)


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number, the constant term of the Bernoulli polynomial."""
    return _numbers("bernoulli_r", 1, n)[n].as_rational()


def bernoulli_poly_order(n: int, r: int) -> XPoly:
    """Order-r Bernoulli polynomial; order 0 gives x^n, order 1 the classical one."""
    return _member("bernoulli_r", r, n)


def euler_poly(n: int) -> XPoly:
    return _member("euler", 1, n)


def euler_number(n: int) -> Fraction:
    return _numbers("euler", 1, n)[n].as_rational()


def genocchi_poly(n: int) -> XPoly:
    """Genocchi polynomial G_n = n E_{n-1}; the zeroth member is 0 and deg G_n = n-1 for n >= 1."""
    return euler_poly(n - 1) * n if _check_index(n) else XPoly.zero()


def genocchi_number(n: int) -> Fraction:
    return euler_number(n - 1) * n if _check_index(n) else Fraction(0)


def deg_bernoulli(n: int) -> XPoly:
    """Degenerate Bernoulli polynomial; specializes to the Bernoulli polynomial at l=0."""
    return _member("deg_bernoulli_r", 1, n)


def deg_bernoulli_order(n: int, r: int) -> XPoly:
    """Order-r degenerate Bernoulli polynomial; order 0 gives (x)_{n,l}."""
    return _member("deg_bernoulli_r", r, n)


def scaled_bernoulli(n: int, a: int) -> XPoly:
    """The polynomial l^n B_n^(a)(x/l), read off the order-a Bernoulli numbers:
    [x^i] = C(n,i) B_(n-i)^(a) l^(n-i) (N. E. Norlund, 1924). It builds no member."""
    return XPoly._make(_row("bernoulli_r", _check_index(a, "a"), n, graded=True))


@_cached(4096, lambda n, k: (_check_index(n), _check_index(k, "k")))
def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind, by the explicit integer sum
    S2(n,k) = sum_j (-1)^(k-j) C(k,j) j^n / k!, taken only for k <= n."""
    if n < k:
        return Fraction(0)
    return Fraction(sum((-1) ** (k - j) * comb(k, j) * j**n for j in range(k + 1)) // factorial(k))


@_cached(256, lambda n: _check_index(n, "harmonic()", 1))
def harmonic(n: int) -> Fraction:
    """Harmonic number 1 + 1/2 + ... + 1/n, exact."""
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))
