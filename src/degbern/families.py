"""Number sequences and polynomial families, grown one member at a time.

Every polynomial family here is of Appell type: its generating function
(EGF convention, ``family_n(x) = n! [t^n] F(t, x)``) is a core series
``core(t)^r`` times a basis series in t and x, so member n is
sum_i C(n,i) c_{n-i} b_i, numbers ``c_k = k! [t^k] core^r`` times a basis:

    table kind        family                        generating function         b_i
    bernoulli_r       order-r Bernoulli             (t/(e^t-1))^r e^{xt}        x^i
    bernoulli2_r      order-r, second kind          (t/log(1+t))^r e^{xt}       x^i
    euler             Euler (r = 1)                 2/(e^t+1) e^{xt}            x^i
    deg_bernoulli_r   order-r degenerate Bernoulli  (t/(e_l(t)-1))^r e_l^x(t)   (x)_{i,l}
    (derived)         scaled order-a Bernoulli      (lt/(e^{lt}-1))^a e^{xt}, order a with [x^i] times l^(n-i)
    (derived)         degenerate falling factorial  e_l^x(t), order-0 degenerate Bernoulli
    (derived)         Genocchi                      2t/(e^t+1) e^{xt}, so G_n(x) = n E_{n-1}(x)

where e_l^x(t) = (1+lt)^{x/l}, e_l(t) = e_l^1(t), (x)_{i,l} is
x(x-l)...(x-(i-1)l), order 1 gives the plain Bernoulli families and the
scaled family is l^n B_n^(a)(x/l). The numbers, c_k being member k at
x = 0, are a table's state; one entry of ``_KINDS`` per kind holds their
rule, the kinds whose numbers it reads, and whether its basis is the falling
factorials. Each rational core is A(t)^(-r) for a closed-form series A with
A(0) = 1 ((e^t-1)/t, log(1+t)/t, (e^t+1)/2), so c_k follows from c_0..c_{k-1}
by J. C. P. Miller's power recurrence, with int weights. The degenerate numbers
take no recurrence over Q[l]. With u = log(1+lt)/l, e_l(t) = e^u and the core
factors into two rational ones,

    (t/(e_l(t)-1))^r = (lt/log(1+lt))^r (u/(e^u-1))^r,

the second-kind core at lt, whose numbers are l^j b_j^(r), times the order-r
Bernoulli core at u, whose numbers are B_m^(r). As u^m/m! is
sum_N s(N,m) l^(N-m) t^N/N!, with s the signed Stirling numbers of the
first kind,

    c_N = sum_(m=0..N) B_m^(r) T(N,m) l^(N-m),
    T(N,m) = sum_(j=0..N-m) C(N,j) b_j^(r) s(N-j,m)
           = perm(N,r)/perm(m,r) s(N-r,m-r)   for m >= r,

the collapse because (t/u)^r u^m = t^r u^(m-r) (N. E. Norlund, Vorlesungen
uber Differenzenrechnung, 1924; L. Carlitz, Degenerate Stirling, Bernoulli
and Eulerian numbers, 1979). So each c_N is one int sum over the two order-r
tables' denominators, with one gcd.

Every kind is Appell in its basis, so a sum over its members is one sum over
its numbers, sum_k a_k P_k(x) = sum_i d_i b_i with d_i = sum_(k>=i) C(k,i)
c_(k-i) a_k (S. Roman, The Umbral Calculus, 1984). ``_appell`` is that sum, both
``expansion.reconstruct`` and the identities' Bernoulli sums: the d_i are one
``core._packed_products`` over a number side kept per (kind, r, n), put on the
falling factorials (x)_{i,l} = x(x-l)...(x-(i-1)l) by ``core._falling``, Horner
in x - i l. Member n is the row C(n,i) c_(n-i) (``_row``), through the same
Horner on the falling factorials; the scaled family is that row on the order-a
Bernoulli numbers times l^(n-i). ``_member`` keeps the 512 members read last;
the table keeps numbers only. Stirling numbers of the second kind and harmonic
numbers round out the kit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd, lcm
from operator import add
from typing import Sequence

from .core import (
    LambdaPoly, XPoly, _cached, _check_index, _falling, _over_lcm, _packed_products, _product_side, _ProductSide,
    _register, _stirling1_rows, _Table, check_size,
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


def _deg_numbers(numbers: list, r: int, n: int, bern: list, second: list) -> list[LambdaPoly]:
    """The degenerate numbers extended through c_n by the module docstring's closed form,
    from the order-r Bernoulli numbers B_m^(r) and second-kind numbers b_j^(r) through n.

    Each c_N is summed in ints over D = bd sd (N-r)!, with bd and sd the lcm
    denominators of the Bernoulli and the second-kind numbers. For m >= r the
    (N-r)! cancels: perm(N,r)/perm(m,r) = perm(N,N-m) (m-r)!/(N-r)!. For m < r,
    sd T(N,m) is an int dot product of C(N,j) sd b_j^(r) with column m of the
    Stirling rows.
    """
    bn, bd = _over_lcm([c.as_rational() for c in bern[: n + 1]])
    sn, sd = _over_lcm([c.as_rational() for c in second[: n + 1]])
    rows, fact = _stirling1_rows(n), [factorial(i) for i in range(n + 1)]
    out = list(numbers)
    for N in range(len(numbers), n + 1):
        nums = [0] * (N + 1)  # nums[N-m] holds the l^(N-m) term
        scale = fact[N - r] if N >= r else 1
        low = min(r, N + 1)
        if low:  # m < r: sum over j of C(N,j) b_j^(r) s(N-j,m), for all such m at once
            t = [0] * low
            for j in range(N + 1):
                w = comb(N, j) * sn[j]
                if w:
                    row = rows[N - j][:low]
                    t[: len(row)] = map(add, t, [w * s for s in row])
            for m in range(low):
                nums[N - m] = bn[m] * scale * t[m]
        if N >= r:  # m >= r: T(N,m) = perm(N,r)/perm(m,r) s(N-r,m-r)
            row, w = rows[N - r], fact[N] * sd
            for m in range(r, N + 1):
                nums[N - m] = bn[m] * (w // fact[m]) * fact[m - r] * row[m - r]
        out.append(LambdaPoly._make(nums, bd * sd * scale))
    return out


# kind -> (the kinds at the same r whose numbers its rule reads; its rule
# (numbers, r, n, *their numbers) -> a new list of its numbers through c_n; whether
# its basis b_i is (x)_{i,l}, else x^i). A rational kind's core is A^(-r), A(0) = 1,
# and its rule is Miller's recurrence on the a_j = 1/recip(j) of A.
_KINDS = {
    # A = (e^t-1)/t, a_j = 1/(j+1)!
    "bernoulli_r": ((), partial(_miller, lambda j: factorial(j + 1)), False),
    # A = log(1+t)/t, a_j = (-1)^j/(j+1): the second-kind numbers b_j^(r) = j! [t^j] (t/log(1+t))^r
    "bernoulli2_r": ((), partial(_miller, lambda j: (-1) ** j * (j + 1)), False),
    # A = (e^t+1)/2, a_0 = 1 and a_j = 1/(2 j!)
    "euler": ((), partial(_miller, lambda j: 2 * factorial(j) if j else 1), False),
    # core (t/(e_l(t)-1))^r: the closed form of ``_deg_numbers``
    "deg_bernoulli_r": (("bernoulli_r", "bernoulli2_r"), _deg_numbers, True),
}


def _check_key(key: tuple) -> None:
    """Refuse a key that is not (kind, r): checked on every read, since a cached
    ("bernoulli_r", 1) would also answer ("bernoulli_r", True)."""
    if key[0] not in _KINDS:
        raise ValueError(f"unknown family {key!r}")
    _check_index(key[1], "r")


def _grow_numbers(numbers: Sequence[LambdaPoly], n: int, kind: str, r: int) -> list[LambdaPoly]:
    """The numbers of (kind, r) extended through c_n by the kind's rule, from its sources'
    numbers through c_n, read through ``_TABLE``; r is bounded by the degree limit."""
    check_size("order r", r)
    sources, rule, _ = _KINDS[kind]
    return rule(numbers, r, n, *(_TABLE(n, (source, r)) for source in sources))


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


def _appell(kind: str, r: int, coeffs: Sequence[LambdaPoly]) -> XPoly:
    """sum_k a_k P_k(x) over the members of (kind, r), for coeffs a_0..a_n, from the numbers
    alone: sum_i d_i b_i, d_i = sum_(k>=i) C(k,i) c_(k-i) a_k as int rows over one denominator,
    fed straight to ``core._falling`` on the falling factorials: only the output gets a gcd."""
    d, den = _packed_products(_number_side(kind, r, len(coeffs) - 1), coeffs)
    if _KINDS[kind][2]:
        return XPoly._make(_falling(d, den))
    return XPoly._make([LambdaPoly._make(row, den) for row in d])


@_cached(512, lambda kind, r, n: (_check_index(n), _check_key((kind, r))))
def _member(kind: str, r: int, n: int) -> XPoly:
    """Member n of the table key (kind, r): its ``_row``, on the falling factorials by ``core._falling``."""
    row = _row(kind, r, n)
    if not _KINDS[kind][2]:
        return XPoly._make(row)
    den = lcm(*(c._den for c in row))
    return XPoly._make(_falling([[x * (den // c._den) for x in c._coeffs] for c in row], den))


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
