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
rule, the kinds whose numbers it reads, and the basis. Each rational core
is A(t)^(-r) for a closed-form series A with A(0) = 1 ((e^t-1)/t,
log(1+t)/t, (e^t+1)/2), so c_k follows from c_0..c_{k-1} by J. C. P.
Miller's power recurrence, with int weights. The degenerate numbers take no
recurrence over Q[l]. With u = log(1+lt)/l, e_l(t) = e^u and the core
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
tables' denominators, with one gcd. Member n is the numbers times the
monomials, or times the falling factorials read straight off the same
Stirling numbers, (x)_{n,l} = sum_m s(n,m) l^(n-m) x^m (``deg_falling``).
The table keeps numbers only: ``_member`` builds a member from them, and its
one bounded cache keeps the 512 read last. Readers that want
numbers only read them through ``_numbers`` and build no member: the
Bernoulli, Euler and Genocchi numbers, the scaled family, whose [x^i] is
C(n,i) B_(n-i)^(a) l^(n-i), the default g-route, ``expansion.reconstruct``
and ex_g's closed form in ``identities``. Stirling numbers of the second
kind and harmonic numbers round out the kit; the int triangles of Stirling
numbers of both kinds live in ``core``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import partial
from math import comb, factorial, gcd, lcm
from operator import add

from .core import LambdaPoly, XPoly, _cached, _CacheInfo, _check_index, _over_lcm, _register, _stirling1_rows
from .umbral import sequence_diff, umbral_compose

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
# (numbers, r, n, *their numbers) -> a new list of its numbers through c_n; its
# basis b_i, None for x^i). A rational kind's core is A^(-r), A(0) = 1, and its
# rule is Miller's recurrence on the a_j = 1/recip(j) of A.
_KINDS = {
    # A = (e^t-1)/t, a_j = 1/(j+1)!
    "bernoulli_r": ((), partial(_miller, lambda j: factorial(j + 1)), None),
    # A = log(1+t)/t, a_j = (-1)^j/(j+1): the second-kind numbers b_j^(r) = j! [t^j] (t/log(1+t))^r
    "bernoulli2_r": ((), partial(_miller, lambda j: (-1) ** j * (j + 1)), None),
    # A = (e^t+1)/2, a_0 = 1 and a_j = 1/(2 j!)
    "euler": ((), partial(_miller, lambda j: 2 * factorial(j) if j else 1), None),
    # core (t/(e_l(t)-1))^r: the closed form of ``_deg_numbers``
    "deg_bernoulli_r": (("bernoulli_r", "bernoulli2_r"), _deg_numbers, deg_falling),
}


def _check_key(key: tuple) -> None:
    """Refuse a key that is not (kind, r): checked on every read, since a cached
    ("bernoulli_r", 1) would also answer ("bernoulli_r", True)."""
    if len(key) != 2 or key[0] not in _KINDS:
        raise ValueError(f"unknown family {key!r}")
    _check_index(key[1], "r")


class FamilyTable:
    """Append-only table of the module docstring's numbers c_0, c_1, ..., keyed by (kind, r).

    ``_KINDS`` states each kind's rule and sources. A request past a cached end
    grows the key's sources first, since the lock is not reentrant; then
    ``_grow`` computes only the missing numbers, under one plain lock, and
    replaces the cached list wholesale. Lists are never mutated in place, so
    unlocked readers always see complete entries, and ``cache_clear()`` empties
    the table under the same lock. It keeps no member: ``_member`` builds those.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._numbers: dict[tuple, list[LambdaPoly]] = {}

    def cache_clear(self) -> None:
        with self._lock:
            self._numbers.clear()

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(None, len(self._numbers))

    def numbers(self, key: tuple, n: int) -> list[LambdaPoly]:
        """The published numbers c_0.. of key, at least through c_n; not to be mutated."""
        _check_index(n)
        _check_key(key)
        entry = self._numbers.get(key)
        if entry is not None and n < len(entry):
            return entry
        r, (sources, rule, _) = key[1], _KINDS[key[0]]
        theirs = [self.numbers((source, r), n) for source in sources]
        return self._grow(key, n, lambda numbers: rule(numbers, r, n, *theirs))

    def _grow(self, key: tuple, n: int, extend) -> list[LambdaPoly]:
        """The numbers of key, at least through c_n: under the lock, a list still too short is
        replaced by extend(list), a new list, and published wholesale."""
        with self._lock:
            entry = self._numbers.get(key, [])
            if n >= len(entry):
                entry = self._numbers[key] = extend(entry)
            return entry


_TABLE = _register(FamilyTable())


def _numbers(kind: str, r: int, n: int) -> list[LambdaPoly]:
    """c_0..c_n, at least, of the table key (kind, r): the published list, read and never mutated."""
    return _TABLE.numbers((kind, r), n)


def _check_member(kind: str, r: int, n: int) -> None:
    _check_index(n)
    _check_key((kind, r))


@_cached(512, _check_member)
def _member(kind: str, r: int, n: int) -> XPoly:
    """Member n of the table key (kind, r): sum_i C(n,i) c_(n-i) b_i."""
    numbers, basis = _numbers(kind, r, n), _KINDS[kind][2]
    d = XPoly([c * comb(n, i) for i, c in enumerate(reversed(numbers[: n + 1]))])
    return umbral_compose(d, basis) if basis else d


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
    [x^i] = C(n,i) B_(n-i)^(a) l^(n-i) (N. E. Norlund, 1924). It builds no member.
    Each coefficient is a single term, set at primitive content by one gcd."""
    numbers = _numbers("bernoulli_r", _check_index(a, "a"), n)
    coeffs = []
    for i in range(n + 1):
        c = numbers[n - i]  # a rational: no numerator, or one
        p = object.__new__(LambdaPoly)
        if c._coeffs:
            num = comb(n, i) * c._coeffs[0]
            g = gcd(num, c._den)
            p._coeffs, p._den = (0,) * (n - i) + (num // g,), c._den // g
        else:
            p._coeffs, p._den = (), 1
        coeffs.append(p)
    return XPoly._make(coeffs)


@_cached(4096, lambda n, k: (_check_index(n), _check_index(k, "k")))
def stirling2(n: int, k: int) -> Fraction:
    """Stirling number of the second kind, by the explicit integer sum
    S2(n,k) = sum_j (-1)^(k-j) C(k,j) j^n / k!, taken only for k <= n."""
    if n < k:
        return Fraction(0)
    return Fraction(sequence_diff([j**n for j in range(k + 1)], k) // factorial(k))


@_cached(256, lambda n: _check_index(n, "harmonic()", 1))
def harmonic(n: int) -> Fraction:
    """Harmonic number 1 + 1/2 + ... + 1/n, exact."""
    total = Fraction(0)
    for k in range(1, n + 1):
        total += Fraction(1, k)
    return total
