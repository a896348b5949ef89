"""Exact arithmetic kernel: rationals, polynomials in the deformation
parameter ``l``, polynomials in ``x`` over Q[l], and truncated power series.

Every value is immutable and every operation exact; there is no floating
point anywhere. The coefficient ring is Q[l] (polynomials), deliberately
not the fraction field Q(l): the only divisions by ``l`` the expansion
formulas need are exact, and ``divexact`` raises ExactDivisionError when
exactness fails, so an algebra bug surfaces as a loud error instead of a
silently wrong rational function.

A ``LambdaPoly`` is stored the way FLINT's ``fmpq_poly`` stores an element
of Q[l]: a tuple of int numerators over one positive int denominator, at
primitive content (no prime divides the denominator and every numerator).
So its arithmetic runs on ints, with one gcd per result, and not on a
``Fraction`` per coefficient. An ``XPoly`` is a tuple of ``LambdaPoly``s,
each with its own denominator: one shared denominator for a whole
polynomial in x inflates every entry.

A linear combination over Q[l] is summed in ints over one denominator, with
one gcd per output coefficient, not as a chain of ``LambdaPoly`` sums that
each take their own lcm and gcd. ``_dot`` does it for a sum of products: for
each coefficient of an ``XPoly`` product and of a ``TruncSeries`` product over
Q[l] (``_convolve``, through ``_dot_products``), for the product sums of the
identity corpus, for ``XPoly.eval_x`` at a rational point, for
``umbral.apply``, ``umbral.functional`` and ``umbral.umbral_compose``, and
for the differences at 0 in ``expansion``. The family numbers take no sum
over Q[l]: ``families`` sums Miller's recurrence in plain ints, with one gcd
per number. ``XPoly.shift`` does it for every output coefficient at once,
one shift per term of c.

The default expansion routes and ``umbral.forward_diff`` with a rational
step (so ``umbral.integral_I`` and I^a too), whose weights are all ints times
powers of l, run on packed rows instead (Kronecker substitution, as FLINT's
``fmpz_poly`` stores a polynomial). A caller states its int weights once to
``_packed_plan``, which keeps them with the l1 bound of their sums as an
immutable plan, and hands the plan and p's coefficients to ``_packed_sums``.
It puts them over their lcm denominator and turns each into one int, its
numerators evaluated at l = 2^B, so a term is one int multiply-add and a power
of l is a shift, and splits each result back exactly, with one gcd, at the slot
width B its docstring's rule gives. The callers are ``expansion``'s one pass of
both default routes, ``umbral.forward_diff``, whose Delta^k weights are also
that pass's stirling_sum rows, and ``families._appell`` on the degenerate kind.
The int Stirling triangles these weights read are kept here.

A lone product of two packed LambdaPolys, the Kronecker product, still loses to
the int kernel above at every length. A sum of many such products wins:
``_packed_products`` packs each of its 2(n+1) inputs once and splits each
connection constant d_i of the Appell sum ``families._appell`` into int slots
once, with no gcd, so each of its n^2/2 terms is one int product, its C(k,i)
computed as it is read. ``_product_side`` prepares the number side once, with the
bounds that give the width in O(n).

Three rules of the package live here once: ``_check_index`` checks every index,
exponent and order in ``core``, ``families`` and ``umbral``; ``check_size`` bounds
every degree, order and sweep by the degree limit (``max_degree_limit``,
DEGBERN_MAX_DEGREE); and ``_signed_sum`` writes every sum of terms, the text of
``LambdaPoly`` and ``XPoly`` and the CLI's LaTeX.

Every cache of the package is an entry of one registry here, and
``clear_caches()`` (``degbern.clear_caches()``) empties them all: each
``lru_cache`` of ``_cached``, and each ``_Table``, whose keys each grow to the
largest index read: the two Stirling triangles here, keyed (), and the family
numbers, keyed (kind, r). Each entry answers ``cache_clear()`` and
``cache_info()`` (``maxsize``, ``currsize``); a ``_Table`` counts its entries
across keys, so a triangle reports its rows. Its bound (None: never evicted)
and its worst case at the default degree limit L = 64, where readers ask for
n <= 2L (n + a for ex_g_iop), are stated here once:

    core._stirling1_rows        None  rows to 2L: 0.6 MB
    core._stirling2_rows        None  rows to 2L: 0.5 MB
    families._TABLE             None  numbers only; keys (kind, r), r <= L, checked as a
                                      key grows. Per r, ("bernoulli_r", r) to 2L and
                                      ("bernoulli2_r", r) to L: 2 MB in all
    families._number_side       128   numbers per (kind, r, n), 24 in the verify sweep; 0.04 MB at 2L: 5 MB
    families._t_plan            64    reconstruct plans per (n, r), 46 in the verify sweep; 0.54 MB at L: 35 MB
    families._member            512   members of degree L-7..L, r = 1..L: 59 MB.
                                      Every order's degenerate members to L and
                                      Bernoulli members to 2L, read in one process,
                                      peak at 33 MB RSS; 299 MB with every member kept
    families.stirling2          4096  the triangle to n = 89: 1 MB
    families.harmonic           256   0.04 MB
    umbral._diff_plan           64    plans of 0.9 MB at degree 2L: 58 MB
    expansion._pass_plan        64    plans of at most 0.31 MB of their own at degree L, beside the
                                      _diff_plan rows at (n, r) and the family numbers they share:
                                      18 MB with those, for every order at L
    identities._product_sum     128   left sides per (family, n), n <= 2L; 0.2 MB at 2L: 25 MB
    identities._ex_b_terms      64    term lists per n; 8 KB at L: 0.5 MB
    identities._ex_c_terms      64    22 KB at L: 1.4 MB
    identities._ex_d_terms      64    7 KB at L: 0.5 MB
    identities._nielsen         512   left sides per (family, m, n); 16 KB at m = n = L: 8 MB
    identities._ex_e_terms      512   term lists per (m, n); 7 KB at m = n = L: 3.7 MB
    identities._ex_f_terms      512   15 KB at m = n = L: 7.7 MB

The last seven, the number sides and the T plans keep what the cases of a sweep
share: the twins of an identity pair, and ex_g at every order with ex_d, read one
left side and one term list, miki_poly at n reads ex_b's left side at 2n, and the
Appell sums over one family at one degree read one number side or T plan. With them,
``verify --all --n-max 32 --r-max 8`` peaks at 56.4 MB RSS.

The package has one lock, ``_LOCK``, reentrant and taken only while a ``_Table``
key grows: threads reading one cold key grow it once, and a grow reads its sources
through the tables it needs. Every other read is unlocked, since a grown key is
published wholesale and never mutated, and an ``lru_cache`` is safe to share.
``umbral.OperatorSeries`` keeps its coefficients in a ``_Table`` of its own, outside
the registry: an operator lives as long as its reader.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "ExactDivisionError",
    "LAMBDA",
    "LambdaPoly",
    "NEG_INFINITY",
    "Scalar",
    "TruncSeries",
    "XPoly",
    "clear_caches",
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


def _check_index(n: int, name: str = "n", least: int = 0) -> int:
    """n, if it is an int of at least ``least`` (0 or 1), else a ValueError naming it.
    A bool is refused: True == 1 and hashes as 1, so it would key a cache entry of its own."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        need = "needs a positive" if least else "must be a non-negative"
        raise ValueError(f"{name} {need} integer, got {n!r}")
    return n


def max_degree_limit() -> int:
    """The active degree guard (DEGBERN_MAX_DEGREE overrides the default 64)."""
    raw = os.environ.get("DEGBERN_MAX_DEGREE")
    if raw is None:
        return 64
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"DEGBERN_MAX_DEGREE must be an integer, got {raw!r}") from None
    if limit < 0:
        raise ValueError("DEGBERN_MAX_DEGREE must be non-negative")
    return limit


def check_size(name: str, value: int, low: int = 0, limit: int | None = None) -> None:
    """The one size guard for degrees, orders and sweep bounds: ValueError unless
    value is an integer from low to limit, not a bool; limit defaults to
    max_degree_limit(), which a caller with several checks reads once."""
    limit = max_degree_limit() if limit is None else limit
    if not isinstance(value, int) or isinstance(value, bool) or not low <= value <= limit:
        raise ValueError(f"{name} must be between {low} and {limit} (DEGBERN_MAX_DEGREE), got {value!r}")


def _signed_sum(terms: Iterable[tuple[bool, str, str]], times: str = "*") -> str:
    """The text of a sum of (negative, magnitude, variable) terms, the one sign
    rule of every writer: the first term takes a bare "-", later ones join with
    " + " or " - ", a unit magnitude is left out before its variable, and the
    empty sum is "0". ``times`` joins a magnitude to its variable."""
    parts: list[str] = []
    for negative, mag, var in terms:
        body = mag if not var else var if mag == "1" else f"{mag}{times}{var}"
        if parts:
            parts.append(f" - {body}" if negative else f" + {body}")
        else:
            parts.append(f"-{body}" if negative else body)
    return "".join(parts) or "0"


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The numerators of values over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _convolve(a: Sequence, b: Sequence, zero, size: int) -> list:
    """Coefficients 0..size-1 of the product of the coefficient sequences a and b;
    over Q[l], one ``_dot`` per output coefficient."""
    if type(zero) is LambdaPoly:
        return _dot_products([(a, b)], size)
    out = [zero] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                if y:
                    out[j] += x * y
    return out


def _stripped(coeffs: list) -> tuple:
    """The coefficients without trailing zeros; consumes the list."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class _CacheInfo(NamedTuple):
    maxsize: int | None
    currsize: int


#: Every cache of the package, in registration order; the module docstring lists them.
_CACHES: list = []


def _register(cache):
    """Add cache, which answers ``cache_clear()`` and ``cache_info()``, to the registry."""
    _CACHES.append(cache)
    return cache


def _cached(bound: int, check: Callable[..., object] | None = None):
    """A registered ``functools.lru_cache(maxsize=bound)``, typed: 2.0 misses and meets the checks.
    ``check(*args)`` runs before the lookup, so that an unhashable index gets its
    ValueError rather than the cache's TypeError."""

    def wrap(fn):
        cache = functools.lru_cache(maxsize=bound, typed=True)(fn)
        if check is None:
            return _register(cache)

        @functools.wraps(fn)
        def checked(*args):
            check(*args)
            return cache(*args)

        checked.cache_info, checked.cache_clear = cache.cache_info, cache.cache_clear
        return _register(checked)

    return wrap


def clear_caches() -> None:
    """Empty every cache of the package: each entry of the module docstring's list."""
    for cache in _CACHES:
        cache.cache_clear()


#: The one lock of the package, taken only to grow a ``_Table`` key; reentrant, so a
#: grow may read other keys, its sources, through the same or another table.
_LOCK = threading.RLock()


class _Table:
    """Entries 0.. per key, to the largest index read, grown by grow(entries, n, *key) -> a new
    sequence through n at least. A key grows under ``_LOCK``, so threads reading one cold key grow
    it once, and is published wholesale, never mutated: unlocked readers are safe."""

    def __init__(self, grow: Callable[..., Sequence]) -> None:
        self._grow, self._entries = grow, {}

    def __call__(self, n: int, key: tuple = ()) -> Sequence:
        """Entries 0..n of key, at least; not to be mutated."""
        entries = self._entries.get(key, ())
        if n >= len(entries):
            with _LOCK:
                entries = self._entries.get(key, ())
                if n >= len(entries):
                    entries = self._entries[key] = self._grow(entries, n, *key)
        return entries

    def cache_clear(self) -> None:
        self._entries = {}

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(None, sum(map(len, self._entries.values())))


def _triangle(weight: Callable[[int, int], int], rows: Sequence[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """rows grown through row n of the int triangle T(k+1,m) = T(k,m-1) + weight(k,m) T(k,m), T(0,0) = 1."""
    rows = list(rows) or [(1,)]
    while len(rows) <= n:
        k, prev = len(rows) - 1, (0, *rows[-1], 0)
        rows.append(tuple(prev[m] + weight(k, m) * prev[m + 1] for m in range(k + 2)))
    return rows


#: The signed Stirling numbers of the first kind s(n, 0..n), read by ``deg_falling``
#: and the degenerate family's T weights, and of the second kind
#: S2(n, 0..n), the weights of ``forward_diff``, the routes and the identities' order-1 map.
_stirling1_rows = _register(_Table(functools.partial(_triangle, lambda k, m: -k)))
_stirling2_rows = _register(_Table(functools.partial(_triangle, lambda k, m: m)))


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
        _check_index(n, "exponent")
        result, base = self._unit(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result


class _Poly(_Ring):
    """Dense polynomial: a tuple of coefficients indexed by exponent, with
    trailing zeros stripped, so equal values have equal tuples and a nonzero
    value has a nonzero leading coefficient. Instances are immutable.

    A subclass names its variable ``_VAR``, the zero of its stored
    coefficients ``_ZERO`` and the scalars that coerce to constants
    ``_SCALARS``. ``XPoly`` stores its coefficients as they are and names
    their coercion ``_coeff_of``; ``LambdaPoly`` stores int numerators over
    one denominator and overrides what reads or builds them.
    """

    __slots__ = ("_coeffs",)

    @classmethod
    def _make(cls, coeffs: list):
        """The value with these coerced coefficients."""
        p = object.__new__(cls)
        p._coeffs = _stripped(coeffs)
        return p

    @classmethod
    def zero(cls):
        return cls._make([])

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def const(cls, value):
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, exponent: int, coeff=1):
        _check_index(exponent, f"{cls._VAR}-exponent")
        coeff = cls._coeff_of(coeff)
        return cls._make([cls._ZERO] * exponent + [coeff] if coeff else [])

    # -- structure -------------------------------------------------------------

    def coeff(self, exponent: int):
        if 0 <= exponent < len(self._coeffs):
            return self._coeffs[exponent]
        return self._ZERO

    @property
    def degree(self) -> int | float:
        return len(self._coeffs) - 1 if self._coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def leading(self):
        return self._coeffs[-1] if self._coeffs else self._ZERO

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self._SCALARS):
            return self.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            if c:  # zero slots are common in values sparse in l; adding one is a no-op
                out[i] = out[i] + c if out[i] else c
        return self._make(out)

    def __neg__(self):
        return self._make([-c for c in self._coeffs])

    def __sub__(self, other):
        """self + (-other), where an equal pair of coefficients gives zero after one compare."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = [*self._coeffs, *[self._ZERO] * (len(other._coeffs) - len(self._coeffs))]
        for i, c in enumerate(other._coeffs):
            if c:
                out[i] = -c if not out[i] else self._ZERO if out[i] == c else out[i] - c
        return self._make(out)

    def __mul__(self, other):
        if not isinstance(other, type(self)):  # tested first: isinstance(_, Fraction) is slow on a miss
            if isinstance(other, self._SCALARS):
                return self._make([c * other if c else c for c in self._coeffs])
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return self.zero()
        return self._make(_convolve(a, b, self._ZERO, len(a) + len(b) - 1))

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def _at(self, value):
        """Horner evaluation of the stored coefficients at a value of the
        coefficient ring or a scalar; at 0 and 1, which the forward differences
        ask for most, no multiplications."""
        coeffs = self._coeffs
        if not value:
            return coeffs[0] if coeffs else self._ZERO
        if value == 1:
            return sum(coeffs, self._ZERO)
        total = self._ZERO
        for c in reversed(coeffs):
            total = total * value + c
        return total

    def inv_unit(self):
        """Multiplicative inverse, defined only for nonzero rational constants."""
        if self.degree != 0:
            raise ValueError(f"{self} is not a unit (nonzero rational constant)")
        c = self.coeff(0)
        return self.const(c.inv_unit() if isinstance(c, _Poly) else 1 / c)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class LambdaPoly(_Poly):
    """Polynomial in ``l`` with exact rational coefficients.

    Stored as FLINT's ``fmpq_poly``: ``_coeffs`` is a tuple of int numerators
    indexed by exponent, trailing zeros stripped, over one positive int
    denominator ``_den``, at primitive content: gcd(_den, *_coeffs) == 1, and
    zero is ((), 1). So equal values have equal (_coeffs, _den). Every
    operation works on the ints and brings its result to primitive content
    with one gcd. The reads (``coeff``, ``leading``, ``items``, ``subs``,
    ``as_rational``) return Fractions.
    """

    __slots__ = ("_den",)
    _VAR = "l"
    _ZERO = 0
    _SCALARS = (int, Fraction)

    def __init__(self, terms: Mapping[int, Scalar] | None = None) -> None:
        fracs: dict[int, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            fracs[_check_index(exp, "l-exponent")] = _fr(coeff)
        scaled, den = _over_lcm(list(fracs.values()))
        nums = [0] * (max(fracs, default=-1) + 1)
        for exp, c in zip(fracs, scaled):
            nums[exp] = c
        self._set(nums, den)

    def _set(self, nums: list[int], den: int) -> None:
        """Store nums / den at primitive content; consumes nums."""
        nums = _stripped(nums)
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = tuple([c // g for c in nums]), den // g
        self._coeffs, self._den = nums, den

    @classmethod
    def _make(cls, nums: list[int], den: int = 1) -> "LambdaPoly":
        """The value nums / den, for int numerators and a positive int den."""
        p = object.__new__(cls)
        p._set(nums, den)
        return p

    @classmethod
    def monomial(cls, exponent: int, coeff: Scalar = 1) -> "LambdaPoly":
        _check_index(exponent, "l-exponent")
        coeff = _fr(coeff)
        return cls._make([0] * exponent + [coeff.numerator], coeff.denominator)

    @classmethod
    def lam(cls) -> "LambdaPoly":
        """The generator ``l`` itself."""
        return cls({1: 1})

    # -- reads -------------------------------------------------------------------

    def coeff(self, exponent: int) -> Fraction:
        if 0 <= exponent < len(self._coeffs):
            return Fraction(self._coeffs[exponent], self._den)
        return Fraction(0)

    def leading(self) -> Fraction:
        return self.coeff(len(self._coeffs) - 1)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        """Terms as (exponent, coefficient) pairs, ascending exponent."""
        return tuple((e, Fraction(c, self._den)) for e, c in enumerate(self._coeffs) if c)

    def as_rational(self) -> Fraction:
        if self.degree > 0:
            raise ValueError(f"{self} is not a rational constant")
        return self.coeff(0)

    def subs(self, value: Scalar) -> Fraction:
        """Evaluate at l = value."""
        return Fraction(self._at(_fr(value)), self._den)

    # -- arithmetic on the numerators --------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, den, b, db = self._coeffs, self._den, other._coeffs, other._den
        if not b:
            return self
        if not a:
            return other
        if den != db:  # over the lcm of the denominators
            g = math.gcd(den, db)
            a = [c * (db // g) for c in a]
            b = [c * (den // g) for c in b]
            den = den // g * db
        if len(a) < len(b):
            a, b = b, a
        return self._make([*map(operator.add, a, b), *a[len(b) :]], den)

    __sub__ = _Ring.__sub__  # _Poly's loop over bare numerators would ignore _den

    def __neg__(self) -> "LambdaPoly":
        """-self, with no gcd: negating the numerators keeps primitive content."""
        p = object.__new__(LambdaPoly)
        p._coeffs, p._den = tuple([-c for c in self._coeffs]), self._den
        return p

    def __mul__(self, other):
        if isinstance(other, LambdaPoly):  # tested first: isinstance(_, Fraction) is slow on a miss
            a, b = self._coeffs, other._coeffs
            if not a or not b:
                return self.zero()
            return self._make(_convolve(a, b, 0, len(a) + len(b) - 1), self._den * other._den)
        if isinstance(other, self._SCALARS):
            return self._make([c * other.numerator for c in self._coeffs], self._den * other.denominator)
        return NotImplemented

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._coeffs, self._den))

    def divexact(self, k: int) -> "LambdaPoly":
        """Exact division by l**k; every term must have exponent >= k."""
        _check_index(k, "k")
        if any(self._coeffs[:k]):
            raise ExactDivisionError(f"{self} is not divisible by l^{k}")
        return self._make(list(self._coeffs[k:]), self._den) if k else self

    def __str__(self) -> str:
        terms = reversed(self.items())
        return _signed_sum((c < 0, str(abs(c)), "" if e == 0 else "l" if e == 1 else f"l^{e}") for e, c in terms)


LAMBDA = LambdaPoly.lam()


def _dot(terms: Iterable[tuple[LambdaPoly, LambdaPoly | Scalar]]) -> LambdaPoly:
    """sum a*b over the (a, b) terms, each b a LambdaPoly, an int or a Fraction.

    The sum runs in ints over one denominator: each product's numerators are
    scaled to the running lcm of the products' denominators and added into one
    int accumulator, and the result gets one gcd in ``LambdaPoly._make``.
    """
    acc: list[int] = []
    den = 1
    for a, b in terms:
        nums = a._coeffs
        if type(b) is LambdaPoly:
            weights, d = b._coeffs, a._den * b._den
        else:
            weights, d = (b.numerator,), a._den * b.denominator
        if not (nums and weights and weights[-1]):
            continue
        scale = 1
        if d != den:
            g = math.gcd(den, d)
            if g != d:  # d does not divide den: raise den to their lcm
                up = d // g
                acc = [c * up for c in acc]
                den *= up
            scale = den // d
        if len(weights) - weights.count(0) > len(nums) - nums.count(0):
            nums, weights = weights, nums  # the outer loop runs over the sparser factor
        k = len(nums)
        if len(acc) < k + len(weights) - 1:
            acc.extend([0] * (k + len(weights) - 1 - len(acc)))
        if k == 1:
            x = nums[0] * scale
            for i, w in enumerate(weights):
                if w:
                    acc[i] += w * x
        else:
            for i, w in enumerate(weights):
                if w:
                    w *= scale
                    acc[i : i + k] = map(operator.add, acc[i : i + k], [w * c for c in nums])
    return LambdaPoly._make(acc, den)


def _dot_products(pairs: Sequence[tuple[Sequence[LambdaPoly], Sequence[LambdaPoly]]], size: int) -> list:
    """Coefficients 0..size-1 of sum a*b over the (a, b) pairs of LambdaPoly
    coefficient sequences, each one ``_dot`` over every pair's nonzero terms."""
    terms: list[list] = [[] for _ in range(size)]
    for a, b in pairs:
        live = [(j, y) for j, y in enumerate(b[:size]) if y]
        for i, x in enumerate(a[:size]):
            if x:
                for j, y in live:
                    if i + j >= size:
                        break
                    terms[i + j].append((x, y))
    # a lone product is one LambdaPoly multiply, cheaper than an accumulator
    return [_dot(t) if len(t) > 1 else t[0][0] * t[0][1] if t else XPoly._ZERO for t in terms]


class _PackedPlan(NamedTuple):
    """The weights of some sums over polys, for ``_packed_sums``: the output for
    (d, [(j_0, s_0), (j_1, s_1), ...]) of sums is sum_e s_e l^e w_(j_e) / d, where
    w_j = sum c polys[i] over the (i, c) of rows[j], or polys[j] itself if rows is
    None; c and s_e are ints and d is a positive int. With cols, the output for each
    (d, row) of cols is instead sum c S_m / d over the (m, c) of row, S_m the output
    of sum m at d = 1. l1 bounds the l1 norm of every output's weights."""

    rows: tuple[tuple[tuple[int, int], ...], ...] | None
    sums: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    l1: int
    cols: tuple[tuple[int, tuple[tuple[int, int], ...]], ...] | None = None


def _packed_plan(rows: Sequence | None, sums: Sequence, cols: Sequence | None = None) -> _PackedPlan:
    """The immutable plan of these sums. An output's l1 norm is sum_e |s_e| times
    sum |c| over rows[j_e], 1 without rows, and with cols sum |c| times that of S_m;
    the plan keeps the largest, so it holds for any polys."""
    rows = None if rows is None else tuple(map(tuple, rows))
    sums = tuple((d, tuple(terms)) for d, terms in sums)
    norms = [1] * len(sums) if rows is None else [sum(abs(c) for _, c in row) for row in rows]
    l1 = [sum(abs(s) * norms[j] for j, s in terms) for _, terms in sums]
    if cols is not None:
        cols = tuple((d, tuple(row)) for d, row in cols)
        l1 = [sum(abs(c) * l1[m] for m, c in row) for _, row in cols]
    return _PackedPlan(rows, sums, max(l1, default=0), cols)


def _packed_sums(polys: Sequence[LambdaPoly], plan: _PackedPlan) -> list[LambdaPoly]:
    """The outputs of plan over polys, on packed rows.

    Each poly's numerators over den, the lcm of their denominators, are packed
    once, evaluated at l = 2^width as one int. A term is then one int
    multiply-add and l^e a shift by e*width. A slot of an output is at most
    max|numerator| times plan.l1; width is the bit length of that bound plus
    one, so every slot has magnitude below 2^(width-1) and ``_slots`` splits it
    back. Each output is reduced once, with one gcd.
    """
    den = math.lcm(*(q._den for q in polys))
    nums = [[c * (den // q._den) for c in q._coeffs] for q in polys]
    width = (max(map(abs, itertools.chain.from_iterable(nums)), default=0) * plan.l1).bit_length() + 1
    packed = _pack(nums, width)
    w = packed if plan.rows is None else [sum(c * packed[i] for i, c in row) for row in plan.rows]
    out = []
    for d, terms in plan.sums:
        acc = 0
        for j, s in reversed(terms):  # Horner in l = 2^width
            acc = (acc << width) + s * w[j]
        out.append((d, acc))
    if plan.cols is not None:  # l-free sums of the sums, at the same width
        out = [(d, sum(c * out[m][1] for m, c in row)) for d, row in plan.cols]
    return [LambdaPoly._make(_slots(acc, width), den * d) for d, acc in out]


def _low_rows(polys: Sequence[LambdaPoly]) -> tuple[list[list[int]], list[int], int]:
    """Each poly's numerators over den, the lcm of their denominators, from its
    lowest nonzero power of l up; each of those powers; and den."""
    den = math.lcm(*(q._den for q in polys))
    nums, low = [], []
    for q in polys:
        c, e = q._coeffs, 0
        while e < len(c) and not c[e]:
            e += 1
        nums.append([x * (den // q._den) for x in c[e:]])
        low.append(e)
    return nums, low, den


class _ProductSide(NamedTuple):
    """The x side of ``_packed_products``, prepared once: each x_t's numerators over
    den, the lcm of the x_t's denominators, from its lowest nonzero power of l,
    low[t], up; and bound[k] = max_i C(k,i) |x_(k-i)|_1, the l1 norm of those
    numerators, over every term with that k."""

    nums: tuple[tuple[int, ...], ...]
    low: tuple[int, ...]
    den: int
    bound: tuple[int, ...]


def _product_side(xs: Sequence[LambdaPoly]) -> _ProductSide:
    """xs prepared as the x side of ``_packed_products``."""
    nums, low, den = _low_rows(xs)
    l1 = [sum(map(abs, row)) for row in nums]
    bound = [max(math.comb(k, i) * l1[k - i] for i in range(k + 1)) for k in range(len(xs))]
    return _ProductSide(tuple(map(tuple, nums)), tuple(low), den, tuple(bound))


def _packed_products(xs: _ProductSide, ys: Sequence[LambdaPoly]) -> tuple[list[list[int]], int]:
    """The connection sums d_i = sum_(k>=i) C(k,i) x_(k-i) y_k, i = 0..n for ys
    y_0..y_n, on packed rows: each as its int row of numerators over one
    denominator, the product of the two sides' lcm denominators, which is
    returned with them. xs is the x side, prepared by ``_product_side``.

    Each x_t and y_k is packed once: its numerators over its side's denominator,
    from its lowest nonzero power of l up, evaluated at l = 2^width as one int.
    A term is then one int product, with C(k,i) from ``math.comb``, shifted back
    by width times the two lowest powers, so an l-monomial y_k costs one small
    multiply and a zero one nothing; each output is split into its slots once,
    with no gcd. A slot of x_t y_k is a sum of products of slots, so its
    magnitude is at most |x_t|_1 |y_k|_inf in the l1 and max norms of the
    numerators, and a slot of an output at most sum_k xs.bound[k] |y_k|_inf,
    one O(n) sum. The width is its bit length plus one, so every slot has
    magnitude below 2^(width-1) and ``_slots`` splits it back.
    """
    yn, ylow, yden = _low_rows(ys)
    top = sum(b * max(map(abs, row), default=0) for b, row in zip(xs.bound, yn) if b)
    width = top.bit_length() + 1
    px, py = _pack(xs.nums, width), _pack(yn, width)
    lx = [width * e for e in xs.low]
    live = [(k, y, width * e) for k, (y, e) in enumerate(zip(py, ylow)) if y]
    out, comb = [], math.comb
    for i in range(len(py)):
        acc = 0
        for k, y, e in live:
            if k >= i and px[k - i]:  # a zero number, as B_t^(0) for t > 0, costs nothing
                acc += px[k - i] * (comb(k, i) * y) << (lx[k - i] + e)
        out.append(_slots(acc, width))
    return out, xs.den * yden


def _pack(rows: Iterable[Sequence[int]], width: int) -> list[int]:
    """Each row of int numerators evaluated at l = 2^width."""
    packed = []
    for row in rows:
        v = 0
        for c in reversed(row):
            v = (v << width) + c
        packed.append(v)
    return packed


def _slots(v: int, width: int) -> list[int]:
    """The signed width-bit slots of v, lowest first, with no trailing zero; every
    slot must have magnitude below 2^(width-1).

    Then v has at most v.bit_length() // width + 1 slots, so a v that is not
    used up after one more pass holds a slot that does not fit the width (at
    width 1, v = 1 reads as -1 and borrows itself back forever): that raises
    ArithmeticError instead of looping on.
    """
    half, full = 1 << (width - 1), 1 << width
    mask, nums = full - 1, []
    for _ in range(v.bit_length() // width + 2):
        if not v:
            return nums
        c = v & mask
        v >>= width
        if c >= half:  # a negative slot borrowed one from the slot above
            c -= full
            v += 1
        nums.append(c)
    raise ArithmeticError(f"a slot of the packed value does not fit {width} bits")


class XPoly(_Poly):
    """Polynomial in ``x`` with LambdaPoly coefficients. Evaluation at
    rational points is a ring homomorphism."""

    __slots__ = ()
    _VAR = "x"
    _ZERO = LambdaPoly.zero()
    _SCALARS = (int, Fraction, LambdaPoly)

    @staticmethod
    def _coeff_of(value: LambdaPoly | Scalar) -> LambdaPoly:
        return value if isinstance(value, LambdaPoly) else LambdaPoly.const(value)

    def __init__(self, coeffs: Iterable[LambdaPoly | Scalar] = ()) -> None:
        self._coeffs = _stripped([self._coeff_of(c) for c in coeffs])

    @classmethod
    def x(cls) -> "XPoly":
        return cls.monomial(1)

    @property
    def coeffs(self) -> tuple[LambdaPoly, ...]:
        return self._coeffs

    @property
    def has_lambda(self) -> bool:
        return any(c.degree > 0 for c in self._coeffs)

    # -- calculus ----------------------------------------------------------------

    def derivative(self, order: int = 1) -> "XPoly":
        _check_index(order, "derivative order")
        p = self
        for _ in range(order):
            p = XPoly._make([c * (i + 1) for i, c in enumerate(p._coeffs[1:])])
        return p

    def antiderivative(self) -> "XPoly":
        """The antiderivative with zero constant term, exact in Q[l]."""
        return XPoly._make([self._ZERO] + [c / (i + 1) for i, c in enumerate(self._coeffs)])

    def shift(self, c: LambdaPoly | Scalar) -> "XPoly":
        """The composition p(x + c) for a constant c in Q[l].

        Shifts compose, so p(x + c) is one shift per nonzero term (u/v) l^e
        of c. Each runs on int numerators over one denominator D. With
        p_i = N_i / D and int rows b_i = N_i u^i v^(n-i), von zur Gathen and
        Gerhard's Horner-like scheme (for i = 0..n-1 and j = n-1 down to i,
        b_j += l^e b_(j+1)) takes only additions and exponent offsets, and
        [x^j] p(x + (u/v) l^e) = b_j / (D u^j v^(n-j)), with one gcd per
        output coefficient.
        """
        if not c or not self._coeffs:
            return self
        c = self._coeff_of(c)
        p = self
        for e, u in enumerate(c._coeffs):
            if u:
                p = p._shift_by_monomial(u, c._den, e)
        return p

    def _shift_by_monomial(self, u: int, v: int, e: int) -> "XPoly":
        """p(x + (u/v) l^e) for ints u != 0, v > 0 and e >= 0; see ``shift``."""
        a = self._coeffs
        n = len(a) - 1
        den = math.lcm(*(q._den for q in a))
        rows: list[Sequence[int]] = []
        for i, q in enumerate(a):
            scale = den // q._den * u**i * v ** (n - i)
            rows.append([x * scale for x in q._coeffs] if scale != 1 else q._coeffs)
        pad = (0,) * e
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                row, step = rows[j], rows[j + 1]
                if step:
                    if e:
                        step = [*pad, *step]
                    if len(row) < len(step):
                        row, step = step, row
                    rows[j] = [*map(operator.add, row, step), *row[len(step) :]]
        out = []
        for j, row in enumerate(rows):
            row = [-x for x in row] if u < 0 and j % 2 else list(row)
            out.append(LambdaPoly._make(row, den * abs(u) ** j * v ** (n - j)))
        return XPoly._make(out)

    def eval_x(self, c: LambdaPoly | Scalar) -> LambdaPoly:
        """Evaluate at x = c, with c a constant in Q[l]; result in Q[l]. At a
        rational c the value is the dot product sum_i p_i c^i, summed by the
        kernel in ints over one denominator."""
        if isinstance(c, LambdaPoly):
            return self._at(c)
        c = _fr(c)
        if not c:
            return self._at(c)
        if c.denominator == 1:
            c = c.numerator  # int powers multiply faster than Fraction ones
        powers = [1]
        for _ in range(1, len(self._coeffs)):
            powers.append(powers[-1] * c)
        return _dot(zip(self._coeffs, powers))

    def subs_lambda(self, value: Scalar) -> "XPoly":
        """Specialize l to a rational value, keeping x symbolic."""
        return XPoly._make([LambdaPoly.const(c.subs(value)) for c in self._coeffs])

    def divexact(self, k: int) -> "XPoly":
        """Exact coefficient-wise division by l**k."""
        _check_index(k, "k")
        return XPoly._make([c.divexact(k) for c in self._coeffs])

    def __str__(self) -> str:
        """The ``_signed_sum`` of the terms, a coefficient of several terms in parentheses."""
        terms = []
        for k, c in reversed(list(enumerate(self._coeffs))):
            if c:
                single = len(c.items()) == 1
                negative = single and c.leading() < 0
                mag = str(-c if negative else c) if single else f"({c})"
                terms.append((negative, mag, "" if k == 0 else "x" if k == 1 else f"x^{k}"))
        return _signed_sum(terms)


class TruncSeries(_Ring):
    """Formal power series in t truncated at a fixed order N (t^0..t^N kept).

    Coefficients are plain ring elements (LambdaPoly or XPoly); coeff(k)
    multiplies t^k. Arithmetic never reads or writes beyond index N, and
    binary operations require both operands to share the same order.
    """

    __slots__ = ("_ring", "_order", "_coeffs")

    def __init__(self, ring: type, order: int, coeffs: Iterable = ()) -> None:
        _check_index(order, "truncation order")
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
