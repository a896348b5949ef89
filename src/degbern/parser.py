"""Expression front end for polynomials in ``x`` and ``l``.

Grammar (whitespace-insensitive, ASCII only):

    expr     := term (('+' | '-') term)*
    term     := unary ('*' unary)*
    unary    := '-' unary | factor
    factor   := atom ('^' uint)?
    atom     := rational | 'x' | 'l' | call | '(' expr ')'
    call     := ('B' | 'E' | 'G') '(' uint (',' uint)? ')'
    rational := uint ('/' uint)?

'^' binds tighter than unary minus, which binds tighter than '*', which
binds tighter than '+'/'-'; binary operators are left-associative.
'/' only forms rational literals; symbolic division is rejected. There is
no implicit multiplication ("2x" is an error). B(n) and B(n,r) name the
Bernoulli polynomial (order r), E(n) the Euler and G(n) the Genocchi one.

Each grammar rule returns the exact XPoly value of what it parsed; no
syntax tree is built. A product or a power is checked before it is
computed: it may not pass the degree limit in x or in l (default 64,
overridable via the DEGBERN_MAX_DEGREE environment variable). check_size,
kept in ``core`` with max_degree_limit, applies the same limit to every
exponent (so a constant such as 2^65 is rejected although its degree is 0), to
the arguments of B, E and G, to the order r of expand and of every family
table, and to the CLI's size flags. A nesting-depth bound makes
malformed input fail fast.

Errors come in source order. The whole input is tokenized first, so an
unexpected character is always the error reported. After that the first
error from the left wins: "x^65 + )" reports the degree and "x + ) + x^65"
reports the ParseError.
"""

from __future__ import annotations

from fractions import Fraction

from .core import LAMBDA, XPoly, check_size, max_degree_limit
from .families import bernoulli_poly, bernoulli_poly_order, euler_poly, genocchi_poly

__all__ = ["MAX_DEPTH", "ParseError", "check_size", "max_degree_limit", "parse_poly"]

MAX_DEPTH = 256


class ParseError(ValueError):
    """Syntax error, carrying the byte offset of the culprit."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_TOKEN_CHARS = {"+", "-", "*", "^", "/", "(", ")", ","}
# name -> (most arguments, function of them); each looks its family up at call
# time, so that a wrapper set on this module (a tracer, say) sees each call.
_CALLS = {
    "B": (2, lambda n, r=None: bernoulli_poly(n) if r is None else bernoulli_poly_order(n, r)),
    "E": (1, lambda n: euler_poly(n)),
    "G": (1, lambda n: genocchi_poly(n)),
}
# ASCII only: str.isdigit and str.isspace also accept digits such as "٣" or
# "²" and spaces such as U+3000.
_DIGITS = "0123456789"
_SPACE = " \t\n\r\f\v"


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; kind is int, var, name, end or an operator."""
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch in _SPACE:
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(src) and src[j] in _DIGITS:
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if ch in ("x", "l"):
            tokens.append(("var", ch, i))
        elif ch in _CALLS:
            tokens.append(("name", ch, i))
        elif ch in _TOKEN_CHARS:
            tokens.append((ch, ch, i))
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
        i += 1
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    """Recursive descent; each grammar rule returns the XPoly value it parsed."""

    def __init__(self, src: str) -> None:
        self._tokens = _tokenize(src)
        self._pos = 0
        self._depth = 0
        self._limit = max_degree_limit()

    def _peek(self) -> tuple[str, str, int]:
        return self._tokens[self._pos]

    def _next(self) -> tuple[str, str, int]:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> None:
        found, text, offset = self._next()
        if found != kind:
            raise ParseError(f"expected {kind!r}, found {text or 'end of input'!r}", offset)

    def _uint(self, message: str = "expected a non-negative integer") -> int:
        kind, text, offset = self._peek()
        if kind != "int":
            raise ParseError(message, offset)
        self._next()
        return int(text)

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParseError(f"expression nesting exceeds {MAX_DEPTH}", self._peek()[2])

    def _guard(self, factors: tuple[XPoly, ...], exponent: int = 1) -> None:
        """ValueError if the product of factors, to the power exponent, would pass the limit in x or in l."""
        if all(factors):  # else the product is 0; for nonzero factors the degrees add exactly
            x_degree = sum(p.degree for p in factors)
            l_degree = sum(max(c.degree for c in p.coeffs) for p in factors)
            for name, degree in (("degree", x_degree * exponent), ("l-degree", l_degree * exponent)):
                if degree > self._limit:
                    raise ValueError(f"expression {name} {degree} exceeds the limit {self._limit}")

    def parse(self) -> XPoly:
        value = self.expr()
        kind, text, offset = self._peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {text!r}", offset)
        return value

    def expr(self) -> XPoly:
        self._enter()
        value = self.term()
        while self._peek()[0] in ("+", "-"):
            if self._next()[0] == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        self._depth -= 1
        return value

    def term(self) -> XPoly:
        value = self.unary()
        while True:
            kind, _, offset = self._peek()
            if kind == "*":
                self._next()
                right = self.unary()
                self._guard((value, right))
                value = value * right
            elif kind == "/":
                raise ParseError("symbolic division is not allowed", offset)
            else:
                return value

    def unary(self) -> XPoly:
        self._enter()
        if self._peek()[0] == "-":
            self._next()
            value = -self.unary()
        else:
            value = self.factor()
        self._depth -= 1
        return value

    def factor(self) -> XPoly:
        value = self.atom()
        if self._peek()[0] != "^":
            return value
        self._next()
        exponent = self._uint("non-integer exponent")
        if self._peek()[0] == "^":
            raise ParseError("chained '^' needs parentheses", self._peek()[2])
        # degrees in x and in l multiply exactly, so check before computing;
        # a base of degree 0 (a constant) is bounded by the exponent itself
        self._guard((value,), exponent)
        check_size("exponent", exponent)
        return value**exponent

    def atom(self) -> XPoly:
        kind, text, offset = self._peek()
        if kind == "int":
            self._next()
            numerator = int(text)
            if self._peek()[0] != "/":
                return XPoly.const(Fraction(numerator))
            slash = self._next()[2]
            denominator = self._uint("expected an integer denominator")
            if denominator == 0:
                raise ParseError("zero denominator", slash)
            return XPoly.const(Fraction(numerator, denominator))
        if kind == "var":
            self._next()
            return XPoly.x() if text == "x" else XPoly.const(LAMBDA)
        if kind == "name":
            return self.call()
        if kind == "(":
            self._next()
            value = self.expr()
            self._expect(")")
            return value
        raise ParseError(f"expected a value, found {text or 'end of input'!r}", offset)

    def call(self) -> XPoly:
        _, name, offset = self._next()
        self._expect("(")
        args = [self._uint()]
        if self._peek()[0] == ",":
            self._next()
            args.append(self._uint())
        if self._peek()[0] == ",":
            raise ParseError(f"{name} takes at most two arguments", self._peek()[2])
        self._expect(")")
        most, family = _CALLS[name]
        if len(args) > most:
            raise ParseError(f"{name} takes exactly {most} argument(s)", offset)
        for what, value in zip(("family index", "order r"), args):
            check_size(f"{what} of {name}(...)", value)
        return family(*args)


def parse_poly(src: str) -> XPoly:
    """The exact XPoly value of an expression. A syntax error raises
    ParseError with its byte offset; a size error raises ValueError."""
    return _Parser(src).parse()
