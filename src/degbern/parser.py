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

Lowering to an XPoly enforces a degree guard on the degree in x and the
degree in l alike (default 64, overridable via the DEGBERN_MAX_DEGREE
environment variable), checking a power before computing it, and the
parser enforces a nesting-depth bound so malformed input fails fast.
check_size applies the same limit to every exponent (so a constant such
as 2^65 is rejected although its degree is 0), to the arguments of B, E
and G, to the order r of expand and to the CLI's size flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import LAMBDA, XPoly
from .families import bernoulli_poly, bernoulli_poly_order, euler_poly, genocchi_poly

__all__ = [
    "Bin",
    "Call",
    "ExprAst",
    "Lit",
    "MAX_DEPTH",
    "Neg",
    "ParseError",
    "Pow",
    "Var",
    "check_size",
    "lower",
    "max_degree_limit",
    "parse",
    "parse_poly",
]

MAX_DEPTH = 256
_DEFAULT_MAX_DEGREE = 64


class ParseError(ValueError):
    """Syntax or lowering error, carrying the byte offset of the culprit."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "l"


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class Bin:
    op: str  # "+", "-" or "*"
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str  # "B", "E" or "G"
    args: tuple[int, ...]


ExprAst = Union[Lit, Var, Neg, Bin, Pow, Call]

_TOKEN_CHARS = {"+", "-", "*", "^", "/", "(", ")", ","}
_CALL_ARITY = {"B": (1, 2), "E": (1, 1), "G": (1, 1)}
# ASCII only: str.isdigit and str.isspace also accept digits such as "٣" or
# "²" and spaces such as U+3000.
_DIGITS = "0123456789"
_SPACE = " \t\n\r\f\v"


@dataclass(frozen=True)
class _Token:
    kind: str  # "int", "var", "name", or a literal operator character
    text: str
    offset: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("int", src[i:j], i))
            i = j
            continue
        if ch in ("x", "l"):
            tokens.append(_Token("var", ch, i))
            i += 1
            continue
        if ch in _CALL_ARITY:
            tokens.append(_Token("name", ch, i))
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.offset)
        return self._next()

    def _enter(self) -> None:
        self._depth += 1
        if self._depth > MAX_DEPTH:
            raise ParseError(f"expression nesting exceeds {MAX_DEPTH}", self._peek().offset)

    def _leave(self) -> None:
        self._depth -= 1

    def parse(self) -> ExprAst:
        ast = self.expr()
        tok = self._peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return ast

    def expr(self) -> ExprAst:
        self._enter()
        node = self.term()
        while self._peek().kind in ("+", "-"):
            op = self._next().kind
            node = Bin(op, node, self.term())
        self._leave()
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while True:
            tok = self._peek()
            if tok.kind == "*":
                self._next()
                node = Bin("*", node, self.unary())
            elif tok.kind == "/":
                raise ParseError("symbolic division is not allowed", tok.offset)
            else:
                return node

    def unary(self) -> ExprAst:
        self._enter()
        if self._peek().kind == "-":
            self._next()
            node: ExprAst = Neg(self.unary())
        else:
            node = self.factor()
        self._leave()
        return node

    def factor(self) -> ExprAst:
        node = self.atom()
        if self._peek().kind == "^":
            self._next()
            tok = self._peek()
            if tok.kind != "int":
                raise ParseError("non-integer exponent", tok.offset)
            node = Pow(node, int(self._next().text))
            if self._peek().kind == "^":
                raise ParseError("chained '^' needs parentheses", self._peek().offset)
        return node

    def atom(self) -> ExprAst:
        tok = self._peek()
        if tok.kind == "int":
            self._next()
            numerator = int(tok.text)
            if self._peek().kind == "/":
                slash = self._next()
                den_tok = self._peek()
                if den_tok.kind != "int":
                    raise ParseError("expected an integer denominator", den_tok.offset)
                self._next()
                denominator = int(den_tok.text)
                if denominator == 0:
                    raise ParseError("zero denominator", slash.offset)
                return Lit(Fraction(numerator, denominator))
            return Lit(Fraction(numerator))
        if tok.kind == "var":
            self._next()
            return Var(tok.text)
        if tok.kind == "name":
            return self.call()
        if tok.kind == "(":
            self._next()
            node = self.expr()
            self._expect(")")
            return node
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.offset)

    def call(self) -> ExprAst:
        name = self._next()
        self._expect("(")
        args = [self._uint()]
        if self._peek().kind == ",":
            self._next()
            args.append(self._uint())
        closing = self._peek()
        if closing.kind == ",":
            raise ParseError(f"{name.text} takes at most two arguments", closing.offset)
        self._expect(")")
        lo, hi = _CALL_ARITY[name.text]
        if not lo <= len(args) <= hi:
            raise ParseError(f"{name.text} takes exactly {lo} argument(s)", name.offset)
        return Call(name.text, tuple(args))

    def _uint(self) -> int:
        tok = self._peek()
        if tok.kind != "int":
            raise ParseError("expected a non-negative integer", tok.offset)
        self._next()
        return int(tok.text)


def parse(src: str) -> ExprAst:
    """Parse a source string to an AST; ParseError carries the byte offset."""
    return _Parser(_tokenize(src)).parse()


def max_degree_limit() -> int:
    """The active degree guard (DEGBERN_MAX_DEGREE overrides the default 64)."""
    raw = os.environ.get("DEGBERN_MAX_DEGREE")
    if raw is None:
        return _DEFAULT_MAX_DEGREE
    try:
        limit = int(raw)
    except ValueError:
        raise ValueError(f"DEGBERN_MAX_DEGREE must be an integer, got {raw!r}") from None
    if limit < 0:
        raise ValueError("DEGBERN_MAX_DEGREE must be non-negative")
    return limit


def check_size(name: str, value: int, low: int = 0, limit: int | None = None) -> None:
    """The one size guard for degrees, orders and sweep bounds: ValueError unless
    value is an integer from low to limit (default max_degree_limit())."""
    limit = max_degree_limit() if limit is None else limit
    if not isinstance(value, int) or not low <= value <= limit:
        raise ValueError(f"{name} must be between {low} and {limit} (DEGBERN_MAX_DEGREE), got {value!r}")


def lower(ast: ExprAst, max_degree: int | None = None) -> XPoly:
    """Lower an AST to an exact XPoly, guarding against degree blowup."""
    limit = max_degree_limit() if max_degree is None else max_degree

    def guard(p: XPoly, exponent: int = 1) -> XPoly:
        """p, unless p**exponent would pass the limit in x or in l."""
        l_degree = max((c.degree for c in p.coeffs), default=0)
        for name, degree in (("degree", p.degree), ("l-degree", l_degree)):
            if degree > 0 and degree * exponent > limit:
                raise ValueError(f"expression {name} {degree * exponent} exceeds the limit {limit}")
        return p

    def rec(node: ExprAst) -> XPoly:
        if isinstance(node, Lit):
            return XPoly.const(node.value)
        if isinstance(node, Var):
            return XPoly.x() if node.name == "x" else XPoly.const(LAMBDA)
        if isinstance(node, Neg):
            return -rec(node.operand)
        if isinstance(node, Bin):
            left, right = rec(node.left), rec(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return guard(left * right)
        if isinstance(node, Pow):
            # degrees in x and in l multiply exactly, so check before computing;
            # a base of degree 0 (a constant) is bounded by the exponent itself
            base = guard(rec(node.base), node.exponent)
            check_size("exponent", node.exponent, limit=limit)
            return base**node.exponent
        if isinstance(node, Call):
            for name, value in zip(("family index", "order r"), node.args):
                check_size(f"{name} of {node.func}(...)", value, limit=limit)
            if node.func == "B":
                if len(node.args) == 2:
                    return bernoulli_poly_order(*node.args)
                return bernoulli_poly(node.args[0])
            if node.func == "E":
                return euler_poly(node.args[0])
            return genocchi_poly(node.args[0])
        raise TypeError(f"unknown AST node {node!r}")

    return rec(ast)


def parse_poly(src: str, max_degree: int | None = None) -> XPoly:
    """Parse and lower in one step."""
    return lower(parse(src), max_degree)
