"""Command line front end.

Subcommands:

    expand   expand an expression in the (order-r) degenerate Bernoulli basis
    verify   run the identity corpus, in full or per identity
    table    print number/polynomial family tables

Exit codes are a contract: 0 success, 1 usage or parse error,
2 verification failure (identity failure or route disagreement),
3 internal consistency failure (an exact division failed). A command
builds its whole output before any of it is written, so a command that
fails part way leaves stdout empty; a reader that closes stdout early
leaves the exit code as it is.

All numbers in machine-readable output are serialized as strings to keep
arbitrary precision across tools.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Sequence

from . import __version__
from .core import ExactDivisionError, LambdaPoly, _signed_sum
from .expansion import BasisExpansion, RouteMismatchError, crosscheck, expand
from .families import (
    bernoulli_number,
    bernoulli_poly_order,
    deg_bernoulli_order,
    deg_falling,
    euler_number,
    genocchi_number,
    scaled_bernoulli,
)
from .parser import ParseError, check_size, max_degree_limit, parse_poly

__all__ = [
    "document_to_expansion",
    "expansion_to_document",
    "lambda_poly_from_pairs",
    "lambda_poly_to_pairs",
    "main",
]


# -- expansion documents -------------------------------------------------------


def lambda_poly_to_pairs(p: LambdaPoly) -> list[list[str]]:
    """[[exponent, coefficient], ...] as strings, sorted by exponent."""
    return [[str(exp), str(coeff)] for exp, coeff in p.items()]


def lambda_poly_from_pairs(pairs: Sequence[Sequence[str]]) -> LambdaPoly:
    return LambdaPoly({int(exp): Fraction(coeff) for exp, coeff in pairs})


def _coefficient_list(coeffs: Sequence[LambdaPoly]) -> list[dict]:
    return [{"k": str(k), "lambda_poly": lambda_poly_to_pairs(c)} for k, c in enumerate(coeffs)]


def expansion_to_document(source: str, e: BasisExpansion) -> dict:
    return {
        "input": source,
        "order": str(e.order),
        "degree": str(e.degree),
        "coefficients": _coefficient_list(e.coeffs),
        "tool_version": __version__,
    }


def document_to_expansion(doc: dict) -> BasisExpansion:
    """The expansion a document states; ValueError on an order or degree outside
    the size guard, on a k outside 0..degree or given twice, or on an l-exponent
    outside 0..degree + the degree limit, the most an accepted input reaches. A
    k not given has coefficient 0."""
    order, degree = int(doc["order"]), int(doc["degree"])
    check_size("order", order, 1)
    check_size("degree", degree)
    top = degree + max_degree_limit()
    given: dict[int, LambdaPoly] = {}
    for entry in doc["coefficients"]:
        k = int(entry["k"])
        if not 0 <= k <= degree:
            raise ValueError(f"coefficient k = {k} is outside 0..{degree}")
        if k in given:
            raise ValueError(f"coefficient k = {k} is given twice")
        for exp, _ in entry["lambda_poly"]:  # before a list of exp + 1 numerators is built
            if not 0 <= int(exp) <= top:
                raise ValueError(f"coefficient k = {k}: l-exponent {exp} is outside 0..{top}")
        given[k] = lambda_poly_from_pairs(entry["lambda_poly"])
    coeffs = tuple(given.get(k, LambdaPoly.zero()) for k in range(degree + 1))
    return BasisExpansion(order=order, degree=degree, coeffs=coeffs, routes=("document",) * len(coeffs))


def _latex_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def _latex_lambda_poly(p: LambdaPoly) -> str:
    terms = []
    for e, c in reversed(p.items()):
        lam = "" if e == 0 else "\\lambda" if e == 1 else f"\\lambda^{{{e}}}"
        terms.append((c < 0, _latex_rational(abs(c)), lam))
    return _signed_sum(terms, times="")


def _latex_expansion(e: BasisExpansion) -> str:
    terms = []
    for k, c in enumerate(e.coeffs):
        if c.is_zero:
            continue
        basis = f"\\beta_{{{k},\\lambda}}^{{({e.order})}}(x)" if e.order != 1 else f"\\beta_{{{k},\\lambda}}(x)"
        terms.append(f"\\left({_latex_lambda_poly(c)}\\right){basis}")
    body = " + ".join(terms) if terms else "0"
    return f"p(x) = {body}"


# -- argument plumbing -----------------------------------------------------------


class _Cli(argparse.ArgumentParser):
    """argparse variant whose usage errors exit 1, per the exit-code contract."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Cli:
    parser = _Cli(prog="degbern", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"degbern {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand an expression in a degenerate Bernoulli basis")
    p_expand.add_argument("--expr", required=True, help="polynomial in x and l, e.g. 'x^2 - 1/2*B(3)'")
    p_expand.add_argument("--order", type=int, default=1, help="basis order r >= 1 (default 1)")
    p_expand.add_argument("--format", choices=("text", "json", "latex"), default="text")
    p_expand.add_argument(
        "--crosscheck",
        action="store_true",
        help="recompute through every route and fail (exit 2) on disagreement",
    )
    p_expand.add_argument(
        "--lambda",
        dest="lambda_sub",
        metavar="P/Q",
        help="also print the coefficients evaluated at l = P/Q (text and json; "
        "--format latex checks P/Q but ignores it); "
        "a negative value goes in one token, --lambda=-P/Q",
    )
    p_expand.set_defaults(fn=_cmd_expand)

    p_verify = sub.add_parser("verify", help="verify identities from the corpus")
    p_verify.add_argument("ids", nargs="*", help="identity ids (default: all)")
    p_verify.add_argument("--id", action="append", dest="id_flags", default=[], help="identity id (repeatable)")
    p_verify.add_argument("--all", action="store_true", help="verify the whole corpus")
    p_verify.add_argument("--n-max", type=int, default=None, help="clamp the n sweep (m+n for product families)")
    p_verify.add_argument("--r-max", type=int, default=None, help="clamp the order sweep")
    p_verify.add_argument("--n", type=int, default=None, help="verify a single case with this n")
    p_verify.add_argument("--m", type=int, default=None, help="single-case m (product families)")
    p_verify.add_argument("--r", type=int, default=None, help="single-case order r")
    p_verify.add_argument("--a", type=int, default=None, help="single-case iterate count a")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument(
        "--perturb",
        action="store_true",
        help="add 1 to every right-hand side; forces failures (harness self-test)",
    )
    p_verify.set_defaults(fn=_cmd_verify)

    p_table = sub.add_parser("table", help="print a family table")
    p_table.add_argument("--family", required=True)
    p_table.add_argument("--n-max", type=int, required=True)
    p_table.add_argument("--order", type=int, default=1, help="order/scale for parametrized families")
    p_table.add_argument("--format", choices=("text", "json"), default="text")
    p_table.set_defaults(fn=_cmd_table)
    return parser


def _cmd_expand(args: argparse.Namespace, out: list[str]) -> int:
    check_size("--order", args.order, 1)
    p = parse_poly(args.expr)
    if p.is_zero:
        raise ValueError("cannot expand the zero polynomial")
    lam_value = None
    if args.lambda_sub is not None:
        text = _given(args.lambda_sub)
        # Fraction() alone would also take "1e50000000", "1.5" or non-ASCII digits
        if not re.fullmatch("-?[0-9]+(/0*[1-9][0-9]*)?", text):
            raise ValueError(f"--lambda needs a rational [-]P[/Q] with Q != 0, got {text!r}")
        try:
            lam_value = Fraction(args.lambda_sub)
        except ValueError:  # more digits than int() reads
            raise ValueError(_lambda_too_large()) from None
    if args.crosscheck:
        e = crosscheck(p, args.order)
    else:
        e = expand(p, args.order)
    at_lambda = None
    if lam_value is not None and args.format != "latex":
        try:
            at_lambda = [str(c.subs(lam_value)) for c in e.coeffs]
        except ValueError:  # more digits than str() writes
            raise ValueError(_lambda_too_large()) from None

    if args.format == "json":
        doc = expansion_to_document(args.expr, e)
        if at_lambda is not None:
            doc["lambda_value"] = str(lam_value)
            doc["coefficients_at_lambda"] = [{"k": str(k), "value": v} for k, v in enumerate(at_lambda)]
        out.append(json.dumps(doc, indent=2))
    elif args.format == "latex":
        out.append(_latex_expansion(e))
    else:
        out += [f"input: {args.expr}", f"p(x) = {p}", f"order: {e.order}   degree: {e.degree}"]
        for k, c in enumerate(e.coeffs):
            line = f"a_{k} = {c}"
            if at_lambda is not None:
                line += f"   [l={lam_value}: {at_lambda[k]}]"
            out.append(line)
    return 0


def _lambda_too_large() -> str:
    return (
        f"--lambda is too large: it or a value at it has more than {sys.get_int_max_str_digits()} digits, "
        "the most Python converts between int and text"
    )


def _given(value: str | list) -> str:
    """An option's value as typed: argparse hands "--opt=--" over as [], not as "--"."""
    return value if isinstance(value, str) else "--"


def _cmd_verify(args: argparse.Namespace, out: list[str]) -> int:
    # only this command reads the corpus, so only it pays for loading it
    from .identities import _check_params, _lookup, identity_ids, verify, verify_all

    # verify() and verify_all() reject, with exit 1, an unknown id
    ids = sorted(set(args.ids + [_given(value) for value in args.id_flags]))
    if not ids or args.all:
        ids = identity_ids()

    flags = ("n_max", "r_max", "n", "m", "r", "a")
    given = {flag: value for flag in flags if (value := getattr(args, flag)) is not None}
    for flag, value in given.items():
        check_size("--" + flag.replace("_", "-"), value)
    params = {name: value for name, value in given.items() if not name.endswith("_max")}
    if params:
        # every id and its parameters, before any case: exit 1 on a bad one
        for identity_id in ids:
            _check_params(identity_id, _lookup(identity_id), params)
        cases = [verify(identity_id, params, perturb=args.perturb) for identity_id in ids]
    else:
        # given holds sweep bounds only; a sweep ignores the bound of a parameter it lacks
        cases = verify_all(dict.fromkeys(ids, given), ids=ids, perturb=args.perturb)

    failures = [c for c in cases if not c.passed]
    if args.format == "json":
        payload = [
            {
                "id": c.id,
                "params": {name: str(value) for name, value in c.params},
                "passed": c.passed,
                "discrepancy": str(c.discrepancy),
                "offending_term": c.offending_term(),
            }
            for c in cases
        ]
        out.append(json.dumps({"cases": payload, "failures": len(failures)}, indent=2))
    else:
        for c in cases:
            status = "PASS" if c.passed else f"FAIL  discrepancy leads with {c.offending_term()}"
            out.append(f"{c.id}({c.param_str()}): {status}")
        out.append(f"{len(cases)} case(s), {len(failures)} failure(s)")
    return 0 if not failures else 2


# name -> (n, order) -> a number (Fraction) or a polynomial (XPoly); each looks
# its family up when called, so that a wrapper set on this module sees each call.
_FAMILIES = {
    "bernoulli": lambda n, order: bernoulli_number(n),
    "euler": lambda n, order: euler_number(n),
    "genocchi": lambda n, order: genocchi_number(n),
    "bernoulli-order": lambda n, order: bernoulli_poly_order(n, order),
    "deg-bernoulli": lambda n, order: deg_bernoulli_order(n, 1),
    "deg-bernoulli-order": lambda n, order: deg_bernoulli_order(n, order),
    "deg-falling": lambda n, order: deg_falling(n),
    "scaled-bernoulli": lambda n, order: scaled_bernoulli(n, order),
}


def _cmd_table(args: argparse.Namespace, out: list[str]) -> int:
    check_size("--n-max", args.n_max)
    check_size("--order", args.order)
    family = _FAMILIES.get(args.family)
    if family is None:
        raise ValueError(f"unknown family {args.family!r}; known: {', '.join(sorted(_FAMILIES))}")
    values = [family(n, args.order) for n in range(args.n_max + 1)]
    if args.format == "json":
        number = isinstance(values[0], Fraction)
        doc = {"family": args.family} if number else {"family": args.family, "order": str(args.order)}
        doc["entries"] = [
            {"n": str(n), "value": str(v)} if number else {"n": str(n), "coefficients": _coefficient_list(v.coeffs)}
            for n, v in enumerate(values)
        ]
        out.append(json.dumps(doc, indent=2))
    else:
        out += [f"{n}: {v}" for n, v in enumerate(values)]
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out: list[str] = []
    try:
        status = args.fn(args, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except RouteMismatchError as exc:
        print(f"route disagreement: {exc}", file=sys.stderr)
        return 2
    except ExactDivisionError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for line in out:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; what is still buffered goes to
        # devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return status


if __name__ == "__main__":
    sys.exit(main())
