"""Exact expansion of polynomials in degenerate Bernoulli bases.

The package provides an exact-arithmetic kernel (rationals, polynomials
over Q[l], truncated power series), the classical and degenerate special
polynomial families, an operator calculus, the basis-expansion routes with
cross-checking, an executable identity corpus, and an expression parser
plus CLI on top.
"""

from .core import (
    LAMBDA,
    ExactDivisionError,
    LambdaPoly,
    TruncSeries,
    XPoly,
    clear_caches,
)
from .expansion import (
    BasisExpansion,
    RouteMismatchError,
    classical_limit,
    crosscheck,
    expand,
    expand_higher,
    expand_order1,
    reconstruct,
)
from .families import (
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_order,
    deg_bernoulli,
    deg_bernoulli_order,
    deg_falling,
    euler_number,
    euler_poly,
    genocchi_number,
    genocchi_poly,
    harmonic,
    scaled_bernoulli,
    stirling2,
)
from .identities import IdentityCase, closed_form_coeffs, identity_ids, verify, verify_all
from .parser import ParseError, parse_poly
from .umbral import (
    OperatorSeries,
    apply,
    delta_op,
    exp_op,
    forward_diff,
    functional,
    integral_01,
    integral_I,
    monomial_op,
    scaled_bernoulli_op,
    sequence_diff,
    umbral_compose,
    unit_integral_op,
)

__version__ = "0.1.0"

__all__ = [
    "BasisExpansion",
    "ExactDivisionError",
    "IdentityCase",
    "LAMBDA",
    "LambdaPoly",
    "OperatorSeries",
    "ParseError",
    "RouteMismatchError",
    "TruncSeries",
    "XPoly",
    "__version__",
    "apply",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_order",
    "classical_limit",
    "clear_caches",
    "closed_form_coeffs",
    "crosscheck",
    "deg_bernoulli",
    "deg_bernoulli_order",
    "deg_falling",
    "delta_op",
    "euler_number",
    "euler_poly",
    "exp_op",
    "expand",
    "expand_higher",
    "expand_order1",
    "forward_diff",
    "functional",
    "genocchi_number",
    "genocchi_poly",
    "harmonic",
    "identity_ids",
    "integral_01",
    "integral_I",
    "monomial_op",
    "parse_poly",
    "reconstruct",
    "scaled_bernoulli",
    "scaled_bernoulli_op",
    "sequence_diff",
    "stirling2",
    "umbral_compose",
    "unit_integral_op",
    "verify",
    "verify_all",
]
