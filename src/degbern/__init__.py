"""Exact expansion of polynomials in degenerate Bernoulli bases.

The package provides an exact-arithmetic kernel (rationals, polynomials
over Q[l], truncated power series), the classical and degenerate special
polynomial families, an operator calculus, the basis-expansion routes with
cross-checking, an executable identity corpus, and an expression parser
plus CLI on top.

`import degbern` loads no submodule: the first read of a public name
imports the module that defines it (PEP 562), so a session pays only for
the modules it uses.
"""

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "core": ("LAMBDA", "ExactDivisionError", "LambdaPoly", "TruncSeries", "XPoly", "clear_caches"),
    "expansion": (
        "BasisExpansion", "RouteMismatchError", "classical_limit", "crosscheck",
        "expand", "expand_higher", "expand_order1", "reconstruct",
    ),
    "families": (
        "bernoulli_number", "bernoulli_poly", "bernoulli_poly_order", "deg_bernoulli",
        "deg_bernoulli_order", "deg_falling", "euler_number", "euler_poly",
        "genocchi_number", "genocchi_poly", "harmonic", "scaled_bernoulli", "stirling2",
    ),
    "identities": ("IdentityCase", "closed_form_coeffs", "identity_ids", "verify", "verify_all"),
    "parser": ("ParseError", "parse_poly"),
    "umbral": (
        "OperatorSeries", "apply", "delta_op", "exp_op", "forward_diff", "functional",
        "integral_01", "integral_I", "monomial_op", "scaled_bernoulli_op",
        "sequence_diff", "umbral_compose", "unit_integral_op",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return __all__
