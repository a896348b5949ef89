"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (zero tolerance). Run with `pytest -v -s` to see
the per-criterion lines and timings.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from degbern.core import LambdaPoly, XPoly
from degbern.expansion import F_ROUTES, G_ROUTES, classical_limit, expand, reconstruct
from degbern.families import (
    bernoulli_number,
    deg_bernoulli,
    deg_bernoulli_order,
    deg_falling,
    euler_number,
    genocchi_number,
    stirling2,
)
from degbern.identities import verify_all
from degbern.parser import parse_poly
from degbern.umbral import apply, delta_op, forward_diff, scaled_bernoulli_op, unit_integral_op
import degbern.cli as cli
from helpers import classical_coeffs_higher, classical_coeffs_order1, corpus, partition_count

CORPUS = corpus(200)


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "degbern", *args], capture_output=True, text=True, timeout=600
    )


def test_criterion_1_round_trip_exactness():
    started = time.perf_counter()
    for p in CORPUS:
        assert reconstruct(expand(p)) == p
        for r in (1, 2, 3, 4):
            assert reconstruct(expand(p, r)) == p
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"round-trip corpus took {elapsed:.1f}s, budget is 60s"
    print(f"criterion 1 round-trip exactness: PASS ({len(CORPUS)} polynomials, {elapsed:.1f}s)")


def test_criterion_2_route_equivalence():
    # Every route runs beside the other branch's default. The branches fill
    # disjoint coefficients, so this checks each route on every coefficient
    # it computes; order 1 runs on the whole corpus, orders 1-5 on 40 of it.
    started = time.perf_counter()
    both_realizations = [p for p in CORPUS if p.degree <= 8][:40]
    assert any(p.degree < 5 for p in both_realizations)  # r > degree gets exercised
    for p in CORPUS:
        for r in (1, 2, 3, 4, 5) if p in both_realizations else (1,):
            base = expand(p, r)
            for f_route in F_ROUTES[1:]:
                assert expand(p, r, f_route=f_route).coeffs == base.coeffs
            for g_route in G_ROUTES[1:]:
                assert expand(p, r, g_route).coeffs == base.coeffs
    elapsed = time.perf_counter() - started
    print(
        "criterion 2 route equivalence: PASS "
        f"({len(CORPUS)} order-1 cases, {len(both_realizations)}x5 order-r cases, {elapsed:.1f}s)"
    )


def test_criterion_3_degenerate_limit():
    lam_free = [p for p in CORPUS if not p.has_lambda]
    assert len(lam_free) >= 90
    for p in lam_free:
        assert classical_limit(expand(p)) == classical_coeffs_order1(p)
    for p in lam_free[:30]:
        for r in (1, 2, 3, 4):
            assert classical_limit(expand(p, r)) == classical_coeffs_higher(p, r)
        tall = p.degree + 2  # forces the pure g-branch case
        assert classical_limit(expand(p, tall)) == classical_coeffs_higher(p, tall)
    print(f"criterion 3 degenerate limit: PASS ({len(lam_free)} l-free polynomials)")


def test_criterion_4_identity_corpus():
    started = time.perf_counter()
    cases = verify_all()
    elapsed = time.perf_counter() - started
    failures = [c for c in cases if not c.passed]
    assert not failures, [(c.id, c.params) for c in failures]

    seen = {(c.id, c.params) for c in cases}
    assert ("miki", (("n", 8),)) in seen
    assert ("fpz", (("n", 8),)) in seen
    assert ("miki_poly", (("n", 8),)) in seen
    assert ("ex_b_classical", (("n", 10),)) in seen
    assert ("ex_d_classical", (("n", 10),)) in seen
    assert ("ex_d", (("n", 10),)) in seen
    assert ("ex_e", (("m", 5), ("n", 5))) in seen
    assert ("ex_f", (("m", 5), ("n", 5))) in seen
    assert ("ex_g_iop", (("a", 3), ("n", 6), ("r", 3))) in seen
    assert ("ex_g", (("n", 6), ("r", 4))) in seen
    assert elapsed < 120.0, f"identity corpus took {elapsed:.1f}s, budget is 120s"
    print(f"criterion 4 identity corpus: PASS ({len(cases)} cases, {elapsed:.1f}s)")


def test_criterion_5_structural_invariants():
    for n in range(13):
        beta = deg_bernoulli(n)
        # unit shift drops to the falling factorial
        expected = deg_falling(n - 1) * n if n >= 1 else XPoly.zero()
        assert beta.shift(1) - beta == expected
        # unit jump at 0 is the Kronecker delta at n = 1
        jump = beta.eval_x(1) - beta.eval_x(0)
        assert jump == (LambdaPoly.one() if n == 1 else LambdaPoly.zero())
        # the delta operator lowers the index
        if n >= 1:
            assert apply(delta_op(LambdaPoly.lam()), beta) == deg_bernoulli(n - 1) * n

    g_op = unit_integral_op() * scaled_bernoulli_op(LambdaPoly.lam())
    for r in range(1, 5):
        for n in range(9):
            member = deg_bernoulli_order(n, r)
            if n >= 1:
                step = forward_diff(member, 1, 1)
                assert step == deg_bernoulli_order(n - 1, r - 1) * n
            assert apply(g_op, member) == deg_bernoulli_order(n, r - 1)

    for y in (Fraction(1, 2), Fraction(-3), Fraction(2, 7)):
        for n in range(13):
            lhs = deg_bernoulli(n).shift(y)
            rhs = XPoly.zero()
            for j in range(n + 1):
                rhs = rhs + deg_bernoulli(j) * (deg_falling(n - j).eval_x(y) * comb(n, j))
            assert lhs == rhs
    print("criterion 5 structural invariants: PASS (n <= 12; r <= 4 for n <= 8)")


def test_criterion_6_known_value_spot_checks():
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(12) == Fraction(-691, 2730)
    assert euler_number(7) == Fraction(17, 8)
    assert genocchi_number(10) == Fraction(-155)
    # frozen fixtures computed from the stated oracles up front
    assert deg_bernoulli(1).eval_x(0) == LambdaPoly({0: Fraction(-1, 2), 1: Fraction(1, 2)})
    assert partition_count(4, 2) == 7
    assert stirling2(4, 2) == Fraction(7)
    print("criterion 6 known-value spot checks: PASS")


def test_criterion_7_cli_contract():
    expr = "x^3 - 1/2*l*x"
    proc = _cli("expand", "--expr", expr, "--format", "json")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    round_tripped = cli.expansion_to_document(doc["input"], cli.document_to_expansion(doc))
    assert round_tripped == doc
    assert reconstruct(cli.document_to_expansion(doc)) == parse_poly(expr)

    fixtures = [
        (("expand", "--expr", "x^2", "--crosscheck"), 0),
        (("verify", "miki", "--n-max", "4"), 0),
        (("expand", "--expr", "2x"), 1),
        (("verify", "no_such_identity"), 1),
        (("verify", "ex_g", "--n", "4", "--r", "5"), 1),
        (("verify", "fpz", "--n-max", "3", "--perturb"), 2),
    ]
    for args, expected in fixtures:
        proc = _cli(*args)
        assert proc.returncode == expected, (args, proc.returncode, proc.stderr)
    print("criterion 7 CLI contract: PASS (JSON round trip and exit codes 0/1/2)")
