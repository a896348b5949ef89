"""Layer sweep: isolated calls into each layer's public functions.

Operands come from real family members and seeded polynomials. A call is
repeated until it has run for REPEAT_S, and the median time per call is
reported on the probe scale of common.Speed. The quick sweep runs in every traced run; the full sweep adds the
degree-64 items (cold builds, every order-1 route on x^64 and friends) and
sets them next to the figures the ROADMAP baseline records.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time

import common
import inputs

SIZES = (8, 16, 32, 64)
REPEAT_S = 0.1
COLD_FAMILIES = ("stirling2", "deg_bernoulli", "deg_bernoulli_order_r3", "scaled_bernoulli_a2")

# ROADMAP baseline (2 cores, Python 3.11.7), seconds, for the full sweep.
ROADMAP_S = {
    "expansion.ak_ms.delta_lambda.x64": 11.9,
    "expansion.ak_ms.binomial_sum.x64": 2.4,
    "expansion.ak_ms.functional.x64": 0.96,
    "expansion.ak_ms.stirling_sum.x64": 0.48,
    "families.cold_s.stirling2.n64": 58.6,
    "families.cold_s.deg_bernoulli.n64": 13.1,
}
ROADMAP_TOLERANCE = 0.15


def per_call(fn, min_total: float = REPEAT_S) -> float:
    """Median seconds per call over repeats that together take min_total."""
    before = common.probe()
    samples = []
    began = time.perf_counter()
    while not samples or time.perf_counter() - began < min_total:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples) * common.PROBE_REF_S * 2 / (before + common.probe())


def seeded_poly(rng: random.Random, degree: int):
    from degbern import parse_poly

    return parse_poly(inputs.poly_text(rng, degree))


def cold_build(family: str, n: int) -> float:
    return common.run_worker("family-cold", family, str(n))[0]["seconds"]


def core_layer(rng: random.Random, m: dict, series_sizes=(8, 16, 32)) -> None:
    from degbern import LAMBDA, LambdaPoly, TruncSeries, deg_falling
    from fractions import Fraction
    from math import factorial

    for n in SIZES:
        a = deg_falling(n).coeff(n // 2)
        b = LambdaPoly({e: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for e in range(n // 2 + 1)})
        m[f"core.lpoly_mul_us.n{n}"] = (per_call(lambda: a * b) * 1e6, "us")
        left, right = deg_falling(n // 2), seeded_poly(rng, n // 2)
        m[f"core.xpoly_mul_ms.n{n}"] = (per_call(lambda: left * right) * 1e3, "ms")
        p = seeded_poly(rng, n)
        m[f"core.xpoly_shift_ms.n{n}"] = (per_call(lambda: p.shift(LAMBDA)) * 1e3, "ms")
        point = LambdaPoly({0: 1, 1: 3})
        m[f"core.xpoly_eval_ms.n{n}"] = (per_call(lambda: p.eval_x(point)) * 1e3, "ms")
        if n not in series_sizes:
            continue
        # the degenerate Bernoulli core: sum_k (1)_{k+1,l} t^k / (k+1)!
        falling = [LambdaPoly.one()]
        for k in range(1, n + 2):
            falling.append(falling[-1] * (LambdaPoly.one() - LAMBDA * (k - 1)))
        base = TruncSeries(LambdaPoly, n, [falling[k + 1] / factorial(k + 1) for k in range(n + 1)])
        m[f"core.series_inverse_ms.n{n}"] = (per_call(base.inverse) * 1e3, "ms")
        inverse = base.inverse()
        m[f"core.series_pow_ms.n{n}"] = (per_call(lambda: inverse**4) * 1e3, "ms")


def families_layer(m: dict, sizes=(16, 32)) -> None:
    from degbern import deg_bernoulli

    for family in COLD_FAMILIES:
        for n in sizes:
            m[f"families.cold_s.{family}.n{n}"] = (cold_build(family, n), "s")
    deg_bernoulli(16)
    calls = 20000
    t = time.perf_counter()
    for _ in range(calls):
        deg_bernoulli(16)
    m["families.warm_us"] = ((time.perf_counter() - t) / calls * 1e6, "us")


def umbral_layer(rng: random.Random, m: dict) -> None:
    from degbern import LAMBDA, forward_diff, functional, integral_I, scaled_bernoulli
    from degbern import scaled_bernoulli_op, umbral_compose, unit_integral_op

    for n in SIZES:
        p = seeded_poly(rng, n)
        scaled_bernoulli(n, 1)
        m[f"umbral.functional_ms.n{n}"] = (
            per_call(lambda: functional(unit_integral_op() * scaled_bernoulli_op(LAMBDA), p)) * 1e3, "ms")
        m[f"umbral.integral_I_ms.n{n}"] = (per_call(lambda: integral_I(p)) * 1e3, "ms")
        m[f"umbral.forward_diff_ms.n{n}"] = (per_call(lambda: forward_diff(p, LAMBDA, 4)) * 1e3, "ms")
        m[f"umbral.compose_ms.n{n}"] = (
            per_call(lambda: umbral_compose(p, lambda i: scaled_bernoulli(i, 1))) * 1e3, "ms")


def warm_families(n: int) -> None:
    """Build every family the routes read up to degree n, each in one step."""
    from degbern import deg_bernoulli_order, scaled_bernoulli, stirling2

    for r in (1, 3):
        deg_bernoulli_order(n, r)
    for a in range(1, 4):
        scaled_bernoulli(n + 3, a)
    for k in range(n + 4):
        for j in range(k + 1):
            stirling2(k, j)


def expansion_layer(rng: random.Random, m: dict, sizes=(8, 16, 32)) -> None:
    from degbern import crosscheck, expand, expand_higher, expand_order1, reconstruct
    from degbern.expansion import A0_ROUTES, AK_ROUTES, F_ROUTES, G_ROUTES

    for n in sizes:
        p = seeded_poly(rng, n)
        warm_families(n)
        for route in AK_ROUTES:
            m[f"expansion.ak_ms.{route}.n{n}"] = (
                per_call(lambda: expand_order1(p, route, "umbral_integral")) * 1e3, "ms")
        if n >= 16:
            for route in A0_ROUTES:
                m[f"expansion.a0_ms.{route}.n{n}"] = (
                    per_call(lambda: expand_order1(p, "stirling_sum", route)) * 1e3, "ms")
            for g in G_ROUTES:
                for f in F_ROUTES:
                    m[f"expansion.higher_ms.{g}-{f}.n{n}"] = (
                        per_call(lambda: expand_higher(p, 3, g, f)) * 1e3, "ms")
        m[f"expansion.crosscheck_s.n{n}"] = (per_call(lambda: crosscheck(p, 1)), "s")
        e = expand(p, 1)
        m[f"expansion.reconstruct_ms.n{n}"] = (per_call(lambda: reconstruct(e)) * 1e3, "ms")


def identities_layer(m: dict) -> None:
    """Self time per identity id over a small corpus, from spans."""
    from degbern import verify

    from spans import Tracer, instrument, self_ms_by

    small = [
        (identity_id, params) for identity_id, params in inputs.sweep_cases()
        if sum(v for k, v in params.items() if k in ("m", "n")) <= 8 and params.get("r", 0) <= 3 and params.get("a", 0) <= 3
    ]
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        for op, (identity_id, params) in enumerate(small):
            tracer.op = op
            index = tracer.open(f"identities.verify.{identity_id}")
            verify(identity_id, params)
            tracer.close(index)
    finally:
        restore()
    by_id = self_ms_by(tracer.spans, lambda s: s[0] if s[0].startswith("identities.verify.") else "")
    for name, ms in sorted(by_id.items()):
        if name:
            m[f"identities.verify_ms.{name.rsplit('.', 1)[1]}"] = (ms, "ms")


def parser_cli_layer(seed: int, m: dict) -> None:
    import json

    from degbern import parse_poly
    from degbern.cli import expansion_to_document, main
    from degbern.expansion import expand

    first = inputs.cli_pool(seed)[: len(inputs.CLI_SLOTS)]
    exprs = [op["expr"] for op in first if op["kind"] == "expand"]
    for expr in exprs:
        parse_poly(expr)
    m["parser.parse_ms"] = (statistics.mean(per_call(lambda: parse_poly(e), 0.05) for e in exprs) * 1e3, "ms")
    docs = [(e, expand(parse_poly(e), 1)) for e in exprs]
    m["cli.serialize_ms"] = (
        statistics.mean(per_call(lambda: json.dumps(expansion_to_document(s, x), indent=2), 0.05) for s, x in docs) * 1e3,
        "ms",
    )
    version = [sys.executable, "-m", "degbern", "--version"]
    m["cli.startup_s"] = (statistics.median(common.scaled_child_walls(version, 5)), "s")
    argv = first[1]["argv"]
    fresh = statistics.median(common.scaled_child_walls([sys.executable, "-m", "degbern", *argv], 3))
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
        in_process = per_call(lambda: main(argv))
    m["cli.process_overhead_s"] = (fresh - in_process, "s")


def sweep(seed: int) -> dict:
    """The quick sweep; returns {name: [value, unit]}."""
    rng = random.Random(f"layers:{seed}")
    m: dict = {}
    parser_cli_layer(seed, m)
    core_layer(rng, m)
    families_layer(m)
    umbral_layer(rng, m)
    expansion_layer(rng, m)
    identities_layer(m)
    return m


def full_sweep(seed: int) -> tuple[dict, list[str]]:
    """The quick sweep plus the degree-64 items, with the ROADMAP comparison."""
    from degbern import XPoly, expand_order1

    m = sweep(seed)
    core64: dict = {}
    core_layer(random.Random(f"layers:{seed}"), core64, series_sizes=(64,))
    m.update((k, v) for k, v in core64.items() if k.endswith(".n64"))
    for family in COLD_FAMILIES:
        m[f"families.cold_s.{family}.n64"] = (cold_build(family, 64), "s")
    x64 = XPoly.x() ** 64
    from degbern.expansion import AK_ROUTES

    warm_families(64)
    for route in AK_ROUTES:
        m[f"expansion.ak_ms.{route}.x64"] = (per_call(lambda: expand_order1(x64, route, "umbral_integral")) * 1e3, "ms")
    notes = []
    for name, expected in ROADMAP_S.items():
        value, unit = m[name]
        seconds = value / 1e3 if unit == "ms" else value
        ratio = seconds / expected
        flag = "ok" if abs(ratio - 1) <= ROADMAP_TOLERANCE else "OUTSIDE +-15%"
        notes.append(f"{name}: {seconds:.3f} s against ROADMAP {expected} s (x{ratio:.2f}) {flag}")
    return m, notes
