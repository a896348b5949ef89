"""Child processes of the benchmark; each mode runs in a fresh interpreter.

    worker.py expand-warm SEED SECONDS T0 TRACE   one expand-warm session
    worker.py verify-pass SEED PASS TRACE         one pass of the verify sweep
    worker.py cli-op SPANS_FILE ARGV...           one CLI op, with spans
    worker.py ready                               import the library and stop
    worker.py family-cold FAMILY N                one cold family build
    worker.py counts WORKLOAD SEED                exact output and cache counts
    worker.py sweep SEED                          the layer sweep

T0 is the parent's time.perf_counter() just before it launched this process;
perf_counter is the system-wide monotonic clock, so T0 and this process's
own readings can be subtracted. Each mode prints one JSON line last.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

import common

common.use_library()
DUMPS = json.dumps


def emit(result: dict) -> None:
    sys.stdout.write(DUMPS(result) + "\n")
    sys.stdout.flush()


def out_counts(polys) -> tuple[int, int]:
    """(nonzero l-terms, numerator+denominator bits) over XPoly outputs."""
    terms = bits = 0
    for p in polys:
        for c in p.coeffs:
            for _, q in c.items():
                terms += 1
                bits += q.numerator.bit_length() + q.denominator.bit_length()
    return terms, bits


# -- expand-warm ------------------------------------------------------------------


def expand_warm(seed: int, seconds: float, t0: float, trace: bool) -> None:
    import inputs
    from degbern import XPoly, expand, parse_poly, reconstruct
    from degbern.core import LambdaPoly

    x = XPoly.x()
    warmed = []

    def warm() -> None:
        for r in (1, 2, 3):
            warmed.append(reconstruct(expand(x**32, r)) == x**32)

    setup_wall, setup_s = common.probed_wall(warm, t0)
    setup_ok = all(warmed)

    # The checker must be able to fail: one tampered coefficient has to show.
    probe_poly = x**8 + XPoly.const(LambdaPoly.lam())
    good = expand(probe_poly, 1)
    coeffs = list(good.coeffs)
    coeffs[3] = coeffs[3] + 1
    selftest_caught = reconstruct(dataclasses.replace(good, coeffs=tuple(coeffs))) != probe_poly

    pool = inputs.warm_pool(seed)
    cycle = len(inputs.WARM_SLOTS)

    def session(cycles: int, tracer=None) -> tuple[list[float], list[float], list]:
        speed = common.Speed()
        times, outs = [], []
        for i in range(cycle * cycles):
            expr, r = pool[i % len(pool)]
            p = parse_poly(expr)
            speed.probe()
            if tracer is not None:
                tracer.op = i
                index = tracer.open("expansion.expand")
            start = time.perf_counter()
            e = expand(p, r)
            times.append((start, time.perf_counter()))
            if tracer is not None:
                tracer.close(index)
            outs.append((p, e))
        speed.probe(force=True)
        return [b - a for a, b in times], [(b - a) * speed.factor(a, b) for a, b in times], outs

    raw, lat, outs = session(inputs.cycles_for(seconds, inputs.WARM_CYCLE_S))
    ok = [reconstruct(e) == p for p, e in outs]
    result = {
        "setup_s": [setup_s], "setup_wall_s": setup_wall, "raw_lat": raw, "lat": lat, "ok": ok,
        "setup_ok": setup_ok, "selftest_caught": selftest_caught,
    }
    if trace:
        from spans import Tracer, instrument, summarize

        tracer = Tracer()
        instrument(tracer)
        _, t_lat, t_outs = session(1, tracer)
        result.update(summarize(tracer, f"spans-expand-warm-{seed}.jsonl", len(t_lat)))
        result.update(traced_lat=t_lat, traced_ok=[reconstruct(e) == p for p, e in t_outs])
    emit(result)


# -- verify-sweep -----------------------------------------------------------------


def verify_pass(seed: int, pass_index: int, trace: bool) -> None:
    import inputs
    from degbern import verify

    cases = inputs.sweep_cases()
    order = inputs.sweep_order(seed, pass_index, len(cases))
    tracer = None
    if trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(tracer)
    speed = common.Speed()
    times, results = [], []
    for op, index in enumerate(order):
        identity_id, params = cases[index]
        speed.probe()
        if tracer is not None:
            tracer.op = op
            span = tracer.open(f"identities.verify.{identity_id}")
        start = time.perf_counter()
        try:
            case = verify(identity_id, params)
        except Exception as exc:  # a failed op is counted, the sweep goes on
            case = exc
        times.append((start, time.perf_counter()))
        if tracer is not None:
            tracer.close(span)
        results.append(case)
    speed.probe(force=True)
    result = {
        "setup_s": [],
        "raw_lat": [b - a for a, b in times],
        "lat": [(b - a) * speed.factor(a, b) for a, b in times],
    }
    if tracer is not None:
        from spans import summarize

        result.update(summarize(tracer, f"spans-verify-sweep-{seed}-{pass_index}.jsonl", len(times)))
    result["ok"] = [not isinstance(c, Exception) and c.passed for c in results]
    result["errors"] = [f"{cases[i][0]}{cases[i][1]}: {c!r}" for i, c in zip(order, results) if isinstance(c, Exception)]
    result["selftest_caught"] = not verify("miki", {"n": 4}, perturb=True).passed
    emit(result)


# -- cli-cold: one traced op ------------------------------------------------------


def cli_op(spans_file: str, argv: list[str]) -> int:
    from spans import Tracer, instrument

    tracer = Tracer()
    index = tracer.open("cli.import")
    import degbern.cli as cli

    tracer.close(index)
    instrument(tracer)
    index = tracer.open("cli.main")
    try:
        status = cli.main(argv)
    finally:
        tracer.close(index)
        sys.stdout.flush()
        with open(spans_file, "w") as fh:
            fh.write(DUMPS(tracer.spans))
    return status


# -- small modes ------------------------------------------------------------------


def family_cold(family: str, n: int) -> None:
    from degbern import deg_bernoulli, deg_bernoulli_order, scaled_bernoulli, stirling2

    builds = {
        "stirling2": lambda: [stirling2(m, k) for m in range(n + 1) for k in range(m + 1)],
        "deg_bernoulli": lambda: deg_bernoulli(n),
        "deg_bernoulli_order_r3": lambda: deg_bernoulli_order(n, 3),
        "scaled_bernoulli_a2": lambda: scaled_bernoulli(n, 2),
    }
    before = common.probe()
    t = time.perf_counter()
    builds[family]()
    seconds = time.perf_counter() - t
    emit({"seconds": seconds * common.PROBE_REF_S * 2 / (before + common.probe())})


def counts(workload: str, seed: int) -> None:
    """Exact counts over the first plan cycle (or the first 200 verify cases).

    The work is fixed by the seed and runs in a fresh process, so every count
    repeats exactly from run to run.
    """
    import contextlib
    import io

    import inputs
    from degbern import expand, parse_poly, stirling2, verify
    from degbern.cli import document_to_expansion, main

    polys = []
    if workload == "expand-warm":
        for expr, r in inputs.warm_pool(seed)[: len(inputs.WARM_SLOTS)]:
            e = expand(parse_poly(expr), r)
            polys += [_as_xpoly(e.coeffs)]
    elif workload == "cli-cold":
        for op in inputs.cli_pool(seed)[: len(inputs.CLI_SLOTS)]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(op["argv"])
            doc = json.loads(buf.getvalue())
            if op["kind"] == "expand":
                polys.append(_as_xpoly(document_to_expansion(doc).coeffs))
            else:
                polys += [_table_entry(entry) for entry in doc["entries"]]
    else:
        cases = inputs.sweep_cases()
        for index in inputs.sweep_order(seed, 0, len(cases))[:200]:
            polys.append(verify(*cases[index]).lhs)
    terms, bits = out_counts(polys)
    info = stirling2.cache_info()
    emit({"out_terms": terms, "out_bits": bits, "hits": info.hits, "misses": info.misses})


def _as_xpoly(coeffs):
    from degbern import XPoly

    return XPoly(coeffs)


def _table_entry(entry: dict):
    from fractions import Fraction

    from degbern import XPoly
    from degbern.cli import lambda_poly_from_pairs

    if "value" in entry:
        return XPoly.const(Fraction(entry["value"]))
    return XPoly([lambda_poly_from_pairs(c["lambda_poly"]) for c in entry["coefficients"]])


def main(args: list[str]) -> int:
    mode = args[0]
    if mode == "expand-warm":
        expand_warm(int(args[1]), float(args[2]), float(args[3]), args[4] == "1")
    elif mode == "verify-pass":
        verify_pass(int(args[1]), int(args[2]), args[3] == "1")
    elif mode == "cli-op":
        return cli_op(args[1], args[2:])
    elif mode == "ready":
        import degbern  # noqa: F401
    elif mode == "family-cold":
        family_cold(args[1], int(args[2]))
    elif mode == "counts":
        counts(args[1], int(args[2]))
    elif mode == "sweep":
        import layers

        emit(layers.sweep(int(args[1])))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
