"""The three workloads, each one client in a closed loop.

expand-warm   library users in a long session: one worker process warms the
              family caches, then times expand(p, r) on seeded polynomials.
cli-cold      CLI users: one fresh `python -m degbern` process per op.
verify-sweep  the identity corpus above DEFAULT_BOUNDS, one fresh process per
              pass, cases in seeded order.

Latencies are on the probe scale of common.Speed; the wall times are kept
as raw_lat. A run measures inputs.cycles_for(seconds) whole plan cycles (or
passes), so every run times the same slot mix however fast the host
happens to be. Outputs are checked after the timed loop. Each function
returns a Sample; with trace=True it also replays the first cycle (or the
first pass) with spans recorded.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field

import common
import inputs
from spans import Tracer


@dataclass
class Sample:
    setup_s: list[float]
    lat: list[float]
    ok: list[bool]
    rss_mb: float
    selftest_caught: bool
    raw_lat: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    setup_ok: bool = True
    traced_lat: list[float] = field(default_factory=list)
    traced_ok: list[bool] = field(default_factory=list)
    layer_self_ms: dict[str, float] = field(default_factory=dict)
    name_self_ms: dict[str, float] = field(default_factory=dict)
    span_count: int = 0
    span_ops: int = 0

    def traced(self) -> "Sample":
        """The traced replay as a sample of its own."""
        return Sample(self.setup_s, self.traced_lat, self.traced_ok, self.rss_mb, self.selftest_caught)

    def end_to_end(self, raw: bool = False) -> tuple[dict, dict]:
        lat = self.raw_lat if raw else self.lat
        tail_ms, pct, count = common.tail(lat)
        return {
            "setup_s": common.metric(statistics.median(self.setup_s), "s"),
            "ops_per_s": common.metric(len(lat) / sum(lat), "ops/s"),
            "latency_p50_ms": common.metric(statistics.median(lat) * 1e3, "ms"),
            "latency_tail_ms": common.metric(tail_ms * 1e3, "ms"),
            "peak_rss_mb": common.metric(self.rss_mb, "MB"),
        }, {"tail_percentile": pct, "tail_samples": count}


def _worker_sample(result: dict, rss: float) -> Sample:
    keys = Sample.__dataclass_fields__
    return Sample(rss_mb=rss, **{k: v for k, v in result.items() if k in keys})


# -- expand-warm ------------------------------------------------------------------


def expand_warm(seed: int, seconds: float, trace: bool) -> Sample:
    t0 = time.perf_counter()
    result, rss = common.run_worker("expand-warm", str(seed), str(seconds), repr(t0), "1" if trace else "0")
    return _worker_sample(result, rss)


# -- verify-sweep -----------------------------------------------------------------

SETUP_REPEATS = 5


def verify_sweep(seed: int, seconds: float, trace: bool) -> Sample:
    setups = common.scaled_child_walls(common.python_child("worker.py", "ready"), SETUP_REPEATS)
    merged = None
    for pass_index in range(inputs.cycles_for(seconds, inputs.SWEEP_PASS_S)):
        result, rss = common.run_worker("verify-pass", str(seed), str(pass_index), "0")
        sample = _worker_sample(result, rss)
        if merged is None:
            merged = sample
        else:
            merged.lat += sample.lat
            merged.raw_lat += sample.raw_lat
            merged.ok += sample.ok
            merged.errors += sample.errors
            merged.rss_mb = max(merged.rss_mb, sample.rss_mb)
            merged.selftest_caught &= sample.selftest_caught
    merged.setup_s = setups
    if trace:
        # Replay the first pass with spans; same case order, fresh process.
        result, _ = common.run_worker("verify-pass", str(seed), "0", "1")
        merged.traced_lat, merged.traced_ok = result["lat"], result["ok"]
        for key in ("layer_self_ms", "name_self_ms", "span_count", "span_ops"):
            setattr(merged, key, result[key])
    return merged


# -- cli-cold ---------------------------------------------------------------------


def warm_check_families(max_degree: int = 32) -> None:
    """Build the families reconstruct reads, each in one step, before checking.

    reconstruct asks for members in increasing order, and the library rebuilds
    a family table whenever a larger member is asked for, so growing the
    tables from reconstruct would cost the checker about ten times more.
    """
    from degbern import deg_bernoulli_order

    for r in range(1, 4):
        deg_bernoulli_order(max_degree, r)


def check_cli(op: dict, status: int, stdout: str, tamper: bool = False) -> bool:
    """Check one CLI op's output exactly against the library, in this process."""
    from fractions import Fraction

    from degbern import parse_poly, reconstruct
    from degbern.cli import document_to_expansion

    if status != 0:
        return False
    try:
        doc = json.loads(stdout)
        if op["kind"] == "table":
            return len(doc["entries"]) == op["entries"]
        if tamper:
            doc["coefficients"][-1]["lambda_poly"].append(["7", "1"])
        e = document_to_expansion(doc)
        if e.order != op["order"]:
            return False
        if "lambda" in op:
            lam = Fraction(op["lambda"])
            at = [Fraction(entry["value"]) for entry in doc["coefficients_at_lambda"]]
            if at != [c.subs(lam) for c in e.coeffs]:
                return False
        return reconstruct(e) == parse_poly(op["expr"])
    except (ValueError, KeyError, TypeError, ArithmeticError):
        return False


def _cli_argv(op: dict) -> list[str]:
    return [sys.executable, "-m", "degbern", *op["argv"]]


def _cli_session(pool: list[dict], cycles: int, tracer: Tracer | None) -> list[tuple]:
    cycle = len(inputs.CLI_SLOTS)
    spans_file = common.OUT_DIR / "cli-op-spans.json"
    speed = common.Speed()
    runs = []
    for i in range(cycle * cycles):
        op = pool[i % len(pool)]
        if tracer is None:
            argv = _cli_argv(op)
        else:
            argv = common.python_child("worker.py", "cli-op", str(spans_file), *op["argv"])
        speed.probe()
        start = time.perf_counter()
        wall, status, rss, out, _ = common.run_child(argv)
        if tracer is not None:
            tracer.op = i
            root = tracer.add("cli.process", start, start + wall)
            with open(spans_file) as fh:
                child = json.load(fh)
            os.unlink(spans_file)
            for name, s, e, parent, _ in child:
                tracer.add(name, s, e, root if parent is None else root + 1 + parent)
        runs.append([op, (start, start + wall), status, rss, out])
    speed.probe(force=True)
    for run in runs:
        start, end = run[1]
        run[1] = (end - start, (end - start) * speed.factor(start, end))
    return runs


def cli_cold(seed: int, seconds: float, trace: bool) -> Sample:
    setups = common.scaled_child_walls([sys.executable, "-m", "degbern", "--version"], SETUP_REPEATS)
    pool = inputs.cli_pool(seed)

    runs = _cli_session(pool, inputs.cycles_for(seconds, inputs.CLI_CYCLE_S), None)
    warm_check_families()
    probe = pool[0]
    _, status, _, out, _ = common.run_child(_cli_argv(probe))
    caught = check_cli(probe, status, out) and not check_cli(probe, status, out, tamper=True)
    sample = Sample(
        setup_s=setups,
        lat=[scaled for _, (_, scaled), _, _, _ in runs],
        raw_lat=[wall for _, (wall, _), _, _, _ in runs],
        ok=[check_cli(op, status, out) for op, _, status, _, out in runs],
        rss_mb=max(rss for _, _, _, rss, _ in runs),
        selftest_caught=caught,
    )
    if trace:
        tracer = Tracer()
        traced = _cli_session(pool, 1, tracer)
        sample.traced_lat = [scaled for _, (_, scaled), _, _, _ in traced]
        sample.traced_ok = [check_cli(op, status, out) for op, _, status, _, out in traced]
        from spans import summarize

        for key, value in summarize(tracer, f"spans-cli-cold-{seed}.jsonl", len(traced)).items():
            setattr(sample, key, value)
    return sample


WORKLOADS = {"expand-warm": expand_warm, "cli-cold": cli_cold, "verify-sweep": verify_sweep}
