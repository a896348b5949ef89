"""degbern benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list          every metric, its unit, and what it should move
    python3 perfbench/run.py --full-sweep    layer sweep with the degree-64 items (minutes)

Run from the root of a checkout; the library is imported from ./src. With
--trace 0 the last stdout line is a JSON object holding every end-to-end
metric of BENCHMARK.json; with --trace 1 it holds every per-layer metric.
The lines before it print each metric by name with its unit, the input
fingerprint, the machine and the unscaled wall times. Outputs of every op
are checked exactly; a run whose checker cannot catch a tampered output is
not correct.

Times are put on the probe scale of common.Speed: each is multiplied by a
fixed reference over the time of a standard-library probe taken next to it,
because the host's speed drifts by up to 1.8x within seconds. The process
and its children stay on one CPU so that probes and ops share it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import common

SPEC = common.ROOT / "BENCHMARK.json"

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "core.": "ops_per_s and latency_p50_ms on expand-warm; latency_tail_ms on cli-cold",
    "families.cold_s.": "latency_tail_ms and ops_per_s on cli-cold, ops_per_s on verify-sweep, "
    "setup_s on expand-warm; expand-warm op metrics should not move",
    "families.warm_us": "ops_per_s on expand-warm and verify-sweep",
    "families.stirling2.": "ops_per_s on cli-cold (crosscheck ops) and verify-sweep",
    "umbral.": "ops_per_s on verify-sweep (forward_diff, integral_I); latency_p50_ms on expand-warm (a0 route)",
    "expansion.ak_ms.binomial_sum": "ops_per_s on expand-warm (default route)",
    "expansion.": "latency_tail_ms on cli-cold (crosscheck ops run every route)",
    "expansion.out_": "nothing: exact output size, must repeat exactly",
    "identities.": "ops_per_s on verify-sweep",
    "parser.": "latency_p50_ms on cli-cold",
    "cli.": "setup_s and latency_p50_ms on cli-cold",
    "trace.": "nothing: cost of the tracing itself",
    "span.": "the workload's end-to-end metrics, by layer; 'entry' is the layer the op enters "
    "(expansion, cli or identities)",
}


def moves(name: str) -> str:
    best = max((prefix for prefix in MOVES if name.startswith(prefix)), key=len, default="")
    return MOVES.get(best, "")


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def print_catalogue(spec: dict) -> None:
    print(f"workloads ({spec['run_seconds']} s per run):")
    for w in spec["workloads"]:
        print(f"  {w['name']:14s} {w['why']}")
    print("end-to-end metrics:")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:24s} {m['unit']:8s} {m['better']:6s} bound {m['bound']}")
    print("per-layer metrics (traced run):")
    for m in spec["per_layer"]:
        print(f"  {m['name']:56s} {m['unit']:6s} {m['better']:6s} moves {moves(m['name'])}")


def per_layer_metrics(workload: str, seed: int, sample) -> dict:
    out: dict = {}
    n = min(len(sample.lat), len(sample.traced_lat))
    untraced, traced = sum(sample.lat[:n]), sum(sample.traced_lat[:n])
    out["trace.overhead_pct"] = (100 * (traced / untraced - 1), "%")
    out["trace.overhead.latency_p50_ms"] = (
        (statistics.median(sample.traced_lat) - statistics.median(sample.lat)) * 1e3, "ms")
    out["trace.spans_per_op"] = (sample.span_count / max(sample.span_ops, 1), "count")
    ops = max(sample.span_ops, 1)
    for layer in ("core", "families", "umbral"):
        out[f"span.self_ms_per_op.{layer}"] = (sample.layer_self_ms.get(layer, 0.0) / ops, "ms")
    entry = sum(v for k, v in sample.layer_self_ms.items() if k not in ("core", "families", "umbral"))
    out["span.self_ms_per_op.entry"] = (entry / ops, "ms")

    counts, _ = common.run_worker("counts", workload, str(seed))
    out["expansion.out_terms"] = (counts["out_terms"], "count")
    out["expansion.out_bits"] = (counts["out_bits"], "count")
    calls = counts["hits"] + counts["misses"]
    out["families.stirling2.hits"] = (counts["hits"], "count")
    out["families.stirling2.misses"] = (counts["misses"], "count")
    out["families.stirling2.hit_ratio"] = (counts["hits"] / calls if calls else 0.0, "ratio")
    for name, (value, unit) in common.run_worker("sweep", str(seed))[0].items():
        out[name] = (value, unit)
    for layer, ms in sorted(sample.layer_self_ms.items()):
        print(f"# span self time {layer:12s} {ms:12.1f} ms over {sample.span_ops} ops")
    for name, ms in sorted(sample.name_self_ms.items(), key=lambda kv: -kv[1])[:8]:
        print(f"# top span self time {name:40s} {ms:12.1f} ms")
    return out


def bench(args: argparse.Namespace, spec: dict) -> int:
    import inputs
    from workloads import WORKLOADS

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; known: {', '.join(names)}", file=sys.stderr)
        return 2
    trace = args.trace == 1
    began = time.perf_counter()
    sample = WORKLOADS[args.workload](args.seed, args.seconds, trace)
    e2e, tail_info = sample.end_to_end()

    ok = sample.ok + sample.traced_ok
    failed = ok.count(False)
    correct = failed == 0 and sample.setup_ok and sample.selftest_caught
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_fingerprint": inputs.workload_fingerprint(args.workload, args.seed),
        "machine": common.machine_info(),
        "ops": len(sample.lat),
        "fail_frac": failed / len(ok),
        "checker_selftest_caught": sample.selftest_caught,
        **tail_info,
    }
    if trace:
        produced = per_layer_metrics(args.workload, args.seed, sample)
        wanted = spec["per_layer"]
        traced_e2e, _ = sample.traced().end_to_end()
        record["traced_end_to_end"] = traced_e2e
        record["tracing_overhead"] = {
            k: traced_e2e[k]["value"] - e2e[k]["value"] for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms")
        }
    else:
        produced = {k: (v["value"], v["unit"]) for k, v in e2e.items()}
        wanted = spec["end_to_end"]
    record["end_to_end"] = e2e
    record["end_to_end_wall_time"] = sample.end_to_end(raw=True)[0]
    record["wall_s"] = time.perf_counter() - began

    for key in ("input_fingerprint", "ops", "fail_frac", "tail_percentile", "tail_samples", "checker_selftest_caught"):
        print(f"# {key}: {record[key]}")
    for error in sample.errors[:5]:
        print(f"# failed op: {error}")
    print("# machine: " + ", ".join(f"{k}={v}" for k, v in record["machine"].items()))
    for k in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
        v = record["end_to_end_wall_time"][k]
        print(f"# wall time, not put on the probe scale: {k} {v['value']:.6g} {v['unit']}")
    if trace:
        for k, v in record["tracing_overhead"].items():
            print(f"# tracing overhead {k}: {v:+.4f} (traced minus untraced)")
    missing = [m["name"] for m in wanted if m["name"] not in produced]
    if missing:
        print(f"benchmark produced no value for {', '.join(missing)}", file=sys.stderr)
        return 3
    metrics = {}
    for m in wanted:
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            print(f"metric {m['name']} has unit {unit}, BENCHMARK.json says {m['unit']}", file=sys.stderr)
            return 3
        metrics[m["name"]] = common.metric(value, unit)
        print(f"{m['name']:56s} {value:14.6g} {unit}")
    record["metrics"] = metrics
    common.write_record(f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json", record)
    print(json.dumps({"correct": correct, "attempted": len(ok), "failed": failed, "metrics": metrics}))
    return 0


def full_sweep(seed: int) -> int:
    import layers

    metrics, notes = layers.full_sweep(seed)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:56s} {value:14.6g} {unit}")
    print("comparison with the ROADMAP baseline:")
    for note in notes:
        print(f"  {note}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--full-sweep", action="store_true")
    args = parser.parse_args(argv)
    try:
        common.check_checkout()
        spec = load_spec()
    except (common.SetupError, OSError, ValueError) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)
        return 2
    common.use_library()
    common.pin_to_one_cpu()
    if args.list:
        print_catalogue(spec)
        return 0
    if args.full_sweep:
        return full_sweep(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return bench(args, spec)


if __name__ == "__main__":
    sys.exit(main())
