"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import common  # noqa: E402

common.use_library()

import inputs  # noqa: E402


@pytest.mark.parametrize("workload", ["expand-warm", "cli-cold", "verify-sweep"])
def test_generators_are_deterministic_per_seed(workload):
    assert inputs.workload_fingerprint(workload, 7) == inputs.workload_fingerprint(workload, 7)
    assert inputs.workload_fingerprint(workload, 7) != inputs.workload_fingerprint(workload, 8)


def test_generated_inputs_repeat_exactly():
    assert inputs.warm_pool(3) == inputs.warm_pool(3)
    assert inputs.cli_pool(3) == inputs.cli_pool(3)
    assert inputs.sweep_order(3, 1, 50) == inputs.sweep_order(3, 1, 50)
    assert inputs.sweep_order(3, 1, 50) != inputs.sweep_order(3, 2, 50)


def test_generated_polynomials_have_the_slot_degree():
    from degbern import parse_poly

    pool = inputs.warm_pool(5)
    for (expr, r), (degree, order) in zip(pool, inputs.WARM_SLOTS):
        assert parse_poly(expr).degree == degree
        assert r == order


def test_sweep_corpus_covers_every_identity():
    from degbern import identity_ids

    cases = inputs.sweep_cases()
    assert {identity_id for identity_id, _ in cases} == set(identity_ids())
    assert 900 <= len(cases) <= 1100


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    values = [float(v) for v in range(1, 101)]
    assert common.tail(values) == (90.0, 90.0, 100)
    upper = values[50:]
    value, pct, count = common.tail(list(reversed(upper)))
    assert (value, pct, count) == (90.0, 80.0, 50)
    assert sum(v > value for v in upper) == 10


def test_tail_with_too_few_samples_is_the_maximum():
    assert common.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert common.tail([float(v) for v in range(10)]) == (9.0, 100.0, 10)
    assert common.tail([float(v) for v in range(11)]) == (0.0, 100.0 / 11, 11)


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],  # overlaps a: the root loses 1..6, not 3 + 3
        ["a.child", 2.0, 3.0, 1, 1],
        ["late", 9.0, 12.0, 0, 1],  # runs past its parent: only 9..10 counts
        ["other op", 20.0, 21.0, None, 2],
    ]
    assert common.self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_layer_self_time_sums_by_name_prefix():
    from spans import layer_of, self_ms_by

    spans = [
        ["expansion.expand", 0.0, 0.010, None, 0],
        ["core.XPoly.shift", 0.001, 0.004, 0, 0],
        ["core.XPoly.eval_x", 0.005, 0.006, 0, 0],
    ]
    totals = self_ms_by(spans, layer_of)
    assert totals == pytest.approx({"expansion": 6.0, "core": 4.0})


def test_tracer_records_parents_and_op_ids():
    from spans import Tracer

    tracer = Tracer()
    inner = tracer.wrap("core.f", lambda x: x + 1)
    tracer.op = 5
    root = tracer.open("expansion.g")
    assert inner(1) == 2
    tracer.close(root)
    (name0, s0, e0, p0, op0), (name1, s1, e1, p1, op1) = tracer.spans
    assert (name0, p0, op0, name1, p1, op1) == ("expansion.g", None, 5, "core.f", 0, 5)
    assert s0 <= s1 <= e1 <= e0


@pytest.mark.parametrize("workload", ["expand-warm", "cli-cold", "verify-sweep"])
def test_count_metrics_repeat_exactly(workload):
    argv = common.python_child("worker.py", "counts", workload, "3")
    first, second = (common.run_child(argv) for _ in range(2))
    assert first[1] == 0 and second[1] == 0, first[4]
    a, b = common.last_json_line(first[3]), common.last_json_line(second[3])
    assert a == b
    assert a["out_terms"] > 0 and a["out_bits"] > a["out_terms"]


def test_checker_rejects_a_tampered_cli_document():
    from workloads import check_cli

    op = inputs.cli_pool(2)[0]
    _, status, _, out, _ = common.run_child([sys.executable, "-m", "degbern", *op["argv"]])
    assert check_cli(op, status, out)
    assert not check_cli(op, status, out, tamper=True)
    assert not check_cli(op, 1, out)


def test_op_times_are_scaled_by_the_probes_around_them():
    speed = common.Speed()
    speed.ends = [1.0, 2.0, 3.0]
    speed.seconds = [common.PROBE_REF_S, 2 * common.PROBE_REF_S, 4 * common.PROBE_REF_S]
    assert speed.factor(1.5, 1.9) == pytest.approx(1 / 1.5)  # probes at 1.0 and 2.0
    assert speed.factor(2.1, 2.9) == pytest.approx(1 / 3.0)  # probes at 2.0 and 3.0
    assert speed.factor(0.1, 0.5) == pytest.approx(1.0)  # only the probe after it


def test_instrument_wraps_layer_calls_and_restores_them():
    import degbern.cli as cli
    import degbern.core as core
    import degbern.expansion as expansion
    from spans import Tracer, instrument

    before = (core.XPoly.eval_x, expansion.scaled_bernoulli, cli.json.dumps, dict(getattr(cli, "_NUMBER_FAMILIES", {})))
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        from degbern import expand, parse_poly

        expand(parse_poly("x^3 + l*x"), 1)
        names = {span[0] for span in tracer.spans}
        assert {"core.XPoly.eval_x", "families.scaled_bernoulli", "umbral.umbral_compose"} <= names
    finally:
        restore()
    assert (core.XPoly.eval_x, expansion.scaled_bernoulli, cli.json.dumps, dict(getattr(cli, "_NUMBER_FAMILIES", {}))) == before
