"""Tests of the benchmark itself: tiny smoke runs, self-time arithmetic, and
the guarantee that an untraced run executes unpatched capfuse code."""

import json
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "pretrain": workloads.Pretrain(n_scenes=12, window=1, rss_ops=1),
    "emend": workloads.Emend(pool=10, window=2, rss_ops=1),
    "score": workloads.Score(scenes_per_chunk=10, window=1, rss_ops=1),
}


def snapshot():
    return {(owner, attr): vars(owner).get(attr)
            for owner, attr, _ in tracing.Tracer()._targets()}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_untraced_run_reports_every_end_to_end_metric(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    attempted, failed, metrics, report = run.timed_run(
        TINY[name], Namespace(workload=name, seed=3, seconds=0.2, trace=0), ROOT,
        run.make_calibration(np, TINY[name].host_task))
    assert attempted >= 1 and failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: unit for k, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())
    assert report["caption_tokens"]["n"] > 0
    # set-up is timed in a fresh process, from its start to operation 0's inputs
    child = report["timing"]["setup_children"][0]
    assert child["total_s"] > child["setup_s"] + child["inputs_s"] > 0


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    attempted, failed, metrics, report = run.traced_run(
        TINY[name], Namespace(workload=name, seed=3, seconds=0.2, trace=1))
    assert attempted >= 2 and failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: unit for k, (_, unit) in metrics.items()}
    assert report["trace"]["missing_targets"] == []
    selfs = sum(v for k, (v, unit) in metrics.items()
                if unit == "s" and not k.startswith("trace."))
    assert selfs + metrics["trace.unattributed_s"][0] == \
        pytest.approx(metrics["trace.wall_s"][0], abs=1e-9)
    assert metrics["trace.unattributed_s"][0] >= 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 11.0, 12.0, -1],
    ]
    assert tracing.self_times(spans) == {"a": 4.0, "b": 6.0, "c": 1.0}


def test_window_rates_scale_each_operation_by_the_calibrations_around_it():
    records = [{"captions": 1}] * 5
    ref = run.CALIBRATION_REF_S["python"]
    cals = [ref, ref, 3 * ref, 3 * ref, ref, ref]
    # operations 1 and 3 ran on a host slowed by 2 on average, operation 2 by 3:
    # windows of two take 0.5 + 0.25 s and 1/6 + 0.25 s at reference speed;
    # the trailing single operation is dropped
    rates = run.window_rates(records, [0.5] * 5, cals, "captions", 2, "python")
    assert rates == pytest.approx([2 / 0.75, 2 / (1 / 6 + 0.25)])
    assert run.window_rates(records[:1], [0.5], cals[:2], "captions", 2, "python") == \
        pytest.approx([2.0])


def test_tracer_records_nesting_with_its_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("models.forward")
    inner = tracer.begin("models.lstm_step")
    tracer.end(inner)
    tracer.end(outer)
    assert tracer.spans == [["models.forward", 0.0, 3.0, -1],
                            ["models.lstm_step", 1.0, 2.0, 0]]
    layers = tracer.layer_metrics(wall_s=5.0)
    assert layers["models.forward_s"] == 2.0 and layers["models.lstm_step_s"] == 1.0
    assert layers["trace.unattributed_s"] == 2.0


def test_untraced_operations_run_unpatched_code():
    originals = snapshot()
    seen = []

    class Probe(workloads.Emend):
        def op(self, st, inp):
            seen.append(snapshot() == originals)
            return super().op(st, inp)

    probe = Probe(pool=10)
    state = probe.setup(0)
    state.n_ops = 5
    run.run_ops(probe, state, seconds=60.0)
    assert seen == [True] * 5

    seen.clear()
    tracer = tracing.Tracer()
    records, _, traced, *_ = run.run_ops(probe, state, seconds=60.0, tracer=tracer)
    assert seen == [True, False, False, True, True]  # the pattern repeats every 4
    assert snapshot() == originals
    # one draft and, unless it came out empty, three emendations per traced operation
    assert tracer.calls("decoding.beam") == \
        sum(1 + len(r["emended"]) for r, on in zip(records, traced) if on)


def test_score_oracle_checks_the_recorded_outputs_of_operation_0():
    score = TINY["score"]
    state = score.setup(3)
    state.n_ops = 2
    records, *_ = run.run_ops(score, state, seconds=60.0)
    assert score.finish(state, records)[0] == 0
    records[0]["metrics"]["cider"] += 1e-6
    assert score.finish(state, records)[0] == 1
    records[0]["metrics"]["cider"] -= 1e-6
    records[0]["edit_counts"][0] += 1
    assert score.finish(state, records)[0] == 1
