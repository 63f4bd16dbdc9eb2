"""Smoke test of the benchmark's own code, at tiny size.

    python3 -m pytest -q bench
"""

import json
import math
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from nfce import harness, runtime  # noqa: E402
from spans import Span, Tracer, self_times, traced_attributes  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0.0, 10.0, -1, 1),
        Span("a", 1.0, 3.0, 0, 1),
        Span("b", 2.0, 5.0, 0, 1),  # overlaps a: the union counts once
        Span("c", 9.0, 12.0, 0, 1),  # clipped to the parent's end
        Span("a.child", 1.5, 2.5, 1, 1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_tracer_nests_spans_and_shares_run_ids():
    tracer = Tracer()
    with tracer.span("step", unit=True):
        with tracer.span("inner"):
            pass
        with tracer.span("trial", unit=True):
            pass
    with tracer.span("next", unit=True):
        pass
    step, inner, trial, nxt = tracer.spans
    assert (inner.parent, trial.parent, nxt.parent) == (0, 0, -1)
    assert inner.run == step.run
    assert len({step.run, trial.run, nxt.run}) == 3


def _tiny_distributed():
    wl = workloads.DistributedSmall(seed=3, out_dir=None)
    wl.fixed_steps, wl.scenarios_per_step = 2, 1
    return wl


def test_traced_run_removes_every_wrapper(tmp_path):
    originals = {(m.__name__, attr): getattr(m, attr)
                 for m in layers.MODULES for _, attr, _, _ in layers.TARGETS
                 if hasattr(m, attr)}
    metrics, runs, failures, correct, _ = run.traced_run(
        _tiny_distributed(), str(tmp_path / "tiny"))
    assert correct and failures == 0 and len(runs) == 4
    assert metrics["runtime.messages"] > 0
    assert metrics["estimator.iterations"] > 0
    assert traced_attributes(layers.MODULES) == []
    for (name, attr), fn in originals.items():
        assert getattr(sys.modules[name], attr) is fn
    assert (tmp_path / "tiny-spans.jsonl").stat().st_size > 0


def test_injected_bad_outputs_are_counted_as_failed(monkeypatch):
    # run_distributed disagreeing with run_dps
    real = runtime.run_distributed

    def skewed(*args, **kwargs):
        res = real(*args, **kwargs)
        res.corr_total += 1
        return res

    monkeypatch.setattr(runtime, "run_distributed", skewed)
    wl = _tiny_distributed()
    runs, wall, step_seconds = run.measure(wl, 0.0, wl.fixed_steps)
    assert all(r.error and "corr_total" in r.error for r in runs)
    metrics, lines = run.end_to_end(wl, runs, wall, step_seconds, [1.0])
    assert "metric failed_ratio = 1 -  (2 of 2)" in lines
    assert math.isinf(metrics["dps_us_per_corr"])
    assert metrics["runs_per_s"] == 0.0
    monkeypatch.undo()

    # a program call that raises
    def boom(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(harness, "run_trial", boom)
    runs = workloads.FullscaleDps(seed=0, out_dir=None).step(0)
    assert [r.error for r in runs] == ["raised ValueError: injected"] * 2

    # a record with a non-finite NMSE, and one that breaks the a10 identity
    nan_run = workloads.harness_run(0, "ls", 2, 0, math.nan, 0, False, 1.0,
                                    349, 256, "")
    assert "non-finite" in nan_run.error
    off_run = workloads.harness_run(0, "dps", 2, 2, -3.0, 954 + 1, False, 1.0,
                                    349, 256, "")
    assert "a10 identity" in off_run.error
    good_run = workloads.harness_run(0, "dps", 2, 2, -3.0, 954, False, 1.0,
                                     349, 256, "")
    assert good_run.error is None


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
