"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Smoke runs use a tiny scenario (one dataset of 2 loops x 20 keyframes) and
time a single round, so the whole file takes a few seconds.
"""

import argparse
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.import_package()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402

SMOKE = workloads.Scale(loops=2, keyframes_per_loop=20, datasets=1, frame_stride=2,
                        setup_repeats=1)
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in BENCHMARK["workloads"]]


def _run(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0, trace=trace)
    assert run.run_one(args, SMOKE) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", GATED)
def test_smoke_emits_every_end_to_end_metric(capsys, workload):
    result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", GATED)
def test_smoke_traced_emits_every_per_layer_metric(capsys, workload):
    result = _run(capsys, workload, trace=1)
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("per_layer")


def test_slam_online_reports_failures_instead_of_crashing(capsys):
    result = _run(capsys, "slam_online", trace=0)
    metrics = result["metrics"]
    assert metrics["failed_frac"]["value"] == result["failed"] / result["attempted"]
    if result["failed"]:
        # the pipeline bug of this commit: every keyframe fails, no timings
        assert metrics["failed_frac"]["value"] == 1.0
        assert not result["correct"]
        assert "ms_per_op" not in metrics
    else:
        assert result["correct"] and "ms_per_op" in metrics


def test_raised_exception_counts_as_failed_operation(capsys, monkeypatch):
    def broken(self, *args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(workloads.segmentation, "detect", broken)
    result = _run(capsys, "detect_stream", trace=0)
    assert result["failed"] == result["attempted"] > 0
    assert not result["correct"]
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def _traced_outputs(name: str, seed: int):
    workload = workloads.WORKLOADS[name]
    inputs, _ = workloads.timed_setup(workload, seed, SMOKE)
    tracer = Tracer()

    def factory():
        tracer.install(layers.HOOKS)
        return tracer

    result = workloads.measure(workload, inputs, 0.0, SMOKE.datasets, factory)
    assert result.correct
    metrics, absent = layers.layer_metrics(layers.PER_LAYER, tracer, 1)
    assert not absent
    return workload.summarize(result.rounds[0][1]), {k: m["value"] for k, m in metrics.items()}


@pytest.mark.parametrize("workload", GATED)
def test_same_seed_gives_identical_outputs_and_counts(workload):
    quality_a, layer_a = _traced_outputs(workload, seed=5)
    quality_b, layer_b = _traced_outputs(workload, seed=5)
    assert quality_a and quality_a == quality_b
    for key in ("graph.lm_iterations", "graph.factorize.fill_nnz",
                "segmentation.kmeans_iterations", "graph.add_factor.calls",
                "graph.factorize.calls"):
        assert layer_a[key] == layer_b[key], key


def test_different_seeds_give_different_inputs():
    quality_a, _ = _traced_outputs("graph_batch", seed=1)
    quality_b, _ = _traced_outputs("graph_batch", seed=2)
    assert quality_a != quality_b


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = _Clock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    leaf_a = tracer.wrap("leaf", leaf)

    def outer():
        clock.now += 1.0
        leaf_a(2.0)
        clock.now += 0.5
        leaf_a(3.0)

    tracer.wrap("outer", outer)()
    summary = tracer.summary()
    assert summary["outer"]["s"] == pytest.approx(6.5)
    assert summary["outer"]["self_s"] == pytest.approx(1.5)
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == pytest.approx(5.0)


def test_nested_same_name_spans_are_not_counted_twice():
    clock = _Clock()
    tracer = Tracer(clock)
    inner = tracer.wrap("x", lambda: setattr(clock, "now", clock.now + 1.0))

    def outer():
        clock.now += 1.0
        inner()

    tracer.wrap("x", outer)()
    assert tracer.summary()["x"]["s"] == pytest.approx(2.0)
    assert tracer.summary()["x"]["calls"] == 2


def test_missing_hook_is_reported_absent():
    tracer = Tracer()
    with tracer:
        tracer.install([Hook("graph.gone", "objectslam.graph:no_such_function"),
                        Hook("graph.gone_method", "objectslam.graph:FactorGraph.no_such"),
                        Hook("other.gone", "objectslam.no_such_module:f")])
    assert tracer.absent == {"graph.gone", "graph.gone_method", "other.gone"}
    table = {"gone.s": ("s", ("graph.gone",), lambda s, c, t: 1.0, True),
             "kept.s": ("s", ("graph.present",), lambda s, c, t: 2.0, True)}
    metrics, absent = layers.layer_metrics(table, tracer, 1)
    assert absent == ["gone.s"]
    assert metrics == {"kept.s": {"value": 2.0, "unit": "s"}}


def test_hook_patches_every_importer_and_uninstall_restores():
    from objectslam import factors, geometry, graph

    original = geometry.se3_jr_inv
    tracer = Tracer()
    with tracer:
        tracer.install([Hook("geometry.se3_jr_inv", "objectslam.geometry:se3_jr_inv"),
                        Hook("graph.factorize", "objectslam.graph:FactorGraph._factorize")])
        assert factors.se3_jr_inv is graph.se3_jr_inv is geometry.se3_jr_inv
        assert geometry.se3_jr_inv is not original
        assert isinstance(graph.FactorGraph.__dict__["_factorize"], staticmethod)
    assert factors.se3_jr_inv is original and graph.se3_jr_inv is original
    assert not tracer.absent
