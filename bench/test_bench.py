"""Tests of the benchmark itself, on shrunken inputs so they run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _small(name: str, seed: int, tmp_path: Path):
    wl = bench_workloads.make(name, seed, tmp_path, small=True)
    wl.setup()
    return wl


def _spec(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)


@pytest.mark.parametrize("name", bench_workloads.WORKLOADS)
def test_emitted_metric_names_match_spec(name, tmp_path):
    wl = _small(name, 1, tmp_path)
    host = run.HostSpeed()
    untraced = run.measure(wl, 0.05, host)
    gated, _ = run.end_to_end(wl, untraced, [(0.1, host.sample())])
    assert {k: u for k, (_, u) in gated.items()} == _spec("end_to_end")
    assert all(v > 0 for v, _ in gated.values())
    with bench_trace.Tracer(name) as tracer:
        traced = run.measure(wl, 0.05, host)
    layers = run.per_layer(wl, untraced, traced, tracer)
    assert {k: u for k, (_, u) in layers.items()} == _spec("per_layer")
    assert untraced["failed"] == traced["failed"] == 0


@pytest.mark.parametrize("name", bench_workloads.WORKLOADS)
def test_seed_changes_generated_inputs(name, tmp_path):
    def inputs(seed):
        return _small(name, seed, tmp_path).inputs()

    same, other = inputs(7), inputs(8)
    assert all((inputs(7)[k] == v).all() for k, v in same.items())
    assert any(v.shape != other[k].shape or (v != other[k]).any() for k, v in same.items())


def test_untraced_replicate_after_traced_run_matches_fresh(tmp_path):
    wl = _small("scale_moran", 3, tmp_path)
    _, fresh = wl.op(0)
    bound = {(m, a): v for m in list(sys.modules.values())
             if getattr(m, "__name__", "").startswith("netgames")
             for a, v in vars(m).items() if callable(v)}
    with bench_trace.Tracer(wl.name) as tracer:
        _, traced = wl.op(0)
    _, after = wl.op(0)
    assert bench_workloads.records_equal(fresh, after)
    assert bench_workloads.records_equal(fresh, traced)
    assert all(getattr(m, a) is v for (m, a), v in bound.items())
    spans = tracer.arrays()
    play = spans["name_id"] == tracer.names.index("engine.play_step")
    assert play.sum() == fresh.steps
    root = spans["parent"] < 0
    # self times partition each top-level span exactly
    assert spans["self"].sum() == pytest.approx(spans["dur"][root].sum(), rel=1e-9)


def test_repeat_checks_pass(tmp_path):
    for name in bench_workloads.WORKLOADS:
        assert _small(name, 2, tmp_path).repeat_check() == []


def test_fails_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_rewire",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
