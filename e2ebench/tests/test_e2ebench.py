"""The benchmark's own tests: the same workloads at toy size.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
from layers import PER_LAYER, TARGETS, layer_metrics, self_metric, span_names
from spans import Recorder

ROOT = os.path.dirname(run.HERE)
WORKLOADS = sorted(run.WORKLOADS)
TOY_SECONDS = 1.0


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    outcome = run.run(workload, seed=3, seconds=TOY_SECONDS, trace=False, size="toy")
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]) and entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_attributes_the_whole_wall(workload, tmp_path):
    spans = tmp_path / "spans.jsonl"
    outcome = run.run(workload, 3, TOY_SECONDS, trace=True, size="toy", spans_path=str(spans))
    metrics = outcome["result"]["metrics"]
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    values = {name: entry["value"] for name, entry in metrics.items()}
    attributed = sum(values[self_metric(span)] for span in span_names())
    assert attributed + values["bench.root_self_s"] == pytest.approx(
        values["bench.wall_s"], rel=1e-9, abs=1e-9
    )
    assert values["bench.wall_s"] > 0
    lines = spans.read_text().splitlines()
    assert len(lines) == len(outcome["recorder"].names)
    assert set(json.loads(lines[0])) == {"id", "name", "start", "end", "parent"}


def test_each_workload_exercises_its_own_layers(tmp_path):
    """A layer's counter reads non-zero exactly on the workloads meant to move it."""
    moved_on = {
        "remapping.distance_table.calls": {"analyze"},
        "graphs.delta.bfs_levels.calls": {"serve-write"},
        "labeling.mis.update.calls": {"serve-write"},
        "runtime.vector.rounds": {"simulate"},
    }
    for workload in WORKLOADS:
        outcome = run.run(workload, 5, TOY_SECONDS, True, "toy", str(tmp_path / "s.jsonl"))
        metrics = outcome["result"]["metrics"]
        for metric, workloads in moved_on.items():
            assert (metrics[metric]["value"] > 0) == (workload in workloads), (workload, metric)


@pytest.mark.parametrize("workload", ["analyze", "serve-write"])
def test_a_corrupted_answer_raises_the_error_rate(workload):
    module = run._workload(workload)
    state = module.setup(7, "toy")
    try:
        measurement = module.measure(state, TOY_SECONDS, None)
        clean = measurement.failed + module.verify(state, measurement)
        if workload == "analyze":
            levels = measurement.reports[-1][0].find("nsf-levels").payload
            node = next(iter(levels))
            levels[node] += 1
        else:
            i = next(
                i for i in range(state.cursor)
                if state.script[i][0] == "distance" and state.prefix[i] >= 0
            )
            state.answer[i] = -1
        corrupted = measurement.failed + module.verify(state, measurement)
    finally:
        module.close(state)
    assert corrupted == clean + 1
    assert corrupted / measurement.attempted > clean / measurement.attempted


def test_a_saturation_sub_phase_out_of_script_keeps_only_its_filled_windows(monkeypatch):
    import wl_serve

    monkeypatch.setattr(wl_serve, "FIRST_SATURATION_RATE", 1.0)
    monkeypatch.setattr(wl_serve, "BLOCK", 8)
    outcome = run.run("serve-write", 3, TOY_SECONDS, trace=False, size="toy")
    assert outcome["measurement"].report["script_exhausted"][0] >= 1
    assert outcome["result"]["correct"] is True
    assert outcome["result"]["metrics"]["ops_s"]["value"] > 0


def test_the_request_script_is_built_outside_the_set_up():
    import wl_serve

    state = wl_serve.WRITE.setup(7, "toy")
    try:
        assert state.script == [] and state.requests is None
        wl_serve.WRITE.prepare(state, TOY_SECONDS)
        wl_serve.WRITE._top_up(state, 1)
        again = wl_serve._RequestSource(7, wl_serve.WRITE.spec, wl_serve.SIZES["toy"], state.edges)
        assert state.script == again.block()
        assert len(state.due) == len(state.answer) == len(state.script) == wl_serve.BLOCK
    finally:
        wl_serve.WRITE.close(state)


@pytest.mark.parametrize("workload", ["analyze", "simulate"])
def test_the_same_seed_attempts_and_fails_the_same_operations(workload):
    """Closed loops make a fixed number of units, not as many as fit the clock."""
    first, second = (
        run.run(workload, seed=4, seconds=TOY_SECONDS, trace=False, size="toy")["result"]
        for _ in range(2)
    )
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    longer = run.run(workload, seed=4, seconds=40.0, trace=False, size="toy")["result"]
    assert longer["attempted"] > first["attempted"]


def test_simulate_counts_the_crash_recover_livelock():
    """The scalar step under crash-recover plus drops is a failed operation."""
    import wl_simulate
    from repro.errors import ConvergenceError

    state = wl_simulate.setup(1, "toy")
    outcomes = []
    for index in range(8):
        scenario = wl_simulate._Scenario(state, index)
        scenario.run()
        outcomes.append(scenario.outputs["scalar_reversal"])
        assert scenario.check() == []
    assert any(isinstance(outcome, ConvergenceError) for outcome in outcomes)


def test_simulate_counts_a_wrong_orientation_after_crash_recover():
    """A node that missed its neighbours' reversals while down stays a
    sink after it restarts: the run goes quiet with a wrong answer."""
    import wl_simulate

    scenario = wl_simulate._Scenario(wl_simulate.setup(69, "toy"), 0)
    scenario.run()
    assert scenario.check() == ["scalar reversal: not destination-oriented"]


def test_hop_distance_matches_bfs():
    from repro.graphs.generators import random_connected_graph
    from repro.graphs.traversal import bfs_distances

    import wl_serve

    rng = np.random.default_rng(0)
    graph = random_connected_graph(120, 0.01, rng)
    graph.add_node("island")
    adjacency = {node: set(graph.neighbors(node)) for node in graph.nodes()}
    for source in (0, 17, 99):
        truth = bfs_distances(graph, source)
        for target in list(graph.nodes()):
            assert wl_serve._hop_distance(adjacency, source, target) == truth.get(target)


def test_self_time_is_span_minus_child_coverage():
    recorder = Recorder()
    with recorder.root("root"):
        outer = recorder.open("core.analyze")
        inner = recorder.open("core.trim")
        recorder.close(*inner)
        recorder.close(*outer)
    own = recorder.self_times()
    durations = [end - start for start, end in zip(recorder.starts, recorder.ends)]
    assert own[1] == pytest.approx(durations[1] - durations[2])
    assert own[0] == pytest.approx(durations[0] - durations[1])
    metrics = layer_metrics(recorder)
    assert metrics["core.analyze.self_s"] == pytest.approx(own[1])
    assert metrics["bench.wall_s"] == pytest.approx(durations[0])


def test_every_target_resolves_and_every_span_is_a_metric():
    names = {name for name, _, _ in PER_LAYER}
    for target in TARGETS:
        owner, attr = target.resolve()
        assert callable(vars(owner)[attr]), target.path
    for span in span_names():
        assert self_metric(span) in names, span


def test_benchmark_json_matches_the_code(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in benchmark_json["workloads"]] == [
        "analyze", "serve-write", "simulate",
    ]
    assert set(run.WORKLOADS) == {w["name"] for w in benchmark_json["workloads"]}
    end_to_end = benchmark_json["end_to_end"]
    assert [(m["name"], m["unit"]) for m in end_to_end] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in end_to_end}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [(m["name"], m["unit"], m["better"]) for m in benchmark_json["per_layer"]] == list(
        PER_LAYER
    )


def test_without_the_library_the_command_fails_without_a_result(tmp_path, benchmark_json):
    for path in benchmark_json["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path,
            ignore=shutil.ignore_patterns("out", "__pycache__"),
        )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    command = benchmark_json["command"] + [
        "--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
