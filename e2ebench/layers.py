"""The layer boundaries a traced run wraps, and the per-layer metrics.

Every wrapped name is the one the caller resolves at call time: the
analyzer calls ``is_chordal``, ``trim``, ``layer`` and ``remap``
through ``repro.core.uncover``'s globals, and imports ``embed_tree``,
``nsf_levels``, ``trim_nodes``, ``greedy_spanner``, ``gabriel_graph``
and ``dynamic_diameter`` from their modules inside the call; methods
are looked up on their class.  The simulate workload calls the
generators through their modules for the same reason.

Per-layer metrics are means per root span: one corpus pass (analyze),
one scenario (simulate), or one serve cycle (serve-write).
A ``*_s`` metric is self time — span duration minus child coverage —
so the self times of all spans plus ``bench.root_self_s`` add up to
``bench.wall_s``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Sequence, Tuple

from spans import Recorder, Target


def _vector_run(recorder: Recorder, args: Sequence[Any], result: Any) -> None:
    if result is not None:
        recorder.add("runtime.vector.rounds", result.rounds)
        recorder.add("runtime.vector.messages", result.messages_sent)


def _scalar_run(recorder: Recorder, args: Sequence[Any], result: Any) -> None:
    # A livelocked run raises; its completed rounds still count.
    recorder.add("runtime.scalar.rounds", args[0].stats.rounds)


def _dtn_run(recorder: Recorder, args: Sequence[Any], result: Any) -> None:
    simulation = args[0]
    recorder.add(
        "dtn.contacts", simulation.metrics.counter("repro.dtn.contacts").value
    )
    if result is not None:
        recorder.add("dtn.delivery_ratio.sum", result.delivery_ratio)
        recorder.add("dtn.runs", 1)


def _fault_session(recorder: Recorder, args: Sequence[Any], result: Any) -> None:
    if result is not None:
        recorder.keep_session(result)


_SERVICE = "repro.serving.state:GraphService."

TARGETS: Tuple[Target, ...] = (
    # core: the paper's pipeline
    Target("repro.core.uncover:StructureAnalyzer.analyze", "core.analyze"),
    Target("repro.core.uncover:trim", "core.trim"),
    Target("repro.core.uncover:layer", "core.layer"),
    Target("repro.core.uncover:remap", "core.remap"),
    # graphs: classification kernels
    Target("repro.core.uncover:is_chordal", "graphs.is_chordal"),
    Target("repro.graphs.graph:Graph.frozen", "graphs.frozen"),
    Target("repro.graphs.csr:FrozenGraph.average_clustering", "graphs.average_clustering"),
    Target("repro.graphs.csr:FrozenGraph.diameter", "graphs.diameter"),
    # layering, temporal, remapping, trimming
    Target("repro.layering.nsf:nsf_levels", "layering.nsf_levels"),
    Target("repro.temporal.connectivity:dynamic_diameter", "temporal.dynamic_diameter"),
    Target("repro.remapping.hyperbolic:embed_tree", "remapping.embed_tree"),
    Target(
        "repro.remapping.hyperbolic:HyperbolicEmbedding.distance_table",
        "remapping.distance_table",
    ),
    Target("repro.trimming.static_rules:trim_nodes", "trimming.trim_nodes"),
    Target("repro.trimming.spanners:greedy_spanner", "trimming.greedy_spanner"),
    Target("repro.trimming.topology_control:gabriel_graph", "trimming.gabriel"),
    # generators and datasets
    Target("repro.graphs.generators:random_connected_graph", "graphs.generate"),
    Target("repro.datasets.human_contacts:rate_model_trace", "datasets.trace"),
    # serving: the service calls the gateway makes
    *(
        Target(_SERVICE + method, "serving.service")
        for method in (
            "distances_from",
            "nsf_level",
            "gateway_label",
            "pagerank_score",
            "mis_member",
            "insert_edge",
            "delete_edge",
            "apply_batch",
        )
    ),
    Target(_SERVICE + "has_edge", None, count_key="serving.has_edge"),
    # graphs.delta: the patched snapshot under the service
    Target("repro.graphs.delta:PatchedGraph.bfs_levels", "graphs.delta.bfs_levels"),
    Target("repro.graphs.delta:PatchedGraph.apply_batch", "graphs.delta.apply_batch"),
    Target("repro.graphs.delta:PatchedGraph.snapshot", "graphs.delta.snapshot"),
    Target("repro.graphs.delta:PatchedGraph.insert_edge", "graphs.delta.edge_write"),
    Target("repro.graphs.delta:PatchedGraph.delete_edge", "graphs.delta.edge_write"),
    # incremental index repair
    Target("repro.layering.incremental:IncrementalNSF.update", "layering.incremental_nsf.update"),
    Target(
        "repro.labeling.incremental:IncrementalLandmarkLabels.update",
        "labeling.landmarks.update",
    ),
    Target("repro.labeling.incremental:IncrementalPageRank.update", "labeling.pagerank.update"),
    Target("repro.labeling.incremental:IncrementalMIS.update", "labeling.mis.update"),
    # runtime, faults, dtn
    Target("repro.runtime.vector:VectorEngine.run", "runtime.vector.run", hook=_vector_run),
    Target("repro.runtime.engine:Network.run", "runtime.scalar.run", hook=_scalar_run),
    Target("repro.faults.plan:FaultPlan.start", None, hook=_fault_session),
    Target("repro.dtn.simulator:DTNSimulation.run", "dtn.run", hook=_dtn_run),
)

#: Fault-ledger kinds reported as ``faults.events.<kind>``.
FAULT_KINDS = ("drop", "retry", "crash_drop", "retry_exhausted")

#: Every per-layer metric: (name, unit, better).  BENCHMARK.json lists
#: the same names; ``tests/test_e2ebench.py`` keeps the two in step.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.analyze.self_s", "s", "lower"),
    ("core.trim_s", "s", "lower"),
    ("core.layer_s", "s", "lower"),
    ("core.remap_s", "s", "lower"),
    ("graphs.is_chordal_s", "s", "lower"),
    ("graphs.frozen_s", "s", "lower"),
    ("graphs.average_clustering_s", "s", "lower"),
    ("graphs.diameter_s", "s", "lower"),
    ("layering.nsf_levels_s", "s", "lower"),
    ("temporal.dynamic_diameter_s", "s", "lower"),
    ("remapping.embed_tree_s", "s", "lower"),
    ("remapping.distance_table_s", "s", "lower"),
    ("remapping.distance_table.calls", "count", "lower"),
    ("trimming.trim_nodes_s", "s", "lower"),
    ("trimming.greedy_spanner_s", "s", "lower"),
    ("trimming.gabriel_s", "s", "lower"),
    ("graphs.generate_s", "s", "lower"),
    ("graphs.generate.peak_mb", "MB", "lower"),
    ("datasets.trace_s", "s", "lower"),
    ("graphs.delta.bfs_levels_s", "s", "lower"),
    ("graphs.delta.bfs_levels.calls", "count", "lower"),
    ("graphs.delta.apply_batch_s", "s", "lower"),
    ("graphs.delta.snapshot_s", "s", "lower"),
    ("graphs.delta.edge_write_s", "s", "lower"),
    ("serving.gateway.self_s", "s", "lower"),
    ("serving.service.self_s", "s", "lower"),
    ("serving.service_busy_s", "s", "lower"),
    ("serving.batch_size_mean", "req", "higher"),
    ("serving.sweeps_per_distance", "ratio", "lower"),
    ("serving.has_edge.calls_per_write", "ratio", "lower"),
    ("layering.incremental_nsf.update_s", "s", "lower"),
    ("layering.incremental_nsf.update.calls", "count", "lower"),
    ("labeling.landmarks.update_s", "s", "lower"),
    ("labeling.landmarks.update.calls", "count", "lower"),
    ("labeling.pagerank.update_s", "s", "lower"),
    ("labeling.pagerank.update.calls", "count", "lower"),
    ("labeling.mis.update_s", "s", "lower"),
    ("labeling.mis.update.calls", "count", "lower"),
    ("runtime.vector.run_s", "s", "lower"),
    ("runtime.vector.rounds", "count", "lower"),
    ("runtime.vector.messages", "count", "lower"),
    ("runtime.scalar.run_s", "s", "lower"),
    ("runtime.scalar.rounds", "count", "lower"),
    *((f"faults.events.{kind}", "count", "lower") for kind in FAULT_KINDS),
    ("dtn.run_s", "s", "lower"),
    ("dtn.contacts", "count", "higher"),
    ("dtn.delivery_ratio", "ratio", "higher"),
    ("bench.wall_s", "s", "lower"),
    ("bench.root_self_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.gen_lag_p99_ms", "ms", "lower"),
    ("bench.backlog_end", "count", "lower"),
)

#: Spans whose call count is reported as ``<span>.calls``.
_COUNTED = (
    "remapping.distance_table",
    "graphs.delta.bfs_levels",
    "layering.incremental_nsf.update",
    "labeling.landmarks.update",
    "labeling.pagerank.update",
    "labeling.mis.update",
)


def self_metric(span: str) -> str:
    """The per-layer metric holding a span's self time."""
    if span in ("core.analyze", "serving.service"):
        return f"{span}.self_s"
    return f"{span}_s"


def span_names() -> List[str]:
    return sorted({target.span for target in TARGETS if target.span})


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per-root means of every span-derived per-layer metric.

    Returns every ``PER_LAYER`` name; layers the workload never called
    read 0.  Workload-level entries (``serving.batch_size_mean``,
    ``bench.trace_overhead``, ...) are left at 0 for the caller to fill.
    """
    metrics: Dict[str, float] = {name: 0.0 for name, _, _ in PER_LAYER}
    roots = recorder.roots
    if not roots:
        return metrics
    per_root = 1.0 / len(roots)
    own = recorder.self_times()
    names = recorder.names
    root_set = set(roots)
    self_sum: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    busy = 0.0
    for index, name in enumerate(names):
        if index in root_set:
            continue
        self_sum[name] += own[index]
        calls[name] += 1
        parent = recorder.parents[index]
        if name == "serving.service" and names[parent] != "serving.service":
            busy += recorder.ends[index] - recorder.starts[index]
    for span in span_names():
        metrics[self_metric(span)] = self_sum[span] * per_root
    for span in _COUNTED:
        metrics[f"{span}.calls"] = calls[span] * per_root
    metrics["serving.service_busy_s"] = busy * per_root
    metrics["bench.wall_s"] = per_root * sum(
        recorder.ends[root] - recorder.starts[root] for root in roots
    )
    metrics["bench.root_self_s"] = per_root * sum(own[root] for root in roots)

    values = recorder.values
    for key in (
        "runtime.vector.rounds",
        "runtime.vector.messages",
        "runtime.scalar.rounds",
        "dtn.contacts",
    ):
        metrics[key] = values[key] * per_root
    if values["dtn.runs"]:
        metrics["dtn.delivery_ratio"] = values["dtn.delivery_ratio.sum"] / values["dtn.runs"]
    events: Dict[str, int] = defaultdict(int)
    for session in recorder.sessions:
        for kind, count in session.summary().items():
            events[kind] += count
    for kind in FAULT_KINDS:
        metrics[f"faults.events.{kind}"] = events[kind] * per_root
    return metrics
