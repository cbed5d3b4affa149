"""``analyze``: one caller, closed loop, ``StructureAnalyzer().analyze``.

The corpus is the paper's headline pipeline on three network models:
a Barabási–Albert graph (spanner trimming, NSF layering, hyperbolic
remapping), a connected unit-disk graph (Gabriel trimming instead of
the spanner) and an evolving rate-model graph (dynamic diameter and
replacement-rule trimming).  Hyperbolic certification and trimming do
almost all of the work here and none in the other workloads.

One operation is one ``analyze`` call; a pass analyzes one corpus.
Pass ``k`` draws its own corpus from ``[seed, 11, k]``: how long a
corpus takes varies by draw (the rate-model member by four times), so
a run that repeated one draw would measure that draw, not the seed's
run of inputs.  The number of passes is fixed by ``--seconds``, not by
the clock, so the same seed always makes the same calls.
"""

from __future__ import annotations

import contextlib
import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import Measurement
from spans import Recorder, installed

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "ba": (500, 2),
        "udg": (400, 10.0, 1.0),
        "eg": (30, (2, 2, 3), 20.0),
        "route_pairs": 20,
    },
    "toy": {
        "ba": (60, 2),
        "udg": (50, 4.0, 1.0),
        "eg": (8, (2, 2), 10.0),
        "route_pairs": 5,
    },
}

#: Spanner stretch bound the analyzer's default ``trim`` uses.
SPANNER_T = 3.0

#: Seed of the toy corpus the set-up analyzes to warm lazy imports.
WARMUP_SEED = 0

#: Resampling budget for a connected unit-disk graph.
UDG_ATTEMPTS = 100

#: Seconds of ``--seconds`` per pass.  One full-size pass took 4.4 s on
#: average over 30 draws (2.8-6.4 s) on a 2-vCPU shared Xeon host, and
#: its untimed set-up, next corpus and checks about 0.6 s more.
PASS_BUDGET_S = 5.0


@dataclass
class Corpus:
    graphs: List[Any]
    pairs: List[List[tuple]]
    size: str
    seed: int


@dataclass
class AnalyzeRun(Measurement):
    #: reports[pass][member], each pass on corpora[pass]
    reports: List[List[Any]] = field(default_factory=list)
    corpora: List[Corpus] = field(default_factory=list)
    errors: int = 0


def passes_for(seconds: float) -> int:
    """Passes a run makes: fixed by ``--seconds``, at least two."""
    return max(2, round(seconds / PASS_BUDGET_S))


def setup(seed: int, size: str) -> Corpus:
    """Generate the first pass's corpus and warm the analyzer's lazy imports.

    The warm-up analyzes the toy corpus once, so the first timed pass
    does not pay the one-time imports of the strategy modules.
    """
    corpus = make_corpus(seed, 0, size)
    if size != "toy":
        _one_pass(make_corpus(WARMUP_SEED, 0, "toy"), AnalyzeRun())
    return corpus


def make_corpus(seed: int, index: int, size: str) -> Corpus:
    """The corpus of pass ``index``, drawn from ``[seed, 11, index]``."""
    from repro.datasets.human_contacts import discretised_rate_model
    from repro.graphs.generators import barabasi_albert
    from repro.graphs.traversal import is_connected
    from repro.graphs.unit_disk import random_unit_disk_graph

    spec = SIZES[size]
    rng = np.random.default_rng([seed, 11, index])
    ba = barabasi_albert(*spec["ba"], rng)
    n, side, radius = spec["udg"]
    for _ in range(UDG_ATTEMPTS):
        udg = random_unit_disk_graph(n, side, side, radius, rng)
        if is_connected(udg):
            break
    else:
        raise RuntimeError("no connected unit-disk graph within the attempt budget")
    eg_n, radices, end_time = spec["eg"]
    eg, _ = discretised_rate_model(eg_n, radices, rng, end_time=end_time)
    pairs = []
    for graph in (ba, udg):
        nodes = sorted(graph.nodes())
        picks = rng.choice(len(nodes), size=(spec["route_pairs"], 2))
        pairs.append([(nodes[a], nodes[b]) for a, b in picks if a != b])
    return Corpus([ba, udg, eg], pairs, size, seed)


def close(corpus: Corpus) -> None:
    """Nothing outlives a pass."""


def _one_pass(corpus: Corpus, run: AnalyzeRun, recorder: Optional[Recorder] = None) -> float:
    """One timed pass; traced passes are root spans covering only the calls."""
    from layers import TARGETS
    from repro.core.uncover import StructureAnalyzer

    gc.collect()
    reports: List[Any] = []
    with contextlib.ExitStack() as stack:
        if recorder is not None:
            stack.enter_context(installed(TARGETS, recorder))
            stack.enter_context(recorder.root("analyze.pass"))
        start = time.perf_counter()
        for graph in corpus.graphs:
            try:
                reports.append(StructureAnalyzer().analyze(graph))
            except Exception as error:  # noqa: BLE001 — counted as a failed call
                reports.append(error)
                run.errors += 1
        elapsed = time.perf_counter() - start
    run.reports.append(reports)
    run.corpora.append(corpus)
    return elapsed


def measure(
    corpus: Corpus,
    seconds: float,
    recorder: Optional[Recorder],
    set_up_again: Callable[[], None] = lambda: None,
) -> AnalyzeRun:
    """``passes_for(seconds)`` passes, pass ``k`` on corpus ``k``.

    Each pass is followed by one more set-up and, untimed, the next
    corpus.  A traced run analyzes half as many corpora twice each,
    untraced and then traced (the root span); the median ratio of the
    pairs gives ``bench.trace_overhead``.
    """
    run = AnalyzeRun()
    plain: List[float] = []
    ratios: List[float] = []
    corpora = passes_for(seconds) if recorder is None else (passes_for(seconds) + 1) // 2
    for index in range(corpora):
        if index:
            corpus = make_corpus(corpus.seed, index, corpus.size)
        plain.append(_one_pass(corpus, run))
        if recorder is not None:
            ratios.append(_one_pass(corpus, run, recorder) / plain[-1])
        set_up_again()
    done = len(run.reports)
    run.op_ms = [1000.0 * t for t in plain]
    run.attempted = len(corpus.graphs) * done
    run.failed = run.errors
    run.ops_s = len(corpus.graphs) * len(plain) / sum(plain)
    if ratios:
        run.layer["bench.trace_overhead"] = np.median(ratios) - 1.0
    run.report["analyze_s"] = (np.median(plain), "s", len(plain))
    run.report["analyze_max_s"] = (max(plain), "s", len(plain))
    return run


def _outputs(graph: Any, report: Any) -> Dict[str, Any]:
    """The checked outputs of one report, keyed by check."""
    outputs: Dict[str, Any] = {}
    for name in ("nsf-levels", "temporal-connectivity"):
        structure = report.find(name)
        if structure is not None:
            outputs[name] = structure.payload
    embedding = report.find("hyperbolic-greedy-embedding")
    if embedding is not None:
        payload = embedding.payload
        outputs["embedding"] = (payload.tau, payload.edge_angle, payload.tree_parent)
    for structure in report.structures:
        if structure.name.startswith("greedy-"):
            outputs["spanner"] = sorted(map(sorted, structure.payload.edges()))
        if structure.name == "trimmed-evolving-graph":
            outputs["trimmed"] = structure.evidence["removed_nodes"]
    return outputs


def _check(corpus: Corpus, member: int, report: Any) -> List[str]:
    """Every reference check on one report; returns the failed ones."""
    from repro.layering.nsf import nsf_levels_reference
    from repro.remapping.hyperbolic import greedy_route_hyperbolic
    from repro.temporal.connectivity import dynamic_diameter_reference
    from repro.temporal.evolving import EvolvingGraph
    from repro.trimming.spanners import spanner_stretch

    graph = corpus.graphs[member]
    failures: List[str] = []
    if isinstance(graph, EvolvingGraph):
        structure = report.find("temporal-connectivity")
        if structure is None or structure.payload != dynamic_diameter_reference(graph, 0):
            failures.append("dynamic_diameter != dynamic_diameter_reference")
        if report.find("trimmed-evolving-graph") is None:
            failures.append("no replacement-rule trimming")
        return failures
    nsf = report.find("nsf-levels")
    if nsf is None or nsf.payload != nsf_levels_reference(graph):
        failures.append("nsf_levels != nsf_levels_reference")
    remapped = report.find("hyperbolic-greedy-embedding")
    if remapped is None:
        failures.append("no hyperbolic embedding")
    else:
        for source, target in corpus.pairs[member]:
            route = greedy_route_hyperbolic(graph, remapped.payload, source, target)
            if not route.delivered:
                failures.append(f"greedy delivery failed {source}->{target}")
                break
    spanners = [s for s in report.structures if s.name.startswith("greedy-")]
    for spanner in spanners:
        if spanner_stretch(graph, spanner.payload) > SPANNER_T:
            failures.append("spanner stretch above t")
    if member == 0 and not spanners:
        failures.append("no spanner on the Barabási–Albert graph")
    return failures


def verify(corpus: Corpus, run: AnalyzeRun) -> int:
    """Reference checks, outside the timed region; returns wrong calls.

    The first report of each member of a corpus is checked against the
    references; a later report on the same corpus (a traced pass) is
    checked again only if its outputs differ from one already checked.
    """
    checked: Dict[Tuple[int, int], List[Any]] = {}
    wrong = 0
    for reports, corpus in zip(run.reports, run.corpora):
        for member, report in enumerate(reports):
            if isinstance(report, Exception):
                continue
            outputs = _outputs(corpus.graphs[member], report)
            known = checked.setdefault((id(corpus), member), [])
            if any(outputs == seen for seen in known):
                continue
            failures = _check(corpus, member, report)
            if failures:
                wrong += 1
                run.problems.extend(f"member {member}: {f}" for f in failures)
            else:
                known.append(outputs)
    return wrong
