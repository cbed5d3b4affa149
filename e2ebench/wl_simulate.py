"""``simulate``: one caller, closed loop, scenarios from generator to row.

Without this workload the generators, the runtime planes, the fault
layer and the DTN simulator would go unmeasured.  One operation is one
step of a scenario; a scenario's time is the sum of its six timed
steps, each drawing its inputs from the scenario's own seed:

1. ``random_connected_graph`` (n≈10⁴, p=4/n) and stale-sink heights;
2. ``vector_full_reversal`` under a drop/delay ``FaultPlan`` with
   retries;
3. ``vector_mis``;
4. ``vector_safety_levels`` on a 12-cube with 1/32 of its nodes
   faulty, under drops;
5. a scalar ``Network`` link reversal at n≈500 under drops plus ten
   scheduled crash-recover events (``lose_state=False``), with a fixed
   round budget.  This reproduces a known livelock: messages in a
   node's inbox when it crashes are discarded with no ledger event and
   no retry, so restarted nodes wait forever on a neighbour's height.
   The step is counted as a failed operation, not avoided;
6. ``SprayAndWait`` and ``Epidemic`` over a ``rate_model_trace``
   (n≈60) under transfer drops.

Each scenario's outputs are checked right after its timed steps, so
only one 10⁴-node graph is alive at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from common import Measurement
from spans import Recorder, installed

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 10_000, "cube": 12, "scalar_n": 500, "crashes": 10,
             "round_budget": 200, "dtn_n": 60, "messages": 30},
    "toy": {"n": 300, "cube": 6, "scalar_n": 60, "crashes": 3,
            "round_budget": 100, "dtn_n": 16, "messages": 8},
    # The set-up's warm-up scenario: large enough that its time is not
    # lost in timer and scheduling noise.
    "warmup": {"n": 3000, "cube": 9, "scalar_n": 150, "crashes": 5,
               "round_budget": 100, "dtn_n": 30, "messages": 15},
}

STEPS = ("generate", "vector_reversal", "vector_mis", "vector_safety",
         "scalar_reversal", "dtn")

#: Scenario index of the set-up's warm-up scenario (never measured).
WARMUP_INDEX = 2**31

#: Crash-recover schedule of step 5: down at round 2, back at round 6.
CRASH_AT, RESTART_AT = 2, 6

#: Seconds of ``--seconds`` per scenario: one full-size scenario took
#: about 2.1 s on a 2-vCPU shared Xeon host, plus 0.3 s for the set-up
#: after it and its checks.
SCENARIO_BUDGET_S = 2.5


@dataclass
class SimulateState:
    seed: int
    size: str


@dataclass
class SimulateRun(Measurement):
    #: per scenario: {step: seconds}
    steps: List[Dict[str, float]] = field(default_factory=list)
    wrong: int = 0


def _stale_heights(graph: Any, rng: np.random.Generator) -> Dict[Any, Tuple[int, int]]:
    """BFS heights toward node 0 with ~1% of the nodes knocked to -1."""
    from repro.layering.link_reversal import initial_heights

    heights = initial_heights(graph, 0)
    candidates = sorted(node for node in graph.nodes() if node != 0)
    count = max(1, graph.num_nodes // 100)
    for k in rng.choice(len(candidates), size=count, replace=False):
        node = candidates[int(k)]
        heights[node] = (-1, heights[node][-1])
    return heights


class _Scenario:
    """The six steps of one scenario, timed one by one."""

    def __init__(self, state: SimulateState, index: int) -> None:
        self.sizes = SIZES[state.size]
        self.rng = np.random.default_rng([state.seed, 31, index])
        self.plan_seed = int(self.rng.integers(2**31))
        self.times: Dict[str, float] = {}
        self.outputs: Dict[str, Any] = {}
        self.failed: List[str] = []

    def timed(self, step: str, fn: Callable[[], Any]) -> None:
        start = time.perf_counter()
        try:
            self.outputs[step] = fn()
        except Exception as error:  # noqa: BLE001 — a failed operation
            self.outputs[step] = error
            self.failed.append(f"{step}: {type(error).__name__}: {error}")
        self.times[step] = time.perf_counter() - start

    def run(self) -> None:
        from repro.datasets import human_contacts
        from repro.dtn.routers import EpidemicRouter, SprayAndWait
        from repro.dtn.simulator import DTNSimulation, MessageSpec
        from repro.faults import (
            CrashEvent, FaultPlan, MessageFaults, NodeCrashFaults, RetryPolicy,
        )
        from repro.graphs import generators
        from repro.graphs.hypercube import binary_addresses
        from repro.layering.link_reversal_distributed import LinkReversalAlgorithm
        from repro.runtime.engine import Network
        from repro.runtime import vector

        sizes, rng, seed = self.sizes, self.rng, self.plan_seed
        n = sizes["n"]
        retry = RetryPolicy(max_retries=12)

        def generate():
            graph = generators.random_connected_graph(n, 4.0 / n, rng)
            return graph, _stale_heights(graph, rng)

        self.timed("generate", generate)
        graph, stale = self.outputs["generate"]
        plan = FaultPlan(seed, [MessageFaults(drop=0.05, delay=0.05)], retry=retry)
        self.timed("vector_reversal",
                   lambda: vector.vector_full_reversal(graph, 0, stale, fault_plan=plan))
        self.timed("vector_mis", lambda: vector.vector_mis(graph))

        dimension = sizes["cube"]
        addresses = list(binary_addresses(dimension))
        picks = rng.choice(len(addresses), size=len(addresses) // 32, replace=False)
        faulty = frozenset(addresses[int(k)] for k in picks)
        self.outputs["faulty"] = faulty
        cube_plan = FaultPlan(seed + 1, [MessageFaults(drop=0.05)], retry=retry)
        self.timed("vector_safety",
                   lambda: vector.vector_safety_levels(dimension, faulty, fault_plan=cube_plan))

        def scalar():
            small = generators.random_connected_graph(
                sizes["scalar_n"], 4.0 / sizes["scalar_n"], rng
            )
            heights = _stale_heights(small, rng)
            others = sorted(node for node in small.nodes() if node != 0)
            crashed = rng.choice(len(others), size=sizes["crashes"], replace=False)
            crashes = tuple(
                CrashEvent(others[int(k)], at=CRASH_AT, restart_at=RESTART_AT,
                           lose_state=False)
                for k in crashed
            )
            crash_plan = FaultPlan(
                seed + 2,
                [MessageFaults(drop=0.05), NodeCrashFaults(schedule=crashes)],
                retry=retry,
            )
            network = Network(
                small,
                lambda node: LinkReversalAlgorithm(
                    is_destination=node == 0, height=heights[node]
                ),
                fault_plan=crash_plan,
            )
            self.outputs["scalar_graph"] = small
            self.outputs["scalar_network"] = network
            return network.run(max_rounds=sizes["round_budget"])

        self.timed("scalar_reversal", scalar)

        def dtn():
            trace, _ = human_contacts.rate_model_trace(
                sizes["dtn_n"], (2, 2, 3), rng, rate0=0.08, decay=0.6, end_time=60.0
            )
            contacts = trace.to_evolving(1.0)
            count = sizes["dtn_n"]
            specs = [
                (int(s), int(d), int(c))
                for s, d, c in zip(
                    rng.integers(count, size=sizes["messages"]),
                    rng.integers(count, size=sizes["messages"]),
                    rng.integers(10, size=sizes["messages"]),
                )
            ]
            runs = []
            for router in (SprayAndWait(8), EpidemicRouter()):
                simulation = DTNSimulation(
                    contacts, router,
                    fault_plan=FaultPlan(seed + 3, [MessageFaults(drop=0.1)]),
                )
                for k, (source, destination, created) in enumerate(specs):
                    simulation.add_message(
                        MessageSpec(f"m{k}", source, destination, created=created, ttl=30)
                    )
                runs.append((simulation, simulation.run()))
            return runs

        self.timed("dtn", dtn)

    # -- checks (untimed) --------------------------------------------------
    def check(self) -> List[str]:
        from repro.labeling.safety import compute_safety_levels

        wrong: List[str] = []
        outputs = self.outputs
        graph, _ = outputs["generate"]
        reversal = outputs["vector_reversal"]
        if not isinstance(reversal, Exception) and _sinks(graph, reversal[1]):
            wrong.append("vector reversal: not destination-oriented")
        mis = outputs["vector_mis"]
        if not isinstance(mis, Exception):
            wrong.extend(_mis_problems(graph, mis[0]))
        safety = outputs["vector_safety"]
        if not isinstance(safety, Exception):
            reference = compute_safety_levels(self.sizes["cube"], outputs["faulty"])
            if safety[0] != reference.levels:
                wrong.append("vector safety levels differ from the fault-free result")
        scalar = outputs["scalar_reversal"]
        if not isinstance(scalar, Exception):
            heights = outputs["scalar_network"].states("height")
            if _sinks(outputs["scalar_graph"], heights):
                wrong.append("scalar reversal: not destination-oriented")
        runs = outputs["dtn"]
        if not isinstance(runs, Exception):
            for simulation, stats in runs:
                wrong.extend(_dtn_consistency(simulation, stats))
        return wrong


def _sinks(graph: Any, heights: Dict[Any, Tuple[int, ...]]) -> List[Any]:
    """Nodes other than the destination 0 with no lower neighbour.

    Links point from the higher height to the lower, and heights are
    totally ordered, so the orientation is acyclic; it is destination-
    oriented exactly when the destination is its only sink.
    """
    return [
        node for node in graph.nodes()
        if node != 0 and all(heights[nb] > heights[node] for nb in graph.neighbors(node))
    ]


def _mis_problems(graph: Any, members: Any) -> List[str]:
    """Independence and maximality in one O(n + m) pass over the edges."""
    problems: List[str] = []
    if any(u in members and v in members for u, v in graph.edges()):
        problems.append("vector MIS: two members are adjacent")
    if any(
        node not in members and not any(nb in members for nb in graph.neighbors(node))
        for node in graph.nodes()
    ):
        problems.append("vector MIS: a non-member has no member neighbour")
    return problems


def _dtn_consistency(simulation: Any, stats: Any) -> List[str]:
    """Delivery stats against the message states, counters and ledger."""
    problems: List[str] = []
    name = simulation.router.name
    delivered = [m for m in simulation.messages.values() if m.delivered]
    if stats.created != len(simulation.messages) or stats.delivered != len(delivered):
        problems.append(f"dtn {name}: stats disagree with message states")
    if simulation.metrics.counter("repro.dtn.delivered").value != stats.delivered:
        problems.append(f"dtn {name}: delivered counter disagrees with stats")
    for message in delivered:
        latency = message.delivered_at - message.spec.created
        if not 0 <= latency <= message.spec.ttl:
            problems.append(f"dtn {name}: {message.spec.identifier} outside its TTL")
    counts = simulation.faults.summary()
    for kind, count in counts.items():
        if simulation.metrics.counter(f"repro.faults.{kind}").value != count:
            problems.append(f"dtn {name}: ledger and counter disagree on {kind}")
    for event in simulation.faults.ledger.events:
        detail = dict(event.detail)
        if "message" in detail and detail["message"] not in simulation.messages:
            problems.append(f"dtn {name}: ledger names unknown message {detail['message']}")
    if sum(counts.values()) != len(simulation.faults.ledger):
        problems.append(f"dtn {name}: ledger counts do not add up")
    return problems


def setup(seed: int, size: str) -> SimulateState:
    """Warm every step's lazy imports and first calls on a fixed small scenario."""
    state = SimulateState(seed, size)
    if size != "toy":
        _Scenario(SimulateState(0, "warmup"), WARMUP_INDEX).run()
    return state


def close(state: SimulateState) -> None:
    """Nothing outlives a scenario."""


def _run_scenario(
    state: SimulateState, index: int, measured: SimulateRun, recorder: Optional[Recorder]
) -> float:
    """Run scenario ``index`` (its root span covers only the timed steps), then check it."""
    from layers import TARGETS

    scenario = _Scenario(state, index)
    if recorder is None:
        scenario.run()
    else:
        with installed(TARGETS, recorder), recorder.root("simulate.scenario"):
            scenario.run()
    measured.steps.append(dict(scenario.times))
    measured.failed += len(scenario.failed)
    measured.problems.extend(f"scenario {index}: {f}" for f in scenario.failed)
    wrong = scenario.check()
    measured.wrong += len(wrong)
    measured.problems.extend(f"scenario {index}: {w}" for w in wrong)
    return sum(scenario.times.values())


def scenarios_for(seconds: float) -> int:
    """Scenarios a run makes: fixed by ``--seconds``, at least two."""
    return max(2, round(seconds / SCENARIO_BUDGET_S))


def measure(
    state: SimulateState,
    seconds: float,
    recorder: Optional[Recorder],
    set_up_again: Callable[[], None] = lambda: None,
) -> SimulateRun:
    """``scenarios_for(seconds)`` scenarios, each followed by one more set-up.

    The count is fixed by the arguments, not by the clock, so the same
    seed always attempts the same operations and fails the same ones.
    A traced run runs half as many scenarios twice each, untraced and
    then traced; the median ratio of the pairs gives
    ``bench.trace_overhead``.
    """
    measured = SimulateRun()
    plain: List[float] = []
    ratios: List[float] = []
    count = scenarios_for(seconds)
    for index in range(count if recorder is None else (count + 1) // 2):
        plain.append(_run_scenario(state, index, measured, None))
        if recorder is not None:
            ratios.append(_run_scenario(state, index, measured, recorder) / plain[-1])
        set_up_again()
    measured.op_ms = [1000.0 * t for t in plain]
    measured.attempted = len(STEPS) * len(measured.steps)
    measured.ops_s = len(STEPS) * len(plain) / sum(plain)
    if ratios:
        measured.layer["bench.trace_overhead"] = np.median(ratios) - 1.0
        measured.layer["graphs.generate.peak_mb"] = _generator_peak_mb(state)
    measured.report["scenario_s"] = (np.median(plain), "s", len(plain))
    measured.report["scenario_max_s"] = (max(plain), "s", len(plain))
    for step in STEPS:
        measured.report[f"step.{step}_s"] = (
            np.median([times[step] for times in measured.steps]), "s", len(measured.steps)
        )
    return measured


def _generator_peak_mb(state: SimulateState) -> float:
    """Peak traced memory of one step-1 generator call, outside any span.

    The process high-water mark is set by the first scenario, so it
    cannot attribute the peak; tracemalloc sees NumPy's buffers too.
    """
    import tracemalloc

    from repro.graphs import generators

    n = SIZES[state.size]["n"]
    tracemalloc.start()
    try:
        generators.random_connected_graph(n, 4.0 / n, np.random.default_rng(state.seed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def verify(state: SimulateState, measured: SimulateRun) -> int:
    """Scenarios are checked as they finish (see module doc)."""
    return measured.wrong
