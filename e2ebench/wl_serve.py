"""``serve-write``: the async gateway under load.

It runs one asyncio loop in one thread against a
:class:`~repro.serving.gateway.ServingGateway` over a
:class:`~repro.serving.state.GraphService` on a
``random_connected_graph`` and alternates ``CYCLES`` times between

1. an open loop at a fixed offered rate (Poisson arrivals from the
   seed).  On every turn the generator submits each request whose due
   time has passed, then yields to the event loop; a request's latency
   runs from its due time to its answer, so a stall is charged to every
   request it delays.  The generator polls rather than sleeps until the
   next due time: an idle thread lets the shared host park the vCPU,
   and waking it (with cold caches) added about 1 ms to the median
   request on a 2-vCPU VM, more while the host was busy.
   ``op_p50_ms`` and the printed tail percentiles come from these
   sub-phases;
2. a closed-loop saturation sub-phase: a fixed number of coroutine
   clients, each sending its next request when the last is answered.
   ``ops_s`` is their throughput.

The traffic is ~80% mutations from four writer lanes (per-edge churn
plus ``apply_batch`` bursts) and ~20% queries that force repair:
distances from a small hot source set (patch-aware BFS), NSF level,
landmark label, PageRank and MIS membership, so write coalescing, the
sequence barrier, query coalescing and lazy index repair all run side
by side.  (A read-mostly ``serve-read`` variant of the same gateway
was dropped: on the shared 2-vCPU host its figures followed the
host's speed too closely to gate, see ``e2ebench/design.json``.)

Checks, all after the timed phases: every write's acknowledged
outcome against a sequence-order replay on a dict-of-sets mirror; the
final CSR, NSF levels, landmark labels and MIS exact against the
references and PageRank within 1e-8; and every query answer against
an untimed sequential replay of the same script on a fresh service.
A query may see writes sequenced after it that were coalesced into
its flush.  The gateway applies writes in sequence order, so what a
query saw is a prefix of the write script: the benchmark's event loop
hands the gateway futures that note ``mutations_applied`` as they
resolve, and each query is checked against the replay at exactly that
prefix — which must also cover every write submitted before it.

``ops_s`` is the median over the half-second windows of the
saturation sub-phases, so a short stall of the shared host moves one
window, not the run's figure.

Set-up covers only the library's work: the graph generator, landmark
selection, the service and its cold index builds, the gateway start.
The request script is the benchmark's own and is built outside it, in
seeded blocks of ``BLOCK`` requests, topped up between sub-phases to
what the next one can use.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import Measurement
from spans import Recorder, installed

QUERY_KINDS = ("distance", "nsf_level", "gateway_label", "pagerank_score", "mis_member")
WRITE_KINDS = ("insert", "delete", "burst")

SIZES: Dict[str, Dict[str, Any]] = {
    "full": {"n": 2000, "degree": 4.0, "hot": 8, "pool": 256, "burst": 64,
             "clients": 64, "landmarks": 4},
    "toy": {"n": 80, "degree": 4.0, "hot": 3, "pool": 32, "burst": 8,
            "clients": 4, "landmarks": 2},
}

#: The run alternates CYCLES open-loop and saturation sub-phases, so
#: both figures sample the whole run: the shared host's speed drifts
#: over seconds, and one contiguous phase would see one end of it.
CYCLES = 5

#: Share of ``--seconds`` spent in open-loop sub-phases; the rest is
#: saturation (each sub-phase split in halves in a traced run).
OPEN_SHARE = 0.7

#: Requests generated per seeded block of the script.
BLOCK = 1024

#: Rate (requests/s) the script is topped up for before the first
#: saturation sub-phase: about three times the highest saturation
#: throughput measured at these sizes.  Later sub-phases get
#: ``HEADROOM`` times the best sub-phase rate seen so far.
FIRST_SATURATION_RATE = 10_000.0
HEADROOM = 2.0

#: Window of the saturation phase's throughput median (seconds).
WINDOW_S = 0.5

#: Request phases.
UNSENT, OPEN, SATURATION, SATURATION_TRACED = range(4)

#: Live and replayed PageRank each lie within 1e-8 of the cold kernel.
PAGERANK_ATOL = 2e-8

#: Per-request records: (ServeState field, fill value, dtype).
RECORDS = (
    ("due", math.nan, float),
    ("done", math.nan, float),
    ("k_lo", 0, np.int64),
    ("prefix", -1, np.int64),
    ("phase", UNSENT, np.int8),
)


@dataclass(frozen=True)
class ServeSpec:
    name: str
    #: Offered open-loop rate (requests/s) per size.
    rates: Dict[str, float]
    #: (kind, weight) over QUERY_KINDS + ("edge", "burst").
    mix: Tuple[Tuple[str, float], ...]
    writers: int


@dataclass
class ServeState:
    seed: int
    edges: List[Tuple[int, int]]
    nodes: List[int]
    landmarks: List[int]
    loop: asyncio.AbstractEventLoop
    service: Any
    gateway: Any
    size: str
    clients: int
    requests: Optional["_RequestSource"] = None
    script: List[Tuple[Any, ...]] = field(default_factory=list)
    #: Arrival offsets (s) of each cycle's open-loop sub-phase.
    offsets: List[np.ndarray] = field(default_factory=list)
    # per-request records (RECORDS), indexed like ``script``; ``phase``
    # holds UNSENT, OPEN, SATURATION or SATURATION_TRACED
    due: np.ndarray = field(default=None)
    done: np.ndarray = field(default=None)
    answer: List[Any] = field(default_factory=list)
    k_lo: np.ndarray = field(default=None)
    prefix: np.ndarray = field(default=None)
    phase: np.ndarray = field(default=None)
    cursor: int = 0
    writes_submitted: int = 0
    edge_ops: int = 0
    outstanding: int = 0
    #: Best request rate of the saturation sub-phases so far.
    best_rate: float = 0.0
    #: Saturation sub-phases that ran out of script.
    exhausted: int = 0


@dataclass
class ServeRun(Measurement):
    offered_rate: float = 0.0


def _graph(edges: Sequence[Tuple[int, int]], nodes: Sequence[int]):
    from repro.graphs.graph import Graph

    graph = Graph()
    for node in nodes:
        graph.add_node(node)
    for u, v in edges:
        graph.add_edge(u, v)
    return graph


class _RequestSource:
    """The seeded request script, one block of ``BLOCK`` requests at a time.

    Writes toggle pairs of a bounded churn pool (half seed edges, half
    fresh pairs), generated against a simulated presence set, so every
    write is valid at its turn and the touched region stays bounded
    while the operation count grows.  Block ``b`` draws from its own
    generator, so the stream does not depend on how it is cut.
    """

    def __init__(self, seed: int, spec: ServeSpec, sizes: Dict[str, Any],
                 edges: List[Tuple[int, int]]) -> None:
        rng = np.random.default_rng([seed, 23, 2])
        n = sizes["n"]
        self.seed = seed
        self.spec = spec
        self.n = n
        self.burst = sizes["burst"]
        self.present = {(min(u, v), max(u, v)) for u, v in edges}
        half = sizes["pool"] // 2
        pool = [tuple(sorted(edges[int(k)])) for k in rng.choice(len(edges), half, replace=False)]
        seen = set(pool)
        while len(pool) < sizes["pool"]:
            u, v = (int(x) for x in rng.integers(n, size=2))
            pair = (min(u, v), max(u, v))
            if u != v and pair not in self.present and pair not in seen:
                seen.add(pair)
                pool.append(pair)
        self.pool = pool
        self.hot = [int(x) for x in rng.choice(n, sizes["hot"], replace=False)]
        self.kinds = [kind for kind, _ in spec.mix]
        weights = np.array([weight for _, weight in spec.mix], dtype=float)
        self.p = weights / weights.sum()
        self.blocks = 0

    def block(self) -> List[Tuple[Any, ...]]:
        """The next ``BLOCK`` requests."""
        rng = np.random.default_rng([self.seed, 23, 3, self.blocks])
        self.blocks += 1
        draws = zip(
            rng.choice(len(self.kinds), size=BLOCK, p=self.p).tolist(),
            rng.integers(self.spec.writers, size=BLOCK).tolist(),
            rng.integers(len(self.hot), size=BLOCK).tolist(),
            rng.integers(self.n, size=BLOCK).tolist(),
            rng.integers(len(self.pool), size=BLOCK).tolist(),
        )
        present, pool = self.present, self.pool
        script: List[Tuple[Any, ...]] = []
        for pick, lane, hot, node, k in draws:
            kind = self.kinds[pick]
            if kind == "distance":
                script.append(("distance", self.hot[hot], node))
            elif kind in QUERY_KINDS:
                script.append((kind, node))
            elif kind == "edge":
                pair = pool[k]
                if pair in present:
                    present.discard(pair)
                    script.append(("delete", pair[0], pair[1], lane))
                else:
                    present.add(pair)
                    script.append(("insert", pair[0], pair[1], lane))
            else:
                inserts, deletes = [], []
                for k in rng.choice(len(pool), size=self.burst, replace=False).tolist():
                    pair = pool[k]
                    if pair in present:
                        present.discard(pair)
                        deletes.append(pair)
                    else:
                        present.add(pair)
                        inserts.append(pair)
                script.append(("burst", inserts, deletes, lane))
        return script


class ServeWorkload:
    """A serving workload: a traffic mix and its offered rate."""

    def __init__(self, spec: ServeSpec) -> None:
        self.spec = spec

    # -- set-up ------------------------------------------------------------
    def setup(self, seed: int, size: str) -> ServeState:
        """Graph, landmarks, service, cold index builds, gateway start."""
        from repro.graphs import generators
        from repro.labeling.landmarks import select_landmarks
        from repro.serving import GraphService, ServingGateway

        sizes = SIZES[size]
        n = sizes["n"]
        graph = generators.random_connected_graph(
            n, sizes["degree"] / n, np.random.default_rng([seed, 23])
        )
        landmarks = select_landmarks(graph, sizes["landmarks"])
        service = GraphService(graph, landmarks=landmarks)
        nodes = list(graph.nodes())
        probe = nodes[0]
        service.nsf_level(probe)
        service.gateway_label(probe)
        service.pagerank_score(probe)
        service.mis_member(probe)
        loop = _StampingLoop()
        gateway = loop.run_until_complete(_start(ServingGateway, service))
        return ServeState(
            seed=seed, edges=[tuple(edge) for edge in graph.edges()], nodes=nodes,
            landmarks=landmarks, loop=loop, service=service, gateway=gateway,
            size=size, clients=sizes["clients"],
        )

    def prepare(self, state: ServeState, seconds: float) -> None:
        """Arrival times, the request source and empty records (untimed)."""
        rate = self.spec.rates[state.size]
        rng = np.random.default_rng([state.seed, 23, 1])
        cycle_s = seconds * OPEN_SHARE / CYCLES
        state.offsets = []
        for _ in range(CYCLES):
            gaps = rng.exponential(1.0 / rate, size=int(rate * cycle_s * 1.5) + 16)
            arrivals = np.cumsum(gaps)
            state.offsets.append(arrivals[arrivals < cycle_s])
        state.requests = _RequestSource(state.seed, self.spec, SIZES[state.size], state.edges)
        for name, _, dtype in RECORDS:
            setattr(state, name, np.zeros(0, dtype=dtype))
        state.loop.on_answer = functools.partial(_stamp, state)

    def _top_up(self, state: ServeState, count: int) -> None:
        """Make at least ``count`` requests of the script unsent (untimed)."""
        script = state.script
        while len(script) - state.cursor < count:
            script += state.requests.block()
        grown = len(script) - len(state.answer)
        # Records live in arrays, so the benchmark's own bookkeeping adds
        # (almost) nothing to what the garbage collector scans.
        for name, fill, dtype in RECORDS:
            setattr(state, name, np.concatenate([getattr(state, name), np.full(grown, fill, dtype)]))
        state.answer += [None] * grown

    def close(self, state: ServeState) -> None:
        state.loop.run_until_complete(state.gateway.stop())
        state.loop.close()

    # -- requests ----------------------------------------------------------
    def _send(self, state: ServeState, i: int) -> Any:
        """Submit request ``i``; returns its awaitable."""
        request = state.script[i]
        kind = request[0]
        gateway = state.gateway
        state.outstanding += 1
        if kind in QUERY_KINDS:
            return state.loop.create_task(self._query(state, i))
        _, a, b, lane = request
        if kind == "insert":
            future = gateway.insert_edge(a, b, writer=lane)
            state.edge_ops += 1
        elif kind == "delete":
            future = gateway.delete_edge(a, b, writer=lane)
            state.edge_ops += 1
        else:
            future = gateway.apply_batch(a, b, writer=lane)
            state.edge_ops += len(a) + len(b)
        state.writes_submitted += 1
        future.add_done_callback(functools.partial(_write_done, state, i))
        return future

    async def _query(self, state: ServeState, i: int) -> None:
        kind, *args = state.script[i]
        method = getattr(state.gateway, kind)
        # The gateway sequences the query inside this synchronous step,
        # so every write counted here precedes it.
        state.k_lo[i] = state.writes_submitted
        token = _REQUEST.set(i)
        try:
            answer = await method(*args)
        except Exception as error:  # noqa: BLE001 — recorded, counted as failed
            answer = error
        finally:
            _REQUEST.reset(token)
        state.done[i] = time.monotonic()
        state.answer[i] = answer
        state.outstanding -= 1

    # -- phases ------------------------------------------------------------
    async def _open_phase(self, state: ServeState, cycle: int) -> Tuple[List[float], int]:
        """One fixed-rate open-loop sub-phase; returns (generator lateness s, backlog)."""
        offsets = state.offsets[cycle]
        first = state.cursor
        end = first + len(offsets)
        lateness: List[float] = []
        pending: List[Any] = []
        start = time.monotonic() + 0.001
        i = first
        while i < end:
            now = time.monotonic()
            while i < end and start + offsets[i - first] <= now:
                offset = offsets[i - first]
                due = start + offset
                state.due[i] = due
                state.phase[i] = OPEN
                lateness.append(now - due)
                pending.append(self._send(state, i))
                i += 1
            if i < end:
                await asyncio.sleep(0)
        state.cursor = end
        backlog = state.outstanding
        await asyncio.gather(*pending, return_exceptions=True)
        return lateness, backlog

    async def _saturation(self, state: ServeState, seconds: float, phase: int) -> List[float]:
        """Closed loop with ``state.clients`` clients; returns the rate
        (requests/s) answered in each ``WINDOW_S`` window (one window
        when the sub-phase is shorter)."""
        start = time.monotonic()
        deadline = start + seconds
        first = state.cursor

        async def client() -> None:
            while state.cursor < len(state.script) and time.monotonic() < deadline:
                i = state.cursor
                state.cursor += 1
                now = time.monotonic()
                state.due[i] = now
                state.phase[i] = phase
                awaitable = self._send(state, i)
                try:
                    await awaitable
                except Exception:  # noqa: BLE001 — recorded by the done callback
                    pass

        await asyncio.gather(*(client() for _ in range(state.clients)))
        elapsed = time.monotonic() - start
        state.best_rate = max(state.best_rate, (state.cursor - first) / elapsed)
        done = state.done[first:state.cursor] - start
        width = min(WINDOW_S, seconds)
        windows = int(seconds / width)
        if state.cursor == len(state.script):
            # Out of script before the deadline: keep the windows it filled.
            state.exhausted += 1
            windows = min(windows, int(elapsed / width))
            if not windows:
                return []
        counts, _ = np.histogram(done, bins=windows, range=(0.0, windows * width))
        return list(counts / width)

    def _saturation_need(self, state: ServeState, seconds: float) -> int:
        """Requests a saturation sub-phase of ``seconds`` may use."""
        rate = HEADROOM * state.best_rate if state.best_rate else FIRST_SATURATION_RATE
        return int(rate * seconds) + state.clients

    # -- measurement -------------------------------------------------------
    def measure(
        self,
        state: ServeState,
        seconds: float,
        recorder: Optional[Recorder],
        set_up_again: Callable[[], None] = lambda: None,
    ) -> ServeRun:
        """CYCLES rounds of an open-loop then a saturation sub-phase.

        In a traced run each round's open-loop sub-phase and the first
        half of its saturation sub-phase form one root span; the second
        half runs untraced, and the two halves' throughputs give
        ``bench.trace_overhead``.  One more set-up follows each
        open-loop sub-phase (in a traced run, each root span) and each
        saturation sub-phase.
        """
        from layers import TARGETS

        measured = ServeRun(offered_rate=self.spec.rates[state.size])
        self.prepare(state, seconds)
        run_loop = state.loop.run_until_complete
        saturation_s = seconds * (1.0 - OPEN_SHARE) / CYCLES
        lateness: List[float] = []
        backlogs: List[int] = []
        windows: List[float] = []
        traced: List[float] = []
        totals = [0] * 5
        for cycle in range(CYCLES):
            opened = len(state.offsets[cycle])
            if recorder is None:
                self._top_up(state, opened)
                lag, backlog = run_loop(self._open_phase(state, cycle))
                set_up_again()
                self._top_up(state, self._saturation_need(state, saturation_s))
                windows += run_loop(self._saturation(state, saturation_s, SATURATION))
            else:
                # The script grows before the root span, not inside it.
                self._top_up(state, opened + self._saturation_need(state, saturation_s / 2))
                before = _counters(state)
                with installed(TARGETS, recorder), recorder.root("serve.cycle"):
                    lag, backlog = run_loop(self._open_phase(state, cycle))
                    traced += run_loop(
                        self._saturation(state, saturation_s / 2, SATURATION_TRACED)
                    )
                totals = [t + b - a for t, a, b in zip(totals, before, _counters(state))]
                set_up_again()
                self._top_up(state, self._saturation_need(state, saturation_s / 2))
                windows += run_loop(self._saturation(state, saturation_s / 2, SATURATION))
            lateness += lag
            backlogs.append(backlog)
            set_up_again()
        measured.ops_s = np.median(windows)
        if recorder is not None:
            requests, edge_ops, batches, sweeps, distances = totals
            own = recorder.self_times()
            measured.layer.update({
                "serving.gateway.self_s": sum(own[r] for r in recorder.roots) / CYCLES,
                "serving.batch_size_mean": requests / max(batches, 1),
                "serving.sweeps_per_distance": sweeps / max(distances, 1),
                "serving.has_edge.calls_per_write": (
                    recorder.counts["serving.has_edge"] / max(edge_ops, 1)
                ),
                "bench.trace_overhead": np.median(windows) / np.median(traced) - 1.0,
            })
        measured.layer["bench.gen_lag_p99_ms"] = np.percentile([1000.0 * x for x in lateness], 99)
        measured.layer["bench.backlog_end"] = float(max(backlogs))
        self._summarize(state, measured)
        return measured

    def _summarize(self, state: ServeState, measured: ServeRun) -> None:
        issued = state.cursor
        latencies: Dict[str, List[float]] = {"query": [], "write": []}
        failed = 0
        for i in range(issued):
            answer = state.answer[i]
            if isinstance(answer, Exception) or math.isnan(state.done[i]):
                failed += 1
                continue
            if state.phase[i] == OPEN:
                kind = "query" if state.script[i][0] in QUERY_KINDS else "write"
                latencies[kind].append(1000.0 * (state.done[i] - state.due[i]))
        measured.op_ms = latencies["query"] + latencies["write"]
        measured.attempted = issued
        measured.failed = failed
        for kind, values in latencies.items():
            if values:
                measured.report[f"{kind}_p50_ms"] = (np.median(values), "ms", len(values))
                measured.report[f"{kind}_p99_ms"] = (np.percentile(values, 99), "ms", len(values))
        for q in (95, 99):
            measured.report[f"op_p{q}_ms"] = (
                np.percentile(measured.op_ms, q), "ms", len(measured.op_ms)
            )
        opened = int(np.count_nonzero(state.phase == OPEN))
        measured.report["offered_rate"] = (measured.offered_rate, "1/s", opened)
        measured.report["saturation_ops_s"] = (measured.ops_s, "1/s", issued - opened)
        measured.report["gen_lag_p99_ms"] = (measured.layer["bench.gen_lag_p99_ms"], "ms", opened)
        measured.report["backlog_end"] = (measured.layer["bench.backlog_end"], "count", CYCLES)
        measured.report["script_exhausted"] = (state.exhausted, "count", CYCLES)

    # -- checks ------------------------------------------------------------
    def verify(self, state: ServeState, measured: ServeRun) -> int:
        issued = range(state.cursor)
        writes = [i for i in issued if state.script[i][0] in WRITE_KINDS]
        wrong = self._check_writes(state, writes, measured)
        wrong += self._check_state(state, writes, measured)
        wrong += self._check_queries(state, writes, measured)
        return wrong

    def _check_writes(self, state: ServeState, writes: List[int], measured: ServeRun) -> int:
        """Acknowledged outcomes against a sequence-order mirror replay."""
        from repro.errors import EdgeNotFoundError

        present = {(min(u, v), max(u, v)) for u, v in state.edges}
        wrong = 0
        for i in writes:
            kind, a, b, _ = state.script[i]
            if kind == "burst":
                changed = 0
                for u, v in a:
                    pair = (min(u, v), max(u, v))
                    changed += pair not in present
                    present.add(pair)
                for u, v in b:
                    changed += 1
                    present.discard((min(u, v), max(u, v)))
                expected: Any = {"ops": len(a) + len(b), "changed": changed}
            else:
                pair = (min(a, b), max(a, b))
                if kind == "insert":
                    expected = pair not in present
                    present.add(pair)
                elif pair in present:
                    expected = None
                    present.discard(pair)
                else:
                    expected = EdgeNotFoundError
            answer = state.answer[i]
            if isinstance(answer, Exception) and expected is not EdgeNotFoundError:
                continue  # a failed request, counted by _summarize
            if expected is EdgeNotFoundError:
                ok = isinstance(answer, EdgeNotFoundError)
            else:
                ok = answer == expected
            if not ok:
                wrong += 1
                measured.problems.append(f"write {i} {kind}: got {answer!r}, expected {expected!r}")
        return wrong

    def _check_state(self, state: ServeState, writes: List[int], measured: ServeRun) -> int:
        """Final CSR and indexes exact (PageRank within 1e-8) vs references."""
        from repro.graphs.csr import FrozenGraph
        from repro.labeling.landmarks import distance_gateway_labels_reference
        from repro.labeling.mis import compute_mis
        from repro.layering.nsf import nsf_levels_reference

        mirror = _graph(state.edges, state.nodes)
        for i in writes:
            kind, a, b, _ = state.script[i]
            inserts, deletes = (a, b) if kind == "burst" else (
                ([(a, b)], []) if kind == "insert" else ([], [(a, b)])
            )
            for u, v in inserts:
                if not mirror.has_edge(u, v):
                    mirror.add_edge(u, v)
            for u, v in deletes:
                if mirror.has_edge(u, v):
                    mirror.remove_edge(u, v)
        service = state.service
        reference = FrozenGraph(mirror)
        snapshot = service.snapshot()
        ref_scores, _ = reference.pagerank_scores()
        checks = {
            "csr": snapshot.node_list == reference.node_list
            and np.array_equal(snapshot.indptr, reference.indptr)
            and np.array_equal(snapshot.indices, reference.indices),
            "nsf": service.nsf_levels_map() == nsf_levels_reference(mirror),
            "labels": service.gateway_labels_map()
            == distance_gateway_labels_reference(mirror, state.landmarks),
            "mis": service.mis_set() == compute_mis(mirror)[0],
            "pagerank": bool(np.allclose(service.pagerank_vector(), ref_scores, rtol=0, atol=1e-8)),
        }
        failed = [name for name, ok in checks.items() if not ok]
        measured.problems.extend(f"final state: {name} differs from reference" for name in failed)
        return len(failed)

    def _check_queries(self, state: ServeState, writes: List[int], measured: ServeRun) -> int:
        """Every answered query against a sequential replay (see module doc).

        Distances are recomputed on a dict-of-sets mirror by
        bidirectional BFS; the index queries on a fresh service that
        replays the same writes in sequence order.
        """
        from repro.serving import GraphService

        replay = GraphService(_graph(state.edges, state.nodes), landmarks=state.landmarks)
        adjacency: Dict[int, set] = {node: set() for node in state.nodes}
        for u, v in state.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        answered = [
            i for i in range(state.cursor)
            if state.script[i][0] in QUERY_KINDS
            and not isinstance(state.answer[i], Exception)
            and not math.isnan(state.done[i])
        ]
        queries = sorted((i for i in answered if state.prefix[i] >= 0), key=lambda i: state.prefix[i])
        wrong = len(answered) - len(queries)
        if wrong:
            measured.problems.append(f"{wrong} answered queries without a recorded write prefix")
        head = 0
        for k in range(len(writes) + 1):
            answers: Dict[Tuple[Any, ...], Any] = {}  # replay answers at prefix k
            while head < len(queries) and state.prefix[queries[head]] == k:
                i = queries[head]
                head += 1
                request = state.script[i]
                if request not in answers:
                    kind, *args = request
                    if kind == "distance":
                        answers[request] = _hop_distance(adjacency, *args)
                    else:
                        answers[request] = getattr(replay, kind)(*args)
                if k < state.k_lo[i]:
                    problem = f"answered before write {k} of {state.k_lo[i]} it follows"
                elif not _same(request[0], answers[request], state.answer[i]):
                    problem = f"got {state.answer[i]!r}, replay says {answers[request]!r}"
                else:
                    continue
                wrong += 1
                measured.problems.append(f"query {i} {request} at write {k}: {problem}")
            if k < len(writes):
                request = state.script[writes[k]]
                _replay_write(replay, request)
                for (u, v), present in _edge_effects(request):
                    if present:
                        adjacency[u].add(v)
                        adjacency[v].add(u)
                    else:
                        adjacency[u].discard(v)
                        adjacency[v].discard(u)
        for i in queries[head:]:
            wrong += 1
            measured.problems.append(f"query {i}: no write prefix {state.prefix[i]} was ever applied")
        return wrong


def _edge_effects(request: Tuple[Any, ...]) -> List[Tuple[Tuple[int, int], bool]]:
    """(pair, present afterwards) for each edge a write touches, in order."""
    kind, a, b, _ = request
    if kind == "burst":
        return [(pair, True) for pair in a] + [(pair, False) for pair in b]
    return [((a, b), kind == "insert")]


def _hop_distance(adjacency: Dict[int, set], u: int, v: int) -> Optional[int]:
    """Exact hop distance by bidirectional BFS; None when disconnected.

    Each round expands the smaller frontier by one whole layer.  A node
    reached by both searches is detected when the second one reaches
    it, so the first layer that meets the other search gives the
    distance as the least ``depth + 1 + other depth`` over that layer.
    """
    if u == v:
        return 0
    depth = ({u: 0}, {v: 0})
    fronts = [[u], [v]]
    while fronts[0] and fronts[1]:
        side = 0 if len(fronts[0]) <= len(fronts[1]) else 1
        mine, other = depth[side], depth[1 - side]
        best: Optional[int] = None
        grown: List[int] = []
        for x in fronts[side]:
            step = mine[x] + 1
            for y in adjacency[x]:
                if y in other:
                    length = step + other[y]
                    if best is None or length < best:
                        best = length
                if y not in mine:
                    mine[y] = step
                    grown.append(y)
        if best is not None:
            return best
        fronts[side] = grown
    return None


def _replay_write(service: Any, request: Tuple[Any, ...]) -> None:
    kind, a, b, _ = request
    if kind == "insert":
        service.insert_edge(a, b)
    elif kind == "delete":
        service.delete_edge(a, b)
    else:
        service.apply_batch(a, b)


def _same(kind: str, expected: Any, answer: Any) -> bool:
    if kind == "pagerank_score":
        return isinstance(answer, float) and abs(answer - expected) <= PAGERANK_ATOL
    return answer == expected


def _write_done(state: ServeState, i: int, future: "asyncio.Future") -> None:
    state.done[i] = time.monotonic()
    error = future.exception()
    state.answer[i] = error if error is not None else future.result()
    state.outstanding -= 1


def _counters(state: ServeState) -> Tuple[int, ...]:
    """(requests, edge ops, batches, sweeps, distance queries) so far."""
    from repro.observability.metrics import get_registry
    from repro.observability.telemetry import SERVING_QUERY_METRIC, SERVING_SWEEP_METRIC

    registry = get_registry()
    sweeps = registry.get(SERVING_SWEEP_METRIC)
    distances = registry.get(SERVING_QUERY_METRIC, {"kind": "distance"})
    return (
        state.cursor,
        state.edge_ops,
        state.gateway.batches_flushed,
        sweeps.value if sweeps is not None else 0,
        distances.value if distances is not None else 0,
    )


async def _start(gateway_cls: Any, service: Any) -> Any:
    gateway = gateway_cls(service)
    gateway.start()
    return gateway


#: The request whose future the running task creates (None outside one).
_REQUEST: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "e2ebench_request", default=None
)


class _AnswerFuture(asyncio.Future):
    """A query's answer future; reports its request as it resolves."""

    def __init__(self, *, loop: asyncio.AbstractEventLoop, request: int, on_answer: Any) -> None:
        super().__init__(loop=loop)
        self._request = request
        self._on_answer = on_answer

    def set_result(self, result: Any) -> None:
        self._on_answer(self._request)
        super().set_result(result)


class _StampingLoop(asyncio.SelectorEventLoop):
    """The benchmark's event loop: futures created on behalf of a query
    call ``on_answer(request)`` when the gateway resolves them."""

    on_answer: Any = None

    def create_future(self) -> "asyncio.Future":
        request = _REQUEST.get()
        if request is None or self.on_answer is None:
            return super().create_future()
        return _AnswerFuture(loop=self, request=request, on_answer=self.on_answer)


def _stamp(state: ServeState, i: int) -> None:
    """Note the write prefix the gateway had applied when it answered ``i``."""
    state.prefix[i] = state.gateway.mutations_applied


WRITE = ServeWorkload(
    ServeSpec(
        name="serve-write",
        rates={"full": 400.0, "toy": 100.0},
        mix=(
            ("edge", 0.76),
            ("burst", 0.04),
            ("distance", 0.04),
            ("nsf_level", 0.04),
            ("gateway_label", 0.04),
            ("pagerank_score", 0.04),
            ("mis_member", 0.04),
        ),
        writers=4,
    )
)
