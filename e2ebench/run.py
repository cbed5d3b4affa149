"""End-to-end benchmark of the ``repro`` library: one workload per run.

    python3 e2ebench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads: ``analyze``, ``serve-write``, ``simulate``
(see ``e2ebench/design.json`` for why each exists, its sizes, rates
and clients).  The library is imported from ``src/`` of the checkout
this file sits in; nothing is built.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it wraps the library's layer boundaries, records spans
in memory, writes them to ``e2ebench/out/spans-<workload>.jsonl`` and
prints the per-layer metrics.  Either way every output is checked
against the library's references outside the timed region, and the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--size toy`` runs the same workloads at toy size (the benchmark's
own tests use it).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from layers import PER_LAYER, layer_metrics
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups before the measurement (the last one is used); ``setup_s``
#: is the median of these and of the one the workload makes after each
#: of its timed units (analyze pass, serve sub-phase, simulate scenario).
#: Spread over the run, they sample the shared host's speed as the
#: operations do; set-ups bunched at the start all see one end of it.
SETUP_REPEATS = 3

#: The end-to-end metrics: (name, unit).
END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_s", "1/s"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _import_paths() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"e2ebench: no library sources under {src}")
    for path in (src, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


#: Workload name -> (module, attribute holding its setup/measure/verify).
WORKLOADS = {
    "analyze": ("wl_analyze", None),
    "serve-write": ("wl_serve", "WRITE"),
    "simulate": ("wl_simulate", None),
}


def _workload(name: str) -> Any:
    module_name, attr = WORKLOADS[name]
    module = importlib.import_module(module_name)
    return module if attr is None else getattr(module, attr)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str = "full",
    spans_path: Optional[str] = None,
) -> Dict[str, Any]:
    """One workload run; returns the result object the CLI prints last."""
    _import_paths()
    from repro.observability.metrics import MetricsRegistry, set_registry

    # A fresh registry: the library's always-on histograms start empty.
    set_registry(MetricsRegistry(f"e2ebench-{workload}"))
    module = _workload(workload)
    setups: List[float] = []

    def set_up() -> Any:
        # Objects alive before the set-up (the benchmark's own records, a
        # live service) are frozen, so the collector does not scan them
        # during it: a set-up costs the same at any point of the run.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        state = module.setup(seed, size)
        setups.append(time.perf_counter() - start)
        gc.unfreeze()
        return state

    def set_up_again() -> None:
        """One more timed set-up, discarded."""
        module.close(set_up())
        # Its reference cycles go now, not in a later timed phase.
        gc.collect()

    for _ in range(SETUP_REPEATS - 1):
        set_up_again()
    state = set_up()
    recorder = Recorder() if trace else None
    try:
        measurement = module.measure(state, seconds, recorder, set_up_again)
        wrong = module.verify(state, measurement)
    finally:
        module.close(state)
    failed = measurement.failed + wrong
    attempted = measurement.attempted
    if recorder is not None:
        values = layer_metrics(recorder)
        values.update(measurement.layer)
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _, _ in PER_LAYER}
        if spans_path is None:
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}.jsonl")
        recorder.write(spans_path)
    else:
        values = {
            "setup_s": np.median(setups),
            "op_p50_ms": np.median(measurement.op_ms),
            "ops_s": measurement.ops_s,
            "success_rate": 1.0 - failed / attempted,
            # Linux reports ru_maxrss in KiB.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    samples = {
        "setup_s": len(setups),
        "op_p50_ms": len(measurement.op_ms),
        "ops_s": attempted,
        "success_rate": attempted,
    }
    return {
        "result": {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "samples": samples,
        "setups": setups,
        "measurement": measurement,
        "recorder": recorder,
        "wrong": wrong,
    }


def _print_report(workload: str, outcome: Dict[str, Any]) -> None:
    result = outcome["result"]
    measurement = outcome["measurement"]
    samples = outcome["samples"]
    print(f"# e2ebench {workload}")
    for name, entry in result["metrics"].items():
        n = samples.get(name)
        count = f"  n={n}" if n is not None else ""
        print(f"  {name:40s} {entry['value']:>14.6g} {entry['unit']}{count}")
    for name, (value, unit, n) in measurement.report.items():
        print(f"  [{name}] {value:.6g} {unit}  n={n}")
    print("# set-ups (s): " + " ".join(f"{t:.4f}" for t in outcome["setups"]))
    print(
        f"# checks: attempted={result['attempted']} failed={result['failed']} "
        f"wrong={outcome['wrong']} correct={result['correct']}"
    )
    for problem in measurement.problems[:20]:
        print(f"#   {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    args = parser.parse_args(argv)
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    _print_report(args.workload, outcome)
    sys.stdout.flush()
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
