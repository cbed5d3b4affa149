"""Open-loop capacity probe behind the serve workload's offered rate.

    python3 e2ebench/capacity.py --rates 600,900,1200 --seconds 6

Runs only the open-loop sub-phases of ``serve-write``, back to back,
at each rate and prints the achieved rate, latency percentiles and the
largest backlog left when the generator stops.  The capacity is the
highest rate whose p99 stays within 20 ms with no growing backlog;
``e2ebench/design.json`` records the measurements and the offered
rates set from them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

import run


def probe(rate: float, seed: int, seconds: float) -> dict:
    run._import_paths()
    import wl_serve
    from repro.observability.metrics import MetricsRegistry, set_registry

    set_registry(MetricsRegistry("e2ebench-capacity"))
    base = run._workload("serve-write")
    spec = dataclasses.replace(base.spec, rates={**base.spec.rates, "full": rate})
    probe_workload = wl_serve.ServeWorkload(spec)
    # Prepare a run whose open-loop sub-phases add up to ``seconds``,
    # then run them back to back with no saturation in between.
    state = probe_workload.setup(seed, "full")
    probe_workload.prepare(state, seconds / wl_serve.OPEN_SHARE)
    lateness: list = []
    backlog = 0
    try:
        for cycle in range(wl_serve.CYCLES):
            probe_workload._top_up(state, len(state.offsets[cycle]))
            lag, left = state.loop.run_until_complete(probe_workload._open_phase(state, cycle))
            lateness += lag
            backlog = max(backlog, left)
    finally:
        probe_workload.close(state)
    sent = state.phase == wl_serve.OPEN
    latency = 1000.0 * (state.done[sent] - state.due[sent])
    return {
        "rate": rate,
        "achieved": float(sent.sum() / seconds),
        "p50_ms": float(np.percentile(latency, 50)),
        "p99_ms": float(np.percentile(latency, 99)),
        "gen_lag_p99_ms": float(1000.0 * np.percentile(lateness, 99)),
        "backlog_end": backlog,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", required=True, help="comma-separated requests/s")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args()
    for rate in (float(r) for r in args.rates.split(",")):
        result = probe(rate, args.seed, args.seconds)
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in result.items()))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
