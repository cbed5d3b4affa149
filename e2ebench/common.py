"""What every workload's measurement carries."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Measurement:
    """One workload run, before and after its output checks.

    ``op_ms`` holds the latencies behind ``op_p50_ms``.
    ``failed`` counts operations that raised or did not finish;
    ``verify`` adds wrong answers on top.  ``layer`` holds the
    workload-level per-layer values, ``report`` the issue-level names
    printed for a reader: name -> (value, unit, samples).
    """

    op_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    ops_s: float = 0.0
    layer: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
