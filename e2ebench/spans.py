"""In-memory spans around the library's layer boundaries.

A traced run installs wrappers on the public functions and methods of
each layer, at the attribute the caller resolves (a function imported
into ``repro.core.uncover`` is wrapped there, a method on its class).
Each wrapped call appends one span — name, start, end, parent — to a
:class:`Recorder`; nothing is written until the run ends.

Parents come from a context variable, so every asyncio task sees its
own chain.  A span opened with no parent in its context (the gateway's
dispatcher task, started before the measurement) is attached to the
root span that is open at the time.  Roots never nest or overlap.

Self time is a span's duration minus the part of it its child spans
cover.  Wrapped functions are synchronous, and one thread runs them,
so children of one span never overlap and their coverage is the sum
of their durations.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "e2ebench_span", default=None
)


class Recorder:
    """Spans, counters and hook values of one traced run.

    Counters, values and fault sessions are kept only while a root span
    is open, so they cover exactly the traced operations.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self.roots: List[int] = []
        self._root: Optional[int] = None
        #: key -> count, for calls counted without a span.
        self.counts: Dict[str, int] = defaultdict(int)
        #: key -> summed value reported by a wrapper hook.
        self.values: Dict[str, float] = defaultdict(float)
        #: Fault sessions started inside roots, read once the run has ended.
        self.sessions: List[Any] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> Tuple[int, contextvars.Token]:
        """Start a span under the current one; it is current until closed."""
        parent = _CURRENT.get()
        if parent is None:
            parent = self._root
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(parent)
        return index, _CURRENT.set(index)

    def close(self, index: int, token: contextvars.Token) -> None:
        _CURRENT.reset(token)
        self.ends[index] = time.perf_counter()

    @contextmanager
    def root(self, name: str) -> Iterator[int]:
        """One root operation; every span opened inside it is its child."""
        if self._root is not None:
            raise RuntimeError("root spans do not nest")
        index, token = self.open(name)
        self.parents[index] = None
        self.roots.append(index)
        self._root = index
        try:
            yield index
        finally:
            self.close(index, token)
            self._root = None

    def count(self, key: str) -> None:
        if self._root is not None:
            self.counts[key] += 1

    def add(self, key: str, value: float) -> None:
        if self._root is not None:
            self.values[key] += value

    def keep_session(self, session: Any) -> None:
        if self._root is not None:
            self.sessions.append(session)

    # -- reading ---------------------------------------------------------
    def self_times(self) -> List[float]:
        """Duration minus child coverage, per span."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent is not None:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def write(self, path: str) -> None:
        """All spans as JSON lines: name, start, end, parent (span index)."""
        with open(path, "w") as handle:
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": self.starts[index],
                            "end": self.ends[index],
                            "parent": self.parents[index],
                        }
                    )
                )
                handle.write("\n")


Hook = Callable[[Recorder, Sequence[Any], Any], None]


class Target:
    """One wrapped attribute: ``module:Owner.attr`` or ``module:function``.

    ``span=None`` opens no span: the call is only counted under
    ``count_key`` (for per-edge hot paths whose cost stays in the
    caller's self time) and seen by ``hook``.  ``hook`` runs after the
    call, with its arguments and its result (``None`` when a traced
    call raised).
    """

    def __init__(
        self,
        path: str,
        span: Optional[str],
        hook: Optional[Hook] = None,
        count_key: Optional[str] = None,
    ) -> None:
        self.path = path
        self.span = span
        self.hook = hook
        self.count_key = count_key

    def resolve(self) -> Tuple[Any, str]:
        module_name, _, qualname = self.path.partition(":")
        owner: Any = importlib.import_module(module_name)
        *outer, attr = qualname.split(".")
        for name in outer:
            owner = getattr(owner, name)
        if attr not in vars(owner):
            raise AttributeError(f"{self.path}: not defined on its owner")
        return owner, attr

    def wrap(self, fn: Callable, recorder: Recorder) -> Callable:
        span, hook = self.span, self.hook
        if span is None:
            key = self.count_key

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                if key is not None:
                    recorder.count(key)
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(recorder, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index, token = recorder.open(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                recorder.close(index, token)
                if hook is not None:
                    hook(recorder, args, result)

        return traced


@contextmanager
def installed(targets: Sequence[Target], recorder: Recorder) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for target in targets:
            owner, attr = target.resolve()
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, target.wrap(original, recorder))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
