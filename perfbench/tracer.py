"""In-memory spans recorded from the benchmark's own code.

A span is ``(name, start, end, parent, op)``; its name is
``layer.function``, where the layer is a package under ``src/repro``.
Spans are opened around direct calls into a layer's public functions
(:meth:`Tracer.span`) and around calls one layer makes into another, by
rebinding the imported name in the calling module for the duration of
the traced phase (:meth:`Tracer.patched`).  Nothing under ``src/``
changes.  Self time is a span's duration minus its children's.
"""

from __future__ import annotations

import contextlib
import json
import random
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple


def spans_of(tracer: Optional["Tracer"]):
    """``tracer.span``, or a no-op stand-in when not tracing."""
    if tracer is not None:
        return tracer.span
    return lambda name, op=None: contextlib.nullcontext()


def pass_orders(n: int) -> List[Tuple[int, int]]:
    """Per op, whether its plain (0) or traced (1) pass runs first: a
    fixed pseudo-random sequence.  Strict alternation repeats every four
    passes, and the garbage collector's periodic full collections lock
    onto such a period and land in one pass every time."""
    rng = random.Random(0x5EED)
    return [(0, 1) if rng.random() < 0.5 else (1, 0) for _ in range(n)]


def trace_overhead(plain_s: List[float], traced_s: List[float]) -> float:
    """Median over ops of traced time / plain time, minus one.  The median
    keeps the few passes that host a full garbage collection, which can
    fall in either pass, from deciding the answer."""
    return statistics.median(t / p for p, t in zip(plain_s, traced_s)) - 1.0


class Tracer:
    """Records spans; one open-span stack per thread.

    Spans are stored column-wise, as plain numbers and strings: one
    container object per span would pile up long-lived objects that
    trigger full garbage collections inside the traced calls and bill
    them to the layers.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.ops: List[Optional[int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[int] = None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.ops[parent]
        with self._lock:
            index = len(self.names)
            self.names.append(name)
            self.starts.append(time.perf_counter())
            self.ends.append(0.0)
            self.parents.append(parent)
            self.ops.append(op)
        stack.append(index)
        try:
            yield
        finally:
            stack.pop()
            self.ends[index] = time.perf_counter()

    def wrap(self, fn: Callable, name: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def patched(self, targets: Iterable[Tuple[object, str, str]]):
        """Route ``owner.attr`` through a span named ``name`` while open.

        ``owner`` is the module (or class) whose binding the calling code
        looks up, e.g. ``(repro.storage, "encode_module_streams",
        "coding.encode_module_streams")`` times the coder's share of an
        RCX2 save.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, name))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: duration minus the durations of its direct children."""
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        own = list(durations)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= durations[i]
        return own

    def per_op(self) -> Dict[int, Dict[str, float]]:
        """op id -> span name -> summed self time (seconds)."""
        out: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for name, op, own in zip(self.names, self.ops, self.self_times()):
            if op is not None:
                out[op][name] += own
        return out

    def write(self, path) -> None:
        """The spans as JSON lines, times relative to the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "op": self.ops[i],
                    "parent": self.parents[i],
                    "start_ms": round((self.starts[i] - origin) * 1e3, 4),
                    "end_ms": round((self.ends[i] - origin) * 1e3, 4),
                }) + "\n")

