"""Service counters and histograms, exported by the ``stats`` method.

Deliberately dependency-free and Prometheus-shaped: monotonic counters
keyed by label tuples, and fixed-bucket cumulative histograms with sum
and count, so a scraper (or a test) can compute rates and quantile
bounds.  Everything is updated from the event loop or from executor
threads, so the mutators take a lock — contention is negligible next to
the work being measured.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Dict, List, Sequence, Tuple

__all__ = ["Counter", "Histogram", "ServiceMetrics", "merge_stats"]

# request latency, seconds: sub-ms to tens of seconds
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                   0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
# jobs per compression batch
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
# serialized compressed-container bytes per compress response
CODED_BYTES_BUCKETS = (256.0, 1024.0, 4096.0, 16384.0, 65536.0,
                       262144.0, 1048576.0)


class Counter:
    """Monotonic counter with string labels (joined with ``|``)."""

    def __init__(self) -> None:
        self._values: Dict[str, int] = {}
        self._lock = threading.Lock()

    def inc(self, *labels: str, by: int = 1) -> None:
        key = "|".join(labels) if labels else ""
        with self._lock:
            self._values[key] = self._values.get(key, 0) + by

    def value(self, *labels: str) -> int:
        return self._values.get("|".join(labels) if labels else "", 0)

    def total(self) -> int:
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(sorted(self._values.items()))


class Histogram:
    """Cumulative fixed-bucket histogram (le semantics + ``+Inf``)."""

    def __init__(self, buckets: Sequence[float]) -> None:
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self._counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self.sum += value
            self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict:
        with self._lock:
            cumulative, acc = [], 0
            for c in self._counts:
                acc += c
                cumulative.append(acc)
            return {
                "buckets": {
                    **{f"le_{b:g}": cumulative[i]
                       for i, b in enumerate(self.bounds)},
                    "le_inf": cumulative[-1],
                },
                "sum": self.sum,
                "count": self.count,
                "mean": self.mean,
            }


class ServiceMetrics:
    """Everything the ``stats`` endpoint reports about traffic."""

    def __init__(self) -> None:
        self.started = time.monotonic()
        #: requests by (method, outcome) where outcome is ``ok`` or an
        #: error code (``overloaded``, ``timeout``, ``bad_request``, ...)
        self.requests = Counter()
        self.bytes_in = Counter()
        self.bytes_out = Counter()
        #: request latency per method, seconds
        self._latency: Dict[str, Histogram] = {}
        #: jobs per compression batch
        self.batch_size = Histogram(BATCH_BUCKETS)
        #: engine resilience events: ``fallback`` (compiled engine
        #: faulted, reference reran the request) and ``degraded``
        #: (breaker open, compiled engine skipped entirely)
        self.engine_events = Counter()
        #: compress requests by container format (rcx1 | rcx2)
        self.compress_formats = Counter()
        #: serialized container bytes per successful compress, by format
        self._coded_bytes: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def observe_compress(self, format: str, coded_bytes: int) -> None:
        """One successful compress response: its container format and
        the serialized container's size."""
        self.compress_formats.inc(format)
        with self._lock:
            hist = self._coded_bytes.get(format)
            if hist is None:
                hist = self._coded_bytes[format] = Histogram(
                    CODED_BYTES_BUCKETS)
        hist.observe(float(coded_bytes))

    def observe_request(self, method: str, outcome: str,
                        seconds: float) -> None:
        self.requests.inc(method, outcome)
        with self._lock:
            hist = self._latency.get(method)
            if hist is None:
                hist = self._latency[method] = Histogram(LATENCY_BUCKETS)
        hist.observe(seconds)

    def observe_batch(self, size: int) -> None:
        self.batch_size.observe(float(size))

    def add_bytes(self, direction: str, count: int) -> None:
        (self.bytes_in if direction == "in" else self.bytes_out).inc(
            by=count)

    def snapshot(self) -> Dict:
        with self._lock:
            latency = {m: h.snapshot()
                       for m, h in sorted(self._latency.items())}
            coded = {f: h.snapshot()
                     for f, h in sorted(self._coded_bytes.items())}
        return {
            "uptime_seconds": time.monotonic() - self.started,
            "counters": {
                "requests_total": self.requests.snapshot(),
                "bytes_in_total": self.bytes_in.total(),
                "bytes_out_total": self.bytes_out.total(),
                "engine_events_total": self.engine_events.snapshot(),
                "compress_format_total": self.compress_formats.snapshot(),
            },
            "histograms": {
                "request_seconds": latency,
                "batch_size": self.batch_size.snapshot(),
                "coded_bytes": coded,
            },
        }


# -- fleet aggregation -------------------------------------------------------
#
# The dispatcher sums its workers' ``stats`` snapshots into one fleet
# view.  Counters and histogram buckets add; a handful of keys are
# structural rather than additive: uptimes and capacities take the max
# (the fleet is as old as its oldest worker, and capacity is per
# worker, not summed admission), booleans like a registry's ``clean``
# AND together (one dirty worker means a dirty fleet), and ``mean`` is
# recomputed from the merged sum/count rather than averaged.

_MAX_KEYS = frozenset(["uptime_seconds", "capacity", "high_water",
                       "exec_budget"])
_AND_KEYS = frozenset(["clean", "enabled"])

# Circuit-breaker states are a *severity*, not a flow: a fleet whose
# quietest worker reports ``closed`` while another reports ``open`` has
# an open breaker.  Merge by worst-state-wins; "first worker wins" here
# used to let a zero-request worker polled first mask a tripped breaker
# elsewhere in the fleet.
_BREAKER_SEVERITY = {"closed": 0, "half_open": 1, "open": 2}


def _merge_into(acc: Dict, other: Dict) -> None:
    for key, value in other.items():
        if key not in acc:
            # deep-copy on adoption: the accumulator must never alias
            # (and later mutate) a worker's own snapshot structures
            acc[key] = copy.deepcopy(value)
            continue
        mine = acc[key]
        if isinstance(mine, dict) and isinstance(value, dict):
            _merge_into(mine, value)
        elif isinstance(mine, bool) or isinstance(value, bool):
            acc[key] = (mine and value) if key in _AND_KEYS \
                else (mine or value)
        elif isinstance(mine, (int, float)) and \
                isinstance(value, (int, float)):
            acc[key] = max(mine, value) if key in _MAX_KEYS \
                else mine + value
        elif isinstance(mine, list) and isinstance(value, list):
            acc[key] = mine + [v for v in value if v not in mine]
        elif isinstance(mine, str) and isinstance(value, str) \
                and mine in _BREAKER_SEVERITY \
                and value in _BREAKER_SEVERITY:
            if _BREAKER_SEVERITY[value] > _BREAKER_SEVERITY[mine]:
                acc[key] = value
        # other strings and mixed types: first worker wins


def _fix_means(node) -> None:
    if not isinstance(node, dict):
        return
    for value in node.values():
        _fix_means(value)
    if "mean" in node and "sum" in node and "count" in node:
        count = node["count"]
        node["mean"] = node["sum"] / count if count else 0.0


def merge_stats(snapshots: Sequence[Dict]) -> Dict:
    """Aggregate worker ``stats`` snapshots into one fleet snapshot."""
    merged: Dict = {}
    for snap in snapshots:
        _merge_into(merged, snap)
    _fix_means(merged)
    return merged


def scan_summary(report: Dict) -> Dict:
    """The ``stats.registry.startup_scan`` view of a registry
    :meth:`~repro.registry.GrammarRegistry.startup_scan` report."""
    return {
        "clean": report.get("clean"),
        "checked": report.get("checked"),
        "quarantined": len(report.get("quarantined", [])),
        "dangling_tags": len(report.get("dangling_tags", [])),
        "poison": report.get("poison", 0),
    }
