"""Shared pieces of the benchmark: metric names, run context, statistics."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: end-to-end metrics, printed by every ``--trace 0`` run
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "ratio_rcx1": "ratio",
    "ratio_rcx2": "ratio",
    "grammar_bytes": "B",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, printed by every ``--trace 1`` run.  A layer that a
#: workload never calls reads 0: the workload bypasses it.
PER_LAYER = {
    "minic.compile_ms": "ms",
    "grammar.self_ms": "ms",
    "parsing.forest_ms": "ms",
    "parsing.blocks_ms": "ms",
    "training.train_ms": "ms",
    "training.iterations": "count",
    "coding.counts_ms": "ms",
    "coding.encode_ms": "ms",
    "coding.decode_ms": "ms",
    "core.program_ms": "ms",
    "core.programs_built": "count",
    "compress.module_ms": "ms",
    "compress.cache_hit_ratio": "ratio",
    "storage.save_rcx1_ms": "ms",
    "storage.save_rcx2_ms": "ms",
    "storage.load_rcx1_ms": "ms",
    "storage.load_rcx2_ms": "ms",
    "interp.engine_ms": "ms",
    "interp.run_ms": "ms",
    "interp.sandbox_ms": "ms",
    "registry.put_ms": "ms",
    "service.start_s": "s",
    "service.rtt_compress_ms": "ms",
    "service.rtt_run_compiled_ms": "ms",
    "service.rtt_run_native_ms": "ms",
    "service.server_ms": "ms",
    "service.wait_ms": "ms",
    "service.batch_size": "jobs",
    "unaccounted_ms": "ms",
    "trace_overhead": "ratio",
}

#: grammar tag the service workloads register and request against
TAG = "bench"


class BenchError(RuntimeError):
    """The benchmark itself could not run (no result is printed)."""


class DeterminismError(BenchError):
    """A value that must repeat exactly did not."""


@dataclass
class Run:
    """One invocation: where it runs, which inputs, which mode."""
    root: Path
    work: Path
    workload: str
    seed: int
    seconds: int
    trace: bool
    gcc_scale: int
    #: ops a run makes even when ``seconds`` run out first
    min_ops: int

    @property
    def src(self) -> Path:
        return self.root / "src"


@dataclass
class Outcome:
    """What a workload reports: op counts, metrics and the record detail."""
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    exact: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)
    _mark: float = field(default_factory=time.perf_counter, repr=False)

    def check(self, op: int, error: Optional[str]) -> None:
        """Count one attempted op; ``error`` (if any) makes it failed."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"op {op}: {error}")

    def phase(self, name: str) -> None:
        """Record the wall time since the previous phase ended (or the
        outcome was made) as phase ``name`` of the run."""
        now = time.perf_counter()
        phases = self.detail.setdefault("phase_s", {})
        phases[name] = round(now - self._mark, 3)
        self._mark = now

    def put(self, name: str, value: float,
            samples: Optional[int] = None) -> None:
        self.metrics[name] = value
        if samples is not None:
            self.samples[name] = samples


def ms(seconds: float) -> float:
    return seconds * 1e3


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """90th percentile (``statistics.quantiles``, exclusive method)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def latency_metrics(out: Outcome, latencies: Sequence[float],
                    wall: float) -> None:
    n = len(latencies)
    out.put("ops_per_s", n / wall if wall > 0 else 0.0, n)
    out.put("lat_p50_ms", ms(median(latencies)), n)
    out.put("lat_p90_ms", ms(p90(latencies)), n)
    out.detail["ops_beyond_p90"] = sum(
        1 for v in latencies if v > p90(latencies))
    out.detail["latencies_ms"] = [round(ms(v), 2) for v in latencies]


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in /proc/{pid}/status")


def host_fingerprint(run: Run) -> Dict[str, object]:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True,
                            text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "none"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "cc": cc,
        "gcclike_scale": run.gcc_scale,
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "min_ops": run.min_ops,
        "trace": int(run.trace),
    }
