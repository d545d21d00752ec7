"""Pieces the two workloads share: set-up, the closed loop and the
server's ``stats`` deltas."""

from __future__ import annotations

import gc
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.coding.model import attach_counts
from repro.corpus.programs import gcclike
from repro.grammar.initial import initial_grammar
from repro.minic.driver import compile_source
from repro.parsing.stackparser import build_forest
from repro.pipeline import train_grammar
from repro.registry import GrammarRegistry
from repro.service import ServiceClient, ServiceError
from repro.training import resolve_strategy

from common import TAG, Run, median, ms
from server import ServerProcess
from tracer import Tracer, spans_of

#: set-ups per plain run (``setup_s`` is their median), and segments of
#: its timed phase
SETUPS = 3


class Service:
    """A trained, registered grammar behind a live server."""

    def __init__(self, run: Run, home) -> None:
        self.registry_dir = home / "registry"
        self.server = ServerProcess(run.src, self.registry_dir, home)
        self.digest = ""
        self.iterations = 0

    def stop(self) -> None:
        self.server.stop()


def train_steps(modules, tracer: Tracer):
    """``train_grammar``'s steps with the default (greedy) trainer, called
    one by one inside spans."""
    with tracer.span("grammar.initial_grammar"):
        grammar = initial_grammar()
    with tracer.span("parsing.build_forest"):
        forest = build_forest(grammar, modules)
    strategy = resolve_strategy("greedy")
    with tracer.span("training.train"):
        report = strategy.train(grammar, forest)
    with tracer.span("coding.attach_counts"):
        attach_counts(grammar, forest, modules)
    return grammar, report


def set_up(run: Run, tracer: Optional[Tracer],
           extra: Callable[[Service], None],
           k: int = 0) -> Tuple[Service, float]:
    """Set the service up from nothing, in its own directory (registry,
    native build cache, server): compile the gcc-like input, train on it,
    register the grammar and start a server on it; ``extra`` finishes the
    workload's own set-up against the live server.  Returns the service
    and the set-up's wall time."""
    service = Service(run, run.work / f"setup-{k}")
    span = spans_of(tracer)
    begin = time.perf_counter()
    try:
        with span("setup", op=-1):
            with span("minic.compile_source"):
                gcc = compile_source(gcclike(run.gcc_scale))
            if tracer is None:
                grammar, report = train_grammar([gcc])
            else:
                grammar, report = train_steps([gcc], tracer)
            with span("registry.put"):
                service.digest = GrammarRegistry(service.registry_dir).put(
                    grammar, report=report, corpus=[gcc], tags=[TAG])
            with span("service.start"):
                service.server.start()
            extra(service)
        service.iterations = report.iterations
    except BaseException:
        service.stop()
        raise
    return service, time.perf_counter() - begin


def timed_between_set_ups(run: Run, extra: Callable[[Service], None],
                          segment: Callable, clients: int):
    """The timed phase of a plain run, in :data:`SETUPS` segments of equal
    length; between two segments the service is set up once more from
    nothing (and stopped again) while the measured server idles.  The
    ops and the set-ups so sample the host across the whole run rather
    than one stretch of it.

    ``segment(seconds, first, min_ops)`` drives ops ``first, first + 1,
    ...`` closed loop and returns ``(records, wall)`` as
    :func:`closed_loop` does; the last segment makes up ``run.min_ops``.
    Returns ``(records, wall, set-up times)``.
    """
    records: List = []
    wall = 0.0
    times = []
    for k in range(SETUPS):
        if k:
            spare, seconds = set_up(run, None, extra, k)
            spare.stop()
            times.append(seconds)
            gc.collect()  # the spare set-up's garbage is the benchmark's
        first = -(-(records[-1][0] + 1) // clients) * clients \
            if records else 0
        short = run.min_ops - len(records) if k == SETUPS - 1 else 0
        rows, seconds = segment(run.seconds / SETUPS, first, max(0, short))
        records += rows
        wall += seconds
    return records, wall, times


def closed_loop(port: int, op_at: Callable[[int], object], clients: int,
                send: Callable, *, count: int = 0, seconds: float = 0.0,
                first: int = 0, min_ops: int = 0,
                tracer: Optional[Tracer] = None, span_name: str = ""):
    """Drive ops through ``clients`` connections, each sending its next
    op only after the previous reply (client ``c`` sends ops ``first + c,
    first + c + clients, ...``; op ``i`` is ``op_at(i)``).  With
    ``seconds``, a client starts no op once ``seconds`` have passed since
    the first send and ``min_ops`` ops have been started; otherwise the
    ops are ``first .. first + count - 1``.  With a tracer, each round
    trip is a span.

    Returns ``(records, wall)``: per op, in op order, ``(op, seconds,
    result, error)``, and the wall time from the first send to the last
    reply.
    """
    span = spans_of(tracer)
    done: List[List[Tuple]] = [[] for _ in range(clients)]
    crashed: List[BaseException] = []
    barrier = threading.Barrier(clients)
    start = [0.0]

    def more(i: int) -> bool:
        if not seconds:
            return i < first + count
        return (i < first + min_ops
                or time.perf_counter() - start[0] < seconds)

    def drive(c: int) -> None:
        try:
            with ServiceClient(port=port, timeout=120.0) as client:
                if barrier.wait() == 0:
                    start[0] = time.perf_counter()
                barrier.wait()
                i = first + c
                while more(i):
                    op = op_at(i)
                    begin = time.perf_counter()
                    result = error = None
                    try:
                        with span(span_name, op=i):
                            result = send(client, op)
                    except ServiceError as exc:
                        error = f"{exc.code}: {exc.message}"
                    end = time.perf_counter()
                    done[c].append((i, begin, end, result, error))
                    i += clients
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            crashed.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=drive, args=(c,))
               for c in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    rows = sorted(row for rows in done for row in rows)
    wall = max(r[2] for r in rows) - min(r[1] for r in rows)
    return [(i, end - begin, result, error)
            for i, begin, end, result, error in rows], wall


def stats_delta(before: Dict, after: Dict, method: str) -> Dict[str, float]:
    """Server-side means over a phase, from two ``stats`` snapshots."""
    def hist(snap, *path):
        node = snap.get("histograms", {})
        for key in path:
            node = node.get(key, {})
        return node.get("sum", 0.0), node.get("count", 0)

    s0, n0 = hist(before, "request_seconds", method)
    s1, n1 = hist(after, "request_seconds", method)
    b0, m0 = hist(before, "batch_size")
    b1, m1 = hist(after, "batch_size")
    hits = misses = 0
    for digest, entry in after.get("grammars", {}).items():
        cache = entry.get("derivation_cache", {})
        old = before.get("grammars", {}).get(digest, {}).get(
            "derivation_cache", {})
        hits += cache.get("hits", 0) - old.get("hits", 0)
        misses += cache.get("misses", 0) - old.get("misses", 0)
    return {
        "server_s": (s1 - s0) / (n1 - n0) if n1 > n0 else 0.0,
        "requests": n1 - n0,
        "batch_size": (b1 - b0) / (m1 - m0) if m1 > m0 else 0.0,
        "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def put_setup_metrics(out, per_op, service: Service) -> None:
    """Per-layer metrics of the traced set-up (spans with op id -1)."""
    setup = per_op[-1]
    for metric, span in (("minic.compile_ms", "minic.compile_source"),
                         ("parsing.forest_ms", "parsing.build_forest"),
                         ("training.train_ms", "training.train"),
                         ("coding.counts_ms", "coding.attach_counts"),
                         ("registry.put_ms", "registry.put")):
        out.put(metric, ms(setup[span]))
    out.put("training.iterations", service.iterations)
    out.put("service.start_s", setup["service.start"])


def median_of(per_op: Dict[int, Dict[str, float]], ops, *spans: str) -> float:
    """Median over ``ops`` of the summed self time of ``spans``."""
    return median([sum(per_op.get(i, {}).get(s, 0.0) for s in spans)
                   for i in ops])
