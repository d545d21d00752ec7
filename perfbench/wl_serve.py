"""The ``serve`` workload: the read path through ``repro serve``.

The same set-up as ``compress`` (train on the gcc-like program, register,
start the server), plus the grammar's native engine, built by one native
request.  A pool of held-out programs is then compressed through the
server to RCX1 and RCX2 (more containers than the sandbox helper's
8-entry engine LRU holds, as a service hosting many programs sees).  One
connection sends, closed loop for ``--seconds`` (in three segments, with
a spare set-up between two), one ``run_compressed`` per op, cycling
through the pool: formats alternate, and in every four requests three
ask for the ``compiled`` engine and one for ``native`` (sandboxed).  The
native quarter is the fastest class, so both reported percentiles fall
inside the compiled class.  Every exit code and output must equal the
uncompressed program's on ``Interpreter1``, and every response's
``engine`` must be the one requested.
"""

from __future__ import annotations

import gc
import hashlib
import time

import repro.interp.tables
import repro.storage
from repro.coding.model import model_for
from repro.coding.stream import encode_module_streams
from repro.core.program import GrammarProgram
from repro.grammar.serialize import encode_grammar_compact
from repro.interp.compiled import CompiledEngine
from repro.interp.runtime import run_program
from repro.interp.sandbox import NativeSandbox, request_digest
from repro.pipeline import run as run_uncompressed
from repro.registry import GrammarRegistry
from repro.registry.registry import poison_key
from repro.service import ServiceError
from repro.service.protocol import b64d
from repro.storage import load_any, save_module

from common import TAG, BenchError, Outcome, Run, latency_metrics, median, ms
from inputs import calibrated_program, derive_seed, inputs_digest
from services import (
    SETUPS, closed_loop, median_of, put_setup_metrics, set_up, stats_delta,
    timed_between_set_ups,
)
from tracer import Tracer, pass_orders, spans_of, trace_overhead
from wl_compress import check_compress

POOL = 16
WARMUP_PROGRAMS = 2
#: warm-up requests: enough compiled ones to fill the server's 16-entry
#: ``program_for`` cache, so the timed ops see its steady heap (and the
#: steady cost of its full garbage collections)
WARMUP_OPS = 24
#: source size of a program (~8 generated functions, ~2 KB of bytecode)
PROGRAM_CHARS = 2700
#: operators each program executes (``main`` repeats its pass over the
#: functions to reach it): execution becomes a visible share of a
#: compiled request instead of the few ms of one pass, and costs about
#: the same in every program
PROGRAM_INSTRUCTIONS = 30_000
FORMATS = ("rcx1", "rcx2")
#: traced ops whose replay counts the programs built (a fixed prefix, so
#: the count repeats exactly)
COUNTED_OPS = 16
#: the loader's and engine's calls into other layers, timed in the replay
PATCHES = (
    (repro.storage, "decode_grammar", "grammar.decode_grammar"),
    (repro.storage, "program_for", "core.program_for"),
    (repro.storage, "RuleModel", "coding.RuleModel"),
    (repro.storage, "decode_module_streams", "coding.decode_module_streams"),
    (repro.interp.tables, "program_for", "core.program_for"),
)


def op_plan(j: int):
    """Op ``j``: ``(program, format, engine)``.  Programs come in
    RCX1/RCX2 pairs; one program in four runs native, a different one
    each pass over the pool."""
    cycle, k = divmod(j, 2 * POOL)
    program = k // 2
    engine = "native" if (program + cycle) % 4 == 3 else "compiled"
    return program, FORMATS[k % 2], engine


def output_of(result: dict) -> bytes:
    value = result.get("output")
    return b64d(value) if isinstance(value, str) else bytes(value)


def check_run(expected, engine: str, result) -> str:
    """Error message (or ``None``) for one ``run_compressed`` response."""
    if not isinstance(result, dict):
        return "no result"
    if result.get("engine") != engine:
        return f"engine {result.get('engine')!r} ran, {engine!r} requested"
    if (result.get("code"), output_of(result)) != expected:
        return "exit code or output differs from Interpreter1"
    return None


def _send(client, op):
    container, engine = op
    return client.call("run_compressed",
                       {"module": container, "args": [], "engine": engine})


def run_serve(run: Run) -> Outcome:
    out = Outcome()
    programs = [calibrated_program(
        derive_seed("serve", run.seed, "program", p), PROGRAM_CHARS,
        PROGRAM_INSTRUCTIONS) for p in range(POOL + WARMUP_PROGRAMS)]
    out.detail["inputs_sha256"] = inputs_digest(s for s, _ in programs)
    pool = [m for _, m in programs[:POOL]]
    warm = [m for _, m in programs[POOL:]]
    # reference results, independent of every compressed path
    expected = [run_uncompressed(m) for m in pool + warm]
    tracer = Tracer() if run.trace else None
    out.phase("inputs")

    def build_native(service) -> None:
        """Build the grammar's native engine: one native request."""
        with service.server.client() as client:
            container = client.compress(save_module(warm[0]), TAG)
            error = check_run(expected[POOL], "native",
                              _send(client, (container, "native")))
        if error is not None:
            raise BenchError(f"native set-up request: {error}")

    service, setup_s = set_up(run, tracer, build_native)
    out.phase("set_up")
    try:
        # the inputs: every program compressed through the server
        containers = {}
        with service.server.client() as client:
            for p, module in enumerate(pool + warm):
                for fmt in FORMATS:
                    containers[p, fmt] = client.compress(
                        save_module(module), TAG, format=fmt)
        out.phase("compress_pool")

        def op_at(j):
            p, fmt, engine = op_plan(j)
            return containers[p, fmt], engine

        port = service.server.port
        warm_ops = [(containers[POOL + (j // 2) % WARMUP_PROGRAMS,
                                FORMATS[j % 2]],
                     "native" if j % 8 in (3, 6) else "compiled")
                    for j in range(WARMUP_OPS)]
        warm_records, _ = closed_loop(port, warm_ops.__getitem__, 1, _send,
                                      count=len(warm_ops))
        for i, _, _, error in warm_records:
            if error is not None:
                raise BenchError(f"warm-up request {i}: {error}")
        out.phase("warm_up")
        with service.server.client() as admin:
            before = admin.stats()
            if run.trace:
                records, plain_s, traced_s, mismatched = _traced_pass(
                    run, service, warm_ops, op_at, expected, tracer, out)
            else:
                records, wall, spare_s = timed_between_set_ups(
                    run, build_native,
                    lambda seconds, first, min_ops: closed_loop(
                        port, op_at, 1, _send, seconds=seconds, first=first,
                        min_ops=min_ops), 1)
                setup_s = median([setup_s] + spare_s)
            out.phase("timed")
            after = admin.stats()
        if not run.trace:
            peak_rss = service.server.peak_rss_mb()
    finally:
        service.stop()
    out.phase("stop")

    program = GrammarRegistry(service.registry_dir).program(service.digest)
    grammar_bytes = encode_grammar_compact(program.grammar)
    out.exact.update({"grammar_bytes": len(grammar_bytes),
                      "training.iterations": service.iterations})
    if not run.trace:
        ratio = _pool_ratios(pool, containers, program, grammar_bytes)
        out.exact.update({"ratio_rcx1": ratio[0], "ratio_rcx2": ratio[1]})
    plan = {i: op_plan(i) for i, _, _, _ in records}
    for i, _, result, error in records:
        p, _, engine = plan[i]
        if error is None:
            error = check_run(expected[p], engine, result)
        if error is None and run.trace and i in mismatched:
            error = "in-process replay differs from the response"
        out.check(i, error)
    out.detail["program_code_bytes"] = median([m.code_bytes for m in pool])
    out.phase("check")
    delta = stats_delta(before, after, "run_compressed")
    n = len(records)
    if not run.trace:
        out.put("setup_s", setup_s, SETUPS)
        latency_metrics(out, [r[1] for r in records], wall)
        for name in ("ratio_rcx1", "ratio_rcx2", "grammar_bytes"):
            out.put(name, out.exact[name], POOL)
        out.put("peak_rss_mb", peak_rss)
        classes = {}
        for i, seconds, _, _ in records:
            _, fmt, engine = plan[i]
            classes.setdefault(f"{engine}_{fmt}", []).append(seconds)
        out.detail["lat_p50_ms_by_class"] = {
            k: ms(median(v)) for k, v in sorted(classes.items())}
        return out

    per_op = tracer.per_op()
    every = [i for i, _, _, _ in records]
    sel = {key: [i for i in every if key in plan[i][1:]]
           for key in FORMATS + ("compiled", "native")}
    rtts = {i: seconds for i, seconds, _, _ in records}
    server_ms = ms(delta["server_s"])
    put = out.put
    put_setup_metrics(out, per_op, service)
    put("grammar.self_ms", ms(median_of(
        per_op, every, "grammar.decode_grammar",
        "grammar.encode_grammar_compact")), n)
    put("core.program_ms", ms(median_of(per_op, every, "core.program_for")),
        n)
    for fmt in FORMATS:
        put(f"storage.load_{fmt}_ms", ms(median_of(
            per_op, sel[fmt], f"storage.load_{fmt}")), len(sel[fmt]))
    put("coding.decode_ms", ms(median_of(
        per_op, sel["rcx2"], "coding.RuleModel",
        "coding.decode_module_streams")), len(sel["rcx2"]))
    put("interp.engine_ms", ms(median_of(
        per_op, sel["compiled"], "interp.engine")), len(sel["compiled"]))
    put("interp.run_ms", ms(median_of(
        per_op, sel["compiled"], "interp.run_program")),
        len(sel["compiled"]))
    put("interp.sandbox_ms", ms(median_of(
        per_op, sel["native"], "interp.sandbox_run")), len(sel["native"]))
    for engine in ("compiled", "native"):
        put(f"service.rtt_run_{engine}_ms", ms(median(
            [rtts[i] for i in sel[engine]])), len(sel[engine]))
    put("service.server_ms", server_ms, delta["requests"])
    put("service.wait_ms", server_ms - ms(sum(plain_s) / n), n)
    put("service.batch_size", delta["batch_size"])
    put("unaccounted_ms", ms(sum(rtts.values()) / n) - server_ms, n)
    put("trace_overhead", trace_overhead(plain_s, traced_s), n)
    out.detail["layer_ms_by_class"] = _layer_breakdown(per_op, plan, rtts)
    out.detail["spans"] = tracer
    return out


def _pool_ratios(pool, containers, program, grammar_bytes):
    """Σ RCX1 code bytes and Σ RCX2 coded payload over Σ original code
    bytes; every container must pass the ``compress`` response check."""
    model = model_for(program)
    rcx1 = rcx2 = original = 0
    for p, module in enumerate(pool):
        for fmt in FORMATS:
            error, cmod = check_compress(save_module(module), fmt,
                                         containers[p, fmt], program.grammar,
                                         grammar_bytes)
            if error is not None:
                raise BenchError(f"pool program {p} ({fmt}): {error}")
        rcx1 += cmod.code_bytes
        rcx2 += len(encode_module_streams(
            program, model, [c.code for c in cmod.procedures]))
        original += module.code_bytes
    return rcx1 / original, rcx2 / original


def _serve_one(data, engine, registry, sandbox, tracer=None, fmt=""):
    """What the server does for one ``run_compressed`` (default budget,
    breakers closed), through the same public functions in order."""
    span = spans_of(tracer)
    with span(f"storage.load_{fmt}"):
        program = load_any(data)
    with span("grammar.encode_grammar_compact"):
        gkey = hashlib.sha256(
            encode_grammar_compact(program.grammar)).hexdigest()
    if engine == "compiled":
        with span("interp.engine"):
            executor = CompiledEngine(program)
        with span("interp.run_program"):
            return run_program(program, executor, budget=0)
    with span("registry.check_poison"):
        registry.check_poison(poison_key(gkey, request_digest(data, [], b"")))
    with span("interp.sandbox_run"):
        run = sandbox.run(data, [], b"", budget=0, content_key=gkey)
    return run.code, run.output


def _traced_pass(run, service, warm_ops, op_at, expected, tracer, out):
    """The ops with tracing, closed loop for ``--seconds``: each round
    trip is followed by the same request replayed in process, once
    plainly and once inside spans (each with its own sandbox helper,
    warmed like the server's), so the server and its replay see the same
    state of the host."""
    registry = GrammarRegistry(service.registry_dir)
    records = []
    plain_s, traced_s = [], []
    mismatched = set()
    built = 0
    cache = service.server.native_cache
    with service.server.client() as client, \
            NativeSandbox(cache_dir=cache) as plain_box, \
            NativeSandbox(cache_dir=cache) as box:
        for data, engine in warm_ops:
            for sandbox in (plain_box, box):
                _serve_one(data, engine, registry, sandbox)
        # The benchmark's own long-lived objects stay out of the
        # collector's way, as a server's would not be there: collections
        # during the replay cost what the replayed work allocates.
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        orders = pass_orders(1 << 16)
        i = 0
        while i < COUNTED_OPS or time.perf_counter() - start < run.seconds:
            data, engine = op_at(i)
            p, fmt, _ = op_plan(i)
            begin = time.perf_counter()
            result = error = None
            try:
                with tracer.span(f"service.rtt_run_{engine}", op=i):
                    result = _send(client, (data, engine))
            except ServiceError as exc:
                error = f"{exc.code}: {exc.message}"
            records.append((i, time.perf_counter() - begin, result, error))
            for which in orders[i % len(orders)]:
                begin = time.perf_counter()
                if which == 0:
                    plain = _serve_one(data, engine, registry, plain_box)
                    plain_s.append(time.perf_counter() - begin)
                    continue
                programs = sum(GrammarProgram.constructions.values())
                with tracer.patched(PATCHES), tracer.span("op", op=i):
                    traced = _serve_one(data, engine, registry, box,
                                        tracer, fmt)
                traced_s.append(time.perf_counter() - begin)
                if i < COUNTED_OPS:
                    built += sum(GrammarProgram.constructions.values()) \
                        - programs
            if not (tuple(plain) == tuple(traced) == expected[p]):
                mismatched.add(i)
            i += 1
        gc.unfreeze()
    out.put("core.programs_built", built, COUNTED_OPS)
    out.exact["core.programs_built"] = built
    return records, plain_s, traced_s, mismatched


def _layer_breakdown(per_op, plan, rtts):
    """Per request class: median round trip and median self time per
    layer of the replayed work."""
    classes = {}
    for i, (_, fmt, engine) in plan.items():
        layers = {}
        for name, seconds in per_op.get(i, {}).items():
            if name != "op" and not name.startswith("service."):
                layer = name.split(".")[0]
                layers[layer] = layers.get(layer, 0.0) + seconds
        classes.setdefault(f"{engine}_{fmt}", []).append((rtts[i], layers))
    report = {}
    for key, rows in sorted(classes.items()):
        names = sorted({name for _, layers in rows for name in layers})
        report[key] = {"ops": len(rows),
                       "rtt_ms": ms(median([r for r, _ in rows]))}
        for name in names:
            report[key][name] = ms(median(
                [layers.get(name, 0.0) for _, layers in rows]))
    return report
