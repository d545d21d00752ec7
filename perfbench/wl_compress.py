"""The ``compress`` workload: the write path through ``repro serve``.

Set-up trains a grammar on the gcc-like program at the repo's default
scale (the paper's train-on-gcc configuration), registers it and starts
a single-process server with default settings.  Two client connections
then send, closed loop for ``--seconds`` (in three segments, with a
spare set-up between two), one ``compress`` request per op, cycling
through a seeded pool of held-out modules; formats alternate RCX1/RCX2
per pair of requests.  Each module brings ~40 blocks the others lack, so
one pass over the pool puts ~1.5 times as many new blocks through the
grammar's 4096-entry LRU derivation cache as it holds: a module coming
round again finds its own blocks evicted and costs what an unseen one
does.  Warm-up modules, disjoint from the timed ones, first bring the
derivation cache to its steady hit ratio (~0.46).  Every response must
load and decompress to the exact module bytes sent.
"""

from __future__ import annotations

import dataclasses
import gc
import time

import repro.compress.compressor
import repro.storage
from repro.coding.model import model_for
from repro.coding.stream import encode_module_streams
from repro.compress.compressor import Compressor
from repro.compress.container import RCX2_MAGIC
from repro.compress.decompress import decompress_module
from repro.core.program import GrammarProgram
from repro.grammar.serialize import encode_grammar_compact
from repro.minic.driver import compile_source
from repro.registry import GrammarRegistry
from repro.service import ServiceError
from repro.storage import load_compressed, load_module, save_compressed, \
    save_module

from common import TAG, Outcome, Run, latency_metrics, median, ms
from inputs import derive_seed, inputs_digest, program_source
from services import (
    SETUPS, closed_loop, median_of, put_setup_metrics, set_up, stats_delta,
    timed_between_set_ups,
)
from tracer import Tracer, pass_orders, spans_of, trace_overhead

#: source size of a request module (~8 generated functions, ~2 KB of
#: bytecode)
MODULE_CHARS = 2700
#: modules the timed ops cycle through (a multiple of ``2 * CLIENTS``)
POOL = 160
WARMUP_MODULES = 24
CLIENTS = 2
FORMATS = ("rcx1", "rcx2")
#: traced ops whose replay counts the programs built (a fixed prefix, so
#: the count repeats exactly)
COUNTED_OPS = 16
#: the ratios are over the responses to ops ``0 .. RATIO_OPS - 1``, a
#: fixed prefix of every run (half RCX1, half RCX2)
RATIO_OPS = 96
#: the compressor's calls into other layers, timed during the replay
PATCHES = (
    (repro.compress.compressor, "parse_blocks", "parsing.parse_blocks"),
    (repro.storage, "encode_grammar_compact",
     "grammar.encode_grammar_compact"),
    (repro.storage, "program_for", "core.program_for"),
    (repro.storage, "model_for", "coding.model_for"),
    (repro.storage, "encode_module_streams", "coding.encode_module_streams"),
)
MAGIC = {"rcx1": b"RCX1", "rcx2": RCX2_MAGIC}


def op_plan(i: int):
    """Op ``i``: ``(pool module, format)``.  Both requests of a pair (one
    per client) share a format, and the pairs alternate."""
    return i % POOL, FORMATS[(i // CLIENTS) % 2]


def check_compress(module_bytes: bytes, fmt: str, payload, grammar,
                   grammar_bytes: bytes):
    """``(error or None, loaded container)`` for one compress response:
    an ``fmt`` container embedding the registered grammar whose code
    decompresses to exactly ``module_bytes``."""
    if not isinstance(payload, bytes) or payload[:4] != MAGIC[fmt]:
        return f"response is not an {fmt.upper()} container", None
    try:
        cmod = load_compressed(payload)
        if encode_grammar_compact(cmod.grammar) != grammar_bytes:
            return "container embeds a different grammar", None
        # decode with the registered (equal) grammar object, so its
        # tables are built once per run rather than once per response
        back = save_module(decompress_module(
            dataclasses.replace(cmod, grammar=grammar)))
    except Exception as exc:  # noqa: BLE001 — any failure fails the op
        return f"response does not decompress: {exc!r}", None
    if back != module_bytes:
        return "decompressed module differs from the one sent", None
    return None, cmod


def _send(client, op):
    data, fmt = op
    return client.compress(data, TAG, format=fmt)


def _request(client, data, fmt):
    """One untimed request: the payload, or the error as a string."""
    try:
        return _send(client, (data, fmt))
    except ServiceError as exc:
        return f"{exc.code}: {exc.message}"


def run_compress(run: Run) -> Outcome:
    out = Outcome()
    sources = [program_source(derive_seed("compress", run.seed, "op", i),
                              MODULE_CHARS, 1) for i in range(POOL)]
    warm_sources = [program_source(
        derive_seed("compress", run.seed, "warmup", i), MODULE_CHARS, 1)
        for i in range(WARMUP_MODULES)]
    out.detail["inputs_sha256"] = inputs_digest(sources + warm_sources)
    modules = [compile_source(s) for s in sources]
    sent = [save_module(m) for m in modules]
    warm_ops = [(save_module(compile_source(s)), FORMATS[(i // CLIENTS) % 2])
                for i, s in enumerate(warm_sources)]

    def op_at(i):
        m, fmt = op_plan(i)
        return sent[m], fmt

    tracer = Tracer() if run.trace else None
    out.phase("inputs")
    service, setup_s = set_up(run, tracer, lambda svc: None)
    out.phase("set_up")
    try:
        port = service.server.port
        closed_loop(port, warm_ops.__getitem__, CLIENTS, _send,
                    count=len(warm_ops))
        out.phase("warm_up")
        with service.server.client() as admin:
            before = admin.stats()
            if run.trace:
                # a quarter of the time on round trips, the rest on
                # replaying them twice in process
                records, wall = closed_loop(
                    port, op_at, CLIENTS, _send, seconds=run.seconds / 4,
                    min_ops=COUNTED_OPS, tracer=tracer,
                    span_name="service.rtt_compress")
            else:
                records, wall, spare_s = timed_between_set_ups(
                    run, lambda svc: None,
                    lambda seconds, first, min_ops: closed_loop(
                        port, op_at, CLIENTS, _send, seconds=seconds,
                        first=first, min_ops=min_ops), CLIENTS)
                setup_s = median([setup_s] + spare_s)
            out.phase("timed")
            after = admin.stats()
            if not run.trace:
                peak_rss = service.server.peak_rss_mb()
            # the ratios' prefix, should a short run not have reached it
            seen = {op_plan(i) for i, _, _, error in records
                    if error is None}
            missing = {} if run.trace else {
                key: _request(admin, sent[key[0]], key[1])
                for key in map(op_plan, range(RATIO_OPS))
                if key not in seen}
            out.phase("untimed")
    finally:
        service.stop()
    out.phase("stop")

    program = GrammarRegistry(service.registry_dir).program(service.digest)
    grammar_bytes = encode_grammar_compact(program.grammar)
    if run.trace:
        plain_s, traced_s, mismatched = _replay(
            program.grammar, warm_ops, op_at, records, tracer, out)
    verdicts = {}
    containers = {}

    def verdict(key, payload):
        """Check each distinct response once: equal bytes, equal verdict."""
        if not isinstance(payload, bytes):
            return check_compress(sent[key[0]], key[1], payload,
                                  program.grammar, grammar_bytes)[0]
        if (key, payload) not in verdicts:
            verdicts[key, payload] = check_compress(
                sent[key[0]], key[1], payload, program.grammar,
                grammar_bytes)
        error, cmod = verdicts[key, payload]
        if error is None:
            containers.setdefault(key, cmod)
        return error

    for i, _, payload, error in records:
        if error is None:
            error = verdict(op_plan(i), payload)
        if error is None and run.trace and i in mismatched:
            error = "in-process replay differs from the response"
        out.check(i, error)
    for key, payload in missing.items():
        error = verdict(key, payload)
        if error is not None:
            out.check(-1, f"untimed {key[1]} request for module "
                          f"{key[0]}: {error}")
    out.exact.update({"grammar_bytes": len(grammar_bytes),
                      "training.iterations": service.iterations})
    if not run.trace:
        ratio = _prefix_ratios(modules, containers, program)
        out.exact.update({"ratio_rcx1": ratio[0], "ratio_rcx2": ratio[1]})
    delta = stats_delta(before, after, "compress")
    out.detail["server_cache_hit_ratio"] = delta["cache_hit_ratio"]
    out.detail["server_batch_size"] = delta["batch_size"]
    out.detail["module_code_bytes"] = median([m.code_bytes for m in modules])
    out.detail["untimed_requests"] = len(missing)
    out.phase("check")
    n = len(records)
    if not run.trace:
        out.put("setup_s", setup_s, SETUPS)
        latency_metrics(out, [r[1] for r in records], wall)
        for name in ("ratio_rcx1", "ratio_rcx2", "grammar_bytes"):
            out.put(name, out.exact[name], RATIO_OPS)
        out.put("peak_rss_mb", peak_rss)
        return out

    rtts = [r[1] for r in records]
    per_op = tracer.per_op()
    every = [i for i, _, _, _ in records]
    by_fmt = {f: [i for i in every if op_plan(i)[1] == f] for f in FORMATS}
    server_ms = ms(delta["server_s"])
    put = out.put
    put_setup_metrics(out, per_op, service)
    put("grammar.self_ms", ms(median_of(
        per_op, every, "grammar.encode_grammar_compact")), n)
    put("parsing.blocks_ms", ms(median_of(
        per_op, every, "parsing.parse_blocks")), n)
    put("compress.module_ms", ms(median_of(
        per_op, every, "compress.compress_module")), n)
    put("core.program_ms", ms(median_of(per_op, every, "core.program_for")),
        n)
    for fmt, idx in by_fmt.items():
        put(f"storage.save_{fmt}_ms", ms(median_of(
            per_op, idx, f"storage.save_{fmt}")), len(idx))
    put("coding.encode_ms", ms(median_of(
        per_op, by_fmt["rcx2"], "coding.model_for",
        "coding.encode_module_streams")), len(by_fmt["rcx2"]))
    put("compress.cache_hit_ratio", delta["cache_hit_ratio"],
        delta["requests"])
    put("service.rtt_compress_ms", ms(median(rtts)), n)
    put("service.server_ms", server_ms, delta["requests"])
    put("service.wait_ms", server_ms - ms(sum(plain_s) / n), n)
    put("service.batch_size", delta["batch_size"])
    put("unaccounted_ms", ms(sum(rtts) / n) - server_ms, n)
    put("trace_overhead", trace_overhead(plain_s, traced_s), n)
    out.detail["spans"] = tracer
    return out


def _prefix_ratios(modules, containers, program):
    """Over the responses to ops ``0 .. RATIO_OPS - 1``: Σ RCX1 code
    bytes and Σ RCX2 coded payload (without the embedded grammar and
    model), each over Σ original code bytes of its modules."""
    model = model_for(program)
    coded = {fmt: 0 for fmt in FORMATS}
    original = {fmt: 0 for fmt in FORMATS}
    for key in map(op_plan, range(RATIO_OPS)):
        cmod = containers.get(key)
        if cmod is None:  # a failed op: the run is already incorrect
            return 0.0, 0.0
        m, fmt = key
        codes = [p.code for p in cmod.procedures]
        coded[fmt] += cmod.code_bytes if fmt == "rcx1" else len(
            encode_module_streams(program, model, codes))
        original[fmt] += modules[m].code_bytes
    return tuple(coded[f] / original[f] for f in FORMATS)


def _compress_one(compressor, data, fmt, tracer=None):
    """What the server's batch worker does for one ``compress`` job."""
    span = spans_of(tracer)
    with span("storage.load_module"):
        module = load_module(data)
    with span("compress.compress_module"):
        cmod = compressor.compress_module(module)
    with span(f"storage.save_{fmt}"):
        return save_compressed(cmod, format=fmt)


def _replay(grammar, warm_ops, op_at, records, tracer: Tracer,
            out: Outcome):
    """Replay every request in process through the server's own calls:
    once plainly and once inside spans, on two compressors warmed alike
    (so both see the cache state the server saw)."""
    plain = Compressor(grammar, cache_size=4096)
    traced = Compressor(grammar, cache_size=4096)
    # The benchmark's own long-lived objects stay out of the collector's
    # way, as a server's would not be there: full collections during the
    # replay cost what the replayed work allocates.
    gc.collect()
    gc.freeze()
    for data, fmt in warm_ops:
        for compressor in (plain, traced):
            _compress_one(compressor, data, fmt)
    plain_s, traced_s = [], []
    mismatched = set()
    built = 0
    orders = pass_orders(len(records))
    for k, (i, _, response, _) in enumerate(records):
        data, fmt = op_at(i)
        for which in orders[k]:
            begin = time.perf_counter()
            if which == 0:
                expect = _compress_one(plain, data, fmt)
                plain_s.append(time.perf_counter() - begin)
                continue
            programs = sum(GrammarProgram.constructions.values())
            with tracer.patched(PATCHES), tracer.span("op", op=i):
                payload = _compress_one(traced, data, fmt, tracer)
            traced_s.append(time.perf_counter() - begin)
            if k < COUNTED_OPS:
                built += sum(GrammarProgram.constructions.values()) \
                    - programs
        if payload != expect or response not in (None, expect):
            mismatched.add(i)
    gc.unfreeze()
    out.put("core.programs_built", built, COUNTED_OPS)
    out.exact["core.programs_built"] = built
    return plain_s, traced_s, mismatched
