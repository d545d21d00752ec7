"""The asyncio compression server.

Request lifecycle for a ``compress`` call::

    connection -> frame -> admission control -> per-grammar queue
       -> micro-batch -> thread pool (tiling DP) -> response frame

Admission control is two-layered, per the load-shedding playbook: a
high-water mark on accepted-but-unfinished requests *rejects* new work
with an ``overloaded`` error the moment the backlog is past it (bounded
queue, so latency stays bounded), and a semaphore *caps* how many
batches actually occupy executor threads at once.  Compression requests
for the same grammar are micro-batched: the per-grammar worker waits
``batch_window`` seconds after the first job, drains whatever else has
queued, and runs the whole batch through one :class:`Compressor` whose
:class:`DerivationCache` is shared across batches — repeated blocks
across *different* client programs hit the warm cache.

Every request is bounded by ``request_timeout``; on expiry the client
gets a structured ``timeout`` error instead of a hung socket (the
underlying computation is left to finish in its thread — Python threads
cannot be killed — but its result is discarded).  A request envelope may
carry a ``deadline`` (seconds of client budget remaining); the server
clamps its own timeout to it, so work the client has already given up on
is cut off rather than computed into the void.

``serve_until_stopped`` (shared with the fleet dispatcher through
:class:`~repro.service.protocol.FrameServer`) installs SIGTERM/SIGINT
handlers that begin a *drain*: in-flight requests finish, new work (and
clients that connect mid-drain) get a structured, retryable
``shutting_down`` error frame — never a silent connection reset — and
only then does the listener close.

Resilience: the registry is integrity-scanned (quarantine + repair)
before the first byte is served, and ``run_compressed`` runs behind a
per-grammar circuit breaker — an unexpected compiled-engine fault falls
back to the reference interpreter for that request (``fallback``), and a
grammar that keeps faulting is quarantined so requests skip the compiled
engine entirely (``degraded``) until a cooldown probe succeeds.  Both
are surfaced by the ``stats`` method.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import hashlib

from ..bytecode.module import Module
from ..bytecode.validate import ValidationError
from ..coding.model import ModelMissingError
from ..compress.compressor import Compressor
from ..compress.container import CONTAINER_FORMATS
from ..compress.decompress import decompress_module
from ..grammar.serialize import encode_grammar_compact
from ..interp.compiled import CompiledEngine
from ..interp.interp2 import Interpreter2
from ..interp.runtime import run_program
from ..interp.sandbox import (
    NativeCrashError,
    NativeHangError,
    NativeSandbox,
    request_digest,
)
from ..registry import GrammarRegistry, RegistryError
from ..registry.registry import poison_key
from ..storage import (
    StorageError,
    load_any,
    load_compressed,
    load_module,
    save_compressed,
    save_module,
)
from . import protocol
from .breaker import CircuitBreaker
from .metrics import ServiceMetrics, scan_summary
from .protocol import FrameError, FrameServer, ServiceError, b64d

__all__ = ["CompressionService", "ServiceError"]

#: most compression jobs one micro-batch takes off a grammar's queue
_MAX_BATCH = 64
#: entries in each grammar's shared derivation cache
_CACHE_SIZE = 4096


class _Job:
    """One queued compression request awaiting its batch."""

    __slots__ = ("module_data", "format", "future", "enqueued")

    def __init__(self, module_data: bytes, format: str,
                 future: "asyncio.Future") -> None:
        self.module_data = module_data
        self.format = format
        self.future = future
        self.enqueued = time.monotonic()


class _GrammarWorker:
    """Per-grammar micro-batcher: queue + shared compressor + task."""

    def __init__(self, service: "CompressionService", digest: str,
                 compressor: Compressor) -> None:
        self.service = service
        self.digest = digest
        self.compressor = compressor
        self.queue: "asyncio.Queue[_Job]" = asyncio.Queue()
        self.batches = 0
        self.jobs = 0
        self.task = asyncio.get_running_loop().create_task(
            self._run(), name=f"grammar-worker-{digest[:8]}")

    async def _run(self) -> None:
        svc = self.service
        while True:
            batch = [await self.queue.get()]
            if svc.batch_window > 0:
                # Let near-simultaneous requests coalesce: the window is
                # tiny next to compression time but long next to frame
                # parsing, so concurrent clients land in one batch.
                await asyncio.sleep(svc.batch_window)
            while len(batch) < _MAX_BATCH:
                try:
                    batch.append(self.queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            async with svc._inflight:
                results = await asyncio.get_running_loop().run_in_executor(
                    svc._executor, self._compress_batch,
                    [(job.module_data, job.format) for job in batch])
            self.batches += 1
            self.jobs += len(batch)
            svc.metrics.observe_batch(len(batch))
            for job, (err, payload) in zip(batch, results):
                if job.future.done():  # timed out or client went away
                    continue
                if err is None:
                    job.future.set_result(payload)
                else:
                    job.future.set_exception(err)

    def _compress_batch(self, jobs: List[Tuple[bytes, str]],
                        ) -> List[Tuple]:
        """Runs on an executor thread.  One compressor, warm cache; a bad
        module fails its own job, never the batch."""
        out: List[Tuple] = []
        for data, format in jobs:
            try:
                try:
                    module = load_module(data)
                except Exception as exc:  # noqa: BLE001 — client bytes
                    raise ServiceError(
                        protocol.E_BAD_REQUEST,
                        f"not a valid RBC1 module: {exc}") from None
                cmod = self.compressor.compress_module(module)
                try:
                    payload = save_compressed(cmod, format=format)
                except ModelMissingError as exc:
                    # Retryable by contract: retraining and re-tagging
                    # the grammar fixes it without a client change.
                    raise ServiceError(protocol.E_MODEL_MISSING,
                                       str(exc)) from None
                out.append((None, {
                    "data": payload,
                    "grammar": self.digest,
                    "format": format,
                    "original_code_bytes": module.code_bytes,
                    "compressed_code_bytes": cmod.code_bytes,
                    "coded_bytes": len(payload),
                }))
            except ServiceError as exc:
                out.append((exc, None))
            except (StorageError, ValidationError, ValueError) as exc:
                out.append((ServiceError(protocol.E_BAD_REQUEST,
                                         str(exc)), None))
            except Exception as exc:  # noqa: BLE001 — isolate the batch
                out.append((ServiceError(protocol.E_INTERNAL,
                                         repr(exc)), None))
        return out


class CompressionService(FrameServer):
    """See module docstring.

    ``high_water`` bounds accepted-but-unfinished work requests (the
    overload trip wire); ``max_inflight`` caps concurrently executing
    batches and sizes the thread pool; ``batch_window`` is the
    coalescing delay.
    """

    def __init__(self, registry: GrammarRegistry, *,
                 max_inflight: int = 4,
                 high_water: int = 64,
                 request_timeout: float = 30.0,
                 batch_window: float = 0.002,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 30.0,
                 integrity_scan: bool = True,
                 exec_budget: int = 0,
                 native_watchdog: float = 10.0) -> None:
        super().__init__()
        self.registry = registry
        self.max_inflight = max_inflight
        self.high_water = high_water
        self.request_timeout = request_timeout
        self.batch_window = batch_window
        self.integrity_scan = integrity_scan
        self.exec_budget = int(exec_budget or 0)
        self.native_watchdog = float(native_watchdog)
        self._sandbox: Optional[NativeSandbox] = None
        self._sandbox_lock = threading.Lock()
        self.startup_report: Optional[Dict] = None
        self.engine_breaker = CircuitBreaker(threshold=breaker_threshold,
                                             cooldown=breaker_cooldown)
        self.metrics = ServiceMetrics()
        self._pending = 0
        self._draining = False
        self._workers: Dict[str, _GrammarWorker] = {}
        self._worker_lock: Optional[asyncio.Lock] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._idle: Optional[asyncio.Event] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = protocol.DEFAULT_PORT, *,
                    unix_path: Optional[str] = None) -> None:
        """Bind and start serving; ``unix_path`` binds a Unix domain
        socket instead of TCP (the fleet's dispatcher-to-worker hop)."""
        if self.integrity_scan:
            # Self-heal before serving: quarantine corrupt objects,
            # regenerate metadata, drop dangling tags, reap crash debris.
            self.startup_report = self.registry.startup_scan()
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._worker_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_inflight,
            thread_name_prefix="repro-service")
        await self._listen(host, port, unix_path)

    async def stop(self, grace: float = 30.0) -> None:
        """Drain in-flight requests, then stop accepting and tear down.

        The listener stays open through the drain on purpose: a client
        that connects mid-drain gets a structured, retryable
        ``shutting_down`` error frame (and `health` reports
        ``draining``), never a silent connection reset.
        """
        self._draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), grace)
        except asyncio.TimeoutError:
            pass  # grace expired: abandon stragglers
        await self._close_listener()
        for worker in self._workers.values():
            worker.task.cancel()
        if self._workers:
            await asyncio.gather(
                *(w.task for w in self._workers.values()),
                return_exceptions=True)
        self._workers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        if self._sandbox is not None:
            self._sandbox.close()
            self._sandbox = None

    # -- requests -----------------------------------------------------------

    async def _handle_request(self, msg: dict) -> dict:
        req_id = msg.get("id")
        method = msg.get("method")
        params = msg.get("params") or {}
        deadline = msg.get("deadline")
        if not isinstance(deadline, (int, float)) \
                or isinstance(deadline, bool):
            deadline = None
        start = time.monotonic()
        if not isinstance(method, str) or not isinstance(params, dict):
            self.metrics.observe_request(
                str(method), protocol.E_BAD_REQUEST,
                time.monotonic() - start)
            return protocol.error_body(
                req_id, protocol.E_BAD_REQUEST,
                "request needs a string 'method' and object 'params'")
        try:
            result = await self._dispatch(method, params, deadline)
            outcome = "ok"
            response = protocol.result_body(req_id, result)
        except ServiceError as exc:
            outcome = exc.code
            response = protocol.error_body(req_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 — never kill the reader
            outcome = protocol.E_INTERNAL
            response = protocol.error_body(
                req_id, protocol.E_INTERNAL, repr(exc))
        self.metrics.observe_request(method, outcome,
                                     time.monotonic() - start)
        return response

    # -- dispatch -----------------------------------------------------------

    _ADMIN = frozenset(["health", "stats", "grammar.list", "grammar.get"])
    _WORK = frozenset(["compress", "decompress", "run_compressed",
                       "grammar.put"])

    async def _dispatch(self, method: str, params: dict,
                        deadline: Optional[float] = None) -> dict:
        if method in self._ADMIN:
            handler = getattr(self, "_m_" + method.replace(".", "_"))
            return await handler(params)
        if method not in self._WORK:
            raise ServiceError(protocol.E_BAD_REQUEST,
                               f"unknown method {method!r}")
        # admission control for work methods
        if self._draining:
            raise ServiceError(protocol.E_SHUTTING_DOWN,
                               "server is draining")
        if self._pending >= self.high_water:
            raise ServiceError(
                protocol.E_OVERLOADED,
                f"backlog {self._pending} at high-water mark "
                f"{self.high_water}; retry with backoff")
        # deadline propagation: never compute longer than the client
        # will wait for the answer
        timeout = self.request_timeout
        if deadline is not None:
            timeout = min(timeout, max(0.0, float(deadline)))
            if timeout <= 0:
                raise ServiceError(protocol.E_TIMEOUT,
                                   "client deadline already exhausted")
        self._pending += 1
        self._idle.clear()
        try:
            handler = getattr(self, "_m_" + method.replace(".", "_"))
            return await asyncio.wait_for(handler(params), timeout)
        except asyncio.TimeoutError:
            raise ServiceError(
                protocol.E_TIMEOUT,
                f"request exceeded {timeout:g}s") from None
        finally:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    # -- param helpers ------------------------------------------------------

    @staticmethod
    def _data_param(params: dict, key: str = "data") -> bytes:
        value = params.get(key)
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)  # the frame's payload: arrived raw
        # a secondary bytes field (run_compressed's ``input``) rides
        # base64-encoded in the frame header
        if not isinstance(value, str):
            raise ServiceError(protocol.E_BAD_REQUEST,
                               f"missing binary param {key!r}")
        try:
            return b64d(value)
        except FrameError as exc:
            raise ServiceError(protocol.E_BAD_REQUEST, str(exc)) from None

    @staticmethod
    def _ref_param(params: dict, key: str = "grammar") -> str:
        value = params.get(key)
        if not isinstance(value, str) or not value:
            raise ServiceError(protocol.E_BAD_REQUEST,
                               f"missing grammar reference param {key!r}")
        return value

    async def _in_executor(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args)

    def _native_sandbox(self) -> NativeSandbox:
        """The lazily-spawned, pooled helper (shared by all requests;
        NativeSandbox serializes its own pipe traffic)."""
        with self._sandbox_lock:
            if self._sandbox is None:
                self._sandbox = NativeSandbox(timeout=self.native_watchdog)
            return self._sandbox

    async def _worker_for(self, ref: str) -> _GrammarWorker:
        try:
            digest = self.registry.resolve(ref)
        except RegistryError as exc:
            raise ServiceError(protocol.E_NOT_FOUND, str(exc)) from None
        worker = self._workers.get(digest)
        if worker is not None:
            return worker
        async with self._worker_lock:
            worker = self._workers.get(digest)
            if worker is None:
                # One precompiled program per digest: the worker's
                # compressor, batching, and derivation cache all hang
                # off the registry's shared GrammarProgram instance.
                program = await self._in_executor(
                    self.registry.program, digest)
                worker = _GrammarWorker(
                    self, digest,
                    Compressor(program.grammar, cache_size=_CACHE_SIZE))
                self._workers[digest] = worker
            return worker

    # -- methods ------------------------------------------------------------

    async def _m_health(self, params: dict) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self.metrics.started,
            "pending": self._pending,
            "high_water": self.high_water,
            "grammars_loaded": len(self._workers),
        }

    async def _m_stats(self, params: dict) -> dict:
        snap = self.metrics.snapshot()
        snap["pending"] = self._pending
        snap["grammars"] = {
            digest[:12]: {
                "batches": worker.batches,
                "jobs": worker.jobs,
                "derivation_cache": worker.compressor.cache_stats(),
            }
            for digest, worker in self._workers.items()
        }
        snap["registry"] = {
            "grammars": len(self.registry),
            "lru": self.registry.cache_info(),
        }
        if self.startup_report is not None:
            snap["registry"]["startup_scan"] = scan_summary(
                self.startup_report)
        snap["engine"] = {
            "fallback": self.metrics.engine_events.value("fallback"),
            "degraded": self.metrics.engine_events.value("degraded"),
            "native_crash":
                self.metrics.engine_events.value("native_crash"),
            "native_hang":
                self.metrics.engine_events.value("native_hang"),
            "poison_fastfail":
                self.metrics.engine_events.value("poison_fastfail"),
            "exec_budget": self.exec_budget,
            "breakers": {key[:12]: state for key, state
                         in self.engine_breaker.snapshot().items()},
            "quarantined": [key[:12] for key
                            in self.engine_breaker.open_keys()],
            "poisoned": [rec.get("key", "")[:12]
                         for rec in self.registry.poison_list()],
        }
        if self._sandbox is not None:
            snap["engine"]["sandbox"] = dict(self._sandbox.stats)
        return snap

    async def _m_grammar_list(self, params: dict) -> dict:
        grammars = await self._in_executor(self.registry.list)
        return {"grammars": grammars, "tags": self.registry.tags()}

    async def _m_grammar_get(self, params: dict) -> dict:
        ref = self._ref_param(params, "ref")
        try:
            data = await self._in_executor(self.registry.get_bytes, ref)
            meta = self.registry.meta(ref)
        except RegistryError as exc:
            raise ServiceError(protocol.E_NOT_FOUND, str(exc)) from None
        self.metrics.add_bytes("out", len(data))
        return {"data": data, "meta": meta}

    async def _m_grammar_put(self, params: dict) -> dict:
        data = self._data_param(params)
        tags = params.get("tags", [])
        if not (isinstance(tags, list)
                and all(isinstance(t, str) for t in tags)):
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "'tags' must be a list of strings")
        meta = params.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "'meta' must be an object")
        self.metrics.add_bytes("in", len(data))

        def _put() -> str:
            return self.registry.put_bytes(data, tags=tags, meta=meta)

        try:
            digest = await self._in_executor(_put)
        except (StorageError, RegistryError, ValueError) as exc:
            raise ServiceError(protocol.E_BAD_REQUEST, str(exc)) from None
        return {"hash": digest, "meta": self.registry.meta(digest)}

    async def _m_compress(self, params: dict) -> dict:
        module_data = self._data_param(params, "module")
        format = params.get("format", "rcx1")
        if format not in CONTAINER_FORMATS:
            raise ServiceError(
                protocol.E_BAD_REQUEST,
                f"unknown container format {format!r} "
                f"(expected one of {list(CONTAINER_FORMATS)})")
        self.metrics.add_bytes("in", len(module_data))
        worker = await self._worker_for(self._ref_param(params))
        future = asyncio.get_running_loop().create_future()
        worker.queue.put_nowait(_Job(module_data, format, future))
        result = await future  # timeout applied by _dispatch's wait_for
        self.metrics.add_bytes("out", len(result["data"]))
        self.metrics.observe_compress(format, result["coded_bytes"])
        return result

    async def _m_decompress(self, params: dict) -> dict:
        data = self._data_param(params, "module")
        self.metrics.add_bytes("in", len(data))

        def _work() -> bytes:
            try:
                cmod = load_compressed(data)
            except Exception as exc:  # noqa: BLE001 — client bytes
                raise ServiceError(
                    protocol.E_BAD_REQUEST,
                    f"not a valid RCX1/RCX2 module: {exc}") from None
            return save_module(decompress_module(cmod))

        async with self._inflight:
            try:
                payload = await self._in_executor(_work)
            except (StorageError, ValidationError, ValueError) as exc:
                raise ServiceError(protocol.E_BAD_REQUEST,
                                   str(exc)) from None
        self.metrics.add_bytes("out", len(payload))
        return {"data": payload}

    async def _m_run_compressed(self, params: dict) -> dict:
        data = self._data_param(params, "module")
        self.metrics.add_bytes("in", len(data))
        args = params.get("args", [])
        if not (isinstance(args, list)
                and all(isinstance(a, int) for a in args)):
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "'args' must be a list of integers")
        input_data = (self._data_param(params, "input")
                      if "input" in params else b"")
        engine = params.get("engine", "compiled")
        if engine not in ("compiled", "reference", "native"):
            raise ServiceError(
                protocol.E_BAD_REQUEST,
                "'engine' must be 'compiled', 'reference' or 'native'")
        # The effective dispatch budget: the server-wide cap, tightened
        # (never loosened) by a per-request 'budget' param.
        budget = self.exec_budget
        req_budget = params.get("budget", 0)
        if not isinstance(req_budget, int) or isinstance(req_budget, bool) \
                or req_budget < 0:
            raise ServiceError(protocol.E_BAD_REQUEST,
                               "'budget' must be a non-negative integer")
        if req_budget:
            budget = min(budget, req_budget) if budget else req_budget

        def _run(program, executor) -> Tuple[int, bytes]:
            return run_program(program, executor(program), *args,
                               input_data=input_data, budget=budget)

        def _run_compiled(program, key: str) -> Tuple[str, int, bytes]:
            """Compiled engine behind the per-grammar circuit breaker;
            unexpected engine faults fall back to the reference
            interpreter (a fresh machine — no partial state leaks)."""
            if not self.engine_breaker.allow(key):
                # quarantined: skip the doomed attempt entirely
                self.metrics.engine_events.inc("degraded")
                return ("reference_degraded",
                        *_run(program, Interpreter2))
            try:
                code, output = _run(program, CompiledEngine)
            except RuntimeError:
                # Trap / machine fault: the *program's* fault, identical
                # on both engines by the equivalence suite — not an
                # engine failure.
                self.engine_breaker.record_success(key)
                raise
            except ServiceError:
                raise
            except Exception:  # noqa: BLE001 — engine fault: fall back
                self.engine_breaker.record_failure(key)
                self.metrics.engine_events.inc("fallback")
                return ("reference_fallback",
                        *_run(program, Interpreter2))
            self.engine_breaker.record_success(key)
            return "compiled", code, output

        def _run_native(program, gkey: str) -> Tuple[str, int, bytes]:
            """Native engine: quarantine check, then the sandboxed run,
            behind its own per-grammar breaker slot.

            Outcomes: a poison hit or a fresh crash/hang raises a
            non-retryable ``poison_input`` (and feeds the breaker, so
            a grammar whose requests keep breaking the engine degrades
            to the compiled path for *healthy* traffic too); a missing
            compiler or failed build/load falls back to the compiled
            Python path; program traps propagate — identical on every
            engine by the four-engine equivalence suite."""
            key = "native:" + gkey
            rdigest = request_digest(data, args, input_data)
            pkey = poison_key(gkey, rdigest)
            verdict = self.registry.check_poison(pkey)
            if verdict is not None:
                # Known poison: fail fast, before the engine (or even
                # the breaker) sees the request again.
                self.metrics.engine_events.inc("poison_fastfail")
                raise ServiceError(
                    protocol.E_POISON_INPUT,
                    f"request {rdigest[:12]} is quarantined after a "
                    f"native-engine {verdict.get('verdict', 'crash')}: "
                    f"{verdict.get('detail', '')}".rstrip(": "))
            if not self.engine_breaker.allow(key):
                self.metrics.engine_events.inc("degraded")
                _, code, output = _run_compiled(program, gkey)
                return "compiled_degraded", code, output
            try:
                run = self._native_sandbox().run(
                    data, args, input_data, budget=budget,
                    content_key=gkey)
            except RuntimeError:
                # Trap / machine fault: the program's own fault.
                self.engine_breaker.record_success(key)
                raise
            except ServiceError:
                raise
            except (NativeCrashError, NativeHangError) as exc:
                # The request broke the engine: record the verdict
                # (durable, fleet-wide), count it, feed the breaker,
                # and fail the client non-retryably.
                what = ("hang" if isinstance(exc, NativeHangError)
                        else "crash")
                self.registry.record_poison(
                    pkey, what, content_key=gkey,
                    request_digest=rdigest, detail=str(exc))
                self.engine_breaker.record_failure(key)
                self.metrics.engine_events.inc(f"native_{what}")
                raise ServiceError(protocol.E_POISON_INPUT,
                                   str(exc)) from None
            except Exception:  # noqa: BLE001 — build or engine fault
                self.engine_breaker.record_failure(key)
                self.metrics.engine_events.inc("fallback")
                _, code, output = _run_compiled(program, gkey)
                return "compiled_fallback", code, output
            self.engine_breaker.record_success(key)
            return "native", run.code, run.output

        def _work() -> Tuple[str, int, bytes]:
            try:
                program = load_any(data)
            except Exception as exc:  # noqa: BLE001 — client bytes
                raise ServiceError(
                    protocol.E_BAD_REQUEST,
                    f"not a valid module: {exc}") from None
            if isinstance(program, Module):
                raise ServiceError(
                    protocol.E_BAD_REQUEST,
                    "run_compressed needs an RCX1/RCX2 compressed module")
            if engine == "reference":
                return ("reference", *_run(program, Interpreter2))
            # One grammar key per request: it names the breaker slots
            # and, for native runs, the poison verdict.
            gkey = hashlib.sha256(
                encode_grammar_compact(program.grammar)).hexdigest()
            if engine == "native":
                return _run_native(program, gkey)
            return _run_compiled(program, gkey)

        async with self._inflight:
            try:
                used, code, output = await self._in_executor(_work)
            except (StorageError, ValidationError, ValueError) as exc:
                raise ServiceError(protocol.E_BAD_REQUEST,
                                   str(exc)) from None
            except RuntimeError as exc:  # Trap / machine fault
                raise ServiceError(protocol.E_TRAP, str(exc)) from None
        self.metrics.add_bytes("out", len(output))
        return {"code": code, "output": output, "engine": used}
