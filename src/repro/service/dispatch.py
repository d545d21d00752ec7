"""The fleet dispatcher: one accept loop, N worker processes.

The single-process :class:`CompressionService` pins the whole box on one
CPU-bound compress.  The dispatcher shares its front door — the wire
protocol, the connection loop and the lifecycle of
:class:`~repro.service.protocol.FrameServer` — but does none of the work
itself: it accepts client connections, picks a worker, and relays the
request envelope over a pooled connection, so bulk payloads cross the
dispatcher raw.

Routing is **grammar-affine**: requests that name a grammar (compress)
hash the *resolved content digest* onto a worker index, so all traffic
for one grammar lands on the same worker and its precompiled
GrammarProgram, micro-batcher, and derivation cache stay hot — the
multi-process analogue of the in-process per-grammar worker map.
Everything else round-robins.  If the affine worker is down the request
slides to the next live index: colder cache beats an error.

Failure contract: a worker that dies mid-request (crash, OOM-kill,
rolling restart) surfaces as a structured, retryable ``worker_lost``
error — the supervisor is already respawning the worker, so the client's
existing :class:`RetryPolicy` absorbs the blip.  The work methods are
idempotent (compress is a pure function of its inputs; ``grammar.put``
is content-addressed), so the retry is always safe.

``stats`` aggregates the fleet: worker snapshots are merged (counters
sum, histogram buckets sum, means recomputed) and a ``fleet`` section
reports per-worker liveness, restarts, and routing counts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from typing import Dict, List, Optional, Tuple

from ..registry import GrammarRegistry, RegistryError
from . import protocol
from .metrics import merge_stats, scan_summary
from .pool import WorkerHandle, WorkerPool
from .protocol import FrameError, FrameServer, ServiceError

__all__ = ["FleetDispatcher"]

#: methods the dispatcher answers locally (fleet-level views)
_LOCAL = frozenset(["health", "stats"])
#: methods subject to drain rejection
_WORK = frozenset(["compress", "decompress", "run_compressed",
                   "grammar.put"])


def _affinity(digest: str, n: int) -> int:
    """Stable grammar->worker mapping: first 4 bytes of sha256 of the
    content digest, mod fleet size."""
    raw = hashlib.sha256(digest.encode("ascii")).digest()
    return int.from_bytes(raw[:4], "big") % n


class _WorkerConn:
    """One pooled dispatcher->worker connection."""

    __slots__ = ("reader", "writer", "generation")

    def __init__(self, reader, writer, generation: int) -> None:
        self.reader = reader
        self.writer = writer
        self.generation = generation

    def close(self) -> None:
        try:
            self.writer.close()
        except Exception:  # noqa: BLE001 — teardown best-effort
            pass


class FleetDispatcher(FrameServer):
    """Accepts client connections and routes to a :class:`WorkerPool`.

    Drop-in for :class:`CompressionService` at the lifecycle level (both
    are a :class:`FrameServer`).  ``worker_config`` is passed through to
    each worker's ``CompressionService``.
    """

    def __init__(self, registry_path: str, *, workers: int,
                 worker_config: Optional[dict] = None,
                 request_timeout: float = 30.0,
                 integrity_scan: bool = True) -> None:
        if workers < 1:
            raise ValueError("fleet needs at least one worker")
        super().__init__()
        self.registry_path = str(registry_path)
        self.registry = GrammarRegistry(registry_path)
        self.request_timeout = request_timeout
        self.integrity_scan = integrity_scan
        self.startup_report: Optional[Dict] = None
        worker_config = dict(worker_config or {})
        worker_config.setdefault("request_timeout", request_timeout)
        self.pool = WorkerPool(self.registry_path, workers,
                               worker_config=worker_config,
                               on_worker_change=self._worker_changed)
        self.started = time.monotonic()
        self._draining = False
        self._pending = 0
        self._rr = 0  # round-robin cursor for non-affine methods
        self._routed = 0
        self._worker_lost_total = 0
        self._conns: List[List[_WorkerConn]] = [[] for _ in range(workers)]

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = protocol.DEFAULT_PORT) -> None:
        if self.integrity_scan:
            # heal once, centrally — workers skip their own scan so N
            # processes never race the same quarantine/repair renames
            self.startup_report = self.registry.startup_scan()
        await self.pool.start()
        await self._listen(host, port)

    async def stop(self, grace: float = 30.0) -> None:
        """Fleet drain: reject new work, let in-flight requests finish,
        drain every worker, then tear down the listener."""
        self._draining = True
        deadline = time.monotonic() + grace
        while self._pending > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await self.pool.stop(grace=max(1.0, deadline - time.monotonic()))
        await self._close_listener()
        for conns in self._conns:
            while conns:
                conns.pop().close()

    # -- supervision hooks --------------------------------------------------

    def _worker_changed(self, handle: WorkerHandle) -> None:
        """A worker went down or came back: pooled connections to any
        other incarnation of that slot are dead weight — drop them."""
        conns = self._conns[handle.index]
        stale = [c for c in conns if c.generation != handle.generation
                 or not handle.up]
        for conn in stale:
            conns.remove(conn)
            conn.close()

    # -- requests -----------------------------------------------------------

    async def _handle_request(self, msg: dict) -> dict:
        req_id = msg.get("id")
        method = msg.get("method")
        params = msg.get("params") or {}
        if not isinstance(method, str) or not isinstance(params, dict):
            return protocol.error_body(
                req_id, protocol.E_BAD_REQUEST,
                "request needs a string 'method' and object 'params'")
        if method in _LOCAL:
            try:
                if method == "health":
                    return protocol.result_body(req_id, self._health())
                return protocol.result_body(req_id, await self._stats())
            except Exception as exc:  # noqa: BLE001 — never kill reader
                return protocol.error_body(req_id, protocol.E_INTERNAL,
                                           repr(exc))
        if self._draining and method in _WORK:
            # the uniform mid-drain answer, regardless of which worker
            # the request would have routed to
            return protocol.error_body(req_id, protocol.E_SHUTTING_DOWN,
                                       "fleet is draining")
        self._pending += 1
        try:
            try:
                index = self._pick(method, params)
                self._routed += 1
                return await asyncio.wait_for(
                    self._forward(index, msg),
                    self.request_timeout + 5.0)
            except asyncio.TimeoutError:
                return protocol.error_body(
                    req_id, protocol.E_TIMEOUT,
                    f"fleet request exceeded "
                    f"{self.request_timeout + 5.0:g}s")
            except ServiceError as exc:
                if exc.code == protocol.E_WORKER_LOST:
                    self._worker_lost_total += 1
                return protocol.error_body(req_id, exc.code, exc.message)
            except Exception as exc:  # noqa: BLE001
                return protocol.error_body(req_id, protocol.E_INTERNAL,
                                           repr(exc))
        finally:
            self._pending -= 1

    # -- routing ------------------------------------------------------------

    def _pick(self, method: str, params: dict) -> int:
        """Choose a worker index: grammar affinity when the request
        names a grammar, round-robin otherwise."""
        up = self.pool.up_indices()
        if not up:
            raise ServiceError(
                protocol.E_WORKER_LOST,
                "no fleet worker is up (restarting); safe to retry")
        ref = params.get("grammar")
        if isinstance(ref, str) and ref:
            try:
                digest = self.registry.resolve(ref)
            except Exception:  # noqa: BLE001 — RegistryError and worse
                # unknown ref: still route consistently on the raw ref
                # so the worker's not_found answer stays affine too
                digest = ref
            want = _affinity(digest, self.pool.size)
            # slide forward to the nearest live worker
            for offset in range(self.pool.size):
                index = (want + offset) % self.pool.size
                handle = self.pool.workers[index]
                if handle is not None and handle.up:
                    return index
        self._rr += 1
        return up[self._rr % len(up)]

    # -- forwarding ---------------------------------------------------------

    async def _checkout(self, index: int) -> _WorkerConn:
        handle = self.pool.workers[index]
        if handle is None or not handle.up:
            raise ServiceError(
                protocol.E_WORKER_LOST,
                f"worker {index} is down (restarting); safe to retry")
        conns = self._conns[index]
        while conns:
            conn = conns.pop()
            if conn.generation == handle.generation:
                return conn
            conn.close()
        try:
            if handle.addr.startswith("unix:"):
                reader, writer = await asyncio.open_unix_connection(
                    handle.addr[len("unix:"):])
            else:
                _, host, port = handle.addr.split(":")
                reader, writer = await asyncio.open_connection(
                    host, int(port))
        except (ConnectionError, OSError) as exc:
            raise ServiceError(
                protocol.E_WORKER_LOST,
                f"worker {index} unreachable ({exc}); "
                "safe to retry") from None
        return _WorkerConn(reader, writer, handle.generation)

    async def _forward(self, index: int, msg: dict) -> dict:
        """Relay one envelope to a worker."""
        conn = await self._checkout(index)
        try:
            await protocol.write_message(conn.writer, msg)
            reply = await protocol.read_message(conn.reader)
        except asyncio.CancelledError:
            conn.close()
            raise
        except (ConnectionError, FrameError, OSError) as exc:
            conn.close()
            raise ServiceError(
                protocol.E_WORKER_LOST,
                f"worker {index} dropped the request ({exc}); "
                "safe to retry") from None
        if reply is None:
            conn.close()
            raise ServiceError(
                protocol.E_WORKER_LOST,
                f"worker {index} hung up mid-request; safe to retry")
        handle = self.pool.workers[index]
        if handle is not None and handle.up \
                and conn.generation == handle.generation:
            self._conns[index].append(conn)  # still warm: pool it
        else:
            conn.close()
        return reply

    # -- fleet-local methods ------------------------------------------------

    def _health(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "uptime_seconds": time.monotonic() - self.started,
            "pending": self._pending,
            "workers": {
                "count": self.pool.size,
                "alive": self.pool.alive(),
                "restarts_total": self.pool.restarts_total,
            },
        }

    async def _stats(self) -> dict:
        """Aggregate worker snapshots plus the fleet's own section."""
        async def _one(index: int) -> Optional[Tuple[int, dict]]:
            try:
                reply = await asyncio.wait_for(
                    self._forward(index, {"id": 0, "method": "stats",
                                          "params": {}}), 10.0)
            except (ServiceError, asyncio.TimeoutError):
                return None
            if not reply.get("ok"):
                return None
            return index, reply["result"]

        replies = [r for r in await asyncio.gather(
            *(_one(i) for i in self.pool.up_indices())) if r is not None]
        merged = merge_stats([snap for _, snap in replies])
        per_worker = {}
        for index, handle in enumerate(self.pool.workers):
            if handle is None:
                continue
            snap = dict(next((s for i, s in replies if i == index), {}))
            per_worker[str(index)] = {
                "pid": handle.pid,
                "up": handle.up,
                "generation": handle.generation,
                "restarts": handle.restarts,
                "uptime_seconds": time.monotonic() - handle.started,
                "requests_total": sum(
                    (snap.get("counters") or {})
                    .get("requests_total", {}).values()),
            }
        merged["fleet"] = {
            "workers": self.pool.size,
            "alive": self.pool.alive(),
            "restarts_total": self.pool.restarts_total,
            "routed": self._routed,
            "worker_lost_total": self._worker_lost_total,
            "per_worker": per_worker,
        }
        registry = merged.setdefault("registry", {})
        if self.startup_report is not None:
            registry["startup_scan"] = scan_summary(self.startup_report)
        return merged
