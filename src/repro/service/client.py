"""The client for the compression service.

:class:`ServiceClient` is a plain blocking-socket client — no asyncio in
the caller's process, usable from threads (one connection per instance;
instances are not thread-safe, share nothing or use one per thread).
It raises :class:`ServiceError` carrying the server's structured error
code (``overloaded``, ``timeout``, ``not_found``, ...).

Retry is built in: pass a :class:`~repro.service.retry.RetryPolicy` and
every call retries retryable failures — the server's ``overloaded`` /
``timeout`` / ``shutting_down`` codes plus client-side ``transport``
failures (connection reset, torn frame, refused connect) — with
exponential backoff and full jitter, reconnecting transparently after a
transport failure.  Non-retryable codes (``bad_request``, ``not_found``,
``trap``, ``internal``) raise immediately; when attempts are exhausted
the *last* structured error is raised, so the caller still sees exactly
what the server said.

A ``deadline`` (seconds of total budget for the call, retries included)
bounds the loop: sleeps never exceed the remaining budget, the remaining
budget travels to the server in each request envelope (the server clamps
its per-request timeout to it), and an exhausted budget stops retrying.
"""

from __future__ import annotations

import socket
import time
from typing import Dict, Optional, Sequence, Tuple

from . import protocol
from .protocol import ServiceError
from .retry import TRANSPORT, RetryPolicy

__all__ = ["ServiceClient", "ServiceError", "RetryPolicy"]


def _check_response(msg: dict, expect_id: int) -> dict:
    if msg.get("id") != expect_id:
        if msg.get("ok") is False and msg.get("id") is None:
            # The server could not *parse* our frame (corruption in
            # flight): a connection-level failure, not a response to
            # this request.  Surface it as a retryable transport error;
            # the caller drops the desynced connection.
            error = msg.get("error") or {}
            raise ServiceError(
                TRANSPORT, "server rejected the request frame: "
                + error.get("message", "unreadable frame"))
        raise ServiceError("protocol", f"response id {msg.get('id')!r} "
                                       f"does not match request {expect_id}")
    if msg.get("ok"):
        result = msg.get("result")
        return result if isinstance(result, dict) else {}
    error = msg.get("error") or {}
    raise ServiceError(error.get("code", "unknown"),
                       error.get("message", "unspecified error"))


def _bytes_field(result: dict, key: str) -> bytes:
    """A result's bytes field: every method returns at most one, so it
    is the frame's raw payload."""
    value = result.get(key)
    if not isinstance(value, bytes):
        raise ServiceError("protocol",
                           f"response missing binary field {key!r}")
    return value


def _remaining(deadline_at: Optional[float]) -> Optional[float]:
    if deadline_at is None:
        return None
    return deadline_at - time.monotonic()


def _envelope(req_id: int, method: str, params: Optional[dict],
              deadline_at: Optional[float]) -> dict:
    msg = {"id": req_id, "method": method, "params": params or {}}
    remaining = _remaining(deadline_at)
    if remaining is not None:
        if remaining <= 0:
            raise ServiceError(
                protocol.E_TIMEOUT,
                "client deadline exhausted before the request was sent")
        msg["deadline"] = remaining
    return msg


class ServiceClient:
    """Blocking client.  Usable as a context manager.

    ``retry=None`` (the default) keeps the old single-shot behaviour;
    pass a :class:`RetryPolicy` for backoff.  ``deadline`` is a default
    per-call budget in seconds (overridable per call).
    """

    def __init__(self, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT, *,
                 timeout: Optional[float] = 60.0,
                 retry: Optional[RetryPolicy] = None,
                 deadline: Optional[float] = None) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry
        self.default_deadline = deadline
        self._next_id = 0
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout)

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _call_once(self, method: str, params: Optional[dict],
                   deadline_at: Optional[float]) -> dict:
        if self._sock is None:  # transparent reconnection after a drop
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            except OSError as exc:
                raise ServiceError(
                    TRANSPORT, f"cannot connect to "
                    f"{self.host}:{self.port}: {exc}") from exc
        self._next_id += 1
        req_id = self._next_id
        try:
            protocol.send_message_sync(
                self._sock, _envelope(req_id, method, params, deadline_at))
            msg = protocol.recv_message_sync(self._sock)
        except (OSError, protocol.FrameError) as exc:
            self.close()  # the stream may be desynced: start fresh
            raise ServiceError(TRANSPORT, str(exc)) from exc
        try:
            return _check_response(msg, req_id)
        except ServiceError as exc:
            if exc.code in ("protocol", TRANSPORT):
                self.close()  # never trust a desynced stream again
            raise

    def call(self, method: str, params: Optional[dict] = None, *,
             deadline: Optional[float] = None) -> dict:
        if deadline is None:
            deadline = self.default_deadline
        deadline_at = (time.monotonic() + deadline
                       if deadline is not None else None)
        policy = self.retry
        attempts = policy.max_attempts if policy is not None else 1
        last: Optional[ServiceError] = None
        for attempt in range(attempts):
            remaining = _remaining(deadline_at)
            if remaining is not None and remaining <= 0:
                # Stop retrying on an exhausted deadline: surface the
                # *last* structured error (what the server actually
                # said, not a synthetic timeout) unless no attempt ran.
                if last is not None:
                    raise last
                raise ServiceError(protocol.E_TIMEOUT,
                                   "client deadline exhausted before the "
                                   "request was sent")
            try:
                return self._call_once(method, params, deadline_at)
            except ServiceError as exc:
                last = exc
                if policy is None or not policy.retries(exc.code) \
                        or attempt + 1 >= attempts:
                    raise
            # backoff, clipped to the deadline budget
            delay = policy.backoff(attempt)
            remaining = _remaining(deadline_at)
            if remaining is not None:
                delay = min(delay, max(0.0, remaining))
            time.sleep(delay)
        raise last  # pragma: no cover — loop always raises or returns

    # -- convenience methods ------------------------------------------------

    def health(self) -> dict:
        return self.call("health")

    def stats(self) -> dict:
        return self.call("stats")

    def put_grammar(self, grammar_data: bytes,
                    tags: Sequence[str] = (),
                    meta: Optional[dict] = None) -> str:
        params: Dict = {"data": bytes(grammar_data), "tags": list(tags)}
        if meta is not None:
            params["meta"] = meta
        return self.call("grammar.put", params)["hash"]

    def list_grammars(self) -> dict:
        return self.call("grammar.list")

    def get_grammar(self, ref: str) -> Tuple[bytes, dict]:
        result = self.call("grammar.get", {"ref": ref})
        return _bytes_field(result, "data"), result["meta"]

    def compress(self, module_data: bytes, grammar_ref: str,
                 format: str = "rcx1") -> bytes:
        params = {"module": bytes(module_data), "grammar": grammar_ref}
        if format != "rcx1":
            params["format"] = format
        return _bytes_field(self.call("compress", params), "data")

    def decompress(self, compressed_data: bytes) -> bytes:
        result = self.call("decompress",
                           {"module": bytes(compressed_data)})
        return _bytes_field(result, "data")

    def run_compressed(self, compressed_data: bytes,
                       args: Sequence[int] = (),
                       input_data: bytes = b"") -> Tuple[int, bytes]:
        params: Dict = {"module": bytes(compressed_data),
                        "args": list(args)}
        if input_data:
            params["input"] = bytes(input_data)
        result = self.call("run_compressed", params)
        return result["code"], _bytes_field(result, "output")
