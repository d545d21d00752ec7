"""Wire protocol: length-prefixed binary frames, and the listener that
speaks them.

A frame is a 4-byte big-endian length word with its high bit set, whose
low 31 bits are the body length.  The body is a second 4-byte
big-endian *header length*, that many bytes of UTF-8 JSON header, then
raw payload bytes.  Requests carry ``{"id", "method", "params"}``;
responses echo the id with either ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": {"code", "message"}}``.  The header is that
envelope minus one bulk field: ``"bin"`` names the ``params`` /
``result`` key the payload binds to, so module bytes cross the wire
exactly once, with no base64 inflation and no JSON string copy.

::

    [u32 0x8000_0000|n][u32 hlen][ header JSON ][ payload ...]
                        \\------------- n bytes -------------/

``params``/``result`` values of type :class:`bytes` are normalised by
the codec: the largest becomes the payload, any others are
base64-encoded into the header.  A length word with the high bit clear
is a :class:`FrameError`, like any other unreadable frame.

Frames are capped at 64 MiB: a bad length prefix must not make either
side allocate gigabytes.

:class:`FrameServer` is the one front door on top of the codec: the
connection loop and the signal lifecycle that the single-process
service and the fleet dispatcher share.
"""

from __future__ import annotations

import asyncio
import base64
import json
import signal
import socket
import struct
from typing import Optional

from .. import faults

__all__ = [
    "DEFAULT_PORT", "MAX_FRAME", "BINARY_BIT", "FrameError", "ServiceError",
    "RETRYABLE",
    "encode_message", "decode_body", "decode_binary_body",
    "read_message", "write_message",
    "recv_message_sync", "send_message_sync",
    "b64e", "b64d",
    "error_body", "result_body",
    "FrameServer",
]

DEFAULT_PORT = 7327
MAX_FRAME = 64 << 20
#: high bit of the length word, set on every frame
BINARY_BIT = 0x80000000

# error codes, used across server and clients
E_OVERLOADED = "overloaded"
E_TIMEOUT = "timeout"
E_BAD_REQUEST = "bad_request"
E_NOT_FOUND = "not_found"
E_INTERNAL = "internal"
E_SHUTTING_DOWN = "shutting_down"
E_TRAP = "trap"
E_MODEL_MISSING = "model_missing"
#: a fleet worker died (or was restarted) while holding the request; the
#: work methods are idempotent, so the dispatcher tells the client to
#: just send it again — the supervisor is already respawning the worker.
E_WORKER_LOST = "worker_lost"
#: the request previously crashed or hung the native engine and is
#: quarantined; deliberately NOT retryable — the verdict is durable, so
#: resending the identical request can only fail the same way.
E_POISON_INPUT = "poison_input"


class FrameError(ConnectionError):
    """Malformed frame (bad length, oversized, or invalid JSON)."""


#: error codes where retrying after backoff is reasonable
#: (``model_missing`` clears once the grammar is retrained and
#: re-registered under the same tag; ``worker_lost`` clears as soon as
#: the fleet supervisor restarts the dead worker)
RETRYABLE = frozenset([E_OVERLOADED, E_TIMEOUT, E_SHUTTING_DOWN,
                       E_MODEL_MISSING, E_WORKER_LOST])


class ServiceError(Exception):
    """A structured request failure.

    Raised by handlers on the server (where it becomes an error frame)
    and by clients when a response carries an error body — the ``code``
    survives the wire in both directions.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE


def b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64d(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:
        raise FrameError(f"invalid base64 payload: {exc}") from exc


#: envelope sections whose values may be raw bytes
_SECTIONS = ("params", "result")
_BYTES = (bytes, bytearray, memoryview)


def encode_message(obj: dict) -> bytes:
    """Encode an envelope whose ``params``/``result`` may hold raw bytes.

    The *largest* bytes value moves out of the header as the frame's
    raw payload (recorded under ``"bin"``) and any others are
    base64-encoded — per envelope there is at most one bulk field, so
    the hot path never base64s at all.
    """
    out = dict(obj)
    payload = b""
    bin_key = None
    for section in _SECTIONS:
        inner = out.get(section)
        if not isinstance(inner, dict):
            continue
        keys = [k for k, v in inner.items() if isinstance(v, _BYTES)]
        if not keys:
            continue
        inner = dict(inner)
        if bin_key is None:
            bin_key = max(keys, key=lambda k: len(inner[k]))
            payload = bytes(inner.pop(bin_key))
            keys.remove(bin_key)
        for key in keys:
            inner[key] = b64e(bytes(inner[key]))
        out[section] = inner
    if bin_key is not None:
        out["bin"] = bin_key
    header = json.dumps(out, separators=(",", ":")).encode("utf-8")
    body_len = 4 + len(header) + len(payload)
    if body_len > MAX_FRAME:
        raise FrameError(f"frame too large ({body_len} bytes)")
    return struct.pack(">II", BINARY_BIT | body_len, len(header)) \
        + header + payload


def decode_body(body: bytes) -> dict:
    try:
        obj = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise FrameError("frame must be a JSON object")
    return obj


def decode_binary_body(body: bytes) -> dict:
    """Parse a binary frame body: header-length word, header, payload.

    The payload binds to the header field named by ``"bin"`` (in
    ``result`` for responses, ``params`` for requests); a length
    mismatch or an unbound payload is a :class:`FrameError` — the
    server answers those with a structured ``bad_request`` frame.
    """
    if len(body) < 4:
        raise FrameError("binary frame too short for its header length")
    (header_len,) = struct.unpack(">I", body[:4])
    if 4 + header_len > len(body):
        raise FrameError(
            f"binary header length {header_len} exceeds the "
            f"{len(body) - 4} bytes present")
    msg = decode_body(body[4:4 + header_len])
    payload = body[4 + header_len:]
    key = msg.pop("bin", None)
    if key is None:
        if payload:
            raise FrameError(
                f"{len(payload)} payload bytes with no 'bin' binding")
        return msg
    if not isinstance(key, str):
        raise FrameError("'bin' must name a payload field")
    result = msg.get("result")
    if isinstance(result, dict):
        result[key] = payload
    else:
        params = msg.get("params")
        if not isinstance(params, dict):
            params = msg["params"] = {}
        params[key] = payload
    return msg


def result_body(req_id, result: dict) -> dict:
    return {"id": req_id, "ok": True, "result": result}


def error_body(req_id, code: str, message: str) -> dict:
    return {"id": req_id, "ok": False,
            "error": {"code": code, "message": message}}


# -- asyncio side -----------------------------------------------------------
#
# The fault sites live here, on the server-side framing layer only (the
# blocking client functions below carry none): an activated
# ``repro.faults`` plane can garble, truncate, delay, or drop frames to
# simulate a hostile network.  Inert cost is one module-attribute check
# per frame.

async def _read_fault(rule) -> None:
    """Apply a fired ``service.frame.read`` rule: the inbound bytes were
    damaged in flight."""
    if rule.mode == "delay":
        await asyncio.sleep(rule.arg if rule.arg is not None else 0.05)
        return
    if rule.mode == "disconnect":
        raise FrameError("injected fault: connection torn down mid-read")
    # default / "garbage": what arrived does not parse as a frame
    raise FrameError("injected fault: garbage frame received")


async def _write_fault(rule, writer: asyncio.StreamWriter,
                       frame: bytes) -> Optional[bytes]:
    """Apply a fired ``service.frame.write`` rule; returns the (possibly
    damaged) frame still to be written, or ``None`` if nothing is."""
    if rule.mode == "delay":
        await asyncio.sleep(rule.arg if rule.arg is not None else 0.05)
        return frame
    if rule.mode == "truncate":
        writer.write(frame[:max(1, len(frame) // 2)])
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        raise FrameError("injected fault: frame truncated mid-write")
    if rule.mode == "disconnect":
        raise FrameError("injected fault: connection torn down mid-write")
    # default / "garbage": clobber the start of the body, so the peer is
    # guaranteed a structural parse failure rather than silently
    # corrupted payload bytes (payload integrity is the CRC trailer's
    # job, framing integrity is this site's).
    if faults.ACTIVE is not None and len(frame) > 4:
        body = bytearray(frame)
        for i in range(4, min(12, len(body))):
            body[i] = 0xFF
        return bytes(body)
    return frame


def _body_length(word: bytes) -> int:
    """The body length a frame's 4-byte length word announces."""
    length = struct.unpack(">I", word)[0] & ~BINARY_BIT
    if length > MAX_FRAME:
        raise FrameError(f"frame too large ({length} bytes)")
    return length


def _decode_frame(word: bytes, body: bytes) -> dict:
    """The message in one frame.  A frame without the binary bit is
    refused only after its body is read, so the stream stays in step and
    the peer's error frame and hang-up arrive cleanly."""
    if not int.from_bytes(word, "big") & BINARY_BIT:
        raise FrameError("length word lacks the binary-frame bit")
    return decode_binary_body(body)


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """Next frame's message, or ``None`` on clean EOF at a frame
    boundary."""
    if faults.ACTIVE is not None:
        rule = faults.ACTIVE.decide("service.frame.read")
        if rule is not None:
            await _read_fault(rule)
    try:
        word = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError("connection closed mid-frame") from exc
    try:
        body = await reader.readexactly(_body_length(word))
    except asyncio.IncompleteReadError as exc:
        raise FrameError("connection closed mid-frame") from exc
    return _decode_frame(word, body)


async def write_message(writer: asyncio.StreamWriter, obj: dict) -> None:
    frame = encode_message(obj)
    if faults.ACTIVE is not None:
        rule = faults.ACTIVE.decide("service.frame.write")
        if rule is not None:
            frame = await _write_fault(rule, writer, frame)
            if frame is None:
                return
    writer.write(frame)
    await writer.drain()


class FrameServer:
    """The front door of :class:`~repro.service.server.CompressionService`
    and :class:`~repro.service.dispatch.FleetDispatcher`: one connection
    loop and one signal lifecycle.

    A subclass provides ``start(host, port)``, which binds through
    :meth:`_listen`; ``stop()``, which drains its own work and then calls
    :meth:`_close_listener`; and ``_handle_request(msg)``, which turns
    one request envelope into its response envelope.
    """

    def __init__(self) -> None:
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop_requested: Optional[asyncio.Event] = None
        self._writers: set = set()

    @property
    def port(self) -> int:
        """The bound port (useful after binding port 0)."""
        return self._server.sockets[0].getsockname()[1]

    async def _listen(self, host: str, port: int,
                      unix_path: Optional[str] = None) -> None:
        """Bind TCP, or a Unix domain socket when ``unix_path`` is set."""
        self._stop_requested = asyncio.Event()
        if unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=unix_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_conn, host, port)

    async def serve_until_stopped(self) -> None:
        """After ``start``: install signal handlers, block until SIGTERM
        or SIGINT arrives, then drain and return."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._stop_requested.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop or non-main thread: rely on stop()
        await self._stop_requested.wait()
        await self.stop()

    async def _close_listener(self) -> None:
        """After a drain: let the last responses flush through their
        connection tasks, stop accepting, and hang up on every client."""
        await asyncio.sleep(0.05)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    msg = await read_message(reader)
                except FrameError as exc:
                    # Protocol violation: tell the peer what went wrong
                    # with one structured error frame (it cannot carry a
                    # request id — the request never parsed), then drop
                    # the possibly-desynced connection.
                    try:
                        await write_message(writer, error_body(
                            None, E_BAD_REQUEST, f"unreadable frame: {exc}"))
                    except (ConnectionError, OSError):
                        pass
                    break
                if msg is None:
                    break
                response = await self._handle_request(msg)
                try:
                    await write_message(writer, response)
                except (ConnectionError, FrameError):
                    break
        except asyncio.CancelledError:
            pass  # loop teardown cancelling idle readers: end quietly
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -- blocking side (sync client, no asyncio dependency) ---------------------

def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = bytearray()
    while len(chunks) < n:
        piece = sock.recv(n - len(chunks))
        if not piece:
            raise FrameError("connection closed mid-frame")
        chunks.extend(piece)
    return bytes(chunks)


def recv_message_sync(sock: socket.socket) -> dict:
    word = _recv_exact(sock, 4)
    return _decode_frame(word, _recv_exact(sock, _body_length(word)))


def send_message_sync(sock: socket.socket, obj: dict) -> None:
    sock.sendall(encode_message(obj))
