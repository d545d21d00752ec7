"""Crash-isolated native execution: a supervised helper subprocess.

The native engine (:mod:`repro.interp.native`) runs generated C inside
the calling process.  That is the right default for trusted grammars —
zero marshalling overhead, direct ctypes calls — but it means a
memory-safety bug in the generated code, or a genuinely runaway
derivation, takes the whole process with it: in a service worker one
poisonous request kills every in-flight request on that worker and
costs a respawn.

This module moves the blast radius into a disposable helper::

    supervisor (service worker)          helper (this module, -m)
    ---------------------------          -------------------------
    NativeSandbox.run(container, ...) ->  length-prefixed pickle
        watchdog on the reply read        loads the container through
                                          its grammar table (grammars
                                          decoded once per helper), a
                                          new NativeEngine runs it,
    NativeRun | the engine's own      <-  pickles the result or the
    exception, re-raised intact           exception back

The helper is *pooled*: it stays alive across requests (so the happy
path pays one pipe round-trip, not a process spawn — the speed gate in
``benchmarks/test_interp_speed.py`` holds through the sandbox) and is
respawned on demand after a crash.  Three failure classes become
structured errors instead of dead workers:

* the helper dies on a signal (SIGSEGV, SIGBUS, SIGABRT, ...): the
  supervisor sees EOF plus a negative returncode and raises
  :class:`NativeCrashError` carrying the signal, the grammar's content
  key, and the request digest;
* the helper never answers: the supervisor's wall-clock watchdog
  expires, the helper is SIGKILLed, and :class:`NativeHangError` is
  raised (the in-engine dispatch budget usually traps runaways first —
  the watchdog is the backstop for hangs the budget cannot see);
* the engine raises normally (``Trap``, ``BudgetExceeded``, decode
  errors for malformed containers): the exception object itself rides
  the pipe back and is re-raised in the supervisor, byte-identical to
  the in-process engine's behaviour.

Both sandbox errors are deliberately **not** ``Trap``/``RuntimeError``
subclasses: they are verdicts about the *request* (it broke the
engine), not program faults, and the service routes them into the
poison quarantine rather than the trap path.

The chaos sites ``native.crash`` and ``native.hang`` are evaluated in
the supervisor (keeping the fault plane's RNG stream in one process)
and carried to the helper as directives: the helper kills itself with
the requested signal, or sleeps past the watchdog, producing the real
failure end to end.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from .. import faults
from .native import NativeRun

__all__ = [
    "NativeSandbox",
    "SandboxError",
    "SandboxRemoteError",
    "NativeCrashError",
    "NativeHangError",
    "request_digest",
    "CRASH_SIGNALS",
]

_HDR = struct.Struct(">I")
_MAX_FRAME = 1 << 30

#: how long an injected hang sleeps when the rule gives no ``arg`` —
#: far past any plausible watchdog, never literally forever
_HANG_DEFAULT = 3600.0

CRASH_SIGNALS = {
    "segv": signal.SIGSEGV,
    "bus": signal.SIGBUS,
    "abort": signal.SIGABRT,
}


def request_digest(container: bytes, int_args: Sequence[int],
                   input_data: bytes) -> str:
    """SHA-256 identity of one native request (payload, args, input).

    The service combines this with the grammar's content key
    (:func:`repro.registry.registry.poison_key`) to recognize a request
    that has already crashed or hung the engine.
    """
    acc = hashlib.sha256(container)
    acc.update(b"\x00args")
    for a in int_args:
        acc.update(struct.pack(">q", int(a) & 0xFFFFFFFF))
    acc.update(b"\x00input")
    acc.update(input_data)
    return acc.hexdigest()


class SandboxError(Exception):
    """Base for supervisor-level failures (not program faults)."""


class SandboxRemoteError(SandboxError):
    """The helper raised something that could not ride the pipe back
    (unpicklable exception); carries its repr.  Treated by callers as
    an engine fault, never as a program trap."""


class NativeCrashError(SandboxError):
    """The helper died on a signal while running this request.

    ``content_key`` is the grammar's ``compact_key`` (the name is kept
    because poison records store it under that field)."""

    def __init__(self, signum: int, content_key: str = "",
                 req_digest: str = "") -> None:
        self.signum = signum
        self.content_key = content_key
        self.request_digest = req_digest
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        self.signame = name
        super().__init__(
            f"native helper died with {name} running grammar "
            f"{content_key[:12] or '<unknown>'} "
            f"request {req_digest[:12] or '<unknown>'}")


class NativeHangError(SandboxError):
    """The helper blew the supervisor's wall-clock watchdog.

    ``content_key`` is the grammar's ``compact_key``, as for
    :class:`NativeCrashError`."""

    def __init__(self, timeout: float, content_key: str = "",
                 req_digest: str = "") -> None:
        self.timeout = timeout
        self.content_key = content_key
        self.request_digest = req_digest
        super().__init__(
            f"native helper exceeded its {timeout:g}s watchdog running "
            f"grammar {content_key[:12] or '<unknown>'} "
            f"request {req_digest[:12] or '<unknown>'}")


class _HelperGone(Exception):
    """Internal: EOF from the helper mid-reply."""


class _WatchdogExpired(Exception):
    """Internal: the reply deadline passed."""


class NativeSandbox:
    """Supervisor for one pooled helper subprocess.

    ``timeout`` is the default per-request watchdog; ``cache_dir``
    points the helper at a private native build cache (tests), else it
    shares the default content-addressed cache.  Thread-safe: one
    request runs at a time per sandbox (callers needing concurrency
    hold several sandboxes).
    """

    def __init__(self, *, timeout: float = 30.0,
                 spawn_timeout: float = 60.0,
                 cache_dir: Optional[os.PathLike] = None) -> None:
        self.timeout = float(timeout)
        self.spawn_timeout = float(spawn_timeout)
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._proc: Optional[subprocess.Popen] = None
        self._lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "spawns": 0, "requests": 0, "crashes": 0, "hangs": 0,
        }

    # -- helper lifecycle ---------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def _spawn(self) -> None:
        cmd = [sys.executable, "-m", "repro.interp.sandbox"]
        if self._cache_dir is not None:
            cmd.append(str(self._cache_dir))
        self._proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, close_fds=True)
        self.stats["spawns"] += 1
        try:
            ready = self._read_frame(time.monotonic() + self.spawn_timeout)
        except (_HelperGone, _WatchdogExpired) as exc:
            self._kill()
            raise SandboxError(
                f"sandbox helper failed to start: {exc.__class__.__name__}"
            ) from None
        if not isinstance(ready, dict) or not ready.get("ready"):
            self._kill()
            raise SandboxError("sandbox helper sent a malformed handshake")

    def _kill(self) -> Optional[int]:
        """SIGKILL + reap; returns the exit status (negative = signal)."""
        proc, self._proc = self._proc, None
        if proc is None:
            return None
        if proc.poll() is None:
            proc.kill()
        rc = proc.wait()
        for fh in (proc.stdin, proc.stdout):
            if fh is not None:
                try:
                    fh.close()
                except OSError:
                    pass
        return rc

    def close(self) -> None:
        """Shut the helper down (EOF first, SIGKILL if it lingers)."""
        with self._lock:
            proc = self._proc
            if proc is None:
                return
            if proc.poll() is None and proc.stdin is not None:
                try:
                    proc.stdin.close()
                except OSError:
                    pass
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    pass
            self._kill()

    def __enter__(self) -> "NativeSandbox":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framing ------------------------------------------------------------

    def _read_frame(self, deadline: float):
        """One pickled frame from the helper, or raise on EOF/deadline."""
        assert self._proc is not None and self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        header = self._read_exact(fd, _HDR.size, deadline)
        (length,) = _HDR.unpack(header)
        if length > _MAX_FRAME:
            raise _HelperGone(f"oversized frame ({length} bytes)")
        return pickle.loads(self._read_exact(fd, length, deadline))

    @staticmethod
    def _read_exact(fd: int, want: int, deadline: float) -> bytes:
        buf = bytearray()
        while len(buf) < want:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WatchdogExpired()
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, want - len(buf))
            if not chunk:
                raise _HelperGone("eof")
            buf += chunk
        return bytes(buf)

    def _write_frame(self, obj) -> None:
        assert self._proc is not None and self._proc.stdin is not None
        body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._proc.stdin.write(_HDR.pack(len(body)) + body)
        self._proc.stdin.flush()

    # -- running ------------------------------------------------------------

    def run(self, container: bytes, int_args: Sequence[int] = (),
            input_data: bytes = b"", *, budget: int = 0,
            want_memory: bool = False,
            timeout: Optional[float] = None,
            content_key: str = "") -> NativeRun:
        """Run ``container`` (serialized compressed module) natively.

        Returns the same :class:`~repro.interp.native.NativeRun` an
        in-process engine would (``memory`` is ``b""`` unless
        ``want_memory``), re-raises the engine's own exceptions, and
        converts helper death into :class:`NativeCrashError` /
        :class:`NativeHangError`, which carry ``content_key`` (the
        caller's name for the grammar's ``compact_key``).
        """
        digest = request_digest(container, int_args, input_data)
        request = {
            "container": container,
            "args": tuple(int(a) for a in int_args),
            "input": input_data,
            "budget": int(budget or 0),
            "want_memory": bool(want_memory),
        }
        plane = faults.ACTIVE
        if plane is not None:
            # native.build is evaluated here too: the helper has no
            # fault plane, and callers (the service's fallback path)
            # expect the site to work regardless of isolation mode.
            from .nativebuild import NativeBuildError
            plane.fire("native.build", exc=NativeBuildError,
                       message="injected native build failure")
            rule = plane.decide("native.crash")
            if rule is not None:
                request["crash"] = int(CRASH_SIGNALS.get(
                    rule.mode or "segv", signal.SIGSEGV))
            rule = plane.decide("native.hang")
            if rule is not None:
                request["hang"] = float(rule.arg or _HANG_DEFAULT)
        watchdog = self.timeout if timeout is None else float(timeout)
        with self._lock:
            if not self.alive:
                self._kill()
                self._spawn()
            try:
                self._write_frame(request)
            except (BrokenPipeError, OSError):
                # Died between requests (not on one): one respawn+retry.
                self._kill()
                self._spawn()
                self._write_frame(request)
            try:
                reply = self._read_frame(time.monotonic() + watchdog)
            except _WatchdogExpired:
                self._kill()
                self.stats["hangs"] += 1
                raise NativeHangError(
                    watchdog, content_key, digest) from None
            except _HelperGone:
                rc = self._kill()
                self.stats["crashes"] += 1
                signum = -rc if rc is not None and rc < 0 else 0
                raise NativeCrashError(
                    signum, content_key, digest) from None
            self.stats["requests"] += 1
        if not isinstance(reply, dict):
            raise SandboxRemoteError(f"malformed reply {type(reply)!r}")
        if reply.get("ok"):
            return NativeRun(
                code=reply["code"], output=reply["output"],
                instret=reply["instret"], dispatches=reply["dispatches"],
                memory=reply.get("memory", b""))
        exc = reply.get("exc")
        if isinstance(exc, BaseException):
            raise exc
        raise SandboxRemoteError(str(reply.get("repr", "unknown failure")))


# -- the helper process ------------------------------------------------------


def _h_read_exact(fh, want: int) -> bytes:
    buf = b""
    while len(buf) < want:
        chunk = fh.read(want - len(buf))
        if not chunk:
            raise EOFError
        buf += chunk
    return buf


def _h_read_frame(fh):
    (length,) = _HDR.unpack(_h_read_exact(fh, _HDR.size))
    if length > _MAX_FRAME:
        raise EOFError
    return pickle.loads(_h_read_exact(fh, length))


def _h_write_frame(fh, obj) -> None:
    body = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    fh.write(_HDR.pack(len(body)) + body)
    fh.flush()


def _h_engine(container: bytes, cache, grammars):
    """A new engine for one request's container, loaded through the
    helper's grammar table: each grammar is decoded, and its compiled
    engine loaded, once per helper; loading the container and
    marshalling its module are per request."""
    from .native import NativeEngine
    from ..storage import load_any

    program = load_any(container, grammars)
    if not hasattr(program, "grammar"):
        raise ValueError(
            "sandbox runs compressed containers only "
            "(got an uncompressed module)")
    return NativeEngine(program, cache=cache)


def _helper_main(argv) -> int:
    from ..storage import GrammarTable

    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # Anything that prints must not corrupt the frame stream.
    sys.stdout = sys.stderr
    cache = None
    if argv:
        from .nativebuild import NativeBuildCache
        cache = NativeBuildCache(Path(argv[0]))
    grammars = GrammarTable()
    _h_write_frame(stdout, {"ready": True, "pid": os.getpid()})
    while True:
        try:
            req = _h_read_frame(stdin)
        except EOFError:
            return 0
        # Chaos directives, decided by the supervisor's fault plane:
        # produce the *real* failure (a fatal signal, a blown watchdog),
        # end to end through the same machinery a genuine bug would hit.
        if req.get("crash"):
            os.kill(os.getpid(), int(req["crash"]))
        if req.get("hang"):
            time.sleep(float(req["hang"]))  # supervisor SIGKILLs us
        try:
            run = _h_engine(req["container"], cache, grammars).run(
                *req["args"], input_data=req["input"],
                budget=req["budget"])
            reply = {
                "ok": True,
                "code": run.code,
                "output": run.output,
                "instret": run.instret,
                "dispatches": run.dispatches,
            }
            if req.get("want_memory"):
                reply["memory"] = run.memory
        except Exception as exc:  # noqa: BLE001 — every engine error rides back
            try:
                pickle.dumps(exc)
                reply = {"ok": False, "exc": exc}
            except Exception:
                reply = {"ok": False, "exc": None,
                         "repr": f"{type(exc).__name__}: {exc}"}
        _h_write_frame(stdout, reply)


if __name__ == "__main__":
    sys.exit(_helper_main(sys.argv[1:]))
