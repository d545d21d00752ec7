"""A ``repro serve`` process owned by one benchmark run.

Each server gets its own registry directory, native build cache and
temporary directory under the run's work directory, and an ephemeral
port, so every run pays the same set-up and none inherits another's
caches.  The server runs in its own process group: :meth:`stop` drains
it with SIGTERM, then kills whatever is left of the group (the sandbox
helper included) and waits until the group is gone.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient

from common import BenchError, vm_hwm_mb

_BANNER = re.compile(rb"repro service on [^:]+:(\d+)")
_START_TIMEOUT = 120.0
_DRAIN_TIMEOUT = 15.0


class ServerError(BenchError):
    pass


class ServerProcess:
    """Spawn, probe, measure and reap one single-process server."""

    def __init__(self, src_dir: Path, registry_dir: Path,
                 work_dir: Path) -> None:
        self.registry_dir = registry_dir
        self.native_cache = work_dir / "native-cache"
        self.log_path = work_dir / "server.log"
        tmp = work_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ,
                        PYTHONPATH=str(src_dir),
                        REPRO_NATIVE_CACHE=str(self.native_cache),
                        TMPDIR=str(tmp))
        self.proc = None
        self.port = 0

    def start(self) -> float:
        """Spawn the server; return seconds until its first healthy reply."""
        begin = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "-d", str(self.registry_dir)],
                stdout=subprocess.PIPE, stderr=log, env=self.env,
                start_new_session=True)
        self.port = self._read_port()
        with ServiceClient(port=self.port, timeout=_START_TIMEOUT) as client:
            if client.health().get("status") != "ok":
                raise ServerError("server answered health but is not ok")
        return time.perf_counter() - begin

    def _read_port(self) -> int:
        """Block on the server's banner line (no polling) up to a deadline."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + _START_TIMEOUT
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ServerError(
                    f"server printed no banner: {self.log_tail()}")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerError(f"server exited early: {self.log_tail()}")
            line += chunk
        match = _BANNER.search(line)
        if match is None:
            raise ServerError(f"unexpected banner {line!r}")
        return int(match.group(1))

    def client(self) -> ServiceClient:
        return ServiceClient(port=self.port, timeout=120.0)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def log_tail(self, limit: int = 2000) -> str:
        try:
            return self.log_path.read_bytes()[-limit:].decode(errors="replace")
        except OSError:
            return ""

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL the group; reap all."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=_DRAIN_TIMEOUT)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            _kill_group(proc.pid)
            proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
            _wait_group_gone(proc.pid)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _wait_group_gone(pgid: int, timeout: float = 10.0) -> None:
    """Grandchildren (the sandbox helper) are reparented, not ours to
    wait for: watch the group until no live member is left."""
    deadline = time.monotonic() + timeout
    while _live_members(pgid):
        if time.monotonic() > deadline:
            raise ServerError(f"process group {pgid} outlived SIGKILL")
        time.sleep(0.01)


def _live_members(pgid: int) -> list:
    """Pids in process group ``pgid`` that have not exited (zombies,
    which have ended but wait for a reaper, do not count)."""
    live = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            live.append(int(entry.name))
    return live
