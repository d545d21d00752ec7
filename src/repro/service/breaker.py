"""Per-key circuit breaker: the server's degraded-mode trip wire.

The compiled engine is a performance transformation of the reference
interpreter; when it faults *unexpectedly* on some grammar (a table that
fails to build, an injected fault, a genuine bug), the server falls back
to the reference engine for that request — and this breaker remembers.
After ``threshold`` consecutive failures for a key (a grammar digest),
the breaker *opens*: the compiled engine is quarantined for that grammar
and requests go straight to the reference engine (``degraded`` mode,
skipping the doomed attempt).  After ``cooldown`` seconds, one probe
request is allowed through (half-open); success closes the breaker,
failure re-opens it for another cooldown.

States per key: ``closed`` (healthy), ``open`` (quarantined),
``half_open`` (probing).  Thread-safe: the server consults it from
executor threads.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

__all__ = ["CircuitBreaker"]


class _Entry:
    __slots__ = ("failures", "opened_at", "probing")

    def __init__(self) -> None:
        self.failures = 0
        self.opened_at = 0.0
        self.probing = False


class CircuitBreaker:
    def __init__(self, threshold: int = 3, cooldown: float = 30.0) -> None:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._entries: Dict[str, _Entry] = {}
        self._lock = threading.Lock()

    def _state_locked(self, entry: _Entry) -> str:
        if entry.failures < self.threshold:
            return "closed"
        if time.monotonic() - entry.opened_at >= self.cooldown:
            return "half_open"
        return "open"

    def allow(self, key: str) -> bool:
        """May the protected operation be attempted for ``key``?

        Open: no.  Half-open: yes, but only for one probe at a time —
        concurrent requests during the probe stay degraded rather than
        stampeding a possibly-still-broken path.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return True
            state = self._state_locked(entry)
            if state == "closed":
                return True
            if state == "half_open" and not entry.probing:
                entry.probing = True
                return True
            return False

    def record_success(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def record_failure(self, key: str) -> bool:
        """Count a failure; returns True when the breaker is now open."""
        with self._lock:
            entry = self._entries.setdefault(key, _Entry())
            entry.failures += 1
            entry.probing = False
            if entry.failures >= self.threshold:
                entry.opened_at = time.monotonic()
                return True
            return False

    def snapshot(self) -> Dict[str, Dict]:
        """Per-key state for the stats endpoint (keys truncated by the
        caller if desired)."""
        with self._lock:
            return {
                key: {"state": self._state_locked(entry),
                      "failures": entry.failures}
                for key, entry in sorted(self._entries.items())
            }

    def open_keys(self) -> list:
        with self._lock:
            return sorted(
                key for key, entry in self._entries.items()
                if self._state_locked(entry) != "closed")
