"""Client retry semantics: backoff jitter, exhaustion, deadlines.

These tests run the client against a *scripted* server — a thread that
speaks the real wire protocol but answers each request from a fixed list
of directives — so every failure mode is exact and every assertion about
attempt counts is deterministic.
"""

import random
import socket
import threading
import time

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.protocol import ServiceError
from repro.service.retry import TRANSPORT, RetryPolicy


class _ScriptServer:
    """One directive per request: ``"ok"`` answers a result frame, an
    error code answers an error frame, ``"drop"`` closes the connection
    without replying.  When the script runs out the listener closes, so
    further connects are refused (a transport failure)."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = []
        self.connections = 0
        self._closed = False
        self._conn = None
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(10)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            while self.script:
                conn, _ = self._sock.accept()
                self._conn = conn
                if self._closed:  # close() ran before it saw this conn
                    conn.close()
                    break
                self.connections += 1
                with conn:
                    conn.settimeout(10)
                    self._serve_conn(conn)
        except OSError:
            pass
        finally:
            self.close()

    def _serve_conn(self, conn):
        while self.script:
            try:
                msg = protocol.recv_message_sync(conn)
            except (OSError, protocol.FrameError):
                return
            self.requests.append(msg)
            action = self.script.pop(0)
            if action == "drop":
                return
            if action == "ok":
                body = protocol.result_body(msg["id"], {"pong": True})
            else:
                body = protocol.error_body(msg["id"], action,
                                           f"scripted {action}")
            protocol.send_message_sync(conn, body)

    def close(self):
        """Stop serving.  Shutting the listener and the live connection
        down wakes the thread out of a blocking ``accept`` or ``recv``
        (closing alone does not), so teardown never waits on a socket
        timeout."""
        self._closed = True
        for sock in (self._sock, self._conn):
            if sock is None:
                continue
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        self._thread.join(5)
        assert not self._thread.is_alive(), "script server thread hung"


FAST = dict(base=0.001, cap=0.004)  # real sleeps, negligible wall time


# -- RetryPolicy unit --------------------------------------------------------

def test_backoff_is_full_jitter_within_bounds():
    policy = RetryPolicy(8, base=0.05, multiplier=2.0, cap=1.0,
                         rng=random.Random(7))
    for attempt in range(8):
        ceiling = min(1.0, 0.05 * 2.0 ** attempt)
        samples = [policy.backoff(attempt) for _ in range(200)]
        assert all(0.0 <= s <= ceiling for s in samples)
        # full jitter, not fixed: the samples actually spread
        assert max(samples) - min(samples) > ceiling * 0.5


def test_backoff_cap_bounds_late_attempts():
    policy = RetryPolicy(20, base=0.1, multiplier=2.0, cap=0.25,
                         rng=random.Random(1))
    assert all(policy.backoff(19) <= 0.25 for _ in range(100))


def test_retry_codes_default_and_custom():
    policy = RetryPolicy()
    for code in sorted(protocol.RETRYABLE) + [TRANSPORT]:
        assert policy.retries(code)
    assert not policy.retries("bad_request")
    assert not policy.retries("not_found")
    only = RetryPolicy(retry_codes={"overloaded"})
    assert only.retries("overloaded") and not only.retries(TRANSPORT)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(0)
    with pytest.raises(ValueError):
        RetryPolicy(base=-1)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)


# -- sync client -------------------------------------------------------------

def test_retryable_error_is_retried_to_success():
    with _ScriptServer(["overloaded", "overloaded", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(4, **FAST)) as client:
            assert client.call("ping") == {"pong": True}
        assert len(server.requests) == 3


def test_exhaustion_raises_last_structured_error():
    with _ScriptServer(["overloaded", "timeout", "shutting_down",
                        "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(3, **FAST)) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        # the *last* server answer surfaces, and nothing past the cap ran
        assert exc.value.code == "shutting_down"
        assert len(server.requests) == 3
        assert server.script == ["ok"]


def test_non_retryable_error_is_not_retried():
    with _ScriptServer(["bad_request", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(5, **FAST)) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        assert exc.value.code == "bad_request"
        assert len(server.requests) == 1


def test_no_policy_means_single_shot():
    with _ScriptServer(["overloaded", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        assert exc.value.code == "overloaded"
        assert len(server.requests) == 1


def test_dropped_connection_reconnects_transparently():
    with _ScriptServer(["drop", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(3, **FAST)) as client:
            assert client.call("ping") == {"pong": True}
        assert server.connections == 2  # second attempt re-dialled
        assert len(server.requests) == 2


def test_transport_exhaustion_surfaces_transport_error():
    with _ScriptServer(["drop"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(3, **FAST)) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        assert exc.value.code == TRANSPORT


def test_deadline_cuts_retries_short():
    script = ["overloaded"] * 50
    with _ScriptServer(script) as server:
        policy = RetryPolicy(50, base=0.1, multiplier=2.0, cap=0.5)
        with ServiceClient("127.0.0.1", server.port,
                           retry=policy) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as exc:
                client.call("ping", deadline=0.3)
            elapsed = time.monotonic() - start
        assert exc.value.code == "overloaded"  # last error, not a new one
        assert elapsed < 2.0
        assert 1 <= len(server.requests) < 50


def test_deadline_travels_in_envelope_and_shrinks():
    with _ScriptServer(["overloaded", "overloaded", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(4, base=0.01, cap=0.02)
                           ) as client:
            client.call("ping", deadline=30.0)
        budgets = [req["deadline"] for req in server.requests]
        assert len(budgets) == 3
        assert all(0 < b <= 30.0 for b in budgets)
        assert budgets[0] > budgets[1] > budgets[2]


def test_no_deadline_means_no_envelope_field():
    with _ScriptServer(["ok"]) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            client.call("ping")
        assert "deadline" not in server.requests[0]


def test_exhausted_deadline_fails_before_sending():
    with _ScriptServer(["ok"]) as server:
        with ServiceClient("127.0.0.1", server.port) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping", deadline=-1.0)
        assert exc.value.code == "timeout"
        assert server.requests == []


# -- worker_lost reconnect storms and poison verdicts -------------------------
#
# A fleet losing workers answers ``worker_lost`` repeatedly while the
# pool respawns; clients must ride the storm (each attempt re-sent, the
# deadline envelope shrinking monotonically) without retrying forever.
# A ``poison_input`` verdict is the opposite contract: the server has
# durably quarantined the request, so retrying it is pure waste — the
# client must surface it on the first answer, storm or no storm.

def test_worker_lost_storm_is_retried_to_success():
    with _ScriptServer(["worker_lost"] * 4 + ["ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(6, **FAST)) as client:
            assert client.call("ping") == {"pong": True}
        assert len(server.requests) == 5


def test_worker_lost_storm_deadline_clamps_monotonically():
    """Every re-sent attempt carries a strictly smaller budget: the
    respawn storm cannot reset or stretch the caller's deadline."""
    with _ScriptServer(["worker_lost"] * 3 + ["ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(6, base=0.01, cap=0.02)
                           ) as client:
            client.call("ping", deadline=30.0)
        budgets = [req["deadline"] for req in server.requests]
        assert len(budgets) == 4
        assert all(0 < b <= 30.0 for b in budgets)
        assert budgets == sorted(budgets, reverse=True)
        assert len(set(budgets)) == len(budgets)  # strictly shrinking


def test_worker_lost_storm_exhausts_within_deadline():
    with _ScriptServer(["worker_lost"] * 50) as server:
        policy = RetryPolicy(50, base=0.1, multiplier=2.0, cap=0.5)
        with ServiceClient("127.0.0.1", server.port,
                           retry=policy) as client:
            start = time.monotonic()
            with pytest.raises(ServiceError) as exc:
                client.call("ping", deadline=0.3)
            elapsed = time.monotonic() - start
        assert exc.value.code == "worker_lost"
        assert elapsed < 2.0
        assert 1 <= len(server.requests) < 50


def test_poison_input_is_not_retryable_by_contract():
    assert protocol.E_POISON_INPUT not in protocol.RETRYABLE
    assert not ServiceError(protocol.E_POISON_INPUT, "").retryable
    assert not RetryPolicy().retries(protocol.E_POISON_INPUT)


def test_poison_input_exhausts_immediately_sync():
    with _ScriptServer(["poison_input", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(8, **FAST)) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        assert exc.value.code == "poison_input"
        assert len(server.requests) == 1  # no second attempt


def test_poison_after_worker_lost_storm_stops_retrying():
    """The storm is absorbed, but the first poison verdict ends the
    call: retryable and non-retryable answers compose correctly."""
    with _ScriptServer(["worker_lost", "worker_lost",
                        "poison_input", "ok"]) as server:
        with ServiceClient("127.0.0.1", server.port,
                           retry=RetryPolicy(8, **FAST)) as client:
            with pytest.raises(ServiceError) as exc:
                client.call("ping")
        assert exc.value.code == "poison_input"
        assert len(server.requests) == 3
        assert server.script == ["ok"]
