"""Multi-process fleet tests: dispatcher + worker pool end to end.

A real :class:`FleetDispatcher` runs in a background event-loop thread
with real spawned worker processes; tests talk to it over TCP exactly
as production clients would.  The invariants mirror the single-process
suite — byte-identical results against a local oracle — plus the
fleet-only ones: a SIGKILLed worker is respawned and its in-flight
requests surface as retryable ``worker_lost`` errors; every mid-drain
connect gets the same retryable ``shutting_down`` answer regardless of
routing; stats aggregate across workers.
"""

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.minic import compile_source
from repro.service import (
    FleetDispatcher,
    RetryPolicy,
    ServiceClient,
    ServiceError,
)
from repro.service.metrics import merge_stats
from repro.storage import save_grammar, save_module

from tests.test_service import APP, CORPUS


@pytest.fixture(scope="module")
def artifacts():
    app = compile_source(APP)
    corpus = compile_source(CORPUS)
    grammar, _ = repro.train_grammar([corpus, app])
    return {
        "app": app,
        "app_bytes": save_module(app),
        "grammar": grammar,
        "grammar_bytes": save_grammar(grammar),
    }


class FleetHarness:
    """A fleet dispatcher + real worker processes in a background
    event-loop thread."""

    def __init__(self, tmp_path, workers=3, **kwargs):
        kwargs.setdefault("worker_config", {"batch_window": 0.005})
        self.dispatcher = FleetDispatcher(
            str(tmp_path / "registry"), workers=workers, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.run(self.dispatcher.start("127.0.0.1", 0), timeout=60)
        self.port = self.dispatcher.port

    @property
    def pool(self):
        return self.dispatcher.pool

    def run(self, coro, timeout=30):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def client(self, **kw):
        return ServiceClient("127.0.0.1", self.port, **kw)

    def retry_client(self, **kw):
        kw.setdefault("timeout", 10.0)
        kw.setdefault("retry", RetryPolicy(8, base=0.02, cap=0.2))
        kw.setdefault("deadline", 30.0)
        return self.client(**kw)

    def wait_restarted(self, min_restarts, timeout=20.0):
        """Block until the pool has recovered from >= min_restarts kills
        and every slot is up again."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.pool.restarts_total >= min_restarts \
                    and self.pool.alive() == self.pool.size:
                return
            time.sleep(0.02)
        raise AssertionError(
            f"fleet did not recover: restarts="
            f"{self.pool.restarts_total} alive={self.pool.alive()}")

    def close(self):
        try:
            self.run(self.dispatcher.stop(grace=10), timeout=30)
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(5)
            self.loop.close()


@pytest.fixture(scope="module")
def fleet(tmp_path_factory, artifacts):
    h = FleetHarness(tmp_path_factory.mktemp("fleet"), workers=3)
    with h.client() as client:
        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
    yield h
    h.close()


# -- plain multi-process correctness ------------------------------------------

def test_fleet_end_to_end_matches_oracle(fleet, artifacts):
    """The fleet's answers are byte-identical to the local
    single-process pipeline, for both container formats."""
    oracle_rcx1 = save_compressed_local(artifacts, "rcx1")
    oracle_rcx2 = save_compressed_local(artifacts, "rcx2")
    with fleet.client() as client:
        assert client.health()["status"] == "ok"
        rcx1 = client.compress(artifacts["app_bytes"], "prod")
        rcx2 = client.compress(artifacts["app_bytes"], "prod",
                               format="rcx2")
        assert rcx1 == oracle_rcx1
        assert rcx2 == oracle_rcx2
        assert client.decompress(rcx1) == artifacts["app_bytes"]
        assert client.decompress(rcx2) == artifacts["app_bytes"]
        code, output = client.run_compressed(rcx1)
        assert (code, output) == repro.run(artifacts["app"])


def save_compressed_local(artifacts, format):
    from repro.storage import save_compressed
    cmod = repro.compress_module(artifacts["grammar"], artifacts["app"])
    return save_compressed(cmod, format=format)


def test_fleet_health_and_stats_aggregate(fleet, artifacts):
    with fleet.client() as client:
        health = client.health()
        assert health["workers"]["count"] == 3
        assert health["workers"]["alive"] == 3

        # drive some traffic so every counter is warm
        for _ in range(3):
            client.compress(artifacts["app_bytes"], "prod")
        stats = client.stats()
        assert stats["fleet"]["workers"] == 3
        assert stats["fleet"]["alive"] == 3
        assert len(stats["fleet"]["per_worker"]) == 3
        assert stats["counters"]["requests_total"]["compress|ok"] >= 3
        # merged histograms keep sum/count consistency
        batch = stats["histograms"]["batch_size"]
        assert batch["count"] >= 3
        assert batch["buckets"]["le_inf"] == batch["count"]


def test_fleet_affinity_pins_grammar_traffic(fleet, artifacts):
    """All compress traffic for one grammar lands on one worker (its
    caches stay hot); the pinned worker's job count grows while the
    others' stay flat."""
    with fleet.client() as client:
        def compress_jobs_by_worker():
            per = client.stats()["fleet"]["per_worker"]
            return {k: v["requests_total"] for k, v in per.items()}

        before = compress_jobs_by_worker()
        for _ in range(4):
            client.compress(artifacts["app_bytes"], "prod")
        after = compress_jobs_by_worker()
        grew = [k for k in after
                if after[k] - before.get(k, 0) >= 4]
        assert len(grew) == 1, (before, after)


# -- kill / restart -----------------------------------------------------------

def test_killed_worker_respawns_and_answers_identically(fleet,
                                                        artifacts):
    oracle = save_compressed_local(artifacts, "rcx1")
    base = fleet.pool.restarts_total
    killed = fleet.pool.kill(0)
    assert killed is not None
    fleet.wait_restarted(base + 1)
    handle = fleet.pool.workers[0]
    assert handle.up and handle.pid != killed
    assert handle.generation >= 1
    with fleet.retry_client() as client:
        assert client.compress(artifacts["app_bytes"], "prod") == oracle


def test_worker_lost_surfaces_as_retryable(fleet, artifacts):
    """With every worker down, an un-retried call gets a structured,
    retryable worker_lost — and a retrying client rides through the
    respawn."""
    oracle = save_compressed_local(artifacts, "rcx1")
    base = fleet.pool.restarts_total
    killed = [fleet.pool.kill(i) for i in range(fleet.pool.size)]
    assert all(pid is not None for pid in killed)
    # immediately: either worker_lost (slot observed down / conn died)
    # or a success if the kill raced a respawn — both must be clean
    try:
        with fleet.client(timeout=5.0) as client:
            result = client.compress(artifacts["app_bytes"], "prod")
            assert result == oracle
    except ServiceError as exc:
        assert exc.retryable, exc.code
    fleet.wait_restarted(base + fleet.pool.size)
    with fleet.retry_client() as client:
        assert client.compress(artifacts["app_bytes"], "prod") == oracle


def test_retry_policy_rides_rolling_restart(fleet, artifacts):
    """Clients with RetryPolicy keep getting exact answers while every
    worker is gracefully restarted, one at a time."""
    oracle = save_compressed_local(artifacts, "rcx1")
    stop = threading.Event()
    failures = []

    def hammer():
        with fleet.retry_client() as client:
            while not stop.is_set():
                try:
                    if client.compress(artifacts["app_bytes"],
                                       "prod") != oracle:
                        failures.append("payload mismatch")
                except ServiceError as exc:
                    failures.append(f"unabsorbed error: {exc.code}")

    threads = [threading.Thread(target=hammer) for _ in range(2)]
    for t in threads:
        t.start()
    try:
        for index in range(fleet.pool.size):
            fleet.run(fleet.dispatcher.pool.restart(index), timeout=30)
    finally:
        stop.set()
        for t in threads:
            t.join(15)
    assert not failures, failures[:5]
    assert fleet.pool.alive() == fleet.pool.size


# -- drain semantics ----------------------------------------------------------

def test_fleet_drain_rejects_uniformly(tmp_path_factory, artifacts):
    """Regression for the mid-drain race: every connect during a fleet
    drain gets the *same* retryable shutting_down error, no matter
    which worker the request would have routed to — never a reset, and
    never a mix of errors across workers."""
    h = FleetHarness(tmp_path_factory.mktemp("drain"), workers=3)
    try:
        with h.client() as client:
            client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        h.dispatcher._draining = True  # freeze the drain window open
        codes = []

        def attempt(_):
            try:
                with h.client(timeout=5.0) as client:
                    client.compress(artifacts["app_bytes"], "prod")
                    return "ok"
            except ServiceError as exc:
                codes.append(exc.code)
                return exc.code

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(attempt, range(16)))
        assert results == ["shutting_down"] * 16, results
        assert all(code == "shutting_down" for code in codes)
        # and the error is retryable by contract, so RetryPolicy would
        # ride a real (finite) drain + restart
        assert ServiceError("shutting_down", "").retryable
        h.dispatcher._draining = False
        with h.client() as client:  # un-drained fleet still serves
            assert client.health()["status"] == "ok"
    finally:
        h.close()


# -- stats merging (pure unit) ------------------------------------------------

def test_merge_stats_sums_counters_and_recomputes_means():
    a = {
        "uptime_seconds": 10.0,
        "counters": {"requests_total": {"compress|ok": 2},
                     "bytes_in_total": 100},
        "histograms": {"batch_size": {
            "buckets": {"le_1": 1, "le_inf": 2},
            "sum": 3.0, "count": 2, "mean": 1.5}},
        "registry": {"startup_scan": {"clean": True}},
        "grammar_table": {"entries": 1, "hits": 3, "misses": 1},
    }
    b = {
        "uptime_seconds": 4.0,
        "counters": {"requests_total": {"compress|ok": 3,
                                        "decompress|ok": 1},
                     "bytes_in_total": 50},
        "histograms": {"batch_size": {
            "buckets": {"le_1": 4, "le_inf": 4},
            "sum": 4.0, "count": 4, "mean": 1.0}},
        "registry": {"startup_scan": {"clean": False}},
        "grammar_table": {"entries": 2, "hits": 5, "misses": 2},
    }
    merged = merge_stats([a, b])
    assert merged["uptime_seconds"] == 10.0  # max, not sum
    requests = merged["counters"]["requests_total"]
    assert requests == {"compress|ok": 5, "decompress|ok": 1}
    assert merged["counters"]["bytes_in_total"] == 150
    batch = merged["histograms"]["batch_size"]
    assert batch["buckets"] == {"le_1": 5, "le_inf": 6}
    assert batch["count"] == 6
    assert batch["mean"] == pytest.approx(7.0 / 6)  # recomputed
    # one dirty worker dirties the fleet
    assert merged["registry"]["startup_scan"]["clean"] is False
    # each worker holds its own grammar table: the fleet's is their sum
    assert merged["grammar_table"] == {"entries": 3, "hits": 8,
                                       "misses": 3}
    assert merge_stats([]) == {}


def test_merge_stats_breaker_state_is_worst_wins():
    """Regression: a zero-request worker polled *first* reports every
    breaker ``closed``; merging by first-worker-wins used to let it mask
    a tripped breaker elsewhere in the fleet."""
    idle = {"engine": {"breakers": {"abc123": "closed"},
                       "fallback": 0}}
    tripped = {"engine": {"breakers": {"abc123": "open"},
                          "fallback": 4}}
    merged = merge_stats([idle, tripped])
    assert merged["engine"]["breakers"]["abc123"] == "open"
    # and order-independent: the severity merge is symmetric
    flipped = merge_stats([tripped, idle])
    assert flipped["engine"]["breakers"]["abc123"] == "open"
    # half_open outranks closed but not open
    probing = {"engine": {"breakers": {"abc123": "half_open"}}}
    assert merge_stats([idle, probing])[
        "engine"]["breakers"]["abc123"] == "half_open"
    assert merge_stats([probing, tripped])[
        "engine"]["breakers"]["abc123"] == "open"


def test_merge_stats_single_worker_is_identity():
    """A one-worker fleet's merged stats equal that worker's snapshot
    (means recomputed to the same values)."""
    snap = {
        "uptime_seconds": 5.0,
        "engine": {"breakers": {"abc123": "half_open"},
                   "isolation": "sandbox", "exec_budget": 100},
        "histograms": {"batch_size": {
            "buckets": {"le_1": 2, "le_inf": 3},
            "sum": 4.0, "count": 3, "mean": 4.0 / 3}},
    }
    assert merge_stats([snap]) == snap


def test_merge_stats_config_values_are_not_summed():
    """Per-worker config mirrors (``exec_budget``) merge by max — a
    3-worker fleet with budget 100 reports 100, not 300."""
    workers = [{"engine": {"exec_budget": 100}} for _ in range(3)]
    assert merge_stats(workers)["engine"]["exec_budget"] == 100
