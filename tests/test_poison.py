"""Poison-request quarantine: registry verdicts and the service's
native-crash containment end to end.

The quarantine is keyed by ``poison_key(grammar content key, request
digest)``: a request that crashed or hung the native engine is recorded
durably (a JSON sidecar in the registry's quarantine directory), fails
fast with a non-retryable ``poison_input`` on every later attempt, and
never dirties the registry's integrity verdict — poison records are
deliberate bookkeeping, not corruption.
"""

import hashlib

import pytest

import repro
from repro import faults
from repro.grammar.serialize import encode_grammar_compact
from repro.interp.native import native_available
from repro.interp.sandbox import request_digest
from repro.minic import compile_source
from repro.registry import GrammarRegistry
from repro.registry.registry import poison_key
from repro.service import RetryPolicy, ServiceError
from repro.storage import load_compressed, save_compressed

from tests.test_service import _Harness, artifacts  # noqa: F401

needs_cc = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler on PATH: native engine unavailable")

KEY_A = "a" * 64
KEY_B = "b" * 64


# -- poison_key ---------------------------------------------------------------

def test_poison_key_is_stable_and_sensitive():
    k = poison_key("g1", "r1")
    assert k == poison_key("g1", "r1")
    assert len(k) == 64 and int(k, 16) >= 0
    assert k != poison_key("g2", "r1")
    assert k != poison_key("g1", "r2")


# -- verdict records ----------------------------------------------------------

def test_record_check_and_list(tmp_path):
    registry = GrammarRegistry(tmp_path / "reg")
    assert registry.check_poison(KEY_A) is None
    rec = registry.record_poison(KEY_A, "crash", content_key="g" * 64,
                                 request_digest="r" * 64,
                                 detail="SIGSEGV in helper")
    assert rec["verdict"] == "crash"
    got = registry.check_poison(KEY_A)
    assert got["key"] == KEY_A
    assert got["detail"] == "SIGSEGV in helper"
    registry.record_poison(KEY_B, "hang")
    listed = registry.poison_list()
    assert [r["key"] for r in listed] == [KEY_A, KEY_B]  # oldest first


def test_record_poison_is_idempotent(tmp_path):
    registry = GrammarRegistry(tmp_path / "reg")
    first = registry.record_poison(KEY_A, "crash", detail="original")
    again = registry.record_poison(KEY_A, "hang", detail="rewritten")
    assert again == first  # the first verdict wins, durably
    assert registry.check_poison(KEY_A)["verdict"] == "crash"


def test_malformed_poison_key_is_rejected(tmp_path):
    from repro.registry import RegistryError
    registry = GrammarRegistry(tmp_path / "reg")
    for bad in ("", "short", "../escape", "Z" * 64):
        with pytest.raises(RegistryError):
            registry.record_poison(bad, "crash")


def test_poison_records_do_not_dirty_verify(tmp_path):
    """Verdicts are deliberate records: ``verify`` reports them but a
    quarantined request never makes the registry 'corrupt'."""
    registry = GrammarRegistry(tmp_path / "reg")
    registry.record_poison(KEY_A, "crash")
    report = registry.verify()
    assert report["clean"]
    assert report["poison"] == 1


# -- the service: quarantine end to end ---------------------------------------

def _native_keys(harness, rcx, args=(), input_data=b""):
    program = load_compressed(rcx)
    gkey = hashlib.sha256(
        encode_grammar_compact(program.grammar)).hexdigest()
    rdigest = request_digest(rcx, list(args), input_data)
    return gkey, rdigest, poison_key(gkey, rdigest)


def _run_native_params(rcx, budget=None):
    params = {"module": rcx, "args": [], "engine": "native"}
    if budget is not None:
        params["budget"] = budget
    return params


@pytest.fixture()
def served(tmp_path, artifacts):  # noqa: F811
    h = _Harness(tmp_path, batch_window=0.01)
    try:
        with h.client() as client:
            client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
            rcx = client.compress(artifacts["app_bytes"], "prod")
        yield h, rcx
    finally:
        h.close()


def test_known_poison_fails_fast_before_any_engine(served):
    """The fast-fail path needs no compiler: a recorded verdict answers
    before the native engine (or its build) is ever consulted."""
    h, rcx = served
    _, rdigest, pkey = _native_keys(h, rcx)
    h.service.registry.record_poison(pkey, "crash",
                                     detail="seeded by test")
    with h.client() as client:
        with pytest.raises(ServiceError) as exc:
            client.call("run_compressed", _run_native_params(rcx))
    assert exc.value.code == "poison_input"
    assert not exc.value.retryable
    assert rdigest[:12] in str(exc.value)
    stats = h.service.metrics.engine_events
    assert stats.value("poison_fastfail") == 1


def test_poison_is_per_request_not_per_grammar(served):
    """Quarantining one request must not take out the grammar: the same
    container with different args is a different digest and still runs
    (or degrades) normally."""
    h, rcx = served
    _, _, pkey = _native_keys(h, rcx)
    h.service.registry.record_poison(pkey, "crash")
    with h.client() as client:
        # different args -> different request digest -> not quarantined
        result = client.call("run_compressed",
                             {"module": rcx, "args": [1],
                              "engine": "compiled"})
        assert "code" in result


def test_budget_param_validation(served):
    h, rcx = served
    with h.client() as client:
        for bad in (-1, "10", 1.5, True):
            with pytest.raises(ServiceError) as exc:
                client.call("run_compressed",
                            {"module": rcx, "args": [],
                             "budget": bad})
            assert exc.value.code == "bad_request"


def test_tiny_budget_traps_structurally(served):
    h, rcx = served
    with h.client() as client:
        with pytest.raises(ServiceError) as exc:
            client.call("run_compressed",
                        {"module": rcx, "args": [], "budget": 1})
        assert exc.value.code == "trap"
        assert "execution budget exceeded: 1 dispatches" in str(exc.value)
        # generous budget: same answer as unlimited
        ok = client.call("run_compressed",
                         {"module": rcx, "args": [],
                          "budget": 50_000_000})
        free = client.call("run_compressed",
                           {"module": rcx, "args": []})
        assert ok == free


def test_server_budget_caps_and_request_tightens(tmp_path, artifacts):  # noqa: F811
    h = _Harness(tmp_path, batch_window=0.01, exec_budget=2)
    try:
        with h.client() as client:
            client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
            rcx = client.compress(artifacts["app_bytes"], "prod")
            # the server-wide cap applies with no request param
            with pytest.raises(ServiceError) as exc:
                client.call("run_compressed", {"module": rcx, "args": []})
            assert "budget exceeded: 2 dispatches" in str(exc.value)
            # a request can tighten the cap...
            with pytest.raises(ServiceError) as exc:
                client.call("run_compressed",
                            {"module": rcx, "args": [], "budget": 1})
            assert "budget exceeded: 1 dispatches" in str(exc.value)
            # ...but never loosen it
            with pytest.raises(ServiceError) as exc:
                client.call("run_compressed",
                            {"module": rcx, "args": [],
                             "budget": 50_000_000})
            assert "budget exceeded: 2 dispatches" in str(exc.value)
            assert h.service.exec_budget == 2
            assert client.stats()["engine"]["exec_budget"] == 2
    finally:
        h.close()


@needs_cc
def test_native_crash_quarantines_and_server_survives(served):
    """The tentpole, single-process: an injected SIGSEGV inside the
    sandbox helper becomes ``poison_input`` (not a dead server), the
    verdict is durable, the repeat fails fast, and healthy requests on
    the same grammar still answer byte-identically."""
    h, rcx = served
    gkey, rdigest, pkey = _native_keys(h, rcx)
    plan = faults.FaultPlan(
        seed=5, sites={"native.crash": {"p": 1.0, "times": 1}})
    with h.client() as client:
        oracle = client.call("run_compressed",
                             {"module": rcx, "args": []})
        with faults.injected(plan):
            with pytest.raises(ServiceError) as exc:
                client.call("run_compressed", _run_native_params(rcx))
        assert exc.value.code == "poison_input"
        assert "SIGSEGV" in str(exc.value)
        # durable verdict, carrying the full identity
        verdict = h.service.registry.check_poison(pkey)
        assert verdict["verdict"] == "crash"
        assert verdict["content_key"] == gkey
        assert verdict["request_digest"] == rdigest
        # the repeat fails fast (no second crash: the plane is gone)
        with pytest.raises(ServiceError) as exc:
            client.call("run_compressed", _run_native_params(rcx))
        assert exc.value.code == "poison_input"
        # the server survived; healthy traffic is exact
        assert client.call("run_compressed",
                           {"module": rcx, "args": []}) == oracle
        engine = client.stats()["engine"]
        assert engine["native_crash"] == 1
        assert engine["poison_fastfail"] == 1
        assert pkey[:12] in engine["poisoned"]
        assert engine["sandbox"]["crashes"] == 1
    # and the registry still verifies clean
    report = h.service.registry.verify()
    assert report["clean"]
    assert report["poison"] == 1


@needs_cc
def test_native_hang_quarantines_via_watchdog(tmp_path, artifacts):  # noqa: F811
    h = _Harness(tmp_path, batch_window=0.01, native_watchdog=1.5,
                 request_timeout=60.0)
    try:
        with h.client(timeout=60.0) as client:
            client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
            rcx = client.compress(artifacts["app_bytes"], "prod")
            # warm the sandbox so the hang is not a compile in progress
            client.call("run_compressed", _run_native_params(rcx))
            plan = faults.FaultPlan(
                seed=6, sites={"native.hang": {"p": 1.0, "times": 1,
                                               "arg": 30.0}})
            with faults.injected(plan):
                with pytest.raises(ServiceError) as exc:
                    client.call("run_compressed",
                                _run_native_params(rcx))
            assert exc.value.code == "poison_input"
            assert "watchdog" in str(exc.value)
            engine = client.stats()["engine"]
            assert engine["native_hang"] == 1
            assert engine["sandbox"]["hangs"] == 1
            # recovered: the same grammar still runs natively
            result = client.call("run_compressed",
                                 {"module": rcx, "args": [2],
                                  "engine": "native"})
            assert "code" in result
    finally:
        h.close()
