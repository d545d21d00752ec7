"""End-to-end tests for the async compression service.

The server runs on a real TCP socket inside a background event-loop
thread; tests talk to it through the blocking :class:`ServiceClient`
(and through plain sockets for protocol-level checks), exactly as an
external client would.
"""

import asyncio
import json
import socket
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro
from repro.core.program import GrammarProgram, program_for
from repro.interp.interp2 import Interpreter2
from repro.interp.runtime import run_program
from repro.minic import compile_source
from repro.registry import GrammarRegistry
from repro.service import CompressionService, ServiceClient, ServiceError
from repro.service import protocol
from repro.storage import (
    load_compressed,
    save_compressed,
    save_grammar,
    save_module,
)

from tests.test_grammar_table import respell_plain
from tests.test_rcx2_malformed import _reseal

APP = """
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) { putint(fib(10)); putchar('\\n'); return 0; }
"""

CORPUS = """
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 30; i++) s += i * i;
    putint(s);
    return 0;
}
"""


@pytest.fixture(scope="module")
def artifacts():
    app = compile_source(APP)
    corpus = compile_source(CORPUS)
    grammar, report = repro.train_grammar([corpus, app])
    return {
        "app": app,
        "app_bytes": save_module(app),
        "grammar": grammar,
        "grammar_bytes": save_grammar(grammar),
        "report": report,
    }


class _Harness:
    """A service running in a background event-loop thread."""

    def __init__(self, tmp_path, **kwargs):
        self.service = CompressionService(
            GrammarRegistry(tmp_path / "registry"), **kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.run(self.service.start("127.0.0.1", 0))
        self.port = self.service.port

    def run(self, coro, timeout=30):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def client(self, **kw):
        return ServiceClient("127.0.0.1", self.port, **kw)

    def close(self):
        try:
            self.run(self.service.stop(grace=10))
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(5)
            self.loop.close()


@pytest.fixture()
def harness(tmp_path):
    h = _Harness(tmp_path, batch_window=0.01)
    yield h
    h.close()


# -- the acceptance path ------------------------------------------------------

def test_end_to_end_round_trip(harness, artifacts):
    """put -> compress -> decompress byte-identical -> run matches local."""
    with harness.client() as client:
        assert client.health()["status"] == "ok"

        digest = client.put_grammar(artifacts["grammar_bytes"],
                                    tags=["prod"])
        listing = client.list_grammars()
        assert [g["hash"] for g in listing["grammars"]] == [digest]
        assert listing["tags"] == {"prod": digest}

        rcx = client.compress(artifacts["app_bytes"], "prod")
        back = client.decompress(rcx)
        assert back == artifacts["app_bytes"]  # byte-identical RBC1

        code, output = client.run_compressed(rcx)
        assert (code, output) == repro.run(artifacts["app"])

        data, meta = client.get_grammar(digest[:10])
        assert data == artifacts["grammar_bytes"]
        assert meta["tags"] == ["prod"]

        stats = client.stats()
        requests = stats["counters"]["requests_total"]
        for method in ("grammar.put", "compress", "decompress",
                       "run_compressed", "grammar.list", "grammar.get"):
            assert requests[f"{method}|ok"] >= 1
        assert stats["counters"]["bytes_in_total"] > 0
        assert stats["counters"]["bytes_out_total"] > 0
        assert stats["histograms"]["batch_size"]["count"] >= 1
        latency = stats["histograms"]["request_seconds"]
        assert latency["compress"]["count"] == 1
        assert latency["compress"]["buckets"]["le_inf"] == 1
        grammar_stats = stats["grammars"][digest[:12]]
        assert grammar_stats["jobs"] == 1
        assert grammar_stats["derivation_cache"]["enabled"]


def test_concurrent_clients_batch(tmp_path, artifacts):
    """Near-simultaneous requests against one grammar coalesce into
    batches (>1 average batch size) and all succeed."""
    h = _Harness(tmp_path, batch_window=0.15, high_water=64)
    try:
        with h.client() as admin:
            admin.put_grammar(artifacts["grammar_bytes"], tags=["prod"])

        def one_request(_):
            with h.client() as c:
                return c.compress(artifacts["app_bytes"], "prod")

        n = 12
        with ThreadPoolExecutor(max_workers=n) as pool:
            results = list(pool.map(one_request, range(n)))
        assert len(set(results)) == 1  # deterministic output

        with h.client() as admin:
            stats = admin.stats()
        batch = stats["histograms"]["batch_size"]
        assert batch["sum"] == n  # every job accounted for
        assert batch["mean"] > 1.0, f"no batching: {batch}"
        # the shared derivation cache was hit by the repeats
        (grammar_stats,) = stats["grammars"].values()
        assert grammar_stats["derivation_cache"]["hits"] > 0
    finally:
        h.close()


def test_overload_sheds_past_high_water(tmp_path, artifacts):
    """Past the high-water mark the server rejects with a structured,
    retryable `overloaded` error instead of queueing unboundedly."""
    h = _Harness(tmp_path, batch_window=0.5, high_water=2,
                 max_inflight=1)
    try:
        with h.client() as admin:
            admin.put_grammar(artifacts["grammar_bytes"], tags=["prod"])

        outcomes = []
        lock = threading.Lock()

        def one_request(_):
            try:
                with h.client() as c:
                    c.compress(artifacts["app_bytes"], "prod")
                    result = "ok"
            except ServiceError as exc:
                assert exc.code == "overloaded"
                assert exc.retryable
                result = "overloaded"
            with lock:
                outcomes.append(result)

        n = 10
        with ThreadPoolExecutor(max_workers=n) as pool:
            list(pool.map(one_request, range(n)))
        assert outcomes.count("ok") == 2  # exactly the high-water mark
        assert outcomes.count("overloaded") == n - 2

        with h.client() as admin:
            stats = admin.stats()
        requests = stats["counters"]["requests_total"]
        assert requests["compress|ok"] == 2
        assert requests["compress|overloaded"] == n - 2
    finally:
        h.close()


def test_request_timeout_is_structured(tmp_path, artifacts):
    """A request that cannot finish in time gets a `timeout` error
    frame, not a hung socket."""
    h = _Harness(tmp_path, batch_window=0.5, request_timeout=0.1)
    try:
        with h.client() as client:
            client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
            with pytest.raises(ServiceError) as exc_info:
                # the batch window alone exceeds the request timeout
                client.compress(artifacts["app_bytes"], "prod")
            assert exc_info.value.code == "timeout"
            assert exc_info.value.retryable
            # the connection survives a timed-out request
            assert client.health()["status"] == "ok"
    finally:
        h.close()


def test_drain_completes_inflight_requests(tmp_path, artifacts):
    """stop() finishes accepted requests before tearing down."""
    h = _Harness(tmp_path, batch_window=0.3)
    with h.client() as client:
        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        result = {}

        def slow_compress():
            with h.client() as c:
                result["data"] = c.compress(artifacts["app_bytes"],
                                            "prod")

        worker = threading.Thread(target=slow_compress)
        worker.start()
        # let the request land in the batch window, then drain
        import time
        time.sleep(0.1)
        h.close()
        worker.join(10)
        assert result["data"]  # drained, not dropped
    # new connections are refused after drain
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", h.port), timeout=1)


# -- error paths --------------------------------------------------------------

def test_error_frames(harness, artifacts):
    with harness.client() as client:
        with pytest.raises(ServiceError) as e:
            client.call("no.such.method")
        assert e.value.code == "bad_request"

        with pytest.raises(ServiceError) as e:
            client.compress(artifacts["app_bytes"], "unknown-grammar")
        assert e.value.code == "not_found"

        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        with pytest.raises(ServiceError) as e:
            client.compress(b"RBC1" + b"\xff" * 20, "prod")
        assert e.value.code == "bad_request"

        with pytest.raises(ServiceError) as e:
            client.decompress(artifacts["app_bytes"])  # RBC1, not RCX1
        assert e.value.code == "bad_request"

        with pytest.raises(ServiceError) as e:
            client.run_compressed(artifacts["app_bytes"])
        assert e.value.code == "bad_request"
        assert "an RCX1/RCX2 compressed module" in e.value.message

        with pytest.raises(ServiceError) as e:
            client.put_grammar(b"not a grammar at all")
        assert e.value.code == "bad_request"

        # errors are counted by outcome
        stats = client.stats()
        requests = stats["counters"]["requests_total"]
        assert requests["compress|not_found"] == 1
        assert requests["compress|bad_request"] == 1


def test_malformed_frames_drop_connection(harness):
    health = json.dumps({"id": 1, "method": "health",
                         "params": {}}).encode("utf-8")
    frames = [
        # binary frame whose header is not JSON at all
        (struct.pack(">II", protocol.BINARY_BIT | 11, 7) + b"garbage",
         "invalid JSON"),
        # oversized length prefix: rejected without allocating
        (struct.pack(">I", protocol.MAX_FRAME + 1), "too large"),
        # a well-formed JSON frame (length word high bit clear) is no
        # request
        (struct.pack(">I", len(health)) + health, "binary-frame bit"),
    ]
    for frame, reason in frames:
        # one structured error frame comes back, then EOF
        with socket.create_connection(("127.0.0.1", harness.port),
                                      timeout=5) as sock:
            sock.sendall(frame)
            msg = protocol.recv_message_sync(sock)
            assert msg["ok"] is False
            assert msg["id"] is None
            assert msg["error"]["code"] == "bad_request"
            assert reason in msg["error"]["message"]
            assert sock.recv(1) == b""  # server hung up


def test_protocol_frame_roundtrip():
    frame = protocol.encode_message({"id": 1, "method": "health",
                                     "params": {}})
    (length,) = struct.unpack(">I", frame[:4])
    assert length == protocol.BINARY_BIT | (len(frame) - 4)
    (hlen,) = struct.unpack(">I", frame[4:8])
    assert protocol.decode_body(frame[8:8 + hlen])["method"] == "health"
    with pytest.raises(protocol.FrameError):
        protocol.decode_body(b"[1, 2]")  # not an object
    with pytest.raises(protocol.FrameError):
        protocol.b64d("@@@not base64@@@")


# -- binary framing -----------------------------------------------------------

def test_binary_frame_roundtrip_large_payload():
    """A multi-megabyte payload crosses the codec exactly once, raw —
    no base64 inflation anywhere in the frame."""
    payload = bytes(range(256)) * (4 << 12)  # 4 MiB, all byte values
    msg = {"id": 7, "method": "compress",
           "params": {"module": payload, "grammar": "prod"}}
    frame = protocol.encode_message(msg)
    (word,) = struct.unpack(">I", frame[:4])
    assert word & protocol.BINARY_BIT
    assert len(frame) - 4 == word & ~protocol.BINARY_BIT
    # raw payload present verbatim: the frame is payload + small header
    assert len(frame) < len(payload) + 512
    back = protocol.decode_binary_body(frame[4:])
    assert back["params"]["module"] == payload
    assert back["params"]["grammar"] == "prod"
    assert back["id"] == 7
    assert "bin" not in back  # binding key is consumed, not leaked


def test_binary_frame_zero_length_payload():
    msg = {"id": 1, "ok": True, "result": {"data": b"", "n": 3}}
    frame = protocol.encode_message(msg)
    back = protocol.decode_binary_body(frame[4:])
    assert back["result"]["data"] == b""
    assert back["result"]["n"] == 3


def test_binary_frame_no_bytes_at_all():
    """Envelopes without bulk fields still work in binary mode."""
    msg = {"id": 2, "method": "health", "params": {}}
    back = protocol.decode_binary_body(
        protocol.encode_message(msg)[4:])
    assert back == msg


def test_binary_frame_picks_largest_field_as_payload():
    """Only the biggest bytes value rides raw; smaller ones fall back
    to base64 so the frame stays single-payload."""
    msg = {"id": 3, "method": "run_compressed",
           "params": {"module": b"M" * 1000, "input": b"tiny"}}
    back = protocol.decode_binary_body(
        protocol.encode_message(msg)[4:])
    assert back["params"]["module"] == b"M" * 1000  # raw payload
    assert protocol.b64d(back["params"]["input"]) == b"tiny"


def test_binary_frame_length_mismatch_is_frame_error():
    # header length word larger than the body that follows
    good = protocol.encode_message(
        {"id": 5, "params": {"data": b"xyz"}})[4:]
    (hlen,) = struct.unpack(">I", good[:4])
    bad = struct.pack(">I", hlen + 1000) + good[4:]
    with pytest.raises(protocol.FrameError):
        protocol.decode_binary_body(bad)
    # truncated below the header-length word itself
    with pytest.raises(protocol.FrameError):
        protocol.decode_binary_body(b"\x00")
    # payload bytes present but nothing binds them
    naked = protocol.encode_message({"id": 6})[8:]  # the header alone
    with pytest.raises(protocol.FrameError):
        protocol.decode_binary_body(
            struct.pack(">I", len(naked)) + naked + b"orphan")


def test_binary_length_mismatch_gets_structured_error(harness):
    """A corrupt binary frame over a real socket comes back as a
    structured bad_request error frame, then the server hangs up."""
    good = protocol.encode_message(
        {"id": 9, "method": "health", "params": {"blob": b"abcdef"}})
    # corrupt the inner header-length word, keep the outer length valid
    bad = bytearray(good)
    struct.pack_into(">I", bad, 4, 0x00FFFFFF)
    with socket.create_connection(("127.0.0.1", harness.port),
                                  timeout=5) as sock:
        sock.sendall(bytes(bad))
        msg = protocol.recv_message_sync(sock)
        assert msg["ok"] is False and msg["id"] is None
        assert msg["error"]["code"] == "bad_request"
        assert sock.recv(1) == b""


# -- entropy-coded containers over the wire -----------------------------------

def test_rcx2_format_round_trip_and_metrics(harness, artifacts):
    """`compress` honours the format param, decompress auto-detects the
    container, and the stats endpoint reports per-format counters plus
    coded-bytes histograms."""
    with harness.client() as client:
        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        rcx1 = client.compress(artifacts["app_bytes"], "prod")
        rcx2 = client.compress(artifacts["app_bytes"], "prod",
                               format="rcx2")
        assert rcx1[:4] == b"RCX1"
        assert rcx2[:4] == b"RCX2"
        assert client.decompress(rcx1) == artifacts["app_bytes"]
        assert client.decompress(rcx2) == artifacts["app_bytes"]

        stats = client.stats()
        assert stats["counters"]["compress_format_total"] == \
            {"rcx1": 1, "rcx2": 1}
        coded = stats["histograms"]["coded_bytes"]
        assert coded["rcx1"]["count"] == 1
        assert coded["rcx1"]["sum"] == len(rcx1)
        assert coded["rcx2"]["count"] == 1
        assert coded["rcx2"]["sum"] == len(rcx2)


def test_rcx2_unknown_format_is_bad_request(harness, artifacts):
    with harness.client() as client:
        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        with pytest.raises(ServiceError) as err:
            client.compress(artifacts["app_bytes"], "prod",
                            format="rcx9")
        assert err.value.code == protocol.E_BAD_REQUEST
        assert not err.value.retryable


def test_rcx2_model_missing_is_structured_and_retryable(harness,
                                                        artifacts):
    """A grammar stored without training counts (a legacy RGR1) still
    serves rcx1, but rcx2 requests fail with the retryable
    ``model_missing`` error — retraining under the same tag clears it
    without a client change."""
    from repro.coding.model import COUNTS_ATTR

    grammar = artifacts["grammar"]
    counts = getattr(grammar, COUNTS_ATTR)
    delattr(grammar, COUNTS_ATTR)
    try:
        legacy_bytes = save_grammar(grammar)
    finally:
        setattr(grammar, COUNTS_ATTR, counts)

    with harness.client() as client:
        client.put_grammar(artifacts["grammar_bytes"], tags=["prod"])
        client.put_grammar(legacy_bytes, tags=["legacy"])
        listing = {
            tuple(g["tags"]): g for g in client.list_grammars()["grammars"]
        }
        assert listing[("prod",)]["model"] is True
        assert listing[("legacy",)]["model"] is False

        assert client.compress(artifacts["app_bytes"],
                               "legacy")[:4] == b"RCX1"
        with pytest.raises(ServiceError) as err:
            client.compress(artifacts["app_bytes"], "legacy",
                            format="rcx2")
        assert err.value.code == protocol.E_MODEL_MISSING
        assert err.value.retryable
        # the same request against the trained grammar succeeds
        assert client.compress(artifacts["app_bytes"], "prod",
                               format="rcx2")[:4] == b"RCX2"


# -- owners: one program per registered grammar per service ------------------

def test_compress_builds_each_grammar_once_per_service(tmp_path, artifacts):
    """The service owns the grammars it compresses with: a grammar.put
    and then six compress requests build the grammar's program once (the
    per-grammar compressor keeps it), and a second service over the same
    registry builds it once more."""
    key = program_for(artifacts["grammar"]).compact_key
    before = GrammarProgram.constructions[key]
    h = _Harness(tmp_path)
    try:
        with h.client() as client:
            digest = client.put_grammar(artifacts["grammar_bytes"],
                                        tags=["prod"])
            for format in ("rcx1", "rcx2") * 3:
                data = client.compress(artifacts["app_bytes"], "prod",
                                       format=format)
                assert data[:4] == format.upper().encode()
    finally:
        h.close()
    assert GrammarProgram.constructions[key] == before + 1

    h = _Harness(tmp_path)
    try:
        with h.client() as client:
            assert client.compress(artifacts["app_bytes"],
                                   digest)[:4] == b"RCX1"
    finally:
        h.close()
    assert GrammarProgram.constructions[key] == before + 2


# -- the grammar table: one decode per container grammar per service ---------

def _containers(artifacts):
    """The app's RCX1 and RCX2 containers, compressed in process (so the
    registry grammar's program stays out of the build counts)."""
    cmod = repro.compress_module(artifacts["grammar"], artifacts["app"])
    return cmod, save_compressed(cmod), save_compressed(cmod,
                                                        format="rcx2")


def test_grammar_table_builds_each_grammar_once_per_service(tmp_path,
                                                            artifacts):
    """Twelve compiled runs and decompressions of one grammar's RCX1 and
    RCX2 containers build its program once; a second service starts
    cold and builds it again."""
    cmod, rcx1, rcx2 = _containers(artifacts)
    expected_run = run_program(cmod, Interpreter2(cmod))
    key = program_for(load_compressed(rcx1).grammar).compact_key
    before = GrammarProgram.constructions[key]
    h = _Harness(tmp_path / "one")
    try:
        with h.client() as client:
            for i in range(6):
                for data in (rcx1, rcx2):
                    if i % 2:
                        assert client.decompress(data) == \
                            artifacts["app_bytes"]
                    else:
                        assert client.run_compressed(data) == expected_run
            stats = client.stats()
    finally:
        h.close()
    assert GrammarProgram.constructions[key] == before + 1
    assert stats["grammar_table"] == {"entries": 1, "hits": 11,
                                      "misses": 1}

    h = _Harness(tmp_path / "two")
    try:
        with h.client() as client:
            assert client.run_compressed(rcx2) == expected_run
    finally:
        h.close()
    assert GrammarProgram.constructions[key] == before + 2


def _flip(data: bytes, pos: int) -> bytes:
    return data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:]


def test_rejected_containers_leave_grammar_table_unchanged(harness,
                                                           artifacts):
    cmod, rcx1, rcx2 = _containers(artifacts)
    # RCX2 tail: payload CRC (u32), stream blob (u32 length + bytes),
    # file trailer
    crc = 0
    for proc in cmod.procedures:
        crc = zlib.crc32(proc.code, crc)
    crc_at = rcx2.rindex(struct.pack("<I", crc))
    (stream_len,) = struct.unpack_from("<I", rcx2, crc_at + 4)
    assert crc_at + 8 + stream_len + 4 == len(rcx2)
    bad = [
        _flip(rcx1, len(rcx1) // 2),
        # the model's binding digest no longer names this grammar
        _reseal(_flip(rcx2, rcx2.index(b"RMD1") + 5)),
        # the stream decodes, but not to the declared payload
        _reseal(_flip(rcx2, crc_at)),
    ]
    with harness.client() as client:
        assert client.decompress(rcx2) == artifacts["app_bytes"]
        table = client.stats()["grammar_table"]
        assert table == {"entries": 1, "hits": 0, "misses": 1}
        for data in bad:
            with pytest.raises(ServiceError) as err:
                client.run_compressed(data)
            assert err.value.code == protocol.E_BAD_REQUEST
            with pytest.raises(ServiceError) as err:
                client.decompress(data)
            assert err.value.code == protocol.E_BAD_REQUEST
        assert client.stats()["grammar_table"] == table
        assert client.run_compressed(rcx1) == \
            run_program(cmod, Interpreter2(cmod))
        assert client.stats()["grammar_table"] == \
            {"entries": 1, "hits": 1, "misses": 1}


def test_plain_spelled_grammar_is_a_bad_request(harness, artifacts):
    """A container whose grammar blob is respelled in the plain (EG1P)
    encoding, though otherwise well formed, is a bad request on both
    container paths and leaves the grammar table unchanged."""
    _, rcx1, rcx2 = _containers(artifacts)
    with harness.client() as client:
        assert client.decompress(rcx1) == artifacts["app_bytes"]
        table = client.stats()["grammar_table"]
        for data in (rcx1, rcx2):
            respelled = respell_plain(data, artifacts["grammar"])
            for call in (client.run_compressed, client.decompress):
                with pytest.raises(ServiceError) as err:
                    call(respelled)
                assert err.value.code == protocol.E_BAD_REQUEST
                assert "EG1C" in str(err.value)
        assert client.stats()["grammar_table"] == table
