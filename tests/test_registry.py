"""Tests for the content-addressed grammar registry."""

import hashlib
import threading

import pytest

import repro
from repro.minic import compile_source
from repro.registry import GrammarRegistry, RegistryError, corpus_fingerprint
from repro.storage import StorageError, save_grammar

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
def trained():
    app = compile_source(APP)
    corpus = compile_source(CORPUS)
    grammar, report = repro.train_grammar([corpus, app])
    return app, corpus, grammar, report


@pytest.fixture()
def registry(tmp_path):
    return GrammarRegistry(tmp_path / "reg")


def test_registry_keeps_no_decoded_grammars(registry, trained):
    """Decoded grammars live with their owners (see
    test_service.py::test_compress_builds_each_grammar_once_per_service):
    the registry parses on every read and has no cache to size."""
    digest = registry.put(trained[2])
    assert registry.get(digest) is not registry.get(digest)
    with pytest.raises(TypeError):
        GrammarRegistry(registry.root, cache_size=2)


def test_put_is_content_addressed(registry, trained):
    app, corpus, grammar, report = trained
    digest = registry.put(grammar, report=report, corpus=[corpus, app])
    assert digest == hashlib.sha256(save_grammar(grammar)).hexdigest()
    # idempotent: same grammar, same hash, still one entry
    assert registry.put(grammar) == digest
    assert len(registry) == 1


def test_metadata_provenance(registry, trained):
    app, corpus, grammar, report = trained
    digest = registry.put(grammar, report=report, corpus=[corpus, app],
                          tags=["prod"], extra={"note": "pr2"})
    meta = registry.meta(digest)
    assert meta["hash"] == digest
    assert meta["rules"] == grammar.total_rules()
    assert meta["training"]["iterations"] == report.iterations
    assert meta["training"]["wall_seconds"] == report.wall_seconds
    assert meta["corpus"]["modules"] == 2
    assert meta["corpus"]["fingerprint"] == \
        corpus_fingerprint([app, corpus])  # order-insensitive
    assert meta["note"] == "pr2"
    assert meta["tags"] == ["prod"]


def test_metadata_records_trainer_identity(registry, trained):
    """The trainer's id and knobs travel with the grammar (ISSUE 10):
    a stored artifact can always answer *which* strategy produced it."""
    app, corpus, grammar, report = trained
    digest = registry.put(grammar, report=report, corpus=[corpus, app])
    training = registry.meta(digest)["training"]
    assert training["trainer"] == "greedy"
    assert training["trainer_params"] == {}
    assert training["seed_rules"] == 0
    assert training["refine_seconds"] >= 0.0


def test_metadata_records_seeding_trainer(registry):
    corpus = [compile_source(CORPUS)]
    grammar, report = repro.train_grammar(
        corpus, strategy="hybrid", strategy_params={"max_rounds": 4})
    digest = registry.put(grammar, report=report, corpus=corpus)
    training = registry.meta(digest)["training"]
    assert training["trainer"] == "hybrid"
    assert training["trainer_params"]["max_rounds"] == 4
    assert training["trainer_params"]["budget_frac"] == 0.1
    assert training["seed_rules"] == report.seed_rules > 0
    assert training["seed_rounds"] == report.seed_rounds
    assert training["seed_seconds"] >= 0.0


def test_resolve_tag_prefix_and_errors(registry, trained):
    _, _, grammar, _ = trained
    digest = registry.put(grammar, tags=["prod", "v1"])
    assert registry.resolve("prod") == digest
    assert registry.resolve(digest) == digest
    assert registry.resolve(digest[:8]) == digest
    assert "prod" in registry and digest[:8] in registry
    with pytest.raises(RegistryError):
        registry.resolve("no-such-tag")
    with pytest.raises(RegistryError):
        registry.resolve("deadbeef" * 8)  # well-formed, absent
    with pytest.raises(RegistryError):
        registry.tag(digest, "bad tag name!")


def test_tag_repoint(registry, trained):
    _, _, grammar, _ = trained
    digest = registry.put(grammar, tags=["prod"])
    # retag to the same artifact via a prefix reference
    assert registry.tag(digest[:10], "prod") == digest
    assert registry.tags() == {"prod": digest}


def test_get_parses_a_grammar_that_compresses_identically(registry,
                                                         trained):
    app, _, grammar, _ = trained
    digest = registry.put(grammar)
    loaded = registry.get(digest)
    assert save_grammar(loaded) == save_grammar(grammar)
    a = repro.Compressor(grammar).compress_module(app)
    b = repro.Compressor(loaded).compress_module(app)
    assert [p.code for p in a.procedures] == [p.code for p in b.procedures]
    assert registry.program(digest).grammar.nt_names == grammar.nt_names


def test_second_handle_sees_the_same_objects(tmp_path, trained):
    _, _, grammar, _ = trained
    digest = GrammarRegistry(tmp_path / "reg").put(grammar)
    other = GrammarRegistry(tmp_path / "reg")
    assert other.resolve(digest[:8]) == digest
    assert other.get(digest).nt_names == grammar.nt_names


def test_put_bytes_rejects_junk(registry):
    with pytest.raises(StorageError):
        registry.put_bytes(b"RGR1" + b"\x00" * 32)
    assert len(registry) == 0


def test_concurrent_get_same_object(registry, trained):
    _, _, grammar, _ = trained
    digest = registry.put(grammar)
    seen = []

    def reader():
        for _ in range(20):
            seen.append(registry.get(digest))

    threads = [threading.Thread(target=reader) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(seen) == 8 * 20
    stored = save_grammar(grammar)
    assert all(save_grammar(g) == stored for g in seen)
