"""The storage-side grammar table: one decode per container grammar.

A :class:`~repro.storage.GrammarTable` hands every clean load of a
container whose grammar it has seen the same :class:`Grammar` instance,
so the grammar's ``GrammarProgram`` (and every engine table hung off
it) is built once per table.  These tests pin the table's contract:
per-table lifetime, no mutation of interned grammars, per-blob rule
models, the LRU bound, and a table-less path that behaves as it always
did.  The live-service cases are in ``tests/test_service.py``.
"""

import hashlib
import struct
import sys
import threading

import pytest

from repro import compress_module, train_grammar
from repro import storage
from repro.coding.model import COUNTS_ATTR
from repro.compress.decompress import decompress_module
from repro.core.program import GrammarProgram, program_for
from repro.corpus.synth import generate_program
from repro.grammar.serialize import (
    encode_grammar_compact,
    encode_grammar_plain,
)
from repro.minic import compile_source
from repro.storage import (
    GrammarTable,
    load_any,
    load_compressed,
    load_grammar,
    save_compressed,
    save_grammar,
    save_module,
)

from tests.test_rcx2_malformed import _reseal


def _trained(seeds):
    corpus = [compile_source(generate_program(8, seed=s)) for s in seeds]
    grammar, _ = train_grammar(corpus)
    return grammar


@pytest.fixture(scope="module")
def art():
    grammar = _trained((331, 332, 333))
    modules = [compile_source(generate_program(4, seed=s))
               for s in (410, 411)]
    cmod = compress_module(grammar, modules[0])
    return {
        "grammar": grammar,
        "modules": modules,
        "rcx1": save_compressed(cmod),
        "rcx2": save_compressed(cmod, format="rcx2"),
    }


def _content_key(container: bytes) -> str:
    """The ``GrammarProgram.constructions`` key of a container's grammar
    (builds one program, so read it before taking a baseline)."""
    return program_for(load_compressed(container).grammar).content_key


def test_one_program_per_table_and_a_new_table_builds_again(art):
    key = _content_key(art["rcx1"])
    before = GrammarProgram.constructions[key]
    table = GrammarTable()
    loaded = [load_any(data, table)
              for data in (art["rcx1"], art["rcx2"]) * 3]
    assert all(c.grammar is loaded[0].grammar for c in loaded)
    assert GrammarProgram.constructions[key] == before + 1
    assert table.stats() == {"entries": 1, "hits": 5, "misses": 1}

    # the table's lifetime is its owner's: a second table starts cold
    other = GrammarTable()
    again = load_compressed(art["rcx2"], other)
    assert again.grammar is not loaded[0].grammar
    assert GrammarProgram.constructions[key] == before + 2
    assert other.stats() == {"entries": 1, "hits": 0, "misses": 1}


def test_interned_grammar_is_not_mutated(art):
    """An RCX2 load through a table attaches no counts and primes no
    model memo on the shared grammar."""
    table = GrammarTable()
    cmod = load_compressed(art["rcx2"], table)
    assert not hasattr(cmod.grammar, COUNTS_ATTR)
    assert "coding.model" not in program_for(cmod.grammar)._derived
    assert save_module(decompress_module(cmod)) == \
        save_module(art["modules"][0])


def test_compact_key_ignores_how_the_container_spells_its_grammar(art):
    """The loaders also accept the plain grammar encoding, so the digest
    of a container's grammar blob is not always the grammar's compact
    key; the key (the service's breaker key) must not depend on it."""
    cmod = load_compressed(art["rcx1"])
    compact = encode_grammar_compact(cmod.grammar)
    plain = encode_grammar_plain(cmod.grammar)
    rcx1 = art["rcx1"]
    at = rcx1.index(compact)
    spelled_plain = _reseal(rcx1[:at - 4] + struct.pack("<I", len(plain))
                            + plain + rcx1[at + len(compact):])
    loaded = load_compressed(spelled_plain, GrammarTable())
    assert program_for(loaded.grammar).compact_key == \
        hashlib.sha256(compact).hexdigest()


def test_models_stay_with_their_own_container(art):
    """Two RCX2 containers share a grammar blob but embed different
    models; through one table each decodes with its own model."""
    twin = load_grammar(save_grammar(art["grammar"]))
    counts = getattr(twin, COUNTS_ATTR)
    setattr(twin, COUNTS_ATTR, {
        "rules": [[c + i for i, c in enumerate(row)]
                  for row in counts["rules"]],
        "eos": counts["eos"] + 5,
    })
    first, second = art["modules"]
    rcx_a = save_compressed(compress_module(art["grammar"], first),
                            format="rcx2")
    rcx_b = save_compressed(compress_module(twin, second), format="rcx2")
    # the other counts really change how the stream is coded
    assert rcx_b != save_compressed(
        compress_module(art["grammar"], second), format="rcx2")

    table = GrammarTable()
    for _ in range(2):
        for data, module in ((rcx_a, first), (rcx_b, second)):
            cmod = load_compressed(data, table)
            assert save_module(decompress_module(cmod)) == \
                save_module(module)
    assert table.stats() == {"entries": 1, "hits": 3, "misses": 1}


def test_table_is_a_bounded_lru(art, monkeypatch):
    other = _trained((341, 342))
    rcx_other = save_compressed(
        compress_module(other, art["modules"][1]))
    monkeypatch.setattr(storage, "GRAMMAR_TABLE_SIZE", 1)
    table = GrammarTable()
    first = load_compressed(art["rcx1"], table)
    load_compressed(rcx_other, table)
    assert table.stats() == {"entries": 1, "hits": 0, "misses": 2}
    # the first grammar was evicted: decoded again, a new instance
    assert load_compressed(art["rcx1"], table).grammar \
        is not first.grammar
    assert table.stats() == {"entries": 1, "hits": 0, "misses": 3}


def test_concurrent_loads_lose_no_count(art):
    """Eight threads (more than this host's cores) load through one
    table with a shortened switch interval; every clean load is counted
    once, each thread misses at most on its first load, and every load
    decompresses to the module's bytes."""
    table = GrammarTable()
    expected = save_module(art["modules"][0])
    rounds, threads = 4, 8
    errors = []

    def worker():
        try:
            for _ in range(rounds):
                for data in (art["rcx1"], art["rcx2"]):
                    cmod = load_compressed(data, table)
                    if save_module(decompress_module(cmod)) != expected:
                        errors.append("decompressed bytes differ")
        except Exception as exc:  # noqa: BLE001 — reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert errors == []
    stats = table.stats()
    assert stats["hits"] + stats["misses"] == rounds * threads * 2
    assert 1 <= stats["misses"] <= threads
    assert stats["entries"] == 1


def test_table_less_rcx2_load_resaves_byte_identically(art):
    assert save_compressed(load_compressed(art["rcx2"]),
                           format="rcx2") == art["rcx2"]
