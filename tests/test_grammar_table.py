"""The storage-side grammar table: one decode per container grammar.

A :class:`~repro.storage.GrammarTable` hands every clean load of a
container whose grammar it has seen the same :class:`Grammar` instance,
so the grammar's ``GrammarProgram`` (and every engine table hung off
it) is built once per table.  Every container load goes through one: a
caller without a table gets a fresh private one.  These tests pin the
table's contract: per-table lifetime, no mutation of interned grammars,
per-blob rule models that ride on the loaded module, the LRU bound, and
the one grammar encoding a container or grammar file may embed.  The
live-service cases are in ``tests/test_service.py``.
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
    StorageError,
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
        "rgr1": save_grammar(grammar),
    }


@pytest.fixture(scope="module")
def two_models(art):
    """Two RCX2 containers that share one grammar blob but embed
    different models."""
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
    return rcx_a, rcx_b


def respell_plain(data: bytes, grammar) -> bytes:
    """``data`` (an RCX1, RCX2 or RGR1 file embedding ``grammar``) with
    its grammar blob respelled in the plain (EG1P) encoding, any
    embedded model rebound to the new blob's digest and the trailer
    resealed: well formed in every other respect."""
    compact = encode_grammar_compact(grammar)
    plain = encode_grammar_plain(grammar)
    at = data.index(compact)
    out = (data[:at - 4] + struct.pack("<I", len(plain)) + plain
           + data[at + len(compact):])
    out = out.replace(hashlib.sha256(compact).digest(),
                      hashlib.sha256(plain).digest())
    assert plain in out and compact not in out
    return _reseal(out)


def _content_key(container: bytes) -> str:
    """The ``GrammarProgram.constructions`` key of a container's grammar
    (builds one program, so read it before taking a baseline)."""
    return program_for(load_compressed(container).grammar).compact_key


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


@pytest.mark.parametrize("kind", ["rcx1", "rcx2", "rgr1"])
def test_embedded_grammar_must_be_the_compact_encoding(art, kind):
    """Every writer embeds the compact (EG1C) grammar encoding, so a
    file whose grammar blob is respelled in the plain (EG1P) one is
    rejected, and a blob's digest is always its grammar's compact key.
    A rejected container leaves the table unchanged."""
    respelled = respell_plain(art[kind], art["grammar"])
    table = GrammarTable()
    with pytest.raises(StorageError, match="EG1C"):
        if kind == "rgr1":
            load_grammar(respelled)
        else:
            load_compressed(respelled, table)
    assert table.stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_models_stay_with_their_own_container(art, two_models):
    """Two RCX2 containers share a grammar blob but embed different
    models; through one table each decodes with its own model."""
    table = GrammarTable()
    for _ in range(2):
        for data, module in zip(two_models, art["modules"]):
            cmod = load_compressed(data, table)
            assert save_module(decompress_module(cmod)) == \
                save_module(module)
    assert table.stats() == {"entries": 1, "hits": 3, "misses": 1}


def test_rcx2_loaded_through_a_shared_table_resaves_byte_identically(
        two_models):
    """Each load's model rides on its module, not on the shared
    grammar, so both containers re-save as RCX2 byte-identically
    through one table, in either order."""
    table = GrammarTable()
    for data in two_models + two_models[::-1]:
        cmod = load_compressed(data, table)
        assert save_compressed(cmod, format="rcx2") == data
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
