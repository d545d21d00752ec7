"""The native engine's build cache and failure taxonomy.

The shared object is a *derived artifact*: everything here pins the
properties that make it safe to cache — a second load compiles nothing,
a different grammar can never be served a stale object (the key folds in
the grammar's content hash), a corrupted object on disk is rebuilt
rather than crashing, and a failed build surfaces as a structured
:class:`NativeBuildError` (deliberately not a ``RuntimeError``) so the
service falls back instead of reporting a program trap.  The fault-plane
site ``native.build`` drives the same path without breaking the
toolchain.
"""

import pytest

from repro import compress_module, faults, train_grammar
from repro.corpus.synth import generate_program
from repro.interp.native import NativeEngine, native_available
from repro.interp.nativebuild import (
    NativeBuildCache,
    NativeBuildError,
    NativeUnavailableError,
    find_compiler,
)
from repro.minic import compile_source

needs_cc = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler on PATH: native engine unavailable")


@pytest.fixture(scope="module")
def grammar():
    corpus = [compile_source(generate_program(6, seed=s))
              for s in (421, 422)]
    g, _ = train_grammar(corpus)
    return g


@pytest.fixture(scope="module")
def other_grammar():
    corpus = [compile_source(generate_program(6, seed=s))
              for s in (431, 432)]
    g, _ = train_grammar(corpus)
    return g


@pytest.fixture(scope="module")
def cmod(grammar):
    return compress_module(
        grammar, compile_source("int main() { return 42; }"))


# -- cache hit / miss ---------------------------------------------------------

@needs_cc
def test_first_load_compiles_second_load_hits(tmp_path, grammar, cmod):
    cache = NativeBuildCache(root=tmp_path)
    assert NativeEngine(cmod, cache=cache).run().code == 42
    assert cache.compilations == 1
    assert NativeEngine(cmod, cache=cache).run().code == 42
    assert cache.compilations == 1  # the whole point of the cache
    assert cache.cache_hits == 1


@needs_cc
def test_fresh_cache_instance_hits_the_disk(tmp_path, grammar, cmod):
    """The cache is on-disk content addressing, not in-process memo: a
    new instance over the same root compiles zero times."""
    first = NativeBuildCache(root=tmp_path)
    NativeEngine(cmod, cache=first)
    second = NativeBuildCache(root=tmp_path)
    assert NativeEngine(cmod, cache=second).run().code == 42
    assert second.compilations == 0
    assert second.cache_hits == 1


@needs_cc
def test_grammar_change_invalidates(tmp_path, grammar, other_grammar):
    """Two grammars never share a slot: the key folds in compact_key, so
    a retrained grammar compiles fresh instead of reusing stale code."""
    cache = NativeBuildCache(root=tmp_path)
    assert cache.object_path(grammar) != cache.object_path(other_grammar)
    module = compile_source("int main() { return 7; }")
    for g in (grammar, other_grammar):
        assert NativeEngine(compress_module(g, module),
                            cache=cache).run().code == 7
    assert cache.compilations == 2


@needs_cc
def test_corrupted_object_is_rebuilt_not_crashed(tmp_path, grammar, cmod):
    """Garbage found on disk at load time rebuilds transparently.

    The valid object is produced without dlopen'ing it (dlopen caches
    handles by pathname, so a prior in-process load would mask the
    corruption) — this is the cold-process-finds-garbage scenario."""
    cache = NativeBuildCache(root=tmp_path)
    target = cache.object_path(grammar)
    cache._compile(grammar, target)
    assert target.exists()
    target.unlink()  # never clobber in place: a mapped library SIGBUSes
    target.write_bytes(b"\x7fELF not really a shared object")
    fresh = NativeBuildCache(root=tmp_path)
    assert NativeEngine(cmod, cache=fresh).run().code == 42
    assert fresh.compilations == 1  # rebuilt once, transparently


@needs_cc
def test_wrong_grammar_object_is_rejected_and_rebuilt(
        tmp_path, grammar, other_grammar, cmod):
    """A valid shared object in the *wrong* slot (burned-in grammar key
    mismatch) is treated exactly like corruption."""
    cache = NativeBuildCache(root=tmp_path)
    NativeEngine(cmod, cache=cache)
    import shutil
    shutil.copy(cache.object_path(grammar),
                cache.object_path(other_grammar))
    fresh = NativeBuildCache(root=tmp_path)
    other_cmod = compress_module(
        other_grammar, compile_source("int main() { return 42; }"))
    assert NativeEngine(other_cmod, cache=fresh).run().code == 42
    assert fresh.compilations == 1


# -- failure taxonomy ---------------------------------------------------------

@needs_cc
def test_compile_error_is_a_structured_build_error(tmp_path, grammar):
    """A cgen regression (or toolchain breakage) must surface as
    NativeBuildError with the compiler's diagnostics attached — and must
    NOT be a RuntimeError, which the service treats as a program trap."""
    cache = NativeBuildCache(root=tmp_path)
    with pytest.raises(NativeBuildError) as err:
        cache.load(grammar, source_text="int rxn_abi(void) { syntax !! }")
    assert not isinstance(err.value, RuntimeError)
    assert "exit" in str(err.value)
    assert cache.compilations == 0  # a failed build caches nothing
    assert not cache.object_path(grammar).exists()


def test_no_compiler_is_unavailable_not_a_crash(tmp_path, grammar,
                                                monkeypatch):
    """REPRO_NATIVE_CC=none is the compiler-less CI hook: detection says
    unavailable, and a build attempt raises the structured subclass."""
    monkeypatch.setenv("REPRO_NATIVE_CC", "none")
    assert find_compiler() is None
    assert not native_available()
    cache = NativeBuildCache(root=tmp_path)
    with pytest.raises(NativeUnavailableError):
        cache.load(grammar)


def test_compiler_override_env(monkeypatch):
    monkeypatch.setenv("REPRO_NATIVE_CC", "definitely-not-a-compiler-xyz")
    assert find_compiler() is None
    monkeypatch.delenv("REPRO_NATIVE_CC")
    monkeypatch.setenv("CC", "")
    assert find_compiler() is None


# -- fault plane --------------------------------------------------------------

@needs_cc
def test_native_build_fault_site_fires(tmp_path, grammar):
    """The chaos plane can fail a build without touching the toolchain;
    the injected failure wears the same NativeBuildError the service's
    fallback path handles."""
    cache = NativeBuildCache(root=tmp_path)
    with faults.injected(
            {"seed": 0, "sites": {"native.build": {"at": [1]}}}):
        with pytest.raises(NativeBuildError, match="injected"):
            cache.load(grammar)
        # second evaluation: the rule is exhausted, the build succeeds
        assert cache.load(grammar) is not None
    assert cache.compilations == 1


@needs_cc
def test_native_build_fault_does_not_hit_cached_objects(tmp_path, grammar,
                                                        cmod):
    """The site guards the *build*, not the load: once the object is on
    disk, an active fault plan cannot fail run_compressed."""
    cache = NativeBuildCache(root=tmp_path)
    NativeEngine(cmod, cache=cache)
    fresh = NativeBuildCache(root=tmp_path)
    with faults.injected(
            {"seed": 0, "sites": {"native.build": {"p": 1.0}}}):
        assert NativeEngine(cmod, cache=fresh).run().code == 42
