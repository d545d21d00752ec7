"""Differential execution equivalence: four engines, one behaviour.

The direct-threaded engine (:class:`~repro.interp.compiled.CompiledEngine`)
claims to be a pure performance transformation of the paper's generated
``interpNT``, and the native engine (:mod:`repro.interp.native`) claims
the same for the C compiled from :func:`repro.interp.cgen.emit_native`.
This suite holds both to that claim across a 50-seed fuzz corpus,
running every program four ways:

(a) the compiled engine on the compressed form,
(b) the reference ``interp2`` on the same compressed form,
(c) ``interp1`` on the decompressed bytecode,
(d) the native machine-code engine on the compressed form
    (skipped with a reason when the host has no C compiler),

and asserting identical exit codes, output traces, executed-operator
counts, and complete end-of-run memory images.  Fault behaviour gets its
own section: divide-by-zero and out-of-bounds traps must carry the same
message from every engine — including every memory-trap shape from
``tests/test_memory.py`` replayed through the native engine as bytecode —
and a trap at any dispatch depth must unwind the compiled engine's
explicit return stack cleanly; the engine object stays reusable
afterwards.
"""

import pytest

from repro import compress_module, train_grammar
from repro.bytecode.assembler import assemble
from repro.compress.decompress import decompress_module
from repro.corpus.synth import generate_program
from repro.interp.compiled import CompiledEngine
from repro.interp.interp1 import Interpreter1
from repro.interp.interp2 import Interpreter2
from repro.interp.memory import MemoryError_
from repro.interp.native import NativeEngine, native_available
from repro.interp.nativebuild import NativeBuildCache
from repro.interp.runtime import Machine, MemoryLayout
from repro.interp.state import Trap
from repro.minic import compile_source

needs_cc = pytest.mark.skipif(
    not native_available(),
    reason="no C compiler on PATH: native engine unavailable")

# Disjoint from test_differential's 100..149 sweep.
EQUIV_SEEDS = list(range(200, 250))
PROFILE_SEEDS = EQUIV_SEEDS[::11]


@pytest.fixture(scope="module")
def equiv_grammar():
    corpus = [compile_source(generate_program(10, seed=s))
              for s in (311, 312, 313)]
    grammar, _ = train_grammar(corpus)
    return grammar


def _observe(program, executor, *args, input_data=b""):
    """Run to completion, capturing everything observable."""
    machine = Machine(program, executor, input_data=input_data)
    code = machine.run(*args)
    return {
        "code": code,
        "output": bytes(machine.output),
        "instret": machine.instret,
        "memory": bytes(machine.memory._bytes),
    }


def _three_ways(cmod):
    module = decompress_module(cmod)
    return (
        _observe(cmod, CompiledEngine(cmod)),
        _observe(cmod, Interpreter2(cmod)),
        _observe(module, Interpreter1(module)),
    )


@pytest.fixture(scope="module")
def native_cache(tmp_path_factory):
    """A private build cache so the suite measures its own compiles."""
    return NativeBuildCache(root=tmp_path_factory.mktemp("native-cache"))


def _observe_native(cmod, cache, *args, input_data=b""):
    run = NativeEngine(cmod, cache=cache).run(*args, input_data=input_data)
    return {
        "code": run.code,
        "output": run.output,
        "instret": run.instret,
        "memory": run.memory,
    }


@pytest.mark.parametrize("seed", EQUIV_SEEDS)
def test_three_engines_agree(seed, equiv_grammar):
    module = compile_source(generate_program(4, seed=seed))
    cmod = compress_module(equiv_grammar, module)
    compiled, reference, uncompressed = _three_ways(cmod)
    assert compiled == reference, f"seed {seed}: engines diverged"
    assert compiled == uncompressed, \
        f"seed {seed}: compressed vs raw diverged"


@pytest.mark.parametrize("seed", EQUIV_SEEDS)
def test_rcx2_roundtrip_matches_rcx1(seed, equiv_grammar):
    """The entropy-coded container is lossless: across the 50-seed
    sweep, ``decompress(rcx2(m))`` is byte-identical to
    ``decompress(rcx1(m))``, and the loaded RCX2 module executes with
    an identical observable trace (exit code, output, instret,
    memory)."""
    from repro.storage import load_compressed, save_compressed, save_module

    module = compile_source(generate_program(4, seed=seed))
    cmod = compress_module(equiv_grammar, module)
    via1 = load_compressed(save_compressed(cmod, format="rcx1"))
    via2 = load_compressed(save_compressed(cmod, format="rcx2"))
    assert save_module(decompress_module(via1)) == \
        save_module(decompress_module(via2)), f"seed {seed}"
    assert _observe(via1, CompiledEngine(via1)) == \
        _observe(via2, CompiledEngine(via2)), \
        f"seed {seed}: execution diverged across containers"


@pytest.mark.parametrize("seed", PROFILE_SEEDS)
def test_profiled_compiled_engine_agrees(seed, equiv_grammar):
    """The instrumented walk over the flattened tables executes the
    identical operator stream, and its dispatch histogram accounts for
    every rule fetch."""
    from repro.interp.profile import profile_run

    module = compile_source(generate_program(4, seed=seed))
    cmod = compress_module(equiv_grammar, module)
    c1, o1, p1 = profile_run(module)
    c2, o2, p2 = profile_run(cmod)
    assert (c1, o1) == (c2, o2), f"seed {seed}"
    assert p1.operators == p2.operators, f"seed {seed}"
    assert sum(p2.dispatch_depth.values()) == sum(p2.rules.values())
    assert p2.dispatch_depth  # the engine actually dispatched


# -- fault behaviour -----------------------------------------------------------

DIV_BY_ZERO = """
int main() {
    int a;
    a = 5;
    return a / (a - 5);
}
"""

# An out-of-bounds load from deep inside an expression — the trap fires
# with pending right-hand-side work on the compiled engine's return stack.
OOB_LOAD = """
.entry main
.proc main framesize=4
    ADDRLP 0 0
    LIT4 240 255 255 255
    INDIRU
    ASGNU
    ADDRLP 0 0
    INDIRU
    RETU
.endproc
"""

GOOD_AFTER = """
int main() { return 41 + 1; }
"""


def _trap_three_ways(cmod, exc_type):
    module = decompress_module(cmod)
    messages = []
    for program, executor in (
        (cmod, CompiledEngine(cmod)),
        (cmod, Interpreter2(cmod)),
        (module, Interpreter1(module)),
    ):
        machine = Machine(program, executor)
        with pytest.raises(exc_type) as trap:
            machine.run()
        messages.append(str(trap.value))
    return messages


def test_div_by_zero_faults_identically(equiv_grammar):
    cmod = compress_module(equiv_grammar, compile_source(DIV_BY_ZERO))
    messages = _trap_three_ways(cmod, Trap)
    assert len(set(messages)) == 1, messages
    assert "division by zero" in messages[0]


def test_oob_load_faults_identically(equiv_grammar):
    cmod = compress_module(equiv_grammar, assemble(OOB_LOAD))
    messages = _trap_three_ways(cmod, MemoryError_)
    assert len(set(messages)) == 1, messages
    assert "out of range" in messages[0]


def test_trap_unwinds_return_stack_and_engine_stays_usable(equiv_grammar):
    """A trap mid-derivation must not poison the engine: the return
    stack is per-activation, so the same engine (and its tables) must
    execute a clean program correctly right after the fault."""
    bad = compress_module(equiv_grammar, assemble(OOB_LOAD))
    engine = CompiledEngine(bad)
    for _ in range(2):  # fault twice: no state leaks between activations
        with pytest.raises(MemoryError_):
            Machine(bad, engine).run()
    good = compress_module(equiv_grammar, compile_source(GOOD_AFTER))
    # Same tables instance serves the new module's engine via the cache.
    again = CompiledEngine(good)
    assert again.tables is engine.tables
    assert Machine(good, again).run() == 42


def test_call_stack_overflow_unwinds_cleanly(equiv_grammar):
    """Deep bytecode recursion traps identically on every engine, with
    one explicit return stack per activation unwound at each level."""
    source = """
int loop(int n) { return loop(n + 1); }
int main() { return loop(0); }
"""
    cmod = compress_module(equiv_grammar, compile_source(source))
    messages = _trap_three_ways(cmod, Trap)
    assert len(set(messages)) == 1, messages
    assert "call stack overflow" in messages[0]


# -- the fourth engine: native machine code -----------------------------------

CALL_OVERFLOW = """
int loop(int n) { return loop(n + 1); }
int main() { return loop(0); }
"""


@needs_cc
@pytest.mark.parametrize("seed", EQUIV_SEEDS)
def test_native_engine_agrees(seed, equiv_grammar, native_cache):
    """The four-engine differential sweep: the native run must be
    byte-identical (exit code, output, instret, complete final memory
    image) to the reference engine — which ``test_three_engines_agree``
    already holds identical to the other two Python engines."""
    module = compile_source(generate_program(4, seed=seed))
    cmod = compress_module(equiv_grammar, module)
    native = _observe_native(cmod, native_cache)
    reference = _observe(cmod, Interpreter2(cmod))
    assert native == reference, f"seed {seed}: native diverged"


@needs_cc
def test_native_dispatch_count_matches_compiled(equiv_grammar, native_cache):
    """instret is engine-invariant; dispatches (one per codeword byte)
    additionally match between the two table-walking engines."""
    module = compile_source(generate_program(4, seed=EQUIV_SEEDS[0]))
    cmod = compress_module(equiv_grammar, module)
    machine = Machine(cmod, CompiledEngine(cmod))
    machine.run()
    run = NativeEngine(cmod, cache=native_cache).run()
    assert run.instret == machine.instret
    assert run.dispatches == machine.dispatches


def _native_trap(cmod, cache, exc_type):
    with pytest.raises(exc_type) as trap:
        NativeEngine(cmod, cache=cache).run()
    return str(trap.value)


@needs_cc
@pytest.mark.parametrize("source, exc_type, fragment", [
    (DIV_BY_ZERO, Trap, "division by zero"),
    (CALL_OVERFLOW, Trap, "call stack overflow"),
], ids=["div_by_zero", "call_overflow"])
def test_native_trap_parity(equiv_grammar, native_cache,
                            source, exc_type, fragment):
    """Program faults unwind through the C engine into the same exception
    class with the same message the Python engines raise."""
    cmod = compress_module(equiv_grammar, compile_source(source))
    messages = _trap_three_ways(cmod, exc_type)
    native = _native_trap(cmod, native_cache, exc_type)
    assert set(messages) == {native}


@needs_cc
def test_native_oob_trap_parity(equiv_grammar, native_cache):
    cmod = compress_module(equiv_grammar, assemble(OOB_LOAD))
    messages = _trap_three_ways(cmod, MemoryError_)
    native = _native_trap(cmod, native_cache, MemoryError_)
    assert set(messages) == {native}


# Every memory-trap shape from tests/test_memory.py, replayed through the
# engines as bytecode.  (The negative-address unit case has no bytecode
# counterpart: addresses are 32-bit patterns, so "negative" pointers are
# just large ones — the far-OOB rows below.)  Loads and stores cover every
# access width; addresses probe both _check branches (addr past the end,
# and an in-range addr whose access straddles the end).
_LOAD_OPS = [("INDIRC", 1, "RETU"), ("INDIRS", 2, "RETU"),
             ("INDIRU", 4, "RETU"), ("INDIRF", 4, "RETF"),
             ("INDIRD", 8, "RETD")]
_STORE_OPS = [("ASGNC", 1, ""), ("ASGNS", 2, ""), ("ASGNU", 4, ""),
              ("ASGNF", 4, "CVIF"), ("ASGND", 8, "CVID")]


def _lit4(value):
    value &= 0xFFFFFFFF
    return (f"LIT4 {value & 0xFF} {(value >> 8) & 0xFF} "
            f"{(value >> 16) & 0xFF} {(value >> 24) & 0xFF}")


def _load_probe(op, addr, ret):
    return assemble(f"""
.entry main
.proc main framesize=0
    {_lit4(addr)}
    {op}
    {ret}
.endproc
""")


def _store_probe(op, addr, convert):
    return assemble(f"""
.entry main
.proc main framesize=0
    {_lit4(addr)}
    LIT1 7
    {convert}
    {op}
    RETV
.endproc
""")


def _memory_trap_cases():
    total = MemoryLayout.for_program(_load_probe("INDIRU", 0, "RETU")).total
    cases = []
    for op, width, ret in _LOAD_OPS:
        cases.append((f"{op}-far", _load_probe(op, 0xFFFFFFF0, ret)))
        cases.append(
            (f"{op}-straddle", _load_probe(op, total - width + 1, ret)))
    for op, width, convert in _STORE_OPS:
        cases.append((f"{op}-far", _store_probe(op, 0xFFFFFFF0, convert)))
        cases.append(
            (f"{op}-straddle", _store_probe(op, total - width + 1, convert)))
    return cases


@needs_cc
@pytest.mark.parametrize(
    "module", [c[1] for c in _memory_trap_cases()],
    ids=[c[0] for c in _memory_trap_cases()])
def test_native_memory_trap_parity(equiv_grammar, native_cache, module):
    cmod = compress_module(equiv_grammar, module)
    messages = _trap_three_ways(cmod, MemoryError_)
    native = _native_trap(cmod, native_cache, MemoryError_)
    assert set(messages) == {native}
    assert "out of range" in native


UNTERMINATED_STRING = """
.entry main
.global strlen lib
.proc main framesize=0
    LIT4 0 0 0 255
    ARGU
    ADDRGP $strlen
    CALLU
    RETU
.endproc
"""


@needs_cc
def test_native_unterminated_string_parity(equiv_grammar, native_cache):
    cmod = compress_module(equiv_grammar, assemble(UNTERMINATED_STRING))
    messages = _trap_three_ways(cmod, MemoryError_)
    native = _native_trap(cmod, native_cache, MemoryError_)
    assert set(messages) == {native}
    assert "unterminated string" in native


@needs_cc
def test_native_engine_reusable_after_trap(equiv_grammar, native_cache):
    """A trap longjmps clean out of the C engine: the same loaded object
    (and the same engine instance) executes correctly afterwards."""
    bad = compress_module(equiv_grammar, assemble(OOB_LOAD))
    engine = NativeEngine(bad, cache=native_cache)
    for _ in range(2):
        with pytest.raises(MemoryError_):
            engine.run()
    good = compress_module(equiv_grammar, compile_source(GOOD_AFTER))
    assert NativeEngine(good, cache=native_cache).run().code == 42


@needs_cc
def test_native_getchar_roundtrip(equiv_grammar, native_cache):
    """Input plumbing: getchar drains the request's input bytes and then
    reports EOF, identically to the Python machine."""
    source = """
int main() {
    int c;
    c = getchar();
    while (c + 1 != 0) {
        putchar(c);
        c = getchar();
    }
    return 0;
}
"""
    cmod = compress_module(equiv_grammar, compile_source(source))
    payload = b"grammar!"
    native = _observe_native(cmod, native_cache, input_data=payload)
    reference = _observe(cmod, Interpreter2(cmod), input_data=payload)
    assert native == reference
    assert native["output"] == payload


# -- execution budgets ---------------------------------------------------------
#
# The dispatch budget is part of the observable contract: the compiled
# engine, the reference interpreter, and the native engine all count
# *rule dispatches* and must trap at the identical dispatch with the
# identical message.  interp1 runs decompressed bytecode — it has no
# rule dispatches — so its budget counts instruction fetches instead;
# it still raises the same exception class, just not at a comparable
# point, which is why it sits outside the parity assertions below.

from repro.interp.state import BudgetExceeded  # noqa: E402


def _budget_total(cmod):
    """Total rule dispatches of a clean run on the compiled engine."""
    machine = Machine(cmod, CompiledEngine(cmod))
    machine.run()
    return machine.dispatches


def test_budget_trap_parity_compressed_engines(equiv_grammar):
    cmod = compress_module(equiv_grammar, compile_source(
        generate_program(4, seed=EQUIV_SEEDS[1])))
    total = _budget_total(cmod)
    assert total > 1
    budget = total - 1
    messages = []
    for executor in (CompiledEngine(cmod), Interpreter2(cmod)):
        machine = Machine(cmod, executor, budget=budget)
        with pytest.raises(BudgetExceeded) as trap:
            machine.run()
        messages.append(str(trap.value))
        # the trap fires on the first dispatch past the budget, exactly
        assert machine.dispatches == budget + 1
    assert len(set(messages)) == 1, messages
    assert messages[0] == BudgetExceeded.message(budget)


def test_budget_exact_boundary_is_not_a_trap(equiv_grammar):
    """A run whose dispatch count equals the budget completes: the
    budget bounds work, it does not shave the last dispatch."""
    cmod = compress_module(equiv_grammar, compile_source(
        generate_program(4, seed=EQUIV_SEEDS[2])))
    total = _budget_total(cmod)
    unlimited = _observe(cmod, CompiledEngine(cmod))
    machine = Machine(cmod, CompiledEngine(cmod), budget=total)
    code = machine.run()
    assert code == unlimited["code"]
    assert bytes(machine.output) == unlimited["output"]


def test_budget_zero_means_unlimited(equiv_grammar):
    cmod = compress_module(equiv_grammar, compile_source(GOOD_AFTER))
    assert Machine(cmod, CompiledEngine(cmod), budget=0).run() == 42


def test_budget_on_decompressed_bytecode(equiv_grammar):
    """interp1 honours the budget too (counting instruction fetches):
    a tiny budget traps, a generous one does not."""
    module = compile_source(GOOD_AFTER)
    with pytest.raises(BudgetExceeded):
        Machine(module, Interpreter1(module), budget=1).run()
    assert Machine(module, Interpreter1(module),
                   budget=10_000_000).run() == 42


@needs_cc
def test_native_budget_trap_parity(equiv_grammar, native_cache):
    """The C engine's compiled-in budget check trips at the identical
    dispatch with the identical message as the Python engines."""
    cmod = compress_module(equiv_grammar, compile_source(
        generate_program(4, seed=EQUIV_SEEDS[3])))
    total = _budget_total(cmod)
    budget = total - 1
    machine = Machine(cmod, CompiledEngine(cmod), budget=budget)
    with pytest.raises(BudgetExceeded) as py_trap:
        machine.run()
    engine = NativeEngine(cmod, cache=native_cache)
    with pytest.raises(BudgetExceeded) as c_trap:
        engine.run(budget=budget)
    assert str(c_trap.value) == str(py_trap.value)
    # exact boundary completes natively, byte-identical to unlimited
    assert engine.run(budget=total) == engine.run()
