"""Property-based tests (hypothesis) for the core machinery.

The generators build *valid* random bytecode from the grammar's own
structure (random expression trees linearized to postfix, split into random
blocks), so every pipeline property — parse/yield, derivation codec,
training invariants, compression round-trip — is exercised over the whole
language, not just the corpus.
"""

from hypothesis import given, settings, strategies as st

from repro.bytecode.instructions import decode, encode, instr
from repro.bytecode.module import Module, Procedure
from repro.bytecode.opcodes import OPS, opcode
from repro.bytecode.validate import validate_procedure
from repro.grammar.cfg import fragment_graft, fragment_hole_count
from repro.grammar.initial import initial_grammar
from repro.interp.memory import MASK32, Memory, to_signed, to_unsigned
from repro.interp.base import _idiv, _imod
from repro.parsing.derivation import (
    decode_tree,
    derivation_of_tree,
    encode_tree,
    tree_of_derivation,
)
from repro.parsing.forest import Forest, terminal_yield, tree_size
from repro.parsing.stackparser import parse_blocks
from repro.training.expander import expand_grammar

_V0 = [op for op in OPS if op.klass == "v0"]
_V1 = [op for op in OPS if op.klass == "v1"
       and not op.name.startswith("CALL")]
_V2 = [op for op in OPS if op.klass == "v2"]
_X1 = [op for op in OPS if op.klass == "x1"
       and op.name not in ("CALLV", "BrTrue")
       and not op.name.startswith("RET")]
_X2 = [op for op in OPS if op.klass == "x2"]

_LABELV = opcode("LABELV")


@st.composite
def value_tree(draw, depth=3):
    """A random expression, linearized to postfix instructions."""
    if depth == 0 or draw(st.booleans()):
        op = draw(st.sampled_from(_V0))
        return [instr(op.name, *(draw(st.integers(0, 255))
                                 for _ in range(op.nlit)))]
    if draw(st.booleans()):
        sub = draw(value_tree(depth=depth - 1))
        op = draw(st.sampled_from(_V1))
        return sub + [instr(op.name)]
    left = draw(value_tree(depth=depth - 1))
    right = draw(value_tree(depth=depth - 1))
    op = draw(st.sampled_from(_V2))
    return left + right + [instr(op.name)]


@st.composite
def statement(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return [instr("RETV")]
    if kind == 1:
        ops = draw(value_tree())
        op = draw(st.sampled_from(_X1))
        return ops + [instr(op.name)]
    left = draw(value_tree())
    right = draw(value_tree())
    op = draw(st.sampled_from(_X2))
    return left + right + [instr(op.name)]


@st.composite
def random_code(draw):
    """A full code stream: statements with LABELV marks between some."""
    parts = []
    labels = []
    for _ in range(draw(st.integers(1, 6))):
        if parts and draw(st.booleans()):
            labels.append(sum(len(p) for p in parts))
            parts.append(bytes([_LABELV]))
        stmt_code = encode(draw(statement()))
        parts.append(stmt_code)
    offsets = []
    pos = 0
    for part in parts:
        if len(part) == 1 and part[0] == _LABELV:
            offsets.append(pos)
        pos += len(part)
    return b"".join(parts), offsets


# -- instruction codec ---------------------------------------------------------

@given(random_code())
def test_encode_decode_roundtrip(code_labels):
    code, _ = code_labels
    assert encode(decode(code)) == code


@given(random_code())
def test_random_code_validates(code_labels):
    code, labels = code_labels
    proc = Procedure("p", code, labels, 0)
    validate_procedure(proc)


# -- parsing --------------------------------------------------------------------

@given(random_code())
@settings(max_examples=60)
def test_parse_yield_is_identity(code_labels):
    code, _ = code_labels
    g = initial_grammar()
    blocks = parse_blocks(g, code)
    rebuilt = bytes([_LABELV]).join(
        bytes(
            s - 256 if s >= 256 else s
            for s in terminal_yield(b.tree, g)
        )
        for b in blocks
    )
    assert rebuilt == code


@given(random_code())
@settings(max_examples=40)
def test_derivation_codec_roundtrip(code_labels):
    code, _ = code_labels
    g = initial_grammar()
    for block in parse_blocks(g, code):
        rules = derivation_of_tree(block.tree)
        rebuilt = tree_of_derivation(g, rules)
        assert derivation_of_tree(rebuilt) == rules
        data = encode_tree(g, block.tree)
        assert len(data) == tree_size(block.tree)
        decoded, end = decode_tree(g, data)
        assert end == len(data)
        assert derivation_of_tree(decoded) == rules


# -- training invariants -----------------------------------------------------------

@given(st.lists(random_code(), min_size=1, max_size=3))
@settings(max_examples=25, deadline=None)
def test_training_preserves_yields_and_counts(corpus_codes):
    g = initial_grammar()
    forest = Forest()
    for code, _ in corpus_codes:
        for block in parse_blocks(g, code):
            forest.add(block.tree)
    yields = [terminal_yield(b, g) for b in forest.blocks]
    expand_grammar(g, forest, verify_every=3)  # verifies counts internally
    assert [terminal_yield(b, g) for b in forest.blocks] == yields
    g.check()


@given(st.lists(random_code(), min_size=1, max_size=2))
@settings(max_examples=20, deadline=None)
def test_compression_roundtrip_random_programs(corpus_codes):
    from repro.compress.compressor import Compressor
    from repro.compress.decompress import decompress_procedure
    from repro.parsing.forest import Forest

    g = initial_grammar()
    forest = Forest()
    procs = []
    for i, (code, labels) in enumerate(corpus_codes):
        procs.append(Procedure(f"p{i}", code, labels, 0))
        for block in parse_blocks(g, code):
            forest.add(block.tree)
    expand_grammar(g, forest)
    comp = Compressor(g)
    for proc in procs:
        cproc = comp.compress_procedure(proc)
        back = decompress_procedure(g, cproc)
        assert back.code == proc.code
        assert back.labels == proc.labels


# -- fragments -------------------------------------------------------------------

@st.composite
def fragments(draw, depth=3):
    rid = draw(st.integers(0, 50))
    if depth == 0:
        n = draw(st.integers(0, 2))
        return (rid, tuple(None for _ in range(n)))
    children = []
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):
            children.append(None)
        else:
            children.append(draw(fragments(depth=depth - 1)))
    return (rid, tuple(children))


@given(fragments(), fragments())
def test_graft_hole_arithmetic(frag, sub):
    holes = fragment_hole_count(frag)
    if holes == 0:
        return
    grafted = fragment_graft(frag, 0, sub)
    assert fragment_hole_count(grafted) == \
        holes - 1 + fragment_hole_count(sub)


@given(fragments())
def test_graft_out_of_range_raises(frag):
    import pytest
    with pytest.raises(IndexError):
        fragment_graft(frag, fragment_hole_count(frag), (9, ()))


# -- arithmetic semantics -------------------------------------------------------

@given(st.integers(0, MASK32))
def test_signed_unsigned_roundtrip(pattern):
    assert to_unsigned(to_signed(pattern)) == pattern


@given(st.integers(-(2 ** 31), 2 ** 31 - 1),
       st.integers(-(2 ** 31), 2 ** 31 - 1))
def test_c_division_identity(a, b):
    if b == 0:
        return
    q, r = _idiv(a, b), _imod(a, b)
    assert q * b + r == a
    # C: remainder has the dividend's sign (or is zero).
    assert r == 0 or (r > 0) == (a > 0)
    assert abs(r) < abs(b)


@given(st.integers(0, MASK32), st.integers(0, 4096 - 4))
def test_memory_u32_roundtrip(value, addr):
    mem = Memory(4096)
    mem.store_u32(addr, value)
    assert mem.load_u32(addr) == value


@given(st.floats(allow_nan=False, allow_infinity=False,
                 width=64), st.integers(0, 4096 - 8))
def test_memory_f64_roundtrip(value, addr):
    mem = Memory(4096)
    mem.store_f64(addr, value)
    assert mem.load_f64(addr) == value


@given(st.binary(min_size=0, max_size=300))
def test_huffman_roundtrip_random(data):
    from repro.baselines.huffman import build_code
    if not data:
        return
    code = build_code(data)
    assert code.decode(code.encode(data), len(data)) == data


@given(st.binary(min_size=1, max_size=200))
@settings(max_examples=30)
def test_gzip_blocks_never_beat_whole(data):
    import zlib
    whole = len(zlib.compress(data, 9))
    halves = (len(zlib.compress(data[: len(data) // 2], 9))
              + len(zlib.compress(data[len(data) // 2:], 9)))
    assert halves >= whole - 16  # modulo tiny header effects


# -- whole-pipeline properties over randomized mini-C programs -----------------
#
# The grammar-derived generators above cover the bytecode language; these
# cover the *system*: for random mini-C programs (seeded — each run of the
# suite checks the same programs, so failures reproduce), a program and its
# compressed form behave identically, and decompression inverts compression
# exactly.  One grammar is trained per seed, on the program itself — the
# self-training configuration, which exercises the expander hardest.

import pytest  # noqa: E402  (grouped with the seeded-property section)

from repro.corpus.synth import generate_program  # noqa: E402
from repro.minic import compile_source  # noqa: E402
from repro.pipeline import (  # noqa: E402
    compress_module,
    run,
    run_compressed,
    train_grammar,
)

MINIC_SEEDS = [211, 223, 227, 229, 233, 239, 241, 251]


@pytest.mark.parametrize("seed", MINIC_SEEDS)
def test_property_run_equals_run_compressed(seed):
    program = compile_source(generate_program(5, seed=seed))
    grammar, _ = train_grammar([program])
    assert run(program) == \
        run_compressed(compress_module(grammar, program))


@pytest.mark.parametrize("seed", MINIC_SEEDS)
def test_property_decompress_inverts_compress(seed):
    from repro.compress.decompress import decompress_module

    program = compile_source(generate_program(5, seed=seed))
    grammar, _ = train_grammar([program])
    back = decompress_module(compress_module(grammar, program))
    assert [p.code for p in back.procedures] == \
        [p.code for p in program.procedures]
    assert [p.labels for p in back.procedures] == \
        [p.labels for p in program.procedures]
    assert [(p.name, p.framesize, p.argsize) for p in back.procedures] == \
        [(p.name, p.framesize, p.argsize) for p in program.procedures]


@pytest.mark.parametrize("seed", MINIC_SEEDS)
def test_property_rcx2_container_is_lossless(seed):
    """Saving a compressed module through the entropy-coded container
    and loading it back inverts exactly — same decompressed bytes and
    labels as the byte-per-step container, for self-trained grammars
    over random mini-C programs."""
    from repro.compress.decompress import decompress_module
    from repro.storage import load_compressed, save_compressed, save_module

    program = compile_source(generate_program(5, seed=seed))
    grammar, _ = train_grammar([program])
    cmod = compress_module(grammar, program)
    via1 = load_compressed(save_compressed(cmod, format="rcx1"))
    via2 = load_compressed(save_compressed(cmod, format="rcx2"))
    assert save_module(decompress_module(via1)) == \
        save_module(decompress_module(via2))
    assert [p.block_starts for p in via1.procedures] == \
        [p.block_starts for p in via2.procedures]


@given(st.lists(st.integers(1, 500), min_size=2, max_size=32),
       st.binary(max_size=120))
@settings(max_examples=50)
def test_property_rangecoder_roundtrip(freqs, picks):
    """The carry-less range coder inverts exactly for arbitrary static
    tables and symbol sequences, and a full decode consumes exactly the
    encoder's output."""
    from repro.coding.rangecoder import (
        RangeDecoder, RangeEncoder, cumulative,
    )

    symbols = [b % len(freqs) for b in picks]
    cums = cumulative(freqs)
    enc = RangeEncoder()
    for s in symbols:
        enc.encode(cums[s], freqs[s], cums[-1])
    data = enc.finish()
    dec = RangeDecoder(data)
    for s in symbols:
        target = dec.target(cums[-1])
        assert cums[s] <= target < cums[s + 1]
        dec.consume(cums[s], freqs[s])
    assert dec.consumed == len(data)


@given(st.lists(random_code(), min_size=1, max_size=2))
@settings(max_examples=15, deadline=None)
def test_property_derivation_cache_is_transparent(corpus_codes):
    """Compressing with the shortest-derivation cache yields byte-identical
    output to compressing without it, over random programs."""
    from repro.compress.compressor import Compressor

    g = initial_grammar()
    forest = Forest()
    procs = []
    for i, (code, labels) in enumerate(corpus_codes):
        procs.append(Procedure(f"p{i}", code, labels, 0))
        for block in parse_blocks(g, code):
            forest.add(block.tree)
    expand_grammar(g, forest)
    cached = Compressor(g)
    uncached = Compressor(g, cache_size=0)
    for proc in procs:
        assert cached.compress_procedure(proc).code == \
            uncached.compress_procedure(proc).code
    assert uncached.cache_info() == "disabled"
