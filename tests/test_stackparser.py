"""Tests for the deterministic stack parser (training-phase parse)."""

import pytest

from repro.bytecode import assemble
from repro.bytecode.instructions import encode, instr
from repro.bytecode.opcodes import opcode
from repro.grammar.initial import initial_grammar, typed_grammar
from repro.parsing.forest import preorder, terminal_yield, tree_size
from repro.parsing.stackparser import (
    ParseError,
    build_forest,
    parse_blocks,
    parse_module,
)

CHECK_ASM = """
.global exit lib
.proc check framesize=0 trampoline
    ADDRFP 0 0
    INDIRU
    LIT1 0
    NEU
    BrTrue @done
    LIT1 0
    ARGU
    ADDRGP $exit
    CALLU
    POPU
done:
    RETV
.endproc
"""


@pytest.fixture(scope="module")
def grammar():
    return initial_grammar()


def _code(*instrs):
    return encode([instr(*i) for i in instrs])


def test_single_statement(grammar):
    code = _code(("LIT1", 7), ("ARGU",))
    blocks = parse_blocks(grammar, code)
    assert len(blocks) == 1
    tree = blocks[0].tree
    # start -> start x; start -> eps; x -> v x1; v -> v0; v0 -> LIT1 b;
    # x1 -> ARGU; byte -> 7  ==> 7 rules
    assert tree_size(tree) == 7


def test_yield_reconstructs_code(grammar):
    code = _code(
        ("ADDRLP", 0, 0), ("ADDRLP", 4, 0), ("INDIRU",), ("LIT1", 1),
        ("ADDU",), ("ASGNU",), ("RETV",),
    )
    blocks = parse_blocks(grammar, code)
    symbols = terminal_yield(blocks[0].tree, grammar)
    # Terminal symbols: opcodes as codes, literal bytes as 256+value.
    expected = [
        opcode("ADDRLP"), 256 + 0, 256 + 0,
        opcode("ADDRLP"), 256 + 4, 256 + 0,
        opcode("INDIRU"), opcode("LIT1"), 256 + 1,
        opcode("ADDU"), opcode("ASGNU"), opcode("RETV"),
    ]
    assert symbols == expected


def test_paper_example_splits_into_two_blocks(grammar):
    module = assemble(CHECK_ASM)
    blocks = parse_blocks(grammar, module.procedures[0].code)
    # Section 4.1: "the sequence is actually parsed into two separate
    # derivations, one for the code prior to the LABELV and one after".
    assert len(blocks) == 2
    # The paper's derivation lengths: 26 rules for the first block,
    # 2 for { RETV }... first: count our rules.
    assert tree_size(blocks[1].tree) == 4  # start->start x, start->eps,
    #                                        x->x0, x0->RETV


def test_block_start_offsets(grammar):
    module = assemble(CHECK_ASM)
    proc = module.procedures[0]
    blocks = parse_blocks(grammar, proc.code)
    assert blocks[0].start == 0
    # Second block starts just past the LABELV byte.
    assert blocks[1].start == proc.labels[0] + 1


def test_empty_blocks(grammar):
    labelv = bytes([opcode("LABELV")])
    code = labelv + labelv + _code(("RETV",))
    blocks = parse_blocks(grammar, code)
    assert len(blocks) == 3
    assert tree_size(blocks[0].tree) == 1  # just start -> eps
    assert tree_size(blocks[1].tree) == 1


def test_parse_error_on_underflow(grammar):
    with pytest.raises(ParseError, match="needs"):
        parse_blocks(grammar, _code(("ADDU",), ("POPU",)))


def test_parse_error_on_unconsumed_value(grammar):
    with pytest.raises(ParseError, match="unconsumed"):
        parse_blocks(grammar, _code(("LIT1", 3)))


def test_parent_links_consistent(grammar):
    module = assemble(CHECK_ASM)
    blocks = parse_blocks(grammar, module.procedures[0].code)
    for block in blocks:
        for node in preorder(block.tree):
            for i, child in enumerate(node.children):
                assert child.parent is node
                assert child.pindex == i


def test_children_match_rule_arity(grammar):
    module = assemble(CHECK_ASM)
    for block in parse_blocks(grammar, module.procedures[0].code):
        for node in preorder(block.tree):
            rule = grammar.rules[node.rule_id]
            assert len(node.children) == rule.arity


def test_build_forest_counts(grammar):
    module = assemble(CHECK_ASM)
    forest = build_forest(grammar, [module])
    assert len(forest) == 2
    assert forest.size() == sum(tree_size(b) for b in forest.blocks)


def test_parse_module_parallel_to_procedures(grammar):
    module = assemble(CHECK_ASM)
    per_proc = parse_module(grammar, module)
    assert len(per_proc) == len(module.procedures)


def test_typed_grammar_parses_same_code():
    tg = typed_grammar()
    module = assemble(CHECK_ASM)
    blocks = parse_blocks(tg, module.procedures[0].code)
    assert len(blocks) == 2
    symbols = terminal_yield(blocks[0].tree, tg)
    assert symbols[0] == opcode("ADDRFP")


def test_typed_grammar_float_statement():
    tg = typed_grammar()
    # push addr; push addr; INDIRF; NEGF; ASGNF
    code = _code(("ADDRLP", 0, 0), ("ADDRLP", 4, 0), ("INDIRF",),
                 ("NEGF",), ("ASGNF",))
    blocks = parse_blocks(tg, code)
    assert len(blocks) == 1
    assert terminal_yield(blocks[0].tree, tg)[-1] == opcode("ASGNF")


def test_height_grammar_parses_and_preserves_yield():
    from repro.grammar.initial import height_grammar

    hg = height_grammar(max_depth=2)
    module = assemble(CHECK_ASM)
    blocks = parse_blocks(hg, module.procedures[0].code)
    assert len(blocks) == 2
    code = module.procedures[0].code
    rebuilt = bytes([opcode("LABELV")]).join(
        bytes(s - 256 if s >= 256 else s
              for s in terminal_yield(b.tree, hg))
        for b in blocks
    )
    assert rebuilt == code


def test_height_grammar_depth_collapse():
    """Expressions deeper than max_depth still parse (collapse to hK)."""
    from repro.grammar.initial import height_grammar

    hg = height_grammar(max_depth=1)
    # ((((1+2)+3)+4)+5) nests values 5 deep on the stack.
    code = _code(
        ("LIT1", 1), ("LIT1", 2), ("LIT1", 3), ("LIT1", 4), ("LIT1", 5),
        ("ADDU",), ("ADDU",), ("ADDU",), ("ADDU",), ("ARGU",),
    )
    blocks = parse_blocks(hg, code)
    assert len(blocks) == 1
    symbols = terminal_yield(blocks[0].tree, hg)
    assert symbols[0] == opcode("LIT1")


def test_height_grammar_end_to_end_compression():
    from repro.grammar.initial import height_grammar
    from repro import compress_module, decompress_module, train_grammar

    module = assemble(CHECK_ASM)
    grammar, _ = train_grammar([module], grammar=height_grammar())
    cmod = compress_module(grammar, module)
    back = decompress_module(cmod)
    assert back.procedures[0].code == module.procedures[0].code


def test_plan_tables_do_not_keep_grammars_alive():
    """The parser's per-grammar plan tables live on the grammar's
    program, which lives on the grammar, so forests built over many
    short-lived grammars keep none of them reachable."""
    import gc
    import weakref

    module = assemble(CHECK_ASM)
    refs = []
    for _ in range(40):
        g = initial_grammar()
        build_forest(g, [module])
        refs.append(weakref.ref(g))
    del g
    gc.collect()
    alive = sum(1 for ref in refs if ref() is not None)
    assert alive == 0, f"{alive} of 40 grammars still reachable"
