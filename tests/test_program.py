"""The precompiled GrammarProgram core: correctness of every table it
precomputes, cache identity/staleness semantics, the storage numbering
regression, and the structured EarleyError.  (One construction per
grammar per owner is tested with its owners, in ``test_grammar_table``
and ``test_service``.)"""

import re

import pytest

from repro.compress.tiling import Tiler
from repro.core.program import (
    GrammarProgram,
    match_fragment,
    non_byte_rows,
    original_ordinals,
    program_for,
)
from repro.corpus.synth import generate_program
from repro.grammar.cfg import Grammar
from repro.grammar.initial import initial_grammar
from repro.interp.nativebuild import NativeBuildCache, NativeBuildError
from repro.minic import compile_source
from repro.parsing.earley import EarleyError, shortest_derivation_tree
from repro.pipeline import train_grammar
from repro.storage import load_grammar, save_grammar


@pytest.fixture(scope="module")
def trained_grammar():
    corpus = [compile_source(generate_program(8, seed=s))
              for s in (411, 412, 413)]
    grammar, _ = train_grammar(corpus)
    return grammar


# -- codewords and rows -------------------------------------------------------

def _assert_tables_match_grammar(grammar):
    program = program_for(grammar)
    for nt in grammar.nonterminals:
        rules = grammar.rules_for(nt)
        assert tuple(rules) == program.rules_of[nt]
        for rule in rules:
            assert program.codeword_of[rule.id] == \
                grammar.rule_index(rule.id)
    byte = (grammar.nonterminal("byte")
            if "byte" in grammar.nt_names else None)
    assert [nt for nt, _ in program.rows] == \
        [nt for nt in grammar.nonterminals if nt != byte]


def test_codewords_match_rule_index_trained(trained_grammar):
    _assert_tables_match_grammar(trained_grammar)


def test_codewords_match_rule_index_loaded(trained_grammar):
    # A serialize/deserialize round trip renumbers rule ids; the loaded
    # instance's program must agree with the loaded instance, not the
    # trained one.
    loaded = load_grammar(save_grammar(trained_grammar))
    _assert_tables_match_grammar(loaded)


def test_programs_are_instance_specific(trained_grammar):
    loaded = load_grammar(save_grammar(trained_grammar))
    p1, p2 = program_for(trained_grammar), program_for(loaded)
    assert p1 is not p2
    # ... but structurally identical content hashes to the same key.
    assert p1.compact_key == p2.compact_key


def test_toy_grammar_has_no_compact_key(tmp_path):
    """A grammar the compact encoding cannot express (no ``<byte>``)
    still gets a program, with no content key, and the native build
    cache refuses it with its own structured error."""
    g = Grammar()
    s = g.add_nonterminal("S")
    g.start = s
    g.add_rule(s, [1])
    program = program_for(g)
    assert program.compact_key is None
    assert program.stats()["compact_key"] is None
    with pytest.raises(NativeBuildError, match="compact encoding"):
        NativeBuildCache(tmp_path).key_for(g)


# -- storage numbering regression (satellite: the three ordinal loops) --------

def _legacy_rule_ordinals(grammar):
    """Verbatim copy of the pre-refactor storage._rule_ordinals."""
    to_ordinal = {}
    from_ordinal = {}
    for nt_index, nt in enumerate(grammar.nonterminals):
        for position, rule in enumerate(grammar.rules_for(nt)):
            if rule.origin == "original":
                to_ordinal[rule.id] = (nt_index, position)
                from_ordinal[(nt_index, position)] = rule.id
    return to_ordinal, from_ordinal


def test_serialized_rule_numbering_unchanged(trained_grammar):
    """The shared GrammarProgram index reproduces the exact ordinals the
    three storage loops used to compute, and the RGR1 bytes are stable
    across a save/load/save round trip."""
    to_o, from_o = _legacy_rule_ordinals(trained_grammar)
    program = program_for(trained_grammar)
    assert program.original_to_ordinal == to_o
    assert program.original_from_ordinal == from_o
    pure_to, pure_from = original_ordinals(trained_grammar)
    assert (pure_to, pure_from) == (to_o, from_o)

    data = save_grammar(trained_grammar)
    loaded = load_grammar(data)
    assert save_grammar(loaded) == data
    # The loader's pure-helper path agrees with its own legacy ordinals.
    assert original_ordinals(loaded) == _legacy_rule_ordinals(loaded)


def test_non_byte_rows_excludes_byte(trained_grammar):
    byte = trained_grammar.nonterminal("byte")
    rows = non_byte_rows(trained_grammar)
    assert byte not in [nt for nt, _ in rows]
    for nt, rules in rows:
        assert tuple(trained_grammar.rules_for(nt)) == rules


# -- prediction and cost tables ----------------------------------------------

def test_prediction_tables_toy():
    # S -> a S b | eps  over terminals a=1, b=2.
    g = Grammar()
    s = g.add_nonterminal("S")
    g.start = s
    r_eps = g.add_rule(s, [])
    r_ab = g.add_rule(s, [1, s, 2])
    p = program_for(g)
    assert p.nt_first[s] == frozenset({1})
    assert s in p.nullable
    assert p.rule_nullable[r_eps.id] and not p.rule_nullable[r_ab.id]
    assert p.rule_first[r_ab.id] == frozenset({1})
    assert p.nt_min_cost[s] == 1       # the epsilon rule
    assert p.rule_min_cost[r_ab.id] == 2


def test_min_cost_unproductive_is_infinite():
    g = Grammar()
    s = g.add_nonterminal("S")
    u = g.add_nonterminal("U")
    g.start = s
    g.add_rule(s, [1])
    g.add_rule(u, [u])  # derives nothing
    p = program_for(g)
    assert p.nt_min_cost[u] == float("inf")
    assert s in p.productive and u not in p.productive


def test_fragment_matchers_equal_recursive_match(trained_grammar):
    """The flat matcher programs bind exactly the holes the recursive
    matcher did, on real parse trees."""
    from repro.compress.oracle import OracleTiler
    from repro.parsing.forest import preorder
    from repro.parsing.stackparser import parse_blocks

    module = compile_source(generate_program(6, seed=990))
    program = program_for(trained_grammar)
    oracle = OracleTiler(trained_grammar)
    checked = 0
    for proc in module.procedures:
        for block in parse_blocks(trained_grammar, proc.code):
            for node in preorder(block.tree):
                for rule, _size, _trivial, matcher in \
                        program.fragments_by_root.get(node.rule_id, ()):
                    new = match_fragment(matcher, node)
                    old = oracle._match_collect(rule.fragment, node)
                    assert new == old
                    checked += 1
    assert checked > 100


# -- cache identity and staleness --------------------------------------------

def test_program_for_is_identity_cached(trained_grammar):
    assert program_for(trained_grammar) is program_for(trained_grammar)


def test_every_live_grammar_keeps_its_program():
    """Each grammar owns its program, so however many grammars are
    live, a second pass over them rebuilds none."""
    grammars = [initial_grammar() for _ in range(40)]
    first = [program_for(g) for g in grammars]
    key = first[0].compact_key
    built = GrammarProgram.constructions[key]
    second = [program_for(g) for g in grammars]
    assert all(a is b for a, b in zip(first, second))
    assert GrammarProgram.constructions[key] == built


def test_program_for_rebuilds_after_mutation():
    g = initial_grammar()
    before = program_for(g)
    v = g.nonterminal("v")
    rule = g.rules_for(v)[0]
    # Any rule addition changes the fingerprint.
    g.add_rule(v, list(rule.rhs), origin="inlined", fragment=rule.fragment)
    after = program_for(g)
    assert after is not before
    assert after.fingerprint != before.fingerprint


def test_derived_memo_builds_once(trained_grammar):
    program = program_for(trained_grammar)
    calls = []

    def build():
        calls.append(1)
        return object()

    a = program.derived("test.artifact", build)
    b = program.derived("test.artifact", build)
    assert a is b and len(calls) == 1

    def failing():
        raise RuntimeError("transient")

    with pytest.raises(RuntimeError):
        program.derived("test.failing", failing)
    # A failed build caches nothing; the next builder runs.
    assert program.derived("test.failing", lambda: "ok") == "ok"


def test_tiler_shares_the_program(trained_grammar):
    tiler = Tiler(trained_grammar)
    assert tiler.program is program_for(trained_grammar)
    assert tiler._by_root is tiler.program.fragments_by_root


# -- statistics ---------------------------------------------------------------

def test_stats_shape(trained_grammar):
    stats = program_for(trained_grammar).stats()
    assert stats["rules"] == trained_grammar.total_rules()
    assert stats["nonterminals"] == len(trained_grammar.nt_names)
    assert 0.0 < stats["prediction_set_density"] <= 1.0
    assert set(stats["rules_per_nt"]) == set(trained_grammar.nt_names)
    assert stats["reachable_nonterminals"] > 0
    assert stats["min_expansion_cost"]["start"] is not None
    assert re.fullmatch(r"[0-9a-f]{64}", stats["compact_key"])


# -- structured EarleyError (satellite) ---------------------------------------

def test_earley_error_structured_context():
    # S -> a S b | eps: "aab" stalls after consuming "aa" ... the parse
    # reaches position 3 (the final b scans) but nothing completes at
    # the top; the furthest nonempty set carries the context.
    g = Grammar()
    s = g.add_nonterminal("S")
    g.start = s
    g.add_rule(s, [])
    g.add_rule(s, [1, s, 2])
    with pytest.raises(EarleyError) as err:
        shortest_derivation_tree(g, [1, 1, 2])
    exc = err.value
    assert exc.nonterminal == "S"
    assert isinstance(exc.position, int) and 0 <= exc.position <= 3
    assert exc.candidates and len(exc.candidates) <= 3
    assert all(isinstance(c, str) for c in exc.candidates)
    # Message shape mirrors DerivationError: leading <nonterminal>, the
    # classic "does not derive" phrase, and the stall position.
    message = str(exc)
    assert re.match(
        r"^<S>: input of length 3 does not derive from <S> "
        r"\(stalled at symbol \d+/3", message)


def test_earley_error_expected_terminals():
    g = Grammar()
    s = g.add_nonterminal("S")
    g.start = s
    g.add_rule(s, [1, 2])  # S -> a b only
    with pytest.raises(EarleyError) as err:
        shortest_derivation_tree(g, [1, 1])
    exc = err.value
    assert exc.expected  # the b that could have continued the parse
    assert "expecting" in str(exc)


def test_earley_pruning_preserves_toy_results():
    # The pruned parser still finds the same shortest derivations the
    # doc examples promise (cross-checked at scale by the golden sweep).
    from repro.parsing.earley import recognize, shortest_derivation

    g = Grammar()
    s = g.add_nonterminal("S")
    g.start = s
    g.add_rule(s, [])
    g.add_rule(s, [1, s, 2])
    assert recognize(g, [1, 1, 2, 2])
    assert not recognize(g, [1, 2, 2])
    assert len(shortest_derivation(g, [1, 1, 2, 2])) == 3
