"""Boundary tests: the 256-rules-per-nonterminal cap and edge tie-breaking.

The one-byte codeword design hinges on two boundaries: no nonterminal may
ever exceed 256 rules (a rule index must fit in a byte), and when two edges
are equally frequent the expander must pick a *deterministic* winner — the
lexicographically smallest ``(parent_rule_id, slot, child_rule_id)`` key —
identically across runs, across index implementations, and across parser
worker counts.
"""

import pytest

from repro.corpus.synth import generate_program
from repro.grammar.initial import initial_grammar
from repro.minic import compile_source
from repro.parsing.derivation import derivation_of_tree, encode_tree
from repro.parsing.forest import Forest, Node
from repro.parsing.stackparser import build_forest
from repro.pipeline import train_grammar
from repro.training import repair_seed, resolve_strategy
from repro.training.edges import EdgeIndex, NaiveEdgeIndex
from repro.training.expander import expand_grammar


def _module(size=8, seed=3):
    return compile_source(generate_program(size, seed=seed))


# -- 256-rule cap -------------------------------------------------------------

def test_byte_nonterminal_sits_exactly_at_the_cap():
    """<byte> has exactly 256 original rules — the cap boundary itself —
    and every index still fits the one-byte codeword."""
    g = initial_grammar()
    byte = g.nonterminal("byte")
    assert g.num_rules(byte) == 256
    assert not g.can_grow(byte)
    assert {g.rule_index(rid) for rid in g.by_lhs[byte]} == set(range(256))


def test_full_nonterminal_rejects_inlined_rules():
    g = initial_grammar()
    byte = g.nonterminal("byte")
    some_rule = g.rules_for(byte)[0]
    with pytest.raises(ValueError):
        g.add_rule(byte, some_rule.rhs, origin="inlined",
                   fragment=some_rule.fragment)


def test_cap_is_reached_but_never_exceeded():
    g = initial_grammar(max_rules_per_nt=16)
    initial_counts = {nt: g.num_rules(nt) for nt in g.nonterminals}
    forest = build_forest(g, [_module(size=10, seed=7)])
    expand_grammar(g, forest)
    for nt in g.nonterminals:
        n = g.num_rules(nt)
        assert n <= max(16, initial_counts[nt])
    # Training on a real corpus actually hits the boundary somewhere —
    # otherwise this test exercises nothing.
    assert any(
        g.num_rules(nt) == 16 and initial_counts[nt] < 16
        for nt in g.nonterminals
    )


def test_trained_rule_indexes_fit_one_byte():
    g, _ = train_grammar([_module()])
    for rule in g:
        assert g.rule_index(rule.id) <= 255
    # ... so every derivation byte-encodes without error.
    forest = build_forest(g, [_module()])
    for tree in forest:
        data = encode_tree(g, tree)
        assert len(data) == len(derivation_of_tree(tree))


def test_capacity_regained_after_subsumption_is_reusable():
    """A nonterminal at its cap that loses a subsumed rule can grow again
    (the repush_lhs path), and the naive oracle agrees on the result."""
    sigs = []
    for mode in ("incremental", "naive"):
        g = initial_grammar(max_rules_per_nt=12)
        forest = build_forest(g, [_module(size=10, seed=7)])
        report = expand_grammar(g, forest, index_mode=mode)
        sigs.append(([(r.lhs, r.rhs, r.origin) for r in g],
                     report.iterations, report.rules_removed))
    assert sigs[0] == sigs[1]
    assert sigs[0][2] > 0  # subsumption removal actually fired


# -- tie-breaking -------------------------------------------------------------

def _tied_forest():
    """Two distinct edges, each occurring exactly twice: a frequency tie."""
    forest = Forest()
    for _ in range(2):
        forest.add(Node(9, [Node(3)]))   # edge (9, 0, 3)
    for _ in range(2):
        forest.add(Node(4, [Node(7)]))   # edge (4, 0, 7)
    return forest


def test_tie_breaks_to_smallest_key_incremental_and_naive():
    g = initial_grammar()
    forest = _tied_forest()
    inc = EdgeIndex(g, forest)
    naive = NaiveEdgeIndex(g, forest)
    expected = ((4, 0, 7), 2)  # (4,0,7) < (9,0,3) lexicographically
    assert inc.best(lambda key: True) == expected
    assert naive.best(lambda key: True) == expected


def test_tie_break_independent_of_insertion_order():
    g = initial_grammar()
    forest = Forest()
    for _ in range(2):
        forest.add(Node(4, [Node(7)]))
    for _ in range(2):
        forest.add(Node(9, [Node(3)]))
    assert EdgeIndex(g, forest).best(lambda key: True) == ((4, 0, 7), 2)


def test_slot_and_child_participate_in_the_tie_break():
    g = initial_grammar()
    forest = Forest()
    # Same parent rule, ties broken by slot then child id.
    for _ in range(2):
        forest.add(Node(5, [Node(8), Node(2)]))  # edges (5,0,8) and (5,1,2)
    best = EdgeIndex(g, forest).best(lambda key: True)
    assert best == ((5, 0, 8), 2)  # slot 0 beats slot 1 regardless of child


def test_training_deterministic_across_runs():
    runs = []
    for _ in range(2):
        g, report = train_grammar([_module()], max_iterations=40)
        runs.append(([(r.lhs, r.rhs, r.origin) for r in g],
                     report.contractions))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_training_deterministic_across_worker_counts(workers):
    corpus = [_module(size=6, seed=13), _module(size=4, seed=17)]
    g_serial, r_serial = train_grammar(corpus)
    g_par, r_par = train_grammar(corpus, parser_workers=workers)
    assert [(r.lhs, r.rhs, r.origin) for r in g_serial] == \
           [(r.lhs, r.rhs, r.origin) for r in g_par]
    assert (r_serial.iterations, r_serial.final_size) == \
           (r_par.iterations, r_par.final_size)


# -- MR-RePair seeding at the boundaries --------------------------------------
#
# ``"repair"`` is the seeder alone (:func:`repair_seed` at its full
# budget); ``"hybrid"`` seeds a tenth of the budget, then refines.

def _seeded(strategy, corpus, workers=None):
    """Rule signature and seed-phase numbers after seeding ``corpus``."""
    if strategy == "repair":
        grammar = initial_grammar()
        forest = build_forest(grammar, corpus, workers=workers)
        seeded = repair_seed(grammar, forest)
        numbers = (seeded.rules_added, seeded.rounds, seeded.contractions,
                   sum(1 for _ in forest.nodes()))
    else:
        grammar, report = train_grammar(corpus, strategy=strategy,
                                        parser_workers=workers)
        numbers = (report.seed_rules, report.seed_rounds,
                   report.contractions, report.final_size)
    return [(r.lhs, r.rhs, r.origin, r.fragment) for r in grammar], numbers


@pytest.mark.parametrize("strategy", ["repair", "hybrid"])
@pytest.mark.parametrize("cap", [12, 16])
def test_seeding_never_exceeds_the_cap(strategy, cap):
    """MR-RePair seeding, alone or followed by greedy refinement, must
    respect the same per-nonterminal budget as the pure greedy loop."""
    g = initial_grammar(max_rules_per_nt=cap)
    initial_counts = {nt: g.num_rules(nt) for nt in g.nonterminals}
    forest = build_forest(g, [_module(size=10, seed=7)])
    if strategy == "repair":
        repair_seed(g, forest)
    else:
        resolve_strategy(strategy).train(g, forest)
    g.check()
    for nt in g.nonterminals:
        assert g.num_rules(nt) <= max(cap, initial_counts[nt]), \
            f"{strategy}: cap {cap} exceeded for nt {nt}"
    for rule in g:
        assert g.rule_index(rule.id) < max(256, cap)


def test_seed_budget_frac_bounds_seeded_rules_per_nt():
    """budget_frac reserves headroom: a seed-only run may claim at most
    floor(frac * remaining-capacity) new rules per nonterminal."""
    frac, cap = 0.5, 16
    g = initial_grammar(max_rules_per_nt=cap)
    initial_counts = {nt: g.num_rules(nt) for nt in g.nonterminals}
    forest = build_forest(g, [_module(size=10, seed=7)])
    repair_seed(g, forest, budget_frac=frac)
    for nt in g.nonterminals:
        grown = g.num_rules(nt) - initial_counts[nt]
        budget = int(max(0, cap - initial_counts[nt]) * frac)
        assert grown <= budget, \
            f"nt {nt}: seeded {grown} rules over budget {budget}"


@pytest.mark.parametrize("strategy", ["repair", "hybrid"])
def test_seeding_deterministic_across_runs(strategy):
    assert _seeded(strategy, [_module()]) == _seeded(strategy, [_module()])


@pytest.mark.parametrize("strategy", ["repair", "hybrid"])
@pytest.mark.parametrize("workers", [2, 3, 4])
def test_seeding_deterministic_across_worker_counts(strategy, workers):
    """Shape-key ids are assigned in forest preorder, which the parallel
    parser reproduces exactly — so seeding (and everything downstream)
    is invariant under parser_workers."""
    corpus = [_module(size=6, seed=13), _module(size=4, seed=17)]
    assert _seeded(strategy, corpus) == _seeded(strategy, corpus, workers)


def test_parallel_forest_merges_in_corpus_order():
    g = initial_grammar()
    corpus = [_module(size=5, seed=19), _module(size=3, seed=23)]
    serial = build_forest(g, corpus)
    parallel = build_forest(g, corpus, workers=3)
    assert len(serial) == len(parallel)
    assert [derivation_of_tree(t) for t in serial] == \
           [derivation_of_tree(t) for t in parallel]
