"""Oracle tests: the incremental edge index against the naive recount.

The expander's correctness rests on one claim: the incrementally-updated
:class:`EdgeIndex` always agrees with a from-scratch recount of the forest
(:func:`count_edges_naive`), and therefore training with either index picks
the same edge — same count, same tie-break — at every iteration.  These
tests hold both halves of that claim down:

* step-level: after *every* expander iteration on a small corpus, counts
  and occurrence sets equal the naive recount;
* run-level: full training with ``index_mode="naive"`` vs
  ``index_mode="incremental"`` produces byte-identical grammars (same
  rules, same order) and identical iteration histories — for one
  training and for several run at once on a thread pool.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.corpus.synth import generate_program
from repro.grammar.initial import initial_grammar
from repro.minic import compile_source
from repro.parsing.stackparser import build_forest
from repro.pipeline import train_grammar
from repro.training.edges import (
    EdgeIndex,
    NaiveEdgeIndex,
    count_edges,
    count_edges_naive,
)
from repro.training.expander import TrainingStats, expand_grammar
from repro.training.inline import contract_occurrence, inline_rule


def _corpus_module(size=6, seed=5):
    return compile_source(generate_program(size, seed=seed))


def _grammar_signature(grammar):
    """Everything observable about the trained grammar, in order."""
    return [(r.id, r.lhs, r.rhs, r.origin, r.fragment) for r in grammar]


def test_count_edges_naive_is_the_exposed_oracle():
    # the old name stays importable and is the same function
    assert count_edges is count_edges_naive


def test_incremental_counts_equal_naive_recount_after_every_iteration():
    g = initial_grammar()
    forest = build_forest(g, [_corpus_module()])
    # verify_every=1 recounts with count_edges_naive after each iteration
    # and asserts equality inside EdgeIndex.verify_against.
    report = expand_grammar(g, forest, verify_every=1)
    assert report.iterations > 10  # the check actually ran many times


def test_manual_stepping_matches_naive_recount():
    """Drive the index by hand — select, inline, contract — and recount
    from scratch after every single contraction, not just per iteration."""
    g = initial_grammar()
    forest = build_forest(g, [_corpus_module(size=3, seed=9)])
    index = EdgeIndex(g, forest)
    for _ in range(5):
        found = index.best(lambda key: g.can_grow(g.rules[key[0]].lhs))
        if found is None:
            break
        (pid, slot, cid), count = found
        assert count_edges_naive(forest)[(pid, slot, cid)] == count
        new_rule = inline_rule(g, g.rules[pid], slot, g.rules[cid])
        occ = index.occurrences((pid, slot, cid))
        while occ:
            contract_occurrence(next(iter(occ)), slot, new_rule.id, index)
            expected = count_edges_naive(forest)
            assert index.counts == expected
            for key, sites in index.occs.items():
                assert len(sites) == expected[key]
            occ = index.occurrences((pid, slot, cid))


def test_naive_index_selects_identically_per_query():
    g = initial_grammar()
    forest_a = build_forest(g, [_corpus_module()])
    inc = EdgeIndex(g, forest_a)
    naive = NaiveEdgeIndex(g, forest_a)
    select_all = lambda key: True
    for min_count in (2, 3, 5, 50):
        assert inc.best(select_all, min_count=min_count) == \
            naive.best(select_all, min_count=min_count)


def _train_concurrently(corpus, workers, **kwargs):
    """``workers`` trainings of one corpus at once, on a thread pool, in
    submission order.  Training keeps no state between calls and does not
    mutate its input modules, so every concurrent run must give what a
    lone run gives."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(train_grammar, corpus, **kwargs)
                   for _ in range(workers)]
        return [f.result() for f in futures]


@pytest.mark.parametrize("workers", [1, 4])
def test_trained_grammar_identical_naive_vs_incremental(workers):
    corpus = [_corpus_module(size=8, seed=3), _corpus_module(size=5, seed=11)]
    runs = _train_concurrently(corpus, workers, index_mode="incremental",
                               collect_stats=True)
    g_naive, r_naive = train_grammar(
        corpus, index_mode="naive", collect_stats=True)
    assert len(runs) == workers
    for g_inc, r_inc in runs:
        assert _grammar_signature(g_inc) == _grammar_signature(g_naive)
        assert (r_inc.iterations, r_inc.rules_added, r_inc.rules_removed,
                r_inc.contractions, r_inc.final_size) == \
               (r_naive.iterations, r_naive.rules_added, r_naive.rules_removed,
                r_naive.contractions, r_naive.final_size)
        assert r_inc.recounts == 0
    assert r_naive.recounts == r_naive.iterations + 1  # one per query


@pytest.mark.parametrize("workers", [1, 3])
def test_seed_corpus_grammar_identical_across_index_and_workers(workers):
    """The acceptance check, on the repo's own benchmark corpus: the
    trained grammar (rules *and* rule order, hence every codeword) is
    identical with the incremental index and the naive oracle, for a lone
    training and for several trainings running at once."""
    from repro.corpus import compiled_corpus

    modules = [compiled_corpus(6)["lcc"], compiled_corpus(6)["8q"]]
    runs = _train_concurrently(modules, workers)
    g_naive, _ = train_grammar(modules, index_mode="naive")
    assert len(runs) == workers
    for g_inc, _ in runs:
        assert _grammar_signature(g_inc) == _grammar_signature(g_naive)


def test_histories_match_between_index_modes():
    g1 = initial_grammar()
    f1 = build_forest(g1, [_corpus_module()])
    r1 = expand_grammar(g1, f1, keep_history=True)
    g2 = initial_grammar()
    f2 = build_forest(g2, [_corpus_module()])
    r2 = expand_grammar(g2, f2, keep_history=True, index_mode="naive")
    assert r1.history == r2.history


def test_training_stats_are_collected():
    g = initial_grammar()
    forest = build_forest(g, [_corpus_module()])
    report = expand_grammar(g, forest, collect_stats=True)
    assert isinstance(report, TrainingStats)
    assert len(report.iter_seconds) == report.iterations
    assert len(report.heap_sizes) == report.iterations
    assert report.heap_peak > 0
    assert report.heap_pushes > 0
    assert 0.0 <= report.heap_hit_rate <= 1.0
    assert report.expand_seconds > 0
    assert report.summary_lines()  # renders without error


def test_stats_do_not_change_the_result():
    g1 = initial_grammar()
    r1 = expand_grammar(g1, build_forest(g1, [_corpus_module()]))
    g2 = initial_grammar()
    r2 = expand_grammar(g2, build_forest(g2, [_corpus_module()]),
                        collect_stats=True)
    assert _grammar_signature(g1) == _grammar_signature(g2)
    assert r1.final_size == r2.final_size


def test_unknown_index_mode_rejected():
    g = initial_grammar()
    forest = build_forest(g, [_corpus_module(size=2, seed=1)])
    with pytest.raises(ValueError):
        expand_grammar(g, forest, index_mode="quantum")
