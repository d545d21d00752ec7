"""The two trainers (:class:`repro.training.Trainer`).

The greedy trainer runs the paper's edge-contraction loop under a
bit-identical contract, gated here by a frozen oracle
(:mod:`repro.training.oracle`) across a 50-seed golden sweep: same
rules (ids, bodies, origins, fragments) and same report numbers as the
original loop.  MR-RePair seeding — alone (``repair``: the hybrid
trainer at its full seed budget with no refine iterations) and inside
the ``hybrid`` trainer — is held to the same differential bar as greedy:
grammars that ``check()``, byte-identical compress/decompress round
trips, engine agreement (compiled, reference, and — where a C compiler
exists — native), and incremental-vs-naive edge-index equality through
the refine phase.

Seeds 400-449: disjoint from test_differential (100-149),
test_exec_equivalence (200-249), and test_program_equivalence (300-349).
"""

import pytest

from repro import compress_module, train_grammar
from repro.compress.decompress import decompress_module
from repro.corpus.synth import generate_program
from repro.grammar.initial import initial_grammar
from repro.interp.compiled import CompiledEngine
from repro.interp.interp1 import Interpreter1
from repro.interp.interp2 import Interpreter2
from repro.interp.runtime import Machine
from repro.minic import compile_source
from repro.parsing.stackparser import build_forest
from repro.storage import save_module
from repro.training import TRAINERS, repair_seed, resolve_strategy
from repro.training.edges import EdgeIndex
from repro.training.oracle import oracle_expand_grammar

GOLDEN_SEEDS = list(range(400, 450))

#: test id -> ``train_grammar`` arguments: both trainers, plus seeding
#: alone (``repair_seed`` at its defaults — full budget — and no
#: refinement)
CASES = {
    "greedy": {"strategy": "greedy"},
    "repair": {"strategy": "hybrid", "strategy_params": {"budget_frac": 1.0},
               "max_iterations": 0},
    "hybrid": {"strategy": "hybrid"},
}


def _signature(grammar):
    """Everything observable about a trained grammar: rule identity,
    order (= codewords), bodies, provenance fragments."""
    return [
        (nt, [(r.id, r.rhs, r.origin, r.fragment)
              for r in grammar.rules_for(nt)])
        for nt in grammar.nonterminals
    ]


def _corpus(seed, size=4, n=2):
    return [compile_source(generate_program(size, seed=seed + 1000 * k))
            for k in range(n)]


# -- the greedy trainer is bit-identical to the frozen oracle -----------------


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_greedy_strategy_matches_oracle(seed):
    corpus = _corpus(seed, size=3, n=1)

    live = initial_grammar()
    live_forest = build_forest(live, corpus)
    report = resolve_strategy("greedy").train(live, live_forest)

    frozen = initial_grammar()
    frozen_forest = build_forest(frozen, corpus)
    oracle = oracle_expand_grammar(frozen, frozen_forest)

    assert _signature(live) == _signature(frozen), \
        f"seed {seed}: greedy refactor diverged from frozen oracle"
    assert (report.iterations, report.rules_added, report.contractions,
            report.rules_removed, report.initial_size,
            report.final_size) == \
        (oracle.iterations, oracle.rules_added, oracle.contractions,
         oracle.rules_removed, oracle.initial_size, oracle.final_size), \
        f"seed {seed}: report numbers diverged from frozen oracle"
    assert report.strategy == "greedy"


def test_greedy_strategy_matches_oracle_under_knobs():
    """The knob surface (min_count, caps, no-subsumption, iteration
    limits) must pass through the trainer unchanged."""
    corpus = _corpus(405)
    for kwargs in (
        {"min_count": 3},
        {"remove_subsumed": False},
        {"max_iterations": 7},
    ):
        live = initial_grammar(max_rules_per_nt=32)
        lf = build_forest(live, corpus)
        resolve_strategy("greedy").train(live, lf, **kwargs)
        frozen = initial_grammar(max_rules_per_nt=32)
        ff = build_forest(frozen, corpus)
        oracle_expand_grammar(frozen, ff, **kwargs)
        assert _signature(live) == _signature(frozen), kwargs


# -- differential sweep: every trainer's grammar behaves ----------------------


@pytest.fixture(scope="module", params=list(CASES))
def strategy_grammar(request):
    corpus = [compile_source(generate_program(8, seed=s))
              for s in (411, 412)]
    grammar, report = train_grammar(corpus, **CASES[request.param])
    grammar.check()
    return request.param, grammar, report


def _observe(program, executor):
    machine = Machine(program, executor)
    code = machine.run()
    return code, bytes(machine.output), machine.instret


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_strategy_round_trip_and_engines(seed, strategy_grammar):
    name, grammar, _ = strategy_grammar
    module = compile_source(generate_program(4, seed=seed))

    cmod = compress_module(grammar, module)
    assert save_module(decompress_module(cmod)) == save_module(module), \
        f"{name}, seed {seed}: decompression round trip broke"

    baseline = _observe(module, Interpreter1(module))
    assert _observe(cmod, CompiledEngine(cmod)) == baseline, \
        f"{name}, seed {seed}: compiled engine diverged"
    assert _observe(cmod, Interpreter2(cmod)) == baseline, \
        f"{name}, seed {seed}: reference engine diverged"


def test_strategy_report_provenance(strategy_grammar):
    name, _, report = strategy_grammar
    assert report.strategy == CASES[name]["strategy"]
    assert report.final_size == report.initial_size - report.contractions
    if name == "greedy":
        assert report.strategy_params == {}
        assert report.seed_rules == 0 and report.seed_rounds == 0
    else:
        assert report.seed_rules > 0 and report.seed_rounds > 0
        assert report.seed_contractions > 0
        assert report.seed_seconds >= 0.0
    if name == "repair":
        assert report.iterations == 0  # no refine phase
        assert report.strategy_params["budget_frac"] == 1.0
    if name == "hybrid":
        assert report.strategy_params["max_rounds"] == 8
        assert report.strategy_params["max_rule_symbols"] == 64
        assert report.iterations > 0  # refine ran after seeding


@pytest.mark.parametrize("seed", GOLDEN_SEEDS[::10])
def test_strategy_native_engine(seed, strategy_grammar):
    from repro.interp.native import native_available, run_native
    if not native_available():
        pytest.skip("no C compiler on PATH: native engine unavailable")
    name, grammar, _ = strategy_grammar
    module = compile_source(generate_program(4, seed=seed))
    cmod = compress_module(grammar, module)
    machine = Machine(module, Interpreter1(module))
    code = machine.run()
    assert run_native(cmod) == (code, bytes(machine.output)), \
        f"{name}, seed {seed}: native engine diverged"


# -- the naive-oracle differential (count_edges_naive harness) ----------------


def test_seeded_forest_keeps_edge_index_consistent():
    """After MR-RePair contracts the forest, a fresh incremental index
    must agree with the full naive recount — seeding can't corrupt the
    structure the refine phase counts over."""
    corpus = _corpus(421)
    grammar = initial_grammar()
    forest = build_forest(grammar, corpus)
    seeded = repair_seed(grammar, forest)
    assert seeded.rules_added > 0
    EdgeIndex(grammar, forest).verify_against(forest)


@pytest.mark.parametrize("name", ("greedy", "hybrid"))
def test_refine_identical_under_naive_index(name):
    """index_mode="naive" (full recount every iteration) must train the
    exact same grammar through either trainer."""
    corpus = _corpus(423)
    fast, fast_report = train_grammar(corpus, strategy=name)
    slow, slow_report = train_grammar(corpus, strategy=name,
                                      index_mode="naive")
    assert _signature(fast) == _signature(slow), \
        f"{name}: naive index diverged from incremental"
    assert fast_report.iterations == slow_report.iterations


# -- resolve_strategy ---------------------------------------------------------


def test_registry_knows_all_strategies():
    assert TRAINERS == ("greedy", "hybrid")  # seeding alone is no trainer
    for name in TRAINERS:
        assert resolve_strategy(name).name == name


def test_resolve_strategy_params_reach_constructor():
    strat = resolve_strategy("hybrid", max_rounds=2, budget_frac=0.25)
    assert strat.params() == {"max_rounds": 2, "max_rule_symbols": 64,
                              "budget_frac": 0.25}


def test_resolve_strategy_rejects_unknown_name():
    with pytest.raises(ValueError, match="greedy"):
        resolve_strategy("bogus-trainer")


def test_trainer_rejects_knobs_it_does_not_take():
    """A knob the trainer does not take is named in a ValueError, both
    when the trainer is built directly and through train_grammar."""
    with pytest.raises(ValueError, match="max_rounds"):
        resolve_strategy("greedy", max_rounds=2)
    with pytest.raises(ValueError, match="bogus"):
        train_grammar(_corpus(432, size=2, n=1), strategy="hybrid",
                      strategy_params={"bogus": 1})


# -- per-phase stats surface --------------------------------------------------


@pytest.mark.parametrize("name", list(CASES))
def test_stats_summary_reports_phases(name):
    corpus = _corpus(431, size=3, n=1)
    _, stats = train_grammar(corpus, **CASES[name], collect_stats=True)
    lines = stats.summary_lines()
    text = "\n".join(lines)
    assert f"trainer: {CASES[name]['strategy']}" in lines[0]
    assert "parse" in lines[0]
    if name in ("repair", "hybrid"):
        assert "seed:" in text, text
        assert f"{stats.seed_rounds} round(s)" in text
        assert stats.seed_round_seconds  # per-round timings captured
        assert len(stats.seed_round_seconds) == stats.seed_rounds
    else:
        assert "seed:" not in text
    if name in ("greedy", "hybrid"):
        assert "refine:" in text, text
        assert stats.refine_seconds > 0.0
    assert stats.seed_seconds >= 0.0
