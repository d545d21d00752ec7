"""The trainer-strategy seam (ISSUE 10).

The greedy edge-contraction loop moved behind
:class:`repro.training.TrainerStrategy` under a bit-identical contract,
gated here by a frozen oracle (:mod:`repro.training.oracle`) across a
50-seed golden sweep: same rules (ids, bodies, origins, fragments) and
same report numbers as the pre-refactor loop.  MR-RePair seeding —
alone (``repair``: :func:`repair_seed` with no refine phase) and inside
the ``hybrid`` strategy — is held to the same differential bar as every
other trainer: grammars that ``check()``, byte-identical
compress/decompress round trips, engine agreement (compiled, reference,
and — where a C compiler exists — native), and incremental-vs-naive
edge-index equality through the refine phase.

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
from repro.training import (
    STRATEGIES,
    GreedyStrategy,
    HybridStrategy,
    TrainerStrategy,
    repair_seed,
    resolve_strategy,
)
from repro.training.edges import EdgeIndex
from repro.training.oracle import oracle_expand_grammar

GOLDEN_SEEDS = list(range(400, 450))
STRATEGY_NAMES = ("greedy", "hybrid")


class SeedOnly(TrainerStrategy):
    """The seed phase alone: :func:`repair_seed` at its defaults, no
    refinement — the seed-only grammar the sweeps below exercise."""

    id = "repair"

    def seed(self, grammar, forest, *, min_count=2):
        return repair_seed(grammar, forest, min_count=min_count)


#: test id -> strategy: both registered trainers plus seeding alone
TRAINERS = {"greedy": "greedy", "repair": SeedOnly, "hybrid": "hybrid"}


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


# -- tentpole gate: the greedy port is bit-identical to the frozen oracle


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_greedy_strategy_matches_oracle(seed):
    corpus = _corpus(seed, size=3, n=1)

    live = initial_grammar()
    live_forest = build_forest(live, corpus)
    report = GreedyStrategy().train(live, live_forest)

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
    limits) must pass through the seam unchanged."""
    corpus = _corpus(405)
    for kwargs in (
        {"min_count": 3},
        {"remove_subsumed": False},
        {"max_iterations": 7},
    ):
        live = initial_grammar(max_rules_per_nt=32)
        lf = build_forest(live, corpus)
        GreedyStrategy().train(live, lf, **kwargs)
        frozen = initial_grammar(max_rules_per_nt=32)
        ff = build_forest(frozen, corpus)
        oracle_expand_grammar(frozen, ff, **kwargs)
        assert _signature(live) == _signature(frozen), kwargs


# -- differential sweep: every strategy's grammar behaves ---------------------


@pytest.fixture(scope="module", params=list(TRAINERS))
def strategy_grammar(request):
    corpus = [compile_source(generate_program(8, seed=s))
              for s in (411, 412)]
    grammar, report = train_grammar(corpus,
                                    strategy=TRAINERS[request.param])
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
    assert report.strategy == name
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
    exact same grammar through the strategy seam."""
    corpus = _corpus(423)
    fast, fast_report = train_grammar(corpus, strategy=name)
    slow, slow_report = train_grammar(corpus, strategy=name,
                                      index_mode="naive")
    assert _signature(fast) == _signature(slow), \
        f"{name}: naive index diverged from incremental"
    assert fast_report.iterations == slow_report.iterations


# -- resolve_strategy / registration ------------------------------------------


def test_registry_knows_all_strategies():
    assert set(STRATEGY_NAMES) <= set(STRATEGIES)
    assert "repair" not in STRATEGIES  # seeding alone is not a trainer
    for name in STRATEGY_NAMES:
        strat = resolve_strategy(name)
        assert strat.id == name


def test_resolve_strategy_accepts_class_and_instance():
    strat = resolve_strategy(HybridStrategy)
    assert strat.id == "hybrid"
    inst = HybridStrategy(max_rounds=3)
    assert resolve_strategy(inst) is inst


def test_resolve_strategy_params_reach_constructor():
    strat = resolve_strategy("hybrid", max_rounds=2, budget_frac=0.25)
    assert strat.params() == {"max_rounds": 2, "max_rule_symbols": 64,
                              "budget_frac": 0.25}


def test_resolve_strategy_rejects_unknown_name():
    with pytest.raises(ValueError, match="greedy"):
        resolve_strategy("bogus-trainer")


def test_resolve_strategy_rejects_params_on_instance():
    with pytest.raises(ValueError):
        resolve_strategy(HybridStrategy(), max_rounds=2)


def test_register_strategy_rejects_duplicate_id():
    from repro.training import register_strategy
    with pytest.raises(ValueError):
        @register_strategy
        class Imposter(TrainerStrategy):  # noqa: F811
            id = "greedy"


# -- satellite: per-phase stats surface ---------------------------------------


@pytest.mark.parametrize("name", list(TRAINERS))
def test_stats_summary_reports_phases(name):
    corpus = _corpus(431, size=3, n=1)
    _, stats = train_grammar(corpus, strategy=TRAINERS[name],
                             collect_stats=True)
    lines = stats.summary_lines()
    text = "\n".join(lines)
    assert f"trainer: {name}" in lines[0]
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
