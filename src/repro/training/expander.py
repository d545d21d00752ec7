"""The greedy grammar expander (paper Section 4.1).

Starting from the forest of parse trees for the training corpus, repeatedly:

1. find the most frequent edge (rule pair) whose parent nonterminal still
   has room (fewer than 256 rules);
2. add the inlined rule to the grammar;
3. contract every occurrence of the edge in the forest (Figure 2) — the
   derivation shrinks by one rule per contraction;
4. remove inlined rules that the new rule *subsumed* (no longer used in the
   derivation); original rules are never removed.

This is a heuristic — finding the optimal rule set is NP-hard (Section 4.1)
— but each step is exact: the forest always represents a valid derivation
of the training corpus under the current grammar.

The most-frequent-edge query runs against either the incremental
:class:`~repro.training.edges.EdgeIndex` (the default: O(degree) updates
per contraction) or the :class:`~repro.training.edges.NaiveEdgeIndex`
oracle (a full O(forest) recount per iteration, ``index_mode="naive"``).
Both must pick the same edge at every step — same count, same tie-break —
so the trained grammars are byte-identical; the oracle tests pin this.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..grammar.cfg import Grammar
from ..parsing.forest import Forest
from .edges import EdgeIndex, EdgeKey, NaiveEdgeIndex
from .inline import contract_occurrence, inline_rule

__all__ = ["TrainingReport", "TrainingStats", "expand_grammar"]


@dataclass
class TrainingReport:
    """What one training run did.

    ``rules_added``/``contractions`` cover *both* phases of a hybrid
    run (maximal-repeat seeding plus greedy refinement); the ``seed_*``
    fields break the seed phase's share out, and ``iterations`` counts
    refine-phase inlining steps only.
    """

    iterations: int = 0
    rules_added: int = 0
    rules_removed: int = 0
    contractions: int = 0
    initial_size: int = 0
    final_size: int = 0
    #: total training wall time (parse + expand), filled by the pipeline
    wall_seconds: float = 0.0
    #: per-iteration (edge count, new rule id) — compact trace for analysis
    history: List[Tuple[int, int]] = field(default_factory=list)
    #: which :class:`~repro.training.strategy.Trainer` trained this
    #: grammar ("greedy" when ``expand_grammar`` was driven directly)
    strategy: str = "greedy"
    #: the trainer's knobs, JSON-serializable (provenance)
    strategy_params: Dict[str, object] = field(default_factory=dict)
    #: rules added / rounds run / forest nodes removed by the seed phase
    seed_rules: int = 0
    seed_rounds: int = 0
    seed_contractions: int = 0
    #: wall seconds per phase (seed is 0.0 for the greedy trainer)
    seed_seconds: float = 0.0
    refine_seconds: float = 0.0

    @property
    def size_ratio(self) -> float:
        """Training-forest derivation length, final / initial."""
        if self.initial_size == 0:
            return 1.0
        return self.final_size / self.initial_size


@dataclass
class TrainingStats(TrainingReport):
    """A :class:`TrainingReport` plus instrumentation of *how* it ran.

    Produced by ``expand_grammar(..., collect_stats=True)`` (and by
    ``pipeline.train_grammar(collect_stats=True)``, which also fills the
    parse-phase fields).  Everything here is observational — collecting it
    does not change what the expander does.
    """

    #: which index answered the argmax queries: "incremental" or "naive"
    index_mode: str = "incremental"
    #: wall-clock seconds per expander iteration (argmax + contractions)
    iter_seconds: List[float] = field(default_factory=list)
    #: lazy-heap size sampled after each iteration (0 for the naive index)
    heap_sizes: List[int] = field(default_factory=list)
    #: heap entries pushed / best() inspections / stale entries discarded
    heap_pushes: int = 0
    heap_peeks: int = 0
    heap_stale_pops: int = 0
    #: full-forest recounts performed (naive index only)
    recounts: int = 0
    #: seconds spent parsing the corpus into the forest (filled by
    #: ``pipeline.train_grammar``; 0 when the caller built the forest)
    parse_seconds: float = 0.0
    #: total expander wall time
    expand_seconds: float = 0.0
    #: wall seconds per maximal-repeat seed round (hybrid trainer)
    seed_round_seconds: List[float] = field(default_factory=list)

    @property
    def heap_hit_rate(self) -> float:
        """Fraction of best() heap inspections that saw a live entry
        (1.0 for the naive index, which never inspects a heap)."""
        if self.heap_peeks == 0:
            return 1.0
        return 1.0 - self.heap_stale_pops / self.heap_peeks

    @property
    def heap_peak(self) -> int:
        return max(self.heap_sizes, default=0)

    @property
    def mean_iter_ms(self) -> float:
        if not self.iter_seconds:
            return 0.0
        return 1000.0 * sum(self.iter_seconds) / len(self.iter_seconds)

    def summary_lines(self) -> List[str]:
        """Human-readable digest (the CLI's ``--stats`` output): one line
        per phase — parse, seed (hybrid only), refine — each with its
        own wall time, then the index/heap behaviour."""
        lines = [f"trainer: {self.strategy}; parse {self.parse_seconds:.3f}s"]
        if self.seed_rounds:
            per_round = ""
            if self.seed_round_seconds:
                per_round = " [" + " ".join(
                    f"{s:.3f}s" for s in self.seed_round_seconds) + "]"
            lines.append(
                f"seed: {self.seed_seconds:.3f}s, {self.seed_rounds} "
                f"round(s){per_round}; {self.seed_rules} rules, "
                f"{self.seed_contractions} contractions")
        lines.append(
            f"refine: {self.refine_seconds:.3f}s, {self.iterations} "
            f"inlines (mean {self.mean_iter_ms:.2f} ms), "
            f"index {self.index_mode}")
        lines.append(
            f"heap: peak {self.heap_peak} entries, "
            f"{self.heap_pushes} pushes, hit rate "
            f"{self.heap_hit_rate:.1%} "
            f"({self.heap_stale_pops}/{self.heap_peeks} stale)")
        if self.recounts:
            lines.append(f"naive recounts: {self.recounts}")
        return lines


def expand_grammar(grammar: Grammar, forest: Forest, *,
                   min_count: int = 2,
                   max_iterations: Optional[int] = None,
                   remove_subsumed: bool = True,
                   keep_history: bool = False,
                   verify_every: int = 0,
                   edge_filter: Optional[Callable[[EdgeKey], bool]] = None,
                   index_mode: str = "incremental",
                   collect_stats: bool = False,
                   ) -> TrainingReport:
    """Expand ``grammar`` in place against ``forest`` (also mutated).

    Args:
        min_count: only inline edges occurring at least this often
            (2 by default: a single-occurrence inline trades one derivation
            step for a whole new rule).
        max_iterations: optional hard cap on inlining steps.
        remove_subsumed: drop inlined rules that fall out of use
            (Section 4.1; original rules are always kept).
        keep_history: record (edge count, new rule id) per iteration.
        verify_every: if > 0, cross-check the incremental edge counts
            against a full recount every N iterations (slow; for tests).
        edge_filter: optional predicate over edge keys; edges it rejects
            are never inlined (used by the superoperator baseline and the
            ablation benches to restrict the pattern language).
        index_mode: ``"incremental"`` (lazy-heap :class:`EdgeIndex`) or
            ``"naive"`` (full recount per iteration — the oracle/baseline).
            Both trained grammars are identical; only the speed differs.
        collect_stats: return a :class:`TrainingStats` (per-iteration wall
            times, heap sizes, hit rates) instead of a plain report.

    Returns a :class:`TrainingReport` (or :class:`TrainingStats`).
    """
    if index_mode == "incremental":
        index = EdgeIndex(grammar, forest)
    elif index_mode == "naive":
        index = NaiveEdgeIndex(grammar, forest)
    else:
        raise ValueError(f"unknown index_mode {index_mode!r}")

    use_count: Dict[int, int] = {}
    size = 0
    for node in forest.nodes():
        use_count[node.rule_id] = use_count.get(node.rule_id, 0) + 1
        size += 1

    if collect_stats:
        report = TrainingStats(initial_size=size, index_mode=index_mode)
    else:
        report = TrainingReport(initial_size=size)
    rules = grammar.rules

    def selectable(key: EdgeKey) -> bool:
        if edge_filter is not None and not edge_filter(key):
            return False
        return grammar.can_grow(rules[key[0]].lhs)

    expand_start = time.perf_counter()
    while max_iterations is None or report.iterations < max_iterations:
        iter_start = time.perf_counter() if collect_stats else 0.0
        found = index.best(selectable, min_count=min_count)
        if found is None:
            break
        key, count = found
        parent_id, slot, child_id = key
        new_rule = inline_rule(grammar, rules[parent_id], slot,
                               rules[child_id])
        report.rules_added += 1
        report.iterations += 1
        if keep_history:
            report.history.append((count, new_rule.id))

        # Contract every live occurrence.  The occurrence set only shrinks
        # while we work on this key (contractions relabel parents to the
        # fresh rule id), so draining the live view terminates.
        occ = index.occurrences(key)
        while occ:
            node = next(iter(occ))
            contract_occurrence(node, slot, new_rule.id, index)
            use_count[parent_id] -= 1
            use_count[child_id] -= 1
            use_count[new_rule.id] = use_count.get(new_rule.id, 0) + 1
            size -= 1
            report.contractions += 1
            occ = index.occurrences(key)

        if remove_subsumed:
            for rid in (parent_id, child_id):
                if use_count.get(rid) == 0 and rules[rid].origin == "inlined":
                    lhs = rules[rid].lhs
                    was_full = not grammar.can_grow(lhs)
                    grammar.remove_rule(rid)
                    del use_count[rid]
                    report.rules_removed += 1
                    if was_full:
                        # The nonterminal regained capacity: restore its
                        # previously filtered-out heap entries.
                        index.repush_lhs(lhs)

        if collect_stats:
            report.iter_seconds.append(time.perf_counter() - iter_start)
            report.heap_sizes.append(index.heap_size())

        if verify_every and report.iterations % verify_every == 0:
            index.verify_against(forest)

    report.final_size = size
    report.refine_seconds = time.perf_counter() - expand_start
    if collect_stats:
        report.expand_seconds = report.refine_seconds
        report.heap_pushes = index.stats.pushes
        report.heap_peeks = index.stats.peeks
        report.heap_stale_pops = index.stats.stale_pops
        report.recounts = index.stats.recounts
    return report
