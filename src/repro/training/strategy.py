"""The trainer: how the forest of parse trees becomes an expanded grammar.

There are two trainers (:data:`TRAINERS`), and both end in the paper's
greedy profiled edge-contraction loop
(:func:`~repro.training.expander.expand_grammar`):

* ``greedy`` runs that loop alone (Section 4.1); it takes no knobs;
* ``hybrid`` first seeds the grammar with the forest's maximal repeats
  (:func:`~repro.training.repair.repair_seed`, MR-RePair) and then runs
  the loop over what seeding left.  Its knobs are ``max_rounds``,
  ``max_rule_symbols`` and ``budget_frac``.

:meth:`Trainer.train` times the seed phase and folds its work into the
returned :class:`TrainingReport`, so every consumer (pipeline, registry
provenance, CLI ``--stats``, experiment harness) sees one record with
the trainer's name and knobs attached.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..grammar.cfg import Grammar
from ..parsing.forest import Forest
from .expander import TrainingReport, TrainingStats, expand_grammar
from .repair import repair_seed

__all__ = ["TRAINERS", "Trainer", "resolve_strategy"]

#: trainer name -> its knobs and their defaults
_KNOBS: Dict[str, Dict[str, object]] = {
    "greedy": {},
    "hybrid": {"max_rounds": 8, "max_rule_symbols": 64, "budget_frac": 0.1},
}

#: the trainer names, in the order the CLI offers them
TRAINERS = tuple(_KNOBS)


class Trainer:
    """One trainer by name, with its knobs.

    The knobs are recorded verbatim as provenance
    (:attr:`TrainingReport.strategy_params`), so they must be
    JSON-serializable.  Pipeline-level knobs (``min_count``,
    ``index_mode``, ...) arrive as :meth:`train` arguments instead; they
    mean the same thing for both trainers.

    The default ``budget_frac`` of ``hybrid`` spends a tenth of every
    nonterminal's remaining capacity on seeds and leaves the rest to the
    greedy loop.  Measured on the synthetic corpus (EXPERIMENTS.md, S4),
    seeded hole-shapes generalize: hybrid beats greedy on every input it
    did not train on, while larger seed budgets crowd out the literal
    burning that greedy's profile-driven refinement spends rules on.
    """

    def __init__(self, name: str, **params) -> None:
        knobs = _KNOBS.get(name)
        if knobs is None:
            raise ValueError(f"unknown trainer {name!r} "
                             f"(known: {', '.join(TRAINERS)})")
        unknown = sorted(set(params) - set(knobs))
        if unknown:
            raise ValueError(f"trainer {name!r} takes no knob "
                             f"{', '.join(unknown)} "
                             f"(knobs: {', '.join(knobs) or 'none'})")
        self.name = name
        self._params = {**knobs, **params}

    def params(self) -> Dict[str, object]:
        """The trainer's own knobs, for provenance."""
        return dict(self._params)

    def train(self, grammar: Grammar, forest: Forest, *,
              min_count: int = 2,
              remove_subsumed: bool = True,
              max_iterations: Optional[int] = None,
              index_mode: str = "incremental",
              collect_stats: bool = False) -> TrainingReport:
        """Seed (``hybrid`` only), then run the greedy loop; mutates
        ``grammar`` and ``forest`` and returns one merged report.

        ``initial_size`` is always the *pre-seed* derivation length and
        ``rules_added``/``contractions`` include both phases, so
        ``size_ratio`` means the same thing for both trainers.
        """
        seeded = None
        if self.name == "hybrid":
            pre_size = sum(1 for _ in forest.nodes())
            seed_start = time.perf_counter()
            seeded = repair_seed(grammar, forest, min_count=min_count,
                                 **self._params)
            seed_seconds = time.perf_counter() - seed_start
        report = expand_grammar(
            grammar, forest,
            min_count=min_count,
            remove_subsumed=remove_subsumed,
            max_iterations=max_iterations,
            index_mode=index_mode,
            collect_stats=collect_stats,
        )
        report.strategy = self.name
        report.strategy_params = self.params()
        if seeded is not None:
            report.seed_rules = seeded.rules_added
            report.seed_rounds = seeded.rounds
            report.seed_contractions = seeded.contractions
            report.seed_seconds = seed_seconds
            report.rules_added += seeded.rules_added
            report.contractions += seeded.contractions
            report.initial_size = pre_size
            if isinstance(report, TrainingStats):
                report.seed_round_seconds = list(seeded.round_seconds)
        return report


#: the name callers outside the package use for ``Trainer(name, **params)``
resolve_strategy = Trainer
