"""Grammar training: edge counting, inlining, and the two trainers
(the paper's greedy edge contraction, and MR-RePair maximal-repeat
seeding followed by it)."""

from .edges import (
    EdgeIndex,
    EdgeKey,
    NaiveEdgeIndex,
    count_edges,
    count_edges_naive,
)
from .inline import contract_occurrence, inline_rule
from .expander import TrainingReport, TrainingStats, expand_grammar
from .repair import SeedReport, repair_seed
from .strategy import TRAINERS, Trainer, resolve_strategy

__all__ = [
    "EdgeIndex", "EdgeKey", "NaiveEdgeIndex",
    "count_edges", "count_edges_naive",
    "contract_occurrence", "inline_rule",
    "TrainingReport", "TrainingStats", "expand_grammar",
    "SeedReport", "repair_seed",
    "TRAINERS", "Trainer", "resolve_strategy",
]
