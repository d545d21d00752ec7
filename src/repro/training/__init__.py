"""Grammar training: edge counting, inlining, pluggable trainer
strategies (greedy edge contraction, MR-RePair maximal-repeat seeding,
and the hybrid of the two)."""

from .edges import (
    EdgeIndex,
    EdgeKey,
    NaiveEdgeIndex,
    count_edges,
    count_edges_naive,
)
from .inline import contract_occurrence, inline_rule
from .expander import TrainingReport, TrainingStats, expand_grammar
from .strategy import (
    STRATEGIES,
    SeedReport,
    TrainerStrategy,
    register_strategy,
    resolve_strategy,
)
from .greedy import GreedyStrategy
from .repair import HybridStrategy, repair_seed

__all__ = [
    "EdgeIndex", "EdgeKey", "NaiveEdgeIndex",
    "count_edges", "count_edges_naive",
    "contract_occurrence", "inline_rule",
    "TrainingReport", "TrainingStats", "expand_grammar",
    "STRATEGIES", "SeedReport", "TrainerStrategy",
    "register_strategy", "resolve_strategy",
    "GreedyStrategy", "HybridStrategy", "repair_seed",
]
