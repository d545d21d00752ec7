"""Experiment harness: one helper per paper table/figure (see DESIGN.md)."""

from .harness import (
    INPUT_ORDER,
    PAPER_INTERP_SIZES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    TrainerCompareRow,
    ablation_cap_rows,
    ablation_grammar_rows,
    baseline_rows,
    compressed_code_bytes,
    corpus,
    gzip_rows,
    interpreter_size_row,
    overhead_rows,
    table1_rows,
    table2_rows,
    trained,
    trainer_compare_rows,
    training_speed_rows,
)
from .report import pct, render_table

__all__ = [
    "INPUT_ORDER", "PAPER_INTERP_SIZES", "PAPER_TABLE1", "PAPER_TABLE2",
    "TrainerCompareRow",
    "ablation_cap_rows", "ablation_grammar_rows", "baseline_rows",
    "compressed_code_bytes", "corpus", "gzip_rows",
    "interpreter_size_row", "overhead_rows", "table1_rows", "table2_rows",
    "trained", "trainer_compare_rows", "training_speed_rows",
    "pct", "render_table",
]
