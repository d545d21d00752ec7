"""High-level pipeline: the one-stop public API (Figure 1 of the paper).

    train_grammar(corpus)            # training phase: expanded grammar
    compress_module(grammar, prog)   # compression phase: derivation bytes
    run / run_compressed             # the two interpreters

Example::

    from repro import compile_source, train_grammar, compress_module
    from repro import run, run_compressed

    training = [compile_source(src) for src in corpus_sources]
    grammar, report = train_grammar(training)
    program = compile_source(app_source)
    compressed = compress_module(grammar, program)
    assert run(program) == run_compressed(compressed)
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Tuple

from .bytecode.module import Module
from .coding.model import attach_counts
from .compress.compressor import Compressor
from .compress.container import CompressedModule
from .grammar.cfg import Grammar
from .grammar.initial import initial_grammar
from .interp.compiled import CompiledEngine
from .interp.interp1 import Interpreter1
from .interp.interp2 import Interpreter2
from .interp.runtime import run_program
from .parsing.stackparser import build_forest
from .training import resolve_strategy
from .training.expander import TrainingReport

__all__ = [
    "train_grammar", "compress_module", "run", "run_compressed",
    "compression_ratio",
]


def train_grammar(corpus: Iterable[Module], *,
                  grammar: Optional[Grammar] = None,
                  max_rules_per_nt: int = 256,
                  min_count: int = 2,
                  remove_subsumed: bool = True,
                  max_iterations: Optional[int] = None,
                  parser_workers: Optional[int] = None,
                  index_mode: str = "incremental",
                  collect_stats: bool = False,
                  strategy="greedy",
                  strategy_params: Optional[dict] = None,
                  ) -> Tuple[Grammar, TrainingReport]:
    """The training phase (paper Sections 2 and 4.1).

    Parses the corpus with the initial grammar and expands it with the
    selected trainer strategy.  Returns the expanded grammar and a
    :class:`TrainingReport` carrying the strategy's identity and knobs
    (persisted as provenance by the registry).

    ``strategy`` names a :class:`~repro.training.TrainerStrategy`
    (``"greedy"`` — the paper's profiled edge-contraction loop,
    ``"hybrid"`` — MR-RePair maximal-repeat seeding then greedy
    refinement) or is a strategy class/instance; ``strategy_params``
    are its constructor knobs (e.g. ``{"budget_frac": 0.25}`` for
    ``hybrid``).

    ``parser_workers`` > 1 parses the corpus's procedures on a thread
    pool with a deterministic, corpus-order merge — the trained grammar
    is identical for every worker count.  ``index_mode="naive"`` swaps
    the incremental edge index for the full-recount oracle (same result,
    much slower; for verification and benchmarking).  ``collect_stats``
    returns a :class:`~repro.training.expander.TrainingStats` with
    per-phase (parse/seed/refine) timings, per-iteration wall times,
    and heap behaviour.

    The trained grammar also carries its rule-frequency model counts
    (``grammar.coding_counts``, recounted from the post-training
    forest) — the estimation side of the RCX2 entropy coder; they are
    persisted by ``save_grammar`` and the registry.
    """
    strat = resolve_strategy(strategy, **(strategy_params or {}))
    if grammar is None:
        grammar = initial_grammar(max_rules_per_nt=max_rules_per_nt)
    corpus = list(corpus)
    parse_start = time.perf_counter()
    forest = build_forest(grammar, corpus, workers=parser_workers)
    parse_seconds = time.perf_counter() - parse_start
    report = strat.train(
        grammar, forest,
        min_count=min_count,
        remove_subsumed=remove_subsumed,
        max_iterations=max_iterations,
        index_mode=index_mode,
        collect_stats=collect_stats,
    )
    attach_counts(grammar, forest, corpus)
    report.wall_seconds = time.perf_counter() - parse_start
    if collect_stats:
        report.parse_seconds = parse_seconds
        report.parser_workers = parser_workers or 1
    return grammar, report


def compress_module(grammar: Grammar, module: Module,
                    engine: str = "tiling") -> CompressedModule:
    """The compression phase: shortest derivations, one byte per step."""
    return Compressor(grammar, engine).compress_module(module)


def run(module: Module, *args: int,
        input_data: bytes = b"") -> Tuple[int, bytes]:
    """Run uncompressed bytecode on the initial interpreter."""
    return run_program(module, Interpreter1(module), *args,
                       input_data=input_data)


def run_compressed(cmodule: CompressedModule, *args: int,
                   input_data: bytes = b"",
                   engine: str = "compiled") -> Tuple[int, bytes]:
    """Run compressed bytecode on the generated interpreter.

    ``engine`` selects the executor: ``"compiled"`` (default) is the
    precompiled direct-threaded engine, ``"reference"`` the recursive
    transliteration of the paper's ``interpNT`` — behaviourally
    identical, kept as the testing oracle — and ``"native"`` the
    machine-code engine compiled from the generated C (raises
    :class:`~repro.interp.nativebuild.NativeBuildError` when no C
    compiler is available; see :mod:`repro.interp.native`).
    """
    if engine == "compiled":
        executor = CompiledEngine(cmodule)
    elif engine == "reference":
        executor = Interpreter2(cmodule)
    elif engine == "native":
        from .interp.native import run_native
        return run_native(cmodule, *args, input_data=input_data)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return run_program(cmodule, executor, *args, input_data=input_data)


def compression_ratio(grammar: Grammar, module: Module) -> float:
    """compressed code bytes / original code bytes (paper Section 6)."""
    compressed = compress_module(grammar, module)
    return compressed.code_bytes / module.code_bytes
