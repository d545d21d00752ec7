"""Shared machinery for the evaluation benchmarks (paper Section 6).

Everything here is deterministic and cached per process: the corpus
compiles once, each distinct training configuration trains once, and the
benchmarks (one per table/figure, see DESIGN.md's experiment index) pull
rows out of these helpers and print them in the paper's layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from ..baselines.gzipref import gzip_size, gzip_size_per_block, split_blocks
from ..baselines.huffman import compressed_size as huffman_size
from ..baselines.superop import train_superoperators
from ..baselines.tunstall import build_code as build_tunstall
from ..baselines.tunstall import compressed_size_blocks
from ..bytecode.module import Module
from ..coding.model import attach_counts
from ..compress.compressor import Compressor
from ..corpus import GCCLIKE_SCALE, compiled_corpus
from ..grammar.cfg import Grammar
from ..grammar.initial import height_grammar, initial_grammar, typed_grammar
from ..grammar.serialize import grammar_bytes
from ..interp.sizes import InterpreterSizes, measure_sizes
from ..native.x86 import module_native_size
from ..parsing.stackparser import build_forest
from ..training import TRAINERS
from ..training.expander import (
    TrainingReport,
    TrainingStats,
    expand_grammar,
)

__all__ = [
    "INPUT_ORDER", "corpus", "trained", "compressed_code_bytes",
    "table1_rows", "table2_rows", "interpreter_size_row",
    "gzip_rows", "baseline_rows", "overhead_rows",
    "ablation_cap_rows", "ablation_grammar_rows",
    "training_stats", "training_speed_rows",
    "TrainerCompareRow", "trainer_compare_rows",
    "PAPER_TABLE1", "PAPER_TABLE2", "PAPER_INTERP_SIZES",
]

#: the paper's table order
INPUT_ORDER = ("gcc", "lcc", "gzip", "8q")

#: Section-6 reference numbers (original bytes; ratio trained-on-gcc,
#: trained-on-lcc) for EXPERIMENTS.md comparisons.
PAPER_TABLE1 = {
    "gcc": (1_423_370, 0.41, 0.33),
    "lcc": (199_497, 0.29, 0.38),
    "gzip": (47_066, 0.42, 0.41),
    "8q": (436, 0.35, 0.32),
}
PAPER_TABLE2 = {
    "uncompressed": 292_039,
    "compressed": 161_386,
    "native": 240_522,
}
PAPER_INTERP_SIZES = {"interp1": 7_855, "interp2": 18_962,
                      "grammar": 10_525}


def corpus(scale: int = GCCLIKE_SCALE) -> Dict[str, Module]:
    return compiled_corpus(scale)


@lru_cache(maxsize=32)
def trained(train_on: Tuple[str, ...], *, scale: int = GCCLIKE_SCALE,
            cap: int = 256, typed: bool = False, min_count: int = 2,
            remove_subsumed: bool = True,
            superop: Optional[bool] = None,
            ) -> Tuple[Grammar, TrainingReport]:
    """Train one grammar configuration (cached)."""
    modules = [corpus(scale)[name] for name in train_on]
    if superop:
        return train_superoperators(modules, max_rules_per_nt=cap,
                                    min_count=min_count)
    if typed == "height":
        grammar = height_grammar(max_rules_per_nt=cap)
    elif typed:
        grammar = typed_grammar(cap)
    else:
        grammar = initial_grammar(cap)
    forest = build_forest(grammar, modules)
    report = expand_grammar(grammar, forest, min_count=min_count,
                            remove_subsumed=remove_subsumed)
    attach_counts(grammar, forest, modules)
    return grammar, report


@lru_cache(maxsize=128)
def compressed_code_bytes(input_name: str, train_on: Tuple[str, ...],
                          *, scale: int = GCCLIKE_SCALE, cap: int = 256,
                          typed: bool = False,
                          superop: Optional[bool] = None) -> int:
    grammar, _ = trained(train_on, scale=scale, cap=cap, typed=typed,
                         superop=superop)
    module = corpus(scale)[input_name]
    return Compressor(grammar).compress_module(module).code_bytes


# -- E1: the compression table ------------------------------------------------

@dataclass
class Table1Row:
    input: str
    original: int
    gcc_bytes: int
    gcc_ratio: float
    lcc_bytes: int
    lcc_ratio: float


def table1_rows(scale: int = GCCLIKE_SCALE) -> List[Table1Row]:
    rows = []
    for name in INPUT_ORDER:
        original = corpus(scale)[name].code_bytes
        on_gcc = compressed_code_bytes(name, ("gcc",), scale=scale)
        on_lcc = compressed_code_bytes(name, ("lcc",), scale=scale)
        rows.append(Table1Row(name, original, on_gcc, on_gcc / original,
                              on_lcc, on_lcc / original))
    return rows


# -- E2: interpreter sizes -----------------------------------------------------

def interpreter_size_row(scale: int = GCCLIKE_SCALE) -> InterpreterSizes:
    grammar, _ = trained(("lcc",), scale=scale)
    return measure_sizes(grammar)


# -- E3: whole-executable comparison -------------------------------------------

@dataclass
class Table2Row:
    representation: str
    bytes: int
    breakdown: Dict[str, int]


def table2_rows(program: str = "lcc",
                scale: int = GCCLIKE_SCALE) -> List[Table2Row]:
    module = corpus(scale)[program]
    grammar, _ = trained((program,), scale=scale)
    sizes = measure_sizes(grammar)
    cmod = Compressor(grammar).compress_module(module)

    unc = dict(module.size_breakdown())
    unc["interpreter"] = sizes.interp1
    comp = dict(cmod.size_breakdown())
    comp["interpreter"] = sizes.interp2  # includes the grammar tables
    native = module_native_size(module)
    nat = {"code": native.code, "data": native.data, "bss": native.bss}

    return [
        Table2Row("uncompressed bytecode", sum(unc.values()), unc),
        Table2Row("compressed bytecode", sum(comp.values()), comp),
        Table2Row("native x86 executable", native.total, nat),
    ]


# -- E4: gzip calibration -------------------------------------------------------

@dataclass
class GzipRow:
    input: str
    original: int
    gzip_bytes: int
    gzip_ratio: float
    gzip_blocked: int
    ours_bytes: int
    ours_ratio: float


def gzip_rows(scale: int = GCCLIKE_SCALE) -> List[GzipRow]:
    rows = []
    for name in INPUT_ORDER:
        module = corpus(scale)[name]
        ours = compressed_code_bytes(name, ("gcc",), scale=scale)
        rows.append(GzipRow(
            name, module.code_bytes,
            gzip_size(module), gzip_size(module) / module.code_bytes,
            gzip_size_per_block(module),
            ours, ours / module.code_bytes,
        ))
    return rows


# -- A3: method comparison ------------------------------------------------------

@dataclass
class BaselineRow:
    input: str
    original: int
    grammar_m: int       # this paper's method
    superop: int         # Proebsting-style, with literals
    superop_nolit: int   # original 1995 restriction
    huffman: int
    tunstall: int
    gzip: int


def baseline_rows(scale: int = GCCLIKE_SCALE,
                  train_on: Tuple[str, ...] = ("gcc",)) -> List[BaselineRow]:
    rows = []
    tgrammar, _ = trained(train_on, scale=scale)
    so, _ = trained(train_on, scale=scale, superop=True)
    so_nolit, _ = _superop_nolit(train_on, scale)
    train_blocks = [
        b for name in train_on
        for p in corpus(scale)[name].procedures
        for b in split_blocks(p.code)
    ]
    tunstall = build_tunstall(train_blocks, 8)
    for name in INPUT_ORDER:
        module = corpus(scale)[name]
        blocks = [b for p in module.procedures
                  for b in split_blocks(p.code)]
        rows.append(BaselineRow(
            name, module.code_bytes,
            Compressor(tgrammar).compress_module(module).code_bytes,
            Compressor(so).compress_module(module).code_bytes,
            Compressor(so_nolit).compress_module(module).code_bytes,
            huffman_size(module.concatenated_code()),
            compressed_size_blocks(tunstall, blocks),
            gzip_size(module),
        ))
    return rows


@lru_cache(maxsize=4)
def _superop_nolit(train_on: Tuple[str, ...], scale: int):
    modules = [corpus(scale)[name] for name in train_on]
    return train_superoperators(modules, allow_literals=False)


# -- E5: overhead accounting -----------------------------------------------------

@dataclass
class OverheadRow:
    component: str
    bytes: int
    note: str


def overhead_rows(program: str = "lcc",
                  scale: int = GCCLIKE_SCALE) -> List[OverheadRow]:
    """Section 6's 'further compression' notes, measured."""
    module = corpus(scale)[program]
    grammar, _ = trained((program,), scale=scale)
    plain = grammar_bytes(grammar, compact=False)
    compact = grammar_bytes(grammar, compact=True)
    return [
        OverheadRow("label tables", module.label_table_bytes,
                    "out-of-line branch offsets (2 B/entry)"),
        OverheadRow("global table", module.global_table_bytes,
                    "out-of-line global addresses (4 B/entry)"),
        OverheadRow("trampolines", module.trampoline_bytes,
                    "C-callable stubs for address-taken procedures"),
        OverheadRow("descriptors", module.descriptor_bytes,
                    "framesize + code/label pointers per procedure"),
        OverheadRow("grammar (plain)", plain,
                    "current sub-optimal storage"),
        OverheadRow("grammar (recoded)", compact,
                    f"straightforward recoding saves {plain - compact} B"),
    ]


# -- S2: training speed (incremental index vs naive recount oracle) ------------

@dataclass
class TrainingSpeedRow:
    corpus_bytes: int
    forest_nodes: int
    iterations: int
    naive_seconds: float
    incremental_seconds: float
    speedup: float
    heap_peak: int
    heap_hit_rate: float
    identical: bool  # naive and incremental grammars byte-identical


def training_stats(train_on: Tuple[str, ...], *,
                   scale: int = GCCLIKE_SCALE,
                   index_mode: str = "incremental",
                   ) -> Tuple[Grammar, TrainingStats]:
    """Train one configuration with full instrumentation (uncached: stats
    are timings, and timings should be fresh)."""
    from ..pipeline import train_grammar

    modules = [corpus(scale)[name] for name in train_on]
    return train_grammar(modules, index_mode=index_mode,
                         collect_stats=True)


def training_speed_rows(sizes: Tuple[int, ...] = (18, 54, 120),
                        seed: int = 77) -> List[TrainingSpeedRow]:
    """Time naive-recount vs incremental training on synthetic corpora of
    increasing size, verifying the two grammars agree rule for rule."""
    import time

    from ..corpus.synth import generate_program
    from ..minic import compile_source

    rows = []
    for count in sizes:
        module = compile_source(generate_program(count, seed=seed))

        results = {}
        for mode in ("naive", "incremental"):
            grammar = initial_grammar()
            forest = build_forest(grammar, [module])
            nodes = sum(1 for _ in forest.nodes())
            start = time.perf_counter()
            report = expand_grammar(grammar, forest, index_mode=mode,
                                    collect_stats=True)
            seconds = time.perf_counter() - start
            signature = [(r.lhs, r.rhs, r.origin) for r in grammar]
            results[mode] = (seconds, report, signature, nodes)

        naive_s, _, naive_sig, nodes = results["naive"]
        inc_s, inc_report, inc_sig, _ = results["incremental"]
        rows.append(TrainingSpeedRow(
            corpus_bytes=module.code_bytes,
            forest_nodes=nodes,
            iterations=inc_report.iterations,
            naive_seconds=naive_s,
            incremental_seconds=inc_s,
            speedup=naive_s / inc_s if inc_s else float("inf"),
            heap_peak=inc_report.heap_peak,
            heap_hit_rate=inc_report.heap_hit_rate,
            identical=naive_sig == inc_sig,
        ))
    return rows


# -- S4: trainer comparison (greedy vs hybrid) --------------------------------

@dataclass
class TrainerCompareRow:
    strategy: str
    rules: int
    seed_rules: int
    grammar_bytes: int
    train_seconds: float
    seed_seconds: float
    refine_seconds: float
    ratios: Dict[str, float]  # input name -> compressed/original


def trainer_compare_rows(train_on: Tuple[str, ...] = ("gcc",), *,
                         scale: int = GCCLIKE_SCALE,
                         strategies: Tuple[str, ...] = TRAINERS,
                         ) -> List[TrainerCompareRow]:
    """Train each trainer on the same corpus and compress every input.

    Uncached on purpose: the wall-time columns gate the hybrid
    trainer's <= 1.5x-of-greedy budget, and timings should be fresh.
    """
    from ..pipeline import train_grammar

    modules = [corpus(scale)[name] for name in train_on]
    rows = []
    for strategy in strategies:
        grammar, report = train_grammar(modules, strategy=strategy)
        ratios = {}
        for name in INPUT_ORDER:
            module = corpus(scale)[name]
            size = Compressor(grammar).compress_module(module).code_bytes
            ratios[name] = size / module.code_bytes
        rows.append(TrainerCompareRow(
            strategy=strategy,
            rules=grammar.total_rules(),
            seed_rules=report.seed_rules,
            grammar_bytes=grammar_bytes(grammar, compact=True),
            train_seconds=report.wall_seconds,
            seed_seconds=report.seed_seconds,
            refine_seconds=report.refine_seconds,
            ratios=ratios,
        ))
    return rows


# -- A1/A2: ablations --------------------------------------------------------------

@dataclass
class AblationRow:
    label: str
    compressed: int
    ratio: float
    rules: int
    grammar_bytes: int


def ablation_cap_rows(program: str = "lcc", scale: int = GCCLIKE_SCALE,
                      caps: Tuple[int, ...] = (32, 64, 128, 256),
                      ) -> List[AblationRow]:
    module = corpus(scale)[program]
    rows = []
    for cap in caps:
        grammar, _ = trained((program,), scale=scale, cap=cap)
        size = Compressor(grammar).compress_module(module).code_bytes
        rows.append(AblationRow(
            f"cap={cap}", size, size / module.code_bytes,
            grammar.total_rules(), grammar_bytes(grammar, compact=True),
        ))
    return rows


def ablation_grammar_rows(program: str = "lcc",
                          scale: int = GCCLIKE_SCALE) -> List[AblationRow]:
    """Stack-height grammar vs the type-tracking variant (Section 6 note),
    plus subsumption removal on/off."""
    module = corpus(scale)[program]
    rows = []
    for label, kwargs in (
        ("stack-height", {}),
        ("type-tracking", {"typed": True}),
        ("depth-tracking", {"typed": "height"}),
        ("no-subsumption-removal", {"remove_subsumed": False}),
        ("min_count=4", {"min_count": 4}),
    ):
        grammar, _ = trained((program,), scale=scale, **kwargs)
        size = Compressor(grammar).compress_module(module).code_bytes
        rows.append(AblationRow(
            label, size, size / module.code_bytes,
            grammar.total_rules(), grammar_bytes(grammar, compact=True),
        ))
    return rows
