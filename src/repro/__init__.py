"""Bytecode compression via profiled grammar rewriting.

A full reproduction of Evans & Fraser (PLDI 2001): a stack-based bytecode
and interpreter in the style of lcc's, a mini-C compiler targeting it, the
profiled grammar expander, the shortest-derivation compressor, and the
generated interpreter for the compressed form — plus the baselines and
benchmarks that regenerate the paper's evaluation.

Quickstart::

    import repro

    training = [repro.compile_source(src) for src in corpus]
    grammar, report = repro.train_grammar(training)
    program = repro.compile_source(app_src)
    compressed = repro.compress_module(grammar, program)

    print(compressed.code_bytes / program.code_bytes)   # ~0.3-0.5
    assert repro.run(program) == repro.run_compressed(compressed)
"""

from .bytecode import (
    Module,
    Procedure,
    assemble,
    disassemble,
    validate_module,
)
from .compress import (
    CompressedModule,
    Compressor,
    decompress_module,
)
from .core import GrammarProgram, program_for
from .grammar import Grammar, initial_grammar, typed_grammar
from .interp import Interpreter1, Interpreter2, Machine, run_program
from .minic import compile_and_run, compile_source, compile_sources
from .pipeline import (
    compress_module,
    compression_ratio,
    run,
    run_compressed,
    train_grammar,
)
from .registry import GrammarRegistry, RegistryError, corpus_fingerprint
from .service import CompressionService, ServiceClient, ServiceError
from .training import TrainingReport, expand_grammar

__version__ = "1.1.0"

__all__ = [
    "Module", "Procedure", "assemble", "disassemble", "validate_module",
    "CompressedModule", "Compressor", "decompress_module",
    "GrammarProgram", "program_for",
    "Grammar", "initial_grammar", "typed_grammar",
    "Interpreter1", "Interpreter2", "Machine", "run_program",
    "compile_and_run", "compile_source", "compile_sources",
    "compress_module", "compression_ratio", "run", "run_compressed",
    "train_grammar",
    "TrainingReport", "expand_grammar",
    "GrammarRegistry", "RegistryError", "corpus_fingerprint",
    "CompressionService", "ServiceClient", "ServiceError",
    "__version__",
]
