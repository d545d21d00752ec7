"""The program compressor (paper Sections 2 and 4.1).

For each procedure: parse its code into per-block parse trees (restarting
at every ``LABELV``), find the shortest derivation of each block under the
expanded grammar, emit one byte per derivation step, and rewrite the label
table so every label maps to the compressed offset of its block — the
label *indices* inside the code are untouched (Section 3).

Two derivation-search engines are available:

* ``engine="tiling"`` (default): exact minimum tiling of the original
  parse tree (:class:`repro.compress.tiling.Tiler`) — fast.
* ``engine="earley"``: the paper's modified shortest-derivation Earley
  parser — slow, kept as the reference; both give equal-length
  derivations (tested).
"""

from __future__ import annotations

from typing import Dict, List

from ..bytecode.module import Module, Procedure
from ..bytecode.opcodes import opcode
from ..grammar.cfg import Grammar
from ..parsing.derivation import (
    DerivationCache,
    derivation_of_tree,
    encode_tree,
)
from ..parsing.earley import shortest_derivation_tree
from ..parsing.forest import terminal_yield
from ..parsing.stackparser import parse_blocks
from .container import CompressedModule, CompressedProcedure
from .tiling import Tiler

__all__ = ["Compressor", "compress_module"]

_LABELV = opcode("LABELV")


class Compressor:
    """Compresses programs against one trained grammar.

    ``cache_size`` bounds the shortest-derivation memo
    (:class:`~repro.parsing.derivation.DerivationCache`): repeated basic
    blocks — identical parse under the original rules, same start
    nonterminal — reuse the previously computed derivation bytes instead
    of re-running the tiling/Earley search.  Pass ``cache_size=0`` to
    disable (every block is derived from scratch; output is identical
    either way, which the property tests check).  The service keeps one
    compressor per grammar, so its cache stays warm across request
    batches.

    Compression is container-independent: a :class:`CompressedModule`
    is the in-memory form that :func:`repro.storage.save_compressed`
    writes as RCX1 or RCX2.
    """

    def __init__(self, grammar: Grammar, engine: str = "tiling", *,
                 cache_size: int = 4096) -> None:
        if engine not in ("tiling", "earley"):
            raise ValueError(f"unknown engine {engine!r}")
        self.grammar = grammar
        self.engine = engine
        self._tiler = Tiler(grammar) if engine == "tiling" else None
        self.cache = DerivationCache(cache_size) if cache_size else None

    # -- block level ----------------------------------------------------------
    def compress_block_tree(self, tree) -> bytes:
        """Shortest-derivation bytes for one block's original parse tree."""
        key = None
        if self.cache is not None:
            # A block's shortest derivation depends only on the nonterminal
            # it derives from and its parse under the original rules.
            key = (self.grammar.start, tuple(derivation_of_tree(tree)))
            data = self.cache.get(key)
            if data is not None:
                return data
        if self.engine == "tiling":
            expanded = self._tiler.tile(tree)
        else:
            symbols = terminal_yield(tree, self.grammar)
            expanded = shortest_derivation_tree(self.grammar, symbols)
        data = encode_tree(self.grammar, expanded)
        if key is not None:
            self.cache.put(key, data)
        return data

    def cache_info(self) -> str:
        """Shortest-derivation cache statistics, for reports and the CLI."""
        if self.cache is None:
            return "disabled"
        return self.cache.info()

    def cache_stats(self) -> Dict[str, float]:
        """Cache counters as a dict — what the service's ``stats``
        endpoint exports per grammar."""
        if self.cache is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "hit_rate": self.cache.hit_rate,
            "entries": len(self.cache),
        }

    # -- procedure level ------------------------------------------------------
    def compress_procedure(self, proc: Procedure) -> CompressedProcedure:
        blocks = parse_blocks(self.grammar, proc.code)
        out = bytearray()
        new_offset: Dict[int, int] = {}  # original block start -> compressed
        block_starts: List[int] = []
        for block in blocks:
            new_offset[block.start] = len(out)
            block_starts.append(len(out))
            out.extend(self.compress_block_tree(block.tree))

        labels: List[int] = []
        for label_off in proc.labels:
            if label_off >= len(proc.code) or proc.code[label_off] != _LABELV:
                raise ValueError(
                    f"{proc.name}: label offset {label_off} does not point "
                    f"at a LABELV"
                )
            labels.append(new_offset[label_off + 1])
        return CompressedProcedure(
            name=proc.name,
            code=bytes(out),
            labels=labels,
            framesize=proc.framesize,
            needs_trampoline=proc.needs_trampoline,
            argsize=proc.argsize,
            block_starts=block_starts,
        )

    # -- module level -----------------------------------------------------------
    def compress_module(self, module: Module) -> CompressedModule:
        cmod = CompressedModule.like(self.grammar, module)
        for proc in module.procedures:
            cmod.procedures.append(self.compress_procedure(proc))
        return cmod


def compress_module(grammar: Grammar, module: Module,
                    engine: str = "tiling") -> CompressedModule:
    """One-shot convenience wrapper."""
    return Compressor(grammar, engine).compress_module(module)
