"""Compressed program containers (paper Sections 3 and 6).

A compressed procedure keeps the descriptor structure of the original —
code vector, label table, frame size — but its code vector now holds
derivation bytes and its label table holds offsets *into the compressed
stream* (the compressor rewrites the table; the indices embedded in the
code never change, Section 3).  Globals, data and trampolines are shared
with the original module unchanged.

Two serialized container formats carry a :class:`CompressedModule`
(both in :mod:`repro.storage`):

* **RCX1** — the paper's form: one byte per derivation step, labels as
  byte offsets into the compressed stream.  The interpreters execute
  this form directly.
* **RCX2** — the entropy-coded form (see docs/CODING.md): a versioned
  header (:data:`RCX2_MAGIC`, :data:`RCX2_VERSION`), the grammar *and*
  its :class:`~repro.coding.model.RuleModel`, per-procedure metadata
  with labels as **block indices** (byte offsets are meaningless in an
  entropy-coded stream), one range-coded stream for the whole module, a
  CRC-32 of the decoded RCX1 payload, and the standard CRC-32 file
  trailer.  Loading RCX2 reconstructs the exact RCX1 in-memory form, so
  the engines never know which container a module arrived in.

Structural violations in an RCX2 file — version skew, a model bound to
a different grammar, label/block indices out of range, payload CRC
mismatch — raise :class:`ContainerError`; coder-level corruption raises
:class:`~repro.parsing.derivation.DerivationError` from the coding
layer.  Both are ``ValueError``s, so callers that guard the RCX1 paths
stay correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..bytecode.module import (
    DESCRIPTOR_BYTES,
    GLOBAL_ENTRY_BYTES,
    LABEL_ENTRY_BYTES,
    TRAMPOLINE_BYTES,
    GlobalEntry,
    Module,
)
from ..coding.model import RuleModel
from ..grammar.cfg import Grammar

__all__ = [
    "CompressedProcedure", "CompressedModule", "ContainerError",
    "CONTAINER_FORMATS", "RCX2_MAGIC", "RCX2_VERSION",
]

#: the serialized container formats a CompressedModule round-trips
#: through (``repro.storage.save_compressed(format=...)``)
CONTAINER_FORMATS = ("rcx1", "rcx2")

RCX2_MAGIC = b"RCX2"
RCX2_VERSION = 1


class ContainerError(ValueError):
    """A structurally invalid RCX2 container: version skew, a model
    bound to a different grammar, out-of-range label/block indices, or
    a decoded-payload CRC mismatch."""


@dataclass
class CompressedProcedure:
    """Descriptor of one procedure in compressed form."""

    name: str
    code: bytes                      # concatenated block derivations
    labels: List[int]                # label index -> compressed offset
    framesize: int
    needs_trampoline: bool = False
    argsize: int = 0
    block_starts: List[int] = field(default_factory=list)

    @property
    def code_bytes(self) -> int:
        return len(self.code)

    @property
    def label_table_bytes(self) -> int:
        return LABEL_ENTRY_BYTES * len(self.labels)


@dataclass
class CompressedModule:
    """A whole program in compressed form, plus the grammar that decodes
    it (the grammar lives in the interpreter; it is counted there, not
    here — see :mod:`repro.interp.sizes`).

    ``model`` is the rule model an RCX2 container's stream was coded
    with, set by the RCX2 loader so the module re-saves as RCX2
    byte-identically; ``None`` means the grammar's own (trained) model.
    It takes no part in equality: RCX1 and RCX2 loads of one module
    compare equal.
    """

    grammar: Grammar
    procedures: List[CompressedProcedure] = field(default_factory=list)
    globals: List[GlobalEntry] = field(default_factory=list)
    data: bytes = b""
    bss_size: int = 0
    entry: int = None
    model: Optional[RuleModel] = field(default=None, compare=False)

    @classmethod
    def like(cls, grammar: Grammar, module: Module) -> "CompressedModule":
        """Container sharing the non-code parts of ``module``."""
        return cls(
            grammar=grammar,
            globals=list(module.globals),
            data=module.data,
            bss_size=module.bss_size,
            entry=module.entry,
        )

    def proc_index(self, name: str) -> int:
        for i, p in enumerate(self.procedures):
            if p.name == name:
                return i
        raise KeyError(name)

    def proc_by_name(self, name: str) -> CompressedProcedure:
        return self.procedures[self.proc_index(name)]

    # -- size accounting ----------------------------------------------------
    @property
    def code_bytes(self) -> int:
        return sum(p.code_bytes for p in self.procedures)

    @property
    def label_table_bytes(self) -> int:
        return sum(p.label_table_bytes for p in self.procedures)

    @property
    def descriptor_bytes(self) -> int:
        return DESCRIPTOR_BYTES * len(self.procedures)

    @property
    def global_table_bytes(self) -> int:
        return GLOBAL_ENTRY_BYTES * len(self.globals)

    @property
    def trampoline_bytes(self) -> int:
        return TRAMPOLINE_BYTES * sum(
            1 for p in self.procedures if p.needs_trampoline
        )

    def size_breakdown(self) -> Dict[str, int]:
        return {
            "bytecode": self.code_bytes,
            "label_tables": self.label_table_bytes,
            "descriptors": self.descriptor_bytes,
            "global_table": self.global_table_bytes,
            "trampolines": self.trampoline_bytes,
            "data": len(self.data),
            "bss": self.bss_size,
        }
