"""Program packaging: procedures, label tables, global table (paper Section 3,
Appendix 3).

Each procedure has a *descriptor* recording its bytecode, a table of branch
target offsets, and its frame size.  Branch instructions in the bytecode hold
*label-table indices*, never raw offsets, so the compressor can rewrite the
code freely and only has to rewrite the label table (Section 3).

Global addresses likewise go through a single module-wide table: ``ADDRGP``
carries an index into the global table, whose entries are filled in by the
loader (our :mod:`repro.interp.runtime`) with the address of a data symbol,
the trampoline address of a bytecoded procedure, or the address of a library
intrinsic.

Size accounting mirrors the paper's executable-size table (Section 6):

* label tables are arrays of ``short`` (2 bytes/entry),
* descriptors are three words (12 bytes) each,
* the global table is an array of pointers (4 bytes/entry),
* trampolines are small fixed-size native stubs (:data:`TRAMPOLINE_BYTES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .instructions import iter_decode

__all__ = [
    "GlobalEntry",
    "Procedure",
    "Module",
    "LABEL_ENTRY_BYTES",
    "DESCRIPTOR_BYTES",
    "GLOBAL_ENTRY_BYTES",
    "TRAMPOLINE_BYTES",
]

#: bytes per label-table entry (``static short _f_labels[]``)
LABEL_ENTRY_BYTES = 2
#: bytes per procedure descriptor (framesize word + two pointers)
DESCRIPTOR_BYTES = 12
#: bytes per global-table entry (``void *_globals[]``)
GLOBAL_ENTRY_BYTES = 4
#: bytes for one C-callable trampoline stub (push-args/call/ret sequence)
TRAMPOLINE_BYTES = 18


@dataclass
class GlobalEntry:
    """One slot of the module-wide global table.

    kind:
        ``"data"``  - a data symbol; ``value`` is its offset in the module's
        data segment.
        ``"proc"``  - a bytecoded procedure; ``value`` is its descriptor
        index.  The loader fills the slot with the trampoline address.
        ``"lib"``   - a library intrinsic (e.g. ``putchar``); resolved by
        name by the runtime.
    """

    kind: str
    name: str
    value: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("data", "proc", "lib"):
            raise ValueError(f"bad global entry kind {self.kind!r}")


@dataclass
class Procedure:
    """A bytecoded procedure and its descriptor contents."""

    name: str
    code: bytes
    labels: List[int] = field(default_factory=list)
    framesize: int = 0
    needs_trampoline: bool = False
    #: bytes of incoming formals (the trampoline's knowledge of the
    #: signature; packed into the descriptor word alongside framesize)
    argsize: int = 0

    def instructions(self):
        """Decode this procedure's code stream."""
        return list(iter_decode(self.code))

    @property
    def code_bytes(self) -> int:
        return len(self.code)

    @property
    def label_table_bytes(self) -> int:
        return LABEL_ENTRY_BYTES * len(self.labels)


@dataclass
class Module:
    """A complete bytecoded program (the unit the compressor works on)."""

    procedures: List[Procedure] = field(default_factory=list)
    globals: List[GlobalEntry] = field(default_factory=list)
    data: bytes = b""
    bss_size: int = 0
    entry: Optional[int] = None  # procedure index of main

    # -- lookup ----------------------------------------------------------
    def proc_index(self, name: str) -> int:
        for i, p in enumerate(self.procedures):
            if p.name == name:
                return i
        raise KeyError(name)

    def global_index(self, name: str) -> int:
        for i, g in enumerate(self.globals):
            if g.name == name:
                return i
        raise KeyError(name)

    def proc_by_name(self, name: str) -> Procedure:
        return self.procedures[self.proc_index(name)]

    # -- size accounting (paper Section 6) -------------------------------
    @property
    def code_bytes(self) -> int:
        """Total bytecode bytes across all procedures."""
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

    @property
    def data_bytes(self) -> int:
        return len(self.data)

    def size_breakdown(self) -> Dict[str, int]:
        """Byte counts of every component the paper's Table 2 includes."""
        return {
            "bytecode": self.code_bytes,
            "label_tables": self.label_table_bytes,
            "descriptors": self.descriptor_bytes,
            "global_table": self.global_table_bytes,
            "trampolines": self.trampoline_bytes,
            "data": self.data_bytes,
            "bss": self.bss_size,
        }

    def concatenated_code(self) -> bytes:
        """All procedures' bytecode, concatenated (the compressor's input)."""
        return b"".join(p.code for p in self.procedures)
