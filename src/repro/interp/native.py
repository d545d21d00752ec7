"""The native execution engine: compressed bytecode on compiled C.

The paper's argument is that the compressed form is directly
*executable*; the generated interpreter should therefore run as fast as
the hardware allows, not as fast as CPython allows.  This module loads
the shared object built from :func:`repro.interp.cgen.emit_native` (via
the content-addressed cache in :mod:`repro.interp.nativebuild`) and
gives it the same observable contract as the Python engines: identical
exit codes, output bytes, ``instret``, final memory image, and the same
structured trap taxonomy — the C side reports a numeric trap code plus
two payload words, and :meth:`NativeEngine._map_trap` reconstructs the
exact exception class and message the reference engine would have
raised.  The four-engine differential suite holds it to that promise.

The request/result ABI is documented in ``docs/INTERPRETER.md``; the
structures below must match the C declarations in ``cgen.py`` field for
field.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .base import UnsupportedOpcode
from .cgen import NATIVE_PROC_WORDS, NATIVE_TRAP_CODES
from .memory import MemoryError_
from .nativebuild import NativeBuildCache, default_cache, find_compiler
from .runtime import DATA_BASE, MemoryLayout, resolve_globals
from .state import BudgetExceeded, Trap
from .tables import TableError, interp_tables

__all__ = [
    "NativeEngine",
    "NativeRun",
    "NativeExecutionError",
    "native_available",
    "run_native",
]

#: initial output-buffer size; doubled-and-rerun on overflow (runs are
#: deterministic, so a rerun with a bigger buffer is byte-identical).
_INITIAL_OUTPUT_CAP = 1 << 16
_MAX_OUTPUT_CAP = 1 << 28


class NativeExecutionError(Exception):
    """The engine violated its own invariants (e.g. the evaluation-stack
    guard fired).  Unreachable for validated modules; deliberately not a
    ``Trap`` so it is never mistaken for a program fault."""


def native_available() -> bool:
    """True when a C compiler is present (the engine can be built)."""
    return find_compiler() is not None


def _ubytes(data: bytes) -> ctypes.Array:
    """A C byte array holding ``data`` (never zero-length: ctypes pointers
    to empty arrays are still dereferenceable-size-zero on the C side)."""
    buf = (ctypes.c_ubyte * max(len(data), 1))()
    if data:
        ctypes.memmove(buf, data, len(data))
    return buf


class _RxnRequest(ctypes.Structure):
    _fields_ = [
        ("code", ctypes.POINTER(ctypes.c_ubyte)),
        ("procs", ctypes.POINTER(ctypes.c_uint32)),
        ("nprocs", ctypes.c_uint32),
        ("labels", ctypes.POINTER(ctypes.c_uint32)),
        ("global_addrs", ctypes.POINTER(ctypes.c_uint32)),
        ("nglobals", ctypes.c_uint32),
        ("entry", ctypes.c_uint32),
        ("args", ctypes.POINTER(ctypes.c_uint32)),
        ("nargs", ctypes.c_uint32),
        ("input", ctypes.POINTER(ctypes.c_ubyte)),
        ("input_len", ctypes.c_uint32),
        ("memory", ctypes.POINTER(ctypes.c_ubyte)),
        ("memory_size", ctypes.c_uint32),
        ("heap_base", ctypes.c_uint32),
        ("heap_limit", ctypes.c_uint32),
        ("arg_base", ctypes.c_uint32),
        ("frame_base", ctypes.c_uint32),
        ("output", ctypes.POINTER(ctypes.c_ubyte)),
        ("output_cap", ctypes.c_uint32),
        ("budget", ctypes.c_uint64),
    ]


class _RxnResult(ctypes.Structure):
    _fields_ = [
        ("status", ctypes.c_int32),
        ("exit_code", ctypes.c_int32),
        ("trap_code", ctypes.c_int32),
        ("trap_a", ctypes.c_uint32),
        ("trap_b", ctypes.c_uint32),
        ("output_len", ctypes.c_uint32),
        ("instret", ctypes.c_uint64),
        ("dispatches", ctypes.c_uint64),
    ]


@dataclass
class NativeRun:
    """Everything observable from one completed native run."""

    code: int
    output: bytes
    instret: int
    dispatches: int
    memory: bytes


class NativeEngine:
    """A compressed module bound to its grammar's compiled engine.

    Construction marshals the module once (code vectors, descriptors,
    label tables, resolved globals) and triggers the build if the cache
    has no object for the grammar; :meth:`run` is then allocation-light.
    Raises :class:`~repro.interp.nativebuild.NativeBuildError` (or its
    ``NativeUnavailableError`` subclass) when the engine cannot be built.
    """

    def __init__(self, cmodule,
                 cache: Optional[NativeBuildCache] = None) -> None:
        self.module = cmodule
        self.grammar = cmodule.grammar
        self._budget = 0
        self._engine = (cache or default_cache()).load(self.grammar)
        lib = self._engine.lib
        lib.rxn_run.argtypes = [ctypes.POINTER(_RxnRequest),
                                ctypes.POINTER(_RxnResult)]

        code_parts: List[bytes] = []
        proc_words: List[int] = []
        label_words: List[int] = []
        offset = 0
        for proc in cmodule.procedures:
            proc_words.extend([
                offset, len(proc.code),
                len(label_words), len(proc.labels),
                proc.argsize, proc.framesize,
                1 if proc.needs_trampoline else 0,
            ])
            assert len(proc_words) % NATIVE_PROC_WORDS == 0
            code_parts.append(proc.code)
            label_words.extend(proc.labels)
            offset += len(proc.code)
        self._code = _ubytes(b"".join(code_parts))
        self._procs = (ctypes.c_uint32 * max(len(proc_words), 1))(
            *proc_words)
        self._labels = (ctypes.c_uint32 * max(len(label_words), 1))(
            *label_words)
        globals_ = resolve_globals(cmodule)
        self._globals = (ctypes.c_uint32 * max(len(globals_), 1))(*globals_)
        self._nglobals = len(globals_)

    # -- running -----------------------------------------------------------
    def run(self, *int_args: int, input_data: bytes = b"",
            budget: int = 0) -> NativeRun:
        """Run the entry procedure to completion.

        Raises the same exceptions a Python ``Machine`` would: ``Trap``
        and its subclasses for program faults, reconstructed from the
        engine's trap code.  ``budget`` bounds the run to that many rule
        dispatches (0 = unlimited); exceeding it raises
        :class:`~repro.interp.state.BudgetExceeded` at the identical
        dispatch the Python engines would.
        """
        if self.module.entry is None:
            raise Trap("program has no entry procedure")
        self._budget = int(budget or 0)
        layout = MemoryLayout.for_program(self.module)
        args = (ctypes.c_uint32 * max(len(int_args), 1))(
            *[a & 0xFFFFFFFF for a in int_args])
        inp = _ubytes(input_data)
        out_cap = _INITIAL_OUTPUT_CAP
        while True:
            # a fresh image per attempt: runs are deterministic, so the
            # overflow retry replays into identical memory
            memory = (ctypes.c_ubyte * layout.total)()
            if self.module.data:
                ctypes.memmove(ctypes.byref(memory, DATA_BASE),
                               self.module.data, len(self.module.data))
            output = (ctypes.c_ubyte * out_cap)()
            req = _RxnRequest(
                code=self._code,
                procs=self._procs,
                nprocs=len(self.module.procedures),
                labels=self._labels,
                global_addrs=self._globals,
                nglobals=self._nglobals,
                entry=self.module.entry,
                args=args,
                nargs=len(int_args),
                input=inp,
                input_len=len(input_data),
                memory=memory,
                memory_size=layout.total,
                heap_base=layout.heap_base,
                heap_limit=layout.heap_limit,
                arg_base=layout.arg_base,
                frame_base=layout.frame_base,
                output=output,
                output_cap=out_cap,
                budget=self._budget,
            )
            res = _RxnResult()
            retry = self._engine.lib.rxn_run(ctypes.byref(req),
                                             ctypes.byref(res))
            if retry:
                if out_cap >= _MAX_OUTPUT_CAP:
                    raise NativeExecutionError(
                        f"output exceeded {_MAX_OUTPUT_CAP} bytes")
                out_cap *= 4
                continue
            if res.status:
                raise self._map_trap(res.trap_code, res.trap_a, res.trap_b)
            return NativeRun(
                code=res.exit_code,
                output=bytes(output[:res.output_len]),
                instret=res.instret,
                dispatches=res.dispatches,
                memory=bytes(memory),
            )

    # -- trap reconstruction ----------------------------------------------
    def _proc_name(self, index: int) -> str:
        return self.module.procedures[index].name

    def _map_trap(self, code: int, a: int, b: int) -> Exception:
        """The exact exception the reference engine raises for this
        fault (class and message are asserted byte-identical by the
        equivalence suite)."""
        T = NATIVE_TRAP_CODES
        if code == T["DIV0"]:
            return Trap("division by zero")
        if code == T["IDIV0"]:
            return Trap("integer division by zero")
        if code == T["MEM_RANGE"]:
            return MemoryError_(
                f"access of {a} bytes at address {b:#x} is out of range")
        if code == T["UNTERMINATED"]:
            return MemoryError_(f"unterminated string at {a:#x}")
        if code == T["CALL_DEPTH"]:
            return Trap("call stack overflow")
        if code == T["FRAME_OVERFLOW"]:
            return Trap("frame stack overflow")
        if code == T["HEAP"]:
            return Trap("out of heap")
        if code == T["GLOBAL_RANGE"]:
            return Trap(f"global index {a} out of range")
        if code == T["PROC_RANGE"]:
            return Trap(f"procedure index {a} out of range")
        if code == T["BAD_CALL_ADDR"]:
            return Trap(f"call to non-function address {a:#x}")
        if code == T["NO_TRAMPOLINE"]:
            return Trap(f"indirect call to {self._proc_name(a)!r},"
                        f" which has no trampoline")
        if code == T["ABORT"]:
            return Trap("abort() called")
        if code == T["FELL_OFF"]:
            return Trap(f"{self._proc_name(a)}: fell off the end of the code")
        if code == T["LABEL_RANGE"]:
            return Trap(f"{self._proc_name(a)}: branch to label {b}"
                        f" out of range")
        if code == T["STREAM"]:
            return Trap("compressed stream exhausted mid-derivation")
        if code == T["BAD_CODEWORD"]:
            nt = self.grammar.nonterminals[a]
            rules = interp_tables(self.grammar).by_nt[nt]
            return TableError(
                f"codeword {b} out of range for"
                f" <{self.grammar.nt_name(nt)}> ({len(rules)} rules)")
        if code == T["UNSUPPORTED_OP"]:
            return UnsupportedOpcode(
                "block operators (ASGNB/ARGB) are not emitted by"
                " this front end")
        if code == T["BUDGET"]:
            return BudgetExceeded(BudgetExceeded.message(self._budget))
        return NativeExecutionError(
            f"native engine invariant violated (trap code {code})")


def run_native(cmodule, *int_args: int, input_data: bytes = b"",
               cache: Optional[NativeBuildCache] = None,
               budget: int = 0) -> Tuple[int, bytes]:
    """Convenience mirroring :func:`repro.interp.runtime.run_program`."""
    run = NativeEngine(cmodule, cache=cache).run(
        *int_args, input_data=input_data, budget=budget)
    return run.code, run.output
