"""Execution profiling for uncompressed and compressed modules.

The paper's method is *profile-driven by static frequency*: the grammar is
rewritten to shorten the training corpus's derivations — i.e. to compress
the program text, not its execution.  This profiler measures the other
side: what actually runs.  It wraps the uncompressed interpreter or the
direct-threaded engine and counts

* operator executions (both executors),
* rule dispatches per (nonterminal, codeword) — compressed modules
  only: how often each *learned instruction* is fetched at run time,
* block entries (derivation restarts) and branch transfers,
* for compressed modules, a dispatch-depth histogram: how deep the
  explicit return stack was at each rule dispatch (tail dispatches
  replace in place, so this measures the *pending* right-hand-side work,
  not raw derivation depth).

A compressed module is always profiled over the flattened tables
(:class:`~repro.interp.tables.CompiledTables`) the direct-threaded engine
dispatches on, executing the symbolic per-operator plans one at a time
instead of the fused run functions — exact per-operator accounting, at
reference-engine speed.

That enables an analysis the paper does not run but clearly invites: the
correlation between a rule's static usage (how many bytes it saves) and
its dynamic usage (how often the interpreter walks it) — and the cost
model for a hypothetical execution-profile-driven variant of the trainer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Tuple

from ..bytecode.opcodes import opname
from .compiled import CompiledEngine
from .interp1 import Interpreter1
from .state import IState, Jump, Return, Trap

__all__ = ["ExecutionProfile", "ProfilingExecutor", "profile_run"]


@dataclass
class ExecutionProfile:
    """Counters collected during one run."""

    operators: Counter = field(default_factory=Counter)   # opcode -> n
    rules: Counter = field(default_factory=Counter)       # (nt, cw) -> n
    blocks_entered: int = 0
    branches_taken: int = 0
    returns: int = 0
    # return-stack depth at each rule dispatch (direct-threaded engine)
    dispatch_depth: Counter = field(default_factory=Counter)

    @property
    def total_operators(self) -> int:
        return sum(self.operators.values())

    @property
    def total_dispatches(self) -> int:
        """Rule fetches (compressed) or operator fetches (interp1)."""
        return sum(self.rules.values()) or self.total_operators

    def top_operators(self, n: int = 10):
        return [(opname(code), count)
                for code, count in self.operators.most_common(n)]

    def top_rules(self, n: int = 10):
        return self.rules.most_common(n)


class ProfilingExecutor:
    """Wraps an Interpreter1 or CompiledEngine, recording a profile.

    Plugs into :class:`repro.interp.runtime.Machine` exactly like the
    wrapped executor.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.profile = ExecutionProfile()
        if isinstance(inner, CompiledEngine):
            self._install_compiled_hooks(inner)
        elif isinstance(inner, Interpreter1):
            self._install_interp1_hooks(inner)
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot profile {type(inner).__name__}")

    # The hooks shadow the executor's tables on a shallow copy, so the
    # original executor instances stay reusable and unprofiled.
    def _install_interp1_hooks(self, inner: Interpreter1) -> None:
        from .base import HANDLERS

        profile = self.profile

        def make_traced(op_code, handler):
            def traced(istate, machine, operands):
                profile.operators[op_code] += 1
                try:
                    return handler(istate, machine, operands)
                except Jump:
                    profile.branches_taken += 1
                    raise
                except Return:
                    profile.returns += 1
                    raise
            return traced

        traced = {code: make_traced(code, handler)
                  for code, handler in HANDLERS.items()}
        clone = Interpreter1.__new__(Interpreter1)
        clone.module = inner.module
        clone._decoded = [Interpreter1._predecode(proc.code, traced)
                          for proc in inner.module.procedures]
        self._run = clone.run_procedure

    def _install_compiled_hooks(self, inner: CompiledEngine) -> None:
        outer = self

        class _TracingEngine:
            module = inner.module
            tables = inner.tables

            def run_procedure(self, machine, index, istate):
                return outer._trace_compiled(inner, machine, index, istate)

        self._run = _TracingEngine().run_procedure

    def _trace_compiled(self, inner: CompiledEngine, machine, index: int,
                        istate: IState) -> Any:
        """The engine's dispatch loop, instrumented: same flattened
        tables, same explicit return stack and tail collapse, but the
        symbolic per-operator plans are executed one operator at a time
        so every counter is exact (including ``instret`` across traps).
        """
        from .base import HANDLERS
        from .compiled import _EXHAUSTED
        from .tables import STEP_CALL, STEP_OP1, STEP_RUN, TableError

        profile = self.profile
        tables = inner.tables
        cproc = inner.module.procedures[index]
        code = cproc.code
        labels = cproc.labels
        end = len(code)
        nt_of_row = tables.nt_of_row
        start_row = tables.start_row
        start_programs = tables.rows[start_row]

        def run_op(op: int, operands: tuple) -> None:
            machine.instret += 1
            profile.operators[op] += 1
            try:
                HANDLERS[op](istate, machine, operands)
            except Jump:
                profile.branches_taken += 1
                raise
            except Return:
                profile.returns += 1
                raise

        pc = 0
        stack: list = []
        try:
            while True:
                try:
                    while pc < end:
                        profile.blocks_entered += 1
                        profile.rules[(nt_of_row[start_row],
                                       code[pc])] += 1
                        profile.dispatch_depth[0] += 1
                        machine.dispatches += 1
                        steps = start_programs[code[pc]]
                        pc += 1
                        i = 0
                        n = len(steps)
                        while True:
                            if i == n:
                                if stack:
                                    steps, i, n = stack.pop()
                                    continue
                                break  # derivation complete
                            step = steps[i]
                            i += 1
                            tag = step[0]
                            if tag == STEP_RUN:
                                for op, plan in zip(step[3], step[4]):
                                    operands = []
                                    for b in plan:
                                        if b is None:
                                            if pc >= end:
                                                raise Trap(_EXHAUSTED)
                                            b = code[pc]
                                            pc += 1
                                        operands.append(b)
                                    run_op(op, tuple(operands))
                            elif tag == STEP_OP1:
                                run_op(step[3], step[2])
                            elif tag == STEP_CALL:
                                if pc >= end:
                                    raise Trap(_EXHAUSTED)
                                if i != n:  # not a tail dispatch
                                    stack.append((steps, i, n))
                                profile.rules[(nt_of_row[step[2]],
                                               code[pc])] += 1
                                profile.dispatch_depth[len(stack)] += 1
                                machine.dispatches += 1
                                steps = step[1][code[pc]]
                                pc += 1
                                i = 0
                                n = len(steps)
                            else:  # sentinel: invalid codeword
                                raise TableError(step[1])
                    raise Trap(
                        f"{cproc.name}: fell off the end of the code"
                    )
                except Jump as jump:
                    label = jump.label
                    if not 0 <= label < len(labels):
                        raise Trap(
                            f"{cproc.name}: branch to label {label} "
                            f"out of range"
                        ) from None
                    pc = labels[label]
                    if stack:
                        del stack[:]
                except Return as ret:
                    return ret.value
        finally:
            istate.pc = pc

    def run_procedure(self, machine, index: int, istate: IState) -> Any:
        return self._run(machine, index, istate)


def profile_run(program, *args: int, input_data: bytes = b""
                ) -> Tuple[int, bytes, ExecutionProfile]:
    """Run a Module (on Interpreter1) or CompressedModule (over the
    direct-threaded engine's tables) under the profiler."""
    from ..bytecode.module import Module
    from .runtime import Machine

    if isinstance(program, Module):
        executor = ProfilingExecutor(Interpreter1(program))
    else:
        executor = ProfilingExecutor(CompiledEngine(program))
    machine = Machine(program, executor, input_data=input_data)
    code = machine.run(*args)
    return code, bytes(machine.output), executor.profile
