"""The initial interpreter: executes uncompressed bytecode (paper Section 5).

``interp`` is the classic fetch/dispatch loop: fetch the operator byte at
the pc, collect its literal bytes (the GET macro), dispatch through the
``interpret1`` switch (:mod:`repro.interp.base`).  Control transfers set the
pc from the procedure's label table; returns unwind to ``call_procedure``.

Procedures are predecoded once into a pc-indexed table so repeated
execution (loops) does not re-split literal bytes — the moral equivalent of
a threaded-code interpreter, without changing observable behaviour.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

from ..bytecode.instructions import iter_decode
from .base import HANDLERS
from .state import BudgetExceeded, IState, Jump, Return, Trap

__all__ = ["Interpreter1"]


def _noop(istate, machine, operands):
    return None


class Interpreter1:
    """Executor for uncompressed modules (plug into
    :class:`repro.interp.runtime.Machine`)."""

    def __init__(self, module) -> None:
        self.module = module
        # pc -> (handler, operand bytes, next pc), per procedure
        self._decoded = [self._predecode(p.code) for p in module.procedures]

    @staticmethod
    def _predecode(code: bytes,
                   handlers: Mapping[int, Callable] = HANDLERS
                   ) -> Dict[int, Tuple]:
        """pc -> (handler, operands, next pc), handlers taken from
        ``handlers`` by opcode (the profiler passes traced ones)."""
        table: Dict[int, Tuple] = {}
        decoded = list(iter_decode(code))
        for off, ins in reversed(decoded):
            if ins.op.name == "LABELV":
                # A branch-target mark, not an operator: alias its entry to
                # the following instruction so it costs (and counts) nothing,
                # matching the compressed interpreter where LABELV does not
                # exist at all.
                nxt = off + ins.size
                table[off] = table.get(nxt, (_noop, (), nxt))
            else:
                table[off] = (
                    handlers[ins.op.code], ins.operands, off + ins.size
                )
        return table

    def run_procedure(self, machine, index: int, istate: IState) -> Any:
        proc = self.module.procedures[index]
        table = self._decoded[index]
        labels = proc.labels
        end = len(proc.code)
        # The uncompressed form has no rule dispatches; the budget
        # counts instruction fetches instead (still deterministic —
        # the same program always traps at the same fetch).
        budget = machine.budget
        pc = 0
        while True:
            try:
                while pc < end:
                    handler, operands, pc = table[pc]
                    machine.instret += 1
                    if budget:
                        machine.dispatches += 1
                        if machine.dispatches > budget:
                            raise BudgetExceeded(
                                BudgetExceeded.message(budget))
                    handler(istate, machine, operands)
                raise Trap(f"{proc.name}: fell off the end of the code")
            except Jump as jump:
                try:
                    pc = labels[jump.label]
                except IndexError:
                    raise Trap(
                        f"{proc.name}: branch to label {jump.label} "
                        f"out of range"
                    ) from None
            except Return as ret:
                return ret.value
