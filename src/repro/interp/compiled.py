"""The direct-threaded engine: precompiled compressed-form execution.

:class:`~repro.interp.interp2.Interpreter2` is the *reference* executor —
a straight transliteration of the paper's generated ``interpNT`` that
re-walks rule right-hand sides and re-dispatches through dicts on every
symbol.  This module is the production engine over the same compressed
form: the grammar is flattened once at load time
(:class:`~repro.interp.tables.CompiledTables`) and execution becomes an
iterative dispatch loop over an explicit return stack:

* one list index per *rule* dispatch (nonterminal call sites were resolved
  to their target program list at compile time, and every row is padded
  with sentinel programs so no bounds check runs in the hot loop) instead
  of one dict probe per *symbol*;
* burned literal bytes are baked into the step (Section 5's specialized
  GET), and each maximal run of operators between control transfers is
  compiled into ONE generated function that calls its handlers directly,
  reads its streamed bytes at fixed offsets, and returns the advanced
  ``pc`` — no per-operator decode or loop overhead at all;
* a dispatch in tail position replaces the current program in place —
  chains of unit rules never grow the return stack;
* no Python recursion anywhere in a derivation: the return stack is an
  explicit list, local to the activation, so a ``Trap`` at any dispatch
  depth unwinds it trivially (it is dropped with the frame) and the engine
  object stays reusable.

Observable behaviour is identical to the reference engine by construction
and is enforced by ``tests/test_exec_equivalence.py`` (results, output,
memory images, traps) across the fuzz corpus; ``benchmarks/
test_interp_speed.py`` gates the speedup this buys.  The one deliberate
divergence: ``machine.instret`` is accounted per *run* of burned
operators, not per operator, so after a ``Trap`` raised mid-run (a fault
that kills the machine) the count may include the handful of operators
that were queued behind the faulting one.  Runs end at control-transfer
operators, so on every normally-terminating, branching, returning, and
exiting path the count matches the reference interpreters exactly.

Control transfers match the reference: a ``Jump`` abandons the in-progress
derivation (the return stack is cleared — the compressor guarantees every
label is the start of a fresh ``<start>`` derivation, Section 4.1) and a
``Return`` unwinds the whole activation.
"""

from __future__ import annotations

from typing import Any

from .. import faults
from .state import BudgetExceeded, IState, Jump, Return, Trap
from .tables import TableError, compiled_tables

__all__ = ["CompiledEngine"]

_EXHAUSTED = "compressed stream exhausted mid-derivation"


def _stream_need(step) -> int:
    """Bytes the step reads from the compressed stream (for classifying
    an IndexError as stream exhaustion)."""
    tag = step[0]
    if tag == 0:    # fused run: streamed slots in its literal plans
        return sum(plan.count(None) for plan in step[4])
    if tag == 3:    # dispatch: one codeword byte
        return 1
    return 0


class CompiledEngine:
    """Executor for compressed modules over flattened rule tables (plug
    into :class:`repro.interp.runtime.Machine`, same duck type as the
    reference :class:`~repro.interp.interp2.Interpreter2`)."""

    def __init__(self, cmodule) -> None:
        self.module = cmodule
        self.tables = compiled_tables(cmodule.grammar)

    def run_procedure(self, machine, index: int, istate: IState) -> Any:
        # Fault site at activation granularity, not per step: the hot
        # loop below stays branch-free when no fault plane is active.
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("engine.dispatch",
                               message=f"procedure {index}")
        cproc = self.module.procedures[index]
        code = cproc.code
        labels = cproc.labels
        end = len(code)
        start_programs = self.tables.rows[self.tables.start_row]

        pc = 0
        instret = 0        # flushed to machine.instret in the finally
        # Dispatches count on the machine directly (not a local): nested
        # activations share one exact total, so the execution budget
        # traps at the identical dispatch on every engine.
        budget = machine.budget
        stack = []         # explicit return stack: (steps, resume, len)
        push = stack.append
        pop = stack.pop
        step = None        # most recent step, for exhaustion diagnosis
        try:
            while True:
                try:
                    while pc < end:
                        # One complete block derivation (interpNT).
                        steps = start_programs[code[pc]]
                        pc += 1
                        machine.dispatches += 1
                        if budget and machine.dispatches > budget:
                            raise BudgetExceeded(
                                BudgetExceeded.message(budget))
                        i = 0
                        n = len(steps)
                        while True:
                            if i == n:
                                if stack:
                                    steps, i, n = pop()
                                    continue
                                break  # derivation complete
                            step = steps[i]
                            i += 1
                            tag = step[0]
                            if tag == 1:    # one burned operator
                                instret += 1
                                step[1](istate, machine, step[2])
                            elif tag == 3:  # nonterminal dispatch
                                if i != n:  # not a tail call: save frame
                                    push((steps, i, n))
                                steps = step[1][code[pc]]
                                pc += 1
                                machine.dispatches += 1
                                if budget and \
                                        machine.dispatches > budget:
                                    raise BudgetExceeded(
                                        BudgetExceeded.message(budget))
                                i = 0
                                n = len(steps)
                            elif tag == 0:  # fused operator run
                                instret += step[2]
                                pc = step[1](istate, machine, code, pc)
                            else:           # sentinel: invalid codeword
                                raise TableError(step[1])
                    raise Trap(
                        f"{cproc.name}: fell off the end of the code"
                    )
                except IndexError:
                    # The hot loop reads the stream unguarded (fused runs
                    # read ``code[pc+k]``; dispatches read ``code[pc]``):
                    # running off the end surfaces as IndexError here.
                    # Convert it to the reference engines' Trap when the
                    # faulting step indeed needed bytes past the end;
                    # anything else is a real bug and propagates.
                    if step is not None and pc + _stream_need(step) > end:
                        raise Trap(_EXHAUSTED) from None
                    raise
                except Jump as jump:
                    label = jump.label
                    if not 0 <= label < len(labels):
                        raise Trap(
                            f"{cproc.name}: branch to label {label} "
                            f"out of range"
                        ) from None
                    pc = labels[label]
                    # The in-progress derivation is abandoned: the label
                    # is the start of a fresh <start> derivation, so the
                    # return stack unwinds wholesale.
                    if stack:
                        del stack[:]
                except Return as ret:
                    return ret.value
        finally:
            # Counter flush + pc publication happen on *every* exit —
            # normal return, Exit, or a Trap from any dispatch depth —
            # so the machine's counters stay exact and the faulting
            # stream position is observable after unwinding.
            machine.instret += instret
            istate.pc = pc
