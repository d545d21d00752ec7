"""Rule tables for the generated interpreter (paper Section 5).

"A table encodes for each rule the sequence of terminals and non-terminals
on the rule's right-hand side."  We compile each rule into a *step program*:

* ``("op", opcode, literal_plan)`` — execute one operator; the plan has one
  entry per literal operand byte, either a burned-in value (the rule
  constrains that byte — partially-inlined literals, Section 5) or ``None``
  meaning "fetch the next byte from the compressed stream" (the GET macro's
  decision of where each literal half comes from).
* ``("nt", nonterminal)`` — recurse: read one byte, look up that
  nonterminal's rule, run its steps.

The compiler checks the structural invariant that makes this sound: in any
rule of an expanded grammar derived from the initial grammar, every operator
terminal is immediately followed by exactly its ``nlit`` byte symbols
(burned or streamed) — inlining preserves the adjacency because only whole
nonterminal occurrences are ever substituted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import faults
from ..bytecode.opcodes import OP_BY_CODE
from ..core.program import program_for
from ..grammar.cfg import (
    Grammar,
    byte_value,
    is_byte_terminal,
    is_nonterminal,
)

__all__ = [
    "Step", "RuleProgram", "InterpTables", "TableError",
    "CompiledTables", "compiled_tables", "interp_tables",
    "STEP_RUN", "STEP_OP1", "STEP_CALL", "STEP_BAD",
]

Step = Tuple  # ("op", opcode, plan) | ("nt", nonterminal)

# Flattened-step tags (see CompiledTables).
STEP_RUN = 0   # (0, fused, nops, opcodes, plans, emit): an operator run
STEP_OP1 = 1   # (1, handler, operands, opcode, emit): one burned operator
STEP_CALL = 3  # (3, programs, row): dispatch on the row's codeword table
STEP_BAD = 5   # (5, message): sentinel for an out-of-range codeword


class TableError(ValueError):
    """Raised when a grammar violates the operator/literal adjacency
    invariant (cannot happen for grammars produced by this system)."""


def _rule_steps(rule, byte_nt: int) -> List[Step]:
    """One rule's right-hand side as interpreter steps, checking the
    operator/literal adjacency invariant (see the module docstring).
    The one walk that :class:`InterpTables` and :class:`CompiledTables`
    both compile from."""
    steps: List[Step] = []
    rhs = rule.rhs
    i = 0
    while i < len(rhs):
        sym = rhs[i]
        if is_nonterminal(sym):
            if sym == byte_nt:
                raise TableError(
                    f"rule {rule.id}: <byte> not attached to an operator"
                )
            steps.append(("nt", sym))
            i += 1
            continue
        if is_byte_terminal(sym):
            raise TableError(
                f"rule {rule.id}: burned byte not attached to an operator"
            )
        spec = OP_BY_CODE[sym]
        plan: List[Optional[int]] = []
        for k in range(1, spec.nlit + 1):
            if i + k >= len(rhs):
                raise TableError(
                    f"rule {rule.id}: {spec.name} missing literal bytes"
                )
            opnd = rhs[i + k]
            if is_byte_terminal(opnd):
                plan.append(byte_value(opnd))
            elif opnd == byte_nt:
                plan.append(None)  # streamed
            else:
                raise TableError(
                    f"rule {rule.id}: {spec.name} operand {k} is "
                    f"neither a byte nor <byte>"
                )
        steps.append(("op", sym, tuple(plan)))
        i += 1 + spec.nlit
    return steps


class RuleProgram:
    """One rule compiled to interpreter steps."""

    __slots__ = ("rule_id", "steps")

    def __init__(self, rule_id: int, steps: Tuple[Step, ...]) -> None:
        self.rule_id = rule_id
        self.steps = steps


class InterpTables:
    """All rule programs of a grammar, indexed [nonterminal][codeword]."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.start = grammar.start
        self.byte_nt = grammar.nonterminal("byte")
        # The (nt, rules) row layout is shared with every other consumer
        # through the grammar's precompiled program; <byte> owns no row —
        # its "rules" are read directly from the stream.
        self.by_nt: Dict[int, List[RuleProgram]] = {
            nt: [RuleProgram(rule.id, tuple(_rule_steps(rule, self.byte_nt)))
                 for rule in rules]
            for nt, rules in program_for(grammar).rows
        }

    def program(self, nt: int, codeword: int) -> RuleProgram:
        programs = self.by_nt[nt]
        if codeword >= len(programs):
            raise TableError(
                f"codeword {codeword} out of range for "
                f"<{self.grammar.nt_name(nt)}> ({len(programs)} rules)"
            )
        return programs[codeword]

    # -- size accounting (paper Section 6: "The grammar occupies 10,525
    # bytes") ---------------------------------------------------------------
    def encoded_bytes(self) -> int:
        """Bytes to store the rule tables in the straightforward encoding:
        per rule, a length byte plus one byte per step (operator or
        nonterminal tag) plus one byte per literal-plan entry."""
        total = 0
        for programs in self.by_nt.values():
            for rp in programs:
                total += 1  # rhs length
                for step in rp.steps:
                    if step[0] == "op":
                        total += 1 + len(step[2])
                    else:
                        total += 1
        # per-nonterminal table of rule offsets (2 bytes each)
        total += sum(2 * len(p) for p in self.by_nt.values())
        return total


#: Operators that can transfer control out of the current rule program —
#: a branch (``Jump``), a procedure return (``Return``), or a call whose
#: callee may raise ``Exit``.  A fused run never *continues past* one of
#: these, so the engine may account a whole run's operator count (and
#: stream consumption) up front and still agree with the reference
#: interpreters on every normally-terminating and every branching path.
_CONTROL_PREFIXES = ("RET", "CALL", "LocalCALL", "JUMP")


def _is_control(name: str) -> bool:
    return name.startswith(_CONTROL_PREFIXES) or name == "BrTrue"


def _le_expr(parts) -> str:
    """Little-endian value expression over literal bytes, with burned
    bytes constant-folded.  ``parts`` items are ints (burned) or
    code-read expression strings (streamed)."""
    const = 0
    terms = []
    for i, p in enumerate(parts):
        if isinstance(p, int):
            const |= p << (8 * i)
        elif i:
            terms.append(f"({p} << {8 * i})")
        else:
            terms.append(p)
    if const or not terms:
        terms.append(str(const))
    return terms[0] if len(terms) == 1 else " | ".join(terms)


_INLINE_BIN = {  # wrapping binary integer ops: result is (a OP b) [& mask]
    "ADDU": ("+", True), "SUBU": ("-", True), "MULU": ("*", True),
    "MULI": ("*", True),  # signed mul ≡ unsigned mul mod 2**32
    "BANDU": ("&", False), "BORU": ("|", False), "BXORU": ("^", False),
}

_CMP_SYM = {"EQ": "==", "NE": "!=", "GE": ">=",
            "GT": ">", "LE": "<=", "LT": "<"}

#: branch-free to_signed for an already-masked 32-bit pattern
_SIGNED = "((stack.pop() & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000"

_LOAD = {"C": "load_u8", "S": "load_u16", "U": "load_u32",
         "F": "load_f32", "D": "load_f64"}
_STORE = {"C": "store_u8", "S": "store_u16", "U": "store_u32",
          "F": "store_f32", "D": "store_f64"}


def _inline_lines(name: str, exprs) -> Optional[List[str]]:
    """Source lines implementing one operator inside a fused run, or
    ``None`` to fall back to the registered handler.

    ``exprs`` holds one item per literal byte: an int (burned) or a
    code-read expression string (streamed).  Each template is the exact
    semantics of the corresponding :data:`~repro.interp.base.HANDLERS`
    entry — the equivalence suite holds the two implementations to the
    same observable behaviour.  Operators with failure modes beyond a
    clean exception from a machine helper (division by zero, unsupported
    block ops, float conversions) stay on the handler path.
    """
    if name.startswith("LIT"):
        return [f"stack.append({_le_expr(exprs)})"]
    if name == "ADDRLP":
        return [f"stack.append(istate.locals_base + ({_le_expr(exprs)}))"]
    if name == "ADDRFP":
        return [f"stack.append(istate.args_base + ({_le_expr(exprs)}))"]
    if name == "ADDRGP":
        return [f"stack.append(machine.global_address({_le_expr(exprs)}))"]
    if name.startswith("INDIR"):
        return [f"stack.append(machine.memory.{_LOAD[name[-1]]}"
                "(stack.pop()))"]
    if name.startswith("ASGN") and name[-1] in _STORE:
        return ["_v = stack.pop()",
                f"machine.memory.{_STORE[name[-1]]}(stack.pop(), _v)"]
    if name in _INLINE_BIN:
        sym, wraps = _INLINE_BIN[name]
        expr = f"(stack.pop() {sym} _b)"
        if wraps:
            expr += " & 0xFFFFFFFF"
        return ["_b = stack.pop()", f"stack.append({expr})"]
    if name in ("LSHU", "LSHI"):  # shifted-out high bits are masked away,
        return ["_b = stack.pop()",  # so signed ≡ unsigned left shift
                "stack.append((stack.pop() << (_b & 31)) & 0xFFFFFFFF)"]
    if name == "RSHU":
        return ["_b = stack.pop()", "stack.append(stack.pop() >> (_b & 31))"]
    if name == "RSHI":  # arithmetic shift: sign-extend, shift, re-wrap
        return ["_b = stack.pop()",
                f"_a = {_SIGNED}",
                "stack.append((_a >> (_b & 31)) & 0xFFFFFFFF)"]
    if len(name) == 3 and name[:2] in _CMP_SYM and name[2] in "UIDF":
        sym = _CMP_SYM[name[:2]]
        if name[2] == "I":
            return [f"_b = {_SIGNED}", f"_a = {_SIGNED}",
                    f"stack.append(1 if _a {sym} _b else 0)"]
        return ["_b = stack.pop()",
                f"stack.append(1 if stack.pop() {sym} _b else 0)"]
    if name == "JUMPV":
        return [f"raise _Jump({_le_expr(exprs)})"]
    if name == "BrTrue":
        return [f"if stack.pop() != 0: raise _Jump({_le_expr(exprs)})"]
    if name == "RETV":
        return ["raise _Return(None)"]
    if name in ("RETU", "RETD", "RETF"):
        return ["raise _Return(stack.pop())"]
    if name in ("POPU", "POPD", "POPF"):
        return ["stack.pop()"]
    if name == "ARGU":
        return ["machine.push_arg_u32(stack.pop())"]
    if name == "ARGF":
        return ["machine.push_arg_f32(stack.pop())"]
    if name == "ARGD":
        return ["machine.push_arg_f64(stack.pop())"]
    if name.startswith("LocalCALL"):
        call = f"machine.call_procedure({_le_expr(exprs)})"
        return [call] if name[-1] == "V" else [f"stack.append({call})"]
    if name.startswith("CALL"):
        call = "machine.call_address(stack.pop())"
        return [call] if name[-1] == "V" else [f"stack.append({call})"]
    if name == "LABELV":
        return []
    if name == "NEGI":  # -x mod 2**32, whatever sign x decodes to
        return ["stack.append(-stack.pop() & 0xFFFFFFFF)"]
    if name == "BCOMU":
        return ["stack.append(~stack.pop() & 0xFFFFFFFF)"]
    if name == "CVU1U4":
        return ["stack.append(stack.pop() & 0xFF)"]
    if name == "CVU2U4":
        return ["stack.append(stack.pop() & 0xFFFF)"]
    return None


def _gen_fused(ops) -> Tuple:
    """Generate one function executing a whole operator run.

    ``ops`` is a sequence of ``(handler, plan, opcode)``; the generated
    function has signature ``fused(istate, machine, code, pc) -> pc``.
    Common operators are inlined as straight-line source
    (:func:`_inline_lines`) — the evaluation stack is a local, burned
    literals are folded constants, streamed literals are read straight
    off ``code`` at compile-time-known offsets — and the rest call their
    registered handler bound as a default argument.  The advanced ``pc``
    is returned once at the end.

    Also returns the run's *emit spec* for the decompressor: a tuple
    whose items are ``bytes`` (burned output: operator and burned literal
    bytes) or ``int k`` ("copy k bytes from the stream").
    """
    from .state import Jump, Return

    params = ["istate", "machine", "code", "pc"]
    namespace = {"_Jump": Jump, "_Return": Return}
    body: List[str] = []
    emit: List = []
    burned = bytearray()
    off = 0
    uses_stack = False
    for j, (handler, plan, op) in enumerate(ops):
        burned.append(op)
        exprs: List = []
        elems: List[str] = []
        for b in plan:
            if b is None:
                read = f"code[pc+{off}]" if off else "code[pc]"
                exprs.append(read)
                elems.append(read)
                if burned:
                    emit.append(bytes(burned))
                    burned.clear()
                if emit and isinstance(emit[-1], int):
                    emit[-1] += 1
                else:
                    emit.append(1)
                off += 1
            else:
                exprs.append(b)
                elems.append(str(b))
                burned.append(b)
        lines = _inline_lines(OP_BY_CODE[op].name, exprs)
        if lines is None:
            namespace[f"_h{j}"] = handler
            params.append(f"h{j}=_h{j}")
            operands = "(" + ", ".join(elems) \
                + ("," if len(elems) == 1 else "") + ")"
            body.append(f"    h{j}(istate, machine, {operands})")
        else:
            if not uses_stack:
                uses_stack = any("stack" in line for line in lines)
            body.extend("    " + line for line in lines)
    if burned:
        emit.append(bytes(burned))
    src = [f"def _fused({', '.join(params)}):"]
    if uses_stack:
        src.append("    stack = istate.stack")
    src.extend(body)
    src.append(f"    return pc + {off}" if off else "    return pc")
    exec("\n".join(src), namespace)  # noqa: S102 — our own generated src
    return namespace["_fused"], tuple(emit)


class CompiledTables:
    """Rule tables flattened for the direct-threaded engine.

    Where :class:`InterpTables` keeps symbolic steps that the reference
    interpreter re-decodes on every visit (``HANDLERS[op]`` per operator,
    ``by_nt[nt]`` dict lookup per dispatch, a literal plan walked per
    execution), this second compile pass burns every run-time decision
    that does not depend on stream bytes into the table itself.  A rule
    flattens to a program of only two live step kinds:

    * :data:`STEP_RUN` — a maximal run of operators compiled into ONE
      generated function (:func:`_gen_fused`): handlers resolved to
      direct calls, burned literal bytes folded into constant operand
      tuples (Section 5's specialized GET), streamed literal bytes read
      at compile-time-known offsets.  Runs end at control-transfer
      operators so the run-level operator accounting stays exact on
      every branching path.
    * :data:`STEP_CALL` — a nonterminal call site, resolved to the target
      row's *program list itself*: a dispatch is one list index on the
      codeword byte — no dict probe, no row indirection.

    Every row is padded to 256 entries with :data:`STEP_BAD` sentinel
    programs, one per invalid codeword, so the hot loop needs no bounds
    check — an invalid derivation byte dispatches to a step that raises
    :class:`TableError` naming the precise codeword.

    Each RUN step also carries the byte sequence it *emits* (operators
    and burned literals interleaved with copy-from-stream counts), so the
    decompressor walks the same tables the engine executes — one
    flattening serves both — plus the symbolic per-operator plans the
    instrumented profiler executes one operator at a time.

    A dispatch in tail position (the nonterminal is the rule's last step)
    never grows the engine's return stack: the current program is simply
    replaced.  Chains of unit rules — ``<x> -> <x0>``, ``<x0> -> ...`` —
    therefore collapse to in-place re-dispatch, which is what keeps the
    deeply left-recursive ``<start>`` spine's stack proportional to the
    *pending* right-hand-side work only.

    Rows are indexed by nonterminal allocation order; ``row_of`` maps the
    (negative) nonterminal symbol to its row, ``nt_of_row`` inverts it;
    ``nrules[row]`` is the real (unpadded) rule count.  The ``<byte>``
    nonterminal owns no row: its "rules" are the stream bytes themselves
    and are compiled into the literal plans.
    """

    #: rows are padded to this many programs so a codeword byte can never
    #: index out of range (a derivation byte is 0..255 by construction)
    ROW_SIZE = 256

    def __init__(self, grammar: Grammar) -> None:
        from .base import HANDLERS  # deferred: base imports state/memory

        self.grammar = grammar
        byte_nt = grammar.nonterminal("byte")
        self.byte_nt = byte_nt
        grammar_rows = program_for(grammar).rows
        nts = [nt for nt, _rules in grammar_rows]
        self.nt_of_row: List[int] = nts
        self.row_of: Dict[int, int] = {nt: i for i, nt in enumerate(nts)}
        self.start_row = self.row_of[grammar.start]
        # The program lists are allocated up front and filled afterwards:
        # a CALL step references its target's list directly, and rules may
        # mention any nonterminal (including their own).
        self.rows: List[List[Tuple[Step, ...]]] = [[] for _ in nts]
        self.rule_ids: List[List[int]] = []
        self.nrules: List[int] = []
        # Identical runs recur across rules (epilogues, common idioms);
        # generate each distinct run once.
        self._fused_memo: Dict[Tuple, Tuple] = {}
        for row, (nt, rules) in enumerate(grammar_rows):
            if len(rules) > self.ROW_SIZE:
                raise TableError(
                    f"<{grammar.nt_name(nt)}> has {len(rules)} rules; "
                    f"codewords are single bytes"
                )
            programs = self.rows[row]
            ids = []
            for rule in rules:
                programs.append(self._flatten(rule, HANDLERS))
                ids.append(rule.id)
            name = grammar.nt_name(nt)
            for cw in range(len(rules), self.ROW_SIZE):
                programs.append((
                    (STEP_BAD,
                     f"codeword {cw} out of range for <{name}> "
                     f"({len(rules)} rules)"),
                ))
            self.rule_ids.append(ids)
            self.nrules.append(len(rules))
        del self._fused_memo  # only needed during construction

    def _flatten(self, rule, handlers) -> Tuple[Step, ...]:
        steps: List[Step] = []
        run: List[Tuple] = []  # pending (handler, plan, opcode) triples

        def flush_run() -> None:
            if not run:
                return
            key = tuple((op, plan) for _h, plan, op in run)
            cached = self._fused_memo.get(key)
            if cached is None:
                handler, plan, op = run[0]
                if (len(run) == 1 and None not in plan
                        and _inline_lines(OP_BY_CODE[op].name,
                                          list(plan)) is None):
                    # A lone fully-burned operator with no inline
                    # template: skip the fused wrapper, the engine
                    # calls the handler directly.
                    cached = (STEP_OP1, handler, plan, op,
                              bytes((op,) + plan))
                else:
                    fused, emit = _gen_fused(run)
                    cached = (STEP_RUN, fused, len(run),
                              tuple(op for _h, _p, op in run),
                              tuple(plan for _h, plan, _op in run),
                              emit)
                self._fused_memo[key] = cached
            steps.append(cached)
            run.clear()

        for step in _rule_steps(rule, self.byte_nt):
            if step[0] == "nt":
                flush_run()
                row = self.row_of[step[1]]
                steps.append((STEP_CALL, self.rows[row], row))
                continue
            _, sym, plan = step
            run.append((handlers[sym], plan, sym))
            if _is_control(OP_BY_CODE[sym].name):
                flush_run()
        flush_run()
        return tuple(steps)

    def program(self, nt: int, codeword: int) -> Tuple[Step, ...]:
        """The flattened program for one (nonterminal, codeword) pair."""
        row = self.row_of[nt]
        if codeword >= self.nrules[row]:
            raise TableError(
                f"codeword {codeword} out of range for "
                f"<{self.grammar.nt_name(nt)}> ({self.nrules[row]} rules)"
            )
        return self.rows[row][codeword]


def interp_tables(grammar: Grammar) -> InterpTables:
    """Per-grammar memo of :class:`InterpTables`, hung off the grammar's
    precompiled program — the reference interpreter and the C code
    generator share one compile per grammar instance."""
    return program_for(grammar).derived(
        "interp_tables", lambda: InterpTables(grammar))


def compiled_tables(grammar: Grammar) -> CompiledTables:
    """Per-grammar memo of :class:`CompiledTables`.

    The flattening hangs off the grammar's precompiled
    :class:`~repro.core.program.GrammarProgram` (one per grammar
    instance), so the engine, the decompressor, and the profiler all
    share it — and everything else hung off the same program (interp
    tables, parser plans, rule models) lives as long as the grammar.

    Fault site ``engine.tables`` fires here as a :class:`TableError`,
    modelling a grammar whose flattening fails.  It only fires on a
    cache miss — a grammar whose tables are already built cannot
    retroactively fail to build — and a failed build caches nothing.
    """

    def build() -> CompiledTables:
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("engine.tables", exc=TableError,
                               message="injected table build failure")
        return CompiledTables(grammar)

    return program_for(grammar).derived("compiled_tables", build)

