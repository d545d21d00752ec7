"""Deterministic parser from bytecode to parse forests (paper Sections 2,
4.1).

The initial grammar groups operators by stack effect, so on *valid* bytecode
(stack discipline, which :mod:`repro.bytecode.validate` checks) the parse is
unique and can be computed by simulating the evaluation stack — no general
CFG parsing needed.  Tests cross-check this parser against the Earley parser
on small inputs to confirm the unambiguity claim.

The parser restarts at every ``LABELV``: each basic block becomes its own
parse tree rooted at ``<start>``, so the compressed form of a block is an
independent derivation and branch targets stay addressable (Section 4.1).

Two grammar shapes are supported, detected by their nonterminal names:

* the standard Appendix-2 grammar (``v0``/``v1``/... class nonterminals
  plus ``<v>``/``<x>`` chain rules), and
* "flat" operator grammars such as :func:`repro.grammar.initial.typed_grammar`,
  where each operator has a single rule ``lhs -> operand-NTs OP byte-NTs``.

Only *original* rules are used, so the same parser serves both the training
phase (original grammar) and the compressor's tiling phase (original rules
inside an expanded grammar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..bytecode.instructions import iter_decode
from ..bytecode.module import Module
from ..bytecode.opcodes import OP_BY_CODE, opcode
from ..core.program import program_for
from ..grammar.cfg import (
    Grammar,
    Rule,
    is_byte_terminal,
    is_nonterminal,
)
from .forest import Forest, Node

__all__ = ["ParseError", "ParsedBlock", "parse_blocks", "parse_procedure",
           "parse_module", "build_forest"]

_LABELV = opcode("LABELV")


class ParseError(ValueError):
    """Raised when a code stream does not derive from the grammar."""


@dataclass
class ParsedBlock:
    """One basic block's parse tree.

    ``start`` is the offset of the block's first instruction in the original
    code stream (i.e. just after the ``LABELV`` that opens it, or 0); the
    compressor uses it to rewrite label tables.
    """

    start: int
    tree: Node


@dataclass
class _OpPlan:
    op_rule: Rule
    wrap_rule: Optional[Rule]  # chain rule above the class rule, or None
    npop: int
    is_value: bool
    nbytes: int
    klass: str = ""


class _Plans:
    """Per-grammar lookup tables for the stack parser."""

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        names = set(grammar.nt_names)
        self.height = "h0" in names and "v0" in names
        self.standard = "v0" in names and not self.height
        start = grammar.nonterminal("start")
        byte = grammar.nonterminal("byte")
        self.byte_rules: Dict[int, Rule] = {}
        for rule in grammar.rules_for(byte):
            if rule.origin == "original" and len(rule.rhs) == 1:
                self.byte_rules[rule.rhs[0] - 256] = rule

        self.start_empty: Optional[Rule] = None
        self.start_chain: Optional[Rule] = None
        for rule in grammar.rules_for(start):
            if rule.origin != "original":
                continue
            if rule.rhs == ():
                self.start_empty = rule
            elif len(rule.rhs) == 2:
                self.start_chain = rule
        if self.start_empty is None or self.start_chain is None:
            raise ParseError("grammar lacks the <start> rules")

        self.plans: Dict[int, _OpPlan] = {}
        self.height_wraps: Dict[Tuple[str, int], Rule] = {}
        self.max_depth = 0
        if self.standard:
            self._build_standard()
        elif self.height:
            self._build_height()
        else:
            self._build_flat()

    def _build_standard(self) -> None:
        g = self.grammar
        v = g.nonterminal("v")
        x = g.nonterminal("x")
        chain: Dict[Tuple[int, ...], Rule] = {}
        for nt in (v, x):
            for rule in g.rules_for(nt):
                if rule.origin == "original":
                    chain[rule.rhs] = rule
        klass_nt = {k: g.nonterminal(k)
                    for k in ("v0", "v1", "v2", "x0", "x1", "x2")}
        wrap_for = {
            "v0": chain[(klass_nt["v0"],)],
            "v1": chain[(v, klass_nt["v1"])],
            "v2": chain[(v, v, klass_nt["v2"])],
            "x0": chain[(klass_nt["x0"],)],
            "x1": chain[(v, klass_nt["x1"])],
            "x2": chain[(v, v, klass_nt["x2"])],
        }
        npop = {"v0": 0, "v1": 1, "v2": 2, "x0": 0, "x1": 1, "x2": 2}
        for klass, nt in klass_nt.items():
            for rule in g.rules_for(nt):
                if rule.origin != "original" or not rule.rhs:
                    continue
                op_sym = rule.rhs[0]
                if is_nonterminal(op_sym) or is_byte_terminal(op_sym):
                    continue
                self.plans[op_sym] = _OpPlan(
                    op_rule=rule,
                    wrap_rule=wrap_for[klass],
                    npop=npop[klass],
                    is_value=klass.startswith("v"),
                    nbytes=OP_BY_CODE[op_sym].nlit,
                )

    def _build_height(self) -> None:
        """The stack-depth-tracking grammar: per-depth value chain rules."""
        g = self.grammar
        x = g.nonterminal("x")
        heights = []
        d = 0
        while f"h{d}" in g.nt_names:
            heights.append(g.nonterminal(f"h{d}"))
            d += 1
        self.max_depth = len(heights) - 1
        klass_nt = {k: g.nonterminal(k)
                    for k in ("v0", "v1", "v2", "x0", "x1", "x2")}

        chain: Dict[Tuple[int, ...], Rule] = {}
        for nt in [x] + heights:
            for rule in g.rules_for(nt):
                if rule.origin == "original":
                    chain[(rule.lhs,) + rule.rhs] = rule
        for depth, h in enumerate(heights):
            deeper = heights[min(depth + 1, self.max_depth)]
            self.height_wraps[("v0", depth)] = chain[(h, klass_nt["v0"])]
            self.height_wraps[("v1", depth)] = chain[
                (h, h, klass_nt["v1"])]
            self.height_wraps[("v2", depth)] = chain[
                (h, h, deeper, klass_nt["v2"])]
        self.height_wraps[("x0", 0)] = chain[(x, klass_nt["x0"])]
        self.height_wraps[("x1", 0)] = chain[
            (x, heights[0], klass_nt["x1"])]
        self.height_wraps[("x2", 0)] = chain[
            (x, heights[0], heights[1], klass_nt["x2"])]

        npop = {"v0": 0, "v1": 1, "v2": 2, "x0": 0, "x1": 1, "x2": 2}
        for klass, nt in klass_nt.items():
            for rule in g.rules_for(nt):
                if rule.origin != "original" or not rule.rhs:
                    continue
                op_sym = rule.rhs[0]
                if is_nonterminal(op_sym) or is_byte_terminal(op_sym):
                    continue
                self.plans[op_sym] = _OpPlan(
                    op_rule=rule,
                    wrap_rule=None,  # selected per depth at parse time
                    npop=npop[klass],
                    is_value=klass.startswith("v"),
                    nbytes=OP_BY_CODE[op_sym].nlit,
                    klass=klass,
                )

    def _build_flat(self) -> None:
        g = self.grammar
        x = g.nonterminal("x")
        for rule in list(g):
            if rule.origin != "original":
                continue
            op_sym = next(
                (s for s in rule.rhs
                 if not is_nonterminal(s) and not is_byte_terminal(s)),
                None,
            )
            if op_sym is None:
                continue
            operand_nts = [s for s in rule.rhs[: rule.rhs.index(op_sym)]
                           if is_nonterminal(s)]
            self.plans[op_sym] = _OpPlan(
                op_rule=rule,
                wrap_rule=None,
                npop=len(operand_nts),
                is_value=rule.lhs != x,
                nbytes=OP_BY_CODE[op_sym].nlit,
            )


def _plans_for(grammar: Grammar) -> _Plans:
    """The grammar's plan tables, memoized on its precompiled program
    (so they live exactly as long as the program cache keeps it)."""
    return program_for(grammar).derived(
        "parsing.plans", lambda: _Plans(grammar))


def parse_blocks(grammar: Grammar, code: bytes) -> List[ParsedBlock]:
    """Parse one code stream into per-block parse trees."""
    plans = _plans_for(grammar)
    blocks: List[ParsedBlock] = []
    spine = Node(plans.start_empty.id)
    stack: List[Node] = []
    block_start = 0

    def finish(next_start: int) -> None:
        nonlocal spine, block_start
        if stack:
            raise ParseError(
                f"offset {next_start}: {len(stack)} unconsumed values at "
                f"block end"
            )
        blocks.append(ParsedBlock(block_start, spine))
        spine = Node(plans.start_empty.id)
        block_start = next_start

    for off, ins in iter_decode(code):
        if ins.op.code == _LABELV:
            finish(off + 1)
            continue
        plan = plans.plans.get(ins.op.code)
        if plan is None:
            raise ParseError(f"offset {off}: no rule for {ins.op.name}")
        byte_nodes = [Node(plans.byte_rules[b].id) for b in ins.operands]
        if len(stack) < plan.npop:
            raise ParseError(
                f"offset {off}: {ins.op.name} needs {plan.npop} values, "
                f"stack has {len(stack)}"
            )
        operands = stack[len(stack) - plan.npop:]
        del stack[len(stack) - plan.npop:]
        if plan.wrap_rule is not None:  # standard grammar: class + chain
            op_node = Node(plan.op_rule.id, byte_nodes)
            node = Node(plan.wrap_rule.id, operands + [op_node])
        elif plans.height:  # depth-tracking grammar: chain chosen by depth
            depth = len(stack) if plan.is_value else 0
            wrap = plans.height_wraps[
                (plan.klass, min(depth, plans.max_depth))
            ]
            op_node = Node(plan.op_rule.id, byte_nodes)
            node = Node(wrap.id, operands + [op_node])
        else:  # flat grammar: single rule per operator
            node = Node(plan.op_rule.id, operands + byte_nodes)
        if plan.is_value:
            stack.append(node)
        else:
            if stack:
                # A statement completed while values remain: the input does
                # not derive from the grammar (statements are derived one
                # after another from an empty stack).  Refusing here keeps
                # the parse-tree yield identical to the input.
                raise ParseError(
                    f"offset {off}: {ins.op.name} completes a statement "
                    f"with {len(stack)} value(s) still on the stack"
                )
            spine = Node(plans.start_chain.id, [spine, node])
    finish(len(code))
    return blocks


def parse_procedure(grammar: Grammar, code: bytes) -> List[ParsedBlock]:
    """Alias of :func:`parse_blocks` (a procedure is one code stream)."""
    return parse_blocks(grammar, code)


def parse_module(grammar: Grammar, module: Module) -> List[List[ParsedBlock]]:
    """Parse every procedure of a module; result is parallel to
    ``module.procedures``."""
    return [parse_blocks(grammar, p.code) for p in module.procedures]


def build_forest(grammar: Grammar, modules) -> Forest:
    """Parse a training corpus (iterable of modules) into one forest, in
    corpus order: module by module, procedure by procedure, block by
    block."""
    forest = Forest()
    for module in modules:
        for proc_blocks in parse_module(grammar, module):
            for block in proc_blocks:
                forest.add(block.tree)
    return forest
