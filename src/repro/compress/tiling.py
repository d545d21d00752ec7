"""Shortest derivations by exact tree tiling (the production compressor).

Every rule of an expanded grammar carries a *fragment*: the tree of original
rules it was inlined from.  Because the initial grammar is unambiguous on
valid bytecode, any derivation of a block under the expanded grammar
corresponds one-to-one to a *tiling* of the block's (unique) original parse
tree by rule fragments, and the derivation length equals the number of
tiles.  So the paper's "shortest derivation under the ambiguous expanded
grammar" (Section 4.1, found there with a modified Earley parser) is,
equivalently, a minimum tiling — which bottom-up dynamic programming over
the parse tree solves exactly, in time linear in the tree times the local
pattern-match work.  Tests cross-check this against
:func:`repro.parsing.earley.shortest_derivation`.

The per-node pattern-match work runs over the grammar's precompiled
:class:`~repro.core.program.GrammarProgram`: fragments come pre-indexed
by root rule with flat matcher programs (no per-node ``zip``/``list``
allocation) and precomputed sizes.  Two pruning steps keep the result
bit-identical to the pre-refactor tiler (frozen as
``repro.compress.oracle.OracleTiler``): a fragment larger than the
subtree rooted at the node is skipped — it could not have matched, since
a successful match maps fragment nodes injectively into the subtree —
and the one-node fragments of original rules skip matching entirely,
binding the node's children as holes directly (a parse tree node always
carries exactly its rule's arity in children).  Neither prune changes
which candidate wins a tie: candidates are still considered in grammar
iteration order and the first strictly cheaper one is kept.

This is the same shape of DP as BURS-style tree-pattern instruction
selection, which is fitting: the expanded grammar *is* a custom
instruction set.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core.program import match_fragment, program_for
from ..grammar.cfg import Grammar, Rule
from ..parsing.forest import Node, preorder

__all__ = ["Tiler"]


class Tiler:
    """Minimum-tiling compressor for parse trees under an expanded grammar.

    Build one per trained grammar; :meth:`tile` may then be called for every
    block of every program to compress.
    """

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.program = program_for(grammar)
        # Candidate (rule, size, trivial, matcher) entries indexed by the
        # original rule at their fragment root, grammar iteration order.
        self._by_root = self.program.fragments_by_root

    # -- DP -------------------------------------------------------------------
    def tile(self, tree: Node) -> Node:
        """Return the minimum-derivation parse tree of ``tree``'s yield
        under the expanded grammar (nodes labeled with expanded rules)."""
        cost, choice = self._solve(tree)
        return self._rebuild(tree, choice)

    def tile_cost(self, tree: Node) -> int:
        """Minimum derivation length without building the result tree."""
        cost, _ = self._solve(tree)
        return cost

    def _solve(self, tree: Node) -> Tuple[int, Dict[int, Tuple[Rule, List[Node]]]]:
        nodes = list(preorder(tree))
        best_cost: Dict[int, int] = {}
        subtree_size: Dict[int, int] = {}
        choice: Dict[int, Tuple[Rule, List[Node]]] = {}
        by_root = self._by_root
        # Children precede parents in reversed preorder, so both the
        # subtree sizes and the DP costs are available bottom-up.
        for node in reversed(nodes):
            size = 1
            for child in node.children:
                size += subtree_size[id(child)]
            subtree_size[id(node)] = size
            candidates = by_root.get(node.rule_id)
            if not candidates:
                raise ValueError(
                    f"no rule of the expanded grammar covers original rule "
                    f"{node.rule_id} (was the tree parsed with this "
                    f"grammar's original rules?)"
                )
            node_best = None
            node_rule = None
            node_holes = None
            for rule, frag_size, trivial, matcher in candidates:
                if frag_size > size:
                    continue
                if trivial:
                    holes = node.children
                else:
                    holes = match_fragment(matcher, node)
                    if holes is None:
                        continue
                cost = 1
                for sub in holes:
                    cost += best_cost[id(sub)]
                if node_best is None or cost < node_best:
                    node_best = cost
                    node_rule = rule
                    node_holes = holes
            if node_best is None:
                raise ValueError(
                    f"no fragment matches at rule {node.rule_id}"
                )
            best_cost[id(node)] = node_best
            choice[id(node)] = (node_rule, node_holes)
        return best_cost[id(tree)], choice

    @staticmethod
    def _rebuild(tree: Node,
                 choice: Dict[int, Tuple[Rule, List[Node]]]) -> Node:
        rule, holes = choice[id(tree)]
        root = Node(rule.id)
        work: List[Tuple[Node, List[Node], int]] = [(root, holes, 0)]
        while work:
            parent, bindings, i = work[-1]
            if i == len(bindings):
                work.pop()
                continue
            work[-1] = (parent, bindings, i + 1)
            sub_rule, sub_holes = choice[id(bindings[i])]
            child = Node(sub_rule.id)
            parent.children.append(child)
            child.parent = parent
            child.pindex = i
            work.append((child, sub_holes, 0))
        return root
