"""Parse trees and forests (paper Section 4.1).

A parse-tree node is labeled with a *rule*; an internal node has one child
per nonterminal occurrence on the rule's right-hand side (terminal symbols
carry no information beyond the rule identity, so they are not materialized
as leaves).  The training corpus parses into a *forest* because the parser
restarts at every potential branch target (``LABELV``).

Nodes carry parent links so the grammar expander can contract edges in
place (Figure 2).  All traversals are iterative: spine-shaped trees (the
left-recursive ``<start>`` chain) would overflow Python's recursion limit.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from ..grammar.cfg import Grammar, is_nonterminal

__all__ = ["Node", "preorder", "terminal_yield", "tree_size", "Forest"]


class Node:
    """A parse-tree node: a rule application."""

    __slots__ = ("rule_id", "children", "parent", "pindex")

    def __init__(self, rule_id: int, children: Sequence["Node"] = ()) -> None:
        self.rule_id = rule_id
        self.children: List[Node] = list(children)
        self.parent: Optional[Node] = None
        self.pindex: int = -1
        for i, child in enumerate(self.children):
            child.parent = self
            child.pindex = i

    def replace_children(self, children: Sequence["Node"]) -> None:
        """Install a new child list, fixing parent links and indices."""
        self.children = list(children)
        for i, child in enumerate(self.children):
            child.parent = self
            child.pindex = i

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(r{self.rule_id}, {len(self.children)} children)"


def preorder(root: Node) -> Iterator[Node]:
    """Iterative preorder traversal (node before its children)."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def tree_size(root: Node) -> int:
    """Number of rule applications in the tree = derivation length."""
    return sum(1 for _ in preorder(root))


def terminal_yield(root: Node, grammar: Grammar) -> List[int]:
    """Reconstruct the terminal string (symbol list) the tree derives.

    Walks each node's RHS left to right: terminals are emitted, nonterminal
    occurrences descend into the corresponding child.
    """
    out: List[int] = []
    # Work stack holds either ('node', node) or ('emit', symbol).
    stack: List[tuple] = [("node", root)]
    while stack:
        kind, payload = stack.pop()
        if kind == "emit":
            out.append(payload)
            continue
        node = payload
        rule = grammar.rules[node.rule_id]
        items: List[tuple] = []
        child_i = 0
        for sym in rule.rhs:
            if is_nonterminal(sym):
                items.append(("node", node.children[child_i]))
                child_i += 1
            else:
                items.append(("emit", sym))
        stack.extend(reversed(items))
    return out


class Forest:
    """An ordered collection of block parse trees.

    ``blocks[i]`` is the parse tree of the i-th basic block of the training
    corpus (reading procedures in order, blocks split at ``LABELV``).
    """

    def __init__(self, blocks: Optional[List[Node]] = None) -> None:
        self.blocks: List[Node] = blocks if blocks is not None else []

    def add(self, root: Node) -> None:
        self.blocks.append(root)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[Node]:
        return iter(self.blocks)

    def nodes(self) -> Iterator[Node]:
        for root in self.blocks:
            yield from preorder(root)

    def size(self) -> int:
        """Total derivation length across all blocks (compressed bytes if
        one byte encodes one derivation step)."""
        return sum(tree_size(root) for root in self.blocks)
