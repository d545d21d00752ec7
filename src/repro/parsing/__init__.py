"""Parsers: deterministic stack parser, Earley, shortest derivation."""

from .derivation import DerivationCache
from .forest import Forest, Node, preorder, terminal_yield, tree_size
from .stackparser import (
    ParseError,
    ParsedBlock,
    build_forest,
    parse_blocks,
    parse_module,
)

__all__ = [
    "DerivationCache",
    "Forest", "Node", "preorder", "terminal_yield", "tree_size",
    "ParseError", "ParsedBlock", "build_forest", "parse_blocks",
    "parse_module",
]
