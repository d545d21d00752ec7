"""Context-free grammar machinery (paper Section 4.1).

Symbols are plain ints for speed:

* **nonterminals** are negative ints, ``-1, -2, ...`` (allocated by the
  grammar in creation order);
* **operator terminals** are the opcode byte values ``0..len(OPS)-1``;
* **literal-byte terminals** are ``BYTE_TERM_BASE + value`` for
  ``value in 0..255`` (the alternatives of the ``<byte>`` nonterminal).

Every rule carries a *fragment*: the tree of original-grammar rules it was
built from by inlining.  Original rules have a one-node fragment whose
children are all holes; inlining rule B into rule A grafts B's fragment into
the corresponding hole of A's fragment.  Fragments are what let the
compressor treat shortest-derivation search as exact tree tiling (see
DESIGN.md Section 5), and they record the provenance the interpreter
generator needs.

A fragment is a nested tuple ``(rule_id, children)`` where ``children`` has
one slot per *nonterminal occurrence* of the rule's right-hand side, in
left-to-right order; a slot is either ``None`` (a hole, to be matched
against any subtree for that nonterminal) or another fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "BYTE_TERM_BASE",
    "byte_terminal",
    "byte_value",
    "is_nonterminal",
    "is_terminal",
    "is_byte_terminal",
    "Rule",
    "Grammar",
    "Fragment",
    "fragment_hole_count",
    "fragment_graft",
    "fragment_rules",
    "fragment_size",
]

BYTE_TERM_BASE = 256

Fragment = Tuple[int, tuple]  # (rule_id, children); child = Fragment | None


def byte_terminal(value: int) -> int:
    """The terminal symbol for the literal byte ``value``."""
    if not 0 <= value <= 255:
        raise ValueError(f"byte value {value} out of range")
    return BYTE_TERM_BASE + value


def byte_value(sym: int) -> int:
    """Inverse of :func:`byte_terminal`."""
    if not BYTE_TERM_BASE <= sym < BYTE_TERM_BASE + 256:
        raise ValueError(f"{sym} is not a byte terminal")
    return sym - BYTE_TERM_BASE


def is_nonterminal(sym: int) -> bool:
    return sym < 0


def is_terminal(sym: int) -> bool:
    return sym >= 0


def is_byte_terminal(sym: int) -> bool:
    return sym >= BYTE_TERM_BASE


@dataclass
class Rule:
    """One grammar rule ``lhs -> rhs``.

    Attributes:
        id: globally unique, never reused.
        lhs: nonterminal symbol.
        rhs: tuple of symbols (may be empty for epsilon rules).
        origin: ``"original"`` or ``"inlined"``.  Original rules may never
            be removed (removing one could shrink the language, Section 4.1);
            unused inlined rules may.
        fragment: provenance tree over original rule ids (see module doc).
    """

    id: int
    lhs: int
    rhs: Tuple[int, ...]
    origin: str = "original"
    fragment: Optional[Fragment] = None
    nt_positions: Tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.nt_positions = tuple(
            i for i, s in enumerate(self.rhs) if is_nonterminal(s)
        )
        if self.fragment is None:
            self.fragment = (self.id, (None,) * len(self.nt_positions))

    @property
    def arity(self) -> int:
        """Number of nonterminal occurrences on the right-hand side."""
        return len(self.nt_positions)

    def nts(self) -> Tuple[int, ...]:
        """The nonterminal symbols of the RHS, in order."""
        return tuple(self.rhs[i] for i in self.nt_positions)


class Grammar:
    """A mutable CFG with per-nonterminal rule ordering.

    The position of a rule in its nonterminal's rule list is the rule's
    *codeword*: the byte emitted for one derivation step (Section 4).  The
    expander refuses to grow a nonterminal past ``max_rules_per_nt``
    (256 in the paper, so one derivation step fits in one byte).
    """

    def __init__(self, max_rules_per_nt: int = 256) -> None:
        self.max_rules_per_nt = max_rules_per_nt
        self.nt_names: List[str] = []
        self.rules: Dict[int, Rule] = {}
        self.by_lhs: Dict[int, List[int]] = {}
        self.start: Optional[int] = None
        self._next_rule_id = 0
        #: the precompiled program (``repro.core.program_for``); opaque
        #: here, so this layer imports nothing from the core
        self._program = None

    # -- nonterminals -----------------------------------------------------
    def add_nonterminal(self, name: str) -> int:
        if name in self.nt_names:
            raise ValueError(f"duplicate nonterminal {name!r}")
        self.nt_names.append(name)
        nt = -len(self.nt_names)
        self.by_lhs[nt] = []
        return nt

    def nonterminal(self, name: str) -> int:
        """Look up a nonterminal symbol by name."""
        return -(self.nt_names.index(name) + 1)

    def nt_name(self, nt: int) -> str:
        return self.nt_names[-nt - 1]

    @property
    def nonterminals(self) -> List[int]:
        return [-(i + 1) for i in range(len(self.nt_names))]

    # -- rules ------------------------------------------------------------
    def add_rule(self, lhs: int, rhs: Sequence[int],
                 origin: str = "original",
                 fragment: Optional[Fragment] = None) -> Rule:
        if lhs not in self.by_lhs:
            raise ValueError(f"unknown nonterminal {lhs}")
        # The cap governs *growth* ("stop creating rules for a non-terminal
        # once it has N rules"); original rules are admitted regardless so
        # small ablation caps still accept the initial grammar.
        if origin != "original" and not self.can_grow(lhs):
            raise ValueError(
                f"nonterminal {self.nt_name(lhs)} already has "
                f"{len(self.by_lhs[lhs])} rules (cap {self.max_rules_per_nt})"
            )
        rule = Rule(self._next_rule_id, lhs, tuple(rhs), origin, fragment)
        self._next_rule_id += 1
        self.rules[rule.id] = rule
        self.by_lhs[lhs].append(rule.id)
        return rule

    def remove_rule(self, rule_id: int) -> None:
        rule = self.rules[rule_id]
        if rule.origin == "original":
            raise ValueError(
                "refusing to remove an original rule (language change)"
            )
        del self.rules[rule_id]
        self.by_lhs[rule.lhs].remove(rule_id)

    def rule_index(self, rule_id: int) -> int:
        """The codeword (position within the LHS rule list) of a rule."""
        rule = self.rules[rule_id]
        return self.by_lhs[rule.lhs].index(rule_id)

    def rules_for(self, nt: int) -> List[Rule]:
        return [self.rules[rid] for rid in self.by_lhs[nt]]

    def num_rules(self, nt: int) -> int:
        return len(self.by_lhs[nt])

    def can_grow(self, nt: int) -> bool:
        return len(self.by_lhs[nt]) < self.max_rules_per_nt

    def total_rules(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        for nt in self.nonterminals:
            for rid in self.by_lhs[nt]:
                yield self.rules[rid]

    # -- display ----------------------------------------------------------
    def symbol_name(self, sym: int) -> str:
        if is_nonterminal(sym):
            return f"<{self.nt_name(sym)}>"
        if is_byte_terminal(sym):
            return str(byte_value(sym))
        from ..bytecode.opcodes import opname
        return opname(sym)

    def rule_str(self, rule: Rule) -> str:
        rhs = " ".join(self.symbol_name(s) for s in rule.rhs) or "ε"
        return f"<{self.nt_name(rule.lhs)}> -> {rhs}"

    def dump(self, include_bytes: bool = False) -> str:
        """Human-readable listing, one rule per line."""
        lines = []
        byte_nt = None
        if "byte" in self.nt_names and not include_bytes:
            byte_nt = self.nonterminal("byte")
        for rule in self:
            if byte_nt is not None and rule.lhs == byte_nt and (
                rule.origin == "original"
            ):
                continue
            idx = self.rule_index(rule.id)
            lines.append(f"{idx:3d}. {self.rule_str(rule)}")
        return "\n".join(lines)

    # -- integrity --------------------------------------------------------
    def check(self) -> None:
        """Internal-consistency assertions (used heavily by tests)."""
        for nt, rids in self.by_lhs.items():
            # Growth is capped; original rules may exceed a small ablation
            # cap, but byte-encodability (<= 256) must always hold.
            assert len(rids) <= max(self.max_rules_per_nt, 256)
            for rid in rids:
                rule = self.rules[rid]
                assert rule.lhs == nt
                for sym in rule.rhs:
                    if is_nonterminal(sym):
                        assert sym in self.by_lhs, f"dangling NT {sym}"
                assert fragment_hole_count(rule.fragment) == rule.arity
        for rid, rule in self.rules.items():
            assert rid == rule.id
            assert rid in self.by_lhs[rule.lhs]


# -- fragment utilities ----------------------------------------------------

def fragment_hole_count(fragment: Optional[Fragment]) -> int:
    """Number of holes (frontier nonterminals) in a fragment."""
    if fragment is None:
        return 1
    _, children = fragment
    return sum(fragment_hole_count(c) for c in children)


def fragment_graft(fragment: Fragment, hole_index: int,
                   sub: Fragment) -> Fragment:
    """Return a copy of ``fragment`` with its ``hole_index``-th hole (in
    left-to-right frontier order) replaced by ``sub``."""

    def go(frag: Fragment, k: int) -> Tuple[Fragment, int]:
        # Returns the rewritten fragment and the remaining hole index,
        # which is negative once the graft has been placed.
        rule_id, children = frag
        new_children = list(children)
        for i, child in enumerate(children):
            if k < 0:
                break
            if child is None:
                if k == 0:
                    new_children[i] = sub
                    k = -1
                else:
                    k -= 1
            else:
                holes = fragment_hole_count(child)
                if k < holes:
                    new_children[i], k = go(child, k)
                else:
                    k -= holes
        return (rule_id, tuple(new_children)), k

    result, k = go(fragment, hole_index)
    if k >= 0:
        raise IndexError(f"hole {hole_index} out of range")
    return result


def fragment_rules(fragment: Fragment) -> List[int]:
    """All original rule ids appearing in a fragment (preorder)."""
    out: List[int] = []
    stack = [fragment]
    while stack:
        rule_id, children = stack.pop()
        out.append(rule_id)
        for child in reversed(children):
            if child is not None:
                stack.append(child)
    return out


def fragment_size(fragment: Fragment) -> int:
    """Number of original rules a fragment covers."""
    return len(fragment_rules(fragment))
