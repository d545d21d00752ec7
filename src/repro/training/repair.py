"""MR-RePair-style maximal-repeat grammar seeding.

Classic RePair replaces the single most frequent *pair* per step; MR-RePair
(Furuya et al.) and practical RePair variants (Bille et al.) observe that
when a whole maximal repeat recurs, replacing it in one step produces the
same grammar with far fewer rounds and no cascade of throwaway
intermediate rules.  This module lifts that idea from strings to the
training forest:

* a *shape* is a complete subtree of the forest in which every
  ``<byte>``-rooted child is abstracted into a hole.  Because a complete
  subtree's terminal yield is one contiguous substring of the flattened
  bytecode stream, shapes are exactly the repeats of the corpus that a
  single grammar rule can capture — a shape occurring ``k`` times is a
  maximal repeat with ``k`` (non-overlapping) occurrences;
* one *round* hash-conses every node's shape in a single postorder pass,
  ranks repeated shapes by saved derivation steps
  (``count * (nodes - 1)``), and greedily claims and contracts
  non-overlapping occurrences, adding one rule per distinct shape;
* contracted nodes become units of the next round, so repeats *of
  repeats* seed on later rounds, until a round contracts nothing.

Seeded rules splice their constituent rules' right-hand sides together,
so their RHS contains only operators and ``<byte>`` nonterminals (every
non-byte child is inlined away); their fragments are built over original
rule ids only, which keeps them serializable (RGR1) and tileable by the
compressor exactly like greedily-inlined rules.  The per-nonterminal
seed budget (``budget_frac`` of the remaining 256-rule capacity) is what
the hybrid trainer uses to leave the profiled greedy expander room to
refine — e.g. to burn frequent literals into the seeded holes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..grammar.cfg import Grammar, is_nonterminal
from ..parsing.forest import Forest, Node

__all__ = ["SeedReport", "repair_seed"]

#: the interned key id of a hole (a ``<byte>``-rooted subtree)
_HOLE = 0


def _span_and_holes(node: Node, rules, byte_nt: int
                    ) -> Tuple[List[Node], List[Node]]:
    """The non-hole nodes of ``node``'s subtree (preorder) and its
    ``<byte>``-rooted frontier children in left-to-right order."""
    span: List[Node] = []
    holes: List[Node] = []
    stack = [node]
    while stack:
        n = stack.pop()
        if rules[n.rule_id].lhs == byte_nt:
            holes.append(n)
            continue
        span.append(n)
        stack.extend(reversed(n.children))
    return span, holes


def _fill_frontier(fragment, subs):
    """Replace the holes of ``fragment`` (left-to-right frontier order)
    with ``subs``; a ``None`` sub keeps its hole.

    Recursion depth is bounded by the seeded-shape size cap
    (``max_rule_symbols``), never by forest spines — seeded fragments
    stay well inside both the recursion limit and the recursive
    fragment machinery in :mod:`repro.grammar.cfg`.
    """
    it = iter(subs)

    def go(frag):
        rule_id, children = frag
        return (rule_id, tuple(
            next(it) if child is None else go(child)
            for child in children))

    out = go(fragment)
    leftover = sum(1 for _ in it)
    if leftover:
        raise ValueError(f"{leftover} unplaced fragment substitution(s)")
    return out


def _materialize(k: int, rules, krule, kids, rhs_cache, frag_cache,
                 limit: int):
    """The RHS and fragment a rule for shape ``k`` would have, or
    ``(None, None)`` when the spliced RHS exceeds ``limit`` symbols
    (rules must stay compact-encodable: bodies are length-prefixed with
    one byte).  Iterative over the shape DAG; memoized across shapes."""
    stack = [k]
    while stack:
        cur = stack[-1]
        if cur in rhs_cache:
            stack.pop()
            continue
        pending = [c for c in kids[cur]
                   if c != _HOLE and c not in rhs_cache]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        rule = rules[krule[cur]]
        rhs: List[int] = []
        ok = True
        child_i = 0
        for sym in rule.rhs:
            if is_nonterminal(sym):
                child = kids[cur][child_i]
                child_i += 1
                if child == _HOLE:
                    rhs.append(sym)  # stays a <byte> hole
                else:
                    sub = rhs_cache[child]
                    if sub is None:
                        ok = False
                        break
                    rhs.extend(sub)
            else:
                rhs.append(sym)
            if len(rhs) > limit:
                ok = False
                break
        if not ok:
            rhs_cache[cur] = None
            frag_cache[cur] = None
            continue
        subs = [None if c == _HOLE else frag_cache[c] for c in kids[cur]]
        rhs_cache[cur] = tuple(rhs)
        frag_cache[cur] = _fill_frontier(rule.fragment, subs)
    return rhs_cache[k], frag_cache[k]


@dataclass
class SeedReport:
    """What one seed phase did (folded into the TrainingReport)."""

    rules_added: int = 0
    rules_reused: int = 0
    rounds: int = 0
    contractions: int = 0
    round_seconds: List[float] = field(default_factory=list)


def repair_seed(grammar: Grammar, forest: Forest, *,
                min_count: int = 2,
                max_rounds: int = 8,
                max_rule_symbols: int = 64,
                budget_frac: float = 1.0) -> SeedReport:
    """Seed ``grammar`` with the forest's maximal repeats (in place).

    Args:
        min_count: a shape must occur (contractably) at least this often
            to earn a rule — the same threshold the greedy expander
            applies to edges.
        max_rounds: hard cap on collect-and-contract rounds (each round
            terminates on its own when nothing contracts).
        max_rule_symbols: largest seeded RHS, in symbols.  Caps both the
            encoded rule body (must fit a one-byte length) and the depth
            of seeded fragments.
        budget_frac: fraction of each nonterminal's remaining rule
            capacity (at seed start) the seed phase may consume; the
            rest is left for the refine phase.

    Everything is deterministic: shape ids are assigned in forest
    preorder and ties break toward earlier ids.
    """
    byte_nt = grammar.nonterminal("byte")
    rules = grammar.rules
    budget: Dict[int, int] = {
        nt: int((grammar.max_rules_per_nt - grammar.num_rules(nt))
                * budget_frac)
        for nt in grammar.nonterminals
    }
    #: fragment -> seeded rule id, so a shape recurring in a later round
    #: (composed differently) reuses its rule instead of duplicating it
    existing: Dict[tuple, int] = {}
    report = SeedReport()

    for _ in range(max_rounds):
        round_start = time.perf_counter()

        # -- collect: hash-cons every node's shape, one postorder pass --
        intern: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        krule: List[int] = [-1]      # index 0 = the hole pseudo-shape
        kids: List[Tuple[int, ...]] = [()]
        knodes: List[int] = [0]
        klhs: List[int] = [0]
        kocc: List[Optional[List[Node]]] = [None]
        keys: Dict[int, int] = {}    # id(node) -> shape id
        for root in forest:
            stack = [(root, False)]
            while stack:
                node, done = stack.pop()
                if not done:
                    stack.append((node, True))
                    for child in reversed(node.children):
                        stack.append((child, False))
                    continue
                if rules[node.rule_id].lhs == byte_nt:
                    keys[id(node)] = _HOLE
                    continue
                child_keys = tuple(keys[id(c)] for c in node.children)
                sig = (node.rule_id, child_keys)
                k = intern.get(sig)
                if k is None:
                    k = len(krule)
                    intern[sig] = k
                    krule.append(node.rule_id)
                    kids.append(child_keys)
                    knodes.append(1 + sum(knodes[c] for c in child_keys))
                    klhs.append(rules[node.rule_id].lhs)
                    kocc.append([])
                kocc[k].append(node)
                keys[id(node)] = k

        # -- rank: most saved derivation steps first, then count, then
        #    first-seen shape id (all deterministic) --
        candidates = [
            k for k in range(1, len(krule))
            if 2 <= knodes[k] <= max_rule_symbols
            and len(kocc[k]) >= min_count
        ]
        candidates.sort(key=lambda k: (
            -len(kocc[k]) * (knodes[k] - 1), -len(kocc[k]), k))

        # -- claim and contract --
        claimed = set()
        rhs_cache: Dict[int, Optional[tuple]] = {}
        frag_cache: Dict[int, Optional[tuple]] = {}
        round_contractions = 0
        for k in candidates:
            lhs = klhs[k]
            rhs, frag = _materialize(k, rules, krule, kids,
                                     rhs_cache, frag_cache,
                                     max_rule_symbols)
            if rhs is None:
                continue
            rule_id = existing.get(frag)
            if rule_id is None and (budget.get(lhs, 0) <= 0
                                    or not grammar.can_grow(lhs)):
                continue
            # Occurrences whose span is still untouched this round.
            # Same-shape occurrences can never overlap (nesting would
            # change the node count, hence the shape), so claiming after
            # the filter is sound.
            usable = []
            for node in kocc[k]:
                span, holes = _span_and_holes(node, rules, byte_nt)
                if any(id(s) in claimed for s in span):
                    continue
                usable.append((node, span, holes))
            if len(usable) < (min_count if rule_id is None else 1):
                continue
            if rule_id is None:
                rule = grammar.add_rule(lhs, rhs, origin="inlined",
                                        fragment=frag)
                rule_id = rule.id
                existing[frag] = rule_id
                budget[lhs] -= 1
                report.rules_added += 1
            else:
                report.rules_reused += 1
            for node, span, holes in usable:
                for s in span:
                    claimed.add(id(s))
                node.rule_id = rule_id
                node.replace_children(holes)
                round_contractions += len(span) - 1
        report.contractions += round_contractions
        report.rounds += 1
        report.round_seconds.append(time.perf_counter() - round_start)
        if round_contractions == 0:
            break
    return report
