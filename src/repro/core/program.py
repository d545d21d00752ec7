"""The precompiled, content-addressed grammar core.

The expanded grammar is a single static artifact (the paper trains it
once, then ships it inside every compressed module), yet consumers used
to re-derive its structure independently per call: the Earley search
re-scanned rule lists to predict, the tiling compressor re-indexed
fragments, the encoder ran a linear ``list.index`` per derivation step,
the interpreter tables re-walked every right-hand side, and the storage
layer recomputed canonical rule ordinals three times over.

:class:`GrammarProgram` computes all of it exactly once per grammar
*instance* and is the one object every layer consumes:

* per-nonterminal rule tables with stable byte indices (``rules_of``,
  ``codeword_of`` — the codeword of a rule is its position in its
  nonterminal's rule list, paper Section 4);
* canonical original-rule ordinals (``original_to_ordinal`` /
  ``original_from_ordinal``), the serialization vocabulary of the RGR1
  provenance section;
* first-terminal prediction sets and nullability, per nonterminal and
  per rule — what lets the Earley predictor skip rules that cannot
  possibly start the remaining input;
* minimum expansion costs (fewest derivation steps to reach a terminal
  string), per nonterminal and per rule;
* reachability and productivity masks (:mod:`repro.grammar.analysis`);
* the tiling compressor's fragment index: candidate rules grouped by
  fragment root, each with a flat precompiled matcher program and its
  fragment size for subtree-size pruning.

Derived artifacts that belong to *higher* layers (interpreter tables,
flattened engine rows, optimizer indices) hang off the program through
:meth:`GrammarProgram.derived`, a per-program memo — the core stays
below :mod:`repro.parsing` and :mod:`repro.interp` in the layering, yet
every layer shares one cache keyed by one object.

Identity
--------

Each grammar instance owns its program: :func:`program_for` stores it
on the grammar, so it lives exactly as long as the grammar does, and a
process builds one program per grammar however many grammars it keeps.
The two refer to each other, so a grammar nobody holds is freed by the
cycle collector, program and derived tables with it.
Programs are never shared across instances: rule *ids* are
instance-specific (a trained grammar and its serialize/deserialize
round-trip number rules differently even though their content — and
therefore their codewords and compressed output — is identical), so
sharing a program across instances would silently mis-tile.
``compact_key`` is the one instance-independent content key, the
SHA-256 of the grammar's compact encoding: the service's engine
breaker, the poison verdicts, the RCX2 model binding and the native
build cache all use it.  A decoded grammar lives with its owner, which
keeps one instance per grammar and so gets one construction per
grammar: the service keeps each registered grammar in that grammar's
compressor, and container loads go through the owner's
:class:`repro.storage.GrammarTable`, which hands every load of one
grammar blob the same decoded instance.  Tests assert this against
:data:`GrammarProgram.constructions`.

Mutation
--------

Grammars mutate during training.  :func:`program_for` fingerprints the
grammar (rule count plus the never-reused next rule id) and rebuilds on
any rule addition or removal, replacing the program the grammar holds,
so a program can never describe a grammar that has since changed shape.
Code that mutates rules *in place* (``load_grammar`` re-attaching
provenance) must not call :func:`program_for` until it is done, or the
grammar would keep a program of its half-built state; it uses the pure
helpers :func:`original_ordinals` / :func:`non_byte_rows` directly.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from ..grammar.analysis import (
    productive_nonterminals,
    reachable_nonterminals,
)
from ..grammar.cfg import Grammar, Rule, is_nonterminal
from ..grammar.serialize import encode_grammar_compact

__all__ = [
    "GrammarProgram",
    "program_for",
    "original_ordinals",
    "non_byte_rows",
]

_INF = float("inf")


# -- pure helpers (safe on half-built grammars) ------------------------------

def original_ordinals(grammar: Grammar):
    """Maps rule id <-> (nonterminal index, position) for original rules.

    The *position* is the rule's index within its nonterminal's full rule
    list — the codeword — which training never disturbs for original
    rules (only inlined rules are appended or removed behind them is
    impossible: appends go to the end, removals only hit inlined rules).
    Pure function of the grammar's current state: the storage loader
    calls it mid-rebuild, before provenance is re-attached, so it must
    never go through :func:`program_for`.
    """
    to_ordinal: Dict[int, Tuple[int, int]] = {}
    from_ordinal: Dict[Tuple[int, int], int] = {}
    rules = grammar.rules
    for nt_index, nt in enumerate(grammar.nonterminals):
        for position, rid in enumerate(grammar.by_lhs[nt]):
            if rules[rid].origin == "original":
                to_ordinal[rid] = (nt_index, position)
                from_ordinal[(nt_index, position)] = rid
    return to_ordinal, from_ordinal


def non_byte_rows(grammar: Grammar) -> List[Tuple[int, Tuple[Rule, ...]]]:
    """``(nonterminal, rules)`` per nonterminal in allocation order, the
    ``<byte>`` nonterminal excluded — the row layout shared by the RGR1
    provenance section and the interpreter tables.  Grammars without a
    ``<byte>`` nonterminal (toy test grammars) get every row."""
    byte_nt = (grammar.nonterminal("byte")
               if "byte" in grammar.nt_names else None)
    rules = grammar.rules
    return [
        (nt, tuple(rules[rid] for rid in grammar.by_lhs[nt]))
        for nt in grammar.nonterminals
        if nt != byte_nt
    ]


# -- fragment matchers -------------------------------------------------------

def _compile_matcher(fragment) -> Tuple:
    """Flatten a fragment into a matcher program: a preorder tuple whose
    items are ``None`` for a hole or ``(original_rule_id, n_children)``
    for an internal node, in the exact order a stack walk visits them.
    Matching replays the program against a parse tree with a bare node
    stack — no per-node tuple zipping or list allocation."""
    prog: List[Optional[Tuple[int, int]]] = []
    stack = [fragment]
    while stack:
        frag = stack.pop()
        if frag is None:
            prog.append(None)
            continue
        rid, children = frag
        prog.append((rid, len(children)))
        for k in range(len(children) - 1, -1, -1):
            stack.append(children[k])
    return tuple(prog)


def match_fragment(matcher: Tuple, node) -> Optional[list]:
    """Match a precompiled fragment matcher at ``node``; returns the
    subtrees bound to the fragment's holes in left-to-right frontier
    order, or None.  Equivalent to recursively comparing the fragment
    against the tree (``Tiler._match_collect`` pre-refactor), byte for
    byte in the holes it returns."""
    holes: list = []
    nstack = [node]
    pop = nstack.pop
    found = holes.append
    for item in matcher:
        n = pop()
        if item is None:
            found(n)
            continue
        if n.rule_id != item[0]:
            return None
        children = n.children
        k = item[1]
        if k != len(children):
            return None
        while k:
            k -= 1
            nstack.append(children[k])
    return holes


# -- first / nullable / min-cost --------------------------------------------

def _prediction_tables(grammar: Grammar):
    """Fixpoint FIRST sets and nullability, per nonterminal and per rule.

    ``rule_first[rid]`` holds every terminal that can begin a string
    derived from the rule's RHS; ``rule_nullable[rid]`` is whether the
    RHS derives epsilon.  A predicted Earley item whose rule is neither
    nullable nor has the next input symbol in its first set can never
    scan, never complete, and never advance a parent — pruning it is
    exact (see ``parsing/earley.py``).
    """
    nullable: set = set()
    first: Dict[int, set] = {nt: set() for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for rule in grammar:
            f = first[rule.lhs]
            rhs_nullable = True
            for sym in rule.rhs:
                if is_nonterminal(sym):
                    before = len(f)
                    f |= first[sym]
                    if len(f) != before:
                        changed = True
                    if sym not in nullable:
                        rhs_nullable = False
                        break
                else:
                    if sym not in f:
                        f.add(sym)
                        changed = True
                    rhs_nullable = False
                    break
            if rhs_nullable and rule.lhs not in nullable:
                nullable.add(rule.lhs)
                changed = True
    rule_first: Dict[int, frozenset] = {}
    rule_nullable: Dict[int, bool] = {}
    for rule in grammar:
        fs: set = set()
        rhs_nullable = True
        for sym in rule.rhs:
            if is_nonterminal(sym):
                fs |= first[sym]
                if sym not in nullable:
                    rhs_nullable = False
                    break
            else:
                fs.add(sym)
                rhs_nullable = False
                break
        rule_first[rule.id] = frozenset(fs)
        rule_nullable[rule.id] = rhs_nullable
    return ({nt: frozenset(s) for nt, s in first.items()},
            frozenset(nullable), rule_first, rule_nullable)


def _min_costs(grammar: Grammar):
    """Minimum derivation lengths: fewest rules to derive a terminal
    string from each nonterminal, and per rule (1 + the sum over its RHS
    nonterminals).  Unproductive nonterminals stay at infinity."""
    nt_cost: Dict[int, float] = {nt: _INF for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for rule in grammar:
            cost = 1.0
            for sym in rule.rhs:
                if is_nonterminal(sym):
                    cost += nt_cost[sym]
                    if cost == _INF:
                        break
            if cost < nt_cost[rule.lhs]:
                nt_cost[rule.lhs] = cost
                changed = True
    rule_cost: Dict[int, float] = {}
    for rule in grammar:
        cost = 1.0
        for sym in rule.rhs:
            if is_nonterminal(sym):
                cost += nt_cost[sym]
        rule_cost[rule.id] = cost
    return nt_cost, rule_cost


# -- the program -------------------------------------------------------------

class GrammarProgram:
    """Everything precomputable about one grammar, computed once.

    Immutable after construction; see the module docstring for the full
    inventory.  Build through :func:`program_for` (which stores the
    program on its grammar), not directly.
    """

    #: constructions per ``compact_key`` — the process-wide evidence that
    #: a grammar's program is built once per owner (tested).
    constructions: "Counter[Optional[str]]" = Counter()

    def __init__(self, grammar: Grammar) -> None:
        self.grammar = grammar
        self.start = grammar.start
        self.byte_nt = (grammar.nonterminal("byte")
                        if "byte" in grammar.nt_names else None)
        #: (total rules, next rule id): changes on any rule add/remove,
        #: so :func:`program_for` can detect a mutated grammar.
        self.fingerprint = (grammar.total_rules(), grammar._next_rule_id)

        rules = grammar.rules
        self.rules_of: Dict[int, Tuple[Rule, ...]] = {
            nt: tuple(rules[rid] for rid in grammar.by_lhs[nt])
            for nt in grammar.nonterminals
        }
        #: rule id -> codeword (position in its nonterminal's rule list)
        self.codeword_of: Dict[int, int] = {
            rid: position
            for rids in grammar.by_lhs.values()
            for position, rid in enumerate(rids)
        }
        #: (nt, rules) rows excluding <byte> — the serialization and
        #: interpreter-table layout.
        self.rows: List[Tuple[int, Tuple[Rule, ...]]] = [
            (nt, self.rules_of[nt])
            for nt in grammar.nonterminals
            if nt != self.byte_nt
        ]
        self.original_to_ordinal, self.original_from_ordinal = \
            original_ordinals(grammar)

        (self.nt_first, self.nullable,
         self.rule_first, self.rule_nullable) = _prediction_tables(grammar)
        self.nt_min_cost, self.rule_min_cost = _min_costs(grammar)
        self.reachable = frozenset(reachable_nonterminals(grammar))
        self.productive = frozenset(productive_nonterminals(grammar))

        # Tiling index: candidates by fragment root, grammar iteration
        # order (the tie-break order), each as
        # (rule, fragment_size, trivial, matcher).  ``trivial`` marks the
        # one-node fragments of original rules, whose holes are exactly
        # the node's children — no matching needed.
        by_root: Dict[int, list] = {}
        for rule in grammar:
            matcher = _compile_matcher(rule.fragment)
            size = sum(1 for item in matcher if item is not None)
            trivial = size == 1
            by_root.setdefault(rule.fragment[0], []).append(
                (rule, size, trivial, matcher))
        self.fragments_by_root: Dict[int, tuple] = {
            rid: tuple(entries) for rid, entries in by_root.items()
        }

        #: SHA-256 hex of the grammar's compact encoding, the one content
        #: key (see the module docstring); None for a grammar the compact
        #: encoding cannot express (toy grammars whose ``<byte>`` is
        #: missing or not last).
        try:
            self.compact_key: Optional[str] = hashlib.sha256(
                encode_grammar_compact(grammar)).hexdigest()
        except ValueError:
            self.compact_key = None
        self._derived: Dict[str, object] = {}
        self._derived_lock = threading.Lock()
        GrammarProgram.constructions[self.compact_key] += 1

    # -- derived artifacts --------------------------------------------------

    def derived(self, key: str, builder: Callable[[], object]) -> object:
        """Per-program memo for artifacts built by higher layers
        (interpreter tables, flattened engine rows).  ``builder`` runs at
        most once per key; a builder that raises caches nothing, so a
        transient failure (an injected fault) does not poison the
        program."""
        value = self._derived.get(key)
        if value is not None:
            return value
        with self._derived_lock:
            value = self._derived.get(key)
            if value is None:
                value = builder()
                self._derived[key] = value
            return value

    # -- statistics ---------------------------------------------------------

    def stats(self) -> Dict:
        """Program statistics for reports and ``repro grammar stats``."""
        g = self.grammar
        terminals = sorted({
            sym
            for nt in g.nonterminals
            for rule in self.rules_of[nt]
            for sym in rule.rhs
            if not is_nonterminal(sym)
        })
        nts = g.nonterminals
        first_total = sum(len(self.nt_first[nt]) for nt in nts)
        density = (first_total / (len(nts) * len(terminals))
                   if nts and terminals else 0.0)
        return {
            "nonterminals": len(nts),
            "rules": g.total_rules(),
            "rules_per_nt": {
                g.nt_name(nt): len(self.rules_of[nt]) for nt in nts
            },
            "original_rules": len(self.original_to_ordinal),
            "terminals": len(terminals),
            "prediction_set_density": density,
            "prediction_set_sizes": {
                g.nt_name(nt): len(self.nt_first[nt]) for nt in nts
            },
            "nullable_nonterminals": sorted(
                g.nt_name(nt) for nt in self.nullable
            ),
            "min_expansion_cost": {
                g.nt_name(nt): (None if self.nt_min_cost[nt] == _INF
                                else int(self.nt_min_cost[nt]))
                for nt in nts
            },
            "reachable_nonterminals": len(self.reachable),
            "productive_nonterminals": len(self.productive),
            "compact_key": self.compact_key,
        }


# -- the grammar's own program -----------------------------------------------

_build_lock = threading.Lock()


def program_for(grammar: Grammar) -> GrammarProgram:
    """The :class:`GrammarProgram` of a grammar instance, kept on the
    grammar and rebuilt when its rule-set fingerprint changes (training
    mutates grammars in place)."""
    fingerprint = (grammar.total_rules(), grammar._next_rule_id)
    program = grammar._program
    if program is not None and program.fingerprint == fingerprint:
        return program
    # Built under the lock: construction is cheap relative to any
    # consumer, and a concurrent double build would double-count the
    # per-key construction counter.
    with _build_lock:
        program = grammar._program
        if program is None or program.fingerprint != fingerprint:
            program = GrammarProgram(grammar)
            grammar._program = program
        return program
