"""Probabilistic rule model estimated from the training forest.

The paper's coding is uniform: every derivation step spends one byte,
whatever the rule.  The training forest says that is wasteful — rule
usage per nonterminal is heavily skewed (the expander *selects* rules by
``use_count``), and literal bytes under ``<byte>`` are dominated by
small constants.  A :class:`RuleModel` captures that skew as one static
frequency table per nonterminal:

* **Counts** come from the post-training forest: one increment per
  forest node, bucketed by (nonterminal, codeword).  They are raw
  (unsmoothed) in the serialized form, so the model is a faithful
  record of the training data.
* **Laplace smoothing** (+1 per rule) is applied when the tables are
  built, so a rule the training corpus never used stays encodable —
  essential when a grammar trained on one program codes another.
* **Adaptation**: the trained counts are only a *prior*.  A grammar is
  routinely trained on one program and then codes another whose rule
  usage looks different; a static table tops out well short of the
  achievable skew.  So each stream is coded by a :class:`StreamCoder`
  that seeds every context with the smoothed prior and bumps the chosen
  symbol's count by ``ADAPT_INC`` after each coded step — encoder and
  decoder walk the identical symbol sequence, so their tables stay in
  lockstep without any side information.  When a context's total would
  exceed the range coder's 2^16 budget, all its counts are halved
  (floor at 1), which also ages out the prior in favour of the stream's
  own statistics.  Pure integer arithmetic throughout, so the coded
  bytes are identical on every platform.
* **End of stream**: the ``<start>`` context carries one extra symbol
  after its rules.  Every basic block begins at ``<start>``, so that is
  the only context where "another block" and "procedure ends" compete;
  its observed count is the number of procedures in the corpus.

Identity: a model embeds the SHA-256 of its grammar's *compact
encoding* (``GrammarProgram.compact_key``) — the same bytes RCX2 and
RGR1 files carry — so a container can detect a model paired with the
wrong grammar without re-encoding anything.  ``model_for(program)``
memoizes the built model via ``GrammarProgram.derived()``, so every
consumer (storage, service workers, CLI stats) shares one instance.

Training attaches the raw counts to the grammar as
``grammar.coding_counts`` (see :func:`attach_counts`); grammars loaded
from legacy RGR1 files lack them, and :func:`model_for` then raises
:class:`ModelMissingError` — the structured "train first or use rcx1"
signal the service maps to its retryable ``model_missing`` error.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .. import faults
from ..core.program import GrammarProgram, program_for
from .rangecoder import BOTTOM, RangeDecoder, RangeEncoder, cumulative

__all__ = [
    "ADAPT_INC", "CONTEXT_TOTAL", "ModelMissingError", "RuleModel",
    "StreamCoder", "model_for", "parse_model", "derive_counts",
    "attach_counts",
]

#: every context's quantized frequencies sum to exactly this (2^14 —
#: comfortably under the range coder's 2^16 total budget, and enough
#: resolution that a once-seen rule among thousands still gets a
#: distinguishable probability).  Used by the *static* entropy report
#: (``stats``); the coded stream itself adapts, see StreamCoder.
CONTEXT_TOTAL = 1 << 14

#: how much a coded symbol's count grows after each step.  Large
#: relative to the +1-smoothed prior, so a cross-coded program's own
#: rule usage overtakes the training distribution within a few dozen
#: occurrences of a context; small enough that the prior still carries
#: the first steps of every stream.
ADAPT_INC = 32

_MAGIC = b"RMD1"
_VERSION = 1

#: the attribute training hangs the raw counts on (see attach_counts)
COUNTS_ATTR = "coding_counts"


class ModelMissingError(LookupError):
    """The grammar carries no training counts, so no RuleModel can be
    built — retrain (counts attach during training) or use rcx1."""


def _quantize(counts: Sequence[int], total: int) -> List[int]:
    """Deterministic largest-remainder quantization: integer frequencies
    summing to exactly ``total``, every entry >= 1, ordered ties broken
    by index.  ``counts`` must be positive (Laplace-smoothed)."""
    n = len(counts)
    if n == 0:
        return []
    if total < n:
        raise ValueError(f"cannot fit {n} symbols in total {total}")
    s = sum(counts)
    spare = total - n
    raw: List[int] = []
    remainders: List[Tuple[int, int]] = []
    for i, c in enumerate(counts):
        if c <= 0:
            raise ValueError("counts must be positive (smoothed)")
        q, r = divmod(c * spare, s)
        raw.append(q)
        remainders.append((-r, i))
    remainders.sort()
    freqs = [1 + q for q in raw]
    for k in range(spare - sum(raw)):
        freqs[remainders[k][1]] += 1
    return freqs


class RuleModel:
    """Static per-nonterminal frequency tables bound to one grammar.

    ``counts[i][w]`` is the raw training count of codeword ``w`` under
    the nonterminal with index ``i`` (``-nt - 1``); ``eos_count`` is the
    number of procedures observed.  The constructor validates the shape
    against the program, builds the quantized tables, and computes the
    model's own content key (SHA-256 of its serialized bytes).
    """

    def __init__(self, program: GrammarProgram,
                 counts: Sequence[Sequence[int]], eos_count: int,
                 binding: Optional[bytes] = None) -> None:
        grammar = program.grammar
        nts = list(grammar.nonterminals)
        if len(counts) != len(nts):
            raise ValueError(
                f"model has {len(counts)} contexts, grammar has "
                f"{len(nts)} nonterminals")
        self.counts: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(row) for row in counts)
        for nt in nts:
            i = -nt - 1
            want = len(program.rules_of[nt])
            if len(self.counts[i]) != want:
                raise ValueError(
                    f"model context {grammar.nt_name(nt)!r} has "
                    f"{len(self.counts[i])} rules, grammar has {want}")
        if eos_count < 0:
            raise ValueError("negative end-of-stream count")
        self.eos_count = int(eos_count)
        if binding is None:
            binding = bytes.fromhex(program.compact_key)
        if len(binding) != 32:
            raise ValueError("model binding must be a 32-byte digest")
        self.binding = binding

        self.start_index = -program.start - 1
        #: the end-of-stream symbol: one past the <start> rules
        self.eos_symbol = len(self.counts[self.start_index])

        # Laplace-smooth once at build time.  The smoothed rows seed
        # every StreamCoder; the quantized prefix sums only serve the
        # static entropy report (stats/entropy_bits/predicted_bits).
        self.priors: List[Tuple[int, ...]] = []
        self._cums: List[List[int]] = []
        for i, row in enumerate(self.counts):
            smoothed = [c + 1 for c in row]
            if i == self.start_index:
                smoothed.append(self.eos_count + 1)
            self.priors.append(tuple(smoothed))
            self._cums.append(cumulative(_quantize(smoothed,
                                                   CONTEXT_TOTAL))
                              if smoothed else [0])
        self.key = hashlib.sha256(self.to_bytes()).hexdigest()

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Deterministic serialized form (embedded in RCX2 and RGR1).
        Counts are LEB128 varints — they are mostly zero or small, and
        the model ships in every RCX2 file."""
        out = bytearray(_MAGIC)
        out.append(_VERSION)
        out.extend(self.binding)
        _varint(out, self.eos_count)
        _varint(out, len(self.counts))
        for row in self.counts:
            _varint(out, len(row))
            for c in row:
                _varint(out, c)
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes,
                   program: GrammarProgram) -> "RuleModel":
        """Parse and bind to ``program``; raises ValueError on any
        malformation (bad magic, truncation, shape mismatch)."""
        binding, eos_count, counts = parse_model(data)
        return cls(program, counts, eos_count, binding=binding)

    # -- coding -------------------------------------------------------------

    def coder(self) -> "StreamCoder":
        """Fresh adaptive coding state seeded from this model's priors.
        One per stream, per direction — the state mutates as it codes."""
        return StreamCoder(self)

    # -- statistics ---------------------------------------------------------

    def entropy_bits(self, ctx: int) -> float:
        """Shannon entropy of one context's quantized *prior*, in bits
        per symbol (RCX1 spends a flat 8).  The adaptive coder tracks
        the stream it codes, so realized cost is usually lower — these
        figures bound what the prior alone would achieve."""
        cums = self._cums[ctx]
        total = cums[-1]
        if total == 0:
            return 0.0
        h = 0.0
        for i in range(len(cums) - 1):
            p = (cums[i + 1] - cums[i]) / total
            h -= p * math.log2(p)
        return h

    def predicted_bits(self, ctx: int) -> float:
        """Cross-entropy cost, in bits, of re-coding the *training*
        occurrences of this context under the quantized prior."""
        cums = self._cums[ctx]
        total = cums[-1]
        row = list(self.counts[ctx])
        if ctx == self.start_index:
            row.append(self.eos_count)
        bits = 0.0
        for i, c in enumerate(row):
            if c:
                p = (cums[i + 1] - cums[i]) / total
                bits -= c * math.log2(p)
        return bits

    def stats(self, program: GrammarProgram) -> Dict:
        """Per-context entropy report for ``repro coding stats``."""
        grammar = program.grammar
        contexts = []
        total_steps = 0
        total_bits = 0.0
        for nt in grammar.nonterminals:
            i = -nt - 1
            steps = sum(self.counts[i])
            if i == self.start_index:
                steps += self.eos_count
            bits = self.predicted_bits(i)
            total_steps += steps
            total_bits += bits
            contexts.append({
                "nonterminal": grammar.nt_name(nt),
                "rules": len(self.counts[i]),
                "trained_steps": steps,
                "entropy_bits": self.entropy_bits(i),
                "predicted_bits_per_step": bits / steps if steps else 0.0,
            })
        return {
            "model_key": self.key,
            "grammar_binding": self.binding.hex(),
            "procedures_trained": self.eos_count,
            "trained_steps": total_steps,
            "predicted_bits_per_step":
                total_bits / total_steps if total_steps else 0.0,
            "predicted_bytes": total_bits / 8,
            "rcx1_bytes": total_steps,  # one byte per step, by design
            "contexts": contexts,
        }


class _AdaptiveContext:
    """One nonterminal's adaptive frequency state.

    A Fenwick (binary indexed) tree over the per-symbol counts gives
    O(log n) prefix sums for the encoder and O(log n) find-by-target
    for the decoder, with O(log n) bumps after every step — the hot
    contexts hold up to 257 symbols (256 codewords plus EOS) and are
    consulted once per derivation step.

    Counts start at the model's smoothed prior and grow by ADAPT_INC
    per observation.  The total is kept <= the range coder's BOTTOM
    (2^16) budget: whenever a bump would cross it, every count is
    halved with a floor of 1 (so all symbols stay decodable), which
    doubles as exponential aging of old statistics.
    """

    __slots__ = ("n", "freqs", "total", "tree", "mask")

    def __init__(self, prior: Sequence[int]) -> None:
        self.n = len(prior)
        self.freqs = list(prior)
        self.total = sum(prior)
        while self.total > BOTTOM:
            self._halve()
        self._rebuild()

    def _halve(self) -> None:
        self.freqs = [(f + 1) >> 1 for f in self.freqs]
        self.total = sum(self.freqs)

    def _rebuild(self) -> None:
        n = self.n
        tree = [0] * (n + 1)
        for i, f in enumerate(self.freqs, 1):
            tree[i] += f
            j = i + (i & -i)
            if j <= n:
                tree[j] += tree[i]
        self.tree = tree
        mask = 1
        while mask << 1 <= n:
            mask <<= 1
        self.mask = mask

    def _bump(self, sym: int) -> None:
        if self.total + ADAPT_INC > BOTTOM:
            self._halve()
            self._rebuild()
        i = sym + 1
        tree, n = self.tree, self.n
        while i <= n:
            tree[i] += ADAPT_INC
            i += i & -i
        self.freqs[sym] += ADAPT_INC
        self.total += ADAPT_INC

    def encode(self, enc: RangeEncoder, sym: int) -> None:
        tree = self.tree
        cum = 0
        i = sym
        while i:
            cum += tree[i]
            i -= i & -i
        enc.encode(cum, self.freqs[sym], self.total)
        self._bump(sym)

    def decode(self, dec: RangeDecoder) -> int:
        target = dec.target(self.total)
        tree, n = self.tree, self.n
        sym = 0
        rem = target
        mask = self.mask
        while mask:
            nxt = sym + mask
            if nxt <= n and tree[nxt] <= rem:
                sym = nxt
                rem -= tree[nxt]
            mask >>= 1
        # sym is the largest index with cumulative <= target, and
        # target - rem is that cumulative — exactly the interval to
        # commit.  target < total guarantees sym < n.
        dec.consume(target - rem, self.freqs[sym])
        self._bump(sym)
        return sym


class StreamCoder:
    """Mutable per-stream coding state for one :class:`RuleModel`.

    The encoder and the decoder each build one (``model.coder()``) and
    drive it through the identical (context, symbol) sequence, so both
    sides' adaptive tables evolve in lockstep without any bytes spent
    on synchronization.  Never reuse one across streams — the state it
    accumulates is the stream's.
    """

    __slots__ = ("_contexts",)

    def __init__(self, model: RuleModel) -> None:
        self._contexts = [_AdaptiveContext(p) if p else None
                          for p in model.priors]

    def encode_symbol(self, enc: RangeEncoder, ctx: int,
                      sym: int) -> None:
        self._contexts[ctx].encode(enc, sym)

    def decode_symbol(self, dec: RangeDecoder, ctx: int) -> int:
        return self._contexts[ctx].decode(dec)


def _varint(out: bytearray, v: int) -> None:
    """Unsigned LEB128."""
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    v = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated RuleModel (varint)")
        b = data[pos]
        pos += 1
        v |= (b & 0x7F) << shift
        if not b & 0x80:
            return v, pos
        shift += 7
        if shift > 63:
            raise ValueError("overlong varint in RuleModel")


def parse_model(data: bytes,
                ) -> Tuple[bytes, int, List[Tuple[int, ...]]]:
    """Parse a serialized model without binding it to a grammar:
    ``(binding, eos_count, counts)``.  Storage uses this to validate and
    re-attach counts while a grammar is still being deserialized (no
    program may be built from a half-loaded grammar)."""
    if len(data) < 37 or data[:4] != _MAGIC:
        raise ValueError("not a serialized RuleModel (bad magic)")
    if data[4] != _VERSION:
        raise ValueError(f"unsupported RuleModel version {data[4]}")
    binding = data[5:37]
    pos = 37
    eos_count, pos = _read_varint(data, pos)
    ncontexts, pos = _read_varint(data, pos)
    if ncontexts > 0xFFFF:
        raise ValueError(f"implausible context count {ncontexts}")
    counts: List[Tuple[int, ...]] = []
    for _ in range(ncontexts):
        n, pos = _read_varint(data, pos)
        if n > 0xFFFF:
            raise ValueError(f"implausible rule count {n}")
        row = []
        for _ in range(n):
            c, pos = _read_varint(data, pos)
            row.append(c)
        counts.append(tuple(row))
    if pos != len(data):
        raise ValueError(
            f"{len(data) - pos} trailing bytes after RuleModel")
    return binding, eos_count, counts


# -- estimation ---------------------------------------------------------------

def derive_counts(grammar, forest, procedures: int) -> Dict:
    """Raw per-(nonterminal, codeword) usage counts from a parse forest,
    in the dict shape ``attach_counts`` hangs on the grammar."""
    program = program_for(grammar)
    table: List[List[int]] = [[] for _ in grammar.nt_names]
    for nt in grammar.nonterminals:
        table[-nt - 1] = [0] * len(program.rules_of[nt])
    rules = grammar.rules
    codeword_of = program.codeword_of
    for node in forest.nodes():
        rule = rules[node.rule_id]
        table[-rule.lhs - 1][codeword_of[node.rule_id]] += 1
    return {"rules": table, "eos": int(procedures)}


def attach_counts(grammar, forest, modules) -> None:
    """Attach training counts to a freshly trained grammar (called by
    ``pipeline.train_grammar`` and the experiment harness)."""
    procedures = sum(len(m.procedures) for m in modules)
    setattr(grammar, COUNTS_ATTR, derive_counts(grammar, forest,
                                                procedures))


def model_for(program: GrammarProgram) -> RuleModel:
    """The shared RuleModel for a program (built once, memoized via
    ``GrammarProgram.derived``); raises :class:`ModelMissingError` when
    the grammar carries no training counts."""
    def build() -> RuleModel:
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("coding.model")
        counts = getattr(program.grammar, COUNTS_ATTR, None)
        if counts is None:
            raise ModelMissingError(
                "grammar has no rule-frequency model (trained before "
                "models existed, or loaded from a legacy RGR1 file); "
                "retrain or compress with format='rcx1'")
        return RuleModel(program, counts["rules"], counts["eos"])
    return program.derived("coding.model", build)
