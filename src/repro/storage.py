"""Binary file formats for modules, compressed modules and grammars.

Four self-describing formats, all little-endian:

* ``RBC1`` — an uncompressed bytecode module (the compiler's output and
  the decompressor's; what Section 3 calls the packaged bytecodes).
* ``RCX1`` — a compressed module *with its grammar embedded* (the compact
  encoding of :mod:`repro.grammar.serialize`), so a single file is enough
  to interpret or decompress it — the shippable artifact.
* ``RCX2`` — the entropy-coded compressed module (see docs/CODING.md):
  grammar *and* rule-frequency model embedded, labels stored as block
  indices, and all procedure bodies range-coded into one stream.  It
  loads to the exact same in-memory :class:`CompressedModule` as RCX1,
  so everything downstream of :func:`load_compressed` is format-blind;
  the loaded module also carries the rule model its stream was coded
  with (``model``), so it re-saves as RCX2 byte-identically.
* ``RGR1`` — a stand-alone trained grammar, for the train-once /
  compress-many workflow of the CLI.  Grammars trained since models
  exist carry an optional trailing section with the raw rule-frequency
  counts (legacy files without it still load; compressing from them to
  RCX2 then reports the model as missing).

Strings are UTF-8 with a 2-byte length; offsets/sizes are u32.  Every
loader validates magic and trailing bytes, and the module loader runs the
bytecode validator, so a corrupted file fails loudly rather than
misexecuting.  An embedded grammar blob (RCX1, RCX2, RGR1) must be in
the compact encoding every writer produces.

Writers append a CRC-32 trailer (4 bytes, little-endian, over magic +
body) so bit rot is detected before the structural validators run, and
loaders require it.  RCX2 additionally embeds a CRC-32 of the
*decoded* RCX1 payload inside the (trailer-protected) header, so even a
coded stream that decodes without a structural error cannot silently
deliver wrong bytes.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import zlib
from collections import OrderedDict
from typing import Dict, List, Optional, Union

from .bytecode.module import GlobalEntry, Module, Procedure
from .bytecode.validate import validate_module
from .coding.model import (
    COUNTS_ATTR,
    RuleModel,
    model_for,
    parse_model,
)
from .coding.stream import decode_module_streams, encode_module_streams
from .compress.container import (
    CONTAINER_FORMATS,
    CompressedModule,
    CompressedProcedure,
    ContainerError,
    RCX2_MAGIC,
    RCX2_VERSION,
)
from .core.program import non_byte_rows, original_ordinals, program_for
from .grammar.cfg import Grammar
from .grammar.serialize import decode_grammar, encode_grammar_compact

__all__ = [
    "save_module", "load_module",
    "save_compressed", "load_compressed",
    "save_grammar", "load_grammar",
    "load_any", "StorageError",
    "GrammarTable", "GRAMMAR_TABLE_SIZE",
]

_MAGIC_MODULE = b"RBC1"
_MAGIC_COMPRESSED = b"RCX1"
_MAGIC_COMPRESSED2 = RCX2_MAGIC
_MAGIC_GRAMMAR = b"RGR1"

_KINDS = ["data", "proc", "lib"]


class StorageError(ValueError):
    """Malformed or mismatched file content."""


def _seal(w: "_Writer") -> bytes:
    """Append the CRC-32 trailer over everything written so far."""
    payload = bytes(w.out)
    return payload + struct.pack("<I", zlib.crc32(payload))


def _finish(r: "_Reader", full: bytes) -> None:
    """End-of-body check: verify the CRC-32 trailer.

    ``full`` is the whole file including magic; ``r`` holds the body with
    the magic stripped.  Exactly 4 bytes must follow the body: the
    trailer (a mismatch is a loud :class:`StorageError`).  Fewer is a
    missing trailer; more is trailing garbage.
    """
    remaining = len(r.data) - r.pos
    if remaining < 4:
        raise StorageError("missing CRC-32 trailer (truncated file)")
    if remaining == 4:
        (stored,) = struct.unpack("<I", r.data[r.pos:r.pos + 4])
        if stored != zlib.crc32(full[:-4]):
            raise StorageError("CRC-32 mismatch (corrupt file)")
        r.pos += 4
        return
    r.done()  # raises with the trailing-byte count


class _Writer:
    def __init__(self) -> None:
        self.out = bytearray()

    def u8(self, v: int) -> None:
        self.out.append(v & 0xFF)

    def u16(self, v: int) -> None:
        self.out.extend(struct.pack("<H", v))

    def u32(self, v: int) -> None:
        self.out.extend(struct.pack("<I", v))

    def text(self, s: str) -> None:
        data = s.encode("utf-8")
        self.u16(len(data))
        self.out.extend(data)

    def blob(self, data: bytes) -> None:
        self.u32(len(data))
        self.out.extend(data)


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise StorageError("truncated file")
        piece = self.data[self.pos:self.pos + n]
        self.pos += n
        return piece

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def text(self) -> str:
        return self._take(self.u16()).decode("utf-8")

    def blob(self) -> bytes:
        return self._take(self.u32())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise StorageError(
                f"{len(self.data) - self.pos} trailing bytes"
            )


def _write_shared(w: _Writer, module) -> None:
    """globals / data / bss / entry, common to both module kinds."""
    w.u16(len(module.globals))
    for g in module.globals:
        w.u8(_KINDS.index(g.kind))
        w.text(g.name)
        w.u32(g.value)
    w.blob(module.data)
    w.u32(module.bss_size)
    w.u32(module.entry + 1 if module.entry is not None else 0)


def _read_shared(r: _Reader) -> dict:
    globals_: List[GlobalEntry] = []
    for _ in range(r.u16()):
        kind_index = r.u8()
        if kind_index >= len(_KINDS):
            raise StorageError(f"bad global kind byte {kind_index}")
        kind = _KINDS[kind_index]
        name = r.text()
        value = r.u32()
        globals_.append(GlobalEntry(kind, name, value))
    data = r.blob()
    bss = r.u32()
    entry_raw = r.u32()
    return {
        "globals": globals_, "data": data, "bss_size": bss,
        "entry": entry_raw - 1 if entry_raw else None,
    }


def _write_proc_common(w: _Writer, proc) -> None:
    w.text(proc.name)
    w.u32(proc.framesize)
    w.u32(proc.argsize)
    w.u8(1 if proc.needs_trampoline else 0)
    w.u16(len(proc.labels))
    for off in proc.labels:
        w.u32(off)
    w.blob(proc.code)


def _read_proc_common(r: _Reader) -> dict:
    name = r.text()
    framesize = r.u32()
    argsize = r.u32()
    tramp = bool(r.u8())
    labels = [r.u32() for _ in range(r.u16())]
    code = r.blob()
    return {
        "name": name, "framesize": framesize, "argsize": argsize,
        "needs_trampoline": tramp, "labels": labels, "code": code,
    }


# -- modules ------------------------------------------------------------------

def save_module(module: Module) -> bytes:
    w = _Writer()
    w.out.extend(_MAGIC_MODULE)
    _write_shared(w, module)
    w.u16(len(module.procedures))
    for proc in module.procedures:
        _write_proc_common(w, proc)
    return _seal(w)


def load_module(data: bytes) -> Module:
    if data[:4] != _MAGIC_MODULE:
        raise StorageError("not an RBC1 module file")
    r = _Reader(data[4:])
    shared = _read_shared(r)
    procs = [Procedure(**_read_proc_common(r)) for _ in range(r.u16())]
    _finish(r, data)
    module = Module(procedures=procs, **shared)
    validate_module(module)
    return module


# -- compressed modules ---------------------------------------------------------

def _write_nt_names(w: _Writer, grammar: Grammar) -> None:
    w.u8(len(grammar.nt_names))
    for name in grammar.nt_names:
        w.text(name)


def _read_nt_names(r: _Reader) -> List[str]:
    return [r.text() for _ in range(r.u8())]


def save_compressed(cmod: CompressedModule,
                    format: str = "rcx1") -> bytes:
    """Serialize a compressed module.

    ``format="rcx1"`` is the paper's one-byte-per-step container;
    ``"rcx2"`` entropy-codes the derivation bytes against
    ``cmod.model`` (set on every module loaded from RCX2, so it re-saves
    byte-identically), else against the grammar's
    :class:`~repro.coding.model.RuleModel` (raising
    :class:`~repro.coding.model.ModelMissingError` when the grammar was
    trained before models existed).  Both load back byte-identically
    through :func:`load_compressed`.
    """
    if format not in CONTAINER_FORMATS:
        raise ValueError(f"unknown container format {format!r} "
                         f"(expected one of {CONTAINER_FORMATS})")
    if format == "rcx2":
        return _save_compressed2(cmod)
    w = _Writer()
    w.out.extend(_MAGIC_COMPRESSED)
    _write_nt_names(w, cmod.grammar)
    w.blob(encode_grammar_compact(cmod.grammar))
    _write_shared(w, cmod)
    w.u16(len(cmod.procedures))
    for proc in cmod.procedures:
        _write_proc_common(w, proc)
        w.u16(len(proc.block_starts))
        for off in proc.block_starts:
            w.u32(off)
    return _seal(w)


def _save_compressed2(cmod: CompressedModule) -> bytes:
    """The RCX2 container: header + one range-coded stream per module.

    Labels are stored as *block indices* — a label always targets a
    block start in the RCX1 form, and byte offsets are meaningless in
    an entropy-coded stream; the loader rebuilds the exact offsets from
    the block starts it observes while decoding.
    """
    program = program_for(cmod.grammar)
    model = cmod.model or model_for(program)  # ModelMissingError if none
    w = _Writer()
    w.out.extend(_MAGIC_COMPRESSED2)
    w.u8(RCX2_VERSION)
    _write_nt_names(w, cmod.grammar)
    w.blob(encode_grammar_compact(cmod.grammar))
    w.blob(model.to_bytes())
    _write_shared(w, cmod)
    w.u16(len(cmod.procedures))
    payload_crc = 0
    for proc in cmod.procedures:
        w.text(proc.name)
        w.u32(proc.framesize)
        w.u32(proc.argsize)
        w.u8(1 if proc.needs_trampoline else 0)
        if len(proc.block_starts) > 0xFFFF:
            raise StorageError(
                f"procedure {proc.name!r} has too many blocks for RCX2")
        block_index = {off: i for i, off in enumerate(proc.block_starts)}
        w.u16(len(proc.labels))
        for off in proc.labels:
            if off not in block_index:
                raise StorageError(
                    f"label offset {off} in {proc.name!r} is not a "
                    f"block start")
            w.u16(block_index[off])
        w.u16(len(proc.block_starts))
        w.u32(len(proc.code))
        payload_crc = zlib.crc32(proc.code, payload_crc)
    w.u32(payload_crc)
    w.blob(encode_module_streams(program, model,
                                 [p.code for p in cmod.procedures]))
    return _seal(w)


#: decoded grammars (and, separately, rule models) one
#: :class:`GrammarTable` keeps; each grammar carries its program and
#: engine tables, so the bound also caps what those cost an owner
GRAMMAR_TABLE_SIZE = 16

#: the grammar encoding every container and RGR1 file embeds (the
#: compact one, whose SHA-256 is the grammar's ``compact_key``)
_MAGIC_GRAMMAR_BLOB = b"EG1C"


class GrammarTable:
    """One owner's decoded container grammars, keyed by content.

    In the paper the grammar lives in the interpreter: its rule tables
    are built once and serve every program it runs.  Every container
    load goes through a table.  A long-lived owner of container loads
    (the service, the native sandbox's helper) passes its own to
    :func:`load_compressed` or :func:`load_any`; any other caller gets
    a fresh private one per load.  A container whose grammar blob and
    nonterminal names match an earlier clean load gets that load's
    :class:`Grammar` instance back, and with it the program
    ``program_for`` keeps on that instance and every table derived from
    it.  The key's digest, the SHA-256 of the grammar blob, is also what
    an RCX2 model binding must equal.

    A hit skips ``decode_grammar`` only (and, for RCX2, building the
    :class:`RuleModel` of a model blob already bound to the grammar);
    every other check runs on every load.  Grammars and models are
    interned only after their whole container has loaded, so a rejected
    container changes neither the entries nor ``hits``/``misses``.
    Interned grammars are shared across requests and threads, so a load
    never attaches counts to one or primes its model memo: an RCX2
    load's model rides on the loaded module instead.  Thread-safe; an
    LRU of :data:`GRAMMAR_TABLE_SIZE` grammars, and as many models.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._grammars: "OrderedDict[tuple, Grammar]" = OrderedDict()
        self._models: "OrderedDict[tuple, RuleModel]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._grammars), "hits": self.hits,
                    "misses": self.misses}

    def _grammar(self, key: tuple, gblob: bytes) -> Grammar:
        """The interned instance for ``key``, else a fresh decode
        (interned only by its load's :meth:`_commit`)."""
        with self._lock:
            grammar = self._grammars.get(key)
        if grammar is None:
            grammar = _decode_grammar_blob(gblob, list(key[1]))
        return grammar

    def _model(self, key: tuple) -> Optional[RuleModel]:
        with self._lock:
            return self._models.get(key)

    def _commit(self, key: tuple, grammar: Grammar,
                model_key: Optional[tuple] = None,
                model: Optional[RuleModel] = None) -> None:
        """Count one clean load and intern what it decoded."""
        with self._lock:
            if self._grammars.get(key) is grammar:
                self.hits += 1
            else:
                self.misses += 1
            _lru_put(self._grammars, key, grammar)
            if model_key is not None:
                _lru_put(self._models, model_key, model)


def _lru_put(lru: OrderedDict, key, value) -> None:
    """Insert unless present (a concurrent first load wins), mark most
    recent, and evict down to :data:`GRAMMAR_TABLE_SIZE`."""
    lru.setdefault(key, value)
    lru.move_to_end(key)
    while len(lru) > GRAMMAR_TABLE_SIZE:
        lru.popitem(last=False)


def _grammar_key(gblob: bytes, names: List[str]) -> tuple:
    return (hashlib.sha256(gblob).digest(), tuple(names))


def _decode_grammar_blob(gblob: bytes, names: List[str]) -> Grammar:
    """Decode an embedded grammar blob, which must be in the compact
    encoding: the only one any writer embeds."""
    if gblob[:4] != _MAGIC_GRAMMAR_BLOB:
        raise StorageError(
            "embedded grammar is not in the compact (EG1C) encoding")
    return decode_grammar(gblob, nt_names=names)


def load_compressed(data: bytes,
                    grammars: Optional[GrammarTable] = None,
                    ) -> CompressedModule:
    """Load either compressed-module container (dispatch on magic).

    ``grammars`` is the caller's :class:`GrammarTable`; without one,
    the load goes through a fresh private table (and so decodes a
    grammar of its own).
    """
    grammars = grammars or GrammarTable()
    if data[:4] == _MAGIC_COMPRESSED2:
        return _load_compressed2(data, grammars)
    if data[:4] != _MAGIC_COMPRESSED:
        raise StorageError("not an RCX1/RCX2 compressed-module file")
    r = _Reader(data[4:])
    names = _read_nt_names(r)
    gblob = r.blob()
    key = _grammar_key(gblob, names)
    grammar = grammars._grammar(key, gblob)
    shared = _read_shared(r)
    procs = []
    for _ in range(r.u16()):
        common = _read_proc_common(r)
        block_starts = [r.u32() for _ in range(r.u16())]
        procs.append(CompressedProcedure(block_starts=block_starts,
                                         **common))
    _finish(r, data)
    grammars._commit(key, grammar)
    return CompressedModule(grammar=grammar, procedures=procs, **shared)


def _load_compressed2(data: bytes,
                      grammars: GrammarTable) -> CompressedModule:
    # The CRC-32 trailer is verified before any field is parsed — bit
    # rot anywhere in the file fails loudly here instead of surfacing as
    # a deep parse error from the grammar or model decoders.
    if len(data) < 9:
        raise ContainerError("truncated RCX2 file")
    (stored,) = struct.unpack("<I", data[-4:])
    if stored != zlib.crc32(data[:-4]):
        raise StorageError("CRC-32 mismatch (corrupt file)")
    r = _Reader(data[4:-4])
    version = r.u8()
    if version != RCX2_VERSION:
        raise ContainerError(f"unsupported RCX2 version {version}")
    names = _read_nt_names(r)
    gblob = r.blob()
    key = _grammar_key(gblob, names)
    grammar = grammars._grammar(key, gblob)
    mblob = r.blob()
    shared = _read_shared(r)
    specs = []
    for _ in range(r.u16()):
        name = r.text()
        framesize = r.u32()
        argsize = r.u32()
        tramp = bool(r.u8())
        label_blocks = [r.u16() for _ in range(r.u16())]
        nblocks = r.u16()
        code_len = r.u32()
        specs.append((name, framesize, argsize, tramp, label_blocks,
                      nblocks, code_len))
    payload_crc = r.u32()
    stream = r.blob()
    r.done()

    try:
        binding, eos_count, counts = parse_model(mblob)
    except ValueError as exc:
        raise ContainerError(f"bad embedded model: {exc}") from None
    if binding != key[0]:
        raise ContainerError(
            "model/grammar content-key mismatch (the embedded model "
            "was trained for a different grammar)")
    program = program_for(grammar)
    # A table's grammar may be shared: its model stays with this load
    # (on the loaded module), found again only by the same grammar and
    # model blob.
    model_key = (key, hashlib.sha256(mblob).digest())
    model = grammars._model(model_key)
    if model is None:
        try:
            model = RuleModel(program, counts, eos_count, binding=binding)
        except ValueError as exc:
            raise ContainerError(f"bad embedded model: {exc}") from None

    decoded = decode_module_streams(program, model,
                                    [s[6] for s in specs], stream)
    procs = []
    crc = 0
    for (name, framesize, argsize, tramp, label_blocks, nblocks,
         code_len), (code, block_starts) in zip(specs, decoded):
        if len(block_starts) != nblocks:
            raise ContainerError(
                f"procedure {name!r} decoded {len(block_starts)} "
                f"blocks, header declares {nblocks}")
        labels = []
        for idx in label_blocks:
            if idx >= len(block_starts):
                raise ContainerError(
                    f"label block index {idx} out of range in {name!r}")
            labels.append(block_starts[idx])
        crc = zlib.crc32(code, crc)
        procs.append(CompressedProcedure(
            name=name, code=code, labels=labels, framesize=framesize,
            needs_trampoline=tramp, argsize=argsize,
            block_starts=list(block_starts)))
    if crc != payload_crc:
        raise ContainerError(
            "decoded payload CRC-32 mismatch (corrupt coded stream)")
    grammars._commit(key, grammar, model_key, model)
    return CompressedModule(grammar=grammar, procedures=procs,
                            model=model, **shared)


# -- grammars ---------------------------------------------------------------------
#
# The nameless, fragment-less compact encoding is what ships inside an
# interpreter (and what the size experiments measure).  The RGR1 *tool*
# format additionally stores nonterminal names and each rule's provenance
# fragment, because the tiling compressor matches fragments against
# original-grammar parse trees.  Fragments are serialized over *canonical
# ordinals*: the position of each original rule in its nonterminal's rule
# list, which training never disturbs (only inlined rules are appended or
# removed).

def _write_fragment(w: _Writer, fragment, to_ordinal) -> None:
    rule_id, children = fragment
    if rule_id not in to_ordinal:
        raise StorageError(
            "fragment references a non-original rule (corrupt grammar)"
        )
    nt_index, position = to_ordinal[rule_id]
    w.u8(nt_index)
    w.u16(position)
    w.u8(len(children))
    for child in children:
        if child is None:
            w.u8(0)
        else:
            w.u8(1)
            _write_fragment(w, child, to_ordinal)


def _read_fragment(r: _Reader, from_ordinal):
    nt_index = r.u8()
    position = r.u16()
    key = (nt_index, position)
    if key not in from_ordinal:
        raise StorageError("fragment ordinal out of range")
    children = []
    for _ in range(r.u8()):
        if r.u8():
            children.append(_read_fragment(r, from_ordinal))
        else:
            children.append(None)
    return (from_ordinal[key], tuple(children))


def save_grammar(grammar: Grammar) -> bytes:
    w = _Writer()
    w.out.extend(_MAGIC_GRAMMAR)
    _write_nt_names(w, grammar)
    w.blob(encode_grammar_compact(grammar))
    # Provenance: per nonterminal (byte excluded), per rule in codeword
    # order: origin flag, and for inlined rules the fragment tree.  The
    # ordinal table and row layout come off the grammar's precompiled
    # program (one shared index instead of three local rebuild loops).
    program = program_for(grammar)
    for _nt, rules in program.rows:
        for rule in rules:
            if rule.origin == "original":
                w.u8(0)
            else:
                w.u8(1)
                _write_fragment(w, rule.fragment,
                                program.original_to_ordinal)
    # Optional trailing section: the rule-frequency model, when training
    # attached counts (absent -> byte-identical to the legacy format, so
    # old readers and golden files are unaffected).
    if getattr(grammar, COUNTS_ATTR, None) is not None:
        w.u8(1)
        w.blob(model_for(program).to_bytes())
    return _seal(w)


def load_grammar(data: bytes) -> Grammar:
    if data[:4] != _MAGIC_GRAMMAR:
        raise StorageError("not an RGR1 grammar file")
    r = _Reader(data[4:])
    names = _read_nt_names(r)
    gblob = r.blob()
    grammar = _decode_grammar_blob(gblob, names)
    # Re-attach provenance.  decode_grammar marked every rule original;
    # rebuild each rule with its true origin and fragment so the tiling
    # compressor works on loaded grammars.  This mutates rules in place
    # mid-rebuild, so it uses the pure core helpers directly — never
    # program_for (see repro.core.program).
    _, from_ordinal = original_ordinals(grammar)
    for _nt, rules in non_byte_rows(grammar):
        for rule in rules:
            if r.u8():
                fragment = _read_fragment(r, from_ordinal)
                rule.origin = "inlined"
                rule.fragment = fragment
                from .grammar.cfg import fragment_hole_count
                if fragment_hole_count(fragment) != rule.arity:
                    raise StorageError("fragment does not match rule arity")
    # Optional model section (grammars trained before models existed
    # end here, with only the 4-byte CRC trailer left; a section is at
    # least 5).
    if len(r.data) - r.pos > 4:
        if r.u8() != 1:
            raise StorageError("bad model-section flag")
        mblob = r.blob()
        try:
            binding, eos_count, counts = parse_model(mblob)
        except ValueError as exc:
            raise StorageError(f"bad grammar model: {exc}") from None
        if binding != hashlib.sha256(gblob).digest():
            raise StorageError(
                "model/grammar content-key mismatch in RGR1 file")
        setattr(grammar, COUNTS_ATTR,
                {"rules": [list(row) for row in counts],
                 "eos": eos_count})
    _finish(r, data)
    grammar.check()
    return grammar


def load_any(data: bytes, grammars: Optional[GrammarTable] = None,
             ) -> Union[Module, CompressedModule]:
    """Dispatch on magic: module or compressed module (either format,
    through ``grammars`` or a fresh table; see :func:`load_compressed`)."""
    if data[:4] == _MAGIC_MODULE:
        return load_module(data)
    if data[:4] in (_MAGIC_COMPRESSED, _MAGIC_COMPRESSED2):
        return load_compressed(data, grammars)
    raise StorageError("unrecognized file magic")
