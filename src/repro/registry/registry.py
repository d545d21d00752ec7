"""Content-addressed grammar store with tags.

On-disk layout (all writes are atomic tmp-file + rename, fsynced)::

    <root>/
        objects/<sha256>.rgr         the RGR1 bytes, exactly as saved
        objects/quarantine/          integrity failures, moved aside
        meta/<sha256>.json           provenance: corpus fingerprint,
                                     training report numbers, rule
                                     counts, timestamps
        tags/<name>                  text file holding one full hash

A grammar's identity *is* the SHA-256 of its ``RGR1`` encoding: putting
the same grammar twice is a no-op, and two registries that trained the
same grammar agree on its name.  References are resolved in order: exact
tag, full hash, unique hash prefix (>= 4 hex chars).

Durability and self-healing
---------------------------

Writes are crash-consistent: the temp file is fsynced before the rename
and the directory after it, and a ``put`` writes provenance *before* the
object so a crash between the two leaves an invisible orphan (reaped by
``verify(repair=True)``), never a half-visible grammar.  Reads are
verifying: object bytes are re-hashed against their name on every read,
and a mismatch (bit rot, torn write that somehow landed) moves the
object to ``objects/quarantine/`` and raises a structured
:class:`RegistryError` instead of serving corrupt bytes.  A tag pointing
at a missing object is a structured error too, never a raw
``FileNotFoundError``.  :meth:`GrammarRegistry.verify` is the full
integrity scan; with ``repair=True`` (the service's startup scan) it
also quarantines corruption, regenerates metadata and reaps temp files,
orphan metadata and dangling tags.

The registry keeps no decoded grammars: every :meth:`~GrammarRegistry.get`
and :meth:`~GrammarRegistry.program` parses the object afresh.  A
decoded grammar lives with its owner — the service keeps one
:class:`~repro.compress.compressor.Compressor` per grammar for its
lifetime — so each owner parses a grammar once.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from .. import faults
from ..bytecode.module import Module
from ..coding.model import COUNTS_ATTR
from ..core.program import GrammarProgram, program_for
from ..faults import InjectedFault
from ..grammar.cfg import Grammar
from ..grammar.serialize import grammar_bytes
from ..storage import (
    StorageError,
    load_grammar,
    save_grammar,
    save_module,
)
from ..training.expander import TrainingReport

__all__ = [
    "GrammarRegistry",
    "RegistryError",
    "corpus_fingerprint",
    "poison_key",
]

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")
_PREFIX_RE = re.compile(r"^[0-9a-f]{4,64}$")
_TAG_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class RegistryError(KeyError):
    """Unknown reference, ambiguous prefix, or malformed registry state."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else ""


def corpus_fingerprint(corpus: Iterable[Module]) -> str:
    """Order-insensitive SHA-256 over the RBC1 encodings of a corpus.

    Recorded at ``put`` time so a grammar can be traced back to exactly
    the training set that produced it (and retraining on the same corpus
    is detectable without keeping the corpus around).
    """
    digests = sorted(
        hashlib.sha256(save_module(m)).hexdigest() for m in corpus
    )
    acc = hashlib.sha256()
    for d in digests:
        acc.update(bytes.fromhex(d))
    return acc.hexdigest()


def poison_key(content_key: str, request_digest: str) -> str:
    """The quarantine key for one (grammar, request) pair.

    Both inputs are hex digests: the grammar's ``compact_key`` and the
    SHA-256 over the request's payload, arguments, and input.  The key
    is stable across workers and restarts, so a request that crashed
    the native engine once is recognized forever after.
    """
    return hashlib.sha256(
        f"{content_key}:{request_digest}".encode()
    ).hexdigest()


def _fsync_dir(path: Path) -> None:
    """Make a rename in ``path`` durable (no-op where dirs can't open)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, data: bytes) -> None:
    """Crash-consistent write: readers see the old bytes or the new
    bytes, never a mixture, even across a crash at any point.

    The temp file is fsynced before the rename (so the rename can never
    publish a torn file) and the directory entry after it (so the rename
    itself survives a crash).  Fault sites cover the payload, the torn
    prefix, and both crash windows around the rename.
    """
    plane = faults.ACTIVE
    if plane is not None:
        data = plane.mutate("registry.atomic.corrupt", data)
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        if plane is not None \
                and plane.decide("registry.atomic.torn") is not None:
            fh.write(data[:max(1, len(data) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            raise InjectedFault("registry.atomic.torn", path.name)
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if plane is not None:
        plane.fire("registry.atomic.pre_rename", message=path.name)
    os.replace(tmp, path)
    if plane is not None:
        plane.fire("registry.atomic.post_rename", message=path.name)
    _fsync_dir(path.parent)


class GrammarRegistry:
    """See module docstring.  Safe for concurrent use from threads."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._meta = self.root / "meta"
        self._tags = self.root / "tags"
        for d in (self._objects, self._meta, self._tags):
            d.mkdir(parents=True, exist_ok=True)

    @property
    def quarantine_dir(self) -> Path:
        return self._objects / "quarantine"

    # -- writing ------------------------------------------------------------

    def put(self, grammar: Grammar, *,
            report: Optional[TrainingReport] = None,
            corpus: Optional[Iterable[Module]] = None,
            tags: Iterable[str] = (),
            extra: Optional[Dict] = None) -> str:
        """Store a trained grammar; returns its full hash.

        ``report`` and ``corpus`` fill the provenance metadata; ``extra``
        is merged into the metadata verbatim (client-supplied context).
        """
        data = save_grammar(grammar)
        meta: Dict = {}
        if report is not None:
            meta["training"] = {
                "trainer": report.strategy,
                "trainer_params": dict(report.strategy_params),
                "iterations": report.iterations,
                "rules_added": report.rules_added,
                "rules_removed": report.rules_removed,
                "initial_size": report.initial_size,
                "final_size": report.final_size,
                "size_ratio": report.size_ratio,
                "wall_seconds": report.wall_seconds,
                "seed_rules": report.seed_rules,
                "seed_rounds": report.seed_rounds,
                "seed_contractions": report.seed_contractions,
                "seed_seconds": report.seed_seconds,
                "refine_seconds": report.refine_seconds,
            }
        if corpus is not None:
            modules = list(corpus)
            meta["corpus"] = {
                "fingerprint": corpus_fingerprint(modules),
                "modules": len(modules),
            }
        if extra:
            meta.update(extra)
        return self.put_bytes(data, tags=tags, meta=meta, grammar=grammar)

    def put_bytes(self, data: bytes, *, tags: Iterable[str] = (),
                  meta: Optional[Dict] = None,
                  grammar: Optional[Grammar] = None) -> str:
        """Store raw ``RGR1`` bytes (validated by parsing them)."""
        if grammar is None:
            try:
                grammar = load_grammar(data)  # reject junk before it lands
            except StorageError:
                raise
            except ValueError as exc:
                raise StorageError(
                    f"not a valid RGR1 grammar: {exc}") from None
        digest = hashlib.sha256(data).hexdigest()
        obj_path = self._objects / f"{digest}.rgr"
        if not obj_path.exists():
            record = dict(meta or {})
            record.update({
                "hash": digest,
                "created": time.time(),
                "size_bytes": len(data),
                "nonterminals": len(grammar.nt_names),
                "rules": grammar.total_rules(),
                "encoded_bytes": grammar_bytes(grammar, compact=True),
                # Whether this grammar ships a rule-frequency model and
                # can therefore serve rcx2 compression requests.
                "model": getattr(grammar, COUNTS_ATTR, None) is not None,
            })
            # Provenance lands before the object: an interrupted put
            # leaves an invisible orphan meta (reaped by a repairing
            # verify), never an object whose metadata is missing.
            _atomic_write(self._meta / f"{digest}.json",
                          json.dumps(record, indent=1).encode())
            _atomic_write(obj_path, data)
        for tag in tags:
            self.tag(digest, tag)
        return digest

    def tag(self, ref: str, name: str) -> str:
        """Point a human tag at a grammar; returns the full hash."""
        if not _TAG_RE.match(name):
            raise RegistryError(f"invalid tag name {name!r}")
        digest = self.resolve(ref)
        _atomic_write(self._tags / name, (digest + "\n").encode())
        return digest

    # -- reading ------------------------------------------------------------

    def resolve(self, ref: str) -> str:
        """tag | full hash | unique >=4-char hash prefix -> full hash."""
        tag_path = self._tags / ref
        if _TAG_RE.match(ref) and tag_path.exists():
            digest = tag_path.read_text().strip()
            if not _HASH_RE.match(digest):
                raise RegistryError(f"tag {ref!r} is corrupt")
            if not (self._objects / f"{digest}.rgr").exists():
                raise RegistryError(
                    f"tag {ref!r} points at missing grammar "
                    f"{digest[:12]} (dangling tag; "
                    f"run `repro registry verify`)")
            return digest
        if _HASH_RE.match(ref):
            if (self._objects / f"{ref}.rgr").exists():
                return ref
            raise RegistryError(f"no grammar {ref}")
        if _PREFIX_RE.match(ref):
            matches = [p.stem for p in self._objects.glob(f"{ref}*.rgr")]
            if len(matches) == 1:
                return matches[0]
            if matches:
                raise RegistryError(f"ambiguous prefix {ref!r} "
                                    f"({len(matches)} matches)")
        raise RegistryError(f"unknown grammar reference {ref!r}")

    def _object_bytes(self, digest: str) -> bytes:
        """Verified object read: re-hash against the name; corruption
        quarantines the object and raises a structured error."""
        path = self._objects / f"{digest}.rgr"
        plane = faults.ACTIVE
        try:
            if plane is not None:
                plane.fire("registry.read.missing",
                           exc=FileNotFoundError, message=path.name)
            data = path.read_bytes()
        except FileNotFoundError:
            raise RegistryError(
                f"grammar {digest[:12]} missing from object store "
                f"(run `repro registry verify`)") from None
        if plane is not None:
            data = plane.mutate("registry.read.corrupt", data)
        if hashlib.sha256(data).hexdigest() != digest:
            self._quarantine(digest, "content hash mismatch on read")
            raise RegistryError(
                f"grammar {digest[:12]} failed its integrity check "
                f"(hash mismatch); quarantined")
        return data

    def get_bytes(self, ref: str) -> bytes:
        return self._object_bytes(self.resolve(ref))

    def get(self, ref: str) -> Grammar:
        """A freshly parsed grammar: a verified read, then
        ``load_grammar``.  An object that fails to parse is
        quarantined."""
        digest = self.resolve(ref)
        data = self._object_bytes(digest)
        try:
            return load_grammar(data)
        except (StorageError, ValueError) as exc:
            self._quarantine(digest, f"invalid RGR1: {exc}")
            raise RegistryError(
                f"grammar {digest[:12]} failed to parse ({exc}); "
                f"quarantined") from None

    def program(self, ref: str) -> GrammarProgram:
        """The precompiled program of a freshly parsed grammar (see
        :meth:`get`); the caller owns it for as long as it needs it."""
        return program_for(self.get(ref))

    def meta(self, ref: str) -> Dict:
        digest = self.resolve(ref)
        path = self._meta / f"{digest}.json"
        try:
            record = json.loads(path.read_text())
        except (OSError, ValueError):
            # Missing or unreadable provenance must not hide the object:
            # recover a minimal record from the object itself.
            record = self._recover_meta(digest)
        record["tags"] = sorted(
            t for t, h in self.tags().items() if h == digest
        )
        return record

    def _recover_meta(self, digest: str,
                      data: Optional[bytes] = None) -> Dict:
        if data is None:
            data = self._object_bytes(digest)
        grammar = load_grammar(data)
        obj_path = self._objects / f"{digest}.rgr"
        return {
            "hash": digest,
            "created": obj_path.stat().st_mtime,
            "size_bytes": len(data),
            "nonterminals": len(grammar.nt_names),
            "rules": grammar.total_rules(),
            "encoded_bytes": grammar_bytes(grammar, compact=True),
            "model": getattr(grammar, COUNTS_ATTR, None) is not None,
            "recovered": True,
        }

    def list(self) -> List[Dict]:
        """All grammars' metadata, newest first."""
        records = [
            self.meta(p.stem) for p in sorted(self._objects.glob("*.rgr"))
        ]
        records.sort(key=lambda r: r.get("created") or 0, reverse=True)
        return records

    def tags(self) -> Dict[str, str]:
        out = {}
        for path in self._tags.iterdir():
            if path.is_file() and not path.name.startswith(".") \
                    and ".tmp." not in path.name:
                digest = path.read_text().strip()
                if _HASH_RE.match(digest):
                    out[path.name] = digest
        return out

    def __len__(self) -> int:
        return sum(1 for _ in self._objects.glob("*.rgr"))

    def __contains__(self, ref: str) -> bool:
        try:
            self.resolve(ref)
            return True
        except RegistryError:
            return False

    # -- integrity: quarantine, verify -------------------------------------

    def _quarantine(self, digest: str, reason: str) -> None:
        """Move ``digest``'s object (and meta) aside."""
        qdir = self.quarantine_dir
        qdir.mkdir(exist_ok=True)
        obj_path = self._objects / f"{digest}.rgr"
        with contextlib.suppress(OSError):
            os.replace(obj_path, qdir / obj_path.name)
        meta_path = self._meta / f"{digest}.json"
        if meta_path.exists():
            with contextlib.suppress(OSError):
                os.replace(meta_path, qdir / meta_path.name)
        with contextlib.suppress(OSError):
            (qdir / f"{digest}.reason").write_text(reason + "\n")

    def verify(self, *, repair: bool = False) -> Dict:
        """Full integrity scan; with ``repair`` it also heals.

        Checks every object (name well-formed, content re-hashes to the
        name, RGR1 parses — which verifies the CRC-32 trailer), every
        metadata record (present, regenerable), every tag (well-formed,
        target present), and reports leftover temp files.  With
        ``repair=True``: corrupt objects move to ``objects/quarantine/``,
        missing metadata is regenerated from the object, orphan metadata
        and dangling tags are removed, temp files are reaped.

        Returns a report dict; ``report["clean"]`` is True when nothing
        was wrong (regardless of ``repair``).
        """
        report: Dict = {
            "checked": 0, "ok": 0,
            "corrupt": [], "quarantined": [],
            "missing_meta": [], "repaired_meta": [],
            "orphan_meta": [], "dangling_tags": [],
            "tmp_files": [],
        }
        present = set()
        for path in sorted(self._objects.glob("*.rgr")):
            digest = path.stem
            report["checked"] += 1
            reason = None
            data = None
            if not _HASH_RE.match(digest):
                reason = "malformed object name"
            else:
                try:
                    data = path.read_bytes()
                except OSError as exc:
                    reason = f"unreadable: {exc}"
                if data is not None \
                        and hashlib.sha256(data).hexdigest() != digest:
                    reason = "content hash mismatch"
                elif data is not None:
                    try:
                        load_grammar(data)
                    except (StorageError, ValueError) as exc:
                        reason = f"invalid RGR1: {exc}"
            if reason is not None:
                report["corrupt"].append({"hash": digest,
                                          "reason": reason})
                if repair:
                    self._quarantine(digest, reason)
                    report["quarantined"].append(digest)
                continue
            present.add(digest)
            report["ok"] += 1
            if not (self._meta / f"{digest}.json").exists():
                report["missing_meta"].append(digest)
                if repair:
                    record = self._recover_meta(digest, data)
                    _atomic_write(
                        self._meta / f"{digest}.json",
                        json.dumps(record, indent=1).encode())
                    report["repaired_meta"].append(digest)
        for mpath in sorted(self._meta.glob("*.json")):
            if mpath.stem not in present:
                report["orphan_meta"].append(mpath.stem)
                if repair:
                    with contextlib.suppress(OSError):
                        mpath.unlink()
        for tpath in sorted(self._tags.iterdir()):
            if not tpath.is_file() or tpath.name.startswith(".") \
                    or ".tmp." in tpath.name:
                continue
            target = tpath.read_text().strip()
            if _HASH_RE.match(target) and target in present:
                continue
            report["dangling_tags"].append(
                {"tag": tpath.name, "target": target})
            if repair:
                with contextlib.suppress(OSError):
                    tpath.unlink()
        for d in (self._objects, self._meta, self._tags):
            for tmp in sorted(d.glob("*.tmp.*")):
                report["tmp_files"].append(tmp.name)
                if repair:
                    with contextlib.suppress(OSError):
                        tmp.unlink()
        # Poison verdicts are deliberate state, surfaced for the
        # operator but never "dirt".
        report["poison"] = sum(
            1 for _ in self.quarantine_dir.glob("*.poison.json"))
        report["clean"] = not (report["corrupt"]
                               or report["missing_meta"]
                               or report["orphan_meta"]
                               or report["dangling_tags"]
                               or report["tmp_files"])
        report["repaired"] = repair
        return report

    def startup_scan(self) -> Dict:
        """The self-healing pass a long-lived service runs before
        serving: quarantine corruption, regenerate metadata, drop
        dangling tags and orphan metadata, and reap temp files."""
        return self.verify(repair=True)

    # -- poison quarantine --------------------------------------------------
    #
    # Requests that crashed or hung the native engine.  A verdict is a
    # small JSON sidecar under objects/quarantine/ keyed by
    # :func:`poison_key`; once recorded, the service fails the same
    # request fast with a non-retryable ``poison_input`` error instead
    # of feeding it to the engine again.  Verdicts are deliberate
    # records, not corruption: ``verify`` counts them but they never
    # make the registry un-clean.

    def _poison_path(self, key: str) -> Path:
        if not _HASH_RE.match(key):
            raise RegistryError(f"malformed poison key {key!r}")
        return self.quarantine_dir / f"{key}.poison.json"

    def record_poison(self, key: str, verdict: str, *,
                      content_key: str = "",
                      request_digest: str = "",
                      detail: str = "") -> Dict:
        """Record (idempotently) that a request is poisonous.

        ``verdict`` names what happened (``"crash"``, ``"hang"``);
        ``content_key`` is the grammar's ``compact_key`` (stored under
        that field name); ``detail`` is the human-readable specifics
        (signal name, timeout).  Returns the stored record.
        """
        existing = self.check_poison(key)
        if existing is not None:
            return existing
        record = {
            "key": key,
            "verdict": verdict,
            "content_key": content_key,
            "request_digest": request_digest,
            "detail": detail,
            "recorded": time.time(),
            "pid": os.getpid(),
        }
        self.quarantine_dir.mkdir(exist_ok=True)
        _atomic_write(self._poison_path(key),
                      json.dumps(record, indent=1).encode())
        return record

    def check_poison(self, key: str) -> Optional[Dict]:
        """The poison verdict for ``key``, or ``None`` if it is clean."""
        try:
            return json.loads(self._poison_path(key).read_text())
        except (OSError, ValueError):
            return None

    def poison_list(self) -> List[Dict]:
        """All poison verdicts, oldest first."""
        records = []
        for path in sorted(self.quarantine_dir.glob("*.poison.json")):
            with contextlib.suppress(OSError, ValueError):
                records.append(json.loads(path.read_text()))
        records.sort(key=lambda r: r.get("recorded") or 0)
        return records
