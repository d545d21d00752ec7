"""Runtime compilation and caching of the native engine.

:func:`emit_native <repro.interp.cgen.emit_native>` produces one C file
per trained grammar; this module turns it into a loadable shared object.
The cache is content-addressed: the key folds together the ABI version,
the code-generator version, the compiler's identity and the grammar's
``compact_key`` (the emitted C is generated from the grammar's compact
encoding), so a change to any of them compiles into a *new* slot
and stale objects can never be picked up (they are simply never looked
at again).  Builds are atomic — compile to a temp name in the cache
directory, ``os.replace`` into place — so concurrent processes racing on
the same grammar converge on one valid object.

Failure taxonomy
----------------

:class:`NativeBuildError` deliberately does **not** subclass
``RuntimeError``: the service maps ``RuntimeError`` (``Trap``) to a
*program* fault, while a build failure is an *environment* fault that
callers handle by falling back to the compiled Python engine.
:class:`NativeUnavailableError` is the no-compiler case of the same
thing.  The fault-injection site ``native.build`` fires at the head of
every real build so chaos plans can exercise the fallback path without
uninstalling the compiler.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from .. import faults
from ..core.program import program_for
from .cgen import NATIVE_ABI_VERSION, NATIVE_CGEN_VERSION, emit_native

__all__ = [
    "NativeBuildError",
    "NativeUnavailableError",
    "find_compiler",
    "NativeBuildCache",
    "default_cache",
]


class NativeBuildError(Exception):
    """Compiling or loading the native engine failed.

    Not a ``RuntimeError``/``Trap``: this is an environment problem, not
    a program fault, and the service's engine routing must be able to
    tell the two apart (fall back vs. report)."""


class NativeUnavailableError(NativeBuildError):
    """No usable C compiler on this host (or disabled via environment)."""


#: candidate driver names, tried in order when no override is set.
_COMPILERS = ("cc", "gcc", "clang")


def find_compiler() -> Optional[str]:
    """Absolute path of the C compiler to use, or None.

    ``REPRO_NATIVE_CC`` (then ``CC``) overrides detection; setting either
    to ``"none"`` or the empty string disables the native engine — the
    hook the deliberately compiler-less CI job uses.
    """
    for var in ("REPRO_NATIVE_CC", "CC"):
        override = os.environ.get(var)
        if override is not None:
            if override.strip() in ("", "none"):
                return None
            return shutil.which(override) or None
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _extra_cflags() -> List[str]:
    """Extra compiler flags from ``REPRO_NATIVE_CFLAGS`` (shlex rules).

    The hook the sanitizer CI job uses to build the generated C with
    ``-fsanitize=address,undefined``.  The flags are folded into the
    cache key, so a sanitized build and a plain build of the same
    grammar occupy different slots and can never shadow each other.
    """
    return shlex.split(os.environ.get("REPRO_NATIVE_CFLAGS", ""))


_compiler_ids: Dict[str, str] = {}


def _compiler_id(cc: str) -> str:
    """A string identifying the compiler build (folded into cache keys so
    a toolchain upgrade invalidates old objects)."""
    cached = _compiler_ids.get(cc)
    if cached is None:
        try:
            out = subprocess.run(
                [cc, "--version"], capture_output=True, text=True,
                timeout=30, check=False,
            ).stdout
            cached = (out or "").splitlines()[0].strip() if out else cc
        except OSError:
            cached = cc
        _compiler_ids[cc] = cached
    return cached


def _default_cache_root() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


def _dlclose(lib: ctypes.CDLL) -> None:
    """Release a rejected dlopen handle (best effort, CPython-specific)."""
    try:
        import _ctypes
        _ctypes.dlclose(lib._handle)
    except Exception:  # noqa: BLE001 - hygiene only, never fatal
        pass


class _LoadedEngine:
    """One dlopen'd shared object with its entry points typed."""

    def __init__(self, path: Path, lib: ctypes.CDLL) -> None:
        self.path = path
        self.lib = lib
        lib.rxn_abi.restype = ctypes.c_int
        lib.rxn_abi.argtypes = []
        lib.rxn_grammar_key.restype = ctypes.c_char_p
        lib.rxn_grammar_key.argtypes = []
        lib.rxn_run.restype = ctypes.c_int
        # argtypes for rxn_run are set by repro.interp.native, which owns
        # the ctypes Structure definitions.


class NativeBuildCache:
    """Content-addressed build cache for native-engine shared objects.

    ``compilations`` and ``cache_hits`` count real compiler invocations
    and on-disk hits — the observable the cache tests pin ("a second load
    compiles zero times").
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        self.root = Path(root) if root is not None else _default_cache_root()
        self.compilations = 0
        self.cache_hits = 0
        self._loaded: Dict[str, _LoadedEngine] = {}

    # -- key / paths -------------------------------------------------------
    def compiler(self) -> str:
        cc = find_compiler()
        if not cc:
            raise NativeUnavailableError(
                "no C compiler found (tried cc, gcc, clang; "
                "set REPRO_NATIVE_CC to override)")
        return cc

    def key_for(self, grammar) -> str:
        grammar_key = program_for(grammar).compact_key
        if grammar_key is None:
            raise NativeBuildError(
                "the native engine needs a grammar the compact encoding "
                "can express")
        ident = ":".join([
            str(NATIVE_ABI_VERSION),
            str(NATIVE_CGEN_VERSION),
            _compiler_id(self.compiler()),
            " ".join(_extra_cflags()),
            grammar_key,
        ])
        return hashlib.sha256(ident.encode()).hexdigest()[:40]

    def object_path(self, grammar) -> Path:
        return self.root / f"{self.key_for(grammar)}.so"

    # -- build / load ------------------------------------------------------
    def _compile(self, grammar, target: Path,
                 source_text: Optional[str] = None) -> None:
        if faults.ACTIVE is not None:
            faults.ACTIVE.fire("native.build", exc=NativeBuildError,
                               message="injected native build failure")
        cc = self.compiler()
        source = source_text if source_text is not None \
            else emit_native(grammar)
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp_c = tempfile.mkstemp(suffix=".c", dir=self.root)
        tmp_so = tmp_c[:-2] + ".so"
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            cmd: List[str] = [cc, "-O2", "-shared", "-fPIC",
                              *_extra_cflags(),
                              "-o", tmp_so, tmp_c, "-lm"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                detail = (proc.stderr or proc.stdout or "").strip()
                raise NativeBuildError(
                    f"{os.path.basename(cc)} failed (exit {proc.returncode})"
                    + (f":\n{detail[:2000]}" if detail else ""))
            self.compilations += 1
            os.replace(tmp_so, target)
        except subprocess.TimeoutExpired:
            raise NativeBuildError(f"{cc} timed out compiling the engine")
        finally:
            for leftover in (tmp_c, tmp_so):
                try:
                    os.unlink(leftover)
                except OSError:
                    pass

    def _try_load(self, path: Path, expect_key: str) -> _LoadedEngine:
        """dlopen + validate; raises NativeBuildError on any mismatch.

        A rejected object is dlclose'd before raising: dlopen caches open
        handles by pathname, so leaking the bad handle would make the
        subsequent rebuild's load return the stale object."""
        try:
            lib = ctypes.CDLL(str(path))
        except OSError as e:
            raise NativeBuildError(f"cannot load {path.name}: {e}") from e
        try:
            engine = _LoadedEngine(path, lib)
            abi = engine.lib.rxn_abi()
            key = engine.lib.rxn_grammar_key().decode()
        except AttributeError as e:
            _dlclose(lib)
            raise NativeBuildError(
                f"{path.name} lacks the engine entry points: {e}") from e
        if abi != NATIVE_ABI_VERSION:
            _dlclose(lib)
            raise NativeBuildError(
                f"{path.name} has ABI {abi}, expected {NATIVE_ABI_VERSION}")
        if key != expect_key:
            _dlclose(lib)
            raise NativeBuildError(
                f"{path.name} was built for grammar {key[:12]}…, "
                f"expected {expect_key[:12]}…")
        return engine

    def load(self, grammar, source_text: Optional[str] = None
             ) -> _LoadedEngine:
        """The loaded engine for ``grammar``, building if necessary.

        ``source_text`` substitutes the emitted C (the build tests use it
        to provoke compiler errors); it does not change the cache key, so
        pass it only with a private cache root.
        """
        cache_key = self.key_for(grammar)
        engine = self._loaded.get(cache_key)
        if engine is not None:
            self.cache_hits += 1
            return engine
        grammar_key = program_for(grammar).compact_key
        target = self.root / f"{cache_key}.so"
        if target.exists():
            try:
                engine = self._try_load(target, grammar_key)
                self.cache_hits += 1
                self._loaded[cache_key] = engine
                return engine
            except NativeBuildError:
                # corrupted or truncated object: rebuild, don't crash
                try:
                    os.unlink(target)
                except OSError:
                    pass
        self._compile(grammar, target, source_text=source_text)
        engine = self._try_load(target, grammar_key)
        self._loaded[cache_key] = engine
        return engine


_DEFAULT: Optional[NativeBuildCache] = None


def default_cache() -> NativeBuildCache:
    """The process-wide cache (shared so every engine instance for the
    same grammar reuses one dlopen'd object)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = NativeBuildCache()
    return _DEFAULT
