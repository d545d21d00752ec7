#!/usr/bin/env python3
"""Import-layering lint for the repro package.

The architecture is a strict layering (see docs/ARCHITECTURE.md):

    faults, bytecode                          (0)
    grammar, native                           (1)   # x86 size model —
                                                    # interp/native.py (the
                                                    # C engine) is "interp"
    core                                      (2)
    parsing                                   (3)
    interp, coding                            (4)   # coding may depend on
                                                    # core/parsing, never on
                                                    # compress or the service
    minic, compress                           (5)
    corpus, storage, opt, training            (6)
    baselines, registry, pipeline             (7)
    experiments, service                      (8)
    cli                                       (9)
    __main__                                  (10)

Rules enforced, by AST walk (no imports executed):

1. A *module-level* import may only reach strictly lower layers — e.g.
   ``parsing`` must not import ``interp``, ``core`` must not import
   ``storage``.  Function-local imports are exempt (they express a
   deliberate late binding, e.g. the CLI loading the service stack), but
   rule 2 still applies to them.
2. Nothing, at any level, imports ``cli`` or ``__main__`` — the command
   line is the top of the stack, not a library.  (``__main__`` itself is
   the entry point and may import ``cli``.)
3. Within packages that declare SUB_RANKS (currently ``training``:
   edges < inline < expander < oracle/repair < strategy), a
   module-level import of a ranked sibling must also point strictly
   down — the trainer can't grow upward imports into the primitives it
   is built from.

Exit status 0 when clean; 1 with one line per violation otherwise.
Run from the repository root::

    python tools/check_layering.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = "repro"
SRC = Path(__file__).resolve().parent.parent / "src" / PACKAGE

#: package (or top-level module) name -> layer rank
RANKS = {
    "faults": 0, "bytecode": 0,
    "grammar": 1, "native": 1,
    "core": 2,
    "parsing": 3,
    "interp": 4, "coding": 4,
    "minic": 5, "compress": 5,
    "corpus": 6, "storage": 6, "opt": 6, "training": 6,
    "baselines": 7, "registry": 7, "pipeline": 7,
    "experiments": 8, "service": 8,
    "cli": 9,
    "__main__": 10,
}

#: modules no one may import, even lazily
FORBIDDEN = {"cli", "__main__"}

#: fine-grained ranks *inside* a package: module-level imports between
#: ranked siblings must also point strictly down.  The training package
#: is layered so the trainer (strategy -> expander, repair) sits on top
#: of the primitives it is built from and can never grow upward imports
#: into them, the maximal-repeat seeder stays below the trainer that
#: runs it, and the frozen oracle stays parallel to (never entangled
#: with) the live expander.  Unlisted modules (e.g. __init__) may import
#: any sibling.
SUB_RANKS = {
    "training": {
        "edges": 0,
        "inline": 1,
        "expander": 2,
        "oracle": 3, "repair": 3,
        "strategy": 4,
    },
}


def _top_component(path: Path, src: Path) -> str:
    """The layer a source file belongs to (its top-level subpackage, or
    the module name for top-level .py files)."""
    rel = path.relative_to(src)
    if len(rel.parts) == 1:
        name = rel.stem
        return PACKAGE if name == "__init__" else name
    return rel.parts[0]


def _module_level_fn(tree: ast.AST):
    """A predicate: is this node outside any function/lambda body?"""
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node

    def module_level(node) -> bool:
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                return False
            cur = parents.get(cur)
        return True

    return module_level


def _imported_components(tree: ast.AST, path: Path, src: Path):
    """Yield (component, lineno, is_module_level) for every intra-package
    import in the file."""
    rel_parts = path.relative_to(src).parts
    module_level = _module_level_fn(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) > 1:
                    yield parts[1], node.lineno, module_level(node)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: resolve against this file's package.
                # level=1 in pkg/mod.py -> repro/pkg; in pkg/__init__.py
                # -> repro/pkg as well (its package is itself).
                base = list(rel_parts[:-1])
                up = node.level - 1
                base = base[:len(base) - up] if up else base
                parts = base + (node.module.split(".")
                                if node.module else [])
                if parts:
                    yield parts[0], node.lineno, module_level(node)
                else:
                    # `from .. import x` at the top: names are components
                    for alias in node.names:
                        yield alias.name, node.lineno, module_level(node)
            else:
                parts = node.module.split(".") if node.module else []
                if parts and parts[0] == PACKAGE:
                    if len(parts) > 1:
                        yield parts[1], node.lineno, module_level(node)
                    else:
                        for alias in node.names:
                            yield (alias.name, node.lineno,
                                   module_level(node))


def _sibling_imports(tree: ast.AST, path: Path, src: Path):
    """Yield (submodule, lineno, is_module_level) for every import that
    targets a module of the same subpackage as ``path`` (for the
    fine-grained SUB_RANKS rule)."""
    rel_parts = path.relative_to(src).parts
    if len(rel_parts) < 2:
        return
    pkg = rel_parts[0]
    module_level = _module_level_fn(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == [PACKAGE, pkg] and len(parts) > 2:
                    yield parts[2], node.lineno, module_level(node)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = list(rel_parts[:-1])
                up = node.level - 1
                base = base[:len(base) - up] if up else base
                parts = base + (node.module.split(".")
                                if node.module else [])
            elif node.module and node.module.split(".")[0] == PACKAGE:
                parts = node.module.split(".")[1:]
            else:
                continue
            if not parts or parts[0] != pkg:
                continue
            if len(parts) > 1:
                yield parts[1], node.lineno, module_level(node)
            else:
                # `from . import x`: the names may be sibling modules.
                for alias in node.names:
                    yield alias.name, node.lineno, module_level(node)


def check(src: Path = SRC):
    """All layering violations in the tree, as printable strings."""
    violations = []
    for path in sorted(src.rglob("*.py")):
        component = _top_component(path, src)
        rank = RANKS.get(component)
        tree = ast.parse(path.read_text(), filename=str(path))
        sub = SUB_RANKS.get(component)
        mod_rank = sub.get(path.stem) if sub else None
        if mod_rank is not None:
            for target, lineno, at_module_level in \
                    _sibling_imports(tree, path, src):
                target_rank = sub.get(target)
                if target_rank is None or target == path.stem \
                        or not at_module_level:
                    continue
                if target_rank >= mod_rank:
                    violations.append(
                        f"{path.relative_to(src.parent)}:{lineno}: "
                        f"{component}.{path.stem} (sub-layer {mod_rank}) "
                        f"imports {component}.{target} "
                        f"(sub-layer {target_rank}) at module level")
        for target, lineno, at_module_level in \
                _imported_components(tree, path, src):
            where = f"{path.relative_to(src.parent)}:{lineno}"
            if target in FORBIDDEN and component != target \
                    and component != "__main__":
                # __main__ is the entry point; it alone sits above cli.
                violations.append(
                    f"{where}: imports {PACKAGE}.{target} "
                    f"(the command line is not a library)")
                continue
            target_rank = RANKS.get(target)
            if rank is None or target_rank is None:
                continue  # helper names from `from .. import x`, etc.
            if component == target:
                continue
            if at_module_level and target_rank >= rank:
                violations.append(
                    f"{where}: {component} (layer {rank}) imports "
                    f"{target} (layer {target_rank}) at module level")
    return violations


def main() -> int:
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} layering violation(s)")
        return 1
    print("layering clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
