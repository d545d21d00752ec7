"""The import-layering lint (tools/check_layering.py) as a test: the
real tree must be clean, and the lint must actually catch violations —
a lint that silently passes everything would make the CI gate
decorative."""

import shutil
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from check_layering import SRC, check  # noqa: E402


def test_tree_is_clean():
    assert check() == [], "\n".join(check())


def test_lint_catches_module_level_up_import(tmp_path):
    # parsing (layer 3) importing interp (layer 4) at module level.
    bad = tmp_path / "repro"
    shutil.copytree(SRC, bad)
    (bad / "parsing" / "bad.py").write_text(
        "from ..interp import tables\n")
    violations = check(bad)
    assert any("parsing/bad.py" in v and "interp" in v
               for v in violations)


def test_lint_catches_cli_import_even_lazily(tmp_path):
    bad = tmp_path / "repro"
    shutil.copytree(SRC, bad)
    (bad / "grammar" / "worse.py").write_text(
        "def late():\n    import repro.cli\n")
    violations = check(bad)
    assert any("grammar/worse.py" in v and "cli" in v
               for v in violations)


def test_lint_catches_training_sublayer_up_import(tmp_path):
    # The training package is sub-ranked: a primitive (edges, sub-layer
    # 0) importing the trainer module (strategy, sub-layer 4) at module
    # level must be flagged even though both are "training".
    bad = tmp_path / "repro"
    shutil.copytree(SRC, bad)
    edges = bad / "training" / "edges.py"
    edges.write_text(edges.read_text()
                     + "\nfrom .strategy import Trainer\n")
    violations = check(bad)
    assert any("training/edges.py" in v and "strategy" in v
               for v in violations)


def test_lint_allows_function_local_training_sibling_import(tmp_path):
    # The same upward sibling import inside a function is a deliberate
    # late binding and must stay exempt.
    ok = tmp_path / "repro"
    shutil.copytree(SRC, ok)
    edges = ok / "training" / "edges.py"
    edges.write_text(edges.read_text()
                     + "\n\ndef _late():\n"
                       "    from .strategy import Trainer\n"
                       "    return Trainer\n")
    assert check(ok) == check(SRC) == []


def test_lint_allows_function_local_down_skip(tmp_path):
    # A function-local import of a same-or-higher layer (other than cli)
    # is a deliberate late binding and must NOT be flagged.
    ok = tmp_path / "repro"
    shutil.copytree(SRC, ok)
    (ok / "parsing" / "lazy.py").write_text(
        "def late():\n    from ..interp import tables\n    return tables\n")
    assert check(ok) == check(SRC) == []
