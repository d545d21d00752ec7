"""Tests for the binary file formats and the command-line interface."""

import pytest

import repro
from repro.cli import main
from repro.compress.compressor import Compressor
from repro.minic import compile_source
from repro.storage import (
    StorageError,
    load_any,
    load_compressed,
    load_grammar,
    load_module,
    save_compressed,
    save_grammar,
    save_module,
)

APP = """
int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
int main(void) { putint(fib(10)); putchar('\\n'); return 0; }
"""

CORPUS = """
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 30; i++) s += i * i;
    putint(s);
    return 0;
}
"""


@pytest.fixture(scope="module")
def setup():
    app = compile_source(APP)
    corpus = compile_source(CORPUS)
    grammar, _ = repro.train_grammar([corpus, app])
    cmod = Compressor(grammar).compress_module(app)
    return app, corpus, grammar, cmod


# -- module format ------------------------------------------------------------

def test_module_roundtrip(setup):
    app, _, _, _ = setup
    back = load_module(save_module(app))
    assert [p.code for p in back.procedures] == \
        [p.code for p in app.procedures]
    assert [p.labels for p in back.procedures] == \
        [p.labels for p in app.procedures]
    assert [(g.kind, g.name, g.value) for g in back.globals] == \
        [(g.kind, g.name, g.value) for g in app.globals]
    assert back.data == app.data
    assert back.bss_size == app.bss_size
    assert back.entry == app.entry
    assert repro.run(back) == repro.run(app)


def test_module_rejects_bad_magic(setup):
    with pytest.raises(StorageError, match="RBC1"):
        load_module(b"XXXX" + b"\x00" * 16)


def test_module_rejects_truncation(setup):
    app, _, _, _ = setup
    data = save_module(app)
    with pytest.raises(StorageError):
        load_module(data[:-3])


def test_module_rejects_trailing_garbage(setup):
    app, _, _, _ = setup
    with pytest.raises(StorageError, match="trailing"):
        load_module(save_module(app) + b"\x00")


def test_module_load_validates_bytecode(setup):
    app, _, _, _ = setup
    data = bytearray(save_module(app))
    # Corrupt a code byte to an opcode that breaks stack discipline: the
    # validator must catch it at load time.  Find a code blob and stomp it.
    idx = data.find(app.procedures[0].code)
    assert idx > 0
    data[idx:idx + len(app.procedures[0].code)] = bytes(
        [repro.bytecode.opcode("ADDU") if False else 42]
    ) * len(app.procedures[0].code)
    with pytest.raises(Exception):
        load_module(bytes(data))


# -- CRC-32 trailer -----------------------------------------------------------

def test_crc_trailer_present_and_verified(setup):
    app, _, grammar, cmod = setup
    import struct
    import zlib
    from repro.storage import save_compressed as sc, save_grammar as sg
    for blob in (save_module(app), sc(cmod), sg(grammar)):
        (stored,) = struct.unpack("<I", blob[-4:])
        assert stored == zlib.crc32(blob[:-4])


def test_crc_mismatch_fails_loudly(setup):
    app, _, _, _ = setup
    data = bytearray(save_module(app))
    data[-1] ^= 0xFF  # corrupt the trailer itself
    with pytest.raises(StorageError, match="CRC-32"):
        load_module(bytes(data))


def test_crc_catches_silent_data_corruption(setup):
    app, _, _, _ = setup
    data = bytearray(save_module(app))
    # a single flipped bit mid-file: whatever the structural parse makes
    # of it, the load must fail rather than return a wrong module
    data[len(data) // 2] ^= 0x01
    with pytest.raises(Exception):
        load_module(bytes(data))


def test_files_without_trailer_are_rejected(setup):
    app, _, grammar, cmod = setup
    # the same bytes minus the trailer, in each trailer-sealed format
    for blob, load in ((save_module(app), load_module),
                       (save_compressed(cmod), load_compressed),
                       (save_grammar(grammar), load_grammar)):
        with pytest.raises(StorageError, match="trailer"):
            load(blob[:-4])


# -- grammar format -------------------------------------------------------------

def test_grammar_roundtrip_preserves_compression(setup):
    app, _, grammar, _ = setup
    loaded = load_grammar(save_grammar(grammar))
    a = Compressor(grammar).compress_module(app)
    b = Compressor(loaded).compress_module(app)
    assert a.code_bytes == b.code_bytes
    assert [p.code for p in a.procedures] == [p.code for p in b.procedures]


def test_grammar_roundtrip_preserves_provenance(setup):
    _, _, grammar, _ = setup
    loaded = load_grammar(save_grammar(grammar))
    assert loaded.nt_names == grammar.nt_names
    orig = [(r.lhs, r.rhs, r.origin) for r in grammar]
    back = [(r.lhs, r.rhs, r.origin) for r in loaded]
    assert orig == back
    from repro.grammar.analysis import check_language_preserved
    check_language_preserved(loaded)


def test_grammar_bad_magic():
    with pytest.raises(StorageError, match="RGR1"):
        load_grammar(b"NOPE")


# -- compressed format -----------------------------------------------------------

def test_compressed_roundtrip(setup):
    app, _, _, cmod = setup
    back = load_compressed(save_compressed(cmod))
    assert [p.code for p in back.procedures] == \
        [p.code for p in cmod.procedures]
    assert [p.labels for p in back.procedures] == \
        [p.labels for p in cmod.procedures]
    assert repro.run_compressed(back) == repro.run_compressed(cmod)
    rec = repro.decompress_module(back)
    assert [p.code for p in rec.procedures] == \
        [p.code for p in app.procedures]


def test_load_any_dispatch(setup):
    app, _, _, cmod = setup
    from repro.bytecode.module import Module
    from repro.compress.container import CompressedModule
    assert isinstance(load_any(save_module(app)), Module)
    assert isinstance(load_any(save_compressed(cmod)), CompressedModule)
    with pytest.raises(StorageError, match="magic"):
        load_any(b"????junk")


# -- CLI ---------------------------------------------------------------------------

@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "app.c").write_text(APP)
    (tmp_path / "corpus.c").write_text(CORPUS)
    return tmp_path


def test_cli_full_pipeline(workspace, capsys):
    ws = str(workspace)
    assert main(["compile", f"{ws}/app.c", "-o", f"{ws}/app.rbc"]) == 0
    assert main(["compile", f"{ws}/corpus.c", "-o",
                 f"{ws}/corpus.rbc"]) == 0
    assert main(["train", f"{ws}/corpus.rbc", f"{ws}/app.rbc",
                 "-o", f"{ws}/g.rgr"]) == 0
    assert main(["compress", f"{ws}/app.rbc", "-g", f"{ws}/g.rgr",
                 "-o", f"{ws}/app.rcx"]) == 0
    capsys.readouterr()

    code = main(["run", f"{ws}/app.rbc"])
    out1 = capsys.readouterr().out
    code2 = main(["run", f"{ws}/app.rcx"])
    out2 = capsys.readouterr().out
    assert code == code2 == 0
    assert out1 == out2 == "55\n"

    assert main(["decompress", f"{ws}/app.rcx", "-o",
                 f"{ws}/back.rbc"]) == 0
    capsys.readouterr()
    main(["disasm", f"{ws}/app.rbc"])
    d1 = capsys.readouterr().out
    main(["disasm", f"{ws}/back.rbc"])
    d2 = capsys.readouterr().out
    assert d1 == d2

    assert main(["stats", f"{ws}/app.rbc", f"{ws}/app.rcx"]) == 0
    stats_out = capsys.readouterr().out
    assert "bytecode" in stats_out and "grammar" in stats_out


def test_cli_compression_shrinks(workspace, capsys):
    # Multi-file compilation is whole-program (textual linkage), so the
    # helper file must not define its own main.
    (workspace / "lib.c").write_text(
        "int square(int x) { return x * x; }\n"
        "int cube(int x) { return x * square(x); }\n"
    )
    ws = str(workspace)
    main(["compile", f"{ws}/app.c", f"{ws}/lib.c",
          "-o", f"{ws}/all.rbc"])
    main(["train", f"{ws}/all.rbc", "-o", f"{ws}/g.rgr"])
    main(["compress", f"{ws}/all.rbc", "-g", f"{ws}/g.rgr",
          "-o", f"{ws}/all.rcx"])
    out = capsys.readouterr().out
    assert "->" in out
    from repro.storage import load_compressed as lc, load_module as lm
    orig = lm((workspace / "all.rbc").read_bytes())
    comp = lc((workspace / "all.rcx").read_bytes())
    assert comp.code_bytes < orig.code_bytes


def test_cli_run_exit_code(workspace, capsys):
    ws = str(workspace)
    (workspace / "ret7.c").write_text("int main(void) { return 7; }")
    main(["compile", f"{ws}/ret7.c", "-o", f"{ws}/ret7.rbc"])
    assert main(["run", f"{ws}/ret7.rbc"]) == 7


def test_cli_run_args(workspace, capsys):
    ws = str(workspace)
    (workspace / "add.c").write_text(
        "int main(int a) { return a + 1; }")
    main(["compile", f"{ws}/add.c", "-o", f"{ws}/add.rbc"])
    assert main(["run", f"{ws}/add.rbc", "41"]) == 42


def test_cli_decompress_rejects_plain_module(workspace, capsys):
    ws = str(workspace)
    main(["compile", f"{ws}/app.c", "-o", f"{ws}/app.rbc"])
    assert main(["decompress", f"{ws}/app.rbc", "-o",
                 f"{ws}/x.rbc"]) == 2


# -- CLI exit-code hygiene: operational errors are one stderr line, exit 2 ----

def _assert_clean_failure(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, f"{argv}: expected exit 2, got {code}"
    assert captured.err.startswith("repro: ")
    assert captured.err.count("\n") == 1, f"not one line: {captured.err!r}"
    assert "Traceback" not in captured.err


def test_cli_missing_inputs_exit_2(workspace, capsys):
    ws = str(workspace)
    main(["compile", f"{ws}/app.c", "-o", f"{ws}/app.rbc"])
    main(["compile", f"{ws}/corpus.c", "-o", f"{ws}/corpus.rbc"])
    main(["train", f"{ws}/corpus.rbc", "-o", f"{ws}/g.rgr"])
    capsys.readouterr()
    _assert_clean_failure(capsys, ["decompress", f"{ws}/nope.rcx",
                                   "-o", f"{ws}/x.rbc"])
    _assert_clean_failure(capsys, ["run", f"{ws}/nope.rbc"])
    _assert_clean_failure(capsys, ["compress", f"{ws}/nope.rbc",
                                   "-g", f"{ws}/g.rgr",
                                   "-o", f"{ws}/x.rcx"])
    _assert_clean_failure(capsys, ["compress", f"{ws}/app.rbc",
                                   "-g", f"{ws}/nope.rgr",
                                   "-o", f"{ws}/x.rcx"])
    _assert_clean_failure(capsys, ["train", f"{ws}/nope.rbc",
                                   "-o", f"{ws}/g2.rgr"])
    _assert_clean_failure(capsys, ["compile", f"{ws}/nope.c",
                                   "-o", f"{ws}/x.rbc"])
    _assert_clean_failure(capsys, ["disasm", f"{ws}/nope.rbc"])
    _assert_clean_failure(capsys, ["stats", f"{ws}/nope.rbc"])


def test_cli_corrupt_inputs_exit_2(workspace, capsys):
    ws = str(workspace)
    main(["compile", f"{ws}/app.c", "-o", f"{ws}/app.rbc"])
    capsys.readouterr()
    (workspace / "junk.rbc").write_bytes(b"not a module at all")
    truncated = (workspace / "app.rbc").read_bytes()[:-9]
    (workspace / "trunc.rbc").write_bytes(truncated)
    corrupt = bytearray((workspace / "app.rbc").read_bytes())
    corrupt[-1] ^= 0xFF
    (workspace / "crc.rbc").write_bytes(bytes(corrupt))
    for bad in ("junk.rbc", "trunc.rbc", "crc.rbc"):
        _assert_clean_failure(capsys, ["run", f"{ws}/{bad}"])
        _assert_clean_failure(capsys, ["decompress", f"{ws}/{bad}",
                                       "-o", f"{ws}/x.rbc"])
    _assert_clean_failure(capsys, ["compress", f"{ws}/junk.rbc",
                                   "-g", f"{ws}/junk.rbc",
                                   "-o", f"{ws}/x.rcx"])


def test_cli_registry_unknown_ref_exit_2(workspace, capsys):
    ws = str(workspace)
    _assert_clean_failure(capsys, ["registry", "-d", f"{ws}/reg",
                                   "show", "nothere"])
    _assert_clean_failure(capsys, ["registry", "-d", f"{ws}/reg",
                                   "add", f"{ws}/missing.rgr"])


def test_cli_client_no_server_exit_2(workspace, capsys):
    # nothing listens on this port (bound but not accepting would be
    # flakier; a refused connect is the common operational failure)
    _assert_clean_failure(capsys, ["client", "--port", "1",
                                   "--timeout", "2", "health"])


def test_cli_grammar_stats(workspace, capsys):
    import json

    ws = str(workspace)
    main(["compile", f"{ws}/corpus.c", "-o", f"{ws}/corpus.rbc"])
    main(["train", f"{ws}/corpus.rbc", "-o", f"{ws}/g.rgr"])
    assert main(["registry", "-d", f"{ws}/reg", "add", f"{ws}/g.rgr",
                 "-t", "prod"]) == 0
    capsys.readouterr()
    assert main(["grammar", "-d", f"{ws}/reg", "stats", "prod"]) == 0
    out = capsys.readouterr().out
    assert "rules" in out and "prediction-set density" in out
    assert "flattened rule tables" in out
    # --json appends the full machine-readable stats block.
    assert main(["grammar", "-d", f"{ws}/reg", "stats", "prod",
                 "--json"]) == 0
    out = capsys.readouterr().out
    stats = json.loads(out[out.index("{"):])
    assert stats["rules"] > 0 and 0 < stats["prediction_set_density"] <= 1
    _assert_clean_failure(capsys, ["grammar", "-d", f"{ws}/reg",
                                   "stats", "nothere"])
