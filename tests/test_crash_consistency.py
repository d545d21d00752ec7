"""Crash consistency and self-healing for the grammar registry.

The central invariant: a crash at *any* point inside a registry write
leaves the store in the old state or the new state — never a torn,
half-visible one — and a subsequent ``startup_scan`` (= the service's
boot pass, = ``repro registry verify --repair``) returns the store to a
clean bill of health without losing any intact grammar.

Faults are injected with ``repro.faults``: the atomic-write primitive
exposes a site at every distinct failure window (payload corruption,
torn temp file, crash before the rename, crash after the rename), and
each test kills the write at one of them.
"""

import pytest

import repro
from repro import faults
from repro.faults import InjectedFault
from repro.cli import main
from repro.minic import compile_source
from repro.registry import GrammarRegistry, RegistryError
from repro.storage import save_grammar

SOURCE = """
int main(void) {
    int i, s;
    s = 0;
    for (i = 0; i < 9; i++) s += i;
    putint(s);
    return 0;
}
"""


@pytest.fixture(scope="module")
def grammar_data():
    grammar, _ = repro.train_grammar([compile_source(SOURCE)])
    return save_grammar(grammar)


@pytest.fixture(autouse=True)
def _no_leaked_plane():
    yield
    assert faults.ACTIVE is None, "a test leaked an active fault plane"
    faults.deactivate()


def _healthy(root, grammar_data, digest=None):
    """Assert the registry at ``root`` heals to a clean state and any
    surviving copy of the grammar is byte-intact."""
    registry = GrammarRegistry(root)  # fresh open
    report = registry.startup_scan()
    assert registry.verify()["clean"], report
    if digest is not None and digest in registry:
        assert registry.get_bytes(digest) == grammar_data
    return registry


# -- the tentpole invariant: old state or new state at every kill point ------

# put_bytes performs three atomic writes when tagging: provenance
# metadata, then the object, then the tag file.  Kill each one, at each
# of its crash windows.
KILL_SITES = ["registry.atomic.torn", "registry.atomic.pre_rename",
              "registry.atomic.post_rename"]


@pytest.mark.parametrize("write_index", [1, 2, 3])
@pytest.mark.parametrize("site", KILL_SITES)
def test_killed_put_leaves_old_or_new_state(tmp_path, grammar_data,
                                            site, write_index):
    registry = GrammarRegistry(tmp_path)
    plan = {"seed": 0, "sites": {site: {"at": [write_index]}}}
    with faults.injected(plan) as plane:
        try:
            registry.put_bytes(grammar_data, tags=["prod"])
            # post_rename on the last write completes the put before the
            # simulated crash; every other case must have raised.
            assert (site, write_index) == \
                ("registry.atomic.post_rename", 3)
        except InjectedFault:
            pass
        assert plane.fired(site) == 1

    healed = _healthy(tmp_path, grammar_data)
    # Whatever survived must be all-or-nothing: a listed grammar has
    # intact bytes and valid metadata; a surviving tag resolves.
    for record in healed.list():
        assert healed.get_bytes(record["hash"]) == grammar_data
        assert record["rules"] > 0
    for tag, digest in healed.tags().items():
        assert healed.get_bytes(healed.resolve(tag)) == grammar_data


def test_killed_retag_preserves_old_tag(tmp_path, grammar_data):
    """An interrupted tag *update* must leave the tag pointing at the
    old target (rename is the commit point)."""
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data, tags=["prod"])
    other = registry.put_bytes(
        grammar_data + b"",  # same bytes: same digest; use meta variant
        tags=[])
    assert other == digest  # content-addressed: same grammar, same name
    with faults.injected(
            {"seed": 0, "sites": {"registry.atomic.torn": {"at": 1}}}):
        with pytest.raises(InjectedFault):
            registry.tag(digest, "prod")
    assert GrammarRegistry(tmp_path).tags()["prod"] == digest
    _healthy(tmp_path, grammar_data, digest)


def test_corrupted_payload_is_caught_and_quarantined(tmp_path,
                                                     grammar_data):
    """A bit flipped between hashing and writing (the classic silent-
    corruption window) must never be served: the read-side re-hash
    catches it and quarantines the object."""
    registry = GrammarRegistry(tmp_path)
    # write 2 is the object itself (write 1 is the metadata)
    with faults.injected(
            {"seed": 5,
             "sites": {"registry.atomic.corrupt": {"at": [2]}}}):
        digest = registry.put_bytes(grammar_data)
    fresh = GrammarRegistry(tmp_path)
    with pytest.raises(RegistryError, match="integrity check"):
        fresh.get_bytes(digest)
    qdir = fresh.quarantine_dir
    assert (qdir / f"{digest}.rgr").exists()
    assert "mismatch" in (qdir / f"{digest}.reason").read_text()
    # quarantine is terminal: the store itself is clean again
    assert fresh.verify()["clean"]


def test_torn_write_leaves_reapable_temp_file(tmp_path, grammar_data):
    registry = GrammarRegistry(tmp_path)
    with faults.injected(
            {"seed": 0, "sites": {"registry.atomic.torn": {"at": 1}}}):
        with pytest.raises(InjectedFault):
            registry.put_bytes(grammar_data)
    report = registry.verify()
    assert report["tmp_files"] and not report["clean"]
    assert registry.verify(repair=True)["tmp_files"] == report["tmp_files"]
    assert registry.verify()["clean"]


def test_orphan_meta_from_pre_rename_crash_is_reaped(tmp_path,
                                                     grammar_data):
    """put writes metadata before the object, so a crash between the two
    leaves an invisible orphan record — a repairing verify's job, never
    a visible half-grammar."""
    registry = GrammarRegistry(tmp_path)
    with faults.injected(
            {"seed": 0,
             "sites": {"registry.atomic.post_rename": {"at": [1]}}}):
        with pytest.raises(InjectedFault):
            registry.put_bytes(grammar_data)
    assert len(registry) == 0  # nothing half-visible
    assert registry.verify()["orphan_meta"]
    registry.verify(repair=True)
    assert registry.verify()["clean"]


# -- verifying reads ---------------------------------------------------------

def test_missing_object_read_is_structured(tmp_path, grammar_data):
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data)
    with faults.injected(
            {"seed": 0,
             "sites": {"registry.read.missing": {"at": [1]}}}):
        with pytest.raises(RegistryError, match="missing from object"):
            GrammarRegistry(tmp_path).get_bytes(digest)


def test_bit_rot_on_read_quarantines(tmp_path, grammar_data):
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data)
    with faults.injected(
            {"seed": 9,
             "sites": {"registry.read.corrupt": {"at": [1]}}}):
        with pytest.raises(RegistryError, match="quarantined"):
            GrammarRegistry(tmp_path).get_bytes(digest)
    assert (GrammarRegistry(tmp_path).quarantine_dir
            / f"{digest}.rgr").exists()


# -- dangling tags (satellite: structured error, CLI exit 2) -----------------

def _make_dangling(tmp_path, grammar_data):
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data, tags=["prod"])
    (registry.root / "objects" / f"{digest}.rgr").unlink()
    (registry.root / "meta" / f"{digest}.json").unlink()
    return registry, digest


def test_dangling_tag_raises_structured_error(tmp_path, grammar_data):
    registry, digest = _make_dangling(tmp_path, grammar_data)
    with pytest.raises(RegistryError, match="dangling tag") as exc:
        registry.resolve("prod")
    assert digest[:12] in str(exc.value)
    assert "registry verify" in str(exc.value)


def test_dangling_tag_cli_is_one_line_exit_2(tmp_path, grammar_data,
                                             capsys):
    _make_dangling(tmp_path, grammar_data)
    code = main(["registry", "-d", str(tmp_path), "show", "prod"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1
    assert "dangling tag" in captured.err
    assert "Traceback" not in captured.err


def test_verify_reports_and_repairs_dangling_tag(tmp_path, grammar_data):
    registry, digest = _make_dangling(tmp_path, grammar_data)
    report = registry.verify()
    assert report["dangling_tags"] == [{"tag": "prod", "target": digest}]
    registry.verify(repair=True)
    assert registry.verify()["clean"]
    assert "prod" not in registry.tags()


# -- the CLI surface ---------------------------------------------------------

def test_cli_verify_exit_codes(tmp_path, grammar_data, capsys):
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data, tags=["prod"])
    assert main(["registry", "-d", str(tmp_path), "verify"]) == 0

    # flip one stored byte: verify must fail, --repair must heal
    obj = registry.root / "objects" / f"{digest}.rgr"
    raw = bytearray(obj.read_bytes())
    raw[len(raw) // 2] ^= 0x40
    obj.write_bytes(bytes(raw))

    assert main(["registry", "-d", str(tmp_path), "verify"]) == 1
    out = capsys.readouterr().out
    assert "content hash mismatch" in out

    assert main(["registry", "-d", str(tmp_path), "verify",
                 "--repair"]) == 0
    capsys.readouterr()
    assert main(["registry", "-d", str(tmp_path), "verify"]) == 0
    assert GrammarRegistry(tmp_path).verify()["clean"]


def test_startup_scan_full_heal(tmp_path, grammar_data):
    """One pass over a store with every kind of damage at once."""
    registry = GrammarRegistry(tmp_path)
    digest = registry.put_bytes(grammar_data, tags=["good"])

    # damage: dangling tag, orphan meta, temp debris, corrupt object
    (registry.root / "tags" / "gone").write_text("f" * 64 + "\n")
    (registry.root / "meta" / ("e" * 64 + ".json")).write_text("{}")
    (registry.root / "objects" / "x.rgr.tmp.123").write_bytes(b"junk")
    bad = b"RGR1" + b"\x00" * 32
    bad_digest = __import__("hashlib").sha256(bad).hexdigest()
    (registry.root / "objects" / f"{bad_digest}.rgr").write_bytes(bad)

    report = GrammarRegistry(tmp_path).startup_scan()
    assert report["quarantined"] == [bad_digest]
    assert report["dangling_tags"] == [{"tag": "gone", "target": "f" * 64}]
    assert report["orphan_meta"] == ["e" * 64]
    assert report["tmp_files"] == ["x.rgr.tmp.123"]
    healed = GrammarRegistry(tmp_path)
    assert healed.verify()["clean"]
    assert healed.get_bytes("good") == grammar_data
    assert healed.tags() == {"good": digest}
