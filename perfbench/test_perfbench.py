"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at a tiny size (a second, a few ops, a small
gcc-like scale) in both modes and checks the contract of its output;
feeds deliberately corrupted responses to the output checks; and runs
the benchmark where the program is missing, where it must fail without
a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import Outcome  # noqa: E402
from repro.minic.driver import compile_source  # noqa: E402
from repro.pipeline import train_grammar  # noqa: E402
from repro.storage import save_compressed, save_module  # noqa: E402
from repro.compress.compressor import Compressor  # noqa: E402
from repro.grammar.serialize import encode_grammar_compact  # noqa: E402
from inputs import derive_seed, program_source  # noqa: E402
from wl_compress import check_compress  # noqa: E402
from wl_compress import op_plan as compress_plan  # noqa: E402
from wl_serve import check_run, op_plan  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--min-ops", "8", "--gcc-scale", "8"]


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    return result, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result, record = result_of(bench(
        "--workload", workload, "--seed", "1", "--trace", str(trace),
        *TINY))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m]["value"] > 0
                   for m in result["metrics"])
    host = record["host"]
    for key in ("nproc", "cpu_model", "python", "cc", "gcclike_scale",
                "seed"):
        assert key in host
    assert record["metrics"]["lat_p50_ms" if not trace
                             else "unaccounted_ms"]["samples"] >= 1


def test_second_seed_changes_inputs_not_metric_names():
    first, rec1 = result_of(bench("--workload", "compress", "--seed", "1",
                                  *TINY))
    second, rec2 = result_of(bench("--workload", "compress", "--seed", "2",
                                   *TINY))
    assert rec1["detail"]["inputs_sha256"] != rec2["detail"]["inputs_sha256"]
    assert list(first["metrics"]) == list(second["metrics"])


def test_corrupted_compress_response_fails_the_op():
    gcc = compile_source(program_source(derive_seed("test", 0, "g"), 4000, 1))
    grammar, _ = train_grammar([gcc])
    module = compile_source(program_source(derive_seed("test", 0, "m"),
                                           1350, 1))
    sent = save_module(module)
    gbytes = encode_grammar_compact(grammar)
    cmod = Compressor(grammar).compress_module(module)
    for fmt in ("rcx1", "rcx2"):
        good = save_compressed(cmod, format=fmt)
        assert check_compress(sent, fmt, good, grammar, gbytes)[0] is None
        flipped = bytearray(good)
        flipped[len(good) // 2] ^= 0x40
        other = "rcx2" if fmt == "rcx1" else "rcx1"
        for bad, want in ((bytes(flipped), fmt), (good[:-7], fmt),
                          (good, other), (None, fmt)):
            assert check_compress(sent, want, bad, grammar, gbytes)[0]
    out = Outcome()
    out.check(0, check_compress(sent, "rcx1", b"RCX1junk", grammar,
                                gbytes)[0])
    out.check(1, None)
    assert (out.attempted, out.failed) == (2, 1)


def test_wrong_run_response_fails_the_op():
    expected = (5, b"42\n")
    good = {"code": 5, "output": b"42\n", "engine": "compiled"}
    assert check_run(expected, "compiled", good) is None
    for bad in ({**good, "output": b"43\n"}, {**good, "code": 6},
                {**good, "engine": "compiled_fallback"}, None):
        assert check_run(expected, "compiled", bad) is not None
    assert check_run(expected, "native", good) is not None


def test_compress_plan_cycles_the_pool_in_format_pairs():
    from wl_compress import CLIENTS, POOL, RATIO_OPS
    plan = [compress_plan(i) for i in range(2 * POOL)]
    assert [m for m, _ in plan] == list(range(POOL)) * 2
    for start in range(0, 2 * POOL, CLIENTS):
        pair = {f for _, f in plan[start:start + CLIENTS]}
        assert pair == {("rcx1", "rcx2")[start // CLIENTS % 2]}
    prefix = [f for _, f in plan[:RATIO_OPS]]
    assert prefix.count("rcx1") == prefix.count("rcx2")


def test_serve_plan_runs_one_native_request_in_four():
    plan = [op_plan(j) for j in range(128)]
    for start in range(0, 128, 8):
        block = plan[start:start + 8]
        assert sum(engine == "native" for _, _, engine in block) == 2
        assert [fmt for _, fmt, _ in block] == ["rcx1", "rcx2"] * 4
    assert {p for p, _, engine in plan if engine == "native"} \
        == set(range(16))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "compress", "--seed", "1", *TINY,
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
