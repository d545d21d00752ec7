"""Compress / serve benchmark for the repro system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {compress,serve} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is a separate run on identical inputs that attributes each
op's time to the layers (the packages under ``src/repro``) from spans
recorded around calls into their public functions.  A run makes ops,
closed loop, for ``--seconds`` (and at least ``--min-ops`` of them),
cycling through a pool of inputs that ``--seed`` fixes.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record (host fingerprint, sample counts, per-class detail), also written
to ``.perfbench/records/``.  All scratch state lives in a per-run
directory under ``.perfbench/`` and is removed on exit.  Values that must
repeat exactly for a seed are remembered in ``.perfbench/expect/`` and a
run that disagrees with an earlier one exits with status 3.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("compress", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gcc-scale", type=int, default=None,
                        help="gcc-like training scale (default: the "
                             "repo's GCCLIKE_SCALE; smaller for self-tests)")
    parser.add_argument("--min-ops", type=int, default=100,
                        help="timed ops a run makes even if --seconds "
                             "run out first (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # children (the server, sandbox helpers) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    from common import BenchError, Run

    signal.signal(signal.SIGTERM, _terminate)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["REPRO_NATIVE_CACHE"] = str(work / "native-cache")
    tempfile.tempdir = str(work / "tmp")
    try:
        from repro.corpus import GCCLIKE_SCALE
        run = Run(root=ROOT, work=work, workload=args.workload,
                  seed=args.seed, seconds=args.seconds,
                  trace=bool(args.trace),
                  gcc_scale=args.gcc_scale or GCCLIKE_SCALE,
                  min_ops=args.min_ops)
        return report(run, measure(run))
    except BenchError as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def measure(run):
    if run.workload == "compress":
        from wl_compress import run_compress
        return run_compress(run)
    from wl_serve import run_serve
    return run_serve(run)


def report(run, out) -> int:
    from common import END_TO_END, PER_LAYER, BenchError, host_fingerprint

    guard_determinism(run, out.exact)
    names = PER_LAYER if run.trace else END_TO_END
    metrics = {}
    for name, unit in names.items():
        if name not in out.metrics and not run.trace:
            raise BenchError(f"workload did not measure {name}")
        metrics[name] = {"value": out.metrics.get(name, 0.0), "unit": unit}
    tracer = out.detail.pop("spans", None)
    tag = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    records = STATE / "records"
    records.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(records / f"{tag}.spans.jsonl")
    record = {
        "host": host_fingerprint(run),
        "attempted": out.attempted,
        "failed": out.failed,
        "failures": out.failures,
        "metrics": {name: dict(m, samples=out.samples.get(name))
                    for name, m in metrics.items()},
        "exact": out.exact,
        "detail": out.detail,
    }
    (records / f"{tag}.json").write_text(json.dumps(record, indent=1))

    width = max(len(name) for name in metrics)
    print(f"perfbench {run.workload} seed={run.seed} "
          f"trace={int(run.trace)}: {out.attempted} ops attempted, "
          f"{out.failed} failed")
    for failure in out.failures:
        print(f"  FAILED {failure}")
    for name, m in metrics.items():
        samples = out.samples.get(name)
        print(f"  {name:<{width}}  {m['value']:14.4f} {m['unit']:<6}"
              + (f" (n={samples})" if samples else ""))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def guard_determinism(run, exact) -> None:
    """Compare this run's exact values with earlier runs of the same
    seed, size and code; remember the union."""
    from common import DeterminismError

    digest = hashlib.sha256()
    for tree in (ROOT / "src" / "repro", Path(__file__).resolve().parent):
        for path in sorted(tree.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    digest.update(f"{run.workload}:{run.seed}:{run.gcc_scale}".encode())
    path = STATE / "expect" / f"{run.workload}-{digest.hexdigest()[:20]}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for name, value in exact.items():
        if name in known and known[name] != value:
            raise DeterminismError(
                f"{name} = {value!r} but an earlier run of seed "
                f"{run.seed} measured {known[name]!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({**known, **exact}, sort_keys=True))
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
