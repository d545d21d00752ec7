"""Command-line interface: the system as a tool chain.

The paper's Figure-1 pipeline, as commands::

    python -m repro compile app.c -o app.rbc
    python -m repro train corpus1.rbc corpus2.rbc -o trained.rgr
    python -m repro compress app.rbc -g trained.rgr -o app.rcx
    python -m repro run app.rcx            # direct interpretation
    python -m repro decompress app.rcx -o back.rbc
    python -m repro disasm app.rbc
    python -m repro stats app.rbc app.rcx  # size breakdowns

`run` accepts either format and executes it on the matching interpreter;
integer arguments after the file become the entry procedure's arguments
and the process exit status is the program's.

The system as a *service* (see ``docs/SERVICE.md``)::

    python -m repro registry add trained.rgr --tag prod
    python -m repro serve --registry .repro-registry
    python -m repro client put trained.rgr --tag prod
    python -m repro client compress app.rbc -g prod -o app.rcx
    python -m repro client run app.rcx
    python -m repro client stats

Operational errors — missing or corrupt input files, unknown registry
references, a server that is not running — print one line to stderr and
exit 2; tracebacks are reserved for bugs.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .bytecode.assembler import disassemble
from .bytecode.module import Module
from .bytecode.validate import ValidationError
from .compress.compressor import Compressor
from .compress.decompress import decompress_module
from .grammar.serialize import grammar_bytes
from .interp.compiled import CompiledEngine
from .interp.interp1 import Interpreter1
from .interp.interp2 import Interpreter2
from .interp.runtime import Machine
from .minic.driver import compile_sources
from .pipeline import train_grammar
from .storage import (
    StorageError,
    load_any,
    load_grammar,
    load_module,
    save_compressed,
    save_grammar,
    save_module,
)
from .training import TRAINERS

__all__ = ["main"]


class CliError(Exception):
    """Operational failure: one line on stderr, exit 2, no traceback."""


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None


def _load_file(loader, path: str):
    """Read + parse an artifact, mapping corruption to a CliError."""
    data = _read_bytes(path)
    try:
        return loader(data)
    except (StorageError, ValidationError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _cmd_compile(args) -> int:
    try:
        sources = [Path(p).read_text() for p in args.sources]
    except OSError as exc:
        raise CliError(f"{exc.filename}: {exc.strerror or exc}") from None
    module = compile_sources(sources)
    Path(args.output).write_bytes(save_module(module))
    print(f"{args.output}: {module.code_bytes} bytecode bytes, "
          f"{len(module.procedures)} procedures")
    return 0


def _cmd_train(args) -> int:
    corpus = [_load_file(load_module, p) for p in args.corpus]
    grammar, report = train_grammar(
        corpus,
        max_rules_per_nt=args.cap,
        min_count=args.min_count,
        collect_stats=args.stats,
        strategy=args.trainer,
    )
    Path(args.output).write_bytes(save_grammar(grammar))
    seeded = (f"{report.seed_rules} seeded rules + "
              if report.seed_rules else "")
    print(f"{args.output}: {grammar.total_rules()} rules "
          f"[{report.strategy}] ({seeded}{report.iterations} inlines; "
          f"training derivations "
          f"{report.initial_size} -> {report.final_size}, "
          f"{report.size_ratio:.0%}); "
          f"{grammar_bytes(grammar, compact=True)} encoded bytes")
    if args.stats:
        for line in report.summary_lines():
            print(f"  {line}")
    if args.registry:
        from .registry import GrammarRegistry
        registry = GrammarRegistry(args.registry)
        digest = registry.put(grammar, report=report, corpus=corpus,
                              tags=args.tag)
        print(digest)
    return 0


def _cmd_compress(args) -> int:
    from .coding.model import ModelMissingError

    module = _load_file(load_module, args.module)
    grammar = _load_file(load_grammar, args.grammar)
    compressor = Compressor(grammar)
    cmod = compressor.compress_module(module)
    try:
        payload = save_compressed(cmod, format=args.format)
    except ModelMissingError as exc:
        raise CliError(f"{args.grammar}: {exc}") from None
    Path(args.output).write_bytes(payload)
    ratio = cmod.code_bytes / module.code_bytes if module.code_bytes else 1
    print(f"{args.output}: {module.code_bytes} -> {cmod.code_bytes} "
          f"bytes ({ratio:.0%}, {args.format} container, "
          f"{len(payload)} file bytes)")
    if args.stats:
        print(f"  derivation cache: {compressor.cache_info()}")
    return 0


def _cmd_decompress(args) -> int:
    cmod = _load_file(load_any, args.module)
    if isinstance(cmod, Module):
        print("input is already uncompressed", file=sys.stderr)
        return 2
    module = decompress_module(cmod)
    Path(args.output).write_bytes(save_module(module))
    print(f"{args.output}: {module.code_bytes} bytecode bytes")
    return 0


def _cmd_run(args) -> int:
    program = _load_file(load_any, args.module)
    input_data = sys.stdin.buffer.read() if args.stdin else b""
    if args.profile:
        from .interp.profile import profile_run

        if not isinstance(program, Module) and args.engine != "compiled":
            print("profiling instruments the compiled engine's tables; "
                  "using the compiled engine", file=sys.stderr)
        code, output, prof = profile_run(program, *args.args,
                                         input_data=input_data)
        sys.stdout.write(output.decode("utf-8", errors="replace"))
        err = sys.stderr
        print(f"-- profile: {prof.total_operators} operators, "
              f"{prof.total_dispatches} dispatches, "
              f"{prof.blocks_entered} blocks entered, "
              f"{prof.branches_taken} branches, {prof.returns} returns",
              file=err)
        for name, count in prof.top_operators(10):
            print(f"   {name:12} {count:10}", file=err)
        if prof.dispatch_depth:
            histogram = "  ".join(
                f"{depth}:{count}"
                for depth, count in sorted(prof.dispatch_depth.items()))
            print(f"   dispatch depth  {histogram}", file=err)
        return code & 0xFF
    if isinstance(program, Module):
        executor = Interpreter1(program)
    else:
        if args.engine == "native":
            from .interp.native import NativeEngine
            from .interp.nativebuild import NativeBuildError
            try:
                result = NativeEngine(program).run(*args.args,
                                                   input_data=input_data,
                                                   budget=args.budget)
            except NativeBuildError as exc:
                print(f"native engine unavailable ({exc}); "
                      f"falling back to the compiled engine",
                      file=sys.stderr)
            else:
                sys.stdout.write(
                    result.output.decode("utf-8", errors="replace"))
                return result.code & 0xFF
        if args.engine == "reference":
            executor = Interpreter2(program)
        else:
            executor = CompiledEngine(program)
    machine = Machine(program, executor, input_data=input_data,
                      budget=args.budget)
    code = machine.run(*args.args)
    sys.stdout.write(machine.output_text())
    return code & 0xFF


def _cmd_disasm(args) -> int:
    program = _load_file(load_any, args.module)
    if not isinstance(program, Module):
        program = decompress_module(program)
    sys.stdout.write(disassemble(program))
    return 0


def _cmd_stats(args) -> int:
    for path in args.modules:
        program = _load_file(load_any, path)
        kind = "module" if isinstance(program, Module) else "compressed"
        print(f"{path} ({kind}):")
        for key, value in program.size_breakdown().items():
            print(f"  {key:12} {value:8}")
        if not isinstance(program, Module):
            print(f"  {'grammar':12} "
                  f"{grammar_bytes(program.grammar, compact=True):8}")
        total = sum(program.size_breakdown().values())
        print(f"  {'total':12} {total:8}")
    return 0


# -- registry / service commands ---------------------------------------------
#
# Imported lazily so the classic pipeline commands never pay for (or
# break on) the service stack.

def _open_registry(args):
    from .registry import GrammarRegistry
    return GrammarRegistry(args.registry)


def _cmd_grammar(args) -> int:
    from .interp.tables import interp_tables
    from .registry import RegistryError

    registry = _open_registry(args)
    try:
        program = registry.program(args.ref)
        meta = registry.meta(args.ref)
    except RegistryError as exc:
        raise CliError(str(exc)) from None
    stats = program.stats()
    print(f"grammar {program.content_key[:12]}: "
          f"{stats['rules']} rules, {stats['nonterminals']} nonterminals "
          f"({stats['original_rules']} original), "
          f"{stats['terminals']} terminals")
    training = meta.get("training")
    if training:
        params = training.get("trainer_params") or {}
        knobs = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        print(f"  trainer {training.get('trainer', 'greedy')}"
              + (f" ({knobs})" if knobs else "") +
              f": {training.get('seed_rules', 0)} seeded + "
              f"{training.get('iterations', 0)} inlined rules; "
              f"seed {training.get('seed_seconds', 0.0):.3f}s / "
              f"refine {training.get('refine_seconds', 0.0):.3f}s")
    print(f"  prediction-set density {stats['prediction_set_density']:.3f}"
          f"  reachable {stats['reachable_nonterminals']}"
          f"  productive {stats['productive_nonterminals']}")
    print(f"  flattened rule tables: "
          f"{interp_tables(program.grammar).encoded_bytes()} bytes")
    name_w = max(len(n) for n in stats["rules_per_nt"])
    print(f"  {'NT':{name_w}}  rules  first-set  min-cost")
    for name, count in stats["rules_per_nt"].items():
        first = stats["prediction_set_sizes"][name]
        cost = stats["min_expansion_cost"][name]
        print(f"  {name:{name_w}}  {count:5}  {first:9}  "
              f"{cost if cost is not None else '-':>8}")
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_coding(args) -> int:
    from .coding.model import ModelMissingError, model_for
    from .registry import RegistryError

    registry = _open_registry(args)
    try:
        program = registry.program(args.ref)
    except RegistryError as exc:
        raise CliError(str(exc)) from None
    try:
        model = model_for(program)
    except ModelMissingError as exc:
        raise CliError(f"{args.ref}: {exc}") from None
    stats = model.stats(program)
    print(f"model {stats['model_key'][:12]} for grammar "
          f"{program.content_key[:12]}: "
          f"{stats['procedures_trained']} procedures, "
          f"{stats['trained_steps']} derivation steps trained")
    rcx1 = stats["rcx1_bytes"]
    predicted = stats["predicted_bytes"]
    print(f"  predicted {stats['predicted_bits_per_step']:.3f} bits/step"
          f" -> {predicted:.0f} coded bytes vs {rcx1} rcx1 payload bytes"
          + (f" ({predicted / rcx1:.0%})" if rcx1 else ""))
    name_w = max(len(c["nonterminal"]) for c in stats["contexts"])
    print(f"  {'NT':{name_w}}  rules  steps  entropy  bits/step")
    for ctx in stats["contexts"]:
        print(f"  {ctx['nonterminal']:{name_w}}  {ctx['rules']:5}  "
              f"{ctx['trained_steps']:5}  {ctx['entropy_bits']:7.3f}  "
              f"{ctx['predicted_bits_per_step']:9.3f}")
    if args.module:
        from .coding.stream import encode_module_streams

        module = _load_file(load_module, args.module)
        cmod = Compressor(program.grammar).compress_module(module)
        coded = encode_module_streams(
            program, model, [proc.code for proc in cmod.procedures])
        ratio = len(coded) / cmod.code_bytes if cmod.code_bytes else 1.0
        print(f"  {args.module}: rcx1 payload {cmod.code_bytes} -> "
              f"rcx2 coded {len(coded)} bytes ({ratio:.0%}); files "
              f"{len(save_compressed(cmod, format='rcx1'))} -> "
              f"{len(save_compressed(cmod, format='rcx2'))} bytes")
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    return 0


def _cmd_registry(args) -> int:
    from .registry import RegistryError
    registry = _open_registry(args)
    try:
        if args.registry_command == "add":
            grammar = _load_file(load_grammar, args.grammar)
            digest = registry.put_bytes(
                _read_bytes(args.grammar), tags=args.tag, grammar=grammar)
            print(digest)
        elif args.registry_command == "tag":
            digest = registry.tag(args.ref, args.name)
            print(f"{args.name} -> {digest}")
        elif args.registry_command == "show":
            print(json.dumps(registry.meta(args.ref), indent=2,
                             sort_keys=True))
        elif args.registry_command == "verify":
            report = registry.verify(repair=args.repair)
            print(json.dumps(report, indent=2, sort_keys=True))
            if not (report["clean"] or report.get("repaired")):
                return 1
        elif args.registry_command == "gc":
            swept = registry.gc()
            print(json.dumps(swept, indent=2, sort_keys=True))
        else:  # list
            tags = registry.tags()
            for record in registry.list():
                names = ",".join(sorted(
                    t for t, h in tags.items() if h == record["hash"]))
                print(f"{record['hash'][:12]}  {record['rules']:5} rules  "
                      f"{record['size_bytes']:7} bytes"
                      + (f"  [{names}]" if names else ""))
    except RegistryError as exc:
        raise CliError(str(exc)) from None
    return 0


def _cmd_serve(args) -> int:
    from .registry import GrammarRegistry
    from .service import CompressionService, FleetDispatcher

    # one CompressionService configuration, run in-process or by every
    # fleet worker
    config = {
        "max_inflight": args.max_inflight,
        "high_water": args.high_water,
        "batch_window": args.batch_window,
        "breaker_threshold": args.breaker_threshold,
        "breaker_cooldown": args.breaker_cooldown,
        "exec_budget": args.exec_budget,
        "native_watchdog": args.native_watchdog,
    }
    if args.serve_workers > 0:
        service = FleetDispatcher(
            args.registry,
            workers=args.serve_workers,
            request_timeout=args.timeout,
            integrity_scan=not args.no_integrity_scan,
            worker_config=config,
        )
    else:
        service = CompressionService(
            GrammarRegistry(args.registry),
            request_timeout=args.timeout,
            integrity_scan=not args.no_integrity_scan,
            **config,
        )

    async def _serve() -> None:
        await service.start(args.host, args.port)
        fleet = (f", {args.serve_workers} workers"
                 if args.serve_workers > 0 else "")
        print(f"repro service on {args.host}:{service.port} "
              f"(registry {args.registry}, "
              f"{len(service.registry)} grammars{fleet})", flush=True)
        await service.serve_until_stopped()

    try:
        asyncio.run(_serve())
    except OSError as exc:
        raise CliError(f"cannot bind {args.host}:{args.port}: "
                       f"{exc.strerror or exc}") from None
    return 0


def _cmd_client(args) -> int:
    from .service import RetryPolicy, ServiceClient, ServiceError

    retry = (RetryPolicy(max_attempts=args.retries + 1)
             if args.retries > 0 else None)
    try:
        client = ServiceClient(args.host, args.port, timeout=args.timeout,
                               retry=retry, deadline=args.deadline)
    except OSError as exc:
        raise CliError(f"cannot connect to {args.host}:{args.port}: "
                       f"{exc.strerror or exc}") from None
    with client:
        try:
            return _run_client_command(client, args)
        except ServiceError as exc:
            raise CliError(f"{args.host}:{args.port}: {exc}") from None


def _run_client_command(client, args) -> int:
    cmd = args.client_command
    if cmd == "health":
        print(json.dumps(client.health(), indent=2, sort_keys=True))
    elif cmd == "stats":
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
    elif cmd == "put":
        _load_file(load_grammar, args.grammar)  # fail client-side first
        print(client.put_grammar(_read_bytes(args.grammar),
                                 tags=args.tag))
    elif cmd == "list":
        listing = client.list_grammars()
        tags = listing.get("tags", {})
        for record in listing.get("grammars", []):
            names = ",".join(sorted(
                t for t, h in tags.items() if h == record["hash"]))
            print(f"{record['hash'][:12]}  {record['rules']:5} rules"
                  + (f"  [{names}]" if names else ""))
    elif cmd == "compress":
        data = client.compress(_read_bytes(args.module), args.grammar,
                               format=args.format)
        Path(args.output).write_bytes(data)
        original = len(_read_bytes(args.module))
        print(f"{args.output}: {original} -> {len(data)} file bytes")
    elif cmd == "decompress":
        data = client.decompress(_read_bytes(args.module))
        Path(args.output).write_bytes(data)
        print(f"{args.output}: {len(data)} file bytes")
    else:  # run
        code, output = client.run_compressed(
            _read_bytes(args.module), args.args,
            input_data=sys.stdin.buffer.read() if args.stdin else b"")
        sys.stdout.buffer.write(output)
        sys.stdout.flush()
        return code & 0xFF
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="bytecode compression via profiled grammar rewriting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="mini-C sources -> .rbc module")
    p.add_argument("sources", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("train", help=".rbc corpus -> .rgr grammar")
    p.add_argument("corpus", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cap", type=int, default=256,
                   help="rules per nonterminal (default 256)")
    p.add_argument("--min-count", type=int, default=2,
                   help="minimum pair frequency to inline (default 2)")
    p.add_argument("--trainer", choices=TRAINERS, default="greedy",
                   help="the paper's greedy edge-contraction loop "
                        "(default), or MR-RePair maximal-repeat seeding "
                        "followed by greedy refinement")
    p.add_argument("--stats", action="store_true",
                   help="print per-phase (parse/seed/refine) timings "
                        "and edge-index behaviour")
    p.add_argument("--registry", default=None, metavar="DIR",
                   help="also store the grammar (with trainer "
                        "provenance) in this registry and print its "
                        "hash")
    p.add_argument("-t", "--tag", action="append", default=[],
                   help="tag for the registered grammar (repeatable; "
                        "needs --registry)")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("compress", help=".rbc + .rgr -> .rcx")
    p.add_argument("module")
    p.add_argument("-g", "--grammar", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("rcx1", "rcx2"), default="rcx1",
                   help="container format: rcx1 stores one codeword "
                        "byte per derivation step (directly "
                        "interpretable), rcx2 entropy-codes the steps "
                        "with the grammar's rule-frequency model "
                        "(smaller; decoded on load)")
    p.add_argument("--stats", action="store_true",
                   help="print derivation-cache statistics")
    p.set_defaults(fn=_cmd_compress)

    p = sub.add_parser("decompress", help=".rcx -> .rbc (verification)")
    p.add_argument("module")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=_cmd_decompress)

    p = sub.add_parser("run", help="execute .rbc or .rcx")
    p.add_argument("module")
    p.add_argument("args", nargs="*", type=int)
    p.add_argument("--stdin", action="store_true",
                   help="feed stdin to the program's getchar()")
    p.add_argument("--engine", choices=("compiled", "reference", "native"),
                   default="compiled",
                   help="compressed-form executor: the precompiled "
                        "direct-threaded engine (default), the "
                        "recursive reference interpreter, or the "
                        "machine-code engine compiled from generated C "
                        "(falls back to compiled when no C compiler "
                        "is available)")
    p.add_argument("--profile", action="store_true",
                   help="print an execution profile (operators, rule "
                        "dispatches, dispatch-depth histogram) to stderr")
    p.add_argument("--budget", type=int, default=0, metavar="N",
                   help="abort with a budget-exceeded trap after N rule "
                        "dispatches (default 0 = unlimited)")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("disasm", help="disassemble .rbc or .rcx")
    p.add_argument("module")
    p.set_defaults(fn=_cmd_disasm)

    p = sub.add_parser("stats", help="size breakdowns")
    p.add_argument("modules", nargs="+")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("grammar",
                       help="inspect a stored grammar's precompiled "
                            "program")
    p.add_argument("-d", "--registry", default=".repro-registry",
                   help="registry directory (default .repro-registry)")
    gsub = p.add_subparsers(dest="grammar_command", required=True)
    gp = gsub.add_parser(
        "stats", help="rules per NT, prediction-set density, "
                      "flattened-row bytes")
    gp.add_argument("ref", help="hash, unique prefix, or tag")
    gp.add_argument("--json", action="store_true",
                    help="also dump the full statistics as JSON")
    p.set_defaults(fn=_cmd_grammar)

    p = sub.add_parser("coding",
                       help="inspect a grammar's rule-frequency model")
    p.add_argument("-d", "--registry", default=".repro-registry",
                   help="registry directory (default .repro-registry)")
    osub = p.add_subparsers(dest="coding_command", required=True)
    op = osub.add_parser(
        "stats", help="per-NT entropy, predicted vs rcx1 coded size")
    op.add_argument("ref", help="hash, unique prefix, or tag")
    op.add_argument("-m", "--module", default=None,
                    help="also compress this .rbc both ways and report "
                         "the actual coded size")
    op.add_argument("--json", action="store_true",
                    help="also dump the full statistics as JSON")
    p.set_defaults(fn=_cmd_coding)

    p = sub.add_parser("registry", help="manage a local grammar registry")
    p.add_argument("-d", "--registry", default=".repro-registry",
                   help="registry directory (default .repro-registry)")
    rsub = p.add_subparsers(dest="registry_command", required=True)
    rp = rsub.add_parser("add", help="store a .rgr (prints its hash)")
    rp.add_argument("grammar")
    rp.add_argument("-t", "--tag", action="append", default=[],
                    help="also point this tag at it (repeatable)")
    rp = rsub.add_parser("tag", help="point a tag at a grammar")
    rp.add_argument("ref", help="hash, unique prefix, or existing tag")
    rp.add_argument("name")
    rp = rsub.add_parser("show", help="print a grammar's metadata")
    rp.add_argument("ref")
    rsub.add_parser("list", help="list stored grammars")
    rp = rsub.add_parser(
        "verify", help="integrity scan: re-hash objects, check tags")
    rp.add_argument("--repair", action="store_true",
                    help="quarantine corrupt objects, rebuild missing "
                         "metadata, drop dangling tags")
    rsub.add_parser("gc", help="sweep temp debris and orphaned metadata")
    p.set_defaults(fn=_cmd_registry)

    from .service.protocol import DEFAULT_PORT

    p = sub.add_parser("serve", help="run the compression service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("-d", "--registry", default=".repro-registry")
    p.add_argument("--workers", dest="serve_workers", type=int, default=0,
                   metavar="N",
                   help="run a multi-process fleet: a dispatcher with N "
                        "worker processes and grammar-affinity routing "
                        "(default 0 = single in-process server)")
    p.add_argument("--max-inflight", type=int, default=4,
                   help="concurrent executing batches (default 4)")
    p.add_argument("--high-water", type=int, default=64,
                   help="reject work past this backlog (default 64)")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request timeout, seconds (default 30)")
    p.add_argument("--batch-window", type=float, default=0.002,
                   help="micro-batch coalescing window, seconds")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="compiled-engine failures per grammar before "
                        "degrading to the reference engine (default 3)")
    p.add_argument("--breaker-cooldown", type=float, default=30.0,
                   help="seconds before an open breaker allows a probe "
                        "(default 30)")
    p.add_argument("--exec-budget", type=int, default=0, metavar="N",
                   help="max rule dispatches per run_compressed request "
                        "(default 0 = unlimited); exceeding it traps "
                        "with a budget_exceeded error on every engine")
    p.add_argument("--native-watchdog", type=float, default=10.0,
                   metavar="SECONDS",
                   help="wall-clock limit on a sandboxed native run "
                        "before the helper is killed and the request "
                        "quarantined (default 10)")
    p.add_argument("--no-integrity-scan", action="store_true",
                   help="skip the registry verify+gc pass at startup")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("client", help="talk to a running service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--retries", type=int, default=0,
                   help="retry retryable failures up to N times with "
                        "exponential backoff (default 0: single shot)")
    p.add_argument("--deadline", type=float, default=None,
                   help="total per-call budget in seconds, retries "
                        "included (propagated to the server)")
    csub = p.add_subparsers(dest="client_command", required=True)
    csub.add_parser("health", help="server liveness and backlog")
    csub.add_parser("stats", help="traffic counters and histograms")
    cp = csub.add_parser("put", help="upload a .rgr (prints its hash)")
    cp.add_argument("grammar")
    cp.add_argument("-t", "--tag", action="append", default=[])
    csub.add_parser("list", help="list the server's grammars")
    cp = csub.add_parser("compress", help="compress a .rbc remotely")
    cp.add_argument("module")
    cp.add_argument("-g", "--grammar", required=True,
                    help="registry reference: hash, prefix, or tag")
    cp.add_argument("-o", "--output", required=True)
    cp.add_argument("--format", choices=("rcx1", "rcx2"), default="rcx1",
                    help="container format (rcx2 = entropy-coded)")
    cp = csub.add_parser("decompress", help="decompress a .rcx remotely")
    cp.add_argument("module")
    cp.add_argument("-o", "--output", required=True)
    cp = csub.add_parser("run", help="execute a .rcx remotely")
    cp.add_argument("module")
    cp.add_argument("args", nargs="*", type=int)
    cp.add_argument("--stdin", action="store_true",
                    help="forward stdin to the program's getchar()")
    p.set_defaults(fn=_cmd_client)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was a pipe whose reader quit (e.g. `| head`): the Unix
        # convention is a silent 128+SIGPIPE.  Point stdout at devnull so
        # the interpreter's exit flush cannot traceback either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
