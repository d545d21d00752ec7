"""Seeded benchmark inputs: mini-C programs built around generated functions.

Every input is a pure function of (workload, seed, role, index), so the
same ``--seed`` gives byte-identical sources.  Seeds are derived through
SHA-256 and lifted above 2**48, which keeps every generated function
disjoint from the gcc-like training program (``gcclike`` draws its
functions from seed 11).
"""

from __future__ import annotations

import hashlib
import random
import re
from typing import List

from repro.corpus import generate_functions
from repro.interp.interp1 import Interpreter1
from repro.interp.runtime import Machine
from repro.minic.driver import compile_source

_SIGNATURE = re.compile(r"^int (\w+)\(([^)]*)\)")


def derive_seed(workload: str, seed: int, role: str, index: int = 0) -> int:
    """A generator seed for one input, disjoint from the training corpus."""
    digest = hashlib.sha256(
        f"{workload}:{seed}:{role}:{index}".encode()).digest()
    return (1 << 48) + int.from_bytes(digest[:6], "big")


def inputs_digest(sources) -> str:
    """One SHA-256 over a run's input sources (recorded, so two seeds
    can be seen to differ)."""
    digest = hashlib.sha256()
    for source in sources:
        digest.update(source.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def program_source(fn_seed: int, chars: int, reps: int) -> str:
    """A runnable program: the shortest run of generated functions whose
    source reaches ``chars`` characters (so programs of one size class
    cost about the same to compile, train on and compress), and a
    ``main`` that calls each of them ``reps`` times and returns a
    checksum.

    ``reps`` sets how long the program executes without changing its
    size, so execution can be a visible share of a ``run_compressed``
    request.
    """
    sources: List[str] = []
    total = 0
    # generated functions only call earlier ones, so any prefix of the
    # generator's output is a complete program
    for source in generate_functions(chars // 200 + 4, seed=fn_seed,
                                     prefix="f"):
        sources.append(source)
        total += len(source)
        if total >= chars:
            break
    rng = random.Random(fn_seed ^ 0x5EED)
    calls: List[str] = []
    for source in sources:
        name, params = _SIGNATURE.match(source).groups()
        args = ", ".join(str(rng.randrange(1, 30))
                         for _ in params.split(","))
        calls.append(f"        acc ^= {name}({args}) + r;")
    body = "\n".join(calls)
    return "\n\n".join(sources) + f"""

int main(void) {{
    int acc;
    int r;
    acc = 0;
    for (r = 0; r < {reps}; r++) {{
{body}
    }}
    putint(acc);
    putchar('\\n');
    return acc & 127;
}}
"""


def calibrated_program(fn_seed: int, chars: int, instructions: int):
    """``program_source`` with as many passes of ``main`` as it takes to
    execute about ``instructions`` operators on ``Interpreter1``, so that
    execution costs about the same in every program and every seed.

    Returns ``(source, compiled module)``.
    """
    once = compile_source(program_source(fn_seed, chars, 1))
    machine = Machine(once, Interpreter1(once))
    machine.run()
    reps = max(1, round(instructions / machine.instret))
    source = program_source(fn_seed, chars, reps)
    return source, compile_source(source)
