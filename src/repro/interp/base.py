"""Operator semantics: the ``interpret1`` switch (paper Section 5).

One handler per operator, shared verbatim by both interpreters: the
uncompressed interpreter fetches operator and literal bytes from the code
stream, the compressed interpreter fetches the operator from a rule's
right-hand side and each literal byte either from the rule (burned in) or
from the stream — but both then call :func:`execute` with the same
``(opcode, operand_bytes)`` pair.

Integer values on the evaluation stack are 32-bit patterns; the signed
operators reinterpret (see :mod:`repro.interp.memory`).  C semantics are
followed where they differ from Python's: signed division/remainder
truncate toward zero, shifts mask the count to 5 bits, float arithmetic
with the ``F`` suffix rounds through single precision.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Tuple

from ..bytecode.opcodes import OPS, OP_BY_NAME
from .memory import f32, to_signed, to_unsigned
from .state import IState, Jump, Return, Trap

__all__ = ["execute", "HANDLERS", "UnsupportedOpcode"]


class UnsupportedOpcode(Trap):
    """Raised for block operators (ASGNB/ARGB) the mini-C front end never
    emits; they remain in the ISA and grammar for fidelity to Appendix 2."""


Handler = Callable[[IState, "object", Tuple[int, ...]], None]
HANDLERS: Dict[int, Handler] = {}


def _register(name: str, fn: Handler) -> None:
    HANDLERS[OP_BY_NAME[name].code] = fn


def _idiv(a: int, b: int) -> int:
    """C signed division: truncation toward zero."""
    if b == 0:
        raise Trap("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _imod(a: int, b: int) -> int:
    return a - _idiv(a, b) * b


# -- binary value operators (v2) --------------------------------------------

_BIN_U = {
    "ADDU": lambda a, b: a + b,
    "SUBU": lambda a, b: a - b,
    "MULU": lambda a, b: a * b,
    "DIVU": lambda a, b: a // b if b else _div0(),
    "MODU": lambda a, b: a % b if b else _div0(),
    "BANDU": lambda a, b: a & b,
    "BORU": lambda a, b: a | b,
    "BXORU": lambda a, b: a ^ b,
    "LSHU": lambda a, b: a << (b & 31),
    "RSHU": lambda a, b: a >> (b & 31),
}

_BIN_I = {
    "MULI": lambda a, b: a * b,
    "DIVI": _idiv,
    "MODI": _imod,
    "LSHI": lambda a, b: a << (b & 31),
    "RSHI": lambda a, b: a >> (b & 31),
}

_CMP = {"EQ": lambda a, b: a == b, "NE": lambda a, b: a != b,
        "GE": lambda a, b: a >= b, "GT": lambda a, b: a > b,
        "LE": lambda a, b: a <= b, "LT": lambda a, b: a < b}

_BIN_F = {"ADD": lambda a, b: a + b, "SUB": lambda a, b: a - b,
          "MUL": lambda a, b: a * b,
          "DIV": lambda a, b: a / b if b else _div0()}


def _div0():
    raise Trap("division by zero")


# Handlers manipulate ``istate.stack`` directly rather than going through
# the ``IState.push``/``pop`` conveniences: the evaluation stack is touched
# by nearly every operator, and list methods avoid a Python frame per
# access.  (The semantics are identical — push/pop are thin wrappers.)

def _make_bin_u(fn):
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(to_unsigned(fn(a, b)))
    return handler


def _make_bin_i(fn):
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(to_unsigned(fn(to_signed(a), to_signed(b))))
    return handler


def _make_shift_i(fn):
    # Shift counts are patterns, not signed values.
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(to_unsigned(fn(to_signed(a), b)))
    return handler


def _make_cmp(fn, conv):
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(1 if fn(conv(a), conv(b)) else 0)
    return handler


def _make_bin_d(fn):
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(fn(a, b))
    return handler


def _make_bin_f(fn):
    def handler(istate, machine, operands):
        stack = istate.stack
        b = stack.pop()
        a = stack.pop()
        stack.append(f32(fn(a, b)))
    return handler


def _install_v2() -> None:
    for name, fn in _BIN_U.items():
        _register(name, _make_bin_u(fn))
    for name, fn in _BIN_I.items():
        if name in ("LSHI", "RSHI"):
            _register(name, _make_shift_i(fn))
        else:
            _register(name, _make_bin_i(fn))
    for generic, fn in _CMP.items():
        _register(generic + "U", _make_cmp(fn, lambda v: v))
        _register(generic + "D", _make_cmp(fn, lambda v: v))
        _register(generic + "F", _make_cmp(fn, lambda v: v))
        if generic + "I" in OP_BY_NAME:
            _register(generic + "I", _make_cmp(fn, to_signed))
    for generic, fn in _BIN_F.items():
        _register(generic + "D", _make_bin_d(fn))
        _register(generic + "F", _make_bin_f(fn))


# -- unary value operators (v1) ----------------------------------------------

def _install_v1() -> None:
    def bcomu(istate, machine, operands):
        stack = istate.stack
        stack.append(to_unsigned(~stack.pop()))
    _register("BCOMU", bcomu)

    def negi(istate, machine, operands):
        stack = istate.stack
        stack.append(to_unsigned(-to_signed(stack.pop())))
    _register("NEGI", negi)

    _register("NEGD", lambda s, m, o: s.stack.append(-s.stack.pop()))
    _register("NEGF", lambda s, m, o: s.stack.append(f32(-s.stack.pop())))

    # Conversions.
    _register("CVDF", lambda s, m, o: s.stack.append(f32(s.stack.pop())))
    _register("CVFD", lambda s, m, o: s.stack.append(float(s.stack.pop())))
    _register("CVDI", lambda s, m, o: s.stack.append(
        to_unsigned(int(math.trunc(s.stack.pop())))))
    _register("CVFI", lambda s, m, o: s.stack.append(
        to_unsigned(int(math.trunc(s.stack.pop())))))
    _register("CVID", lambda s, m, o: s.stack.append(
        float(to_signed(s.stack.pop()))))
    _register("CVIF", lambda s, m, o: s.stack.append(
        f32(float(to_signed(s.stack.pop())))))

    def cvi1i4(istate, machine, operands):
        stack = istate.stack
        b = stack.pop() & 0xFF
        stack.append(to_unsigned(b - 0x100 if b & 0x80 else b))
    _register("CVI1I4", cvi1i4)

    def cvi2i4(istate, machine, operands):
        stack = istate.stack
        h = stack.pop() & 0xFFFF
        stack.append(to_unsigned(h - 0x10000 if h & 0x8000 else h))
    _register("CVI2I4", cvi2i4)

    _register("CVU1U4", lambda s, m, o: s.stack.append(s.stack.pop() & 0xFF))
    _register("CVU2U4",
              lambda s, m, o: s.stack.append(s.stack.pop() & 0xFFFF))

    # Loads.
    _register("INDIRC",
              lambda s, m, o: s.stack.append(m.memory.load_u8(s.stack.pop())))
    _register("INDIRS",
              lambda s, m, o: s.stack.append(m.memory.load_u16(s.stack.pop())))
    _register("INDIRU",
              lambda s, m, o: s.stack.append(m.memory.load_u32(s.stack.pop())))
    _register("INDIRF",
              lambda s, m, o: s.stack.append(m.memory.load_f32(s.stack.pop())))
    _register("INDIRD",
              lambda s, m, o: s.stack.append(m.memory.load_f64(s.stack.pop())))

    # Indirect calls (address consumed from the stack).
    def make_call(push_result):
        def handler(istate, machine, operands):
            addr = istate.stack.pop()
            result = machine.call_address(addr)
            if push_result:
                istate.stack.append(result)
        return handler
    for name in ("CALLU", "CALLD", "CALLF"):
        _register(name, make_call(True))
    _register("CALLV", make_call(False))


# -- leaf value operators (v0) ------------------------------------------------

def _install_v0() -> None:
    def addrfp(istate, machine, operands):
        istate.stack.append(
            istate.args_base + (operands[0] | (operands[1] << 8)))
    _register("ADDRFP", addrfp)

    def addrlp(istate, machine, operands):
        istate.stack.append(
            istate.locals_base + (operands[0] | (operands[1] << 8)))
    _register("ADDRLP", addrlp)

    def addrgp(istate, machine, operands):
        istate.stack.append(
            machine.global_address(operands[0] | (operands[1] << 8)))
    _register("ADDRGP", addrgp)

    def lit(istate, machine, operands):
        value = 0
        shift = 0
        for b in operands:
            value |= b << shift
            shift += 8
        istate.stack.append(value)
    for name in ("LIT1", "LIT2", "LIT3", "LIT4"):
        _register(name, lit)

    def make_localcall(push_result):
        def handler(istate, machine, operands):
            result = machine.call_procedure(
                operands[0] | (operands[1] << 8))
            if push_result:
                istate.stack.append(result)
        return handler
    for name in ("LocalCALLU", "LocalCALLD", "LocalCALLF"):
        _register(name, make_localcall(True))
    _register("LocalCALLV", make_localcall(False))


# -- statements (x0/x1/x2) ------------------------------------------------------

def _install_x() -> None:
    def jumpv(istate, machine, operands):
        raise Jump(operands[0] | (operands[1] << 8))
    _register("JUMPV", jumpv)

    def brtrue(istate, machine, operands):
        if istate.stack.pop() != 0:
            raise Jump(operands[0] | (operands[1] << 8))
    _register("BrTrue", brtrue)

    def retv(istate, machine, operands):
        raise Return(None)
    _register("RETV", retv)

    def ret(istate, machine, operands):
        raise Return(istate.stack.pop())
    for name in ("RETU", "RETD", "RETF"):
        _register(name, ret)

    def pop(istate, machine, operands):
        istate.stack.pop()
    for name in ("POPU", "POPD", "POPF"):
        _register(name, pop)

    _register("ARGU", lambda s, m, o: m.push_arg_u32(s.stack.pop()))
    _register("ARGF", lambda s, m, o: m.push_arg_f32(s.stack.pop()))
    _register("ARGD", lambda s, m, o: m.push_arg_f64(s.stack.pop()))

    def unsupported(istate, machine, operands):
        raise UnsupportedOpcode(
            "block operators (ASGNB/ARGB) are not emitted by this front end"
        )
    _register("ARGB", unsupported)
    _register("ASGNB", unsupported)

    def asgn_u32(istate, machine, operands):
        stack = istate.stack
        value = stack.pop()
        machine.memory.store_u32(stack.pop(), value)
    _register("ASGNU", asgn_u32)

    def asgn_u8(istate, machine, operands):
        stack = istate.stack
        value = stack.pop()
        machine.memory.store_u8(stack.pop(), value)
    _register("ASGNC", asgn_u8)

    def asgn_u16(istate, machine, operands):
        stack = istate.stack
        value = stack.pop()
        machine.memory.store_u16(stack.pop(), value)
    _register("ASGNS", asgn_u16)

    def asgn_f32(istate, machine, operands):
        stack = istate.stack
        value = stack.pop()
        machine.memory.store_f32(stack.pop(), value)
    _register("ASGNF", asgn_f32)

    def asgn_f64(istate, machine, operands):
        stack = istate.stack
        value = stack.pop()
        machine.memory.store_f64(stack.pop(), value)
    _register("ASGND", asgn_f64)

    _register("LABELV", lambda s, m, o: None)


_install_v2()
_install_v1()
_install_v0()
_install_x()

_missing = [op.name for op in OPS if op.code not in HANDLERS]
assert not _missing, f"operators without semantics: {_missing}"


def execute(opcode: int, istate: IState, machine,
            operands: Tuple[int, ...] = ()) -> None:
    """Execute one operator against the interpreter state (interpret1)."""
    HANDLERS[opcode](istate, machine, operands)
