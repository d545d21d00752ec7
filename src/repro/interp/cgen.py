"""C source emission for the two interpreters (paper Sections 5 and 6).

The paper measures interpreter sizes on compiled C ("The interpreters were
compiled with Microsoft Visual C V6.0, in order to benefit from its
thorough space optimizer"; 7,855 bytes for the initial interpreter, 18,962
for the generated one).  We regenerate that experiment: :func:`emit_interp1`
produces the C for the uncompressed-bytecode interpreter — the one-switch
``interpret1`` plus the fetch loop — and :func:`emit_interp2` produces the
compressed-bytecode interpreter: the *same* switch, plus ``interpNT`` and
the rule tables for the trained grammar as static data (the grammar is most
of the growth, exactly as in the paper).

The emitted code is a real interpreter for this VM's semantics modulo the
process-level runtime (memory, call frames, intrinsics), which it imports
as externs; it compiles cleanly with ``gcc -Os`` and its measured
text+data size is the interpreter-size figure used by benchmark E2
(see :mod:`repro.interp.sizes`).
"""

from __future__ import annotations

from typing import List

from ..bytecode.opcodes import OPS, OpSpec
from ..grammar.cfg import Grammar
from ..grammar.serialize import encode_grammar_compact
from .tables import interp_tables

__all__ = [
    "emit_interp1", "emit_interp2", "emit_native",
    "NATIVE_CGEN_VERSION", "NATIVE_ABI_VERSION",
    "NATIVE_TRAP_CODES", "NATIVE_PROC_FIELDS", "NATIVE_PROC_WORDS",
    "NATIVE_FLAG_TRAMPOLINE",
]


_PRELUDE = r"""/* generated by repro.interp.cgen -- do not edit */
#include <setjmp.h>
#include <string.h>

typedef union { int i; unsigned u; float f; double d; } Value;

typedef struct istate {
    unsigned pc;            /* offset into the current code vector */
    int top;                /* evaluation stack top */
    Value stack[64];
    unsigned fp;            /* locals base (ADDRLP) */
    unsigned ap;            /* formals base (ADDRFP) */
    const unsigned char *code;
    const unsigned short *labels;
} istate;

/* process-level runtime, shared by both interpreters */
extern unsigned char  *vm_mem;
extern unsigned        vm_globals[];
extern unsigned        vm_argsp;
extern jmp_buf         vm_return;
extern Value           vm_retval;
extern Value           rt_call_address(unsigned addr);
extern Value           rt_call_procedure(unsigned index);

#define PUSH()   (istate_->stack[++istate_->top])
#define POP()    (istate_->stack[istate_->top--])
#define GET1()   (istate_->code[istate_->pc++])
#define GET2()   (istate_->pc += 2, (unsigned)istate_->code[istate_->pc-2] \
                  | ((unsigned)istate_->code[istate_->pc-1] << 8))
#define MEM8(a)  (*(unsigned char *)(vm_mem + (a)))
#define MEM16(a) (*(unsigned short *)(vm_mem + (a)))
#define MEM32(a) (*(unsigned *)(vm_mem + (a)))
#define MEMF(a)  (*(float *)(vm_mem + (a)))
#define MEMD(a)  (*(double *)(vm_mem + (a)))
"""

_POSTLUDE1 = r"""
void interp(istate *istate_)
{
    while (1)
        interpret1(istate_->code[istate_->pc++], istate_);
}
"""


def _binary(expr: str, field: str) -> str:
    return (f"{{ Value b = POP(), a = POP(); "
            f"PUSH().{field} = {expr}; }}")


def _compare(op: str, field: str) -> str:
    return (f"{{ Value b = POP(), a = POP(); "
            f"PUSH().u = a.{field} {op} b.{field}; }}")


def _case_body(op: OpSpec) -> str:
    """The C statement(s) implementing one operator."""
    g, s = op.generic, op.suffix
    field = {"D": "d", "F": "f", "I": "i", "U": "u"}.get(s and s[0], "u")

    if g in ("ADD", "SUB", "MUL", "DIV"):
        c_op = {"ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/"}[g]
        return _binary(f"a.{field} {c_op} b.{field}", field)
    if g == "MOD":
        return _binary(f"a.{field} % b.{field}", field)
    if g in ("BAND", "BOR", "BXOR"):
        c_op = {"BAND": "&", "BOR": "|", "BXOR": "^"}[g]
        return _binary(f"a.u {c_op} b.u", "u")
    if g in ("LSH", "RSH"):
        c_op = "<<" if g == "LSH" else ">>"
        return _binary(f"a.{field} {c_op} (b.u & 31)", field)
    if g in ("EQ", "NE", "GE", "GT", "LE", "LT"):
        c_op = {"EQ": "==", "NE": "!=", "GE": ">=", "GT": ">",
                "LE": "<=", "LT": "<"}[g]
        return _compare(c_op, field)
    if g == "BCOM":
        return "{ PUSH().u = ~POP().u; }"
    if g == "NEG":
        return f"{{ PUSH().{field} = -POP().{field}; }}"
    if op.name == "CVDF":
        return "{ PUSH().f = (float)POP().d; }"
    if op.name == "CVDI":
        return "{ PUSH().i = (int)POP().d; }"
    if op.name == "CVFD":
        return "{ PUSH().d = (double)POP().f; }"
    if op.name == "CVFI":
        return "{ PUSH().i = (int)POP().f; }"
    if op.name == "CVID":
        return "{ PUSH().d = (double)POP().i; }"
    if op.name == "CVIF":
        return "{ PUSH().f = (float)POP().i; }"
    if op.name == "CVI1I4":
        return "{ PUSH().i = (signed char)POP().u; }"
    if op.name == "CVI2I4":
        return "{ PUSH().i = (short)POP().u; }"
    if op.name == "CVU1U4":
        return "{ PUSH().u = (unsigned char)POP().u; }"
    if op.name == "CVU2U4":
        return "{ PUSH().u = (unsigned short)POP().u; }"
    if g == "INDIR":
        load = {"C": "MEM8", "S": "MEM16", "U": "MEM32",
                "F": "MEMF", "D": "MEMD"}[s]
        return f"{{ PUSH().{field} = {load}(POP().u); }}"
    if g == "ASGN":
        if s == "B":
            return ("{ Value v = POP(), p = POP(); "
                    "memcpy(vm_mem + p.u, vm_mem + v.u, 0); }")
        store = {"C": "MEM8", "S": "MEM16", "U": "MEM32",
                 "F": "MEMF", "D": "MEMD"}[s]
        return (f"{{ Value v = POP(), p = POP(); "
                f"{store}(p.u) = v.{field}; }}")
    if g == "ADDRF":
        return "{ PUSH().u = istate_->ap + GET2(); }"
    if g == "ADDRL":
        return "{ PUSH().u = istate_->fp + GET2(); }"
    if g == "ADDRG":
        return "{ PUSH().u = vm_globals[GET2()]; }"
    if g == "LIT":
        n = op.nlit
        parts = " | ".join(
            f"((unsigned)GET1() << {8 * i})" for i in range(n)
        )
        return f"{{ unsigned v = {parts}; PUSH().u = v; }}"
    if g == "CALL":
        if s == "V":
            return "{ rt_call_address(POP().u); }"
        return f"{{ Value r = rt_call_address(POP().u); PUSH() = r; }}"
    if g == "LocalCALL":
        if s == "V":
            return "{ rt_call_procedure(GET2()); }"
        return "{ Value r = rt_call_procedure(GET2()); PUSH() = r; }"
    if g == "ARG":
        if s == "D":
            return ("{ MEMD(vm_argsp) = POP().d; vm_argsp += 8; }")
        if s == "F":
            return ("{ MEMF(vm_argsp) = POP().f; vm_argsp += 4; }")
        return "{ MEM32(vm_argsp) = POP().u; vm_argsp += 4; }"
    if g == "POP":
        return "{ istate_->top--; }"
    if g == "RET":
        if s == "V":
            return "{ longjmp(vm_return, 1); }"
        return "{ vm_retval = POP(); longjmp(vm_return, 1); }"
    if op.name == "JUMPV":
        return "{ istate_->pc = istate_->labels[GET2()]; }"
    if op.name == "BrTrue":
        return ("{ unsigned t = GET2(); "
                "if (POP().u) istate_->pc = istate_->labels[t]; }")
    if op.name == "LABELV":
        return "{ ; }"
    raise NotImplementedError(op.name)  # pragma: no cover


def _switch() -> str:
    lines = ["void interpret1(unsigned char op, istate *istate_)", "{",
             "    switch (op) {"]
    for op in OPS:
        lines.append(f"    case {op.code}: /* {op.name} */")
        lines.append(f"        {_case_body(op)}")
        lines.append("        return;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def emit_interp1() -> str:
    """C source of the initial (uncompressed-bytecode) interpreter."""
    return "\n".join([_PRELUDE, _switch(), _POSTLUDE1])


def _emit_tables(grammar: Grammar) -> str:
    """The rule tables as static C data: the compact grammar encoding plus
    a per-(nonterminal, codeword) offset index (what interpNT walks)."""
    tables = interp_tables(grammar)
    blob = encode_grammar_compact(grammar)
    if len(blob) >= 1 << 16:
        raise ValueError("grammar too large for 16-bit rule offsets")

    # Walk the blob to find each rule's length-byte offset, per
    # nonterminal, in codeword order (mirrors the compact layout).
    byte_nt = grammar.nonterminal("byte")
    offsets: List[int] = []
    starts: List[int] = []
    pos = 5  # magic + nonterminal count
    for nt in grammar.nonterminals:
        starts.append(len(offsets))
        if nt == byte_nt:
            continue
        count = blob[pos] | (blob[pos + 1] << 8)
        pos += 2
        if count != len(tables.by_nt[nt]):
            raise AssertionError("blob/tables rule count mismatch")
        for _ in range(count):
            offsets.append(pos)
            pos += 1 + blob[pos]
    if pos != len(blob):
        raise AssertionError("blob walk out of sync")

    lines: List[str] = []
    lines.append(f"static const unsigned char grammar_blob[{len(blob)}] = {{")
    for i in range(0, len(blob), 16):
        chunk = ", ".join(str(b) for b in blob[i:i + 16])
        lines.append(f"    {chunk},")
    lines.append("};")
    lines.append(
        f"static const unsigned short rule_offset[{len(offsets)}] = {{"
    )
    for i in range(0, len(offsets), 12):
        chunk = ", ".join(str(v) for v in offsets[i:i + 12])
        lines.append(f"    {chunk},")
    lines.append("};")
    lines.append(
        "static const unsigned short nt_start[%d] = { %s };"
        % (len(starts), ", ".join(str(v) for v in starts))
    )
    return "\n".join(lines)


_INTERP_NT = r"""
#define NT_BASE %(nt_base)d   /* symbols >= NT_BASE are nonterminals */
#define BYTE_NT %(byte_nt)d
#define ESCAPE  255

static const unsigned char *rule_body(int nt, int codeword, int *len);

void interpNT(istate *istate_, int nt)
{
    int len, i;
    const unsigned char *rhs;
    if (nt == BYTE_NT) {
        /* a <byte> derivation step is the literal byte itself; the GET
           macros of partially-inlined literals read it directly */
        istate_->pc++;
        return;
    }
    rhs = rule_body(nt, istate_->code[istate_->pc++], &len);
    for (i = 0; i < len; i++) {
        unsigned char sym = rhs[i];
        if (sym == ESCAPE) {
            i++;              /* burned literal byte: consumed by GET */
        } else if (sym >= NT_BASE) {
            interpNT(istate_, sym - NT_BASE);
        } else {
            interpret2(sym, istate_, rhs, &i);
        }
    }
}

void interp2(istate *istate_)
{
    while (1)
        interpNT(istate_, 0 /* NT_start */);
}

static const unsigned char *rule_body(int nt, int codeword, int *len)
{
    const unsigned char *p =
        grammar_blob + rule_offset[nt_start[nt] + codeword];
    *len = *p;
    return p + 1;
}
"""

_INTERPRET2 = r"""
/* like interpret1, but literal bytes may come from the rule (burned in)
   or from the compressed stream -- the Section-5 GET policy */
#define GET1R() (rhs[++*i_] == ESCAPE ? rhs[++*i_] \
                 : istate_->code[istate_->pc++])
#define GET2R() (GET1R() | ((unsigned)GET1R() << 8))

void interpret2(unsigned char op, istate *istate_,
                const unsigned char *rhs, int *i_)
{
%(cases)s
}
"""


# -- native engine emission (runtime-compiled shared object) -----------------
#
# Where emit_interp1/emit_interp2 feed the paper's *size model* (their C
# imports the process runtime as externs and is never executed),
# emit_native produces a complete, self-contained virtual machine for one
# trained grammar: the same interpNT walk over the same compact rule
# tables, plus checked memory accessors, the intrinsic library, call
# frames, and an instret/dispatch accounting that matches the Python
# engines operator for operator.  It compiles with any hosted C compiler
# to a shared object loaded via ctypes (see repro.interp.nativebuild and
# repro.interp.native).
#
# Faults cross the ABI as numeric trap codes plus two 32-bit payload
# words; NATIVE_TRAP_CODES is the one table both sides compile against,
# and repro.interp.native reconstructs the exact Python exception class
# and message for each code (the four-engine equivalence suite holds it
# to byte-identical messages).

#: bump on ANY change to the emitted C or the ABI structs — the build
#: cache keys shared objects on (abi, cgen version, compiler, grammar).
NATIVE_CGEN_VERSION = 3

#: reported by rxn_abi(); the loader refuses mismatched objects.
NATIVE_ABI_VERSION = 2

_NATIVE_TRAPS = (
    "DIV0", "IDIV0", "MEM_RANGE", "UNTERMINATED", "CALL_DEPTH",
    "FRAME_OVERFLOW", "HEAP", "GLOBAL_RANGE", "PROC_RANGE",
    "BAD_CALL_ADDR", "NO_TRAMPOLINE", "ABORT", "FELL_OFF",
    "LABEL_RANGE", "STREAM", "BAD_CODEWORD", "UNSUPPORTED_OP", "EVAL",
    "BUDGET",
)
NATIVE_TRAP_CODES = {name: i + 1 for i, name in enumerate(_NATIVE_TRAPS)}

#: per-procedure descriptor words in RxnRequest.procs, in order.
NATIVE_PROC_FIELDS = (
    "code_off", "code_len", "labels_off", "nlabels",
    "argsize", "framesize", "flags",
)
NATIVE_PROC_WORDS = len(NATIVE_PROC_FIELDS)
NATIVE_FLAG_TRAMPOLINE = 1

_NATIVE_PRELUDE = r"""/* generated by repro.interp.cgen (native engine) -- do not edit */
#include <math.h>
#include <setjmp.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__)
#error "the native engine assumes a little-endian host"
#endif

typedef union { uint32_t u; float f; double d; } NValue;

typedef struct {
    const uint8_t  *code;          /* all procedure code, concatenated */
    const uint32_t *procs;         /* nprocs x RXN_PROC_WORDS */
    uint32_t        nprocs;
    const uint32_t *labels;        /* all label tables, concatenated */
    const uint32_t *global_addrs;  /* pre-resolved by the loader */
    uint32_t        nglobals;
    uint32_t        entry;
    const uint32_t *args;
    uint32_t        nargs;
    const uint8_t  *input;
    uint32_t        input_len;
    uint8_t        *memory;        /* data already written at DATA_BASE */
    uint32_t        memory_size;
    uint32_t        heap_base;
    uint32_t        heap_limit;
    uint32_t        arg_base;
    uint32_t        frame_base;
    uint8_t        *output;
    uint32_t        output_cap;
    uint64_t        budget;        /* max rule dispatches; 0 = unlimited */
} RxnRequest;

typedef struct {
    int32_t  status;      /* 0 finished, 1 trapped */
    int32_t  exit_code;
    int32_t  trap_code;
    uint32_t trap_a;
    uint32_t trap_b;
    uint32_t output_len;
    uint64_t instret;
    uint64_t dispatches;
} RxnResult;

%(trap_enum)s

#define RXN_PROC_WORDS      %(proc_words)d
#define RXN_P_CODE_OFF      0
#define RXN_P_CODE_LEN      1
#define RXN_P_LABELS_OFF    2
#define RXN_P_NLABELS       3
#define RXN_P_ARGSIZE       4
#define RXN_P_FRAMESIZE     5
#define RXN_P_FLAGS         6
#define RXN_FLAG_TRAMPOLINE %(flag_trampoline)du

#define RXN_TRAMP_BASE      0x10000000u
#define RXN_INTR_BASE       0x20000000u
#define RXN_N_INTRINSICS    %(n_intrinsics)du
#define RXN_MAX_CALL_DEPTH  %(max_call_depth)du
#define RXN_STACK           512
#define RXN_SIG_JUMP        1
#define RXN_SIG_RETURN      2

typedef struct {
    const RxnRequest *rq;
    uint8_t  *mem;
    uint32_t  mem_size;
    uint8_t  *out;
    uint32_t  out_cap, out_len;
    uint32_t  in_pos;
    uint32_t  heap_end;
    uint32_t  arg_sp, frame_sp;
    uint32_t  call_depth;
    uint64_t  instret, dispatches;
    NValue    retval;
    int       ret_kind;       /* 1 = 32-bit int pattern, 0 = other */
    uint32_t  jump_label;
    int       status;         /* 0 done, 1 trap, 2 output overflow */
    int32_t   exit_code;
    int32_t   trap_code;
    uint32_t  trap_a, trap_b;
    jmp_buf   top;
} VM;

typedef struct {
    uint32_t pc;
    int top;
    uint32_t code_len;
    const uint8_t  *code;
    const uint32_t *labels;
    uint32_t nlabels;
    uint32_t args_base, locals_base;
    jmp_buf ctl;
    NValue  guard[4];             /* soaks up a (validated-impossible)
                                     evaluation-stack underflow */
    NValue  stack[RXN_STACK];
} NIState;

static void vm_trap(VM *vm, int code, uint32_t a, uint32_t b)
{
    vm->status = 1;
    vm->trap_code = code;
    vm->trap_a = a;
    vm->trap_b = b;
    longjmp(vm->top, 1);
}

/* -- memory (Python Memory semantics: flat, little-endian, checked) ----- */

static void rxn_check(VM *vm, uint32_t addr, uint32_t n)
{
    if (addr > vm->mem_size || n > vm->mem_size - addr)
        vm_trap(vm, RXN_T_MEM_RANGE, n, addr);
}

static uint32_t rxn_load_u8(VM *vm, uint32_t a)
{ rxn_check(vm, a, 1); return vm->mem[a]; }

static uint32_t rxn_load_u16(VM *vm, uint32_t a)
{ uint16_t v; rxn_check(vm, a, 2); memcpy(&v, vm->mem + a, 2); return v; }

static uint32_t rxn_load_u32(VM *vm, uint32_t a)
{ uint32_t v; rxn_check(vm, a, 4); memcpy(&v, vm->mem + a, 4); return v; }

static float rxn_load_f32(VM *vm, uint32_t a)
{ float v; rxn_check(vm, a, 4); memcpy(&v, vm->mem + a, 4); return v; }

static double rxn_load_f64(VM *vm, uint32_t a)
{ double v; rxn_check(vm, a, 8); memcpy(&v, vm->mem + a, 8); return v; }

static void rxn_store_u8(VM *vm, uint32_t a, uint8_t v)
{ rxn_check(vm, a, 1); vm->mem[a] = v; }

static void rxn_store_u16(VM *vm, uint32_t a, uint16_t v)
{ rxn_check(vm, a, 2); memcpy(vm->mem + a, &v, 2); }

static void rxn_store_u32(VM *vm, uint32_t a, uint32_t v)
{ rxn_check(vm, a, 4); memcpy(vm->mem + a, &v, 4); }

static void rxn_store_f32(VM *vm, uint32_t a, float v)
{ rxn_check(vm, a, 4); memcpy(vm->mem + a, &v, 4); }

static void rxn_store_f64(VM *vm, uint32_t a, double v)
{ rxn_check(vm, a, 8); memcpy(vm->mem + a, &v, 8); }

static uint32_t rxn_cstring_len(VM *vm, uint32_t addr)
{
    uint32_t p = addr;
    while (p < vm->mem_size) {
        if (vm->mem[p] == 0)
            return p - addr;
        p++;
    }
    vm_trap(vm, RXN_T_UNTERMINATED, addr, 0);
    return 0;
}

static uint32_t rxn_heap_alloc(VM *vm, uint32_t n)
{
    uint32_t addr = vm->heap_end;
    uint64_t end = ((uint64_t)addr + (n ? n : 1u) + 7u) & ~(uint64_t)7u;
    if (end > vm->rq->heap_limit)
        vm_trap(vm, RXN_T_HEAP, 0, 0);
    vm->heap_end = (uint32_t)end;
    return addr;
}

/* -- output ------------------------------------------------------------- */

static void rxn_out_byte(VM *vm, uint8_t b)
{
    if (vm->out_len >= vm->out_cap) {
        vm->status = 2;               /* caller retries, larger buffer */
        longjmp(vm->top, 1);
    }
    vm->out[vm->out_len++] = b;
}

static void rxn_out_str(VM *vm, const char *s)
{
    while (*s)
        rxn_out_byte(vm, (uint8_t)*s++);
}

static void rxn_out_cstring(VM *vm, uint32_t addr)
{
    uint32_t n = rxn_cstring_len(vm, addr), i;
    for (i = 0; i < n; i++)
        rxn_out_byte(vm, vm->mem[addr + i]);
}

/* -- numeric helpers ---------------------------------------------------- */

/* to_unsigned(int(math.trunc(x))): Python truncates in arbitrary
   precision then wraps mod 2**32; fmod reproduces that exactly for every
   finite double (the remainder is exact).  Non-finite inputs are not a
   defined behaviour of the reference engines (Python raises from int());
   the native engine pins them to 0 rather than invoking C UB. */
static uint32_t rxn_cvti(double x)
{
    double t = trunc(x);
    if (!isfinite(t))
        return 0;
    t = fmod(t, 4294967296.0);
    return (uint32_t)(int64_t)t;
}

static void rxn_room(VM *vm, NIState *ist)
{
    if (ist->top + 1 >= RXN_STACK)
        vm_trap(vm, RXN_T_EVAL, 0, 0);
}

#define SGN(x)  ((int32_t)(x))

/* literal byte: burned in the rule (ESCAPE-prefixed) or streamed -- the
   Section-5 GET policy, with the reference engine's exhaustion trap */
static uint32_t rxn_get1(VM *vm, NIState *ist, const uint8_t *rhs, int *ip)
{
    uint8_t s = rhs[++*ip];
    if (s == RXN_ESCAPE_)
        return rhs[++*ip];
    if (ist->pc >= ist->code_len)
        vm_trap(vm, RXN_T_STREAM, 0, 0);
    return ist->code[ist->pc++];
}

static int  rxn_run_proc(VM *vm, uint32_t index, NValue *out);
static int  rxn_call_address(VM *vm, uint32_t addr, NValue *out);
static int  rxn_call_intrinsic(VM *vm, uint32_t index, NValue *out);
static void rxn_interp_nt(VM *vm, NIState *ist, unsigned nt);
"""

_NATIVE_CORE = r"""
/* -- the generated interpreter walk (interpNT) -------------------------- */

static void rxn_interp_nt(VM *vm, NIState *ist, unsigned nt)
{
    unsigned cw;
    int len, i;
    const uint8_t *rhs;
    if (nt == RXN_BYTE_NT_) {
        /* a <byte> derivation step is the literal byte itself; operand
           positions are consumed by rxn_get1, so this is unreachable for
           grammars that pass the tables' adjacency check */
        ist->pc++;
        return;
    }
    if (ist->pc >= ist->code_len)
        vm_trap(vm, RXN_T_STREAM, 0, 0);
    cw = ist->code[ist->pc++];
    vm->dispatches++;
    if (vm->rq->budget && vm->dispatches > vm->rq->budget)
        vm_trap(vm, RXN_T_BUDGET, 0, 0);
    if (cw >= nt_count[nt])
        vm_trap(vm, RXN_T_BAD_CODEWORD, nt, cw);
    rhs = grammar_blob + rule_offset[nt_start[nt] + cw];
    len = *rhs++;
    for (i = 0; i < len; i++) {
        unsigned sym = rhs[i];
        if (sym == RXN_ESCAPE_)
            i++;                /* burned literal: consumed by rxn_get1 */
        else if (sym >= RXN_NT_BASE_)
            rxn_interp_nt(vm, ist, sym - RXN_NT_BASE_);
        else
            rxn_op(vm, ist, sym, rhs, &i);
    }
}

/* -- procedure activation ----------------------------------------------- */

static int rxn_run_proc(VM *vm, uint32_t index, NValue *out)
{
    const uint32_t *P;
    uint32_t args_base, locals_base, frame_top;
    NIState ist_s;
    NIState *volatile ist = &ist_s;
    int sig;
    if (index >= vm->rq->nprocs)
        vm_trap(vm, RXN_T_PROC_RANGE, index, 0);
    if (vm->call_depth >= RXN_MAX_CALL_DEPTH)
        vm_trap(vm, RXN_T_CALL_DEPTH, 0, 0);
    P = vm->rq->procs + (size_t)index * RXN_PROC_WORDS;
    args_base = vm->arg_sp - P[RXN_P_ARGSIZE];
    locals_base = vm->frame_sp;
    frame_top = locals_base + P[RXN_P_FRAMESIZE];
    if (frame_top > vm->mem_size)
        vm_trap(vm, RXN_T_FRAME_OVERFLOW, 0, 0);
    vm->call_depth++;
    vm->frame_sp = frame_top;
    ist_s.pc = 0;
    ist_s.top = -1;
    ist_s.args_base = args_base;
    ist_s.locals_base = locals_base;
    ist_s.code = vm->rq->code + P[RXN_P_CODE_OFF];
    ist_s.code_len = P[RXN_P_CODE_LEN];
    ist_s.labels = vm->rq->labels + P[RXN_P_LABELS_OFF];
    ist_s.nlabels = P[RXN_P_NLABELS];
    while ((sig = setjmp(ist->ctl)) != RXN_SIG_RETURN) {
        if (sig == RXN_SIG_JUMP) {
            /* a control transfer abandons the in-progress derivation:
               the longjmp unwound the interpNT recursion wholesale */
            if (vm->jump_label >= ist->nlabels)
                vm_trap(vm, RXN_T_LABEL_RANGE, index, vm->jump_label);
            ist->pc = ist->labels[vm->jump_label];
        }
        while (ist->pc < ist->code_len)
            rxn_interp_nt(vm, ist, RXN_NT_START_);
        vm_trap(vm, RXN_T_FELL_OFF, index, 0);
    }
    vm->frame_sp = locals_base;
    vm->arg_sp = args_base;
    vm->call_depth--;
    *out = vm->retval;
    return vm->ret_kind;
}

static int rxn_call_address(VM *vm, uint32_t addr, NValue *out)
{
    if (addr >= RXN_TRAMP_BASE && addr < RXN_TRAMP_BASE + vm->rq->nprocs) {
        uint32_t index = addr - RXN_TRAMP_BASE;
        if (!(vm->rq->procs[(size_t)index * RXN_PROC_WORDS + RXN_P_FLAGS]
              & RXN_FLAG_TRAMPOLINE))
            vm_trap(vm, RXN_T_NO_TRAMPOLINE, index, 0);
        return rxn_run_proc(vm, index, out);
    }
    if (addr >= RXN_INTR_BASE && addr < RXN_INTR_BASE + RXN_N_INTRINSICS)
        return rxn_call_intrinsic(vm, addr - RXN_INTR_BASE, out);
    vm_trap(vm, RXN_T_BAD_CALL_ADDR, addr, 0);
    return 0;
}

/* -- entry points -------------------------------------------------------- */

int rxn_abi(void)
{
    return RXN_ABI_VERSION_;
}

const char *rxn_grammar_key(void)
{
    return RXN_GRAMMAR_KEY_;
}

int rxn_run(const RxnRequest *rq, RxnResult *res)
{
    VM vm_s;
    VM *volatile vm = &vm_s;
    memset(&vm_s, 0, sizeof vm_s);
    vm_s.rq = rq;
    vm_s.mem = rq->memory;
    vm_s.mem_size = rq->memory_size;
    vm_s.out = rq->output;
    vm_s.out_cap = rq->output_cap;
    vm_s.heap_end = rq->heap_base;
    vm_s.arg_sp = rq->arg_base;
    vm_s.frame_sp = rq->frame_base;
    if (setjmp(vm_s.top) == 0) {
        NValue r;
        int kind;
        uint32_t i;
        for (i = 0; i < rq->nargs; i++) {
            rxn_store_u32(vm, vm->arg_sp, rq->args[i]);
            vm->arg_sp += 4;
        }
        kind = rxn_run_proc(vm, rq->entry, &r);
        vm->exit_code = (kind == 1) ? (int32_t)r.u : 0;
    }
    res->status = (vm->status == 1) ? 1 : 0;
    res->exit_code = vm->exit_code;
    res->trap_code = vm->trap_code;
    res->trap_a = vm->trap_a;
    res->trap_b = vm->trap_b;
    res->output_len = vm->out_len;
    res->instret = vm->instret;
    res->dispatches = vm->dispatches;
    return (vm->status == 2) ? 1 : 0;   /* 1: retry with larger output */
}
"""


def _native_lit_reads(n: int) -> str:
    """Statements decoding ``n`` little-endian literal bytes into ``v``
    (each byte burned in the rule or streamed, decided per byte)."""
    parts = ["uint32_t v = GET1();"]
    parts.extend(f"v |= GET1() << {8 * i};" for i in range(1, n))
    return " ".join(parts)


_NATIVE_STORE = {"C": ("rxn_store_u8", "(uint8_t)", "u"),
                 "S": ("rxn_store_u16", "(uint16_t)", "u"),
                 "U": ("rxn_store_u32", "", "u"),
                 "F": ("rxn_store_f32", "", "f"),
                 "D": ("rxn_store_f64", "", "d")}
_NATIVE_LOAD = {"C": ("rxn_load_u8", "u"), "S": ("rxn_load_u16", "u"),
                "U": ("rxn_load_u32", "u"), "F": ("rxn_load_f32", "f"),
                "D": ("rxn_load_f64", "d")}


def _native_case_body(op: OpSpec) -> str:
    """The checked C statement block for one operator, mirroring the
    registered Python handler (:mod:`repro.interp.base`) bit for bit —
    including the instret contract: count after the literal bytes are
    read, before the operator's work (so a trapping operator is counted
    and an operand-starved one is not, exactly as the reference engine).
    """
    g, s = op.generic, op.suffix
    lit = _native_lit_reads(op.nlit) if op.nlit else ""

    # -- v0: leaves -------------------------------------------------------
    if g == "LIT":
        return f"{{ {lit} STEP(); ROOM(); PUSH().u = v; }}"
    if g == "ADDRF":
        return f"{{ {lit} STEP(); ROOM(); PUSH().u = ist->args_base + v; }}"
    if g == "ADDRL":
        return (f"{{ {lit} STEP(); ROOM(); "
                f"PUSH().u = ist->locals_base + v; }}")
    if g == "ADDRG":
        return (f"{{ {lit} STEP(); "
                f"if (v >= vm->rq->nglobals) "
                f"vm_trap(vm, RXN_T_GLOBAL_RANGE, v, 0); "
                f"ROOM(); PUSH().u = vm->rq->global_addrs[v]; }}")
    if g == "LocalCALL":
        if s == "V":
            return (f"{{ {lit} STEP(); "
                    f"{{ NValue r; rxn_run_proc(vm, v, &r); }} }}")
        return (f"{{ {lit} STEP(); "
                f"{{ NValue r; rxn_run_proc(vm, v, &r); "
                f"ROOM(); PUSH() = r; }} }}")

    # -- v1: unary --------------------------------------------------------
    if op.name == "BCOMU":
        return "{ STEP(); TOPV.u = ~TOPV.u; }"
    if op.name == "NEGI":
        return "{ STEP(); TOPV.u = 0u - TOPV.u; }"
    if op.name == "NEGD":
        return "{ STEP(); TOPV.d = -TOPV.d; }"
    if op.name == "NEGF":
        return "{ STEP(); TOPV.f = -TOPV.f; }"
    if op.name == "CVDF":
        return "{ STEP(); TOPV.f = (float)TOPV.d; }"
    if op.name == "CVFD":
        return "{ STEP(); TOPV.d = (double)TOPV.f; }"
    if op.name == "CVDI":
        return "{ STEP(); TOPV.u = rxn_cvti(TOPV.d); }"
    if op.name == "CVFI":
        return "{ STEP(); TOPV.u = rxn_cvti((double)TOPV.f); }"
    if op.name == "CVID":
        return "{ STEP(); TOPV.d = (double)SGN(TOPV.u); }"
    if op.name == "CVIF":
        return "{ STEP(); TOPV.f = (float)SGN(TOPV.u); }"
    if op.name == "CVI1I4":
        return "{ STEP(); TOPV.u = (uint32_t)(int32_t)(int8_t)TOPV.u; }"
    if op.name == "CVI2I4":
        return "{ STEP(); TOPV.u = (uint32_t)(int32_t)(int16_t)TOPV.u; }"
    if op.name == "CVU1U4":
        return "{ STEP(); TOPV.u &= 0xFFu; }"
    if op.name == "CVU2U4":
        return "{ STEP(); TOPV.u &= 0xFFFFu; }"
    if g == "INDIR":
        fn, field = _NATIVE_LOAD[s]
        return f"{{ STEP(); TOPV.{field} = {fn}(vm, TOPV.u); }}"
    if g == "CALL" and op.klass == "v1":
        return ("{ STEP(); { uint32_t a = POP().u; NValue r; "
                "rxn_call_address(vm, a, &r); ROOM(); PUSH() = r; } }")

    # -- v2: binary -------------------------------------------------------
    if op.klass == "v2":
        return _native_v2_body(op)

    # -- statements -------------------------------------------------------
    if op.name == "JUMPV":
        return (f"{{ {lit} STEP(); vm->jump_label = v; "
                f"longjmp(ist->ctl, RXN_SIG_JUMP); }}")
    if op.name == "BrTrue":
        return (f"{{ {lit} STEP(); if (POP().u) {{ vm->jump_label = v; "
                f"longjmp(ist->ctl, RXN_SIG_JUMP); }} }}")
    if op.name == "RETV":
        return ("{ STEP(); vm->ret_kind = 0; "
                "longjmp(ist->ctl, RXN_SIG_RETURN); }")
    if g == "RET":
        kind = 1 if s == "U" else 0
        return (f"{{ STEP(); vm->retval = POP(); vm->ret_kind = {kind}; "
                f"longjmp(ist->ctl, RXN_SIG_RETURN); }}")
    if g == "POP":
        return "{ STEP(); ist->top--; }"
    if op.name == "CALLV":
        return ("{ STEP(); { uint32_t a = POP().u; NValue r; "
                "rxn_call_address(vm, a, &r); } }")
    if op.name == "ARGU":
        return ("{ STEP(); { NValue a = POP(); "
                "rxn_store_u32(vm, vm->arg_sp, a.u); vm->arg_sp += 4; } }")
    if op.name == "ARGF":
        return ("{ STEP(); { NValue a = POP(); "
                "rxn_store_f32(vm, vm->arg_sp, a.f); vm->arg_sp += 4; } }")
    if op.name == "ARGD":
        return ("{ STEP(); { NValue a = POP(); "
                "rxn_store_f64(vm, vm->arg_sp, a.d); vm->arg_sp += 8; } }")
    if op.name in ("ARGB", "ASGNB"):
        return "{ STEP(); vm_trap(vm, RXN_T_UNSUPPORTED_OP, 0, 0); }"
    if g == "ASGN":
        fn, cast, field = _NATIVE_STORE[s]
        return (f"{{ STEP(); {{ NValue val = POP(), p = POP(); "
                f"{fn}(vm, p.u, {cast}val.{field}); }} }}")
    if op.name == "LABELV":
        return "{ STEP(); }"
    raise NotImplementedError(op.name)  # pragma: no cover


_NATIVE_CMP = {"EQ": "==", "NE": "!=", "GE": ">=",
               "GT": ">", "LE": "<=", "LT": "<"}


def _native_v2_body(op: OpSpec) -> str:
    """Binary operators: pop b, pop a, push one result."""
    g, s = op.generic, op.suffix

    def wrap(push_stmt: str, pre: str = "") -> str:
        return ("{ NValue b, a; STEP(); b = POP(); a = POP(); "
                + (pre + " " if pre else "") + push_stmt + " }")

    if g in ("ADD", "SUB", "MUL") and s in ("D", "F"):
        c_op = {"ADD": "+", "SUB": "-", "MUL": "*"}[g]
        f = s.lower()
        return wrap(f"PUSH().{f} = a.{f} {c_op} b.{f};")
    if g == "DIV" and s == "D":
        return wrap("PUSH().d = a.d / b.d;",
                    "if (b.d == 0.0) vm_trap(vm, RXN_T_DIV0, 0, 0);")
    if g == "DIV" and s == "F":
        return wrap("PUSH().f = a.f / b.f;",
                    "if (b.f == 0.0f) vm_trap(vm, RXN_T_DIV0, 0, 0);")
    if op.name == "DIVI":
        # C99 truncating division, with INT_MIN/-1 pinned to the Python
        # reference result (0 - a) instead of the C overflow UB.
        return wrap(
            "if (SGN(b.u) == -1) PUSH().u = 0u - a.u; "
            "else PUSH().u = (uint32_t)(SGN(a.u) / SGN(b.u));",
            "if (b.u == 0) vm_trap(vm, RXN_T_IDIV0, 0, 0);")
    if op.name == "MODI":
        return wrap(
            "if (SGN(b.u) == -1) PUSH().u = 0; "
            "else PUSH().u = (uint32_t)(SGN(a.u) % SGN(b.u));",
            "if (b.u == 0) vm_trap(vm, RXN_T_IDIV0, 0, 0);")
    if op.name in ("MULI", "MULU"):
        return wrap("PUSH().u = a.u * b.u;")
    if op.name in ("ADDU", "SUBU"):
        c_op = "+" if g == "ADD" else "-"
        return wrap(f"PUSH().u = a.u {c_op} b.u;")
    if op.name == "DIVU":
        return wrap("PUSH().u = a.u / b.u;",
                    "if (b.u == 0) vm_trap(vm, RXN_T_DIV0, 0, 0);")
    if op.name == "MODU":
        return wrap("PUSH().u = a.u % b.u;",
                    "if (b.u == 0) vm_trap(vm, RXN_T_DIV0, 0, 0);")
    if g in ("BAND", "BOR", "BXOR"):
        c_op = {"BAND": "&", "BOR": "|", "BXOR": "^"}[g]
        return wrap(f"PUSH().u = a.u {c_op} b.u;")
    if g in _NATIVE_CMP:
        c_op = _NATIVE_CMP[g]
        if s == "I":
            return wrap(f"PUSH().u = SGN(a.u) {c_op} SGN(b.u);")
        f = {"D": "d", "F": "f", "U": "u"}[s]
        return wrap(f"PUSH().u = a.{f} {c_op} b.{f};")
    if g == "LSH":  # signed == unsigned left shift mod 2**32
        return wrap("PUSH().u = a.u << (b.u & 31);")
    if op.name == "RSHU":
        return wrap("PUSH().u = a.u >> (b.u & 31);")
    if op.name == "RSHI":  # arithmetic shift, like Python's >> on signed
        return wrap("PUSH().u = (uint32_t)(SGN(a.u) >> (b.u & 31));")
    raise NotImplementedError(op.name)  # pragma: no cover


def _native_switch() -> str:
    lines = [
        "#define STEP()  (vm->instret++)",
        "#define PUSH()  (ist->stack[++ist->top])",
        "#define POP()   (ist->stack[ist->top--])",
        "#define TOPV    (ist->stack[ist->top])",
        "#define ROOM()  rxn_room(vm, ist)",
        "#define GET1()  rxn_get1(vm, ist, rhs, ip)",
        "",
        "static void rxn_op(VM *vm, NIState *ist, unsigned op,",
        "                   const uint8_t *rhs, int *ip)",
        "{",
        "    switch (op) {",
    ]
    for op in OPS:
        lines.append(f"    case {op.code}: /* {op.name} */")
        lines.append(f"        {_native_case_body(op)}")
        lines.append("        return;")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines)


def _native_intrinsics() -> str:
    """The intrinsic dispatcher, generated from the runtime's table so
    the two libraries cannot drift apart silently."""
    from .runtime import INTRINSICS

    bodies = {
        "exit": ["vm->status = 0; vm->exit_code = SGN(a0);",
                 "longjmp(vm->top, 1);"],
        "abort": ["vm_trap(vm, RXN_T_ABORT, 0, 0);"],
        "putchar": ["rxn_out_byte(vm, (uint8_t)a0);",
                    "out->u = a0 & 0xFFu;"],
        "getchar": ["out->u = (vm->in_pos < vm->rq->input_len)"
                    " ? vm->rq->input[vm->in_pos++] : 0xFFFFFFFFu;"],
        "puts": ["rxn_out_cstring(vm, a0);",
                 "rxn_out_byte(vm, '\\n');"],
        "putstr": ["rxn_out_cstring(vm, a0);"],
        "putint": ["{ char buf[16]; snprintf(buf, sizeof buf, \"%d\","
                   " SGN(a0)); rxn_out_str(vm, buf); }"],
        "putuint": ["{ char buf[16]; snprintf(buf, sizeof buf, \"%u\","
                    " a0); rxn_out_str(vm, buf); }"],
        "putfloat": ["{ char buf[40]; snprintf(buf, sizeof buf,"
                     " \"%.6g\", a0); rxn_out_str(vm, buf); }"],
        "malloc": ["out->u = rxn_heap_alloc(vm, a0);"],
        "free": [],
        "memcpy": ["rxn_check(vm, a1, a2); rxn_check(vm, a0, a2);",
                   "memmove(vm->mem + a0, vm->mem + a1, a2);",
                   "out->u = a0;"],
        "memset": ["rxn_check(vm, a0, a2);",
                   "memset(vm->mem + a0, (int)(a1 & 0xFFu), a2);",
                   "out->u = a0;"],
        "strlen": ["out->u = rxn_cstring_len(vm, a0);"],
    }
    missing = {i.name for i in INTRINSICS} - set(bodies)
    if missing:  # pragma: no cover - drift guard
        raise NotImplementedError(
            f"intrinsics without native bodies: {sorted(missing)}")

    lines = [
        "static int rxn_call_intrinsic(VM *vm, uint32_t index, NValue *out)",
        "{",
        "    uint32_t args_base;",
        "    out->u = 0;",
        "    switch (index) {",
    ]
    for i, intr in enumerate(INTRINSICS):
        argsize = intr.argsize
        lines.append(f"    case {i}: {{ /* {intr.name} */")
        lines.append(f"        args_base = vm->arg_sp - {argsize}u;")
        off = 0
        for k, t in enumerate(intr.argtypes):
            if t == "i":
                decl = f"uint32_t a{k} = rxn_load_u32(vm, args_base + {off}u);"
                off += 4
            elif t == "f":
                decl = f"float a{k} = rxn_load_f32(vm, args_base + {off}u);"
                off += 4
            else:
                decl = f"double a{k} = rxn_load_f64(vm, args_base + {off}u);"
                off += 8
            lines.append(f"        {decl}")
        lines.append("        vm->arg_sp = args_base;")
        if not bodies[intr.name]:
            for k in range(len(intr.argtypes)):
                lines.append(f"        (void)a{k};")
        for stmt in bodies[intr.name]:
            lines.append(f"        {stmt}")
        lines.append("        return 1;")
        lines.append("    }")
    lines.append("    }")
    lines.append("    return 1;")
    lines.append("}")
    return "\n".join(lines)


def _native_nt_counts(grammar: Grammar) -> str:
    """Per-nonterminal rule counts for the codeword bounds check (the
    Python engines' TableError); ``<byte>`` has no table row."""
    tables = interp_tables(grammar)
    byte_nt = grammar.nonterminal("byte")
    counts = [0 if nt == byte_nt else len(tables.by_nt[nt])
              for nt in grammar.nonterminals]
    return ("static const unsigned short nt_count[%d] = { %s };"
            % (len(counts), ", ".join(str(c) for c in counts)))


def emit_native(grammar: Grammar) -> str:
    """Complete C source of the native engine for one trained grammar.

    Unlike :func:`emit_interp2` (the size-model artifact, which imports
    the process runtime as externs), the result is self-contained: it
    compiles to a shared object exposing ``rxn_abi``, ``rxn_grammar_key``
    and ``rxn_run`` (see ``docs/INTERPRETER.md`` for the ABI contract).
    """
    from ..core.program import program_for
    from .runtime import INTRINSICS

    program = program_for(grammar)
    nt_base = len(OPS)
    byte_index = grammar.nt_names.index("byte")
    start_index = list(grammar.nonterminals).index(grammar.start)
    trap_enum = "enum {\n" + "\n".join(
        f"    RXN_T_{name} = {code},"
        for name, code in NATIVE_TRAP_CODES.items()) + "\n};"
    prelude = _NATIVE_PRELUDE % {
        "trap_enum": trap_enum,
        "proc_words": NATIVE_PROC_WORDS,
        "flag_trampoline": NATIVE_FLAG_TRAMPOLINE,
        "n_intrinsics": len(INTRINSICS),
        "max_call_depth": 400,
    }
    defines = "\n".join([
        f"#define RXN_NT_BASE_  {nt_base}u",
        f"#define RXN_BYTE_NT_  {byte_index}u",
        f"#define RXN_NT_START_ {start_index}u",
        "#define RXN_ESCAPE_   255u",
        f"#define RXN_ABI_VERSION_ {NATIVE_ABI_VERSION}",
        f'#define RXN_GRAMMAR_KEY_ "{program.compact_key}"',
    ])
    return "\n".join([
        defines,
        prelude,
        _emit_tables(grammar),
        _native_nt_counts(grammar),
        _native_intrinsics(),
        _native_switch(),
        _NATIVE_CORE,
    ])


def emit_interp2(grammar: Grammar) -> str:
    """C source of the generated (compressed-bytecode) interpreter for a
    trained grammar.  Contains the rule tables (the grammar) as static
    data; the code growth over interp1 is interpNT plus interpret2's GET
    indirection."""
    from ..bytecode.opcodes import OPS as _ops

    cases = ["    switch (op) {"]
    for op in _ops:
        body = _case_body(op)
        if op.nlit:
            body = body.replace("GET2()", "GET2R()")
            body = body.replace("GET1()", "GET1R()")
        cases.append(f"    case {op.code}: /* {op.name} */")
        cases.append(f"        {body}")
        cases.append("        return;")
    cases.append("    }")

    nt_base = len(_ops)
    byte_index = grammar.nt_names.index("byte")
    return "\n".join([
        _PRELUDE,
        "void interpret2(unsigned char, istate *, const unsigned char *, "
        "int *);",
        "void interpNT(istate *, int);",
        _emit_tables(grammar),
        _INTERP_NT % {"nt_base": nt_base, "byte_nt": byte_index},
        _INTERPRET2 % {"cases": "\n".join(cases)},
    ])
