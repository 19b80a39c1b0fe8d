"""OpenQASM 2.0 subset parser and normalized emitter.

Supported statements: the version header, the standard include, qreg/creg
declarations, standard-header gate applications, measure, and barrier.
Registers are flattened to global indices in declaration order. Angle
expressions are evaluated to doubles at parse time (pi, + - * /, parentheses,
unary minus) and must come out finite. User-defined gates, if, opaque, and
reset are rejected by name.

Parsing is one linear pass over the statements, so its cost grows with the
size of the source. After the header, a statement whose first word names a
gate kind or alias is read as a gate at once: no gate is named qreg, creg,
include, measure or barrier. Any other statement tries those forms in that
order and is refused if none fits. Each argument text is resolved to its
qubits once per parse. A statement's line is counted only when the
statement is refused, from where its segment starts in the source.
"""
from __future__ import annotations

import re
from itertools import accumulate, repeat
from math import isfinite, pi

from .circuit import BARRIER, GATE_SIGNATURES, MEASURE, Circuit, Instruction, _new_tuple, validate


class QasmError(ValueError):
    """Parse failure, carrying the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# source-name aliases accepted on input; emission always uses canonical kinds
_ALIASES = {"u": "u3", "U": "u3", "CX": "cx", "cu1": "cp", "p": "u1"}

_FORBIDDEN = ("gate", "if", "opaque", "reset")

# every name a gate is written by, aliases included -> (kind, arity, parameter count)
_SIGNATURES = {
    raw: (kind, *GATE_SIGNATURES[kind])
    for raw, kind in [(kind, kind) for kind in GATE_SIGNATURES] + list(_ALIASES.items())
}

# angle tokens (group `ok`), the item separator ',', and any other non-blank
# character as a token of its own that makes its item a bad expression
_TOKEN_RE = re.compile(
    r"(?P<ok>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|pi|[+\-*/()])|,|\S"
)
# `name(params) args`: the parameters run to the last ')', as arguments never contain one
_GATE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?(.*)", re.S)
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")
_DECL_RE = re.compile(r"^(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
_MEASURE_RE = re.compile(r"^measure\s+(.+?)\s*->\s*(.+)$")
_HEADER_RE = re.compile(r"^OPENQASM\s+2\.0$")
_QELIB_RE = re.compile(r"^include\s+\"qelib1\.inc\"$")
_PAREN_STEP = {"(": 1, ")": -1}
# a list whose every item is one decimal literal, optionally signed
_NUMBER = r"\s*[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?\s*"
_PLAIN_LIST_RE = re.compile(rf"{_NUMBER}(?:,{_NUMBER})*")


def _eval_angles(text: str, line: int) -> tuple[tuple[float, ...], int]:
    """Evaluate a comma-separated list of constant angle expressions.

    Items are split at commas outside parentheses, blank items are skipped,
    and each item is evaluated by recursive descent and must be finite. A ')'
    outside parentheses ends the list early. Returns the values and the
    offset in ``text`` where the list ended. A list of finite, optionally
    signed decimal literals and nothing else is read by ``float()`` alone,
    which gives each item the value the descent would.
    """
    if _PLAIN_LIST_RE.fullmatch(text):
        plain = tuple(map(float, text.split(",")))
        if all(map(isfinite, plain)):
            return plain, len(text)
    tokens: list[str] = []  # the current item's tokens
    item = ""  # the current item's text
    pos = 0

    def peek() -> str | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def atom() -> float:
        tok = peek()
        if tok is None:
            raise QasmError(f"truncated angle expression {item!r}", line)
        if tok == "(":
            take()
            value = expr()
            if peek() != ")":
                raise QasmError(f"unbalanced parentheses in {item!r}", line)
            take()
            return value
        if tok == "pi":
            take()
            return pi
        if tok in "+-":
            take()
            return atom() if tok == "+" else -atom()
        try:
            return float(take())
        except ValueError:
            raise QasmError(f"bad token {tok!r} in angle expression", line) from None

    def term() -> float:
        value = atom()
        while peek() in ("*", "/"):
            op = take()
            rhs = atom()
            if op == "/" and rhs == 0:
                raise QasmError(f"division by zero in angle expression {item!r}", line)
            value = value * rhs if op == "*" else value / rhs
        return value

    def expr() -> float:
        value = term()
        while peek() in ("+", "-"):
            op = take()
            rhs = term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def finish(end: int) -> None:
        nonlocal item, pos
        item, pos = text[start:end], 0
        if not clean:
            raise QasmError(f"bad angle expression {item!r}", line)
        if tokens:
            value = expr()
            if pos != len(tokens):
                raise QasmError(f"trailing tokens in angle expression {item!r}", line)
            if not isfinite(value):
                raise QasmError(f"angle expression {item!r} is not a finite number", line)
            values.append(value)

    values: list[float] = []
    start, depth, clean = 0, 0, True  # where the item begins, its open '(' count, no bad token yet
    for m in _TOKEN_RE.finditer(text):
        tok = m.group()
        if depth == 0 and tok in (",", ")"):
            finish(m.start())
            if tok == ")":
                return tuple(values), m.start()
            tokens, start, clean = [], m.end(), True
            continue
        depth += (tok == "(") - (tok == ")")
        clean = clean and m.lastgroup == "ok"
        tokens.append(tok)
    finish(len(text))
    return tuple(values), len(text)


def _strip_comments(source: str) -> str:
    r"""The source with each line's ``//`` comment cut and every line ending
    made ``"\n"``. A line ends at ``"\n"``, ``"\r\n"`` or a lone ``"\r"``,
    the endings ``open()`` translates, and nowhere else: a form feed, say,
    is blank space inside a line."""
    if "\r" in source:
        source = source.replace("\r\n", "\n").replace("\r", "\n")
    if "//" not in source:
        return source
    return "\n".join(l.split("//", 1)[0] for l in source.split("\n"))


def _unbalanced(raw_params: str | None, raw_args: str) -> bool:
    """Whether a gate statement's parameter parentheses never close: a '('
    opens the arguments, or one opened in the parameters stays open. A ')'
    too many ends the list early instead."""
    if raw_params is None:
        return raw_args.startswith("(")
    if "(" not in raw_params:
        return False
    depths = list(accumulate(map(_PAREN_STEP.get, raw_params, repeat(0)), initial=0))
    return min(depths) == 0 < depths[-1]


def parse_qasm(source: str, name: str = "") -> Circuit:
    """Parse OpenQASM 2.0 text into a validated Circuit."""
    text = _strip_comments(source)

    for word in _FORBIDDEN:
        m = word in text and re.search(rf"(^|[;\s]){word}\b", text)
        if m:
            line = text.count("\n", 0, m.start() + len(m.group(1))) + 1
            raise QasmError(f"unsupported construct '{word}'", line)

    # statements end with ';'; text after the last one must be blank
    body, _, tail = text.rpartition(";")
    if tail.strip():
        raise QasmError(f"statement missing ';': {tail.strip()!r}", body.count("\n") + 1)

    qregs: dict[str, tuple[int, int]] = {}  # name -> (offset, size)
    cregs: dict[str, tuple[int, int]] = {}
    num_qubits = 0
    num_clbits = 0
    ops: list[Instruction] = []
    append = ops.append
    # argument text -> its qubits (or bits), entered once it resolves; a
    # register is never redeclared, so an entry stays right for the parse
    qubits_of: dict[str, tuple[int, ...]] = {}
    bits_of: dict[str, tuple[int, ...]] = {}

    def resolve(arg: str, regs: dict[str, tuple[int, int]], table: dict[str, tuple[int, ...]], what: str) -> tuple[int, ...]:
        m = _ARG_RE.match(arg.strip())
        if not m:
            raise QasmError(f"bad {what} argument {arg.strip()!r}", 0)
        reg, idx = m.groups()
        if reg not in regs:
            raise QasmError(f"undeclared {what} register {reg!r}", 0)
        offset, size = regs[reg]
        if idx is None:
            found = tuple(range(offset, offset + size))
        else:
            i = int(idx)
            if i >= size:
                raise QasmError(f"index {i} out of range for {reg}[{size}]", 0)
            found = (offset + i,)
        table[arg] = found
        return found

    # Errors inside a statement are raised with line 0 and given the
    # statement's line where they leave the loop.
    segments = body.split(";")
    seen = 0  # statements read so far
    try:
        for index, segment in enumerate(segments):
            stmt = segment.strip()
            if not stmt:
                continue
            seen += 1
            if seen <= 2:
                if seen == 1 and not _HEADER_RE.match(stmt):
                    raise QasmError("expected 'OPENQASM 2.0;' header", 0)
                if seen == 1 or _QELIB_RE.match(stmt):
                    continue

            # a gate statement is decided first: no gate kind or alias is
            # qreg, creg, include, measure or barrier
            m = _GATE_RE.match(stmt)
            signature = m and _SIGNATURES.get(m[1])
            if signature:
                kind, arity, nparams = signature
                raw_kind, raw_params, raw_args = m.groups()
                if _unbalanced(raw_params, raw_args):
                    raise QasmError(f"unbalanced parentheses in {stmt!r}", 0)
                params: tuple[float, ...] = ()
                if raw_params is not None:
                    params, end = _eval_angles(raw_params, 0)
                    if end < len(raw_params):  # the rest of a list closed early joins the arguments
                        raw_args = raw_params[end + 1:] + ")" + raw_args
                if len(params) != nparams:
                    raise QasmError(f"{raw_kind} expects {nparams} parameter(s), got {len(params)}", 0)
                # a lone argument read before needs no split
                qs = qubits_of.get(raw_args) if arity == 1 else None
                if qs is None:
                    args = [a for a in raw_args.split(",") if a.strip()]
                    if len(args) != arity:
                        raise QasmError(f"{raw_kind} expects {arity} argument(s), got {len(args)}", 0)
                    qs = ()
                    for arg in args:
                        qs += qubits_of.get(arg) or resolve(arg, qregs, qubits_of, "quantum")
                if len(qs) == arity:
                    if arity > 1 and len(set(qs)) != arity:
                        raise QasmError(f"{raw_kind} applied to duplicate qubits", 0)
                    append(_new_tuple(Instruction, (kind, qs, params, None)))
                elif arity == 1:  # whole-register form broadcasts a single-qubit gate
                    ops.extend([_new_tuple(Instruction, (kind, (q,), params, None)) for q in qs])
                else:
                    raise QasmError("register broadcast is only supported for single-qubit gates", 0)
                continue

            d = _DECL_RE.match(stmt)
            if d:
                which, reg, size = d.group(1), d.group(2), int(d.group(3))
                if size < 1:
                    raise QasmError(f"register {reg!r} must have positive size", 0)
                if reg in qregs or reg in cregs:
                    raise QasmError(f"register {reg!r} redeclared", 0)
                if which == "qreg":
                    qregs[reg] = (num_qubits, size)
                    num_qubits += size
                else:
                    cregs[reg] = (num_clbits, size)
                    num_clbits += size
                continue

            if stmt.startswith("include"):
                raise QasmError(f"unsupported include: {stmt!r}", 0)

            if stmt.startswith("measure"):
                mm = _MEASURE_RE.match(stmt)
                if not mm:
                    raise QasmError(f"bad measure statement {stmt!r}", 0)
                qarg, carg = mm.groups()
                qs = qubits_of.get(qarg) or resolve(qarg, qregs, qubits_of, "quantum")
                cs = bits_of.get(carg) or resolve(carg, cregs, bits_of, "classical")
                if len(qs) != len(cs):
                    raise QasmError("measure arity mismatch between registers", 0)
                ops.extend([_new_tuple(Instruction, (MEASURE, (q,), (), c)) for q, c in zip(qs, cs)])
                continue

            if stmt.startswith("barrier") and (len(stmt) == 7 or stmt[7].isspace()):
                rest = stmt[7:].strip()
                if not rest:
                    qs = tuple(range(num_qubits))
                else:
                    qs = ()
                    for arg in rest.split(","):
                        qs += qubits_of.get(arg) or resolve(arg, qregs, qubits_of, "quantum")
                if not qs:
                    raise QasmError("barrier on empty register set", 0)
                if len(set(qs)) != len(qs):
                    raise QasmError("barrier applied to duplicate qubits", 0)
                append(_new_tuple(Instruction, (BARRIER, qs, (), None)))
                continue

            if not m:
                raise QasmError(f"unparseable statement {stmt!r}", 0)
            if _unbalanced(m[2], m[3]):
                raise QasmError(f"unbalanced parentheses in {stmt!r}", 0)
            raise QasmError(f"unknown gate {m[1]!r}", 0)
    except QasmError as error:
        # a statement's line is the line of its first non-blank character
        start = sum(map(len, segments[:index])) + index + len(segment) - len(segment.lstrip())
        raise QasmError(error.args[0].removeprefix("line 0: "), text.count("\n", 0, start) + 1) from None

    if not seen:
        raise QasmError("expected 'OPENQASM 2.0;' header", 1)
    if num_qubits == 0:
        raise QasmError("no qreg declared", 1)
    circuit = Circuit(num_qubits, num_clbits, tuple(ops), name)
    validate(circuit)
    return circuit


def to_qasm(circuit: Circuit) -> str:
    """Emit normalized OpenQASM 2.0: flattened registers named q and c.

    Each distinct qubit tuple, and each distinct ``(kind, params)`` head of
    an op with parameters, is formatted once per call. Parameters are floats,
    printed with ``repr``."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    append = lines.append
    args: dict[tuple[int, ...], str] = {}  # qubit tuple -> "q[a],q[b]"
    heads: dict[tuple[str, tuple[float, ...]], str] = {}  # (kind, params) -> "kind(a,b)"
    for kind, qubits, params, clbit in circuit.ops:
        if kind == MEASURE:
            append(f"measure q[{qubits[0]}] -> c[{clbit}];")
            continue
        text = args.get(qubits)
        if text is None:
            text = args[qubits] = ",".join([f"q[{q}]" for q in qubits])
        if not params or kind == BARRIER:
            append(f"{kind} {text};")
            continue
        head = heads.get((kind, params))
        if head is None:
            head = f"{kind}({','.join(map(repr, params))})"
            if 0.0 not in params:  # 0.0 and -0.0 are one key but print apart
                heads[kind, params] = head
        append(f"{head} {text};")
    return "\n".join(lines) + "\n"
