"""OpenQASM 2.0 subset parser and normalized emitter.

Supported statements: the version header, the standard include, qreg/creg
declarations, standard-header gate applications, measure, and barrier.
Registers are flattened to global indices in declaration order. Angle
expressions are evaluated to doubles at parse time (pi, + - * /, parentheses,
unary minus) and must come out finite. User-defined gates, if, opaque, and
reset are rejected by name.

Parsing is one linear pass over the statements, carrying the line number
from one ';' to the next, so its cost grows with the size of the source.
"""
from __future__ import annotations

import re
from itertools import accumulate, repeat
from math import isfinite, pi

from .circuit import BARRIER, GATE_SIGNATURES, MEASURE, Circuit, Instruction, validate


class QasmError(ValueError):
    """Parse failure, carrying the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# source-name aliases accepted on input; emission always uses canonical kinds
_ALIASES = {"u": "u3", "U": "u3", "CX": "cx", "cu1": "cp", "p": "u1"}

_FORBIDDEN = ("gate", "if", "opaque", "reset")

# angle tokens (group `ok`), the item separator ',', and any other non-blank
# character as a token of its own that makes its item a bad expression
_TOKEN_RE = re.compile(
    r"(?P<ok>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?|pi|[+\-*/()])|,|\S"
)
# `name(params) args`: the parameters run to the last ')', as arguments never contain one
_GATE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?(.*)", re.S)
_ARG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\[(\d+)\])?$")
_DECL_RE = re.compile(r"^(qreg|creg)\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]$")
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
    return "\n".join(l.split("//", 1)[0] for l in source.splitlines())


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

    def resolve(arg: str, regs: dict[str, tuple[int, int]], what: str, line: int) -> list[int]:
        m = _ARG_RE.match(arg.strip())
        if not m:
            raise QasmError(f"bad {what} argument {arg.strip()!r}", line)
        reg, idx = m.group(1), m.group(2)
        if reg not in regs:
            raise QasmError(f"undeclared {what} register {reg!r}", line)
        offset, size = regs[reg]
        if idx is None:
            return [offset + i for i in range(size)]
        i = int(idx)
        if i >= size:
            raise QasmError(f"index {i} out of range for {reg}[{size}]", line)
        return [offset + i]

    seen = 0  # statements read so far
    next_line = 1  # the line on which the next segment starts
    for segment in body.split(";"):
        stmt = segment.strip()
        if not stmt:
            next_line += segment.count("\n")
            continue
        # a statement's line is the line of its first non-blank character
        line = next_line + segment.count("\n", 0, segment.find(stmt[0]))
        next_line += segment.count("\n")
        seen += 1
        if seen <= 2:
            if seen == 1 and not re.match(r"^OPENQASM\s+2\.0$", stmt):
                raise QasmError("expected 'OPENQASM 2.0;' header", line)
            if seen == 1 or re.match(r"^include\s+\"qelib1\.inc\"$", stmt):
                continue

        m = _DECL_RE.match(stmt)
        if m:
            which, reg, size = m.group(1), m.group(2), int(m.group(3))
            if size < 1:
                raise QasmError(f"register {reg!r} must have positive size", line)
            if reg in qregs or reg in cregs:
                raise QasmError(f"register {reg!r} redeclared", line)
            if which == "qreg":
                qregs[reg] = (num_qubits, size)
                num_qubits += size
            else:
                cregs[reg] = (num_clbits, size)
                num_clbits += size
            continue

        if stmt.startswith("include"):
            raise QasmError(f"unsupported include: {stmt!r}", line)

        if stmt.startswith("measure"):
            m = re.match(r"^measure\s+(.+?)\s*->\s*(.+)$", stmt)
            if not m:
                raise QasmError(f"bad measure statement {stmt!r}", line)
            qs = resolve(m.group(1), qregs, "quantum", line)
            cs = resolve(m.group(2), cregs, "classical", line)
            if len(qs) != len(cs):
                raise QasmError("measure arity mismatch between registers", line)
            ops.extend(Instruction(MEASURE, (q,), (), c) for q, c in zip(qs, cs))
            continue

        if stmt == "barrier" or stmt.startswith("barrier ") or stmt.startswith("barrier\t"):
            rest = stmt[len("barrier"):].strip()
            if not rest:
                qs = list(range(num_qubits))
            else:
                qs = []
                for arg in rest.split(","):
                    qs.extend(resolve(arg, qregs, "quantum", line))
            if not qs:
                raise QasmError("barrier on empty register set", line)
            if len(set(qs)) != len(qs):
                raise QasmError("barrier applied to duplicate qubits", line)
            ops.append(Instruction(BARRIER, tuple(qs)))
            continue

        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmError(f"unparseable statement {stmt!r}", line)
        raw_kind, raw_params, raw_args = m.groups()
        unclosed = raw_params is None and raw_args.startswith("(")
        if raw_params and "(" in raw_params:
            # a ')' too many ends the list early; without one, a '(' left open never closes
            depths = list(accumulate(map(_PAREN_STEP.get, raw_params, repeat(0)), initial=0))
            unclosed = min(depths) == 0 < depths[-1]
        if unclosed:
            raise QasmError(f"unbalanced parentheses in {stmt!r}", line)
        kind = _ALIASES.get(raw_kind, raw_kind)
        if kind not in GATE_SIGNATURES:
            raise QasmError(f"unknown gate {raw_kind!r}", line)
        arity, nparams = GATE_SIGNATURES[kind]
        params: tuple[float, ...] = ()
        if raw_params is not None:
            params, end = _eval_angles(raw_params, line)
            if end < len(raw_params):  # the rest of a list closed early joins the arguments
                raw_args = raw_params[end + 1:] + ")" + raw_args
        if len(params) != nparams:
            raise QasmError(f"{raw_kind} expects {nparams} parameter(s), got {len(params)}", line)
        args = [a for a in raw_args.split(",") if a.strip()]
        if len(args) != arity:
            raise QasmError(f"{raw_kind} expects {arity} argument(s), got {len(args)}", line)
        if arity == 1:
            # whole-register form broadcasts a single-qubit gate
            ops.extend(Instruction(kind, (q,), params) for q in resolve(args[0], qregs, "quantum", line))
            continue
        qs = tuple(q for a in args for q in resolve(a, qregs, "quantum", line))
        if len(qs) != arity:
            raise QasmError("register broadcast is only supported for single-qubit gates", line)
        if len(set(qs)) != arity:
            raise QasmError(f"{raw_kind} applied to duplicate qubits", line)
        ops.append(Instruction(kind, qs, params))

    if not seen:
        raise QasmError("expected 'OPENQASM 2.0;' header", 1)
    if num_qubits == 0:
        raise QasmError("no qreg declared", 1)
    circuit = Circuit(num_qubits, num_clbits, tuple(ops), name)
    validate(circuit)
    return circuit


def to_qasm(circuit: Circuit) -> str:
    """Emit normalized OpenQASM 2.0: flattened registers named q and c.

    Each distinct qubit tuple is formatted once per call."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.num_qubits}];"]
    if circuit.num_clbits:
        lines.append(f"creg c[{circuit.num_clbits}];")
    append = lines.append
    args: dict[tuple[int, ...], str] = {}  # qubit tuple -> "q[a],q[b]"
    for kind, qubits, params, clbit in circuit.ops:
        if kind == MEASURE:
            append(f"measure q[{qubits[0]}] -> c[{clbit}];")
            continue
        text = args.get(qubits)
        if text is None:
            text = args[qubits] = ",".join([f"q[{q}]" for q in qubits])
        if kind == BARRIER:
            append(f"barrier {text};")
        elif params:
            append(f"{kind}({','.join(map(repr, params))}) {text};")
        else:
            append(f"{kind} {text};")
    return "\n".join(lines) + "\n"
