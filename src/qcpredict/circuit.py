"""Circuit intermediate representation.

A circuit is an immutable sequence of instructions over fixed-size qubit and
classical registers. Gate kinds are lowercase strings drawn from a fixed
vocabulary; each kind has a fixed qubit arity and parameter count.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple


class CircuitError(ValueError):
    """Malformed instruction or circuit."""


# kind -> (qubit arity, parameter count)
GATE_SIGNATURES: dict[str, tuple[int, int]] = {
    # single qubit, no parameters
    "id": (1, 0),
    "x": (1, 0),
    "y": (1, 0),
    "z": (1, 0),
    "h": (1, 0),
    "s": (1, 0),
    "sdg": (1, 0),
    "t": (1, 0),
    "tdg": (1, 0),
    "sx": (1, 0),
    "sxdg": (1, 0),
    # single qubit, parameterised
    "rx": (1, 1),
    "ry": (1, 1),
    "rz": (1, 1),
    "u1": (1, 1),
    "u2": (1, 2),
    "u3": (1, 3),
    # two qubit
    "cx": (2, 0),
    "cy": (2, 0),
    "cz": (2, 0),
    "ch": (2, 0),
    "swap": (2, 0),
    "crx": (2, 1),
    "cry": (2, 1),
    "crz": (2, 1),
    "cp": (2, 1),
    "cu3": (2, 3),
    "rxx": (2, 1),
    "rzz": (2, 1),
    # three qubit
    "ccx": (3, 0),
    "cswap": (3, 0),
}

# Stable ordering used wherever per-kind counts become a vector.
CANONICAL_GATES: tuple[str, ...] = tuple(GATE_SIGNATURES)

MEASURE = "measure"
BARRIER = "barrier"


class Instruction(NamedTuple):
    """One operation: a gate, a measurement, or a barrier.

    Measurements carry the classical target in ``clbit``; gates and barriers
    leave it as None. Barriers may span any number of qubits.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    clbit: int | None = None

    @property
    def is_gate(self) -> bool:
        return self.kind in GATE_SIGNATURES


# builds an Instruction from its four fields at half the cost of the
# NamedTuple constructor, which generation, parsing, routing and lowering call
# once per op they emit; the one copy that compiler.py and qasm.py import
_new_tuple = tuple.__new__


def gate(kind: str, qubits: tuple[int, ...] | list[int], params: tuple[float, ...] | list[float] = ()) -> Instruction:
    """Build a gate instruction, checking it against the vocabulary.

    Refuses an unknown kind, the wrong qubit count, the wrong parameter count
    and, on a multi-qubit gate, a repeated qubit, each as a CircuitError; a
    parameter ``float()`` cannot convert raises what ``float()`` raises.
    Register bounds are left to ``validate``. Past the checks, the
    instruction costs one tuple.
    """
    sig = GATE_SIGNATURES.get(kind)
    if sig is None:
        raise CircuitError(f"unknown gate kind {kind!r}")
    arity, nparams = sig
    qubits = tuple(qubits)
    params = tuple(map(float, params))
    if len(qubits) != arity:
        raise CircuitError(f"{kind} expects {arity} qubit(s), got {len(qubits)}")
    if len(params) != nparams:
        raise CircuitError(f"{kind} expects {nparams} parameter(s), got {len(params)}")
    if arity > 1 and len(set(qubits)) != arity:
        raise CircuitError(f"{kind} applied to duplicate qubits {qubits}")
    return _new_tuple(Instruction, (kind, qubits, params, None))


def measure(qubit: int, clbit: int) -> Instruction:
    return _new_tuple(Instruction, (MEASURE, (qubit,), (), clbit))


def barrier(qubits: tuple[int, ...] | list[int]) -> Instruction:
    qubits = tuple(qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise CircuitError(f"barrier needs distinct qubits, got {qubits}")
    return Instruction(BARRIER, qubits)


@dataclass(frozen=True)
class Circuit:
    """Immutable circuit over ``num_qubits`` qubits and ``num_clbits`` bits."""

    num_qubits: int
    num_clbits: int = 0
    ops: tuple[Instruction, ...] = ()
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise CircuitError("circuit needs at least one qubit")
        if self.num_clbits < 0:
            raise CircuitError("negative classical register size")

    def gates(self) -> Iterator[Instruction]:
        """Gate instructions only, in program order."""
        for op in self.ops:
            if op.kind in GATE_SIGNATURES:
                yield op

    def gate_counts(self) -> dict[str, int]:
        """Occurrences per instruction kind, measure and barrier included."""
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def num_gates(self) -> int:
        return sum(1 for _ in self.gates())

    def with_ops(self, ops: tuple[Instruction, ...]) -> Circuit:
        return Circuit(self.num_qubits, self.num_clbits, ops, self.name)


@dataclass(frozen=True)
class DepthSchedule:
    """ASAP layering of a circuit's instructions.

    ``layer_of[i]`` is the 1-based layer of ``ops[i]``; ``depth`` is the max
    layer (0 for an empty circuit). Measurements and barriers occupy layers.
    """

    layer_of: tuple[int, ...]
    depth: int


def circuit_depth(circuit: Circuit) -> DepthSchedule:
    """Schedule each instruction one layer after its latest qubit predecessor."""
    frontier = [0] * circuit.num_qubits
    layers: list[int] = []
    for op in circuit.ops:
        qubits = op.qubits
        if len(qubits) == 1:  # same layer as the general branch, without a comprehension per op
            (q,) = qubits
            layer = frontier[q] = frontier[q] + 1
        else:
            layer = 1 + max([frontier[q] for q in qubits])
            for q in qubits:
                frontier[q] = layer
        layers.append(layer)
    return DepthSchedule(tuple(layers), max(layers, default=0))


def interaction_counts(circuit: Circuit) -> dict[tuple[int, int], int]:
    """Gates per undirected qubit pair, keyed (low, high). Each multi-qubit
    gate counts once for every pair of its qubits; measures and barriers do
    not count."""
    counts: dict[tuple[int, int], int] = {}
    for op in circuit.gates():
        if len(op.qubits) < 2:
            continue
        qs = op.qubits
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                a, b = qs[i], qs[j]
                e = (a, b) if a < b else (b, a)
                counts[e] = counts.get(e, 0) + 1
    return counts


def interaction_graph(circuit: Circuit) -> set[tuple[int, int]]:
    """Undirected qubit-interaction edges as (low, high) tuples."""
    return set(interaction_counts(circuit))


def validate(circuit: Circuit) -> None:
    """Check every instruction against the vocabulary and register bounds.

    Construction stays cheap so transformation passes can emit instructions
    freely; this is the full check applied at trust boundaries (parsing,
    generation, tests).
    """
    for i, op in enumerate(circuit.ops):
        if op.kind in GATE_SIGNATURES:
            arity, nparams = GATE_SIGNATURES[op.kind]
            if len(op.qubits) != arity:
                raise CircuitError(f"op {i}: {op.kind} expects {arity} qubit(s), got {len(op.qubits)}")
            if len(op.params) != nparams:
                raise CircuitError(f"op {i}: {op.kind} expects {nparams} parameter(s), got {len(op.params)}")
            if op.clbit is not None:
                raise CircuitError(f"op {i}: gate carries a classical bit")
        elif op.kind == MEASURE:
            if len(op.qubits) != 1 or op.params:
                raise CircuitError(f"op {i}: malformed measure")
            if op.clbit is None or not 0 <= op.clbit < circuit.num_clbits:
                raise CircuitError(f"op {i}: measure target {op.clbit} outside classical register")
        elif op.kind == BARRIER:
            if op.params or op.clbit is not None or not op.qubits:
                raise CircuitError(f"op {i}: malformed barrier")
        else:
            raise CircuitError(f"op {i}: unknown kind {op.kind!r}")
        if len(set(op.qubits)) != len(op.qubits):
            raise CircuitError(f"op {i}: duplicate qubits {op.qubits}")
        for q in op.qubits:
            if not 0 <= q < circuit.num_qubits:
                raise CircuitError(f"op {i}: qubit {q} outside register of size {circuit.num_qubits}")
