"""Static circuit features: size, depth, per-kind gate counts, and five
composite structure metrics, each normalized into [0, 1].

Degenerate circuits (no gates, single qubit, zero depth) map every composite
to 0 so the vector is total. Measures and barriers count toward depth and
qubit activity but never toward gate counts or the interaction graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .circuit import CANONICAL_GATES, GATE_SIGNATURES, Circuit, DepthSchedule, circuit_depth, interaction_graph

COMPOSITE_NAMES = (
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "liveness",
)
_COUNT_NAMES = tuple(f"count_{kind}" for kind in CANONICAL_GATES)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature names plus the subset pruned as constant-zero."""

    names: tuple[str, ...]
    pruned: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        unknown = set(self.pruned) - set(self.names)
        if unknown:
            raise ValueError(f"pruned names not in schema: {sorted(unknown)}")

    @cached_property
    def retained(self) -> tuple[str, ...]:
        dropped = set(self.pruned)
        return tuple(n for n in self.names if n not in dropped)


@cache
def full_schema() -> FeatureSchema:
    """The schema of ``extract_features``; one shared (immutable) instance."""
    names = ("num_qubits", "depth") + _COUNT_NAMES + COMPOSITE_NAMES
    return FeatureSchema(names)


class _Tally(NamedTuple):
    """What one forward walk over a circuit's ops counts for the features."""

    counts: dict[str, int]  # ops per kind, measure and barrier included
    schedule: DepthSchedule
    edges: int  # undirected interaction-graph edges
    gates: int
    multi: list[int]  # indices of the gates on two or more qubits
    busy: int  # (op, qubit) incidences


def _walk(circuit: Circuit) -> _Tally:
    """Tally in one pass what ``gate_counts``, ``circuit_depth``,
    ``interaction_graph``, ``num_gates`` and a scan for multi-qubit gates
    and qubit incidences give one by one."""
    counts: dict[str, int] = {}
    frontier = [0] * circuit.num_qubits
    layers: list[int] = []
    edges: set[tuple[int, int]] = set()
    multi: list[int] = []
    busy = 0
    for kind, qubits, _, _ in circuit.ops:
        counts[kind] = counts.get(kind, 0) + 1
        if len(qubits) == 1:
            (q,) = qubits
            layer = frontier[q] = frontier[q] + 1
            busy += 1
        else:
            layer = 1 + max([frontier[q] for q in qubits])
            for q in qubits:
                frontier[q] = layer
            busy += len(qubits)
            if kind in GATE_SIGNATURES:
                multi.append(len(layers))
                for i, a in enumerate(qubits):
                    for b in qubits[i + 1:]:
                        edges.add((a, b) if a < b else (b, a))
        layers.append(layer)
    gates = sum([count for kind, count in counts.items() if kind in GATE_SIGNATURES])
    schedule = DepthSchedule(tuple(layers), max(layers, default=0))
    return _Tally(counts, schedule, len(edges), gates, multi, busy)


def _multi_qubit_gates(circuit: Circuit) -> list[int]:
    return [i for i, op in enumerate(circuit.ops) if op.is_gate and len(op.qubits) >= 2]


def program_communication(circuit: Circuit, edges: int | None = None) -> float:
    """Average interaction-graph degree over its maximum n-1. ``edges`` is
    the size of the circuit's interaction graph, when already counted."""
    n = circuit.num_qubits
    if n < 2:
        return 0.0
    degree_sum = 2 * (len(interaction_graph(circuit)) if edges is None else edges)
    return degree_sum / (n * (n - 1))


def critical_depth(
    circuit: Circuit, schedule: DepthSchedule | None = None, multi: list[int] | None = None
) -> float:
    """Fraction of multi-qubit gates lying on a longest dependency path.
    ``schedule`` is the circuit's ``circuit_depth`` and ``multi`` the indices
    of its multi-qubit gates, when already built."""
    ops = circuit.ops
    if multi is None:
        multi = _multi_qubit_gates(circuit)
    if not multi:
        return 0.0

    # the longest chain ending at an op is its ASAP layer, and the longest
    # chain starting there is its ASAP layer in the reversed circuit
    schedule = schedule or circuit_depth(circuit)
    up = schedule.layer_of
    down = circuit_depth(circuit.with_ops(ops[::-1])).layer_of[::-1]
    on_longest = sum(1 for i in multi if up[i] + down[i] - 1 == schedule.depth)
    return on_longest / len(multi)


def entanglement_ratio(circuit: Circuit, gates: int | None = None, multi: list[int] | None = None) -> float:
    """Share of gates acting on more than one qubit. ``gates`` is the gate
    count and ``multi`` the indices of the multi-qubit gates, when known."""
    total = circuit.num_gates() if gates is None else gates
    if total == 0:
        return 0.0
    return len(_multi_qubit_gates(circuit) if multi is None else multi) / total


def parallelism(circuit: Circuit, schedule: DepthSchedule | None = None, gates: int | None = None) -> float:
    """How far the schedule packs gates side by side: (n_g/d - 1)/(n - 1), clamped.
    ``gates`` is the gate count, when known."""
    n = circuit.num_qubits
    depth = (schedule or circuit_depth(circuit)).depth
    if n < 2 or depth == 0:
        return 0.0
    if gates is None:
        gates = circuit.num_gates()
    raw = (gates / depth - 1.0) / (n - 1.0)
    return min(1.0, max(0.0, raw))


def liveness(circuit: Circuit, schedule: DepthSchedule | None = None, busy: int | None = None) -> float:
    """Fraction of qubit-layer cells in which the qubit is busy (measures count).
    ``busy`` is the number of (op, qubit) incidences, when counted."""
    depth = (schedule or circuit_depth(circuit)).depth
    if depth == 0:
        return 0.0
    # ASAP never packs two ops sharing a qubit into one layer, so each
    # (op, qubit) incidence is a distinct busy cell
    active = sum(len(op.qubits) for op in circuit.ops) if busy is None else busy
    return active / (circuit.num_qubits * depth)


def extract_features(circuit: Circuit, schema: FeatureSchema | None = None) -> np.ndarray:
    """Feature vector over the schema's retained names, as float64."""
    if schema is None:
        schema = full_schema()
    counts, schedule, edges, gates, multi, busy = _walk(circuit)
    values = dict(zip(_COUNT_NAMES, [counts.get(kind, 0) for kind in CANONICAL_GATES]))
    values["num_qubits"] = circuit.num_qubits
    values["depth"] = schedule.depth
    values["program_communication"] = program_communication(circuit, edges)
    values["critical_depth"] = critical_depth(circuit, schedule, multi)
    values["entanglement_ratio"] = entanglement_ratio(circuit, gates, multi)
    values["parallelism"] = parallelism(circuit, schedule, gates)
    values["liveness"] = liveness(circuit, schedule, busy)
    return np.array([values[name] for name in schema.retained], dtype=np.float64)


def prune_constant_features(matrix: np.ndarray, schema: FeatureSchema) -> FeatureSchema:
    """Drop columns that are zero on every row of the (training) matrix."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("need a non-empty 2D feature matrix")
    if matrix.shape[1] != len(schema.retained):
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but schema retains {len(schema.retained)}"
        )
    zero = ~np.any(matrix != 0.0, axis=0)
    newly_pruned = tuple(name for name, z in zip(schema.retained, zero) if z)
    return FeatureSchema(schema.names, tuple(schema.pruned) + newly_pruned)


def project_columns(matrix: np.ndarray, schema_from: FeatureSchema, schema_to: FeatureSchema) -> np.ndarray:
    """Reindex a feature matrix from one schema's retained set to another's."""
    index = {name: i for i, name in enumerate(schema_from.retained)}
    try:
        cols = [index[name] for name in schema_to.retained]
    except KeyError as missing:
        raise ValueError(f"feature {missing} absent from the source schema") from None
    return np.asarray(matrix, dtype=np.float64)[:, cols]


def standardize(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scoring; zero-variance columns pass through unscaled."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ValueError("need a non-empty 2D feature matrix")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    safe = np.where(std == 0.0, 1.0, std)
    return (matrix - mean) / safe, mean, safe


def apply_standardize(matrix: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (np.asarray(matrix, dtype=np.float64) - mean) / std
