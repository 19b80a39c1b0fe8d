"""Static circuit features: size, depth, per-kind gate counts, and five
composite structure metrics, each normalized into [0, 1].

Degenerate circuits (no gates, single qubit, zero depth) map every composite
to 0 so the vector is total. Measures and barriers count toward depth and
qubit activity but never toward gate counts or the interaction graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .circuit import CANONICAL_GATES, Circuit, DepthSchedule, circuit_depth, interaction_graph

COMPOSITE_NAMES = (
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "liveness",
)


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
    names = ("num_qubits", "depth") + tuple(f"count_{g}" for g in CANONICAL_GATES) + COMPOSITE_NAMES
    return FeatureSchema(names)


def program_communication(circuit: Circuit) -> float:
    """Average interaction-graph degree over its maximum n-1."""
    n = circuit.num_qubits
    if n < 2:
        return 0.0
    degree_sum = 2 * len(interaction_graph(circuit))
    return degree_sum / (n * (n - 1))


def critical_depth(circuit: Circuit, schedule: DepthSchedule | None = None) -> float:
    """Fraction of multi-qubit gates lying on a longest dependency path.
    ``schedule`` is the circuit's ``circuit_depth``, when already built."""
    ops = circuit.ops
    multi = [i for i, op in enumerate(ops) if op.is_gate and len(op.qubits) >= 2]
    if not multi:
        return 0.0

    # the longest chain ending at an op is its ASAP layer, and the longest
    # chain starting there is its ASAP layer in the reversed circuit
    schedule = schedule or circuit_depth(circuit)
    up = schedule.layer_of
    down = circuit_depth(circuit.with_ops(ops[::-1])).layer_of[::-1]
    on_longest = sum(1 for i in multi if up[i] + down[i] - 1 == schedule.depth)
    return on_longest / len(multi)


def entanglement_ratio(circuit: Circuit) -> float:
    """Share of gates acting on more than one qubit."""
    total = 0
    multi = 0
    for op in circuit.gates():
        total += 1
        if len(op.qubits) >= 2:
            multi += 1
    if total == 0:
        return 0.0
    return multi / total


def parallelism(circuit: Circuit, schedule: DepthSchedule | None = None) -> float:
    """How far the schedule packs gates side by side: (n_g/d - 1)/(n - 1), clamped."""
    n = circuit.num_qubits
    depth = (schedule or circuit_depth(circuit)).depth
    if n < 2 or depth == 0:
        return 0.0
    gates = circuit.num_gates()
    raw = (gates / depth - 1.0) / (n - 1.0)
    return min(1.0, max(0.0, raw))


def liveness(circuit: Circuit, schedule: DepthSchedule | None = None) -> float:
    """Fraction of qubit-layer cells in which the qubit is busy (measures count)."""
    depth = (schedule or circuit_depth(circuit)).depth
    if depth == 0:
        return 0.0
    # ASAP never packs two ops sharing a qubit into one layer, so each
    # (op, qubit) incidence is a distinct busy cell
    active = sum(len(op.qubits) for op in circuit.ops)
    return active / (circuit.num_qubits * depth)


def extract_features(circuit: Circuit, schema: FeatureSchema | None = None) -> np.ndarray:
    """Feature vector over the schema's retained names, as float64."""
    if schema is None:
        schema = full_schema()
    counts = circuit.gate_counts()
    schedule = circuit_depth(circuit)
    values = {
        "num_qubits": float(circuit.num_qubits),
        "depth": float(schedule.depth),
        "program_communication": program_communication(circuit),
        "critical_depth": critical_depth(circuit, schedule),
        "entanglement_ratio": entanglement_ratio(circuit),
        "parallelism": parallelism(circuit, schedule),
        "liveness": liveness(circuit, schedule),
    }
    for kind in CANONICAL_GATES:
        values[f"count_{kind}"] = float(counts.get(kind, 0))
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
