"""Static circuit features: size, depth, per-kind gate counts, and five
composite structure metrics, each normalized into [0, 1].

With n qubits, depth d (ASAP layers, measures and barriers included), g
gates, m of them on two or more qubits, e interaction-graph edges and b
(op, qubit) incidences, the composites are:

- program communication = 2e / (n(n - 1)), the average interaction degree
  over its maximum n - 1;
- critical depth = the share of the m multi-qubit gates that lie on a
  longest dependency path;
- entanglement ratio = m / g;
- parallelism = (g/d - 1) / (n - 1), clamped to [0, 1];
- liveness = b / (n d), the share of qubit-layer cells where the qubit is
  busy.

One forward walk over the ops tallies every count; one walk over the
reversed ops adds what critical depth needs. Together they give all 38
values. Degenerate circuits (no gates, single qubit, zero depth) map every
composite to 0 so the vector is total. Measures and barriers count toward
depth and qubit activity but never toward gate counts or the interaction
graph.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .circuit import CANONICAL_GATES, GATE_SIGNATURES, Circuit, DepthSchedule, circuit_depth

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


def _critical_depth(circuit: Circuit, schedule: DepthSchedule, multi: list[int]) -> float:
    """Share of the multi-qubit gates at indices ``multi`` on a longest dependency path."""
    if not multi:
        return 0.0
    # the longest chain ending at an op is its ASAP layer, and the longest
    # chain starting there is its ASAP layer in the reversed circuit
    up = schedule.layer_of
    down = circuit_depth(circuit.with_ops(circuit.ops[::-1])).layer_of[::-1]
    on_longest = sum(1 for i in multi if up[i] + down[i] - 1 == schedule.depth)
    return on_longest / len(multi)


def extract_features(circuit: Circuit, schema: FeatureSchema | None = None) -> np.ndarray:
    """Feature vector over the schema's retained names, as float64."""
    if schema is None:
        schema = full_schema()
    counts, schedule, edges, gates, multi, busy = _walk(circuit)
    n, depth = circuit.num_qubits, schedule.depth
    values = dict(zip(_COUNT_NAMES, [counts.get(kind, 0) for kind in CANONICAL_GATES]))
    values["num_qubits"] = n
    values["depth"] = depth
    values["program_communication"] = 2 * edges / (n * (n - 1)) if n >= 2 else 0.0
    values["critical_depth"] = _critical_depth(circuit, schedule, multi)
    values["entanglement_ratio"] = len(multi) / gates if gates else 0.0
    parallel = (gates / depth - 1.0) / (n - 1.0) if n >= 2 and depth else 0.0
    values["parallelism"] = min(1.0, max(0.0, parallel))
    # ASAP never packs two ops sharing a qubit into one layer, so each
    # (op, qubit) incidence is a distinct busy cell
    values["liveness"] = busy / (n * depth) if depth else 0.0
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
