import numpy as np
import pytest

from qcpredict.circuit import (
    CANONICAL_GATES,
    GATE_SIGNATURES,
    Circuit,
    barrier,
    circuit_depth,
    gate,
    interaction_graph,
    measure,
)
from qcpredict.features import (
    COMPOSITE_NAMES,
    FeatureSchema,
    apply_standardize,
    extract_features,
    full_schema,
    project_columns,
    prune_constant_features,
    standardize,
)
from qcpredict.generators import FAMILIES, generate_corpus, random_circuit


def _ghz3():
    ops = [gate("h", (0,)), gate("cx", (0, 1)), gate("cx", (1, 2))]
    ops += [measure(i, i) for i in range(3)]
    return Circuit(3, 3, tuple(ops), "ghz3")


def _named(circuit):
    """``extract_features`` of the circuit, keyed by feature name."""
    return dict(zip(full_schema().names, extract_features(circuit)))


def test_schema_layout():
    schema = full_schema()
    assert len(schema.names) == 38
    assert schema.names[:2] == ("num_qubits", "depth")
    assert schema.names[-5:] == COMPOSITE_NAMES
    assert schema.retained == schema.names
    with pytest.raises(ValueError, match="pruned"):
        FeatureSchema(("a", "b"), pruned=("c",))


def test_program_communication_exact():
    # two edges out of three possible, degree sum 4 over 3*2
    assert _named(_ghz3())["program_communication"] == 4 / 6


def test_program_communication_edges_dedup():
    c = Circuit(3, 0, (gate("cx", (0, 1)), gate("cx", (1, 0)), gate("cz", (0, 1))), "c")
    assert _named(c)["program_communication"] == 2 / 6


def test_program_communication_single_qubit():
    assert _named(Circuit(1, 0, (gate("x", (0,)),), "c"))["program_communication"] == 0.0


def test_critical_depth_all_on_path():
    assert _named(_ghz3())["critical_depth"] == 1.0


def test_critical_depth_off_path():
    # the long chain lives on qubits 0/1; cx(2, 3) hangs off it
    ops = (
        gate("h", (0,)),
        gate("cx", (0, 1)),
        gate("h", (1,)),
        gate("cx", (0, 1)),
        gate("cx", (2, 3)),
    )
    assert _named(Circuit(4, 0, ops, "c"))["critical_depth"] == 2 / 3


def test_critical_depth_no_multi_qubit_gates():
    assert _named(Circuit(2, 0, (gate("h", (0,)),), "c"))["critical_depth"] == 0.0


def test_entanglement_ratio_exact():
    # measures are not gates: 2 of 3 gates are two-qubit
    assert _named(_ghz3())["entanglement_ratio"] == 2 / 3
    assert _named(Circuit(1, 0, (), "c"))["entanglement_ratio"] == 0.0


def test_parallelism_extremes():
    packed = Circuit(2, 0, (gate("x", (0,)), gate("x", (1,))), "c")
    assert _named(packed)["parallelism"] == 1.0
    serial = Circuit(2, 0, (gate("x", (0,)), gate("x", (0,)), gate("x", (0,))), "c")
    assert _named(serial)["parallelism"] == 0.0


def test_liveness_half_busy():
    c = Circuit(2, 0, (gate("h", (0,)),), "c")
    assert _named(c)["liveness"] == 0.5


def test_liveness_counts_measures():
    c = Circuit(1, 1, (gate("h", (0,)), measure(0, 0)), "c")
    assert _named(c)["liveness"] == 1.0


def test_extract_features_ghz3():
    schema = full_schema()
    vec = extract_features(_ghz3())
    lookup = dict(zip(schema.names, vec))
    assert lookup["num_qubits"] == 3.0
    assert lookup["depth"] == 4.0
    assert lookup["count_h"] == 1.0
    assert lookup["count_cx"] == 2.0
    assert lookup["count_x"] == 0.0
    assert lookup["program_communication"] == pytest.approx(4 / 6)
    assert lookup["critical_depth"] == 1.0
    assert lookup["entanglement_ratio"] == pytest.approx(2 / 3)
    assert vec.dtype == np.float64
    assert vec.shape == (38,)


def test_composites_stay_in_unit_interval():
    for seed in range(20):
        c = random_circuit(5, seed=seed)
        vec = extract_features(c)
        lookup = dict(zip(full_schema().names, vec))
        for name in COMPOSITE_NAMES:
            assert 0.0 <= lookup[name] <= 1.0, (seed, name, lookup[name])


def _longest_chains(c):
    """For each op, how many ops the longest dependency chain ending there
    holds, and how many the longest one starting there, from each op's
    predecessors on the qubits it touches."""
    last = {}
    preds = []
    for i, op in enumerate(c.ops):
        preds.append({last[q] for q in op.qubits if q in last})
        for q in op.qubits:
            last[q] = i
    up = []
    for before in preds:
        up.append(1 + max((up[j] for j in before), default=0))
    down = [1] * len(c.ops)
    for i in reversed(range(len(c.ops))):  # down[i] is final once every later op is done
        for j in preds[i]:
            down[j] = max(down[j], down[i] + 1)
    return up, down


def _features_one_by_one(c):
    """The full vector, each feature from its own scan: ``gate_counts``,
    ``circuit_depth``, ``interaction_graph``, the gate list and an explicit
    dependency graph for the longest chains."""
    n = c.num_qubits
    counts = c.gate_counts()
    depth = circuit_depth(c).depth
    gates = list(c.gates())
    multi = [i for i, op in enumerate(c.ops) if op.kind in GATE_SIGNATURES and len(op.qubits) >= 2]
    row = [float(n), float(depth)]
    row += [float(counts.get(kind, 0)) for kind in CANONICAL_GATES]
    row.append(2 * len(interaction_graph(c)) / (n * (n - 1)) if n >= 2 else 0.0)
    if multi:
        up, down = _longest_chains(c)
        row.append(sum(1 for i in multi if up[i] + down[i] - 1 == depth) / len(multi))
    else:
        row.append(0.0)
    row.append(len(multi) / len(gates) if gates else 0.0)
    if n >= 2 and depth > 0:
        row.append(min(1.0, max(0.0, (len(gates) / depth - 1.0) / (n - 1.0))))
    else:
        row.append(0.0)
    busy = sum(len(op.qubits) for op in c.ops)
    row.append(busy / (n * depth) if depth > 0 else 0.0)
    return np.array(row, dtype=np.float64)


def test_extract_features_matches_the_features_computed_one_by_one():
    hand_built = [
        Circuit(3, 2, (), "no_gates"),
        Circuit(3, 2, (measure(0, 0), barrier((0, 2)), measure(2, 1), barrier((1,))), "measures_and_barriers"),
        Circuit(1, 1, (gate("h", (0,)), gate("rz", (0,), (0.5,)), measure(0, 0)), "one_qubit"),
        Circuit(4, 0, (gate("h", (3,)), gate("ccx", (2, 0, 3)), gate("cx", (1, 2))), "ccx"),
        Circuit(3, 0, (gate("cx", (0, 2)), gate("x", (1,)), gate("cz", (2, 0)), gate("cx", (0, 2))), "both_orders"),
    ]
    corpus = generate_corpus(qubit_range=(2, 14), random_variants=3)
    # every family but grover (defined at 2 and 3 qubits only) at wide
    # widths, where qft runs to thousands of ops and labeling spends its time
    wide = [c for n in (27, 64, 127, 130) for c in generate_corpus(qubit_range=(n, n), random_variants=2)]
    assert {c.name.split("_")[0] for c in wide} == set(FAMILIES) - {"grover"}
    for c in hand_built + corpus + wide:
        assert extract_features(c).tobytes() == _features_one_by_one(c).tobytes(), c.name


def test_prune_constant_features():
    schema = FeatureSchema(("a", "b", "c"))
    matrix = np.array([[1.0, 0.0, 2.0], [3.0, 0.0, 0.0]])
    pruned = prune_constant_features(matrix, schema)
    assert pruned.names == schema.names
    assert pruned.pruned == ("b",)
    assert pruned.retained == ("a", "c")


def test_project_columns():
    schema = FeatureSchema(("a", "b", "c"))
    target = FeatureSchema(("a", "b", "c"), pruned=("b",))
    matrix = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    projected = project_columns(matrix, schema, target)
    assert projected.tolist() == [[1.0, 3.0], [4.0, 6.0]]


def test_extract_with_pruned_schema():
    schema = full_schema()
    target = FeatureSchema(schema.names, pruned=("count_id",))
    vec = extract_features(_ghz3(), target)
    assert vec.shape == (37,)


def test_standardize_and_apply():
    rng = np.random.default_rng(3)
    matrix = rng.normal(5.0, 2.0, size=(40, 3))
    matrix[:, 2] = 7.0  # constant column passes through
    scaled, mean, std = standardize(matrix)
    assert np.allclose(scaled[:, :2].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(scaled[:, :2].std(axis=0), 1.0, atol=1e-12)
    assert np.allclose(scaled[:, 2], 7.0 - mean[2])
    again = apply_standardize(matrix, mean, std)
    assert np.array_equal(scaled, again)
