import numpy as np
import pytest

from qcpredict.circuit import CANONICAL_GATES, Circuit, barrier, circuit_depth, gate, measure
from qcpredict.features import (
    COMPOSITE_NAMES,
    FeatureSchema,
    apply_standardize,
    critical_depth,
    entanglement_ratio,
    extract_features,
    full_schema,
    liveness,
    parallelism,
    program_communication,
    project_columns,
    prune_constant_features,
    standardize,
)
from qcpredict.generators import generate_corpus, random_circuit


def _ghz3():
    ops = [gate("h", (0,)), gate("cx", (0, 1)), gate("cx", (1, 2))]
    ops += [measure(i, i) for i in range(3)]
    return Circuit(3, 3, tuple(ops), "ghz3")


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
    assert program_communication(_ghz3()) == 4 / 6


def test_program_communication_edges_dedup():
    c = Circuit(3, 0, (gate("cx", (0, 1)), gate("cx", (1, 0)), gate("cz", (0, 1))), "c")
    assert program_communication(c) == 2 / 6


def test_program_communication_single_qubit():
    assert program_communication(Circuit(1, 0, (gate("x", (0,)),), "c")) == 0.0


def test_critical_depth_all_on_path():
    assert critical_depth(_ghz3()) == 1.0


def test_critical_depth_off_path():
    # the long chain lives on qubits 0/1; cx(2, 3) hangs off it
    ops = (
        gate("h", (0,)),
        gate("cx", (0, 1)),
        gate("h", (1,)),
        gate("cx", (0, 1)),
        gate("cx", (2, 3)),
    )
    assert critical_depth(Circuit(4, 0, ops, "c")) == 2 / 3


def test_critical_depth_no_multi_qubit_gates():
    assert critical_depth(Circuit(2, 0, (gate("h", (0,)),), "c")) == 0.0


def test_entanglement_ratio_exact():
    # measures are not gates: 2 of 3 gates are two-qubit
    assert entanglement_ratio(_ghz3()) == 2 / 3
    assert entanglement_ratio(Circuit(1, 0, (), "c")) == 0.0


def test_parallelism_extremes():
    packed = Circuit(2, 0, (gate("x", (0,)), gate("x", (1,))), "c")
    assert parallelism(packed) == 1.0
    serial = Circuit(2, 0, (gate("x", (0,)), gate("x", (0,)), gate("x", (0,))), "c")
    assert parallelism(serial) == 0.0


def test_liveness_half_busy():
    c = Circuit(2, 0, (gate("h", (0,)),), "c")
    assert liveness(c) == 0.5


def test_liveness_counts_measures():
    c = Circuit(1, 1, (gate("h", (0,)), measure(0, 0)), "c")
    assert liveness(c) == 1.0


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


def _features_one_by_one(c):
    """The full vector from ``gate_counts``, ``circuit_depth`` and each
    composite called on its own, as ``extract_features`` assembled it when
    every feature had its own scan."""
    counts = c.gate_counts()
    row = [float(c.num_qubits), float(circuit_depth(c).depth)]
    row += [float(counts.get(kind, 0)) for kind in CANONICAL_GATES]
    row += [program_communication(c), critical_depth(c), entanglement_ratio(c), parallelism(c), liveness(c)]
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
    for c in hand_built + corpus:
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
