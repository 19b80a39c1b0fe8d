"""End-to-end acceptance checks for the full prediction pipeline.

Each test states one external guarantee of the package: compilation
correctness over the whole option space, exact feature and scoring oracles,
classifier behavior on separable data, desk-scale end-to-end quality,
prediction speedup, byte-level determinism, and model persistence.
"""
import filecmp
import json
from pathlib import Path

import numpy as np
import pytest

from qcpredict.circuit import Circuit, gate
from qcpredict.cli import main
from qcpredict.compiler import CompiledResult, compile_circuit, is_device_legal, parse_option
from qcpredict.features import (
    COMPOSITE_NAMES,
    FeatureSchema,
    extract_features,
    full_schema,
)
from qcpredict.generators import dj, generate_corpus, ghz, random_circuit
from qcpredict.ml import (
    feature_importance,
    fit_forest,
    load_model,
    predict_many,
    save_model,
)
from qcpredict.pipeline import (
    DEFAULT_FOREST_PARAMS,
    EXTERNAL_REFERENCE,
    build_report,
    evaluate,
    label_dataset,
    majority_baseline,
    runtime_compare,
    split,
    train_model,
)
from qcpredict.scoring import evaluate_score, rank_options
from qcpredict.simulator import check_equivalence


@pytest.fixture(scope="module")
def desk(options, fleet):
    """Desk-scale run shared by the end-to-end and runtime tests: 524 circuits
    at 2..30 qubits, brute-force labels, 70/30 split, 500-tree forest."""
    corpus = generate_corpus(qubit_range=(2, 30), random_variants=9, seed=0)
    assert len(corpus) >= 500
    samples, excluded = label_dataset(corpus, options, fleet)
    train_set, test_set = split(samples, 0.3, seed=0)
    model = train_model(
        train_set, options, seed=0,
        params={"n_trees": 500, "max_depth": 20, "min_samples_leaf": 2},
    )
    return {
        "corpus": corpus,
        "samples": samples,
        "excluded": excluded,
        "train": train_set,
        "test": test_set,
        "model": model,
        "params": {k: getattr(model, k) for k in DEFAULT_FOREST_PARAMS},
    }


@pytest.fixture(scope="module")
def separable():
    """Synthetic 10-feature data where features 2 and 7 fully determine the
    label, with a margin around each decision boundary."""
    rng = np.random.default_rng(7)
    X = rng.uniform(size=(1000, 10))
    for col in (2, 7):
        v = X[:, col]
        lo = (v > 0.47) & (v <= 0.5)
        hi = (v > 0.5) & (v < 0.53)
        v[lo] -= 0.03
        v[hi] += 0.03
    y = (X[:, 2] > 0.5).astype(np.int64) + 2 * (X[:, 7] > 0.5).astype(np.int64)
    schema = FeatureSchema(tuple(f"f{i}" for i in range(10)))
    labels = ("c0", "c1", "c2", "c3")
    model = fit_forest(
        X[:700], y[:700], schema, labels,
        n_trees=500, max_depth=20, min_samples_leaf=2, seed=11,
    )
    return {"X": X, "y": y, "model": model}


def test_compilation_correctness_all_options_all_small_circuits(fleet, options):
    """Every option on >= 200 small circuits: device-legal output, equivalent
    to the source under the final layout at 1e-8."""
    corpus = generate_corpus(qubit_range=(2, 6), random_variants=31, seed=0)
    assert len(corpus) >= 200
    checked = 0
    for circuit in corpus:
        for option in options:
            result = compile_circuit(circuit, option, fleet)
            legal, reason = is_device_legal(result.circuit, fleet[option.device_id])
            assert legal, f"{circuit.name} via {option.option_id}: {reason}"
            assert check_equivalence(circuit, result.circuit, result.layout, atol=1e-8), (
                f"{circuit.name} via {option.option_id} changed the state"
            )
            checked += 1
    assert checked == len(corpus) * 30


def test_feature_oracles_exact_values_and_unit_bounds():
    """GHZ(3) feature values match hand-derived ratios exactly; every
    composite metric stays inside [0, 1] on 1000 random circuits."""
    schema = full_schema()
    ghz3 = dict(zip(schema.names, extract_features(ghz(3))))
    assert ghz3["program_communication"] == 4 / 6
    assert ghz3["critical_depth"] == 1.0
    assert ghz3["entanglement_ratio"] == 2 / 3

    composite_index = [schema.names.index(n) for n in COMPOSITE_NAMES]
    count = 0
    for n in range(2, 12):
        for variant in range(100):
            c = random_circuit(n, seed=variant, variant=variant)
            vec = extract_features(c, schema)
            for i in composite_index:
                assert 0.0 <= vec[i] <= 1.0, (c.name, schema.names[i], vec[i])
            count += 1
    assert count == 1000


def test_scoring_oracles_products_and_feasibility(fleet, options):
    """Empty circuit scores 1.0; log-space product matches direct
    multiplication to 1e-12; infeasible is exactly 0.0; a 50-qubit circuit
    leaves exactly the 12 options on the two largest devices."""
    dev8 = fleet["dev8"]
    empty = CompiledResult(Circuit(8, 0, (), "empty"), {i: i for i in range(8)})
    assert evaluate_score(empty, dev8).value == 1.0

    ops = (gate("x", (0,)), gate("x", (1,)), gate("cx", (0, 1)))
    three = CompiledResult(Circuit(8, 0, ops, "three"), {i: i for i in range(8)})
    direct = (
        dev8.calib.gate_fidelity[("x", (0,))]
        * dev8.calib.gate_fidelity[("x", (1,))]
        * dev8.calib.gate_fidelity[("cx", (0, 1))]
    )
    assert abs(evaluate_score(three, dev8).value - direct) <= 1e-12

    values = rank_options(ghz(50), options, fleet)
    feasible = [o for o, v in zip(options, values) if v > 0.0]
    assert len(feasible) == 12
    assert {o.device_id for o in feasible} == {"dev80", "dev127"}
    assert all(v == 0.0 for o, v in zip(options, values) if o not in feasible)


def test_forest_perfect_on_separable_data_with_concentrated_importance(separable):
    """The reference hyperparameters (500 trees, depth 20, min leaf 2) reach
    100% held-out accuracy on margin-separated data, and the two informative
    features carry > 85% of the importance mass, which sums to 1 +- 1e-9."""
    X, y, model = separable["X"], separable["y"], separable["model"]
    held_out = predict_many(model, X[700:])
    accuracy = float(np.mean(held_out == y[700:]))
    assert accuracy == 1.0

    mean, _, degenerate = feature_importance(model)
    assert not degenerate
    assert abs(mean.sum() - 1.0) <= 1e-9
    assert mean[2] + mean[7] > 0.85


def test_end_to_end_desk_scale_beats_majority_baseline(desk, options):
    """Desk-scale reproduction: the forest beats the majority-class baseline,
    accuracy <= top3, and top3 >= 0.5. Externally reported headline numbers
    are recorded in the report payload but never asserted."""
    assert desk["excluded"] == []
    report = evaluate(desk["model"], desk["test"], options)
    majority_label, majority_accuracy = majority_baseline(desk["train"], desk["test"], options)

    assert report.accuracy > majority_accuracy, (report.accuracy, majority_label, majority_accuracy)
    assert report.accuracy <= report.top3
    assert report.top3 >= 0.5
    assert 1 <= report.worst_rank <= len(options)

    payload = build_report(
        report, options, desk["train"], desk["test"], {"classifier": "forest", **desk["params"]}, seed=0
    )
    assert payload["majority_baseline_accuracy"] == majority_accuracy
    assert payload["external_reference"] == EXTERNAL_REFERENCE
    assert payload["external_reference"]["accuracy"] == 0.75
    assert payload["external_reference"]["top3"] == 0.90
    assert payload["external_reference"]["worst_rank"] == 12
    assert "not asserted" in payload["external_reference"]["note"]


def test_predicting_beats_brute_force_by_factor_five(desk, options, fleet):
    """Predict-then-compile-once runs at least 5x faster than sweeping all 30
    options on a 7-qubit Deutsch-Jozsa circuit. Best of three runs to shield
    against scheduler noise. Each ratio divides two times taken one after
    the other, so a host that runs slow for a while slows both alike; the
    best separate times, min(brute) / min(fast), would take them from
    different runs, and that ratio is never above the best per-run ratio.
    Over 20 runs of this test, each in a fresh process, on a 2-core shared
    x86 host the ratio read a median of 5.4x (quartiles 4.9x and 5.7x,
    lowest 4.3x) and fell below 5.0 in 6 runs. In its fastest runs the
    sweep takes about 3.5 ms and predict-then-compile about 0.7 ms, of
    which compiling is most, so a faster compiler shrinks the sweep more
    than the prediction path. The bound has little slack."""
    circuit = dj(7, variant=1, seed=0)
    best_ratio = 0.0
    for _ in range(3):
        result = runtime_compare(circuit, desk["model"], options, fleet)
        assert result["predicted_option"] in {o.option_id for o in options}
        ratio = result["brute_force_seconds"] / result["predict_and_compile_seconds"]
        best_ratio = max(best_ratio, ratio)
    assert best_ratio >= 5.0, f"speedup only {best_ratio:.2f}x"


def test_pipeline_reruns_are_byte_identical(tmp_path):
    """generate -> label -> train -> evaluate twice with one seed: every
    output file byte-identical, model predictions identical."""
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for d in dirs:
        assert main([
            "generate", "--out", str(d), "--qubits", "2..8", "--random-variants", "3", "--seed", "0",
        ]) == 0
        assert main(["label", "--corpus", str(d)]) == 0
        assert main([
            "train", "--data", str(d), "--seed", "0",
            "--n-trees", "120", "--max-depth", "20", "--min-samples-leaf", "2",
        ]) == 0
        assert main(["evaluate", "--data", str(d)]) == 0

    a, b = dirs
    names = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()) == names
    assert any(str(n) == "model.bin" for n in names)
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), f"{name} differs between reruns"

    model_a = load_model(a / "model.bin")
    model_b = load_model(b / "model.bin")
    rng = np.random.default_rng(0)
    probes = rng.uniform(0.0, 30.0, size=(200, len(model_a.schema.retained)))
    assert np.array_equal(predict_many(model_a, probes), predict_many(model_b, probes))


def test_saved_model_reproduces_predictions_exactly(separable, tmp_path):
    """Save/load round trip: predictions on 1000 random feature vectors are
    bit-for-bit identical to the in-memory model's."""
    model = separable["model"]
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(123)
    probes = rng.uniform(size=(1000, 10))
    assert np.array_equal(predict_many(loaded, probes), predict_many(model, probes))
    assert loaded == model
