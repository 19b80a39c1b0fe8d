import dataclasses
import gc
import hashlib
import itertools
import json
import re
import time
import weakref

import numpy as np
import pytest

from qcpredict import pipeline
from qcpredict.circuit import Circuit, gate
from qcpredict.cli import main
from qcpredict.compiler import enumerate_options, parse_option
from qcpredict.devices import Calibration, DeviceModel, builtin_devices, write_device
from qcpredict.features import full_schema
from qcpredict.generators import FAMILIES, generate_corpus, ghz, qft
from qcpredict.ml import fit_forest
from qcpredict.pipeline import (
    DEFAULT_FOREST_PARAMS,
    FIG4_FILE,
    FIG5_FILE,
    FIG6_FILE,
    REPORT_FILE,
    EvalReport,
    LabeledSample,
    PipelineError,
    build_report,
    evaluate,
    evaluate_baseline,
    export_dot_graph,
    json_text,
    label_dataset,
    load_labeled_dataset,
    majority_baseline,
    rank_histogram,
    read_corpus,
    runtime_compare,
    split,
    train_model,
    write_corpus,
    write_evaluation,
    write_features_csv,
    write_labels_csv,
    write_text,
)
from qcpredict.qasm import to_qasm
from qcpredict.scoring import rank_options, ranks_from_values


@pytest.fixture(scope="module")
def small_corpus():
    return generate_corpus(families=("ghz", "dj", "qft"), qubit_range=(2, 6), seed=0)


@pytest.fixture(scope="module")
def labeled(small_corpus, options, fleet):
    samples, excluded = label_dataset(small_corpus, options, fleet)
    assert excluded == []
    return samples


_OPTION_IDS = tuple(opt.option_id for opt in enumerate_options(builtin_devices()))


def _fake_sample(name, qubits, label, scores):
    """A sample of ``qubits`` qubits (the first feature); ``label`` must be
    the option its scores rank first."""
    features = (float(qubits),) + tuple(float(i) for i in range(1, len(full_schema().names)))
    sample = LabeledSample(name=name, features=features, scores=tuple(scores))
    assert sample.num_qubits == qubits
    assert _OPTION_IDS[sample.best] == label, (name, label, _OPTION_IDS[sample.best])
    return sample


# ---------------------------------------------------------------------------
# labeling


def test_labels_agree_with_brute_force(labeled, small_corpus, options, fleet):
    by_name = {s.name: s for s in labeled}
    for c in small_corpus[:5]:
        values = rank_options(c, options, fleet)
        s = by_name[c.name]
        assert s.scores == values
        assert s.ranks == ranks_from_values(values)
        assert s.best == values.index(max(values))  # the first of the best scores
        assert s.num_qubits == c.num_qubits
        assert len(s.features) == len(full_schema().names)
    assert [f.name for f in dataclasses.fields(LabeledSample)] == ["name", "features", "scores"]


def test_label_is_rank_one(labeled):
    for s in labeled:
        assert s.ranks[s.best] == 1
        assert s.scores[s.best] == max(s.scores)


def test_oversized_circuits_are_excluded(options, fleet):
    circuits = [ghz(3), ghz(128)]
    samples, excluded = label_dataset(circuits, options, fleet)
    assert [s.name for s in samples] == ["ghz_003"]
    assert len(excluded) == 1
    assert excluded[0][0] == "ghz_128"
    assert "infeasible" in excluded[0][1]


def _lossy_device(cx_fidelity):
    """Three all-to-all qubits with a very poor cx: products of a few cx leave
    the normal float range."""
    pairs = frozenset((a, b) for a in range(3) for b in range(3) if a != b)
    gate_fid = {(kind, (q,)): 0.999 for kind in ("rz", "sx", "x") for q in range(3)}
    gate_fid.update({("cx", pair): cx_fidelity for pair in pairs})
    return DeviceModel(
        "lossy3", "superconducting", 3, pairs, frozenset({"rz", "sx", "x", "cx", "measure"}),
        Calibration(gate_fid, {q: 0.97 for q in range(3)}),
    )


@pytest.mark.parametrize("cx_fidelity", [1e-200, 1e-155])
def test_underflowing_circuits_are_excluded_with_their_reason(cx_fidelity, tmp_path, capfd):
    # ghz(2) has one cx and still scores a normal float; ghz(3) has two, whose
    # product underflows to 0.0 (1e-200) or to a subnormal (1e-155); ghz(4)
    # is wider than the device
    device = _lossy_device(cx_fidelity)
    options = enumerate_options([device])
    samples, excluded = label_dataset([ghz(2), ghz(3), ghz(4)], options, {device.id: device})
    assert [s.name for s in samples] == ["ghz_002"]
    assert [name for name, _ in excluded] == ["ghz_003", "ghz_004"]
    assert "underflow" in excluded[0][1]
    assert "wider than every device" in excluded[1][1]

    # `label` names both reasons when nothing is left to label
    corpus, devdir = tmp_path / "corpus", tmp_path / "devices"
    write_corpus(corpus, [ghz(3), ghz(4)])
    devdir.mkdir()
    write_device(device, devdir / "lossy3.yaml")
    assert main(["label", "--corpus", str(corpus), "--devices", str(devdir)]) == 1
    err = capfd.readouterr().err
    assert "wider than every device" in err and "underflow" in err


def test_labels_do_not_read_the_clock(options, fleet, tmp_path, monkeypatch):
    qasm = tmp_path / "qft_004.qasm"
    qasm.write_text(to_qasm(qft(4)), encoding="utf-8")

    def run(tag):
        labels = label_dataset([ghz(3), qft(4)], options, fleet)
        out = tmp_path / f"{tag}.csv"
        assert main(["compile", str(qasm), "--all", "--out", str(out)]) == 0
        return labels, out.read_bytes()

    steady = run("steady")
    ticks = itertools.count()
    with monkeypatch.context() as m:
        # a clock that leaps a minute per reading: any wall-clock limit would trip
        m.setattr(time, "perf_counter", lambda: 60.0 * next(ticks))
        leaping = run("leaping")
    assert leaping == steady
    (samples, excluded), _ = steady
    assert [s.name for s in samples] == ["ghz_003", "qft_004"] and excluded == []


def test_label_dataset_rejects_duplicates_and_anonymous(options, fleet):
    with pytest.raises(PipelineError, match="duplicate"):
        label_dataset([ghz(3), ghz(3)], options, fleet)
    anon = Circuit(2, 0, (gate("x", (0,)),), name="")
    with pytest.raises(PipelineError, match="named"):
        label_dataset([anon], options, fleet)
    with pytest.raises(PipelineError, match="the corpus holds no circuits"):
        label_dataset([], options, fleet)
    with pytest.raises(PipelineError, match="no options to label with"):
        label_dataset([ghz(3)], [], fleet)


def test_label_dataset_labels_a_one_shot_iterator(options, fleet):
    samples, excluded = label_dataset(iter([ghz(2), ghz(3), ghz(4)]), options, fleet)
    assert [s.name for s in samples] == ["ghz_002", "ghz_003", "ghz_004"] and excluded == []


@pytest.mark.parametrize("caller_collects", [True, False])
def test_label_dataset_pauses_the_collector_and_restores_the_callers_setting(
    options, fleet, monkeypatch, caller_collects
):
    collecting = []

    def recording(circuit, opts, devices):
        collecting.append(gc.isenabled())
        return rank_options(circuit, opts, devices)

    def failing(circuit, opts, devices):
        raise RuntimeError("the sweep failed")

    was_collecting = gc.isenabled()
    (gc.enable if caller_collects else gc.disable)()
    try:
        monkeypatch.setattr(pipeline, "rank_options", recording)
        samples, _ = label_dataset([ghz(2), ghz(3)], options, fleet)
        assert len(samples) == 2 and gc.isenabled() == caller_collects
        with pytest.raises(PipelineError, match="duplicate"):
            label_dataset([ghz(2), ghz(3), ghz(3)], options, fleet)
        assert gc.isenabled() == caller_collects
        assert collecting == [False] * 4
        monkeypatch.setattr(pipeline, "rank_options", failing)
        with pytest.raises(RuntimeError, match="the sweep failed"):
            label_dataset([ghz(2)], options, fleet)
        assert gc.isenabled() == caller_collects
    finally:
        (gc.enable if was_collecting else gc.disable)()


def test_labeling_leaves_nothing_for_the_collector(options, fleet):
    # the collector is paused while labeling, which is safe only while
    # labeling creates no reference cycles: every family, and one circuit
    # wider than every device for the exclusion path. The caller's collector
    # stays off until the check, or the first allocation after labeling
    # would collect any cycle before gc.collect() could count it
    corpus = generate_corpus(qubit_range=(2, 4), seed=0, random_variants=1) + [ghz(128)]
    assert {c.name.split("_")[0] for c in corpus} == set(FAMILIES)
    was_collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        samples, excluded = label_dataset(corpus, options, fleet)
        assert gc.collect() == 0
    finally:
        if was_collecting:
            gc.enable()
    assert len(samples) == len(corpus) - 1 and [name for name, _ in excluded] == ["ghz_128"]


# names that would split a labels.csv row or cell, or lead a corpus file
# out of circuits/
_BAD_NAMES = ["ghz,002", "ghz\n002", "ghz\r002", "../ghz_002", "..\\ghz_002"]


def _refused_name(name):
    return pytest.raises(PipelineError, match=f"^circuit {re.escape(repr(name))}: a name may not hold")


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_label_dataset_refuses_a_name_that_breaks_the_files(options, fleet, name):
    with _refused_name(name):
        label_dataset([ghz(2), dataclasses.replace(ghz(3), name=name)], options, fleet)


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_write_corpus_refuses_a_name_that_breaks_the_files(tmp_path, name):
    with _refused_name(name):
        write_corpus(tmp_path / "corpus", [dataclasses.replace(ghz(3), name=name)])
    assert not list(tmp_path.rglob("*.qasm"))


@pytest.mark.parametrize("name, message", [
    ("ghz_003", "duplicate circuit name 'ghz_003'"),
    ("", "cannot write an unnamed circuit"),
    ("ghz,004", "circuit 'ghz,004': a name may not hold"),
])
def test_write_corpus_checks_every_name_before_writing(tmp_path, name, message):
    # a repeated name would overwrite the first file while the manifest
    # listed both, so read_corpus would then refuse a sha256 mismatch
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}"):
        write_corpus(tmp_path / "corpus", [ghz(3), dataclasses.replace(ghz(4), name=name)])
    assert not (tmp_path / "corpus").exists()


# ---------------------------------------------------------------------------
# splitting


def _fake_dataset(n):
    scores = [1.0] + [0.5] * 29
    return [_fake_sample(f"c{i:04d}", 3, "dev8/A/O0", scores) for i in range(n)]


def test_split_sizes():
    train, test = split(_fake_dataset(2098), 0.3, seed=0)
    assert len(train) == 1468
    assert len(test) == 630
    train, test = split(_fake_dataset(4), 0.5, seed=0)
    assert len(train) == 2 and len(test) == 2


def test_split_partitions_without_overlap():
    data = _fake_dataset(50)
    train, test = split(data, 0.3, seed=1)
    names = sorted(s.name for s in train) + sorted(s.name for s in test)
    assert sorted(names) == sorted(s.name for s in data)
    assert set(s.name for s in train).isdisjoint(s.name for s in test)


def test_split_deterministic_and_seed_sensitive():
    data = _fake_dataset(40)
    a = split(data, 0.3, seed=7)
    b = split(data, 0.3, seed=7)
    assert [s.name for s in a[0]] == [s.name for s in b[0]]
    c = split(data, 0.3, seed=8)
    assert [s.name for s in a[0]] != [s.name for s in c[0]]


def test_split_validation():
    with pytest.raises(PipelineError):
        split(_fake_dataset(1), 0.3, seed=0)
    with pytest.raises(PipelineError, match="fraction"):
        split(_fake_dataset(10), 0.0, seed=0)
    with pytest.raises(PipelineError, match="fraction"):
        split(_fake_dataset(10), 1.0, seed=0)


# ---------------------------------------------------------------------------
# training and evaluation


def test_train_model_defaults_and_schema(labeled, options):
    train, test = split(labeled, 0.3, seed=0)
    model = train_model(train, options, seed=0, params={"n_trees": 30, "max_depth": 10})
    assert (model.n_trees, model.max_depth) == (30, 10)
    # a key left out keeps its default
    assert model.min_samples_leaf == DEFAULT_FOREST_PARAMS["min_samples_leaf"]
    assert model.label_space == tuple(opt.option_id for opt in options)
    assert model.schema.names == full_schema().names
    report = evaluate(model, test, options)
    assert len(report.predicted) == len(test)
    assert all(0 <= p < len(options) for p in report.predicted)


def test_train_model_uses_default_params(labeled, options):
    train, _ = split(labeled, 0.3, seed=0)
    short = train[:12]
    if len({s.best for s in short}) < 2:
        short = train
    model = train_model(short, options, params=None)
    chosen = {k: getattr(model, k) for k in DEFAULT_FOREST_PARAMS}
    assert chosen == DEFAULT_FOREST_PARAMS == {"n_trees": 500, "max_depth": 20, "min_samples_leaf": 2}


def test_train_model_refuses_a_misspelt_param(labeled, options):
    train, _ = split(labeled, 0.3, seed=0)
    with pytest.raises(TypeError, match="n_tree"):
        train_model(train, options, params={"n_tree": 5})
    with pytest.raises(TypeError, match="n_tree"):
        train_model(train, options, grid=[{"n_tree": 5}], folds=2)


def test_train_model_rejects_single_class(options):
    data = _fake_dataset(10)
    with pytest.raises(PipelineError, match="degenerate"):
        train_model(data, options)


def test_train_model_refuses_a_score_vector_of_another_length(options):
    # two classes, so only the length of the score vectors is wrong
    short = [
        LabeledSample("a", tuple(range(len(full_schema().names))), tuple([1.0] + [0.5] * 28)),
        LabeledSample("b", tuple(range(len(full_schema().names))), tuple([0.5, 1.0] + [0.5] * 27)),
    ]
    with pytest.raises(PipelineError, match="'a' has 29 scores, not 30"):
        train_model(short, options)


def test_train_model_grid_search(labeled, options):
    train, _ = split(labeled, 0.3, seed=0)
    grid = [{"n_trees": 5, "max_depth": 3}, {"n_trees": 10, "max_depth": 6}]
    model = train_model(train, options, seed=0, grid=grid, folds=2)
    assert {"n_trees": model.n_trees, "max_depth": model.max_depth} in grid


def _constant_model(options, class_index, label_space=None):
    """A forest of one leaf: always predicts options[class_index]."""
    space = label_space or tuple(opt.option_id for opt in options)
    schema = full_schema()
    # one pure row grows a single leaf labelled class_index
    return fit_forest(np.zeros((1, len(schema.retained))), np.array([class_index]), schema, space,
                      n_trees=1, max_depth=None, min_samples_leaf=1, bootstrap=False, max_features=None)


def _scores_with_rank_at_zero(rank):
    """Score vector over 30 options giving position 0 the requested rank."""
    scores = [0.01] * 30
    scores[0] = 0.5
    for i in range(1, rank):
        scores[i] = 0.9
    return scores


def test_evaluate_measures_prediction_ranks(options):
    model = _constant_model(options, 0)
    samples = [
        _fake_sample("a", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),
        _fake_sample("b", 2, "dev8/A/O1", _scores_with_rank_at_zero(2)),
        _fake_sample("c", 2, "dev8/A/O1", _scores_with_rank_at_zero(5)),
        _fake_sample("d", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),
    ]
    report = evaluate(model, samples, options)
    assert report.ranks == (1, 2, 5, 1)
    assert report.accuracy == 0.5
    assert report.top3 == 0.75
    assert report.worst_rank == 5


def test_evaluate_rejects_empty(options):
    with pytest.raises(PipelineError, match="empty"):
        evaluate(_constant_model(options, 0), [], options)


def test_rank_histogram_sums_to_one():
    report = EvalReport(accuracy=0.5, top3=0.75, worst_rank=5, ranks=(1, 2, 5, 1), predicted=(0, 0, 0, 0))
    hist = rank_histogram(report, 30)
    assert len(hist) == 30
    assert sum(f for _, f in hist) == pytest.approx(1.0)
    assert hist[0] == (1, 0.5)
    assert hist[1] == (2, 0.25)
    assert hist[4] == (5, 0.25)
    assert hist[29] == (30, 0.0)


def test_majority_baseline_counts_and_ties(options):
    train = [
        _fake_sample("a", 2, "dev8/A/O1", _scores_with_rank_at_zero(2)),
        _fake_sample("b", 2, "dev8/A/O1", _scores_with_rank_at_zero(2)),
        _fake_sample("c", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),
    ]
    test = [
        _fake_sample("d", 2, "dev8/A/O1", _scores_with_rank_at_zero(2)),  # rank of O1 here is 1
        _fake_sample("e", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),  # rank of O1 here is 2
    ]
    label, accuracy = majority_baseline(train, test, options)
    assert label == "dev8/A/O1"
    assert accuracy == 0.5
    # count tie prefers the earlier option position
    tied = train[:2] + [
        _fake_sample("f", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),
        _fake_sample("g", 2, "dev8/A/O0", _scores_with_rank_at_zero(1)),
    ]
    label, _ = majority_baseline(tied, test, options)
    assert label == "dev8/A/O0"


def test_baselines_run_through_same_harness(labeled, options):
    train, test = split(labeled, 0.3, seed=0)
    for kind in ("knn", "nb"):
        report = evaluate_baseline(kind, train, test, options)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.accuracy <= report.top3 <= 1.0
        assert 1 <= report.worst_rank <= 30
        assert len(report.ranks) == len(test)
    with pytest.raises(PipelineError, match="unknown baseline"):
        evaluate_baseline("svm", train, test, options)


# ---------------------------------------------------------------------------
# runtime comparison and the dot export


def test_runtime_compare_keys(labeled, options, fleet):
    train, _ = split(labeled, 0.3, seed=0)
    model = train_model(train, options, params={"n_trees": 20, "max_depth": 8})
    result = runtime_compare(qft(5), model, options, fleet)
    assert set(result) == {
        "brute_force_seconds", "predict_and_compile_seconds", "reduction_fraction", "predicted_option",
    }
    assert result["brute_force_seconds"] > 0.0
    assert result["predict_and_compile_seconds"] > 0.0
    assert result["predicted_option"] in {opt.option_id for opt in options}
    assert result["reduction_fraction"] < 1.0


def test_runtime_compare_refuses_a_prediction_outside_the_options(options, fleet):
    # a model trained on the full fleet, compared on a subset without its pick
    model = _constant_model(options, options.index(parse_option("dev27/B/graph")))
    subset = [opt for opt in options if opt.device_id != "dev27"]
    with pytest.raises(PipelineError, match="dev27/B/graph"):
        runtime_compare(qft(5), model, subset, fleet)


def test_export_dot_graph_rows(options):
    model = _constant_model(options, 3)
    samples = [
        _fake_sample("zeta", 4, "dev8/A/O0", _scores_with_rank_at_zero(1)),
        _fake_sample("alpha", 2, "dev8/A/O1", _scores_with_rank_at_zero(2)),
    ]
    rows = export_dot_graph(samples, evaluate(model, samples, options), options)
    assert len(rows) == 60
    # sorted by qubit count first
    assert [r[0] for r in rows[:30]] == ["alpha"] * 30
    flagged = [r for r in rows if r[4] == 1]
    assert len(flagged) == 2
    assert all(r[2] == "dev8/A/O3" for r in flagged)
    for name in ("alpha", "zeta"):
        circuit_rows = [r for r in rows if r[0] == name]
        assert max(r[3] for r in circuit_rows) == 1.0
        assert all(0.0 <= r[3] <= 1.0 for r in circuit_rows)
    with pytest.raises(PipelineError, match="predicts 2 rows, not the 1 test rows"):
        export_dot_graph(samples[:1], evaluate(model, samples, options), options)


# ---------------------------------------------------------------------------
# disk round trips


def test_corpus_round_trip(tmp_path, small_corpus):
    manifest = write_corpus(tmp_path, small_corpus)
    assert manifest["count"] == len(small_corpus)
    assert (tmp_path / "manifest.json").is_file()
    back = list(read_corpus(tmp_path))
    assert [c.name for c in back] == [c.name for c in small_corpus]
    for original, loaded in zip(small_corpus, back):
        assert loaded.ops == original.ops
        assert loaded.num_qubits == original.num_qubits


def test_corpus_manifest_hashes_stable(tmp_path, small_corpus):
    write_corpus(tmp_path / "one", small_corpus)
    write_corpus(tmp_path / "two", small_corpus)
    a = (tmp_path / "one" / "manifest.json").read_bytes()
    b = (tmp_path / "two" / "manifest.json").read_bytes()
    assert a == b


def test_read_corpus_checks_the_manifest(tmp_path, small_corpus):
    write_corpus(tmp_path, small_corpus)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    first = tmp_path / "circuits" / f"{manifest['files'][0]['name']}.qasm"
    manifest["files"][0]["qubits"] += 1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(PipelineError, match=f"{re.escape(str(first))} has .* qubits, but"):
        list(read_corpus(tmp_path))
    manifest["files"][0]["qubits"] -= 1
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    list(read_corpus(tmp_path))
    first.write_text(first.read_text(encoding="utf-8").replace("\n", "\r\n"), encoding="utf-8")
    with pytest.raises(PipelineError, match=f"{re.escape(str(first))} does not match the sha256"):
        list(read_corpus(tmp_path))


@pytest.mark.parametrize("tail, message", [
    (b"bogus q[0];\n", r"line \d+: unknown gate 'bogus'"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
], ids=["unknown-gate", "not-utf8"])
def test_read_corpus_names_the_file_that_does_not_parse(tmp_path, small_corpus, tail, message):
    write_corpus(tmp_path, small_corpus)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    entry = manifest["files"][1]
    path = tmp_path / "circuits" / f"{entry['name']}.qasm"
    data = path.read_bytes() + tail
    path.write_bytes(data)
    entry["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}: {message}"):
        list(read_corpus(tmp_path))


@pytest.mark.parametrize("text, message", [
    ("not json", "is not JSON"),
    ('{"count": 0}', "has no list of circuit files"),
    ('{"count": 1, "files": [{"qubits": 2}]}', "circuit file entry 0 has no name"),
], ids=["not-json", "no-files", "entry-without-name"])
def test_read_corpus_refuses_a_malformed_manifest(tmp_path, text, message):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(text, encoding="utf-8")
    with pytest.raises(PipelineError, match=f"{re.escape(str(manifest_path))}.* {message}"):
        list(read_corpus(tmp_path))


@pytest.mark.parametrize("name", _BAD_NAMES)
def test_read_corpus_refuses_a_name_that_breaks_the_files(tmp_path, name):
    # the file is where the name leads, so only the name check refuses it
    write_corpus(tmp_path, [ghz(3)])
    (tmp_path / "circuits" / "ghz_003.qasm").rename(tmp_path / "circuits" / f"{name}.qasm")
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    manifest["files"][0]["name"] = name
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    with _refused_name(name):
        list(read_corpus(tmp_path))


def test_read_corpus_keeps_no_circuit_it_has_yielded(tmp_path, small_corpus):
    write_corpus(tmp_path, small_corpus)
    refs = []
    for circuit in read_corpus(tmp_path):
        refs.append(weakref.ref(circuit))
        assert [ref() is not None for ref in refs] == [False] * (len(refs) - 1) + [True]
    assert len(refs) == len(small_corpus)


def test_read_corpus_missing_manifest(tmp_path):
    with pytest.raises(PipelineError, match="manifest"):
        list(read_corpus(tmp_path))


def test_labeled_dataset_round_trip(tmp_path, labeled, options):
    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    write_features_csv(tmp_path / "features.csv", labeled, options)
    back = load_labeled_dataset(tmp_path, options)
    assert back == labeled


def test_load_labeled_dataset_header_checks(tmp_path, labeled, options):
    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    write_features_csv(tmp_path / "features.csv", labeled, options)
    reordered = list(options)[::-1]
    with pytest.raises(PipelineError, match="labels.csv"):
        load_labeled_dataset(tmp_path, reordered)
    (tmp_path / "features.csv").write_text("circuit,bogus,label\n", encoding="utf-8")
    with pytest.raises(PipelineError, match="features.csv"):
        load_labeled_dataset(tmp_path, options)
    with pytest.raises(PipelineError, match="missing"):
        load_labeled_dataset(tmp_path / "nowhere", options)


def test_load_labeled_dataset_derives_labels_from_scores(tmp_path, labeled, options):
    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    write_features_csv(tmp_path / "features.csv", labeled, options)
    name, label = labeled[0].name, options[labeled[0].best].option_id
    wrong = next(o.option_id for o in options if o.option_id != label)
    # relabel the circuit in both files: they agree, but not with the scores
    for csv in ("labels.csv", "features.csv"):
        path = tmp_path / csv
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [line.replace(label, wrong) if line.startswith(name + ",") else line for line in lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=f"{name}.*{wrong}.*{label} first"):
        load_labeled_dataset(tmp_path, options)

    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    path = tmp_path / "labels.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0]  # one score short
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(PipelineError, match="29 scores, not 30"):
        load_labeled_dataset(tmp_path, options)


@pytest.mark.parametrize("csv, edit, message", [
    ("features.csv", lambda rows: rows[:1] + rows[2:], "circuit {name!r} in labels.csv but not features.csv"),
    ("features.csv", lambda rows: rows[:1] + [re.sub(",[^,]*", "", rows[1], count=1)] + rows[2:],
     "features.csv row {name!r} has 37 features, not 38"),
    ("features.csv", lambda rows: rows + rows[1:2], "features.csv lists circuit {name!r} twice"),
    ("labels.csv", lambda rows: rows + rows[1:2], "labels.csv lists circuit {name!r} twice"),
], ids=["missing-features-row", "short-features-row", "duplicate-features-row", "duplicate-labels-row"])
def test_load_labeled_dataset_refuses_a_malformed_directory(tmp_path, labeled, options, csv, edit, message):
    """Each refusal names the file and the circuit, here the first data row's."""
    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    write_features_csv(tmp_path / "features.csv", labeled, options)
    path = tmp_path / csv
    path.write_text("\n".join(edit(path.read_text(encoding="utf-8").splitlines())) + "\n", encoding="utf-8")
    with pytest.raises(PipelineError, match=re.escape(message.format(name=labeled[0].name))):
        load_labeled_dataset(tmp_path, options)


@pytest.mark.parametrize("csv, value", [
    ("features.csv", "nan"), ("features.csv", "abc"), ("labels.csv", "inf"), ("labels.csv", "abc"),
])
def test_load_labeled_dataset_refuses_a_cell_that_is_not_a_finite_number(tmp_path, labeled, options, csv, value):
    """The edited cell is the first row's num_qubits in features.csv, and in
    labels.csv the score of its label, so the ranking does not change."""
    write_labels_csv(tmp_path / "labels.csv", labeled, options)
    write_features_csv(tmp_path / "features.csv", labeled, options)
    sample = labeled[0]
    column = "num_qubits" if csv == "features.csv" else f"score_{options[sample.best].option_id}"
    path = tmp_path / csv
    lines = path.read_text(encoding="utf-8").splitlines()
    at = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    assert cells[0] == sample.name
    cells[at] = value
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"{path}: the {column} of circuit {sample.name!r} is {value!r}, not a finite number"
    with pytest.raises(PipelineError, match=re.escape(message)):
        load_labeled_dataset(tmp_path, options)


def test_figure_csvs_parse_clean(tmp_path, labeled, options):
    train = split(labeled, 0.3, seed=0)[0]
    model = train_model(train, options, params={"n_trees": 10, "max_depth": 6})
    payload = write_evaluation(tmp_path, model, labeled, options, None)
    assert json.loads((tmp_path / REPORT_FILE).read_text(encoding="utf-8")) == payload
    test = split(labeled, 0.3, seed=model.seed)[1]
    assert payload["n_test"] == len(test)

    lines = (tmp_path / FIG4_FILE).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,frequency"
    assert len(lines) == 31
    freqs = [float(line.split(",")[1]) for line in lines[1:]]
    assert sum(freqs) == pytest.approx(1.0)

    lines = (tmp_path / FIG5_FILE).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "circuit,num_qubits,option,normalized_score,predicted"
    assert len(lines) == 1 + 30 * len(test)

    lines = (tmp_path / FIG6_FILE).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "feature,importance_mean,importance_std"
    total = 0.0
    for line in lines[1:]:
        name, mean, std = line.split(",")
        assert "np." not in mean and "np." not in std  # plain float reprs only
        total += float(mean)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_report_payload_and_determinism(tmp_path):
    report = EvalReport(accuracy=0.75, top3=0.9, worst_rank=4, ranks=(1, 1, 4, 1), predicted=(0, 0, 1, 0))
    from qcpredict.compiler import parse_option

    options = [parse_option("dev8/A/O0"), parse_option("dev8/A/O1")]
    features = tuple(float(i) for i in range(len(full_schema().names)))
    first, second = (0.9, 0.1), (0.1, 0.9)  # scores that rank each option first
    train_set = [LabeledSample(f"t{i}", features, first) for i in range(10)]
    test_set = [LabeledSample(f"e{i}", features, s) for i, s in enumerate((first, second, second, second))]
    payload = build_report(
        report, options, train_set, test_set, params={"n_trees": 5, "max_depth": 2},
        excluded=[("huge", "all 2 options infeasible")], seed=3,
    )
    assert payload["accuracy"] == 0.75
    assert payload["n_options"] == 2
    assert (payload["n_train"], payload["n_test"]) == (10, 4)
    assert payload["majority_baseline_accuracy"] == 0.25
    assert payload["excluded_circuits"] == [["huge", "all 2 options infeasible"]]
    assert payload["seed"] == 3
    assert "external_reference" in payload
    flat = json.dumps(payload)
    for banned in ("seconds", "wall", "elapsed", "time"):
        assert banned not in flat

    write_text(tmp_path / "a.json", json_text(payload))
    write_text(tmp_path / "b.json", json_text(payload))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "a.json").read_text(encoding="utf-8")) == payload


# ---------------------------------------------------------------------------
# pinned outputs

# sha256 of each file that `generate`, `label`, `train --n-trees 20` and
# `evaluate` write for `generate --families ghz,dj,qft --qubits 2..6 --seed 0`,
# and of what `compile --all --out ranking.csv` and `compile --option
# dev27/A/O3 --out compiled.qasm --stats stats.json` write for its qft_005; a
# change means a score, the split, the forest or a file format moved
PINNED_OUTPUT_SHA256 = {
    "manifest.json": "f0946378c513902082c9df7a65a3962935bbc184a016f7f484f77690a58cb610",
    "labels.csv": "a9dc0945e43601a50feb610b86b70934875b3fa42d1bdf2e7a599ddfbd0a61db",
    "features.csv": "9742ef190db4150f1ac6f17c29cf439a954d4629171415f14e7a65fa92d01721",
    "excluded.csv": "b5e1192ccafe47df648303f57dc522fff58a48cb89920ddd9cc6e067f83b9769",
    "report.json": "548063b202c0416b0a5a02c66e70cc6a0536990af91f590075389ec5145a6708",
    "fig4_histogram.csv": "c2bb54ad0342315281a5c52fee482d4f7984f906d8ab437233133317b551d132",
    "fig5_dots.csv": "cd6169cde872433b3795f9fd73e9e97df698beb3c8652417e851e9eb26169d46",
    "fig6_importance.csv": "4a966dc9537a1d645f79bc5d8dad7e51df5e9b2549dd10fcdf55c3c71e5a78f7",
    "ranking.csv": "b22712e7351f68f2ee34298c294a54162d4f2506cb47ee6cf3c3356c660d670f",
    "compiled.qasm": "4da56a51c4bea5f7da7e6707e14013d786be0a00d380d6c8de9f253fda7cd855",
    "stats.json": "ae51eea3aef09a8ba4c6ae521e914d816dea2e065204c545a3f63346d0c90ca0",
}


def test_pipeline_outputs_are_pinned(tmp_path, capfd):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--families", "ghz,dj,qft", "--qubits", "2..6", "--seed", "0"]) == 0
    assert main(["label", "--corpus", str(data)]) == 0
    assert main(["train", "--data", str(data), "--n-trees", "20"]) == 0
    # evaluate rewrites the report and the figures train wrote, byte for byte
    written = ("report.json", "fig4_histogram.csv", "fig5_dots.csv", "fig6_importance.csv")
    trained = {name: (data / name).read_bytes() for name in written}
    assert main(["evaluate", "--data", str(data)]) == 0
    assert {name: (data / name).read_bytes() for name in written} == trained

    circuit = str(data / "circuits" / "qft_005.qasm")
    assert main(["compile", circuit, "--all", "--out", str(data / "ranking.csv")]) == 0
    assert main(["compile", circuit, "--option", "dev27/A/O3",
                 "--out", str(data / "compiled.qasm"), "--stats", str(data / "stats.json")]) == 0
    digests = {name: hashlib.sha256((data / name).read_bytes()).hexdigest() for name in PINNED_OUTPUT_SHA256}
    assert digests == PINNED_OUTPUT_SHA256

    # without a file, each payload goes to its stream unchanged
    capfd.readouterr()
    assert main(["compile", circuit, "--all"]) == 0
    assert capfd.readouterr().out == (data / "ranking.csv").read_text(encoding="utf-8")
    assert main(["compile", circuit, "--option", "dev27/A/O3"]) == 0
    streams = capfd.readouterr()
    assert streams.out == (data / "compiled.qasm").read_text(encoding="utf-8")
    assert streams.err == (data / "stats.json").read_text(encoding="utf-8")
