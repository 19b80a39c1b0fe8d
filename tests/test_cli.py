import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcpredict
from qcpredict import ml, pipeline
from qcpredict.cli import main
from qcpredict.devices import builtin_devices, write_device
from qcpredict.features import FeatureSchema
from qcpredict.generators import generate_corpus, ghz
from qcpredict.ml import fit_forest, load_model, predict, predict_top_k, save_model
from qcpredict.pipeline import model_features, write_corpus
from qcpredict.qasm import parse_qasm
from qcpredict.scoring import CalibrationError
from qcpredict.simulator import check_equivalence


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny end-to-end workspace: corpus, labels, and a trained forest."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["generate", "--out", str(data), "--families", "ghz,dj,qft", "--qubits", "2..5"]) == 0
    assert main(["label", "--corpus", str(data)]) == 0
    assert main([
        "train", "--data", str(data), "--n-trees", "15", "--max-depth", "6", "--seed", "0",
    ]) == 0
    return data


def test_generate_writes_corpus(tmp_path, capfd):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--families", "ghz", "--qubits", "2..4"]) == 0
    stdout = capfd.readouterr().out
    assert "wrote 3 circuits" in stdout
    assert (out / "manifest.json").is_file()
    files = sorted(p.name for p in (out / "circuits").glob("*.qasm"))
    assert files == ["ghz_002.qasm", "ghz_003.qasm", "ghz_004.qasm"]


def test_generate_single_size_shorthand(tmp_path):
    out = tmp_path / "corpus"
    assert main(["generate", "--out", str(out), "--families", "qft", "--qubits", "6"]) == 0
    assert [p.name for p in (out / "circuits").glob("*.qasm")] == ["qft_006.qasm"]


def test_generate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["generate", "--out", str(out), "--families", "random,qaoa", "--qubits", "2..4"]) == 0
    assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()
    for p in sorted((a / "circuits").glob("*.qasm")):
        assert p.read_bytes() == (b / "circuits" / p.name).read_bytes()


def test_generate_rejects_unknown_family(tmp_path, capfd):
    assert main(["generate", "--out", str(tmp_path / "x"), "--families", "bogus"]) == 1
    assert "error:" in capfd.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--families", "ghz,ghz"], "circuit family 'ghz' is listed twice"),
    (["--families", "random", "--random-variants", "-1"], "random_variants must be at least 0, got -1"),
], ids=["family-twice", "negative-variants"])
def test_generate_refuses_a_repeated_family_and_a_negative_variant_count(tmp_path, capfd, flags, message):
    out = tmp_path / "x"
    assert main(["generate", "--out", str(out), "--qubits", "2..4"] + flags) == 1
    assert capfd.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--seed", "-1"],
    ["--families", "ghz", "--seed", "-5"],
], ids=["all-families", "ghz-draws-nothing"])
def test_generate_refuses_a_negative_seed(tmp_path, capfd, flags):
    """Refused by generate_corpus, naming the seed, before any circuit is
    built; a family that draws nothing from the seed is no exception."""
    out = tmp_path / "x"
    assert main(["generate", "--out", str(out), "--qubits", "2..4"] + flags) == 1
    assert capfd.readouterr().err == f"error: seed must be a non-negative integer, got {flags[-1]}\n"
    assert not out.exists()


def test_generate_rejects_bad_range(tmp_path, capfd):
    assert main(["generate", "--out", str(tmp_path / "x"), "--qubits", "5..2"]) == 1
    assert main(["generate", "--out", str(tmp_path / "x"), "--qubits", "abc"]) == 1
    err = capfd.readouterr().err
    assert "error:" in err


def test_label_outputs(workdir, capfd):
    # the fixture already labeled; rerun into a fresh directory to see the message
    out = workdir.parent / "relabel"
    assert main(["label", "--corpus", str(workdir), "--out", str(out)]) == 0
    stdout = capfd.readouterr().out
    assert "labeled 20 circuits (0 excluded)" in stdout
    assert (out / "labels.csv").is_file()
    assert (out / "features.csv").is_file()
    assert (out / "excluded.csv").read_text(encoding="utf-8") == "name,reason\n"
    header = (out / "labels.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header.startswith("circuit,label,score_dev8/A/O0,")
    assert header.count("score_") == 30


def test_report_lists_the_excluded_circuits(tmp_path):
    data = tmp_path / "data"
    small = generate_corpus(families=["ghz", "dj", "qft"], qubit_range=(2, 5))
    write_corpus(data, small[:6] + [ghz(130)] + small[6:] + [ghz(128)])
    assert main(["label", "--corpus", str(data)]) == 0
    reason = "all 30 options infeasible: {} qubits, wider than every device"
    excluded = [["ghz_130", reason.format(130)], ["ghz_128", reason.format(128)]]
    # in corpus order, each reason whole although it holds a comma
    assert (data / "excluded.csv").read_text(encoding="utf-8") == (
        "name,reason\n" + "".join(f"{name},{why}\n" for name, why in excluded)
    )
    assert main(["train", "--data", str(data), "--n-trees", "15", "--max-depth", "6"]) == 0
    assert json.loads((data / "report.json").read_text(encoding="utf-8"))["excluded_circuits"] == excluded
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(data), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["excluded_circuits"] == excluded

    # a directory labeled before excluded.csv existed still trains; its
    # excluded circuits are unknown, not none
    (data / "excluded.csv").unlink()
    assert main(["train", "--data", str(data), "--n-trees", "15", "--max-depth", "6"]) == 0
    assert json.loads((data / "report.json").read_text(encoding="utf-8"))["excluded_circuits"] is None


def test_label_missing_corpus(tmp_path, capfd):
    assert main(["label", "--corpus", str(tmp_path / "nothing")]) == 1
    assert "error:" in capfd.readouterr().err


def test_label_refuses_an_empty_corpus(tmp_path, capfd):
    write_corpus(tmp_path, [])
    assert json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))["files"] == []
    assert main(["label", "--corpus", str(tmp_path)]) == 1
    assert capfd.readouterr().err == "error: the corpus holds no circuits\n"


def test_label_reruns_byte_identical(workdir, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["label", "--corpus", str(workdir), "--out", str(out)]) == 0
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()
    assert (a / "features.csv").read_bytes() == (b / "features.csv").read_bytes()


def test_label_refuses_a_circuit_edited_after_generate(tmp_path, capfd):
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--families", "ghz", "--qubits", "2..3"]) == 0
    edited = data / "circuits" / "ghz_003.qasm"
    edited.write_text(edited.read_text(encoding="utf-8") + "x q[0];\n", encoding="utf-8")
    assert main(["label", "--corpus", str(data)]) == 1
    assert f"error: {edited} does not match the sha256 in" in capfd.readouterr().err


def test_a_refusal_at_the_last_circuit_writes_nothing(tmp_path, capfd):
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    assert main(["generate", "--out", str(corpus), "--families", "ghz", "--qubits", "2..4"]) == 0
    manifest_path = corpus / "manifest.json"
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    last = corpus / "circuits" / f"{manifest['files'][-1]['name']}.qasm"
    data = last.read_bytes() + b"bogus q[0];\n"
    last.write_bytes(data)
    manifest["files"][-1]["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
    capfd.readouterr()
    assert main(["label", "--corpus", str(corpus), "--out", str(out)]) == 1
    assert capfd.readouterr().err.startswith(f"error: {last}: line ")
    assert not any((out / name).exists() for name in ("labels.csv", "features.csv", "excluded.csv"))


def test_train_forest_outputs(workdir):
    for name in ("model.bin", "report.json", "fig4_histogram.csv", "fig5_dots.csv", "fig6_importance.csv"):
        assert (workdir / name).is_file(), name
    report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
    assert report["classifier_params"]["classifier"] == "forest"
    assert report["classifier_params"]["n_trees"] == 15
    assert report["n_options"] == 30
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["accuracy"] <= report["top3"] <= 1.0
    assert report["n_train"] + report["n_test"] == 20
    assert "seconds" not in json.dumps(report)


def test_train_baselines(workdir, tmp_path, capfd):
    for kind in ("knn", "nb"):
        out = tmp_path / kind
        assert main([
            "train", "--data", str(workdir), "--out", str(out), "--classifier", kind,
        ]) == 0
        assert not (out / "model.bin").exists()  # baselines do not persist a model
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["classifier_params"]["classifier"] == kind
    stdout = capfd.readouterr().out
    assert "knn:" in stdout and "nb:" in stdout


def test_train_max_depth_none(workdir, tmp_path):
    out = tmp_path / "deep"
    assert main([
        "train", "--data", str(workdir), "--out", str(out),
        "--n-trees", "5", "--max-depth", "none",
    ]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["classifier_params"]["max_depth"] is None


@pytest.mark.parametrize("flags, message", [
    (["--classifier", "knn", "--n-trees", "5"], "--n-trees applies only to --classifier forest without --grid-search"),
    (["--grid-search", "--max-depth", "3"], "--max-depth applies only to --classifier forest without --grid-search"),
    (["--classifier", "nb", "--grid-search"], "--grid-search applies only to --classifier forest"),
    (["--n-trees", "5", "--folds", "3"], "--folds applies only with --grid-search"),
    (["--n-trees", "5", "--knn-k", "3"], "--knn-k applies only to --classifier knn"),
], ids=["knn-n-trees", "grid-max-depth", "nb-grid-search", "folds-without-grid", "forest-knn-k"])
def test_train_refuses_a_flag_its_mode_ignores(workdir, tmp_path, capfd, flags, message):
    assert main(["train", "--data", str(workdir), "--out", str(tmp_path)] + flags) == 1
    assert capfd.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["--min-samples-leaf", "0"], "min_samples_leaf must be at least 1, got 0"),
    (["--max-depth", "-1"], "max_depth must be None or at least 0, got -1"),
], ids=["min-samples-leaf-0", "max-depth-negative"])
def test_train_refuses_forest_hyperparameters_that_mean_nothing(workdir, tmp_path, capfd, flags, message):
    assert main(["train", "--data", str(workdir), "--out", str(tmp_path), "--n-trees", "5"] + flags) == 1
    assert capfd.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_predict_prints_choice_and_shares(workdir, capfd):
    qasm = workdir / "circuits" / "ghz_004.qasm"
    assert main(["predict", str(qasm), "--model", str(workdir / "model.bin")]) == 0
    out = capfd.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("predicted: dev")
    assert len([l for l in lines if l.lstrip().startswith(("1.", "2.", "3."))]) == 3
    assert "vote share" in lines[1]


def test_predict_votes_once(workdir, capfd, monkeypatch):
    model = load_model(workdir / "model.bin")
    qasm = workdir / "circuits" / "qft_004.qasm"
    x = model_features(model, parse_qasm(qasm.read_text(encoding="utf-8")))
    expected = [f"predicted: {predict(model, x)}"]
    expected += [f"  {i}. {label}  vote share {share:.3f}"
                 for i, (label, share) in enumerate(predict_top_k(model, x, 3), start=1)]
    capfd.readouterr()
    calls = []
    real_votes = ml._vote_counts
    monkeypatch.setattr(ml, "_vote_counts", lambda *a: calls.append(a) or real_votes(*a))
    assert main(["predict", str(qasm), "--model", str(workdir / "model.bin")]) == 0
    assert len(calls) == 1
    assert capfd.readouterr().out.splitlines() == expected


def test_predict_top_k_and_explain(workdir, capfd):
    qasm = workdir / "circuits" / "qft_005.qasm"
    assert main([
        "predict", str(qasm), "--model", str(workdir / "model.bin"), "--top-k", "1", "--explain",
    ]) == 0
    out = capfd.readouterr().out
    assert "feature importances:" in out
    assert out.count("vote share") == 1


def test_predict_corrupt_model(workdir, tmp_path, capfd):
    bad = tmp_path / "bad.bin"
    bad.write_text("{", encoding="utf-8")
    qasm = workdir / "circuits" / "ghz_002.qasm"
    assert main(["predict", str(qasm), "--model", str(bad)]) == 1
    assert "error:" in capfd.readouterr().err


def test_compile_explicit_option(workdir, tmp_path, capfd):
    src = workdir / "circuits" / "ghz_003.qasm"
    out = tmp_path / "compiled.qasm"
    stats_path = tmp_path / "stats.json"
    assert main([
        "compile", str(src), "--option", "dev8/A/O3", "--out", str(out), "--stats", str(stats_path),
    ]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    assert stats["option"] == "dev8/A/O3"
    assert set(stats) == {"option", "score", "layout", "swaps_inserted", "native_gates", "placement_fallback"}
    assert 0.0 < stats["score"] <= 1.0
    assert len(stats["layout"]) == 3

    compiled = parse_qasm(out.read_text(encoding="utf-8"), name="compiled")
    original = parse_qasm(src.read_text(encoding="utf-8"), name="ghz_003")
    layout = dict(enumerate(stats["layout"]))
    assert check_equivalence(original, compiled, layout)


def test_compile_with_model(workdir, tmp_path):
    src = workdir / "circuits" / "dj_004_v1.qasm"
    out = tmp_path / "c.qasm"
    stats_path = tmp_path / "s.json"
    assert main([
        "compile", str(src), "--model", str(workdir / "model.bin"),
        "--out", str(out), "--stats", str(stats_path),
    ]) == 0
    stats = json.loads(stats_path.read_text(encoding="utf-8"))
    parts = stats["option"].split("/")
    assert parts[0] in {"dev8", "dev11", "dev27", "dev80", "dev127"}
    assert out.is_file()


@pytest.mark.parametrize("command", [["predict"], ["compile"]])
def test_model_with_foreign_schema_is_refused(workdir, tmp_path, capfd, command):
    # predict and compile --model share one schema check and one message
    rng = np.random.default_rng(0)
    model = fit_forest(rng.uniform(size=(10, 2)), np.arange(10) % 2, FeatureSchema(("x", "y")),
                       ("dev8/A/O0", "dev8/A/O1"), n_trees=2)
    path = tmp_path / "foreign.bin"
    save_model(model, path)
    src = workdir / "circuits" / "ghz_003.qasm"
    assert main(command + [str(src), "--model", str(path)]) == 1
    assert "error: model schema does not match this feature extractor" in capfd.readouterr().err


def test_compile_all_ranks_everything(workdir, tmp_path):
    src = workdir / "circuits" / "ghz_003.qasm"
    out = tmp_path / "ranking.csv"
    assert main(["compile", str(src), "--all", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "rank,option,score"
    assert len(lines) == 31
    ranks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ranks == list(range(1, 31))
    scores = [float(line.split(",")[2]) for line in lines[1:]]
    assert scores == sorted(scores, reverse=True)


def test_compile_needs_a_mode(workdir, capfd):
    src = workdir / "circuits" / "ghz_002.qasm"
    assert main(["compile", str(src)]) == 1
    assert "compile needs" in capfd.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--all", "--option", "dev8/A/O0", "--stats", "s.json"], "--option does not apply with --all"),
    (["--all", "--stats", "s.json"], "--stats does not apply with --all"),
    (["--all", "--model", "model.bin"], "--model does not apply with --all"),
    (["--option", "dev8/A/O0", "--model", "model.bin"], "--model does not apply with --option"),
], ids=["all-option", "all-stats", "all-model", "option-model"])
def test_compile_refuses_a_flag_its_mode_ignores(workdir, tmp_path, capfd, flags, message):
    # every path is under tmp_path, which must stay empty; model.bin does not
    # exist, so a compile that opened it would fail with another message
    flags = [str(tmp_path / f) if f.endswith((".json", ".bin")) else f for f in flags]
    src = workdir / "circuits" / "ghz_003.qasm"
    assert main(["compile", str(src), "--out", str(tmp_path / "out")] + flags) == 1
    assert capfd.readouterr() == ("", f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_compile_unavailable_option(workdir, capfd):
    src = workdir / "circuits" / "ghz_002.qasm"
    assert main(["compile", str(src), "--option", "dev99/A/O0"]) == 1
    assert "error:" in capfd.readouterr().err


def test_evaluate_writes_report_and_figures(workdir, tmp_path):
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(workdir), "--out", str(out)]) == 0
    for name in ("report.json", "fig4_histogram.csv", "fig5_dots.csv", "fig6_importance.csv"):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n_options"] == 30

    again = tmp_path / "eval2"
    assert main(["evaluate", "--data", str(workdir), "--out", str(again)]) == 0
    for name in ("report.json", "fig4_histogram.csv", "fig5_dots.csv", "fig6_importance.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_evaluate_rescores_the_split_train_made(workdir, tmp_path):
    # evaluate reads the split seed from model.bin, so it rewrites the report
    # of a non-default seed byte for byte, wherever the model file lives
    data = tmp_path / "data"
    data.mkdir()
    for name in ("labels.csv", "features.csv", "excluded.csv"):
        (data / name).write_bytes((workdir / name).read_bytes())
    assert main(["train", "--data", str(data), "--seed", "3", "--n-trees", "20"]) == 0
    trained = (data / "report.json").read_bytes()
    assert json.loads(trained)["seed"] == 3
    assert main(["evaluate", "--data", str(data)]) == 0
    assert (data / "report.json").read_bytes() == trained
    other = tmp_path / "other"
    assert main(["evaluate", "--data", str(data), "--model", str(data / "model.bin"), "--out", str(other)]) == 0
    assert (other / "report.json").read_bytes() == trained


@pytest.mark.parametrize("key, value", [("seed", "zero"), ("bootstrap", 1), ("max_features", "log2")])
def test_evaluate_refuses_a_model_header_train_would_refuse(workdir, tmp_path, capfd, key, value):
    # each such header used to load; with the string seed, evaluate then died with a traceback
    head, _, body = (workdir / "model.bin").read_bytes().partition(b"\n")
    bad = tmp_path / "model.bin"
    bad.write_bytes(json.dumps({**json.loads(head), key: value}).encode() + b"\n" + body)
    assert main(["evaluate", "--data", str(workdir), "--model", str(bad), "--out", str(tmp_path / "out")]) == 1
    err = capfd.readouterr().err
    assert err.startswith(f"error: corrupt model file {bad}: {key} must be") and err.count("\n") == 1


def test_evaluate_votes_once(workdir, tmp_path, monkeypatch):
    # the report and the fig5 dots share one forest vote over the test rows
    calls = []
    real_predict_many = pipeline.predict_many
    monkeypatch.setattr(pipeline, "predict_many", lambda *a: calls.append(a) or real_predict_many(*a))
    assert main(["evaluate", "--data", str(workdir), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_train_votes_once(workdir, tmp_path, monkeypatch):
    # train writes the report and the figures from one vote too
    calls = []
    real_predict_many = pipeline.predict_many
    monkeypatch.setattr(pipeline, "predict_many", lambda *a: calls.append(a) or real_predict_many(*a))
    assert main(["train", "--data", str(workdir), "--out", str(tmp_path), "--n-trees", "5"]) == 0
    assert len(calls) == 1
    assert (tmp_path / "fig5_dots.csv").is_file()


def test_custom_device_directory(workdir, tmp_path):
    devdir = tmp_path / "devices"
    devdir.mkdir()
    fleet = {d.id: d for d in builtin_devices()}
    write_device(fleet["dev8"], devdir / "dev8.yaml")
    write_device(fleet["dev11"], devdir / "dev11.yaml")
    src = workdir / "circuits" / "ghz_003.qasm"
    out = tmp_path / "ranking.csv"
    assert main(["compile", str(src), "--all", "--devices", str(devdir), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 13  # header + 2 devices x 6 options
    assert all("dev8/" in l or "dev11/" in l for l in lines[1:])


def test_device_env_var(workdir, tmp_path, monkeypatch):
    devdir = tmp_path / "devices"
    devdir.mkdir()
    write_device(builtin_devices()[0], devdir / "only.yaml")
    monkeypatch.setenv("QCPREDICT_DEVICES", str(devdir))
    src = workdir / "circuits" / "ghz_002.qasm"
    out = tmp_path / "r.csv"
    assert main(["compile", str(src), "--all", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 7


def test_argparse_errors_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate"])  # missing --out
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    for command in (["label", "--corpus", str(tmp_path)], ["compile", str(tmp_path / "c.qasm"), "--all"]):
        with pytest.raises(SystemExit) as exc:
            main(command + ["--timeout", "1"])  # no wall-clock limit exists
        assert exc.value.code == 2
    # the split is fixed by train --seed alone; evaluate reads it from the model
    for command, option in (("train", "--test-fraction"), ("evaluate", "--test-fraction"), ("evaluate", "--seed")):
        with pytest.raises(SystemExit) as exc:
            main([command, "--data", str(tmp_path), option, "1"])
        assert exc.value.code == 2


def test_console_script_help():
    # the child imports the same qcpredict this process does, also under a bare `pytest`
    src = str(Path(qcpredict.__file__).parents[1])
    env = dict(os.environ, PYTHONWARNINGS="ignore",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qcpredict.cli", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    for sub in ("generate", "label", "train", "predict", "compile", "evaluate"):
        assert sub in proc.stdout


def test_compile_refuses_a_non_finite_angle_without_a_traceback(tmp_path):
    src = tmp_path / "bad.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[1];\nrz(1/0) q[0];\n", encoding="utf-8")
    env = dict(os.environ, PYTHONWARNINGS="ignore", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(qcpredict.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qcpredict.cli", "compile", str(src), "--option", "dev8/A/O3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {src}: line 3: division by zero in angle expression '1/0'\n"


@pytest.mark.parametrize("angle", ["1e999", "1e999-1e999"])
def test_compile_refuses_an_overflowing_angle(tmp_path, capfd, angle):
    src = tmp_path / "bad.qasm"
    src.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrz({angle}) q[0];\n", encoding="utf-8")
    assert main(["compile", str(src), "--option", "dev8/A/O3"]) == 1
    assert capfd.readouterr().err == f"error: {src}: line 3: angle expression '{angle}' is not a finite number\n"


@pytest.mark.parametrize("command", ["predict", "compile"])
def test_an_unreadable_circuit_names_its_file(workdir, tmp_path, capfd, command):
    # as in a corpus: a parse error names its line, a decode error its byte,
    # and both name the file
    model = ["--model", str(workdir / "model.bin")]
    unparsable = tmp_path / "unknown_gate.qasm"
    unparsable.write_text("OPENQASM 2.0;\nqreg q[1];\n\nfoo q[0];\n", encoding="utf-8")
    assert main([command, str(unparsable)] + model) == 1
    assert capfd.readouterr().err == f"error: {unparsable}: line 4: unknown gate 'foo'\n"
    undecodable = tmp_path / "not_utf8.qasm"
    undecodable.write_bytes(b"\xff")
    assert main([command, str(undecodable)] + model) == 1
    assert capfd.readouterr().err.startswith(f"error: {undecodable}: 'utf-8' codec can't decode byte 0xff")


def test_a_malformed_device_file_is_refused_without_a_traceback(tmp_path):
    devdir = tmp_path / "devices"
    devdir.mkdir()
    write_device(builtin_devices()[0], devdir / "dev8.yaml")
    broken = devdir / "dev8.yaml"
    broken.write_text(broken.read_text(encoding="utf-8").replace("\n  qubits:", "\n  qbits:", 1), encoding="utf-8")
    src = tmp_path / "c.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n", encoding="utf-8")
    env = dict(os.environ, PYTHONWARNINGS="ignore", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(qcpredict.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "qcpredict.cli", "compile", str(src), "--all", "--devices", str(devdir)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: {broken}: an entry has no 'qubits' field\n"


def test_a_missing_calibration_entry_is_printed_as_written(tmp_path, capfd, monkeypatch):
    # a CalibrationError is a KeyError, whose str() would quote the message;
    # a loaded device has every entry, so scoring is made to miss one
    def missing(result, device):
        raise CalibrationError(f"{device.id}: no fidelity for cx on (1, 0)")

    monkeypatch.setattr("qcpredict.cli.evaluate_score", missing)
    devdir = tmp_path / "devices"
    devdir.mkdir()
    (devdir / "toy.yaml").write_text(
        "id: toy\ntechnology: superconducting\nnum_qubits: 3\ncoupling: [[0, 1], [1, 0], [1, 2], [2, 1]]\n"
        "native_gates: [rz, sx, x, cx, measure]\n"
        "defaults: {single_qubit: 0.999, two_qubit: 0.99, readout: 0.97}\n",
        encoding="utf-8",
    )
    src = tmp_path / "c.qasm"
    src.write_text("OPENQASM 2.0;\nqreg q[3];\ncx q[0],q[2];\n", encoding="utf-8")
    assert main(["compile", str(src), "--option", "toy/A/O0", "--devices", str(devdir)]) == 1
    assert capfd.readouterr() == ("", "error: toy: no fidelity for cx on (1, 0)\n")
