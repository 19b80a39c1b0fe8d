"""End-to-end experiment orchestration.

Corpus circuits are labeled by brute-force scoring over every compilation
option; a seeded split feeds classifier training. A trained forest reaches
its outputs through one writer, ``write_evaluation``: it re-splits the data
with the model's seed, votes once over the test rows, and writes the report
of rank quality measures and the figure datasets (rank histogram, per-option
score dots, feature importances) as CSV, so ``train`` and ``evaluate`` write
the same bytes. All outputs are byte-deterministic for a fixed seed: floats
are serialized with repr and no wall-clock values enter any dataset file.
"""
from __future__ import annotations

import gc
import hashlib
import inspect
import json
import logging
import sys
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import floor, isfinite
from pathlib import Path

import numpy as np

from .circuit import Circuit
from .compiler import CompilationOption, compile_circuit
from .devices import DeviceModel
from .features import (
    FeatureSchema,
    apply_standardize,
    extract_features,
    full_schema,
    project_columns,
    prune_constant_features,
    standardize,
)
from .ml import (
    DEFAULT_GRID,
    ForestModel,
    feature_importance,
    fit_forest,
    grid_search_cv,
    knn_predict,
    naive_bayes_predict,
    predict,
    predict_many,
)
from .qasm import parse_qasm, to_qasm
from .scoring import rank_options, ranks_from_values

logger = logging.getLogger(__name__)

DEFAULT_TEST_FRACTION = 0.3
DEFAULT_FOLDS = 5
DEFAULT_KNN_K = 5
# the forest defaults live in fit_forest's signature
DEFAULT_FOREST_PARAMS = {
    name: inspect.signature(fit_forest).parameters[name].default
    for name in ("n_trees", "max_depth", "min_samples_leaf")
}

LABELS_FILE = "labels.csv"
FEATURES_FILE = "features.csv"
EXCLUDED_FILE = "excluded.csv"
MODEL_FILE = "model.bin"
REPORT_FILE = "report.json"
FIG4_FILE = "fig4_histogram.csv"
FIG5_FILE = "fig5_dots.csv"
FIG6_FILE = "fig6_importance.csv"
CIRCUITS_DIR = "circuits"
MANIFEST_FILE = "manifest.json"

EXTERNAL_REFERENCE = {
    "accuracy": 0.75,
    "top3": 0.90,
    "worst_rank": 12,
    "note": (
        "externally reported results for this methodology on a different "
        "corpus and compiler stack; context only, not asserted here"
    ),
}


class PipelineError(Exception):
    """Orchestration-level failure (bad dataset, schema mismatch, missing file)."""


_QUBIT_COLUMN = full_schema().names.index("num_qubits")


def _check_circuit_name(name: str) -> None:
    """Refuse a name that would split a CSV row or cell (a comma, or any
    line break ``str.splitlines`` splits at, as the CSV readers do) or lead
    a corpus file out of its directory ('/', '\\')."""
    if "," in name or "/" in name or "\\" in name or "".join(name.splitlines()) != name:
        raise PipelineError(f"circuit {name!r}: a name may not hold a comma, a line break, '/' or '\\'")


def _check_new_name(name: str, seen: set[str]) -> None:
    """``_check_circuit_name``, then refuse a name already in ``seen``, and
    add it there."""
    _check_circuit_name(name)
    if name in seen:
        raise PipelineError(f"duplicate circuit name {name!r}")
    seen.add(name)


@dataclass(frozen=True)
class LabeledSample:
    """One corpus circuit: its features and its score under each option.

    ``features`` follows the full (unpruned) schema; ``scores`` follows the
    canonical option order. Ranks, label and width are derived from these.
    """

    name: str
    features: tuple[float, ...]
    scores: tuple[float, ...]

    @property
    def ranks(self) -> tuple[int, ...]:
        """Ground-truth rank of each option; ties go to the earlier option."""
        return ranks_from_values(self.scores)

    @property
    def best(self) -> int:
        """The position of the rank-1 option: the label."""
        return self.ranks.index(1)

    @property
    def num_qubits(self) -> int:
        return int(self.features[_QUBIT_COLUMN])


@dataclass(frozen=True)
class EvalReport:
    """Rank measures of one prediction per test row; ``predicted`` holds the
    option position of each prediction and ``ranks`` its ground-truth rank."""

    accuracy: float
    top3: float
    worst_rank: int
    ranks: tuple[int, ...]
    predicted: tuple[int, ...]


# ---------------------------------------------------------------------------
# labeling and splitting

def label_dataset(
    circuits: Iterable[Circuit],
    options: list[CompilationOption],
    fleet: dict[str, DeviceModel],
) -> tuple[list[LabeledSample], list[tuple[str, str]]]:
    """Brute-force score each circuit of one walk over ``circuits``, checking
    its name when it is reached and keeping no circuit; returns (samples,
    excluded). A sample keeps the circuit's score vector, whose rank-1
    option is its label. A circuit whose best score is below
    ``sys.float_info.min`` is excluded and logged, not an error: either it
    is wider than every device, or every feasible score underflows.

    The walk runs with the cyclic garbage collector paused, so its
    collections do not rescan the in-flight ops of a wide compile, and the
    caller's setting comes back when the call ends, also by an exception.
    Labeling creates no reference cycles, so the pause leaves nothing for a
    later collection to free.
    """
    if not options:
        raise PipelineError("no options to label with")
    schema = full_schema()
    seen: set[str] = set()
    samples: list[LabeledSample] = []
    excluded: list[tuple[str, str]] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for c in circuits:
            if not c.name:
                raise PipelineError("corpus circuits must be named")
            _check_new_name(c.name, seen)
            scores = rank_options(c, options, fleet)
            best = max(scores)
            if best < sys.float_info.min:
                if all(c.num_qubits > fleet[opt.device_id].num_qubits for opt in options):
                    reason = f"all {len(options)} options infeasible: {c.num_qubits} qubits, wider than every device"
                else:
                    reason = f"every feasible score underflows: the best is {best!r}"
                logger.info("excluding %s: %s", c.name, reason)
                excluded.append((c.name, reason))
                continue
            features = tuple(float(v) for v in extract_features(c, schema))
            samples.append(LabeledSample(c.name, features, scores))
    finally:
        if collecting:
            gc.enable()
    if not seen:
        raise PipelineError("the corpus holds no circuits")
    return samples, excluded


def split(
    dataset: list[LabeledSample], test_fraction: float, seed: int
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Seeded shuffle, then floor(n*(1-f)) train rows and the rest test."""
    if len(dataset) < 2:
        raise PipelineError("need at least 2 samples to split")
    if not 0.0 < test_fraction < 1.0:
        raise PipelineError("test fraction must be in (0, 1)")
    perm = np.random.default_rng(seed).permutation(len(dataset))
    n_train = floor(len(dataset) * (1.0 - test_fraction))
    train = [dataset[i] for i in perm[:n_train]]
    test = [dataset[i] for i in perm[n_train:]]
    return train, test


# ---------------------------------------------------------------------------
# training and evaluation

def _full_matrix(samples: list[LabeledSample]) -> np.ndarray:
    return np.array([s.features for s in samples], dtype=np.float64)


def _label_indices(samples: list[LabeledSample], options: list[CompilationOption]) -> np.ndarray:
    for s in samples:
        if len(s.scores) != len(options):
            raise PipelineError(f"sample {s.name!r} has {len(s.scores)} scores, not {len(options)}")
    return np.array([s.best for s in samples], dtype=np.int64)


def _training_matrix(
    train: list[LabeledSample], options: list[CompilationOption]
) -> tuple[np.ndarray, np.ndarray, FeatureSchema]:
    """The training rows in their non-constant feature columns, their label
    indices, and the schema of those columns."""
    schema = full_schema()
    X_full = _full_matrix(train)
    pruned = prune_constant_features(X_full, schema)
    return project_columns(X_full, schema, pruned), _label_indices(train, options), pruned


def train_model(
    train: list[LabeledSample],
    options: list[CompilationOption],
    seed: int = 0,
    params: dict | None = None,
    grid: list[dict] | None = None,
    folds: int = DEFAULT_FOLDS,
) -> ForestModel:
    """Fit the forest on the training rows.

    Constant feature columns are pruned using the training rows only. With
    ``grid`` set, hyperparameters come from cross-validated search; otherwise
    ``params`` are passed to ``fit_forest`` (a missing key keeps its default,
    a misspelt one raises ``TypeError``). The parameters chosen are the
    model's own fields.
    """
    if not train:
        raise PipelineError("empty training set")
    if len({s.best for s in train}) < 2:
        raise PipelineError("degenerate training labels: need at least 2 classes")
    X, y, pruned = _training_matrix(train, options)
    label_space = tuple(opt.option_id for opt in options)
    if grid is not None:
        params, _ = grid_search_cv(X, y, pruned, label_space, grid, folds=folds, seed=seed)
    return fit_forest(X, y, pruned, label_space, seed=seed, **(params or {}))


def _extractor_schema(model: ForestModel) -> FeatureSchema:
    """The full schema, once the model is known to be built on it."""
    schema = full_schema()
    if tuple(model.schema.names) != schema.names:
        raise PipelineError("model schema does not match this feature extractor")
    return schema


def project_to_model(model: ForestModel, features: np.ndarray) -> np.ndarray:
    """The model's input columns of a matrix of full-schema feature rows;
    refuses a model built on another feature schema."""
    return project_columns(features, _extractor_schema(model), model.schema)


def model_features(model: ForestModel, circuit: Circuit) -> np.ndarray:
    """One circuit's features, extracted in the model's input columns rather
    than projected from the full vector (a projection costs predict-then-
    compile about 5%); refuses a model built on another feature schema."""
    _extractor_schema(model)
    return extract_features(circuit, model.schema)


def _report(predicted: list[int], samples: list[LabeledSample]) -> EvalReport:
    """The ground-truth rank of each predicted option position, aggregated."""
    ranks = tuple(s.ranks[p] for p, s in zip(predicted, samples))
    return EvalReport(
        accuracy=sum(r == 1 for r in ranks) / len(ranks),
        top3=sum(r <= 3 for r in ranks) / len(ranks),
        worst_rank=max(ranks),
        ranks=ranks,
        predicted=tuple(predicted),
    )


def evaluate(
    model: ForestModel, test: list[LabeledSample], options: list[CompilationOption]
) -> EvalReport:
    """Ground-truth rank of each prediction, aggregated into the three measures."""
    if not test:
        raise PipelineError("empty test set")
    position = {opt.option_id: i for i, opt in enumerate(options)}
    predicted = []
    for c in predict_many(model, project_to_model(model, _full_matrix(test))):
        label = model.label_space[int(c)]
        if label not in position:
            raise PipelineError(f"predicted option {label!r} missing from the ranking")
        predicted.append(position[label])
    return _report(predicted, test)


def evaluate_baseline(
    kind: str,
    train: list[LabeledSample],
    test: list[LabeledSample],
    options: list[CompilationOption],
    k: int = DEFAULT_KNN_K,
) -> EvalReport:
    """Nearest-neighbor or Gaussian Bayes baseline through the same harness.

    Features are pruned on the training rows, as for the forest, then standardized.
    """
    if kind not in ("knn", "nb"):
        raise PipelineError(f"unknown baseline {kind!r}")
    if not train or not test:
        raise PipelineError("empty train or test set")
    X_train, y, pruned = _training_matrix(train, options)
    X_train, mean, std = standardize(X_train)
    X_test = apply_standardize(project_columns(_full_matrix(test), full_schema(), pruned), mean, std)
    if kind == "knn":
        predicted = knn_predict(X_train, y, X_test, min(k, len(train)), len(options))
    else:
        predicted = naive_bayes_predict(X_train, y, X_test, len(options))
    return _report(predicted.tolist(), test)


def majority_baseline(
    train: list[LabeledSample], test: list[LabeledSample], options: list[CompilationOption]
) -> tuple[str, float]:
    """Most frequent training label and its rank-1 accuracy on the test rows;
    a tie goes to the earlier option."""
    majority = int(np.argmax(np.bincount(_label_indices(train, options))))
    accuracy = sum(s.best == majority for s in test) / len(test)
    return options[majority].option_id, accuracy


def rank_histogram(report: EvalReport, n_options: int) -> list[tuple[int, float]]:
    """Relative frequency of each ground-truth rank 1..n among predictions."""
    total = len(report.ranks)
    return [(r, sum(x == r for x in report.ranks) / total) for r in range(1, n_options + 1)]


def runtime_compare(
    circuit: Circuit,
    model: ForestModel,
    options: list[CompilationOption],
    fleet: dict[str, DeviceModel],
) -> dict:
    """Wall time of the full brute-force sweep vs predict-then-compile-once.

    The model comes loaded, and its descent table is derived before the
    clock starts: both are set-up paid once per model, not per prediction."""
    by_id = {opt.option_id: opt for opt in options}
    model.nodes.descent

    started = time.perf_counter()
    rank_options(circuit, options, fleet)
    brute = time.perf_counter() - started

    started = time.perf_counter()
    label = predict(model, model_features(model, circuit))
    option = by_id.get(label)
    if option is None:
        raise PipelineError(f"the model predicts {label}, which is not among the {len(options)} options given")
    compile_circuit(circuit, option, fleet)
    fast = time.perf_counter() - started

    return {
        "brute_force_seconds": brute,
        "predict_and_compile_seconds": fast,
        "reduction_fraction": 1.0 - fast / brute if brute > 0 else 0.0,
        "predicted_option": label,
    }


def export_dot_graph(
    test: list[LabeledSample], report: EvalReport, options: list[CompilationOption]
) -> list[tuple[str, int, str, float, int]]:
    """Rows (circuit, qubits, option, score/best, predicted flag) for the test
    rows ``report`` was made on, sorted by qubit count; exactly one flagged
    row per circuit."""
    if len(report.predicted) != len(test):
        raise PipelineError(f"the report predicts {len(report.predicted)} rows, not the {len(test)} test rows")
    rows: list[tuple[str, int, str, float, int]] = []
    for sample, pred in zip(test, report.predicted):
        best = max(sample.scores)
        qubits = sample.num_qubits
        for i, opt in enumerate(options):
            rows.append((sample.name, qubits, opt.option_id, sample.scores[i] / best, 1 if i == pred else 0))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


# ---------------------------------------------------------------------------
# disk formats (all byte-deterministic)

EXCLUDED_HEADER = ("name", "reason")
FIG4_HEADER = ("rank", "frequency")
FIG5_HEADER = ("circuit", "num_qubits", "option", "normalized_score", "predicted")
FIG6_HEADER = ("feature", "importance_mean", "importance_std")
FEATURES_HEADER = ("circuit",) + full_schema().names + ("label",)


def labels_header(options: list[CompilationOption]) -> tuple[str, ...]:
    return ("circuit", "label") + tuple(f"score_{opt.option_id}" for opt in options)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 with LF line ends, as every output file is."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def csv_text(header: tuple[str, ...], rows) -> str:
    """The header line, then one line per row; cells are joined by commas
    unquoted, and a float cell is its repr (``str`` of a float)."""
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def json_text(payload: dict) -> str:
    """Indented JSON with sorted keys and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_corpus(outdir: str | Path, circuits: list[Circuit]) -> dict:
    """Emit one OpenQASM file per circuit plus a manifest with content hashes;
    every name is checked before the first file is written."""
    seen: set[str] = set()
    for c in circuits:
        if not c.name:
            raise PipelineError("cannot write an unnamed circuit")
        _check_new_name(c.name, seen)
    outdir = Path(outdir)
    cdir = outdir / CIRCUITS_DIR
    cdir.mkdir(parents=True, exist_ok=True)
    entries = []
    for c in circuits:
        text = to_qasm(c)
        write_text(cdir / f"{c.name}.qasm", text)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        entries.append({"name": c.name, "qubits": c.num_qubits, "sha256": digest})
    manifest = {"count": len(circuits), "files": entries}
    write_text(outdir / MANIFEST_FILE, json_text(manifest))
    return manifest


def parse_circuit_file(path: str | Path, name: str, data: bytes | None = None) -> Circuit:
    """The circuit in the OpenQASM file at ``path``, parsed from its bytes
    ``data`` when they are already read; a decode or parse error is refused
    naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8") if data is None else data.decode("utf-8")
        return parse_qasm(text, name=name)
    except ValueError as exc:  # a parse error names its line; a decode error its byte
        raise PipelineError(f"{path}: {exc}") from None


def read_corpus(outdir: str | Path) -> Iterator[Circuit]:
    """Yield circuits in manifest order, each right after its file's name, hash
    and width are checked; a refusal comes when the walk reaches its file."""
    outdir = Path(outdir)
    manifest_path = outdir / MANIFEST_FILE
    if not manifest_path.is_file():
        raise PipelineError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise PipelineError(f"{manifest_path} is not JSON: {exc}") from None
    entries = manifest.get("files") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise PipelineError(f"{manifest_path} has no list of circuit files")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise PipelineError(f"{manifest_path}: circuit file entry {i} has no name")
        _check_circuit_name(entry["name"])
        path = outdir / CIRCUITS_DIR / f"{entry['name']}.qasm"
        if not path.is_file():
            raise PipelineError(f"manifest references missing file {path}")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != entry.get("sha256"):
            raise PipelineError(f"{path} does not match the sha256 in {manifest_path}")
        circuit = parse_circuit_file(path, entry["name"], data)
        if circuit.num_qubits != entry.get("qubits"):
            raise PipelineError(
                f"{path} has {circuit.num_qubits} qubits, but {manifest_path} records {entry.get('qubits')}")
        yield circuit


def write_labels_csv(path: str | Path, samples: list[LabeledSample], options: list[CompilationOption]) -> None:
    rows = ((s.name, options[s.best].option_id, *s.scores) for s in samples)
    write_text(path, csv_text(labels_header(options), rows))


def write_features_csv(path: str | Path, samples: list[LabeledSample], options: list[CompilationOption]) -> None:
    rows = ((s.name, *s.features, options[s.best].option_id) for s in samples)
    write_text(path, csv_text(FEATURES_HEADER, rows))


def write_excluded_csv(path: str | Path, excluded: list[tuple[str, str]]) -> None:
    """The circuits labeling left out, in corpus order, with their reasons."""
    write_text(path, csv_text(EXCLUDED_HEADER, excluded))


def _read_csv_rows(path: Path, header: tuple[str, ...], maxsplit: int = -1) -> list[list[str]]:
    """The rows under ``header`` of a CSV file, each split at its first
    ``maxsplit`` commas (at all of them by default)."""
    if not path.is_file():
        raise PipelineError(f"missing file {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != header:
        raise PipelineError(
            f"{path} does not start with the header that label writes for this fleet and feature schema")
    return [line.split(",", maxsplit) for line in lines[1:] if line]


def read_excluded_csv(path: str | Path) -> list[tuple[str, str]] | None:
    """Rows of ``write_excluded_csv``; a reason is the rest of its line, so it
    may hold commas. None when the file is missing (a data directory labeled
    before labeling wrote it): which circuits were left out is unknown."""
    path = Path(path)
    if not path.is_file():
        return None
    rows = _read_csv_rows(path, EXCLUDED_HEADER, maxsplit=1)
    for row in rows:
        if len(row) != 2:
            raise PipelineError(f"{path}: row {row[0]!r} has no reason")
    return [tuple(row) for row in rows]


def _numbers(path: Path, name: str, columns: tuple[str, ...], cells: list[str]) -> tuple[float, ...]:
    """The cells of one row as floats; refuses a cell that is not a finite
    number, naming the file, the circuit and the column."""
    values = []
    for column, cell in zip(columns, cells):
        try:
            value = float(cell)
        except ValueError:
            value = float("nan")
        if not isfinite(value):
            raise PipelineError(f"{path}: the {column} of circuit {name!r} is {cell!r}, not a finite number")
        values.append(value)
    return tuple(values)


def load_labeled_dataset(outdir: str | Path, options: list[CompilationOption]) -> list[LabeledSample]:
    """Rebuild samples by joining features.csv and labels.csv on circuit name.

    Ranks and labels are derived from the stored scores with the tie rule of
    labeling, so the round trip is exact; a stored label that disagrees with
    its scores is refused, and so are a row of the wrong width, a cell that is
    not a finite number, a circuit listed twice in one file and a circuit
    missing from either file.
    """
    outdir = Path(outdir)
    features_path, labels_path = outdir / FEATURES_FILE, outdir / LABELS_FILE
    f_rows = _read_csv_rows(features_path, FEATURES_HEADER)
    l_header = labels_header(options)
    l_rows = _read_csv_rows(labels_path, l_header)

    by_name: dict[str, tuple[str, tuple[float, ...]]] = {}
    for row in l_rows:
        if len(row) != len(l_header):
            raise PipelineError(f"labels.csv row {row[0]!r} has {len(row) - 2} scores, not {len(options)}")
        if row[0] in by_name:
            raise PipelineError(f"labels.csv lists circuit {row[0]!r} twice")
        scores = _numbers(labels_path, row[0], l_header[2:], row[2:])
        label = options[ranks_from_values(scores).index(1)].option_id
        if row[1] != label:
            raise PipelineError(f"labels.csv labels {row[0]!r} {row[1]}, but its scores rank {label} first")
        by_name[row[0]] = (label, scores)
    samples = []
    seen: set[str] = set()
    for row in f_rows:
        name = row[0]
        if len(row) != len(FEATURES_HEADER):
            raise PipelineError(
                f"features.csv row {name!r} has {len(row) - 2} features, not {len(FEATURES_HEADER) - 2}")
        if name not in by_name:
            raise PipelineError(f"circuit {name!r} in features.csv but not labels.csv")
        if name in seen:
            raise PipelineError(f"features.csv lists circuit {name!r} twice")
        seen.add(name)
        label, scores = by_name[name]
        if label != row[-1]:
            raise PipelineError(f"label mismatch for {name!r} between the two CSV files")
        samples.append(LabeledSample(name, _numbers(features_path, name, FEATURES_HEADER[1:-1], row[1:-1]), scores))
    for name in by_name:
        if name not in seen:
            raise PipelineError(f"circuit {name!r} in labels.csv but not features.csv")
    return samples


def build_report(
    report: EvalReport,
    options: list[CompilationOption],
    train_set: list[LabeledSample],
    test_set: list[LabeledSample],
    params: dict,
    excluded: list[tuple[str, str]] | None = None,
    seed: int = 0,
) -> dict:
    """Assemble the JSON report of ``report``, the predictions on
    ``test_set``. Deliberately excludes wall-clock timings so reruns with one
    seed are byte-identical. ``excluded`` None (unknown) is written as null,
    not as an empty list. The one report builder for every classifier: a key
    computed from the predictions goes here, so the baselines get it too; a
    key that needs the forest goes in ``write_evaluation``, which the
    baselines do not pass through, so that it need not branch on its caller."""
    _, majority_accuracy = majority_baseline(train_set, test_set, options)
    return {
        "accuracy": report.accuracy,
        "top3": report.top3,
        "worst_rank": report.worst_rank,
        "n_options": len(options),
        "n_train": len(train_set),
        "n_test": len(test_set),
        "majority_baseline_accuracy": majority_accuracy,
        "classifier_params": {k: params[k] for k in sorted(params)},
        "seed": seed,
        "excluded_circuits": None if excluded is None else [list(e) for e in excluded],
        "external_reference": EXTERNAL_REFERENCE,
    }


def write_evaluation(
    outdir: str | Path,
    model: ForestModel,
    samples: list[LabeledSample],
    options: list[CompilationOption],
    excluded: list[tuple[str, str]] | None,
) -> dict:
    """Score ``model`` on the test rows of the split it was trained on (the
    split of ``samples`` by ``model.seed``) with one vote, and write the
    report and the three figure files to ``outdir``; returns the report
    payload."""
    train_set, test_set = split(samples, DEFAULT_TEST_FRACTION, model.seed)
    report = evaluate(model, test_set, options)
    params = {"classifier": "forest", **{k: getattr(model, k) for k in DEFAULT_FOREST_PARAMS}}
    payload = build_report(report, options, train_set, test_set, params, excluded, seed=model.seed)
    mean, std, degenerate = feature_importance(model)
    if degenerate:
        logger.warning("all trees are single leaves; importances are zero")
    importances = ((name, float(m), float(s)) for name, m, s in zip(model.schema.retained, mean, std))

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_text(outdir / REPORT_FILE, json_text(payload))
    write_text(outdir / FIG4_FILE, csv_text(FIG4_HEADER, rank_histogram(report, len(options))))
    write_text(outdir / FIG5_FILE, csv_text(FIG5_HEADER, export_dot_graph(test_set, report, options)))
    write_text(outdir / FIG6_FILE, csv_text(FIG6_HEADER, importances))
    return payload
