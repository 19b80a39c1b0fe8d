"""Command-line entry point.

Subcommands cover the full workflow: generate a corpus, label it by brute
force, train and evaluate a predictor, predict an option for one circuit, and
compile a circuit with a chosen or predicted option. Results land in files;
progress and exclusions go to stderr via logging so files stay deterministic.
"""
from __future__ import annotations

import argparse
import logging
import os
import re
import sys
from pathlib import Path

from .compiler import CompilationOption, compile_circuit, enumerate_options, parse_option
from .devices import DeviceModel, builtin_devices, load_device_dir
from .generators import DEFAULT_RANDOM_VARIANTS, FAMILIES, MAX_QUBITS, MIN_QUBITS, generate_corpus
from .ml import DEFAULT_GRID, feature_importance, load_model, predict, predict_top_k, save_model
from .pipeline import (
    DEFAULT_FOLDS,
    DEFAULT_FOREST_PARAMS,
    DEFAULT_KNN_K,
    DEFAULT_TEST_FRACTION,
    FIG4_FILE,
    FIG5_FILE,
    FIG6_FILE,
    EXCLUDED_FILE,
    FEATURES_FILE,
    LABELS_FILE,
    MODEL_FILE,
    REPORT_FILE,
    PipelineError,
    build_report,
    csv_text,
    evaluate_baseline,
    json_text,
    label_dataset,
    load_labeled_dataset,
    model_features,
    parse_circuit_file,
    read_corpus,
    read_excluded_csv,
    split,
    train_model,
    write_corpus,
    write_excluded_csv,
    write_evaluation,
    write_features_csv,
    write_labels_csv,
    write_text,
)
from .qasm import to_qasm
from .scoring import CalibrationError, evaluate_score, rank_options, ranks_from_values

logger = logging.getLogger(__name__)

DEVICE_DIR_ENV = "QCPREDICT_DEVICES"

# CircuitError, QasmError, DeviceError, CompileError and ModelFormatError are
# ValueErrors; CalibrationError is a KeyError
_USER_ERRORS = (ValueError, OSError, CalibrationError, PipelineError)


def _parse_qubit_range(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if match:
        return int(match.group(1)), int(match.group(2))
    if text.isdigit():
        return int(text), int(text)
    raise ValueError(f"bad qubit range {text!r}; expected N or LO..HI")


def _load_fleet(args: argparse.Namespace) -> tuple[dict[str, DeviceModel], list[CompilationOption]]:
    """The fleet keyed by device id, and its options in canonical order."""
    path = getattr(args, "devices", None) or os.environ.get(DEVICE_DIR_ENV)
    devices = load_device_dir(path) if path else builtin_devices()
    return {d.id: d for d in devices}, enumerate_options(devices)


def cmd_generate(args: argparse.Namespace) -> int:
    families = args.families.split(",") if args.families else None
    corpus = generate_corpus(
        families=families,
        qubit_range=_parse_qubit_range(args.qubits),
        seed=args.seed,
        random_variants=args.random_variants,
    )
    manifest = write_corpus(args.out, corpus)
    print(f"wrote {manifest['count']} circuits to {Path(args.out) / 'circuits'}")
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    fleet, options = _load_fleet(args)
    samples, excluded = label_dataset(read_corpus(args.corpus), options, fleet)
    if not samples:
        raise PipelineError(
            f"all {len(excluded)} circuits were excluded: each is wider than every device "
            "or has every feasible score underflow"
        )
    outdir = Path(args.out or args.corpus)
    outdir.mkdir(parents=True, exist_ok=True)
    write_labels_csv(outdir / LABELS_FILE, samples, options)
    write_features_csv(outdir / FEATURES_FILE, samples, options)
    write_excluded_csv(outdir / EXCLUDED_FILE, excluded)
    print(f"labeled {len(samples)} circuits ({len(excluded)} excluded) -> {outdir}")
    return 0


def _refuse_ignored_train_flags(args: argparse.Namespace) -> None:
    """Refuse a train flag that the chosen mode would not read, naming it."""
    forest, grid = args.classifier == "forest", args.grid_search
    scopes = {
        "grid_search": (forest, "applies only to --classifier forest"),
        "folds": (grid, "applies only with --grid-search"),
        "knn_k": (args.classifier == "knn", "applies only to --classifier knn"),
        **{k: (forest and not grid, "applies only to --classifier forest without --grid-search")
           for k in DEFAULT_FOREST_PARAMS},
    }
    given = set(vars(args)) - (set() if grid else {"grid_search"})
    for dest, (applies, scope) in scopes.items():
        if dest in given and not applies:
            raise ValueError(f"--{dest.replace('_', '-')} {scope}")


def cmd_train(args: argparse.Namespace) -> int:
    _refuse_ignored_train_flags(args)
    _, options = _load_fleet(args)
    samples = load_labeled_dataset(args.data, options)
    excluded = read_excluded_csv(Path(args.data) / EXCLUDED_FILE)
    train_set, test_set = split(samples, DEFAULT_TEST_FRACTION, args.seed)
    outdir = Path(args.out or args.data)
    outdir.mkdir(parents=True, exist_ok=True)

    given = vars(args)
    if args.classifier == "forest":
        model = train_model(
            train_set,
            options,
            seed=args.seed,
            params={k: given[k] for k in DEFAULT_FOREST_PARAMS if k in given},
            grid=DEFAULT_GRID if args.grid_search else None,
            folds=given.get("folds", DEFAULT_FOLDS),
        )
        save_model(model, outdir / MODEL_FILE)
        payload = write_evaluation(outdir, model, samples, options, excluded)
    else:
        k = given.get("knn_k", DEFAULT_KNN_K)
        report = evaluate_baseline(args.classifier, train_set, test_set, options, k=k)
        params = {"classifier": args.classifier}
        if args.classifier == "knn":
            params["k"] = k
        payload = build_report(report, options, train_set, test_set, params, excluded, seed=args.seed)
        write_text(outdir / REPORT_FILE, json_text(payload))
    print(
        f"{args.classifier}: accuracy {payload['accuracy']:.4f}, top3 {payload['top3']:.4f}, "
        f"worst rank {payload['worst_rank']} of {len(options)} "
        f"(majority baseline {payload['majority_baseline_accuracy']:.4f})"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    x = model_features(model, parse_circuit_file(args.circuit, Path(args.circuit).stem))
    top = predict_top_k(model, x, args.top_k)
    print(f"predicted: {top[0][0]}")
    for i, (label, share) in enumerate(top, start=1):
        print(f"  {i}. {label}  vote share {share:.3f}")
    if args.explain:
        mean, _, _ = feature_importance(model)
        ranked = sorted(zip(model.schema.retained, mean), key=lambda p: (-p[1], p[0]))
        print("feature importances:")
        for name, value in ranked:
            print(f"  {name}: {value:.4f}")
    return 0


def _emit(text: str, path: str | None, stream) -> None:
    """Write ``text`` to the file at ``path``, or unchanged to ``stream``."""
    if path:
        write_text(path, text)
    else:
        stream.write(text)


# compile flag -> the mode flags under which compile would not read it
_COMPILE_IGNORES = {"option": ("all",), "model": ("all", "option"), "stats": ("all",)}


def _refuse_ignored_compile_flags(args: argparse.Namespace) -> None:
    """Refuse a compile flag that the chosen mode would not read, naming it."""
    for dest, modes in _COMPILE_IGNORES.items():
        for mode in modes:
            if getattr(args, dest) and getattr(args, mode):
                raise ValueError(f"--{dest} does not apply with --{mode}")


def cmd_compile(args: argparse.Namespace) -> int:
    _refuse_ignored_compile_flags(args)
    fleet, options = _load_fleet(args)
    circuit = parse_circuit_file(args.circuit, Path(args.circuit).stem)

    if args.all:
        scores = rank_options(circuit, options, fleet)
        ranks = ranks_from_values(scores)
        order = sorted(range(len(options)), key=ranks.__getitem__)
        rows = ((ranks[i], options[i].option_id, scores[i]) for i in order)
        _emit(csv_text(("rank", "option", "score"), rows), args.out, sys.stdout)
        if args.out:
            print(f"wrote ranking for {len(options)} options to {args.out}")
        return 0

    if args.option:
        option = parse_option(args.option)
        if option.option_id not in {o.option_id for o in options}:
            raise PipelineError(f"option {option.option_id!r} not available on this fleet")
    elif args.model:
        model = load_model(args.model)
        option = parse_option(predict(model, model_features(model, circuit)))
    else:
        raise PipelineError("compile needs --option, --model, or --all")

    result = compile_circuit(circuit, option, fleet)
    score = evaluate_score(result, fleet[option.device_id])
    _emit(to_qasm(result.circuit), args.out, sys.stdout)
    stats = {
        "option": option.option_id,
        "score": score.value,
        "layout": [result.layout[q] for q in sorted(result.layout)],
        **result.stats,
    }
    _emit(json_text(stats), args.stats, sys.stderr)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, options = _load_fleet(args)
    samples = load_labeled_dataset(args.data, options)
    excluded = read_excluded_csv(Path(args.data) / EXCLUDED_FILE)
    model = load_model(args.model or Path(args.data) / MODEL_FILE)
    # `train --seed` seeds both the split and the forest, and the model keeps
    # that seed, so write_evaluation scores the split the model was trained on
    outdir = Path(args.out or args.data)
    payload = write_evaluation(outdir, model, samples, options, excluded)
    print(
        f"accuracy {payload['accuracy']:.4f}, top3 {payload['top3']:.4f}, worst rank {payload['worst_rank']}; "
        f"wrote {REPORT_FILE}, {FIG4_FILE}, {FIG5_FILE}, {FIG6_FILE} to {outdir}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcpredict",
        description="Predict good compilation options for quantum circuits.",
    )
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_devices(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--devices",
            help=f"directory of device YAML files (default: built-in fleet, or ${DEVICE_DIR_ENV})",
        )

    p = sub.add_parser("generate", help="write a benchmark circuit corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--families", help=f"comma-separated subset of: {','.join(FAMILIES)}")
    p.add_argument("--qubits", default=f"{MIN_QUBITS}..{MAX_QUBITS}", help="qubit range LO..HI")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random-variants", type=int, default=DEFAULT_RANDOM_VARIANTS)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("label", help="brute-force label a corpus")
    p.add_argument("--corpus", required=True, help="directory written by generate")
    p.add_argument("--out", help="output directory (default: the corpus directory)")
    add_devices(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train and evaluate a classifier")
    p.add_argument("--data", required=True, help="directory holding labels.csv and features.csv")
    p.add_argument("--out", help="output directory (default: the data directory)")
    add_devices(p)
    p.add_argument("--seed", type=int, default=0, help="seeds both the train/test split and the forest")
    p.add_argument("--classifier", choices=("forest", "knn", "nb"), default="forest")
    p.add_argument("--grid-search", action="store_true", help="cross-validated hyperparameter search")
    # argparse.SUPPRESS leaves a flag unset unless given, so cmd_train can
    # refuse one that the chosen mode would ignore
    p.add_argument("--folds", type=int, default=argparse.SUPPRESS,
                   help=f"cross-validation folds of --grid-search (default {DEFAULT_FOLDS})")
    p.add_argument("--n-trees", type=int, default=argparse.SUPPRESS,
                   help=f"forest size (default {DEFAULT_FOREST_PARAMS['n_trees']})")
    p.add_argument("--max-depth", type=lambda v: None if v == "none" else int(v), default=argparse.SUPPRESS,
                   help=f"int or 'none' (default {DEFAULT_FOREST_PARAMS['max_depth']})")
    p.add_argument("--min-samples-leaf", type=int, default=argparse.SUPPRESS,
                   help=f"fewest rows in a leaf (default {DEFAULT_FOREST_PARAMS['min_samples_leaf']})")
    p.add_argument("--knn-k", type=int, default=argparse.SUPPRESS,
                   help=f"neighbors of --classifier knn (default {DEFAULT_KNN_K})")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict the best option for one circuit")
    p.add_argument("circuit", help="OpenQASM file")
    p.add_argument("--model", required=True, help="trained model file")
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--explain", action="store_true", help="also print feature importances")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compile", help="compile a circuit with a chosen or predicted option")
    p.add_argument("circuit", help="OpenQASM file")
    p.add_argument("--option", help="explicit option id, e.g. dev8/A/O3")
    p.add_argument("--model", help="predict the option with this model")
    p.add_argument("--all", action="store_true", help="rank every option instead (ground-truth mode)")
    add_devices(p)
    p.add_argument("--out", help="output file (compiled OpenQASM, or ranking CSV with --all)")
    p.add_argument("--stats", help="write compile stats JSON here")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("evaluate", help="re-score a model on its own held-out split and export figure data")
    p.add_argument("--data", required=True, help="directory holding labels.csv and features.csv")
    p.add_argument("--model", help="model file (default: <data>/model.bin)")
    p.add_argument("--out", help="output directory (default: the data directory)")
    add_devices(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
