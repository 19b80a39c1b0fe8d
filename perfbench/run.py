#!/usr/bin/env python3
"""Benchmark of qcpredict's label -> train -> predict loop.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_narrow --seed 0 --seconds 10 --trace 0

Every workload is one single-process user session, repeated in cycles until
``--seconds`` have passed: generate a corpus, label it with ``qcpredict
label``, train the default forest with ``qcpredict train``, load the model
and serve predict-then-compile requests. The workloads differ in the corpus
they label (see perfbench/RATIONALE.md). ``--trace 0`` prints the end-to-end
metrics, timed on the reference clock of perfbench/refclock.py; ``--trace 1``
runs the session traced, twice, and prints the per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are the ones listed in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH / "reference_seed0.json"
REFERENCE_SEED = 0

WORKLOADS = ("sweep_narrow", "sweep_wide")

# sweep_narrow corpus: `qcpredict generate --qubits 2..14 --random-variants 3`
NARROW_QUBITS = "2..14"
NARROW_RANDOM_VARIANTS = "3"
# sweep_wide corpus: a stratified draw over 28..127 qubits, one width per
# equal band of the range and the variants of a family in turn, so every seed
# costs about the same; qft has no seeded variants and grows fastest, so its
# two widths are fixed
WIDE_RANGE = (28, 127)
WIDE_DRAW = {"ghz": 4, "wstate": 4, "dj": 10, "qaoa": 10, "random": 8}
WIDE_QFT = (36, 39)
WIDE_RANDOM_VARIANTS = 3
# fresh serve requests next to the held-out split: this many seeded corpora
# of 117 circuits each, so that about 1000 distinct requests, rather than a
# few repeated ones, set the tail latency
FRESH_FAMILIES = ("random", "qaoa", "dj")
FRESH_QUBITS = (2, 14)
FRESH_CORPORA = 8

SERVE_STEP = 400
# a load takes a tenth of a second, so each serving stretch loads three times
LOADS_PER_STEP = 3
# p99 needs at least 10 successful requests beyond it
SERVE_MIN_OK = 1000
VERIFY_SAMPLE = {"narrow": 16, "wide": 6}
SCORE_REL_TOL = 1e-9
PROBE = ("qft", 120, "dev127/A/O3")
LABEL_TIMEOUT_AT_SEED = 10.0


class Checks:
    """Operations attempted and failed, and whether every output was right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []

    def attempt(self, ok: bool, wrong: str | None = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if wrong is not None:
                self.wrong.append(wrong)


class Session:
    """One run of a workload: its inputs, the program's outputs, the checks."""

    def __init__(self, qc, workload: str, seed: int, seconds: float, checks: Checks, reference: dict | None):
        self.qc = qc
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.checks = checks
        self.reference = reference
        self.dirs = {"narrow": WORK / "narrow", "wide": WORK / "wide"}
        self.own = "wide" if workload == "sweep_wide" else "narrow"
        self.times: dict[str, list[float]] = {"setup": [], "label": [], "train": [], "load": [], "latency": []}
        self.labels: dict[str, dict[str, tuple[float, ...]]] = {}
        self.served: dict[str, tuple] = {}
        self.infeasible = 0
        self.order: list[int] | None = None
        self.sent = 0
        self.report: dict = {}
        self.model_bytes = 0
        self.span = lambda name, item=None: contextlib.nullcontext()
        # the clock every step is timed with: wall time in traced runs, the
        # reference clock in untraced ones
        self.now = time.perf_counter

    def start_timer(self) -> float:
        """Start a timing with no garbage left by the step before, so that
        collector work lands on the step that caused it."""
        gc.collect()
        return self.now()

    # -- setup -------------------------------------------------------------
    def setup(self, keep: bool = True) -> None:
        """builtin_devices + enumerate_options + corpus generation and writing.

        A set-up that is not kept is timed and then thrown away, so the run
        keeps serving the devices and requests of its first set-up."""
        qc = self.qc
        base = WORK if keep else WORK / "discarded"
        dirs = {corpus: base / corpus for corpus in self.dirs}
        for d in dirs.values():
            shutil.rmtree(d, ignore_errors=True)
        started = self.start_timer()
        devices = qc.builtin_devices()
        options = qc.enumerate_options(devices)
        cli(qc, "generate", "--out", dirs["narrow"], "--qubits", NARROW_QUBITS,
            "--random-variants", NARROW_RANDOM_VARIANTS, "--seed", self.seed)
        if self.own == "wide":
            qc.pipeline.write_corpus(dirs["wide"], wide_corpus(qc, self.seed))
        fresh = []
        for j in range(FRESH_CORPORA):
            corpus = qc.generate_corpus(families=FRESH_FAMILIES, qubit_range=FRESH_QUBITS,
                                        seed=derived_seed(self.seed, f"fresh-{j}"), random_variants=3)
            fresh += [(f"fresh{j}:{c.name}", qc.to_qasm(c)) for c in corpus]
        self.times["setup"].append(self.now() - started)
        if not keep:
            shutil.rmtree(base)
        else:
            self.devices, self.options, self.fresh = devices, options, fresh
            self.fleet = {d.id: d for d in devices}

    # -- label and train ---------------------------------------------------
    def label(self, corpus: str) -> float:
        started = self.start_timer()
        cli(self.qc, "label", "--corpus", self.dirs[corpus])
        elapsed = self.now() - started
        self.check_labels(corpus)
        return elapsed

    def check_labels(self, corpus: str) -> None:
        """Score vectors against the first pass of this run and, at the
        reference seed, against the stored reference."""
        scores = read_label_scores(self.dirs[corpus] / "labels.csv")
        names = [e["name"] for e in json.loads((self.dirs[corpus] / "manifest.json").read_text())["files"]]
        first = self.labels.setdefault(corpus, scores)
        expected = self.reference.get(corpus, {}) if self.reference is not None else {}
        for name in names:
            got = scores.get(name)
            ok = got is not None and got == first.get(name)
            if name in expected:
                ok = ok and list(got) == expected[name]
            self.checks.attempt(ok, f"label {corpus}/{name}")

    def train(self) -> float:
        started = self.start_timer()
        cli(self.qc, "train", "--data", self.dirs["narrow"])
        elapsed = self.now() - started
        self.report = json.loads((self.dirs["narrow"] / "report.json").read_text())
        self.model_bytes = (self.dirs["narrow"] / "model.bin").stat().st_size
        return elapsed

    # -- serve -------------------------------------------------------------
    def load_model(self, times: int = 1):
        """`load_model`, timed, `times` times over; returns the last model."""
        for _ in range(times):
            started = self.start_timer()
            model = self.qc.load_model(self.dirs["narrow"] / "model.bin")
            self.times["load"].append(self.now() - started)
        return model

    def requests(self) -> list[tuple[str, str]]:
        """The held-out split `qcpredict train` evaluates on, plus fresh circuits."""
        qc = self.qc
        samples = qc.pipeline.load_labeled_dataset(self.dirs["narrow"], self.options)
        _, test = qc.split(samples, qc.pipeline.DEFAULT_TEST_FRACTION, 0)
        circuits = self.dirs["narrow"] / "circuits"
        held_out = [(f"test:{s.name}", (circuits / f"{s.name}.qasm").read_text()) for s in test]
        return held_out + self.fresh

    def serve(self, model, requests, successes: int | None) -> None:
        """Closed loop, one client: each request is sent after the last one
        returned, until `successes` more requests succeeded, or each request
        once if `successes` is None. Requests go in a seeded order that
        continues across calls. A prediction of a device the circuit does not
        fit is refused by the program; the refusal is checked and counted, and
        serving goes on."""
        qc = self.qc
        schema = qc.full_schema()
        columns = [schema.names.index(r) for r in model.schema.retained]
        if self.order is None:
            self.order = list(range(len(requests)))
            random.Random(derived_seed(self.seed, "order")).shuffle(self.order)
        gc.collect()
        ok = 0
        for i in itertools.count():
            if successes is None:
                if i == len(requests):
                    break
            elif ok >= successes:
                break
            rid, text = requests[self.order[self.sent % len(requests)]]
            self.sent += 1
            with self.span("bench.request", rid):
                t0 = self.now()
                circuit = qc.parse_qasm(text, name=rid)
                vector = qc.extract_features(circuit, schema)
                label = model.label_space[int(qc.predict_many(model, vector[columns][None, :])[0])]
                option = qc.parse_option(label)
                try:
                    result = qc.compile_circuit(circuit, option, self.fleet)
                except qc.InfeasibleError:
                    result = None
                else:
                    score = qc.evaluate_score(result, self.fleet[option.device_id])
                    compiled = qc.to_qasm(result.circuit)
                    self.times["latency"].append(self.now() - t0)
                    ok += 1
            self.check_request(rid, circuit, label, result, None if result is None else (score.value, compiled))

    def check_request(self, rid, circuit, label, result, output) -> None:
        """Same answer every time; at the reference seed, the reference
        prediction; the first time, a legal circuit whose score is the
        calibrated fidelity product, or, for a refusal, a device that is
        really too small for the circuit."""
        first = self.served.get(rid)
        expected = self.reference.get("serve", {}).get(rid) if self.reference is not None else None
        right = (expected is None or label == expected) and (first is None or first == (label, output))
        if first is None:
            self.served[rid] = (label, output)
            device = self.fleet[self.qc.parse_option(label).device_id]
            if result is None:
                self.infeasible += 1
                right = right and circuit.num_qubits > device.num_qubits
            else:
                legal, _ = self.qc.is_device_legal(result.circuit, device)
                right = right and legal and math.isclose(
                    output[0], fidelity_product(result.circuit, device), rel_tol=SCORE_REL_TOL)
        self.checks.attempt(right, f"request {rid}")

    # -- independent checks ------------------------------------------------
    def verify(self, corpus: str) -> None:
        """A seeded sample of (circuit, option) compiles: device legality,
        statevector equivalence up to the simulator's cap, and the score
        recomputed here from the device calibration."""
        qc = self.qc
        labels = self.labels[corpus]
        pairs = [(name, i) for name in sorted(labels) for i, v in enumerate(labels[name]) if v > 0.0]
        rng = random.Random(derived_seed(self.seed, f"verify-{corpus}"))
        sample = rng.sample(pairs, min(VERIFY_SAMPLE[corpus], len(pairs)))
        for name, i in sample:
            with self.span("bench.check", name):
                option = self.options[i]
                circuit = qc.parse_qasm((self.dirs[corpus] / "circuits" / f"{name}.qasm").read_text(), name=name)
                result = qc.compile_circuit(circuit, option, self.fleet)
                device = self.fleet[option.device_id]
                legal, _ = qc.is_device_legal(result.circuit, device)
                same_score = legal and math.isclose(
                    labels[name][i], fidelity_product(result.circuit, device), rel_tol=SCORE_REL_TOL)
                try:
                    equivalent = qc.check_equivalence(circuit, result.circuit, result.layout)
                except qc.SimulationError:
                    equivalent = True  # wider than the simulator: undecided, not wrong
            self.checks.attempt(legal and same_score and equivalent, f"verify {name} {option.option_id}")


def derived_seed(seed: int, purpose: str) -> int:
    return random.Random(f"{seed}:{purpose}").getrandbits(32)


def wide_corpus(qc, seed: int):
    rng = random.Random(derived_seed(seed, "wide"))
    lo, hi = WIDE_RANGE
    circuits = []
    for family, count in WIDE_DRAW.items():
        offset = rng.randrange(WIDE_RANDOM_VARIANTS)
        for k in range(count):
            band_lo = lo + (hi + 1 - lo) * k // count
            band_hi = lo + (hi + 1 - lo) * (k + 1) // count - 1
            n = rng.randint(band_lo, band_hi)
            variants = qc.generate_corpus(families=[family], qubit_range=(n, n), seed=seed,
                                          random_variants=WIDE_RANDOM_VARIANTS)
            circuits.append(variants[(offset + k) % len(variants)])
    for n in WIDE_QFT:
        circuits += qc.generate_corpus(families=["qft"], qubit_range=(n, n), seed=seed)
    return circuits


def fidelity_product(circuit, device) -> float:
    """Product of calibrated gate and readout fidelities, summed in log space."""
    log_total = 0.0
    for op in circuit.ops:
        if op.kind == "measure":
            log_total += math.log(device.calib.readout_fidelity[op.qubits[0]])
        elif op.kind != "barrier":
            log_total += math.log(device.calib.gate_fidelity[(op.kind, op.qubits)])
    return math.exp(log_total)


def read_label_scores(path: Path) -> dict[str, tuple[float, ...]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {row[0]: tuple(float(v) for v in row[2:]) for row in (line.split(",") for line in lines[1:] if line)}


def cli(qc, *argv) -> None:
    """`qcpredict <argv>` in this process; its stdout is dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = qc.cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"qcpredict {' '.join(map(str, argv))} exited {code}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the two kinds of run

def run_untraced(s: Session, clock_module) -> dict[str, float]:
    """Cycles of set-up, label and train, each step followed by a load and a
    stretch of serving once a model exists, until `--seconds` have passed
    and enough requests succeeded, all timed on the reference clock. Every
    metric's samples thus spread over the whole run."""
    requests = None

    def load_and_serve() -> None:
        if requests is not None:
            s.serve(s.load_model(LOADS_PER_STEP), requests, SERVE_STEP)

    started = time.perf_counter()
    with clock_module.ReferenceClock() as clock:
        s.now = clock.now
        for cycle in itertools.count():
            if cycle > 0 and time.perf_counter() - started >= s.seconds and len(s.times["latency"]) >= SERVE_MIN_OK:
                break
            s.setup(keep=cycle == 0)
            load_and_serve()
            if s.own == "wide" and cycle == 0:
                s.label("narrow")  # the labels the serving model is trained on
            s.times["label"].append(s.label(s.own))
            load_and_serve()
            s.times["train"].append(s.train())
            if requests is None:
                requests = s.requests()
            load_and_serve()
    s.now = time.perf_counter
    s.checks.notes.append(f"the host ran at {clock.mean_factor():.2f} of the reference speed "
                          f"({len(clock.probes)} probes); wall seconds = reference seconds / that")
    s.verify(s.own)

    latency = s.times["latency"]
    return {
        "setup_s": statistics.median(s.times["setup"]),
        "label_s": statistics.median(s.times["label"]),
        "train_s": statistics.median(s.times["train"]),
        "accuracy": s.report["accuracy"],
        "top3": s.report["top3"],
        "model_bytes": s.model_bytes,
        "model_load_s": statistics.median(s.times["load"]),
        "latency_p50_ms": 1e3 * statistics.median(latency),
        "latency_p99_ms": 1e3 * percentile(latency, 0.99),
        "peak_rss_mb": peak_rss_mb(),
        "feasible_frac": 1.0 - s.infeasible / len(s.served),
    }


def traced_pass(s: Session, tracer) -> float:
    """The session once, traced: every phase, each request once."""
    s.span = tracer.span
    with tracer.installed():
        with tracer.span("bench.setup"):
            s.setup()
        with tracer.span("bench.label"):
            narrow_label = s.label("narrow")
        with tracer.span("bench.train"):
            s.train()
        own_label = narrow_label
        if s.own == "wide":
            with tracer.span("bench.label"):
                own_label = s.label("wide")
        with tracer.span("bench.load"):
            model = s.load_model()
        requests = s.requests()
        with tracer.span("bench.serve"):
            s.serve(model, requests, None)
        with tracer.span("bench.verify"):
            s.verify(s.own)
    return own_label


def layer_metrics(tracer, traced_label: float, untraced_label: float, headroom: float) -> dict[str, float]:
    total, longest = tracer.self_times()
    counts = tracer.counts
    metrics: dict[str, float] = {}
    for name in ("cli.main", "qasm.parse_qasm", "qasm.to_qasm", "generators.generate_corpus",
                 "devices.builtin_devices", "compiler.compile_circuit", "compiler.expand_three_qubit",
                 "compiler.place_line", "compiler.place_graph", "compiler.route", "compiler.decompose_to_native",
                 "scoring.rank_options", "scoring.evaluate_score", "features.extract_features",
                 "ml.fit_forest", "ml.save_model", "ml.load_model", "ml.predict_many",
                 "pipeline.label_dataset", "pipeline.train_model", "pipeline.evaluate", "pipeline.read_corpus",
                 "pipeline.write_labels_csv", "simulator.check_equivalence"):
        metrics[f"{name}.s"] = total.get(name, 0.0)
        metrics[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for level in ("O1", "O2", "O3"):
        metrics[f"compiler.optimize.{level}.s"] = total.get(f"compiler.optimize.{level}", 0.0)
    metrics["compiler.optimize.calls"] = counts.get("compiler.optimize.calls", 0)
    for name in ("compiler.optimize.ops_removed", "compiler.decompose_to_native.ops_out", "compiler.route.swaps",
                 "scoring.evaluate_score.ops", "qasm.parse_qasm.bytes"):
        metrics[name] = counts.get(name, 0)
    for name in ("compiler.expand_three_qubit", "compiler.route", "compiler.decompose_to_native"):
        metrics[f"{name}.unique_frac"] = tracer.unique_frac(name)
    metrics["compiler.compile_circuit.max_s"] = longest.get("compiler.compile_circuit", 0.0)
    equivalence_calls = counts.get("simulator.check_equivalence.calls", 0)
    metrics["simulator.verified_frac"] = (
        counts.get("simulator.check_equivalence.decided", 0) / equivalence_calls if equivalence_calls else 0.0)
    metrics["trace.overhead_frac"] = traced_label / untraced_label - 1.0
    metrics["compiler.timeout_headroom_s"] = headroom
    return metrics


def run_traced(s: Session, trace_module) -> dict[str, float]:
    s.setup()
    if s.own == "wide":
        untraced_label = s.label("wide")
    else:
        untraced_label = s.label("narrow")
    tracers, traced_labels, determinism = [], [], []
    for _ in range(2):
        tracer = trace_module.Tracer()
        traced_labels.append(traced_pass(s, tracer))
        tracers.append(tracer)
        determinism.append({**tracer.count_summary(), "model_bytes": s.model_bytes,
                            "accuracy": s.report["accuracy"], "top3": s.report["top3"]})
    first, second = determinism
    for key in sorted(set(first) | set(second)):
        if first.get(key) != second.get(key):
            s.checks.wrong.append(f"count {key} differs between traced runs: {first.get(key)} vs {second.get(key)}")
    if tracers[0].absent:
        s.checks.notes.append("traced names absent from the package (0 calls): " + ", ".join(tracers[0].absent))
    tracers[0].write_spans(WORK / f"trace-{s.workload}-seed{s.seed}.jsonl")

    qc = s.qc
    family, width, option_id = PROBE
    circuit = qc.generate_corpus(families=[family], qubit_range=(width, width))[0]
    started = time.perf_counter()
    qc.compile_circuit(circuit, qc.parse_option(option_id), s.fleet)
    probe = time.perf_counter() - started
    timeout = getattr(qc.pipeline, "DEFAULT_TIMEOUT", LABEL_TIMEOUT_AT_SEED)
    return layer_metrics(tracers[0], traced_labels[0], untraced_label, timeout - probe)


# ---------------------------------------------------------------------------

def load_benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)

    if not (SRC / "qcpredict" / "__init__.py").is_file():
        print(f"error: no qcpredict sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    spec = load_benchmark_spec()
    sys.path.insert(0, str(SRC))
    import qcpredict as qc
    import qcpredict.cli  # noqa: F401  (loads the cli module for cli() and the tracer)
    sys.path.insert(0, str(BENCH))
    import refclock
    import tracing

    reference = None
    if args.seed == REFERENCE_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    checks = Checks()
    if reference is None and not args.write_reference:
        checks.notes.append(f"seed {args.seed}: reference outputs exist for seed {REFERENCE_SEED} only; "
                            "only the independent checks ran")

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    s = Session(qc, args.workload, args.seed, args.seconds, checks, reference)
    if args.trace:
        values = run_traced(s, tracing)
        wanted = spec["per_layer"]
    else:
        values = run_untraced(s, refclock)
        wanted = spec["end_to_end"]

    if args.write_reference:
        stored = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
        stored.update({corpus: {k: list(v) for k, v in scores.items()} for corpus, scores in s.labels.items()})
        stored["serve"] = {rid: label for rid, (label, _) in sorted(s.served.items())}
        REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {checks.attempted} operations, "
          f"{checks.failed} failed; {s.infeasible} of {len(s.served)} distinct requests predicted a device "
          f"the circuit does not fit, which the program refused, "
          f"{len(s.times['latency'])} requests served")
    if args.trace == 0:
        print(f"failed_frac {checks.failed / checks.attempted:.6f} ({checks.failed} of {checks.attempted}); "
              f"label passes {len(s.times['label'])}, train passes {len(s.times['train'])}")
    for note in checks.notes:
        print(f"note: {note}")
    for wrong in checks.wrong:
        print(f"WRONG: {wrong}")
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<44} {value:>16.6f} {entry['unit']}")
    shutil.rmtree(WORK / "narrow", ignore_errors=True)
    shutil.rmtree(WORK / "wide", ignore_errors=True)
    print(json.dumps({"correct": not checks.wrong, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
