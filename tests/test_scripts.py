import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import qcpredict
from qcpredict.circuit import Instruction, gate
from qcpredict.cli import main
from qcpredict.generators import ghz, qft
from qcpredict.pipeline import write_corpus

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_script(script, *argv):
    # the child imports the same qcpredict this process does
    src = str(Path(qcpredict.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compile_digests_prints_one_stable_digest_per_function(tmp_path):
    write_corpus(tmp_path, [ghz(3), qft(4)])
    out = _run_script("compile_digests.py", str(tmp_path))
    lines = [line.split() for line in out.splitlines()]
    assert [line[0] for line in lines] == ["optimize", "_run_stage", "decompose_to_native", "route", "place_graph"]
    counts = {name: int(calls) for name, calls, _ in lines}
    # two circuits on five devices: one graph placement each, and a route
    # and a lowering per distinct layout
    assert counts["place_graph"] == 10
    assert counts["route"] == counts["decompose_to_native"] >= 10
    assert counts["optimize"] > 0 and counts["_run_stage"] > 0
    assert all(len(digest) == 64 for _, _, digest in lines)
    assert _run_script("compile_digests.py", str(tmp_path)) == out
    narrowed = _run_script("compile_digests.py", str(tmp_path), "--device", "dev8")
    assert narrowed.splitlines()[4].split()[1] == "2"


def test_compile_digests_tell_param_types_and_zero_signs_apart():
    spec = importlib.util.spec_from_file_location("compile_digests", SCRIPTS / "compile_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    texts = {
        module.encode(op)
        for op in (gate("rz", (0,), (0.0,)), gate("rz", (0,), (-0.0,)), Instruction("rz", (0,), (1,)), Instruction("rz", (0,), (1.0,)))
    }
    assert len(texts) == 4


def test_label_cost_prints_its_costs_and_writes_what_label_writes(tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(corpus, [ghz(3), qft(4)])
    out = _run_script("label_cost.py", str(corpus), str(tmp_path / "measured"))
    cost = json.loads(out)
    assert set(cost) == {"wall_s", "gc_s", "gc_collections", "gc_collections_by_generation", "peak_rss_mb"}
    assert cost["wall_s"] > 0 and cost["peak_rss_mb"] > 0 and cost["gc_collections"] >= 0
    by_generation = cost["gc_collections_by_generation"]
    assert len(by_generation) == 3 and sum(by_generation) == cost["gc_collections"]
    assert main(["label", "--corpus", str(corpus), "--out", str(tmp_path / "plain")]) == 0
    for name in ("labels.csv", "features.csv", "excluded.csv"):
        assert (tmp_path / "measured" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
