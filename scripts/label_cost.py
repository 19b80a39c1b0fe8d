"""Measure what one ``qcpredict label`` run costs.

Usage:
    PYTHONPATH=src python3 scripts/label_cost.py CORPUS_DIR OUT_DIR

Runs ``qcpredict label --corpus CORPUS_DIR --out OUT_DIR`` in this process and
prints one JSON line on stdout (label's own message goes to stderr):

- ``wall_s``: wall-clock seconds of the label command;
- ``gc_s``: seconds the cyclic garbage collector spent during it, summed
  from ``gc.callbacks`` start/stop pairs. ``label_dataset`` pauses the
  collector while it labels, so these are only the collections outside
  that loop: loading the fleet before it and writing the files after it;
- ``gc_collections``: the number of collections it ran;
- ``gc_collections_by_generation``: the same count split by the generation
  collected, ``[gen0, gen1, gen2]``;
- ``peak_rss_mb``: the process's peak resident set size, in MiB, at exit
  (``ru_maxrss``, so it includes the interpreter and imports).

The label files are those ``qcpredict label`` writes. A label that fails
exits with its status and prints no JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import sys
import time

from qcpredict.cli import main as qcpredict


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus")
    parser.add_argument("out")
    args = parser.parse_args(argv)
    by_generation = [0, 0, 0]
    collecting = 0.0
    started = 0.0

    def on_gc(phase: str, info: dict) -> None:
        nonlocal collecting, started
        if phase == "start":
            started = time.perf_counter()
        else:
            by_generation[info["generation"]] += 1
            collecting += time.perf_counter() - started

    gc.callbacks.append(on_gc)
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            status = qcpredict(["label", "--corpus", args.corpus, "--out", args.out])
        wall = time.perf_counter() - t0
    finally:
        gc.callbacks.remove(on_gc)
    if status != 0:
        return status
    print(json.dumps({
        "wall_s": round(wall, 3),
        "gc_s": round(collecting, 3),
        "gc_collections": sum(by_generation),
        "gc_collections_by_generation": by_generation,
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
