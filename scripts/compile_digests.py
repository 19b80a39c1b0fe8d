"""Digest every call of the compiler's stages while labeling a corpus.

Usage:
    PYTHONPATH=src python3 scripts/compile_digests.py CORPUS_DIR [--device ID ...]

Reads the corpus that ``qcpredict generate`` (or ``pipeline.write_corpus``)
wrote to CORPUS_DIR and labels it with the builtin fleet, as ``qcpredict
label`` does, but writes nothing. ``optimize``, ``_run_stage``,
``decompose_to_native``, ``route`` and ``place_graph`` are wrapped on the way,
and for each the script prints one line: the function, its call count, and a
sha256 over every call's inputs and outputs, the changed flag included. Each
param enters as its type and ``float.hex``, so ``0.0`` and ``-0.0``, or ``1``
and ``1.0``, digest apart. Each op object is encoded once per circuit: its
text is kept by the op's identity, never by its value, which would mistake
``0.0`` for ``-0.0``. Two versions of the compiler are exact on the
corpus when their outputs are equal, as ``diff`` shows. ``--device`` keeps
only the options of the named devices.
"""
from __future__ import annotations

import argparse
import hashlib
import sys

from qcpredict import compiler, pipeline
from qcpredict.circuit import Circuit, Instruction
from qcpredict.compiler import enumerate_options
from qcpredict.devices import DeviceModel, builtin_devices

WRAPPED = ("optimize", "_run_stage", "decompose_to_native", "route", "place_graph")

# id(op) -> (op, its text); holding the op keeps its id from being reused
# while the entry lives. Cleared after each circuit, so memory stays bounded
_op_texts: dict[int, tuple[Instruction, str]] = {}


def encode(value) -> str:
    """A canonical text for an argument or a result."""
    if isinstance(value, Instruction):
        entry = _op_texts.get(id(value))
        if entry is None:
            params = ",".join(f"{type(p).__name__}:{float.hex(float(p))}" for p in value.params)
            entry = _op_texts[id(value)] = (value, f"I({value.kind};{value.qubits};{params};{value.clbit})")
        return entry[1]
    if isinstance(value, Circuit):
        return f"C({value.num_qubits};{value.num_clbits};{value.name};{encode(value.ops)})"
    if isinstance(value, DeviceModel):
        return f"D({value.id})"
    if isinstance(value, dict):
        return "{" + ",".join(f"{encode(k)}:{encode(v)}" for k, v in sorted(value.items())) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(encode(v) for v in value) + "]"
    if isinstance(value, float):
        return f"float:{float.hex(value)}"
    return f"{type(value).__name__}:{value!r}"


def wrap(name: str, digests: dict, counts: dict[str, int]):
    real = getattr(compiler, name)

    def wrapper(*args, **kwargs):
        # inputs are encoded before the call, in case it changes them
        text = encode(args) + encode(sorted(kwargs.items()))
        result = real(*args, **kwargs)
        # optimize returns its input when no stage changes anything
        out = (result, result is not args[0]) if name == "optimize" else result
        digests[name].update(f"{text}->{encode(out)}\n".encode())
        counts[name] += 1
        return result

    return real, wrapper


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus")
    parser.add_argument("--device", action="append", help="keep only this device's options")
    args = parser.parse_args(argv)

    devices = builtin_devices()
    fleet = {d.id: d for d in devices}
    options = [o for o in enumerate_options(devices) if not args.device or o.device_id in args.device]
    if not options:
        parser.error(f"no builtin device among {args.device}")
    circuits = pipeline.read_corpus(args.corpus)
    digests = {name: hashlib.sha256() for name in WRAPPED}
    counts = dict.fromkeys(WRAPPED, 0)
    originals = {}
    for name in WRAPPED:
        originals[name], wrapper = wrap(name, digests, counts)
        setattr(compiler, name, wrapper)
    try:
        for circuit in circuits:
            pipeline.label_dataset([circuit], options, fleet)
            _op_texts.clear()
    finally:
        for name, real in originals.items():
            setattr(compiler, name, real)
    for name in WRAPPED:
        print(f"{name} {counts[name]} {digests[name].hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
