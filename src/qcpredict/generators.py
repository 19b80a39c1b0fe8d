"""Parameterized benchmark circuit generators.

Seven families (GHZ, W state, Deutsch-Jozsa, QFT, Grover, ring QAOA, seeded
random) swept over a qubit range produce the training corpus. Generation is
deterministic: every random choice derives from one master seed through
spawn keys (family index, qubit count, variant).
"""
from __future__ import annotations

from math import acos, pi, sqrt

import numpy as np

from .circuit import GATE_SIGNATURES, Circuit, CircuitError, Instruction, barrier, gate, measure

FAMILIES = ("ghz", "wstate", "dj", "qft", "grover", "qaoa", "random")

GROVER_SIZES = (2, 3)
QAOA_LAYERS = (1, 2, 3)
DJ_VARIANTS = 3  # variant 0 constant, others balanced
DEFAULT_RANDOM_VARIANTS = 7
MIN_QUBITS = 2
MAX_QUBITS = 130


def _measure_all(ops: list[Instruction], qubits: range | list[int]) -> None:
    for i, q in enumerate(qubits):
        ops.append(measure(q, i))


def ghz(n: int) -> Circuit:
    """Hadamard plus a CNOT chain entangling all qubits, measured to match."""
    if n < 2:
        raise CircuitError("ghz needs at least 2 qubits")
    ops = [gate("h", (0,))]
    ops += [gate("cx", (i, i + 1)) for i in range(n - 1)]
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"ghz_{n:03d}")


def wstate(n: int) -> Circuit:
    """Uniform single-excitation state via a cascade of amplitude splitters.

    Each step moves a sqrt(1/(n-i)) share of the remaining amplitude one
    qubit down the chain, so all n one-hot amplitudes end up equal.
    """
    if n < 2:
        raise CircuitError("wstate needs at least 2 qubits")
    ops = [gate("x", (0,))]
    for i in range(n - 1):
        theta = acos(sqrt(1.0 / (n - i)))
        ops.append(gate("ry", (i + 1,), (-theta,)))
        ops.append(gate("cz", (i, i + 1)))
        ops.append(gate("ry", (i + 1,), (theta,)))
        ops.append(gate("cx", (i + 1, i)))
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"wstate_{n:03d}")


def dj(n: int, variant: int = 0, seed: int = 0) -> Circuit:
    """Deutsch-Jozsa on n-1 inputs plus one ancilla (the last qubit).

    Variant 0 embeds a constant-zero oracle; other variants draw a random
    nonempty balanced oracle (a parity over a seeded input subset).
    """
    if n < 2:
        raise CircuitError("dj needs at least 2 qubits")
    inputs = n - 1
    ops = [gate("x", (inputs,))]
    ops += [gate("h", (q,)) for q in range(n)]
    if variant != 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(variant,)))
        size = int(rng.integers(1, inputs + 1))
        subset = np.sort(rng.choice(inputs, size=size, replace=False))
        ops += [gate("cx", (int(q), inputs)) for q in subset]
    ops.append(barrier(tuple(range(n))))
    ops += [gate("h", (q,)) for q in range(inputs)]
    _measure_all(ops, range(inputs))
    return Circuit(n, inputs, tuple(ops), name=f"dj_{n:03d}_v{variant}")


def qft(n: int) -> Circuit:
    """Quantum Fourier transform: controlled phase ladder plus bit reversal."""
    if n < 2:
        raise CircuitError("qft needs at least 2 qubits")
    ops = []
    for i in range(n):
        ops.append(gate("h", (i,)))
        for j in range(i + 1, n):
            ops.append(gate("cp", (j, i), (pi / 2 ** (j - i),)))
    for i in range(n // 2):
        ops.append(gate("swap", (i, n - 1 - i)))
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"qft_{n:03d}")


def grover(n: int) -> Circuit:
    """Grover search marking the all-ones string; sized so the marked string
    dominates (1 iteration at n=2, 2 at n=3)."""
    if n not in GROVER_SIZES:
        raise CircuitError(f"grover supports {GROVER_SIZES} qubits, got {n}")

    def all_ones_phase(ops: list[Instruction]) -> None:
        if n == 2:
            ops.append(gate("cz", (0, 1)))
        else:
            ops.append(gate("h", (2,)))
            ops.append(gate("ccx", (0, 1, 2)))
            ops.append(gate("h", (2,)))

    ops = [gate("h", (q,)) for q in range(n)]
    for _ in range(1 if n == 2 else 2):
        all_ones_phase(ops)
        ops += [gate("h", (q,)) for q in range(n)]
        ops += [gate("x", (q,)) for q in range(n)]
        all_ones_phase(ops)
        ops += [gate("x", (q,)) for q in range(n)]
        ops += [gate("h", (q,)) for q in range(n)]
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"grover_{n:03d}")


def qaoa(n: int, layers: int = 1, seed: int = 0) -> Circuit:
    """Ring max-cut ansatz: alternating two-qubit phase and mixer layers with
    seeded angles."""
    if n < 2:
        raise CircuitError("qaoa needs at least 2 qubits")
    if layers < 1:
        raise CircuitError("qaoa needs at least 1 layer")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(layers,)))
    edges = [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    ops = [gate("h", (q,)) for q in range(n)]
    for _ in range(layers):
        gamma = float(rng.uniform(0.0, 2.0 * pi))
        beta = float(rng.uniform(0.0, pi))
        for a, b in edges:
            ops.append(gate("rzz", (a, b), (gamma,)))
        for q in range(n):
            ops.append(gate("rx", (q,), (beta,)))
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"qaoa_{n:03d}_p{layers}")


_RANDOM_1Q = ("h", "x", "sx", "t", "rx", "ry", "rz")
_RANDOM_2Q = ("cx", "cz", "swap", "rzz", "cp")


def random_circuit(n: int, seed: int = 0, variant: int = 0) -> Circuit:
    """4n seeded gates: roughly 60% single-qubit, 35% two-qubit, 5% Toffoli
    (when width allows), then a full measurement layer.

    Each gate draws, in order: one uniform that picks its width, one integer
    that picks its kind from the width's list, its qubits (one integer, or a
    ``choice`` of 2 or 3 distinct qubits), then one angle in [0, 2*pi) per
    parameter. A gate without parameters draws no angle.
    """
    if n < 2:
        raise CircuitError("random circuits need at least 2 qubits")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(variant,)))
    ops = []
    for _ in range(4 * n):
        draw = rng.random()
        if draw < 0.60:
            kind = _RANDOM_1Q[rng.integers(len(_RANDOM_1Q))]
            qubits = (int(rng.integers(n)),)
        elif draw < 0.95 or n < 3:
            kind = _RANDOM_2Q[rng.integers(len(_RANDOM_2Q))]
            qubits = rng.choice(n, size=2, replace=False).tolist()
        else:
            kind = "ccx"
            qubits = rng.choice(n, size=3, replace=False).tolist()
        nparams = GATE_SIGNATURES[kind][1]
        params = rng.uniform(0.0, 2.0 * pi, size=nparams).tolist() if nparams else ()
        ops.append(gate(kind, qubits, params))
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"random_{n:03d}_v{variant}")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def generate_corpus(
    families: list[str] | tuple[str, ...] | None = None,
    qubit_range: tuple[int, int] = (MIN_QUBITS, MAX_QUBITS),
    seed: int = 0,
    random_variants: int = DEFAULT_RANDOM_VARIANTS,
) -> list[Circuit]:
    """Sweep the requested families over [lo, hi] qubits.

    Families with a restricted size domain (grover) are emitted only where
    defined. Refuses ``families`` given as one string, an unknown family, a
    family listed twice, a ``random_variants`` that is not a non-negative
    int, a ``seed`` that is not a non-negative int and a ``qubit_range``
    that is not two ints inside [MIN_QUBITS, MAX_QUBITS] in order (a bool
    is not an int here), naming the parameter, before generating anything,
    so a family that draws nothing does not let a bad value through.
    Returns circuits in a fixed (family, size, variant) order.
    """
    if isinstance(families, str):
        raise ValueError(f"families must be a list of family names, got the string {families!r}")
    chosen = tuple(families) if families is not None else FAMILIES
    for i, f in enumerate(chosen):
        if f not in FAMILIES:
            raise ValueError(f"unknown circuit family {f!r}; known: {', '.join(FAMILIES)}")
        if f in chosen[:i]:
            raise ValueError(f"circuit family {f!r} is listed twice")
    if not _is_int(random_variants):
        raise ValueError(f"random_variants must be an integer, got {random_variants!r}")
    if random_variants < 0:
        raise ValueError(f"random_variants must be at least 0, got {random_variants}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if len(qubit_range) != 2 or not all(_is_int(bound) for bound in qubit_range):
        raise ValueError(f"qubit_range must be two integers (lo, hi), got {qubit_range!r}")
    lo, hi = qubit_range
    if not (MIN_QUBITS <= lo <= hi <= MAX_QUBITS):
        raise ValueError(f"qubit range must satisfy {MIN_QUBITS} <= lo <= hi <= {MAX_QUBITS}")

    def family_seed(family: str, n: int, variant: int) -> int:
        key = (FAMILIES.index(family), n, variant)
        return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])

    corpus: list[Circuit] = []
    for family in chosen:
        for n in range(lo, hi + 1):
            if family == "ghz":
                corpus.append(ghz(n))
            elif family == "wstate":
                corpus.append(wstate(n))
            elif family == "dj":
                for v in range(DJ_VARIANTS):
                    corpus.append(dj(n, variant=v, seed=family_seed("dj", n, v)))
            elif family == "qft":
                corpus.append(qft(n))
            elif family == "grover":
                if n in GROVER_SIZES:
                    corpus.append(grover(n))
            elif family == "qaoa":
                for p in QAOA_LAYERS:
                    corpus.append(qaoa(n, layers=p, seed=family_seed("qaoa", n, p)))
            elif family == "random":
                for v in range(random_variants):
                    corpus.append(random_circuit(n, seed=family_seed("random", n, v), variant=v))
    return corpus
