import re
from math import asin, pi, sin, sqrt

import numpy as np
import pytest

from qcpredict.circuit import GATE_SIGNATURES, Circuit, CircuitError, gate, validate
from qcpredict.generators import (
    _RANDOM_1Q,
    _RANDOM_2Q,
    _measure_all,
    DEFAULT_RANDOM_VARIANTS,
    FAMILIES,
    dj,
    generate_corpus,
    ghz,
    grover,
    qaoa,
    qft,
    random_circuit,
    wstate,
)
from qcpredict.simulator import simulate_statevector, strip_nonunitary


def _state(circuit):
    return simulate_statevector(strip_nonunitary(circuit))


def test_ghz_state():
    s = _state(ghz(3))
    assert abs(s[0]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert abs(s[7]) ** 2 == pytest.approx(0.5, abs=1e-12)
    assert np.sum(np.abs(s) ** 2) == pytest.approx(1.0)
    assert abs(s[1]) == pytest.approx(0.0, abs=1e-12)


def test_ghz_shape_and_name():
    c = ghz(5)
    assert c.name == "ghz_005"
    assert c.num_qubits == 5 and c.num_clbits == 5
    assert c.num_gates() == 5  # h + 4 cx
    assert sum(1 for op in c.ops if op.kind == "measure") == 5
    validate(c)


def test_wstate_uniform_one_hot():
    for n in (2, 3, 4, 6):
        s = _state(wstate(n))
        onehot = [1 << k for k in range(n)]
        for i in onehot:
            assert s[i].real == pytest.approx(1.0 / sqrt(n), abs=1e-12)
            assert s[i].imag == pytest.approx(0.0, abs=1e-12)
        mass = sum(abs(s[i]) ** 2 for i in onehot)
        assert mass == pytest.approx(1.0, abs=1e-12)


def test_dj_constant_oracle_reads_all_zeros():
    c = dj(4, variant=0)
    s = _state(c)
    # inputs are qubits 0..2 (ancilla last); all-zero inputs carry all the mass
    n = 4
    prob_zero_inputs = sum(
        abs(s[i]) ** 2 for i in range(2 ** n) if (i >> 1) == 0  # upper 3 bits zero
    )
    assert prob_zero_inputs == pytest.approx(1.0, abs=1e-12)


def test_dj_balanced_oracle_never_reads_zeros():
    for variant in (1, 2):
        c = dj(4, variant=variant, seed=5)
        s = _state(c)
        prob_zero_inputs = sum(abs(s[i]) ** 2 for i in range(16) if (i >> 1) == 0)
        assert prob_zero_inputs == pytest.approx(0.0, abs=1e-12)


def test_dj_measures_inputs_only():
    c = dj(5, variant=1, seed=0)
    measures = [op for op in c.ops if op.kind == "measure"]
    assert len(measures) == 4
    assert all(op.qubits[0] != 4 for op in measures)
    assert c.num_clbits == 4


def test_qft_matches_dft_matrix():
    n = 3
    size = 2 ** n
    dft = np.array(
        [[np.exp(2j * np.pi * j * k / size) for k in range(size)] for j in range(size)]
    ) / np.sqrt(size)
    core = strip_nonunitary(qft(n))
    for j in range(size):
        prep = tuple(gate("x", (q,)) for q in range(n) if (j >> (n - 1 - q)) & 1)
        out = simulate_statevector(Circuit(n, 0, prep + core.ops, "probe"))
        assert np.allclose(out, dft[:, j], atol=1e-9), j


def test_grover_amplifies_all_ones():
    s2 = _state(grover(2))
    assert abs(s2[3]) ** 2 == pytest.approx(1.0, abs=1e-12)
    s3 = _state(grover(3))
    theta = asin(1.0 / sqrt(8.0))
    assert abs(s3[7]) ** 2 == pytest.approx(sin(5 * theta) ** 2, abs=1e-9)


def test_grover_rejects_unsupported_sizes():
    with pytest.raises(CircuitError):
        grover(4)
    with pytest.raises(CircuitError):
        grover(1)


def test_qaoa_structure():
    c = qaoa(5, layers=2, seed=3)
    assert c.name == "qaoa_005_p2"
    counts = c.gate_counts()
    assert counts["h"] == 5
    assert counts["rzz"] == 10  # 5 ring edges x 2 layers
    assert counts["rx"] == 10
    validate(c)
    # two qubits: the ring degenerates to one edge
    c2 = qaoa(2, layers=1, seed=0)
    assert c2.gate_counts()["rzz"] == 1


def test_qaoa_seeded_angles_reproduce():
    a = qaoa(4, layers=2, seed=9)
    b = qaoa(4, layers=2, seed=9)
    assert a.ops == b.ops
    c = qaoa(4, layers=2, seed=10)
    assert a.ops != c.ops


def test_random_circuit_shape_and_determinism():
    c = random_circuit(4, seed=8, variant=2)
    assert c.name == "random_004_v2"
    assert c.num_gates() == 16
    assert sum(1 for op in c.ops if op.kind == "measure") == 4
    validate(c)
    again = random_circuit(4, seed=8, variant=2)
    assert c.ops == again.ops
    other = random_circuit(4, seed=8, variant=3)
    assert c.ops != other.ops


def _reference_random_circuit(n: int, seed: int = 0, variant: int = 0) -> Circuit:
    """The reference: random_circuit with one uniform call for every gate,
    an empty one included, and each drawn number converted on its own."""
    if n < 2:
        raise CircuitError("random circuits need at least 2 qubits")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(variant,)))
    ops = []
    for _ in range(4 * n):
        draw = rng.random()
        if draw < 0.60:
            kind = _RANDOM_1Q[int(rng.integers(len(_RANDOM_1Q)))]
            qubits = (int(rng.integers(n)),)
        elif draw < 0.95 or n < 3:
            kind = _RANDOM_2Q[int(rng.integers(len(_RANDOM_2Q)))]
            qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
        else:
            kind = "ccx"
            qubits = tuple(int(q) for q in rng.choice(n, size=3, replace=False))
        nparams = GATE_SIGNATURES[kind][1]
        params = tuple(float(a) for a in rng.uniform(0.0, 2.0 * pi, size=nparams))
        ops.append(gate(kind, qubits, params))
    _measure_all(ops, range(n))
    return Circuit(n, n, tuple(ops), name=f"random_{n:03d}_v{variant}")


@pytest.mark.parametrize("n", [2, 3, 4, 14, 64, 127, 130])
def test_random_circuit_matches_the_reference(n):
    """Every op, down to the Python type of each qubit and angle, is the
    reference's: the skipped empty draws left every later draw in place."""
    for seed in (0, 1, 987654321, 2**32 - 1, 2**63 + 5):
        for variant in (0, 3, 6):
            got = random_circuit(n, seed=seed, variant=variant)
            want = _reference_random_circuit(n, seed=seed, variant=variant)
            assert got.name == want.name and got.num_clbits == want.num_clbits
            assert got.ops == want.ops
            assert [tuple(map(type, op.qubits + op.params)) for op in got.ops] == \
                [tuple(map(type, op.qubits + op.params)) for op in want.ops]


def test_an_empty_uniform_draw_leaves_the_generator_state():
    """random_circuit skips uniform(size=0) for a gate without angles, which
    is exact only while numpy's empty draw consumes nothing."""
    rng = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(2,)))
    rng.random()
    before = rng.bit_generator.state
    assert rng.uniform(0.0, 2.0 * pi, size=0).shape == (0,)
    assert rng.bit_generator.state == before
    # a nonempty draw does move it, so the comparison above can fail
    rng.uniform(0.0, 2.0 * pi, size=1)
    assert rng.bit_generator.state != before


def test_random_circuit_no_toffoli_below_three_qubits():
    for seed in range(30):
        c = random_circuit(2, seed=seed)
        assert all(len(op.qubits) <= 2 for op in c.ops)


def test_random_circuit_params_in_range():
    c = random_circuit(6, seed=1)
    for op in c.gates():
        for p in op.params:
            assert 0.0 <= p < 2 * np.pi


def test_generators_reject_tiny_sizes():
    for build in (ghz, wstate, dj, qft):
        with pytest.raises(CircuitError):
            build(1)
    with pytest.raises(CircuitError):
        qaoa(3, layers=0)


def test_corpus_default_count():
    corpus = generate_corpus()
    # 129 sizes for 7 families: 1+1+3+1+3+7 variants each, grover only at 2 and 3
    assert len(corpus) == 2066
    names = [c.name for c in corpus]
    assert len(set(names)) == len(names)


def test_corpus_desk_count():
    corpus = generate_corpus(qubit_range=(2, 30), random_variants=9)
    assert len(corpus) == 29 * (1 + 1 + 3 + 1 + 3 + 9) + 2
    assert len(corpus) == 524


def test_corpus_family_subset_and_order():
    corpus = generate_corpus(families=("qft", "ghz"), qubit_range=(2, 4))
    assert [c.name for c in corpus] == ["qft_002", "qft_003", "qft_004", "ghz_002", "ghz_003", "ghz_004"]


def test_corpus_deterministic():
    a = generate_corpus(families=("random", "qaoa", "dj"), qubit_range=(2, 5), seed=4)
    b = generate_corpus(families=("random", "qaoa", "dj"), qubit_range=(2, 5), seed=4)
    assert [(c.name, c.ops) for c in a] == [(d.name, d.ops) for d in b]
    shifted = generate_corpus(families=("random",), qubit_range=(2, 5), seed=5)
    assert any(c.ops != d.ops for c, d in zip(a, shifted))


def test_corpus_validation():
    with pytest.raises(ValueError, match="unknown circuit family"):
        generate_corpus(families=("ghz", "bogus"))
    # one string is not split into letters
    with pytest.raises(ValueError, match="^families must be a list of family names, got the string 'ghz'$"):
        generate_corpus(families="ghz", qubit_range=(2, 3))
    with pytest.raises(ValueError, match="qubit range"):
        generate_corpus(qubit_range=(5, 3))
    with pytest.raises(ValueError, match="qubit range"):
        generate_corpus(qubit_range=(0, 4))
    with pytest.raises(ValueError, match="qubit range"):
        generate_corpus(qubit_range=(2, 500))
    with pytest.raises(ValueError, match="circuit family 'ghz' is listed twice"):
        generate_corpus(families=("ghz", "qft", "ghz"), qubit_range=(2, 3))
    with pytest.raises(ValueError, match="random_variants must be at least 0, got -1"):
        generate_corpus(families=("random",), qubit_range=(2, 3), random_variants=-1)
    assert generate_corpus(families=("random",), qubit_range=(2, 3), random_variants=0) == []
    # a bound that is not an int is refused by name before any family is
    # built, a bool included
    for variants in (True, False, 1.5, "2", None):
        with pytest.raises(ValueError, match=rf"^random_variants must be an integer, got {re.escape(repr(variants))}$"):
            generate_corpus(families=("ghz", "random"), qubit_range=(2, 3), random_variants=variants)
    for qubits in ((2.5, 3), (2, 3.0), (True, 3), (2, "3"), (2, 3, 4)):
        with pytest.raises(ValueError, match=rf"^qubit_range must be two integers \(lo, hi\), got {re.escape(repr(qubits))}$"):
            generate_corpus(families=("ghz",), qubit_range=qubits)
    # a bad seed is refused before any family is built, also by families that
    # draw nothing from it
    for seed in (-1, 1.5, True, False, "0", None, np.int64(3)):
        for families in (None, ("ghz",)):
            with pytest.raises(ValueError, match=rf"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"):
                generate_corpus(families=families, qubit_range=(2, 3), seed=seed)
    assert len(generate_corpus(qubit_range=(2, 3), seed=2**64)) == 34


def test_family_list_is_stable():
    assert FAMILIES == ("ghz", "wstate", "dj", "qft", "grover", "qaoa", "random")
    assert DEFAULT_RANDOM_VARIANTS == 7
