import pytest

from qcpredict.circuit import (
    CANONICAL_GATES,
    GATE_SIGNATURES,
    Circuit,
    CircuitError,
    Instruction,
    barrier,
    circuit_depth,
    gate,
    interaction_graph,
    measure,
    validate,
)


def ghz3():
    ops = (
        gate("h", (0,)),
        gate("cx", (0, 1)),
        gate("cx", (1, 2)),
        measure(0, 0),
        measure(1, 1),
        measure(2, 2),
    )
    return Circuit(3, 3, ops, name="ghz3")


def test_gate_builder_checks_arity_and_params():
    assert gate("cx", (0, 1)).qubits == (0, 1)
    assert gate("rz", (2,), (0.5,)).params == (0.5,)
    # the one-tuple build equals the NamedTuple constructor's, lists and int
    # angles become tuples and floats
    op = gate("cp", [3, 1], [1])
    assert type(op) is Instruction
    assert op == Instruction("cp", (3, 1), (1.0,), None)
    assert type(op.qubits) is tuple and type(op.params) is tuple and type(op.params[0]) is float
    assert measure(2, 1) == Instruction("measure", (2,), (), 1) and type(measure(2, 1)) is Instruction
    refusals = [
        (("nope", (0,)), "unknown gate kind 'nope'"),
        (("cx", (0,)), "cx expects 2 qubit(s), got 1"),
        (("h", (0, 1)), "h expects 1 qubit(s), got 2"),
        (("rz", (0,)), "rz expects 1 parameter(s), got 0"),  # missing angle
        (("u3", (0,), (0.1, 0.2)), "u3 expects 3 parameter(s), got 2"),
        (("cx", (1, 1)), "cx applied to duplicate qubits (1, 1)"),
        (("ccx", (0, 2, 0)), "ccx applied to duplicate qubits (0, 2, 0)"),
        (("cswap", [4, 4, 4]), "cswap applied to duplicate qubits (4, 4, 4)"),
    ]
    for args, message in refusals:
        with pytest.raises(CircuitError) as refused:
            gate(*args)
        assert str(refused.value) == message
    # an angle float() cannot convert raises what float() raises, before the
    # arity check
    for bad in ("abc", None, [0.5]):
        with pytest.raises(Exception) as expected:
            float(bad)
        for args in (("rz", (0,), (bad,)), ("cx", (0,), (bad,))):
            with pytest.raises(Exception) as refused:
                gate(*args)
            assert type(refused.value) is type(expected.value)
            assert str(refused.value) == str(expected.value)


def test_vocabulary_is_stable():
    # downstream feature vectors index into this exact ordering
    assert len(CANONICAL_GATES) == 31
    assert CANONICAL_GATES == tuple(GATE_SIGNATURES)
    assert CANONICAL_GATES[0] == "id"
    assert "measure" not in GATE_SIGNATURES
    assert all(GATE_SIGNATURES[k][0] in (1, 2, 3) for k in CANONICAL_GATES)


def test_circuit_is_immutable_and_validates_register():
    c = ghz3()
    with pytest.raises(Exception):
        c.num_qubits = 5
    with pytest.raises(CircuitError):
        Circuit(0)
    with pytest.raises(CircuitError):
        Circuit(2, -1)


def test_ghz3_depth_is_4():
    sched = circuit_depth(ghz3())
    assert sched.depth == 4
    # h | cx(0,1) | cx(1,2) | measures; the qubit-2 measure waits for its cx
    assert sched.layer_of == (1, 2, 3, 3, 4, 4)


def test_depth_of_empty_circuit_is_0():
    assert circuit_depth(Circuit(2)).depth == 0


def test_parallel_layers():
    ops = (gate("h", (0,)), gate("h", (1,)), gate("cx", (0, 1)))
    sched = circuit_depth(Circuit(2, 0, ops))
    assert sched.depth == 2
    assert sched.layer_of == (1, 1, 2)


def test_gate_counts_and_num_gates():
    c = ghz3()
    counts = c.gate_counts()
    assert counts == {"h": 1, "cx": 2, "measure": 3}
    assert c.num_gates() == 3  # measures are not gates


def test_interaction_graph_pairs():
    c = ghz3()
    assert interaction_graph(c) == {(0, 1), (1, 2)}
    ops = (gate("ccx", (2, 0, 1)),)
    assert interaction_graph(Circuit(3, 0, ops)) == {(0, 2), (1, 2), (0, 1)}
    assert interaction_graph(Circuit(3)) == set()


def test_barrier_does_not_interact_but_occupies_a_layer():
    ops = (gate("h", (0,)), barrier((0, 1)), gate("h", (1,)))
    c = Circuit(2, 0, ops)
    assert interaction_graph(c) == set()
    assert circuit_depth(c).depth == 3


def test_validate_accepts_ghz_and_rejects_bad_ops():
    validate(ghz3())
    from qcpredict.circuit import Instruction

    bad = Circuit(2, 1, (Instruction("cx", (0, 3)),))
    with pytest.raises(CircuitError, match="outside register"):
        validate(bad)
    with pytest.raises(CircuitError, match="classical register"):
        validate(Circuit(2, 1, (measure(0, 5),)))
    with pytest.raises(CircuitError, match="unknown kind"):
        validate(Circuit(2, 0, (Instruction("frobnicate", (0,)),)))
    with pytest.raises(CircuitError, match="duplicate"):
        validate(Circuit(2, 0, (Instruction("cx", (1, 1)),)))


def test_with_ops_preserves_registers():
    c = ghz3()
    trimmed = c.with_ops(c.ops[:2])
    assert trimmed.num_qubits == 3 and trimmed.num_clbits == 3
    assert trimmed.name == "ghz3"
    assert len(trimmed.ops) == 2
