from math import exp, log

import pytest

from qcpredict import compiler, scoring
from qcpredict.circuit import Circuit, gate, measure
from qcpredict.compiler import CompiledResult, InfeasibleError, compile_circuit, compile_options, parse_option
from qcpredict.devices import Calibration, DeviceModel
from qcpredict.scoring import CalibrationError, EvalScore, evaluate_score, rank_options, ranks_from_values


def _toy_device():
    coupling = frozenset({(0, 1), (1, 0)})
    gate_fid = {
        ("x", (0,)): 0.99,
        ("x", (1,)): 0.99,
        ("cx", (0, 1)): 0.98,
        ("cx", (1, 0)): 0.98,
    }
    readout = {0: 0.97, 1: 0.96}
    return DeviceModel(
        "toy", "superconducting", 2, coupling,
        frozenset({"x", "cx", "measure"}), Calibration(gate_fid, readout),
    )


def _result(device, ops, clbits=0):
    c = Circuit(device.num_qubits, clbits, tuple(ops), "c")
    return CompiledResult(c, {q: q for q in range(device.num_qubits)})


def test_empty_circuit_scores_one():
    score = evaluate_score(_result(_toy_device(), []), _toy_device())
    assert score == EvalScore(1.0)


def test_hand_computed_product():
    device = _toy_device()
    score = evaluate_score(_result(device, [gate("x", (0,)), gate("x", (1,)), gate("cx", (0, 1))]), device)
    assert score.value == pytest.approx(0.99 * 0.99 * 0.98, abs=1e-15)


def test_readout_multiplies_in():
    device = _toy_device()
    ops = [gate("x", (0,)), measure(0, 0), measure(1, 1)]
    score = evaluate_score(_result(device, ops, clbits=2), device)
    assert score.value == pytest.approx(0.99 * 0.97 * 0.96, abs=1e-15)


def test_log_space_matches_direct_product():
    device = _toy_device()
    ops = [gate("x", (0,))] * 50 + [gate("cx", (0, 1))] * 30
    score = evaluate_score(_result(device, ops), device)
    direct = (0.99 ** 50) * (0.98 ** 30)
    assert abs(score.value - direct) <= 1e-12


def test_long_products_do_not_underflow_to_garbage():
    device = _toy_device()
    ops = [gate("x", (0,))] * 20000
    score = evaluate_score(_result(device, ops), device)
    assert score.value == pytest.approx(2.718281828 ** (20000 * log(0.99)), rel=1e-9)
    assert score.value >= 0.0


def test_missing_calibration_entry_raises():
    device = _toy_device()
    with pytest.raises(CalibrationError, match="x"):
        evaluate_score(_result(device, [gate("x", (0,), ())._replace(qubits=(5,))]), device)


def test_calibration_error_messages():
    device = _toy_device()
    with pytest.raises(CalibrationError) as gate_error:
        evaluate_score(_result(device, [gate("cx", (1, 0)), gate("x", (0,))._replace(qubits=(5,))]), device)
    assert gate_error.value.args == ("toy: no fidelity for x on (5,)",)
    # still a KeyError, but printed without the quotes KeyError adds
    assert isinstance(gate_error.value, KeyError)
    assert str(gate_error.value) == "toy: no fidelity for x on (5,)"
    with pytest.raises(CalibrationError) as readout_error:
        evaluate_score(_result(device, [measure(0, 0), measure(1, 1)._replace(qubits=(7,))], clbits=2), device)
    assert readout_error.value.args == ("toy: no readout fidelity for qubit 7",)


def _per_op_log_score(circuit, device):
    """The score summed from math.log of every calibration entry, op by op."""
    total = 0.0
    for op in circuit.ops:
        if op.kind == "measure":
            total += log(device.calib.readout_fidelity[op.qubits[0]])
        elif op.kind != "barrier":
            total += log(device.calib.gate_fidelity[(op.kind, op.qubits)])
    return exp(total)


def test_log_table_scores_equal_per_op_logs(fleet, options):
    for circuit in (_ghz(3), _toffoli_swap(5), _ghz(9)):
        for option, result in compile_options(circuit, options, fleet):
            device = fleet[option.device_id]
            assert evaluate_score(result, device).value == _per_op_log_score(result.circuit, device), option.option_id


def test_barriers_are_free():
    device = _toy_device()
    from qcpredict.circuit import barrier

    with_b = _result(device, [gate("x", (0,)), barrier((0, 1)), gate("x", (0,))])
    without = _result(device, [gate("x", (0,)), gate("x", (0,))])
    assert evaluate_score(with_b, device).value == evaluate_score(without, device).value


def _ghz(n):
    ops = [gate("h", (0,))] + [gate("cx", (i, i + 1)) for i in range(n - 1)]
    ops += [measure(i, i) for i in range(n)]
    return Circuit(n, n, tuple(ops), f"ghz{n}")


def test_rank_options_orders_by_score(fleet, options):
    values = rank_options(_ghz(3), options, fleet)
    assert isinstance(values, tuple) and len(values) == 30
    assert all(v > 0.0 for v in values)  # 3 qubits fit everywhere
    ranks = ranks_from_values(values)
    assert values[ranks.index(1)] == max(values)
    assert sorted(ranks) == list(range(1, 31))
    # listing the options by rank lists the scores best first
    ordered = [values[i] for i in sorted(range(30), key=ranks.__getitem__)]
    assert ordered == sorted(values, reverse=True)


def test_too_wide_scores_zero_without_compiling(fleet, options, monkeypatch):
    expanded, routed_on = [], []
    real_expand, real_route = compiler.expand_three_qubit, compiler.route
    monkeypatch.setattr(compiler, "expand_three_qubit", lambda c: expanded.append(c) or real_expand(c))
    monkeypatch.setattr(compiler, "route", lambda c, d, layout: routed_on.append(d.id) or real_route(c, d, layout))
    values = rank_options(_ghz(50), options, fleet)
    # only the two largest devices fit 50 qubits: 6 options each, every other
    # option scores exactly 0.0
    feasible = [o for o, v in zip(options, values) if v > 0.0]
    assert len(feasible) == 12
    assert {o.device_id for o in feasible} == {"dev80", "dev127"}
    assert all(v == 0.0 for o, v in zip(options, values) if o not in feasible)
    # three-qubit expansion runs once per circuit, and the 18 infeasible
    # options do no compile work: routing runs only on the devices that fit,
    # at most once per distinct layout (trivial, line, graph)
    assert len(expanded) == 1
    assert set(routed_on) == {"dev80", "dev127"}
    assert all(routed_on.count(d) <= 3 for d in routed_on)


def test_tie_breaks_keep_option_order(fleet, options):
    c = Circuit(2, 0, (), "empty")
    values = rank_options(c, options, fleet)
    # every option scores 1.0 (no gates, no measures), first option wins
    assert values == (1.0,) * 30
    assert ranks_from_values(values) == tuple(range(1, 31))
    assert options[ranks_from_values(values).index(1)].option_id == "dev8/A/O0"


def test_rank_options_rejects_empty_or_unknown(fleet):
    with pytest.raises(ValueError, match="no options"):
        rank_options(_ghz(2), [], fleet)
    with pytest.raises(ValueError, match="unknown device"):
        rank_options(_ghz(2), [parse_option("nope/A/O0")], fleet)


def _toffoli_swap(n):
    ops = [gate("h", (q,)) for q in range(n)]
    ops += [gate("ccx", (0, 1, 2)), gate("cswap", (2, 0, n - 1)), gate("cx", (n - 1, 0)), gate("ccx", (1, n - 1, 0))]
    ops += [measure(q, q) for q in range(n)]
    return Circuit(n, n, tuple(ops), f"toffoli_swap{n}")


def test_scores_agree_with_manual_recompute(fleet, options):
    # the shared sweep must give every option exactly what compiling it alone
    # gives: ccx/cswap expansion is shared by all devices, and a 24-qubit
    # circuit has no 24-qubit line on dev27, so B/line shares A's trivial layout
    for circuit in (_ghz(3), _toffoli_swap(5), _ghz(24)):
        values = rank_options(circuit, options, fleet)
        shared = dict(compile_options(circuit, options, fleet))
        for option, value in zip(options, values):
            device = fleet[option.device_id]
            where = (circuit.name, option.option_id)
            if circuit.num_qubits > device.num_qubits:
                assert option not in shared and value == 0.0, where
                with pytest.raises(InfeasibleError):
                    compile_circuit(circuit, option, fleet)
                continue
            alone = compile_circuit(circuit, option, fleet)
            assert value == evaluate_score(alone, device).value, where
            assert shared[option].stats == alone.stats, where
            assert shared[option].circuit == alone.circuit, where
            assert shared[option].layout == alone.layout, where
    assert shared[parse_option("dev27/B/line")].stats["placement_fallback"]
    assert not shared[parse_option("dev80/B/line")].stats["placement_fallback"]


def test_each_distinct_rung_is_scored_once(fleet, options, monkeypatch):
    scored = []
    real_score = scoring.evaluate_score
    monkeypatch.setattr(scoring, "evaluate_score", lambda result, device: scored.append(result) or real_score(result, device))
    values = rank_options(_ghz(3), options, fleet)
    compiled = list(compile_options(_ghz(3), options, fleet))  # kept alive, so ids stay distinct
    rungs = {(option.device_id, id(result.circuit)) for option, result in compiled}
    assert len(scored) == len(rungs) < len(options)
    # the shared scores are the ones each option gets alone
    for option, value in zip(options, values):
        assert value == real_score(compile_circuit(_ghz(3), option, fleet), fleet[option.device_id]).value


def test_ranks_from_values():
    assert ranks_from_values((0.9, 0.5, 0.7)) == (1, 3, 2)
    # ties keep position order
    assert ranks_from_values((0.5, 0.9, 0.5, 0.0)) == (2, 1, 3, 4)
    assert ranks_from_values(()) == ()
    assert ranks_from_values((0.0, 0.0)) == (1, 2)
    # the first position among the best scores is rank 1
    assert ranks_from_values((0.0, 0.7, 0.3, 0.7)).index(1) == 1
