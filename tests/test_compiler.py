from math import pi

import numpy as np
import pytest

from qcpredict import compiler
from qcpredict.circuit import (
    GATE_SIGNATURES,
    Circuit,
    barrier,
    gate,
    interaction_graph,
    measure,
)
from qcpredict.compiler import (
    CompilationOption,
    CompileError,
    InfeasibleError,
    compile_circuit,
    compile_options,
    decompose_to_native,
    enumerate_options,
    expand_three_qubit,
    is_device_legal,
    optimize,
    parse_option,
    place_graph,
    place_line,
    place_trivial,
    route,
)
from qcpredict.devices import Calibration, DeviceModel
from qcpredict.generators import grover, qaoa, qft, random_circuit
from qcpredict.simulator import check_equivalence


def _circ(n, ops, clbits=0, name="c"):
    return Circuit(n, clbits, tuple(ops), name)


def _identity_layout(n):
    return {q: q for q in range(n)}


# ---------------------------------------------------------------------------
# option enumeration


def test_enumerate_thirty_options(devices, options):
    assert len(options) == 30
    # canonical order: per device O0..O3 then line, graph
    first_six = [o.option_id for o in options[:6]]
    assert first_six == ["dev8/A/O0", "dev8/A/O1", "dev8/A/O2", "dev8/A/O3", "dev8/B/line", "dev8/B/graph"]
    assert [o.option_id for o in options[6:8]] == ["dev11/A/O0", "dev11/A/O1"]
    assert len({o.option_id for o in options}) == 30


def test_parse_option_round_trip(options):
    for o in options:
        assert parse_option(o.option_id) == o


def test_option_validation():
    with pytest.raises(CompileError):
        CompilationOption("dev8", "A", "line")
    with pytest.raises(CompileError):
        CompilationOption("dev8", "B", "O2")
    with pytest.raises(CompileError):
        CompilationOption("dev8", "C", "O0")
    with pytest.raises(CompileError):
        parse_option("dev8-A-O0")
    with pytest.raises(CompileError):
        enumerate_options([])


# ---------------------------------------------------------------------------
# decomposition


def test_every_kind_lowers_to_both_native_sets(fleet):
    # kinds only; coupling legality is routing's contract, checked separately
    rng = np.random.default_rng(42)
    for kind, (arity, n_params) in sorted(GATE_SIGNATURES.items()):
        params = tuple(float(a) for a in rng.uniform(0.3, 5.9, size=n_params))
        qubits = tuple(range(arity))
        original = _circ(arity, [gate(kind, qubits, params)])
        expanded = expand_three_qubit(original)
        for dev_id in ("dev8", "dev11"):
            device = fleet[dev_id]
            lowered = decompose_to_native(expanded, device)
            for op in lowered.gates():
                assert op.kind in device.native_gates, (kind, dev_id, op.kind)
            assert check_equivalence(original, lowered, _identity_layout(arity)), (kind, dev_id)


def test_native_gates_pass_through(fleet):
    dev8 = fleet["dev8"]
    c = _circ(2, [gate("rz", (0,), (0.7,)), gate("sx", (1,)), gate("cx", (0, 1))])
    lowered = decompose_to_native(c, dev8)
    assert lowered.ops == c.ops


def test_three_qubit_expansion(fleet):
    for kind in ("ccx", "cswap"):
        c = _circ(3, [gate(kind, (0, 1, 2))])
        expanded = expand_three_qubit(c)
        assert all(len(op.qubits) <= 2 for op in expanded.ops)
        assert check_equivalence(c, expanded, _identity_layout(3))


def test_lowering_keeps_measures_and_drops_barriers(fleet):
    c = _circ(2, [gate("h", (0,)), barrier((0, 1)), measure(0, 0)], clbits=1)
    lowered = decompose_to_native(c, fleet["dev8"])
    kinds = [op.kind for op in lowered.ops]
    assert "measure" in kinds
    assert "barrier" not in kinds  # scheduling hints have no native counterpart


# ---------------------------------------------------------------------------
# placement


def test_trivial_placement_is_identity(fleet):
    c = _circ(3, [gate("cx", (0, 1))])
    assert place_trivial(c, fleet["dev8"]) == {0: 0, 1: 1, 2: 2}


def test_line_placement_orders_by_busyness(fleet):
    # qubit 2 touches two gates, 0 and 1 one each; busiest goes first on the path
    c = _circ(3, [gate("cx", (0, 2)), gate("cx", (1, 2))])
    layout, fell_back = place_line(c, fleet["dev8"])
    assert not fell_back
    assert len(set(layout.values())) == 3
    # degree order 2, 0, 1 lands on consecutive path slots
    d = fleet["dev8"].distances
    assert d[layout[2]][layout[0]] == 1
    assert d[layout[0]][layout[1]] == 1
    assert d[layout[2]][layout[1]] == 2


def test_line_placement_falls_back_when_no_path(fleet):
    dev8 = fleet["dev8"]
    c = _circ(8, [gate("cx", (i, i + 1)) for i in range(7)])
    layout, fell_back = place_line(c, dev8)
    if fell_back:
        assert layout == {q: q for q in range(8)}
    else:
        assert len(set(layout.values())) == 8


def test_line_placement_follows_a_custom_device_that_reuses_a_builtin_id(fleet):
    # a chain-coupled "dev8" placed after the builtin dev8 must get a path on
    # its own coupling, not the builtin's (3, 2, 1, 0, 4, 5, 6, 7)
    builtin = fleet["dev8"]
    chain = frozenset(pair for i in range(7) for pair in ((i, i + 1), (i + 1, i)))
    custom = DeviceModel("dev8", builtin.technology, 8, chain, builtin.native_gates, Calibration({}, {}))
    c = _circ(8, [gate("h", (q,)) for q in range(8)])  # no interactions: path slot q holds qubit q
    place_line(c, builtin)
    layout, fell_back = place_line(c, custom)
    assert not fell_back
    assert all(custom.coupled(layout[q], layout[q + 1]) for q in range(7))


def test_graph_placement_puts_hot_edges_on_couplings(fleet):
    dev27 = fleet["dev27"]
    c = _circ(4, [gate("cx", (0, 1))] * 5 + [gate("cx", (2, 3))] * 3 + [gate("cx", (1, 2))])
    layout = place_graph(c, dev27)
    assert len(set(layout.values())) == 4
    assert dev27.coupled(layout[0], layout[1])
    assert dev27.coupled(layout[2], layout[3])


def test_graph_placement_covers_idle_qubits(fleet):
    c = _circ(5, [gate("cx", (0, 1))])  # qubits 2..4 never interact
    layout = place_graph(c, fleet["dev8"])
    assert sorted(layout) == [0, 1, 2, 3, 4]
    assert len(set(layout.values())) == 5


# ---------------------------------------------------------------------------
# routing


def test_route_inserts_swaps_for_distant_pair(fleet):
    dev8 = fleet["dev8"]
    c = _circ(4, [gate("cx", (0, 3))])
    routed, final_layout, swaps = route(c, dev8, _identity_layout(4))
    assert swaps == dev8.distances[0][3] - 1 == 2
    ok, reason = is_device_legal(routed, dev8)
    # swap is not native but every 2q op sits on a coupled pair
    for op in routed.ops:
        if len(op.qubits) == 2:
            assert dev8.coupled(*op.qubits)
    assert check_equivalence(c, routed, final_layout)


def test_route_leaves_adjacent_gates_alone(fleet):
    c = _circ(2, [gate("cx", (0, 1))])
    routed, final_layout, swaps = route(c, fleet["dev8"], _identity_layout(2))
    assert swaps == 0
    assert final_layout == {0: 0, 1: 1}


def test_route_tracks_measures_through_swaps(fleet):
    dev8 = fleet["dev8"]
    c = _circ(4, [gate("x", (0,)), gate("cx", (0, 3)), measure(0, 0)], clbits=1)
    routed, final_layout, _ = route(c, dev8, _identity_layout(4))
    meas = [op for op in routed.ops if op.kind == "measure"]
    assert meas[0].qubits == (final_layout[0],)
    assert check_equivalence(c, routed, final_layout)


def test_route_rejects_non_injective_layout(fleet):
    c = _circ(2, [gate("cx", (0, 1))])
    with pytest.raises(CompileError, match="injective"):
        route(c, fleet["dev8"], {0: 0, 1: 0})


def test_route_rejects_wide_gates(fleet):
    c = _circ(3, [gate("ccx", (0, 1, 2))])
    with pytest.raises(CompileError, match="expand"):
        route(c, fleet["dev8"], _identity_layout(3))


def test_lowering_rejects_wide_gates(fleet):
    # three-qubit gates have one path: expand_three_qubit, before routing
    for kind in ("ccx", "cswap"):
        c = _circ(3, [gate(kind, (0, 1, 2))])
        with pytest.raises(CompileError, match="expand"):
            decompose_to_native(c, fleet["dev8"])


# ---------------------------------------------------------------------------
# optimization ladder


def test_self_inverse_pairs_cancel():
    c = _circ(2, [gate("h", (0,)), gate("h", (0,)), gate("cx", (0, 1)), gate("cx", (0, 1))])
    assert optimize(c, "O1").num_gates() == 0
    assert optimize(c, "O0").num_gates() == 4


def test_rotation_fusion_needs_level_two():
    c = _circ(1, [gate("rz", (0,), (0.5,)), gate("rz", (0,), (0.25,))])
    assert optimize(c, "O1").num_gates() == 2
    fused = optimize(c, "O2")
    assert fused.num_gates() == 1
    assert fused.ops[0].params[0] == pytest.approx(0.75)


def test_fused_full_turn_stays_equivalent():
    # angles add without modular reduction; rz(2*pi) is still a global phase
    c = _circ(1, [gate("rz", (0,), (pi,)), gate("rz", (0,), (pi,))])
    fused = optimize(c, "O2")
    assert fused.num_gates() == 1
    assert fused.ops[0].params[0] == pytest.approx(2 * pi)
    assert check_equivalence(_circ(1, []), fused, {0: 0})


def test_zero_angle_rotation_dropped():
    c = _circ(1, [gate("rz", (0,), (0.0,)), gate("x", (0,))])
    assert optimize(c, "O1").num_gates() == 1


def test_commutation_unlocks_distant_cancellation():
    # rz commutes through the cx control, so the pair fuses only at O3
    c = _circ(
        2,
        [gate("rz", (0,), (0.5,)), gate("cx", (0, 1)), gate("rz", (0,), (-0.5,))],
    )
    assert optimize(c, "O2").num_gates() == 3
    assert optimize(c, "O3").num_gates() == 1


def test_barrier_blocks_cancellation():
    c = _circ(1, [gate("x", (0,)), barrier((0,)), gate("x", (0,))])
    assert optimize(c, "O3").num_gates() == 2


def _random_native_circuit(rng, n, length, device):
    one_q = sorted(k for k in device.native_gates if k != "measure" and GATE_SIGNATURES.get(k, (0,))[0] == 1)
    two_q = sorted(k for k in device.native_gates if GATE_SIGNATURES.get(k, (0,))[0] == 2)
    pairs = sorted(p for p in device.coupling if max(p) < n)
    ops = []
    for _ in range(length):
        if rng.random() < 0.6 or not pairs:
            kind = one_q[rng.integers(len(one_q))]
            qubits = (int(rng.integers(n)),)
        else:
            kind = two_q[rng.integers(len(two_q))]
            qubits = pairs[rng.integers(len(pairs))]
        n_params = GATE_SIGNATURES[kind][1]
        ops.append(gate(kind, qubits, tuple(float(x) for x in rng.uniform(0, 2 * pi, n_params))))
    return _circ(n, ops)


def test_levels_never_grow_and_preserve_semantics(fleet):
    rng = np.random.default_rng(7)
    device = fleet["dev8"]
    for trial in range(10):
        c = _random_native_circuit(rng, 4, 30, device)
        counts = [optimize(c, lvl).num_gates() for lvl in ("O0", "O1", "O2", "O3")]
        assert counts[0] >= counts[1] >= counts[2] >= counts[3], (trial, counts)
        for lvl in ("O1", "O2", "O3"):
            assert check_equivalence(c, optimize(c, lvl), _identity_layout(4)), (trial, lvl)


def test_optimizer_ladder_climbs_exactly(fleet):
    # the labeling sweep climbs O1 -> O2 -> O3 on one routed circuit; that is
    # exact only because each level ends on a fixed point of the ones below.
    # In `unblock` the commuting pass cancels the cx pair, which leaves the two
    # x(0) adjacent for the next round only.
    unblock = _circ(2, [gate("x", (0,)), gate("cx", (0, 1)), gate("x", (1,)), gate("cx", (0, 1)), gate("x", (0,))])
    for device_id in ("dev8", "dev11"):
        device = fleet[device_id]
        for c in (qft(5), grover(3), qaoa(6, seed=3), random_circuit(6, seed=1), random_circuit(7, seed=2), unblock):
            expanded = expand_three_qubit(c)
            routed, _, _ = route(expanded, device, place_graph(expanded, device))
            native = decompose_to_native(routed, device)
            ladder = [optimize(native, b) for b in range(4)]
            for a in range(4):
                for b in range(a, 4):
                    assert optimize(ladder[a], b).ops == ladder[b].ops, (device_id, c.name, a, b)
                    # resuming runs only the stages above a
                    assert optimize(ladder[a], b, start=a).ops == ladder[b].ops, (device_id, c.name, a, b)


def test_optimize_returns_its_input_when_nothing_changes():
    settled = _circ(2, [gate("x", (0,)), gate("cx", (0, 1)), gate("rz", (1,), (0.5,))])
    for level in range(4):
        assert optimize(settled, level) is settled
    assert optimize(settled, 3, start=1) is settled
    cancelling = _circ(1, [gate("x", (0,)), gate("x", (0,))])
    assert optimize(cancelling, 1) is not cancelling
    assert optimize(cancelling, 1).num_gates() == 0


def test_optimize_refuses_to_start_above_its_level():
    c = _circ(1, [gate("x", (0,))])
    with pytest.raises(CompileError, match="cannot start"):
        optimize(c, 1, start=2)
    with pytest.raises(CompileError):
        optimize(c, 3, start="O4")


def test_climb_runs_each_stage_once(fleet, monkeypatch):
    # on a circuit nothing can shorten, the climb O1 -> O2 -> O3 on one layout
    # scans once at O1 and once at O2; O3 starts on the O2 fixed point and
    # skips its scan. Optimizing each level from scratch scans 1 + 2 + 3 times.
    scans = []
    real_scan = compiler._adjacent_pass
    monkeypatch.setattr(compiler, "_adjacent_pass", lambda ops, fuse: scans.append(fuse) or real_scan(ops, fuse))
    settled = _circ(2, [gate("x", (0,)), gate("cx", (0, 1)), gate("rz", (1,), (0.5,))])
    options = [parse_option(f"dev8/A/O{level}") for level in (1, 2, 3)]
    results = [result for _, result in compile_options(settled, options, fleet)]
    assert scans == [False, True]
    # nothing changed, so every option holds the one lowered circuit
    assert results[0].circuit is results[1].circuit is results[2].circuit
    assert [r.stats["native_gates"] for r in results] == [3, 3, 3]


def test_optimize_rejects_unknown_level():
    c = _circ(1, [gate("x", (0,))])
    with pytest.raises(CompileError):
        optimize(c, "O4")
    with pytest.raises(CompileError):
        optimize(c, 5)


# ---------------------------------------------------------------------------
# the full pipeline


def _ghz(n):
    ops = [gate("h", (0,))] + [gate("cx", (i, i + 1)) for i in range(n - 1)]
    ops += [measure(i, i) for i in range(n)]
    return Circuit(n, n, tuple(ops), f"ghz{n}")


def test_compile_every_option_is_legal_and_equivalent(devices, options):
    fleet = {d.id: d for d in devices}
    c = _ghz(3)
    for option in options:
        result = compile_circuit(c, option, devices)
        device = fleet[option.device_id]
        ok, reason = is_device_legal(result.circuit, device)
        assert ok, f"{option.option_id}: {reason}"
        assert check_equivalence(c, result.circuit, result.layout), option.option_id
        assert result.option == option


def test_compile_stats_keys(devices):
    result = compile_circuit(_ghz(3), parse_option("dev8/A/O2"), devices)
    assert set(result.stats) == {"swaps_inserted", "native_gates", "placement_fallback"}
    assert result.stats["native_gates"] == result.circuit.num_gates()
    assert result.stats["swaps_inserted"] >= 0


def test_compile_rejects_oversized_circuit(devices):
    with pytest.raises(InfeasibleError):
        compile_circuit(_ghz(9), parse_option("dev8/A/O0"), devices)


def test_compile_rejects_unknown_device(devices):
    with pytest.raises(CompileError, match="unknown device"):
        compile_circuit(_ghz(2), CompilationOption("nope", "A", "O0"), devices)


def test_higher_levels_do_not_add_gates_end_to_end(devices):
    c = _ghz(4)
    sizes = [
        compile_circuit(c, parse_option(f"dev27/A/{lvl}"), devices).circuit.num_gates()
        for lvl in ("O0", "O1", "O2", "O3")
    ]
    assert sizes[0] >= sizes[1] >= sizes[2] >= sizes[3]


def test_is_device_legal_flags_violations(fleet):
    dev8 = fleet["dev8"]
    bad_kind = _circ(1, [gate("h", (0,))])
    ok, reason = is_device_legal(bad_kind, dev8)
    assert not ok and "not native" in reason
    uncoupled = _circ(8, [gate("cx", (0, 3))])
    ok, reason = is_device_legal(uncoupled, dev8)
    assert not ok and "uncoupled" in reason
    fine = _circ(2, [gate("x", (0,)), gate("cx", (0, 1)), measure(0, 0)], clbits=1)
    ok, reason = is_device_legal(fine, dev8)
    assert ok and reason == ""
