import hashlib
from math import pi

import numpy as np
import pytest

from qcpredict import compiler
from qcpredict.circuit import (
    GATE_SIGNATURES,
    Circuit,
    Instruction,
    barrier,
    gate,
    interaction_graph,
    measure,
)
from qcpredict.compiler import (
    _EPS,
    _ROTATIONS,
    _SELF_INVERSE,
    _Stage,
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
from qcpredict.generators import dj, ghz, grover, qaoa, qft, random_circuit, wstate
from qcpredict.qasm import to_qasm
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


def test_graph_placement_without_a_free_coupled_pair(fleet):
    # by edge (3, 7) the free qubits of dev8 are 3 and 7, which are not
    # coupled: the edge seats its first end on the lowest free qubit and the
    # second on the free qubit nearest to it
    pairs = [(5, 0), (1, 0), (2, 6), (1, 4), (5, 7), (0, 4), (5, 2), (3, 7), (2, 4)]
    layout = place_graph(_circ(8, [gate("cx", p) for p in pairs]), fleet["dev8"])
    assert layout == {0: 0, 1: 1, 4: 4, 5: 2, 2: 5, 6: 6, 3: 3, 7: 7}
    assert sorted(layout.values()) == list(range(8))
    # on the line 3-0-1-6-2-4-5, edge (3, 6) finds free {3, 5, 6} with no
    # coupled pair: logical 3 takes the lowest, 3, and logical 6 the free
    # qubit nearest to it, 6, not the lowest-id one, 5
    order = (3, 0, 1, 6, 2, 4, 5)
    line = frozenset(p for a, b in zip(order, order[1:]) for p in ((a, b), (b, a)))
    device = DeviceModel("line", "superconducting", 7, line, frozenset({"cx", "measure"}), Calibration({}, {}))
    layout = place_graph(_circ(7, [gate("cx", (0, 4)), gate("cx", (3, 6)), gate("cx", (5, 2))]), device)
    assert layout == {0: 0, 4: 1, 2: 2, 5: 4, 3: 3, 6: 6, 1: 5}
    assert sorted(layout.values()) == list(range(7))


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


def test_route_refuses_a_pair_no_path_connects(fleet):
    # a one-way chain 0 -> 1 -> 2: swaps carry qubit 0 toward 2, but nothing
    # leads from 2 back to 0
    dev8 = fleet["dev8"]
    one_way = DeviceModel("toy", dev8.technology, 3, frozenset({(0, 1), (1, 2)}), dev8.native_gates, Calibration({}, {}))
    routed, final_layout, swaps = route(_circ(3, [gate("cx", (0, 2))]), one_way, _identity_layout(3))
    assert [op.qubits for op in routed.ops] == [(0, 1), (1, 2)] and swaps == 1
    with pytest.raises(CompileError) as refusal:
        route(_circ(3, [gate("cx", (2, 0))]), one_way, _identity_layout(3))
    assert str(refusal.value) == "qubits 2 and 0 are not connected on toy"


def test_lowering_rejects_wide_gates(fleet):
    # three-qubit gates have one path: expand_three_qubit, before routing
    for kind in ("ccx", "cswap"):
        c = _circ(3, [gate(kind, (0, 1, 2))])
        with pytest.raises(CompileError, match="expand"):
            decompose_to_native(c, fleet["dev8"])


def _exact(ops):
    """Ops with each param as its type and bit pattern, so 0.0 != -0.0 and 1 != 1.0."""
    return [
        (op.kind, op.qubits, tuple((type(p), float.hex(float(p))) for p in op.params), op.clbit)
        for op in ops
    ]


def _reference_lowering(circuit, device):
    # one _lower call per op, with no memo of the ops seen before
    out = []
    for op in circuit.ops:
        compiler._lower(op, device, out)
    return out


def test_lowering_table_matches_lowering_each_op(devices, fleet):
    rng = np.random.default_rng(11)
    ops = []
    for kind, (arity, n_params) in sorted(GATE_SIGNATURES.items()):
        if arity > 2:
            continue
        shared = tuple(float(a) for a in rng.uniform(-6.0, 6.0, size=n_params))
        for qubits in ((0, 1), (2, 0), (1, 3)) if arity == 2 else ((0,), (3,), (1,)):
            ops.append(gate(kind, qubits, shared))  # one gate on several qubits
            fresh = tuple(float(a) for a in rng.uniform(-6.0, 6.0, size=n_params))
            ops.append(gate(kind, qubits[::-1], fresh))
        ops.append(gate(kind, (2, 3)[:arity], (0.0,) * n_params))
        ops.append(gate(kind, (3, 2)[:arity], (-0.0,) * n_params))
    ops += [barrier((0, 1, 2)), measure(2, 0), barrier((3,)), measure(0, 1)]
    # hand-built ops whose params compare equal to a float but print differently
    ops += [Instruction("u1", (1,), (1,)), Instruction("u1", (2,), (1.0,)), Instruction("rz", (0,), (True,))]
    ops += [Instruction("cp", (0, 2), (2,)), Instruction("cp", (2, 0), (2.0,)), Instruction("u3", (1,), (1, 0, 0.0))]
    # copies of one op on the same qubits, which share their native ops: the
    # signs of a zero and the types of a one side by side on one qubit, runs
    # of swaps on one pair, and measures of one qubit into different clbits
    for _ in range(2):
        ops += [gate("u1", (1,), (0.0,)), gate("u1", (1,), (-0.0,)), gate("u3", (1,), (0.0, -0.0, 0.0))]
        ops += [Instruction("u1", (1,), (1,)), Instruction("u1", (1,), (1.0,)), Instruction("u1", (1,), (True,))]
        ops += [gate("swap", (0, 1))] * 3 + [gate("swap", (1, 0)), gate("swap", (0, 1))]
        ops += [measure(2, 0), measure(2, 1), measure(2, 0)]
        ops += [gate("cx", (2, 3)), gate("cx", (2, 3)), gate("h", (3,)), gate("h", (3,)), barrier((0, 1, 2))]
    circuit = _circ(4, ops, clbits=2)
    for device in devices:
        lowered = decompose_to_native(circuit, device)
        assert _exact(lowered.ops) == _exact(_reference_lowering(circuit, device)), device.id
    # routed wide circuits: runs of swaps, measures and repeated angles on
    # the widest devices, as labeling lowers them
    for wide in (qft(40), qaoa(60, layers=2), random_circuit(60)):
        expanded = expand_three_qubit(wide)
        for dev_id in ("dev80", "dev127"):
            device = fleet[dev_id]
            routed, _, _ = route(expanded, device, place_trivial(expanded, device))
            lowered = decompose_to_native(routed, device)
            assert _exact(lowered.ops) == _exact(_reference_lowering(routed, device)), (wide.name, dev_id)


def test_lowering_keeps_the_sign_of_a_zero_angle(fleet):
    # 0.0 == -0.0, so a table keyed by value alone would reuse the first rewrite
    c = _circ(1, [gate("u3", (0,), (0.5, 0.0, 0.0)), gate("u3", (0,), (0.5, -0.0, -0.0))])
    lowered = decompose_to_native(c, fleet["dev27"])
    first, second = lowered.ops[0], lowered.ops[5]
    assert (first.kind, second.kind) == ("rz", "rz")
    assert float.hex(first.params[0]) == float.hex(0.0)
    assert float.hex(second.params[0]) == float.hex(-0.0)


# ---------------------------------------------------------------------------
# optimization ladder


def test_self_inverse_pairs_cancel():
    c = _circ(2, [gate("h", (0,)), gate("h", (0,)), gate("cx", (0, 1)), gate("cx", (0, 1))])
    assert optimize(c, 1).num_gates() == 0
    assert optimize(c, 0).num_gates() == 4


def test_rotation_fusion_needs_level_two():
    c = _circ(1, [gate("rz", (0,), (0.5,)), gate("rz", (0,), (0.25,))])
    assert optimize(c, 1).num_gates() == 2
    fused = optimize(c, 2)
    assert fused.num_gates() == 1
    assert fused.ops[0].params[0] == pytest.approx(0.75)


def test_fused_full_turn_stays_equivalent():
    # angles add without modular reduction; rz(2*pi) is still a global phase
    c = _circ(1, [gate("rz", (0,), (pi,)), gate("rz", (0,), (pi,))])
    fused = optimize(c, 2)
    assert fused.num_gates() == 1
    assert fused.ops[0].params[0] == pytest.approx(2 * pi)
    assert check_equivalence(_circ(1, []), fused, {0: 0})


def test_zero_angle_rotation_dropped():
    c = _circ(1, [gate("rz", (0,), (0.0,)), gate("x", (0,))])
    assert optimize(c, 1).num_gates() == 1


def test_commutation_unlocks_distant_cancellation():
    # rz commutes through the cx control, so the pair fuses only at O3
    c = _circ(
        2,
        [gate("rz", (0,), (0.5,)), gate("cx", (0, 1)), gate("rz", (0,), (-0.5,))],
    )
    assert optimize(c, 2).num_gates() == 3
    assert optimize(c, 3).num_gates() == 1


def test_barrier_blocks_cancellation():
    c = _circ(1, [gate("x", (0,)), barrier((0,)), gate("x", (0,))])
    assert optimize(c, 3).num_gates() == 2


# the commuting pass as it was before each walk kept one pointer per qubit
# slot, kept as the reference the pass must reproduce op for op


def _reference_commutes(a, b):
    basis_a = compiler._BASIS.get(a.kind)
    basis_b = compiler._BASIS.get(b.kind)
    if basis_a is None or basis_b is None:
        return False
    for q in set(a.qubits) & set(b.qubits):
        xa = basis_a[a.qubits.index(q)]
        xb = basis_b[b.qubits.index(q)]
        if xa is None or xb is None or xa != xb:
            return False
    return True


def _reference_commuting_pass(ops):
    n = len(ops)
    after = [{}] * n
    next_on = {}
    last = [0] * n
    last_of = {}
    for i in range(n - 1, -1, -1):
        op = ops[i]
        after[i] = {q: next_on.get(q, n) for q in op.qubits}
        for q in op.qubits:
            next_on[q] = i
        last[i] = last_of.setdefault((op.kind, op.qubits), i)

    alive = [True] * n
    params_now = {}
    changed = False

    for i, op in enumerate(ops):
        if last[i] == i or not alive[i] or (op.kind not in compiler._SELF_INVERSE and op.kind not in compiler._ROTATIONS):
            continue
        nxt = dict(after[i])
        while True:
            for q in op.qubits:
                j = nxt[q]
                while j < n and not alive[j]:
                    j = after[j][q]
                nxt[q] = j
            cand = min(nxt.values())
            if cand > last[i]:
                break
            other = ops[cand]
            if other.kind == op.kind and other.qubits == op.qubits:
                if op.kind in compiler._SELF_INVERSE:
                    alive[cand] = False
                else:
                    merged = params_now.get(i, op.params)[0] + params_now.get(cand, other.params)[0]
                    params_now[cand] = (merged,)
                alive[i] = False
                changed = True
                break
            if not _reference_commutes(op, other):
                break
            for q in op.qubits:
                if nxt[q] == cand:
                    nxt[q] = after[cand][q]

    if not changed:
        return ops, False
    return [
        op._replace(params=params_now[i]) if i in params_now else op
        for i, op in enumerate(ops)
        if alive[i]
    ], True


_ALL_KINDS = sorted(GATE_SIGNATURES) + ["measure", "barrier"]


def _random_op_list(rng, n, length, kinds):
    ops = []
    for _ in range(length):
        if ops and rng.random() < 0.3:
            # a copy of an earlier op, with a fresh angle for a rotation, so
            # that pairs cancel or fuse across whatever lies between them
            kind, qubits = ops[int(rng.integers(len(ops)))][:2]
        else:
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "barrier":
                arity = int(rng.integers(1, n + 1))
            else:
                arity = GATE_SIGNATURES.get(kind, (1,))[0]  # a measure reads one qubit
            qubits = tuple(int(q) for q in rng.choice(n, size=arity, replace=False))
        if kind == "measure":
            ops.append(measure(qubits[0], 0))
        elif kind == "barrier":
            ops.append(barrier(qubits))
        else:
            ops.append(gate(kind, qubits, rng.uniform(-pi, pi, GATE_SIGNATURES[kind][1])))
    return ops


def _commuting_pass(ops):
    """One commuting pass over ``ops`` on its own, as the first round of an
    O3 stage runs it: returns the ops and whether it changed them."""
    stage = _Stage(list(ops), True, True)
    if not stage.commuting_pass():
        return ops, False
    return stage.compact(), True


def _check_against_reference(ops):
    got, got_changed = _commuting_pass(list(ops))
    want, want_changed = _reference_commuting_pass(list(ops))
    assert got_changed == want_changed, ops
    assert _exact(got) == _exact(want), ops
    return want_changed


def test_commuting_pass_matches_reference_on_random_op_lists():
    rng = np.random.default_rng(2024)
    seen, changed = set(), 0
    for trial in range(600):
        # a few kinds on few qubits make the copies, chains and blockers meet
        kinds = [_ALL_KINDS[k] for k in rng.choice(len(_ALL_KINDS), size=int(rng.integers(2, 7)), replace=False)]
        ops = _random_op_list(rng, int(rng.integers(3, 6)), int(rng.integers(1, 40)), kinds)
        seen.update(op.kind for op in ops)
        changed += _check_against_reference(ops)
    assert seen == set(_ALL_KINDS)
    assert changed > 100


def test_commuting_pass_matches_reference_on_chosen_lists():
    cases = [
        # the cx pair cancels across rz(0), which kills the later cx; the walk
        # from rz(0) then steps over the dead cx to fuse with the last rz(0)
        [gate("cx", (0, 1)), gate("rz", (0,), (0.25,)), gate("cx", (0, 1)), gate("rz", (0,), (0.5,))],
        # a rotation chain: each walk fuses into the next copy
        [gate("rz", (1,), (0.1 * k,)) if k % 2 else gate("cz", (0, 1)) for k in range(1, 12)],
        # a measure or a barrier blocks; a three-qubit pair cancels
        [gate("x", (0,)), measure(0, 0), gate("x", (0,)), barrier((0, 1)), gate("x", (0,))],
        [gate("ccx", (0, 1, 2)), gate("rz", (0,), (0.3,)), gate("ccx", (0, 1, 2))],
        [gate("cswap", (0, 1, 2)), gate("cswap", (0, 1, 2)), gate("swap", (1, 2)), gate("z", (0,)), gate("swap", (1, 2))],
        [],
    ]
    results = [_check_against_reference(ops) for ops in cases]
    assert results == [True, True, False, True, True, False]
    fused, _ = _commuting_pass(cases[0])
    assert [op.kind for op in fused] == ["rz"]
    assert fused[0].params == (0.25 + 0.5,)


# the adjacent scan as one function that compacts its output, kept as the
# reference each round of a stage must reproduce
def _reference_adjacent_pass(ops: list[Instruction], fuse: bool) -> tuple[list[Instruction], bool, bool]:
    """One scan of adjacent cancellation, identity dropping, optional fusion.

    Returns the ops, whether the scan changed them, and whether it was clean:
    it cancelled no pair and fused no angle to below ``_EPS``. The output of a
    clean scan is a fixed point of the scan. Drops and fusions keep each
    qubit's true predecessor in ``last``, so the next scan meets the ops it
    kept with the same predecessors and decides alike; only a cancellation
    loses it, and only a near-zero fused angle is left for the next scan to
    drop.
    """
    out: list[Instruction | None] = []
    last: dict[int, int | None] = {}
    changed = False
    clean = True
    for op in ops:
        kind, qubits = op.kind, op.qubits
        if kind in GATE_SIGNATURES:
            if kind == "id" or (kind in _ROTATIONS and abs(op.params[0]) < _EPS):
                changed = True
                continue
            # the op before this one on its first qubit matches only if it is
            # also the latest op on every other qubit
            k = last.get(qubits[0])
            if k is not None:
                prev = out[k]
                # a cancellation clears ``last`` on both qubits of the pair, so
                # an index in ``last`` never points at a cancelled op
                if prev.kind == kind and prev.qubits == qubits and all(last[q] == k for q in qubits[1:]):
                    if kind in _SELF_INVERSE:
                        out[k] = None
                        for q in qubits:
                            last[q] = None  # true predecessor unknown; next pass catches follow-ups
                        changed = True
                        clean = False
                        continue
                    if fuse and kind in _ROTATIONS:
                        angle = prev.params[0] + op.params[0]
                        out[k] = prev._replace(params=(angle,))
                        changed = True
                        if abs(angle) < _EPS:
                            clean = False
                        continue
        idx = len(out)
        out.append(op)
        for q in qubits:
            last[q] = idx
    return [op for op in out if op is not None], changed, clean


def _reference_stage(ops, fuse, commute):
    """One optimizer stage that scans every round; returns the ops, whether
    any pass changed them, the rounds it ran, and whether some scan after the
    first only confirmed the clean scan before it."""
    changed_any, rounds, confirmed = False, 0, False
    clean_before = False
    while True:
        rounds += 1
        ops, changed, clean = _reference_adjacent_pass(ops, fuse)
        confirmed = confirmed or clean_before
        clean_before = clean
        if commute:
            ops, commuted = _commuting_pass(ops)
            if commuted:
                changed, clean_before = True, False
        if not changed:
            return ops, changed_any, rounds, confirmed
        changed_any = True


def _with_cancelling_angles(rng, ops):
    """``ops`` with some rotations zeroed and some copies given minus the
    angle of the copy before, so that fusions also reach zero."""
    angle_of = {}
    out = []
    for op in ops:
        if op.kind in compiler._ROTATIONS:
            draw = rng.random()
            if draw < 0.05:
                op = op._replace(params=(0.0,))
            elif draw < 0.4 and (op.kind, op.qubits) in angle_of:
                op = op._replace(params=(-angle_of[op.kind, op.qubits],))
            angle_of[op.kind, op.qubits] = op.params[0]
        out.append(op)
    return out


def _stage_inputs(ops):
    """The input of each stage: O1 and O2 start from ``ops``, and O3 from the
    O2 fixed point, as ``optimize`` runs it."""
    settled, _, _, _ = _reference_stage(list(ops), True, False)
    return ops, ops, settled


def test_stage_skips_only_scans_that_change_nothing():
    # a stage skips the scan after a clean one, and O3 skips its first; each
    # must leave the ops, bit for bit, and the changed flag as scanning every
    # round does
    rng = np.random.default_rng(13)
    second_rounds = confirmed = 0
    for trial in range(600):
        kinds = [_ALL_KINDS[k] for k in rng.choice(len(_ALL_KINDS), size=int(rng.integers(2, 7)), replace=False)]
        ops = _with_cancelling_angles(rng, _random_op_list(rng, int(rng.integers(3, 5)), int(rng.integers(1, 50)), kinds))
        reached_second = False
        for stage, start in enumerate(_stage_inputs(ops)):
            want, want_changed, rounds, skip = _reference_stage(list(start), stage > 0, stage == 2)
            got, got_changed = compiler._run_stage(list(start), stage)
            assert got_changed == want_changed, (trial, stage, ops)
            assert _exact(got) == _exact(want), (trial, stage, ops)
            reached_second = reached_second or rounds > 1
            confirmed += skip
        second_rounds += reached_second
    assert second_rounds >= 100
    assert confirmed >= 100


def _check_stages(ops):
    """Each stage equals the reference stage that scans every round; returns
    the most rounds the reference ran."""
    most = 0
    for stage, start in enumerate(_stage_inputs(ops)):
        want, want_changed, rounds, _ = _reference_stage(list(start), stage > 0, stage == 2)
        most = max(most, rounds)
        got, got_changed = compiler._run_stage(list(start), stage)
        assert got_changed == want_changed, stage
        assert _exact(got) == _exact(want), stage
    return most


def test_stage_rounds_match_full_scans_on_chosen_lists():
    a = 0.3
    cases = [
        # O2 fuses the rz pair to exactly 0.0 and drops it only in its next
        # round; O3 then cancels the x pair across the commuting sx
        [gate("x", (0,)), gate("rz", (0,), (a,)), gate("rz", (0,), (-a,)), gate("sx", (0,)), gate("x", (0,))],
        # the commuting pass cancels the cx pair across rx, which leaves the
        # ry pair adjacent: the adjacent round fuses it into the earlier ry,
        # where a second walk would have fused it into the later one
        [gate("ry", (0,), (a,)), gate("cx", (0, 1)), gate("rx", (1,), (0.5,)), gate("cx", (0, 1)), gate("ry", (0,), (0.7,))],
        # the z walk is blocked by the first cx; the later cx walk of the same
        # pass cancels that blocker, so the next pass walks z again
        [gate("z", (1,)), gate("cx", (0, 1)), gate("rz", (0,), (a,)), gate("cx", (0, 1)), gate("rz", (1,), (0.5,)), gate("z", (1,))],
        # nested cancellations peel one layer per round
        [gate("x", (0,)), gate("h", (0,)), gate("cx", (0, 1)), gate("cx", (0, 1)), gate("h", (0,)), gate("x", (0,))],
    ]
    for ops in cases:
        assert _check_stages(ops) > 1, ops
    final = [optimize(_circ(2, ops), 3).ops for ops in cases]
    assert [[op.kind for op in ops] for ops in final] == [["sx"], ["ry", "rx"], ["rz", "rz"], []]
    assert final[1][0].params == (a + 0.7,)


def test_stage_rounds_match_full_scans_on_wide_circuits(fleet):
    # long lowered circuits, as labeling optimizes them: cancellations nest,
    # walks are long and blockers die between rounds
    rounds = []
    for wide in (qft(40), qaoa(60, layers=2), random_circuit(60)):
        expanded = expand_three_qubit(wide)
        for dev_id in ("dev80", "dev127"):
            device = fleet[dev_id]
            routed, _, _ = route(expanded, device, place_trivial(expanded, device))
            rounds.append(_check_stages(decompose_to_native(routed, device).ops))
    assert max(rounds) > 1


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
        counts = [optimize(c, level).num_gates() for level in range(4)]
        assert counts[0] >= counts[1] >= counts[2] >= counts[3], (trial, counts)
        for level in range(1, 4):
            assert check_equivalence(c, optimize(c, level), _identity_layout(4)), (trial, level)


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
        optimize(c, 3, start=-1)


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
        optimize(c, 5)


# ---------------------------------------------------------------------------
# the full pipeline


def _ghz(n):
    ops = [gate("h", (0,))] + [gate("cx", (i, i + 1)) for i in range(n - 1)]
    ops += [measure(i, i) for i in range(n)]
    return Circuit(n, n, tuple(ops), f"ghz{n}")


# sha256 over the lines "<option id> <sha256 of to_qasm(result)>" of every
# option compile_options yields, in order: one circuit per family (grover
# exists at 2 and 3 qubits only) and qft(30), which routes on dev80/dev127.
# Scores cannot tell rz(-0.0) from rz(0.0); the emitted text can.
_PINNED_COMPILES = {
    "ghz_007": "31eb3b06545dbc9bb8f33058d4aa5f5922f06f2d990fb1d7afd2a71c2a6a8152",
    "wstate_006": "3559e57bf80a726f7837deca3607c7b790146d42f38eafd195b201700f54fe91",
    "dj_008_v1": "2f6653e875cace77ab190dcba2cc7d574f0052329597b48bdc5bdbead6c6ecd4",
    "qft_008": "12ce85a4fc9dab4f2d28f07d19daedd1bda49a7933fc5d343e19bff0ea6e3884",
    "grover_003": "e31402251e4caa7a2671fca37f40fb665a204faf095ba89cde0008cd609046fc",
    "qaoa_006_p2": "c7b3f6ea411cf0676f71d059a8986d409c837a24cafde5c3d2c9119f8aa84b68",
    "random_008_v3": "68103c8d0277bf0ec5de6f1963fb36a8bb4c71c93fec0bf1626d93d4a0dc2a4e",
    "qft_030": "9443e143269fc63eba4f5278c5b5105212bdf73d928260303aa334653624b2bd",
}


def test_compiled_output_is_pinned(fleet, options):
    circuits = [
        ghz(7), wstate(6), dj(8, variant=1), qft(8), grover(3), qaoa(6, layers=2),
        random_circuit(8, seed=0, variant=3), qft(30),
    ]
    digests, counts = {}, {}
    for c in circuits:
        h = hashlib.sha256()
        counts[c.name] = 0
        for option, result in compile_options(c, options, fleet):
            qasm_digest = hashlib.sha256(to_qasm(result.circuit).encode()).hexdigest()
            h.update(f"{option.option_id} {qasm_digest}\n".encode())
            counts[c.name] += 1
        digests[c.name] = h.hexdigest()
    assert counts == {**{name: 30 for name in _PINNED_COMPILES}, "qft_030": 12}
    assert digests == _PINNED_COMPILES


def test_compile_every_option_is_legal_and_equivalent(fleet, options):
    c = _ghz(3)
    for option in options:
        result = compile_circuit(c, option, fleet)
        device = fleet[option.device_id]
        ok, reason = is_device_legal(result.circuit, device)
        assert ok, f"{option.option_id}: {reason}"
        assert check_equivalence(c, result.circuit, result.layout), option.option_id


def test_compile_stats_keys(fleet):
    result = compile_circuit(_ghz(3), parse_option("dev8/A/O2"), fleet)
    assert set(result.stats) == {"swaps_inserted", "native_gates", "placement_fallback"}
    assert result.stats["native_gates"] == result.circuit.num_gates()
    assert result.stats["swaps_inserted"] >= 0


def test_native_gates_counts_every_gate_of_every_option(fleet, options):
    # native_gates is the rung's length less the circuit's measures: lowering
    # drops the barriers and keeps the measures, which no optimizer stage touches
    ops = [gate("h", (0,)), gate("ccx", (0, 1, 4)), barrier((0, 1, 2, 3)), gate("x", (2,)), gate("x", (2,))]
    ops += [gate("cswap", (3, 0, 2)), measure(0, 0), barrier((4,)), gate("rz", (1,), (0.0,)), measure(4, 1)]
    ops += [gate("cx", (4, 3)), measure(0, 2)]
    c = _circ(5, ops, clbits=3)
    results = list(compile_options(c, options, fleet))
    assert len(results) == len(options) == 30
    for option, result in results:
        assert result.stats["native_gates"] == result.circuit.num_gates(), option.option_id
        assert sum(op.kind == "measure" for op in result.circuit.ops) == 3, option.option_id


def test_compile_rejects_oversized_circuit(fleet):
    with pytest.raises(InfeasibleError):
        compile_circuit(_ghz(9), parse_option("dev8/A/O0"), fleet)


def test_compile_rejects_unknown_device(fleet):
    with pytest.raises(CompileError, match="unknown device"):
        compile_circuit(_ghz(2), CompilationOption("nope", "A", "O0"), fleet)


def test_higher_levels_do_not_add_gates_end_to_end(fleet):
    c = _ghz(4)
    sizes = [
        compile_circuit(c, parse_option(f"dev27/A/{lvl}"), fleet).circuit.num_gates()
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
