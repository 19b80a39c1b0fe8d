"""Compilation pipeline: placement, SWAP routing, native lowering, optimization.

Each compilation option is one leaf of the two-family tree: family A keeps the
trivial placement and varies the optimization level O0-O3; family B picks a
placement strategy (line or graph) and runs a fixed O1 cleanup. Every stage is
deterministic: all tie-breaks resolve toward the lowest index.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import pi
from operator import itemgetter

from .circuit import (
    BARRIER,
    GATE_SIGNATURES,
    MEASURE,
    Circuit,
    Instruction,
    _new_tuple,
    interaction_counts,
    interaction_graph,
)
from .devices import DeviceModel


class CompileError(ValueError):
    """Compilation cannot proceed."""


class InfeasibleError(CompileError):
    """Circuit needs more qubits than the target device has."""


OPT_LEVELS = ("O0", "O1", "O2", "O3")
PLACEMENTS = ("line", "graph")
FAMILY_A = "A"
FAMILY_B = "B"


@dataclass(frozen=True)
class CompilationOption:
    """One point of the option tree: device x family x setting."""

    device_id: str
    family: str
    setting: str

    def __post_init__(self) -> None:
        if self.family == FAMILY_A:
            if self.setting not in OPT_LEVELS:
                raise CompileError(f"family A setting must be one of {OPT_LEVELS}, got {self.setting!r}")
        elif self.family == FAMILY_B:
            if self.setting not in PLACEMENTS:
                raise CompileError(f"family B setting must be one of {PLACEMENTS}, got {self.setting!r}")
        else:
            raise CompileError(f"unknown family {self.family!r}")

    @property
    def option_id(self) -> str:
        return f"{self.device_id}/{self.family}/{self.setting}"


def parse_option(text: str) -> CompilationOption:
    parts = text.split("/")
    if len(parts) != 3:
        raise CompileError(f"option id must look like dev8/A/O3, got {text!r}")
    return CompilationOption(parts[0], parts[1], parts[2])


def enumerate_options(devices: list[DeviceModel]) -> list[CompilationOption]:
    """All options in canonical order: device order x (A:O0..O3, B:line, B:graph)."""
    if not devices:
        raise CompileError("empty device list")
    options = []
    for d in devices:
        for level in OPT_LEVELS:
            options.append(CompilationOption(d.id, FAMILY_A, level))
        for placement in PLACEMENTS:
            options.append(CompilationOption(d.id, FAMILY_B, placement))
    return options


@dataclass
class CompiledResult:
    circuit: Circuit
    layout: dict[int, int]  # logical -> physical after all routing swaps
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# decomposition tables (all identities verified against the dense simulator)

# 1q gate -> u3 angles, up to global phase
_U3_ANGLES = {
    "x": (pi, 0.0, pi),
    "y": (pi, pi / 2, pi / 2),
    "h": (pi / 2, 0.0, pi),
    "sx": (pi / 2, -pi / 2, pi / 2),
    "sxdg": (pi / 2, pi / 2, -pi / 2),
}


def _u3_angles(kind: str, params: tuple[float, ...]) -> tuple[float, float, float]:
    if kind == "u3":
        return params  # type: ignore[return-value]
    if kind == "u2":
        return (pi / 2, params[0], params[1])
    if kind == "rx":
        return (params[0], -pi / 2, pi / 2)
    if kind == "ry":
        return (params[0], 0.0, 0.0)
    return _U3_ANGLES[kind]


# diagonal 1q gates collapse to a single rz, phase-free
_DIAG_ANGLE = {
    "z": pi,
    "s": pi / 2,
    "sdg": -pi / 2,
    "t": pi / 4,
    "tdg": -pi / 4,
}


def _g(kind: str, qubits: tuple[int, ...], *params: float) -> Instruction:
    return _new_tuple(Instruction, (kind, qubits, params, None))


def _two_qubit_rule(op: Instruction) -> list[Instruction]:
    """Rewrite a non-native two-qubit gate over {1q, cx}."""
    a, b = op.qubits
    kind = op.kind
    if kind == "cy":
        return [_g("sdg", (b,)), _g("cx", (a, b)), _g("s", (b,))]
    if kind == "cz":
        return [_g("h", (b,)), _g("cx", (a, b)), _g("h", (b,))]
    if kind == "ch":
        return [
            _g("h", (b,)), _g("sdg", (b,)), _g("cx", (a, b)), _g("h", (b,)), _g("t", (b,)),
            _g("cx", (a, b)), _g("t", (b,)), _g("h", (b,)), _g("s", (b,)), _g("x", (b,)), _g("s", (a,)),
        ]
    if kind == "swap":
        return [_g("cx", (a, b)), _g("cx", (b, a)), _g("cx", (a, b))]
    if kind == "crx":
        t = op.params[0]
        return [
            _g("h", (b,)), _g("rz", (b,), t / 2), _g("cx", (a, b)),
            _g("rz", (b,), -t / 2), _g("cx", (a, b)), _g("h", (b,)),
        ]
    if kind == "cry":
        t = op.params[0]
        return [_g("ry", (b,), t / 2), _g("cx", (a, b)), _g("ry", (b,), -t / 2), _g("cx", (a, b))]
    if kind == "crz":
        t = op.params[0]
        return [_g("rz", (b,), t / 2), _g("cx", (a, b)), _g("rz", (b,), -t / 2), _g("cx", (a, b))]
    if kind == "cp":
        t = op.params[0]
        return [
            _g("u1", (a,), t / 2), _g("cx", (a, b)), _g("u1", (b,), -t / 2),
            _g("cx", (a, b)), _g("u1", (b,), t / 2),
        ]
    if kind == "cu3":
        t, p, l = op.params
        return [
            _g("u1", (a,), (l + p) / 2), _g("u1", (b,), (l - p) / 2), _g("cx", (a, b)),
            _g("u3", (b,), -t / 2, 0.0, -(p + l) / 2), _g("cx", (a, b)), _g("u3", (b,), t / 2, p, 0.0),
        ]
    if kind == "rzz":
        return [_g("cx", (a, b)), _g("rz", (b,), op.params[0]), _g("cx", (a, b))]
    if kind == "rxx":
        return [
            _g("h", (a,)), _g("h", (b,)), _g("cx", (a, b)), _g("rz", (b,), op.params[0]),
            _g("cx", (a, b)), _g("h", (a,)), _g("h", (b,)),
        ]
    raise CompileError(f"no lowering rule for {kind!r}")


def _three_qubit_rule(op: Instruction) -> list[Instruction]:
    a, b, c = op.qubits
    if op.kind == "ccx":
        return [
            _g("h", (c,)), _g("cx", (b, c)), _g("tdg", (c,)), _g("cx", (a, c)), _g("t", (c,)),
            _g("cx", (b, c)), _g("tdg", (c,)), _g("cx", (a, c)), _g("t", (b,)), _g("t", (c,)),
            _g("h", (c,)), _g("cx", (a, b)), _g("t", (a,)), _g("tdg", (b,)), _g("cx", (a, b)),
        ]
    if op.kind == "cswap":
        return [_g("cx", (c, b)), *_three_qubit_rule(_g("ccx", (a, b, c))), _g("cx", (c, b))]
    raise CompileError(f"no lowering rule for {op.kind!r}")


def expand_three_qubit(circuit: Circuit) -> Circuit:
    """Rewrite ccx/cswap over one- and two-qubit gates (routing needs pairs)."""
    if not any(len(op.qubits) == 3 and op.kind in GATE_SIGNATURES for op in circuit.ops):
        return circuit
    out: list[Instruction] = []
    for op in circuit.ops:
        if op.kind in GATE_SIGNATURES and len(op.qubits) == 3:
            out.extend(_three_qubit_rule(op))
        else:
            out.append(op)
    return circuit.with_ops(tuple(out))


_EPS = 1e-12


def _lower_1q(op: Instruction, device: DeviceModel, out: list[Instruction]) -> None:
    native = device.native_gates
    kind = op.kind
    if kind in _DIAG_ANGLE or kind in ("rz", "u1"):
        angle = op.params[0] if kind in ("rz", "u1") else _DIAG_ANGLE[kind]
        if abs(angle) > _EPS:
            out.append(_g("rz", op.qubits, angle))
        return
    theta, phi, lam = _u3_angles(kind, op.params)
    q = op.qubits
    if "sx" in native and "x" in native:
        if abs(theta) < _EPS:
            if abs(phi + lam) > _EPS:
                out.append(_g("rz", q, phi + lam))
            return
        out.append(_g("rz", q, lam))
        out.append(_g("sx", q))
        out.append(_g("rz", q, theta + pi))
        out.append(_g("sx", q))
        out.append(_g("rz", q, phi + pi))
        return
    if "rx" in native and "ry" in native:
        if abs(theta) < _EPS:
            if abs(phi + lam) > _EPS:
                out.append(_g("rz", q, phi + lam))
            return
        if abs(lam) > _EPS:
            out.append(_g("rz", q, lam))
        out.append(_g("ry", q, theta))
        if abs(phi) > _EPS:
            out.append(_g("rz", q, phi))
        return
    raise CompileError(f"no single-qubit lowering onto native set {sorted(native)}")


def _lower_cx(op: Instruction, device: DeviceModel, out: list[Instruction]) -> None:
    if "rxx" in device.native_gates:
        a, b = op.qubits
        out.append(_g("ry", (a,), pi / 2))
        out.append(_g("rxx", (a, b), pi / 2))
        out.append(_g("rx", (a,), -pi / 2))
        out.append(_g("rx", (b,), -pi / 2))
        out.append(_g("ry", (a,), -pi / 2))
        return
    raise CompileError(f"no cx lowering onto native set {sorted(device.native_gates)}")


def _lower(op: Instruction, device: DeviceModel, out: list[Instruction]) -> None:
    kind = op.kind
    if kind == MEASURE:
        out.append(op)
        return
    if kind == BARRIER or kind == "id":
        # barriers are scheduling hints with no native counterpart; dropped here
        return
    if kind in device.native_gates:
        out.append(op)
        return
    arity = len(op.qubits)
    if arity == 1:
        _lower_1q(op, device, out)
    elif kind == "cx":
        _lower_cx(op, device, out)
    elif arity == 2:
        for sub in _two_qubit_rule(op):
            _lower(sub, device, out)
    else:
        raise CompileError(f"decompose_to_native expects gates on at most two qubits; expand {kind} first")


def decompose_to_native(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Rewrite every gate over the device's native set; native gates pass through.

    Each distinct op without params (a swap, cx, h or measure on its qubits
    and clbit) is lowered once per call and its later copies reuse its native
    ops; an op with params is lowered on its own, since most of those are
    distinct.
    """
    out: list[Instruction] = []
    lowered: dict[Instruction, list[Instruction]] = {}
    for op in circuit.ops:
        if op.params:
            _lower(op, device, out)
            continue
        native = lowered.get(op)
        if native is None:
            native = lowered[op] = []
            _lower(op, device, native)
        out.extend(native)
    return circuit.with_ops(tuple(out))


def lowering_fault(device: DeviceModel) -> str | None:
    """The first gate kind, in vocabulary order, that a compile cannot lower
    onto ``device``'s native set, and why; None when every kind lowers. One
    op of each kind is expanded and lowered as ``decompose_to_native`` would,
    and fails if that raises or emits a kind that is not native."""
    for kind, (arity, nparams) in GATE_SIGNATURES.items():
        op = _g(kind, tuple(range(arity)), *(0.5,) * nparams)
        out: list[Instruction] = []
        try:
            for sub in _three_qubit_rule(op) if arity == 3 else [op]:
                _lower(sub, device, out)
        except CompileError as exc:
            return f"{kind}: {exc}"
        emitted = next((o.kind for o in out if o.kind not in device.native_gates), None)
        if emitted:
            return f"{kind}: it lowers to {emitted}, which is not native"
    return None


# ---------------------------------------------------------------------------
# placement

def place_trivial(circuit: Circuit, device: DeviceModel) -> dict[int, int]:
    return {q: q for q in range(circuit.num_qubits)}


def _degree_order(circuit: Circuit) -> list[int]:
    degree = [0] * circuit.num_qubits
    for a, b in interaction_graph(circuit):
        degree[a] += 1
        degree[b] += 1
    return sorted(range(circuit.num_qubits), key=lambda q: (-degree[q], q))


def place_line(circuit: Circuit, device: DeviceModel) -> tuple[dict[int, int], bool]:
    """Map logical qubits onto a coupling-graph path, busiest qubits first.

    Returns (layout, fell_back); when no long-enough path exists the trivial
    placement is used instead and flagged.
    """
    path = device.line_path
    if len(path) < circuit.num_qubits:
        return place_trivial(circuit, device), True
    layout = {logical: path[i] for i, logical in enumerate(_degree_order(circuit))}
    return layout, False


def place_graph(circuit: Circuit, device: DeviceModel) -> dict[int, int]:
    """Greedy monomorphism of the interaction graph, heaviest edges first."""
    weight = interaction_counts(circuit)
    edges = sorted(weight, key=lambda e: (-weight[e], e))

    layout: dict[int, int] = {}
    free = set(range(device.num_qubits))
    neighbors = device.neighbors
    dist = device.distances

    def nearest_free(anchor: int) -> int:
        return min(free, key=lambda p: (dist[anchor][p], p))

    for a, b in edges:
        pa, pb = layout.get(a), layout.get(b)
        if pa is not None and pb is not None:
            continue
        if pa is None and pb is None:
            pair = next(((u, v) for u in sorted(free) for v in neighbors[u] if v in free), None)
            if pair is None:
                pa = min(free)
                layout[a] = pa
                free.discard(pa)
                layout[b] = nearest_free(pa)
                free.discard(layout[b])
            else:
                layout[a], layout[b] = pair
                free.discard(pair[0])
                free.discard(pair[1])
            continue
        placed, missing = (pa, b) if pa is not None else (pb, a)
        target = next((nb for nb in neighbors[placed] if nb in free), None)
        if target is None:
            target = nearest_free(placed)
        layout[missing] = target
        free.discard(target)

    # the loop above seats both ends of every edge; what is left never interacts
    for logical in range(circuit.num_qubits):
        if logical not in layout:
            layout[logical] = target = min(free)
            free.discard(target)
    return layout


# ---------------------------------------------------------------------------
# routing

def route(circuit: Circuit, device: DeviceModel, layout: dict[int, int]) -> tuple[Circuit, dict[int, int], int]:
    """Insert swaps until every two-qubit gate sits on a coupled pair.

    Swaps move the first operand along a shortest path toward the second,
    stepping to the lowest-id next hop, read from the device's complete
    ``next_hops`` table until the hop is the second operand itself. Returns
    the routed circuit on the device-sized register, the final
    logical->physical map, and the swap count.
    """
    if len(set(layout.values())) != len(layout):
        raise CompileError("placement is not injective")
    cur = dict(layout)
    seat = {p: l for l, p in cur.items()}
    hops = device.next_hops
    out: list[Instruction] = []
    swaps = 0
    for op in circuit.ops:
        kind, qubits = op.kind, op.qubits
        if kind == MEASURE:
            out.append(_new_tuple(Instruction, (MEASURE, (cur[qubits[0]],), (), op.clbit)))
            continue
        if kind == BARRIER:
            out.append(_new_tuple(Instruction, (BARRIER, tuple(sorted(cur[q] for q in qubits)), (), None)))
            continue
        if len(qubits) == 1:
            out.append(_new_tuple(Instruction, (kind, (cur[qubits[0]],), op.params, None)))
            continue
        if len(qubits) > 2:
            raise CompileError(f"route expects gates on at most two qubits; expand {kind} first")
        a, b = qubits
        pa, pb = cur[a], cur[b]
        while (hop := hops[pa][pb]) != pb:
            if hop is None:
                raise CompileError(f"qubits {pa} and {pb} are not connected on {device.id}")
            out.append(_new_tuple(Instruction, ("swap", (pa, hop), (), None)))
            swaps += 1
            rider = seat.pop(pa)
            sitter = seat.pop(hop, None)
            seat[hop] = rider
            cur[rider] = hop
            if sitter is not None:
                seat[pa] = sitter
                cur[sitter] = pa
            pa = hop
        out.append(_new_tuple(Instruction, (kind, (pa, pb), op.params, None)))
    routed = Circuit(device.num_qubits, circuit.num_clbits, tuple(out), circuit.name)
    return routed, cur, swaps


# ---------------------------------------------------------------------------
# optimization ladder

_SELF_INVERSE = frozenset({"x", "y", "z", "h", "cx", "cy", "cz", "ch", "swap", "ccx", "cswap"})
_ROTATIONS = frozenset({"rx", "ry", "rz", "u1", "crx", "cry", "crz", "cp", "rxx", "rzz"})
# kinds whose later copies the commuting pass looks for
_WALKERS = _SELF_INVERSE | _ROTATIONS

# per-qubit commutation basis: gates block-diagonal in the same basis on every
# shared qubit commute; None marks positions with no single basis
_BASIS: dict[str, tuple] = {
    "x": ("x",), "sx": ("x",), "sxdg": ("x",), "rx": ("x",),
    "y": ("y",), "ry": ("y",),
    "z": ("z",), "s": ("z",), "sdg": ("z",), "t": ("z",), "tdg": ("z",), "rz": ("z",), "u1": ("z",),
    "cx": ("z", "x"), "cy": ("z", "y"), "cz": ("z", "z"), "cp": ("z", "z"), "crz": ("z", "z"),
    "crx": ("z", "x"), "cry": ("z", "y"), "cu3": ("z", None), "ch": ("z", None),
    "rxx": ("x", "x"), "rzz": ("z", "z"), "ccx": ("z", "z", "x"),
}


def _adjacent_pass(ops: list[Instruction], fuse: bool) -> tuple[list[Instruction], bool, list[int], list[int]]:
    """A stage's first round: one full scan of adjacent cancellation, identity
    dropping and optional fusion.

    Returns the kept ops, whether the scan changed anything, and the indices
    of two kinds of op the next round must deal with: the earlier op of each
    cancelled pair, which is left in the list for the caller to remove, and
    each op whose fused angle fell below ``_EPS``. When both lists are empty
    the scan was clean and its output is a fixed point of the scan. Drops and
    fusions keep each qubit's true predecessor in ``last``, so the next scan
    meets the ops it kept with the same predecessors and decides alike; only a
    cancellation loses it, and only a near-zero fused angle is left for the
    next scan to drop.
    """
    out: list[Instruction] = []
    last: dict[int, int | None] = {}
    changed = False
    cancelled: list[int] = []
    small: list[int] = []
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
                        cancelled.append(k)
                        for q in qubits:
                            last[q] = None  # true predecessor unknown; next round catches follow-ups
                        changed = True
                        continue
                    if fuse and kind in _ROTATIONS:
                        angle = prev.params[0] + op.params[0]
                        out[k] = prev._replace(params=(angle,))
                        changed = True
                        if abs(angle) < _EPS:
                            small.append(k)
                        continue
        idx = len(out)
        out.append(op)
        for q in qubits:
            last[q] = idx
    return out, changed, cancelled, small


_qubits_of = itemgetter(1)
# stands past the end of every qubit's line in a linked stage, where it blocks
# every walk like a barrier
_LINE_END = Instruction(BARRIER, ())


class _Stage:
    """One optimizer stage's ops, kept in place across the stage's rounds.

    ``ops[i]`` becomes None when op ``i`` is removed, and ``ops[n]`` is
    ``_LINE_END``. Op ``i`` owns the link nodes ``i * width + s``, one per
    qubit slot ``s``: ``prv`` and ``nxt`` hold the nodes of the previous and
    the next live op on that slot's qubit, -1 and ``_LINE_END``'s node at
    either end. Node order is op order, so the smallest node names the
    earliest op.

    ``seeds`` collects the ops the next adjacent round must visit. For the
    commuting pass, ``walks`` lists in op order every op of a kind that looks
    for copies, and ``stop[i]`` is the op that blocked the last walk from op
    ``i``, -1 before its first walk.
    """

    def __init__(self, ops: list[Instruction], fuse: bool, commute: bool) -> None:
        n = len(ops)
        width = max(map(len, map(_qubits_of, ops)), default=1)
        end = n * width
        prv = [-1] * end
        nxt = [end] * end
        last: dict[int, int] = {}
        node = 0
        for op in ops:
            u = node
            for q in op.qubits:
                p = last.get(q, -1)
                if p >= 0:
                    prv[u] = p
                    nxt[p] = u
                last[q] = u
                u += 1
            node += width
        self.walks = [i for i, op in enumerate(ops) if op.kind in _WALKERS] if commute else []
        ops.append(_LINE_END)
        self.ops, self.fuse, self.width, self.end = ops, fuse, width, end
        self.prv, self.nxt = prv, nxt
        self.stop = [-1] * n
        self.seeds: list[int] = []

    def compact(self) -> list[Instruction]:
        return [op for op in self.ops[:-1] if op is not None]

    def kill(self, i: int, successors: list[int]) -> None:
        """Remove op ``i``, adding the next live op on each of its qubits to
        ``successors``: each now has a new predecessor there."""
        prv, nxt, width, end = self.prv, self.nxt, self.width, self.end
        first = i * width
        for u in range(first, first + len(self.ops[i].qubits)):
            p, x = prv[u], nxt[u]
            if p >= 0:
                nxt[p] = x
            if x != end:
                prv[x] = p
                successors.append(x // width)
        self.ops[i] = None

    def adjacent_round(self) -> bool:
        """One adjacent round after the first full scan: visits, in op order,
        the seeds and the successors of each op it removes, and returns
        whether it changed anything.

        Every other op keeps its decision of the round before: it has the
        same predecessors as then, known ones, and an angle no fusion has
        touched. Each visit follows the full scan's ``last`` rules, including
        "unknown" on a qubit from a pair cancelled in this round until the
        next op kept there, so each fusion adds the same two floats in the
        same order as a full scan. An op kept with an unknown predecessor,
        and a fused angle that falls below ``_EPS``, seed the next round.
        """
        ops, prv, width = self.ops, self.prv, self.width
        heap = self.seeds
        heapify(heap)
        self.seeds = again = []
        cut: dict[int, int] = {}  # qubit -> later op of the last pair cancelled on it
        changed = False
        done = -1
        while heap:
            i = heappop(heap)
            op = ops[i]
            if i == done or op is None or op.kind not in GATE_SIGNATURES:
                continue
            done = i
            kind, qubits = op.kind, op.qubits
            successors: list[int] = []
            if kind == "id" or (kind in _ROTATIONS and abs(op.params[0]) < _EPS):
                self.kill(i, successors)
                changed = True
            else:
                # the full scan's ``last`` on each qubit; -1 stands for None
                last = []
                unknown = False
                for s, q in enumerate(qubits):
                    k = prv[i * width + s] // width
                    if cut.get(q, -1) > k:
                        unknown, k = True, -1
                    last.append(k)
                k = last[0]
                prev = ops[k] if k >= 0 else None
                if prev is None or prev.kind != kind or prev.qubits != qubits or any(x != k for x in last[1:]):
                    if unknown:
                        again.append(i)
                    continue
                if kind in _SELF_INVERSE:
                    self.kill(k, successors)
                    self.kill(i, successors)
                    for q in qubits:
                        cut[q] = i
                elif self.fuse and kind in _ROTATIONS:
                    angle = prev.params[0] + op.params[0]
                    ops[k] = prev._replace(params=(angle,))
                    self.kill(i, successors)
                    if abs(angle) < _EPS:
                        again.append(k)
                else:
                    continue
                changed = True
            for j in successors:
                heappush(heap, j)
        return changed

    def commuting_pass(self) -> bool:
        """Cancel or fuse gate pairs separated only by commuting neighbors;
        returns whether any pair met.

        Walks go in op order, each from its own op along its qubits, and end
        at a copy of the op (same kind and qubits), which they cancel or fuse
        with, or at the op that blocks them. The first pass walks from every
        op. A later pass walks again only from an op whose blocker has died
        since its last walk; any other walk would end at the same blocker.
        That is exact: ops are only ever removed, params never decide a step,
        every op before the blocker on the walker's qubits was stepped over
        and still commutes with it, and a walk that skips dead ops decides as
        one that steps over them. A walk from an op with no live later copy
        can only end blocked, so it changes nothing either way.
        """
        ops, nxt, width, stop, seeds = self.ops, self.nxt, self.width, self.stop, self.seeds
        changed = False
        for i in self.walks:
            op = ops[i]
            if op is None:
                continue
            blocker = stop[i]
            if blocker >= 0 and ops[blocker] is not None:
                continue
            kind, qubits = op.kind, op.qubits
            basis = _BASIS.get(kind)
            # ptr[s]: the node of the next op on qubit slot s not yet walked past
            first = i * width
            ptr = nxt[first:first + len(qubits)]
            while True:
                # the earliest pointer is the candidate
                cand = min(ptr) // width
                other = ops[cand]
                if other.kind == kind and other.qubits == qubits:
                    if kind in _SELF_INVERSE:
                        self.kill(cand, seeds)
                    else:
                        ops[cand] = other._replace(params=(op.params[0] + other.params[0],))
                        seeds.append(cand)
                    self.kill(i, seeds)
                    changed = True
                    break
                # the candidate shares exactly the slots whose pointer is on
                # it; the two commute when they agree on a basis in each
                other_basis = _BASIS.get(other.kind)
                if basis is None or other_basis is None:
                    stop[i] = cand
                    break
                first = cand * width
                for s, u in enumerate(ptr):
                    if u - first < width:
                        x = basis[s]
                        if x is None or x != other_basis[u - first]:
                            break
                        ptr[s] = nxt[u]
                else:
                    continue
                stop[i] = cand
                break
        return changed


def _run_stage(ops: list[Instruction], stage: int) -> tuple[list[Instruction], bool]:
    """Repeat the rounds of stage ``stage`` (0, 1, 2 for O1, O2, O3) until a
    round changes nothing; returns the ops and whether any round changed them.

    O2 adds fusion to O1's adjacent scan, and O3 the commuting pass. O3 always
    starts on the O2 fixed point, as ``optimize`` runs it, so it starts with
    the commuting pass; O1 and O2 start with one full scan, and a clean scan
    ends the stage there. Only a stage that needs a second round links its
    ops. From then on every round works on the one op array: an adjacent round
    visits only the ops whose decision can change (see
    ``_Stage.adjacent_round``), and a commuting pass walks only from the ops
    whose walk can end differently (see ``_Stage.commuting_pass``). The ops
    are compacted once, when the stage ends. Each round leaves the ops, bit
    for bit, as a full scan and a full commuting pass would.
    """
    fuse, commute = stage > 0, stage == 2
    changed = changed_any = False
    if commute:
        linked = _Stage(list(ops), fuse, commute)
    else:
        ops, changed, cancelled, small = _adjacent_pass(ops, fuse)
        if not (cancelled or small):
            return ops, changed
        linked = _Stage(ops, fuse, commute)
        for k in cancelled:
            linked.kill(k, linked.seeds)
        linked.seeds += small
    while True:
        if commute and linked.commuting_pass():
            changed = True
        if not changed:
            return linked.compact(), changed_any
        changed_any = True
        changed = linked.adjacent_round()


def optimize(circuit: Circuit, level: int, start: int = 0) -> Circuit:
    """Apply the graded cleanup ladder; levels build on each other, so gate
    counts never increase with the level.

    Only the stages ``start + 1 .. level`` run: the caller vouches that
    ``circuit`` is already ``optimize(c, start)`` of some ``c``, so
    ``optimize(optimize(c, a), b, start=a)`` equals ``optimize(c, b)``. Every
    stage ends on a fixed point, which is what makes resuming exact; the O3
    stage starts on the O2 fixed point of the fusing adjacent scan and so
    skips its first such scan. Returns ``circuit`` itself when no stage
    changes anything.
    """
    if not 0 <= level <= 3:
        raise CompileError(f"unknown optimization level {level!r}")
    if not 0 <= start <= level:
        raise CompileError(f"optimization cannot start at O{start}, outside O0..O{level}")
    ops = list(circuit.ops)
    changed = False
    for stage in range(start, level):
        ops, stage_changed = _run_stage(ops, stage)
        changed = changed or stage_changed
    return circuit.with_ops(tuple(ops)) if changed else circuit


# ---------------------------------------------------------------------------
# the full pipeline

def _layout_and_level(
    expanded: Circuit, option: CompilationOption, device: DeviceModel
) -> tuple[dict[int, int], bool, int]:
    """Place one option's circuit: (layout, placement fell back, optimizer level)."""
    if option.family == FAMILY_A:
        return place_trivial(expanded, device), False, OPT_LEVELS.index(option.setting)
    if option.setting == "line":
        layout, fell_back = place_line(expanded, device)
        return layout, fell_back, 1
    return place_graph(expanded, device), False, 1


def _compile_on_device(
    expanded: Circuit, measures: int, options: list[CompilationOption], device: DeviceModel
) -> Iterator[tuple[CompilationOption, CompiledResult]]:
    """Route and lower once per distinct layout, then climb the optimizer
    ladder through the levels the options ask for, one rung on the last.

    Each climb runs only the stages above the previous rung,
    ``optimize(rung, level, start=previous)``, so every stage runs once per
    layout. That is exact: every optimizer stage ends on a fixed point, so
    ``optimize(optimize(c, a), b, start=a) == optimize(c, b)`` for
    ``a <= b``. A climb that changes nothing returns the rung itself, so
    options that share a circuit get the same ``Circuit`` object and are
    yielded one after another.

    ``measures`` is the number of measures in ``expanded``. Lowering drops
    every barrier and keeps every measure, and no optimizer stage touches a
    measure, so every op of a rung but those measures is a native gate.
    """
    plans: dict[tuple, tuple[dict[int, int], list[tuple[CompilationOption, bool, int]]]] = {}
    for option in options:
        layout, fell_back, level = _layout_and_level(expanded, option, device)
        key = tuple(sorted(layout.items()))
        plans.setdefault(key, (layout, []))[1].append((option, fell_back, level))

    for layout, wanted in plans.values():
        routed, final_layout, swaps = route(expanded, device, layout)
        rung = decompose_to_native(routed, device)
        previous = 0
        for level in sorted({level for _, _, level in wanted}):
            rung = optimize(rung, level, start=previous)
            previous = level
            for option, fell_back, option_level in wanted:
                if option_level == level:
                    stats = {
                        "swaps_inserted": swaps,
                        "native_gates": len(rung.ops) - measures,
                        "placement_fallback": fell_back,
                    }
                    yield option, CompiledResult(rung, dict(final_layout), stats)


def compile_options(
    circuit: Circuit, options: list[CompilationOption], fleet: dict[str, DeviceModel]
) -> Iterator[tuple[CompilationOption, CompiledResult]]:
    """Compile every option that fits its device, sharing the common prefixes.

    Yields ``(option, result)`` device by device, so the work kept for one
    device is dropped before the next starts. Three-qubit gates are expanded
    once per circuit, routing and lowering run once per distinct layout on a
    device, and the optimizer climbs O1 -> O2 -> O3 on one routed circuit.
    Options whose device is narrower than the circuit are skipped without any
    work. Raises ``CompileError`` (a ``ValueError``) for an unknown device
    before compiling anything.
    """
    by_device: dict[str, list[CompilationOption]] = {}
    for option in options:
        if option.device_id not in fleet:
            raise CompileError(f"unknown device {option.device_id!r}")
        by_device.setdefault(option.device_id, []).append(option)

    expanded = None
    for device_id, wanted in by_device.items():
        device = fleet[device_id]
        if circuit.num_qubits > device.num_qubits:
            continue
        if expanded is None:
            expanded = expand_three_qubit(circuit)
            measures = [op.kind for op in expanded.ops].count(MEASURE)
        yield from _compile_on_device(expanded, measures, wanted, device)


def compile_circuit(circuit: Circuit, option: CompilationOption, fleet: dict[str, DeviceModel]) -> CompiledResult:
    """Run one option end to end: place, route, lower to native, optimize.

    Raises ``InfeasibleError`` before any work when the circuit is wider than
    the device, and ``CompileError`` (a ``ValueError``) for an unknown device.
    """
    for _, result in compile_options(circuit, [option], fleet):
        return result
    device = fleet[option.device_id]
    raise InfeasibleError(
        f"{circuit.num_qubits} qubits do not fit on {device.id} ({device.num_qubits} qubits)"
    )


def is_device_legal(circuit: Circuit, device: DeviceModel) -> tuple[bool, str]:
    """Check the compiled-circuit contract: native kinds on coupled pairs."""
    for i, op in enumerate(circuit.ops):
        if op.kind == BARRIER:
            continue
        if op.kind == MEASURE:
            continue
        if op.kind not in device.native_gates:
            return False, f"op {i}: {op.kind} is not native to {device.id}"
        if len(op.qubits) == 2 and not device.coupled(*op.qubits):
            return False, f"op {i}: {op.kind} on uncoupled pair {op.qubits}"
        if len(op.qubits) > 2:
            return False, f"op {i}: {op.kind} spans more than two qubits"
    return True, ""
