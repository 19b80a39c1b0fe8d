"""Compilation pipeline: placement, SWAP routing, native lowering, optimization.

Each compilation option is one leaf of the two-family tree: family A keeps the
trivial placement and varies the optimization level O0-O3; family B picks a
placement strategy (line or graph) and runs a fixed O1 cleanup. Every stage is
deterministic: all tie-breaks resolve toward the lowest index.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from math import pi

from .circuit import (
    BARRIER,
    GATE_SIGNATURES,
    MEASURE,
    Circuit,
    Instruction,
    interaction_graph,
)
from .devices import DeviceModel, fleet_by_id


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
    return Instruction(kind, qubits, params)


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


# where each gate of a rewrite lands, as positions in the qubits (a, b) of
# the op it replaces: slot code c stands for _SLOTS[c], so the codes 0..3 mean
# (a, b), (a,), (b,) and (b, a); a one-qubit op uses code 1 only
_SLOTS = ((0, 1), (0,), (1,), (1, 0))
# builds an Instruction from its four fields at half the cost of the
# NamedTuple constructor, which routing and lowering call once per op they emit
_new_tuple = tuple.__new__


def _rewrite(op: Instruction, device: DeviceModel) -> tuple[tuple[str, int, tuple[float, ...]], ...] | None:
    """Lower ``op`` placed on the qubits ``0..arity-1``: None when the op is
    kept as it is, else its rewrite as ``(kind, slot code, params)`` triples
    (empty for an op that is dropped)."""
    placed = op._replace(qubits=tuple(range(len(op.qubits))))
    lowered: list[Instruction] = []
    _lower(placed, device, lowered)
    if len(lowered) == 1 and lowered[0] is placed:  # _lower appends a kept op itself
        return None
    return tuple((sub.kind, _SLOTS.index(sub.qubits), sub.params) for sub in lowered)


def _place(op: Instruction, rewrite: tuple | None) -> tuple[Instruction, ...]:
    """The native ops of ``op``: its rewrite on ``op``'s own qubits."""
    if rewrite is None:
        return (op,)
    if not rewrite:  # a dropped op, such as a barrier on any number of qubits
        return ()
    qubits = op.qubits
    if len(qubits) == 1:
        picks = (None, qubits)
    else:
        a, b = qubits
        picks = (qubits, (a,), (b,), (b, a))
    return tuple([_new_tuple(Instruction, (kind, picks[code], params, None)) for kind, code, params in rewrite])


def decompose_to_native(circuit: Circuit, device: DeviceModel) -> Circuit:
    """Rewrite every gate over the device's native set; native gates pass through.

    Each distinct gate, a kind with its params, is lowered once per call and
    every later op of that gate substitutes its own qubits into the rewrite.
    Params that compare equal but lower differently, such as ``0.0`` and
    ``-0.0`` or ``1`` and ``1.0``, never share a rewrite: only nonzero floats
    are keyed by value, anything else also by its repr. Each distinct op
    without params (a swap, cx, h or measure on its qubits and clbit) also
    keeps its native ops for its later copies; an op with params builds its
    own, since most of those are distinct.
    """
    out: list[Instruction] = []
    rewrites: dict[tuple, tuple | None] = {}
    lowered: dict[Instruction, tuple[Instruction, ...]] = {}
    for op in circuit.ops:
        params = op.params
        if not params:
            native = lowered.get(op)
            if native is not None:
                out.extend(native)
                continue
        kind = op.kind
        key = (kind, params)
        for p in params:
            if type(p) is not float or not p:
                key = (kind, params, repr(params))
                break
        if key in rewrites:
            rewrite = rewrites[key]
        else:
            rewrite = rewrites[key] = _rewrite(op, device)
        native = _place(op, rewrite)
        if not params:
            lowered[op] = native
        out.extend(native)
    return circuit.with_ops(tuple(out))


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
    weight: dict[tuple[int, int], int] = {}
    for op in circuit.gates():
        if len(op.qubits) < 2:
            continue
        qs = op.qubits
        for i in range(len(qs)):
            for j in range(i + 1, len(qs)):
                e = (min(qs[i], qs[j]), max(qs[i], qs[j]))
                weight[e] = weight.get(e, 0) + 1
    edges = sorted(weight, key=lambda e: (-weight[e], e))

    layout: dict[int, int] = {}
    free = set(range(device.num_qubits))
    sorted_coupling = sorted(device.coupling)
    dist = device.distances

    def nearest_free(anchor: int) -> int:
        return min(free, key=lambda p: (dist[anchor][p], p))

    for a, b in edges:
        pa, pb = layout.get(a), layout.get(b)
        if pa is not None and pb is not None:
            continue
        if pa is None and pb is None:
            pair = next(((u, v) for u, v in sorted_coupling if u in free and v in free), None)
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
        target = next((nb for nb in device.neighbors[placed] if nb in free), None)
        if target is None:
            target = nearest_free(placed)
        layout[missing] = target
        free.discard(target)

    partners: dict[int, list[int]] = {q: [] for q in range(circuit.num_qubits)}
    for a, b in edges:
        partners[a].append(b)
        partners[b].append(a)
    for logical in range(circuit.num_qubits):
        if logical in layout:
            continue
        anchors = [layout[p] for p in partners[logical] if p in layout]
        if anchors:
            target = min(free, key=lambda p: (sum(dist[a][p] for a in anchors), p))
        else:
            target = min(free)
        layout[logical] = target
        free.discard(target)
    return layout


# ---------------------------------------------------------------------------
# routing

def route(circuit: Circuit, device: DeviceModel, layout: dict[int, int]) -> tuple[Circuit, dict[int, int], int]:
    """Insert swaps until every two-qubit gate sits on a coupled pair.

    Swaps move the first operand along a shortest path toward the second,
    stepping to the lowest-id next hop. Returns the routed circuit on the
    device-sized register, the final logical->physical map, and the swap count.
    """
    if len(set(layout.values())) != len(layout):
        raise CompileError("placement is not injective")
    cur = dict(layout)
    seat = {p: l for l, p in cur.items()}
    dist = device.distances
    neighbors = device.neighbors
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
        while dist[pa][pb] > 1:
            hop = next((nb for nb in neighbors[pa] if dist[nb][pb] == dist[pa][pb] - 1), None)
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


def _adjacent_pass(ops: list[Instruction], fuse: bool) -> tuple[list[Instruction], bool, bool]:
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
                if (
                    prev is not None
                    and prev.kind == kind
                    and prev.qubits == qubits
                    and all(last[q] == k for q in qubits[1:])
                ):
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


def _commuting_pass(ops: list[Instruction]) -> tuple[list[Instruction], bool]:
    """Cancel or fuse gate pairs separated only by commuting neighbors."""
    n = len(ops)
    # nxt[i][s]: index of the next op on op i's qubit s after op i, n after the last
    nxt: list[tuple[int, ...]] = [()] * n
    next_on: dict[int, int] = {}
    # last[(kind, qubits)]: the last op of that gate; no partner for an
    # earlier one lies past it, so its walk stops there
    last: dict[tuple[str, tuple[int, ...]], int] = {}
    walks: list[tuple[int, int]] = []  # (op, stop) for each op with a later copy, last op first
    for i in range(n - 1, -1, -1):
        op = ops[i]
        qubits = op.qubits
        if len(qubits) == 1:
            q = qubits[0]
            nxt[i] = (next_on.get(q, n),)
            next_on[q] = i
        elif len(qubits) == 2:
            a, b = qubits
            nxt[i] = (next_on.get(a, n), next_on.get(b, n))
            next_on[a] = next_on[b] = i
        else:
            nxt[i] = tuple([next_on.get(q, n) for q in qubits])
            for q in qubits:
                next_on[q] = i
        if op.kind in _WALKERS:
            stop = last.setdefault((op.kind, qubits), i)
            if stop != i:
                walks.append((i, stop))

    alive = [True] * n
    params_now: dict[int, tuple[float, ...]] = {}
    changed = False

    for i, stop in reversed(walks):
        if not alive[i]:
            continue
        op = ops[i]
        kind, qubits = op.kind, op.qubits
        basis = _BASIS.get(kind)
        # ptr[s]: the next op on qubit slot s not yet walked past
        ptr = list(nxt[i])
        while True:
            # the earliest pointer is the candidate. A dead one is the
            # cancelled later copy of an earlier walker that stepped over this
            # op, so it commutes with this op and is stepped over like a live one
            cand = min(ptr)
            if cand > stop:
                break
            other = ops[cand]
            if other.kind == kind and other.qubits == qubits:
                if kind in _SELF_INVERSE:
                    alive[cand] = False
                else:
                    merged = params_now.get(i, op.params)[0] + params_now.get(cand, other.params)[0]
                    params_now[cand] = (merged,)
                alive[i] = False
                changed = True
                break
            # the candidate shares exactly the slots whose pointer is on it;
            # the two commute when they agree on a basis in each of those
            other_basis = _BASIS.get(other.kind)
            if basis is None or other_basis is None:
                break
            after = nxt[cand]
            for s, j in enumerate(ptr):
                if j == cand:
                    slot = other.qubits.index(qubits[s])
                    x = basis[s]
                    if x is None or x != other_basis[slot]:
                        break
                    ptr[s] = after[slot]
            else:
                continue
            break

    if not changed:
        return ops, False
    return [
        op._replace(params=params_now[i]) if i in params_now else op
        for i, op in enumerate(ops)
        if alive[i]
    ], True


def _run_stage(
    ops: list[Instruction], fuse: bool, commute: bool, scanned: bool
) -> tuple[list[Instruction], bool]:
    """Repeat one stage's passes until a round changes nothing; returns the
    ops and whether any pass changed them.

    ``scanned`` says the ops are already a fixed point of the adjacent scan.
    A clean scan leaves one, and the O2 stage hands one to O3, so the scan is
    skipped until a commuting pass changes the ops again. Skipping a scan
    that would change nothing leaves every op as scanning every round does.
    """
    changed_any = False
    while True:
        changed = False
        if not scanned:
            ops, changed, scanned = _adjacent_pass(ops, fuse)
        if commute:
            ops, commuted = _commuting_pass(ops)
            if commuted:
                changed, scanned = True, False
        if not changed:
            return ops, changed_any
        changed_any = True


# (fuse, commute) of the stages O1, O2, O3
_STAGES = ((False, False), (True, False), (True, True))


def _level_index(level: str | int) -> int:
    if isinstance(level, str):
        if level not in OPT_LEVELS:
            raise CompileError(f"unknown optimization level {level!r}")
        return OPT_LEVELS.index(level)
    if not 0 <= level <= 3:
        raise CompileError(f"unknown optimization level {level!r}")
    return level


def optimize(circuit: Circuit, level: str | int, start: str | int = 0) -> Circuit:
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
    level, start = _level_index(level), _level_index(start)
    if start > level:
        raise CompileError(f"optimization cannot start at O{start}, above the target O{level}")
    ops = list(circuit.ops)
    changed = False
    for stage in range(start, level):
        fuse, commute = _STAGES[stage]
        ops, stage_changed = _run_stage(ops, fuse, commute, scanned=stage == 2)
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
    circuit: Circuit, options: list[CompilationOption], devices: list[DeviceModel] | dict[str, DeviceModel]
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
    fleet = fleet_by_id(devices)
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


def compile_circuit(
    circuit: Circuit, option: CompilationOption, devices: list[DeviceModel] | dict[str, DeviceModel]
) -> CompiledResult:
    """Run one option end to end: place, route, lower to native, optimize.

    Raises ``InfeasibleError`` before any work when the circuit is wider than
    the device, and ``CompileError`` (a ``ValueError``) for an unknown device.
    """
    fleet = fleet_by_id(devices)
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
