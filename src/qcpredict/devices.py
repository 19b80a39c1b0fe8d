"""Target device models: coupling maps, native gate sets, calibration data.

The builtin fleet has four superconducting devices (8, 27, 80, 127 qubits)
with sparse heavy-hex-style coupling and one 11-qubit ion trap with complete
coupling. Published calibration numbers are unavailable, so the fleet ships
synthetic ones: the ion trap gets uniformly better gates and readout but a
weaker two-qubit fidelity than the superconducting cx, preserving the real
technology trade-off.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from math import log
from pathlib import Path

import numpy as np
import yaml

from .circuit import GATE_SIGNATURES, MEASURE

SUPERCONDUCTING = "superconducting"
ION_TRAP = "ion-trap"

# synthetic per-technology fidelities; the two-qubit jitter below makes edges
# distinguishable so placement choices show up in scores
_SC_1Q = 0.999
_SC_2Q = 0.99
_SC_READOUT = 0.97
_SC_2Q_JITTER = 0.005
_ION_1Q = 0.9995
_ION_2Q = 0.973
_ION_READOUT = 0.996
_CALIB_SEED = 0x5EED


class DeviceError(ValueError):
    """Malformed device description."""


@dataclass(frozen=True)
class Calibration:
    """Fidelity tables keyed by the exact physical qubit tuple."""

    gate_fidelity: dict[tuple[str, tuple[int, ...]], float]
    readout_fidelity: dict[int, float]


@dataclass(frozen=True)
class DeviceModel:
    """A device and the tables derived from its directed coupling, each built
    once on first read: placement and routing only read them."""

    id: str
    technology: str
    num_qubits: int
    coupling: frozenset[tuple[int, int]]  # directed pairs
    native_gates: frozenset[str]
    calib: Calibration = field(hash=False)  # dicts: compared, not hashed

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        adj: dict[int, list[int]] = {q: [] for q in range(self.num_qubits)}
        for a, b in self.coupling:
            adj[a].append(b)
        return {q: tuple(sorted(set(ns))) for q, ns in adj.items()}

    @cached_property
    def _bfs_tables(self) -> tuple[list[list[int]], list[list[int | None]]]:
        """One BFS per source qubit, visiting neighbors in id order, fills a
        row of both ``distances`` and ``next_hops``."""
        n = self.num_qubits
        dist = [[n + 1] * n for _ in range(n)]
        hops: list[list[int | None]] = [[None] * n for _ in range(n)]
        for src, row, hop in zip(range(n), dist, hops):
            row[src] = 0
            queue = deque([src])
            while queue:
                cur = queue.popleft()
                for nb in self.neighbors[cur]:
                    if row[nb] > row[cur] + 1:
                        row[nb] = row[cur] + 1
                        hop[nb] = nb if cur == src else hop[cur]
                        queue.append(nb)
        return dist, hops

    @property
    def distances(self) -> list[list[int]]:
        """All-pairs BFS hop counts; unreachable pairs get a large sentinel."""
        return self._bfs_tables[0]

    @property
    def next_hops(self) -> list[list[int | None]]:
        """``next_hops[a][b]``: the lowest-id neighbor of ``a`` one hop closer
        to ``b``, or None (``a == b``, or ``b`` unreachable from ``a``).

        The BFS from ``a`` keeps for each qubit the hop it was first reached
        through. Each level is dequeued in order of that hop, as the first is
        enqueued in id order, so it is the lowest-id one."""
        return self._bfs_tables[1]

    @cached_property
    def line_path(self) -> tuple[int, ...]:
        """Longest greedy simple path over every start, each step extending to
        the lowest-id unvisited neighbor."""
        best: tuple[int, ...] = ()
        for start in range(self.num_qubits):
            path = [start]
            visited = {start}
            while True:
                nxt = next((nb for nb in self.neighbors[path[-1]] if nb not in visited), None)
                if nxt is None:
                    break
                path.append(nxt)
                visited.add(nxt)
            if len(path) > len(best):
                best = tuple(path)
            if len(best) == self.num_qubits:
                break
        return best

    @cached_property
    def log_fidelity(self) -> dict[tuple[str, tuple[int, ...]], float]:
        """``log f`` per ``(kind, qubits)``, the readout of qubit ``q`` stored
        under ``("measure", (q,))``: one lookup per scored op. A measure only
        ever reads the readout table, even if the gate table names it."""
        table = {key: log(fid) for key, fid in self.calib.gate_fidelity.items() if key[0] != MEASURE}
        for q, fid in self.calib.readout_fidelity.items():
            table[(MEASURE, (q,))] = log(fid)
        return table

    def coupled(self, a: int, b: int) -> bool:
        return (a, b) in self.coupling


def _reaches_every_qubit(n: int, coupling: frozenset[tuple[int, int]]) -> bool:
    """Whether the directed pairs lead from qubit 0 to all ``n`` qubits, in O(pairs) time for any ``n``;
    for a coupling listed both ways, whether it is connected."""
    adj: dict[int, list[int]] = {}
    for a, b in coupling:
        adj.setdefault(a, []).append(b)
    seen, todo = {0}, [0]
    while todo:
        for nb in adj.get(todo.pop(), ()):
            if nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return len(seen) == n


def _heavy_hexish_coupling(rows: int, cols: int, num_qubits: int) -> frozenset[tuple[int, int]]:
    """Row paths plus alternating rung columns; max degree 3, connected.

    Rungs sit at columns 0 mod 4 below even rows and 2 mod 4 below odd rows,
    so no node carries more than one rung.
    """
    edges: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> None:
        if a < num_qubits and b < num_qubits:
            edges.add((a, b))
            edges.add((b, a))

    for r in range(rows):
        for c in range(cols - 1):
            add(r * cols + c, r * cols + c + 1)
    for r in range(rows - 1):
        start = 0 if r % 2 == 0 else 2
        for c in range(start, cols, 4):
            add(r * cols + c, (r + 1) * cols + c)
    return frozenset(edges)


def _sc_calibration(device_index: int, num_qubits: int, coupling: frozenset[tuple[int, int]]) -> Calibration:
    rng = np.random.default_rng(np.random.SeedSequence(_CALIB_SEED, spawn_key=(device_index,)))
    gate_fidelity: dict[tuple[str, tuple[int, ...]], float] = {}
    for q in range(num_qubits):
        for kind in ("rz", "sx", "x"):
            gate_fidelity[(kind, (q,))] = _SC_1Q
    undirected = sorted({(min(a, b), max(a, b)) for a, b in coupling})
    for a, b in undirected:
        fid = _SC_2Q + float(rng.uniform(-_SC_2Q_JITTER, _SC_2Q_JITTER))
        gate_fidelity[("cx", (a, b))] = fid
        gate_fidelity[("cx", (b, a))] = fid
    readout = {q: _SC_READOUT for q in range(num_qubits)}
    return Calibration(gate_fidelity, readout)


def _ion_calibration(num_qubits: int, coupling: frozenset[tuple[int, int]]) -> Calibration:
    gate_fidelity: dict[tuple[str, tuple[int, ...]], float] = {}
    for q in range(num_qubits):
        for kind in ("rx", "ry", "rz"):
            gate_fidelity[(kind, (q,))] = _ION_1Q
    for pair in coupling:
        gate_fidelity[("rxx", pair)] = _ION_2Q
    readout = {q: _ION_READOUT for q in range(num_qubits)}
    return Calibration(gate_fidelity, readout)


_SC_NATIVE = frozenset({"rz", "sx", "x", "cx", "measure"})
_ION_NATIVE = frozenset({"rx", "ry", "rz", "rxx", "measure"})

# (id, rows, cols, num_qubits) for the superconducting members of the fleet
_SC_SHAPES = (
    ("dev8", 2, 4, 8),
    ("dev27", 3, 9, 27),
    ("dev80", 8, 10, 80),
    ("dev127", 10, 13, 127),
)


def builtin_devices() -> list[DeviceModel]:
    """The five-device fleet, ordered by qubit count."""
    devices = []
    for index, (dev_id, rows, cols, n) in enumerate(_SC_SHAPES):
        coupling = _heavy_hexish_coupling(rows, cols, n)
        devices.append(
            DeviceModel(dev_id, SUPERCONDUCTING, n, coupling, _SC_NATIVE, _sc_calibration(index, n, coupling))
        )
    ion_coupling = frozenset((a, b) for a in range(11) for b in range(11) if a != b)
    devices.append(DeviceModel("dev11", ION_TRAP, 11, ion_coupling, _ION_NATIVE, _ion_calibration(11, ion_coupling)))
    devices.sort(key=lambda d: d.num_qubits)
    return devices


def _check_fidelity(value: float, what: str) -> float:
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise DeviceError(f"{what} fidelity {value} outside (0, 1]")
    return value


def _integer(value: object, path: str | Path, field: str) -> int:
    """``int(value)``, refusing a float or a bool, which ``int`` would
    truncate or read as 0 or 1, naming the file and the field."""
    if isinstance(value, (bool, float)):
        raise DeviceError(f"{path}: {field} must be an integer, got {value!r}")
    return int(value)


def load_device(path: str | Path) -> DeviceModel:
    """Read one device description; gaps in the calibration fill from defaults.

    A malformed file raises ``DeviceError`` naming it: a YAML syntax error, an
    entry without a field it needs, or a value of the wrong type, a count or
    qubit that is a float or a bool among them. So does a coupling pair whose
    reverse is not listed, since routing needs both, and a native gate set
    the compiler cannot lower every gate kind onto."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _device_from_doc(yaml.safe_load(fh), path)
    except DeviceError:
        raise  # a ValueError that already names the file
    except KeyError as exc:
        raise DeviceError(f"{path}: an entry has no {exc} field") from None
    except yaml.MarkedYAMLError as exc:  # its own text spans several lines
        raise DeviceError(f"{path}: line {exc.problem_mark.line + 1}: {exc.problem}") from None
    except yaml.reader.ReaderError as exc:  # so does this one's, which names the file again
        raise DeviceError(f"{path}: position {exc.position}: {str(exc).splitlines()[0]}") from None
    except (TypeError, ValueError, OverflowError, yaml.YAMLError) as exc:
        raise DeviceError(f"{path}: malformed device file: {exc}") from None


def _device_from_doc(doc, path: str | Path) -> DeviceModel:
    if not isinstance(doc, dict):
        raise DeviceError(f"{path}: device file must be a mapping")

    for key in ("id", "technology", "num_qubits", "coupling", "native_gates"):
        if key not in doc:
            raise DeviceError(f"{path}: missing field {key!r}")
    dev_id = str(doc["id"])
    technology = str(doc["technology"])
    if technology not in (SUPERCONDUCTING, ION_TRAP):
        raise DeviceError(f"{path}: unknown technology {technology!r}")
    n = _integer(doc["num_qubits"], path, "num_qubits")
    if n < 1:
        raise DeviceError(f"{path}: num_qubits must be positive")

    coupling = set()
    for pair in doc["coupling"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise DeviceError(f"{path}: coupling entries must be pairs, got {pair!r}")
        a, b = (_integer(q, path, "a coupling qubit") for q in pair)
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise DeviceError(f"{path}: coupling pair ({a}, {b}) out of range")
        coupling.add((a, b))
    coupling = frozenset(coupling)
    if technology == ION_TRAP and len(coupling) != n * (n - 1):  # distinct ordered pairs off the diagonal
        raise DeviceError(f"{path}: ion-trap devices must declare complete coupling")
    # a routing swap lowers to cx in both directions across its pair
    one_way = min(((a, b) for a, b in coupling if (b, a) not in coupling), default=None)
    if one_way:
        a, b = one_way
        raise DeviceError(f"{path}: coupling pair ({a}, {b}) is one-way: routing needs ({b}, {a}) listed too")
    if not _reaches_every_qubit(n, coupling):
        raise DeviceError(f"{path}: coupling map is not connected")

    native = frozenset(str(g) for g in doc["native_gates"])
    if "measure" not in native:
        raise DeviceError(f"{path}: native_gates must include measure")
    two_qubit_kinds = [g for g in native if g in GATE_SIGNATURES and GATE_SIGNATURES[g][0] == 2]
    if not two_qubit_kinds:
        raise DeviceError(f"{path}: native_gates must include a two-qubit gate")
    for g in native:
        if g == "measure":
            continue
        if g not in GATE_SIGNATURES:
            raise DeviceError(f"{path}: unknown native gate {g!r}")
        if GATE_SIGNATURES[g][0] > 2:
            raise DeviceError(f"{path}: native gates above two qubits are not supported ({g!r})")

    defaults = doc.get("defaults") or {}
    gate_fidelity: dict[tuple[str, tuple[int, ...]], float] = {}
    for entry in doc.get("gate_fidelities") or []:
        kind = str(entry["gate"])
        qubits = tuple(_integer(q, path, "a gate_fidelities qubit") for q in entry["qubits"])
        if kind == MEASURE:
            raise DeviceError(
                f"{path}: gate_fidelities entry for measure{qubits}; "
                "measurements are scored from readout_fidelities"
            )
        if kind not in native:
            raise DeviceError(f"{path}: fidelity entry for non-native gate {kind!r}")
        if len(qubits) != GATE_SIGNATURES[kind][0]:
            raise DeviceError(
                f"{path}: fidelity entry {kind}{qubits} names {len(qubits)} qubits, "
                f"{kind} acts on {GATE_SIGNATURES[kind][0]}"
            )
        if not all(0 <= q < n for q in qubits):
            raise DeviceError(f"{path}: fidelity entry {kind}{qubits} has a qubit out of range")
        if len(qubits) == 2 and qubits not in coupling:
            raise DeviceError(f"{path}: fidelity entry {kind}{qubits} is not a coupling pair")
        gate_fidelity[(kind, qubits)] = _check_fidelity(entry["fidelity"], f"gate {kind}{qubits}")
    readout: dict[int, float] = {}
    for entry in doc.get("readout_fidelities") or []:
        q = _integer(entry["qubit"], path, "a readout_fidelities qubit")
        if not 0 <= q < n:
            raise DeviceError(f"{path}: readout fidelity for qubit {q} out of range")
        readout[q] = _check_fidelity(entry["fidelity"], f"readout {q}")

    # every native gate needs an entry on every legal qubit tuple
    for kind in sorted(native):
        if kind == "measure":
            continue
        arity = GATE_SIGNATURES[kind][0]
        tuples = [(q,) for q in range(n)] if arity == 1 else sorted(coupling)
        default_key = "single_qubit" if arity == 1 else "two_qubit"
        for qs in tuples:
            if (kind, tuple(qs)) not in gate_fidelity:
                if default_key not in defaults:
                    raise DeviceError(f"{path}: no fidelity for {kind}{tuple(qs)} and no {default_key} default")
                gate_fidelity[(kind, tuple(qs))] = _check_fidelity(defaults[default_key], default_key)
    for q in range(n):
        if q not in readout:
            if "readout" not in defaults:
                raise DeviceError(f"{path}: no readout fidelity for qubit {q} and no default")
            readout[q] = _check_fidelity(defaults["readout"], "readout")

    device = DeviceModel(dev_id, technology, n, coupling, native, Calibration(gate_fidelity, readout))
    from .compiler import lowering_fault  # compiler imports this module

    fault = lowering_fault(device)
    if fault:
        raise DeviceError(f"{path}: native_gates cannot compile {fault}")
    return device


def write_device(device: DeviceModel, path: str | Path) -> None:
    """Emit the full explicit calibration so a reload reproduces the model."""
    doc = {
        "id": device.id,
        "technology": device.technology,
        "num_qubits": device.num_qubits,
        "coupling": [list(p) for p in sorted(device.coupling)],
        "native_gates": sorted(device.native_gates),
        "gate_fidelities": [
            {"gate": kind, "qubits": list(qs), "fidelity": fid}
            for (kind, qs), fid in sorted(device.calib.gate_fidelity.items())
        ],
        "readout_fidelities": [
            {"qubit": q, "fidelity": fid} for q, fid in sorted(device.calib.readout_fidelity.items())
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_device_dir(path: str | Path) -> list[DeviceModel]:
    """Load every .yaml device file in a directory, sorted by filename."""
    files = sorted(Path(path).glob("*.yaml"))
    if not files:
        raise DeviceError(f"no .yaml device files in {path}")
    devices = [load_device(f) for f in files]
    ids = [d.id for d in devices]
    if len(set(ids)) != len(ids):
        raise DeviceError(f"duplicate device ids in {path}")
    return devices
