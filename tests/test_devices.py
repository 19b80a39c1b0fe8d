import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import qcpredict
from qcpredict.devices import (
    ION_TRAP,
    SUPERCONDUCTING,
    DeviceError,
    builtin_devices,
    load_device,
    load_device_dir,
    write_device,
)


def test_fleet_composition(devices):
    assert [d.id for d in devices] == ["dev8", "dev11", "dev27", "dev80", "dev127"]
    assert [d.num_qubits for d in devices] == [8, 11, 27, 80, 127]
    by_id = {d.id: d for d in devices}
    assert by_id["dev11"].technology == ION_TRAP
    for other in ("dev8", "dev27", "dev80", "dev127"):
        assert by_id[other].technology == SUPERCONDUCTING


def test_ion_trap_coupling_is_complete(devices):
    ion = next(d for d in devices if d.technology == ION_TRAP)
    assert len(ion.coupling) == 11 * 10  # all ordered pairs
    assert ion.coupled(0, 10) and ion.coupled(10, 0)
    assert not ion.coupled(3, 3)


def test_superconducting_coupling_is_sparse_and_connected(devices):
    for d in devices:
        if d.technology != SUPERCONDUCTING:
            continue
        assert all(hops <= d.num_qubits for hops in d.distances[0]), d.id  # every qubit reached from 0
        degree = {q: len(d.neighbors[q]) for q in range(d.num_qubits)}
        assert max(degree.values()) <= 3, d.id
        # symmetric
        for a, b in d.coupling:
            assert (b, a) in d.coupling


def test_distances_are_bfs_hops(devices):
    dev8 = devices[0]
    # 2x4 grid, row paths 0-1-2-3 and 4-5-6-7 plus the rung 0-4
    assert dev8.distances[0][3] == 3
    assert dev8.distances[3][7] == dev8.distances[3][0] + 1 + dev8.distances[4][7]


def _scanned_hop(device, a, b):
    # route's rule: the first neighbor, in id order, one hop closer to b
    dist = device.distances
    return next((nb for nb in device.neighbors[a] if dist[nb][b] == dist[a][b] - 1), None)


def test_next_hop_table_equals_the_neighbor_scan(tmp_path, devices):
    # a 3x3 grid with one diagonal: many pairs have several shortest paths,
    # and the table must keep the lowest-id first hop of each
    grid = [(r * 3 + c, r * 3 + c + 1) for r in range(3) for c in range(2)]
    grid += [(r * 3 + c, (r + 1) * 3 + c) for r in range(2) for c in range(3)] + [(4, 8)]
    path = tmp_path / "grid.yaml"
    _write_yaml(path, _minimal_yaml(num_qubits=9, coupling=[list(e) for e in grid] + [[b, a] for a, b in grid]))
    for device in [*devices, load_device(path)]:
        n = device.num_qubits
        assert device.next_hops == [[_scanned_hop(device, a, b) for b in range(n)] for a in range(n)], device.id
        assert all(device.next_hops[q][q] is None for q in range(n)), device.id


def test_native_gate_sets(devices):
    by_id = {d.id: d for d in devices}
    assert by_id["dev8"].native_gates == frozenset({"rz", "sx", "x", "cx", "measure"})
    assert by_id["dev11"].native_gates == frozenset({"rx", "ry", "rz", "rxx", "measure"})


def test_calibration_covers_every_native_gate_and_qubit(devices):
    for d in devices:
        for q in range(d.num_qubits):
            assert q in d.calib.readout_fidelity
        for kind in d.native_gates - {"measure"}:
            arity = 2 if kind in ("cx", "rxx") else 1
            if arity == 1:
                for q in range(d.num_qubits):
                    assert (kind, (q,)) in d.calib.gate_fidelity
            else:
                for pair in d.coupling:
                    assert (kind, pair) in d.calib.gate_fidelity
        for fid in d.calib.gate_fidelity.values():
            assert 0.0 < fid <= 1.0
        for fid in d.calib.readout_fidelity.values():
            assert 0.0 < fid <= 1.0


def test_two_qubit_jitter_is_symmetric_and_deterministic(devices):
    fresh = builtin_devices()
    for d, e in zip(devices, fresh):
        assert d.calib.gate_fidelity == e.calib.gate_fidelity
    dev8 = devices[0]
    for a, b in dev8.coupling:
        assert dev8.calib.gate_fidelity[("cx", (a, b))] == dev8.calib.gate_fidelity[("cx", (b, a))]
    # jitter actually varies across edges
    values = {dev8.calib.gate_fidelity[("cx", p)] for p in dev8.coupling}
    assert len(values) > 1


def test_yaml_round_trip(tmp_path, devices):
    for d in devices[:2]:
        path = tmp_path / f"{d.id}.yaml"
        write_device(d, path)
        back = load_device(path)
        assert back.id == d.id
        assert back.technology == d.technology
        assert back.num_qubits == d.num_qubits
        assert back.coupling == d.coupling
        assert back.native_gates == d.native_gates
        assert back.calib.gate_fidelity == d.calib.gate_fidelity
        assert back.calib.readout_fidelity == d.calib.readout_fidelity


def test_devices_are_hashable(tmp_path, devices):
    assert len(set(builtin_devices())) == 5
    for d in devices:
        path = tmp_path / f"{d.id}.yaml"
        write_device(d, path)
        back = load_device(path)
        assert back == d
        assert hash(back) == hash(d)


def test_load_device_dir_sorted_and_duplicates(tmp_path, devices):
    write_device(devices[1], tmp_path / "b.yaml")
    write_device(devices[0], tmp_path / "a.yaml")
    loaded = load_device_dir(tmp_path)
    assert [d.id for d in loaded] == ["dev8", "dev11"]  # a.yaml first
    write_device(devices[0], tmp_path / "c.yaml")
    with pytest.raises(DeviceError, match="duplicate"):
        load_device_dir(tmp_path)


def _minimal_yaml(**overrides):
    doc = {
        "id": "toy",
        "technology": "superconducting",
        "num_qubits": 2,
        "coupling": [[0, 1], [1, 0]],
        "native_gates": ["rz", "sx", "x", "cx", "measure"],
        "defaults": {"single_qubit": 0.999, "two_qubit": 0.99, "readout": 0.97},
    }
    doc.update(overrides)
    return doc


def _write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")


def test_load_device_minimal(tmp_path):
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml())
    d = load_device(path)
    assert d.id == "toy"
    assert d.calib.gate_fidelity[("cx", (0, 1))] == 0.99
    assert d.calib.readout_fidelity[1] == 0.97


def test_load_device_explicit_entries_override_defaults(tmp_path):
    doc = _minimal_yaml(
        gate_fidelities=[{"gate": "cx", "qubits": [0, 1], "fidelity": 0.95}],
        readout_fidelities=[{"qubit": 0, "fidelity": 0.9}],
    )
    path = tmp_path / "toy.yaml"
    _write_yaml(path, doc)
    d = load_device(path)
    assert d.calib.gate_fidelity[("cx", (0, 1))] == 0.95
    assert d.calib.gate_fidelity[("cx", (1, 0))] == 0.99  # untouched direction
    assert d.calib.readout_fidelity[0] == 0.9


def test_load_device_rejects_bad_fidelity(tmp_path):
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(defaults={"single_qubit": 1.2, "two_qubit": 0.99, "readout": 0.97}))
    with pytest.raises(DeviceError):
        load_device(path)


def test_load_device_rejects_incomplete_ion_coupling(tmp_path):
    doc = _minimal_yaml(
        technology="ion-trap",
        num_qubits=3,
        coupling=[[0, 1], [1, 0]],
        native_gates=["rx", "ry", "rz", "rxx", "measure"],
    )
    path = tmp_path / "toy.yaml"
    _write_yaml(path, doc)
    with pytest.raises(DeviceError, match="complete"):
        load_device(path)


def test_load_device_requires_measure_and_an_entangler(tmp_path):
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(native_gates=["rz", "sx", "x", "cx"]))
    with pytest.raises(DeviceError, match="measure"):
        load_device(path)
    _write_yaml(path, _minimal_yaml(native_gates=["rz", "sx", "x", "measure"]))
    with pytest.raises(DeviceError):
        load_device(path)


def test_load_device_rejects_missing_required_key(tmp_path):
    doc = _minimal_yaml()
    del doc["coupling"]
    path = tmp_path / "toy.yaml"
    _write_yaml(path, doc)
    with pytest.raises(DeviceError, match="coupling"):
        load_device(path)


_CHAIN3 = {"num_qubits": 3, "coupling": [[0, 1], [1, 0], [1, 2], [2, 1]]}


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"gate_fidelities": [{"gate": "measure", "qubits": [0], "fidelity": 0.5}]}, "readout_fidelities"),
        ({"gate_fidelities": [{"gate": "x", "qubits": [9], "fidelity": 0.5}]}, r"x\(9,\) has a qubit out of range"),
        ({"gate_fidelities": [{"gate": "cx", "qubits": [0], "fidelity": 0.5}]}, r"cx\(0,\) names 1 qubits"),
        ({"gate_fidelities": [{"gate": "x", "qubits": [0, 1], "fidelity": 0.5}]}, r"x\(0, 1\) names 2 qubits"),
        (
            dict(_CHAIN3, gate_fidelities=[{"gate": "cx", "qubits": [0, 2], "fidelity": 0.5}]),
            r"cx\(0, 2\) is not a coupling pair",
        ),
        ({"readout_fidelities": [{"qubit": 7, "fidelity": 0.5}]}, "qubit 7 out of range"),
        # routing could never join a pair across the two halves
        (
            {"num_qubits": 4, "coupling": [[0, 1], [1, 0], [2, 3], [3, 2]]},
            r"toy\.yaml: coupling map is not connected",
        ),
    ],
)
def test_load_device_rejects_calibration_scoring_never_reads(tmp_path, overrides, match):
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(**overrides))
    with pytest.raises(DeviceError, match=match):
        load_device(path)


@pytest.mark.parametrize(
    "coupling, pair",
    [([[0, 1], [1, 2]], (0, 1)), ([[0, 1], [1, 2], [2, 0], [1, 0]], (1, 2))],
    ids=["chain", "ring"],
)
def test_load_device_refuses_a_one_way_coupling(tmp_path, coupling, pair):
    # a routing swap lowers to cx in both directions across its pair, so a
    # one-way pair would stop the sweep, even on a ring where every qubit
    # reaches every other; the refusal names the first such pair
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(num_qubits=3, coupling=coupling))
    a, b = pair
    with pytest.raises(DeviceError) as refused:
        load_device(path)
    assert str(refused.value) == f"{path}: coupling pair ({a}, {b}) is one-way: routing needs ({b}, {a}) listed too"


# the child caps its own address space, so a table of every qubit, or of every
# pair, built before the refusal ends in a MemoryError instead of filling the host
_LOAD_UNDER_1GB = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qcpredict.devices import DeviceError, load_device
try:
    load_device(sys.argv[1])
except DeviceError as exc:
    print(exc)
"""


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({}, "coupling map is not connected"),
        (
            {"technology": "ion-trap", "native_gates": ["rx", "ry", "rz", "rxx", "measure"]},
            "ion-trap devices must declare complete coupling",
        ),
    ],
    ids=["superconducting", "ion-trap"],
)
def test_load_device_refuses_a_huge_device_before_any_per_qubit_table(tmp_path, overrides, message):
    # one coupled pair among 10**9 qubits
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(num_qubits=10**9, **overrides))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(qcpredict.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _LOAD_UNDER_1GB, str(path)], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{path}: {message}\n", "")


@pytest.mark.parametrize(
    "text, match",
    [
        (
            yaml.safe_dump(_minimal_yaml(gate_fidelities=[{"gate": "cx", "fidelity": 0.95}])),
            "an entry has no 'qubits' field",
        ),
        (yaml.safe_dump(_minimal_yaml(coupling=5)), "malformed device file: 'int' object is not iterable"),
        ("id: toy\ncoupling: [[0, 1]\n", r"line 3: expected ',' or '\]', but got '<stream end>'"),
        (yaml.safe_dump(_minimal_yaml(num_qubits="abc")), "malformed device file: invalid literal for int"),
        (
            yaml.safe_dump(_minimal_yaml(gate_fidelities=[{"gate": "cx", "qubits": [0, 1], "fidelity": "abc"}])),
            "malformed device file: could not convert string to float: 'abc'",
        ),
        # the YAML reader refuses it before parsing, with no line mark
        ("a: \x01\n", r"position 3: unacceptable character #x0001: special characters are not allowed$"),
    ],
    ids=[
        "entry-without-qubits",
        "coupling-not-a-list",
        "yaml-syntax",
        "num-qubits-not-a-number",
        "fidelity-not-a-number",
        "control-character",
    ],
)
def test_load_device_names_a_malformed_file(tmp_path, text, match):
    path = tmp_path / "toy.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DeviceError, match=match) as exc:
        load_device(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1
    assert "\n" not in message


def test_load_device_passes_its_own_refusals_through(tmp_path):
    # DeviceError is a ValueError; the malformed-file wrapper must not wrap it again
    path = tmp_path / "toy.yaml"
    _write_yaml(path, _minimal_yaml(num_qubits=0))
    with pytest.raises(DeviceError) as exc:
        load_device(path)
    assert str(exc.value) == f"{path}: num_qubits must be positive"
