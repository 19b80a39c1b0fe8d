"""Expected-fidelity scoring of compiled circuits and option ranking.

The score of a feasible compilation is the product of gate fidelities on the
exact physical qubit tuples times the product of readout fidelities on the
measured qubits. Infeasible or timed-out options get 0.0, which every feasible
product strictly beats. Long products are summed in log space so they cannot
underflow.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import exp, log
from typing import NamedTuple

from .circuit import BARRIER, MEASURE, Circuit
from .compiler import CompilationOption, CompiledResult, compile_circuit
from .devices import DeviceModel, fleet_by_id


class CalibrationError(KeyError):
    """The device model lacks an entry the circuit needs: a model defect."""


class EvalScore(NamedTuple):
    value: float
    feasible: bool


INFEASIBLE = EvalScore(0.0, False)


def evaluate_score(result: CompiledResult | None, device: DeviceModel) -> EvalScore:
    """Score one compiled result; None marks an infeasible compilation."""
    if result is None:
        return INFEASIBLE
    gate_fidelity = device.calib.gate_fidelity
    readout_fidelity = device.calib.readout_fidelity
    log_total = 0.0
    for op in result.circuit.ops:
        if op.kind == MEASURE:
            q = op.qubits[0]
            if q not in readout_fidelity:
                raise CalibrationError(f"{device.id}: no readout fidelity for qubit {q}")
            log_total += log(readout_fidelity[q])
        elif op.kind != BARRIER:
            key = (op.kind, op.qubits)
            fid = gate_fidelity.get(key)
            if fid is None:
                raise CalibrationError(f"{device.id}: no fidelity for {op.kind} on {op.qubits}")
            log_total += log(fid)
    return EvalScore(exp(log_total), True)


@dataclass(frozen=True)
class OptionRanking:
    """Scores for every option plus the derived total order (rank 1 = best)."""

    options: tuple[CompilationOption, ...]
    scores: dict[CompilationOption, EvalScore]
    order: tuple[CompilationOption, ...]
    rank_of: dict[CompilationOption, int]

    @property
    def best(self) -> CompilationOption:
        return self.order[0]

    def score_values(self) -> tuple[float, ...]:
        return tuple(self.scores[opt].value for opt in self.options)


def ranks_from_values(values: tuple[float, ...] | list[float]) -> tuple[int, ...]:
    """Rank per position (1 = best) for scores listed in option order, with
    the same tie rule as rank_options: equal scores keep list order."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    ranks = [0] * len(values)
    for rank, i in enumerate(order, start=1):
        ranks[i] = rank
    return tuple(ranks)


def rank_options(
    circuit: Circuit,
    options: list[CompilationOption],
    devices: list[DeviceModel] | dict[str, DeviceModel],
    timeout: float | None = None,
) -> OptionRanking:
    """Brute-force sweep: compile and score every option, then sort.

    Options on too-small devices score 0.0 without compiling. ``timeout``
    bounds the per-option compile wall time; an overrun is scored exactly like
    an infeasible option. Ties in score resolve by position in ``options``.
    """
    if not options:
        raise ValueError("no options to rank")
    fleet = fleet_by_id(devices)
    scores: dict[CompilationOption, EvalScore] = {}
    for option in options:
        device = fleet.get(option.device_id)
        if device is None:
            raise ValueError(f"unknown device {option.device_id!r}")
        if circuit.num_qubits > device.num_qubits:
            scores[option] = INFEASIBLE
            continue
        started = time.perf_counter()
        result = compile_circuit(circuit, option, fleet)
        elapsed = time.perf_counter() - started
        if timeout is not None and elapsed > timeout:
            scores[option] = INFEASIBLE
            continue
        scores[option] = evaluate_score(result, device)

    position = {option: i for i, option in enumerate(options)}
    order = tuple(sorted(options, key=lambda o: (-scores[o].value, position[o])))
    rank_of = {option: rank for rank, option in enumerate(order, start=1)}
    return OptionRanking(tuple(options), scores, order, rank_of)


def normalize_scores(ranking: OptionRanking) -> dict[CompilationOption, float]:
    """Divide every score by the best one; all-infeasible rankings stay zero."""
    best = max(s.value for s in ranking.scores.values())
    if best == 0.0:
        return {option: 0.0 for option in ranking.options}
    return {option: ranking.scores[option].value / best for option in ranking.options}
