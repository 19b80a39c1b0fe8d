"""Expected-fidelity scoring of compiled circuits and option ranking.

The score of a feasible compilation is the product of gate fidelities on the
exact physical qubit tuples times the product of readout fidelities on the
measured qubits. Options whose device is too small get 0.0, which every
feasible product strictly beats. Long products are summed in log space so they
cannot underflow. No wall-clock value enters a score, so a ranking depends only
on the circuit, the options and the fleet.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import NamedTuple

from .circuit import BARRIER, MEASURE, Circuit
from .compiler import CompilationOption, CompiledResult, compile_options
from .devices import DeviceModel, fleet_by_id


class CalibrationError(KeyError):
    """The device model lacks an entry the circuit needs: a model defect."""


class EvalScore(NamedTuple):
    value: float
    feasible: bool


INFEASIBLE = EvalScore(0.0, False)


def evaluate_score(result: CompiledResult, device: DeviceModel) -> EvalScore:
    """Score one compiled result on the device it was compiled for."""
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

    @property
    def best(self) -> CompilationOption:
        return self.order[0]

    def score_values(self) -> tuple[float, ...]:
        return tuple(self.scores[opt].value for opt in self.options)


def _best_first(values: list[float]) -> list[int]:
    """Positions sorted best score first; equal scores keep list order."""
    return sorted(range(len(values)), key=lambda i: (-values[i], i))


def ranks_from_values(values: tuple[float, ...] | list[float]) -> tuple[int, ...]:
    """Rank per position (1 = best) for scores listed in option order, with
    the same tie rule as rank_options."""
    ranks = [0] * len(values)
    for rank, i in enumerate(_best_first(values), start=1):
        ranks[i] = rank
    return tuple(ranks)


def rank_options(
    circuit: Circuit,
    options: list[CompilationOption],
    devices: list[DeviceModel] | dict[str, DeviceModel],
) -> OptionRanking:
    """Brute-force sweep: compile and score every option, then sort.

    The options are compiled by ``compile_options``, which shares placement,
    routing, lowering and the optimizer ladder between options that have
    them in common; each result equals that option's ``compile_circuit``.
    An option whose device is too small scores 0.0. Ties in score resolve by
    position in ``options``.
    """
    if not options:
        raise ValueError("no options to rank")
    fleet = fleet_by_id(devices)
    scores = dict.fromkeys(options, INFEASIBLE)
    for option, result in compile_options(circuit, options, fleet):
        scores[option] = evaluate_score(result, fleet[option.device_id])
    values = [scores[option].value for option in options]
    order = tuple(options[i] for i in _best_first(values))
    return OptionRanking(tuple(options), scores, order)


def normalize_scores(ranking: OptionRanking) -> dict[CompilationOption, float]:
    """Divide every score by the best one; all-infeasible rankings stay zero."""
    best = max(s.value for s in ranking.scores.values())
    if best == 0.0:
        return {option: 0.0 for option in ranking.options}
    return {option: ranking.scores[option].value / best for option in ranking.options}
