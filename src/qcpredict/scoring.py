"""Expected-fidelity scoring of compiled circuits and option ranking.

The score of a feasible compilation is the product of gate fidelities on the
exact physical qubit tuples times the product of readout fidelities on the
measured qubits. Options whose device is too small get 0.0. The product is
summed in log space, one term per op in op order from the device's
``log_fidelity`` table, but its exp() still underflows: below
``sys.float_info.min`` (about 2.2e-308) a score is subnormal and loses
precision, and below about 5e-324 it is exactly 0.0, like a device that is too
small. Labeling excludes a circuit whose best score is below that limit.

A circuit's ranking is its score vector in option order; every rank comes from
it through ``ranks_from_values``. The sweep scores each distinct compiled
circuit once: options that share a rung reuse its score. No wall-clock value
enters a score, so a ranking depends only on the circuit, the options and the
fleet.
"""
from __future__ import annotations

from math import exp
from typing import NamedTuple

from .circuit import BARRIER, MEASURE, Circuit
from .compiler import CompilationOption, CompiledResult, compile_options
from .devices import DeviceModel


class CalibrationError(KeyError):
    """The device model lacks an entry the circuit needs: a model defect.
    Printed as written, without the quotes ``KeyError`` adds."""

    __str__ = Exception.__str__


class EvalScore(NamedTuple):
    value: float


def evaluate_score(result: CompiledResult, device: DeviceModel) -> EvalScore:
    """Score one compiled result on the device it was compiled for."""
    table = device.log_fidelity
    log_total = 0.0
    # a plain loop in op order: sum() compensates float sums from Python 3.12
    for op in result.circuit.ops:
        if op.kind == BARRIER:
            continue
        term = table.get((op.kind, op.qubits))
        if term is None:
            if op.kind == MEASURE:
                raise CalibrationError(f"{device.id}: no readout fidelity for qubit {op.qubits[0]}")
            raise CalibrationError(f"{device.id}: no fidelity for {op.kind} on {op.qubits}")
        log_total += term
    return EvalScore(exp(log_total))


def ranks_from_values(values: tuple[float, ...] | list[float]) -> tuple[int, ...]:
    """Rank per position (1 = best) for scores listed in option order: higher
    scores first, equal scores in position order."""
    ranks = [0] * len(values)
    for rank, i in enumerate(sorted(range(len(values)), key=lambda i: (-values[i], i)), start=1):
        ranks[i] = rank
    return tuple(ranks)


def rank_options(
    circuit: Circuit,
    options: list[CompilationOption],
    fleet: dict[str, DeviceModel],
) -> tuple[float, ...]:
    """Brute-force sweep: the score of every option, in option order.

    The options are compiled by ``compile_options``, which shares placement,
    routing, lowering and the optimizer ladder between options that have
    them in common; each result equals that option's ``compile_circuit``.
    Options that share a rung get the same ``Circuit`` object, yielded one
    after another, so a result whose circuit is the previous one's reuses
    its score. An option whose device is too small scores 0.0.
    ``ranks_from_values`` turns the scores into ranks.
    """
    if not options:
        raise ValueError("no options to rank")
    scores = dict.fromkeys(options, 0.0)
    scored: Circuit | None = None
    scored_on = ""
    value = 0.0
    for option, result in compile_options(circuit, options, fleet):
        if result.circuit is not scored or option.device_id != scored_on:
            scored, scored_on = result.circuit, option.device_id
            value = evaluate_score(result, fleet[scored_on]).value
        scores[option] = value
    return tuple(scores[option] for option in options)
