"""Node-choice and energy analysis for a CPU-vs-GPU decision.

Models a user who runs a job either on one CPU node for a baseline hour
or on one GPU node `s` times faster, picks whichever the charge model
prices cheaper, and estimates the worst-case energy of that choice from
TDP. Sweeping the speedup locates each model's crossover point and the
band in which only the TDP-ratio pricing steers users to the node that
actually consumes less energy.
"""

from __future__ import annotations

import csv
import enum
from fractions import Fraction
from typing import Sequence, TextIO

from .core import NodeType, RealLike, Value, exact
from .display import exact_text
from .errors import ModelError, ValidationError
from .models import ChargeModel

# A sweep holds every point of every model in memory before it is written.
MAX_SWEEP_STEPS = 10_000


class ApplicationBenchmark(Value):
    """An application and how many CPU nodes match one GPU node for it."""

    __slots__ = _fields = ("name", "perf_ratio")

    def __init__(self, name: str, perf_ratio: int) -> None:
        if type(perf_ratio) is not int:  # a bool is not a count
            raise ValidationError(f"benchmark {name!r}: perf_ratio must be an integer")
        if perf_ratio < 1:
            raise ValidationError(f"benchmark {name!r}: perf_ratio must be at least 1")
        super().__init__(name, perf_ratio)


class NodeChoice(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


class DecisionPoint(Value):
    """Outcome at one speedup: both prices, the pick, and its energy in Wh."""

    __slots__ = _fields = ("speedup", "su_cpu", "su_gpu", "chosen", "ec_total_wh")


def speedup_from_time(gpu_hours: RealLike) -> Fraction:
    """Speedup of the GPU run against a one-hour CPU baseline: 1 / t."""
    hours = exact(gpu_hours)
    if hours <= 0:
        raise ValidationError("GPU runtime must be positive")
    return 1 / hours


def decide_and_energy(
    speedup: RealLike,
    model: ChargeModel,
    cpu_node: NodeType,
    gpu_node: NodeType,
    baseline_hours: RealLike = 1,
) -> DecisionPoint:
    """Price both nodes under the model and estimate the chosen node's energy.

    The CPU run takes `baseline_hours`, the GPU run baseline/speedup.
    Ties go to the CPU node. Energy is the TDP envelope of the chosen
    node's relevant processors times its runtime: CPU TDP for the CPU
    choice, GPU TDP over the speedup for the GPU choice.
    """
    s = exact(speedup)
    if s <= 0:
        raise ValidationError("speedup must be positive")
    hours = exact(baseline_hours)
    if hours <= 0:
        raise ValidationError("baseline_hours must be positive")
    su_cpu = model.node_weight(cpu_node) * hours
    su_gpu = model.node_weight(gpu_node) * hours / s
    if su_cpu <= su_gpu:
        chosen = NodeChoice.CPU
        energy = hours * cpu_node.cpu_tdp_watts
    else:
        chosen = NodeChoice.GPU
        energy = hours / s * gpu_node.gpu_tdp_watts
    return DecisionPoint(s, su_cpu, su_gpu, chosen, energy)


def decision_threshold(model: ChargeModel, cpu_node: NodeType, gpu_node: NodeType) -> Fraction:
    """Speedup above which the model prices the GPU node cheaper: w_gpu / w_cpu."""
    cpu_weight = model.node_weight(cpu_node)
    if cpu_weight == 0:
        raise ModelError(f"model {model.id!r} prices CPU node type {cpu_node.name!r} at zero; no decision threshold")
    return model.node_weight(gpu_node) / cpu_weight


def crossover_sweep(
    model: ChargeModel,
    cpu_node: NodeType,
    gpu_node: NodeType,
    s_min: RealLike = 1,
    s_max: RealLike = 20,
    steps: int = 96,
) -> list[DecisionPoint]:
    """Decision points at `steps` evenly spaced speedups over [s_min, s_max].

    Points are independent of each other and returned ordered by speedup.
    """
    low = exact(s_min)
    high = exact(s_max)
    if not 0 < low < high:
        raise ValidationError("need 0 < s_min < s_max")
    if steps < 2:
        raise ValidationError("need at least 2 sweep steps")
    if steps > MAX_SWEEP_STEPS:
        raise ValidationError(f"at most {MAX_SWEEP_STEPS} sweep steps, got {steps}")
    span = high - low
    return [
        decide_and_energy(low + span * i / (steps - 1), model, cpu_node, gpu_node)
        for i in range(steps)
    ]


def efficiency_band(
    models: Sequence[ChargeModel], cpu_node: NodeType, gpu_node: NodeType
) -> tuple[Fraction, Fraction]:
    """Speedup interval where TDP-ratio pricing beats a rival on energy.

    Between the energy model's own threshold and the largest rival
    threshold, the energy model sends the job to the GPU node (the
    lower-energy choice there) while at least one rival still prices the
    CPU node cheaper. The band is empty when the upper end does not
    exceed the lower.
    """
    energy_model = next((m for m in models if m.id == "energy"), None)
    if energy_model is None:
        raise ModelError("the band is defined against the energy model; include it")
    rivals = [m for m in models if m is not energy_model]
    if not rivals:
        raise ModelError("need at least one rival model")
    low = decision_threshold(energy_model, cpu_node, gpu_node)
    high = max(decision_threshold(m, cpu_node, gpu_node) for m in rivals)
    return (low, high)


def write_sweep_csv(
    models: Sequence[ChargeModel],
    cpu_node: NodeType,
    gpu_node: NodeType,
    out: TextIO,
    s_min: RealLike = 1,
    s_max: RealLike = 20,
    steps: int = 96,
) -> None:
    """Emit plot data, one row per speedup and one column group per model."""
    sweeps = [crossover_sweep(m, cpu_node, gpu_node, s_min, s_max, steps) for m in models]
    writer = csv.writer(out, lineterminator="\n")
    header = ["speedup"]
    for model in models:
        header += [f"su_cpu_{model.id}", f"su_gpu_{model.id}", f"chosen_{model.id}", f"ec_wh_{model.id}"]
    writer.writerow(header)
    for i in range(steps):
        row = [exact_text(sweeps[0][i].speedup)]
        for sweep in sweeps:
            point = sweep[i]
            row += [
                exact_text(point.su_cpu),
                exact_text(point.su_gpu),
                point.chosen.value,
                exact_text(point.ec_total_wh),
            ]
        writer.writerow(row)
