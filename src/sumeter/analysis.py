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

from .core import NodeType, RealLike, Value, _amount, _count, _require, _sequence, exact
from .display import exact_text
from .errors import ModelError, ValidationError
from .models import ChargeModel

# A sweep holds every point of every model in memory before it is written.
MAX_SWEEP_STEPS = 10_000


class ApplicationBenchmark(Value):
    """An application and how many CPU nodes match one GPU node for it."""

    __slots__ = _fields = ("name", "perf_ratio")

    def __init__(self, name: str, perf_ratio: int) -> None:
        _require(name, str, "benchmark name")
        _count(perf_ratio, f"benchmark {name!r}: perf_ratio", 1)
        super().__init__(name, perf_ratio)


class NodeChoice(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


class DecisionPoint(Value):
    """Outcome at one speedup: both prices, the pick, and its energy in Wh."""

    __slots__ = _fields = ("speedup", "su_cpu", "su_gpu", "chosen", "ec_total_wh")


def speedup_from_time(gpu_hours: RealLike) -> Fraction:
    """Speedup of the GPU run against a one-hour CPU baseline: 1 / t."""
    return 1 / _amount(gpu_hours, "GPU runtime", positive=True)


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
    _require_pricing(model, cpu_node, gpu_node)
    s = _amount(speedup, "speedup", positive=True)
    hours = _amount(baseline_hours, "baseline_hours", positive=True)
    return _decision(s, hours, model.node_weight(cpu_node), model.node_weight(gpu_node), cpu_node, gpu_node)


def _decision(
    s: Fraction, hours: Fraction, cpu_weight: Fraction, gpu_weight: Fraction, cpu_node: NodeType, gpu_node: NodeType
) -> DecisionPoint:
    """The decision rule at speedup `s`, given both node-hour weights (see `decide_and_energy`)."""
    su_cpu = cpu_weight * hours
    su_gpu = gpu_weight * hours / s
    if su_cpu <= su_gpu:
        return DecisionPoint(s, su_cpu, su_gpu, NodeChoice.CPU, hours * cpu_node.cpu_tdp_watts)
    return DecisionPoint(s, su_cpu, su_gpu, NodeChoice.GPU, hours / s * gpu_node.gpu_tdp_watts)


def _require_pricing(model: ChargeModel, cpu_node: NodeType, gpu_node: NodeType) -> None:
    """Refuse a `model` that is not a ChargeModel or a node that is not a NodeType."""
    _require(model, ChargeModel, "model")
    _require(cpu_node, NodeType, "cpu_node")
    _require(gpu_node, NodeType, "gpu_node")


def decision_threshold(model: ChargeModel, cpu_node: NodeType, gpu_node: NodeType) -> Fraction:
    """Speedup above which the model prices the GPU node cheaper: w_gpu / w_cpu."""
    _require_pricing(model, cpu_node, gpu_node)
    cpu_weight = model.node_weight(cpu_node)
    if cpu_weight == 0:
        raise ModelError(f"model {model.id!r} prices CPU node type {cpu_node.name!r} at zero; no decision threshold")
    return model.node_weight(gpu_node) / cpu_weight


def energy_threshold(cpu_node: NodeType, gpu_node: NodeType) -> Fraction:
    """Speedup above which the GPU run takes less energy than the CPU run, as `decide_and_energy`
    counts it: T_G / T_C, the GPU node's GPU TDP over the CPU node's CPU TDP.

    It equals the energy model's `decision_threshold` exactly when both nodes draw the same CPU
    TDP per core; otherwise the energy model picks the higher-energy node between the two.
    """
    _require(cpu_node, NodeType, "cpu_node")
    _require(gpu_node, NodeType, "gpu_node")
    return gpu_node.gpu_tdp_watts / cpu_node.cpu_tdp_watts


def sweep_bounds(s_min: RealLike, s_max: RealLike, steps: int) -> tuple[Fraction, Fraction]:
    """The sweep's end points, exact, once 0 < s_min < s_max and `steps` is an int from 2 to MAX_SWEEP_STEPS."""
    low, high = exact(s_min), exact(s_max)
    if not 0 < low < high:
        raise ValidationError("need 0 < s_min < s_max")
    if _count(steps, "sweep steps") < 2:
        raise ValidationError("need at least 2 sweep steps")
    if steps > MAX_SWEEP_STEPS:
        raise ValidationError(f"at most {MAX_SWEEP_STEPS} sweep steps, got {steps}")
    return low, high


def crossover_sweep(
    model: ChargeModel,
    cpu_node: NodeType,
    gpu_node: NodeType,
    s_min: RealLike = 1,
    s_max: RealLike = 20,
    steps: int = 96,
) -> list[DecisionPoint]:
    """Decision points at `steps` evenly spaced speedups over [s_min, s_max].

    Points are independent of each other and returned ordered by speedup;
    each is `decide_and_energy` over a one-hour baseline, with the model's
    two node weights worked out once for the sweep.
    """
    _require_pricing(model, cpu_node, gpu_node)
    low, high = sweep_bounds(s_min, s_max, steps)
    span, hours = high - low, Fraction(1)
    cpu_weight, gpu_weight = model.node_weight(cpu_node), model.node_weight(gpu_node)
    return [
        _decision(low + span * i / (steps - 1), hours, cpu_weight, gpu_weight, cpu_node, gpu_node)
        for i in range(steps)
    ]


def efficiency_band(
    models: Sequence[ChargeModel], cpu_node: NodeType, gpu_node: NodeType
) -> tuple[Fraction, Fraction]:
    """Speedup interval where TDP-ratio pricing beats a rival on energy.

    Above the energy model's own threshold and up to the largest rival
    threshold, the energy model sends the job to the GPU node while at
    least one rival still prices the CPU node cheaper. The GPU node is the
    lower-energy choice only above `energy_threshold`, so the band starts
    at the larger of the two thresholds. The band is empty when the upper
    end does not exceed the lower.
    """
    models = _sequence(models, ChargeModel, "models")
    energy_model = next((m for m in models if m.id == "energy"), None)
    if energy_model is None:
        raise ModelError("the band is defined against the energy model; include it")
    rivals = [m for m in models if m is not energy_model]
    if not rivals:
        raise ModelError("need at least one rival model")
    low = max(decision_threshold(energy_model, cpu_node, gpu_node), energy_threshold(cpu_node, gpu_node))
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
    models = _sequence(models, ChargeModel, "models")
    if not models:
        raise ValidationError("the sweep needs at least one model")
    if not callable(getattr(out, "write", None)):
        raise ValidationError(f"out must be a text stream with a write method, got {type(out).__name__}")
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
