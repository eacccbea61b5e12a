"""Pluggable charge models behind one interface.

Every model supplies a node-hour weight and may replace the per-node
share of a usage's cells, `cell_share`, an integer (numerator, denominator) pair;
`ChargeModel.total` and `charge` (in `core`, with `EnergyModel`) turn
those into a charge the same way for all of them. `energy` prices a GPU
node by the TDP ratio of its GPUs to its CPUs; `sm` by the
streaming-multiprocessor count; `peak-perf` by the ratio of its GPUs' peak
FLOPs to its own CPUs'; `titan` charges cores plus SMs for whole
nodes (exclusive access); `puhti` bills each resource linearly at
per-hour rates.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .core import (
    ChargeModel, EnergyModel, NodeType, RealLike, Value, _amount, _count, _require, _share, exact, set_field,
)
from .errors import ModelError, ValidationError


def sm_based_weight(node: NodeType) -> Fraction:
    """GPU node-hour weight as the total streaming-multiprocessor count."""
    _require(node, NodeType, "node")
    if node.gpu_count == 0:
        raise ModelError(f"node type {node.name!r} has no GPUs to count SMs on")
    return Fraction(node.total_streaming_multiprocessors)


def peak_perf_weight(node: NodeType, reference_cpu_node: NodeType) -> Fraction:
    """GPU node-hour weight from the peak-FLOPs ratio against a CPU node.

    weight = (GPU peak FLOPs of `node`) / (CPU peak FLOPs of the
    reference node) * reference core count. Exact value retained
    (465.6 stays 465.6); display rounding is the caller's business.
    """
    _require(node, NodeType, "node")
    _require(reference_cpu_node, NodeType, "reference_cpu_node")
    if node.gpu_count == 0:
        raise ModelError(f"node type {node.name!r} has no GPUs")
    return node.gpu_peak_flops / reference_cpu_node.cpu_peak_flops * reference_cpu_node.total_cores


def titan_node_charge(cpu_cores: int, gpu_sms: int) -> int:
    """Whole-node hourly charge: one unit per CPU core plus one per GPU SM, both integer counts."""
    return _count(cpu_cores, "cpu_cores", 0) + _count(gpu_sms, "gpu_sms", 0)


class PuhtiRates(Value):
    """Per-hour billing-unit rates, one per consumable resource."""

    __slots__ = _fields = ("core", "memory_gib", "nvme_gib", "gpu")

    def __init__(
        self,
        core: RealLike = Fraction(1),
        memory_gib: RealLike = Fraction(1, 10),
        nvme_gib: RealLike = Fraction(6, 1000),
        gpu: RealLike = Fraction(60),
    ) -> None:
        for name, value in zip(self._fields, (core, memory_gib, nvme_gib, gpu)):
            set_field(self, name, _amount(value, f"rate {name!r}"))


DEFAULT_PUHTI_RATES = PuhtiRates()


def puhti_bu(
    cores: RealLike,
    mem_gib: RealLike,
    nvme_gib: RealLike,
    gpus: RealLike,
    walltime_hours: RealLike,
    rates: PuhtiRates = DEFAULT_PUHTI_RATES,
) -> Fraction:
    """Billing units for reserved resources, linear in every quantity.

    (core_rate*cores + mem_rate*mem + nvme_rate*nvme + gpu_rate*gpus) * hours,
    with default rates 1 / 0.1 / 0.006 / 60 per hour.
    """
    _require(rates, PuhtiRates, "rates")
    quantities = (cores, mem_gib, nvme_gib, gpus, walltime_hours)
    cores, mem_gib, nvme_gib, gpus, hours = [_amount(q, "billing quantities") for q in quantities]
    return (rates.core * cores + rates.memory_gib * mem_gib + rates.nvme_gib * nvme_gib + rates.gpu * gpus) * hours


def puhti_tdp_equivalence(
    gpu_tdp_watts: RealLike,
    cpu_tdp_watts_per_socket: RealLike,
    sockets: int = 2,
    node_share: RealLike = Fraction(1, 4),
) -> Fraction:
    """Hourly TDP envelope, in Wh, of one GPU plus a share of the host CPUs.

    One V100 plus a quarter of a dual 125 W socket node comes to 362.5 Wh.
    `sockets` is an integer of at least 1 and `node_share` is nonnegative.
    """
    gpu_tdp = _amount(gpu_tdp_watts, "gpu_tdp_watts", positive=True)
    cpu_tdp = _amount(cpu_tdp_watts_per_socket, "cpu_tdp_watts_per_socket", positive=True)
    _count(sockets, "sockets", 1)
    return gpu_tdp + _amount(node_share, "node_share") * (sockets * cpu_tdp)


def puhti_tdp_core_ratio(
    gpu_tdp_watts: RealLike,
    cpu_tdp_watts_per_socket: RealLike,
    cores_per_socket: int,
    sockets: int = 2,
    node_share: RealLike = Fraction(1, 4),
) -> Fraction:
    """How many single-core TDP envelopes the GPU-hour envelope is worth; `cores_per_socket` is an integer."""
    per_core = exact(cpu_tdp_watts_per_socket) / _count(cores_per_socket, "cores_per_socket", 1)
    return puhti_tdp_equivalence(gpu_tdp_watts, cpu_tdp_watts_per_socket, sockets, node_share) / per_core


class SmModel(ChargeModel):
    """Streaming-multiprocessor GPU weighting; CPU nodes weigh their core count."""

    __slots__ = ()
    id = "sm"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return sm_based_weight(node)


class PeakPerfModel(ChargeModel):
    """Peak-FLOPs-ratio GPU weighting against the node's own CPUs.

    A GPU node weighs its GPU peak FLOPs over its own CPU peak FLOPs, times
    its core count: `peak_perf_weight(node, node)`. That matches systems
    whose CPU and GPU nodes share a CPU layout, as the reference system's do.
    """

    __slots__ = ()
    id = "peak-perf"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return peak_perf_weight(node, node)


class TitanModel(ChargeModel):
    """Cores-plus-SMs weighting with exclusive-node semantics.

    Jobs are charged for whole nodes regardless of the fraction used, GPU
    or not; a classic 16-core, 14-SM node costs 30 per hour. A CPU-only
    node has no SMs and weighs its core count.
    """

    __slots__ = ()
    id = "titan"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return Fraction(titan_node_charge(node.total_cores, node.total_streaming_multiprocessors))

    def cell_share(self, cells: tuple, node: NodeType) -> tuple[int, int]:
        _share(cells, node)  # the max rule's fit check; the share itself is the whole node
        return 1, 1


class PuhtiModel(ChargeModel):
    """Linear billing units per reserved core, GiB, NVMe GiB and GPU.

    NVMe usage and capacity are read from the extra resource named by
    `nvme_resource`. The node-hour weight is the hourly bill of a whole
    node, and per-node shares are each node's hourly bill over that, so
    reports keep the total = weight * hours * sum(fractions) identity. Both
    bills are summed in integers: the constructor writes the four rates as
    integers over one denominator.
    """

    _fields = ("rates", "nvme_resource")
    __slots__ = (*_fields, "_integer_rates")
    id = "puhti"

    def __init__(self, rates: PuhtiRates = DEFAULT_PUHTI_RATES, nvme_resource: str = "nvme_gib") -> None:
        _require(rates, PuhtiRates, "rates")
        _require(nvme_resource, str, "nvme_resource")  # a resource name is a string, as in `extra_resources`
        if not nvme_resource:
            raise ValidationError("nvme_resource must be non-empty")
        super().__init__(rates, nvme_resource)
        ordered = (rates.core, rates.gpu, rates.memory_gib, rates.nvme_gib)
        common = math.lcm(*[rate.denominator for rate in ordered])
        integers = [rate.numerator * (common // rate.denominator) for rate in ordered]
        # the core, GPU, memory and NVMe rates times their common denominator, then that denominator
        set_field(self, "_integer_rates", (*integers, common))

    def _hourly_bill(self, cores: int, gpus: int, memory_num: int, memory_den: int, extras) -> tuple[int, int]:
        """`puhti_bu` of one hour's use as (numerator, denominator), memory_num / memory_den GiB
        of memory; NVMe is read from the (resource, amount) pairs `extras`."""
        core_rate, gpu_rate, memory_rate, nvme_rate, common = self._integer_rates
        nvme_num, nvme_den = 0, 1
        for resource, amount in extras:
            if resource == self.nvme_resource:
                nvme_num, nvme_den = amount.as_integer_ratio()
        hourly = (core_rate * cores + gpu_rate * gpus) * memory_den * nvme_den
        hourly += memory_rate * memory_num * nvme_den + nvme_rate * nvme_num * memory_den
        return hourly, common * memory_den * nvme_den

    def node_weight(self, node: NodeType) -> Fraction:
        return Fraction(*self._hourly_bill(*node._share_integers, node.extra_resources))

    def cell_share(self, cells: tuple, node: NodeType) -> tuple[int, int]:
        """The usage's hourly bill over the whole node's."""
        _share(cells, node)  # the max rule's fit check, before the zero-rate refusal; the bill is the share
        full_num, full_den = self._hourly_bill(*node._share_integers, node.extra_resources)
        if full_num <= 0:
            raise ModelError("the configured rates price a whole node at zero")
        used_num, used_den = self._hourly_bill(*cells)
        return used_num * full_den, used_den * full_num


_MODEL_CLASSES = {
    EnergyModel.id: EnergyModel,
    SmModel.id: SmModel,
    PeakPerfModel.id: PeakPerfModel,
    TitanModel.id: TitanModel,
    PuhtiModel.id: PuhtiModel,
}

MODEL_IDS = tuple(_MODEL_CLASSES)


def get_model(model_id: str) -> ChargeModel:
    """A charge model with its default parameters, by its id string."""
    try:
        model_class = _MODEL_CLASSES[model_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id
        known = ", ".join(sorted(_MODEL_CLASSES))
        raise ValidationError(f"unknown charge model {model_id!r} (known: {known})") from None
    return model_class()
