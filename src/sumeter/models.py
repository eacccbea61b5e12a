"""Pluggable charge models behind one interface.

Every model supplies a node-hour weight and may replace the per-node
fraction; `ChargeModel.charge` (in `core`, with `EnergyModel`) turns
those into a charge the same way for all of them. `energy` prices a GPU
node by the TDP ratio of its GPUs to its CPUs; `sm` by the
streaming-multiprocessor count; `peak-perf` by the ratio of its GPUs' peak
FLOPs to its own CPUs'; `titan` charges cores plus SMs for whole
nodes (exclusive access); `puhti` bills each resource linearly at
per-hour rates.
"""

from __future__ import annotations

from fractions import Fraction

from .core import ChargeModel, EnergyModel, NodeType, NodeUsage, RealLike, Value, exact, node_fraction, set_field
from .errors import ModelError, ValidationError


def sm_based_weight(node: NodeType) -> Fraction:
    """GPU node-hour weight as the total streaming-multiprocessor count."""
    if node.gpu_count == 0:
        raise ModelError(f"node type {node.name!r} has no GPUs to count SMs on")
    return Fraction(node.total_streaming_multiprocessors)


def peak_perf_weight(node: NodeType, reference_cpu_node: NodeType) -> Fraction:
    """GPU node-hour weight from the peak-FLOPs ratio against a CPU node.

    weight = (GPU peak FLOPs of `node`) / (CPU peak FLOPs of the
    reference node) * reference core count. Exact value retained
    (465.6 stays 465.6); display rounding is the caller's business.
    """
    if node.gpu_count == 0:
        raise ModelError(f"node type {node.name!r} has no GPUs")
    reference_flops = reference_cpu_node.cpu_peak_flops
    if reference_flops <= 0:
        raise ValidationError("reference node has no CPU peak performance")
    return node.gpu_peak_flops / reference_flops * reference_cpu_node.total_cores


def titan_node_charge(cpu_cores: int, gpu_sms: int) -> int:
    """Whole-node hourly charge: one unit per CPU core plus one per GPU SM."""
    if cpu_cores < 0 or gpu_sms < 0:
        raise ValidationError("counts must be nonnegative")
    return cpu_cores + gpu_sms


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
            value = exact(value)
            if value < 0:
                raise ValidationError(f"rate {name!r} must be nonnegative")
            set_field(self, name, value)


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
    return Fraction(*_puhti_bill(rates, cores, mem_gib, nvme_gib, gpus, walltime_hours))


def _puhti_bill(rates: PuhtiRates, *quantities: RealLike) -> tuple[int, int]:
    """The `puhti_bu` rule as an integer numerator over one denominator."""
    quantities = [q if isinstance(q, (int, Fraction)) else exact(q) for q in quantities]
    if any(q.numerator < 0 for q in quantities):
        raise ValidationError("billing quantities must be nonnegative")
    *amounts, hours = quantities
    numerator, denominator = 0, 1
    for rate, amount in zip((rates.core, rates.memory_gib, rates.nvme_gib, rates.gpu), amounts):
        term_denominator = rate.denominator * amount.denominator
        numerator = numerator * term_denominator + rate.numerator * amount.numerator * denominator
        denominator *= term_denominator
    return numerator * hours.numerator, denominator * hours.denominator


def puhti_tdp_equivalence(
    gpu_tdp_watts: RealLike,
    cpu_tdp_watts_per_socket: RealLike,
    sockets: int = 2,
    node_share: RealLike = Fraction(1, 4),
) -> Fraction:
    """Hourly TDP envelope, in Wh, of one GPU plus a share of the host CPUs.

    One V100 plus a quarter of a dual 125 W socket node comes to 362.5 Wh.
    """
    gpu_tdp = exact(gpu_tdp_watts)
    cpu_tdp = exact(cpu_tdp_watts_per_socket)
    if gpu_tdp <= 0 or cpu_tdp <= 0:
        raise ValidationError("TDP values must be positive")
    return gpu_tdp + exact(node_share) * (sockets * cpu_tdp)


def puhti_tdp_core_ratio(
    gpu_tdp_watts: RealLike,
    cpu_tdp_watts_per_socket: RealLike,
    cores_per_socket: int,
    sockets: int = 2,
    node_share: RealLike = Fraction(1, 4),
) -> Fraction:
    """How many single-core TDP envelopes the GPU-hour envelope is worth."""
    if cores_per_socket < 1:
        raise ValidationError("cores_per_socket must be at least 1")
    per_core = exact(cpu_tdp_watts_per_socket) / cores_per_socket
    return puhti_tdp_equivalence(gpu_tdp_watts, cpu_tdp_watts_per_socket, sockets, node_share) / per_core


class SmModel(ChargeModel):
    """Streaming-multiprocessor GPU weighting; CPU nodes weigh their core count."""

    id = "sm"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return sm_based_weight(node)


class PeakPerfModel(ChargeModel):
    """Peak-FLOPs-ratio GPU weighting against the node's own CPUs.

    A GPU node weighs its GPU peak FLOPs over its own CPU peak FLOPs, times
    its core count: `peak_perf_weight(node, node)`. That matches systems
    whose CPU and GPU nodes share a CPU layout, as the reference system's do.
    """

    id = "peak-perf"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return peak_perf_weight(node, node)


class TitanModel(ChargeModel):
    """Cores-plus-SMs weighting with exclusive-node semantics.

    Jobs are charged for whole nodes regardless of the fraction used, GPU
    or not; a classic 16-core, 14-SM node costs 30 per hour. A CPU-only
    node has no SMs and weighs its core count.
    """

    id = "titan"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return Fraction(titan_node_charge(node.total_cores, node.total_streaming_multiprocessors))

    def node_fraction(self, usage: NodeUsage, node: NodeType) -> Fraction:
        node_fraction(usage, node)  # capacity validation only
        return Fraction(1)


class PuhtiModel(ChargeModel):
    """Linear billing units per reserved core, GiB, NVMe GiB and GPU.

    NVMe usage and capacity are read from the extra resource named by
    `nvme_resource`. The node-hour weight is the hourly cost of a whole
    node, and per-node fractions are each node's hourly bill over that,
    so reports keep the total = weight * hours * sum(fractions) identity.
    """

    _fields = ("rates", "nvme_resource")
    id = "puhti"

    def __init__(self, rates: PuhtiRates = DEFAULT_PUHTI_RATES, nvme_resource: str = "nvme_gib") -> None:
        self._init(rates, nvme_resource)

    def node_weight(self, node: NodeType) -> Fraction:
        nvme_capacity = node.extra_capacities.get(self.nvme_resource, Fraction(0))
        return puhti_bu(node.total_cores, node.memory_total_gib, nvme_capacity, node.gpu_count, 1, self.rates)

    def _full_node_bill(self, node: NodeType) -> Fraction:
        """`node_weight(node)`, kept for the last node priced: a partition has one node type."""
        last = self.__dict__.get("_last_full_node")
        if last is None or last[0] is not node:
            last = (node, self.node_weight(node))
            set_field(self, "_last_full_node", last)
        return last[1]

    def node_fraction(self, usage: NodeUsage, node: NodeType) -> Fraction:
        node_fraction(usage, node)  # capacity validation
        full_node = self._full_node_bill(node)
        if full_node.numerator <= 0:
            raise ModelError("the configured rates price a whole node at zero")
        nvme_used = dict(usage.extra_used).get(self.nvme_resource, 0)
        hourly, denominator = _puhti_bill(
            self.rates, usage.cores_used, usage.memory_used_gib, nvme_used, usage.gpus_used, 1
        )
        return Fraction(hourly * full_node.denominator, denominator * full_node.numerator)


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
    except KeyError:
        known = ", ".join(sorted(_MODEL_CLASSES))
        raise ValidationError(f"unknown charge model {model_id!r} (known: {known})") from None
    return model_class()
