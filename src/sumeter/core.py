"""Service-unit accounting for shared heterogeneous compute nodes.

A job is charged, on every node it occupies, for the largest fraction of
any single resource it requested there (CPU cores, GPUs, memory, plus
optional extras such as node-local scratch). Those per-node fractions are
summed, scaled by the partition's node-hour weight and by the hours run:

    cost = weight * hours * sum_i max(cores_i, gpus_i, memory_i, ...)

CPU-only partitions weigh their core count, so one fully-used core-hour
costs exactly one service unit. GPU partitions weigh the ratio of the
node's cumulative GPU TDP to its cumulative CPU TDP, scaled by the core
count: the price of a GPU node-hour tracks its power envelope rather than
its peak throughput, which steers cost-minimising users toward the more
energy-efficient hardware for their job.

That is the default `energy` model. Each partition carries a
`ChargeModel`, which supplies the weight and may replace the per-node
fraction; `sumeter.models` holds the rival models.

All arithmetic is exact. Inputs are converted to `fractions.Fraction` on
entry (floats keep their binary value; strings such as "0.1" are read as
decimals) and values are rounded only for display.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .errors import CapacityError, ModelError, ValidationError

RealLike = Union[int, float, Fraction, str]


# Number text is bounded before it is parsed: Fraction("1e<huge>") builds
# 10**exp in memory. 400 covers the exponent of every float64.
MAX_NUMBER_LENGTH = 100
MAX_DECIMAL_EXPONENT = 400
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def parse_real(text: str) -> Fraction:
    """Read a decimal or p/q string exactly, refusing oversized text first."""
    if len(text) > MAX_NUMBER_LENGTH:
        raise ValidationError(f"number longer than {MAX_NUMBER_LENGTH} characters: {text[:20]!r}...")
    # Plain ASCII digits[.digits], the common cell, is read without the regex.
    # isascii() keeps out digits such as '²' that isdigit() accepts.
    if text.isascii():
        whole, point, decimals = text.partition(".")
        if whole.isdigit():
            if not point:
                return Fraction(int(whole))
            if decimals.isdigit():
                return Fraction(int(whole + decimals), 10 ** len(decimals))
    exponent = _EXPONENT.search(text)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
        raise ValidationError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a number: {text!r}") from None


def exact(value: RealLike) -> Fraction:
    """Convert a quantity to an exact Fraction.

    Accepts anything `fractions.Fraction` accepts: ints, floats (kept at
    their exact binary value), Fractions, Decimals, and decimal strings
    (bounded by `parse_real`).
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_real(value)
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as err:
        raise ValidationError(f"not a number: {value!r}") from err


# Sets a field while a value is built; a built value refuses assignment.
set_field = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass names its fields in `_fields` (also its `__slots__`, unless it
    caches derived values in an instance dict) and sets them in its own
    `__init__`. Values compare and hash by their fields, within one class
    only. Copies and pickles are rebuilt through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class ProcessorKind(enum.Enum):
    CPU = "cpu"
    GPU = "gpu"


class ProcessorSpec(Value):
    """One CPU or GPU model: compute units, TDP and peak 64-bit FMA FLOP/s.

    CPUs carry a core count, GPUs a streaming-multiprocessor count; the
    other field must stay zero. TDP and peak FLOPs must be positive.
    """

    __slots__ = _fields = ("name", "kind", "tdp_watts", "peak_flops", "cores", "streaming_multiprocessors")

    def __init__(
        self,
        name: str,
        kind: ProcessorKind,
        tdp_watts: RealLike,
        peak_flops: RealLike,
        cores: int = 0,
        streaming_multiprocessors: int = 0,
    ) -> None:
        tdp_watts, peak_flops = exact(tdp_watts), exact(peak_flops)
        if tdp_watts <= 0:
            raise ValidationError(f"processor {name!r}: tdp_watts must be positive")
        if peak_flops <= 0:
            raise ValidationError(f"processor {name!r}: peak_flops must be positive")
        if kind is ProcessorKind.CPU:
            if cores < 1:
                raise ValidationError(f"CPU {name!r} needs at least one core")
            if streaming_multiprocessors != 0:
                raise ValidationError(f"CPU {name!r} must not declare streaming multiprocessors")
        else:
            if streaming_multiprocessors < 1:
                raise ValidationError(f"GPU {name!r} needs at least one streaming multiprocessor")
            if cores != 0:
                raise ValidationError(f"GPU {name!r} must not declare CPU cores")
        self._init(name, kind, tdp_watts, peak_flops, cores, streaming_multiprocessors)

    @classmethod
    def cpu(cls, name: str, cores: int, tdp_watts: RealLike, peak_flops: RealLike) -> "ProcessorSpec":
        return cls(name, ProcessorKind.CPU, exact(tdp_watts), exact(peak_flops), cores=cores)

    @classmethod
    def gpu(
        cls, name: str, streaming_multiprocessors: int, tdp_watts: RealLike, peak_flops: RealLike
    ) -> "ProcessorSpec":
        return cls(
            name,
            ProcessorKind.GPU,
            exact(tdp_watts),
            exact(peak_flops),
            streaming_multiprocessors=streaming_multiprocessors,
        )


def _normalize_pairs(pairs, what: str) -> tuple[tuple[str, Fraction], ...]:
    """Normalize a mapping or (name, amount) sequence to sorted unique pairs."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    out = []
    seen = set()
    for name, amount in items:
        if not name:
            raise ValidationError(f"{what}: resource name must be non-empty")
        if name in seen:
            raise ValidationError(f"{what}: duplicate resource {name!r}")
        seen.add(name)
        out.append((str(name), exact(amount)))
    return tuple(sorted(out))


class NodeType(Value):
    """Inventory of one compute-node flavour.

    `extra_resources` lists additional per-node consumables (for example
    node-local scratch in GiB) as (name, capacity) pairs; each one adds an
    argument to the per-node max when a job requests it.
    """

    # No __slots__: derived values are worked out once per node type and
    # cached in the instance __dict__, outside the fields, so equality and
    # hashing still use the fields only, and copies and pickles leave them behind.
    _fields = ("name", "cpus", "memory_total_gib", "gpus", "extra_resources")

    def __init__(
        self,
        name: str,
        cpus: Sequence[ProcessorSpec],
        memory_total_gib: RealLike,
        gpus: Sequence[ProcessorSpec] = (),
        extra_resources: Mapping[str, RealLike] | Sequence[tuple[str, RealLike]] = (),
    ) -> None:
        cpus, gpus, memory_total_gib = tuple(cpus), tuple(gpus), exact(memory_total_gib)
        extra_resources = _normalize_pairs(extra_resources, f"node type {name!r}")
        if not cpus:
            raise ValidationError(f"node type {name!r} needs at least one CPU")
        for spec in cpus:
            if spec.kind is not ProcessorKind.CPU:
                raise ValidationError(f"node type {name!r}: {spec.name!r} listed under cpus is not a CPU")
        for spec in gpus:
            if spec.kind is not ProcessorKind.GPU:
                raise ValidationError(f"node type {name!r}: {spec.name!r} listed under gpus is not a GPU")
        if memory_total_gib <= 0:
            raise ValidationError(f"node type {name!r}: memory_total_gib must be positive")
        for resource, capacity in extra_resources:
            if capacity <= 0:
                raise ValidationError(f"node type {name!r}: capacity of {resource!r} must be positive")
        self._init(name, cpus, memory_total_gib, gpus, extra_resources)

    @cached_property
    def total_cores(self) -> int:
        return sum(spec.cores for spec in self.cpus)

    @cached_property
    def gpu_count(self) -> int:
        return len(self.gpus)

    @cached_property
    def total_streaming_multiprocessors(self) -> int:
        return sum(spec.streaming_multiprocessors for spec in self.gpus)

    @cached_property
    def cpu_tdp_watts(self) -> Fraction:
        """Cumulative TDP over all CPUs."""
        return sum((spec.tdp_watts for spec in self.cpus), start=Fraction(0))

    @cached_property
    def gpu_tdp_watts(self) -> Fraction:
        """Cumulative TDP over all GPUs (zero on CPU-only nodes)."""
        return sum((spec.tdp_watts for spec in self.gpus), start=Fraction(0))

    @cached_property
    def cpu_peak_flops(self) -> Fraction:
        return sum((spec.peak_flops for spec in self.cpus), start=Fraction(0))

    @cached_property
    def gpu_peak_flops(self) -> Fraction:
        return sum((spec.peak_flops for spec in self.gpus), start=Fraction(0))

    @cached_property
    def memory_per_core_gib(self) -> Fraction:
        """The even split of node memory across cores; one charging step."""
        return self.memory_total_gib / self.total_cores

    @cached_property
    def extra_capacities(self) -> Mapping[str, Fraction]:
        """Read-only resource name -> capacity view of `extra_resources`."""
        return MappingProxyType(dict(self.extra_resources))


class NodeUsage(Value):
    """Resources requested on a single node. At least one quantity > 0."""

    __slots__ = _fields = ("cores_used", "gpus_used", "memory_used_gib", "extra_used")

    # Built once per row or node, so each field is set by name, which is faster
    # than `_init`. Validation stays in `__post_init__`, as in `JobRequest`:
    # `bench/spans.py` wraps that method to count and time it.
    def __init__(
        self,
        cores_used: int = 0,
        gpus_used: int = 0,
        memory_used_gib: RealLike = Fraction(0),
        extra_used: Mapping[str, RealLike] | Sequence[tuple[str, RealLike]] = (),
    ) -> None:
        set_field(self, "cores_used", cores_used)
        set_field(self, "gpus_used", gpus_used)
        set_field(self, "memory_used_gib", memory_used_gib)
        set_field(self, "extra_used", extra_used)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Signs are read off numerators (denominators are positive).
        memory = self.memory_used_gib
        if not isinstance(memory, Fraction):
            memory = exact(memory)
            set_field(self, "memory_used_gib", memory)
        extras = self.extra_used
        if extras != ():
            extras = _normalize_pairs(extras, "usage")
            set_field(self, "extra_used", extras)
        if self.cores_used < 0 or self.gpus_used < 0:
            raise ValidationError("core and GPU counts must be nonnegative")
        if memory.numerator < 0:
            raise ValidationError("memory_used_gib must be nonnegative")
        if any(amount.numerator < 0 for _, amount in extras):
            raise ValidationError("extra resource amounts must be nonnegative")
        if not (
            self.cores_used > 0
            or self.gpus_used > 0
            or memory.numerator > 0
            or any(amount.numerator > 0 for _, amount in extras)
        ):
            raise ValidationError("a node usage must request at least one resource")


# The capacity rules. Each returns the usage's step count as a plain int
# over the node's core or GPU count, so the max can be taken without
# building a Fraction per resource.
def _cores_used(usage: NodeUsage, node: NodeType) -> int:
    if usage.cores_used > node.total_cores:
        raise CapacityError(
            f"{usage.cores_used} cores requested but node type {node.name!r} has {node.total_cores}"
        )
    return usage.cores_used


def _gpus_used(usage: NodeUsage, node: NodeType) -> int:
    if usage.gpus_used > node.gpu_count:
        raise CapacityError(
            f"{usage.gpus_used} GPUs requested but node type {node.name!r} has {node.gpu_count}"
        )
    return usage.gpus_used


def _memory_shares(usage: NodeUsage, node: NodeType) -> int:
    """Whole per-core memory shares the request occupies: ceil(used * C / M)."""
    used = usage.memory_used_gib
    used_num, used_den = used.numerator, used.denominator
    total = node.memory_total_gib
    if used_num * total.denominator > total.numerator * used_den:
        raise CapacityError(
            f"{float(used):g} GiB requested but node type {node.name!r} has {float(total):g} GiB"
        )
    share = node.memory_per_core_gib
    return -(-(used_num * share.denominator) // (used_den * share.numerator))


def core_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """Fraction of the node's CPU cores requested."""
    return Fraction(_cores_used(usage, node), node.total_cores)


def gpu_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """Fraction of the node's GPUs requested; zero on GPU-less nodes."""
    gpus = _gpus_used(usage, node)
    return Fraction(gpus, node.gpu_count) if gpus else Fraction(0)


def memory_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """Charged memory fraction, stepped up to whole per-core shares.

    Node memory is split evenly over the cores and the request is rounded
    up to a whole number of those shares, so the result is a step function
    with co-domain {1/C, 2/C, ..., 1}. A request for all the memory on a
    node charges the whole node: it leaves nothing for anyone else even if
    a single core was asked for. Zero requested memory charges zero.
    """
    return Fraction(_memory_shares(usage, node), node.total_cores)


def core_equivalent(usage: NodeUsage, node: NodeType) -> int:
    """Number of cores the memory request is charged as (0 when no memory)."""
    return _memory_shares(usage, node)


def node_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """Largest fraction of any single resource the request occupies.

    Extra resources named in the usage must exist on the node type and add
    amount/capacity terms to the max. Raises CapacityError whenever any
    quantity exceeds what the node provides, checking cores, GPUs, memory
    and then the extras.
    """
    cores = _cores_used(usage, node)
    gpus = _gpus_used(usage, node)
    steps = max(cores, _memory_shares(usage, node))  # over C, the core count
    # gpus / G against steps / C, cross-multiplied; gpus > 0 implies G > 0
    if gpus * node.total_cores > steps * node.gpu_count:
        best = Fraction(gpus, node.gpu_count)
    else:
        best = Fraction(steps, node.total_cores)
    if usage.extra_used:
        capacities = node.extra_capacities
        for resource, amount in usage.extra_used:
            if resource not in capacities:
                raise CapacityError(f"node type {node.name!r} has no resource {resource!r}")
            if amount > capacities[resource]:
                raise CapacityError(
                    f"{float(amount):g} of {resource!r} requested but node type {node.name!r} "
                    f"has {float(capacities[resource]):g}"
                )
            if amount > 0:
                best = max(best, amount / capacities[resource])
    return best


def watt_to_su_rate(cpu: ProcessorSpec) -> Fraction:
    """Service units bought by one watt-hour on the reference CPU: cores / TDP."""
    if cpu.kind is not ProcessorKind.CPU:
        raise ValidationError("the watt-to-SU rate is defined against a CPU spec")
    return Fraction(cpu.cores) / cpu.tdp_watts


def gpu_partition_weight(node: NodeType) -> Fraction:
    """Node-hour weight of a GPU node: (GPU TDP / CPU TDP) * core count.

    Kept as an exact rational (for example 192 on a 4x400 W GPU, 2x150 W
    CPU, 36-core node); round only when displaying.
    """
    if node.gpu_count == 0:
        raise ModelError(
            f"node type {node.name!r} has no GPUs; a CPU partition weighs its core count"
        )
    return node.gpu_tdp_watts / node.cpu_tdp_watts * node.total_cores


class ChargeModel(Value):
    """A deterministic pricing scheme: a node-hour weight and a per-node fraction.

    Every model charges a job the same way, weight * hours * sum of the
    per-node fractions; a model supplies the weight and may replace the
    fraction. A CPU-only node weighs its core count unless the model
    overrides `node_weight` itself.
    """

    id: str

    def node_weight(self, node: NodeType) -> Fraction:
        """SU charged for one hour's use of one full node of this type."""
        if node.gpu_count == 0:
            return Fraction(node.total_cores)
        return self.gpu_node_weight(node)

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        """Node-hour weight of a node that has GPUs."""
        raise NotImplementedError

    def node_fraction(self, usage: NodeUsage, node: NodeType) -> Fraction:
        """Share of one node the usage is charged for: the max-fraction rule."""
        return node_fraction(usage, node)

    def charge(self, job: JobRequest) -> ChargeReport:
        """Charge a job on its partition's node type under this model.

        The fraction is worked out once per distinct usage object; a
        uniform job repeats one object on every node. The fractions are
        summed as integers over their common denominator, and the total
        is built as one Fraction.
        """
        partition = job.partition
        node = partition.node_type
        # the partition worked out its own model's weight once, at construction
        weight = partition.weight if self is partition.model else self.node_weight(node)
        hours = job.walltime_hours
        usages = job.per_node_usage
        fractions: dict[int, Fraction] = {}
        for usage in usages:
            if id(usage) not in fractions:
                fractions[id(usage)] = self.node_fraction(usage, node)
        if len(fractions) == 1:  # a uniform job: the node count times its one fraction
            (fraction,) = fractions.values()
            per_node = (fraction,) * len(usages)
            units, denominator = len(usages) * fraction.numerator, fraction.denominator
        else:
            per_node = tuple(fractions[id(usage)] for usage in usages)
            denominator = math.lcm(*(fraction.denominator for fraction in fractions.values()))
            units = sum(fraction.numerator * (denominator // fraction.denominator) for fraction in per_node)
        return ChargeReport(
            model_id=self.id,
            total_su=Fraction(
                weight.numerator * hours.numerator * units, weight.denominator * hours.denominator * denominator
            ),
            per_node_fraction=per_node,
            weight_used=weight,
            walltime_hours=hours,
        )


class EnergyModel(ChargeModel):
    """TDP-ratio GPU weighting; CPU nodes weigh their core count."""

    id = "energy"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return gpu_partition_weight(node)


class Partition(Value):
    """A named set of identical nodes billed under one charge model.

    `weight` is derived from the model once, at construction.
    """

    __slots__ = _fields = ("name", "node_type", "node_count", "model", "weight")

    def __init__(self, name: str, node_type: NodeType, node_count: int = 1, model: ChargeModel = EnergyModel()) -> None:
        if node_count < 1:
            raise ValidationError(f"partition {name!r}: node_count must be at least 1")
        weight = model.node_weight(node_type)
        if weight <= 0:
            raise ValidationError(f"partition {name!r}: weight must be positive")
        self._init(name, node_type, node_count, model, weight)

    def __reduce__(self):
        return Partition, self._values()[:-1]  # the constructor derives the weight again


class JobRequest(Value):
    """A charging request: one partition, one usage entry per node, hours.

    Jobs may be heterogeneous (different usage on different nodes) but
    bind to a single partition.
    """

    __slots__ = _fields = ("partition", "per_node_usage", "walltime_hours")

    def __init__(self, partition: Partition, per_node_usage: Sequence[NodeUsage], walltime_hours: RealLike) -> None:
        set_field(self, "partition", partition)
        set_field(self, "per_node_usage", per_node_usage)
        set_field(self, "walltime_hours", walltime_hours)
        self.__post_init__()

    def __post_init__(self) -> None:
        set_field(self, "per_node_usage", tuple(self.per_node_usage))
        set_field(self, "walltime_hours", exact(self.walltime_hours))
        if not self.per_node_usage:
            raise ValidationError("a job must span at least one node")
        if self.walltime_hours.numerator < 0:
            raise ValidationError("walltime_hours must be nonnegative")
        _check_span(self.partition, len(self.per_node_usage))

    @classmethod
    def uniform(
        cls, partition: Partition, nodes: int, usage: NodeUsage, walltime_hours: RealLike
    ) -> "JobRequest":
        """Identical usage replicated across `nodes` nodes."""
        _check_span(partition, nodes)  # before `nodes` copies are made
        return cls(partition, (usage,) * nodes, exact(walltime_hours))


def _check_span(partition: Partition, nodes: int) -> None:
    if nodes > partition.node_count:
        raise CapacityError(
            f"job spans {nodes} nodes but partition {partition.name!r} has {partition.node_count}"
        )


class ChargeReport(Value):
    """Outcome of charging one job: total SU plus the per-node breakdown."""

    __slots__ = _fields = ("model_id", "total_su", "per_node_fraction", "weight_used", "walltime_hours")

    def __init__(
        self,
        model_id: str,
        total_su: Fraction,
        per_node_fraction: tuple[Fraction, ...],
        weight_used: Fraction,
        walltime_hours: Fraction,
    ) -> None:
        set_field(self, "model_id", model_id)
        set_field(self, "total_su", total_su)
        set_field(self, "per_node_fraction", per_node_fraction)
        set_field(self, "weight_used", weight_used)
        set_field(self, "walltime_hours", walltime_hours)


def energy_estimate_wh(usages: Sequence[NodeUsage], node: NodeType, hours: Fraction) -> Fraction:
    """TDP-based energy estimate of the requested cores and GPUs, in Wh."""
    draw = Fraction(0)
    for usage in usages:
        draw += core_fraction(usage, node) * node.cpu_tdp_watts
        draw += gpu_fraction(usage, node) * node.gpu_tdp_watts
    return draw * hours


def job_cost(job: JobRequest) -> ChargeReport:
    """Charge a job under its partition's model."""
    return job.partition.model.charge(job)
