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
share; `sumeter.models` holds the rival models.

All arithmetic is exact. Inputs are converted to `fractions.Fraction` on
entry (floats keep their binary value; strings such as "0.1" are read as
decimals); a charge is summed in integers, its per-node shares being
ints over the core or GPU count, and values are rounded only for display.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .display import exact_text
from .errors import CapacityError, ModelError, ValidationError

RealLike = Union[int, float, Fraction, str]


# Number text is bounded before it is parsed: Fraction("1e<huge>") builds
# 10**exp in memory. 400 covers the exponent of every float64.
MAX_NUMBER_LENGTH = 100
MAX_DECIMAL_EXPONENT = 400
_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def parse_real(text: str) -> Fraction:
    """Read a decimal or p/q string exactly, refusing oversized text first.

    An underscore between two digits is dropped, on every Python, as Python
    3.11+ reads number text; any other underscore is refused.
    """
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
    # Fraction reads underscores only from Python 3.11 on, so they go first.
    plain = re.sub(r"(?<=\d)_(?=\d)", "", text) if "_" in text else text
    exponent = _EXPONENT.search(plain)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
        raise ValidationError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    try:
        return Fraction(plain)
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

    A subclass names its fields in `_fields`, each of them a slot (its
    `__slots__` adds `__dict__` where it caches derived values). The base
    constructor takes the fields by position or by name and sets each one
    through its slot; a subclass that validates its input or has defaults
    defines its own `__init__` and passes the fields on to `super().__init__`.
    Values compare and hash by their fields, within one class only, read as
    a tuple by `_values`, one getter built per class. Copies and pickles are
    rebuilt through the constructor.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = cls._fields  # `attrgetter` of one name gives the bare value, not a tuple
        get = attrgetter(*fields) if len(fields) > 1 else lambda value: tuple([getattr(value, f) for f in fields])
        cls._values = staticmethod(get)
        cls._setters = tuple([getattr(cls, name).__set__ for name in fields])

    def __init__(self, *values, **named) -> None:
        setters = self._setters
        if named or len(values) != len(setters):
            title, fields = type(self).__name__, self._fields
            if len(values) > len(fields):
                raise TypeError(f"{title} takes {len(fields)} fields {fields}, got {len(values)} values")
            rest = fields[len(values) :]  # the fields that must come by name
            for name in (*named, *rest):  # unknown or repeated names first, then missing ones
                if (name in named) != (name in rest):
                    problem = "missing" if name in rest else "repeated" if name in fields else "unknown"
                    raise TypeError(f"{title}: {problem} field {name!r}")
            values += tuple([named[name] for name in rest])
        for setter, value in zip(setters, values):
            setter(self, value)

    def __eq__(self, other):
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


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
        if type(cores) is not int or type(streaming_multiprocessors) is not int:  # a bool is not a count
            raise ValidationError(f"processor {name!r}: cores and streaming_multiprocessors must be integers")
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
        super().__init__(name, kind, tdp_watts, peak_flops, cores, streaming_multiprocessors)

    @classmethod
    def cpu(cls, name: str, cores: int, tdp_watts: RealLike, peak_flops: RealLike) -> "ProcessorSpec":
        return cls(name, ProcessorKind.CPU, tdp_watts, peak_flops, cores=cores)

    @classmethod
    def gpu(
        cls, name: str, streaming_multiprocessors: int, tdp_watts: RealLike, peak_flops: RealLike
    ) -> "ProcessorSpec":
        return cls(
            name,
            ProcessorKind.GPU,
            tdp_watts,
            peak_flops,
            streaming_multiprocessors=streaming_multiprocessors,
        )


def _normalize_pairs(pairs, what: str) -> tuple[tuple[str, Fraction], ...]:
    """Normalize a mapping or (name, amount) sequence to sorted unique pairs."""
    items = pairs.items() if isinstance(pairs, Mapping) else pairs
    out = []
    seen = set()
    for name, amount in items:
        if type(name) is not str:
            raise ValidationError(f"{what}: resource name must be a string, got {type(name).__name__}")
        if not name:
            raise ValidationError(f"{what}: resource name must be non-empty")
        if name in seen:
            raise ValidationError(f"{what}: duplicate resource {name!r}")
        seen.add(name)
        out.append((name, exact(amount)))
    return tuple(sorted(out))


class NodeType(Value):
    """Inventory of one compute-node flavour.

    `extra_resources` lists additional per-node consumables (for example
    node-local scratch in GiB) as (name, capacity) pairs; each one adds an
    argument to the per-node max when a job requests it.
    """

    # Derived values are worked out once per node type and cached in the
    # instance __dict__, outside the fields, so equality and hashing still use
    # the fields only, and copies and pickles leave them behind.
    _fields = ("name", "cpus", "memory_total_gib", "gpus", "extra_resources")
    __slots__ = (*_fields, "__dict__")

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
        super().__init__(name, cpus, memory_total_gib, gpus, extra_resources)

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
    def _share_integers(self) -> tuple[int, int, int, int]:
        """(cores, GPUs, memory numerator, memory denominator): what every node share reads."""
        return self.total_cores, self.gpu_count, *self.memory_total_gib.as_integer_ratio()

    @cached_property
    def extra_capacities(self) -> Mapping[str, Fraction]:
        """Read-only resource name -> capacity view of `extra_resources`."""
        return MappingProxyType(dict(self.extra_resources))


class NodeUsage(Value):
    """Resources requested on a single node. At least one quantity > 0."""

    __slots__ = _fields = ("cores_used", "gpus_used", "memory_used_gib", "extra_used")

    # Built once per row or node, so each field is set by name, which is faster
    # than the base constructor. Validation stays in `__post_init__`, as in `JobRequest`:
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
        cores, gpus, memory_units = self.cores_used, self.gpus_used, memory.numerator
        if type(cores) is not int or type(gpus) is not int:  # a bool is not a count
            raise ValidationError("core and GPU counts must be integers")
        if cores < 0 or gpus < 0:
            raise ValidationError("core and GPU counts must be nonnegative")
        if memory_units < 0:
            raise ValidationError("memory_used_gib must be nonnegative")
        if extras and any(amount.numerator < 0 for _, amount in extras):
            raise ValidationError("extra resource amounts must be nonnegative")
        if not (cores or gpus or memory_units or (extras and any(amount.numerator for _, amount in extras))):
            raise ValidationError("a node usage must request at least one resource")


# The capacity rules. Each returns the usage's step count as a plain int
# over the node's core or GPU count, so the max can be taken without
# building a Fraction per resource.
def _cores_used(usage: NodeUsage, node: NodeType) -> int:
    if usage.cores_used > node.total_cores:
        raise CapacityError(f"{usage.cores_used} cores requested but node type {node.name!r} has {node.total_cores}")
    return usage.cores_used


def _gpus_used(usage: NodeUsage, node: NodeType) -> int:
    if usage.gpus_used > node.gpu_count:
        raise CapacityError(f"{usage.gpus_used} GPUs requested but node type {node.name!r} has {node.gpu_count}")
    return usage.gpus_used


def core_equivalent(usage: NodeUsage, node: NodeType) -> int:
    """Cores the memory request is charged as, its whole per-core shares: ceil(used * C / M)."""
    used_num, used_den = usage.memory_used_gib.as_integer_ratio()
    if not used_num:
        return 0
    cores, _, total_num, total_den = node._share_integers
    if used_num * total_den > total_num * used_den:
        raise CapacityError(
            f"{exact_text(usage.memory_used_gib)} GiB requested but node type {node.name!r} "
            f"has {exact_text(node.memory_total_gib)} GiB"
        )
    return -(-(used_num * cores * total_den) // (used_den * total_num))


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
    return Fraction(core_equivalent(usage, node), node.total_cores)


def node_share(usage: NodeUsage, node: NodeType) -> tuple[int, int]:
    """Largest fraction of any single resource the request occupies, as (numerator, denominator).

    Extra resources named in the usage must exist on the node type and add
    amount/capacity terms to the max. Raises CapacityError whenever any
    quantity exceeds what the node provides, checking cores, GPUs, memory
    and then the extras.
    """
    total_cores, gpu_count, _, _ = node._share_integers
    cores, gpus = usage.cores_used, usage.gpus_used
    if cores > total_cores or gpus > gpu_count:
        _cores_used(usage, node)  # each raises for its own count, cores first
        _gpus_used(usage, node)
    steps = core_equivalent(usage, node)  # over C, the core count
    if steps < cores:
        steps = cores
    # gpus / G against steps / C, cross-multiplied; gpus > 0 implies G > 0
    if gpus * total_cores > steps * gpu_count:
        numerator, denominator = gpus, gpu_count
    else:
        numerator, denominator = steps, total_cores
    if not usage.extra_used:
        return numerator, denominator
    capacities = node.extra_capacities
    for resource, amount in usage.extra_used:
        if resource not in capacities:
            raise CapacityError(f"node type {node.name!r} has no resource {resource!r}")
        capacity = capacities[resource]
        term = amount.numerator * capacity.denominator, amount.denominator * capacity.numerator
        if term[0] > term[1]:
            raise CapacityError(
                f"{exact_text(amount)} of {resource!r} requested but node type {node.name!r} "
                f"has {exact_text(capacity)}"
            )
        if term[0] * denominator > numerator * term[1]:  # the larger term, cross-multiplied
            numerator, denominator = term
    return numerator, denominator


def node_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """`node_share` as a Fraction: the max-fraction rule."""
    return Fraction(*node_share(usage, node))


def add_ratios(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for two (numerator, denominator) pairs, combined over the gcd and not reduced."""
    (a, b), (c, d) = x, y
    if b == d:
        return a + c, b
    common = math.gcd(b, d)
    return a * (d // common) + c * (b // common), b * (d // common)


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
    """A deterministic pricing scheme: a node-hour weight and a per-node share.

    Every model charges a job the same way, weight * hours * sum of the
    per-node shares, summed in integers; a model supplies the weight and
    may replace `node_share`. A CPU-only node weighs its core count unless
    the model overrides `node_weight` itself.
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

    def node_share(self, usage: NodeUsage, node: NodeType) -> tuple[int, int]:
        """Share of one node the usage is charged for, as (numerator, denominator): the max rule."""
        return node_share(usage, node)

    def node_fraction(self, usage: NodeUsage, node: NodeType) -> Fraction:
        """`node_share` as a Fraction."""
        return Fraction(*self.node_share(usage, node))

    def total(self, job: JobRequest) -> tuple[int, int]:
        """The job's charge, weight * hours * the sum of its node shares, as (numerator, denominator)."""
        return self._priced(job)[0]

    def charge(self, job: JobRequest) -> ChargeReport:
        """Charge a job on its partition's node type under this model."""
        total, shares, repeat, weight = self._priced(job)
        per_node = tuple([Fraction(*share) for share in shares]) * repeat
        return ChargeReport(self.id, Fraction(*total), per_node, weight, job.walltime_hours)

    def _priced(self, job: JobRequest):
        """The total, the node shares (`repeat` times over) and the weight; a uniform job is priced once."""
        partition, usages = job.partition, job.per_node_usage
        node, first = partition.node_type, usages[0]
        if usages[-1] is first and usages.count(first) == len(usages):
            shares, repeat = [self.node_share(first, node)], len(usages)
        else:
            shares, repeat = [self.node_share(usage, node) for usage in usages], 1
        units, denominator = shares[0]
        for share_units, share_denominator in shares[1:]:  # add_ratios, inline
            common = math.gcd(denominator, share_denominator)
            units = units * (share_denominator // common) + share_units * (denominator // common)
            denominator *= share_denominator // common
        # the partition worked out its own model's weight once, at construction
        weight = partition.weight if self is partition.model else self.node_weight(node)
        weight_num, weight_den = weight.as_integer_ratio()
        hours_num, hours_den = job.walltime_hours.as_integer_ratio()
        numerator = weight_num * hours_num * units * repeat
        return (numerator, weight_den * hours_den * denominator), shares, repeat, weight


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
        if type(node_count) is not int:
            raise ValidationError(f"partition {name!r}: node_count must be an integer")
        if node_count < 1:
            raise ValidationError(f"partition {name!r}: node_count must be at least 1")
        weight = model.node_weight(node_type)
        if weight <= 0:
            raise ValidationError(f"partition {name!r}: weight must be positive")
        super().__init__(name, node_type, node_count, model, weight)

    def __reduce__(self):
        return Partition, self._values(self)[:-1]  # the constructor derives the weight again


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
        usages, hours = self.per_node_usage, self.walltime_hours
        if type(usages) is not tuple:
            usages = tuple(usages)
            set_field(self, "per_node_usage", usages)
        if not isinstance(hours, Fraction):
            hours = exact(hours)
            set_field(self, "walltime_hours", hours)
        if not usages:
            raise ValidationError("a job must span at least one node")
        if hours.numerator < 0:
            raise ValidationError("walltime_hours must be nonnegative")
        _check_span(self.partition, len(usages))

    @classmethod
    def uniform(
        cls, partition: Partition, nodes: int, usage: NodeUsage, walltime_hours: RealLike
    ) -> "JobRequest":
        """Identical usage replicated across `nodes` nodes."""
        if type(nodes) is not int:
            raise ValidationError("nodes must be an integer")
        _check_span(partition, nodes)  # before `nodes` copies are made
        return cls(partition, (usage,) * nodes, walltime_hours)


def _check_span(partition: Partition, nodes: int) -> None:
    if nodes > partition.node_count:
        raise CapacityError(
            f"job spans {nodes} nodes but partition {partition.name!r} has {partition.node_count}"
        )


class ChargeReport(Value):
    """Outcome of charging one job: total SU plus the per-node breakdown."""

    __slots__ = _fields = ("model_id", "total_su", "per_node_fraction", "weight_used", "walltime_hours")


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
