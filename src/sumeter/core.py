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
energy-efficient hardware for their job. The steer is exact when both
nodes draw the same CPU TDP per core; `sumeter.analysis.energy_threshold`
gives where it is not.

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
from functools import reduce
from operator import attrgetter
from types import MappingProxyType
from typing import Mapping, Sequence, Union

from .display import exact_text
from .errors import CapacityError, ModelError, ValidationError

RealLike = Union[int, float, Fraction, str]


# A uniform job and its report hold one slot per node, so a partition is bounded; the
# largest systems have fewer nodes than this.
MAX_NODE_COUNT = 1_000_000

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
    return Fraction(*_parse_ratio(text))


def _parse_ratio(text: str) -> tuple[int, int]:
    """`parse_real` as a reduced (numerator, denominator)."""
    _require(text, str, "number text")
    if len(text) > MAX_NUMBER_LENGTH:
        raise ValidationError(f"number longer than {MAX_NUMBER_LENGTH} characters: {text[:20]!r}...")
    # Plain ASCII digits[.digits], the common cell, is read without the regex.
    # isascii() keeps out digits such as '²' that isdigit() accepts.
    if text.isascii():
        whole, point, decimals = text.partition(".")
        if whole.isdigit():
            if not point:
                return int(whole), 1
            if decimals.isdigit():
                numerator, denominator = int(whole + decimals), 10 ** len(decimals)
                common = math.gcd(numerator, denominator)
                return numerator // common, denominator // common
    # Fraction reads underscores only from Python 3.11 on, so they go first.
    plain = re.sub(r"(?<=\d)_(?=\d)", "", text) if "_" in text else text
    exponent = _EXPONENT.search(plain)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
        raise ValidationError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    try:
        return Fraction(plain).as_integer_ratio()
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
    if isinstance(value, bool):  # a bool is not an amount, as `parse_config` reads it
        raise ValidationError(f"not a number: {value!r}")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as err:
        raise ValidationError(f"not a number: {value!r}") from err


def _require(value, kind: type, what: str) -> None:
    """Refuse a `value` that is not a `kind` with a ValidationError naming both types; `str` reads "a string"."""
    if not isinstance(value, kind):
        name = "string" if kind is str else kind.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise ValidationError(f"{what} must be {article} {name}, got {type(value).__name__}")


def _count(value, what: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """`value`, refused unless it is an `int` (a bool is not a count) from `minimum` to `maximum`."""
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{what} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{what} must be at most {maximum}")
    return value


def _sequence(values, kind: type, what: str) -> tuple:
    """`values` read once into a tuple (a tuple is kept as it is), refused unless each entry is a `kind`."""
    try:
        values = tuple(values)
    except TypeError:  # not iterable: a lone value is refused by its own type
        wrong = values
    else:
        for wrong in values:
            if not isinstance(wrong, kind):
                break
        else:
            return values
    raise ValidationError(f"{what} must be a sequence of {kind.__name__} values, got {type(wrong).__name__}")


def _amount(value: RealLike, what: str, positive: bool = False) -> Fraction:
    """`exact(value)`, refused when it is negative, or zero too when it must be `positive`."""
    amount = exact(value)
    if amount < 0 or (positive and amount == 0):
        raise ValidationError(f"{what} must be {'positive' if positive else 'nonnegative'}")
    return amount


# Sets a field while a value is built; a built value refuses assignment.
set_field = object.__setattr__


class Value:
    """Base of the immutable value types.

    A subclass names its fields in `_fields`, each of them a slot, and
    declares `__slots__` even when it adds none, so no value has an instance
    dictionary. The base constructor takes the fields by position or by name
    and sets each one through its slot; a subclass that validates its input,
    has defaults or derives values defines its own `__init__`, passes the
    fields on to `super().__init__` and sets each derived value in a slot of
    its own. Nothing is set once the constructor returns.
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

    `kind` is a `ProcessorKind`. CPUs carry a core count, GPUs a
    streaming-multiprocessor count; the other field must stay zero. TDP
    and peak FLOPs must be positive.
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
        _require(name, str, "processor name")
        if type(kind) is not ProcessorKind:  # the text "cpu" is not a kind
            raise ValidationError(
                f"processor {name!r}: kind must be ProcessorKind.CPU or ProcessorKind.GPU, got {kind!r}"
            )
        tdp_watts = _amount(tdp_watts, f"processor {name!r}: tdp_watts", positive=True)
        peak_flops = _amount(peak_flops, f"processor {name!r}: peak_flops", positive=True)
        _count(cores, f"processor {name!r}: cores")
        _count(streaming_multiprocessors, f"processor {name!r}: streaming_multiprocessors")
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
    try:  # a container or an item that is not iterable, or an item that is not a pair
        items = [(name, amount) for name, amount in (pairs.items() if isinstance(pairs, Mapping) else pairs)]
    except (TypeError, ValueError):
        raise ValidationError(f"{what}: expected (name, amount) pairs") from None
    out = []
    seen = set()
    for name, amount in items:
        _require(name, str, f"{what}: resource name")
        if not name:
            raise ValidationError(f"{what}: resource name must be non-empty")
        if name in seen:
            raise ValidationError(f"{what}: duplicate resource {name!r}")
        seen.add(name)
        out.append((name, exact(amount)))
    return tuple(sorted(out))


def _processors(specs, kind: ProcessorKind, node: str, field: str) -> tuple[ProcessorSpec, ...]:
    """A node type's `field`, `specs`, as a tuple of `kind` processors; anything else is a ValidationError."""
    specs = _sequence(specs, ProcessorSpec, f"node type {node!r}: {field}")
    for spec in specs:
        if spec.kind is not kind:
            raise ValidationError(f"node type {node!r}: {spec.name!r} listed under {field} is not a {kind.name}")
    return specs


class NodeType(Value):
    """Inventory of one compute-node flavour.

    `extra_resources` lists additional per-node consumables (for example
    node-local scratch in GiB) as (name, capacity) pairs; each one adds an
    argument to the per-node max when a job requests it.

    The constructor also works out the derived values, attributes that are
    not fields, so equality, hashing, repr and copies leave them out:
    `total_cores`, `gpu_count`, `total_streaming_multiprocessors`, the
    cumulative `cpu_tdp_watts`, `gpu_tdp_watts`, `cpu_peak_flops` and
    `gpu_peak_flops` (zero without GPUs), `memory_per_core_gib` (the even
    split of memory over the cores, one charging step) and
    `extra_capacities`, a read-only name -> capacity view of `extra_resources`.
    """

    _fields = ("name", "cpus", "memory_total_gib", "gpus", "extra_resources")
    __slots__ = (
        *_fields,
        *("total_cores", "gpu_count", "total_streaming_multiprocessors", "memory_per_core_gib", "extra_capacities"),
        *("cpu_tdp_watts", "gpu_tdp_watts", "cpu_peak_flops", "gpu_peak_flops", "_share_integers"),
    )

    def __init__(
        self,
        name: str,
        cpus: Sequence[ProcessorSpec],
        memory_total_gib: RealLike,
        gpus: Sequence[ProcessorSpec] = (),
        extra_resources: Mapping[str, RealLike] | Sequence[tuple[str, RealLike]] = (),
    ) -> None:
        _require(name, str, "node type name")
        cpus = _processors(cpus, ProcessorKind.CPU, name, "cpus")
        gpus = _processors(gpus, ProcessorKind.GPU, name, "gpus")
        memory_total_gib = _amount(memory_total_gib, f"node type {name!r}: memory_total_gib", positive=True)
        extra_resources = _normalize_pairs(extra_resources, f"node type {name!r}")
        if not cpus:
            raise ValidationError(f"node type {name!r} needs at least one CPU")
        for resource, capacity in extra_resources:
            _amount(capacity, f"node type {name!r}: capacity of {resource!r}", positive=True)
        super().__init__(name, cpus, memory_total_gib, gpus, extra_resources)
        total_cores = sum(spec.cores for spec in cpus)
        set_field(self, "total_cores", total_cores)
        set_field(self, "gpu_count", len(gpus))
        set_field(self, "total_streaming_multiprocessors", sum(spec.streaming_multiprocessors for spec in gpus))
        set_field(self, "cpu_tdp_watts", sum((spec.tdp_watts for spec in cpus), start=Fraction(0)))
        set_field(self, "gpu_tdp_watts", sum((spec.tdp_watts for spec in gpus), start=Fraction(0)))
        set_field(self, "cpu_peak_flops", sum((spec.peak_flops for spec in cpus), start=Fraction(0)))
        set_field(self, "gpu_peak_flops", sum((spec.peak_flops for spec in gpus), start=Fraction(0)))
        set_field(self, "memory_per_core_gib", memory_total_gib / total_cores)
        set_field(self, "extra_capacities", MappingProxyType(dict(extra_resources)))
        # (cores, GPUs, memory numerator, memory denominator): what every node share reads
        set_field(self, "_share_integers", (total_cores, len(gpus), *memory_total_gib.as_integer_ratio()))


class NodeUsage(Value):
    """Resources requested on a single node. At least one quantity > 0."""

    __slots__ = _fields = ("cores_used", "gpus_used", "memory_used_gib", "extra_used")

    # `iter_jobs` builds one for each node of every record it yields, so each field is set
    # through its slot's setter, which is faster than the base constructor and than
    # `set_field`, which finds the slot by name. Validation stays in `__post_init__`, as in
    # `JobRequest`: `bench/spans.py` wraps that method to count and time it.
    def __init__(
        self,
        cores_used: int = 0,
        gpus_used: int = 0,
        memory_used_gib: RealLike = Fraction(0),
        extra_used: Mapping[str, RealLike] | Sequence[tuple[str, RealLike]] = (),
    ) -> None:
        set_cores, set_gpus, set_memory, set_extra = self._setters
        set_cores(self, cores_used)
        set_gpus(self, gpus_used)
        set_memory(self, memory_used_gib if isinstance(memory_used_gib, Fraction) else exact(memory_used_gib))
        set_extra(self, () if extra_used == () else _normalize_pairs(extra_used, "usage"))
        self.__post_init__()

    def __post_init__(self) -> None:
        # Signs are read off numerators (denominators are positive).
        cores, gpus, extras = self.cores_used, self.gpus_used, self.extra_used
        memory_units = self.memory_used_gib.numerator
        if type(cores) is not int or type(gpus) is not int:  # a bool is not a count
            raise ValidationError("core and GPU counts must be integers")
        if cores < 0 or gpus < 0:
            raise ValidationError("core and GPU counts must be nonnegative")
        if memory_units < 0:
            raise ValidationError("memory_used_gib must be nonnegative")
        if extras and any(amount.numerator < 0 for _, amount in extras):
            raise ValidationError("extra resource amounts must be nonnegative")
        _check_requested(cores, gpus, memory_units, extras)


def _check_requested(cores: int, gpus: int, memory_num: int, extras) -> None:
    """Refuse a usage, its counts and amounts nonnegative, that requests no resource."""
    if not (cores or gpus or memory_num or (extras and any(amount.numerator for _, amount in extras))):
        raise ValidationError("a node usage must request at least one resource")


def _cells(usage: NodeUsage) -> tuple:
    """`usage` as the cells a share reads: (cores, GPUs, memory numerator, memory denominator, extras)."""
    return (usage.cores_used, usage.gpus_used, *usage.memory_used_gib.as_integer_ratio(), usage.extra_used)


def core_equivalent(usage: NodeUsage, node: NodeType) -> int:
    """Cores the memory request is charged as, its whole per-core shares: ceil(used * C / M), so 0 for none."""
    _require(usage, NodeUsage, "usage")
    _require(node, NodeType, "node")
    return _memory_steps(*usage.memory_used_gib.as_integer_ratio(), node)


def _memory_steps(memory_num: int, memory_den: int, node: NodeType) -> int:
    """`core_equivalent` of memory_num / memory_den GiB, unchecked but for the node's memory."""
    cores, _, total_num, total_den = node._share_integers
    if memory_num * total_den > total_num * memory_den:
        raise CapacityError(
            f"{exact_text(Fraction(memory_num, memory_den))} GiB requested but node type {node.name!r} "
            f"has {exact_text(node.memory_total_gib)} GiB"
        )
    return -(-(memory_num * cores * total_den) // (memory_den * total_num))


def memory_fraction(usage: NodeUsage, node: NodeType) -> Fraction:
    """Charged memory fraction, stepped up to whole per-core shares; refuses what `node_share` refuses.

    Node memory is split evenly over the cores and the request is rounded
    up to a whole number of those shares, so the result is a step function
    with co-domain {1/C, 2/C, ..., 1}. A request for all the memory on a
    node charges the whole node: it leaves nothing for anyone else even if
    a single core was asked for. Zero requested memory charges zero.
    """
    _require(usage, NodeUsage, "usage")
    _require(node, NodeType, "node")
    node_share(usage, node)
    return Fraction(_memory_steps(*usage.memory_used_gib.as_integer_ratio(), node), node.total_cores)


def node_share(usage: NodeUsage, node: NodeType) -> tuple[int, int]:
    """Largest fraction of any single resource the request occupies, as (numerator, denominator).

    Extra resources named in the usage must exist on the node type and add
    amount/capacity terms to the max. Raises CapacityError whenever any
    quantity exceeds what the node provides, checking cores, GPUs, memory
    and then the extras. Without extras, the share is the largest core, GPU or memory term.
    """
    return _share(_cells(usage), node)


def _share(cells: tuple, node: NodeType) -> tuple[int, int]:
    """`node_share` of a usage given as its cells, (cores, GPUs, memory numerator, memory
    denominator, extra pairs), the memory pair reduced: the max rule."""
    cores, gpus, memory_num, memory_den, extras = cells
    total_cores, gpu_count, _, _ = node._share_integers
    if cores > total_cores:
        raise CapacityError(f"{cores} cores requested but node type {node.name!r} has {total_cores}")
    if gpus > gpu_count:
        raise CapacityError(f"{gpus} GPUs requested but node type {node.name!r} has {gpu_count}")
    steps = _memory_steps(memory_num, memory_den, node)  # over C, the core count
    if steps < cores:
        steps = cores
    # gpus / G against steps / C, cross-multiplied; gpus > 0 implies G > 0
    if gpus * total_cores > steps * gpu_count:
        numerator, denominator = gpus, gpu_count
    else:
        numerator, denominator = steps, total_cores
    capacities = node.extra_capacities
    for resource, amount in extras:
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


def add_ratios(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x + y for (numerator, denominator) pairs, over lcm(b, d) and not reduced: equal denominators add numerators."""
    (a, b), (c, d) = x, y
    common = math.gcd(b, d)
    return a * (d // common) + c * (b // common), b * (d // common)


def watt_to_su_rate(cpu: ProcessorSpec) -> Fraction:
    """Service units bought by one watt-hour on the reference CPU: cores / TDP."""
    _require(cpu, ProcessorSpec, "cpu")
    if cpu.kind is not ProcessorKind.CPU:
        raise ValidationError("the watt-to-SU rate is defined against a CPU spec")
    return Fraction(cpu.cores) / cpu.tdp_watts


def gpu_partition_weight(node: NodeType) -> Fraction:
    """Node-hour weight of a GPU node: (GPU TDP / CPU TDP) * core count.

    Kept as an exact rational (for example 192 on a 4x400 W GPU, 2x150 W
    CPU, 36-core node); round only when displaying.
    """
    _require(node, NodeType, "node")
    if node.gpu_count == 0:
        raise ModelError(
            f"node type {node.name!r} has no GPUs; a CPU partition weighs its core count"
        )
    return node.gpu_tdp_watts / node.cpu_tdp_watts * node.total_cores


class ChargeModel(Value):
    """A deterministic pricing scheme: a node-hour weight and a per-node share.

    Every model charges a job the same way, weight * hours * sum of the
    per-node shares, summed in integers; a model supplies the weight and may
    replace `cell_share`, the share every charge reads. A CPU-only node weighs
    its core count unless the model overrides `node_weight` itself.
    """

    __slots__ = ()
    id: str

    def node_weight(self, node: NodeType) -> Fraction:
        """SU charged for one hour's use of one full node of this type."""
        if node.gpu_count == 0:
            return Fraction(node.total_cores)
        return self.gpu_node_weight(node)

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        """Node-hour weight of a node that has GPUs."""
        raise NotImplementedError

    cell_share = staticmethod(_share)  # a model may replace it with a method of (self, cells, node)

    def charge(self, job: JobRequest) -> ChargeReport:
        """Charge a job on its partition's node type under this model."""
        usages, repeat = job._priced_by
        cells, hours = list(map(_cells, usages)), job.walltime_hours.as_integer_ratio()
        total, shares, weight = self._priced(job.partition, cells, repeat, hours)
        per_node = tuple([Fraction(*share) for share in shares]) * repeat
        return ChargeReport(self.id, Fraction(*total), per_node, weight, job.walltime_hours)

    def _priced(self, partition: Partition, usages: Sequence[tuple], repeat: int, hours: tuple[int, int]):
        """The total, the node shares and the weight of a job on `partition` that runs `usages`, each as its
        cells, `repeat` times over, for `hours` (numerator, denominator): each usage is priced once."""
        node = partition.node_type
        shares = [self.cell_share(cells, node) for cells in usages]
        units, denominator = reduce(add_ratios, shares)
        # the partition worked out its own model's weight once, at construction
        weight = partition.weight if self is partition.model else self.node_weight(node)
        weight_num, weight_den = weight.as_integer_ratio()
        hours_num, hours_den = hours
        numerator = weight_num * hours_num * units * repeat
        return (numerator, weight_den * hours_den * denominator), shares, weight


class EnergyModel(ChargeModel):
    """TDP-ratio GPU weighting; CPU nodes weigh their core count."""

    __slots__ = ()
    id = "energy"

    def gpu_node_weight(self, node: NodeType) -> Fraction:
        return gpu_partition_weight(node)


def _partition_name_problem(name: str) -> str | None:
    """Why `name` cannot name a partition of the ledger `ingest` prints, or None when it can."""
    if not name:
        return "must be non-empty"
    if name == "ALL":  # ingest prints each project's total as partition ALL
        return "'ALL' is reserved for the project total"
    if name != name.strip():  # ingest strips the partition cell of a jobs row
        return f"must not start or end with whitespace, got {name!r}"
    return None


class Partition(Value):
    """A named set of identical nodes billed under one charge model.

    `weight` is derived from the model once, at construction.
    """

    __slots__ = _fields = ("name", "node_type", "node_count", "model", "weight")

    def __init__(self, name: str, node_type: NodeType, node_count: int = 1, model: ChargeModel = EnergyModel()) -> None:
        _require(name, str, "partition name")
        problem = _partition_name_problem(name)
        if problem:
            raise ValidationError(f"partition name: {problem}")
        _count(node_count, f"partition {name!r}: node_count", 1, MAX_NODE_COUNT)
        _require(node_type, NodeType, f"partition {name!r}: node_type")
        _require(model, ChargeModel, f"partition {name!r}: model")
        weight = _amount(model.node_weight(node_type), f"partition {name!r}: weight", positive=True)
        super().__init__(name, node_type, node_count, model, weight)

    def __reduce__(self):
        return Partition, self._values(self)[:-1]  # the constructor derives the weight again


class JobRequest(Value):
    """A charging request: one partition, one usage entry per node, hours.

    Jobs may be heterogeneous (different usage on different nodes) but
    bind to a single partition. The constructor also works out the usages
    the job is priced by, a derived value that is not a field: a uniform
    job's one usage and its node count, or each node's usage once.
    """

    _fields = ("partition", "per_node_usage", "walltime_hours")
    __slots__ = (*_fields, "_priced_by")

    def __init__(self, partition: Partition, per_node_usage: Sequence[NodeUsage], walltime_hours: RealLike) -> None:
        per_node_usage = _sequence(per_node_usage, NodeUsage, "per-node usages")
        set_partition, set_usages, set_hours = self._setters  # one per `charge_record`: slot setters, as in `NodeUsage`
        set_partition(self, partition)
        set_usages(self, per_node_usage)
        set_hours(self, walltime_hours if isinstance(walltime_hours, Fraction) else exact(walltime_hours))
        self.__post_init__()

    def __post_init__(self) -> None:
        usages, hours = self.per_node_usage, self.walltime_hours
        if not usages:
            raise ValidationError("a job must span at least one node")
        first = usages[0]
        # uniform: the same usage object first and last and an equal one on every node, as `uniform` builds
        if usages[-1] is first and usages.count(first) == len(usages):
            priced_by = (first,), len(usages)
        else:
            priced_by = usages, 1
        if hours.numerator < 0:
            raise ValidationError("walltime_hours must be nonnegative")
        _check_span(self.partition, len(usages))
        set_field(self, "_priced_by", priced_by)

    @classmethod
    def uniform(
        cls, partition: Partition, nodes: int, usage: NodeUsage, walltime_hours: RealLike
    ) -> "JobRequest":
        """Identical usage replicated across `nodes` nodes."""
        _check_span(partition, _count(nodes, "nodes"))  # before `nodes` copies are made
        return cls(partition, (usage,) * nodes, walltime_hours)


def _check_span(partition: Partition, nodes: int) -> None:
    _require(partition, Partition, "a job's partition")
    if nodes > partition.node_count:
        raise CapacityError(
            f"job spans {nodes} nodes but partition {partition.name!r} has {partition.node_count}"
        )


class ChargeReport(Value):
    """Outcome of charging one job: total SU plus the per-node breakdown."""

    __slots__ = _fields = ("model_id", "total_su", "per_node_fraction", "weight_used", "walltime_hours")


def energy_estimate_wh(job: JobRequest) -> Fraction:
    """TDP energy of the job's requested cores and GPUs over its hours, in Wh; refuses what `node_share` refuses.

    (sum cores / C * CPU TDP + sum GPUs / G * GPU TDP) * hours; a charge's distinct usages, each checked once.
    """
    _require(job, JobRequest, "job")
    node, (usages, repeat) = job.partition.node_type, job._priced_by
    cores = gpus = 0
    for usage in usages:
        node_share(usage, node)
        cores += usage.cores_used
        gpus += usage.gpus_used
    draw = Fraction(cores, node.total_cores) * node.cpu_tdp_watts
    if gpus:  # a GPU-less node has G = 0
        draw += Fraction(gpus, node.gpu_count) * node.gpu_tdp_watts
    return draw * repeat * job.walltime_hours


def job_cost(job: JobRequest) -> ChargeReport:
    """Charge a job under its partition's model."""
    _require(job, JobRequest, "job")
    return job.partition.model.charge(job)
