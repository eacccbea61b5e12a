"""System configuration: a validated JSON file of partitions.

The file describes partitions: node counts, processor specs with explicit
units (tdp_watts, peak_flops, memory_total_gib) and the charge model each
partition bills under. `load_config` reads every number exactly, and
`parse_config` collects every violation into one ValidationError that
names the path of each.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .core import (
    ChargeModel, NodeType, Partition, ProcessorKind, ProcessorSpec, Value, _count, _partition_name_problem,
    _sequence, parse_real, set_field,
)
from .errors import AccountingError, ConfigError, ValidationError
from .models import MODEL_IDS, PuhtiModel, PuhtiRates, get_model

# A processor entry is copied `count` times into its node type.
MAX_PROCESSOR_COUNT = 1024


class SystemConfig(Value):
    """Validated partitions, each carrying the charge model it bills under."""

    _fields = ("partitions",)
    __slots__ = (*_fields, "_by_name")

    def __init__(self, partitions: Sequence[Partition]) -> None:
        super().__init__(_sequence(partitions, Partition, "partitions"))
        by_name = {}
        for partition in self.partitions:
            if partition.name in by_name:
                raise ValidationError(f"duplicate partition {partition.name!r}")
            by_name[partition.name] = partition
        set_field(self, "_by_name", by_name)

    def partition(self, name: str) -> Partition:
        try:
            return self._by_name[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown partition {name!r}") from None

    def model_for(self, partition_name: str) -> ChargeModel:
        return self.partition(partition_name).model

    def first_partition(self, with_gpus: bool) -> Partition | None:
        for partition in self.partitions:
            if (partition.node_type.gpu_count > 0) == with_gpus:
                return partition
        return None


class _FloatText(Fraction):
    """Config float text, read exactly by `parse_real`. Its repr, which errors
    quote at any depth of a value, is the text as written."""

    __slots__ = ("_text",)

    def __new__(cls, text: str) -> "_FloatText":
        self = super().__new__(cls, parse_real(text))
        self._text = text
        return self

    def __repr__(self) -> str:
        return self._text


class _Object(dict):
    """A JSON object as `load_config` reads it, with each key that its text gives more than once."""

    def __init__(self, pairs: list[tuple[str, object]]) -> None:
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = {key for key in self if keys.count(key) > 1} if len(keys) > len(self) else ()


def _quote(raw) -> str:
    """A config value as an error quotes it: its repr, or its type name when it has none
    (an int beyond the interpreter's digit limit, or a too deeply nested list)."""
    try:
        return repr(raw)
    except (ValueError, RecursionError):
        return type(raw).__name__


def _decimal(raw, path: str, errors: list[str]) -> Fraction:
    """Parse a JSON number decimally (0.1 becomes exactly 1/10)."""
    if isinstance(raw, Fraction):  # float text, already read exactly by `load_config`
        return Fraction(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.append(f"{path}: expected a number, got {_quote(raw)}")
        return Fraction(1)
    if isinstance(raw, float) and not math.isfinite(raw):  # ints are finite, and may be beyond any float
        errors.append(f"{path}: expected a finite number")
        return Fraction(1)
    return Fraction(raw if isinstance(raw, int) else str(raw))  # an int of any size, a float as its shortest decimal


def _integer(raw, path: str, errors: list[str]) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        errors.append(f"{path}: expected an integer, got {_quote(raw)}")
        return 1
    return raw


def _text(raw, path: str, errors: list[str]) -> str:
    if not isinstance(raw, str) or not raw:
        errors.append(f"{path}: expected a non-empty string, got {_quote(raw)}")
        return "?"
    return raw


def _optional(entry: dict, key: str, kind: type, path: str, errors: list[str], expected: str):
    """Optional list or object `entry[key]`: null reads as absent, that is empty, and
    another type is the error `path.key: expected <expected>`, `{got}` quoting it."""
    raw = entry.get(key)
    if raw is None:
        return kind()
    if not isinstance(raw, kind):
        errors.append(f"{path}.{key}: expected " + expected.format(got=_quote(raw)))
        return kind()
    return raw


def _items(entry: dict, path: str, errors: list[str]):
    """The (key, value) pairs of a config object; a key that is not a string is the error
    `path: expected a string key, got <key>`, and one its text repeats is `path.key: repeated key`."""
    for key, value in entry.items():
        if isinstance(key, str):
            if key in getattr(entry, "repeated", ()):
                errors.append(f"{_at(path, key)}: repeated key")
            yield key, value
        else:
            errors.append(f"{path or 'top level'}: expected a string key, got {_quote(key)}")


def _known(entry: dict, known: tuple[str, ...], path: str, errors: list[str]) -> None:
    """Collect `path.key: unknown key (known: ...)` for each key of `entry` not in `known`."""
    for key, _ in _items(entry, path, errors):
        if key not in known:
            errors.append(f"{_at(path, key)}: unknown key (known: {', '.join(known) or 'none'})")


def _at(path: str, key: str) -> str:
    """The path of `key` in the object at `path` ("" for the top level)."""
    return f"{path}.{key}" if path else key


def _built(build, path: str, errors: list[str], before: int):
    """`build()` when the entry collected no error past the first `before`, else None.
    An AccountingError of the build is collected as `path: message`."""
    if len(errors) > before:
        return None
    try:
        return build()
    except AccountingError as err:
        errors.append(f"{path}: {err}")
        return None


def _processors(entry, kind: ProcessorKind, path: str, errors: list[str]) -> list[ProcessorSpec]:
    """The `count` copies of one processor entry; none when the entry has an error."""
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return []
    before = len(errors)
    unit = "cores" if kind is ProcessorKind.CPU else "streaming_multiprocessors"
    _known(entry, ("name", unit, "tdp_watts", "peak_flops", "count"), path, errors)
    name = _text(entry.get("name"), f"{path}.name", errors)
    tdp = _decimal(entry.get("tdp_watts"), f"{path}.tdp_watts", errors)
    flops = _decimal(entry.get("peak_flops"), f"{path}.peak_flops", errors)
    counted = len(errors)
    count = _integer(entry.get("count", 1), f"{path}.count", errors)
    _built(lambda: _count(count, "count", 1, MAX_PROCESSOR_COUNT), path, errors, counted)  # once `count` is an int
    units = _integer(entry.get(unit), f"{path}.{unit}", errors)
    spec = _built(lambda: ProcessorSpec(name, kind, tdp, flops, **{unit: units}), path, errors, before)
    return [] if spec is None else [spec] * count


def _node_type(entry, path: str, errors: list[str]) -> NodeType | None:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    before = len(errors)
    _known(entry, NodeType._fields, path, errors)
    name = _text(entry.get("name"), f"{path}.name", errors)
    memory = _decimal(entry.get("memory_total_gib"), f"{path}.memory_total_gib", errors)
    cpus: list[ProcessorSpec] = []
    gpus: list[ProcessorSpec] = []
    for key, kind, specs in (("cpus", ProcessorKind.CPU, cpus), ("gpus", ProcessorKind.GPU, gpus)):
        for i, raw in enumerate(_optional(entry, key, list, path, errors, "a list, got {got}")):
            specs += _processors(raw, kind, f"{path}.{key}[{i}]", errors)
    raw_extras = _optional(entry, "extra_resources", dict, path, errors, "an object of name -> capacity")
    extras = {}
    for resource, capacity in _items(raw_extras, f"{path}.extra_resources", errors):
        extras[resource] = _decimal(capacity, f"{path}.extra_resources.{resource}", errors)
    return _built(lambda: NodeType(name, cpus, memory, gpus, extras), path, errors, before)


def _model_from_entry(model_id: str, entry: dict, path: str, errors: list[str]) -> ChargeModel | None:
    if model_id not in MODEL_IDS:
        errors.append(f"{path}.model: unknown model {model_id!r} (known: {', '.join(MODEL_IDS)})")
        return None
    parameters = _optional(entry, "model_parameters", dict, path, errors, "an object")
    if model_id == "puhti":
        return _puhti_model(parameters, f"{path}.model_parameters", errors)
    _known(parameters, (), f"{path}.model_parameters", errors)
    return get_model(model_id)


def _puhti_model(parameters: dict, path: str, errors: list[str]) -> ChargeModel | None:
    before = len(errors)
    _known(parameters, PuhtiModel._fields, path, errors)
    raw_rates = _optional(parameters, "rates", dict, path, errors, "an object of rate name -> number")
    _known(raw_rates, PuhtiRates._fields, f"{path}.rates", errors)
    rates = {name: _decimal(value, f"{path}.rates.{name}", errors)
             for name, value in raw_rates.items() if name in PuhtiRates._fields}
    nvme_resource = _text(parameters.get("nvme_resource", "nvme_gib"), f"{path}.nvme_resource", errors)
    return _built(lambda: PuhtiModel(rates=PuhtiRates(**rates), nvme_resource=nvme_resource), path, errors, before)


def parse_config(data: dict, source: str = "<config>") -> SystemConfig:
    """Build a SystemConfig from a parsed JSON object, collecting all violations."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ValidationError(f"{source}: top level must be an object")
    raw_partitions = data.get("partitions")
    if not isinstance(raw_partitions, list) or not raw_partitions:
        raise ValidationError(f"{source}: 'partitions' must be a non-empty list")
    _known(data, ("partitions",), "", errors)
    partitions: list[Partition] = []
    seen_names: set[str] = set()
    for i, entry in enumerate(raw_partitions):
        path = f"partitions[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        before = len(errors)
        _known(entry, ("name", "model", "node_count", "node", "model_parameters"), path, errors)
        name = _text(entry.get("name"), f"{path}.name", errors)
        problem = f"duplicate partition {name!r}" if name in seen_names else _partition_name_problem(name)
        if problem:
            errors.append(f"{path}.name: {problem}")
        model_id = _text(entry.get("model", "energy"), f"{path}.model", errors)
        node_count = _integer(entry.get("node_count", 1), f"{path}.node_count", errors)
        node = _node_type(entry.get("node"), f"{path}.node", errors)
        # a None node or model has collected its error, so the partition is not built
        model = None if node is None else _model_from_entry(model_id, entry, path, errors)
        partition = _built(lambda: Partition(name, node, node_count, model=model), path, errors, before)
        if partition is not None:
            partitions.append(partition)
            seen_names.add(name)
    if errors:
        raise ValidationError(f"{source}: invalid configuration:\n- " + "\n- ".join(errors))
    return SystemConfig(partitions)


def load_config(path: str | Path) -> SystemConfig:
    """Load and validate a partition configuration file.

    Every number is read exactly: float text such as `0.1` or `1.5e12`
    goes through `parse_real`, under its length and exponent bound.
    """
    try:
        path = Path(path)
    except TypeError:
        raise ValidationError(f"config path must be a str or a PathLike, got {type(path).__name__}") from None
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}:{_undecodable_line(path)}: not UTF-8 text: {err.reason}") from None
    try:
        data = json.loads(text, parse_float=_FloatText, object_pairs_hook=_Object)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    # an integer beyond the digit limit, float text beyond the number bound, or too deep a nesting
    except (ValueError, ValidationError, RecursionError) as err:
        raise ConfigError(f"{path}: {err}") from err
    return parse_config(data, source=str(path))


def _undecodable_line(path: str | Path) -> int:
    """Number of the first line of `path` that is not UTF-8 (0 when every line is)."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0
