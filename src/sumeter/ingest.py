"""Configuration and job-record I/O.

The system configuration is a JSON file describing partitions: node
counts, processor specs with explicit units (tdp_watts, peak_flops,
memory_total_gib) and the charge model each partition bills under. Job
accounting logs are CSVs with one uniform-usage row per job, optionally
joined with a per-node detail file for heterogeneous jobs. Ingestion
streams: `iter_jobs` yields one jobs row at a time, and never drops a row
silently. Every jobs row ends up either as a record or as a row error,
and every detail row that belongs to no jobs row as a detail row error.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from functools import cached_property, reduce
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import tables
from .core import (
    ChargeModel,
    ChargeReport,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorKind,
    ProcessorSpec,
    Value,
    add_ratios,
    job_cost,
    parse_real,
    set_field,
)
from .errors import AccountingError, CapacityError, ConfigError, ValidationError
from .models import MODEL_IDS, PuhtiModel, PuhtiRates, get_model

JOBS_CSV_COLUMNS = (
    "job_id",
    "project",
    "partition",
    "nodes",
    "cores_per_node",
    "gpus_per_node",
    "mem_gib_per_node",
    "elapsed_hours",
)

DETAIL_CSV_COLUMNS = ("job_id", "node_index", "cores", "gpus", "mem_gib")

_PUHTI_PARAMETERS = PuhtiModel._fields
_PUHTI_RATE_NAMES = PuhtiRates._fields
# A processor entry is copied `count` times into its node type.
MAX_PROCESSOR_COUNT = 1024


class SystemConfig(Value):
    """Validated partitions, each carrying the charge model it bills under."""

    _fields = ("partitions",)
    __slots__ = (*_fields, "__dict__")  # `_by_name` is cached in the instance __dict__

    def partition(self, name: str) -> Partition:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown partition {name!r}") from None

    @cached_property
    def _by_name(self) -> dict[str, Partition]:
        # the first partition of a name wins, as in a scan of `partitions`
        return {partition.name: partition for partition in reversed(self.partitions)}

    def model_for(self, partition_name: str) -> ChargeModel:
        return self.partition(partition_name).model

    def first_partition(self, with_gpus: bool) -> Partition | None:
        for partition in self.partitions:
            if (partition.node_type.gpu_count > 0) == with_gpus:
                return partition
        return None


class JobRecord(Value):
    """One accounted job: who ran it, where, with what, for how long, and its charge."""

    __slots__ = _fields = ("job_id", "project", "partition", "node_usages", "elapsed_hours", "total_su")

    def __init__(
        self,
        job_id: str,
        project: str,
        partition: str,
        node_usages: tuple[NodeUsage, ...],
        elapsed_hours: Fraction,
        total_su: Fraction,
    ) -> None:
        set_field(self, "job_id", job_id)
        set_field(self, "project", project)
        set_field(self, "partition", partition)
        set_field(self, "node_usages", node_usages)
        set_field(self, "elapsed_hours", elapsed_hours)
        set_field(self, "total_su", total_su)


class RowError(Value):
    __slots__ = _fields = ("line", "message")


class DetailRowError(RowError):
    """A detail-file row that belongs to no jobs-file row; `line` is in the detail file."""


class IngestResult(Value):
    """Records and errors of the jobs rows (`total_rows` counts both), plus orphan detail rows."""

    __slots__ = _fields = ("records", "errors", "total_rows", "orphans")


class RowTally:
    """Row outcomes of one ingest pass, kept while its records stream past."""

    def __init__(self) -> None:
        self.charged = 0
        self.errors: list[RowError] = []
        self.orphans: list[DetailRowError] = []

    @property
    def total_rows(self) -> int:
        return self.charged + len(self.errors)

    def records(self, items: Iterable[JobRecord | RowError]) -> Iterator[JobRecord]:
        """Pass the records of `iter_jobs` on and keep its errors."""
        for item in items:
            if isinstance(item, JobRecord):
                self.charged += 1
                yield item
            elif isinstance(item, DetailRowError):
                self.orphans.append(item)
            else:
                self.errors.append(item)


class ProjectUsage(Value):
    __slots__ = _fields = ("total_su", "by_partition")


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
    name = _text(entry.get("name"), f"{path}.name", errors)
    tdp = _decimal(entry.get("tdp_watts"), f"{path}.tdp_watts", errors)
    flops = _decimal(entry.get("peak_flops"), f"{path}.peak_flops", errors)
    count = _integer(entry.get("count", 1), f"{path}.count", errors)
    if not 1 <= count <= MAX_PROCESSOR_COUNT:
        errors.append(f"{path}.count: must be between 1 and {MAX_PROCESSOR_COUNT}, got {_quote(count)}")
    unit = "cores" if kind is ProcessorKind.CPU else "streaming_multiprocessors"
    units = _integer(entry.get(unit), f"{path}.{unit}", errors)
    spec = _built(lambda: ProcessorSpec(name, kind, tdp, flops, **{unit: units}), path, errors, before)
    return [] if spec is None else [spec] * count


def _node_type(entry, path: str, errors: list[str]) -> NodeType | None:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    before = len(errors)
    name = _text(entry.get("name"), f"{path}.name", errors)
    memory = _decimal(entry.get("memory_total_gib"), f"{path}.memory_total_gib", errors)
    cpus: list[ProcessorSpec] = []
    gpus: list[ProcessorSpec] = []
    for key, kind, specs in (("cpus", ProcessorKind.CPU, cpus), ("gpus", ProcessorKind.GPU, gpus)):
        for i, raw in enumerate(_optional(entry, key, list, path, errors, "a list, got {got}")):
            specs += _processors(raw, kind, f"{path}.{key}[{i}]", errors)
    raw_extras = _optional(entry, "extra_resources", dict, path, errors, "an object of name -> capacity")
    extras = {}
    for resource, capacity in raw_extras.items():
        extras[resource] = _decimal(capacity, f"{path}.extra_resources.{resource}", errors)
    return _built(lambda: NodeType(name, cpus, memory, gpus, extras), path, errors, before)


def _model_from_entry(model_id: str, entry: dict, path: str, errors: list[str]) -> ChargeModel | None:
    if model_id not in MODEL_IDS:
        errors.append(f"{path}.model: unknown model {model_id!r} (known: {', '.join(MODEL_IDS)})")
        return None
    parameters = _optional(entry, "model_parameters", dict, path, errors, "an object")
    if model_id == "puhti":
        return _puhti_model(parameters, f"{path}.model_parameters", errors)
    if parameters:
        errors.append(f"{path}.model_parameters: model {model_id!r} takes no parameters")
        return None
    return get_model(model_id)


def _puhti_model(parameters: dict, path: str, errors: list[str]) -> ChargeModel | None:
    before = len(errors)
    for key in parameters:
        if key not in _PUHTI_PARAMETERS:
            errors.append(f"{path}.{key}: unknown parameter (known: {', '.join(_PUHTI_PARAMETERS)})")
    rates = {}
    for name, value in _optional(parameters, "rates", dict, path, errors, "an object of rate name -> number").items():
        if name in _PUHTI_RATE_NAMES:
            rates[name] = _decimal(value, f"{path}.rates.{name}", errors)
        else:
            errors.append(f"{path}.rates.{name}: unknown rate (known: {', '.join(_PUHTI_RATE_NAMES)})")
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
    partitions: list[Partition] = []
    seen_names: set[str] = set()
    for i, entry in enumerate(raw_partitions):
        path = f"partitions[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        before = len(errors)
        name = _text(entry.get("name"), f"{path}.name", errors)
        if name in seen_names:
            errors.append(f"{path}.name: duplicate partition {name!r}")
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
    return SystemConfig(partitions=tuple(partitions))


def load_config(path: str | Path) -> SystemConfig:
    """Load and validate a partition configuration file.

    Every number is read exactly: float text such as `0.1` or `1.5e12`
    goes through `parse_real`, under its length and exponent bound.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}:{_undecodable_line(path)}: not UTF-8 text: {err.reason}") from None
    try:
        data = json.loads(text, parse_float=_FloatText)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    # an integer beyond the digit limit, float text beyond the number bound, or too deep a nesting
    except (ValueError, ValidationError, RecursionError) as err:
        raise ConfigError(f"{path}: {err}") from err
    return parse_config(data, source=str(path))


def builtin_config() -> SystemConfig:
    """The reference test system: one CPU and one GPU partition, energy model."""
    cpu_partition = Partition("cpu", tables.reference_cpu_node(), node_count=1000)
    gpu_partition = Partition("gpu", tables.reference_gpu_node(), node_count=250)
    return SystemConfig(partitions=(cpu_partition, gpu_partition))


def _row_int(raw: str, column: str, minimum: int) -> int:
    try:  # int() strips whitespace and reads 1_0 and non-ASCII digits
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{column}: not an integer: {raw.strip()!r}") from None
    if value < minimum:
        raise ValidationError(f"{column}: must be >= {minimum}, got {value}")
    return value


def _row_real(raw: str, column: str) -> Fraction:
    raw = raw.strip()
    try:
        value = parse_real(raw)
    except ValidationError as err:
        raise ValidationError(f"{column}: {err}") from None
    if value.numerator < 0:
        raise ValidationError(f"{column}: must be nonnegative, got {raw}")
    return value


def _csv_rows(path: str | Path, columns: Sequence[str], kind: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Each non-blank row after the header of `path` as (line, its cells in `columns` order).

    `line` is the physical line where the row starts. Reads as
    `csv.DictReader` would: blank lines are skipped, a short row reads as
    blank cells and cells past the header are ignored. A file that cannot
    be opened or is not UTF-8, or a row the csv module refuses, is a
    ConfigError naming the file (and line).
    """
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as err:
        raise ConfigError(f"cannot read {kind} {path}: {err}") from err
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None) or ()
            index = {name: position for position, name in enumerate(header)}
            missing = set(columns) - set(index)
            if missing:
                raise ConfigError(f"{path}: {kind} missing columns: {', '.join(sorted(missing))}")
            positions = [index[column] for column in columns]
            width = max(positions) + 1
            cells = itemgetter(*positions)
            line = reader.line_num + 1  # where the next row starts
            for row in reader:
                if row:
                    if len(row) < width:
                        row += [""] * (width - len(row))
                    yield line, cells(row)
                line = reader.line_num + 1
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}:{_undecodable_line(path)}: not UTF-8 text: {err.reason}") from None
        except csv.Error as err:
            raise ConfigError(f"{path}:{reader.line_num}: {err}") from None


def _undecodable_line(path: str | Path) -> int:
    """Number of the first line of `path` that is not UTF-8 (0 when every line is)."""
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return number
    return 0


def _load_details(path: str | Path) -> dict[str, list[tuple[int, int | str, NodeUsage | None]]]:
    """Each job id's detail rows in file order ("" for a blank id): `(line, node_index,
    usage)`, or `(line, message, None)` for a row whose cells do not parse."""
    details: dict[str, list[tuple[int, int | str, NodeUsage | None]]] = {}
    for line, (job_id, index, cores, gpus, memory) in _csv_rows(path, DETAIL_CSV_COLUMNS, "details file"):
        try:
            index = _row_int(index, "node_index", 0)
            usage = NodeUsage(_row_int(cores, "cores", 0), _row_int(gpus, "gpus", 0), _row_real(memory, "mem_gib"))
        except ValidationError as err:
            index, usage = str(err), None
        details.setdefault(job_id.strip(), []).append((line, index, usage))
    return details


def _parse_job_row(
    job_id: str,
    cells: tuple[str, ...],
    config: SystemConfig,
    detail_rows: Sequence[tuple[int, int | str, NodeUsage | None]],
) -> JobRecord:
    """Build and charge one jobs row; `job_id` is its first cell, stripped."""
    _, project, partition, nodes, cores, gpus, memory, elapsed = cells
    if not job_id:
        raise ValidationError("job_id: must be non-empty")
    per_node: dict[int, NodeUsage] = {}
    for line, index, usage in detail_rows:  # the first bad or repeated row fails the job
        if usage is None:
            raise ValidationError(f"detail line {line}: {index}")
        if index in per_node:
            raise ValidationError(f"detail line {line}: duplicate node_index {index}")
        per_node[index] = usage
    project = project.strip()
    if not project:
        raise ValidationError("project: must be non-empty")
    partition = config.partition(partition.strip())
    nodes = _row_int(nodes, "nodes", 1)
    elapsed = _row_real(elapsed, "elapsed_hours")
    if per_node:
        # distinct indices >= 0, so these two cover 0..nodes-1 exactly
        if len(per_node) != nodes or max(per_node) >= nodes:
            raise ValidationError(
                f"detail rows for job {job_id!r} must cover node_index 0..{nodes - 1} exactly"
            )
        job = JobRequest(partition, tuple([per_node[i] for i in range(nodes)]), elapsed)
    else:
        usage = NodeUsage(
            cores_used=_row_int(cores, "cores_per_node", 0),
            gpus_used=_row_int(gpus, "gpus_per_node", 0),
            memory_used_gib=_row_real(memory, "mem_gib_per_node"),
        )
        job = JobRequest.uniform(partition, nodes, usage, elapsed)
    # Pricing checks every capacity: a row that does not fit raises here.
    total_su = Fraction(*partition.model.total(job))
    return JobRecord(job_id, project, partition.name, job.per_node_usage, elapsed, total_su)


def iter_jobs(
    path: str | Path, config: SystemConfig, details_path: str | Path | None = None
) -> Iterator[JobRecord | RowError]:
    """Stream a jobs CSV: each row in file order as a record or a row error.

    A row that repeats the job_id of a charged row is a duplicate and is
    not parsed; a job_id whose earlier rows were all rejected may still be
    charged. A job's detail rows replace its uniform usage, and the first
    of them that does not parse or repeats a node_index rejects the row.
    After the last jobs row come the detail rows that belong to no jobs
    row (blank job_id, or a job_id no jobs row names, whether that row was
    charged or rejected), as `DetailRowError`s in detail-file order.
    """
    details = {} if details_path is None else _load_details(details_path)
    charged_ids: set[str] = set()
    rejected_ids: set[str] = set()
    for line, cells in _csv_rows(path, JOBS_CSV_COLUMNS, "jobs file"):
        job_id = cells[0].strip()
        if job_id in charged_ids:
            yield RowError(line, f"duplicate job_id {job_id!r}")
            continue
        try:
            record = _parse_job_row(job_id, cells, config, details.get(job_id, ()))
        except (ValidationError, CapacityError) as err:
            rejected_ids.add(job_id)
            yield RowError(line, str(err))
        else:
            details.pop(job_id, None)  # a charged job's detail rows are done with
            charged_ids.add(job_id)
            yield record
    # what is left belongs to a blank job_id, to rejected rows, or to no row
    left = ((job_id, rows) for job_id, rows in details.items() if not job_id or job_id not in rejected_ids)
    for line, job_id in sorted((row[0], job_id) for job_id, rows in left for row in rows):
        message = f"job_id {job_id!r} matches no jobs row" if job_id else "job_id: must be non-empty"
        yield DetailRowError(line, message)


def ingest_jobs(
    path: str | Path, config: SystemConfig, details_path: str | Path | None = None
) -> IngestResult:
    """Read a jobs CSV; malformed rows become row errors, never silent drops."""
    tally = RowTally()
    records = tuple(tally.records(iter_jobs(path, config, details_path)))
    return IngestResult(
        records=records, errors=tuple(tally.errors), total_rows=tally.total_rows, orphans=tuple(tally.orphans)
    )


def charge_record(record: JobRecord, config: SystemConfig) -> ChargeReport:
    """Charge one job record again, under its partition's model in `config`."""
    partition = config.partition(record.partition)
    return job_cost(JobRequest(partition, record.node_usages, record.elapsed_hours))


def aggregate(records: Iterable[JobRecord], config: SystemConfig) -> dict[str, ProjectUsage]:
    """Per-project totals with per-partition subtotals, summed exactly.

    Sums the charge each record carries from ingestion; `config` is not read.
    Each sum is an integer numerator over a running denominator, built as
    one Fraction at the end.
    """
    sums: dict[str, dict[str, tuple[int, int]]] = {}
    for record in records:
        su, per_partition = record.total_su, sums.setdefault(record.project, {})
        running = per_partition.get(record.partition, (0, 1))
        per_partition[record.partition] = add_ratios(running, (su.numerator, su.denominator))
    return {
        project: ProjectUsage(
            total_su=Fraction(*reduce(add_ratios, parts.values())),
            by_partition={partition: Fraction(*parts[partition]) for partition in sorted(parts)},
        )
        for project, parts in sorted(sums.items())
    }
