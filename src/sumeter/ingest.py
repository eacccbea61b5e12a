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
from functools import cached_property
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
    ProcessorSpec,
    Value,
    job_cost,
    parse_real,
    set_field,
)
from .display import as_float, format_real
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

    _fields = ("partitions",)  # no __slots__: `_by_name` is cached in the instance __dict__

    def __init__(self, partitions: tuple[Partition, ...]) -> None:
        self._init(partitions)

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

    def __init__(self, line: int, message: str) -> None:
        self._init(line, message)


class DetailRowError(RowError):
    """A detail-file row that belongs to no jobs-file row; `line` is in the detail file."""


class IngestResult(Value):
    """Records and errors of the jobs rows (`total_rows` counts both), plus orphan detail rows."""

    __slots__ = _fields = ("records", "errors", "total_rows", "orphans")

    def __init__(
        self,
        records: tuple[JobRecord, ...],
        errors: tuple[RowError, ...],
        total_rows: int,
        orphans: tuple[DetailRowError, ...] = (),
    ) -> None:
        self._init(records, errors, total_rows, orphans)


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

    def __init__(self, total_su: Fraction, by_partition: dict[str, Fraction] | None = None) -> None:
        self._init(total_su, {} if by_partition is None else by_partition)


class _FloatText(Fraction):
    """Config float text, read exactly by `parse_real`. Its repr, which errors
    quote at any depth of a value, is the float the text spells."""

    __slots__ = ()

    def __repr__(self) -> str:
        number = as_float(self)
        return format_real(self) if number is None else repr(number)


def _decimal(raw, path: str, errors: list[str]) -> Fraction:
    """Parse a JSON number decimally (0.1 becomes exactly 1/10)."""
    if isinstance(raw, Fraction):  # float text, already read exactly by `load_config`
        return Fraction(raw)
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        errors.append(f"{path}: expected a number, got {raw!r}")
        return Fraction(1)
    if isinstance(raw, float) and not math.isfinite(raw):  # ints are finite, and may be beyond any float
        errors.append(f"{path}: expected a finite number")
        return Fraction(1)
    return Fraction(str(raw))


def _integer(raw, path: str, errors: list[str]) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        errors.append(f"{path}: expected an integer, got {raw!r}")
        return 1
    return raw


def _text(raw, path: str, errors: list[str]) -> str:
    if not isinstance(raw, str) or not raw:
        errors.append(f"{path}: expected a non-empty string, got {raw!r}")
        return "?"
    return raw


def _list(raw, path: str, errors: list[str]) -> list:
    if not raw:
        return []
    if not isinstance(raw, list):
        errors.append(f"{path}: expected a list, got {raw!r}")
        return []
    return raw


def _processor(entry, kind: str, path: str, errors: list[str]) -> tuple[ProcessorSpec | None, int]:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None, 0
    before = len(errors)
    name = _text(entry.get("name"), f"{path}.name", errors)
    tdp = _decimal(entry.get("tdp_watts"), f"{path}.tdp_watts", errors)
    flops = _decimal(entry.get("peak_flops"), f"{path}.peak_flops", errors)
    count = _integer(entry.get("count", 1), f"{path}.count", errors)
    if not 1 <= count <= MAX_PROCESSOR_COUNT:
        errors.append(f"{path}.count: must be between 1 and {MAX_PROCESSOR_COUNT}, got {count}")
    try:
        if kind == "cpu":
            cores = _integer(entry.get("cores"), f"{path}.cores", errors)
            if len(errors) > before:
                return None, 0
            return ProcessorSpec.cpu(name, cores, tdp, flops), count
        sms = _integer(entry.get("streaming_multiprocessors"), f"{path}.streaming_multiprocessors", errors)
        if len(errors) > before:
            return None, 0
        return ProcessorSpec.gpu(name, sms, tdp, flops), count
    except ValidationError as err:
        errors.append(f"{path}: {err}")
        return None, 0


def _node_type(entry, path: str, errors: list[str]) -> NodeType | None:
    if not isinstance(entry, dict):
        errors.append(f"{path}: expected an object")
        return None
    before = len(errors)
    name = _text(entry.get("name"), f"{path}.name", errors)
    memory = _decimal(entry.get("memory_total_gib"), f"{path}.memory_total_gib", errors)
    cpus: list[ProcessorSpec] = []
    for i, cpu_entry in enumerate(_list(entry.get("cpus"), f"{path}.cpus", errors)):
        spec, count = _processor(cpu_entry, "cpu", f"{path}.cpus[{i}]", errors)
        if spec is not None:
            cpus.extend([spec] * count)
    gpus: list[ProcessorSpec] = []
    for i, gpu_entry in enumerate(_list(entry.get("gpus"), f"{path}.gpus", errors)):
        spec, count = _processor(gpu_entry, "gpu", f"{path}.gpus[{i}]", errors)
        if spec is not None:
            gpus.extend([spec] * count)
    extras = {}
    raw_extras = entry.get("extra_resources") or {}
    if not isinstance(raw_extras, dict):
        errors.append(f"{path}.extra_resources: expected an object of name -> capacity")
        raw_extras = {}
    for resource, capacity in raw_extras.items():
        extras[resource] = _decimal(capacity, f"{path}.extra_resources.{resource}", errors)
    if len(errors) > before:
        return None
    try:
        return NodeType(name, cpus=tuple(cpus), memory_total_gib=memory, gpus=tuple(gpus), extra_resources=extras)
    except ValidationError as err:
        errors.append(f"{path}: {err}")
        return None


def _model_from_entry(model_id: str, parameters, path: str, errors: list[str]) -> ChargeModel | None:
    if model_id not in MODEL_IDS:
        errors.append(f"{path}.model: unknown model {model_id!r} (known: {', '.join(MODEL_IDS)})")
        return None
    parameters = parameters or {}
    if not isinstance(parameters, dict):
        errors.append(f"{path}.model_parameters: expected an object")
        return None
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
    raw_rates = parameters.get("rates", {})
    if not isinstance(raw_rates, dict):
        errors.append(f"{path}.rates: expected an object of rate name -> number")
        raw_rates = {}
    rates = {}
    for name, value in raw_rates.items():
        if name in _PUHTI_RATE_NAMES:
            rates[name] = _decimal(value, f"{path}.rates.{name}", errors)
        else:
            errors.append(f"{path}.rates.{name}: unknown rate (known: {', '.join(_PUHTI_RATE_NAMES)})")
    nvme_resource = _text(parameters.get("nvme_resource", "nvme_gib"), f"{path}.nvme_resource", errors)
    if len(errors) > before:
        return None
    try:
        return PuhtiModel(rates=PuhtiRates(**rates), nvme_resource=nvme_resource)
    except ValidationError as err:
        errors.append(f"{path}: {err}")
        return None


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
        local: list[str] = []
        if not isinstance(entry, dict):
            errors.append(f"{path}: expected an object")
            continue
        name = _text(entry.get("name"), f"{path}.name", local)
        if name in seen_names:
            local.append(f"{path}.name: duplicate partition {name!r}")
        model_id = _text(entry.get("model", "energy"), f"{path}.model", local)
        node_count = _integer(entry.get("node_count", 1), f"{path}.node_count", local)
        node = _node_type(entry.get("node"), f"{path}.node", local)
        model = None
        if node is not None:
            model = _model_from_entry(model_id, entry.get("model_parameters"), path, local)
        if local or node is None or model is None:
            errors.extend(local)
            continue
        try:
            partitions.append(Partition(name, node, node_count, model=model))
        except AccountingError as err:
            errors.append(f"{path}: {err}")
            continue
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
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}:{_undecodable_line(path)}: not UTF-8 text: {err.reason}") from None
    try:
        data = json.loads(text, parse_float=lambda number: _FloatText(parse_real(number)))
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
    raw = raw.strip()
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{column}: not an integer: {raw!r}") from None
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


def _csv_rows(
    handle, path: str | Path, columns: Sequence[str], kind: str
) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Each non-blank row after the header as (line, its cells in `columns` order).

    `line` is the physical line where the row starts. Reads as
    `csv.DictReader` would: blank lines are skipped, a short row reads as
    blank cells and cells past the header are ignored. A file that is not
    UTF-8, or a row the csv module refuses, is a ConfigError naming the
    file and line.
    """
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


def _load_details(
    path: str | Path,
) -> tuple[dict[str, dict[int, NodeUsage]], dict[str, str], dict[str, list[int]]]:
    """Per-node usage keyed by job id, per-job parse failures, and each job id's lines ("" for blank)."""
    details: dict[str, dict[int, NodeUsage]] = {}
    poisoned: dict[str, str] = {}
    lines: dict[str, list[int]] = {}
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read details file {path}: {err}") from err
    with handle:
        for line, (job_id, index, cores, gpus, memory) in _csv_rows(handle, path, DETAIL_CSV_COLUMNS, "detail file"):
            job_id = job_id.strip()
            lines.setdefault(job_id, []).append(line)
            if not job_id:
                continue
            try:
                index = _row_int(index, "node_index", 0)
                usage = NodeUsage(
                    cores_used=_row_int(cores, "cores", 0),
                    gpus_used=_row_int(gpus, "gpus", 0),
                    memory_used_gib=_row_real(memory, "mem_gib"),
                )
            except ValidationError as err:
                poisoned.setdefault(job_id, f"detail line {line}: {err}")
                continue
            per_job = details.setdefault(job_id, {})
            if index in per_job:
                poisoned.setdefault(job_id, f"detail line {line}: duplicate node_index {index}")
            per_job[index] = usage
    return details, poisoned, lines


def _parse_job_row(
    job_id: str,
    cells: tuple[str, ...],
    config: SystemConfig,
    details: dict[str, dict[int, NodeUsage]],
    poisoned: dict[str, str],
) -> JobRecord:
    """Build and charge one jobs row; `job_id` is its first cell, stripped."""
    _, project, partition, nodes, cores, gpus, memory, elapsed = cells
    if not job_id:
        raise ValidationError("job_id: must be non-empty")
    if job_id in poisoned:
        raise ValidationError(poisoned[job_id])
    project = project.strip()
    if not project:
        raise ValidationError("project: must be non-empty")
    partition = config.partition(partition.strip())
    nodes = _row_int(nodes, "nodes", 1)
    elapsed = _row_real(elapsed, "elapsed_hours")
    if job_id in details:
        per_node = details[job_id]
        # distinct indices >= 0, so these two cover 0..nodes-1 exactly
        if len(per_node) != nodes or max(per_node) >= nodes:
            raise ValidationError(
                f"detail rows for job {job_id!r} must cover node_index 0..{nodes - 1} exactly"
            )
        job = JobRequest(partition, tuple(per_node[i] for i in range(nodes)), elapsed)
    else:
        usage = NodeUsage(
            cores_used=_row_int(cores, "cores_per_node", 0),
            gpus_used=_row_int(gpus, "gpus_per_node", 0),
            memory_used_gib=_row_real(memory, "mem_gib_per_node"),
        )
        job = JobRequest.uniform(partition, nodes, usage, elapsed)
    # Charging checks every capacity: a row that does not fit raises here.
    return JobRecord(
        job_id=job_id,
        project=project,
        partition=partition.name,
        node_usages=job.per_node_usage,
        elapsed_hours=elapsed,
        total_su=job_cost(job).total_su,
    )


def iter_jobs(
    path: str | Path, config: SystemConfig, details_path: str | Path | None = None
) -> Iterator[JobRecord | RowError]:
    """Stream a jobs CSV: each row in file order as a record or a row error.

    A row that repeats the job_id of a charged row is a duplicate and is
    not parsed; a job_id whose earlier rows were all rejected may still be
    charged. After the last jobs row come the detail rows that belong to
    no jobs row (blank job_id, or a job_id no jobs row names, whether that
    row was charged or rejected), as `DetailRowError`s in detail-file order.
    """
    details: dict[str, dict[int, NodeUsage]] = {}
    poisoned: dict[str, str] = {}
    detail_lines: dict[str, list[int]] = {}
    if details_path is not None:
        details, poisoned, detail_lines = _load_details(details_path)
    charged_ids: set[str] = set()
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read jobs file {path}: {err}") from err
    with handle:
        for line, cells in _csv_rows(handle, path, JOBS_CSV_COLUMNS, "jobs file"):
            job_id = cells[0].strip()
            if job_id:
                detail_lines.pop(job_id, None)
                if job_id in charged_ids:
                    yield RowError(line=line, message=f"duplicate job_id {job_id!r}")
                    continue
            try:
                record = _parse_job_row(job_id, cells, config, details, poisoned)
            except (ValidationError, CapacityError) as err:
                yield RowError(line=line, message=str(err))
            else:
                charged_ids.add(job_id)
                yield record
    for line, job_id in sorted((line, job_id) for job_id, lines in detail_lines.items() for line in lines):
        message = f"job_id {job_id!r} matches no jobs row" if job_id else "job_id: must be non-empty"
        yield DetailRowError(line=line, message=message)


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
    """
    subtotals: dict[str, dict[str, Fraction]] = {}
    for record in records:
        su = record.total_su
        per_partition = subtotals.setdefault(record.project, {})
        per_partition[record.partition] = per_partition.get(record.partition, Fraction(0)) + su
    return {
        project: ProjectUsage(
            total_su=sum(parts.values(), start=Fraction(0)),
            by_partition=dict(sorted(parts.items())),
        )
        for project, parts in sorted(subtotals.items())
    }
