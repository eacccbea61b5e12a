"""Job-record I/O: charging jobs CSVs against a system configuration.

Job accounting logs are CSVs with one uniform-usage row per job, optionally
joined with a per-node detail file for heterogeneous jobs. Ingestion
streams: `iter_jobs` yields one jobs row at a time, and never drops a row
silently. Every jobs row ends up either as a record or as a row error,
and every detail row that belongs to no jobs row as a detail row error.
The JSON configuration is read by `sumeter.config`; `load_config`,
`parse_config` and `SystemConfig` are also reachable from here.
"""

from __future__ import annotations

import csv
import math
import os
from fractions import Fraction
from functools import reduce
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .config import SystemConfig, _undecodable_line, load_config, parse_config  # noqa: F401  (re-exported)
from .core import ChargeReport, JobRequest, NodeUsage, Value, _require, add_ratios, job_cost, parse_real
from .errors import CapacityError, ConfigError, ValidationError

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

# A charged jobs row: its job_id, project, partition name, job and (numerator, denominator) charge.
_PricedRow = tuple[str, str, str, JobRequest, tuple[int, int]]


class JobRecord(Value):
    """One accounted job: who ran it, where, with what, for how long, and its charge."""

    __slots__ = _fields = ("job_id", "project", "partition", "node_usages", "elapsed_hours", "total_su")


class RowError(Value):
    __slots__ = _fields = ("line", "message")


class DetailRowError(RowError):
    """A detail-file row that belongs to no jobs-file row; `line` is in the detail file."""

    __slots__ = ()


class IngestResult(Value):
    """Records and errors of the jobs rows (`total_rows` counts both), plus orphan detail rows."""

    __slots__ = _fields = ("records", "errors", "total_rows", "orphans")


class ProjectUsage(Value):
    __slots__ = _fields = ("total_su", "by_partition")


class Ledger:
    """The outcome of one ingest pass, read once: the charged count, the `RowError`s, the
    orphan `DetailRowError`s and each project's charge per partition, kept as an integer
    numerator over a running denominator until it is read. It keeps no record.

    `items` are what `iter_jobs` yields; a priced row of `_priced_rows` counts as the
    record it would make."""

    def __init__(self, items: Iterable[JobRecord | RowError | _PricedRow]) -> None:
        self.charged = 0
        self.errors: list[RowError] = []
        self.orphans: list[DetailRowError] = []
        self._sums: dict[str, dict[str, tuple[int, int]]] = {}
        try:
            items = iter(items)
        except TypeError:
            raise ValidationError(f"items must be an iterable, got {type(items).__name__}") from None
        for item in items:
            if type(item) is tuple:
                _, project, partition, _, total = item
            elif isinstance(item, JobRecord):
                project, partition, total = item.project, item.partition, item.total_su.as_integer_ratio()
            elif isinstance(item, RowError):
                (self.orphans if isinstance(item, DetailRowError) else self.errors).append(item)
                continue
            else:
                raise ValidationError(f"each item must be a JobRecord or a RowError, got {type(item).__name__}")
            self.charged += 1
            per_partition = self._sums.setdefault(project, {})
            per_partition[partition] = add_ratios(per_partition.get(partition, (0, 1)), total)

    @property
    def total_rows(self) -> int:
        return self.charged + len(self.errors)

    def _reduced_sums(self) -> Iterator[tuple[str, list[tuple[str, tuple[int, int]]], tuple[int, int]]]:
        """Each project, its partitions' subtotals and its total, projects and partitions sorted;
        each amount a reduced (numerator, denominator)."""
        for project, parts in sorted(self._sums.items()):
            subtotals = [(partition, _reduced(parts[partition])) for partition in sorted(parts)]
            yield project, subtotals, _reduced(reduce(add_ratios, parts.values()))

    def usage(self) -> dict[str, ProjectUsage]:
        """Per-project totals with per-partition subtotals, projects and partitions sorted."""
        return {
            project: ProjectUsage(
                total_su=Fraction(*total), by_partition={partition: Fraction(*su) for partition, su in subtotals}
            )
            for project, subtotals, total in self._reduced_sums()
        }


def _reduced(ratio: tuple[int, int]) -> tuple[int, int]:
    numerator, denominator = ratio
    common = math.gcd(numerator, denominator)
    return numerator // common, denominator // common


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


def _row_usage(
    cores: str, gpus: str, memory: str, columns: tuple[str, str, str], memory_cells: dict[str, Fraction]
) -> NodeUsage:
    """The usage a row's cores, GPUs and memory cells give; `columns` names the three cells.

    `memory_cells` maps each memory cell text read so far to its value: a cell
    met again is not parsed again, and one that does not parse is not kept.
    """
    cores_column, gpus_column, memory_column = columns
    cores_used, gpus_used = _row_int(cores, cores_column, 0), _row_int(gpus, gpus_column, 0)
    memory_gib = memory_cells.get(memory)
    if memory_gib is None:
        memory_gib = memory_cells[memory] = _row_real(memory, memory_column)
    return NodeUsage(cores_used, gpus_used, memory_gib)


def _csv_rows(path: str | Path, columns: Sequence[str], kind: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """Each non-blank row after the header of `path` as (line, its cells in `columns` order).

    `line` is the physical line where the row starts. Reads as
    `csv.DictReader` would: blank lines are skipped, a short row reads as
    blank cells and cells past the header are ignored. A file that cannot
    be opened or is not UTF-8, or a row the csv module refuses, is a
    ConfigError naming the file (and line).
    """
    if not isinstance(path, (str, bytes, os.PathLike)):  # open() reads an int as a file descriptor, and closes it
        raise ValidationError(f"{kind} path must be a str or a PathLike, got {type(path).__name__}")
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


def _load_details(path: str | Path) -> dict[str, list[tuple[int, int | str, NodeUsage | None]]]:
    """Each job id's detail rows in file order ("" for a blank id): `(line, node_index,
    usage)`, or `(line, message, None)` for a row whose cells do not parse. Each distinct
    memory cell is parsed once, and equal cells share one value."""
    details: dict[str, list[tuple[int, int | str, NodeUsage | None]]] = {}
    memory_cells: dict[str, Fraction] = {}
    for line, (job_id, index, cores, gpus, memory) in _csv_rows(path, DETAIL_CSV_COLUMNS, "details file"):
        try:
            index = _row_int(index, "node_index", 0)
            usage = _row_usage(cores, gpus, memory, ("cores", "gpus", "mem_gib"), memory_cells)
        except ValidationError as err:
            index, usage = str(err), None
        details.setdefault(job_id.strip(), []).append((line, index, usage))
    return details


def _parse_job_row(
    job_id: str,
    cells: tuple[str, ...],
    config: SystemConfig,
    detail_rows: Sequence[tuple[int, int | str, NodeUsage | None]],
) -> tuple[str, str, JobRequest, tuple[int, int]]:
    """Build and price one jobs row, whose first cell, stripped, is `job_id`: its project,
    partition name, job and the (numerator, denominator) charge `model.total` gives."""
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
        # a jobs row is read once and let go, so its memory cell is not kept
        usage = _row_usage(cores, gpus, memory, ("cores_per_node", "gpus_per_node", "mem_gib_per_node"), {})
        job = JobRequest.uniform(partition, nodes, usage, elapsed)
    # Pricing checks every capacity: a row that does not fit raises here.
    return project, partition.name, job, partition.model.total(job)


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
    for item in _priced_rows(path, config, details_path):
        if isinstance(item, RowError):
            yield item
        else:
            job_id, project, partition, job, total = item
            yield JobRecord(job_id, project, partition, job.per_node_usage, job.walltime_hours, Fraction(*total))


def _priced_rows(
    path: str | Path, config: SystemConfig, details_path: str | Path | None
) -> Iterator[_PricedRow | RowError]:
    """What `iter_jobs` yields, in its order, with each record as the priced row it is made from."""
    _require(config, SystemConfig, "config")
    details = {} if details_path is None else _load_details(details_path)
    charged_ids: set[str] = set()
    rejected_ids: set[str] = set()
    for line, cells in _csv_rows(path, JOBS_CSV_COLUMNS, "jobs file"):
        job_id = cells[0].strip()
        if job_id in charged_ids:
            yield RowError(line, f"duplicate job_id {job_id!r}")
            continue
        try:
            priced = _parse_job_row(job_id, cells, config, details.get(job_id, ()))
        except (ValidationError, CapacityError) as err:
            rejected_ids.add(job_id)
            yield RowError(line, str(err))
        else:
            details.pop(job_id, None)  # a charged job's detail rows are done with
            charged_ids.add(job_id)
            yield (job_id, *priced)
    # what is left belongs to a blank job_id, to rejected rows, or to no row
    left = ((job_id, rows) for job_id, rows in details.items() if not job_id or job_id not in rejected_ids)
    for line, job_id in sorted((row[0], job_id) for job_id, rows in left for row in rows):
        message = f"job_id {job_id!r} matches no jobs row" if job_id else "job_id: must be non-empty"
        yield DetailRowError(line, message)


def ingest_jobs(
    path: str | Path, config: SystemConfig, details_path: str | Path | None = None
) -> IngestResult:
    """Read a jobs CSV; malformed rows become row errors, never silent drops."""
    items = tuple(iter_jobs(path, config, details_path))
    ledger = Ledger(items)
    records = tuple(item for item in items if isinstance(item, JobRecord))
    return IngestResult(records, tuple(ledger.errors), ledger.total_rows, tuple(ledger.orphans))


def charge_record(record: JobRecord, config: SystemConfig) -> ChargeReport:
    """Charge one job record again, under its partition's model in `config`."""
    _require(record, JobRecord, "record")
    _require(config, SystemConfig, "config")
    partition = config.partition(record.partition)
    return job_cost(JobRequest(partition, record.node_usages, record.elapsed_hours))


def aggregate(records: Iterable[JobRecord], config: SystemConfig) -> dict[str, ProjectUsage]:
    """Per-project sums of the charge each record carries, as a `Ledger` adds them; `config` is not read."""
    return Ledger(records).usage()
