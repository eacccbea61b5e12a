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
import sys
from fractions import Fraction
from functools import reduce
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .config import SystemConfig, _undecodable_line, load_config, parse_config  # noqa: F401  (re-exported)
from .core import (
    ChargeReport, JobRequest, NodeUsage, Value, _check_requested, _check_span, _parse_ratio, _require, add_ratios,
    exact, job_cost,
)
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

# A charged jobs row: its job_id, project, partition name, the cells of the usages its job is priced by
# (see `ChargeModel.cell_share`), their repeat count, and its hours and charge as (numerator, denominator) pairs.
_PricedRow = tuple[str, str, str, Sequence[tuple], int, tuple[int, int], tuple[int, int]]


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

    `items` are what `iter_jobs` yields; anything else is refused."""

    def __init__(self, items: Iterable[JobRecord | RowError]) -> None:
        self._tally(items, None)

    @classmethod
    def _of_priced_rows(cls, items: Iterable[_PricedRow | RowError]) -> Ledger:
        """The ledger of what `_priced_rows` yields, each priced row counted as the record it would make."""
        ledger = cls.__new__(cls)
        ledger._tally(items, tuple)
        return ledger

    def _tally(self, items: Iterable, priced_row: type | None) -> None:
        """Sum `items`, reading each item of exactly the type `priced_row` as a priced row."""
        self.charged = 0
        self.errors: list[RowError] = []
        self.orphans: list[DetailRowError] = []
        self._sums: dict[str, dict[str, tuple[int, int]]] = {}
        try:
            items = iter(items)
        except TypeError:
            raise ValidationError(f"items must be an iterable, got {type(items).__name__}") from None
        for item in items:
            if type(item) is priced_row:
                _, project, partition, _, _, _, total = item
            elif isinstance(item, JobRecord):
                _require(item.project, str, "a record's project")
                _require(item.partition, str, "a record's partition")
                project, partition, total = item.project, item.partition, exact(item.total_su).as_integer_ratio()
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


def _row_ratio(raw: str, column: str) -> tuple[int, int]:
    raw = raw.strip()
    try:
        value = _parse_ratio(raw)
    except ValidationError as err:
        raise ValidationError(f"{column}: {err}") from None
    if value[0] < 0:
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
    if not isinstance(path, (str, os.PathLike)):  # open() reads an int as a file descriptor, and closes it
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


# The index entry of a charged job, which no detail row number equals.
_CHARGED = -2


class _Details:
    """The pass's one index of job ids, and the detail file (if any) held as parallel
    columns, one entry per row in file order: its line less its row number (a shared small
    int while rows are one line each), its node_index (or the message of a row whose cells
    do not parse), cores, GPUs and memory (a reduced pair), and the row before it with the
    same job id (-1 for none). `last` maps each job id ("" for a blank one) to its last detail
    row, or to `_CHARGED` once the job is charged, so it holds each id once. A row is checked
    and its usage cells put together only when its job is priced, so a row costs five list
    slots and an 8-byte link rather than objects of its own. `path` None reads as no rows.

    Each distinct count or memory cell text is parsed once, and equal cells share one
    value; a cell that does not parse is refused again on every row that holds it.
    """

    __slots__ = ("offsets", "indices", "cores", "gpus", "memory", "previous", "last")

    def __init__(self, path: str | Path | None) -> None:
        offsets: list[int] = []
        # 8-byte ints read through a memoryview: as compact as an `array`, whose extension
        # module a run without a detail file would then load too
        links = bytearray()
        indices: list[int | str] = []
        cores: list[int | None] = []
        gpus: list[int | None] = []
        memory: list[tuple[int, int] | None] = []
        last: dict[str, int] = {}
        counts: dict[str, int] = {}  # every count column has minimum 0, so a cell reads alike in each
        memory_cells: dict[str, tuple[int, int]] = {}
        rows = () if path is None else _csv_rows(path, DETAIL_CSV_COLUMNS, "details file")
        for row, (line, (job_id, index_cell, cores_cell, gpus_cell, memory_cell)) in enumerate(rows):
            index, core_count, gpu_count = counts.get(index_cell), counts.get(cores_cell), counts.get(gpus_cell)
            memory_gib = memory_cells.get(memory_cell)
            if index is None or core_count is None or gpu_count is None or memory_gib is None:
                try:  # in column order, so the first cell that does not parse names the row's fault
                    if index is None:
                        index = counts[index_cell] = _row_int(index_cell, "node_index", 0)
                    if core_count is None:
                        core_count = counts[cores_cell] = _row_int(cores_cell, "cores", 0)
                    if gpu_count is None:
                        gpu_count = counts[gpus_cell] = _row_int(gpus_cell, "gpus", 0)
                    if memory_gib is None:
                        memory_gib = memory_cells[memory_cell] = _row_ratio(memory_cell, "mem_gib")
                except ValidationError as err:
                    index, core_count, gpu_count, memory_gib = str(err), None, None, None
            offsets.append(line - row)
            indices.append(index)
            cores.append(core_count)
            gpus.append(gpu_count)
            memory.append(memory_gib)
            job_id = job_id.strip()
            links += last.get(job_id, -1).to_bytes(8, sys.byteorder, signed=True)
            last[job_id] = row
        self.offsets, self.indices, self.cores, self.gpus, self.memory = offsets, indices, cores, gpus, memory
        self.previous, self.last = memoryview(links).cast("q"), last

    def _rows(self, row: int) -> list[int]:
        """The rows of the job whose last row is `row`, last first."""
        rows, previous = [row], self.previous
        while (row := previous[row]) >= 0:
            rows.append(row)
        return rows

    def per_node(self, row: int | None) -> dict[int, tuple]:
        """Each node's usage cells of the job whose last detail row is `row` (None for a job
        with none) by node_index, in file order: the first of its rows that does not parse,
        that requests nothing or that repeats a node_index fails the job."""
        if row is None:
            return {}
        per_node: dict[int, tuple] = {}
        offsets, indices, cores, gpus, memory = self.offsets, self.indices, self.cores, self.gpus, self.memory
        for row in reversed(self._rows(row)):
            index = indices[row]
            if type(index) is str:
                raise ValidationError(f"detail line {row + offsets[row]}: {index}")
            core_count, gpu_count, (memory_num, memory_den) = cores[row], gpus[row], memory[row]
            try:
                _check_requested(core_count, gpu_count, memory_num, ())
            except ValidationError as err:
                raise ValidationError(f"detail line {row + offsets[row]}: {err}") from None
            if index in per_node:
                raise ValidationError(f"detail line {row + offsets[row]}: duplicate node_index {index}")
            per_node[index] = core_count, gpu_count, memory_num, memory_den, ()
        return per_node

    def orphans(self, rejected_ids: set[str]) -> Iterator[DetailRowError]:
        """The rows left, in file order, that belong to a blank job_id or to no jobs row."""
        left = [
            (row + self.offsets[row], job_id)
            for job_id, last in self.last.items()
            if last != _CHARGED and (not job_id or job_id not in rejected_ids)
            for row in self._rows(last)
        ]
        for line, job_id in sorted(left):
            message = f"job_id {job_id!r} matches no jobs row" if job_id else "job_id: must be non-empty"
            yield DetailRowError(line, message)


def _parse_job_row(
    job_id: str, cells: tuple[str, ...], config: SystemConfig, details: _Details, row: int | None
) -> _PricedRow:
    """Read and price one jobs row, whose first cell, stripped, is `job_id` and whose last
    detail row is `row`, running the checks of a `JobRequest` in their order, but building none."""
    _, project, partition, nodes, cores, gpus, memory, elapsed = cells
    if not job_id:
        raise ValidationError("job_id: must be non-empty")
    per_node = details.per_node(row)
    project = project.strip()
    if not project:
        raise ValidationError("project: must be non-empty")
    partition = config.partition(partition.strip())
    nodes = _row_int(nodes, "nodes", 1)
    hours = _row_ratio(elapsed, "elapsed_hours")
    if per_node:
        # distinct indices >= 0, so these two cover 0..nodes-1 exactly
        if len(per_node) != nodes or max(per_node) >= nodes:
            raise ValidationError(
                f"detail rows for job {job_id!r} must cover node_index 0..{nodes - 1} exactly"
            )
        usages, repeat = [per_node[i] for i in range(nodes)], 1
    else:
        cores, gpus = _row_int(cores, "cores_per_node", 0), _row_int(gpus, "gpus_per_node", 0)
        memory_num, memory_den = _row_ratio(memory, "mem_gib_per_node")
        _check_requested(cores, gpus, memory_num, ())
        usages, repeat = [(cores, gpus, memory_num, memory_den, ())], nodes
    _check_span(partition, nodes)
    # Pricing checks every capacity: a row that does not fit raises here.
    total = partition.model._priced(partition, usages, repeat, hours)[0]
    return job_id, project, partition.name, usages, repeat, hours, total


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
            job_id, project, partition, cells, repeat, hours, total = item
            usages = tuple([NodeUsage(c, g, Fraction(num, den), extras) for c, g, num, den, extras in cells])
            yield JobRecord(job_id, project, partition, usages * repeat, Fraction(*hours), Fraction(*total))


def _priced_rows(
    path: str | Path, config: SystemConfig, details_path: str | Path | None
) -> Iterator[_PricedRow | RowError]:
    """What `iter_jobs` yields, in its order, with each record as the priced row it is made from."""
    _require(config, SystemConfig, "config")
    details = _Details(details_path)
    index = details.last
    rejected_ids: set[str] = set()
    for line, cells in _csv_rows(path, JOBS_CSV_COLUMNS, "jobs file"):
        job_id = cells[0].strip()
        row = index.get(job_id)
        if row == _CHARGED:
            yield RowError(line, f"duplicate job_id {job_id!r}")
            continue
        try:
            priced = _parse_job_row(job_id, cells, config, details, row)
        except (ValidationError, CapacityError) as err:
            rejected_ids.add(job_id)
            yield RowError(line, str(err))
        else:
            index[job_id] = _CHARGED  # a charged job's detail rows are done with
            yield priced
    yield from details.orphans(rejected_ids)


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
