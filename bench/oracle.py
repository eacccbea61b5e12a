"""Independent exact oracle for sumeter's outputs.

Prices jobs with `fractions.Fraction` from the rules the README states and
imports nothing from `sumeter`:

- a node is charged the largest fraction of any resource it requests, with
  memory rounded up to whole per-core shares;
- node-hour weights: core count on CPU nodes; GPU TDP / CPU TDP x cores
  (`energy`), total SMs (`sm`), GPU / CPU peak FLOPs x cores (`peak-perf`);
- `titan` charges whole nodes at cores + SMs, after the capacity check;
- `puhti` bills linearly per core, GiB, NVMe GiB and GPU.

Printed numbers are compared at display precision (relative 1e-5), not by
byte hash, so an exact-decimal output format passes as well.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

REL_TOL = Fraction(1, 100_000)
THRESHOLD_TOL = Fraction(51, 10_000)  # thresholds print with two decimals
TRACEBACK = "Traceback (most recent call last)"

_INT = re.compile(r"\s*[0-9]+\s*")
_DEC = re.compile(r"\s*[0-9]+(\.[0-9]+)?\s*")

PUHTI_RATES = {"core": Fraction(1), "memory_gib": Fraction(1, 10), "nvme_gib": Fraction(6, 1000), "gpu": Fraction(60)}

# Failures the benchmark attributes to a documented defect of the program.
# Each is still counted in `failed`; any other failure makes a run incorrect.
KNOWN_DEFECTS = {
    "orphan detail row not reported": (
        "ingest silently ignores detail rows whose job_id is blank or not in the jobs file "
        "(ROADMAP open item 4, 'Detail-file gaps')"
    ),
}

# Published application performance ratios (CPU nodes matching one GPU node).
APPLICATIONS = (
    ("FUN3D", 41), ("RTM", 32), ("SPECFEM3D", 105), ("AMBER", 153), ("GROMACS", 23),
    ("LAMMPS", 59), ("NAMD", 36), ("Relion", 12), ("GTC", 53), ("MILC", 108),
    ("Chroma", 99), ("Quantum Expresso", 13), ("ICON", 15),
)
REPORT_TABLES = {2: "sm", 3: "peak-perf", 4: "energy"}
CROSSOVER_MODELS = ("energy", "sm", "peak-perf")


class OverCapacity(Exception):
    pass


@dataclass(frozen=True)
class Node:
    cores: int
    gpus: int
    memory: Fraction
    sms: int
    cpu_tdp: Fraction
    gpu_tdp: Fraction
    cpu_flops: Fraction
    gpu_flops: Fraction
    extras: tuple[tuple[str, Fraction], ...]


@dataclass(frozen=True)
class Partition:
    name: str
    model: str
    node_count: int
    node: Node
    parameters: dict


@dataclass(frozen=True)
class Charge:
    total: Fraction
    weight: Fraction
    fractions: tuple[Fraction, ...]
    energy_wh: Fraction


def _node(entry: dict) -> Node:
    cpus = [(c, c.get("count", 1)) for c in entry["cpus"]]
    gpus = [(g, g.get("count", 1)) for g in entry.get("gpus") or []]
    return Node(
        cores=sum(c["cores"] * n for c, n in cpus),
        gpus=sum(n for _, n in gpus),
        memory=Fraction(entry["memory_total_gib"]),
        sms=sum(g["streaming_multiprocessors"] * n for g, n in gpus),
        cpu_tdp=sum((Fraction(c["tdp_watts"]) * n for c, n in cpus), Fraction(0)),
        gpu_tdp=sum((Fraction(g["tdp_watts"]) * n for g, n in gpus), Fraction(0)),
        cpu_flops=sum((Fraction(c["peak_flops"]) * n for c, n in cpus), Fraction(0)),
        gpu_flops=sum((Fraction(g["peak_flops"]) * n for g, n in gpus), Fraction(0)),
        extras=tuple(sorted((k, Fraction(v)) for k, v in (entry.get("extra_resources") or {}).items())),
    )


def load_system(path: Path) -> dict[str, Partition]:
    """Partitions of a config file, numbers read as exact decimals."""
    data = json.loads(Path(path).read_text(encoding="utf-8"), parse_float=Fraction)
    return {
        p["name"]: Partition(p["name"], p.get("model", "energy"), p.get("node_count", 1), _node(p["node"]), p.get("model_parameters") or {})
        for p in data["partitions"]
    }


def _puhti_rates(parameters: dict) -> dict[str, Fraction]:
    return {**PUHTI_RATES, **{k: Fraction(v) for k, v in (parameters.get("rates") or {}).items()}}


def weight(model: str, node: Node, parameters: dict | None = None) -> Fraction:
    """SU for one hour of one whole node under a model."""
    parameters = parameters or {}
    if model == "titan":
        return Fraction(node.cores + node.sms)
    if model == "puhti":
        rates = _puhti_rates(parameters)
        nvme = dict(node.extras).get(parameters.get("nvme_resource", "nvme_gib"), Fraction(0))
        return rates["core"] * node.cores + rates["memory_gib"] * node.memory + rates["nvme_gib"] * nvme + rates["gpu"] * node.gpus
    if node.gpus == 0:
        return Fraction(node.cores)
    if model == "energy":
        return node.gpu_tdp / node.cpu_tdp * node.cores
    if model == "sm":
        return Fraction(node.sms)
    if model == "peak-perf":
        return node.gpu_flops / node.cpu_flops * node.cores
    raise ValueError(f"unknown model {model!r}")


def node_share(node: Node, cores: int, gpus: int, memory: Fraction) -> Fraction:
    """Largest resource fraction on one node; memory in whole per-core shares."""
    if cores > node.cores or gpus > node.gpus or memory > node.memory:
        raise OverCapacity
    share = Fraction(cores, node.cores)
    if gpus:
        share = max(share, Fraction(gpus, node.gpus))
    if memory > 0:
        share = max(share, Fraction(math.ceil(memory * node.cores / node.memory), node.cores))
    return share


def charge(partition: Partition, usages, hours: Fraction, model: str | None = None) -> Charge:
    """Charge usages (cores, gpus, memory) per node; raises OverCapacity."""
    node = partition.node
    parameters = partition.parameters if model in (None, partition.model) else {}
    model = model or partition.model
    shares = tuple(node_share(node, *usage) for usage in usages)
    w = weight(model, node, parameters)
    if model == "titan":
        shares = (Fraction(1),) * len(usages)
    elif model == "puhti":
        rates = _puhti_rates(parameters)
        shares = tuple((rates["core"] * c + rates["memory_gib"] * m + rates["gpu"] * g) / w for c, g, m in usages)
    energy = sum(
        (Fraction(c, node.cores) * node.cpu_tdp + (Fraction(g, node.gpus) * node.gpu_tdp if g else 0) for c, g, _ in usages),
        Fraction(0),
    )
    return Charge(w * hours * sum(shares, Fraction(0)), w, shares, energy * hours)


def number(text: str) -> Fraction:
    """A printed number: thousands separators, exponents and p/q accepted."""
    return Fraction(text.replace(",", "").strip())


def close(got: Fraction, want: Fraction) -> bool:
    if want == 0:
        return got == 0
    return abs(got - want) <= REL_TOL * abs(want)


def close_text(text: str, want: Fraction) -> bool:
    try:
        return close(number(text), want)
    except (ValueError, ZeroDivisionError):
        return False


def weight_text_ok(text: str, want: Fraction) -> bool:
    """A displayed node-hour weight: rounded half up, or the value itself."""
    try:
        got = number(text)
    except (ValueError, ZeroDivisionError):
        return False
    return got == math.floor(want + Fraction(1, 2)) or close(got, want)


# ---------------------------------------------------------------- ingest


@dataclass
class JobRow:
    line: int
    job_id: str
    project: str
    partition: str
    charged: bool
    reason: str = ""
    su: Fraction = Fraction(0)


@dataclass
class IngestExpectation:
    rows: list[JobRow]
    orphan_lines: list[int]
    totals: dict[tuple[str, str], Fraction]

    def operations(self) -> list[tuple[str, int]]:
        """One per job (a jobs row with the detail rows that describe it) and
        one per detail row that belongs to no job. Their number depends only on
        the generator's row and fault counts, not on the seed."""
        return [("jobs", r.line) for r in self.rows] + [("details", line) for line in self.orphan_lines]

    @property
    def attempted(self) -> int:
        return len(self.rows) + len(self.orphan_lines)

    @property
    def exit_code(self) -> int:
        return 1 if self.orphan_lines or any(not r.charged for r in self.rows) else 0


def _parse_int(text: str | None) -> int | None:
    return int(text) if text is not None and _INT.fullmatch(text) else None


def _parse_dec(text: str | None) -> Fraction | None:
    return Fraction(text.strip()) if text is not None and _DEC.fullmatch(text) else None


def _usage(cores: str | None, gpus: str | None, memory: str | None) -> tuple[int, int, Fraction] | None:
    usage = (_parse_int(cores), _parse_int(gpus), _parse_dec(memory))
    if None in usage or not any(usage):
        return None
    return usage


def expect_ingest(system: dict[str, Partition], jobs_path: Path, details_path: Path | None) -> IngestExpectation:
    """Judge every jobs and detail row and total the charged ones exactly."""
    per_job: dict[str, dict[int, tuple]] = {}
    poisoned: set[str] = set()
    detail_lines: dict[str, list[int]] = {}
    blank_lines: list[int] = []
    if details_path is not None:
        with open(details_path, newline="", encoding="utf-8") as handle:
            for line, row in enumerate(csv.DictReader(handle), start=2):
                job_id = (row["job_id"] or "").strip()
                if not job_id:
                    blank_lines.append(line)
                    continue
                detail_lines.setdefault(job_id, []).append(line)
                index = _parse_int(row["node_index"])
                usage = _usage(row["cores"], row["gpus"], row["mem_gib"])
                nodes = per_job.setdefault(job_id, {})
                if index is None or usage is None or index in nodes:
                    poisoned.add(job_id)
                else:
                    nodes[index] = usage

    rows: list[JobRow] = []
    charged_ids: set[str] = set()
    with open(jobs_path, newline="", encoding="utf-8") as handle:
        for line, row in enumerate(csv.DictReader(handle), start=2):
            job = JobRow(line, (row["job_id"] or "").strip(), (row["project"] or "").strip(), (row["partition"] or "").strip(), False)
            rows.append(job)
            nodes = _parse_int(row["nodes"])
            hours = _parse_dec(row["elapsed_hours"])
            partition = system.get(job.partition)
            if not job.job_id or job.job_id in poisoned:
                job.reason = "bad job id or detail rows"
            elif not job.project or partition is None or not nodes or hours is None:
                job.reason = "bad cell"
            elif job.job_id in per_job and set(per_job[job.job_id]) != set(range(nodes)):
                job.reason = "detail rows do not cover the nodes"
            elif job.job_id not in per_job and _usage(row["cores_per_node"], row["gpus_per_node"], row["mem_gib_per_node"]) is None:
                job.reason = "bad usage"
            elif nodes > partition.node_count:
                job.reason = "more nodes than the partition has"
            elif job.job_id in charged_ids:
                job.reason = "duplicate job id"
            else:
                if job.job_id in per_job:
                    usages = [per_job[job.job_id][i] for i in range(nodes)]
                else:
                    usages = [_usage(row["cores_per_node"], row["gpus_per_node"], row["mem_gib_per_node"])] * nodes
                try:
                    job.su = charge(partition, usages, hours).total
                except OverCapacity:
                    job.reason = "over capacity"
                else:
                    job.charged = True
                    charged_ids.add(job.job_id)

    known_ids = {r.job_id for r in rows}
    orphan_lines = blank_lines + [line for job_id, lines in detail_lines.items() if job_id not in known_ids for line in lines]

    totals: dict[tuple[str, str], Fraction] = {}
    for job in rows:
        if job.charged:
            for key in ((job.project, job.partition), (job.project, "ALL")):
                totals[key] = totals.get(key, Fraction(0)) + job.su
    return IngestExpectation(rows, sorted(orphan_lines), totals)


@dataclass
class Verdict:
    """Outcome of checking one program call against the oracle: the reason
    each failed operation failed, keyed by ("jobs" | "details", line)."""

    attempted: int
    failures: dict[tuple[str, int], str] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def reasons(self) -> Counter:
        return Counter(self.failures.values())


def check_ingest(expect: IngestExpectation, code: int, stdout: str, stderr: str, jobs_name: str, details_name: str | None) -> Verdict:
    """Judge each operation of one `sumeter ingest` call."""
    verdict = Verdict(expect.attempted)

    def fail_all(reason: str) -> Verdict:
        verdict.failures = dict.fromkeys(expect.operations(), reason)
        return verdict

    if TRACEBACK in stderr:
        return fail_all("traceback")
    if code != expect.exit_code:
        return fail_all("wrong exit status")
    lines = stdout.splitlines()
    if not lines or lines[0].strip() != "project,partition,total_su":
        return fail_all("missing output header")
    printed: dict[tuple[str, str], str] = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) == 3:
            printed[(parts[0], parts[1])] = parts[2]
    rejected = {int(n) for n in re.findall(re.escape(jobs_name) + r":(\d+)", stderr)}
    reported_details = set()
    if details_name:
        reported_details = {int(n) for n in re.findall(re.escape(details_name) + r"(?::|\s+line\s+)(\d+)", stderr)}
    wrong_keys = {k for k, v in printed.items() if k not in expect.totals or not close_text(v, expect.totals[k])}
    wrong_keys |= {k for k in expect.totals if k not in printed}
    for job in expect.rows:
        if job.charged:
            if job.line in rejected:
                verdict.failures[("jobs", job.line)] = "valid row rejected"
            elif (job.project, job.partition) in wrong_keys or (job.project, "ALL") in wrong_keys:
                verdict.failures[("jobs", job.line)] = "wrong project total"
        elif job.line not in rejected:
            verdict.failures[("jobs", job.line)] = "bad row not reported"
    for line in expect.orphan_lines:
        if line not in reported_details:
            verdict.failures[("details", line)] = "orphan detail row not reported"
    return verdict


# ---------------------------------------------------------------- one-shot CLI


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _job_from_argv(system: dict[str, Partition], argv: list[str]) -> tuple[Partition, list, Fraction]:
    partition = system[_flag(argv, "--partition")]
    usage = (int(_flag(argv, "--cores-per-node", "0")), int(_flag(argv, "--gpus-per-node", "0")), Fraction(_flag(argv, "--mem-gib-per-node", "0")))
    return partition, [usage] * int(_flag(argv, "--nodes", "1")), Fraction(_flag(argv, "--hours"))


def _grep(pattern: str, text: str) -> list[str]:
    return re.findall(pattern, text, flags=re.MULTILINE)


def check_estimate(system: dict[str, Partition], argv: list[str], stdout: str) -> str | None:
    partition, usages, hours = _job_from_argv(system, argv)
    model = _flag(argv, "--model", partition.model)
    want = charge(partition, usages, hours, model)
    fmt = _flag(argv, "--format", "text")
    if fmt == "json":
        got = json.loads(stdout)
        checks = [
            got["model_id"] == model,
            got["partition"] == partition.name,
            close(Fraction(got["total_su"]), want.total),
            close(Fraction(got["weight_used"]), want.weight),
            close(Fraction(got["walltime_hours"]), hours),
            close(Fraction(got["energy_wh"]), want.energy_wh),
            len(got["per_node_fraction"]) == len(want.fractions),
            all(close(Fraction(g), w) for g, w in zip(got["per_node_fraction"], want.fractions)),
        ]
    elif fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        checks = [len(rows) == len(want.fractions)] + [
            row["model_id"] == model
            and close_text(row["total_su"], want.total)
            and close_text(row["weight_used"], want.weight)
            and close_text(row["walltime_hours"], hours)
            and row["node_index"] == str(i)
            and close_text(row["node_fraction"], share)
            for i, (row, share) in enumerate(zip(rows, want.fractions))
        ]
    else:
        shares = _grep(r"^per-node fraction: (\S+) \(x(\d+) nodes\)$", stdout)
        if shares:
            fractions_ok = int(shares[0][1]) == len(want.fractions) and all(close_text(shares[0][0], w) for w in want.fractions)
        else:
            per_node = _grep(r"^node \d+: fraction (\S+)$", stdout)
            fractions_ok = len(per_node) == len(want.fractions) and all(map(close_text, per_node, want.fractions))
        checks = [
            _grep(r"^model: (\S+)$", stdout) == [model],
            [weight_text_ok(t, want.weight) for t in _grep(r"^node-hour weight: (\S+)$", stdout)] == [True],
            [close_text(t, want.energy_wh) for t in _grep(r"^estimated energy: (\S+) Wh$", stdout)] == [True],
            [close_text(t, want.total) for t in _grep(r"^total: (\S+) SU$", stdout)] == [True],
            fractions_ok,
        ]
    return None if all(checks) else f"estimate --format {fmt} output differs"


def check_compare(system: dict[str, Partition], argv: list[str], stdout: str) -> str | None:
    partition, usages, hours = _job_from_argv(system, argv)
    models = _flag(argv, "--models").split(",")
    rows = [line.split() for line in stdout.splitlines()[1:] if line.strip()]
    if [r[0] for r in rows] != models or any(len(r) != 3 for r in rows):
        return "compare lists other models"
    for (model, weight_text, total_text) in rows:
        want = charge(partition, usages, hours, model)
        if not (weight_text_ok(weight_text, want.weight) and close_text(total_text, want.total)):
            return f"compare row {model} differs"
    return None


def _first_partition(system: dict[str, Partition], with_gpus: bool) -> Partition:
    return next(p for p in system.values() if (p.node.gpus > 0) == with_gpus)


def check_crossover(system: dict[str, Partition], argv: list[str], stdout: str, stderr: str) -> str | None:
    cpu, gpu = _first_partition(system, False).node, _first_partition(system, True).node
    s_min, s_max, steps = Fraction(_flag(argv, "--s-min")), Fraction(_flag(argv, "--s-max")), int(_flag(argv, "--steps"))
    weights = {m: (weight(m, cpu), weight(m, gpu)) for m in CROSSOVER_MODELS}
    rows = list(csv.reader(io.StringIO(stdout)))
    header = ["speedup"] + [f"{k}_{m}" for m in CROSSOVER_MODELS for k in ("su_cpu", "su_gpu", "chosen", "ec_wh")]
    if not rows or rows[0] != header or len(rows) != steps + 1:
        return "crossover table has another shape"
    for i, row in enumerate(rows[1:]):
        s = s_min + (s_max - s_min) * i / (steps - 1)
        if not close_text(row[0], s):
            return "crossover speedup differs"
        for k, model in enumerate(CROSSOVER_MODELS):
            w_cpu, w_gpu = weights[model]
            on_cpu = w_cpu <= w_gpu / s
            want = (w_cpu, w_gpu / s, "cpu" if on_cpu else "gpu", cpu.cpu_tdp if on_cpu else gpu.gpu_tdp / s)
            got = row[1 + 4 * k : 5 + 4 * k]
            if not (close_text(got[0], want[0]) and close_text(got[1], want[1]) and got[2] == want[2] and close_text(got[3], want[3])):
                return f"crossover row {i} differs for {model}"
    summary = _grep(r"^model (\S+): gpu node-hour weight (\S+), decision threshold s = (\S+)$", stderr)
    if [m for m, _, _ in summary] != list(CROSSOVER_MODELS):
        return "crossover summary lists other models"
    for model, weight_text, threshold_text in summary:
        w_cpu, w_gpu = weights[model]
        if not weight_text_ok(weight_text, w_gpu) or abs(number(threshold_text) - w_gpu / w_cpu) > THRESHOLD_TOL:
            return f"crossover summary differs for {model}"
    band = _grep(r"^efficiency band .*: (\S+) < s <= (\S+)$", stderr)
    low = weights["energy"][1] / weights["energy"][0]
    high = max(w_gpu / w_cpu for m, (w_cpu, w_gpu) in weights.items() if m != "energy")
    if len(band) != 1 or abs(number(band[0][0]) - low) > THRESHOLD_TOL or abs(number(band[0][1]) - high) > THRESHOLD_TOL:
        return "crossover efficiency band differs"
    return None


def check_report(system: dict[str, Partition], stdout: str) -> str | None:
    cpu, gpu = _first_partition(system, False).node, _first_partition(system, True).node
    blocks = re.split(r"^Reference table (\d+) \((\S+) model\)$", stdout, flags=re.MULTILINE)[1:]
    tables = {int(blocks[i]): (blocks[i + 1], blocks[i + 2]) for i in range(0, len(blocks), 3)}
    if sorted(tables) != sorted(REPORT_TABLES):
        return "report lists other tables"
    for number_, model in REPORT_TABLES.items():
        printed_model, body = tables[number_]
        lines = [line for line in body.strip().splitlines()[1:]]
        rows, footer = lines[:-1], lines[-1] if lines else ""
        if printed_model != model or len(rows) != len(APPLICATIONS) or f"{len(APPLICATIONS)}/{len(APPLICATIONS)}" not in footer:
            return f"report table {number_} has another shape"
        w_cpu, w_gpu = weight(model, cpu), weight(model, gpu)
        for line, (app, perf) in zip(rows, APPLICATIONS):
            tokens = line.split()
            name, (perf_text, cpu_text, gpu_text, ratio_text) = " ".join(tokens[:-6]), tokens[-6:-2]
            if not (
                name == app
                and perf_text == str(perf)
                and close_text(cpu_text, perf * w_cpu)
                and weight_text_ok(gpu_text, w_gpu)
                and close_text(ratio_text, perf * w_cpu / w_gpu)
            ):
                return f"report table {number_} row {app} differs"
    return None


def check_cli(system: dict[str, Partition], kind: str, argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """None when one call agrees with the oracle, else the reason it does not."""
    if TRACEBACK in stderr:
        return "traceback"
    if code != 0:
        return "wrong exit status"
    try:
        if kind.startswith("estimate"):
            return check_estimate(system, argv, stdout)
        if kind == "compare":
            return check_compare(system, argv, stdout)
        if kind == "crossover":
            return check_crossover(system, argv, stdout, stderr)
        return check_report(system, stdout)
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as err:
        return f"{kind} output unreadable: {err!r}"
