"""Seeded input generator for the sumeter benchmark.

Every input the program sees is written here from a `random.Random(seed)`:
the system config JSON, the jobs CSV, the per-node detail CSV and, for the
CLI workload, the argument lists of each call. Nothing is downloaded and
nothing is chosen by hand per seed. The manifest lists every deliberately
bad row with the fault it carries; the oracle judges rows on its own and
the runner cross-checks the two.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

JOBS_HEADER = (
    "job_id",
    "project",
    "partition",
    "nodes",
    "cores_per_node",
    "gpus_per_node",
    "mem_gib_per_node",
    "elapsed_hours",
)
DETAILS_HEADER = ("job_id", "node_index", "cores", "gpus", "mem_gib")

# Rows per workload at scale 1. A `sumeter ingest` child takes roughly 1 s
# on these at the parent commit, which leaves room for about 30 children in
# one measured run.
WIDE_ROWS = 1200
DETAIL_ROWS = 3000
BAD_SHARE = 0.02
PROJECTS = 200

WIDE_FAULTS = ("capacity", "non-numeric", "unknown-partition", "duplicate-job-id", "empty-usage")
DETAIL_FAULTS = (
    "capacity",
    "non-numeric",
    "unknown-partition",
    "duplicate-job-id",
    "detail-coverage",
    "orphan-detail",
)

XEON_6240 = {"name": "Xeon Gold 6240", "cores": 18, "tdp_watts": 150, "peak_flops": 1500000000000, "count": 2}
A100_SXM = {"name": "A100 SMX", "streaming_multiprocessors": 108, "tdp_watts": 400, "peak_flops": 9700000000000, "count": 4}

CPU_CHOICES = (
    {"name": "Xeon Gold 6230", "cores": 20, "tdp_watts": 125, "peak_flops": 1280000000000},
    {"name": "Xeon Platinum 8360Y", "cores": 36, "tdp_watts": 250, "peak_flops": 2760000000000},
    {"name": "EPYC 7742", "cores": 64, "tdp_watts": 225, "peak_flops": 2300000000000},
)
GPU_CHOICES = (
    {"name": "V100 SXM2", "streaming_multiprocessors": 80, "tdp_watts": 300, "peak_flops": 7800000000000},
    {"name": "A100 SXM4", "streaming_multiprocessors": 108, "tdp_watts": 400, "peak_flops": 9700000000000},
    {"name": "H100 SXM5", "streaming_multiprocessors": 132, "tdp_watts": 700, "peak_flops": 34000000000000},
)
MEMORY_CHOICES = (192, 256, 384, 512)


@dataclass
class Inputs:
    """Paths of the generated files plus what the runner reports about them."""

    directory: Path
    config: Path
    jobs: Path | None = None
    details: Path | None = None
    manifest: list[dict] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)


def reference_config() -> dict:
    """The bundled reference system (`--config builtin`), as a config file."""
    return {
        "partitions": [
            {
                "name": "cpu",
                "model": "energy",
                "node_count": 1000,
                "node": {"name": "dual-xeon-6240", "memory_total_gib": 256, "cpus": [XEON_6240], "gpus": []},
            },
            {
                "name": "gpu",
                "model": "energy",
                "node_count": 250,
                "node": {
                    "name": "quad-a100",
                    "memory_total_gib": 256,
                    "cpus": [XEON_6240],
                    "gpus": [A100_SXM],
                },
            },
        ]
    }


def detail_config(rng: random.Random) -> dict:
    """One partition per charge model, hardware drawn from the seed."""

    def cpu_node(name: str) -> dict:
        cpu = dict(rng.choice(CPU_CHOICES), count=2)
        return {"name": name, "memory_total_gib": rng.choice(MEMORY_CHOICES), "cpus": [cpu], "gpus": []}

    def gpu_node(name: str) -> dict:
        node = cpu_node(name)
        node["gpus"] = [dict(rng.choice(GPU_CHOICES), count=rng.choice((4, 8)))]
        return node

    titan_node = {
        "name": "xk7",
        "memory_total_gib": 32,
        "cpus": [{"name": "Opteron 6274", "cores": 16, "tdp_watts": 115, "peak_flops": 141000000000}],
        "gpus": [{"name": "K20X", "streaming_multiprocessors": 14, "tdp_watts": 235, "peak_flops": 1310000000000}],
    }
    puhti_node = {
        "name": "puhti-gpu",
        "memory_total_gib": 384,
        "cpus": [{"name": "Xeon Gold 6230", "cores": 20, "tdp_watts": 125, "peak_flops": 1280000000000, "count": 2}],
        "gpus": [{"name": "V100 SXM2", "streaming_multiprocessors": 80, "tdp_watts": 300, "peak_flops": 7800000000000, "count": 4}],
        "extra_resources": {"nvme_gib": 3600},
    }
    return {
        "partitions": [
            {"name": "cpu", "model": "energy", "node_count": 512, "node": cpu_node("cpu-node")},
            {"name": "gpu", "model": "energy", "node_count": 64, "node": gpu_node("gpu-node")},
            {"name": "gpu-sm", "model": "sm", "node_count": 64, "node": gpu_node("gpu-sm-node")},
            {"name": "gpu-peak", "model": "peak-perf", "node_count": 64, "node": gpu_node("gpu-peak-node")},
            # Four nodes, so a five-node job is a capacity overflow.
            {"name": "titan", "model": "titan", "node_count": 4, "node": titan_node},
            {
                "name": "puhti",
                "model": "puhti",
                "node_count": 80,
                "node": puhti_node,
                "model_parameters": {"nvme_resource": "nvme_gib"},
            },
        ]
    }


def node_shape(partition: dict) -> tuple[int, int, int]:
    """(cores, gpus, memory GiB) of a partition's node as written in the config."""
    node = partition["node"]
    cores = sum(c["cores"] * c.get("count", 1) for c in node["cpus"])
    gpus = sum(g.get("count", 1) for g in node["gpus"])
    return cores, gpus, node["memory_total_gib"]


def _hours(rng: random.Random) -> str:
    return f"{rng.randint(1, 4800) / 100:.2f}"


def _memory(rng: random.Random, limit: int) -> str:
    return f"{rng.randint(0, limit * 10) / 10:.1f}"


def _usage(rng: random.Random, shape: tuple[int, int, int]) -> tuple[int, int, str]:
    """A usage that fits the node and requests at least one resource."""
    cores, gpus, memory = shape
    while True:
        used_gpus = rng.randint(0, gpus) if gpus else 0
        used_cores = rng.randint(0 if gpus else 1, cores)
        used_mem = _memory(rng, memory) if rng.random() < 0.7 else "0"
        if used_cores or used_gpus or float(used_mem) > 0:
            return used_cores, used_gpus, used_mem


def _fault_positions(rng: random.Random, rows: int, kinds: tuple[str, ...]) -> dict[int, str]:
    """Spread about BAD_SHARE of the rows evenly over the fault kinds."""
    count = max(len(kinds), round(rows * BAD_SHARE))
    positions = rng.sample(range(1, rows), count)
    return {position: kinds[i % len(kinds)] for i, position in enumerate(positions)}


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")


def generate_wide(seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Uniform jobs on the reference system: 1-64 CPU or 1-16 GPU nodes."""
    rng = random.Random(f"ingest-wide/{seed}")
    config = reference_config()
    shapes = {p["name"]: node_shape(p) for p in config["partitions"]}
    rows_wanted = max(12, int(WIDE_ROWS * scale))
    faults = _fault_positions(rng, rows_wanted, WIDE_FAULTS)
    rows: list[tuple] = []
    manifest: list[dict] = []
    good_ids: list[str] = []
    for i in range(rows_wanted):
        job_id = f"w{i}"
        project = f"p{rng.randrange(PROJECTS):03d}"
        partition = rng.choice(("cpu", "gpu"))
        nodes = rng.randint(1, 64) if partition == "cpu" else rng.randint(1, 16)
        cores, gpus, mem = _usage(rng, shapes[partition])
        row = [job_id, project, partition, str(nodes), str(cores), str(gpus), mem, _hours(rng)]
        kind = faults.get(i)
        if kind == "capacity":
            choice = rng.randrange(3)
            if choice == 0:
                row[4] = str(rng.randint(37, 72))
            elif choice == 1:
                row[5] = str(rng.randint(5, 8)) if partition == "gpu" else "1"
            else:
                row[6] = f"{rng.randint(2570, 5120) / 10:.1f}"
        elif kind == "non-numeric":
            column = rng.choice((3, 4, 6, 7))
            row[column] = rng.choice(("two", "4.5", "1,5", "n/a", "")) if column in (3, 4) else rng.choice(("1.5h", "n/a", "1,5", ""))
        elif kind == "unknown-partition":
            row[2] = f"{partition}-old"
        elif kind == "duplicate-job-id":
            row[0] = rng.choice(good_ids)
        elif kind == "empty-usage":
            row[4], row[5], row[6] = "0", "0", "0"
        if kind is None:
            good_ids.append(job_id)
        else:
            manifest.append({"file": "jobs", "line": i + 2, "job_id": row[0], "kind": kind})
        rows.append(tuple(row))
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory=directory, config=directory / "system.json", jobs=directory / "jobs.csv")
    _write_config(inputs.config, config)
    _write_csv(inputs.jobs, JOBS_HEADER, rows)
    inputs.manifest = manifest
    inputs.sizes = {"job_rows": len(rows), "detail_rows": 0, "bad_rows": len(manifest), "projects": PROJECTS}
    return inputs


def generate_detail(seed: int, directory: Path, scale: float = 1.0) -> Inputs:
    """Heterogeneous 1-4 node jobs, one partition per model, via --details."""
    rng = random.Random(f"ingest-detail/{seed}")
    config = detail_config(rng)
    partitions = [p["name"] for p in config["partitions"]]
    shapes = {p["name"]: node_shape(p) for p in config["partitions"]}
    node_counts = {p["name"]: p["node_count"] for p in config["partitions"]}
    rows_wanted = max(12, int(DETAIL_ROWS * scale))
    faults = _fault_positions(rng, rows_wanted, DETAIL_FAULTS)
    jobs: list[tuple] = []
    details: list[tuple] = []
    manifest: list[dict] = []
    good: list[list[str]] = []  # rows of valid jobs, for duplicates
    orphans: set[int] = set()
    for i in range(rows_wanted):
        job_id = f"d{i}"
        project = f"p{rng.randrange(PROJECTS):03d}"
        partition = rng.choice(partitions)
        nodes = rng.randint(1, 4)
        seen: set[tuple] = set()
        usages: list[list] = []
        while len(usages) < nodes:
            usage = _usage(rng, shapes[partition])
            if usage not in seen:
                seen.add(usage)
                usages.append([str(u) for u in usage])
        row = [job_id, project, partition, str(nodes), *usages[0], _hours(rng)]
        kind = faults.get(i)
        detail_rows = [[job_id, str(index), *usage] for index, usage in enumerate(usages)]
        if kind == "capacity":
            choice = rng.randrange(4) if partition == "titan" else rng.randrange(3)
            cores, gpus, memory = shapes[partition]
            target = rng.randrange(nodes)
            if choice == 0:
                detail_rows[target][2] = str(cores + rng.randint(1, cores))
            elif choice == 1:
                detail_rows[target][3] = str(gpus + rng.randint(1, 4))
            elif choice == 2:
                detail_rows[target][4] = f"{memory + rng.randint(1, 100)}.5"
            else:
                extra = node_counts[partition] + 1 - nodes
                row[3] = str(node_counts[partition] + 1)
                detail_rows += [[job_id, str(nodes + k), *usages[0]] for k in range(extra)]
        elif kind == "non-numeric":
            if rng.random() < 0.5:
                row[rng.choice((3, 7))] = rng.choice(("two", "1.5h", "n/a", ""))
            else:
                target = rng.randrange(nodes)
                detail_rows[target][rng.choice((2, 3, 4))] = rng.choice(("x", "n/a", "1,5"))
        elif kind == "unknown-partition":
            row[2] = f"{partition}-old"
        elif kind == "duplicate-job-id":
            row = list(rng.choice(good))
            row[1] = project
            detail_rows = []  # the original's detail rows already describe this id
        elif kind == "detail-coverage":
            choice = rng.randrange(3) if nodes > 1 else rng.choice((1, 2))
            if choice == 0:
                del detail_rows[rng.randrange(1, nodes)]
            elif choice == 1:
                detail_rows.append([job_id, str(nodes), *usages[0]])
            else:
                detail_rows.append([job_id, str(rng.randrange(nodes)), *usages[0]])
        if kind is None:
            good.append(row)
        elif kind != "orphan-detail":
            manifest.append({"file": "jobs", "line": len(jobs) + 2, "job_id": row[0], "kind": kind})
        jobs.append(tuple(row))
        details.extend(tuple(d) for d in detail_rows)
        if kind == "orphan-detail":
            # A valid job plus a detail row that names no job in the jobs file.
            orphans.add(len(details))
            details.append((rng.choice(("", f"x{i}", f"{job_id}-missing")), "0", *usages[0]))
    # Detail rows arrive in scheduler order, not grouped by job.
    order = list(range(len(details)))
    rng.shuffle(order)
    details = [details[k] for k in order]
    for line, k in enumerate(order, start=2):
        if k in orphans:
            manifest.append({"file": "details", "line": line, "job_id": details[line - 2][0], "kind": "orphan-detail"})
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(
        directory=directory,
        config=directory / "system.json",
        jobs=directory / "jobs.csv",
        details=directory / "details.csv",
    )
    _write_config(inputs.config, config)
    _write_csv(inputs.jobs, JOBS_HEADER, jobs)
    _write_csv(inputs.details, DETAILS_HEADER, details)
    inputs.manifest = manifest
    inputs.sizes = {
        "job_rows": len(jobs),
        "detail_rows": len(details),
        "bad_rows": len(manifest),
        "projects": PROJECTS,
    }
    return inputs


CLI_KINDS = ("estimate-text", "estimate-csv", "estimate-json", "compare", "crossover", "report")
MODEL_IDS = ("energy", "sm", "peak-perf", "titan", "puhti")


def generate_cli(directory: Path) -> Inputs:
    """The reference system as a config file; calls come from `cli_calls`."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(directory=directory, config=directory / "system.json")
    _write_config(inputs.config, reference_config())
    return inputs


def cli_calls(seed: int, config: Path):
    """Endless seeded round robin of (kind, argv) over the one-shot subcommands."""
    rng = random.Random(f"cli-oneshot/{seed}")
    shapes = {p["name"]: node_shape(p) for p in reference_config()["partitions"]}
    index = 0
    while True:
        kind = CLI_KINDS[index % len(CLI_KINDS)]
        index += 1
        if kind == "report":
            yield kind, ["report", "--all"]
            continue
        if kind == "crossover":
            s_min = rng.randint(1, 4)
            s_max = rng.randint(12, 30)
            yield kind, ["--config", str(config), "crossover", "--s-min", str(s_min), "--s-max", str(s_max), "--steps", "96"]
            continue
        partition = rng.choice(("cpu", "gpu"))
        cores, gpus, mem = _usage(rng, shapes[partition])
        argv = [
            "--config", str(config),
            "estimate" if kind.startswith("estimate") else "compare",
            "--partition", partition,
            "--nodes", str(rng.randint(1, 8)),
            "--cores-per-node", str(cores),
            "--gpus-per-node", str(gpus),
            "--mem-gib-per-node", mem,
            "--hours", _hours(rng),
        ]
        if kind == "compare":
            argv += ["--models", ",".join(MODEL_IDS)]
        else:
            model = rng.choice((None,) + MODEL_IDS)
            if model is not None:
                argv += ["--model", model]
            argv += ["--format", kind.split("-")[1]]
        yield kind, argv
