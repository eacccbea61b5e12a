"""Command-line front end.

Subcommands: estimate (price one job), compare (side by side across
models), crossover (speedup sweep with plot data), report (regenerate the
published benchmark tables) and ingest (batch-charge a jobs CSV into
per-project totals). Results go to stdout, diagnostics to stderr; exit
code 0 means no errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import tables
from .analysis import decision_threshold, efficiency_band, write_sweep_csv
from .core import ChargeReport, JobRequest, NodeUsage, Partition, energy_estimate_wh, parse_real
from .display import as_float, format_real, format_su, format_threshold, round_half_up
from .errors import AccountingError, ConfigError, ValidationError
from .ingest import RowTally, SystemConfig, aggregate, builtin_config, iter_jobs, load_config
from .models import MODEL_IDS, ChargeModel, get_model

DEFAULT_CONFIG = "system.json"
CONFIG_ENV_VAR = "SUMETER_CONFIG"


def _real_arg(text: str) -> Fraction:
    try:
        return parse_real(text)
    except ValidationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _load_config_arg(args: argparse.Namespace) -> SystemConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR) or DEFAULT_CONFIG
    if path == "builtin":
        return builtin_config()
    return load_config(path)


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError raised while writing `path` as `cannot write <path>: <reason>`."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from None


def _models_arg(text: str) -> list[str]:
    ids = [m.strip() for m in text.split(",") if m.strip()]
    if not ids:
        raise ValidationError("no models given")
    unknown = [m for m in ids if m not in MODEL_IDS]
    if unknown:
        raise ValidationError(f"unknown models: {', '.join(unknown)} (known: {', '.join(MODEL_IDS)})")
    return list(dict.fromkeys(ids))


def _model_for(partition: Partition, override: str | None) -> ChargeModel:
    # keep the configured instance (it may carry custom parameters) when the
    # requested model is the one the partition already bills under
    if override is None or override == partition.model.id:
        return partition.model
    return get_model(override)


def _usage_from_args(args: argparse.Namespace) -> NodeUsage:
    return NodeUsage(
        cores_used=args.cores_per_node,
        gpus_used=args.gpus_per_node,
        memory_used_gib=args.mem_gib_per_node,
    )


def _job_from_args(config: SystemConfig, args: argparse.Namespace) -> JobRequest:
    partition = config.partition(args.partition)
    return JobRequest.uniform(partition, args.nodes, _usage_from_args(args), args.hours)


def _energy_wh(job: JobRequest) -> Fraction:
    return energy_estimate_wh(job.per_node_usage, job.partition.node_type, job.walltime_hours)


def _print_fractions(report: ChargeReport) -> None:
    fractions = report.per_node_fraction
    if len(set(fractions)) == 1:
        print(f"per-node fraction: {format_real(fractions[0])} (x{len(fractions)} nodes)")
    else:
        for i, fraction in enumerate(fractions, start=1):
            print(f"node {i}: fraction {format_real(fraction)}")


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    job = _job_from_args(config, args)
    report = _model_for(job.partition, args.model).charge(job)
    if args.format == "json":
        print(json.dumps(_report_json(args.partition, report, _energy_wh(job))))
    elif args.format == "csv":
        print("model_id,total_su,weight_used,walltime_hours,node_index,node_fraction")
        for i, fraction in enumerate(report.per_node_fraction):
            print(
                f"{report.model_id},{format_real(report.total_su)},{format_real(report.weight_used)},"
                f"{format_real(report.walltime_hours)},{i},{format_real(fraction)}"
            )
    else:
        print(f"partition: {args.partition}")
        print(f"model: {report.model_id}")
        print(f"node-hour weight: {format_su(round_half_up(report.weight_used))}")
        _print_fractions(report)
        print(f"estimated energy: {format_real(_energy_wh(job))} Wh")
        print(f"total: {format_su(report.total_su)} SU")
    return 0


def _json_number(field: str, value: Fraction) -> float:
    number = as_float(value)
    if number is None:
        raise ValidationError(f"{field}: {format_real(value)} is beyond float range; use --format text or csv")
    return number


def _report_json(partition: str, report: ChargeReport, energy_wh: Fraction) -> dict:
    return {
        "partition": partition,
        "model_id": report.model_id,
        "total_su": _json_number("total_su", report.total_su),
        "weight_used": _json_number("weight_used", report.weight_used),
        "walltime_hours": _json_number("walltime_hours", report.walltime_hours),
        "per_node_fraction": [_json_number("per_node_fraction", f) for f in report.per_node_fraction],
        "energy_wh": _json_number("energy_wh", energy_wh),
    }


def cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    job = _job_from_args(config, args)
    reports = [
        (model_id, _model_for(job.partition, model_id).charge(job))
        for model_id in _models_arg(args.models)
    ]
    if args.format == "json":
        energy_wh = _energy_wh(job)
        print(json.dumps([{**_report_json(args.partition, r, energy_wh), "model_id": m} for m, r in reports]))
    elif args.format == "csv":
        print("model_id,total_su,weight_used")
        for model_id, report in reports:
            print(f"{model_id},{format_real(report.total_su)},{format_real(report.weight_used)}")
    else:
        print(f"{'model':<12} {'node-hour weight':>16} {'total SU':>14}")
        for model_id, report in reports:
            print(f"{model_id:<12} {format_su(round_half_up(report.weight_used)):>16} {format_su(report.total_su):>14}")
    return 0


def _partition_pair(config: SystemConfig, args: argparse.Namespace) -> tuple[Partition, Partition]:
    cpu = config.partition(args.cpu_partition) if args.cpu_partition else config.first_partition(with_gpus=False)
    gpu = config.partition(args.gpu_partition) if args.gpu_partition else config.first_partition(with_gpus=True)
    if cpu is None or gpu is None:
        raise ValidationError("config needs both a CPU-only and a GPU partition (or name them explicitly)")
    if cpu.node_type.gpu_count > 0:
        raise ValidationError(f"partition {cpu.name!r} has GPUs; pick a CPU-only baseline partition")
    if gpu.node_type.gpu_count == 0:
        raise ValidationError(f"partition {gpu.name!r} has no GPUs")
    return cpu, gpu


def cmd_crossover(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    cpu_partition, gpu_partition = _partition_pair(config, args)
    cpu_node, gpu_node = cpu_partition.node_type, gpu_partition.node_type
    models = [_model_for(gpu_partition, model_id) for model_id in _models_arg(args.models)]

    summary_out = sys.stdout if args.out else sys.stderr
    cpu_weights = [model.node_weight(cpu_node) for model in models]
    if len(set(cpu_weights)) == 1:
        print(f"cpu node-hour weight: {format_su(round_half_up(cpu_weights[0]))}", file=summary_out)
    else:
        for model, weight in zip(models, cpu_weights):
            print(f"model {model.id}: cpu node-hour weight {format_su(round_half_up(weight))}", file=summary_out)
    for model in models:
        weight = model.node_weight(gpu_node)
        threshold = decision_threshold(model, cpu_node, gpu_node)
        print(
            f"model {model.id}: gpu node-hour weight {format_su(round_half_up(weight))}, "
            f"decision threshold s = {format_threshold(threshold)}",
            file=summary_out,
        )
    if any(m.id == "energy" for m in models) and len(models) > 1:
        low, high = efficiency_band(models, cpu_node, gpu_node)
        if high > low:
            print(
                f"efficiency band (energy model alone picks the lower-energy node): "
                f"{format_threshold(low)} < s <= {format_threshold(high)}",
                file=summary_out,
            )
        else:
            print("efficiency band: empty", file=summary_out)

    if args.out:
        with _writing(args.out), open(args.out, "w", encoding="utf-8") as handle:
            write_sweep_csv(models, cpu_node, gpu_node, handle, args.s_min, args.s_max, args.steps)
    else:
        write_sweep_csv(models, cpu_node, gpu_node, sys.stdout, args.s_min, args.s_max, args.steps)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    numbers = [args.table] if args.table else sorted(tables.PUBLISHED_TABLES)
    all_match = True
    for number in numbers:
        comparisons = tables.compare_with_published(number)
        all_match = all_match and all(c.matches for c in comparisons)
        if args.format == "csv":
            sys.stdout.write(tables.table_csv(comparisons))
        else:
            print(tables.table_text(number, comparisons))
            print()
        if args.out:
            with _writing(args.out):
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                (out_dir / f"table{number}.csv").write_text(tables.table_csv(comparisons), encoding="utf-8")
    if not all_match:
        print("error: regenerated values diverge from the published tables", file=sys.stderr)
        return 1
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    tally = RowTally()
    usage = aggregate(tally.records(iter_jobs(args.jobs, config, args.details)), config)
    for error in tally.errors:
        print(f"{args.jobs}:{error.line}: {error.message}", file=sys.stderr)
    for orphan in tally.orphans:
        print(f"{args.details}:{orphan.line}: {orphan.message}", file=sys.stderr)
    print(f"{tally.total_rows} rows: {tally.charged} charged, {len(tally.errors)} rejected", file=sys.stderr)
    lines = ["project,partition,total_su"]
    for project, project_usage in usage.items():
        for partition, subtotal in project_usage.by_partition.items():
            lines.append(f"{project},{partition},{format_real(subtotal)}")
        lines.append(f"{project},ALL,{format_real(project_usage.total_su)}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with _writing(args.out):
            Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 1 if tally.errors or tally.orphans else 0


def _add_job_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--partition", required=True, help="partition name from the config")
    parser.add_argument("--nodes", type=int, default=1, help="number of nodes (default 1)")
    parser.add_argument("--cores-per-node", type=int, default=0, help="CPU cores requested per node")
    parser.add_argument("--gpus-per-node", type=int, default=0, help="GPUs requested per node")
    parser.add_argument("--mem-gib-per-node", type=_real_arg, default=Fraction(0), help="memory in GiB per node")
    parser.add_argument("--hours", type=_real_arg, required=True, help="walltime in hours")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumeter", description="Service-unit accounting for heterogeneous clusters."
    )
    parser.add_argument(
        "--config",
        help=f"config file (default: ${CONFIG_ENV_VAR} or ./{DEFAULT_CONFIG}; 'builtin' for the reference system)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    estimate = subparsers.add_parser("estimate", help="price a single job")
    _add_job_flags(estimate)
    estimate.add_argument("--model", choices=MODEL_IDS, help="override the partition's charge model")
    estimate.add_argument("--format", choices=("text", "csv", "json"), default="text")
    estimate.set_defaults(func=cmd_estimate)

    compare = subparsers.add_parser("compare", help="price a job under several models")
    _add_job_flags(compare)
    compare.add_argument("--models", default="energy,sm,peak-perf", help="comma-separated model ids")
    compare.add_argument("--format", choices=("text", "csv", "json"), default="text")
    compare.set_defaults(func=cmd_compare)

    crossover = subparsers.add_parser("crossover", help="sweep speedups and emit decision/energy data")
    crossover.add_argument("--models", default="energy,sm,peak-perf", help="comma-separated model ids")
    crossover.add_argument("--cpu-partition", help="CPU partition (default: first without GPUs)")
    crossover.add_argument("--gpu-partition", help="GPU partition (default: first with GPUs)")
    crossover.add_argument("--s-min", type=_real_arg, default=Fraction(1))
    crossover.add_argument("--s-max", type=_real_arg, default=Fraction(20))
    crossover.add_argument("--steps", type=int, default=96)
    crossover.add_argument("--out", help="CSV output path (default: stdout)")
    crossover.set_defaults(func=cmd_crossover)

    report = subparsers.add_parser("report", help="regenerate the published benchmark tables")
    group = report.add_mutually_exclusive_group()
    group.add_argument("--table", type=int, choices=sorted(tables.PUBLISHED_TABLES))
    group.add_argument("--all", action="store_true", help="all tables (default)")
    report.add_argument("--format", choices=("text", "csv"), default="text")
    report.add_argument("--out", help="directory for per-table CSV files")
    report.set_defaults(func=cmd_report)

    ingest = subparsers.add_parser("ingest", help="charge a jobs CSV and aggregate per project")
    ingest.add_argument("--jobs", required=True, help="jobs CSV path")
    ingest.add_argument("--details", help="optional per-node detail CSV for heterogeneous jobs")
    ingest.add_argument("--out", help="aggregation CSV output path (default: stdout)")
    ingest.set_defaults(func=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here rather than at exit
        return code
    except AccountingError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (`sumeter report | head`). Point stdout at
        # devnull so that the flush at interpreter exit cannot fail again.
        with contextlib.suppress(OSError, ValueError):  # stdout without a file descriptor
            stdout_fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, stdout_fd)
            os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
