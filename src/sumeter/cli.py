"""Command-line front end.

Subcommands: estimate (price one job), compare (side by side across
models), crossover (speedup sweep with plot data), report (regenerate the
published benchmark tables) and ingest (batch-charge a jobs CSV into
per-project totals). Results go to stdout, diagnostics to stderr; exit
code 0 means no errors.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import sys
from fractions import Fraction

from . import analysis, ingest, tables  # deferred by the package's loader: each runs when a command reads it
from .config import SystemConfig, load_config
from .core import ChargeReport, JobRequest, NodeUsage, Partition, energy_estimate_wh, parse_real
from .display import _ratio_text, exact_text, format_real, format_su, format_threshold, round_half_up
from .errors import AccountingError, ConfigError, ValidationError
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
        return tables.builtin_config()
    return load_config(path)


@contextlib.contextmanager
def _writing(out: str | None, name: str = ""):
    """Stdout when `out` is not given or empty. Otherwise a handle on a temporary file that
    replaces `out`, or the file `name` in the directory `out`, only when the block succeeds;
    an OSError is then `cannot write <path>: <reason>`, naming `out` if the directory cannot
    be made and the file otherwise."""
    if not out:
        yield sys.stdout
        return
    path = os.path.join(out, name) if name else out
    temp, handle, failed = f"{path}.{os.getpid()}.tmp", None, out
    try:
        if name:
            os.makedirs(out, exist_ok=True)
            failed = path
        with open(temp, "x", encoding="utf-8") as handle:  # "x" never opens an existing file
            yield handle
        os.replace(temp, path)
    except OSError as err:
        raise ConfigError(f"cannot write {failed}: {err.strerror or err}") from None
    finally:
        if handle is not None and os.path.exists(temp):  # this run made the temporary file
            os.remove(temp)


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


def _job_from_args(config: SystemConfig, args: argparse.Namespace) -> JobRequest:
    partition = config.partition(args.partition)
    usage = NodeUsage(
        cores_used=args.cores_per_node,
        gpus_used=args.gpus_per_node,
        memory_used_gib=args.mem_gib_per_node,
    )
    return JobRequest.uniform(partition, args.nodes, usage, args.hours)


def cmd_estimate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    job = _job_from_args(config, args)
    report = _model_for(job.partition, args.model).charge(job)
    if args.format == "json":
        print(json.dumps(_report_json(args.partition, report, energy_estimate_wh(job))))
    elif args.format == "csv":
        print("model_id,total_su,weight_used,walltime_hours,node_index,node_fraction")
        for i, fraction in enumerate(report.per_node_fraction):
            print(
                f"{report.model_id},{exact_text(report.total_su)},{exact_text(report.weight_used)},"
                f"{exact_text(report.walltime_hours)},{i},{exact_text(fraction)}"
            )
    else:
        print(f"partition: {args.partition}")
        print(f"model: {report.model_id}")
        print(f"node-hour weight: {format_su(round_half_up(report.weight_used))}")
        fractions = report.per_node_fraction  # a uniform job: every node has the same fraction
        print(f"per-node fraction: {format_real(fractions[0])} (x{len(fractions)} nodes)")
        print(f"estimated energy: {format_real(energy_estimate_wh(job))} Wh")
        print(f"total: {format_su(report.total_su)} SU")
    return 0


def _json_number(field: str, value: Fraction) -> float:
    with contextlib.suppress(OverflowError):
        number = float(value)
        if number or not value:  # a nonzero value that no float holds reads as 0.0
            return number
    raise ValidationError(f"{field}: {format_real(value)} is beyond float range; use --format text or csv")


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
    reports = [_model_for(job.partition, model_id).charge(job) for model_id in _models_arg(args.models)]
    if args.format == "json":
        energy_wh = energy_estimate_wh(job)
        print(json.dumps([_report_json(args.partition, report, energy_wh) for report in reports]))
    elif args.format == "csv":
        print("model_id,total_su,weight_used")
        for report in reports:
            print(f"{report.model_id},{exact_text(report.total_su)},{exact_text(report.weight_used)}")
    else:
        print(f"{'model':<12} {'node-hour weight':>16} {'total SU':>14}")
        for report in reports:
            weight = format_su(round_half_up(report.weight_used))
            print(f"{report.model_id:<12} {weight:>16} {format_su(report.total_su):>14}")
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
    analysis.sweep_bounds(args.s_min, args.s_max, args.steps)  # a refused sweep prints no summary

    # Every threshold and the band are worked out before anything is printed, and an --out
    # file is written before the summary, so a refused run prints nothing to stdout.
    cpu_weights = [model.node_weight(cpu_node) for model in models]
    if len(set(cpu_weights)) == 1:
        summary = [f"cpu node-hour weight: {format_su(round_half_up(cpu_weights[0]))}"]
    else:
        summary = [
            f"model {model.id}: cpu node-hour weight {format_su(round_half_up(weight))}"
            for model, weight in zip(models, cpu_weights)
        ]
    for model in models:
        weight = model.node_weight(gpu_node)
        threshold = analysis.decision_threshold(model, cpu_node, gpu_node)
        summary.append(
            f"model {model.id}: gpu node-hour weight {format_su(round_half_up(weight))}, "
            f"decision threshold s = {format_threshold(threshold)}"
        )
    energy_model = next((model for model in models if model.id == "energy"), None)
    if energy_model is not None and len(models) > 1:
        low, high = analysis.efficiency_band(models, cpu_node, gpu_node)
        if high > low:
            summary.append(
                f"efficiency band (energy model alone picks the lower-energy node): "
                f"{format_threshold(low)} < s <= {format_threshold(high)}"
            )
        else:
            summary.append("efficiency band: empty")
    if energy_model is not None:
        # At the energy threshold both runs take the same energy; a tie in price goes to the CPU node.
        priced = analysis.decision_threshold(energy_model, cpu_node, gpu_node)
        energy = analysis.energy_threshold(cpu_node, gpu_node)
        if priced != energy:
            interval = (
                f"{format_threshold(priced)} < s < {format_threshold(energy)}"
                if priced < energy
                else f"{format_threshold(energy)} < s <= {format_threshold(priced)}"
            )
            summary.append(f"energy model picks the higher-energy node: {interval}")

    if not args.out:  # the summary goes to stderr, ahead of the CSV on stdout
        print(*summary, sep="\n", file=sys.stderr)
    with _writing(args.out) as handle:
        analysis.write_sweep_csv(models, cpu_node, gpu_node, handle, args.s_min, args.s_max, args.steps)
    if args.out:
        print(*summary, sep="\n")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    numbers = sorted(tables.PUBLISHED_TABLES) if args.table is None else [args.table]
    compared = {number: tables.compare_with_published(number) for number in numbers}
    if args.out:  # each file is written, one table at a time, before anything is printed
        for number, comparisons in compared.items():
            with _writing(args.out, f"table{number}.csv") as handle:
                handle.write(tables.table_csv(comparisons))
    for number, comparisons in compared.items():
        if args.format == "csv":
            sys.stdout.write(tables.table_csv(comparisons))
        else:
            print(tables.table_text(number, comparisons))
            print()
    if not all(c.matches for comparisons in compared.values() for c in comparisons):
        print("error: regenerated values diverge from the published tables", file=sys.stderr)
        return 1
    return 0


def _csv_name(name: str) -> str:
    """`name` as one CSV field: in quotes, with its quotes doubled, if it holds `,`, `"`, CR or LF."""
    if "," in name or '"' in name or "\r" in name or "\n" in name:
        return '"' + name.replace('"', '""') + '"'
    return name


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_config_arg(args)
    ledger = ingest.Ledger._of_priced_rows(ingest._priced_rows(args.jobs, config, args.details))
    for error in ledger.errors:
        print(f"{args.jobs}:{error.line}: {error.message}", file=sys.stderr)
    for orphan in ledger.orphans:
        print(f"{args.details}:{orphan.line}: {orphan.message}", file=sys.stderr)
    print(f"{ledger.total_rows} rows: {ledger.charged} charged, {len(ledger.errors)} rejected", file=sys.stderr)
    lines = ["project,partition,total_su"]
    for project, subtotals, total in ledger._reduced_sums():
        project = _csv_name(project)
        for partition, subtotal in subtotals:
            lines.append(f"{project},{_csv_name(partition)},{_ratio_text(*subtotal)}")
        lines.append(f"{project},ALL,{_ratio_text(*total)}")
    with _writing(args.out) as handle:
        handle.write("\n".join(lines) + "\n")
    return 1 if ledger.errors or ledger.orphans else 0


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
    group.add_argument("--table", type=int)
    group.add_argument("--all", action="store_true", help="all tables (default)")
    report.add_argument("--format", choices=("text", "csv"), default="text")
    report.add_argument("--out", help="directory for per-table CSV files")
    report.set_defaults(func=cmd_report)

    ingest_parser = subparsers.add_parser("ingest", help="charge a jobs CSV and aggregate per project")
    ingest_parser.add_argument("--jobs", required=True, help="jobs CSV path")
    ingest_parser.add_argument("--details", help="optional per-node detail CSV for heterogeneous jobs")
    ingest_parser.add_argument("--out", help="aggregation CSV output path (default: stdout)")
    ingest_parser.set_defaults(func=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # At exit, move every live object to the collector's permanent generation, so that the
    # shutdown collections skip a process about to end (and with them the `__del__` of objects
    # left in cycles, which CPython does not promise at exit). Unregistering first keeps one
    # registration however often `main` runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
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
