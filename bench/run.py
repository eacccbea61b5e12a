#!/usr/bin/env python3
"""Benchmark for sumeter: seeded inputs, an exact oracle, a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload ingest-wide --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md for why each exists):

- ingest-wide: uniform 1-64 node jobs on the reference system;
- ingest-detail: heterogeneous 1-4 node jobs via --details, one partition per
  charge model, with every kind of bad row the README promises to report;
- cli-oneshot: a fresh `sumeter` process per call over estimate, compare,
  crossover and report.

With `--trace 0` the program is measured from outside: each `sumeter` call is
a child process, timed from spawn to exit, and every output is checked
against the independent oracle in bench/oracle.py. With `--trace 1` the same
work runs in-process with a span around each public layer function, and the
per-layer metrics are printed instead. The last stdout line is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import inputs  # noqa: E402  (siblings of this script)
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("ingest-wide", "ingest-detail", "cli-oneshot")
# The console script's body, plus one read at exit of the child's own peak RSS:
# ru_maxrss of a child started with vfork also counts the parent's peak, since
# exec keeps the replaced address space's high-water mark.
SUMETER = [
    sys.executable,
    "-c",
    "import atexit, os, sys\n"
    "def _peak():\n"
    "    try:\n"
    "        with open('/proc/self/status') as status, open(os.environ['BENCH_PEAK_FILE'], 'w') as out:\n"
    "            out.write(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    "    except (OSError, KeyError, StopIteration):\n"
    "        pass\n"
    "atexit.register(_peak)\n"
    "from sumeter.cli import main\n"
    "sys.exit(main())\n",
]
SETUP_CMD = [sys.executable, "-c", "import sys, sumeter; sumeter.load_config(sys.argv[1])"]
IMPORT_CMD = [
    sys.executable,
    "-c",
    "import time; t = time.perf_counter(); import sumeter.cli; print((time.perf_counter() - t) * 1000)",
]
# Fixed work that never changes with sumeter: imports like a CLI call, then
# exact arithmetic. Its median on the build machine is about 0.175 s.
REFERENCE_CMD = [
    sys.executable,
    "-c",
    "import argparse, csv, dataclasses, json, re\nfrom fractions import Fraction\ntotal = Fraction(0)\n"
    "for i in range(1, 40000):\n    total += Fraction(i % 97, i % 89 + 1)\n",
]
REFERENCE_NOMINAL_S = 0.175
REFERENCE_EVERY_S = 0.75
SETUP_REPEATS = 21
PROBE_REPEATS = 9
MIN_INGEST_CALLS = 3
MIN_CLI_CALLS = 100  # so that p90 has at least ten samples beyond it
TRACE_CLI_CALLS = 36

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "cli.python_startup_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main.ms": "ms",
    "cli.build_parser.s": "s",
    "ingest.load_config.s": "s",
    "ingest.ingest_jobs.rows": "count",
    "ingest.ingest_jobs.rejected": "count",
    "ingest.charge_record.calls": "count",
    "core.node_fraction.calls": "count",
    "core.node_fraction.s": "s",
    "core.node_fraction.distinct_ratio": "ratio",
    "core.energy_estimate_wh.calls": "count",
    "core.energy_estimate_wh.s": "s",
    "core.JobRequest.calls": "count",
    "core.JobRequest.s": "s",
    "core.NodeUsage.calls": "count",
    "core.NodeUsage.s": "s",
    "models.charge.s": "s",
    **{f"models.charge.{m}.calls": "count" for m in inputs.MODEL_IDS},
    "models.node_weight.calls": "count",
    "models.node_weight.s": "s",
    "display.format_real.calls": "count",
    "display.format_real.s": "s",
    "analysis.write_sweep_csv.calls": "count",
    "tables.compare_with_published.calls": "count",
    "cli.self_s": "s",
    "ingest.self_s": "s",
    "core.self_s": "s",
    "models.self_s": "s",
    "display.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


class Report:
    """Human-readable lines on stdout, then the one JSON result line."""

    def __init__(self) -> None:
        self.info: dict = {}

    def line(self, text: str) -> None:
        print(text, flush=True)

    def note(self, key: str, value) -> None:
        self.info[key] = value
        self.line(f"{key}: {value}")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["BENCH_PEAK_FILE"] = str(work / "child.peak")
    env.pop("SUMETER_CONFIG", None)
    return env


def spawn(argv: list[str], env: dict, work: Path) -> tuple[int, float, float, str, str]:
    """Run one child: exit code, wall seconds spawn to exit, peak RSS MiB, stdout, stderr.

    The peak is the child's own VmHWM when it reported one, else ru_maxrss.
    """
    out_path, err_path, peak_path = work / "child.out", work / "child.err", work / "child.peak"
    peak_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    peak_kib = int(peak_path.read_text()) if peak_path.exists() else usage.ru_maxrss
    return proc.returncode, wall, peak_kib / 1024, stdout, stderr


def median_wall(argv: list[str], env: dict, work: Path, repeats: int) -> tuple[float, list[float]]:
    walls = []
    for _ in range(repeats):
        code, wall, _, _, err = spawn(argv, env, work)
        if code != 0:
            raise RuntimeError(f"{argv[2:]} failed: {err.strip()[-500:]}")
        walls.append(wall)
    return statistics.median(walls), walls


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for text in Path("/proc/cpuinfo").read_text().splitlines():
            if text.startswith("model name"):
                cpu = text.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def make_inputs(workload: str, seed: int, scale: float, work: Path) -> inputs.Inputs:
    if workload == "ingest-wide":
        return inputs.generate_wide(seed, work, scale)
    if workload == "ingest-detail":
        return inputs.generate_detail(seed, work, scale)
    return inputs.generate_cli(work)


def ingest_argv(data: inputs.Inputs) -> list[str]:
    argv = ["--config", str(data.config), "ingest", "--jobs", str(data.jobs)]
    if data.details is not None:
        argv += ["--details", str(data.details)]
    return argv


def cross_check_manifest(expect: oracle.IngestExpectation, data: inputs.Inputs) -> None:
    """The oracle's own row verdicts must match what the generator planted."""
    planted_jobs = {m["line"] for m in data.manifest if m["file"] == "jobs"}
    planted_orphans = [m["line"] for m in data.manifest if m["file"] == "details"]
    judged = {r.line for r in expect.rows if not r.charged}
    if judged != planted_jobs or sorted(planted_orphans) != expect.orphan_lines:
        raise RuntimeError(
            f"oracle and generator disagree on bad rows: oracle-only {sorted(judged - planted_jobs)[:5]}, "
            f"generator-only {sorted(planted_jobs - judged)[:5]}"
        )


class Checker:
    """Accumulates oracle verdicts over every call of a run.

    On ingest workloads every call ingests the same input, so an operation
    (a job, or a detail row that belongs to no job) is attempted once per run
    and fails if any call got it wrong. `attempted` and `failed` then do not
    depend on how many calls fit into the run. On cli-oneshot each call is an
    operation of its own.
    """

    def __init__(self, workload: str, data: inputs.Inputs) -> None:
        self.data = data
        self.system = oracle.load_system(data.config)
        self.attempted = 0
        self.failures: dict[tuple[str, int], str] = {}
        self.expect = None
        if workload != "cli-oneshot":
            self.expect = oracle.expect_ingest(self.system, data.jobs, data.details)
            cross_check_manifest(self.expect, data)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def unexplained(self) -> int:
        return sum(reason not in oracle.KNOWN_DEFECTS for reason in self.failures.values())

    def ingest(self, code: int, stdout: str, stderr: str) -> None:
        details = str(self.data.details.name) if self.data.details else None
        verdict = oracle.check_ingest(self.expect, code, stdout, stderr, str(self.data.jobs), details)
        self.attempted = verdict.attempted
        for operation, reason in verdict.failures.items():
            self.failures.setdefault(operation, reason)

    def cli(self, kind: str, argv: list[str], code: int, stdout: str, stderr: str) -> None:
        self.attempted += 1
        reason = oracle.check_cli(self.system, kind, argv, code, stdout, stderr)
        if reason:
            self.failures[("call", self.attempted)] = reason

    def report(self, report: Report) -> None:
        rate = self.failed / self.attempted if self.attempted else 0.0
        report.note("error_rate", f"{rate:.6g} ({self.failed} failed / {self.attempted} attempted)")
        reasons: dict[str, int] = {}
        for reason in self.failures.values():
            reasons[reason] = reasons.get(reason, 0) + 1
        for reason, count in sorted(reasons.items()):
            known = oracle.KNOWN_DEFECTS.get(reason)
            suffix = f" -- known defect: {known}" if known else " -- UNEXPLAINED"
            report.line(f"  failed: {count} x {reason}{suffix}")


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest order
    statistics (statistics.quantiles, inclusive method). With the 30 or so
    calls of an ingest run the exclusive method would read off the maximum."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class Timeline:
    """Child runs interleaved with a fixed reference process.

    The build machine's speed drifts by up to 2x over tens of seconds, and
    a 40 s run cannot average that out. So a reference process, which uses
    the standard library only and never changes with sumeter, is timed at
    least every REFERENCE_EVERY_S. Each child's wall time is also reported
    scaled by REFERENCE_NOMINAL_S / (mean of the references just before and
    after it): the time it would take on a machine where the reference takes
    its nominal time. Parent and change see the same reference, so the
    scaling cancels in every comparison.
    """

    def __init__(self, env: dict, work: Path) -> None:
        self.env = env
        self.work = work
        self.events: list[tuple[str, float]] = []  # (tag, wall s); tag "reference" for the reference
        self.last_reference = float("-inf")

    def reference(self) -> None:
        code, wall, _, _, err = spawn(REFERENCE_CMD, self.env, self.work)
        if code != 0:
            raise RuntimeError(f"reference process failed: {err.strip()[-500:]}")
        self.events.append(("reference", wall))
        self.last_reference = perf_counter()

    def run(self, tag: str, argv: list[str]) -> tuple[int, float, float, str, str]:
        if perf_counter() - self.last_reference >= REFERENCE_EVERY_S:
            self.reference()
        result = spawn(argv, self.env, self.work)
        self.events.append((tag, result[1]))
        return result

    def raw(self, tag: str) -> list[float]:
        return [wall for t, wall in self.events if t == tag]

    def close(self) -> None:
        """Time the reference once more, so that every sample has one after it."""
        self.reference()

    def scaled(self, tag: str) -> list[float]:
        """Wall times of `tag`, scaled to the reference's nominal speed."""
        out, pending, before = [], [], None
        for t, wall in self.events:
            if t == "reference":
                bracket = wall if before is None else (before + wall) / 2
                out += [w * REFERENCE_NOMINAL_S / bracket for w in pending]
                pending, before = [], wall
            elif t == tag:
                pending.append(wall)
        return out


def timed_run(seed: int, seconds: float, data: inputs.Inputs, checker: Checker, env: dict, report: Report, scale: float) -> dict:
    work = data.directory
    timeline = Timeline(env, work)
    setup_argv = SETUP_CMD + [str(data.config)]
    spawn(setup_argv, env, work)  # warm-up: compile bytecode once, untimed
    # A call starts only while one more of median length still ends in time,
    # so a run, set-up samples included, lasts about `seconds`. Set-up samples
    # are spread evenly over the run, so that their median is not that of a
    # single burst of the host's load.
    start = perf_counter()
    deadline = start + seconds
    setups = 0

    def setup_sample() -> None:
        nonlocal setups
        code, _, _, _, err = timeline.run("setup", setup_argv)
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        setups += 1

    rss: list[float] = []
    digest = None
    minimum = MIN_INGEST_CALLS if checker.expect else max(6, int(MIN_CLI_CALLS * min(scale, 1.0)))
    calls = None if checker.expect else inputs.cli_calls(seed, data.config)
    kinds: dict[str, int] = {}
    while len(rss) < minimum or perf_counter() + statistics.median(timeline.raw("call")) <= deadline:
        if setups < SETUP_REPEATS and setups <= SETUP_REPEATS * (perf_counter() - start) / seconds:
            setup_sample()
        if calls is None:
            code, _, peak, stdout, stderr = timeline.run("call", SUMETER + ingest_argv(data))
            checker.ingest(code, stdout, stderr)
        else:
            kind, argv = next(calls)
            code, _, peak, stdout, stderr = timeline.run("call", SUMETER + argv)
            checker.cli(kind, argv, code, stdout, stderr)
            kinds[kind] = kinds.get(kind, 0) + 1
        if digest is None:
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        rss.append(peak)
    while setups < SETUP_REPEATS:
        setup_sample()
    timeline.close()

    setup, walls = timeline.scaled("setup"), timeline.scaled("call")
    raw_setup, raw_walls = timeline.raw("setup"), timeline.raw("call")
    references = timeline.raw("reference")
    rows = data.sizes.get("job_rows")
    report.note("samples", {"setup": len(setup), "calls": len(walls), "references": len(references), **({"calls_by_kind": kinds} if kinds else {})})
    report.info["walls_s"] = {"setup": raw_setup, "call": raw_walls, "reference": references}
    report.info["scaled_walls_s"] = {"setup": setup, "call": walls}
    report.note("first_stdout_sha256 (information only)", digest)
    report.line(
        f"reference process: median {statistics.median(references):.4f} s, nominal {REFERENCE_NOMINAL_S} s; "
        f"unscaled medians: setup {statistics.median(raw_setup):.4f} s, call {statistics.median(raw_walls) * 1000:.1f} ms"
    )
    if rows:
        report.line(f"ops_per_s: job rows per second of one `sumeter ingest` child, input {rows} job rows")
    else:
        report.line("ops_per_s: `sumeter` calls per second, one client, closed loop")
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": rows / statistics.median(walls) if rows else len(walls) / sum(walls),
        "cli_p50_ms": statistics.median(walls) * 1000,
        "cli_p90_ms": quantile(walls, 90) * 1000,
        "peak_rss_mib": statistics.median(rss),
    }


def in_process(argv: list[str]) -> tuple[int, str, str]:
    """cli.main with captured stdio; any exception is reported like a crash."""
    from sumeter.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the benchmark must keep running and count the failure
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def subcommand(argv: list[str]) -> str:
    return next(a for a in argv if a in ("estimate", "compare", "crossover", "report", "ingest"))


def traced_run(seed: int, data: inputs.Inputs, checker: Checker, env: dict, report: Report) -> dict:
    work = data.directory
    spawn(IMPORT_CMD, env, work)  # warm-up: compile bytecode once, untimed
    startup_s, _ = median_wall([sys.executable, "-c", "pass"], env, work, PROBE_REPEATS)
    import_ms = []
    for _ in range(PROBE_REPEATS):
        code, _, _, stdout, stderr = spawn(IMPORT_CMD, env, work)
        if code != 0:
            raise RuntimeError(f"import sumeter.cli failed: {stderr.strip()[-500:]}")
        import_ms.append(float(stdout))

    sys.path.insert(0, str(SRC))
    import sumeter.cli  # noqa: F401

    if checker.expect:
        work_items = [("ingest", ingest_argv(data))]
    else:
        calls = inputs.cli_calls(seed, data.config)
        work_items = [next(calls) for _ in range(TRACE_CLI_CALLS)]
        for kind, argv in work_items[: len(inputs.CLI_KINDS)]:
            in_process(argv)  # warm-up of lazily built module state, untimed

    # Untraced passes before and after the traced one, so that warming up
    # does not count as tracing overhead.
    untraced: dict[str, list[float]] = {}
    for kind, argv in work_items:
        start = perf_counter()
        in_process(argv)
        untraced.setdefault(subcommand(argv), []).append((perf_counter() - start) * 1000)

    tracer = spans.Tracer()
    traced_total = 0.0
    with spans.patched(tracer):
        for kind, argv in work_items:
            start = perf_counter()
            code, stdout, stderr = tracer.call(f"cli.main.{subcommand(argv)}", in_process, argv)
            traced_total += (perf_counter() - start) * 1000
            if checker.expect:
                checker.ingest(code, stdout, stderr)
            else:
                checker.cli(kind, argv, code, stdout, stderr)
    tracer.write(work / "trace.csv")
    for kind, argv in work_items:
        start = perf_counter()
        in_process(argv)
        untraced[subcommand(argv)].append((perf_counter() - start) * 1000)
    untraced_total = sum(sum(v) for v in untraced.values()) / 2

    def total(name: str) -> float:
        return tracer.total.get(name, 0.0)

    def calls(name: str) -> int:
        return tracer.calls.get(name, 0)

    def prefixed(prefix: str, table) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    layers = tracer.layer_self_times()
    charged = tracer.fraction_calls_in_charges
    metrics = {
        "cli.python_startup_ms": startup_s * 1000,
        "cli.import_ms": statistics.median(import_ms),
        "cli.main.ms": statistics.median([ms for v in untraced.values() for ms in v]),
        "cli.build_parser.s": total("cli.build_parser"),
        "ingest.load_config.s": total("ingest.load_config"),
        "ingest.ingest_jobs.rows": tracer.results["ingest.ingest_jobs.rows"],
        "ingest.ingest_jobs.rejected": tracer.results["ingest.ingest_jobs.rejected"],
        "ingest.charge_record.calls": calls("ingest.charge_record"),
        "core.node_fraction.calls": calls("core.node_fraction"),
        "core.node_fraction.s": total("core.node_fraction"),
        "core.node_fraction.distinct_ratio": tracer.fraction_distinct_in_charges / charged if charged else 0.0,
        "core.energy_estimate_wh.calls": calls("core.energy_estimate_wh"),
        "core.energy_estimate_wh.s": total("core.energy_estimate_wh"),
        "core.JobRequest.calls": calls("core.JobRequest"),
        "core.JobRequest.s": total("core.JobRequest"),
        "core.NodeUsage.calls": calls("core.NodeUsage"),
        "core.NodeUsage.s": total("core.NodeUsage"),
        "models.charge.s": prefixed("models.charge.", tracer.total),
        **{f"models.charge.{m}.calls": calls(f"models.charge.{m}") for m in inputs.MODEL_IDS},
        "models.node_weight.calls": prefixed("models.node_weight.", tracer.calls),
        "models.node_weight.s": prefixed("models.node_weight.", tracer.total),
        "display.format_real.calls": calls("display.format_real"),
        "display.format_real.s": total("display.format_real"),
        "analysis.write_sweep_csv.calls": calls("analysis.write_sweep_csv"),
        "tables.compare_with_published.calls": calls("tables.compare_with_published"),
        **{f"{layer}.self_s": layers.get(layer, 0.0) for layer in ("cli", "ingest", "core", "models", "display")},
        "trace.overhead_ratio": traced_total / untraced_total,
        "trace.spans": len(tracer.spans),
    }

    report.line("spans (traced pass): name, calls, total s, self s")
    for name in sorted(tracer.total, key=tracer.total.get, reverse=True):
        report.line(f"  {name:<36} {tracer.calls[name]:>9} {tracer.total[name]:>11.6f} {tracer.self_time[name]:>11.6f}")
    report.line("self time per layer (s): " + ", ".join(f"{k}={v:.6f}" for k, v in sorted(layers.items())))
    for sub, values in sorted(untraced.items()):
        report.line(f"cli.main.{sub}.ms (in-process, untraced, median of {len(values)}): {statistics.median(values):.4f}")
    if checker.expect:
        rows = data.sizes["job_rows"]
        report.line(
            f"tracing overhead: {rows / untraced_total * 1000:.2f} job rows/s untraced vs "
            f"{rows / traced_total * 1000:.2f} traced in-process (ratio {traced_total / untraced_total:.3f})"
        )
    else:
        report.line(f"tracing overhead: {untraced_total:.2f} ms untraced vs {traced_total:.2f} ms traced for {len(work_items)} calls")
    report.note("samples", {"startup_probes": PROBE_REPEATS, "import_probes": PROBE_REPEATS, "in_process_calls": len(work_items)})
    report.note("trace_file", str((work / "trace.csv").relative_to(ROOT)))
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="input size factor; the self-check uses a small one")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "sumeter" / "cli.py").is_file():
        print(f"error: no sumeter sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    report = Report()
    report.line(f"# sumeter benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    data = make_inputs(args.workload, args.seed, args.scale, work)
    checker = Checker(args.workload, data)
    report.note("environment", environment())
    report.note("input", data.sizes or {"calls": "seeded round robin over " + ", ".join(inputs.CLI_KINDS)})
    env = child_env(work)
    if args.trace:
        metrics = traced_run(args.seed, data, checker, env, report)
        units = PER_LAYER
    else:
        metrics = timed_run(args.seed, args.seconds, data, checker, env, report, args.scale)
        units = END_TO_END
    checker.report(report)
    for name, unit in units.items():
        report.line(f"metric {name} = {metrics[name]} {unit}")
    result = {
        "correct": checker.unexplained == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({**report.info, **result}, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
