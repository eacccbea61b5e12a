#!/usr/bin/env python3
"""Self-check of the benchmark itself.

Run from the repository root:

    python3 bench/selfcheck.py

It runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and asserts that the result line has the contract's keys, that error_rate is
computed and that every named metric is printed with its unit. It checks that
the oracle flags a wrong total, a missing rejection and a crash, and that the
runner exits nonzero without printing a result when the sources are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}", flush=True)


def run(command: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    label = f"{workload} trace={trace}"
    args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--scale", "0.02"]
    proc = run(spec["command"] + args, ROOT)
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-800:]}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last stdout line is not JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: oracle found unexplained failures")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted {result['attempted']}")
    check(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], f"{label}: failed {result['failed']}")
    check(any(line.startswith("error_rate: ") for line in lines), f"{label}: no error_rate line")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    check(set(got) == set(wanted), f"{label}: metrics differ: missing {set(wanted) - set(got)}, extra {set(got) - set(wanted)}")
    for name, unit in wanted.items():
        entry = got.get(name, {})
        check(entry.get("unit") == unit, f"{label}: {name} unit {entry.get('unit')!r}, want {unit!r}")
        value = entry.get("value")
        check(isinstance(value, (int, float)) and not isinstance(value, bool), f"{label}: {name} value {value!r}")
        if not trace:
            check(isinstance(value, (int, float)) and value > 0, f"{label}: end-to-end {name} must never be 0")
        check(any(line.startswith(f"metric {name} = ") for line in lines), f"{label}: {name} not printed by name")


def check_oracle() -> None:
    """The oracle must not be vacuous: planted mistakes have to count as failures."""
    work = ROOT / ".bench_out" / "selfcheck-oracle"
    shutil.rmtree(work, ignore_errors=True)
    data = inputs.generate_wide(7, work, scale=0.02)
    system = oracle.load_system(data.config)
    expect = oracle.expect_ingest(system, data.jobs, None)
    lines = ["project,partition,total_su"] + [f"{p},{part},{float(v):.6g}" for (p, part), v in sorted(expect.totals.items())]
    stdout = "\n".join(lines) + "\n"
    stderr = "".join(f"{data.jobs}:{r.line}: rejected\n" for r in expect.rows if not r.charged)

    def failed(out: str, err: str, code: int = expect.exit_code) -> int:
        return oracle.check_ingest(expect, code, out, err, str(data.jobs), None).failed

    check(failed(stdout, stderr) == 0, "oracle: its own totals do not pass")
    project, partition, value = lines[1].split(",")
    wrong = stdout.replace(lines[1], f"{project},{partition},{float(value) * 1.001:.6g}", 1)
    check(failed(wrong, stderr) > 0, "oracle: a total off by 0.1% passed")
    check(failed(stdout, stderr.split("\n", 1)[1]) > 0, "oracle: an unreported bad row passed")
    check(failed("", stderr + oracle.TRACEBACK + "\n", 1) == expect.attempted, "oracle: a crash did not fail every row")


def check_bare_directory(spec: dict) -> None:
    """Without the sources next to it the benchmark must fail and print no result."""
    bare = ROOT / ".bench_out" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    check(proc.returncode != 0, "bare directory: benchmark exited 0")
    check('"metrics"' not in proc.stdout, "bare directory: benchmark printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_oracle()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, workload["name"], trace)
    check_bare_directory(spec)
    print("selfcheck:", "FAILED" if FAILURES else "ok", flush=True)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
