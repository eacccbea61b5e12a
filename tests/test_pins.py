"""The pinned outputs: bytes that must come out the same on every Python, each checked here only.

Each expectation is a literal: a whole output line, a substring, a file's text, or the sha256
of what a command prints. A pin that stops holding means an output changed. Find out why; do
not paste in the new text.

The seed-5 ledger pins run `sumeter ingest` in a fresh interpreter for each `PYTHONHASHSEED`.
An interpreter fixes its hash seed when it starts, so only a new process can show that the
ledger does not depend on the order of a set or a dict. The inputs come from the benchmark's
own generator. It runs under `-B`, so that it writes no bytecode cache into `bench/`: a stray
cache in a measured tree moves what `bench/run.py` reports (see CHANGES.md).
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, pinned, whole_line",
    [
        (["estimate", "--partition", "gpu", "--gpus-per-node", "1", "--hours", "1/3"],
         "estimated energy: 133.333 Wh", True),
        (["compare", "--partition", "gpu", "--gpus-per-node", "1", "--cores-per-node", "9", "--hours", "1/3",
          "--format", "json"],
         '"energy_wh": 158.33333333333334', False),
        # a multi-node estimate: the uniform job's one usage, counted once per node
        (["estimate", "--partition", "gpu", "--nodes", "250", "--gpus-per-node", "1", "--cores-per-node", "9",
          "--hours", "1/3"],
         "estimated energy: 39583.3 Wh", True),
        (["estimate", "--partition", "gpu", "--nodes", "250", "--gpus-per-node", "1", "--cores-per-node", "9",
          "--hours", "1/3", "--format", "json"],
         '"energy_wh": 39583.333333333336', False),
    ],
    ids=["estimate-text", "compare-json", "multi-node-text", "multi-node-json"],
)
def test_energy_estimate(capsys, argv, pinned, whole_line):
    code, out, _ = run(capsys, "--config", "builtin", *argv)
    assert code == 0
    assert pinned in (out.splitlines() if whole_line else out)


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "1df56cc715ed75f95160aabc5adbfaa8e8973aa78fbcfcf76261565f2bb87855"),
        ("csv", "972770dfa957d27d7e8977fa88f2191b479c8a012c6787847d773ba98e615e22"),
    ],
    ids=["text", "csv"],
)
def test_published_tables(capsys, fmt, digest):
    code, out, _ = run(capsys, "report", "--all", "--format", fmt)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# a decimal, a p/q and an underscore cell, and a quoted project name
JOBS = (
    "job_id,project,partition,nodes,cores_per_node,gpus_per_node,mem_gib_per_node,elapsed_hours\n"
    "j1,p,cpu,1,4,0,0,1_0\n"
    "j2,p,gpu,2,0,0,0,2.5\n"
    'j3,"p,q",cpu,1,4,0,0,1\n'
)
DETAILS = "job_id,node_index,cores,gpus,mem_gib\nj2,0,9,1,0\nj2,1,0,0,64/3\n"
LEDGER = 'project,partition,total_su\np,cpu,40\np,gpu,160\np,ALL,200\n"p,q",cpu,4\n"p,q",ALL,4\n'


@pytest.mark.parametrize("sink", ["stdout", "out"])
def test_ledger(capsys, tmp_path, sink):
    jobs, details, out_path = tmp_path / "jobs.csv", tmp_path / "details.csv", tmp_path / "ledger.csv"
    jobs.write_text(JOBS, encoding="utf-8")
    details.write_text(DETAILS, encoding="utf-8")
    argv = ["--config", "builtin", "ingest", "--jobs", str(jobs), "--details", str(details)]
    if sink == "out":
        assert run(capsys, *argv, "--out", str(out_path))[:2] == (0, "")
        assert out_path.read_bytes() == LEDGER.encode()
    else:
        assert run(capsys, *argv)[:2] == (0, LEDGER)


def test_sweep_written_with_out_is_the_one_printed(capsys, tmp_path):
    code, printed, _ = run(capsys, "--config", "builtin", "crossover")
    assert code == 0
    out_path = tmp_path / "sweep.csv"
    assert run(capsys, "--config", "builtin", "crossover", "--out", str(out_path))[0] == 0
    assert out_path.read_bytes() == printed.encode()


# float text, an extra resource, and null rates read as the default ones
PUHTI_SYSTEM = """\
{"partitions": [{"name": "shared", "model": "puhti", "model_parameters": {"rates": null},
  "node": {"name": "v100-node", "memory_total_gib": 384, "extra_resources": {"nvme_gib": 1490},
  "cpus": [{"name": "Xeon Gold 6230", "cores": 20, "tdp_watts": 125, "peak_flops": 1.5e12, "count": 2}],
  "gpus": [{"name": "V100", "streaming_multiprocessors": 80, "tdp_watts": 300, "peak_flops": 7e12, "count": 4}]}}]}
"""


def test_json_config_with_null_puhti_rates(capsys, tmp_path):
    config = tmp_path / "system.json"
    config.write_text(PUHTI_SYSTEM, encoding="utf-8")
    code, out, _ = run(
        capsys,
        "--config", str(config),
        "estimate", "--partition", "shared", "--cores-per-node", "10", "--gpus-per-node", "1", "--hours", "2",
        "--format", "csv",
    )
    assert code == 0
    assert "puhti,140,327.34,2,0,3500/16367" in out.splitlines()


# sha256 of what `sumeter ingest` prints for each seed-5 input: (ledger, diagnostics)
SEED5 = {
    "wide": (
        "8aac95379090a06336bc07b542b1148db49f1deecf5b093eefb84cf0e39df3c8",
        "0697a49d4d62739f4d9ad50b321cdc3d0be96b034a6b74c1b846978738aa81ed",
    ),
    "detail": (
        "f2c3cdabe7077d0f2c34d3411dd3e6abf775551c07a5147c334b0ccf8fc1e428",
        "11478f8ccbb2610cd8e2a92e50882ed0f27e8dae53ca7d22c44742176e33d719",
    ),
}
GENERATE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import inputs; from pathlib import Path\n"
    "inputs.generate_wide(5, Path('wide')); inputs.generate_detail(5, Path('detail'))"
)


@pytest.fixture(scope="module")
def seed5(tmp_path_factory):
    """A directory holding the benchmark's seed-5 `wide/` and `detail/` inputs."""
    directory = tmp_path_factory.mktemp("seed5")
    subprocess.run([sys.executable, "-B", "-c", GENERATE, str(ROOT / "bench")], cwd=directory, check=True, timeout=120)
    return directory


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("hashseed", ["0", "1"])
def test_seed5_ingest(seed5, tmp_path, hashseed, sink):
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hashseed}
    digests = {}
    for name in SEED5:
        # relative paths, as the diagnostics name the files by them
        argv = ["--config", f"{name}/system.json", "ingest", "--jobs", f"{name}/jobs.csv"]
        if name == "detail":
            argv += ["--details", "detail/details.csv"]
        out_path = tmp_path / f"{name}.out"
        if sink == "out":
            argv += ["--out", str(out_path)]
        proc = subprocess.run(
            [sys.executable, "-m", "sumeter.cli", *argv], cwd=seed5, env=env, capture_output=True, timeout=120
        )
        # both inputs hold bad rows, so each ingest exits 1
        assert proc.returncode == 1, proc.stderr
        if sink == "out":
            assert proc.stdout == b""
        ledger = out_path.read_bytes() if sink == "out" else proc.stdout
        digests[name] = (hashlib.sha256(ledger).hexdigest(), hashlib.sha256(proc.stderr).hexdigest())
    assert digests == SEED5
