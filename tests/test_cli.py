"""End-to-end CLI behaviour: subcommands, formats, exit codes."""

import copy
import csv
import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sumeter import cli, tables
from sumeter.analysis import MAX_SWEEP_STEPS
from conftest import TEST_CONFIG, run, write_jobs_csv

SRC = Path(__file__).resolve().parent.parent / "src"
ESTIMATE = ["--config", "builtin", "estimate", "--partition", "gpu", "--gpus-per-node", "4", "--hours", "1"]


def run_python(*args, cwd=None):
    """The exit code, stdout and stderr bytes of a fresh interpreter given `args`, with this tree's sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, cwd=cwd, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestEstimate:
    def test_one_core_hour(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "work", "--cores-per-node", "1",
            "--mem-gib-per-node", "2", "--hours", "1",
        )
        assert code == 0
        assert "total: 1 SU" in out

    def test_full_gpu_node(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "gpu", "--gpus-per-node", "4", "--hours", "1",
        )
        assert code == 0
        assert "total: 192 SU" in out
        assert "node-hour weight: 192" in out

    def test_one_core_all_memory(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "work", "--cores-per-node", "1",
            "--mem-gib-per-node", "256", "--hours", "1",
        )
        assert code == 0
        assert "total: 36 SU" in out

    def test_capacity_error_exits_nonzero(self, capsys, config_path):
        code, out, err = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "work", "--cores-per-node", "99", "--hours", "1",
        )
        assert code == 1
        assert "error" in err
        assert not out

    def test_capacity_message_quotes_the_amount_exactly(self, capsys):
        code, out, err = run(
            capsys, "--config", "builtin",
            "estimate", "--partition", "cpu", "--cores-per-node", "1", "--mem-gib-per-node", "256.0000001", "--hours", "1",
        )
        assert (code, out) == (1, "")
        assert err == "error: 256.0000001 GiB requested but node type 'dual-xeon-6240' has 256 GiB\n"

    def test_csv_amounts_are_exact(self, capsys):
        code, out, _ = run(
            capsys, "--config", "builtin",
            "estimate", "--partition", "cpu", "--cores-per-node", "1", "--hours", "1/3", "--format", "csv",
        )
        assert (code, out.splitlines()[1:]) == (0, ["energy,1/3,36,1/3,0,1/36"])

    def test_json_format_stable(self, capsys, config_path):
        argv = (
            "--config", str(config_path),
            "estimate", "--partition", "gpu", "--gpus-per-node", "1",
            "--hours", "2", "--format", "json",
        )
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert first == second
        payload = json.loads(first)
        assert payload["total_su"] == 96.0
        assert payload["model_id"] == "energy"
        assert payload["per_node_fraction"] == [0.25]

    def test_model_override(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "gpu", "--gpus-per-node", "4",
            "--hours", "1", "--model", "sm",
        )
        assert code == 0
        assert "total: 432 SU" in out

    def test_builtin_config(self, capsys):
        code, out, _ = run(
            capsys,
            "--config", "builtin",
            "estimate", "--partition", "cpu", "--cores-per-node", "36", "--hours", "1",
        )
        assert code == 0
        assert "total: 36 SU" in out

    def test_env_var_supplies_config(self, capsys, config_path, monkeypatch):
        monkeypatch.setenv("SUMETER_CONFIG", str(config_path))
        code, out, _ = run(
            capsys, "estimate", "--partition", "work", "--cores-per-node", "18", "--hours", "1"
        )
        assert code == 0
        assert "total: 18 SU" in out


class TestCompare:
    def test_gpu_node_hour_across_models(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "compare", "--partition", "gpu", "--gpus-per-node", "4", "--hours", "1",
            "--models", "energy,sm,peak-perf",
        )
        assert code == 0
        for token in ("192", "432", "466"):
            assert token in out

    def test_csv_amounts_are_exact(self, capsys):
        code, out, _ = run(
            capsys, "--config", "builtin",
            "compare", "--partition", "cpu", "--nodes", "1000", "--cores-per-node", "36", "--hours", "1000.5",
            "--models", "energy", "--format", "csv",
        )
        assert (code, out) == (0, "model_id,total_su,weight_used\nenergy,36018000,36\n")

    def test_cpu_job_identical_across_weight_models(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "compare", "--partition", "work", "--cores-per-node", "9", "--hours", "1",
            "--models", "energy,sm,peak-perf", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert len({row["total_su"] for row in rows}) == 1

    def test_titan_node_hour(self, capsys, config_path):
        code, out, _ = run(
            capsys,
            "--config", str(config_path),
            "compare", "--partition", "legacy", "--cores-per-node", "16", "--hours", "1",
            "--models", "titan", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["total_su"] == "30"

    def test_unknown_model_rejected(self, capsys, config_path):
        code, _, err = run(
            capsys,
            "--config", str(config_path),
            "compare", "--partition", "work", "--cores-per-node", "1", "--hours", "1",
            "--models", "energy,flops",
        )
        assert code == 1
        assert "flops" in err

    def test_an_empty_model_list_is_refused(self, capsys, config_path):
        code, out, err = run(
            capsys,
            "--config", str(config_path),
            "compare", "--partition", "work", "--cores-per-node", "1", "--hours", "1", "--models", ",",
        )
        assert (code, out, err) == (1, "", "error: no models given\n")


class TestCrossover:
    def test_thresholds_printed(self, capsys, config_path, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "--config", str(config_path), "crossover", "--out", str(out_file)
        )
        assert code == 0
        assert "5.33" in out
        assert "threshold s = 12\n" in out or "threshold s = 12 " in out
        assert "12.93" in out

    def test_csv_row_count_equals_steps(self, capsys, config_path, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "--config", str(config_path),
            "crossover", "--steps", "25", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 26  # header + steps

    def test_invalid_range(self, capsys, config_path):
        code, _, err = run(
            capsys,
            "--config", str(config_path),
            "crossover", "--s-min", "1", "--s-max", "1",
        )
        assert code == 1
        assert "s_min" in err

    def test_steps_are_bounded(self, capsys, config_path):
        code, out, err = run(
            capsys, "--config", str(config_path), "crossover", "--steps", str(MAX_SWEEP_STEPS + 1)
        )
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"error: at most {MAX_SWEEP_STEPS} sweep steps, got {MAX_SWEEP_STEPS + 1}"

    def test_gpu_partition_must_have_gpus(self, capsys, config_path):
        code, _, err = run(
            capsys,
            "--config", str(config_path),
            "crossover", "--gpu-partition", "work",
        )
        assert code == 1
        assert "no GPUs" in err

    def test_a_config_without_a_gpu_partition_is_refused(self, capsys, tmp_path):
        config_path = tmp_path / "system.json"
        config_path.write_text(json.dumps({"partitions": TEST_CONFIG["partitions"][:1]}), encoding="utf-8")
        code, out, err = run(capsys, "--config", str(config_path), "crossover")
        assert (code, out) == (1, "")
        assert err == "error: config needs both a CPU-only and a GPU partition (or name them explicitly)\n"

    def test_cpu_partition_must_have_no_gpus(self, capsys, config_path):
        code, out, err = run(capsys, "--config", str(config_path), "crossover", "--cpu-partition", "gpu")
        assert (code, out) == (1, "")
        assert err == "error: partition 'gpu' has GPUs; pick a CPU-only baseline partition\n"

    def test_uses_the_configured_model_parameters(self, capsys, tmp_path):
        data = copy.deepcopy(TEST_CONFIG)
        data["partitions"][4]["model_parameters"] = {"rates": {"core": 2}}
        config_path = tmp_path / "system.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(
            capsys,
            "--config", str(config_path),
            "crossover", "--models", "puhti", "--cpu-partition", "work", "--gpu-partition", "shared",
            "--steps", "2",
        )
        assert code == 0
        # 40 cores at 2 + 38.4 GiB-rate + 8.94 NVMe-rate + 4 GPUs at 60; the default rates give 327
        assert "model puhti: gpu node-hour weight 367," in err

    def test_a_model_pricing_the_cpu_node_at_zero_is_an_error(self, capsys, tmp_path):
        data = copy.deepcopy(TEST_CONFIG)
        data["partitions"][4]["model_parameters"] = {"rates": {"core": 0, "memory_gib": 0, "nvme_gib": 0, "gpu": 60}}
        config_path = tmp_path / "system.json"
        config_path.write_text(json.dumps(data), encoding="utf-8")
        out_path = tmp_path / "sweep.csv"
        out_path.write_bytes(b"old\n")
        argv = ["crossover", "--models", "puhti", "--cpu-partition", "work", "--gpu-partition", "shared"]
        for out in ([], ["--out", str(out_path)]):  # no part of the summary is printed, to either stream
            code, stdout, err = run(capsys, "--config", str(config_path), *argv, *out)
            assert (code, stdout) == (1, "")
            assert err == "error: model 'puhti' prices CPU node type 'dual-xeon-6240' at zero; no decision threshold\n"
        assert out_path.read_bytes() == b"old\n"

    @pytest.mark.parametrize(
        "host_watts, band, higher",
        [
            (280, "4.44 < s <= 6.88", "3.57 < s < 4.44"),
            (150, "6.67 < s <= 6.88", "4.44 < s <= 6.67"),
        ],
        ids=["priced-below-energy", "energy-below-priced"],
    )
    def test_the_energy_models_higher_energy_picks_are_stated(self, capsys, tmp_path, host_watts, band, higher):
        # a CPU node of 2 x 64 cores at 225 W, and a GPU node of 64 host cores and 4 GPUs at 500 W:
        # the GPU run takes less energy above 2000 / 450 = 4.44, wherever the energy model switches
        def partition(name, cpus, gpus):
            node = {"name": name, "memory_total_gib": 256, "cpus": cpus, "gpus": gpus}
            return {"name": name, "model": "energy", "node_count": 10, "node": node}

        cpu = {"name": "c", "cores": 64, "tdp_watts": 225, "peak_flops": 1e12, "count": 2}
        host = {"name": "h", "cores": 64, "tdp_watts": host_watts, "peak_flops": 1e12}
        gpu = {"name": "g", "streaming_multiprocessors": 220, "tdp_watts": 500, "peak_flops": 1e13, "count": 4}
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"partitions": [partition("cpu", [cpu], []), partition("gpu", [host], [gpu])]}))
        code, _, err = run(capsys, "--config", str(path), "crossover", "--models", "energy,sm", "--steps", "2")
        assert code == 0
        assert err.splitlines()[-2:] == [
            f"efficiency band (energy model alone picks the lower-energy node): {band}",
            f"energy model picks the higher-energy node: {higher}",
        ]

    def test_csv_to_stdout_keeps_summary_on_stderr(self, capsys, config_path):
        code, out, err = run(capsys, "--config", str(config_path), "crossover", "--steps", "5")
        assert code == 0
        assert out.startswith("speedup,")
        assert "threshold" in err


class TestReport:
    def test_all_tables(self, capsys):
        code, out, _ = run(capsys, "report", "--all")
        assert code == 0
        for token in ("Reference table 2", "Reference table 3", "Reference table 4"):
            assert token in out
        assert out.count("13/13") == 3

    def test_single_table_csv(self, capsys):
        code, out, _ = run(capsys, "report", "--table", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        assert "AMBER,153,5508,192,28.6875" in out

    def test_out_dir(self, capsys, tmp_path):
        out_dir = tmp_path / "tables"
        code, _, _ = run(capsys, "report", "--all", "--out", str(out_dir))
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["table2.csv", "table3.csv", "table4.csv"]

    def test_each_out_file_is_the_table_csv(self, capsys, tmp_path):
        code, _, _ = run(capsys, "report", "--all", "--out", str(tmp_path / "tables"))
        assert code == 0
        for number in (2, 3, 4):
            code, out, _ = run(capsys, "report", "--table", str(number), "--format", "csv")
            assert code == 0
            assert (tmp_path / "tables" / f"table{number}.csv").read_bytes() == out.encode("utf-8")

    @pytest.mark.parametrize("number", ["5", "0"])
    def test_an_unknown_table_is_refused_and_writes_nothing(self, capsys, tmp_path, number):
        code, out, err = run(capsys, "report", "--table", number, "--out", str(tmp_path / "tables"))
        assert (code, out, err) == (1, "", f"error: no published table {number}; have [2, 3, 4]\n")
        assert not (tmp_path / "tables").exists()

    def test_a_missed_published_value_fails_the_report(self, capsys, monkeypatch):
        rows = list(tables.PUBLISHED_TABLES[4].rows)
        assert rows[0] == ("FUN3D", 41, 1476, "7.69")  # regenerated as 7.6875
        rows[0] = ("FUN3D", 41, 1476, "7.79")
        monkeypatch.setitem(tables.PUBLISHED_TABLES, 4, tables.PublishedTable(4, "energy", 192, tuple(rows)))
        code, out, err = run(capsys, "report", "--table", "4", "--format", "csv")
        assert (code, err) == (1, "error: regenerated values diverge from the published tables\n")
        matches = {row["application"]: row["matches"] for row in csv.DictReader(io.StringIO(out))}
        assert matches.pop("FUN3D") == "false"
        assert set(matches.values()) == {"true"} and len(matches) == 12


class TestIngestCommand:
    def test_aggregation_csv(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(
            tmp_path / "jobs.csv",
            ["j1,projA,work,1,1,0,2,1.0", "j2,projA,gpu,1,0,4,8,1.0", "j3,projB,work,1,36,0,256,2.0"],
        )
        out_file = tmp_path / "usage.csv"
        code, _, err = run(
            capsys,
            "--config", str(config_path),
            "ingest", "--jobs", str(jobs), "--out", str(out_file),
        )
        assert code == 0
        assert "3 rows: 3 charged, 0 rejected" in err
        with out_file.open(encoding="utf-8") as handle:
            rows = {(r["project"], r["partition"]): r["total_su"] for r in csv.DictReader(handle)}
        assert rows[("projA", "work")] == "1"
        assert rows[("projA", "gpu")] == "192"
        assert rows[("projA", "ALL")] == "193"
        assert rows[("projB", "ALL")] == "72"

    def test_rejected_rows_exit_nonzero(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(
            tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0", "j2,projA,work,1,99,0,2,1.0"]
        )
        code, out, err = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs))
        assert code == 1
        assert "1 rejected" in err
        assert "projA,ALL,1" in out  # valid rows still aggregated

    def test_names_with_csv_specials_are_quoted_and_read_back(self, capsys, tmp_path):
        data = copy.deepcopy(TEST_CONFIG)
        data["partitions"].append(dict(data["partitions"][0], name='w,"x"'))
        config = tmp_path / "system.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        projects = ["proj,A", 'q"x', "a\nb", "a\rb", "plain"]
        jobs = tmp_path / "jobs.csv"
        with jobs.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["job_id", "project", "partition", "nodes", "cores_per_node", "gpus_per_node",
                             "mem_gib_per_node", "elapsed_hours"])
            for i, project in enumerate(projects):
                writer.writerow([f"j{i}", project, "work", 1, 1, 0, 2, 1])
                writer.writerow([f"k{i}", project, 'w,"x"', 1, 2, 0, 2, 1])
        code, out, _ = run(capsys, "--config", str(config), "ingest", "--jobs", str(jobs))
        assert code == 0
        expected = [["project", "partition", "total_su"]]
        for project in sorted(projects):
            expected += [[project, 'w,"x"', "2"], [project, "work", "1"], [project, "ALL", "3"]]
        assert list(csv.reader(io.StringIO(out, newline=""))) == expected
        assert "\nplain,work,1\nplain,ALL,3\n" in out  # a plain name keeps its bytes
        assert '\n"proj,A","w,""x""",2\n' in out

    def test_missing_details_file_is_a_config_error(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        code, out, err = run(
            capsys,
            "--config", str(config_path),
            "ingest", "--jobs", str(jobs), "--details", str(tmp_path / "missing.csv"),
        )
        assert code == 1
        assert not out
        assert err.startswith("error: cannot read details file ")
        assert "Traceback" not in err

    def test_agrees_with_estimate(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,gpu,2,9,1,64,1.5"])
        code, ingest_out, _ = run(
            capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs)
        )
        assert code == 0
        code, estimate_out, _ = run(
            capsys,
            "--config", str(config_path),
            "estimate", "--partition", "gpu", "--nodes", "2", "--cores-per-node", "9",
            "--gpus-per-node", "1", "--mem-gib-per-node", "64", "--hours", "1.5",
            "--format", "csv",
        )
        assert code == 0
        estimate_total = next(csv.DictReader(io.StringIO(estimate_out)))["total_su"]
        ingest_total = dict(
            ((r["project"], r["partition"]), r["total_su"])
            for r in csv.DictReader(io.StringIO(ingest_out))
        )[("projA", "gpu")]
        assert estimate_total == ingest_total


JOBS_HEADER = b"job_id,project,partition,nodes,cores_per_node,gpus_per_node,mem_gib_per_node,elapsed_hours\n"


class TestUnreadableInput:
    """Bad bytes and oversized cells end the run with `error:` and exit 1, never a traceback."""

    def test_jobs_file_not_utf8(self, capsys, config_path, tmp_path):
        jobs = tmp_path / "jobs.csv"
        jobs.write_bytes(JOBS_HEADER + b"j1,projA,work,1,1,0,2,1.0\n\nj2,proj\xff,work,1,1,0,2,1.0\n")
        code, out, err = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs))
        assert (code, out) == (1, "")
        assert err == f"error: {jobs}:4: not UTF-8 text: invalid start byte\n"

    def test_details_file_not_utf8(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        details = tmp_path / "details.csv"
        details.write_bytes(b"job_id,node_index,cores,gpus,mem_gib\nj1,0,1,0,1\xc3\n")
        code, out, err = run(
            capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)
        )
        assert (code, out) == (1, "")
        assert err == f"error: {details}:2: not UTF-8 text: invalid continuation byte\n"

    def test_config_file_not_utf8(self, capsys, tmp_path):
        config = tmp_path / "system.json"
        config.write_bytes(json.dumps(TEST_CONFIG, indent=1).encode("utf-8").replace(b'"work"', b'"w\xffrk"', 1))
        code, out, err = run(capsys, "--config", str(config), "estimate", "--partition", "work", "--hours", "1")
        assert (code, out) == (1, "")
        line = json.dumps(TEST_CONFIG, indent=1).splitlines().index('   "name": "work",') + 1
        assert err == f"error: {config}:{line}: not UTF-8 text: invalid start byte\n"

    def test_cell_over_the_csv_field_limit(self, capsys, config_path, tmp_path):
        jobs = tmp_path / "jobs.csv"
        jobs.write_bytes(JOBS_HEADER + b"j1,projA,work,1,1,0,2,1.0\nj2," + b"p" * 200_000 + b",work,1,1,0,2,1.0\n")
        code, out, err = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs))
        assert (code, out) == (1, "")
        assert err == f"error: {jobs}:3: field larger than field limit (131072)\n"


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "tail, code",
    [
        (b"", 0),
        (b"j2,projA,work,1,99,0,2,1.0\n", 1),  # a rejected row
        # a ConfigError raised after some rows are charged: the bad byte lies past the first read
        (b"".join(b"k%d,projA,work,1,1,0,2,1.0\n" % i for i in range(500)) + b"j2,proj\xff,work,1,1,0,2,1.0\n", 1),
    ],
    ids=["charged", "row-error", "config-error"],
)
def test_ingest_leaves_the_collector_as_it_found_it(capsys, config_path, tmp_path, monkeypatch, collecting, tail, code):
    jobs = tmp_path / "jobs.csv"
    jobs.write_bytes(JOBS_HEADER + b"j1,projA,work,1,1,0,2,1.0\n" + tail)
    priced_rows, seen = cli.ingest._priced_rows, []

    def watched(*args):
        for item in priced_rows(*args):
            seen.append(gc.isenabled())
            yield item

    monkeypatch.setattr(cli.ingest, "_priced_rows", watched)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        result = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs))
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert result[0] == code
    assert seen and all(s is collecting for s in seen)


def test_ingest_leaves_no_garbage_that_grows_with_its_rows(capsys, config_path, tmp_path):
    """The same rows four times over leave as many unreachable objects as once, so no row makes a cycle."""

    def unreachable(copies):
        rows, details = [], ["job_id,node_index,cores,gpus,mem_gib"]
        for i in range(copies * 25):
            rows += [
                f"u{i},p{i % 3},work,2,4,0,1.5,2.5",
                f"g{i},p{i % 3},gpu,1,9,1,64/3,1/3",
                f"h{i},p{i % 3},gpu-sm,2,0,0,0,1",
                f"u{i},p{i % 3},work,1,1,0,0,1",  # duplicate job_id
                f"x{i},p{i % 3},work,1,1,0,nan,1",
                f"c{i},p{i % 3},work,1,99,0,0,1",
                f"n{i},p{i % 3},nowhere,1,1,0,0,1",
                f"d{i},p{i % 3},gpu,2,0,0,0,1",  # its second detail row does not parse
            ]
            details += [f"h{i},0,9,1,2", f"h{i},1,1,0,0", f"d{i},0,1,0,0", f"d{i},1,1,0,x", f"ghost{i},0,1,0,0"]
        jobs = write_jobs_csv(tmp_path / f"jobs{copies}.csv", rows)
        detail_file = tmp_path / f"details{copies}.csv"
        detail_file.write_text("\n".join(details) + "\n", encoding="utf-8")
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            code, out, _ = run(
                capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(detail_file)
            )
            assert (code, out.count("\n")) == (1, 1 + 3 * 4)
            return gc.collect()
        finally:
            if was:
                gc.enable()

    unreachable(1)  # a first pass may leave one-time garbage
    assert unreachable(4) == unreachable(1)


def test_an_empty_out_writes_to_stdout(capsys, config_path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a file written by mistake would land here
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
    for argv in (["ingest", "--jobs", str(jobs)], ["crossover", "--steps", "3"]):
        plain = run(capsys, "--config", str(config_path), *argv)
        assert plain[0] == 0 and plain[1]
        assert run(capsys, "--config", str(config_path), *argv, "--out", "") == plain
    assert sorted(path.name for path in tmp_path.iterdir()) == ["jobs.csv", "system.json"]


class TestUnwritableOut:
    """An --out path that cannot be written is `error: cannot write <path>: <reason>`, exit 1."""

    def test_ingest(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        out_path = tmp_path / "missing" / "usage.csv"
        code, out, err = run(
            capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs), "--out", str(out_path)
        )
        assert (code, out) == (1, "")
        assert err.endswith(f"error: cannot write {out_path}: No such file or directory\n")

    def test_crossover(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "missing" / "sweep.csv"
        code, out, err = run(capsys, "--config", str(config_path), "crossover", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {out_path}: No such file or directory\n"

    def test_report(self, capsys, tmp_path):
        # a missing directory is created, so put the tables under a regular file
        blocker = tmp_path / "file.txt"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "tables"
        code, out, err = run(capsys, "report", "--out", str(out_dir))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {out_dir}: Not a directory\n"

    def test_report_names_the_table_file(self, capsys, tmp_path):
        # tables are replaced one at a time: table2.csv is written before table3.csv fails
        (tmp_path / "table2.csv").write_text("old\n", encoding="utf-8")
        (tmp_path / "table3.csv").mkdir()
        code, out, err = run(capsys, "report", "--all", "--out", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {tmp_path / 'table3.csv'}: Is a directory\n"
        table2 = tables.table_csv(tables.compare_with_published(2))
        assert (tmp_path / "table2.csv").read_text(encoding="utf-8") == table2
        assert sorted(path.name for path in tmp_path.iterdir()) == ["table2.csv", "table3.csv"]
        assert list((tmp_path / "table3.csv").iterdir()) == []


class TestRefusedCommandLeavesOut:
    """A command that ends in `error:` leaves an existing --out file as it was, and no temporary file."""

    OLD = b"speedup,old\r\n1,\xff\n"

    def test_crossover(self, capsys, config_path, tmp_path):
        out_path = tmp_path / "out" / "sweep.csv"
        out_path.parent.mkdir()
        out_path.write_bytes(self.OLD)
        code, _, err = run(capsys, "--config", str(config_path), "crossover", "--steps", "1", "--out", str(out_path))
        assert (code, err) == (1, "error: need at least 2 sweep steps\n")
        assert out_path.read_bytes() == self.OLD
        assert [p.name for p in out_path.parent.iterdir()] == ["sweep.csv"]

    @pytest.mark.parametrize(
        "bounds, message",
        [
            (["--steps", "1"], "need at least 2 sweep steps"),
            (["--steps", "10001"], "at most 10000 sweep steps, got 10001"),
            (["--s-min", "0"], "need 0 < s_min < s_max"),
            (["--s-min", "5", "--s-max", "2"], "need 0 < s_min < s_max"),
        ],
        ids=["one-step", "too-many-steps", "zero-s-min", "reversed-range"],
    )
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_a_refused_sweep_prints_no_summary(self, capsys, config_path, tmp_path, bounds, message, to_file):
        out_path = tmp_path / "sweep.csv"
        out_path.write_bytes(self.OLD)
        out = ["--out", str(out_path)] if to_file else []
        code, stdout, err = run(capsys, "--config", str(config_path), "crossover", *bounds, *out)
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert out_path.read_bytes() == self.OLD

    def test_ingest_with_row_errors_still_writes(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0", "j2,projA,work,1,99,0,2,1.0"])
        out_path = tmp_path / "out" / "usage.csv"
        out_path.parent.mkdir()
        out_path.write_bytes(self.OLD)
        code, out, _ = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs), "--out", str(out_path))
        assert (code, out) == (1, "")
        assert out_path.read_text(encoding="utf-8") == "project,partition,total_su\nprojA,work,1\nprojA,ALL,1\n"
        assert [p.name for p in out_path.parent.iterdir()] == ["usage.csv"]


class TestBeyondFloatRange:
    """A CPU TDP of 400 nines: energies beyond float range, GPU weights too small for one."""

    @pytest.fixture
    def huge_config(self, tmp_path):
        config = copy.deepcopy(TEST_CONFIG)
        for partition in config["partitions"][:2]:  # work and gpu
            partition["node"]["cpus"][0]["tdp_watts"] = int("9" * 400)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return str(path)

    def test_text(self, capsys, huge_config):
        code, out, _ = run(
            capsys, "--config", huge_config, "estimate", "--partition", "work", "--cores-per-node", "1", "--hours", "1"
        )
        assert code == 0
        assert "estimated energy: 5.55556e+398 Wh\ntotal: 1 SU\n" in out

    def test_csv(self, capsys, huge_config):
        code, out, _ = run(
            capsys, "--config", huge_config,
            "estimate", "--partition", "gpu", "--gpus-per-node", "1", "--hours", "1", "--format", "csv",
        )
        assert code == 0
        ones = "1" * 400  # (10**400 - 1) / 9: the GPU weight is 4 * 400 W / (2 * that) * 36 cores
        assert out.splitlines()[1] == f"energy,800/{ones},3200/{ones},1,0,0.25"

    def test_ingest(self, capsys, huge_config, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,pA,gpu,1,0,4,0,1", "j2,pA,work,1,36,0,0,1"])
        code, out, _ = run(capsys, "--config", huge_config, "ingest", "--jobs", str(jobs))
        assert code == 0
        ones = "1" * 400
        assert out == f"project,partition,total_su\npA,gpu,3200/{ones}\npA,work,36\npA,ALL,{4 * 10**400 + 3196}/{ones}\n"

    @pytest.mark.parametrize("command", ["estimate", "compare"])
    def test_json_names_the_field(self, capsys, huge_config, command):
        code, out, err = run(
            capsys, "--config", huge_config,
            command, "--partition", "gpu", "--gpus-per-node", "1", "--hours", "1", "--format", "json",
        )
        assert (code, out) == (1, "")
        assert err == "error: total_su: 7.2e-397 is beyond float range; use --format text or csv\n"

    def test_crossover(self, capsys, tmp_path):
        config = copy.deepcopy(TEST_CONFIG)
        config["partitions"][1]["node"]["gpus"][0]["tdp_watts"] = 10**400
        path = tmp_path / "huge-gpu.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out, err = run(capsys, "--config", str(path), "crossover", "--models", "energy,sm", "--steps", "2")
        assert code == 0
        # the energy weight is 4 * 10**400 / 300 * 36, so the threshold is 4/3 * 10**398
        assert f", decision threshold s = {4 * 10**398 // 3}.33\n" in err
        assert out.splitlines()[1:] == [
            f"1,36,{48 * 10**398},cpu,300,36,432,cpu,300",
            f"20,36,{24 * 10**397},cpu,300,36,21.6,gpu,{2 * 10**399}",
        ]


class TestCapacityBeyondFloatRange:
    """An over-capacity amount beyond float range is a clean error, not an OverflowError traceback."""

    MESSAGE = f"{10**400} GiB requested but node type 'dual-xeon-6240' has 256 GiB"

    def test_jobs_row(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,pA,work,1,1,0,1e400,1", "j2,pA,work,1,36,0,0,1"])
        code, out, err = run(capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs))
        assert code == 1
        assert out == "project,partition,total_su\npA,work,36\npA,ALL,36\n"
        assert err == f"{jobs}:2: {self.MESSAGE}\n2 rows: 1 charged, 1 rejected\n"

    def test_detail_row(self, capsys, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,pA,work,2,0,0,0,1"])
        details = tmp_path / "details.csv"
        details.write_text("job_id,node_index,cores,gpus,mem_gib\nj1,0,1,0,1\nj1,1,1,0,1e400\n", encoding="utf-8")
        code, out, err = run(
            capsys, "--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)
        )
        assert code == 1
        assert err == f"{jobs}:2: {self.MESSAGE}\n1 rows: 0 charged, 1 rejected\n"

    def test_estimate(self, capsys, config_path):
        code, out, err = run(
            capsys, "--config", str(config_path),
            "estimate", "--partition", "work", "--mem-gib-per-node", "1e400", "--hours", "1",
        )
        assert (code, out, err) == (1, "", f"error: {self.MESSAGE}\n")


class TestExit:
    """A process that ran `main` freezes its objects at exit, so the shutdown collections skip them."""

    def test_an_exit_handler_registered_before_main_sees_the_objects_frozen(self):
        code, out, err = run_python(
            "-c",
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen:', gc.get_freeze_count() > 0))\n"
            "from sumeter.cli import main\n"
            "sys.exit(main())\n",
            *ESTIMATE,
        )
        assert (code, err) == (0, b"")
        assert out.endswith(b"total: 192 SU\nfrozen: True\n")

    def test_main_freezes_nothing_while_the_process_runs(self, capsys):
        frozen = gc.get_freeze_count()
        for _ in range(2):
            assert run(capsys, *ESTIMATE)[0] == 0
            assert gc.get_freeze_count() == frozen

    def test_the_objects_are_frozen_once_however_often_main_ran(self):
        code, out, err = run_python(
            "-c",
            "import atexit, gc, sys\n"
            "freeze, calls = gc.freeze, []\n"
            "gc.freeze = lambda: calls.append(1) or freeze()\n"
            "atexit.register(lambda: print('freezes:', len(calls)))\n"
            "from sumeter.cli import main\n"
            "sys.exit(max([main(sys.argv[1:]) for _ in range(3)]))\n",
            *ESTIMATE,
        )
        assert (code, err) == (0, b"")
        assert out.count(b"total: 192 SU\n") == 3
        assert out.endswith(b"freezes: 1\n")


def test_dev_mode_with_warnings_as_errors_changes_no_output(tmp_path):
    """A warning raised anywhere in a call, at shutdown too, would add to its stderr or change its exit status."""
    write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,cpu,1,1,0,2,1.0", "j2,projA,cpu,1,99,0,2,1.0"])
    calls = [
        ESTIMATE,
        ["--config", "builtin", "crossover", "--steps", "8"],
        ["report"],
        ["--config", "builtin", "ingest", "--jobs", "jobs.csv"],
    ]
    for argv in calls:
        plain = run_python("-m", "sumeter.cli", *argv, cwd=tmp_path)
        assert plain[1] or plain[2], argv
        assert run_python("-X", "dev", "-W", "error", "-m", "sumeter.cli", *argv, cwd=tmp_path) == plain, argv
