"""Every route to a charge prices the same job the same way.

The routes are `job_cost`, `charge_record` after ingestion, the model that
`SystemConfig.model_for` returns, and the `estimate` and `ingest`
commands. Each must give the exact total of the partition's own model.
The edges of that path are checked here too: the streaming `ingest` pass
against `ingest_jobs` + `aggregate`, each row charged once while it is
parsed, orphan detail rows, the number-size and node-count guards,
`crossover`'s CPU weight and a closed stdout pipe.
"""

import copy
import csv
import io
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import sumeter.core
from sumeter import (
    CapacityError,
    JobRecord,
    JobRequest,
    NodeUsage,
    aggregate,
    charge_record,
    ingest_jobs,
    job_cost,
    load_config,
)
from sumeter.cli import main
from sumeter.display import format_real
from sumeter.errors import ConfigError
from conftest import TEST_CONFIG, write_jobs_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def custom_rate_puhti_config():
    """The test system with its puhti partition billing cores at 2 per hour."""
    data = copy.deepcopy(TEST_CONFIG)
    shared = next(p for p in data["partitions"] if p["name"] == "shared")
    shared["model_parameters"] = {"rates": {"core": 2}}
    return data


def write_config(tmp_path, data):
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def route_totals(capsys, config_path, tmp_path, partition, cores, hours):
    """The total of one uniform one-node job by each charging route."""
    config = load_config(config_path)
    job = JobRequest.uniform(config.partition(partition), 1, NodeUsage(cores_used=cores), hours)
    jobs = write_jobs_csv(tmp_path / "jobs.csv", [f"j1,projA,{partition},1,{cores},0,0,{hours}"])
    result = ingest_jobs(jobs, config)
    assert not result.errors

    assert main([
        "--config", str(config_path), "estimate", "--partition", partition,
        "--cores-per-node", str(cores), "--hours", str(hours), "--format", "csv",
    ]) == 0
    estimate_out = capsys.readouterr().out
    assert main(["--config", str(config_path), "ingest", "--jobs", str(jobs)]) == 0
    ingest_out = capsys.readouterr().out
    ingest_rows = {(r["project"], r["partition"]): r["total_su"] for r in csv.DictReader(io.StringIO(ingest_out))}

    return {
        "job_cost": job_cost(job).total_su,
        "charge_record": charge_record(result.records[0], config).total_su,
        "model_for": config.model_for(partition).charge(job).total_su,
        "estimate": Fraction(next(csv.DictReader(io.StringIO(estimate_out)))["total_su"]),
        "ingest": Fraction(ingest_rows[("projA", "ALL")]),
    }


@pytest.mark.parametrize(
    "config_data, partition, expected",
    [
        (TEST_CONFIG, "legacy", 30),  # titan: a whole 16-core, 14-SM node
        (custom_rate_puhti_config(), "shared", 2),  # puhti: one core at rate 2
    ],
    ids=["titan", "puhti-custom-rates"],
)
def test_one_core_hour_is_priced_by_the_partition_model(capsys, tmp_path, config_data, partition, expected):
    totals = route_totals(capsys, write_config(tmp_path, config_data), tmp_path, partition, 1, 1)
    assert totals == dict.fromkeys(totals, expected)


@pytest.mark.parametrize("partition", [p["name"] for p in TEST_CONFIG["partitions"]])
def test_all_routes_agree_on_every_partition(capsys, config_path, tmp_path, partition):
    totals = route_totals(capsys, config_path, tmp_path, partition, 3, Fraction(5, 4))
    assert len(set(totals.values())) == 1, totals


JOBS_WITH_BAD_ROWS = [
    "j1,projA,work,2,4,0,8,1.5",
    "j2,projB,gpu,1,9,1,64,0.25",
    "j3,projA,work,1,99,0,8,1.0",  # over capacity: rejected
    "j4,projA,nowhere,1,1,0,1,1.0",  # unknown partition: rejected
    "j1,projB,work,1,1,0,1,1.0",  # duplicate job id: rejected
    "j5,projB,legacy,1,2,0,2,2.0",
    "j6,projA,work,2,1,0,1,1.0",  # its detail rows are charged instead
    "j7,projA,work,2,1,0,1,x",  # bad hours: rejected, yet its detail rows are not orphans
]
DETAILS = [
    "j6,0,36,0,1",
    "j6,1,3,0,1",
    ",0,1,0,1",  # blank job_id: orphan (line 4)
    "ghost,0,1,0,1",  # no jobs row names it: orphan (line 5)
    "j7,0,1,0,1",
    "j7,1,1,0,1",
    "ghost,1,not-a-number,0,1",  # orphan even though it does not parse (line 8)
]


def write_details_csv(path, rows):
    path.write_text("\n".join(["job_id,node_index,cores,gpus,mem_gib"] + rows) + "\n", encoding="utf-8")
    return path


def test_ingest_command_equals_ingest_jobs_then_aggregate(capsys, config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", JOBS_WITH_BAD_ROWS)
    details = write_details_csv(tmp_path / "details.csv", DETAILS)
    config = load_config(config_path)
    result = ingest_jobs(jobs, config, details_path=details)
    assert [e.line for e in result.errors] == [4, 5, 6, 9]
    assert result.total_rows == len(result.records) + len(result.errors) == len(JOBS_WITH_BAD_ROWS)

    lines = ["project,partition,total_su"]
    for project, usage in aggregate(result.records, config).items():
        lines += [f"{project},{partition},{format_real(su)}" for partition, su in usage.by_partition.items()]
        lines.append(f"{project},ALL,{format_real(usage.total_su)}")
    stderr = [f"{jobs}:{e.line}: {e.message}" for e in result.errors]
    stderr += [f"{details}:{o.line}: {o.message}" for o in result.orphans]
    stderr.append(f"{result.total_rows} rows: {len(result.records)} charged, {len(result.errors)} rejected")

    code = main(["--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == "\n".join(lines) + "\n"
    assert err == "\n".join(stderr) + "\n"


def test_orphan_detail_rows_are_reported(capsys, config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", JOBS_WITH_BAD_ROWS)
    details = write_details_csv(tmp_path / "details.csv", DETAILS)
    result = ingest_jobs(jobs, load_config(config_path), details_path=details)
    assert [o.line for o in result.orphans] == [4, 5, 8]
    assert "job_id" in result.orphans[0].message and "'ghost'" in result.orphans[1].message

    main(["--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)])
    err = capsys.readouterr().err
    assert [line.split(":")[1] for line in err.splitlines() if line.startswith(f"{details}:")] == ["4", "5", "8"]
    assert err.splitlines()[-1] == "8 rows: 4 charged, 4 rejected"


def test_orphan_detail_rows_alone_make_the_exit_status_1(capsys, config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,4,0,8,1.0"])
    details = write_details_csv(tmp_path / "details.csv", ["ghost,0,1,0,1"])
    assert main(["--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)]) == 1
    out, err = capsys.readouterr()
    assert out == "project,partition,total_su\nprojA,work,4\nprojA,ALL,4\n"
    assert err == f"{details}:2: job_id 'ghost' matches no jobs row\n1 rows: 1 charged, 0 rejected\n"


def test_uniform_job_prices_its_usage_once(monkeypatch, config_path):
    partition = load_config(config_path).partition("work")
    model = partition.model
    calls = []
    original = type(model).node_fraction
    monkeypatch.setattr(type(model), "node_fraction", lambda self, u, n: calls.append(u) or original(self, u, n))
    report = model.charge(JobRequest.uniform(partition, 64, NodeUsage(cores_used=9), 2))
    assert len(calls) == 1
    assert report.per_node_fraction == (Fraction(1, 4),) * 64
    assert report.total_su == 36 * 2 * 16


def test_ingest_charges_each_row_once_while_parsing(monkeypatch, config_path, tmp_path):
    jobs = write_jobs_csv(
        tmp_path / "jobs.csv",
        ["j1,projA,work,2,1,0,2,1.0", "j2,projA,gpu-sm,3,4,1,16,2.0", "j3,projB,gpu,16,0,4,8,0.5"],
    )
    details = write_details_csv(tmp_path / "details.csv", ["j1,1,9,0,1", "j1,0,36,0,256"])
    config = load_config(config_path)
    built, priced = [], []
    post_init = JobRequest.__post_init__
    monkeypatch.setattr(JobRequest, "__post_init__", lambda job: built.append(job) or post_init(job))
    fraction = sumeter.core.node_fraction
    monkeypatch.setattr(sumeter.core, "node_fraction", lambda u, n: priced.append(u) or fraction(u, n))
    result = ingest_jobs(jobs, config, details_path=details)
    assert not result.errors
    assert len(built) == 3  # one JobRequest per row
    assert len(priced) == 4  # two detail usages, then one per uniform job
    assert [r.total_su for r in result.records] == [charge_record(r, config).total_su for r in result.records]
    assert result.records[0].total_su == 45  # fractions 1 and 1/4 at weight 36 for one hour


def test_aggregate_sums_the_charge_each_record_carries(config_path, tmp_path):
    config = load_config(config_path)
    result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", ["a,projA,work,1,1,0,2,1.0"]), config)
    charged = result.records[0]
    record = JobRecord(
        charged.job_id, charged.project, charged.partition, charged.node_usages, charged.elapsed_hours, Fraction(7, 3)
    )
    assert aggregate([record], config)["projA"].by_partition == {"work": Fraction(7, 3)}


def test_node_count_is_bounded_before_usages_are_copied(capsys, config_path, tmp_path):
    huge = 10**19
    config = load_config(config_path)
    message = f"job spans {huge} nodes but partition 'work' has 1000"
    with pytest.raises(CapacityError, match=message):
        JobRequest.uniform(config.partition("work"), huge, NodeUsage(cores_used=1), 1)

    rows = ["j1,projA,work,1,1,0,2,1.0", f"j2,projA,work,{huge},1,0,2,1.0", "j3,projA,work,1,1,0,2,1.0"]
    result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
    assert [(e.line, e.message) for e in result.errors] == [(3, message)]
    assert [r.job_id for r in result.records] == ["j1", "j3"]

    code = main(
        ["--config", str(config_path), "estimate", "--partition", "work", "--nodes", str(huge),
         "--cores-per-node", "1", "--hours", "1"]
    )
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_detail_indices_must_be_exactly_the_job_nodes(config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,2,1,0,2,1.0", "j2,projA,work,2,1,0,2,1.0"])
    # j1 has two rows but skips index 1; j2 has an index past its last node
    details = write_details_csv(tmp_path / "details.csv", ["j1,0,1,0,1", "j1,2,1,0,1", "j2,0,1,0,1", "j2,1,1,0,1", "j2,5,1,0,1"])
    result = ingest_jobs(jobs, load_config(config_path), details_path=details)
    assert [e.line for e in result.errors] == [2, 3]
    assert all("must cover node_index 0..1 exactly" in e.message for e in result.errors)


def test_cached_node_values_are_read_only_and_pickle(config_path):
    node = load_config(config_path).partition("shared").node_type
    assert node.extra_capacities["nvme_gib"] == 1490
    with pytest.raises(TypeError):
        node.extra_capacities["nvme_gib"] = 1
    assert pickle.loads(pickle.dumps(node)) == node
    assert copy.deepcopy(node).extra_capacities == {"nvme_gib": 1490}


def test_oversized_numbers_are_refused_before_parsing(capsys, config_path, tmp_path):
    # Importing the guard first: without it the huge exponents below would be
    # expanded in memory, so this test must never reach them unguarded.
    from sumeter.core import MAX_DECIMAL_EXPONENT, MAX_NUMBER_LENGTH

    huge = "1e999999999999"
    rows = [
        f"j1,projA,work,1,1,0,0,{huge}",
        f"j2,projA,work,1,1,0,1e-{MAX_DECIMAL_EXPONENT + 1},1",
        "j3,projA,work,1,1,0,0," + "1" * (MAX_NUMBER_LENGTH + 1),
        f"j4,projA,work,1,1,0,1e-{MAX_DECIMAL_EXPONENT},1",  # at the bound: charged
    ]
    result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), load_config(config_path))
    assert [e.line for e in result.errors] == [2, 3, 4]
    assert "exponent" in result.errors[0].message and "elapsed_hours" in result.errors[0].message
    assert "longer than" in result.errors[2].message
    assert [r.job_id for r in result.records] == ["j4"]

    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(config_path), "estimate", "--partition", "work", "--cores-per-node", "1", "--hours", huge])
    assert exit_info.value.code == 2
    assert "exponent" in capsys.readouterr().err


def test_a_config_integer_beyond_the_digit_limit_is_a_config_error(tmp_path):
    path = tmp_path / "system.json"
    path.write_text('{"partitions": [{"name": "p", "node_count": ' + "1" * 5000 + "}]}", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_weights_past_the_str_digit_limit_print_every_digit(capsys, tmp_path):
    """A 4,201-digit GPU TDP over a 1e-300 CPU TDP gives a weight of 72 * 10**4500."""
    data = copy.deepcopy(TEST_CONFIG)
    data["partitions"][1]["node"]["cpus"][0]["tdp_watts"] = "CPU_TDP"
    data["partitions"][1]["node"]["gpus"][0]["tdp_watts"] = "GPU_TDP"
    text = json.dumps(data).replace('"CPU_TDP"', "1e-300").replace('"GPU_TDP"', "1" + "0" * 4200)
    path = tmp_path / "giant.json"
    path.write_text(text, encoding="utf-8")
    weight = "72" + ",000" * 1500  # 4 GPUs over 2 CPUs, times 36 cores
    job = ["--partition", "gpu", "--gpus-per-node", "1", "--hours", "1"]
    assert main(["--config", str(path), "estimate", *job]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == f"node-hour weight: {weight}"
    assert lines[-1] == "total: 18" + ",000" * 1500 + " SU"  # one GPU of four
    assert main(["--config", str(path), "compare", "--models", "energy", *job]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[1] == weight
    assert main(["--config", str(path), "crossover", "--models", "energy,sm", "--steps", "2"]) == 0
    assert f"model energy: gpu node-hour weight {weight}, " in capsys.readouterr().err


def crossover_summary(capsys, models):
    assert main(["--config", "builtin", "crossover", "--models", models, "--steps", "2"]) == 0
    return capsys.readouterr().err.splitlines()


def test_crossover_prints_each_model_cpu_weight(capsys):
    assert crossover_summary(capsys, "energy,sm,peak-perf")[0] == "cpu node-hour weight: 36"
    # puhti bills the CPU node's memory as well: 36 cores + 256 GiB at 0.1 = 61.6
    summary = crossover_summary(capsys, "puhti")
    assert summary[0] == "cpu node-hour weight: 62"
    assert summary[1].startswith("model puhti: gpu node-hour weight ")
    assert crossover_summary(capsys, "energy,puhti")[:2] == [
        "model energy: cpu node-hour weight 36",
        "model puhti: cpu node-hour weight 62",
    ]


def test_a_closed_stdout_pipe_ends_quietly():
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    for argv in (["report"], ["--config", "builtin", "crossover"]):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from sumeter.cli import main; sys.exit(main())", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    os.close(write_end)


def test_duplicate_row_is_refused_before_it_is_priced(monkeypatch, config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0", "j1,projA,work,2,4,0,8,1.0"])
    built = []
    post_init = JobRequest.__post_init__
    monkeypatch.setattr(JobRequest, "__post_init__", lambda job: built.append(job) or post_init(job))
    result = ingest_jobs(jobs, load_config(config_path))
    assert len(built) == 1
    assert [r.job_id for r in result.records] == ["j1"]
    assert [(e.line, e.message) for e in result.errors] == [(3, "duplicate job_id 'j1'")]


def test_only_a_charged_job_id_blocks_a_later_row(config_path, tmp_path):
    rows = ["j1,projA,work,1,99,0,2,1.0", "j1,projA,work,1,1,0,2,1.0", "j1,projB,work,1,1,0,2,1.0"]
    result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), load_config(config_path))
    assert [(r.job_id, r.project) for r in result.records] == [("j1", "projA")]
    assert [e.line for e in result.errors] == [2, 4]
    assert result.errors[0].message.startswith("99 cores requested")
    assert result.errors[1].message == "duplicate job_id 'j1'"
