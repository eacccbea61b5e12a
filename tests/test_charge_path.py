"""Every route to a charge prices the same job the same way.

The routes are `job_cost`, `charge_record` after ingestion, the model that
`SystemConfig.model_for` returns, and the `estimate` and `ingest`
commands. Each must give the exact total of the partition's own model.
The edges of that path are checked here too: the streaming `ingest` pass
against `ingest_jobs` + `aggregate`, each row charged once while it is
parsed (`test_budget.py` bounds its cost), the checks of a row with several
faults in their order, orphan detail rows, the number-size and node-count
guards, `crossover`'s CPU weight and a closed stdout pipe.
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

from sumeter import (
    CapacityError,
    ChargeModel,
    EnergyModel,
    JobRecord,
    JobRequest,
    NodeUsage,
    Partition,
    SystemConfig,
    aggregate,
    charge_record,
    ingest_jobs,
    job_cost,
    load_config,
)
from sumeter.cli import main
from sumeter.core import _share
from sumeter.display import exact_text
from sumeter.errors import ConfigError
from sumeter.ingest import Ledger, _priced_rows
from conftest import TEST_CONFIG, write_details_csv, write_jobs_csv

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


def test_ingest_command_equals_ingest_jobs_then_aggregate(capsys, config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", JOBS_WITH_BAD_ROWS)
    details = write_details_csv(tmp_path / "details.csv", DETAILS)
    config = load_config(config_path)
    result = ingest_jobs(jobs, config, details_path=details)
    assert [e.line for e in result.errors] == [4, 5, 6, 9]
    assert result.total_rows == len(result.records) + len(result.errors) == len(JOBS_WITH_BAD_ROWS)

    lines = ["project,partition,total_su"]
    for project, usage in aggregate(result.records, config).items():
        lines += [f"{project},{partition},{exact_text(su)}" for partition, su in usage.by_partition.items()]
        lines.append(f"{project},ALL,{exact_text(usage.total_su)}")
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
    monkeypatch.setattr(type(model), "cell_share", lambda self, c, n: calls.append(c) or _share(c, n))
    report = model.charge(JobRequest.uniform(partition, 64, NodeUsage(cores_used=9), 2))
    assert calls == [(9, 0, 0, 1, ())]
    assert report.per_node_fraction == (Fraction(1, 4),) * 64
    assert report.total_su == 36 * 2 * 16


def watch_the_row_path(monkeypatch):
    """Lists that fill, while ingest runs, with the cells of each usage `cell_share` prices and
    each job the pricing kernel prices."""
    priced, kernel, priced_job = [], [], ChargeModel._priced
    monkeypatch.setattr(ChargeModel, "cell_share", lambda self, c, n: priced.append(c) or _share(c, n))
    monkeypatch.setattr(ChargeModel, "_priced", lambda self, *job: kernel.append(job) or priced_job(self, *job))
    return priced, kernel


def cells(usage):
    """What `cell_share` reads of `usage`."""
    return usage.cores_used, usage.gpus_used, *usage.memory_used_gib.as_integer_ratio(), usage.extra_used


def test_ingest_charges_each_row_once_while_parsing(monkeypatch, capsys, config_path, tmp_path):
    jobs = write_jobs_csv(
        tmp_path / "jobs.csv",
        ["j1,projA,work,2,1,0,2,1.0", "j2,projA,gpu-sm,3,4,1,16,2.0", "j3,projB,gpu,16,0,4,8,0.5"],
    )
    details = write_details_csv(tmp_path / "details.csv", ["j1,1,9,0,1", "j1,0,36,0,256"])
    config = load_config(config_path)
    priced, kernel = watch_the_row_path(monkeypatch)
    result = ingest_jobs(jobs, config, details_path=details)
    assert not result.errors
    assert len(priced) == 4  # two detail usages, then one per uniform job
    assert [len(set(map(id, r.node_usages))) for r in result.records] == [2, 1, 1]  # a NodeUsage for each
    assert [(usages, repeat) for _, usages, repeat, _ in kernel] == [
        ([cells(u) for u in r.node_usages], 1) if r.job_id == "j1" else ([cells(r.node_usages[0])], len(r.node_usages))
        for r in result.records
    ]
    monkeypatch.undo()
    assert [r.total_su for r in result.records] == [charge_record(r, config).total_su for r in result.records]
    assert result.records[0].total_su == 45  # fractions 1 and 1/4 at weight 36 for one hour

    priced, kernel = watch_the_row_path(monkeypatch)
    assert main(["--config", str(config_path), "ingest", "--jobs", str(jobs), "--details", str(details)]) == 0
    assert (len(priced), len(kernel)) == (4, 3)
    assert capsys.readouterr().out.splitlines()[1] == "projA,gpu-sm,648"  # 3 nodes, one GPU of four, 432 SMs, 2 hours


class HalfNodeModel(EnergyModel):
    """The energy model, charging half a node for every usage that fits."""

    __slots__ = ()

    def cell_share(self, cells, node):
        super().cell_share(cells, node)  # the max rule's fit check
        return 1, 2


def test_a_model_that_replaces_the_cell_share_prices_every_route_by_it(config_path, tmp_path):
    node = load_config(config_path).partition("work").node_type  # 36 cores: weight 36
    partition = Partition("half", node, node_count=4, model=HalfNodeModel())
    usage = NodeUsage(cores_used=1)
    assert partition.model.cell_share(cells(usage), node) == (1, 2)
    assert partition.model.charge(JobRequest.uniform(partition, 2, usage, 3)).total_su == 108
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,p,half,2,1,0,0,3", "j2,p,half,2,1,0,0,3", "j3,p,half,1,99,0,0,1"])
    details = write_details_csv(tmp_path / "details.csv", ["j2,0,36,0,0", "j2,1,1,0,0"])
    config = SystemConfig([partition])
    result = ingest_jobs(jobs, config, details_path=details)
    assert [(r.job_id, r.total_su) for r in result.records] == [("j1", 108), ("j2", 108)]  # a detail row alike
    assert [e.message for e in result.errors] == ["99 cores requested but node type 'dual-xeon-6240' has 36"]
    ledger = Ledger._of_priced_rows(_priced_rows(jobs, config, details))
    assert list(ledger._reduced_sums()) == [("p", [("half", (216, 1))], (216, 1))]
    # a model prices by one share method and one charge method, so there is no other route to replace
    public = {name for name in dir(ChargeModel) if not name.startswith("_") and callable(getattr(ChargeModel, name))}
    assert public == {"cell_share", "charge", "gpu_node_weight", "node_weight"}


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


def test_a_config_partition_of_more_nodes_than_the_bound_is_one_error(capsys, tmp_path):
    data = copy.deepcopy(TEST_CONFIG)
    data["partitions"][0]["node_count"] = 10**9
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    job = ["--partition", data["partitions"][0]["name"], "--cores-per-node", "1", "--hours", "1"]
    assert main(["--config", str(path), "estimate", *job]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: {path}: invalid configuration:"
    ]
    assert "partitions[0]: partition 'work': node_count must be at most 1000000" in err


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


def test_a_closed_stdout_pipe_ends_quietly(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,cpu,1,1,0,2,1.0"])
    ingest = ["--config", "builtin", "ingest", "--jobs", str(jobs)]
    for argv in (["report"], ["--config", "builtin", "crossover"], ingest):
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
    priced, kernel = watch_the_row_path(monkeypatch)
    result = ingest_jobs(jobs, load_config(config_path))
    assert (len(priced), len(kernel)) == (1, 1)  # the first row's one usage, and nothing of the second
    assert [r.job_id for r in result.records] == ["j1"]
    assert [(e.line, e.message) for e in result.errors] == [(3, "duplicate job_id 'j1'")]


def test_only_a_charged_job_id_blocks_a_later_row(config_path, tmp_path):
    rows = ["j1,projA,work,1,99,0,2,1.0", "j1,projA,work,1,1,0,2,1.0", "j1,projB,work,1,1,0,2,1.0"]
    result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), load_config(config_path))
    assert [(r.job_id, r.project) for r in result.records] == [("j1", "projA")]
    assert [e.line for e in result.errors] == [2, 4]
    assert result.errors[0].message.startswith("99 cores requested")
    assert result.errors[1].message == "duplicate job_id 'j1'"


GPU_SM_DETAILS = [f"j1,{index},1,0,1" for index in range(8)]  # every node of the 8-node gpu-sm partition


@pytest.mark.parametrize(
    "rows, details, error",
    [
        (["j1,projA,work,1001,99,0,2,1.0"], None, (2, "job spans 1001 nodes but partition 'work' has 1000")),
        (["j1,projA,gpu-sm,9,1,0,2,1.0"], [*GPU_SM_DETAILS, "j1,8,99,0,1"],
         (2, "job spans 9 nodes but partition 'gpu-sm' has 8")),
        (["j1,projA,work,1001,0,0,0,1.0"], None, (2, "a node usage must request at least one resource")),
        (["j1,projA,gpu-sm,9,1,0,2,1.0"], [*GPU_SM_DETAILS, "j1,8,0,0,0"],
         (2, "detail line 10: a node usage must request at least one resource")),
        (["j1,projA,work,1001,1,0,2,1.0"], ["j1,0,1,0,1", "j1,1,99,0,1"],
         (2, "detail rows for job 'j1' must cover node_index 0..1000 exactly")),
        (["j1,projA,work,1,x,0,2,y"], None, (2, "elapsed_hours: not a number: 'y'")),
        (["j1,projA,work,1,x,0,2,-1"], None, (2, "elapsed_hours: must be nonnegative, got -1")),
        (["j1,projA,work,1,99,0,999,1.0"], None, (2, "99 cores requested but node type 'dual-xeon-6240' has 36")),
        (["j1,projA,work,1,1,0,2,1.0", "j1,projA,work,1,x,0,2,y"], None, (3, "duplicate job_id 'j1'")),
    ],
    ids=["span+capacity", "detail-span+capacity", "zero-usage+span", "detail-zero-usage+span", "coverage+span",
         "hours+cores", "negative-hours+cores", "cores+memory", "duplicate+bad-cells"],
)
def test_a_row_with_several_faults_is_refused_for_the_first(config_path, tmp_path, rows, details, error):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", rows)
    details_path = None if details is None else write_details_csv(tmp_path / "details.csv", details)
    result = ingest_jobs(jobs, load_config(config_path), details_path=details_path)
    assert [(e.line, e.message) for e in result.errors] == [error]
