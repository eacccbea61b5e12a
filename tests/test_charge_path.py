"""Every route to a charge prices the same job the same way.

The routes are `job_cost`, `charge_record` after ingestion, the model that
`SystemConfig.model_for` returns, and the `estimate` and `ingest`
commands. Each must give the exact total of the partition's own model.
"""

import copy
import csv
import io
import json
from fractions import Fraction

import pytest

from sumeter import JobRequest, NodeUsage, charge_record, ingest_jobs, job_cost, load_config
from sumeter.cli import main
from conftest import TEST_CONFIG, write_jobs_csv


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
