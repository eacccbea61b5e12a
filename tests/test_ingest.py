"""Config loading, jobs CSV ingestion and per-project aggregation."""

import contextlib
import copy
import csv
import io
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sumeter import (
    ConfigError,
    JobRequest,
    NodeUsage,
    Partition,
    RowError,
    ValidationError,
    aggregate,
    builtin_config,
    SystemConfig,
    charge_record,
    ingest_jobs,
    iter_jobs,
    job_cost,
    load_config,
    parse_config,
)
from sumeter.cli import main
from sumeter.ingest import DETAIL_CSV_COLUMNS, JOBS_CSV_COLUMNS
from conftest import TEST_CONFIG, write_details_csv, write_jobs_csv

HUGE = 10**5000  # beyond the 4,300 digits that int-to-text conversion allows


def with_value(entry, path, value=None, delete=False):
    """A copy of a partition entry with the value at a dotted key path replaced or deleted."""
    entry = copy.deepcopy(entry)
    *parents, key = path.split(".")
    owner = entry
    for parent in parents:
        owner = owner[parent]
    if delete:
        owner.pop(key, None)
    else:
        owner[key] = value
    return entry


class TestLoadConfig:
    def test_reference_system_weights(self, config_path):
        config = load_config(config_path)
        assert config.partition("work").weight == 36
        assert config.partition("gpu").weight == 192
        assert config.partition("gpu-sm").weight == 432
        assert config.partition("legacy").weight == 30
        assert config.partition("shared").weight  # puhti full-node rate, positive

    @pytest.mark.parametrize("name", [[], {}], ids=["list", "dict"])
    def test_an_unhashable_partition_name_is_unknown(self, config_path, name):
        with pytest.raises(ValidationError) as raised:
            load_config(config_path).partition(name)
        assert str(raised.value) == f"unknown partition {name!r}"

    @pytest.mark.parametrize(
        "path, line",
        [
            (("name",), "name: expected a non-empty string, got 5"),
            (("node", "name"), "node.name: expected a non-empty string, got 5"),
            (("node", "cpus", 0, "name"), "node.cpus[0].name: expected a non-empty string, got 5"),
        ],
        ids=["partition", "node", "processor"],
    )
    def test_a_number_as_a_name_is_a_collected_error(self, tmp_path, path, line):
        entry = copy.deepcopy(TEST_CONFIG["partitions"][0])
        *parents, key = path
        owner = entry
        for parent in parents:
            owner = owner[parent]
        owner[key] = 5
        config = tmp_path / "system.json"
        config.write_text(json.dumps({"partitions": [entry]}), encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            load_config(config)
        assert str(raised.value).splitlines()[1:] == [f"- partitions[0].{line}"]

    def test_empty_partitions_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"partitions": []}), encoding="utf-8")
        with pytest.raises(ValidationError):
            load_config(path)

    def test_unknown_model_rejected(self, tmp_path):
        data = {"partitions": [dict(TEST_CONFIG["partitions"][0], model="flops")]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError, match="flops"):
            load_config(path)

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"partitions": [', encoding="utf-8")
        with pytest.raises(ConfigError, match=r":\d+:\d+:"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_all_violations_listed(self, tmp_path):
        data = {
            "partitions": [
                {"name": "a", "model": "flops", "node": TEST_CONFIG["partitions"][0]["node"]},
                {"name": "b", "node": {"name": "n", "memory_total_gib": 0, "cpus": []}},
            ]
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        message = str(excinfo.value)
        assert "partitions[0]" in message
        assert "partitions[1]" in message

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_number_is_a_collected_error(self, tmp_path, value):
        entry = json.loads(json.dumps(TEST_CONFIG["partitions"][0]))
        entry["node"]["memory_total_gib"] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"partitions": [entry]}), encoding="utf-8")  # Infinity / NaN literals
        with pytest.raises(ValidationError, match=r"partitions\[0\]\.node\.memory_total_gib: expected a finite number"):
            load_config(path)

    @pytest.mark.parametrize(
        "parameters, line",
        [
            ({"rates": {"core": "1/0"}}, "model_parameters.rates.core: expected a number, got '1/0'"),
            ({"rates": {"core": "1e2000000"}}, "model_parameters.rates.core: expected a number, got '1e2000000'"),
            ({"rates": [1]}, "model_parameters.rates: expected an object of rate name -> number"),
            ({"rates": {"cpu": 1}}, "model_parameters.rates.cpu: unknown key (known: core, memory_gib, nvme_gib, gpu)"),
            ({"rate": {"core": 1}}, "model_parameters.rate: unknown key (known: rates, nvme_resource)"),
            ({"nvme_resource": 3}, "model_parameters.nvme_resource: expected a non-empty string, got 3"),
            ({"nvme_resource": ""}, "model_parameters.nvme_resource: expected a non-empty string, got ''"),
        ],
        ids=["ratio-text", "huge-exponent-text", "rates-list", "unknown-rate", "unknown-key", "nvme-int", "nvme-empty"],
    )
    def test_puhti_parameters_are_collected_errors(self, tmp_path, parameters, line):
        entry = dict(TEST_CONFIG["partitions"][4], model_parameters=parameters)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"partitions": [entry]}), encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value).splitlines()[1:] == [f"- partitions[0].{line}"]

    @pytest.mark.parametrize("count", [0, -1, 1025, 10**19])
    def test_processor_count_is_bounded(self, tmp_path, count):
        entry = copy.deepcopy(TEST_CONFIG["partitions"][0])
        entry["node"]["cpus"][0]["count"] = count
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [entry]})
        line = f"- partitions[0].node.cpus[0]: count must be {'at least 1' if count < 1 else 'at most 1024'}"
        assert str(excinfo.value).splitlines()[1:] == [line]

    def test_processor_entries_must_be_a_list(self):
        entry = copy.deepcopy(TEST_CONFIG["partitions"][1])
        entry["node"]["gpus"] = 4
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [entry]})
        assert str(excinfo.value).splitlines()[1:] == ["- partitions[0].node.gpus: expected a list, got 4"]

    @pytest.mark.parametrize(
        "index, path, wrong, line, empty",
        [
            (0, "node.gpus", 0, "node.gpus: expected a list, got 0", []),
            (0, "node.gpus", False, "node.gpus: expected a list, got False", []),
            (0, "node.extra_resources", [], "node.extra_resources: expected an object of name -> capacity", {}),
            (0, "model_parameters", [], "model_parameters: expected an object", {}),
            (4, "model_parameters", [], "model_parameters: expected an object", {}),
        ],
        ids=["gpus-zero", "gpus-false", "extras-list", "energy-parameters-list", "puhti-parameters-list"],
    )
    def test_a_falsy_value_of_the_wrong_type_is_an_error(self, index, path, wrong, line, empty):
        entry = TEST_CONFIG["partitions"][index]
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [with_value(entry, path, wrong)]})
        assert str(excinfo.value).splitlines()[1:] == [f"- partitions[0].{line}"]
        # the empty value of the right type, and null, still mean no entries, as an absent key does
        absent = parse_config({"partitions": [with_value(entry, path, delete=True)]})
        for value in (empty, None):
            assert parse_config({"partitions": [with_value(entry, path, value)]}) == absent

    @pytest.mark.parametrize(
        "entry, path",
        [
            (
                dict(TEST_CONFIG["partitions"][4], model_parameters={"nvme_resource": "nvme_gib"}),
                "model_parameters.rates",
            ),
            (TEST_CONFIG["partitions"][0], "node.cpus"),
        ],
        ids=["rates", "cpus"],
    )
    def test_null_reads_as_an_absent_key(self, entry, path):
        def outcome(entry):
            try:
                return parse_config({"partitions": [entry]})
            except ValidationError as err:  # no cpus: the node type needs at least one CPU
                return str(err)

        assert outcome(with_value(entry, path, None)) == outcome(with_value(entry, path, delete=True))

    @pytest.mark.parametrize(
        "path, value, line",
        [
            (("name",), HUGE, "name: expected a non-empty string, got int"),
            (("node", "gpus"), HUGE, "node.gpus: expected a list, got int"),
            (("node", "gpus", 0, "count"), HUGE, "node.gpus[0]: count must be at most 1024"),
            (("node", "gpus", 0, "name"), [HUGE], "node.gpus[0].name: expected a non-empty string, got list"),
            (("node", "memory_total_gib"), -HUGE, "node: node type 'quad-a100': memory_total_gib must be positive"),
            (("node", "gpus", 0, "tdp_watts"), -HUGE, "node.gpus[0]: processor 'A100 SMX': tdp_watts must be positive"),
        ],
        ids=["name", "gpus", "count", "name-list", "memory", "tdp"],
    )
    def test_an_int_beyond_the_digit_limit_is_a_collected_error(self, path, value, line):
        entry = copy.deepcopy(TEST_CONFIG["partitions"][1])
        *parents, key = path
        owner = entry
        for parent in parents:
            owner = owner[parent]
        owner[key] = value
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [entry]})
        assert str(excinfo.value).splitlines()[1:] == [f"- partitions[0].{line}"]

    def test_an_int_beyond_the_digit_limit_is_read_exactly(self):
        entry = copy.deepcopy(TEST_CONFIG["partitions"][1])
        entry["node"]["memory_total_gib"] = HUGE
        entry["node"]["gpus"][0]["tdp_watts"] = HUGE
        node = parse_config({"partitions": [entry]}).partition("gpu").node_type
        assert node.memory_total_gib == HUGE and node.gpu_tdp_watts == 4 * HUGE

    @pytest.mark.parametrize(
        "path, value, line",
        [
            ("node.extra_resources", {HUGE: 1490}, "node.extra_resources: expected a string key, got int"),
            ("node.extra_resources", {1: 1490}, "node.extra_resources: expected a string key, got 1"),
            ("model_parameters", {HUGE: 1}, "model_parameters: expected a string key, got int"),
            ("model_parameters", {"rates": {HUGE: 1}}, "model_parameters.rates: expected a string key, got int"),
        ],
        ids=["extra_resources", "extra_resources-small", "model_parameters", "rates"],
    )
    def test_a_key_that_is_not_a_string_is_a_collected_error(self, path, value, line):
        entry = with_value(TEST_CONFIG["partitions"][4], path, value)
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [entry]})
        assert str(excinfo.value).splitlines()[1:] == [f"- partitions[0].{line}"]

    def test_a_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "system.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(TEST_CONFIG).encode("utf-8"))
        assert load_config(path) == parse_config(TEST_CONFIG)

    def test_deeply_nested_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        with pytest.raises(ConfigError, match="maximum recursion depth"):
            load_config(path)

    def test_float_text_is_read_exactly(self, tmp_path):
        text = json.dumps(TEST_CONFIG).replace('"tdp_watts": 150,', '"tdp_watts": 150.00000000000000000001,', 1)
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        cpu = load_config(path).partition("work").node_type.cpus[0]
        assert cpu.tdp_watts == Fraction("150.00000000000000000001")
        assert cpu.peak_flops == 1500000000000  # written 1.5e12

    def test_float_text_is_quoted_as_written_in_type_errors(self, tmp_path):
        text = json.dumps(TEST_CONFIG).replace('"count": 2}', '"count": 2.0}', 1)
        text = text.replace('"cores": 18,', '"cores": 1e400,', 1)
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value).splitlines()[1:] == [
            "- partitions[0].node.cpus[0].count: expected an integer, got 2.0",
            "- partitions[0].node.cpus[0].cores: expected an integer, got 1e400",
        ]

    def test_nested_float_text_is_quoted_as_written_in_type_errors(self, tmp_path):
        text = json.dumps(TEST_CONFIG).replace('"gpus": []', '"gpus": {"a": 1.5, "b": [[2.5e400]]}', 1)
        text = text.replace('"cores": 18,', '"cores": [{"x": 0.1}],', 1)
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value).splitlines()[1:] == [
            "- partitions[0].node.cpus[0].cores: expected an integer, got [{'x': 0.1}]",
            "- partitions[0].node.gpus: expected a list, got {'a': 1.5, 'b': [[2.5e400]]}",
        ]

    def test_float_text_is_read_as_a_plain_fraction(self, tmp_path):
        text = json.dumps(TEST_CONFIG).replace('"tdp_watts": 150,', '"tdp_watts": 150.5,', 1)
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        cpu = load_config(path).partition("work").node_type.cpus[0]
        assert type(cpu.tdp_watts) is Fraction and repr(cpu.tdp_watts) == "Fraction(301, 2)"

    @pytest.mark.parametrize(
        "number, reason",
        [("1." + "0" * 99, "number longer than 100 characters"), ("1e401", "decimal exponent beyond")],
    )
    def test_float_text_beyond_the_bound_is_a_config_error(self, tmp_path, number, reason):
        text = json.dumps(TEST_CONFIG).replace('"tdp_watts": 150,', f'"tdp_watts": {number},', 1)
        path = tmp_path / "system.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=reason) as excinfo:
            load_config(path)
        assert str(excinfo.value).startswith(f"{path}: ")

    def test_duplicate_partition_names(self, tmp_path):
        entry = TEST_CONFIG["partitions"][0]
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"partitions": [entry, entry]}), encoding="utf-8")
        with pytest.raises(ValidationError, match="duplicate"):
            load_config(path)

    def test_a_partition_named_all_is_refused(self):
        # ingest prints each project's total as partition ALL, so a partition of that name would be ambiguous
        entries = [dict(TEST_CONFIG["partitions"][0], name="ALL"), dict(TEST_CONFIG["partitions"][1], name="all")]
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": entries})
        assert str(excinfo.value).splitlines()[1:] == ["- partitions[0].name: 'ALL' is reserved for the project total"]

    @pytest.mark.parametrize("name", [" work", "work ", "\twork"])
    def test_a_partition_name_with_outer_whitespace_is_refused(self, name):
        # ingest strips a jobs row's partition cell, so such a partition could be priced but never charged
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [dict(TEST_CONFIG["partitions"][0], name=name)]})
        line = f"- partitions[0].name: must not start or end with whitespace, got {name!r}"
        assert str(excinfo.value).splitlines()[1:] == [line]

    def test_model_parameters_on_a_model_that_takes_none_are_refused(self):
        entry = dict(TEST_CONFIG["partitions"][0], model_parameters={"rates": {"core": 2}})
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": [entry]})
        line = "- partitions[0].model_parameters.rates: unknown key (known: none)"
        assert str(excinfo.value).splitlines()[1:] == [line]

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda config, entry: config.update(partition=[]), "partition"),
            (lambda config, entry: entry.update(modle=entry.pop("model")), "partitions[0].modle"),
            (lambda config, entry: entry.update(node_cnt=entry.pop("node_count")), "partitions[0].node_cnt"),
            (lambda config, entry: entry["node"].update(gpu=entry["node"].pop("gpus")), "partitions[0].node.gpu"),
            (lambda config, entry: entry["node"]["cpus"][0].update(vendor="x"), "partitions[0].node.cpus[0].vendor"),
            (lambda config, entry: entry["node"]["gpus"][0].update(cores=4), "partitions[0].node.gpus[0].cores"),
        ],
        ids=["top-level", "partition", "node-count", "node", "cpu", "gpu"],
    )
    def test_every_key_is_known(self, edit, line):
        config = {"partitions": [copy.deepcopy(TEST_CONFIG["partitions"][1])]}
        edit(config, config["partitions"][0])
        known = {
            "": "partitions",
            "partitions[0]": "name, model, node_count, node, model_parameters",
            "partitions[0].node": "name, cpus, memory_total_gib, gpus, extra_resources",
            "partitions[0].node.cpus[0]": "name, cores, tdp_watts, peak_flops, count",
            "partitions[0].node.gpus[0]": "name, streaming_multiprocessors, tdp_watts, peak_flops, count",
        }[line.rpartition(".")[0]]
        with pytest.raises(ValidationError) as excinfo:
            parse_config(config)
        assert f"- {line}: unknown key (known: {known})" in str(excinfo.value).splitlines()[1:]

    def test_a_top_level_key_that_is_not_a_string_is_named_at_the_top_level(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config({"partitions": TEST_CONFIG["partitions"], 1: []})
        assert str(excinfo.value).splitlines()[1:] == ["- top level: expected a string key, got 1"]

    @pytest.mark.parametrize(
        "text, repeated, where",
        [
            ('"model": "puhti"', '"model": "sm", "model": "puhti"', "partitions[0].model"),
            ('"nvme_gib": 1490', '"nvme_gib": 1, "nvme_gib": 1490', "partitions[0].node.extra_resources.nvme_gib"),
            ('{"partitions": [', '{"partitions": [], "partitions": [', "partitions"),
        ],
        ids=["partition", "extra-resources", "top-level"],
    )
    def test_a_repeated_key_is_refused_at_its_path(self, tmp_path, text, repeated, where):
        config = json.dumps({"partitions": [TEST_CONFIG["partitions"][4]]})
        assert config.count(text) == 1
        path = tmp_path / "repeated.json"
        path.write_text(config.replace(text, repeated), encoding="utf-8")
        with pytest.raises(ValidationError) as excinfo:
            load_config(path)
        assert str(excinfo.value).splitlines()[1:] == [f"- {where}: repeated key"]


class TestConfigRoundTrip:
    def test_builtin_config(self):
        config = builtin_config()
        assert config.partition("cpu").weight == 36
        assert config.partition("gpu").weight == 192

    def test_partition_names_are_unique(self):
        cpu, gpu = builtin_config().partitions
        for partitions in [(cpu, Partition("cpu", gpu.node_type, 5)), (cpu, cpu)]:
            with pytest.raises(ValidationError) as raised:
                SystemConfig(partitions)
            assert str(raised.value) == "duplicate partition 'cpu'"


class TestIngestJobs:
    def test_single_core_row_costs_one_su(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        result = ingest_jobs(jobs, config)
        assert not result.errors
        assert charge_record(result.records[0], config).total_su == 1

    def test_over_capacity_row_rejected(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,40,0,2,1.0"])
        result = ingest_jobs(jobs, config)
        assert not result.records
        assert len(result.errors) == 1
        assert "cores" in result.errors[0].message

    def test_zero_elapsed_is_valid(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,0"])
        result = ingest_jobs(jobs, config)
        assert not result.errors
        assert charge_record(result.records[0], config).total_su == 0

    def test_counts_always_reconcile(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = [
            "j1,projA,work,1,1,0,2,1.0",
            "j2,projA,work,1,99,0,2,1.0",  # over capacity
            "j3,projB,nowhere,1,1,0,2,1.0",  # unknown partition
            "j4,projB,work,1,x,0,2,1.0",  # bad integer
            "j5,projB,gpu,1,0,4,8,2.0",
            "j5,projB,gpu,1,0,4,8,2.0",  # duplicate id
            "j6,projB,work,1,0,0,0,1.0",  # requests nothing
        ]
        result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
        assert result.total_rows == 7
        assert len(result.records) + len(result.errors) == result.total_rows
        assert len(result.records) == 2

    def test_missing_column_is_fatal(self, config_path, tmp_path):
        config = load_config(config_path)
        path = tmp_path / "jobs.csv"
        path.write_text("job_id,project,partition,nodes\nj1,p,work,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing columns"):
            ingest_jobs(path, config)

    def test_a_detail_file_missing_columns_is_fatal(self, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        details = tmp_path / "details.csv"
        details.write_text("job_id,node_index,cores\nj1,0,1\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            ingest_jobs(jobs, load_config(config_path), details_path=details)
        assert str(excinfo.value) == f"{details}: details file missing columns: gpus, mem_gib"

    def test_an_unreadable_jobs_file_is_a_config_error(self, config_path, tmp_path):
        missing = tmp_path / "nope.csv"
        with pytest.raises(ConfigError) as excinfo:
            ingest_jobs(missing, load_config(config_path))
        assert str(excinfo.value).startswith(f"cannot read jobs file {missing}: ")

    def test_a_jobs_file_path_in_bytes_is_refused_as_a_config_path_in_bytes_is(self, config_path, tmp_path):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,1,1,0,2,1.0"])
        with pytest.raises(ValidationError) as excinfo:
            ingest_jobs(str(jobs).encode(), load_config(config_path))
        assert str(excinfo.value) == "jobs file path must be a str or a PathLike, got bytes"
        with pytest.raises(ValidationError) as excinfo:
            load_config(str(config_path).encode())
        assert str(excinfo.value) == "config path must be a str or a PathLike, got bytes"

    @pytest.mark.parametrize(
        "cell, outcome",
        [
            (" 12 ", 12),
            ("1_0", 10),
            ("\u0661\u0662", 12),  # Arabic-Indic digits
            ("", "cores_per_node: not an integer: ''"),
            ("1.0", "cores_per_node: not an integer: '1.0'"),
            ("-1", "cores_per_node: must be >= 0, got -1"),
            ("1__0", "cores_per_node: not an integer: '1__0'"),
        ],
    )
    def test_integer_cells(self, config_path, tmp_path, cell, outcome):
        jobs = write_jobs_csv(tmp_path / "jobs.csv", [f"j1,projA,work,1,{cell},0,0,1"])
        (item,) = iter_jobs(jobs, load_config(config_path))
        if isinstance(outcome, int):
            assert item.node_usages[0].cores_used == outcome
        else:
            assert item == RowError(2, outcome)

    def test_an_integer_cell_beyond_the_digit_limit_is_a_row_error(self, config_path, tmp_path):
        digits = "1" * 5000
        jobs = write_jobs_csv(tmp_path / "jobs.csv", [f"j1,projA,work,1,{digits},0,0,1"])
        (item,) = iter_jobs(jobs, load_config(config_path))
        assert item == RowError(2, f"cores_per_node: not an integer: '{digits}'")

    def test_crlf_accepted(self, config_path, tmp_path):
        config = load_config(config_path)
        path = tmp_path / "jobs.csv"
        header = "job_id,project,partition,nodes,cores_per_node,gpus_per_node,mem_gib_per_node,elapsed_hours"
        path.write_bytes((header + "\r\nj1,projA,work,1,1,0,2,1.0\r\n").encode())
        result = ingest_jobs(path, config)
        assert len(result.records) == 1 and not result.errors

    def test_a_byte_order_mark_is_ignored(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = ["j1,projA,work,1,1,0,2,1.0", "j2,projA,work,1,x,0,2,1.0"]
        plain = ingest_jobs(write_jobs_csv(tmp_path / "plain.csv", rows), config)
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        result = ingest_jobs(path, config)
        assert result == plain
        assert [error.line for error in result.errors] == [3]

    def test_a_detail_file_byte_order_mark_is_ignored(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,2,1,0,2,1.0"])
        details = tmp_path / "details.csv"
        rows = "job_id,node_index,cores,gpus,mem_gib\nj1,0,36,0,256\nj1,1,9,0,1\nj9,0,1,0,1\n"
        details.write_bytes(b"\xef\xbb\xbf" + rows.encode("utf-8"))
        result = ingest_jobs(jobs, config, details_path=details)
        assert [record.total_su for record in result.records] == [45]
        assert [(orphan.line, orphan.message) for orphan in result.orphans] == [(4, "job_id 'j9' matches no jobs row")]

    def test_row_errors_name_the_physical_line(self, config_path, tmp_path):
        config = load_config(config_path)
        header = "job_id,project,partition,nodes,cores_per_node,gpus_per_node,mem_gib_per_node,elapsed_hours"
        rows = ["", "", "j1,projA,work,1,99,0,2,1.0", 'j2,"proj\nA",work,1,1,0,2,1.0', "", "j3,projA,work,1,x,0,2,1.0"]
        path = tmp_path / "blank.csv"
        path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        result = ingest_jobs(path, config)
        # j2's quoted cell spans lines 5 and 6, and line 7 is blank
        assert [(error.line, error.message[:10]) for error in result.errors] == [(4, "99 cores r"), (8, "cores_per_")]
        assert len(result.records) == 1

    def test_heterogeneous_details(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,2,1,0,2,1.0"])
        details = tmp_path / "details.csv"
        details.write_text(
            "job_id,node_index,cores,gpus,mem_gib\nj1,0,36,0,256\nj1,1,9,0,1\n", encoding="utf-8"
        )
        result = ingest_jobs(jobs, config, details_path=details)
        assert not result.errors
        record = result.records[0]
        assert record.node_usages[0].cores_used == 36
        assert record.node_usages[1].cores_used == 9
        # max fractions 1 and 1/4 at weight 36 for one hour
        assert charge_record(record, config).total_su == 45

    def test_details_must_cover_every_node(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,work,3,1,0,2,1.0"])
        details = tmp_path / "details.csv"
        details.write_text("job_id,node_index,cores,gpus,mem_gib\nj1,0,4,0,2\n", encoding="utf-8")
        result = ingest_jobs(jobs, config, details_path=details)
        assert len(result.errors) == 1
        assert "node_index" in result.errors[0].message

    def test_repeated_memory_cells_read_as_each_one_alone(self, config_path, tmp_path):
        # equal values spelt three ways, and a bad and a negative cell each on two rows
        config = load_config(config_path)
        nodes = {"j1": 3, "j2": 2, "j3": 1, "j4": 1, "j5": 2, "j6": 1, "j7": 2}
        jobs = write_jobs_csv(tmp_path / "jobs.csv", [f"{job_id},p,work,{n},1,0,0,1" for job_id, n in nodes.items()])
        details = tmp_path / "details.csv"
        details.write_text(
            "job_id,node_index,cores,gpus,mem_gib\n"
            "j1,0,1,0,1.5\nj1,1,1,0,1.50\nj1,2,1,0, 1.5\n"  # lines 2-4
            "j2,0,1,0,x\nj2,1,1,0,1.5\n"  # lines 5-6
            "j3,0,1,0,x\n"  # line 7
            "j4,0,1,0,-1\n"  # line 8
            "j5,0,1,0,1.5\nj5,1,1,0,-1\n"  # lines 9-10
            "j6,0,y,0,1.5\n"  # line 11: the cores cell is read first
            "j7,0,36,0,1.50\nj7,1,0,0, 1.5\n",  # lines 12-13
            encoding="utf-8",
        )
        result = ingest_jobs(jobs, config, details_path=details)
        assert [(record.job_id, record.total_su) for record in result.records] == [("j1", 3), ("j7", 37)]
        assert [(error.line, error.message) for error in result.errors] == [
            (3, "detail line 5: mem_gib: not a number: 'x'"),
            (4, "detail line 7: mem_gib: not a number: 'x'"),
            (5, "detail line 8: mem_gib: must be nonnegative, got -1"),
            (6, "detail line 10: mem_gib: must be nonnegative, got -1"),
            (7, "detail line 11: cores: not an integer: 'y'"),
        ]
        assert result.total_rows == 7 and result.orphans == ()
        first, seventh = result.records
        assert {usage.memory_used_gib for usage in first.node_usages + seventh.node_usages} == {Fraction(3, 2)}


NOTHING_REQUESTED = "a node usage must request at least one resource"


class TestDeferredDetailChecks:
    """A job's detail rows are checked when the job is priced, in detail-file order."""

    @staticmethod
    def ingest(config_path, tmp_path, jobs, details):
        details_path = write_details_csv(tmp_path / "details.csv", details)
        jobs_path = write_jobs_csv(tmp_path / "jobs.csv", jobs)
        return ingest_jobs(jobs_path, load_config(config_path), details_path=details_path)

    @pytest.mark.parametrize(
        "details, message",
        [
            (["j1,0,0,0,0", "j1,0,1,0,1", "j1,0,1,0,1"], f"detail line 2: {NOTHING_REQUESTED}"),
            (["j1,0,1,0,1", "j1,0,1,0,1", "j1,1,0,0,0"], "detail line 3: duplicate node_index 0"),
            (["j1,0,1,0,1", "j1,0,0,0,0"], f"detail line 3: {NOTHING_REQUESTED}"),
        ],
        ids=["zero-then-repeat", "repeat-then-zero", "a-repeat-that-is-zero"],
    )
    def test_an_all_zero_row_and_a_repeated_index_fail_in_file_order(self, config_path, tmp_path, details, message):
        result = self.ingest(config_path, tmp_path, ["j1,p,work,2,1,0,1,1"], details)
        assert [(error.line, error.message) for error in result.errors] == [(2, message)]

    def test_the_first_bad_row_in_file_order_wins_however_the_rows_are_shuffled(self, config_path, tmp_path):
        rows = {"good": "j1,0,1,0,1", "cell": "j1,1,x,0,1", "zero": "j1,2,0,0,0", "repeat": "j1,0,2,0,1"}
        reasons = {"cell": "cores: not an integer: 'x'", "zero": NOTHING_REQUESTED}
        for order in itertools.permutations(rows):
            # rows start on line 2; the later of the two rows with node_index 0 repeats it
            faults = {order.index(kind) + 2: reason for kind, reason in reasons.items()}
            faults[max(order.index("good"), order.index("repeat")) + 2] = "duplicate node_index 0"
            line = min(faults)
            result = self.ingest(config_path, tmp_path, ["j1,p,work,3,1,0,1,1"], [rows[kind] for kind in order])
            assert [error.message for error in result.errors] == [f"detail line {line}: {faults[line]}"], order

    def test_a_job_id_rejected_and_then_charged_reuses_its_detail_rows(self, config_path, tmp_path):
        jobs = ["j1,,work,2,1,0,1,1", "j1,p,work,2,1,0,1,1"]
        result = self.ingest(config_path, tmp_path, jobs, ["j1,0,36,0,256", "j1,1,9,0,1"])
        assert [(error.line, error.message) for error in result.errors] == [(2, "project: must be non-empty")]
        # max fractions 1 and 1/4 at weight 36 for one hour
        assert [(record.job_id, record.total_su) for record in result.records] == [("j1", 45)]
        assert result.orphans == ()

    def test_blank_and_unknown_id_orphans_come_out_in_line_order(self, config_path, tmp_path):
        details = ["zz,0,1,0,1", " ,0,1,0,1", "j1,0,1,0,1", "zz,1,1,0,1", "j2,0,1,0,1", ",0,1,0,1", "yy,0,1,0,1"]
        result = self.ingest(config_path, tmp_path, ["j1,p,work,1,1,0,1,1", "j2,,work,1,1,0,1,1"], details)
        unknown, blank = "job_id {!r} matches no jobs row", "job_id: must be non-empty"
        assert [(orphan.line, orphan.message) for orphan in result.orphans] == [
            (2, unknown.format("zz")), (3, blank), (5, unknown.format("zz")), (7, blank), (8, unknown.format("yy"))
        ]

    @pytest.mark.parametrize(
        "row, message",
        [
            (f"j1,1,{10**30},0,1", f"{10**30} cores requested but node type 'dual-xeon-6240' has 36"),
            (f"j1,{10**30},1,0,1", "detail rows for job 'j1' must cover node_index 0..1 exactly"),
        ],
        ids=["cores", "node_index"],
    )
    def test_a_count_beyond_64_bits_is_read_exactly(self, config_path, tmp_path, row, message):
        result = self.ingest(config_path, tmp_path, ["j1,p,work,2,1,0,1,1"], ["j1,0,1,0,1", row])
        assert [(error.line, error.message) for error in result.errors] == [(2, message)]


class TestAggregate:
    def test_additivity(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = ["a,projA,work,1,1,0,2,1.0", "b,projA,work,1,1,0,2,1.0"]
        result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
        usage = aggregate(result.records, config)
        assert usage["projA"].total_su == 2

    def test_empty(self, config_path):
        config = load_config(config_path)
        assert aggregate([], config) == {}

    def test_subtotals_sum_to_total(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = [
            "a,projA,work,2,36,0,256,1.0",
            "b,projA,gpu,1,0,4,8,0.5",
            "c,projA,legacy,1,16,1,8,1.0",
            "d,projB,shared,1,4,1,16,2.0",
        ]
        result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
        assert not result.errors
        usage = aggregate(result.records, config)
        for project_usage in usage.values():
            assert sum(project_usage.by_partition.values()) == project_usage.total_su

    def test_total_equals_sum_of_job_costs(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = [f"j{i},proj{i % 3},work,{1 + i % 4},{1 + i % 36},0,{1 + i % 200},{i % 7}.5" for i in range(60)]
        result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
        assert not result.errors
        usage = aggregate(result.records, config)
        expected = {}
        for record in result.records:
            expected[record.project] = expected.get(record.project, 0) + charge_record(record, config).total_su
        assert {p: u.total_su for p, u in usage.items()} == expected

    def test_permutation_invariance(self, config_path, tmp_path):
        config = load_config(config_path)
        rows = [f"j{i},projA,work,1,{1 + i},0,4,1.5" for i in range(20)]
        result = ingest_jobs(write_jobs_csv(tmp_path / "jobs.csv", rows), config)
        forward = aggregate(result.records, config)
        backward = aggregate(tuple(reversed(result.records)), config)
        assert forward == backward


class TestEstimateIngestAgreement:
    def test_same_job_same_su(self, config_path, tmp_path):
        config = load_config(config_path)
        jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,projA,gpu,2,9,1,64,1.5"])
        result = ingest_jobs(jobs, config)
        ingested = charge_record(result.records[0], config).total_su
        partition = config.partition("gpu")
        job = JobRequest.uniform(
            partition, 2, NodeUsage(cores_used=9, gpus_used=1, memory_used_gib=64), Fraction(3, 2)
        )
        estimated = config.model_for("gpu").charge(job).total_su
        assert ingested == estimated == job_cost(job).total_su


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
EDGE_VALUES = (0, -1, 1024, 1025, 10**19, 10**4000, 1e308, 5e-324, "", "1", [], {}, [{}], {"": 1})


def value_paths(value, prefix=()):
    """The key path of every value inside a JSON document."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from value_paths(child, prefix + (key,))


CONFIG_PATHS = list(value_paths(TEST_CONFIG))[1:]


@st.composite
def mutated_configs(draw):
    """The test config with one to three values replaced or deleted."""
    data = copy.deepcopy(TEST_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(CONFIG_PATHS))
        owner = data
        try:
            for parent in parents:
                owner = owner[parent]
            owner[key]
        except (KeyError, IndexError, TypeError):  # an earlier mutation took it away
            continue
        if not isinstance(owner, (dict, list)):  # an earlier mutation made it a string
            continue
        if draw(st.integers(0, 3)) == 0:
            del owner[key]
        else:
            # a copy, so that a later mutation cannot nest a shared EDGE_VALUES list in itself
            owner[key] = copy.deepcopy(draw(json_values | st.sampled_from(EDGE_VALUES)))
    return data


def config_outcome(build):
    """A SystemConfig, or None for a reported error; any other exception fails the test."""
    try:
        config = build()
    except (ValidationError, ConfigError):
        return None
    assert isinstance(config, SystemConfig)
    assert all(partition.weight > 0 for partition in config.partitions)
    return config


@settings(max_examples=300, deadline=None)
@given(json_values | mutated_configs())
def test_parse_config_accepts_or_reports_any_json_value(data):
    config_outcome(lambda: parse_config(data))


@st.composite
def mutated_config_bytes(draw):
    """A mutated config as JSON bytes, with up to three byte-level edits."""
    text = bytearray(json.dumps(draw(mutated_configs())).encode("utf-8"))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(("insert", "replace", "delete")))
        new = draw(st.sampled_from((b"\xff", b"\xc3", b"0", b"9", b"-", b".", b"e", b'"', b"{", b"]", b",", b" ")))
        if edit == "insert":
            text[at:at] = new
        elif edit == "replace":
            text[at:at + 1] = new
        else:
            del text[at:at + 1]
    return bytes(text)


@settings(max_examples=300, deadline=None)
@given(mutated_config_bytes())
def test_load_config_accepts_or_reports_any_bytes(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("config") / "system.json"
    path.write_bytes(raw)
    config_outcome(lambda: load_config(path))


# The detail join on the `work` partition (36 cores, 256 GiB, energy model).
# Memory cells are always 1 GiB, one per-core share, so a node with `c`
# cores charges max(c, 1) SU for the one hour every row runs.
DETAIL_IDS = ("a", "b", "c", " a ", "", " ", "zz")
JOIN_CONFIG = parse_config({"partitions": [TEST_CONFIG["partitions"][0]]})


@st.composite
def detail_joins(draw):
    """Jobs rows and detail rows over a few shared, blank, padded and unknown ids.

    Some jobs get a full set of node rows, so that jobs charged from their
    detail rows are common; the other detail rows are drawn at random.
    """
    jobs = draw(st.lists(
        st.tuples(st.sampled_from(DETAIL_IDS[:-1]), st.sampled_from(("p", "")), st.sampled_from("0123x")),
        max_size=6,
    ))
    details = []
    for job_id, _, nodes in jobs:
        if nodes.isdigit() and draw(st.booleans()):
            details += [(job_id, str(index), draw(st.sampled_from("012"))) for index in range(int(nodes))]
    indices = st.sampled_from(("0", "1", "2", "3", "-1", "x"))
    details += draw(st.lists(st.tuples(st.sampled_from(DETAIL_IDS), indices, st.sampled_from("012x")), max_size=6))
    return jobs, draw(st.permutations(details))


def reference_join(jobs, details):
    """Records, row errors and orphan lines as the README states the rules.

    Rows start on line 2 of both files. A row error is (line, rule, detail line or None).
    """
    records, errors, charged = [], [], set()
    by_id = {}
    for line, (job_id, index, cores) in enumerate(details, start=2):
        by_id.setdefault(job_id.strip(), []).append((line, index, cores))
    for line, (job_id, project, nodes) in enumerate(jobs, start=2):
        job_id = job_id.strip()
        if job_id in charged:
            errors.append((line, "duplicate job_id", None))
            continue
        if not job_id:
            errors.append((line, "blank job_id", None))
            continue
        usages, bad = {}, None
        for detail_line, index, cores in by_id.get(job_id, ()):
            if not (index.isdigit() and cores.isdigit()):
                bad = (line, "bad detail cell", detail_line)
            elif int(index) in usages:
                bad = (line, "duplicate node_index", detail_line)
            else:
                usages[int(index)] = int(cores)
                continue
            break
        if bad or not project or not nodes.isdigit() or nodes == "0":
            errors.append(bad or (line, "project" if not project else "nodes", None))
        elif usages and sorted(usages) != list(range(int(nodes))):
            errors.append((line, "coverage", None))
        else:
            charged.add(job_id)
            records.append((job_id, sum(max(cores, 1) for cores in usages.values()) if usages else int(nodes)))
    named = {job_id.strip() for job_id, _, _ in jobs} - {""}
    orphans = [line for line, (job_id, _, _) in enumerate(details, start=2) if job_id.strip() not in named]
    return records, errors, orphans


def error_rule(message):
    """The rule a row error names, and the detail line it quotes."""
    detail = re.match(r"detail line (\d+): ", message)
    if detail:
        rule = "duplicate node_index" if "duplicate node_index" in message else "bad detail cell"
        return rule, int(detail.group(1))
    for prefix, rule in (
        ("duplicate job_id", "duplicate job_id"),
        ("job_id: must be non-empty", "blank job_id"),
        ("project:", "project"),
        ("nodes:", "nodes"),
        ("detail rows for job", "coverage"),
    ):
        if message.startswith(prefix):
            return rule, None
    raise AssertionError(f"unexpected row error {message!r}")


@settings(max_examples=300, deadline=None)
@given(detail_joins())
def test_the_detail_join_follows_the_stated_rules(tmp_path_factory, join):
    jobs, details = join
    folder = tmp_path_factory.mktemp("join")
    with open(folder / "jobs.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(JOBS_CSV_COLUMNS)
        writer.writerows((job_id, project, "work", nodes, 1, 0, 1, 1) for job_id, project, nodes in jobs)
    with open(folder / "details.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(DETAIL_CSV_COLUMNS)
        writer.writerows((job_id, index, cores, 0, 1) for job_id, index, cores in details)
    for details_path, rows in ((folder / "details.csv", details), (None, [])):
        result = ingest_jobs(folder / "jobs.csv", JOIN_CONFIG, details_path=details_path)
        assert (
            [(record.job_id, record.total_su) for record in result.records],
            [(error.line, *error_rule(error.message)) for error in result.errors],
            [orphan.line for orphan in result.orphans],
        ) == reference_join(jobs, rows)


@st.composite
def detail_orders(draw):
    """Jobs rows, their detail rows and a reordering of the detail rows.

    Each job has at most one fault among its detail rows (a cell that does not parse, an
    all-zero row, a repeated or a missing node_index), so which fault rejects it does not
    depend on the order of the rows. Orphans with a blank or unknown id are mixed in.
    """
    jobs, details = [], []
    for number in range(draw(st.integers(1, 5))):
        job_id, nodes = f"j{number}", draw(st.integers(1, 3))
        jobs.append(f"{job_id},{draw(st.sampled_from('pq'))},work,{nodes},1,0,1,1")
        rows = [
            [job_id, str(index), str(draw(st.integers(1, 36))), "0", draw(st.sampled_from(("0", "1.5", "2")))]
            for index in range(nodes)
        ]
        fault = draw(st.sampled_from(("none", "cell", "zero", "repeat", "missing")))
        target = draw(st.integers(0, nodes - 1))
        if fault == "cell":
            rows[target][2] = "x"
        elif fault == "zero":
            rows[target][2:] = ["0", "0", "0"]
        elif fault == "repeat":
            rows.append([job_id, str(target), "1", "0", "1"])
        elif fault == "missing":
            del rows[target]
        details += [",".join(row) for row in rows]
    if draw(st.booleans()):  # a duplicate of a charged row, or a second try of a rejected one
        jobs.append(draw(st.sampled_from(jobs)))
    details += draw(st.lists(st.sampled_from(("zz,0,1,0,1", ",0,1,0,1", " ,1,2,0,1")), max_size=3))
    return jobs, details, draw(st.permutations(details))


def normalized_ingest(folder, jobs, details):
    """Exit code, stdout and the sorted stderr lines of `sumeter ingest`, with detail line numbers and
    `folder` taken out."""
    write_jobs_csv(folder / "jobs.csv", jobs)
    write_details_csv(folder / "details.csv", details)
    (folder / "system.json").write_text(json.dumps(TEST_CONFIG), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--config", str(folder / "system.json"), "ingest", "--jobs", str(folder / "jobs.csv"),
                     "--details", str(folder / "details.csv")])
    lines = err.getvalue().replace(str(folder), "").splitlines()
    return code, out.getvalue(), sorted(re.sub(r"(details\.csv:|detail line )\d+", r"\1N", line) for line in lines)


@settings(max_examples=150, deadline=None)
@given(detail_orders())
def test_the_order_of_the_detail_rows_moves_only_line_numbers_and_message_order(tmp_path_factory, case):
    jobs, details, shuffled = case
    assert normalized_ingest(tmp_path_factory.mktemp("order"), jobs, shuffled) == normalized_ingest(
        tmp_path_factory.mktemp("order"), jobs, details
    )
