"""Value semantics of every immutable value type: equality, hash, repr, immutability, copies."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sumeter import (
    ApplicationBenchmark,
    BenchmarkTableRow,
    ChargeReport,
    DecisionPoint,
    DetailRowError,
    EnergyModel,
    IngestResult,
    JobRecord,
    JobRequest,
    NodeChoice,
    NodeType,
    NodeUsage,
    Partition,
    PeakPerfModel,
    ProcessorSpec,
    ProjectUsage,
    PuhtiModel,
    PuhtiRates,
    RowComparison,
    RowError,
    SmModel,
    SystemConfig,
    TitanModel,
    builtin_config,
    job_cost,
    reference_gpu_node,
)
from sumeter.tables import PUBLISHED_TABLES, PublishedTable

SRC = Path(__file__).resolve().parents[1] / "src"


def cpu():
    return ProcessorSpec.cpu("Xeon Gold 6230", cores=20, tdp_watts=125, peak_flops="1.2e12")


def node():
    gpus = [ProcessorSpec.gpu("V100", streaming_multiprocessors=80, tdp_watts=300, peak_flops=7e12)] * 4
    return NodeType("v100-node", [cpu(), cpu()], memory_total_gib=384, gpus=gpus, extra_resources={"nvme_gib": 1490})


def usage():
    return NodeUsage(cores_used=10, gpus_used=1, memory_used_gib=Fraction(3, 2), extra_used={"nvme_gib": 100})


def partition():
    return Partition("shared", node(), node_count=10, model=PuhtiModel(PuhtiRates(core=2), "nvme_gib"))


def job():
    return JobRequest(partition(), [usage(), NodeUsage(cores_used=1)], "2.5")


def uniform_job():
    return JobRequest.uniform(partition(), 3, usage(), "2.5")


def table_row():
    return BenchmarkTableRow("AMBER", 153, Fraction(5508), Fraction(192), Fraction(5508, 192))


def record():
    return JobRecord("j1", "projA", "shared", (usage(),), Fraction(5, 2), Fraction(7, 3))


# (class, factory, its fields in order); each factory builds a fresh, equal value on every call
VALUES = [
    (ProcessorSpec, cpu, ("name", "kind", "tdp_watts", "peak_flops", "cores", "streaming_multiprocessors")),
    (NodeType, node, ("name", "cpus", "memory_total_gib", "gpus", "extra_resources")),
    (NodeUsage, usage, ("cores_used", "gpus_used", "memory_used_gib", "extra_used")),
    (EnergyModel, EnergyModel, ()),
    (Partition, partition, ("name", "node_type", "node_count", "model", "weight")),
    (JobRequest, job, ("partition", "per_node_usage", "walltime_hours")),
    (JobRequest, uniform_job, ("partition", "per_node_usage", "walltime_hours")),
    (
        ChargeReport,
        lambda: job_cost(job()),
        ("model_id", "total_su", "per_node_fraction", "weight_used", "walltime_hours"),
    ),
    (PuhtiRates, lambda: PuhtiRates(gpu="0.5"), ("core", "memory_gib", "nvme_gib", "gpu")),
    (SmModel, SmModel, ()),
    (PeakPerfModel, PeakPerfModel, ()),
    (TitanModel, TitanModel, ()),
    (PuhtiModel, lambda: PuhtiModel(nvme_resource="scratch"), ("rates", "nvme_resource")),
    (SystemConfig, builtin_config, ("partitions",)),
    (JobRecord, record, ("job_id", "project", "partition", "node_usages", "elapsed_hours", "total_su")),
    (RowError, lambda: RowError(3, "bad row"), ("line", "message")),
    (DetailRowError, lambda: DetailRowError(4, "orphan"), ("line", "message")),
    (
        IngestResult,
        lambda: IngestResult((record(),), (RowError(3, "x"),), 2, ()),
        ("records", "errors", "total_rows", "orphans"),
    ),
    (ProjectUsage, lambda: ProjectUsage(Fraction(7, 3), {"p": Fraction(7, 3)}), ("total_su", "by_partition")),
    (BenchmarkTableRow, table_row, ("application", "perf_ratio", "cpu_charge", "gpu_charge", "cost_ratio")),
    (PublishedTable, lambda: copy.deepcopy(PUBLISHED_TABLES[4]), ("number", "model_id", "gpu_charge", "rows")),
    (
        RowComparison,
        lambda: RowComparison(table_row(), 5508, 192, "28.7", True, True, Fraction(1, 1000), True),
        (
            "row",
            "published_cpu_charge",
            "published_gpu_charge",
            "published_ratio",
            "cpu_charge_matches",
            "gpu_charge_matches",
            "ratio_delta",
            "ratio_matches",
        ),
    ),
    (ApplicationBenchmark, lambda: ApplicationBenchmark("GROMACS", 23), ("name", "perf_ratio")),
    (
        DecisionPoint,
        lambda: DecisionPoint(Fraction(10), Fraction(36), Fraction(96, 5), NodeChoice.GPU, Fraction(160)),
        ("speedup", "su_cpu", "su_gpu", "chosen", "ec_total_wh"),
    ),
]


def ids(entries):
    """The class names, and the factory for the second entry of `JobRequest`."""
    return ["JobRequest-uniform" if make is uniform_job else cls.__name__ for cls, make, _ in entries]


IDS = ids(VALUES)


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(cls, make, fields):
    first, second = make(), make()
    assert type(first) is cls and first is not second
    assert first == second and not first != second
    if cls is ProjectUsage:  # a dict field makes it unhashable, as a frozen dataclass with one was
        with pytest.raises(TypeError):
            hash(first)
    else:  # the hash of the field tuple, one-field and field-less classes too
        assert hash(first) == hash(second) == hash(tuple(getattr(first, name) for name in fields))
    assert first != object() and first != tuple(getattr(first, name) for name in fields)


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_repr_names_each_field(cls, make, fields):
    value = make()
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in fields)
    assert repr(value) == f"{cls.__name__}({shown})"


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, make, fields):
    value = make()
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_copies_and_pickles_are_equal_values(cls, make, fields):
    value = make()
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value
        for name in fields:
            assert getattr(clone, name) == getattr(value, name)


NAMED = [entry for entry in VALUES if entry[0] is not Partition]  # a partition derives its weight


@pytest.mark.parametrize("cls, make, fields", NAMED, ids=ids(NAMED))
def test_fields_can_be_passed_by_name(cls, make, fields):
    value = make()
    assert cls(**{name: getattr(value, name) for name in fields}) == value


RECORD = ("j1", "p", "cpu", (), Fraction(1))  # a record's fields but its total_su


@pytest.mark.parametrize(
    "cls, values, named, problem",
    [
        (RowError, (3,), {}, "RowError: missing field 'message'"),
        (RowError, (3, "x", 4), {}, r"RowError takes 2 fields \('line', 'message'\), got 3 values"),
        (RowError, (3,), {"line": 4}, "RowError: repeated field 'line'"),
        (RowError, (3,), {"msg": "x"}, "RowError: unknown field 'msg'"),
        (JobRecord, RECORD, {}, "JobRecord: missing field 'total_su'"),
        (JobRecord, RECORD, {"total_su": Fraction(1), "hours": 1}, "JobRecord: unknown field 'hours'"),
    ],
)
def test_a_missing_extra_or_repeated_field_is_a_type_error(cls, values, named, problem):
    with pytest.raises(TypeError, match=problem):
        cls(*values, **named)


def test_values_of_different_classes_are_unequal():
    assert RowError(1, "x") != DetailRowError(1, "x")
    assert DetailRowError(1, "x") != RowError(1, "x")
    assert EnergyModel() != SmModel()
    assert repr(RowError(1, "x")) == "RowError(line=1, message='x')"
    assert repr(DetailRowError(1, "x")) == "DetailRowError(line=1, message='x')"


def test_partition_repr_shows_the_derived_weight():
    shown = repr(Partition("gpu", reference_gpu_node(), node_count=250))
    assert shown.startswith("Partition(name='gpu', node_type=NodeType(name='quad-a100', ")
    assert shown.endswith(", node_count=250, model=EnergyModel(), weight=Fraction(192, 1))")


def test_caches_stay_out_of_equality_repr_and_copies():
    # derived values are worked out by the constructor into slots that are not fields
    value = node()
    assert value.total_cores == 40 and value.cpu_tdp_watts == 250 and value.extra_capacities == {"nvme_gib": 1490}
    assert value == node() and hash(value) == hash(node()) and repr(value) == repr(node())
    model = PuhtiModel()
    model.node_share(usage(), node())  # pricing leaves the model as it was built
    assert model == PuhtiModel() and hash(model) == hash(PuhtiModel()) and repr(model) == repr(PuhtiModel())
    derived_by_class = {}
    for cls, make, fields in VALUES:
        value = make()
        assert not hasattr(value, "__dict__"), cls.__name__
        derived = [name for name in cls.__slots__ if name not in fields]
        derived_by_class[cls] = len(derived)
        for name in derived:
            with pytest.raises(AttributeError):
                setattr(value, name, getattr(value, name))
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert all(getattr(clone, name) == getattr(value, name) for name in derived), cls.__name__
    assert derived_by_class[NodeType] == 10 and derived_by_class[PuhtiModel] == derived_by_class[SystemConfig] == 1
    # a uniform job and its copies are priced by its one usage, counted once per node
    assert uniform_job()._priced_by == ((usage(),), 3) and derived_by_class[JobRequest] == 1


def test_a_config_built_from_a_list_keeps_its_own_tuple():
    partitions = list(builtin_config().partitions)
    config = SystemConfig(partitions=partitions)
    partitions.pop(0)  # the caller's list changes after the config is built
    assert [partition.name for partition in config.partitions] == ["cpu", "gpu"]
    assert config.partition("cpu") is config.partitions[0]
    assert config == builtin_config() and hash(config) == hash(builtin_config())


def test_a_copied_partition_derives_its_weight_again():
    valid = partition()
    assert copy.copy(valid).weight == valid.weight
    assert pickle.loads(pickle.dumps(valid)).weight == valid.weight


def test_importing_the_cli_builds_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    probe = "import sys, sumeter.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
