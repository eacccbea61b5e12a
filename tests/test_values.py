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
        lambda: IngestResult((record(),), (RowError(3, "x"),), 2),
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
IDS = [cls.__name__ for cls, _, _ in VALUES]


@pytest.mark.parametrize("cls, make, fields", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_alike(cls, make, fields):
    first, second = make(), make()
    assert type(first) is cls and first is not second
    assert first == second and not first != second
    if cls is ProjectUsage:  # a dict field makes it unhashable, as a frozen dataclass with one was
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
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
    value = node()
    assert value.total_cores == 40 and "total_cores" in vars(value)
    assert value == node() and repr(value) == repr(node())
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert "total_cores" not in vars(clone)
    model = PuhtiModel()
    model.node_fraction(usage(), node())  # keeps the full-node bill of the last node priced
    assert "_last_full_node" in vars(model)
    assert model == PuhtiModel() and hash(model) == hash(PuhtiModel()) and repr(model) == repr(PuhtiModel())
    assert "_last_full_node" not in vars(pickle.loads(pickle.dumps(model)))


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
