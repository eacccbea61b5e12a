"""Property-based checks of the charging invariants."""

import copy
import csv
import io
import math
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumeter import (
    MODEL_IDS,
    AccountingError,
    CapacityError,
    JobRecord,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    charge_record,
    decision_threshold,
    get_model,
    gpu_partition_weight,
    iter_jobs,
    job_cost,
    memory_fraction,
    node_fraction,
    parse_config,
    puhti_bu,
    titan_node_charge,
)
from sumeter.ingest import RowTally
from conftest import TEST_CONFIG

MAX_NODES = 6


@st.composite
def node_types(draw, with_gpus=None):
    sockets = draw(st.integers(1, 2))
    cores = draw(st.integers(1, 64))
    cpu = ProcessorSpec.cpu(
        "cpu",
        cores,
        draw(st.integers(50, 500)),
        draw(st.integers(10**11, 10**13)),
    )
    if with_gpus is None:
        gpu_count = draw(st.integers(0, 8))
    else:
        gpu_count = draw(st.integers(1, 8)) if with_gpus else 0
    gpus = ()
    if gpu_count:
        gpu = ProcessorSpec.gpu(
            "gpu",
            draw(st.integers(1, 160)),
            draw(st.integers(100, 800)),
            draw(st.integers(10**12, 10**14)),
        )
        gpus = (gpu,) * gpu_count
    memory = draw(st.integers(16, 2048))
    return NodeType("node", cpus=(cpu,) * sockets, memory_total_gib=memory, gpus=gpus)


@st.composite
def usages(draw, node):
    cores = draw(st.integers(0, node.total_cores))
    gpus = draw(st.integers(0, node.gpu_count))
    memory = draw(
        st.fractions(min_value=0, max_value=node.memory_total_gib, max_denominator=64)
    )
    if cores == 0 and gpus == 0 and memory == 0:
        cores = 1
    return NodeUsage(cores_used=cores, gpus_used=gpus, memory_used_gib=memory)


@st.composite
def jobs(draw, model_id="energy"):
    node = draw(node_types())
    partition = Partition("p", node, node_count=MAX_NODES, model=get_model(model_id))
    node_count = draw(st.integers(1, MAX_NODES))
    per_node = tuple(draw(usages(node)) for _ in range(node_count))
    walltime = draw(st.fractions(min_value=0, max_value=100, max_denominator=1000))
    return JobRequest(partition, per_node, walltime)


@st.composite
def mixed_usage_jobs(draw, model_id):
    """Jobs mixing one repeated usage object, equal-but-distinct copies of it and other usages."""
    node = draw(node_types())
    partition = Partition("p", node, node_count=MAX_NODES, model=get_model(model_id))
    shared = draw(usages(node))
    per_node = []
    for kind in draw(st.lists(st.sampled_from(("same", "copy", "other")), min_size=1, max_size=MAX_NODES)):
        if kind == "same":
            per_node.append(shared)
        elif kind == "copy":
            per_node.append(copy.copy(shared))
        else:
            per_node.append(draw(usages(node)))
    walltime = draw(st.fractions(min_value=0, max_value=100, max_denominator=1000))
    return JobRequest(partition, tuple(per_node), walltime)


@given(st.sampled_from(MODEL_IDS).flatmap(mixed_usage_jobs))
def test_charge_equals_the_naive_per_node_sum(job):
    model, node = job.partition.model, job.partition.node_type
    naive = tuple(model.node_fraction(usage, node) for usage in job.per_node_usage)
    report = model.charge(job)
    assert report.per_node_fraction == naive
    assert report.total_su == model.node_weight(node) * job.walltime_hours * sum(naive)


@given(node_types(), st.dictionaries(st.sampled_from(("nvme_gib", "scratch")), st.integers(1, 4000)))
def test_cached_node_values_equal_their_sums(node, extras):
    node = NodeType(node.name, node.cpus, node.memory_total_gib, node.gpus, extras)
    fresh = copy.copy(node)
    expected = {
        "total_cores": sum(c.cores for c in node.cpus),
        "gpu_count": len(node.gpus),
        "total_streaming_multiprocessors": sum(g.streaming_multiprocessors for g in node.gpus),
        "cpu_tdp_watts": sum(c.tdp_watts for c in node.cpus),
        "gpu_tdp_watts": sum(g.tdp_watts for g in node.gpus),
        "cpu_peak_flops": sum(c.peak_flops for c in node.cpus),
        "gpu_peak_flops": sum(g.peak_flops for g in node.gpus),
        "memory_per_core_gib": node.memory_total_gib / sum(c.cores for c in node.cpus),
        "extra_capacities": {name: Fraction(capacity) for name, capacity in extras.items()},
    }
    for _ in range(2):  # the first read fills the cache, the second reads it
        assert {name: getattr(node, name) for name in expected} == expected
    # the cache sits outside the fields: equality and hashing ignore it
    assert node == fresh and hash(node) == hash(fresh)


@given(jobs())
def test_report_identity_and_bounds(job):
    report = job_cost(job)
    assert report.total_su == report.weight_used * report.walltime_hours * sum(report.per_node_fraction)
    assert all(0 < f <= 1 for f in report.per_node_fraction)
    # shared-node charging never exceeds the exclusive whole-node price
    assert report.total_su <= report.weight_used * report.walltime_hours * len(job.per_node_usage)


@given(st.sampled_from(MODEL_IDS).flatmap(jobs))
def test_job_cost_is_the_partition_model_charge(job):
    model_id = job.partition.model.id
    report = job_cost(job)
    assert report == get_model(model_id).charge(job)
    assert report.model_id == model_id
    assert report.weight_used == job.partition.weight
    assert report.total_su == report.weight_used * report.walltime_hours * sum(report.per_node_fraction)


@given(jobs(), st.fractions(min_value=0, max_value=10, max_denominator=100))
def test_cost_monotone_in_walltime(job, extra):
    longer = JobRequest(job.partition, job.per_node_usage, job.walltime_hours + extra)
    assert job_cost(longer).total_su >= job_cost(job).total_su


@given(jobs())
def test_cost_monotone_in_cores(job):
    usage = job.per_node_usage[0]
    node = job.partition.node_type
    if usage.cores_used >= node.total_cores:
        return
    bumped = NodeUsage(
        cores_used=usage.cores_used + 1,
        gpus_used=usage.gpus_used,
        memory_used_gib=usage.memory_used_gib,
    )
    grown = JobRequest(job.partition, (bumped,) + job.per_node_usage[1:], job.walltime_hours)
    assert job_cost(grown).total_su >= job_cost(job).total_su


@given(jobs())
def test_adding_a_node_strictly_increases_positive_cost(job):
    if len(job.per_node_usage) >= MAX_NODES or job.walltime_hours == 0:
        return
    grown = JobRequest(
        job.partition, job.per_node_usage + (job.per_node_usage[-1],), job.walltime_hours
    )
    assert job_cost(grown).total_su > job_cost(job).total_su


@given(jobs(), st.fractions(min_value=0, max_value=50, max_denominator=500))
def test_time_additivity(job, second_leg):
    first = job_cost(job).total_su
    second = job_cost(JobRequest(job.partition, job.per_node_usage, second_leg)).total_su
    combined = job_cost(
        JobRequest(job.partition, job.per_node_usage, job.walltime_hours + second_leg)
    ).total_su
    assert combined == first + second


@given(node_types())
def test_memory_fraction_codomain(node):
    for numerator in (1, 3, 7):
        usage = NodeUsage(memory_used_gib=node.memory_total_gib * Fraction(numerator, 8))
        fraction = memory_fraction(usage, node)
        assert 0 < fraction <= 1
        steps = fraction * node.total_cores
        assert steps.denominator == 1
        assert 1 <= steps <= node.total_cores


@given(node_types(with_gpus=True), st.fractions(min_value=Fraction(1, 100), max_value=100, max_denominator=100))
def test_gpu_weight_scale_invariance(node, factor):
    scaled = NodeType(
        node.name,
        cpus=tuple(
            ProcessorSpec.cpu(c.name, c.cores, c.tdp_watts * factor, c.peak_flops) for c in node.cpus
        ),
        memory_total_gib=node.memory_total_gib,
        gpus=tuple(
            ProcessorSpec.gpu(g.name, g.streaming_multiprocessors, g.tdp_watts * factor, g.peak_flops)
            for g in node.gpus
        ),
    )
    assert gpu_partition_weight(scaled) == gpu_partition_weight(node)


@given(node_types(with_gpus=True))
def test_energy_threshold_equals_decision_threshold(node):
    # the energy model switches exactly where GPU energy drops below CPU energy
    cpu_only = NodeType("cpu-twin", cpus=node.cpus, memory_total_gib=node.memory_total_gib)
    threshold = decision_threshold(get_model("energy"), cpu_only, node)
    assert threshold == node.gpu_tdp_watts / node.cpu_tdp_watts


@given(node_types(with_gpus=True))
def test_unused_gpus_change_only_the_weight(node):
    cpu_only = NodeType("bare", cpus=node.cpus, memory_total_gib=node.memory_total_gib)
    usage = NodeUsage(cores_used=1, memory_used_gib=Fraction(node.memory_total_gib, 2))
    assert node_fraction(usage, node) == node_fraction(usage, cpu_only)


@given(
    st.integers(0, 100),
    st.integers(0, 100),
    st.fractions(min_value=0, max_value=1000, max_denominator=100),
    st.fractions(min_value=0, max_value=1000, max_denominator=100),
    st.integers(0, 8),
    st.fractions(min_value=0, max_value=48, max_denominator=100),
)
def test_puhti_linearity(cores_a, cores_b, mem, nvme, gpus, hours):
    split = puhti_bu(cores_a, mem, nvme, gpus, hours) + puhti_bu(cores_b, 0, 0, 0, hours)
    assert puhti_bu(cores_a + cores_b, mem, nvme, gpus, hours) == split
    assert puhti_bu(cores_a, mem, nvme, gpus, 2 * hours) == 2 * puhti_bu(cores_a, mem, nvme, gpus, hours)


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=200)
def test_titan_additivity(a, b, sms):
    assert titan_node_charge(a + b, sms) == titan_node_charge(a, sms) + titan_node_charge(b, 0)


@given(node_types(with_gpus=True))
def test_threshold_increases_with_weight(node):
    cpu_only = NodeType("cpu-twin", cpus=node.cpus, memory_total_gib=node.memory_total_gib)
    pairs = [
        (get_model(model_id).node_weight(node), decision_threshold(get_model(model_id), cpu_only, node))
        for model_id in ("energy", "sm", "peak-perf")
    ]
    for weight, threshold in pairs:
        assert threshold == weight / cpu_only.total_cores
    pairs.sort()
    assert [t for _, t in pairs] == sorted(t for _, t in pairs)


EXTRA_NAMES = ("nvme_gib", "scratch")


@st.composite
def kernel_node_types(draw):
    """Node types with non-integer memory, 0-8 GPUs and extra resources."""
    node = draw(node_types())
    memory = draw(st.fractions(min_value=Fraction(1, 8), max_value=2048, max_denominator=1000))
    extras = draw(
        st.dictionaries(
            st.sampled_from(EXTRA_NAMES),
            st.fractions(min_value=Fraction(1, 100), max_value=4000, max_denominator=100),
        )
    )
    return NodeType(node.name, node.cpus, memory, node.gpus, extras)


def edge_integers(capacity):
    return st.sampled_from((0, capacity, capacity + 1)) | st.integers(0, capacity + 1)


@st.composite
def edge_usages(draw, node):
    """Usages on and just past every capacity edge of `node`."""
    share = node.memory_total_gib / node.total_cores
    nudge = Fraction(1, 10**6)
    scale = st.fractions(min_value=0, max_value=Fraction(11, 10), max_denominator=1000)
    memory = draw(
        st.one_of(
            st.just(node.memory_total_gib),
            st.integers(0, node.total_cores + 1).map(lambda k: k * share),
            st.integers(1, node.total_cores + 1).map(lambda k: k * share - nudge),
            st.integers(0, node.total_cores).map(lambda k: k * share + nudge),
            scale.map(lambda f: f * node.memory_total_gib),
        )
    )
    capacities = dict(node.extra_resources)
    extras = {}
    for name in draw(st.lists(st.sampled_from(EXTRA_NAMES + ("bogus",)), unique=True)):
        capacity = capacities.get(name, Fraction(1))
        extras[name] = draw(
            st.one_of(
                st.just(capacity),
                st.just(capacity + nudge),
                scale.map(lambda f, capacity=capacity: f * capacity),
            )
        )
    cores = draw(edge_integers(node.total_cores))
    if cores == 0 and memory == 0 and not any(extras.values()):
        cores = 1
    return NodeUsage(
        cores_used=cores,
        gpus_used=draw(edge_integers(node.gpu_count)),
        memory_used_gib=memory,
        extra_used=extras,
    )


def rule_fraction(usage, node):
    """The max-fraction rule in plain Fraction arithmetic, checking cores, GPUs, memory, extras in order."""
    cores, gpus, memory = node.total_cores, len(node.gpus), node.memory_total_gib
    if usage.cores_used > cores:
        raise CapacityError(f"{usage.cores_used} cores requested but node type {node.name!r} has {cores}")
    if usage.gpus_used > gpus:
        raise CapacityError(f"{usage.gpus_used} GPUs requested but node type {node.name!r} has {gpus}")
    if usage.memory_used_gib > memory:
        raise CapacityError(
            f"{float(usage.memory_used_gib):g} GiB requested but node type {node.name!r} has {float(memory):g} GiB"
        )
    terms = [
        Fraction(usage.cores_used, cores),
        Fraction(usage.gpus_used, gpus) if usage.gpus_used else Fraction(0),
        Fraction(math.ceil(usage.memory_used_gib / (memory / cores)), cores),
    ]
    capacities = dict(node.extra_resources)
    for name, amount in usage.extra_used:
        if name not in capacities:
            raise CapacityError(f"node type {node.name!r} has no resource {name!r}")
        if amount > capacities[name]:
            raise CapacityError(
                f"{float(amount):g} of {name!r} requested but node type {node.name!r} has {float(capacities[name]):g}"
            )
        terms.append(amount / capacities[name])
    return max(terms)


@settings(max_examples=300)
@given(kernel_node_types().flatmap(lambda node: st.tuples(st.just(node), edge_usages(node))))
def test_integer_kernel_equals_the_fraction_rule(case):
    node, usage = case
    try:
        expected = rule_fraction(usage, node)
    except CapacityError as err:
        with pytest.raises(CapacityError) as excinfo:
            node_fraction(usage, node)
        assert str(excinfo.value) == str(err)
    else:
        assert node_fraction(usage, node) == expected


def fuzz_config():
    """One partition per model id, four nodes each, on the test system's GPU nodes."""
    node_of = {p["model"]: p["node"] for p in TEST_CONFIG["partitions"] if p["name"] != "work"}
    node_of["peak-perf"] = node_of["energy"]
    return parse_config(
        {"partitions": [{"name": m, "model": m, "node_count": 4, "node": node_of[m]} for m in MODEL_IDS]}
    )


FUZZ_CONFIG = fuzz_config()
# column -> (values a valid row draws from, further values a fuzzed row may draw)
JOBS_VALUES = {
    "job_id": (("j0", "j1", "j2", "j3"), ("", " j1 ")),
    "project": (("pA", "pB"), ("",)),
    "partition": (MODEL_IDS, ("nowhere", "")),
    "nodes": (("1", "2", "4"), ("0", "5", str(10**19), "-1", "x", "")),
    "cores_per_node": (("0", "1", "16"), ("40", "-1", "x")),
    "gpus_per_node": (("0", "1"), ("4", "5")),
    "mem_gib_per_node": (("0", "1.5", "1/3", "8"), ("400", "1/0", "1e999", "nan", "-2")),
    "elapsed_hours": (("0", "1", "2.5"), ("-1", "x", "1e-400", "1e-401")),
}
DETAIL_VALUES = {
    "job_id": (("j0", "j1", "j2", "j3"), ("ghost", "")),
    "node_index": (("0", "1", "2", "3"), ("4", "-1", "x")),
    "cores": (("0", "1", "16"), ("40",)),
    "gpus": (("0", "1"), ("5",)),
    "mem_gib": (("0", "2", "1/3"), ("400", "x")),
}


@st.composite
def csv_text(draw, values):
    """A CSV of valid and fuzzed rows; one in ten headers misses a column."""
    header = list(values)
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(header)))
    valid = st.fixed_dictionaries({c: st.sampled_from(values[c][0]) for c in header})
    fuzzed = st.fixed_dictionaries(
        {c: st.sampled_from(values[c][0] + values[c][1]) | st.text(max_size=4) for c in header}
    )
    rows = draw(st.lists(valid | fuzzed, max_size=8))
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(csv_text(JOBS_VALUES), st.none() | csv_text(DETAIL_VALUES))
def test_ingest_yields_only_records_and_row_errors(jobs_text, details_text):
    with tempfile.TemporaryDirectory() as tmp:
        jobs = Path(tmp) / "jobs.csv"
        jobs.write_text(jobs_text, encoding="utf-8")
        details = None
        if details_text is not None:
            details = Path(tmp) / "details.csv"
            details.write_text(details_text, encoding="utf-8")
        tally = RowTally()
        try:
            records = list(tally.records(iter_jobs(jobs, FUZZ_CONFIG, details)))
        except AccountingError:
            return
    assert all(isinstance(record, JobRecord) for record in records)
    assert tally.total_rows == tally.charged + len(tally.errors) == len(list(csv.reader(io.StringIO(jobs_text)))) - 1
    for record in records:
        assert record.total_su == charge_record(record, FUZZ_CONFIG).total_su
