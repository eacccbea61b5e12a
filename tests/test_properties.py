"""Property-based checks of the charging invariants."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sumeter import (
    MODEL_IDS,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    decision_threshold,
    get_model,
    gpu_partition_weight,
    job_cost,
    memory_fraction,
    node_fraction,
    puhti_bu,
    titan_node_charge,
)

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
            per_node.append(dataclasses.replace(shared))
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
    node = dataclasses.replace(node, extra_resources=extras)
    fresh = dataclasses.replace(node)
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
