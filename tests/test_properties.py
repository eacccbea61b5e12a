"""Property-based checks of the charging invariants."""

import contextlib
import copy
import csv
import io
import json
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
    ModelError,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    PuhtiModel,
    PuhtiRates,
    charge_record,
    decision_threshold,
    get_model,
    gpu_partition_weight,
    iter_jobs,
    job_cost,
    memory_fraction,
    parse_config,
    puhti_bu,
    titan_node_charge,
)
from sumeter.cli import _csv_name, main
from sumeter.core import node_share
from sumeter.display import exact_text
from sumeter.ingest import DetailRowError, Ledger, RowError, aggregate, ingest_jobs
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
    assert {name: getattr(node, name) for name in expected} == expected
    # the constructor worked them out outside the fields: equality and hashing ignore them
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
    assert Fraction(*node_share(usage, node)) == Fraction(*node_share(usage, cpu_only))


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


@st.composite
def puhti_bills(draw):
    """A puhti model on drawn rates, fractional or zero, a node with or without an NVMe extra, and a usage
    whose NVMe request may be missing, beyond the node's capacity or on a node without NVMe."""
    rate = st.one_of(st.just(Fraction(0)), st.fractions(min_value=0, max_value=100, max_denominator=1000))
    model = PuhtiModel(PuhtiRates(*[draw(rate) for _ in range(4)]))
    node = draw(node_types())
    extra, capacity = draw(st.sampled_from((None, "nvme_gib", "scratch"))), Fraction(100)
    if extra:
        capacity = draw(st.fractions(min_value=Fraction(1, 8), max_value=4000, max_denominator=8))
        node = NodeType(node.name, node.cpus, node.memory_total_gib, node.gpus, {extra: capacity})
    usage = draw(usages(node))
    nvme_used = draw(st.none() | st.fractions(min_value=0, max_value=capacity * 5 / 4, max_denominator=32))
    if nvme_used is not None:
        usage = NodeUsage(usage.cores_used, usage.gpus_used, usage.memory_used_gib, {"nvme_gib": nvme_used})
    return model, node, usage


@given(puhti_bills())
def test_puhti_model_bills_as_puhti_bu(bill):
    model, node, usage = bill
    nvme_capacity = node.extra_capacities.get("nvme_gib", 0)
    full_node = puhti_bu(node.total_cores, node.memory_total_gib, nvme_capacity, node.gpu_count, 1, model.rates)
    assert model.node_weight(node) == full_node
    try:
        node_share(usage, node)  # the max rule checks every capacity first
    except CapacityError as err:
        expected = CapacityError, str(err)
    else:
        if full_node == 0:
            expected = ModelError, "the configured rates price a whole node at zero"
        else:
            nvme_used = dict(usage.extra_used).get("nvme_gib", 0)
            used = puhti_bu(usage.cores_used, usage.memory_used_gib, nvme_used, usage.gpus_used, 1, model.rates)
            expected = used / full_node
    try:
        share = model.node_share(usage, node)
    except (CapacityError, ModelError) as err:
        assert (type(err), str(err)) == expected
    else:
        assert Fraction(*share) == expected


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


def fuzz_config_data():
    """One partition per model id, four nodes each, on the test system's GPU nodes."""
    node_of = {p["model"]: p["node"] for p in TEST_CONFIG["partitions"] if p["name"] != "work"}
    node_of["peak-perf"] = node_of["energy"]
    return {"partitions": [{"name": m, "model": m, "node_count": 4, "node": node_of[m]} for m in MODEL_IDS]}


FUZZ_CONFIG = parse_config(fuzz_config_data())
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
    # a small pool, so cells repeat: one value spelt three ways, and bad cells met again
    "mem_gib": (("0", "2", " 2", "2.0", "1/3"), ("400", "x", "-1")),
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
        try:
            items = list(iter_jobs(jobs, FUZZ_CONFIG, details))
        except AccountingError:
            return
    ledger = Ledger(items)
    records = [item for item in items if not isinstance(item, RowError)]
    assert all(isinstance(record, JobRecord) for record in records)
    assert ledger.total_rows == ledger.charged + len(ledger.errors) == len(list(csv.reader(io.StringIO(jobs_text)))) - 1
    assert ledger.charged == len(records)
    assert all(isinstance(orphan, DetailRowError) for orphan in ledger.orphans)
    assert not any(isinstance(error, DetailRowError) for error in ledger.errors)
    expected: dict[str, dict[str, Fraction]] = {}
    for record in records:
        assert record.total_su == charge_record(record, FUZZ_CONFIG).total_su
        parts = expected.setdefault(record.project, {})
        parts[record.partition] = parts.get(record.partition, Fraction(0)) + record.total_su
    usage = ledger.usage()
    assert usage == aggregate(records, FUZZ_CONFIG)
    assert {project: u.by_partition for project, u in usage.items()} == expected
    assert all(u.total_su == sum(expected[project].values()) for project, u in usage.items())


@settings(max_examples=100, deadline=None)
@given(csv_text(JOBS_VALUES), st.none() | csv_text(DETAIL_VALUES))
def test_the_printed_ledger_is_the_text_of_ledger_usage(jobs_text, details_text):
    """`ingest` prints from its integer sums the bytes `Ledger(iter_jobs(...)).usage()` reads as."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(json.dumps(fuzz_config_data()), encoding="utf-8")
        jobs = Path(tmp) / "jobs.csv"
        jobs.write_text(jobs_text, encoding="utf-8")
        argv = ["--config", str(config), "ingest", "--jobs", str(jobs)]
        details = None
        if details_text is not None:
            details = Path(tmp) / "details.csv"
            details.write_text(details_text, encoding="utf-8")
            argv += ["--details", str(details)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        try:
            usage = Ledger(iter_jobs(jobs, FUZZ_CONFIG, details)).usage()
        except AccountingError:
            assert (code, out.getvalue()) == (1, "")
            return
    lines = ["project,partition,total_su"]
    for project, project_usage in usage.items():
        for partition, subtotal in project_usage.by_partition.items():
            lines.append(f"{_csv_name(project)},{_csv_name(partition)},{exact_text(subtotal)}")
        lines.append(f"{_csv_name(project)},ALL,{exact_text(project_usage.total_su)}")
    assert out.getvalue() == "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(("pA", "pB", "pC")),
            st.sampled_from(MODEL_IDS),
            st.integers(1, 4),
            st.integers(1, 36),
            st.sampled_from(("0", "1/3", "1.5", "8")),
            st.sampled_from(("1", "2.5", "1/3", "0.1", "1/7", "1e-3", "123456.789")),
        ),
        max_size=12,
    )
)
def test_printed_subtotals_sum_exactly_to_the_printed_total(rows):
    """`ingest` prints each amount exactly: read back, the subtotals sum to `ALL`, each equal to `aggregate`'s."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "system.json"
        config.write_text(json.dumps(fuzz_config_data()), encoding="utf-8")
        jobs = Path(tmp) / "jobs.csv"
        lines = [",".join(JOBS_VALUES)] + [f"j{i},{p},{m},{n},{c},0,{mem},{h}" for i, (p, m, n, c, mem, h) in enumerate(rows)]
        jobs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(config), "ingest", "--jobs", str(jobs)])
        usage = aggregate(ingest_jobs(jobs, FUZZ_CONFIG).records, FUZZ_CONFIG)
    assert code in (0, 1)  # 1: some rows were rejected
    printed: dict[str, dict[str, Fraction]] = {}
    for project, partition, text in list(csv.reader(io.StringIO(out.getvalue())))[1:]:
        printed.setdefault(project, {})[partition] = Fraction(text)
    assert printed == {project: {**u.by_partition, "ALL": u.total_su} for project, u in usage.items()}
    for parts in printed.values():
        assert sum(amount for partition, amount in parts.items() if partition != "ALL") == parts["ALL"]
