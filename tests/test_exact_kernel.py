"""The integer-rational kernel against the plain forms it replaces.

Numbers are parsed, charged, summed and read from CSV on plain integers,
with one normalised Fraction built per value. Each property here compares
that kernel with the straightforward form: `Fraction(text)` behind the
length and exponent bounds, each model's per-node rule, the memory view,
the energy estimate and `weight * hours * sum(node shares)` in Fraction
arithmetic, per-project sums of Fractions, and `csv.DictReader`.
"""

import copy
import csv
import io
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sumeter import (
    MODEL_IDS,
    AccountingError,
    CapacityError,
    DetailRowError,
    JobRecord,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    PuhtiModel,
    PuhtiRates,
    RowError,
    ValidationError,
    aggregate,
    core_equivalent,
    energy_estimate_wh,
    get_model,
    iter_jobs,
    memory_fraction,
    parse_config,
    parse_real,
    reference_gpu_node,
)
import sumeter.core
from sumeter.core import MAX_DECIMAL_EXPONENT, MAX_NUMBER_LENGTH, _parse_ratio, add_ratios, node_share
from sumeter.display import exact_text
from test_properties import (
    DETAIL_VALUES, FUZZ_CONFIG, JOBS_VALUES, MAX_NODES, edge_usages, fuzz_config_data, kernel_node_types,
)
from conftest import TEST_CONFIG

# ---------------------------------------------------------------- parse_real


def without_digit_underscores(text):
    """`text` less each underscore with a digit on both sides: Python 3.11+'s PEP 515 number rule.

    Written out here rather than left to `Fraction(text)`, whose grammar has
    underscores only from 3.11 on, so the reference is the same on every version.
    """
    parts = text.split("_")
    kept = [parts[0]]
    for left, right in zip(parts, parts[1:]):
        kept.append(right if left[-1:].isdecimal() and right[:1].isdecimal() else "_" + right)
    return "".join(kept)


def plain_parse_real(text):
    """`parse_real` without its fast path: the two bounds, then Fraction of the underscore-free text."""
    if len(text) > MAX_NUMBER_LENGTH:
        raise ValidationError(f"number longer than {MAX_NUMBER_LENGTH} characters: {text[:20]!r}...")
    plain = without_digit_underscores(text)
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)", plain)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
        raise ValidationError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    if "_" in plain:  # an underscore not between two digits, which no Python reads
        raise ValidationError(f"not a number: {text!r}")
    try:
        return Fraction(plain)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a number: {text!r}") from None


UNDERSCORED = {"1_0": 10, "1_0.5": Fraction(21, 2), "1_000/3": Fraction(1000, 3), "1.2_5": Fraction(5, 4),
               "1e1_0": 10**10}
BAD_UNDERSCORES = ("1__0", "_1", "1_", "1._5", "1_.5", "1/_3", "1e_1")


@pytest.mark.parametrize("text", sorted(UNDERSCORED))
def test_an_underscore_between_digits_reads_alike_on_every_python(text):
    assert parse_real(text) == plain_parse_real(text) == UNDERSCORED[text]


@pytest.mark.parametrize("text", BAD_UNDERSCORES)
def test_any_other_underscore_is_refused_on_every_python(text):
    for parse in (parse_real, plain_parse_real):
        with pytest.raises(ValidationError, match="not a number"):
            parse(text)


NUMBER_EDGES = (
    "0", "007", "0.000", "1.50", "5.", ".5", ".", "+1", "-0", "-1.5", "1e5", "1E-3", *UNDERSCORED, *BAD_UNDERSCORES,
    "²", "٣", "٣.٥", "1²", "", " ", " 5", "5 ", "1/3", "1 / 3", "1/0", "1.2.3", "..", "1..2", "0x10",
    "9" * MAX_NUMBER_LENGTH, "9" * (MAX_NUMBER_LENGTH + 1), "1." + "0" * (MAX_NUMBER_LENGTH - 2),
)
number_texts = st.one_of(
    st.sampled_from(NUMBER_EDGES),
    st.text(alphabet="0123456789._+-eE/ ²٣", max_size=12),
    st.from_regex(r"\A[0-9_]{1,6}([./][0-9_]{1,6})?([eE][0-9_]{1,4})?\Z"),
    st.from_regex(r"\A[0-9]{1,50}(\.[0-9]{0,50})?\Z"),
    st.text(alphabet="0123456789.", min_size=MAX_NUMBER_LENGTH - 2, max_size=MAX_NUMBER_LENGTH + 2),
    st.text(max_size=8),
)


@settings(max_examples=500)
@given(number_texts)
@example("1" * (MAX_NUMBER_LENGTH + 50))  # longer than the bound
@example("12.5e-3")  # an exponent within the bound
@example(f"1E+{MAX_DECIMAL_EXPONENT + 1}")  # an exponent beyond it
def test_parse_real_matches_the_plain_fraction_path(text):
    """`parse_real`, and the integer pair `_parse_ratio` reads, against the plain path."""
    try:
        expected = plain_parse_real(text)
    except ValidationError as err:
        for parse in (parse_real, _parse_ratio):
            with pytest.raises(ValidationError) as excinfo:
                parse(text)
            assert str(excinfo.value) == str(err)
    else:
        value = parse_real(text)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
        assert _parse_ratio(text) == (value.numerator, value.denominator)  # reduced, so Fraction(*pair) == value


# -------------------------------------------------------------------- charge

NVME = "nvme_gib"


@st.composite
def nvme_node_types(draw):
    """Node types with 0-8 GPUs, non-integer memory, and with or without an NVMe extra."""
    cores = draw(st.integers(1, 64))
    cpu = ProcessorSpec.cpu("cpu", cores, draw(st.integers(50, 500)), draw(st.integers(10**11, 10**13)))
    gpus = ()
    if gpu_count := draw(st.integers(0, 8)):
        gpu = ProcessorSpec.gpu("gpu", draw(st.integers(1, 160)), draw(st.integers(100, 800)), 10**13)
        gpus = (gpu,) * gpu_count
    memory = draw(st.fractions(min_value=Fraction(1, 8), max_value=2048, max_denominator=1000))
    nvme = draw(st.none() | st.fractions(min_value=Fraction(1, 100), max_value=4000, max_denominator=100))
    return NodeType("node", cpus=(cpu,) * draw(st.integers(1, 2)), memory_total_gib=memory, gpus=gpus,
                    extra_resources={} if nvme is None else {NVME: nvme})


@st.composite
def nvme_usages(draw, node):
    share = st.fractions(min_value=0, max_value=1, max_denominator=64)
    memory = draw(share) * node.memory_total_gib
    capacity = node.extra_capacities.get(NVME)
    nvme = None if capacity is None else draw(st.none() | share.map(lambda f: f * capacity))
    cores, gpus = draw(st.integers(0, node.total_cores)), draw(st.integers(0, node.gpu_count))
    if not (cores or gpus or memory or nvme):
        cores = 1
    return NodeUsage(cores, gpus, memory, {} if nvme is None else {NVME: nvme})


rates = st.fractions(min_value=0, max_value=100, max_denominator=1000)
models = st.one_of(
    st.sampled_from(MODEL_IDS).map(get_model),
    st.builds(
        lambda core, memory, nvme, gpu: PuhtiModel(rates=PuhtiRates(core, memory, nvme, gpu), nvme_resource=NVME),
        rates.filter(bool), rates, rates, rates,
    ),
)


@st.composite
def priced_jobs(draw):
    """A job mixing one repeated usage object, equal copies of it and other usages, and a model."""
    node, model = draw(nvme_node_types()), draw(models)
    partition = Partition("p", node, node_count=MAX_NODES, model=model)
    shared = draw(nvme_usages(node))
    per_node = []
    for kind in draw(st.lists(st.sampled_from(("same", "copy", "other")), min_size=1, max_size=MAX_NODES)):
        if kind == "same":
            per_node.append(shared)
        elif kind == "copy":
            per_node.append(copy.copy(shared))
        else:
            per_node.append(draw(nvme_usages(node)))
    return JobRequest(partition, tuple(per_node), draw(st.fractions(min_value=0, max_value=100, max_denominator=1000)))


def plain_puhti_fraction(model, usage, node):
    """A node's hourly bill over a whole node's, in plain Fraction arithmetic."""
    r = model.rates
    nvme_used = dict(usage.extra_used).get(model.nvme_resource, 0)
    hourly = r.core * usage.cores_used + r.memory_gib * usage.memory_used_gib + r.nvme_gib * nvme_used
    hourly += r.gpu * usage.gpus_used
    whole = r.core * node.total_cores + r.memory_gib * node.memory_total_gib
    whole += r.nvme_gib * node.extra_capacities.get(model.nvme_resource, 0) + r.gpu * node.gpu_count
    return hourly / whole


def rule_fraction(usage, node):
    """The max-fraction rule in plain Fraction arithmetic, checking cores, GPUs, memory, extras in order."""
    cores, gpus, memory = node.total_cores, len(node.gpus), node.memory_total_gib
    if usage.cores_used > cores:
        raise CapacityError(f"{usage.cores_used} cores requested but node type {node.name!r} has {cores}")
    if usage.gpus_used > gpus:
        raise CapacityError(f"{usage.gpus_used} GPUs requested but node type {node.name!r} has {gpus}")
    if usage.memory_used_gib > memory:
        raise CapacityError(
            f"{exact_text(usage.memory_used_gib)} GiB requested but node type {node.name!r} has {exact_text(memory)} GiB"
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
                f"{exact_text(amount)} of {name!r} requested but node type {node.name!r} has {exact_text(capacities[name])}"
            )
        terms.append(amount / capacities[name])
    return max(terms)


def plain_model_fraction(model, usage, node):
    """A model's per-node rule in plain Fraction arithmetic, after the same capacity checks."""
    fraction = rule_fraction(usage, node)
    if model.id == "titan":
        return Fraction(1)
    if model.id == "puhti":
        return plain_puhti_fraction(model, usage, node)
    return fraction


def usage_cells(usage):
    """What `ChargeModel.cell_share` reads of a usage: cores, GPUs, memory as a reduced pair, extras."""
    memory = usage.memory_used_gib
    return usage.cores_used, usage.gpus_used, memory.numerator, memory.denominator, usage.extra_used


@settings(max_examples=300)
@given(
    models,
    kernel_node_types().flatmap(lambda node: st.tuples(st.just(node), edge_usages(node)))
    | nvme_node_types().flatmap(lambda node: st.tuples(st.just(node), nvme_usages(node))),
)
def test_node_share_equals_the_plain_rule(model, case):
    node, usage = case
    try:
        expected = plain_model_fraction(model, usage, node)
    except CapacityError as err:
        with pytest.raises(CapacityError) as excinfo:
            model.node_share(usage, node)
        assert str(excinfo.value) == str(err)
        with pytest.raises(CapacityError) as excinfo:
            model.cell_share(usage_cells(usage), node)
        assert str(excinfo.value) == str(err)
    else:
        numerator, denominator = model.node_share(usage, node)
        assert type(numerator) is int and type(denominator) is int and denominator > 0
        assert Fraction(numerator, denominator) == expected
        assert model.cell_share(usage_cells(usage), node) == (numerator, denominator)


VIEWS = (
    memory_fraction,
    lambda usage, node: energy_estimate_wh(JobRequest(Partition("p", node), [usage], 1)),
)


def plain_energy_wh(usages, node):
    """One hour of the usages' nodes, in Wh and plain Fraction arithmetic: per node, cores / C of the CPU TDP
    plus GPUs / G of the GPU TDP."""
    cpu_tdp, gpu_tdp = [sum(spec.tdp_watts for spec in specs) for specs in (node.cpus, node.gpus)]
    draw = Fraction(0)
    for usage in usages:
        draw += Fraction(usage.cores_used, node.total_cores) * cpu_tdp
        if usage.gpus_used:
            draw += Fraction(usage.gpus_used, len(node.gpus)) * gpu_tdp
    return draw


def plain_views(usage, node):
    """What `VIEWS` read, in plain Fraction arithmetic: the memory fraction and one hour's energy."""
    memory = Fraction(math.ceil(usage.memory_used_gib / (node.memory_total_gib / node.total_cores)), node.total_cores)
    return memory, plain_energy_wh([usage], node)


@settings(max_examples=300)
@given(kernel_node_types().flatmap(lambda node: st.tuples(st.just(node), edge_usages(node))))
def test_the_views_refuse_what_the_rule_refuses(case):
    node, usage = case
    try:
        rule_fraction(usage, node)
    except CapacityError as err:
        for view in VIEWS:
            with pytest.raises(CapacityError) as excinfo:
                view(usage, node)
            assert str(excinfo.value) == str(err)
    else:
        assert tuple(view(usage, node) for view in VIEWS) == plain_views(usage, node)


@st.composite
def uniform_jobs(draw):
    """A usage on and past every capacity edge of a node, the same object on each of 1-64 nodes."""
    node = draw(kernel_node_types())
    usage, nodes = draw(edge_usages(node)), draw(st.integers(1, 64))
    hours = draw(st.fractions(min_value=0, max_value=100, max_denominator=1000))
    return JobRequest.uniform(Partition("p", node, node_count=nodes), nodes, usage, hours)


@settings(max_examples=300)
@given(priced_jobs() | uniform_jobs())
def test_energy_equals_the_per_node_sum(job):
    try:
        get_model("energy").total(job)
    except CapacityError as err:
        with pytest.raises(CapacityError) as excinfo:
            energy_estimate_wh(job)
        assert str(excinfo.value) == str(err)
    else:
        energy = energy_estimate_wh(job)
        assert type(energy) is Fraction
        assert energy == plain_energy_wh(job.per_node_usage, job.partition.node_type) * job.walltime_hours


def test_energy_checks_a_uniform_job_once(monkeypatch):
    calls = []

    def counting(usage, node):
        calls.append(usage)
        return node_share(usage, node)

    monkeypatch.setattr(sumeter.core, "node_share", counting)
    usage = NodeUsage(cores_used=9, gpus_used=1)
    job = JobRequest.uniform(Partition("gpu", reference_gpu_node(), node_count=250), 250, usage, Fraction(1, 3))
    # (75 W CPU + 400 W GPU) per node, 250 nodes, 1/3 h
    assert energy_estimate_wh(job) == Fraction(118750, 3)
    assert calls == [usage]


@settings(max_examples=50)
@given(kernel_node_types())
def test_no_memory_is_charged_as_no_cores(node):
    assert core_equivalent(NodeUsage(cores_used=1), node) == 0


@st.composite
def ratio_pairs(draw):
    """Two (numerator, denominator) pairs with positive denominators, as often equal as not."""
    b = draw(st.integers(1, 10**6))
    d = draw(st.just(b) | st.integers(1, 10**6))
    return (draw(st.integers()), b), (draw(st.integers()), d)


@settings(max_examples=300)
@given(ratio_pairs())
def test_add_ratios_adds_over_the_lcm(pairs):
    x, y = pairs
    (a, b), (c, d) = x, y
    numerator, denominator = add_ratios(x, y)
    assert Fraction(numerator, denominator) == Fraction(a, b) + Fraction(c, d)
    assert denominator == math.lcm(b, d)
    assert add_ratios((a, b), (c, b)) == (a + c, b)


@settings(max_examples=300)
@given(priced_jobs())
def test_integer_charge_equals_the_naive_fraction_sum(job):
    model, node = job.partition.model, job.partition.node_type
    naive = tuple(Fraction(*model.node_share(usage, node)) for usage in job.per_node_usage)
    if model.id == "puhti":
        assert naive == tuple(plain_puhti_fraction(model, usage, node) for usage in job.per_node_usage)
    report = model.charge(job)
    assert report.per_node_fraction == naive
    expected = model.node_weight(node) * job.walltime_hours * sum(naive)
    assert Fraction(*model.total(job)) == expected
    assert type(report.total_su) is Fraction
    assert (report.total_su.numerator, report.total_su.denominator) == (expected.numerator, expected.denominator)


# ------------------------------------------------------------ csv to charge

# One partition per model id (puhti's node has an NVMe extra), plus a CPU-only one.
README_CONFIG_DATA = {
    "partitions": fuzz_config_data()["partitions"] + [p for p in TEST_CONFIG["partitions"] if p["name"] == "work"]
}
README_CONFIG = parse_config(README_CONFIG_DATA)
PUHTI_RATES = {"core": 1, "memory_gib": Fraction(1, 10), "nvme_gib": Fraction(6, 1000), "gpu": 60}


def readme_charge(entry, usages, hours):
    """A job's charge by the README rule, in plain Fraction arithmetic from the config entry.

    `usages` is one (cores, gpus, memory) per node; weight * hours * the sum of the shares.
    """
    node = entry["node"]
    cpus = [cpu for cpu in node["cpus"] for _ in range(cpu.get("count", 1))]
    gpus = [gpu for gpu in node.get("gpus") or [] for _ in range(gpu.get("count", 1))]
    cores = sum(cpu["cores"] for cpu in cpus)
    memory = Fraction(str(node["memory_total_gib"]))

    def total(specs, key):
        return sum(Fraction(str(spec[key])) for spec in specs)

    def puhti_bill(cores, memory, nvme, gpus):
        rates = PUHTI_RATES
        return rates["core"] * cores + rates["memory_gib"] * memory + rates["nvme_gib"] * nvme + rates["gpu"] * gpus

    if entry["model"] == "puhti":  # a node-hour weighs the whole node's bill; the detail file has no NVMe column
        weight = puhti_bill(cores, memory, Fraction(str(node.get("extra_resources", {}).get("nvme_gib", 0))), len(gpus))
    elif not gpus:
        weight = Fraction(cores)
    else:
        weight = {
            "energy": lambda: total(gpus, "tdp_watts") / total(cpus, "tdp_watts") * cores,
            "sm": lambda: total(gpus, "streaming_multiprocessors"),
            "peak-perf": lambda: total(gpus, "peak_flops") / total(cpus, "peak_flops") * cores,
            "titan": lambda: cores + total(gpus, "streaming_multiprocessors"),
        }[entry["model"]]()
    shares = []
    for used_cores, used_gpus, used_memory in usages:
        if entry["model"] == "titan":
            shares.append(Fraction(1))
        elif entry["model"] == "puhti":
            shares.append(puhti_bill(used_cores, used_memory, 0, used_gpus) / weight)
        else:
            shares.append(max(
                Fraction(used_cores, cores),
                Fraction(used_gpus, len(gpus)) if used_gpus else Fraction(0),
                Fraction(math.ceil(used_memory / (memory / cores)), cores),
            ))
    return weight * hours * sum(shares)


def decimal_texts(maximum):
    """Decimal cell text in [0, maximum] with 0-2 places, such as `111.7` or `7.52`."""
    return st.integers(0, 2).flatmap(
        lambda places: st.integers(0, int(maximum * 10**places)).map(
            lambda units: f"{units // 10**places}.{units % 10**places:0{places}d}" if places else str(units)
        )
    )


def requesting(cells):
    """(cores, gpus, memory text) cells, with one core asked for when nothing else is."""
    cores, gpus, memory = cells
    return cores or int(not gpus and not Fraction(memory)), gpus, memory


@st.composite
def readme_jobs(draw):
    """Jobs rows, uniform or with shuffled detail rows; every node requests something within capacity."""
    jobs, details = [], []
    for number in range(draw(st.integers(1, 8))):
        entry = draw(st.sampled_from(README_CONFIG_DATA["partitions"]))
        node = README_CONFIG.partition(entry["name"]).node_type
        usage = st.tuples(
            st.integers(0, node.total_cores), st.integers(0, node.gpu_count), decimal_texts(node.memory_total_gib)
        ).map(requesting)
        nodes, detailed = draw(st.integers(1, 4)), draw(st.booleans())
        cells = draw(st.lists(usage, min_size=nodes, max_size=nodes)) if detailed else [draw(usage)] * nodes
        jobs.append((f"j{number}", entry, nodes, (1, 0, "0") if detailed else cells[0], draw(decimal_texts(100)), cells))
        if detailed:
            details += [(f"j{number}", index, *node_cells) for index, node_cells in enumerate(cells)]
    return jobs, draw(st.permutations(details))


@settings(max_examples=150, deadline=None)
@given(readme_jobs())
def test_csv_cells_are_charged_by_the_readme_rule(case):
    jobs, details = case
    with tempfile.TemporaryDirectory() as tmp:
        jobs_path, details_path = Path(tmp) / "jobs.csv", Path(tmp) / "details.csv"
        rows = [",".join(JOBS_VALUES)]
        for job_id, entry, nodes, (cores, gpus, memory), hours, _ in jobs:
            rows.append(f"{job_id},p,{entry['name']},{nodes},{cores},{gpus},{memory},{hours}")
        jobs_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        detail_rows = [",".join(DETAIL_VALUES)] + [",".join(map(str, row)) for row in details]
        details_path.write_text("\n".join(detail_rows) + "\n", encoding="utf-8")
        items = list(iter_jobs(jobs_path, README_CONFIG, details_path))
    assert [type(item) for item in items] == [JobRecord] * len(jobs)
    for record, (job_id, entry, _, _, hours, cells) in zip(items, jobs):
        usages = [(int(cores), int(gpus), Fraction(memory)) for cores, gpus, memory in cells]
        expected = readme_charge(entry, usages, Fraction(hours))
        assert record.job_id == job_id
        assert type(record.total_su) is Fraction and record.total_su == expected


# ----------------------------------------------------------------- aggregate

WEIGHTS = (Fraction(1), Fraction(36), Fraction(2328, 5), Fraction(192), Fraction(1490, 3), Fraction(62, 7))


@st.composite
def charged_records(draw):
    """Records whose charges are weight * hours * shares, hours over 1, 10 and 100."""
    records = []
    for i in range(draw(st.integers(0, 40))):
        hours = Fraction(draw(st.integers(0, 10**5)), draw(st.sampled_from((1, 10, 100))))
        shares = Fraction(draw(st.integers(1, 256)), draw(st.sampled_from((1, 4, 36, 40, 64))))
        charge = draw(st.sampled_from(WEIGHTS)) * hours * shares
        project, partition = draw(st.sampled_from(("p1", "p2", "p3"))), draw(st.sampled_from(("cpu", "gpu", "x")))
        records.append(JobRecord(f"j{i}", project, partition, (), hours, charge))
    return records


@settings(max_examples=200)
@given(charged_records())
def test_integer_aggregate_equals_plain_fraction_sums(records):
    expected = {}
    for record in records:
        per_partition = expected.setdefault(record.project, {})
        per_partition[record.partition] = per_partition.get(record.partition, 0) + record.total_su
    usage = aggregate(records, FUZZ_CONFIG)
    assert list(usage) == sorted(expected)
    for project, project_usage in usage.items():
        assert list(project_usage.by_partition) == sorted(expected[project])
        assert project_usage.by_partition == expected[project]
        assert project_usage.total_su == sum(expected[project].values())
        for value in (project_usage.total_su, *project_usage.by_partition.values()):
            assert type(value) is Fraction
            assert math.gcd(value.numerator, value.denominator) == 1


# ---------------------------------------------------------------- csv reader


@st.composite
def ragged_csv(draw, values):
    """CSV text with blank lines, short rows, long rows and a shuffled header."""
    header = draw(st.permutations(list(values)))
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "comment")
    if draw(st.integers(0, 9)) == 0:
        header.remove(draw(st.sampled_from(header)))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            out.write(draw(st.sampled_from(("\r\n", "\n", " \r\n"))))
            continue
        row = [draw(st.sampled_from(sum(values.get(column, (("note",),)), ()))) for column in header]
        shape = draw(st.sampled_from(("full", "short", "long")))
        if shape == "short":
            row = row[: draw(st.integers(0, len(row)))]
        elif shape == "long":
            row += draw(st.lists(st.sampled_from(("", "extra", "1")), min_size=1, max_size=3))
        writer.writerow(row)
    return out.getvalue()


def dictreader_csv(text):
    """The same rows as `csv.DictReader` reads them, written out with every cell present."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    out = io.StringIO()
    writer = csv.writer(out)
    if reader.fieldnames is not None:
        writer.writerow(reader.fieldnames)
    for row in reader:
        writer.writerow([row.get(name) or "" for name in reader.fieldnames])
    return out.getvalue()


def ingest_items(directory, jobs_text, details_text):
    """What `iter_jobs` yields for the two texts, or the error it ends in (paths left out)."""
    directory.mkdir()
    jobs = directory / "jobs.csv"
    jobs.write_text(jobs_text, encoding="utf-8", newline="")
    details = None
    if details_text is not None:
        details = directory / "details.csv"
        details.write_text(details_text, encoding="utf-8", newline="")
    try:
        return list(iter_jobs(jobs, FUZZ_CONFIG, details))
    except AccountingError as err:
        return type(err), str(err).replace(str(directory), "")


def record_lines(text):
    """The physical line of each non-blank row after the header; no cell here spans lines."""
    if text is None:
        return []
    lines = re.split(r"\r\n|\n", text)
    return [number for number, line in enumerate(lines, start=1) if number > 1 and line]


def on_ragged_lines(items, jobs_text, details_text):
    """Items read from the plain texts (row k on line k + 1), renumbered to the ragged texts' lines."""
    if not isinstance(items, list):
        return items
    jobs_lines, detail_lines = record_lines(jobs_text), record_lines(details_text)

    def moved(item):
        lines = detail_lines if isinstance(item, DetailRowError) else jobs_lines
        message = re.sub(r"detail line (\d+)", lambda m: f"detail line {detail_lines[int(m[1]) - 2]}", item.message)
        return type(item)(line=lines[item.line - 2], message=message)

    return [moved(item) if isinstance(item, RowError) else item for item in items]


@settings(max_examples=200, deadline=None)
@given(ragged_csv(JOBS_VALUES), st.none() | ragged_csv(DETAIL_VALUES))
def test_csv_rows_read_as_dictreader_reads_them(jobs_text, details_text):
    with tempfile.TemporaryDirectory() as tmp:
        ragged = ingest_items(Path(tmp) / "ragged", jobs_text, details_text)
        plain_details = None if details_text is None else dictreader_csv(details_text)
        plain = ingest_items(Path(tmp) / "plain", dictreader_csv(jobs_text), plain_details)
    assert ragged == on_ragged_lines(plain, jobs_text, details_text)
