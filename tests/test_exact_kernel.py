"""The integer-rational kernel against the plain forms it replaces.

Numbers are parsed, charged and read from CSV on plain integers, with one
normalised Fraction built per value. Each property here compares that
kernel with the straightforward form: `Fraction(text)` behind the length
and exponent bounds, `weight * hours * sum(node_fraction)` in Fraction
arithmetic, and `csv.DictReader`.
"""

import copy
import csv
import io
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sumeter import (
    MODEL_IDS,
    AccountingError,
    DetailRowError,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorSpec,
    PuhtiModel,
    PuhtiRates,
    RowError,
    ValidationError,
    get_model,
    iter_jobs,
    parse_real,
)
from sumeter.core import MAX_DECIMAL_EXPONENT, MAX_NUMBER_LENGTH
from test_properties import DETAIL_VALUES, FUZZ_CONFIG, JOBS_VALUES, MAX_NODES

# ---------------------------------------------------------------- parse_real


def plain_parse_real(text):
    """`parse_real` without its fast path: the two bounds, then Fraction(text)."""
    if len(text) > MAX_NUMBER_LENGTH:
        raise ValidationError(f"number longer than {MAX_NUMBER_LENGTH} characters: {text[:20]!r}...")
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)", text)
    if exponent and abs(int(exponent.group(1).replace("_", ""))) > MAX_DECIMAL_EXPONENT:
        raise ValidationError(f"decimal exponent beyond +-{MAX_DECIMAL_EXPONENT}: {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"not a number: {text!r}") from None


NUMBER_EDGES = (
    "0", "007", "0.000", "1.50", "5.", ".5", ".", "+1", "-0", "-1.5", "1e5", "1E-3", "1_0", "1._5",
    "²", "٣", "٣.٥", "1²", "", " ", " 5", "5 ", "1/3", "1 / 3", "1/0", "1.2.3", "..", "1..2", "0x10",
    "9" * MAX_NUMBER_LENGTH, "9" * (MAX_NUMBER_LENGTH + 1), "1." + "0" * (MAX_NUMBER_LENGTH - 2),
)
number_texts = st.one_of(
    st.sampled_from(NUMBER_EDGES),
    st.text(alphabet="0123456789._+-eE/ ²٣", max_size=12),
    st.from_regex(r"\A[0-9]{1,50}(\.[0-9]{0,50})?\Z"),
    st.text(alphabet="0123456789.", min_size=MAX_NUMBER_LENGTH - 2, max_size=MAX_NUMBER_LENGTH + 2),
    st.text(max_size=8),
)


@settings(max_examples=500)
@given(number_texts)
def test_parse_real_matches_the_plain_fraction_path(text):
    try:
        expected = plain_parse_real(text)
    except ValidationError as err:
        with pytest.raises(ValidationError) as excinfo:
            parse_real(text)
        assert str(excinfo.value) == str(err)
    else:
        value = parse_real(text)
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


# -------------------------------------------------------------------- charge

NVME = "nvme_gib"


@st.composite
def nvme_node_types(draw):
    """Node types with 0-8 GPUs, non-integer memory and an NVMe extra."""
    cores = draw(st.integers(1, 64))
    cpu = ProcessorSpec.cpu("cpu", cores, draw(st.integers(50, 500)), draw(st.integers(10**11, 10**13)))
    gpus = ()
    if gpu_count := draw(st.integers(0, 8)):
        gpu = ProcessorSpec.gpu("gpu", draw(st.integers(1, 160)), draw(st.integers(100, 800)), 10**13)
        gpus = (gpu,) * gpu_count
    memory = draw(st.fractions(min_value=Fraction(1, 8), max_value=2048, max_denominator=1000))
    nvme = draw(st.fractions(min_value=Fraction(1, 100), max_value=4000, max_denominator=100))
    return NodeType("node", cpus=(cpu,) * draw(st.integers(1, 2)), memory_total_gib=memory, gpus=gpus,
                    extra_resources={NVME: nvme})


@st.composite
def nvme_usages(draw, node):
    share = st.fractions(min_value=0, max_value=1, max_denominator=64)
    memory = draw(share) * node.memory_total_gib
    nvme = draw(st.none() | share.map(lambda f: f * node.extra_capacities[NVME]))
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


@settings(max_examples=300)
@given(priced_jobs())
def test_integer_charge_equals_the_naive_fraction_sum(job):
    model, node = job.partition.model, job.partition.node_type
    naive = tuple(model.node_fraction(usage, node) for usage in job.per_node_usage)
    if model.id == "puhti":
        assert naive == tuple(plain_puhti_fraction(model, usage, node) for usage in job.per_node_usage)
    report = model.charge(job)
    assert report.per_node_fraction == naive
    expected = model.node_weight(node) * job.walltime_hours * sum(naive)
    assert type(report.total_su) is Fraction
    assert (report.total_su.numerator, report.total_su.denominator) == (expected.numerator, expected.denominator)


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
