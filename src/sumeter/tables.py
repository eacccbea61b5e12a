"""Reproduction of the published one-hour benchmark cost tables.

The reference hardware is a dual Xeon Gold 6240 CPU node and a quad A100
SMX GPU node; the 13 applications carry the published number of CPU nodes
needed to match one GPU node. Published charges and cost ratios are kept
verbatim, including their uneven rounding, and the comparison reports
deltas instead of normalising them away.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .analysis import ApplicationBenchmark
from .core import NodeType, ProcessorSpec, RealLike, Value, exact
from .display import exact_text, format_fixed, format_real, format_su, round_half_up
from .errors import ValidationError
from .models import ChargeModel, get_model

REFERENCE_CPU = ProcessorSpec.cpu("Xeon Gold 6240", cores=18, tdp_watts=150, peak_flops=1.5e12)
REFERENCE_GPU = ProcessorSpec.gpu("A100 SMX", streaming_multiprocessors=108, tdp_watts=400, peak_flops=9.7e12)

# application, perf ratio (CPU nodes per GPU node), published CPU charge, then
# the printed cost ratio of table 2 (sm), table 3 (peak-perf) and table 4 (energy)
_PUBLISHED_ROWS = (
    ("FUN3D", 41, 1476, "3.42", "3.17", "7.69"),
    ("RTM", 32, 1152, "2.67", "2.47", "6"),
    ("SPECFEM3D", 105, 3780, "8.75", "8.11", "19.69"),
    ("AMBER", 153, 5508, "12.7", "11.8", "28.68"),
    ("GROMACS", 23, 828, "1.92", "1.78", "4.31"),
    ("LAMMPS", 59, 2124, "4.92", "4.56", "11.06"),
    ("NAMD", 36, 1296, "3.00", "2.78", "6.75"),
    ("Relion", 12, 432, "1.00", "0.93", "2.25"),
    ("GTC", 53, 1908, "4.42", "4.09", "9.94"),
    ("MILC", 108, 3888, "9.00", "8.34", "20.25"),
    ("Chroma", 99, 3564, "8.25", "7.64", "18.56"),
    ("Quantum Expresso", 13, 468, "1.08", "1.00", "2.44"),
    ("ICON", 15, 540, "1.25", "1.16", "2.81"),
)


def embedded_fixture() -> tuple[ProcessorSpec, ProcessorSpec, tuple[ApplicationBenchmark, ...]]:
    """The reference processors and the 13 benchmark performance ratios."""
    apps = tuple(ApplicationBenchmark(name, ratio) for name, ratio, *_ in _PUBLISHED_ROWS)
    return REFERENCE_CPU, REFERENCE_GPU, apps


def reference_cpu_node() -> NodeType:
    """Dual-socket reference CPU node: 36 cores, 300 W, 3 TFLOPs, 256 GiB."""
    return NodeType("dual-xeon-6240", cpus=(REFERENCE_CPU,) * 2, memory_total_gib=256)


def reference_gpu_node() -> NodeType:
    """Reference GPU node: same CPU complement and memory plus four A100s."""
    return NodeType(
        "quad-a100",
        cpus=(REFERENCE_CPU,) * 2,
        memory_total_gib=256,
        gpus=(REFERENCE_GPU,) * 4,
    )


class BenchmarkTableRow(Value):
    __slots__ = _fields = ("application", "perf_ratio", "cpu_charge", "gpu_charge", "cost_ratio")


def build_table(
    model: ChargeModel,
    apps: tuple[ApplicationBenchmark, ...] | list[ApplicationBenchmark],
    cpu_node: NodeType,
    gpu_node: NodeType,
) -> list[BenchmarkTableRow]:
    """One-hour charges per application: equivalent CPU nodes vs one GPU node."""
    if not apps:
        raise ValidationError("no benchmarks given")
    cpu_weight = model.node_weight(cpu_node)
    gpu_weight = model.node_weight(gpu_node)
    return [
        BenchmarkTableRow(
            application=app.name,
            perf_ratio=app.perf_ratio,
            cpu_charge=app.perf_ratio * cpu_weight,
            gpu_charge=gpu_weight,
            cost_ratio=app.perf_ratio * cpu_weight / gpu_weight,
        )
        for app in apps
    ]


class PublishedTable(Value):
    """A published table kept verbatim: charges and printed cost ratios."""

    # a row: application, perf ratio, cpu charge, printed ratio
    __slots__ = _fields = ("number", "model_id", "gpu_charge", "rows")


PUBLISHED_TABLES: dict[int, PublishedTable] = {
    number: PublishedTable(number, model_id, gpu_charge, tuple([row[:3] + (row[column],) for row in _PUBLISHED_ROWS]))
    for number, model_id, gpu_charge, column in ((2, "sm", 432, 3), (3, "peak-perf", 466, 4), (4, "energy", 192, 5))
}

RATIO_TOLERANCE = Fraction(1, 100)


def printed_ratio_matches(computed: RealLike, printed: str) -> bool:
    """Whether a computed ratio agrees with a printed one at its precision.

    The published ratios mix truncation and half-up rounding (and one table
    quotes a rounded weight), so the computed value is quantised to the
    printed number of decimals under both conventions and the closer one
    must land within `RATIO_TOLERANCE`.
    """
    value = exact(computed)
    target = Fraction(printed)
    decimals = len(printed.partition(".")[2])
    quantum = Fraction(10) ** decimals
    truncated = Fraction(math.floor(value * quantum), 1) / quantum
    half_up = Fraction(math.floor(value * quantum + Fraction(1, 2)), 1) / quantum
    return min(abs(truncated - target), abs(half_up - target)) <= RATIO_TOLERANCE


class RowComparison(Value):
    """A regenerated row against its published counterpart."""

    __slots__ = _fields = (
        "row",
        "published_cpu_charge",
        "published_gpu_charge",
        "published_ratio",
        "cpu_charge_matches",
        "gpu_charge_matches",
        "ratio_delta",
        "ratio_matches",
    )

    @property
    def matches(self) -> bool:
        return self.cpu_charge_matches and self.gpu_charge_matches and self.ratio_matches


def compare_with_published(table_number: int) -> list[RowComparison]:
    """Regenerate a published table on the reference nodes and report per-row deltas.

    CPU and GPU charges must match exactly (the GPU weight after display
    rounding); cost ratios must agree at the printed precision.
    """
    try:
        published = PUBLISHED_TABLES[table_number]
    except KeyError:
        raise ValidationError(f"no published table {table_number}; have {sorted(PUBLISHED_TABLES)}") from None
    _, _, apps = embedded_fixture()
    rows = build_table(get_model(published.model_id), apps, reference_cpu_node(), reference_gpu_node())
    comparisons = []
    for row, (_, _, cpu_charge, printed_ratio) in zip(rows, published.rows):
        comparisons.append(
            RowComparison(
                row=row,
                published_cpu_charge=cpu_charge,
                published_gpu_charge=published.gpu_charge,
                published_ratio=printed_ratio,
                cpu_charge_matches=row.cpu_charge == cpu_charge,
                gpu_charge_matches=round_half_up(row.gpu_charge) == published.gpu_charge,
                ratio_delta=row.cost_ratio - Fraction(printed_ratio),
                ratio_matches=printed_ratio_matches(row.cost_ratio, printed_ratio),
            )
        )
    return comparisons


def table_text(table_number: int, comparisons: list[RowComparison]) -> str:
    """Aligned plain-text rendering of a regenerated table with deltas."""
    published = PUBLISHED_TABLES[table_number]
    lines = [
        f"Reference table {table_number} ({published.model_id} model)",
        f"{'application':<18} {'perf ratio':>10} {'cpu charge':>11} {'gpu charge':>11} "
        f"{'cost ratio':>10} {'published':>9} {'delta':>8}",
    ]
    for comparison in comparisons:
        row = comparison.row
        lines.append(
            f"{row.application:<18} {row.perf_ratio:>10} {format_su(row.cpu_charge):>11} "
            f"{format_su(round_half_up(row.gpu_charge)):>11} {format_real(row.cost_ratio):>10} "
            f"{comparison.published_ratio:>9} {format_fixed(comparison.ratio_delta, 4, '+'):>8}"
        )
    matching = sum(1 for c in comparisons if c.matches)
    lines.append(
        f"gpu node-hour weight: {format_real(comparisons[0].row.gpu_charge)} "
        f"(published {published.gpu_charge}); rows matching published values: {matching}/{len(comparisons)}"
    )
    return "\n".join(lines)


def table_csv(comparisons: list[RowComparison]) -> str:
    """CSV rendering, one line per application, header included."""
    lines = [
        "application,perf_ratio,cpu_charge,gpu_charge,cost_ratio,"
        "published_cpu_charge,published_gpu_charge,published_ratio,ratio_delta,matches"
    ]
    for comparison in comparisons:
        row = comparison.row
        lines.append(
            f"{row.application},{row.perf_ratio},{exact_text(row.cpu_charge)},"
            f"{exact_text(row.gpu_charge)},{exact_text(row.cost_ratio)},"
            f"{comparison.published_cpu_charge},{comparison.published_gpu_charge},"
            f"{comparison.published_ratio},{exact_text(comparison.ratio_delta)},"
            f"{str(comparison.matches).lower()}"
        )
    return "\n".join(lines) + "\n"
