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
from .display import format_real, format_su, round_half_up
from .errors import ValidationError
from .models import ChargeModel, get_model

REFERENCE_CPU = ProcessorSpec.cpu("Xeon Gold 6240", cores=18, tdp_watts=150, peak_flops=1.5e12)
REFERENCE_GPU = ProcessorSpec.gpu("A100 SMX", streaming_multiprocessors=108, tdp_watts=400, peak_flops=9.7e12)

_PERF_RATIOS = (
    ("FUN3D", 41),
    ("RTM", 32),
    ("SPECFEM3D", 105),
    ("AMBER", 153),
    ("GROMACS", 23),
    ("LAMMPS", 59),
    ("NAMD", 36),
    ("Relion", 12),
    ("GTC", 53),
    ("MILC", 108),
    ("Chroma", 99),
    ("Quantum Expresso", 13),
    ("ICON", 15),
)


def embedded_fixture() -> tuple[ProcessorSpec, ProcessorSpec, tuple[ApplicationBenchmark, ...]]:
    """The reference processors and the 13 benchmark performance ratios."""
    apps = tuple(ApplicationBenchmark(name, ratio) for name, ratio in _PERF_RATIOS)
    return REFERENCE_CPU, REFERENCE_GPU, apps


def reference_cpu_node(memory_total_gib: RealLike = 256) -> NodeType:
    """Dual-socket reference CPU node: 36 cores, 300 W, 3 TFLOPs."""
    return NodeType("dual-xeon-6240", cpus=(REFERENCE_CPU,) * 2, memory_total_gib=exact(memory_total_gib))


def reference_gpu_node(memory_total_gib: RealLike = 256) -> NodeType:
    """Reference GPU node: same CPU complement plus four A100s."""
    return NodeType(
        "quad-a100",
        cpus=(REFERENCE_CPU,) * 2,
        memory_total_gib=exact(memory_total_gib),
        gpus=(REFERENCE_GPU,) * 4,
    )


class BenchmarkTableRow(Value):
    __slots__ = _fields = ("application", "perf_ratio", "cpu_charge", "gpu_charge", "cost_ratio")

    def __init__(
        self, application: str, perf_ratio: int, cpu_charge: Fraction, gpu_charge: Fraction, cost_ratio: Fraction
    ) -> None:
        self._init(application, perf_ratio, cpu_charge, gpu_charge, cost_ratio)


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

    __slots__ = _fields = ("number", "model_id", "gpu_charge", "rows")

    def __init__(
        self, number: int, model_id: str, gpu_charge: int, rows: tuple[tuple[str, int, int, str], ...]
    ) -> None:
        self._init(number, model_id, gpu_charge, rows)  # a row: application, perf ratio, cpu charge, printed ratio


PUBLISHED_TABLES: dict[int, PublishedTable] = {
    2: PublishedTable(
        number=2,
        model_id="sm",
        gpu_charge=432,
        rows=(
            ("FUN3D", 41, 1476, "3.42"),
            ("RTM", 32, 1152, "2.67"),
            ("SPECFEM3D", 105, 3780, "8.75"),
            ("AMBER", 153, 5508, "12.7"),
            ("GROMACS", 23, 828, "1.92"),
            ("LAMMPS", 59, 2124, "4.92"),
            ("NAMD", 36, 1296, "3.00"),
            ("Relion", 12, 432, "1.00"),
            ("GTC", 53, 1908, "4.42"),
            ("MILC", 108, 3888, "9.00"),
            ("Chroma", 99, 3564, "8.25"),
            ("Quantum Expresso", 13, 468, "1.08"),
            ("ICON", 15, 540, "1.25"),
        ),
    ),
    3: PublishedTable(
        number=3,
        model_id="peak-perf",
        gpu_charge=466,
        rows=(
            ("FUN3D", 41, 1476, "3.17"),
            ("RTM", 32, 1152, "2.47"),
            ("SPECFEM3D", 105, 3780, "8.11"),
            ("AMBER", 153, 5508, "11.8"),
            ("GROMACS", 23, 828, "1.78"),
            ("LAMMPS", 59, 2124, "4.56"),
            ("NAMD", 36, 1296, "2.78"),
            ("Relion", 12, 432, "0.93"),
            ("GTC", 53, 1908, "4.09"),
            ("MILC", 108, 3888, "8.34"),
            ("Chroma", 99, 3564, "7.64"),
            ("Quantum Expresso", 13, 468, "1.00"),
            ("ICON", 15, 540, "1.16"),
        ),
    ),
    4: PublishedTable(
        number=4,
        model_id="energy",
        gpu_charge=192,
        rows=(
            ("FUN3D", 41, 1476, "7.69"),
            ("RTM", 32, 1152, "6"),
            ("SPECFEM3D", 105, 3780, "19.69"),
            ("AMBER", 153, 5508, "28.68"),
            ("GROMACS", 23, 828, "4.31"),
            ("LAMMPS", 59, 2124, "11.06"),
            ("NAMD", 36, 1296, "6.75"),
            ("Relion", 12, 432, "2.25"),
            ("GTC", 53, 1908, "9.94"),
            ("MILC", 108, 3888, "20.25"),
            ("Chroma", 99, 3564, "18.56"),
            ("Quantum Expresso", 13, 468, "2.44"),
            ("ICON", 15, 540, "2.81"),
        ),
    ),
}

RATIO_TOLERANCE = Fraction(1, 100)


def printed_ratio_matches(computed: RealLike, printed: str, tolerance: Fraction = RATIO_TOLERANCE) -> bool:
    """Whether a computed ratio agrees with a printed one at its precision.

    The published ratios mix truncation and half-up rounding (and one table
    quotes a rounded weight), so the computed value is quantised to the
    printed number of decimals under both conventions and the closer one
    must land within the tolerance.
    """
    value = exact(computed)
    target = Fraction(printed)
    decimals = len(printed.partition(".")[2])
    quantum = Fraction(10) ** decimals
    truncated = Fraction(math.floor(value * quantum), 1) / quantum
    half_up = Fraction(math.floor(value * quantum + Fraction(1, 2)), 1) / quantum
    return min(abs(truncated - target), abs(half_up - target)) <= tolerance


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

    def __init__(
        self,
        row: BenchmarkTableRow,
        published_cpu_charge: int,
        published_gpu_charge: int,
        published_ratio: str,
        cpu_charge_matches: bool,
        gpu_charge_matches: bool,
        ratio_delta: Fraction,
        ratio_matches: bool,
    ) -> None:
        self._init(
            row,
            published_cpu_charge,
            published_gpu_charge,
            published_ratio,
            cpu_charge_matches,
            gpu_charge_matches,
            ratio_delta,
            ratio_matches,
        )

    @property
    def matches(self) -> bool:
        return self.cpu_charge_matches and self.gpu_charge_matches and self.ratio_matches


def compare_with_published(
    table_number: int,
    cpu_node: NodeType | None = None,
    gpu_node: NodeType | None = None,
) -> list[RowComparison]:
    """Regenerate a published table and report per-row deltas.

    CPU and GPU charges must match exactly (the GPU weight after display
    rounding); cost ratios must agree at the printed precision.
    """
    try:
        published = PUBLISHED_TABLES[table_number]
    except KeyError:
        raise ValidationError(f"no published table {table_number}; have {sorted(PUBLISHED_TABLES)}") from None
    cpu_node = cpu_node if cpu_node is not None else reference_cpu_node()
    gpu_node = gpu_node if gpu_node is not None else reference_gpu_node()
    _, _, apps = embedded_fixture()
    rows = build_table(get_model(published.model_id), apps, cpu_node, gpu_node)
    comparisons = []
    for row, (app, _, cpu_charge, printed_ratio) in zip(rows, published.rows):
        assert row.application == app
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
            f"{comparison.published_ratio:>9} {float(comparison.ratio_delta):>+8.4f}"
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
            f"{row.application},{row.perf_ratio},{format_real(row.cpu_charge)},"
            f"{format_real(row.gpu_charge)},{format_real(row.cost_ratio)},"
            f"{comparison.published_cpu_charge},{comparison.published_gpu_charge},"
            f"{comparison.published_ratio},{format_real(comparison.ratio_delta)},"
            f"{str(comparison.matches).lower()}"
        )
    return "\n".join(lines) + "\n"
