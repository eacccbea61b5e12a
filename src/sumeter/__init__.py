"""sumeter: service-unit accounting for heterogeneous supercomputers.

Charges shared-node jobs by the largest per-node resource fraction they
request, weights GPU partitions by the TDP ratio of their GPUs to their
CPUs, and ships rival models (SM count, peak-FLOPs ratio, cores+SMs,
linear billing units) plus the analysis and reporting tools to compare
them.
"""

from .analysis import (
    ApplicationBenchmark,
    DecisionPoint,
    NodeChoice,
    crossover_sweep,
    decide_and_energy,
    decision_threshold,
    efficiency_band,
    speedup_from_time,
    write_sweep_csv,
)
from .core import (
    ChargeReport,
    JobRequest,
    NodeType,
    NodeUsage,
    Partition,
    ProcessorKind,
    ProcessorSpec,
    core_equivalent,
    core_fraction,
    energy_estimate_wh,
    exact,
    gpu_fraction,
    gpu_partition_weight,
    job_cost,
    memory_fraction,
    node_fraction,
    parse_real,
    watt_to_su_rate,
)
from .errors import AccountingError, CapacityError, ConfigError, ModelError, ValidationError
from .ingest import (
    DetailRowError,
    IngestResult,
    JobRecord,
    ProjectUsage,
    RowError,
    SystemConfig,
    aggregate,
    builtin_config,
    charge_record,
    ingest_jobs,
    iter_jobs,
    load_config,
    parse_config,
)
from .models import (
    MODEL_IDS,
    ChargeModel,
    EnergyModel,
    PeakPerfModel,
    PuhtiModel,
    PuhtiRates,
    SmModel,
    TitanModel,
    get_model,
    peak_perf_weight,
    puhti_bu,
    puhti_tdp_core_ratio,
    puhti_tdp_equivalence,
    sm_based_weight,
    titan_node_charge,
)
from .tables import (
    PUBLISHED_TABLES,
    BenchmarkTableRow,
    RowComparison,
    build_table,
    compare_with_published,
    embedded_fixture,
    printed_ratio_matches,
    reference_cpu_node,
    reference_gpu_node,
)

__version__ = "0.1.0"
