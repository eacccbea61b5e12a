"""sumeter: service-unit accounting for heterogeneous supercomputers.

Charges shared-node jobs by the largest per-node resource fraction they
request, weights GPU partitions by the TDP ratio of their GPUs to their
CPUs, and ships rival models (SM count, peak-FLOPs ratio, cores+SMs,
linear billing units) plus the analysis and reporting tools to compare
them.

`import sumeter` loads no submodule: each public name imports the module
that defines it on first use (PEP 562), so `sumeter.load_config(path)`
never loads the CSV, analysis or table code.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "analysis": (
        "ApplicationBenchmark",
        "DecisionPoint",
        "NodeChoice",
        "crossover_sweep",
        "decide_and_energy",
        "decision_threshold",
        "efficiency_band",
        "energy_threshold",
        "speedup_from_time",
        "write_sweep_csv",
    ),
    "config": ("SystemConfig", "load_config", "parse_config"),
    "core": (
        "ChargeModel",
        "ChargeReport",
        "EnergyModel",
        "JobRequest",
        "NodeType",
        "NodeUsage",
        "Partition",
        "ProcessorKind",
        "ProcessorSpec",
        "core_equivalent",
        "energy_estimate_wh",
        "exact",
        "gpu_partition_weight",
        "job_cost",
        "memory_fraction",
        "parse_real",
        "watt_to_su_rate",
    ),
    "errors": ("AccountingError", "CapacityError", "ConfigError", "ModelError", "ValidationError"),
    "ingest": (
        "DetailRowError",
        "IngestResult",
        "JobRecord",
        "ProjectUsage",
        "RowError",
        "aggregate",
        "charge_record",
        "ingest_jobs",
        "iter_jobs",
    ),
    "models": (
        "MODEL_IDS",
        "PeakPerfModel",
        "PuhtiModel",
        "PuhtiRates",
        "SmModel",
        "TitanModel",
        "get_model",
        "peak_perf_weight",
        "puhti_bu",
        "puhti_tdp_core_ratio",
        "puhti_tdp_equivalence",
        "sm_based_weight",
        "titan_node_charge",
    ),
    "tables": (
        "PUBLISHED_TABLES",
        "BenchmarkTableRow",
        "RowComparison",
        "build_table",
        "builtin_config",
        "compare_with_published",
        "embedded_fixture",
        "printed_ratio_matches",
        "reference_cpu_node",
        "reference_gpu_node",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "display"})

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
