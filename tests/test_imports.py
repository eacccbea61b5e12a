"""The package's import boundary: `import sumeter` is cheap, each name loads its own module, and
each command runs only the modules it reads.

Each probe runs in a fresh interpreter, so that `sys.modules` starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import write_jobs_csv

SRC = Path(__file__).resolve().parents[1] / "src"

# The public names of the package, each under the module that defines it.
EXPORTS = {
    "analysis": [
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
    ],
    "config": ["SystemConfig", "load_config", "parse_config"],
    "core": [
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
    ],
    "errors": ["AccountingError", "CapacityError", "ConfigError", "ModelError", "ValidationError"],
    "ingest": [
        "DetailRowError",
        "IngestResult",
        "JobRecord",
        "ProjectUsage",
        "RowError",
        "aggregate",
        "charge_record",
        "ingest_jobs",
        "iter_jobs",
    ],
    "models": [
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
    ],
    "tables": [
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
    ],
}
LOADED_BY_LOAD_CONFIG = [
    "sumeter",
    "sumeter.config",
    "sumeter.core",
    "sumeter.display",
    "sumeter.errors",
    "sumeter.models",
]


def probe(code: str, *argv: str):
    """What a fresh interpreter running `code` prints, read as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m == 'sumeter' or m.startswith('sumeter.'))"


def test_importing_the_package_loads_no_submodule():
    assert probe(f"import json, sys, sumeter; print(json.dumps({LOADED}))") == ["sumeter"]


def test_load_config_loads_only_the_config_modules(config_path):
    code = (
        "import json, sys, sumeter; sumeter.load_config(sys.argv[1]); "
        f"print(json.dumps([{LOADED}, 'csv' in sys.modules]))"
    )
    assert probe(code, str(config_path)) == [LOADED_BY_LOAD_CONFIG, False]


def test_the_exported_names_are_the_published_ones():
    names = sorted(name for names in EXPORTS.values() for name in names)
    assert len(names) == 67
    assert probe("import json, sumeter; print(json.dumps(sorted(sumeter.__all__)))") == names
    listed = probe("import json, sumeter; print(json.dumps(dir(sumeter)))")
    assert set(names) <= set(listed) and listed == sorted(listed)


def test_each_name_is_its_defining_modules_object():
    code = (
        "import importlib, json, sys, sumeter\n"
        "homes = json.loads(sys.argv[1])\n"
        "print(json.dumps(sorted(name for module, names in homes.items() for name in names\n"
        "    if getattr(sumeter, name) is not getattr(importlib.import_module('sumeter.' + module), name))))\n"
    )
    assert probe(code, json.dumps(EXPORTS)) == []
    code = (
        "import json, sumeter\n"
        "print(json.dumps([sumeter.load_config is sumeter.config.load_config is sumeter.ingest.load_config,\n"
        "    sumeter.parse_config is sumeter.ingest.parse_config,\n"
        "    sumeter.SystemConfig is sumeter.ingest.SystemConfig,\n"
        "    sumeter.ChargeModel is sumeter.models.ChargeModel, sumeter.EnergyModel is sumeter.models.EnergyModel,\n"
        "    sumeter.builtin_config is sumeter.tables.builtin_config]))"
    )
    assert probe(code) == [True] * 6


def test_an_unknown_name_is_an_attribute_error_and_an_import_error():
    code = (
        "import json, sumeter\n"
        "caught = []\n"
        "try:\n    sumeter.nope\nexcept AttributeError as err:\n    caught.append(str(err))\n"
        "try:\n    from sumeter import nope\nexcept ImportError as err:\n    caught.append(type(err).__name__)\n"
        "print(json.dumps(caught))"
    )
    assert probe(code) == ["module 'sumeter' has no attribute 'nope'", "ImportError"]


def test_every_submodule_is_an_attribute_of_the_package():
    modules = sorted(path.stem for path in (SRC / "sumeter").glob("*.py") if path.stem != "__init__")
    code = (
        "import json, sys, sumeter\n"
        "print(json.dumps([len(sumeter.tables.PUBLISHED_TABLES)] + sorted(name for name in sys.argv[1:]\n"
        "    if getattr(sumeter, name) is not sys.modules['sumeter.' + name])))"
    )
    assert probe(code, *modules) == [3]


# A probe that runs `main(argv)`, its output swallowed, then prints the sumeter modules whose
# body has run (a module registered by `cli` and not yet read is not a plain ModuleType) and
# whether `csv` is loaded.
RAN = (
    "import contextlib, io, json, sys, types\n"
    "from sumeter.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    main(sys.argv[1:])\n"
    "print(json.dumps([sorted(name for name, module in sys.modules.items()\n"
    "    if (name == 'sumeter' or name.startswith('sumeter.')) and type(module) is types.ModuleType),\n"
    "    'csv' in sys.modules]))\n"
)
JOB = ["--cores-per-node", "4", "--hours", "1"]


@pytest.mark.parametrize(
    "argv, also_ran, csv_loaded",
    [
        (["estimate", "--partition", "work", *JOB], [], False),
        (["compare", "--partition", "gpu", "--gpus-per-node", "1", *JOB], [], False),
        (["crossover", "--steps", "2"], ["sumeter.analysis"], True),
        (["report", "--table", "2"], ["sumeter.analysis", "sumeter.tables"], True),
        (["ingest", "--jobs", "jobs.csv"], ["sumeter.ingest"], True),
    ],
    ids=["estimate", "compare", "crossover", "report", "ingest"],
)
def test_a_command_runs_only_the_modules_it_reads(config_path, tmp_path, argv, also_ran, csv_loaded):
    if argv[0] == "ingest":
        argv = [*argv[:-1], str(write_jobs_csv(tmp_path / "jobs.csv", ["j1,p,work,1,4,0,0,1"]))]
    ran = sorted(["sumeter", "sumeter.cli", *LOADED_BY_LOAD_CONFIG[1:], *also_ran])
    assert probe(RAN, "--config", str(config_path), *argv) == [ran, csv_loaded]


@pytest.mark.parametrize("first", ["sumeter.cli", "sumeter.ingest"])
def test_cli_and_an_import_of_its_modules_share_one_module_and_its_classes(first):
    code = (
        "import importlib, json, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "import sumeter, sumeter.cli as cli\n"
        "from sumeter import analysis, ingest, tables\n"
        "from sumeter.ingest import Ledger, JobRecord\n"
        "from sumeter.analysis import ApplicationBenchmark\n"
        "print(json.dumps([cli.analysis is analysis is sys.modules['sumeter.analysis'],\n"
        "    cli.ingest is ingest is sys.modules['sumeter.ingest'],\n"
        "    cli.tables is tables is sys.modules['sumeter.tables'],\n"
        "    cli.ingest.Ledger is Ledger, cli.ingest.JobRecord is JobRecord is sumeter.JobRecord,\n"
        "    cli.tables.ApplicationBenchmark is ApplicationBenchmark is cli.analysis.ApplicationBenchmark]))\n"
    )
    assert probe(code, first) == [True] * 6


def test_the_table_choices_are_the_published_tables_and_building_the_parser_runs_no_tables():
    code = (
        "import json, sys, types\n"
        "from sumeter import cli\n"
        "parser = cli.build_parser()\n"
        "ran = type(sys.modules['sumeter.tables']) is types.ModuleType\n"
        "report = next(a for a in parser._actions if a.dest == 'command').choices['report']\n"
        "choices = next(a.choices for a in report._actions if a.dest == 'table')\n"
        "print(json.dumps([ran, list(choices), sorted(cli.tables.PUBLISHED_TABLES)]))\n"
    )
    ran, choices, published = probe(code)
    assert (ran, choices) == (False, published)


def test_an_ingest_leaves_no_parser_garbage_while_the_collector_is_paused(config_path, tmp_path):
    jobs = write_jobs_csv(tmp_path / "jobs.csv", ["j1,p,work,1,4,0,0,1"])
    code = (
        "import argparse, contextlib, gc, io, json, sys\n"
        "from sumeter.cli import main\n"
        "disable, parsers = gc.disable, []\n"
        "def counting():\n"
        "    disable()\n"
        "    parsers.append(sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects()))\n"
        "gc.disable = counting\n"
        "with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(json.dumps([code, parsers]))\n"
    )
    assert probe(code, "--config", str(config_path), "ingest", "--jobs", str(jobs)) == [0, [0]]
