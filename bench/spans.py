"""In-memory span tracer wrapped around sumeter's public functions.

The benchmark records spans from its own code: `patched(tracer)` swaps each
traced function of the `sumeter` modules for a wrapper that opens a span,
and puts the originals back on exit. Nothing under `src/` changes. A span
has a name, start, end, parent span and job id; spans stay in memory and
are written out once the traced pass is over. A span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (home module, attribute, span name). Every `sumeter` module that imported
# the same function object gets the wrapper too, so calls are caught however
# the caller reached the function.
FUNCTIONS = (
    ("sumeter.cli", "build_parser", "cli.build_parser"),
    ("sumeter.ingest", "load_config", "ingest.load_config"),
    ("sumeter.ingest", "ingest_jobs", "ingest.ingest_jobs"),
    ("sumeter.ingest", "aggregate", "ingest.aggregate"),
    ("sumeter.ingest", "charge_record", "ingest.charge_record"),
    ("sumeter.core", "node_fraction", "core.node_fraction"),
    ("sumeter.core", "energy_estimate_wh", "core.energy_estimate_wh"),
    ("sumeter.display", "format_real", "display.format_real"),
    ("sumeter.analysis", "write_sweep_csv", "analysis.write_sweep_csv"),
    ("sumeter.tables", "compare_with_published", "tables.compare_with_published"),
)
# Validation of the core value types runs in their __post_init__.
VALIDATORS = (("sumeter.core", "NodeUsage", "core.NodeUsage"), ("sumeter.core", "JobRequest", "core.JobRequest"))
CHARGE_SPAN = "models.charge."


class Tracer:
    """Spans of one traced pass plus per-name counts and self times."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, name, start, end, job_id)
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.results: Counter = Counter()
        self.fraction_calls_in_charges = 0
        self.fraction_distinct_in_charges = 0
        self._stack: list[list] = []  # [span id, name, child time, job id]
        self._charge_id = None
        self._charge_usages: set = set()

    def call(self, name: str, fn, *args, job_id=None, **kwargs):
        """Run fn inside a span; the job id is inherited when not given."""
        stack = self._stack
        parent = stack[-1] if stack else None
        if job_id is None and parent is not None:
            job_id = parent[3]
        frame = [len(self.spans) + len(stack), name, 0.0, job_id]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.spans.append((frame[0], parent[0] if parent else None, name, start, end, job_id))
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration

    def note_fraction(self, usage) -> None:
        """Count node_fraction calls made while charging, and distinct usages per charge."""
        for frame in reversed(self._stack):
            if frame[1].startswith(CHARGE_SPAN):
                if frame[0] != self._charge_id:
                    self._charge_id, self._charge_usages = frame[0], set()
                self.fraction_calls_in_charges += 1
                if usage not in self._charge_usages:
                    self._charge_usages.add(usage)
                    self.fraction_distinct_in_charges += 1
                return

    def layer_self_times(self) -> dict[str, float]:
        layers: defaultdict = defaultdict(float)
        for name, seconds in self.self_time.items():
            layers[name.split(".")[0]] += seconds
        return dict(layers)

    def write(self, path: Path) -> None:
        """All spans as CSV, times relative to the first span's start."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span_id,parent_id,name,start_s,end_s,job_id\n")
            for span_id, parent, name, start, end, job_id in sorted(self.spans):
                parent_text = "" if parent is None else parent
                job_text = "" if job_id is None else job_id
                out.write(f"{span_id},{parent_text},{name},{start - origin:.9f},{end - origin:.9f},{job_text}\n")


def _wrap_function(tracer: Tracer, name: str, fn):
    if name == "core.node_fraction":
        def traced(usage, node):
            tracer.note_fraction(usage)
            return tracer.call(name, fn, usage, node)
    elif name == "ingest.charge_record":
        def traced(record, *args, **kwargs):
            return tracer.call(name, fn, record, *args, job_id=record.job_id, **kwargs)
    elif name == "ingest.ingest_jobs":
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            tracer.results["ingest.ingest_jobs.rows"] += result.total_rows
            tracer.results["ingest.ingest_jobs.rejected"] += len(result.errors)
            return result
    else:
        def traced(*args, **kwargs):
            return tracer.call(name, fn, *args, **kwargs)
    return traced


def _wrap_method(tracer: Tracer, prefix: str, fn):
    def traced(self, *args, **kwargs):
        return tracer.call(f"{prefix}.{self.id}", fn, self, *args, **kwargs)
    return traced


def _wrap_validator(tracer: Tracer, name: str, fn):
    def traced(self):
        return tracer.call(name, fn, self)
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route the traced sumeter functions and methods through `tracer`."""
    import sumeter.cli  # noqa: F401  (loads every sumeter module)
    from sumeter.models import MODEL_IDS, get_model

    modules = [m for n, m in list(sys.modules.items()) if n == "sumeter" or n.startswith("sumeter.")]
    undo: list[tuple] = []

    def replace(owner, attribute, value) -> None:
        undo.append((owner, attribute, attribute in vars(owner), getattr(owner, attribute)))
        setattr(owner, attribute, value)

    for home, attribute, name in FUNCTIONS:
        original = getattr(sys.modules[home], attribute, None)
        if original is None:
            continue
        wrapper = _wrap_function(tracer, name, original)
        for module in modules:
            if getattr(module, attribute, None) is original:
                replace(module, attribute, wrapper)
    for home, cls_name, name in VALIDATORS:
        cls = getattr(sys.modules[home], cls_name)
        replace(cls, "__post_init__", _wrap_validator(tracer, name, cls.__post_init__))
    for model_id in MODEL_IDS:
        cls = type(get_model(model_id))
        replace(cls, "charge", _wrap_method(tracer, "models.charge", cls.charge))
        replace(cls, "node_weight", _wrap_method(tracer, "models.node_weight", cls.node_weight))
    try:
        yield tracer
    finally:
        for owner, attribute, owned, original in reversed(undo):
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
