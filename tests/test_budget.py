"""The work budget of `sumeter ingest`: calls, `Fraction`s and bytes per charged row.

A fresh child runs the command on each of the benchmark's seed-5 inputs: once to load what it reads, once under
`cProfile` and once under `tracemalloc`. Named calls are the calls into `sumeter` functions, generator resumptions
included and comprehensions left out (Python 3.12 inlines them). `Fraction`s are the calls of `Fraction.__new__` and
`_from_coprime_ints`, which builds every arithmetic result from Python 3.12 on. A row is priced from its cells, so it
validates no `JobRequest` and no `NodeUsage`. Peak bytes is the traced peak over the pass.

Counts do not move with the host's load, as timings do. Each bound is a case of its own, so a failure names it. A
change that lowers a figure may tighten its bound; raising one loosens the check, and CHANGES.md says why. The child is
this file run as a script: `PYTHONPATH=src python tests/test_budget.py --config wide/system.json ingest --jobs ...`.
"""

import contextlib
import cProfile
import functools
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# The upper bound of each figure per charged row on the (wide, detail) input.
BUDGET = {
    "named calls": (21.6, 28.7),
    "Fractions": (0.1, 0.1),
    "JobRequest validations": (0, 0),
    "NodeUsage validations": (0, 0),
    "peak bytes": (250, 400),
}
INPUTS = [
    ["--config", "wide/system.json", "ingest", "--jobs", "wide/jobs.csv"],
    ["--config", "detail/system.json", "ingest", "--jobs", "detail/jobs.csv", "--details", "detail/details.csv"],
]


def figures(argv) -> dict:
    """Each figure of `BUDGET` for `sumeter argv`, per charged row."""
    from sumeter import cli
    from sumeter.core import JobRequest, NodeUsage

    def ingest() -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            cli.main(argv)
        return int(err.getvalue().split()[-4])  # the last line: "N rows: C charged, R rejected"

    charged, profile = ingest(), cProfile.Profile()
    profile.runcall(ingest)
    profile.create_stats()
    calls = {key: stats[1] for key, stats in profile.stats.items()}  # (file, first line, name): calls
    tracemalloc.start()
    ingest()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    def called(*functions) -> int:
        return sum(calls.get((f.__code__.co_filename, f.__code__.co_firstlineno, f.__name__), 0) for f in functions)

    package = os.path.dirname(cli.__file__) + os.sep
    counts = {
        "named calls": sum(n for (file, _, name), n in calls.items() if file.startswith(package) and name[0] != "<"),
        "Fractions": called(Fraction.__new__, *filter(None, [getattr(Fraction, "_from_coprime_ints", None)])),
        "JobRequest validations": called(JobRequest.__post_init__),
        "NodeUsage validations": called(NodeUsage.__post_init__),
        "peak bytes": peak,
    }
    return {figure: count / charged for figure, count in counts.items()}


@functools.cache
def reading(directory, column) -> dict:
    """The figures a fresh child reads for `INPUTS[column]` in `directory`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, __file__, *INPUTS[column]]
    return json.loads(subprocess.check_output(argv, cwd=directory, env=env, timeout=60))


def pytest_generate_tests(metafunc):
    cases = [(column, figure) for column in range(len(INPUTS)) for figure in BUDGET]
    metafunc.parametrize("column, figure", cases, ids=[f"{('wide', 'detail')[c]}-{f}" for c, f in cases])


def test_each_charged_row_stays_within_its_budget(seed5, column, figure):
    assert reading(seed5, column)[figure] <= BUDGET[figure][column], reading(seed5, column)


if __name__ == "__main__":
    print(json.dumps(figures(sys.argv[1:])))
