"""The benchmark's span tracer still finds every function it counts.

``bench/tracing.py`` wraps the package's public functions by name and
reads counts off some of their arguments and results.  A renamed
function, or a result that loses the field a count reads, would fail
only a traced benchmark run; this test fails instead.  A count must not
change what the traced call returns, so each traced report is compared
with the untraced one.
"""

import importlib
from pathlib import Path

from causerepair import cli

from conftest import DATA

BENCH = Path(__file__).resolve().parent.parent / "bench"

CHAIN = ["-i", "ex1.facts", "-q", "ex1.dlq"]

INVOCATIONS = [
    ["causes", *CHAIN],
    ["mrc", *CHAIN],
    ["responsibility", *CHAIN, "--tuple", "R(a4,a3)"],
    ["rdp", *CHAIN, "--tuple", "R(a4,a3)", "--threshold", "1/3"],
    ["check-contingency", *CHAIN, "--tuple", "R(a4,a3)", "--gamma", "R(a3,a3)"],
    ["cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq", "--atoms", "R(a,d)", "--semantics", "s"],
    ["cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq", "--atoms", "R(a,d)", "--semantics", "c"],
    ["repairs", "-i", "ex1.facts", "-c", "ex2.dlq", "--semantics", "s"],
    ["repairs", "-i", "ex1.facts", "-c", "ex2.dlq", "--semantics", "c"],
    ["repairs", "-i", "ex16.facts", "-c", "ex2.dlq", "--semantics", "null"],
    ["repairs", "-i", "ex14.facts", "-c", "ex14.dlq", "--semantics", "go", "--priority", "ex14a.prio"],
    ["diagnose", "-i", "ex1b.facts", "-q", "ex1.dlq"],
    ["diagnose", "-i", "ex1.facts", "-q", "ex1.dlq", "--containing", "R(a4,a3)"],
    ["preferred-causes", "-i", "ex14.facts", "-q", "ex15.dlq", "--priority", "ex15.prio"],
]


def test_every_traced_count_is_read(monkeypatch):
    monkeypatch.chdir(DATA)
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    untraced = [cli.execute(argv + ["--json"]) for argv in INVOCATIONS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv, plain in zip(INVOCATIONS, untraced):
            code, out, err = cli.execute(argv + ["--json"])  # the wrapped name
            assert code == 0 and out and err == "", argv
            assert (code, out, err) == plain, argv  # tracing changes no output
    finally:
        tracer.uninstall()
    counted = {name for _, _, name, _, _, counts in tracer.spans if counts is not None}
    assert set(tracing._COUNTS) <= counted, sorted(set(tracing._COUNTS) - counted)

