"""Replay every golden CLI report and compare it byte for byte, and
count the support families each invocation builds."""

import gc
import sys

import pytest

from causerepair import hitting
from causerepair.cli import execute

from conftest import DATA
from make_goldens import golden_cases

CASES = list(golden_cases())


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden_replay(name, argv, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, err = execute(argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (DATA / "golden" / name).read_bytes()


def test_reports_leave_no_reference_cycles(monkeypatch):
    # a report's pieces are freed when it is returned, not when the
    # cyclic collector next runs
    monkeypatch.chdir(DATA)
    for _, argv in CASES:  # warm up: caches and lazy set-up fill first
        execute(argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = {}
        for name, argv in CASES:
            execute(argv)
            found[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert {name: n for name, n in found.items() if n} == {}


def test_each_invocation_builds_its_family_once(monkeypatch):
    # every module that binds ``support_sets`` counts, so a family built
    # inside another helper (``endogenous_support_sets``) counts too
    monkeypatch.chdir(DATA)
    calls = 0
    build = hitting.support_sets

    def counting(*args):
        nonlocal calls
        calls += 1
        return build(*args)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("causerepair")
                and getattr(module, "support_sets", None) is build):
            monkeypatch.setattr(module, "support_sets", counting)
    built = {}
    for name, argv in CASES:
        calls = 0
        assert execute(argv)[0] == 0, name
        built[name] = calls
    assert {name: n for name, n in built.items() if n > 1} == {}
    assert set(built.values()) == {0, 1}  # the oracle, null repairs and some decisions build none
