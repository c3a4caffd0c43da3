"""Replay every golden CLI report and compare it byte for byte."""

import pytest

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
