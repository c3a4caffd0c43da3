"""Replay every golden CLI report and compare it byte for byte, check
that no invocation but help leaves cyclic garbage, and count the support
families each invocation builds."""

import gc
import sys

import pytest

from causerepair import hitting
from causerepair.cli import execute
from causerepair.relational import fact_key, format_fact, serialize_instance

from conftest import CQA_DC, DATA, seeded_chain, seeded_keyed, thousand_facts
from make_goldens import golden_cases

CASES = list(golden_cases())


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_golden_replay(name, argv, monkeypatch):
    monkeypatch.chdir(DATA)
    code, out, err = execute(argv)
    assert (code, err) == (0, "")
    assert out.encode("utf-8") == (DATA / "golden" / name).read_bytes()


def _cyclic_garbage(cases):
    """Per case name, the objects the collector frees after its invocation
    with the collector off; every case runs once first, so that caches and
    lazy set-up are filled."""
    for _, argv in cases:
        execute(argv)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = {}
        for name, argv in cases:
            execute(argv)
            found[name] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    return found


def test_reports_leave_no_reference_cycles(monkeypatch):
    # a report's pieces are freed when it is returned, not when the
    # cyclic collector next runs
    monkeypatch.chdir(DATA)
    found = _cyclic_garbage(CASES)
    assert {name: n for name, n in found.items() if n} == {}


def test_only_help_leaves_cyclic_garbage(tmp_path, monkeypatch):
    # the invariant that lets ``execute`` pause the collector for free
    monkeypatch.chdir(tmp_path)
    d = thousand_facts()
    atoms = ";".join(format_fact(f) for f in sorted(d.facts, key=fact_key)[:3])
    files = {
        "chain.facts": serialize_instance(seeded_chain(100, 40)),
        "keyed.facts": serialize_instance(seeded_keyed((2, 3, 2), 30)),
        "small.facts": serialize_instance(seeded_keyed((2, 3), 6)),  # within the oracle's bound
        "large.facts": serialize_instance(d),
        "wide.facts": " ".join(f"S(a{i})." for i in range(16)) + "\n",
        "bad.facts": "S(a) R(a,b).\n",
        "chain.dlq": "q :- S(X), R(X,Y), S(Y).\n",
        "key.dlq": ":- A(X,Y), A(X,Z), Y != Z.\n",
        "keyq.dlq": "q :- A(X,Y), A(X,Z), Y != Z.\n",
        "large.dlq": CQA_DC,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    chain, keyed = ["-i", "chain.facts", "-q", "chain.dlq"], ["-i", "keyed.facts", "-c", "key.dlq"]
    large = ["cqa", "-i", "large.facts", "-c", "large.dlq", "--atoms", atoms, "--semantics"]
    cases = {
        "exit 1, no subcommand": [],
        "exit 1, unknown flag": ["causes", "--nope"],
        "exit 1, missing file": ["causes", "-i", "missing.facts", "-q", "chain.dlq"],
        "exit 1, parse error": ["causes", "-i", "bad.facts", "-q", "chain.dlq"],
        "exit 1, negative cap": ["repairs", *keyed, "--max-enum", "-1"],
        "exit 2": ["diagnose", "-i", "chain.facts", "-q", "key.dlq"],
        "exit 3, cap": ["repairs", *keyed, "--max-enum", "0"],
        "exit 3, oracle bound": ["oracle", "causes", "-i", "wide.facts", "-q", "chain.dlq"],
        "oracle causes": ["oracle", "causes", "-i", "small.facts", "-q", "keyq.dlq", "--json"],
        "oracle repairs": ["oracle", "repairs", "-i", "small.facts", "-c", "key.dlq", "--semantics", "c"],
        "causes": ["causes", *chain, "--json"],
        "mrc": ["mrc", *chain],
        "repairs s": ["repairs", *keyed, "--semantics", "s", "--json"],
        "repairs c": ["repairs", *keyed, "--semantics", "c"],
        "repairs null": ["repairs", *keyed, "--semantics", "null", "--json"],
        "diagnose": ["diagnose", "-i", "keyed.facts", "-q", "keyq.dlq", "--json"],
        "cqa s": [*large, "s", "--json"],
        "cqa c": [*large, "c"],
    }
    helps = {"help": ["-h"], "causes help": ["causes", "-h"], "oracle help": ["oracle", "repairs", "--help"]}
    codes = {name: execute(argv)[0] for name, argv in cases.items()}
    assert codes == {name: int(name[5]) if name.startswith("exit") else 0 for name in cases}
    found = _cyclic_garbage(list({**cases, **helps}.items()))
    # argparse's help formatter leaves a cycle, and nothing else does
    assert {name for name, n in found.items() if n} == set(helps)


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
