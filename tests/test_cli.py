import argparse
import bisect
import gc
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from causerepair import cli, diagnosis, preferences, relational
from causerepair.cli import execute
from causerepair.parsing import constraint_set, parse_instance, parse_priorities, single_query
from causerepair.repairs import repairs
from causerepair.relational import fact_key, format_fact, serialize_instance

from conftest import CQA_DC, DATA, assert_same, keyed_preferences, seeded_chain, seeded_keyed, thousand_facts
from make_goldens import golden_cases


@pytest.fixture(autouse=True)
def run_in_data_dir(monkeypatch):
    monkeypatch.chdir(DATA)


def test_causes_json_payload():
    code, out, err = execute(["causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "causes"
    listed = {
        entry["fact"]: (entry["responsibility"]["num"], entry["responsibility"]["den"])
        for entry in report["result"]["causes"]
    }
    assert listed == {
        "S(a3)": (1, 1),
        "R(a4,a3)": (1, 2),
        "R(a3,a3)": (1, 2),
        "S(a4)": (1, 2),
    }


def test_causes_text_mode():
    code, out, _ = execute(["causes", "-i", "ex1.facts", "-q", "ex1.dlq"])
    assert code == 0
    assert out.splitlines()[0] == "S(a3)  1"


def test_missing_file_is_usage_error():
    code, out, err = execute(["causes", "-i", "missing.facts", "-q", "ex1.dlq"])
    assert code == 1 and out == "" and "missing.facts" in err


def test_non_utf8_input_is_usage_error(tmp_path):
    inst = tmp_path / "latin1.facts"
    inst.write_bytes("S(caf\u00e9).\n".encode("latin-1"))
    code, out, err = execute(["causes", "-i", str(inst), "-q", "ex1.dlq"])
    assert code == 1 and out == "" and "latin1.facts" in err


@pytest.mark.parametrize("payload, reason", [
    (b"S(caf\xe9).\n", "invalid continuation byte"),
    (b"S(a).\n\xff", "invalid start byte"),
    (b"S(a).\n\xe2\x82", "unexpected end of data"),
])
def test_non_utf8_input_names_the_file_and_the_reason(tmp_path, payload, reason):
    inst = tmp_path / "bad.facts"
    inst.write_bytes(payload)
    code, out, err = execute(["causes", "-i", str(inst), "-q", "ex1.dlq"])
    assert (code, out) == (1, "")
    assert err == f"error: {inst} is not UTF-8 text: {reason}\n"


def test_line_ends_are_translated_and_the_digest_covers_the_bytes_read(tmp_path, monkeypatch):
    opened = []
    monkeypatch.setattr(cli, "open", lambda path, *a, **k: opened.append(path) or open(path, *a, **k),
                        raising=False)
    texts = {
        "ex1.facts": (DATA / "ex1.facts").read_text(),
        "broken.facts": "S(a3).\n% a comment\nR(a3,\n  a4) R(b).\n",  # line 4, column 7
    }
    for name, text in texts.items():
        runs = []
        for i, newline in enumerate(("\n", "\r\n", "\r")):
            inst = tmp_path / f"{i}-{name}"
            inst.write_bytes(text.replace("\n", newline).encode())
            code, out, err = execute(["causes", "-i", str(inst), "-q", "ex1.dlq", "--json"])
            assert opened.count(str(inst)) == 1  # one read: the digest is of the bytes parsed
            runs.append((code, err.replace(str(inst), "<file>")))
            if code == 0:
                report = json.loads(out)
                digest = report["inputs"]["instance"]["sha256"]
                assert digest == hashlib.sha256(inst.read_bytes()).hexdigest()
                runs[-1] += (report["result"],)
        assert runs[1:] == runs[:1] * 2, name
    assert runs[0][:2] == (1, "error: line 4, column 7: expected '.', found 'R'\n")


def test_non_ascii_digit_is_usage_error(tmp_path):
    inst = tmp_path / "digit.facts"
    inst.write_text("S(\u00b2;a3).\n", encoding="utf-8")
    code, out, err = execute(["causes", "-i", str(inst), "-q", "ex1.dlq"])
    assert code == 1 and out == "" and "unexpected character" in err


def test_oracle_bound_exceeded_exit_code(tmp_path):
    inst = tmp_path / "wide.facts"
    inst.write_text(" ".join(f"S(a{i})." for i in range(16)) + "\n")
    code, out, err = execute(["oracle", "causes", "-i", str(inst), "-q", "ex1.dlq"])
    assert code == 3 and out == "" and "bound" in err


@pytest.mark.parametrize("argv, files, code, message", [
    (["causes", "-q", "two.dlq"], {"two.dlq": "q :- S(X).\nr :- R(X,Y).\n"},
     2, "expected exactly one named query, found 2"),
    (["causes", "-q", "bare.dlq"], {"bare.dlq": "q :- X != Y.\n"}, 2, "has no positive atom"),
    (["responsibility", "-q", "q.dlq", "--tuple", "S(a). x"], {"q.dlq": "q :- S(X).\n"},
     1, "trailing input 'x'"),
    (["diagnose", "-q", "open.dlq"], {"open.dlq": "ans(X) :- S(X), R(X,Y).\n"},
     2, "diagnosis problems are built from boolean queries"),
    (["cqa", "-c", "dc.dlq", "--atoms", "S(a)"],
     {"dc.dlq": ":- S(X), R(X,Y).\n", "e.facts": "@exogenous\nS(a).\n@endogenous\nR(a,b).\n"},
     2, "consistent answers assume all facts endogenous"),
    (["oracle", "repairs", "-c", "dc.dlq"],
     {"dc.dlq": ":- S(X), S(Y), X != Y.\n", "e.facts": " ".join(f"S(a{i})." for i in range(15))},
     3, "15 facts exceed bound 14"),
], ids=["two-queries", "no-positive-atom", "trailing-input", "open-diagnosis", "exogenous-cqa",
        "oracle-bound"])
def test_error_paths_exit_with_their_code_and_message(tmp_path, argv, files, code, message):
    files = {"e.facts": "S(a). R(a,b).\n", **files}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    exit_code, out, err = execute(argv + ["-i", str(tmp_path / "e.facts")])
    assert (exit_code, out) == (code, "")
    assert err.startswith("error: ") and err.endswith(message + "\n"), err


def test_negative_enumeration_cap_is_usage_error():
    argv = ["repairs", "-i", "ex4.facts", "-c", "ex4.dlq", "--semantics", "s"]
    code, out, err = execute(argv + ["--max-enum", "-1"])
    assert code == 1 and out == "" and "--max-enum" in err and "negative" in err
    code, _, err = execute(argv + ["--max-enum", "many"])
    assert code == 1 and "invalid int value: 'many'" in err
    assert execute(argv + ["--max-enum", "0"])[0] == 3


def test_unknown_flag_is_usage_error():
    code, _, err = execute(["causes", "--nope"])
    assert code == 1 and "usage" in err.lower()


def test_semantic_error_exit_code():
    code, _, err = execute(
        ["responsibility", "-i", "ex13.facts", "-q", "ex1.dlq", "--tuple", "S(a2)"]
    )
    assert code == 2 and "exogenous" in err


def test_bad_threshold_exit_code():
    argv = ["rdp", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "S(a3)", "--threshold"]
    code, _, err = execute(argv + ["2/3"])
    assert code == 2 and "threshold" in err
    # the engine alone checks the value, and names it reduced
    code, _, err = execute(argv + ["4/6"])
    assert code == 2 and "threshold must be 0 or 1/k, got 2/3" in err
    code, _, err = execute(argv + ["1/x"])
    assert code == 2 and "malformed threshold '1/x'" in err


_THRESHOLDS = [
    ("1e4400", (2, "", "error: malformed threshold '1e4400'\n")),  # ``str`` refuses its numerator
    ("1e-4400", (2, "", "error: malformed threshold '1e-4400'\n")),  # and its denominator
    ("1e999999999", (2, "", "error: malformed threshold '1e999999999'\n")),  # ``Fraction``: 10**999999999
    ("0", (0, "true\n", "")),
    ("1/2", (0, "false\n", "")),
    ("0.25", (0, "true\n", "")),
    ("1e-3", (0, "true\n", "")),
]


@pytest.mark.parametrize("threshold, answer", _THRESHOLDS, ids=[t for t, _ in _THRESHOLDS])
def test_threshold_digits_are_bounded_on_the_text(threshold, answer):
    # in a child process, so that a hang fails the test at its timeout
    argv = ["rdp", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "R(a4,a3)", "--threshold", threshold]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-m", "causerepair.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == answer


def test_cap_exhaustion_exit_code(tmp_path):
    facts = " ".join(f"R({i},0). R({i},1)." for i in range(1, 6)) + " S(0). S(1)."
    inst = tmp_path / "big.facts"
    inst.write_text(facts + "\n")
    dlq = tmp_path / "big.dlq"
    dlq.write_text(":- R(X,Y), R(X,Z), S(Y), S(Z), Y != Z.\n")
    code, _, err = execute(
        ["repairs", "-i", str(inst), "-c", str(dlq), "--max-enum", "3"]
    )
    assert code == 3 and "cap" in err


def test_negative_decision_still_exits_zero():
    code, out, _ = execute(
        ["rdp", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "R(a4,a3)", "--threshold", "1/2"]
    )
    assert code == 0 and out.strip() == "false"


def test_repairs_semantics_flag_null():
    code, out, _ = execute(
        ["repairs", "-i", "ex16.facts", "-c", "ex2.dlq", "--semantics", "null", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["result"]["repairs"]) == 7
    assert ["S[5;1]"] in [r["diff"] for r in report["result"]["repairs"]]


def test_repairs_go_requires_priority():
    code, _, err = execute(
        ["repairs", "-i", "ex14.facts", "-c", "ex14.dlq", "--semantics", "go"]
    )
    assert code == 2 and "priority" in err


@pytest.mark.parametrize("priority", ["ex14a.prio", "nonexistent.prio"])
@pytest.mark.parametrize("semantics", ["s", "c", "endo", "null"])
def test_repairs_priority_requires_go(semantics, priority):
    # rejected before the file is read, so a missing one is no exit 1
    code, out, err = execute(
        ["repairs", "-i", "ex14.facts", "-c", "ex14.dlq", "--semantics", semantics,
         "--priority", priority, "--json"]
    )
    assert (code, out) == (2, "")
    assert err == "error: --priority applies to --semantics go only\n"


def test_diagnose_with_containing_and_theory():
    code, out, _ = execute(
        [
            "diagnose", "-i", "ex12.facts", "-q", "ex1.dlq",
            "--containing", "R(a4,a3)", "--kind", "c", "--json",
        ]
    )
    assert code == 0
    report = json.loads(out)
    assert report["result"]["diagnoses"] == [["R(a4,a3)"]]
    code, out, _ = execute(
        ["diagnose", "-i", "ex1b.facts", "-q", "ex1.dlq", "--emit-theory", "--json"]
    )
    assert any("Ab_S" in line for line in json.loads(out)["result"]["theory"])


def test_unexplainable_observation_lists_no_empty_conflict(tmp_path):
    # the witness {S(a3), R(a3,a3)} is all exogenous: its conflict is empty
    inst = tmp_path / "unexplainable.facts"
    inst.write_text("@exogenous S(a3). R(a3,a3). @endogenous S(a9).\n")

    def run(*argv):
        return execute([*argv, "-i", str(inst), "-q", "ex1.dlq"])

    assert run("diagnose") == (0, "", "")
    code, out, _ = run("diagnose", "--json")
    assert code == 0
    assert json.loads(out)["result"] == {"conflicts": [], "diagnoses": [], "kind": "s"}
    assert run("causes") == (0, "no causes\n", "")
    assert run("responsibility", "--tuple", "S(a9)") == (0, "0\n", "")
    assert run("rdp", "--tuple", "S(a9)", "--threshold", "0") == (0, "false\n", "")
    assert run("rdp", "--tuple", "S(a9)", "--threshold", "1/2") == (0, "false\n", "")
    # an exogenous fact is refused as on any other diagnosis problem
    assert run("diagnose", "--containing", "S(a3)") == (
        2, "", "error: S(a3) is exogenous; only endogenous facts can be causes\n")


def test_oracle_subcommands_mirror_engines():
    code, engine_out, _ = execute(["causes", "-i", "ex1.facts", "-q", "ex1.dlq"])
    code2, oracle_out, _ = execute(["oracle", "causes", "-i", "ex1.facts", "-q", "ex1.dlq"])
    assert code == code2 == 0
    assert engine_out == oracle_out
    code, engine_out, _ = execute(["repairs", "-i", "ex1.facts", "-c", "ex2.dlq"])
    code2, oracle_out, _ = execute(
        ["oracle", "repairs", "-i", "ex1.facts", "-c", "ex2.dlq"]
    )
    assert code == code2 == 0
    assert engine_out == oracle_out


def test_check_contingency_command():
    code, out, _ = execute(
        [
            "check-contingency", "-i", "ex1.facts", "-q", "ex1.dlq",
            "--tuple", "S(a3)", "--gamma", "",
        ]
    )
    assert code == 0 and out.strip() == "true"


def test_cqa_multiple_atoms():
    code, out, _ = execute(
        [
            "cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq",
            "--atoms", "R(a,d); P(a,b)", "--semantics", "s",
        ]
    )
    assert code == 0 and out.strip() == "false"


def test_comment_only_atoms_name_no_ground_atoms():
    code, out, err = execute(
        ["cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq", "--atoms", "% none\n"]
    )
    assert code == 2 and out == "" and "names no ground atoms" in err


# ---------------------------------------------------------------------------
# The report writer against json.dumps

_JSON_CHARS = 'ab Z09"\\/\b\f\n\r\t\x00\x1f\x7féǅ中\u2028😀\U0010ffff'


def _random_string(rng):
    return "".join(rng.choice(_JSON_CHARS) for _ in range(rng.randrange(6)))


def _random_json(rng, depth=0):
    kind = rng.randrange(9 if depth < 4 else 6)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.choice([0, -1, 7, -(10**30), 10**40 + 1, rng.randint(-999, 999)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return rng.choice([0.5, -0.0, 1e300, -2.25])
    if kind == 4:
        return rng.choice([[], (), {}])
    if kind == 5:
        return [rng.choice(_JSON_CHARS) * rng.randrange(3) for _ in range(rng.randrange(1, 4))]
    items = [_random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    return {_random_string(rng) if rng.random() < 0.3 else rng.choice("abAB_"): v for v in items}


def _marked(value):
    """``value`` with each list of strings escaped and marked as the
    reports' name lists are."""
    if isinstance(value, dict):
        return {k: _marked(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if all(isinstance(v, str) for v in value):
            return cli._Names(map(cli._encode_string, value))
        return [_marked(v) for v in value]
    return value


def test_report_writer_matches_json_dumps_randomized():
    rng = random.Random(11)
    fixed = [[], {}, (), [[]], {"a": {}}, ["x", ()], ("é", [1, {"k": None}]), "\U0001f600"]
    marked = 0
    for value in fixed + [_random_json(rng) for _ in range(2000)]:
        expected = json.dumps(value, indent=2, sort_keys=True)
        assert cli._json(value) == expected, value
        assert cli._json(_marked(value)) == expected, value
        marked += _marked(value) != value
    assert marked > 200  # many values hold a marked list of escaped strings


def test_report_writer_matches_json_dumps_on_floats_and_empty_containers():
    leaves = [float("nan"), float("inf"), float("-inf"), -0.0, [], (), {}]
    wraps = [lambda v: [v], lambda v: (v,), lambda v: {"k": v}, lambda v: [v, {"a": v, "b": (v,)}]]
    values = layer = leaves
    for _ in range(3):  # each leaf under one, two and three levels of containers
        layer = [wrap(v) for v in layer for wrap in wraps]
        values = values + layer
    for value in values:
        assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True), value


# ---------------------------------------------------------------------------
# Work done for a report


def _keyed_files(tmp_path, keys=8, conflicts=4) -> int:
    """Writes keyed facts with tuple ids (``keys`` keys, the first
    ``conflicts`` of them with two values each) and the key constraint as
    a DC and as a query; returns the number of facts."""
    facts, ident = [], 0
    for k in range(keys):
        for v in range(2 if k < conflicts else 1):
            ident += 1
            facts.append(f"A({ident};k{k},v{v}).")
    (tmp_path / "keyed.facts").write_text("\n".join(facts) + "\n")
    (tmp_path / "key.dlq").write_text(":- A(X,Y), A(X,Z), Y != Z.\n")
    (tmp_path / "keyq.dlq").write_text("q :- A(X,Y), A(X,Z), Y != Z.\n")
    return len(facts)


@pytest.mark.parametrize("command, listed, count, nulled", [
    # 2 x 2 ways to null each of the 4 conflicts: 256 repairs, each with a
    # position nulled in 4 facts
    (["repairs", "-c", "key.dlq", "--semantics", "null"], "repairs", 256, 256 * 4),
    (["diagnose", "-q", "keyq.dlq"], "diagnoses", 16, 0),
    (["repairs", "-c", "key.dlq", "--semantics", "s"], "repairs", 16, 0),
], ids=["null", "diagnose", "s"])
def test_each_fact_is_formatted_once(tmp_path, monkeypatch, command, listed, count, nulled):
    size = _keyed_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    calls = 0
    format_fact = cli.format_fact

    def counting(f):
        nonlocal calls
        calls += 1
        return format_fact(f)

    monkeypatch.setattr(cli, "format_fact", counting)
    code, out, err = execute(command + ["-i", "keyed.facts", "--json"])
    assert code == 0, err
    assert len(json.loads(out)["result"][listed]) == count
    assert calls <= size + nulled


@pytest.mark.parametrize("command, conflicts, keys", [
    (["repairs", "-c", "key.dlq", "--semantics", "s"], 8, 8),
    # each of 4 conflicts nulled in 2 x 2 ways: 256 null repairs as well
    (["repairs", "-c", "key.dlq", "--semantics", "null"], 4, 8),
    (["diagnose", "-q", "keyq.dlq"], 8, 8),
    # the benchmark's size: reports of over 128 KB
    (["repairs", "-c", "key.dlq", "--semantics", "s"], 8, 50),
    (["repairs", "-c", "key.dlq", "--semantics", "null"], 4, 50),
], ids=["s", "null", "diagnose", "s-50-keys", "null-50-keys"])
def test_each_name_is_escaped_once_per_report(tmp_path, monkeypatch, command, conflicts, keys):
    size = _keyed_files(tmp_path, keys=keys, conflicts=conflicts)
    monkeypatch.chdir(tmp_path)
    calls = 0
    encode = cli._encode_string

    def counting(text):
        nonlocal calls
        calls += 1
        return encode(text)

    monkeypatch.setattr(cli, "_encode_string", counting)
    code, out, err = execute(command + ["-i", "keyed.facts", "--json"])
    assert code == 0, err
    report = json.loads(out)
    result = report["result"]
    assert len(result.get("repairs", result.get("diagnoses"))) == 256
    assert calls <= 2 * size + 50
    assert_same(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert keys < 50 or len(out) > 128 * 1024


def test_each_change_is_written_once_per_report(tmp_path, monkeypatch):
    d, key = seeded_keyed((2,) * 4, 50), ":- A(X,Y), A(X,Z), Y != Z.\n"
    (tmp_path / "keyed.facts").write_text(serialize_instance(d))
    (tmp_path / "key.dlq").write_text(key)
    monkeypatch.chdir(tmp_path)
    # the report rebuilt from the engine's null repairs, every change written per repair
    entries = _null_entries(d, constraint_set(key))
    calls = 0
    written = preferences.AttrChange.__str__

    def counting(change):
        nonlocal calls
        calls += 1
        return written(change)

    monkeypatch.setattr(preferences.AttrChange, "__str__", counting)
    argv = ["repairs", "-i", "keyed.facts", "-c", "key.dlq", "--semantics", "null", "--json"]
    code, out, err = execute(argv)
    assert code == 0, err
    report = json.loads(out)
    assert_same(out, json.dumps({**report, "result": {"semantics": "null", "repairs": entries}},
                                indent=2, sort_keys=True) + "\n")
    changes = {c for e in entries for c in e["diff"]}
    assert len(entries) == 256 and len(changes) == 16
    assert calls <= len(changes)


@pytest.mark.parametrize("semantics", ["s", "c", "endo"])
def test_deletion_repairs_build_no_kept_instance(tmp_path, monkeypatch, semantics):
    _keyed_files(tmp_path, keys=8, conflicts=8)
    monkeypatch.chdir(tmp_path)
    calls = 0
    without = relational.Instance.without

    def counting(d, removed):
        nonlocal calls
        calls += 1
        return without(d, removed)

    monkeypatch.setattr(relational.Instance, "without", counting)
    code, out, err = execute(["repairs", "-c", "key.dlq", "--semantics", semantics,
                              "-i", "keyed.facts", "--json"])
    assert code == 0, err
    assert len(json.loads(out)["result"]["repairs"]) == 256
    assert calls == 0


# Constants that sort on both sides of ``null``, so a nulled fact often
# sorts right next to its own original
_NEAR_NULL = ("a", "nulk", "nullx", "num")
_KEYED_PROGRAMS = (
    ":- A(X,Y), A(X,Z), Y != Z.\n",
    ":- A(X,Y), A(X,Z), Y != Z.\n:- A(X,Y), B(Y).\n",
    # an A fact's key and value join B facts in two conflict components
    ":- A(X,Y), B(X).\n:- A(X,Y), B(Y).\n",
)


def _random_keyed_text(rng) -> str:
    """A(id;key,value) and B(id;value) facts with distinct tuple ids drawn
    up to 30, so ids 2 and 10 may name the same atom and sort differently
    as keys and as names."""
    ids = rng.sample(range(1, 31), rng.randint(3, 8))
    facts = [
        f"A({i};{rng.choice(_NEAR_NULL)},{rng.choice(_NEAR_NULL)})." if rng.random() < 0.8
        else f"B({i};{rng.choice(_NEAR_NULL)})."
        for i in ids
    ]
    return " ".join(facts) + "\n"


def test_repair_reports_equal_a_plain_rebuild(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rng = random.Random(1601)
    nulled_beside_original = out_of_name_order = 0
    for _ in range(150):
        text, program = _random_keyed_text(rng), rng.choice(_KEYED_PROGRAMS)
        (tmp_path / "d.facts").write_text(text)
        (tmp_path / "c.dlq").write_text(program)
        d, sigma = parse_instance(text), constraint_set(program)
        names = [format_fact(f) for f in d.sorted_facts]
        by_name = dict(zip(names, d.sorted_facts))
        keys = [fact_key(f) for f in d.sorted_facts]
        position = {f.fact_id: i for i, f in enumerate(d.sorted_facts)}
        out_of_name_order += names != sorted(names)
        for semantics in ("s", "c"):
            code, out, err = execute(["repairs", "-i", "d.facts", "-c", "c.dlq",
                                      "--semantics", semantics, "--json"])
            assert code == 0, err
            for entry in json.loads(out)["result"]["repairs"]:
                kept = d.without(by_name[n] for n in entry["removed"])
                assert entry["kept"] == [format_fact(f) for f in kept.sorted_facts], text
        code, out, err = execute(["repairs", "-i", "d.facts", "-c", "c.dlq",
                                  "--semantics", "null", "--json"])
        assert code == 0, err
        by_diff = {tuple(sorted(str(c) for c in s)): s for s in preferences.null_repairs(d, sigma).sets}
        entries = json.loads(out)["result"]["repairs"]
        assert len(entries) == len(by_diff)
        apply = preferences.change_applier(d)
        for entry in entries:
            v = apply(by_diff[tuple(entry["diff"])])
            rebuilt = sorted(d.facts.difference(v).union(v.values()), key=fact_key)
            assert entry["facts"] == [format_fact(f) for f in rebuilt], text
            nulled_beside_original += any(  # no fact of d sorts between the two
                bisect.bisect(keys, fact_key(f)) - position[f.fact_id] in (0, 1)
                for f in set(rebuilt) - d.facts
            )
    assert min(nulled_beside_original, out_of_name_order) > 20  # the comparison is not vacuous


# Constants that need escaping in JSON, as written in a file: raw, "a\\b"
# sorts first, escaped, "\u00e9" and "\u4e2d" do
_ESCAPED = ('"x\\"y"', '"a\\\\b"', '"é"', '"中"', "z")


def _escaped_files(tmp_path):
    """Four keys with two values each and one with one, all drawn from
    ``_ESCAPED``, with tuple ids counting down in canonical order; a key
    constraint, its query, and a priority of the first two keys' first
    facts over their second."""
    facts, priority = [], []
    for i, key in enumerate(_ESCAPED):
        values = (_ESCAPED * 2)[i + 1:i + 3] if i < 4 else _ESCAPED[:1]
        pair = [f"A({10 - 2 * i - j};{key},{value})" for j, value in enumerate(values)]
        facts += pair
        if i < 2:
            priority.append(f"{pair[0]} > {pair[1]}.")
    (tmp_path / "e.facts").write_text(". ".join(facts) + ".\n")
    (tmp_path / "e.dlq").write_text(":- A(X,Y), A(X,Z), Y != Z.\n")
    (tmp_path / "eq.dlq").write_text("q :- A(X,Y), A(X,Z), Y != Z.\n")
    (tmp_path / "e.prio").write_text("\n".join(priority) + "\n")
    return tmp_path


def _names(facts):
    return [format_fact(f) for f in sorted(facts, key=fact_key)]


def _null_entries(d, sigma):
    """The null repairs' report entries, in diff order, rebuilt from the
    engine's change sets and its applier, with plain lists of plain names."""
    apply = preferences.change_applier(d)
    entries = []
    for s in preferences.null_repairs(d, sigma).sets:
        v = apply(s)
        entries.append({"facts": _names(d.facts.difference(v).union(v.values())), "diff": sorted(map(str, s))})
    return sorted(entries, key=lambda e: e["diff"])


def _engine_result(files, argv):
    """The report's result and text lines rebuilt from the engines' own
    results, with plain lists of plain names."""
    d = parse_instance((files / "e.facts").read_text())
    if argv[0] == "diagnose":
        problem = diagnosis.build_problem(d, single_query((files / "eq.dlq").read_text()))
        conflicts = [_names(e) for e in problem.conflicts if e]
        found = [_names(x) for x in diagnosis.diagnoses(problem, argv[-1]).sets]
        lines = [f"conflict: {{{', '.join(c)}}}" for c in conflicts]
        lines += [f"diagnosis: {{{', '.join(x)}}}" for x in found]
        return {"kind": argv[-1], "conflicts": conflicts, "diagnoses": found}, lines
    sigma, semantics = constraint_set((files / "e.dlq").read_text()), argv[-1]
    if semantics == "null":
        entries = _null_entries(d, sigma)
        lines = [f"repair: {{{', '.join(e['facts'])}}}  diff {{{', '.join(e['diff'])}}}"
                 for e in entries]
        return {"semantics": semantics, "repairs": entries}, lines
    priority = None
    if semantics == "go":
        priority = parse_priorities((files / "e.prio").read_text())
    found = repairs(d, sigma, semantics, priority=priority).sets
    entries = [{"kept": _names(d.without(s).facts), "removed": _names(s)} for s in found]
    lines = [f"repair: keep {{{', '.join(e['kept'])}}}  remove {{{', '.join(e['removed'])}}}"
             for e in entries]
    return {"semantics": semantics, "repairs": entries}, lines


@pytest.mark.parametrize("argv", [
    *(["repairs", "-c", "e.dlq", "--priority", "e.prio", "--semantics", s]
      if s == "go" else ["repairs", "-c", "e.dlq", "--semantics", s]
      for s in ("s", "c", "endo", "null", "go")),
    *(["diagnose", "-q", "eq.dlq", "--kind", k] for k in ("s", "c")),
], ids=lambda argv: argv[0] + "-" + argv[-1])
def test_reports_of_names_that_need_escaping(tmp_path, monkeypatch, argv):
    files = _escaped_files(tmp_path)
    monkeypatch.chdir(files)
    d = parse_instance((files / "e.facts").read_text())
    names = [format_fact(f) for f in d.sorted_facts]
    # facts list in the order of their constants, not of their names,
    # and the constants' raw and escaped orders differ
    assert names != sorted(names) and names != sorted(names, key=json.dumps)
    assert sorted(_ESCAPED) != sorted(_ESCAPED, key=json.dumps)
    result, lines = _engine_result(files, argv)
    assert len(result.get("repairs", result.get("diagnoses"))) > 1
    code, out, err = execute(argv + ["-i", "e.facts", "--json"])
    assert code == 0, err
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert out == json.dumps({**report, "result": result}, indent=2, sort_keys=True) + "\n"
    code, text, err = execute(argv + ["-i", "e.facts"])
    assert code == 0, err
    assert text == "\n".join(lines) + "\n"
    assert "\\u" not in text and "中" in text and "é" in text


# ---------------------------------------------------------------------------
# --max-enum is offered where it is read

_ENUMERATING = [
    ["repairs", "-i", "ex1.facts", "-c", "ex2.dlq"],
    ["diagnose", "-i", "ex1.facts", "-q", "ex1.dlq"],
    ["preferred-causes", "-i", "ex14.facts", "-q", "ex15.dlq", "--priority", "ex15.prio"],
]
_NOT_ENUMERATING = [
    ["causes", "-i", "ex1.facts", "-q", "ex1.dlq"],
    ["responsibility", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "S(a3)"],
    ["mrc", "-i", "ex1.facts", "-q", "ex1.dlq"],
    ["check-contingency", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "S(a3)"],
    ["rdp", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "S(a3)", "--threshold", "0"],
    ["cqa", "-i", "ex1.facts", "-c", "ex2.dlq", "--atoms", "S(a3)"],
    ["oracle", "causes", "-i", "ex1.facts", "-q", "ex1.dlq"],
    ["oracle", "repairs", "-i", "ex1.facts", "-c", "ex2.dlq"],
]


@pytest.mark.parametrize("argv", _ENUMERATING, ids=lambda argv: argv[0])
def test_enumerating_subcommands_read_the_cap(argv):
    assert execute(argv)[0] == 0
    code, out, err = execute(argv + ["--max-enum", "0"])
    assert code == 3 and out == "" and "cap" in err


@pytest.mark.parametrize("argv", _NOT_ENUMERATING, ids=lambda argv: ".".join(a for a in argv[:2] if a[0] != "-"))
def test_other_subcommands_reject_the_cap(argv):
    assert execute(argv)[0] == 0
    code, out, err = execute(argv + ["--max-enum", "0"])
    assert code == 1 and out == "" and err.startswith("usage error:") and "--max-enum" in err


# ---------------------------------------------------------------------------
# Each invocation is parsed once, by its subcommand's parser

_REPAIRS = ["repairs", "-i", "ex4.facts", "-c", "ex4.dlq"]
_MALFORMED = [  # usage errors and help, and an abbreviated flag, which parses
    [],
    ["nope"],
    ["--json", "causes", "-i", "ex1.facts", "-q", "ex1.dlq"],
    ["causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--nope"],
    ["causes", "-q", "ex1.dlq"],
    _REPAIRS + ["--max-enum", "-1"],
    _REPAIRS + ["--max-enum", "many"],
    _REPAIRS + ["--semantics", "x"],
    _REPAIRS + ["--sem", "c"],
    _REPAIRS + ["--", "--json"],
    ["oracle"],
    ["oracle", "nope"],
    ["oracle", "causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--max-enum", "0"],
    ["-h"],
    ["causes", "-h"],
    ["oracle", "-h"],
    ["oracle", "repairs", "--help"],
]
_INVOCATIONS = [list(argv) for argv in dict.fromkeys(  # the goldens repeat some of the others
    tuple(argv) for argv in [argv for _, argv in golden_cases()] + _ENUMERATING + _NOT_ENUMERATING)]


def _parsed(parse, argv):
    """``parse(argv)``'s namespace as a dict, or the (exit code, stdout,
    stderr) that the parser ended the invocation with."""
    try:
        return vars(parse(argv))
    except cli._Exit as exc:
        return exc.args


def _dispatched(argv, monkeypatch):
    """The namespace ``execute`` hands on, or what it returns when its
    parser ends the invocation."""

    class Parsed(Exception):
        pass

    def stop(args):
        raise Parsed(args)

    monkeypatch.setattr(cli, "_Inputs", stop)
    try:
        return cli.execute(argv)
    except Parsed as parsed:
        args = vars(parsed.args[0])
        assert args.pop("raw_argv") == argv
        return args


@pytest.mark.parametrize("argv", _INVOCATIONS + _MALFORMED, ids=lambda argv: " ".join(argv) or "no words")
def test_dispatch_parses_as_the_full_parser(argv, monkeypatch):
    expected = _parsed(cli._build_parser().parse_args, list(argv))
    assert _dispatched(list(argv), monkeypatch) == expected
    if isinstance(expected, tuple):  # help on stdout, or a usage error on stderr
        code, out, err = expected
        assert (code, bool(out), bool(err)) in {(0, True, False), (1, False, True)}
    else:
        assert expected["command"] == ".".join(argv[:2] if argv[0] == "oracle" else argv[:1])


def test_each_invocation_is_parsed_once(monkeypatch):
    calls = 0
    parse = argparse.ArgumentParser.parse_known_args

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return parse(*args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    counts = {}
    for argv in _INVOCATIONS:
        calls = 0
        assert execute(argv)[0] == 0, argv
        counts[" ".join(argv)] = calls
    # an oracle subcommand's words are parsed by the oracle's parser, then by its own
    assert {argv: n for argv, n in counts.items() if n != 1 + argv.startswith("oracle ")} == {}


@pytest.mark.parametrize("argv", [["-h"], ["causes", "-h"], ["oracle", "repairs", "--help"]], ids=" ".join)
def test_help_is_returned_not_printed(argv, capsys, monkeypatch):
    code, out, err = execute(argv)
    assert capsys.readouterr() == ("", "")
    assert (code, err) == (0, "") and out.startswith(" ".join(["usage:", "causerepair", *argv[:-1], "[-h]"]))
    monkeypatch.setattr(sys, "argv", ["causerepair", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.main()
    assert exited.value.code == 0 and capsys.readouterr() == (out, "")


def test_help_lists_the_exit_codes_and_no_private_name():
    code, out, err = execute(["-h"])
    assert (code, err) == (0, "")
    words = " ".join(out.split())  # the paragraphs are wrapped to the terminal
    for listed in ("Exit codes: 0 success", "1 usage or parse errors", "2 semantic errors",
                   "3 an enumeration cap exceeded"):
        assert listed in words
    assert re.findall(r"(?<![\w-])_\w+", out) == [] and "``" not in out


# ---------------------------------------------------------------------------
# A typed tuple id names that tuple

_IDS_INSTANCE = "R(1;a,b). R(2;a,b). S(3;a). S(4;b). T(5;c).\n"


@pytest.fixture
def id_files(tmp_path):
    (tmp_path / "d.facts").write_text(_IDS_INSTANCE)
    (tmp_path / "q.dlq").write_text("q :- S(X), R(X,Y), S(Y).\n")
    (tmp_path / "c.dlq").write_text(":- S(X), R(X,Y), S(Y).\n")
    (tmp_path / "p.prio").write_text("R(9;a,b) > S(3;a).\n")
    return {name: str(tmp_path / name) for name in ("d.facts", "q.dlq", "c.dlq", "p.prio")}


def _on_query(files, *argv):
    return execute([argv[0], "-i", files["d.facts"], "-q", files["q.dlq"], *argv[1:]])


def _on_constraints(files, *argv):
    return execute([argv[0], "-i", files["d.facts"], "-c", files["c.dlq"], *argv[1:]])


def test_tuple_id_names_a_tuple_apart_from_its_twin(id_files):
    code, out, err = _on_query(
        id_files, "check-contingency", "--tuple", "R(2;a,b)", "--gamma", "R(1;a,b)"
    )
    assert (code, out, err) == (0, "true\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("responsibility", "--tuple", "R(9;a,b)"),
        ("diagnose", "--containing", "R(9;a,b)"),
        ("check-contingency", "--tuple", "S(3;a)", "--gamma", "R(9;a,b)"),
    ],
)
def test_absent_tuple_id_is_rejected(id_files, argv):
    code, out, err = _on_query(id_files, *argv)
    assert code == 2 and out == "" and "R(9;a,b) is not in the instance" in err


def test_absent_tuple_id_fails_decisions(id_files):
    assert _on_query(id_files, "rdp", "--tuple", "R(9;a,b)", "--threshold", "0")[:2] == (0, "false\n")
    assert _on_constraints(id_files, "cqa", "--atoms", "T(6;c)")[:2] == (0, "false\n")


def test_priority_naming_an_absent_tuple_id_is_rejected(id_files):
    code, out, err = _on_constraints(
        id_files, "repairs", "--semantics", "go", "--priority", id_files["p.prio"]
    )
    assert code == 2 and out == "" and "R(9;a,b) is not in the instance" in err


def test_fact_without_id_names_the_first_tuple(id_files):
    assert _on_constraints(id_files, "cqa", "--atoms", "T(c)")[:2] == (0, "true\n")
    assert _on_query(id_files, "responsibility", "--tuple", "R(a,b)")[:2] == (0, "1/2\n")


def test_tuple_id_beyond_int_parsing_is_a_semantic_error(id_files, tmp_path):
    huge = "9" * 5000
    inst = tmp_path / "huge.facts"
    inst.write_text(f"S(a). R({huge};a).\n")
    code, out, err = execute(["causes", "-i", str(inst), "-q", id_files["q.dlq"]])
    assert (code, out, err) == (2, "", "error: tuple id of 5000 digits is too long\n")
    code, out, err = _on_query(id_files, "responsibility", "--tuple", f"R({huge};a)")
    assert (code, out, err) == (2, "", "error: tuple id of 5000 digits is too long\n")


def test_smallest_diagnoses_through_a_fact_fit_the_default_cap(tmp_path):
    # chain n=50 has 447,795 minimal diagnoses; only those through the
    # fact are built, so the default cap of 100,000 is not reached
    inst, dlq = tmp_path / "chain50.facts", tmp_path / "chain.dlq"
    inst.write_text(serialize_instance(seeded_chain(50, 50)))
    dlq.write_text("q :- S(X), R(X,Y), S(Y).\n")
    argv = ["diagnose", "-i", str(inst), "-q", str(dlq), "--kind", "c"]
    code, out, err = execute(argv + ["--containing", "R(a0,a39)", "--json"])
    assert code == 0 and err == ""
    found = json.loads(out)["result"]["diagnoses"]
    assert len(found) == 33 and all("R(a0,a39)" in names for names in found)
    code, _, err = execute(argv[:-2] + ["--containing", "R(a0,a39)"])  # kind s
    assert code == 3 and "cap" in err


def test_cardinality_repairs_and_diagnoses_fit_the_default_cap(tmp_path):
    # a component of chain n=80 has over 100,000 minimal sets, but there
    # are 6,480 C-repairs, and only those are searched for
    inst, dc, q = tmp_path / "chain80.facts", tmp_path / "chain.dc", tmp_path / "chain.dlq"
    inst.write_text(serialize_instance(seeded_chain(80, 80)))
    dc.write_text(":- S(X), R(X,Y), S(Y).\n")
    q.write_text("q :- S(X), R(X,Y), S(Y).\n")
    runs = [(["repairs", "-c", str(dc), "--semantics", "c"], "repairs"),
            (["diagnose", "-q", str(q), "--kind", "c"], "diagnoses")]
    for argv, key in runs:
        code, out, err = execute(argv + ["-i", str(inst), "--json"])
        assert code == 0 and err == ""
        assert len(json.loads(out)["result"][key]) == 6480


@pytest.mark.parametrize("k", [40, 200])
def test_preferred_causes_read_per_component_on_keyed_instances(tmp_path, k):
    # 2^(k/2) global-optimal repairs, far above the default cap; no
    # preferred cause needs them built
    d, _, pairs, causes = keyed_preferences(k)
    inst, dlq, prio = tmp_path / "keyed.facts", tmp_path / "key.dlq", tmp_path / "keyed.prio"
    inst.write_text(serialize_instance(d))
    dlq.write_text("q :- A(X,Y), A(X,Z), Y != Z.\n")
    prio.write_text("".join(f"{format_fact(a)} > {format_fact(b)}.\n" for a, b in pairs))
    argv = ["preferred-causes", "-i", str(inst), "-q", str(dlq), "--priority", str(prio)]
    code, out, err = execute(argv + ["--json"])
    assert code == 0 and err == ""
    listed = json.loads(out)["result"]["causes"]
    one_in_k = {"num": 1, "den": k}
    assert listed == [{"fact": format_fact(t), "responsibility": one_in_k} for t in causes]
    code, out, err = execute(argv)
    assert code == 0 and out == "".join(f"{format_fact(t)}  1/{k}\n" for t in causes)


def test_query_body_deeper_than_the_recursion_limit(tmp_path):
    # the join walks its steps with its own stack: one step per atom
    body = ", ".join(f"R(X{i},X{i + 1})" for i in range(1500))
    (tmp_path / "q.dlq").write_text(f"q :- {body}.\n", encoding="utf-8")
    (tmp_path / "c.dlq").write_text(f":- {body}.\n", encoding="utf-8")
    (tmp_path / "d.facts").write_text("R(a,b). R(b,a). R(c,c).\n", encoding="utf-8")
    code, out, err = execute(["causes", "-i", str(tmp_path / "d.facts"), "-q", str(tmp_path / "q.dlq")])
    assert (code, err) == (0, "")
    assert out.splitlines() == ["R(a,b)  1/2", "R(b,a)  1/2", "R(c,c)  1/2"]
    code, out, err = execute(["repairs", "-i", str(tmp_path / "d.facts"), "-c", str(tmp_path / "c.dlq")])
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 2


def test_long_chain_constraint_over_a_cycle(tmp_path):
    # every walk seeded at atom i >= 3 stops where atom i - 3 would take the
    # asked fact again; those from atoms 0-2 walk all 1,500 steps
    body = ", ".join(f"R(X{i},X{i + 1})" for i in range(1500))
    (tmp_path / "c.dlq").write_text(f":- {body}.\n", encoding="utf-8")
    (tmp_path / "d.facts").write_text("R(a,b). R(b,c). R(c,a).\n", encoding="utf-8")
    files = ["-i", str(tmp_path / "d.facts"), "-c", str(tmp_path / "c.dlq")]
    for atoms in ("R(a,b)", "R(c,a);R(b,c)"):
        assert execute(["cqa", *files, "--atoms", atoms, "--semantics", "s"]) == (0, "false\n", "")
    assert execute(["cqa", *files, "--atoms", "R(b,a)", "--semantics", "s"]) == (0, "false\n", "")
    assert execute(["repairs", *files, "--semantics", "s"]) == (0, (
        "repair: keep {R(b,c), R(c,a)}  remove {R(a,b)}\n"
        "repair: keep {R(a,b), R(c,a)}  remove {R(b,c)}\n"
        "repair: keep {R(a,b), R(b,c)}  remove {R(c,a)}\n"
    ), "")


# ---------------------------------------------------------------------------
# The cyclic collector is paused for each invocation

_EXITS = [
    (0, ["causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--json"]),
    (0, ["-h"]),
    (1, ["causes", "-i", "missing.facts", "-q", "ex1.dlq"]),
    (1, ["causes", "--nope"]),
    (2, ["responsibility", "-i", "ex13.facts", "-q", "ex1.dlq", "--tuple", "S(a2)"]),
    (3, ["repairs", "-i", "ex4.facts", "-c", "ex4.dlq", "--max-enum", "0"]),
]


@pytest.fixture
def collector():
    """Puts back the collector state the test found."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_state_is_restored_on_every_exit(collector, monkeypatch, enabled):
    (gc.enable if enabled else gc.disable)()
    for code, argv in _EXITS:
        assert execute(argv)[0] == code, argv
        assert gc.isenabled() is enabled, argv
    seen = []

    def failing(*args):
        seen.append(gc.isenabled())
        raise RuntimeError("handler failed")

    # the parser is built once per process, with each subcommand's handler
    monkeypatch.setitem(cli._build_parser().commands["causes"]._defaults, "run", failing)
    with pytest.raises(RuntimeError, match="handler failed"):
        execute(_EXITS[0][1])
    assert seen == [False] and gc.isenabled() is enabled


def test_a_large_invocation_runs_no_collection(tmp_path, collector):
    d = thousand_facts()
    (tmp_path / "d.facts").write_text(serialize_instance(d))
    (tmp_path / "dc.dlq").write_text(CQA_DC)
    atoms = ";".join(format_fact(f) for f in sorted(d.facts, key=fact_key)[:3])
    argv = ["cqa", "-i", str(tmp_path / "d.facts"), "-c", str(tmp_path / "dc.dlq"),
            "--atoms", atoms, "--semantics", "s", "--json"]
    assert execute(argv)[0] == 0  # warm up: caches and lazy set-up fill first
    gc.enable()
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        code, out, err = execute(argv)
    finally:
        gc.callbacks.remove(record)
    assert (code, err) == (0, "") and len(d.facts) == 992
    assert collections == []
