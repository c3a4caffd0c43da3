"""Repair and diagnosis reports against the engines' own results.

Each expected report is rebuilt here from ``repairs.repairs``,
``diagnosis.diagnoses``, ``preferences.null_repairs`` and the oracle,
with plain lists of plain names, and written by ``json.dumps``; its text
twin is rebuilt line by line.  The CLI writes these reports from slices
of one string of names, so the comparisons cover that writer at the
benchmark's size and at its edges: no repair, a repair that removes
nothing, one that keeps nothing, cuts at the first and the last fact,
and names that need escaping.
"""

import json

import pytest

from causerepair import diagnosis, hitting, oracle, preferences
from causerepair.cli import execute
from causerepair.parsing import (
    constraint_set,
    parse_fact,
    parse_instance,
    parse_priorities,
    single_query,
)
from causerepair.relational import fact_key, format_fact, serialize_instance, set_key
from causerepair.repairs import repairs

from conftest import assert_same, seeded_keyed

KEY_DC = ":- A(X,Y), A(X,Z), Y != Z.\n"
KEY_QUERY = "q :- A(X,Y), A(X,Z), Y != Z.\n"


def _names(facts):
    return [format_fact(f) for f in sorted(facts, key=fact_key)]


def _listed(label, names):
    return f"{label}{{{', '.join(names)}}}"


def _option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _rebuilt(argv):
    """The result and the text lines of ``argv`` rebuilt from the engines'
    own results, with plain lists of plain names."""
    d = parse_instance(open(_option(argv, "-i")).read())
    if argv[0] == "diagnose":
        problem = diagnosis.build_problem(d, single_query(open(_option(argv, "-q")).read()))
        kind, containing = _option(argv, "--kind", "s"), _option(argv, "--containing")
        found = diagnosis.diagnoses(problem, kind, containing and parse_fact(containing)).sets
        conflicts = [_names(e) for e in problem.conflicts if e]
        diagnoses = [_names(x) for x in found]
        result = {"kind": kind, "conflicts": conflicts, "diagnoses": diagnoses}
        lines = [_listed("conflict: ", c) for c in conflicts]
        lines += [_listed("diagnosis: ", x) for x in diagnoses]
        if "--emit-theory" in argv:
            result["theory"] = diagnosis.render_theory(problem).splitlines()
            lines += result["theory"]
        return result, lines
    sigma = constraint_set(open(_option(argv, "-c")).read())
    semantics = _option(argv, "--semantics", "s")
    if semantics == "null":
        apply, entries = preferences.change_applier(d), []
        for s in preferences.null_repairs(d, sigma).sets:
            v = apply(s)
            entries.append({"facts": _names(d.facts.difference(v).union(v.values())), "diff": sorted(map(str, s))})
        entries.sort(key=lambda e: e["diff"])
        lines = [_listed("repair: ", e["facts"]) + _listed("  diff ", e["diff"]) for e in entries]
        return {"semantics": semantics, "repairs": entries}, lines
    if argv[0] == "oracle":
        kept_sets = oracle.oracle_repairs(d, sigma, semantics)
        pairs = sorted(((kept, d.facts - kept) for kept in kept_sets), key=lambda p: set_key(p[1]))
    else:
        priority = _option(argv, "--priority")
        priority = priority and parse_priorities(open(priority).read())
        found = repairs(d, sigma, semantics, priority=priority).sets
        pairs = [(d.without(s).facts, s) for s in found]
    entries = [{"kept": _names(kept), "removed": _names(removed)} for kept, removed in pairs]
    lines = [_listed("repair: keep ", e["kept"]) + _listed("  remove ", e["removed"]) for e in entries]
    return {"semantics": semantics, "repairs": entries}, lines


def _assert_reports(argv):
    """The JSON report of ``argv`` and its text twin equal the rebuilt
    ones byte for byte; returns the rebuilt result and the JSON report."""
    result, lines = _rebuilt(argv)
    code, out, err = execute(argv + ["--json"])
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert_same(out, json.dumps({**report, "result": result}, indent=2, sort_keys=True) + "\n")
    code, text, err = execute(argv)
    assert (code, err) == (0, "")
    assert_same(text, "".join(line + "\n" for line in lines))
    return result, out


# ---------------------------------------------------------------------------
# The benchmark's size: 256 repairs among 8 and 50 keys


def _keyed_files(files, conflicts: int, keys: int) -> list[list]:
    """The benchmark's keyed instance, ``conflicts`` two-valued keys among
    ``keys``, as ``d.facts``; the same with the first fact of the first two
    conflicts exogenous as ``mixed.facts``; the key constraint and its
    query; and a priority of the first fact over the second in the first
    four conflicts.  Returns the conflicts in canonical order."""
    d = seeded_keyed((2,) * conflicts, keys)
    by_key = {}
    for f in d.sorted_facts:
        by_key.setdefault(f.args[0], []).append(f)
    pairs = [g for g in by_key.values() if len(g) == 2]
    exogenous = {pairs[0][0], pairs[1][0]}
    (files / "d.facts").write_text(serialize_instance(d))
    lines = [f"{name}." for name in _names(d.facts - exogenous)] + ["@exogenous"]
    (files / "mixed.facts").write_text("\n".join(lines + [f"{name}." for name in _names(exogenous)]) + "\n")
    (files / "key.dlq").write_text(KEY_DC)
    (files / "keyq.dlq").write_text(KEY_QUERY)
    (files / "p.prio").write_text("".join(f"{format_fact(a)} > {format_fact(b)}.\n" for a, b in pairs[:4]))
    return pairs


@pytest.mark.parametrize("keys", [8, 50])
@pytest.mark.parametrize("argv, conflicts, count", [
    (["repairs", "-c", "key.dlq", "--semantics", "s"], 8, 256),
    (["repairs", "-c", "key.dlq", "--semantics", "c"], 8, 256),
    (["repairs", "-c", "key.dlq", "--semantics", "endo", "-i", "mixed.facts"], 8, 64),
    (["repairs", "-c", "key.dlq", "--semantics", "go", "--priority", "p.prio"], 8, 16),
    (["repairs", "-c", "key.dlq", "--semantics", "null"], 4, 256),
    (["diagnose", "-q", "keyq.dlq"], 8, 256),
    (["diagnose", "-q", "keyq.dlq", "--kind", "c", "--emit-theory"], 8, 256),
    (["diagnose", "-q", "keyq.dlq", "--containing", "FIRST"], 8, 128),
], ids=["s", "c", "endo", "go", "null", "diagnose", "diagnose-c-theory", "diagnose-containing"])
def test_reports_at_the_benchmark_size_equal_the_engines(tmp_path, monkeypatch, keys, argv, conflicts, count):
    monkeypatch.chdir(tmp_path)
    pairs = _keyed_files(tmp_path, conflicts, keys)
    argv = [format_fact(pairs[0][0]) if a == "FIRST" else a for a in argv]
    if "-i" not in argv:
        argv += ["-i", "d.facts"]
    result, out = _assert_reports(argv)
    assert len(result.get("repairs", result.get("diagnoses"))) == count
    assert keys < 50 or count < 256 or len(out) > 48 * 1024


@pytest.mark.parametrize("semantics", ["s", "c", "endo"])
def test_oracle_repair_reports_equal_the_oracle(tmp_path, monkeypatch, semantics):
    # the oracle's bound: 14 facts, 7 two-valued keys, 128 repairs
    monkeypatch.chdir(tmp_path)
    _keyed_files(tmp_path, 7, 7)
    instance = "d.facts" if semantics != "endo" else "mixed.facts"
    result, _ = _assert_reports(["oracle", "repairs", "-c", "key.dlq", "-i", instance, "--semantics", semantics])
    assert len(result["repairs"]) == (32 if semantics == "endo" else 128)


# ---------------------------------------------------------------------------
# The edges of the slicing writer

# Constants that need escaping in JSON, as written in a file
_QUOTED = '"a\\"b"'
_EDGES = {
    # a witness of exogenous facts alone: no endogenous repair
    "no-repair": ("@endogenous\nA(1;k,a).\n@exogenous\nA(2;k,b). A(3;k,c).\n", KEY_DC),
    # a consistent instance: one repair, which removes nothing
    "nothing-removed": ("A(1;k,a). A(2;j,b). A(3;\"é\",c).\n", KEY_DC),
    # every fact violates alone: one repair, which keeps nothing
    "nothing-kept": (f"A(1;k,a). A(2;{_QUOTED},b). B(3;c).\n", ":- A(X,Y).\n:- B(X).\n"),
    # the first and the last fact in canonical order are cut
    "first-and-last": (f"A(1;a,x). A(2;a,y). A(3;m,x). A(4;{_QUOTED},x). A(5;z,x). A(6;z,y).\n", KEY_DC),
    # names that need escaping, cut and kept, first and last
    "escaped": (f'A(1;{_QUOTED},x). A(2;{_QUOTED},"中"). A(3;"é",x). A(4;"é","\\\\"). A(5;z,"中").\n',
                KEY_DC),
}


@pytest.mark.parametrize("edge", sorted(_EDGES))
@pytest.mark.parametrize("argv", [
    ["repairs", "--semantics", "s"],
    ["repairs", "--semantics", "c"],
    ["repairs", "--semantics", "endo"],
    ["repairs", "--semantics", "null"],
    ["oracle", "repairs", "--semantics", "s"],
], ids=["s", "c", "endo", "null", "oracle-s"])
def test_reports_at_the_edges_equal_the_engines(tmp_path, monkeypatch, edge, argv):
    monkeypatch.chdir(tmp_path)
    instance, program = _EDGES[edge]
    (tmp_path / "d.facts").write_text(instance)
    (tmp_path / "p.dlq").write_text(program)
    result, _ = _assert_reports(argv + ["-i", "d.facts", "-c", "p.dlq"])
    entries = result["repairs"]
    semantics = argv[-1]
    if edge == "no-repair":
        assert (entries == []) == (semantics == "endo")
    elif edge == "nothing-removed":
        key = "diff" if semantics == "null" else "removed"
        assert [e[key] for e in entries] == [[]]
    elif edge == "nothing-kept" and semantics != "null":
        assert [e["kept"] for e in entries] == [[]]
    elif edge == "first-and-last" and semantics != "null":
        d = parse_instance(instance)
        first, last = (format_fact(f) for f in (d.sorted_facts[0], d.sorted_facts[-1]))
        assert any(e["removed"][0] == first and e["removed"][-1] == last for e in entries)
        assert any(e["kept"][0] == first and e["kept"][-1] == last for e in entries)


@pytest.mark.parametrize("edge", ["first-and-last", "escaped"])
def test_diagnosis_reports_at_the_edges_equal_the_engines(tmp_path, monkeypatch, edge):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d.facts").write_text(_EDGES[edge][0])
    (tmp_path / "q.dlq").write_text(KEY_QUERY)
    for extra in ([], ["--kind", "c"], ["--emit-theory"]):
        result, _ = _assert_reports(["diagnose", "-i", "d.facts", "-q", "q.dlq"] + extra)
        assert len(result["diagnoses"]) > 1


# ---------------------------------------------------------------------------
# Work done for a report


@pytest.mark.parametrize("argv, conflicts", [
    (["repairs", "-c", "key.dlq", "--semantics", "s"], 8),
    (["repairs", "-c", "key.dlq", "--semantics", "c"], 8),
    (["repairs", "-c", "key.dlq", "--semantics", "endo", "-i", "mixed.facts"], 8),
    (["repairs", "-c", "key.dlq", "--semantics", "go", "--priority", "p.prio"], 8),
    (["repairs", "-c", "key.dlq", "--semantics", "null"], 4),
    (["diagnose", "-q", "keyq.dlq"], 8),
    (["diagnose", "-q", "keyq.dlq", "--kind", "c"], 8),
], ids=["s", "c", "endo", "go", "null", "diagnose", "diagnose-c"])
def test_reports_are_written_from_index_lists(tmp_path, monkeypatch, argv, conflicts):
    # no report builds the product's member sets: patched to raise, the
    # CLI still answers, with the report the engines' sets give; four
    # conflicts of four change sets each give 256 null repairs
    monkeypatch.chdir(tmp_path)
    _keyed_files(tmp_path, conflicts, 50)
    if "-i" not in argv:
        argv = argv + ["-i", "d.facts"]
    result, _ = _rebuilt(argv)

    def refuse(self):
        raise AssertionError("HittingSolution.sets read")

    monkeypatch.setattr(hitting.HittingSolution, "sets", property(refuse))
    with pytest.raises(AssertionError, match="sets read"):
        _rebuilt(argv)
    code, out, err = execute(argv + ["--json"])
    assert (code, err) == (0, "")
    assert_same(out, json.dumps({**json.loads(out), "result": result}, indent=2, sort_keys=True) + "\n")
