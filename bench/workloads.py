"""Seeded inputs, invocation scripts and reference checks for each workload.

A workload turns a seed into a pool of input files plus a script: the
list of CLI invocations (argv as a user would type it, with ``--json``)
that one pass of the closed loop runs.  ``verify`` checks the ``result``
objects of one pass against expectations the benchmark derives from the
generated facts on its own (plain Python over fact tuples, no engine
code), so outputs are checked on every seed, not only where committed
digests exist.  The ``small_*`` functions give oracle-sized inputs from
the same generators for the self-test.

Facts are tuples ``(pred, args, fact_id)``; ``text`` renders them exactly
as the CLI prints them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

CHAIN_QUERY = "q :- S(X), R(X,Y), S(Y).\n"
KEY_DC = ":- A(X,Y), A(X,Z), Y != Z.\n"
KEY_QUERY = "q :- A(X,Y), A(X,Z), Y != Z.\n"
CHAIN_DC = ":- S(X), R(X,Y), S(Y).\n"


def text(f) -> str:
    pred, args, fid = f
    inner = ",".join(args)
    return f"{pred}({fid};{inner})" if fid is not None else f"{pred}({inner})"


def write_instance(path: Path, facts) -> None:
    path.write_text("".join(text(f) + ".\n" for f in sorted(facts)), encoding="utf-8")


@dataclass
class Invocation:
    label: str  # stable across commits: no paths
    argv: list[str]


@dataclass
class Pool:
    """Generated input files, the per-pass script and what ``verify`` needs."""

    script: list[Invocation]
    parse_plan: list[tuple[str, Path]]  # (role, file) parsed once by setup
    expect: dict  # what ``verify`` compares the results with


# ---------------------------------------------------------------------------
# Generators


def chain_facts(rng: random.Random, n: int, domain: int, prefix: str) -> set:
    """The ROADMAP generator: n draws of R(a_j,a_k) and S(a_m)."""
    facts = set()
    for _ in range(n):
        j, k, m = rng.randrange(domain), rng.randrange(domain), rng.randrange(domain)
        facts.add(("R", (f"{prefix}{j}", f"{prefix}{k}"), None))
        facts.add(("S", (f"{prefix}{m}",), None))
    return facts


def chain_witnesses(facts) -> set[frozenset]:
    """Images of ``S(X), R(X,Y), S(Y)``.  They form an antichain already:
    two distinct images never nest, because each holds exactly one R fact
    and is determined by it."""
    s = {f[1][0] for f in facts if f[0] == "S"}
    out = set()
    for pred, args, fid in facts:
        if pred == "R" and args[0] in s and args[1] in s:
            out.add(frozenset({("S", (args[0],), None), (pred, args, fid), ("S", (args[1],), None)}))
    return out


def keyed_facts(rng: random.Random, shape, n_keys: int, with_ids: bool):
    """One ``A(k,v)`` fact per key; the keys picked for ``shape`` get that
    many distinct values instead.  Returns the facts and the conflict groups."""
    conflicted = dict(zip(rng.sample(range(n_keys), len(shape)), shape))
    facts, groups = [], []
    for k in range(n_keys):
        values = rng.sample(range(1000), conflicted.get(k, 1))
        group = [("A", (f"k{k}", f"v{v}"), len(facts) + i + 1 if with_ids else None)
                 for i, v in enumerate(values)]
        facts.extend(group)
        if len(group) > 1:
            groups.append(group)
    return facts, groups


def key_pairs(groups) -> set[frozenset]:
    return {frozenset(p) for g in groups for p in itertools.combinations(g, 2)}


def _args(kind: str, path: Path) -> list[str]:
    return [{"instance": "-i", "query": "-q", "constraints": "-c"}[kind], str(path)]


def _fraction(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


# ---------------------------------------------------------------------------
# explain-small: causes and responsibility on small chain instances


EXPLAIN_POOL = 12
EXPLAIN_EDGES = (5, 16)


def explain_instances():
    """The fixed pool: the first generator seeds whose instance has a
    support family of the stated size.  Branching cost grows steeply with
    the family, so the pool does not move with ``--seed``."""
    pool, gseed = [], 0
    while len(pool) < EXPLAIN_POOL:
        n = 24 + gseed % 5
        facts = chain_facts(random.Random(gseed), n, n, "a")
        if EXPLAIN_EDGES[0] <= len(chain_witnesses(facts)) <= EXPLAIN_EDGES[1]:
            pool.append(facts)
        gseed += 1
    return pool


def _hitting_verdict(facts, t, gamma) -> bool:
    """Minimal-contingency check by plain evaluation of the chain query."""
    removed = gamma | {t}
    if chain_witnesses(facts - removed):
        return False
    return all(chain_witnesses(facts - (removed - {f})) for f in removed)


def build_explain(rng: random.Random, work: Path) -> Pool:
    q = work / "q.dlq"
    q.write_text(CHAIN_QUERY, encoding="utf-8")
    script, plan, expect = [], [("query", q)], {}
    for i, facts in enumerate(explain_instances()):
        path = work / f"e{i:02d}.facts"
        write_instance(path, facts)
        plan.append(("instance", path))
        base = _args("instance", path) + _args("query", q) + ["--json"]
        edges = sorted(chain_witnesses(facts), key=lambda e: sorted(e))
        causes = sorted(set().union(*edges))
        tag = f"e{i:02d}"
        expect[tag] = {"causes": {text(f) for f in causes}, "checks": {}}
        script.append(Invocation(f"{tag} causes", ["causes"] + base))
        script.append(Invocation(f"{tag} mrc", ["mrc"] + base))
        for f in rng.sample(causes, 2):
            script.append(Invocation(f"{tag} responsibility {text(f)}",
                                     ["responsibility", "--tuple", text(f)] + base))
            script.append(Invocation(f"{tag} rdp {text(f)}",
                                     ["rdp", "--tuple", text(f), "--threshold", "1/2"] + base))
        t = rng.choice(causes)
        hitting = {t}
        order = list(edges)
        rng.shuffle(order)
        for e in order:
            if not e & hitting:
                hitting.add(rng.choice(sorted(e)))
        gamma = frozenset(hitting - {t})
        label = f"{tag} check-contingency {text(t)}"
        expect[tag]["checks"][label] = _hitting_verdict(facts, t, gamma)
        script.append(Invocation(label, ["check-contingency", "--tuple", text(t),
                                         "--gamma", ";".join(text(g) for g in sorted(gamma))] + base))
    return Pool(script, plan, expect)


def verify_explain(pool: Pool, results: dict) -> list[str]:
    """Labels whose result is wrong.  Cause sets and contingency verdicts
    are checked against plain evaluation; responsibilities must agree
    across ``causes``, ``responsibility``, ``mrc`` and ``rdp``."""
    bad = []
    for tag, exp in pool.expect.items():
        listing = {c["fact"]: _fraction(c["responsibility"]) for c in results[f"{tag} causes"]["causes"]}
        if set(listing) != exp["causes"] or not all(0 < v <= 1 for v in listing.values()):
            bad.append(f"{tag} causes")
        top = max(listing.values(), default=Fraction(0))
        mrc = results[f"{tag} mrc"]
        if set(mrc["causes"]) != {f for f, v in listing.items() if v == top} or _fraction(mrc["responsibility"]) != top:
            bad.append(f"{tag} mrc")
        for label, res in results.items():
            if not label.startswith(tag + " "):
                continue
            if " responsibility " in label and _fraction(res["responsibility"]) != listing.get(res["fact"], 0):
                bad.append(label)
            if " rdp " in label and res["exceeds"] != (listing.get(res["fact"], 0) > Fraction(1, 2)):
                bad.append(label)
            if label in exp["checks"] and res["minimal_contingency"] != exp["checks"][label]:
                bad.append(label)
    return bad


# ---------------------------------------------------------------------------
# cqa-large: consistent answers on about a thousand facts


CQA_SIZES = ((150, 400), (200, 500), (250, 600))  # (chain draws, keys)
CQA_CONFLICT_SHARE = 0.1


def cqa_facts(rng: random.Random, n_chain: int, n_keys: int):
    chain = chain_facts(rng, n_chain, 2 * n_chain, "c")
    shape = (2,) * round(CQA_CONFLICT_SHARE * n_keys)
    keyed, groups = keyed_facts(rng, shape, n_keys, with_ids=False)
    facts = chain | set(keyed)
    violations = chain_witnesses(chain) | key_pairs(groups)
    return facts, violations


def _atom_lists(rng: random.Random, facts, violations, n_keys: int):
    """Three conjunctions: all certain, one conflicting atom, one absent atom."""
    bad = set().union(*violations)
    good = sorted(facts - bad)
    absent = ("A", (f"k{n_keys}", "v0"), None)
    lists = [
        (rng.sample(good, 3), True),
        (rng.sample(good, 2) + [rng.choice(sorted(bad))], False),
        (rng.sample(good, 1) + [absent], False),
    ]
    for atoms, _ in lists:
        rng.shuffle(atoms)
    return lists


def build_cqa(rng: random.Random, work: Path) -> Pool:
    dc = work / "dc.dlq"
    dc.write_text(CHAIN_DC + KEY_DC, encoding="utf-8")
    script, plan, expect = [], [("constraints", dc)], {}
    for i, (n_chain, n_keys) in enumerate(CQA_SIZES):
        facts, violations = cqa_facts(rng, n_chain, n_keys)
        path = work / f"c{i}.facts"
        write_instance(path, facts)
        plan.append(("instance", path))
        for j, (atoms, certain) in enumerate(_atom_lists(rng, facts, violations, n_keys)):
            label = f"c{i} cqa-s list{j}"
            expect[label] = certain
            script.append(Invocation(label, ["cqa"] + _args("instance", path) + _args("constraints", dc)
                                     + ["--atoms", ";".join(text(a) for a in atoms), "--semantics", "s", "--json"]))
    return Pool(script, plan, expect)


def verify_cqa(pool: Pool, results: dict) -> list[str]:
    return [label for label, certain in pool.expect.items() if results[label]["consistent"] != certain]


# ---------------------------------------------------------------------------
# repair-enum: full repair and diagnosis enumeration under a key


REPAIR_KEYS = 50
# Conflict group sizes, 5-8 conflicting keys with 2-3 values each.  The
# repair counts (32 to 256) spread the invocation costs over a ramp rather
# than a few clusters, so no latency quantile sits on a gap between them.
REPAIR_SHAPES = ((2,) * 5, (3, 2, 2, 2, 2), (2,) * 6, (2,) * 7,
                 (3, 3, 2, 2, 2, 2), (3, 3, 3, 2, 2, 2), (2,) * 8)
NULL_SHAPE = (2, 2, 2, 2)  # null repairs grow as 4^k


def _removed_sets(groups) -> set[frozenset]:
    """Deletion sets of the subset repairs: keep one fact per group.  Every
    one deletes the same number of facts, so cardinality repairs coincide."""
    return {
        frozenset(text(f) for g, keep in zip(groups, kept) for f in g if f != keep)
        for kept in itertools.product(*groups)
    }


def _null_diffs(groups) -> set[frozenset]:
    """Null repairs of two-fact conflicts: null one key or value position."""
    choices = [[f"A[{f[2]};{pos}]" for f in g for pos in (1, 2)] for g in groups]
    return {frozenset(pick) for pick in itertools.product(*choices)}


def build_repairs(rng: random.Random, work: Path) -> Pool:
    dc, q = work / "key.dlq", work / "keyq.dlq"
    dc.write_text(KEY_DC, encoding="utf-8")
    q.write_text(KEY_QUERY, encoding="utf-8")
    script, plan, expect = [], [("constraints", dc), ("query", q)], {}
    shapes = [(f"r{i}", s) for i, s in enumerate(REPAIR_SHAPES)] + [("n0", NULL_SHAPE)]
    for tag, shape in shapes:
        facts, groups = keyed_facts(rng, shape, REPAIR_KEYS, with_ids=True)
        path = work / f"{tag}.facts"
        write_instance(path, facts)
        plan.append(("instance", path))
        inst, cons = _args("instance", path), _args("constraints", dc)
        if shape == NULL_SHAPE:
            expect[f"{tag} repairs-null"] = _null_diffs(groups)
            script.append(Invocation(f"{tag} repairs-null", ["repairs"] + inst + cons + ["--semantics", "null", "--json"]))
            continue
        removed = _removed_sets(groups)
        for sem in ("s", "c"):
            expect[f"{tag} repairs-{sem}"] = removed
            script.append(Invocation(f"{tag} repairs-{sem}", ["repairs"] + inst + cons + ["--semantics", sem, "--json"]))
        expect[f"{tag} diagnose"] = ({frozenset(text(f) for f in p) for p in key_pairs(groups)}, removed)
        script.append(Invocation(f"{tag} diagnose", ["diagnose"] + inst + _args("query", q) + ["--json"]))
        conflicted = [f for g in groups for f in g]
        atoms = rng.sample(sorted(set(facts) - set(conflicted)), 2)
        certain = rng.random() < 0.5
        if not certain:
            atoms[1] = rng.choice(conflicted)
        expect[f"{tag} cqa-c"] = certain
        # atoms are named without tuple ids, as a user would type them
        listed = ";".join(text((p, a, None)) for p, a, _ in atoms)
        script.append(Invocation(f"{tag} cqa-c", ["cqa"] + inst + cons + ["--atoms", listed, "--semantics", "c", "--json"]))
    return Pool(script, plan, expect)


def verify_repairs(pool: Pool, results: dict) -> list[str]:
    bad = []
    for label, exp in pool.expect.items():
        res = results[label]
        if "repairs-null" in label:
            ok = {frozenset(r["diff"]) for r in res["repairs"]} == exp and len(res["repairs"]) == len(exp)
        elif "repairs-" in label:
            ok = {frozenset(r["removed"]) for r in res["repairs"]} == exp and len(res["repairs"]) == len(exp)
        elif "diagnose" in label:
            conflicts, diagnoses = exp
            ok = ({frozenset(c) for c in res["conflicts"]} == conflicts
                  and {frozenset(d) for d in res["diagnoses"]} == diagnoses
                  and len(res["diagnoses"]) == len(diagnoses))
        else:
            ok = res["consistent"] == exp
        if not ok:
            bad.append(label)
    return bad


# ---------------------------------------------------------------------------
# Oracle-sized inputs for the self-test: (engine argv, oracle argv, how to
# compare the two results), from the workloads' own generators


def small_explain(rng: random.Random, work: Path):
    q = work / "q.dlq"
    q.write_text(CHAIN_QUERY, encoding="utf-8")
    cases = []
    for i in range(4):
        n = rng.randint(5, 7)  # at most 14 facts
        path = work / f"s{i}.facts"
        write_instance(path, chain_facts(rng, n, n, "a"))
        args = _args("instance", path) + _args("query", q) + ["--json"]
        cases.append((["causes"] + args, ["oracle", "causes"] + args, "same"))
    return cases


def small_cqa(rng: random.Random, work: Path):
    dc = work / "dc.dlq"
    dc.write_text(CHAIN_DC + KEY_DC, encoding="utf-8")
    cases = []
    for i in range(3):
        keyed, _ = keyed_facts(rng, (2, 2), 4, with_ids=False)
        facts = sorted(chain_facts(rng, 3, 6, "c") | set(keyed))  # at most 12 facts
        path = work / f"s{i}.facts"
        write_instance(path, facts)
        args = _args("instance", path) + _args("constraints", dc)
        for sem in ("s", "c"):
            for _ in range(3):
                atoms = ";".join(text(f) for f in rng.sample(facts, 2))
                cases.append((["cqa"] + args + ["--atoms", atoms, "--semantics", sem, "--json"],
                              ["oracle", "repairs"] + args + ["--semantics", sem, "--json"], "cqa"))
    return cases


def small_repairs(rng: random.Random, work: Path):
    dc = work / "key.dlq"
    dc.write_text(KEY_DC, encoding="utf-8")
    cases = []
    for i, shape in enumerate(((2, 3), (2, 2, 2), (3, 3))):
        facts, _ = keyed_facts(rng, shape, 6, with_ids=True)  # at most 10 facts
        path = work / f"s{i}.facts"
        write_instance(path, facts)
        args = _args("instance", path) + _args("constraints", dc)
        for sem in ("s", "c"):
            cases.append((["repairs"] + args + ["--semantics", sem, "--json"],
                          ["oracle", "repairs"] + args + ["--semantics", sem, "--json"], "repairs"))
    return cases


def small_case_agrees(kind: str, engine: dict, oracle: dict) -> bool:
    if kind == "same":
        return engine == oracle
    if kind == "repairs":
        as_set = lambda res: {(tuple(r["kept"]), tuple(r["removed"])) for r in res["repairs"]}
        return as_set(engine) == as_set(oracle) and len(engine["repairs"]) == len(oracle["repairs"])
    certain = all(set(engine["atoms"]) <= set(r["kept"]) for r in oracle["repairs"])
    return engine["consistent"] == certain


# name -> (build the pool, check one pass of results, oracle-sized cases)
WORKLOADS = {
    "explain-small": (build_explain, verify_explain, small_explain),
    "cqa-large": (build_cqa, verify_cqa, small_cqa),
    "repair-enum": (build_repairs, verify_repairs, small_repairs),
}
