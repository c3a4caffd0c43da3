"""Regenerate the golden CLI reports under tests/data/golden/.

Run from anywhere: ``python tests/make_goldens.py``.  Each golden captures
the byte-exact stdout of one CLI invocation over the checked-in fixture
files.  Every command in ``GOLDEN_COMMANDS`` is recorded twice: as the
named JSON report, and without ``--json`` as its text twin ``<name>.txt``.
``tests/test_goldens.py`` replays both and compares bytes.
"""

import os
import sys
from pathlib import Path

from causerepair.cli import execute

DATA = Path(__file__).parent / "data"

GOLDEN_COMMANDS = {
    "causes_chain.json": ["causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--json"],
    "repairs_chain_s.json": [
        "repairs", "-i", "ex1.facts", "-c", "ex2.dlq", "--semantics", "s", "--json",
    ],
    "repairs_chain_c.json": [
        "repairs", "-i", "ex1.facts", "-c", "ex2.dlq", "--semantics", "c", "--json",
    ],
    "causes_union.json": ["causes", "-i", "ex4.facts", "-q", "ex4v.dlq", "--json"],
    "mrc_union.json": ["mrc", "-i", "ex4.facts", "-q", "ex4v.dlq", "--json"],
    "repairs_union_c.json": [
        "repairs", "-i", "ex4.facts", "-c", "ex4.dlq", "--semantics", "c", "--json",
    ],
    "responsibility_chain.json": [
        "responsibility", "-i", "ex1.facts", "-q", "ex1.dlq",
        "--tuple", "R(a4,a3)", "--json",
    ],
    "rdp_chain.json": [
        "rdp", "-i", "ex1.facts", "-q", "ex1.dlq",
        "--tuple", "R(a4,a3)", "--threshold", "1/3", "--json",
    ],
    "check_contingency_chain.json": [
        "check-contingency", "-i", "ex1.facts", "-q", "ex1.dlq",
        "--tuple", "R(a4,a3)", "--gamma", "R(a3,a3)", "--json",
    ],
    "diagnose_pair.json": ["diagnose", "-i", "ex1b.facts", "-q", "ex1.dlq", "--json"],
    "diagnose_triple.json": [
        "diagnose", "-i", "ex12.facts", "-q", "ex1.dlq", "--kind", "s", "--json",
    ],
    "theory_pair.json": [
        "diagnose", "-i", "ex1b.facts", "-q", "ex1.dlq", "--emit-theory", "--json",
    ],
    "cqa_ground.json": [
        "cqa", "-i", "cqa2.facts", "-c", "cqa2.dlq",
        "--atoms", "R(a,d)", "--semantics", "c", "--json",
    ],
    "cqa_projection.json": [
        "cqa", "-i", "ex4.facts", "-c", "ex4.dlq",
        "--atoms", "P(e)", "--semantics", "s", "--json",
    ],
    "repairs_go_total.json": [
        "repairs", "-i", "ex14.facts", "-c", "ex14.dlq",
        "--semantics", "go", "--priority", "ex14a.prio", "--json",
    ],
    "repairs_go_partial.json": [
        "repairs", "-i", "ex14.facts", "-c", "ex14.dlq",
        "--semantics", "go", "--priority", "ex14b.prio", "--json",
    ],
    "preferred_causes.json": [
        "preferred-causes", "-i", "ex14.facts", "-q", "ex15.dlq",
        "--priority", "ex15.prio", "--json",
    ],
    "repairs_endo.json": [
        "repairs", "-i", "ex13.facts", "-c", "ex2.dlq",
        "--semantics", "endo", "--json",
    ],
    "repairs_null.json": [
        "repairs", "-i", "ex16.facts", "-c", "ex2.dlq",
        "--semantics", "null", "--json",
    ],
    "oracle_causes_chain.json": [
        "oracle", "causes", "-i", "ex1.facts", "-q", "ex1.dlq", "--json",
    ],
    "oracle_repairs_chain.json": [
        "oracle", "repairs", "-i", "ex1.facts", "-c", "ex2.dlq",
        "--semantics", "s", "--json",
    ],
}


def golden_cases():
    """(file name, argv) of every golden: each JSON command, then its text twin."""
    for name, argv in GOLDEN_COMMANDS.items():
        yield name, argv
        yield name.removesuffix(".json") + ".txt", [a for a in argv if a != "--json"]


def main() -> int:
    golden_dir = DATA / "golden"
    golden_dir.mkdir(exist_ok=True)
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        for name, argv in golden_cases():
            code, out, err = execute(argv)
            if code != 0:
                sys.stderr.write(f"{name}: exit {code}: {err}")
                return 1
            (golden_dir / name).write_bytes(out.encode("utf-8"))
            print(f"wrote golden/{name}")
    finally:
        os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
