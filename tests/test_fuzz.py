"""Mutated golden inputs through the CLI.

Each example takes one golden invocation, mutates one of its input files
by inserted, deleted and copied characters (the result need not be UTF-8
text), and runs it through ``cli.execute``: no exception may escape, and
the exit code is one of the documented ones, with an error message
exactly when it is not 0.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from causerepair.cli import execute

from conftest import DATA
from make_goldens import golden_cases

CASES = list(golden_cases())
FILE_FLAGS = ("-i", "-q", "-c", "--priority")
# the characters the input grammars give a meaning, and some others
GRAMMAR = list("(),;.:-!=<>@_# \n\t\"\\'%") + ["a", "Z", "X", "0", "9", "null", "é", "中"]


@st.composite
def _mutations(draw):
    """A golden argv, the position in it of the input file to mutate, and
    the mutated bytes."""
    _, argv = draw(st.sampled_from(CASES))
    at = draw(st.sampled_from([i + 1 for i, a in enumerate(argv) if a in FILE_FLAGS]))
    text = (DATA / argv[at]).read_text()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "delete", "copy"]))
        if kind == "insert":
            inserted = draw(st.lists(st.sampled_from(GRAMMAR) | st.characters(), min_size=1, max_size=3))
            text = text[:i] + "".join(inserted) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 6)):]
        else:
            j = draw(st.integers(0, len(text)))
            text = text[:i] + text[j:j + draw(st.integers(1, 12))] + text[i:]
    return argv, at, text.encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=500)
@given(_mutations())
def test_mutated_golden_inputs_exit_with_a_documented_code(scratch, mutation):
    argv, at, payload = mutation
    mutated = scratch / argv[at]
    mutated.write_bytes(payload)
    files = {i + 1 for i, a in enumerate(argv) if a in FILE_FLAGS}
    argv = [str(mutated) if i == at else str(DATA / a) if i in files else a for i, a in enumerate(argv)]
    code, out, err = execute(argv)
    assert code in (0, 1, 2, 3)
    assert (code == 0) == (err == "") and (code == 0 or out == "")
