import json

import pytest

from causerepair.cli import execute

from conftest import DATA


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
    code, _, err = execute(
        ["rdp", "-i", "ex1.facts", "-q", "ex1.dlq", "--tuple", "S(a3)", "--threshold", "2/3"]
    )
    assert code == 2 and "threshold" in err


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
