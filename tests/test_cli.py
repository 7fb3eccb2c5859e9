"""End-to-end checks of the command-line interface: worked examples,
output determinism, exit codes, and environment overrides."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from propcf import cli
from propcf.candidates import InvariantViolation


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("PROPCF_SEED", "PROPCF_FORMAT", "PROPCF_OUT"):
        monkeypatch.delenv(name, raising=False)


def run_main(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_main(capsys, *args)
    assert code == 0
    return json.loads(out)


def run_proc(*args, env_extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PROPCF_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "propcf", *args],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# expand


def test_expand_worked_example(capsys):
    doc = run_json(capsys, "expand", "5/6", "--numerators", "4,3,2,1,1")
    assert doc["schema"] == 1
    assert [(p["a"], p["b"]) for p in doc["pairs"]] == [
        ("4", "4"), ("3", "3"), ("2", "2"), ("1", "1"), ("1", "2")]
    last = doc["convergents"][-1]
    assert (last["p"], last["q"]) == ("120", "144")
    assert last["reduced"] == "5/6"
    assert doc["complete"] is True
    assert all(row["det_residual"] == "0" for row in doc["convergents"])


def test_expand_fibonacci_convergents(capsys):
    doc = run_json(capsys, "expand", "(sqrt5-1)/2",
                   "--numerators", "all:1", "--len", "8")
    assert [row["q"] for row in doc["convergents"]] == [
        "1", "2", "3", "5", "8", "13", "21", "34"]
    assert doc["complete"] is False


def test_expand_terminates_immediately(capsys):
    doc = run_json(capsys, "expand", "1/2", "--numerators", "all:1")
    assert doc["length"] == 1
    assert doc["complete"] is True
    assert doc["pairs"] == [{"a": "1", "b": "2"}]


def test_expand_rcf_of_numerators(capsys):
    doc = run_json(capsys, "expand", "113/355",
                   "--numerators", "rcf-of:golden")
    assert [p["a"] for p in doc["pairs"]] == ["1", "1", "1"]
    assert [p["b"] for p in doc["pairs"]] == ["3", "7", "16"]
    assert doc["complete"] is True


def test_expand_family_numerators(capsys):
    doc = run_json(capsys, "expand", "(sqrt5-1)/2",
                   "--numerators", "varnum", "--len", "5")
    assert [(p["a"], p["b"]) for p in doc["pairs"]] == [("1", "1")] * 5


def test_expand_rejects_bad_numerator_specs(capsys):
    code, _ = run_main(capsys, "expand", "1/2", "--numerators", "0,3")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "expand", "1/2", "--numerators", "all:x")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "expand", "1/2", "--numerators", "nonsense")
    assert code == cli.EXIT_PARSE


# ---------------------------------------------------------------------------
# classify


def test_classify_by_p_worked_example(capsys):
    doc = run_json(capsys, "classify", "(sqrt5-1)/2", "--p", "1..5")
    even = {row["p"]: row for row in doc["rows"] if row["parity"] == "even"}
    assert even["3"]["q"] == "5"
    assert even["3"]["realizable"] == "true"
    assert even["3"]["witness"] == "1/1 2/3"
    assert even["2"]["realizable"] == "false"
    odd = [row for row in doc["rows"] if row["parity"] == "odd"]
    assert all(row["realizable"] == "true" for row in odd)


def test_classify_empty_range_succeeds(capsys):
    doc = run_json(capsys, "classify", "golden", "--p", "5..3")
    assert doc["rows"] == []


def test_classify_by_q(capsys):
    doc = run_json(capsys, "classify", "golden", "--q", "2..6")
    by_q = {row["q"]: row for row in doc["rows"]}
    assert by_q["2"]["p_even"] == "1"
    assert by_q["2"]["even_realizable"] == "true"
    assert by_q["3"]["p_even"] == ""
    assert by_q["3"]["cutoff"] == "not_even_candidate"
    assert by_q["4"]["even_realizable"] == "false"
    assert by_q["5"]["witness"] == "1/1 2/3"


def test_classify_needs_exactly_one_range(capsys):
    code, _ = run_main(capsys, "classify", "golden",
                       "--p", "1..3", "--q", "2")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "classify", "golden")
    assert code == cli.EXIT_PARSE


def test_classify_oracle_flag(capsys):
    doc = run_json(capsys, "classify", "golden", "--p", "1..6", "--oracle")
    assert doc["oracle_checked"] is True


# ---------------------------------------------------------------------------
# rational


def test_rational_enumeration_summary(capsys):
    doc = run_json(capsys, "rational", "5/6")
    assert doc["count"] == 15
    assert doc["max_length"] == 5
    assert doc["lengths"] == [1, 2, 3, 4, 5]
    assert doc["rows"][0]["pairs"] == "1/1 1/5"


def test_rational_length_filter_and_limit(capsys):
    doc = run_json(capsys, "rational", "5/6", "--len", "5")
    assert doc["lengths"] == [5]
    assert all(row["length"] == "5" for row in doc["rows"])
    doc = run_json(capsys, "rational", "5/6", "--limit", "3")
    assert doc["count"] == 15
    assert len(doc["rows"]) == 3


def test_rational_rejects_surds(capsys):
    code, _ = run_main(capsys, "rational", "golden")
    assert code == cli.EXIT_PARSE


# ---------------------------------------------------------------------------
# orbit commands


def test_growth_with_explicit_x(capsys):
    doc = run_json(capsys, "growth", "--y", "golden", "--x", "(sqrt2-1)",
                   "--n", "80")
    assert doc["truncated"] == "false"
    assert doc["steps"] == "80"
    assert 1.0 < float(doc["estimate"]) < 10.0


def test_simulate_digests_and_frequencies(capsys):
    doc = run_json(capsys, "simulate", "--seed", "7", "--n", "50",
                   "--orbits", "2")
    assert len(doc["digests"]) == 2
    assert doc["partial"] is False
    total = sum(int(row["steps"]) for row in doc["digests"])
    counted = sum(int(row["count"]) for row in doc["frequencies"])
    assert counted == total
    assert sum(Fraction(row["frequency"]) for row in doc["frequencies"]) == 1
    # golden y keeps every numerator at 1
    assert all(row["a"] == "1" for row in doc["frequencies"])


def test_yofx_engel_first_digit_claim(capsys):
    doc = run_json(capsys, "yofx", "--family", "engel", "--grid", "40",
                   "--depth", "10")
    assert doc["live_rows"] == 40
    assert Fraction(doc["min_y"]) > Fraction(1, 2)


def test_yofx_greedy_needs_numerator(capsys):
    code, _ = run_main(capsys, "yofx", "--family", "greedy",
                       "--grid", "5", "--depth", "4")
    assert code == cli.EXIT_PARSE
    doc = run_json(capsys, "yofx", "--family", "greedy", "--grid", "5",
                   "--depth", "4", "--n", "3")
    assert all(row["y_num"] == "33" and row["y_den"] == "109"
               for row in doc["rows"])


def test_yofx_n_is_not_an_orbit_length(capsys):
    # --n is the greedy numerator: range-checked for every family, also
    # those that ignore it, and never read as an orbit length
    for family in ("greedy", "varnum", "engel"):
        for n in ("0", "-5"):
            code = cli.main(["yofx", "--family", family, "--grid", "2",
                             "--depth", "2", "--n", n])
            captured = capsys.readouterr()
            assert code == cli.EXIT_PARSE and captured.out == ""
            assert "--n must be at least 1" in captured.err
    code = cli.main(["yofx", "--family", "greedy", "--grid", "5",
                     "--depth", "4"])
    assert code == cli.EXIT_PARSE
    assert "greedy family needs the numerator n >= 1" in capsys.readouterr().err
    doc = run_json(capsys, "yofx", "--family", "varnum", "--grid", "5",
                   "--depth", "4", "--n", "1")
    assert doc["n"] == 1 and doc["live_rows"] == 5


# ---------------------------------------------------------------------------
# determinism, exit codes, environment


def test_byte_identical_reruns():
    args = ("simulate", "--seed", "7", "--n", "60", "--orbits", "2")
    first = run_proc(*args)
    second = run_proc(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    csv_args = ("yofx", "--family", "varnum", "--grid", "25",
                "--depth", "8", "--format", "csv")
    assert run_proc(*csv_args).stdout == run_proc(*csv_args).stdout


def test_parse_failures_exit_code(capsys):
    code, _ = run_main(capsys, "expand", "abc", "--numerators", "all:1")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "expand", "7/6", "--numerators", "all:1")
    assert code == cli.EXIT_PARSE
    # text that scans but has no exact value is bad input too
    for spec in ("1/0", "sqrt2+sqrt3-3"):
        code, _ = run_main(capsys, "expand", spec, "--numerators", "all:1")
        assert code == cli.EXIT_PARSE


def test_unknown_subcommand_exit_code():
    proc = run_proc("bogus")
    assert proc.returncode == cli.EXIT_PARSE


def test_invariant_violation_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise InvariantViolation("deliberate failure")
    monkeypatch.setattr(cli, "sweep_rows", explode)
    code, _ = run_main(capsys, "classify", "golden", "--p", "1..3")
    assert code == cli.EXIT_INVARIANT


def test_env_overrides_with_flag_precedence():
    env_csv = run_proc("expand", "1/2", "--numerators", "all:1",
                       env_extra={"PROPCF_FORMAT": "csv"})
    assert env_csv.stdout.startswith("n,a,b,p,q,reduced")
    flag_wins = run_proc("expand", "1/2", "--numerators", "all:1",
                         "--format", "json",
                         env_extra={"PROPCF_FORMAT": "csv"})
    assert flag_wins.stdout.lstrip().startswith("{")
    bad_env = run_proc("growth", "--n", "10", "--x", "1/3",
                       env_extra={"PROPCF_SEED": "bogus"})
    assert bad_env.returncode == cli.EXIT_PARSE


def test_config_validation(capsys):
    code, _ = run_main(capsys, "growth", "--n", "0", "--x", "1/3")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "growth", "--n", "10", "--x", "1/3",
                       "--seed", "-1")
    assert code == cli.EXIT_PARSE
    for argv in (("simulate", "--orbits", "-2"),
                 ("simulate", "--orbits", "0"),
                 ("expand", "1/3", "--numerators", "all:1", "--len", "-1"),
                 ("expand", "1/3", "--numerators", "all:1", "--len", "0"),
                 ("rational", "5/7", "--len", "0"),
                 ("rational", "5/7", "--limit", "-1")):
        code, out = run_main(capsys, *argv)
        assert code == cli.EXIT_PARSE and out == ""
    doc = run_json(capsys, "rational", "5/7", "--limit", "0")
    assert doc["count"] == 15 and doc["rows"] == []


def test_unknown_flag_exit_code():
    proc = run_proc("growth", "--n", "10", "--x", "1/3",
                    "--precision-bits", "64")
    assert proc.returncode == cli.EXIT_PARSE
    assert "unrecognized arguments" in proc.stderr


def test_out_files(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code, out = run_main(capsys, "simulate", "--seed", "7", "--n", "30",
                         "--orbits", "1", "--format", "csv",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    side = tmp_path / "run-frequencies.csv"
    assert target.exists() and side.exists()
    assert target.read_text().startswith("orbit,seed,n,steps")
    assert side.read_text().startswith("a,b,count,frequency")
    doc_path = tmp_path / "doc.json"
    code, _ = run_main(capsys, "expand", "1/2", "--numerators", "all:1",
                       "--out", str(doc_path))
    assert code == 0
    assert json.loads(doc_path.read_text())["schema"] == 1
