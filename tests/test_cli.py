"""End-to-end checks of the command-line interface: worked examples,
output determinism, exit codes, and environment overrides."""

import argparse
import decimal
import errno
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from propcf import candidates, cli
from propcf.candidates import InvariantViolation
from propcf.exactreal import Rational, to_text


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


@pytest.mark.parametrize("x", ("113/331", "(sqrt13-3)/2", "5/6", "golden"))
@pytest.mark.parametrize("spec", ("all:1", "all:6", "varnum", "engel",
                                  "rcf-of:sqrt2-1", "4,3,2,1,1,6,6"))
def test_expand_reduced_cells_are_lowest_terms(capsys, x, spec):
    # the reduced cell divides p and q by gcd(a_1...a_n, q, p); every spec
    # but all:1 has rows with gcd(p, q) > 1 on some of these x
    doc = run_json(capsys, "expand", x, "--numerators", spec, "--len", "40")
    for row in doc["convergents"]:
        assert row["reduced"] == to_text(Rational(int(row["p"]),
                                                  int(row["q"])))


def test_expand_determinant_failure_exit_code(capsys, monkeypatch):
    # the gcd behind the reduced cell starts from a_1...a_n, which bounds
    # it only once the determinant identity holds; a convergent scaled by
    # 7, a factor of no numerator, must stop the command at its index
    # before any row is printed
    real = cli.convergents

    class Scaled:
        def __init__(self, expansion):
            self.cv = real(expansion)

        def pair(self, n):
            p, q = self.cv.pair(n)
            return (7 * p, 7 * q) if n == 3 else (p, q)

    monkeypatch.setattr(cli, "convergents", Scaled)
    for fmt in ("json", "csv"):
        code = cli.main(["expand", "golden", "--numerators", "all:2",
                         "--len", "8", "--format", fmt])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVARIANT and captured.out == ""
        assert "determinant identity failed at index 3" in captured.err


def test_expand_decimal_check_failure_exit_code(capsys, monkeypatch):
    # the cells are printed from decimal copies of the convergents; a
    # decimal recurrence seeded one off must be caught by the check of the
    # last two pairs before any row is printed
    real = cli._recurrence

    def off_by_one(pairs, before, first):
        if isinstance(first, decimal.Decimal):
            first += 1
        return real(pairs, before, first)

    monkeypatch.setattr(cli, "_recurrence", off_by_one)
    for fmt in ("json", "csv"):
        code = cli.main(["expand", "golden", "--numerators", "all:2",
                         "--len", "8", "--format", fmt])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVARIANT and captured.out == ""
        assert "differ from the integer ones at index 7" in captured.err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no limit on int-to-text conversion")
def test_expand_prints_past_the_int_text_limit(capsys):
    # str() of an int past the limit raises ValueError, which main would
    # report as bad input (exit 2); the cells are decimal text, which the
    # limit does not cover, and the call leaves the limit and the thread's
    # decimal context as it found them
    argv = ("expand", "golden", "--numerators", "all:4", "--len", "1200")
    code, unlimited = run_main(capsys, *argv)
    assert code == 0
    context = decimal.getcontext()
    state = repr(context)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, limited = run_main(capsys, *argv)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and limited == unlimited
    assert decimal.getcontext() is context and repr(context) == state


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


def test_classify_reversed_range_exit_code(capsys):
    for mode, window in (("--p", "5..1"), ("--q", "9..2")):
        code = cli.main(["classify", "golden", mode, window])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE and captured.out == ""
        assert captured.err.startswith(f"error: bad range '{window}'")


@pytest.mark.parametrize("window", ["a..b", "1..x", "1.5", "", ".."])
def test_classify_range_that_is_not_integers_exit_code(capsys, window):
    for mode in ("--p", "--q"):
        code = cli.main(["classify", "golden", mode, window])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE and captured.out == ""
        assert captured.err == (
            f"error: bad range {window!r}: use N or LO..HI\n")


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


def test_classify_oracle_disagreement_exit_code(capsys, monkeypatch):
    # an oracle contradicting the divisor criterion on every row must stop
    # both sweeps, which share one cross-check
    def contrary(x, p):
        return None if candidates.realizable_as_q2(x, p) else object()
    monkeypatch.setattr(candidates, "realizable_as_q2_oracle", contrary)
    for mode, window in (("--p", "1..6"), ("--q", "2..8")):
        code = cli.main(["classify", "golden", mode, window, "--oracle"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVARIANT and captured.out == ""
        assert f"disagree at {mode[2:]}=" in captured.err


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


def test_growth_past_the_float_range_reads_inf(capsys):
    # x = 1/10^400 has the one digit 10^400 > e^709.78, so the estimate
    # exp(log q_1) is too large for a float: inf and unreliable, not an
    # invariant violation
    doc = run_json(capsys, "growth", "--x", f"1/{10**400}", "--n", "1")
    assert (doc["steps"], doc["estimate"], doc["oscillation"],
            doc["reliable"]) == ("1", "inf", "inf", "false")


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


@pytest.mark.parametrize("family", ("varnum", "engel", "greedy"))
def test_yofx_every_grid_point_is_live(capsys, family):
    # every x = i/(grid+1) gives y at least one digit, rational x included
    doc = run_json(capsys, "yofx", "--family", family, "--grid", "30",
                   "--depth", "1", "--n", "2")
    assert doc["live_rows"] == 30 == len(doc["rows"])
    assert all(row["skip"] == "" and int(row["digits_used"]) >= 1
               for row in doc["rows"])


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


# sha256 of stdout as the enumeration and expand commands printed it
# while their rows still held ints (the rows now hold strings, built once),
# as classify printed it while its --q sweep still lived in the cli, and as
# yofx printed it while a per-run config object still sat between argparse
# and the commands; the four simulate and growth pins were taken again when
# trend_slope moved from numpy's polyfit to math.fsum sums, after a diff of
# 160 simulate and growth outputs showed only trend_slope cells changed
# a rational y of 4,492 bits, whose classical digits outlast 2,000 steps
_BIG_RATIONAL_Y = f"{3**2833}/{7**1600}"

_PINNED_OUTPUT = (
    # 2,000-step orbits from seeds of about 4,450 bits: long walks of x,
    # and of y too in the second pin, recorded before x and y were walked
    # in blocks of leading bits
    pytest.param(("simulate", "--n", "2000", "--orbits", "2", "--seed", "11"),
                 "06feda720e69495d9df077c25dd5a15a7f0a84916026a3a96e55d56dc97b76e9",
                 id="simulate-long"),
    pytest.param(("simulate", "--n", "2000", "--orbits", "2", "--seed", "11",
                  "--y", _BIG_RATIONAL_Y),
                 "256107cd9540458a57cb2c38396330b294814624d5aca0bc09057c76e133e417",
                 id="simulate-long-rational-y"),
    pytest.param(("rational", "12/19"),
                 "18eb4b1af16c40c7924e7ea3befa41c4cf985dc4c7705b15eb483d998e098a44",
                 id="rational-json"),
    pytest.param(("rational", "12/19", "--format", "csv"),
                 "856971d8ff8522d34b64f4b2f848f393fdd1fdfc61fe9d19f0b5db8519489d11",
                 id="rational-csv"),
    pytest.param(("rational", "5/6", "--len", "3"),
                 "f4b0c1cced4508d80d212a876e1fc022c3c6da1a8c0c0628132df34cc3e58c69",
                 id="rational-len"),
    # --len deep in the tree: one subtree reached at several remaining
    # lengths, cut by --limit
    pytest.param(("rational", "16/19", "--len", "8", "--limit", "25"),
                 "60c152cdf8fb3cbc8e2d323e3e9ffa5f821e01a154a2463f389694bc0b2dae57",
                 id="rational-len-deep-json"),
    pytest.param(("rational", "16/19", "--len", "8", "--limit", "25",
                  "--format", "csv"),
                 "a1dc384d13d2dca907d72f9b58fd189732d5b943bf7b5ce173290604afd1f876",
                 id="rational-len-deep-csv"),
    pytest.param(("expand", "golden", "--numerators", "all:2", "--len", "200",
                  "--format", "json"),
                 "9b1661309ac475909bbd0a7750c85545a11ae63229ddd261acb784477ca68d8d",
                 id="expand-golden-json"),
    pytest.param(("expand", "sqrt2-1", "--numerators", "all:3", "--len",
                  "200", "--format", "csv"),
                 "f4bdc4bfa0d2bb68172424d4f13263ff4bddd553c1f9693d80145c05b072df12",
                 id="expand-sqrt2-csv"),
    pytest.param(("expand", "5/6", "--numerators", "4,3,2,1,1"),
                 "29913ae4d7d1c64e1d0c88dbdd5e37709ce72f11fbc14c35175786a339fe7d31",
                 id="expand-literal"),
    # rational x with rows whose gcd(p, q) > 1, ending on a zero tail
    pytest.param(("expand", "113/331", "--numerators", "all:6", "--format",
                  "csv"),
                 "746957c42058b241d78c6eb39825f533615c5b12e8b8e80a166436e4975980bd",
                 id="expand-rational-gcd-csv"),
    pytest.param(("expand", "113/331", "--numerators", "varnum"),
                 "1c616bb26207dd79e3dbd5256e692e9f9eb0e5fd48db1d479e9d689ce5986db4",
                 id="expand-rational-varnum"),
    # long surd rows recorded while every cell was str() of an int: p and q
    # of about 1,700 digits, and margins with r = 3 in the second
    pytest.param(("expand", "(sqrt13-3)/2", "--numerators", "all:4", "--len",
                  "600"),
                 "bad5fd001afa65c07162e3e7dd5994d5b78a486bff82e3b2a1406f77acfa8d05",
                 id="expand-sqrt13-long-json"),
    pytest.param(("expand", "(sqrt7-2)/3", "--numerators", "all:5", "--len",
                  "300", "--format", "csv"),
                 "5478f21df53739df3dc634df74fe9a1de63da1227b302476ad6684bc61241110",
                 id="expand-sqrt7-r3-csv"),
    pytest.param(("classify", "golden", "--p", "1..60", "--oracle"),
                 "655e8110cc589408acafdbc9aec29b83b885ff6facb382d3906b385f961056f7",
                 id="classify-p-oracle"),
    pytest.param(("classify", "(sqrt13-3)/2", "--p", "40..90", "--format",
                  "csv"),
                 "85a7c49c6bb85c4e7431fbd3a8cbf07be88f68f214745de123ea501e90e220e8",
                 id="classify-p-csv"),
    pytest.param(("classify", "sqrt2-1", "--q", "1..120", "--oracle"),
                 "256b297320defdf1e491c7a96226f042dfc01f74eaf0aff8177c7e2d1eafe7b1",
                 id="classify-q-oracle"),
    # rational x: rows with an empty p_even and not_even_candidate rows;
    # q = 7, 14, ..., 35 have no even candidate, since (qx, q) hits x
    pytest.param(("classify", "2/7", "--q", "1..40", "--format", "csv"),
                 "3b6567a77286f973610c6fc5e5d57427faed35a73f2920d4ce5e4441af8c9d46",
                 id="classify-q-rational-csv"),
    # rational x by p: p = 3, 6, ..., 30 have p/x whole, so neither pair of
    # theirs is a candidate; the odd row is unrealizable with no witness
    pytest.param(("classify", "3/7", "--p", "1..30", "--format", "csv"),
                 "f0c757c818538cefcb1df51c103df3de27a81bd277facfb1b8485f6d2fe30013",
                 id="classify-p-rational-csv"),
    pytest.param(("classify", "(sqrt7-2)/3", "--q", "300..330", "--oracle"),
                 "935bd8ad0af5a2cc04145d73d0dbea7a20ee9f9030af3a1f11834a6d250da098",
                 id="classify-q-oracle-sqrt7"),
    pytest.param(("yofx", "--family", "varnum", "--grid", "8", "--depth", "5",
                  "--format", "csv"),
                 "d41e5c18ea40b7e570d19ff85111daa9af3a0dc9b1d1f233bf9fe783025bb3d6",
                 id="yofx-varnum-csv"),
    pytest.param(("yofx", "--family", "greedy", "--grid", "5", "--depth", "4",
                  "--n", "3"),
                 "c3a550e7cf2ee0877f3a1444f78ff01b3afde432d22ace66925e2de20fd56450",
                 id="yofx-greedy"),
    pytest.param(("yofx", "--family", "engel", "--grid", "8", "--depth", "5"),
                 "714f87b9a004f58b1df7106ec8ad580dc75c1a2d797a1d3a4d56bca4259f89bb",
                 id="yofx-engel"),
    # two tables in one document (digests and frequencies)
    pytest.param(("simulate", "--n", "60", "--orbits", "3", "--seed", "5"),
                 "c12cb4d91b2fc047d41ce2eb66ca84c24b6ce4e82bc9a212128531e62d1620ee",
                 id="simulate-json"),
    # no table at all
    pytest.param(("growth", "--n", "100", "--seed", "2"),
                 "f7ed6dcc5ae0660abd9f4a4006ff474b5909720d36a1b7f859c5ca7fb1285dd3",
                 id="growth-json"),
    # an empty table: "rows": []
    pytest.param(("rational", "5/6", "--len", "40"),
                 "664bde1beef9deaeeb74a9fb435116eebdefcdabd769feb9e494b78caf73825d",
                 id="rational-empty-json"),
    # two "# name" sections on stdout
    pytest.param(("simulate", "--n", "60", "--orbits", "3", "--seed", "5",
                  "--format", "csv"),
                 "489b2de368a208da7221af37e7a30d16e6ff5fc7e2c491033fbba764d0f89fe0",
                 id="simulate-csv"),
    # the header line alone
    pytest.param(("rational", "5/6", "--len", "40", "--format", "csv"),
                 "38c576900a91d779369735c84273b1754852df70d95834fb7bd31ad539dcde9f",
                 id="rational-empty-csv"),
    # one row
    pytest.param(("growth", "--n", "100", "--seed", "2", "--format", "csv"),
                 "a7e6f00790c3d1e61f3eb71f4bc2d9370dfbcb3db0cdcb979182839c8e54abaa",
                 id="growth-csv"),
)


@pytest.mark.parametrize("argv, digest", _PINNED_OUTPUT)
def test_output_bytes_pinned(capsys, argv, digest):
    code, out = run_main(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _WriterReached(Exception):
    pass


def _refuse_writer(*args, **kwargs):
    raise _WriterReached


@pytest.mark.parametrize("name", ("rational-csv", "expand-sqrt2-csv",
                                  "simulate-csv"))
def test_plain_csv_tables_take_the_join(capsys, monkeypatch, name):
    # no cell of these tables needs quoting, so csv.writer is never called
    # and the join alone prints the pinned bytes
    (argv, digest), = [param.values for param in _PINNED_OUTPUT
                       if param.id == name]
    monkeypatch.setattr(cli.csv, "writer", _refuse_writer)
    code, out = run_main(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_csv_cells_that_need_quoting_reach_the_writer(monkeypatch):
    monkeypatch.setattr(cli.csv, "writer", _refuse_writer)
    for header, rows in ((["a", "b"], [{"a": "1,2", "b": "3"}]),
                         (["a", "b"], [{"a": "say \"hi\"", "b": ""}]),
                         (["a", "b"], [{"a": "two\nlines", "b": ""}]),
                         (["a"], [{"a": ""}])):
        with pytest.raises(_WriterReached):
            cli._csv_text(header, rows)


def test_parse_failures_exit_code(capsys):
    code, _ = run_main(capsys, "expand", "abc", "--numerators", "all:1")
    assert code == cli.EXIT_PARSE
    code, _ = run_main(capsys, "expand", "7/6", "--numerators", "all:1")
    assert code == cli.EXIT_PARSE
    # text that scans but has no exact value is bad input too
    for spec in ("1/0", "sqrt2+sqrt3-3"):
        code, _ = run_main(capsys, "expand", spec, "--numerators", "all:1")
        assert code == cli.EXIT_PARSE


def test_negative_radicand_error_names_its_position(capsys):
    for spec in ("sqrt(-4)", "sqrt(0-4)"):
        code = cli.main(["expand", spec, "--numerators", "all:1"])
        assert code == cli.EXIT_PARSE
        assert capsys.readouterr().err == (
            "error: negative radicand (at position 4)\n")


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


def test_unknown_format_in_the_environment_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PROPCF_FORMAT", "xml")
    code = cli.main(["growth", "--n", "10", "--x", "1/3"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE and captured.out == ""
    assert captured.err == "error: format must be json or csv\n"


def test_one_parser_serves_calls_in_different_environments(capsys,
                                                           monkeypatch):
    # the parser is built once per process and the environment is read
    # after parsing, so each call prints what a fresh process prints with
    # that call's own PROPCF_FORMAT and PROPCF_SEED
    argv = ("simulate", "--n", "20")
    outputs = []
    for fmt, seed in (("csv", "3"), ("json", "5")):
        monkeypatch.setenv("PROPCF_FORMAT", fmt)
        monkeypatch.setenv("PROPCF_SEED", seed)
        code, out = run_main(capsys, *argv)
        fresh = run_proc(*argv, env_extra={"PROPCF_FORMAT": fmt,
                                           "PROPCF_SEED": seed})
        assert code == fresh.returncode == 0
        assert out == fresh.stdout
        outputs.append(out)
    assert outputs[0].startswith("# digests\norbit,seed,")
    assert "\n0,3,20," in outputs[0]
    assert json.loads(outputs[1])["digests"][0]["seed"] == "5"
    assert cli._build_parser() is cli._build_parser()


def _parser_exit(capsys, parse, argv):
    with pytest.raises(SystemExit) as stop:
        parse(list(argv))
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", (
    ("--help",), ("classify", "--help"), (), ("classify", "golden", "--p"),
    ("simulate", "--n", "x"), ("yofx", "--family", "gauss")))
def test_cached_parser_prints_what_a_fresh_one_prints(capsys, argv):
    expected = _parser_exit(capsys, cli._build_parser.__wrapped__().parse_args,
                            argv)
    assert expected[0] in (0, 2)
    for _ in range(2):
        assert _parser_exit(capsys, cli.main, argv) == expected


def test_config_validation(capsys):
    for argv, flag, least in (
            (("growth", "--n", "0", "--x", "1/3"), "--n", 1),
            (("simulate", "--n", "0"), "--n", 1),
            (("yofx", "--family", "engel", "--grid", "1", "--depth", "3"),
             "--grid", 2),
            (("yofx", "--family", "engel", "--grid", "5", "--depth", "0"),
             "--depth", 1)):
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        assert code == cli.EXIT_PARSE and captured.out == ""
        assert captured.err == f"error: {flag} must be at least {least}\n"
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
    for argv in (("growth", "--n", "10", "--x", "1/3",
                  "--precision-bits", "64"),
                 ("classify", "golden", "--q", "2..6", "--oracle",
                  "--bound", "5")):
        proc = run_proc(*argv)
        assert proc.returncode == cli.EXIT_PARSE and proc.stdout == ""
        assert "unrecognized arguments" in proc.stderr


def test_every_int_flag_is_range_checked():
    # _config_from range-checks exactly the rows of _COUNT_FLAGS, so each
    # int-typed subcommand option but --seed (checked apart) needs a row,
    # and each row an option
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    int_flags = {(flag, action.dest)
                 for command in commands.values()
                 for action in command._actions if action.type is int
                 for flag in action.option_strings if flag != "--seed"}
    assert int_flags == {(flag, dest) for flag, dest, _ in cli._COUNT_FLAGS}


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


def test_out_json_matches_stdout(tmp_path, capsys):
    argv = ("simulate", "--n", "40", "--orbits", "2", "--seed", "3")
    code, printed = run_main(capsys, *argv)
    assert code == 0
    target = tmp_path / "doc.json"
    code, out = run_main(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode()


def test_unwritable_out_is_bad_input(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "x.json"
    enoent, eisdir = os.strerror(errno.ENOENT), os.strerror(errno.EISDIR)

    def check(argv, path, reason):
        assert cli.main(list(argv)) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {str(path)!r}: {reason}\n"

    check(("expand", "golden", "--numerators", "1", "--out", str(missing)),
          missing, enoent)
    # several CSV tables: the first file fails
    check(("simulate", "--n", "5", "--format", "csv", "--out", str(missing)),
          missing, enoent)
    check(("rational", "5/6", "--out", str(tmp_path)), tmp_path, eisdir)
    check(("rational", "5/6", "--format", "csv", "--out", str(tmp_path)),
          tmp_path, eisdir)
    monkeypatch.setenv("PROPCF_OUT", str(missing))
    check(("expand", "golden", "--numerators", "1"), missing, enoent)
    assert not missing.parent.exists()
