"""Tests of the benchmark's own code: the tail rule, the seeded operation
lists, the output checks (each must flag a corrupted output) and the
tracer (it must restore the program and leave its output unchanged).

    python3 -m pytest perfbench/tests -q
"""
import json
import random
import subprocess
import sys

import pytest

import checks
import run
import stats
import workloads
from tracing import GROUPS, LAYER_METRICS, LAYERS, Tracer

import propcf.cli as cli
import propcf.exactreal as exactreal
import propcf.gauss2d as gauss2d


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize("percentile, count", [
    (50, 20), (75, 40), (90, 100), (95, 200), (99, 1000)])
def test_min_samples_leaves_ten_beyond(percentile, count):
    assert stats.min_samples(percentile) == count


def test_tail_value_on_known_samples():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert stats.tail_value(samples, 90) == 90
    assert stats.tail_value(samples, 75) == 75
    assert stats.tail_value([float(v) for v in range(25)], 50) == 12.0


def test_tail_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        stats.tail_value(list(range(99)), 90)


def test_every_workload_has_a_tail_percentile():
    assert set(workloads.TAIL_PERCENTILE) == set(workloads.WORKLOADS)


# ---------------------------------------------------------------------------
# operation lists


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    first = workloads.operations(workload, 7)
    assert first == workloads.operations(workload, 7)
    assert first != workloads.operations(workload, 8)


# ---------------------------------------------------------------------------
# output checks


def _output(op):
    code, out, err = run.call(cli.main, op.argv)
    assert code == 0, err
    return out


def _op(kind, params, *argv, fmt="json"):
    return workloads.Operation(tuple(argv) + ("--format", fmt), kind, params,
                               fmt)


_GOLDEN = workloads.FIELDS["golden"]
_SQRT7 = workloads.FIELDS["(sqrt7-2)/3"]
_FIBONACCI_Y = (832040, 1346269)   # 29 classical digits, then y = 0


def _bump_count(text):
    doc = json.loads(text)
    doc["frequencies"][0]["count"] = str(int(doc["frequencies"][0]["count"]) + 1)
    return json.dumps(doc)


def _alter_witness_digit(text):
    doc = json.loads(text)
    row = next(r for r in doc["rows"] if r["witness"].count("/") == 2)
    a, b = row["witness"].split()[1].split("/")
    row["witness"] = f"{row['witness'].split()[0]} {a}/{int(b) + 1}"
    return json.dumps(doc)


def _flip_realizable(text):
    doc = json.loads(text)
    row = next(r for r in doc["rows"] if r["even_realizable"] == "true")
    row["even_realizable"] = "false"
    return json.dumps(doc)


def _drop_expansion_json(text):
    doc = json.loads(text)
    doc["rows"].pop()
    doc["count"] -= 1
    return json.dumps(doc)


def _drop_expansion_csv(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _alter_margin(text):
    lines = text.splitlines(keepends=True)
    lines[3] = lines[3].replace("sqrt(7)", "2*sqrt(7)", 1)
    return "".join(lines)


CASES = {
    "orbit-golden": (_op("simulate", {"n": 60, "seed": 5, "y": None},
                         "simulate", "--n", "60", "--seed", "5"), _bump_count),
    "orbit-rational-y": (_op("simulate", {"n": 40, "seed": 9,
                                          "y": _FIBONACCI_Y},
                             "simulate", "--n", "40", "--seed", "9",
                             "--y", "832040/1346269"), _bump_count),
    "classify-p": (_op("classify_p", {"x": _GOLDEN, "lo": 40, "hi": 49},
                       "classify", "golden", "--p", "40..49"),
                   _alter_witness_digit),
    "classify-q": (_op("classify_q", {"x": _SQRT7, "lo": 30, "hi": 60},
                       "classify", "(sqrt7-2)/3", "--q", "30..60", "--oracle"),
                   _flip_realizable),
    "rational-json": (_op("rational", {"t": 7, "s": 9}, "rational", "7/9"),
                      _drop_expansion_json),
    "rational-csv": (_op("rational", {"t": 7, "s": 9}, "rational", "7/9",
                         fmt="csv"), _drop_expansion_csv),
    "expand-csv": (_op("expand", {"x": _SQRT7, "numerator": 3, "length": 9},
                       "expand", "(sqrt7-2)/3", "--numerators", "all:3",
                       "--len", "9", fmt="csv"), _alter_margin),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_output_and_flags_corruption(case):
    op, corrupt = CASES[case]
    text = _output(op)
    checks.check(op, text)
    bad = corrupt(text)
    assert bad != text
    with pytest.raises(checks.CheckFailed):
        checks.check(op, bad)


def test_expansion_count_matches_known_law():
    assert [checks.expansion_count(t, 19) for t in (12, 18)] == [661, 21702]


# ---------------------------------------------------------------------------
# tracer


def test_tracer_restores_program_and_keeps_output():
    op = CASES["classify-p"][0]
    plain = _output(op)
    originals = (cli.orbit, gauss2d.floor_exact, exactreal.Rational.__init__,
                 exactreal.Surd.__dict__["__new__"], exactreal.ExactReal.__add__)
    with Tracer() as tracer:
        traced = _output(op)
    assert traced == plain
    assert originals == (cli.orbit, gauss2d.floor_exact,
                         exactreal.Rational.__init__,
                         exactreal.Surd.__dict__["__new__"],
                         exactreal.ExactReal.__add__)
    metrics = tracer.metrics(passes=1, overhead=1.0)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["candidates.rows_computed"] == 2 * 49
    assert metrics["candidates.rows_emitted"] == 2 * 10
    assert metrics["candidates.useful_ratio"] == pytest.approx(20 / 98)
    assert metrics["candidates.sweep_s"] > 0 and metrics["exactreal.self_s"] > 0
    assert metrics["gauss2d.orbit_s"] == 0
    assert tracer.names[tracer.spans[0][0]] == "cli.main"


def test_probe_enters_every_timed_group():
    with Tracer() as tracer:
        for op in workloads.probe_operations():
            checks.check(op, _output(op))
    assert [g for g in GROUPS if not tracer.group_ns[g]] == []
    assert all(tracer.self_ns[layer] > 0 for layer in LAYERS)


def test_benchmark_file_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_result_last():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "orbit",
         "--seed", "3", "--seconds", "0.1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.splitlines()
    result = json.loads(result)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    report = json.loads(report)["report"]
    assert report["op_tail_percentile"] == 75
    assert report["op_count"] >= stats.min_samples(75)
    assert not list(run.OUT.glob("outputs-orbit-3-*"))
