"""Steadiness of the end-to-end metrics, and two sets of runs compared.

    python3 perfbench/steady.py run [--first-seed 1] [--out FILE]
    python3 perfbench/steady.py compare BASE.json NEW.json

``run`` runs each workload ten times on the same code, one seed per
run, with the ``run_seconds`` of BENCHMARK.json, and prints the
median, quartiles and spread (quartile distance over median) of every
end-to-end metric next to its bound.  A spread above a third of the
bound is marked ``wide``, above the bound ``TOO WIDE``.  The runs are
saved as one JSON set.

``compare`` reads two saved sets and reports, per workload and metric,
how much worse the second median is than the first, against the bound;
it exits 1 if any metric is worse by more than its bound, or if the two
sets read ``op_tail_s`` at different percentiles.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), report=json.loads(report)["report"])


def summarize(spec: dict, workload: str, results: list[dict]) -> list[str]:
    lines = [f"{workload}: {len(results)} runs, "
             f"{sum(not r['correct'] for r in results)} with failures",
             f"  {'metric':<12} {'unit':<6} {'median':>12} {'q1':>12} "
             f"{'q3':>12} {'spread':>7} {'bound':>6}"]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = stats.quartiles(values)
        width = stats.spread(values)
        verdict = ("TOO WIDE" if width > metric["bound"] else
                   "wide" if width > metric["bound"] / 3 else "steady")
        lines.append(f"  {name:<12} {metric['unit']:<6} {median:>12.6g} "
                     f"{q1:>12.6g} {q3:>12.6g} {width:>7.4f} "
                     f"{metric['bound']:>6} {verdict}")
    return lines


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    saved = {}
    for workload in workloads.WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            results.append(run_once(workload, seed, seconds))
            print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
        saved[workload] = results
        print("\n".join(summarize(spec, workload, results)), flush=True)
    out = Path(args.out) if args.out else (
        HERE / "out" / f"steady-{args.first_seed}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved))
    print(f"saved {out}")
    return 0


def cmd_compare(args) -> int:
    spec = load_spec()
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    worse_than_bound = False
    for workload in [w for w in base if w in new]:
        print(f"{workload}:")
        percentiles = {r["report"]["op_tail_percentile"]
                       for r in base[workload] + new[workload]}
        if len(percentiles) > 1:
            worse_than_bound = True
            print(f"  op_tail_s read at different percentiles: "
                  f"{sorted(percentiles)} MISMATCH")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = stats.quartiles(
                [r["metrics"][name]["value"] for r in base[workload]])[1]
            after = stats.quartiles(
                [r["metrics"][name]["value"] for r in new[workload]])[1]
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            failed = worse > metric["bound"]
            worse_than_bound |= failed
            print(f"  {name:<12} {before:>12.6g} -> {after:>12.6g} "
                  f"worse by {worse:+.4f} (bound {metric['bound']}) "
                  f"{'WORSE' if failed else 'ok'}")
    return 1 if worse_than_bound else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run workloads repeatedly and summarize")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="where to save the set of runs")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare two saved sets of runs")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
