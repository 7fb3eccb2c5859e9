"""propcf benchmark: one run of one workload.

    python3 perfbench/run.py --workload orbit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process and one thread call ``propcf.cli.main(argv)`` in a closed
loop, each call issued after the previous one returns, cycling the
workload's seeded pool of operations in whole passes until the passes
have taken ``--seconds`` and the workload's tail percentile has ten calls
beyond it.  Call and set-up times are scaled to the machine's nominal
speed (see ``reference`` and ``SetupTimer``).  Outputs are checked after
the loop, outside the timed region, and every repeat of an operation
must print the same bytes.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs one untraced pass and then traced passes, reports
the per-layer metrics and writes the spans under ``perfbench/out/``.
The last line of stdout is the result; the line before it is a report
with provenance, the tail percentile and a digest of the outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import stats
import workloads
from tracing import GROUPS, LAYER_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PER_GAP = 2      # set-up samples between two passes
SETUP_REPEATS = 12     # at least this many in a run
START_TIMEOUT_S = 120
CHUNK = 1 << 20        # characters hashed or written at a time
WORK_UNITS = {"orbit": "orbit steps", "classify": "candidate rows",
              "enumerate": "expansions enumerated"}

# The reference computation of each workload, as (big-int gcds, rounds
# of small Fraction and dict work, nominal seconds).  The nominal time is
# near its median on the machine the bounds were set on (2-core x86_64
# sandbox, Python 3.11).  classify and enumerate do no big-int arithmetic,
# and over seven minutes of drift their calls kept a steadier ratio to a
# reference without gcds (quartile spread of one-minute medians 0.05-0.08
# on classify, against 0.11-0.15 with them); orbit calls kept the
# steadiest ratio, 0.03, with them.
REFERENCES = {"orbit": (200, 1, 0.014), "classify": (0, 3, 0.0145),
              "enumerate": (0, 3, 0.0145)}
_REF_RNG = random.Random(0)
_REF_A, _REF_B = (_REF_RNG.getrandbits(3000) | 1 for _ in range(2))

_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import propcf.cli; propcf.cli._build_parser()")
# Nominal time of a fresh interpreter running _BASELINE_CODE, on the same
# machine as REFERENCES.  Scaling set-up time by it cut the spread of
# 8-start medians over five minutes from 0.19 to 0.03.
SETUP_REFERENCE_S = 0.09
_BASELINE_CODE = ("import argparse, csv, dataclasses, decimal, fractions, "
                  "json, random")


def reference(gcds: int, rounds: int) -> float:
    """Seconds that ``gcds`` big-int gcds and ``rounds`` rounds of small
    Fraction arithmetic and dict updates take now.

    A shared machine's speed drifts by tens of percent within minutes,
    and every time a run measures drifts with it.  Each operation is
    therefore timed between two runs of its workload's reference, and its
    time is scaled by the reference's nominal time over their mean: the
    result is the operation's time on the machine at its nominal speed.
    """
    start = time.perf_counter()
    for i in range(gcds):
        math.gcd(_REF_A + i, _REF_B)
    for _ in range(rounds):
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(i % 7 + 1, i)
        counts: dict[int, int] = {}
        for i in range(10000):
            counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


class ScaledClock:
    """Times calls in wall seconds and in seconds at nominal speed."""

    def __init__(self, workload: str):
        *self.work, self.nominal = REFERENCES[workload]
        self.last = reference(*self.work)
        self.references: list[float] = []

    def time(self, fn):
        """(result, wall seconds, scaled seconds) of fn()."""
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        after = reference(*self.work)
        speed = self.nominal / ((self.last + after) / 2)
        self.last = after
        self.references.append(after)
        return result, elapsed, elapsed * speed


class SetupTimer:
    """Times fresh interpreters that import propcf.cli and build its
    parser, scaled to the machine's nominal speed like the calls, but by
    another reference: a start spends its time in the loader and the file
    system, which reference does not follow.  Each start is timed
    between two fresh interpreters that import a fixed set of standard
    modules (``_BASELINE_CODE``), and scaled by SETUP_REFERENCE_S over
    their mean.  Samples are taken between passes, so they meet the
    machine in the same states as the passes do.  The first start may
    compile the bytecode, which a user pays once, and is not counted."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self._start(_SETUP_CODE)
        self.last = self._start(_BASELINE_CODE)

    def _start(self, code: str) -> float:
        argv = [sys.executable, "-c", code, str(SRC)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # round every start up to the next step; a timer kills a hung start
        watchdog = threading.Timer(START_TIMEOUT_S, proc.kill)
        watchdog.start()
        code = proc.wait()
        elapsed = time.perf_counter() - start
        watchdog.cancel()
        watchdog.join()
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        return elapsed

    def sample(self, count: int) -> None:
        for _ in range(count):
            wall = self._start(_SETUP_CODE)
            after = self._start(_BASELINE_CODE)
            self.wall.append(wall)
            self.scaled.append(
                wall * SETUP_REFERENCE_S / ((self.last + after) / 2))
            self.last = after


def call(main, argv) -> tuple[int, str, str]:
    """One CLI operation in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:   # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _encoded(text: str):
    """``text`` as UTF-8 in pieces, so that a multi-megabyte output is
    never copied whole to hash, count or write it."""
    for start in range(0, len(text), CHUNK):
        yield text[start:start + CHUNK].encode()


class Pool:
    """Runs a pool of operations and keeps what the checks need: the
    digest every repeat must match, the time of every call and the
    reason of every failed call.  The first output of each operation is
    written under ``spill`` and checked after the loop, so the process
    holds one output at a time and its peak memory is the program's."""

    def __init__(self, ops, cli, clock: ScaledClock, spill: Path):
        self.ops = ops
        self.cli = cli
        self.clock = clock
        self.spill = spill
        spill.mkdir(parents=True, exist_ok=True)
        self.digest = [None] * len(ops)
        self.runs = [0] * len(ops)
        self.failed_runs = [0] * len(ops)
        self.reasons: list[str] = []
        self.wall: list[float] = []       # seconds per call
        self.latencies: list[float] = []  # seconds per call at nominal speed
        self.executed = 0

    def _call(self, op):
        try:
            return call(self.cli.main, op.argv)
        except Exception:   # one bad operation must not stop the run
            return None, "", traceback.format_exc()

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """One pass over the pool; returns its summed scaled latency."""
        busy = 0.0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = self.executed
            self.executed += 1
            # start each call with the collector's counts at zero, as in a
            # fresh CLI process, so that where a collection falls inside a
            # call does not depend on the calls before it
            gc.collect()
            (code, out, err), wall, scaled = self.clock.time(
                lambda: self._call(op))
            busy += scaled
            self.wall.append(wall)
            self.latencies.append(scaled)
            self.runs[i] += 1
            if code != 0:
                self._fail(i, f"{' '.join(op.argv)[:120]}: exit {code}: "
                              f"{err.strip()[-300:]}")
            else:
                self._record(i, op, out, tracer)
            del out, err   # not held through the next call
        return busy

    def _record(self, i: int, op, out: str, tracer: Tracer | None) -> None:
        h, size = hashlib.sha256(), 0
        for piece in _encoded(out):
            h.update(piece)
            size += len(piece)
        if tracer is not None:
            tracer.counts["cli.out_bytes"] += size
        if self.digest[i] is None:
            self.digest[i] = h.hexdigest()
            with (self.spill / f"{i}.txt").open("wb") as fh:
                fh.writelines(_encoded(out))
        elif h.hexdigest() != self.digest[i]:
            self._fail(i, f"{' '.join(op.argv)[:120]}: repeat printed "
                          "different bytes")

    def _fail(self, i: int, reason: str) -> None:
        self.failed_runs[i] += 1
        self.reasons.append(reason)

    def check(self) -> tuple[int, int]:
        """Check each first output; returns (failed calls, work done)."""
        failed = work = 0
        for i, op in enumerate(self.ops):
            if self.digest[i] is None:
                failed += self.runs[i]
                continue
            text = (self.spill / f"{i}.txt").read_text(encoding="utf-8")
            try:
                units = checks.check(op, text)
            except checks.CheckFailed as exc:
                self.reasons.append(f"{' '.join(op.argv)[:120]}: {exc}"[:600])
                failed += self.runs[i]
                continue
            failed += self.failed_runs[i]
            work += units * (self.runs[i] - self.failed_runs[i])
        return failed, work

    def close(self) -> None:
        """Remove the written outputs."""
        shutil.rmtree(self.spill, ignore_errors=True)

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for digest in self.digest:
            h.update((digest or "missing").encode())
        return h.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "machine": platform.machine(), "seed": seed}


def run_untraced(pool: Pool, seconds: float, setup: SetupTimer,
                 min_calls: int) -> int:
    """Whole passes until they have taken ``seconds`` and made at least
    ``min_calls`` calls, with set-up samples before and after each pass;
    the samples do not count towards ``seconds``."""
    passes, busy = 0, 0.0
    setup.sample(SETUP_PER_GAP)
    while busy < seconds or pool.executed < min_calls:
        started = time.perf_counter()
        pool.run_pass()
        busy += time.perf_counter() - started
        passes += 1
        setup.sample(SETUP_PER_GAP)
    while len(setup.wall) < SETUP_REPEATS:
        setup.sample(1)
    return passes


def run_traced(pool: Pool, seconds: float, tracer: Tracer) -> tuple[int, float]:
    """One untraced pass, then traced passes while another one still
    fits in the time; returns the traced passes and traced over untraced
    pass time."""
    started = time.perf_counter()
    untraced = pool.run_pass()
    passes, traced = 0, 0.0
    with tracer:
        while True:
            begun = time.perf_counter()
            traced += pool.run_pass(tracer)
            passes += 1
            now = time.perf_counter()
            if now + (now - begun) - started > seconds:
                break
    return passes, traced / passes / untraced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "propcf" / "cli.py").is_file():
        print(f"error: no propcf sources under {SRC}", file=sys.stderr)
        return 2
    for name in [k for k in os.environ if k.startswith("PROPCF_")]:
        del os.environ[name]

    sys.path.insert(0, str(SRC))
    import propcf.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: propcf was imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    ops = workloads.operations(args.workload, args.seed)
    if args.trace:
        ops += workloads.probe_operations()
    pool = Pool(ops, cli, ScaledClock(args.workload),
                OUT / f"outputs-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return measure(args, pool)
    finally:
        pool.close()


def measure(args, pool: Pool) -> int:
    """Run the workload, check its outputs and print the result."""
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "pool_size": len(pool.ops), "work_unit": WORK_UNITS[args.workload]}
    if args.trace:
        tracer = Tracer()
        passes, overhead = run_traced(pool, args.seconds, tracer)
        metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
                   for name, value in tracer.metrics(passes, overhead).items()}
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_file)
        report.update(layer_self_share=tracer.self_shares(),
                      groups_never_entered=[g for g in GROUPS
                                            if not tracer.group_ns[g]],
                      spans_kept=len(tracer.spans),
                      spans_dropped=tracer.dropped,
                      trace_file=str(trace_file.relative_to(ROOT)))
    else:
        percentile = workloads.TAIL_PERCENTILE[args.workload]
        setup = SetupTimer()
        passes = run_untraced(pool, args.seconds, setup,
                              stats.min_samples(percentile))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, work = pool.check()
    attempted = pool.executed
    report.update(passes=passes, attempted=attempted, failed=failed,
                  failed_ratio=failed / attempted, failures=pool.reasons[:5],
                  output_sha256=pool.output_digest(),
                  provenance=provenance(args.seed))
    if not args.trace:
        busy = sum(pool.latencies)
        tail = stats.tail_value(pool.latencies, percentile)
        report.update(
            op_count=len(pool.latencies), op_tail_percentile=percentile,
            busy_s=busy, setup_samples=len(setup.wall),
            setup_wall_s=statistics.median(setup.wall),
            reference_s=statistics.median(pool.clock.references),
            wall={"ops_per_s": (attempted - failed) / sum(pool.wall),
                  "op_p50_s": statistics.median(pool.wall),
                  "op_tail_s": stats.tail_value(pool.wall, percentile)})
        values = {
            "ops_per_s": ((attempted - failed) / busy, "ops/s"),
            "work_per_s": (work / busy, "work/s"),
            "op_p50_s": (statistics.median(pool.latencies), "s"),
            "op_tail_s": (tail, "s"),
            "setup_s": (statistics.median(setup.scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        }
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in values.items()}
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
