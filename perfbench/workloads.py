"""Seeded operation lists for the three benchmark workloads.

Each workload is a fixed pool of CLI operations, built from the workload
seed alone, that a run cycles through in whole passes.  The pool shape
(orbit lengths, window positions, enumeration sizes) is fixed per
workload and the seed only picks the concrete inputs around it, so runs
with different seeds do comparable work.

An operation carries the argv handed to ``propcf.cli.main`` and, for the
output checker, the same inputs as plain integers, so the checks never
go back through the program's own parser.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("orbit", "classify", "enumerate")

# The percentile op_tail_s is read at.  It is fixed per workload, so two
# commits are compared at the same percentile whatever their speed: it is
# the highest of 75, 90, 95, 99 that leaves ten calls beyond it in a 25 s
# run at today's speed (5-6 passes of orbit, 7-9 of classify, 4-6 of
# enumerate).  A run makes passes until it has the calls this needs.
TAIL_PERCENTILE = {"orbit": 75, "classify": 90, "enumerate": 75}

# The four quadratic fields of the classify and enumerate workloads, as
# the spec the CLI reads and the integers (p, q, d, r) of (p + q*sqrt(d))/r.
FIELDS = {
    "golden": (-1, 1, 5, 2),
    "sqrt2-1": (-1, 1, 2, 1),
    "(sqrt7-2)/3": (-2, 1, 7, 3),
    "(sqrt13-3)/2": (-3, 1, 13, 2),
}

# Operation sizes are graded evenly between a low and a high end, so the
# latencies of a pass spread out smoothly, and each pool holds an odd
# number of operations (13 or 17).  A run makes whole passes, so the
# median and the 75th percentile of its latencies then fall inside the
# repeats of one operation instead of on the edge between two.

# orbit: one simulate call per length; cost grows about as n^2
ORBIT_LENGTHS = tuple(round(1000 + 2000 * k / 12) for k in range(13))
RATIONAL_Y_EVERY = 4          # a quarter of the calls use a rational y
ORBIT_JITTER = 20

# classify: nine --p windows, whose rows are all computed from p = 1 up,
# and eight --q --oracle windows; window k goes to field k mod 4
P_WINDOW_TOPS = tuple(400 + 90 * k for k in range(9))
Q_WINDOW_STARTS = tuple(300 + 100 * k for k in range(8))
WINDOW = 100
WINDOW_JITTER = 20

# enumerate: every complete expansion of t/19 for these t, once as JSON
# and once as CSV; the count depends on t alone (661 at t = 12, 21,702
# at t = 18).  The denominator is fixed because it moves the cost of a
# call by up to 20 % (larger digits print longer), which would make the
# median depend on the seed; the seed picks the three expand lengths.
ENUM_NUMERATORS = (12, 13, 14, 15, 16, 17, 18)
ENUM_DEN = 19
EXPANDS = (("golden", 2, "json"), ("sqrt2-1", 3, "csv"),
           ("(sqrt13-3)/2", 4, "json"))
EXPAND_LENGTH = 1400
EXPAND_JITTER = 20


@dataclass(frozen=True)
class Operation:
    """One CLI call: its argv, its kind, and its inputs for the checker."""

    argv: tuple[str, ...]
    kind: str
    params: dict
    fmt: str = "json"


def unit_rational_bits(n: int) -> int:
    """Denominator bits that keep a random rational alive for n steps."""
    return math.ceil(1.7123 * n) + 1024


def _random_unit_rational(rng: random.Random, bits: int) -> tuple[int, int]:
    den = (1 << bits) | rng.getrandbits(bits)
    num = rng.randrange(1, den)
    g = math.gcd(num, den)
    return num // g, den // g


def _orbit_ops(rng: random.Random) -> list[Operation]:
    ops = []
    for k, base in enumerate(ORBIT_LENGTHS):
        n = base + rng.randint(-ORBIT_JITTER, ORBIT_JITTER)
        seed = rng.getrandbits(63)
        argv = ["simulate", "--n", str(n), "--seed", str(seed),
                "--format", "json"]
        y = None
        if k % RATIONAL_Y_EVERY == 1:
            y = _random_unit_rational(rng, unit_rational_bits(n))
            argv += ["--y", f"{y[0]}/{y[1]}"]
        ops.append(Operation(tuple(argv), "simulate",
                             {"n": n, "seed": seed, "y": y}))
    return ops


def _classify_ops(rng: random.Random) -> list[Operation]:
    ops = []
    specs = list(FIELDS)
    for k, top in enumerate(P_WINDOW_TOPS):
        spec = specs[k % len(specs)]
        hi = top + rng.randint(-WINDOW_JITTER, WINDOW_JITTER)
        lo = hi - WINDOW + 1
        ops.append(Operation(
            ("classify", spec, "--p", f"{lo}..{hi}", "--format", "json"),
            "classify_p", {"x": FIELDS[spec], "lo": lo, "hi": hi}))
    for k, start in enumerate(Q_WINDOW_STARTS):
        spec = specs[k % len(specs)]
        lo = start + rng.randint(-WINDOW_JITTER, WINDOW_JITTER)
        hi = lo + WINDOW - 1
        ops.append(Operation(
            ("classify", spec, "--q", f"{lo}..{hi}", "--oracle",
             "--format", "json"),
            "classify_q", {"x": FIELDS[spec], "lo": lo, "hi": hi}))
    return ops


def _enumerate_ops(rng: random.Random) -> list[Operation]:
    ops = []
    for t in ENUM_NUMERATORS:
        for fmt in ("json", "csv"):
            ops.append(Operation(
                ("rational", f"{t}/{ENUM_DEN}", "--format", fmt),
                "rational", {"t": t, "s": ENUM_DEN}, fmt))
    for spec, numerator, fmt in EXPANDS:
        length = EXPAND_LENGTH + rng.randint(-EXPAND_JITTER, EXPAND_JITTER)
        ops.append(Operation(
            ("expand", spec, "--numerators", f"all:{numerator}",
             "--len", str(length), "--format", fmt),
            "expand", {"x": FIELDS[spec], "numerator": numerator,
                       "length": length}, fmt))
    return ops


def probe_operations() -> list[Operation]:
    """Tiny calls that reach every layer once, added to each pass of a
    traced run, so a layer that a workload bypasses still shows that its
    wrappers fire (a few milliseconds against seconds per pass)."""
    golden = FIELDS["golden"]
    return [
        Operation(("simulate", "--n", "20", "--seed", "1", "--format", "json"),
                  "simulate", {"n": 20, "seed": 1, "y": None}),
        Operation(("classify", "golden", "--p", "3..5", "--oracle",
                   "--format", "json"),
                  "classify_p", {"x": golden, "lo": 3, "hi": 5,
                                 "oracle": True}),
        Operation(("rational", "3/5", "--format", "json"), "rational",
                  {"t": 3, "s": 5}),
        Operation(("expand", "golden", "--numerators", "all:2", "--len", "5",
                   "--format", "json"),
                  "expand", {"x": golden, "numerator": 2, "length": 5}),
    ]


_BUILDERS = {"orbit": _orbit_ops, "classify": _classify_ops,
             "enumerate": _enumerate_ops}


def operations(workload: str, seed: int) -> list[Operation]:
    """The pool of one pass of ``workload``, in run order, for ``seed``.

    The order is the same for every seed, so that memory use, which
    depends on which large outputs follow which, does too."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose one of {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
