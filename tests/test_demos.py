"""The demos print the same bytes as when their output was recorded.

Each demo runs as a script with its default flags, in a fresh
interpreter, and its stdout is compared with a recorded sha256.  A
change that moves one digit, one float or one line of a demo's output
fails here; if the output is meant to change, record the new digest.
The Monte Carlo table comes from numpy's generator, so another numpy
build may print other bytes there.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DEMO_SHA256 = {
    "candidate_classification.py":
        "18c339f061771bf7d1d1a4296e4e406fd0fb394fb2b049fef415bf24e42d25c5",
    "joint_map_simulation.py":
        "be8921134d704c5384d24d0130c3f528b3c83f49af37675699feb9116e55dde1",
    "rational_expansions.py":
        "b3bd808da3a72de710f2ba7a6e35c26d5d470da3c0a5c1b7ae54bd5bb554a0f4",
    "special_families.py":
        "4b8ca7d2f7db155ed6db3d9fad90c6789318c0676bcc6fa567e0f9c2c8251ee6",
}


def test_every_demo_has_a_digest():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(
        DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_prints_recorded_bytes(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, env=env, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]
