"""The two-step oracle and the divisor criterion, each against a scan.

``realizable_as_q2_oracle`` tries one prefix per divisor a_1 of p, the one
that p_2 = p and q_2 = q force.  ``_scanning_oracle`` below is the plain
search that assumes nothing about a_2: every numerator a_2 in 1..b_2 is
tried against the digit rule floor(a_2/x_1) == b_2 and against q_2 == q.
The two must agree on every witness, and the criterion ``_fires`` must
hold on exactly the divisors whose forced prefix obeys the digit rule.
"""
from __future__ import annotations

import math
from functools import lru_cache

from propcf import candidates
from propcf.candidates import (
    RealizationWitness,
    _fires,
    _Floors,
    realizable_as_q2,
    realizable_as_q2_oracle,
)
from propcf.exactreal import (
    GOLDEN,
    Rational,
    _digit,
    floor_times,
    is_zero,
    parse_exact,
)
from propcf.pcf import PartialQuotient

# every reduced t/s in (0, 1) with s < 40, the four fields of the classify
# benchmark, and two more surds
XS = [Rational(t, s) for s in range(2, 40) for t in range(1, s)
      if math.gcd(t, s) == 1] + [parse_exact(text) for text in (
          "golden", "sqrt2-1", "(sqrt7-2)/3", "(sqrt13-3)/2",
          "(sqrt3-1)/2", "sqrt7-2")]


@lru_cache(maxsize=None)
def _divisors(n: int) -> tuple[int, ...]:
    return tuple(a for a in range(1, n + 1) if n % a == 0)


def _scanning_oracle(x, p: int):
    """Every numerator a_2 in [1, b_2] of every divisor a_1, in order."""
    q = floor_times(p, 1 / x) + 1
    for a1 in _divisors(p):
        b1, x1 = _digit(x, a1)
        if is_zero(x1):
            continue
        b2 = p // a1
        inv1 = 1 / x1
        for a2 in range(1, b2 + 1):
            if floor_times(a2, inv1) != b2:
                continue
            if b1 * b2 + a2 != q:
                continue
            return RealizationWitness(
                (PartialQuotient(a1, b1), PartialQuotient(a2, b2)), 2)
    return None


def test_oracle_matches_the_scan():
    cases = 0
    for x in XS:
        for p in range(1, 121):
            got = realizable_as_q2_oracle(x, p)
            assert got == _scanning_oracle(x, p), (x, p)
            cases += 1
    assert cases == 479 * 120


def _obeys_digit_rule(x, p: int, q: int, a: int) -> bool:
    """Whether the one prefix divisor a forces for (p, q) expands from x:
    b_2 = p/a and a_2 = q - b_1*b_2 in [1, b_2], with floor(a_2/x_1) = b_2."""
    b1, x1 = _digit(x, a)
    if is_zero(x1):
        return False
    b2 = p // a
    a2 = q - b1 * b2
    return 1 <= a2 <= b2 and floor_times(a2, 1 / x1) == b2


def test_criterion_fires_on_exactly_the_divisors_the_digit_rule_accepts():
    triples = fired = 0
    for x in XS:
        F = _Floors(1 / x)
        for p in range(1, 241):
            q = F[p] + 1
            for a in _divisors(p):
                rule = _obeys_digit_rule(x, p, q, a)
                assert _fires(F, p, q, a) == rule, (x, p, a)
                triples += 1
                fired += rule
    assert triples == 652_877
    assert 0 < fired < triples


def test_oracle_and_criterion_pick_the_same_divisor():
    for x in XS:
        for p in range(1, 121):
            assert realizable_as_q2_oracle(x, p) == realizable_as_q2(x, p), \
                (x, p)


def test_oracle_costs_two_steps_per_divisor_and_one_floor(monkeypatch):
    calls = {"_digit": 0, "floor_times": 0}

    def counted(name, body):
        def wrapper(*args):
            calls[name] += 1
            return body(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(candidates, name,
                            counted(name, getattr(candidates, name)))
    budget = 0
    for p in range(1, 701):
        before = dict(calls)
        realizable_as_q2_oracle(GOLDEN, p)
        assert calls["floor_times"] - before["floor_times"] == 1, p
        assert calls["_digit"] - before["_digit"] <= 2 * len(_divisors(p)), p
        budget += 2 * len(_divisors(p)) + 1
    assert budget == 10_100
    assert sum(calls.values()) <= budget
