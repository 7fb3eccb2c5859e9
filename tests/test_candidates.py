"""Tests for candidate pairs, realizability, push-down/lift, sharpness."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from propcf import candidates
from propcf.candidates import (
    CutoffVerdict,
    Parity,
    RealizationWitness,
    approximation_margins,
    beatty,
    candidate_p_for_q,
    candidate_q_for_p,
    cutoff_margin_survey,
    fractional_part_characterization,
    gauss_map,
    is_candidate,
    lift_index_search,
    lift_tail,
    push_down_index,
    q2_cutoff_check,
    rayleigh_partition_check,
    realizable_as_q2,
    realizable_as_q2_oracle,
    realize_odd,
    return_time_check,
    sharpness_witness,
    sweep_q_rows,
    sweep_rows,
)
from propcf.exactreal import (
    GOLDEN,
    Rational,
    Surd,
    floor_exact,
    frac_part,
    parse_exact,
    sqrt_exact,
)
from propcf.gauss2d import orbit
from propcf.pcf import (
    PartialQuotient,
    PCFExpansion,
    convergents,
    expand,
    pcf_step,
    reconstruct,
)


def _random_surd_in_unit(rng, low=None):
    """A random quadratic irrational in (0,1), optionally above ``low``."""
    while True:
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13, 15, 17])
        v = frac_part(Rational(rng.randint(1, 9), rng.randint(2, 9))
                      + sqrt_exact(d) / rng.randint(2, 9))
        if not isinstance(v, Surd):
            continue
        if low is not None and not (v > low):
            continue
        if Rational(0) < v < Rational(1):
            return v


# ---------------------------------------------------------------------------
# gauss_map


def test_gauss_map_golden_fixed_point():
    assert gauss_map(GOLDEN) == GOLDEN
    assert gauss_map(GOLDEN, 2) == sqrt_exact(5) - 2


def test_gauss_map_domain():
    with pytest.raises(ValueError):
        gauss_map(Rational(0))
    with pytest.raises(ValueError):
        gauss_map(Rational(3, 2))
    with pytest.raises(ValueError):
        gauss_map(GOLDEN, 0)


# ---------------------------------------------------------------------------
# candidate pairs


def test_candidate_q_for_p_golden_table():
    table = {1: (1, 2), 2: (3, 4), 3: (4, 5), 4: (6, 7), 5: (8, 9)}
    for p, pair in table.items():
        assert candidate_q_for_p(GOLDEN, p) == pair


def test_candidate_q_invariants_random():
    rng = random.Random(401)
    for _ in range(25):
        x = _random_surd_in_unit(rng)
        for p in range(1, 13):
            q_odd, q_even = candidate_q_for_p(x, p)
            assert q_even == q_odd + 1
            assert Rational(p, q_odd) > x and abs(q_odd * x - p) < x
            assert Rational(p, q_even) < x and abs(q_even * x - p) < x
            # no third denominator works
            for q in range(max(1, q_odd - 3), q_even + 4):
                got = is_candidate(x, p, q)
                if q == q_odd:
                    assert got is not None and got.parity is Parity.ODD
                elif q == q_even:
                    assert got is not None and got.parity is Parity.EVEN
                else:
                    assert got is None


def test_candidate_p_for_q_golden():
    assert candidate_p_for_q(GOLDEN, 1) == (None, 1)
    assert candidate_p_for_q(GOLDEN, 3) == (None, 2)
    assert candidate_p_for_q(GOLDEN, 4) == (2, 3)
    assert candidate_p_for_q(GOLDEN, 5) == (3, None)


def test_candidate_p_for_q_matches_q_for_p():
    rng = random.Random(402)
    for _ in range(12):
        x = _random_surd_in_unit(rng)
        for q in range(1, 41):
            p_even, p_odd = candidate_p_for_q(x, q)
            if p_even is not None:
                assert candidate_q_for_p(x, p_even)[1] == q
                assert is_candidate(x, p_even, q).parity is Parity.EVEN
            if p_odd is not None:
                assert candidate_q_for_p(x, p_odd)[0] == q
                assert is_candidate(x, p_odd, q).parity is Parity.ODD
            # and nothing else on either side
            base = floor_exact(q * x)
            for p in {base, base + 1} - {p_even, p_odd, 0}:
                got = is_candidate(x, p, q)
                assert got is None or got.p in (p_even, p_odd)


def test_fractional_part_characterization_consistent():
    rng = random.Random(403)
    for _ in range(20):
        x = _random_surd_in_unit(rng)
        for q in range(1, 31):
            assert fractional_part_characterization(x, q).consistent


def test_approximation_margins_positive():
    rng = random.Random(404)
    for _ in range(15):
        x = _random_surd_in_unit(rng)
        e = expand(x, [rng.randint(1, 5) for _ in range(8)])
        margins = approximation_margins(x, e)
        assert len(margins) == len(e)
        assert all(m > Rational(0) for m in margins)


# ---------------------------------------------------------------------------
# Beatty sequences and return times


def test_beatty_lower_wythoff():
    phi = 1 / GOLDEN  # (1+sqrt5)/2
    assert beatty(phi, 13) == [1, 3, 4, 6, 8, 9, 11, 12, 14, 16, 17, 19, 21]


def test_rayleigh_partition_for_irrationals():
    rng = random.Random(405)
    for _ in range(15):
        x = _random_surd_in_unit(rng)
        rep = rayleigh_partition_check(x, 60)
        assert rep.is_partition
        assert rep.size_low + rep.size_high == 60


def test_rayleigh_fails_for_rational_rate():
    rep = rayleigh_partition_check(Rational(1, 2), 10)
    assert not rep.is_partition  # both rates are 2: evens double, odds missed


def test_return_time_counts_and_segments():
    rng = random.Random(406)
    quarter = Rational(1, 4)
    for _ in range(12):
        x = _random_surd_in_unit(rng, low=quarter)
        for p in range(1, 9):
            q_odd, q_even = candidate_q_for_p(x, p)
            for q in (q_odd, q_even):
                rep = return_time_check(x, p, q)
                assert rep.ok, (p, q)
                assert rep.hits == p


def test_return_time_golden_frozen():
    even = return_time_check(GOLDEN, 3, 5)
    assert even.ok and even.pair.parity is Parity.EVEN
    odd = return_time_check(GOLDEN, 2, 3)
    assert odd.ok and odd.pair.parity is Parity.ODD
    with pytest.raises(ValueError):
        return_time_check(GOLDEN, 1, 3)


# ---------------------------------------------------------------------------
# realizability


def test_realize_odd_random():
    rng = random.Random(407)
    for _ in range(10):
        x = _random_surd_in_unit(rng)
        for p in range(1, 16):
            w = realize_odd(x, p)
            q_odd = candidate_q_for_p(x, p)[0]
            assert w.index == 1
            assert w.convergent_pair() == (p, q_odd)
            assert w.verify(x, p, q_odd)


def test_even_witnesses_golden_frozen():
    w1 = realizable_as_q2(GOLDEN, 1)
    assert [(pq.a, pq.b) for pq in w1.quotients] == [(1, 1), (1, 1)]
    w3 = realizable_as_q2(GOLDEN, 3)
    assert [(pq.a, pq.b) for pq in w3.quotients] == [(1, 1), (2, 3)]
    assert w3.convergent_pair() == (3, 5)
    assert realizable_as_q2(GOLDEN, 2) is None
    w4 = realizable_as_q2(GOLDEN, 4)
    assert w4.convergent_pair() == (4, 7)


def test_even_criterion_matches_brute_force():
    rng = random.Random(408)
    for _ in range(8):
        x = _random_surd_in_unit(rng)
        for p in range(1, 26):
            by_criterion = realizable_as_q2(x, p)
            by_search = realizable_as_q2_oracle(x, p)
            assert (by_criterion is None) == (by_search is None), (x, p)
            q_even = candidate_q_for_p(x, p)[1]
            if by_criterion is not None:
                assert by_criterion.verify(x, p, q_even)
                assert by_search.verify(x, p, q_even)


def test_even_criterion_matches_brute_force_on_rationals():
    # On a rational x the two fractional parts can sum to exactly 1, as at
    # x = 2/5, p = 1 (1/2 + 1/2): that is no carry, and no witness exists.
    x = Rational(2, 5)
    assert realizable_as_q2(x, 1) is None
    assert realizable_as_q2_oracle(x, 1) is None
    pairs = 0
    for s in range(2, 30):
        for t in range(1, s):
            if math.gcd(t, s) != 1:
                continue
            x = Rational(t, s)
            for p in range(1, 41):
                by_criterion = realizable_as_q2(x, p)
                by_search = realizable_as_q2_oracle(x, p)
                assert (by_criterion is None) == (by_search is None), (x, p)
                if by_criterion is not None:
                    q_even = candidate_q_for_p(x, p)[1]
                    assert by_criterion.verify(x, p, q_even)
                    assert by_search.verify(x, p, q_even)
                pairs += 1
    assert pairs == 10_760


def test_witness_verify_rejects():
    w = realizable_as_q2(GOLDEN, 3)
    assert w.verify(GOLDEN, 3, 5)
    # a wrong second digit: the pair it claims is its own convergent pair,
    # so only the digit check can refuse it
    wrong_b = RealizationWitness(
        (PartialQuotient(1, 1), PartialQuotient(2, 4)), 2)
    assert not wrong_b.verify(GOLDEN, *wrong_b.convergent_pair())
    # digits that expand from x, but not to the pair asked about
    for p, q in ((3, 4), (4, 5), (5, 8)):
        assert not w.verify(GOLDEN, p, q)
    # the golden witness checked against another x: 1/(sqrt2-1) has floor 2
    assert not w.verify(sqrt_exact(2) - 1, 3, 5)


def test_digits_past_the_end_of_a_rational_expansion_do_not_belong():
    # 1/2 = [1/2] ends after one digit: a second digit has no remainder
    # to expand from, so the pairs are refused, not the remainder 0
    half = Rational(1, 2)
    w = RealizationWitness((PartialQuotient(1, 2), PartialQuotient(1, 1)), 2)
    assert w.verify(half, 1, 2) is False
    longer = PCFExpansion.from_pairs([(1, 2), (1, 1), (1, 1)])
    with pytest.raises(ValueError, match="^expansion does not belong to this x$"):
        push_down_index(half, longer, 1)


def _sweep_by_p(x, p_max):
    return sweep_rows(x, "", p_max)


def _sweep_by_q(x, q_min):
    return sweep_q_rows(x, "", q_min, q_min + 5)


# every function of x and one count, with x checked by exactreal._unit
_X_SEARCHES = [realizable_as_q2, realizable_as_q2_oracle, candidate_q_for_p,
               realize_odd, candidate_p_for_q, q2_cutoff_check,
               fractional_part_characterization, gauss_map, pcf_step,
               rayleigh_partition_check, cutoff_margin_survey, _sweep_by_p,
               _sweep_by_q]


@pytest.mark.parametrize("search", _X_SEARCHES)
@pytest.mark.parametrize("x", [Rational(3, 2), Rational(0), Rational(1)])
def test_realizability_rejects_x_outside_unit_interval(search, x):
    with pytest.raises(ValueError):
        search(x, 6)


@pytest.mark.parametrize("search", _X_SEARCHES)
def test_realizability_rejects_float_x(search):
    with pytest.raises(TypeError):
        search(0.5, 6)


def test_sweeps_check_their_input_before_any_row():
    # x is checked even when the range holds no row
    with pytest.raises(ValueError, match="x must lie strictly between"):
        sweep_rows(Fraction(3, 2), "", 0)
    with pytest.raises(ValueError, match="x must lie strictly between"):
        sweep_q_rows(Rational(1), "", 5, 4)
    assert sweep_q_rows(GOLDEN, "", 5, 4) == []


# (call with the count argument, its least value): a float, a bool and an
# int below the least value are all refused by exactreal._at_least
_COUNT_CALLS = {
    "realize_odd": (lambda p: realize_odd(GOLDEN, p), 1),
    "realizable_as_q2": (lambda p: realizable_as_q2(GOLDEN, p), 1),
    "realizable_as_q2_oracle": (
        lambda p: realizable_as_q2_oracle(GOLDEN, p), 1),
    "candidate_q_for_p": (lambda p: candidate_q_for_p(GOLDEN, p), 1),
    "is_candidate": (lambda p: is_candidate(GOLDEN, p, 3), 1),
    "orbit": (lambda n: orbit(GOLDEN, GOLDEN, n), 0),
    "cutoff_margin_survey-p_max": (
        lambda n: cutoff_margin_survey(GOLDEN, n), 1),
    "cutoff_margin_survey-bins": (
        lambda n: cutoff_margin_survey(GOLDEN, 10, bins=n), 1),
    "pcf_step": (lambda a: pcf_step(Rational(1, 2), a), 1),
    "sweep_rows-p_max": (lambda n: sweep_rows(GOLDEN, "", n), 1),
    "sweep_q_rows-q_min": (lambda n: sweep_q_rows(GOLDEN, "", n, 5), 1),
}


@pytest.mark.parametrize("kind", ["float", "bool", "below"])
@pytest.mark.parametrize("name", sorted(_COUNT_CALLS))
def test_count_arguments_must_be_ints_at_least_their_least(name, kind):
    call, least = _COUNT_CALLS[name]
    bad = {"float": float(least + 1), "bool": True, "below": least - 1}[kind]
    with pytest.raises(ValueError,
                       match=r" must be (an integer, got|at least) "):
        call(bad)


def test_cutoff_golden_frozen():
    assert q2_cutoff_check(GOLDEN, 5) is CutoffVerdict.GUARANTEED_REALIZABLE
    assert q2_cutoff_check(GOLDEN, 4) is CutoffVerdict.UNDETERMINED
    assert q2_cutoff_check(GOLDEN, 3) is CutoffVerdict.NOT_EVEN_CANDIDATE
    assert q2_cutoff_check(GOLDEN, 2) is CutoffVerdict.GUARANTEED_REALIZABLE


def test_cutoff_is_sound():
    rng = random.Random(409)
    for _ in range(8):
        x = _random_surd_in_unit(rng)
        for q in range(1, 41):
            verdict = q2_cutoff_check(x, q)
            p_even = candidate_p_for_q(x, q)[0]
            if verdict is CutoffVerdict.NOT_EVEN_CANDIDATE:
                assert p_even is None
            else:
                assert p_even is not None
                if verdict is CutoffVerdict.GUARANTEED_REALIZABLE:
                    assert realizable_as_q2(x, p_even) is not None


def _numerator_by_definition(x, q: int, parity: Parity) -> int | None:
    """The p with (p, q) a candidate of the given parity, read off
    is_candidate alone."""
    base = floor_exact(q * x)
    for p in range(max(base - 1, 1), base + 2):
        got = is_candidate(x, p, q)
        if got is not None and got.parity is parity:
            return p
    return None


_FIELDS = ("golden", "sqrt2-1", "(sqrt7-2)/3", "(sqrt13-3)/2")


def test_even_side_has_one_rule():
    # the candidate rule on both sides, against is_candidate: a rational x
    # with qx an integer has no even candidate for q, since the pair
    # (qx, q) hits x exactly, and one with p/x an integer has no candidate
    # for p at all, as (p, p/x) hits x and (p, p/x + 1) misses it by x;
    # the public per-q functions and both sweeps must say so.  A rational
    # x also meets the cutoff with equality, which guarantees nothing
    values = [Rational(t, s) for s in range(2, 30) for t in range(1, s)
              if math.gcd(t, s) == 1]
    values += [parse_exact(spec) for spec in _FIELDS]
    for x in values:
        cutoff = max(x / 2, x * frac_part(1 / x))
        by_q = sweep_q_rows(x, "", 1, 150)
        for q, row in enumerate(by_q, start=1):
            p_even = _numerator_by_definition(x, q, Parity.EVEN)
            p_odd = _numerator_by_definition(x, q, Parity.ODD)
            assert (row["p_even"], row["p_odd"]) == (p_even, p_odd), (x, q)
            if q > 80:
                continue
            assert candidate_p_for_q(x, q) == (p_even, p_odd), (x, q)
            verdict = q2_cutoff_check(x, q)
            if p_even is None:
                expected = CutoffVerdict.NOT_EVEN_CANDIDATE
            elif frac_part(q * x) < cutoff:
                expected = CutoffVerdict.GUARANTEED_REALIZABLE
            else:
                expected = CutoffVerdict.UNDETERMINED
            assert verdict is expected, (x, q)
        by_p = sweep_rows(x, "", 60)
        for odd, even in zip(by_p[::2], by_p[1::2]):
            got = is_candidate(x, odd["p"], odd["q"])
            assert odd["realizable"] == (
                got is not None and got.parity is Parity.ODD), (x, odd)
            got = is_candidate(x, even["p"], even["q"])
            assert (even["cutoff"] == "not_even_candidate") == (
                got is None or got.parity is not Parity.EVEN), (x, even)


def _primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for k in range(2, math.isqrt(n) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, n + 1, k)))
    return [k for k in range(n + 1) if sieve[k]]


@pytest.mark.parametrize("spec", _FIELDS + ("3/7",))
def test_cutoff_is_exact_on_primes(spec):
    # 1 and p are all the divisors of a prime p, and the cutoff is the
    # divisor criterion on exactly those two, so it decides every p = 1
    # or prime: guaranteed iff a witness exists
    x = parse_exact(spec)
    for p in [1] + _primes_upto(2000):
        q = candidate_q_for_p(x, p)[1]
        verdict = q2_cutoff_check(x, q)
        witness = realizable_as_q2(x, p)
        assert (verdict is CutoffVerdict.GUARANTEED_REALIZABLE) == (
            witness is not None), (spec, p)


def test_q_side_builds_no_exact_value(monkeypatch):
    # candidate_p_for_q decides both sides on floors alone, and
    # q2_cutoff_check builds at most one value per call: the reciprocal
    # its divisor test runs on
    built = [0]
    surd_new, rational_init = Surd.__new__, Rational.__init__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return surd_new(cls, *args, **kwargs)

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        rational_init(self, *args, **kwargs)

    x_values = (GOLDEN, Rational(2, 7))
    monkeypatch.setattr(Surd, "__new__", counting_new)
    monkeypatch.setattr(Rational, "__init__", counting_init)
    for x in x_values:
        for q in range(1, 201):
            built[0] = 0
            candidate_p_for_q(x, q)
            assert built[0] == 0, (x, q)
            q2_cutoff_check(x, q)
            assert built[0] <= 1, (x, q)


def test_sweep_rows_golden():
    rows = sweep_rows(GOLDEN, "golden", 3, oracle=True)
    assert len(rows) == 6
    assert rows[0] == {"x": "golden", "p": 1, "q": 1, "parity": "odd",
                       "realizable": True, "witness": "1/1", "cutoff": ""}
    even2 = rows[3]
    assert (even2["p"], even2["q"], even2["realizable"]) == (2, 4, False)
    assert even2["cutoff"] == "undetermined"
    even3 = rows[5]
    assert even3["witness"] == "1/1 2/3"
    assert even3["cutoff"] == "guaranteed_realizable"


@pytest.mark.parametrize("spec", ["golden", "sqrt2-1", "(sqrt7-2)/3",
                                  "(sqrt13-3)/2"])
def test_sweeps_by_p_and_by_q_agree(spec):
    x = parse_exact(spec)
    p_max = 150
    by_p = sweep_rows(x, "", p_max)
    q_max = floor_exact(p_max / x)
    by_q = sweep_q_rows(x, "", 1, q_max)
    assert [row["q"] for row in by_q] == list(range(1, q_max + 1))
    odd = {row["p"]: row for row in by_p if row["parity"] == "odd"}
    even = {row["p"]: row for row in by_p if row["parity"] == "even"}
    for p, row in odd.items():
        assert row["q"] == candidate_q_for_p(x, p)[0]
    p_even_seen, p_odd_seen = [], []
    for row in by_q:
        p_even, p_odd = row["p_even"], row["p_odd"]
        if p_even is not None and p_even <= p_max:
            p_even_seen.append(p_even)
            want = even[p_even]
            assert (row["q"], row["even_realizable"], row["witness"],
                    row["cutoff"]) == (want["q"], want["realizable"],
                                       want["witness"], want["cutoff"])
        if p_even is None:
            assert row["even_realizable"] is None and row["witness"] == ""
        if p_odd is not None and p_odd <= p_max:
            p_odd_seen.append(p_odd)
            assert odd[p_odd]["q"] == row["q"]
    # every numerator's odd candidate falls in 1..q_max, and so does every
    # even one whose denominator does
    assert p_odd_seen == list(range(1, p_max + 1))
    assert p_even_seen == [p for p, row in even.items() if row["q"] <= q_max]


def test_sweep_takes_each_floor_once(monkeypatch):
    # the rows of p = 1..300 read floors of n/x for |n| up to about 600
    # from one memo, each taken once; per row through the public per-p
    # functions they would cost more than 13 per p
    calls = [0]
    floor = candidates.floor_times

    def counting(n, v):
        calls[0] += 1
        return floor(n, v)

    monkeypatch.setattr(candidates, "floor_times", counting)
    for x in (GOLDEN, Rational(2, 7)):
        calls[0] = 0
        sweep_rows(x, "", 300)
        assert 0 < calls[0] <= 6 * 300, x


def test_q_sweep_takes_each_floor_once(monkeypatch):
    # the rows of q = 1..300 read floor(n*x) for |n| up to 301 from one
    # memo and the criterion's floor(n/x) from another; per row through
    # the public candidate_p_for_q they would retake floor(qx) and its
    # neighbours for every q
    calls = [0]
    floor = candidates.floor_times

    def counting(n, v):
        calls[0] += 1
        return floor(n, v)

    monkeypatch.setattr(candidates, "floor_times", counting)
    for x in (GOLDEN, Rational(2, 7)):
        calls[0] = 0
        sweep_q_rows(x, "", 1, 300)
        assert 0 < calls[0] <= 1300, x


def test_cutoff_margin_survey_shape():
    rows = cutoff_margin_survey(GOLDEN, 20, bins=4)
    assert len(rows) == 4
    assert sum(r["realizable"] + r["unrealizable"] for r in rows) == 20
    for r in rows:
        # everything strictly below 1/2 is below the guaranteed cutoff
        if r["bin_high"] <= 0.5:
            assert r["unrealizable"] == 0


@pytest.mark.parametrize("bins", [3, 4, 10])
@pytest.mark.parametrize("spec", _FIELDS + ("3/7",))
def test_cutoff_margin_survey_counts_by_membership(spec, bins):
    # u = frac(qx)/x of each even candidate, binned by i/bins <= u <
    # (i+1)/bins; u = 1 (p/x a whole number, e.g. p = 3 for 3/7) lies in
    # no bin
    x = parse_exact(spec)
    p_max = 200
    counts = [[0, 0] for _ in range(bins)]
    for p in range(1, p_max + 1):
        q = candidate_q_for_p(x, p)[1]
        u = frac_part(q * x) / x
        realizable = realizable_as_q2(x, p) is not None
        for i in range(bins):
            if Rational(i, bins) <= u < Rational(i + 1, bins):
                counts[i][0 if realizable else 1] += 1
    rows = cutoff_margin_survey(x, p_max, bins)
    cutoff = max(x / 2, x * frac_part(1 / x))
    assert rows == [{
        "bin_low": float(Rational(i, bins)),
        "bin_high": float(Rational(i + 1, bins)),
        "realizable": counts[i][0], "unrealizable": counts[i][1],
        "above_cutoff": Rational(i, bins) * x >= cutoff,
    } for i in range(bins)]
    whole = sum(1 for p in range(1, p_max + 1)
                if is_candidate(x, p, candidate_q_for_p(x, p)[1]) is None)
    assert sum(map(sum, counts)) == p_max - whole
    assert whole == (66 if spec == "3/7" else 0)


# ---------------------------------------------------------------------------
# push-down and lift


def test_push_down_golden_frozen():
    e = expand(GOLDEN, [1] * 4)
    pd = push_down_index(GOLDEN, e, 1)
    assert pd.pairs() == [(2, 3)]
    assert pd.tail == sqrt_exact(5) - 2
    assert convergents(pd).q(1) == convergents(e).q(3) == 3
    assert reconstruct(pd) == GOLDEN


def test_push_down_random():
    rng = random.Random(410)
    done = 0
    while done < 20:
        x = _random_surd_in_unit(rng)
        e = expand(x, [rng.randint(1, 4) for _ in range(6)])
        if len(e) < 6:
            continue
        k = rng.randint(1, 3)
        pd = push_down_index(x, e, k)
        assert len(pd) == k
        assert pd.pairs()[:k - 1] == e.pairs()[:k - 1]
        co, cn = convergents(e), convergents(pd)
        assert cn.q(k) == co.q(k + 2)
        assert cn.p(k) == co.p(k + 2)
        assert reconstruct(pd) == x
        done += 1


def test_push_down_validates_inputs():
    e = expand(GOLDEN, [1] * 4)
    with pytest.raises(ValueError):
        push_down_index(GOLDEN, e, 0)
    with pytest.raises(ValueError):
        push_down_index(GOLDEN, e, 3)  # needs digits up to index 5
    other = expand(sqrt_exact(2) - 1, [1] * 4)
    with pytest.raises(ValueError):
        push_down_index(GOLDEN, other, 1)


def test_lift_recovers_golden():
    x_prime = sqrt_exact(5) - 2
    res = lift_index_search(2, 3, x_prime)
    assert res.solutions == ((1, 1, 1, 1, 1, 1),)
    assert not res.truncated
    assert lift_tail(res.solutions[0], x_prime) == GOLDEN


def test_lift_round_trip_random():
    rng = random.Random(411)
    done = 0
    while done < 15:
        x = _random_surd_in_unit(rng)
        e = expand(x, [rng.randint(1, 3) for _ in range(3)])
        if len(e) < 3:
            continue
        pd = push_down_index(x, e, 1)
        (a_new, b_new), tail_new = pd.pairs()[0], pd.tail
        res = lift_index_search(a_new, b_new, tail_new)
        pairs = e.pairs()
        original = (pairs[0][0], pairs[1][0], pairs[2][0],
                    pairs[0][1], pairs[1][1], pairs[2][1])
        assert original in res.solutions
        for sol in res.solutions:
            deep_tail = lift_tail(sol, tail_new)
            lifted = PCFExpansion.from_pairs(
                [(sol[0], sol[3]), (sol[1], sol[4]), (sol[2], sol[5])],
                deep_tail)
            x2 = reconstruct(lifted)
            back = push_down_index(x2, lifted, 1)
            assert back.pairs() == [(a_new, b_new)]
            assert back.tail == tail_new
        done += 1


def test_lift_truncation_flag():
    x_prime = sqrt_exact(5) - 2
    res = lift_index_search(2, 3, x_prime, bound=1)
    assert res.truncated and res.solutions == ()


def _guarded_lift_search(a_prime, b_prime, x_prime, bound=None):
    """``lift_index_search`` as it was written with the guards ``rest <= 0``
    and ``b_k < a_k``, which no input reaches: a_k1 * b_k2 is below the
    merge factor D = a_prime / a_k <= b_prime / a_k."""
    sols = []
    truncated = False
    for a_k in range(1, a_prime + 1):
        if a_prime % a_k:
            continue
        merge = a_prime // a_k
        if merge < 2:
            continue
        if bound is not None and merge > bound:
            truncated = True
            continue
        for b_k2 in range(1, merge):
            for b_k1 in range(1, (merge - 1) // b_k2 + 1):
                a_k2 = merge - b_k1 * b_k2
                if a_k2 > b_k2:
                    continue
                for a_k1 in range(1, b_k1 + 1):
                    rest = b_prime - a_k1 * b_k2
                    if rest <= 0 or rest % merge:
                        continue
                    b_k = rest // merge
                    if b_k < a_k:
                        continue
                    ceiling = Rational(a_k1 * a_k2, b_k1 * (b_k2 + 1) + a_k2)
                    if x_prime < ceiling:
                        sols.append((a_k, a_k1, a_k2, b_k, b_k1, b_k2))
    return tuple(sols), truncated


@pytest.mark.parametrize("x_prime", ["0", "1/7", "5/8", "sqrt2-1", "golden"])
def test_lift_search_matches_the_guarded_loop(x_prime):
    x_prime = parse_exact(x_prime)
    found = 0
    for a_prime in range(1, 41):
        for b_prime in range(a_prime, 3 * a_prime + 1):
            for bound in (None, 1, 3):
                res = lift_index_search(a_prime, b_prime, x_prime, bound)
                assert (res.solutions, res.truncated) == _guarded_lift_search(
                    a_prime, b_prime, x_prime, bound)
                found += len(res.solutions)
    assert found > 0


def test_tail_domain_has_one_check():
    # an expansion's tail and a lift's x' take the same [0, 1) check
    for v in (Rational(-1, 2), 1, Fraction(3, 2), 1 - GOLDEN + 1):
        for build in (lambda: PCFExpansion((), v),
                      lambda: lift_index_search(1, 1, v)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == "tail must lie in [0, 1)"
    for build in (lambda: PCFExpansion((), 0.5),
                  lambda: lift_index_search(1, 1, 0.5)):
        with pytest.raises(TypeError):
            build()
    assert PCFExpansion((), 0).is_complete()
    assert lift_index_search(1, 1, GOLDEN).solutions == ()


# ---------------------------------------------------------------------------
# sharpness of the error bound


def test_sharpness_smallest_case():
    witness, report = sharpness_witness(1, Rational(1, 2))
    assert witness.pairs() == [(2, 2), (2, 2)]
    assert report.numerator_excess == Rational(2)
    assert report.tail_advantage == Rational(1, 12)
    assert report.ok


def test_sharpness_margins_recomputed():
    cases = [(1, Rational(1, 2)), (2, Rational(1, 3)), (3, Rational(1, 5)),
             (2, Rational(1, 10)), (4, Rational(1, 4))]
    for n, eps in cases:
        witness, report = sharpness_witness(n, eps)
        assert len(witness) == n + 1
        assert witness.digits() == witness.numerators()
        assert witness.tail == Rational(1, 2)
        cv = convergents(witness)
        prod = 1
        for a in witness.numerators():
            prod *= a
        assert report.numerator_excess == (1 + eps) * prod - cv.p(n + 1)
        assert report.tail_advantage == \
            Rational(witness.numerators()[-1], cv.q(n + 1)) - (1 - eps) / cv.q(n)
        assert report.numerator_excess > Rational(0)
        assert report.tail_advantage > Rational(0)


def test_sharpness_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        sharpness_witness(2, Rational(0))
    with pytest.raises(ValueError):
        sharpness_witness(2, Rational(3, 2))
    with pytest.raises(ValueError):
        sharpness_witness(0, Rational(1, 2))
