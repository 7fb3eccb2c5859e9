"""Tests for candidate pairs, realizability, push-down/lift, sharpness."""
from __future__ import annotations

import random

import pytest

from propcf.candidates import (
    BoundTooSmall,
    CutoffVerdict,
    Parity,
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
    sweep_rows,
)
from propcf.exactreal import (
    GOLDEN,
    Rational,
    Surd,
    floor_exact,
    frac_part,
    sqrt_exact,
)
from propcf.pcf import PCFExpansion, convergents, expand, reconstruct


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


def test_oracle_bound_semantics():
    # truncated and empty-handed: absence is unproven
    with pytest.raises(BoundTooSmall):
        realizable_as_q2_oracle(GOLDEN, 2, bound=1)
    # truncated on one branch but a witness still turns up on another
    w = realizable_as_q2_oracle(GOLDEN, 3, bound=1)
    assert w is not None and w.verify(GOLDEN, 3, 5)
    # honest failure without a bound needs no exception
    assert realizable_as_q2_oracle(GOLDEN, 2) is None


@pytest.mark.parametrize("search", [realizable_as_q2, realizable_as_q2_oracle])
@pytest.mark.parametrize("x", [Rational(3, 2), Rational(0)])
def test_realizability_rejects_x_outside_unit_interval(search, x):
    with pytest.raises(ValueError):
        search(x, 6)


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


def test_cutoff_margin_survey_shape():
    rows = cutoff_margin_survey(GOLDEN, 20, bins=4)
    assert len(rows) == 4
    assert sum(r["realizable"] + r["unrealizable"] for r in rows) == 20
    for r in rows:
        # everything strictly below 1/2 is below the guaranteed cutoff
        if r["bin_high"] <= 0.5:
            assert r["unrealizable"] == 0


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
