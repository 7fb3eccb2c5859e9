from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest

from propcf.exactreal import (
    GOLDEN,
    Rational,
    Surd,
    frac_part,
    sqrt_exact,
)
from propcf.gauss2d import CylinderAddress
from propcf.pcf import (
    ConvergentSeq,
    ImproperDigits,
    MiddleCaseError,
    NotCoprime,
    PCFExpansion,
    PartialQuotient,
    _pairs_text,
    convergents,
    enumerate_rational_expansions,
    expand,
    expansion_from_json,
    expansion_to_json,
    longest_chain,
    one_minus_transform,
    pcf_step,
    rational_images,
    reconstruct,
)


def _random_surd_in_unit(rng) -> Surd:
    """A quadratic surd strictly between 0 and 1."""
    while True:
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        v = Surd(rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3]),
                 d, rng.randint(1, 7))
        t = frac_part(v)
        if isinstance(t, Surd):
            return t


def _random_expansion(rng, length=12, max_numerator=10):
    x = _random_surd_in_unit(rng)
    nums = [rng.randint(1, max_numerator) for _ in range(length)]
    return expand(x, nums), x


# ---------------------------------------------------------------------------
# stepping and expanding


def test_step_golden_frozen_values():
    b, nxt = pcf_step(GOLDEN, 2)
    assert b == 3 and nxt == Surd(-2, 1, 5, 1)          # 2/x = sqrt5+1
    b2, nxt2 = pcf_step(nxt, 2)
    assert b2 == 8 and nxt2 == Surd(-4, 2, 5, 1)        # 2/(sqrt5-2) = 2sqrt5+4
    b3, nxt3 = pcf_step(GOLDEN, 1)
    assert b3 == 1 and nxt3 == GOLDEN                   # 1/x - 1 fixes golden


def test_step_validates_domain():
    with pytest.raises(ValueError):
        pcf_step(Rational(3, 2), 1)
    with pytest.raises(ValueError):
        pcf_step(Rational(1, 2), 0)
    with pytest.raises(ValueError):
        pcf_step(Rational(0), 1)


def test_expand_worked_example():
    e = expand(Rational(5, 6), [4, 3, 2, 1, 1])
    assert e.pairs() == [(4, 4), (3, 3), (2, 2), (1, 1), (1, 2)]
    assert e.is_complete()
    cv = convergents(e)
    assert cv.pair(5) == (120, 144)
    assert cv.value(5) == Rational(5, 6)


def test_expand_stops_on_termination_and_caps():
    e = expand(Rational(5, 6), [4, 3, 2, 1, 1, 7, 7, 7])
    assert len(e) == 5                       # zero remainder stops the stream
    e2 = expand(GOLDEN, [1] * 20, max_len=4)
    assert len(e2) == 4 and e2.tail == GOLDEN
    e3 = expand(GOLDEN, [1, 1])
    assert e3.tail == GOLDEN                 # stream exhausted, remainder kept


def test_digit_properness_enforced():
    with pytest.raises(ImproperDigits):
        PartialQuotient(3, 2)
    with pytest.raises(ImproperDigits):
        PCFExpansion.from_pairs([(1, 1), (4, 2)])
    rng = random.Random(11)
    for _ in range(50):
        e, _ = _random_expansion(rng, length=8)
        assert all(q.b >= q.a >= 1 for q in e.quotients)


@pytest.mark.parametrize("pair", [(True, 2), (1, True), (True, True),
                                  (1.0, 2), (1, "2")])
def test_digit_pair_must_be_ints_not_bools(pair):
    # a bool is an int to isinstance, so it once slipped through and
    # printed as [True/2]
    with pytest.raises(TypeError, match="digit pair must be integers"):
        PartialQuotient(*pair)
    with pytest.raises(TypeError, match="digit pair must be integers"):
        CylinderAddress(*pair)
    with pytest.raises(TypeError, match="digit pair must be integers"):
        PCFExpansion.from_pairs([pair])
    # a pair of ints with b < a is still improper, not a type error
    with pytest.raises(ImproperDigits):
        PCFExpansion.from_pairs([(2, 1)])


def test_digit_pair_is_a_checked_tuple():
    pair = PartialQuotient(2, 5)
    assert pair == (2, 5) and hash(pair) == hash((2, 5))
    a, b = pair
    assert (a, b) == (pair.a, pair.b) == (2, 5)
    assert str(pair) == "2/5" and repr(pair) == "PartialQuotient(a=2, b=5)"
    for twin in (pickle.loads(pickle.dumps(pair)), copy.copy(pair),
                 copy.deepcopy(pair)):
        assert type(twin) is PartialQuotient and twin == pair
    # an expansion hands out the pairs it holds, which compare as tuples
    e = PCFExpansion.from_pairs([(2, 5), (1, 3)])
    assert all(type(q) is PartialQuotient for q in e.pairs())
    assert e.pairs() == [(2, 5), (1, 3)]


def test_convergents_take_any_iterable_of_pairs():
    e = expand(Rational(5, 6), [4, 3, 2, 1, 1])
    pairs = [(4, 4), (3, 3), (2, 2), (1, 1), (1, 2)]
    for given in (iter(pairs), (q for q in e.quotients), e.pairs(), e):
        seq = ConvergentSeq(given)
        assert len(seq) == 5
        assert [seq.pair(n) for n in range(-1, 6)] == \
            [ConvergentSeq(pairs).pair(n) for n in range(-1, 6)]


def test_remainders_stay_in_unit_interval():
    rng = random.Random(12)
    for _ in range(30):
        x = _random_surd_in_unit(rng)
        for _ in range(8):
            a = rng.randint(1, 10)
            b, x = pcf_step(x, a)
            assert Rational(0) <= x < Rational(1)
            assert b >= a


# ---------------------------------------------------------------------------
# convergents and matrix form


def _matrix_oracle(pairs):
    """Independent 2x2 products of [[0,a],[1,b]] for cross-checking."""
    m = ((1, 0), (0, 1))
    out = [m]
    for a, b in pairs:
        (m00, m01), (m10, m11) = m
        m = ((m00 * 0 + m01 * 1, m00 * a + m01 * b),
             (m10 * 0 + m11 * 1, m10 * a + m11 * b))
        out.append(m)
    return out


def test_convergent_seed_values():
    cv = convergents(PCFExpansion.from_pairs([(1, 2)]))
    assert cv.pair(-1) == (1, 0)
    assert cv.pair(0) == (0, 1)
    assert cv.pair(1) == (1, 2)


def test_recurrence_matches_matrix_products():
    rng = random.Random(13)
    for _ in range(40):
        e, _ = _random_expansion(rng, length=10)
        cv = convergents(e)
        mats = _matrix_oracle(e.pairs())
        for n in range(len(e) + 1):
            (m00, m01), (m10, m11) = mats[n]
            assert (m00, m10) == cv.pair(n - 1)
            assert (m01, m11) == cv.pair(n)


def test_determinant_identity_randomized():
    rng = random.Random(14)
    for _ in range(100):
        e, _ = _random_expansion(rng, length=rng.randint(1, 15))
        cv = convergents(e)
        prod = 1
        for n in range(len(e) + 1):
            assert cv.p(n - 1) * cv.q(n) - cv.p(n) * cv.q(n - 1) == (-1) ** n * prod
            if n < len(e):
                prod *= e.quotients[n].a


def test_convergents_alternate_around_value():
    rng = random.Random(15)
    for _ in range(25):
        e, x = _random_expansion(rng, length=9)
        cv = convergents(e)
        for n in range(1, len(e) + 1):
            c = cv.value(n)
            assert (c < x) if n % 2 == 0 else (c > x)


def test_error_bound_from_next_denominator():
    # |x - c_n| < (a_1 ... a_{n+1}) / (q_n q_{n+1})
    rng = random.Random(16)
    for _ in range(25):
        e, x = _random_expansion(rng, length=10)
        cv = convergents(e)
        prod = 1
        for i in range(len(e)):
            prod *= e.quotients[i].a
            n = i - 1
            if n >= 1:
                gap = abs(x - cv.value(n))
                assert gap < Rational(prod, cv.q(n) * cv.q(n + 1))


def test_linear_fractional_recombination():
    # x == (p_{n-1} x_n + p_n) / (q_{n-1} x_n + q_n) with x_n the remainder
    rng = random.Random(17)
    for _ in range(20):
        nums = [rng.randint(1, 6) for _ in range(8)]
        x = _random_surd_in_unit(rng)
        for n in range(1, 9):
            e = expand(x, nums[:n])
            cv = convergents(e)
            xn = e.tail
            lhs = (cv.p(n - 1) * xn + cv.p(n)) / (cv.q(n - 1) * xn + cv.q(n))
            assert lhs == x


# ---------------------------------------------------------------------------
# rationals: images, enumeration, chains


def test_rational_images_small_example():
    assert rational_images(3, 5) == {
        Fraction(0, 1): 3, Fraction(1, 3): 2, Fraction(2, 3): 1}


def test_rational_images_against_brute_force():
    rng = random.Random(18)
    for _ in range(40):
        s = rng.randint(3, 60)
        t = rng.choice([k for k in range(2, s) if gcd(k, s) == 1])
        got = rational_images(t, s)
        seen: dict[Fraction, int] = {}
        for n in range(1, t + 1):
            img = Fraction(n * s % t, t)
            seen.setdefault(img, n)
        assert got == seen
        assert set(got.values()) == set(range(1, t + 1))


def test_rational_images_validation():
    with pytest.raises(NotCoprime):
        rational_images(2, 6)
    with pytest.raises(ValueError):
        rational_images(5, 3)


def test_enumeration_lengths_cover_range():
    exps = enumerate_rational_expansions(Fraction(5, 6))
    assert {len(e) for e in exps} == {1, 2, 3, 4, 5}
    for e in exps:
        assert e.is_complete()
        assert reconstruct(e) == Rational(5, 6)
    only3 = enumerate_rational_expansions(Fraction(5, 6), length=3)
    assert only3 == [e for e in exps if len(e) == 3]


def test_enumeration_is_deterministic():
    a = enumerate_rational_expansions(Fraction(4, 7))
    b = enumerate_rational_expansions(Fraction(4, 7))
    assert a == b


def _descend_reference(t0: int, s0: int, length: int | None) -> list:
    """Every complete expansion of t0/s0 as a tuple of digit pairs, walked
    node by node: numerators 1..t at each remainder t/s, the step in plain
    integers, a leaf taken in turn among its siblings' subtrees."""
    results, prefix = [], []

    def descend(t: int, s: int):
        for numerator in range(1, t + 1):
            digit = numerator * s // t
            rem = numerator * s - digit * t
            prefix.append((numerator, digit))
            if rem == 0:
                if length is None or len(prefix) == length:
                    results.append(tuple(prefix))
            elif length is None or len(prefix) < length:
                g = gcd(rem, t)
                descend(rem // g, t // g)
            prefix.pop()

    descend(t0, s0)
    return results


def test_enumeration_memo_matches_node_walk():
    # every reduced t/s with s <= 15, unfiltered and at every length 1..t+1
    for s in range(2, 16):
        for t in range(1, s):
            if gcd(t, s) != 1:
                continue
            for length in (None, *range(1, t + 2)):
                walk = _descend_reference(t, s, length)
                full = enumerate_rational_expansions(Rational(t, s), length)
                assert [tuple(e.pairs()) for e in full] == walk
                assert all(e.is_complete() for e in full)
                text = enumerate_rational_expansions(Rational(t, s), length,
                                                     text=True)
                assert text == [_pairs_text(e.quotients) for e in full]


def test_longest_chain_values():
    for n in range(2, 10):
        chain = longest_chain(n)
        assert len(chain) == n - 1
        assert reconstruct(chain) == Rational(n - 1, n)
        # the same digits come out of expand with the matching numerators
        nums = [k for k in range(n - 2, 0, -1)] + [1]
        assert expand(Rational(n - 1, n), nums).pairs() == chain.pairs()
    assert longest_chain(6).pairs() == [(4, 4), (3, 3), (2, 2), (1, 1), (1, 2)]


def test_longest_chain_is_actually_longest():
    for n in range(2, 8):
        exps = enumerate_rational_expansions(Fraction(n - 1, n))
        assert max(len(e) for e in exps) == n - 1


# ---------------------------------------------------------------------------
# the 1-x rewrite


def _expansion_with_first_pair(rng, a1, b1, length=12):
    """Random expansion whose first digit pair is exactly (a1, b1)."""
    t = _random_surd_in_unit(rng)
    x = Rational(a1) / (b1 + t)
    nums = [a1] + [rng.randint(1, 5) for _ in range(length - 1)]
    e = expand(x, nums)
    assert e.quotients[0] == PartialQuotient(a1, b1)
    return e, x


def test_transform_prepends_unit_digit_case():
    rng = random.Random(19)
    for _ in range(40):
        a1 = rng.randint(1, 4)
        b1 = rng.randint(2 * a1, 2 * a1 + 5)
        e, x = _expansion_with_first_pair(rng, a1, b1)
        out = one_minus_transform(e)
        assert out.pairs()[:2] == [(1, 1), (a1, b1 - a1)]
        assert out.pairs()[2:] == e.pairs()[1:]
        assert reconstruct(out) == 1 - x
        cx, cy = convergents(e), convergents(out)
        for n in range(1, 11):
            assert cy.q(n + 1) == cx.q(n)


def test_transform_contracts_head_case():
    rng = random.Random(20)
    done = 0
    while done < 40:
        a1 = rng.randint(1, 3)
        e, x = _expansion_with_first_pair(rng, a1, a1)
        if a1 > 1:
            # the rewrite needs the second remainder below 1/a1; resample
            x2 = expand(x, e.numerators()[:2]).tail
            if not (x2 < Rational(1, a1)):
                continue
        out = one_minus_transform(e)
        assert reconstruct(out) == 1 - x
        cx, cy = convergents(e), convergents(out)
        for n in range(1, 11):
            assert cy.q(n) == cx.q(n + 1)
        done += 1


def test_transform_short_inputs():
    # complete rational, two digits: x = 1/(1 + 1/2) = 2/3, 1-x = 1/3
    e = expand(Rational(2, 3), [1, 1])
    assert e.pairs() == [(1, 1), (1, 2)]
    out = one_minus_transform(e)
    assert out.pairs() == [(1, 3)] and out.is_complete()
    assert reconstruct(out) == Rational(1, 3)
    # single digit with an exact tail grows unit-numerator steps as needed
    e1 = expand(GOLDEN, [1], max_len=1)
    out1 = one_minus_transform(e1)
    assert reconstruct(out1) == 1 - GOLDEN


def test_transform_improper_head_contraction_raises():
    e = expand(Rational(2) / (2 + GOLDEN), [2, 1, 1, 1, 1])
    assert e.pairs()[0] == (2, 2)
    with pytest.raises(ImproperDigits):
        one_minus_transform(e)


def test_transform_middle_case_raises():
    with pytest.raises(MiddleCaseError):
        one_minus_transform(PCFExpansion.from_pairs([(2, 3), (1, 1)]))
    with pytest.raises(MiddleCaseError):
        one_minus_transform(PCFExpansion.from_pairs([(3, 5), (2, 2)]))


def test_transform_rejects_value_one():
    with pytest.raises(ValueError):
        one_minus_transform(PCFExpansion.from_pairs([(1, 1)]))


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    e = expand(GOLDEN, [1, 1, 1])
    doc = expansion_to_json(e)
    assert doc["schema"] == 1
    assert expansion_from_json(doc) == e
    e2 = expand(Rational(5, 6), [4, 3, 2, 1, 1])
    assert expansion_from_json(expansion_to_json(e2)) == e2
    e3 = PCFExpansion((), False)  # a bool tail is its int value
    assert expansion_from_json(expansion_to_json(e3)) == e3


@pytest.mark.parametrize("pair", [[1.9, 2], [2, 2.5], [True, 2], ["3", 4]])
def test_json_refuses_digits_that_are_not_ints(pair):
    # the reader once ran int() first: [1.9, 2] loaded as [1/2]
    doc = {"schema": 1, "quotients": [pair], "tail": "0"}
    with pytest.raises(TypeError, match="digit pair must be integers"):
        expansion_from_json(doc)


def test_json_rejects_unknown_schema():
    with pytest.raises(ValueError):
        expansion_from_json({"schema": 2, "quotients": [], "tail": "0"})
