"""Property tests of the fast paths against slow references: ``Rational``
arithmetic, float conversion and decimal parsing against
``fractions.Fraction``, same-field ``Surd`` arithmetic
and order against the textbook formulas through the normalising
constructor, the fused expansion-step kernel against floor and
subtraction and its bare-int kernel against it, the lazily built
convergents against the eager recurrence, exact orbits against a
plain-``Fraction`` step loop and the identity |q_n x - p_n| = x_0 ... x_n,
the growth trend slope against the exact least-squares slope and the
growth report past the float range,
the joint step against its inverse branches, the unchecked enumeration tree
against ``expand`` and ``reconstruct``, the ``expand`` command's rows,
printed from decimal copies of the convergents, against ``str()`` of
``ConvergentSeq``'s ints, the per-index sign and margin of an expansion
against (-1)^n x_0 ... x_n, ``is_candidate`` against its rule chained on
exact values, the orbit walk's classical digits against ``expand`` with
numerators 1, the classification sweeps' shared floor memo
against the public per-p functions and the brute-force oracle, the
witness check by cylinder against the walk over the remainders, and the
CLI's JSON writer against ``json.dumps`` and its CSV writer against
``csv.writer``."""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import pytest
from hypothesis import example, given, settings, strategies as st

from propcf import cli
from propcf.candidates import (
    CandidatePair,
    Parity,
    RealizationWitness,
    _convergent_steps,
    _remainders,
    approximation_margins,
    candidate_p_for_q,
    is_candidate,
    q2_cutoff_check,
    realizable_as_q2,
    realizable_as_q2_oracle,
    realize_odd,
    sweep_q_rows,
    sweep_rows,
)
from propcf.exactreal import (
    GOLDEN,
    Rational,
    Surd,
    floor_exact,
    floor_times,
    frac_part,
    is_zero,
    parse_exact,
    to_text,
    _digit,
    _margin,
    _qdigit,
    _qwalk,
)
from propcf.gauss2d import (
    JointState,
    _classical_digits,
    OrbitRecord,
    ZeroCoordinate,
    growth_exponent,
    joint_step,
    orbit,
)
from propcf.pcf import (
    ConvergentSeq,
    PCFExpansion,
    PartialQuotient,
    enumerate_rational_expansions,
    expand,
    reconstruct,
)


def _magnitude(max_bits: int):
    """Positive integers of exactly 1 to ``max_bits`` bits."""
    return st.integers(1, max_bits).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))


def _fractions(max_bits: int = 4000):
    """Fractions with numerators of either sign or zero."""
    size = _magnitude(max_bits)
    return st.builds(Fraction, st.just(0) | size | size.map(operator.neg),
                     size)


def _unit_fractions(max_bits: int):
    """Fractions strictly inside (0, 1)."""
    return _magnitude(max_bits).filter(lambda den: den > 1).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: Fraction(num, den)))


def _rational(f: Fraction) -> Rational:
    return Rational(f.numerator, f.denominator)


def _assert_matches(r, f: Fraction):
    assert isinstance(r, Rational)
    assert r.den > 0 and math.gcd(r.num, r.den) == 1
    assert (r.num, r.den) == (f.numerator, f.denominator)


_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=300, deadline=None)
@given(_fractions(), _fractions(), st.integers(-(1 << 64), 1 << 64))
def test_rational_arithmetic_matches_fraction(fa, fb, k):
    a, b = _rational(fa), _rational(fb)
    for op in _OPS:
        # Rational with Rational, then each side against a plain int
        for left, right, fleft, fright in ((a, b, fa, fb), (a, k, fa, k),
                                           (k, b, k, fb)):
            if fright == 0 and op is operator.truediv:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            _assert_matches(op(left, right), op(fleft, fright))
    _assert_matches(-a, -fa)
    _assert_matches(abs(a), abs(fa))
    if fa:
        _assert_matches(1 / a, 1 / fa)
        _assert_matches(a ** -3, fa ** -3)
    else:
        with pytest.raises(ZeroDivisionError):
            1 / a
    _assert_matches(a ** 3, fa ** 3)
    _assert_matches(a.frac(), fa - math.floor(fa))


@settings(max_examples=300, deadline=None)
@given(_fractions(), _fractions())
def test_rational_order_hash_and_text_match_fraction(fa, fb):
    a, b = _rational(fa), _rational(fb)
    assert a.floor() == math.floor(fa)
    assert (a < b, a <= b, a > b, a >= b) == (fa < fb, fa <= fb, fa > fb,
                                              fa >= fb)
    assert (a == b) == (fa == fb)
    assert a == _rational(fa) and a == fa.numerator / Rational(fa.denominator)
    assert hash(a) == hash(fa)
    assert str(a) == str(fa)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 80),
       st.integers(-1200, 1200))
@example(1, 1, -1074)            # the least subnormal
@example(3, 1, -1076)            # a subnormal rounded half to even
@example(-1, 1, -1100)           # underflow to -0.0
@example(1, 1, 1024)             # just past the float range
@example(10**400, 10**399, 0)    # operands past the float range, result 10
def test_rational_float_matches_fraction(n, d, shift):
    # n/d scaled by 2**shift, so results reach subnormals and overflow
    n, d = (n << shift, d) if shift >= 0 else (n, d << -shift)
    try:
        expected = float(Fraction(n, d))
    except OverflowError:
        with pytest.raises(OverflowError):
            float(Rational(n, d))
        return
    assert repr(float(Rational(n, d))) == repr(expected)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("", "-")), st.text("0123456789", min_size=1, max_size=27),
       st.text("0123456789", min_size=1, max_size=27),
       st.integers(0, 3), st.integers(0, 3))
def test_decimal_literal_matches_fraction(sign, whole, digits, lead, trail):
    # up to 60 digits, with leading and trailing zeros
    text = f"{sign}{'0' * lead}{whole}.{digits}{'0' * trail}"
    assert parse_exact(text) == Fraction(text)


# ---------------------------------------------------------------------------
# same-field surds


_RADICANDS = (2, 3, 5, 7, 13)


def _signed(max_bits: int):
    size = _magnitude(max_bits)
    return size | size.map(operator.neg)


def _root_forms(max_bits: int = 200):
    """Integers (p, q, r) for (p + q*sqrt(d))/r with r > 0; q is 0, which
    makes a rational, a third of the time."""
    return st.tuples(st.just(0) | _signed(max_bits),
                     _signed(max_bits) | _signed(max_bits) | st.just(0),
                     _magnitude(max_bits))


def _field_value(d: int, p: int, q: int, r: int):
    """The canonical value of (p + q*sqrt(d))/r, and its own (p, q, r)."""
    value = Surd(p, q, d, r)
    if isinstance(value, Rational):
        return value, (value.num, 0, value.den)
    return value, (value.p, value.q, value.r)


def _assert_surd_matches(value, p: int, q: int, d: int, r: int):
    """``value`` is the canonical form of (p + q*sqrt(d))/r, as the
    normalising constructor builds it, and equal to it in integers."""
    slow = Surd(p, q, d, r)
    assert type(value) is type(slow) and repr(value) == repr(slow)
    if isinstance(value, Surd):
        assert value.d == d and value.q != 0 and value.r > 0
        assert math.gcd(value.p, value.q, value.r) == 1
        assert value.p * r == p * value.r and value.q * r == q * value.r
    else:
        assert q == 0 and value.den > 0
        assert Fraction(value.num, value.den) == Fraction(p, r)


def _sign_of_root_form(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) from the floor of |q|*sqrt(d), which is
    irrational for q != 0 and square-free d > 1."""
    if q == 0:
        return (p > 0) - (p < 0)
    s = math.isqrt(q * q * d)  # s < |q|*sqrt(d) < s + 1
    if q > 0:
        return 1 if -p <= s else -1
    return 1 if p > s else -1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RADICANDS), _root_forms(), _root_forms())
def test_surd_arithmetic_matches_textbook_formulas(d, left, right):
    u, (p1, q1, r1) = _field_value(d, *left)
    v, (p2, q2, r2) = _field_value(d, *right)
    _assert_surd_matches(u + v, p1 * r2 + p2 * r1, q1 * r2 + q2 * r1, d,
                         r1 * r2)
    _assert_surd_matches(u - v, p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, d,
                         r1 * r2)
    _assert_surd_matches(u * v, p1 * p2 + q1 * q2 * d, p1 * q2 + q1 * p2, d,
                         r1 * r2)
    _assert_surd_matches(-u, -p1, -q1, d, r1)
    norm = p2 * p2 - q2 * q2 * d  # 0 only for v == 0
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            u / v
        with pytest.raises(ZeroDivisionError):
            1 / v
        return
    _assert_surd_matches(u / v, r2 * (p1 * p2 - q1 * q2 * d),
                         r2 * (q1 * p2 - p1 * q2), d, r1 * norm)
    _assert_surd_matches(1 / v, r2 * p2, -r2 * q2, d, norm)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RADICANDS), _root_forms(), _root_forms())
def test_surd_order_and_text_match_slow_difference(d, left, right):
    u, (p1, q1, r1) = _field_value(d, *left)
    v, (p2, q2, r2) = _field_value(d, *right)
    # r1 * r2 > 0 times u - v
    sign = _sign_of_root_form(p1 * r2 - p2 * r1, q1 * r2 - q2 * r1, d)
    assert (u < v, u <= v, u == v, u >= v, u > v) == (
        sign < 0, sign <= 0, sign == 0, sign >= 0, sign > 0)
    assert (v < u) == (sign > 0)
    for value in (u, v, u + v, u * v):
        assert parse_exact(to_text(value)) == value


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RADICANDS), _root_forms(), st.just(0) | _signed(200))
def test_surd_with_int_operand_matches_textbook_formulas(d, form, k):
    # the int-operand paths build no Rational for k; a q of 0 makes u a
    # Rational, which takes the same paths
    u, (p, q, r) = _field_value(d, *form)
    for value in (u + k, k + u):
        _assert_surd_matches(value, p + k * r, q, d, r)
    _assert_surd_matches(u - k, p - k * r, q, d, r)
    _assert_surd_matches(k - u, k * r - p, -q, d, r)
    for value in (u * k, k * u):
        _assert_surd_matches(value, p * k, q * k, d, r)
    norm = p * p - q * q * d  # 0 only for u == 0
    if norm == 0:
        with pytest.raises(ZeroDivisionError):
            k / u
    else:
        _assert_surd_matches(k / u, k * r * p, -k * r * q, d, norm)
    # the floor m brackets u: u - m >= 0 > u - (m + 1), signs taken slowly
    m = u.floor()
    assert _sign_of_root_form(p - m * r, q, d) >= 0
    assert _sign_of_root_form(p - (m + 1) * r, q, d) < 0
    _assert_surd_matches(u.frac(), p - m * r, q, d, r)
    sign = _sign_of_root_form(p - k * r, q, d)  # of r * (u - k)
    assert (u < k, u <= k, u == k, u >= k, u > k) == (
        sign < 0, sign <= 0, sign == 0, sign >= 0, sign > 0)


def _multipliers():
    """Zero, small and 1000-bit integers of either sign."""
    big = st.integers(1 << 999, (1 << 1000) - 1)
    return st.just(0) | _signed(8) | big | big.map(operator.neg)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((5, 2, 7, 13)), _root_forms(), _fractions(200),
       _multipliers())
def test_floor_times_matches_floor_of_product(d, form, f, n):
    # the fields of the four benchmark values, those values and their
    # reciprocals, and rationals; the product goes through the general
    # Rational-times-value path
    values = [_field_value(d, *form)[0], _rational(f)]
    for spec in _FIELD_SPECS:
        x = parse_exact(spec)
        values += [x, 1 / x]
    for v in values:
        assert floor_times(n, v) == floor_exact(Rational(n) * v)


@settings(max_examples=300, deadline=None)
@given(_fractions(), st.sampled_from((5, 2, 7, 13)) | st.integers(2, 10**6),
       _root_forms(), _signed(4000))
def test_digit_kernel_matches_floor_and_remainder(f, d, form, n):
    # the fused kernel against the composition it replaces, on reduced
    # rationals of up to 4000 bits, the four benchmark values, and surds
    # of their fields and of random radicands; n runs up to 4000 bits
    p, q, r = form
    values = [_rational(f), Surd(p, q, d, r)]
    values += [parse_exact(spec) for spec in _FIELD_SPECS]
    for u in values:
        if u == 0:
            with pytest.raises(ZeroDivisionError):
                _digit(u, n)
            continue
        ratio = n / u
        b = floor_exact(ratio)
        expected = ratio - b
        digit, rem = _digit(u, n)
        assert digit == b
        assert type(rem) is type(expected) and repr(rem) == repr(expected)
        # and the remainder is in canonical form, checked slowly
        if isinstance(u, Rational):
            _assert_matches(rem, Fraction(n * u.den, u.num) - b)
        else:
            norm = u.p * u.p - u.q * u.q * u.d
            _assert_surd_matches(rem, n * u.r * u.p - b * norm,
                                 -n * u.r * u.q, u.d, norm)


@settings(max_examples=300, deadline=None)
@given(_fractions().filter(bool), _signed(4000))
def test_bare_int_kernel_matches_digit(f, n):
    # _qdigit is _digit's rational branch on bare ints: the same digit and
    # the same reduced remainder, on rationals and numerators of up to
    # 4000 bits and either sign
    u = _rational(f)
    digit, rem = _digit(u, n)
    assert _qdigit(u.num, u.den, n) == (digit, rem.num, rem.den)


def _one_step_walk(num, den, numerators):
    """The walk ``_qwalk`` does in blocks, one ``_qdigit`` per numerator
    until num reaches 0."""
    pairs = []
    for a in numerators:
        if not num:
            break
        b, num, den = _qdigit(num, den, a)
        pairs.append((a, b))
    return pairs, num, den


def _near_short_rational(pairs, m, d, extra):
    """(m*p + d, m*q) and numerators for the value p/q of a few digit
    pairs (the last with b > a), under the pairs' numerators and then
    ``extra``.  With d = 0 the walk reaches 0 after those pairs, inside a
    block once m*q has more bits than a block reads; a truncation rounded
    one way then reads b - 1 and a remainder near 1, the other way b and a
    remainder near 0."""
    p, q = ConvergentSeq(pairs).last()
    return m * p + d, m * q, [a for a, _ in pairs] + list(extra)


@st.composite
def _walk_cases(draw):
    """(num, den, numerators) with 0 <= num < den: random operands of 8 to
    6,000 bits, or a multiple of a short rational, moved by d in
    {-1, 0, 1}, of up to 6,000 bits; numerators all 1, or up to 2, 30 or
    1,000."""
    rng = random.Random(draw(st.integers(0, 1 << 64)))
    top = draw(st.sampled_from((1, 2, 30, 1000)))

    def numerators(count):
        return [rng.randint(1, top) for _ in range(count)]

    if draw(st.booleans()):
        bits = draw(st.integers(8, 6000))
        den = rng.getrandbits(bits) | (1 << (bits - 1))
        return rng.randrange(den), den, numerators(draw(st.integers(0, 4000)))
    pairs = []
    for a in numerators(draw(st.integers(1, 12))):
        pairs.append((a, a + rng.randint(0, 5)))
    a, b = pairs[-1]
    pairs[-1] = (a, b + 1)
    m = 2 + rng.getrandbits(draw(st.integers(1, 6000)))
    d = draw(st.sampled_from((-1, 0, 1)))
    count = draw(st.integers(0, 2) | st.integers(3, 3000))
    return _near_short_rational(pairs, m, d, numerators(count))


@settings(max_examples=200, deadline=None)
@given(_walk_cases())
# 2/3 as 2*7^k / 3*7^k, of about 270 bits: for k = 96 the block reads
# 1/1 1/1 1/1 and U = 0 with a = b, for k = 95 it reads 1/1 1/2 and a huge
# digit, and V = 0; each block must be refused
@example(_near_short_rational(((1, 1), (1, 2)), 7**96, 0, (1,)))
@example(_near_short_rational(((1, 1), (1, 2)), 7**95, 0, (1,)))
def test_block_walk_matches_one_step_walk(case):
    num, den, numerators = case
    pairs, end_num, end_den = _qwalk(num, den, numerators)
    ref_pairs, ref_num, ref_den = _one_step_walk(num, den, numerators)
    assert pairs == ref_pairs
    assert (end_num == 0) == (ref_num == 0)
    assert end_num * ref_den == ref_num * end_den
    if math.gcd(num, den) == 1:
        assert (end_num, end_den) == (ref_num, ref_den)


def _divisors_of(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_RADICANDS), _signed(4000), _signed(4000),
       st.integers(-13, 13).filter(bool).flatmap(
           lambda r: st.tuples(st.just(r),
                               st.sampled_from(_divisors_of(abs(r))))))
def test_surd_canonical_form_with_huge_parts(d, p, q, rg):
    # huge p and q over a small r, as in the margins of long expansions,
    # sharing a common factor g of r
    r, g = rg
    for value in (Surd(p * g, q * g, d, r),
                  Surd(p * g, q * g, d, r, _squarefree=True)):
        assert isinstance(value, Surd) and value.d == d
        assert value.r > 0 and math.gcd(value.p, value.q, value.r) == 1
        assert value.p * r == p * g * value.r
        assert value.q * r == q * g * value.r


def _fraction_orbit(x: Fraction, y: Fraction | None, n: int):
    """The joint map in plain Fractions; y None stands for the golden
    number, whose classical digits are all 1 and which 1/y - 1 fixes."""
    digits = []
    for _ in range(n):
        if x == 0 or y == 0:
            break
        if y is None:
            a = 1
        else:
            inv_y = 1 / y
            a = math.floor(inv_y)
            y = inv_y - a
        ratio = a / x
        b = math.floor(ratio)
        x = ratio - b
        digits.append((a, b))
    return digits


@settings(max_examples=60, deadline=None)
@given(_unit_fractions(1200), st.none() | _unit_fractions(1200),
       st.integers(0, 400))
def test_orbit_digits_match_fraction_loop(x, y, n):
    record = orbit(_rational(x), GOLDEN if y is None else _rational(y), n)
    assert list(record.digits) == _fraction_orbit(x, y, n)


_FIELD_SPECS = ("golden", "sqrt2-1", "(sqrt7-2)/3", "(sqrt13-3)/2")


def _digit_pairs(max_size: int):
    """Proper digit pairs (a, b), b >= a >= 1, with digits up to 40 bits."""
    return st.lists(st.tuples(_magnitude(40), st.integers(0, 1 << 40)).map(
        lambda ak: (ak[0], ak[0] + ak[1])), max_size=max_size)


@settings(max_examples=200, deadline=None)
@given(_digit_pairs(60), st.sampled_from(("p", "pair", "value", "last")))
def test_lazy_convergents_match_eager_recurrence(pairs, first):
    # the q half at once and the p half on first use, whichever accessor
    # asks for it first, give the pairs of the textbook recurrence
    ps, qs = [1, 0], [0, 1]
    for a, b in pairs:
        ps.append(b * ps[-1] + a * ps[-2])
        qs.append(b * qs[-1] + a * qs[-2])
    cs = ConvergentSeq(pairs)
    n = len(pairs)
    if first == "p":
        assert cs.p(n) == ps[-1]
    elif first == "pair":
        assert cs.pair(n) == (ps[-1], qs[-1])
    elif first == "value":
        assert cs.value(n) == Rational(ps[-1], qs[-1])
    else:
        assert cs.last() == (ps[-1], qs[-1])
    assert [cs.q(k) for k in range(-1, n + 1)] == qs
    assert [cs.p(k) for k in range(-1, n + 1)] == ps
    assert [cs.pair(k) for k in range(-1, n + 1)] == list(zip(ps, qs))
    assert cs.last() == (ps[-1], qs[-1]) and len(cs) == n


def _unit_points():
    """Exact points of (0, 1): rationals, and frac(k*v) for v from one of
    the four benchmark fields."""
    fields = st.builds(lambda spec, k: frac_part(k * parse_exact(spec)),
                       st.sampled_from(_FIELD_SPECS), st.integers(1, 500))
    return _unit_fractions(200).map(_rational) | fields


@settings(max_examples=200, deadline=None)
@given(_unit_points(), _unit_points(), st.integers(1, 6))
def test_joint_step_inverse_branches(x, y, steps):
    # the cylinder (a, b) of each step selects the inverse branch
    # x_prev = a/(b + x'), y_prev = 1/(a + y') that recovers the point
    state = JointState(x, y)
    for _ in range(steps):
        try:
            image, cell = joint_step(state)
        except ZeroCoordinate:
            break
        assert cell.a / (cell.b + image.x) == state.x
        assert 1 / (cell.a + image.y) == state.y
        state = image


@settings(max_examples=60, deadline=None)
@given(_unit_fractions(600), _unit_points(), st.integers(0, 200))
def test_orbit_convergents_satisfy_exact_identity(x, y, n):
    # |q_k x_0 - p_k| = x_0 x_1 ... x_k along the orbit of a rational x, in
    # Rational arithmetic: the orbit's q half and growth samples come from
    # its q-only recurrence, the p half is built lazily on first use, and
    # the remainders x_k = a_k/x_{k-1} - b_k are taken here independently
    x0 = _rational(x)
    record = orbit(x0, y, n)
    cs = record.convergents
    assert record.growth_samples == tuple(
        (k, math.log(cs.q(k)) / k) for k in range(1, record.steps + 1))
    rem = product = x0
    for k, (a, b) in enumerate(record.digits, start=1):
        rem = a / rem - b
        assert 0 <= rem < 1
        product *= rem
        assert abs(cs.q(k) * x0 - cs.p(k)) == product


def _exact_slope(samples) -> Fraction:
    """The least-squares slope through float samples (k, v), in Fractions."""
    m = len(samples)
    ks = [Fraction(k) for k, _ in samples]
    vs = [Fraction(v) for _, v in samples]
    mean_k, mean_v = sum(ks) / m, sum(vs) / m
    return (sum((k - mean_k) * (v - mean_v) for k, v in zip(ks, vs))
            / sum((k - mean_k) ** 2 for k in ks))


@settings(max_examples=100, deadline=None)
@given(_unit_fractions(600), _unit_points(), st.integers(0, 400),
       st.integers(1, 4))
def test_growth_slope_matches_exact_least_squares(x, y, n, stride):
    # the fitted trend slope against the exact slope of the same float
    # samples: every stride-th sample of an orbit, so k need not be
    # consecutive.  x keeps to 600 bits, where every sample is finite
    record = orbit(_rational(x), y, n)
    samples = record.growth_samples[::stride]
    record = OrbitRecord(record.digits, None, samples, record.requested)
    half = samples[len(samples) // 2:]
    slope = growth_exponent(None, None, n, record=record).trend_slope
    if len(half) < 2:
        assert math.isnan(slope)
    else:
        exact = _exact_slope(half)
        assert abs(Fraction(slope) - exact) <= abs(exact) / 10**12


@settings(max_examples=60, deadline=None)
@given(_magnitude(2000).filter(lambda den: den > 1), _unit_points(),
       st.integers(0, 40))
@example(10**400, Rational(1, 2), 1)
def test_growth_exponent_never_raises(den, y, n):
    # x = 1/den: a first digit above e**709.78 takes log(q_k)/k past what
    # exp can return as a float; the report reads inf there and is
    # unreliable, and every finite sample keeps its exp
    record = orbit(Rational(1, den), y, n)
    report = growth_exponent(None, None, n, record=record)
    samples = record.growth_samples
    if not samples:
        assert math.isnan(report.estimate)
        return
    last = samples[-1][1]
    quarter = [v for _, v in samples[(3 * len(samples)) // 4:]]
    if last < 709:
        assert report.estimate == math.exp(last)
    elif last > 710:
        assert report.estimate == math.inf
    if max(quarter) > 710:
        assert report.oscillation == math.inf and not report.reliable
    elif max(quarter) < 709:
        assert report.oscillation == max(abs(math.exp(v) - report.estimate)
                                         for v in quarter)


# ---------------------------------------------------------------------------
# the enumeration tree and the expand rows


@lru_cache(maxsize=None)
def _expansion_count(x: Fraction) -> int:
    """Complete expansions of x in (0, 1), counted in plain Fractions:
    numerators 1..numerator(x) at each remainder, and a zero remainder
    ends a branch."""
    total = 0
    for a in range(1, x.numerator + 1):
        rem = a / x - math.floor(a / x)
        total += 1 if rem == 0 else _expansion_count(rem)
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 40).flatmap(
    lambda s: st.tuples(st.integers(1, min(s - 1, 12)), st.just(s))))
def test_enumeration_round_trips_through_expand(ts):
    # numerators above 12 would make thousands of expansions per example
    t, s = ts
    value = Rational(t, s)
    full = enumerate_rational_expansions(value)
    assert len(full) == _expansion_count(Fraction(t, s))
    for e in full:
        assert PCFExpansion(e.quotients, Rational(0)) == e
        assert PCFExpansion.from_pairs(e.pairs()) == e  # each pair checked
        assert reconstruct(e) == value
        assert expand(value, e.numerators()) == e
    lengths = {len(e) for e in full}
    for k in sorted(lengths | {1, max(lengths) + 1}):
        assert enumerate_rational_expansions(value, length=k) == [
            e for e in full if len(e) == k]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_FIELD_SPECS)
       | _unit_fractions(64).map(lambda f: f"{f.numerator}/{f.denominator}"),
       st.lists(st.integers(1, 60), min_size=1, max_size=80)
       | st.integers(1, 9), st.integers(1, 200))
def test_expand_rows_match_convergent_reference(spec, numerators, length):
    # the cells are printed from decimal copies of p_n and q_n; each must
    # read as str() of the int pairs, the reduced Rational and the margin
    # chained on exact values, for literal lists and all:N alike
    if isinstance(numerators, int):
        flag, stream = f"all:{numerators}", repeat(numerators)
    else:
        flag, stream = ",".join(map(str, numerators)), numerators
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["expand", spec, "--numerators", flag,
                         "--len", str(length)])
    assert code == 0
    rows = json.loads(out.getvalue())["convergents"]
    x = parse_exact(spec)
    expansion = expand(x, stream, max_len=length)
    cv = ConvergentSeq(expansion)
    assert len(rows) == len(expansion)
    product = 1
    for n, (row, a) in enumerate(zip(rows, expansion.numerators()), start=1):
        p, q = cv.pair(n)
        product *= a
        # the determinant identity p_{n-1} q_n - p_n q_{n-1} = (-1)^n a_1...a_n
        assert cv.p(n - 1) * q - p * cv.q(n - 1) == (-1) ** n * product
        assert row == {
            "n": str(n), "a": str(a), "b": str(expansion.digits()[n - 1]),
            "p": str(p), "q": str(q), "reduced": to_text(Rational(p, q)),
            "det_residual": "0", "margin": to_text(x - abs(q * x - p))}


def _assert_same_value(got, want):
    assert type(got) is type(want) and repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(_unit_fractions(200), st.sampled_from((5, 2, 7, 13)), _root_forms(),
       st.integers(0, 3) | _magnitude(2000), _signed(2000) | st.just(0),
       _magnitude(64))
def test_margin_kernel_matches_chained_reference(f, d, form, q, p, k):
    # the one-constructor margin against x - abs(q*x - p) built step by
    # step, on rationals and surds in (0, 1) (the four benchmark values and
    # the fractional part of a random surd) and any q >= 0 and p; on a
    # rational x, q*x - p = 0 at (k*den, k*num) and the margin is x itself
    fp, fq, fr = form
    values = [_rational(f)] + [parse_exact(spec) for spec in _FIELD_SPECS]
    extra = frac_part(Surd(fp, fq, d, fr))
    if not is_zero(extra):
        values.append(extra)
    for x in values:
        _assert_same_value(_margin(x, q, p), x - abs(q * x - p))
        if isinstance(x, Rational):
            _assert_same_value(_margin(x, k * x.den, k * x.num), x)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FIELD_SPECS)
       | _unit_fractions(64).map(lambda f: f"{f.numerator}/{f.denominator}"),
       st.lists(st.integers(1, 60), min_size=1, max_size=80))
def test_approximation_margins_match_chained_reference(spec, numerators):
    x = parse_exact(spec)
    expansion = expand(x, numerators)
    cv = ConvergentSeq(expansion)
    margins = approximation_margins(x, expansion)
    assert len(margins) == len(expansion)
    for n, margin in enumerate(margins, start=1):
        _assert_same_value(margin, x - abs(cv.q(n) * x - cv.p(n)))


@settings(max_examples=60, deadline=None)
@given(_unit_points(), st.lists(st.integers(1, 60), min_size=1, max_size=40))
def test_convergent_steps_alternate_in_sign_until_the_expansion_ends(
        x, numerators):
    # q_n x - p_n = (-1)^n x_0 x_1 ... x_n along any expansion, whatever its
    # numerators: the sign is (-1)^n while the remainder x_n is not 0, and
    # 0 at the last index of a complete expansion; the margin is
    # x - x_0 ... x_n, with the remainders taken here by chained operators
    expansion = expand(x, numerators)
    steps = list(_convergent_steps(x, expansion.pairs()))
    assert len(steps) == len(expansion)
    cv = ConvergentSeq(expansion)
    rem = product = x
    for n, ((a, b), step) in enumerate(zip(expansion.pairs(), steps), 1):
        rem = a / rem - b
        product *= rem
        p_prev, q_prev, p, q, s, margin = step
        assert (p_prev, q_prev, p, q) == (*cv.pair(n - 1), *cv.pair(n))
        if is_zero(rem):
            assert s == 0 and n == len(expansion)
            assert expansion.is_complete()
        else:
            assert s == (-1) ** n
        assert margin == x - product


def _candidate_by_chain(x, p: int, q: int) -> CandidatePair | None:
    """``is_candidate``'s rule chained on exact values: |qx - p| < x, and
    qx - p is not 0; the even side when it is positive."""
    diff = q * x - p
    if not (abs(diff) < x) or is_zero(diff):
        return None
    return CandidatePair(p, q, Parity.EVEN if diff > Rational(0)
                         else Parity.ODD)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELD_SPECS).map(parse_exact)
       | _unit_fractions(64).map(_rational),
       st.integers(1, 5000), st.integers(-2, 2), st.integers(1, 6))
@example(Rational(2, 7), 7, 0, 3)     # (2k, 7k) hits x exactly
@example(GOLDEN, 1, 0, 1)
def test_is_candidate_matches_operator_chain(x, q, shift, k):
    # the pairs near q*x, and on a rational x those that hit it exactly
    pairs = [(floor_times(q, x) + shift, q)]
    if isinstance(x, Rational):
        pairs.append((k * x.num, k * x.den))
    for p, q in pairs:
        if p >= 1:
            assert is_candidate(x, p, q) == _candidate_by_chain(x, p, q)


@settings(max_examples=100, deadline=None)
@given(_unit_points(), st.integers(1, 80))
def test_classical_digits_match_unit_numerator_expansion(y, n):
    # expand --numerators rcf-of:SPEC reads y's digits from the orbit walk
    assert _classical_digits(y, n) == expand(y, repeat(1),
                                             max_len=n).digits()


# ---------------------------------------------------------------------------
# the classification sweeps


_REDUCED = [Rational(t, s) for s in range(2, 40) for t in range(1, s)
            if math.gcd(t, s) == 1]


def _witness_text(witness) -> str:
    if witness is None:
        return ""
    return " ".join(f"{q.a}/{q.b}" for q in witness.quotients)


def _p_rows_by_reference(x, p_max: int) -> list[dict]:
    """sweep_rows' rows rebuilt one p at a time from the public functions,
    each of which takes its own floors.  The one-step prefix of p expands
    from x even when p/x is whole, but (p, p/x) is then no candidate, so
    the odd row has no witness."""
    rows = []
    for p in range(1, p_max + 1):
        odd = realize_odd(x, p)
        q = odd.quotients[0].b
        if is_candidate(x, p, q) is None:
            odd = None
        even = realizable_as_q2(x, p)
        rows.append({"x": "x", "p": p, "q": q, "parity": "odd",
                     "realizable": odd is not None,
                     "witness": _witness_text(odd), "cutoff": ""})
        rows.append({"x": "x", "p": p, "q": q + 1, "parity": "even",
                     "realizable": even is not None,
                     "witness": _witness_text(even),
                     "cutoff": q2_cutoff_check(x, q + 1).value})
    return rows


def _q_rows_by_reference(x, q_min: int, q_max: int) -> list[dict]:
    rows = []
    for q in range(q_min, q_max + 1):
        p_even, p_odd = candidate_p_for_q(x, q)
        even = None if p_even is None else realizable_as_q2(x, p_even)
        rows.append({"x": "x", "q": q, "p_even": p_even, "p_odd": p_odd,
                     "even_realizable": None if p_even is None
                     else even is not None,
                     "witness": _witness_text(even),
                     "cutoff": q2_cutoff_check(x, q).value})
    return rows


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_REDUCED)
       | st.sampled_from(_FIELD_SPECS).map(parse_exact),
       st.integers(1, 120), st.integers(0, 120))
@example(Rational(3, 7), 1, 120)     # p/x whole for every third p
@example(GOLDEN, 60, 60)
def test_sweeps_match_per_p_references_and_oracle(x, low, width):
    by_p = sweep_rows(x, "x", low + width)
    assert by_p == _p_rows_by_reference(x, low + width)
    by_q = sweep_q_rows(x, "x", low, low + width)
    assert by_q == _q_rows_by_reference(x, low, low + width)
    # the brute force over two-step prefixes agrees on existence
    for row in by_p[1::2]:
        if row["cutoff"] != "not_even_candidate":
            found = realizable_as_q2_oracle(x, row["p"]) is not None
            assert found == row["realizable"], row
    for row in by_q:
        if row["p_even"] is not None:
            found = realizable_as_q2_oracle(x, row["p_even"]) is not None
            assert found == row["even_realizable"], row


@st.composite
def _prefixes(draw):
    """(x, digit pairs, index): the true digits of x for numerators 1..6,
    with at most one b moved by one, any digits once the expansion has
    ended, and an index anywhere in the prefix."""
    x = draw(st.sampled_from(_REDUCED[:100])
             | st.sampled_from(_FIELD_SPECS).map(parse_exact))
    length = draw(st.integers(1, 4))
    moved, shift = draw(st.integers(0, length)), draw(st.sampled_from((-1, 1)))
    pairs, rem = [], x
    for n in range(1, length + 1):
        a = draw(st.integers(1, 6))
        if is_zero(rem):
            b = draw(st.integers(a, a + 2))
        else:
            b, rem = _digit(rem, a)
            if n == moved:
                b = max(a, b + shift)
        pairs.append(PartialQuotient(a, b))
    return x, tuple(pairs), draw(st.integers(1, length))


@settings(max_examples=400, deadline=None)
@given(_prefixes())
# 1/2 = 1/(1 + 1/(1 + 0)): p_2/q_2 is x itself, but only with x_1 = 1
@example((Rational(1, 2), (PartialQuotient(1, 1), PartialQuotient(1, 1)), 2))
@example((Rational(2, 3), (PartialQuotient(2, 2), PartialQuotient(3, 3)), 1))
# 1/2 = [1/2] ends after one digit, so no second digit expands from it
@example((Rational(1, 2), (PartialQuotient(1, 2), PartialQuotient(1, 1)), 1))
def test_witness_cylinder_matches_remainder_walk(case):
    x, pairs, index = case
    expands = _remainders(x, pairs) is not None
    p, q = ConvergentSeq(pairs).pair(index)
    witness = RealizationWitness(pairs, index)
    assert witness.verify(x, p, q) == expands
    assert not witness.verify(x, p, q + 1)


def test_witness_landing_on_x_with_equal_last_digit_is_refused():
    # x = 1/2 lies on the end p_2/q_2 = 1/2 of the cylinder of 1/1 1/1
    # (s0 = 0), which a_2 = b_2 leaves out: it needs x_1 = 1
    half = Rational(1, 2)
    pairs = (PartialQuotient(1, 1), PartialQuotient(1, 1))
    assert ConvergentSeq(pairs).pair(2) == (1, 2)
    assert _remainders(half, pairs) is None
    assert not RealizationWitness(pairs, 2).verify(half, 1, 2)


# ---------------------------------------------------------------------------
# the JSON writer


def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


# non-ASCII text, quotes, backslashes, control characters and "" included
_JSON_TEXT = st.text(max_size=12) | st.sampled_from(
    ("", '"', "\\", "\n\t\x00\x1f\x7f", "π/√5 ∞", "\U0001d11e", 'a"b\\c'))
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats() | _JSON_TEXT)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12)


@st.composite
def _tables(draw, min_rows=1):
    """A list of rows with one key set (one column or many, non-ASCII
    keys included) and ``str`` cells, some of them empty."""
    keys = draw(st.lists(_JSON_TEXT, min_size=1, max_size=6, unique=True))
    return draw(st.lists(st.fixed_dictionaries(
        {key: _JSON_TEXT for key in keys}), min_size=min_rows, max_size=6))


@st.composite
def _broken_tables(draw):
    """Lists ``_json_text`` must hand to json.dumps: empty, ragged (a row
    with an extra key or without one) or holding an int, bool or None
    cell."""
    kind = draw(st.sampled_from(("empty", "extra", "missing", "cell")))
    if kind == "empty":
        return []
    rows = draw(_tables(min_rows=2))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    keys = sorted(row)
    if kind == "extra":
        row[draw(_JSON_TEXT.filter(lambda key: key not in row))] = "x"
    elif kind == "missing":
        del row[draw(st.sampled_from(keys))]
    else:
        row[draw(st.sampled_from(keys))] = draw(
            st.integers() | st.booleans() | st.none())
    return rows


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES | st.dictionaries(
    _JSON_TEXT, _JSON_VALUES | _tables() | _broken_tables(), max_size=6))
def test_json_text_matches_json_dumps(doc):
    assert cli._json_text(doc) == _dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_tables(), _broken_tables())
def test_json_text_writes_tables_and_leaves_the_rest_to_json(table, broken):
    # a table takes the template path; a broken one falls back, not raises
    assert cli._table_parts(table) is not None
    assert cli._table_parts(broken) is None
    doc = {"rows": table, "broken": broken, "n": 3}
    assert cli._json_text(doc) == _dumps(doc)


# ---------------------------------------------------------------------------
# the CSV writer


def _writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[col] for col in header])
    return buf.getvalue()


# plain cells, which the join writes, and every cell the writer quotes or
# must see: delimiter, quote, both line ends, empty, non-ASCII and U+2028
_CSV_TEXT = (st.text("ab1/ .-", max_size=6) | st.text(max_size=8)
             | st.sampled_from((",", '"', "\r", "\n", "\r\n", "", "a,b",
                                'x"y', "π/√5", "\u2028", "é\u2028")))
_CSV_CELLS = _CSV_TEXT | st.integers() | st.none() | st.floats()


@st.composite
def _csv_tables(draw):
    """A header of one column or many and 0-6 rows; a row may lack a key."""
    header = draw(st.lists(_CSV_TEXT, min_size=1, max_size=5, unique=True))
    cells = _CSV_TEXT if draw(st.booleans()) else _CSV_CELLS
    rows = draw(st.lists(st.fixed_dictionaries(
        {key: cells for key in header}), max_size=6))
    if rows and draw(st.integers(0, 9)) == 0:
        del draw(st.sampled_from(rows))[draw(st.sampled_from(header))]
    return header, rows


@settings(max_examples=400, deadline=None)
@given(_csv_tables())
@example((["a"], [{"a": ""}, {"a": "x"}]))
@example((["a", "b"], []))
@example((["a"], []))
@example((["a", "b"], [{"a": "1", "b": 2}, {"a": None, "b": 0.5}]))
@example((["a", "b"], [{"a": "1"}]))
@example((["a", "b"], [{"a": "\r\n", "b": ""}, {"a": "", "b": ""}]))
def test_csv_text_matches_csv_writer(table):
    header, rows = table
    try:
        expected = _writer_text(header, rows)
    except KeyError as exc:
        with pytest.raises(KeyError) as err:
            cli._csv_text(header, rows)
        assert err.value.args == exc.args
    else:
        assert cli._csv_text(header, rows) == expected
