"""Property tests of the fast paths against slow references: ``Rational``
arithmetic against ``fractions.Fraction``, same-field ``Surd`` arithmetic
and order against the textbook formulas through the normalising
constructor, and exact orbits against a plain-``Fraction`` step loop."""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from propcf.exactreal import GOLDEN, Rational, Surd, parse_exact, to_text
from propcf.gauss2d import orbit


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
