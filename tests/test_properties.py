"""Property tests of the fast paths against slow references: ``Rational``
arithmetic against ``fractions.Fraction``, and exact orbits against a
plain-``Fraction`` step loop."""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from propcf.exactreal import GOLDEN, Rational
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
