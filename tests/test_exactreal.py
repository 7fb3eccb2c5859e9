from __future__ import annotations

import math
import random
from fractions import Fraction
from math import isqrt

import pytest

import mpmath

from propcf.exactreal import (
    GOLDEN,
    IncompatibleSurds,
    ParseError,
    Rational,
    Surd,
    _MAX_RADICAND,
    _squarefree_decompose,
    floor_exact,
    floor_times,
    frac_part,
    is_zero,
    parse_exact,
    sqrt_exact,
    to_text,
)


def _approx(v) -> float:
    return float(v)


# ---------------------------------------------------------------------------
# canonical form


def test_surd_normalization_is_canonical():
    # (2 + 2*sqrt(20))/4 = (2 + 4*sqrt(5))/4 = (1 + 2*sqrt(5))/2
    s = Surd(2, 2, 20, 4)
    assert (s.p, s.q, s.d, s.r) == (1, 2, 5, 2)
    # negative denominator flips all signs
    t = Surd(1, -1, 5, -2)
    assert (t.p, t.q, t.d, t.r) == (-1, 1, 5, 2)
    # building again from the canonical data is the identity
    assert Surd(s.p, s.q, s.d, s.r) == s


def test_surd_demotes_to_rational():
    assert Surd(3, 0, 7, 2) == Rational(3, 2)
    assert isinstance(Surd(3, 0, 7, 2), Rational)
    # perfect-square radicand collapses: (1 + 2*sqrt(9))/4 = 7/4
    assert Surd(1, 2, 9, 4) == Rational(7, 4)


def test_rational_lowest_terms():
    r = Rational(-6, -8)
    assert (r.num, r.den) == (3, 4)
    r = Rational(6, -8)
    assert (r.num, r.den) == (-3, 4)
    with pytest.raises(ZeroDivisionError):
        Rational(1, 0)


def test_sqrt_exact_extracts_square_part():
    assert sqrt_exact(8) == Surd(0, 2, 2, 1)
    assert sqrt_exact(9) == Rational(3)
    assert sqrt_exact(Fraction(1, 4)) == Rational(1, 2)
    # sqrt(5/9) = sqrt(45)/9 = 3 sqrt(5)/9 = sqrt(5)/3
    assert sqrt_exact(Fraction(5, 9)) == Surd(0, 1, 5, 3)
    # an int, a Fraction and a Rational of one value have one root
    for f in (Fraction(0), Fraction(8), Fraction(10**12 + 1), Fraction(5, 9),
              Fraction(7, 12)):
        assert sqrt_exact(f) == sqrt_exact(Rational(f))
        if f.denominator == 1:
            assert sqrt_exact(f.numerator) == sqrt_exact(f)
    for bad in (GOLDEN, Surd(0, 1, 2), 2.0, 0.25):
        with pytest.raises(TypeError):
            sqrt_exact(bad)
    with pytest.raises(ValueError):
        sqrt_exact(Rational(-1, 4))


# ---------------------------------------------------------------------------
# arithmetic against hand-rationalized values


def test_golden_arithmetic():
    g = GOLDEN
    assert g * g == Surd(3, -1, 5, 2)          # g^2 = (3 - sqrt5)/2
    assert 1 / g == Surd(1, 1, 5, 2)           # 1/g = (1 + sqrt5)/2 = g + 1
    assert 1 / g == g + 1
    assert g * g + g == Rational(1)            # the defining identity
    conj = Surd(-1, -1, 5, 2)
    assert g * conj == Rational(-1)


def test_reciprocal_of_sqrt5_minus_2():
    x = sqrt_exact(5) - 2
    y = Rational(2) / x
    assert y == Surd(4, 2, 5, 1)               # 2/(sqrt5-2) = 4 + 2 sqrt5
    assert floor_exact(y) == 8
    assert frac_part(y) == Surd(-4, 2, 5, 1)   # 2 sqrt5 - 4
    assert abs(_approx(y) - 8.47213595499958) < 1e-12


def test_cross_field_arithmetic_raises():
    with pytest.raises(IncompatibleSurds):
        sqrt_exact(2) + sqrt_exact(3)
    with pytest.raises(IncompatibleSurds):
        sqrt_exact(2) * sqrt_exact(5)
    # but ordering still works, decided exactly in integers
    assert sqrt_exact(2) - 1 < GOLDEN < sqrt_exact(3) - 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Rational(1) / Rational(0)
    with pytest.raises(ZeroDivisionError):
        Rational(1) / (sqrt_exact(5) - sqrt_exact(5))


# ---------------------------------------------------------------------------
# floor / frac


def test_floor_small_cases():
    assert floor_exact(sqrt_exact(2)) == 1
    assert floor_exact(-sqrt_exact(2)) == -2
    assert floor_exact(Surd(1, 1, 5, 2)) == 1     # (1+sqrt5)/2
    assert floor_exact(Rational(-7, 2)) == -4
    assert floor_exact(Rational(6, 3)) == 2


def test_floors_reject_inexact_values():
    # floats never mix in, also through the public floors
    for call in (lambda: floor_exact(0.5), lambda: floor_times(2, 0.5),
                 lambda: frac_part(0.5), lambda: is_zero(0.0)):
        with pytest.raises(TypeError):
            call()
    assert floor_times(3, Fraction(1, 2)) == 1 and is_zero(0)


def test_floor_frac_recombine_randomized():
    rng = random.Random(20260822)
    for _ in range(300):
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        v = Surd(rng.randint(-50, 50), rng.randint(-20, 20), d, rng.randint(1, 9))
        if isinstance(v, Rational):
            continue
        n = floor_exact(v)
        f = frac_part(v)
        assert v == f + n
        assert Rational(0) <= f
        assert f < Rational(1)
        # independent dyadic oracle for the floor: isqrt enclosure at 64 bits
        s = isqrt(v.q * v.q * v.d << 128)
        lo = Fraction(v.p * (1 << 64) + (s if v.q > 0 else -s - 1), v.r << 64)
        hi = Fraction(v.p * (1 << 64) + (s + 1 if v.q > 0 else -s), v.r << 64)
        assert math.floor(lo) == math.floor(hi) == n


def test_comparison_total_order_matches_floats():
    rng = random.Random(7)
    vals = [GOLDEN, Rational(1, 2), sqrt_exact(2) - 1, Rational(2, 3)]
    for _ in range(40):
        d = rng.choice([2, 3, 5, 7])
        vals.append(Surd(rng.randint(-8, 8), rng.randint(-5, 5), d, rng.randint(1, 6)))
    exact_sorted = sorted(vals)
    float_sorted = sorted(vals, key=_approx)
    assert [round(_approx(v), 9) for v in exact_sorted] == \
        [round(_approx(v), 9) for v in float_sorted]


def _mp_value(v):
    """v computed by mpmath alone, at its working precision."""
    if isinstance(v, Rational):
        return mpmath.mpf(v.num) / v.den
    return (v.p + v.q * mpmath.sqrt(v.d)) / v.r


def _random_mixed_value(rng):
    if rng.random() < 0.2:
        return Rational(rng.randint(-60, 60), rng.randint(1, 12))
    d = rng.choice([2, 3, 5, 7])
    q = rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 12))
    return Surd(rng.randint(-10**12, 10**12), q, d, rng.randint(1, 10**6))


def test_cross_field_sort_matches_mpmath():
    rng = random.Random(20261018)
    vals = [_random_mixed_value(rng) for _ in range(240)]
    # near ties: 1/3 + sqrt(d) - floor(m*sqrt(d))/m with m near 10^20 lies
    # within 1e-20 of 1/3 in each field, far below what a double separates
    for d in (2, 3, 5, 7):
        for den in (10**20, 10**20 + 1):
            num = isqrt(d * den * den)
            vals.append(Surd(0, 1, d, 1) - Rational(num, den) + Rational(1, 3))
    vals = list(dict.fromkeys(vals))  # distinct values, first seen first
    assert len(vals) >= 200
    exact_sorted = sorted(vals)
    with mpmath.workdps(200):
        reference = sorted(vals, key=_mp_value)
        assert exact_sorted == reference
        values = [_mp_value(v) for v in exact_sorted]
        assert all(a < b for a, b in zip(values, values[1:]))
    # every comparison is decided: no pair of distinct values ties
    for a, b in zip(exact_sorted, exact_sorted[1:]):
        assert b > a and not b < a and not a >= b


# ---------------------------------------------------------------------------
# square-free decomposition


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for f in range(2, isqrt(n - 1) + 1):
        if sieve[f]:
            sieve[f * f::f] = bytearray(len(range(f * f, n, f)))
    return [f for f in range(n) if sieve[f]]


_PRIMES = _primes_below(10**6)  # every prime factor of n < 10^12 but one


def _brute_squarefree(n):
    """Trial division by every prime below 10^6, exponent by exponent."""
    root = core = 1
    for f in _PRIMES:
        if f * f > n:
            break
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        root *= f ** (e // 2)
        core *= f ** (e % 2)
    return root, core * n


def test_squarefree_decompose_matches_brute_force():
    rng = random.Random(12)
    cases = [rng.randrange(1, 10**12) for _ in range(60)]
    big = [f for f in _PRIMES if f > 10**4]
    for _ in range(30):
        # after trial division up to n^(1/3) the cofactor is p^2 here ...
        p = rng.choice(big[:8000])
        cases.append(rng.randint(1, 10**12 // (p * p)) * p * p)
        # ... and a product of two distinct primes here
        p, q = rng.sample(big[:20000], 2)
        cases.append(rng.randint(1, 10**12 // (p * q)) * p * q)
        cases.append(p * q)
        cases.append(rng.choice(big) ** 2)
    # three prime factors near n^(1/3), and cubes right at the boundary
    near = [f for f in _PRIMES if 9000 < f < 10**4]
    for _ in range(30):
        p, q, r = rng.sample(near, 3)
        cases += [p * q * r, p * p * q, p ** 3]
    cases += list(range(1, 3000))
    for n in cases:
        assert 0 < n < 10**12
        root, core = _squarefree_decompose(n)
        assert (root, core) == _brute_squarefree(n)
        assert root * root * core == n


def test_radicand_ceiling():
    assert _squarefree_decompose(_MAX_RADICAND) == (10**9, 1)
    with pytest.raises(ValueError):
        sqrt_exact(_MAX_RADICAND + 1)
    with pytest.raises(ValueError):
        parse_exact("sqrt(1000000000000000001)")


# ---------------------------------------------------------------------------
# parsing and printing


def test_parse_basic_forms():
    assert parse_exact("5/6") == Rational(5, 6)
    assert parse_exact("-3") == Rational(-3)
    assert parse_exact("0.125") == Rational(1, 8)
    assert parse_exact("golden") == GOLDEN
    assert parse_exact("(sqrt5-1)/2") == GOLDEN
    assert parse_exact("(sqrt(5)-1)/2") == GOLDEN
    assert parse_exact(" ( 3 - sqrt(17) ) / 2 ") == Surd(3, -1, 17, 2)
    assert parse_exact("2*sqrt(7)/3") == Surd(0, 2, 7, 3)
    assert parse_exact("sqrt2-1") == Surd(-1, 1, 2, 1)
    # a name token is letters alone: "sqrt5" scans as sqrt and 5
    assert parse_exact("sqrt5") == parse_exact("sqrt 5") == \
        parse_exact("sqrt(5)") == Surd(0, 1, 5)


def test_parse_round_trip_exact():
    rng = random.Random(4)
    samples = [Rational(5, 6), Rational(-12), GOLDEN, Surd(4, 2, 5, 1),
               Surd(0, -1, 2, 3), Surd(-3, 7, 13, 11)]
    for _ in range(60):
        d = rng.choice([2, 3, 5, 7, 11, 13])
        samples.append(Surd(rng.randint(-99, 99), rng.randint(-99, 99) or 1,
                            d, rng.randint(1, 99)))
    for v in samples:
        if isinstance(v, Rational) or isinstance(v, Surd):
            assert parse_exact(to_text(v)) == v


def test_parse_errors_carry_position():
    for text, pos in [("2+", 2), ("sqrt(", 5), ("5/6)", 3), ("foo", 0)]:
        with pytest.raises(ParseError) as err:
            parse_exact(text)
        assert err.value.pos == pos
    for text, name in (("sqrtx", "sqrtx"), ("sqrt_5", "sqrt_")):
        with pytest.raises(ParseError) as err:
            parse_exact(text)
        assert str(err.value) == f"unknown name {name!r} (at position 0)"
    with pytest.raises(ParseError):
        parse_exact("")
    with pytest.raises(ParseError):
        parse_exact("1 @ 2")
    # scans, but has no exact value
    for text in ("1/0", "sqrt2+sqrt3-3", "2*sqrt5/(sqrt5-sqrt5)"):
        with pytest.raises(ParseError):
            parse_exact(text)


@pytest.mark.parametrize("text, pos", [
    ("sqrt(sqrt2)", 4), ("sqrt(sqrt(2))", 4), ("sqrt(1+sqrt5)", 4),
    ("1+sqrt(2*sqrt3)", 6)])
def test_nested_radical_is_refused_at_its_parenthesis(text, pos):
    with pytest.raises(ParseError) as err:
        parse_exact(text)
    assert (str(err.value), err.value.pos) == (
        f"nested radicals are not supported (at position {pos})", pos)


# A minus sign is one grammar rule, '-' factor: it binds tighter than * and
# /, and these values and errors pin what every leading, doubled or inner
# minus reads as.
@pytest.mark.parametrize("text, value", [
    ("--1", "1"),
    ("-2*3", "-6"),
    ("3*-2", "-6"),
    ("-(-3)", "3"),
    ("-3", "-3"),
    ("-1/2", "-1/2"),
    ("- 1/2", "-1/2"),
    ("-golden", "(1-sqrt(5))/2"),
    ("-sqrt5", "-sqrt(5)"),
    ("-(sqrt5-1)/2", "(1-sqrt(5))/2"),
    ("-sqrt(5)+3", "3-sqrt(5)"),
    ("1--1", "2"),
    ("1-(-1)", "2"),
    ("-1-1", "-2"),
    ("---2", "-2"),
    ("-0.5", "-1/2"),
    ("-0", "0"),
    ("2/-3", "-2/3"),
    ("-2/-3", "2/3"),
    ("-(1-sqrt2)*(1+sqrt2)", "1"),
])
def test_parse_minus_values(text, value):
    assert to_text(parse_exact(text)) == value


@pytest.mark.parametrize("text, message, pos", [
    ("-", "unexpected end of input (at position 1)", 1),
    ("   -  ", "unexpected end of input (at position 6)", 6),
    ("-2**2", "unexpected '*' (at position 3)", 3),
    ("-(", "unexpected end of input (at position 2)", 2),
    ("-)", "unexpected ')' (at position 1)", 1),
    ("-sqrt", "expected (, found 'end of input' (at position 5)", 5),
    ("-foo", "unknown name 'foo' (at position 1)", 1),
    ("-1 2", "trailing input '2' (at position 3)", 3),
    ("+1", "unexpected '+' (at position 0)", 0),
    ("-sqrt(2)-", "unexpected end of input (at position 9)", 9),
    ("-sqrt2*sqrt3", "cannot evaluate '-sqrt2*sqrt3': sqrt(2) and sqrt(3) "
     "do not mix exactly", None),
    ("-sqrt2+sqrt3", "cannot evaluate '-sqrt2+sqrt3': sqrt(2) and sqrt(3) "
     "do not mix exactly", None),
    ("-sqrt2*sqrt3*sqrt5", "cannot evaluate '-sqrt2*sqrt3*sqrt5': sqrt(2) "
     "and sqrt(3) do not mix exactly", None),
    ("-1/0", "cannot evaluate '-1/0': division by exact zero", None),
    # a negative radicand is refused where its parenthesis opens, as a
    # nested radical is
    ("sqrt(-4)", "negative radicand (at position 4)", 4),
    ("sqrt(0-4)", "negative radicand (at position 4)", 4),
])
def test_parse_minus_errors(text, message, pos):
    with pytest.raises(ParseError) as err:
        parse_exact(text)
    assert (str(err.value), err.value.pos) == (message, pos)


def test_sqrt_exact_keeps_its_value_error():
    # only text is a ParseError; a direct call with a negative number is not
    with pytest.raises(ValueError) as err:
        sqrt_exact(-4)
    assert type(err.value) is ValueError
    assert str(err.value) == "negative radicand"


def test_equality_and_hashing():
    assert Rational(1, 2) == Fraction(1, 2)
    assert Rational(3) == 3
    assert hash(Rational(3)) == hash(3)
    assert hash(Rational(1, 2)) == hash(Fraction(1, 2))
    assert GOLDEN != Rational(1, 2)
    assert sqrt_exact(2) != sqrt_exact(3)
    assert len({GOLDEN, Surd(-1, 1, 5, 2), 1 / GOLDEN - 1}) == 1
