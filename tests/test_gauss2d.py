"""Tests for the joint map, orbits, growth estimates, and digit families."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from propcf.exactreal import (
    GOLDEN,
    Rational,
    Surd,
    frac_part,
    parse_exact,
    sqrt_exact,
)
from propcf.gauss2d import (
    CylinderAddress,
    JointState,
    OnBoundary,
    OrbitRecord,
    ZeroCoordinate,
    birkhoff_cylinder_frequencies,
    bits_for_orbit_length,
    cylinder_area_monte_carlo,
    cylinder_of,
    eigenvalues_of_digit_matrix,
    emit_y_scatter,
    engel_expand,
    engel_pairs,
    engel_step,
    float_orbit,
    greedy_y,
    growth_exponent,
    joint_step,
    leading_cylinders,
    orbit,
    random_unit_rational,
    varnum_expand,
    varnum_step,
    y_of_x,
    y_value_from_digits,
)
from propcf.pcf import PCFExpansion, expand, pcf_step, reconstruct

LEVY = 3.27582
PHI = (1 + math.sqrt(5)) / 2


def _random_unit_rational_small(rng):
    den = rng.randint(7, 997)
    return Rational(rng.randint(1, den - 1), den)


def _random_surd_in_unit(rng):
    while True:
        d = rng.choice([2, 3, 5, 6, 7, 10, 11, 13])
        v = frac_part(Rational(rng.randint(1, 9), rng.randint(2, 9))
                      + sqrt_exact(d) / rng.randint(2, 9))
        if isinstance(v, Surd) and Rational(0) < v < Rational(1):
            return v


# ---------------------------------------------------------------------------
# single steps and cylinders


def test_joint_step_golden_fixed_point():
    state, addr = joint_step(JointState(GOLDEN, GOLDEN))
    assert (addr.a, addr.b) == (1, 1)
    assert state.x == GOLDEN and state.y == GOLDEN
    assert state.step == 1


def test_joint_step_inverse_identity():
    rng = random.Random(430)
    for _ in range(1000):
        x = _random_unit_rational_small(rng)
        y = _random_unit_rational_small(rng)
        nxt, addr = joint_step(JointState(x, y))
        assert Rational(0) <= nxt.x < Rational(1)
        assert Rational(0) <= nxt.y < Rational(1)
        assert Rational(addr.a) / (addr.b + nxt.x) == x
        assert 1 / (addr.a + nxt.y) == y


def test_joint_step_zero_coordinate():
    with pytest.raises(ZeroCoordinate) as info:
        joint_step(JointState(Rational(0), GOLDEN))
    assert info.value.coordinate == "x"
    with pytest.raises(ZeroCoordinate) as info:
        joint_step(JointState(GOLDEN, Rational(0)))
    assert info.value.coordinate == "y"
    with pytest.raises(ZeroCoordinate) as info:
        joint_step(JointState(Rational(0), Rational(0)))
    assert info.value.coordinate == "both"


def test_joint_state_validation():
    with pytest.raises(ValueError):
        JointState(Rational(3, 2), GOLDEN)
    with pytest.raises(ValueError):
        JointState(GOLDEN, -GOLDEN)
    with pytest.raises(ValueError):
        JointState(GOLDEN, GOLDEN, step=-1)
    # [0, 1) is the domain of every remainder the map produces; 1 lies on
    # a cylinder gridline and no step reaches it
    with pytest.raises(ValueError, match=r"^x must lie in \[0, 1\)$"):
        JointState(Rational(1), GOLDEN)
    with pytest.raises(ValueError, match=r"^y must lie in \[0, 1\)$"):
        JointState(GOLDEN, Rational(1))


def test_cylinder_of_examples():
    assert cylinder_of(JointState(Rational(7, 10), Rational(7, 10))) == \
        CylinderAddress(1, 1)
    assert cylinder_of(JointState(Rational(2, 5), Rational(7, 10))) == \
        CylinderAddress(1, 2)
    with pytest.raises(OnBoundary):
        cylinder_of(JointState(Rational(1, 2), Rational(7, 10)))
    with pytest.raises(OnBoundary):
        cylinder_of(JointState(Rational(7, 10), Rational(1, 3)))


def test_cylinder_of_agrees_with_step():
    rng = random.Random(431)
    for _ in range(100):
        x = _random_unit_rational_small(rng)
        y = _random_unit_rational_small(rng)
        state = JointState(x, y)
        try:
            addr = cylinder_of(state)
        except OnBoundary:
            continue
        assert joint_step(state)[1] == addr
        (x_lo, x_hi), (y_lo, y_hi) = addr.x_interval(), addr.y_interval()
        assert Rational(x_lo) < x < Rational(x_hi)
        assert Rational(y_lo) < y < Rational(y_hi)


def test_cylinder_areas_telescope():
    # fixing a, the areas over all b >= a add up to 1/(a(a+1)) ...
    for a in range(1, 6):
        acc = Fraction(0)
        big = 4000
        for b in range(a, big + 1):
            acc += CylinderAddress(a, b).area
        assert acc == Fraction(1, a * (a + 1)) - Fraction(1, (a + 1) * (big + 1))
    # ... and those row totals add up to 1
    total = sum(Fraction(1, a * (a + 1)) for a in range(1, 200 + 1))
    assert total == 1 - Fraction(1, 201)


def test_cylinder_images_cover_four_quadrants():
    rng = random.Random(432)
    half = Rational(1, 2)
    for a in range(1, 4):
        for b in range(a, 6):
            addr = CylinderAddress(a, b)
            (x_lo, x_hi), (y_lo, y_hi) = addr.x_interval(), addr.y_interval()
            seen = set()
            for _ in range(100):
                u = Rational(rng.randint(1, 100), 101)
                w = Rational(rng.randint(1, 100), 101)
                x = Rational(x_lo) + (Rational(x_hi) - Rational(x_lo)) * u
                y = Rational(y_lo) + (Rational(y_hi) - Rational(y_lo)) * w
                nxt, got = joint_step(JointState(x, y))
                assert got == addr
                seen.add((nxt.x < half, nxt.y < half))
            assert len(seen) == 4, (a, b)


# ---------------------------------------------------------------------------
# orbits


def test_orbit_golden_is_fibonacci():
    rec = orbit(GOLDEN, GOLDEN, 10)
    assert rec.digits == ((1, 1),) * 10
    assert [rec.convergents.q(k) for k in range(1, 11)] == \
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert rec.terminated_by is None and not rec.truncated


def test_orbit_golden_y_reproduces_classical_digits():
    # with y = golden every numerator is 1, so the b_n are the classical
    # continued fraction digits of x
    num, den = 113, 355
    rec = orbit(Rational(num, den), GOLDEN, 50)
    digits = []
    a, b = num, den
    while a:
        digits.append(b // a)
        a, b = b % a, a
    assert [pair[1] for pair in rec.digits] == digits == [3, 7, 16]
    assert all(pair[0] == 1 for pair in rec.digits)
    assert rec.terminated_by == "x_zero"
    assert rec.truncated


def test_orbit_greedy_y_has_constant_numerator():
    rec = orbit(sqrt_exact(2) - 1, greedy_y(3), 8)
    assert all(a == 3 for a, _ in rec.digits)
    assert all(b >= 3 for _, b in rec.digits)
    assert rec.steps == 8
    # same digits as the fixed-numerator expansion of x
    scalar = expand(sqrt_exact(2) - 1, [3] * 8)
    assert [q.b for q in scalar.quotients] == [b for _, b in rec.digits]


def _step_chain(x, y, n):
    """Digits and stop reason from repeated joint_step calls."""
    state, digits = JointState(x, y), []
    for _ in range(n):
        try:
            state, addr = joint_step(state)
        except ZeroCoordinate as exc:
            return digits, f"{exc.coordinate}_zero"
        digits.append((addr.a, addr.b))
    return digits, None


def test_orbit_matches_joint_step_chain():
    rng = random.Random(31)
    seeds = [(Rational(1, 2), Rational(1, 2), 30), (GOLDEN, Rational(2, 7), 30),
             (Rational(3, 5), GOLDEN, 30)]
    for _ in range(40):
        pick = [_random_unit_rational_small, _random_surd_in_unit]
        seeds.append((rng.choice(pick)(rng), rng.choice(pick)(rng), 30))
    # quadratic y whose digits repeat with period 1 or 4 from the start,
    # period 4 after two digits (5, 2), and period 6 after one, each run
    # long enough to wrap its period several times
    tail = parse_exact("(sqrt7-2)/3")
    for y in (parse_exact("(sqrt13-3)/2"), tail, 1 / (5 + 1 / (2 + tail)),
              parse_exact("sqrt6/7")):
        seeds += [(_random_surd_in_unit(rng), y, 40),
                  (random_unit_rational(rng, 200), y, 40)]
    # a rational y that runs out before x does, under a rational x (both
    # walk as bare ints) and under a surd x; a rational x that runs out
    # under a surd y and under a rational y with digits to spare
    short_y = y_value_from_digits([3, 1, 2])
    long_x = random_unit_rational(rng, 200)
    ends = [(long_x, short_y, 30, "y_zero"),
            (_random_surd_in_unit(rng), short_y, 30, "y_zero"),
            (Rational(5, 17), parse_exact("(sqrt13-3)/2"), 30, "x_zero"),
            (Rational(5, 17), random_unit_rational(rng, 200), 30, "x_zero")]
    # a rational y whose last digit falls on x's last step: both run out
    # after four steps, which ends a run of 5 but completes a run of 4
    y = y_value_from_digits([2, 3, 1, 4])
    x = reconstruct(PCFExpansion.from_pairs([(2, 5), (3, 3), (1, 7), (4, 9)]))
    ends += [(x, y, 30, "both_zero"), (x, y, 5, "both_zero"),
             (x, y, 4, None), (x, y, 3, None)]
    reasons = set()
    for x, y, n in seeds + [end[:3] for end in ends]:
        rec = orbit(x, y, n)
        digits, reason = _step_chain(x, y, n)
        assert list(rec.digits) == digits
        assert rec.terminated_by == reason
        reasons.add(reason)
    for x, y, n, reason in ends:
        assert orbit(x, y, n).terminated_by == reason
    assert orbit(x, y, 30).steps == 4
    assert reasons == {None, "x_zero", "y_zero", "both_zero"}


def test_orbit_from_rational_equals_orbit_from_step_image():
    # the same rational x as a literal and as the image joint_step builds
    # from its preimage under cell (a, b): one orbit, digit for digit,
    # sample for sample, with the same end
    rng = random.Random(32)
    seeds = [(Rational(113, 355), GOLDEN, 60),
             (Rational(5, 17), y_value_from_digits([2, 3]), 60),
             (_random_unit_rational_small(rng), y_value_from_digits([1] * 9), 60)]
    for _ in range(20):
        y = rng.choice([_random_unit_rational_small, _random_surd_in_unit])(rng)
        seeds.append((random_unit_rational(rng, 120), y, 60))
    for x, y, n in seeds:
        a, b = rng.randint(1, 4), rng.randint(4, 9)
        image, cell = joint_step(JointState(a / (b + x), 1 / (a + y)))
        assert (cell.a, cell.b) == (a, b)
        assert image.x == x and image.y == y
        direct, stepped = orbit(x, y, n), orbit(image.x, image.y, n)
        assert direct.digits == stepped.digits
        assert direct.growth_samples == stepped.growth_samples
        assert direct.terminated_by == stepped.terminated_by


def test_orbit_zero_steps():
    rec = orbit(GOLDEN, GOLDEN, 0)
    assert rec.digits == () and rec.steps == 0
    assert not rec.truncated


def test_growth_golden_reaches_phi():
    report = growth_exponent(GOLDEN, GOLDEN, 400)
    assert abs(report.estimate - PHI) < 0.01
    assert report.reliable
    assert report.oscillation < 0.05 * report.estimate
    assert abs(report.trend_slope) < 1e-4


def test_growth_levy_regime():
    # classical-digit regime: y = golden, exact high-entropy rational seeds
    for master in (0, 1):
        rng = random.Random(master)
        x0 = random_unit_rational(rng, bits_for_orbit_length(1500))
        report = growth_exponent(x0, GOLDEN, 1500)
        assert report.reliable and not report.truncated
        assert abs(report.estimate - LEVY) / LEVY < 0.08


def test_growth_flags_truncation():
    rng = random.Random(2)
    report = growth_exponent(random_unit_rational(rng, 64), GOLDEN, 5000)
    assert report.truncated
    assert not report.reliable
    assert report.steps < 100


def test_growth_tiny_orbit_unreliable():
    report = growth_exponent(GOLDEN, GOLDEN, 1)
    assert report.estimate == 1.0  # q_1 = 1
    assert not report.reliable


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_growth_slope_needs_two_points(n):
    # the slope is fitted over the final half: n - n // 2 samples
    report = growth_exponent(GOLDEN, GOLDEN, n)
    assert report.steps == n and not report.truncated
    assert math.isnan(report.estimate) == (n == 0)
    if n - n // 2 < 2:
        assert math.isnan(report.trend_slope)
    else:
        # q_2 = 2 and q_3 = 3
        exact = Fraction(math.log(3) / 3) - Fraction(math.log(2) / 2)
        assert report.trend_slope == float(exact)


def test_growth_slope_of_two_samples_is_their_rounded_difference():
    # at n = 3 the fit runs through samples 2 and 3, one step apart, so its
    # slope is v_3 - v_2 rounded once, also where v_3 exceeds 2 v_2 and
    # neither value minus their mean need be a float
    rng = random.Random(2412)
    pairs = []
    for _ in range(1000):
        x0 = random_unit_rational(rng, 16)
        y0 = rng.choice([GOLDEN, random_unit_rational(rng, 16)])
        record = orbit(x0, y0, 3)
        if record.steps == 3:
            report = growth_exponent(x0, y0, 3, record=record)
            pairs.append((record.growth_samples[1:], report.trend_slope))
    for _ in range(1000):
        samples = ((1, rng.random()), (2, rng.random()), (3, rng.uniform(0, 8)))
        record = OrbitRecord(((1, 1),) * 3, None, samples, 3)
        report = growth_exponent(None, None, 3, record=record)
        pairs.append((samples[1:], report.trend_slope))
    for ((_, v2), (_, v3)), slope in pairs:
        assert slope == float(Fraction(v3) - Fraction(v2))
    assert sum(v3 > 2 * v2 for ((_, v2), (_, v3)), _ in pairs) > 500


def test_growth_slope_over_samples_with_gaps():
    # growth_exponent takes any record: k need not be consecutive, and here
    # its mean 13/3 is no float; the values lie on an exact line
    samples = tuple((k, 1.5 - k / 64) for k in (1, 2, 3, 5, 6, 9))
    record = OrbitRecord(((1, 1),) * 9, None, samples, 9)
    report = growth_exponent(None, None, 9, record=record)
    assert report.trend_slope == pytest.approx(-1 / 64, rel=1e-15)


@pytest.mark.parametrize("x0, y0", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0),
                                    (0.5, 1.0), (-0.25, 0.5), (0.5, 1.5)])
def test_float_orbit_rejects_seeds_outside_the_unit_interval(x0, y0):
    with pytest.raises(ValueError) as err:
        float_orbit(x0, y0, 5)
    assert str(err.value) == "seeds must lie in (0, 1)"


@pytest.mark.parametrize("x0, y0, reason", [(0.5, 0.375, "x_zero"),
                                            (0.75, 0.5, "y_zero"),
                                            (0.5, 0.5, "both_zero")])
def test_float_orbit_ends_on_a_zero_coordinate(x0, y0, reason):
    # dyadic seeds: the float orbit reads the exact orbit's one digit pair,
    # then stops where the exact orbit stops
    record = float_orbit(x0, y0, 5)
    exact = orbit(Rational(Fraction(x0)), Rational(Fraction(y0)), 5)
    assert record.digits == exact.digits and record.steps == 1
    assert record.terminated_by == exact.terminated_by == reason
    assert record.truncated
    # a run that ends on the last requested step has nothing to report
    assert float_orbit(x0, y0, 1).terminated_by is None


def test_float_orbit_matches_exact_prefix():
    rec_f = float_orbit(0.61803398875, 0.61803398875, 12)
    rec_e = orbit(GOLDEN, GOLDEN, 12)
    assert rec_f.digits[:8] == rec_e.digits[:8]
    # ratio-recurrence growth samples track the big-int ones
    for (k1, v1), (k2, v2) in zip(rec_f.growth_samples, rec_e.growth_samples):
        assert k1 == k2 and abs(v1 - v2) < 1e-9


def test_eigenvalues_frozen_and_vieta():
    assert eigenvalues_of_digit_matrix(1, 1) == (GOLDEN + 1, -GOLDEN)
    plus, minus = eigenvalues_of_digit_matrix(2, 3)
    assert plus == (sqrt_exact(17) + 3) / 2
    assert minus == (3 - sqrt_exact(17)) / 2
    rng = random.Random(433)
    for _ in range(50):
        a, b = rng.randint(1, 30), rng.randint(1, 30)
        plus, minus = eigenvalues_of_digit_matrix(a, b)
        assert plus + minus == Rational(b)
        assert plus * minus == Rational(-a)
    # a perfect-square discriminant degrades to rationals
    assert eigenvalues_of_digit_matrix(2, 1) == (Rational(2), Rational(-1))


def test_birkhoff_frequencies_golden():
    freq = birkhoff_cylinder_frequencies(GOLDEN, GOLDEN, 40)
    assert freq == {CylinderAddress(1, 1): Fraction(1)}


def test_birkhoff_frequencies_float_run():
    freq = birkhoff_cylinder_frequencies(0.1234567891, 0.9876543215, 30000)
    assert sum(freq.values()) == 1
    for a in (1, 2):
        for b in range(a, 4):
            assert CylinderAddress(a, b) in freq, (a, b)
    assert all(v > 0 for v in freq.values())


# ---------------------------------------------------------------------------
# scalar families


def test_varnum_step_examples():
    a, b, nxt = varnum_step(GOLDEN)
    assert (a, b) == (1, 1) and nxt == GOLDEN
    assert varnum_step(Rational(2, 5)) == (2, 5, Rational(0))
    assert varnum_step(Rational(9, 10)) == (1, 1, Rational(1, 9))


def test_varnum_digit_bounds():
    rng = random.Random(434)
    for _ in range(100):
        x = (_random_unit_rational_small(rng) if rng.random() < 0.5
             else _random_surd_in_unit(rng))
        pairs, _ = varnum_expand(x, 10)
        for a, b in pairs:
            assert a <= b <= a * a + a - 1
            assert b >= a * a  # the sharp lower end


def test_engel_step_examples():
    assert engel_step(Rational(1, 2)) == (2, Rational(0))
    b1, nxt = engel_step(Rational(2, 3))
    assert (b1, nxt) == (1, Rational(1, 2))
    assert engel_step(nxt) == (2, Rational(0))


def test_engel_digits_never_decrease():
    rng = random.Random(435)
    for _ in range(100):
        x = _random_unit_rational_small(rng)
        digits, _ = engel_expand(x, 25)
        assert all(d2 >= d1 for d1, d2 in zip(digits, digits[1:]))


def test_engel_two_routes_agree():
    rng = random.Random(436)
    for _ in range(40):
        x = (_random_unit_rational_small(rng) if rng.random() < 0.5
             else _random_surd_in_unit(rng))
        depth = 8
        digits, tail_scalar = engel_expand(x, depth)
        pairs, tail_pairs = engel_pairs(x, depth)
        assert [b for _, b in pairs] == digits
        assert [a for a, _ in pairs] == [1] + digits[:-1]
        # the pair-route remainder is the scalar remainder scaled by the
        # digit just consumed
        if digits:
            assert tail_pairs == digits[-1] * tail_scalar
        # stepwise version of the same relation
        scalar_x, chain_x, a = x, x, 1
        for _ in range(len(digits)):
            b, scalar_next = engel_step(scalar_x)
            b2, chain_next = pcf_step(chain_x, a)
            assert b2 == b
            assert chain_next == b * scalar_next
            scalar_x, chain_x, a = scalar_next, chain_next, b


def test_y_of_x_basics():
    assert y_of_x(GOLDEN, "varnum", 6) == [1] * 6
    assert y_of_x(GOLDEN, "greedy", 5, n=3) == [3] * 5
    engel_digits = y_of_x(sqrt_exact(2) - 1, "engel", 6)
    assert engel_digits[0] == 1
    assert y_value_from_digits(engel_digits) > Rational(1, 2)
    # rational input: the finite digit list [1, 2] contributes every digit
    # as a numerator, so the chain is one entry longer than the expansion
    assert y_of_x(Rational(2, 3), "engel", 6) == [1, 1, 2]
    assert y_value_from_digits([1, 1, 2]) == Rational(3, 5)
    with pytest.raises(ValueError):
        y_of_x(GOLDEN, "greedy", 5)
    with pytest.raises(ValueError):
        y_of_x(GOLDEN, "nonsense", 5)


def test_y_value_from_digits():
    assert y_value_from_digits([1, 1, 1, 1]) == Rational(3, 5)
    assert y_value_from_digits([2], guard=2) == Rational(2, 5)
    assert y_value_from_digits([]) == Rational(0)
    with pytest.raises(ValueError):
        y_value_from_digits([3], guard=1)


def test_family_embedding_in_joint_map():
    """Scalar-family expansions equal joint orbits seeded with y_of_x."""
    rng = random.Random(437)
    depth = 8
    xs = [_random_surd_in_unit(rng) for _ in range(6)] + \
        [Rational(113, 355), Rational(17, 39)]
    for x in xs:
        for family in ("varnum", "engel"):
            y_digits = y_of_x(x, family, depth)
            if family == "varnum":
                scalar_pairs, _ = varnum_expand(x, depth)
            else:
                scalar_pairs, _ = engel_pairs(x, depth)
            y = y_value_from_digits(y_digits, guard=2)
            rec = orbit(x, y, len(scalar_pairs))
            assert list(rec.digits) == scalar_pairs, (family, str(x))
    # greedy: exact periodic y, never terminates
    for n in (2, 4):
        x = _random_surd_in_unit(rng)
        rec = orbit(x, greedy_y(n), depth)
        scalar = expand(x, [n] * depth)
        assert [a for a, _ in rec.digits] == [n] * depth
        assert [b for _, b in rec.digits] == [q.b for q in scalar.quotients]


def test_varnum_functional_equation_residual():
    rng = random.Random(438)
    depth = 10
    bound = Rational(4, 2 ** depth)
    for _ in range(8):
        x = _random_surd_in_unit(rng)
        lhs = y_value_from_digits(y_of_x(x, "varnum", depth))
        # the shifted argument j/(k+x) has first digit pair (j,k) and tail x
        for j, k in ((1, 1), (2, 4), (2, 5)):
            w = Rational(j) / (k + x)
            rhs = 1 / y_value_from_digits(y_of_x(w, "varnum", depth)) - j
            assert abs(lhs - rhs) <= bound


def test_emit_y_scatter_rows():
    rows = emit_y_scatter("engel", 12, 6)
    assert len(rows) == 12
    live = [r for r in rows if not r["skip"]]
    assert live, "expected emitted rows on the grid"
    for r in live:
        y = Rational(int(r["y_num"]), int(r["y_den"]))
        assert y > Rational(1, 2)
        assert 1 <= int(r["digits_used"]) <= 6
    # deterministic
    assert rows == emit_y_scatter("engel", 12, 6)


def test_emit_y_scatter_varnum_residuals():
    depth = 8
    rows = emit_y_scatter("varnum", 20, depth)
    checked = 0
    for r in rows:
        if r["skip"]:
            continue
        assert r["residual"] != ""
        if "/" in r["residual"]:
            num, den = r["residual"].split("/")
            value = Rational(int(num), int(den))
        else:
            value = Rational(int(r["residual"]))
        assert value <= Rational(4, 2 ** depth)
        if int(r["digits_used"]) < depth:
            assert value == Rational(0)  # both sides completed exactly
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# seeds and Monte Carlo areas


def test_bits_for_orbit_length():
    assert bits_for_orbit_length(5000) == 9586
    assert bits_for_orbit_length(0) == 1024


def test_random_unit_rational_shape():
    rng = random.Random(99)
    r = random_unit_rational(rng, 256)
    # the raw draw is num/den with den in [2^256, 2^257); reduction may
    # shave a few bits but cannot change the value
    check = random.Random(99)
    den = (1 << 256) | check.getrandbits(256)
    num = check.randrange(1, den)
    assert den.bit_length() == 257
    assert r == Rational(num, den)
    assert 0 < r.num < r.den
    assert r.den.bit_length() > 240
    # deterministic for a fixed seed
    again = random_unit_rational(random.Random(99), 256)
    assert r == again


def test_orbit_consumes_seed_entropy_linearly():
    """A 256-bit seed dies near step 150 — far short of long-orbit needs,
    which is what bits_for_orbit_length compensates for."""
    rng = random.Random(5)
    rec = orbit(random_unit_rational(rng, 256), GOLDEN, 5000)
    assert rec.terminated_by == "x_zero"
    assert 80 < rec.steps < 260


def test_leading_cylinders_frozen():
    assert leading_cylinders(9) == [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
                                    (1, 4), (3, 3), (1, 5), (2, 4)]


def test_cylinder_area_monte_carlo():
    rows = cylinder_area_monte_carlo(10 ** 6, seed=14)
    assert len(rows) == 9
    for row in rows:
        assert row["relative_error"] < 0.01, (row["a"], row["b"])
    # reproducible bit for bit
    again = cylinder_area_monte_carlo(10 ** 6, seed=14)
    assert rows == again
