"""Joint expansion dynamics on the unit square and the scalar digit families.

The two-coordinate map reads a numerator digit a = floor(1/y) off the
second coordinate and a denominator digit b = floor(a/x) off the first,
then moves to (a/x - b, 1/y - a).  It is two calls of the one
expansion step, ``exactreal._digit``: the classical Gauss step,
numerator 1, on y, and the step with numerator a on x.  Each digit pair
labels an open rectangle (cylinder) of the square, and iterating the map
expands x as a proper continued fraction whose numerators are the
classical digits of y.
Choosing y by formula instead gives the scalar families: y = golden mean
reproduces the classical expansion of x, y built from x's own remainders
gives the variable-numerator and chained-digit families, and a periodic y
gives the constant-numerator greedy expansion.

Orbits are exact whenever the seeds are exact; a float fallback exists
for long ergodic-statistics runs where digit-level fidelity is not needed.
Since y moves on its own, an orbit reads y's classical digits once, in
one lazy walk: a rational y's run out, and a quadratic y's are cycled
from their first repeated remainder on.  Only x takes a step per digit
pair; ``_step``, both halves at once, serves single steps and cells.
A rational coordinate of an orbit is walked as two bare ints through
``exactreal._qdigit``, the kernel of ``_digit``'s rational branch, so no
``Rational`` is built per step; a surd x steps through ``_digit``, since a
surd never reaches zero.  The growth samples come from the orbit's
convergent denominators alone: ``ConvergentSeq`` builds its numerators
only when they are read.
"""
from __future__ import annotations

import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, islice

from .exactreal import (
    ExactReal,
    Rational,
    Surd,
    _at_least,
    _digit,
    _exact,
    _qdigit,
    _tail,
    _unit,
    floor_exact,
    is_zero,
    sqrt_exact,
)
from .pcf import ConvergentSeq, pcf_step


class ZeroCoordinate(ArithmeticError):
    """The map is undefined once a coordinate hits zero.

    A zero x with nonzero y means the first coordinate's expansion
    terminated and no further digit pair exists for this orbit.
    """

    def __init__(self, coordinate: str):
        self.coordinate = coordinate
        super().__init__(f"coordinate {coordinate} reached zero; "
                         "the joint step is undefined there")


class OnBoundary(ValueError):
    """The point sits on a cylinder gridline, in no open cell."""


@dataclass(frozen=True)
class JointState:
    """A point of [0, 1)^2, the domain of every remainder the map
    produces, plus how many steps produced it."""

    x: ExactReal
    y: ExactReal
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "x", _tail(self.x, "x"))
        object.__setattr__(self, "y", _tail(self.y, "y"))
        _at_least("step", self.step, 0)


@dataclass(frozen=True)
class CylinderAddress:
    """Digit pair (a, b) naming the open cell
    x in (a/(b+1), a/b), y in (1/(a+1), 1/a)."""

    a: int
    b: int

    def __post_init__(self):
        _at_least("a", self.a, 1)
        _at_least("b", self.b, self.a)

    @property
    def area(self) -> Fraction:
        return Fraction(1, (self.a + 1) * self.b * (self.b + 1))

    def x_interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.a, self.b + 1), Fraction(self.a, self.b)

    def y_interval(self) -> tuple[Fraction, Fraction]:
        return Fraction(1, self.a + 1), Fraction(1, self.a)


def _step(x, y) -> tuple[int, int, ExactReal, ExactReal]:
    """The map on bare coordinates: digits a, b and the image (x', y')."""
    x_dead, y_dead = is_zero(x), is_zero(y)
    if x_dead or y_dead:
        raise ZeroCoordinate("both" if x_dead and y_dead else
                             "x" if x_dead else "y")
    a, y = _digit(y, 1)
    b, x = _digit(x, a)
    return a, b, x, y


def joint_step(state: JointState) -> tuple[JointState, CylinderAddress]:
    """One application of the map; also reports which cylinder was used.

    The inverse branch x_prev = a/(b + x), y_prev = 1/(a + y) recovers the
    input exactly.
    """
    a, b, x, y = _step(state.x, state.y)
    return JointState(x, y, state.step + 1), CylinderAddress(a, b)


def cylinder_of(state: JointState) -> CylinderAddress:
    """The open cell containing the point; gridline points are rejected.

    The point is on a gridline exactly when a coordinate or its image
    under the map is zero."""
    try:
        a, b, x, y = _step(state.x, state.y)
    except ZeroCoordinate:
        raise OnBoundary(
            "a zero coordinate is on the partition boundary") from None
    if is_zero(y):
        raise OnBoundary(f"y = 1/{a} lies on a horizontal gridline")
    if is_zero(x):
        raise OnBoundary(f"x = {a}/{b} lies on a vertical gridline")
    return CylinderAddress(a, b)


# ---------------------------------------------------------------------------
# orbits


@dataclass(frozen=True)
class OrbitRecord:
    """Digits, convergents and growth samples of one orbit.

    ``terminated_by`` is None for a full-length run, otherwise one of
    "x_zero", "y_zero", "both_zero".
    """

    digits: tuple[tuple[int, int], ...]
    convergents: ConvergentSeq | None
    growth_samples: tuple[tuple[int, float], ...]
    requested: int
    terminated_by: str | None = None

    @property
    def steps(self) -> int:
        return len(self.digits)

    @property
    def truncated(self) -> bool:
        return self.steps < self.requested


def orbit(x0, y0, n: int) -> OrbitRecord:
    """n exact joint steps from (x0, y0), or as many as exist.

    Rational seeds can genuinely terminate (a coordinate's expansion is
    finite); that ends the record early with the reason noted, never an
    exception.
    """
    _at_least("n", n, 0)
    x, y = _unit(x0, "x0"), _unit(y0, "y0")
    digits: list[tuple[int, int]] = []
    terminated_by = None
    # the walk runs out exactly when y has reached zero
    numerators = islice(_classical_digits(y), n)
    if isinstance(x, Rational):
        # x walks as two bare ints through the step's kernel
        num, den = x.num, x.den
        for a in numerators:
            if not num:
                terminated_by = "x_zero"
                break
            b, num, den = _qdigit(num, den, a)
            digits.append((a, b))
        x_zero = not num
    else:
        for a in numerators:  # a surd never reaches zero
            b, x = _digit(x, a)
            digits.append((a, b))
        x_zero = False
    if terminated_by is None and len(digits) < n:
        terminated_by = "both_zero" if x_zero else "y_zero"
    cs = ConvergentSeq(digits)
    samples = tuple((k, math.log(q) / k)
                    for k, q in enumerate(islice(cs._q, 2, None), start=1))
    return OrbitRecord(tuple(digits), cs, samples, n, terminated_by)


def _classical_digits(y: ExactReal) -> Iterator[int]:
    """y's classical digits, read once and lazily: the a-digits of every
    orbit from y, whatever x is.

    A rational y is walked as two bare ints and runs out at its zero
    remainder; its remainders never repeat, so none is remembered.  A
    surd's remainders are eventually periodic (Lagrange), so its walk
    stops at the first one that repeats and cycles the period from there.
    """
    if isinstance(y, Rational):
        num, den = y.num, y.den
        while num:
            a, num, den = _qdigit(num, den, 1)
            yield a
        return
    first: dict[Surd, int] = {}  # remainder -> index of the digit it gives
    digits: list[int] = []
    while y not in first:
        first[y] = len(digits)
        a, y = _digit(y, 1)
        digits.append(a)
        yield a
    yield from cycle(digits[first[y]:])


def float_orbit(x0: float, y0: float, n: int) -> OrbitRecord:
    """Plain floating-point orbit for long statistical runs.

    Digits eventually decouple from the exact orbit of the same seed
    (floats forget), which is fine for frequency and growth statistics.
    Growth samples come from the denominator ratio recurrence
    r_k = b_k + a_k/r_{k-1}, so no big integers are built and the record
    carries no convergents.
    """
    _at_least("n", n, 0)
    x, y = float(x0), float(y0)
    # a float seed is no exact value, so exactreal's checks (which refuse
    # floats) do not apply here
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("seeds must lie in (0, 1)")
    digits: list[tuple[int, int]] = []
    samples: list[tuple[int, float]] = []
    terminated_by = None
    log_q = 0.0
    ratio_prev = math.inf  # q_0/q_{-1}
    for k in range(1, n + 1):
        if x == 0.0 or y == 0.0:
            terminated_by = ("both_zero" if x == 0.0 and y == 0.0 else
                             "x_zero" if x == 0.0 else "y_zero")
            break
        a = math.floor(1.0 / y)
        b = math.floor(a / x)
        x = a / x - b
        y = 1.0 / y - a
        digits.append((a, b))
        ratio = b + (a / ratio_prev if ratio_prev != math.inf else 0.0)
        log_q += math.log(ratio)
        samples.append((k, log_q / k))
        ratio_prev = ratio
    return OrbitRecord(tuple(digits), None, tuple(samples), n, terminated_by)


@dataclass(frozen=True)
class GrowthReport:
    """Estimate of the denominator growth rate lim q_n^(1/n).

    ``estimate`` is exp((log q_n)/n) at the last completed step;
    ``oscillation`` is the worst deviation of the same quantity over the
    final quarter of the orbit, and ``trend_slope`` the least-squares
    slope of (log q_k)/k over the final half — both near zero when the
    orbit has settled.  The slope is nan below two points; it is taken
    from sums through ``math.fsum``, each rounded once, so it does not
    depend on the summation order.  k is centred on its mean and each
    value shifted by the middle sample's, so the slope of two consecutive
    samples is the correctly rounded difference of their values.
    """

    estimate: float
    trend_slope: float
    oscillation: float
    reliable: bool
    truncated: bool
    steps: int
    requested: int


_MIN_RELIABLE_STEPS = 16


def growth_exponent(x0, y0, n: int, record: OrbitRecord | None = None) -> GrowthReport:
    """Run an exact orbit (or reuse ``record``) and judge its growth rate.

    ``reliable`` demands a full-length untruncated orbit of at least 16
    steps whose final-quarter oscillation stays below 5% of the estimate.
    An estimate or a final-quarter sample too large for a float is inf,
    and the report is then unreliable.
    """
    if record is None:
        record = orbit(x0, y0, n)
    samples = record.growth_samples
    if not samples:
        return GrowthReport(math.nan, math.nan, math.nan, False,
                            record.truncated, 0, record.requested)
    # exp overflows a float past log q_k / k of about 709.78, as for a
    # first digit beyond e^709.78; the last sample is in the final quarter,
    # so an infinite estimate makes the oscillation infinite too
    try:
        estimate = math.exp(samples[-1][1])
    except OverflowError:
        estimate = math.inf
    quarter = samples[(3 * len(samples)) // 4:]
    try:
        oscillation = max(abs(math.exp(v) - estimate) for _, v in quarter)
    except OverflowError:
        oscillation = math.inf
    half = samples[len(samples) // 2:]
    if len(half) >= 2:
        mean_k = math.fsum(k for k, _ in half) / len(half)
        pivot = half[len(half) // 2][1]
        trend_slope = (math.fsum((k - mean_k) * (v - pivot) for k, v in half)
                       / math.fsum((k - mean_k) * (k - mean_k) for k, _ in half))
    else:
        trend_slope = math.nan
    reliable = (not record.truncated and record.steps >= _MIN_RELIABLE_STEPS
                and oscillation < 0.05 * estimate)
    return GrowthReport(estimate, trend_slope, oscillation, reliable,
                        record.truncated, record.steps, record.requested)


def eigenvalues_of_digit_matrix(a: int, b: int) -> tuple[ExactReal, ExactReal]:
    """Exact eigenvalues (b +- sqrt(b^2+4a))/2 of the step matrix [[0,a],[1,b]].

    Their product is -a and their sum is b; the larger one drives the
    growth of denominators through repeated digit (a, b).
    """
    _at_least("a", a, 1)
    _at_least("b", b, 1)
    root = sqrt_exact(b * b + 4 * a)
    return (root + b) / 2, (b - root) / 2


def birkhoff_cylinder_frequencies(x0, y0, n: int) -> dict[CylinderAddress, Fraction]:
    """Empirical visit frequencies of the cylinders along one orbit.

    Float seeds run the float orbit (use that for large n); exact seeds
    run exactly.  Frequencies are exact counts over completed steps and
    sum to 1.
    """
    if isinstance(x0, float) or isinstance(y0, float):
        record = float_orbit(float(x0), float(y0), n)
    else:
        record = orbit(x0, y0, n)
    total = record.steps
    table: dict[CylinderAddress, int] = {}
    for a, b in record.digits:
        addr = CylinderAddress(a, b)
        table[addr] = table.get(addr, 0) + 1
    return {addr: Fraction(c, total) for addr, c in sorted(
        table.items(), key=lambda kv: (kv[0].a, kv[0].b))}


# ---------------------------------------------------------------------------
# scalar families


def varnum_step(x) -> tuple[int, int, ExactReal]:
    """One step with the numerator read off x itself: a = floor(1/x).

    The digit is then pinned to a <= b <= a^2 + a - 1.
    """
    x = _unit(x)
    a = _digit(x, 1)[0]
    b, rem = _digit(x, a)
    if not (a <= b <= a * a + a - 1):
        raise ArithmeticError(f"digit bound broken: a={a}, b={b}")
    return a, b, rem


def varnum_expand(x, depth: int) -> tuple[list[tuple[int, int]], ExactReal]:
    """Up to ``depth`` digit pairs of the self-driven expansion, plus the
    remainder where it stopped."""
    x = _exact(x)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < depth and not is_zero(x):
        a, b, x = varnum_step(x)
        pairs.append((a, b))
    return pairs, x


def engel_step(x) -> tuple[int, ExactReal]:
    """One step of the scalar chained-digit map: digit floor(1/x), new
    state 1/(digit*x) - 1.  Digits never decrease along an orbit."""
    x = _unit(x)
    b = floor_exact(1 / x)
    return b, 1 / (b * x) - 1


def engel_expand(x, depth: int) -> tuple[list[int], ExactReal]:
    """Up to ``depth`` digits of the chained-digit expansion of x."""
    x = _exact(x)
    digits: list[int] = []
    while len(digits) < depth and not is_zero(x):
        b, x = engel_step(x)
        digits.append(b)
    return digits, x


def engel_pairs(x, depth: int) -> tuple[list[tuple[int, int]], ExactReal]:
    """The same expansion as digit pairs, built the other way around:
    each digit becomes the next numerator (a_1 = 1, a_{i+1} = b_i).

    Independent of engel_step; the two routes must agree digit for digit,
    with the pair-route remainder equal to b_i times the scalar one.
    """
    rem = _exact(x)
    pairs: list[tuple[int, int]] = []
    a = 1
    while len(pairs) < depth and not is_zero(rem):
        b, rem = pcf_step(rem, a)
        pairs.append((a, b))
        a = b
    return pairs, rem


def greedy_y(n: int) -> Surd:
    """The y whose classical digits are all n: the positive root of
    y = 1/(n + y)."""
    _at_least("n", n, 1)
    return Surd(-n, 1, n * n + 4, 2)


_FAMILIES = ("varnum", "engel", "greedy")


def y_of_x(x, family: str, depth: int, n: int | None = None) -> list[int]:
    """First ``depth`` classical digits of the y that makes the joint map
    reproduce the family's expansion of x.

    Those digits are exactly the family's numerator sequence: the
    self-read numerators for varnum, (1, b_1, b_2, ...) for engel, and
    the constant n for greedy.  A terminating (rational) x gives a
    shorter list.
    """
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    _at_least("depth", depth, 1)
    x = _unit(x)
    if family == "greedy":
        if n is None:
            raise ValueError("greedy family needs the numerator n >= 1")
        return [_at_least("n", n, 1)] * depth
    if family == "varnum":
        pairs, _ = varnum_expand(x, depth)
        return [a for a, _ in pairs]
    # every digit is also the next numerator, so a terminating x still
    # contributes its final digit to y
    digits, _ = engel_expand(x, depth)
    return ([1] + digits)[:depth]


def y_value_from_digits(digits, guard: int | None = None) -> Rational:
    """The exact rational with the given classical digit prefix.

    With ``guard`` set (any digit >= 2), the value keeps the listed
    digits as its genuine leading digits — append it when a truncation
    must survive re-expansion (a bare trailing 1 would otherwise fold
    into the digit before it).
    """
    tail = list(digits)
    if guard is not None:
        tail.append(_at_least("guard", guard, 2))
    v = Rational(0)
    for d in reversed(tail):
        v = 1 / (_at_least("digit", d, 1) + v)
    return v


def emit_y_scatter(family: str, grid: int, depth: int,
                   n: int | None = None) -> list[dict]:
    """Rows (x, y(x) to at most ``depth`` digits) on the uniform grid
    x = i/(grid+1), for external plotting.

    A rational x whose expansion completes before ``depth`` still gets a
    row — its y is then exact, and ``digits_used`` says how many digits
    there were.  Every grid point has at least one digit (``y_of_x``
    takes a step from a nonzero x, or repeats n), so ``skip`` is always
    empty; the column stays for the output's shape.  For the varnum family
    each row carries the self-similarity residual
    |y(x) - (1/y(1/(1+x)) - 1)| with both sides cut at the same point (an
    exact fraction; 0 whenever both expansions completed).
    """
    _at_least("grid", grid, 2)
    rows = []
    for i in range(1, grid + 1):
        x = Rational(i, grid + 1)
        digits = y_of_x(x, family, depth, n)
        y = y_value_from_digits(digits)
        residual = ""
        if family == "varnum":
            shifted = y_of_x(1 / (1 + x), family, depth, n)
            other = 1 / y_value_from_digits(shifted) - 1
            residual = str(abs(y - other))
        rows.append({"x_num": str(i), "x_den": str(grid + 1),
                     "family": family, "depth": str(depth),
                     "digits_used": str(len(digits)),
                     "y_num": str(y.num), "y_den": str(y.den),
                     "skip": "", "residual": residual})
    return rows


# ---------------------------------------------------------------------------
# seeds and measure checks


def bits_for_orbit_length(n: int) -> int:
    """Denominator size (bits) that keeps a random rational seed alive for
    n joint steps: each step spends about 1.7123 bits of the seed, plus
    generous headroom."""
    _at_least("n", n, 0)
    return math.ceil(1.7123 * n) + 1024


def random_unit_rational(rng: random.Random, bits: int) -> Rational:
    """A uniform random rational in (0, 1) drawn as num/den with den of
    exactly bits+1 bits (top bit forced); reduction to lowest terms may
    shave a few bits off the stored denominator."""
    _at_least("bits", bits, 1)
    den = (1 << bits) | rng.getrandbits(bits)
    num = rng.randrange(1, den)
    return Rational(num, den)


def leading_cylinders(count: int) -> list[tuple[int, int]]:
    """The ``count`` largest-area cylinder addresses, ties broken by (a, b)."""
    _at_least("count", count, 1)
    cells = []
    for a in range(1, count + 2):
        for b in range(a, a + count + 2):
            cells.append((-CylinderAddress(a, b).area, a, b))
    cells.sort()
    return [(a, b) for _, a, b in cells[:count]]


def cylinder_area_monte_carlo(samples: int, seed: int,
                              pairs: list[tuple[int, int]] | None = None) -> list[dict]:
    """Uniform sampling of the unit square against the cylinder areas.

    Draws x coordinates first, then y, from one seeded generator, so the
    table is reproducible bit for bit.  Each row carries the exact area,
    the empirical frequency and the relative error.
    """
    _at_least("samples", samples, 1)
    if pairs is None:
        pairs = leading_cylinders(9)
    import numpy as np

    rng = np.random.default_rng(seed)
    xs = rng.random(samples)
    ys = rng.random(samples)
    rows = []
    for a, b in pairs:
        addr = CylinderAddress(a, b)
        (x_lo, x_hi), (y_lo, y_hi) = addr.x_interval(), addr.y_interval()
        inside = ((xs > float(x_lo)) & (xs < float(x_hi))
                  & (ys > float(y_lo)) & (ys < float(y_hi)))
        count = int(np.count_nonzero(inside))
        freq = count / samples
        area = float(addr.area)
        rows.append({"a": a, "b": b, "count": count, "area": area,
                     "frequency": freq,
                     "relative_error": abs(freq - area) / area})
    return rows
