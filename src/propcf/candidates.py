"""Which pairs (p, q) can appear as convergents, and how to realize them.

A pair of positive integers (p, q) is a *candidate* for x when
|q*x - p| < x; it sits on the odd side when p/q > x and on the even side
when p/q < x (matching the parity of the index a convergent equal to it
would need).  Odd candidates are always realizable in one step; even
candidates are governed by a divisor criterion on p, checked here both
through that criterion and through an exhaustive search over two-step
prefixes.  The search is exhaustive because each divisor a of p forces its
prefix: b_2 = p/a, and q_2 = q leaves one numerator a_2.  Both paths build
that prefix with ``_forced_prefix``; the criterion accepts a divisor from
the floor memo, the search by the digit rule on the actual remainder.  The
cheap cutoff ``q2_cutoff_check`` is that criterion on the divisors 1 and p
alone, so it is exact whenever p is 1 or a prime.  Every decision is a
comparison of floors, held in two memos of one type (``_Floors``):
floor(n/x) for the numerator side, which the odd digit, the criterion
(``_fires``) and the cutoff read, and floor(n*x) for the denominator
side.  The candidate rule has one body per side: ``_numerators`` for a
denominator q, and in ``sweep_rows`` the floor pair of p/x, where a whole
p/x makes neither of p's pairs a candidate.  A sweep takes each floor
once from its memos; each public per-p or per-q function runs the same
private bodies on fresh memos.  Every witness is checked by its cylinder
(``RealizationWitness.verify``), apart from the memos and the criterion:
a prefix of n digits expands from x exactly when x lies between p_n/q_n
and (p_n + p_{n-1})/(q_n + q_{n-1}), the first end included unless
a_n = b_n and the second left out, two integer signs of q*x - p
(``exactreal._affine_sign``).  The module also hosts the
Beatty/return-time characterizations of candidate denominators, an index
push-down rewrite with its inverse search, and a construction witnessing
that the convergent error bound cannot be tightened.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .exactreal import (
    ExactReal,
    Rational,
    _affine_sign,
    _at_least,
    _digit,
    _exact,
    _margin,
    _tail,
    _unit,
    floor_exact,
    floor_times,
    frac_part,
    is_zero,
)
from .pcf import (
    ConvergentSeq,
    PCFExpansion,
    PartialQuotient,
    _pairs_text,
    convergents,
    pcf_step,
)


class InvariantViolation(RuntimeError):
    """A postcondition that the underlying theory guarantees failed."""


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"


class CutoffVerdict(Enum):
    GUARANTEED_REALIZABLE = "guaranteed_realizable"
    UNDETERMINED = "undetermined"
    NOT_EVEN_CANDIDATE = "not_even_candidate"


@dataclass(frozen=True)
class CandidatePair:
    p: int
    q: int
    parity: Parity


@dataclass(frozen=True)
class RealizationWitness:
    """An expansion prefix whose convergent pair at ``index`` is the target."""

    quotients: tuple[PartialQuotient, ...]
    index: int

    def convergent_pair(self) -> tuple[int, int]:
        return ConvergentSeq(self.quotients).pair(self.index)

    def verify(self, x, p: int, q: int) -> bool:
        """Digits reproduce from x and the pair at ``index`` is (p, q).

        The digits reproduce exactly when x lies in their cylinder: with
        remainder t = x_n in [0, 1), x = (p_n + t*p_{n-1})/(q_n +
        t*q_{n-1}).  So two integer signs decide it, s0 of q_n*x - p_n and
        s1 of (q_n + q_{n-1})*x - (p_n + p_{n-1}): when s0 = 0 (t = 0) the
        prefix is valid unless a_n = b_n (then x_{n-1} would be 1), and
        otherwise when s1 is the opposite of s0 (t = 1 is left out).  The
        recurrence that gives the signs gives the pair at ``index`` too;
        no remainder, floor memo or criterion is read."""
        return self._verify(_unit(x), p, q)

    def _verify(self, x: ExactReal, p: int, q: int) -> bool:
        """``verify`` on a checked x."""
        index, at = self.index, None
        p0, q0, p1, q1 = 1, 0, 0, 1  # the pairs at n - 1 and n, from n = 0
        for n, quot in enumerate(self.quotients, 1):
            a, b = quot.a, quot.b
            p0, q0, p1, q1 = p1, q1, b * p1 + a * p0, b * q1 + a * q0
            if n == index:
                at = p1, q1
        s0 = _affine_sign(x, q1, p1)
        if s0 == 0:  # x = p_n/q_n: n >= 1, since p_0/q_0 = 0 < x
            if a == b:
                return False
        elif _affine_sign(x, q1 + q0, p1 + p0) != -s0:
            return False
        if at is None:  # index 0 or -1, or an IndexError past the prefix
            at = self.convergent_pair()
        return at == (p, q)


def _remainders(x, quotients) -> list[ExactReal] | None:
    """x_0..x_N along the digit pairs, or None as soon as a digit does not
    expand from x: a wrong digit, or a zero remainder (the expansion of x
    has ended) before the pairs do."""
    rem = _unit(x)
    out = [rem]
    for quot in quotients:
        if is_zero(rem):
            return None
        b, rem = _digit(rem, quot.a)
        if b != quot.b:
            return None
        out.append(rem)
    return out


def _divisors(n: int) -> list[int]:
    small, large = [], []
    f = 1
    while f * f <= n:
        if n % f == 0:
            small.append(f)
            if f != n // f:
                large.append(n // f)
        f += 1
    return small + large[::-1]


def gauss_map(x, numerator: int = 1) -> ExactReal:
    """frac(numerator/x): the fixed-numerator expansion step on (0, 1)."""
    return pcf_step(x, numerator)[1]


# ---------------------------------------------------------------------------
# candidates


def is_candidate(x, p: int, q: int) -> CandidatePair | None:
    """The pair as a CandidatePair when |qx - p| < x, else None.

    A pair hitting x exactly (qx == p) belongs to neither side.
    """
    _at_least("p", p, 1)
    _at_least("q", q, 1)
    x = _unit(x)
    diff = q * x - p
    if not (abs(diff) < x):
        return None
    if is_zero(diff):
        return None
    parity = Parity.EVEN if diff > Rational(0) else Parity.ODD
    return CandidatePair(p, q, parity)


def candidate_q_for_p(x, p: int) -> tuple[int, int]:
    """The only possible denominators for numerator p:
    floor(p/x) on the odd side and floor(p/x)+1 on the even side.  When
    p/x is a whole number neither pair is a candidate: (p, p/x) hits x
    exactly, and (p, p/x + 1) misses it by x."""
    base = floor_times(_at_least("p", p, 1), 1 / _unit(x))
    return base, base + 1


class _Floors(dict):
    """floor(n*v) for each integer n a caller asks about, taken once per
    memo, for the value v it is built on.  ``F[-n] = floor(-n*v)`` is minus
    the ceiling of n*v, so ``-F[-n] == F[n]`` exactly when n*v is a whole
    number (the rational tie guard).  A sweep keeps one memo per side:
    ``_Floors(1 / x)`` for numerators, ``_Floors(x)`` for denominators."""

    __slots__ = ("v",)

    def __init__(self, v: ExactReal):
        self.v = v

    def __missing__(self, n: int) -> int:
        value = self[n] = floor_times(n, self.v)
        return value


def _numerators(G: _Floors, q: int) -> tuple[int | None, int | None]:
    """(p_even, p_odd) for the denominator q, read from the memo G of
    floor(n*x): the one body of the candidate rule on the q side.

    p_even = floor(qx) when floor((q-1)x) < floor(qx), that is frac(qx) < x
    (so floor(qx) >= 1), and qx is not a whole number (a pair hitting x
    exactly is no candidate); p_odd = floor(qx) + 1 when the ceiling of
    (q+1)x exceeds it, that is frac(qx) > 1 - x."""
    base = G[q]
    p_even = base if G[q - 1] < base and base != -G[-q] else None
    p_odd = base + 1 if -G[-q - 1] > base + 1 else None
    return p_even, p_odd


def candidate_p_for_q(x, q: int) -> tuple[int | None, int | None]:
    """The only possible numerators for denominator q, as (p_even, p_odd).

    p_even = floor(qx) works iff 0 < frac(qx) < x; p_odd = floor(qx)+1
    works iff frac(qx) > 1-x, that is (q+1)x > floor(qx) + 1.  A missing
    side is None.
    """
    _at_least("q", q, 1)
    return _numerators(_Floors(_unit(x)), q)


def approximation_margins(x, expansion: PCFExpansion) -> list[ExactReal]:
    """x - |q_n x - p_n| for each prefix length n >= 1 (positive for any
    expansion of x, at every index), each built by ``_margin``."""
    x = _unit(x)
    cv = convergents(expansion)
    out = []
    for n in range(1, len(expansion) + 1):
        p, q = cv.pair(n)
        out.append(_margin(x, q, p))
    return out


def fractional_part_characterization(x, q: int):
    """Both candidate-existence tests for q, each stated two ways.

    even side: frac(qx) < x         iff  floor(floor(qx)/x) + 1 == q
    odd side:  frac(qx) > 1 - x     iff  floor((floor(qx)+1)/x) == q
    """
    _at_least("q", q, 1)
    x = _unit(x)
    inv = 1 / x
    base = floor_times(q, x)
    f = q * x - base
    even_frac = bool(f < x)
    even_floor = base >= 1 and floor_times(base, inv) + 1 == q
    odd_frac = bool(f > 1 - x)
    odd_floor = floor_times(base + 1, inv) == q
    return FracCharReport(q, even_frac, even_floor, odd_frac, odd_floor)


@dataclass(frozen=True)
class FracCharReport:
    q: int
    even_by_frac: bool
    even_by_floor: bool
    odd_by_frac: bool
    odd_by_floor: bool

    @property
    def consistent(self) -> bool:
        return (self.even_by_frac == self.even_by_floor
                and self.odd_by_frac == self.odd_by_floor)


# ---------------------------------------------------------------------------
# Beatty sequences and return times


def beatty(r, count: int) -> list[int]:
    """floor(k*r) for k = 1..count."""
    r = _exact(r)
    return [floor_times(k, r) for k in range(1, count + 1)]


@dataclass(frozen=True)
class RayleighReport:
    n_max: int
    size_low: int
    size_high: int
    missing: tuple[int, ...]
    overlapping: tuple[int, ...]

    @property
    def is_partition(self) -> bool:
        return not self.missing and not self.overlapping


def rayleigh_partition_check(x, n_max: int) -> RayleighReport:
    """Do Beatty(1/x) and Beatty(1/(1-x)) tile 1..n_max exactly once?

    True for every irrational x in (0,1): the two rates r = 1/x and
    s = 1/(1-x) satisfy 1/r + 1/s = 1.
    """
    x = _unit(x)
    seen_low = _beatty_upto(1 / x, n_max)
    seen_high = _beatty_upto(1 / (1 - x), n_max)
    overlap = seen_low & seen_high
    missing = set(range(1, n_max + 1)) - seen_low - seen_high
    return RayleighReport(n_max, len(seen_low), len(seen_high),
                          tuple(sorted(missing)), tuple(sorted(overlap)))


def _beatty_upto(r, n_max: int) -> set[int]:
    out = set()
    k = 1
    while True:
        v = floor_times(k, r)
        if v > n_max:
            return out
        out.add(v)
        k += 1


@dataclass(frozen=True)
class ReturnTimeReport:
    pair: CandidatePair
    hits: int
    final_index_hits: bool
    segment_identity_ok: bool

    @property
    def ok(self) -> bool:
        return (self.hits == self.pair.p and self.final_index_hits
                and self.segment_identity_ok)


def return_time_check(x, p: int, q: int) -> ReturnTimeReport:
    """Count visits of the rotation k*x mod 1 to the candidate's window.

    For an even candidate the window is [0, x); for an odd one [1-x, 1).
    Among k = 1..q there are exactly p visits, the last at k = q, and the
    landing segment has length x*frac(p/x): p + x - qx on the even side,
    p - qx on the odd side.
    """
    x = _unit(x)
    cand = is_candidate(x, p, q)
    if cand is None:
        raise ValueError(f"({p}, {q}) is not a candidate pair for this x")
    hits = 0
    final_hit = False
    low = 1 - x
    for k in range(1, q + 1):
        f = frac_part(k * x)
        inside = (f < x) if cand.parity is Parity.EVEN else (f > low)
        if inside:
            hits += 1
            if k == q:
                final_hit = True
    segment = x * gauss_map(x, p)
    expected = (p + x - q * x) if cand.parity is Parity.EVEN else (p - q * x)
    return ReturnTimeReport(cand, hits, final_hit, bool(segment == expected))


# ---------------------------------------------------------------------------
# realizability


def _odd_witness(x: ExactReal, p: int, b1: int) -> RealizationWitness:
    """The one-step witness (p, b1) with b1 = floor(p/x), checked."""
    witness = RealizationWitness((PartialQuotient(p, b1),), 1)
    if not witness._verify(x, p, b1):
        raise InvariantViolation(f"odd witness failed for p={p}")
    return witness


def realize_odd(x, p: int) -> RealizationWitness:
    """The one-step witness for the odd candidate (p, floor(p/x)).  When
    p/x is a whole number the prefix still expands from x, but neither
    pair of p is a candidate: (p, p/x) hits x exactly."""
    x = _unit(x)
    _at_least("p", p, 1)
    return _odd_witness(x, p, floor_times(p, 1 / x))


def _fires(F: _Floors, p: int, q: int, a: int) -> bool:
    """Whether the divisor a fires for the even candidate (p, q) of x,
    q = floor(p/x) + 1: frac(p/x) + frac(a/x) > 1.  The one body of the
    divisor criterion, read from the memo F of floor(n/x).

    The test runs on floors alone: the fractional parts sum to at least 1
    exactly when floor((p+a)/x) exceeds floor(p/x) + floor(a/x), and to
    exactly 1 when, besides, (p+a)/x is a whole number (floor equals
    ceiling), which only a rational x allows."""
    both = F[p + a]
    return both >= q + F[a] and both != -F[-p - a]


def _forced_prefix(a: int, b1: int, p: int,
                   q: int) -> RealizationWitness | None:
    """The one two-step prefix that the divisor a of p allows for the pair
    (p, q), given its first digit b1 = floor(a/x): p_2 = a*b_2 forces
    b_2 = p/a, and q_2 = b_1*b_2 + a_2 = q forces a_2 = q - b_1*b_2.  None
    unless 1 <= a_2 <= b_2; whether a_2 expands from the first remainder
    is the caller's test."""
    b2 = p // a
    a2 = q - b1 * b2
    if not 1 <= a2 <= b2:
        return None
    return RealizationWitness(
        (PartialQuotient(a, b1), PartialQuotient(a2, b2)), 2)


def _q2_witness(x: ExactReal, F: _Floors, p: int) -> RealizationWitness | None:
    """The forced prefix of the first divisor of p that fires, checked, or
    None."""
    q = F[p] + 1
    for a in _divisors(p):
        if _fires(F, p, q, a):
            witness = _forced_prefix(a, F[a], p, q)
            if witness is None:
                raise InvariantViolation(
                    f"divisor {a} of {p} produced digit data outside range")
            if not witness._verify(x, p, q):
                raise InvariantViolation(
                    f"constructed witness for p={p} does not expand from x")
            return witness
    return None


def realizable_as_q2(x, p: int) -> RealizationWitness | None:
    """Divisor criterion for the even candidate (p, floor(p/x)+1): a
    realizing two-step prefix exists iff some divisor a of p has
    frac(p/x) + frac(a/x) > 1 (``_fires``).  Returns the constructed
    witness or None."""
    _at_least("p", p, 1)
    x = _unit(x)
    return _q2_witness(x, _Floors(1 / x), p)


def realizable_as_q2_oracle(x, p: int) -> RealizationWitness | None:
    """Exhaustive search over the two-step prefixes with p_2 == p.

    Independent of any divisor criterion: p_2 = a_1 * b_2 forces a_1 | p
    and b_2 = p/a_1, and q_2 = q then forces a_2, so each divisor has one
    prefix (``_forced_prefix``), tried against the digit rule
    floor(a_2/x_1) == b_2 on the actual remainder x_1.  None proves that
    no such prefix exists.
    """
    _at_least("p", p, 1)
    x = _unit(x)
    q = floor_times(p, 1 / x) + 1
    for a1 in _divisors(p):
        b1, x1 = _digit(x, a1)
        if is_zero(x1):
            continue  # terminated: no second digit exists on this branch
        witness = _forced_prefix(a1, b1, p, q)
        if witness is not None:
            second = witness.quotients[1]
            if _digit(x1, second.a)[0] == second.b:
                return witness
    return None


def _cutoff(F: _Floors, p: int | None, q: int) -> CutoffVerdict:
    """The cutoff verdict for the even candidate (p, q), or for no even
    candidate of q when p is None, read from the memo F of floor(n/x): the
    divisor criterion on the divisors p and 1 alone."""
    if p is None:
        return CutoffVerdict.NOT_EVEN_CANDIDATE
    if _fires(F, p, q, p) or _fires(F, p, q, 1):
        return CutoffVerdict.GUARANTEED_REALIZABLE
    return CutoffVerdict.UNDETERMINED


def q2_cutoff_check(x, q: int) -> CutoffVerdict:
    """Cheap sufficient test for even-candidate realizability.

    The divisor criterion on the divisors a = p and a = 1 of
    p = floor(qx) alone: it fires for a = p iff frac(qx) < x/2 and for
    a = 1 iff frac(qx) < x*frac(1/x), so a witness is guaranteed below
    max(x/2, x*frac(1/x)).  Above it nothing is implied, except when p is
    1 or a prime: those two are then all of p's divisors, and the verdict
    is exact.
    """
    x = _unit(x)
    p_even = _numerators(_Floors(x), _at_least("q", q, 1))[0]
    return _cutoff(_Floors(1 / x), p_even, q)


def _even_witness(x: ExactReal, F: _Floors, p: int, oracle: bool,
                  where: str) -> RealizationWitness | None:
    """The divisor criterion's witness for the even candidate of p, or
    None; with ``oracle`` the exhaustive search must agree on existence."""
    witness = _q2_witness(x, F, p)
    if oracle and (witness is None) != (
            realizable_as_q2_oracle(x, p) is None):
        raise InvariantViolation(
            f"divisor criterion and brute force disagree at {where}")
    return witness


def _witness_cell(witness: RealizationWitness | None) -> str:
    """A sweep row's witness text: its digit pairs, or empty for none."""
    return "" if witness is None else _pairs_text(witness.quotients)


def sweep_rows(x, x_text: str, p_max: int,
               oracle: bool = False) -> list[dict]:
    """Candidate classification rows for p = 1..p_max, two per p, all
    read from one memo of floor(n/x).  The candidate rule on the p side:
    (p, floor(p/x)) is the odd candidate and (p, floor(p/x) + 1) the even
    one, unless p/x is a whole number, which makes neither a candidate."""
    x = _unit(x)
    _at_least("p_max", p_max, 1)
    F = _Floors(1 / x)
    rows = []
    for p in range(1, p_max + 1):
        q_odd = F[p]
        whole = -F[-p] == q_odd
        odd = None if whole else _odd_witness(x, p, q_odd)
        rows.append({
            "x": x_text, "p": p, "q": q_odd, "parity": "odd",
            "realizable": odd is not None, "witness": _witness_cell(odd),
            "cutoff": "",
        })
        even = _even_witness(x, F, p, oracle, f"p={p}")
        rows.append({
            "x": x_text, "p": p, "q": q_odd + 1, "parity": "even",
            "realizable": even is not None, "witness": _witness_cell(even),
            "cutoff": _cutoff(F, None if whole else p, q_odd + 1).value,
        })
    return rows


def sweep_q_rows(x, x_text: str, q_min: int, q_max: int,
                 oracle: bool = False) -> list[dict]:
    """Candidate classification rows for q = q_min..q_max, one per q: both
    candidate numerators and the even side's realizability (None when q
    has no even candidate), read from one memo per side: floor(n*x) for
    the numerators, floor(n/x) for the criterion."""
    x = _unit(x)
    _at_least("q_min", q_min, 1)
    F, G = _Floors(1 / x), _Floors(x)
    rows = []
    for q in range(q_min, q_max + 1):
        p_even, p_odd = _numerators(G, q)
        witness = None if p_even is None else _even_witness(
            x, F, p_even, oracle, f"q={q}")
        rows.append({
            "x": x_text, "q": q, "p_even": p_even, "p_odd": p_odd,
            "even_realizable": None if p_even is None
            else witness is not None,
            "witness": _witness_cell(witness),
            "cutoff": _cutoff(F, p_even, q).value,
        })
    return rows


def cutoff_margin_survey(x, p_max: int, bins: int = 10) -> list[dict]:
    """Where in (0,1) do realizable even candidates sit, measured by
    u = frac(qx)/x?  Data for the open region above the guaranteed cutoff
    max(1/2, frac(1/x)) on u; nothing is asserted here.  u = 1 (p/x a
    whole number) falls in no bin.

    With q = floor(p/x) + 1, u = q - p/x, so p's bin floor(bins*u) is
    bins*q + floor(-bins*p/x), read from the floor memo."""
    x = _unit(x)
    _at_least("p_max", p_max, 1)
    _at_least("bins", bins, 1)
    threshold = max(Rational(1, 2), gauss_map(x, 1))
    F = _Floors(1 / x)
    counts = [[0, 0] for _ in range(bins)]
    for p in range(1, p_max + 1):
        i = bins * (F[p] + 1) + F[-bins * p]
        if i < bins:
            counts[i][0 if _q2_witness(x, F, p) is not None else 1] += 1
    return [{
        "bin_low": i / bins, "bin_high": (i + 1) / bins,
        "realizable": counts[i][0], "unrealizable": counts[i][1],
        "above_cutoff": bool(Rational(i, bins) >= threshold),
    } for i in range(bins)]


# ---------------------------------------------------------------------------
# index push-down and its inverse search


def push_down_index(x, expansion: PCFExpansion, k: int) -> PCFExpansion:
    """Merge digits k, k+1, k+2 into one digit at position k whose
    denominator q_k equals the old q_{k+2}.

    The merged pair is (a_k*D, b_k*D + a_{k+1}*b_{k+2}) with
    D = b_{k+1}*b_{k+2} + a_{k+2}, and the new tail after position k is
    a_{k+1}*a_{k+2}*x_{k+2} / (D + b_{k+1}*x_{k+2}).
    """
    _at_least("k", k, 1)
    if len(expansion) < k + 2:
        raise ValueError(f"need at least {k + 2} digits, have {len(expansion)}")
    rems = _remainders(x, expansion.quotients)
    if rems is None:
        raise ValueError("expansion does not belong to this x")
    pk, pk1, pk2 = expansion.quotients[k - 1], expansion.quotients[k], expansion.quotients[k + 1]
    merge = pk1.b * pk2.b + pk2.a
    new_a = pk.a * merge
    new_b = pk.b * merge + pk1.a * pk2.b
    check = floor_exact(new_a / rems[k - 1])
    if check != new_b:
        raise InvariantViolation(
            f"merged digit {new_b} disagrees with floor(a'/x_{k-1}) = {check}")
    x_k2 = rems[k + 2]
    new_tail = (pk1.a * pk2.a * x_k2) / (merge + pk1.b * x_k2)
    pairs = expansion.pairs()[:k - 1] + [(new_a, new_b)]
    return PCFExpansion.from_pairs(pairs, new_tail)


@dataclass(frozen=True)
class LiftSearchResult:
    solutions: tuple[tuple[int, int, int, int, int, int], ...]
    truncated: bool


def lift_index_search(a_prime: int, b_prime: int, x_prime,
                      bound: int | None = None) -> LiftSearchResult:
    """All six-tuples (a_k, a_{k+1}, a_{k+2}, b_k, b_{k+1}, b_{k+2}) whose
    push-down merge produces digit (a_prime, b_prime) with a compatible
    tail x_prime.

    The merge factor D divides a_prime, which makes every range finite;
    ``bound`` optionally caps D, and a capped run is flagged truncated
    (solutions beyond the cap may exist).
    """
    _at_least("a_prime", a_prime, 1)
    _at_least("b_prime", b_prime, a_prime)
    x_prime = _tail(x_prime)
    sols = []
    truncated = False
    for a_k in _divisors(a_prime):
        merge = a_prime // a_k
        if merge < 2:
            continue  # D = b_{k+1} b_{k+2} + a_{k+2} >= 2 always
        if bound is not None and merge > bound:
            truncated = True
            continue
        for b_k2 in range(1, merge):
            for b_k1 in range(1, (merge - 1) // b_k2 + 1):
                a_k2 = merge - b_k1 * b_k2
                if a_k2 > b_k2:
                    continue
                for a_k1 in range(1, b_k1 + 1):
                    # a_k1 * b_k2 < merge <= b_prime / a_k, so rest > 0 and
                    # a whole rest / merge is at least a_k
                    rest = b_prime - a_k1 * b_k2
                    if rest % merge:
                        continue
                    b_k = rest // merge
                    ceiling = Rational(a_k1 * a_k2, b_k1 * (b_k2 + 1) + a_k2)
                    if x_prime < ceiling:
                        sols.append((a_k, a_k1, a_k2, b_k, b_k1, b_k2))
    return LiftSearchResult(tuple(sols), truncated)


def lift_tail(solution: tuple[int, int, int, int, int, int], x_prime) -> ExactReal:
    """The deeper tail x_{k+2} recovering x_prime through the given lift."""
    _, a_k1, a_k2, _, b_k1, b_k2 = solution
    x_prime = _exact(x_prime)
    merge = b_k1 * b_k2 + a_k2
    return (merge * x_prime) / (a_k1 * a_k2 - b_k1 * x_prime)


# ---------------------------------------------------------------------------
# sharpness of the error bound


@dataclass(frozen=True)
class SharpnessReport:
    n: int
    epsilon: Rational
    numerator_excess: Rational   # (1+eps) * a_1..a_{n+1} - p_{n+1}, > 0
    tail_advantage: Rational     # a_{n+1}/q_{n+1} - (1-eps)/q_n, > 0

    @property
    def ok(self) -> bool:
        return self.numerator_excess > Rational(0) and \
            self.tail_advantage > Rational(0)


def sharpness_witness(n: int, epsilon) -> tuple[PCFExpansion, SharpnessReport]:
    """An expansion showing the error bound is tight to within (1+epsilon).

    All digits equal their numerators (b_i = a_i), and the numerators grow
    fast enough that the products satisfy, exactly,

        (1 + epsilon) * a_1...a_{n+1} > p_{n+1}   and
        a_{n+1}/q_{n+1} > (1 - epsilon)/q_n.

    Built greedily: each a_i is the smallest value keeping
    (1 + p_{i-1}/p_i)^n below 1 + epsilon, and a_n additionally exceeds
    1/epsilon - 1.
    """
    eps = _unit(epsilon, "epsilon")
    if not isinstance(eps, Rational):
        raise ValueError("epsilon must be rational")
    _at_least("n", n, 1)
    target = Rational(1) + eps
    min_tail_a = floor_exact(Rational(1) / eps - 1) + 1

    a = [0] * (n + 2)  # 1-indexed
    a[1] = min_tail_a if n == 1 else 1
    p_prev, p_cur = 0, a[1]
    for i in range(2, n + 1):
        lo, hi = 1, 2
        while not _ratio_ok(p_cur, p_prev, hi, n, target):
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if _ratio_ok(p_cur, p_prev, mid, n, target):
                hi = mid
            else:
                lo = mid + 1
        a[i] = max(lo, min_tail_a) if i == n else lo
        p_prev, p_cur = p_cur, a[i] * (p_cur + p_prev)
    a[n + 1] = a[n]

    pairs = [(a[i], a[i]) for i in range(1, n + 2)]
    witness = PCFExpansion.from_pairs(pairs, Rational(1, 2))
    cv = convergents(witness)
    prod = 1
    for i in range(1, n + 2):
        prod *= a[i]
    excess = target * prod - cv.p(n + 1)
    advantage = Rational(a[n + 1], cv.q(n + 1)) - (1 - eps) * Rational(1, cv.q(n))
    report = SharpnessReport(n, eps, excess, advantage)
    if not report.ok:
        raise InvariantViolation("sharpness construction missed its margins")
    return witness, report


def _ratio_ok(p_cur, p_prev, candidate, n, target) -> bool:
    p_next = candidate * (p_cur + p_prev)
    return (Rational(1) + Rational(p_cur, p_next)) ** n < target
