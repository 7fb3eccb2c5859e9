"""Which pairs (p, q) can appear as convergents, and how to realize them.

A pair of positive integers (p, q) is a *candidate* for x when
|q*x - p| < x; it sits on the odd side when p/q > x and on the even side
when p/q < x (matching the parity of the index a convergent equal to it
would need).  Odd candidates are always realizable in one step; even
candidates are governed by a divisor criterion on p, checked here both
through that criterion and through a brute-force search over two-step
prefixes.  The module also hosts the Beatty/return-time characterizations
of candidate denominators, an index push-down rewrite with its inverse
search, and a construction witnessing that the convergent error bound
cannot be tightened.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .exactreal import (
    ExactReal,
    Rational,
    _exact,
    floor_exact,
    frac_part,
    is_zero,
)
from .pcf import (
    PCFExpansion,
    PartialQuotient,
    _pairs_text,
    convergents,
    pcf_step,
)


class BoundTooSmall(RuntimeError):
    """A capped search was truncated before it could prove absence."""


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
        cv = convergents(PCFExpansion(self.quotients, Rational(0)))
        return cv.pair(self.index)

    def verify(self, x, p: int, q: int) -> bool:
        """Digits reproduce from x and the pair at ``index`` is (p, q)."""
        rem = _exact(x)
        for quot in self.quotients:
            b, rem = pcf_step(rem, quot.a)
            if b != quot.b:
                return False
        return self.convergent_pair() == (p, q)

    def to_json(self) -> dict:
        return {"pairs": [[q.a, q.b] for q in self.quotients], "index": self.index}


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
    """frac(numerator/x): the fixed-numerator expansion step on (0, 1]."""
    if not isinstance(numerator, int) or numerator < 1:
        raise ValueError("numerator must be a positive integer")
    return frac_part(numerator * _unit_reciprocal(_exact(x)))


def _unit_reciprocal(x: ExactReal) -> ExactReal:
    """1/x for an exact x in (0, 1], the domain of every expansion step;
    callers that divide many numerators by one x take it once."""
    if not (Rational(0) < x) or x > Rational(1):
        raise ValueError("expansion steps need 0 < x <= 1")
    return 1 / x


# ---------------------------------------------------------------------------
# candidates


def is_candidate(x, p: int, q: int) -> CandidatePair | None:
    """The pair as a CandidatePair when |qx - p| < x, else None.

    A pair hitting x exactly (qx == p) belongs to neither side.
    """
    if p < 1 or q < 1:
        raise ValueError("need p >= 1 and q >= 1")
    x = _exact(x)
    diff = q * x - p
    if not (abs(diff) < x):
        return None
    if is_zero(diff):
        return None
    parity = Parity.EVEN if diff > Rational(0) else Parity.ODD
    return CandidatePair(p, q, parity)


def candidate_q_for_p(x, p: int) -> tuple[int, int]:
    """The only possible denominators for numerator p:
    floor(p/x) on the odd side and floor(p/x)+1 on the even side."""
    if p < 1:
        raise ValueError("need p >= 1")
    base = floor_exact(Rational(p) / _exact(x))
    return base, base + 1


def candidate_p_for_q(x, q: int) -> tuple[int | None, int | None]:
    """The only possible numerators for denominator q, as (p_even, p_odd).

    p_even = floor(qx) works iff frac(qx) < x; p_odd = floor(qx)+1 works
    iff frac(qx) > 1-x.  A missing side is None.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    x = _exact(x)
    scaled = q * x
    base = floor_exact(scaled)
    f = scaled - base
    p_even = base if (f < x and base >= 1) else None
    p_odd = base + 1 if f > 1 - x else None
    return p_even, p_odd


def approximation_margins(x, expansion: PCFExpansion) -> list[ExactReal]:
    """x - |q_n x - p_n| for each prefix length n >= 1 (positive for any
    expansion of x, at every index)."""
    x = _exact(x)
    cv = convergents(expansion)
    out = []
    for n in range(1, len(expansion) + 1):
        out.append(x - abs(cv.q(n) * x - cv.p(n)))
    return out


def fractional_part_characterization(x, q: int):
    """Both candidate-existence tests for q, each stated two ways.

    even side: frac(qx) < x         iff  floor(floor(qx)/x) + 1 == q
    odd side:  frac(qx) > 1 - x     iff  floor((floor(qx)+1)/x) == q
    """
    x = _exact(x)
    scaled = q * x
    base = floor_exact(scaled)
    f = scaled - base
    even_frac = bool(f < x)
    even_floor = base >= 1 and floor_exact(Rational(base) / x) + 1 == q
    odd_frac = bool(f > 1 - x)
    odd_floor = floor_exact(Rational(base + 1) / x) == q
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
    return [floor_exact(k * r) for k in range(1, count + 1)]


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
    x = _exact(x)
    if not (Rational(0) < x < Rational(1)):
        raise ValueError("need 0 < x < 1")
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
        v = floor_exact(k * r)
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
    x = _exact(x)
    cand = is_candidate(x, p, q)
    if cand is None:
        raise ValueError(f"({p}, {q}) is not a candidate pair for this x")
    hits = 0
    final_hit = False
    for k in range(1, q + 1):
        f = frac_part(k * x)
        inside = (f < x) if cand.parity is Parity.EVEN else (f > 1 - x)
        if inside:
            hits += 1
            if k == q:
                final_hit = True
    segment = x * gauss_map(x, p)
    expected = (p + x - q * x) if cand.parity is Parity.EVEN else (p - q * x)
    return ReturnTimeReport(cand, hits, final_hit, bool(segment == expected))


# ---------------------------------------------------------------------------
# realizability


def realize_odd(x, p: int) -> RealizationWitness:
    """The one-step witness for the odd candidate (p, floor(p/x))."""
    if p < 1:
        raise ValueError("need p >= 1")
    x = _exact(x)
    b1 = floor_exact(Rational(p) / x)
    witness = RealizationWitness((PartialQuotient(p, b1),), 1)
    if not witness.verify(x, p, b1):
        raise InvariantViolation(f"odd witness failed for p={p}")
    return witness


def realizable_as_q2(x, p: int) -> RealizationWitness | None:
    """Divisor criterion for the even candidate (p, floor(p/x)+1): a
    realizing two-step prefix exists iff some divisor a of p has
    frac(p/x) + frac(a/x) > 1.  Returns the constructed witness or None."""
    if p < 1:
        raise ValueError("need p >= 1")
    x = _exact(x)
    inv = _unit_reciprocal(x)
    q = floor_exact(p * inv) + 1
    tail_p = frac_part(p * inv)
    for a in _divisors(p):
        scaled = a * inv
        if tail_p + frac_part(scaled) > Rational(1):
            b1 = floor_exact(scaled)
            b2 = p // a
            a2 = q - b1 * b2
            if a2 < 1 or a2 > b2:
                raise InvariantViolation(
                    f"divisor {a} of {p} produced digit data outside range")
            witness = RealizationWitness(
                (PartialQuotient(a, b1), PartialQuotient(a2, b2)), 2)
            if not witness.verify(x, p, q):
                raise InvariantViolation(
                    f"constructed witness for p={p} does not expand from x")
            return witness
    return None


def realizable_as_q2_oracle(x, p: int, bound: int | None = None) -> RealizationWitness | None:
    """Brute-force search over all valid two-step prefixes with p_2 == p.

    Independent of any divisor criterion: p_2 = a_1 * b_2 forces a_1 | p
    and b_2 = p/a_1; every numerator a_2 in [1, min(b_2, bound)] is tried
    against the digit rule.  Raises BoundTooSmall when a truncated range
    found nothing (absence unproven).
    """
    if p < 1:
        raise ValueError("need p >= 1")
    x = _exact(x)
    inv = _unit_reciprocal(x)
    q = floor_exact(p * inv) + 1
    truncated = False
    for a1 in _divisors(p):
        scaled = a1 * inv
        b1 = floor_exact(scaled)
        b2 = p // a1
        if b2 < 1:
            continue
        x1 = frac_part(scaled)
        if is_zero(x1):
            continue  # terminated: no second digit exists on this branch
        inv1 = 1 / x1
        hi = b2 if bound is None else min(b2, bound)
        if hi < b2:
            truncated = True
        for a2 in range(1, hi + 1):
            if floor_exact(a2 * inv1) != b2:
                continue
            if b1 * b2 + a2 != q:
                continue
            return RealizationWitness(
                (PartialQuotient(a1, b1), PartialQuotient(a2, b2)), 2)
    if truncated:
        raise BoundTooSmall(
            f"no witness for p={p} within numerator bound {bound}; "
            "the untruncated search might still find one")
    return None


def q2_cutoff_check(x, q: int) -> CutoffVerdict:
    """Cheap sufficient test for even-candidate realizability.

    frac(qx) below max(x/2, x*frac(1/x)) guarantees a witness (the divisor
    criterion fires with a = p or a = 1); above it nothing is implied.
    """
    if q < 1:
        raise ValueError("need q >= 1")
    x = _exact(x)
    f = frac_part(q * x)
    if is_zero(f) or not (f < x) or floor_exact(q * x) < 1:
        return CutoffVerdict.NOT_EVEN_CANDIDATE
    if f < _cutoff_threshold(x):
        return CutoffVerdict.GUARANTEED_REALIZABLE
    return CutoffVerdict.UNDETERMINED


@lru_cache(maxsize=64)
def _cutoff_threshold(x: ExactReal) -> ExactReal:
    """max(x/2, x*frac(1/x)); a sweep asks for it once per row, so the
    value is kept for the few x a run uses."""
    half = x / 2
    stretched = x * gauss_map(x, 1)
    return half if half > stretched else stretched


def sweep_rows(x, x_text: str, p_max: int, bound: int | None = None,
               oracle: bool = False) -> list[dict]:
    """Candidate classification rows for p = 1..p_max, two per p."""
    rows = []
    for p in range(1, p_max + 1):
        q_odd, q_even = candidate_q_for_p(x, p)
        odd_witness = realize_odd(x, p)
        rows.append({
            "x": x_text, "p": p, "q": q_odd, "parity": "odd",
            "realizable": True,
            "witness": _pairs_text(odd_witness.quotients), "cutoff": "",
        })
        witness = realizable_as_q2(x, p)
        if oracle:
            other = realizable_as_q2_oracle(x, p, bound)
            if (witness is None) != (other is None):
                raise InvariantViolation(
                    f"divisor criterion and brute force disagree at p={p}")
        rows.append({
            "x": x_text, "p": p, "q": q_even, "parity": "even",
            "realizable": witness is not None,
            "witness": _pairs_text(witness.quotients)
            if witness is not None else "",
            "cutoff": q2_cutoff_check(x, q_even).value,
        })
    return rows


def cutoff_margin_survey(x, p_max: int, bins: int = 10) -> list[dict]:
    """Where in (0,1) do realizable even candidates sit, measured by
    u = frac(qx)/x?  Data for the open region above the guaranteed cutoff;
    nothing is asserted here."""
    x = _exact(x)
    threshold = max(Rational(1, 2), gauss_map(x, 1))
    edges = [Rational(i, bins) for i in range(bins + 1)]
    counts = [[0, 0] for _ in range(bins)]
    for p in range(1, p_max + 1):
        _, q = candidate_q_for_p(x, p)
        u = frac_part(q * x) / x
        realizable = realizable_as_q2(x, p) is not None
        for i in range(bins):
            if edges[i] <= u < edges[i + 1]:
                counts[i][0 if realizable else 1] += 1
                break
    return [{
        "bin_low": float(edges[i]), "bin_high": float(edges[i + 1]),
        "realizable": counts[i][0], "unrealizable": counts[i][1],
        "above_cutoff": bool(edges[i] >= threshold),
    } for i in range(bins)]


# ---------------------------------------------------------------------------
# index push-down and its inverse search


def _remainders(x, expansion: PCFExpansion) -> list[ExactReal]:
    """x_0..x_N for an expansion that must belong to x."""
    rem = _exact(x)
    out = [rem]
    for quot in expansion.quotients:
        b, rem = pcf_step(rem, quot.a)
        if b != quot.b:
            raise ValueError("expansion does not belong to this x")
        out.append(rem)
    return out


def push_down_index(x, expansion: PCFExpansion, k: int) -> PCFExpansion:
    """Merge digits k, k+1, k+2 into one digit at position k whose
    denominator q_k equals the old q_{k+2}.

    The merged pair is (a_k*D, b_k*D + a_{k+1}*b_{k+2}) with
    D = b_{k+1}*b_{k+2} + a_{k+2}, and the new tail after position k is
    a_{k+1}*a_{k+2}*x_{k+2} / (D + b_{k+1}*x_{k+2}).
    """
    if k < 1:
        raise ValueError("k starts at 1")
    if len(expansion) < k + 2:
        raise ValueError(f"need at least {k + 2} digits, have {len(expansion)}")
    rems = _remainders(x, expansion)
    pk, pk1, pk2 = expansion.quotients[k - 1], expansion.quotients[k], expansion.quotients[k + 1]
    merge = pk1.b * pk2.b + pk2.a
    new_a = pk.a * merge
    new_b = pk.b * merge + pk1.a * pk2.b
    check = floor_exact(Rational(new_a) / rems[k - 1])
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
    if a_prime < 1 or b_prime < a_prime:
        raise ValueError("need a proper digit pair a' <= b'")
    x_prime = _exact(x_prime)
    if x_prime < 0 or x_prime >= 1:
        raise ValueError("tail must lie in [0, 1)")
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
                    rest = b_prime - a_k1 * b_k2
                    if rest <= 0 or rest % merge:
                        continue
                    b_k = rest // merge
                    if b_k < a_k:
                        continue
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
    eps = _exact(epsilon)
    if not isinstance(eps, Rational) or not (Rational(0) < eps < Rational(1)):
        raise ValueError("epsilon must be a rational in (0, 1)")
    if n < 1:
        raise ValueError("need n >= 1")
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
