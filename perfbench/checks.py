"""Independent checks of CLI outputs, run outside the timed region.

Nothing here imports propcf.  Orbits are recomputed on integer
numerator/denominator pairs, candidate rows and expansions of quadratic
surds in integer arithmetic (``isqrt`` floors), and rational enumerations
by an independent count and by expanding every listed digit sequence.

``check(op, text)`` returns the operation's units of work (orbit steps,
candidate rows, or expansions) and raises ``CheckFailed`` on any wrong
value.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction
from functools import lru_cache

from workloads import Operation, unit_rational_bits


class CheckFailed(Exception):
    """An output disagrees with the independent recomputation."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _equal(got, want, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# quadratic surds (u + v*sqrt(d))/w in integers


class Quad:
    """(u + v*sqrt(d))/w with d square-free > 1, w > 0, gcd(u, v, w) = 1."""

    __slots__ = ("u", "v", "w", "d")

    def __init__(self, u: int, v: int, w: int, d: int):
        if w < 0:
            u, v, w = -u, -v, -w
        g = math.gcd(math.gcd(u, v), w)
        self.u, self.v, self.w, self.d = u // g, v // g, w // g, d

    @classmethod
    def of(cls, surd: tuple[int, int, int, int]) -> "Quad":
        p, q, d, r = surd
        return cls(p, q, r, d)

    def _lift(self, other) -> "Quad":
        return other if isinstance(other, Quad) else Quad(other, 0, 1, self.d)

    def __add__(self, other):
        o = self._lift(other)
        return Quad(self.u * o.w + o.u * self.w, self.v * o.w + o.v * self.w,
                    self.w * o.w, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.u, -self.v, self.w, self.d)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) + -self

    def __mul__(self, other):
        o = self._lift(other)
        return Quad(self.u * o.u + self.v * o.v * self.d,
                    self.u * o.v + self.v * o.u, self.w * o.w, self.d)

    __rmul__ = __mul__

    def recip(self) -> "Quad":
        norm = self.u * self.u - self.v * self.v * self.d
        _expect(norm != 0, "reciprocal of zero")
        return Quad(self.w * self.u, -self.w * self.v, norm, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) * self.recip()

    def sign(self) -> int:
        u, v = self.u, self.v
        if v == 0 or (u >= 0 and v >= 0) or (u <= 0 and v <= 0):
            s = u + v
            return (s > 0) - (s < 0)
        big = u * u > v * v * self.d
        return (1 if big else -1) * (1 if u > 0 else -1)

    def floor(self) -> int:
        v2d = self.v * self.v * self.d
        root = math.isqrt(v2d)
        if self.v < 0:
            root = -root - (0 if root * root == v2d else 1)
        return (self.u + root) // self.w

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def text(self) -> str:
        """The CLI's canonical text for this value."""
        if self.v == 0:
            return str(Fraction(self.u, self.w))
        q = abs(self.v)
        root = f"sqrt({self.d})" if q == 1 else f"{q}*sqrt({self.d})"
        if self.u == 0:
            core = ("-" if self.v < 0 else "") + root
            return core if self.w == 1 else f"{core}/{self.w}"
        core = f"{self.u}{'+' if self.v > 0 else '-'}{root}"
        return core if self.w == 1 else f"({core})/{self.w}"


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for token in text.split():
        a, _, b = token.partition("/")
        pairs.append((int(a), int(b)))
    return pairs


def _verify_witness(x: Quad, text: str, p: int, q: int, length: int) -> None:
    """The witness digits expand from x and their last convergent is (p, q)."""
    pairs = _parse_pairs(text)
    _equal(len(pairs), length, f"witness {text!r} length")
    rem = x
    p_prev, p_cur, q_prev, q_cur = 1, 0, 0, 1
    for a, b in pairs:
        _expect(1 <= a <= b, f"witness {text!r} has an improper pair")
        ratio = a / rem
        _equal(ratio.floor(), b, f"witness {text!r} digit for numerator {a}")
        rem = ratio - b
        p_prev, p_cur = p_cur, b * p_cur + a * p_prev
        q_prev, q_cur = q_cur, b * q_cur + a * q_prev
    _equal((p_cur, q_cur), (p, q), f"witness {text!r} convergent")


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small) | {n // k for k in small})


def _even_realizable(x: Quad, p: int, q: int) -> bool:
    """Brute force: some two-step prefix (a1/b1, a2/b2) has p2 = p, q2 = q.

    p2 = a1*b2 forces a1 | p, and then q2 = b1*b2 + a2 fixes a2.
    """
    for a1 in _divisors(p):
        b1 = (a1 / x).floor()
        b2 = p // a1
        a2 = q - b1 * b2
        if not (1 <= a2 <= b2):
            continue
        x1 = a1 / x - b1
        if (a2 / x1).floor() == b2:
            return True
    return False


def _cutoff(x: Quad, q: int) -> str:
    scaled = q * x
    base = scaled.floor()
    f = scaled - base
    if f.sign() == 0 or not f < x or base < 1:
        return "not_even_candidate"
    half = x * Quad(1, 0, 2, x.d)
    inv = x.recip()
    stretched = x * (inv - inv.floor())
    threshold = half if half > stretched else stretched
    return "guaranteed_realizable" if f < threshold else "undetermined"


# ---------------------------------------------------------------------------
# per-command checks


def _check_classify_p(op: Operation, text: str) -> int:
    x, lo, hi = Quad.of(op.params["x"]), op.params["lo"], op.params["hi"]
    doc = json.loads(text)
    _equal((doc["command"], doc["mode"], doc["x"], doc["range"],
            doc["oracle_checked"]),
           ("classify", "p", x.text(), [lo, hi], op.params.get("oracle", False)),
           "classify header")
    rows = doc["rows"]
    _equal(len(rows), 2 * (hi - lo + 1), "classify row count")
    for i, p in enumerate(range(lo, hi + 1)):
        odd, even = rows[2 * i], rows[2 * i + 1]
        q_odd = (p / x).floor()
        _equal((odd["x"], odd["p"], odd["q"], odd["parity"], odd["realizable"],
                odd["cutoff"]),
               (x.text(), str(p), str(q_odd), "odd", "true", ""),
               f"odd row p={p}")
        _verify_witness(x, odd["witness"], p, q_odd, 1)
        q_even = q_odd + 1
        realizable = _even_realizable(x, p, q_even)
        _equal((even["x"], even["p"], even["q"], even["parity"],
                even["realizable"], even["cutoff"]),
               (x.text(), str(p), str(q_even), "even", _bool_text(realizable),
                _cutoff(x, q_even)),
               f"even row p={p}")
        if realizable:
            _verify_witness(x, even["witness"], p, q_even, 2)
        else:
            _equal(even["witness"], "", f"even row p={p} witness")
    return len(rows)


def _check_classify_q(op: Operation, text: str) -> int:
    x, lo, hi = Quad.of(op.params["x"]), op.params["lo"], op.params["hi"]
    doc = json.loads(text)
    _equal((doc["command"], doc["mode"], doc["x"], doc["range"],
            doc["oracle_checked"]), ("classify", "q", x.text(), [lo, hi], True),
           "classify header")
    rows = doc["rows"]
    _equal(len(rows), hi - lo + 1, "classify row count")
    for row, q in zip(rows, range(lo, hi + 1)):
        scaled = q * x
        base = scaled.floor()
        f = scaled - base
        p_even = base if (f < x and base >= 1) else None
        p_odd = base + 1 if f > 1 - x else None
        realizable = None
        if p_even is not None:
            _equal((p_even / x).floor() + 1, q, f"even candidate q={q}")
            realizable = _even_realizable(x, p_even, q)
        _equal((row["x"], row["q"], row["p_even"], row["p_odd"],
                row["even_realizable"], row["cutoff"]),
               (x.text(), str(q), "" if p_even is None else str(p_even),
                "" if p_odd is None else str(p_odd),
                "" if realizable is None else _bool_text(realizable),
                _cutoff(x, q)),
               f"row q={q}")
        if realizable:
            _verify_witness(x, row["witness"], p_even, q, 2)
        else:
            _equal(row["witness"], "", f"row q={q} witness")
    return len(rows)


def _joint_orbit(x: tuple[int, int], y: tuple[int, int] | None, n: int):
    """Digits of n joint steps on (num, den) pairs; y None is the golden
    mean, whose classical digits are all 1.  The pairs stay exact without
    reduction: the new denominator is always the old numerator."""
    xn, xd = x
    yn, yd = y if y is not None else (1, 1)
    digits, terminated = [], ""
    for _ in range(n):
        x_dead, y_dead = xn == 0, y is not None and yn == 0
        if x_dead or y_dead:
            terminated = ("both_zero" if x_dead and y_dead else
                          "x_zero" if x_dead else "y_zero")
            break
        if y is None:
            a = 1
        else:
            a = yd // yn
            yn, yd = yd - a * yn, yn
        b = a * xd // xn
        xn, xd = a * xd - b * xn, xn
        digits.append((a, b))
    return digits, terminated


def _slope(points: list[tuple[int, float]]) -> float:
    mean_k = sum(k for k, _ in points) / len(points)
    mean_v = sum(v for _, v in points) / len(points)
    num = sum((k - mean_k) * (v - mean_v) for k, v in points)
    den = sum((k - mean_k) ** 2 for k, _ in points)
    return num / den


def _check_simulate(op: Operation, text: str) -> int:
    n, seed, y = op.params["n"], op.params["seed"], op.params["y"]
    bits = unit_rational_bits(n)
    rng = random.Random(seed)
    den = (1 << bits) | rng.getrandbits(bits)
    num = rng.randrange(1, den)
    digits, terminated = _joint_orbit((num, den), y, n)
    steps = len(digits)

    samples = []
    q_prev, q_cur = 0, 1
    for k, (a, b) in enumerate(digits, start=1):
        q_prev, q_cur = q_cur, b * q_cur + a * q_prev
        samples.append((k, math.log(q_cur) / k))
    _expect(steps > 0, "orbit without a single step")
    estimate = math.exp(samples[-1][1])
    oscillation = max(abs(math.exp(v) - estimate)
                      for _, v in samples[(3 * steps) // 4:])
    reliable = steps == n and steps >= 16 and oscillation < 0.05 * estimate

    doc = json.loads(text)
    y_text = (f"{y[0]}/{y[1]}" if y is not None else
              Quad.of((-1, 1, 5, 2)).text())
    _equal((doc["command"], doc["seed"], doc["orbits"], doc["n"],
            doc["seed_bits"], doc["y"], doc["partial"]),
           ("simulate", seed, 1, n, bits, y_text, steps < n),
           "simulate header")
    (digest,) = doc["digests"]
    _equal({key: digest[key] for key in ("orbit", "seed", "n", "steps",
                                         "reliable", "truncated",
                                         "terminated_by")},
           {"orbit": "0", "seed": str(seed), "n": str(n), "steps": str(steps),
            "reliable": _bool_text(reliable),
            "truncated": _bool_text(steps < n), "terminated_by": terminated},
           "orbit digest")
    _equal(float(digest["estimate"]), estimate, "growth estimate")
    _equal(float(digest["oscillation"]), oscillation, "oscillation")
    half = samples[steps // 2:]
    if len(half) >= 2:
        slope = _slope(half)
        _expect(math.isclose(float(digest["trend_slope"]), slope,
                             rel_tol=1e-6, abs_tol=1e-15),
                f"trend slope {digest['trend_slope']} against {slope!r}")
    else:
        _equal(digest["trend_slope"], "nan", "trend slope of a short orbit")

    visits: dict[tuple[int, int], int] = {}
    for pair in digits:
        visits[pair] = visits.get(pair, 0) + 1
    want = [{"a": str(a), "b": str(b), "count": str(c),
             "frequency": str(Fraction(c, steps))}
            for (a, b), c in sorted(visits.items())]
    _equal(doc["frequencies"], want, "cylinder frequencies")
    return steps


@lru_cache(maxsize=None)
def expansion_count(t: int, s: int) -> int:
    """Complete expansions of t/s with every numerator at most the
    numerator of its remainder, counted by the same tree, memoized."""
    total = 0
    for a in range(1, t + 1):
        rem = a * s % t
        if rem == 0:
            total += 1
        else:
            g = math.gcd(rem, t)
            total += expansion_count(rem // g, t // g)
    return total


def _check_expansion(pairs: list[tuple[int, int]], t0: int, s0: int) -> None:
    """Expanding t0/s0 with these numerators gives these digits and ends,
    and folding the pairs back gives t0/s0."""
    t, s = t0, s0
    for a, b in pairs:
        if not (0 < a <= t and b == a * s // t):
            raise CheckFailed(f"{pairs} is not an expansion of {t0}/{s0}")
        rem = a * s - b * t
        g = math.gcd(rem, t)
        t, s = rem // g, t // g
    if t != 0:
        raise CheckFailed(f"{pairs} stops before the end of {t0}/{s0}")
    num, den = 0, 1
    for a, b in reversed(pairs):
        num, den = a * den, b * den + num
    _equal(Fraction(num, den), Fraction(t0, s0), f"{pairs} value")


def _table(text: str, fmt: str, key: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)[key]
    return list(csv.DictReader(io.StringIO(text)))


def _check_rational(op: Operation, text: str) -> int:
    t, s = op.params["t"], op.params["s"]
    rows = _table(text, op.fmt, "rows")
    count = expansion_count(t, s)
    _equal(len(rows), count, f"expansion count of {t}/{s}")
    seen = set()
    for i, row in enumerate(rows):
        _equal(row["index"], str(i), "row index")
        pairs = _parse_pairs(row["pairs"])
        _equal(row["length"], str(len(pairs)), f"row {i} length")
        _check_expansion(pairs, t, s)
        seen.add(row["pairs"])
    _equal(len(seen), count, "distinct expansions")
    if op.fmt == "json":
        doc = json.loads(text)
        lengths = sorted({int(row["length"]) for row in rows})
        _equal((doc["command"], doc["value"], doc["count"], doc["max_length"],
                doc["lengths"]),
               ("rational", f"{t}/{s}", count, t, list(range(1, t + 1))),
               "rational header")
        _equal(lengths, doc["lengths"], "expansion lengths")
    return count


def _check_expand(op: Operation, text: str) -> int:
    x = Quad.of(op.params["x"])
    numerator, length = op.params["numerator"], op.params["length"]
    want, pairs = [], []
    rem = x
    p_prev, p_cur, q_prev, q_cur = 1, 0, 0, 1
    for n in range(1, length + 1):
        ratio = numerator / rem
        b = ratio.floor()
        rem = ratio - b
        p_prev, p_cur = p_cur, b * p_cur + numerator * p_prev
        q_prev, q_cur = q_cur, b * q_cur + numerator * q_prev
        margin = x - (q_cur * x - p_cur) * (q_cur * x - p_cur).sign()
        want.append({"n": str(n), "a": str(numerator), "b": str(b),
                     "p": str(p_cur), "q": str(q_cur),
                     "reduced": str(Fraction(p_cur, q_cur)),
                     "det_residual": "0", "margin": margin.text()})
        pairs.append({"a": str(numerator), "b": str(b)})
    _equal(_table(text, op.fmt, "convergents"), want, "convergent rows")
    if op.fmt == "json":
        doc = json.loads(text)
        _equal((doc["command"], doc["x"], doc["numerators"], doc["length"],
                doc["complete"], doc["tail"], doc["pairs"]),
               ("expand", x.text(), f"all:{numerator}", length, False,
                rem.text(), pairs),
               "expand header")
    return 0


_CHECKS = {
    "simulate": _check_simulate,
    "classify_p": _check_classify_p,
    "classify_q": _check_classify_q,
    "rational": _check_rational,
    "expand": _check_expand,
}


def check(op: Operation, text: str) -> int:
    """Check one output; return its units of work, raise CheckFailed."""
    try:
        return _CHECKS[op.kind](op, text)
    except (LookupError, ValueError, TypeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None
