"""Proper continued fractions: expansion, convergents, and digit algebra.

A proper continued fraction (PCF) writes x in (0,1) as

    x = a1/(b1 + a2/(b2 + a3/(b3 + ...)))

with integer numerators a_i >= 1 chosen freely step by step and digits
b_i = floor(a_i / x_{i-1}) >= a_i forced by the remainders
x_i = a_i/x_{i-1} - b_i.  Remainders stay in [0,1); hitting 0 terminates
the expansion (rationals always terminate, whatever the numerators).

That step has one body, the ``exactreal`` kernel ``_digit(x, a)``, which
builds a/x reduced and splits it into floor and remainder at once.
``pcf_step`` is its input checks plus one call.  The enumeration of a
rational's expansions steps through its bare-int kernel ``_qdigit``, once
per distinct reduced remainder and remaining length (see
``enumerate_rational_expansions``).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd

from .exactreal import (
    ExactReal,
    Rational,
    is_zero,
    parse_exact,
    to_text,
    _at_least,
    _digit,
    _exact,
    _qdigit,
    _tail,
    _unit,
)


# frozen dataclasses set their fields through object.__setattr__
_set = object.__setattr__


class NotCoprime(ValueError):
    """A rational argument was not in lowest terms where required."""


class ImproperDigits(ValueError):
    """A digit pair with b < a, or a rewrite that would produce one."""


class MiddleCaseError(ValueError):
    """1-x has no digit-level rewrite when a1 < b1 < 2*a1."""


@dataclass(frozen=True, slots=True)
class PartialQuotient:
    """One level a/b of the fraction; b >= a >= 1."""

    a: int
    b: int

    def __post_init__(self):
        # ``type(...) is int`` turns bools away, as ``_at_least`` does
        if not (type(self.a) is int and type(self.b) is int):
            raise TypeError("digit pair must be integers")
        if self.a < 1 or self.b < self.a:
            raise ImproperDigits(f"need b >= a >= 1, got {self.a}/{self.b}")

    def __str__(self):
        return f"{self.a}/{self.b}"


@dataclass(frozen=True, slots=True)
class PCFExpansion:
    """A finite prefix of digit pairs plus the exact remainder after them.

    ``tail`` is the remainder x_n, always in [0,1); a zero tail means the
    expansion is complete (exactly the rational case).
    """

    quotients: tuple[PartialQuotient, ...]
    tail: ExactReal

    def __post_init__(self):
        object.__setattr__(self, "quotients", tuple(
            q if isinstance(q, PartialQuotient) else PartialQuotient(*q)
            for q in self.quotients))
        object.__setattr__(self, "tail", _tail(self.tail))

    @classmethod
    def _trusted(cls, quotients: tuple, tail: ExactReal) -> "PCFExpansion":
        """The expansion, unchecked: the caller guarantees a tuple of
        ``PartialQuotient`` and an exact tail in [0, 1)."""
        self = object.__new__(cls)
        _set(self, "quotients", quotients)
        _set(self, "tail", tail)
        return self

    @classmethod
    def from_pairs(cls, pairs, tail=Rational(0)) -> "PCFExpansion":
        return cls(tuple(PartialQuotient(a, b) for a, b in pairs), tail)

    def pairs(self) -> list[tuple[int, int]]:
        return [(q.a, q.b) for q in self.quotients]

    def numerators(self) -> list[int]:
        return [q.a for q in self.quotients]

    def digits(self) -> list[int]:
        return [q.b for q in self.quotients]

    def is_complete(self) -> bool:
        return is_zero(self.tail)

    def __len__(self):
        return len(self.quotients)

    def __str__(self):
        body = ", ".join(str(q) for q in self.quotients)
        if self.is_complete():
            return f"[{body}]"
        return f"[{body}; tail={self.tail}]"


def pcf_step(x: ExactReal, numerator: int) -> tuple[int, ExactReal]:
    """One expansion step: digit floor(numerator/x) and the next remainder.

    Requires 0 < x < 1 (the remainder domain) and numerator >= 1.
    """
    return _digit(_unit(x), _at_least("numerator", numerator, 1))


def expand(x, numerators, max_len: int | None = None) -> PCFExpansion:
    """Expand x with the given numerator stream.

    Args:
        x: exact value in (0,1).
        numerators: iterable of positive ints, consumed one per digit.
        max_len: optional cap on the number of digits.

    Stops at the first zero remainder, when the stream runs out, or at
    max_len, whichever comes first; the remainder at the stop becomes the
    tail.
    """
    x = _exact(x)
    quotients: list[PartialQuotient] = []
    for a in numerators:
        if max_len is not None and len(quotients) >= max_len:
            break
        if is_zero(x):
            break
        b, x = pcf_step(x, a)
        quotients.append(PartialQuotient(a, b))
    return PCFExpansion(tuple(quotients), x)


class ConvergentSeq:
    """Numerators p_n and denominators q_n of the expansion prefixes.

    Seeded with p_{-1}=1, p_0=0, q_{-1}=0, q_0=1 and advanced by
    p_n = b_n p_{n-1} + a_n p_{n-2} (same for q).  These are the unreduced
    pairs; value(n) gives the reduced convergent c_n.  The q half is
    built at once; the p half on the first ``p``, ``pair``, ``value`` or
    ``last``, so a reader of denominators alone never pays for it.
    """

    def __init__(self, expansion):
        if isinstance(expansion, PCFExpansion):
            pairs = [(quot.a, quot.b) for quot in expansion.quotients]
        else:
            # plain tuples, as orbits hand over, are kept as they are
            pairs = list(expansion)
            if not set(map(type, pairs)) <= {tuple}:
                pairs = [(q.a, q.b) if isinstance(q, PartialQuotient)
                         else tuple(q) for q in pairs]
        self._pairs = pairs
        self._q = _recurrence(pairs, 0, 1)
        self._p_half = None
        self.length = len(pairs)

    @property
    def _p(self) -> list[int]:
        if self._p_half is None:
            self._p_half = _recurrence(self._pairs, 1, 0)
        return self._p_half

    def _index(self, n: int) -> int:
        if n < -1 or n > self.length:
            raise IndexError(f"index {n} outside [-1, {self.length}]")
        return n + 1

    def p(self, n: int) -> int:
        return self._p[self._index(n)]

    def q(self, n: int) -> int:
        return self._q[self._index(n)]

    def pair(self, n: int) -> tuple[int, int]:
        i = self._index(n)
        return self._p[i], self._q[i]

    def value(self, n: int) -> Rational:
        i = self._index(n)
        return Rational(self._p[i], self._q[i])

    def last(self) -> tuple[int, int]:
        return self._p[-1], self._q[-1]

    def __len__(self):
        return self.length


def _recurrence(pairs, before, first) -> list:
    """[before, first, ...] advanced by v_n = b_n v_{n-1} + a_n v_{n-2}:
    the p half of the convergents from (1, 0), the q half from (0, 1).

    The seeds are ints, or exact ``decimal.Decimal`` integers under a
    context that keeps every digit (``cli`` prints expand's cells from
    those, since a Decimal's str() is linear in its length)."""
    out = [before, first]
    append = out.append
    for a, b in pairs:
        before, first = first, b * first + a * before
        append(first)
    return out


def _pairs_text(quotients) -> str:
    """Digit pairs as "a1/b1 a2/b2 ...", the text of a witness or an
    expansion in an output table."""
    return " ".join([f"{q.a}/{q.b}" for q in quotients])


def convergents(expansion: PCFExpansion) -> ConvergentSeq:
    return ConvergentSeq(expansion)


def reconstruct(expansion: PCFExpansion) -> ExactReal:
    """Fold the digit pairs back around the tail; exact inverse of expand."""
    value = expansion.tail
    for quot in reversed(expansion.quotients):
        value = Rational(quot.a) / (value + quot.b)
    return value


# ---------------------------------------------------------------------------
# rationals under the fixed-numerator maps


def rational_images(t0: int, s0: int) -> dict[Fraction, int]:
    """All values {N*s0/t0 mod 1} = k/t0 reachable from t0/s0 in one step,
    each with the minimal numerator N in [1, t0] achieving it.

    The images of t0/s0 under x -> frac(N/x) over all N are exactly the
    fractions k/t0 for 0 <= k < t0, and they recur cyclically in N with
    period t0.
    """
    _at_least("t0", t0, 1)
    _at_least("s0", s0, t0 + 1)
    if gcd(t0, s0) != 1:
        raise NotCoprime(f"{t0}/{s0} is not in lowest terms")
    inv = pow(s0, -1, t0)
    out: dict[Fraction, int] = {}
    for k in range(t0):
        n = (k * inv) % t0
        out[Fraction(k, t0)] = n if n >= 1 else t0
    return out


def enumerate_rational_expansions(value, length: int | None = None, *,
                                  text: bool = False) -> list:
    """Every complete expansion of a rational in (0,1), trying numerators
    1..t at each remainder t/s; optionally filtered to one exact length.

    The numerator at each level may not exceed the remainder's numerator
    (larger choices repeat the same images), so the tree is finite and the
    longest branch has exactly t0 digits.

    The result is a list of ``PCFExpansion``, in depth-first order of the
    numerators.  With ``text=True`` it is the same list as strings, each
    expansion's pairs as "a1/b1 a2/b2 ..." (``_pairs_text``), and no
    expansion object is built.
    """
    v = _unit(value, "value")
    if not isinstance(v, Rational):
        raise TypeError("enumeration works on rationals")
    found = _suffixes(v.num, v.den, length, {}, text)
    if text:
        return found
    # every complete branch ends on a zero remainder: the expansions are
    # built unchecked and share one zero tail
    complete, zero = PCFExpansion._trusted, Rational(0)
    return [complete(quotients, zero) for quotients in found]


def _suffixes(t: int, s: int, left: int | None, memo: dict, text: bool) -> list:
    """The complete suffixes below the reduced remainder t/s with ``left``
    pairs (any number if None), in depth-first order: tuples of
    ``PartialQuotient``, or their text if ``text``.

    The subtree below t/s depends on (t, s) alone, so ``memo`` keeps each
    (t, s, left) once and a parent prefixes its head to the child's list;
    each pair is built, and checked, once per memo entry and numerator."""
    key = (t, s, left)
    out = memo.get(key)
    if out is not None:
        return out
    out = []
    for n in range(1, t + 1):
        b, r_num, r_den = _qdigit(t, s, n)
        if r_num == 0:
            if left is None or left == 1:
                out.append(f"{n}/{b}" if text else (PartialQuotient(n, b),))
        elif left is None or left > 1:
            head = f"{n}/{b} " if text else (PartialQuotient(n, b),)
            below = _suffixes(r_num, r_den, None if left is None else left - 1,
                              memo, text)
            out += [head + tail for tail in below]
    memo[key] = out
    return out


def longest_chain(n: int) -> PCFExpansion:
    """The maximal-length expansion of (n-1)/n: digits
    (n-2)/(n-2), (n-3)/(n-3), ..., 1/1, 1/2 -- n-1 of them."""
    _at_least("n", n, 2)
    pairs = [(k, k) for k in range(n - 2, 0, -1)] + [(1, 2)]
    return PCFExpansion.from_pairs(pairs)


# ---------------------------------------------------------------------------
# the 1-x digit rewrite


def one_minus_transform(expansion: PCFExpansion) -> PCFExpansion:
    """Digit pairs of 1-x from the digit pairs of x, same tail behaviour.

    Two regimes exist.  With b1 >= 2*a1 the rewrite prepends a unit digit:
    [(1,1), (a1, b1-a1), rest...].  With b1 == a1 it contracts the head:
    [(a2, b1*b2+a2), (b1*a3, b3), rest...] (the second pair must stay
    proper, i.e. the second remainder of x may not exceed 1/b1, else
    ImproperDigits).  For a1 < b1 < 2*a1 no digit-level rewrite exists and
    MiddleCaseError is raised.
    """
    if len(expansion) == 0:
        raise ValueError("need at least one digit pair")
    first = expansion.quotients[0]
    a1, b1 = first.a, first.b

    if b1 >= 2 * a1:
        pairs = ((1, 1), (a1, b1 - a1)) + tuple(expansion.pairs()[1:])
        return PCFExpansion.from_pairs(pairs, expansion.tail)

    if b1 == a1:
        # a short expansion gets its missing digits from unit steps on the tail
        more = expand(expansion.tail, repeat(1), max_len=3 - len(expansion))
        quots = expansion.quotients + more.quotients
        if len(quots) == 1:  # x == a1/b1 == 1: outside the domain
            raise ValueError("expansion value must lie strictly inside (0,1)")
        a2, b2 = quots[1].a, quots[1].b
        head = (a2, b1 * b2 + a2)
        if len(quots) == 2:  # complete rational: single contracted digit
            return PCFExpansion.from_pairs((head,), more.tail)
        a3, b3 = quots[2].a, quots[2].b
        if b3 < b1 * a3:
            raise ImproperDigits(
                f"head contraction yields improper pair {b1 * a3}/{b3}; "
                "it needs the second remainder of x to stay below 1/b1")
        pairs = (head, (b1 * a3, b3)) + tuple((q.a, q.b) for q in quots[3:])
        return PCFExpansion.from_pairs(pairs, more.tail)

    raise MiddleCaseError(
        f"first digit pair {a1}/{b1} has a1 < b1 < 2*a1; 1-x has no "
        "digit-level rewrite there")


# ---------------------------------------------------------------------------
# serialization


def expansion_to_json(expansion: PCFExpansion) -> dict:
    """JSON-ready dict; exact tail as canonical text."""
    return {
        "schema": 1,
        "quotients": [[q.a, q.b] for q in expansion.quotients],
        "tail": to_text(expansion.tail),
    }


def expansion_from_json(doc: dict) -> PCFExpansion:
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    pairs = [(int(a), int(b)) for a, b in doc["quotients"]]
    return PCFExpansion.from_pairs(pairs, parse_exact(doc["tail"]))
