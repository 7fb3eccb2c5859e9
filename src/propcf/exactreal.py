"""Exact real arithmetic: rationals and quadratic surds.

Two representations share one operator interface:

* ``Rational`` -- arbitrary-precision p/q in lowest terms.
* ``Surd`` -- (p + q*sqrt(d))/r with d square-free, kept in a unique
  canonical form; arithmetic stays inside a single quadratic field.

Floors, fractional parts, signs and comparisons are exact, and all of
them are decided in integer arithmetic; comparisons also work across
quadratic fields, where sums and products raise ``IncompatibleSurds``.
Floats never mix in: convert out with ``float(v)`` at the edge.

Rational sums, products and reciprocals use the gcd-minimising formulas
of Knuth (TAOCP vol. 2, section 4.5.1), as ``fractions.Fraction`` does:
they take gcds of the small cofactors only, never of the full-size
result, which is what keeps long exact orbits fast.  Arithmetic with a
surd builds its result in that surd's field through
``Surd(..., _squarefree=True)``, which skips the radicand decomposition
but still reduces, fixes the sign and demotes q == 0 to ``Rational``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

class IncompatibleSurds(ArithmeticError):
    """Arithmetic attempted between surds from different quadratic fields."""


class ParseError(ValueError):
    """Bad textual input; carries the offset where scanning failed."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


_MAX_RADICAND = 10**18
_SQUAREFREE_CACHE: dict[int, tuple[int, int]] = {}


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (root, core) with n == root**2 * core and core square-free.

    Trial division runs up to n^(1/3) (at most 10^6 divisors at the
    ceiling ``_MAX_RADICAND``); what is left has at most two prime factors,
    so one perfect-square test finishes the decomposition.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    hit = _SQUAREFREE_CACHE.get(n)
    if hit is not None:
        return hit
    if n > _MAX_RADICAND:
        raise ValueError(f"radicand {n} is above the supported ceiling 10**18")
    root, core, m, f = 1, 1, n, 2
    while f * f <= m and f * f * f <= n:
        e = 0
        while m % f == 0:
            m //= f
            e += 1
        if e:
            root *= f ** (e // 2)
            if e % 2:
                core *= f
        f += 1 if f == 2 else 2
    # m is 1, a prime, a product of two distinct primes, or a prime squared
    s = isqrt(m)
    if s * s == m:
        root *= s
    else:
        core *= m
    _SQUAREFREE_CACHE[n] = (root, core)
    return root, core


class ExactReal:
    """Common operator front-end; concrete types carry the dispatch data."""

    __slots__ = ()

    def floor(self) -> int:
        return floor_exact(self)

    def frac(self) -> "ExactReal":
        return frac_part(self)

    def __add__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _add(self, _neg(o))

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _add(o, _neg(self))

    def __mul__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(self, _recip(o))

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(o, _recip(self))

    def __neg__(self):
        return _neg(self)

    def __pos__(self):
        return self

    def __abs__(self):
        return _neg(self) if _sign(self) < 0 else self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _recip(self ** (-n))
        out, base, e = Rational(1), self, n
        while e:
            if e & 1:
                out = _mul(out, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        return out

    def __lt__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _diff_sign(self, o) < 0

    def __le__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _diff_sign(self, o) <= 0

    def __gt__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _diff_sign(self, o) > 0

    def __ge__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _diff_sign(self, o) >= 0


class Rational(ExactReal):
    """Exact fraction num/den, always in lowest terms with den > 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, *, _normalize=True):
        if not _normalize:
            # the caller guarantees integers in lowest terms with den > 0
            self.num = num
            self.den = den
            return
        if isinstance(num, Rational):
            num, den = num.num, num.den * den
        elif isinstance(num, Fraction):
            num, den = num.numerator, num.denominator * den
        if not isinstance(num, int) or not isinstance(den, int):
            raise TypeError("Rational takes integers, Fractions or Rationals")
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        self.num = num // g
        self.den = den // g

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __repr__(self):
        return f"Rational({self.num}, {self.den})"

    def __str__(self):
        return str(self.num) if self.den == 1 else f"{self.num}/{self.den}"

    def __hash__(self):
        return hash(Fraction(self.num, self.den))

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # a canonical surd is irrational
        return isinstance(o, Rational) and self.num == o.num and self.den == o.den

    def __float__(self):
        return float(Fraction(self.num, self.den))


class Surd(ExactReal):
    """(p + q*sqrt(d))/r in canonical form: d square-free > 1, r > 0,
    gcd(p, q, r) == 1.

    The constructor normalizes, and returns a plain ``Rational`` when the
    irrational part cancels (q == 0, or d a perfect square), so the
    canonical form is unique across the two types.  ``_squarefree=True``
    is for results inside an existing field: the caller guarantees a
    square-free d > 1 and r != 0, and only the decomposition of d is
    skipped.
    """

    __slots__ = ("p", "q", "d", "r")

    def __new__(cls, p: int, q: int, d: int, r: int = 1, *,
                _squarefree=False):
        if _squarefree:
            if q == 0:
                return Rational(p, r)
        else:
            if r == 0:
                raise ZeroDivisionError("surd with zero denominator")
            if d < 0:
                raise ValueError("negative radicand")
            if q == 0 or d == 0:
                return Rational(p, r)
            root, core = _squarefree_decompose(d)
            q, d = q * root, core
            if d == 1:
                return Rational(p + q, r)
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        self = object.__new__(cls)
        self.p, self.q, self.d, self.r = p // g, q // g, d, r // g
        return self

    def conjugate(self) -> ExactReal:
        return Surd(self.p, -self.q, self.d, self.r, _squarefree=True)

    def __repr__(self):
        return f"Surd({self.p}, {self.q}, {self.d}, {self.r})"

    def __str__(self):
        s = f"sqrt({self.d})" if abs(self.q) == 1 else f"{abs(self.q)}*sqrt({self.d})"
        if self.p == 0:
            core = ("-" if self.q < 0 else "") + s
            return core if self.r == 1 else f"{core}/{self.r}"
        core = f"{self.p}{'+' if self.q > 0 else '-'}{s}"
        return core if self.r == 1 else f"({core})/{self.r}"

    def __hash__(self):
        return hash((self.p, self.q, self.d, self.r))

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return isinstance(o, Surd) and (
            (self.p, self.q, self.d, self.r) == (o.p, o.q, o.d, o.r))

    def __float__(self):
        # the midpoint of the 80-bit isqrt enclosure of q*sqrt(d), rounded once
        s = isqrt(self.q * self.q * self.d << 160)
        mid = 2 * s + 1 if self.q > 0 else -2 * s - 1
        return ((self.p << 81) + mid) / (self.r << 81)


def sqrt_exact(n) -> ExactReal:
    """Exact square root of a non-negative int, Fraction or Rational."""
    if isinstance(n, Rational):
        n = n.as_fraction()
    if isinstance(n, int):
        n = Fraction(n)
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return Rational(0)
    m = n.numerator * n.denominator  # sqrt(a/b) = sqrt(a*b)/b
    root, core = _squarefree_decompose(m)
    if core == 1:
        return Rational(root, n.denominator)
    return Surd(0, root, core, n.denominator)


# the unit-interval golden number (sqrt(5)-1)/2, fixed point of x -> 1/x - 1
GOLDEN = Surd(-1, 1, 5, 2)


def _coerce(v):
    if isinstance(v, ExactReal):
        return v
    if isinstance(v, int):
        return Rational(v, 1, _normalize=False)
    if isinstance(v, Fraction):
        return Rational(v.numerator, v.denominator)
    return None


def _exact(v) -> ExactReal:
    """``_coerce`` for arguments that must be exact: anything else is a
    TypeError."""
    out = _coerce(v)
    if out is None:
        raise TypeError(f"expected an exact value, got {type(v).__name__}")
    return out


# ---------------------------------------------------------------------------
# central dispatch

def _shared_radicand(u, v) -> int:
    if u.d != v.d:
        raise IncompatibleSurds(f"sqrt({u.d}) and sqrt({v.d}) do not mix exactly")
    return u.d


# Sums, products and reciprocals that involve a surd build their result in
# the surd's own field, so the radicand is already square-free and
# ``Surd(..., _squarefree=True)`` skips decomposing it again.

def _add(u, v):
    if isinstance(u, Rational):
        if isinstance(v, Rational):
            na, da, nb, db = u.num, u.den, v.num, v.den
            g = gcd(da, db)
            if g == 1:
                return Rational(na * db + nb * da, da * db, _normalize=False)
            s = da // g
            t = na * (db // g) + nb * s
            g2 = gcd(t, g)  # the only factor t can share with s * db
            return Rational(t // g2, s * (db // g2), _normalize=False)
        u, v = v, u  # sums commute: the surd goes first
    if isinstance(v, Rational):
        return Surd(u.p * v.den + v.num * u.r, u.q * v.den, u.d, u.r * v.den,
                    _squarefree=True)
    return Surd(u.p * v.r + v.p * u.r, u.q * v.r + v.q * u.r,
                _shared_radicand(u, v), u.r * v.r, _squarefree=True)


def _mul(u, v):
    if isinstance(u, Rational):
        if isinstance(v, Rational):
            na, da, nb, db = u.num, u.den, v.num, v.den
            # both inputs are reduced, so cross-cancelling leaves a reduced
            # product
            g1 = gcd(na, db)
            if g1 > 1:
                na //= g1
                db //= g1
            g2 = gcd(nb, da)
            if g2 > 1:
                nb //= g2
                da //= g2
            return Rational(na * nb, da * db, _normalize=False)
        u, v = v, u  # products commute: the surd goes first
    if isinstance(v, Rational):
        return Surd(u.p * v.num, u.q * v.num, u.d, u.r * v.den,
                    _squarefree=True)
    d = _shared_radicand(u, v)
    return Surd(u.p * v.p + u.q * v.q * d, u.p * v.q + u.q * v.p, d,
                u.r * v.r, _squarefree=True)


def _neg(u):
    if isinstance(u, Rational):
        return Rational(-u.num, u.den, _normalize=False)
    return Surd(-u.p, -u.q, u.d, u.r, _squarefree=True)


def _recip(u):
    if isinstance(u, Rational):
        if u.num == 0:
            raise ZeroDivisionError("division by exact zero")
        if u.num < 0:
            return Rational(-u.den, -u.num, _normalize=False)
        return Rational(u.den, u.num, _normalize=False)
    # 1/((p + q sqrt d)/r) = r(p - q sqrt d)/(p^2 - q^2 d); the norm is not
    # 0, because sqrt(d) is irrational
    norm = u.p * u.p - u.q * u.q * u.d
    return Surd(u.r * u.p, -u.r * u.q, u.d, norm, _squarefree=True)


def _root_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for integers p, q and a square-free d > 1."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: the larger of p^2 and q^2 d wins (never equal)
    return (1 if p > 0 else -1) if p * p > q * q * d else (1 if q > 0 else -1)


def _sign(u) -> int:
    if isinstance(u, Rational):
        return (u.num > 0) - (u.num < 0)
    return _root_sign(u.p, u.q, u.d)  # r > 0


def _diff_sign(u, v) -> int:
    """Sign of u - v, decided in integers, building no intermediate value.

    Within one field, the positive multiple den_u*den_v*(u - v) is some
    A + B*sqrt(d), whose sign ``_root_sign`` reads.  For surds u in
    Q(sqrt d1) and v in Q(sqrt d2) with d1 != d2, write
    r1*r2*(u - v) = X - C*sqrt(d2) with X = A + B*sqrt(d1).  When X and
    C*sqrt(d2) differ in sign, X's sign is the answer; otherwise the answer
    is that sign times the sign of
    X^2 - C^2 d2 = (A^2 + B^2 d1 - C^2 d2) + 2AB*sqrt(d1), one more
    same-field sign.  The result is never 0, because 1, sqrt(d1) and
    sqrt(d2) are linearly independent over the rationals.
    """
    if isinstance(u, Rational):
        if isinstance(v, Rational):
            t = u.num * v.den - v.num * u.den
            return (t > 0) - (t < 0)
        return _root_sign(u.num * v.r - v.p * u.den, -v.q * u.den, v.d)
    if isinstance(v, Rational):
        return _root_sign(u.p * v.den - v.num * u.r, u.q * v.den, u.d)
    a = u.p * v.r - v.p * u.r
    b = u.q * v.r
    c = v.q * u.r
    if u.d == v.d:
        return _root_sign(a, b - c, u.d)
    s = _root_sign(a, b, u.d)
    if s != (1 if c > 0 else -1):
        return s
    return s * _root_sign(a * a + b * b * u.d - c * c * v.d, 2 * a * b, u.d)


# ---------------------------------------------------------------------------
# floors and fractional parts


def floor_exact(v) -> int:
    """Exact floor, from one integer square root for a surd."""
    v = _coerce(v)
    if isinstance(v, Rational):
        return v.num // v.den
    s = isqrt(v.q * v.q * v.d)
    root_floor = s if v.q > 0 else -s - 1  # q*sqrt(d) is irrational
    return (v.p + root_floor) // v.r


def frac_part(v) -> ExactReal:
    """v - floor(v), exactly; the value lies in [0, 1)."""
    v = _coerce(v)
    return _add(v, Rational(-floor_exact(v)))


def is_zero(v) -> bool:
    v = _coerce(v)
    return isinstance(v, Rational) and v.num == 0


# ---------------------------------------------------------------------------
# parsing and printing


_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<dec>\d+\.\d+)|(?P<int>\d+)|(?P<name>[A-Za-z_]+)|(?P<op>[()+\-*/])")


def _tokenize(text):
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


class _Parser:
    """Tiny recursive-descent evaluator over exact values.

    grammar:  expr := ['-'] term (('+'|'-') term)*
              term := factor (('*'|'/') factor)*
              factor := INT | DECIMAL | 'golden' | sqrt-form | '(' expr ')'
              sqrt-form := 'sqrt' (INT | '(' expr ')')   (also spelled sqrtN)
    """

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v, pos = self.toks[self.i]
        if (kind and k != kind) or (value and v != value):
            want = value or kind
            raise ParseError(f"expected {want}, found {v or 'end of input'!r}", pos)
        self.i += 1
        return v, pos

    def expr(self):
        negate = False
        k, v, _ = self.peek()
        if k == "op" and v == "-":
            self.take()
            negate = True
        node = self.term()
        if negate:
            node = -node
        while True:
            k, v, _ = self.peek()
            if k == "op" and v in "+-":
                self.take()
                rhs = self.term()
                node = node + rhs if v == "+" else node - rhs
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            k, v, _ = self.peek()
            if k == "op" and v in "*/":
                self.take()
                rhs = self.factor()
                node = node * rhs if v == "*" else node / rhs
            else:
                return node

    def factor(self):
        k, v, pos = self.peek()
        if k == "int":
            self.take()
            return Rational(int(v))
        if k == "dec":
            self.take()
            f = Fraction(v)
            return Rational(f.numerator, f.denominator)
        if k == "name":
            self.take()
            name = v.lower()
            if name == "golden":
                return GOLDEN
            if name.startswith("sqrt"):
                tail = name[4:]
                if tail:
                    if not tail.isdigit():
                        raise ParseError(f"unknown name {v!r}", pos)
                    return sqrt_exact(int(tail))
                nk, nv, npos = self.peek()
                if nk == "int":
                    self.take()
                    return sqrt_exact(int(nv))
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                if not isinstance(inner, Rational):
                    raise ParseError("nested radicals are not supported", npos)
                return sqrt_exact(inner)
            raise ParseError(f"unknown name {v!r}", pos)
        if k == "op" and v == "(":
            self.take()
            inner = self.expr()
            self.take("op", ")")
            return inner
        if k == "op" and v == "-":
            self.take()
            return -self.factor()
        raise ParseError(f"unexpected {v!r}" if v else "unexpected end of input", pos)


def parse_exact(text: str) -> ExactReal:
    """Parse "p/q", decimal literals, sqrt combinations like "(sqrt5-1)/2"
    or "(3-sqrt(17))/2", and the alias "golden".

    Text that scans but cannot be evaluated exactly (a division by zero,
    or surds from two quadratic fields in one sum or product) is a
    ``ParseError`` too.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty input", 0)
    p = _Parser(text)
    try:
        value = p.expr()
    except (ZeroDivisionError, IncompatibleSurds) as exc:
        raise ParseError(f"cannot evaluate {text!r}: {exc}") from None
    k, v, pos = p.peek()
    if k != "end":
        raise ParseError(f"trailing input {v!r}", pos)
    return value


def to_text(v: ExactReal) -> str:
    """Canonical text; parse_exact(to_text(v)) == v, bit for bit."""
    if isinstance(v, (Rational, Surd)):
        return str(v)
    raise TypeError("only rationals and surds have a canonical text form")
