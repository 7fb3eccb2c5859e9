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
result.  Exact orbits do not run them (a rational coordinate is walked
as bare ints by ``_qwalk``); ``pcf.reconstruct``,
``candidates.sharpness_witness`` and the parsing of a value do.
Arithmetic with a surd builds its result in that surd's field through
``Surd(..., _squarefree=True)``, which skips the radicand decomposition
but still reduces, fixes the sign and demotes q == 0 to ``Rational``.

A plain int operand stays an int: ``u + n`` and ``u - n`` move only the
numerator, so the result is reduced as built; ``u * n`` cancels n against
the denominator alone; ``n / u`` multiplies n into the conjugate without
building 1/u; comparisons with n read one integer sign.

Each exact operation has one body here:

* order: one comparison body serves ``<``, ``<=``, ``>`` and ``>=``, on
  the sign ``_shift_sign`` (an int operand) or ``_diff_sign`` reads;
* sign of q*u - p for integers q and p: ``_affine_sign(u, q, p)``, one
  integer sign for a rational and one ``_root_sign`` for a surd;
  ``_shift_sign(u, n)`` is its q = 1 case, and the margin
  ``_margin(u, q, p)``, u - |q*u - p| in one constructor, reads it;
* floor: ``floor_times(n, v)`` gives floor(n*v) from one integer square
  root (none for a rational) and builds no value; ``floor_exact(v)`` is
  ``floor_times(1, v)``;
* shift, scale and reciprocal: ``_shift(u, n)`` is u + n, ``_scale(u,
  n)`` is u*n (negation is ``_scale(u, -1)``), and ``_int_over(n, u)`` is
  n/u (every reciprocal is ``_int_over(1, u)``);
* expansion step: ``_digit(u, n)`` gives floor(n/u) and n/u - floor(n/u)
  together, from one gcd and one divmod for a rational and one gcd and one
  integer square root for a surd.  Its rational branch is ``_qdigit(num,
  den, n)``, the same step on bare ints: it returns the digit and the
  remainder's (num, den) and builds no object;
* walk: ``_qwalk(num, den, numerators)`` takes those steps under a
  sequence of numerators until num reaches 0, in Lehmer blocks: each
  block steps the leading bits of num and den through ``_qdigit`` and is
  accepted whole by one integer cylinder test, so exact orbits walk a
  rational coordinate with a few big-integer products per block instead
  of a big division per step.

* text: ``_rational_text`` and ``_surd_text`` are the one body each of
  the canonical text, on int coefficients or on exact ``Decimal`` ones,
  whose str() is linear in their length; ``_affine_text(u, w, k, j)``
  prints k*u + j from decimal k and j, with the form and reduction of w,
  its value built in ints.

``fractions.Fraction`` is accepted as input and never used to compute.

Input checks have one body each, here, and every module calls them:
``_exact(v)`` is the only exact-type check (a TypeError); ``_unit(v,
name)`` the only check that a value lies strictly between 0 and 1,
``_tail(v, name)`` the only check that it lies in [0, 1), and
``_at_least(name, value, least)`` the only check of an integer argument
(each a ValueError).  The public floors, ``frac_part`` and ``is_zero``
check their argument through ``_exact``.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, isqrt
from operator import ge, gt, le, lt

class IncompatibleSurds(ArithmeticError):
    """Arithmetic attempted between surds from different quadratic fields."""


class ParseError(ValueError):
    """Bad textual input; carries the offset where scanning failed."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


_MAX_RADICAND = 10**18
_HASH_MODULUS = sys.hash_info.modulus


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (root, core) with n == root**2 * core and core square-free.

    Trial division runs up to n^(1/3) (at most 10^6 divisors at the
    ceiling ``_MAX_RADICAND``); what is left has at most two prime factors,
    so one perfect-square test finishes the decomposition.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
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
    return root, core


def _order(op):
    """The comparison ``op(u - other, 0)``, decided on one integer sign: a
    plain int operand through ``_shift_sign``, anything else through
    ``_coerce`` and ``_diff_sign``."""
    def compare(self, other):
        if type(other) is int:
            return op(_shift_sign(self, other), 0)
        o = _coerce(other)
        return NotImplemented if o is None else op(_diff_sign(self, o), 0)

    compare.__name__ = compare.__qualname__ = f"__{op.__name__}__"
    return compare


class ExactReal:
    """Common operator front-end; concrete types carry the dispatch data."""

    __slots__ = ()

    def floor(self) -> int:
        return floor_times(1, self)

    def frac(self) -> "ExactReal":
        return frac_part(self)

    # a plain int operand skips _coerce; ``type(other) is int`` sends bool
    # down the general path

    def __add__(self, other):
        if type(other) is int:
            return _shift(self, other)
        o = _coerce(other)
        return NotImplemented if o is None else _add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _shift(self, -other)
        o = _coerce(other)
        return NotImplemented if o is None else _add(self, _scale(o, -1))

    def __rsub__(self, other):
        if type(other) is int:
            return _shift(_scale(self, -1), other)
        o = _coerce(other)
        return NotImplemented if o is None else _add(o, _scale(self, -1))

    def __mul__(self, other):
        if type(other) is int:
            return _scale(self, other)
        o = _coerce(other)
        return NotImplemented if o is None else _mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else _mul(self, _int_over(1, o))

    def __rtruediv__(self, other):
        if type(other) is int:
            return _int_over(other, self)
        o = _coerce(other)
        return NotImplemented if o is None else _mul(o, _int_over(1, self))

    def __neg__(self):
        return _scale(self, -1)

    def __pos__(self):
        return self

    def __abs__(self):
        return _scale(self, -1) if _shift_sign(self, 0) < 0 else self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return _int_over(1, self ** (-n))
        out, base, e = Rational(1), self, n
        while e:
            if e & 1:
                out = _mul(out, base)
            e >>= 1
            if e:
                base = _mul(base, base)
        return out

    # one comparison body, bound to each order operator; every instance
    # shares its code object
    __lt__ = _order(lt)
    __le__ = _order(le)
    __gt__ = _order(gt)
    __ge__ = _order(ge)


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

    def __repr__(self):
        return f"Rational({self.num}, {self.den})"

    def __str__(self):
        return _rational_text(self.num, self.den)

    def __hash__(self):
        # hash(Fraction(num, den)) without building one: Python hashes a
        # rational as num/den modulo a prime, and as infinity when den is
        # a multiple of it
        try:
            h = hash(hash(abs(self.num)) * pow(self.den, -1, _HASH_MODULUS))
        except ValueError:
            h = sys.hash_info.inf
        h = h if self.num >= 0 else -h
        return -2 if h == -1 else h

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # a canonical surd is irrational
        return isinstance(o, Rational) and self.num == o.num and self.den == o.den

    def __float__(self):
        # int true division rounds correctly, as Fraction.__float__ does
        return self.num / self.den


class Surd(ExactReal):
    """(p + q*sqrt(d))/r in canonical form: d square-free > 1, r > 0,
    gcd(p, q, r) == 1.

    The constructor normalizes, and returns a plain ``Rational`` when the
    irrational part cancels (q == 0, or d a perfect square), so the
    canonical form is unique across the two types.  ``_squarefree=True``
    is for results inside an existing field: the caller guarantees a
    square-free d > 1 and r != 0, and only the decomposition of d is
    skipped.  ``_reduced=True`` goes further: the caller guarantees the
    canonical form itself (q != 0, r > 0, gcd(p, q, r) == 1), and nothing
    is checked.
    """

    __slots__ = ("p", "q", "d", "r")

    def __new__(cls, p: int, q: int, d: int, r: int = 1, *,
                _squarefree=False, _reduced=False):
        if _reduced:
            self = object.__new__(cls)
            self.p, self.q, self.d, self.r = p, q, d, r
            return self
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
        # gcd folds from the left and stops at 1: r, usually the small
        # one, goes first, so huge p and q cost a division by it, not a
        # gcd of their own
        g = gcd(r, p, q)
        self = object.__new__(cls)
        self.p, self.q, self.d, self.r = p // g, q // g, d, r // g
        return self

    def __repr__(self):
        return f"Surd({self.p}, {self.q}, {self.d}, {self.r})"

    def __str__(self):
        return _surd_text(self.p, self.q, self.d, self.r)

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
    n = _exact(n)
    if not isinstance(n, Rational):
        raise TypeError("sqrt_exact takes a rational")
    if n.num < 0:
        raise ValueError("negative radicand")
    if n.num == 0:
        return Rational(0)
    # sqrt(a/b) = sqrt(a*b)/b
    root, core = _squarefree_decompose(n.num * n.den)
    if core == 1:
        return Rational(root, n.den)
    return Surd(0, root, core, n.den, _squarefree=True)


# the unit-interval golden number (sqrt(5)-1)/2, fixed point of x -> 1/x - 1
GOLDEN = Surd(-1, 1, 5, 2)


def _coerce(v):
    if isinstance(v, ExactReal):
        return v
    if isinstance(v, int):
        return Rational(int(v), 1, _normalize=False)  # a bool as 0 or 1
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


def _unit(v, name: str = "x") -> ExactReal:
    """v as an exact value, checked to lie strictly between 0 and 1, the
    domain of x and of every expansion step: a nonzero value of floor 0."""
    if not isinstance(v, ExactReal):
        v = _exact(v)
    if is_zero(v) or floor_times(1, v) != 0:
        raise ValueError(f"{name} must lie strictly between 0 and 1")
    return v


def _tail(v, name: str = "tail") -> ExactReal:
    """v as an exact value, checked to lie in [0, 1), the domain of an
    expansion's tail: a value of floor 0."""
    if not isinstance(v, ExactReal):
        v = _exact(v)
    if floor_times(1, v) != 0:
        raise ValueError(f"{name} must lie in [0, 1)")
    return v


def _at_least(name: str, value, least: int) -> int:
    """value, checked to be an int (not a bool) of at least ``least``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


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


# Arithmetic with a plain int n.  Moving the numerator by a multiple of the
# denominator cannot create a common factor, so u + n is already reduced;
# u*n cancels n against the denominator only, so it is reduced too.

def _shift(u, n: int):
    """u + n."""
    if isinstance(u, Rational):
        return Rational(u.num + n * u.den, u.den, _normalize=False)
    return Surd(u.p + n * u.r, u.q, u.d, u.r, _reduced=True)


def _scale(u, n: int):
    """u*n."""
    if isinstance(u, Rational):
        g = gcd(n, u.den)
        return Rational(u.num * (n // g), u.den // g, _normalize=False)
    if n == 0:
        return Rational(0, 1, _normalize=False)
    g = gcd(n, u.r)
    return Surd(u.p * (n // g), u.q * (n // g), u.d, u.r // g, _reduced=True)


def _int_over(n: int, u):
    """n/u, without building 1/u first."""
    if isinstance(u, Rational):
        if u.num == 0:
            raise ZeroDivisionError("division by exact zero")
        g = gcd(n, u.num)
        if u.num < 0:
            g = -g  # the sign moves to the numerator
        return Rational(u.den * (n // g), u.num // g, _normalize=False)
    # n r (p - q sqrt d)/(p^2 - q^2 d); the norm p^2 - q^2 d is not 0,
    # because sqrt(d) is irrational
    k = n * u.r
    return Surd(k * u.p, -k * u.q, u.d, u.p * u.p - u.q * u.q * u.d,
                _squarefree=True)


def _qdigit(num: int, den: int, n: int) -> tuple[int, int, int]:
    """The expansion step on a bare rational u = num/den (den > 0,
    num != 0): floor(n/u) and the numerator and denominator of
    n/u - floor(n/u), from one gcd and one divmod, building no object.

    n/u = n*den/num is built reduced when num/den is, as ``_int_over``
    builds it; moving its numerator by a multiple of its denominator keeps
    it reduced, so the remainder needs no second gcd.  An unreduced num/den
    gives the same digit and a remainder of the same value, which
    ``_qwalk`` relies on when it steps a truncation."""
    g = gcd(n, num)
    if num < 0:
        g = -g  # the sign moves to the numerator
    r_den = num // g
    b, r_num = divmod(den * (n // g), r_den)
    return b, r_num, r_den


# ``_qwalk`` walks a block on this many leading bits of num and den, and
# ends it while the truncation's error, carried to the block's remainder,
# is below 2^-_BLOCK_MARGIN
_BLOCK_BITS = 256
_BLOCK_MARGIN = 32


def _qwalk(num: int, den: int, numerators) -> tuple[list[tuple[int, int]], int, int]:
    """The expansion steps of num/den (0 <= num < den) under the sequence
    ``numerators``, a_1, a_2, ... in turn, until num reaches 0 or the
    numerators run out: the digit pairs (a_k, b_k) and the final (num,
    den), as one ``_qdigit`` per step gives them.  Neither depends on
    whether num/den is reduced, and the final pair is reduced if it was.

    It steps in blocks, as Lehmer's gcd does for large numbers (Knuth,
    TAOCP vol. 2, section 4.5.2, Algorithm L).  A block walks the leading
    H = ``_BLOCK_BITS`` bits of num and den through ``_qdigit``, keeping
    the digits' convergents p_k/q_k and the numerators' product
    P = a_1...a_k.  Truncating moves num/den by about 2^-H, which k steps
    carry to about P*2^H/t^2 in the remainder, t the truncation's
    denominator by then; so the block ends once 2*bits(t) is down to
    H + bits(P) + ``_BLOCK_MARGIN``.  The whole block holds for num/den
    exactly when its remainder
    U/V = (p_k den - q_k num)/(q_{k-1} num - p_{k-1} den), signed so that
    V > 0, has 0 <= U < V, unless U = 0 and a_k = b_k (the remainder
    before step k is then 1): the cylinder test of
    ``RealizationWitness.verify``, in integers.  A refused block gives way
    to one exact step.  The block's determinant is +-P, so a factor
    common to U and V but not to num and den divides P, and one gcd
    against P removes it."""
    pairs: list[tuple[int, int]] = []
    count = len(numerators)
    limit = _BLOCK_BITS + _BLOCK_MARGIN
    i = 0
    while num and i < count:
        shift = den.bit_length() - _BLOCK_BITS
        if shift > 0:
            t_num, t_den = num >> shift, den >> shift
            p0, q0, p1, q1, product = 1, 0, 0, 1, 1
            block = []
            j = i
            while (t_num and j < count
                   and 2 * t_den.bit_length() > limit + product.bit_length()):
                a = numerators[j]
                b, t_num, t_den = _qdigit(t_num, t_den, a)
                p0, p1 = p1, b * p1 + a * p0
                q0, q1 = q1, b * q1 + a * q0
                product *= a
                block.append((a, b))
                j += 1
            if block:
                u, v = p1 * den - q1 * num, q0 * num - p0 * den
                if v < 0:
                    u, v = -u, -v
                if 0 <= u < v and (u or a != b):
                    g = gcd(product, u, v)
                    num, den = (u // g, v // g) if g > 1 else (u, v)
                    pairs += block
                    i = j
                    continue
        a = numerators[i]
        b, num, den = _qdigit(num, den, a)
        pairs.append((a, b))
        i += 1
    return pairs, num, den


def _digit(u, n: int) -> tuple[int, ExactReal]:
    """floor(n/u) and n/u - floor(n/u) together, for a nonzero int n and
    a nonzero u: the digit and remainder of the expansion step, unchecked.
    A rational u steps through ``_qdigit``."""
    if isinstance(u, Rational):
        if u.num == 0:
            raise ZeroDivisionError("division by exact zero")
        b, r_num, r_den = _qdigit(u.num, u.den, n)
        return b, Rational(r_num, r_den, _normalize=False)
    k = n * u.r
    p, q, d, r = k * u.p, -k * u.q, u.d, u.p * u.p - u.q * u.q * u.d
    if r < 0:
        p, q, r = -p, -q, -r
    g = gcd(r, p, q)
    if g > 1:
        p, q, r = p // g, q // g, r // g
    s = isqrt(q * q * d)
    b = (p + (s if q > 0 else -s - 1)) // r  # q*sqrt(d) is irrational
    return b, Surd(p - b * r, q, d, r, _reduced=True)


def _root_sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d) for integers p, q and a square-free d > 1."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0 or (p > 0) == (q > 0):
        return 1 if q > 0 else -1
    # opposite signs: the larger of p^2 and q^2 d wins (never equal)
    return (1 if p > 0 else -1) if p * p > q * q * d else (1 if q > 0 else -1)


def _affine_sign(u, q: int, p: int) -> int:
    """Sign of q*u - p for integers q and p, building no value: one integer
    sign for a rational, one ``_root_sign`` for a surd (r > 0, so it is
    that of r*(q*u - p))."""
    if isinstance(u, Rational):
        t = q * u.num - p * u.den
        return (t > 0) - (t < 0)
    return _root_sign(q * u.p - p * u.r, q * u.q, u.d)


def _shift_sign(u, n: int) -> int:
    """Sign of u - n for an integer n: ``_affine_sign`` with q = 1."""
    return _affine_sign(u, 1, n)


def _margin(u, q: int, p: int, s: int | None = None):
    """u - |q*u - p| for integers q and p, built by one constructor: with
    s the ``_affine_sign`` of q*u - p, it is (N - s*(q*N - p*D))/D for a
    rational N/D, and (P - s*(q*P - p*R) + (Q - s*q*Q)*sqrt(d))/R for a
    surd.  A caller that has read s already passes it."""
    if s is None:
        s = _affine_sign(u, q, p)
    if isinstance(u, Rational):
        n, d = u.num, u.den
        return Rational(n - s * (q * n - p * d), d)
    return Surd(u.p - s * (q * u.p - p * u.r), u.q - s * q * u.q, u.d, u.r,
                _squarefree=True)


def _affine_text(u, w, k, j) -> str:
    """The text of w = k*u + j, read from exact ``Decimal`` copies k and j
    of its integer coefficients.  w, the same value built in ints (the
    margin ``_margin`` returns, say), gives the form of the text and the
    factor its reduction took out of u's denominator; the decimals give
    the digits.  The arithmetic runs in the current decimal context, which
    the caller makes exact."""
    if isinstance(u, Rational):
        top, bottom, radical = k * u.num + j * u.den, u.den, None
    else:
        top, bottom, radical = k * u.p + j * u.r, u.r, k * u.q
    if isinstance(w, Rational):
        h = bottom // w.den
        return _rational_text(top // h, w.den)
    h = bottom // w.r
    return _surd_text(top // h, radical // h, w.d, w.r)


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
    """Exact floor: ``floor_times(1, v)``."""
    return floor_times(1, v)


def floor_times(n: int, v) -> int:
    """floor(n*v) for an integer n, building no value: one integer square
    root for a surd, none for a rational.  The package's only floor."""
    if not isinstance(v, ExactReal):
        v = _exact(v)
    if isinstance(v, Rational):
        return n * v.num // v.den
    if n == 0:
        return 0
    nq = n * v.q
    # floor((A + y)/r) == floor((A + floor(y))/r) for integers A and r > 0
    s = isqrt(nq * nq * v.d)
    return (n * v.p + (s if nq > 0 else -s - 1)) // v.r


def frac_part(v) -> ExactReal:
    """v - floor(v), exactly; the value lies in [0, 1)."""
    if not isinstance(v, ExactReal):
        v = _exact(v)
    return _shift(v, -floor_times(1, v))


def is_zero(v) -> bool:
    if not isinstance(v, ExactReal):
        v = _exact(v)
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

    grammar:  expr := term (('+'|'-') term)*
              term := factor (('*'|'/') factor)*
              factor := INT | DECIMAL | 'golden' | sqrt-form | '(' expr ')'
                      | '-' factor
              sqrt-form := 'sqrt' (INT | '(' expr ')')

    A name token is letters alone, so "sqrt5" scans as 'sqrt' INT.
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
        node = self.term()
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
            whole, _, digits = v.partition(".")
            return Rational(int(whole + digits), 10 ** len(digits))
        if k == "name":
            self.take()
            name = v.lower()
            if name == "golden":
                return GOLDEN
            if name == "sqrt":
                nk, nv, npos = self.peek()
                if nk == "int":
                    self.take()
                    return sqrt_exact(int(nv))
                self.take("op", "(")
                inner = self.expr()
                self.take("op", ")")
                if not isinstance(inner, Rational):
                    raise ParseError("nested radicals are not supported", npos)
                if inner.num < 0:
                    raise ParseError("negative radicand", npos)
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
    the square root of a negative number, or surds from two quadratic
    fields in one sum or product) is a ``ParseError`` too.
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


def _rational_text(num, den) -> str:
    """The text of num/den in lowest terms with den > 0, the one body of
    ``Rational.__str__``.  The coefficients are ints or exact
    ``decimal.Decimal`` integers, whose str() is linear in their length
    where an int's is quadratic; nothing here does arithmetic, so no
    decimal context rounds them."""
    return str(num) if den == 1 else f"{num}/{den}"


def _surd_text(p, q, d, r) -> str:
    """The text of (p + q*sqrt(d))/r in canonical form, the one body of
    ``Surd.__str__``, on coefficients as ``_rational_text`` takes them:
    |q| is read off q's text rather than computed."""
    magnitude = str(q).lstrip("-")
    root = f"sqrt({d})" if magnitude == "1" else f"{magnitude}*sqrt({d})"
    if p == 0:
        core = ("-" if q < 0 else "") + root
        return core if r == 1 else f"{core}/{r}"
    core = f"{p}{'+' if q > 0 else '-'}{root}"
    return core if r == 1 else f"({core})/{r}"


def to_text(v: ExactReal) -> str:
    """Canonical text; parse_exact(to_text(v)) == v, bit for bit."""
    if isinstance(v, (Rational, Surd)):
        return str(v)
    raise TypeError("only rationals and surds have a canonical text form")
