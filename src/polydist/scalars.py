"""Exact coefficient rings for the series machinery.

Two rings share one informal protocol of five members: ``zero``, ``one``,
``is_zero``, ``coerce`` (an ``int``/``Fraction``, or an element of the
ring, into the ring) and ``lincomb``:

- ``QQ`` — the rationals, with plain ``int`` and ``fractions.Fraction``
  elements: a value stays an ``int`` until a division makes it a
  ``Fraction``, and nothing is converted on the way in;
- ``PolyRing`` — sparse multivariate polynomials over the rationals in a
  fixed, registered set of named generators (fresh symbols must be declared
  up front, so a typo in a symbol name is an error, never a silent new
  variable).

Elements know their ring; mixing elements of different rings raises
``RingMismatchError``.  Plain ``int``/``Fraction`` scalars coerce into any
ring.  ``lincomb(pairs)`` is the one way to sum coefficients: it returns
the sum of q·p over ``(p, q)`` pairs, p in the ring and q rational, in one
pass instead of a fold of ``+`` that copies every partial sum; every
series sum is one ``lincomb`` per coefficient (``NCSeries.lincomb``).

A polynomial keeps integer numerators over one positive denominator in
lowest terms, so its arithmetic is integer work: a product convolves the
numerators over the product of the denominators, a sum or ``lincomb``
rescales each operand by lcm // den, and one gcd pass reduces the result.
A monomial is the sorted tuple of its generator indices, each repeated by
its exponent (chi^2·rho is ``(0, 0, 1)``), so its degree is ``len`` and a
product of monomials is ``tuple(sorted(m1 + m2))``.  ``Fraction`` appears
only at the boundary (``terms``, printing).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import gcd, lcm


class RingMismatchError(ValueError):
    """Raised when an operation mixes elements of different rings."""


class UnknownSymbolError(KeyError):
    """Raised when a symbol name was never registered with the ring."""


def _rational(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RationalField:
    """The field of rationals; elements are plain ints and Fractions."""

    zero = 0
    one = 1

    def is_zero(self, a):
        return a == 0

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return x
        raise RingMismatchError(f"cannot coerce {x!r} into QQ")

    def lincomb(self, pairs):
        """Sum of q·p over ``(p, q)`` pairs, q rational."""
        total = 0
        for p, q in pairs:
            total += self.coerce(p) * q
        return total

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


class PolyRing:
    """Polynomials over QQ in a fixed tuple of named generators.

    Generators are registered at construction; ``sym(name)`` for an
    unregistered name raises UnknownSymbolError.
    """

    def __init__(self, generators):
        gens = tuple(generators)
        if len(set(gens)) != len(gens):
            raise ValueError("duplicate generator names")
        self.gens = gens
        self.index = {g: i for i, g in enumerate(gens)}

    @property
    def zero(self):
        return _poly(self, {}, 1)

    @property
    def one(self):
        return _poly(self, {(): 1}, 1)

    def from_fraction(self, q):
        q = _rational(q)
        return _poly(self, {(): q.numerator}, q.denominator)

    def sym(self, name):
        try:
            i = self.index[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name!r} not registered") from None
        return _poly(self, {(i,): 1}, 1)

    def is_zero(self, a):
        return not a.nums

    def coerce(self, x):
        if isinstance(x, SymbolicPoly):
            if x.ring != self:
                raise RingMismatchError("polynomial from a different ring")
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_fraction(x)
        raise RingMismatchError(f"cannot coerce {x!r} into {self!r}")

    def lincomb(self, pairs):
        """Sum of q·p over ``(p, q)`` pairs, q rational, summed in integers
        over the common denominator of every q·p."""
        scaled = []
        for p, q in pairs:
            if q:
                p = self.coerce(p)
                scaled.append((p.nums, q.numerator, q.denominator * p.den))
        den = lcm(*[d for _, _, d in scaled])
        acc = {}
        for nums, qn, d in scaled:
            f = qn * (den // d)
            for m, a in nums.items():
                acc[m] = acc.get(m, 0) + f * a
        return _poly(self, acc, den)

    def __repr__(self):
        shown = ",".join(self.gens[:4]) + (",..." if len(self.gens) > 4 else "")
        return f"PolyRing({shown})[{len(self.gens)} gens]"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing) and self.gens == other.gens
        )

    def __hash__(self):
        return hash(("PolyRing", self.gens))


def _runs(m):
    """The ``(generator index, exponent)`` runs of the monomial ``m``."""
    return tuple((i, len(list(g))) for i, g in groupby(m))


class SymbolicPoly:
    """Sparse polynomial sum(nums[m]·m) / den with int numerators.

    A monomial m is the sorted tuple of its generator indices, each
    repeated by its exponent; ``()`` is the constant monomial.  The form is
    canonical: no numerator is zero, den > 0, gcd(den, *nums) == 1 and the
    zero polynomial has den 1.
    ``SymbolicPoly(ring, terms)`` builds one from ``{monomial: Fraction}``.
    """

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring, terms):
        den = lcm(*[c.denominator for c in terms.values()])
        _poly(ring, {m: c.numerator * (den // c.denominator)
                     for m, c in terms.items()}, den, self)

    @property
    def terms(self):
        """The coefficients as a fresh ``{monomial: Fraction}`` dict."""
        return {m: Fraction(a, self.den) for m, a in self.nums.items()}

    # -- helpers ------------------------------------------------------

    def _check(self, other):
        if isinstance(other, SymbolicPoly):
            if other.ring == self.ring:
                return other
            raise RingMismatchError("polynomials from different rings")
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(other)
        return None

    def is_zero(self):
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other, sign=1):
        # self + sign·other over the lcm of the two denominators
        other = self._check(other)
        if other is None:
            return NotImplemented
        den = lcm(self.den, other.den)
        f, g = den // self.den, sign * (den // other.den)
        nums = {m: f * a for m, a in self.nums.items()}
        for m, b in other.nums.items():
            nums[m] = nums.get(m, 0) + g * b
        return _poly(self.ring, nums, den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.ring, {m: -a for m, a in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        # m1 + m2 is already sorted when m1 ends at or below m2's first
        # index, as about half the pairs do; only the others are sorted.
        # The constant monomial () counts as starting past every index.
        past = len(self.ring.gens)
        right = [(m2, b, m2[0] if m2 else past) for m2, b in other.nums.items()]
        acc = {}
        for m1, a in self.nums.items():
            last = m1[-1] if m1 else -1
            for m2, b, first in right:
                m = m1 + m2
                if last > first:
                    m = tuple(sorted(m))
                acc[m] = acc.get(m, 0) + a * b
        return _poly(self.ring, acc, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.from_fraction(other)
        if not isinstance(other, SymbolicPoly):
            return NotImplemented
        return self.ring == other.ring and (
            self.den == other.den and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.ring, self.den, frozenset(self.nums.items())))

    # -- structure -----------------------------------------------------

    def substitute(self, mapping):
        """Substitute values for named generators.

        ``mapping`` maps generator names to int/Fraction/SymbolicPoly (same
        ring).  Unregistered names raise UnknownSymbolError.
        """
        by_index = {}
        for name, val in mapping.items():
            if name not in self.ring.index:
                raise UnknownSymbolError(f"symbol {name!r} not registered")
            by_index[self.ring.index[name]] = self.ring.coerce(val)
        pairs = []
        for m, c in self.terms.items():
            kept = tuple(i for i in m if i not in by_index)
            factor = _poly(self.ring, {kept: 1}, 1)
            for i in m:
                if i in by_index:
                    factor = factor * by_index[i]
            pairs.append((factor, c))
        return self.ring.lincomb(pairs)

    def coefficient_of(self, name):
        """Coefficient polynomial of the degree-1 power of ``name``.

        Only meaningful (and only used) when the polynomial is at most
        linear in that generator.
        """
        if name not in self.ring.index:
            raise UnknownSymbolError(f"symbol {name!r} not registered")
        idx = self.ring.index[name]
        nums = {}
        for m, a in self.nums.items():
            if m.count(idx) == 1:
                rest = tuple(i for i in m if i != idx)
                nums[rest] = nums.get(rest, 0) + a
        return _poly(self.ring, nums, self.den)

    def __str__(self):
        if not self.nums:
            return "0"
        parts = []
        # graded order: degree first, then the (index, exponent) runs
        for m, c in sorted(
            self.terms.items(), key=lambda t: (len(t[0]), _runs(t[0]))
        ):
            names = "*".join(
                f"{self.ring.gens[i]}^{e}" if e > 1 else self.ring.gens[i]
                for i, e in _runs(m)
            )
            if not names:
                parts.append(str(c))
            elif c == 1:
                parts.append(names)
            elif c == -1:
                parts.append(f"-{names}")
            else:
                parts.append(f"{c}*{names}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__


def _poly(ring, nums, den, p=None):
    """sum(nums[m]·m)/den, den > 0, in lowest terms (stored in ``p`` if given).
    ``nums`` is the caller's fresh dict and is kept when no numerator is 0."""
    if 0 in nums.values():
        nums = {m: a for m, a in nums.items() if a}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {m: a // g for m, a in nums.items()}
            den //= g
    if p is None:
        p = object.__new__(SymbolicPoly)
    p.ring, p.nums, p.den = ring, nums, den
    return p

