"""Exact coefficient rings for the series machinery.

Two rings share one informal protocol (``zero``, ``one``, ``from_int``,
``from_fraction``, ``is_zero``, ``coerce``, ``lincomb``):

- ``QQ`` — the rationals, with plain ``fractions.Fraction`` elements;
- ``PolyRing`` — sparse multivariate polynomials over the rationals in a
  fixed, registered set of named generators (fresh symbols must be declared
  up front, so a typo in a symbol name is an error, never a silent new
  variable).

Elements know their ring; mixing elements of different rings raises
``RingMismatchError``.  Plain ``int``/``Fraction`` scalars coerce into any
ring.  ``lincomb(pairs)`` is the one way to sum coefficients: it returns
the sum of q·p over ``(p, q)`` pairs, p in the ring and q rational, in one
pass instead of a fold of ``+`` that copies every partial sum.

Polynomial products and ``PolyRing.lincomb`` work in Python ints: each
operand is put over the lcm of its term denominators, the integer
numerators are accumulated per monomial, and one ``Fraction`` (one gcd) is
built per output term from the sum and the common denominator, instead of
a normalised ``Fraction`` per pair of terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class RingMismatchError(ValueError):
    """Raised when an operation mixes elements of different rings."""


class UnknownSymbolError(KeyError):
    """Raised when a symbol name was never registered with the ring."""


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class RationalField:
    """The field of rationals; elements are plain Fraction objects."""

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, q):
        return _as_fraction(q)

    def is_zero(self, a):
        return a == 0

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise RingMismatchError(f"cannot coerce {x!r} into QQ")

    def lincomb(self, pairs):
        """Sum of q·p over ``(p, q)`` pairs, q rational."""
        total = Fraction(0)
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
        return SymbolicPoly(self, {})

    @property
    def one(self):
        return SymbolicPoly(self, {(): Fraction(1)})

    def from_int(self, n):
        return self.from_fraction(Fraction(n))

    def from_fraction(self, q):
        q = _as_fraction(q)
        return SymbolicPoly(self, {(): q} if q else {})

    def sym(self, name):
        try:
            i = self.index[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name!r} not registered") from None
        return SymbolicPoly(self, {((i, 1),): Fraction(1)})

    def monomial(self, exps, coeff=Fraction(1)):
        coeff = _as_fraction(coeff)
        if not coeff:
            return self.zero
        return SymbolicPoly(self, {tuple(exps): coeff})

    def is_zero(self, a):
        return not a.terms

    def coerce(self, x):
        if isinstance(x, SymbolicPoly):
            if x.ring != self:
                raise RingMismatchError("polynomial from a different ring")
            return x
        if isinstance(x, (int, Fraction)):
            return self.from_fraction(Fraction(x))
        raise RingMismatchError(f"cannot coerce {x!r} into {self!r}")

    def lincomb(self, pairs):
        """Sum of q·p over ``(p, q)`` pairs, q rational, summed in integers
        over the common denominator of every q·p."""
        scaled = []
        for p, q in pairs:
            if q:
                nums, d = _integer_terms(self.coerce(p).terms)
                scaled.append((nums, q.numerator, q.denominator * d))
        den = lcm(*[d for _, _, d in scaled])
        acc = {}
        for nums, qn, d in scaled:
            f = qn * (den // d)
            for m, a in nums:
                acc[m] = acc.get(m, 0) + f * a
        return SymbolicPoly(self, {m: Fraction(v, den) for m, v in acc.items() if v})

    def __repr__(self):
        shown = ",".join(self.gens[:4]) + (",..." if len(self.gens) > 4 else "")
        return f"PolyRing({shown})[{len(self.gens)} gens]"

    def __eq__(self, other):
        return self is other or (
            isinstance(other, PolyRing) and self.gens == other.gens
        )

    def __hash__(self):
        return hash(("PolyRing", self.gens))


def _term_key(exps):
    # graded order: total degree first, then exponent vector
    return (sum(e for _, e in exps), exps)


class SymbolicPoly:
    """Sparse polynomial: dict mapping ((gen_index, exp), ...) -> Fraction.

    Exponent tuples are sorted by generator index and contain no zero
    exponents; zero coefficients are pruned on construction.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c}

    # -- helpers ------------------------------------------------------

    def _check(self, other):
        if isinstance(other, SymbolicPoly):
            if other.ring == self.ring:
                return other
            raise RingMismatchError("polynomials from different rings")
        if isinstance(other, (int, Fraction)):
            return self.ring.from_fraction(Fraction(other))
        return None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            s = c if s is None else s + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        return SymbolicPoly(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return SymbolicPoly(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        nums1, d1 = _integer_terms(self.terms)
        nums2, d2 = _integer_terms(other.terms)
        acc = {}
        for m1, a in nums1:
            for m2, b in nums2:
                m = _mul_monomials(m1, m2)
                acc[m] = acc.get(m, 0) + a * b
        d = d1 * d2
        return SymbolicPoly(self.ring, {m: Fraction(v, d) for m, v in acc.items() if v})

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
            other = self.ring.from_fraction(Fraction(other))
        if not isinstance(other, SymbolicPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

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
            kept = tuple((i, e) for i, e in m if i not in by_index)
            factor = self.ring.monomial(kept)
            for i, e in m:
                if i in by_index:
                    factor = factor * by_index[i] ** e
            pairs.append((factor, c))
        return self.ring.lincomb(pairs)

    def symbols(self):
        """Sorted names of the generators actually occurring."""
        seen = set()
        for m in self.terms:
            for i, _ in m:
                seen.add(i)
        return [self.ring.gens[i] for i in sorted(seen)]

    def coefficient_of(self, name):
        """Coefficient polynomial of the degree-1 power of ``name``.

        Only meaningful (and only used) when the polynomial is at most
        linear in that generator.
        """
        if name not in self.ring.index:
            raise UnknownSymbolError(f"symbol {name!r} not registered")
        idx = self.ring.index[name]
        terms = {}
        for m, c in self.terms.items():
            rest = tuple((i, e) for i, e in m if i != idx)
            hit = [e for i, e in m if i == idx]
            if hit == [1]:
                terms[rest] = terms.get(rest, Fraction(0)) + c
        return SymbolicPoly(self.ring, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=_term_key):
            c = self.terms[m]
            names = "*".join(
                f"{self.ring.gens[i]}^{e}" if e > 1 else self.ring.gens[i]
                for i, e in m
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


def _integer_terms(terms):
    """``([(monomial, numerator), ...], d)``: the terms over d, the lcm of
    their denominators."""
    d = lcm(*[c.denominator for c in terms.values()])
    return [(m, c.numerator * (d // c.denominator)) for m, c in terms.items()], d


def _mul_monomials(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for i, e in m2:
        exps[i] = exps.get(i, 0) + e
    return tuple(sorted(exps.items()))

