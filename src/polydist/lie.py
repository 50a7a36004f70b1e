"""Lie-theoretic calculus on the truncated series algebra.

Contents:

- reduction modulo the monomial ideals used throughout: ``IY`` (words with
  at least two puncture letters — at any level) and ``JY`` (level-1 words
  containing XY or YY, whose survivors are X^i and Y.X^i);
- exp/log/BCH computed from their definitions, optionally inside one of
  those quotients: the ideals are monomial two-sided ideals, so a quotient
  product is exact when it skips every pair of words whose product lies in
  the ideal, before multiplying their coefficients.  exp and log are each
  one ``NCSeries.lincomb`` of the powers, with weights 1/k! and
  (-1)^(k+1)/k: one ``ring.lincomb`` per coefficient, no partial sums;
- polylog coordinates: ``polylog_element`` builds
  c0·X + sum_{s,m} c_{s,m} ad(X)^(m-1)(Y_s) from the x-coefficient c0 and
  the per-branch coefficients, and ``polylog_part`` extracts them from a
  Lie-like element modulo IY, with an exact residual check;
- one-variable truncated generating series (``GenSeries``), whose sums
  are ``GenSeries.lincomb`` and each coefficient of a product or inverse
  one ``ring.lincomb`` of its products, and the Bernoulli machinery:
  beta(t) = t/(e^t - 1), Bernoulli numbers and polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .ncseries import NCSeries, SeriesError
from .words import Word

MOD_IY = "IY"
MOD_JY = "JY"


class NotPolylogError(ValueError):
    """Raised when an element is not of polylog shape modulo IY."""

    def __init__(self, message, word=None):
        super().__init__(message)
        self.word = word


# ---------------------------------------------------------------------------
# monomial-ideal reduction
# ---------------------------------------------------------------------------


def _y_count(w):
    return len(w) - w.count(0)


def _survives_jy(w):
    # no Y may follow anything: survivors are X^i and Y.X^i
    return not any(w[1:])


def _survivor_test(which, level):
    """The test a word passes iff it lies outside the ideal ``which``."""
    if which == MOD_IY:
        return lambda w: _y_count(w) < 2
    if which == MOD_JY:
        if level != 1:
            raise SeriesError("the XY/YY quotient is defined at level 1 only")
        return _survives_jy
    raise ValueError(f"unknown ideal {which!r}")


def reduce_mod_ideal(series, which):
    """Project away the span of the monomial ideal ``which`` (IY or JY)."""
    keep = _survivor_test(which, series.level)
    return NCSeries(
        series.ring,
        series.level,
        series.flavor,
        series.trunc,
        {w: c for w, c in series.coeffs.items() if keep(w)},
    )


def mul_mod(a, b, which=None):
    """``a * b``, projected away from the ideal ``which`` when given.

    Each input is reduced once, and a pair of surviving words (w1, w2) is
    multiplied only if w1·w2 survives too, so no coefficient product is
    spent on a word of the ideal: modulo IY the Y counts of w1 and w2 add up
    to at most 1; modulo JY w2 is pure X, or w1 is empty.  The right terms
    are split once into one list per case and each left word picks its
    list, so no pair is tested.
    """
    if which is None:
        return a * b
    a._check(b)
    keep = _survivor_test(which, a.level)
    right = [t for t in b.coeffs.items() if keep(t[0])]
    if which == MOD_IY:
        y_free = [t for t in right if _y_count(t[0]) == 0]
        by_y_count = (right, y_free, ())

        def partners(w1):
            return by_y_count[min(_y_count(w1), 2)]

    else:
        pure_x = [t for t in right if not any(t[0])]

        def partners(w1):
            if not w1:
                return right
            return pure_x if keep(w1) else ()

    return a._product(b, partners)


def _powers(s, which):
    """s^0, s^1, ..., s^trunc, computed in the quotient by ``which`` when it
    is given."""
    power = NCSeries.one(s.ring, s.level, s.flavor, s.trunc)
    yield power
    for _ in range(s.trunc):
        power = mul_mod(power, s, which)
        yield power


def exp_mod(s, which=None):
    """exp, computed in the quotient by ``which`` when it is given."""
    if not s.ring.is_zero(s.constant_term()):
        raise SeriesError("exp needs zero constant term")
    return NCSeries.lincomb(
        (power, Fraction(1, factorial(k))) for k, power in enumerate(_powers(s, which))
    )


def log_mod(g, which=None):
    """log, computed in the quotient by ``which`` when it is given."""
    u = g - NCSeries.one(g.ring, g.level, g.flavor, g.trunc)
    if not g.ring.is_zero(u.constant_term()):
        raise SeriesError("log needs constant term one")
    # u^0 has weight 0: it only names the algebra when u is zero
    return NCSeries.lincomb(
        (power, Fraction((-1) ** (k + 1), k) if k else 0)
        for k, power in enumerate(_powers(u, which))
    )


def bch(s, t, which=None):
    """log(exp(s) * exp(t)) — by definition, never by table.

    ``which`` selects quotient arithmetic (IY/JY) for speed; the result then
    equals the reduction of the full BCH series.
    """
    s._check(t)
    return log_mod(mul_mod(exp_mod(s, which), exp_mod(t, which), which), which)


# ---------------------------------------------------------------------------
# polylog coordinates
# ---------------------------------------------------------------------------


def polylog_element(ring, level, flavor, trunc, x_coeff, branches):
    """The element c0·X + sum_s sum_m c_{s,m} ad(X)^(m-1)(Y_s).

    ``x_coeff`` is c0 and ``branches[s]`` the sequence (c_{s,1}, c_{s,2}, ...).
    ad(X)^(m-1)(Y_s) = sum_j (-1)^j C(m-1, j) X^(m-1-j) . Y_s . X^j, and
    each word X^a . Y_s . X^b comes from exactly one (s, m), so every
    coefficient is written once.
    """
    coeffs = {(0,): ring.coerce(x_coeff)}
    for s, branch in branches.items():
        for m, c in enumerate(branch[:trunc], start=1):
            c = ring.coerce(c)
            for j in range(m):
                w = (0,) * (m - 1 - j) + (1 + s,) + (0,) * j
                coeffs[w] = c * ((-1) ** j * comb(m - 1, j))
    return NCSeries(ring, level, flavor, trunc, coeffs)


def polylog_part(lam, depth=None):
    """The coordinates ``(x_coeff, branches)`` of ``lam`` modulo IY, exactly.

    The input must be congruent mod IY to
    c0·X + sum_{s,m} c_{s,m} ad(X)^(m-1)(Y_s) with m <= depth; then x_coeff
    is c0 and branches[s] the tuple (c_{s,1}, ..., c_{s,depth}).  Otherwise
    NotPolylogError reports the first offending word.
    """
    depth = lam.trunc if depth is None else depth
    if depth > lam.trunc:
        raise SeriesError(f"depth {depth} exceeds truncation {lam.trunc}")
    reduced = reduce_mod_ideal(lam, MOD_IY)
    x_coeff = reduced.coefficient((0,))
    branches = {}
    for s in range(lam.level):
        coeffs = []
        for m in range(1, depth + 1):
            c = reduced.coefficient((1 + s,) + (0,) * (m - 1))
            if m % 2 == 0:
                c = -c
            coeffs.append(c)
        branches[s] = tuple(coeffs)
    residual = reduced - polylog_element(
        lam.ring, lam.level, lam.flavor, lam.trunc, x_coeff, branches
    )
    if not residual.is_zero():
        bad = Word(lam.level, lam.flavor, residual.support()[0])
        raise NotPolylogError(
            f"element is not of polylog shape mod IY: residual at word {bad}",
            word=bad,
        )
    return x_coeff, branches


# ---------------------------------------------------------------------------
# one-variable truncated generating series
# ---------------------------------------------------------------------------


class GenSeries:
    """Truncated power series in one central variable t over a ring.

    coeffs[k] is the t^k coefficient; len(coeffs) - 1 is the degree bound.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = [ring.coerce(c) for c in coeffs]
        if not self.coeffs:
            raise ValueError("need at least the constant coefficient")

    @classmethod
    def exp_linear(cls, ring, c, degree):
        """exp(c*t) truncated: sum_k c^k/k! t^k."""
        c = ring.coerce(c)
        coeffs = [ring.one]
        term = ring.one
        for k in range(1, degree + 1):
            term = term * c * Fraction(1, k)
            coeffs.append(term)
        return cls(ring, coeffs)

    @property
    def degree_bound(self):
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k]

    def _align(self, other):
        if not isinstance(other, GenSeries):
            raise TypeError("expected GenSeries")
        if other.ring != self.ring:
            raise ValueError("generating series over different rings")
        return min(self.degree_bound, other.degree_bound)

    @staticmethod
    def lincomb(pairs):
        """The sum of q·s over ``(series, rational)`` pairs over one ring,
        truncated at the lowest degree bound."""
        pairs = list(pairs)
        s0 = pairs[0][0]
        d = min(s0._align(s) for s, _ in pairs)
        lincomb = s0.ring.lincomb
        out = [lincomb([(s.coeffs[k], q) for s, q in pairs]) for k in range(d + 1)]
        return GenSeries(s0.ring, out)

    def __add__(self, other):
        return GenSeries.lincomb(((self, 1), (other, 1)))

    def __sub__(self, other):
        return GenSeries.lincomb(((self, 1), (other, -1)))

    def __mul__(self, other):
        d = self._align(other)
        a, b, lincomb = self.coeffs, other.coeffs, self.ring.lincomb
        nonzero = [i for i in range(d + 1) if not self.ring.is_zero(a[i])]
        out = [lincomb([(a[i] * b[k - i], 1) for i in nonzero if i <= k])
               for k in range(d + 1)]
        return GenSeries(self.ring, out)

    def truncate(self, degree):
        if degree > self.degree_bound:
            raise ValueError("cannot extend a truncated series")
        return GenSeries(self.ring, self.coeffs[: degree + 1])

    def mul_t(self):
        """Multiply by t, keeping the same degree bound (top term drops off)."""
        return GenSeries(self.ring, [self.ring.zero] + self.coeffs[:-1])

    def compose_linear(self, c):
        """Substitute t -> c*t."""
        c = self.ring.coerce(c)
        out = []
        power = self.ring.one
        for k, a in enumerate(self.coeffs):
            out.append(a * power)
            power = power * c
        return GenSeries(self.ring, out)

    def inverse(self):
        """Multiplicative inverse; requires constant coefficient exactly one."""
        if self.coeffs[0] != self.ring.one:
            raise ValueError("inverse needs constant coefficient one")
        a, out, lincomb = self.coeffs, [self.ring.one], self.ring.lincomb
        for k in range(1, len(a)):
            out.append(lincomb([(a[j] * out[k - j], -1) for j in range(1, k + 1)]))
        return GenSeries(self.ring, out)

    def __eq__(self, other):
        if not isinstance(other, GenSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __str__(self):
        return " + ".join(f"({c})*t^{k}" for k, c in enumerate(self.coeffs))

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Bernoulli machinery
# ---------------------------------------------------------------------------


def beta_series(ring, degree):
    """beta(t) = t/(e^t - 1) truncated: the inverse of sum_k t^k/(k+1)!."""
    from .scalars import QQ

    expm1_over_t = GenSeries(
        QQ, [Fraction(1, factorial(k + 1)) for k in range(degree + 1)]
    )
    return GenSeries(ring, expm1_over_t.inverse().coeffs)  # coerced into ring


@lru_cache(maxsize=None)
def bernoulli_number(k):
    """B_k with B_1 = -1/2 (the t/(e^t-1) convention), always a Fraction."""
    from .scalars import QQ

    beta = beta_series(QQ, k)
    return Fraction(beta.coeffs[k] * factorial(k))


def bernoulli_poly_eval(k, x):
    """B_k evaluated at an exact rational."""
    x = Fraction(x)
    out = Fraction(0)
    for j in range(k + 1):
        out += comb(k, j) * bernoulli_number(j) * x ** (k - j)
    return out
