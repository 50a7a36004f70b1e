"""Coefficient sums against the routes they replaced.

``SymbolicPoly`` ``+``, ``-`` and negation, every ``GenSeries`` sum and
product coefficient, and the character transforms ``chi_from_li``,
``li_from_chi`` and ``translate_chi`` are each one ``ring.lincomb``.  The
oracles below are the bodies these replaced: ``__add__`` rescaling two
numerator dicts over the lcm of their denominators, ``GenSeries`` folding
``out[i + j] + a·b`` and ``acc + a·b``, and the transforms folding a
``None``-seeded total of terms multiplied up one factor at a time.  Inside
the oracles every polynomial sum goes through the ``__add__`` oracle, so
no oracle runs a ``lincomb``.  Each result must equal the oracle's and be
canonical: no zero numerator, a positive denominator in lowest terms, and
over ``QQ`` only ``int``/``Fraction`` values, an integer input staying
``int`` wherever the weights are integers.
"""

from fractions import Fraction
from math import comb, factorial, gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from polydist.distrib import chi_from_li, li_from_chi
from polydist.lie import GenSeries, bernoulli_number
from polydist.measures import translate_chi
from polydist.scalars import QQ, PolyRing, SymbolicPoly, _poly

# -- the replaced bodies, kept as oracles --


def _poly_add_oracle(self, other, sign=1):
    other = self._check(other)
    den = lcm(self.den, other.den)
    f, g = den // self.den, sign * (den // other.den)
    nums = {m: f * a for m, a in self.nums.items()}
    for m, b in other.nums.items():
        nums[m] = nums.get(m, 0) + g * b
    return _poly(self.ring, nums, den)


def _poly_neg_oracle(self):
    return _poly(self.ring, {m: -a for m, a in self.nums.items()}, self.den)


def _add(a, b):
    return _poly_add_oracle(a, b) if isinstance(a, SymbolicPoly) else a + b


def _neg(a):
    return _poly_neg_oracle(a) if isinstance(a, SymbolicPoly) else -a


def _gen_add_oracle(self, other):
    d = self._align(other)
    return GenSeries(self.ring, [_add(self.coeffs[k], other.coeffs[k]) for k in range(d + 1)])


def _gen_sub_oracle(self, other):
    d = self._align(other)
    return GenSeries(
        self.ring, [_add(self.coeffs[k], _neg(other.coeffs[k])) for k in range(d + 1)]
    )


def _gen_mul_oracle(self, other):
    d = self._align(other)
    out = [self.ring.zero] * (d + 1)
    for i in range(d + 1):
        a = self.coeffs[i]
        if self.ring.is_zero(a):
            continue
        for j in range(d + 1 - i):
            out[i + j] = _add(out[i + j], a * other.coeffs[j])
    return GenSeries(self.ring, out)


def _gen_inverse_oracle(self):
    if self.coeffs[0] != self.ring.one:
        raise ValueError("inverse needs constant coefficient one")
    d = self.degree_bound
    out = [self.ring.one] + [self.ring.zero] * d
    for k in range(1, d + 1):
        acc = self.ring.zero
        for j in range(1, k + 1):
            acc = _add(acc, self.coeffs[j] * out[k - j])
        out[k] = _neg(acc)
    return GenSeries(self.ring, out)


def _chi_from_li_oracle(rho, li_values, m):
    total = None
    for k in range(1, m + 1):
        term = li_values[k - 1] * Fraction(
            (-1) ** (m + 1) * factorial(m - 1), factorial(m + 1 - k)
        )
        for _ in range(m - k):
            term = term * rho
        total = term if total is None else _add(total, term)
    return total


def _li_from_chi_oracle(rho, chi_values, m):
    total = None
    for k in range(m):
        coeff = Fraction((-1) ** (m + 1), 1) * bernoulli_number(k) * Fraction(
            (-1) ** k, factorial(k) * factorial(m - k - 1)
        )
        term = chi_values[m - k - 1] * coeff
        for _ in range(k):
            term = term * rho
        total = term if total is None else _add(total, term)
    return total


def _translate_chi_oracle(chi_values, shift, depth):
    out = []
    for k in range(1, depth + 1):
        total = None
        for i in range(k):
            term = chi_values[i] * Fraction(comb(k - 1, i))
            for _ in range(k - 1 - i):
                term = term * shift
            total = term if total is None else _add(total, term)
        out.append(total)
    return out


# -- strategies --

POLY = PolyRing(["a", "b"])
A, B = POLY.sym("a"), POLY.sym("b")

# few values, each with its negative, so that sums cancel often
INTEGERS = [0, 1, -1, 2, -2]
RATIONALS = INTEGERS + [Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3)]


@st.composite
def _polys(draw, integral, max_terms=4):
    """A polynomial in a and b of degree at most 3, from a few monomials."""
    monomial = st.sampled_from([(), (0,), (1,), (0, 0), (0, 1), (1, 1), (0, 0, 1)])
    values = st.sampled_from(INTEGERS if integral else RATIONALS)
    terms = draw(st.dictionaries(monomial, values, max_size=max_terms))
    return SymbolicPoly(POLY, {m: Fraction(c) for m, c in terms.items()})


def _values(ring, integral):
    if ring == QQ:
        return st.sampled_from(INTEGERS if integral else RATIONALS)
    return _polys(integral)


@st.composite
def _case(draw, n_values):
    """A ring, whether every value is integral, and ``n_values`` values,
    each after the first possibly planted to cancel against the first."""
    ring = draw(st.sampled_from([QQ, POLY]))
    integral = draw(st.booleans())
    first = draw(_values(ring, integral))
    values = [first]
    for _ in range(n_values - 1):
        v = draw(_values(ring, integral))
        if draw(st.booleans()):
            v = _add(v, _neg(first))
        values.append(v)
    return ring, integral, values


def _same_value(ring, got, want, integral=False):
    """``got`` equals the oracle's ``want`` and is in canonical form."""
    assert got == want
    if ring == QQ:
        assert type(got) is int if integral else type(got) in (int, Fraction), got
        return
    assert got.ring is ring
    assert 0 not in got.nums.values(), got.nums
    assert all(type(a) is int for a in got.nums.values())
    assert got.den > 0 and gcd(got.den, *got.nums.values()) == 1
    assert got.nums or got.den == 1


def _same_series(got, want, integral=False):
    assert got == want
    for c in got.coeffs:
        _same_value(got.ring, c, c, integral)


def _fraction_terms(p, sign=1):
    return {m: sign * c for m, c in p.terms.items()}


def _fraction_sum(*termss):
    out = {}
    for terms in termss:
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# -- SymbolicPoly sums --


@given(_polys(False), _polys(False), st.booleans(), st.sampled_from(RATIONALS))
@settings(max_examples=150, deadline=None)
def test_poly_sums_match_the_replaced_rescaling(a, b, cancel, q):
    if cancel:
        b = _add(b, _neg(a))
    _same_value(POLY, a + b, _poly_add_oracle(a, b))
    _same_value(POLY, a - b, _poly_add_oracle(a, b, -1))
    _same_value(POLY, -a, _poly_neg_oracle(a))
    _same_value(POLY, a - a, POLY.zero)
    # rational operands on either side
    _same_value(POLY, a + q, _poly_add_oracle(a, q))
    _same_value(POLY, q + a, _poly_add_oracle(a, q))
    _same_value(POLY, a - q, _poly_add_oracle(a, q, -1))
    _same_value(POLY, q - a, _poly_add_oracle(_poly_neg_oracle(a), q))
    # a third route: the sums of the Fraction coefficients
    assert (a + b).terms == _fraction_sum(a.terms, b.terms)
    assert (a - b).terms == _fraction_sum(a.terms, _fraction_terms(b, -1))
    assert (-a).terms == _fraction_terms(a, -1)


def test_poly_lincomb_coerces_rationals_and_rejects_other_rings():
    _same_value(POLY, POLY.lincomb([(2, Fraction(1, 2)), (A, 3)]), _poly_add_oracle(A * 3, 1))
    other = PolyRing(["a", "b", "c"]).sym("a")
    with pytest.raises(ValueError):
        A + other
    with pytest.raises(ValueError):
        A - other
    with pytest.raises(ValueError):
        POLY.lincomb([(A, 1), (other, 1)])


# -- GenSeries sums, products and inverses --


@st.composite
def _gen_case(draw, n_series, one_first=False):
    """``n_series`` generating series over one ring, each with its own
    degree bound; with ``one_first`` the first starts at exactly 1."""
    ring, integral, firsts = draw(_case(n_series))
    series = []
    for first in firsts:
        d = draw(st.integers(0, 4))
        rest = [draw(_values(ring, integral)) for _ in range(d)]
        series.append(GenSeries(ring, [first] + rest))
    if one_first:
        series[0] = GenSeries(ring, [ring.one] + series[0].coeffs[1:])
    return integral, series


@given(_gen_case(2))
@settings(max_examples=120, deadline=None)
def test_gen_series_sums_and_products_match_the_replaced_folds(case):
    integral, (f, g) = case
    _same_series(f + g, _gen_add_oracle(f, g), integral)
    _same_series(f - g, _gen_sub_oracle(f, g), integral)
    _same_series(f * g, _gen_mul_oracle(f, g), integral)
    _same_series(g * f, _gen_mul_oracle(g, f), integral)
    want = _gen_add_oracle(f, GenSeries(g.ring, [_add(c, c) for c in g.coeffs]))
    _same_series(GenSeries.lincomb([(f, 1), (g, 2)]), want, integral)
    want = _gen_sub_oracle(f, GenSeries(g.ring, [c * Fraction(1, 2) for c in g.coeffs]))
    _same_series(GenSeries.lincomb([(f, 1), (g, Fraction(-1, 2))]), want)


@given(_gen_case(1, one_first=True))
@settings(max_examples=120, deadline=None)
def test_gen_series_inverse_matches_the_replaced_fold(case):
    integral, (f,) = case
    inv = f.inverse()
    _same_series(inv, _gen_inverse_oracle(f), integral)
    one = GenSeries(f.ring, [f.ring.one] + [f.ring.zero] * f.degree_bound)
    _same_series(f * inv, one, integral)


@given(_gen_case(1), st.sampled_from(RATIONALS))
@settings(max_examples=60, deadline=None)
def test_gen_series_lincomb_of_one_pair_scales(case, q):
    integral, (f,) = case
    want = GenSeries(f.ring, [c * q for c in f.coeffs])
    _same_series(GenSeries.lincomb([(f, q)]), want, integral and type(q) is int)


def test_gen_series_lincomb_truncates_at_the_lowest_degree_bound():
    f = GenSeries(QQ, [1, 2, 3, 4])
    g = GenSeries(QQ, [5, 6])
    h = GenSeries.lincomb([(f, 1), (g, -1)])
    assert h.coeffs == [-4, -4] and h.degree_bound == 1
    assert (g + f).coeffs == [6, 8]
    assert (f * g).coeffs == [5, 16]


def test_gen_series_lincomb_rejects_mixed_rings():
    f = GenSeries(QQ, [1, 2])
    g = GenSeries(POLY, [A, B])
    with pytest.raises(ValueError, match="different rings"):
        GenSeries.lincomb([(f, 1), (g, 1)])
    with pytest.raises(ValueError, match="different rings"):
        g + f
    with pytest.raises(TypeError):
        f * 2


# -- the character transforms --


@given(_case(6), st.integers(1, 5))
@settings(max_examples=80, deadline=None)
def test_character_transforms_match_the_replaced_folds(case, m):
    ring, integral, (rho, *values) = case
    # factorial and Bernoulli weights make Fractions even of integers
    _same_value(ring, chi_from_li(ring, rho, values, m), _chi_from_li_oracle(rho, values, m))
    _same_value(ring, li_from_chi(ring, rho, values, m), _li_from_chi_oracle(rho, values, m))
    got = translate_chi(ring, values, rho, m)
    want = _translate_chi_oracle(values, rho, m)
    assert len(got) == m
    for g, w in zip(got, want):
        # binomial weights keep integers integral
        _same_value(ring, g, w, integral)
