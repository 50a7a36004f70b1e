"""Integer polynomial arithmetic against the route it replaced.

A ``SymbolicPoly`` keeps integer numerators over one denominator in lowest
terms, so sums, products and ``PolyRing.lincomb`` are integer work, and
``NCSeries.scale`` by a rational goes through ``lincomb``.  The oracles
below are the old bodies, which combined ``Fraction``s pair by pair (and
scaled a series through a product with a constant polynomial); the
properties at the end check that every result is in the canonical form.
"""

from contextlib import ExitStack
from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import given, settings, strategies as st

from polydist.lie import MOD_IY, bch
from polydist.ncseries import NCSeries
from polydist.scalars import PolyRing, SymbolicPoly, _mul_monomials
from polydist.words import FLAVORS


def _add_oracle(self, other):
    other = self._check(other)
    if other is None:
        return NotImplemented
    terms = dict(self.terms)
    for m, c in other.terms.items():
        s = terms.get(m, Fraction(0)) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return SymbolicPoly(self.ring, terms)


def _mul_oracle(self, other):
    other = self._check(other)
    if other is None:
        return NotImplemented
    terms = {}
    for m1, c1 in self.terms.items():
        for m2, c2 in other.terms.items():
            m = _mul_monomials(m1, m2)
            s = terms.get(m, Fraction(0)) + c1 * c2
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
    return SymbolicPoly(self.ring, terms)


def _lincomb_oracle(ring, pairs):
    terms = {}
    for p, q in pairs:
        for m, c in ring.coerce(p).terms.items():
            terms[m] = terms.get(m, 0) + q * c
    return SymbolicPoly(ring, terms)


def _scale_oracle(series, c):
    c = series.ring.coerce(c)
    if series.ring.is_zero(c):
        return NCSeries.zero(series.ring, series.level, series.flavor, series.trunc)
    return series._like({w: c * v for w, v in series.coeffs.items()})


def _old_route():
    """Patches that put every polynomial sum and product on the oracles."""
    return [
        mock.patch.object(SymbolicPoly, "__add__", _add_oracle),
        mock.patch.object(SymbolicPoly, "__radd__", _add_oracle),
        mock.patch.object(SymbolicPoly, "__mul__", _mul_oracle),
        mock.patch.object(SymbolicPoly, "__rmul__", _mul_oracle),
        mock.patch.object(PolyRing, "lincomb", _lincomb_oracle),
        mock.patch.object(NCSeries, "scale", _scale_oracle),
    ]


RING = PolyRing(["a", "b", "c"])
# large coprime denominators (Mersenne primes among them) next to small ones
DENOMINATORS = [1, 2, 3, 4, 6, 12, 35, 10**9 + 7, 2**61 - 1, 2**89 - 1]
rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=40),
    st.builds(
        Fraction,
        st.integers(-(10**30), 10**30),
        st.sampled_from(DENOMINATORS),
    ),
)
# exponents 0..2 in a, b, c; the empty monomial is the constant term
monomials = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda es: tuple((i, e) for i, e in enumerate(es) if e)
)
polys = st.dictionaries(monomials, rationals, max_size=6).map(
    lambda terms: SymbolicPoly(RING, terms)
)
constants = rationals.map(RING.from_fraction)
operands = st.one_of(polys, constants, st.just(RING.zero))


@given(operands, operands, operands)
@settings(max_examples=150, deadline=None)
def test_product_and_sum_match_the_fraction_route(p, q, r):
    assert p * q == _mul_oracle(p, q)
    assert p + q == _add_oracle(p, q)
    # (p + r)(p - r): the cross terms p·r and -r·p cancel
    assert (p + r) * (p - r) == _mul_oracle(p + r, p - r)
    assert p * (q - q) == RING.zero


@given(st.lists(st.tuples(operands, st.one_of(rationals, st.integers(-5, 5)))))
@settings(max_examples=150, deadline=None)
def test_lincomb_matches_the_fraction_route(pairs):
    assert RING.lincomb(pairs) == _lincomb_oracle(RING, pairs)
    # each pair cancelled by its negative: every term sums to zero
    both = pairs + [(p, -q) for p, q in pairs]
    assert RING.lincomb(both) == _lincomb_oracle(RING, both) == RING.zero


@st.composite
def _series(draw, level, flavor, trunc, min_degree=0):
    word = st.integers(min_degree, trunc).flatmap(
        lambda d: st.lists(st.integers(0, level), min_size=d, max_size=d)
    )
    words = draw(st.lists(word, min_size=1, max_size=5))
    return NCSeries(RING, level, flavor, trunc, {
        tuple(w): draw(operands) for w in words
    })


@given(
    st.sampled_from(FLAVORS).flatmap(lambda f: _series(1, f, 4)),
    st.one_of(rationals, st.integers(-5, 5), st.just(0)),
)
@settings(max_examples=100, deadline=None)
def test_scale_matches_the_constant_polynomial_product(series, c):
    want = _scale_oracle(series, c)
    assert series.scale(c) == want
    assert series * c == want
    assert c * series == want


@st.composite
def _bch_case(draw):
    level = draw(st.integers(1, 2))
    flavor = draw(st.sampled_from(FLAVORS))
    trunc = draw(st.integers(2, 4))
    return [draw(_series(level, flavor, trunc, min_degree=1)) for _ in range(2)]


@given(_bch_case())
@settings(max_examples=40, deadline=None)
def test_bch_mod_iy_matches_the_fraction_route(case):
    s, t = case
    got = bch(s, t, which=MOD_IY)
    with ExitStack() as stack:
        for patch in _old_route():
            stack.enter_context(patch)
        want = bch(s, t, which=MOD_IY)
    assert got == want


def _assert_canonical(p):
    assert p.den > 0
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(p.nums.values())
    if not p.nums:
        assert p.den == 1


@given(operands, operands, rationals, st.lists(st.tuples(operands, rationals)))
@settings(max_examples=150, deadline=None)
def test_every_result_is_in_lowest_terms(p, q, c, pairs):
    for r in (p, p * q, p + q, p - q, -p, p - p, p * c, c - p, RING.lincomb(pairs)):
        _assert_canonical(r)
    _assert_canonical(p.substitute({"a": c, "b": q}))
    series = NCSeries(RING, 1, FLAVORS[0], 3, {(0,): p})
    for v in series.scale(c).coeffs.values():
        _assert_canonical(v)


@given(operands, operands)
@settings(max_examples=150, deadline=None)
def test_equal_polynomials_hash_alike_across_construction_routes(p, q):
    built = SymbolicPoly(RING, (p * q).terms)  # the Fraction constructor
    assert built == p * q == q * p
    assert hash(built) == hash(p * q) == hash(q * p)
    assert hash(p + q - q) == hash(p)
    assert hash(RING.lincomb([(p, 1), (q, 1)])) == hash(p + q)
    assert hash(p - p) == hash(RING.zero) == hash(SymbolicPoly(RING, {}))


@given(rationals, st.integers(-(10**20), 10**20), polys)
@settings(max_examples=150, deadline=None)
def test_comparison_with_fractions_and_ints(c, n, p):
    assert RING.from_fraction(c) == c
    assert RING.from_fraction(c) != c + Fraction(1, 3)
    assert RING.from_int(n) == n and n == RING.from_int(n)
    assert RING.from_int(n) != n + 1
    assert (RING.zero == 0) and not (RING.sym("a") == 0)
    # a polynomial equals a number exactly when it is that constant
    constant = set(p.terms) <= {()}
    value = p.terms.get((), Fraction(0))
    assert (p == value) == constant
