"""Exact scalar rings: the rationals and rational polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydist.measures import padic_valuation
from polydist.scalars import QQ, PolyRing, RingMismatchError, UnknownSymbolError

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=40
)


def test_rational_field_basics():
    assert QQ.zero == 0
    assert QQ.one == 1
    assert QQ.coerce(-3) == Fraction(-3)
    assert QQ.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert QQ.is_zero(Fraction(0))


def small_polys(ring):
    """Strategy producing small random polynomials over `ring`."""
    gens = [ring.sym(g) for g in ring.gens]

    def build(coeffs):
        p = ring.zero
        for c, g in zip(coeffs, gens):
            p = p + g * c
        return p + coeffs[-1]

    return st.lists(
        fractions, min_size=len(gens) + 1, max_size=len(gens) + 1
    ).map(build)


RING = PolyRing(["a", "b", "c"])
POLYS = small_polys(RING)


@given(POLYS, POLYS, POLYS)
@settings(max_examples=60)
def test_poly_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + RING.zero == p
    assert p * RING.one == p
    assert p - p == RING.zero


@given(POLYS, POLYS)
@settings(max_examples=40)
def test_substitute_is_a_homomorphism(p, q):
    point = {"a": Fraction(2), "b": Fraction(-1, 3), "c": Fraction(5, 7)}
    assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)
    assert (p * q).substitute(point) == p.substitute(point) * q.substitute(point)


def test_substitute_partial():
    a, b = RING.sym("a"), RING.sym("b")
    p = a * a * b - b * 3 + 1
    half = p.substitute({"a": Fraction(1, 2)})
    assert half == b * Fraction(1, 4) - b * 3 + 1
    assert p.substitute({"a": 2, "b": 1}) == RING.from_fraction(2)


def test_coefficient_of_reads_linear_part():
    a, b = RING.sym("a"), RING.sym("b")
    p = a * 7 + b * a + 4
    assert p.coefficient_of("a") == b + 7
    assert p.coefficient_of("b") == a
    assert p.coefficient_of("c") == RING.zero


def test_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        RING.sym("zz")


def test_mixed_ring_arithmetic_rejected():
    other = PolyRing(["a"])
    with pytest.raises(RingMismatchError):
        RING.sym("a") + other.sym("a")


@given(st.lists(st.tuples(POLYS, fractions), max_size=6))
@settings(max_examples=60)
def test_lincomb_matches_plus_fold(pairs):
    fold = RING.zero
    for p, q in pairs:
        fold = fold + p * q
    assert RING.lincomb(pairs) == fold
    # the same pairs negated cancel to the empty polynomial
    back = RING.lincomb(pairs + [(p, -q) for p, q in pairs])
    assert back.terms == {}
    consts = [(p.terms.get((), Fraction(0)), q) for p, q in pairs]
    qfold = QQ.zero
    for c, q in consts:
        qfold = qfold + c * q
    assert QQ.lincomb(consts) == qfold


def test_lincomb_prunes_cancelled_terms():
    a, b = RING.sym("a"), RING.sym("b")
    got = RING.lincomb([(a + b, 2), (a * Fraction(3), Fraction(-2, 3)), (5, 1)])
    assert got.terms == (b * 2 + 5).terms
    assert RING.lincomb([(a, 1), (a, -1)]).terms == {}
    assert RING.lincomb([]).terms == {}
    assert QQ.lincomb([(Fraction(1, 2), 4), (1, -2)]) == 0


def test_lincomb_refuses_other_rings():
    other = PolyRing(["a"])
    with pytest.raises(RingMismatchError):
        RING.lincomb([(RING.sym("a"), 1), (other.sym("a"), 1)])
    with pytest.raises(RingMismatchError):
        QQ.lincomb([(RING.sym("a"), 1)])
    with pytest.raises(RingMismatchError):
        RING.lincomb([("a", 1)])


def test_zero_polynomial_is_falsy():
    # truthiness agrees with QQ and with ring.is_zero
    ring = PolyRing(["a"])
    assert not ring.zero
    assert not QQ.zero
    assert not ring.lincomb([(ring.sym("a"), 1), (ring.sym("a"), -1)])
    assert ring.one and ring.sym("a") and ring.from_fraction(Fraction(-1, 3))
    for p in (ring.zero, ring.one, ring.sym("a") - ring.sym("a")):
        assert bool(p) is not ring.is_zero(p)


def test_equal_rings_compare_equal_without_being_the_same():
    a, b = PolyRing(["a", "b"]), PolyRing(["a", "b"])
    assert a is not b and a == b and a == a
    assert a != PolyRing(["b", "a"]) and a != QQ
    assert (a.sym("a") + b.sym("b")).ring is a
    assert a.coerce(b.sym("a")) == a.sym("a")


def test_poly_str_is_deterministic():
    a, b = RING.sym("a"), RING.sym("b")
    p = b + a * a - a * Fraction(1, 2)
    assert str(p) == str(b + a * a - a * Fraction(1, 2))


def test_padic_valuation():
    assert padic_valuation(24, 2) == 3
    assert padic_valuation(24, 3) == 1
    assert padic_valuation(1, 5) == 0
    with pytest.raises(ValueError):
        padic_valuation(0, 3)

