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
    assert QQ.from_int(-3) == Fraction(-3)
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


def test_substitute_partial_and_symbols():
    a, b = RING.sym("a"), RING.sym("b")
    p = a * a * b - b * 3 + 1
    half = p.substitute({"a": Fraction(1, 2)})
    assert half == b * Fraction(1, 4) - b * 3 + 1
    assert p.symbols() == ["a", "b"]
    assert p.substitute({"a": 2, "b": 1}) == RING.from_int(2)


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

