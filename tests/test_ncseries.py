"""Truncated noncommutative series: arithmetic, exp/log, morphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydist.geometry import j_zeta_morphism, pi_morphism
from polydist.ncseries import AlgebraMorphism, NCSeries, SeriesError
from polydist.scalars import QQ, PolyRing
from polydist.words import (
    FLAVOR_STANDARD,
    FLAVORS,
    Word,
    empty_word,
    parse_word,
    words_up_to_degree,
)

TRUNC = 5
LEVEL = 1
X = parse_word("n=1,std:X")
Y = parse_word("n=1,std:Y0")
ONE = empty_word(1)

coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=6)


@st.composite
def small_series(draw, min_degree=0):
    words = words_up_to_degree(LEVEL, FLAVOR_STANDARD, 3, min_degree)
    picks = draw(
        st.lists(st.tuples(st.sampled_from(words), coeffs), max_size=5)
    )
    out = NCSeries.zero(QQ, LEVEL, FLAVOR_STANDARD, TRUNC)
    for w, c in picks:
        out = out + NCSeries.monomial(QQ, w, TRUNC, c)
    return out


@given(small_series(), small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (b + c) * a == b * a + c * a
    assert a - a == NCSeries.zero(QQ, LEVEL, FLAVOR_STANDARD, TRUNC)


def test_noncommutative():
    x = NCSeries.monomial(QQ, X, TRUNC)
    y = NCSeries.monomial(QQ, Y, TRUNC)
    assert x * y != y * x
    assert (x * y).coefficient(X * Y) == 1
    assert (x * y).coefficient(Y * X) == 0


@given(small_series(min_degree=1))
@settings(max_examples=30, deadline=None)
def test_exp_log_roundtrip(s):
    assert s.exp().log() == s


@given(small_series(min_degree=1))
@settings(max_examples=30, deadline=None)
def test_log_exp_roundtrip(s):
    g = NCSeries.one(QQ, LEVEL, FLAVOR_STANDARD, TRUNC) + s
    assert g.log().exp() == g


def test_exp_needs_zero_constant_term():
    one = NCSeries.one(QQ, LEVEL, FLAVOR_STANDARD, TRUNC)
    with pytest.raises(SeriesError):
        one.exp()
    with pytest.raises(SeriesError):
        (one + one).log()  # constant term 2 is not a unit normalization


def test_truncation_degree_guard():
    x = NCSeries.monomial(QQ, X, 2)
    cube = x * x * x
    assert cube.is_zero()
    with pytest.raises(SeriesError):
        cube.coefficient(X * X * X)


def test_mixed_context_rejected():
    x1 = NCSeries.monomial(QQ, X, 3)
    x2 = NCSeries.monomial(QQ, parse_word("n=2,std:X"), 3)
    with pytest.raises(SeriesError):
        x1 + x2
    ring = PolyRing(["a"])
    xq = NCSeries.monomial(ring, X, 3)
    with pytest.raises(SeriesError):
        x1 + xq


def test_scale_and_map_coefficients():
    x = NCSeries.monomial(QQ, X, 3)
    s = x.scale(Fraction(3, 2)) + NCSeries.one(QQ, 1, FLAVOR_STANDARD, 3)
    doubled = s.map_coefficients(lambda c: 2 * c)
    assert doubled.coefficient(X) == 3
    assert doubled.constant_term() == 2


def test_homogeneous_component_and_min_degree():
    x = NCSeries.monomial(QQ, X, 4)
    s = x + x * x
    assert s.min_degree() == 1
    assert s.homogeneous_component(2) == x * x
    assert s.homogeneous_component(3).is_zero()


def _squaring_morphism(trunc):
    """x -> 2x, y -> y: the simplest level-preserving morphism."""
    images = {
        0: NCSeries.monomial(QQ, X, trunc, Fraction(2)),
        1: NCSeries.monomial(QQ, Y, trunc),
    }
    return AlgebraMorphism(1, FLAVOR_STANDARD, 1, FLAVOR_STANDARD, images, trunc)


@given(small_series(), small_series())
@settings(max_examples=30, deadline=None)
def test_morphism_is_multiplicative(a, b):
    phi = _squaring_morphism(TRUNC)
    assert phi.apply(a * b) == phi.apply(a) * phi.apply(b)
    assert phi.apply(a + b) == phi.apply(a) + phi.apply(b)


@given(small_series(min_degree=1))
@settings(max_examples=20, deadline=None)
def test_morphism_commutes_with_exp(s):
    phi = _squaring_morphism(TRUNC)
    assert phi.apply(s.exp()) == phi.apply(s).exp()


def test_morphism_composition():
    phi = _squaring_morphism(4)
    psi = phi.compose(phi)
    x = NCSeries.monomial(QQ, X, 4)
    assert psi.apply(x) == x.scale(4)


def test_morphism_requires_complete_alphabet():
    with pytest.raises(SeriesError):
        AlgebraMorphism(
            1, FLAVOR_STANDARD, 1, FLAVOR_STANDARD,
            {0: NCSeries.monomial(QQ, X, 3)},
            3,
        )
    with pytest.raises(SeriesError):  # letter 2 is Y1, not at level 1
        AlgebraMorphism(
            1, FLAVOR_STANDARD, 1, FLAVOR_STANDARD,
            {a: NCSeries.monomial(QQ, X, 3) for a in range(3)},
            3,
        )


def test_morphism_rejects_images_over_a_poly_ring():
    ring = PolyRing(["a"])
    images = {
        0: NCSeries.monomial(ring, X, 3),
        1: NCSeries.monomial(QQ, Y, 3),
    }
    with pytest.raises(SeriesError, match="not over QQ"):
        AlgebraMorphism(1, FLAVOR_STANDARD, 1, FLAVOR_STANDARD, images, 3)


POLY = PolyRing(["a", "b"])


@st.composite
def poly_series(draw):
    """A small level-1 series with coefficients linear in a, b."""
    a, b = POLY.sym("a"), POLY.sym("b")
    words = words_up_to_degree(LEVEL, FLAVOR_STANDARD, 3)
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(words), coeffs, coeffs), min_size=1, max_size=5
        )
    )
    terms = {w: a * p + b * q + p * q for w, p, q in picks}
    return NCSeries(POLY, LEVEL, FLAVOR_STANDARD, TRUNC, terms)


@st.composite
def letter_image(draw):
    """A nonzero rational image of degree 1 or 2, so that target words of
    different source words collide often."""
    words = words_up_to_degree(LEVEL, FLAVOR_STANDARD, 2, 1)
    picks = draw(
        st.lists(
            st.tuples(st.sampled_from(words), coeffs.filter(bool)),
            min_size=1,
            max_size=3,
        )
    )
    return NCSeries(QQ, LEVEL, FLAVOR_STANDARD, TRUNC, dict(picks))


def _apply_by_lifting(phi, series):
    """The route rational images replaced, kept as the oracle: lift each image
    into the series ring, multiply letter by letter and sum with ``+``."""
    ring = series.ring
    trunc = min(phi.trunc, series.trunc)
    lifted = {
        l: img.map_coefficients(ring.from_fraction, ring)
        for l, img in phi.images.items()
    }
    out = NCSeries.zero(ring, phi.target_level, phi.target_flavor, trunc)
    for w, c in series.coeffs.items():
        img = NCSeries.one(ring, phi.target_level, phi.target_flavor, trunc)
        for letter in w.letters:
            img = img * lifted[letter]
        out = out + img.scale(c)
    return out


@given(
    poly_series(),
    st.lists(letter_image(), min_size=2, max_size=2),
    st.integers(min_value=1, max_value=TRUNC),
)
@settings(max_examples=40, deadline=None)
def test_apply_matches_lifted_images(series, imgs, trunc):
    images = dict(zip(range(LEVEL + 1), imgs))
    phi = AlgebraMorphism(
        LEVEL, FLAVOR_STANDARD, LEVEL, FLAVOR_STANDARD, images, trunc
    )
    got = phi.apply(series)
    assert got.ring is POLY
    assert got == _apply_by_lifting(phi, series)


def _word_image_oracle(phi, word):
    """The per-word route ``word_images`` replaced, kept as the oracle: the
    product of the word's letter images, taken one by one from the start."""
    img = NCSeries.one(QQ, phi.target_level, phi.target_flavor, phi.trunc)
    for letter in word.letters:
        img = img * phi.images[letter]
        if img.is_zero():
            break
    return img


@st.composite
def morphism_and_words(draw):
    """A covering or specialization morphism and a list of its source words
    in letter-tuple order, with shared prefixes, repeats, words longer than
    the truncation and possibly the empty word.  ``j_zeta_morphism`` kills
    all but one puncture letter, so many prefix images there are zero."""
    flavor = draw(st.sampled_from(FLAVORS))
    trunc = draw(st.integers(1, 4))
    if draw(st.booleans()):
        r, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
        phi = pi_morphism(r, n, trunc, flavor)
    else:
        n = draw(st.integers(2, 3))
        phi = j_zeta_morphism(n, draw(st.integers(0, n - 1)), trunc, flavor)
    letters = st.integers(0, phi.source_level)
    base = draw(st.lists(st.lists(letters, max_size=trunc + 1), max_size=6))
    words = []
    for w in base:
        words.append(tuple(w))
        words.append(tuple(w[: draw(st.integers(0, len(w)))]))  # a prefix
    words += draw(st.lists(st.sampled_from(words), max_size=3)) if words else []
    if draw(st.booleans()):
        words.append(())
    words.sort()
    return phi, [Word(phi.source_level, flavor, w) for w in words]


@given(morphism_and_words())
@settings(max_examples=80, deadline=None)
def test_word_images_match_per_word_oracle(case):
    phi, words = case
    got = list(phi.word_images(words))
    assert [w for w, _ in got] == words
    for w, image in got:
        assert image == _word_image_oracle(phi, w), w


def test_word_images_make_one_product_per_trie_node(monkeypatch):
    phi = pi_morphism(1, 2, 3, FLAVOR_STANDARD)
    calls = []
    mul = NCSeries.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(NCSeries, "__mul__", counted)
    # trie nodes below the root: Y0, Y0.X, Y0.X.Y1, Y1, Y1.Y1 -- the empty
    # word is the root, and a repeat or a listed prefix costs nothing more
    texts = ["", "Y0.X", "Y0.X", "Y0.X.Y1", "Y1", "Y1.Y1"]
    words = [parse_word("n=2,std:" + t) for t in texts]
    got = [w for w, _ in phi.word_images(words)]
    assert got == words
    assert len(calls) == 5
