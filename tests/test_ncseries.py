"""Truncated noncommutative series: arithmetic, exp/log, morphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polydist.geometry import j_zeta_morphism, pi_morphism
from polydist.lie import MOD_IY, MOD_JY, mul_mod
from polydist.ncseries import AlgebraMorphism, NCSeries, SeriesError
from polydist.scalars import QQ, PolyRing
from polydist.words import (
    FLAVOR_STANDARD,
    FLAVORS,
    Word,
    parse_word,
    words_up_to_degree,
    wt_x,
)

TRUNC = 5
LEVEL = 1
X = parse_word("n=1,std:X")
Y = parse_word("n=1,std:Y0")

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


def test_keys_are_letter_tuples_of_the_series_alphabet():
    xy = NCSeries.monomial(QQ, X * Y, TRUNC, 3)
    assert xy.coeffs == {(0, 1): 3}
    assert xy.coefficient((0, 1)) == xy.coefficient(X * Y) == 3
    with pytest.raises(SeriesError, match="level-1 alphabet"):
        NCSeries(QQ, LEVEL, FLAVOR_STANDARD, TRUNC, {(0, 2): Fraction(1)})
    with pytest.raises(SeriesError, match="level-1 alphabet"):
        NCSeries(QQ, LEVEL, FLAVOR_STANDARD, TRUNC, {(-1,): Fraction(1)})
    with pytest.raises(SeriesError, match="does not match"):
        xy.coefficient(parse_word("n=2,std:X.Y0"))


def test_scale_and_map_coefficients():
    x = NCSeries.monomial(QQ, X, 3)
    s = x.scale(Fraction(3, 2)) + NCSeries.one(QQ, 1, FLAVOR_STANDARD, 3)
    doubled = s.map_coefficients(lambda c: 2 * c)
    assert doubled.coefficient(X) == 3
    assert doubled.constant_term() == 2


def test_homogeneous_component():
    x = NCSeries.monomial(QQ, X, 4)
    s = x + x * x
    assert s.homogeneous_component(1) == x
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
    x = NCSeries.monomial(QQ, X, 4)
    assert phi.apply(phi.apply(x)) == x.scale(4)


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
    terms = {w.letters: a * p + b * q + p * q for w, p, q in picks}
    return NCSeries(POLY, LEVEL, FLAVOR_STANDARD, TRUNC, terms)


@st.composite
def rational_image(draw):
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
    return NCSeries(QQ, LEVEL, FLAVOR_STANDARD, TRUNC, {w.letters: c for w, c in picks})


def _apply_by_lifting(phi, series):
    """The route rational images replaced, kept as the oracle: lift each image
    into the series ring, multiply letter by letter and sum with ``+``."""
    ring = series.ring
    trunc = min(phi.trunc, series.trunc)
    lifted = {
        l: img.map_coefficients(ring.coerce, ring)
        for l, img in phi.images.items()
    }
    out = NCSeries.zero(ring, phi.target_level, phi.target_flavor, trunc)
    for w, c in series.coeffs.items():
        img = NCSeries.one(ring, phi.target_level, phi.target_flavor, trunc)
        for letter in w:
            img = img * lifted[letter]
        out = out + img.scale(c)
    return out


@given(
    poly_series(),
    st.lists(rational_image(), min_size=2, max_size=2),
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
    for letter in word:
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
    return phi, words


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
    words = [parse_word("n=2,std:" + t).letters for t in texts]
    got = [w for w, _ in phi.word_images(words)]
    assert got == words
    assert len(calls) == 5


# -- the Word-keyed routes that letter-tuple keys replaced, kept as oracles --


def _word_keyed(series):
    """The coefficients of ``series`` keyed by ``Word``, as series stored
    them before they keyed on letter tuples."""
    return {Word(series.level, series.flavor, w): c for w, c in series.coeffs.items()}


def _word_product(ring, left, right, trunc, partners=None):
    """``NCSeries._product`` on Word-keyed coefficient dicts, where each
    target word is the concatenation ``w1 * w2`` of two validated Words."""
    coeffs = {}
    terms = right.items()
    for w1, c1 in left.items():
        d1 = len(w1.letters)
        if d1 > trunc:
            continue
        for w2, c2 in terms if partners is None else partners(w1):
            if d1 + len(w2.letters) > trunc:
                continue
            w = w1 * w2
            c = c1 * c2
            s = coeffs.get(w)
            s = c if s is None else s + c
            if ring.is_zero(s):
                coeffs.pop(w, None)
            else:
                coeffs[w] = s
    return coeffs


def _word_mul_mod(a, b, which):
    """``lie.mul_mod`` on Word keys: the partner lists of the quotient
    product, built from each Word's letters."""

    def y_count(w):
        return len(w.letters) - wt_x(w)

    if which == MOD_IY:
        right = [t for t in _word_keyed(b).items() if y_count(t[0]) < 2]
        by_y_count = (right, [t for t in right if y_count(t[0]) == 0], ())

        def partners(w1):
            return by_y_count[min(y_count(w1), 2)]

    else:
        right = [t for t in _word_keyed(b).items() if not any(t[0].letters[1:])]
        pure_x = [t for t in right if not any(t[0].letters)]

        def partners(w1):
            if not w1.letters:
                return right
            return pure_x if not any(w1.letters[1:]) else ()

    trunc = min(a.trunc, b.trunc)
    return _word_product(a.ring, _word_keyed(a), _word_keyed(b), trunc, partners)


def _word_apply(phi, series):
    """``AlgebraMorphism.apply`` on Word keys: each source Word's image is
    its longest shared prefix's image times its further letter images, and
    each target Word sums its (coefficient, rational) pairs in one lincomb."""
    ring = series.ring
    trunc = min(phi.trunc, series.trunc)
    images = {letter: _word_keyed(img) for letter, img in phi.images.items()}
    stack = [{Word(phi.target_level, phi.target_flavor, ()): QQ.one}]
    prev = ()
    pairs = {}
    coeffs = _word_keyed(series)
    for w in sorted(coeffs, key=lambda u: u.letters):
        k = 0
        for a, b in zip(prev, w.letters):
            if a != b:
                break
            k += 1
        del stack[k + 1 :]
        for letter in w.letters[k:]:
            stack.append(_word_product(QQ, stack[-1], images[letter], phi.trunc))
        prev = w.letters
        for w2, q in stack[-1].items():
            pairs.setdefault(w2, []).append((coeffs[w], q))
    out = {w2: ring.lincomb(p) for w2, p in pairs.items()}
    return {
        w2: c for w2, c in out.items() if len(w2.letters) <= trunc and not ring.is_zero(c)
    }


def _coefficient(draw, ring):
    if ring == QQ:
        return draw(coeffs)
    a, b = POLY.sym("a"), POLY.sym("b")
    return a * draw(coeffs) + b * draw(coeffs) + draw(coeffs)


@st.composite
def _free_series(draw, ring, level, flavor, max_trunc=4):
    """A series whose letter tuples are drawn freely, some of them longer
    than its truncation, so it is in no quotient."""
    trunc = draw(st.integers(0, max_trunc))
    word = st.lists(st.integers(0, level), max_size=trunc + 1).map(tuple)
    words = draw(st.lists(word, max_size=6))
    return NCSeries(ring, level, flavor, trunc, {
        w: _coefficient(draw, ring) for w in words
    })


@st.composite
def _series_pair(draw, level=None):
    level = draw(st.integers(1, 2)) if level is None else level
    flavor = draw(st.sampled_from(FLAVORS))
    ring = draw(st.sampled_from([QQ, POLY]))
    return [draw(_free_series(ring, level, flavor)) for _ in range(2)]


@given(_series_pair())
@settings(max_examples=80, deadline=None)
def test_tuple_keyed_product_matches_the_word_keyed_oracle(pair):
    a, b = pair
    want = _word_product(a.ring, _word_keyed(a), _word_keyed(b), min(a.trunc, b.trunc))
    assert _word_keyed(a * b) == want


@given(st.sampled_from([(MOD_IY, 1), (MOD_IY, 2), (MOD_JY, 1)]).flatmap(
    lambda case: st.tuples(st.just(case[0]), _series_pair(case[1]))
))
@settings(max_examples=80, deadline=None)
def test_tuple_keyed_quotient_product_matches_the_word_keyed_oracle(case):
    which, (a, b) = case
    assert _word_keyed(mul_mod(a, b, which)) == _word_mul_mod(a, b, which)


@st.composite
def _morphism_and_series(draw):
    """A covering, a specialization or a random level-1 morphism, and a
    series over QQ or a polynomial ring in its source algebra."""
    flavor = draw(st.sampled_from(FLAVORS))
    trunc = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["pi", "j_zeta", "random"]))
    if kind == "pi":
        r, n = draw(st.sampled_from([(1, 2), (1, 3), (2, 2)]))
        phi = pi_morphism(r, n, trunc, flavor)
    elif kind == "j_zeta":
        n = draw(st.integers(2, 3))
        phi = j_zeta_morphism(n, draw(st.integers(0, n - 1)), trunc, flavor)
    else:
        images = dict(zip(range(LEVEL + 1), draw(st.lists(
            rational_image(), min_size=LEVEL + 1, max_size=LEVEL + 1
        ))))
        flavor = FLAVOR_STANDARD
        phi = AlgebraMorphism(LEVEL, flavor, LEVEL, flavor, images, trunc)
    ring = draw(st.sampled_from([QQ, POLY]))
    return phi, draw(_free_series(ring, phi.source_level, flavor))


@given(_morphism_and_series())
@settings(max_examples=80, deadline=None)
def test_tuple_keyed_apply_matches_the_word_keyed_oracle(case):
    phi, series = case
    assert _word_keyed(phi.apply(series)) == _word_apply(phi, series)
