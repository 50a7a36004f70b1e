"""Words over the level-n alphabet: parsing, lifts, reduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from polydist.words import (
    FLAVOR_STANDARD,
    FLAVOR_TILDE,
    FLAVORS,
    Word,
    WordError,
    enumerate_lifts,
    parse_word,
    reduce_letters,
    words_depth_first,
    words_up_to_degree,
    wt_x,
)


def graded(w):
    """The canonical word order: by length, then letterwise."""
    return (len(w.letters), w.letters)


@st.composite
def random_words(draw, max_level=4, max_len=6):
    level = draw(st.integers(1, max_level))
    flavor = draw(st.sampled_from([FLAVOR_STANDARD, FLAVOR_TILDE]))
    n_letters = draw(st.integers(0, max_len))
    letters = []
    for _ in range(n_letters):
        if draw(st.booleans()):
            letters.append(0)
        else:
            letters.append(1 + draw(st.integers(0, level - 1)))
    return Word(level, flavor, tuple(letters))


@given(random_words())
@settings(max_examples=120)
def test_parse_render_roundtrip(w):
    assert parse_word(str(w)) == w


def test_render_format():
    w = Word(6, FLAVOR_STANDARD, (6, 0, 0))
    assert str(w) == "n=6,std:Y5.X.X"
    assert str(Word(2, FLAVOR_TILDE, ())) == "n=2,til:"


@pytest.mark.parametrize("text", [
    "n=2,std:Y7",  # index out of range
    "nonsense",
    "n=2,std",  # no ':' before the (empty) letter list
    "n=2,std:Y+1",
    "n=2,std:Y01",
    "n=2,std:Y 1",
    "n=+2,std:X",
    "n=02,std:X",
    "n=2,std:X.",
])
def test_parse_rejects_garbage(text):
    # parse_word is the inverse of render: text it would not print is refused
    with pytest.raises(WordError):
        parse_word(text)


def test_out_of_range_int_letter_raises():
    # level 2 has the letters 0 (X), 1 (Y0) and 2 (Y1)
    with pytest.raises(WordError):
        Word(2, FLAVOR_STANDARD, (3,))
    with pytest.raises(WordError):
        Word(2, FLAVOR_TILDE, (0, -1))
    with pytest.raises(WordError):
        parse_word("n=2,std:Y-1")
    with pytest.raises(WordError):
        Word(2, "other", ())
    with pytest.raises(WordError):
        Word(0, FLAVOR_STANDARD, ())


def _letter_dataclass_key(w):
    """The graded sort key of the former ``Letter`` dataclass words, read
    off the rendered tokens: (0, 0) for X and (1, i) for Y_i."""
    body = str(w).partition(":")[2]
    tokens = body.split(".") if body else []
    return (
        len(tokens),
        tuple((0, 0) if t == "X" else (1, int(t[1:])) for t in tokens),
    )


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("level, degree", [(1, 5), (2, 4), (3, 3), (11, 3)])
def test_int_letter_order_matches_letter_dataclass_order(level, flavor, degree):
    ws = words_up_to_degree(level, flavor, degree)
    shuffled = random.Random(level).sample(ws, len(ws))
    assert sorted(shuffled, key=graded) == ws
    assert sorted(shuffled, key=_letter_dataclass_key) == ws
    assert [parse_word(str(w)) for w in ws] == ws


def test_wt_x_counts_x_letters():
    w = parse_word("n=2,std:Y1.X.Y0.X.X")
    assert wt_x(w) == 3
    assert wt_x(parse_word("n=1,std:")) == 0


def test_words_up_to_degree_counts():
    # alphabet size r+1 at level r, both flavors
    for level, flavor in [(1, FLAVOR_STANDARD), (2, FLAVOR_TILDE)]:
        for d in range(5):
            got = len(words_up_to_degree(level, flavor, d))
            want = sum((level + 1) ** k for k in range(d + 1))
            assert got == want
    assert len(words_up_to_degree(2, FLAVOR_TILDE, 6)) == 1093
    assert len(words_up_to_degree(4, FLAVOR_TILDE, 6)) == 19531


def test_words_up_to_degree_is_sorted_and_unique():
    ws = words_up_to_degree(3, FLAVOR_STANDARD, 3)
    assert ws == sorted(ws, key=graded)
    assert len(set(ws)) == len(ws)
    ws19 = words_up_to_degree(2, FLAVOR_STANDARD, 4, min_degree=2)
    assert all(2 <= len(w.letters) <= 4 for w in ws19)


@pytest.mark.parametrize("level, max_degree, min_degree", [
    (1, 4, 0), (2, 3, 1), (3, 4, 2), (4, 2, 2), (2, 1, 3),
])
def test_words_depth_first_is_letter_tuple_order(level, max_degree, min_degree):
    for flavor in FLAVORS:
        got = list(words_depth_first(level, max_degree, min_degree))
        want = words_up_to_degree(level, flavor, max_degree, min_degree)
        assert got == sorted(w.letters for w in want)


@given(random_words(max_level=3, max_len=5), st.integers(2, 3))
@settings(max_examples=80)
def test_lift_count(w, n):
    lifts = enumerate_lifts(w, n)
    y_count = len(w.letters) - wt_x(w)
    assert len(lifts) == n**y_count
    assert len(set(lifts)) == len(lifts)
    assert lifts == sorted(lifts, key=graded)
    for u in lifts:
        assert u.level == w.level * n
        assert wt_x(u) == wt_x(w)


@given(random_words(max_level=3, max_len=5), st.integers(2, 3))
@settings(max_examples=80)
def test_reduce_letters_undoes_lift(w, n):
    for u in enumerate_lifts(w, n):
        assert reduce_letters(u.letters, w.level) == w.letters


def test_reduce_letters_keeps_x_and_reduces_puncture_indices():
    # X stays X and Y_i becomes Y_(i mod r)
    w = parse_word("n=4,std:Y3.X.Y2")
    assert reduce_letters(w.letters, 2) == parse_word("n=2,std:Y1.X.Y0").letters
    assert reduce_letters(w.letters, 1) == parse_word("n=1,std:Y0.X.Y0").letters
    assert reduce_letters(w.letters, 3) == parse_word("n=3,std:Y0.X.Y2").letters


def test_concatenation():
    a = parse_word("n=2,std:Y0")
    b = parse_word("n=2,std:X")
    assert (a * b).letters == a.letters + b.letters
    with pytest.raises(WordError):
        a * parse_word("n=2,til:X")
