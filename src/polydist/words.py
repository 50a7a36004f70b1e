"""Alphabets and words for the level-n unipotent fundamental-group algebra.

At level n there is one translation-invariant letter X and n puncture
letters Y0..Y(n-1), one per n-th root of unity (indexed anticlockwise).
A letter is a small int: 0 is X and 1 + i is Y_i, so the alphabet of level
n is ``range(n + 1)`` and plain int order is the canonical letter order
X < Y0 < ... < Y(n-1).  A ``Word`` tags its letters with a level and a
flavor (series key on the bare letters, as they carry both themselves):

- "std" — the inhomogeneous (full monodromy) coordinates;
- "til" — the homogeneized coordinates, where push-forwards act diagonally.

The text format is ``n=<level>,<flavor>:<letters>`` with letters joined by
dots, e.g. ``n=6,std:Y5.X.X``; the empty word has an empty letter list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

FLAVOR_STANDARD = "std"
FLAVOR_TILDE = "til"
FLAVORS = (FLAVOR_STANDARD, FLAVOR_TILDE)


class WordError(ValueError):
    """Raised for malformed letters/words or mismatched levels/flavors."""


def render_letters(letters):
    """The dotted text of int letters: ``(6, 0, 0)`` -> ``Y5.X.X``."""
    return ".".join("X" if a == 0 else f"Y{a - 1}" for a in letters)


@dataclass(frozen=True)
class Word:
    """A word in the level alphabet; the monomial basis of the series algebra.

    ``letters`` is a tuple of ints in ``range(level + 1)``.  The level/flavor
    live on the word itself so that the empty word is still tagged.
    """

    level: int
    flavor: str
    letters: tuple

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise WordError(f"unknown flavor {self.flavor!r}")
        if self.level < 1:
            raise WordError(f"level must be >= 1, got {self.level}")
        for a in self.letters:
            if not 0 <= a <= self.level:
                raise WordError(
                    f"letter {a!r} out of range for level {self.level} "
                    "(0 is X, 1 + i is Y_i)"
                )

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if other.level != self.level or other.flavor != self.flavor:
            raise WordError("cannot concatenate words of different levels/flavors")
        return Word(self.level, self.flavor, self.letters + other.letters)

    def render(self):
        return f"n={self.level},{self.flavor}:{render_letters(self.letters)}"

    def __str__(self):
        return self.render()


def parse_word(text):
    """Inverse of Word.render: ``n=2,std:Y0.X`` -> Word.  Text that the
    parsed word does not render back to exactly (``n=2,std``, ``Y01``,
    ``Y+1``, ``n=+2``) raises WordError."""
    try:
        head, _, body = text.partition(":")
        level_part, _, flavor = head.partition(",")
        if not level_part.startswith("n="):
            raise WordError(f"bad word header {head!r}")
        level = int(level_part[2:])
        letters = []
        if body:
            for tok in body.split("."):
                if tok == "X":
                    letters.append(0)
                elif tok.startswith("Y") and int(tok[1:]) >= 0:
                    letters.append(1 + int(tok[1:]))
                else:
                    raise WordError(f"bad letter token {tok!r}")
        word = Word(level, flavor, tuple(letters))
    except WordError:
        raise
    except ValueError as exc:
        raise WordError(f"cannot parse word {text!r}: {exc}") from exc
    if word.render() != text:
        raise WordError(f"cannot parse word {text!r}: it renders as {word.render()!r}")
    return word


def wt_x(w):
    """Number of X letters in the word (the 'translation weight')."""
    return w.letters.count(0)


def words_up_to_degree(level, flavor, max_degree, min_degree=0):
    """All words of degree in [min_degree, max_degree], in canonical order."""
    out = []
    for d in range(min_degree, max_degree + 1):
        for combo in itertools.product(range(level + 1), repeat=d):
            out.append(Word(level, flavor, combo))
    return out


def words_depth_first(level, max_degree, min_degree=0):
    """The letters of all words of degree in [min_degree, max_degree] in
    plain tuple order, each word just before its extensions: a depth-first
    walk of the word trie.  Yields one tuple at a time, so no degree layer is
    held."""
    pending = [()]
    while pending:
        letters = pending.pop()
        if len(letters) >= min_degree:
            yield letters
        if len(letters) < max_degree:  # children pushed last letter first
            pending.extend(letters + (a,) for a in range(level, -1, -1))


def reduce_letters(letters, r):
    """X stays X; the puncture index reduces mod r."""
    return tuple(1 + (a - 1) % r if a else 0 for a in letters)


def enumerate_lifts(w, n):
    """All words at level ``w.level * n`` that reduce to ``w``.

    X lifts uniquely; each Y index i lifts to i + t*level for t in [0, n).
    The product of the increasing per-letter choices is already in
    canonical order; there are n**(#Y letters) lifts.
    """
    r = w.level
    choices = [range(a, a + n * r, r) if a else (0,) for a in w.letters]
    return [Word(r * n, w.flavor, combo) for combo in itertools.product(*choices)]
