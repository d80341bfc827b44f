"""Isomorphism-preserving presentation rewriting.

Elementary Tietze moves (introduce a generator, cancel a generator, apply
a free-group automorphism, recursively change one relator) plus the
relator-breaking procedure that rewrites any presentation into one whose
relators all have length at most 3.  Long relators leak structure through
the over-half subwords that trivial words must contain; after breaking,
every relator is too short to be distinctive.

Breaking works on packed relator strings and writes the equivalent list
of elementary moves as a by-product; :func:`replay` applies such a list
move by move and is the check that the rewrite is an isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from operator import add
from typing import Callable, Iterable, Mapping, Sequence, Union

from .freegroup import (
    Alphabet,
    Word,
    _from_chars,
    _invert_chars,
    _merge_chars,
    conjugate,
    cyclically_reduce,
    serialize_word,
)
from .smallcancel import Presentation, serialize_presentation

__all__ = [
    "T1Intro",
    "T2Cancel",
    "InvertGenerator",
    "RightMultiplyGenerator",
    "T3Auto",
    "T4Replace",
    "T4_VARIANTS",
    "TietzeMove",
    "BreakdownResult",
    "apply_t1",
    "apply_t2",
    "apply_t3",
    "apply_t4prime",
    "apply_move",
    "replay",
    "break_relators",
    "expand_word",
    "serialize_breakdown",
]


@dataclass(frozen=True)
class T1Intro:
    """Introduce generator x_{m+1} defined by the word ``definition``;
    appends the relator x_{m+1} * definition^-1."""

    definition: Word


@dataclass(frozen=True)
class T2Cancel:
    """Cancel a generator that occurs exactly once, in its defining relator."""

    generator: int


@dataclass(frozen=True)
class InvertGenerator:
    """Elementary Nielsen move x_i -> x_i^-1."""

    generator: int


@dataclass(frozen=True)
class RightMultiplyGenerator:
    """Elementary Nielsen move x_i -> x_i x_j (j != i)."""

    generator: int
    by: int


ElementaryAuto = Union[InvertGenerator, RightMultiplyGenerator]


@dataclass(frozen=True)
class T3Auto:
    """Apply a composition of elementary Nielsen moves to every relator."""

    moves: tuple[ElementaryAuto, ...]


# The seven recursive relator replacements; ``variant`` uses the formula
# verbatim, with i the replaced index, j a distinct partner, x a generator.
T4_VARIANTS = (
    "r_i^-1",
    "r_i r_j",
    "r_i r_j^-1",
    "r_j r_i",
    "r_j r_i^-1",
    "x^-1 r_i x",
    "x r_i x^-1",
)


@dataclass(frozen=True)
class T4Replace:
    relator: int
    variant: str
    other: int | None = None
    generator: int | None = None


TietzeMove = Union[T1Intro, T2Cancel, T3Auto, T4Replace]


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of :func:`break_relators`.

    ``definitions`` maps each introduced generator index to its defining
    word over strictly earlier generators, in introduction order;
    ``moves`` is the whole rewrite as elementary moves, which
    :func:`replay` takes from the input presentation to ``presentation``.
    """

    presentation: Presentation
    definitions: dict[int, Word]
    moves: tuple[TietzeMove, ...]


# ---------------------------------------------------------------------------
# the four elementary transformations

def apply_t1(p: Presentation, definition: Word) -> Presentation:
    """Add generator y = x_{m+1} with defining relator y * definition^-1."""
    if definition.alphabet != p.alphabet:
        raise ValueError("definition word is not over the presentation's alphabet")
    wide = Alphabet(p.alphabet.rank + 1)
    y = wide.rank
    new_relator = _from_chars(
        wide, _merge_chars(chr(2 * y), _invert_chars(definition.chars))
    )
    relators = tuple(_from_chars(wide, r.chars) for r in p.relators) + (new_relator,)
    return Presentation(wide, relators)


def apply_t2(p: Presentation, generator: int) -> Presentation:
    """Remove a generator occurring exactly once in the whole relator list.

    The unique occurrence marks the defining relator (accepted in any
    rotated or inverted storage form).  That relator is dropped, the
    generator removed, and higher generators renumbered down by one.
    """
    m = p.alphabet.rank
    if not 1 <= generator <= m:
        raise ValueError(f"generator index {generator} out of range")
    if m == 1:
        raise ValueError("cannot cancel the last remaining generator")
    target = chr(2 * generator)
    holder: int | None = None
    occurrences = 0
    for idx, r in enumerate(p.relators):
        count = r.chars.count(target) + r.chars.count(chr(2 * generator + 1))
        if count:
            occurrences += count
            holder = idx
    if occurrences == 0:
        raise ValueError(f"generator x{generator} has no defining relator")
    if occurrences > 1:
        raise ValueError(f"generator x{generator} occurs more than once")
    narrow = Alphabet(m - 1)

    def renumber(w: Word) -> Word:
        letters = []
        for letter in w:
            index = abs(letter)
            if index == generator:
                raise ValueError("unexpected occurrence during renumbering")
            if index > generator:
                index -= 1
            letters.append(index if letter > 0 else -index)
        return cyclically_reduce(Word(narrow, letters))

    relators = tuple(renumber(r) for i, r in enumerate(p.relators) if i != holder)
    return Presentation(narrow, relators)


def apply_t3(p: Presentation, auto: ElementaryAuto | Sequence[ElementaryAuto] | T3Auto) -> Presentation:
    """Apply elementary Nielsen moves (in order) to every relator."""
    if isinstance(auto, T3Auto):
        moves: Sequence[ElementaryAuto] = auto.moves
    elif isinstance(auto, (InvertGenerator, RightMultiplyGenerator)):
        moves = (auto,)
    else:
        moves = tuple(auto)
    m = p.alphabet.rank
    relators = list(p.relators)
    for move in moves:
        if isinstance(move, InvertGenerator):
            if not 1 <= move.generator <= m:
                raise ValueError(f"generator index {move.generator} out of range")
            i = move.generator

            def image(letter: int, i: int = i) -> list[int]:
                return [-letter] if abs(letter) == i else [letter]

        elif isinstance(move, RightMultiplyGenerator):
            if not 1 <= move.generator <= m or not 1 <= move.by <= m:
                raise ValueError("generator index out of range")
            if move.generator == move.by:
                raise ValueError("x_i -> x_i x_j requires j != i")
            i, j = move.generator, move.by

            def image(letter: int, i: int = i, j: int = j) -> list[int]:
                if letter == i:
                    return [i, j]
                if letter == -i:
                    return [-j, -i]
                return [letter]

        else:
            raise ValueError(f"unrecognized automorphism move {move!r}")
        relators = [
            Word(p.alphabet, [out for letter in r for out in image(letter)])
            for r in relators
        ]
    return Presentation(p.alphabet, tuple(cyclically_reduce(r) for r in relators))


def apply_t4prime(p: Presentation, move: T4Replace) -> Presentation:
    """Replace relator i by one of the seven recursive variants; the result
    is freely and cyclically reduced, other relators are untouched."""
    i = move.relator
    if not 0 <= i < len(p.relators):
        raise ValueError(f"relator index {i} out of range")
    r = p.relators[i]
    variant = move.variant
    if variant == "r_i^-1":
        replacement = r.inverse()
    elif variant in ("r_i r_j", "r_i r_j^-1", "r_j r_i", "r_j r_i^-1"):
        j = move.other
        if j is None or not 0 <= j < len(p.relators):
            raise ValueError("product variant needs a valid partner index")
        if j == i:
            raise ValueError("product variant requires j != i")
        s = p.relators[j]
        if variant == "r_i r_j":
            replacement = r * s
        elif variant == "r_i r_j^-1":
            replacement = r * s.inverse()
        elif variant == "r_j r_i":
            replacement = s * r
        else:
            replacement = s * r.inverse()
    elif variant in ("x^-1 r_i x", "x r_i x^-1"):
        k = move.generator
        if k is None or not 1 <= k <= p.alphabet.rank:
            raise ValueError("conjugation variant needs a valid generator")
        x = Word(p.alphabet, [k])
        replacement = conjugate(r, x if variant == "x^-1 r_i x" else x.inverse())
    else:
        raise ValueError(f"unrecognized T4' variant {variant!r}")
    replacement = cyclically_reduce(replacement)
    if not replacement:
        raise ValueError("replacement relator collapses to the empty word")
    relators = list(p.relators)
    relators[i] = replacement
    return Presentation(p.alphabet, tuple(relators))


def apply_move(p: Presentation, move: TietzeMove) -> Presentation:
    if isinstance(move, T1Intro):
        return apply_t1(p, move.definition)
    if isinstance(move, T2Cancel):
        return apply_t2(p, move.generator)
    if isinstance(move, T3Auto):
        return apply_t3(p, move)
    if isinstance(move, T4Replace):
        return apply_t4prime(p, move)
    raise ValueError(f"unrecognized move {move!r}")


def replay(p: Presentation, moves: Iterable[TietzeMove]) -> Presentation:
    for move in moves:
        p = apply_move(p, move)
    return p


# ---------------------------------------------------------------------------
# breaking relators down to length <= 3

def _rotation(idx: int, back: bool, letter: str) -> T4Replace:
    """The T4' move that rotates relator idx left past its first letter,
    ``letter``, or with ``back`` right past its last: conjugation by that
    letter's generator, x^-1 r x or x r x^-1.  Rotating right past a letter
    is the move that rotates left past its inverse."""
    code = ord(letter) ^ back
    return T4Replace(idx, "x r_i x^-1" if code & 1 else "x^-1 r_i x", generator=code >> 1)


def _pair_class(pair: str) -> str:
    """A pair's class up to inversion: the lesser of it and its inverse."""
    return min(pair, _invert_chars(pair))


def _most_frequent_pair(relators: Sequence[str], classes: Callable[[str], str]) -> str:
    """Adjacent pair class (up to inversion) with the most occurrences in
    overlong packed relators; ties go to the class seen first.  ``classes``
    is :func:`_pair_class`, memoised."""
    counts: Counter[str] = Counter()
    for s in relators:
        if len(s) >= 4:
            counts.update(map(classes, map(add, s, s[1:])))
    # counts is in first-seen order, and max keeps the first of equals
    return max(counts, key=counts.__getitem__)


def break_relators(p: Presentation) -> BreakdownResult:
    """Rewrite ``p`` into an isomorphic presentation whose relators all have
    length at most 3.

    While some relator is overlong (length >= 4), the most frequent
    adjacent letter pair x_i x_j across overlong relators gets a new
    generator g = x_i x_j with defining relator g^-1 x_i x_j, and every
    occurrence of the pair (or of its inverse) in an overlong relator is
    absorbed into g (or g^-1), leftmost first, shortening the relator by
    one letter per occurrence.  Choosing the most frequent pair keeps the
    total length of the output close to the input total; relators already
    of length <= 3 pass through untouched.

    The rewrite splices packed relator strings, and nothing cancels: g next
    to g^-1 would mean that the input held x_i x_j x_j^-1 x_i^-1 or its
    inverse, which a cyclically reduced relator does not.  Every new
    adjacency holds the newest letter, so an absorbed pair never reappears
    in an overlong relator, and every round defines a fresh generator.
    ``moves`` is written alongside, as the T1 and T4' moves
    that carry out each splice: the relator is rotated left past the
    letters before the occurrence, multiplied on the left by a conjugate of
    the defining relator, and rotated back.  It is a by-product, not what
    the output is computed from; the tests replay it to the output as the
    isomorphism certificate.
    """
    relators = [r.chars for r in p.relators]  # rewritten in place
    defining: list[str] = []  # g^-1 a b per generator, appended after them
    rank = p.alphabet.rank
    moves: list[TietzeMove] = []
    definitions: dict[int, Word] = {}
    # Memoised per call, so that map() over them runs at C speed: moves
    # are values, so each rotation is built once.
    classes = cache(_pair_class)
    rotations = [
        (cache(partial(_rotation, idx, False)), cache(partial(_rotation, idx, True)))
        for idx in range(len(relators))
    ]
    while max(map(len, relators), default=0) >= 4:
        pair = _most_frequent_pair(relators, classes)
        # T1 appends g b^-1 a^-1; inverting it and conjugating by g gives
        # the defining relator q = g^-1 a b
        definition = _from_chars(Alphabet(rank), pair)
        rank = g = rank + 1
        q = len(relators) + len(defining)
        defining.append(chr(2 * g + 1) + pair)
        definitions[g] = definition
        invert = T4Replace(q, "r_i^-1")
        conjugate_by_g = T4Replace(q, "x^-1 r_i x", generator=g)
        moves += (T1Intro(definition), invert, conjugate_by_g)
        # q r turns a leading b^-1 a^-1 into g^-1; turned into g b^-1 a^-1
        # for the product and back, q turns a leading a b into g
        turn = [invert, T4Replace(q, "x r_i x^-1", generator=g)]
        unturn = [conjugate_by_g, invert]
        inverse_pair = _invert_chars(pair)
        for idx, (left, right) in enumerate(rotations):
            r = relators[idx]
            while len(r) >= 4:
                direct, inverted = r.find(pair), r.find(inverse_pair)
                # leftmost first, the pair before its inverse at one place
                # (which cannot happen: a reduced pair is not its inverse)
                if direct >= 0 and (inverted < 0 or direct <= inverted):
                    pos, head = direct, chr(2 * g)
                    product = [*turn, T4Replace(idx, "r_j r_i", other=q), *unturn]
                elif inverted >= 0:
                    pos, head = inverted, chr(2 * g + 1)
                    product = [T4Replace(idx, "r_j r_i", other=q)]
                else:
                    break
                moves += map(left, r[:pos])
                moves += product
                moves += map(right, reversed(r[:pos]))
                r = relators[idx] = r[:pos] + head + r[pos + 2 :]
    alphabet = Alphabet(rank)
    out = tuple(_from_chars(alphabet, r) for r in relators + defining)
    return BreakdownResult(Presentation(alphabet, out), definitions, tuple(moves))


def expand_word(
    w: Word,
    definitions: Mapping[int, Word],
    alphabet: Alphabet | None = None,
) -> Word:
    """Replace every introduced generator by its defining word, iterated to
    a fixpoint, and freely reduce.

    ``definitions`` must be acyclic in the strict sense used by
    :func:`break_relators`: each generator's defining word mentions only
    strictly earlier generators.  ``alphabet`` names the base alphabet of
    the result; by default it is inferred as everything below the smallest
    defined generator.
    """
    if alphabet is None:
        base_rank = min(definitions) - 1 if definitions else w.alphabet.rank
        if base_rank < 1:
            raise ValueError("cannot infer a base alphabet")
        alphabet = Alphabet(base_rank)
    expanded: dict[int, str] = {}
    for g in sorted(definitions):
        chars = ""
        for letter in definitions[g]:
            index = abs(letter)
            if index >= g:
                raise ValueError(
                    f"definition of x{g} mentions x{index}: definitions must be "
                    "over strictly earlier generators"
                )
            piece = _piece_chars(index, letter, alphabet, expanded)
            chars = _merge_chars(chars, piece)
        expanded[g] = chars
    out = ""
    for letter in w:
        out = _merge_chars(out, _piece_chars(abs(letter), letter, alphabet, expanded))
    return _from_chars(alphabet, out)


def _piece_chars(
    index: int, letter: int, alphabet: Alphabet, expanded: Mapping[int, str]
) -> str:
    if index <= alphabet.rank:
        return chr(2 * index) if letter > 0 else chr(2 * index + 1)
    if index not in expanded:
        raise ValueError(f"unknown generator x{index}")
    chars = expanded[index]
    return chars if letter > 0 else _invert_chars(chars)


def serialize_breakdown(result: BreakdownResult) -> str:
    lines = [serialize_presentation(result.presentation).rstrip("\n")]
    for g, definition in result.definitions.items():
        lines.append(f"define x{g} := {serialize_word(definition)}")
    return "\n".join(lines) + "\n"
