"""Isomorphism-preserving presentation rewriting.

The relator-breaking procedure rewrites any presentation into one whose
relators all have length at most 3.  Long relators leak structure through
the over-half subwords that trivial words must contain; after breaking,
every relator is too short to be distinctive.

Breaking works on packed relator strings and logs each splice: counted
rounds absorb the most frequent pair class until every class occurs once,
then one pass shortens each overlong relator from its front.  The
equivalent list of elementary Tietze moves is worked out from that log on
first read of ``BreakdownResult.moves``: T1, which introduces a generator
together with its defining relator, and T4', which replaces one relator by
a variant of it that generates the same normal closure.  The CLI never
reads the list; :func:`replay` applies it move by move and is the check
that the rewrite is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import chain, compress, tee
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .freegroup import (
    Alphabet,
    Word,
    _cyclic_core,
    _from_chars,
    _invert_chars,
    _merge_chars,
    serialize_word,
)
from .smallcancel import Presentation, serialize_presentation

__all__ = [
    "T1Intro",
    "T4Replace",
    "TietzeMove",
    "BreakdownResult",
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
class T4Replace:
    """Replace relator i by the formula ``variant``, freely and cyclically
    reduced: ``"r_i^-1"``, ``"r_j r_i"`` with j = ``other`` a distinct
    relator, or ``"x^-1 r_i x"`` and ``"x r_i x^-1"`` with x = ``generator``.
    """

    relator: int
    variant: str
    other: int | None = None
    generator: int | None = None


TietzeMove = Union[T1Intro, T4Replace]


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of :func:`break_relators`.

    ``definitions`` maps each introduced generator index to its defining
    word over strictly earlier generators, in introduction order.
    ``splices`` logs the rewrite, one ``(g, i, before, inverse)`` per
    splice: generator g took the place of its pair, or with ``inverse`` g^-1
    of the pair's inverse, in relator i after the packed letters ``before``.
    ``moves`` is the whole rewrite as elementary moves, which :func:`replay`
    takes from the input presentation to ``presentation``; it is worked out
    from the log on first read and kept.
    """

    presentation: Presentation
    definitions: dict[int, Word]
    splices: tuple[tuple[int, int, str, bool], ...]

    @cached_property
    def moves(self) -> tuple[TietzeMove, ...]:
        return _splice_moves(self)


# ---------------------------------------------------------------------------
# applying moves

def _replacement(relators: Sequence[str], rank: int, move: T4Replace) -> str:
    """The packed relator that ``move`` puts in place of relator i."""
    i = move.relator
    if not 0 <= i < len(relators):
        raise ValueError(f"relator index {i} out of range")
    r = relators[i]
    variant = move.variant
    if variant == "r_i^-1":
        replacement = _invert_chars(r)
    elif variant == "r_j r_i":
        j = move.other
        if j is None or not 0 <= j < len(relators):
            raise ValueError("product variant needs a valid partner index")
        if j == i:
            raise ValueError("product variant requires j != i")
        replacement = _merge_chars(relators[j], r)
    elif variant in ("x^-1 r_i x", "x r_i x^-1"):
        k = move.generator
        if k is None or not 1 <= k <= rank:
            raise ValueError("conjugation variant needs a valid generator")
        # the letter on the right of r_i, and its inverse on the left
        right = chr(2 * k + (variant == "x r_i x^-1"))
        replacement = _merge_chars(_merge_chars(chr(ord(right) ^ 1), r), right)
    else:
        raise ValueError(f"unrecognized T4' variant {variant!r}")
    replacement = _cyclic_core(replacement)
    if not replacement:
        raise ValueError("replacement relator collapses to the empty word")
    return replacement


def replay(p: Presentation, moves: Iterable[TietzeMove]) -> Presentation:
    """Apply ``moves`` to ``p`` in order; a single move is ``replay(p, [move])``.

    Each move is checked against the rank and relators that the moves
    before it left, and a bad one raises ``ValueError``.  The relators stay
    packed strings throughout, and one :class:`Presentation` is built, and
    validated, at the end.
    """
    relators = [r.chars for r in p.relators]
    rank = p.alphabet.rank
    for move in moves:
        if isinstance(move, T4Replace):
            relators[move.relator] = _replacement(relators, rank, move)
        elif isinstance(move, T1Intro):
            if move.definition.alphabet.rank != rank:
                raise ValueError("definition word is not over the presentation's alphabet")
            # the new generator occurs nowhere in the definition, so nothing cancels
            rank += 1
            relators.append(chr(2 * rank) + _invert_chars(move.definition.chars))
        else:
            raise ValueError(f"unrecognized move {move!r}")
    alphabet = Alphabet(rank)
    return Presentation(alphabet, tuple(_from_chars(alphabet, r) for r in relators))


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
    of length <= 3 pass through untouched.  Pairs are counted up to
    inversion; of equally frequent pairs the one seen first wins, reading
    relators by index and each from left to right.

    The rewrite splices packed relator strings, and nothing cancels: g next
    to g^-1 would mean that the input held x_i x_j x_j^-1 x_i^-1 or its
    inverse, which a cyclically reduced relator does not.  Every new
    adjacency holds the newest letter, so an absorbed pair never reappears
    in an overlong relator, and every round defines a fresh generator.
    The pair counts are taken once and then kept up to date at each
    splice, which only changes the adjacencies around the spliced pair.

    The counted rounds stop at the first round whose top count is 1.  From
    then on no class reaches count 2 again, since every new adjacency holds
    the newest generator, so each round's pair would be the first pair of
    the first overlong relator, found nowhere else.  One pass in index
    order does just that: g, or g^-1 when the pair is the inverse of its
    class, replaces each overlong relator's first pair until 3 letters are
    left.

    Each splice is logged, and ``moves`` is worked out from that log on
    first read: the T1 and T4' moves that carry out each splice, where the
    relator is rotated left past the letters before the occurrence,
    multiplied on the left by a conjugate of the defining relator, and
    rotated back.  The output is not computed from the moves, and the CLI
    never reads them; the tests replay them to the output as the
    isomorphism certificate.
    """
    relators = [r.chars for r in p.relators]  # rewritten in place
    defining: list[str] = []  # g^-1 a b per generator, appended after them
    rank = p.alphabet.rank
    definitions: dict[int, Word] = {}
    splices: list[tuple[int, int, str, bool]] = []
    # Memoised per call, so that map() over it runs at C speed.
    classes = cache(_pair_class)

    # pair class -> occurrences in overlong relators; empty once none is left
    counts: dict[str, int] = {}

    def pair_classes(s: str) -> Iterator[str]:
        return map(classes, map(add, s, s[1:]))

    def count(s: str, step: int) -> None:
        for c in pair_classes(s):
            n = counts.get(c, 0) + step
            if n:
                counts[c] = n
            else:
                del counts[c]

    for s in relators:
        if len(s) >= 4:
            count(s, 1)
    while counts and (top := max(counts.values())) > 1:
        # the first pair in scan order whose class has the top count
        scan, again = tee(chain.from_iterable(pair_classes(s) for s in relators if len(s) >= 4))
        pair = next(compress(scan, map(top.__eq__, map(counts.__getitem__, again))))
        definition = _from_chars(Alphabet(rank), pair)
        rank = g = rank + 1
        defining.append(chr(2 * g + 1) + pair)
        definitions[g] = definition
        inverse_pair = _invert_chars(pair)
        for idx, r in enumerate(relators):
            while len(r) >= 4:
                direct, inverted = r.find(pair), r.find(inverse_pair)
                # leftmost first, the pair before its inverse at one place
                # (which cannot happen: a reduced pair is not its inverse)
                if direct >= 0 and (inverted < 0 or direct <= inverted):
                    pos, head, inverse = direct, chr(2 * g), False
                elif inverted >= 0:
                    pos, head, inverse = inverted, chr(2 * g + 1), True
                else:
                    break
                before = r[:pos]
                splices.append((g, idx, before, inverse))
                # the pairs on and beside the spliced one leave the count,
                # and all of them when the relator drops to 3 letters
                lo = max(pos - 1, 0)
                count(r if len(r) == 4 else r[lo : pos + 3], -1)
                r = relators[idx] = before + head + r[pos + 2 :]
                if len(r) >= 4:
                    count(r[lo : pos + 2], 1)
    # every class occurs once: each round's one splice is at the front
    for idx, r in enumerate(relators):
        while len(r) >= 4:
            pair = classes(r[:2])
            rank = g = rank + 1
            definitions[g] = _from_chars(Alphabet(g - 1), pair)
            defining.append(chr(2 * g + 1) + pair)
            inverse = pair != r[:2]
            splices.append((g, idx, "", inverse))
            r = relators[idx] = chr(2 * g + inverse) + r[2:]
    alphabet = Alphabet(rank)
    out = tuple(_from_chars(alphabet, r) for r in relators + defining)
    return BreakdownResult(Presentation(alphabet, out), definitions, tuple(splices))


def _splice_moves(result: BreakdownResult) -> tuple[TietzeMove, ...]:
    """The T1 and T4' moves that carry out ``result.splices`` in order."""
    defined = len(result.definitions)
    base = result.presentation.alphabet.rank - defined
    inputs = len(result.presentation.relators) - defined
    # Memoised per call, so that map() over them runs at C speed: moves
    # are values, so each rotation is built once.
    rotations = [
        (cache(partial(_rotation, idx, False)), cache(partial(_rotation, idx, True)))
        for idx in range(inputs)
    ]
    moves: list[TietzeMove] = []
    current = None
    for g, idx, before, inverse in result.splices:
        if g != current:
            # T1 appends g b^-1 a^-1; inverting it and conjugating by g gives
            # the defining relator q = g^-1 a b
            current, q = g, inputs + g - base - 1
            invert = T4Replace(q, "r_i^-1")
            conjugate_by_g = T4Replace(q, "x^-1 r_i x", generator=g)
            moves += (T1Intro(result.definitions[g]), invert, conjugate_by_g)
            # q r turns a leading b^-1 a^-1 into g^-1; turned into g b^-1 a^-1
            # for the product and back, q turns a leading a b into g
            turn = (invert, T4Replace(q, "x r_i x^-1", generator=g))
            unturn = (conjugate_by_g, invert)
        left, right = rotations[idx]
        product = T4Replace(idx, "r_j r_i", other=q)
        moves += map(left, before)
        moves += (product,) if inverse else (*turn, product, *unturn)
        moves += map(right, reversed(before))
    return tuple(moves)


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
