"""Isomorphism-preserving presentation rewriting.

The relator-breaking procedure rewrites any presentation into one whose
relators all have length at most 3.  Long relators leak structure through
the over-half subwords that trivial words must contain, and breaking does
not hide it: over broken presentations a 3-gram attack still read share
bits with advantage 0.853 to 0.978 (n=8, k=256).

Breaking works on packed relator strings: counted rounds absorb the most
frequent pair class until every class occurs once, then one pass shortens
each overlong relator from its front.  ``BreakdownResult.moves`` restates
the rewrite as Tietze moves: T1, which adds a generator with its defining
relator, once per new generator, then T4, which replaces a relator, once
per rewritten input relator.  :func:`replay` accepts a T4 only where both
relators expand through the definitions to cyclic permutations of one
word, so it is the check that the rewrite is an isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, compress, tee
from operator import add
from typing import Iterable, Iterator, Mapping, Union

from .freegroup import (
    Alphabet,
    Word,
    _from_chars,
    _invert_chars,
    _reduce_chars,
    cyclic_permutations,
    cyclically_reduce,
    serialize_word,
)
from .smallcancel import Presentation, serialize_presentation

__all__ = [
    "T1Intro",
    "T4Replace",
    "BreakdownResult",
    "replay",
    "break_relators",
    "expand_word",
    "serialize_breakdown",
]


@dataclass(frozen=True)
class T1Intro:
    """Introduce generator x_{m+1} defined by the word ``definition`` over
    x_1 .. x_m; appends the defining relator x_{m+1}^-1 * definition."""

    definition: Word


@dataclass(frozen=True)
class T4Replace:
    """Replace input relator i by ``replacement``, a word over the current
    generators that equals it modulo the defining relators: both expand
    through the definitions to cyclic permutations of one word."""

    relator: int
    replacement: Word


TietzeMove = Union[T1Intro, T4Replace]


@dataclass(frozen=True)
class BreakdownResult:
    """Outcome of :func:`break_relators`.

    ``definitions`` maps each introduced generator index to its defining
    word over strictly earlier generators, in introduction order.
    ``moves`` is the rewrite as Tietze moves, which :func:`replay` takes
    from the input presentation to ``presentation``: one T1 per definition,
    then one T4 per input relator that breaking rewrote.  It is built from
    the two fields on first read and kept.
    """

    presentation: Presentation
    definitions: dict[int, Word]

    @cached_property
    def moves(self) -> tuple[TietzeMove, ...]:
        defined = len(self.definitions)
        inputs = self.presentation.relators[: -defined or None]
        # a rewritten relator holds a new generator; the others passed through
        top = chr(2 * (self.presentation.alphabet.rank - defined) + 1)
        rewritten = (T4Replace(i, r) for i, r in enumerate(inputs) if max(r.chars) > top)
        return (*map(T1Intro, self.definitions.values()), *rewritten)


# ---------------------------------------------------------------------------
# applying moves

def replay(p: Presentation, moves: Iterable[TietzeMove]) -> Presentation:
    """Apply ``moves`` to ``p`` in order; a single move is ``replay(p, [move])``.

    Each move is checked against the rank and relators that the moves
    before it left, and a bad one raises ``ValueError``.  A T4 may replace
    one of ``p``'s own relators, never one that a T1 added, by a nonempty
    word over the current generators; its expansion through the T1
    definitions so far, cyclically reduced, must be a cyclic permutation
    of the old relator's.  Every word equals its expansion modulo the
    defining relators, which no move removes, so each accepted T4 keeps the
    normal closure.  One :class:`Presentation` is built, and validated, at
    the end, over the alphabet that the last T1 left.
    """
    relators = list(p.relators)
    inputs = len(relators)
    rank = p.alphabet.rank
    definitions: dict[int, Word] = {}
    for move in moves:
        if isinstance(move, T4Replace):
            i, new = move.relator, move.replacement
            if not 0 <= i < inputs:
                raise ValueError(f"relator index {i} names no input relator")
            if new.alphabet.rank != rank:
                raise ValueError("replacement word is not over the presentation's alphabet")
            if not new:
                raise ValueError("replacement relator is empty")
            old = cyclically_reduce(expand_word(relators[i], definitions))
            if cyclically_reduce(expand_word(new, definitions)) not in cyclic_permutations(old):
                raise ValueError(f"replacement is not relator {i} modulo the definitions")
            relators[i] = new
        elif isinstance(move, T1Intro):
            if move.definition.alphabet.rank != rank:
                raise ValueError("definition word is not over the presentation's alphabet")
            # the new generator occurs nowhere in the definition, so nothing cancels
            rank += 1
            definitions[rank] = move.definition
            relators.append(_from_chars(Alphabet(rank), chr(2 * rank + 1) + move.definition.chars))
        else:
            raise ValueError(f"unrecognized move {move!r}")
    alphabet = Alphabet(rank)
    return Presentation(alphabet, tuple(_from_chars(alphabet, r.chars) for r in relators))


# ---------------------------------------------------------------------------
# breaking relators down to length <= 3

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

    The output is not computed from moves.  ``moves`` restates it when it
    is first read, which the CLI never does; the tests replay the moves to
    the output as the isomorphism certificate.
    """
    relators = [r.chars for r in p.relators]  # rewritten in place
    rank = p.alphabet.rank
    definitions: dict[int, Word] = {}
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
        rank = g = rank + 1
        definitions[g] = _from_chars(Alphabet(g - 1), pair)
        inverse_pair = _invert_chars(pair)
        for idx, r in enumerate(relators):
            while len(r) >= 4:
                direct, inverted = r.find(pair), r.find(inverse_pair)
                # leftmost first, the pair before its inverse at one place
                # (which cannot happen: a reduced pair is not its inverse)
                if direct >= 0 and (inverted < 0 or direct <= inverted):
                    pos, head = direct, chr(2 * g)
                elif inverted >= 0:
                    pos, head = inverted, chr(2 * g + 1)
                else:
                    break
                # the pairs on and beside the spliced one leave the count,
                # and all of them when the relator drops to 3 letters
                lo = max(pos - 1, 0)
                count(r if len(r) == 4 else r[lo : pos + 3], -1)
                r = relators[idx] = r[:pos] + head + r[pos + 2 :]
                if len(r) >= 4:
                    count(r[lo : pos + 2], 1)
    # every class occurs once: each round's one splice is at the front
    for idx, r in enumerate(relators):
        while len(r) >= 4:
            pair = classes(r[:2])
            rank = g = rank + 1
            definitions[g] = _from_chars(Alphabet(g - 1), pair)
            inverse = pair != r[:2]
            r = relators[idx] = chr(2 * g + inverse) + r[2:]
    # each defining relator g^-1 a b follows the rewritten input relators
    relators += (chr(2 * g + 1) + d.chars for g, d in definitions.items())
    alphabet = Alphabet(rank)
    out = tuple(_from_chars(alphabet, r) for r in relators)
    return BreakdownResult(Presentation(alphabet, out), definitions)


def expand_word(w: Word, definitions: Mapping[int, Word]) -> Word:
    """Replace every introduced generator by its defining word, iterated to
    a fixpoint, and freely reduce.

    ``definitions`` must be acyclic in the strict sense used by
    :func:`break_relators`: each generator's defining word mentions only
    strictly earlier generators.  The result is over the base alphabet:
    every generator below the smallest defined one.
    """
    base_rank = min(definitions) - 1 if definitions else w.alphabet.rank
    if base_rank < 1:
        raise ValueError("cannot infer a base alphabet")
    table: dict[int, str] = {}  # packed code of each defined letter -> its expansion

    def expand(chars: str, g: int | None = None) -> str:
        for code in map(ord, chars):
            index = code >> 1
            if g is not None and index >= g:
                raise ValueError(
                    f"definition of x{g} mentions x{index}: definitions must be "
                    "over strictly earlier generators"
                )
            if index > base_rank and code not in table:
                raise ValueError(f"unknown generator x{index}")
        return _reduce_chars(chars.translate(table))

    for g in sorted(definitions):
        table[2 * g] = expansion = expand(definitions[g].chars, g)
        table[2 * g + 1] = _invert_chars(expansion)
    return _from_chars(Alphabet(base_rank), expand(w.chars))


def serialize_breakdown(result: BreakdownResult) -> str:
    lines = [serialize_presentation(result.presentation).rstrip("\n")]
    for g, definition in result.definitions.items():
        lines.append(f"define x{g} := {serialize_word(definition)}")
    return "\n".join(lines) + "\n"
