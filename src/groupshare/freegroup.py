"""Exact arithmetic on freely reduced words over a finite generating set.

A letter is a nonzero integer: ``i`` stands for the generator ``x_i`` and
``-i`` for its inverse.  A word is a sequence of letters with no adjacent
cancelling pair; every :class:`Word` is reduced on construction and stays
reduced through all operations.

Internally a word is packed into a ``str`` (letter ``i`` maps to the code
point ``2*i`` for ``i > 0`` and ``-2*i + 1`` otherwise, so inversion is a
XOR with 1).  This makes subword scans and prefix matching run at C speed,
which the word-problem machinery leans on heavily.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator

__all__ = [
    "Alphabet",
    "Word",
    "cyclically_reduce",
    "cyclic_permutations",
    "random_reduced_word",
    "parse_word",
    "serialize_word",
]


@dataclass(frozen=True)
class Alphabet:
    """Generating set ``x_1 .. x_rank`` of a free group."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("alphabet rank must be at least 1")


# ---------------------------------------------------------------------------
# internal letter <-> char codec

def _char(letter: int) -> str:
    return chr(2 * letter) if letter > 0 else chr(-2 * letter + 1)


def _letter(ch: str) -> int:
    code = ord(ch)
    return code // 2 if code % 2 == 0 else -(code - 1) // 2


# The codec runs as ``str.translate``, ``str.join`` and dict lookups over
# tables of the packed codes of every rank up to _TABLE_RANK; the lookup
# tables work out and keep any larger entry the first time it is asked for,
# and the parser takes its general path.  Platform groups have small rank;
# only Tietze rewriting goes far beyond it, and serializes little, so a wider
# table would only add memory to every process (about 160 KB at rank 256).
_TABLE_RANK = 16


class _Table(dict):
    """Lookup table: key -> ``entry(key)`` for any key, each worked out once."""

    def __init__(self, keys: Iterable, entry: Callable):
        super().__init__((key, entry(key)) for key in keys)
        self.entry = entry

    def __missing__(self, key):
        value = self[key] = self.entry(key)
        return value


_CODES = range(2, 2 * _TABLE_RANK + 2)
_FLIP = _Table(_CODES, lambda code: code ^ 1)  # inverse letter, for str.translate
_SERIALIZE = _Table(
    map(chr, _CODES), lambda ch: f"x{ord(ch) // 2}^-1" if ord(ch) % 2 else f"x{ord(ch) // 2}"
)
# Indexed by rank r <= _TABLE_RANK: the tokens of that rank, and the 2r
# two-letter strings that cancel.  A token of a higher generator misses the
# table, so the parser's general path reports it.
_PARSE = tuple(
    (
        {_SERIALIZE[chr(code)]: chr(code) for code in range(2, 2 * r + 2)},
        tuple(chr(code) + chr(code ^ 1) for code in range(2, 2 * r + 2)),
    )
    for r in range(_TABLE_RANK + 1)
)


def _invert_chars(chars: str) -> str:
    return chars[::-1].translate(_FLIP)


def _merge_chars(a: str, b: str) -> str:
    """Concatenate two reduced strings, cancelling across the seam only."""
    if not a or not b or ord(a[-1]) ^ 1 != ord(b[0]):
        return a + b
    cut = 1
    limit = min(len(a), len(b))
    while cut < limit and ord(a[-1 - cut]) ^ 1 == ord(b[cut]):
        cut += 1
    return a[:-cut] + b[cut:]


def _reduce_chars(chars: Iterable[str]) -> str:
    stack: list[str] = []
    for c in chars:
        if stack and ord(stack[-1]) ^ 1 == ord(c):
            stack.pop()
        else:
            stack.append(c)
    return "".join(stack)


class Word:
    """A freely reduced word over an :class:`Alphabet`; immutable value."""

    __slots__ = ("alphabet", "chars")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        rank = alphabet.rank
        packed = []
        for letter in letters:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > rank:
                raise ValueError(f"letter {letter!r} outside alphabet of rank {rank}")
            packed.append(_char(letter))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "chars", _reduce_chars(packed))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Word is immutable")

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(_letter(c) for c in self.chars)

    def __len__(self) -> int:
        return len(self.chars)

    def __iter__(self) -> Iterator[int]:
        return (_letter(c) for c in self.chars)

    def __bool__(self) -> bool:
        return bool(self.chars)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self.alphabet == other.alphabet and self.chars == other.chars

    def __hash__(self) -> int:
        return hash((self.alphabet, self.chars))

    def __mul__(self, other: "Word") -> "Word":
        """Group product: reduced concatenation of ``self`` and ``other``."""
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets")
        return _from_chars(self.alphabet, _merge_chars(self.chars, other.chars))

    def __repr__(self) -> str:
        return f"Word({serialize_word(self)!r})"

    def inverse(self) -> "Word":
        return _from_chars(self.alphabet, _invert_chars(self.chars))

    def is_cyclically_reduced(self) -> bool:
        s = self.chars
        return not s or ord(s[0]) ^ 1 != ord(s[-1])


def _from_chars(alphabet: Alphabet, chars: str) -> Word:
    """Fast constructor for strings already known to be reduced."""
    w = Word.__new__(Word)
    object.__setattr__(w, "alphabet", alphabet)
    object.__setattr__(w, "chars", chars)
    return w


# ---------------------------------------------------------------------------
# operations

def _cyclic_core(s: str) -> str:
    """A reduced string with the letters that cancel around its ends removed."""
    lo, hi = 0, len(s)
    while hi - lo >= 2 and ord(s[lo]) ^ 1 == ord(s[hi - 1]):
        lo += 1
        hi -= 1
    return s[lo:hi]


def cyclically_reduce(w: Word) -> Word:
    return _from_chars(w.alphabet, _cyclic_core(w.chars))


def cyclic_permutations(w: Word) -> frozenset[Word]:
    """All rotations of a cyclically reduced word, deduplicated."""
    if not w.is_cyclically_reduced():
        raise ValueError("word is not cyclically reduced")
    s = w.chars
    if not s:
        return frozenset((w,))
    return frozenset(_from_chars(w.alphabet, s[i:] + s[:i]) for i in range(len(s)))


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``Random.randrange(n)`` without its argument checks: the same
    rejection loop over ``getrandbits``, so the same draws.  ``n`` must be
    at least 1; at 0 the loop would never end."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _random_chars(length: int, rank: int, getrandbits: Callable[[int], int]) -> str:
    """Packed uniform non-backtracking word of ``length`` letters."""
    if not length:
        return ""
    code = _below(getrandbits, 2 * rank) + 2
    codes = [code]
    # ``_below(getrandbits, n)`` inlined: the bound is the same for every
    # later letter, so the draws are too.
    n = 2 * rank - 1
    k = n.bit_length()
    for _ in range(length - 1):
        pick = getrandbits(k)
        while pick >= n:
            pick = getrandbits(k)
        code = pick + 2 if pick + 2 < code ^ 1 else pick + 3
        codes.append(code)
    return "".join(map(chr, codes))


def random_reduced_word(length: int, alphabet: Alphabet, rng: Random) -> Word:
    """Uniform non-backtracking word: first letter uniform over ``2m``
    choices, each later letter uniform over the ``2m - 1`` letters that do
    not cancel the previous one."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return _from_chars(alphabet, _random_chars(length, alphabet.rank, rng.getrandbits))


_TOKEN = re.compile(r"x([0-9]+)(\^-1)?\Z")


def _parse_tokens(tokens: list[str], alphabet: Alphabet) -> Word:
    """The general parser: ranks beyond the table, spellings such as
    ``x01``, and the wording of every error."""
    letters = []
    for token in tokens:
        match = _TOKEN.match(token)
        if match is None:
            raise ValueError(f"malformed word token {token!r}")
        index = int(match.group(1))
        if index < 1 or index > alphabet.rank:
            raise ValueError(f"generator index {index} outside rank {alphabet.rank}")
        letters.append(-index if match.group(2) else index)
    return Word(alphabet, letters)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse ``"x1 x2^-1"`` style text; reduces the result."""
    tokens = text.split()
    table, pairs = _PARSE[min(alphabet.rank, _TABLE_RANK)]
    try:
        packed = "".join(map(table.__getitem__, tokens))
    except KeyError:
        return _parse_tokens(tokens, alphabet)
    if any(map(packed.__contains__, pairs)):
        packed = _reduce_chars(packed)
    return _from_chars(alphabet, packed)


def serialize_word(w: Word) -> str:
    return " ".join(map(_SERIALIZE.__getitem__, w.chars))
