"""Exact arithmetic on freely reduced words over a finite generating set.

A letter is a nonzero integer: ``i`` stands for the generator ``x_i`` and
``-i`` for its inverse.  A word is a sequence of letters with no adjacent
cancelling pair; every :class:`Word` is reduced on construction and stays
reduced through all operations.

Internally a word is packed into a ``str`` (letter ``i`` maps to the code
point ``2*i`` for ``i > 0`` and ``-2*i + 1`` otherwise, so inversion is a
XOR with 1).  This makes subword scans and prefix matching run at C speed,
which the word-problem machinery leans on heavily.

Words are written as ``x1 x2^-1`` tokens, or, in share bundles, one
printable character per letter up to rank 87; ``parse_word`` reads both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Sequence

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
        if not 1 <= self.rank <= 557055:  # x_rank^-1 packs as chr(2 * rank + 1)
            raise ValueError(f"alphabet rank must lie in 1..557055, got {self.rank}")


# ---------------------------------------------------------------------------
# internal letter <-> char codec

def _char(letter: int) -> str:
    return chr(2 * letter) if letter > 0 else chr(-2 * letter + 1)


def _letter(ch: str) -> int:
    code = ord(ch)
    return code // 2 if code % 2 == 0 else -(code - 1) // 2


# The codec runs as ``str.translate``, ``str.join`` and dict lookups over
# tables of packed codes.  _FLIP and _SERIALIZE work out and keep each entry
# the first time it is asked for, at any rank.  _PARSE builds a rank's tables
# the first time a word of that rank is parsed, up to _COMPACT_RANK: beyond
# it _parse_tokens reads one token at a time, so a file that declares a huge
# rank allocates no tokens for it.  Platform groups have small rank; only
# Tietze rewriting goes far beyond it.


class _Table(dict):
    """Lookup table: key -> ``entry(key)`` for any key, each worked out once."""

    def __init__(self, entry: Callable):
        self.entry = entry

    def __missing__(self, key):
        value = self[key] = self.entry(key)
        return value


_FLIP = _Table(lambda code: code ^ 1)  # inverse letter, for str.translate
_SERIALIZE = _Table(lambda ch: f"x{ord(ch) // 2}^-1" if ord(ch) % 2 else f"x{ord(ch) // 2}")

# The compact spelling, one character per letter: packed code c is spelled
# _LETTERS[c - 2], so rank 3 reads ``!"#$%&`` for x1, x1^-1, .., x3^-1.  The
# characters are printable ASCII, then printable Latin-1, without space,
# ``x``, the digits, ``^`` and ``-``: no compact text holds a token, and
# none breaks at str.split or str.splitlines.  175 characters, 87 generators.
_LETTERS = "".join(c for c in map(chr, range(256))
                   if c.isprintable() and c not in " x0123456789^-")
_COMPACT_RANK = len(_LETTERS) // 2
_TO_COMPACT = "\0\0" + _LETTERS  # packed code -> character, for str.translate


def _not_compact(code: int):
    raise ValueError(f"{chr(code)!r} spells no letter of the rank")


def _parse_tables(rank: int) -> tuple[dict, dict]:
    """The tokens of ``rank`` and its compact characters, with NUL kept as
    the separator of joined texts (a missing character raises ValueError
    inside str.translate).  A letter of a higher generator misses both
    tables, so _parse_tokens's loop reports it."""
    codes = range(2, 2 * rank + 2)
    compact = _Table(_not_compact)
    compact.update((ord(_TO_COMPACT[code]), chr(code)) for code in codes)
    compact[0] = "\0"
    return {_SERIALIZE[chr(code)]: chr(code) for code in codes}, compact


_PARSE = _Table(_parse_tables)  # indexed by rank <= _COMPACT_RANK
_FLIP_BYTES = bytes(code ^ 1 for code in range(256))  # _FLIP for bytes.translate


def _cancels(packed: str) -> bool:
    """Whether two adjacent letters of ``packed``, codes below 256, cancel:
    a zero byte where the text one letter on meets the text inverted.  No
    letter cancels NUL or is cancelled by it."""
    data = packed.encode("latin-1")
    n = len(data) - 1
    if n < 1:
        return False
    inverted = data[:-1].translate(_FLIP_BYTES)
    meets = int.from_bytes(data[1:], "big") ^ int.from_bytes(inverted, "big")
    return b"\0" in meets.to_bytes(n, "big")


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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Word:
    """A freely reduced word over an :class:`Alphabet`; immutable value."""

    alphabet: Alphabet
    chars: str

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        rank = alphabet.rank
        packed = []
        for letter in letters:
            if not isinstance(letter, int) or letter == 0 or abs(letter) > rank:
                raise ValueError(f"letter {letter!r} outside alphabet of rank {rank}")
            packed.append(_char(letter))
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "chars", _reduce_chars(packed))

    @property
    def letters(self) -> tuple[int, ...]:
        return tuple(_letter(c) for c in self.chars)

    def __len__(self) -> int:
        return len(self.chars)

    def __bool__(self) -> bool:
        return bool(self.chars)

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

def cyclically_reduce(w: Word) -> Word:
    """``w`` with the letters that cancel around its ends removed."""
    s = w.chars
    lo, hi = 0, len(s)
    while hi - lo >= 2 and ord(s[lo]) ^ 1 == ord(s[hi - 1]):
        lo += 1
        hi -= 1
    return _from_chars(w.alphabet, s[lo:hi])


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


def _parse_tokens(text: str, alphabet: Alphabet) -> Word:
    """The token reader: the rank's token table in one pass, else one token
    at a time, for ranks beyond the table, spellings such as ``x01`` and
    the wording of every error."""
    tokens = text.split()
    if alphabet.rank <= _COMPACT_RANK:
        try:
            packed = "".join(map(_PARSE[alphabet.rank][0].__getitem__, tokens))
        except KeyError:
            pass
        else:
            return _from_chars(alphabet, _reduce_chars(packed) if _cancels(packed) else packed)
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


def _parse_words(texts: list[str], alphabet: Alphabet) -> list[Word]:
    """``parse_word`` of each text; the compact reader.  The texts, joined by
    NUL, which spells no letter, take one translate and one cancelling-pair
    test, and only the words that cancel are reduced.  If some text holds a
    token, a NUL or a character outside the rank, each is read on its own,
    and one that is not compact goes to ``_parse_tokens``."""
    if alphabet.rank <= _COMPACT_RANK:
        try:
            packed = "\0".join(texts).translate(_PARSE[alphabet.rank][1])
        except ValueError:  # a token spelling, or a character no letter of the rank has
            pass
        else:
            words = packed.split("\0")
            if len(words) == len(texts):  # no text held a NUL
                if _cancels(packed):
                    words = [_reduce_chars(w) if _cancels(w) else w for w in words]
                return [_from_chars(alphabet, chars) for chars in words]
        if len(texts) > 1:
            return [word for text in texts for word in _parse_words([text], alphabet)]
    return [_parse_tokens(text, alphabet) for text in texts]


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a word spelled one character per letter, as a share bundle
    carries it, or as ``"x1 x2^-1"`` tokens; reduces the result.  A text
    with a character that spells no letter of the rank, such as ``x`` or
    a space, is read as tokens."""
    return _parse_words([text], alphabet)[0]


def serialize_word(w: Word) -> str:
    return " ".join(map(_SERIALIZE.__getitem__, w.chars))


def _compact_texts(words: Sequence[Word]) -> list[str]:
    """Each word spelled one character per letter, which ``_parse_words``
    reads back.  The words share one alphabet: their packed letters, joined
    by NUL, which the spelling keeps, take one translate and are split."""
    if words and words[0].alphabet.rank > _COMPACT_RANK:
        raise ValueError(f"the compact spelling has letters for rank {_COMPACT_RANK} at most, "
                         f"got {words[0].alphabet.rank}")
    return "\0".join([w.chars for w in words]).translate(_TO_COMPACT).split("\0") if words else []
