"""The two dealer/participant schemes.

All-or-nothing sharing of a bit column: the dealer XOR-splits the secret
column into one share column per participant and publishes, for each
participant, a column of group words over that participant's private
platform group; a word equal to 1 encodes bit 1, a word not equal to 1
encodes bit 0.  The holder of the matching presentation reads the bits by
Dehn's algorithm; README measures how many of them a passive attack on the
open columns reads as well.  XOR of all decoded columns recovers the secret.

Threshold variant: the secret is a residue mod p, split with a random
polynomial; each participant's polynomial value is binary-encoded into a
word column the same way, and any t decoded values interpolate back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from random import Random
from typing import Sequence

from .freegroup import Word, _below
from .shamir import PrimeModulus, SharePoint, poly_eval, random_polynomial
from .smallcancel import Presentation, _dehn_index, _dehn_scan
from .smallcancel import make_nontrivial_word, make_trivial_word

__all__ = [
    "BitColumn",
    "WordColumn",
    "SessionConfig",
    "split_secret",
    "encode_column",
    "decode_column",
    "recover_secret_nn",
    "int_to_column",
    "column_to_int",
    "deal_nn",
    "deal_tn",
    "recover_share",
]

# A bit column is a fixed-width tuple of 0/1 ints.
BitColumn = tuple[int, ...]


@dataclass(frozen=True)
class WordColumn:
    """Column of k words; ``group_hint`` names the participant whose
    presentation decodes it (1-based)."""

    words: tuple[Word, ...]
    group_hint: int


# Every share word multiplies 2-3 conjugated relators, with conjugators of
# 3-7 letters: enough entropy that dealing many secrets through one group
# never repeats a word in practice.
_FACTORS = range(2, 4)
_CONJ_LENGTH = range(3, 8)

_UNDECIDED = ("participant {}'s presentation does not satisfy C'(1/6), "
              "on which alone Dehn's algorithm decides the word problem")


@dataclass(frozen=True)
class SessionConfig:
    """Public parameters of a threshold session (made public by design;
    only the presentations and the dealt polynomial stay private)."""

    n: int
    t: int
    k: int
    p: PrimeModulus

    def __post_init__(self) -> None:
        if not 1 <= self.t <= self.n:
            raise ValueError("need 1 <= t <= n")
        if self.n >= self.p.p:
            raise ValueError("need n < p so share indices stay distinct")
        if self.k < self.p.p.bit_length():
            raise ValueError("column width cannot represent residues mod p")


def _check_bits(c: Sequence[int]) -> BitColumn:
    col = tuple(c)
    if any(b not in (0, 1) for b in col):
        raise ValueError("bit column entries must be 0 or 1")
    return col


def _check_columns(columns: Sequence[Sequence[int]]) -> list[BitColumn]:
    cols = [_check_bits(c) for c in columns]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("column width mismatch")
    return cols


def _xor(a: BitColumn, b: BitColumn) -> BitColumn:
    return tuple(x ^ y for x, y in zip(a, b))


def split_secret(c: Sequence[int], n: int, rng: Random) -> list[BitColumn]:
    """XOR-split ``c`` into n columns: n - 1 uniform, the last a correction."""
    col = _check_bits(c)
    if n < 2:
        raise ValueError("need at least 2 participants to split")
    shares = [tuple(rng.getrandbits(1) for _ in col) for _ in range(n - 1)]
    shares.append(reduce(_xor, shares, col))
    return shares


def encode_column(
    share: Sequence[int],
    g: Presentation,
    rng: Random,
    group_hint: int,
) -> WordColumn:
    """Encode share bits as words over ``g`` for participant ``group_hint``:
    bit 1 becomes a word equal to 1 in the group, bit 0 a word not equal to 1.

    Both bit values come from one construction with the same draws: a
    product of conjugated relators, with one letter of one relator factor
    changed for a 0 bit, so lengths and their parity match across bits.
    Refuse a presentation that fails C'(1/6), whose words no holder could read.
    """
    col = _check_bits(share)
    piece, length, _ = g._piece_scan
    if 6 * piece >= length:
        raise ValueError(_UNDECIDED.format(group_hint))
    getrandbits = rng.getrandbits
    words = []
    for bit in col:
        factors = _FACTORS[_below(getrandbits, len(_FACTORS))]
        conj = _CONJ_LENGTH[_below(getrandbits, len(_CONJ_LENGTH))]
        build = make_trivial_word if bit else make_nontrivial_word
        words.append(build(g, factors, conj, rng))
    return WordColumn(tuple(words), group_hint=group_hint)


def decode_column(wc: WordColumn, g: Presentation) -> BitColumn:
    """Read the bits back: 1 where a word is 1 in ``g``.  A word that the
    Dehn index's homomorphism onto Z/q does not send to 0 is not 1, since
    every word equal to 1 is a product of conjugated relators, which it
    sends to 0; it reads 0 with no Dehn reduction.  Every other word takes
    one Dehn reduction, no trace built.  Refuse a presentation that fails
    C'(1/6), where a 1 bit Dehn cannot reduce would read 0."""
    index = _dehn_index(g)
    if not index.decides:
        raise ValueError(_UNDECIDED.format(wc.group_hint))
    alphabet, weights, q = g.alphabet, index.weights, index.q
    bits = []
    for w in wc.words:
        if w.alphabet is not alphabet and w.alphabet != alphabet:
            raise ValueError("word and presentation use different alphabets")
        chars = w.chars
        if q > 1 and sum(chars.encode("latin-1").translate(weights)) % q:
            bits.append(0)
        else:
            bits.append(int(not _dehn_scan(index, chars)))
    return tuple(bits)


def recover_secret_nn(columns: Sequence[Sequence[int]]) -> BitColumn:
    """Entrywise XOR of all n share columns."""
    if len(columns) < 2:
        raise ValueError("the all-participants scheme needs at least 2 columns")
    return reduce(_xor, _check_columns(columns))


def int_to_column(y: int, k: int) -> BitColumn:
    """Big-endian fixed-width binary representation."""
    if not 0 <= y < (1 << k):
        raise ValueError(f"{y} does not fit in {k} bits")
    return tuple((y >> (k - 1 - i)) & 1 for i in range(k))


def column_to_int(c: Sequence[int]) -> int:
    col = _check_bits(c)
    out = 0
    for bit in col:
        out = (out << 1) | bit
    return out


def deal_nn(secret: Sequence[int], groups: Sequence[Presentation], rng: Random) -> list[WordColumn]:
    """All-participants dealing: split the secret column and encode each
    share over the matching participant's group."""
    shares = split_secret(secret, len(groups), rng)
    return [
        encode_column(share, g, rng, group_hint=j)
        for j, (share, g) in enumerate(zip(shares, groups), start=1)
    ]


def deal_tn(
    secret: int,
    cfg: SessionConfig,
    groups: Sequence[Presentation],
    rng: Random,
) -> list[WordColumn]:
    """Threshold dealing: sample f of degree t - 1 with f(0) = secret and
    publish, for each participant j, the word-column encoding of f(j)."""
    if len(groups) != cfg.n:
        raise ValueError("one platform group per participant is required")
    p = cfg.p.p
    f = random_polynomial(secret, cfg.t, p, rng)
    return [encode_column(int_to_column(poly_eval(f, j, p), cfg.k), g, rng, group_hint=j)
            for j, g in enumerate(groups, start=1)]


def recover_share(wc: WordColumn, g: Presentation, p: int) -> SharePoint:
    """Decode a word column into the participant's polynomial point."""
    value = column_to_int(decode_column(wc, g))
    if value >= p:
        raise ValueError(
            f"decoded value {value} is not a residue mod {p}: corrupted column "
            "or wrong participant group"
        )
    return SharePoint(wc.group_hint, value)
