"""Small cancellation platform groups and the word problem.

A participant's long-term secret is a finite presentation whose word
problem Dehn's algorithm solves.  This module covers the whole platform
lifecycle: symmetrizing relator sets, measuring pieces, verifying the
metric condition C'(lambda), sampling random presentations that satisfy
C'(1/6), deciding triviality by Dehn reduction, and constructing words
that are (or provably are not) equal to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from random import Random
from typing import Iterable

from .errors import BudgetExhausted
from .freegroup import (
    Alphabet,
    Word,
    _below,
    _from_chars,
    _invert_chars,
    _merge_chars,
    _random_chars,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)

__all__ = [
    "Presentation",
    "CancellationReport",
    "DehnStep",
    "DehnTrace",
    "check_small_cancellation",
    "random_platform_group",
    "dehn_is_trivial",
    "make_trivial_word",
    "make_nontrivial_word",
    "parse_presentation",
    "serialize_presentation",
]

ONE_SIXTH = Fraction(1, 6)

# Rejection-sampling budget of platform groups and of share words.
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class Presentation:
    """Group presentation: alphabet plus cyclically reduced relators."""

    alphabet: Alphabet
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", tuple(self.relators))
        for r in self.relators:
            if r.alphabet != self.alphabet:
                raise ValueError("relator over a different alphabet")
            if not r:
                raise ValueError("relator must be nonempty")
            if not r.is_cyclically_reduced():
                raise ValueError(f"relator {r!r} is not cyclically reduced")

    # Dehn decoding looks the presentation up in a cache once per word, so
    # the hash is worked out once, on first use, and kept.  Equality still
    # compares the fields.
    @cached_property
    def _hash(self) -> int:
        return hash((self.alphabet, self.relators))

    def __hash__(self) -> int:
        return self._hash

    # Each relator and its inverse, packed, for word construction.
    @cached_property
    def _signed_chars(self) -> tuple[tuple[str, str], ...]:
        return tuple((r.chars, _invert_chars(r.chars)) for r in self.relators)


@dataclass(frozen=True)
class CancellationReport:
    lambda_bound: Fraction
    max_piece_ratio: Fraction
    witness: tuple[Word, Word] | None  # (piece, relator) achieving the max
    satisfied: bool


@dataclass(frozen=True)
class DehnStep:
    position: int
    replaced: Word
    replacement: Word
    relator: Word


@dataclass(frozen=True)
class DehnTrace:
    steps: tuple[DehnStep, ...]
    final_word: Word
    is_trivial: bool


# ---------------------------------------------------------------------------
# symmetrization and the metric condition

def _closure(relators: Iterable[Word]) -> list[str]:
    """Packed members of the symmetrized closure R*: every relator (nonempty
    and cyclically reduced) with its inverse and all their cyclic
    permutations, deduplicated in the canonical (length, internal-lex)
    order."""
    members: set[str] = set()
    for r in relators:
        for base in (r.chars, _invert_chars(r.chars)):
            members.update(base[i:] + base[:i] for i in range(len(base)))
    return sorted(members, key=lambda m: (len(m), m))


def _lcp(a: str, b: str) -> int:
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    return i


def check_small_cancellation(p: Presentation, lam: Fraction | str | int) -> CancellationReport:
    """Verify the condition C'(lam): every piece of a relator r from the
    symmetrized closure is shorter than lam * |r|."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    # The longest common prefix of a member with any other is reached at a
    # neighbour in lexicographic order, so one sorted pass finds every piece.
    ordered = sorted(_closure(p.relators))
    best_piece, best_length = 0, 1  # the largest ratio so far, compared in integers
    witness: tuple[Word, Word] | None = None
    for a, b in zip(ordered, ordered[1:]):
        l = _lcp(a, b)
        if not l:
            continue
        for member in (a, b):
            if l * best_length > best_piece * len(member):
                best_piece, best_length = l, len(member)
                witness = (_from_chars(p.alphabet, member[:l]), _from_chars(p.alphabet, member))
    best = Fraction(best_piece, best_length)
    return CancellationReport(lam, best, witness, best < lam)


def random_platform_group(
    rank: int,
    r_count: int,
    r_length: int,
    lam: Fraction | str | int,
    rng: Random,
) -> Presentation:
    """Rejection-sample a presentation satisfying C'(lam).

    Each attempt draws ``r_count`` cyclically reduced random words of
    length ``r_length`` whose symmetrized orbits are pairwise disjoint
    (presentations with equivalent relators are rejected as degenerate),
    then checks the cancellation condition.
    """
    lam = Fraction(lam)
    if r_length <= 6:
        raise ValueError("relator length must exceed 6")
    if r_count < 1:
        raise ValueError("r_count must be positive")
    alphabet = Alphabet(rank)
    for _ in range(_MAX_ATTEMPTS):
        words = []
        for _ in range(r_count):
            w = random_reduced_word(r_length, alphabet, rng)
            while not w.is_cyclically_reduced():
                w = random_reduced_word(r_length, alphabet, rng)
            words.append(w)
        signatures = {_closure((w,))[0] for w in words}
        if len(signatures) < r_count:
            continue
        candidate = Presentation(alphabet, tuple(words))
        if check_small_cancellation(candidate, lam).satisfied:
            return candidate
    raise BudgetExhausted(
        f"no C'({lam}) presentation found in {_MAX_ATTEMPTS} attempts "
        f"(rank={rank}, relators={r_count}, length={r_length})"
    )


# ---------------------------------------------------------------------------
# Dehn's algorithm

class _DehnIndex:
    """Per-presentation search structure for over-half relator prefixes.

    For every symmetrized member r the minimal replaceable prefix length is
    t = |r| // 2 + 1 (the least length strictly greater than |r| / 2).
    ``tables[t]`` maps each length-t prefix to the members it opens, so a
    position starts a candidate exactly when one of its windows of a
    length in ``thresholds`` is a key of the matching table.
    """

    __slots__ = ("tables", "thresholds")

    def __init__(self, p: Presentation):
        tables: dict[int, dict[str, list[str]]] = {}
        for member in _closure(p.relators):
            t = len(member) // 2 + 1
            tables.setdefault(t, {}).setdefault(member[:t], []).append(member)
        self.tables = {
            t: {k: tuple(v) for k, v in tables[t].items()} for t in sorted(tables)
        }
        self.thresholds = tuple(self.tables)

    def leftmost(self, chars: str, start: int) -> int:
        """Least position >= ``start`` that opens a candidate, or -1."""
        found = -1
        for t, table in self.tables.items():
            stop = len(chars) - t + 1
            if 0 <= found < stop:
                stop = found
            # A hit is usually a few windows away, so a plain loop beats
            # setting up a C-level iterator chain on every call.
            for i in range(start, stop):
                if chars[i : i + t] in table:
                    found = i
                    break
        return found


@lru_cache(maxsize=128)
def _dehn_index(p: Presentation) -> _DehnIndex:
    return _DehnIndex(p)


def _dehn_scan(index: _DehnIndex, chars: str, steps: list | None = None) -> str:
    """Dehn-reduce the packed word ``chars`` and return what is left.

    With ``steps``, append one ``(position, matched length, member)`` tuple
    per replacement: the member's first ``matched length`` letters at
    ``position`` gave way to the inverse of the rest of it.
    """
    thresholds, tables = index.thresholds, index.tables
    widest = thresholds[-1] if thresholds else 0
    start = 0
    while True:
        pos = index.leftmost(chars, start)
        if pos < 0:
            return chars
        best_len = 0
        best_member = ""
        for t in thresholds:
            if pos + t > len(chars):
                continue
            bucket = tables[t].get(chars[pos : pos + t])
            if not bucket:
                continue
            for member in bucket:
                if chars.startswith(member, pos):
                    length = len(member)
                else:
                    length = t
                    cap = min(len(member), len(chars) - pos)
                    while length < cap and chars[pos + length] == member[length]:
                        length += 1
                if length > best_len:
                    best_len, best_member = length, member
        if steps is not None:
            steps.append((pos, best_len, best_member))
        replacement = _invert_chars(best_member[best_len:])
        rest = chars[pos + best_len :]
        head = _merge_chars(chars[:pos], replacement)
        shorter = _merge_chars(head, rest)
        assert len(shorter) < len(chars)
        # Free reduction cancels letters in pairs across each seam, so the
        # first ``kept`` letters are untouched.  No candidate opened before
        # ``pos``, so none opens where the widest window ends among them.
        kept = min(pos - (pos + len(replacement) - len(head)) // 2,
                   len(head) - (len(head) + len(rest) - len(shorter)) // 2)
        start = max(0, kept - widest + 1)
        chars = shorter


def _check_alphabet(p: Presentation, w: Word) -> None:
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation use different alphabets")


def _dehn_verdict(p: Presentation, w: Word) -> bool:
    """``dehn_is_trivial(p, w).is_trivial``, with no trace built."""
    _check_alphabet(p, w)
    return not _dehn_scan(_dehn_index(p), w.chars)


def dehn_is_trivial(p: Presentation, w: Word) -> DehnTrace:
    """Decide whether ``w`` equals the identity by Dehn reduction.

    Repeatedly scan the freely reduced current word for a subword u such
    that some symmetrized relator factors as u * v with |u| > |r| / 2; if
    one exists, replace u by v^-1 (strictly shorter) and re-reduce.  The
    word is trivial exactly when it shrinks to the empty word.  Scanning is
    deterministic: leftmost starting position first, then the longest match
    there.  Completeness of the verdict relies on the presentation being
    C'(1/6), which callers check.
    """
    _check_alphabet(p, w)
    found: list[tuple[int, int, str]] = []
    chars = _dehn_scan(_dehn_index(p), w.chars, found)
    alphabet = p.alphabet
    steps = tuple(
        DehnStep(
            position=pos,
            replaced=_from_chars(alphabet, member[:length]),
            replacement=_from_chars(alphabet, _invert_chars(member[length:])),
            relator=_from_chars(alphabet, member),
        )
        for pos, length, member in found
    )
    return DehnTrace(steps, _from_chars(alphabet, chars), not chars)


# ---------------------------------------------------------------------------
# constructing words equal / not equal to 1

def _conjugated_product(
    p: Presentation, factor_count: int, conj_length: int, rng: Random, perturb: bool,
) -> tuple[str, list[tuple[int, int, str]]]:
    """The one word construction behind both bit values: a random nonempty
    product ``prod h^-1 r^sign h`` of conjugated relators, packed, with its
    factors (relator index, sign, packed conjugator).

    With ``perturb``, one uniformly chosen factor's relator r = u a v has a
    uniformly chosen letter a replaced by a letter b != a that cancels
    neither cyclic neighbour.  Then r' = u b v = u (b a^-1) u^-1 r, so the
    product is conjugate to the reduced two-letter word b a^-1, which is not
    1 in a C'(1/6) group whose relators exceed 4 letters (Greendlinger).
    """
    if factor_count < 1:
        raise ValueError("factor_count must be at least 1")
    if conj_length < 0:
        raise ValueError("conj_length must be nonnegative")
    if not p.relators:
        raise ValueError("presentation has no relators")
    rank = p.alphabet.rank
    if perturb and rank < 2:
        raise ValueError("no substitute letter exists over a rank-1 alphabet")
    signed = p._signed_chars
    relator_count = len(signed)
    k = relator_count.bit_length()
    getrandbits = rng.getrandbits
    for _ in range(_MAX_ATTEMPTS):
        altered = _below(getrandbits, factor_count) if perturb else -1
        acc = ""
        certificate = []
        for i in range(factor_count):
            # ``_below`` inlined for the relator index and the sign, whose
            # bounds hold for the whole call: the same draws in the same order.
            idx = getrandbits(k)
            while idx >= relator_count:
                idx = getrandbits(k)
            inverted = getrandbits(2)
            while inverted >= 2:
                inverted = getrandbits(2)
            h = _random_chars(conj_length, rank, getrandbits)
            r = signed[idx][inverted]
            if i == altered:
                pos = _below(getrandbits, len(r))
                banned = (ord(r[pos]), ord(r[pos - 1]) ^ 1, ord(r[(pos + 1) % len(r)]) ^ 1)
                subs = [code for code in range(2, 2 * rank + 2) if code not in banned]
                r = r[:pos] + chr(subs[_below(getrandbits, len(subs))]) + r[pos + 1 :]
            h_inv = _invert_chars(h)
            if 2 * len(h) < len(r):
                # r (even the altered one) is cyclically reduced, so h cancels
                # into at most one end of it, and never through it.
                cut = 0
                while cut < len(h) and h[cut] == r[cut]:
                    cut += 1
                if cut:
                    conjugate = h_inv[:-cut] + r[cut:] + h
                else:
                    while cut < len(h) and ord(h[cut]) ^ 1 == ord(r[-1 - cut]):
                        cut += 1
                    conjugate = h_inv + r[: len(r) - cut] + h[cut:]
            else:
                conjugate = _merge_chars(_merge_chars(h_inv, r), h)
            acc = _merge_chars(acc, conjugate)
            certificate.append((idx, -1 if inverted else 1, h))
        if acc:
            return acc, certificate
    raise BudgetExhausted(
        f"conjugate products collapsed to the identity {_MAX_ATTEMPTS} times in a row"
    )


def make_trivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """Random nonempty product of conjugated relators; trivial by construction."""
    chars = _conjugated_product(p, factor_count, conj_length, rng, False)[0]
    return _from_chars(p.alphabet, chars)


def make_nontrivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """The :func:`make_trivial_word` product with one letter of one relator
    factor changed: never 1 on a C'(1/6) presentation; ValueError at rank 1."""
    chars = _conjugated_product(p, factor_count, conj_length, rng, True)[0]
    return _from_chars(p.alphabet, chars)


# ---------------------------------------------------------------------------
# text format (the secure-channel payload)

def serialize_presentation(p: Presentation) -> str:
    lines = [f"generators {p.alphabet.rank}"]
    lines.extend(f"relator {serialize_word(r)}" for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse the ``generators m`` / ``relator <word>`` format.

    Blank lines and lines starting with ``#`` are ignored.  Relators are
    cyclically reduced on input; a relator reducing to the empty word is an
    error.
    """
    alphabet: Alphabet | None = None
    relators: list[Word] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(" ")
        if keyword == "generators":
            if alphabet is not None:
                raise ValueError("duplicate generators line")
            try:
                alphabet = Alphabet(int(rest.strip()))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad generators line {line!r}") from exc
        elif keyword == "relator":
            if alphabet is None:
                raise ValueError("relator line before generators line")
            word = cyclically_reduce(parse_word(rest, alphabet))
            if not word:
                raise ValueError("empty relator")
            relators.append(word)
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if alphabet is None:
        raise ValueError("missing generators line")
    return Presentation(alphabet, tuple(relators))
