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
from itertools import compress, count
from random import Random
from typing import Iterable

from .errors import BudgetExhausted
from .freegroup import (
    Alphabet,
    Word,
    _from_chars,
    _invert_chars,
    _merge_chars,
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
    "symmetrize",
    "check_small_cancellation",
    "random_platform_group",
    "dehn_is_trivial",
    "make_trivial_word",
    "make_trivial_word_certified",
    "make_nontrivial_word",
    "parse_presentation",
    "serialize_presentation",
]

ONE_SIXTH = Fraction(1, 6)


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
    # the hash is worked out once, on first use: the presentations that
    # Tietze moves build one per move are never hashed.  Equality still
    # compares the fields.
    @cached_property
    def _hash(self) -> int:
        return hash((self.alphabet, self.relators))

    def __hash__(self) -> int:
        return self._hash


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

def _closure(relators: Iterable[Word], alphabet: Alphabet) -> list[str]:
    """Packed members of the symmetrized closure R*: every relator,
    cyclically reduced, with its inverse and all their cyclic permutations,
    deduplicated in the canonical (length, internal-lex) order."""
    members: set[str] = set()
    for r in relators:
        if r.alphabet != alphabet:
            raise ValueError("relator over a different alphabet")
        core = cyclically_reduce(r).chars
        if not core:
            raise ValueError("empty relator")
        for base in (core, _invert_chars(core)):
            members.update(base[i:] + base[:i] for i in range(len(base)))
    return sorted(members, key=lambda m: (len(m), m))


def symmetrize(relators: Iterable[Word], alphabet: Alphabet | None = None) -> tuple[Word, ...]:
    """Close a relator set under inversion and cyclic permutation.

    Inputs are cyclically reduced first; members come back deduplicated in
    a canonical (length, internal-lex) order.
    """
    relators = tuple(relators)
    if alphabet is None:
        if not relators:
            raise ValueError("cannot infer alphabet from an empty relator list")
        alphabet = relators[0].alphabet
    return tuple(_from_chars(alphabet, m) for m in _closure(relators, alphabet))


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
    ordered = sorted(_closure(p.relators, p.alphabet))
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
    lam: Fraction | str | int = ONE_SIXTH,
    rng: Random | None = None,
    max_attempts: int = 1000,
) -> Presentation:
    """Rejection-sample a presentation satisfying C'(lam).

    Each attempt draws ``r_count`` cyclically reduced random words of
    length ``r_length`` whose symmetrized orbits are pairwise disjoint
    (presentations with equivalent relators are rejected as degenerate),
    then checks the cancellation condition.
    """
    lam = Fraction(lam)
    if rng is None:
        raise ValueError("an explicit rng is required")
    if r_length <= 6:
        raise ValueError("relator length must exceed 6")
    if r_count < 1 or max_attempts < 1:
        raise ValueError("r_count and max_attempts must be positive")
    alphabet = Alphabet(rank)
    for _ in range(max_attempts):
        words = []
        for _ in range(r_count):
            w = random_reduced_word(r_length, alphabet, rng)
            while not w.is_cyclically_reduced():
                w = random_reduced_word(r_length, alphabet, rng)
            words.append(w)
        signatures = {_closure((w,), alphabet)[0] for w in words}
        if len(signatures) < r_count:
            continue
        candidate = Presentation(alphabet, tuple(words))
        if check_small_cancellation(candidate, lam).satisfied:
            return candidate
    raise BudgetExhausted(
        f"no C'({lam}) presentation found in {max_attempts} attempts "
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
        for member in _closure(p.relators, p.alphabet):
            t = len(member) // 2 + 1
            tables.setdefault(t, {}).setdefault(member[:t], []).append(member)
        self.tables = {
            t: {k: tuple(v) for k, v in table.items()} for t, table in tables.items()
        }
        self.thresholds = tuple(sorted(self.tables))

    def leftmost(self, chars: str, start: int) -> int:
        """Least position >= ``start`` that opens a candidate, or -1."""
        found = -1
        for t in self.thresholds:
            stop = len(chars) - t + 1
            if found >= 0:
                stop = min(stop, found)
            if stop <= start:
                continue
            # chars[i : i + t] for i in range(start, stop), looked up at C speed
            windows = map(chars.__getitem__,
                          map(slice, range(start, stop), range(start + t, stop + t)))
            hit = next(compress(count(start), map(self.tables[t].__contains__, windows)), -1)
            if hit >= 0:
                found = hit
        return found


@lru_cache(maxsize=128)
def _dehn_index(p: Presentation) -> _DehnIndex:
    return _DehnIndex(p)


def dehn_is_trivial(p: Presentation, w: Word, verify_condition: bool = False) -> DehnTrace:
    """Decide whether ``w`` equals the identity by Dehn reduction.

    Repeatedly scan the freely reduced current word for a subword u such
    that some symmetrized relator factors as u * v with |u| > |r| / 2; if
    one exists, replace u by v^-1 (strictly shorter) and re-reduce.  The
    word is trivial exactly when it shrinks to the empty word.  Scanning is
    deterministic: leftmost starting position first, then the longest match
    there.  Completeness of the verdict relies on the presentation being
    C'(1/6), which callers assert (pass ``verify_condition=True`` to check).
    """
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation use different alphabets")
    if verify_condition and not check_small_cancellation(p, ONE_SIXTH).satisfied:
        raise ValueError("presentation does not satisfy C'(1/6)")
    index = _dehn_index(p)
    chars = w.chars
    steps: list[DehnStep] = []
    widest = index.thresholds[-1] if index.thresholds else 0
    start = 0
    while True:
        pos = index.leftmost(chars, start)
        if pos < 0:
            break
        best_len = 0
        best_member = ""
        for t in index.thresholds:
            if pos + t > len(chars):
                continue
            bucket = index.tables[t].get(chars[pos : pos + t])
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
        replacement = _invert_chars(best_member[best_len:])
        steps.append(
            DehnStep(
                position=pos,
                replaced=_from_chars(p.alphabet, chars[pos : pos + best_len]),
                replacement=_from_chars(p.alphabet, replacement),
                relator=_from_chars(p.alphabet, best_member),
            )
        )
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
    return DehnTrace(tuple(steps), _from_chars(p.alphabet, chars), not chars)


# ---------------------------------------------------------------------------
# constructing words equal / not equal to 1

def _conjugated_product(
    p: Presentation, factor_count: int, conj_length: int, rng: Random, max_attempts: int,
    perturb: bool,
) -> tuple[Word, tuple[tuple[int, int, Word], ...]]:
    """The one word construction behind both bit values: a random nonempty
    product ``prod h^-1 r^sign h`` of conjugated relators, with its factors.

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
    if perturb and p.alphabet.rank < 2:
        raise ValueError("no substitute letter exists over a rank-1 alphabet")
    codes = [chr(code) for code in range(2, 2 * p.alphabet.rank + 2)]
    for _ in range(max_attempts):
        altered = rng.randrange(factor_count) if perturb else -1
        acc = ""
        certificate = []
        for i in range(factor_count):
            idx = rng.randrange(len(p.relators))
            sign = 1 if rng.randrange(2) == 0 else -1
            h = random_reduced_word(conj_length, p.alphabet, rng)
            r = p.relators[idx].chars
            if sign < 0:
                r = _invert_chars(r)
            if i == altered:
                pos = rng.randrange(len(r))
                banned = (r[pos], chr(ord(r[pos - 1]) ^ 1), chr(ord(r[(pos + 1) % len(r)]) ^ 1))
                subs = [c for c in codes if c not in banned]
                r = r[:pos] + subs[rng.randrange(len(subs))] + r[pos + 1 :]
            factor = _merge_chars(_merge_chars(_invert_chars(h.chars), r), h.chars)
            acc = _merge_chars(acc, factor)
            certificate.append((idx, sign, h))
        if acc:
            return _from_chars(p.alphabet, acc), tuple(certificate)
    raise BudgetExhausted(
        f"conjugate products collapsed to the identity {max_attempts} times in a row"
    )


def make_trivial_word_certified(
    p: Presentation,
    factor_count: int,
    conj_length: int,
    rng: Random,
    max_attempts: int = 1000,
) -> tuple[Word, tuple[tuple[int, int, Word], ...]]:
    """Like :func:`make_trivial_word` but also return the certificate:
    a tuple of (relator index, sign, conjugator) factors whose product
    ``prod h^-1 r^sign h`` reduces to the returned word."""
    return _conjugated_product(p, factor_count, conj_length, rng, max_attempts, False)


def make_trivial_word(
    p: Presentation,
    factor_count: int,
    conj_length: int,
    rng: Random,
    max_attempts: int = 1000,
) -> Word:
    """Random nonempty product of conjugated relators; trivial by construction."""
    return _conjugated_product(p, factor_count, conj_length, rng, max_attempts, False)[0]


def make_nontrivial_word(
    p: Presentation,
    factor_count: int,
    conj_length: int,
    rng: Random,
    max_attempts: int = 1000,
) -> Word:
    """The :func:`make_trivial_word` product with one letter of one relator
    factor changed: never 1 on a C'(1/6) presentation; ValueError at rank 1."""
    return _conjugated_product(p, factor_count, conj_length, rng, max_attempts, True)[0]


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
