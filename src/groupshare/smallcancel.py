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
    "BudgetExhausted",
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


class BudgetExhausted(RuntimeError):
    """A rejection-sampling or retry budget ran out before success."""


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

    # Each relator and its inverse, packed, for word construction and R*.
    @cached_property
    def _signed_chars(self) -> tuple[tuple[str, str], ...]:
        return tuple((r.chars, _invert_chars(r.chars)) for r in self.relators)

    # The piece scan, kept without R*: the sampler's check pays for the
    # encoder's and ``gen-group``'s, and ``_dehn_index`` scans its own R*.
    @cached_property
    def _piece_scan(self) -> tuple[int, int, str]:
        return _largest_piece(self.closure)

    @property
    def closure(self) -> tuple[str, ...]:
        """Packed members of R*, sorted; built on each read, as ``_dehn_index`` keeps R*."""
        return tuple(sorted({base[i:] + base[:i] for signed in self._signed_chars
                             for base in signed for i in range(len(base))}))


def _largest_piece(members: tuple[str, ...]) -> tuple[int, int, str]:
    """The largest ratio |u| / |r| of a piece u opening r in sorted R*, as (|u|, |r|, r)."""
    # The longest common prefix of a member with any other is reached at
    # a neighbour in lexicographic order, so one pass finds every piece.
    best_piece, best_length, found = 0, 1, ""  # the largest ratio so far, in integers
    for a, b in zip(members, members[1:]):
        shorter = min(len(a), len(b))
        # the shortest common prefix whose ratio could beat the best
        need = best_piece * shorter // best_length + 1
        if need > shorter or not b.startswith(a[:need]):
            continue
        l = need
        while l < shorter and a[l] == b[l]:
            l += 1
        for member in (a, b):
            if l * best_length > best_piece * len(member):
                best_piece, best_length, found = l, len(member), member
    return best_piece, best_length, found


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
    """One Dehn reduction; ``is_trivial`` is None where it stops short of 1
    on a presentation that fails C'(1/6), on which Dehn does not decide."""

    steps: tuple[DehnStep, ...]
    final_word: Word
    is_trivial: bool | None


# ---------------------------------------------------------------------------
# symmetrization and the metric condition

def check_small_cancellation(p: Presentation, lam: Fraction | str | int) -> CancellationReport:
    """Verify the condition C'(lam): every piece of a relator r from the
    symmetrized closure is shorter than lam * |r|."""
    lam = Fraction(lam)
    if not 0 < lam < 1:
        raise ValueError("lambda must lie strictly between 0 and 1")
    piece, length, member = p._piece_scan
    witness = (_from_chars(p.alphabet, member[:piece]),
               _from_chars(p.alphabet, member)) if member else None
    best = Fraction(piece, length)
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
        candidate = Presentation(alphabet, tuple(words))
        # relators of one length share an orbit in R* iff a + a holds b or b^-1
        signed = candidate._signed_chars
        if any(b in a + a or b_inv in a + a
               for i, (a, _) in enumerate(signed) for b, b_inv in signed[:i]):
            continue
        if check_small_cancellation(candidate, lam).satisfied:
            return candidate
    raise BudgetExhausted(
        f"no C'({lam}) presentation found in {_MAX_ATTEMPTS} attempts "
        f"(rank={rank}, relators={r_count}, length={r_length})"
    )


# ---------------------------------------------------------------------------
# Dehn's algorithm

class _DehnIndex:
    """R* of one presentation, indexed by over-half relator prefixes.

    For every symmetrized member r the minimal replaceable prefix length is
    t = |r| // 2 + 1 (the least length strictly greater than |r| / 2).
    ``tables[t]`` maps each length-t prefix to the members it opens, so a
    position starts a candidate exactly when one of its windows of a
    length in ``thresholds`` is a key of the matching table.  ``decides``:
    the presentation is C'(1/6), so Dehn's algorithm decides its word problem.
    """

    __slots__ = ("decides", "tables", "thresholds")

    def __init__(self, p: Presentation):
        members = p.closure
        piece, length, _ = _largest_piece(members)
        self.decides = 6 * piece < length
        tables: dict[int, dict[str, list[str]]] = {}
        # Stable by length over plain order: thresholds ascend, and each bucket
        # is in the (length, chars) order that settles ties in ``_dehn_scan``.
        for member in sorted(members, key=len):
            t = len(member) // 2 + 1
            tables.setdefault(t, {}).setdefault(member[:t], []).append(member)
        self.tables = {t: {k: tuple(v) for k, v in table.items()} for t, table in tables.items()}
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


# Keyed by value, so an equal presentation parsed afresh finds R* built and scanned.
# A CLI process decodes each once; in-process callers hold at most 8 groups at a time.
@lru_cache(maxsize=8)
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


def dehn_is_trivial(p: Presentation, w: Word) -> DehnTrace:
    """Decide whether ``w`` equals the identity by Dehn reduction.

    Repeatedly scan the freely reduced current word for a subword u such
    that some symmetrized relator factors as u * v with |u| > |r| / 2; if
    one exists, replace u by v^-1 (strictly shorter) and re-reduce.  Scanning
    is deterministic: leftmost starting position first, then the longest
    match there.  Reaching the empty word proves ``w`` trivial anywhere;
    stopping short of it proves ``w`` nontrivial on a C'(1/6) presentation
    and decides nothing on any other, where ``is_trivial`` is None.
    """
    if w.alphabet != p.alphabet:
        raise ValueError("word and presentation use different alphabets")
    found: list[tuple[int, int, str]] = []
    index = _dehn_index(p)
    chars = _dehn_scan(index, w.chars, found)
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
    verdict = True if not chars else (False if index.decides else None)
    return DehnTrace(steps, _from_chars(alphabet, chars), verdict)


# ---------------------------------------------------------------------------
# constructing words equal / not equal to 1

def _conjugated_product(
    p: Presentation, factor_count: int, conj_length: int, rng: Random, perturb: bool,
) -> str:
    """The one word construction behind both bit values: a random nonempty
    product ``prod h^-1 r^sign h`` of conjugated relators, packed.

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
            acc = _merge_chars(acc, _merge_chars(_merge_chars(_invert_chars(h), r), h))
        if acc:
            return acc
    raise BudgetExhausted(
        f"conjugate products collapsed to the identity {_MAX_ATTEMPTS} times in a row"
    )


def make_trivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """Random nonempty product of conjugated relators; trivial by construction."""
    return _from_chars(p.alphabet, _conjugated_product(p, factor_count, conj_length, rng, False))


def make_nontrivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """The :func:`make_trivial_word` product with one letter of one relator
    factor changed: never 1 on a C'(1/6) presentation; ValueError at rank 1."""
    return _from_chars(p.alphabet, _conjugated_product(p, factor_count, conj_length, rng, True))


# ---------------------------------------------------------------------------
# text format (the secure-channel payload)

def serialize_presentation(p: Presentation) -> str:
    lines = [f"generators {p.alphabet.rank}"]
    lines.extend(f"relator {serialize_word(r)}" for r in p.relators)
    return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse the ``generators m`` / ``relator <word>`` format.

    Blank lines and lines starting with ``#`` are ignored, and so are
    ``define`` lines after the generators line: ``tietze-break`` writes them
    as annotations of the defining relators, which carry the same content.
    Relators are cyclically reduced on input; a relator reducing to the
    empty word is an error.
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
                raise ValueError(f"bad generators line {line!r}: {exc}") from exc
        elif keyword == "relator":
            if alphabet is None:
                raise ValueError("relator line before generators line")
            word = cyclically_reduce(parse_word(rest, alphabet))
            if not word:
                raise ValueError("empty relator")
            relators.append(word)
        elif keyword == "define" and alphabet is not None:
            continue
        else:
            raise ValueError(f"unrecognized line {line!r}")
    if alphabet is None:
        raise ValueError("missing generators line")
    return Presentation(alphabet, tuple(relators))
