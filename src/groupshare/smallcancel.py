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
from typing import Sequence

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

    # The one piece scan, kept without R*: sampler, encoder, report and Dehn index read it.
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

def _abelian_weights(p: Presentation) -> tuple[bytes, int]:
    """A homomorphism from the free group onto Z/q that sends every relator
    to 0, as a ``bytes.translate`` table of packed letter code -> weight mod
    q, and q.  By von Dyck's theorem it then sends every word equal to 1 in
    the group to 0.  It reads one coordinate of the abelianization: a free
    one with q = 256 if there is one, or else that of the largest invariant
    factor d, with q the largest divisor of d up to 256.  q = 1 where the
    abelianization is trivial, where the codes do not fit in a byte, and
    where both the rank and the relator count pass 8: the normal form's cost
    grows with their product times the smaller, and past that it outgrows
    the rest of the Dehn index."""
    rank = p.alphabet.rank
    if 2 * rank + 1 > 255 or min(rank, len(p.relators)) > 8:
        return b"", 1
    # Smith normal form of the generator-by-relator exponent-sum matrix, each
    # pivot left where it is found.  Each row carries its generator's row of
    # the identity after the relator columns, so row operations build the
    # transform as they go; column operations touch the relator columns only.
    matrix = [[r.chars.count(chr(2 * g)) - r.chars.count(chr(2 * g + 1)) for r in p.relators]
              + [int(g == h) for h in range(1, rank + 1)] for g in range(1, rank + 1)]
    rows, columns = list(range(rank)), list(range(len(p.relators)))  # not yet pivots
    pivot = 0
    while cells := [(abs(matrix[i][j]), i, j) for i in rows for j in columns if matrix[i][j]]:
        _, i, j = min(cells)
        while True:
            pivot, top = matrix[i][j], matrix[i]
            for k in rows:
                if k != i and (c := matrix[k][j] // pivot):
                    matrix[k] = [a - c * b for a, b in zip(matrix[k], top)]
            for l in columns:
                if l != j and (c := top[l] // pivot):
                    for row in matrix:
                        row[l] -= c * row[j]
            # a remainder below the pivot, in its row or column, is the next pivot
            rest = [(abs(matrix[k][j]), k, j) for k in rows if k != i and matrix[k][j]]
            rest += [(abs(top[l]), i, l) for l in columns if l != j and top[l]]
            if rest:
                _, i, j = min(rest)
                continue
            # the pivot must divide what is left, or its row takes an entry it does not
            spoiler = next((k for k in rows if any(matrix[k][l] % pivot for l in columns)), None)
            if spoiler is None:
                break
            matrix[i] = [a + b for a, b in zip(top, matrix[spoiler])]
        rows.remove(i)
        columns.remove(j)
        last = i
    if rows:  # a free coordinate: the row is 0
        last, q = rows[0], 256
    else:
        q = next(d for d in range(min(abs(pivot), 256), 0, -1) if pivot % d == 0)
    table = bytearray(256)
    for g, weight in enumerate(matrix[last][len(p.relators):], start=1):  # the transform's row
        table[2 * g], table[2 * g + 1] = weight % q, -weight % q
    return bytes(table), q


class _DehnIndex:
    """R* of one presentation, indexed by over-half relator prefixes.

    For every symmetrized member r the minimal replaceable prefix length is
    t = |r| // 2 + 1 (the least length strictly greater than |r| / 2).
    ``tables[t]`` maps each length-t prefix to the members it opens, so a
    position starts a candidate exactly when one of its windows of a
    length in ``thresholds`` is a key of the matching table.  ``decides``:
    the presentation is C'(1/6), so Dehn's algorithm decides its word problem.
    ``weights`` and ``q``: the homomorphism onto Z/q of ``_abelian_weights``
    on such a presentation, or no check (q = 1).
    """

    __slots__ = ("decides", "q", "tables", "thresholds", "weights")

    def __init__(self, p: Presentation):
        members = p.closure
        piece, length, _ = p._piece_scan
        self.decides = 6 * piece < length
        self.weights, self.q = _abelian_weights(p) if self.decides else (b"", 1)
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


# Keyed by value, so an equal presentation parsed afresh finds R* built and its verdict taken.
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
        # Free reduction cancels letters in pairs across each seam, so the
        # first ``kept`` letters are untouched.  No candidate opened before
        # ``pos``, so none opens where the widest window ends among them.
        rest = chars[pos + best_len :]
        if best_len == len(best_member):  # the member gives way to nothing: one seam
            cut, limit = 0, min(pos, len(rest))
            while cut < limit and ord(chars[pos - 1 - cut]) ^ 1 == ord(rest[cut]):
                cut += 1
            kept = pos - cut
            shorter = chars[:kept] + rest[cut:]
        else:
            replacement = _invert_chars(best_member[best_len:])
            head = _merge_chars(chars[:pos], replacement)
            shorter = _merge_chars(head, rest)
            kept = min(pos - (pos + len(replacement) - len(head)) // 2,
                       len(head) - (len(head) + len(rest) - len(shorter)) // 2)
        assert len(shorter) < len(chars)
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

def _conjugated_products(p: Presentation, bits: Sequence[int], factor_counts: Sequence[int],
                         conj_lengths: Sequence[int], rng: Random) -> list[str]:
    """The one word construction behind both bit values, packed: per bit, a
    random nonempty product ``prod h^-1 r^sign h`` of conjugated relators;
    its factor count and conjugator length are drawn where there is a choice.

    For a 0 bit, one uniformly chosen factor's relator r = u a v has a
    uniformly chosen letter a replaced by a letter b != a that cancels
    neither cyclic neighbour.  Then r' = u b v = u (b a^-1) u^-1 r, so the
    product is conjugate to the reduced two-letter word b a^-1, which is not
    1 in a C'(1/6) group whose relators exceed 4 letters (Greendlinger).
    """
    if factor_counts[0] < 1:
        raise ValueError("factor_count must be at least 1")
    if conj_lengths[0] < 0:
        raise ValueError("conj_length must be nonnegative")
    rank = p.alphabet.rank
    signed = p._signed_chars
    # Each draw is ``freegroup._below``'s rejection loop, inlined: the same draws.
    getrandbits = rng.getrandbits
    relator_count, k_relator = len(signed), len(signed).bit_length()
    factor_choices, conj_choices = len(factor_counts), len(conj_lengths)
    k_factor, k_conj = factor_choices.bit_length(), conj_choices.bit_length()
    letters = "".join(map(chr, range(2, 2 * rank + 2)))
    first, next_ = 2 * rank, 2 * rank - 1  # choices of a conjugator's first and later letters
    k_first, k_next = first.bit_length(), next_.bit_length()
    inverse = {c: chr(ord(c) ^ 1) for c in letters}
    after = {c: letters.replace(inverse[c], "") for c in letters}  # the letters not cancelling c
    words = []
    for bit in bits:
        factor_count, conj_length = factor_counts[0], conj_lengths[0]
        if factor_choices > 1:
            i = getrandbits(k_factor)
            while i >= factor_choices:
                i = getrandbits(k_factor)
            factor_count = factor_counts[i]
        if conj_choices > 1:
            i = getrandbits(k_conj)
            while i >= conj_choices:
                i = getrandbits(k_conj)
            conj_length = conj_lengths[i]
        if not relator_count:  # refused after the word's draws, as one word at a time was
            raise ValueError("presentation has no relators")
        if not bit and rank < 2:
            raise ValueError("no substitute letter exists over a rank-1 alphabet")
        k_altered = factor_count.bit_length()
        later_letters = range(conj_length - 1)
        for _ in range(_MAX_ATTEMPTS):
            altered = -1
            if not bit:
                altered = getrandbits(k_altered)
                while altered >= factor_count:
                    altered = getrandbits(k_altered)
            acc = ""
            for i in range(factor_count):
                idx = getrandbits(k_relator)
                while idx >= relator_count:
                    idx = getrandbits(k_relator)
                inverted = getrandbits(2)
                while inverted >= 2:
                    inverted = getrandbits(2)
                r = signed[idx][inverted]
                h = h_inv = ""
                if conj_length:
                    pick = getrandbits(k_first)
                    while pick >= first:
                        pick = getrandbits(k_first)
                    h = c = letters[pick]
                    h_inv = inverse[c]
                    for _ in later_letters:
                        pick = getrandbits(k_next)
                        while pick >= next_:
                            pick = getrandbits(k_next)
                        c = after[c][pick]
                        h += c
                        h_inv = inverse[c] + h_inv
                if i == altered:
                    n, k = len(r), len(r).bit_length()
                    pos = getrandbits(k)
                    while pos >= n:
                        pos = getrandbits(k)
                    banned = (r[pos], inverse[r[pos - 1]], inverse[r[(pos + 1) % n]])
                    subs = [c for c in letters if c not in banned]
                    n, k = len(subs), len(subs).bit_length()
                    pick = getrandbits(k)
                    while pick >= n:
                        pick = getrandbits(k)
                    r = r[:pos] + subs[pick] + r[pos + 1 :]
                # r is cyclically reduced, so h cancels into one end of it at most
                if h and (h[0] == r[0] or h[0] == inverse[r[-1]]):
                    factor = _merge_chars(_merge_chars(h_inv, r), h)
                else:
                    factor = h_inv + r + h
                if acc and inverse[acc[-1]] == factor[0]:
                    acc = _merge_chars(acc, factor)
                else:
                    acc += factor
            if acc:
                break
        else:
            raise BudgetExhausted(
                f"conjugate products collapsed to the identity {_MAX_ATTEMPTS} times in a row"
            )
        words.append(acc)
    return words


def make_trivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """Random nonempty product of conjugated relators; trivial by construction."""
    [chars] = _conjugated_products(p, (1,), (factor_count,), (conj_length,), rng)
    return _from_chars(p.alphabet, chars)


def make_nontrivial_word(p: Presentation, factor_count: int, conj_length: int, rng: Random) -> Word:
    """The :func:`make_trivial_word` product with one letter of one relator
    factor changed: never 1 on a C'(1/6) presentation; ValueError at rank 1."""
    [chars] = _conjugated_products(p, (0,), (factor_count,), (conj_length,), rng)
    return _from_chars(p.alphabet, chars)


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
