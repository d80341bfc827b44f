import copy
import hashlib
import pickle
from fractions import Fraction
from functools import cache
from itertools import combinations, cycle
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare import smallcancel
from groupshare.freegroup import (
    Alphabet,
    Word,
    _from_chars,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)
from groupshare.scheme import WordColumn, decode_column, encode_column
from groupshare.smallcancel import (
    _conjugated_product,
    _DehnIndex,
    _dehn_index,
    _dehn_scan,
    BudgetExhausted,
    DehnStep,
    DehnTrace,
    Presentation,
    check_small_cancellation,
    dehn_is_trivial,
    make_nontrivial_word,
    make_trivial_word,
    parse_presentation,
    random_platform_group,
    serialize_presentation,
)

A1 = Alphabet(1)
A2 = Alphabet(2)
A3 = Alphabet(3)
SIXTH = Fraction(1, 6)


def power(alphabet, gen, k):
    return Word(alphabet, [gen] * k if k >= 0 else [-gen] * (-k))


def orbit(letters):
    """Independent closure oracle over plain int tuples."""
    letters = tuple(letters)
    inverse = tuple(-l for l in reversed(letters))
    out = set()
    for base in (letters, inverse):
        for i in range(len(base)):
            out.add(base[i:] + base[:i])
    return out


def symmetrize(relators):
    """The members of the symmetrized closure, as words, in canonical
    (length, chars) order."""
    alphabet = relators[0].alphabet
    members = sorted(Presentation(alphabet, tuple(relators)).closure, key=lambda m: (len(m), m))
    return tuple(_from_chars(alphabet, m) for m in members)


# ---------------------------------------------------------------------------
# presentations

def test_presentation_validates_relators():
    with pytest.raises(ValueError):
        Presentation(A2, (Word(A2, []),))
    with pytest.raises(ValueError):
        Presentation(A2, (Word(A2, [1, 2, -1]),))  # not cyclically reduced
    with pytest.raises(ValueError):
        Presentation(A2, (Word(A3, [3]),))  # foreign alphabet


def test_presentation_text_round_trip():
    p = Presentation(A3, (parse_word("x1 x2 x3", A3), parse_word("x2 x2", A3)))
    text = serialize_presentation(p)
    assert text == "generators 3\nrelator x1 x2 x3\nrelator x2 x2\n"
    assert parse_presentation(text) == p


def test_equal_presentations_hash_and_compare_equal():
    text = "generators 3\nrelator x1 x2 x3 x1^-1 x2\nrelator x2 x2 x3\n"
    a, b = parse_presentation(text), parse_presentation(text)
    assert a is not b and a.relators[0] is not b.relators[0]
    assert a == b and hash(a) == hash(b)
    built = Presentation(A3, tuple(Word(A3, r.letters) for r in a.relators))
    assert built == a and hash(built) == hash(a)
    other = Presentation(A3, (a.relators[0], parse_word("x2 x2 x3^-1", A3)))
    assert other != a
    assert len({a, b, built, other}) == 2


def test_words_and_what_holds_them_survive_copying():
    rng = Random(7)
    p = random_platform_group(3, 3, 40, SIXTH, rng)
    report = check_small_cancellation(p, SIXTH)
    w = make_trivial_word(p, 2, 5, rng)
    column = encode_column([1, 0, 1, 1, 0], p, rng, group_hint=1)
    # the fields and the two cached attributes: R* lives in the Dehn index,
    # and only the piece scan the sampler ran stays with the presentation
    assert set(vars(p)) == {"alphabet", "relators", "_signed_chars", "_piece_scan"}
    assert hash(w) == hash((w.alphabet, w.chars))
    for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        assert clone(w) == w and hash(clone(w)) == hash(w)
        q = clone(p)
        assert q == p and hash(q) == hash(p)
        assert q.closure == p.closure and check_small_cancellation(q, SIXTH) == report
        assert dehn_is_trivial(q, w).is_trivial
        assert clone(column) == column
    with pytest.raises(AttributeError):
        w.chars = ""


def test_decoding_a_column_builds_one_dehn_index(platform_group):
    rng = Random(5)
    bits = [rng.randrange(2) for _ in range(16)]
    column = encode_column(bits, platform_group, rng, group_hint=1)
    _dehn_index.cache_clear()
    assert decode_column(column, platform_group) == tuple(bits)
    info = _dehn_index.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    # an equal presentation parsed afresh finds the same index
    again = parse_presentation(serialize_presentation(platform_group))
    assert decode_column(column, again) == tuple(bits)
    info = _dehn_index.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def _count_scans(monkeypatch) -> list:
    scans, scan = [], smallcancel._largest_piece
    monkeypatch.setattr(smallcancel, "_largest_piece",
                        lambda members: scans.append(members) or scan(members))
    return scans


def test_a_sampled_group_is_scanned_once_from_sampler_to_decoder(monkeypatch):
    scans = _count_scans(monkeypatch)
    rng = Random(11)
    p = random_platform_group(3, 3, 40, SIXTH, rng)
    sampled = len(scans)  # one per candidate without an orbit collision
    assert "_piece_scan" in vars(p)
    _dehn_index.cache_clear()
    bits = [rng.randrange(2) for _ in range(8)]
    column = encode_column(bits, p, rng, group_hint=1)
    assert decode_column(column, p) == tuple(bits)
    assert dehn_is_trivial(p, column.words[0]).is_trivial is bool(bits[0])
    assert check_small_cancellation(p, SIXTH).satisfied
    # the index took the sampler's verdict: R* built once, scanned never again
    assert len(scans) == sampled and _dehn_index.cache_info().misses == 1
    _dehn_index.cache_clear()


def test_a_parsed_group_keeps_the_scan_its_dehn_index_ran(platform_group, monkeypatch):
    text = serialize_presentation(platform_group)
    scans = _count_scans(monkeypatch)
    _dehn_index.cache_clear()
    p = parse_presentation(text)
    assert "_piece_scan" not in vars(p)
    w = make_trivial_word(p, 2, 3, Random(4))
    assert dehn_is_trivial(p, w).is_trivial
    assert len(scans) == 1 and vars(p)["_piece_scan"] == platform_group._piece_scan
    # the report and the encoder read the scan the index left on the object
    assert check_small_cancellation(p, SIXTH) == check_small_cancellation(platform_group, SIXTH)
    encode_column([1, 0], p, Random(5), group_hint=1)
    assert len(scans) == 1
    _dehn_index.cache_clear()


def test_parse_presentation_accepts_comments_and_blanks():
    p = parse_presentation("# a comment\n\ngenerators 2\n relator x1 x2\n")
    assert p.alphabet.rank == 2
    assert p.relators[0].letters == (1, 2)


def test_parse_presentation_cyclically_reduces():
    p = parse_presentation("generators 2\nrelator x1 x2 x1^-1\n")
    assert p.relators[0].letters == (2,)


@pytest.mark.parametrize(
    "text",
    [
        "relator x1\ngenerators 1\n",
        "generators 1\ngenerators 1\n",
        "generators 1\nrelator x1 x1^-1\n",
        "generators 1\nbogus x1\n",
        "",
    ],
)
def test_parse_presentation_rejects_bad_input(text):
    with pytest.raises(ValueError):
        parse_presentation(text)


# ---------------------------------------------------------------------------
# symmetrization and pieces

def test_symmetrize_two_letter_relator():
    s = symmetrize([Word(A2, [1, 2])])
    assert {m.letters for m in s} == {(1, 2), (2, 1), (-2, -1), (-1, -2)}


def test_symmetrize_power_relator():
    s = symmetrize([power(A1, 1, 7)])
    assert {m.letters for m in s} == {(1,) * 7, (-1,) * 7}


def test_symmetrize_worked_pair_size_matches_oracle():
    r1 = parse_word("x1 x1 x2 x2 x2", A3)
    r2 = parse_word("x1 x2 x2 x1^-1 x3", A3)
    expected = orbit(r1.letters) | orbit(r2.letters)
    assert len(expected) == 20
    s = symmetrize([r1, r2])
    assert {m.letters for m in s} == expected


def test_symmetrize_idempotent_and_closed():
    s = symmetrize([parse_word("x1 x2 x1 x3^-1", A3)])
    again = symmetrize(s)
    assert again == s
    assert list(s) == sorted(s, key=lambda m: (len(m), m.chars))
    for m in s:
        assert m.is_cyclically_reduced()
        assert m.inverse() in s


@cache
def brute_force_piece_ratio(relators):
    """Largest |piece| / |member| over every pair of distinct members of the
    closure built by the independent ``orbit`` oracle."""
    members = set().union(*(orbit(r.letters) for r in relators))
    best = Fraction(0)
    for a, b in combinations(members, 2):
        common = 0
        while common < min(len(a), len(b)) and a[common] == b[common]:
            common += 1
        best = max(best, Fraction(common, len(a)), Fraction(common, len(b)))
    return best


def check_piece_scan(p):
    """``check_small_cancellation`` against the brute-force oracle; the
    witness piece opens the witness relator and one other member."""
    report = check_small_cancellation(p, SIXTH)
    assert report.max_piece_ratio == brute_force_piece_ratio(p.relators)
    if report.witness is None:
        assert report.max_piece_ratio == 0
        return report
    piece, relator = report.witness
    assert relator.letters[: len(piece)] == piece.letters
    assert Fraction(len(piece), len(relator)) == report.max_piece_ratio
    members = symmetrize(p.relators)
    assert relator in members
    assert any(m != relator and m.letters[: len(piece)] == piece.letters for m in members)
    return report


def test_piece_scan_power_relator_has_none():
    report = check_piece_scan(Presentation(A1, (power(A1, 1, 7),)))
    assert report.max_piece_ratio == 0 and report.witness is None


def test_piece_scan_shared_first_letter():
    report = check_piece_scan(Presentation(A3, (Word(A3, [1, 2]), Word(A3, [1, 3]))))
    assert report.max_piece_ratio == Fraction(1, 2)
    assert len(report.witness[0]) == 1


def test_piece_scan_matches_brute_force_on_worked_pair():
    check_piece_scan(Presentation(A3, (parse_word("x1 x1 x2 x2 x2", A3),
                                       parse_word("x1 x2 x2 x1^-1 x3", A3))))


def test_piece_scan_matches_brute_force_on_random_sets():
    rng = Random(5)
    for _ in range(20):
        words = []
        while len(words) < 3:
            w = random_reduced_word(rng.randrange(7, 16), A3, rng)
            if w.is_cyclically_reduced():
                words.append(w)
        check_piece_scan(Presentation(A3, tuple(words)))


def cyclic_words(lengths, alphabet, rng):
    words = []
    for length in lengths:
        w = random_reduced_word(length, alphabet, rng)
        while not w.is_cyclically_reduced():
            w = random_reduced_word(length, alphabet, rng)
        words.append(w)
    return tuple(words)


def test_piece_scan_reports_are_pinned():
    # test_06's 1,000 samples at 1/6, then loose (C'(1/2)) and mixed-length
    # presentations at three bounds: ratio, witness and verdict of each
    # report, digested when the scan compared every neighbour letter by letter
    cases = []
    rng = Random(20260809)
    for _ in range(1000):
        cases.append((Presentation(A3, cyclic_words((40, 40, 40), A3, rng)), (SIXTH,)))
    lambdas = (SIXTH, Fraction(1, 4), Fraction(1, 2))
    rng = Random(7)
    for _ in range(60):
        cases.append((random_platform_group(3, 3, 10, "1/2", rng), lambdas))
        alphabet = Alphabet(rng.randrange(2, 5))
        lengths = [rng.randrange(3, 30) for _ in range(rng.randrange(1, 5))]
        cases.append((Presentation(alphabet, cyclic_words(lengths, alphabet, rng)), lambdas))
    h = hashlib.sha256()
    satisfied = 0
    for p, lams in cases:
        for lam in lams:
            r = check_small_cancellation(p, lam)
            witness = "-" if r.witness is None else "|".join(map(serialize_word, r.witness))
            h.update(f"{r.lambda_bound} {r.max_piece_ratio} {witness} {r.satisfied}\n".encode())
            satisfied += r.satisfied
    assert satisfied == 1022
    assert h.hexdigest() == "3b9b9be54297232be06741e14ed840367da077b9d6f39ed067e93c39bc3591bf"


def test_check_and_dehn_index_share_one_closure(platform_group):
    loose = random_platform_group(3, 3, 10, "1/2", Random(3))
    assert not check_small_cancellation(loose, SIXTH).satisfied
    for p in (platform_group, loose):
        closure = p.closure
        assert list(closure) == sorted(set(closure))
        index = _DehnIndex(p)
        # the tables hold each member of R* exactly once
        members = [m for table in index.tables.values() for bucket in table.values()
                   for m in bucket]
        assert sorted(members) == list(closure)
        assert index.decides == check_small_cancellation(p, SIXTH).satisfied


# ---------------------------------------------------------------------------
# the cancellation condition

def test_check_power_relator_satisfied():
    p = Presentation(A1, (power(A1, 1, 7),))
    report = check_small_cancellation(p, SIXTH)
    assert report.satisfied
    assert report.max_piece_ratio == 0


def test_check_short_relators_fail():
    p = Presentation(A2, (Word(A2, [1, 2]), Word(A2, [1, -2])))
    report = check_small_cancellation(p, SIXTH)
    assert not report.satisfied
    assert report.max_piece_ratio == Fraction(1, 2)
    piece, relator = report.witness
    assert len(piece) == 1


def test_check_empty_presentation_is_vacuous():
    report = check_small_cancellation(Presentation(A2, ()), SIXTH)
    assert report.satisfied and report.witness is None


def test_check_rejects_bad_lambda():
    p = Presentation(A1, (power(A1, 1, 7),))
    for lam in (0, 1, Fraction(7, 6), -1):
        with pytest.raises(ValueError):
            check_small_cancellation(p, lam)


def test_check_monotone_in_lambda():
    rng = Random(17)
    lambdas = [Fraction(1, 8), Fraction(1, 6), Fraction(1, 4), Fraction(1, 2), Fraction(5, 6)]
    for _ in range(15):
        words = []
        while len(words) < 2:
            w = random_reduced_word(10, A2, rng)
            if w.is_cyclically_reduced():
                words.append(w)
        p = Presentation(A2, tuple(words))
        verdicts = [check_small_cancellation(p, lam).satisfied for lam in lambdas]
        assert verdicts == sorted(verdicts)  # once satisfied, stays satisfied


def test_report_consistency_invariant():
    rng = Random(23)
    for _ in range(10):
        p = random_platform_group(3, 3, 20, SIXTH, rng)
        report = check_small_cancellation(p, SIXTH)
        assert report.satisfied == (report.max_piece_ratio < report.lambda_bound)


# ---------------------------------------------------------------------------
# sampling platform groups

def test_random_platform_group_passes_independent_check():
    p = random_platform_group(3, 3, 40, SIXTH, Random(99))
    assert p.alphabet.rank == 3
    assert len(p.relators) == 3
    assert all(len(r) == 40 for r in p.relators)
    assert check_small_cancellation(p, SIXTH).satisfied


def test_sampled_groups_do_not_keep_their_closure():
    # the sampler checks every candidate, but only a Dehn index keeps R*
    p = random_platform_group(3, 3, 40, SIXTH, Random(99))
    assert "closure" not in vars(p)


def test_random_platform_group_rank_one_exhausts():
    with pytest.raises(BudgetExhausted):
        random_platform_group(1, 2, 8, SIXTH, Random(0))


def test_sampled_orbits_are_pinned_above_rank_one():
    # at rank 2, three relators of length 7, about 2% of candidates put two
    # relators in one orbit of R*, and every seed still returns a group;
    # the digest was recorded when each orbit was named by its least member
    h = hashlib.sha256()
    for seed in range(300):
        p = random_platform_group(2, 3, 7, "1/2", Random(seed))
        h.update(serialize_presentation(p).encode())
        for r, s in combinations(p.relators, 2):
            assert not orbit(r.letters) & orbit(s.letters)
    assert h.hexdigest() == "238145142b639f7f8ec4db2b1865c73ed519ed709a52d6c9dd302779e78069be"


def test_random_platform_group_rejects_short_relators():
    with pytest.raises(ValueError):
        random_platform_group(3, 3, 6, SIXTH, Random(0))
    with pytest.raises(ValueError, match="r_count"):
        random_platform_group(3, 0, 40, SIXTH, Random(0))


# ---------------------------------------------------------------------------
# Dehn's algorithm

def test_relator_is_trivial_in_one_step():
    p = Presentation(A1, (power(A1, 1, 7),))
    trace = dehn_is_trivial(p, power(A1, 1, 7))
    assert trace.is_trivial and len(trace.steps) == 1


def test_short_power_is_not_trivial():
    p = Presentation(A1, (power(A1, 1, 7),))
    trace = dehn_is_trivial(p, power(A1, 1, 3))
    assert not trace.is_trivial
    assert trace.final_word.letters == (1, 1, 1)


@pytest.mark.parametrize("q", [1, 2, 3, 7, 9])
def test_dehn_agrees_with_exponent_oracle(q):
    # the degenerate piece structure of one-relator power presentations makes
    # Dehn reduction exact for every exponent, not just the metric range
    p = Presentation(A1, (power(A1, 1, q),))
    for k in range(-30, 31):
        expected = k % q == 0
        assert dehn_is_trivial(p, power(A1, 1, k)).is_trivial == expected


def test_dehn_rejects_alphabet_mismatch(platform_group):
    with pytest.raises(ValueError):
        dehn_is_trivial(platform_group, Word(A2, [1]))


def test_empty_word_is_trivial(platform_group):
    trace = dehn_is_trivial(platform_group, Word(platform_group.alphabet, []))
    assert trace.is_trivial and not trace.steps


def test_free_presentation_only_identity_trivial():
    p = Presentation(A2, ())
    assert dehn_is_trivial(p, Word(A2, [])).is_trivial
    assert not dehn_is_trivial(p, Word(A2, [1, 2])).is_trivial


def test_trace_steps_replay_and_shrink(platform_group):
    rng = Random(31)
    for _ in range(20):
        w = make_trivial_word(platform_group, 2, 4, rng)
        trace = dehn_is_trivial(platform_group, w)
        assert trace.is_trivial
        assert len(trace.steps) <= len(w)
        # independent replay of the recorded steps
        current = w
        for step in trace.steps:
            before = current.letters
            assert before[step.position : step.position + len(step.replaced)] == step.replaced.letters
            rebuilt = (
                list(before[: step.position])
                + list(step.replacement.letters)
                + list(before[step.position + len(step.replaced) :])
            )
            new = Word(platform_group.alphabet, rebuilt)
            assert len(new) < len(current)
            # the replaced prefix together with the inverted replacement is a relator
            assert step.replaced * step.replacement.inverse() == step.relator
            current = new
        assert current == trace.final_word


def test_dehn_invariant_under_conjugation(platform_group):
    rng = Random(37)
    for _ in range(10):
        w = make_trivial_word(platform_group, 1, 3, rng)
        nt = make_nontrivial_word(platform_group, 1, 3, rng)
        h = random_reduced_word(6, platform_group.alphabet, rng)
        assert dehn_is_trivial(platform_group, h.inverse() * w * h).is_trivial
        assert not dehn_is_trivial(platform_group, h.inverse() * nt * h).is_trivial


def naive_dehn(p, w):
    """Reference Dehn reduction: at every step try every position from the
    left and every symmetrized member in canonical order, take the leftmost
    position where some member matches more than half of itself, and there
    the longest match, the first member winning a tie.  Short of 1 the
    verdict is None unless the brute-force piece ratio is below 1/6."""
    members = [(r, r.letters) for r in symmetrize(p.relators)]
    current = w
    steps = []
    while True:
        letters = current.letters
        best = None
        for pos in range(len(letters)):
            for r, rl in members:
                n = 0
                while n < len(rl) and pos + n < len(letters) and letters[pos + n] == rl[n]:
                    n += 1
                if 2 * n > len(rl) and (best is None or n > best[1]):
                    best = (pos, n, r)
            if best is not None:
                break
        if best is None:
            decided = not current or brute_force_piece_ratio(p.relators) < SIXTH
            return DehnTrace(tuple(steps), current, not current if decided else None)
        pos, n, r = best
        replaced = Word(p.alphabet, r.letters[:n])
        replacement = Word(p.alphabet, r.letters[n:]).inverse()
        steps.append(DehnStep(pos, replaced, replacement, r))
        current = Word(p.alphabet, letters[:pos] + replacement.letters + letters[pos + n :])


def test_dehn_matches_naive_scan_on_dealt_words(platform_group):
    rng = Random(61)
    bits = [rng.randrange(2) for _ in range(24)]
    column = encode_column(bits, platform_group, rng, group_hint=1)
    for w in column.words:
        assert dehn_is_trivial(platform_group, w) == naive_dehn(platform_group, w)


def test_dehn_matches_naive_scan_on_random_words(platform_group):
    rng = Random(67)
    for _ in range(30):
        w = random_reduced_word(rng.randrange(0, 70), platform_group.alphabet, rng)
        assert dehn_is_trivial(platform_group, w) == naive_dehn(platform_group, w)


def test_dehn_matches_naive_scan_on_bare_four_factor_products(platform_group):
    # with no conjugators the factors meet head to tail, so free reduction
    # at each seam and each replacement can cancel far to the left
    rng = Random(71)
    for build in (make_trivial_word, make_nontrivial_word):
        for _ in range(10):
            w = build(platform_group, 4, 0, rng)
            assert dehn_is_trivial(platform_group, w) == naive_dehn(platform_group, w)


def test_dehn_matches_naive_scan_with_several_thresholds():
    # relators of lengths 5, 6, 9 and 12 open candidates at 3, 4, 5 and 7
    # letters; short relators make long chains of steps, each one able to
    # open a candidate just left of the letters it rewrote
    rng = Random(73)
    for _ in range(20):
        relators = []
        for length in rng.sample((5, 6, 9, 12), 3):
            r = random_reduced_word(length, A2, rng)
            while not r.is_cyclically_reduced():
                r = random_reduced_word(length, A2, rng)
            relators.append(r)
        p = Presentation(A2, tuple(relators))
        for _ in range(15):
            w = random_reduced_word(rng.randrange(0, 4), A2, rng)
            for _ in range(rng.randrange(1, 9)):
                r = relators[rng.randrange(3)]
                h = random_reduced_word(rng.randrange(0, 3), A2, rng)
                w = w * h.inverse() * (r if rng.randrange(2) else r.inverse()) * h
                w = w * random_reduced_word(rng.randrange(0, 3), A2, rng)
            assert dehn_is_trivial(p, w) == naive_dehn(p, w)


def test_dehn_breaks_ties_by_canonical_member_order():
    # the word opens two members of length 6 at position 0, over 5 letters
    # each; the first in canonical order is the one used
    r1 = parse_word("x1 x2 x1 x2 x1 x2", A2)
    r2 = parse_word("x1 x2 x1 x2 x1 x1", A2)
    p = Presentation(A2, (r1, r2))
    w = parse_word("x1 x2 x1 x2 x1 x2^-1", A2)
    trace = dehn_is_trivial(p, w)
    assert trace == naive_dehn(p, w)
    first = min((r1, r2), key=lambda r: r.chars)
    assert trace.steps[0].position == 0 and trace.steps[0].relator == first
    assert len(trace.steps[0].replaced) == 5


def multi_threshold_case(rng):
    """Three short relators of lengths among 5, 6, 9 and 12, and a word
    made of conjugated relators and free letters between them."""
    relators = []
    for length in rng.sample((5, 6, 9, 12), 3):
        r = random_reduced_word(length, A2, rng)
        while not r.is_cyclically_reduced():
            r = random_reduced_word(length, A2, rng)
        relators.append(r)
    w = random_reduced_word(rng.randrange(0, 4), A2, rng)
    for _ in range(rng.randrange(1, 9)):
        r = relators[rng.randrange(3)]
        h = random_reduced_word(rng.randrange(0, 3), A2, rng)
        w = w * h.inverse() * (r if rng.randrange(2) else r.inverse()) * h
        w = w * random_reduced_word(rng.randrange(0, 3), A2, rng)
    return Presentation(A2, tuple(relators)), w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(("dealt", "random", "bare", "thresholds")), st.integers(0, 2**32))
def test_verdict_scan_matches_the_traced_and_naive_verdicts(platform_group, kind, seed):
    rng = Random(seed)
    p = platform_group
    if kind == "dealt":
        bits = [rng.randrange(2) for _ in range(3)]
        words = encode_column(bits, p, rng, group_hint=1).words
    elif kind == "random":
        words = [random_reduced_word(rng.randrange(0, 70), p.alphabet, rng)]
    elif kind == "bare":
        build = make_trivial_word if rng.randrange(2) else make_nontrivial_word
        words = [build(p, 4, 0, rng)]
    else:
        p, w = multi_threshold_case(rng)
        words = [w]
    for w in words:
        verdict = not _dehn_scan(_dehn_index(p), w.chars)
        trace = dehn_is_trivial(p, w)
        assert verdict is bool(trace.is_trivial)
        assert trace.is_trivial is naive_dehn(p, w).is_trivial


def opening_thresholds(p, chars):
    """For each position of ``chars``, the prefix lengths t at which more
    than half (t = |r| // 2 + 1 letters) of some symmetrized member r
    starts there, found by trying every member prefix at every position."""
    prefixes = {m[: len(m) // 2 + 1] for m in p.closure}
    return [sorted({len(u) for u in prefixes if chars.startswith(u, i)})
            for i in range(len(chars))]


def test_leftmost_matches_a_brute_force_at_every_start(platform_group):
    rng = Random(109)
    p = platform_group
    bits = [rng.randrange(2) for _ in range(6)]
    cases = [(p, w) for w in encode_column(bits, p, rng, group_hint=1).words]
    cases += [(p, random_reduced_word(rng.randrange(0, 70), p.alphabet, rng)) for _ in range(10)]
    cases += [multi_threshold_case(rng) for _ in range(60)]
    # leftmost scans the thresholds shortest first and stops each later scan
    # at the hit it holds; count the later first hits that fall beyond that
    # hit (cut off) and before it (taking its place)
    cut_off = overtaken = 0
    for q, w in cases:
        index = _dehn_index(q)
        opens = opening_thresholds(q, w.chars)
        for start in range(len(w) + 3):
            expected = next((i for i in range(start, len(w)) if opens[i]), -1)
            assert index.leftmost(w.chars, start) == expected
            firsts = {}
            for i in range(start, len(w)):
                for t in opens[i]:
                    firsts.setdefault(t, i)
            hits = [firsts[t] for t in sorted(firsts)]
            cut_off += any(h > hits[0] for h in hits[1:])
            overtaken += any(h < hits[0] for h in hits[1:])
    assert cut_off and overtaken


# ---------------------------------------------------------------------------
# the homomorphism onto Z/q that reads most 0 bits before Dehn

def image(weights, q, w):
    """The weight of ``w`` mod q, summed letter by letter: x_g^e weighs e * f_g."""
    return sum(weights[2 * abs(g)] * (1 if g > 0 else -1) for g in w.letters) % q


@st.composite
def any_presentations(draw):
    """Relator sets of every kind: most fail C'(1/6), many have a free or
    trivial abelianization, and some relators have zero exponent sums."""
    alphabet = Alphabet(draw(st.integers(1, 5)))
    relators = []
    for letters in draw(st.lists(st.lists(st.integers(-alphabet.rank, alphabet.rank)
                                          .filter(bool), min_size=1, max_size=12), max_size=5)):
        r = cyclically_reduce(Word(alphabet, letters))
        if r:
            relators.append(r)
    return Presentation(alphabet, tuple(relators))


@given(any_presentations(), st.integers(0, 2**32))
def test_every_product_of_conjugated_relators_maps_to_zero(p, seed):
    weights, q = smallcancel._abelian_weights(p)
    assert 1 <= q <= 256
    rank = p.alphabet.rank
    for g in range(1, rank + 1):
        assert weights[2 * g] < q and (weights[2 * g] + weights[2 * g + 1]) % q == 0
    # the functional is a row of a unimodular matrix, so q > 1 leaves it nonzero
    assert q == 1 or any(weights[2 * g] for g in range(1, rank + 1))
    assert all(image(weights, q, r) == 0 for r in p.relators)
    rng = Random(seed)
    for _ in range(5):
        w = Word(p.alphabet, [])
        for _ in range(rng.randrange(1, 5) if p.relators else 0):
            h = random_reduced_word(rng.randrange(0, 8), p.alphabet, rng)
            r = rng.choice(p.relators)
            w = w * h.inverse() * (r if rng.getrandbits(1) else r.inverse()) * h
        assert image(weights, q, w) == 0


@pytest.mark.parametrize(
    "rank, relators, q",
    [
        (2, ("x1 x1", "x2 x2 x2"), 6),  # Z/2 + Z/3: the invariant factors are 1 and 6
        (2, ("x1 x2 x1^-1 x2^-1",), 256),  # a free abelianization
        (3, ("x1 x2 x1^-1 x2^-1", "x3 x3 x3 x3 x3"), 256),  # a free part beside Z/5
        (2, ("x1 x2 x1^-1 x2^-1 x2^-1", "x2 x1 x2^-1 x1^-1 x1^-1"), 1),  # trivial
        (1, (" ".join(["x1"] * 300),), 150),  # Z/300, cut to its largest divisor up to 256
        (1, (" ".join(["x1"] * 257),), 1),  # Z/257 has no divisor in 2..256
        (1, (), 256),  # a free group
        (128, ("x128",), 1),  # packed codes past a byte
        (8, tuple(f"x{g} x{g}" for g in range(1, 9)), 2),  # (Z/2)^8
        (9, tuple(f"x{g} x{g}" for g in range(1, 10)), 1),  # 9 by 9: no check
        (87, ("x1 x1", "x2 x2 x2"), 256),  # a free part beside Z/6, at the compact rank
    ],
)
def test_the_homomorphism_reads_the_abelianization(rank, relators, q):
    alphabet = Alphabet(rank)
    p = Presentation(alphabet, tuple(parse_word(r, alphabet) for r in relators))
    assert smallcancel._abelian_weights(p)[1] == q


def test_only_an_index_that_decides_carries_the_homomorphism(platform_group):
    index = _DehnIndex(platform_group)
    assert index.decides and (index.weights, index.q) == smallcancel._abelian_weights(
        platform_group)
    loose = Presentation(A2, (Word(A2, [1, 2, -1, -2]),))  # pieces of 1 letter in 4
    assert not _DehnIndex(loose).decides and _DehnIndex(loose).q == 1


def test_decode_column_rejects_alphabet_mismatch(platform_group):
    column = WordColumn((Word(platform_group.alphabet, [1]), Word(A2, [1])), group_hint=1)
    with pytest.raises(ValueError, match="different alphabets"):
        decode_column(column, platform_group)


# ---------------------------------------------------------------------------
# constructed words

def test_trivial_word_single_bare_factor_is_a_relator(platform_group):
    rng = Random(41)
    symmetric = {r for r in platform_group.relators} | {
        r.inverse() for r in platform_group.relators
    }
    for _ in range(10):
        w = make_trivial_word(platform_group, 1, 0, rng)
        assert w in symmetric


def test_trivial_word_length_bound(platform_group):
    rng = Random(43)
    longest = max(len(r) for r in platform_group.relators)
    for _ in range(20):
        w = make_trivial_word(platform_group, 1, 2, rng)
        assert len(w) <= longest + 4


def test_trivial_word_validation(platform_group):
    with pytest.raises(ValueError):
        make_trivial_word(platform_group, 0, 3, Random(0))
    with pytest.raises(ValueError):
        make_trivial_word(Presentation(A2, ()), 1, 1, Random(0))


def test_trivial_word_exhausts_when_every_product_collapses():
    # relator 0 unsigned, then relator 0 inverted: r r^-1 = 1 on every attempt
    draws = cycle((0, 0, 0, 1))
    rng = SimpleNamespace(getrandbits=lambda k: next(draws))
    p = Presentation(A2, (Word(A2, [1, 2, -1, -2, 1, 2, 2]),))
    with pytest.raises(BudgetExhausted, match="collapsed"):
        make_trivial_word(p, 2, 0, rng)


def test_nontrivial_word_verdict_and_parity(platform_group):
    rng = Random(53)
    for factors in (1, 2, 3):
        for conj in range(8):
            for _ in range(5):
                w = make_nontrivial_word(platform_group, factors, conj, rng)
                assert not dehn_is_trivial(platform_group, w).is_trivial
                # free reduction removes letters in pairs and every factor
                # has 2 * conj + 40 letters, so the length stays even
                assert len(w) % 2 == 0


def test_nontrivial_word_bare_factor_is_one_letter_off_a_relator(platform_group):
    rng = Random(59)
    symmetric = {r for r in platform_group.relators} | {
        r.inverse() for r in platform_group.relators
    }
    for _ in range(20):
        w = make_nontrivial_word(platform_group, 1, 0, rng)
        assert w.is_cyclically_reduced()
        off_by = [sum(a != b for a, b in zip(w.letters, r.letters))
                  for r in symmetric if len(r) == len(w)]
        assert min(off_by) == 1


def test_nontrivial_word_in_power_group():
    # over a rank-1 alphabet every letter other than x1 is x1^-1, which
    # cancels a neighbour, so no substitute letter exists
    p = Presentation(A1, (power(A1, 1, 7),))
    with pytest.raises(ValueError, match="rank-1"):
        make_nontrivial_word(p, 1, 0, Random(0))


def test_nontrivial_word_rejects_bad_length(platform_group):
    with pytest.raises(ValueError):
        make_nontrivial_word(platform_group, 0, 3, Random(0))
    with pytest.raises(ValueError):
        make_nontrivial_word(platform_group, 1, -1, Random(0))
    with pytest.raises(ValueError):
        make_nontrivial_word(Presentation(A2, ()), 1, 1, Random(0))


# ---------------------------------------------------------------------------
# the draws behind constructed words

def letter_of(code):
    return code // 2 if code % 2 == 0 else -(code // 2)


def randrange_codes(length, rank, rng):
    """Packed codes of a non-backtracking word, one ``randrange`` per
    letter: 2m choices first, then the 2m - 1 that do not cancel."""
    codes = []
    if length:
        codes.append(rng.randrange(2 * rank) + 2)
        for _ in range(length - 1):
            pick = rng.randrange(2 * rank - 1) + 2
            if pick >= codes[-1] ^ 1:
                pick += 1
            codes.append(pick)
    return codes


def randrange_product(p, factor_count, conj_length, rng, perturb):
    """The construction as written with one ``Random.randrange`` per draw,
    over ``Word`` values; the packed construction must keep its stream."""
    rank = p.alphabet.rank
    if perturb and rank < 2:
        raise ValueError("no substitute letter exists over a rank-1 alphabet")
    for _ in range(1000):
        altered = rng.randrange(factor_count) if perturb else -1
        acc = Word(p.alphabet, [])
        for i in range(factor_count):
            idx = rng.randrange(len(p.relators))
            sign = 1 if rng.randrange(2) == 0 else -1
            h = Word(p.alphabet, map(letter_of, randrange_codes(conj_length, rank, rng)))
            r = p.relators[idx] if sign > 0 else p.relators[idx].inverse()
            if i == altered:
                rl = r.letters
                pos = rng.randrange(len(rl))
                banned = (rl[pos], -rl[pos - 1], -rl[(pos + 1) % len(rl)])
                subs = [c for c in range(2, 2 * rank + 2) if letter_of(c) not in banned]
                sub = letter_of(subs[rng.randrange(len(subs))])
                r = Word(p.alphabet, rl[:pos] + (sub,) + rl[pos + 1 :])
            acc = acc * h.inverse() * r * h
        if acc:
            return acc
    raise BudgetExhausted("conjugate products collapsed to the identity")


def randrange_column(bits, p, rng):
    """A share column with its 2-3 factors and 3-7 conjugator letters drawn
    by ``randrange``."""
    words = []
    for bit in bits:
        factors = rng.randrange(2, 4)
        conj = rng.randrange(3, 8)
        words.append(randrange_product(p, factors, conj, rng, not bit))
    return tuple(words)


def random_relators(alphabet, rng):
    relators = []
    for _ in range(rng.randrange(1, 4)):
        r = random_reduced_word(rng.randrange(1, 13), alphabet, rng)
        while not r.is_cyclically_reduced():
            r = random_reduced_word(rng.randrange(1, 13), alphabet, rng)
        relators.append(r)
    return Presentation(alphabet, tuple(relators))


def test_word_construction_keeps_the_randrange_stream():
    # the same words and the same generator state afterwards, for both bit
    # values, ranks 1-20 and conjugators of 0-60 letters
    setup, sampler = Random(89), Random(97)
    ours, theirs = Random(101), Random(101)
    refused = 0
    for rank in range(1, 21):
        p = random_relators(Alphabet(rank), setup)
        for conj in range(61):
            factors = 1 + conj % 4
            for bit in (1, 0):
                if not bit and rank < 2:
                    with pytest.raises(ValueError):
                        make_nontrivial_word(p, factors, conj, ours)
                    continue
                build = make_trivial_word if bit else make_nontrivial_word
                assert build(p, factors, conj, ours) == randrange_product(
                    p, factors, conj, theirs, not bit
                )
                assert ours.getstate() == theirs.getstate()
        # a column draws each word's factor and conjugator counts first; it
        # is dealt only over a C'(1/6) group, so the random relators are
        # refused exactly where they fail the condition
        bits = [setup.randrange(2) for _ in range(8)] if rank > 1 else [1] * 8
        if check_small_cancellation(p, SIXTH).satisfied:
            encode_column(bits, p, Random(0), group_hint=1)
        else:
            with pytest.raises(ValueError, match=r"does not satisfy C'\(1/6\)"):
                encode_column(bits, p, ours, group_hint=1)
            refused += 1
        g = random_platform_group(rank, 1, 8 if rank == 1 else 24, SIXTH, sampler)
        column = encode_column(bits, g, ours, group_hint=1)
        assert column.words == randrange_column(bits, g, theirs)
        assert ours.getstate() == theirs.getstate()
    assert refused == 15


def test_conjugates_keep_the_randrange_stream_over_short_relators():
    # relators of 7-16 letters with conjugators of 0-10 letters put h both
    # shorter and longer than half of r, with h cancelling into the head of
    # r, its tail, or neither.  At rank 1 a long enough h = x^j starts with
    # all of r = x^L.
    setup = Random(113)
    ours, theirs = Random(127), Random(127)
    for rank in (1, 2, 3, 5):
        for length in range(7, 17):
            relators = []
            for _ in range(2):
                r = random_reduced_word(length, Alphabet(rank), setup)
                while not r.is_cyclically_reduced():
                    r = random_reduced_word(length, Alphabet(rank), setup)
                relators.append(r)
            p = Presentation(Alphabet(rank), tuple(relators))
            for conj in range(11):
                for bit in (1, 0) if rank > 1 else (1,):
                    chars = _conjugated_product(p, 3, conj, ours, not bit)
                    assert chars == randrange_product(p, 3, conj, theirs, not bit).chars
                    assert ours.getstate() == theirs.getstate()
