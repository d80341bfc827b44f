import re
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from groupshare import freegroup
from groupshare.freegroup import (
    _COMPACT_RANK,
    _FLIP,
    _LETTERS,
    _SERIALIZE,
    _cancels,
    _compact_text,
    _invert_chars,
    _merge_chars,
    _parse_words,
    _reduce_chars,
    Alphabet,
    Word,
    cyclic_permutations,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)

A2 = Alphabet(2)
A3 = Alphabet(3)


def naive_reduce(letters):
    """Independent stack reducer over plain ints."""
    out = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@st.composite
def raw_words(draw, max_rank=4, max_len=40):
    m = draw(st.integers(1, max_rank))
    letters = draw(
        st.lists(st.integers(-m, m).filter(lambda x: x != 0), max_size=max_len)
    )
    return Alphabet(m), letters


def test_alphabet_requires_positive_rank():
    with pytest.raises(ValueError):
        Alphabet(0)


def test_alphabet_rank_stops_where_letters_stop_being_code_points():
    # x_rank^-1 packs as code point 2 * rank + 1, and 0x10FFFF is the last
    alphabet = Alphabet(557055)
    w = Word(alphabet, [1, -557055, 557054])
    assert max(map(ord, w.chars)) == 0x10FFFF
    assert parse_word(serialize_word(w), alphabet) == w
    with pytest.raises(ValueError, match=r"^alphabet rank must lie in 1\.\.557055, got 557056$"):
        Alphabet(557056)


def test_reduce_examples():
    assert Word(A2, [1, -1]).letters == ()
    assert Word(A3, [1, 2, -2, 3]).letters == (1, 3)
    assert Word(A2, [1, 2, -1]).letters == (1, 2, -1)


def test_reduce_rejects_out_of_range_letters():
    with pytest.raises(ValueError):
        Word(A2, [3])
    with pytest.raises(ValueError):
        Word(A2, [0])


@given(raw_words())
def test_reduce_matches_naive_oracle(case):
    alphabet, letters = case
    assert Word(alphabet, letters).letters == naive_reduce(letters)


@given(raw_words())
def test_reduce_idempotent(case):
    alphabet, letters = case
    once = Word(alphabet, letters)
    assert Word(alphabet, once.letters) == once


def test_invert_examples():
    assert Word(A2, [1, 2]).inverse().letters == (-2, -1)
    assert Word(A2, []).inverse().letters == ()
    assert Word(A2, [-1]).inverse().letters == (1,)


@given(raw_words())
def test_word_times_inverse_is_identity(case):
    alphabet, letters = case
    w = Word(alphabet, letters)
    assert not w * w.inverse()
    assert not w.inverse() * w


def test_concat_examples():
    assert (Word(A3, [1, 2]) * Word(A3, [-2, 3])).letters == (1, 3)
    w = Word(A3, [1, -3, 2])
    assert w * Word(A3, []) == w
    assert not Word(A3, [1]) * Word(A3, [-1])


@st.composite
def seam_pairs(draw):
    """Two reduced packed strings over ranks 1-20: a, and b reduced from
    the inverse of the last 0 to |a| letters of a followed by free letters,
    so the seam cancels nothing, part of either string, or all of one or
    both."""
    alphabet = Alphabet(draw(st.integers(1, 20)))
    letters = st.lists(st.integers(-alphabet.rank, alphabet.rank).filter(bool), max_size=12)
    a = Word(alphabet, draw(letters)).chars
    cut = draw(st.integers(0, len(a)))
    tail = Word(alphabet, draw(letters)).chars
    return a, _reduce_chars(_invert_chars(a[len(a) - cut :]) + tail)


SEAM = Word(A3, [1, 2, -3, 2]).chars
SEAM_INVERSE = _invert_chars(SEAM)


# nothing to merge, full cancellation, cancellation that uses up b or a,
# and seam letters that do not cancel (the pairs are also tried reversed)
@given(seam_pairs())
@example(("", ""))
@example((SEAM, ""))
@example((SEAM, SEAM_INVERSE))
@example((SEAM, SEAM_INVERSE[:2]))
@example((SEAM[:2], SEAM_INVERSE))
@example((SEAM, Word(A3, [3, 1]).chars))
def test_merge_matches_reducing_the_concatenation(pair):
    a, b = pair
    assert _merge_chars(a, b) == _reduce_chars(a + b)
    assert _merge_chars(b, a) == _reduce_chars(b + a)


def test_concat_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        Word(A2, [1]) * Word(A3, [1])


def test_conjugate_examples():
    x1, x2, empty = Word(A2, [1]), Word(A2, [2]), Word(A2, [])
    assert (x1.inverse() * x2 * x1).letters == (-1, 2, 1)
    w = Word(A2, [1, 2, -1])
    assert empty.inverse() * w * empty == w
    assert (x2.inverse() * Word(A2, [1, 2]) * x2).letters == (-2, 1, 2, 2)


def test_cyclically_reduce_examples():
    assert cyclically_reduce(Word(A2, [1, 2, -1])).letters == (2,)
    assert cyclically_reduce(Word(A2, [1, 2])).letters == (1, 2)
    assert cyclically_reduce(Word(A2, [-1, 2, 2, 1])).letters == (2, 2)


@given(raw_words())
def test_cyclic_reduction_never_grows(case):
    alphabet, letters = case
    w = Word(alphabet, letters)
    core = cyclically_reduce(w)
    assert len(core) <= len(w)
    assert core.is_cyclically_reduced()


@given(raw_words(), raw_words())
def test_cyclic_class_invariant_under_conjugation(case, hcase):
    alphabet, letters = case
    _, h_letters = hcase
    w = Word(alphabet, letters)
    h = Word(alphabet, [l for l in h_letters if abs(l) <= alphabet.rank])
    a = cyclically_reduce(w)
    b = cyclically_reduce(h.inverse() * w * h)
    assert cyclic_permutations(a) == cyclic_permutations(b)


def test_cyclic_permutations_examples():
    perms = cyclic_permutations(Word(A2, [1, 2]))
    assert {p.letters for p in perms} == {(1, 2), (2, 1)}
    assert {p.letters for p in cyclic_permutations(Word(A2, [1, 1]))} == {(1, 1)}
    empty = Word(A2, [])
    assert cyclic_permutations(empty) == frozenset((empty,))


def test_cyclic_permutations_rejects_unreduced_cyclic_input():
    with pytest.raises(ValueError):
        cyclic_permutations(Word(A2, [1, 2, -1]))


@given(raw_words())
def test_cyclic_permutations_preserve_length(case):
    alphabet, letters = case
    w = cyclically_reduce(Word(alphabet, letters))
    assert all(len(p) == len(w) for p in cyclic_permutations(w))


def test_random_reduced_word_length_zero():
    assert not random_reduced_word(0, A2, Random(3))


def test_random_reduced_word_length_one_support():
    seen = {random_reduced_word(1, A2, Random(seed)).letters for seed in range(200)}
    assert seen == {(1,), (-1,), (2,), (-2,)}


def test_random_reduced_word_long_scan():
    w = random_reduced_word(10_000, A2, Random(11))
    letters = w.letters
    assert len(letters) == 10_000
    assert all(letters[i] != -letters[i + 1] for i in range(len(letters) - 1))


def test_random_reduced_word_deterministic():
    assert random_reduced_word(50, A3, Random(7)) == random_reduced_word(50, A3, Random(7))


def test_random_reduced_word_rejects_negative_length():
    with pytest.raises(ValueError):
        random_reduced_word(-1, A2, Random(0))


def randrange_reduced_word(length, alphabet, rng):
    """The one-``randrange``-per-letter draw whose stream the packed draw
    keeps: first letter uniform over 2m codes, each later one over the
    2m - 1 codes that do not cancel the one before."""
    m = alphabet.rank
    codes = []
    if length:
        codes.append(rng.randrange(2 * m) + 2)
        for _ in range(length - 1):
            pick = rng.randrange(2 * m - 1) + 2
            if pick >= codes[-1] ^ 1:
                pick += 1
            codes.append(pick)
    return Word(alphabet, [c // 2 if c % 2 == 0 else -(c // 2) for c in codes])


def test_random_reduced_word_keeps_the_randrange_stream():
    # the same word and the same generator state afterwards, so every draw
    # after it in a session is unchanged too
    ours, theirs = Random(97), Random(97)
    for rank in range(1, 21):
        alphabet = Alphabet(rank)
        for length in range(61):
            assert random_reduced_word(length, alphabet, ours) == randrange_reduced_word(
                length, alphabet, theirs
            )
            assert ours.getstate() == theirs.getstate()


def test_parse_examples():
    assert parse_word("x1 x2^-1", A2).letters == (1, -2)
    assert parse_word("", A2).letters == ()
    assert parse_word("x1 x1^-1 x3", A3).letters == (3,)


@pytest.mark.parametrize("text", ["y1", "x1^2", "x0", "x3", "x1^", "x-1"])
def test_parse_rejects_malformed_tokens(text):
    with pytest.raises(ValueError):
        parse_word(text, A2)


def test_serialize_examples():
    assert serialize_word(Word(A3, [1, -2, 3])) == "x1 x2^-1 x3"
    assert serialize_word(Word(A3, [])) == ""


# from rank 20 on, packed letters include regex metacharacters such as ( ) * +
@given(raw_words(max_rank=200, max_len=60))
def test_serialize_parse_round_trip(case):
    alphabet, letters = case
    w = Word(alphabet, letters)
    assert parse_word(serialize_word(w), alphabet) == w
    text = serialize_word(w)
    assert serialize_word(parse_word(text, alphabet)) == text


def test_word_is_immutable():
    w = Word(A2, [1, 2])
    with pytest.raises(AttributeError):
        w.chars = ""


# ---------------------------------------------------------------------------
# the text codec against the per-letter formatting it replaced

def reference_text(letters):
    return " ".join(f"x{i}" if i > 0 else f"x{-i}^-1" for i in letters)


@given(raw_words(max_rank=200, max_len=60))
def test_serialize_matches_reference_formatting(case):
    alphabet, letters = case
    w = Word(alphabet, letters)
    assert serialize_word(w) == reference_text(w.letters)


@given(raw_words(max_rank=200, max_len=60))
def test_parse_reduces_unreduced_text(case):
    alphabet, letters = case
    assert parse_word(reference_text(letters), alphabet).letters == naive_reduce(letters)


def test_codec_beyond_the_table_rank():
    alphabet = Alphabet(3000)
    w = Word(alphabet, [1, -2999, 3000, 257, -256, 17, -16, 2, -2])
    assert serialize_word(w) == reference_text(w.letters) == (
        "x1 x2999^-1 x3000 x257 x256^-1 x17 x16^-1"
    )
    assert parse_word(serialize_word(w), alphabet) == w
    with pytest.raises(ValueError, match="^generator index 3001 outside rank 3000$"):
        parse_word("x1 x3001", alphabet)


# small ranks, and the ranks around _COMPACT_RANK = 87, where parse_word
# leaves the per-rank tables for _parse_tokens
BOUNDARY_RANKS = (1, 15, 16, 17, 20, 86, 87, 88)


@pytest.mark.parametrize("rank", BOUNDARY_RANKS)
def test_parse_rejects_the_generator_above_the_rank(rank):
    alphabet = Alphabet(rank)
    message = f"^generator index {rank + 1} outside rank {rank}$"
    for text in (f"x{rank + 1}", f"x1 x{rank + 1}^-1", f"x{rank} x{rank + 1} x1"):
        with pytest.raises(ValueError, match=message):
            parse_word(text, alphabet)


@pytest.mark.parametrize("rank", BOUNDARY_RANKS)
def test_parse_reduces_at_every_rank(rank):
    alphabet = Alphabet(rank)
    assert parse_word(f"x{rank} x{rank}^-1", alphabet).letters == ()
    assert parse_word(f"x1 x{rank}^-1 x{rank} x1^-1 x{rank}", alphabet).letters == (rank,)
    letters = [g * s for g in range(1, rank + 1) for s in (1, -1)]
    assert parse_word(reference_text(letters), alphabet).letters == ()
    assert parse_word(reference_text(letters[1:]), alphabet).letters == naive_reduce(letters[1:])


@pytest.mark.parametrize("rank", BOUNDARY_RANKS)
def test_parse_splits_on_any_whitespace(rank):
    alphabet = Alphabet(rank)
    text = f"\tx{rank}\nx{rank} \t x1^-1\r\n"
    assert parse_word(text, alphabet).letters == naive_reduce((rank, rank, -1))
    assert parse_word(" \t\n", alphabet).letters == ()


@pytest.mark.parametrize("rank", BOUNDARY_RANKS + (200,))
def test_serialize_every_letter_of_the_rank(rank):
    for sign in (1, -1):
        letters = [sign * g for g in range(1, rank + 1) for _ in range(2)]
        assert serialize_word(Word(Alphabet(rank), letters)) == reference_text(letters)


def test_codec_tables_work_out_each_entry_once(monkeypatch):
    worked_out = []
    for table in (_SERIALIZE, _FLIP):
        entry = table.entry
        monkeypatch.setattr(
            table, "entry", lambda key, entry=entry: worked_out.append(key) or entry(key)
        )
    w = Word(Alphabet(5000), [4321, -4322, 4321])
    for _ in range(3):
        assert serialize_word(w) == "x4321 x4322^-1 x4321"
        assert w.inverse().letters == (-4321, 4322, -4321)
    # one code of each letter for serializing, and for inverting
    assert len(worked_out) == len(set(worked_out)) == 4


@pytest.mark.parametrize(
    "text, letters",
    [("x01", (1,)), ("x01^-1 x002", (-1, 2)), ("  x3\tx2\n", (3, 2)), ("x1 x01^-1", ())],
)
def test_parse_accepts_noncanonical_spellings(text, letters):
    assert parse_word(text, A3).letters == letters


@pytest.mark.parametrize(
    "text, message",
    [
        ("x0", "generator index 0 outside rank 3"),
        ("x4", "generator index 4 outside rank 3"),
        ("x1 x2 x4^-1", "generator index 4 outside rank 3"),
        ("x1^-2", "malformed word token 'x1^-2'"),
        ("y1", "malformed word token 'y1'"),
        ("x9 y1", "generator index 9 outside rank 3"),
        ("y1 x9", "malformed word token 'y1'"),
        ("x20", "generator index 20 outside rank 3"),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_word(text, A3)


# ---------------------------------------------------------------------------
# the compact spelling that share bundles carry: one character per letter

def compact_reference(letters):
    return "".join(_LETTERS[2 * i - 2] if i > 0 else _LETTERS[-2 * i - 1] for i in letters)


def test_compact_characters_are_the_printable_latin1_that_spell_no_token():
    assert _COMPACT_RANK == 87 and len(_LETTERS) == 175 == len(set(_LETTERS))
    assert _LETTERS[:6] == '!"#$%&' and _LETTERS[-1] == "\xff"
    assert all(c.isprintable() and ord(c) < 256 for c in _LETTERS)
    assert not set(_LETTERS) & set(" x0123456789^-")
    assert len(_LETTERS.split()) == len(_LETTERS.splitlines()) == 1


@given(raw_words(max_rank=_COMPACT_RANK, max_len=60))
@example((Alphabet(_COMPACT_RANK), [_COMPACT_RANK, -_COMPACT_RANK, 1]))
def test_compact_round_trip_at_every_rank(case):
    alphabet, letters = case
    w = Word(alphabet, letters)
    text = _compact_text(w)
    assert len(text) == len(w) and text == compact_reference(w.letters)
    assert parse_word(text, alphabet) == w


@given(raw_words(max_rank=_COMPACT_RANK, max_len=60))
def test_compact_parse_reduces_unreduced_text(case):
    alphabet, letters = case
    assert parse_word(compact_reference(letters), alphabet).letters == naive_reduce(letters)


def test_compact_codec_at_every_rank():
    for rank in range(1, _COMPACT_RANK + 1):
        alphabet = Alphabet(rank)
        w = Word(alphabet, [*range(1, rank + 1), *range(-1, -rank - 1, -1)])
        assert parse_word(_compact_text(w), alphabet) == w
        letters = [g * s for g in range(1, rank + 1) for s in (1, -1)]
        assert parse_word(compact_reference(letters), alphabet).letters == ()
        assert parse_word(compact_reference(letters[1:]), alphabet).letters == naive_reduce(
            letters[1:])
        assert parse_word(compact_reference([rank, 1, -1, rank]), alphabet).letters == (
            rank, rank)


@pytest.mark.parametrize(
    "rank, text, message",
    [
        (3, "!!'", "malformed word token \"!!'\""),  # ' spells x4
        (3, "!! #", "malformed word token '!!'"),
        (3, "!x1", "malformed word token '!x1'"),
        (3, "!x3 #", "malformed word token '!x3'"),
        (3, "x1 !", "malformed word token '!'"),
        (40, "!\xa1", "malformed word token '!\xa1'"),  # the first Latin-1 letter is x41
        (87, "\xfe\xff", "malformed word token '\xfe\xff'"),  # the 175th character spells none
        (87, "!\u0100", "malformed word token '!\u0100'"),
    ],
)
def test_compact_text_outside_the_rank_raises_the_token_message(rank, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_word(text, Alphabet(rank))


def test_compact_spelling_stops_at_its_rank():
    with pytest.raises(ValueError, match="^the compact spelling has letters for rank 87 at most"):
        _compact_text(Word(Alphabet(_COMPACT_RANK + 1), [1]))
    # past it, parse_word reads tokens only, as before
    with pytest.raises(ValueError, match="^malformed word token '!'$"):
        parse_word("!", Alphabet(_COMPACT_RANK + 1))


def test_parse_builds_the_tables_of_the_ranks_it_reads_only(monkeypatch):
    monkeypatch.setattr(freegroup, "_PARSE", freegroup._Table(freegroup._parse_tables))
    assert parse_word('!"%', A3).letters == (3,)
    assert parse_word("x1 x2", A2).letters == (1, 2)
    assert parse_word("x1 x2", Alphabet(_COMPACT_RANK + 1)).letters == (1, 2)
    assert sorted(freegroup._PARSE) == [2, 3]


# ---------------------------------------------------------------------------
# the bundle reader: many texts read as one

@given(st.lists(st.sampled_from([0, *range(2, 2 * _COMPACT_RANK + 2)])))
def test_cancelling_pair_test_finds_exactly_the_adjacent_inverses(codes):
    expected = any(a and b == a ^ 1 for a, b in zip(codes, codes[1:]))
    assert _cancels("".join(map(chr, codes))) == expected


def bundle_cases(rank, rng):
    """Letter lists of every length from 0, with a cancelling pair put into some."""
    cases = []
    for i in range(40):
        letters = list(random_reduced_word(rng.randrange(0, 50), Alphabet(rank), rng).letters)
        if i % 4 == 3:
            g = rng.choice([-1, 1]) * rng.randrange(1, rank + 1)
            at = rng.randrange(0, len(letters) + 1)
            letters[at:at] = [g, -g]
        cases.append(letters)
    return cases


@pytest.mark.parametrize("rank", [1, 3, 40, 60, 87])
def test_the_bundle_reader_reads_what_parse_word_reads(rank, monkeypatch):
    alphabet, rng = Alphabet(rank), Random(rank)
    cases = bundle_cases(rank, rng)
    expected = [Word(alphabet, letters) for letters in cases]
    reduced = [letters for letters in cases if list(naive_reduce(letters)) == letters]
    compact = [compact_reference(letters) for letters in cases]
    tokens = [reference_text(letters) for letters in cases]
    for texts, words in [
        (compact, expected),
        ([compact_reference(letters) for letters in reduced], [Word(alphabet, letters)
                                                               for letters in reduced]),
        (tokens, expected),
        ([c if i % 2 else t for i, (c, t) in enumerate(zip(compact, tokens))], expected),
        ([], []),
        ([""], [Word(alphabet)]),
        (["", "", ""], [Word(alphabet)] * 3),
    ]:
        assert _parse_words(texts, alphabet) == [parse_word(t, alphabet) for t in texts] == words
    # reduced compact texts, as a dealt bundle holds them, take no text on its own
    monkeypatch.setattr(freegroup, "_parse_text", None)
    assert _parse_words([compact_reference(letters) for letters in reduced], alphabet) == [
        Word(alphabet, letters) for letters in reduced]


@pytest.mark.parametrize("text", ["!\0#", "\0", "!\0", "x1\0", "\0x1"])
def test_a_nul_in_a_text_raises_the_token_message(text):
    message = f"^malformed word token {re.escape(repr(text.split()[0]))}$"
    with pytest.raises(ValueError, match=message):
        parse_word(text, A3)
    with pytest.raises(ValueError, match=message):
        _parse_words(["!", text, "#"], A3)
