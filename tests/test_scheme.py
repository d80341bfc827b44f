from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare import scheme
from groupshare.freegroup import Word, random_reduced_word, serialize_word
from groupshare.scheme import (
    SessionConfig,
    WordColumn,
    column_to_int,
    deal_nn,
    deal_tn,
    decode_column,
    encode_column,
    int_to_column,
    recover_secret_nn,
    recover_share,
    split_secret,
)
from groupshare.shamir import PrimeModulus, interpolate_at_zero
from groupshare.smallcancel import (
    _dehn_index,
    _dehn_scan,
    dehn_is_trivial,
    make_trivial_word,
    random_platform_group,
)
from groupshare.tietze import break_relators

bit_columns = st.lists(st.integers(0, 1), min_size=1, max_size=48).map(tuple)


# ---------------------------------------------------------------------------
# bit plumbing

def test_split_xor_identity_example():
    # with C = (1,0,1) and first share (0,1,1), the correction is (1,1,0)
    c = (1, 0, 1)
    shares = split_secret(c, 2, Random(0))
    assert shares[0] != c or True  # first share is random; identity is on the xor
    assert tuple(a ^ b for a, b in zip(*shares)) == c


@settings(max_examples=40)
@given(bit_columns, st.integers(2, 6), st.integers(0, 2**32))
def test_split_then_recover(col, n, seed):
    shares = split_secret(col, n, Random(seed))
    assert len(shares) == n
    assert recover_secret_nn(shares) == col


def test_split_all_zero_column():
    shares = split_secret((0,) * 8, 3, Random(5))
    assert recover_secret_nn(shares) == (0,) * 8


def test_split_validates():
    with pytest.raises(ValueError):
        split_secret((1, 0), 1, Random(0))
    with pytest.raises(ValueError):
        split_secret((2, 0), 2, Random(0))


def test_recover_validates():
    with pytest.raises(ValueError):
        recover_secret_nn([(1, 0)])
    with pytest.raises(ValueError):
        recover_secret_nn([(1, 0), (1, 0, 1)])


def test_recover_flipped_bit_flips_secret():
    shares = split_secret((1, 0, 1, 1), 3, Random(7))
    tampered = list(shares)
    tampered[1] = tuple(b ^ (i == 2) for i, b in enumerate(tampered[1]))
    good = recover_secret_nn(shares)
    bad = recover_secret_nn(tampered)
    assert [a ^ b for a, b in zip(good, bad)] == [0, 0, 1, 0]


def test_int_column_examples():
    assert int_to_column(5, 4) == (0, 1, 0, 1)
    assert int_to_column(0, 6) == (0,) * 6
    with pytest.raises(ValueError):
        int_to_column(16, 4)
    with pytest.raises(ValueError):
        column_to_int((0, 2))


def test_int_column_round_trip_exhaustive():
    for k in range(1, 17):
        step = 1 if k <= 8 else 257  # full sweep for small k, strided above
        for y in range(0, 1 << k, step):
            assert column_to_int(int_to_column(y, k)) == y


# ---------------------------------------------------------------------------
# word columns

def test_encode_all_ones_decodes_all_ones(platform_group):
    rng = Random(11)
    wc = encode_column((1,) * 6, platform_group, rng, group_hint=1)
    assert decode_column(wc, platform_group) == (1,) * 6


def test_encode_all_zeros_decodes_all_zeros(platform_group):
    rng = Random(12)
    wc = encode_column((0,) * 6, platform_group, rng, group_hint=1)
    assert decode_column(wc, platform_group) == (0,) * 6


def test_encode_decode_round_trip_random_shares(platform_group):
    rng = Random(13)
    for _ in range(20):
        share = tuple(rng.getrandbits(1) for _ in range(10))
        wc = encode_column(share, platform_group, rng, group_hint=1)
        assert decode_column(wc, platform_group) == share


def test_encode_column_needs_a_participant(platform_group):
    with pytest.raises(TypeError):
        encode_column((1, 0), platform_group, Random(1))


def test_decode_identity_words_are_ones(platform_group):
    alphabet = platform_group.alphabet
    wc = WordColumn((Word(alphabet, []),) * 4, group_hint=1)
    assert decode_column(wc, platform_group) == (1, 1, 1, 1)


def test_decode_single_letters_are_zeros(platform_group):
    alphabet = platform_group.alphabet
    wc = WordColumn((Word(alphabet, [1]), Word(alphabet, [-2])), group_hint=1)
    assert decode_column(wc, platform_group) == (0, 0)


def test_word_lengths_carry_no_bit_information(platform_group):
    rng = Random(17)
    ones = encode_column((1,) * 150, platform_group, rng, group_hint=1)
    zeros = encode_column((0,) * 150, platform_group, rng, group_hint=1)
    a = sorted(len(w) for w in ones.words)
    b = sorted(len(w) for w in zeros.words)
    # two-sample Kolmogorov-Smirnov distance
    values = sorted(set(a) | set(b))
    d = max(
        abs(
            sum(x <= v for x in a) / len(a) - sum(x <= v for x in b) / len(b)
        )
        for v in values
    )
    assert d < 0.15
    # free reduction removes letters in pairs, so a construction that added
    # or dropped a letter for 0 bits would show in the parity of every word
    odd_ones = sum(x % 2 for x in a) / len(a)
    odd_zeros = sum(x % 2 for x in b) / len(b)
    assert abs(odd_ones - odd_zeros) < 0.15


# ---------------------------------------------------------------------------
# dealing

def test_deal_nn_round_trip(platform_groups):
    rng = Random(19)
    secret = tuple(rng.getrandbits(1) for _ in range(16))
    columns = deal_nn(secret, platform_groups, rng)
    assert [c.group_hint for c in columns] == [1, 2, 3]
    decoded = [decode_column(c, g) for c, g in zip(columns, platform_groups)]
    assert recover_secret_nn(decoded) == secret


def test_session_config_validation():
    SessionConfig(n=5, t=3, k=13, p=PrimeModulus(8191))
    with pytest.raises(ValueError):
        SessionConfig(n=5, t=6, k=13, p=PrimeModulus(8191))
    with pytest.raises(ValueError):
        SessionConfig(n=12, t=3, k=4, p=PrimeModulus(11))
    with pytest.raises(ValueError):
        SessionConfig(n=3, t=2, k=3, p=PrimeModulus(11))  # k below bit length
    with pytest.raises(ValueError):
        SessionConfig(n=3, t=2, k=0, p=PrimeModulus(11))


def test_deal_tn_any_threshold_subset_recovers(platform_groups):
    from itertools import combinations

    p = PrimeModulus(11)
    cfg = SessionConfig(n=3, t=2, k=4, p=p)
    rng = Random(23)
    secret = 5
    columns = deal_tn(secret, cfg, platform_groups, rng)
    points = [recover_share(c, g, 11) for c, g in zip(columns, platform_groups)]
    assert [pt.index for pt in points] == [1, 2, 3]
    for subset in combinations(points, 2):
        assert interpolate_at_zero(subset, 11) == secret


def test_word_columns_carry_known_polynomial_values(platform_groups):
    # f = 5 + 3x + 2x^2 mod 11 takes the values 10, 8, 10 at 1, 2, 3
    rng = Random(41)
    values = (10, 8, 10)
    columns = [
        encode_column(int_to_column(y, 4), g, rng, group_hint=j)
        for j, (y, g) in enumerate(zip(values, platform_groups), start=1)
    ]
    points = [recover_share(c, g, 11) for c, g in zip(columns, platform_groups)]
    assert tuple(pt.value for pt in points) == values
    assert interpolate_at_zero(points, 11) == 5


def test_deal_tn_threshold_one_sends_secret_to_everyone(platform_groups):
    p = PrimeModulus(11)
    cfg = SessionConfig(n=3, t=1, k=4, p=p)
    columns = deal_tn(7, cfg, platform_groups, Random(29))
    for c, g in zip(columns, platform_groups):
        assert recover_share(c, g, 11).value == 7


def test_deal_tn_validates(platform_groups):
    cfg = SessionConfig(n=3, t=2, k=4, p=PrimeModulus(11))
    with pytest.raises(ValueError):
        deal_tn(5, cfg, platform_groups[:2], Random(0))


def test_recover_share_flags_out_of_range_value(platform_group):
    # all-ones decode of a 4-bit column is 15, not a residue mod 11
    wc = WordColumn((Word(platform_group.alphabet, []),) * 4, group_hint=2)
    with pytest.raises(ValueError, match="not a residue"):
        recover_share(wc, platform_group, 11)


def test_decoding_refuses_a_presentation_dehn_cannot_decide(platform_group):
    # tietze-break output presents the same group, but Dehn's algorithm
    # leaves some of its trivial words unreduced, which would read as 0 bits
    broken = break_relators(platform_group).presentation
    rng = Random(41)
    words = tuple(Word(broken.alphabet, make_trivial_word(platform_group, 2, 5, rng).letters)
                  for _ in range(13))
    assert not all(dehn_is_trivial(broken, w).is_trivial for w in words)
    wc = WordColumn(words, group_hint=4)
    refused = r"participant 4's presentation does not satisfy C'\(1/6\)"
    with pytest.raises(ValueError, match=refused):
        decode_column(wc, broken)
    with pytest.raises(ValueError, match=refused):
        recover_share(wc, broken, 8191)


def test_encoding_refuses_a_presentation_dehn_cannot_decide(platform_groups):
    # a C'(1/2) sample: no holder could read its words, so nothing is dealt
    loose = random_platform_group(3, 3, 10, "1/2", Random(1))
    groups = (platform_groups[0], loose, platform_groups[2])
    refused = r"participant 2's presentation does not satisfy C'\(1/6\)"
    rng = Random(43)
    state = rng.getstate()
    with pytest.raises(ValueError, match=refused):
        encode_column([1, 0, 1], loose, rng, group_hint=2)
    assert rng.getstate() == state  # refused before its first draw
    with pytest.raises(ValueError, match=refused):
        deal_nn([1, 0, 1, 1], groups, rng)
    with pytest.raises(ValueError, match=refused):
        deal_tn(5, SessionConfig(n=3, t=2, k=4, p=PrimeModulus(11)), groups, rng)


def test_decode_column_reads_what_dehn_reads():
    # over sampled groups of several shapes, some with a free abelianization
    # (fewer relators than generators), on dealt and on random columns
    rng = Random(2028)
    shapes = [(3, 3, 40), (3, 2, 30), (4, 3, 36), (4, 2, 24), (2, 3, 48)]
    settled = 0
    for i in range(50):
        g = random_platform_group(*shapes[i % len(shapes)], "1/6", rng)
        index = _dehn_index(g)
        dealt = encode_column([rng.getrandbits(1) for _ in range(16)], g, rng, group_hint=1)
        noise = WordColumn(tuple(random_reduced_word(rng.randrange(0, 60), g.alphabet, rng)
                                 for _ in range(16)), group_hint=1)
        for wc in (dealt, noise):
            bits = decode_column(wc, g)
            assert bits == tuple(int(not _dehn_scan(index, w.chars)) for w in wc.words)
        settled += index.q > 1
    assert settled >= 45


def test_most_dealt_zero_bits_skip_the_dehn_scan(monkeypatch):
    scans = []
    scan = scheme._dehn_scan
    monkeypatch.setattr(scheme, "_dehn_scan",
                        lambda index, chars: scans.append(chars) or scan(index, chars))
    rng = Random(28)
    zeros = 0
    for _ in range(30):
        g = random_platform_group(3, 3, 40, "1/6", rng)
        assert decode_column(encode_column((0,) * 40, g, rng, group_hint=1), g) == (0,) * 40
        zeros += 40
    assert len(scans) <= 0.1 * zeros
    # a 1 bit always takes its scan
    scans.clear()
    assert decode_column(encode_column((1,) * 8, g, rng, group_hint=1), g) == (1,) * 8
    assert len(scans) == 8


def test_wrong_group_does_not_decode(platform_groups):
    rng = Random(31)
    share = tuple(rng.getrandbits(1) for _ in range(12))
    wc = encode_column(share, platform_groups[0], rng, group_hint=1)
    assert decode_column(wc, platform_groups[0]) == share
    assert decode_column(wc, platform_groups[1]) != share


def test_no_word_repeats_across_deals(platform_groups):
    rng = Random(37)
    seen = set()
    total = 0
    for secret in range(30):
        cfg = SessionConfig(n=3, t=2, k=4, p=PrimeModulus(11))
        for column in deal_tn(secret % 11, cfg, platform_groups, rng):
            for w in column.words:
                seen.add((column.group_hint, serialize_word(w)))
                total += 1
    assert len(seen) == total
