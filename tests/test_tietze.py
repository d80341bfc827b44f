from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.freegroup import (
    Alphabet,
    Word,
    cyclic_permutations,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)
from groupshare.smallcancel import Presentation, random_platform_group
from groupshare.smallcancel import make_trivial_word_certified
from groupshare.tietze import (
    BreakdownResult,
    InvertGenerator,
    RightMultiplyGenerator,
    T1Intro,
    T4Replace,
    apply_move,
    apply_t1,
    apply_t2,
    apply_t3,
    apply_t4prime,
    break_relators,
    expand_word,
    replay,
    serialize_breakdown,
)

A1 = Alphabet(1)
A2 = Alphabet(2)
A3 = Alphabet(3)


def power(alphabet, gen, k):
    return Word(alphabet, [gen] * k if k >= 0 else [-gen] * (-k))


def worked_example():
    return Presentation(
        A3, (parse_word("x1 x1 x2 x2 x2", A3), parse_word("x1 x2 x2 x1^-1 x3", A3))
    )


def random_presentation(rng, rank, n_rel, lmin, lmax):
    alphabet = Alphabet(rank)
    words = []
    while len(words) < n_rel:
        w = random_reduced_word(rng.randrange(lmin, lmax + 1), alphabet, rng)
        if w.is_cyclically_reduced() and w not in words:
            words.append(w)
    return Presentation(alphabet, tuple(words))


# ---------------------------------------------------------------------------
# T1 / T2

def test_t1_basic_example():
    p = Presentation(A1, ())
    q = apply_t1(p, Word(A1, [1, 1]))
    assert q.alphabet.rank == 2
    assert [serialize_word(r) for r in q.relators] == ["x2 x1^-1 x1^-1"]


def test_t1_on_worked_example():
    q = apply_t1(worked_example(), parse_word("x1 x1", A3))
    assert q.alphabet.rank == 4
    assert serialize_word(q.relators[-1]) == "x4 x1^-1 x1^-1"


def test_t1_empty_definition_yields_single_letter_relator():
    q = apply_t1(Presentation(A1, ()), Word(A1, []))
    assert serialize_word(q.relators[-1]) == "x2"


def test_t1_rejects_foreign_word():
    with pytest.raises(ValueError):
        apply_t1(Presentation(A1, ()), Word(A2, [2]))


def test_t2_inverts_t1():
    rng = Random(3)
    for _ in range(10):
        p = random_presentation(rng, 3, 2, 4, 9)
        s = random_reduced_word(rng.randrange(0, 6), p.alphabet, rng)
        q = apply_t1(p, s)
        assert apply_t2(q, q.alphabet.rank) == p


def test_t2_plain_cancel():
    p = Presentation(A2, (parse_word("x2 x1^-1 x1^-1 x1^-1", A2),))
    q = apply_t2(p, 2)
    assert q.alphabet.rank == 1 and q.relators == ()


def test_t2_accepts_rotated_or_inverted_defining_relator():
    # x1 x1 x2^-1 is a rotated inverse of the definition x2 = x1 x1
    p = Presentation(A2, (parse_word("x1 x1 x2^-1", A2),))
    q = apply_t2(p, 2)
    assert q.alphabet.rank == 1 and q.relators == ()


def test_t2_renumbers_higher_generators():
    p = Presentation(A3, (parse_word("x2 x3 x3", A3),))
    # x1 occurs nowhere, so it can be cancelled only if it had a defining
    # relator; it does not, so this is an error.
    with pytest.raises(ValueError):
        apply_t2(p, 1)
    p2 = Presentation(A3, (Word(A3, [1]), parse_word("x2 x3 x3", A3)))
    q = apply_t2(p2, 1)
    assert q.alphabet.rank == 2
    assert serialize_word(q.relators[0]) == "x1 x2 x2"


def test_t2_rejects_repeated_generator():
    p = Presentation(A2, (parse_word("x2 x1 x2 x1", A2),))
    with pytest.raises(ValueError):
        apply_t2(p, 2)
    with pytest.raises(ValueError):
        apply_t2(Presentation(A2, ()), 2)


# ---------------------------------------------------------------------------
# T3

def test_t3_invert_generator():
    p = Presentation(A1, (power(A1, 1, 7),))
    q = apply_t3(p, InvertGenerator(1))
    assert q.relators[0].letters == (-1,) * 7


def test_t3_right_multiply():
    p = Presentation(A2, (parse_word("x1 x2^-1", A2),))
    q = apply_t3(p, RightMultiplyGenerator(1, 2))
    assert q.relators[0].letters == (1,)


def test_t3_identity_is_noop():
    p = worked_example()
    assert apply_t3(p, []) == p


def test_t3_rejects_bad_moves():
    p = worked_example()
    with pytest.raises(ValueError):
        apply_t3(p, RightMultiplyGenerator(1, 1))
    with pytest.raises(ValueError):
        apply_t3(p, InvertGenerator(9))


def test_t3_is_invertible():
    rng = Random(11)
    for _ in range(10):
        p = random_presentation(rng, 3, 2, 4, 10)
        q = apply_t3(p, RightMultiplyGenerator(1, 2))
        # x1 -> x1 x2 is undone by x1 -> x1 x2^-1 = invert 2, multiply, invert 2
        back = apply_t3(
            q, [InvertGenerator(2), RightMultiplyGenerator(1, 2), InvertGenerator(2)]
        )
        # round-tripping may rotate a relator through cyclic reduction
        for before, after in zip(p.relators, back.relators):
            assert after in cyclic_permutations(before)


# ---------------------------------------------------------------------------
# T4'

def test_t4_invert_variant():
    p = Presentation(A1, (power(A1, 1, 7),))
    q = apply_t4prime(p, T4Replace(0, "r_i^-1"))
    assert q.relators[0].letters == (-1,) * 7


def test_t4_conjugation_noop_and_rotation():
    p = worked_example()
    untouched = apply_t4prime(p, T4Replace(0, "x^-1 r_i x", generator=3))
    assert untouched.relators[0] == p.relators[0]
    rotated = apply_t4prime(p, T4Replace(0, "x^-1 r_i x", generator=1))
    assert rotated.relators[0] in cyclic_permutations(p.relators[0])


def test_t4_product_reduces_across_boundary():
    p = Presentation(A3, (parse_word("x1 x2", A3), parse_word("x2^-1 x3", A3)))
    q = apply_t4prime(p, T4Replace(0, "r_i r_j", other=1))
    assert serialize_word(q.relators[0]) == "x1 x3"
    assert q.relators[1] == p.relators[1]


def test_t4_all_product_variants():
    p = Presentation(A3, (parse_word("x1 x2", A3), parse_word("x3 x2", A3)))
    r0, r1 = p.relators
    expected = {
        "r_i r_j": r0 * r1,
        "r_i r_j^-1": r0 * r1.inverse(),
        "r_j r_i": r1 * r0,
        "r_j r_i^-1": r1 * r0.inverse(),
    }
    for variant, word in expected.items():
        q = apply_t4prime(p, T4Replace(0, variant, other=1))
        assert q.relators[0] == cyclically_reduce(word)


def test_t4_rejects_bad_moves():
    p = worked_example()
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(5, "r_i^-1"))
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(0, "r_i r_j", other=0))
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(0, "r_i r_j"))
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(0, "x^-1 r_i x", generator=9))
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(0, "bogus"))


def test_t4_rejects_collapse_to_empty():
    p = Presentation(A2, (parse_word("x1 x2", A2), parse_word("x2^-1 x1^-1", A2)))
    with pytest.raises(ValueError):
        apply_t4prime(p, T4Replace(0, "r_i r_j", other=1))


def test_t4_preserves_exponent_gcd():
    # in rank 1, the normal closure of powers is generated by the gcd power
    p = Presentation(A1, (power(A1, 1, 6), power(A1, 1, 9)))
    moves = [
        T4Replace(0, "r_i^-1"),
        T4Replace(0, "r_i r_j", other=1),
        T4Replace(1, "r_j r_i", other=0),
        T4Replace(0, "x^-1 r_i x", generator=1),
        T4Replace(1, "x r_i x^-1", generator=1),
    ]
    current = p
    for move in moves:
        current = apply_t4prime(current, move)
        exponents = [sum(r.letters) for r in current.relators]
        assert gcd(*exponents) == 3


# ---------------------------------------------------------------------------
# breaking relators

def test_break_worked_example():
    p = worked_example()
    result = break_relators(p)
    total_in = sum(len(r) for r in p.relators)
    total_out = sum(len(r) for r in result.presentation.relators)
    assert all(len(r) <= 3 for r in result.presentation.relators)
    assert total_out <= 20
    assert result.moves


def test_break_is_fixpoint_on_short_presentations():
    p = Presentation(A3, (parse_word("x1 x2 x3", A3), Word(A3, [2])))
    result = break_relators(p)
    assert result.presentation == p
    assert result.moves == ()
    assert result.definitions == {}


def test_break_power_four_by_hand_trace():
    p = Presentation(A1, (power(A1, 1, 4),))
    result = break_relators(p)
    assert {serialize_word(r) for r in result.presentation.relators} == {
        "x2 x1 x1",
        "x2^-1 x1 x1",
    }
    assert result.definitions == {2: Word(A1, [1, 1])}


def test_break_replay_and_expansion_properties():
    rng = Random(13)
    for trial in range(12):
        p = random_presentation(rng, 2 + trial % 3, 1 + trial % 4, 5, 30)
        result = break_relators(p)
        assert all(len(r) <= 3 for r in result.presentation.relators)
        assert replay(p, result.moves) == result.presentation
        for i, rho in enumerate(result.presentation.relators):
            core = cyclically_reduce(expand_word(rho, result.definitions))
            if i < len(p.relators):
                assert not core or core in cyclic_permutations(p.relators[i])
            else:
                assert not core


def test_break_definitions_use_strictly_earlier_generators():
    p = worked_example()
    result = break_relators(p)
    for g, definition in result.definitions.items():
        assert all(abs(l) < g for l in definition.letters)


def test_breakdown_serialization():
    result = break_relators(Presentation(A1, (power(A1, 1, 4),)))
    text = serialize_breakdown(result)
    assert text.startswith("generators 2\n")
    assert "define x2 := x1 x1" in text


# ---------------------------------------------------------------------------
# break_relators against a move-by-move reference

def pair_key(pair):
    """Packed-code order of a letter pair: x_i before x_i^-1 before x_(i+1)."""
    return tuple(2 * abs(letter) + (letter < 0) for letter in pair)


def inverse_pair(pair):
    return (-pair[1], -pair[0])


def find_pair(letters, pair):
    for i in range(len(letters) - 1):
        if letters[i : i + 2] == pair:
            return i
    return -1


class ReferenceBreaker:
    """The greedy pair absorption, driven through apply_move one move at a
    time over letter tuples, so every intermediate presentation is rebuilt
    and validated."""

    def __init__(self, p):
        self.current = p
        self.moves = []
        self.definitions = {}
        self.pair_generator = {}  # defining letter pair -> generator
        self.definition_index = {}  # generator -> relator index of g^-1 a b

    def apply(self, move):
        self.current = apply_move(self.current, move)
        self.moves.append(move)

    def rotate_left(self, idx):
        first = self.current.relators[idx].letters[0]
        if first > 0:
            self.apply(T4Replace(idx, "x^-1 r_i x", generator=first))
        else:
            self.apply(T4Replace(idx, "x r_i x^-1", generator=-first))

    def rotate_right(self, idx):
        last = self.current.relators[idx].letters[-1]
        if last > 0:
            self.apply(T4Replace(idx, "x r_i x^-1", generator=last))
        else:
            self.apply(T4Replace(idx, "x^-1 r_i x", generator=-last))

    def define_pair(self, pair):
        definition = Word(self.current.alphabet, pair)
        self.apply(T1Intro(definition))
        g = self.current.alphabet.rank
        q_idx = len(self.current.relators) - 1
        self.apply(T4Replace(q_idx, "r_i^-1"))
        self.apply(T4Replace(q_idx, "x^-1 r_i x", generator=g))
        self.definitions[g] = Word(Alphabet(g - 1), pair)
        self.pair_generator[pair] = g
        self.definition_index[g] = q_idx
        return g

    def replace_occurrence(self, idx, pos, g, inverse):
        q_idx = self.definition_index[g]
        for _ in range(pos):
            self.rotate_left(idx)
        if inverse:
            self.apply(T4Replace(idx, "r_j r_i", other=q_idx))
        else:
            self.apply(T4Replace(q_idx, "r_i^-1"))
            self.apply(T4Replace(q_idx, "x r_i x^-1", generator=g))
            self.apply(T4Replace(idx, "r_j r_i", other=q_idx))
            self.apply(T4Replace(q_idx, "x^-1 r_i x", generator=g))
            self.apply(T4Replace(q_idx, "r_i^-1"))
        for _ in range(pos):
            self.rotate_right(idx)

    def absorb_pair_everywhere(self, g, pair):
        progress = True
        while progress:
            progress = False
            for idx, relator in enumerate(self.current.relators):
                letters = relator.letters
                if len(letters) < 4:
                    continue
                direct = find_pair(letters, pair)
                inverted = find_pair(letters, inverse_pair(pair))
                options = [
                    (where, inv)
                    for where, inv in ((direct, False), (inverted, True))
                    if where >= 0
                ]
                if options:
                    pos, inv = min(options)
                    self.replace_occurrence(idx, pos, g, inv)
                    progress = True
                    break


def reference_most_frequent_pair(relators):
    counts = {}
    first_seen = {}
    for r in relators:
        letters = r.letters
        if len(letters) < 4:
            continue
        for i in range(len(letters) - 1):
            pair = letters[i : i + 2]
            canon = min(pair, inverse_pair(pair), key=pair_key)
            counts[canon] = counts.get(canon, 0) + 1
            first_seen.setdefault(canon, len(first_seen))
    return max(counts, key=lambda c: (counts[c], -first_seen[c]))


def reference_break(p):
    breaker = ReferenceBreaker(p)
    while any(len(r) >= 4 for r in breaker.current.relators):
        canon = reference_most_frequent_pair(breaker.current.relators)
        for pair in (canon, inverse_pair(canon)):
            g = breaker.pair_generator.get(pair)
            if g is not None:
                break
        else:
            pair = canon
            g = breaker.define_pair(pair)
        breaker.absorb_pair_everywhere(g, pair)
    return BreakdownResult(breaker.current, breaker.definitions, tuple(breaker.moves))


@st.composite
def breakable_presentations(draw):
    """Ranks 1-4 with 1-4 relators: reduced words of up to 40 letters,
    powers of one generator, repeats of an earlier relator."""
    rank = draw(st.integers(1, 4))
    alphabet = Alphabet(rank)
    letter = st.integers(-rank, rank).filter(bool)
    relators = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("word", "power", "repeat")))
        if kind == "repeat" and relators:
            relators.append(draw(st.sampled_from(relators)))
        elif kind == "power":
            relators.append(power(alphabet, draw(letter), draw(st.integers(1, 12))))
        else:
            size = draw(st.integers(1, 40))
            letters = []
            for x in draw(st.lists(letter, min_size=size, max_size=size)):
                letters.append(-x if letters and letters[-1] == -x else x)
            relators.append(cyclically_reduce(Word(alphabet, letters)))
    return Presentation(alphabet, tuple(relators))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(breakable_presentations())
def test_break_matches_move_by_move_reference(p):
    assert break_relators(p) == reference_break(p)


@pytest.mark.parametrize("length", [40, 80, 120])
def test_break_matches_reference_on_platform_groups(length):
    p = random_platform_group(3, 3, length, "1/6", Random(length))
    assert break_relators(p) == reference_break(p)


# ---------------------------------------------------------------------------
# expansion

def test_expand_word_examples():
    definitions = {3: Word(A2, [1, 2])}
    assert expand_word(Word(Alphabet(3), [3]), definitions).letters == (1, 2)
    assert expand_word(Word(Alphabet(3), [-3]), definitions).letters == (-2, -1)
    assert expand_word(Word(A2, [1]), {}).letters == (1,)


def test_expand_word_rejects_unknown_and_unordered():
    with pytest.raises(ValueError):
        expand_word(Word(Alphabet(4), [4]), {3: Word(A2, [1])}, alphabet=A2)
    with pytest.raises(ValueError):
        # x3 defined in terms of itself
        expand_word(Word(Alphabet(3), [3]), {3: Word(Alphabet(3), [3])}, alphabet=A2)
    with pytest.raises(ValueError):
        # cyclic pair x3 <-> x4 violates the strictly-earlier rule
        expand_word(
            Word(Alphabet(4), [3]),
            {3: Word(Alphabet(4), [4]), 4: Word(Alphabet(3), [3])},
            alphabet=A2,
        )


# ---------------------------------------------------------------------------
# trivial words survive the rewrite

def strip_conjugating_prefix(letters):
    letters = list(letters)
    prefix = []
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        prefix.append(letters.pop(0))
        letters.pop()
    return prefix, letters


def conjugator_linking(expanded, original):
    """Return c with expanded = c * original * c^-1 (both freely reduced)."""
    prefix, core = strip_conjugating_prefix(expanded.letters)
    target = tuple(core)
    base = original.letters
    for k in range(max(1, len(base))):
        if base[k:] + base[:k] == target:
            c = Word(
                original.alphabet, prefix + [-l for l in reversed(base[:k])]
            )
            check = c * original * c.inverse()
            assert check == expanded
            return c
    raise AssertionError("expansion is not conjugate to the original relator")


def test_trivial_word_transport_through_breakdown():
    rng = Random(71)
    p = random_platform_group(3, 2, 30, "1/6", rng)
    result = break_relators(p)
    expanded = [
        expand_word(result.presentation.relators[i], result.definitions)
        for i in range(len(p.relators))
    ]
    links = [conjugator_linking(e, r) for e, r in zip(expanded, p.relators)]
    for _ in range(8):
        w, certificate = make_trivial_word_certified(p, 3, 4, rng)
        rebuilt = Word(p.alphabet, [])
        for idx, sign, h in certificate:
            body = expanded[idx] if sign > 0 else expanded[idx].inverse()
            d = links[idx] * h
            rebuilt = rebuilt * (d.inverse() * body * d)
        assert rebuilt == w
