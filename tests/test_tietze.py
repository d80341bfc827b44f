from dataclasses import replace
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupshare import tietze
from groupshare.freegroup import (
    Alphabet,
    Word,
    _from_chars,
    cyclic_permutations,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)
from groupshare.smallcancel import Presentation, _conjugated_product, random_platform_group
from groupshare.tietze import (
    T1Intro,
    T4Replace,
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
# T1

def test_t1_basic_example():
    p = Presentation(A1, ())
    q = replay(p, [T1Intro(Word(A1, [1, 1]))])
    assert q.alphabet.rank == 2
    assert [serialize_word(r) for r in q.relators] == ["x2 x1^-1 x1^-1"]


def test_t1_on_worked_example():
    q = replay(worked_example(), [T1Intro(parse_word("x1 x1", A3))])
    assert q.alphabet.rank == 4
    assert serialize_word(q.relators[-1]) == "x4 x1^-1 x1^-1"


def test_t1_empty_definition_yields_single_letter_relator():
    q = replay(Presentation(A1, ()), [T1Intro(Word(A1, []))])
    assert serialize_word(q.relators[-1]) == "x2"


def test_t1_rejects_foreign_word():
    with pytest.raises(ValueError, match="not over the presentation's alphabet"):
        replay(Presentation(A1, ()), [T1Intro(Word(A2, [2]))])


# ---------------------------------------------------------------------------
# T4'

def test_t4_invert_variant():
    p = Presentation(A1, (power(A1, 1, 7),))
    q = replay(p, [T4Replace(0, "r_i^-1")])
    assert q.relators[0].letters == (-1,) * 7


def test_t4_conjugation_noop_and_rotation():
    p = worked_example()
    untouched = replay(p, [T4Replace(0, "x^-1 r_i x", generator=3)])
    assert untouched.relators[0] == p.relators[0]
    rotated = replay(p, [T4Replace(0, "x^-1 r_i x", generator=1)])
    assert rotated.relators[0] in cyclic_permutations(p.relators[0])


def test_t4_product_reduces_across_boundary():
    p = Presentation(A3, (parse_word("x1 x2", A3), parse_word("x2^-1 x3", A3)))
    q = replay(p, [T4Replace(1, "r_j r_i", other=0)])
    assert serialize_word(q.relators[1]) == "x1 x3"
    assert q.relators[0] == p.relators[0]


def test_t4_all_product_variants():
    # r_j r_i is the one product that relator breaking writes; the other
    # three orders and signs are not moves
    p = Presentation(A3, (parse_word("x1 x2", A3), parse_word("x3 x2", A3)))
    r0, r1 = p.relators
    q = replay(p, [T4Replace(0, "r_j r_i", other=1)])
    assert q.relators[0] == cyclically_reduce(r1 * r0)
    for variant in ("r_i r_j", "r_i r_j^-1", "r_j r_i^-1"):
        with pytest.raises(ValueError, match="unrecognized T4' variant"):
            replay(p, [T4Replace(0, variant, other=1)])


def test_t4_rejects_bad_moves():
    p = worked_example()
    bad = {
        T4Replace(5, "r_i^-1"): "relator index 5 out of range",
        T4Replace(-1, "r_i^-1"): "relator index -1 out of range",
        T4Replace(0, "r_j r_i", other=0): "requires j != i",
        T4Replace(0, "r_j r_i"): "needs a valid partner index",
        T4Replace(0, "r_j r_i", other=2): "needs a valid partner index",
        T4Replace(0, "x^-1 r_i x", generator=9): "needs a valid generator",
        T4Replace(0, "x r_i x^-1"): "needs a valid generator",
        T4Replace(0, "bogus"): "unrecognized T4' variant",
    }
    for move, message in bad.items():
        with pytest.raises(ValueError, match=message):
            replay(p, [move])
    with pytest.raises(ValueError, match="unrecognized move"):
        replay(p, ["T4Replace(0, 'r_i^-1')"])


def test_t4_rejects_collapse_to_empty():
    p = Presentation(A2, (parse_word("x1 x2", A2), parse_word("x2^-1 x1^-1", A2)))
    with pytest.raises(ValueError, match="collapses to the empty word"):
        replay(p, [T4Replace(0, "r_j r_i", other=1)])


def test_t4_preserves_exponent_gcd():
    # in rank 1, the normal closure of powers is generated by the gcd power
    p = Presentation(A1, (power(A1, 1, 6), power(A1, 1, 9)))
    moves = [
        T4Replace(0, "r_i^-1"),
        T4Replace(0, "r_j r_i", other=1),
        T4Replace(1, "r_j r_i", other=0),
        T4Replace(0, "x^-1 r_i x", generator=1),
        T4Replace(1, "x r_i x^-1", generator=1),
    ]
    current = p
    for move in moves:
        current = replay(current, [move])
        exponents = [sum(r.letters) for r in current.relators]
        assert gcd(*exponents) == 3


@st.composite
def presentations_and_moves(draw):
    """A presentation of rank 1-4 with 1-4 relators, and one valid move of
    each kind that relator breaking writes."""
    rank = draw(st.integers(1, 4))
    alphabet = Alphabet(rank)
    letter = st.integers(-rank, rank).filter(bool)
    relators = draw(
        st.lists(
            st.lists(letter, min_size=1, max_size=12)
            .map(lambda letters: cyclically_reduce(Word(alphabet, letters)))
            .filter(bool),
            min_size=1,
            max_size=4,
        )
    )
    index = st.integers(0, len(relators) - 1)
    i = draw(index)
    moves = [
        T1Intro(Word(alphabet, draw(st.lists(letter, max_size=6)))),
        T4Replace(i, "r_i^-1"),
        T4Replace(i, "x^-1 r_i x", generator=draw(st.integers(1, rank))),
        T4Replace(i, "x r_i x^-1", generator=draw(st.integers(1, rank))),
    ]
    if len(relators) > 1:
        moves.append(T4Replace(i, "r_j r_i", other=draw(index.filter(lambda j: j != i))))
    return Presentation(alphabet, tuple(relators)), moves


def word_arithmetic(p, move):
    """What ``move`` does to ``p``, worked out on :class:`Word` values."""
    relators = list(p.relators)
    if isinstance(move, T1Intro):
        wide = Alphabet(p.alphabet.rank + 1)
        relators = [Word(wide, r.letters) for r in relators]
        new = Word(wide, [wide.rank]) * Word(wide, move.definition.letters).inverse()
        return Presentation(wide, (*relators, new))
    r = relators[move.relator]
    if move.variant == "r_i^-1":
        replacement = r.inverse()
    elif move.variant == "r_j r_i":
        replacement = relators[move.other] * r
    else:
        x = Word(p.alphabet, [move.generator])
        if move.variant == "x r_i x^-1":
            x = x.inverse()
        replacement = x.inverse() * r * x
    relators[move.relator] = cyclically_reduce(replacement)
    if not relators[move.relator]:
        return None
    return Presentation(p.alphabet, tuple(relators))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(presentations_and_moves())
def test_replay_matches_word_arithmetic(case):
    p, moves = case
    for move in moves:
        expected = word_arithmetic(p, move)
        if expected is None:
            with pytest.raises(ValueError, match="collapses to the empty word"):
                replay(p, [move])
        else:
            assert replay(p, [move]) == expected


def test_replay_checks_each_move_where_it_stands():
    p = random_platform_group(3, 3, 40, "1/6", Random(40))
    moves = list(break_relators(p).moves)
    middle = len(moves) // 2
    head = moves[:middle]
    count = len(p.relators) + sum(isinstance(m, T1Intro) for m in head)
    rank = p.alphabet.rank + sum(isinstance(m, T1Intro) for m in head)
    # the relator index that the next T1 makes valid, and the alphabet
    # that the last T1 left behind
    bad_moves = (T4Replace(count, "r_i^-1"), T1Intro(Word(Alphabet(rank - 1), [1, 2])))
    assert any(isinstance(m, T1Intro) for m in moves[middle:])
    for bad in bad_moves:
        with pytest.raises(ValueError):
            replay(p, [*head, bad, *moves[middle:]])


def test_replay_builds_one_presentation(monkeypatch):
    p = random_platform_group(3, 3, 40, "1/6", Random(40))
    result = break_relators(p)
    calls = []
    validate = Presentation.__post_init__

    def counting(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(Presentation, "__post_init__", counting)
    assert replay(p, result.moves) == result.presentation
    assert len(calls) == 1
    replay(p, result.moves[:1])
    assert len(calls) == 2


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


def test_break_builds_moves_only_when_read(monkeypatch):
    p = random_platform_group(3, 3, 40, "1/6", Random(40))
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls)
            return cls(*args, **kwargs)

        return build

    monkeypatch.setattr(tietze, "T1Intro", counting(T1Intro))
    monkeypatch.setattr(tietze, "T4Replace", counting(T4Replace))
    result = break_relators(p)
    assert built == []
    serialize_breakdown(result)
    assert built == []
    moves = result.moves
    assert {T1Intro, T4Replace} <= set(built)
    count = len(built)
    assert result.moves is moves
    assert len(built) == count
    monkeypatch.undo()
    assert moves == break_relators(p).moves
    # results whose moves differ are unequal
    shorter = replace(result, splices=result.splices[:-1])
    assert shorter.moves != moves and shorter != result


def test_break_takes_the_top_count_once_when_every_class_is_unique(monkeypatch):
    # x1 x2 ... x26: every pair class occurs once from the first round on
    alphabet = Alphabet(26)
    p = Presentation(alphabet, (Word(alphabet, list(range(1, 27))),))
    tops = []

    def counting_max(*args, **kwargs):
        if len(args) == 1:  # a top count, not a clamp of two numbers
            tops.append(args[0])
        return max(*args, **kwargs)

    monkeypatch.setattr(tietze, "max", counting_max, raising=False)
    result = break_relators(p)
    assert len(tops) == 1
    assert len(result.definitions) == 23
    assert all(len(r) <= 3 for r in result.presentation.relators)


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
    """The greedy pair absorption over letter tuples, driven one move at a
    time through ``replay(current, (move,))``, so every intermediate
    presentation is rebuilt and validated."""

    def __init__(self, p):
        self.current = p
        self.moves = []
        self.definitions = {}
        self.pair_generator = {}  # defining letter pair -> generator
        self.definition_index = {}  # generator -> relator index of g^-1 a b

    def apply(self, move):
        self.current = replay(self.current, (move,))
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
    return breaker.current, breaker.definitions, tuple(breaker.moves)


def outcome(result):
    """What :func:`reference_break` returns, read off a break's result."""
    return result.presentation, result.definitions, result.moves


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
# overlapping occurrences of the pair
@example(Presentation(A1, (power(A1, 1, 9),)))
# the pair and its inverse in one relator
@example(Presentation(A2, (parse_word("x1 x2 x1 x2^-1 x1^-1 x2", A2),)))
# relator 0 drops to 3 letters while relator 1 still holds the pair
@example(Presentation(A3, (
    parse_word("x1 x2 x3^-1 x2", A3),
    parse_word("x1 x2 x1 x2 x3 x1 x2", A3),
)))
# every class occurs once: the first pair read wins, not the least class
@example(Presentation(Alphabet(4), (
    parse_word("x3 x1 x2 x4", Alphabet(4)),
    parse_word("x4^-1 x2 x1^-1 x3", Alphabet(4)),
)))
# every class distinct from the first round on
@example(Presentation(Alphabet(8), (parse_word("x1 x2 x3 x4 x5 x6 x7 x8", Alphabet(8)),)))
# the first pair is the inverse of its class: a g^-1 splice
@example(Presentation(Alphabet(4), (parse_word("x2 x1 x3 x4", Alphabet(4)),)))
# when the top count first reaches 1, relator 0 has 5 letters and relator 1
# has 7: index order, not length, decides
@example(Presentation(Alphabet(4), (
    parse_word("x1 x2 x3 x4 x3 x1 x2", Alphabet(4)),
    parse_word("x4 x3^-1 x2 x3 x1^-1 x4 x2", Alphabet(4)),
)))
# a relator of exactly 4 letters when the top count first reaches 1
@example(Presentation(Alphabet(4), (parse_word("x1 x2 x3 x1 x2 x4", Alphabet(4)),)))
def test_break_matches_move_by_move_reference(p):
    assert outcome(break_relators(p)) == reference_break(p)


@pytest.mark.parametrize("length", [40, 80, 120])
def test_break_matches_reference_on_platform_groups(length):
    p = random_platform_group(3, 3, length, "1/6", Random(length))
    assert outcome(break_relators(p)) == reference_break(p)


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
        chars, certificate = _conjugated_product(p, 3, 4, rng, False)
        w = _from_chars(p.alphabet, chars)
        rebuilt = Word(p.alphabet, [])
        for idx, sign, h in certificate:
            body = expanded[idx] if sign > 0 else expanded[idx].inverse()
            d = links[idx] * _from_chars(p.alphabet, h)
            rebuilt = rebuilt * (d.inverse() * body * d)
        assert rebuilt == w
