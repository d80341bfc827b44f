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
    cyclic_permutations,
    cyclically_reduce,
    parse_word,
    random_reduced_word,
    serialize_word,
)
from groupshare.smallcancel import Presentation, random_platform_group
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
    assert [serialize_word(r) for r in q.relators] == ["x2^-1 x1 x1"]


def test_t1_on_worked_example():
    q = replay(worked_example(), [T1Intro(parse_word("x1 x1", A3))])
    assert q.alphabet.rank == 4
    assert serialize_word(q.relators[-1]) == "x4^-1 x1 x1"


def test_t1_empty_definition_yields_single_letter_relator():
    q = replay(Presentation(A1, ()), [T1Intro(Word(A1, []))])
    assert serialize_word(q.relators[-1]) == "x2^-1"


def test_t1_rejects_foreign_word():
    with pytest.raises(ValueError, match="not over the presentation's alphabet"):
        replay(Presentation(A1, ()), [T1Intro(Word(A2, [2]))])


# ---------------------------------------------------------------------------
# T4: replacement modulo the definitions

NOT_MODULO = "not relator 0 modulo the definitions"


def test_t4_invert_variant():
    # r^-1 has the normal closure of r, but it is not r modulo the
    # definitions: no nontrivial element of a free group is conjugate to
    # its inverse
    p = Presentation(A1, (power(A1, 1, 7),))
    with pytest.raises(ValueError, match=NOT_MODULO):
        replay(p, [T4Replace(0, power(A1, 1, -7))])
    inverse = parse_word("x2^-1 x2^-1 x2^-1 x4^-1", Alphabet(4))  # with x4 = x1 x1
    with pytest.raises(ValueError, match=NOT_MODULO):
        replay(worked_example(), [T1Intro(parse_word("x1 x1", A3)), T4Replace(0, inverse)])


def test_t4_conjugation_noop_and_rotation():
    p = worked_example()
    assert replay(p, [T4Replace(0, p.relators[0])]) == p
    rotations = cyclic_permutations(p.relators[1])
    assert len(rotations) == 5
    for rotated in rotations:
        assert replay(p, [T4Replace(1, rotated)]).relators == (p.relators[0], rotated)


def test_t4_product_reduces_across_boundary():
    # x4 = x1 x2 and x5 = x2 x3
    p = Presentation(A3, (
        parse_word("x1 x2 x3 x3", A3),
        parse_word("x2 x3 x3 x1", A3),
        parse_word("x2 x3", A3),
    ))
    A5 = Alphabet(5)
    definitions = [T1Intro(parse_word("x1 x2", A3)), T1Intro(parse_word("x2 x3", Alphabet(4)))]
    spliced = [
        T4Replace(0, parse_word("x4 x3 x3", A5)),  # the pair in place
        T4Replace(1, parse_word("x4 x3 x3", A5)),  # the pair across the wrap-around
        T4Replace(2, parse_word("x5", A5)),
    ]
    q = replay(p, definitions + spliced)
    assert [serialize_word(r) for r in q.relators] == [
        "x4 x3 x3", "x4 x3 x3", "x5", "x4^-1 x1 x2", "x5^-1 x2 x3",
    ]
    # expansions are compared freely and then cyclically reduced
    reducing = [
        T4Replace(0, parse_word("x4 x2^-1 x5 x3", A5)),  # x1 x2 x2^-1 x2 x3 x3
        T4Replace(2, parse_word("x4 x3 x1^-1", A5)),  # x1 (x2 x3) x1^-1
    ]
    q = replay(p, definitions + reducing)
    assert [serialize_word(r) for r in q.relators[::2]] == [
        "x4 x2^-1 x5 x3", "x4 x3 x1^-1", "x5^-1 x2 x3",
    ]


def test_t4_all_product_variants():
    # a product of two relators keeps the normal closure, but it is neither
    # factor modulo the definitions: every order and sign is refused
    p = Presentation(A3, (parse_word("x1 x2", A3), parse_word("x3 x2", A3)))
    r0, r1 = p.relators
    for product in (r1 * r0, r0 * r1, r0 * r1.inverse(), r1 * r0.inverse()):
        with pytest.raises(ValueError, match=NOT_MODULO):
            replay(p, [T4Replace(0, cyclically_reduce(product))])


def test_t4_rejects_bad_moves():
    p = worked_example()
    r0 = p.relators[0]  # x1 x1 x2 x2 x2
    bad = {
        T4Replace(2, r0): "relator index 2 names no input relator",
        T4Replace(-1, r0): "relator index -1 names no input relator",
        T4Replace(0, Word(A2, r0.letters)): "not over the presentation's alphabet",
        T4Replace(0, Word(Alphabet(4), r0.letters)): "not over the presentation's alphabet",
        # one letter changed, one dropped, and the other relator
        T4Replace(0, parse_word("x1 x1 x2 x2 x3", A3)): NOT_MODULO,
        T4Replace(0, parse_word("x1 x1 x2 x2", A3)): NOT_MODULO,
        T4Replace(0, p.relators[1]): NOT_MODULO,
    }
    for move, message in bad.items():
        with pytest.raises(ValueError, match=message):
            replay(p, [move])
    with pytest.raises(ValueError, match="unrecognized move"):
        replay(p, ["T4Replace(0, 'r_i^-1')"])


def test_t4_rejects_collapse_to_empty():
    p = Presentation(A2, (parse_word("x1 x2", A2),))
    with pytest.raises(ValueError, match="replacement relator is empty"):
        replay(p, [T4Replace(0, Word(A2, []))])
    # x3 x2^-1 x1^-1 is not empty, but with x3 = x1 x2 its expansion is
    collapsing = parse_word("x3 x2^-1 x1^-1", A3)
    with pytest.raises(ValueError, match=NOT_MODULO):
        replay(p, [T1Intro(parse_word("x1 x2", A2)), T4Replace(0, collapsing)])


def test_t4_refuses_a_defining_relator():
    # (x3^-1 x1 x2)^2 expands to 1, as x3^-1 x1 x2 does, so the expansion
    # check alone would pass it; but then x3 = x1 x2 would no longer follow
    p = Presentation(A2, (parse_word("x1 x2 x1 x2", A2),))
    t1 = T1Intro(parse_word("x1 x2", A2))
    defining = parse_word("x3^-1 x1 x2", A3)
    squared = defining * defining
    assert not expand_word(squared, {3: t1.definition})
    assert replay(p, [t1]).relators[1] == defining
    with pytest.raises(ValueError, match="relator index 1 names no input relator"):
        replay(p, [t1, T4Replace(1, squared)])


def test_t4_preserves_exponent_gcd():
    # in rank 1 the normal closure of powers is generated by the gcd power;
    # with x2 = x1^3 each accepted replacement keeps the gcd of the expanded
    # relators' exponent sums, and one that would change it is refused
    p = Presentation(A1, (power(A1, 1, 6), power(A1, 1, 9)))
    t1 = T1Intro(power(A1, 1, 3))
    moves = [
        t1,
        T4Replace(0, power(A2, 2, 2)),
        T4Replace(1, power(A2, 2, 3)),
        T4Replace(1, parse_word("x2 x1 x1 x1 x2", A2)),  # relator 1 a second time
    ]
    for end in range(1, len(moves) + 1):
        q = replay(p, moves[:end])
        exponents = [sum(expand_word(r, {2: t1.definition}).letters) for r in q.relators]
        assert gcd(*exponents) == 3
    with pytest.raises(ValueError, match=NOT_MODULO):
        replay(p, [t1, T4Replace(0, parse_word("x2 x1^-1", A2))])  # x1^2


@st.composite
def presentations_and_moves(draw):
    """A presentation of rank 1-4 with 1-4 relators, a T1, and a T4 on one
    of its relators: either a rotation of it in which an occurrence of the
    definition may be spliced into the new generator, which is valid, or
    any word over the new alphabet."""
    rank = draw(st.integers(1, 4))
    alphabet, wide = Alphabet(rank), Alphabet(rank + 1)
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
    i = draw(st.integers(0, len(relators) - 1))
    letters = relators[i].letters
    k = draw(st.integers(0, len(letters) - 1))
    rotated = letters[k:] + letters[:k]
    valid = draw(st.booleans())
    if valid and draw(st.booleans()):
        # the definition is a subword of the rotation, spliced there
        start = draw(st.integers(0, len(rotated) - 1))
        end = draw(st.integers(start, min(start + 6, len(rotated))))
        definition = Word(alphabet, rotated[start:end])
        replacement = Word(wide, rotated[:start] + (rank + 1,) + rotated[end:])
    else:
        definition = Word(alphabet, draw(st.lists(letter, max_size=6)))
        if valid:
            replacement = Word(wide, rotated)
        else:
            any_letter = st.integers(-rank - 1, rank + 1).filter(bool)
            replacement = cyclically_reduce(Word(wide, draw(st.lists(any_letter, max_size=8))))
    moves = [T1Intro(definition), T4Replace(i, replacement)]
    return Presentation(alphabet, tuple(relators)), moves, valid


def word_arithmetic(p, moves):
    """What ``moves`` do to ``p``, worked out on :class:`Word` values: a T4
    is accepted where the images of both relators in the free group on
    ``p``'s generators are conjugate.  None where a move is refused."""
    alphabet, relators, images = p.alphabet, list(p.relators), {}

    def image(w):
        out = Word(p.alphabet, [])
        for letter in w.letters:
            x = images[abs(letter)] if abs(letter) in images else Word(p.alphabet, [abs(letter)])
            out = out * (x if letter > 0 else x.inverse())
        return out

    for move in moves:
        if isinstance(move, T1Intro):
            images[alphabet.rank + 1] = image(move.definition)
            alphabet = Alphabet(alphabet.rank + 1)
            relators = [Word(alphabet, r.letters) for r in relators]
            new = Word(alphabet, [-alphabet.rank]) * Word(alphabet, move.definition.letters)
            relators.append(new)
            continue
        new, old = move.replacement, relators[move.relator]
        if not (move.relator < len(p.relators) and new and new.alphabet == alphabet):
            return None
        if cyclically_reduce(image(new)) not in cyclic_permutations(cyclically_reduce(image(old))):
            return None
        relators[move.relator] = new
    return Presentation(alphabet, tuple(relators))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(presentations_and_moves())
def test_replay_matches_word_arithmetic(case):
    p, moves, valid = case
    for end in (1, 2):
        expected = word_arithmetic(p, moves[:end])
        assert expected is not None or not valid
        if expected is None:
            with pytest.raises(ValueError):
                replay(p, moves[:end])
        else:
            assert replay(p, moves[:end]) == expected


def test_replay_checks_each_move_where_it_stands():
    p = random_platform_group(3, 3, 40, "1/6", Random(40))
    moves = list(break_relators(p).moves)
    middle = len(moves) // 2
    head = moves[:middle]
    rank = p.alphabet.rank + len(head)
    assert all(isinstance(m, T1Intro) for m in moves[: middle + 1])
    assert isinstance(moves[-1], T4Replace)
    assert replay(p, moves) == break_relators(p).presentation
    # the last T4, over generators not yet introduced, and a T1 over the
    # alphabet that the last T1 of the head left behind
    bad_moves = (moves[-1], T1Intro(Word(Alphabet(rank - 1), [1, 2])))
    for bad in bad_moves:
        with pytest.raises(ValueError, match="not over the presentation's alphabet"):
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
    last = max(result.definitions)
    shorter = replace(result, definitions={g: d for g, d in result.definitions.items() if g != last})
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
    """The greedy pair absorption over letter tuples, one occurrence at a
    time.  Each new generator is a T1, and each absorbed occurrence a T4
    that replaces the relator by its new spelling; the whole list is
    replayed once at the end, so every move is checked where it stands."""

    def __init__(self, p):
        self.rank = p.alphabet.rank
        self.relators = [r.letters for r in p.relators]
        self.moves = []
        self.definitions = {}
        self.pair_generator = {}  # defining letter pair -> generator

    def define_pair(self, pair):
        definition = Word(Alphabet(self.rank), pair)
        self.moves.append(T1Intro(definition))
        self.rank = g = self.rank + 1
        self.relators.append((-g, *pair))
        self.definitions[g] = definition
        self.pair_generator[pair] = g
        return g

    def replace_occurrence(self, idx, pos, g, inverse):
        letters = self.relators[idx]
        letters = self.relators[idx] = letters[:pos] + (-g if inverse else g,) + letters[pos + 2 :]
        self.moves.append(T4Replace(idx, Word(Alphabet(self.rank), letters)))

    def absorb_pair_everywhere(self, g, pair):
        progress = True
        while progress:
            progress = False
            for idx, letters in enumerate(self.relators):
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
    for letters in relators:
        if len(letters) < 4:
            continue
        for i in range(len(letters) - 1):
            pair = letters[i : i + 2]
            canon = min(pair, inverse_pair(pair), key=pair_key)
            counts[canon] = counts.get(canon, 0) + 1
            first_seen.setdefault(canon, len(first_seen))
    return max(counts, key=lambda c: (counts[c], -first_seen[c]))


def reference_break(p):
    """The reference's presentation, definitions and rewritten relator indices."""
    breaker = ReferenceBreaker(p)
    while any(len(r) >= 4 for r in breaker.relators):
        canon = reference_most_frequent_pair(breaker.relators)
        for pair in (canon, inverse_pair(canon)):
            g = breaker.pair_generator.get(pair)
            if g is not None:
                break
        else:
            pair = canon
            g = breaker.define_pair(pair)
        breaker.absorb_pair_everywhere(g, pair)
    rewritten = {move.relator for move in breaker.moves if isinstance(move, T4Replace)}
    return replay(p, breaker.moves), breaker.definitions, rewritten


def outcome(result):
    """What :func:`reference_break` returns, read off a break's result."""
    return result.presentation, result.definitions


def check_against_reference(p):
    result = break_relators(p)
    presentation, definitions, rewritten = reference_break(p)
    assert outcome(result) == (presentation, definitions)
    # one T1 per definition, then one T4 per rewritten input relator
    assert len(result.moves) == len(definitions) + len(rewritten)
    assert replay(p, result.moves) == presentation


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
    check_against_reference(p)


@pytest.mark.parametrize("length", [40, 80, 120])
def test_break_matches_reference_on_platform_groups(length):
    p = random_platform_group(3, 3, length, "1/6", Random(length))
    check_against_reference(p)


# ---------------------------------------------------------------------------
# expansion

def test_expand_word_examples():
    definitions = {3: Word(A2, [1, 2])}
    assert expand_word(Word(Alphabet(3), [3]), definitions).letters == (1, 2)
    assert expand_word(Word(Alphabet(3), [-3]), definitions).letters == (-2, -1)
    assert expand_word(Word(A2, [1]), {}).letters == (1,)


def test_expand_word_rejects_unknown_and_unordered():
    with pytest.raises(ValueError):
        expand_word(Word(Alphabet(4), [4]), {3: Word(A2, [1])})
    with pytest.raises(ValueError):
        # x3 defined in terms of itself
        expand_word(Word(Alphabet(3), [3]), {3: Word(Alphabet(3), [3])})
    with pytest.raises(ValueError):
        # cyclic pair x3 <-> x4 violates the strictly-earlier rule
        definitions = {3: Word(Alphabet(4), [4]), 4: Word(Alphabet(3), [3])}
        expand_word(Word(Alphabet(4), [3]), definitions)
    with pytest.raises(ValueError, match="base alphabet"):
        # a definition of x1 leaves no base generator
        expand_word(Word(A2, [1]), {1: Word(A2, [2])})


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
        original = transported = Word(p.alphabet, [])
        for _ in range(3):
            idx = rng.randrange(len(p.relators))
            sign = rng.choice((1, -1))
            h = random_reduced_word(4, p.alphabet, rng)
            r = p.relators[idx] if sign > 0 else p.relators[idx].inverse()
            body = expanded[idx] if sign > 0 else expanded[idx].inverse()
            d = links[idx] * h
            original = original * (h.inverse() * r * h)
            transported = transported * (d.inverse() * body * d)
        assert original
        assert transported == original
