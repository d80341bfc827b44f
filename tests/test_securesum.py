import dataclasses
import hashlib
import re
from functools import reduce as fold
from itertools import product
from operator import xor
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.scheme import _xor
from groupshare.securesum import (
    Transcript,
    _ring,
    export_transcript,
    run_secure_linear_combination,
    run_secure_sum,
)
from groupshare.shamir import (
    SharePoint,
    interpolate_at_zero,
    lagrange_coefficients,
    poly_eval,
    random_polynomial,
)


def xor_oracle(columns):
    return tuple(fold(lambda a, b: a ^ b, bits) for bits in zip(*columns))


# The ring's routing, written out here so that the observer model below does
# not take it from the code under audit: in a ring of n, round r <= n carries
# Pr's masked running sum to P(r mod n + 1) on the secure ring, and round
# n + i is Pi's broadcast on the open channel.
RING, OPEN = "secure-ring", "broadcast"


def route(r, n):
    """(channel, sender, receiver) of round ``r`` in a ring of ``n``;
    receiver None is a broadcast to everyone."""
    return (RING, r, r % n + 1) if r <= n else (OPEN, r - n, None)


# run_secure_sum draws its masks this way too, one column per participant in
# order, so random_columns(Random(seed), n, k) redraws a run's masks.
def random_columns(rng, n, k):
    return [tuple(rng.getrandbits(1) for _ in range(k)) for _ in range(n)]


# ---------------------------------------------------------------------------
# correctness

@settings(max_examples=40)
@given(st.integers(3, 6), st.integers(1, 24), st.integers(0, 2**32))
def test_secure_sum_equals_plain_xor(n, k, seed):
    rng = Random(seed)
    inputs = random_columns(rng, n, k)
    output, transcript = run_secure_sum(inputs, Random(seed + 1))
    assert output == xor_oracle(inputs)
    assert transcript.payloads[-1] == output


def test_all_zero_inputs_expose_only_masks():
    inputs = [(0,) * 5] * 3
    output, tr = run_secure_sum(inputs, Random(2))
    assert output == (0,) * 5
    running = (0,) * 5
    for i, mask in enumerate(random_columns(Random(2), 3, 5)):
        running = _xor(running, mask)
        assert tr.payloads[i] == running


def test_secure_sum_validates():
    with pytest.raises(ValueError):
        run_secure_sum([(1,), (0,)], Random(0))
    with pytest.raises(ValueError):
        run_secure_sum([(1,), (0, 1), (1,)], Random(0))
    with pytest.raises(ValueError):
        run_secure_sum([(2,), (0,), (1,)], Random(0))


@pytest.mark.parametrize("payloads, message", [
    ((), "at least 3 participants"),
    (((1, 0), (1, 1), (0, 0)), "at least 3 participants"),
    (((1,), (0,), (1,), (1,)), "at least 3 participants"),
    (((1,),) * 7, "not 7"),
])
def test_transcript_refuses_a_shape_no_ring_makes(payloads, message):
    # a ring of n >= 3 carries 2n payloads; any other count has no routes
    with pytest.raises(ValueError, match=message):
        Transcript(0, payloads)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_runners_refuse_rings_below_three(n):
    with pytest.raises(ValueError, match="at least 3 participants"):
        run_secure_sum(random_columns(Random(n), n, 4), Random(0))
    with pytest.raises(ValueError, match="at least 3 participants"):
        run_secure_linear_combination([SharePoint(i + 1, i) for i in range(n)], 5, Random(0))


def test_a_malformed_two_party_input_reports_its_own_fault():
    # the size rule lives in Transcript, so the inputs are checked first
    with pytest.raises(ValueError, match="width mismatch"):
        run_secure_sum([(1,), (0, 1)], Random(0))
    with pytest.raises(ValueError, match="duplicate share indices"):
        run_secure_linear_combination([SharePoint(1, 2), SharePoint(1, 3)], 5, Random(0))


def test_remasking_changes_transcript_not_output():
    inputs = random_columns(Random(5), 4, 8)
    out1, tr1 = run_secure_sum(inputs, Random(100))
    out2, tr2 = run_secure_sum(inputs, Random(200))
    assert out1 == out2
    assert tr1.payloads != tr2.payloads


def exported_routes(tr):
    """(round, channel, sender, receiver) of each line of ``export_transcript``."""
    routes = []
    for line in export_transcript(tr).splitlines():
        _, r, hop, _ = line.split(" ")
        sender, to = hop.split("->")
        routes.append((int(r), OPEN if to == "*" else RING, int(sender),
                       None if to == "*" else int(to)))
    return routes


def test_transcript_structure():
    inputs = random_columns(Random(7), 3, 4)
    _, tr = run_secure_sum(inputs, Random(8))
    assert len(tr.payloads) == 6
    routes = exported_routes(tr)
    assert [r for r, _, _, _ in routes] == list(range(1, 7))
    ring = [(s, to) for _, channel, s, to in routes if channel == RING]
    assert ring == [(1, 2), (2, 3), (3, 1)]
    broadcasts = [(s, to) for _, channel, s, to in routes if channel == OPEN]
    assert broadcasts == [(1, None), (2, None), (3, None)]


@pytest.mark.parametrize("n", [3, 8])
def test_export_routes_each_round_as_the_ring_does(n):
    # the exported <from>-><to|*> fields agree with the routing stated above,
    # on which the privacy audits below rely
    _, tr = run_secure_sum(random_columns(Random(30 + n), n, 5), Random(31 + n))
    assert exported_routes(tr) == [(r, *route(r, n)) for r in range(1, 2 * n + 1)]


def test_replay_determinism():
    inputs = random_columns(Random(9), 5, 6)
    _, tr = run_secure_sum(inputs, Random(10))
    assert _ring(inputs, random_columns(Random(10), 5, 6), _xor, _xor) == tr.payloads


def test_transcript_holds_only_what_the_channels_carried():
    # no participant's input or mask may ride along with the payloads
    fields = {f.name for f in dataclasses.fields(Transcript)}
    assert fields == {"modulus", "payloads"}


# SHA-256 of export_transcript for seeded runs: the nn-cli ring size, a width
# that is not a multiple of 4, and a 6-share Lagrange combination.  The CLI
# session pins cover rings of 3 only; these pin the transcript bytes a seed
# gives from one version to the next at other sizes.
PINNED_TRANSCRIPTS = {
    "xor-8x13": (
        lambda: run_secure_sum(random_columns(Random(24), 8, 13), Random(25)),
        "fcb755970e7d8313ab7853100c73dce2156fc403555299e17db2d3589e7ba06d",
    ),
    "xor-8x256": (
        lambda: run_secure_sum(random_columns(Random(26), 8, 256), Random(27)),
        "a4480e8c774b24545a49095ff5368ee55ee128629a8ba3f91eba021802ed9e43",
    ),
    "modp-6": (
        lambda: run_secure_linear_combination(
            [SharePoint(i, Random(28 + i).randrange(8191)) for i in range(1, 7)],
            8191, Random(29)),
        "7c8f7449f8abecd69fc585338eebf0631d8964f68147b0ed3632a986de6f5264",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TRANSCRIPTS))
def test_seeded_transcript_bytes_are_pinned(name):
    run, digest = PINNED_TRANSCRIPTS[name]
    _, tr = run()
    assert hashlib.sha256(export_transcript(tr).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the Lagrange variant

def test_linear_combination_matches_interpolation_example():
    shares = [SharePoint(1, 10), SharePoint(2, 8), SharePoint(3, 10)]
    value, tr = run_secure_linear_combination(shares, 11, Random(11))
    assert value == 5
    assert tr.modulus == 11


def test_linear_combination_zero_shares():
    shares = [SharePoint(i, 0) for i in (1, 2, 3)]
    value, _ = run_secure_linear_combination(shares, 11, Random(12))
    assert value == 0


def test_linear_combination_equals_interpolate_many_seeds():
    for seed in range(60):
        rng = Random(seed)
        p = 8191
        t = rng.randrange(3, 6)
        secret = rng.randrange(p)
        f = random_polynomial(secret, t, p, rng)
        indices = rng.sample(range(1, 20), t)
        shares = [SharePoint(i, poly_eval(f, i, p)) for i in indices]
        value, _ = run_secure_linear_combination(shares, p, Random(seed + 1))
        assert value == interpolate_at_zero(shares, p) == secret


def test_linear_combination_validates():
    shares = [SharePoint(1, 1), SharePoint(2, 2)]
    with pytest.raises(ValueError):
        run_secure_linear_combination(shares, 11, Random(0))
    bad = [SharePoint(1, 1), SharePoint(1, 2), SharePoint(3, 0)]
    with pytest.raises(ValueError):
        run_secure_linear_combination(bad, 11, Random(0))


# ---------------------------------------------------------------------------
# privacy audits, against an exhaustive oracle

def visible_rounds(payloads, observer):
    """Payloads by round of the rounds ``observer`` sees, routed by
    :func:`route`: a participant index sees what it sent, received or heard
    broadcast; ``RING`` and ``OPEN`` are eavesdroppers on that channel alone."""
    n = len(payloads) // 2
    routes = {r: route(r, n) for r in range(1, 2 * n + 1)}
    if observer in (RING, OPEN):
        picked = [r for r, (channel, _, _) in routes.items() if channel == observer]
    else:
        picked = [r for r, (_, sender, receiver) in routes.items()
                  if receiver is None or observer in (sender, receiver)]
    return {r: payloads[r - 1] for r in picked}


def consistent_inputs(inputs, observed, known, space, add, sub):
    """Per participant, the input values that some assignment of the unknown
    inputs and masks reproduces ``observed`` with.  Participant ``known``
    (0-based, or None) keeps its own input and derives its own mask: the
    value before its broadcast minus its broadcast."""
    n = len(inputs)
    unknown = [i for i in range(n) if i != known]
    xs, masks = list(inputs), [None] * n
    if known is not None:
        masks[known] = sub(observed[n + known], observed[n + known + 1])
    values = [set() for _ in range(n)]
    for chosen_inputs, chosen_masks in product(product(space, repeat=len(unknown)),
                                               repeat=2):
        for i, x, m in zip(unknown, chosen_inputs, chosen_masks):
            xs[i], masks[i] = x, m
        payloads = _ring(xs, masks, add, sub)
        if all(payloads[r - 1] == p for r, p in observed.items()):
            for i in range(n):
                values[i].add(xs[i])
    return values


def audit(inputs, payloads, observer, p=None):
    """Which other participants' inputs does the observer's view pin down,
    and how many values stay consistent per participant?  Bit columns
    (``p`` None) audit one bit position at a time: the payloads constrain
    each position on its own, so the product of the counts is exact."""
    n = len(inputs)
    known = observer - 1 if isinstance(observer, int) else None
    observed = visible_rounds(payloads, observer)
    if p is None:
        counts = [1] * n
        for bit in range(len(inputs[0])):
            values = consistent_inputs([x[bit] for x in inputs],
                                       {r: v[bit] for r, v in observed.items()},
                                       known, (0, 1), xor, xor)
            counts = [c * len(v) for c, v in zip(counts, values)]
    else:
        values = consistent_inputs(inputs, observed, known, range(p),
                                   lambda a, b: (a + b) % p, lambda a, b: (a - b) % p)
        counts = [len(v) for v in values]
    determined = tuple(i + 1 for i in range(n) if i != known and counts[i] == 1)
    return determined, tuple(counts)


def test_honest_run_determines_nothing_for_participants():
    inputs = random_columns(Random(13), 3, 4)
    _, tr = run_secure_sum(inputs, Random(14))
    for observer in (1, 2, 3):
        determined, _ = audit(inputs, tr.payloads, observer)
        assert determined == ()


def test_eavesdroppers_determine_nothing():
    inputs = random_columns(Random(15), 3, 4)
    _, tr = run_secure_sum(inputs, Random(16))
    for observer in (RING, OPEN):
        determined, _ = audit(inputs, tr.payloads, observer)
        assert determined == ()


def test_two_party_ring_is_degenerate():
    # the public gate requires n >= 3; drive the ring itself to show why
    inputs = [(1, 0, 1, 1), (0, 1, 1, 0)]
    payloads = _ring(inputs, random_columns(Random(17), 2, 4), _xor, _xor)
    determined, _ = audit(inputs, payloads, 2)
    assert determined == (1,)


def test_modp_audit_determines_nothing_at_three_parties():
    shares = [SharePoint(1, 3), SharePoint(2, 1), SharePoint(3, 4)]
    _, tr = run_secure_linear_combination(shares, 5, Random(18))
    # each participant weights its own share before the ring; the weights
    # are invertible mod 5, so counts of weighted values are counts of shares
    weights = lagrange_coefficients([s.index for s in shares], 5)
    weighted = [c * s.value % 5 for c, s in zip(weights, shares)]
    determined, counts = audit(weighted, tr.payloads, 2, p=5)
    assert determined == ()
    assert counts[0] == 5 and counts[2] == 5


# ---------------------------------------------------------------------------
# export format

def test_export_format_lines():
    inputs = random_columns(Random(21), 3, 12)
    _, tr = run_secure_sum(inputs, Random(22))
    text = export_transcript(tr)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    pattern = re.compile(r"^round (\d+) (\d)->(\d|\*) ([0-9a-f]{3})$")
    assert all(pattern.match(line) for line in lines)


def test_export_modp_payloads():
    shares = [SharePoint(1, 10), SharePoint(2, 8), SharePoint(3, 10)]
    _, tr = run_secure_linear_combination(shares, 11, Random(23))
    text = export_transcript(tr)
    assert text.endswith("3->* 5\n")  # final unmasking broadcast carries f(0)
