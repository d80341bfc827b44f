import re
from functools import reduce as fold
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.securesum import (
    OPEN,
    RING,
    _ModPDomain,
    _XorDomain,
    _payload_sequence,
    _run_ring,
    _wrap_messages,
    export_transcript,
    run_secure_linear_combination,
    run_secure_sum,
    transcript_privacy_audit,
)
from groupshare.shamir import SharePoint, interpolate_at_zero, poly_eval, random_polynomial


def xor_oracle(columns):
    return tuple(fold(lambda a, b: a ^ b, bits) for bits in zip(*columns))


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
    assert transcript.messages[-1].payload == output


def test_all_zero_inputs_expose_only_masks():
    inputs = [(0,) * 5] * 3
    output, tr = run_secure_sum(inputs, Random(2))
    assert output == (0,) * 5
    domain = _XorDomain(5)
    running = domain.zero()
    for i in range(3):
        running = domain.add(running, tr.masks[i])
        assert tr.messages[i].payload == running


def test_secure_sum_validates():
    with pytest.raises(ValueError):
        run_secure_sum([(1,), (0,)], Random(0))
    with pytest.raises(ValueError):
        run_secure_sum([(1,), (0, 1), (1,)], Random(0))
    with pytest.raises(ValueError):
        run_secure_sum([(2,), (0,), (1,)], Random(0))


def test_remasking_changes_transcript_not_output():
    inputs = random_columns(Random(5), 4, 8)
    out1, tr1 = run_secure_sum(inputs, Random(100))
    out2, tr2 = run_secure_sum(inputs, Random(200))
    assert out1 == out2
    assert tr1.messages != tr2.messages


def test_transcript_structure():
    inputs = random_columns(Random(7), 3, 4)
    _, tr = run_secure_sum(inputs, Random(8))
    assert [m.round for m in tr.messages] == list(range(1, 7))
    ring = [m for m in tr.messages if m.channel == RING]
    assert [(m.sender, m.receiver) for m in ring] == [(1, 2), (2, 3), (3, 1)]
    broadcasts = [m for m in tr.messages if m.channel == OPEN]
    assert [(m.sender, m.receiver) for m in broadcasts] == [(1, None), (2, None), (3, None)]


def test_replay_determinism():
    inputs = random_columns(Random(9), 5, 6)
    _, tr = run_secure_sum(inputs, Random(10))
    payloads = _payload_sequence(_XorDomain(6), tr.coefficients, tr.inputs, tr.masks)
    assert _wrap_messages(tr.n, payloads) == tr.messages


# ---------------------------------------------------------------------------
# the Lagrange variant

def test_linear_combination_matches_interpolation_example():
    shares = [SharePoint(1, 10), SharePoint(2, 8), SharePoint(3, 10)]
    value, tr = run_secure_linear_combination(shares, 11, Random(11))
    assert value == 5
    assert tr.kind == "modp" and tr.modulus == 11


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
# privacy audits

def test_honest_run_determines_nothing_for_participants():
    inputs = random_columns(Random(13), 3, 4)
    _, tr = run_secure_sum(inputs, Random(14))
    for observer in (1, 2, 3):
        audit = transcript_privacy_audit(tr, observer)
        assert audit.determined == ()


def test_eavesdroppers_determine_nothing():
    inputs = random_columns(Random(15), 3, 4)
    _, tr = run_secure_sum(inputs, Random(16))
    for observer in ("ring", "open"):
        audit = transcript_privacy_audit(tr, observer)
        assert audit.determined == ()


def test_two_party_ring_is_degenerate():
    # the public gate requires n >= 3; drive the internal runner to show why
    inputs = [(1, 0, 1, 1), (0, 1, 1, 0)]
    tr = _run_ring("xor", _XorDomain(4), inputs, (1, 1), Random(17))
    audit = transcript_privacy_audit(tr, 2)
    assert audit.determined == (1,)


def test_modp_audit_determines_nothing_at_three_parties():
    shares = [SharePoint(1, 3), SharePoint(2, 1), SharePoint(3, 4)]
    _, tr = run_secure_linear_combination(shares, 5, Random(18))
    audit = transcript_privacy_audit(tr, 2)
    assert audit.determined == ()
    assert audit.consistent_inputs[0] == 5 and audit.consistent_inputs[2] == 5


def test_audit_validates():
    inputs = random_columns(Random(19), 3, 2)
    _, tr = run_secure_sum(inputs, Random(20))
    with pytest.raises(ValueError):
        transcript_privacy_audit(tr, 9)
    with pytest.raises(ValueError):
        transcript_privacy_audit(tr, "wire")
    from dataclasses import replace

    truncated = replace(tr, messages=tr.messages[:-1])
    with pytest.raises(ValueError):
        transcript_privacy_audit(truncated, 1)


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
