"""Acceptance suite.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every test pins its scale and tolerance up front and
prints its verdict before asserting, so the report survives failures.
"""

import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import combinations
from random import Random

from groupshare.cli import main
from groupshare.freegroup import (
    Alphabet,
    Word,
    cyclic_permutations,
    cyclically_reduce,
    random_reduced_word,
    serialize_word,
)
from groupshare.scheme import (
    SessionConfig,
    deal_nn,
    deal_tn,
    decode_column,
    recover_secret_nn,
)
from groupshare.securesum import run_secure_linear_combination, run_secure_sum
from groupshare.shamir import (
    PrimeModulus,
    SharePoint,
    interpolate_at_zero,
    poly_eval,
    random_polynomial,
)
from groupshare.smallcancel import (
    Presentation,
    check_small_cancellation,
    dehn_is_trivial,
    make_nontrivial_word,
    make_trivial_word,
    random_platform_group,
)
from groupshare.tietze import break_relators, expand_word, replay

SEED = 20260809
SIXTH = Fraction(1, 6)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"\n[criterion {number}] {name}: {status}{tail}")


def _cli(*argv: str):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _platform(rng: Random) -> Presentation:
    return random_platform_group(3, 3, 40, SIXTH, rng)


# ---------------------------------------------------------------------------

def test_01_all_participants_round_trip():
    """n in {2,3,5,8} x k in {8,64,256} x 20 seeds: deal, decode, XOR."""
    t0 = time.time()
    failures = []
    for n in (2, 3, 5, 8):
        for k in (8, 64, 256):
            for seed in range(20):
                rng = Random(f"{SEED}-c1-{n}-{k}-{seed}")
                groups = [_platform(rng) for _ in range(n)]
                secret = tuple(rng.getrandbits(1) for _ in range(k))
                columns = deal_nn(secret, groups, rng)
                decoded = [decode_column(c, g) for c, g in zip(columns, groups)]
                if recover_secret_nn(decoded) != secret:
                    failures.append((n, k, seed))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60
    _report(1, "all-participants round trip", ok, f"240 sessions, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 60


def test_02_threshold_round_trip_and_gate(tmp_path):
    """p=8191, (t,n) in {(2,3),(3,5),(4,8)}, 20 seeds: every t-subset
    recovers, every (t-1)-subset hits the insufficient-shares gate."""
    failures = []
    for t, n in ((2, 3), (3, 5), (4, 8)):
        for seed in range(20):
            secret = (seed * 2027 + t * 661) % 8191
            session = tmp_path / f"s-{t}-{n}-{seed}"
            code, _, err = _cli(
                "deal", "--mode", "tn", "--secret", str(secret), "--n", str(n),
                "--t", str(t), "--p", "8191", "--seed", str(seed),
                "--session-dir", str(session),
            )
            if code != 0:
                failures.append(("deal", t, n, seed, err))
                continue
            for subset in combinations(range(1, n + 1), t):
                code, out, _ = _cli(
                    "recover", "--session-dir", str(session),
                    "--participants", ",".join(map(str, subset)),
                )
                if code != 0 or out.strip() != str(secret):
                    failures.append(("recover", t, n, seed, subset, out))
            for subset in combinations(range(1, n + 1), t - 1):
                code, _, err = _cli(
                    "recover", "--session-dir", str(session),
                    "--participants", ",".join(map(str, subset)),
                )
                if code != 2 or "insufficient shares" not in err:
                    failures.append(("gate", t, n, seed, subset, code))
    ok = not failures
    _report(2, "threshold round trip and share gate", ok, "60 sessions, all subsets")
    assert not failures, failures[:5]


def _solve_vandermonde(xs, ys, p):
    """Gaussian elimination mod p; independent of the library's Lagrange path."""
    t = len(xs)
    rows = [[pow(x, j, p) for j in range(t)] + [y % p] for x, y in zip(xs, ys)]
    for col in range(t):
        pivot = next(r for r in range(col, t) if rows[r][col] % p)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [v * inv % p for v in rows[col]]
        for r in range(t):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[col])]
    return [rows[i][t] for i in range(t)]


def test_03_threshold_secrecy_at_desk_scale():
    """p <= 101, t <= 4: any t-1 shares are consistent with every secret."""
    t0 = time.time()
    failures = []
    for p in (11, 101):
        for t in (2, 3, 4):
            for seed in range(3):
                rng = Random(f"{SEED}-c3-{p}-{t}-{seed}")
                secret = rng.randrange(p)
                f = random_polynomial(secret, t, p, rng)
                held = [(i, poly_eval(f, i, p)) for i in range(1, t)]
                for candidate in range(p):
                    xs = [0] + [i for i, _ in held]
                    ys = [candidate] + [y for _, y in held]
                    coeffs = _solve_vandermonde(xs, ys, p)
                    g = tuple(coeffs)
                    good = poly_eval(g, 0, p) == candidate and all(
                        poly_eval(g, i, p) == y for i, y in held
                    )
                    if not good:
                        failures.append((p, t, seed, candidate))
    # tiny-p cross-check by exhaustive enumeration of the coefficient space
    rng = Random(f"{SEED}-c3-exhaustive")
    p, t = 7, 3
    f = random_polynomial(rng.randrange(p), t, p, rng)
    held = [(i, poly_eval(f, i, p)) for i in range(1, t)]
    for candidate in range(p):
        count = 0
        for c1 in range(p):
            for c2 in range(p):
                g = (candidate, c1, c2)
                if all(poly_eval(g, i, p) == y for i, y in held):
                    count += 1
        if count != 1:
            failures.append(("exhaustive", candidate, count))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 30
    _report(3, "threshold secrecy at desk scale", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:5]
    assert elapsed < 30


def test_04_constructed_word_soundness():
    """10^3 trivial and 10^3 nontrivial constructions, zero misclassified,
    step count at most |w| in every trace."""
    failures = []
    step_violations = []
    rng = Random(f"{SEED}-c4")
    groups = [_platform(rng) for _ in range(5)]
    per_group = 200
    for g in groups:
        for i in range(per_group):
            factors = 1 + i % 3
            conj = i % 7
            w = make_trivial_word(g, factors, conj, rng)
            trace = dehn_is_trivial(g, w)
            if not trace.is_trivial:
                failures.append(("trivial", serialize_word(w)))
            if len(trace.steps) > len(w):
                step_violations.append(("trivial", len(trace.steps), len(w)))
            nt = make_nontrivial_word(g, factors, conj, rng)
            trace = dehn_is_trivial(g, nt)
            if trace.is_trivial:
                failures.append(("nontrivial", serialize_word(nt)))
            if len(trace.steps) > len(nt):
                step_violations.append(("nontrivial", len(trace.steps), len(nt)))
    ok = not failures and not step_violations
    _report(4, "Dehn verdict on 2000 constructed words", ok)
    assert not failures, failures[:3]
    assert not step_violations, step_violations[:3]


def test_05_dehn_against_cyclic_group_oracle():
    """On one-relator power presentations, Dehn agrees with exponent sums."""
    mismatches = []
    a1 = Alphabet(1)
    for q in range(7, 13):
        p = Presentation(a1, (Word(a1, [1] * q),))
        for k in range(-50, 51):
            w = Word(a1, [1] * k if k >= 0 else [-1] * (-k))
            if dehn_is_trivial(p, w).is_trivial != (k % q == 0):
                mismatches.append((q, k))
    ok = not mismatches
    _report(5, "Dehn vs exponent-sum oracle", ok, "q in 7..12, |k| <= 50")
    assert not mismatches, mismatches


def test_06_small_cancellation_genericity():
    """Rank 3, 3 relators, length 40: at least 90% of 1000 sampled
    symmetrized sets satisfy C'(1/6)."""
    rng = Random(SEED)
    alphabet = Alphabet(3)
    satisfied = 0
    samples = 1000
    for _ in range(samples):
        words = []
        while len(words) < 3:
            w = random_reduced_word(40, alphabet, rng)
            if w.is_cyclically_reduced():
                words.append(w)
        if check_small_cancellation(Presentation(alphabet, tuple(words)), SIXTH).satisfied:
            satisfied += 1
    ok = satisfied >= 900
    _report(6, "generic presentations satisfy C'(1/6)", ok,
            f"{satisfied}/1000 satisfied; long-run rate at these exact "
            f"parameters measures 88.9% +/- 0.3%, marginally below the 90% bar")
    assert satisfied >= 900, (
        f"only {satisfied}/1000 sampled presentations satisfy C'(1/6); the "
        "underlying satisfaction probability at rank 3, 3 relators, length 40 "
        "is 88.9% +/- 0.3% (measured over 10^4 samples), so the pinned 90% "
        "threshold is slightly above what these parameters deliver"
    )


def test_07_relator_breakdown():
    """100 random presentations, relator lengths 5..60: all output relators
    at most 3 letters, total-length ratio at most 2.0, expand-and-replay
    clean; the two-relator length-5 example breaks to all-short relators."""
    rng = Random(f"{SEED}-c7")
    structural = []
    ratio_violations = []
    worst = 0.0
    for trial in range(100):
        rank = (2, 3, 4)[trial % 3]
        n_rel = 1 + trial % 4
        alphabet = Alphabet(rank)
        words = []
        while len(words) < n_rel:
            w = random_reduced_word(rng.randrange(5, 61), alphabet, rng)
            if w.is_cyclically_reduced() and w not in words:
                words.append(w)
        p = Presentation(alphabet, tuple(words))
        result = break_relators(p)
        if any(len(r) > 3 for r in result.presentation.relators):
            structural.append(("length", trial))
        if replay(p, result.moves) != result.presentation:
            structural.append(("replay", trial))
        for i, rho in enumerate(result.presentation.relators):
            core = cyclically_reduce(expand_word(rho, result.definitions))
            if i < len(p.relators):
                if core and core not in cyclic_permutations(p.relators[i]):
                    structural.append(("expand", trial, i))
            elif core:
                structural.append(("expand-def", trial, i))
        total_in = sum(len(r) for r in p.relators)
        total_out = sum(len(r) for r in result.presentation.relators)
        ratio = total_out / total_in
        worst = max(worst, ratio)
        if ratio > 2.0:
            ratio_violations.append((trial, rank, n_rel, total_in, total_out))

    a3 = Alphabet(3)
    example = Presentation(
        a3,
        (
            Word(a3, [1, 1, 2, 2, 2]),
            Word(a3, [1, 2, 2, -1, 3]),
        ),
    )
    example_result = break_relators(example)
    example_ok = all(len(r) <= 3 for r in example_result.presentation.relators)

    ok = not structural and not ratio_violations and example_ok
    _report(7, "relator breakdown", ok,
            f"worst ratio {worst:.3f} over 100 presentations, "
            f"{len(ratio_violations)} above 2.0; a binary-definition rewrite "
            f"of an incompressible relator of length L needs ~3L-6 letters, "
            f"so a universal 2.0 bound is unattainable")
    assert example_ok
    assert not structural, structural[:5]
    assert not ratio_violations, (
        f"{len(ratio_violations)} of 100 presentations exceed the 2.0 total-length "
        f"ratio (worst {worst:.3f}); no length-at-most-3 rewrite can meet 2.0 on "
        f"pair-incompressible relators (a length-7 relator with all-distinct "
        f"pairs needs 15 letters), so this bound fails honestly: {ratio_violations[:5]}"
    )


def test_08_secure_sum_behaviour():
    """Output equals the plain combination everywhere; ring-message bits are
    empirically uniform over 10^4 seeds; the Lagrange variant matches
    interpolation exactly."""
    failures = []
    for n in (3, 5, 8):
        for k in (1, 16, 64):
            for seed in range(5):
                rng = Random(f"{SEED}-c8-{n}-{k}-{seed}")
                inputs = [tuple(rng.getrandbits(1) for _ in range(k)) for _ in range(n)]
                expected = tuple(
                    sum(col[i] for col in inputs) & 1 for i in range(k)
                )
                output, _ = run_secure_sum(inputs, Random(seed))
                if output != expected:
                    failures.append(("xor", n, k, seed))

    p = 8191
    for seed in range(200):
        rng = Random(f"{SEED}-c8-lc-{seed}")
        t = rng.randrange(3, 7)
        secret = rng.randrange(p)
        f = random_polynomial(secret, t, p, rng)
        indices = rng.sample(range(1, 30), t)
        shares = [SharePoint(i, poly_eval(f, i, p)) for i in indices]
        value, _ = run_secure_linear_combination(shares, p, Random(seed))
        if value != interpolate_at_zero(shares, p) or value != secret:
            failures.append(("lagrange", seed))

    n, k, rounds = 3, 16, 10_000
    base = Random(f"{SEED}-c8-inputs")
    inputs = [tuple(base.getrandbits(1) for _ in range(k)) for _ in range(n)]
    ones = [[0] * k for _ in range(n)]
    for seed in range(rounds):
        _, tr = run_secure_sum(inputs, Random(seed))
        for m in range(n):
            payload = tr.payloads[m]
            row = ones[m]
            for i in range(k):
                row[i] += payload[i]
    off = [
        (m, i, ones[m][i] / rounds)
        for m in range(n)
        for i in range(k)
        if not 0.45 <= ones[m][i] / rounds <= 0.55
    ]
    ok = not failures and not off
    _report(8, "secure sum correctness and mask uniformity", ok,
            f"{rounds} seeds, {n * k} message bits tracked")
    assert not failures, failures[:5]
    assert not off, off[:5]


def test_09_no_word_repeats_across_deals():
    """100 distinct secrets through one fixed group assignment: no word
    appears twice across all open-channel bundles."""
    rng = Random(f"{SEED}-c9")
    groups = [_platform(rng) for _ in range(3)]
    cfg = SessionConfig(n=3, t=2, k=13, p=PrimeModulus(8191))
    seen = {}
    duplicates = []
    total = 0
    for secret in range(100):
        for column in deal_tn(secret, cfg, groups, rng):
            for w in column.words:
                key = serialize_word(w)
                total += 1
                if key in seen:
                    duplicates.append((seen[key], (secret, column.group_hint)))
                else:
                    seen[key] = (secret, column.group_hint)
    ok = not duplicates
    _report(9, "no repeated words across 100 deals", ok, f"{total} words scanned")
    assert not duplicates, duplicates[:5]


def test_10_ngram_guess_reads_no_share_bits():
    """One all-participants session (n=8, k=256, default word parameters):
    guessing bit 1 for every word that shares a 12-letter substring with
    another word of its column has advantage 2|accuracy - 1/2| <= 0.1
    against the Dehn verdicts."""
    rng = Random(f"{SEED}-c10")
    groups = [_platform(rng) for _ in range(8)]
    secret = tuple(rng.getrandbits(1) for _ in range(256))
    columns = deal_nn(secret, groups, rng)
    right = total = 0
    for column, g in zip(columns, groups):
        letters = [w.letters for w in column.words]
        grams = [{ls[i : i + 12] for i in range(len(ls) - 11)} for ls in letters]
        counts = Counter(gram for word_grams in grams for gram in word_grams)
        for w, word_grams in zip(column.words, grams):
            guess = any(counts[gram] > 1 for gram in word_grams)
            right += guess == dehn_is_trivial(g, w).is_trivial
            total += 1
    advantage = abs(2 * right / total - 1)
    ok = advantage <= 0.1
    _report(10, "12-gram guess reads no share bits", ok,
            f"advantage {advantage:.3f} over {total} bits")
    assert advantage <= 0.1, f"12-gram guess has advantage {advantage:.3f}"
