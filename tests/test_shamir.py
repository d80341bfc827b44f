from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupshare.shamir import (
    PrimeModulus,
    SharePoint,
    interpolate_at_zero,
    is_prime,
    lagrange_coefficients,
    poly_eval,
    random_polynomial,
)

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 101, 8191)


def trial_division(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_10000():
    for n in range(10_000):
        assert is_prime(n) == trial_division(n), n


def test_is_prime_larger_values():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 - 1)


def test_is_prime_refuses_strong_pseudoprimes_to_the_first_primes():
    # psi_12 fooled the bases 2..37; psi_13 fools 2..41, so it and everything
    # above it are refused rather than guessed
    psi12 = 399165290221 * 798330580441
    psi13 = 1287836182261 * 2575672364521
    assert not is_prime(psi12)
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(psi13)
    for composite in (psi12, psi13):
        with pytest.raises(ValueError):
            PrimeModulus(composite)
    assert is_prime(2**61 - 1)


def test_is_prime_decides_mersenne_numbers_above_psi_13():
    # Lucas-Lehmer for a prime exponent; a composite exponent a * b gives
    # the factor 2^a - 1
    for q in (89, 107, 127, 521):
        assert is_prime(2**q - 1), q
    for q in (83, 85, 87, 97, 101, 103, 109, 113, 128):
        assert not is_prime(2**q - 1), q
    with pytest.raises(ValueError, match="cannot decide"):
        is_prime(2**127 + 1)


def test_prime_modulus_rejects_composites():
    PrimeModulus(8191)
    with pytest.raises(ValueError):
        PrimeModulus(8192)


def test_share_point_index_positive():
    with pytest.raises(ValueError):
        SharePoint(0, 3)


def test_random_polynomial_threshold_one_is_constant():
    f = random_polynomial(5, 1, 11, Random(0))
    assert f == (5,)
    assert all(poly_eval(f, x, 11) == 5 for x in range(11))


def test_random_polynomial_contract():
    f = random_polynomial(5, 3, 11, Random(4))
    assert len(f) == 3
    assert f[0] == 5
    assert f[-1] != 0


def test_random_polynomial_leading_coefficient_never_zero():
    rng = Random(10)
    assert all(
        random_polynomial(7, 4, 31, rng)[-1] != 0 for _ in range(10_000)
    )


def test_random_polynomial_validates():
    with pytest.raises(ValueError):
        random_polynomial(0, 0, 11, Random(0))
    with pytest.raises(ValueError):
        random_polynomial(0, 11, 11, Random(0))
    with pytest.raises(ValueError):
        random_polynomial(11, 2, 11, Random(0))


def test_poly_eval_oracle_values():
    f = (5, 3, 2)  # 5 + 3x + 2x^2
    assert poly_eval(f, 1, 11) == (5 + 3 + 2) % 11 == 10
    assert poly_eval(f, 2, 11) == (5 + 6 + 8) % 11 == 8
    assert poly_eval(f, 3, 11) == (5 + 9 + 18) % 11 == 10


@given(st.lists(st.integers(0, 10), min_size=1, max_size=5), st.integers(0, 10))
def test_poly_eval_matches_direct_sum(coeffs, x):
    p = 11
    f = tuple(coeffs)
    direct = sum(c * x**i for i, c in enumerate(coeffs)) % p
    assert poly_eval(f, x, p) == direct
    assert poly_eval(f, 0, p) == coeffs[0] % p


def test_lagrange_two_point_formula():
    for p in (11, 101, 8191):
        assert lagrange_coefficients([1, 2], p) == (2, p - 1)


def test_lagrange_coefficients_depend_only_on_indices():
    assert lagrange_coefficients([1, 2, 3], 11) == lagrange_coefficients((1, 2, 3), 11)


@given(st.sampled_from(SMALL_PRIMES[2:]), st.data())
def test_lagrange_coefficients_sum_to_one(p, data):
    size = data.draw(st.integers(1, min(5, p - 1)))
    indices = data.draw(
        st.lists(
            st.integers(1, p - 1), min_size=size, max_size=size, unique=True
        )
    )
    assert sum(lagrange_coefficients(indices, p)) % p == 1


def test_lagrange_cross_check_with_eval_example():
    cs = lagrange_coefficients([1, 2, 3], 11)
    assert sum(c * y for c, y in zip(cs, (10, 8, 10))) % 11 == 5


def test_lagrange_validates():
    with pytest.raises(ValueError):
        lagrange_coefficients([1, 1], 11)
    with pytest.raises(ValueError):
        lagrange_coefficients([11], 11)


def test_interpolate_examples():
    points = [SharePoint(1, 10), SharePoint(2, 8), SharePoint(3, 10)]
    assert interpolate_at_zero(points, 11) == 5
    assert interpolate_at_zero([SharePoint(1, 9)], 11) == 9
    with pytest.raises(ValueError):
        interpolate_at_zero([], 11)
    with pytest.raises(ValueError):
        interpolate_at_zero([SharePoint(1, 1), SharePoint(1, 2)], 11)


@settings(max_examples=60)
@given(
    st.sampled_from((11, 101, 997, 9973)),
    st.integers(1, 8),
    st.integers(0, 10**6),
    st.integers(0, 2**32),
)
def test_share_and_recover_any_subset(p, t, secret_raw, seed):
    secret = secret_raw % p
    n = min(t + 2, p - 1)
    f = random_polynomial(secret, t, p, Random(seed))
    shares = [SharePoint(i, poly_eval(f, i, p)) for i in range(1, n + 1)]
    for subset in combinations(shares, t):
        assert interpolate_at_zero(subset, p) == secret


def test_perfect_secrecy_by_exhaustive_coefficient_search():
    # with t - 1 shares in hand, every candidate secret admits exactly one
    # consistent polynomial; verified by enumerating the coefficient space
    for p, t in ((7, 2), (7, 3), (11, 2)):
        rng = Random(p * t)
        secret = rng.randrange(p)
        f = random_polynomial(secret, t, p, rng)
        held = [SharePoint(i, poly_eval(f, i, p)) for i in range(1, t)]
        for candidate in range(p):
            consistent = 0
            for tail in product(range(p), repeat=t - 1):
                g = (candidate,) + tail
                if all(poly_eval(g, pt.index, p) == pt.value for pt in held):
                    consistent += 1
            assert consistent == 1
