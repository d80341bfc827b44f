"""Arithmetic in Z_p for the threshold layer.

An exact primality test for the modulus, polynomial sampling with a pinned
constant term, Horner evaluation, Lagrange coefficients for interpolation
at zero, and the interpolation itself.  Everything is exact integer
arithmetic: no step returns a probable answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

__all__ = [
    "PrimeModulus",
    "SharePoint",
    "is_prime",
    "random_polynomial",
    "poly_eval",
    "lagrange_coefficients",
    "interpolate_at_zero",
]

# Exact below psi_13, the least strong pseudoprime to all 13 bases (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality: deterministic Miller-Rabin below psi_13 (about
    3.3 * 10^24), Lucas-Lehmer for a Mersenne number 2^q - 1 from there up.

    Any other n from psi_13 up raises ValueError rather than guess.
    """
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        return _mersenne_is_prime(n)
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _mersenne_is_prime(n: int) -> bool:
    """Lucas-Lehmer: 2^q - 1 for an odd prime q is prime exactly when
    s_(q-2) = 0, where s_0 = 4 and s_(i+1) = s_i^2 - 2 mod 2^q - 1."""
    q = n.bit_length()
    if n != (1 << q) - 1:
        raise ValueError(f"cannot decide whether {n} is prime: it is not below {_MR_LIMIT} "
                         "and not a Mersenne number 2^q - 1")
    if not is_prime(q):  # 2^a - 1 divides 2^(ab) - 1
        return False
    s = 4
    for _ in range(q - 2):
        s = (s * s - 2) % n
    return s == 0


@dataclass(frozen=True)
class PrimeModulus:
    p: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")


@dataclass(frozen=True)
class SharePoint:
    """Evaluation point (index, value mod p); index 0 is reserved for the secret."""

    index: int
    value: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("share index must be at least 1")


def random_polynomial(secret: int, t: int, p: int, rng: Random) -> tuple[int, ...]:
    """Coefficients, constant term first, of a uniform polynomial of degree
    exactly t - 1 with f(0) = secret.

    The leading coefficient is sampled nonzero so the degree does not drop
    (t = 1 pins the constant polynomial, where no such freedom exists).
    """
    if not 1 <= t <= p - 1:
        raise ValueError(f"threshold {t} out of range for modulus {p}")
    if not 0 <= secret < p:
        raise ValueError("secret out of range")
    coeffs = [secret]
    coeffs.extend(rng.randrange(p) for _ in range(t - 2))
    if t >= 2:
        coeffs.append(rng.randrange(1, p))
    return tuple(coeffs)


def poly_eval(f: Sequence[int], x: int, p: int) -> int:
    """f(x) mod p for coefficients ``f``, constant term first (Horner)."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def lagrange_coefficients(indices: Sequence[int], p: int) -> tuple[int, ...]:
    """Public weights c_i with sum_i c_i * f(i) = f(0) for deg f < len(indices).

    c_i = prod_{j != i} (-i_j) * (i - i_j)^-1 mod p.
    """
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    if any(i % p == 0 for i in indices):
        raise ValueError("index congruent to 0 mod p")
    out = []
    for i in indices:
        num = 1
        den = 1
        for j in indices:
            if j != i:
                num = num * (-j) % p
                den = den * (i - j) % p
        out.append(num * pow(den, -1, p) % p)
    return tuple(out)


def interpolate_at_zero(points: Sequence[SharePoint], p: int) -> int:
    """Recover f(0) from evaluation points; exact whenever the points lie on
    a polynomial of degree below the point count."""
    if not points:
        raise ValueError("at least one point is required")
    coeffs = lagrange_coefficients([pt.index for pt in points], p)
    return sum(c * pt.value for c, pt in zip(coeffs, points)) % p
