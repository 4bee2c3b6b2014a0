"""Exact arithmetic over a prime field Z_p.

Residues are plain ints kept canonical in [0, p).  The modulus is capped
below 2**31, inside the range where the Miller-Rabin witness set below
is deterministic.

Element orders (orbit periods, PRNG periods) share one primitive: the
order of x divides a known n, so divide n by each prime q of n while
x^(n/q) = 1.  The primes come from trial division, cached per n, and
those of p − 1 and p(p − 1)(p + 1) are also cached per p.
"""

from dataclasses import dataclass
from functools import lru_cache

MAX_MODULUS = 2**31

# Deterministic Miller-Rabin witness set, valid for all n < 3,215,031,751
# (covers the full supported range p < 2**31).
_MR_WITNESSES = (2, 3, 5, 7)


class NotPrimeError(ValueError):
    """Raised when a modulus fails the primality gate."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3,215,031,751."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class PrimeModulus:
    p: int

    def __post_init__(self):
        if not (3 <= self.p < MAX_MODULUS):
            raise NotPrimeError(
                f"modulus must satisfy 3 <= p < 2**31, got {self.p}"
            )
        if not is_prime(self.p):
            raise NotPrimeError(f"modulus {self.p} is not prime")


def make_modulus(p: int) -> PrimeModulus:
    return PrimeModulus(p)


@lru_cache(maxsize=256)
def prime_factors(n: int) -> frozenset[int]:
    """The primes of n >= 1, by trial division (cached: callers pass
    p − 1, p + 1 and friends, so one p factors once)."""
    primes, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1
    return frozenset(primes | {n} if n > 1 else primes)


@lru_cache(maxsize=64)
def order_primes(p: int) -> tuple[frozenset[int], frozenset[int]]:
    """The primes of p − 1 and those of p(p − 1)(p + 1)."""
    small = prime_factors(p - 1)
    return small, small | prime_factors(p + 1) | {p}


def order(n: int, primes, is_one) -> int:
    """The order of x, given x^n = 1, the primes of n and is_one(k): x^k = 1."""
    for q in primes:
        while n % q == 0 and is_one(n // q):
            n //= q
    return n
