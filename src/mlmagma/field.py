"""Exact arithmetic over a prime field Z_p.

Residues are plain ints kept canonical in [0, p).  Primality is
Miller-Rabin to the first twelve prime bases, deterministic below 3.3e24.
The modulus is capped below 2**31, which bounds three things: p ± 1 <
2**32, so both factor by trial division alone; p² + p + 1 < 2**62, so
every prime that the PRNG's period needs is certified; and the coset
search of orbit_length stays under √p < 2**15.5 steps.

Element orders (orbit periods, PRNG periods) share one primitive: the
order of x divides a known n, so divide n by each prime q of n while
x^(n/q) = 1.  The primes come from trial division below 2**16 and
Pollard rho (Floyd's cycle finding) on what is left, cached per n;
those of p(p − 1)(p + 1) are also cached per p.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from math import gcd

MAX_MODULUS = 2**31


class NotPrimeError(ValueError):
    """Raised when a modulus fails the primality gate."""


# The first twelve primes: a deterministic witness set for all
# n < 3,317,044,064,679,887,385,961,981 (~3.3e24).
_MR64_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR64_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact for
    n < 3.3e24, a strong probable-prime test above."""
    if n < 2:
        return False
    for w in _MR64_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR64_WITNESSES:
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
        if type(self.p) is not int or not 3 <= self.p < MAX_MODULUS:
            raise NotPrimeError(
                f"modulus must satisfy 3 <= p < 2**31, got {self.p}"
            )
        if not is_prime(self.p):
            raise NotPrimeError(f"modulus {self.p} is not prime")


def make_modulus(p: int) -> PrimeModulus:
    return PrimeModulus(p)


_TRIAL_BOUND = 2**16


@lru_cache(maxsize=256)
def prime_factors(n: int) -> frozenset[int]:
    """The primes of n >= 1 (cached: callers pass p − 1, p + 1 and
    friends, so one p factors once).

    Trial division by q < 2**16, which alone factors every n < 2**32;
    a cofactor left above 2**32 has only primes above 2**16 and is split
    by Pollard rho, its parts certified by Miller-Rabin.
    """
    primes, q = set(), 2
    while q * q <= n and q < _TRIAL_BOUND:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1
    return frozenset(primes | _rho_primes(n) if n > 1 else primes)


def _rho_primes(n: int) -> set[int]:
    """The primes of n > 1, given that n has none below 2**16."""
    if n < _TRIAL_BOUND**2:
        return {n}
    if is_prime(n):
        if n >= _MR64_LIMIT:
            raise ValueError(f"cannot certify that {n} is prime: above 3.3e24")
        return {n}
    d = _rho_divisor(n)
    return _rho_primes(d) | _rho_primes(n // d)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard rho with Floyd's
    cycle finding on x ↦ x² + c, x stepping once and y twice, one gcd a
    step; a gcd of n (the cycle closed mod n) tries the next c."""
    for c in count(1):
        x, y, g = 2, 2, 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = gcd(x - y, n)
        if g != n:
            return g


@lru_cache(maxsize=256)
def divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending."""
    divs = [1]
    for q in prime_factors(n):
        e, m = 0, n
        while m % q == 0:
            m //= q
            e += 1
        divs = [d * q**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def totient(n: int) -> int:
    """Euler's φ(n) for n >= 1."""
    for q in prime_factors(n):
        n = n // q * (q - 1)
    return n


def jordan2(n: int) -> int:
    """Jordan's J₂(n) = n²·Π(1 − 1/q²) for n >= 1: the elements of order
    n in (Z/n)²."""
    m = n * n
    for q in prime_factors(n):
        m = m // (q * q) * (q * q - 1)
    return m


@lru_cache(maxsize=64)
def order_primes(p: int) -> frozenset[int]:
    """The primes of p(p − 1)(p + 1)."""
    return prime_factors(p - 1) | prime_factors(p + 1) | {p}


def order(n: int, primes, is_one) -> int:
    """The order of x, given x^n = 1, the primes of n and is_one(k): x^k = 1."""
    for q in primes:
        while n % q == 0 and is_one(n // q):
            n //= q
    return n
