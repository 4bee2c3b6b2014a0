import random

import pytest

from math import gcd

from mlmagma.field import (NotPrimeError, divisors, is_prime, jordan2,
                           make_modulus, prime_factors, totient)


def test_known_primes_accepted():
    for p in (3, 5, 7, 23, 61, 101, 127, 1009, 2**31 - 1):
        assert make_modulus(p).p == p


@pytest.mark.parametrize("bad", [21, 4, 9, 1, 0, -7, 2, 2**31, 2**31 + 11])
def test_bad_moduli_rejected(bad):
    with pytest.raises(NotPrimeError):
        make_modulus(bad)


def test_is_prime_against_sieve():
    limit = 2000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, limit):
        if sieve[i]:
            for j in range(i * i, limit, i):
                sieve[j] = False
    for n in range(limit):
        assert is_prime(n) == sieve[n], n


def test_is_prime_pseudoprime_traps():
    # strong pseudoprimes to small bases; all must still be rejected
    assert not is_prime(2047)        # 23 * 89, spsp(2)
    assert not is_prime(1373653)     # 829 * 1657, spsp(2,3)
    assert not is_prime(25326001)    # 2251 * 11251, spsp(2,3,5)
    assert not is_prime(46657)       # 13 * 37 * 97, Carmichael
    assert not is_prime(46337 * 46337)  # square just under 2**31
    assert is_prime(2147483647)      # 2**31 - 1
    assert not is_prime(3215031751)  # 151 * 751 * 28351, spsp(2,3,5,7)
    assert is_prime(4294967291)      # largest prime below 2**32
    assert is_prime(2**61 - 1)
    assert not is_prime(3825123056546413051)  # spsp(2,...,23)


def _trial_primes(n):
    primes, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            primes.add(q)
            n //= q
        q += 1
    return primes | {n} if n > 1 else primes


def test_divisors_and_totient_small():
    for n in range(1, 600):
        assert divisors(n) == tuple(d for d in range(1, n + 1) if n % d == 0)
        assert totient(n) == sum(gcd(k, n) == 1 for k in range(1, n + 1))
        assert prime_factors(n) == _trial_primes(n)


def test_jordan2_counts_the_elements_of_order_n():
    """J₂(n) is the number of (a, b) in (Z/n)² of order n, and J₂(n)/φ(n)
    is Dedekind's ψ(n) = n·Π(1 + 1/q)."""
    for n in range(1, 80):
        assert jordan2(n) == sum(gcd(n, a, b) == 1
                                 for a in range(n) for b in range(n))
        psi = n
        for q in prime_factors(n):
            psi = psi // q * (q + 1)
        assert jordan2(n) == psi * totient(n)


def _seeded_products(count, seed=1975):
    """count products of 2-3 primes in (2^16, 2^32) of 17 to 32 bits,
    every fourth with its first prime repeated."""
    rng = random.Random(seed)

    def prime():
        bits = rng.randint(17, 32)
        q = rng.randrange(2**(bits - 1), 2**bits) | 1
        while not is_prime(q):
            q += 2
        return q

    products = []
    for i in range(count):
        factors = [prime() for _ in range(rng.choice((2, 3)))]
        if i % 4 == 0:
            factors[-1] = factors[0]
        products.append(tuple(factors))
    return products


@pytest.mark.parametrize("factors", [
    (2**31 - 1, 2**31 - 1),             # a square of a prime above 2^16
    (65537, 65537, 3),                  # the smallest prime above 2^16, squared
    (65537, 2**31 - 1, 2**61 - 1),      # a Mersenne prime above 2^32
    (4294967311, 4294967291),           # primes just above and below 2^32
    (3, 529510939, 2903110321),         # p² + p + 1 at p = 2^31 − 1
    (792049, 797207),                   # rho needs c = 2
    *_seeded_products(50),
    # trial division alone: the last prime below 2^16, and a power of 2
    (65521, 65521),
    (3, 65521, 65521),
    (2,) * 40,
])
def test_prime_factors_by_rho(factors):
    n = 1
    for q in factors:
        n *= q
    assert prime_factors(n) == set(factors)


def test_prime_factors_refuses_an_uncertified_prime():
    with pytest.raises(ValueError, match="certify"):
        prime_factors(3 * (2**89 - 1))      # a Mersenne prime above 3.3e24
