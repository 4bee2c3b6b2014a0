import pytest

from mlmagma.field import NotPrimeError, is_prime, make_modulus


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
