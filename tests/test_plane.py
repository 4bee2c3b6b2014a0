import random
from itertools import product

import pytest

from mlmagma import plane
from mlmagma.plane import kind, power, unit_order

SMALL_PRIMES = (2, 3, 5, 7)
KIND_OF_ROOTS = {0: "field", 1: "dual", 2: "split"}


def _mul(x, y, L, Q, p):
    """(s + t·w)(s' + t'·w) in F_p[w]/(w² − L w − Q), written out."""
    (s, t), (u, v) = x, y
    return (s * u + t * v * Q) % p, (s * v + t * u + t * v * L) % p


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_kind_counts_roots(p):
    for L, Q in product(range(p), repeat=2):
        roots = sum((r * r - L * r - Q) % p == 0 for r in range(p))
        assert kind(L, Q, p) == KIND_OF_ROOTS[roots], (L, Q)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_power_is_repeated_product(p):
    """power(s, t, n) is the n-fold product, for every element, every
    n ≤ 2p² and every (L, Q)."""
    for L, Q, s, t in product(range(p), repeat=4):
        x = (1, 0)
        for n in range(2 * p * p + 1):
            assert power(s, t, n, L, Q, p) == x, (L, Q, s, t, n)
            x = _mul(x, (s, t), L, Q, p)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_unit_order_is_least_power_to_one(p):
    """Every element of nonzero norm reaches 1; unit_order is the first k."""
    for L, Q, s, t in product(range(p), repeat=4):
        x, k = (s, t), 1
        while x != (1, 0) and k <= p * p:
            x = _mul(x, (s, t), L, Q, p)
            k += 1
        is_unit = (s * s + s * t * L - t * t * Q) % p != 0
        assert (x == (1, 0)) == is_unit, (L, Q, s, t)
        if is_unit:
            assert unit_order(s, t, L, Q, p) == k, (L, Q, s, t)


@pytest.mark.parametrize("p", (5, 7, 11))
def test_unit_order_tries_divisors_of_the_group_exponent(p, monkeypatch):
    """Every exponent unit_order powers to divides the exponent of the
    unit's own group: p − 1 on the scalar line t = 0 and on F_p × F_p,
    p² − 1 on F_{p²}, p(p − 1) on F_p[ε], told apart by counting roots."""
    tried = []

    def spy(s, t, n, L, Q, p):
        tried.append(n)
        return power(s, t, n, L, Q, p)

    monkeypatch.setattr(plane, "power", spy)
    for L, Q in product(range(p), repeat=2):
        roots = sum((r * r - L * r - Q) % p == 0 for r in range(p))
        plane_exponent = {0: p * p - 1, 1: p * (p - 1), 2: p - 1}[roots]
        for s, t in product(range(p), repeat=2):
            if (s * s + s * t * L - t * t * Q) % p == 0:
                continue                 # not a unit
            exponent = plane_exponent if t else p - 1
            del tried[:]
            unit_order(s, t, L, Q, p)
            assert tried and all(exponent % n == 0 for n in tried), \
                (L, Q, s, t, tried)


def test_power_matches_rescaled_plane_at_large_p():
    """t·w is a root of w² − tL·w − t²Q, so (s + t·w)^n = s_n + t·t_n·w
    for (s_n, t_n) = power(s, 1, n, tL, t²Q), with 64-bit n."""
    p = 2**31 - 1
    rng = random.Random(0x9A7E)
    for _ in range(200):
        s, t, L, Q = (rng.randrange(p) for _ in range(4))
        n = rng.randrange(2**64)
        s_n, t_n = power(s, 1, n, t * L % p, t * t * Q % p, p)
        assert power(s, t, n, L, Q, p) == (s_n, t * t_n % p), (s, t, L, Q, n)
