import pytest

from mlmagma import power
from mlmagma import (Params3, Params4, Vector3, Vector4, identity, make_modulus,
                     mul, params, vector)
from mlmagma.magma import ModulusMismatchError, plane
from mlmagma.power import (check_internal_commutativity,
                           check_power_associativity, check_power_identity,
                           pow_fast, pow_iter, powers_upto)
from conftest import paper_mul, random_instance


def scalar_pow(n, p):
    """Oracle for base (1,0,0): the scalar case collapses to 2^n - 1 mod p."""
    return (pow(2, n, p) - 1) % p


def test_scalar_oracle():
    m = make_modulus(101)
    ps = Params3(1, 1, 1, 1, 1, m)
    a = Vector3(1, 0, 0, m)
    assert pow_iter(a, 5, ps).components == (31, 0, 0)
    assert scalar_pow(5, 101) == 31
    # 2^64 - 1 mod 101 == 78 by direct computation
    assert pow_fast(a, 64, ps).components == (scalar_pow(64, 101), 0, 0)
    assert pow_fast(a, 64, ps).components == (78, 0, 0)
    for n in (1, 2, 3, 10, 100, 12345):
        assert pow_iter(a, n, ps).components == (scalar_pow(n, 101), 0, 0)


def test_power_of_identity(rng):
    for _ in range(20):
        a, ps = random_instance(rng)
        e = identity(3, a.modulus)
        for n in (1, 2, 7, 64):
            assert pow_iter(e, n, ps) == e
            assert pow_fast(e, n, ps) == e


def test_zero_exponent_is_identity(rng):
    a, ps = random_instance(rng)
    e = identity(3, a.modulus)
    assert pow_iter(a, 0, ps) == e
    assert pow_fast(a, 0, ps) == e


def test_exponent_range_checked(rng):
    a, ps = random_instance(rng)
    with pytest.raises(ValueError):
        pow_fast(a, 2**64, ps)
    with pytest.raises(ValueError):
        pow_iter(a, -1, ps)


def test_exponents_must_be_ints(rng):
    """A bool or float exponent is refused as out of range, with the
    range's message, not read as 1 or failing inside bin()."""
    a, ps = random_instance(rng)
    for n in (True, 2.5, 3.0):
        for fn in (pow_fast, pow_iter, powers_upto):
            with pytest.raises(ValueError, match="exponent out of 64-bit range"):
                fn(a, n, ps)


def test_fast_matches_iter(rng):
    for _ in range(100):
        a, ps = random_instance(rng)
        n = rng.randrange(1, 400)
        assert pow_fast(a, n, ps) == pow_iter(a, n, ps)


def test_fast_matches_iter_to_ten_thousand(rng):
    for _ in range(100):
        a, ps = random_instance(rng)
        n = rng.randrange(1, 10**4 + 1)
        assert pow_fast(a, n, ps) == pow_iter(a, n, ps)
    # and the endpoint itself
    a, ps = random_instance(rng)
    assert pow_fast(a, 10**4, ps) == pow_iter(a, 10**4, ps)


def test_fast_matches_iter_both_dims(rng):
    for dim in (3, 4):
        for _ in range(50):
            a, ps = random_instance(rng, dim)
            n = rng.randrange(1, 200)
            assert pow_fast(a, n, ps) == pow_iter(a, n, ps)


def ladder_pow(a, n, ps):
    """a^n by square-and-multiply on boxed vectors with the paper's product."""
    acc = identity(a.dim, a.modulus)
    for bit in bin(n)[2:]:
        acc = paper_mul(acc, acc, ps)
        if bit == "1":
            acc = paper_mul(acc, a, ps)
    return acc


def test_fast_matches_boxed_ladder_64bit(rng):
    for dim in (3, 4):
        for _ in range(200):
            a, ps = random_instance(rng, dim, primes=(23, 101, 2**31 - 1))
            n = rng.randrange(2**64)
            assert pow_fast(a, n, ps) == ladder_pow(a, n, ps)


def degenerate_starts(rng, dim, p):
    """Starts with a' = 0, with s = a0 + 1 = 0, and in a plane with
    L^2 + 4Q = 0 (w - L/2 nilpotent), each with random parameters."""
    m = make_modulus(p)
    while True:
        ps = params([rng.randrange(p) for _ in range(5 if dim == 3 else 9)], m)
        tail = [rng.randrange(p) for _ in range(dim - 1)]
        a = vector([rng.randrange(p), *tail], m)
        L, Q = plane(a, ps)
        if any(tail) and (L * L + 4 * Q) % p == 0:
            break
    return ps, [vector([rng.randrange(p)] + [0] * (dim - 1), m),
                vector([p - 1, *tail], m),
                a]


def test_fast_matches_iter_on_degenerate_starts(rng):
    for dim in (3, 4):
        for p in (5, 23, 61):
            for _ in range(5):
                ps, starts = degenerate_starts(rng, dim, p)
                for a in starts:
                    for n in list(range(2 * p + 3)) + [p * p + 1, rng.randrange(4000)]:
                        assert pow_fast(a, n, ps) == pow_iter(a, n, ps), (a, n)


def test_fast_rejects_mismatch():
    m23, m61 = make_modulus(23), make_modulus(61)
    with pytest.raises(ModulusMismatchError):
        pow_fast(Vector3(1, 2, 3, m61), 5, Params3(1, 1, 1, 1, 1, m23))
    with pytest.raises(ModulusMismatchError):
        pow_fast(Vector4(1, 2, 3, 4, m23), 5, Params3(1, 1, 1, 1, 1, m23))
    with pytest.raises(ModulusMismatchError):
        pow_fast(Vector3(1, 2, 3, m23), 5, Params4(*[1] * 9, m23))


def test_stepped_powers_reject_mismatch():
    """pow_iter and powers_upto refuse a modulus or dimension that their
    stepper would not share with the start."""
    m23, m61 = make_modulus(23), make_modulus(61)
    for powers in (pow_iter, powers_upto):
        with pytest.raises(ModulusMismatchError):
            powers(Vector3(1, 2, 3, m61), 5, Params3(1, 1, 1, 1, 1, m23))
        with pytest.raises(ModulusMismatchError):
            powers(Vector4(1, 2, 3, 4, m23), 5, Params3(1, 1, 1, 1, 1, m23))
        with pytest.raises(ModulusMismatchError):
            powers(Vector3(1, 2, 3, m23), 5, Params4(*[1] * 9, m23))


def test_powers_upto(rng):
    a, ps = random_instance(rng)
    seq = powers_upto(a, 10, ps)
    assert seq[0] == a
    for i, v in enumerate(seq, start=1):
        assert v == pow_iter(a, i, ps)


def test_powers_upto_zero_is_empty(rng):
    """[a^1..a^n] is empty for n = 0 and just [a] for n = 1."""
    for dim in (3, 4):
        a, ps = random_instance(rng, dim)
        assert powers_upto(a, 0, ps) == []
        assert powers_upto(a, 1, ps) == [a]


def test_power_associativity_examples():
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    ok, witness = check_power_associativity(Vector3(1, 1, 1, m), ps, 5)
    assert ok and witness is None
    ok, _ = check_power_associativity(identity(3, m), ps, 8)
    assert ok
    ok, _ = check_power_associativity(Vector3(1, 0, 0, m), ps, 8)
    assert ok


def test_power_associativity_bounds(rng):
    a, ps = random_instance(rng)
    with pytest.raises(ValueError):
        check_power_associativity(a, ps, 2)
    with pytest.raises(ValueError):
        check_power_associativity(a, ps, 9)


def test_internal_commutativity(rng):
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    ok, _ = check_internal_commutativity(Vector3(2, 3, 5, m), ps, 8, 8)
    assert ok
    for _ in range(30):
        a, ps = random_instance(rng)
        ok, witness = check_internal_commutativity(a, ps, 6, 6)
        assert ok, witness


def test_power_identity_examples():
    m = make_modulus(101)
    ps = Params3(1, 1, 1, 1, 1, m)
    a = Vector3(1, 0, 0, m)
    a3, a4 = pow_iter(a, 3, ps), pow_iter(a, 4, ps)
    assert (a3.components, a4.components) == ((7, 0, 0), (15, 0, 0))
    assert mul(a3, a4, ps).components == (26, 0, 0)
    assert pow_iter(a, 7, ps).components == (26, 0, 0)
    ok, _ = check_power_identity(a, ps, 8, 8)
    assert ok


def test_power_identity_random(rng):
    for _ in range(30):
        a, ps = random_instance(rng)
        ok, witness = check_power_identity(a, ps, 8, 8)
        assert ok, witness


def test_nested_powers_multiply(rng):
    # (a^m)^n == (a^n)^m == a^(m*n), the relation the key exchange rests on
    for _ in range(50):
        a, ps = random_instance(rng)
        m_exp = rng.randrange(1, 17)
        n_exp = rng.randrange(1, 17)
        am = pow_fast(a, m_exp, ps)
        an = pow_fast(a, n_exp, ps)
        prod = pow_fast(a, m_exp * n_exp, ps)
        assert pow_fast(am, n_exp, ps) == prod
        assert pow_fast(an, m_exp, ps) == prod


def test_grid_checkers_refuse_bounds_below_one(rng):
    a, ps = random_instance(rng)
    for check in (check_internal_commutativity, check_power_identity):
        for bounds in ((0, 3), (3, 0), (-2, -2)):
            with pytest.raises(ValueError,
                               match="exponent bounds must be >= 1"):
                check(a, ps, *bounds)


def test_grid_checkers_report_their_counterexamples(monkeypatch):
    """With a product that returns its left factor, each checker reports
    its own first failing cell as (m, n, lhs, rhs)."""
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    a = Vector3(1, 1, 1, m)
    a2 = powers_upto(a, 2, ps)[1]
    assert a2 != a
    monkeypatch.setattr(power, "mul", lambda x, y, ps: x)
    assert check_internal_commutativity(a, ps, 3, 3) == (False, (1, 2, a, a2))
    assert check_power_identity(a, ps, 3, 3) == (False, (1, 1, a, a2))
    # a 1 × 1 grid has no pair of distinct powers to commute
    assert check_internal_commutativity(a, ps, 1, 1) == (True, None)
