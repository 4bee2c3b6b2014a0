import pytest

from mlmagma import Params3, Params4, Vector3, identity, make_modulus
from mlmagma.dip import (DipInstance, dip_bruteforce, dip_timing,
                         find_long_period_base, write_timing_csv)
from mlmagma.orbit import orbit_length
from mlmagma.power import pow_iter
from conftest import random_instance


def test_scalar_example():
    m = make_modulus(101)
    ps = Params3(1, 1, 1, 1, 1, m)
    base = Vector3(1, 0, 0, m)
    target = Vector3(63, 0, 0, m)  # 2^6 - 1
    res = dip_bruteforce(DipInstance(base, target, ps, cap=1000))
    assert res.exponent == 6
    assert res.steps == 6


def test_target_equals_base(rng):
    a, ps = random_instance(rng)
    res = dip_bruteforce(DipInstance(a, a, ps, cap=10))
    assert res.exponent == 1 and res.steps == 1


def test_not_found_contract():
    m = make_modulus(101)
    ps = Params3(1, 1, 1, 1, 1, m)
    base = Vector3(1, 0, 0, m)
    e = identity(3, m)
    # ord(2) = 100, so no n <= 50 reaches the identity
    res = dip_bruteforce(DipInstance(base, e, ps, cap=50))
    assert res.exponent is None
    assert res.steps == 50


def test_solution_is_minimal_and_exact(rng):
    for _ in range(30):
        a, ps = random_instance(rng, primes=(23,))
        n = rng.randrange(1, 200)
        target = pow_iter(a, n, ps)
        res = dip_bruteforce(DipInstance(a, target, ps, cap=1000))
        assert res.exponent is not None
        assert res.exponent <= n
        assert pow_iter(a, res.exponent, ps) == target
        for smaller in range(1, min(res.exponent, 8)):
            assert pow_iter(a, smaller, ps) != target


def test_instance_validation():
    m23, m61 = make_modulus(23), make_modulus(61)
    ps = Params3(1, 1, 1, 1, 1, m23)
    a = Vector3(1, 0, 0, m23)
    with pytest.raises(ValueError):
        DipInstance(a, Vector3(1, 0, 0, m61), ps, cap=10)
    with pytest.raises(ValueError):
        DipInstance(a, a, ps, cap=0)


def test_find_long_period_base():
    ps = Params3(129, 128, 1, 1, 2, make_modulus(257))
    base = find_long_period_base(ps, min_period=2**14)
    assert base is not None
    assert base.components[0] == 0


def test_find_long_period_base_four_components():
    ps = Params4(129, 128, 0, 1, 0, 0, 1, 2, 0, make_modulus(257))
    base = find_long_period_base(ps, min_period=2**14)
    assert base.components[0] == base.components[3] == 0
    rec = orbit_length(base, ps)
    assert rec.tail + rec.period > 2**14


def test_timing_doubles(tmp_path):
    ps = Params3(129, 128, 1, 1, 2, make_modulus(257))
    rows = dip_timing(ps, [256, 512, 1024, 2048], samples=2)
    assert [r.exponent for r in rows] == [256, 512, 1024, 2048]
    for prev, cur in zip(rows, rows[1:]):
        assert cur.mean_steps / prev.mean_steps == pytest.approx(2.0)
    assert rows[0].mean_steps == 256
    out = tmp_path / "timing.csv"
    write_timing_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "exponent,mean_steps,samples,mean_seconds"
    assert len(lines) == 5


def test_timing_rejects_no_samples():
    ps = Params3(129, 128, 1, 1, 2, make_modulus(257))
    for samples in (0, -2):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            dip_timing(ps, [256], samples=samples)


def test_timing_rejects_bad_exponents():
    ps = Params3(129, 128, 1, 1, 2, make_modulus(257))
    for exponents in ([], [0], [256, 0], [-3, 256]):
        with pytest.raises(ValueError, match="exponents must be a non-empty"):
            dip_timing(ps, exponents)


def test_timing_refuses_when_no_base_is_long_enough():
    """At p = 3 no orbit is longer than p² − 1 = 8, so no base can carry
    a planted exponent of 9."""
    ps = Params3(1, 2, 1, 1, 2, make_modulus(3))
    assert find_long_period_base(ps, min_period=9) is None
    with pytest.raises(RuntimeError, match="no base with period above the "
                                           "largest exponent was found"):
        dip_timing(ps, [9])


def test_timing_refuses_an_explicit_base_of_too_short_a_period():
    """(21, 0, 0) is the scalar −1, of period 2: a^5 = a, so the planted
    exponent 5 comes back as 1."""
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    with pytest.raises(RuntimeError, match="planted exponent 5 recovered as "
                                           "1; base period too short"):
        dip_timing(ps, [5], samples=1, base=Vector3(21, 0, 0, m))
