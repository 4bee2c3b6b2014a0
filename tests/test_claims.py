"""The paper's claims that the acceptance suite checks only by figure,
decided here by the law behind each figure.

- "the absence of a closed-form expression for a^n": refuted.  a lies in
  its plane F_p[w]/(w² − L w − Q) as s0 + w, s0 = a0 + 1, a root of
  X² − T·X + N with T = 2s0 + L and N = s0² + s0·L − Q.  So
  (s0 + w)^n = s_n + t_n·w with t_n the Lucas sequence U_n(T, N) and
  s_n = s0·t_n − N·t_(n−1), and a^n = (s_n − 1, t_n·a').
- C07's and C09's walks of period p² − 1 count the field planes, one
  walk each, and C08's 852 walks of period p − 1 are 23·(ψ(22) + 1) + 1
  over its 23 split planes (Dedekind's ψ).
- C12's best period is the ceiling: a pass period is at most p³ − 1, so
  no composite period exceeds (p³ − 1)·len.
"""

import random
from math import comb

import pytest

from mlmagma import Params3, Params4, make_modulus, magma, plane, vector
from mlmagma.field import jordan2, totient
from mlmagma.orbit import scan_space
from mlmagma.power import pow_fast
from mlmagma.prng import PrngConfig, composite_period


def _lucas_u(n, T, N, p):
    """U_n(T, N) = Σ_j (−1)^j·C(n−1−j, j)·T^(n−1−2j)·N^j mod p, n >= 0."""
    return sum((-1)**j * comb(n - 1 - j, j) * pow(T, n - 1 - 2 * j, p)
               * pow(N, j, p) for j in range((n + 1) // 2)) % p


def test_power_in_closed_form():
    rng = random.Random(2025)
    for case in range(300):
        p = rng.choice((5, 23, 1009, 2**31 - 1))
        m = make_modulus(p)
        dim, make = ((3, Params3), (4, Params4))[case % 2]
        ps = make(*(rng.randrange(p) for _ in range(5 if dim == 3 else 9)), m)
        a = vector([rng.randrange(p) for _ in range(dim)], m)
        n = rng.randrange(1, 400)
        L, Q = magma.plane(a, ps)
        s0 = (a.components[0] + 1) % p
        T, N = (2 * s0 + L) % p, (s0 * s0 + s0 * L - Q) % p
        t_n, t_prev = _lucas_u(n, T, N, p), _lucas_u(n - 1, T, N, p)
        s_n = (s0 * t_n - N * t_prev) % p
        expected = ((s_n - 1) % p, *(t_n * x % p for x in a.components[1:]))
        assert pow_fast(a, n, ps).components == expected, (p, a, ps, n)


def _kinds(ps):
    """Plane kind -> number of directions of a' (one per line through 0)."""
    p = ps.modulus.p
    dirs = [(1, k) for k in range(p)] + [(0, 1)]
    kinds = [plane.kind(*magma._plane_of(d, ps), p) for d in dirs]
    return {k: kinds.count(k) for k in set(kinds)}


@pytest.mark.parametrize("p, coefficients, fields", [
    (23, (9, 19, 1, 1, 2), 23),         # C07
    (61, (31, 30, 1, 1, 2), 31),        # C09
])
def test_maximal_walks_are_field_planes(p, coefficients, fields):
    ps = Params3(*coefficients, make_modulus(p))
    assert _kinds(ps)["field"] == fields
    assert scan_space(ps).walk_count(p * p - 1) == fields


def test_c08_walks_by_dedekind_psi():
    ps = Params3(6, 1, 1, 1, 2, make_modulus(23))
    psi = jordan2(22) // totient(22)
    assert psi == 36
    splits = _kinds(ps)["split"]
    assert splits == 23
    assert scan_space(ps).walk_count(22) == splits * (psi + 1) + 1 == 852


def test_c12_best_is_the_ceiling():
    m = make_modulus(37)
    max37 = PrngConfig(Params3(19, 18, 1, 1, 2, m),
                       (vector((0, 1, 0), m), vector((0, 2, 33), m)),
                       (0, 1), vector((6, 13, 32), m))
    assert composite_period(max37) == (37**3 - 1) * 2 == 101_304


def test_no_period_exceeds_the_ceiling():
    rng = random.Random(37)
    m = make_modulus(37)

    def vec():
        return vector([rng.randrange(37) for _ in range(3)], m)

    for _ in range(200):
        seeds = tuple(vec() for _ in range(rng.randint(1, 3)))
        pattern = tuple(rng.randrange(len(seeds))
                        for _ in range(rng.randint(1, 5)))
        config = PrngConfig(Params3(*(rng.randrange(37) for _ in range(5)), m),
                            seeds, pattern, vec(), rng.choice(("right", "left")))
        assert composite_period(config) <= (37**3 - 1) * len(pattern)
