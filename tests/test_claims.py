"""The paper's claims that the acceptance suite checks only by figure,
decided here by the law behind each figure.

- "the absence of a closed-form expression for a^n": refuted.  a lies in
  its plane F_p[w]/(w² − L w − Q) as s0 + w, s0 = a0 + 1, a root of
  X² − T·X + N with T = 2s0 + L and N = s0² + s0·L − Q.  So
  (s0 + w)^n = s_n + t_n·w with t_n the Lucas sequence U_n(T, N) and
  s_n = s0·t_n − N·t_(n−1), and a^n = (s_n − 1, t_n·a').  Expanded, the
  sum is sym_pow's polynomial in a and the coefficients.
- C07's and C09's walks of period p² − 1 count the field planes, one
  walk each, and C08's 852 walks of period p − 1 are 23·(ψ(22) + 1) + 1
  over its 23 split planes (Dedekind's ψ).
- Of the census, the walk counts at p² − 1 are laws, but the walk
  proportions and C08's "+ 1" come from lex order: launched in reverse
  lex order, C07 still has 23 walks of period 528 among 74 (70 in lex
  order), and C08 851 of period 22 among 944 (852 among 955).
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
from mlmagma.symbolic import (MAX_SYM_POWER, SymPoly, SymVector3, generic_vector,
                              sym_pow)
from conftest import walk_census


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


def _sym_lucas_u(n, T, N):
    """_lucas_u's sum over SymPoly, without reduction: U_n(T, N), n >= 0."""
    t = SymPoly()
    for j in range((n + 1) // 2):
        term = SymPoly.constant((-1)**j * comb(n - 1 - j, j))
        for x in [T] * (n - 1 - 2 * j) + [N] * j:
            term = term * x
        t = t + term
    return t


def test_closed_form_expands_to_sym_pow():
    a0, a1, a2 = generic_vector()
    A, B, C, D, E = (SymPoly.variable(v) for v in "ABCDE")
    s0 = a0 + 1
    L, Q = D * a1 + E * a2, A * a1 * a1 + C * a1 * a2 + B * a2 * a2
    T, N = 2 * s0 + L, s0 * s0 + s0 * L - Q
    for n in range(1, MAX_SYM_POWER + 1):
        t_n, t_prev = _sym_lucas_u(n, T, N), _sym_lucas_u(n - 1, T, N)
        s_n = s0 * t_n - N * t_prev
        assert SymVector3(s_n - 1, t_n * a1, t_n * a2) == sym_pow(n), n


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


LAWS = ("start_periods", "cycle_periods", "tail_lengths", "total_cycles",
        "cycle_period_sum")


@pytest.mark.parametrize("coefficients, period, lex, reverse", [
    ((9, 19, 1, 1, 2), 528, (23, 70), (23, 74)),      # C07
    ((6, 1, 1, 1, 2), 22, (852, 955), (851, 944)),    # C08
])
def test_walk_census_in_reverse_lex_order(coefficients, period, lex, reverse):
    """Launched in reverse lex order, the walks leave every per-start and
    per-cycle figure as it is, and C07's count of maximal walks; the
    walk total, so the proportions, and C08's count move."""
    p = 23
    ps = Params3(*coefficients, make_modulus(p))
    walked, census = walk_census(ps, order=range(p**3 - 1, -1, -1)), scan_space(ps)
    for k in LAWS:
        assert getattr(walked, k) == getattr(census, k), k
    assert (census.walk_count(period), census.total_walks) == lex
    assert (walked.walk_count(period), walked.total_walks) == reverse


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
