import json
import random
from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import product

import pytest

from mlmagma import (Params3, Params4, Vector3, Vector4, identity, make_modulus,
                     mul)
from mlmagma import prng
from mlmagma.field import divisors, order, prime_factors
from mlmagma.plane import Plane
from mlmagma.prng import (SIDES, UNIFORMITY_MAX_P, PrngConfig, _jump,
                          _pass_orbit, _x_order, _x_pow_is_one, byte_stream,
                          composite_period, iter_outputs,
                          prng_cycle_length, seed_search, uniformity_stats)
from conftest import (byte_stream_bitwise, count_outputs, pass_matrix,
                      walk_prng_cycle, x_pow_is_one_generic)


def make_config(p=5, coefs=(1, 1, 1, 1, 2), seeds=((0, 1, 0), (0, 0, 1)),
                pattern=(0, 1), initial=(1, 2, 3), side="right"):
    m = make_modulus(p)
    ps = Params3(*coefs, m)
    return PrngConfig(ps, tuple(Vector3(*s, m) for s in seeds),
                      tuple(pattern), Vector3(*initial, m), side)


def test_first_outputs_follow_the_pattern():
    cfg = make_config()
    first, second = iter_outputs(cfg, 2)
    out = mul(cfg.initial, cfg.seeds[0], cfg.params)
    assert first == out.components
    assert second == mul(out, cfg.seeds[1], cfg.params).components


def test_validation():
    m = make_modulus(5)
    ps = Params3(1, 1, 1, 1, 2, m)
    v = Vector3(1, 0, 0, m)
    with pytest.raises(ValueError):
        PrngConfig(ps, (v,), (0, 5), v)       # pattern index out of range
    with pytest.raises(ValueError):
        PrngConfig(ps, (), (0,), v)           # no seeds
    with pytest.raises(ValueError):
        PrngConfig(ps, (v,), (), v)           # empty pattern
    with pytest.raises(ValueError):
        PrngConfig(ps, (v,), (0,), v, side="up")
    other = Vector3(1, 0, 0, make_modulus(7))
    with pytest.raises(ValueError):
        PrngConfig(ps, (other,), (0,), v)


def test_config_rejects_non_integer_pattern_indices():
    """A float, bool or str pattern index is refused at construction, not
    read as an index (True as 1) or failed on at the first step."""
    m = make_modulus(5)
    ps = Params3(1, 1, 1, 1, 2, m)
    v = Vector3(1, 0, 0, m)
    for bad in (0.0, True, False, "0"):
        with pytest.raises(ValueError, match="pattern index"):
            PrngConfig(ps, (v, v), (0, bad), v)


def test_rejects_four_components():
    """The PRNG is defined on Z_p^3; 4-component operands fail by name
    at construction, not deep inside the period computation."""
    m = make_modulus(5)
    ps3 = Params3(1, 1, 1, 1, 2, m)
    ps4 = Params4(1, 2, 3, 4, 0, 1, 2, 3, 4, m)
    v3, v4 = Vector3(1, 0, 0, m), Vector4(1, 0, 0, 0, m)
    with pytest.raises(ValueError, match="3-component"):
        PrngConfig(ps4, (v4,), (0,), v4)
    with pytest.raises(ValueError, match="dimension mismatch"):
        PrngConfig(ps3, (v4,), (0,), v3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        PrngConfig(ps3, (v3,), (0,), v4)
    with pytest.raises(ValueError, match="3-component"):
        seed_search(ps4, (0, 1), 2)


def test_json_round_trip():
    cfg = make_config(p=37, coefs=(19, 18, 1, 1, 2),
                      seeds=((0, 1, 5), (0, 2, 7)), initial=(3, 1, 4))
    text = cfg.to_json()
    back = PrngConfig.from_json(text)
    assert back == cfg
    assert back.to_json() == text
    doc = json.loads(text)
    assert set(doc) == {"p", "params", "seeds", "pattern", "initial"}


def test_json_strict_keys():
    doc = make_config().to_dict()
    doc["bogus"] = 1
    with pytest.raises(ValueError, match="unknown config keys"):
        PrngConfig.from_dict(doc)
    doc = make_config().to_dict()
    del doc["seeds"]
    with pytest.raises(ValueError, match="missing config keys"):
        PrngConfig.from_dict(doc)


def test_identity_seed_degenerate_cases():
    m = make_modulus(5)
    ps = Params3(1, 1, 1, 1, 2, m)
    e = identity(3, m)
    v = Vector3(1, 2, 3, m)
    res = prng_cycle_length(PrngConfig(ps, (e,), (0,), v))
    assert (res.tail, res.period, res.exceeded_cap) == (0, 1, False)
    res = prng_cycle_length(PrngConfig(ps, (e,), (0, 0, 0), v))
    assert res.period == 3
    # vector component never changes
    outs = list(iter_outputs(PrngConfig(ps, (e,), (0,), v), 10))
    assert all(o == v.components for o in outs)


def test_scalar_seed_stream():
    m = make_modulus(7)
    ps = Params3(1, 1, 1, 1, 1, m)
    s = Vector3(1, 0, 0, m)
    cfg = PrngConfig(ps, (s,), (0,), s)
    outs = [o[0] for o in iter_outputs(cfg, 6)]
    assert outs == [3, 0, 1, 3, 0, 1]  # 2^n - 1 mod 7 from n = 2


def test_cycle_length_frozen_example():
    # p=5, seeds (0,1,0)/(0,0,1), params (1,1,1,1,2), pattern [0,1]:
    # frozen against the exhaustive hash-set walk below
    cfg = make_config()
    seen = {}
    state = (cfg.initial.components, 0)
    idx = 0
    from mlmagma.magma import right_mul_stepper
    while state not in seen:
        seen[state] = idx
        vec, pos = state
        st = right_mul_stepper(cfg.seeds[cfg.pattern[pos]], cfg.params)
        state = (st(vec), (pos + 1) % len(cfg.pattern))
        idx += 1
    tail, period = seen[state], idx - seen[state]
    res = prng_cycle_length(cfg)
    assert (res.tail, res.period) == (tail, period)


def test_cycle_length_matches_exhaustive(rng):
    for _ in range(25):
        p = 5
        m = make_modulus(p)
        ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
        seeds = tuple(Vector3(*(rng.randrange(p) for _ in range(3)), m)
                      for _ in range(2))
        cfg = PrngConfig(ps, seeds, (0, 1), Vector3(*(rng.randrange(p)
                                                      for _ in range(3)), m))
        # exhaustive composite-state walk with a hash map
        seen = {}
        state = (cfg.initial.components, 0)
        steppers = [None, None]
        idx = 0
        walk = []
        while state not in seen:
            seen[state] = idx
            walk.append(state)
            vec, pos = state
            from mlmagma.magma import right_mul_stepper
            st = right_mul_stepper(cfg.seeds[cfg.pattern[pos]], ps)
            state = (st(vec), (pos + 1) % len(cfg.pattern))
            idx += 1
        tail = seen[state]
        period = idx - tail
        res = prng_cycle_length(cfg)
        assert (res.tail, res.period) == (tail, period)
        assert composite_period(cfg) == period


def _random_config(rng, p, side, max_pattern=5):
    """1-3 seeds, a pattern of length 1 to max_pattern; a fifth of the
    vectors are the zero seed (the identity) or (p - 1, 0, 0), which
    absorbs every product it is in and so makes the pass singular."""
    m = make_modulus(p)

    def vec():
        if rng.random() < 0.2:
            return Vector3(*rng.choice([(0, 0, 0), (p - 1, 0, 0)]), m)
        return Vector3(*(rng.randrange(p) for _ in range(3)), m)

    seeds = tuple(vec() for _ in range(rng.randrange(1, 4)))
    pattern = tuple(rng.randrange(len(seeds))
                    for _ in range(rng.randrange(1, max_pattern + 1)))
    return PrngConfig(Params3(*(rng.randrange(p) for _ in range(5)), m),
                      seeds, pattern, vec(), side)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
@pytest.mark.parametrize("side", SIDES)
def test_composite_period_matches_walk(p, side):
    rng = random.Random(f"{p}/{side}")
    tails = 0
    for _ in range(60):
        cfg = _random_config(rng, p, side)
        tail, period = walk_prng_cycle(cfg)
        assert composite_period(cfg) == period
        tails += tail > 0
    assert tails     # some passes were singular


@pytest.mark.parametrize("p", (3, 5, 7, 11))
@pytest.mark.parametrize("side", SIDES)
def test_pass_tail_period_matches_walk(p, side):
    """The exact (tail, period) from the pass algebra equals the Brent
    walk's on the composite state, 2000 configs over the eight cases,
    tails that end inside a pass included."""
    rng = random.Random(f"tail/{p}/{side}")
    tails = inside = 0
    for _ in range(250):
        cfg = _random_config(rng, p, side)
        res = prng_cycle_length(cfg)
        assert (res.tail, res.period) == walk_prng_cycle(cfg), cfg
        assert not res.exceeded_cap
        tails += res.tail > 0
        inside += res.tail % len(cfg.pattern) != 0
    assert inside and tails > inside


def _rank(vectors, p):
    """The rank of the vectors over F_p, by Gauss–Jordan elimination."""
    rows, rank = [list(v) for v in vectors], 0
    for col in range(3):
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is None:
            continue
        rows[rank], rows[i] = rows[i], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for j, row in enumerate(rows):
            if j != rank and row[col]:
                c = row[col] * inv
                rows[j] = [(x - c * y) % p for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


def _check_krylov_basis(cfg):
    """_pass_orbit's basis, read off the stream, against the probed pass
    matrix M: basis[k] = M^k·v, f(M)·v = 0, and the basis is deg f
    independent vectors, so no lower degree annihilates v.  Returns
    deg f."""
    p = cfg.modulus.p
    M = pass_matrix(cfg)
    f, basis = _pass_orbit(cfg)[:2]
    x0, x1, x2 = cfg.initial.components
    krylov = [[(x0 + 1) % p, x1, x2]]
    for _ in range(len(f) - 1):
        krylov.append([sum(m * x for m, x in zip(row, krylov[-1])) % p
                       for row in M])
    assert [list(b) for b in basis] == krylov[:-1], cfg
    assert all(sum(c * x[i] for c, x in zip(f, krylov)) % p == 0
               for i in range(3)), cfg
    assert f[-1] == 1 and len(basis) == len(f) - 1, cfg
    assert _rank(basis, p) == len(basis), cfg
    return len(basis)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 2**31 - 1))
@pytest.mark.parametrize("side", SIDES)
def test_krylov_basis_read_off_the_stream(p, side):
    """The Krylov vectors read as pass states are those of the matrix
    oracle, 380 configs over the ten cases: 36 drawn per case, and a
    drawn config with the zero (p − 1, 0, 0) as its initial (f = 1) or as
    the seed of its first slot (f = X, or 1 as well)."""
    rng = random.Random(f"krylov/{p}/{side}")
    zero = Vector3(p - 1, 0, 0, make_modulus(p))
    degrees = []
    for _ in range(36):
        cfg = _random_config(rng, p, side, max_pattern=4)
        degrees.append(_check_krylov_basis(cfg))
    seeds = list(cfg.seeds)
    seeds[cfg.pattern[0]] = zero
    assert _check_krylov_basis(replace(cfg, initial=zero)) == 0
    assert _check_krylov_basis(replace(cfg, seeds=tuple(seeds))) <= 1
    assert min(degrees) < 3 and max(degrees) == 3, degrees


@pytest.mark.parametrize("p", (3, 101, 2**31 - 1))
@pytest.mark.parametrize("side", SIDES)
def test_pass_reaching_the_zero(p, side):
    """(p - 1, 0, 0) absorbs.  As the initial it is the shifted 0, so
    f = 1 and μ = 0; as the first seed it sends every vector to the zero
    in one pass, so f = X and μ = 1.  The pass period is 1 either way."""
    seeds, initial = ((0, 1, 2), (2, 2, 1)), (2, 1, 1)
    zero = (p - 1, 0, 0)
    for cfg, mu in ((make_config(p, seeds=seeds, pattern=(0, 1, 1),
                                 initial=zero, side=side), 0),
                    (make_config(p, seeds=(zero, *seeds), pattern=(0, 1, 2),
                                 initial=initial, side=side), 1)):
        assert prng_cycle_length(cfg)[:2] == walk_prng_cycle(cfg) == (mu, 3)
        assert composite_period(cfg) == 3


def _poly_mul(x, y, p):
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _order_exponent(p):
    """n = p(p − 1)(p + 1)(p² + p + 1), which the order of X modulo any
    g of degree ≤ 3 with g(0) ≠ 0 divides, and its primes."""
    n = p * (p - 1) * (p + 1) * (p * p + p + 1)
    return n, prime_factors(n)


def _spy_plane_pow(monkeypatch):
    """Record prng's calls into Plane.unit_order, the degree-1 and
    degree-2 branches, as (s, t, L, Q, p)."""
    calls = []
    real = Plane.unit_order

    def spy(R, s, t):
        calls.append((s, t, R.L, R.Q, R.p))
        return real(R, s, t)

    monkeypatch.setattr(Plane, "unit_order", spy)
    return calls


def _check_x_order(g, ks, p):
    """X^k ≡ 1 modulo g, as the generic list kernel says, iff _x_order(g)
    divides k, and for a cubic iff _x_pow_is_one(k, g) holds."""
    o = _x_order(g, p)
    for k in ks:
        one = x_pow_is_one_generic(k, g, p)
        assert (k % o == 0) == one, (g, k)
        if len(g) == 4:
            assert _x_pow_is_one(k, g, p) == one, (g, k)
    return o


@pytest.mark.parametrize("p", (3, 5))
def test_x_pow_is_one_matches_generic(p, monkeypatch):
    """Every monic g of degree 1 to 3 with g(0) ≠ 0 and every k that
    field.order can pass: the per-degree order answers as the generic
    list kernel does; degree 1 is the scalar −g0 and degree 2 the plane
    unit w of Plane.unit_order, and a cubic runs on its own kernel."""
    calls = _spy_plane_pow(monkeypatch)
    n, primes = _order_exponent(p)
    ks = divisors(n)
    for d in (1, 2, 3):
        for low in product(range(p), repeat=d):
            if low[0] == 0:
                continue
            g = [*low, 1]
            before = len(calls)
            _check_x_order(g, ks, p)
            unit = {1: [(-g[0] % p, 0, 0, 0, p)],
                    2: [(0, 1, -g[1] % p, -g[0] % p, p)], 3: []}[d]
            assert calls[before:] == unit, g

    # repeated factors: X has order p modulo (X − 1)² and (X − 1)³, 2
    # modulo X + 1, and 2p modulo (X + 1)³
    def x_order(g):
        return order(n, primes, lambda k: _x_pow_is_one(k, g, p))

    minus, plus = [p - 1, 1], [1, 1]
    assert x_order(_poly_mul(_poly_mul(minus, minus, p), plus, p)) == 2 * p
    assert x_order(_poly_mul(_poly_mul(plus, plus, p), plus, p)) == 2 * p
    if p == 3:                           # (X − 1)³ = X³ − 1 mod 3
        assert x_order(_poly_mul(_poly_mul(minus, minus, p), minus, p)) == 3


def test_x_order_below_cubics_at_p2():
    """Every g of degree 1 or 2 with g(0) ≠ 0 at p = 2, where Δ = L² + 4Q
    cannot tell the kind: X has order 1 modulo X + 1, 2 modulo
    X² + 1 = (X + 1)² and 3 modulo X² + X + 1, whose quotient is F_4.
    (A cubic needs p odd: X has order 4 modulo (X + 1)³ at p = 2, which
    does not divide p(p − 1), a repeated root's bound, either, as the
    multiplicity 3 exceeds p; PrimeModulus refuses p = 2.)"""
    for g, o in (([1, 1], 1), ([1, 0, 1], 2), ([1, 1, 1], 3)):
        assert _check_x_order(g, range(1, 13), 2) == o, g


@pytest.mark.parametrize("p", (65521, 2**31 - 1))
def test_x_pow_is_one_matches_generic_at_large_p(p):
    """Random g of each degree, repeated-factor cubics among them, at
    the exponents field.order tries and at random ones; the orders
    agree too."""
    rng = random.Random(f"xpow/{p}")
    n, primes = _order_exponent(p)

    def monic(d):
        return [rng.randrange(1, p), *(rng.randrange(p) for _ in range(d - 1)), 1]

    gs = [monic(d) for d in (1, 2, 3) for _ in range(6)]
    for _ in range(4):
        r, s = rng.randrange(1, p), rng.randrange(1, p)
        gs.append(_poly_mul(_poly_mul([p - r, 1], [p - r, 1], p), [p - s, 1], p))
    gs.append(_poly_mul(_poly_mul([p - 1, 1], [p - 1, 1], p), [p - 1, 1], p))
    for g in gs:
        ks = [n, *(n // q for q in primes), *(rng.randrange(1, n) for _ in range(4))]
        assert _check_x_order(g, ks, p) == \
            order(n, primes, lambda k: x_pow_is_one_generic(k, g, p))


def _cubic_disc(g, p):
    """The discriminant of the monic cubic g = X³ + aX² + bX + c."""
    c, b, a = g[:3]
    return (a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c
            + 18 * a * b * c) % p


def _cubic_shape(g, p):
    """By brute force over F_p: whether g has a repeated root (one of g
    and its derivative together), and how many distinct roots it has."""
    c, b, a = g[:3]
    roots = [r for r in range(p) if (c + r * (b + r * (a + r))) % p == 0]
    repeated = any((b + r * (2 * a + 3 * r)) % p == 0 for r in roots)
    return repeated, len(roots)


def _shape_bound(repeated, roots, p):
    """The bound _x_order searches below for a cubic of that shape."""
    if repeated:
        return p * (p - 1)
    return p ** 3 - 1 if roots in (0, 3) else p * p - 1


@pytest.mark.parametrize("p", (3, 5, 7))
def test_cubic_discriminant_tells_the_shape(p):
    """Every monic cubic with g0 ≠ 0: D = 0 iff g has a repeated root,
    and D a nonzero square iff g has 0 or 3 roots in F_p (Stickelberger)."""
    for low in product(range(1, p), range(p), range(p)):
        g = [*low, 1]
        disc = _cubic_disc(g, p)
        repeated, roots = _cubic_shape(g, p)
        assert (disc == 0) == repeated, g
        square = disc != 0 and pow(disc, (p - 1) // 2, p) == 1
        assert square == (not repeated and roots in (0, 3)), g


def _spy_x_pow(monkeypatch):
    """Record the exponents _x_order tries on the cubic kernel."""
    ks = []
    real = prng._x_pow_is_one

    def spy(k, g, p):
        ks.append(k)
        return real(k, g, p)

    monkeypatch.setattr(prng, "_x_pow_is_one", spy)
    return ks


def _check_shape_bound(ks, g, bound, p):
    """_x_order(g) tries only divisors of its shape's bound, and agrees
    with field.order over the full bound on the generic list kernel."""
    n, primes = _order_exponent(p)
    ks.clear()
    o = _x_order(g, p)
    assert ks and all(bound % k == 0 for k in ks), (g, bound, ks)
    assert o == order(n, primes, lambda k: x_pow_is_one_generic(k, g, p)), g


@pytest.mark.parametrize("p", (5, 7))
def test_x_order_searches_below_the_shape_bound(p, monkeypatch):
    """Every monic cubic with g0 ≠ 0, its shape found by brute force:
    p(p − 1) with a repeated root, else p³ − 1 with 0 or 3 roots and
    p² − 1 with one."""
    ks = _spy_x_pow(monkeypatch)
    for low in product(range(1, p), range(p), range(p)):
        g = [*low, 1]
        _check_shape_bound(ks, g, _shape_bound(*_cubic_shape(g, p), p), p)


@pytest.mark.parametrize("p", (65521, 2**31 - 1))
def test_x_order_below_p_times_p_minus_1_for_repeated_roots(p, monkeypatch):
    """The repeated-root cubics of test_x_pow_is_one_matches_generic_at_large_p,
    drawn the same way, search below p(p − 1)."""
    rng = random.Random(f"xpow/{p}")
    for d in (1, 2, 3):                  # that test's other draws first
        for _ in range(6):
            [rng.randrange(1, p), *(rng.randrange(p) for _ in range(d - 1))]
    gs = []
    for _ in range(4):
        r, s = rng.randrange(1, p), rng.randrange(1, p)
        gs.append(_poly_mul(_poly_mul([p - r, 1], [p - r, 1], p), [p - s, 1], p))
    gs.append(_poly_mul(_poly_mul([p - 1, 1], [p - 1, 1], p), [p - 1, 1], p))
    ks = _spy_x_pow(monkeypatch)
    for g in gs:
        assert _cubic_disc(g, p) == 0, g
        _check_shape_bound(ks, g, p * (p - 1), p)


def _mat_mul(x, y, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)]
            for row in x]


def _mat_pow(h, n, p):
    r = [[int(i == j) for j in range(len(h))] for i in range(len(h))]
    for bit in bin(n)[2:]:
        r = _mat_mul(r, r, p)
        if bit == "1":
            r = _mat_mul(r, h, p)
    return r


def test_composite_period_at_large_p():
    """A pass period of about p^3 = 2.8e14, checked by matrix powers."""
    p = 65521
    cfg = make_config(p=p, coefs=(19, 18, 1, 1, 2),
                      seeds=((0, 1, 5), (0, 2, 7)), initial=(3, 1, 4))
    mat = pass_matrix(cfg)
    x0, x1, x2 = cfg.initial.components
    v = [[(x0 + 1) % p], [x1], [x2]]
    period = composite_period(cfg) // len(cfg.pattern)
    assert period > p**2
    assert _mat_mul(_mat_pow(mat, period, p), v, p) == v
    rest = period
    for q in prime_factors(p - 1) | prime_factors(p + 1) | \
            prime_factors(p * p + p + 1) | {p}:
        if rest % q == 0:
            assert _mat_mul(_mat_pow(mat, period // q, p), v, p) != v
            while rest % q == 0:
                rest //= q
    assert rest == 1


def _tail_config(side="right"):
    """A singular pass with pass tail μ = 2: composite tail 4 (right)
    or 1 (left) of pattern length 3, period 18, ending inside a pass."""
    return make_config(p=7, coefs=(2, 6, 1, 0, 6),
                       seeds=((1, 3, 5), (6, 1, 3)), pattern=(0, 0, 1),
                       initial=(0, 6, 1), side=side)


def test_cycle_cap_reported():
    """cap bounds tail + period: reached exactly, the values are
    reported; one below, exceeded_cap is set instead."""
    cfg = make_config(p=37, coefs=(19, 18, 1, 1, 2),
                      seeds=((0, 1, 5), (0, 2, 7)))
    res = prng_cycle_length(cfg, cap=10)
    assert res.exceeded_cap and res.tail is None and res.period is None
    for side, tail in (("right", 4), ("left", 1)):
        cfg = _tail_config(side)
        assert walk_prng_cycle(cfg) == (tail, 18)
        assert prng_cycle_length(cfg, cap=tail + 18) == (tail, 18, False)
        assert prng_cycle_length(cfg, cap=tail + 17) == (None, None, True)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            prng_cycle_length(cfg, cap=cap)


def test_period_bounded_by_state_space(rng):
    for _ in range(10):
        p = 5
        m = make_modulus(p)
        ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
        seeds = tuple(Vector3(*(rng.randrange(p) for _ in range(3)), m)
                      for _ in range(3))
        pattern = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))
        cfg = PrngConfig(ps, seeds, pattern, Vector3(1, 1, 1, m))
        res = prng_cycle_length(cfg)
        # no orbit outgrows the state space, so cap None bounds nothing
        assert res.tail + res.period <= cfg.state_space
        assert not res.exceeded_cap
        assert res.period % len(pattern) == 0 or res.period == len(pattern)


def test_streams_deterministic():
    cfg = make_config(p=37, coefs=(19, 18, 1, 1, 2),
                      seeds=((0, 1, 5), (0, 2, 7)), initial=(3, 1, 4))
    a = list(iter_outputs(cfg, 500))
    b = list(iter_outputs(cfg, 500))
    assert a == b
    assert list(iter_outputs(cfg, 0)) == []
    with pytest.raises(ValueError, match="non-negative"):
        iter_outputs(cfg, -1)   # raised on the call, before any output


def test_left_side_flag():
    cfg_r = make_config()
    cfg_l = make_config(side="left")
    first, = iter_outputs(cfg_l, 1)
    assert first == mul(cfg_l.seeds[0], cfg_l.initial, cfg_l.params).components
    assert list(iter_outputs(cfg_r, 20)) != list(iter_outputs(cfg_l, 20))
    assert PrngConfig.from_dict(cfg_l.to_dict()) == cfg_l


def test_uniformity_stats_degenerate_and_conservation():
    cfg = make_config(seeds=((0, 0, 0),), pattern=(0,))
    rep = uniformity_stats(cfg, 1000)
    assert rep.max_relative_deviation == pytest.approx(4.0)  # all mass on one value
    for comp in rep.counts:
        assert sum(comp) == 1000


@pytest.mark.parametrize("p", (3, 5, 7, 11))
@pytest.mark.parametrize("side", SIDES)
def test_uniformity_stats_matches_stepping(p, side):
    """The folded count equals stepping every output, below, at and
    above the state space (where the fold runs)."""
    rng = random.Random(f"uniformity/{p}/{side}")
    tails = 0
    for _ in range(40):
        cfg = _random_config(rng, p, side, max_pattern=4)
        space = cfg.state_space
        for samples in (rng.randrange(1, space), space, space + 1,
                        rng.randrange(space + 1, 3 * space + 1)):
            assert uniformity_stats(cfg, samples) == count_outputs(cfg, samples)
        tails += walk_prng_cycle(cfg)[0] > 0
    assert tails


def _maximal_configs(p, side, length, count):
    """The first `count` seed-drawn configs whose composite period is the
    maximum (p³ − 1)·length: g is a primitive cubic."""
    rng = random.Random(f"maximal/{p}/{side}/{length}")
    m = make_modulus(p)
    found = []
    while len(found) < count:
        seeds = tuple(Vector3(*(rng.randrange(p) for _ in range(3)), m)
                      for _ in range(2))
        cfg = PrngConfig(Params3(*(rng.randrange(p) for _ in range(5)), m),
                         seeds, tuple(rng.randrange(2) for _ in range(length)),
                         Vector3(*(rng.randrange(p) for _ in range(3)), m), side)
        if composite_period(cfg) == (p**3 - 1) * length:
            found.append(cfg)
    return found


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("length", (2, 3))
def test_uniformity_over_a_maximal_period(p, side, length):
    """Over one maximal period each pattern position visits every vector
    but the zero (p − 1, 0, 0) once, so the counts, and the chi-square,
    are fixed by p and the pattern length alone."""
    for cfg in _maximal_configs(p, side, length, 2):
        rep = uniformity_stats(cfg, composite_period(cfg))
        for comp, missing in zip(rep.counts, (p - 1, 0, 0)):
            assert comp == [length * (p * p - (x == missing)) for x in range(p)]
        assert rep.chi_square == pytest.approx([length / (p * p + p + 1)] * 3)


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("length", (2, 3))
def test_uniformity_stats_matches_stepping_on_a_maximal_period(p, side, length):
    """The closed-form whole periods, with the remainder tallied forward
    or subtracted after a jump, count what stepping every output counts,
    on both sides of n/2 and across whole periods."""
    rng = random.Random(f"maximal-samples/{p}/{side}/{length}")
    for cfg in _maximal_configs(p, side, length, 2):
        n = composite_period(cfg)
        for samples in (1, n // 2, n // 2 + 1, n - 1, n, n + 1, 2 * n - 1,
                        *(rng.randrange(1, 4 * n) for _ in range(8))):
            assert uniformity_stats(cfg, samples) == count_outputs(cfg, samples)


@pytest.mark.parametrize("p, length", ((5, 2), (7, 3)))
@pytest.mark.parametrize("side", SIDES)
def test_jump_matches_stepping(p, side, length):
    """The jump to pass q, M^q·v from X^q mod g, starts the outputs that
    stepping reaches at output q·len, for every q up to two periods."""
    cfg, = _maximal_configs(p, side, length, 1)
    n = composite_period(cfg)
    outs = list(iter_outputs(cfg, 2 * n + length))
    orbit = _pass_orbit(cfg)
    for q in range(2 * n // length + 1):
        assert list(iter_outputs(_jump(cfg, orbit, q), length)) == \
            outs[q * length:(q + 1) * length], q


@pytest.mark.parametrize("p, length", ((5, 2), (7, 3)))
@pytest.mark.parametrize("side", SIDES)
def test_uniformity_stats_steps_at_most_half_a_maximal_period(
        p, side, length, monkeypatch):
    """On a maximal period, beyond the slot steps of the period analysis
    that composite_period also takes, at most n//2 + len slots are
    stepped whatever the sample count; stepping a whole period would
    take up to n."""
    calls = [0]
    real = prng._slot_steppers

    def counting(config):
        def counted(step):
            def wrapper(cur):
                calls[0] += 1
                return step(cur)
            return wrapper
        return [counted(step) for step in real(config)]

    cfg, = _maximal_configs(p, side, length, 1)
    n = composite_period(cfg)
    monkeypatch.setattr(prng, "_slot_steppers", counting)
    composite_period(cfg)
    analysis, calls[0] = calls[0], 0
    samples = {1, n // 2, n // 2 + 1, n // 2 + length, n - 1, n, n + 1,
               3 * n // 2, 3 * n // 2 + 1, 2 * n - 1, *range(1, 4 * n, 37)}
    worst = 0
    for s in samples:
        uniformity_stats(cfg, s)
        worst, calls[0] = max(worst, calls[0] - analysis), 0
    assert worst <= n // 2 + length


def test_uniformity_stats_refuses_a_large_modulus():
    """The counters are refused by p, before they are allocated: at
    p = 2^31 − 1 they would take ~48 GiB."""
    cfg = make_config(p=2**31 - 1, coefs=(19, 18, 1, 1, 2),
                      seeds=((0, 1, 5), (0, 2, 7)), initial=(3, 1, 4))
    with pytest.raises(ValueError, match=f"at most {UNIFORMITY_MAX_P}, "
                                         f"got {2**31 - 1}"):
        uniformity_stats(cfg, 1000)


def _det3(a, p):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])) % p


@pytest.mark.parametrize("p", (5, 7, 11))
@pytest.mark.parametrize("side", SIDES)
def test_collinear_seeds_never_reach_the_maximum(p, side):
    """Seeds whose (x1, x2) parts are collinear keep the shifted plane
    they span invariant under M, so M has an eigenvalue in F_p and g is
    never a primitive cubic.  Unconstrained configs drawn alike do reach
    the maximum."""
    rng = random.Random(f"collinear/{p}/{side}")
    m = make_modulus(p)
    unconstrained = 0
    for _ in range(150):
        d1, d2 = rng.choice([(x, y) for x in range(p) for y in range(p)
                             if x or y])
        pattern = tuple(rng.randrange(3) for _ in range(rng.randrange(1, 5)))

        def seed(i, collinear=True):
            if collinear and i in pattern:
                t = rng.randrange(p)
                return Vector3(rng.randrange(p), t * d1 % p, t * d2 % p, m)
            return Vector3(*(rng.randrange(p) for _ in range(3)), m)

        ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
        initial = Vector3(*(rng.randrange(p) for _ in range(3)), m)
        cfg = PrngConfig(ps, tuple(seed(i) for i in range(3)), pattern,
                         initial, side)
        maximum = (p**3 - 1) * len(pattern)
        assert composite_period(cfg) < maximum, cfg
        M = pass_matrix(cfg)
        assert any(_det3([[(M[i][j] - (i == j) * x) % p for j in range(3)]
                          for i in range(3)], p) == 0 for x in range(p)), cfg
        free = PrngConfig(ps, tuple(seed(i, False) for i in range(3)),
                          pattern, initial, side)
        unconstrained += composite_period(free) == maximum
    assert unconstrained


def test_uniformity_stats_folds_a_tail():
    """A fixed singular pass with a composite tail of 4 that ends inside
    a pass: the head of the stream is counted once, and fewer samples
    than the tail take only the outputs asked for."""
    cfg = _tail_config()
    assert walk_prng_cycle(cfg) == (4, 18)
    for samples in (1, 2, 3, 4, 5, 21, 22, 23,
                    1000, cfg.state_space + 1, 5000, 5003, 5017):
        assert uniformity_stats(cfg, samples) == count_outputs(cfg, samples)


def test_uniformity_stats_rejects_no_samples():
    cfg = make_config()
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            uniformity_stats(cfg, samples)


def test_single_orbit_short_cycles_dominate(rng):
    # at p=23 with (6,1,1,1,2) most random starts sit on period-22 cycles,
    # the short-cycle weakness the pattern PRNG exists to fix
    from mlmagma.orbit import orbit_length
    m = make_modulus(23)
    ps = Params3(6, 1, 1, 1, 2, m)
    hits = 0
    for _ in range(20):
        a = Vector3(*(rng.randrange(23) for _ in range(3)), m)
        if orbit_length(a, ps).period == 22:
            hits += 1
    assert hits >= 8  # element-weighted share is ~70%


def test_seed_search_leaderboard():
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    hits = seed_search(ps, (0, 1), trials=40, rng_seed=5)
    assert len(hits) <= 10
    periods = [h.period for h in hits]
    assert periods == sorted(periods, reverse=True)
    # deterministic given the seed
    again = seed_search(ps, (0, 1), trials=40, rng_seed=5)
    assert [(h.period, h.config) for h in hits] == \
           [(h.period, h.config) for h in again]
    assert seed_search(ps, (0, 1), trials=0, rng_seed=5) == []
    with pytest.raises(ValueError, match="trials must be non-negative"):
        seed_search(ps, (0, 1), trials=-2, rng_seed=5)
    for pattern in ((-1,), (0, -1, 1)):
        for trials in (0, 1):
            with pytest.raises(ValueError, match="pattern index -1 must be"):
                seed_search(ps, pattern, trials=trials)
    # reported period matches the walk on the composite state
    best = hits[0]
    assert walk_prng_cycle(best.config)[1] == best.period


def test_seed_search_keep():
    """keep bounds the leaderboard; a negative keep is refused, not read
    as a slice that drops the last hits."""
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    assert len(seed_search(ps, (0, 1), trials=5, keep=5)) == 5
    assert len(seed_search(ps, (0, 1), trials=5, keep=3)) == 3
    assert seed_search(ps, (0, 1), trials=5, keep=0) == []
    for trials in (0, 5):
        with pytest.raises(ValueError, match="keep must be non-negative"):
            seed_search(ps, (0, 1), trials=trials, keep=-1)


def test_counts_must_be_ints():
    """A bool or float count, cap, sample size, trial count or keep is
    refused with the range's message, not read as 1 or failed on later."""
    cfg = make_config(p=37, coefs=(19, 18, 1, 1, 2))
    for bad in (True, 2.5):
        for call, message in (
                (partial(iter_outputs, cfg, bad), "output count must be non-negative"),
                (partial(prng_cycle_length, cfg, cap=bad), "cap must be at least 1"),
                (partial(uniformity_stats, cfg, bad), "samples must be at least 1"),
                (partial(seed_search, cfg.params, (0, 1), bad),
                 "trials must be non-negative"),
                (partial(seed_search, cfg.params, (0, 1), 1, keep=bad),
                 "keep must be non-negative"),
                (partial(byte_stream, cfg, bad), "byte count must be non-negative")):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"{message}, got {bad}"


def test_find_cycle_against_the_listed_sequence():
    """find_cycle's (tail, period) on seeded random maps of range(k),
    read off the listed sequence x_0 .. x_2k instead: x_k is on the cycle,
    the period is the least λ with x_(k+λ) = x_k and the tail the least μ
    with x_μ = x_(μ+λ).  A cycle and the constant map give tail-0 and
    period-1 starts for certain; random maps give many of both."""
    rng = random.Random(33)
    maps = [[(x + 1) % 7 for x in range(7)], [0] * 5]
    maps += [[rng.randrange(k) for _ in range(k)]
             for k in (rng.randint(1, 50) for _ in range(300))]
    seen = Counter()
    for f in maps:
        k = len(f)
        for start in range(k):
            xs = [start]
            for _ in range(2 * k):
                xs.append(f[xs[-1]])
            lam = next(n for n in range(1, k + 1) if xs[k + n] == xs[k])
            mu = next(n for n in range(k + 1) if xs[n] == xs[n + lam])
            assert prng.find_cycle(f.__getitem__, start) == (mu, lam), (f, start)
            seen[mu == 0, lam == 1] += 1
    assert all(seen[case] > 100 for case in product((False, True), repeat=2))


def test_seed_search_side():
    """Both sides search; any other side is refused, with or without
    trials, as PrngConfig refuses it."""
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    hits = seed_search(ps, (0, 1), trials=4, side="left")
    assert all(h.config.side == "left" for h in hits)
    for trials in (0, 4):
        with pytest.raises(ValueError, match="side must be one of"):
            seed_search(ps, (0, 1), trials=trials, side="up")


def test_byte_stream_degenerate_stream_fails_loudly():
    # constant output above the acceptance threshold yields no bits
    m = make_modulus(5)
    ps = Params3(0, 0, 0, 0, 0, m)
    e = identity(3, m)
    cfg = PrngConfig(ps, (e,), (0,), Vector3(4, 4, 4, m))
    with pytest.raises(RuntimeError, match="degenerate"):
        byte_stream(cfg, 16)


def test_byte_stream_zero_and_negative_counts():
    # the degenerate stream above: zero bytes need no bits from it
    m = make_modulus(5)
    cfg = PrngConfig(Params3(0, 0, 0, 0, 0, m), (identity(3, m),), (0,),
                     Vector3(4, 4, 4, m))
    assert byte_stream(cfg, 0) == b""
    assert byte_stream(make_config(), 0) == b""
    with pytest.raises(ValueError, match="non-negative"):
        byte_stream(make_config(), -1)


def _byte_stream_configs():
    """Both sides at p = 3, 5, 17, 37 and 2^31 − 1 (k = 1, 2, 4, 5, 30),
    and the degenerate stream of the test above."""
    m5 = make_modulus(5)
    yield pytest.param(PrngConfig(Params3(0, 0, 0, 0, 0, m5),
                                  (identity(3, m5),), (0,),
                                  Vector3(4, 4, 4, m5)), id="degenerate")
    for p in (3, 5, 17, 37, 2**31 - 1):
        rng = random.Random(f"bytes/{p}")
        for side in SIDES:
            yield pytest.param(make_config(
                p=p, coefs=[rng.randrange(p) for _ in range(5)],
                seeds=[[rng.randrange(p) for _ in range(3)] for _ in range(2)],
                initial=[rng.randrange(p) for _ in range(3)], side=side),
                id=f"{p}-{side}")


@pytest.mark.parametrize("cfg", _byte_stream_configs())
def test_byte_stream_matches_bitwise(cfg):
    """The packer's bytes are those of taking each accepted value's bits
    one at a time, for every count up to two groups of eight values and
    one large count; a stream without the bits fails alike."""
    k = cfg.modulus.p.bit_length() - 1
    for nbytes in (*range(1, 2 * k + 2), 4099):
        try:
            want = byte_stream_bitwise(cfg, nbytes)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                byte_stream(cfg, nbytes)
        else:
            assert byte_stream(cfg, nbytes) == want, nbytes


def test_byte_stream_unbiased_shape():
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    hits = seed_search(ps, (0, 1), trials=60, rng_seed=1)
    data = byte_stream(hits[0].config, 4096)
    assert len(data) == 4096
    counts = [0] * 256
    for b in data:
        counts[b] += 1
    # crude sanity: no byte value wildly over-represented
    assert max(counts) < 16 * (4096 / 256)


def test_config_from_json_refuses_a_non_object():
    with pytest.raises(ValueError, match="a PRNG config must be a JSON object"):
        PrngConfig.from_json("[]")


def test_seed_search_refuses_a_pattern_index_that_is_not_an_int():
    """A float or bool index is refused before the seed tuple is sized,
    with or without trials, not read as a seed number."""
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    for pattern, bad in (((0.0, 1), "0.0"), ((True, 0), "True"), ((0.5,), "0.5")):
        for trials in (0, 1):
            with pytest.raises(ValueError) as info:
                seed_search(ps, pattern, trials)
            assert str(info.value) == (f"pattern index {bad} must be "
                                       f"non-negative and an int")


def test_seed_search_refuses_an_empty_pattern():
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    for trials in (0, 1):
        with pytest.raises(ValueError, match="pattern must be non-empty"):
            seed_search(ps, (), trials)
