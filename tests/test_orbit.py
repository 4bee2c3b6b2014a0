import dataclasses
import itertools
import json
import random
import time
from collections import Counter
from math import gcd

import pytest

from mlmagma import (Params3, Params4, Vector3, Vector4, identity, make_modulus,
                     params, vector)
from mlmagma.cli import main
from mlmagma.dip import find_long_period_base
from mlmagma.field import divisors, jordan2, totient
from mlmagma.magma import (ModulusMismatchError, _plane_of, plane,
                           right_mul_stepper)
from mlmagma.orbit import (MEASURES, BudgetExceededError, _plane_walks,
                           _subgroups, _trace_zero, _type_periods,
                           heuristic_search, orbit_length, param_sweep, scan_space,
                           write_census_csv, write_census_json)
from mlmagma.power import pow_fast
from conftest import (random_instance, scan_python, subset_distinct_nonzero,
                      walk_census, walk_orbit)


def test_orbit_of_identity():
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    rec = orbit_length(identity(3, m), ps)
    assert (rec.tail, rec.period) == (0, 1)
    assert rec.cycle_rep == identity(3, m)


def test_orbit_scalar_examples():
    m7 = make_modulus(7)
    rec = orbit_length(Vector3(1, 0, 0, m7), Params3(1, 1, 1, 1, 1, m7))
    assert (rec.tail, rec.period) == (0, 3)  # ord_7(2) = 3

    m23 = make_modulus(23)
    rec = orbit_length(Vector3(1, 0, 0, m23), Params3(9, 19, 1, 1, 2, m23))
    assert rec.period == 11  # ord_23(2) = 11


def test_replay_returns_to_cycle_entry(rng):
    for _ in range(50):
        a, ps = random_instance(rng, primes=(23,))
        rec = orbit_length(a, ps)
        step = right_mul_stepper(a, ps)
        cur = a.components
        seen_at_tail = None
        for i in range(rec.tail + rec.period):
            if i == rec.tail:
                seen_at_tail = cur
            cur = step(cur)
        if rec.tail == 0:
            assert cur == a.components
        else:
            assert cur == seen_at_tail
        # the representative lies on the cycle
        cyc = [seen_at_tail if rec.tail else a.components]
        for _ in range(rec.period - 1):
            cyc.append(step(cyc[-1]))
        assert rec.cycle_rep.components in cyc
        assert rec.cycle_rep.components == min(cyc)


_seeded = random.Random(2026)
SEEDED_CASES = [(p, tuple(_seeded.randrange(p) for _ in range(5)))
                for p in (5, 7, 11, 13) for _ in range(2)]


@pytest.mark.parametrize("p,coefs", [
    (5, (2, 3, 1, 4, 2)),
    (7, (6, 1, 1, 1, 2)),
    (7, (3, 5, 2, 1, 4)),
    (11, (9, 3, 1, 1, 2)),
    (5, (0, 0, 0, 0, 0)),     # every direction dual
    (13, (0, 0, 0, 0, 0)),
    (7, (1, 4, 1, 1, 2)),     # one dual direction: tail-1 starts
    (11, (1, 2, 1, 1, 2)),
] + SEEDED_CASES + [
    (7, (5, 6, 6, 1, 2)),     # zero form: every direction dual, L varies
    (11, (8, 10, 10, 1, 2)),
])
def test_engines_agree(p, coefs):
    ps = Params3(*coefs, make_modulus(p))
    ref = scan_python(ps)
    fast = scan_space(ps)
    assert fast.start_periods == ref.start_periods
    assert fast.cycle_periods == ref.cycle_periods
    assert fast.walk_periods == ref.walk_periods
    assert fast.tail_lengths == ref.tail_lengths
    assert fast.total_cycles == ref.total_cycles
    assert fast.total_walks == ref.total_walks
    assert fast.zero_tail_starts == ref.zero_tail_starts
    assert fast.cycle_period_sum == ref.cycle_period_sum


def _plane_kinds(ps):
    """(type, L) of the plane of each direction (0, 1), (1, y) of a'."""
    p, m = ps.modulus.p, ps.modulus
    kinds = []
    for d in [(0, 1)] + [(1, y) for y in range(p)]:
        L, Q = plane(Vector3(0, *d, m), ps)
        disc = (L * L + 4 * Q) % p
        kinds.append(("dual" if disc == 0 else
                      "split" if pow(disc, (p - 1) // 2, p) == 1 else "field", L))
    return kinds


def _census_fields(report):
    return {k: v for k, v in dataclasses.asdict(report).items()
            if k not in ("engine", "elapsed")}


_oracle_rng = random.Random(0x51A7E)
ORACLE_CASES = [(p, tuple(_oracle_rng.randrange(p) for _ in range(5)))
                for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31) for _ in range(3)]
SPECIAL_CASES = {
    (7, (0, 0, 0, 0, 0)): "all dual",
    (31, (0, 0, 0, 0, 0)): "all dual",
    (7, (1, 4, 1, 1, 2)): "one dual",
    (23, (3, 1, 5, 2, 0)): "L = 0 split",   # p ≡ 3 (mod 4)
    (29, (3, 1, 5, 2, 0)): "L = 0 split",   # p ≡ 1 (mod 4)
    # No field plane, so no early generator of all of F_p^* decides the
    # scalars; L = 0 in every plane of the first two.
    (23, (1, 1, 2, 0, 0)): "no field",
    (29, (1, 1, 2, 0, 0)): "no field",
    (29, (0, 0, 0, 1, 0)): "no field",
    # (A, B, C) = (−D²/4, −E²/4, −DE/2): Q_d = −L_d²/4 for every d, so
    # Δ = 0 in every plane while L_d = D·d0 + E·d1 takes p values: the
    # one shape whose census passes many dual classes.
    (7, (5, 6, 6, 1, 2)): "zero form",
    (23, (17, 22, 22, 1, 2)): "zero form",
    # 1 dual and 41 split planes: the scalars 1, 2 and 6 (orders 1, 20
    # and 40; 6 is the least primitive root) and 0 launch.
    (41, (1, 1, 2, 0, 0)): "no field",
}
# At p = 41 the least primitive root is 6, larger than at every prime
# above, so the scalars' cyclic pass runs longest there.  The p = 41
# cases come last, so the cases above keep their parametrize ids.
ORACLE_41 = (41, tuple(_oracle_rng.randrange(41) for _ in range(5)))


@pytest.mark.parametrize("p,coefs",
                         ORACLE_CASES + list(SPECIAL_CASES) + [ORACLE_41])
def test_plane_census_matches_walk_oracle(p, coefs):
    ps = Params3(*coefs, make_modulus(p))
    kinds = _plane_kinds(ps)
    special = SPECIAL_CASES.get((p, coefs))
    if special == "all dual":
        assert all(kind == "dual" for kind, _ in kinds)
    elif special == "one dual":
        assert [kind for kind, _ in kinds].count("dual") == 1
    elif special == "L = 0 split":
        assert ("split", 0) in kinds
    elif special == "no field":
        assert all(kind != "field" for kind, _ in kinds)
    elif special == "zero form":
        assert all(kind == "dual" for kind, _ in kinds)
        assert len({L for _, L in kinds}) == p
    report = scan_space(ps)
    assert report.engine == "plane"
    assert _census_fields(report) == _census_fields(walk_census(ps))


@pytest.mark.parametrize("p", [3, 5, 7, 23])
def test_lex_offset_increases_along_each_direction(p):
    """The lex index x0·p² + offset[t] of (x0, t·d) is strictly increasing
    in (x0, t), so a plane's first launches do not depend on d."""
    for d0, d1 in [(0, 1)] + [(1, y) for y in range(p)]:
        offset = [t * d0 % p * p + t * d1 % p for t in range(p)]
        assert all(a < b for a, b in zip(offset, offset[1:]))
        assert offset[-1] < p * p


@pytest.mark.parametrize("n", range(2, 131, 2))
def test_trace_zero_subgroups_in_closed_form(n):
    """_trace_zero(n) is the set of order-n ids among <(1, 1 + h)> and
    <(2, 2 + h)>, each order n // gcd(n, a, b), and so every order-n
    subgroup that an (a, a + h) generates; and of all the subgroups of
    (Z/n)², ψ(n) = J₂(n)/φ(n) have order n."""
    sub, count = _subgroups(n)
    h = n // 2
    gens = [(k % n, (k + h) % n) for k in (1, 2)]
    expected = {sub[a * n + b] for a, b in gens if gcd(n, a, b) == 1}
    assert sorted(_trace_zero(n)) == sorted(expected)
    line = [(a, (a + h) % n) for a in range(n)]
    assert expected == {sub[a * n + b] for a, b in line if gcd(n, a, b) == 1}
    orders = {}
    for a in range(n):
        for b in range(n):
            orders[sub[a * n + b]] = n // gcd(n, a, b)
    assert len(orders) == count
    assert sum(o == n for o in orders.values()) == jordan2(n) // totient(n)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 23, 31, 61, 127])
def test_split_periods_by_jordan(p):
    """A split plane's units (u, v), u ≠ v, have period lcm(ord u, ord v),
    and each axis holds φ(j) elements of period j: the divisor-pair sum
    that J₂(k) + φ(k) closes."""
    n = p - 1
    expected = Counter()
    for i in divisors(n):
        for j in divisors(n):
            expected[i * j // gcd(i, j)] += totient(i) * totient(j)
    for k in divisors(n):
        expected[k] += totient(k)
    assert _type_periods(p)["split"] == dict(expected)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 23, 29, 31, 37, 61, 67, 101, 127])
def test_split_planes_launch_psi_plus_one_of_period_p_minus_1(p):
    """Every split class launches exactly ψ(n) + 1 starts of period
    n = p − 1, ψ = J₂/φ: the ψ(n) − 1 order-n units of _split_launches,
    whose pass ends on that count and never by running out of rows, and
    one generator per axis.  So a census counts types[split]·(ψ(n) + 1)
    walks of period n, plus 1 if a primitive scalar launches, as it does
    for C08's (6, 1, 1, 1, 2) at p = 23.  A fifth of the random sets have
    D = E = 0, so L = 0 on every plane and the pass takes the trace-zero
    skip."""
    n, m = p - 1, make_modulus(p)
    psi = jordan2(n) // totient(n)
    rng = random.Random(f"psi/{p}")
    sets = [[rng.randrange(p) for _ in range(3)] + [0, 0]]
    sets += [[rng.randrange(p) for _ in range(5)] for _ in range(4)]
    excess = []
    for coefs in sets + [[6, 1, 1, 1, 2]] * (p == 23):
        ps = Params3(*coefs, m)
        splits = 0
        for d in [(0, 1)] + [(1, y) for y in range(p)]:
            kind, periods, _ = _plane_walks(*_plane_of(d, ps), p)
            if kind == "split":
                splits += 1
                assert dict(periods)[n] == psi + 1, (coefs, d)
        excess.append(scan_space(ps).count(n, "walk") - splits * (psi + 1))
    assert set(excess) <= {0, 1}, excess
    assert p != 23 or excess[-1] == 1


CACHE_CASES = [
    (23, (9, 19, 1, 1, 2)),
    (23, (6, 1, 1, 1, 2)),
    (61, (31, 30, 1, 1, 2)),
    (23, (3, 1, 5, 2, 0)),     # L = 0 split
    (23, (0, 0, 0, 0, 0)),     # all dual
]


def test_plane_walks_cache_changes_nothing():
    """A census from a cleared cache equals one read from a warm cache,
    and a p = 23 sweep passes each of the at most p² classes (L, Q) once:
    the cache has no size bound to evict them."""
    assert _plane_walks.cache_info().maxsize is None
    cold = {}
    for p, coefs in CACHE_CASES:
        _plane_walks.cache_clear()
        cold[p, coefs] = scan_space(Params3(*coefs, make_modulus(p)))
        assert _plane_walks.cache_info().misses <= p + 1
    _plane_walks.cache_clear()
    param_sweep(make_modulus(23), 1, 1, 2)
    assert _plane_walks.cache_info().misses <= 23 ** 2
    for (p, coefs), report in cold.items():
        ps = Params3(*coefs, make_modulus(p))
        if p != 23:
            scan_space(ps)                  # warm this p's planes
        misses = _plane_walks.cache_info().misses
        warm = scan_space(ps)
        assert _plane_walks.cache_info().misses == misses
        assert warm == report               # every field but elapsed
        assert warm.to_dict() == report.to_dict()


def test_census_at_the_cap():
    p = 127
    t0 = time.perf_counter()
    r = scan_space(Params3(1, 1, 1, 1, 2, make_modulus(p)))
    assert time.perf_counter() - t0 < 2.0
    assert r.total_starts == p**3
    assert sum(r.start_periods.values()) == p**3
    assert sum(r.tail_lengths.values()) == p**3


def test_scan_is_deterministic():
    ps = Params3(6, 1, 1, 1, 2, make_modulus(11))
    assert scan_space(ps) == scan_space(ps)


def test_start_histogram_totals_space():
    p = 7
    ps = Params3(2, 5, 1, 1, 2, make_modulus(p))
    report = scan_space(ps)
    assert sum(report.start_periods.values()) == p**3
    assert sum(report.tail_lengths.values()) == p**3
    assert report.total_starts == p**3
    # every start element belongs to exactly one first-visit walk's state set
    assert sum(report.walk_periods.values()) == report.total_walks


def test_walk_census_matches_sequential_definition():
    """First-visit walks computed by scan_space equal the
    literal 'skip already-visited starts' procedure."""
    p = 7
    ps = Params3(3, 2, 1, 1, 2, make_modulus(p))
    m = ps.modulus
    visited = set()
    expected = {}
    for comps in itertools.product(range(p), repeat=3):
        if comps in visited:
            continue
        rec = orbit_length(Vector3(*comps, m), ps)
        expected[rec.period] = expected.get(rec.period, 0) + 1
        step = right_mul_stepper(Vector3(*comps, m), ps)
        cur = comps
        visited.add(cur)
        for _ in range(rec.tail + rec.period):
            cur = step(cur)
            visited.add(cur)
    report = scan_space(ps)
    assert report.walk_periods == expected


def test_cycle_states_are_exactly_zero_tail_starts():
    """A state lies on some start's cycle iff its own trajectory has no
    tail, so the union of all cycle sets must equal the zero-tail count."""
    p = 7
    ps = Params3(3, 2, 1, 1, 2, make_modulus(p))
    m = ps.modulus
    union = set()
    zero_tail = 0
    for comps in itertools.product(range(p), repeat=3):
        rec = orbit_length(Vector3(*comps, m), ps)
        if rec.tail == 0:
            zero_tail += 1
        step = right_mul_stepper(Vector3(*comps, m), ps)
        cur = comps
        for _ in range(rec.tail):
            cur = step(cur)
        for _ in range(rec.period):
            union.add(cur)
            cur = step(cur)
    assert len(union) == zero_tail
    report = scan_space(ps)
    assert report.zero_tail_starts == zero_tail


def test_budget_rejection():
    ps = Params3(1, 1, 1, 1, 2, make_modulus(131))
    with pytest.raises(BudgetExceededError):
        scan_space(ps)
    with pytest.raises(BudgetExceededError):
        param_sweep(make_modulus(131), 1, 1, 2)


@pytest.mark.parametrize("cap", [23.5, True, "127"])
def test_full_scan_cap_must_be_an_int(cap):
    """A float or bool cap is refused, not compared with p: 23.5 would run
    the p = 23 census and True refuse it as a budget."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    with pytest.raises(ValueError) as info:
        scan_space(ps, full_scan_cap=cap)
    assert str(info.value) == f"full_scan_cap must be an int, got {cap!r}"


def test_census_rejects_four_components():
    m = make_modulus(5)
    with pytest.raises(ValueError, match="3-component"):
        scan_space(Params4(1, 2, 3, 4, 0, 1, 2, 3, 4, m))


def test_orbit_length_four_components(rng):
    for _ in range(20):
        a, ps = random_instance(rng, dim=4, primes=(23,))
        rec = orbit_length(a, ps)
        step = right_mul_stepper(a, ps)
        cur = a.components
        for _ in range(rec.tail):
            cur = step(cur)
        cyc = [cur]
        for _ in range(rec.period - 1):
            cyc.append(step(cyc[-1]))
        assert step(cyc[-1]) == cyc[0]
        assert rec.cycle_rep == Vector4(*min(cyc), a.modulus)
    with pytest.raises(ValueError, match="dimension mismatch"):
        orbit_length(Vector3(0, 1, 2, a.modulus), ps)


def test_orbit_length_rejects_mixed_moduli():
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    m7 = make_modulus(7)
    for start in (Vector3(1, 2, 3, m7), Vector3(1, 0, 0, m7)):
        with pytest.raises(ModulusMismatchError, match="moduli differ"):
            orbit_length(start, ps)


def _record(a, ps):
    rec = orbit_length(a, ps)
    assert rec.start == a
    return rec.tail, rec.period, rec.cycle_rep


def _branch(a, ps):
    """Which case of the orbit module's classification a falls in."""
    L, Q = plane(a, ps)
    p = a.modulus.p
    s0 = (a.components[0] + 1) % p
    if not any(a.components[1:]):
        return "scalar, s0 = 0" if s0 == 0 else "scalar, s0 != 0"
    if (s0 * s0 + s0 * L - Q) % p:
        return "unit"
    return "nilpotent" if (2 * s0 + L) % p == 0 else "split zero-divisor"


ZERO_AND_SEEDED = [(p, dim, coefs)
                   for p in (3, 5, 7) for dim, n in ((3, 5), (4, 9))
                   for coefs in [(0,) * n] + [
                       tuple(_seeded.randrange(p) for _ in range(n))
                       for _ in range(2)]]


@pytest.mark.parametrize("p,dim,coefs", ZERO_AND_SEEDED)
def test_orbit_length_matches_walk_exhaustively(p, dim, coefs):
    m = make_modulus(p)
    ps = params(coefs, m)
    for comps in itertools.product(range(p), repeat=dim):
        a = vector(comps, m)
        assert _record(a, ps) == walk_orbit(a, ps)


@pytest.mark.parametrize("p", (23, 61, 101))
@pytest.mark.parametrize("dim", (3, 4))
def test_orbit_length_matches_walk_random(p, dim):
    rng = random.Random(p * dim)
    for _ in range(25):
        a, ps = random_instance(rng, dim=dim, primes=(p,))
        assert _record(a, ps) == walk_orbit(a, ps)


def _forced_start(rng, p, dim, branch, s0=None):
    """A random (start, params) pair at p that falls in the given branch.

    With x = a' and x1 != 0, L does not involve A and Q = A·x1² + Q0, so
    A fixes Q, and s0 then picks the branch: N = s0² + s0·L − Q.  A split
    zero-divisor start takes s0 if given (it is nilpotent if 2·s0 + L = 0).
    """
    m = make_modulus(p)
    coefs = [0] + [rng.randrange(p) for _ in range({3: 4, 4: 8}[dim])]
    if branch.startswith("scalar"):
        s0 = 0 if branch == "scalar, s0 = 0" else rng.randrange(1, p)
        return (vector([(s0 - 1) % p] + [0] * (dim - 1), m),
                params([rng.randrange(p)] + coefs[1:], m))
    x = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(dim - 2)]
    L, Q0 = plane(vector([0] + x, m), params(coefs, m))
    half = pow(2, -1, p)
    if branch == "nilpotent":
        s0, Q = -L * half % p, -L * L * half * half % p
    elif branch == "split zero-divisor":
        if s0 is None:
            s0 = rng.choice([s for s in range(p) if (2 * s + L) % p])
        Q = (s0 * s0 + s0 * L) % p
    else:
        s0 = rng.randrange(p)
        Q = (s0 * s0 + s0 * L - rng.randrange(1, p)) % p
    coefs[0] = (Q - Q0) * pow(x[0] * x[0], -1, p) % p
    return vector([(s0 - 1) % p] + x, m), params(coefs, m)


@pytest.mark.parametrize("branch", ["scalar, s0 = 0", "scalar, s0 != 0", "unit",
                                    "nilpotent", "split zero-divisor"])
@pytest.mark.parametrize("dim", (3, 4))
def test_orbit_length_matches_walk_in_each_branch(branch, dim):
    rng = random.Random(f"{branch}/{dim}")
    for p in (5, 23, 61, 101):
        for _ in range(5):
            a, ps = _forced_start(rng, p, dim, branch)
            assert _branch(a, ps) == branch
            assert _record(a, ps) == walk_orbit(a, ps)


@pytest.mark.parametrize("dim", (3, 4))
def test_split_zero_divisor_coset_search(dim):
    """The cycle minimum by listing <T> (ord(T)² ≤ p − 1) and by trying
    y = 1, 2, ..., each with s0 = 0 and s0 ≠ 0, against the walk."""
    rng = random.Random(f"coset/{dim}")
    cases = set()
    for p in (31, 61, 101, 211):
        for s0 in (0, None) * 10:
            a, ps = _forced_start(rng, p, dim, "split zero-divisor", s0)
            if _branch(a, ps) != "split zero-divisor":
                continue
            tail, period, rep = _record(a, ps)
            assert (tail, period, rep) == walk_orbit(a, ps)
            cases.add((a.components[0] == p - 1, period**2 <= p - 1))
    assert len(cases) == 4


def test_split_zero_divisor_at_large_p(capsys):
    """N = 0, T = 17 of order (p − 1)/2: the coset s0·<T> is the
    quadratic non-residues, so no walk of ~1e9 states is needed."""
    t0 = time.perf_counter()
    assert main(["orbit", "length", "--p", str(P31),
                 "--params", "60,3,1,7,2", "--a", "4,1,0"]) == 0
    assert time.perf_counter() - t0 < 1.0
    out = json.loads(capsys.readouterr().out)
    k = (P31 - 1) // 2
    assert (out["tail"], out["period"]) == (0, k)
    r0, r1, r2 = out["cycle_rep"]
    c = (r0 + 1) * pow(5, -1, P31) % P31           # s0 = 4 + 1
    assert (r1, r2) == (c, 0) and pow(c, k, P31) == 1
    # no state (y − 1, ...) with y < r0 + 1 lies on the cycle
    assert all(pow(y * pow(5, -1, P31), k, P31) != 1 for y in range(1, r0 + 1))


# 2^31 − 1 is prime, (2^31 − 1) − 1 = 2·3²·7·11·31·151·331 and
# (2^31 − 1) + 1 = 2^31: every period divides p(p − 1)(p + 1).
P31 = 2**31 - 1
P31_ORDER_PRIMES = (2, 3, 7, 11, 31, 151, 331, P31)


@pytest.mark.parametrize("dim", (3, 4))
def test_orbit_length_at_large_p(dim, capsys):
    """Walking an orbit of up to p² − 1 states is out of reach here."""
    rng = random.Random(dim)
    for _ in range(5):
        a, ps = random_instance(rng, dim=dim, primes=(P31,))
        rec = orbit_length(a, ps)
        assert rec.tail == 0
        assert pow_fast(a, 1 + rec.period, ps) == a
        rest = rec.period
        for q in P31_ORDER_PRIMES:
            if rest % q == 0:
                assert pow_fast(a, 1 + rec.period // q, ps) != a
                while rest % q == 0:
                    rest //= q
        assert rest == 1
    base = find_long_period_base(ps, min_period=2**40)
    rec = orbit_length(base, ps)
    assert rec.tail + rec.period > 2**40
    assert main(["orbit", "length", "--p", str(P31),
                 "--params", ",".join(map(str, ps.coefficients)),
                 "--a", ",".join(map(str, a.components))]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["period"] == orbit_length(a, ps).period


def test_census_proportions_and_dict():
    ps = Params3(6, 1, 1, 1, 2, make_modulus(7))
    r = scan_space(ps)
    for L in r.special_lengths.values():
        for measure in ("cycle", "element", "walk"):
            assert 0.0 <= r.proportion(L, measure) <= 1.0
    d = r.to_dict()
    assert d["p"] == 7
    assert set(d["special_lengths"]) == {
        "n_minus_1", "n2_minus_1", "half_n_minus_1", "half_n2_minus_1"}


def test_census_count_reads_each_measures_histogram():
    """count and proportion read the histogram and total each measure names."""
    p = 23
    r = scan_space(Params3(9, 19, 1, 1, 2, make_modulus(p)))
    hists = {"cycle": (r.cycle_periods, r.total_cycles),
             "element": (r.start_periods, r.total_starts),
             "walk": (r.walk_periods, r.total_walks)}
    assert set(MEASURES) == set(hists)
    for m in MEASURES:
        hist, total = hists[m]
        for k in range(p * p + 1):
            assert r.count(k, m) == hist.get(k, 0)
            assert r.proportion(k, m) == hist.get(k, 0) / total
    assert r.walk_count(528) == r.walk_periods[528] == 23
    for accessor in (r.count, r.proportion):
        with pytest.raises(ValueError, match="unknown measure 'orbit'"):
            accessor(528, "orbit")


def test_csv_and_json_output(tmp_path):
    ps = Params3(6, 1, 1, 1, 2, make_modulus(7))
    r = scan_space(ps)
    csv_path = tmp_path / "census.csv"
    json_path = tmp_path / "census.json"
    write_census_csv(r, csv_path)
    write_census_json(r, json_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("p,A,B,C,D,E,period,cycle_count")
    assert len(lines) == 1 + len(set(r.start_periods) | set(r.cycle_periods)
                                 | set(r.walk_periods))
    # byte-identical reruns
    csv2 = tmp_path / "census2.csv"
    write_census_csv(scan_space(ps), csv2)
    assert csv_path.read_bytes() == csv2.read_bytes()
    assert json_path.read_text().startswith("{")


def test_param_sweep_small():
    sweep = param_sweep(make_modulus(5), 1, 1, 2)
    assert len(sweep.reports) == 25
    agg = sweep.aggregate("walk")
    assert set(agg) == {"n_minus_1", "n2_minus_1", "half_n_minus_1",
                        "half_n2_minus_1"}
    sub = subset_distinct_nonzero(sweep)
    assert len(sub.reports) == 4 * 3  # nonzero distinct pairs in Z_5
    d = sweep.to_dict()
    assert d["pairs"] == 25


def test_param_sweep_rejects_empty_values():
    """An empty list would leave the aggregate nothing to average."""
    m = make_modulus(5)
    with pytest.raises(ValueError, match="a_values must not be empty"):
        param_sweep(m, 1, 1, 2, a_values=[])
    with pytest.raises(ValueError, match="b_values must not be empty"):
        param_sweep(m, 1, 1, 2, a_values=[1], b_values=[])


def test_empty_sweep_refuses_to_aggregate():
    """A subset that keeps no pair has nothing to average: its aggregate
    and to_dict name the empty sweep instead of dividing by zero."""
    sub = subset_distinct_nonzero(param_sweep(make_modulus(5), 1, 1, 2,
                                              a_values=[1], b_values=[1]))
    assert sub.reports == []
    for call in (sub.aggregate, sub.to_dict):
        with pytest.raises(ValueError, match="sweep at p = 5 is empty"):
            call()


@pytest.mark.parametrize("a_values, b_values, message", [
    ([1, 1, 2], [1], "a_values value 1 given twice"),
    ([1, 2], [3, 0, 3], "b_values value 3 given twice"),
], ids=["a", "b"])
def test_param_sweep_rejects_repeated_values(a_values, b_values, message):
    """A repeat would count its pair's census twice in every mean."""
    with pytest.raises(ValueError, match=message):
        param_sweep(make_modulus(5), 1, 1, 2, a_values, b_values)


def test_census_regression_anchor_p23():
    """Frozen full census at p=23 (9,19,1,1,2), verified once against the
    sequential reference; guards scan_space against drift."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    r = scan_space(ps)
    assert r.total_starts == 12167
    assert r.zero_tail_starts == 12145
    assert r.total_cycles == 25
    assert r.total_walks == 70
    assert r.start_periods[528] == 3680
    assert r.start_periods[264] == 1840
    assert r.start_periods[1] == 24
    assert r.walk_periods[528] == 23
    assert r.walk_periods[1] == 23
    assert r.cycle_periods[528] == 1
    assert sum(r.start_periods.values()) == 12167


def test_heuristic_search_finds_maximal_orbit():
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    found = heuristic_search(ps, budget=2 * 23)
    assert found, "expected a maximal orbit among (0,1,x)/(0,2,x)"
    for rec in found:
        assert rec.period == 23 * 23 - 1
        assert rec.start.components[0] == 0
    # identity start never shows up
    assert all(r.start.components != (0, 0, 0) for r in found)


def test_heuristic_search_four_components():
    m = make_modulus(23)
    ps = Params4(9, 19, 0, 1, 0, 0, 1, 2, 0, m)  # (9,19,1,1,2) with a3 = 0
    found = heuristic_search(ps, budget=2 * 23)
    assert found
    for rec in found:
        assert rec.period == 23 * 23 - 1
        assert rec.start.components[0] == rec.start.components[3] == 0


def structured_records(ps, seconds, limit=None):
    """orbit_length of the first `limit` (default all) nonzero
    (0, s mod p, x), zero-padded to the dimension of ps, in a plain
    double loop."""
    p = ps.modulus.p
    pad = (0,) * (ps.dim - 3)
    starts = (vector((0, s % p, x) + pad, ps.modulus)
              for s in seconds for x in range(p))
    return [orbit_length(a, ps) for a in itertools.islice(
        (a for a in starts if any(a.components)), limit)]


@pytest.mark.parametrize("p", [3, 5, 7, 23])
@pytest.mark.parametrize("dim", [3, 4])
def test_structured_scan_matches_plain_loop(dim, p):
    """heuristic_search keeps the records of period p² − 1 among the
    first `budget` nonzero starts of the plain loop, the zero start
    skipped and not counted, and find_long_period_base returns the first
    start of s = 1, 2, 3 longer than min_period."""
    rng = random.Random(100 * dim + p)
    for _ in range(3):
        _, ps = random_instance(rng, dim, primes=(p,))
        for seconds in ((1, 2), (0, 1), (2, 0, 1)):
            records = structured_records(ps, seconds)
            for budget in sorted({0, 1, p - 1, p, 2 * p, len(records) + 3}):
                found = heuristic_search(ps, budget, seconds)
                assert found == [r for r in records[:budget]
                                 if r.period == p * p - 1]
        records = structured_records(ps, (1, 2, 3))
        lengths = {r.tail + r.period for r in records}
        for min_period in sorted({0} | lengths | {n - 1 for n in lengths}):
            want = next((r.start for r in records
                         if r.tail + r.period > min_period), None)
            assert find_long_period_base(ps, min_period) == want
        assert find_long_period_base(ps, max(lengths)) is None


@pytest.mark.parametrize("p", [61, 127, 257, 1009, 2147483629, 2147483647])
@pytest.mark.parametrize("dim", [3, 4])
def test_heuristic_search_matches_records_at_large_p(dim, p):
    """The search's primitivity test keeps exactly the records of period
    p² − 1, as orbit_length finds them.  Up to p = 1009 the budgets stop
    on either side of the last start of the first s (p − 1 starts when
    s = 0, else p) and of the second, the end.  At p = 2147483629, where
    p + 1 has the odd primes 5, 6553 and 32771, and at p = 2³¹ − 1,
    where it has none, they stop within the first 300 starts."""
    rng = random.Random(dim * p)
    for _ in range(2):
        _, ps = random_instance(rng, dim, primes=(p,))
        for seconds in ((1, 2), (0, 1)):
            if p > 1009:
                budgets = [0, 1, 150, 300]
            else:
                first = p - 1 if seconds[0] == 0 else p
                budgets = sorted({first - 1, first, first + 1,
                                  first + p - 1, first + p, first + p + 1})
            records = structured_records(ps, seconds, budgets[-1])
            for budget in budgets:
                assert heuristic_search(ps, budget, seconds) == [
                    r for r in records[:budget] if r.period == p * p - 1]


def test_heuristic_search_budget_respected():
    m = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m)
    assert heuristic_search(ps, budget=0) == []
    with pytest.raises(ValueError, match="budget must be non-negative"):
        heuristic_search(ps, budget=-3)


def test_heuristic_search_budget_must_be_an_int():
    """A bool or float budget is refused with the range's message, not
    read as 1 or failed on inside islice."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    for bad in (True, 2.5):
        with pytest.raises(ValueError) as info:
            heuristic_search(ps, budget=bad)
        assert str(info.value) == f"budget must be non-negative, got {bad}"


@pytest.mark.parametrize("s", [True, 1.0])
def test_heuristic_search_second_components_must_be_ints(s):
    """A bool or float second component is refused by name, not read as
    s = 1."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    for seconds in ((s,), (2, s)):
        with pytest.raises(ValueError) as info:
            heuristic_search(ps, budget=46, second_components=seconds)
        assert str(info.value) == f"second_components must hold ints, got {s!r}"


@pytest.mark.parametrize("s", [23, 24, 99, -1])
def test_heuristic_search_rejects_uncanonical_second_component(s, capsys):
    """s = 24 would repeat s = 1's starts and s = 99 search s = 7."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    with pytest.raises(ValueError,
                       match=f"residue {s} not canonical for modulus 23"):
        heuristic_search(ps, budget=46, second_components=(1, s))
    assert main(["orbit", "search", "--p", "23", "--params", "9,19,1,1,2",
                 "--second-components", f"1,{s}", "--budget", "46"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"residue {s} not canonical for modulus 23" in err


@pytest.mark.parametrize("seconds", [(1, 1), (1, 2, 1)])
def test_heuristic_search_rejects_repeated_second_component(seconds, capsys):
    """A repeat would classify its starts twice, spending budget and
    doubling their records."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    with pytest.raises(ValueError, match="second component 1 given twice"):
        heuristic_search(ps, budget=100, second_components=seconds)
    assert main(["orbit", "search", "--p", "23", "--params", "9,19,1,1,2",
                 "--second-components", ",".join(map(str, seconds)),
                 "--budget", "100"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "second component 1 given twice" in err


def test_heuristic_search_rejects_empty_second_components(capsys):
    """No second component leaves nothing to search: an error, not an
    empty result."""
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    with pytest.raises(ValueError,
                       match="second_components must not be empty"):
        heuristic_search(ps, second_components=())
    assert main(["orbit", "search", "--p", "23", "--params", "9,19,1,1,2",
                 "--second-components="]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mlmagma: error: second_components must not be empty\n"
