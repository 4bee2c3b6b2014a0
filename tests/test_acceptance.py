"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite takes under a minute.

Census criteria report three proportion measures (distinct-cycle,
element, and first-visit walk); a criterion passes when its stated
tolerance holds under at least one, and the line says which.  The walk
measure is the one the reference proportions hold under.
"""

import itertools
import random
import time

import pytest

from mlmagma import (Params3, Params4, Vector3, Vector4, identity,
                     make_modulus, mul, square_gh)
from mlmagma.dip import DipInstance, dip_bruteforce, dip_timing, find_long_period_base
from mlmagma.kx import KxPublicParams, run_local_exchange
from mlmagma.orbit import heuristic_search, param_sweep, scan_space
from mlmagma.power import (check_power_associativity, check_power_identity,
                           pow_fast, pow_iter, powers_upto)
from mlmagma.prng import seed_search, uniformity_stats
from mlmagma.symbolic import (a_monomial_bound, reference_cube, sym_pow,
                              sym_square_gh, VARIABLES)


def report(num, ok, budget, elapsed, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {num:02d} {tag} ({elapsed:.1f}s / budget {budget:.0f}s) — {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"


def random_p3_instance(rng, primes=(23, 61, 101)):
    p = rng.choice(primes)
    m = make_modulus(p)
    a = Vector3(*(rng.randrange(p) for _ in range(3)), m)
    ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
    return a, ps


def test_c01_identity_laws():
    t0 = time.perf_counter()
    rng = random.Random(101)
    failures = 0
    m5 = make_modulus(5)
    e5 = identity(3, m5)
    for _ in range(20):
        ps = Params3(*(rng.randrange(5) for _ in range(5)), m5)
        for comps in itertools.product(range(5), repeat=3):
            a = Vector3(*comps, m5)
            if mul(a, e5, ps) != a or mul(e5, a, ps) != a:
                failures += 1
        if mul(e5, e5, ps) != e5:
            failures += 1
    m101 = make_modulus(101)
    e101 = identity(3, m101)
    for _ in range(1000):
        a = Vector3(*(rng.randrange(101) for _ in range(3)), m101)
        ps = Params3(*(rng.randrange(101) for _ in range(5)), m101)
        if mul(a, e101, ps) != a or mul(e101, a, ps) != a:
            failures += 1
    report(1, failures == 0, 5, time.perf_counter() - t0,
           f"identity laws, {20 * 125 + 1000} cases, {failures} failures")


def test_c02_gh_squaring_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    failures = 0
    for _ in range(10000):
        a, ps = random_p3_instance(rng)
        if square_gh(a, ps) != mul(a, a, ps):
            failures += 1
    for _ in range(10000):
        p = rng.choice((23, 61, 101))
        m = make_modulus(p)
        a = Vector4(*(rng.randrange(p) for _ in range(4)), m)
        ps = Params4(*(rng.randrange(p) for _ in range(9)), m)
        if square_gh(a, ps) != mul(a, a, ps):
            failures += 1
    report(2, failures == 0, 5, time.perf_counter() - t0,
           f"g/h squaring vs componentwise product, 10000+10000 instances, "
           f"{failures} failures")


def test_c03_power_associativity():
    t0 = time.perf_counter()
    rng = random.Random(303)
    failures = 0
    for _ in range(200):
        a, ps = random_p3_instance(rng)
        ok, _ = check_power_associativity(a, ps, 6)
        if not ok:
            failures += 1
    report(3, failures == 0, 30, time.perf_counter() - t0,
           f"all parenthesizations agree to n=6 on 200 instances, "
           f"{failures} failures")


def test_c04_power_identity_grid():
    t0 = time.perf_counter()
    rng = random.Random(404)
    failures = 0
    for _ in range(200):
        a, ps = random_p3_instance(rng)
        ok, _ = check_power_identity(a, ps, 32, 32)
        if not ok:
            failures += 1
            continue
        pows = powers_upto(a, 16 * 16, ps)
        for m_exp in range(1, 17):
            am = pows[m_exp - 1]
            for n_exp in range(1, 17):
                if pow_fast(am, n_exp, ps) != pows[m_exp * n_exp - 1]:
                    failures += 1
                    break
            else:
                continue
            break
    report(4, failures == 0, 30, time.perf_counter() - t0,
           "a^m * a^n = a^(m+n) for m,n<=32 and (a^m)^n = a^(mn) for m,n<=16 "
           f"on 200 instances, {failures} failures")


def test_c05_symbolic_fidelity():
    t0 = time.perf_counter()
    square_ok = sym_pow(2) == sym_square_gh()
    cube = sym_pow(3)
    ref = reference_cube()
    cube_ok = cube.c0 == ref.c0 and cube.c1 == ref.c1 and cube.c2 == ref.c2
    rng = random.Random(505)
    numeric_ok = True
    m = make_modulus(101)
    for _ in range(100):
        vals = {name: rng.randrange(101) for name in VARIABLES}
        ps = Params3(vals["A"], vals["B"], vals["C"], vals["D"], vals["E"], m)
        a = Vector3(vals["a0"], vals["a1"], vals["a2"], m)
        for n in range(1, 7):
            if sym_pow(n).evaluate(vals, 101) != pow_iter(a, n, ps).components:
                numeric_ok = False
    report(5, square_ok and cube_ok and numeric_ok, 10,
           time.perf_counter() - t0,
           f"square print match: {square_ok}, cube transcription match: "
           f"{cube_ok}, numeric agreement at 100 points: {numeric_ok}")


def test_c06_monomial_bound():
    t0 = time.perf_counter()
    counts = [sym_pow(n).c0.a_monomial_count() for n in range(1, 7)]
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    bounded = all(c <= a_monomial_bound(n) for n, c in enumerate(counts, 1))
    report(6, increasing and bounded, 10, time.perf_counter() - t0,
           f"a-monomial counts {counts}, bounds "
           f"{[a_monomial_bound(n) for n in range(1, 7)]}")


def _census_line(r, length):
    return (f"cycle {100 * r.cycle_proportion(length):.2f}% / "
            f"element {100 * r.start_proportion(length):.2f}% / "
            f"walk {100 * r.walk_proportion(length):.2f}%")


def _passing_measures(r, length, target, tol):
    out = []
    for measure in ("cycle", "element", "walk"):
        if abs(100 * r.proportion(length, measure) - target) <= tol:
            out.append(measure)
    return out


def test_c07_census_maximal_rich():
    t0 = time.perf_counter()
    ps = Params3(9, 19, 1, 1, 2, make_modulus(23))
    r = scan_space(ps)
    length = 23 * 23 - 1
    passing = _passing_measures(r, length, 33.0, 4.0)
    report(7, bool(passing), 60, time.perf_counter() - t0,
           f"p=23 (9,19,1,1,2) length-528 proportion 33%±4 holds under "
           f"{passing or 'no measure'}; {_census_line(r, length)}")


def test_c08_census_n_minus_1_dominant():
    t0 = time.perf_counter()
    ps = Params3(6, 1, 1, 1, 2, make_modulus(23))
    r = scan_space(ps)
    length = 22
    passing = _passing_measures(r, length, 89.0, 4.0)
    report(8, bool(passing), 60, time.perf_counter() - t0,
           f"p=23 (6,1,1,1,2) length-22 proportion 89%±4 holds under "
           f"{passing or 'no measure'}; {_census_line(r, length)}")


def test_c09_census_p61():
    t0 = time.perf_counter()
    ps = Params3(31, 30, 1, 1, 2, make_modulus(61))
    r = scan_space(ps)
    max_len = 61 * 61 - 1
    count_31 = r.walk_count(max_len)
    count_ok = abs(count_31 - 31) <= 3
    passing = _passing_measures(r, 60, 85.0, 5.0)
    elapsed = time.perf_counter() - t0
    report(9, count_ok and bool(passing), 600, elapsed,
           f"p=61 (31,30,1,1,2): {count_31} first-visit walks of length 3720 "
           f"({100 * r.walk_proportion(max_len):.2f}%), target 31±3; "
           f"length-60 at 85%±5 under {passing or 'no measure'}; "
           f"{_census_line(r, 60)}")


def test_c10_sweep_aggregates():
    t0 = time.perf_counter()
    sweep = param_sweep(make_modulus(23), 1, 1, 2)
    agg = sweep.aggregate("walk")
    full = {
        "mean_n2": 100 * agg["n2_minus_1"]["mean"],
        "mean_n1": 100 * agg["n_minus_1"]["mean"],
        "min_n2": 100 * agg["n2_minus_1"]["min"],
        "max_n2": 100 * agg["n2_minus_1"]["max"],
    }
    ok_mean_n2 = abs(full["mean_n2"] - 2.77) <= 1.5
    ok_mean_n1 = abs(full["mean_n1"] - 80.0) <= 5.0
    ok_range = full["min_n2"] == 0.0 and full["max_n2"] >= 30.0
    ok = ok_mean_n2 and ok_mean_n1 and ok_range
    sub = sweep.subset_distinct_nonzero()
    sub_agg = sub.aggregate("walk")
    sub_mean = 100 * sub_agg["n2_minus_1"]["mean"]
    detail = (f"529-pair sweep (walk measure): mean length-528 "
              f"{full['mean_n2']:.2f}% (target 2.77±1.5), mean length-22 "
              f"{full['mean_n1']:.2f}% (target 80±5), range "
              f"{full['min_n2']:.1f}..{full['max_n2']:.1f}% (needs 0 and >=30); "
              f"462 distinct-nonzero subset mean length-528 {sub_mean:.2f}%")
    report(10, ok, 1800, time.perf_counter() - t0, detail)


def test_c11_heuristic_search_p61():
    t0 = time.perf_counter()
    ps = Params3(31, 30, 1, 1, 2, make_modulus(61))
    found = heuristic_search(ps, budget=2 * 61)
    report(11, len(found) >= 1, 10, time.perf_counter() - t0,
           f"{len(found)} period-3720 orbits among (0,1,x)/(0,2,x) "
           f"within {2 * 61} trials")


@pytest.fixture(scope="module")
def prng_best_configs():
    ps = Params3(19, 18, 1, 1, 2, make_modulus(37))
    out = {}
    for pattern in ((0, 1), (0, 0, 0, 1, 2)):
        t0 = time.perf_counter()
        hits = seed_search(ps, pattern, trials=500, rng_seed=1)
        out[pattern] = (hits[0], time.perf_counter() - t0)
    return out


def test_c12_prng_near_maximal(prng_best_configs):
    oks, details = [], []
    elapsed = 0.0
    for pattern, maximum in (((0, 1), 37**3 * 2), ((0, 0, 0, 1, 2), 37**3 * 5)):
        best, took = prng_best_configs[pattern]
        elapsed += took
        oks.append(best.period >= 0.99 * maximum)
        details.append(f"pattern {list(pattern)}: best {best.period} "
                       f"of {maximum} ({best.period / maximum:.5f})")
    report(12, all(oks), 600, elapsed,
           "; ".join(details) + " within 500 trials each")


def test_c13_prng_uniformity(prng_best_configs):
    t0 = time.perf_counter()
    best, _ = prng_best_configs[(0, 1)]
    rep = uniformity_stats(best.config, 1_000_000)
    ok = rep.max_relative_deviation < 0.02
    report(13, ok, 60, time.perf_counter() - t0,
           f"max relative deviation {100 * rep.max_relative_deviation:.3f}% "
           f"over 10^6 samples (threshold 2%), chi2 "
           f"{[round(c, 1) for c in rep.chi_square]}")


def test_c14_kx_dip_integration():
    t0 = time.perf_counter()
    rng = random.Random(1414)
    p = 101
    m = make_modulus(p)
    e = identity(3, m)
    failures = 0
    for _ in range(100):
        ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
        base = Vector3(*(rng.randrange(p) for _ in range(3)), m)
        if base == e:
            base = Vector3(1, 1, 1, m)
        pub = KxPublicParams(ps, base)
        bits = rng.randrange(2, 17)
        ex = run_local_exchange(pub, bits, rng)
        if not ex.match:
            failures += 1
            continue
        for kp in (ex.alice, ex.bob):
            res = dip_bruteforce(DipInstance(base, kp.public, ps, cap=50000))
            if res.exponent is None or \
                    pow_iter(base, res.exponent, ps) != kp.public:
                failures += 1
    report(14, failures == 0, 60, time.perf_counter() - t0,
           f"100 exchanges at p=101, bits<=16: shared keys equal and "
           f"transcript exponents recovered, {failures} failures")


def test_c15_dip_scaling():
    t0 = time.perf_counter()
    ps = Params3(505, 504, 1, 1, 2, make_modulus(1009))
    exponents = [2**k for k in range(10, 17)]
    base = find_long_period_base(ps, min_period=exponents[-1] + 64)
    rows = dip_timing(ps, exponents, samples=3, base=base)
    ratios = [cur.mean_steps / prev.mean_steps
              for prev, cur in zip(rows, rows[1:])]
    ok = all(abs(r - 2.0) <= 0.1 for r in ratios)
    report(15, ok, 60, time.perf_counter() - t0,
           f"mean step ratios across n=2^10..2^16: "
           f"{[round(r, 3) for r in ratios]} (target 2±0.1)")
