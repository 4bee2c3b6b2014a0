import random
from collections import Counter
from math import gcd
from operator import add

import pytest

from mlmagma import Params3, Params4, Vector3, Vector4, make_modulus, vector
from mlmagma.field import divisors
from mlmagma.magma import _require_shared, left_mul_stepper, right_mul_stepper
from mlmagma.orbit import CensusReport, SweepResult, orbit_length
from mlmagma.prng import (UniformityReport, _slot_steppers, find_cycle,
                          iter_outputs)
from mlmagma.symbolic import (VARIABLES, CoefficientOverflowError, SymPoly,
                              SymVector3, generic_vector)

TEST_PRIMES = (23, 61, 101)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def random_instance(rng, dim=3, primes=TEST_PRIMES):
    """A random (vector, params) pair sharing one modulus."""
    p = rng.choice(primes)
    m = make_modulus(p)
    if dim == 3:
        a = Vector3(*(rng.randrange(p) for _ in range(3)), m)
        ps = Params3(*(rng.randrange(p) for _ in range(5)), m)
    else:
        a = Vector4(*(rng.randrange(p) for _ in range(4)), m)
        ps = Params4(*(rng.randrange(p) for _ in range(9)), m)
    return a, ps


def paper_mul(a, b, ps):
    """The paper's componentwise product, written out per dimension.

    An oracle independent of magma's (K, λ) form: each coefficient
    multiplies the component pair the paper gives it.
    """
    p = ps.modulus.p
    if a.dim == 3:
        A, B, C, D, E = ps.coefficients
        a0, a1, a2 = a.components
        b0, b1, b2 = b.components
        c0 = a0 + b0 + a0 * b0 + A * a1 * b1 + C * a2 * b1 + B * a2 * b2
        c1 = a1 + b1 + a1 * b0 + a0 * b1 + D * a1 * b1 + E * a1 * b2
        c2 = a2 + b2 + a2 * b0 + a0 * b2 + D * a2 * b1 + E * a2 * b2
        return Vector3(c0 % p, c1 % p, c2 % p, a.modulus)
    A, B, C, D, E, F, G, H, I = ps.coefficients
    a0, a1, a2, a3 = a.components
    b0, b1, b2, b3 = b.components
    c0 = (a0 + b0 + a0 * b0 + A * a1 * b1 + E * a3 * b1 + B * a2 * b2
          + D * a1 * b2 + F * a3 * b2 + C * a3 * b3)
    c1 = a1 + b1 + a1 * b0 + a0 * b1 + G * a1 * b1 + H * a1 * b2 + I * a1 * b3
    c2 = a2 + b2 + a2 * b0 + a0 * b2 + G * a2 * b1 + H * a2 * b2 + I * a2 * b3
    c3 = a3 + b3 + a3 * b0 + a0 * b3 + G * a3 * b1 + H * a3 * b2 + I * a3 * b3
    return Vector4(c0 % p, c1 % p, c2 % p, c3 % p, a.modulus)


def plane_generic(a, ps) -> tuple[int, int]:
    """(L, Q) = (λ·a', a'ᵀK a') mod p as sums over the form, in any
    dimension: the oracle for magma's plane, unrolled per dimension."""
    p = _require_shared(a, a, ps).p
    K, lam = ps.form
    x = a.components[1:]
    L = sum(l * xi for l, xi in zip(lam, x))
    Q = sum(xi * k * xj for xi, row in zip(x, K) for k, xj in zip(row, x))
    return L % p, Q % p


_COEF_LIMIT = 2**63


def _checked(c: int) -> int:
    if not (-_COEF_LIMIT <= c < _COEF_LIMIT):
        raise CoefficientOverflowError(f"coefficient {c} exceeds 64-bit range")
    return c


def poly_add(x: dict, y: dict) -> dict:
    """x + y on {exponent tuple: coefficient} dicts, each sum checked:
    the oracle for SymPoly's packed-key addition."""
    out = dict(x)
    for e, c in y.items():
        s = _checked(out.get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(x: dict, y: dict) -> dict:
    """x * y on {exponent tuple: coefficient} dicts, exponents added
    field by field: the oracle for SymPoly's one int add per term product."""
    out: dict[tuple[int, ...], int] = {}
    get = out.get
    pairs = y.items()
    for e1, c1 in x.items():
        for e2, c2 in pairs:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: _checked(c) for e, c in out.items() if c}


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded lexicographic order, a0 first: the oracle for the int order
    of SymPoly's packed keys."""
    return (sum(exps), exps)


def poly_evaluate(terms: dict, values: dict[str, int], p: int) -> int:
    """A {exponent tuple: coefficient} dict evaluated modulo p, term by
    term: the oracle for SymPoly.evaluate on packed keys."""
    vals = [values[name] % p for name in VARIABLES]
    acc = 0
    for exps, coef in terms.items():
        term = coef % p
        for v, e in zip(vals, exps):
            if e:
                term = term * pow(v, e, p) % p
        acc = (acc + term) % p
    return acc


def divisible_by(poly: SymPoly, name: str) -> bool:
    """Whether every monomial of poly carries the variable name."""
    i = VARIABLES.index(name)
    return all(e[i] >= 1 for e in poly.terms)


_A, _B, _C, _D, _E = (SymPoly.variable(v) for v in "ABCDE")


def zero_vector() -> SymVector3:
    return SymVector3(SymPoly(), SymPoly(), SymPoly())


def sym_mul3(x: SymVector3, y: SymVector3) -> SymVector3:
    """The componentwise product rule applied over the polynomial ring."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    c0 = x0 + y0 + x0 * y0 + _A * x1 * y1 + _C * x2 * y1 + _B * x2 * y2
    c1 = x1 + y1 + x1 * y0 + x0 * y1 + _D * x1 * y1 + _E * x1 * y2
    c2 = x2 + y2 + x2 * y0 + x0 * y2 + _D * x2 * y1 + _E * x2 * y2
    return SymVector3(c0, c1, c2)


def sym_pow_oracle(n):
    """The left-associative product (..(a*a)*..)*a of n generic vectors
    by sym_mul3: the oracle for symbolic.sym_pow's closed form in R."""
    a = generic_vector()
    out = a
    for _ in range(n - 1):
        out = sym_mul3(out, a)
    return out


def sym_parenthesizations(n):
    """Every distinct full parenthesization of the symbolic n-fold
    product by sym_mul3: the oracle for power associativity, which
    holds iff there is one.  Capped at n = 5 (14 bracketings)."""
    if not (1 <= n <= 5):
        raise ValueError("symbolic parenthesization enumeration capped at n = 5")
    a = generic_vector()
    by_len = {1: [a]}
    for length in range(2, n + 1):
        outs = []
        for split in range(1, length):
            for x in by_len[split]:
                for y in by_len[length - split]:
                    z = sym_mul3(x, y)
                    if z not in outs:
                        outs.append(z)
        by_len[length] = outs
    return by_len[n]


def cycle_minimum(step, on_cycle_state, period):
    """Smallest state (by natural ordering) over one full turn of the
    cycle through on_cycle_state: the cycle representative walk_orbit
    checks orbit_length's closed-form cycle_rep against."""
    best = cur = on_cycle_state
    for _ in range(period - 1):
        cur = step(cur)
        if cur < best:
            best = cur
    return best


def walk_orbit(a, ps):
    """(tail, period, cycle_rep) of a's power sequence by walking it.

    find_cycle's numbering walk, then the smallest state over one full
    turn of the cycle: the oracle for orbit.orbit_length.
    """
    step = right_mul_stepper(a, ps)
    tail, period = find_cycle(step, a.components)
    on_cycle = a.components
    for _ in range(tail):
        on_cycle = step(on_cycle)
    return tail, period, vector(cycle_minimum(step, on_cycle, period), a.modulus)


def walk_prng_cycle(config):
    """(tail, period) of the PRNG's composite state (vector, position)
    by find_cycle's walk over it: the oracle for prng.prng_cycle_length,
    which reads both from the pass algebra."""
    make = right_mul_stepper if config.side == "right" else left_mul_stepper
    steppers = [make(config.seeds[i], config.params) for i in config.pattern]
    length = len(steppers)

    def step(state):
        vec, pos = state
        return steppers[pos](vec), (pos + 1) % length

    return find_cycle(step, (config.initial.components, 0))


def pass_matrix(config) -> list[list[int]]:
    """The matrix M of one full pattern pass on the shifted vector
    (x0 + 1, x1, x2), where the pass is linear (prng module docstring):
    the oracle for the Krylov vectors M^k·v that prng reads off its
    stream.

    Its columns are the passes of the shifted unit vectors, probed
    through the slot steppers, so it works for either multiplication side.
    """
    p = config.modulus.p
    steppers = _slot_steppers(config)
    cols = []
    for cur in ((0, 0, 0), (p - 1, 1, 0), (p - 1, 0, 1)):
        for st in steppers:
            cur = st(cur)
        cols.append(((cur[0] + 1) % p, cur[1], cur[2]))
    return [list(row) for row in zip(*cols)]


def walk_census(ps, order=None):
    """The census by one pass of first-visit walks over all p³ starts:
    the oracle for orbit.scan_space's plane-wise census.  `order` lists
    the lex indices to launch from, each only if still unvisited; None
    is lex order, the order of the paper's walk counts.

    It is exact because powers are associative: (a^i)^n = a^(i·n).  If
    the walk of a visits a^1 .. a^(μ+λ) before a^(μ+λ+1) = a^(μ+1), the
    start a^i walks a^i, a^(2i), ...: its tail is μ // i, its period
    λ // gcd(λ, i), and its cycle is that of the start a^gcd(λ, i).  So
    the walk of each launched start classifies every state it is first to
    visit, and the cycles of the starts a^g, g | λ, over all walks are
    all the cycles.
    """
    p = ps.modulus.p
    total = p**3
    start_hist, tail_hist, walk_hist = Counter(), Counter(), Counter()
    cycles = set()                       # (lex index of cycle minimum, period)
    visited = bytearray(total)           # by lex index (x0*p + x1)*p + x2
    for i in range(total) if order is None else order:
        if visited[i]:
            continue
        a = Vector3(i // (p * p), i // p % p, i % p, ps.modulus)
        step = right_mul_stepper(a, ps)
        seen = {}                        # lex index of a^e -> e - 1
        x, key = a.components, i
        while key not in seen:
            seen[key] = len(seen)
            x = step(x)
            key = (x[0] * p + x[1]) * p + x[2]
        tail = seen[key]
        period = len(seen) - tail
        walk_hist[period] += 1
        keys = list(seen)
        for e, k in enumerate(keys, 1):
            if not visited[k]:
                visited[k] = 1
                start_hist[period // gcd(period, e)] += 1
                tail_hist[tail // e] += 1
        cycle = keys[tail:]              # a^(tail+1) .. a^(tail+period)
        for g in divisors(period):
            # the cycle of a^g: the states a^e of a's cycle with g | e
            cycles.add((min(cycle[-(tail + 1) % g::g]), period // g))
    return CensusReport(
        p=p, params=tuple(ps.coefficients), total_starts=total,
        start_periods=dict(start_hist),
        cycle_periods=dict(Counter(q for _, q in cycles)),
        walk_periods=dict(walk_hist), tail_lengths=dict(tail_hist),
        total_cycles=len(cycles), total_walks=sum(walk_hist.values()),
        zero_tail_starts=tail_hist[0],
        cycle_period_sum=sum(q for _, q in cycles), engine="walk",
    )


def scan_python(ps):
    """The census from orbit_length on each start and the literal
    first-visit procedure; tiny p only.

    The start, tail and cycle histograms come from orbit_length's
    algebraic classification of each start, so comparing this scan with
    orbit.scan_space cross-checks the plane-wise census against it.  The
    walk census here is the literal sequential procedure: enumerate
    starts lexicographically, skip any start already visited, walk the
    whole trajectory of each launched start, record its period.
    """
    p = ps.modulus.p
    m = ps.modulus
    start_hist, cycle_hist, tail_hist, walk_hist = (
        Counter(), Counter(), Counter(), Counter())
    cycles = set()
    visited = set()
    zero_tails = 0
    for a0 in range(p):
        for a1 in range(p):
            for a2 in range(p):
                a = Vector3(a0, a1, a2, m)
                rec = orbit_length(a, ps)
                start_hist[rec.period] += 1
                tail_hist[rec.tail] += 1
                if rec.tail == 0:
                    zero_tails += 1
                cycles.add((rec.cycle_rep.components, rec.period))
                if a.components not in visited:
                    walk_hist[rec.period] += 1
                    step = right_mul_stepper(a, ps)
                    cur = a.components
                    visited.add(cur)
                    for _ in range(rec.tail + rec.period):
                        cur = step(cur)
                        visited.add(cur)
    for _, period in cycles:
        cycle_hist[period] += 1
    return CensusReport(
        p=p, params=tuple(ps.coefficients), total_starts=p**3,
        start_periods=dict(start_hist), cycle_periods=dict(cycle_hist),
        walk_periods=dict(walk_hist), tail_lengths=dict(tail_hist),
        total_cycles=len(cycles), total_walks=sum(walk_hist.values()),
        zero_tail_starts=zero_tails,
        cycle_period_sum=sum(period for _, period in cycles),
        engine="python",
    )


def subset_distinct_nonzero(sweep):
    """The sweep's hypothesis subset: A, B nonzero and distinct (462
    pairs at p = 23)."""
    kept = [r for r in sweep.reports
            if r.params[0] != 0 and r.params[1] != 0
            and r.params[0] != r.params[1]]
    return SweepResult(sweep.p, sweep.fixed, kept)


def count_outputs(config, samples):
    """The uniformity report from counting every one of the first
    `samples` outputs: the oracle for prng.uniformity_stats, which folds
    whole periods of the stream into a count multiplier, or on a maximal
    period counts them in closed form and steps at most half of one."""
    p = config.modulus.p
    counts = [[0] * p for _ in range(3)]
    for out in iter_outputs(config, samples):
        for comp, x in zip(counts, out):
            comp[x] += 1
    return UniformityReport.from_counts(p, samples, counts)


def x_pow_is_one_generic(k: int, g: list[int], p: int) -> bool:
    """Whether X^k ≡ 1 modulo the monic g (low coefficient first).

    Square-and-multiply on coefficient lists of any degree: the oracle
    for prng's order of X, Plane.unit_order for degree 1 and 2 and the
    cubic kernel prng._x_pow_is_one for degree 3.
    """
    d = len(g) - 1
    r = [1] + [0] * (d - 1)
    for bit in bin(k)[2:]:
        sq = [0] * (2 * d)
        for i, x in enumerate(r):
            if x:
                for j, y in enumerate(r):
                    sq[i + j] += x * y
        if bit == "1":
            sq = [0] + sq[:-1]           # times X
        for i in range(2 * d - 1, d - 1, -1):
            c = sq[i] % p
            if c:
                for j in range(d):
                    sq[i - d + j] -= c * g[j]
        r = [x % p for x in sq[:d]]
    return r == [1] + [0] * (d - 1)


def power_unfolded(s: int, t: int, n: int, L: int, Q: int, p: int):
    """(s + t·w)^n in F_p[w]/(w² − L w − Q) by square-and-multiply over
    every bit of n: the oracle for Plane.power, which first folds n by
    the Frobenius of the plane."""
    tQ, stL = t * Q % p, (s + t * L) % p
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = (a * a + b * b * Q) % p, (2 * a + b * L) * b % p
        if bit == "1":
            a, b = (a * s + b * tQ) % p, (a * t + b * stL) % p
    return a, b


def byte_stream_bitwise(config, nbytes):
    """prng.byte_stream's bytes, one accepted value's bits at a time: the
    oracle for its packer, which takes eight values, k bytes, at once."""
    if nbytes < 0:
        raise ValueError(f"byte count must be non-negative, got {nbytes}")
    if nbytes == 0:
        return b""
    p = config.modulus.p
    k = p.bit_length() - 1
    threshold = 1 << k
    out = bytearray()
    acc = 0
    nbits = 0
    for comps in iter_outputs(config, 64 * nbytes + 1024):
        for v in comps:
            if v < threshold:
                acc = (acc << k) | v
                nbits += k
                while nbits >= 8:
                    nbits -= 8
                    out.append((acc >> nbits) & 0xFF)
                    if len(out) == nbytes:
                        return bytes(out)
                acc &= (1 << nbits) - 1
    raise RuntimeError("stream too degenerate to extract the requested bytes")
