"""Multi-seed multiplication-pattern PRNG over Z_p^3.

Each step multiplies the current vector by a seed chosen by a fixed
cyclic index pattern; the generator state is the pair (vector, pattern
position), giving an effective state space of p^3 * pattern_length.
iter_outputs is the one output path: raw component tuples from the
slot steppers.  The single-orbit stream a, a^2, ... that the pattern
improves on is power.powers_upto.

Shift the first component, S(x) = (x0 + 1, x1, x2): the product is
bilinear in S (magma docstring), so one full pattern pass is linear,
S(x) ↦ M·S(x).  The position-0 subsequence of the composite state is
exactly its iteration, so the composite-state period is pattern_length
times the period of v = S(initial) under M.  That period is an element
order, not a walk.  Let f, of degree at most 3, be the monic
annihilator of v (the least-degree f with f(M)·v = 0), and write
f = X^μ·g with g(0) ≠ 0.

* M^(m+n)·v = M^m·v iff f | X^m·(X^n − 1), iff m ≥ μ and g | X^n − 1,
  as X does not divide X^n − 1.  So the pass tail is μ and the pass
  period P is the order of X in (F_p[X]/g)^*, or 1 when g = 1: then
  M^μ·v = 0, and the orbit ends at the absorbing zero (p − 1, 0, 0).
* An irreducible factor h ≠ X of g, of degree d ≤ 3, divides
  X^(p^d − 1) − 1, so h^p divides (X^(p^d − 1) − 1)^p = X^((p^d − 1)·p) − 1.
  h's multiplicity is at most 3 ≤ p, so the order divides
  p·(p − 1)(p + 1)(p² + p + 1).
* So a pass period is at most p³ − 1, reached exactly when g is a
  primitive cubic.  An irreducible cubic that is not primitive gives a
  proper divisor of p³ − 1, and any other g at most p² − 1.  The
  composite maximum is (p³ − 1)·pattern_length, and the "max_period" of
  p³·pattern_length that `mlmagma prng search` prints can never be
  reached; it stays so that its stdout does not change.
* If the seeds the pattern uses have collinear (x1, x2) parts, their
  shifted plane is closed under the product, so M keeps it and has an
  eigenvalue in F_p: g is never a primitive cubic, nor the period maximal.
* The tail needs no power of M.  For μ ≥ 1 let u = M^(μ−1)·v and
  w = (f/X)(M)·v ≠ 0 (f is least).  One period on, u's twin is
  u − g(0)^(−1)·w: X^(μ−1)·(X^P − 1) = (f/X)·h with h = (X^P − 1)/g,
  and (f/X)(M)·M^i·v = M^(i−1)·f(M)·v = 0 for i ≥ 1, so of h(M) only
  h(0) = −g(0)^(−1) survives.  Slots are linear on shifted vectors, so
  the states (u, 0) and (twin, 0), at (μ − 1)·len and one period on,
  agree after r slots iff their product M_r has M_r·w = 0, whatever u
  and the factor; M·w = f(M)·v = 0 gives r ≤ len.  So the tail is
  (μ − 1)·len + r for the least such r ≥ 1, found by stepping w,
  unshifted, to the zero, or 0 when μ = 0.

_tail_period returns the exact (tail, P·len) that composite_period,
prng_cycle_length and the uniformity_stats fold read; nothing here walks
an orbit.  The order of X is _x_order: for deg g ≤ 2, X is a unit of
F_p or of R = F_p[w]/(w² − L w − Q), and plane.unit_order gives it; for
a cubic, field.order runs on _x_pow_is_one, an unrolled kernel.  The
generic list kernel is the tests' oracle, as is the Brent walk
find_cycle, kept here under its name in the benchmark's trace plan.
field.prime_factors' Pollard rho factors p² + p + 1, keeping this fast
up to p = 2^31 − 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple

from .field import PrimeModulus, order, order_primes, prime_factors
from .magma import (Params, Vector, _require_shared, left_mul_stepper, params,
                    require_dim3, right_mul_stepper, vector)
from .plane import unit_order

SIDES = ("right", "left")


def _ints(value, what: str) -> list[int]:
    """A JSON config entry that must be a list of integers."""
    if not (isinstance(value, list) and all(type(v) is int for v in value)):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return value


@dataclass(frozen=True)
class PrngConfig:
    params: Params
    seeds: tuple[Vector, ...]
    pattern: tuple[int, ...]
    initial: Vector
    side: str = "right"   # "right": current * seed, "left": seed * current

    def __post_init__(self):
        require_dim3(self.params, "the PRNG needs")
        if not self.seeds:
            raise ValueError("at least one seed vector is required")
        if not self.pattern:
            raise ValueError("pattern must be non-empty")
        for i in self.pattern:
            if not (0 <= i < len(self.seeds)):
                raise ValueError(f"pattern index {i} out of range for "
                                 f"{len(self.seeds)} seeds")
        for v in (*self.seeds, self.initial):
            _require_shared(v, v, self.params)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")

    @property
    def modulus(self) -> PrimeModulus:
        return self.params.modulus

    @property
    def state_space(self) -> int:
        return self.modulus.p ** 3 * len(self.pattern)

    def to_dict(self) -> dict:
        d = {
            "p": self.modulus.p,
            "params": list(self.params.coefficients),
            "seeds": [list(s.components) for s in self.seeds],
            "pattern": list(self.pattern),
            "initial": list(self.initial.components),
        }
        if self.side != "right":
            d["side"] = self.side
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PrngConfig":
        if not isinstance(d, dict):
            raise ValueError("a PRNG config must be a JSON object")
        required = {"p", "params", "seeds", "pattern", "initial"}
        allowed = required | {"side"}
        unknown = set(d) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = required - set(d)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        if type(d["p"]) is not int or not isinstance(d["seeds"], list):
            raise ValueError("p must be an integer and seeds a list of vectors")
        m = PrimeModulus(d["p"])
        return cls(params(_ints(d["params"], "params"), m),
                   tuple(vector(_ints(s, "a seed"), m) for s in d["seeds"]),
                   tuple(_ints(d["pattern"], "pattern")),
                   vector(_ints(d["initial"], "initial"), m),
                   d.get("side", "right"))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PrngConfig":
        return cls.from_dict(json.loads(text))


class CycleResult(NamedTuple):
    tail: int | None
    period: int | None
    exceeded_cap: bool


def _slot_steppers(config: PrngConfig):
    make = right_mul_stepper if config.side == "right" else left_mul_stepper
    return [make(config.seeds[i], config.params) for i in config.pattern]


def iter_outputs(config: PrngConfig, count: int) -> Iterator[tuple[int, int, int]]:
    """Raw component tuples of the first `count` outputs."""
    if count < 0:
        raise ValueError(f"output count must be non-negative, got {count}")
    return _outputs(_slot_steppers(config), config.initial.components, count)


def _outputs(steppers, cur, count: int) -> Iterator[tuple[int, int, int]]:
    length = len(steppers)
    pos = 0
    for _ in range(count):
        cur = steppers[pos](cur)
        pos += 1
        if pos == length:
            pos = 0
        yield cur


def pass_matrix(config: PrngConfig) -> list[list[int]]:
    """The matrix M of one full pattern pass on the shifted vector
    (x0 + 1, x1, x2), where the pass is linear (module docstring).

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


def _annihilator(M, v, p: int) -> list[int]:
    """The monic f of least degree with f(M)·v = 0, low coefficient first.

    Eliminates the Krylov vectors v, Mv, M²v, ... mod p, each kept with
    the polynomial in M that produced it, until one reduces to zero.
    """
    rows = []                            # (pivot, row, poly), row[pivot] = 1
    w, k = v, 0
    while True:                          # at most len(v) + 1 vectors
        r, poly = list(w), [0] * k + [1]
        for pivot, row, prow in rows:
            c = r[pivot]
            if c:
                r = [(x - c * y) % p for x, y in zip(r, row)]
                for i, y in enumerate(prow):
                    poly[i] = (poly[i] - c * y) % p
        pivot = next((i for i, x in enumerate(r) if x), None)
        if pivot is None:
            return poly
        inv = pow(r[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in r],
                     [x * inv % p for x in poly]))
        w = [sum(m * x for m, x in zip(row, w)) % p for row in M]
        k += 1


def _x_order(g: list[int], p: int) -> int:
    """The order of X modulo the monic g (low coefficient first, degree
    1 to 3, g(0) ≠ 0): of the unit −g0 of F_p, of the unit w of R with
    L = −g1 and Q = −g0 (both plane.unit_order), or, for a cubic, of X
    by field.order on the kernel _x_pow_is_one; the cubic's bound n
    needs p odd, as PrimeModulus makes it."""
    if len(g) == 2:                      # X ≡ −g0
        return unit_order(-g[0] % p, 0, 0, 0, p)
    if len(g) == 3:                      # X² ≡ −g1·X − g0
        return unit_order(0, 1, -g[1] % p, -g[0] % p, p)
    n = p * (p - 1) * (p + 1) * (p * p + p + 1)
    primes = order_primes(p) | prime_factors(p * p + p + 1)
    return order(n, primes, lambda k: _x_pow_is_one(k, g, p))


def _x_pow_is_one(k: int, g: list[int], p: int) -> bool:
    """Whether X^k ≡ 1 modulo the monic cubic g (low coefficient first),
    on a + bX + cX² with X³ = c0 + c1·X + c2·X²."""
    c0, c1, c2 = -g[0] % p, -g[1] % p, -g[2] % p
    a, b, c = 1, 0, 0
    for bit in bin(k)[2:]:
        # (a + bX + cX²)²: fold c²X⁴ = c²X·X³, then the X³ term
        e4 = c * c % p
        e3 = (2 * b * c + e4 * c2) % p
        a, b, c = ((a * a + e3 * c0) % p, (2 * a * b + e4 * c0 + e3 * c1) % p,
                   (b * b + 2 * a * c + e4 * c1 + e3 * c2) % p)
        if bit == "1":                   # times X
            a, b, c = c * c0 % p, (a + c * c1) % p, (b + c * c2) % p
    return a == 1 and b == 0 and c == 0


def _tail_period(config: PrngConfig) -> tuple[int, int]:
    """Exact (tail, period) of the composite state (vector, position),
    from the annihilator f = X^μ·g of v under M (module docstring)."""
    p = config.modulus.p
    length = len(config.pattern)
    x0, x1, x2 = config.initial.components
    M, v = pass_matrix(config), [(x0 + 1) % p, x1, x2]
    f = _annihilator(M, v, p)
    mu = next(i for i, c in enumerate(f) if c)
    g = f[mu:]
    period = _x_order(g, p) if len(g) > 1 else 1   # g = 1: ends at the zero
    if mu == 0:
        return 0, period * length
    w = [0, 0, 0]                        # (f/X)(M)·v by Horner
    for c in reversed(f[1:]):
        w = [(sum(m * x for m, x in zip(row, w)) + c * y) % p
             for row, y in zip(M, v)]
    # the tail ends at the first slot that sends w, unshifted, to the zero
    outs = _outputs(_slot_steppers(config), ((w[0] - 1) % p, w[1], w[2]), length)
    r = next(i for i, x in enumerate(outs, 1) if x == (p - 1, 0, 0))
    return (mu - 1) * length + r, period * length


def composite_period(config: PrngConfig) -> int:
    """Exact composite-state period: the pattern length times the pass
    period of the initial vector."""
    return _tail_period(config)[1]


def find_cycle(step, start):
    """Return (tail, period) of start, step(start), step(step(start)), ...

    Brent's algorithm: O(tail + period) steps, O(1) states kept.  States
    must be plain values compared with ==; the step function is pure.
    Only the tests call it, as their walk oracle; it stays here because
    the benchmark's trace plan wraps prng.find_cycle.
    """
    power = lam = 1
    tortoise = start
    hare = step(start)
    while tortoise != hare:
        if power == lam:
            tortoise = hare
            power *= 2
            lam = 0
        hare = step(hare)
        lam += 1

    # period known; locate the tail by walking two cursors lam apart
    hare = start
    for _ in range(lam):
        hare = step(hare)
    mu = 0
    tortoise = start
    while tortoise != hare:
        tortoise = step(tortoise)
        hare = step(hare)
        mu += 1
    return mu, lam


def prng_cycle_length(config: PrngConfig, cap: int | None = None) -> CycleResult:
    """Exact tail and period of the composite state (vector, position),
    or exceeded_cap when tail + period exceeds cap (None: no bound)."""
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    tail, period = _tail_period(config)
    if cap is not None and tail + period > cap:
        return CycleResult(None, None, True)
    return CycleResult(tail, period, False)


# ---------------------------------------------------------------------------
# measurement and search

@dataclass
class UniformityReport:
    p: int
    samples: int
    counts: list[list[int]]          # per component, counts over Z_p
    max_relative_deviation: float
    chi_square: list[float]          # per component, df = p - 1

    @classmethod
    def from_counts(cls, p: int, samples: int,
                    counts: list[list[int]]) -> "UniformityReport":
        expected = samples / p
        max_rel = max(abs(c - expected) for comp in counts for c in comp) / expected
        chi = [sum((c - expected) ** 2 for c in comp) / expected
               for comp in counts]
        return cls(p, samples, counts, max_rel, chi)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "samples": self.samples,
            "max_relative_deviation": self.max_relative_deviation,
            "chi_square": self.chi_square,
            "counts": self.counts,
        }


def _tally(counts, outputs, weight: int) -> None:
    c0, c1, c2 = counts
    for x0, x1, x2 in outputs:
        c0[x0] += weight
        c1[x1] += weight
        c2[x2] += weight


def uniformity_stats(config: PrngConfig, samples: int) -> UniformityReport:
    """Per-component counts of the first `samples` outputs over Z_p.

    Whole periods fold into a count multiplier: output k is composite
    state k + 1, so with the composite tail head and period n, output
    k + n equals output k for every k ≥ head.  So at most head + n
    outputs, one tail and one period, are stepped whatever `samples` is,
    and the counts are those of stepping every output: the tail is
    tallied once, the first `extra` period outputs reps + 1 times and
    the rest reps times, and a tally that runs out of outputs (samples
    below head + n) takes only what is left.

    Over a maximal period, (p³ − 1)·len, each position visits every
    vector but (p − 1, 0, 0) once: counts len·p², less len at x0 = p − 1,
    x1 = 0 and x2 = 0, and chi-square len/(p² + p + 1) by construction,
    so it is no evidence of randomness.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p = config.modulus.p
    counts = [[0] * p for _ in range(3)]
    head, n = _tail_period(config)
    reps, extra = divmod(samples - head, n)
    outputs = iter_outputs(config, min(samples, head + n))
    _tally(counts, islice(outputs, head), 1)
    _tally(counts, islice(outputs, extra), reps + 1)
    _tally(counts, outputs, reps)
    return UniformityReport.from_counts(p, samples, counts)


class SearchHit(NamedTuple):
    period: int
    config: PrngConfig


def _sort_key(hit: SearchHit):
    return (-hit.period,
            tuple(s.components for s in hit.config.seeds),
            hit.config.initial.components)


def seed_search(ps: Params, pattern, trials: int, *, rng_seed: int = 0,
                side: str = "right", keep: int = 10) -> list[SearchHit]:
    """Sample seed tuples and rank them by composite period.

    Alternates structured candidates (first component 0, small second
    component, scanning third) with uniform random ones; deterministic
    for a given rng_seed.  Returns the `keep` best hits, longest period
    first, ties broken by seed then initial components.
    """
    p = ps.modulus.p
    m = ps.modulus
    pattern = tuple(pattern)
    if not pattern:
        raise ValueError("pattern must be non-empty")
    if min(pattern) < 0:
        raise ValueError(f"pattern index {min(pattern)} must be non-negative")
    nseeds = max(pattern) + 1
    require_dim3(ps, "the PRNG needs")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    rng = random.Random(rng_seed)

    def random_vec():
        return Vector((rng.randrange(p), rng.randrange(p), rng.randrange(p)), m)

    def structured_vec(k):
        return Vector((0, 1 + (k % 2), rng.randrange(p)), m)

    hits: list[SearchHit] = []
    for trial in range(trials):
        if trial % 2 == 0:
            seeds = tuple(structured_vec(k) for k in range(nseeds))
        else:
            seeds = tuple(random_vec() for _ in range(nseeds))
        initial = random_vec()
        config = PrngConfig(ps, seeds, pattern, initial, side)
        period = composite_period(config)
        hits.append(SearchHit(period, config))
    hits.sort(key=_sort_key)
    return hits[:keep]


# ---------------------------------------------------------------------------
# unbiased byte extraction

def byte_stream(config: PrngConfig, nbytes: int) -> bytes:
    """Extract `nbytes` unbiased bytes from the output stream.

    Per component, values below 2^k (k = bit_length(p) - 1) are accepted
    and contribute k bits; larger values are rejected.  Power-of-two
    rejection avoids modulo bias for any p.
    """
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
