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
order, not a walk.  M itself is never built: M^k·v is the shifted state
after k passes, so the Krylov vectors v, Mv, M²v, … are read off the
stream (_pass_states); the tests probe M column by column as their
oracle (conftest.pass_matrix).  Let f, of degree at most 3, be the monic
annihilator of v (the least-degree f with f(M)·v = 0), and write
f = X^μ·g with g(0) ≠ 0.

* M^(m+n)·v = M^m·v iff f | X^m·(X^n − 1), iff m ≥ μ and g | X^n − 1,
  as X does not divide X^n − 1.  So the pass tail is μ and the pass
  period P is the order of X in (F_p[X]/g)^*, or 1 when g = 1: then
  M^μ·v = 0, and the orbit ends at the absorbing zero (p − 1, 0, 0).
* For a cubic g = X³ + aX² + bX + c, the discriminant
  D = a²b² − 4b³ − 4a³c − 27c² + 18abc mod p fixes g's factor shape,
  and so a bound n that the order divides; for odd p, as PrimeModulus
  makes it, Stickelberger's theorem (Swan 1962) says that a squarefree
  g has D a square iff 3 minus its number of irreducible factors is even.
  - D = 0: a repeated root r, in F_p (a repeated factor of degree 2
    would not fit), of multiplicity e ≤ 3 ≤ p.  X^(p−1) is 1 modulo any
    other root's factor, and 1 plus a nilpotent modulo (X − r)^e, whose
    p-th power is 1, so n = p(p − 1).
  - D a nonzero square: g is squarefree with 1 or 3 factors, an
    irreducible cubic or three roots, so n = p³ − 1.
  - D a non-square: g is a root times an irreducible quadratic, so
    n = p² − 1.
* So a pass period is at most p³ − 1, reached exactly when g is a
  primitive cubic.  An irreducible cubic that is not primitive gives a
  proper divisor of p³ − 1, and any other g at most p² − 1.  The
  composite maximum is (p³ − 1)·pattern_length, and the "max_period" of
  p³·pattern_length that `mlmagma prng search` prints can never be
  reached; it stays so that its stdout does not change.
* A maximal period certifies balance, the m-sequence property (Golomb
  1967).  With f = g a primitive cubic, v, Mv, M²v are a basis, M^i·v
  ↔ X^i in F_p[X]/g = F_{p³}, and the X^i, i < p³ − 1, are its nonzero
  elements once each: over one period the passes visit every nonzero
  shifted vector once.  M is then invertible, so is the product of any
  leading slots, and so every pattern position visits every vector but
  the zero z = (p − 1, 0, 0) once.  The tail is 0, and the whole-period
  counts of component c are len·(p² − [x = z_c]) for every x.
* Jump-ahead: f(M)·v = 0, so M^q·v = a·v + b·Mv + c·M²v for
  X^q ≡ a + bX + cX² modulo a cubic f, and _x_pow finds (a, b, c) in
  O(log q) steps; v, Mv, M²v are the pass states already read.
  uniformity_stats jumps so on a maximal period, and steps at most half
  of one.
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
  unshifted, to the zero, or 0 when μ = 0.  w is a combination of the
  Krylov vectors v … M^(deg f − 1)·v, as is a jump (_combine).

_pass_orbit reads deg f + 1 pass states, so steps at most 3·len slots
(a tail takes at most len more), and returns f, that Krylov basis and
the exact (tail, P·len) that composite_period, prng_cycle_length,
uniformity_stats and _jump read; nothing here walks an orbit.  The
order of X is _x_order: for deg g ≤ 2, X is a unit of F_p or of
R = F_p[w]/(w² − L w − Q), and Plane.unit_order gives it; for a cubic,
field.order runs on _x_pow_is_one, on the unrolled kernel _x_pow that
the jump uses too, below the discriminant's bound.  The generic list
kernel is the tests' oracle, as is find_cycle, the walk that numbers
each state until one repeats, kept here under its name in the
benchmark's trace plan.
field.prime_factors' Pollard rho factors p² + p + 1, keeping this fast
up to p = 2^31 − 1.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import reduce
from itertools import cycle, islice
from operator import add
from typing import Iterator, NamedTuple

from .field import PrimeModulus, order, prime_factors
from .magma import (Params, Vector, _require_shared, identity, left_mul_stepper,
                    params, require_dim3, right_mul_stepper, vector)
from .plane import Plane

SIDES = ("right", "left")
# uniformity_stats keeps 3·p counters: 24 MiB at this bound
UNIFORMITY_MAX_P = 1 << 20


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
            if type(i) is not int or not 0 <= i < len(self.seeds):
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
    if type(count) is not int or count < 0:
        raise ValueError(f"output count must be non-negative, got {count}")
    return _outputs(_slot_steppers(config), config.initial.components, count)


def _outputs(steppers, cur, count: int) -> Iterator[tuple[int, int, int]]:
    for step in islice(cycle(steppers), count):
        cur = step(cur)
        yield cur


def _pass_states(steppers, cur, p: int):
    """The shifted states S(x) after 0, 1, 2, ... passes from x = cur:
    the Krylov vectors v, Mv, M²v, ... (module docstring), each pass
    stepped only when the next state is asked for."""
    while True:
        yield (cur[0] + 1) % p, cur[1], cur[2]
        for step in steppers:
            cur = step(cur)


def _annihilator(states, p: int) -> tuple[list[int], list]:
    """(f, basis): the monic f of least degree with f(M)·v = 0, low
    coefficient first, and the Krylov basis v … M^(deg f − 1)·v.

    Eliminates the augmented rows [M^k·v | X^k] mod p, k = 0, 1, 2, ...,
    pivoting in the state block only: a row's polynomial block is the
    combination of X^0 … X^k that its state block is of the Krylov
    vectors.  So the first row whose state block reduces to zero holds
    f in its polynomial block, after deg f + 1 states.
    """
    rows, basis = [], []                 # (pivot, row), row[pivot] = 1
    for k, w in enumerate(states):       # at most len(v) + 1 states
        n = len(w)
        r = [*w, *[0] * k, 1, *[0] * (n - k)]
        for pivot, row in rows:
            if c := r[pivot]:
                r = [(x - c * y) % p for x, y in zip(r, row)]
        for pivot in range(n):
            if r[pivot]:
                break
        else:                            # the state block is zero
            return r[n:n + k + 1], basis
        basis.append(w)
        inv = pow(r[pivot], -1, p)
        rows.append((pivot, [x * inv % p for x in r]))


def _combine(coefs, vectors, p: int) -> list[int]:
    """Σ cᵢ·vectorsᵢ mod p."""
    return [sum(c * x for c, x in zip(coefs, col)) % p
            for col in zip(*vectors)]


def _x_order(g: list[int], p: int) -> int:
    """The order of X modulo the monic g (low coefficient first, degree
    1 to 3, g(0) ≠ 0): of the unit −g0 of F_p, of the unit w of R with
    L = −g1 and Q = −g0 (both Plane.unit_order), or, for a cubic, of X
    by field.order on the kernel _x_pow_is_one, below the bound that
    the discriminant D of g fixes: (p − 1)·m with m = p, p² + p + 1 or
    p + 1 as D is 0, a nonzero square or a non-square (module
    docstring); Stickelberger's rule needs p odd, as PrimeModulus
    makes it."""
    if len(g) == 2:                      # X ≡ −g0
        return Plane(0, 0, p).unit_order(-g[0] % p, 0)
    if len(g) == 3:                      # X² ≡ −g1·X − g0
        return Plane(-g[1] % p, -g[0] % p, p).unit_order(0, 1)
    c, b, a = g[:3]
    disc = (a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c
            + 18 * a * b * c) % p
    if disc == 0:                        # a repeated root, in F_p
        m, primes = p, {p}
    else:                                # 0 or 3 roots, or 1 root
        m = p * p + p + 1 if pow(disc, (p - 1) // 2, p) == 1 else p + 1
        primes = prime_factors(m)
    return order((p - 1) * m, prime_factors(p - 1) | primes,
                 lambda k: _x_pow_is_one(k, g, p))


def _x_pow_is_one(k: int, g: list[int], p: int) -> bool:
    """Whether X^k ≡ 1 modulo the monic cubic g (low coefficient first)."""
    return _x_pow(k, g, p) == (1, 0, 0)


def _x_pow(k: int, g: list[int], p: int) -> tuple[int, int, int]:
    """X^k modulo the monic cubic g (low coefficient first) as (a, b, c),
    a + bX + cX², with X³ = c0 + c1·X + c2·X²."""
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
    return a, b, c


class _PassOrbit(NamedTuple):
    f: list[int]                         # annihilator of v, low first
    basis: list                          # v … M^(deg f − 1)·v
    tail: int                            # composite
    period: int                          # composite


def _pass_orbit(config: PrngConfig) -> _PassOrbit:
    """The pass analysis of config: the annihilator f = X^μ·g of v, its
    Krylov basis read off the pass states, and the exact composite
    (tail, period) from them (module docstring)."""
    p = config.modulus.p
    length = len(config.pattern)
    steppers = _slot_steppers(config)
    f, basis = _annihilator(
        _pass_states(steppers, config.initial.components, p), p)
    mu = next(i for i, c in enumerate(f) if c)
    g = f[mu:]
    period = (_x_order(g, p) if len(g) > 1 else 1) * length  # g = 1: the zero
    if mu == 0:
        return _PassOrbit(f, basis, 0, period)
    w = _combine(f[1:], basis, p)        # (f/X)(M)·v
    # the tail ends at the first slot that sends w, unshifted, to the zero
    outs = _outputs(steppers, ((w[0] - 1) % p, w[1], w[2]), length)
    r = next(i for i, x in enumerate(outs, 1) if x == (p - 1, 0, 0))
    return _PassOrbit(f, basis, (mu - 1) * length + r, period)


def composite_period(config: PrngConfig) -> int:
    """Exact composite-state period: the pattern length times the pass
    period of the initial vector."""
    return _pass_orbit(config).period


def find_cycle(step, start):
    """Return (tail, period) of start, step(start), step(step(start)), ...

    Numbers each state by its first visit until one repeats: the repeated
    state's number is the tail, and the count of states numbered from it
    on is the period (Knuth, TAOCP vol. 2, §3.1).  O(tail + period)
    steps, and as many states kept; states must be hashable, and the
    step function is pure.  Only the tests call it, as their walk oracle;
    it stays here because the benchmark's trace plan wraps
    prng.find_cycle.
    """
    seen = {}
    while start not in seen:
        seen[start] = len(seen)
        start = step(start)
    return seen[start], len(seen) - seen[start]


def prng_cycle_length(config: PrngConfig, cap: int | None = None) -> CycleResult:
    """Exact tail and period of the composite state (vector, position),
    or exceeded_cap when tail + period exceeds cap (None: no bound)."""
    if cap is not None and (type(cap) is not int or cap < 1):
        raise ValueError(f"cap must be at least 1, got {cap}")
    _, _, tail, period = _pass_orbit(config)
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
        # left to right: sum() compensates floats since Python 3.12,
        # which moves the last digit of the pinned statistics
        chi = [reduce(add, ((c - expected) ** 2 for c in comp), 0) / expected
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

    A maximal period, n = (p³ − 1)·len, certifies more: the tail is 0,
    f = g is a primitive cubic, and over one period each position visits
    every vector but z = (p − 1, 0, 0) once.  So the whole-period counts
    are len·(p² − [x = z_c]) in closed form, and chi-square is
    len/(p² + p + 1) by construction, no evidence of randomness.  Of the
    `extra` = samples mod n outputs left, the first are tallied forward
    if extra ≤ n/2; otherwise one more whole period is counted and the
    outputs [extra, n) subtracted, stepped from a jump to pass
    q = extra // len (_jump).  So at most n/2 + len outputs are stepped.

    p is at most UNIFORMITY_MAX_P, checked before the 3·p counters exist.
    """
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    p = config.modulus.p
    if p > UNIFORMITY_MAX_P:
        raise ValueError(f"uniformity_stats keeps a counter per residue, so "
                         f"p must be at most {UNIFORMITY_MAX_P}, got {p}")
    orbit = _pass_orbit(config)
    head, n = orbit.tail, orbit.period
    length = len(config.pattern)
    if n == (p**3 - 1) * length:         # head is 0
        reps, extra = divmod(samples, n)
        if 2 * extra <= n:
            weight, outputs = 1, iter_outputs(config, extra)
        else:                            # one more period, less [extra, n)
            reps, weight = reps + 1, -1
            q, r = divmod(extra, length)
            outputs = islice(iter_outputs(_jump(config, orbit, q),
                                          n - q * length), r, None)
        counts = [[reps * length * (p * p - (x == z)) for x in range(p)]
                  for z in (p - 1, 0, 0)]
        _tally(counts, outputs, weight)
        return UniformityReport.from_counts(p, samples, counts)
    counts = [[0] * p for _ in range(3)]
    reps, extra = divmod(samples - head, n)
    outputs = iter_outputs(config, min(samples, head + n))
    _tally(counts, islice(outputs, head), 1)
    _tally(counts, islice(outputs, extra), reps + 1)
    _tally(counts, outputs, reps)
    return UniformityReport.from_counts(p, samples, counts)


def _jump(config: PrngConfig, orbit: _PassOrbit, q: int) -> PrngConfig:
    """The config whose outputs are config's from output q·len on: its
    initial vector is M^q·v, unshifted.  For a cubic annihilator f,
    M^q·v = a·v + b·Mv + c·M²v with X^q ≡ a + bX + cX² modulo f, as
    f(M)·v = 0, and v, Mv, M²v are the orbit's basis, the pass states."""
    p = config.modulus.p
    u = _combine(_x_pow(q, orbit.f, p), orbit.basis, p)
    return replace(config, initial=vector(((u[0] - 1) % p, u[1], u[2]),
                                          config.modulus))


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

    Alternates structured candidates (seeds with first component 0,
    second component 1 or 2 as the seed index is even or odd, and a
    uniform random third) with uniform random ones, each with a uniform
    random initial vector; deterministic for a given rng_seed.  Returns
    the `keep` best hits, longest period first, ties broken by seed then
    initial components.
    """
    p = ps.modulus.p
    m = ps.modulus
    pattern = tuple(pattern)
    for i in pattern:
        if type(i) is not int or i < 0:
            raise ValueError(f"pattern index {i!r} must be non-negative and an int")
    nseeds = max(pattern, default=0) + 1
    e = identity(3, m)
    PrngConfig(ps, (e,) * nseeds, pattern, e, side)    # its checks, before a draw
    if type(trials) is not int or trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if type(keep) is not int or keep < 0:
        raise ValueError(f"keep must be non-negative, got {keep}")
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
    rejection avoids modulo bias for any p.  The bits are the accepted
    values' concatenated, most significant first: eight values make k
    whole bytes, packed at once.  Once the values hold the wanted bits,
    zeros fill their last group of eight, and the bytes past nbytes are
    cut.  Outputs are stepped in chunks no larger than the bytes still
    wanted can use, and a stream whose 64·nbytes + 1024 outputs run out
    first is refused as degenerate.
    """
    if type(nbytes) is not int or nbytes < 0:
        raise ValueError(f"byte count must be non-negative, got {nbytes}")
    k = config.modulus.p.bit_length() - 1
    threshold = 1 << k
    out = bytearray()
    vals: list[int] = []                 # under 8 between chunks
    outputs = iter_outputs(config, 64 * nbytes + 1024)
    while (need := 8 * (nbytes - len(out)) - k * len(vals)) > 0:
        # an output gives at most 3k bits: never step past the need
        chunk = list(islice(outputs, min(1024, -(-need // (3 * k)))))
        if not chunk:
            raise RuntimeError("stream too degenerate to extract the requested bytes")
        vals += [v for comps in chunk for v in comps if v < threshold]
        if k * len(vals) >= 8 * (nbytes - len(out)):
            vals += [0] * (-len(vals) % 8)
        it = iter(vals)                  # zip stops at the last whole 8
        for a, b, c, d, e, f, g, h in zip(it, it, it, it, it, it, it, it):
            out += ((((((((a << k | b) << k | c) << k | d) << k | e) << k | f)
                     << k | g) << k | h).to_bytes(k, "big"))
        del vals[:len(vals) - len(vals) % 8]
    return bytes(out[:nbytes])
