"""Orbit and cycle census of left-associative power sequences.

For a start vector a the trajectory is a, a*a, (a*a)*a, ... i.e. the
successor map y -> y * a.  `orbit_length` classifies one start of Z_p^3
or Z_p^4 into (tail, period, lexicographically minimal cycle state); a
census aggregates every start of Z_p^3.

The classification is an element order, not a walk.  a^n = (s_n − 1,
t_n·a') with s_n + t_n w = α^n in R = F_p[w]/(w² − L w − Q) (magma,
plane), where α = s0 + w and s0 = a0 + 1.  On the scalar line a' = 0
the state is s0^n − 1 alone, so there α = s0 (and L = Q = 0); either
way the state determines α^n.  α has norm N = s0² + s0·L − Q and trace
T = 2·s0 + L, and α² = T·α − N (Cayley–Hamilton).

* Unit, N ≠ 0: α lies in the finite group R^*, so the orbit has no
  tail, its period is ord(α), plane.unit_order, and the cycle passes
  through α^ord = 1, the identity (0, ..., 0), its smallest state.
* N = 0: α² = T·α, so α^n = T^(n−1)·α.  T = 0 makes α nilpotent: the
  zero scalar (p − 1, 0, ..., 0) stays (tail 0, period 1); with a' ≠ 0,
  a, then (−1, 0, ..., 0) for ever (tail 1, period 1).  Otherwise a' ≠ 0,
  the orbit has no tail, the period is k = ord_p(T), and the cycle is
  {(c·s0 − 1, c·a') : c ∈ <T>}.  Its smallest state has the smallest
  c·x, where x is s0 if s0 ≠ 0 and otherwise the first nonzero
  component of a' (every state then starts with −1).  So it is the
  smallest element y of the coset x·<T> of F_p^*, which is the first
  y with y^k = x^k.  When k² ≤ p − 1 it is found by listing <T>, in
  k ≤ √p steps; otherwise by trying y = 1, 2, ..., which meets the
  coset after about its index (p − 1)/k < √p powers.

"Proportion of orbits" is ambiguous, so three measures are reported:

* element-weighted: each of the p^3 starts counted once by its period;
* cycle-weighted: distinct (cycle minimum, period) pairs counted once.
  Cycles with the same minimum and period count once, so every unit
  cycle of one period is one key: it contains the identity (0,0,0),
  the lexicographically smallest state.  At p=23 (9,19,1,1,2), 3680
  starts have period 528 but cycle_periods[528] == 1;
* first-visit walks: starts are enumerated lexicographically, a start
  launches a walk only if no earlier trajectory already visited it, and
  each launched walk is counted once by its period.  This is the
  partition-style bookkeeping in which each state belongs to exactly
  one counted orbit.

Power orbits of different starts may overlap, so none of the measures
assumes cycles partition the space.

The census works plane by plane, without walking.  A start with a' ≠ 0
lies in the plane of the direction d of a', normalised to (0, 1) or
(1, y): (a0, t·d) is s + t·w in R_d = F_p[w]/(w² − L w − Q), with
s = a0 + 1, (L, Q) those of d and t ≠ 0.  Its powers stay in the plane,
where lex order is that of the pairs (a0, t).  The p scalars (a' = 0)
lie in every plane.  plane.kind gives the type of R_d: a field, split
or dual (plane).  With n = p − 1 and φ Euler's function:

* Elements and tails, over the p² − p non-scalar elements of a plane.
  Field: all are units, φ(k) of period k for each k | p² − 1, k ∤ n
  (orders dividing n belong to F_p^*).  Dual: c + t·ε with c ≠ 0 has
  period p·ord(c), so φ(j)·n have period p·j; the n nilpotents t·ε have
  tail 1 and period 1.  Split: a unit (u, v), u ≠ v, has period
  lcm(ord u, ord v), so Σ_{lcm(i,j)=k} φ(i)φ(j) − φ(k) have period k;
  each axis u = 0, v = 0 holds φ(j) elements of period j (N = 0 ≠ T).
  The scalars add φ(j) of period j | n and the zero scalar one of 1.
* Cycles.  Every unit cycle holds the identity, so each distinct unit
  period is one key.  The zero scalar and the nilpotents share the key
  ((p − 1, 0, 0), 1).  Each axis of each split plane holds one cycle
  {x^j = 1} per j | n, the orbit of its elements of order j.
* Walks.  An orbit that holds a start holds that start's orbit, so
  the lex-least start whose orbit holds β launches, and β launches iff
  no lex-smaller start's orbit holds it.  A non-scalar orbit stays in
  its plane and the scalars, and a unit's orbit is the group <α>.
  - Field and dual planes: R_d^* is cyclic, of order p² − 1 or p·n, so
    β ∈ <α> iff ord β | ord α.  The lex pass over the units launches
    each order that divides no earlier launch's, and ends at the first
    generator.
  - Split planes: (log u, log v) maps the units onto (Z/n)², whose cyclic
    subgroups have ids from a per-p table.  Launching α marks the ids of
    every subgroup of <α>; β launches iff <β>'s id is unmarked.  Every
    cyclic subgroup lies in one of order n (prime by prime: in
    (Z/q^e)², x = q^f·y with y of order q^e), so the pass ends when all
    of those are marked.  The scalar diagonal is one that no non-scalar
    start generates; it starts marked, or the pass would never end
    early.  When L = 0, the subgroups of order n whose generators have
    v = −u keep all their non-scalar elements on the line 2s + t·L = 0,
    the last row s = 0: once every other subgroup of order n is marked,
    the pass jumps to that row.
  - An axis is cyclic (the orbit of α is <T>·α), passed like a field
    plane; each nilpotent's orbit {β, 0} holds no other start.
  - Scalars: c ≠ 0 of order j lies in the orbit of α iff j divides the
    order of its scalars <α> ∩ F_p^*: gcd(ord α, n) in field and dual
    planes, ord α / ord(u/v) in split ones, ord α for a scalar.  So c
    launches iff its lex index precedes the first such launch.  The zero
    scalar lies only in its own and the nilpotents' orbits.
  - One pass per class (L, Q).  For d = (0, 1) or (1, y) the start
    (x0, t·d) has lex index x0·p² + offset[t], where offset[t] =
    (t·d0 mod p)·p + t·d1 mod p is t or t·p + (t·y mod p), strictly
    increasing in t < p; so the index is strictly increasing in (x0, t).
    The pass reads only L, Q and p, so its launches in (x0, t) are a
    function of (L, Q, p), and so are the two things the census keeps:
    each launch's period, and per scalar order the first (x0, t), whose
    lex index is the first one.  The pass writes (x0, t) as its plane
    index x0·p + t, which orders them the same way.  L_d = λ·d does not
    depend on (A, B), and Q_d = A·d0² + C·d0·d1 + B·d1² takes each value
    for p of the p² pairs (A, B); so a sweep over (A, B) with (C, D, E)
    fixed meets at most p² classes in its p²(p + 1) planes.  The last
    4096 classes passed are kept, so a sweep at p ≤ 61 passes each class
    once.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

from .field import divisors, totient
from .magma import Params, Vector, from_plane, identity, plane, require_dim3
from .plane import kind as plane_kind, unit_order

DEFAULT_FULL_SCAN_CAP = 127


class BudgetExceededError(RuntimeError):
    """Full scan refused: state space exceeds the configured budget."""


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    start: Vector
    tail: int
    period: int
    cycle_rep: Vector


def _coset_minimum(x: int, T: int, k: int, p: int) -> int:
    """The smallest element of x·<T> in F_p^*, where T has order k."""
    if k * k <= p - 1:
        best = c = x
        for _ in range(k - 1):
            c = c * T % p
            if c < best:
                best = c
        return best
    target = pow(x, k, p)
    return next(y for y in range(1, p) if pow(y, k, p) == target)


def orbit_length(a: Vector, ps: Params) -> OrbitRecord:
    """Classify one start: tail, period, lexicographically minimal cycle state.

    An order computation in a's plane R (module docstring): a few
    square-and-multiply powers per prime of the exponent of α's group
    (p² − 1, p − 1 or p(p − 1); p − 1 for ord_p(T)), plus a coset search
    of about √p steps at most when N = 0 ≠ T.  At p = 2³¹ − 1 that is
    ~0.2 ms per start, ~0.25 ms with the search, on one core of a
    2-vCPU x86-64 VM.
    """
    L, Q = plane(a, ps)   # rejects mixed dimensions and moduli
    p = a.modulus.p
    s0 = (a.components[0] + 1) % p
    t0 = int(any(a.components[1:]))   # α = s0 + t0·w
    if (s0 * s0 + s0 * L - Q) % p:
        period = unit_order(s0, t0, L, Q, p)
        return OrbitRecord(a, 0, period, identity(a.dim, a.modulus))
    T = (2 * s0 + L) % p
    if T == 0:                        # nilpotent: a tail only off the scalars
        return OrbitRecord(a, t0, 1, from_plane(a, 0, 0))
    period = unit_order(T, 0, L, Q, p)
    x = s0 or next(c for c in a.components[1:] if c)
    c = _coset_minimum(x, T, period, p) * pow(x, -1, p) % p
    return OrbitRecord(a, 0, period, from_plane(a, c * s0 % p, c))


MEASURES = ("cycle", "element", "walk")
# the period lengths each census reports on: p − 1, p² − 1 and their halves
SPECIAL_NAMES = ("n_minus_1", "n2_minus_1", "half_n_minus_1", "half_n2_minus_1")


@dataclass
class CensusReport:
    p: int
    params: tuple[int, int, int, int, int]
    total_starts: int
    start_periods: dict[int, int]   # period -> number of start elements
    cycle_periods: dict[int, int]   # period -> number of distinct cycles
    walk_periods: dict[int, int]    # period -> number of first-visit walks
    tail_lengths: dict[int, int]    # tail -> number of start elements
    total_cycles: int
    total_walks: int
    zero_tail_starts: int
    cycle_period_sum: int           # sum of periods over distinct cycles
    engine: str = "walk"
    # Seconds spent; far less when the plane passes are reused from an
    # earlier census (_plane_walks).
    elapsed: float = field(default=0.0, compare=False)

    @property
    def special_lengths(self) -> dict[str, int]:
        p = self.p
        lengths = (p - 1, p * p - 1, (p - 1) // 2, (p * p - 1) // 2)
        return dict(zip(SPECIAL_NAMES, lengths))

    def start_count(self, period: int) -> int:
        return self.start_periods.get(period, 0)

    def cycle_count(self, period: int) -> int:
        return self.cycle_periods.get(period, 0)

    def walk_count(self, period: int) -> int:
        return self.walk_periods.get(period, 0)

    def start_proportion(self, period: int) -> float:
        return self.start_count(period) / self.total_starts

    def cycle_proportion(self, period: int) -> float:
        return self.cycle_count(period) / self.total_cycles

    def walk_proportion(self, period: int) -> float:
        return self.walk_count(period) / self.total_walks

    def proportion(self, period: int, measure: str) -> float:
        if measure == "cycle":
            return self.cycle_proportion(period)
        if measure == "element":
            return self.start_proportion(period)
        if measure == "walk":
            return self.walk_proportion(period)
        raise ValueError(f"unknown measure {measure!r}")

    def to_dict(self) -> dict:
        special = {}
        for name, length in self.special_lengths.items():
            special[name] = {
                "length": length,
                "cycle_count": self.cycle_count(length),
                "cycle_proportion": self.cycle_proportion(length),
                "element_count": self.start_count(length),
                "element_proportion": self.start_proportion(length),
                "walk_count": self.walk_count(length),
                "walk_proportion": self.walk_proportion(length),
            }
        return {
            "p": self.p,
            "params": list(self.params),
            "total_starts": self.total_starts,
            "total_cycles": self.total_cycles,
            "total_walks": self.total_walks,
            "zero_tail_starts": self.zero_tail_starts,
            "cycle_period_sum": self.cycle_period_sum,
            "start_periods": {str(k): v for k, v in sorted(self.start_periods.items())},
            "cycle_periods": {str(k): v for k, v in sorted(self.cycle_periods.items())},
            "walk_periods": {str(k): v for k, v in sorted(self.walk_periods.items())},
            "tail_lengths": {str(k): v for k, v in sorted(self.tail_lengths.items())},
            "special_lengths": special,
            "engine": self.engine,
        }

    def csv_rows(self) -> list[dict]:
        sp = self.special_lengths
        rows = []
        periods = set(self.start_periods) | set(self.cycle_periods) | set(self.walk_periods)
        for period in sorted(periods):
            rows.append({
                "p": self.p,
                "A": self.params[0], "B": self.params[1], "C": self.params[2],
                "D": self.params[3], "E": self.params[4],
                "period": period,
                "cycle_count": self.cycle_count(period),
                "element_count": self.start_count(period),
                "walk_count": self.walk_count(period),
                **{f"is_{name}": int(period == length)
                   for name, length in sp.items()},
            })
        return rows


CSV_FIELDS = [
    "p", "A", "B", "C", "D", "E", "period",
    "cycle_count", "element_count", "walk_count",
    *(f"is_{name}" for name in SPECIAL_NAMES),
]


def write_census_csv(reports, path) -> None:
    if isinstance(reports, CensusReport):
        reports = [reports]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for report in reports:
            for row in report.csv_rows():
                writer.writerow(row)


def write_census_json(report, path) -> None:
    """Write report.to_dict() as indented, key-sorted JSON.

    Any result with to_dict() will do: a CensusReport or a SweepResult.
    """
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


@lru_cache(maxsize=8)
def _unit_logs(p: int):
    """Discrete logs of F_p^* and the cyclic subgroups of (Z/n)², n = p − 1.

    Returns (g, log, sub, sub_order): g is the smallest primitive root,
    log[x] the exponent of x to base g, sub[a·n + b] the id of the
    subgroup that (a, b) generates, and sub_order[i] the order of
    subgroup i.  Built once per p in O(p²): each new subgroup labels its
    generators k·(a, b), gcd(k, order) = 1.
    """
    n = p - 1
    g = next(g for g in range(2, p) if unit_order(g, 0, 0, 0, p) == n)
    log, x = [0] * p, 1
    for e in range(n):
        log[x] = e
        x = x * g % p
    sub, sub_order = [-1] * (n * n), []
    for a in range(n):
        for b in range(n):
            if sub[a * n + b] < 0:
                o = n // gcd(n, a, b)
                for k in range(1, o + 1):
                    if gcd(k, o) == 1:
                        sub[k * a % n * n + k * b % n] = len(sub_order)
                sub_order.append(o)
    return g, tuple(log), tuple(sub), tuple(sub_order)


@lru_cache(maxsize=8)
def _type_periods(p: int) -> dict[str, dict[int, int]]:
    """Period histogram of the non-scalar elements of one plane, per type."""
    n = p - 1
    dn = divisors(n)
    field = {k: totient(k) for k in divisors(p * p - 1) if n % k}
    dual = {p * j: totient(j) * n for j in dn} | {1: n}   # and the nilpotents
    split = Counter()
    for i in dn:
        for j in dn:
            split[i * j // gcd(i, j)] += totient(i) * totient(j)
    for k in dn:
        split[k] += totient(k)              # two axes, less the diagonal
    return {"field": field, "dual": dual, "split": dict(split)}


def _cyclic_launches(elements, top: int) -> list[tuple[int, int]]:
    """Launches of a lex pass over part of a cyclic group.

    elements yields (index, order) in lex order.  In a cyclic group
    <β> ⊆ <α> iff ord β | ord α, so an element launches iff its order
    divides no earlier launch's; an element of order top ends the pass.
    """
    launched = []
    for idx, o in elements:
        if all(m % o for _, m in launched):
            launched.append((idx, o))
            if o == top:
                break
    return launched


def _split_launches(r1: int, r2: int, L: int, p: int):
    """(plane index, order, scalar order) of each launched unit of a split
    plane.

    A unit s + t·w is (u, v) = (s + t·r1, s + t·r2), keyed by the id of
    <(log u, log v)> in (Z/n)².  Launching α marks every subgroup of <α>,
    and the pass ends once every subgroup of order n is marked, the
    scalar diagonal from the start.  When L = 0 it jumps to the last row
    once only the trace-zero subgroups, <(g, −g)> and, if n/2 is odd,
    <(g², −g²)>, are left (module docstring).
    """
    _, log, sub, sub_order = _unit_logs(p)
    n, h = p - 1, (p - 1) // 2
    dn = divisors(n)
    marked = bytearray(len(sub_order))
    marked[sub[n + 1]] = 1                             # <(g, g)>
    found, total = 1, sub_order.count(n)
    trace_zero = {i for i in (sub[n + (1 + h) % n], sub[2 % n * n + (2 + h) % n])
                  if sub_order[i] == n} if L == 0 else set()
    launched = []
    x0 = 0
    while x0 < p:
        s = (x0 + 1) % p
        for t in range(1, p):
            u, v = (s + t * r1) % p, (s + t * r2) % p
            if not (u and v):
                continue                               # an axis
            a, b = log[u], log[v]
            if marked[sub[a * n + b]]:
                continue
            o = n // gcd(n, a, b)
            launched.append((x0 * p + t, o, o * gcd(n, a - b) // n))
            for m in dn:
                i = sub[m * a % n * n + m * b % n]
                if not marked[i]:
                    marked[i] = 1
                    found += sub_order[i] == n
            if found == total:
                return launched
        if found + sum(not marked[i] for i in trace_zero) == total:
            x0 = max(x0 + 1, p - 1)
        else:
            x0 += 1
    return launched


def _plane_launches(kind: str, L: int, Q: int, p: int):
    """(plane index, period, scalar order) of each launched non-scalar
    start of one plane.  Its start s + t·w is the vector (x0, t·d),
    x0 = s − 1, at plane index x0·p + t, which orders the plane's starts
    as their lex indices do, whatever d (module docstring).

    The scalar order is that of the orbit's scalars: the order of
    <α> ∩ F_p^* for a unit α, 0 for a nilpotent (its orbit ends at the
    zero scalar) and None on a split axis (its orbit holds no scalar).
    """
    g, log = _unit_logs(p)[:2]
    n, pp, half = p - 1, p * p, pow(2, -1, p)
    if kind == "field":
        units = ((x0 * p + t, unit_order((x0 + 1) % p, t, L, Q, p))
                 for x0 in range(p) for t in range(1, p))
        return [(i, o, gcd(o, n)) for i, o in _cyclic_launches(units, pp - 1)]
    if kind == "dual":
        # s + t·w = c + t·ε with ε = w − L/2 and c = s + t·L/2: a unit of
        # order p·ord(c) if c ≠ 0, else a nilpotent, which always launches.
        units = ((x0 * p + t, p * (n // gcd(n, log[c])))
                 for x0 in range(p) for t in range(1, p)
                 for c in [(x0 + 1 + t * L * half) % p] if c)
        nilpotents = [((-t * L * half - 1) % p * p + t, 1, 0)
                      for t in range(1, p)]
        return [(i, o, o // p) for i, o in _cyclic_launches(units, p * n)] + nilpotents
    root = pow(g, log[(L * L + 4 * Q) % p] // 2, p)
    r1, r2 = (L + root) * half % p, (L - root) * half % p
    launches = _split_launches(r1, r2, L, p)
    # The axes u = 0 and v = 0 hold s + t·w = (0, t(r2 − r1)) and
    # (t(r1 − r2), 0), each orbit the cyclic <T>·α on its axis.
    for r, dr in ((r1, r2 - r1), (r2, r1 - r2)):
        axis = sorted(((-t * r - 1) % p * p + t,
                       n // gcd(n, log[t * dr % p])) for t in range(1, p))
        launches += [(i, o, None) for i, o in _cyclic_launches(axis, n)]
    return launches


@lru_cache(maxsize=4096)
def _plane_walks(L: int, Q: int, p: int):
    """(type, period histogram, first plane index per scalar order) of the
    launches of the plane R = F_p[w]/(w² − L w − Q).

    Both summaries survive the strictly increasing relabelling x0·p + t ↦
    x0·p² + offset[t] of any direction, so every direction and census
    with this (L, Q) shares them (module docstring).
    """
    kind = plane_kind(L, Q, p)
    periods, first = Counter(), {}
    for i, period, j in _plane_launches(kind, L, Q, p):
        periods[period] += 1
        if j is not None:
            first[j] = min(first.get(j, i), i)
    return kind, tuple(periods.items()), tuple(first.items())


def scan_space(ps: Params, *, full_scan_cap: int = DEFAULT_FULL_SCAN_CAP
               ) -> CensusReport:
    """Classify every start of Z_p^3 and aggregate all census measures.

    Plane by plane, one per direction of a' (module docstring): element,
    tail and cycle histograms are closed forms in the plane types, and
    the first-visit walks come from a lex pass over each plane that
    decides containment by element orders.
    """
    require_dim3(ps, "full-space censuses need")
    p = ps.modulus.p
    total = p**3
    if p > full_scan_cap:
        raise BudgetExceededError(
            f"full scan needs {total} starts (p = {p} > cap {full_scan_cap}); "
            "raise the cap explicitly to proceed"
        )

    t_start = time.perf_counter()
    n, pp = p - 1, p * p
    types, walk_hist = Counter(), Counter()
    scalar_first = {}       # scalar order -> first launch whose orbit holds it
    for d0, d1 in [(0, 1)] + [(1, y) for y in range(p)]:
        kind, periods, first = _plane_walks(
            *plane(Vector((0, d0, d1), ps.modulus), ps), p)
        types[kind] += 1
        walk_hist.update(dict(periods))
        for j, i in first:
            x0, t = divmod(i, p)
            idx = x0 * pp + t * d0 % p * p + t * d1 % p
            scalar_first[j] = min(scalar_first.get(j, total), idx)

    # The scalars c = x0 + 1 at lex index x0·p².  c ≠ 0 of order j lies in
    # the orbit of every start whose scalars have an order divisible by j,
    # a scalar start included; 0 only in its own and a nilpotent's orbit.
    log = _unit_logs(p)[1]
    first = {j: min((i for k, i in scalar_first.items() if k and k % j == 0),
                    default=total) for j in divisors(n)}
    for x0 in range(n):
        j = n // gcd(n, log[x0 + 1])
        if x0 * pp < first[j]:
            walk_hist[j] += 1
        for k in divisors(j):
            first[k] = min(first[k], x0 * pp)
    if n * pp < scalar_first.get(0, total):
        walk_hist[1] += 1

    start_hist = Counter({j: totient(j) for j in divisors(n)})
    start_hist[1] += 1                                 # (p − 1, 0, 0)
    for kind, periods in _type_periods(p).items():
        for period, count in periods.items():
            start_hist[period] += types[kind] * count
    nilpotents = n * types["dual"]
    tail_hist = Counter({0: total - nilpotents, 1: nilpotents})
    # Cycle keys: one per unit period, as every unit cycle holds the
    # identity; ((p − 1, 0, 0), 1); and one per order on each split axis.
    unit_periods = set(divisors(n))
    if types["field"]:
        unit_periods |= set(divisors(pp - 1))
    if types["dual"]:
        unit_periods |= {p * j for j in divisors(n)}
    cycle_hist = Counter(unit_periods)
    cycle_hist[1] += 1
    for j in divisors(n):
        cycle_hist[j] += 2 * types["split"]

    return CensusReport(
        p=p, params=tuple(ps.coefficients), total_starts=total,
        start_periods=dict(+start_hist), cycle_periods=dict(cycle_hist),
        walk_periods=dict(walk_hist), tail_lengths=dict(+tail_hist),
        total_cycles=sum(cycle_hist.values()), total_walks=sum(walk_hist.values()),
        zero_tail_starts=tail_hist[0],
        cycle_period_sum=sum(q * c for q, c in cycle_hist.items()),
        engine="plane", elapsed=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# parameter sweeps and heuristic maximal-orbit search


@dataclass
class SweepResult:
    p: int
    fixed: tuple[int, int, int]        # (C, D, E)
    reports: list[CensusReport]

    def aggregate(self, measure: str = "cycle") -> dict:
        """Per special length: mean/min/max proportion across the sweep."""
        out = {}
        for name in SPECIAL_NAMES:
            props = []
            for r in self.reports:
                props.append(r.proportion(r.special_lengths[name], measure))
            out[name] = {
                "mean": sum(props) / len(props),
                "min": min(props),
                "max": max(props),
            }
        return out

    def subset_distinct_nonzero(self) -> "SweepResult":
        """The 462-pair hypothesis subset: A, B nonzero and distinct."""
        kept = [r for r in self.reports
                if r.params[0] != 0 and r.params[1] != 0
                and r.params[0] != r.params[1]]
        return SweepResult(self.p, self.fixed, kept)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "fixed_cde": list(self.fixed),
            "pairs": len(self.reports),
            "aggregate_cycle": self.aggregate("cycle"),
            "aggregate_element": self.aggregate("element"),
            "aggregate_walk": self.aggregate("walk"),
        }


def param_sweep(modulus, c: int, d: int, e: int, a_values=None,
                b_values=None) -> SweepResult:
    """One census per (A, B) pair with C, D, E fixed.

    Each value list defaults to all of Z_p; an empty list, or one that
    repeats a value, is rejected.
    """
    p = modulus.p
    if p > DEFAULT_FULL_SCAN_CAP:
        raise BudgetExceededError(
            f"sweep at p = {p} exceeds cap {DEFAULT_FULL_SCAN_CAP}")
    a_values = list(range(p)) if a_values is None else list(a_values)
    b_values = list(range(p)) if b_values is None else list(b_values)
    for name, values in (("a_values", a_values), ("b_values", b_values)):
        if not values:
            raise ValueError(f"{name} must not be empty")
        for v in values:
            if values.count(v) > 1:
                raise ValueError(f"{name} value {v} given twice")
    reports = [scan_space(Params((a, b, c, d, e), modulus))
               for a in a_values for b in b_values]
    return SweepResult(p, (c, d, e), reports)


def structured_start(s: int, x: int, ps: Params) -> Vector:
    """The start (0, s, x), padded with zeros to the dimension of ps."""
    return Vector((0, s % ps.modulus.p, x) + (0,) * (ps.dim - 3), ps.modulus)


def heuristic_search(ps: Params, budget: int | None = None,
                     second_components=(1, 2)) -> list[OrbitRecord]:
    """Look for maximal (p^2 - 1) orbits among structured starts (0, s, x).

    Scans x over Z_p for each small second component, stopping after
    `budget` classified starts.  A second component outside [0, p) is
    rejected, as it would repeat or rename another, and so is a repeated
    one or an empty tuple.  An empty result is a valid outcome.
    """
    p = ps.modulus.p
    if budget is None:
        budget = 2 * p
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if not second_components:
        raise ValueError("second_components must not be empty")
    for s in second_components:
        if not 0 <= s < p:
            raise ValueError(f"residue {s} not canonical for modulus {p}")
        if second_components.count(s) > 1:
            raise ValueError(f"second component {s} given twice")
    target = p * p - 1
    found = []
    trials = 0
    for s in second_components:
        for x in range(p):
            if trials >= budget:
                return found
            start = structured_start(s, x, ps)
            if not any(start.components):
                continue
            trials += 1
            rec = orbit_length(start, ps)
            if rec.period == target:
                found.append(rec)
    return found
