"""Orbit and cycle census of left-associative power sequences.

For a start vector a the trajectory is a, a*a, (a*a)*a, ... i.e. the
successor map y -> y * a.  `orbit_length` classifies one start of Z_p^3
or Z_p^4 into (tail, period, lexicographically minimal cycle state); a
census aggregates every start of Z_p^3.  structured_orbits classifies
the structured starts (0, s, x) of either dimension one by one; it is
the one scan under heuristic_search and dip.find_long_period_base.

The classification is an element order, not a walk.  a^n = (s_n − 1,
t_n·a') with s_n + t_n w = α^n in R = F_p[w]/(w² − L w − Q) (magma,
plane), where α = s0 + w and s0 = a0 + 1.  On the scalar line a' = 0
the state is s0^n − 1 alone, so there α = s0 (and L = Q = 0); either
way the state determines α^n.  α has norm N = s0² + s0·L − Q and trace
T = 2·s0 + L, and α² = T·α − N (Cayley–Hamilton).

* Unit, N ≠ 0: α lies in the finite group R^*, so the orbit has no
  tail, its period is ord(α), Plane.unit_order, and the cycle passes
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
assumes cycles partition the space.  A CensusReport gives each measure m
of MEASURES as count(period, m) and proportion(period, m).

The census works plane by plane, without walking.  A start with a' ≠ 0
lies in the plane of the direction d of a', normalised to (0, 1) or
(1, y): (a0, t·d) is s + t·w in R_d = F_p[w]/(w² − L w − Q), with
s = a0 + 1, (L, Q) those of d and t ≠ 0.  Its powers stay in the plane,
where lex order is that of the pairs (a0, t).  The p scalars (a' = 0)
lie in every plane.  Plane(L, Q, p).kind gives the type of R_d: a
field, split or dual (plane), and plane.exponent the exponent e of
R_d^*: p² − 1, p − 1 or p·n.  With n = p − 1 and φ Euler's function:

* Elements and tails, over the p² − p non-scalar elements of a plane.
  Field and dual: R_d^* is cyclic, so φ(k) units have period k for each
  k | e, k ∤ n (its one subgroup of order n is F_p^*, the scalars); the
  dual's other n elements, its nilpotents t·ε, have tail 1 and period 1.
  Split: (log u, log v) maps the units onto (Z/n)², so a unit (u, v),
  u ≠ v, of period k | n is one of the J₂(k) = k²·Π_{q | k}(1 − 1/q²)
  elements of order k (Jordan's totient), less the φ(k) on the scalar
  diagonal u = v; each axis u = 0, v = 0 holds φ(k) elements of period
  k (N = 0 ≠ T), so J₂(k) + φ(k) have period k.  The scalars add φ(j)
  of period j | n and the zero scalar one of 1.
* Cycles.  Every unit cycle holds the identity, so each distinct unit
  period is one key: one per divisor of each present type's e.  The
  zero scalar and the nilpotents share the key ((p − 1, 0, 0), 1).
  Each axis of each split plane holds one cycle {x^j = 1} per j | n,
  the orbit of its elements of order j.
* Walks.  An orbit that holds a start holds that start's orbit, so
  the lex-least start whose orbit holds β launches, and β launches iff
  no lex-smaller start's orbit holds it.  A non-scalar orbit stays in
  its plane and the scalars, and a unit's orbit is the group <α>.
  - Field and dual planes: R_d^* is cyclic, so β ∈ <α> iff
    ord β | ord α, each order from Plane.unit_order.  The lex pass over
    the units launches each order that divides no earlier launch's, and
    ends at the first generator, of order e.  Each nilpotent launches.
  - Split planes: the units are (Z/n)², whose cyclic subgroups have
    ids from a per-p table, built for the first split plane a census
    meets.  Launching α marks the ids of every subgroup of <α>; β
    launches iff <β>'s id is unmarked.  Every cyclic subgroup lies in
    one of order n (prime by prime: in (Z/q^e)², x = q^f·y with y of
    order q^e), so the pass ends when all of those are marked: there
    are ψ(n) = n·Π_{q | n}(1 + 1/q) of them (Dedekind's ψ; the J₂(n)
    elements of order n, φ(n) to a subgroup).  A cyclic group has one
    subgroup of each order, so the only one of order n inside <α> is
    <α> itself, unmarked when α launches: the count of marked ones
    grows by one exactly at a launch of order n.  The scalar diagonal
    is one that no non-scalar start generates; it starts marked, or the
    pass would never end early.  When L = 0, the subgroups of order n
    whose generators have v = −u, <(1, 1 + n/2)> and, if n/2 is odd,
    <(2, 2 + n/2)>, keep all their non-scalar elements on the line
    2s + t·L = 0, the last row s = 0: once every other subgroup of
    order n is marked, the pass skips each row before that one.
  - An axis is cyclic (the orbit of α is <T>·α), passed like a field
    plane.  A nilpotent's orbit {β, 0} holds no other start.
  - Scalars: F_p^* is cyclic, so the nonzero scalars c = x0 + 1 pass
    like a field plane's units, in order of x0, ending at the least
    primitive root.  A non-scalar orbit holds c of order j iff j divides
    the order of its scalars <α> ∩ F_p^*: gcd(ord α, n) in field and
    dual planes, ord α / ord(u/v) in split ones.  Such a launch in row r
    precedes the scalar of row x0 iff r < x0, so a scalar launch of
    order j counts iff x0 ≤ r for the first row r of every non-scalar
    launch whose scalars' order j divides.  A scalar launch that does
    not count drops later scalars only of orders dividing j, which the
    launch holding it holds too, so the filter is exact.  The zero
    scalar lies only in its own and the nilpotents' orbits: it launches
    iff no nilpotent launches in a row before its own, p − 1.
  - One pass per class (L, Q).  For d = (0, 1) or (1, y) the start
    (x0, t·d) has lex index x0·p² + offset[t], where offset[t] =
    (t·d0 mod p)·p + t·d1 mod p is t or t·p + (t·y mod p), strictly
    increasing in t < p; so the index is strictly increasing in (x0, t).
    The pass reads only L, Q and p, so its launches in (x0, t) are a
    function of (L, Q, p), and so are the two things the census keeps:
    each launch's period, and per scalar order the first row x0 of a
    launch whose orbit holds that scalar.  The pass writes (x0, t) as
    its plane index x0·p + t, which orders them the same way.  Only x0
    reaches the scalar rule: offset[t] lies in [1, p²), so the scalar of
    row x0, at x0·p², precedes every non-scalar start of rows ≥ x0 and
    follows those of earlier rows.  L_d = λ·d does not depend on (A, B),
    and Q_d = A·d0² + C·d0·d1 + B·d1² takes each value for p of the p²
    pairs (A, B); so a sweep over (A, B) with (C, D, E) fixed meets at
    most p² classes in its p²(p + 1) planes.  Every class passed is
    kept, so a sweep passes each class once.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache, reduce
from itertools import islice
from math import gcd
from operator import add

from .field import divisors, jordan2, totient
from .magma import (Params, Vector, _plane_of, from_plane, identity, plane,
                    require_dim3)
from .plane import Plane, exponent

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
    of about √p steps at most when N = 0 ≠ T.  The start's Plane works
    out its kind at most once.  At p = 2³¹ − 1 that is ~0.15 ms per
    random start, and ~0.25 ms for an N = 0 ≠ T start with its search,
    on one core of a 2-vCPU x86-64 VM (Python 3.11).
    """
    R = Plane(*plane(a, ps), a.modulus.p)   # rejects mixed dimensions and moduli
    p = R.p
    s0 = (a.components[0] + 1) % p
    t0 = int(any(a.components[1:]))   # α = s0 + t0·w
    if R.norm(s0, t0):
        return OrbitRecord(a, 0, R.unit_order(s0, t0), identity(a.dim, a.modulus))
    T = (2 * s0 + R.L) % p
    if T == 0:                        # nilpotent: a tail only off the scalars
        return OrbitRecord(a, t0, 1, from_plane(a, 0, 0))
    period = R.unit_order(T, 0)
    x = s0 or next(c for c in a.components[1:] if c)
    c = _coset_minimum(x, T, period, p) * pow(x, -1, p) % p
    return OrbitRecord(a, 0, period, from_plane(a, c * s0 % p, c))


# the census measures (module docstring), in the order of the report columns
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
    engine: str
    # Seconds spent; far less when the plane passes are reused from an
    # earlier census (_plane_walks).
    elapsed: float = field(default=0.0, compare=False)

    @property
    def special_lengths(self) -> dict[str, int]:
        p = self.p
        lengths = (p - 1, p * p - 1, (p - 1) // 2, (p * p - 1) // 2)
        return dict(zip(SPECIAL_NAMES, lengths))

    def _measure(self, measure: str) -> tuple[dict[int, int], int]:
        """The (period histogram, total) that a census measure counts."""
        if measure == "cycle":
            return self.cycle_periods, self.total_cycles
        if measure == "element":
            return self.start_periods, self.total_starts
        if measure == "walk":
            return self.walk_periods, self.total_walks
        raise ValueError(f"unknown measure {measure!r}")

    def count(self, period: int, measure: str) -> int:
        return self._measure(measure)[0].get(period, 0)

    def proportion(self, period: int, measure: str) -> float:
        hist, total = self._measure(measure)
        return hist.get(period, 0) / total

    def walk_count(self, period: int) -> int:
        return self.count(period, "walk")

    def to_dict(self) -> dict:
        special = {}
        for name, length in self.special_lengths.items():
            row = special[name] = {"length": length}
            for m in MEASURES:
                row[f"{m}_count"] = self.count(length, m)
                row[f"{m}_proportion"] = self.proportion(length, m)
        return {
            "p": self.p,
            "params": list(self.params),
            "total_starts": self.total_starts,
            "total_cycles": self.total_cycles,
            "total_walks": self.total_walks,
            "zero_tail_starts": self.zero_tail_starts,
            "cycle_period_sum": self.cycle_period_sum,
            **{key: {str(k): v for k, v in sorted(getattr(self, key).items())}
               for key in ("start_periods", "cycle_periods", "walk_periods",
                           "tail_lengths")},
            "special_lengths": special,
            "engine": self.engine,
        }

    def csv_rows(self) -> list[dict]:
        sp = self.special_lengths
        periods = set().union(*(self._measure(m)[0] for m in MEASURES))
        return [{"p": self.p, **dict(zip("ABCDE", self.params)), "period": period,
                 **{f"{m}_count": self.count(period, m) for m in MEASURES},
                 **{f"is_{name}": int(period == length) for name, length in sp.items()}}
                for period in sorted(periods)]


CSV_FIELDS = [
    "p", "A", "B", "C", "D", "E", "period",
    *(f"{m}_count" for m in MEASURES),
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
    """Discrete logs of F_p^*: (g, log), g the smallest primitive root and
    log[x] the exponent of x to base g.
    """
    n = p - 1
    g = next(g for g in range(2, p) if Plane(0, 0, p).unit_order(g, 0) == n)
    log, x = [0] * p, 1
    for e in range(n):
        log[x] = e
        x = x * g % p
    return g, tuple(log)


@lru_cache(maxsize=8)
def _subgroups(n: int):
    """The cyclic subgroups of (Z/n)², which only split planes read.

    Returns (sub, count): sub[a·n + b] the id, in [0, count), of the
    subgroup that (a, b) generates.  Built once per n in O(n²): each new
    subgroup labels its generators k·(a, b), gcd(k, order) = 1.  Of the
    count subgroups, ψ(n) = J₂(n)/φ(n) have order n (Dedekind's ψ): the
    J₂(n) elements of order n, φ(n) to a subgroup.
    """
    sub, count = [-1] * (n * n), 0
    for a in range(n):
        for b in range(n):
            if sub[a * n + b] < 0:
                o = n // gcd(n, a, b)
                for k in range(1, o + 1):
                    if gcd(k, o) == 1:
                        sub[k * a % n * n + k * b % n] = count
                count += 1
    return tuple(sub), count


def _trace_zero(n: int) -> list[int]:
    """The ids of the order-n subgroups <(a, a + h)> of (Z/n)², h = n/2:
    those of the units (u, −u), as −1 = g^h.  (a, a + h) has order n iff
    gcd(a, h) = 1, so a is a unit of Z/n or, if h is odd, twice one; and
    k·(a, a + h) = (ka, ka + h) for odd k.  So they are <(1, 1 + h)> and,
    if h is odd, <(2, 2 + h)>.
    """
    sub, h = _subgroups(n)[0], n // 2
    return [sub[k % n * n + (k + h) % n] for k in (1, 2)[:1 + h % 2]]


@lru_cache(maxsize=8)
def _type_periods(p: int) -> dict[str, dict[int, int]]:
    """Period histogram of the non-scalar elements of one plane, per type.

    A split plane's units are (Z/n)², J₂(k) of them of order k | n; off
    the diagonal, and with the φ(k) of each axis, J₂(k) + φ(k) have
    period k.
    """
    n = p - 1
    periods = {kind: {k: totient(k) for k in divisors(exponent(kind, p)) if n % k}
               for kind in ("field", "dual")}
    periods["dual"][1] = n                  # the nilpotents
    periods["split"] = {k: jordan2(k) + totient(k) for k in divisors(n)}
    return periods


def _cyclic_launches(elements, top: int) -> list[tuple[int, int]]:
    """Launches of a lex pass over part of a cyclic group.

    elements yields (index, order) in lex order.  In a cyclic group
    <β> ⊆ <α> iff ord β | ord α, so an element launches iff its order
    divides no earlier launch's; an element of order top ends the pass.
    Four groups pass through it: the units of field planes and of dual
    planes and the axes of split planes (_plane_walks), and the nonzero
    scalars F_p^* (scan_space).
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
    and the pass ends once all ψ(n) subgroups of order n are marked, the
    scalar diagonal from the start; found, their count, grows only at a
    launch of order n, as <α> is the one such subgroup of <α>.  When
    L = 0 it skips each row before the last once only the trace-zero
    subgroups, <(g, −g)> and, if n/2 is odd, <(g², −g²)>, are left
    (_trace_zero, module docstring).
    """
    log = _unit_logs(p)[1]
    n = p - 1
    sub, count = _subgroups(n)
    marked = bytearray(count)
    marked[sub[n + 1]] = 1                             # <(g, g)>
    found, total = 1, jordan2(n) // totient(n)         # ψ(n)
    trace_zero = _trace_zero(n) if L == 0 else []
    launched = []
    for x0 in range(p):
        if x0 < n and found + sum(not marked[i] for i in trace_zero) == total:
            continue                                   # only trace zero left
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
            found += o == n                            # <α> itself
            for m in divisors(n):
                marked[sub[m * a % n * n + m * b % n]] = 1
            if found == total:
                return launched
    return launched


@cache
def _plane_walks(L: int, Q: int, p: int):
    """(type, period histogram, first row x0 per scalar order) of the
    launched non-scalar starts of the plane R = F_p[w]/(w² − L w − Q).

    A start s + t·w of R is the vector (x0, t·d), x0 = s − 1, at plane
    index x0·p + t, which orders the plane's starts as their lex indices
    do, whatever d.  So neither summary depends on d (module docstring),
    and every direction and census with this (L, Q) shares them.  A
    census meets at most p² classes, and each is kept.

    A launch's scalar order is that of its orbit's scalars: the order
    gcd(ord α, n) of <α> ∩ F_p^* for a unit α of a cyclic R^*, 0 for a
    nilpotent (its orbit ends at the zero scalar) and None on a split
    axis (its orbit holds no scalar).
    """
    R, n = Plane(L, Q, p), p - 1
    if R.kind != "split":
        # R^* is cyclic; the non-units, of norm 0, are the dual plane's
        # nilpotents c + t·ε, ε = w − r, c = s + t·r = 0, each of which
        # launches, as its orbit {β, 0} holds no other start.
        units = ((x0 * p + t, R.unit_order(s, t))
                 for x0 in range(p) for s in [(x0 + 1) % p]
                 for t in range(1, p) if R.norm(s, t))
        launches = [(i, o, gcd(o, n))
                    for i, o in _cyclic_launches(units, exponent(R.kind, p))]
        if R.kind == "dual":
            r = R.dual_root
            launches += [((-t * r - 1) % p * p + t, 1, 0) for t in range(1, p)]
    else:
        g, log = _unit_logs(p)
        root, half = pow(g, log[(L * L + 4 * Q) % p] // 2, p), pow(2, -1, p)
        r1, r2 = (L + root) * half % p, (L - root) * half % p
        launches = _split_launches(r1, r2, L, p)
        # The axes u = 0 and v = 0 hold s + t·w = (0, t(r2 − r1)) and
        # (t(r1 − r2), 0), each orbit the cyclic <T>·α on its axis.
        for r, dr in ((r1, r2 - r1), (r2, r1 - r2)):
            axis = sorted(((-t * r - 1) % p * p + t,
                           n // gcd(n, log[t * dr % p])) for t in range(1, p))
            launches += [(i, o, None) for i, o in _cyclic_launches(axis, n)]
    periods, first = Counter(), {}
    for i, period, j in launches:
        periods[period] += 1
        if j is not None:
            first[j] = min(first.get(j, p), i // p)
    return R.kind, tuple(periods.items()), tuple(first.items())


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
    n = p - 1
    # row: scalar order -> first row x0 of a non-scalar launch holding it
    types, walk_hist, row = Counter(), Counter(), {}
    for d0, d1 in [(0, 1)] + [(1, y) for y in range(p)]:
        kind, periods, first = _plane_walks(*_plane_of((d0, d1), ps), p)
        types[kind] += 1
        walk_hist.update(dict(periods))
        for j, x0 in first:
            row[j] = min(row.get(j, p), x0)

    # The scalars c = x0 + 1.  F_p^* is cyclic, so they pass as one more
    # cyclic group; a launch of order j counts unless a non-scalar launch
    # of an earlier row, whose scalars' order j divides, holds it.  The
    # zero scalar lies only in its own and a nilpotent's orbit.
    log = _unit_logs(p)[1]
    scalars = ((x0, n // gcd(n, log[x0 + 1])) for x0 in range(n))
    for x0, j in _cyclic_launches(scalars, n):
        if all(x0 <= r for k, r in row.items() if k and k % j == 0):
            walk_hist[j] += 1
    if row.get(0, p) >= n:
        walk_hist[1] += 1

    start_hist = Counter({j: totient(j) for j in divisors(n)})
    start_hist[1] += 1                                 # (p − 1, 0, 0)
    for kind, periods in _type_periods(p).items():
        for period, count in periods.items():
            start_hist[period] += types[kind] * count
    nilpotents = n * types["dual"]
    tail_hist = Counter({0: total - nilpotents, 1: nilpotents})
    # Cycle keys: one per unit period, as every unit cycle holds the
    # identity, so one per divisor of each present type's exponent of R^*
    # (each a multiple of the scalars' n); ((p − 1, 0, 0), 1); and one per
    # order on each split axis.
    cycle_hist = Counter({k for kind in types for k in divisors(exponent(kind, p))})
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
        """Per special length: mean/min/max proportion across the sweep.

        An empty sweep (a subset that kept no pair) has none, and raises
        ValueError.
        """
        if not self.reports:
            raise ValueError(f"the sweep at p = {self.p} is empty: no "
                             f"proportion to aggregate")
        out = {}
        for name in SPECIAL_NAMES:
            props = [r.proportion(r.special_lengths[name], measure)
                     for r in self.reports]
            # left to right: sum() compensates floats since Python 3.12,
            # which moves the last digit of the pinned means
            out[name] = {
                "mean": reduce(add, props, 0) / len(props),
                "min": min(props),
                "max": max(props),
            }
        return out

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "fixed_cde": list(self.fixed),
            "pairs": len(self.reports),
            **{f"aggregate_{m}": self.aggregate(m) for m in MEASURES},
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


def structured_orbits(ps: Params, second_components):
    """orbit_length of each nonzero start (0, s, x), zero-padded to the
    dimension of ps, for s in second_components (taken mod p) in order
    and x over Z_p."""
    p = ps.modulus.p
    pad = (0,) * (ps.dim - 3)
    for s in second_components:
        for x in range(p):
            if s % p or x:
                yield orbit_length(Vector((0, s % p, x) + pad, ps.modulus), ps)


def heuristic_search(ps: Params, budget: int | None = None,
                     second_components=(1, 2)) -> list[OrbitRecord]:
    """Look for maximal (p^2 - 1) orbits among structured starts (0, s, x).

    Scans x over Z_p for each small second component, stopping after
    `budget` classified starts; the zero start is skipped, not counted.
    A second component outside [0, p) is rejected, as it would repeat or
    rename another, and so is a repeated one or an empty tuple.  An empty
    result is a valid outcome.
    """
    p = ps.modulus.p
    if budget is None:
        budget = 2 * p
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if not second_components:
        raise ValueError("second_components must not be empty")
    for s in second_components:
        if not 0 <= s < p:
            raise ValueError(f"residue {s} not canonical for modulus {p}")
        if second_components.count(s) > 1:
            raise ValueError(f"second component {s} given twice")
    return [rec for rec in islice(structured_orbits(ps, second_components), budget)
            if rec.period == p * p - 1]
