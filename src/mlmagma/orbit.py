"""Orbit and cycle census of left-associative power sequences.

For a start vector a the trajectory is a, a*a, (a*a)*a, ... i.e. the
successor map y -> y * a.  `orbit_length` classifies one start of Z_p^3
or Z_p^4 into (tail, period, lexicographically minimal cycle state); a
census aggregates every start of Z_p^3.

The classification is an element order, not a walk.  a^n = (s_n − 1,
t_n·a') with s_n + t_n w = α^n, α = s0 + w and s0 = a0 + 1, in
R = F_p[w]/(w² − L w − Q) (magma).  α has norm N = s0² + s0·L − Q and
trace T = 2·s0 + L, and α² = T·α − N (Cayley–Hamilton).

* Scalar line, a' = 0: the state is s0^n − 1 alone.  s0 = 0 stays at a
  (tail 0, period 1); otherwise the period is ord_p(s0), and the cycle
  holds s0^ord = 1, the identity (0, ..., 0), its smallest state.
* Unit, N ≠ 0 (a' ≠ 0 here and below, so the state determines α^n): α
  lies in the finite group R^*, so the orbit has no tail, its period is
  ord(α) and the cycle passes through α^ord = 1, the identity.  ord(α)
  divides p(p−1)(p+1) whether R is a field, split or dual, so one bound
  serves all three.
* N = 0: α² = T·α, so α^n = T^(n−1)·α.  T = 0 makes α nilpotent: a,
  then (−1, 0, ..., 0) for ever (tail 1, period 1).  Otherwise the
  orbit has no tail, the period is k = ord_p(T), and the cycle is
  {(c·s0 − 1, c·a') : c ∈ <T>}.  Its smallest state has the smallest
  c·x, where x is s0 if s0 ≠ 0 and otherwise the first nonzero
  component of a' (every state then starts with −1).  So it is the
  smallest element y of the coset x·<T> of F_p^*, which is the first
  y with y^k = x^k.  When k² ≤ p − 1 it is found by listing <T>, in
  k ≤ √p steps; otherwise by trying y = 1, 2, ..., which meets the
  coset after about its index (p − 1)/k < √p powers.

Orders come from field.order, with the primes of p − 1 and p + 1.

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

The census is one pass of those first-visit walks, and it is exact
because powers are associative: (a^i)^n = a^(i*n).  If the walk of a
visits a^1 .. a^(mu+lambda) before a^(mu+lambda+1) = a^(mu+1), the
start a^i walks the subsequence a^i, a^(2i), ...  Its tail is mu // i
and its period lambda // gcd(lambda, i), and its cycle is the states
a^e of a's cycle with gcd(lambda, i) | e, which is also the cycle of
the start a^gcd(lambda, i).  Every start is a power of the walk that
visits it first, so that walk classifies it, and the cycles of the
starts a^g, g | lambda, over all walks are all the cycles.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from math import gcd, isqrt

from .field import order, order_primes
from .magma import (Params3, Params4, Vector3, Vector4, from_plane, identity,
                    plane, right_mul_stepper, vector)
from .power import plane_pow

DEFAULT_FULL_SCAN_CAP = 127


class BudgetExceededError(RuntimeError):
    """Full scan refused: state space exceeds the configured budget."""


@dataclass(frozen=True, slots=True)
class OrbitRecord:
    start: Vector3 | Vector4
    tail: int
    period: int
    cycle_rep: Vector3 | Vector4


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


def orbit_length(a: Vector3 | Vector4, ps: Params3 | Params4) -> OrbitRecord:
    """Classify one start: tail, period, lexicographically minimal cycle state.

    An order computation in a's plane R (module docstring): a few
    square-and-multiply powers per prime of p(p − 1)(p + 1), plus a
    coset search of about √p steps at most when N = 0 ≠ T.
    """
    L, Q = plane(a, ps)   # rejects mixed dimensions and moduli
    p = a.modulus.p
    small, bound = order_primes(p)
    s0 = (a.components[0] + 1) % p
    if not any(a.components[1:]):
        if s0 == 0:
            return OrbitRecord(a, 0, 1, a)
        period = order(p - 1, small, lambda k: pow(s0, k, p) == 1)
        return OrbitRecord(a, 0, period, identity(a.dim, a.modulus))
    if (s0 * s0 + s0 * L - Q) % p:
        period = order(p * (p - 1) * (p + 1), bound,
                       lambda k: plane_pow(s0, k, L, Q, p) == (1, 0))
        return OrbitRecord(a, 0, period, identity(a.dim, a.modulus))
    T = (2 * s0 + L) % p
    if T == 0:
        return OrbitRecord(a, 1, 1, from_plane(a, 0, 0))
    period = order(p - 1, small, lambda k: pow(T, k, p) == 1)
    x = s0 or next(c for c in a.components[1:] if c)
    c = _coset_minimum(x, T, period, p) * pow(x, -1, p) % p
    return OrbitRecord(a, 0, period, from_plane(a, c * s0 % p, c))


MEASURES = ("cycle", "element", "walk")


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
    elapsed: float = field(default=0.0, compare=False)

    @property
    def special_lengths(self) -> dict[str, int]:
        p = self.p
        return {
            "n_minus_1": p - 1,
            "n2_minus_1": p * p - 1,
            "half_n_minus_1": (p - 1) // 2,
            "half_n2_minus_1": (p * p - 1) // 2,
        }

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
                "is_n_minus_1": int(period == sp["n_minus_1"]),
                "is_n2_minus_1": int(period == sp["n2_minus_1"]),
                "is_half_n_minus_1": int(period == sp["half_n_minus_1"]),
                "is_half_n2_minus_1": int(period == sp["half_n2_minus_1"]),
            })
        return rows


CSV_FIELDS = [
    "p", "A", "B", "C", "D", "E", "period",
    "cycle_count", "element_count", "walk_count",
    "is_n_minus_1", "is_n2_minus_1", "is_half_n_minus_1", "is_half_n2_minus_1",
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


def write_census_json(report: CensusReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scan_python(ps: Params3) -> CensusReport:
    """Reference full scan built on the per-start classifier; tiny p only.

    The start, tail and cycle histograms come from orbit_length's
    algebraic classification of each start, so comparing this scan with
    scan_space cross-checks the walk census against it.  The walk census
    here is the literal sequential procedure: enumerate starts
    lexicographically, skip any start already visited, walk the whole
    trajectory of each launched start, record its period.
    """
    p = ps.modulus.p
    m = ps.modulus
    start_hist, cycle_hist, tail_hist, walk_hist = (
        Counter(), Counter(), Counter(), Counter())
    cycles = set()
    visited = set()
    zero_tails = 0
    t_start = time.perf_counter()
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
        engine="python", elapsed=time.perf_counter() - t_start,
    )


def _divisors(n: int) -> set[int]:
    return {d for k in range(1, isqrt(n) + 1) if n % k == 0 for d in (k, n // k)}


def scan_space(ps: Params3, *, full_scan_cap: int = DEFAULT_FULL_SCAN_CAP,
               allow_large: bool = False) -> CensusReport:
    """Classify every start of Z_p^3 and aggregate all census measures.

    One pass of first-visit walks: the walk of each launched start a
    classifies every state a^i it is first to visit (module docstring).
    """
    if ps.dim != 3:
        raise ValueError(
            "full-space censuses need 3-component parameters (5 coefficients), "
            f"got {len(ps.coefficients)} coefficients")
    p = ps.modulus.p
    total = p**3
    if p > full_scan_cap and not allow_large:
        raise BudgetExceededError(
            f"full scan needs {total} starts (p = {p} > cap {full_scan_cap}); "
            "raise the cap explicitly to proceed"
        )

    t_start = time.perf_counter()
    start_hist, tail_hist, walk_hist = Counter(), Counter(), Counter()
    cycles = set()                       # (lex index of cycle minimum, period)
    visited = bytearray(total)           # by lex index (x0*p + x1)*p + x2
    i = visited.find(0)
    while i != -1:
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
        for g in _divisors(period):
            # the cycle of a^g: the states a^e of a's cycle with g | e
            cycles.add((min(cycle[-(tail + 1) % g::g]), period // g))
        i = visited.find(0, i + 1)

    return CensusReport(
        p=p, params=tuple(ps.coefficients), total_starts=total,
        start_periods=dict(start_hist),
        cycle_periods=dict(Counter(q for _, q in cycles)),
        walk_periods=dict(walk_hist), tail_lengths=dict(tail_hist),
        total_cycles=len(cycles), total_walks=sum(walk_hist.values()),
        zero_tail_starts=tail_hist[0],
        cycle_period_sum=sum(q for _, q in cycles),
        engine="walk", elapsed=time.perf_counter() - t_start,
    )


# ---------------------------------------------------------------------------
# parameter sweeps and heuristic maximal-orbit search

SPECIAL_NAMES = ("n_minus_1", "n2_minus_1", "half_n_minus_1", "half_n2_minus_1")


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


def param_sweep(modulus, c: int, d: int, e: int, a_values=None, b_values=None,
                *, full_scan_cap: int = DEFAULT_FULL_SCAN_CAP) -> SweepResult:
    """One census per (A, B) pair with C, D, E fixed."""
    p = modulus.p
    if p > full_scan_cap:
        raise BudgetExceededError(
            f"sweep at p = {p} exceeds cap {full_scan_cap}; raise it explicitly"
        )
    a_values = list(range(p)) if a_values is None else list(a_values)
    b_values = list(range(p)) if b_values is None else list(b_values)
    reports = [scan_space(Params3(a, b, c, d, e, modulus), full_scan_cap=p)
               for a in a_values for b in b_values]
    return SweepResult(p, (c, d, e), reports)


def structured_start(s: int, x: int, ps: Params3 | Params4) -> Vector3 | Vector4:
    """The start (0, s, x), padded with zeros to the dimension of ps."""
    return vector((0, s % ps.modulus.p, x) + (0,) * (ps.dim - 3), ps.modulus)


def heuristic_search(ps: Params3 | Params4, budget: int | None = None,
                     second_components=(1, 2)) -> list[OrbitRecord]:
    """Look for maximal (p^2 - 1) orbits among structured starts (0, s, x).

    Scans x over Z_p for each small second component, stopping after
    `budget` classified starts.  An empty result is a valid outcome.
    """
    p = ps.modulus.p
    if budget is None:
        budget = 2 * p
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
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
