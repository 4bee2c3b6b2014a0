"""Brute-force solver and timing harness for iteration-count recovery.

Given a base vector a and a target v = a^n, the only implemented attack
is evaluating successive powers a, a^2, ... until the target appears.
The solver doubles as the correctness oracle for key-exchange tests;
the timing harness records how the step count scales with the planted
exponent, the empirical face of the hardness conjecture.  Its default
base, from find_long_period_base, is the first long orbit that
orbit_length meets among orbit.structured_starts, the starts (0, s, x).

No sub-exhaustive attack is implemented.  Note the power identity
a^(u+v) = a^u * a^v invites a meet-in-the-middle tabulation; that lead
is deliberately left on the table.  As a^n = (s_n − 1, t_n·a') (magma),
recovering n is a discrete log in R^* (plane.Plane is R, and
plane.exponent gives the exponent of R^*).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from typing import NamedTuple

from .magma import Params, Vector, _require_shared, right_mul_stepper
from .orbit import orbit_length, structured_starts
from .power import pow_fast


@dataclass(frozen=True)
class DipInstance:
    base: Vector
    target: Vector
    params: Params
    cap: int

    def __post_init__(self):
        _require_shared(self.base, self.target, self.params)
        if type(self.cap) is not int or self.cap < 1:
            raise ValueError("cap must be at least 1")


class DipResult(NamedTuple):
    exponent: int | None   # smallest n <= cap with base^n == target, if any
    steps: int              # multiplications spent


def dip_bruteforce(inst: DipInstance) -> DipResult:
    target = inst.target.components
    cur = inst.base.components
    if cur == target:
        return DipResult(1, 1)
    step = right_mul_stepper(inst.base, inst.params)
    for n in range(2, inst.cap + 1):
        cur = step(cur)
        if cur == target:
            return DipResult(n, n)
    return DipResult(None, inst.cap)


class TimingRow(NamedTuple):
    exponent: int
    mean_steps: float
    samples: int
    mean_seconds: float


def find_long_period_base(ps, min_period: int):
    """The first start of orbit.structured_starts over s = 1, 2, 3 whose
    tail plus period, from orbit_length, exceeds min_period, or None.

    Long-period bases keep planted exponents below the orbit period so
    brute-force cost reflects the exponent, not a wrapped residue.
    """
    records = (orbit_length(Vector(c, ps.modulus), ps)
               for c in structured_starts(ps, (1, 2, 3)))
    return next((rec.start for rec in records
                 if rec.tail + rec.period > min_period), None)


def dip_timing(ps, exponents, samples: int = 3, base=None) -> list[TimingRow]:
    """Mean brute-force step counts for planted exponents.

    One base is used across the grid; it must have period above the
    largest exponent (found heuristically when not supplied) so the
    planted exponent is also the smallest solution.
    """
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    exponents = sorted(exponents)
    if not exponents or exponents[0] < 1:
        raise ValueError("exponents must be a non-empty list of integers "
                         f">= 1, got {exponents}")
    if base is None:
        base = find_long_period_base(ps, min_period=max(exponents))
        if base is None:
            raise RuntimeError(
                "no base with period above the largest exponent was found; "
                "use a larger modulus or pass one explicitly"
            )
    rows = []
    for n in exponents:
        total_steps = 0
        total_time = 0.0
        for _ in range(samples):
            target = pow_fast(base, n, ps)
            t0 = time.perf_counter()
            res = dip_bruteforce(DipInstance(base, target, ps, cap=2 * n + 16))
            total_time += time.perf_counter() - t0
            if res.exponent != n:
                raise RuntimeError(
                    f"planted exponent {n} recovered as {res.exponent}; "
                    "base period too short"
                )
            total_steps += res.steps
        rows.append(TimingRow(n, total_steps / samples, samples,
                              total_time / samples))
    return rows


def write_timing_csv(rows: list[TimingRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["exponent", "mean_steps", "samples", "mean_seconds"])
        for row in rows:
            writer.writerow([row.exponent, f"{row.mean_steps:.1f}",
                             row.samples, f"{row.mean_seconds:.6f}"])
