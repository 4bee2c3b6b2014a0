"""Exponentiation and checkers for the single-element algebra.

Powers are left-associative: a^(n+1) = a^n * a.  They are also power
associative (proof in magma's docstring); pow_fast squares and
multiplies in that algebra R with Plane.power, and pow_iter stays as
its oracle.  square_gh is pow_fast at n = 2.
"""

from .magma import _reduced, from_plane, identity, mul, plane, right_mul_stepper
from .plane import Plane

MAX_EXPONENT = 2**64

# 1430 parenthesizations at n = 8; keeps the exhaustive check bounded.
MAX_PAREN_FACTORS = 8


def _check_exponent(n: int) -> None:
    if type(n) is not int or not 0 <= n < MAX_EXPONENT:
        raise ValueError(f"exponent out of 64-bit range: {n}")


def pow_iter(a, n: int, ps):
    """a^n by n-1 successive right multiplications; a^0 = e (extension)."""
    _check_exponent(n)
    if n == 0:
        return identity(a.dim, a.modulus)
    step = right_mul_stepper(a, ps)
    cur = a.components
    for _ in range(n - 1):
        cur = step(cur)
    return _reduced(cur, a.modulus)


def pow_fast(a, n: int, ps):
    """a^n by square-and-multiply on (s, t) in R.

    a = (s0 − 1, a') is s0 + w in R, and a^n = (s − 1, t·a') for
    s + t w = (s0 + w)^n.  Plane.power folds an n > p by the Frobenius
    of R, so the loop runs over at most ~log₂ p bits, not all 64 of a
    large n; only that fold works out the plane's kind, so an n ≤ p
    costs no Euler criterion.
    """
    _check_exponent(n)
    R = Plane(*plane(a, ps), a.modulus.p)
    return from_plane(a, *R.power(a.components[0] + 1, 1, n))


def square_gh(a, ps):
    """Closed-form squaring a*a = (g, h·a'), pow_fast(a, 2, ps).

    With s = a0 + 1, (s + w)² = (s² + Q) + (2s + L) w in a's plane, so
    g = s² + Q − 1 and h = 2s + L, the trace of s + w.
    """
    return pow_fast(a, 2, ps)


def powers_upto(a, n: int, ps) -> list:
    """[a^1, a^2, ..., a^n] in one left-associative sweep; [] for n = 0."""
    _check_exponent(n)
    if n == 0:
        return []
    out = [a]
    step = right_mul_stepper(a, ps)
    cur = a.components
    for _ in range(n - 1):
        cur = step(cur)
        out.append(_reduced(cur, a.modulus))
    return out


def check_power_associativity(a, ps, max_n: int):
    """Evaluate every full parenthesization of a^n for n <= max_n.

    Returns (True, None) if all agree for every n, else
    (False, (n, value1, value2)) with two differing results.
    """
    if type(max_n) is not int or max_n < 3:
        raise ValueError("max_n must be at least 3")
    if max_n > MAX_PAREN_FACTORS:
        raise ValueError(f"max_n capped at {MAX_PAREN_FACTORS}")
    # values[k] = set of distinct values of any parenthesization of k factors
    values = {1: [a]}
    for length in range(2, max_n + 1):
        seen = []
        for split in range(1, length):
            for x in values[split]:
                for y in values[length - split]:
                    z = mul(x, y, ps)
                    if z not in seen:
                        seen.append(z)
        if len(seen) > 1:
            return False, (length, seen[0], seen[1])
        values[length] = seen
    return True, None


def _check_grid(a, ps, max_m: int, max_n: int, count: int, other):
    """a^m * a^n == other(pows, m, n) over the full grid, with
    pows = [a^1, ..., a^count]; (ok, (m, n, lhs, rhs) or None)."""
    if any(type(k) is not int or k < 1 for k in (max_m, max_n)):
        raise ValueError("exponent bounds must be >= 1")
    pows = powers_upto(a, count, ps)
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            lhs = mul(pows[m - 1], pows[n - 1], ps)
            rhs = other(pows, m, n)
            if lhs != rhs:
                return False, (m, n, lhs, rhs)
    return True, None


def check_internal_commutativity(a, ps, max_m: int, max_n: int):
    """a^m * a^n == a^n * a^m over the full grid; (ok, counterexample)."""
    return _check_grid(a, ps, max_m, max_n, max(max_m, max_n),
                       lambda pows, m, n: mul(pows[n - 1], pows[m - 1], ps))


def check_power_identity(a, ps, max_m: int, max_n: int):
    """a^m * a^n == a^(m+n) over the full grid; (ok, counterexample)."""
    return _check_grid(a, ps, max_m, max_n, max_m + max_n,
                       lambda pows, m, n: pows[m + n - 1])
