"""The plane algebra R = F_p[w]/(w² − L w − Q) of a start's powers (magma).

Δ = L² + 4Q gives the kind of R: F_{p²} if Δ is a non-residue; split,
s + t·w ↦ (u, v) = (s + t·r1, s + t·r2) onto F_p × F_p for the roots
r1, r2 of w² − L w − Q, if Δ is a nonzero square; dual, s + t·w =
c + t·ε with ε = w − L/2 and ε² = 0, if Δ = 0.  So |R^*| is p² − 1,
(p − 1)² or p(p − 1), and p(p − 1)(p + 1) bounds every unit's order.
"""

from .field import order, order_primes


def kind(L: int, Q: int, p: int) -> str:
    """'field', 'split' or 'dual': w² − L w − Q has no, two or one root."""
    disc = (L * L + 4 * Q) % p
    return ("dual" if disc == 0 else
            "split" if pow(disc, (p - 1) // 2, p) == 1 else "field")


def power(s: int, t: int, n: int, L: int, Q: int, p: int) -> tuple[int, int]:
    """(s + t·w)^n in R for any n >= 0, by square-and-multiply; tQ and
    s + tL are formed once, so a multiply costs what a square does."""
    tQ, stL = t * Q % p, (s + t * L) % p
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = (a * a + b * b * Q) % p, (2 * a + b * L) * b % p
        if bit == "1":
            a, b = (a * s + b * tQ) % p, (a * t + b * stL) % p
    return a, b


def unit_order(s: int, t: int, L: int, Q: int, p: int) -> int:
    """The order of the unit s + t·w of R."""
    return order(p * (p - 1) * (p + 1), order_primes(p),
                 lambda k: power(s, t, k, L, Q, p) == (1, 0))
