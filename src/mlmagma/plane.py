"""The plane algebra R = F_p[w]/(w² − L w − Q) of a start's powers (magma).

The roots of w² − L w − Q in F_p give the kind of R: F_{p²} if it has
none; split, s + t·w ↦ (u, v) = (s + t·r1, s + t·r2) onto F_p × F_p, if
it has two, r1 and r2; dual, s + t·w = c + t·ε with ε = w − r and
ε² = 0, if it has one, r.  For odd p, Δ = L² + 4Q counts them: a
non-residue, a nonzero square or 0; at p = 2, w² + L w + Q has one root
if L is even, else two if Q is even and none if Q is odd.

So R^* is cyclic of order p² − 1, or F_p^* × F_p^*, or F_p^* × (1 + ε·F_p)
of order p(p − 1), and a unit's order divides its group's exponent:
p² − 1, p − 1 (as lcm(ord u, ord v) | p − 1) or p(p − 1).  A scalar
s + 0·w lies in F_p^*, so its order divides p − 1 whatever the kind.

The Frobenius x ↦ x^p of R has a closed form on each kind, for every
α = s + t·w, unit or not: α^(p+1) = N(α) = s² + s·t·L − t²·Q in the
field (α^p is α's conjugate), α^p = α on F_p × F_p, and α^p = s + t·r
in F_p[ε] (binomial terms vanish, ε² = 0).  So for odd p, power folds
an n > p to an exponent of at most p + 1: modulo p + 1 with a factor
N^e in the field, to (n − 1) mod (p − 1) + 1 when split (exact for
non-units, as x^p = x on F_p), and modulo p with a factor (s + t·r)^e,
r = L/2, when dual; e is the quotient, and the factor one builtin pow.
"""

from .field import order, order_primes


def kind(L: int, Q: int, p: int) -> str:
    """'field', 'split' or 'dual': w² − L w − Q has no, two or one root."""
    if p == 2:                           # Δ = L² mod 2 does not tell
        return "dual" if L % 2 == 0 else "field" if Q % 2 else "split"
    disc = (L * L + 4 * Q) % p
    return ("dual" if disc == 0 else
            "split" if pow(disc, (p - 1) // 2, p) == 1 else "field")


def power(s: int, t: int, n: int, L: int, Q: int, p: int) -> tuple[int, int]:
    """(s + t·w)^n in R for any n >= 0.  For odd p an n > p is first
    folded by the Frobenius (module docstring), so square-and-multiply
    runs over at most ~log₂ p bits; tQ and s + tL are formed once, so
    a multiply costs what a square does."""
    c = 1                                # F_p factor left by the fold
    if n > p > 2:
        k = kind(L, Q, p)
        if k == "field":
            e, n = divmod(n, p + 1)
            c = pow(s * s + s * t * L - t * t * Q, e, p)
        elif k == "split":
            n = (n - 1) % (p - 1) + 1
        else:                            # double root r = L/2
            e, n = divmod(n, p)
            c = pow(s + t * L * (p + 1) // 2, e, p)
    tQ, stL = t * Q % p, (s + t * L) % p
    a, b = 1, 0
    for bit in bin(n)[2:]:
        a, b = (a * a + b * b * Q) % p, (2 * a + b * L) * b % p
        if bit == "1":
            a, b = (a * s + b * tQ) % p, (a * t + b * stL) % p
    return a * c % p, b * c % p


def unit_order(s: int, t: int, L: int, Q: int, p: int) -> int:
    """The order of the unit s + t·w of R, from the exponent of its own
    group: p − 1 for t = 0, else p² − 1, p − 1 or p(p − 1) by kind."""
    m = {"field": p + 1, "split": 1, "dual": p}[kind(L, Q, p)] if t else 1
    return order((p - 1) * m, order_primes(p),
                 lambda k: power(s, t, k, L, Q, p) == (1, 0))
