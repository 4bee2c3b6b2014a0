"""The plane algebra R = F_p[w]/(w² − L w − Q) of a start's powers (magma).

Plane(L, Q, p) is R, one value per class (L, Q, p), with its norm,
powers and unit orders; its kind, from `kind`, is worked out once, on
the first fold or order that needs it.

The roots of w² − L w − Q in F_p give the kind of R: F_{p²} if it has
none; split, s + t·w ↦ (u, v) = (s + t·r1, s + t·r2) onto F_p × F_p, if
it has two, r1 and r2; dual, s + t·w = c + t·ε with ε = w − r and
ε² = 0, if it has one, r = L/2 (Plane.dual_root).  For odd p,
Δ = L² + 4Q counts them: a non-residue, a nonzero square or 0; at
p = 2, w² + L w + Q has one root if L is even, else two if Q is even
and none if Q is odd.

So R^* is F_{p²}^*, cyclic of order p² − 1; or F_p^* × F_p^*; or
F_p^* × (1 + ε·F_p), cyclic of order p(p − 1) as gcd(p − 1, p) = 1.  A
unit's order divides the exponent of R^*, `exponent`: p² − 1, p − 1 (as
lcm(ord u, ord v) | p − 1) or p(p − 1).  A scalar s + 0·w lies in F_p^*,
so its order divides p − 1 whatever the kind.

The Frobenius x ↦ x^p of R has a closed form on each kind, for every
α = s + t·w, unit or not: α^(p+1) = N(α) = s² + s·t·L − t²·Q in the
field (α^p is α's conjugate), α^p = α on F_p × F_p, and α^p = s + t·r
in F_p[ε] (binomial terms vanish, ε² = 0).  So for odd p, Plane.power
folds an n > p to an exponent of at most p + 1: modulo p + 1 with a
factor N^e in the field, to (n − 1) mod (p − 1) + 1 when split (exact
for non-units, as x^p = x on F_p), and modulo p with a factor
(s + t·r)^e when dual; e is the quotient, and the factor one builtin pow.

A generator of R^*, of order p² − 1, needs R = F_{p²} and t ≠ 0, as a
scalar's order divides p − 1; Plane.is_maximal tests for one without its
order.  α generates iff α^((p² − 1)/q) ≠ 1 for each prime q of
p² − 1 = (p − 1)(p + 1).  For q | p − 1 that power is N(α)^((p − 1)/q),
so N must generate F_p^*.  Every other q is odd, as gcd(p − 1, p + 1) = 2,
and there the power is β^(p − 1) with β = α^((p + 1)/q): 1 iff β lies in
F_p^*, its t-part 0, that is iff the image of α in the cyclic quotient
R^*/F_p^*, of order p + 1, has order dividing (p + 1)/q.  q = 2 divides
both p − 1 and p + 1, and the norm's test covers it; so the quotient
needs one power per odd prime of p + 1, and none at p = 2³¹ − 1, where
p + 1 = 2³¹.
"""

from .field import order, order_primes, prime_factors


def kind(L: int, Q: int, p: int) -> str:
    """'field', 'split' or 'dual': w² − L w − Q has no, two or one root."""
    if p == 2:                           # Δ = L² mod 2 does not tell
        return "dual" if L % 2 == 0 else "field" if Q % 2 else "split"
    disc = (L * L + 4 * Q) % p
    return ("dual" if disc == 0 else
            "split" if pow(disc, (p - 1) // 2, p) == 1 else "field")


def exponent(kind: str, p: int) -> int:
    """The exponent of R^* of a kind: p² − 1, p − 1 or p(p − 1)."""
    return (p - 1) * {"field": p + 1, "split": 1, "dual": p}[kind]


class Plane:
    """R = F_p[w]/(w² − L w − Q); an element s + t·w is the pair (s, t).

    A value: L, Q and p are not changed after construction.  Slots and a
    lazy kind keep a Plane cheap to build, as orbit_length and pow_fast
    build one per call and heuristic_search one per start.
    """
    __slots__ = ("L", "Q", "p", "_kind")

    def __init__(self, L: int, Q: int, p: int):
        self.L, self.Q, self.p, self._kind = L, Q, p, None

    @property
    def kind(self) -> str:
        """'field', 'split' or 'dual', from `kind` on first use."""
        if self._kind is None:
            self._kind = kind(self.L, self.Q, self.p)
        return self._kind

    @property
    def dual_root(self) -> int:
        """r = L/2, the double root of w² − L w − Q when R is dual."""
        return self.L * (self.p + 1) // 2 % self.p

    def norm(self, s: int, t: int) -> int:
        """N(s + t·w) = s² + s·t·L − t²·Q; s + t·w is a unit iff N ≠ 0."""
        return (s * s + s * t * self.L - t * t * self.Q) % self.p

    def power(self, s: int, t: int, n: int) -> tuple[int, int]:
        """(s + t·w)^n for any n >= 0.  For odd p an n > p is first
        folded by the Frobenius (module docstring), so square-and-multiply
        runs over at most ~log₂ p bits; tQ and s + tL are formed once, so
        a multiply costs what a square does."""
        L, Q, p = self.L, self.Q, self.p
        a, b, c = 1, 0, 1                # (a + b·w)·c; c is left by the fold
        if n > p > 2:
            if self.kind == "field":
                e, n = divmod(n, p + 1)
                c = pow(self.norm(s, t), e, p)
            elif self.kind == "split":
                n = (n - 1) % (p - 1) + 1
            else:                        # dual: α^p = s + t·r
                e, n = divmod(n, p)
                c = pow(s + t * self.dual_root, e, p)
        tQ, stL = t * Q % p, (s + t * L) % p
        for bit in bin(n)[2:]:
            a, b = (a * a + b * b * Q) % p, (2 * a + b * L) * b % p
            if bit == "1":
                a, b = (a * s + b * tQ) % p, (a * t + b * stL) % p
        return a * c % p, b * c % p

    def unit_order(self, s: int, t: int) -> int:
        """The order of the unit s + t·w, from the exponent of its own
        group: p − 1 for t = 0 (F_p^*), else that of R^*."""
        return order(exponent(self.kind, self.p) if t else self.p - 1,
                     order_primes(self.p), lambda k: self.power(s, t, k) == (1, 0))

    def is_maximal(self, s: int, t: int) -> bool:
        """Whether s + t·w has order p² − 1, a generator of R^* = F_{p²}^*,
        from its norm and one power per odd prime of p + 1 (module
        docstring); False for a scalar and when R is not a field."""
        p = self.p
        if not t or self.kind != "field":
            return False
        N = self.norm(s, t)
        return (all(pow(N, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))
                and all(self.power(s, t, (p + 1) // q)[1]
                        for q in prime_factors(p + 1) if q != 2))
