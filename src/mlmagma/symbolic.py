"""Exact symbolic expansion of iterated products on K^3.

Polynomials live in Z[a0, a1, a2, A, B, C, D, E]: the three generic
vector components plus the five operation coefficients.  A polynomial is
a dict from 8-tuples of exponents to nonzero integer coefficients, kept
in graded-lexicographic order when listed.  Coefficients are bounded to
signed 64-bit range and a breach is a hard failure; for the supported
expansion depth (n <= 8) they stay tiny.

Closed form.  With s0 = a0 + 1, L = D·a1 + E·a2 and
Q = A·a1² + C·a1·a2 + B·a2², the plane {(s − 1, t·a1, t·a2)} is closed
under the product and isomorphic to R = Z[…][w]/(w² − L w − Q) (proof in
the `magma` docstring), so

    a^n = (s_n − 1, t_n·a1, t_n·a2),   s_n + t_n w = (s0 + w)^n.

sym_pow steps s + t w ↦ (s + t w)(s0 + w) = (s·s0 + t·Q) + (s + t·(s0 + L)) w
on two polynomials.  The repeated product by sym_mul3 is the test oracle.

Monomial law.  An a-monomial is a monomial in a0, a1, a2 alone, its
coefficient a polynomial in A..E.  Component 0 of a^n has
C(n+3,3) − 1 − 2n a-monomials; components 1 and 2 have C(n+2,3) each.

Proof.  Write w^k = U_k w + V_k: U_0 = 0, V_0 = 1, U_{k+1} = L U_k + V_k,
V_{k+1} = Q U_k.  So U_k (k ≥ 1) is homogeneous of degree k − 1 in
(a1, a2), V_k of degree k, V_1 = 0, and by the binomial theorem
s_n = Σ_k C(n,k)·s0^(n−k)·V_k and t_n = Σ_k C(n,k)·s0^(n−k)·U_k.  Each
(a1, a2)-degree comes from one k, and s0^(n−k) = (a0 + 1)^(n−k) has
every a0^i, i ≤ n − k, with a positive coefficient; so no two terms
cancel: a0^i·a1^j·a2^l (j + l = m) occurs in s_n iff i ≤ n − m and
a1^j·a2^l occurs in V_m, and in t_n iff i < n − m and a1^j·a2^l occurs in
U_(m+1).  Every monomial of its degree occurs in U_k, k ≥ 1: A = B = C = 0
maps U_k to (D·a1 + E·a2)^(k−1), whose binomial coefficients are
nonzero.  Every monomial of degree m ≥ 2 occurs in V_m = Q·U_(m−1): its
part of degree 1 in (A, B, C) is Q·L^(m−2), in which the coefficient of
a1^j·a2^(m−j) carries A, C or B with a nonzero binomial when j ≥ 2,
0 < j < m or j ≤ m − 2, and one of these holds for every j.  Counting
(m + 1)(n − m + 1) a-monomials per degree m gives C(n+3,3) in all;
s_n − 1 lacks the constant (s_n = 1 at a = 0) and the 2n monomials
a0^i·a1, a0^i·a2 of V_1 = 0, since w¹ carries no Q.  For t_n, degree m
has (m + 1)(n − m) a-monomials, C(n+2,3) in all, and multiplying by a1
or a2 keeps them distinct.  (C(n+3,3) − 1 is a_monomial_bound(n).)
"""

from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple

VARIABLES = ("a0", "a1", "a2", "A", "B", "C", "D", "E")
_NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_COEF_LIMIT = 2**63
MAX_SYM_POWER = 8


class CoefficientOverflowError(OverflowError):
    """A coefficient left the signed 64-bit range."""


def _checked(c: int) -> int:
    if not (-_COEF_LIMIT <= c < _COEF_LIMIT):
        raise CoefficientOverflowError(f"coefficient {c} exceeds 64-bit range")
    return c


def _grlex_key(exps: tuple[int, ...]) -> tuple:
    return (sum(exps), exps)


class SymPoly:
    """Sparse multivariate polynomial with exact integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], int] | None = None):
        self.terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def constant(cls, c: int) -> "SymPoly":
        if c == 0:
            return cls()
        return cls({(0,) * _NVARS: c})

    @classmethod
    def variable(cls, name: str) -> "SymPoly":
        exps = [0] * _NVARS
        exps[_VAR_INDEX[name]] = 1
        return cls({tuple(exps): 1})

    @classmethod
    def monomial(cls, coefficient: int, **powers: int) -> "SymPoly":
        exps = [0] * _NVARS
        for name, e in powers.items():
            exps[_VAR_INDEX[name]] = e
        return cls({tuple(exps): coefficient})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = SymPoly.constant(other)
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = _checked(out.get(e, 0) + c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return SymPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        return (-self) + other

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.constant(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        pairs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in pairs:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        return SymPoly({e: _checked(c) for e, c in out.items() if c})

    __rmul__ = __mul__

    def monomial_count(self) -> int:
        return len(self.terms)

    def a_monomial_count(self) -> int:
        """Distinct monomials in the vector variables a0, a1, a2 only.

        Parameter symbols are treated as part of the coefficient, so
        A*a1^2 and D*a1^2 aggregate into one a-monomial.
        """
        return len({e[:3] for e in self.terms})

    def a_degree(self) -> int:
        """Total degree in the vector variables a0, a1, a2."""
        if not self.terms:
            return 0
        return max(sum(e[:3]) for e in self.terms)

    def divisible_by(self, name: str) -> bool:
        i = _VAR_INDEX[name]
        return all(e[i] >= 1 for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def evaluate(self, values: dict[str, int], p: int) -> int:
        """Evaluate modulo p with an assignment for all eight variables."""
        vals = [values[name] % p for name in VARIABLES]
        acc = 0
        for exps, coef in self.terms.items():
            term = coef % p
            for v, e in zip(vals, exps):
                if e:
                    term = term * pow(v, e, p) % p
            acc = (acc + term) % p
        return acc

    def listing(self) -> str:
        """One monomial per line: coefficient then exponent tuple."""
        lines = []
        for exps, coef in self.sorted_terms():
            lines.append(f"{coef}\t" + " ".join(str(e) for e in exps))
        return "\n".join(lines)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coef in self.sorted_terms():
            factors = [str(coef)] if abs(coef) != 1 or not any(exps) else (
                ["-"] if coef == -1 else [])
            for name, e in zip(VARIABLES, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            txt = "*".join(f for f in factors if f != "-")
            if coef == -1 and any(exps):
                txt = "-" + txt
            parts.append(txt)
        return " + ".join(parts).replace("+ -", "- ")


class SymVector3(NamedTuple):
    c0: SymPoly
    c1: SymPoly
    c2: SymPoly

    def evaluate(self, values: dict[str, int], p: int) -> tuple[int, int, int]:
        return (self.c0.evaluate(values, p),
                self.c1.evaluate(values, p),
                self.c2.evaluate(values, p))


_A = SymPoly.variable("A")
_B = SymPoly.variable("B")
_C = SymPoly.variable("C")
_D = SymPoly.variable("D")
_E = SymPoly.variable("E")


def generic_vector() -> SymVector3:
    return SymVector3(SymPoly.variable("a0"),
                      SymPoly.variable("a1"),
                      SymPoly.variable("a2"))


def zero_vector() -> SymVector3:
    return SymVector3(SymPoly(), SymPoly(), SymPoly())


def sym_mul3(x: SymVector3, y: SymVector3) -> SymVector3:
    """The componentwise product rule applied over the polynomial ring."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    c0 = x0 + y0 + x0 * y0 + _A * x1 * y1 + _C * x2 * y1 + _B * x2 * y2
    c1 = x1 + y1 + x1 * y0 + x0 * y1 + _D * x1 * y1 + _E * x1 * y2
    c2 = x2 + y2 + x2 * y0 + x0 * y2 + _D * x2 * y1 + _E * x2 * y2
    return SymVector3(c0, c1, c2)


def sym_pow(n: int) -> SymVector3:
    """The symbolic n-th power of the generic vector, computed in R."""
    if not (1 <= n <= MAX_SYM_POWER):
        raise ValueError(f"supported range is 1 <= n <= {MAX_SYM_POWER}")
    a0, a1, a2 = generic_vector()
    s0 = a0 + 1
    q = _A * a1 * a1 + _C * a1 * a2 + _B * a2 * a2
    u = s0 + _D * a1 + _E * a2
    s, t = s0, SymPoly.constant(1)
    for _ in range(n - 1):
        s, t = s * s0 + t * q, s + t * u
    return SymVector3(s - 1, t * a1, t * a2)


def sym_square_gh() -> SymVector3:
    """The g/h closed form of the square, built symbolically."""
    a0, a1, a2 = generic_vector()
    one = SymPoly.constant(1)
    g = (a0 + one) * (a0 + one) + _A * a1 * a1 + _B * a2 * a2 + _C * a1 * a2 - one
    h = _D * a1 + _E * a2 + 2 * (a0 + one)
    return SymVector3(g, a1 * h, a2 * h)


def reference_cube() -> SymVector3:
    """Hand-transcribed closed form of the third power.

    Serves as an independent oracle for sym_pow(3).  The factor shared by
    components 1 and 2 is parenthesized so that each is a1 (resp. a2)
    times the same quartic-free bracket, the unique reading consistent
    with divisibility and numeric evaluation.
    """
    a0, a1, a2 = generic_vector()
    one = SymPoly.constant(1)
    s = a0 + one
    c0 = (s * s * s
          + _A * _D * a1 * a1 * a1
          + _B * _E * a2 * a2 * a2
          + 3 * a0 * (_A * a1 * a1 + _B * a2 * a2)
          + 3 * _C * a0 * a1 * a2
          + (_A * _E + _C * _D) * a1 * a1 * a2
          + (_B * _D + _C * _E) * a1 * a2 * a2
          + 3 * _A * a1 * a1
          + 3 * _B * a2 * a2
          + 3 * _C * a1 * a2
          - one)
    bracket = (3 * s * s
               + (_A + _D * _D) * a1 * a1
               + (_B + _E * _E) * a2 * a2
               + 3 * (_D * a1 + _E * a2) * s
               + (_C + 2 * _D * _E) * a1 * a2)
    return SymVector3(c0, a1 * bracket, a2 * bracket)


def a_monomial_bound(n: int) -> int:
    """Counting bound for degree-n expansions: binom(n+3, 3) - 1."""
    return (n + 3) * (n + 2) * (n + 1) // 6 - 1


def expansion_listing(n: int, components: Iterable[int] = (0, 1, 2)) -> str:
    """Plain-text dump of sym_pow(n), one monomial per line per component."""
    v = sym_pow(n)
    blocks = []
    for i in components:
        poly = v[i]
        blocks.append(f"# component {i}: {poly.monomial_count()} monomials, "
                      f"a-degree {poly.a_degree()}")
        blocks.append(poly.listing())
    return "\n".join(blocks) + "\n"
