"""Exact symbolic expansion of iterated products on K^3.

Polynomials live in Z[a0, a1, a2, A, B, C, D, E]: the three generic
vector components plus the five operation coefficients.  Coefficients
are bounded to signed 64-bit range, on input as on every result, and a
breach is a hard failure; for the supported expansion depth (n <= 8)
they stay tiny.

Packed monomials.  A polynomial maps one int per monomial to its
nonzero coefficient.  The key of a0^e0·…·E^e7 is nine B-bit fields
(B = 16), the total degree d = e0 + … + e7 on top:

    key = d << 8B | e0 << 7B | e1 << 6B | … | e7.

Fields add like exponents, so a term product is one int add.  None
carries while d < 2^B (each e_i ≤ d), so one max(keys) < 2^(9B) per
product proves the sums exact; a degree past 2^B − 1 raises
DegreeOverflowError (sym_pow(8) stays below 20).  Int order compares d,
then e0, e1, … in turn: graded lexicographic order, so listings sort
plain ints.  Each result checks its coefficients once, by min and max;
`terms` decodes the keys to 8-tuples on access.

Closed form.  With s0 = a0 + 1, L = D·a1 + E·a2 and
Q = A·a1² + C·a1·a2 + B·a2², the plane {(s − 1, t·a1, t·a2)} is closed
under the product and isomorphic to R = Z[…][w]/(w² − L w − Q) (proof in
the `magma` docstring), so

    a^n = (s_n − 1, t_n·a1, t_n·a2),   s_n + t_n w = (s0 + w)^n.

sym_pow steps s + t w ↦ (s + t w)(s0 + w) = (s·s0 + t·Q) + (s + t·(s0 + L)) w
on two polynomials.

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

import struct
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

VARIABLES = ("a0", "a1", "a2", "A", "B", "C", "D", "E")
_NVARS = len(VARIABLES)
_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_COEF_LIMIT = 2**63
MAX_SYM_POWER = 8

_BITS = 16                                    # B, one field of a key
_FIELDS = struct.Struct(f">{_NVARS + 1}H")    # d, e0 .. e7, big-endian
_FIELD_MAX = (1 << _BITS) - 1                 # field mask, degree bound
_KEY_LIMIT = 1 << (_NVARS + 1) * _BITS        # above every key with d < 2^B
_A_SHIFTS = tuple((_NVARS - 1 - i) * _BITS for i in range(3))


class CoefficientOverflowError(OverflowError):
    """A coefficient left the signed 64-bit range."""


class DegreeOverflowError(OverflowError):
    """A monomial's total degree left its 16-bit key field."""


def _pack(exps: tuple[int, ...]) -> int:
    """The packed key of an exponent 8-tuple."""
    if len(exps) != _NVARS or min(exps) < 0:
        raise ValueError(f"expected {_NVARS} non-negative exponents, "
                         f"got {exps}")
    d = sum(exps)
    if d > _FIELD_MAX:
        raise DegreeOverflowError(f"total degree {d} exceeds {_FIELD_MAX}")
    return int.from_bytes(_FIELDS.pack(d, *exps), "big")


def _unpack(key: int) -> tuple[int, ...]:
    return _FIELDS.unpack(key.to_bytes(_FIELDS.size, "big"))[1:]


def _checked(terms: dict[int, int]) -> dict[int, int]:
    """Packed terms with zeros dropped, each coefficient checked."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    lo, hi = min(terms.values(), default=0), max(terms.values(), default=0)
    if lo < -_COEF_LIMIT or hi >= _COEF_LIMIT:
        bad = lo if lo < -_COEF_LIMIT else hi
        raise CoefficientOverflowError(
            f"coefficient {bad} exceeds 64-bit range")
    return terms


def _poly(terms: dict[int, int]) -> "SymPoly":
    poly = SymPoly.__new__(SymPoly)
    poly._terms = _checked(terms)
    return poly


class SymPoly:
    """Sparse multivariate polynomial with exact integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] | None = None):
        self._terms = _checked({_pack(e): c for e, c in (terms or {}).items()})

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Read-only view of the terms keyed by exponent 8-tuples."""
        return MappingProxyType(
            {_unpack(k): c for k, c in self._terms.items()})

    @classmethod
    def constant(cls, c: int) -> "SymPoly":
        return cls({(0,) * _NVARS: c})

    @classmethod
    def variable(cls, name: str) -> "SymPoly":
        return cls.monomial(1, **{name: 1})

    @classmethod
    def monomial(cls, coefficient: int, **powers: int) -> "SymPoly":
        exps = [0] * _NVARS
        for name, e in powers.items():
            if name not in _VAR_INDEX:
                raise ValueError(f"unknown variable {name!r}, expected one "
                                 f"of {', '.join(VARIABLES)}")
            if e < 0:
                raise ValueError(f"exponent of {name} must be non-negative, "
                                 f"got {e}")
            exps[_VAR_INDEX[name]] = e
        return cls({tuple(exps): coefficient})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):       # key 0 is the constant monomial
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, SymPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        terms = self._terms
        if len(terms) < 2 and terms.keys() <= {0}:   # hash a constant as its int
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def __add__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.constant(other)
        out = dict(self._terms)
        get = out.get
        for k, c in other._terms.items():
            out[k] = get(k, 0) + c
        return _poly(out)

    __radd__ = __add__

    def __neg__(self) -> "SymPoly":
        return _poly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "SymPoly":
        return self + (-other)

    def __rsub__(self, other) -> "SymPoly":
        return (-self) + other

    def __mul__(self, other) -> "SymPoly":
        if isinstance(other, int):
            other = SymPoly.constant(other)
        out: dict[int, int] = {}
        get = out.get
        pairs = other._terms.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in pairs:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        if out and max(out) >= _KEY_LIMIT:
            raise DegreeOverflowError(
                f"total degree {max(out) >> _NVARS * _BITS} exceeds "
                f"{_FIELD_MAX}")
        return _poly(out)

    __rmul__ = __mul__

    def monomial_count(self) -> int:
        return len(self._terms)

    def a_monomial_count(self) -> int:
        """Distinct monomials in the vector variables a0, a1, a2 only.

        Parameter symbols are treated as part of the coefficient, so
        A*a1^2 and D*a1^2 aggregate into one a-monomial.
        """
        shift, mask = _A_SHIFTS[-1], (1 << 3 * _BITS) - 1
        return len({k >> shift & mask for k in self._terms})

    def a_degree(self) -> int:
        """Total degree in the vector variables a0, a1, a2."""
        return max((sum(k >> s & _FIELD_MAX for s in _A_SHIFTS)
                    for k in self._terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponents, coefficient) pairs in graded lexicographic order."""
        return [(_unpack(k), self._terms[k]) for k in sorted(self._terms)]

    def evaluate(self, values: dict[str, int], p: int) -> int:
        """Evaluate modulo p with an assignment for all eight variables."""
        for name in VARIABLES:
            if name not in values:
                raise ValueError(f"no value for variable {name!r}")
        vals = [values[name] % p for name in VARIABLES]
        acc = 0
        for key, coef in self._terms.items():
            term = coef % p
            for v, e in zip(vals, _unpack(key)):
                if e:
                    term = term * pow(v, e, p) % p
            acc = (acc + term) % p
        return acc

    def listing(self) -> str:
        """One monomial per line: coefficient then exponent tuple."""
        return "\n".join(f"{coef}\t" + " ".join(map(str, exps))
                         for exps, coef in self.sorted_terms())

    def __repr__(self) -> str:
        parts = []
        for exps, coef in self.sorted_terms():
            mono = "*".join(name if e == 1 else f"{name}^{e}"
                            for name, e in zip(VARIABLES, exps) if e)
            if not mono:
                parts.append(str(coef))
            elif abs(coef) == 1:
                parts.append(mono if coef == 1 else "-" + mono)
            else:
                parts.append(f"{coef}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") or "0"


class SymVector3(NamedTuple):
    c0: SymPoly
    c1: SymPoly
    c2: SymPoly

    def evaluate(self, values: dict[str, int], p: int) -> tuple[int, int, int]:
        return (self.c0.evaluate(values, p),
                self.c1.evaluate(values, p),
                self.c2.evaluate(values, p))


_A, _B, _C, _D, _E = (SymPoly.variable(v) for v in "ABCDE")


def generic_vector() -> SymVector3:
    return SymVector3(SymPoly.variable("a0"),
                      SymPoly.variable("a1"),
                      SymPoly.variable("a2"))


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
