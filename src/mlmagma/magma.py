"""Second-order multilinear binary operations on Z_p^3 and Z_p^4.

With x = (x0, x'), y = (y0, y'), s = x0 + 1 and s' = y0 + 1, both
dimensions share one product, bilinear in the shifted S(x) = (s, x'):

    S(x*y) = (s·s' + x'ᵀK y',  (s' + λ·y')·x' + s·y').

The shift removes the paper's linear shifts, so a product with a fixed
factor, on either side, is linear in S.  Its unit S = (1, 0, ...) is the
zero vector, a two-sided identity; its zero S = 0 is (p − 1, 0, ...),
which absorbs every product it is in.  The dimensions differ only in
where the paper's coefficients sit in K and λ (_form).  Each Params
builds its (K, λ) once, as its `form`; mul unrolls the product over it
per dimension.  It is non-commutative and non-associative in general.
Mixing moduli or dimensions is rejected.

Two value types carry both dimensions: a Vector's dimension is the
length of its components, and a Params' dimension is read from
COEFFICIENT_COUNTS, the one place that pairs Z_p^3 with the five
coefficients A..E and Z_p^4 with the nine A..I.  Vector3, Vector4,
Params3 and Params4 are positional constructors for them.

Powers are associative.  Let L = λ·a', Q = a'ᵀK a' and
R = F_p[w]/(w² − L w − Q).  For S(x) = (s, t·a') and S(y) = (s', t'·a'),
x'ᵀK y' = t t'Q and λ·y' = t'L, so S(x*y) = (s s' + t t'Q,
(s t' + s' t + t t'L)·a'): R's product of s + tw and s' + t'w.  So this
plane is closed and isomorphic to R, and a^n = (s_n − 1, t_n·a') with
s_n + t_n w = (a0 + 1 + w)^n under every parenthesization.
"""

from dataclasses import dataclass, field

from .field import PrimeModulus
from .plane import power

# Product coefficients per dimension; its keys are the supported dimensions.
COEFFICIENT_COUNTS = {3: 5, 4: 9}
_DIM_OF_COUNT = {n: dim for dim, n in COEFFICIENT_COUNTS.items()}


class ModulusMismatchError(ValueError):
    """Operands do not share one modulus (or one dimension)."""


def _check(values: tuple, sizes, what: str, p: int) -> None:
    if len(values) not in sizes:
        raise ValueError(f"expected {' or '.join(map(str, sizes))} {what}, "
                         f"got {len(values)}")
    for v in values:
        if not (0 <= v < p):
            raise ValueError(f"residue {v} not canonical for modulus {p}")


@dataclass(frozen=True, slots=True)
class Vector:
    """A point of Z_p^3 or Z_p^4; its dimension is len(components)."""
    components: tuple[int, ...]
    modulus: PrimeModulus

    def __post_init__(self):
        _check(self.components, COEFFICIENT_COUNTS, "components", self.modulus.p)

    @property
    def dim(self) -> int:
        return len(self.components)


@dataclass(frozen=True, slots=True)
class Params:
    """The product's coefficients: A..E for dimension 3, A..I for 4.

    `form` is their (K, λ), built once; it takes no part in ==, hash or
    repr, which see only the coefficients and the modulus.
    """
    coefficients: tuple[int, ...]
    modulus: PrimeModulus
    form: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check(self.coefficients, _DIM_OF_COUNT, "coefficients", self.modulus.p)
        object.__setattr__(self, "form", _form(self.coefficients))

    @property
    def dim(self) -> int:
        return _DIM_OF_COUNT[len(self.coefficients)]


def Vector3(a0, a1, a2, modulus: PrimeModulus) -> Vector:
    return Vector((a0, a1, a2), modulus)


def Vector4(a0, a1, a2, a3, modulus: PrimeModulus) -> Vector:
    return Vector((a0, a1, a2, a3), modulus)


def Params3(A, B, C, D, E, modulus: PrimeModulus) -> Params:
    return Params((A, B, C, D, E), modulus)


def Params4(A, B, C, D, E, F, G, H, I, modulus: PrimeModulus) -> Params:
    return Params((A, B, C, D, E, F, G, H, I), modulus)


def vector(components, modulus: PrimeModulus) -> Vector:
    return Vector(tuple(components), modulus)


def params(coefficients, modulus: PrimeModulus) -> Params:
    return Params(tuple(coefficients), modulus)


def identity(dim: int, modulus: PrimeModulus) -> Vector:
    """The zero vector, a two-sided multiplicative identity."""
    return Vector((0,) * dim, modulus)


def require_dim3(ps, needs: str) -> None:
    """Refuse parameters of Z_p^4 where only Z_p^3 is defined."""
    if ps.dim != 3:
        raise ValueError(
            f"{needs} 3-component parameters ({COEFFICIENT_COUNTS[3]} "
            f"coefficients), got {len(ps.coefficients)} coefficients")


def _require_shared(a, b, ps) -> PrimeModulus:
    """The one modulus of two vectors and a parameter set of one dimension."""
    n = len(a.components)
    if n != len(b.components) or n != len(ps.form[1]) + 1:
        raise ModulusMismatchError(
            f"dimension mismatch: {a.dim}, {b.dim}, params {ps.dim}")
    m = a.modulus
    if not (b.modulus is m and ps.modulus is m or m == b.modulus == ps.modulus):
        raise ModulusMismatchError(
            f"moduli differ: {m.p}, {b.modulus.p}, params {ps.modulus.p}")
    return m


def _form(coefficients) -> tuple:
    """(K, λ): where the paper's coefficients sit in the product."""
    if len(coefficients) == COEFFICIENT_COUNTS[3]:
        A, B, C, D, E = coefficients
        return ((A, 0), (C, B)), (D, E)
    A, B, C, D, E, F, G, H, I = coefficients
    return ((A, D, 0), (0, B, 0), (E, F, C)), (G, H, I)


def plane(a, ps) -> tuple[int, int]:
    """(L, Q) = (λ·a', a'ᵀK a') mod p: a's plane is F_p[w]/(w² − L w − Q)."""
    p = _require_shared(a, a, ps).p
    K, lam = ps.form
    x = a.components[1:]
    L = sum(l * xi for l, xi in zip(lam, x))
    Q = sum(xi * k * xj for xi, row in zip(x, K) for k, xj in zip(row, x))
    return L % p, Q % p


def from_plane(a, s: int, t: int):
    """The vector (s − 1, t·a') of a's plane, for s, t in [0, p)."""
    p = a.modulus.p
    return Vector(((s - 1) % p, *(t * x % p for x in a.components[1:])), a.modulus)


def mul(a, b, ps):
    """The product x * y of a and b, in either dimension, in closed form:

        x*y = (x0 + y0 + x0·y0 + x'ᵀK y',  f·x' + g·y')

    with f = 1 + y0 + λ·y' and g = 1 + x0, unrolled per dimension.
    """
    m = _require_shared(a, b, ps)
    p = m.p
    K, lam = ps.form
    if len(lam) == 2:
        (k11, k12), (k21, k22) = K
        l1, l2 = lam
        x0, x1, x2 = a.components
        y0, y1, y2 = b.components
        f = 1 + y0 + l1 * y1 + l2 * y2
        g = 1 + x0
        return Vector(((x0 + y0 + x0 * y0 + x1 * (k11 * y1 + k12 * y2)
                        + x2 * (k21 * y1 + k22 * y2)) % p,
                       (f * x1 + g * y1) % p,
                       (f * x2 + g * y2) % p), m)
    (k11, k12, k13), (k21, k22, k23), (k31, k32, k33) = K
    l1, l2, l3 = lam
    x0, x1, x2, x3 = a.components
    y0, y1, y2, y3 = b.components
    f = 1 + y0 + l1 * y1 + l2 * y2 + l3 * y3
    g = 1 + x0
    return Vector(((x0 + y0 + x0 * y0 + x1 * (k11 * y1 + k12 * y2 + k13 * y3)
                    + x2 * (k21 * y1 + k22 * y2 + k23 * y3)
                    + x3 * (k31 * y1 + k32 * y2 + k33 * y3)) % p,
                   (f * x1 + g * y1) % p,
                   (f * x2 + g * y2) % p,
                   (f * x3 + g * y3) % p), m)


def square_gh(a, ps):
    """Closed-form squaring a*a = (g, h·a').

    With s = a0 + 1, (s + w)² = (s² + Q) + (2s + L) w in a's plane, so
    g = s² + Q − 1 and h = 2s + L, the trace of s + w.
    """
    L, Q = plane(a, ps)
    return from_plane(a, *power(a.components[0] + 1, 1, 2, L, Q, a.modulus.p))


def right_mul_stepper(b, ps):
    """Fast closure computing x -> x * b on raw component tuples.

    x * b = (b0 + u·x0 + q·x', b' + x0·b' + v·x') with u = 1 + b0,
    q = K b' and v = u + λ·b'.  Hot loops (orbits, brute-force iteration,
    PRNG streams) use this instead of the boxed mul(), which is its own
    closed-form kernel: a stepper pays off when one b serves many steps.
    """
    p = ps.modulus.p
    K, lam = ps.form
    if b.dim == 3:
        b0, b1, b2 = b.components
        l1, l2 = lam
        u = (1 + b0) % p
        q1, q2 = [(k1 * b1 + k2 * b2) % p for k1, k2 in K]
        v = (u + l1 * b1 + l2 * b2) % p

        def step3(x):
            x0, x1, x2 = x
            return ((b0 + x0 * u + x1 * q1 + x2 * q2) % p,
                    (b1 + x0 * b1 + x1 * v) % p,
                    (b2 + x0 * b2 + x2 * v) % p)

        return step3

    b0, b1, b2, b3 = b.components
    l1, l2, l3 = lam
    u = (1 + b0) % p
    q1, q2, q3 = [(k1 * b1 + k2 * b2 + k3 * b3) % p for k1, k2, k3 in K]
    v = (u + l1 * b1 + l2 * b2 + l3 * b3) % p

    def step4(x):
        x0, x1, x2, x3 = x
        return ((b0 + x0 * u + x1 * q1 + x2 * q2 + x3 * q3) % p,
                (b1 + x0 * b1 + x1 * v) % p,
                (b2 + x0 * b2 + x2 * v) % p,
                (b3 + x0 * b3 + x3 * v) % p)

    return step4


def left_mul_stepper(a, ps):
    """Fast closure computing y -> a * y on raw component tuples.

    a * y = (a0 + u·y0 + r·y', a'·(1 + y0 + λ·y') + u·y') with u = 1 + a0
    and r = Kᵀa'.
    """
    p = ps.modulus.p
    K, lam = ps.form
    if a.dim == 3:
        a0, a1, a2 = a.components
        l1, l2 = lam
        u = (1 + a0) % p
        r1, r2 = [(a1 * k1 + a2 * k2) % p for k1, k2 in zip(*K)]

        def lstep3(y):
            y0, y1, y2 = y
            f = 1 + y0 + l1 * y1 + l2 * y2
            return ((a0 + y0 * u + y1 * r1 + y2 * r2) % p,
                    (a1 * f + u * y1) % p,
                    (a2 * f + u * y2) % p)

        return lstep3

    a0, a1, a2, a3 = a.components
    l1, l2, l3 = lam
    u = (1 + a0) % p
    r1, r2, r3 = [(a1 * k1 + a2 * k2 + a3 * k3) % p for k1, k2, k3 in zip(*K)]

    def lstep4(y):
        y0, y1, y2, y3 = y
        f = 1 + y0 + l1 * y1 + l2 * y2 + l3 * y3
        return ((a0 + y0 * u + y1 * r1 + y2 * r2 + y3 * r3) % p,
                (a1 * f + u * y1) % p,
                (a2 * f + u * y2) % p,
                (a3 * f + u * y3) % p)

    return lstep4
