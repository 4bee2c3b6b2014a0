"""Second-order multilinear magma operations over prime fields.

Exact componentwise products on Z_p^3 / Z_p^4, left-associative powers,
symbolic expansion, orbit censuses, a multi-seed pattern PRNG, a
brute-force iteration-count solver, and an experimental key exchange.

Values are magma.Vector, whose dimension is its number of components,
and magma.Params, whose coefficient count fixes its dimension.  Build
them from sequences with vector() and params(), or positionally with
Vector3, Vector4, Params3 and Params4.
"""

from .field import PrimeModulus, make_modulus
from .magma import (
    Params,
    Params3,
    Params4,
    Vector,
    Vector3,
    Vector4,
    identity,
    mul,
    params,
    square_gh,
    vector,
)
from .power import pow_fast, pow_iter

__all__ = [
    "PrimeModulus", "make_modulus",
    "Vector", "Params", "Vector3", "Vector4", "Params3", "Params4",
    "vector", "params", "identity",
    "mul", "square_gh",
    "pow_iter", "pow_fast",
]

__version__ = "0.1.0"
