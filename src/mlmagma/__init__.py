"""Second-order multilinear magma operations over prime fields.

Exact componentwise products on Z_p^3 / Z_p^4, left-associative powers,
symbolic expansion, orbit censuses, a multi-seed pattern PRNG, a
brute-force iteration-count solver, and an experimental key exchange.
"""

from .field import PrimeModulus, make_modulus
from .magma import (
    Params3,
    Params4,
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
    "Vector3", "Vector4", "Params3", "Params4",
    "vector", "params", "identity",
    "mul", "square_gh",
    "pow_iter", "pow_fast",
]

__version__ = "0.1.0"
