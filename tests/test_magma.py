import itertools

import pytest

from mlmagma import (Params, Params3, Params4, Vector, Vector3, Vector4,
                     identity, make_modulus, mul, params, square_gh, vector)
from mlmagma.magma import (ModulusMismatchError, _form, left_mul_stepper,
                           right_mul_stepper)
from conftest import paper_mul, random_instance


def test_mul3_examples():
    m23 = make_modulus(23)
    ps = Params3(9, 19, 1, 1, 2, m23)
    a, b = Vector3(0, 1, 0, m23), Vector3(0, 0, 1, m23)
    assert mul(a, b, ps).components == (0, 3, 1)
    assert mul(b, a, ps).components == (1, 1, 2)  # non-commutativity witness

    m7 = make_modulus(7)
    zero = Params3(0, 0, 0, 0, 0, m7)
    assert mul(Vector3(1, 2, 3, m7), Vector3(4, 5, 6, m7), zero).components == (2, 6, 6)


def test_mul4_examples():
    m7 = make_modulus(7)
    ones = Vector4(1, 1, 1, 1, m7)
    assert mul(ones, ones, Params4(*[0] * 9, m7)).components == (3, 4, 4, 4)
    assert mul(ones, ones, Params4(*[1] * 9, m7)).components == (2, 0, 0, 0)


def test_identity_element(rng):
    for dim in (3, 4):
        for _ in range(50):
            a, ps = random_instance(rng, dim)
            e = identity(dim, a.modulus)
            assert mul(a, e, ps) == a
            assert mul(e, a, ps) == a
            assert mul(e, e, ps) == e


def test_identity_laws_exhaustive_p5():
    m = make_modulus(5)
    ps = Params3(2, 4, 1, 3, 2, m)
    e = identity(3, m)
    for comps in itertools.product(range(5), repeat=3):
        a = Vector3(*comps, m)
        assert mul(a, e, ps) == a
        assert mul(e, a, ps) == a


def test_square_gh_examples():
    m101 = make_modulus(101)
    ps = Params3(1, 1, 1, 1, 1, m101)
    assert square_gh(Vector3(1, 1, 1, m101), ps).components == (6, 6, 6)
    assert square_gh(Vector3(0, 0, 0, m101), ps).components == (0, 0, 0)
    assert square_gh(Vector3(1, 0, 0, m101), ps).components == (3, 0, 0)

    m7 = make_modulus(7)
    ps4 = Params4(*[1] * 9, m7)
    assert square_gh(Vector4(1, 1, 1, 1, m7), ps4).components == (2, 0, 0, 0)
    assert square_gh(Vector4(1, 0, 0, 0, m7), ps4).components == (3, 0, 0, 0)


def test_square_gh_matches_mul(rng):
    for dim in (3, 4):
        for _ in range(500):
            a, ps = random_instance(rng, dim)
            assert square_gh(a, ps) == mul(a, a, ps)


def test_modulus_mismatch_rejected():
    m23, m61 = make_modulus(23), make_modulus(61)
    ps = Params3(1, 1, 1, 1, 1, m23)
    cases = [
        (Vector3(1, 2, 3, m23), Vector3(1, 2, 3, m61), ps,
         "moduli differ: 23, 61, params 23"),
        (Vector3(1, 2, 3, m61), Vector3(1, 2, 3, m61), ps,
         "moduli differ: 61, 61, params 23"),
        (Vector3(1, 2, 3, m23), Vector3(1, 2, 3, m23), Params3(1, 1, 1, 1, 1, m61),
         "moduli differ: 23, 23, params 61"),
        (Vector3(1, 2, 3, m23), Vector4(1, 2, 3, 4, m23), ps,
         "dimension mismatch: 3, 4, params 3"),
        (Vector3(1, 2, 3, m23), Vector3(1, 2, 3, m23), Params4(*range(9), m23),
         "dimension mismatch: 3, 3, params 4"),
        (Vector4(1, 2, 3, 4, m23), Vector4(1, 2, 3, 4, m23), ps,
         "dimension mismatch: 4, 4, params 3"),
        (Vector3(1, 2, 3, m23), Vector4(1, 2, 3, 4, m61), ps,
         "dimension mismatch: 3, 4, params 3"),
    ]
    for a, b, bad, message in cases:
        with pytest.raises(ModulusMismatchError) as err:
            mul(a, b, bad)
        assert str(err.value) == message
    # equal moduli built separately are one modulus
    other23 = make_modulus(23)
    assert other23 is not m23
    assert mul(Vector3(0, 1, 0, m23), Vector3(0, 0, 1, other23),
               Params3(9, 19, 1, 1, 2, other23)).components == (0, 3, 1)


def test_params_value_ignores_cached_form():
    """The cached (K, λ) is the one _form computes and takes no part in
    Params' ==, hash or repr."""
    for coefs in ((9, 19, 1, 1, 2), tuple(range(1, 10))):
        a, b = params(coefs, make_modulus(23)), params(list(coefs), make_modulus(23))
        assert a == b and hash(a) == hash(b)
        assert a.form == _form(coefs)
        assert a != params(coefs, make_modulus(29))
    m = make_modulus(23)
    assert repr(Params3(9, 19, 1, 1, 2, m)) == (
        "Params(coefficients=(9, 19, 1, 1, 2), modulus=PrimeModulus(p=23))")
    assert repr(Params4(1, 2, 3, 4, 5, 6, 7, 8, 9, m)) == (
        "Params(coefficients=(1, 2, 3, 4, 5, 6, 7, 8, 9), "
        "modulus=PrimeModulus(p=23))")


def test_non_canonical_rejected():
    m = make_modulus(23)
    with pytest.raises(ValueError):
        Vector3(23, 0, 0, m)
    with pytest.raises(ValueError):
        Vector3(-1, 0, 0, m)
    with pytest.raises(ValueError):
        Params3(0, 0, 0, 0, 23, m)


def test_vector_params_builders():
    m = make_modulus(23)
    assert vector((1, 2, 3), m).dim == 3
    assert vector((1, 2, 3, 4), m).dim == 4
    assert params((1,) * 5, m).dim == 3
    assert params((1,) * 9, m).dim == 4
    with pytest.raises(ValueError):
        vector((1, 2), m)
    with pytest.raises(ValueError):
        params((1,) * 6, m)


def test_constructors_build_the_two_types():
    m = make_modulus(23)
    assert Vector3(1, 2, 3, m) == vector([1, 2, 3], m) == Vector((1, 2, 3), m)
    assert Vector4(1, 2, 3, 4, m) == Vector((1, 2, 3, 4), m)
    assert Params3(*range(5), m) == Params(tuple(range(5)), m)
    assert Params4(*range(9), m) == params(range(9), m)
    assert identity(4, m) == Vector((0,) * 4, m)
    for bad in (lambda: Vector((1, 2, 3, 4, 5), m), lambda: Params((1,) * 4, m),
                lambda: identity(5, m)):
        with pytest.raises(ValueError):
            bad()


def test_non_associativity_witness_exists(rng):
    # generic parameters should break associativity within a few triples
    p = 23
    m = make_modulus(p)
    ps = Params3(9, 19, 1, 1, 2, m)
    found = False
    for _ in range(100):
        a, b, c = (Vector3(*(rng.randrange(p) for _ in range(3)), m)
                   for _ in range(3))
        if mul(mul(a, b, ps), c, ps) != mul(a, mul(b, c, ps), ps):
            found = True
            break
    assert found


def test_k4_restriction_matches_k3_on_squares(rng):
    """With a3 = 0, squaring in K^4 under (A,B,*,C3,*,*,D3,E3,*) matches
    K^3 squaring under (A, B, C3, D3, E3) on the first three components."""
    for _ in range(300):
        a3v, ps3 = random_instance(rng)
        p = a3v.modulus.p
        m = a3v.modulus
        A, B, C, D, E = ps3.coefficients
        junk = [hash((A, B, C, D, E, i)) % p for i in range(4)]
        ps4 = Params4(A, B, junk[0], C, junk[1], junk[2], D, E, junk[3], m)
        a4 = Vector4(*a3v.components, 0, m)
        got = mul(a4, a4, ps4)
        want = mul(a3v, a3v, ps3)
        assert got.components[:3] == want.components
        assert got.components[3] == 0


def test_k4_restriction_matches_k3_general_products_when_cross_term_zero(rng):
    """For general pairs the K^3 cross coefficient pairs a2*b1 while K^4
    pairs a1*b2, so exact agreement needs that coefficient to vanish."""
    for _ in range(300):
        av, ps3 = random_instance(rng)
        p = av.modulus.p
        m = av.modulus
        A, B, _, D, E = ps3.coefficients
        ps3z = Params3(A, B, 0, D, E, m)
        ps4 = Params4(A, B, 3 % p, 0, 5 % p, 7 % p, D, E, 2 % p, m)
        bv = Vector3(*(hash((av.components, i)) % p for i in range(3)), m)
        a4 = Vector4(*av.components, 0, m)
        b4 = Vector4(*bv.components, 0, m)
        assert mul(a4, b4, ps4).components[:3] == mul(av, bv, ps3z).components


def test_steppers_match_mul(rng):
    for dim in (3, 4):
        for _ in range(200):
            a, ps = random_instance(rng, dim)
            b, _ = random_instance(rng, dim, primes=(a.modulus.p,))
            assert right_mul_stepper(b, ps)(a.components) == mul(a, b, ps).components
            assert left_mul_stepper(b, ps)(a.components) == mul(b, a, ps).components


def test_products_match_paper_formulas(rng):
    """mul, both steppers and square_gh against the paper's formulas, with
    pairwise distinct coefficients so that no two slots can be swapped."""
    for dim in (3, 4):
        for _ in range(300):
            p = rng.choice((23, 61, 101, 2**31 - 1))
            m = make_modulus(p)
            ps = params(rng.sample(range(1, p), 5 if dim == 3 else 9), m)
            a, b = (vector([rng.randrange(p) for _ in range(dim)], m)
                    for _ in range(2))
            want = paper_mul(a, b, ps)
            assert mul(a, b, ps) == want
            assert right_mul_stepper(b, ps)(a.components) == want.components
            assert left_mul_stepper(a, ps)(b.components) == want.components
            assert square_gh(a, ps) == paper_mul(a, a, ps)


def _shift(v, p, by):
    return ((v[0] + by) % p, *v[1:])


def test_product_is_bilinear_in_shifted_vectors(rng):
    """With S(x) = (x0 + 1, x'), S(x*y) is bilinear in S(x) and S(y),
    and (p - 1, 0, ...), where S is 0, absorbs every product it is in."""
    for dim in (3, 4):
        for _ in range(200):
            p = rng.choice((3, 23, 101, 2**31 - 1))
            m = make_modulus(p)
            ps = params([rng.randrange(p) for _ in range(5 if dim == 3 else 9)], m)
            x, y, z = ([rng.randrange(p) for _ in range(dim)] for _ in range(3))
            c, d = rng.randrange(p), rng.randrange(p)

            def prod(u, v):          # S(S⁻¹u * S⁻¹v)
                return list(_shift(mul(vector(_shift(u, p, -1), m),
                                       vector(_shift(v, p, -1), m),
                                       ps).components, p, 1))

            def comb(u, v):          # c·S(u) + d·S(v)
                return [(c * a + d * b) % p for a, b in zip(u, v)]

            sx, sy, sz = (_shift(v, p, 1) for v in (x, y, z))
            assert prod(comb(sx, sy), sz) == comb(prod(sx, sz), prod(sy, sz))
            assert prod(sz, comb(sx, sy)) == comb(prod(sz, sx), prod(sz, sy))
            zero = vector((p - 1,) + (0,) * (dim - 1), m)
            a = vector(x, m)
            assert mul(a, zero, ps) == zero == mul(zero, a, ps)


def test_square_gh_rejects_mismatch():
    m23, m61 = make_modulus(23), make_modulus(61)
    with pytest.raises(ModulusMismatchError):
        square_gh(Vector3(1, 2, 3, m61), Params3(1, 1, 1, 1, 1, m23))
    with pytest.raises(ModulusMismatchError):
        square_gh(Vector4(1, 2, 3, 4, m23), Params3(1, 1, 1, 1, 1, m23))
