import random
from math import comb

import pytest

from mlmagma import Params3, Vector3, make_modulus
from mlmagma.power import pow_iter
from mlmagma.symbolic import (MAX_SYM_POWER, CoefficientOverflowError,
                              SymPoly, VARIABLES, a_monomial_bound,
                              expansion_listing, generic_vector,
                              reference_cube, sym_mul3, sym_pow,
                              sym_square_gh, zero_vector)
from conftest import sym_parenthesizations, sym_pow_oracle


def test_polynomial_arithmetic_basics():
    x = SymPoly.variable("a0")
    one = SymPoly.constant(1)
    assert (x + one) * (x - one) == x * x - one
    assert x - x == SymPoly()
    assert (x + x) == 2 * x
    assert SymPoly.constant(0) == SymPoly()


def test_coefficient_overflow_is_hard_failure():
    big = SymPoly.constant(2**62)
    with pytest.raises(CoefficientOverflowError):
        _ = big * 4
    with pytest.raises(CoefficientOverflowError):
        _ = big + big


def test_identity_vector():
    a = generic_vector()
    assert sym_mul3(a, zero_vector()) == a
    assert sym_mul3(zero_vector(), a) == a


def test_square_matches_componentwise_and_gh():
    assert sym_pow(2) == sym_square_gh()
    # the zeroth component carries exactly the printed five a-monomials
    c0 = sym_pow(2).c0
    assert c0.a_monomial_count() == 5
    assert {e[:3] for e in c0.terms} == {
        (2, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0, 2), (0, 1, 1)}


def test_cube_matches_reference_transcription():
    got = sym_pow(3)
    want = reference_cube()
    assert got.c0 == want.c0
    assert got.c1 == want.c1
    assert got.c2 == want.c2


def test_cube_component0_contains_printed_monomials():
    c0 = sym_pow(3).c0
    # A*D*a1^3 with coefficient 1
    assert c0.terms[(0, 3, 0, 1, 0, 0, 1, 0)] == 1
    # B*E*a2^3 with coefficient 1
    assert c0.terms[(0, 0, 3, 0, 1, 0, 0, 1)] == 1
    # (A*E + C*D)*a1^2*a2 splits into two unit monomials
    assert c0.terms[(0, 2, 1, 1, 0, 0, 0, 1)] == 1
    assert c0.terms[(0, 2, 1, 0, 0, 1, 1, 0)] == 1


def test_cube_shared_bracket():
    got = sym_pow(3)
    a1 = SymPoly.variable("a1")
    a2 = SymPoly.variable("a2")
    # components 1 and 2 are a1 resp. a2 times one shared bracket
    assert got.c1 * a2 == got.c2 * a1


def test_degree_grows_linearly():
    for n in range(1, 8):
        v = sym_pow(n)
        assert v.c0.a_degree() == n
        assert v.c1.a_degree() == n
        assert v.c2.a_degree() == n


def test_divisibility_of_components():
    for n in range(1, 9):
        v = sym_pow(n)
        assert v.c1.divisible_by("a1")
        assert v.c2.divisible_by("a2")


def test_monomial_counts_and_bound():
    counts = []
    for n in range(1, 7):
        c = sym_pow(n).c0.a_monomial_count()
        counts.append(c)
        assert c <= a_monomial_bound(n)
    assert counts == sorted(counts)
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert counts[0] == 1
    assert counts[1] == 5
    assert a_monomial_bound(2) == 9


@pytest.mark.parametrize("n", range(1, MAX_SYM_POWER + 1))
def test_sym_pow_matches_repeated_product(n):
    """The closed form in R equals the repeated product term for term: a
    symbolic proof that the plane is closed, up to the 8th power."""
    got, want = sym_pow(n), sym_pow_oracle(n)
    for k in range(3):
        assert got[k].terms == want[k].terms


def test_monomial_law():
    """The a-monomial counts proved in the symbolic docstring."""
    c0_counts, c1_counts = [], []
    for n in range(1, MAX_SYM_POWER + 1):
        v = sym_pow(n)
        c0_counts.append(v.c0.a_monomial_count())
        c1_counts.append(v.c1.a_monomial_count())
        assert c0_counts[-1] == comb(n + 3, 3) - 1 - 2 * n
        assert c0_counts[-1] == a_monomial_bound(n) - 2 * n
        assert c1_counts[-1] == v.c2.a_monomial_count() == comb(n + 2, 3)
        # the monomials missing from component 0 are a0^j·a1 and a0^j·a2
        assert not any(e[1] + e[2] == 1 for e in v.c0.terms)
    assert c0_counts == [1, 5, 13, 26, 45, 71, 105, 148]
    assert c1_counts == [1, 4, 10, 20, 35, 56, 84, 120]


def test_numeric_symbolic_agreement():
    rng = random.Random(11)
    m = make_modulus(101)
    for _ in range(25):
        vals = {name: rng.randrange(101) for name in VARIABLES}
        ps = Params3(vals["A"], vals["B"], vals["C"], vals["D"], vals["E"], m)
        a = Vector3(vals["a0"], vals["a1"], vals["a2"], m)
        for n in range(1, 7):
            assert sym_pow(n).evaluate(vals, 101) == pow_iter(a, n, ps).components


def test_symbolic_parenthesizations_agree():
    for n in range(2, 6):
        assert len(sym_parenthesizations(n)) == 1


def test_listing_format():
    text = expansion_listing(2, components=(0,))
    lines = text.strip().splitlines()
    assert lines[0].startswith("# component 0:")
    # every body line: integer coefficient, then 8 exponents
    for line in lines[1:]:
        coef, exps = line.split("\t")
        int(coef)
        assert len(exps.split()) == len(VARIABLES)


def test_evaluate_matches_manual():
    poly = SymPoly.monomial(3, a0=2, B=1) - SymPoly.constant(4)
    # 3*a0^2*B - 4 at a0=5, B=2 mod 7: 3*25*2 - 4 = 146 -> 146 mod 7 = 6
    vals = {name: 0 for name in VARIABLES}
    vals.update(a0=5, B=2)
    assert poly.evaluate(vals, 7) == 6
