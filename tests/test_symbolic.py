import hashlib
import random
from math import comb

import pytest

from mlmagma import Params3, Vector3, make_modulus
from mlmagma.power import pow_iter
from mlmagma.symbolic import (MAX_SYM_POWER, CoefficientOverflowError,
                              DegreeOverflowError, SymPoly, VARIABLES,
                              a_monomial_bound, expansion_listing,
                              generic_vector, reference_cube, sym_pow,
                              sym_square_gh)
from conftest import (divisible_by, grlex_key, poly_add, poly_evaluate,
                      poly_mul, sym_mul3, sym_parenthesizations,
                      sym_pow_oracle, zero_vector)

# sha256 of expansion_listing(n), as printed by the tuple-keyed SymPoly
LISTING_SHA256 = {
    1: "e7a038897078069d53a529eac5157e61033ecdaab26bf949edfe64b92c72e28b",
    2: "908be7ac1ef545b148ce10496ec8314664385fc3cc43bcaeb3d7484880f8bfa2",
    3: "8e1605b0786222dbcfcfd16720170c10b1e589cf607cfad0d92f5ca30b69cecf",
    4: "ee3eccea9d92b36461bf2e50f13734facf1f9bbcc7712b58b76ad7e95365d4f9",
    5: "3ad191e9ba2702ed8ff089804047ff22aab26526c9804b6fec1b72d97e3ab47d",
    6: "6505d230c9a03cb06b9c8d71c3be65edf641de16e2a38ba19ddc3da360a242ef",
    7: "50714e41c01221bae5b9ee5e658c4bc3b8e218256e735cfe8c660ea49cf318eb",
    8: "f7dc3931d9c60b7079b2bee4a24c3f93cdaa7cd132015acd2300793d3ca5879c",
}


def test_polynomial_arithmetic_basics():
    x = SymPoly.variable("a0")
    one = SymPoly.constant(1)
    assert (x + one) * (x - one) == x * x - one
    assert x - x == SymPoly()
    assert (x + x) == 2 * x
    assert SymPoly.constant(0) == SymPoly()


def test_constants_hash_as_the_ints_they_equal():
    """A constant polynomial equals its int, so a set or dict finds either
    by the other."""
    for c in (0, 3, -1, 2**40):
        poly = SymPoly.constant(c)
        assert poly == c and hash(poly) == hash(c)
        assert poly in {c} and c in {poly}
        assert {c: "int"}[poly] == "int" and {poly: "poly"}[c] == "poly"
    assert SymPoly() in {0} and 0 in {SymPoly()}
    assert SymPoly.variable("a0") not in {0, 1}


def test_coefficient_overflow_is_hard_failure():
    big = SymPoly.constant(2**62)
    with pytest.raises(CoefficientOverflowError):
        _ = big * 4
    with pytest.raises(CoefficientOverflowError):
        _ = big + big
    with pytest.raises(CoefficientOverflowError):
        _ = -big * 3
    assert -big - big == SymPoly.constant(-2**63)


def test_coefficient_overflow_refused_on_input():
    """The constructors check the bound that results are held to: the
    two in-range edges construct, one past either edge is refused."""
    for c in (2**63 - 1, -2**63):
        assert SymPoly.constant(c).terms == {(0,) * 8: c}
        assert SymPoly.monomial(c, a1=2).terms == {(0, 2, *(0,) * 6): c}
    for c in (2**63, -2**63 - 1):
        with pytest.raises(CoefficientOverflowError):
            SymPoly.constant(c)
        with pytest.raises(CoefficientOverflowError):
            SymPoly.monomial(c, a1=2)
        with pytest.raises(CoefficientOverflowError):
            SymPoly({(1, 0, 0, 0, 0, 0, 0, 0): 1, (0,) * 8: c})
        # no polynomial equals an out-of-range constant, and asking so
        # does not raise
        assert SymPoly.constant(1) != c


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
        assert divisible_by(v.c1, "a1")
        assert divisible_by(v.c2, "a2")


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


def test_repr_in_grlex_order():
    poly = (SymPoly.monomial(-1, a0=2, B=1) + SymPoly.monomial(3, a1=1) - 2
            + SymPoly.variable("E") - SymPoly.monomial(4, a2=3, C=2))
    assert repr(poly) == "-2 + E + 3*a1 - a0^2*B - 4*a2^3*C^2"
    assert repr(SymPoly()) == "0"
    assert repr(SymPoly.constant(-1)) == "-1"
    assert repr(-SymPoly.variable("a0")) == "-a0"


def test_evaluate_matches_manual():
    poly = SymPoly.monomial(3, a0=2, B=1) - SymPoly.constant(4)
    # 3*a0^2*B - 4 at a0=5, B=2 mod 7: 3*25*2 - 4 = 146 -> 146 mod 7 = 6
    vals = {name: 0 for name in VARIABLES}
    vals.update(a0=5, B=2)
    assert poly.evaluate(vals, 7) == 6


@pytest.mark.parametrize("n", range(1, MAX_SYM_POWER + 1))
def test_expansion_listing_is_pinned(n):
    got = hashlib.sha256(expansion_listing(n).encode()).hexdigest()
    assert got == LISTING_SHA256[n]


def random_terms(rng):
    """A sparse {exponent tuple: coefficient} dict: up to 6 terms, each
    exponent 0-6 (most of them 0), coefficients of either sign."""
    terms = {}
    for _ in range(rng.randrange(7)):
        exps = tuple(rng.randrange(1, 7) if rng.random() < 0.3 else 0
                     for _ in VARIABLES)
        terms[exps] = rng.choice((-1, 1)) * rng.randrange(1, 10)
    return terms


def random_pairs(seed, count):
    """Pairs of sparse term dicts: random, sharing negated terms (so sums
    cancel to zero), against a constant, and against the empty poly."""
    rng = random.Random(seed)
    for i in range(count):
        x, y = random_terms(rng), random_terms(rng)
        if i % 4 == 1:
            y.update({e: -c for e, c in x.items() if rng.random() < 0.7})
        elif i % 4 == 2:
            y = {(0,) * len(VARIABLES): rng.choice((-3, -1, 1, 2))}
        elif i % 4 == 3:
            y = {}
        yield x, y


@pytest.mark.parametrize("seed", range(5))
def test_arithmetic_matches_tuple_oracle(seed):
    for x, y in random_pairs(seed, 60):
        px, py = SymPoly(x), SymPoly(y)
        neg_y = {e: -c for e, c in y.items()}
        assert (px + py).terms == poly_add(x, y)
        assert (px - py).terms == poly_add(x, neg_y)
        assert (px - px).terms == {}
        assert (px * py).terms == poly_mul(x, y)
        assert (px * py).terms == (py * px).terms
        assert (px == py) is (x == y)
        assert px + py == SymPoly(poly_add(x, y))
        assert hash(px + py) == hash(py + px) == hash(SymPoly(poly_add(x, y)))
        assert hash(px * py) == hash(py * px)


@pytest.mark.parametrize("seed", range(5))
def test_queries_match_tuple_oracle(seed):
    rng = random.Random(100 + seed)
    for x, y in random_pairs(seed, 60):
        for terms in (x, poly_mul(x, y), poly_add(x, y)):
            poly = SymPoly(terms)
            assert poly.terms == terms
            assert poly.sorted_terms() == sorted(
                terms.items(), key=lambda t: grlex_key(t[0]))
            assert poly.a_monomial_count() == len({e[:3] for e in terms})
            assert poly.a_degree() == max(
                (sum(e[:3]) for e in terms), default=0)
            vals = {name: rng.randrange(-50, 50) for name in VARIABLES}
            for p in (2, 7, 101):
                assert poly.evaluate(vals, p) == poly_evaluate(terms, vals, p)


def test_a_monomials_aggregate_over_parameters():
    poly = SymPoly.monomial(1, a1=2, A=1) + SymPoly.monomial(5, a1=2, D=3)
    assert poly.a_monomial_count() == 1
    assert poly.a_degree() == 2
    assert SymPoly().a_monomial_count() == SymPoly().a_degree() == 0


def test_terms_view_is_read_only():
    poly = SymPoly.monomial(3, a0=1)
    with pytest.raises(TypeError):
        poly.terms[(0,) * len(VARIABLES)] = 1
    assert poly == SymPoly.monomial(3, a0=1)


def test_negative_exponent_refused():
    with pytest.raises(ValueError, match="a0"):
        SymPoly.monomial(2, a0=-1)
    with pytest.raises(ValueError, match="non-negative"):
        SymPoly({(0, 0, 0, 0, -2, 0, 0, 0): 1})


@pytest.mark.parametrize("name", ("x", "zz"))
def test_unknown_variable_refused(name):
    with pytest.raises(ValueError, match=f"unknown variable '{name}'"):
        SymPoly.variable(name)
    with pytest.raises(ValueError, match=f"unknown variable '{name}'"):
        SymPoly.monomial(2, **{name: 1})


def test_evaluate_missing_variable_refused():
    vals = {name: 1 for name in VARIABLES if name != "C"}
    with pytest.raises(ValueError, match="no value for variable 'C'"):
        SymPoly.variable("a0").evaluate(vals, 7)


def test_degree_bound():
    top = SymPoly.monomial(1, a0=2**16 - 2)
    a1 = SymPoly.variable("a1")
    assert (top * a1).a_degree() == 2**16 - 1
    with pytest.raises(DegreeOverflowError):
        _ = top * a1 * a1
    with pytest.raises(DegreeOverflowError):
        _ = SymPoly.monomial(1, a0=40000) * SymPoly.monomial(1, E=40000)
    with pytest.raises(DegreeOverflowError):
        SymPoly.monomial(1, a2=2**15, B=2**15)
    assert issubclass(DegreeOverflowError, OverflowError)


def test_sym_pow_refuses_exponents_out_of_range():
    for n in (0, MAX_SYM_POWER + 1):
        with pytest.raises(ValueError,
                           match=f"supported range is 1 <= n <= {MAX_SYM_POWER}"):
            sym_pow(n)


def test_sympoly_int_on_the_left_zero_and_foreign_equality():
    x = SymPoly.variable("a0")
    assert repr(1 - x) == "1 - a0"
    assert 1 - x == SymPoly.constant(1) - x
    assert not bool(x - x)
    assert x - x == 0
    assert (x == "a0") is False
