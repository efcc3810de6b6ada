import random
import time
import warnings
from itertools import combinations, permutations
from math import prod

import pytest
import sympy
from sympy.polys.domains import ZZ as SZZ
from sympy.polys.galoistools import gf_from_int_poly, gf_gcd, gf_mul, gf_pow_mod
from sympy.polys.matrices import DomainMatrix
from sympy.utilities.exceptions import SymPyDeprecationWarning
from hypothesis import example, given, settings, strategies as st

from monogen import exactring
from monogen.algebra import power_basis_algebra, split_algebra
from monogen.errors import (
    ArityMismatch,
    BaseRingMismatch,
    BudgetExceeded,
    MonogenError,
    NonMonic,
    NonSquare,
    SplitFailure,
    ZeroPolynomial,
)
from monogen.exactring import (
    BaseRing,
    Fp,
    SparsePoly,
    ZX,
    ZZ,
    _tup_add,
    _tup_divmod,
    _tup_gcd,
    _tup_mul,
    _tup_powmod,
    _tup_trim,
    berlekamp_factor,
    content_primes,
    MR_BOUND,
    determinant,
    factor_int,
    fp_kernel,
    fp_rref,
    int_adjugate,
    is_prime,
    necklace_count,
)
from monogen.indexform import matrix_of_coefficients
from conftest import (
    difference_product,
    form_terms,
    random_fp_matrix,
    sympy_discriminant,
    sympy_gf_matrix,
    sympy_irreducible,
    sympy_ring,
    to_sympy,
)

# F_5[t]
F5X = BaseRing("FpX", 5)


def v(i, arity=3, base=ZZ):
    """The variable x_(i+1)."""
    return SparsePoly(base, arity, {tuple(int(k == i) for k in range(arity)): base.one})


def c(val, arity=3, base=ZZ):
    return SparsePoly(base, arity, {(0,) * arity: base.coerce(val)})


def vandermonde(n, base=ZZ):
    """Row i holds x_1^i, ..., x_n^i."""
    return [
        [SparsePoly(base, n, {tuple(i * (k == j) for k in range(n)): base.one}) for j in range(n)]
        for i in range(n)
    ]


def from_document(doc):
    """A SparsePoly built from the terms of its to_json() document."""
    base = BaseRing.from_json(doc["base"])
    return SparsePoly(base, len(doc["vars"]), {tuple(e): base.coerce(c) for c, e in doc["terms"]})


class TestPolyArith:
    def test_mismatched_arity_raises(self):
        with pytest.raises(ArityMismatch):
            determinant([[v(0, 2), v(0, 3)], [v(1, 2), v(0, 2)]])

    def test_mismatched_base_raises(self):
        with pytest.raises(BaseRingMismatch):
            determinant([[v(0, 2), v(1, 2)], [v(0, 2, base=Fp(5)), v(1, 2)]])

    def test_canonical_text_round_trip(self):
        f = SparsePoly(ZZ, 3, {(1, 0, 1): 5, (0, 3, 0): -2})
        assert f.text() == "-2*x2^3 + 5*x1*x3"
        doc = f.to_json()
        assert doc == {
            "base": {"kind": "Z"},
            "vars": ["x1", "x2", "x3"],
            "terms": [[-2, [0, 3, 0]], [5, [1, 0, 1]]],
        }
        assert from_document(doc).to_json() == doc

    def test_zx_coefficients(self):
        t3p1 = ZX.coerce([1, 0, 0, 1])
        f = SparsePoly(ZX, 2, {(0, 3): t3p1, (3, 0): ZX.one})
        assert f.text() == "x1^3 + (t^3 + 1)*x2^3"
        doc = f.to_json()
        assert doc["terms"] == [[[1], [3, 0]], [[1, 0, 0, 1], [0, 3]]]
        assert from_document(doc).to_json() == doc

    @pytest.mark.parametrize("base, coeffs, text", [
        (ZX, [0, 1], "t*x1"),
        (ZX, [0, -1], "-t*x1"),
        (ZX, [0, 2], "2*t*x1"),
        (ZX, [1, 1], "(t + 1)*x1"),
        (BaseRing("FpX", 5), [0, 1], "t*x1"),
        (BaseRing("FpX", 5), [0, -1], "4*t*x1"),  # F_p has no sign: -1 is 4
        (BaseRing("FpX", 5), [0, 2], "2*t*x1"),
        (BaseRing("FpX", 5), [1, 1], "(t + 1)*x1"),
    ])
    def test_one_term_coefficient_has_no_parentheses(self, base, coeffs, text):
        assert SparsePoly(base, 1, {(1,): base.coerce(coeffs)}).text() == text


def _random_poly(rng, arity, base=ZZ):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        exps = tuple(rng.randint(0, 2) for _ in range(arity))
        terms[exps] = base.coerce(rng.randint(-5, 5))
    return SparsePoly(base, arity, terms)


PLAN_BASES = [ZZ, Fp(7), ZX, F5X]
PLAN_IDS = ["Z", "F7", "ZX", "F5X"]


class TestDeterminant:
    def test_identity(self):
        m = [[c(int(i == j)) for j in range(3)] for i in range(3)]
        assert determinant(m).terms == {(0, 0, 0): 1}

    def test_upper_triangular_2x2(self):
        one, a, b, zero = c(1, 2), v(0, 2), v(1, 2), c(0, 2)
        assert determinant([[one, a], [zero, b]]).terms == b.terms

    # Vandermonde rows are homogeneous: over Z and F_p the last variable is
    # left out and the one before it carried; over Z[t] and F_p[t], t is.
    @pytest.mark.parametrize("base", PLAN_BASES, ids=PLAN_IDS)
    def test_vandermonde_3(self, base):
        det = determinant(vandermonde(3, base))
        assert det.terms in difference_product(3, base)

    def test_non_square_raises(self):
        with pytest.raises(NonSquare):
            determinant([[c(1), c(2)]])

    # The symbolic determinant is a cofactor (Laplace) expansion; the
    # oracles are the integer Bareiss determinant at random points and sympy.

    def test_bareiss_matches_cofactor_random(self):
        rng = random.Random(11)
        for _ in range(120):
            n = rng.randint(1, 6)
            m = [[_random_poly(rng, 2) for _ in range(n)] for _ in range(n)]
            det = determinant(m)
            for _ in range(3):
                pt = [rng.randint(-4, 4) for _ in range(2)]
                at = [[f.evaluate(pt) for f in row] for row in m]
                assert det.evaluate(pt) == int_adjugate(at)[0]

    def test_bareiss_matches_cofactor_mod_p(self):
        rng = random.Random(13)
        base = Fp(5)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = [[_random_poly(rng, 1, base) for _ in range(n)] for _ in range(n)]
            det = determinant(m)
            for x in range(5):
                at = [[f.evaluate([x]) for f in row] for row in m]
                assert det.evaluate([x]) == int_adjugate(at)[0] % 5

    @pytest.mark.parametrize("base", PLAN_BASES, ids=PLAN_IDS)
    def test_bareiss_vandermonde_5(self, base):
        det = determinant(vandermonde(5, base))
        assert det.terms in difference_product(5, base)
        pt = [2, -1, 3, 0, 5]
        at = [[f.evaluate(pt) for f in row] for row in vandermonde(5)]
        assert det.evaluate(pt) == base.coerce(int_adjugate(at)[0])

    def test_bareiss_matches_cofactor_zx(self):
        rng = random.Random(19)
        for _ in range(60):
            n = rng.randint(1, 6)
            m = [[_random_poly(rng, 2, ZX) for _ in range(n)] for _ in range(n)]
            det = determinant(m)
            for _ in range(3):
                pt, t0 = [rng.randint(-3, 3) for _ in range(2)], rng.randint(-3, 3)
                at = [[_at_t(f.evaluate(pt), t0) for f in row] for row in m]
                assert _at_t(det.evaluate(pt), t0) == int_adjugate(at)[0]

    @pytest.mark.parametrize("base", [ZZ, Fp(5), ZX], ids=["Z", "F5", "ZX"])
    def test_against_sympy(self, base):
        rng = random.Random(17)
        R, _ = sympy_ring(base, 2)
        for n in range(1, 5):
            for _ in range(3):
                m = [[_random_poly(rng, 2, base) for _ in range(n)] for _ in range(n)]
                entries = [[to_sympy(f, R) for f in row] for row in m]
                theirs = DomainMatrix(entries, (n, n), R.to_domain()).det()
                assert determinant(m).terms == form_terms(theirs, base)

    def test_split_6(self):
        m = matrix_of_coefficients(split_algebra(6))
        det = determinant(m)
        assert det.terms in difference_product(6)
        rng = random.Random(23)
        for _ in range(5):
            pt = [rng.randint(-5, 5) for _ in range(6)]
            at = [[f.evaluate(pt) for f in row] for row in m]
            assert det.evaluate(pt) == int_adjugate(at)[0]


@st.composite
def poly_matrices(draw):
    """Square matrix (n <= 5) of polynomials in 1..4 variables, exponents up to 10,
    over Z, F_7, Z[t] or F_5[t], with zero entries, and a seeded rng for points."""
    base = draw(st.sampled_from([ZZ, Fp(7), ZX, F5X]))
    n, arity = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    if base.is_polynomial:
        coeff = st.lists(st.integers(-3, 3), max_size=3)
    else:
        coeff = st.integers(-5, 5)
    entry = st.dictionaries(st.tuples(*[st.integers(0, 10)] * arity), coeff, max_size=3)
    m = [
        [
            SparsePoly(base, arity, {e: base.coerce(c) for e, c in draw(entry).items()})
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return m, draw(st.randoms(use_true_random=False))


def _value(cf, base, t0):
    """A base-ring value as an int: Z[t] and F_p[t] values are taken at t = t0."""
    return _at_t(cf, t0) if base.is_polynomial else cf


class TestPackedDeterminant:
    @settings(max_examples=150, deadline=None)
    @given(poly_matrices())
    def test_matches_integer_determinant_at_points(self, case):
        m, rng = case
        base = m[0][0].base
        det = determinant(m)
        assert det.base == base and det.arity == m[0][0].arity
        if base.kind == "Fp":
            assert all(0 < c < base.p for c in det.terms.values())
        for _ in range(3):
            pt = [rng.randint(-3, 3) for _ in range(det.arity)]
            t0 = rng.randint(-3, 3)
            at = [[_value(f.evaluate(pt), base, t0) for f in row] for row in m]
            want = int_adjugate(at)[0]
            got = _value(det.evaluate(pt), base, t0)
            if base.p is None:
                assert got == want
            else:
                assert got % base.p == want % base.p

    @pytest.mark.parametrize("base", [ZZ, Fp(7), ZX, F5X], ids=["Z", "F7", "ZX", "F5X"])
    @pytest.mark.parametrize("top", [15, 16])
    def test_exponents_at_a_power_of_two_field_boundary(self, base, top):
        # row maxima 8 and top - 8 sum to top: the field is 4 bits wide at
        # top = 15, where x1^15 fills it, and 5 bits at top = 16
        def monomial(*exps):
            return SparsePoly(base, 3, {exps: base.one})

        m = [
            [monomial(8, 0, 0), monomial(0, 8, 1)],
            [monomial(0, top - 8, 0), monomial(top - 8, 0, 1)],
        ]
        det = determinant(m)
        _, (x1, x2, x3, *_) = sympy_ring(base, 3)
        assert det.terms == form_terms(x1**top * x3 - x2**top * x3, base)
        assert set(det.terms) == {(top, 0, 1), (0, top, 1)}


def _composition(cuts, d):
    """The exponent vector of degree d cut at the sorted points cuts."""
    bounds = [0, *sorted(cuts), d]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def leibniz_cases(draw):
    """Square matrix (n <= 5) over Z, F_p, Z[t] or F_p[t] in 1..3 variables,
    with rows all homogeneous or not, zero entries, zero rows and
    coefficients of either sign up to 2^40."""
    base = draw(st.sampled_from([ZZ, Fp(7), Fp(2**31 - 1), ZX, F5X]))
    n, arity = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    homogeneous = draw(st.booleans())
    big = st.integers(-(2**40), 2**40)
    coeff = st.lists(big, max_size=3) if base.is_polynomial else big
    m = []
    for _ in range(n):
        if homogeneous:
            d = draw(st.integers(0, 4))
            cuts = st.lists(st.integers(0, d), min_size=arity - 1, max_size=arity - 1)
            exps = cuts.map(lambda c, d=d: _composition(c, d))
        else:
            exps = st.tuples(*[st.integers(0, 4)] * arity)
        entry = st.dictionaries(exps, coeff, max_size=3)
        zero_row = draw(st.integers(0, 9)) == 0
        m.append([
            SparsePoly(base, arity, {} if zero_row else
                       {e: base.coerce(c) for e, c in draw(entry).items()})
            for _ in range(n)
        ])
    return m


def leibniz(m):
    """The terms of the determinant as the sum over permutations of signed
    products, computed in sympy."""
    base, arity = m[0][0].base, m[0][0].arity
    R, _ = sympy_ring(base, arity)
    entries = [[to_sympy(f, R) for f in row] for row in m]
    total = R.zero
    for perm in permutations(range(len(m))):
        term = R.one
        for i, j in enumerate(perm):
            term *= entries[i][j]
            if not term:
                break
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return form_terms(total, base)


# diag(2^40 x1, ..., 2^40 x1): the determinant's one coefficient, 2^200,
# equals the bound on it, the product of the rows' L1 norms
_AT_THE_BOUND = [
    [SparsePoly(ZZ, 1, {(1,): 2**40} if i == j else {}) for j in range(5)] for i in range(5)
]


class TestBlockedDeterminant:
    @settings(max_examples=120, deadline=None)
    @given(leibniz_cases())
    @example(_AT_THE_BOUND)
    def test_equals_leibniz(self, m):
        assert determinant(m).terms == leibniz(m)

    def test_coefficient_at_the_bound(self):
        assert determinant(_AT_THE_BOUND).terms == {(5,): 2**200}


def _at_t(cf, t0):
    return sum(k * t0**i for i, k in enumerate(cf))


class TestFpLinearAlgebra:
    def test_empty(self):
        assert fp_rref([], 5) == ([], [])
        assert fp_kernel([], 5) == []

    def test_zero_matrix(self):
        assert fp_rref([[0, 0, 0], [0, 0, 0]], 3) == ([], [])
        assert fp_kernel([[0, 0], [0, 0]], 3) == [(1, 0), (0, 1)]

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_rref_against_sympy(self, p):
        rng = random.Random(p)
        for _ in range(80):
            m = random_fp_matrix(rng, p)
            # entries outside [0, p) must reduce the same way
            shifted = [[x + p * rng.randint(-2, 2) for x in row] for row in m]
            rows, pivots = fp_rref(shifted, p)
            ref, ref_pivots = sympy_gf_matrix(m, p).rref()
            ref_rows = [tuple(int(x) % p for x in r) for r in ref.to_list()[: len(ref_pivots)]]
            assert (rows, pivots) == (ref_rows, list(ref_pivots))

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_kernel(self, p):
        rng = random.Random(100 + p)
        for _ in range(80):
            m = random_fp_matrix(rng, p)
            ncols = len(m[0])
            ker = fp_kernel(m, p)
            assert len(ker) == ncols - sympy_gf_matrix(m, p).rank()
            for vec in ker:
                assert all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in m)
            if ker:
                assert sympy_gf_matrix(ker, p).rank() == len(ker)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_first_kernel_vector_is_the_first_dependency(self, p):
        # for the columns e, b, b^2, ... of powers this is the monic minimal polynomial
        rng = random.Random(200 + p)
        for _ in range(80):
            m = random_fp_matrix(rng, p)
            ker = fp_kernel(m, p)
            if not ker:
                continue
            *lower, lead = _tup_trim(ker[0])
            f = len(lower)
            assert lead == 1
            assert sympy_gf_matrix([row[:f] for row in m], p, f).rank() == f
            assert sympy_gf_matrix([row[: f + 1] for row in m], p).rank() == f


@st.composite
def int_matrices(draw):
    """Square integer matrix of size 1..7, entries up to +-2^40, with small
    entries mixed in, and sometimes a zero row or a repeated row."""
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-2, 2), st.integers(-(1 << 40), 1 << 40))
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    i = draw(st.integers(0, n - 1))
    singular = draw(st.sampled_from([None, "zero row", "repeated row"]))
    if singular == "zero row":
        m[i] = [0] * n
    elif singular == "repeated row" and n > 1:
        m[i] = list(m[i - 1])
    return m


class TestIntAdjugate:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    @example([[0, 1], [1, 0]])
    @example([[0, 0, 1], [0, 2, 0], [3, 0, 0]])
    def test_against_sympy(self, m):
        n = len(m)
        det, adj = int_adjugate(m)
        K = sympy.ZZ
        assert det == DomainMatrix([[K(x) for x in row] for row in m], (n, n), K).det()
        if det == 0:
            assert adj is None
            return
        scalar = [[det * (i == j) for j in range(n)] for i in range(n)]
        assert _int_matmul(adj, m) == scalar and _int_matmul(m, adj) == scalar

    def test_non_square_raises(self):
        for m in ([], [[1, 2]], [[1, 2], [3]]):
            with pytest.raises(NonSquare):
                int_adjugate(m)


def _int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


class TestContentPrimes:
    def test_paper_cubic_form_has_trivial_content(self):
        f = SparsePoly(ZZ, 3, {(0, 3, 0): 5, (0, 0, 3): -7})
        assert content_primes(f) == set()

    def test_biquadratic_form_content_two(self):
        _, (a, b, cc, d) = sympy_ring(ZZ, 4)
        f = -4 * (2 * b**2 - 3 * cc**2) * (b**2 - 3 * d**2) * (cc**2 - 2 * d**2)
        assert content_primes(SparsePoly(ZZ, 4, form_terms(f, ZZ))) == {2}

    def test_six_x(self):
        assert content_primes(SparsePoly(ZZ, 3, {(1, 0, 0): 6})) == {2, 3}

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            content_primes(SparsePoly(ZZ, 2))

    def test_scalar_multiple_property(self):
        rng = random.Random(3)
        for _ in range(30):
            f = _random_poly(rng, 2)
            if f.is_zero:
                continue
            k = rng.choice([2, 3, 5, 6, 10])
            scaled = SparsePoly(ZZ, 2, {e: k * x for e, x in f.terms.items()})
            assert content_primes(scaled) == content_primes(f) | set(
                sympy.factorint(k)
            )


def sympy_split_roots(p, coeffs):
    """The roots of f over F_p if sympy factors it into distinct linear factors, else None."""
    x = sympy.Symbol("x")
    expr = sum(co * x**i for i, co in enumerate(coeffs))
    with warnings.catch_warnings():
        # sympy sorts equal-degree factors by comparing GF(p) elements, which it deprecates
        warnings.simplefilter("ignore", SymPyDeprecationWarning)
        factors = sympy.factor_list(expr, x, modulus=p)[1]
    if any(m != 1 or sympy.Poly(g, x).degree() != 1 for g, m in factors):
        return None
    return sorted(-int(sympy.Poly(g, x).all_coeffs()[1]) % p for g, _ in factors)


class TestBerlekamp:
    def test_char2_square(self):
        # x^2 + 1 = (x + 1)^2 over F_2: a repeated root
        with pytest.raises(SplitFailure):
            berlekamp_factor((1, 0, 1), 2)

    def test_mod5_split(self):
        assert berlekamp_factor((1, 0, 1), 5) == [2, 3]

    def test_dedekind_minpoly_mod2(self):
        # x^3 - x^2 - 2x - 8 = x^2 (x+1) mod 2: the root 0 is double
        with pytest.raises(SplitFailure):
            berlekamp_factor((0, 0, 1, 1), 2)

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            berlekamp_factor((), 3)
        with pytest.raises(ZeroPolynomial):
            berlekamp_factor((3, 0, -6), 3)

    def test_non_monic_raises(self):
        with pytest.raises(NonMonic):
            berlekamp_factor((1, 2), 3)

    @pytest.mark.parametrize("p", [1, 15, 2**61 + 1])
    def test_composite_modulus_raises(self, p):
        with pytest.raises(MonogenError, match="not prime"):
            berlekamp_factor((0, 1), p)

    def test_negative_coefficients_read_mod_p(self):
        # (x - 3)(x + 2) over Z, with coefficients -c as the minimal
        # polynomial of a linear recurrence comes out; -2 = 5 in F_7
        assert berlekamp_factor((-6, -1, 1), 7) == [3, 5]
        assert berlekamp_factor((-6, -1, 1), 7) == berlekamp_factor((1, 6, 8), 7)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_factorizations_multiply_back(self, p):
        rng = random.Random(100 + p)
        for _ in range(25):
            roots = rng.sample(range(p), rng.randint(1, p))
            f = (1,)
            for r in roots:
                f = _tup_mul(f, (-r % p, 1), p)
            got = berlekamp_factor(f, p)
            assert got == sorted(roots) == sympy_split_roots(p, f)
            back = (1,)
            for r in got:
                back = _tup_mul(back, (-r % p, 1), p)
            assert back == f

    def test_against_sympy(self):
        rng = random.Random(42)
        split = 0
        for p in (2, 3, 5, 7):
            for _ in range(40):
                deg = rng.randint(1, 6)
                coeffs = [rng.randrange(p) for _ in range(deg)] + [1]
                theirs = sympy_split_roots(p, coeffs)
                if theirs is None:
                    with pytest.raises(SplitFailure):
                        berlekamp_factor(coeffs, p)
                else:
                    split += 1
                    assert berlekamp_factor(coeffs, p) == theirs
        assert 0 < split < 160

    @pytest.mark.parametrize("p", [2147483659, 2**61 - 1])
    def test_large_prime_roots_without_a_walk(self, p):
        # the roots p - 5 and p - 7 lie far from 0, where a walk over F_p would start
        start = time.perf_counter()
        roots = berlekamp_factor((35, 12, 1), p)
        assert time.perf_counter() - start < 0.1
        assert roots == [p - 7, p - 5]

    @pytest.mark.parametrize("p, f", [(2, (0, 1, 1)), (7, (6, -5, 1)), (101, (6, -5, 1))])
    def test_split_that_never_parts_raises(self, monkeypatch, p, f):
        # x^p = x mod f holds, but every gcd is taken with (1,) - 1 = 0, so no
        # piece ever splits; two distinct roots always part at some a < p
        real = exactring._tup_powmod

        def no_split(a, k, g, q):
            return real(a, k, g, q) if (a, k) == ((0, 1), p) else (1,)

        monkeypatch.setattr(exactring, "_tup_powmod", no_split)
        with pytest.raises(SplitFailure, match=f"did not part at any a < {p}"):
            berlekamp_factor(f, p)


def _sympy_divmod(a, f, p=None):
    """sympy's quotient and remainder as tuples, constant first, in [0, p) over F_p."""
    x = sympy.Symbol("x")
    opts = {} if p is None else {"modulus": p}
    polys = [sympy.Poly(list(reversed(c)) or [0], x, **opts) for c in (a, f)]
    return tuple(
        _tup_trim(int(c) if p is None else int(c) % p for c in reversed(g.all_coeffs()))
        for g in sympy.div(*polys)
    )


class TestTupDivmod:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([None, 2, 3, 7, 2147483659]),
        st.lists(st.integers(-10**6, 10**6), max_size=9),
        st.lists(st.integers(-10**6, 10**6), max_size=5),
    )
    def test_matches_sympy_div(self, p, a, f):
        # a = q*f + r with deg r < deg f, over Z and over F_p, for a monic f
        f = _tup_trim(f) + (1,)
        if p is not None:
            a, f = [c % p for c in a], tuple(c % p for c in f)
        q, r = _tup_divmod(a, f, p)
        assert len(r) < len(f)
        assert _tup_add(_tup_mul(q, f, p), r, p) == _tup_trim(a)
        assert (q, r) == _sympy_divmod(a, f, p)


TUP_PRIMES = [2, 3, 31, 2**31 - 1]


def _gf(c, p):
    """A tuple, constant first, as a sympy GF(p) dense list, top first."""
    return gf_from_int_poly(list(reversed(c)), p)


def _from_gf(g):
    return tuple(reversed(g))


@st.composite
def monic_mod_p(draw, p, min_degree=0, max_degree=6):
    """A monic polynomial over F_p, coefficients in [0, p), constant first."""
    n = draw(st.integers(min_degree, max_degree))
    return tuple(draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))) + (1,)


class TestTupPowmod:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from(TUP_PRIMES))
    def test_matches_sympy_pow_mod(self, data, p):
        # a is any integer tuple, reduced mod p and mod f on the way in
        f = data.draw(monic_mod_p(p, min_degree=1), label="f")
        a = data.draw(st.lists(st.integers(-(10**12), 10**12), max_size=9), label="a")
        k = data.draw(st.one_of(st.integers(1, 70), st.sampled_from([p, (p - 1) // 2 or 1])))
        got = _tup_powmod(tuple(a), k, f, p)
        assert got == _from_gf(gf_pow_mod(_gf(a, p), k, _gf(f, p), p, SZZ))
        assert len(got) < len(f) and all(0 <= c < p for c in got)


@st.composite
def gcd_cases(draw):
    """(a, b, p): a = d*a1 is monic and reduced; b = d*b1 times a scalar is
    neither monic nor reduced: p times random integers is added to its
    coefficients, and a multiple of p may sit above its leading one."""
    p = draw(st.sampled_from(TUP_PRIMES))
    d = draw(monic_mod_p(p, max_degree=3), label="d")
    a1 = draw(monic_mod_p(p, max_degree=4), label="a1")
    b1 = draw(monic_mod_p(p, max_degree=4), label="b1")
    scale = draw(st.integers(1, p - 1), label="scale")
    a = _from_gf(gf_mul(_gf(d, p), _gf(a1, p), p, SZZ))
    b = [scale * c for c in _from_gf(gf_mul(_gf(d, p), _gf(b1, p), p, SZZ))]
    lift = draw(st.lists(st.integers(-5, 5), min_size=len(b), max_size=len(b)))
    above = draw(st.lists(st.integers(-3, 3), max_size=2), label="above")
    return a, tuple(c + p * m for c, m in zip(b, lift)) + tuple(p * m for m in above), p


class TestTupGcd:
    @settings(max_examples=200, deadline=None)
    @given(gcd_cases())
    @example(((0, 1, 1), (2, 1), 2))
    @example(((0, 1, 1), (1, 2), 2))
    def test_matches_sympy_gcd(self, case):
        a, b, p = case
        got = _tup_gcd(a, b, p)
        want = _from_gf(gf_gcd(_gf(a, p), _gf(b, p), p, SZZ))
        assert got == want
        assert _tup_divmod(a, want, p)[1] == ()

    @pytest.mark.parametrize("p", TUP_PRIMES)
    def test_zero_b_gives_a(self, p):
        a = (1 % p, 2 % p, 1)
        assert _tup_gcd(a, (0, 0), p) == a


BASES = [ZZ, Fp(5), ZX, F5X]
BASE_IDS = ["Z", "F5", "ZX", "F5X"]
T = 2**64  # a Z[t] element with coefficients below 2^63 is determined by its value at T


def _int_value(base, a):
    """Z and F_p elements as ints; Z[t] and F_p[t] elements at t = T."""
    return sum(c * T**i for i, c in enumerate(a)) if base.is_polynomial else a


def _lift(base):
    """The integral base that base is a reduction of."""
    return ZX if base.is_polynomial else ZZ


def _elements(base):
    coeff = st.integers(-(10**9), 10**9)
    raw = st.lists(coeff, max_size=5) if base.is_polynomial else coeff
    return raw.map(base.coerce)


class TestBaseRing:
    @pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
    def test_coerce_ints_and_lists(self, base):
        want = {ZZ: -7, Fp(5): 3, ZX: (-7,), F5X: (3,)}[base]
        assert base.coerce(-7) == want
        zero, one = ((), (1,)) if base.is_polynomial else (0, 1)
        assert base.coerce(0) == base.zero == zero and base.one == one
        if base.is_polynomial:
            reduced = (1, -12, 0, 7) if base.p is None else (1, 3, 0, 2)
            assert base.coerce([1, -12, 0, 7, 0, 0]) == reduced
            assert base.coerce((1, -12, 0, 7)) == reduced
            assert base.coerce([]) == base.coerce([0, 0]) == base.coerce([5 * (base.p or 0)]) == ()
        else:
            with pytest.raises(MonogenError, match="cannot coerce"):
                base.coerce([1, 2])

    @pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5, "1", None, [1, True], (1.0,), [[1]]])
    def test_coerce_rejects_bools_and_floats(self, base, bad):
        with pytest.raises(MonogenError, match="cannot coerce"):
            base.coerce(bad)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(BASES))
    def test_arithmetic_against_integer_reference(self, data, base):
        # over Z and Z[t] (at t = T) the ring maps to the integers; F_p and
        # F_p[t] agree with the same operation over Z or Z[t], reduced mod p
        a, b = data.draw(_elements(base)), data.draw(_elements(base))
        got = {"add": base.add(a, b), "neg": base.neg(a), "mul": base.mul(a, b)}
        if base.p is None:
            x, y = _int_value(base, a), _int_value(base, b)
            want = {"add": x + y, "neg": -x, "mul": x * y}
            assert {op: _int_value(base, r) for op, r in got.items()} == want
        else:
            lift = _lift(base)
            want = {"add": lift.add(a, b), "neg": lift.neg(a), "mul": lift.mul(a, b)}
            assert got == {op: base.coerce(r) for op, r in want.items()}
        for r in got.values():
            assert base.coerce(r) == r  # results are normalized
        assert not base.add(a, base.neg(a))
        assert base.mul(a, base.one) == a and base.add(a, base.zero) == a
        assert not base.mul(a, base.zero)

    @pytest.mark.parametrize(
        "base, units, others",
        [
            (ZZ, [1, -1], [0, 2, -2, 5]),
            (Fp(5), [1, 2, 3, 4], [0]),
            (ZX, [(1,), (-1,)], [(), (2,), (0, 1), (1, 1), (-1, 0, 1)]),
            (F5X, [(1,), (2,), (4,)], [(), (0, 1), (1, 1), (3, 0, 2)]),
        ],
        ids=BASE_IDS,
    )
    def test_is_unit(self, base, units, others):
        assert all(base.is_unit(u) for u in units)
        assert not any(base.is_unit(x) for x in others)

    @pytest.mark.parametrize(
        "base, negative, positive",
        [
            (ZZ, [-1, -7], [0, 1, 7]),
            (Fp(5), [3, 4], [0, 1, 2]),
            (ZX, [(-1,), (5, -2), (0, 0, -1)], [(), (1,), (-5, 2), (-3, 0, 1)]),
            (F5X, [(3,), (0, 4), (1, 1, 3)], [(), (2,), (4, 2), (3, 3, 1)]),
        ],
        ids=BASE_IDS,
    )
    def test_is_negative_by_leading_coefficient(self, base, negative, positive):
        assert all(base.is_negative(x) for x in negative)
        assert not any(base.is_negative(x) for x in positive)

    @pytest.mark.parametrize(
        "base, elem, json, text",
        [
            (ZZ, -7, -7, "-7"),
            (ZZ, 0, 0, "0"),
            (Fp(5), 3, 3, "3"),
            (ZX, (), [], "0"),
            (ZX, (1, -2), [1, -2], "-2*t + 1"),
            (ZX, (0, 1, -1), [0, 1, -1], "-t^2 + t"),
            (ZX, (-3, 0, 1), [-3, 0, 1], "t^2 - 3"),
            (ZX, (-1, 3, 0, 1), [-1, 3, 0, 1], "t^3 + 3*t - 1"),
            (F5X, (4, 0, 1), [4, 0, 1], "t^2 + 4"),
            (F5X, (0, 2), [0, 2], "2*t"),
        ],
    )
    def test_json_and_text(self, base, elem, json, text):
        assert base.elem_to_json(elem) == json
        assert base.format_elem(elem) == text
        if base.is_polynomial and elem:
            assert base.format_elem(elem, "x") == text.replace("t", "x")

    def test_identity_and_serialization(self):
        for base in BASES:
            assert BaseRing.from_json(base.to_json()) == base
            assert hash(BaseRing(base.kind, base.p)) == hash(base)
        assert ZZ != Fp(5) and F5X != BaseRing("FpX", 7) and ZX != F5X
        assert ZZ.to_json() == {"kind": "Z"} and F5X.to_json() == {"kind": "FpX", "p": 5}
        assert repr(F5X) == "BaseRing(FpX, p=5)" and repr(ZX) == "BaseRing(ZX)"


class TestNecklaceCount:
    @pytest.mark.parametrize(
        "p,f,expected", [(2, 1, 2), (2, 2, 1), (3, 2, 3), (2, 3, 2), (5, 1, 5)]
    )
    def test_known_values(self, p, f, expected):
        assert necklace_count(p, f) == expected

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_degree_partition_identity(self, p):
        # every monic degree-m polynomial factors into irreducibles, so
        # sum over f | m of f * N_p(f) counts roots of x^(p^m) - x
        for m in range(1, 7):
            total = sum(
                f * necklace_count(p, f) for f in range(1, m + 1) if m % f == 0
            )
            assert total == p**m

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_brute_force_enumeration(self, p):
        import itertools

        for f in range(1, 5):
            count = 0
            for tail in itertools.product(range(p), repeat=f):
                if sympy_irreducible(p, tail + (1,)):
                    count += 1
            assert necklace_count(p, f) == count


class TestDiscriminant:
    """The discriminant of Z[x]/(f) in the power basis is disc(f)."""

    @pytest.mark.parametrize(
        "coeffs,expected",
        [([1, 0, 1], -4), ([0, -1, 1], 1), ([-8, -2, -1, 1], -2012)],
    )
    def test_known_values(self, coeffs, expected):
        assert power_basis_algebra(coeffs).discriminant() == expected

    def test_non_monic_raises(self):
        with pytest.raises(NonMonic):
            power_basis_algebra([1, 2])

    def test_against_sympy(self):
        rng = random.Random(5)
        for _ in range(40):
            deg = rng.randint(1, 6)
            coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
            assert power_basis_algebra(coeffs).discriminant() == sympy_discriminant(coeffs)


def _reference_value(poly, values):
    """Term-by-term value of a Z or F_p polynomial: one product per monomial."""
    total = sum(c * prod(x**e for x, e in zip(values, exps)) for exps, c in poly.terms.items())
    return total if poly.base.p is None else total % poly.base.p


@st.composite
def int_polys(draw, max_arity=4):
    """A Z or F_p polynomial (p in 2, 3, 5, 7) and a point to evaluate it at."""
    base = draw(st.sampled_from([ZZ, Fp(2), Fp(3), Fp(5), Fp(7)]))
    arity = draw(st.integers(1, max_arity))
    exps = st.tuples(*[st.integers(0, 4)] * arity)
    terms = draw(st.dictionaries(exps, st.integers(-50, 50), max_size=8))
    poly = SparsePoly(base, arity, {e: base.coerce(c) for e, c in terms.items()})
    point = draw(st.lists(st.integers(-9, 9), min_size=arity, max_size=arity))
    return poly, point


class TestEvaluate:
    @settings(max_examples=200, deadline=None)
    @given(int_polys())
    def test_int_path_matches_term_by_term(self, case):
        poly, point = case
        assert poly.evaluate(point) == _reference_value(poly, point)

    def test_fp_value_is_reduced(self):
        f = SparsePoly(Fp(5), 2, {(3, 0): 4, (1, 1): 2, (0, 0): 1})
        assert f.evaluate([-7, 12]) == (4 * (-7) ** 3 + 2 * -7 * 12 + 1) % 5

    def test_non_integer_value_rejected(self):
        with pytest.raises(MonogenError):
            v(0).evaluate([1.5, 0, 0])


class TestFactorInt:
    def test_small_values_against_sympy(self):
        for n in range(-30, 2 * 10**5 + 1):
            assert factor_int(n) == (sympy.factorint(abs(n)) if abs(n) > 1 else {})

    def test_products_of_primes_above_trial_division(self):
        # primes about the trial-division bound 1000 and far above it
        for primes in ([1009, 1013], [1009, 1009], [997, 1009], [10**6 + 3, 10**6 + 33],
                       [1009, 10**9 + 7], [2, 997, 10**6 + 3]):
            n = prod(primes)
            assert factor_int(n) == sympy.factorint(n), primes

    def test_random_prime_products_against_sympy(self):
        # Products of primes up to 10^12.  Pollard-Brent needs about the
        # square root of the second-largest prime in steps, so that one is
        # kept below 10^9 to bound the test's run time.
        rng = random.Random(7)
        done = 0
        while done < 150:
            primes = sorted(
                sympy.randprime(2, 10 ** rng.randint(1, 12)) for _ in range(rng.randint(1, 4))
            )
            n = prod(primes)
            if n >= MR_BOUND or (len(primes) > 1 and primes[-2] > 10**9):
                continue
            assert factor_int(n) == sympy.factorint(n), primes
            done += 1

    def test_cube_of_large_prime(self):
        # 1.0e27 lies beyond the primality test; the cube root is found first
        assert factor_int((10**9 + 7) ** 3) == {10**9 + 7: 3}

    def test_mixed_powers(self):
        n = 2**10 * 3 * 1009**3 * (10**6 + 3) ** 2
        assert factor_int(-n) == {2: 10, 3: 1, 1009: 3, 10**6 + 3: 2}

    def test_untestable_cofactor_raises(self):
        # about 10^33, beyond the primality test and not a perfect power:
        # Pollard-Brent splits it before any primality test is needed
        assert factor_int(1009**7 * (10**6 + 3) ** 2) == {1009: 7, 10**6 + 3: 2}

    def test_prime_beyond_bound_raises(self):
        # 2^89 - 1 is a prime above MR_BOUND, so Pollard-Brent runs out of steps
        with pytest.raises(BudgetExceeded, match="Pollard-Brent.*primality test"):
            factor_int(2**89 - 1)


class TestModulus:
    def test_primality_is_the_only_gate(self):
        assert Fp(2147483659).p == 2147483659  # beyond 2^31
        for bad in (4, 1, None, "7"):
            with pytest.raises(MonogenError, match="is not a prime"):
                Fp(bad)
        with pytest.raises(BudgetExceeded, match="primality test"):
            Fp(sympy.nextprime(MR_BOUND))


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
        for n in range(25):
            assert is_prime(n) == (n in primes)

    def test_carmichael(self):
        assert not is_prime(561)
        assert not is_prime(1729)
        assert is_prime(2**31 - 1)

    def test_strong_pseudoprimes(self):
        # strong pseudoprimes to bases 2, 3, 5, 7 and to bases 2..23
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_against_sympy(self):
        rng = random.Random(11)
        for n in list(range(2000)) + [rng.randrange(MR_BOUND) for _ in range(300)]:
            assert is_prime(n) == sympy.isprime(n), n
        assert is_prime(sympy.prevprime(MR_BOUND))

    def test_beyond_bound_raises(self):
        with pytest.raises(BudgetExceeded, match="primality test"):
            is_prime(sympy.nextprime(MR_BOUND))
        assert not is_prime(2 * MR_BOUND)  # an even number needs no test
