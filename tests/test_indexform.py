import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ as SZZ
from sympy.polys.matrices import DomainMatrix

from monogen.errors import LengthMismatch
from monogen.algebra import OrderPresentation, StructureAlgebra, power_basis_algebra, split_algebra
from monogen.exactring import (
    BaseRing,
    Fp,
    SparsePoly,
    ZX,
    ZZ,
    determinant,
    int_adjugate,
)
from monogen.indexform import (
    check_monogenerator,
    index_form,
    matrix_of_coefficients,
)
from conftest import (
    change_basis,
    dedekind_order,
    difference_product,
    form_terms,
    gaussian_order,
    mult_matrix,
    power_basis_algebra_over,
    random_algebra,
    random_unimodular,
    sympy_discriminant,
    sympy_ring,
)


class TestMatrixOfCoefficients:
    def test_split_is_vandermonde(self):
        m = matrix_of_coefficients(split_algebra(3))
        for i in range(3):
            for j in range(3):
                assert m[i][j].terms == {tuple(i * (k == j) for k in range(3)): 1}

    def test_gaussian(self):
        # 1 is e_1, so theta = x2*e_2 and x1 never appears
        m = matrix_of_coefficients(gaussian_order())
        assert [[f.terms for f in row] for row in m] == [[{(0, 0): 1}, {}], [{}, {(0, 1): 1}]]

    def test_rank_one(self):
        alg = power_basis_algebra([1, 1])  # x + 1: rank 1
        m = matrix_of_coefficients(alg)
        assert len(m) == 1 and m[0][0].terms == {(0,): 1}


class TestIndexForm:
    def test_dedekind(self):
        f = index_form(dedekind_order())
        _, (a, b, c) = sympy_ring(ZZ, 3)
        expect = 2 * b**3 + 15 * b**2 * c + 31 * b * c**2 + 20 * c**3
        assert f.form.terms == form_terms(expect, ZZ)

    def test_rank_one_constant(self):
        f = index_form(power_basis_algebra([3, 1]))
        assert f.form.terms == {(0,): 1}
        res = check_monogenerator(power_basis_algebra([3, 1]), [0])
        assert res["is_monogenerator"]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_vandermonde_oracle(self, n):
        f = index_form(split_algebra(n))
        assert f.form.terms in difference_product(n)

    def test_homogeneous_degree(self):
        for alg in (dedekind_order(), split_algebra(4)):
            f = index_form(alg)
            n = alg.rank
            assert f.form.is_homogeneous(n * (n - 1) // 2)


@st.composite
def rank_one_algebras(draw):
    """e^2 = c*e and 1 = u*e with u*c = 1, over Z, F_p (p <= 7), Z[t] or F_p[t]."""
    kind = draw(st.sampled_from(["Z", "Fp", "ZX", "FpX"]))
    p = draw(st.sampled_from([2, 3, 5, 7])) if kind in ("Fp", "FpX") else None
    u = draw(st.sampled_from([1, -1]) if p is None else st.integers(1, p - 1))
    c = u if p is None else pow(u, -1, p)
    return StructureAlgebra(BaseRing(kind, p), 1, [[[c]]], [u], f"e^2 = {c}e, 1 = {u}e")


class TestRankOne:
    @settings(max_examples=80, deadline=None)
    @given(rank_one_algebras())
    def test_form_is_the_one_by_one_determinant(self, alg):
        base, p = alg.base, alg.base.p
        form = index_form(alg).form
        assert form.terms == determinant(matrix_of_coefficients(alg)).canonical_sign().terms
        # 1 over Z and Z[t]; over F_p and F_p[t] the coordinate of 1, sign-normalized
        u = alg.identity[0][0] if base.is_polynomial else alg.identity[0]
        assert form.terms == {(0,): base.coerce(1 if p is None else min(u, p - u))}
        assert check_monogenerator(alg, [0])["is_monogenerator"]


@st.composite
def conductor_orders(draw):
    """Z + m*Z[theta] of rank 2..5 in a random unimodular basis in which 1 is
    basis element k, k at a random position; returns (algebra, k)."""
    n = draw(st.integers(2, 5))
    f = draw(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        .map(lambda c: c + [1])
        .filter(lambda c: sympy_discriminant(c) != 0)
    )
    m = draw(st.integers(1, 6))
    U = random_unimodular(draw(st.randoms(use_true_random=False)), n, fix_first_row=True)
    scale = [1] + [m] * (n - 1)
    basis = [[u * d for u, d in zip(row, scale)] for row in U]
    perm = draw(st.permutations(range(n)))
    alg = OrderPresentation(f, [basis[i] for i in perm]).to_algebra(f"Z + {m}*Z[theta]")
    return alg, perm.index(0)


def full_power_matrix(alg):
    """Rows: the coordinates of theta^0, ..., theta^(n-1) for the full generic
    element theta = x_1 e_1 + ... + x_n e_n, coordinate of 1 included,
    computed in sympy."""
    n, base = alg.rank, alg.base
    R, gens = sympy_ring(base, n)
    xs = gens[:n]

    def element(c):
        """A base-ring element of alg in R: a polynomial in t over Z[t] and F_p[t]."""
        return R(sum(x * gens[-1] ** k for k, x in enumerate(c))) if base.is_polynomial else R(c)

    row = [element(u) for u in alg.identity]
    rows = [row]
    for _ in range(n - 1):
        nxt = [R.zero] * n
        for i, a in enumerate(row):
            for j, x in enumerate(xs):
                for k, c in enumerate(alg.constants[i][j]):
                    if c:
                        nxt[k] += a * x * element(c)
        row = nxt
        rows.append(row)
    return [[SparsePoly(base, n, form_terms(f, base)) for f in row] for row in rows]


class TestPinnedIdentity:
    """matrix_of_coefficients leaves out x_k, the coordinate of 1."""

    @settings(max_examples=60, deadline=None)
    @given(conductor_orders())
    def test_pinned_form_equals_full_determinant(self, case):
        alg, k = case
        assert alg.identity_basis_index() == k
        m = matrix_of_coefficients(alg)
        assert all(not e[k] for row in m for f in row for e in f.terms)
        full = determinant(full_power_matrix(alg)).canonical_sign()
        assert index_form(alg).form.terms == full.terms

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_split_algebra_has_nothing_to_pin(self, n):
        alg = split_algebra(n)
        assert alg.identity_basis_index() is None
        full = determinant(matrix_of_coefficients(alg)).canonical_sign()
        assert index_form(alg).form.terms == full.terms

    def test_rank_six_trinomial(self):
        alg = power_basis_algebra([-1, -1, 0, 0, 0, 0, 1], "x^6 - x - 1")
        form = index_form(alg)
        assert len(form.form.terms) == 3440
        m = matrix_of_coefficients(alg)
        rng = random.Random(29)
        got, want = [], []
        for _ in range(6):
            pt = [rng.randint(-4, 4) for _ in range(6)]
            got.append(form.evaluate(pt))
            want.append(int_adjugate([[f.evaluate(pt) for f in row] for row in m])[0])
        assert got in (want, [-w for w in want])

    def test_rank_seven_trinomial(self):
        # the index at v is the determinant of the coordinates of 1, v, ..., v^6
        alg = power_basis_algebra([-1, -1, 0, 0, 0, 0, 0, 1], "x^7 - x - 1")
        form = index_form(alg)
        assert len(form.form.terms) == 63534
        rng = random.Random(31)
        got, want = [], []
        for _ in range(6):
            pt = [rng.randint(-3, 3) for _ in range(7)]
            got.append(form.evaluate(pt))
            want.append(int_adjugate([alg.element_power(pt, i) for i in range(7)])[0])
        assert any(want) and got in (want, [-w for w in want])


@st.composite
def polynomial_power_bases(draw):
    """base[x]/(f) for base Z, F_p, Z[t] or F_p[t], f monic in x of degree
    2..4 with small coefficients, of t-degree below 3 over Z[t] and F_p[t]."""
    fp_t = [BaseRing("FpX", p) for p in (2, 3, 7)]
    base = draw(st.sampled_from([ZZ, Fp(2), Fp(3), Fp(7), ZX, *fp_t]))
    n = draw(st.integers(2, 4))
    coefficient = st.integers(-3, 3)
    if base.is_polynomial:
        coefficient = st.lists(coefficient, max_size=3)
    f = draw(st.lists(coefficient, min_size=n, max_size=n)) + [1]
    return power_basis_algebra_over(base, f, f"power basis over {base!r}")


class TestPolynomialBase:
    """The power matrix over every base, against the full generic element."""

    @settings(max_examples=60, deadline=None)
    @given(polynomial_power_bases())
    def test_matrix_is_full_power_matrix_without_the_coordinate_of_1(self, alg):
        assert alg.identity_basis_index() == 0
        m = matrix_of_coefficients(alg)
        full = full_power_matrix(alg)
        for row, full_row in zip(m, full):
            for f, g in zip(row, full_row):
                assert f.base == alg.base
                assert f.terms == {e: c for e, c in g.terms.items() if not e[0]}

    @settings(max_examples=40, deadline=None)
    @given(polynomial_power_bases())
    def test_pinned_form_equals_full_determinant(self, alg):
        full = determinant(full_power_matrix(alg)).canonical_sign()
        assert index_form(alg).form.terms == full.terms


class TestEvaluate:
    def test_dedekind_at_010(self):
        f = index_form(dedekind_order())
        assert f.evaluate((0, 1, 0)) in (2, -2)

    def test_zero_vector(self):
        f = index_form(dedekind_order())
        assert f.evaluate((0, 0, 0)) == 0

    def test_cubic_form_at_011(self):
        form = SparsePoly(ZZ, 3, {(0, 3, 0): 5, (0, 0, 3): -7})
        assert form.evaluate((0, 1, 1)) == -2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            index_form(gaussian_order()).evaluate((1,))


class TestCheckMonogenerator:
    def test_gaussian_i(self):
        res = check_monogenerator(gaussian_order(), (0, 1))
        assert res["is_monogenerator"] and res["value"] in (1, -1)

    def test_gaussian_rational_integer_fails(self):
        assert not check_monogenerator(gaussian_order(), (3, 0))["is_monogenerator"]

    def test_zx_chart_generator(self):
        # rank-2 chart a^2 = t over Z[t]
        constants = [[[1, 0], [0, 1]], [[0, 1], [[0, 1], 0]]]
        from monogen.algebra import StructureAlgebra

        alg = StructureAlgebra(ZX, 2, constants, [1, 0], "squaring chart")
        res = check_monogenerator(alg, [0, 1])
        assert res["is_monogenerator"]


class TestProperties:
    def test_homogeneity_random(self, rng):
        for _ in range(25):
            alg = random_algebra(rng)
            form = index_form(alg)
            d = form.degree
            for _ in range(20):
                v = [rng.randint(-4, 4) for _ in range(alg.rank)]
                lam = rng.randint(-3, 3)
                assert form.evaluate([lam * x for x in v]) == lam**d * form.evaluate(v)

    def test_translation_invariance_random(self, rng):
        for _ in range(25):
            alg = random_algebra(rng, keep_identity_first=True)
            k = alg.identity_basis_index()
            if k is None:
                continue
            form = index_form(alg)
            assert k not in form.form.variables_used()

    def test_verdict_invariant_under_basis_change(self, rng):
        for _ in range(20):
            alg = random_algebra(rng)
            n = alg.rank
            U = random_unimodular(rng, n)
            changed = change_basis(alg, U)
            assert changed.validate() == []
            for _ in range(5):
                v = [rng.randint(-3, 3) for _ in range(n)]
                # same element in the new basis: coordinates transform by U^-T
                # via v = v' * U, i.e. v' = v * U^{-1}
                vp = _solve_left(v, U)
                if vp is None:
                    continue
                a = check_monogenerator(alg, v)["is_monogenerator"]
                b = check_monogenerator(changed, vp)["is_monogenerator"]
                assert a == b

    def test_classical_index_identity(self, rng):
        algs = [dedekind_order(), gaussian_order(), split_algebra(3)]
        done = 0
        while done < 30:
            alg = algs[done % len(algs)]
            n = alg.rank
            form = index_form(alg)
            v = tuple(rng.randint(-4, 4) for _ in range(n))
            idx = form.evaluate(v)
            if idx == 0:
                continue
            m = _charpoly(alg, v)
            assert sympy_discriminant(m) == idx**2 * alg.discriminant()
            done += 1


def _charpoly(alg, v):
    """det(x*I - mult_matrix(v)) as an integer coefficient list, constant
    term first, computed in sympy."""
    n = alg.rank
    m = DomainMatrix([[SZZ(c) for c in row] for row in mult_matrix(alg, v)], (n, n), SZZ)
    return [int(c) for c in reversed(m.charpoly())]


def _solve_left(v, U):
    """Integer solution of v = vp . U, or None."""
    det, adj = int_adjugate(U)
    n = len(v)
    vp = [sum(v[k] * adj[k][j] for k in range(n)) for j in range(n)]
    if any(x % det for x in vp):
        return None
    return [x // det for x in vp]
