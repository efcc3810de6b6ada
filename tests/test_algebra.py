import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monogen.errors import (
    InvalidAlgebra,
    NonMonic,
    NonUnimodular,
    NotClosedUnderMultiplication,
    NotIntegerBase,
    ValidationError,
)
from monogen.algebra import (
    OrderPresentation,
    StructureAlgebra,
    power_basis_algebra,
    split_algebra,
)
from monogen.exactring import Fp, ZZ, discriminant_unipoly, int_adjugate
from conftest import (
    change_basis,
    dedekind_order,
    fp_matrix_inverse,
    gaussian_order,
    int_matrix_inverse_unimodular,
    mult_matrix,
    random_monic,
    random_unimodular,
    vec_add,
)


class TestValidate:
    def test_gaussian_integers_valid(self):
        assert gaussian_order().validate() == []

    def test_split_cube_valid(self):
        alg = split_algebra(3)
        assert alg.validate() == []
        assert alg.identity == (1, 1, 1)

    def test_commutativity_violation_reported(self):
        constants = [
            [[1, 0], [0, 1]],
            [[0, 0], [0, 0]],  # c[1][0] != c[0][1]
        ]
        with pytest.raises(ValidationError) as err:
            StructureAlgebra(ZZ, 2, constants, [1, 0])
        assert any("commutativity" in v for v in err.value.violations)

    def test_require_valid_raises(self):
        # An invalid table is refused when it is built, not on first use.
        constants = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
        with pytest.raises(ValidationError):
            StructureAlgebra(ZZ, 2, constants, [1, 0])

    @pytest.mark.parametrize(
        "kind, rank, constants, identity",
        [
            # e0 * e1 = e1 but e1 * e0 = 0
            ("commutativity", 2, [[[1, 0], [0, 1]], [[0, 0], [0, 0]]], [1, 0]),
            # e1 * e1 = e2, e1 * e2 = 0, e2 * e2 = e2: (e1 e1) e2 = e2 but e1 (e1 e2) = 0
            (
                "associativity",
                3,
                [
                    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                    [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [0, 0, 1]],
                ],
                [1, 0, 0],
            ),
            # Z^2 with the idempotent e0 given as 1
            ("identity", 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 0]),
        ],
        ids=["commutativity", "associativity", "identity"],
    )
    def test_construction_raises_on_violation(self, kind, rank, constants, identity):
        with pytest.raises(ValidationError) as err:
            StructureAlgebra(ZZ, rank, constants, identity)
        violations = err.value.violations
        assert violations and {v.split(":")[0] for v in violations} == {kind}


class TestOrderPresentation:
    def test_dedekind_basis_closes(self):
        alg = dedekind_order()
        assert alg.validate() == []
        assert alg.rank == 3

    def test_power_basis_identity_matrix(self):
        alg = gaussian_order()
        # i * i = -1
        assert alg.vec_mul((0, 1), (0, 1)) == (-1, 0)

    def test_golden_ratio_order_closes(self):
        h = Fraction(1, 2)
        alg = OrderPresentation([-5, 0, 1], [[1, 0], [h, h]]).to_algebra()
        assert alg.validate() == []
        assert alg.discriminant() == 5

    def test_half_sqrt5_not_closed(self):
        with pytest.raises(NotClosedUnderMultiplication):
            OrderPresentation([-5, 0, 1], [[1, 0], [0, Fraction(1, 2)]]).to_algebra()

    def test_non_monic_raises(self):
        with pytest.raises(NonMonic):
            OrderPresentation([1, 1, 2], [[1, 0], [0, 1]])

    def test_rank_beyond_cap_raises_before_the_basis_is_read(self):
        # the basis is not even read: a malformed one does not matter
        with pytest.raises(InvalidAlgebra, match=r"rank must be in 1\.\.12, got 80"):
            OrderPresentation([-1, -1] + [0] * 78 + [1], [["not a number"]])


@st.composite
def order_bases(draw):
    """(f, basis) of Z + m*Z[theta] in a random Z-basis, in the power basis of d*theta.

    d*theta is a root of the monic f(x) = d^n g(x/d), so basis entries have
    denominators that are powers of d.  Sometimes one row is divided by 2
    or 3, which may leave the span open under multiplication.
    """
    n = draw(st.integers(2, 6))
    g = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)) + [1]
    d, m = draw(st.sampled_from([1, 2, 3])), draw(st.integers(1, 3))
    f = [c * d ** (n - i) for i, c in enumerate(g)]
    rows = [[Fraction(m if i else 1, d**i) * (i == j) for j in range(n)] for i in range(n)]
    U = random_unimodular(random.Random(draw(st.integers(0, 2**32))), n)
    basis = [[sum(u * row[j] for u, row in zip(urow, rows)) for j in range(n)] for urow in U]
    k, q = draw(st.sampled_from(range(-2 * n, n))), draw(st.sampled_from([2, 3]))
    if k >= 0:
        basis[k] = [x / q for x in basis[k]]
    return f, basis


def fraction_reference(f, basis):
    """(constants, identity) by Fraction arithmetic in Q[x]/(f); None if the span is no ring."""
    n = len(basis)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(basis)]
    for c in range(n):  # Gauss-Jordan: the right half becomes the inverse
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        aug = [r if i == c else [x - r[c] * y for x, y in zip(r, aug[c])] for i, r in enumerate(aug)]

    def coords(v):
        return tuple(sum(v[a] * aug[a][n + k] for a in range(n)) for k in range(n))

    def mulmod(u, v):
        prod = [sum(u[i] * v[k - i] for i in range(n) if 0 <= k - i < n) for k in range(2 * n - 1)]
        for k in range(2 * n - 2, n - 1, -1):  # x^k = x^(k-n) (x^n - f)
            prod[k - n:k + 1] = [x - prod[k] * c for x, c in zip(prod[k - n:k + 1], f)]
        return prod[:n]

    constants = tuple(tuple(coords(mulmod(a, b)) for b in basis) for a in basis)
    identity = coords([1] + [0] * (n - 1))
    entries = [x for plane in constants for row in plane for x in row] + list(identity)
    return None if any(x.denominator != 1 for x in entries) else (constants, identity)


class TestIntegerOrders:
    @settings(max_examples=150, deadline=None)
    @given(order_bases())
    def test_matches_fraction_reference(self, case):
        f, basis = case
        reference = fraction_reference(f, basis)
        if reference is None:
            with pytest.raises(NotClosedUnderMultiplication):
                OrderPresentation(f, basis).to_algebra()
            return
        alg = OrderPresentation(f, basis).to_algebra()
        assert (alg.constants, alg.identity) == reference
        assert alg.validate() == []

    def test_orders_skip_validation(self, monkeypatch):
        monkeypatch.setattr(StructureAlgebra, "validate", lambda self: pytest.fail("validated"))
        assert dedekind_order().rank == 3


@st.composite
def tables_and_vectors(draw):
    """A random table (not necessarily a ring) over Z or F_p, and two vectors."""
    base = draw(st.sampled_from([ZZ, Fp(2), Fp(3), Fp(7)]))
    n = draw(st.integers(1, 5))
    entries = st.lists(st.one_of(st.just(0), st.integers(-9, 9)), min_size=n, max_size=n)
    flat = draw(st.lists(entries, min_size=n * n, max_size=n * n))
    constants = [flat[i * n:(i + 1) * n] for i in range(n)]
    alg = StructureAlgebra._derived(base, n, constants, [0] * n, "random table")
    v, w = (tuple(base.coerce(x) for x in draw(entries)) for _ in range(2))
    return alg, v, w


class TestVecMul:
    @settings(max_examples=200, deadline=None)
    @given(tables_and_vectors())
    def test_table_kernel_matches_base_ring_arithmetic(self, case):
        alg, v, w = case
        base, n = alg.base, alg.rank
        out = [base.zero] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[k] = base.add(out[k], base.mul(base.mul(v[i], w[j]), alg.constants[i][j][k]))
        assert alg.vec_mul(v, w) == tuple(out)


class TestReduceModP:
    def test_gaussian_mod_2(self):
        alg = gaussian_order().reduce_mod_p(2)
        assert alg.base.kind == "Fp" and alg.base.p == 2
        assert alg.validate() == []

    def test_dedekind_mod_2(self):
        alg = dedekind_order().reduce_mod_p(2)
        assert alg.rank == 3 and alg.validate() == []

    def test_split_reduces_componentwise(self):
        alg = split_algebra(2).reduce_mod_p(7)
        assert alg.validate() == []
        assert alg.vec_mul((1, 0), (0, 1)) == (0, 0)

    def test_needs_integer_base(self):
        with pytest.raises(NotIntegerBase):
            gaussian_order().reduce_mod_p(3).reduce_mod_p(3)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_reductions_of_valid_algebras_are_valid(self, corpus_z, p):
        algebras = [a for _, a, _ in corpus_z] + [split_algebra(n) for n in range(2, 5)]
        for alg in algebras:
            assert alg.validate() == []
            assert alg.reduce_mod_p(p).validate() == [], (alg.label, p)

    def test_reduction_and_change_basis_skip_validation(self, monkeypatch):
        calls = []
        original = StructureAlgebra.validate
        monkeypatch.setattr(
            StructureAlgebra, "validate", lambda self: calls.append(self.label) or original(self)
        )
        # Z[i] from its table, through the checking constructor
        alg = StructureAlgebra(ZZ, 2, [[[1, 0], [0, 1]], [[0, 1], [-1, 0]]], [1, 0], "Z[i]")
        assert calls == ["Z[i]"]
        alg.reduce_mod_p(3)
        change_basis(alg, [[1, 1], [0, 1]])
        change_basis(alg.reduce_mod_p(3), [[1, 1], [0, 1]])
        assert calls == ["Z[i]"]


@st.composite
def integer_tables(draw):
    """A Z-algebra with negative constants: Z + m*Z[theta] or Z^n, sometimes rebased."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        f = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
        m = draw(st.sampled_from([1, 2, 3, 7]))
        basis = [[m if i == j > 0 else int(i == j) for j in range(n)] for i in range(n)]
        alg = OrderPresentation(f, basis).to_algebra()
    else:
        alg = split_algebra(n)
    if draw(st.booleans()):
        alg = change_basis(alg, random_unimodular(draw(st.randoms(use_true_random=False)), n))
    return alg


class TestReduceModPProperty:
    @settings(max_examples=120, deadline=None)
    @given(integer_tables(), st.sampled_from([2, 3, 7, 2**31 - 1]), st.data())
    def test_reduction_is_coefficientwise(self, alg, p, data):
        red, n = alg.reduce_mod_p(p), alg.rank
        assert red.constants == tuple(
            tuple(tuple(c % p for c in row) for row in plane) for plane in alg.constants
        )
        assert red.identity == tuple(u % p for u in alg.identity)
        vectors = st.lists(st.integers(-50, 50), min_size=n, max_size=n)
        for _ in range(3):
            v, w = data.draw(vectors), data.draw(vectors)
            want = tuple(x % p for x in alg.vec_mul(v, w))
            assert red.vec_mul(tuple(x % p for x in v), tuple(x % p for x in w)) == want

    @settings(max_examples=60, deadline=None)
    @given(integer_tables(), st.sampled_from([2, 3, 7, 2**31 - 1]))
    def test_element_power_of_basis_vectors(self, alg, p):
        for a in (alg, alg.reduce_mod_p(p)):
            for i in range(a.rank):
                e, power = a.basis_vector(i), a.identity
                for k in range(41):
                    assert a.element_power(e, k) == power, (i, k)
                    power = a.vec_mul(power, e)


class TestChangeBasis:
    def test_identity_matrix_is_noop(self):
        alg = gaussian_order()
        same = change_basis(alg, [[1, 0], [0, 1]])
        assert same.constants == alg.constants
        assert same.identity == alg.identity

    def test_split_idempotent_to_mixed_basis(self):
        alg = split_algebra(2)
        out = change_basis(alg, [[1, 1], [0, 1]])
        assert out.validate() == []
        assert out.identity == (1, 0)

    def test_round_trip(self, rng):
        for _ in range(20):
            n = rng.randint(2, 4)
            alg = power_basis_algebra(random_monic(rng, n))
            U = random_unimodular(rng, n)
            Uinv = int_matrix_inverse_unimodular(U)
            back = change_basis(change_basis(alg, U), Uinv)
            assert back.constants == alg.constants
            assert back.identity == alg.identity

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            change_basis(gaussian_order(), [[2, 0], [0, 1]])

    def test_commutes_with_reduction(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            alg = power_basis_algebra(random_monic(rng, n))
            U = random_unimodular(rng, n)
            p = rng.choice([2, 3, 5])
            a = change_basis(alg, U).reduce_mod_p(p)
            b = change_basis(alg.reduce_mod_p(p), [[x % p for x in row] for row in U])
            assert a.constants == b.constants
            assert a.identity == b.identity


class TestMultMatrix:
    def test_identity_coordinates(self):
        alg = dedekind_order()
        n = alg.rank
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert mult_matrix(alg, alg.identity) == ident

    def test_gaussian_i(self):
        assert mult_matrix(gaussian_order(), (0, 1)) == [[0, -1], [1, 0]]

    def test_linearity(self, rng):
        alg = dedekind_order()
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            mv, mw = mult_matrix(alg, v), mult_matrix(alg, w)
            msum = mult_matrix(alg, vec_add(alg, v, w))
            assert msum == [
                [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(mv, mw)
            ]

    def test_multiplicative(self, rng):
        alg = dedekind_order()
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            w = tuple(rng.randint(-4, 4) for _ in range(3))
            lhs = _matmul(mult_matrix(alg, v), mult_matrix(alg, w))
            rhs = mult_matrix(alg, alg.vec_mul(v, w))
            assert lhs == rhs

    def test_element_power_is_repeated_product(self, rng):
        for alg in (dedekind_order(), dedekind_order().reduce_mod_p(5)):
            v = tuple(alg.base.coerce(rng.randint(-3, 3)) for _ in range(3))
            power = alg.identity
            for k in range(12):
                assert alg.element_power(v, k) == power
                power = alg.vec_mul(power, v)


class TestDiscriminant:
    def test_gaussian(self):
        assert gaussian_order().discriminant() == -4

    def test_split_two(self):
        assert split_algebra(2).discriminant() == 1

    def test_dedekind(self):
        assert dedekind_order().discriminant() == -503

    def test_power_basis_matches_univariate(self, rng):
        for _ in range(20):
            n = rng.randint(2, 4)
            f = random_monic(rng, n)
            assert power_basis_algebra(f).discriminant() == discriminant_unipoly(f)

    def test_invariant_under_unimodular_change(self, rng):
        for _ in range(15):
            n = rng.randint(2, 4)
            alg = power_basis_algebra(random_monic(rng, n))
            U = random_unimodular(rng, n)
            changed = change_basis(alg, U)
            assert changed.validate() == []
            assert changed.discriminant() == alg.discriminant()


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


class TestFpMatrixInverse:
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_random(self, p):
        rng = random.Random(p)
        for _ in range(60):
            n = rng.randint(1, 5)
            U = [[rng.randint(-p, 2 * p) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                U[-1] = [2 * x for x in U[0]]  # singular
            if int_adjugate(U)[0] % p == 0:
                with pytest.raises(NonUnimodular):
                    fp_matrix_inverse(U, p)
                continue
            inv = fp_matrix_inverse(U, p)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            for a, b in ((U, inv), (inv, U)):
                prod = [
                    [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
                    for i in range(n)
                ]
                assert prod == ident
