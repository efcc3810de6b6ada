import random
from fractions import Fraction

import pytest

from monogen.errors import (
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
    _fp_matrix_inverse,
    split_algebra,
)
from monogen.exactring import ZZ, discriminant_unipoly, int_determinant
from conftest import dedekind_order, gaussian_order, random_monic, random_unimodular


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
        alg = gaussian_order()
        assert calls == ["Z[i]"]
        alg.reduce_mod_p(3)
        alg.change_basis([[1, 1], [0, 1]])
        alg.reduce_mod_p(3).change_basis([[1, 1], [0, 1]])
        assert calls == ["Z[i]"]


class TestChangeBasis:
    def test_identity_matrix_is_noop(self):
        alg = gaussian_order()
        same = alg.change_basis([[1, 0], [0, 1]])
        assert same.constants == alg.constants
        assert same.identity == alg.identity

    def test_split_idempotent_to_mixed_basis(self):
        alg = split_algebra(2)
        out = alg.change_basis([[1, 1], [0, 1]])
        assert out.validate() == []
        assert out.identity == (1, 0)

    def test_round_trip(self, rng):
        for _ in range(20):
            n = rng.randint(2, 4)
            alg = power_basis_algebra(random_monic(rng, n))
            U = random_unimodular(rng, n)
            Uinv = _int_inverse(U)
            back = alg.change_basis(U).change_basis(Uinv)
            assert back.constants == alg.constants
            assert back.identity == alg.identity

    def test_non_unimodular_rejected(self):
        with pytest.raises(NonUnimodular):
            gaussian_order().change_basis([[2, 0], [0, 1]])

    def test_commutes_with_reduction(self, rng):
        for _ in range(10):
            n = rng.randint(2, 4)
            alg = power_basis_algebra(random_monic(rng, n))
            U = random_unimodular(rng, n)
            p = rng.choice([2, 3, 5])
            a = alg.change_basis(U).reduce_mod_p(p)
            b = alg.reduce_mod_p(p).change_basis([[x % p for x in row] for row in U])
            assert a.constants == b.constants
            assert a.identity == b.identity


class TestMultMatrix:
    def test_identity_coordinates(self):
        alg = dedekind_order()
        n = alg.rank
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert alg.mult_matrix(alg.identity) == ident

    def test_gaussian_i(self):
        assert gaussian_order().mult_matrix((0, 1)) == [[0, -1], [1, 0]]

    def test_linearity(self, rng):
        alg = dedekind_order()
        for _ in range(20):
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            w = tuple(rng.randint(-5, 5) for _ in range(3))
            mv, mw = alg.mult_matrix(v), alg.mult_matrix(w)
            msum = alg.mult_matrix(alg.vec_add(v, w))
            assert msum == [
                [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(mv, mw)
            ]

    def test_multiplicative(self, rng):
        alg = dedekind_order()
        for _ in range(20):
            v = tuple(rng.randint(-4, 4) for _ in range(3))
            w = tuple(rng.randint(-4, 4) for _ in range(3))
            lhs = _matmul(alg.mult_matrix(v), alg.mult_matrix(w))
            rhs = alg.mult_matrix(alg.vec_mul(v, w))
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
            changed = alg.change_basis(U)
            assert changed.validate() == []
            assert changed.discriminant() == alg.discriminant()


def _matmul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def _int_inverse(U):
    from fractions import Fraction

    from monogen.algebra import _rational_inverse

    inv = _rational_inverse([[Fraction(x) for x in row] for row in U])
    return [[int(x) for x in row] for row in inv]


class TestFpMatrixInverse:
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_random(self, p):
        rng = random.Random(p)
        for _ in range(60):
            n = rng.randint(1, 5)
            U = [[rng.randint(-p, 2 * p) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.2:
                U[-1] = [2 * x for x in U[0]]  # singular
            if int_determinant(U) % p == 0:
                with pytest.raises(NonUnimodular):
                    _fp_matrix_inverse(U, p)
                continue
            inv = _fp_matrix_inverse(U, p)
            ident = [[int(i == j) for j in range(n)] for i in range(n)]
            for a, b in ((U, inv), (inv, U)):
                prod = [
                    [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
                    for i in range(n)
                ]
                assert prod == ident
