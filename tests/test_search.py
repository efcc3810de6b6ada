import pytest

from monogen.errors import BudgetExceeded, IdentityNotInBasis
from monogen.algebra import power_basis_algebra, split_algebra
from monogen.exactring import ZZ, SparsePoly
from monogen.indexform import check_monogenerator
from monogen.search import affine_normalize, scan, search_monogenerators
from conftest import gaussian_order


def x0_squared_plus_x2():
    """x0^2 + x2 in three variables; x1 is unused."""
    x0, x2 = (SparsePoly.variable(ZZ, 3, i) for i in (0, 2))
    return x0 * x0 + x2


class TestScan:
    def test_budget_before_first_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SparsePoly, "evaluate", lambda self, v: calls.append(v))
        with pytest.raises(BudgetExceeded):
            next(scan(x0_squared_plus_x2(), range(3), 8))
        assert calls == []

    def test_lexicographic_with_unused_at_zero(self):
        points = list(scan(x0_squared_plus_x2(), range(-1, 2), 9))
        assert [v for v, _ in points] == [(a, 0, c) for a in (-1, 0, 1) for c in (-1, 0, 1)]
        assert [value for _, value in points] == [
            a * a + c for a in (-1, 0, 1) for c in (-1, 0, 1)
        ]


class TestSearch:
    def test_gaussian_height_1(self):
        res = search_monogenerators(gaussian_order(), 1)
        assert set(res.witnesses) == {(0, -1), (0, 1)}
        assert res.classes == ((0, 1),)
        assert res.exhausted

    def test_split_two_height_1(self):
        res = search_monogenerators(split_algebra(2), 1)
        # form is x1 - x2; witnesses are the pairs differing by 1
        assert all(abs(w[0] - w[1]) == 1 for w in res.witnesses)
        assert len(res.witnesses) == 4

    def test_cbrt175_exhausts_empty(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        res = search_monogenerators(alg, 20)
        assert res.exhausted and res.witnesses == ()

    def test_witnesses_recertify(self, corpus_z):
        for name, alg, _ in corpus_z:
            res = search_monogenerators(alg, 2)
            for w in res.witnesses:
                assert check_monogenerator(alg, w)["is_monogenerator"], (name, w)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            search_monogenerators(split_algebra(3), 100, cap=10)

    def test_orbit_closure_at_boundary(self):
        alg = power_basis_algebra([-2, 0, 1], "Z[sqrt2]")
        h = 3
        res = search_monogenerators(alg, h)
        found = set(res.witnesses)
        for w in res.witnesses:
            if all(abs(c) <= h - 1 for c in w):
                assert tuple(-c for c in w) in found
                # translates by 1 leave the pinned box but stay witnesses
                # and normalize into an already-found class
                shifted = (w[0] + 1, w[1])
                assert check_monogenerator(alg, shifted)["is_monogenerator"]
                assert affine_normalize(alg, shifted) in res.classes


class TestAffineNormalize:
    def test_gaussian_example(self):
        assert affine_normalize(gaussian_order(), (3, -1)) == (0, 1)

    def test_idempotent(self, corpus_z):
        for name, alg, _ in corpus_z:
            if alg.identity_basis_index() is None:
                continue
            res = search_monogenerators(alg, 2)
            for w in res.witnesses:
                rep = affine_normalize(alg, w)
                assert affine_normalize(alg, rep) == rep

    def test_sqrt2_translation(self):
        alg = power_basis_algebra([-2, 0, 1], "Z[sqrt2]")
        assert affine_normalize(alg, (5, 1)) == (0, 1)

    def test_same_class_same_representative(self):
        alg = gaussian_order()
        orbit = [(t, u) for t in range(-3, 4) for u in (1, -1)]
        reps = {affine_normalize(alg, v) for v in orbit}
        assert reps == {(0, 1)}

    def test_identity_not_in_basis(self):
        with pytest.raises(IdentityNotInBasis):
            affine_normalize(split_algebra(2), (1, 0))
