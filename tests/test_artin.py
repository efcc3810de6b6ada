import json
import random

import pytest

from monogen.algebra import StructureAlgebra, power_basis_algebra, split_algebra
from monogen.exactring import Fp
from monogen.artin import (
    LocalFactor,
    decompose,
    fiber_monogenic,
    local_factor_monogenic,
    nilradical,
    solve_linear,
)
from monogen.localmono import is_monogenic_at_prime
from conftest import dedekind_order, gaussian_order, random_algebra, sympy_gf_matrix


def fp_quotient(p, coeffs):
    """F_p[x]/(f) as a structure algebra (f given over Z, reduced)."""
    return power_basis_algebra(coeffs).reduce_mod_p(p)


class TestSolveLinear:
    def test_no_columns(self):
        assert solve_linear([], [0, 0], 5) == []
        assert solve_linear([], [0, 3], 5) is None

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_random_against_rank(self, p):
        rng = random.Random(p)
        for _ in range(80):
            n, k = rng.randint(1, 5), rng.randint(0, 4)
            columns = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            if k > 1 and rng.random() < 0.3:
                columns[-1] = list(columns[0])  # rank-deficient
            if rng.random() < 0.5:
                c = [rng.randrange(p) for _ in range(k)]
                target = [sum(ci * col[i] for ci, col in zip(c, columns)) % p for i in range(n)]
            else:
                target = [rng.randrange(p) for _ in range(n)]
            rank = sympy_gf_matrix(columns, p, n).rank()
            solvable = sympy_gf_matrix(columns + [target], p).rank() == rank
            sol = solve_linear(columns, target, p)
            if not solvable:
                assert sol is None
                continue
            got = [sum(ci * col[i] for ci, col in zip(sol, columns)) % p for i in range(n)]
            assert got == target


class TestNilradical:
    def test_dual_numbers(self):
        alg = fp_quotient(3, [0, 0, 1])  # x^2
        rows = nilradical(alg)
        assert rows == [(0, 1)]

    def test_etale_mod5(self):
        alg = fp_quotient(5, [1, 0, 1])  # x^2+1 splits mod 5
        assert nilradical(alg) == []

    def test_gaussian_mod_2(self):
        rows = nilradical(gaussian_order().reduce_mod_p(2))
        assert rows == [(1, 1)]  # span of 1 + i


class TestDecompose:
    def test_dedekind_mod_2_three_points(self):
        dec = decompose(dedekind_order().reduce_mod_p(2))
        assert [f.to_json() for f in dec.factors] == [
            {"dim": 1, "f": 1, "t": 0, "nilpotency_index": 1}
        ] * 3

    def test_gaussian_mod_2_single_fat_point(self):
        dec = decompose(gaussian_order().reduce_mod_p(2))
        assert len(dec.factors) == 1
        f = dec.factors[0]
        assert (f.dimension, f.residue_degree, f.tangent_dim) == (2, 1, 1)

    def test_gaussian_mod_5_splits(self):
        dec = decompose(gaussian_order().reduce_mod_p(5))
        assert len(dec.factors) == 2
        assert all(
            (f.residue_degree, f.tangent_dim) == (1, 0) for f in dec.factors
        )

    def test_idempotent_axioms_random(self, rng):
        for _ in range(20):
            alg = random_algebra(rng)
            p = rng.choice([2, 3, 5])
            red = alg.reduce_mod_p(p)
            dec = decompose(red)
            ids = dec.idempotents
            total = [0] * red.rank
            for i, e in enumerate(ids):
                assert red.vec_mul(e, e) == e
                for j in range(i + 1, len(ids)):
                    assert not any(red.vec_mul(e, ids[j]))
                total = [(a + b) % p for a, b in zip(total, e)]
            assert tuple(total) == red.identity
            assert sum(f.dimension for f in dec.factors) == red.rank

    def test_dimension_bookkeeping(self, rng):
        for _ in range(15):
            alg = random_algebra(rng)
            p = rng.choice([2, 3])
            dec = decompose(alg.reduce_mod_p(p))
            for f in dec.factors:
                assert f.residue_degree >= 1
                assert f.dimension % f.residue_degree == 0
                assert f.residue_degree * (1 + f.tangent_dim) <= f.dimension

    def test_frobenius_additive(self, rng):
        for p in (2, 3, 5):
            alg = dedekind_order().reduce_mod_p(p)
            for _ in range(20):
                v = tuple(rng.randrange(p) for _ in range(3))
                w = tuple(rng.randrange(p) for _ in range(3))
                s = tuple((a + b) % p for a, b in zip(v, w))
                fro = lambda u: alg.element_power(u, p)
                assert fro(s) == tuple(
                    (a + b) % p for a, b in zip(fro(v), fro(w))
                )

    def test_deterministic(self):
        alg = dedekind_order().reduce_mod_p(2)
        a = json.dumps(decompose(alg).to_json(), sort_keys=True)
        b = json.dumps(decompose(alg).to_json(), sort_keys=True)
        assert a == b


class TestMonogenicityCriteria:
    @pytest.mark.parametrize(
        "f,t,expected", [(1, 0, True), (1, 2, False), (3, 1, True), (2, 3, False)]
    )
    def test_local_factor(self, f, t, expected):
        factor = LocalFactor(f * (1 + t), f, t, 2)
        assert local_factor_monogenic(factor) == expected

    def test_dedekind_mod_2_out_of_points(self):
        # three residue-degree-1 points but the affine line over F_2 has two
        dec = decompose(dedekind_order().reduce_mod_p(2))
        assert all(local_factor_monogenic(f) for f in dec.factors)
        assert not fiber_monogenic(dec)

    def test_gaussian_mod_2_fits(self):
        assert fiber_monogenic(decompose(gaussian_order().reduce_mod_p(2)))

    def test_biquadratic_mod_2_tangent_fails(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "sqrt2_sqrt3")
        dec = decompose(alg.reduce_mod_p(2))
        assert len(dec.factors) == 1
        assert dec.factors[0].tangent_dim == 2
        assert not fiber_monogenic(dec)

    def test_cross_oracle_on_corpus(self, corpus_z):
        for name, alg, _ in corpus_z:
            for p in (2, 3, 5, 7):
                brute = is_monogenic_at_prime(alg, p).monogenic_at_p
                dec = decompose(alg.reduce_mod_p(p))
                assert fiber_monogenic(dec) == brute, (name, p)

    def test_cross_oracle_random(self, rng):
        for _ in range(25):
            alg = random_algebra(rng)
            for p in (2, 3, 5):
                brute = is_monogenic_at_prime(alg, p).monogenic_at_p
                assert fiber_monogenic(decompose(alg.reduce_mod_p(p))) == brute
