import itertools
import json
import time

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, Symbol

from monogen import artin
from monogen.algebra import OrderPresentation, StructureAlgebra, power_basis_algebra, split_algebra
from monogen.exactring import Fp, ZZ
from monogen.artin import (
    LocalFactor,
    decompose,
    fiber_monogenic,
    local_factor_monogenic,
    nilradical,
)
from monogen.localmono import is_monogenic_at_prime
from conftest import (
    change_basis,
    dedekind_order,
    gaussian_order,
    random_algebra,
    random_unimodular,
    sympy_gf_matrix,
)

PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def fp_quotient(p, coeffs):
    """F_p[x]/(f) as a structure algebra (f given over Z, reduced)."""
    return power_basis_algebra(coeffs).reduce_mod_p(p)


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


def factor_data(dec):
    return sorted(
        (f.dimension, f.residue_degree, f.tangent_dim, f.nilpotency_index) for f in dec.factors
    )


def dedekind_kummer(f, p):
    """Local factors of F_p[x]/(f) from sympy's factorization of f mod p.

    Each g^e gives F_p[x]/(g^e): dimension e*deg g, residue degree deg g,
    tangent dimension 1 if e > 1 else 0, and nilpotency index e.
    """
    _, pieces = Poly(f[::-1], Symbol("x"), modulus=p).factor_list()
    return sorted((e * g.degree(), g.degree(), min(e - 1, 1), e) for g, e in pieces)


def frobenius_fixed_dim(alg):
    """dim ker(F - I) for Frobenius F: x -> x^p, with the rank taken by sympy."""
    p, n = alg.base.p, alg.rank
    frob = [alg.element_power(alg.basis_vector(i), p) for i in range(n)]
    rows = [[(frob[j][i] - (i == j)) % p for j in range(n)] for i in range(n)]
    return n - sympy_gf_matrix(rows, p).rank()


def rebased(draw, alg):
    """alg in a random unimodular basis, or unchanged."""
    if not draw(st.booleans()):
        return alg
    U = random_unimodular(draw(st.randoms(use_true_random=False)), alg.rank)
    return change_basis(alg, U)


@st.composite
def power_basis_fibers(draw):
    """(f, p, Z[x]/(f) mod p in a random basis) for monic f of degree 2-8."""
    n = draw(st.integers(2, 8))
    f = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    p = draw(st.sampled_from(PRIMES_TO_31))
    return f, p, rebased(draw, power_basis_algebra(f)).reduce_mod_p(p)


@st.composite
def conductor_fibers(draw):
    """(n, (Z + m*Z[theta]) mod p in a random basis) for a prime p | m."""
    n = draw(st.integers(2, 8))
    f = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    p = draw(st.sampled_from(PRIMES_TO_31))
    m = p * draw(st.integers(1, 4))
    basis = [[m if i == j > 0 else int(i == j) for j in range(n)] for i in range(n)]
    alg = OrderPresentation(f, basis).to_algebra(f"Z + {m}*Z[theta]")
    return n, rebased(draw, alg).reduce_mod_p(p)


class TestFrobeniusSplitting:
    @settings(max_examples=150, deadline=None)
    @given(power_basis_fibers())
    def test_dedekind_kummer(self, case):
        f, p, fiber = case
        dec = decompose(fiber)
        assert factor_data(dec) == dedekind_kummer(f, p)
        assert len(dec.factors) == frobenius_fixed_dim(fiber)

    @settings(max_examples=60, deadline=None)
    @given(conductor_fibers())
    def test_conductor_fiber_is_one_fat_point(self, case):
        n, fiber = case
        assert factor_data(decompose(fiber)) == [(n, 1, n - 1, 2)]

    @pytest.mark.parametrize("n,p", [(8, 2), (5, 2), (7, 3), (6, 5)])
    def test_more_points_than_field_elements(self, n, p):
        fiber = split_algebra(n).reduce_mod_p(p)
        dec = decompose(fiber)
        assert factor_data(dec) == [(1, 1, 0, 1)] * n
        assert sorted(dec.idempotents) == sorted(fiber.basis_vector(i) for i in range(n))
        assert frobenius_fixed_dim(fiber) == n

    def test_all_residue_degrees_over_f2(self):
        # x^2 (x+1)^2 (x^2+x+1) (x^3+x+1) (x^3+x^2+1): five local factors over F_2
        f = [1]
        for g in ([0, 0, 1], [1, 1], [1, 1], [1, 1, 1], [1, 1, 0, 1], [1, 0, 1, 1]):
            f = [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g))
                 for k in range(len(f) + len(g) - 1)]
        fiber = power_basis_algebra(f).reduce_mod_p(2)
        dec = decompose(fiber)
        assert factor_data(dec) == dedekind_kummer(f, 2) == sorted(
            [(2, 1, 1, 2), (2, 1, 1, 2), (2, 2, 0, 1), (3, 3, 0, 1), (3, 3, 0, 1)]
        )
        assert len(dec.factors) == frobenius_fixed_dim(fiber) == 5

    def test_local_fiber_never_calls_berlekamp(self, monkeypatch):
        def fail(*args):
            raise AssertionError("berlekamp_factor called on a local fiber")

        monkeypatch.setattr(artin, "berlekamp_factor", fail)
        assert len(decompose(gaussian_order().reduce_mod_p(2)).factors) == 1
        assert len(decompose(fp_quotient(7, [0, 0, 0, 1])).factors) == 1

    def test_non_local_fiber_beyond_2_31(self):
        # Z x (Z + p*Z[i]) at p = 2147483659 in a skewed basis: the eigenvalues
        # of the Frobenius-fixed element lie far from 0 in F_p
        p = 2147483659
        zero = [0, 0, 0]
        constants = [[[1, 0, 0], zero, zero],
                     [zero, [0, 1, 0], [0, 0, 1]],
                     [zero, [0, 0, 1], [0, -p * p, 0]]]
        alg = StructureAlgebra(ZZ, 3, constants, [1, 1, 0])
        fiber = change_basis(alg, [[1, -2, 3], [0, 1, -2], [0, 0, 1]]).reduce_mod_p(p)
        start = time.perf_counter()
        dec = decompose(fiber)
        assert time.perf_counter() - start < 1
        assert factor_data(dec) == [(1, 1, 0, 1), (2, 1, 1, 2)]
        assert fiber_monogenic(dec)


@st.composite
def small_order_fibers(draw):
    """(Z-algebra, p) for Z + m*Z[theta] of rank 2-4 in a random basis, m in {1, 2, 3, p}.

    With p in {2, 3, 5}, p^n <= 625, so the fiber can be enumerated.
    """
    n = draw(st.integers(2, 4))
    p = draw(st.sampled_from((2, 3, 5)))
    f = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n)) + [1]
    m = draw(st.sampled_from((1, 2, 3, p)))
    basis = [[m if i == j > 0 else int(i == j) for j in range(n)] for i in range(n)]
    alg = OrderPresentation(f, basis).to_algebra(f"Z + {m}*Z[theta]")
    return rebased(draw, alg), p


def enumerated_primitive_idempotents(alg, p):
    """The minimal nonzero idempotents of alg mod p, by a walk over all of F_p^n.

    Products are taken from the Z constants reduced here, not by the algebra
    mod p.
    """
    n, c = alg.rank, alg.constants

    def mul(v, w):
        return tuple(sum(v[i] * w[j] * c[i][j][k] for i in range(n) for j in range(n)) % p
                     for k in range(n))

    idempotents = [v for v in itertools.product(range(p), repeat=n) if any(v) and mul(v, v) == v]
    # e is minimal when no other nonzero idempotent d has d*e = d
    return sorted(e for e in idempotents
                  if not any(d != e and mul(d, e) == d for d in idempotents)), mul


class TestIdempotentOracle:
    @settings(max_examples=150, deadline=None)
    @given(small_order_fibers())
    def test_idempotents_match_enumeration(self, case):
        alg, p = case
        dec = decompose(alg.reduce_mod_p(p))
        want, mul = enumerated_primitive_idempotents(alg, p)
        assert sorted(dec.idempotents) == want
        for factor, e in zip(dec.factors, dec.idempotents):
            rows = [mul(e, alg.basis_vector(j)) for j in range(alg.rank)]
            assert factor.dimension == sympy_gf_matrix(rows, p).rank()


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
