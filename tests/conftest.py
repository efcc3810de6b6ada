import random
from fractions import Fraction

import pytest
from sympy import GF, Poly, Symbol
from sympy.polys.matrices import DomainMatrix

from monogen.algebra import (
    OrderPresentation,
    StructureAlgebra,
    power_basis_algebra,
    split_algebra,
)
from monogen.exactring import ZZ
from monogen.fixtures import corpus_files, load_fixture


@pytest.fixture(scope="session")
def corpus():
    """All corpus fixtures as (name, algebra, expected) triples."""
    out = []
    for path in corpus_files():
        alg, expected = load_fixture(path)
        out.append((path.stem, alg, expected))
    return out


@pytest.fixture(scope="session")
def corpus_z(corpus):
    return [(n, a, e) for n, a, e in corpus if a.base.kind == "Z"]


def dedekind_order():
    h = Fraction(1, 2)
    return OrderPresentation(
        [-8, -2, -1, 1], [[1, 0, 0], [0, h, h], [0, 0, 1]]
    ).to_algebra("dedekind")


def gaussian_order():
    return power_basis_algebra([1, 0, 1], "Z[i]")


def random_monic(rng, degree):
    return [rng.randint(-6, 6) for _ in range(degree)] + [1]


def random_unimodular(rng, n, fix_first_row=False):
    """Product of random elementary matrices; det is +-1 by construction."""
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    start = 1 if fix_first_row else 0
    if start == n:
        return U  # no row may move
    for _ in range(2 * n):
        i = rng.randrange(start, n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            U[i][k] += c * U[j][k]
    return U


def random_algebra(rng, max_rank=4, keep_identity_first=True):
    """Random valid integer algebra: a power basis, optionally rebased.

    With keep_identity_first the first basis element stays 1, so the
    translation-invariance property applies.
    """
    n = rng.randint(2, max_rank)
    alg = power_basis_algebra(random_monic(rng, n), f"random deg {n}")
    if rng.random() < 0.5:
        U = random_unimodular(rng, n, fix_first_row=keep_identity_first)
        alg = alg.change_basis(U)
        assert alg.validate() == []
    return alg


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_fp_matrix(rng, p, max_dim=6):
    """Random matrix over F_p: full random, all zero, or of deficient rank."""
    nrows, ncols = rng.randint(1, max_dim), rng.randint(1, max_dim)
    kind = rng.choice(["random", "zero", "deficient"])
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    if kind == "random":
        return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    spanning = [
        [rng.randrange(p) for _ in range(ncols)]
        for _ in range(rng.randint(1, max(1, min(nrows, ncols) - 1)))
    ]
    return [
        [sum(rng.randrange(p) * b[j] for b in spanning) % p for j in range(ncols)]
        for _ in range(nrows)
    ]


def sympy_irreducible(p, coeffs):
    """Whether the polynomial with these coefficients (constant first) is irreducible over F_p."""
    return Poly(list(coeffs)[::-1], Symbol("x"), modulus=p).is_irreducible


def sympy_gf_matrix(rows, p, ncols=None):
    """The same matrix as a sympy DomainMatrix over GF(p)."""
    K = GF(p)
    shape = (len(rows), len(rows[0]) if rows else ncols)
    return DomainMatrix([[K(x) for x in r] for r in rows], shape, K)
