import random
from fractions import Fraction
from itertools import product
from operator import add
from pathlib import Path

import pytest
from sympy import GF, Poly, Symbol, discriminant
from sympy.polys.domains import ZZ as SZZ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

from monogen.algebra import (
    OrderPresentation,
    StructureAlgebra,
    power_basis_algebra,
    split_algebra,
)
from monogen.errors import LengthMismatch, MonogenError, NotIntegerBase
from monogen.exactring import ZZ, SparsePoly, fp_rref, int_adjugate
from monogen.fixtures import corpus_files, load_fixture


@pytest.fixture(scope="session")
def corpus():
    """All corpus fixtures as (name, algebra, expected) triples."""
    out = []
    for path in corpus_files():
        alg, expected = load_fixture(path)
        out.append((Path(path).stem, alg, expected))
    return out


@pytest.fixture(scope="session")
def corpus_z(corpus):
    return [(n, a, e) for n, a, e in corpus if a.base.kind == "Z"]


class NonUnimodular(MonogenError):
    """A change of basis whose matrix is not invertible over the base ring."""


def vec_add(alg, v, w):
    return tuple(alg.base.add(a, b) for a, b in zip(v, w))


def mult_matrix(alg, v):
    """Matrix of multiplication by sum v_i e_i; columns are images of e_j."""
    n = alg.rank
    if len(v) != n:
        raise LengthMismatch("coordinate vector must have length n")
    v = tuple(alg.base.coerce(c) for c in v)
    cols = [alg.vec_mul(v, alg.basis_vector(j)) for j in range(n)]
    return [[cols[j][k] for j in range(n)] for k in range(n)]


def change_basis(alg, U):
    """alg in the basis e'_i = sum_a U[i][a] e_a; U must be unimodular over Z.

    The result is isomorphic to alg, so a ring, and is built without the
    axiom check.
    """
    n, base = alg.rank, alg.base
    if len(U) != n or any(len(row) != n for row in U):
        raise LengthMismatch("U must be n x n")
    if base.kind not in ("Z", "Fp"):
        raise NotIntegerBase("change of basis implemented for Z and F_p bases")
    det, adj = int_adjugate(U)
    if base.kind == "Z":
        if det not in (1, -1):
            raise NonUnimodular(f"det(U) = {det} is not a unit")
        Uinv = [[det * x for x in row] for row in adj]
    else:
        if det % base.p == 0:
            raise NonUnimodular("det(U) = 0 mod p")
        Uinv = fp_matrix_inverse(U, base.p)
    columns = [[base.coerce(x) for x in col] for col in zip(*Uinv)]

    def new_coords(w):
        """Coordinates in the new basis of an element with old coordinates w."""
        return [_dot(base, w, col) for col in columns]

    rows = [tuple(base.coerce(x) for x in row) for row in U]
    constants = [[new_coords(alg.vec_mul(a, b)) for b in rows] for a in rows]
    return StructureAlgebra._derived(
        base, n, sparse_table(base, constants), tuple(new_coords(alg.identity)),
        f"{alg.label} (basis changed)",
    )


def sparse_table(base, constants):
    """The table of dense constants: each row as its (k, c) pairs, c coerced and nonzero."""
    return tuple(
        tuple(tuple((k, c) for k, c in enumerate(map(base.coerce, row)) if c) for row in plane)
        for plane in constants
    )


def _dot(base, v, w):
    acc = base.zero
    for a, b in zip(v, w):
        acc = base.add(acc, base.mul(a, b))
    return acc


def int_matrix_inverse_unimodular(U):
    det, adj = int_adjugate(U)
    assert det in (1, -1)
    return [[det * x for x in row] for row in adj]


def fp_matrix_inverse(U, p):
    """Inverse mod p: row-reduce [U | I] and read off the right half."""
    n = len(U)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(U)]
    reduced, pivots = fp_rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise NonUnimodular("matrix singular mod p")
    return [row[n:] for row in reduced]


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
        alg = change_basis(alg, U)
        assert alg.validate() == []
    return alg


def power_basis_algebra_over(base, f, label=""):
    """base[x]/(f) in the basis 1, x, ..., x^(n-1), for f monic in x with
    coefficients in base (ints or coefficient lists), constant term first."""
    f = [base.coerce(c) for c in f]
    n = len(f) - 1
    # x^0, ..., x^(2n-2) in the basis; x^(i+1) = x * x^i, less lead * f
    powers = [[base.one if k == i else base.zero for k in range(n)] for i in range(n)]
    for _ in range(n - 1):
        lead, shifted = powers[-1][-1], [base.zero, *powers[-1][:-1]]
        powers.append([base.add(c, base.neg(base.mul(lead, fk))) for c, fk in zip(shifted, f)])
    constants = [[powers[i + j] for j in range(n)] for i in range(n)]
    return StructureAlgebra(base, n, constants, powers[0], label)


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


def sympy_discriminant(coeffs):
    """The discriminant of the polynomial with these coefficients (constant first)."""
    return int(discriminant(Poly(list(coeffs)[::-1], Symbol("x"))))


# Expected forms are built in sympy's sparse polynomial rings and compared
# with SparsePoly.terms.  The ring's order, grlex, is the order in which
# SparsePoly.canonical_sign finds the leading term, so the sign of LC is
# the sign canonical_sign reads over Z and F_p.


def sympy_ring(base, arity):
    """(ring, generators) for forms over base in x1, ..., x_arity, graded lex.

    The coefficients are ZZ or GF(p); over Z[t] and F_p[t], t is one more
    generator, the last.
    """
    names = [f"x{i + 1}" for i in range(arity)] + ["t"] * base.is_polynomial
    R, *gens = ring(names, SZZ if base.p is None else GF(base.p), grlex)
    return R, gens


def form_terms(f, base):
    """The terms of the sympy ring element f in SparsePoly's encoding over base.

    Over Z[t] and F_p[t] the last exponent, that of t, is grouped into the
    coefficient tuple of each monomial in x1, ..., xn.
    """
    if not base.is_polynomial:
        return {e: base.coerce(int(c)) for e, c in f.terms()}
    grouped = {}
    for (*e, k), c in f.terms():
        grouped.setdefault(tuple(e), {})[k] = int(c)
    return {e: base.coerce([cs.get(k, 0) for k in range(max(cs) + 1)]) for e, cs in grouped.items()}


def signed_terms(f, base):
    """The terms of f and of -f: a form is fixed only up to sign."""
    return form_terms(f, base), form_terms(-f, base)


def difference_product(n, base=ZZ):
    """The terms of the product of x_i - x_j over i < j, and of its negative."""
    _, xs = sympy_ring(base, n)
    out = 1
    for i in range(n):
        for j in range(i + 1, n):
            out *= xs[i] - xs[j]
    return signed_terms(out, base)


def to_sympy(poly, R):
    """The SparsePoly poly as an element of R = sympy_ring(poly.base, poly.arity)[0]."""
    if not poly.base.is_polynomial:
        return R.from_dict(dict(poly.terms))
    return R.from_dict({(*e, k): x for e, c in poly.terms.items() for k, x in enumerate(c) if x})


def naive_scan(poly, values):
    """The reference scan: poly, over Z or F_p, at every point of values^m,
    in lexicographic order, over the m variables it uses; the others stay 0.

    Term by term: a term's values on the grid are the outer product of the
    columns x^e, one for each variable, times its coefficient; the terms
    are summed in plain ints and reduced once.
    """
    base, used, values = poly.base, poly.variables_used(), list(values)
    grid = list(product(values, repeat=len(used)))
    total = [0] * len(grid)
    for exps, c in poly.terms.items():
        term = [c]
        for i in used:
            column = [x ** exps[i] for x in values]
            term = [a * b for a in term for b in column]
        total = list(map(add, total, term))
    points = []
    for combo, s in zip(grid, total):
        v = [0] * poly.arity
        for i, x in zip(used, combo):
            v[i] = x
        points.append((tuple(v), base.coerce(s)))
    return points


def counting_evaluate(monkeypatch):
    """Record the point of every SparsePoly.evaluate call; returns the list."""
    calls = []
    original = SparsePoly.evaluate

    def evaluate(self, v):
        calls.append(tuple(v))
        return original(self, v)

    monkeypatch.setattr(SparsePoly, "evaluate", evaluate)
    return calls
