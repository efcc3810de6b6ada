"""Structure theory of finite-dimensional commutative algebras over F_p.

Computes the nilradical, splits the algebra into local factors by lifting
idempotents from the etale quotient, and applies the tangent-dimension
and point-counting criteria for fiber monogenicity.  Serves as an oracle
independent of brute-force index-form enumeration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidAlgebra, SplitFailure
from .exactring import (
    UniPolyFp,
    berlekamp_factor,
    fp_kernel,
    fp_rref,
    is_irreducible,
    necklace_count,
)
from .algebra import StructureAlgebra

SPLIT_SEED = 0x5EED
SPLIT_TRY_CAP = 200
LIFT_ITER_CAP = 64


# ---------------------------------------------------------------------------
# linear algebra over F_p


def reduce_vector(v, rows, pivots, p):
    """Eliminate pivot coordinates of v against a row-reduced basis."""
    v = [x % p for x in v]
    for row, col in zip(rows, pivots):
        c = v[col]
        if c:
            v = [(a - c * b) % p for a, b in zip(v, row)]
    return tuple(v)


def solve_linear(columns, target, p):
    """Coefficients c with sum c_i * columns[i] = target, or None."""
    k = len(columns)
    aug = [[col[i] for col in columns] + [t] for i, t in enumerate(target)]
    reduced, pivots = fp_rref(aug, p)
    if k in pivots:
        return None
    sol = [0] * k
    for row, col in zip(reduced, pivots):
        sol[col] = row[k]
    return sol


# ---------------------------------------------------------------------------
# decomposition data


@dataclass(frozen=True)
class LocalFactor:
    """One local Artinian factor of the fiber algebra."""

    dimension: int
    residue_degree: int
    tangent_dim: int
    nilpotency_index: int

    def to_json(self):
        return {
            "dim": self.dimension,
            "f": self.residue_degree,
            "t": self.tangent_dim,
            "nilpotency_index": self.nilpotency_index,
        }


@dataclass(frozen=True)
class ArtinDecomposition:
    prime: int
    factors: tuple
    idempotents: tuple

    @property
    def dimension(self) -> int:
        return sum(f.dimension for f in self.factors)

    def to_json(self):
        return {
            "p": self.prime,
            "factors": [f.to_json() for f in self.factors],
            "idempotents": [list(e) for e in self.idempotents],
        }


# ---------------------------------------------------------------------------
# nilradical


def nilradical(alg: StructureAlgebra):
    """Row-reduced basis of the nilradical of an F_p-algebra.

    Kernel of x -> x^(p^m) with p^m >= n; that map is F_p-linear because
    Frobenius is.
    """
    alg.require_valid()
    if alg.base.kind != "Fp":
        raise InvalidAlgebra("nilradical needs base F_p")
    p, n = alg.base.p, alg.rank
    q = p
    while q < n:
        q *= p
    images = []
    for i in range(n):
        v = alg.basis_vector(i)
        images.append(_vec_pow(alg, v, q))
    rows, _ = fp_rref(fp_kernel(list(zip(*images)), p), p)
    return rows


def _vec_pow(alg, v, k):
    out = alg.identity
    base = v
    while k:
        if k & 1:
            out = alg.vec_mul(out, base)
        base = alg.vec_mul(base, base)
        k >>= 1
    return out


# ---------------------------------------------------------------------------
# decomposition


class _Quotient:
    """The etale quotient A/N with explicit lift/project maps."""

    def __init__(self, alg, nil_rows, nil_pivots):
        self.alg = alg
        self.p = alg.base.p
        self.nil_rows = nil_rows
        self.nil_pivots = nil_pivots
        pivot_set = set(nil_pivots)
        self.coords = [i for i in range(alg.rank) if i not in pivot_set]
        self.dim = len(self.coords)

    def project(self, v):
        red = reduce_vector(v, self.nil_rows, self.nil_pivots, self.p)
        return tuple(red[i] for i in self.coords)

    def lift(self, q):
        v = [0] * self.alg.rank
        for c, i in zip(q, self.coords):
            v[i] = c
        return tuple(v)

    def mul(self, a, b):
        return self.project(self.alg.vec_mul(self.lift(a), self.lift(b)))

    def scale_add(self, coeffs, vectors):
        out = [0] * self.dim
        for c, v in zip(coeffs, vectors):
            for i in range(self.dim):
                out[i] = (out[i] + c * v[i]) % self.p
        return tuple(out)

    @property
    def one(self):
        return self.project(self.alg.identity)


def _minpoly_in_piece(Q, ident, z):
    """Minimal polynomial of z in the unital piece with identity ident."""
    p = Q.p
    powers = [ident]
    cur = ident
    while True:
        cur = Q.mul(cur, z)
        sol = solve_linear(powers, cur, p)
        if sol is not None:
            coeffs = [(-c) % p for c in sol] + [1]
            return UniPolyFp(p, coeffs), powers
        powers.append(cur)


def _poly_at(Q, ident, z, poly: UniPolyFp):
    acc = tuple(0 for _ in range(Q.dim))
    power = ident
    for c in poly.coeffs:
        if c:
            acc = Q.scale_add([1, c], [acc, power])
        power = Q.mul(power, z)
    return acc


def _split_etale(Q, rng):
    """Orthogonal idempotents of the etale quotient, one per field factor.

    Returns a list of (idempotent, residue_degree).
    """
    p = Q.p
    done = []
    work = [Q.one]
    tries = 0
    while work:
        ident = work.pop()
        basis, _ = fp_rref([Q.mul(ident, b) for b in _quotient_basis(Q)], p)
        d = len(basis)
        split = False
        for z in _candidate_elements(Q, basis, rng):
            tries += 1
            if tries > SPLIT_TRY_CAP:
                raise SplitFailure("iteration cap hit while splitting etale algebra")
            m, _ = _minpoly_in_piece(Q, ident, z)
            if m.degree == d and is_irreducible(m):
                done.append((ident, d))
                split = True
                break
            factors = berlekamp_factor(m)
            if len(factors) > 1:
                g = factors[0][0]
                h = m.exact_div(g)
                u, v = _poly_xgcd_pair(g, h)
                # epsilon = v(z) h(z) acts as ident on the g-component
                eps = Q.mul(_poly_at(Q, ident, z, v), _poly_at(Q, ident, z, h))
                other = Q.scale_add([1, p - 1], [ident, eps])
                work.append(eps)
                work.append(other)
                split = True
                break
        if not split:
            raise SplitFailure("no splitting element found")
    return done


def _quotient_basis(Q):
    out = []
    for i in range(Q.dim):
        v = [0] * Q.dim
        v[i] = 1
        out.append(tuple(v))
    return out


def _candidate_elements(Q, basis, rng):
    for b in basis:
        yield b
    for _ in range(40):
        coeffs = [rng.randrange(Q.p) for _ in basis]
        yield Q.scale_add(coeffs, basis)


def _poly_xgcd_pair(g: UniPolyFp, h: UniPolyFp):
    """(u, v) with u*g + v*h = 1 for coprime g, h."""
    p = g.p
    r0, r1 = g, h
    u0, u1 = UniPolyFp(p, (1,)), UniPolyFp(p, ())
    v0, v1 = UniPolyFp(p, ()), UniPolyFp(p, (1,))
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    # r0 is a unit constant
    inv = pow(r0.coeffs[0], p - 2, p)
    scale = UniPolyFp(p, (inv,))
    return u0 * scale, v0 * scale


def _lift_idempotent(alg, e0, p):
    """Iterate e <- 3e^2 - 2e^3 until idempotent; valid in any characteristic."""
    e = e0
    for _ in range(LIFT_ITER_CAP):
        sq = alg.vec_mul(e, e)
        if sq == e:
            return e
        cube = alg.vec_mul(sq, e)
        e = tuple((3 * a - 2 * b) % p for a, b in zip(sq, cube))
    raise SplitFailure("idempotent lifting did not converge")


def decompose(alg: StructureAlgebra) -> ArtinDecomposition:
    """Split an F_p-algebra into local Artinian factors.

    Deterministic: candidate splitting elements are basis vectors first,
    then pseudo-random with a fixed seed.
    """
    alg.require_valid()
    if alg.base.kind != "Fp":
        raise InvalidAlgebra("decomposition needs base F_p")
    p, n = alg.base.p, alg.rank
    nil_rows = nilradical(alg)
    nil_pivots = [row.index(1) for row in nil_rows]  # each RREF row leads with 1
    Q = _Quotient(alg, nil_rows, nil_pivots)
    rng = random.Random(SPLIT_SEED)
    pieces = _split_etale(Q, rng)

    results = []
    for qbar, f in pieces:
        e = _lift_idempotent(alg, Q.lift(qbar), p)
        fac_vectors = [alg.vec_mul(e, alg.basis_vector(j)) for j in range(n)]
        dim = len(fp_rref(fac_vectors, p)[0])
        # maximal ideal = e * N
        m_vectors = [alg.vec_mul(e, v) for v in nil_rows]
        m_basis, _ = fp_rref(m_vectors, p)
        m_dim = len(m_basis)
        if dim - m_dim != f:
            raise SplitFailure(
                f"residue degree mismatch: dim {dim}, nil {m_dim}, expected f {f}"
            )
        m_sq = [alg.vec_mul(a, b) for a in m_basis for b in m_basis]
        m_sq_basis, _ = fp_rref(m_sq, p)
        tangent = (m_dim - len(m_sq_basis)) // f
        nilpotency = 1
        cur = m_basis
        while cur:
            nilpotency += 1
            nxt = [alg.vec_mul(a, b) for a in cur for b in m_basis]
            cur, _ = fp_rref(nxt, p)
        results.append((LocalFactor(dim, f, tangent, nilpotency), e))

    results.sort(key=lambda fe: (fe[0].dimension, fe[0].residue_degree, fe[0].tangent_dim, fe[1]))
    factors = tuple(f for f, _ in results)
    idempotents = tuple(e for _, e in results)
    _check_decomposition(alg, factors, idempotents)
    return ArtinDecomposition(p, factors, idempotents)


def _check_decomposition(alg, factors, idempotents):
    p = alg.base.p
    total = [0] * alg.rank
    for i, e in enumerate(idempotents):
        if alg.vec_mul(e, e) != e:
            raise SplitFailure("lifted element is not idempotent")
        for j, e2 in enumerate(idempotents):
            if i < j and any(alg.vec_mul(e, e2)):
                raise SplitFailure("idempotents are not orthogonal")
        total = [(a + b) % p for a, b in zip(total, e)]
    if tuple(total) != tuple(alg.identity):
        raise SplitFailure("idempotents do not sum to 1")
    if sum(f.dimension for f in factors) != alg.rank:
        raise SplitFailure("factor dimensions do not sum to the rank")


# ---------------------------------------------------------------------------
# monogenicity criteria


def local_factor_monogenic(factor: LocalFactor) -> bool:
    """Over the perfect field F_p only the tangent condition can fail."""
    return factor.tangent_dim <= 1


def fiber_monogenic(dec: ArtinDecomposition) -> bool:
    """Every factor locally monogenic, and per residue degree f the number
    of factors must not exceed the number of degree-f closed points of the
    affine line over F_p."""
    if not all(local_factor_monogenic(f) for f in dec.factors):
        return False
    counts = {}
    for f in dec.factors:
        counts[f.residue_degree] = counts.get(f.residue_degree, 0) + 1
    return all(c <= necklace_count(dec.prime, d) for d, c in counts.items())
