"""Structure theory of finite-dimensional commutative algebras over F_p.

Computes the nilradical, splits the algebra into local factors through
its Frobenius-fixed subalgebra, and applies the tangent-dimension and
point-counting criteria for fiber monogenicity.  All linear algebra is
fp_rref and fp_kernel: the minimal polynomial of a fixed element is the
first kernel vector of its powers, and its roots, the eigenvalues that
separate the factors, come from Berlekamp's root splitting, so the cost
does not grow with p.  Each factor's residue degree, tangent dimension
and nilpotency index are read off the ranks of one chain of powers of its
maximal ideal.  No product is taken by 1, the final check squares no
idempotent, and no split is tried on an element that acts on its piece as
a scalar, so a local fiber (idempotent 1) multiplies only for the
Frobenius columns and its nilradical chain.  Serves as an oracle
independent of brute-force index-form enumeration.
"""

from __future__ import annotations

from collections import namedtuple
from operator import mul

from .errors import InvalidAlgebra, SplitFailure
from .exactring import _tup_trim, berlekamp_factor, fp_kernel, fp_rref, necklace_count
from .algebra import StructureAlgebra


# ---------------------------------------------------------------------------
# decomposition data


class LocalFactor(namedtuple("LocalFactor", "dimension residue_degree tangent_dim nilpotency_index")):
    """One local Artinian factor of the fiber algebra."""

    __slots__ = ()

    def to_json(self):
        return {
            "dim": self.dimension,
            "f": self.residue_degree,
            "t": self.tangent_dim,
            "nilpotency_index": self.nilpotency_index,
        }


class ArtinDecomposition(namedtuple("ArtinDecomposition", "prime factors idempotents")):
    __slots__ = ()

    def to_json(self):
        return {
            "p": self.prime,
            "factors": [f.to_json() for f in self.factors],
            "idempotents": [list(e) for e in self.idempotents],
        }


# ---------------------------------------------------------------------------
# nilradical


def _frobenius(alg: StructureAlgebra):
    """Columns of the Frobenius matrix Phi: the images x^p of the basis vectors.

    Each e_i^p is raised left to right (StructureAlgebra.element_power), so
    every product but the squarings reads one plane of the table; a basis
    vector that is 1 is its own image and takes no product.
    """
    p = alg.base.p
    return [u if u == alg.identity else alg.element_power(u, p)
            for u in map(alg.basis_vector, range(alg.rank))]


def nilradical(alg: StructureAlgebra, frob=None):
    """Row-reduced basis of the nilradical of an F_p-algebra.

    ker Phi^m with p^m >= n, where Phi is the F_p-linear Frobenius x -> x^p:
    Phi^m is x -> x^(p^m), which kills exactly the nilpotent elements.  frob
    holds the columns of Phi (computed when not given); Phi^m takes m - 1
    products over F_p, none when p >= n.
    """
    if alg.base.kind != "Fp":
        raise InvalidAlgebra("nilradical needs base F_p")
    p, n = alg.base.p, alg.rank
    images = frob = frob or _frobenius(alg)
    q = p
    phi_rows = list(zip(*frob))
    while q < n:
        images = [tuple([sum(map(mul, v, row)) % p for row in phi_rows]) for v in images]
        q *= p
    rows, _ = fp_rref(fp_kernel(list(zip(*images)), p), p)
    return rows


# ---------------------------------------------------------------------------
# decomposition


def _primitive_idempotents(alg, frob):
    """The primitive idempotents, split off by one Frobenius-fixed element at a time.

    Frobenius x -> x^p (columns frob) is F_p-linear, and ker(Phi - I) is
    exactly the F_p-span of the primitive idempotents (Berlekamp's
    subalgebra), so its dimension r is the number of local factors.
    """
    p, n = alg.base.p, alg.rank
    phi_minus_1 = [list(row) for row in zip(*frob)]
    for i, row in enumerate(phi_minus_1):
        row[i] -= 1
    fixed = fp_kernel(phi_minus_1, p)
    r = len(fixed)
    idempotents = [alg.identity]
    for b in fixed:
        if len(idempotents) == r:
            break
        idempotents = [d for e in idempotents for d in _split(alg, e, b, min(r, p))]
    return idempotents


def _split(alg, e, b, k):
    """Projectors of e*A onto the eigenspaces of b*e.

    b is a combination of primitive idempotents, so b*e = sum c_i e_i over
    the primitive idempotents e_i of e*A, with c_i in F_p (b*e is b itself
    when e is 1).  When b*e lies in F_p*e there is one eigenvalue, and e is
    returned as it is, with no power, kernel or root taken.  Otherwise
    the minimal polynomial g of b*e has distinct roots, no more than the
    factors or than p, and k = min(r, p) bounds both, so e, b*e, ...,
    (b*e)^k are dependent.  The first vector of their F_p kernel is g; its
    roots come from Berlekamp's root splitting.  The projector onto the
    eigenspace of a root c is the Lagrange polynomial g(x)/((x - c) g'(c))
    at b*e, a combination of the powers already formed.
    """
    p = alg.base.p
    be = b if e == alg.identity else alg.vec_mul(b, e)
    for x, y in zip(e, be):
        if x:
            break
    scalar = y * pow(x, p - 2, p)
    if tuple([scalar * x % p for x in e]) == be:
        return [e]
    powers = [e, be]
    while len(powers) <= k:
        powers.append(alg.vec_mul(powers[-1], be))
    rows = list(zip(*powers))
    g = _tup_trim(fp_kernel(rows, p)[0])
    projectors = []
    for c in berlekamp_factor(g, p):
        # q = g/(x - c) by synthetic division, high to low; q(c) = g'(c)
        q, acc, value = [], 0, 0
        for x in reversed(g[1:]):
            acc = (acc * c + x) % p
            q.append(acc)
            value = (value * c + acc) % p
        scale = pow(value, p - 2, p)
        projectors.append(tuple([sum(map(mul, reversed(q), row)) * scale % p for row in rows]))
    return projectors


def decompose(alg: StructureAlgebra) -> ArtinDecomposition:
    """Split an F_p-algebra into local Artinian factors.

    Deterministic: primitive idempotents are unique, and the factors are
    sorted by (dimension, residue degree, tangent dimension, idempotent).
    A local fiber's only idempotent is 1, whose factor is the whole
    algebra, with maximal ideal the nilradical: it takes no product.
    """
    if alg.base.kind != "Fp":
        raise InvalidAlgebra("decomposition needs base F_p")
    p, n = alg.base.p, alg.rank
    frob = _frobenius(alg)
    nil_rows = nilradical(alg, frob)
    results = []
    for e in _primitive_idempotents(alg, frob):
        if e == alg.identity:
            dim, m = n, nil_rows
        else:
            # e*e_j is row j of L_e, and e*v the combination sum v_j e*e_j
            products = alg.mult_rows(e)
            dim = len(fp_rref(products, p)[0])
            m = nil_rows and fp_rref([[sum(map(mul, v, col)) for col in zip(*products)]
                                      for v in nil_rows], p)[0]
        # the chain m, m^2, ..., 0 of powers of the maximal ideal m = e * N;
        # products commute, so m^2 takes the pairs a <= b
        chain = [m]
        while chain[-1]:
            prev = chain[-1]
            chain.append(fp_rref([alg.vec_mul(a, b) for i, a in enumerate(prev)
                                  for b in (m[i:] if prev is m else m)], p)[0])
        ranks = [len(power) for power in chain] + [0]
        f = dim - ranks[0]
        tangent = (ranks[0] - ranks[1]) // f
        results.append((LocalFactor(dim, f, tangent, len(chain)), e))

    results.sort(key=lambda fe: (fe[0].dimension, fe[0].residue_degree, fe[0].tangent_dim, fe[1]))
    factors, idempotents = zip(*results)
    _check_decomposition(alg, factors, idempotents)
    return ArtinDecomposition(p, factors, idempotents)


def _check_decomposition(alg, factors, idempotents):
    # orthogonal with sum 1 gives e_i = e_i * sum_j e_j = e_i^2, so no square is taken
    p = alg.base.p
    total = [0] * alg.rank
    for i, e in enumerate(idempotents):
        for e2 in idempotents[i + 1:]:
            if any(alg.vec_mul(e, e2)):
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
