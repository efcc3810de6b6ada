"""Rank-n free algebras given by structure constants.

A StructureAlgebra stores the multiplication table e_i * e_j = sum_k
c[i][j][k] e_k over a BaseRing, together with the coordinates of 1 in the
basis.  Every instance is a commutative ring with 1.  A table given as
structure constants is checked against the ring axioms (commutativity,
associativity, the given 1), and ValidationError lists every violation.
Orders in number fields enter through OrderPresentation (a monic minimal
polynomial plus a rational basis matrix in the power basis); they are
valid by construction once the closure check passes, so they skip the
axiom check, as reductions mod p do.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import (
    InvalidAlgebra,
    LengthMismatch,
    MonogenError,
    NonMonic,
    NotClosedUnderMultiplication,
    NotIntegerBase,
    SingularBasisMatrix,
    ValidationError,
)
from .exactring import (
    BaseRing,
    Fp,
    ZZ,
    _tup_divmod,
    _tup_mul,
    int_adjugate,
    is_prime,
)

RANK_CAP = 12


class StructureAlgebra:
    """Free rank-n commutative algebra with 1 over a base ring, immutable.

    The constructor raises ValidationError, listing every violated axiom,
    unless the table is commutative and associative with the given 1.
    Algebras that are rings by construction skip the check: orders come
    from ``_derived``, and reductions mod p from ``reduce_mod_p``.
    """

    __slots__ = ("base", "rank", "_constants", "identity", "label", "_table", "_units")

    def __init__(self, base: BaseRing, rank: int, constants, identity, label: str = ""):
        self._fill(base, rank, constants, identity, label)
        violations = self.validate()
        if violations:
            raise ValidationError(violations)

    @classmethod
    def _derived(cls, base, rank, constants, identity, label):
        """An algebra known to be a ring, built without the axiom check.

        An order is a subring of Q[x]/(f); reductions mod p come from
        reduce_mod_p.
        """
        alg = cls.__new__(cls)
        alg._fill(base, rank, constants, identity, label)
        return alg

    def _fill(self, base, rank, constants, identity, label):
        if type(rank) is not int or not 1 <= rank <= RANK_CAP:  # a JSON true is no rank
            raise InvalidAlgebra(f"rank must be in 1..{RANK_CAP}, got {rank!r}")
        self.base = base
        self.rank = rank
        self._constants = constants = tuple(
            tuple(tuple(base.coerce(c) for c in row) for row in plane)
            for plane in constants
        )
        if len(constants) != rank or any(
            len(plane) != rank or any(len(row) != rank for row in plane)
            for plane in constants
        ):
            raise InvalidAlgebra("structure constants must form an n x n x n array")
        self.identity = tuple(base.coerce(u) for u in identity)
        if len(self.identity) != rank:
            raise InvalidAlgebra("identity coordinates must have length n")
        self.label = label
        zeros, one = (base.zero,) * rank, (base.one,)
        self._units = tuple(zeros[:i] + one + zeros[i + 1:] for i in range(rank))
        # over Z and F_p, vec_mul sums plain ints over the nonzero (k, c[i][j][k]) of each (i, j)
        self._table = None if base.is_polynomial else tuple(
            tuple(tuple((k, c) for k, c in enumerate(row) if c) for row in plane)
            for plane in constants
        )

    @property
    def constants(self):
        """c[i][j][k]; a reduction mod p writes them out from its table when first read."""
        if self._constants is None:
            n = self.rank
            rows = [[0] * n for _ in range(n * n)]
            for row, entries in zip(rows, (e for plane in self._table for e in plane)):
                for k, c in entries:
                    row[k] = c
            self._constants = tuple(tuple(map(tuple, rows[i:i + n])) for i in range(0, n * n, n))
        return self._constants

    # -- coordinate arithmetic

    def vec_mul(self, v, w):
        """Product of two coordinate vectors through the structure constants."""
        base, n, table = self.base, self.rank, self._table
        if len(v) != n or len(w) != n:
            raise LengthMismatch("coordinate vectors must have length n")
        if table is not None:
            acc = [0] * n
            nonzero_w = [(j, b) for j, b in enumerate(w) if b]
            for a, plane in zip(v, table):
                if a:
                    for j, b in nonzero_w:
                        ab = a * b
                        for k, c in plane[j]:
                            acc[k] += ab * c
            p = base.p
            return tuple(acc) if p is None else tuple([x % p for x in acc])
        out, constants = [base.zero] * n, self.constants
        for i in range(n):
            if base.is_zero(v[i]):
                continue
            for j in range(n):
                if base.is_zero(w[j]):
                    continue
                c = base.mul(v[i], w[j])
                for k in range(n):
                    t = constants[i][j][k]
                    if not base.is_zero(t):
                        out[k] = base.add(out[k], base.mul(c, t))
        return tuple(out)

    def mult_rows(self, v):
        """The products v*e_j for j = 0..n-1, the matrix of multiplication by v, in one pass."""
        table = self._table
        if table is None:
            return [self.vec_mul(v, u) for u in self._units]
        n, p = self.rank, self.base.p
        rows = [[0] * n for _ in range(n)]
        for a, plane in zip(v, table):
            if a:
                for row, entries in zip(rows, plane):
                    for k, c in entries:
                        row[k] += a * c
        return [tuple(row) if p is None else tuple([x % p for x in row]) for row in rows]

    def basis_vector(self, i):
        return self._units[i]

    def element_power(self, v, k: int):
        """v^k for k >= 0, left to right: square, then multiply by v itself.

        Every multiplication is by v, never by a power of it, so for a basis
        vector e_i it reads a single plane of the table, as the first
        squaring does; at p <= 7, e_i^p squares a dense vector at most once.
        """
        if not k:
            return self.identity
        out = v
        for bit in bin(k)[3:]:
            out = self.vec_mul(out, out)
            if bit == "1":
                out = self.vec_mul(out, v)
        return out

    # -- validation

    def validate(self):
        """Return the list of violated axioms (empty iff valid).

        e_i * e_j is read off the table as c[i][j].
        """
        c, n = self.constants, self.rank
        violations = []
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    if c[i][j][k] != c[j][i][k]:
                        violations.append(f"commutativity: c[{i}][{j}][{k}] != c[{j}][{i}][{k}]")
        basis = [self.basis_vector(i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if self.vec_mul(c[i][j], basis[k]) != self.vec_mul(basis[i], c[j][k]):
                        violations.append(f"associativity: (e{i}*e{j})*e{k} != e{i}*(e{j}*e{k})")
        for i in range(n):
            if self.vec_mul(self.identity, basis[i]) != basis[i]:
                violations.append(f"identity: 1*e{i} != e{i}")
        return violations

    # -- transformations

    def reduce_mod_p(self, p: int) -> "StructureAlgebra":
        """The algebra over F_p whose constants and 1 are this one's mod p.

        Reduction keeps the ring axioms, which are integer identities in the
        constants, so the coordinates of 1 and the nonzero entries of the
        integer table are reduced entry by entry, with no coercion and no
        axiom check; the constants are written out only when read.
        """
        if self.base.kind != "Z":
            raise NotIntegerBase("reduction mod p needs base Z")
        if not is_prime(p):
            raise MonogenError(f"{p} is not prime")
        red = StructureAlgebra.__new__(StructureAlgebra)
        red.base, red.rank, red.label = Fp(p), self.rank, f"{self.label} mod {p}"
        red.identity = tuple([u % p for u in self.identity])
        red._units = self._units  # 0 and 1 in Z are 0 and 1 in F_p
        red._constants = None
        # c[i][j] = c[j][i], so each row is reduced once, for i <= j
        n = self.rank
        table = [[None] * n for _ in range(n)]
        for i, sparse in enumerate(self._table):
            for j in range(i, n):
                table[i][j] = table[j][i] = tuple([(k, r) for k, c in sparse[j] if (r := c % p)])
        red._table = tuple(map(tuple, table))
        return red

    def discriminant(self) -> int:
        """det of the trace-pairing Gram matrix Tr(e_i e_j); base Z only.

        Tr(e_k) = sum_l c[k][l][l], and Tr(e_i e_j) = sum_k c[i][j][k] Tr(e_k).
        """
        if self.base.kind != "Z":
            raise NotIntegerBase("discriminant needs base Z")
        c, n = self.constants, self.rank
        traces = [sum(c[k][j][j] for j in range(n)) for k in range(n)]
        gram = [[sum(x * t for x, t in zip(c[i][j], traces)) for j in range(n)] for i in range(n)]
        return int_adjugate(gram)[0]

    def identity_basis_index(self):
        """Index k if the identity coordinates are the k-th unit vector, else None."""
        base = self.base
        idx = None
        for k, u in enumerate(self.identity):
            if base.is_zero(u):
                continue
            if u != base.one or idx is not None:
                return None
            idx = k
        return idx

    # -- serialization

    def to_json(self):
        b = self.base
        return {
            "base": b.to_json(),
            "rank": self.rank,
            "constants": [
                [[b.elem_to_json(c) for c in row] for row in plane]
                for plane in self.constants
            ],
            "identity": [b.elem_to_json(u) for u in self.identity],
            "label": self.label,
        }

    @classmethod
    def from_json(cls, d):
        base = BaseRing.from_json(d["base"])
        return cls(base, d["rank"], d["constants"], d["identity"], d.get("label", ""))

    def __repr__(self):
        return f"StructureAlgebra({self.label or 'rank %d' % self.rank})"


class OrderPresentation:
    """Monic integer minimal polynomial plus a rational basis matrix.

    Row i of the basis matrix gives the coordinates of the i-th basis
    element in the power basis 1, eta, ..., eta^(n-1).
    """

    def __init__(self, minpoly, basis):
        if any(type(c) is not int for c in minpoly):
            raise MonogenError(f"minimal polynomial coefficients must be integers, got {minpoly!r}")
        self.minpoly = list(minpoly)
        n = len(self.minpoly) - 1
        if n < 1 or self.minpoly[-1] != 1:
            raise NonMonic("minimal polynomial must be monic of degree >= 1")
        if n > RANK_CAP:  # before the basis, and the table, are built
            raise InvalidAlgebra(f"rank must be in 1..{RANK_CAP}, got {n}")
        self.n = n
        self.basis = [[Fraction(x) for x in row] for row in basis]
        if len(self.basis) != n or any(len(row) != n for row in self.basis):
            raise SingularBasisMatrix("basis matrix must be n x n")

    def to_algebra(self, label: str = "") -> StructureAlgebra:
        """Structure constants of the module spanned by the basis rows.

        With the basis as M/D, M an integer matrix, b_i*b_j has coordinates
        P*adj(M)/(D*det M), where P = M_i*M_j mod f in integers; det M and
        adj M come from one int_adjugate pass.  Raises SingularBasisMatrix
        when det M == 0, and NotClosedUnderMultiplication if a coordinate of
        a product, or of 1, is not an integer; otherwise the span is a
        subring of Q[x]/(f), a ring.
        """
        n = self.n
        D = lcm(*(x.denominator for row in self.basis for x in row))
        M = [[x.numerator * (D // x.denominator) for x in row] for row in self.basis]
        det, adj = int_adjugate(M)
        if adj is None:
            raise SingularBasisMatrix("basis matrix is singular")
        scale, adj_columns = D * det, list(zip(*adj))

        def coordinates(P):
            """Each coordinate of P/D^2, power basis, times D*det M."""
            return [sum(a * b for a, b in zip(P, col)) for col in adj_columns]

        constants = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                coords = coordinates(_tup_divmod(_tup_mul(M[i], M[j]), self.minpoly)[1])
                for k, c in enumerate(coords):
                    if c % scale:
                        raise NotClosedUnderMultiplication(
                            f"product b{i + 1}*b{j + 1} has non-integral coordinate "
                            f"{Fraction(c, scale)} on basis element {k + 1}"
                        )
                constants[i][j] = constants[j][i] = [c // scale for c in coords]
        identity = coordinates((D * D,))
        if any(c % scale for c in identity):
            raise NotClosedUnderMultiplication("1 is not in the integer span of the basis")
        return StructureAlgebra._derived(ZZ, n, constants, [c // scale for c in identity], label)

    def to_json(self):
        return {
            "minpoly": self.minpoly,
            "basis": [[f"{x.numerator}/{x.denominator}" for x in row] for row in self.basis],
        }

    @classmethod
    def from_json(cls, d):
        """Read what to_json writes: basis entries are ints or "n/d" strings."""
        for x in (x for row in d["basis"] for x in row):
            if not (type(x) is int or isinstance(x, str) and re.fullmatch(r"[+-]?\d+(/\d+)?", x)):
                raise MonogenError(f"basis entries must be integers or 'n/d' strings, got {x!r}")
        return cls(d["minpoly"], d["basis"])


def power_basis_algebra(minpoly, label: str = "") -> StructureAlgebra:
    """Z[x]/(f) with the power basis."""
    n = len(minpoly) - 1
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    return OrderPresentation(minpoly, ident).to_algebra(label=label)


def split_algebra(n: int, label: str = "") -> StructureAlgebra:
    """Z^n with the idempotent basis; identity coordinates all 1."""
    constants = [
        [[1 if i == j == k else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]
    return StructureAlgebra(ZZ, n, constants, [1] * n, label=label or f"Z^{n}")
