"""Matrix of coefficients and the local index form of an algebra.

The generic element theta = x_1 e_1 + ... + x_n e_n has powers
theta^(i-1) = sum_j a[i][j] e_j with a[i][j] polynomial in the x's; the
index form is det(a), sign-normalized, homogeneous of degree n(n-1)/2.
An element with coordinate vector v generates the algebra iff the form
evaluates to a unit at v.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidAlgebra, LengthMismatch
from .exactring import SparsePoly, determinant
from .algebra import StructureAlgebra


def matrix_of_coefficients(alg: StructureAlgebra):
    """n x n matrix of SparsePoly; row i = coordinates of theta^(i-1)."""
    alg.require_valid()
    base, n = alg.base, alg.rank
    zero = SparsePoly.zero(base, n)

    def const(c):
        return SparsePoly.constant(base, n, c)

    generic = [SparsePoly.variable(base, n, i) for i in range(n)]
    row = [const(u) for u in alg.identity]
    rows = [list(row)]
    for _ in range(n - 1):
        nxt = [zero] * n
        for i in range(n):
            if row[i].is_zero:
                continue
            for j in range(n):
                coeff = row[i] * generic[j]
                for k in range(n):
                    c = alg.constants[i][j][k]
                    if not base.is_zero(c):
                        nxt[k] = nxt[k] + coeff.scale(c)
        row = nxt
        rows.append(list(row))
    return rows


@dataclass(frozen=True)
class IndexForm:
    """Sign-normalized index form of an algebra with a chosen basis."""

    label: str
    rank: int
    form: SparsePoly

    @property
    def degree(self) -> int:
        return self.rank * (self.rank - 1) // 2

    def evaluate(self, v):
        if len(v) != self.rank:
            raise LengthMismatch(f"expected {self.rank} coordinates, got {len(v)}")
        return self.form.evaluate(v)

    def reduce_mod_p(self, p: int) -> SparsePoly:
        return self.form.reduce_mod_p(p)

    def text(self, var_names=None) -> str:
        return self.form.text(var_names)

    def to_json(self):
        return {"label": self.label, "rank": self.rank, "form": self.form.to_json()}


def index_form(alg: StructureAlgebra) -> IndexForm:
    """Determinant of the matrix of coefficients, sign-normalized."""
    alg.require_valid()
    n = alg.rank
    if n == 1:
        form = SparsePoly.constant(alg.base, 1, 1)
        return IndexForm(alg.label, 1, form)
    det = determinant(matrix_of_coefficients(alg)).canonical_sign()
    expected = n * (n - 1) // 2
    if not det.is_zero and not det.is_homogeneous(expected):
        raise InvalidAlgebra(
            f"index form of {alg.label!r} is not homogeneous of degree {expected}"
        )
    return IndexForm(alg.label, n, det)


def check_monogenerator(alg: StructureAlgebra, v):
    """Certify a single candidate: the index form at v must be a unit."""
    form = index_form(alg)
    value = form.evaluate([alg.base.coerce(c) for c in v])
    return {"is_monogenerator": alg.base.is_unit(value), "value": value}
