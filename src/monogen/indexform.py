"""Matrix of coefficients and the local index form of an algebra.

The generic element theta = x_1 e_1 + ... + x_n e_n has powers
theta^(i-1) = sum_j a[i][j] e_j with a[i][j] polynomial in the x's; the
index form is det(a), sign-normalized, homogeneous of degree n(n-1)/2.
An element with coordinate vector v generates the algebra iff the form
evaluates to a unit at v.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import InvalidAlgebra, LengthMismatch
from .exactring import SparsePoly, _int_mul_into, determinant
from .algebra import StructureAlgebra


def matrix_of_coefficients(alg: StructureAlgebra):
    """n x n matrix of SparsePoly; row i = coordinates of theta^(i-1).

    If 1 is basis element e_k, theta omits it: theta = sum_{j != k} x_j e_j.
    Adding x_k * 1 to theta changes each power by a combination of the
    lower ones, which leaves the determinant alone, so the index form does
    not involve x_k and the matrix never carries it.

    The powers are built on exponent vectors packed into one int, width
    bits per variable, so a product of monomials is the sum of their keys.
    Over Z[t] and F_p[t] the exponent of t is packed above the n x-fields,
    so every coefficient is a plain int and one product loop serves all
    four bases.  One unpack at the end serves all four bases too: it reads
    each packed term once, and over Z[t] and F_p[t] gathers the powers of t
    into coefficient tuples keyed by the x-part as it goes.  Over F_p and
    F_p[t] each row is reduced mod p once.
    Multiplication by theta sends a_i e_i to a_i * sum_j c_ijk x_j in
    coordinate k, so each nonzero form sum_j c_ijk x_j is packed once, off
    the table on all four bases, with t^d shifted up d fields of t.

    Row i is homogeneous of degree i - 1, so determinant leaves out the
    last variable the entries use and carries the one before it, or t over
    Z[t] and F_p[t], inside its integers.
    """
    base, n, p = alg.base, alg.rank, alg.base.p
    pinned = alg.identity_basis_index()
    width = max((n - 1).bit_length(), 1)
    t_shift = width * n
    powers_of_t = enumerate if base.is_polynomial else lambda c: ((0, c),)
    times_theta = []
    for plane in alg.table:
        forms = {}
        for j, entries in enumerate(plane):
            if j != pinned:
                for k, c in entries:
                    form = forms.setdefault(k, {})
                    for d, x in powers_of_t(c):
                        if x:
                            form[(1 << (width * j)) + (d << t_shift)] = x
        times_theta.append(forms.items())
    row = [{d << t_shift: x for d, x in powers_of_t(u) if x} for u in alg.identity]
    rows = [row]
    for _ in range(n - 1):
        nxt = [{} for _ in range(n)]
        for a, forms in zip(row, times_theta):
            if a:
                for k, form in forms:
                    _int_mul_into(nxt[k], a, form)
        if p is None:
            row = [{e: c for e, c in acc.items() if c} for acc in nxt]
        else:
            row = [{e: r for e, c in acc.items() if (r := c % p)} for acc in nxt]
        rows.append(row)
    mask, low, gather = (1 << width) - 1, (1 << t_shift) - 1, base.is_polynomial
    shifts = [width * j for j in range(n)]
    exps_of = {}  # the entries of a row share their monomials

    def unpacked(terms):
        out = {}
        for key, c in terms.items():
            if gather:  # the exponent of t lies above the x-fields
                d, key = key >> t_shift, key & low
            exps = exps_of.get(key)
            if exps is None:
                exps = exps_of[key] = tuple(key >> s & mask for s in shifts)
            if gather:  # into a coefficient tuple
                old = out.get(exps, ())
                old += (0,) * (d + 1 - len(old))
                c = old[:d] + (c,) + old[d + 1:]
            out[exps] = c
        return SparsePoly._derived(base, n, out)

    return [[unpacked(f) for f in r] for r in rows]


class IndexForm(namedtuple("IndexForm", "label rank form")):
    """Sign-normalized index form of an algebra with a chosen basis; form is a SparsePoly."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return self.rank * (self.rank - 1) // 2

    def evaluate(self, v):
        if len(v) != self.rank:
            raise LengthMismatch(f"expected {self.rank} coordinates, got {len(v)}")
        return self.form.evaluate(v)

    def reduce_mod_p(self, p: int) -> SparsePoly:
        return self.form.reduce_mod_p(p)

    def text(self) -> str:
        return self.form.text()

    def to_json(self):
        return {"label": self.label, "rank": self.rank, "form": self.form.to_json()}


def index_form(alg: StructureAlgebra) -> IndexForm:
    """Determinant of the matrix of coefficients, sign-normalized; at rank 1
    the signed coordinate of 1, so 1 over Z and Z[t]."""
    n = alg.rank
    det = determinant(matrix_of_coefficients(alg)).canonical_sign()
    expected = n * (n - 1) // 2
    if not det.is_homogeneous(expected):
        raise InvalidAlgebra(
            f"index form of {alg.label!r} is not homogeneous of degree {expected}"
        )
    return IndexForm(alg.label, n, det)


def check_monogenerator(alg: StructureAlgebra, v):
    """Certify a single candidate: the index form at v must be a unit."""
    form = index_form(alg)
    value = form.evaluate(v)
    return {"is_monogenerator": alg.base.is_unit(value), "value": value}
