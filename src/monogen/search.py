"""Height-bounded search for global monogenerators over Z.

A coordinate vector v is a witness when the index form evaluates to +-1.
Witnesses are grouped into affine-equivalence classes: theta ~ u*theta + t
for u = +-1 and t an integer multiple of 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceeded, IdentityNotInBasis, MonogenError, NotIntegerBase
from .algebra import StructureAlgebra
from .exactring import SparsePoly
from .indexform import IndexForm, index_form

DEFAULT_ENUM_CAP = 10**7


def scan(poly: SparsePoly, values, cap: int):
    """Yield (v, poly(v)) for every v in values^m over the m variables poly uses.

    The other coordinates of v stay 0, and points come in lexicographic
    order.  Raises BudgetExceeded before the first evaluation when
    len(values)^m exceeds cap.
    """
    used = poly.variables_used()
    if len(values) ** len(used) > cap:
        raise BudgetExceeded(f"{len(values)}^{len(used)} exceeds the enumeration cap {cap}")
    for combo in itertools.product(values, repeat=len(used)):
        v = [0] * poly.arity
        for i, c in zip(used, combo):
            v[i] = c
        yield tuple(v), poly.evaluate(v)


@dataclass(frozen=True)
class SearchResult:
    height: int
    witnesses: tuple
    classes: tuple
    exhausted: bool

    def to_json(self):
        return {
            "height": self.height,
            "witnesses": [list(w) for w in self.witnesses],
            "classes": [list(c) for c in self.classes],
            "exhausted": self.exhausted,
        }


def search_monogenerators(
    alg: StructureAlgebra,
    height: int,
    cap: int = DEFAULT_ENUM_CAP,
    form: IndexForm | None = None,
) -> SearchResult:
    """Scan the coordinate box |v_i| <= height for index-form values +-1.

    When 1 is a basis element its coordinate is pinned to 0 (the form does
    not involve it).  Witness order is lexicographic over the scanned box.
    """
    if alg.base.kind != "Z":
        raise NotIntegerBase("monogenerator search needs base Z")
    if height < 0:
        raise MonogenError(f"search height must be >= 0, got {height}")
    alg.require_valid()
    if form is None:
        form = index_form(alg)
    values = range(-height, height + 1)
    witnesses = [v for v, value in scan(form.form, values, cap) if value in (1, -1)]
    ident = alg.identity_basis_index()
    classes = []
    if ident is not None:
        seen = set()
        for w in witnesses:
            rep = affine_normalize(alg, w)
            if rep not in seen:
                seen.add(rep)
                classes.append(rep)
        classes.sort()
    return SearchResult(height, tuple(witnesses), tuple(classes), True)


def affine_normalize(alg: StructureAlgebra, v):
    """Canonical representative of the orbit {u*v + t*e_k : u = +-1, t in Z}.

    Requires 1 to be a basis element (at index k).  The representative has
    v_k = 0 and the first nonzero remaining coordinate positive.
    """
    k = alg.identity_basis_index()
    if k is None:
        raise IdentityNotInBasis(
            "affine normalization needs 1 as a basis element; orbit left unreduced"
        )
    w = list(v)
    w[k] = 0
    first = next((c for i, c in enumerate(w) if i != k and c != 0), None)
    if first is not None and first < 0:
        w = [-c for c in w]
    return tuple(w)
