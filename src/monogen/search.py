"""Height-bounded search for global monogenerators over Z.

A coordinate vector v is a witness when the index form evaluates to +-1.
Witnesses are grouped into affine-equivalence classes: theta ~ u*theta + t
for u = +-1 and t an integer multiple of 1.
"""

from __future__ import annotations

from contextlib import contextmanager
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
    len(values)^m exceeds cap.  The scan walks lines: each prefix of outer
    coordinates is substituted once, and each point then evaluates a
    univariate polynomial in the last used variable.
    """
    used = poly.variables_used()
    _check_budget(len(values), len(used), cap)
    point = [0] * poly.arity
    if not used:
        yield tuple(point), poly.evaluate(point)
        return
    on_used = SparsePoly(
        poly.base, len(used), {tuple(e[i] for i in used): c for e, c in poly.terms.items()}
    )
    yield from _lines(on_used, used, values, point)


def _lines(poly: SparsePoly, used, values, point):
    """Scan values^len(used); poly is in the coordinates ``used`` of point."""
    i = used[0]
    for x in values:
        point[i] = x
        if len(used) == 1:
            yield tuple(point), poly.evaluate([x])
        else:
            yield from _lines(poly.substitute_first(x), used[1:], values, point)


def projective_scan(poly: SparsePoly, p: int, cap: int):
    """Yield (v, poly(v)) for 0 and one point on each line through 0 of F_p^m.

    poly is over F_p or F_p[t] and m is the number of variables it uses; the
    others stay 0.  After the zero point come the points whose first nonzero
    used coordinate is 1, in lexicographic order; a homogeneous poly of
    degree d takes the value c^d * poly(v) at c*v.  Chart j sets the used
    coordinates before the j-th to 0 and the j-th to 1, and scans the rest
    with scan, which leaves the coordinates the chart does not use at 0.
    Raises BudgetExceeded when p^m exceeds cap, as scan would.
    """
    used = poly.variables_used()
    _check_budget(p, len(used), cap)
    zero = (0,) * poly.arity
    yield zero, poly.evaluate(zero)
    for j in reversed(range(len(used))):
        lead = used[j]
        for v, value in scan(_chart(poly, used[:j], lead), range(p), cap):
            yield v[:lead] + (1,) + v[lead + 1:], value


def _chart(poly: SparsePoly, zeros, lead: int) -> SparsePoly:
    """poly with the variables in zeros set to 0 and variable lead set to 1."""
    base = poly.base
    terms = {}
    for exps, c in poly.terms.items():
        if any(exps[i] for i in zeros):
            continue
        e = exps[:lead] + (0,) + exps[lead + 1:]
        terms[e] = base.add(terms[e], c) if e in terms else c
    return SparsePoly(base, poly.arity, terms)


def _check_budget(count: int, m: int, cap: int):
    if count**m > cap:
        raise BudgetExceeded(f"{count}^{m} exceeds the enumeration cap {cap}")


@contextmanager
def stage(name: str):
    """Prefix the message of a BudgetExceeded raised inside with name."""
    try:
        yield
    except BudgetExceeded as e:
        raise BudgetExceeded(f"{name}: {e}") from None


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
    check_height(height)
    if form is None:
        form = index_form(alg)
    values = range(-height, height + 1)
    with stage(f"box search at height {height}"):
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


def check_height(height: int):
    """Reject a negative search height before any work is done."""
    if height < 0:
        raise MonogenError(f"search height must be >= 0, got {height}")


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
