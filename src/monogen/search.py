"""Height-bounded search for global monogenerators over Z.

A coordinate vector v is a witness when the index form evaluates to +-1.
Witnesses are grouped into affine-equivalence classes: theta ~ u*theta + t
for u = +-1 and t an integer multiple of 1.

Every scan of a form, over Z or F_p, runs on one walk (_walk); no scan runs
over F_p[t], since only a form over Z is reduced mod p.  The terms are
compiled into per-coordinate transitions over plain coefficients, each line
of the last coordinate becomes a univariate SparsePoly, and that line is
evaluated once per point.  projective_scan (one point per line through 0 of
F_p^m) and search_monogenerators (half of the Z box) walk the same charts
(_charts): the point 0, then the points whose first nonzero coordinate is
the j-th, for j from last to first.  A chart's transitions are compiled when
the scan reaches it and freed when its walk ends or is abandoned.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetExceeded, IdentityNotInBasis, MonogenError, NotIntegerBase
from .algebra import StructureAlgebra
from .exactring import SparsePoly
from .indexform import IndexForm, index_form

DEFAULT_ENUM_CAP = 10**7


def projective_scan(poly: SparsePoly, cap: int, name: str):
    """Yield (v, poly(v)) for 0 and one point on each line through 0 of F_p^m.

    poly is over F_p, p = poly.base.p, and m is the number of variables it
    uses; the others stay 0.  After the zero point come the points whose
    first nonzero used coordinate is 1, in lexicographic order; a
    homogeneous poly of degree d takes the value c^d * poly(v) at c*v.  A
    chart is compiled when the scan reaches it, so a caller that stops early
    compiles no later chart.  Raises BudgetExceeded, its message led by
    name, before the first evaluation when p^m exceeds cap.
    """
    yield from _charts(poly, range(1, 2), range(poly.base.p), cap, name)


def _charts(poly: SparsePoly, leads, values, cap: int, name: str):
    """Yield (v, poly(v)) for 0 and each v whose first nonzero used coordinate is in leads.

    Chart j sets the used coordinates before the j-th to 0, runs the j-th
    over leads and the later ones over values; unused coordinates stay 0.
    Chart 0 holds every term, chart j + 1 those of chart j with exponent 0
    at the j-th used coordinate, and chart m, past the last, is the point
    0.  The charts run from m down to 0, so with leads starting at 1 the
    points come in lexicographic order.
    Raises BudgetExceeded, its message led by name, before the first
    evaluation when len(values)^m exceeds cap, m the number of used
    variables: the one budget check of every scan.
    """
    used = poly.variables_used()
    m = len(used)
    _check_budget(len(values), m, cap, name)
    charts = [poly.terms]
    for i in used:
        charts.append({e: c for e, c in charts[-1].items() if not e[i]})
    base, point = poly.base, [0] * poly.arity
    for j in reversed(range(m + 1)):
        yield from _walk(base, charts[j], used[j:], [leads] + [values] * (m - j - 1), point)


def _walk(base, terms: dict, coords, ranges, point):
    """Yield (v, value) with coordinate coords[k] of point running over ranges[k].

    terms maps exponent vectors to coefficients, with every exponent outside
    coords 0; the other coordinates of point keep their values.  Points
    come in lexicographic order.  Level 0 holds the exponents at coords;
    level k holds one coefficient per distinct suffix (e_k, ...), and
    setting coordinate k to x adds each one, times x^e_k, onto its suffix
    (e_{k+1}, ...): (source, destination, exponent) transitions compiled
    when the walk starts and freed when it ends.  base is Z or F_p:
    coefficients are plain ints, reduced mod p once per line.  The last
    level is a univariate SparsePoly, the line, evaluated once per point.
    """
    m = len(coords)
    if not m:
        yield tuple(point), SparsePoly(base, len(point), terms).evaluate(point)
        return
    nodes = [[tuple([e[i] for i in coords]) for e in terms]]  # the suffixes at each level
    steps = []  # (transitions, largest exponent) of each level but the last
    for k in range(m - 1):
        index, transitions = {}, []
        for s, e in enumerate(nodes[k]):
            transitions.append((s, index.setdefault(e[1:], len(index)), e[0]))
        nodes.append(list(index))
        steps.append((transitions, max((e[0] for e in nodes[k]), default=0)))
    last, values = coords[-1], ranges[-1]
    for line in _lines(base, nodes, steps, coords, ranges, point, 0, list(terms.values())):
        for x in values:
            point[last] = x
            yield tuple(point), line.evaluate((x,))


def _lines(base, nodes, steps, coords, ranges, point, k, coeffs):
    """Yield the line of _walk for each setting of its coordinates k to m - 2,
    given the coefficients coeffs of level k."""
    if k == len(steps):
        p = base.p
        line = {e: r for e, c in zip(nodes[k], coeffs) if (r := c if p is None else c % p)}
        yield SparsePoly._derived(base, 1, line)
        return
    transitions, top = steps[k]
    width = len(nodes[k + 1])
    for x in ranges[k]:
        point[coords[k]] = x
        powers = [x**e for e in range(top + 1)]
        nxt = [0] * width
        for s, d, e in transitions:
            nxt[d] += coeffs[s] * powers[e]
        yield from _lines(base, nodes, steps, coords, ranges, point, k + 1, nxt)


def _check_budget(count: int, m: int, cap: int, name: str):
    if count**m > cap:
        raise BudgetExceeded(f"{name}: {count}^{m} exceeds the enumeration cap {cap}")


class SearchResult(namedtuple("SearchResult", "height witnesses classes exhausted")):
    __slots__ = ()

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
    """Find the index-form values +-1 in the coordinate box |v_i| <= height.

    When 1 is a basis element its coordinate is pinned to 0 (the form does
    not involve it).  The box covers the m coordinates the form uses; the
    others stay 0.  The form is homogeneous of degree d, so F(-v) =
    (-1)^d * F(v): only the point 0 and the half of the box whose first
    nonzero coordinate is positive are evaluated, 1 + ((2h+1)^m - 1)/2
    points, and each witness w found there also gives -w.  Those points
    are the charts of _charts with leads 1..height.  Witnesses are sorted,
    which is lexicographic order over the box.  Raises BudgetExceeded
    before the first evaluation when (2h+1)^m exceeds cap.
    """
    if alg.base.kind != "Z":
        raise NotIntegerBase("monogenerator search needs base Z")
    check_height(height)
    if form is None:
        form = index_form(alg)
    scan = _charts(form.form, range(1, height + 1), range(-height, height + 1), cap,
                   f"box search at height {height}")
    found = [v for v, value in scan if value in (1, -1)]
    witnesses = sorted(found + [tuple(-c for c in w) for w in found if any(w)])
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
