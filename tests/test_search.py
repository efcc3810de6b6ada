import gc
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from monogen.errors import BudgetExceeded, IdentityNotInBasis
from monogen.algebra import power_basis_algebra, split_algebra
from monogen.exactring import ZZ, Fp, SparsePoly
from monogen.indexform import IndexForm, check_monogenerator
from monogen.localmono import classify
from monogen.search import affine_normalize, projective_scan, search_monogenerators
from conftest import counting_evaluate, gaussian_order, naive_scan


def x0_squared_plus_x2(base=ZZ):
    """x0^2 + x2 in three variables; x1 is unused."""
    return SparsePoly(base, 3, {(2, 0, 0): base.one, (0, 0, 1): base.one})


def on_charts(points):
    """The points of a full scan that a projective scan visits: 0 and those
    whose first nonzero coordinate is 1."""
    return [(v, value) for v, value in points if leading_coordinate(v) in (None, 1)]


class TestScan:
    def test_budget_before_first_evaluation(self, monkeypatch):
        calls = []
        monkeypatch.setattr(SparsePoly, "evaluate", lambda self, v: calls.append(v))
        form = IndexForm("x0^2 + x2", 3, x0_squared_plus_x2())
        with pytest.raises(BudgetExceeded):
            search_monogenerators(power_basis_algebra([0, 0, 0, 1]), 1, 8, form)
        assert calls == []

    def test_lexicographic_with_unused_at_zero(self):
        points = list(projective_scan(x0_squared_plus_x2(Fp(3)), 9, "scan"))
        assert [v for v, _ in points] == [(0, 0, 0), (0, 0, 1)] + [(1, 0, c) for c in range(3)]
        assert [value for _, value in points] == [(a * a + c) % 3 for (a, _, c), _ in points]


@st.composite
def scan_cases(draw):
    """An F_p polynomial and p, or a homogeneous Z polynomial of degree 0-3
    and a height 0-2; some variables may be unused."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    arity = draw(st.integers(1, 5))
    live = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
    if not p:  # homogeneous, so that search_monogenerators may halve the box
        live = [i for i, on in enumerate(live) if on] or [0]
        degree = draw(st.integers(0, 3))
        picks = st.lists(st.sampled_from(live), min_size=degree, max_size=degree)
        exps = picks.map(lambda ix: tuple(ix.count(i) for i in range(arity)))
        terms = draw(st.dictionaries(exps, st.integers(-2, 2), max_size=6))
        return SparsePoly(ZZ, arity, terms), draw(st.integers(0, 2))
    base = Fp(p)
    exps = st.tuples(*[st.integers(0, 3) if on else st.just(0) for on in live])
    terms = draw(st.dictionaries(exps, st.integers(-20, 20), max_size=6))
    return SparsePoly(base, arity, {e: base.coerce(c) for e, c in terms.items()}), p


class TestLineScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    @example((SparsePoly(ZZ, 3), 2))
    @example((SparsePoly(Fp(5), 2, {(0, 0): 2}), 5))
    @example((SparsePoly(ZZ, 2, {(0, 0): -1}), 0))
    @example((SparsePoly(ZZ, 4, {(2, 0, 0, 1): 1, (0, 0, 0, 3): -1, (1, 0, 0, 2): 2}), 2))
    @example((SparsePoly(Fp(3), 5, {(0, 2, 0, 1, 0): 2, (0, 0, 0, 0, 0): 1}), 3))
    @example((SparsePoly(Fp(3), 3, {(2, 0, 1): 1, (0, 0, 3): 2, (1, 0, 0): 2}), 3))
    def test_matches_naive_reference(self, case):
        poly, k = case
        m = len(poly.variables_used())
        if poly.base.p:
            points = list(projective_scan(poly, k**m, "scan"))
            assert points == on_charts(naive_scan(poly, range(k)))
            return
        alg = power_basis_algebra([0] * poly.arity + [1])
        res = search_monogenerators(alg, k, (2 * k + 1) ** m, IndexForm("random", poly.arity, poly))
        full = naive_scan(poly, range(-k, k + 1))
        assert res.witnesses == tuple(v for v, value in full if value in (1, -1))

    def test_first_point_makes_one_evaluation(self, monkeypatch):
        # the first point of a line, after the zero point
        calls = counting_evaluate(monkeypatch)
        poly = SparsePoly(Fp(7), 3, {(4, 0, 0): 1, (2, 0, 1): 2, (0, 0, 2): 1})  # (x0^2 + x2)^2
        first_two = list(islice(projective_scan(poly, 49, "scan"), 2))
        assert first_two == [((0, 0, 0), 0), ((0, 0, 1), 1)]
        assert len(calls) == 2

    def test_one_evaluation_per_point(self, monkeypatch):
        calls = counting_evaluate(monkeypatch)
        points = list(projective_scan(x0_squared_plus_x2(Fp(5)), 25, "scan"))
        assert len(calls) == len(points) == 1 + 1 + 5

    def test_stops_at_first_nonzero_value(self, monkeypatch):
        # is_monogenic_at_prime stops at the first nonzero value
        calls = counting_evaluate(monkeypatch)
        poly = SparsePoly(Fp(7), 3, {(1, 0, 1): 1})
        first = next((v for v, value in projective_scan(poly, 7**3, "scan") if value), None)
        assert first == (1, 0, 1) and len(calls) == 1 + 1 + 2


@st.composite
def projective_cases(draw):
    """An F_p polynomial, some of whose variables may be unused."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    base = Fp(p)
    arity = draw(st.integers(1, 4))
    live = draw(st.lists(st.booleans(), min_size=arity, max_size=arity))
    exps = st.tuples(*[st.integers(0, 3) if on else st.just(0) for on in live])
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=6))
    return SparsePoly(base, arity, {e: base.coerce(c) for e, c in terms.items()}), p


def leading_coordinate(v):
    return next((c for c in v if c), None)


class TestProjectiveScan:
    @settings(max_examples=200, deadline=None)
    @given(projective_cases())
    @example((SparsePoly(Fp(3), 2), 3))
    @example((SparsePoly(Fp(5), 3, {(0, 0, 0): 2}), 5))
    @example((SparsePoly(Fp(3), 3, {(1, 0, 1): 1, (0, 1, 0): 2}), 3))
    def test_one_point_per_line(self, case):
        poly, p = case
        m = len(poly.variables_used())
        points = list(projective_scan(poly, p**m, "scan"))
        # exactly the points of the full scan whose first nonzero coordinate
        # is 1, in the same (lexicographic) order, with the same values
        assert points == on_charts(naive_scan(poly, range(p)))
        assert points[0][0] == (0,) * poly.arity
        assert len(points) == 1 + (p**m - 1) // (p - 1)

    def test_budget_before_first_evaluation(self, monkeypatch):
        calls = counting_evaluate(monkeypatch)
        poly = SparsePoly(Fp(3), 3, {(1, 0, 1): 1})
        with pytest.raises(BudgetExceeded, match=r"^scan: 3\^2 exceeds the enumeration cap 8$"):
            next(projective_scan(poly, 8, "scan"))
        assert calls == []
        assert len(list(projective_scan(poly, 9, "scan"))) == 1 + 3 + 1

    def test_variables_used_once_per_scan(self, monkeypatch):
        """The budget check and the charts share one variables_used call."""
        calls = []
        used = SparsePoly.variables_used
        monkeypatch.setattr(SparsePoly, "variables_used",
                            lambda self: calls.append(self) or used(self))
        list(projective_scan(x0_squared_plus_x2(Fp(3)), 9, "scan"))
        assert len(calls) == 1
        calls.clear()
        form = IndexForm("x0^2 + x2", 3, x0_squared_plus_x2())
        search_monogenerators(power_basis_algebra([0, 0, 0, 1]), 1, 9, form)
        assert len(calls) == 1

    def test_charts_from_last_coordinate_to_first(self):
        poly = SparsePoly(Fp(3), 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
        vs = [v for v, _ in projective_scan(poly, 27, "scan")]
        assert vs == [(0, 0, 0), (0, 0, 1)] + [(0, 1, c) for c in range(3)] + [
            (1, b, c) for b in range(3) for c in range(3)
        ]


class TestGarbage:
    def test_scans_leave_no_cyclic_garbage(self, corpus):
        """A chart's compiled walk is freed by reference counting, whether its
        scan ends or is abandoned, so the cyclic collector finds nothing."""
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        poly = SparsePoly(Fp(7), 3, {(1, 0, 1): 1})
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            search_monogenerators(split_algebra(3), 2)
            assert next(v for v, value in projective_scan(poly, 7**3, "scan") if value)
            # box search, prime checks, cross-check fibers and obstruction value sets
            classify(alg, 1)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestSearch:
    def test_gaussian_height_1(self):
        res = search_monogenerators(gaussian_order(), 1)
        assert set(res.witnesses) == {(0, -1), (0, 1)}
        assert res.classes == ((0, 1),)
        assert res.exhausted

    def test_split_two_height_1(self):
        res = search_monogenerators(split_algebra(2), 1)
        # form is x1 - x2; witnesses are the pairs differing by 1
        assert all(abs(w[0] - w[1]) == 1 for w in res.witnesses)
        assert len(res.witnesses) == 4

    def test_cbrt175_exhausts_empty(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        res = search_monogenerators(alg, 20)
        assert res.exhausted and res.witnesses == ()

    def test_witnesses_recertify(self, corpus_z):
        for name, alg, _ in corpus_z:
            res = search_monogenerators(alg, 2)
            for w in res.witnesses:
                assert check_monogenerator(alg, w)["is_monogenerator"], (name, w)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            search_monogenerators(split_algebra(3), 100, cap=10)

    def test_budget_names_the_height(self):
        message = r"^box search at height 2: 5\^3 exceeds the enumeration cap 124$"
        with pytest.raises(BudgetExceeded, match=message):
            search_monogenerators(split_algebra(3), 2, cap=124)
        assert search_monogenerators(split_algebra(3), 2, cap=125).exhausted

    def test_orbit_closure_at_boundary(self):
        alg = power_basis_algebra([-2, 0, 1], "Z[sqrt2]")
        h = 3
        res = search_monogenerators(alg, h)
        found = set(res.witnesses)
        for w in res.witnesses:
            if all(abs(c) <= h - 1 for c in w):
                assert tuple(-c for c in w) in found
                # translates by 1 leave the pinned box but stay witnesses
                # and normalize into an already-found class
                shifted = (w[0] + 1, w[1])
                assert check_monogenerator(alg, shifted)["is_monogenerator"]
                assert affine_normalize(alg, shifted) in res.classes


@st.composite
def half_box_cases(draw):
    """A homogeneous Z form of degree 0-4 on an algebra of rank 1-4, and a height 0-3.

    Some variables may be unused.  The algebra is Z^n, without 1 in its
    basis, or a power basis, with 1 as its first element.
    """
    rank = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 4))
    live = sorted(draw(st.sets(st.integers(0, rank - 1), min_size=1)))

    def monomial(indices):
        return tuple(indices.count(i) for i in range(rank))

    picks = st.lists(st.sampled_from(live), min_size=degree, max_size=degree)
    coeffs = st.sampled_from([-2, -1, 1, 2])
    terms = draw(st.dictionaries(picks.map(monomial), coeffs, min_size=1, max_size=5))
    form = IndexForm("random", rank, SparsePoly(ZZ, rank, terms))
    if draw(st.booleans()):
        alg = split_algebra(rank)
    else:
        alg = power_basis_algebra([-1] + [0] * (rank - 1) + [1])
    return alg, form, draw(st.integers(0, 3))


class TestHalfBox:
    @settings(max_examples=150, deadline=None)
    @given(half_box_cases())
    @example((power_basis_algebra([-1, 1]), IndexForm("rank 1", 1, SparsePoly(ZZ, 1, {(0,): 1})), 2))
    def test_matches_full_box(self, case):
        alg, form, h = case
        m = len(form.form.variables_used())
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_evaluate(mp)
            res = search_monogenerators(alg, h, (2 * h + 1) ** m, form)
        assert len(calls) == 1 + ((2 * h + 1) ** m - 1) // 2
        full = naive_scan(form.form, range(-h, h + 1))
        witnesses = tuple(v for v, value in full if value in (1, -1))
        assert res.witnesses == witnesses
        if alg.identity_basis_index() is None:
            assert res.classes == ()
        else:
            assert res.classes == tuple(sorted({affine_normalize(alg, w) for w in witnesses}))
        cap = (2 * h + 1) ** m - 1
        message = rf"^box search at height {h}: {2 * h + 1}\^{m} exceeds the enumeration cap {cap}$"
        with pytest.raises(BudgetExceeded, match=message):
            search_monogenerators(alg, h, cap, form)


class TestAffineNormalize:
    def test_gaussian_example(self):
        assert affine_normalize(gaussian_order(), (3, -1)) == (0, 1)

    def test_idempotent(self, corpus_z):
        for name, alg, _ in corpus_z:
            if alg.identity_basis_index() is None:
                continue
            res = search_monogenerators(alg, 2)
            for w in res.witnesses:
                rep = affine_normalize(alg, w)
                assert affine_normalize(alg, rep) == rep

    def test_sqrt2_translation(self):
        alg = power_basis_algebra([-2, 0, 1], "Z[sqrt2]")
        assert affine_normalize(alg, (5, 1)) == (0, 1)

    def test_same_class_same_representative(self):
        alg = gaussian_order()
        orbit = [(t, u) for t in range(-3, 4) for u in (1, -1)]
        reps = {affine_normalize(alg, v) for v in orbit}
        assert reps == {(0, 1)}

    def test_identity_not_in_basis(self):
        with pytest.raises(IdentityNotInBasis):
            affine_normalize(split_algebra(2), (1, 0))
