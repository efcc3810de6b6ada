from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Poly, discriminant, primefactors, symbols

from monogen.errors import BudgetExceeded, NotIntegerBase, ZeroIndexForm
from monogen import artin, localmono
from monogen.algebra import OrderPresentation, StructureAlgebra, power_basis_algebra, split_algebra
from monogen.exactring import ZZ, SparsePoly
from monogen.fixtures import corpus_dir, parse_input
from monogen.indexform import check_monogenerator, index_form
from monogen.search import SearchResult, search_monogenerators
from monogen.localmono import (
    classify,
    common_index_divisors,
    geometric_point_verdict,
    is_monogenic_at_prime,
    local_obstruction_primes,
    value_set_mod_p,
)
from conftest import (
    counting_evaluate,
    dedekind_order,
    gaussian_order,
    naive_scan,
    random_algebra,
    random_unimodular,
)


ZT_CHARTS = [
    Path(corpus_dir()) / "elliptic_chart.json",
    Path(corpus_dir()) / "p1_squaring_chart.json",
    Path(__file__).with_name("dual_numbers_zt_chart.json"),
]


def conductor_five_order():
    """Z + 5*Z[cbrt 2]: its conductor 5 is a prime >= the rank."""
    basis = [[1, 0, 0], [0, 5, 0], [0, 0, 5]]
    return OrderPresentation([-2, 0, 0, 1], basis).to_algebra("Z + 5*Z[cbrt2]")


class TestAtPrime:
    def test_dedekind_fails_at_2(self):
        v = is_monogenic_at_prime(dedekind_order(), 2)
        assert not v.monogenic_at_p and v.witness is None

    def test_dedekind_passes_at_3(self):
        v = is_monogenic_at_prime(dedekind_order(), 3)
        assert v.monogenic_at_p
        # first lexicographic witness over (x2, x3): the reduced form
        # 2b^3 + bc^2 + 2c^3 is already nonzero at (b, c) = (0, 1)
        assert v.witness == (0, 0, 1)

    def test_cbrt175_passes_at_7(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        assert is_monogenic_at_prime(alg, 7).monogenic_at_p

    def test_witness_reevaluates_nonzero(self, rng):
        for _ in range(20):
            alg = random_algebra(rng)
            form = index_form(alg)
            for p in (2, 3):
                v = is_monogenic_at_prime(alg, p)
                if v.monogenic_at_p:
                    assert form.evaluate(v.witness) % p != 0

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            is_monogenic_at_prime(dedekind_order(), 5, cap=3)

    def test_needs_base_z(self):
        with pytest.raises(NotIntegerBase):
            is_monogenic_at_prime(dedekind_order().reduce_mod_p(3), 3)


class TestCommonIndexDivisors:
    def test_dedekind(self):
        assert common_index_divisors(dedekind_order()) == [2]

    def test_cbrt175_empty(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        assert common_index_divisors(alg) == []

    def test_rank_two_always_empty(self, rng):
        for _ in range(10):
            alg = random_algebra(rng, max_rank=2)
            assert common_index_divisors(alg) == []

    def test_zero_form_raises(self):
        # Z[x, y]/(x, y)^2 has no generator even over Q, so every prime fails
        one = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        x = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
        y = [[0, 0, 1], [0, 0, 0], [0, 0, 0]]
        alg = StructureAlgebra(ZZ, 3, [one, x, y], [1, 0, 0])
        with pytest.raises(ZeroIndexForm):
            common_index_divisors(alg)

    def test_primes_at_least_rank_never_fail(self, corpus_z):
        # empirical check of the p < n cutoff on the corpus
        for name, alg, _ in corpus_z:
            n = alg.rank
            form = index_form(alg)
            for p in range(n, n + 11):
                from monogen.exactring import is_prime

                if is_prime(p):
                    assert is_monogenic_at_prime(alg, p, form=form).monogenic_at_p, (
                        name,
                        p,
                    )


class TestGeometric:
    def test_biquadratic_fails_over_2(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "sqrt2_sqrt3")
        verdict = geometric_point_verdict(alg)
        assert not verdict["monogenic_over_geometric_points"]
        assert verdict["vanishing_fiber_primes"] == {2}

    def test_dedekind_passes(self):
        verdict = geometric_point_verdict(dedekind_order())
        assert verdict["monogenic_over_geometric_points"]
        assert verdict["vanishing_fiber_primes"] == set()

    def test_split_cube_passes(self):
        verdict = geometric_point_verdict(split_algebra(3))
        assert verdict["monogenic_over_geometric_points"]


class TestValueSets:
    def test_cbrt175_mod_7(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        assert value_set_mod_p(index_form(alg), 7) == {0, 2, 5}

    def test_cbrt175_obstruction_detected(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        assert 7 in local_obstruction_primes(index_form(alg))

    def test_gaussian_no_obstruction(self):
        assert local_obstruction_primes(index_form(gaussian_order())) == []

    @pytest.mark.parametrize("path", ZT_CHARTS, ids=lambda path: path.stem)
    def test_base_zt_refused_before_any_point(self, path, monkeypatch):
        # mod p a point of a Z[t] form lies in F_p[t]^m, not F_p^m: a scan of
        # F_p^m drew obstructions at every prime up to 23 on the dual-numbers
        # chart, which (1, 1 - t) generates
        alg = parse_input(path)
        if path.stem == "dual_numbers_zt_chart":
            assert check_monogenerator(alg, [[1], [1, -1]])["is_monogenerator"]
        form = index_form(alg)
        calls = []
        monkeypatch.setattr(SparsePoly, "evaluate", lambda self, v: calls.append(v))
        with pytest.raises(NotIntegerBase):
            value_set_mod_p(form, 2)
        with pytest.raises(NotIntegerBase):
            local_obstruction_primes(form)
        assert calls == []

    def test_minus_one_alone_is_no_obstruction(self):
        # theta^4 = 3*theta^3 + 3*theta^2 + 3*theta: mod 3 the form of
        # Z + 5*Z[theta] takes the unit -1 but never 1
        form = index_form(conductor_order([0, -3, -3, -3, 1], 5)[0])
        assert value_set_mod_p(form, 3) == {0, 2}
        assert local_obstruction_primes(form, bound=3) == []

    @pytest.mark.parametrize("p", [5, 11])
    def test_complete_set_ends_the_scan(self, p, monkeypatch):
        # d = 3 and gcd(3, p - 1) = 1: every unit is a cube, so 0 and the first
        # nonzero value give all p residues, well before the p + 2 points of
        # the full projective scan
        form = index_form(dedekind_order())
        calls = counting_evaluate(monkeypatch)
        assert value_set_mod_p(form, p) == set(range(p))
        assert 2 <= len(calls) < p + 2

    def test_budget_names_the_stage(self):
        form = index_form(dedekind_order())
        cap_message = r"\^2 exceeds the enumeration cap "
        with pytest.raises(BudgetExceeded, match=rf"^value set mod 7: 7{cap_message}48$"):
            value_set_mod_p(form, 7, cap=48)
        with pytest.raises(BudgetExceeded, match=rf"^prime check mod 5: 5{cap_message}24$"):
            is_monogenic_at_prime(dedekind_order(), 5, cap=24, form=form)


class TestClassify:
    def test_dedekind_report(self):
        r = classify(dedekind_order(), 10)
        assert r.global_status == "NotMonogenic"
        assert r.reason == "common index divisor 2"
        assert not r.zariski_local
        assert r.geometric
        assert all(c["brute"] == c["artin"] for c in r.artin_crosscheck)

    @pytest.mark.parametrize("make", [
        lambda: (dedekind_order(), 10),
        lambda: (conductor_order([-1, -1, 0, 0, 0, 1], 6)[0], 2),
    ], ids=["dedekind", "rank5_conductor6"])
    def test_common_index_divisor_skips_the_box_search(self, make, monkeypatch):
        # F = 0 mod p on F_p^m at a common index divisor p: no box holds a witness
        alg, height = make()
        box = search_monogenerators(alg, height)
        assert box == SearchResult(height, (), (), True)

        def no_search(*args):
            raise AssertionError("box search run for an order with a common index divisor")

        monkeypatch.setattr(localmono, "search_monogenerators", no_search)
        r = classify(alg, height)
        assert r.global_status == "NotMonogenic" and r.common_index_divisors
        assert r.search == box

    def test_common_index_divisor_answers_beyond_the_box_cap(self):
        # the box at height 2000 has 4001^2 points, above DEFAULT_ENUM_CAP
        with pytest.raises(BudgetExceeded):
            search_monogenerators(dedekind_order(), 2000)
        r = classify(dedekind_order(), 2000)
        assert (r.global_status, r.reason) == ("NotMonogenic", "common index divisor 2")
        assert r.search == SearchResult(2000, (), (), True)

    def test_oracle_disagreement_raises(self, monkeypatch):
        real = artin.fiber_monogenic
        monkeypatch.setattr(artin, "fiber_monogenic", lambda dec: real(dec) != (dec.prime == 3))
        with pytest.raises(AssertionError, match="p=3"):
            classify(dedekind_order(), 1)

    def test_gaussian_report(self):
        r = classify(gaussian_order(), 2)
        assert r.global_status == "Monogenic"
        assert r.zariski_local and r.geometric
        assert check_monogenerator(gaussian_order(), r.witness)["is_monogenerator"]

    def test_cbrt175_unknown_with_obstruction(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        r = classify(alg, 20)
        assert r.global_status == "Unknown"
        assert r.zariski_local and r.geometric
        assert any("local obstruction: values mod 7 never units" in n for n in r.notes)
        assert any("not twisted monogenic" in n for n in r.notes)

    def test_budget_ends_only_the_obstruction_scan(self):
        # x^4 - x - 1: the value set mod 11 has 11^3 > 343 points; every verdict
        # before the obstruction scan fits in the cap
        alg = power_basis_algebra([-1, -1, 0, 0, 1])
        full, capped = classify(alg, 0), classify(alg, 0, cap=343)
        assert capped.global_status == full.global_status == "Unknown"
        for field in ("zariski_local", "common_index_divisors", "geometric",
                      "vanishing_fibers", "primes", "artin_crosscheck"):
            assert getattr(capped, field) == getattr(full, field), field
        stop = "obstruction scan stopped at value set mod 11: 11^3 exceeds the enumeration cap 343"
        assert stop in capped.notes and stop not in full.notes
        assert not any("local obstruction" in n for n in capped.notes)

    def test_budget_keeps_the_obstructions_found_before_it(self, corpus):
        alg = next(a for n, a, _ in corpus if n == "cbrt175")
        notes = classify(alg, 1, cap=100).notes
        assert "local obstruction: values mod 7 never units" in notes
        assert "obstruction scan stopped at value set mod 11: 11^2 exceeds the enumeration cap 100" in notes
        assert any("not twisted monogenic" in n for n in notes)

    def test_implications_on_corpus(self, corpus_z):
        for name, alg, _ in corpus_z:
            r = classify(alg, 3)
            if r.global_status == "Monogenic":
                assert r.zariski_local, name
            if r.zariski_local:
                assert r.geometric, name

    def test_implications_random(self, rng):
        for _ in range(100):
            alg = random_algebra(rng)
            r = classify(alg, 1)
            if r.global_status == "Monogenic":
                assert r.zariski_local
            if r.zariski_local:
                assert r.geometric
            if r.witness is not None:
                assert check_monogenerator(alg, r.witness)["is_monogenerator"]

    def test_conductor_prime_at_least_rank(self):
        # the fiber at 5 is F_5[x, y]/(x, y)^2, of tangent dimension 2
        assert common_index_divisors(conductor_five_order()) == [5]
        r = classify(conductor_five_order(), 2)
        assert r.global_status == "NotMonogenic"
        assert r.reason == "common index divisor 5"
        assert r.common_index_divisors == [5]
        assert {"p": 5, "brute": False, "artin": False} in r.artin_crosscheck

    def test_report_json_shape(self):
        d = classify(dedekind_order(), 5).to_json()
        for key in (
            "global",
            "zariski_local",
            "common_index_divisors",
            "geometric",
            "vanishing_fibers",
            "primes",
            "artin_crosscheck",
            "notes",
        ):
            assert key in d
        assert d["global"]["status"] == "NotMonogenic"


def full_scan(form, p):
    """Every point of F_p^m and the reduced form's value there."""
    return naive_scan(form.reduce_mod_p(p), range(p))


@st.composite
def conductor_orders(draw, ranks=(3, 4)):
    """(Z + m*Z[theta] in a random unimodular basis that keeps 1 first, m)."""
    n = draw(st.integers(*ranks))
    x = symbols("x")
    f = draw(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n)
        .map(lambda c: c + [1])
        .filter(lambda c: discriminant(Poly(c[::-1], x)) != 0)
    )
    m = draw(st.integers(1, 15))
    U = random_unimodular(draw(st.randoms(use_true_random=False)), n, fix_first_row=True)
    scale = [1] + [m] * (n - 1)
    basis = [[u * d for u, d in zip(row, scale)] for row in U]
    return OrderPresentation(f, basis).to_algebra(f"Z + {m}*Z[theta]"), m


class TestConductorProperty:
    @settings(max_examples=25, deadline=None)
    @given(conductor_orders())
    def test_cids_are_primes_of_m(self, order):
        alg, m = order
        assert common_index_divisors(alg) == primefactors(m)
        r = classify(alg, 1)
        assert r.common_index_divisors == primefactors(m)
        assert all(c["brute"] == c["artin"] for c in r.artin_crosscheck)
        if r.global_status == "Monogenic":
            assert r.zariski_local
        if r.zariski_local:
            assert r.geometric


def conductor_order(f, m):
    """(Z + m*Z[theta] in the basis 1, m*theta, ..., m*theta^(n-1), m)."""
    n = len(f) - 1
    basis = [[(m if i else 1) * (i == j) for j in range(n)] for i in range(n)]
    return OrderPresentation(f, basis).to_algebra(f"Z + {m}*Z[theta]"), m


class TestProjectiveScanProperty:
    @settings(max_examples=60, deadline=None)
    @given(conductor_orders(ranks=(1, 5)), st.sampled_from([2, 3, 5, 7, 11, 13]))
    # d = 6 and d = 10: every c^d is 1, so each line takes a single nonzero value
    @example(conductor_order([-1, -1, 0, 0, 1], 2), 7)
    @example(conductor_order([-1, -1, 0, 0, 0, 1], 3), 11)
    def test_matches_full_scan(self, order, p):
        alg, _ = order
        form = index_form(alg)
        full = full_scan(form, p)
        assert value_set_mod_p(form, p) == {value for _, value in full}
        first = next((v for v, value in full if value), None)
        assert is_monogenic_at_prime(alg, p, form=form).witness == first
        m = len(form.reduce_mod_p(p).variables_used())
        for run in (
            lambda cap: value_set_mod_p(form, p, cap),
            lambda cap: is_monogenic_at_prime(alg, p, cap, form),
        ):
            with pytest.raises(BudgetExceeded):
                run(p**m - 1)
            run(p**m)
