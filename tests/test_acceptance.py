"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line
(visible with ``pytest -s`` or on failure).  Criteria with runtime bounds
enforce them with a wall-clock assertion.
"""

import functools
import itertools
import os
import subprocess
import sys
import time

from monogen.algebra import split_algebra
from monogen.artin import decompose, fiber_monogenic
from monogen.exactring import ZZ, Fp, necklace_count
from monogen.indexform import index_form
from monogen.localmono import (
    classify,
    common_index_divisors,
    geometric_point_verdict,
    is_monogenic_at_prime,
    value_set_mod_p,
)
from monogen.search import search_monogenerators
from monogen.twisted import curve_twisted_constraint
from conftest import (
    dedekind_order,
    difference_product,
    form_terms,
    random_algebra,
    signed_terms,
    sympy_discriminant,
    sympy_irreducible,
    sympy_ring,
)
from test_indexform import _charpoly


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:2d}: {desc}")
                raise
            print(f"[PASS] criterion {num:2d}: {desc}")

        return wrapper

    return deco


def timed(fn, bound):
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    assert elapsed < bound, f"took {elapsed:.2f}s, bound {bound}s"


@criterion(1, "cubic field with a common index divisor at 2")
def test_criterion_01():
    def body():
        alg = dedekind_order()
        form = index_form(alg)
        _, (a, b, c) = sympy_ring(ZZ, 3)
        expect = -(2 * b**3 + 15 * b**2 * c + 31 * b * c**2 + 20 * c**3)
        assert form.form.terms in signed_terms(expect, ZZ)
        _, (a2, b2, c2) = sympy_ring(Fp(2), 3)
        assert form.reduce_mod_p(2).terms == form_terms(b2**2 * c2 + b2 * c2**2, Fp(2))
        assert common_index_divisors(alg) == [2]
        assert geometric_point_verdict(alg)["monogenic_over_geometric_points"]
        assert classify(alg, 10).global_status == "NotMonogenic"

    timed(body, 1.0)


@criterion(2, "biquadratic ring: index form factors, fiber over 2 degenerate")
def test_criterion_02():
    def body():
        from monogen.fixtures import corpus_dir, load_fixture

        alg, _ = load_fixture(os.path.join(corpus_dir(), "sqrt2_sqrt3.json"))
        form = index_form(alg)
        _, (a, b, c, d) = sympy_ring(ZZ, 4)
        expect = -4 * (2 * b**2 - 3 * c**2) * (b**2 - 3 * d**2) * (c**2 - 2 * d**2)
        assert form.form.terms in signed_terms(expect, ZZ)
        verdict = geometric_point_verdict(alg)
        assert verdict["vanishing_fiber_primes"] == {2}
        assert not verdict["monogenic_over_geometric_points"]
        dec = decompose(alg.reduce_mod_p(2))
        assert len(dec.factors) == 1 and dec.factors[0].tangent_dim == 2

    timed(body, 1.0)


@criterion(3, "pure cubic ring: no common index divisor yet search finds nothing")
def test_criterion_03():
    def body():
        from monogen.fixtures import corpus_dir, load_fixture

        alg, _ = load_fixture(os.path.join(corpus_dir(), "cbrt175.json"))
        form = index_form(alg)
        _, (a, b, c) = sympy_ring(ZZ, 3)
        assert form.form.terms in signed_terms(5 * b**3 - 7 * c**3, ZZ)
        assert common_index_divisors(alg) == []
        assert value_set_mod_p(form, 7) == {0, 2, 5}
        res = search_monogenerators(alg, 20)
        assert res.exhausted and res.witnesses == ()

    timed(body, 5.0)


@criterion(4, "split algebras: index form is the Vandermonde difference product")
def test_criterion_04():
    def body():
        for n in range(2, 7):
            form = index_form(split_algebra(n)).form
            assert form.terms in difference_product(n), n

    timed(body, 10.0)


@criterion(5, "brute-force fiber solvability agrees with the local-factor criterion")
def test_criterion_05(corpus_z):
    assert len(corpus_z) >= 8
    disagreements = []
    for name, alg, _ in corpus_z:
        for p in (2, 3, 5, 7):
            brute = is_monogenic_at_prime(alg, p).monogenic_at_p
            structural = fiber_monogenic(decompose(alg.reduce_mod_p(p)))
            if brute != structural:
                disagreements.append((name, p))
    assert disagreements == []


@criterion(6, "index forms are homogeneous and translation invariant")
def test_criterion_06(rng):
    violations = 0
    for _ in range(100):
        alg = random_algebra(rng, max_rank=4)
        form = index_form(alg)
        d = form.degree
        e = alg.identity
        for _ in range(20):
            v = [rng.randint(-4, 4) for _ in range(alg.rank)]
            lam = rng.randint(-3, 3)
            base = form.evaluate(v)
            if form.evaluate([lam * x for x in v]) != lam**d * base:
                violations += 1
            shift = rng.randint(-3, 3)
            if form.evaluate([x + shift * ei for x, ei in zip(v, e)]) != base:
                violations += 1
    assert violations == 0


@criterion(7, "disc(minpoly) = index^2 * disc(ring) for generating elements")
def test_criterion_07(corpus_z, rng):
    done = 0
    algs = [alg for _, alg, _ in corpus_z]
    while done < 50:
        alg = algs[done % len(algs)]
        form = index_form(alg)
        v = tuple(rng.randint(-4, 4) for _ in range(alg.rank))
        idx = form.evaluate(v)
        if idx == 0:
            continue
        assert sympy_discriminant(_charpoly(alg, v)) == idx**2 * alg.discriminant()
        done += 1


@criterion(8, "degree constraints for covers of curves")
def test_criterion_08():
    v = curve_twisted_constraint(2, 0, 0)
    assert v.divisible and v.line_bundle_degree == 1
    v = curve_twisted_constraint(3, 1, 0)
    assert v.divisible and v.line_bundle_degree == 1
    assert not curve_twisted_constraint(3, 0, 0).divisible


@criterion(9, "necklace counts match brute-force irreducible enumeration")
def test_criterion_09():
    for p in (2, 3, 5, 7):
        for f in range(1, 5):
            brute = sum(
                1
                for lower in itertools.product(range(p), repeat=f)
                if sympy_irreducible(p, list(lower) + [1])
            )
            assert necklace_count(p, f) == brute, (p, f)


@criterion(10, "corpus command output is byte-identical across runs")
def test_criterion_10():
    cmd = [sys.executable, "-m", "monogen.cli", "corpus"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout and a.stderr == b.stderr
