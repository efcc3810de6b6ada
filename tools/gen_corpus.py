"""Regenerate the fixture corpus.

Every frozen expectation is asserted against an independent construction
(product forms expanded in sympy, known discriminants, hand-checked
witnesses) before being written, so a generator bug cannot silently freeze
a wrong value.  sympy, a test dependency, is needed here; the runtime does
not use it.

Usage: python tools/gen_corpus.py  (imports monogen from this checkout's src/)
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from sympy.polys.domains import ZZ as SZZ
from sympy.polys.orderings import grlex
from sympy.polys.rings import ring

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from monogen.algebra import OrderPresentation, StructureAlgebra, split_algebra
from monogen.exactring import ZX, ZZ
from monogen.indexform import check_monogenerator, index_form
from monogen import artin, localmono
from monogen.search import search_monogenerators

OUT = Path(__file__).resolve().parent.parent / "src" / "monogen" / "corpus"
OUT.mkdir(exist_ok=True)


def generic(n):
    """x1, ..., xn in sympy's Z[x1, ..., xn], in graded lex order like SparsePoly."""
    return ring([f"x{i + 1}" for i in range(n)], SZZ, grlex)[1:]


def assert_form(form, expect):
    """form (a SparsePoly over Z) has the terms of the sympy polynomial expect,
    signed as canonical_sign signs it: by the leading coefficient in graded lex."""
    if expect.LC < 0:
        expect = -expect
    assert form.terms == {e: int(c) for e, c in expect.terms()}


def artin_expected(alg, primes):
    out = {}
    for p in primes:
        dec = artin.decompose(alg.reduce_mod_p(p))
        out[str(p)] = {
            "factors": [f.to_json() for f in dec.factors],
            "fiber_monogenic": artin.fiber_monogenic(dec),
        }
    return out


def classify_expected(alg, height, with_witness=False):
    report = localmono.classify(alg, height)
    got = {"status": report.global_status, "height": height}
    if with_witness:
        got["witness"] = list(report.witness) if report.witness else None
    return got


def write(name, doc):
    path = OUT / f"{name}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print("wrote", path.name)


# --- Dedekind cubic -------------------------------------------------------
ded_pres = OrderPresentation(
    [-8, -2, -1, 1], [[1, 0, 0], [0, F(1, 2), F(1, 2)], [0, 0, 1]]
)
ded = ded_pres.to_algebra("dedekind cubic order")
f = index_form(ded)
_, b, c = generic(3)
assert_form(f.form, 2 * b**3 + 15 * b**2 * c + 31 * b * c**2 + 20 * c**3)
assert ded.discriminant() == -503
mod2 = f.reduce_mod_p(2).canonical_sign()
assert mod2.text() == "x2^2*x3 + x2*x3^2"
write("dedekind", {
    "label": "dedekind cubic order",
    "order": ded_pres.to_json(),
    "expected": {
        "provenance": "Dedekind's classical non-monogenic cubic; cubic form and "
                      "mod-2 reduction hand-expanded from the coefficient matrix",
        "index_form": f.text(),
        "index_form_mod": {"p": 2, "text": mod2.text()},
        "discriminant": -503,
        "common_index_divisors": [2],
        "geometric": True,
        "vanishing_fiber_primes": [],
        "classify": classify_expected(ded, 10),
        "artin": artin_expected(ded, [2, 3]),
    },
})

# --- Gaussian integers ----------------------------------------------------
gauss_pres = OrderPresentation([1, 0, 1], [[1, 0], [0, 1]])
gauss = gauss_pres.to_algebra("gaussian integers")
f = index_form(gauss)
assert f.text() == "x2"
assert gauss.discriminant() == -4
cg = classify_expected(gauss, 2, with_witness=True)
assert cg["status"] == "Monogenic"
assert check_monogenerator(gauss, cg["witness"])["is_monogenerator"]
write("gaussian_integers", {
    "label": "gaussian integers",
    "order": gauss_pres.to_json(),
    "expected": {
        "provenance": "power basis of x^2+1; the coefficient matrix is "
                      "[[1,0],[x1,x2]] so the form is x2",
        "index_form": "x2",
        "discriminant": -4,
        "common_index_divisors": [],
        "geometric": True,
        "vanishing_fiber_primes": [],
        "classify": cg,
        "artin": artin_expected(gauss, [2, 5]),
    },
})

# --- split algebras -------------------------------------------------------
for n in (2, 3):
    alg = split_algebra(n, f"split rank {n}")
    f = index_form(alg)
    xs, prod = generic(n), 1
    for i in range(n):
        for j in range(i + 1, n):
            prod *= xs[i] - xs[j]
    assert_form(f.form, prod)
    assert alg.discriminant() == 1
    cl = classify_expected(alg, 2)
    assert cl["status"] == ("Monogenic" if n == 2 else "NotMonogenic")
    write(f"split{n}", {
        "label": f"split rank {n}",
        "algebra": alg.to_json(),
        "expected": {
            "provenance": f"Z^{n} with idempotent basis; the coefficient matrix "
                          "is Vandermonde, so the form is the difference product",
            "index_form": f.text(),
            "discriminant": 1,
            "common_index_divisors": [] if n == 2 else [2],
            "geometric": True,
            "vanishing_fiber_primes": [],
            "classify": cl,
            "artin": artin_expected(alg, [2, 3]),
        },
    })

# --- Z[sqrt2] and the golden-ratio order ---------------------------------
sqrt2_pres = OrderPresentation([-2, 0, 1], [[1, 0], [0, 1]])
sqrt2 = sqrt2_pres.to_algebra("Z[sqrt2]")
assert index_form(sqrt2).text() == "x2"
assert sqrt2.discriminant() == 8
write("sqrt2", {
    "label": "Z[sqrt2]",
    "order": sqrt2_pres.to_json(),
    "expected": {
        "provenance": "power basis of x^2-2; disc = -4*(-2) = 8",
        "index_form": "x2",
        "discriminant": 8,
        "common_index_divisors": [],
        "geometric": True,
        "classify": classify_expected(sqrt2, 2),
        "artin": artin_expected(sqrt2, [2, 7]),
    },
})

sqrt5_pres = OrderPresentation([-5, 0, 1], [[1, 0], [F(1, 2), F(1, 2)]])
sqrt5 = sqrt5_pres.to_algebra("maximal order of Q(sqrt5)")
assert index_form(sqrt5).text() == "x2"
assert sqrt5.discriminant() == 5
write("sqrt5_maximal", {
    "label": "maximal order of Q(sqrt5)",
    "order": sqrt5_pres.to_json(),
    "expected": {
        "provenance": "basis 1,(1+sqrt5)/2; field discriminant 5",
        "index_form": "x2",
        "discriminant": 5,
        "common_index_divisors": [],
        "geometric": True,
        "classify": classify_expected(sqrt5, 2),
        "artin": artin_expected(sqrt5, [2, 5]),
    },
})

# --- Z[sqrt2, sqrt3] ------------------------------------------------------
def unit(k, coeff=1):
    v = [0] * 4
    v[k] = coeff
    return v

cons = [[None] * 4 for _ in range(4)]
def setc(i, j, v):
    cons[i][j] = v
    cons[j][i] = v

setc(0, 0, unit(0)); setc(0, 1, unit(1)); setc(0, 2, unit(2)); setc(0, 3, unit(3))
setc(1, 1, unit(0, 2)); setc(1, 2, unit(3)); setc(1, 3, unit(2, 2))
setc(2, 2, unit(0, 3)); setc(2, 3, unit(1, 3)); setc(3, 3, unit(0, 6))
s23 = StructureAlgebra(ZZ, 4, cons, [1, 0, 0, 0], "Z[sqrt2,sqrt3]")
assert s23.validate() == []
f = index_form(s23)
_, b, c, d = generic(4)
assert_form(f.form, 4 * (2 * b**2 - 3 * c**2) * (b**2 - 3 * d**2) * (c**2 - 2 * d**2))
cl = classify_expected(s23, 3)
assert cl["status"] == "NotMonogenic"
write("sqrt2_sqrt3", {
    "label": "Z[sqrt2,sqrt3]",
    "algebra": s23.to_json(),
    "expected": {
        "provenance": "basis 1,sqrt2,sqrt3,sqrt6; form equals "
                      "-4(2b^2-3c^2)(b^2-3d^2)(c^2-2d^2) up to sign",
        "index_form": f.text(),
        "common_index_divisors": [2],
        "geometric": False,
        "vanishing_fiber_primes": [2],
        "classify": cl,
        "artin": artin_expected(s23, [2, 3]),
    },
})

# --- Z[cbrt(175)] ---------------------------------------------------------
cons = [[None] * 3 for _ in range(3)]
def setc3(i, j, v):
    cons[i][j] = v
    cons[j][i] = v

setc3(0, 0, [1, 0, 0]); setc3(0, 1, [0, 1, 0]); setc3(0, 2, [0, 0, 1])
setc3(1, 1, [0, 0, 5]); setc3(1, 2, [35, 0, 0]); setc3(2, 2, [0, 7, 0])
cbrt = StructureAlgebra(ZZ, 3, cons, [1, 0, 0], "ring of integers of Q(cbrt(175))")
assert cbrt.validate() == []
f = index_form(cbrt)
assert f.text() == "5*x2^3 - 7*x3^3"
vals = sorted(localmono.value_set_mod_p(f, 7))
assert vals == [0, 2, 5]
res = search_monogenerators(cbrt, 20)
assert res.exhausted and not res.witnesses
cl = classify_expected(cbrt, 20)
assert cl["status"] == "Unknown"
write("cbrt175", {
    "label": "ring of integers of Q(cbrt(175))",
    "algebra": cbrt.to_json(),
    "expected": {
        "provenance": "basis 1,cbrt(175),cbrt(245); alpha^2=5*beta, "
                      "alpha*beta=35, beta^2=7*alpha; values mod 7 are {0,2,5}",
        "index_form": "5*x2^3 - 7*x3^3",
        "common_index_divisors": [],
        "geometric": True,
        "vanishing_fiber_primes": [],
        "value_set_mod": {"p": 7, "values": [0, 2, 5]},
        "search": {"height": 20, "witness_count": 0, "exhausted": True},
        "classify": cl,
        "artin": artin_expected(cbrt, [2, 5, 7]),
    },
})

# --- squaring-map chart over Z[t] ----------------------------------------
cons = [[None] * 2 for _ in range(2)]
cons[0][0] = [1, 0]
cons[0][1] = [0, 1]
cons[1][0] = [0, 1]
cons[1][1] = [[0, 1], 0]
sq = StructureAlgebra(ZX, 2, cons, [1, 0], "squaring chart over Z[t]")
assert sq.validate() == []
assert index_form(sq).text() == "x2"
assert check_monogenerator(sq, [(), (1,)])["is_monogenerator"]
write("p1_squaring_chart", {
    "label": "squaring chart over Z[t]",
    "algebra": sq.to_json(),
    "expected": {
        "provenance": "rank-2 cover a^2 = t on an affine chart; form is the "
                      "top coordinate",
        "index_form": "x2",
        "monogenerator": {"candidate": [0, 1], "is_monogenerator": True},
    },
})

# --- cubic chart over Z[t]: z^3 = t^3 + 1 --------------------------------
w = [1, 0, 0, 1]
cons = [[None] * 3 for _ in range(3)]
def sec(i, j, v):
    cons[i][j] = v
    cons[j][i] = v

sec(0, 0, [1, 0, 0]); sec(0, 1, [0, 1, 0]); sec(0, 2, [0, 0, 1])
sec(1, 1, [0, 0, 1]); sec(1, 2, [w, 0, 0]); sec(2, 2, [0, w, 0])
ell = StructureAlgebra(ZX, 3, cons, [1, 0, 0], "cubic chart over Z[t]")
assert ell.validate() == []
f = index_form(ell)
assert f.text() == "x2^3 - (t^3 + 1)*x3^3"
assert check_monogenerator(ell, [0, 1, 0])["is_monogenerator"]
write("elliptic_chart", {
    "label": "cubic chart over Z[t]",
    "algebra": ell.to_json(),
    "expected": {
        "provenance": "degree-3 cover z^3 = t^3 + 1 on an affine chart; "
                      "z itself generates",
        "index_form": "x2^3 - (t^3 + 1)*x3^3",
        "monogenerator": {"candidate": [0, 1, 0], "is_monogenerator": True},
    },
})

print("done")
