"""Generate one workload's inputs, job list and expected answers.

Usage: python3 perfbench/gen.py --workload NAME --seed N --out DIR

Writes DIR/inputs/*.json (the only files the program under test reads) and
DIR/jobs.json.  Every expected answer is computed here, independently of
the code under test: this module never imports ``monogen``.  Indices come
from integer arithmetic in the power basis and sympy determinants; fiber
factors come from factoring the minimal polynomial mod p with sympy
(Dedekind-Kummer).  The same workload and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from pathlib import Path

WORKLOADS = ("corpus", "classify", "index_form", "fiber")
PRIMES_TO_31 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
COEFFS = (-3, -2, -1, 1, 2, 3)

# Job mix per pass.  Class sizes are chosen so that the 50th and 90th
# latency percentiles fall inside a class, not on a boundary between two
# (see perfbench/README.md for the measured latencies per class).
CLASSIFY_MIX = (
    # (class, rank, height, count); latency groups: about 8 ms (0-21 %),
    # 17 ms (21-36 %), 20 ms (36-86 %, holds the p50), rank 5 (86-98 %,
    # holds the p90) and the rank-4 obstruction scan (the top 2 %).  Each
    # class has enough seeded inputs that a percentile inside it moves
    # little from one seed to the next.
    ("cid_large", 3, 2, 6),
    ("monogenic", 3, 2, 19),
    ("cid_large", 4, 1, 6),
    ("cid_small", 4, 1, 12),
    ("monogenic", 4, 1, 30),
    ("above_height", 3, 2, 30),
    ("monogenic", 5, 2, 12),
    ("cid_small", 5, 2, 3),
    ("above_height", 4, 1, 2),
)
INDEX_FORM_MIX = (
    # (class, rank, count)
    ("power_basis", 5, 14),
    ("non_maximal", 5, 14),
    ("basis_change", 5, 5),
    ("pure_sextic", 6, 1),
)
FIBER_RANKS = (
    # (class, rank); every algebra is run at every prime <= 31
    ("power_basis", 6),
    ("non_maximal", 8),
    ("power_basis", 9),
    ("non_maximal", 11),
    ("power_basis", 12),
)


# ---------------------------------------------------------------------------
# arithmetic in Z[x]/(f), power-basis coordinates, constant term first


def poly_mulmod(a, b, f):
    """Product of two coordinate vectors in Z[x]/(f), f monic of degree n."""
    n = len(f) - 1
    out = [0] * (2 * n - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    for d in range(2 * n - 2, n - 1, -1):
        c = out[d]
        if c:
            out[d] = 0
            for j in range(n):
                out[d - n + j] -= c * f[j]
    return out[:n]


def int_det(rows):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix

    n = len(rows)
    return int(DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, n), ZZ).det())


def element_index(f, basis, v):
    """Index of the element sum v_i b_i: det[1, a, ..., a^(n-1)] / det(basis)."""
    n = len(f) - 1
    alpha = [sum(v[i] * basis[i][k] for i in range(n)) for k in range(n)]
    rows = [[1] + [0] * (n - 1)]
    for _ in range(n - 1):
        rows.append(poly_mulmod(rows[-1], alpha, f))
    num, den = int_det(rows), int_det(basis)
    if num % den:
        raise AssertionError("index is not an integer")
    return num // den


def box_witnesses(f, basis, height):
    """All v with |v_i| <= height, v_0 = 0 (basis[0] = 1), and index +-1."""
    n = len(f) - 1
    out = []
    for tail in itertools.product(range(-height, height + 1), repeat=n - 1):
        v = (0,) + tail
        if abs(element_index(f, basis, v)) == 1:
            out.append(list(v))
    return out


def irreducible(f):
    from sympy import Poly, symbols

    return Poly(list(reversed(f)), symbols("x")).is_irreducible


def fiber_factors(f, p):
    """Local factors of F_p[x]/(f) by Dedekind-Kummer, sorted like the program.

    A factor g^e gives dim e*deg g, residue degree deg g, tangent dimension
    min(e - 1, 1) and nilpotency index e.
    """
    from sympy import ZZ
    from sympy.polys.galoistools import gf_factor, gf_from_int_poly

    _, facs = gf_factor(gf_from_int_poly(list(reversed(f)), p), p, ZZ)
    out = []
    for g, e in facs:
        d = len(g) - 1
        out.append({"dim": e * d, "f": d, "t": min(e - 1, 1), "nilpotency_index": e})
    return sorted(out, key=lambda x: (x["dim"], x["f"], x["t"]))


def prime_factors(m):
    from sympy import factorint

    return sorted(factorint(m))


# ---------------------------------------------------------------------------
# random inputs


def random_minpoly(rng, n):
    """Monic irreducible f of degree n with every lower coefficient in COEFFS."""
    while True:
        f = [rng.choice(COEFFS) for _ in range(n)] + [1]
        if irreducible(f):
            return f


def random_trinomial(rng, n):
    """Monic irreducible x^n + a*x + b with a, b in COEFFS."""
    while True:
        f = [rng.choice(COEFFS), rng.choice(COEFFS)] + [0] * (n - 2) + [1]
        if irreducible(f):
            return f


def identity_basis(n, m=1):
    return [[(1 if i == 0 else m) * int(i == j) for j in range(n)] for i in range(n)]


def random_unimodular(rng, n, steps):
    """Basis 1, b_1, ..., b_(n-1): row 0 stays 1, the rest mix theta^1..theta^(n-1)."""
    U = identity_basis(n)
    for _ in range(steps):
        i, j = rng.sample(range(1, n), 2)
        c = rng.choice((-2, -1, 1, 2))
        U[i] = [a + c * b for a, b in zip(U[i], U[j])]
    for i in range(1, n):
        U[i][0] += rng.choice((-1, 0, 1))
    return U


def order_doc(label, f, basis):
    return {"label": label, "order": {"minpoly": f, "basis": basis}}


# ---------------------------------------------------------------------------
# workloads


class Builder:
    def __init__(self, out: Path):
        self.inputs = out / "inputs"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.jobs = []

    def add_input(self, name, doc=None, raw: bytes | None = None):
        data = raw if raw is not None else (json.dumps(doc, sort_keys=True) + "\n").encode()
        (self.inputs / name).write_bytes(data)
        return name

    def job(self, cls, cmd, input_name, args, check):
        self.jobs.append(
            {"class": cls, "cmd": cmd, "input": input_name, "args": args, "check": check}
        )


def gen_corpus(b: Builder, rng, src: Path):
    fixtures = sorted((src / "monogen" / "corpus").glob("*.json"))
    if not fixtures:
        raise SystemExit(f"no corpus fixtures under {src}")
    rows = 0
    for path in fixtures:
        doc = json.loads(path.read_text(encoding="utf-8"))
        expected = doc.get("expected", {})
        rows += 1 + sum(1 for k in expected if k != "provenance")
        name = b.add_input(path.name, raw=path.read_bytes())
        b.job("index_form", "index-form", name, [], {"kind": "text", "text": expected["index_form"]})
        if "classify" in expected:
            want = expected["classify"]
            b.job(
                "classify", "classify", name, ["--height", str(want["height"]), "--json"],
                {"kind": "corpus_classify", "want": want},
            )
        for p, want in expected.get("artin", {}).items():
            b.job(
                "artin", "artin", name, ["--prime", p, "--json"],
                {"kind": "artin", "p": int(p), "factors": want["factors"],
                 "fiber_monogenic": want["fiber_monogenic"]},
            )
        if "search" in expected:
            want = expected["search"]
            b.job(
                "search", "search", name, ["--height", str(want["height"]), "--json"],
                {"kind": "corpus_search", "want": want},
            )
    b.job("corpus", "corpus", None, ["--json"], {"kind": "corpus", "rows": rows})
    rng.shuffle(b.jobs)


def gen_classify(b: Builder, rng):
    k = 0
    for cls, n, height, count in CLASSIFY_MIX:
        for _ in range(count):
            k += 1
            f = random_minpoly(rng, n)
            label = f"c{k:03d}"
            check = {"kind": "classify", "rank": n, "height": height}
            if cls == "monogenic":
                basis = random_unimodular(rng, n, rng.choice((0, 2)))
                # redraw the basis change until theta sits inside the box
                while True:
                    wit = box_witnesses(f, basis, height)
                    if wit:
                        break
                    basis = random_unimodular(rng, n, 1)
                check.update(status="Monogenic", witnesses=wit, m=1)
            elif cls == "above_height":
                while True:
                    basis = random_unimodular(rng, n, 6)
                    if not box_witnesses(f, basis, height):
                        break
                check.update(status="Unknown", witnesses=[], m=1)
            else:
                # cid_small: every prime of m is below n (n >= 4); cid_large: m is a prime >= n
                if cls == "cid_small":
                    m = rng.choice((2, 3, 6))
                else:
                    m = rng.choice([q for q in (3, 5, 7) if q >= n])
                basis = identity_basis(n, m)
                check.update(status="NotMonogenic", witnesses=[], m=m,
                             cids=prime_factors(m))
            name = b.add_input(f"{label}.json", order_doc(label, f, basis))
            b.job(f"{cls}{n}", "classify", name, ["--height", str(height), "--json"], check)
    rng.shuffle(b.jobs)


def gen_index_form(b: Builder, rng):
    k = 0
    for cls, n, count in INDEX_FORM_MIX:
        for _ in range(count):
            k += 1
            label = f"i{k:03d}"
            if cls == "pure_sextic":
                f = [-rng.choice((2, 3, 5, 6, 7, 10, 11))] + [0] * (n - 1) + [1]
                basis = identity_basis(n)
            else:
                f = random_trinomial(rng, n)
                basis = {
                    "power_basis": lambda: identity_basis(n),
                    "basis_change": lambda: random_unimodular(rng, n, 1),
                    "non_maximal": lambda: identity_basis(n, rng.choice((2, 3))),
                }[cls]()
            points = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(3)]
            values = [element_index(f, basis, v) for v in points]
            name = b.add_input(f"{label}.json", order_doc(label, f, basis))
            b.job(
                f"{cls}{n}", "index-form", name, ["--json"],
                {"kind": "index_form", "rank": n, "points": points, "values": values},
            )
    rng.shuffle(b.jobs)


def gen_fiber(b: Builder, rng):
    for k, (cls, n) in enumerate(FIBER_RANKS, 1):
        label = f"f{k:03d}"
        f = random_minpoly(rng, n)
        m = rng.choice((6, 10, 15)) if cls == "non_maximal" else 1
        name = b.add_input(f"{label}.json", order_doc(label, f, identity_basis(n, m)))
        for p in PRIMES_TO_31:
            if m % p == 0:
                factors = [{"dim": n, "f": 1, "t": n - 1, "nilpotency_index": 2}]
                job_cls, mono = "nonreduced", False
            else:
                factors = fiber_factors(f, p)
                job_cls, mono = "kummer", True
            b.job(
                f"{job_cls}{n}", "artin", name, ["--prime", str(p), "--json"],
                {"kind": "artin", "p": p, "factors": factors, "fiber_monogenic": mono},
            )
    rng.shuffle(b.jobs)


def generate(workload: str, seed: int, out: Path, src: Path):
    rng = random.Random(f"{workload}:{seed}")
    b = Builder(out)
    if workload == "corpus":
        gen_corpus(b, rng, src)
    elif workload == "classify":
        gen_classify(b, rng)
    elif workload == "index_form":
        gen_index_form(b, rng)
    else:
        gen_fiber(b, rng)
    doc = {"workload": workload, "seed": seed, "jobs": b.jobs}
    (out / "jobs.json").write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--src", type=Path, default=Path("src"))
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.src)
    return 0


if __name__ == "__main__":
    sys.exit(main())
