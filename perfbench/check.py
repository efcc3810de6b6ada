"""Check one job's output against the answer gen.py computed for it.

Stdlib only.  ``check(spec, stdout)`` returns None when the output is right
and a one-line reason when it is wrong.
"""

from __future__ import annotations

import json


def _primes_below(n):
    return [p for p in range(2, n) if all(p % q for q in range(2, p))]


def _factor_key(f):
    return (f["dim"], f["f"], f["t"], f["nilpotency_index"])


def check(spec, stdout: str):
    kind = spec["kind"]
    if kind == "text":
        got = stdout.rstrip("\n")
        return None if got == spec["text"] else f"form {got!r} != {spec['text']!r}"
    out = json.loads(stdout)
    return globals()["_check_" + kind](spec, out)


def _check_corpus(spec, out):
    rows = out["results"]
    if out["failures"] != 0 or not all(r["ok"] for r in rows):
        return f"{out['failures']} corpus checks failed"
    if len(rows) != spec["rows"]:
        return f"{len(rows)} corpus rows, expected {spec['rows']}"
    return None


def _check_corpus_classify(spec, out):
    want, g = spec["want"], out["global"]
    if g["status"] != want["status"]:
        return f"status {g['status']} != {want['status']}"
    if "witness" in want and g.get("witness") != want["witness"]:
        return f"witness {g.get('witness')} != {want['witness']}"
    return None


def _check_corpus_search(spec, out):
    want = spec["want"]
    got = {"height": out["height"], "witness_count": len(out["witnesses"]),
           "exhausted": out["exhausted"]}
    return None if got == want else f"search {got} != {want}"


def _check_artin(spec, out):
    if out["p"] != spec["p"]:
        return f"prime {out['p']} != {spec['p']}"
    got = sorted(_factor_key(f) for f in out["factors"])
    want = sorted(_factor_key(f) for f in spec["factors"])
    if got != want:
        return f"factors {got} != {want} at p={spec['p']}"
    if out["fiber_monogenic"] != spec["fiber_monogenic"]:
        return f"fiber_monogenic {out['fiber_monogenic']} at p={spec['p']}"
    return None


def _check_classify(spec, out):
    n, m, g = spec["rank"], spec["m"], out["global"]
    if g["status"] != spec["status"]:
        return f"status {g['status']} != {spec['status']}"
    witnesses = sorted(out["search"]["witnesses"])
    if witnesses != sorted(spec["witnesses"]):
        return f"{len(witnesses)} search witnesses, expected {len(spec['witnesses'])}"
    if g["status"] == "Monogenic" and g.get("witness") not in spec["witnesses"]:
        return f"witness {g.get('witness')} is not a generator"
    cids = spec.get("cids", [])
    facts = {
        "zariski_local": not cids,
        "common_index_divisors": cids,
        "geometric": not cids,
        "vanishing_fibers": cids,
    }
    for key, want in facts.items():
        if out[key] != want:
            return f"{key} {out[key]} != {want}"
    primes = {v["p"]: v["monogenic_at_p"] for v in out["primes"]}
    if not set(_primes_below(n)) <= set(primes) or any(
        mono != (m % p != 0) for p, mono in primes.items()
    ):
        return f"per-prime verdicts {primes}"
    for row in out["artin_crosscheck"]:
        want = m % row["p"] != 0
        if row["brute"] != want or row["artin"] != want:
            return f"crosscheck at p={row['p']}: {row}"
    if any("local obstruction" in note for note in out["notes"]):
        return "local obstruction reported"
    return None


def _check_index_form(spec, out):
    n = spec["rank"]
    if out["rank"] != n:
        return f"rank {out['rank']} != {n}"
    degree = n * (n - 1) // 2
    terms = out["form"]["terms"]
    if any(sum(e) != degree for _, e in terms):
        return f"form is not homogeneous of degree {degree}"
    got = []
    for v in spec["points"]:
        acc = 0
        for c, exps in terms:
            t = c
            for x, e in zip(v, exps):
                t *= x**e
            acc += t
        got.append(acc)
    want = spec["values"]
    if got != want and got != [-w for w in want]:
        return f"form values {got} != +-{want}"
    return None
