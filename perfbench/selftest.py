"""Self-test of the benchmark's tracing.

Usage (from the root of a checkout): python3 perfbench/selftest.py [--seed N]

Checks that the tracer wraps every binding of each public function, then
runs one traced pass of every workload and asserts that each declared
per-layer metric fired on the workload it is meant for and stayed zero
where zero is predicted.  Exits 1 if any expectation is broken.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Metrics that must be non-zero on a workload: the one each is meant for.
NONZERO = {
    "corpus": (
        "cli.self_s", "fixtures.parse_s", "fixtures.run_corpus_s",
        "algebra.discriminant_s", "algebra.to_algebra_s", "algebra.validate_s",
    ),
    "classify": (
        "exactring.evaluate_calls", "exactring.evaluate_s", "exactring.content_primes_s",
        "search.scan_s", "search.points", "search.points_per_s", "search.witness_ratio",
        "localmono.prime_check_calls", "localmono.prime_check_s",
        "localmono.prime_check_points", "localmono.prime_check_dup_ratio",
        "localmono.value_set_s", "localmono.value_set_points", "localmono.obstruction_s",
        "localmono.classify_self_s",
    ),
    "index_form": (
        "indexform.matrix_s", "indexform.index_form_calls", "indexform.form_terms",
        "exactring.determinant_s",
    ),
    "fiber": (
        "algebra.vec_mul_calls", "algebra.reduce_mod_p_s", "exactring.berlekamp_calls",
        "exactring.berlekamp_s", "artin.decompose_calls", "artin.decompose_s",
        "artin.nilradical_s",
    ),
}
# Zero predictions: work a workload must not reach.
ZERO = {
    "corpus": (),
    "classify": ("fixtures.run_corpus_s", "algebra.discriminant_s"),
    "index_form": (
        "exactring.evaluate_calls", "search.points", "localmono.prime_check_calls",
        "artin.decompose_calls", "exactring.berlekamp_calls", "fixtures.run_corpus_s",
    ),
    "fiber": (
        "exactring.evaluate_calls", "exactring.evaluate_s", "indexform.index_form_calls",
        "indexform.matrix_s", "exactring.determinant_s", "search.points",
        "localmono.prime_check_calls", "fixtures.run_corpus_s",
    ),
}
# Function bound by `from .x import y` in several modules: each binding must be wrapped.
SHARED_BINDINGS = {
    "index_form": ("monogen.indexform", "monogen.localmono", "monogen.search",
                   "monogen.fixtures", "monogen.cli", "monogen"),
    "parse_input": ("monogen.fixtures", "monogen.cli"),
    "search_monogenerators": ("monogen.search", "monogen.localmono", "monogen.fixtures",
                              "monogen.cli", "monogen"),
    "content_primes": ("monogen.exactring", "monogen.localmono", "monogen"),
    "berlekamp_factor": ("monogen.exactring", "monogen.artin", "monogen"),
    "determinant": ("monogen.exactring", "monogen.indexform", "monogen"),
}


def check_bindings(src: Path):
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import monogen.cli  # noqa: F401  (loads every module the CLI uses)
    from spans import Tracer

    tracer = Tracer().install()
    tracer.uninstall()
    bound = tracer.bound
    missing = [
        (mod, name) for name, mods in SHARED_BINDINGS.items() for mod in mods
        if (mod, name) not in bound
    ]
    return [f"binding of {name} in {mod} is not wrapped" for mod, name in missing]


def per_layer_names():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in doc["per_layer"]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    problems = check_bindings(Path("src"))
    declared = per_layer_names()
    covered = {name for names in NONZERO.values() for name in names}
    problems += [f"{name} is non-zero on no workload" for name in declared if name not in covered]
    for workload in NONZERO:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
             str(args.seed), "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: run failed\n{proc.stderr}")
            continue
        lines = proc.stdout.splitlines()
        result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload}: trace {json.dumps(report['trace'])}")
        if sorted(metrics) != sorted(declared):
            problems.append(f"{workload}: metrics {sorted(set(metrics) ^ set(declared))} "
                            "differ from BENCHMARK.json")
        if not result["correct"]:
            problems.append(f"{workload}: wrong answers {report['failures']}")
        problems += [f"{workload}: {n} is 0" for n in NONZERO[workload] if not metrics.get(n)]
        problems += [f"{workload}: {n} = {metrics.get(n)}, predicted 0"
                     for n in ZERO[workload] if metrics.get(n) != 0]
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
