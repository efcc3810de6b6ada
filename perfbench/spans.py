"""Span and counter tracing around the public functions of each monogen module.

The tracer patches functions from outside the program: every module
namespace of the ``monogen`` package that holds the function object (for
example ``index_form`` as bound by ``from .indexform import index_form`` in
``localmono``, ``search``, ``fixtures`` and ``cli``) gets the same wrapper,
and methods are wrapped on their class.  Spans nest through a stack, so a
span's self time is its duration minus the time of its child spans.

Aggregates are kept in memory per span name; no per-call records are
stored, because the hot leaves (``SparsePoly.evaluate``,
``StructureAlgebra.vec_mul``) run hundreds of thousands of times per pass.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute path).  Spans record time and calls.
SPANS = (
    ("cli.main", "monogen.cli", "main"),
    ("fixtures.parse", "monogen.fixtures", "parse_input"),
    ("fixtures.run_corpus", "monogen.fixtures", "run_corpus"),
    ("algebra.to_algebra", "monogen.algebra", "OrderPresentation.to_algebra"),
    ("algebra.validate", "monogen.algebra", "StructureAlgebra.validate"),
    ("algebra.reduce_mod_p", "monogen.algebra", "StructureAlgebra.reduce_mod_p"),
    ("algebra.discriminant", "monogen.algebra", "StructureAlgebra.discriminant"),
    ("indexform.matrix", "monogen.indexform", "matrix_of_coefficients"),
    ("indexform.index_form", "monogen.indexform", "index_form"),
    ("exactring.determinant", "monogen.exactring", "determinant"),
    ("exactring.content_primes", "monogen.exactring", "content_primes"),
    ("exactring.berlekamp", "monogen.exactring", "berlekamp_factor"),
    ("search.scan", "monogen.search", "search_monogenerators"),
    ("localmono.prime_check", "monogen.localmono", "is_monogenic_at_prime"),
    ("localmono.value_set", "monogen.localmono", "value_set_mod_p"),
    ("localmono.obstruction", "monogen.localmono", "local_obstruction_primes"),
    ("localmono.classify", "monogen.localmono", "classify"),
    ("artin.decompose", "monogen.artin", "decompose"),
    ("artin.nilradical", "monogen.artin", "nilradical"),
    ("exactring.evaluate", "monogen.exactring", "SparsePoly.evaluate"),
)
# One point of a scan: each call also counts as a point of the span that
# encloses it (search, prime check or value-set scan).
POINT = "exactring.evaluate"
# Counted, not timed: the per-call cost of a timer would swamp the kernel.
COUNTERS = (("algebra.vec_mul", "monogen.algebra", "StructureAlgebra.vec_mul"),)


def _resolve(module, path):
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Installs wrappers, aggregates spans, and restores the originals."""

    def __init__(self):
        self.stack = []  # frames: [name, child_seconds, points]
        self.total = Counter()  # name -> inclusive seconds
        self.self_time = Counter()  # name -> seconds not covered by child spans
        self.calls = Counter()
        self.points = Counter()  # name -> evaluate calls made directly inside it
        self.extra = Counter()  # form terms, witnesses, duplicate prime checks
        self.root_time = 0.0
        self._patches = []
        self.bound = set()  # (module or class name, attribute) of every binding wrapped
        self._seen_prime_checks = set()
        self._job_refs = []

    # -- recording

    def _record(self, frame, dur):
        name, child, points = frame
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        if points:
            self.points[name] += points
        if self.stack:
            self.stack[-1][1] += dur
        else:
            self.root_time += dur

    def _span(self, name, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        point = name == POINT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if point and stack:
                stack[-1][2] += 1
            frame = [name, 0.0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                tracer._record(frame, dur)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_indexform_index_form(self, args, result):
        self.extra["indexform.form_terms"] += len(result.form.terms)

    def _on_search_scan(self, args, result):
        self.extra["search.witnesses"] += len(result.witnesses)

    def _on_localmono_prime_check(self, args, result):
        alg, p = args[0], args[1]
        key = (id(alg), p)
        if key in self._seen_prime_checks:
            self.extra["localmono.prime_check_dups"] += 1
        else:
            self._seen_prime_checks.add(key)
            self._job_refs.append(alg)  # keeps id(alg) unique within the job

    def begin_job(self):
        self._seen_prime_checks.clear()
        self._job_refs.clear()

    # -- installation

    def install(self):
        targets = [(name, mod, path, self._span) for name, mod, path in SPANS]
        targets += [(name, mod, path, self._counter) for name, mod, path in COUNTERS]
        for name, mod, path, make in targets:
            owner, attr = _resolve(mod, path)
            orig = getattr(owner, attr)
            wrapped = make(name, orig)
            if isinstance(owner, type):
                self._patch(owner, attr, orig, wrapped)
                continue
            for mname, module in list(sys.modules.items()):
                if mname == "monogen" or mname.startswith("monogen."):
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._patch(module, key, orig, wrapped)
        return self

    def _patch(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))
        self.bound.add((owner.__name__, attr))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- per-layer metrics

    def metrics(self, passes: int):
        """Per-layer metrics, each a per-pass average over ``passes`` passes."""
        t, c, pts, x = self.total, self.calls, self.points, self.extra
        scan_points = pts["search.scan"]
        checks = c["localmono.prime_check"]
        raw = {
            "cli.self_s": self.self_time["cli.main"],
            "fixtures.parse_s": t["fixtures.parse"],
            "fixtures.run_corpus_s": t["fixtures.run_corpus"],
            "algebra.to_algebra_s": t["algebra.to_algebra"],
            "algebra.validate_s": t["algebra.validate"],
            "algebra.reduce_mod_p_s": t["algebra.reduce_mod_p"],
            "algebra.discriminant_s": t["algebra.discriminant"],
            "algebra.vec_mul_calls": c["algebra.vec_mul"],
            "indexform.matrix_s": t["indexform.matrix"],
            "indexform.index_form_calls": c["indexform.index_form"],
            "indexform.form_terms": x["indexform.form_terms"],
            "exactring.determinant_s": t["exactring.determinant"],
            "exactring.evaluate_calls": c["exactring.evaluate"],
            "exactring.evaluate_s": t["exactring.evaluate"],
            "exactring.content_primes_s": t["exactring.content_primes"],
            "exactring.berlekamp_calls": c["exactring.berlekamp"],
            "exactring.berlekamp_s": t["exactring.berlekamp"],
            "search.scan_s": t["search.scan"],
            "search.points": scan_points,
            "localmono.prime_check_calls": checks,
            "localmono.prime_check_s": t["localmono.prime_check"],
            "localmono.prime_check_points": pts["localmono.prime_check"],
            "localmono.value_set_s": t["localmono.value_set"],
            "localmono.value_set_points": pts["localmono.value_set"],
            "localmono.obstruction_s": t["localmono.obstruction"],
            "localmono.classify_self_s": self.self_time["localmono.classify"],
            "artin.decompose_calls": c["artin.decompose"],
            "artin.decompose_s": t["artin.decompose"],
            "artin.nilradical_s": t["artin.nilradical"],
        }
        out = {k: v / passes for k, v in raw.items()}
        # ratios are per-run, not per-pass
        out["search.points_per_s"] = scan_points / t["search.scan"] if t["search.scan"] else 0.0
        out["search.witness_ratio"] = x["search.witnesses"] / scan_points if scan_points else 0.0
        out["localmono.prime_check_dup_ratio"] = (
            x["localmono.prime_check_dups"] / checks if checks else 0.0
        )
        return out
