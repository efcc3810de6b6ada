"""Command-line front end.

Subcommands: validate, index-form, classify, artin, search, twisted-curve,
corpus.  All output is deterministic; --json switches to machine-readable
reports.  MONOGEN_MAX_ENUM overrides the enumeration cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import MonogenError, ValidationError
from .fixtures import parse_input, run_corpus
from .indexform import index_form
from . import artin, localmono, twisted
from .search import DEFAULT_ENUM_CAP, search_monogenerators


def _enum_cap() -> int:
    raw = os.environ.get("MONOGEN_MAX_ENUM")
    if raw:
        try:
            cap = int(raw)
            if cap > 0:
                return cap
        except ValueError:
            pass
        print(f"ignoring invalid MONOGEN_MAX_ENUM={raw!r}", file=sys.stderr)
    return DEFAULT_ENUM_CAP


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="monogen",
        description="Classify finite free ring extensions by monogenicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the ring axioms of an input algebra")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("index-form", help="print the index form of an algebra")
    p.add_argument("input")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="full monogenicity report")
    p.add_argument("input")
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("artin", help="local factors of the fiber algebra at a prime")
    p.add_argument("input")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="height-bounded monogenerator search")
    p.add_argument("input")
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("twisted-curve", help="line-bundle divisibility constraint for curve covers")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--genus-source", type=int, required=True)
    p.add_argument("--genus-target", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("corpus", help="run the fixture suite against expected values")
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_validate(args, cap):
    try:
        alg = parse_input(args.input)
    except ValidationError as exc:
        if args.json:
            print(json.dumps({"ok": False, "violations": exc.violations}))
        else:
            for v in exc.violations:
                print(f"violated: {v}")
        return 1
    if args.json:
        print(json.dumps({"ok": True, "label": alg.label, "rank": alg.rank}))
    else:
        print(f"ok: {alg.label or 'algebra'} (rank {alg.rank})")
    return 0


def _cmd_index_form(args, cap):
    alg = parse_input(args.input)
    form = index_form(alg)
    if args.json:
        print(json.dumps(form.to_json()))
    else:
        print(form.text())
    return 0


def _cmd_classify(args, cap):
    alg = parse_input(args.input)
    report = localmono.classify(alg, args.height, cap)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report.render())
    return 0


def _cmd_artin(args, cap):
    alg = parse_input(args.input)
    dec = artin.decompose(alg.reduce_mod_p(args.prime))
    verdict = artin.fiber_monogenic(dec)
    if args.json:
        print(json.dumps({**dec.to_json(), "fiber_monogenic": verdict}))
    else:
        for f in dec.factors:
            print(
                f"factor: dim={f.dimension} f={f.residue_degree} "
                f"t={f.tangent_dim} nilpotency_index={f.nilpotency_index}"
            )
        print(f"fiber monogenic at {args.prime}: {verdict}")
    return 0


def _cmd_search(args, cap):
    alg = parse_input(args.input)
    res = search_monogenerators(alg, args.height, cap)
    if args.json:
        print(json.dumps(res.to_json()))
    else:
        print(f"height {res.height}: {len(res.witnesses)} witnesses, "
              f"{len(res.classes)} affine classes, exhausted={res.exhausted}")
        for c in res.classes:
            print(f"  class representative: {list(c)}")
    return 0


def _cmd_twisted_curve(args, cap):
    verdict = twisted.curve_twisted_constraint(
        args.degree, args.genus_source, args.genus_target
    )
    if args.json:
        print(json.dumps(verdict.to_json()))
    else:
        print(verdict.render())
    return 0


def _cmd_corpus(args, cap):
    rows = run_corpus(cap)
    failures = [r for r in rows if not r["ok"]]
    if args.json:
        print(json.dumps({"results": rows, "failures": len(failures)}))
    else:
        width = max(len(r["fixture"]) for r in rows) if rows else 8
        for r in rows:
            mark = "PASS" if r["ok"] else "FAIL"
            print(f"{mark}  {r['fixture']:<{width}}  {r['check']:<24} {r['detail']}")
        print(f"{len(rows) - len(failures)}/{len(rows)} checks passed")
    return 1 if failures else 0


_COMMANDS = {
    "validate": _cmd_validate,
    "index-form": _cmd_index_form,
    "classify": _cmd_classify,
    "artin": _cmd_artin,
    "search": _cmd_search,
    "twisted-curve": _cmd_twisted_curve,
    "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cap = _enum_cap()
    try:
        return _COMMANDS[args.command](args, cap)
    except MonogenError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                  file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
