"""Command-line front end.

Each subcommand is declared once, as one row of ``COMMANDS`` (help,
arguments, handler), which both ``build_parser`` and ``main`` read.
Every subcommand takes --json.  A handler returns its exit code and two
zero-argument formatters, one for the JSON document and one for the
text; ``main`` prints, and formats only the output asked for.  All
output is deterministic.  MONOGEN_MAX_ENUM overrides the enumeration cap.
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


def _validate(args, cap):
    try:
        alg = parse_input(args.input)
    except ValidationError as exc:
        violations = exc.violations
        return (1, lambda: {"ok": False, "violations": violations},
                lambda: "\n".join(f"violated: {v}" for v in violations))
    return (0, lambda: {"ok": True, "label": alg.label, "rank": alg.rank},
            lambda: f"ok: {alg.label or 'algebra'} (rank {alg.rank})")


def _index_form(args, cap):
    form = index_form(parse_input(args.input))
    return 0, form.to_json, form.text


def _classify(args, cap):
    report = localmono.classify(parse_input(args.input), args.height, cap)
    return 0, report.to_json, report.render


def _artin(args, cap):
    alg = parse_input(args.input)
    if alg.base.kind != "Fp":  # reduce_mod_p takes Z and refuses Z[t] and F_p[t]
        alg = alg.reduce_mod_p(args.prime)
    elif alg.base.p != args.prime:
        q = alg.base.p
        raise MonogenError(f"an algebra over F_{q} has its one fiber at {q}, not at {args.prime}")
    dec = artin.decompose(alg)
    verdict = artin.fiber_monogenic(dec)

    def text():
        lines = [f"factor: dim={f.dimension} f={f.residue_degree} "
                 f"t={f.tangent_dim} nilpotency_index={f.nilpotency_index}" for f in dec.factors]
        return "\n".join([*lines, f"fiber monogenic at {args.prime}: {verdict}"])

    return 0, lambda: {**dec.to_json(), "fiber_monogenic": verdict}, text


def _search(args, cap):
    res = search_monogenerators(parse_input(args.input), args.height, cap)

    def text():
        head = (f"height {res.height}: {len(res.witnesses)} witnesses, "
                f"{len(res.classes)} affine classes, exhausted={res.exhausted}")
        return "\n".join([head, *(f"  class representative: {list(c)}" for c in res.classes)])

    return 0, res.to_json, text


def _twisted_curve(args, cap):
    verdict = twisted.curve_twisted_constraint(args.degree, args.genus_source, args.genus_target)
    return 0, verdict.to_json, verdict.render


def _corpus(args, cap):
    rows = run_corpus(cap)
    failures = sum(not r["ok"] for r in rows)

    def text():
        width = max((len(r["fixture"]) for r in rows), default=8)
        lines = [f"{'PASS' if r['ok'] else 'FAIL'}  {r['fixture']:<{width}}  "
                 f"{r['check']:<24} {r['detail']}" for r in rows]
        return "\n".join([*lines, f"{len(rows) - failures}/{len(rows)} checks passed"])

    return int(failures > 0), lambda: {"results": rows, "failures": failures}, text


_INPUT = ("input", {})
_HEIGHT = ("--height", {"type": int, "default": 10})


def _required_int(flag):
    return flag, {"type": int, "required": True}


# name -> (help, arguments, handler); every subcommand also takes --json
COMMANDS = {
    "validate": ("check the ring axioms of an input algebra", [_INPUT], _validate),
    "index-form": ("print the index form of an algebra", [_INPUT], _index_form),
    "classify": ("full monogenicity report", [_INPUT, _HEIGHT], _classify),
    "artin": ("local factors of the fiber algebra at a prime",
              [_INPUT, _required_int("--prime")], _artin),
    "search": ("height-bounded monogenerator search", [_INPUT, _HEIGHT], _search),
    "twisted-curve": ("line-bundle divisibility constraint for curve covers",
                      [_required_int("--degree"), _required_int("--genus-source"),
                       _required_int("--genus-target")], _twisted_curve),
    "corpus": ("run the fixture suite against expected values", [], _corpus),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="monogen",
        description="Classify finite free ring extensions by monogenicity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cap = _enum_cap()
    stream = sys.stdout
    try:
        code, doc, text = COMMANDS[args.command][2](args, cap)
    except MonogenError as exc:
        error = {"error": type(exc).__name__, "message": str(exc)}
        code, stream = 1, sys.stderr
        doc, text = (lambda: error), (lambda: f"error: {error['message']}")
    print(json.dumps(doc()) if args.json else text(), file=stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
