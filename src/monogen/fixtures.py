"""Fixture corpus: loading inputs and running the expected-value table.

Each corpus file carries the algebra (either structure constants or an
order presentation) plus an ``expected`` block; ``run_corpus`` replays
every expectation and reports one pass/fail row per check.
"""

from __future__ import annotations

import json
import os

from .errors import MonogenError, ParseError
from .algebra import OrderPresentation, StructureAlgebra
from .indexform import check_monogenerator, index_form
from . import artin, localmono
from .search import DEFAULT_ENUM_CAP, search_monogenerators


def load_algebra_json(doc, label_hint: str = "") -> StructureAlgebra:
    """Build a validated algebra from a parsed fixture or schema document."""
    if not isinstance(doc, dict):
        raise ParseError("input must be a JSON object")
    inner = doc.get("algebra") or doc.get("order") or doc
    if not isinstance(inner, dict):
        raise ParseError("'algebra' or 'order' must be a JSON object")
    if not all(isinstance(d.get("label", ""), str) for d in (doc, inner)):
        raise ParseError("label must be a string")
    label = doc.get("label") or inner.get("label") or label_hint
    try:
        if "minpoly" in inner:
            alg = OrderPresentation.from_json(inner).to_algebra(label=label)
        elif "constants" in inner:
            alg = StructureAlgebra.from_json({**inner, "label": label})
        else:
            raise ParseError(
                "expected either structure constants ('constants') or an "
                "order presentation ('minpoly' + 'basis')"
            )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed input: {exc}") from exc
    return alg


def _read_json(path):
    """The JSON document in a file; ParseError naming the path if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:  # missing, a directory, unreadable
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


def _stem(path) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def parse_input(path) -> StructureAlgebra:
    return load_algebra_json(_read_json(path), label_hint=_stem(path))


def corpus_dir() -> str:
    return os.path.join(os.path.dirname(__file__), "corpus")


def corpus_files():
    folder = corpus_dir()
    return sorted(os.path.join(folder, f) for f in os.listdir(folder) if f.endswith(".json"))


def load_fixture(path):
    doc = _read_json(path)
    return load_algebra_json(doc, label_hint=_stem(path)), doc.get("expected", {})


def run_corpus(cap: int = DEFAULT_ENUM_CAP):
    """Replay every expectation in the corpus; returns result rows."""
    rows = []
    for path in corpus_files():
        name = _stem(path)
        try:
            alg, expected = load_fixture(path)
        except MonogenError as exc:
            rows.append(_row(name, "load", False, str(exc)))
            continue
        rows.append(_row(name, "validate", True, "ok"))
        form = index_form(alg)
        for check, want in expected.items():
            if check == "provenance":
                continue
            try:
                got = _run_check(alg, form, check, want, cap)
            except MonogenError as exc:
                rows.append(_row(name, check, False, f"error: {exc}"))
                continue
            ok = got == want
            rows.append(_row(name, check, ok, f"got {got!r}" + ("" if ok else f", want {want!r}")))
    return rows


def _run_check(alg, form, check, want, cap):
    if check == "index_form":
        return form.text()
    if check == "index_form_mod":
        return {
            "p": want["p"],
            "text": form.reduce_mod_p(want["p"]).canonical_sign().text(),
        }
    if check == "discriminant":
        return alg.discriminant()
    if check == "common_index_divisors":
        return localmono.common_index_divisors(alg, cap, form)
    if check == "vanishing_fiber_primes":
        return sorted(localmono.geometric_point_verdict(alg, form)["vanishing_fiber_primes"])
    if check == "geometric":
        return localmono.geometric_point_verdict(alg, form)["monogenic_over_geometric_points"]
    if check == "value_set_mod":
        return {
            "p": want["p"],
            "values": sorted(localmono.value_set_mod_p(form, want["p"], cap)),
        }
    if check == "classify":
        report = localmono.classify(alg, want.get("height", 10), cap)
        got = {"status": report.global_status, "height": want.get("height", 10)}
        if "witness" in want:
            got["witness"] = list(report.witness) if report.witness else None
        return got
    if check == "search":
        res = search_monogenerators(alg, want["height"], cap, form)
        return {
            "height": want["height"],
            "witness_count": len(res.witnesses),
            "exhausted": res.exhausted,
        }
    if check == "artin":
        got = {}
        for pstr, _ in want.items():
            dec = artin.decompose(alg.reduce_mod_p(int(pstr)))
            got[pstr] = {
                "factors": [f.to_json() for f in dec.factors],
                "fiber_monogenic": artin.fiber_monogenic(dec),
            }
        return got
    if check == "monogenerator":
        res = check_monogenerator(alg, want["candidate"])
        return {"candidate": want["candidate"], "is_monogenerator": res["is_monogenerator"]}
    raise MonogenError(f"unknown corpus check {check!r}")


def _row(fixture, check, ok, detail):
    return {"fixture": fixture, "check": check, "ok": ok, "detail": detail}
