"""Monogenicity at primes, Zariski-locally, and over geometric points.

Brute-force side of the dual oracle: reduce the index form, over Z, mod p
and enumerate residue tuples of F_p^m.  The Artinian criterion in
monogen.artin checks the same verdicts independently.  Value sets and local
obstructions need a form over Z too: a point of a Z[t] form is a tuple over
Z[t], so mod p it lies in F_p[t]^m, not F_p^m, and no scan covers it.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import BudgetExceeded, NotIntegerBase, ZeroIndexForm
from .exactring import content_primes, is_prime
from .algebra import StructureAlgebra
from .indexform import IndexForm, index_form
from . import artin
from .search import (
    DEFAULT_ENUM_CAP,
    SearchResult,
    check_height,
    projective_scan,
    search_monogenerators,
)
from .twisted import base_Z_twisted_note

# classify cross-checks the two fiber oracles at every prime up to this
# bound and at every common index divisor.
CROSSCHECK_BOUND = 7
OBSTRUCTION_BOUND = 25


class LocalVerdict(namedtuple("LocalVerdict", "prime monogenic_at_p witness", defaults=(None,))):
    """witness is the first point where the form is nonzero mod p, or None."""

    __slots__ = ()

    def to_json(self):
        d = {"p": self.prime, "monogenic_at_p": self.monogenic_at_p}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def is_monogenic_at_prime(
    alg: StructureAlgebra,
    p: int,
    cap: int = DEFAULT_ENUM_CAP,
    form: IndexForm | None = None,
) -> LocalVerdict:
    """Enumerate F_p tuples until the reduced index form is nonzero.

    Variables absent from the reduced form (always including the
    coefficient of 1 when 1 is a basis element) are skipped; the first
    witness in lexicographic order is reported.  Its first nonzero
    coordinate is 1, since dividing a witness by that coordinate gives a
    witness no larger, so one point per line through 0 is scanned.
    """
    _require_z(alg)
    if form is None:
        form = index_form(alg)
    for v, value in projective_scan(form.reduce_mod_p(p), cap, f"prime check mod {p}"):
        if value != 0:
            return LocalVerdict(p, True, v)
    return LocalVerdict(p, False)


def common_index_divisors(
    alg: StructureAlgebra, cap: int = DEFAULT_ENUM_CAP, form: IndexForm | None = None
):
    """Sorted primes where no residue tuple makes the index form nonzero.

    Raises ZeroIndexForm when the form is identically zero, since then
    every prime would be one.
    """
    _require_z(alg)
    if form is None:
        form = index_form(alg)
    vanishing = geometric_point_verdict(alg, form)["vanishing_fiber_primes"]
    return [v.prime for v in _prime_verdicts(alg, cap, form, vanishing) if not v.monogenic_at_p]


def _prime_verdicts(alg, cap, form, vanishing):
    """Brute-force verdicts at every prime that can be a common index divisor.

    These are the primes p < n and the vanishing fiber primes.  For p >= n
    the affine line over F_p has enough closed points of every degree, so
    the fiber fails only when a local factor has tangent dimension >= 2,
    that is, when the index form vanishes identically mod p.
    """
    primes = sorted({p for p in range(2, alg.rank) if is_prime(p)} | vanishing)
    return [is_monogenic_at_prime(alg, p, cap, form) for p in primes]


def geometric_point_verdict(
    alg: StructureAlgebra, form: IndexForm | None = None
) -> dict:
    """Monogenic over geometric points iff no fiber kills the index form."""
    _require_z(alg)
    if form is None:
        form = index_form(alg)
    if form.form.is_zero:
        raise ZeroIndexForm(f"index form of {alg.label!r} is identically zero")
    fibers = sorted(content_primes(form.form))
    return {
        "monogenic_over_geometric_points": not fibers,
        "vanishing_fiber_primes": set(fibers),
    }


def value_set_mod_p(form: IndexForm, p: int, cap: int = DEFAULT_ENUM_CAP):
    """All values in F_p of an index form over Z at the points of F_p^m.

    The form is homogeneous of degree d, so on the line through v it takes
    the values c^d * F(v) for c in F_p^*: one point per line is evaluated,
    and each new value is scaled by the d-th powers.  The scan stops once
    the set holds all p residues, since no later point can add one.  A form
    over Z[t] raises NotIntegerBase, and a scan of more than cap points
    raises BudgetExceeded, before any point is evaluated.
    """
    scan = projective_scan(form.reduce_mod_p(p), cap, f"value set mod {p}")
    powers = {pow(c, form.degree, p) for c in range(1, p)}
    values = set()
    for _, value in scan:
        if value not in values:
            values.update(value * u % p for u in powers)
            if len(values) == p:
                break
    return values


def local_obstruction_primes(
    form: IndexForm, bound: int = OBSTRUCTION_BOUND, cap: int = DEFAULT_ENUM_CAP
):
    """Primes p <= bound where the form, over Z, never takes the values +-1 mod p.

    Any such prime rules out a global monogenerator even when no common
    index divisor exists.  A form over Z[t] raises NotIntegerBase before any
    point is scanned.  A value set beyond the cap raises BudgetExceeded, its
    ``found`` the primes found before it.
    """
    out = []
    for p in range(2, bound + 1):
        if not is_prime(p):
            continue
        try:
            vals = value_set_mod_p(form, p, cap)
        except BudgetExceeded as e:
            e.found = out
            raise
        if 1 not in vals and p - 1 not in vals:
            out.append(p)
    return out


class MonogenicityReport(namedtuple("MonogenicityReport", (
    "label rank global_status zariski_local common_index_divisors geometric "
    "vanishing_fibers primes artin_crosscheck search witness reason notes"
))):
    """Every verdict of classify.

    global_status is Monogenic, NotMonogenic or Unknown; witness and reason
    may be None; notes is a list that base_Z_twisted_note extends.
    """

    __slots__ = ()

    def to_json(self):
        g = {"status": self.global_status}
        if self.witness is not None:
            g["witness"] = list(self.witness)
        if self.reason is not None:
            g["reason"] = self.reason
        return {
            "label": self.label,
            "global": g,
            "zariski_local": self.zariski_local,
            "common_index_divisors": self.common_index_divisors,
            "geometric": self.geometric,
            "vanishing_fibers": self.vanishing_fibers,
            "primes": [v.to_json() for v in self.primes],
            "artin_crosscheck": self.artin_crosscheck,
            "search": None if self.search is None else self.search.to_json(),
            "notes": self.notes,
        }

    def render(self) -> str:
        lines = [f"algebra: {self.label} (rank {self.rank})"]
        g = f"global: {self.global_status}"
        if self.witness is not None:
            g += f" (witness {list(self.witness)})"
        if self.reason is not None:
            g += f" ({self.reason})"
        lines.append(g)
        lines.append(f"zariski-local: {self.zariski_local}"
                     f" (common index divisors: {self.common_index_divisors})")
        lines.append(f"geometric: {self.geometric}"
                     f" (vanishing fibers: {self.vanishing_fibers})")
        for v in self.primes:
            w = f", witness {list(v.witness)}" if v.witness is not None else ""
            lines.append(f"  p={v.prime}: monogenic_at_p={v.monogenic_at_p}{w}")
        for c in self.artin_crosscheck:
            lines.append(
                f"  artin p={c['p']}: fiber_monogenic={c['artin']} "
                f"brute_force={c['brute']}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def classify(
    alg: StructureAlgebra, height: int, cap: int = DEFAULT_ENUM_CAP
) -> MonogenicityReport:
    """Aggregate every verdict for an integer algebra.

    A common index divisor p settles NotMonogenic before the box search:
    the form vanishes on F_p^m, so F(v) = 0 mod p at every integer point v
    and no box can hold a witness.  The search block is then the empty,
    exhausted search at the given height, whatever its box and the cap.  An
    identically zero form is NotMonogenic for the same reason at every
    prime; its report lists no prime, no common index divisor and no
    vanishing fiber, and is neither Zariski-locally nor geometrically
    monogenic.  Only the cross-check rows at the primes up to
    CROSSCHECK_BOUND are kept for it.
    """
    _require_z(alg)
    check_height(height)
    form = index_form(alg)
    if form.form.is_zero:
        geometric, vanishing, verdicts, cids = False, set(), [], []
        reason = "index form identically zero"
    else:
        geo = geometric_point_verdict(alg, form)
        geometric = geo["monogenic_over_geometric_points"]
        vanishing = geo["vanishing_fiber_primes"]
        verdicts = _prime_verdicts(alg, cap, form, vanishing)
        cids = [v.prime for v in verdicts if not v.monogenic_at_p]
        reason = f"common index divisor {cids[0]}" if cids else None

    if reason is None:
        result = search_monogenerators(alg, height, cap, form)
    else:
        result = SearchResult(height, (), (), True)

    crosscheck = []
    for p in sorted({p for p in range(2, CROSSCHECK_BOUND + 1) if is_prime(p)} | set(cids)):
        dec = artin.decompose(alg.reduce_mod_p(p))
        brute = is_monogenic_at_prime(alg, p, cap, form).monogenic_at_p
        fiber = artin.fiber_monogenic(dec)
        if brute != fiber:
            raise AssertionError(
                f"brute force and Artin fiber verdicts differ at p={p}: {brute} != {fiber}"
            )
        crosscheck.append({"p": p, "brute": brute, "artin": fiber})

    notes, obstructions = [], []
    status, witness = "Unknown", None
    if reason is not None:
        status = "NotMonogenic"
    elif result.witnesses:
        witness = result.witnesses[0]
        status = "Monogenic"
    else:
        notes.append(f"height {height} exhausted without a witness")
        try:
            obstructions, stop = local_obstruction_primes(form, cap=cap), []
        except BudgetExceeded as e:  # the scan only adds notes: the cap ends it, not the report
            obstructions, stop = e.found, [f"obstruction scan stopped at {e}"]
        notes += [f"local obstruction: values mod {p} never units" for p in obstructions] + stop

    report = MonogenicityReport(
        label=alg.label,
        rank=alg.rank,
        global_status=status,
        zariski_local=reason is None,
        common_index_divisors=cids,
        geometric=geometric,
        vanishing_fibers=sorted(vanishing),
        primes=verdicts,
        artin_crosscheck=crosscheck,
        search=result,
        witness=witness,
        reason=reason,
        notes=notes,
    )
    _assert_implications(report)
    base_Z_twisted_note(report, obstructions)
    return report


def _assert_implications(report: MonogenicityReport):
    """Monogenic => Zariski-locally monogenic => monogenic over geometric points."""
    if report.global_status == "Monogenic" and not report.zariski_local:
        raise AssertionError("monogenic but not Zariski-locally monogenic")
    if report.zariski_local and not report.geometric:
        raise AssertionError("Zariski-locally monogenic but not over geometric points")


def _require_z(alg):
    if alg.base.kind != "Z":
        raise NotIntegerBase("this operation needs base Z")
