"""Numerical obstructions for twisted monogenicity.

For a finite degree-n map of smooth projective curves, an embedding into
a line bundle forces the degree of the determinant of the pushforward to
be divisible by n(n-1)/2; over Z, twisted monogenic and monogenic
coincide because the class number of Z is one.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DegenerateDegree


class TwistedCurveVerdict(namedtuple(
    "TwistedCurveVerdict",
    "degree genus_source genus_target triangular steinitz_degree divisible line_bundle_degree",
)):
    """line_bundle_degree is None when the steinitz degree is not divisible."""

    __slots__ = ()

    def to_json(self):
        return self._asdict()

    def render(self) -> str:
        head = (
            f"degree {self.degree} cover, g(source)={self.genus_source}, "
            f"g(target)={self.genus_target}: steinitz degree {self.steinitz_degree}, "
            f"triangular number {self.triangular}"
        )
        if self.divisible:
            return head + f" -> divisible; line bundle degree {self.line_bundle_degree}"
        return head + " -> not divisible; not Gm-twisted monogenic"


def curve_twisted_constraint(n: int, g_source: int, g_target: int) -> TwistedCurveVerdict:
    """Divisibility constraint for a degree-n cover of smooth curves."""
    if n <= 1:
        raise DegenerateDegree("constraint needs a cover of degree >= 2")
    if g_source < 0 or g_target < 0:
        raise DegenerateDegree("genera must be non-negative")
    triangular = n * (n - 1) // 2
    steinitz = 1 - g_source - n * (1 - g_target)
    divisible = steinitz % triangular == 0
    bundle = -steinitz // triangular if divisible else None
    return TwistedCurveVerdict(n, g_source, g_target, triangular, steinitz, divisible, bundle)


def steinitz_exponent(n: int) -> int:
    """Exponent the Steinitz class of a twisted-monogenic extension must be
    a power of."""
    if n < 1:
        raise DegenerateDegree("rank must be positive")
    return n * (n - 1) // 2


def base_Z_twisted_note(report, obstructions) -> None:
    """Annotate a base-Z report with its local obstruction primes: over Z twisted = monogenic."""
    exp = steinitz_exponent(max(report.rank, 1))
    report.notes.append(
        f"steinitz class constraint: any twisted monogenerator forces the "
        f"steinitz class to be a d-th power, d = {exp}"
    )
    if report.global_status == "Monogenic":
        report.notes.append("twisted = global over Z (h(Z)=1); monogenic")
    elif report.global_status == "NotMonogenic":
        report.notes.append("not twisted monogenic (h(Z)=1)")
    elif obstructions:
        report.notes.append(
            "not twisted monogenic (h(Z)=1) assuming the local obstruction "
            "rules out global monogenerators"
        )
    else:
        report.notes.append("twisted status unknown (twisted = global over Z)")
