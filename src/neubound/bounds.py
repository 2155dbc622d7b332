"""Lower bounds for the first nontrivial Neumann eigenvalue mu_1.

All bounds share one mechanism: if E extends H^1(Omega) into a ball B of
radius R containing Omega with squared gradient-energy norm ||E||^2, then

    mu_1(Omega) >= (p_{n/2} / R)^2 / ||E||^2,

where p_{n/2} = p_zero(n) and (p_{n/2}/R)^2 is mu_1 of the ball itself.
Centrally symmetric domains admit the same bound with R replaced by d/2
(half the diameter), which is never worse.  Specializations: K-quasidiscs
use ||E||^2 <= (1+K)^2, beta-star-shaped plane domains use the explicit
K(beta), and the classical pi^2/d^2 bound for convex domains serves as the
benchmark the extension route tries to beat.

best_bound_report lists each formula once whenever the declared metadata
supports it, marks which entries are claims for this domain and which are
reference values, and picks the largest claim, ties going to the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import qcmaps
from .errors import check_real
from .extension_norms import quasidisc_norm_sq
from .special import p_zero

if TYPE_CHECKING:  # geometry loads NumPy, which half_ball's bound formulas never need
    from . import geometry


def ball_mu1(n: int, radius: float) -> float:
    """First nontrivial Neumann eigenvalue of a ball of given radius in R^n."""
    radius = check_real("radius", radius, 0, strict=True)
    return (p_zero(n) / radius) ** 2


def extension_ball_bound(norm_sq: float, radius: float, n: int) -> float:
    """mu_1 >= p_{n/2}^2 / (||E||^2 R^2) from an extension into a ball of radius R."""
    norm_sq = check_real("norm_sq", norm_sq, 1)
    return ball_mu1(n, radius) / norm_sq


def symmetric_domain_bound(norm_sq: float, diam: float, n: int) -> float:
    """The d/2 variant for centrally symmetric domains: (p/d)^2 (2/||E||)^2."""
    norm_sq = check_real("norm_sq", norm_sq, 1)
    diam = check_real("diameter", diam, 0, strict=True)
    return (p_zero(n) / diam) ** 2 * (4.0 / norm_sq)


def star_shaped_bound(beta: float, diam: float) -> float:
    """Planar beta-star-shaped domain: mu_1 >= 4 sin^4((1-beta) pi/4) (p_1/d)^2."""
    diam = check_real("diameter", diam, 0, strict=True)
    beta = check_real("beta", beta, 0, 1)
    s = math.sin(0.25 * math.pi * (1.0 - beta))
    return 4.0 * s**4 * (p_zero(2) / diam) ** 2


def payne_weinberger_bound(diam: float) -> float:
    """Classical convex-domain bound pi^2 / d^2 (not valid without convexity)."""
    return (math.pi / check_real("diameter", diam, 0, strict=True)) ** 2


def improvement_condition(norm_sq: float, n: int) -> bool:
    """Whether the symmetric extension bound beats pi^2/d^2: ||E|| <= 2 p_{n/2} / pi."""
    return math.sqrt(check_real("norm_sq", norm_sq, 1)) <= 2.0 * p_zero(n) / math.pi


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class LowerBound:
    """One lower-bound candidate for a domain.

    applicable says whether the value is an actual claim about this domain
    (and so must sit below any trustworthy computation of mu_1); entries
    kept for reference only, like the convex-domain benchmark on a domain
    not declared convex, have applicable False.  The largest applicable
    entry is the headline number.
    """

    value: float
    formula: str
    inputs: dict
    applicable: bool = True
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "value": self.value,
            "formula": self.formula,
            "inputs": dict(self.inputs),
            "applicable": self.applicable,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class BoundReport:
    """Every bound the metadata supports, plus the headline choice."""

    bounds: list[LowerBound]
    best: LowerBound | None
    pw_comparison: bool | None
    notes: list[str] = field(default_factory=list)
    geometry: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "geometry": dict(self.geometry),
            "bounds": [b.as_dict() for b in self.bounds],
            "best": None if self.best is None else self.bounds.index(self.best),
            "best_value": None if self.best is None else self.best.value,
            "improves_on_payne_weinberger": self.pw_comparison,
            "notes": list(self.notes),
        }


def best_bound_report(spec: geometry.DomainSpec) -> BoundReport:
    """Assemble all metadata-supported lower bounds for a domain spec.

    The spec is the only input.  d and R come from spec.measurement, taken
    on boundary_loop(spec): a polygon's vertices, or a sampler's
    spec.samples points.  The bounds are evaluated in dimension spec.dim.
    """
    n = spec.dim
    count, d, ball = spec.measurement

    notes: list[str] = []
    entries: list[LowerBound] = []

    # resolve the squared extension norm this domain's metadata supports
    norm_sq: float | None = None
    norm_formula = "extension_ball"
    if spec.norm_sq is not None:
        norm_sq = spec.norm_sq
    elif spec.qc_coefficient is not None and n == 2:
        norm_sq = quasidisc_norm_sq(spec.qc_coefficient).value_sq
        norm_formula = "quasidisc"
    elif spec.star_beta is not None and n == 2:
        norm_sq = quasidisc_norm_sq(qcmaps.star_shaped_K(spec.star_beta)).value_sq
        norm_formula = "quasidisc"
    elif (spec.qc_coefficient is not None or spec.star_beta is not None) and n != 2:
        notes.append("quasidisc metadata ignored: it only applies in dimension 2")

    if spec.star_beta is not None and n == 2:
        value = star_shaped_bound(spec.star_beta, d)
        entries.append(LowerBound(value, "star_shaped", {"n": 2, "d": d, "beta": spec.star_beta}))

    if norm_sq is not None:
        value = extension_ball_bound(norm_sq, ball.radius, n)
        inputs = {"n": n, "R": ball.radius, "norm_sq": norm_sq}
        if norm_formula == "quasidisc":
            inputs["K"] = math.sqrt(norm_sq) - 1.0
        entries.append(LowerBound(value, norm_formula, inputs))

        declared = spec.symmetry_center is not None
        note = ""
        if not declared:
            note = (
                "central symmetry not declared; d/2 convention shown "
                "for comparison with published figures"
            )
            notes.append(
                "symmetric-form bound uses d/2 in place of the enclosing radius; "
                "it competes for best only when a symmetry center is declared"
            )
        sym_value = symmetric_domain_bound(norm_sq, d, n)
        inputs = {"n": n, "d": d, "norm_sq": norm_sq}
        entries.append(LowerBound(sym_value, "symmetric_extension", inputs, declared, note))

    convex = bool(spec.convex)
    pw_note = "" if convex else "convexity not verified; reference only"
    if not convex:
        notes.append("convexity not verified: pi^2/d^2 listed for reference only")
    pw = payne_weinberger_bound(d)
    entries.append(LowerBound(pw, "payne_weinberger", {"n": n, "d": d}, convex, pw_note))

    claims = [e for e in entries if e.applicable]
    best = max(claims or entries, key=lambda e: e.value)  # the first of equal values
    if not claims:
        notes.append("no bound is certified for this domain; best shown is reference only")

    pw_comparison = None if norm_sq is None else improvement_condition(norm_sq, n)

    return BoundReport(
        bounds=entries,
        best=best,
        pw_comparison=pw_comparison,
        notes=notes,
        geometry={
            "dim": n,
            "diameter": d,
            "enclosing_radius": ball.radius,
            "enclosing_center": [float(c) for c in ball.center],
            "boundary_points": count,
        },
    )
