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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import qcmaps
from .errors import NumericalError, check_real
from .extension_norms import quasidisc_norm_sq
from .special import p_zero

if TYPE_CHECKING:  # geometry loads NumPy, which half_ball's bound formulas never need
    from . import geometry


def _squared_ratio(c: float, size: float) -> float:
    """(c / size)^2 as a product: unlike pow, it scales exactly with size by powers of two."""
    ratio = c / size
    if ratio * ratio == math.inf:
        raise NumericalError(f"mu_1 of a domain of size {size:.3g} is beyond the float range")
    return ratio * ratio


def ball_mu1(n: int, radius: float) -> float:
    """First nontrivial Neumann eigenvalue of a ball of given radius in R^n."""
    radius = check_real("radius", radius, 0, strict=True)
    return _squared_ratio(p_zero(n), radius)


def extension_ball_bound(norm_sq: float, radius: float, n: int) -> float:
    """mu_1 >= p_{n/2}^2 / (||E||^2 R^2) from an extension into a ball of radius R."""
    norm_sq = check_real("norm_sq", norm_sq, 1)
    return ball_mu1(n, radius) / norm_sq


def symmetric_domain_bound(norm_sq: float, diam: float, n: int) -> float:
    """The d/2 variant for centrally symmetric domains: (p/d)^2 (2/||E||)^2."""
    norm_sq = check_real("norm_sq", norm_sq, 1)
    diam = check_real("diameter", diam, 0, strict=True)
    return _squared_ratio(p_zero(n), diam) * (4.0 / norm_sq)


def star_shaped_bound(beta: float, diam: float) -> float:
    """Planar beta-star-shaped domain: mu_1 >= 4 sin^4((1-beta) pi/4) (p_1/d)^2."""
    diam = check_real("diameter", diam, 0, strict=True)
    beta = check_real("beta", beta, 0, 1)
    s = math.sin(0.25 * math.pi * (1.0 - beta))
    return 4.0 * s**4 * _squared_ratio(p_zero(2), diam)


def payne_weinberger_bound(diam: float) -> float:
    """Classical convex-domain bound pi^2 / d^2 (not valid without convexity)."""
    return _squared_ratio(math.pi, check_real("diameter", diam, 0, strict=True))


def improvement_condition(norm_sq: float, n: int) -> bool:
    """Whether the symmetric extension bound beats pi^2/d^2: ||E|| <= 2 p_{n/2} / pi."""
    return math.sqrt(check_real("norm_sq", norm_sq, 1)) <= 2.0 * p_zero(n) / math.pi


# ---------------------------------------------------------------------------
# report assembly


def _entry(value: float, formula: str, inputs: dict, applicable: bool = True, note: str = "") -> dict:
    """One listed bound as the CLI prints it; note only when there is one."""
    entry = {"value": value, "formula": formula, "inputs": inputs, "applicable": applicable}
    if note:
        entry["note"] = note
    return entry


@dataclass(frozen=True)
class BoundReport:
    """Every bound the metadata supports, as the dicts the CLI prints, plus the headline choice.

    An entry has value, formula, inputs, applicable, and note when there is
    one.  An applicable entry is a claim about this domain, so it must sit
    below any trustworthy mu_1; the rest, like pi^2/d^2 on a domain not
    declared convex, are for reference.  best indexes the largest claim, or
    the largest entry when none applies."""

    bounds: list[dict]
    best: int
    improves_on_payne_weinberger: bool | None
    notes: list[str]
    geometry: dict

    def as_dict(self) -> dict:
        """The report in fresh containers, so changing them leaves the report as it is."""
        return {
            "geometry": {**self.geometry, "enclosing_center": list(self.geometry["enclosing_center"])},
            "bounds": [{**b, "inputs": dict(b["inputs"])} for b in self.bounds],
            "best": self.best,
            "best_value": self.bounds[self.best]["value"],
            "improves_on_payne_weinberger": self.improves_on_payne_weinberger,
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
    entries: list[dict] = []

    # resolve the squared extension norm this domain's metadata supports
    norm_sq, norm_formula, qc = spec.norm_sq, "extension_ball", spec.qc_coefficient
    quasidisc = qc is not None or spec.star_beta is not None
    if norm_sq is None and quasidisc and n == 2:
        qc = qcmaps.star_shaped_K(spec.star_beta) if qc is None else qc
        norm_sq, norm_formula = quasidisc_norm_sq(qc).value_sq, "quasidisc"
    elif norm_sq is None and quasidisc:
        notes.append("quasidisc metadata ignored: it only applies in dimension 2")

    if spec.star_beta is not None and n == 2:
        inputs = {"n": 2, "d": d, "beta": spec.star_beta}
        entries.append(_entry(star_shaped_bound(spec.star_beta, d), "star_shaped", inputs))

    if norm_sq is not None:
        inputs = {"n": n, "R": ball.radius, "norm_sq": norm_sq}
        if norm_formula == "quasidisc":
            inputs["K"] = math.sqrt(norm_sq) - 1.0
        entries.append(_entry(extension_ball_bound(norm_sq, ball.radius, n), norm_formula, inputs))

        declared = spec.symmetry_center is not None
        if not declared:
            notes.append(
                "symmetric-form bound uses d/2 in place of the enclosing radius; "
                "it competes for best only when a symmetry center is declared"
            )
        note = "" if declared else (
            "central symmetry not declared; d/2 convention shown for comparison with published figures"
        )
        value, inputs = symmetric_domain_bound(norm_sq, d, n), {"n": n, "d": d, "norm_sq": norm_sq}
        entries.append(_entry(value, "symmetric_extension", inputs, declared, note))

    convex = bool(spec.convex)
    if not convex:
        notes.append("convexity not verified: pi^2/d^2 listed for reference only")
    note = "" if convex else "convexity not verified; reference only"
    entries.append(_entry(payne_weinberger_bound(d), "payne_weinberger", {"n": n, "d": d}, convex, note))

    claims = [i for i, e in enumerate(entries) if e["applicable"]]
    best = max(claims or range(len(entries)), key=lambda i: entries[i]["value"])  # first of ties
    if not claims:
        notes.append("no bound is certified for this domain; best shown is reference only")

    return BoundReport(
        bounds=entries,
        best=best,
        improves_on_payne_weinberger=None if norm_sq is None else improvement_condition(norm_sq, n),
        notes=notes,
        geometry={
            "dim": n,
            "diameter": d,
            "enclosing_radius": ball.radius,
            "enclosing_center": [float(c) for c in ball.center],
            "boundary_points": count,
        },
    )
