"""Eigenvalue lower bounds: scalar formulas, identities, and domain reports."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from neubound import NumericalError, bounds, geometry, qcmaps
from neubound.special import p_zero
from oracles import quasi_monotonicity_upper, quasidisc_bound


def test_ball_eigenvalue():
    p = p_zero(2)
    assert bounds.ball_mu1(2, 1.0) == pytest.approx(p * p, rel=1e-14)
    # scaling law mu_1(B_R) = mu_1(B_1) / R^2
    for n in (2, 3, 5):
        base = bounds.ball_mu1(n, 1.0)
        assert bounds.ball_mu1(n, 2.5) == pytest.approx(base / 2.5**2, rel=1e-14)


def test_extension_bound_is_tight_for_the_ball_itself():
    for n in (2, 3, 4):
        assert bounds.extension_ball_bound(1.0, 1.0, n) == pytest.approx(
            bounds.ball_mu1(n, 1.0), rel=1e-14
        )


def test_symmetric_form_is_half_diameter_substitution():
    rng = np.random.default_rng(31)
    for _ in range(200):
        norm_sq = float(rng.uniform(1.0, 30.0))
        diam = float(rng.uniform(0.1, 20.0))
        n = int(rng.integers(2, 9))
        lhs = bounds.symmetric_domain_bound(norm_sq, diam, n)
        rhs = bounds.extension_ball_bound(norm_sq, 0.5 * diam, n)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_star_bound_is_quasidisc_bound_at_half_diameter():
    rng = np.random.default_rng(37)
    for _ in range(200):
        beta = float(rng.uniform(0.0, 0.99))
        diam = float(rng.uniform(0.1, 20.0))
        lhs = bounds.star_shaped_bound(beta, diam)
        rhs = quasidisc_bound(qcmaps.star_shaped_K(beta), 0.5 * diam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_payne_weinberger_value():
    assert bounds.payne_weinberger_bound(2.0) == pytest.approx(math.pi**2 / 4.0, rel=1e-15)
    assert bounds.payne_weinberger_bound(1.0) == pytest.approx(math.pi**2, rel=1e-15)


def test_improvement_condition_threshold():
    # mirror-reflected half-ball: better than pi^2/d^2 from dimension 4 on
    assert not bounds.improvement_condition(2.0, 3)
    for n in range(4, 9):
        assert bounds.improvement_condition(2.0, n)
    # a perfect extension always qualifies
    assert bounds.improvement_condition(1.0, 2)


def test_quasi_monotonicity_upper():
    assert quasi_monotonicity_upper(3.0, 2.0) == pytest.approx(6.0, rel=1e-15)


def test_scalar_validation():
    with pytest.raises(ValueError):
        bounds.extension_ball_bound(0.9, 1.0, 2)  # norms are >= 1
    with pytest.raises(ValueError):
        bounds.extension_ball_bound(2.0, 0.0, 2)
    with pytest.raises(ValueError):
        bounds.extension_ball_bound(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        quasidisc_bound(0.5, 1.0)
    with pytest.raises(ValueError):
        bounds.star_shaped_bound(1.0, 2.0)
    with pytest.raises(ValueError):
        bounds.payne_weinberger_bound(-1.0)


def test_bowtie_report():
    report = bounds.best_bound_report(geometry.named_domain("bowtie"))
    by_formula = {b["formula"]: b for b in report.bounds}

    assert by_formula["quasidisc"]["value"] == pytest.approx(0.3729164046576486, rel=1e-9)
    assert by_formula["quasidisc"]["applicable"]

    sym = by_formula["symmetric_extension"]
    assert sym["value"] == pytest.approx(0.4143515607307206, rel=1e-9)
    assert not sym["applicable"]  # no symmetry center declared: reference only

    pw = by_formula["payne_weinberger"]
    assert not pw["applicable"]

    assert report.bounds[report.best]["formula"] == "quasidisc"
    assert report.improves_on_payne_weinberger is False


def test_the_quasidisc_entry_reports_the_k_its_bound_used():
    # sqrt((1 + K)^2) - 1 is one ulp off K for about one K in nine: for beta = 0.1 it read
    # 1.3708887064659212 where K is 1.3708887064659214
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    rng = np.random.default_rng(20171016)
    requests = [{"beta": 0.1}] + [{"K": float(k)} for k in rng.uniform(1.0, 11.0, 200)]
    for meta in requests:
        report = bounds.best_bound_report(geometry.load_domain_spec({"kind": "polygon", "vertices": square, **meta}))
        (entry,) = (b for b in report.bounds if b["formula"] == "quasidisc")
        k = meta.get("K", qcmaps.star_shaped_K(meta.get("beta", 0.0)))
        assert entry["inputs"]["K"] == k
        assert (1.0 + k) ** 2 == entry["inputs"]["norm_sq"]
    assert qcmaps.star_shaped_K(0.1) == 1.3708887064659214


def test_declared_symmetry_makes_the_symmetric_form_a_claim():
    spec = geometry.load_domain_spec(
        {"kind": "named", "name": "bowtie", "symmetry_center": [0.0, 0.5]}
    )
    report = bounds.best_bound_report(spec)
    formulas = [b["formula"] for b in report.bounds]
    sym = report.bounds[formulas.index("symmetric_extension")]
    assert sym["applicable"] and "note" not in sym
    assert report.best == formulas.index("symmetric_extension")


def test_unit_disc_report():
    report = bounds.best_bound_report(geometry.named_domain("unit_disc"))
    by_formula = {b["formula"]: b for b in report.bounds}
    assert by_formula["quasidisc"]["value"] == pytest.approx(
        p_zero(2) ** 2 / 4.0, rel=1e-4
    )
    best = report.bounds[report.best]
    assert best["formula"] == "payne_weinberger"
    assert best["value"] == pytest.approx(math.pi**2 / 4.0, rel=1e-4)


def test_half_disc_report():
    report = bounds.best_bound_report(geometry.named_domain("half_disc"))
    by_formula = {b["formula"]: b for b in report.bounds}
    # mirror reflection norm 2 against the enclosing unit disc
    assert by_formula["extension_ball"]["value"] == pytest.approx(
        p_zero(2) ** 2 / 2.0, rel=1e-4
    )
    assert report.bounds[report.best]["formula"] == "payne_weinberger"


def test_tan_disc_report():
    report = bounds.best_bound_report(geometry.named_domain("tan_disc"))
    best = report.bounds[report.best]
    assert best["formula"] == "star_shaped"
    # with the analytically known diameter 2 tan(1)
    want = 4.0 * math.sin(math.pi / 8.0) ** 4 * (p_zero(2) / (2.0 * math.tan(1.0))) ** 2
    assert best["value"] == pytest.approx(want, rel=1e-3)


# each sampler preset's formulas in report order, and its best formula by
# dimension: half_disc's reflection norm 2 beats pi^2/d^2 from n = 4 on
_SAMPLER_REPORTS = {
    "unit_disc": (("quasidisc", "symmetric_extension", "payne_weinberger"), {2: "payne_weinberger"}),
    "tan_disc": (
        ("star_shaped", "quasidisc", "symmetric_extension", "payne_weinberger"),
        {2: "star_shaped"},
    ),
    "half_disc": (
        ("extension_ball", "symmetric_extension", "payne_weinberger"),
        {n: "payne_weinberger" if n < 4 else "extension_ball" for n in range(2, 9)},
    ),
}


_SAMPLER_DIMS = st.sampled_from(sorted(_SAMPLER_REPORTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.sampled_from(sorted(_SAMPLER_REPORTS[name][1])))
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(name_dim=_SAMPLER_DIMS, samples=st.integers(3, 4096))
# the preset counts: even, so a sample pair spans a diameter and two entries
# can be equal in value
@example(name_dim=("unit_disc", 2), samples=256)
@example(name_dim=("tan_disc", 2), samples=4096)
@example(name_dim=("half_disc", 2), samples=256)
def test_listed_formulas_do_not_depend_on_the_sample_count(name_dim, samples):
    name, dim = name_dim
    formulas, best_by_dim = _SAMPLER_REPORTS[name]
    report = bounds.best_bound_report(geometry.named_domain(name, samples=samples, dim=dim))
    assert tuple(b["formula"] for b in report.bounds) == formulas
    assert type(report.best) is int
    assert report.bounds[report.best]["formula"] == best_by_dim[dim]


def test_ties_for_best_go_to_the_first_entry_listed():
    # a parallelogram's enclosing circle has its long diagonal as diameter,
    # so d = 2R exactly and, at K = 1, the symmetric form equals the
    # quasidisc entry; both stay listed and the first one wins
    parallelogram = [[0, 0], [4, 0], [5, 1], [1, 1]]
    spec = geometry.load_domain_spec(
        {"kind": "polygon", "vertices": parallelogram, "K": 1.0, "symmetry_center": [2.5, 0.5]}
    )
    report = bounds.best_bound_report(spec)
    quasidisc, symmetric = report.bounds[:2]
    assert (quasidisc["formula"], symmetric["formula"]) == ("quasidisc", "symmetric_extension")
    assert quasidisc["value"] == symmetric["value"] and symmetric["applicable"]
    assert report.best == 0


def test_report_with_explicit_dimension():
    # half-disc metadata reused in ambient dimension 4 (analytic mode)
    report = bounds.best_bound_report(geometry.named_domain("half_disc", dim=4))
    by_formula = {b["formula"]: b for b in report.bounds}
    assert by_formula["extension_ball"]["value"] == pytest.approx(
        p_zero(4) ** 2 / 2.0, rel=1e-4
    )


def test_report_serializes_to_json():
    report = bounds.best_bound_report(geometry.named_domain("bowtie"))
    payload = report.as_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["best_value"] == payload["best_value"]
    assert back["bounds"][back["best"]]["value"] == payload["best_value"]
    assert {"geometry", "bounds", "best", "best_value",
            "improves_on_payne_weinberger", "notes"} <= set(back)


def test_changing_an_as_dict_result_leaves_the_report_unchanged():
    report = bounds.best_bound_report(geometry.named_domain("bowtie"))
    before = json.dumps(report.as_dict())
    payload = report.as_dict()
    payload["geometry"]["enclosing_center"].append(0.0)
    payload["geometry"]["diameter"] = 0.0
    for entry in payload["bounds"]:
        entry["inputs"]["d"] = -1.0
        entry["value"] = 0.0
    payload["bounds"].clear()
    payload["notes"].append("changed")
    assert json.dumps(report.as_dict()) == before


def test_a_domain_too_small_for_the_float_range_is_a_numerical_error():
    # mu_1 scales as 1/d^2: pi^2/d^2 at d = 1.41e-155 is beyond 1.8e308
    def square(side):
        vertices = [[0, 0], [side, 0], [side, side], [0, side]]
        return geometry.load_domain_spec({"kind": "polygon", "vertices": vertices, "convex": True})

    with pytest.raises(NumericalError, match="^mu_1 of a domain of size 1.41e-155 is beyond the float range$"):
        bounds.best_bound_report(square(1e-155))
    report = bounds.best_bound_report(square(1e-153))
    assert report.bounds[report.best]["value"] == pytest.approx(math.pi**2 / 2e-306, rel=1e-12)


def test_report_without_any_structure():
    # a polygon with no quasidisc/star/norm metadata still reports geometry
    # and the reference-only convex bound
    spec = geometry.load_domain_spec(
        {"kind": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "name": "square"}
    )
    report = bounds.best_bound_report(spec)
    formulas = [b["formula"] for b in report.bounds]
    assert formulas == ["payne_weinberger"]
    assert report.best == 0 and not report.bounds[0]["applicable"]
    assert any("no bound is certified" in note for note in report.notes)


def test_report_with_declared_convexity():
    spec = geometry.load_domain_spec(
        {
            "kind": "polygon",
            "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
            "name": "square",
            "convex": True,
        }
    )
    report = bounds.best_bound_report(spec)
    best = report.bounds[report.best]
    assert best["formula"] == "payne_weinberger"
    assert best["value"] == pytest.approx(math.pi**2 / 2.0, rel=1e-12)
