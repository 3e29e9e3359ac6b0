import math

import numpy as np
import pytest

from ucesim.ensemble_stats import ConvergenceCurve, StatisticKind
from ucesim.scaling import MODELS, FitResult, NStarPoint, fit_model, n_star


def make_curve(points, d_min=math.nan):
    curve = ConvergenceCurve(n_q=4, statistic=StatisticKind.parse("mu2"),
                             points=list(points), n_r=1000, master_seed=0)
    curve.d_min = d_min
    return curve


def test_n_star_interpolates_crossing():
    curve = make_curve([(5, 0.5), (10, 0.2), (20, 0.05), (50, 0.04), (100, 0.041)],
                       d_min=0.04)
    ns = n_star(curve, 0.1, guard_factor=2.0)
    assert ns is not None
    assert 10 < ns <= 20
    # exact linear interpolation: 10 + 0.1/0.15 * 10 = 16.66..., rounded up
    assert ns == 17


def test_n_star_guard_rule():
    curve = make_curve([(5, 0.5), (10, 0.2), (20, 0.05), (50, 0.04)], d_min=0.04)
    assert n_star(curve, 0.05, guard_factor=2.0) is None


def test_n_star_no_crossing():
    curve = make_curve([(5, 0.5), (10, 0.4), (20, 0.35), (50, 0.30)], d_min=0.0)
    assert n_star(curve, 0.1) is None


def test_n_star_exponential_inversion():
    pts = [(n, math.exp(-n / 10)) for n in range(1, 101)]
    curve = make_curve(pts, d_min=0.0)
    assert n_star(curve, math.exp(-1)) == 10


def test_n_star_monotone_in_eps():
    curve = make_curve([(n, math.exp(-n / 7)) for n in range(1, 80)], d_min=0.0)
    values = [n_star(curve, eps) for eps in (0.5, 0.2, 0.1, 0.05, 0.02)]
    assert all(v is not None for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_n_star_validation():
    curve = make_curve([(5, 0.5)], d_min=0.0)
    with pytest.raises(ValueError):
        n_star(curve, -1.0)
    with pytest.raises(ValueError):
        n_star(curve, 0.1, guard_factor=0.5)


def test_fit_recovers_exact_linear_data():
    pts = [NStarPoint(n_q=nq, ln_eps=-2.0, n_star=2 * nq + 3) for nq in range(2, 10)]
    fit = fit_model(pts, "f1")
    assert fit.a == pytest.approx(2.0, abs=1e-10)
    assert fit.b == pytest.approx(3.0, abs=1e-9)
    assert fit.chi2 < 1e-12


def test_fit_recovers_f2_synthetic_exactly():
    eps = math.exp(-3.0)
    pts = [NStarPoint(n_q=nq, ln_eps=-3.0,
                      n_star=0.2 * nq * math.log(nq / eps) + 1.0)
           for nq in range(2, 11)]
    fit = fit_model(pts, "f2")
    assert fit.a == pytest.approx(0.2, abs=1e-8)
    assert fit.b == pytest.approx(1.0, abs=1e-8)
    assert fit.chi2 < 1e-12


def test_model_mismatch_has_larger_chi2():
    eps = math.exp(-3.0)
    pts = [NStarPoint(n_q=nq, ln_eps=-3.0,
                      n_star=0.2 * nq * math.log(nq / eps) + 1.0)
           for nq in range(2, 11)]
    chi_f2 = fit_model(pts, "f2").chi2
    assert chi_f2 < fit_model(pts, "f3").chi2
    assert chi_f2 < fit_model(pts, "f1").chi2


def test_fit_residuals_orthogonal_to_design():
    pts = [NStarPoint(n_q=nq, ln_eps=-1.0, n_star=3 * nq + nq % 3 + 1)
           for nq in range(2, 12)]
    fit = fit_model(pts, "f1")
    x = np.array([p.n_q for p in pts], float)
    y = np.array([p.n_star for p in pts], float)
    resid = y - fit.a * x - fit.b
    assert abs(resid.sum()) < 1e-9
    assert abs(np.dot(resid, x)) < 1e-8


def test_fit_validation():
    pts = [NStarPoint(n_q=3, ln_eps=-1.0, n_star=5)] * 4
    with pytest.raises(ValueError):
        fit_model(pts, "f1")  # degenerate regressor
    mixed = [NStarPoint(n_q=2, ln_eps=-1.0, n_star=4),
             NStarPoint(n_q=3, ln_eps=-2.0, n_star=6),
             NStarPoint(n_q=4, ln_eps=-1.0, n_star=8)]
    with pytest.raises(ValueError):
        fit_model(mixed, "f1")
    with pytest.raises(ValueError):
        fit_model(mixed[:2], "f1")


def test_fits_per_eps_group_shape_and_f2_stability():
    rows = []
    for ln_eps in (-1.0, -2.0, -3.0):
        eps = math.exp(ln_eps)
        pts = [NStarPoint(n_q=nq, ln_eps=ln_eps,
                          n_star=max(1, int(round(4 * nq * math.log(nq / eps)))))
               for nq in range(2, 12)]
        rows += [fit_model(pts, model) for model in MODELS]
    assert len(rows) == 9  # 3 models x 3 eps values
    a2 = [r.a for r in rows if r.model == "f2"]
    assert max(a2) - min(a2) < 0.05  # a2 stable across eps on f2 data
    a1 = [r.a for r in sorted(rows, key=lambda r: -r.ln_eps) if r.model == "f1"]
    assert a1[0] < a1[1] < a1[2]  # f1 slope absorbs ln(1/eps)
