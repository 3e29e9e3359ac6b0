import math

import numpy as np
import pytest

from ucesim.runner import geometric_checkpoints
from ucesim.scaling import MODELS, fit_model, n_star, saturation_floor


def test_n_star_interpolates_crossing():
    # floor 0.0405, the median of the last two points, is under eps / 2
    points = [(5, 0.5), (10, 0.2), (20, 0.05), (50, 0.04), (100, 0.041)]
    ns = n_star(points, 0.1)
    assert ns is not None
    assert 10 < ns <= 20
    # linear in ln D: 10 + ln(0.2/0.1) / ln(0.2/0.05) * 10 = 15 (16.66...,
    # rounded up to 17, linear in D)
    assert ns == 15


def test_n_star_interpolates_in_ln_d():
    # D = e^(-g/10) on the sqrt(2) grid crosses e^(-7.75) at g = 77.5,
    # between checkpoints 64 and 91; a chord in D would give 86.
    cps = geometric_checkpoints(10)
    assert (64, 91) in zip(cps, cps[1:])
    points = [(g, math.exp(-g / 10)) for g in cps]
    assert n_star(points, math.exp(-7.75)) == 78


def test_n_star_crossing_onto_zero_is_linear_in_d():
    assert n_star([(5, 0.5), (10, 0.0)], 0.1) == 9


def test_n_star_guard_rule():
    points = [(5, 0.5), (10, 0.2), (20, 0.05), (50, 0.04)]  # floor 0.04
    assert n_star(points, 0.05) is None


def test_n_star_no_guard_below_four_points():
    # Three points have no floor estimate, so only the crossing decides.
    points = [(5, 0.5), (10, 0.05), (20, 0.04)]
    assert n_star(points, 0.05) == 10
    assert n_star([*points, (50, 0.04)], 0.05) is None


def test_n_star_no_crossing():
    points = [(5, 0.5), (10, 0.4), (20, 0.35)]  # too short for a floor guard
    assert n_star(points, 0.1) is None


def test_n_star_exponential_inversion():
    points = [(n, math.exp(-n / 10)) for n in range(1, 101)]
    assert n_star(points, math.exp(-1)) == 10


def test_n_star_monotone_in_eps():
    points = [(n, math.exp(-n / 7)) for n in range(1, 80)]
    values = [n_star(points, eps) for eps in (0.5, 0.2, 0.1, 0.05, 0.02)]
    assert all(v is not None for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_n_star_validation():
    points = [(5, 0.5)]
    with pytest.raises(ValueError):
        n_star(points, -1.0)


def test_fit_recovers_exact_linear_data():
    pairs = [(nq, 2 * nq + 3) for nq in range(2, 10)]
    a, b, chi2 = fit_model(pairs, -2.0, "f1")
    assert a == pytest.approx(2.0, abs=1e-10)
    assert b == pytest.approx(3.0, abs=1e-9)
    assert chi2 < 1e-12


def f2_pairs(ln_eps=-3.0):
    eps = math.exp(ln_eps)
    return [(nq, 0.2 * nq * math.log(nq / eps) + 1.0) for nq in range(2, 11)]


def test_fit_recovers_f2_synthetic_exactly():
    a, b, chi2 = fit_model(f2_pairs(), -3.0, "f2")
    assert a == pytest.approx(0.2, abs=1e-8)
    assert b == pytest.approx(1.0, abs=1e-8)
    assert chi2 < 1e-12


def test_model_mismatch_has_larger_chi2():
    pairs = f2_pairs()
    chi_f2 = fit_model(pairs, -3.0, "f2")[2]
    assert chi_f2 < fit_model(pairs, -3.0, "f3")[2]
    assert chi_f2 < fit_model(pairs, -3.0, "f1")[2]


def test_fit_residuals_orthogonal_to_design():
    pairs = [(nq, 3 * nq + nq % 3 + 1) for nq in range(2, 12)]
    a, b, _ = fit_model(pairs, -1.0, "f1")
    x, y = np.array(pairs, float).T
    resid = y - a * x - b
    assert abs(resid.sum()) < 1e-9
    assert abs(np.dot(resid, x)) < 1e-8


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_model([(3, 5)] * 4, -1.0, "f1")  # degenerate regressor
    pairs = [(2, 4), (3, 6), (4, 8)]
    with pytest.raises(ValueError):
        fit_model(pairs[:2], -1.0, "f1")  # fewer than 3 points
    with pytest.raises(ValueError):
        fit_model([*pairs, (5, 0.5)], -1.0, "f1")  # n* below 1
    with pytest.raises(ValueError):
        fit_model(pairs, -1.0, "f4")


def test_fits_per_eps_group_shape_and_f2_stability():
    fits = {}
    for ln_eps in (-1.0, -2.0, -3.0):
        eps = math.exp(ln_eps)
        pairs = [(nq, max(1, int(round(4 * nq * math.log(nq / eps)))))
                 for nq in range(2, 12)]
        for model in MODELS:
            fits[model, ln_eps] = fit_model(pairs, ln_eps, model)
    assert len(fits) == 9  # 3 models x 3 eps values
    a2 = [fits["f2", ln_eps][0] for ln_eps in (-1.0, -2.0, -3.0)]
    assert max(a2) - min(a2) < 0.05  # a2 stable across eps on f2 data
    a1 = [fits["f1", ln_eps][0] for ln_eps in (-1.0, -2.0, -3.0)]
    assert a1[0] < a1[1] < a1[2]  # f1 slope absorbs ln(1/eps)


def test_saturation_floor_is_numpys_median_of_the_tail():
    # The floor's median is taken in plain Python, bit-equal to np.median
    # on tails of odd and even length.
    rng = np.random.default_rng(3)
    for tail in (1, 2, 3, 4, 7, 10, 31, 64):
        for _ in range(20):
            d = (rng.random(tail) * 10.0 ** rng.integers(-8, 3)).tolist()
            points = [(g, 1.0) for g in range(3 * tail)]
            points += [(3 * tail + g, v) for g, v in enumerate(d)]
            assert saturation_floor(points) == float(np.median(d)), d
