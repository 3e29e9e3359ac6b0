import math

import numpy as np
import pytest

from ucesim.cue_ref import (
    cue_bin_mass,
    cue_correlator,
    cue_log_density,
    cue_moment,
    sample_haar_first_columns,
    sample_haar_unitary,
)


def test_density_n2_at_zero():
    assert cue_log_density(0.0, 2) == pytest.approx(0.5)


def test_density_vanishes_at_minus_infinity_and_above_support():
    assert cue_log_density(-1e6, 16) == pytest.approx(0.0, abs=1e-300)
    assert cue_log_density(-math.inf, 16) == 0.0
    assert cue_log_density(math.log(16) + 0.1, 16) == 0.0


def test_density_normalization_by_quadrature():
    for n in (2, 16, 1024):
        grid = np.linspace(math.log(n) - 40, math.log(n), 400_001)
        integral = np.trapezoid(cue_log_density(grid, n), grid)
        assert abs(integral - 1.0) < 1e-8


def test_bin_mass_closed_form_against_quadrature():
    # antiderivative check before trusting the CDF form
    for n in (2, 8, 64):
        for lo, hi in [(-3.0, -1.0), (-1.0, 0.5), (math.log(n) - 2, math.log(n))]:
            hi = min(hi, math.log(n))
            grid = np.linspace(lo, hi, 200_001)
            quad = np.trapezoid(cue_log_density(grid, n), grid)
            assert abs(cue_bin_mass(lo, hi, n) - quad) < 1e-8


def test_bin_mass_full_support_and_half_point():
    for n in (2, 4, 1024):
        assert cue_bin_mass(-math.inf, math.log(n), n) == pytest.approx(1.0)
    assert cue_bin_mass(-math.inf, 0.0, 2) == pytest.approx(0.5)


def test_bin_mass_partition_telescopes():
    n = 16
    edges = np.concatenate([[-math.inf], np.linspace(math.log(n) - 25, math.log(n), 300)])
    masses = [cue_bin_mass(a, b, n) for a, b in zip(edges[:-1], edges[1:])]
    assert abs(sum(masses) - 1.0) < 1e-12


def test_moment_first_is_one_exactly():
    for j in range(1, 21):
        assert cue_moment(1, 2 ** j) == 1.0


def test_moment_derived_values():
    assert cue_moment(2, 4) == pytest.approx(1.6, abs=1e-15)
    assert abs(cue_moment(2, 2 ** 20) - 2.0) < 1e-4


def test_moment_monotone_in_n_bounded_by_k_factorial():
    for k in range(2, 9):
        prev = 0.0
        for n in (2, 4, 8, 32, 128, 1024):
            mu = cue_moment(k, n)
            assert prev < mu < math.factorial(k)
            prev = mu


def test_correlator_values_and_identity():
    for n in (2, 7, 100):
        assert cue_correlator(1, n) == pytest.approx(1.0)
    assert cue_correlator(2, 4) == pytest.approx(0.8, abs=1e-15)
    mu8 = cue_moment(8, 1024)
    assert cue_correlator(8, 1024) == pytest.approx(mu8 / math.factorial(8), rel=1e-12)


def test_moment_validation():
    with pytest.raises(ValueError):
        cue_moment(0, 4)
    with pytest.raises(ValueError):
        cue_moment(2, 1)


def test_haar_unitary_n1_is_phase():
    u = sample_haar_unitary(1, np.random.default_rng(0))
    assert u.shape == (1, 1)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_haar_unitary_unitarity():
    rng = np.random.default_rng(1)
    for n in (2, 4, 16, 64):
        u = sample_haar_unitary(n, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(n))) < 1e-12


def test_haar_unitary_size_guard():
    with pytest.raises(ValueError):
        sample_haar_unitary(128, np.random.default_rng(0))


def test_haar_first_element_moments():
    rng = np.random.default_rng(2)
    n_draws = 20_000
    y = np.array([4 * abs(sample_haar_unitary(4, rng)[0, 0]) ** 2
                  for _ in range(n_draws)])
    se1 = y.std() / math.sqrt(n_draws)
    assert abs(y.mean() - 1.0) < 3 * se1
    y2 = y ** 2
    se2 = y2.std() / math.sqrt(n_draws)
    assert abs(y2.mean() - cue_moment(2, 4)) < 3 * se2


def test_haar_left_invariance_of_first_column_moments():
    # distribution of |(V U)_{11}|^2 matches |U_{11}|^2 for fixed V
    rng = np.random.default_rng(3)
    v = sample_haar_unitary(4, rng)
    n_draws = 20_000
    y = np.array([4 * abs((v @ sample_haar_unitary(4, rng))[0, 0]) ** 2
                  for _ in range(n_draws)])
    se = y.std() / math.sqrt(n_draws)
    assert abs(y.mean() - 1.0) < 3 * se


def test_haar_first_column_matches_unitary_column_distribution():
    rng = np.random.default_rng(4)
    n_draws = 20_000
    cols = sample_haar_first_columns(n_draws, 8, rng)
    y = 8 * np.abs(cols) ** 2
    mean2 = (y ** 2).mean()
    se = (y ** 2).std() / math.sqrt(y.size)
    # column normalization forces the per-column mean of y to be exactly 1
    assert np.allclose(y.mean(axis=1), 1.0, atol=1e-12)
    assert abs(mean2 - cue_moment(2, 8)) < 5 * se


def test_haar_first_columns_equal_per_column_draws():
    # The block draw takes the same normals in the same order as one column
    # per call, and its norm rounds as np.linalg.norm of each column: the
    # same bits.
    for seed, rows in ((0, 300), (7, 300), (11, 2000)):
        for n in (1, 4, 8, 16, 64):
            rng = np.random.default_rng(seed)
            want = []
            for _ in range(rows):
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                want.append(z / np.linalg.norm(z))
            got = sample_haar_first_columns(rows, n, np.random.default_rng(seed))
            assert got.shape == (rows, n)
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64)), (seed, n)
