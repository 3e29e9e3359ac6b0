import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import ucesim
from ucesim.cue_ref import sample_haar_unitary
from ucesim.gateset import draw_tape
from ucesim.moment_operator import (
    _HI,
    _LO,
    MC_CHUNK,
    build_moment_operator,
    embed_four_qubit_operator,
    exact_two_copy_average,
    mc_two_copy_average,
    spectral_gap,
)

REFERENCE_GAP = 0.232703


def two_copy_tensor(w):
    return np.kron(np.kron(w, w), np.kron(w.conj(), w.conj()))


def test_embed_matches_direct_kron_both_slots():
    u = sample_haar_unitary(2, np.random.default_rng(0))
    m16 = np.kron(np.kron(u, u), np.kron(u.conj(), u.conj()))
    upper = two_copy_tensor(np.kron(u, np.eye(2)))
    lower = two_copy_tensor(np.kron(np.eye(2), u))
    assert np.allclose(embed_four_qubit_operator(m16, _HI, _LO), upper, atol=1e-13)
    assert np.allclose(embed_four_qubit_operator(m16, _LO, _HI), lower, atol=1e-13)


def test_mc_average_is_the_mean_of_its_tape_draws():
    # More than one batch: the Gram sums, their reorder and the batching
    # against the per-sample definition, on the U(2)s of one tape drawn
    # from the same seed (rng.random fills in order across calls).
    n = MC_CHUNK + 3
    mean, sigma = mc_two_copy_average(n, np.random.default_rng(8))
    u = draw_tape([np.random.default_rng(8)], 1, n, 1.0).matrices()[0]
    m = np.array([two_copy_tensor(w) for w in u])
    assert np.max(np.abs(mean - m.mean(axis=0))) < 1e-15
    var = (np.abs(m) ** 2).mean(axis=0) - np.abs(m.mean(axis=0)) ** 2
    assert sigma == pytest.approx(math.sqrt(var.max() / n), rel=1e-12)


def test_mc_average_of_one_batch_equals_its_16_row_gram_sums():
    # The 10 distinct rows of v (x) v, expanded at the end, against Gram
    # sums of all 16 entries of u (x) u (phase included) on one batch.
    n = MC_CHUNK
    mean, sigma = mc_two_copy_average(n, np.random.default_rng(9))
    u = draw_tape([np.random.default_rng(9)], 1, n, 1.0).matrices()[0]
    x = np.einsum("sab,scd->sacbd", u, u).reshape(n, 16)
    p = np.abs(x) ** 2
    m, m2 = ((s / n).reshape((4,) * 4).transpose(0, 2, 1, 3).reshape(16, 16)
             for s in (x.T @ x.conj(), p.T @ p))
    assert np.max(np.abs(mean - m)) < 1e-15
    var = np.maximum(m2 - np.abs(m) ** 2, 0.0)
    assert sigma == pytest.approx(math.sqrt(var.max() / n), rel=1e-12)


def test_mc_average_does_not_depend_on_blas_threads():
    # The average's bytes are the same at 1 and 2 BLAS threads. The gap
    # is not: eigvalsh rounds differently with the thread count.
    code = ("import sys, numpy as np\n"
            "from ucesim.moment_operator import mc_two_copy_average\n"
            "m, s = mc_two_copy_average(10_000, np.random.default_rng(0))\n"
            "sys.stdout.buffer.write(m.tobytes() + np.float64(s).tobytes())\n")
    src = os.path.dirname(os.path.dirname(ucesim.__file__))
    outs = [subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           env={**os.environ, "PYTHONPATH": src,
                                "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert len(outs[0]) == 16 * 16 * 16 + 8
    assert outs[0] == outs[1]


def test_exact_average_agrees_with_monte_carlo():
    m_mc, sigma = mc_two_copy_average(50_000, np.random.default_rng(1))
    # sigma is the largest per-entry standard error of the mean
    assert np.max(np.abs(m_mc - exact_two_copy_average())) < 6 * sigma


def test_exact_average_equals_weingarten_loop():
    # Entry-by-entry Weingarten weights, row (a, b, c, d) and column (e, f, g, h):
    # 1/3 for matching pairings of both sides, -1/6 for mixed ones.
    ref = np.zeros((16, 16))
    for row, (a, b, c, d) in enumerate(itertools.product(range(2), repeat=4)):
        for col, (e, f, g, h) in enumerate(itertools.product(range(2), repeat=4)):
            rii, rix = (a == c) and (b == d), (a == d) and (b == c)
            cii, cix = (e == g) and (f == h), (e == h) and (f == g)
            ref[row, col] = (rii * cii + rix * cix) / 3.0 - (rii * cix + rix * cii) / 6.0
    assert np.array_equal(exact_two_copy_average(), ref.astype(complex))


def test_exact_gap_and_multiplicity():
    g, sigma = build_moment_operator(exact=True)
    assert sigma == 0.0
    gap, multiplicity = spectral_gap(g)
    assert multiplicity == 2
    assert abs(gap - REFERENCE_GAP) < 1e-5


def test_mc_gap_close_to_exact():
    rng = np.random.default_rng(2)
    g, sigma = build_moment_operator(20_000, rng)
    gap, multiplicity = spectral_gap(g)
    assert multiplicity == 2
    assert abs(gap - REFERENCE_GAP) < 0.01
    exact_gap, _ = spectral_gap(build_moment_operator(exact=True)[0])
    assert abs(gap - exact_gap) <= 4 * sigma  # within 4 computed standard errors


def test_mc_operator_keeps_two_unit_eigenvalues():
    # Their eigenvectors are fixed by every W (x) W (x) conj(W) (x) conj(W),
    # so sampling noise leaves them at 1 and the fixed 1e-9 counts them.
    for seed in range(3):
        g, _ = build_moment_operator(10_000, np.random.default_rng(seed))
        mags = np.sort(np.abs(np.linalg.eigvalsh(0.5 * (g + g.conj().T))))[::-1]
        assert np.all(np.abs(mags[:2] - 1.0) < 1e-12), mags[:3]
        assert mags[2] < 0.9


def test_mc_operator_nearly_hermitian_before_symmetrization():
    rng = np.random.default_rng(3)
    samples = 20_000
    g, _ = build_moment_operator(samples, rng)
    assert np.max(np.abs(g - g.conj().T)) < 5 / math.sqrt(samples)


def test_eigenvalue_magnitudes_bounded_by_one():
    g, sigma = build_moment_operator(20_000, np.random.default_rng(4))
    gs = 0.5 * (g + g.conj().T)
    assert np.max(np.abs(np.linalg.eigvalsh(gs))) < 1.0 + 10 * sigma


def test_sigma_shrinks_with_sample_count():
    _, s_small = mc_two_copy_average(10_000, np.random.default_rng(5))
    _, s_large = mc_two_copy_average(100_000, np.random.default_rng(6))
    assert 2.5 < s_small / s_large < 4.0  # ~ sqrt(10)


def test_identity_gate_set_is_fully_degenerate():
    assert spectral_gap(np.eye(256, dtype=complex)) == (0.0, 256)


def test_constructed_diagonal_spectrum():
    d = np.ones(256) * 0.1
    d[0] = d[1] = 1.0
    d[2] = 0.75
    gap, multiplicity = spectral_gap(np.diag(d).astype(complex))
    assert multiplicity == 2
    assert gap == pytest.approx(0.25)


def test_leading_eigenvalue_always_counts():
    d = np.full(256, 0.5)
    d[0] = 0.9
    assert spectral_gap(np.diag(d).astype(complex)) == (0.5, 1)


def test_full_two_qubit_haar_group_has_unit_gap():
    # gates Haar on the whole 4-dim unitary group: G is a projector, gap 1
    rng = np.random.default_rng(7)
    samples = 5_000
    acc = np.zeros((256, 256), dtype=complex)
    for _ in range(samples):
        acc += two_copy_tensor(sample_haar_unitary(4, rng))
    g = acc / samples
    gap, multiplicity = spectral_gap(g)
    assert multiplicity == 2
    assert gap > 0.8


def test_operator_is_the_sum_of_its_four_gate_terms():
    # The CNOT basis permutations against two_copy_tensor of the 4x4 CNOTs on
    # |hi, lo> (index 2*hi + lo), summed in build_moment_operator's order.
    c_hi = np.eye(4)[[0, 1, 3, 2]]  # hi controls lo
    c_lo = np.eye(4)[[0, 3, 2, 1]]  # lo controls hi
    rng = np.random.default_rng(4)
    mc = [mc_two_copy_average(20_000, rng)[0] for _ in range(2)]
    cases = [(build_moment_operator(exact=True)[0], [exact_two_copy_average()] * 2),
             (build_moment_operator(20_000, np.random.default_rng(4))[0], mc)]
    for g, (m_hi, m_lo) in cases:
        t_hi = embed_four_qubit_operator(m_hi, _HI, _LO)
        t_lo = embed_four_qubit_operator(m_lo, _LO, _HI)
        assert np.array_equal(
            g, 0.25 * (t_hi + t_lo + two_copy_tensor(c_hi) + two_copy_tensor(c_lo)))


def test_mc_sample_count_guard():
    with pytest.raises(ValueError):
        build_moment_operator(100, np.random.default_rng(0))
