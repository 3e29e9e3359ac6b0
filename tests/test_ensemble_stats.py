import math
import tracemalloc

import numpy as np
import pytest

from ucesim.column_sim import BLOCK_GROUP, StateColumn, initial_column, simulate_first_column
from ucesim.cue_ref import cue_correlator, cue_moment, sample_haar_first_column
from ucesim.ensemble_stats import (
    ROW_PIECE,
    Histogram,
    ConvergenceCurve,
    StatisticKind,
    correlator_estimate,
    fold_block,
    hellinger_distance,
    intensities,
    log_intensities,
    mean_over_states,
    moment_estimate,
    relative_deviation,
    saturation_floor,
)
from ucesim.gateset import EnsembleConfig, sample_circuit
from ucesim.runner import run_ensemble


def uniform_state(n_q):
    n = 1 << n_q
    return StateColumn(n_q, np.full(n, 1 / math.sqrt(n), dtype=complex))


def haar_states(n_q, count, seed):
    rng = np.random.default_rng(seed)
    n = 1 << n_q
    return [StateColumn(n_q, sample_haar_first_column(n, rng)) for _ in range(count)]


class _StubHist:
    """Duck-typed histogram with prescribed masses, for formula checks."""

    def __init__(self, emp, ref):
        self.emp = np.asarray(emp, float)
        self.ref = np.asarray(ref, float)

    def empirical_masses(self):
        return self.emp

    def cue_masses(self):
        return self.ref


def test_statistic_kind_labels_roundtrip():
    for label in ("pl", "mu1", "mu8", "c2", "mu4x3"):
        assert StatisticKind.parse(label).label == label
    with pytest.raises(ValueError):
        StatisticKind.parse("mu9")
    with pytest.raises(ValueError):
        StatisticKind.parse("bogus")


def test_log_intensities_uniform_and_e0():
    assert np.allclose(log_intensities(uniform_state(3)), 0.0, atol=1e-14)
    l = log_intensities(initial_column(2))
    assert l[0] == pytest.approx(math.log(4))
    assert np.all(np.isneginf(l[1:]))


def test_log_intensities_bounded_by_ln_n():
    for state in haar_states(4, 50, 0):
        assert np.max(log_intensities(state)) <= math.log(16) + 1e-9


def test_histogram_accumulate_basics():
    hist = Histogram(16)
    hist.add([])
    assert hist.total == 0
    hist.add([math.log(16) - 1e-6])
    assert hist.counts[-1] == 1
    hist.add([-math.inf, hist.l_min - 5.0])
    assert hist.counts[0] == 2
    assert hist.total == 3


def test_histogram_bin_counts_edge_cases_match_np_histogram():
    # Every edge and its neighbours among 2 * BLOCK_GROUP uniform values,
    # shuffled and binned in one call.
    for n in (2, 16, 1024, 1 << 20):
        hist = Histogram(n)
        e = hist.edges
        rng = np.random.default_rng(n)
        values = np.concatenate([
            [-math.inf, hist.l_min - 5.0, hist.ln_n + 1e-10],
            e, np.nextafter(e, -math.inf), np.nextafter(e, math.inf),
            rng.uniform(hist.l_min - 1.0, hist.ln_n, 2 * BLOCK_GROUP),
        ])
        rng.shuffle(values)
        # Reference: underflow below l_min, then np.histogram on [l_min, ln N]
        # with values just above ln N (within tolerance) clipped into the last bin.
        v = np.minimum(values, hist.ln_n)
        under = v < hist.l_min
        expected = np.concatenate([[np.count_nonzero(under)],
                                   np.histogram(v[~under], bins=e)[0]])
        got = hist.bin_counts(values)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), n
    assert np.array_equal(Histogram(4).bin_counts([]), np.zeros(201, dtype=np.int64))


def test_histogram_rejects_values_above_ln_n():
    with pytest.raises(ValueError):
        Histogram(16).add([math.log(16) + 1e-3])


def test_histogram_rejects_nan():
    for values in ([math.nan], np.r_[np.zeros(BLOCK_GROUP + 5), math.nan]):
        with pytest.raises(ValueError, match="NaN"):
            Histogram(16).bin_counts(values)


def test_histogram_cue_masses_sum_to_one():
    for n in (4, 16, 1024):
        assert abs(Histogram(n).cue_masses().sum() - 1.0) < 1e-12


def test_histogram_matches_cue_reference_bin_by_bin():
    n_q, count = 4, 12_500  # 2*10^5 column elements at N = 16
    hist = Histogram(16)
    for state in haar_states(n_q, count, 1):
        hist.add(log_intensities(state))
    expected = hist.total * hist.cue_masses()
    sigma = np.sqrt(hist.total * hist.cue_masses() * (1 - hist.cue_masses()))
    dev = np.abs(hist.counts - expected)
    # +1 count slack: near-empty bins cannot deviate by less than one count
    assert np.all(dev <= 4 * sigma + 1)


def test_hellinger_exact_match_is_zero():
    masses = Histogram(8).cue_masses()
    assert hellinger_distance(_StubHist(masses, masses)) == pytest.approx(0.0)


def test_hellinger_two_bin_toy():
    d = hellinger_distance(_StubHist([0.5, 0.5], [1.0, 0.0]))
    assert d == pytest.approx(2 * (1 - math.sqrt(0.5)), abs=1e-12)
    assert d == pytest.approx(0.585786, abs=1e-6)


def test_hellinger_disjoint_supports_near_two():
    assert hellinger_distance(_StubHist([1.0, 0.0], [0.0, 1.0])) == pytest.approx(2.0)


def test_hellinger_bounds_on_real_histograms():
    hist = Histogram(16)
    for state in haar_states(4, 200, 2):
        hist.add(log_intensities(state))
    assert 0.0 <= hellinger_distance(hist) <= 2.0


def test_hellinger_empty_histogram_raises():
    with pytest.raises(ValueError):
        hellinger_distance(Histogram(4))


def test_moment_estimate_uniform_and_e0():
    for k in (1, 2, 4, 8):
        assert moment_estimate([uniform_state(3)], k) == pytest.approx(1.0)
    assert moment_estimate([initial_column(2)], 2) == pytest.approx(4.0)


def test_moment_estimate_first_moment_exact():
    states = haar_states(4, 50, 3)
    assert moment_estimate(states, 1) == pytest.approx(1.0, abs=1e-12)


def test_moment_estimate_against_haar_oracle():
    states = haar_states(2, 20_000, 4)
    y2 = np.concatenate([(4 * np.abs(s.amplitudes) ** 2) ** 2 for s in states])
    se = y2.std() / math.sqrt(y2.size)
    assert abs(moment_estimate(states, 2) - cue_moment(2, 4)) < 3 * se


def test_moment_estimate_fixed_element():
    states = haar_states(2, 20_000, 5)
    y2 = np.array([(4 * abs(s.amplitudes[1]) ** 2) ** 2 for s in states])
    est = moment_estimate(states, 2, row=1)
    assert est == pytest.approx(y2.mean())
    se = y2.std() / math.sqrt(y2.size)
    assert abs(est - cue_moment(2, 4)) < 3 * se


def test_moment_estimate_empty_stream():
    with pytest.raises(ValueError):
        moment_estimate([], 2)


def test_estimators_take_the_orders_of_the_statistic_labels():
    states = [uniform_state(4)]
    for bad in (
            lambda: moment_estimate(states, 0),
            lambda: moment_estimate(states, 9),
            lambda: moment_estimate(states, 2, row=16),  # N = 16
            lambda: correlator_estimate(states, 9)):
        with pytest.raises(ValueError):
            bad()


def test_correlator_uniform_and_e0():
    for k in (1, 2, 4):
        assert correlator_estimate([uniform_state(3)], k) == pytest.approx(1.0)
    assert correlator_estimate([initial_column(3)], 2) == pytest.approx(0.0)


def test_correlator_equals_moment_at_k1():
    states = haar_states(3, 100, 6)
    assert correlator_estimate(states, 1) == pytest.approx(moment_estimate(states, 1))


def test_correlator_against_haar_oracle():
    states = haar_states(3, 20_000, 7)
    prods = np.concatenate([
        (8 * np.abs(s.amplitudes) ** 2).reshape(4, 2).prod(axis=1) for s in states])
    se = prods.std() / math.sqrt(prods.size)
    assert abs(correlator_estimate(states, 2) - cue_correlator(2, 8)) < 3 * se


def test_correlator_rejects_k_above_n():
    with pytest.raises(ValueError):
        correlator_estimate([initial_column(1)], 4)


def test_relative_deviation():
    assert relative_deviation(1.6, 1.6) == 0.0
    assert relative_deviation(3.2, 1.6) == 1.0
    assert relative_deviation(1.6 * (1 + 1e-3), 1.6) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        relative_deviation(1.0, 0.0)


def test_saturation_floor():
    flat = [(n, 0.04) for n in (5, 10, 20, 50)]
    assert saturation_floor(flat) == pytest.approx(0.04)
    pts = [(n, d) for n, d in zip(range(1, 13),
                                  [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2,
                                   0.1, 0.05, 0.04, 0.041])]
    assert saturation_floor(pts) == pytest.approx(0.041)
    with pytest.raises(ValueError):
        saturation_floor(flat[:3])


def test_saturation_floor_synthetic_decay():
    ngs = np.arange(1, 101)
    pts = [(int(n), 0.03 + math.exp(-n / 5)) for n in ngs]
    assert abs(saturation_floor(pts) - 0.03) < 0.003


def test_convergence_curve_checkpoint_zero_moment():
    cfg = EnsembleConfig(n_q=2, checkpoints=(0, 2), master_seed=1, n_r=5, sizing=None)
    curve = run_ensemble(cfg, ["mu2"])["mu2"]
    assert curve.points[0] == (0, pytest.approx(1.5))  # |4 - 1.6| / 1.6


def test_convergence_curve_qualitative_decrease():
    cfg = EnsembleConfig(n_q=4, checkpoints=(5, 10, 20, 50), master_seed=2,
                         n_r=1000, sizing=None)
    curve = run_ensemble(cfg, ["pl"])["pl"]
    d = [dist for _, dist in curve.points]
    assert all(b < a for a, b in zip(d, d[1:]))
    assert d[-1] <= d[0] / 10


def test_histogram_add_accepts_a_block():
    rng = np.random.default_rng(12)
    cols = np.array([sample_haar_first_column(16, rng) for _ in range(9)])
    cols[2, 3] = 0.0  # an exact zero lands in the underflow bin
    with np.errstate(divide="ignore"):
        block = np.log(intensities(cols, 16))
    one = Histogram(16).add(block)
    rows = Histogram(16)
    for r in range(9):
        rows.add(log_intensities(StateColumn(4, cols[r])))
    assert np.array_equal(one.counts, rows.counts)
    assert one.total == rows.total == 9 * 16
    assert one.counts[0] >= 1


def test_state_sums_of_a_block_equal_per_column_sums():
    rng = np.random.default_rng(13)
    y = intensities(np.array([sample_haar_first_column(32, rng) for _ in range(7)]), 32)
    for label in ("mu1", "mu2", "mu5", "c2", "c3", "c8", "mu3x5"):
        stat = StatisticKind.parse(label)
        sums = stat.state_sum(y)
        assert sums.shape == (7,), label
        for r in range(7):
            assert sums[r] == stat.state_sum(y[r]), label


def test_terms_counts_the_terms_of_a_state_sum():
    # An all-ones column makes every term 1, so each row sums to its term count.
    for label in ("mu1", "mu8", "c2", "c3", "c8", "mu3x5"):
        stat = StatisticKind.parse(label)
        for n in range(8, 2049):
            assert np.array_equal(stat.state_sum(np.ones((3, n))), [stat.terms(n)] * 3), (label, n)
    with pytest.raises(ValueError):
        StatisticKind.parse("pl").terms(8)


def test_run_ensemble_worker_count_invariance():
    cfg = EnsembleConfig(n_q=3, checkpoints=(3, 6, 12, 24), master_seed=3,
                         n_r=300, sizing=None)
    stats = ["pl", "mu2", "c2", "mu2x1"]
    a = run_ensemble(cfg, stats, workers=1)
    b = run_ensemble(cfg, stats, workers=8)
    for label in stats:
        assert a[label].points == b[label].points


def test_run_ensemble_sizing_rule():
    cfg = EnsembleConfig(n_q=5, checkpoints=(2,), master_seed=0, sizing=(10, 8))
    assert cfg.resolved_n_r() == 10 * 2 ** 3
    curve = run_ensemble(cfg, ["mu1"])["mu1"]
    assert curve.n_r == 80
    # first moment is pinned to 1 by normalization regardless of convergence
    assert curve.points[0][1] < 1e-10


def test_run_ensemble_validates_statistics():
    cfg = EnsembleConfig(n_q=2, checkpoints=(2,), master_seed=0, n_r=2, sizing=None)
    with pytest.raises(ValueError):
        run_ensemble(cfg, ["mu2x7"])  # row 7 out of range for N = 4
    with pytest.raises(ValueError):
        run_ensemble(cfg, ["c8"])  # block longer than the column


def test_run_ensemble_equals_reference_path():
    # The runner's curves must equal, bit for bit, the ones built from the
    # oracle-checked sample_circuit -> simulate_first_column path. A scalar
    # point is the fsum of each 64-realization chunk's per-state sums, one
    # more fsum over the chunk sums, over terms(N) * n_r; within one chunk
    # that is the public estimators' mean. (3, 130) runs chunks of 64, 64, 2.
    stats = ["pl", "mu2", "c2", "mu2x1"]
    cps = (0, 1, 2, 5, 12, 30)
    for n_q, n_r in ((1, 1), (3, 1), (6, 1), (3, 64), (3, 130)):
        cfg = EnsembleConfig(n_q=n_q, checkpoints=cps, master_seed=11, n_r=n_r, sizing=None)
        curves = run_ensemble(cfg, stats)
        n = 1 << n_q
        runs = [simulate_first_column(sample_circuit(11, r, n_q, cps[-1]), cps)
                for r in range(n_r)]
        by_checkpoint = list(zip(*runs))
        for label in stats:
            stat = StatisticKind.parse(label)
            d = []
            for states in by_checkpoint:
                if stat.kind == "pl":
                    hist = Histogram(n)
                    for s in states:
                        hist.add(log_intensities(s))
                    d.append(hellinger_distance(hist))
                    continue
                chunk_sums = [math.fsum(stat.state_sum(intensities(s.amplitudes, n))
                                        for s in states[i:i + 64])
                              for i in range(0, n_r, 64)]
                mean = math.fsum(chunk_sums) / (stat.terms(n) * n_r)
                if n_r <= 64:
                    row = stat.row if stat.kind == "mufix" else None
                    assert mean == (correlator_estimate(states, stat.k) if stat.kind == "c"
                                    else moment_estimate(states, stat.k, row)), label
                d.append(relative_deviation(mean, stat.reference(n)))
            points = list(zip(cps, d))
            expected = ConvergenceCurve(n_q=n_q, statistic=stat, points=points,
                                        n_r=n_r, master_seed=11)
            assert curves[label] == expected, (n_q, n_r, label)
            assert curves[label].d_min == saturation_floor(points)


def test_run_ensemble_equals_reference_path_on_split_rows():
    # Above n_q 14 a row is folded in pieces of ROW_PIECE amplitudes, and a
    # column's sum is the fsum of its piece sums; the runner and the public
    # estimators still agree exactly. mu2x{N-1} lies in the short last piece.
    cps = (0, 3, 24)
    for n_q in (15, 16):
        n = 1 << n_q
        stats = ["pl", "mu2", "c3", "c7", f"mu2x{n - 1}"]
        cfg = EnsembleConfig(n_q=n_q, checkpoints=cps, master_seed=5, n_r=2, sizing=None)
        curves = run_ensemble(cfg, stats)
        runs = [simulate_first_column(sample_circuit(5, r, n_q, cps[-1]), cps) for r in range(2)]
        for label in stats:
            stat = StatisticKind.parse(label)
            d = []
            for states in zip(*runs):
                if stat.kind == "pl":
                    hist = Histogram(n)
                    for s in states:
                        hist.add(log_intensities(s))
                    d.append(hellinger_distance(hist))
                else:
                    d.append(relative_deviation(mean_over_states(states, stat),
                                                stat.reference(n)))
            assert curves[label].points == list(zip(cps, d)), (n_q, label)

        # |a| = 2^-8 makes every y = v = 2^(n_q - 16) exactly, so a column's
        # sum is terms(N) * v^k: pieces neither drop nor repeat a term.
        v = 2.0 ** (n_q - 16)
        scalars = [StatisticKind.parse(label) for label in stats[1:]]
        fold = fold_block(scalars, np.full((1, n), 2.0 ** -8, dtype=complex),
                          {s.label: [] for s in scalars})
        for s in scalars:
            assert fold[s.label] == [s.terms(n) * v ** s.k], (n_q, s.label)


def test_a_piece_of_a_split_row_is_scaled_by_its_column_length():
    rng = np.random.default_rng(15)
    n = 1 << 15  # pieces [0, ROW_PIECE), [ROW_PIECE, 2 ROW_PIECE), [2 ROW_PIECE, n)
    a = sample_haar_first_column(n, rng)
    piece = slice(ROW_PIECE, 2 * ROW_PIECE)
    assert np.array_equal(intensities(a[piece], n), n * np.abs(a[piece]) ** 2)
    stats = [StatisticKind.parse(label) for label in ("pl", "mu1", f"mu3x{n - 1}")]
    fold = fold_block(stats, a[None], {"pl": Histogram(n), "mu1": [], f"mu3x{n - 1}": []})
    assert np.array_equal(fold["pl"].counts,
                          Histogram(n).add(log_intensities(StateColumn(15, a))).counts)
    assert fold["mu1"] == [pytest.approx(n, rel=1e-12)]
    assert fold["mu1"] == [math.fsum((n * np.abs(a[lo:lo + ROW_PIECE]) ** 2).sum()
                                     for lo in range(0, n, ROW_PIECE))]
    last = n * np.abs(a[2 * ROW_PIECE:]) ** 2  # the short last piece
    assert fold[f"mu3x{n - 1}"] == (last[-1:] ** 3).tolist()


def test_one_fold_allocates_under_1_5_mib_at_any_n_q():
    # Nothing that fold_block allocates scales with N.
    rng = np.random.default_rng(14)
    stats = [StatisticKind.parse(label) for label in ("pl", "mu2", "c3", "mu4x5")]
    for n_q in (16, 22):
        n = 1 << n_q
        block = np.empty((1, n), dtype=complex)
        block.real = rng.standard_normal(n)
        block.imag = rng.standard_normal(n)
        block /= math.sqrt(np.vdot(block, block).real)
        fold = {s.label: Histogram(n) if s.kind == "pl" else [] for s in stats}
        tracemalloc.start()
        try:
            fold_block(stats, block, fold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (1 << 20), (n_q, peak)
        del block


def test_block_folded_reference_mean_equals_per_column_folds(monkeypatch):
    # mean_over_states folds its columns in blocks of at most BLOCK_GROUP
    # amplitudes; its mean must equal, bit for bit, the fsum of fold_block
    # sums taken one column at a time. 5000 columns of N = 4 run as
    # 4096 + 904 rows; a column of n_q 15 is cut into three pieces.
    import ucesim.ensemble_stats as es

    shapes = []  # the shape of every piece that fold_block makes

    def recorded(a, n):
        shapes.append(a.shape)
        return intensities(a, n)

    monkeypatch.setattr(es, "intensities", recorded)
    for n_q, count in ((2, 5000), (15, 3)):
        n = 1 << n_q
        states = haar_states(n_q, count, 16 + n_q)
        block = np.array([s.amplitudes for s in states])
        if n <= BLOCK_GROUP:
            runs = [(BLOCK_GROUP // n, n), (count - BLOCK_GROUP // n, n)]
        else:
            runs = [(1, ROW_PIECE), (1, ROW_PIECE), (1, n - 2 * ROW_PIECE)] * count
        for label in ("mu2", "c3", f"mu2x{n - 1}"):
            stat = StatisticKind.parse(label)
            sums = []
            for s in states:
                fold_block([stat], s.amplitudes[None], {label: sums})
            assert len(sums) == count, label
            shapes.clear()
            assert mean_over_states(states, stat) == math.fsum(sums) / (stat.terms(n) * count)
            assert shapes == runs, (n_q, label)
            shapes.clear()  # fold_block cuts a whole block the same way
            assert fold_block([stat], block, {label: []})[label] == sums, (n_q, label)
            assert shapes == runs, (n_q, label)


def test_reference_mean_rejects_columns_of_different_lengths():
    ones = [StateColumn(2, np.full(4, 0.5, dtype=complex)),
            StateColumn(3, np.full(8, 1 / math.sqrt(8), dtype=complex))]  # every y = 1
    assert moment_estimate(ones[:1], 2) == 1.0
    for estimate in (lambda s: moment_estimate(s, 2), lambda s: correlator_estimate(s, 2)):
        for states in (ones, ones[::-1]):
            with pytest.raises(ValueError, match="different lengths"):
                estimate(states)


def test_histograms_merge_with_iadd():
    rng = np.random.default_rng(17)
    with np.errstate(divide="ignore"):
        a, b = (np.log(intensities(np.array([sample_haar_first_column(16, rng)
                                              for _ in range(5)]), 16)) for _ in range(2))
    merged = Histogram(16).add(a)
    merged += Histogram(16).add(b)
    both = Histogram(16).add(np.concatenate([a, b]))
    assert np.array_equal(merged.counts, both.counts) and merged.total == both.total == 160
