"""Detector component checks against independent oracles.

The ACF comparison uses a direct O(n^2) reimplementation, the periodogram
comparison a direct O(k*M) DFT over the occupied bins, and the AUC
comparison the integer Mann-Whitney statistic, so the fast paths are
validated against slow unambiguous math rather than against themselves.
Both ACF methods and both periodogram methods (sparse over event positions,
dense by FFT) are checked, and so is the choice between them.
"""

from __future__ import annotations

import cmath
import math
import random
import statistics
import tracemalloc

import numpy as np
import pytest

from c2sim import detect
from c2sim.detect import (
    BeaconScore,
    ChannelSeries,
    DetectorConfig,
    acf_period,
    combine,
    evaluate,
    group_channels,
    interval_regularity,
    periodogram_strength,
    report_records,
    score_channel,
    size_uniformity,
    write_report,
    write_roc_csv,
    _auc_from_points,
    _roc_points,
)
from c2sim.engine import RngStream
from c2sim.traffic import BeaconConfig, FlowRecord, synth_beacon_trace


def _series(arrivals, sizes=None, key=("a", "b"), label="benign", n_flows=None):
    sizes = sizes if sizes is not None else [100] * len(arrivals)
    return ChannelSeries(key=key, arrivals=list(arrivals), sizes=list(sizes),
                         n_flows=n_flows or len(arrivals), label=label)


def _flow(ts, src, dst, size=100, label="benign", leg="background",
          dst_class="benign_service"):
    return FlowRecord(ts_start=ts, duration=5, src=src, dst=dst,
                      dst_class=dst_class, bytes_initiator=size,
                      bytes_responder=200, leg=leg, label=label)


def _beacon_series(interval_ms, jitter, horizon_ms, seed=0, label="beacon_c2"):
    cfg = BeaconConfig(interval_ms=interval_ms, jitter_fraction=jitter,
                       horizon_ms=horizon_ms, src="imp", dst="c2")
    flows = synth_beacon_trace(cfg, RngStream(seed, f"test/{seed}"))
    return _series([f.ts_start for f in flows],
                   [f.bytes_initiator for f in flows], label=label)


# -- grouping ------------------------------------------------------------------


def test_group_channels_partitions_the_trace():
    trace = [_flow(1, "a", "x"), _flow(2, "a", "x"), _flow(2, "a", "x"),
             _flow(9, "b", "x"), _flow(3, "a", "y")]
    series = group_channels(trace)
    assert [s.key for s in series] == [("a", "x"), ("a", "y"), ("b", "x")]
    assert sum(s.n_flows for s in series) == len(trace)
    ax = series[0]
    assert ax.arrivals == [1, 2] and ax.n_flows == 3  # equal stamps deduped
    assert len(ax.arrivals) == len(ax.sizes)


def test_group_channels_label_priority():
    trace = [_flow(1, "a", "x"), _flow(2, "a", "x", label="beacon_c2",
                                       leg="tasking", dst_class="hub")]
    assert group_channels(trace)[0].label == "beacon_c2"


# -- interval regularity -----------------------------------------------------------


def test_regularity_matches_hand_computation():
    arrivals = [0, 10_000, 100_000, 110_000]   # gaps 10s, 90s, 10s
    gaps = [10_000.0, 90_000.0, 10_000.0]
    want = 1.0 / (1.0 + statistics.pstdev(gaps) / statistics.mean(gaps))
    got = interval_regularity(_series(arrivals))
    assert got == pytest.approx(want, abs=1e-12)


def test_regularity_is_one_for_perfect_train():
    assert interval_regularity(_series(range(0, 600_000, 60_000))) == 1.0


def test_regularity_needs_three_arrivals():
    assert interval_regularity(_series([0, 100])) is None
    assert interval_regularity(_series([5])) is None


def test_regularity_declines_with_jitter():
    jitters = [0.0, 0.05, 0.1, 0.2, 0.4]
    means = []
    for j in jitters:
        vals = [interval_regularity(_beacon_series(60_000, j, 86_400_000, seed=s))
                for s in range(5)]
        means.append(statistics.mean(vals))
    assert all(a > b for a, b in zip(means, means[1:]))
    assert means[0] == pytest.approx(1.0, abs=1e-9)


# -- autocorrelation ---------------------------------------------------------------


def _acf_oracle(arrivals, bin_ms, max_lag, min_lag):
    """Direct quadratic autocorrelation peak search."""
    t0 = arrivals[0]
    idx = [(t - t0) // bin_ms for t in arrivals]
    n = idx[-1] + 1
    counts = [0.0] * n
    for i in idx:
        counts[i] += 1.0
    mean = sum(counts) / n
    d = [c - mean for c in counts]
    denom = sum(x * x for x in d)
    if denom == 0:
        return 0.0, None
    best_k, best_v = None, -math.inf
    for k in range(min_lag, min(max_lag, n - 1) + 1):
        v = sum(d[t] * d[t + k] for t in range(n - k)) / denom
        if v > best_v:
            best_v, best_k = v, k
    return min(1.0, max(0.0, best_v)), best_k


def test_acf_finds_impulse_train_period():
    arrivals = list(range(0, 10_800_001, 60_000))   # 3 hours at 60 s
    strength, period = acf_period(_series(arrivals), bin_ms=1000,
                                  max_lag_bins=4096)
    assert strength > 0.9
    assert period == 60_000


def test_acf_short_span_scores_zero():
    arrivals = list(range(0, 600_000, 60_000))       # 10 min span
    strength, period = acf_period(_series(arrivals), bin_ms=1000,
                                  max_lag_bins=4096)
    assert (strength, period) == (0.0, None)


def test_acf_uniform_random_arrivals_stay_weak():
    worst = 0.0
    for seed in range(10):
        rnd = random.Random(seed)
        arrivals = sorted(rnd.sample(range(86_400_000), 200))
        strength, _ = acf_period(_series(arrivals), bin_ms=1000,
                                 max_lag_bins=4096)
        worst = max(worst, strength)
    assert worst < 0.3


def test_acf_single_and_dual_event_series():
    assert acf_period(_series([5]), 1000, 64) == (0.0, None)
    # two far-apart arrivals: the scan runs but the peak stays clamped
    strength, _ = acf_period(_series([5, 9_000_000]), 1000, 64)
    assert 0.0 <= strength <= 1.0


def test_acf_matches_bruteforce_oracle_on_random_series():
    rnd = random.Random(2020)
    for _ in range(20):
        bin_ms = 1000
        n_bins = rnd.randrange(64, 512)
        count = rnd.randrange(5, 60)
        arrivals = sorted(rnd.sample(range(n_bins * bin_ms), count))
        span_bins = (arrivals[-1] - arrivals[0]) // bin_ms
        max_lag = max(2, span_bins // 2)
        got_s, got_p = acf_period(_series(arrivals), bin_ms, max_lag,
                                  min_lag_bins=1, period_floor=0.0)
        want_s, want_k = _acf_oracle(arrivals, bin_ms, max_lag, min_lag=1)
        assert got_s == pytest.approx(want_s, abs=1e-9)
        if got_p is not None and want_k is not None:
            assert abs(got_p // bin_ms - want_k) <= 1


def _random_sparse_arrivals(rnd, bin_ms=1000):
    n_bins = rnd.randrange(200, 5000)
    return sorted(rnd.sample(range(n_bins * bin_ms), rnd.randrange(5, 80)))


def _dense_arrivals(rnd, bin_ms=1000):
    """An arrival in nine bins of ten: here the FFT methods are the cheaper."""
    n_bins = rnd.randrange(600, 1500)
    return [b * bin_ms + rnd.randrange(bin_ms) for b in range(n_bins)
            if rnd.random() < 0.9]


def _assert_acf_matches_oracle(arrivals, max_lag, got_s, got_p):
    want_s, want_k = _acf_oracle(arrivals, 1000, max_lag, min_lag=1)
    assert got_s == pytest.approx(want_s, abs=1e-9)
    # the lag must be the oracle's peak, up to ties within the tolerance
    at_got, _ = _acf_oracle(arrivals, 1000, got_p // 1000, got_p // 1000)
    assert got_p // 1000 == want_k or at_got == pytest.approx(want_s, abs=1e-9)


@pytest.mark.parametrize("shape", [_random_sparse_arrivals, _dense_arrivals])
def test_acf_methods_match_oracle(shape):
    rnd = random.Random(4242)
    for _ in range(4):
        arrivals = shape(rnd)
        bins, counts, n = detect._occupancy(arrivals, 1000)
        mean = counts.sum() / n
        denom = float(np.sum((counts - mean) ** 2)
                      + (n - len(bins)) * mean * mean)
        windows = [method(bins, counts, n, 1, 64) / denom
                   for method in (detect._autocov_sparse,
                                  detect._autocov_dense)]
        for window in windows:
            strength = min(1.0, max(0.0, float(window.max())))
            lag = int(np.argmax(window)) + 1
            _assert_acf_matches_oracle(arrivals, 64, strength, lag * 1000)
        # every lag, not just the peak, agrees between the two methods
        assert np.max(np.abs(windows[0] - windows[1])) <= 1e-9
        got_s, got_p = acf_period(_series(arrivals), 1000, 64,
                                  min_lag_bins=1, period_floor=0.0)
        _assert_acf_matches_oracle(arrivals, 64, got_s, got_p)


def _fail(*args):
    raise AssertionError("the cost model picked the costlier method")


def test_cost_model_scores_sparse_series_from_event_positions(monkeypatch):
    monkeypatch.setattr(detect, "_autocov_dense", _fail)
    monkeypatch.setattr(detect, "_band_power_dense", _fail)
    rnd = random.Random(8)
    for count, span_ms in ((100, 604_800_000), (500, 172_800_000)):
        series = _series(sorted(rnd.sample(range(span_ms), count)))
        acf_period(series, 1000, 64, min_lag_bins=1)
        periodogram_strength(series, 1000, 512, min_lag_bins=4)


def test_cost_model_scores_dense_series_by_fft(monkeypatch):
    monkeypatch.setattr(detect, "_autocov_sparse", _fail)
    monkeypatch.setattr(detect, "_band_power_sparse", _fail)
    rnd = random.Random(9)
    for series in (_series(range(0, 3_000_000, 1000)),
                   _series(_dense_arrivals(rnd))):
        acf_period(series, 1000, 64, min_lag_bins=1)
        periodogram_strength(series, 1000, 512, min_lag_bins=4)


def test_cost_model_splits_a_minute_beacon_over_days(monkeypatch):
    # few lags per event keep the ACF sparse; thousands of events times
    # thousands of band bins send the periodogram to the rfft
    monkeypatch.setattr(detect, "_autocov_dense", _fail)
    monkeypatch.setattr(detect, "_band_power_sparse", _fail)
    series = _series(range(0, 2000 * 60_000, 60_000))
    assert acf_period(series, 1000, 4096)[1] == 60_000
    assert periodogram_strength(series, 1000, 4096) == 1.0


def test_acf_period_floor_suppresses_weak_periods():
    rnd = random.Random(5)
    arrivals = sorted(rnd.sample(range(86_400_000), 300))
    strength, period = acf_period(_series(arrivals), 1000, 4096,
                                  period_floor=0.9)
    assert strength < 0.9 and period is None


# -- periodogram -------------------------------------------------------------------


def _pgram_oracle(arrivals, bin_ms, max_lag, min_lag, null_scale=8.0):
    """Direct O(k*M) DFT over the k occupied bins, one band frequency at a time.

    The demeaned series' transform equals the raw counts' at every band
    frequency f in (0, n), where the mean's own transform is exactly zero.
    Phases are reduced as exact integers, (f * b) mod n, before the complex
    exponential, so the oracle's error does not grow with the span.
    """
    bins = {}
    for t in arrivals:
        b = (t - arrivals[0]) // bin_ms
        bins[b] = bins.get(b, 0) + 1
    n = max(bins) + 1
    k_lo, k_hi = max(1, -(-n // max_lag)), min(n // 2, n // min_lag)
    power = []
    for f in range(k_lo, k_hi + 1):
        x = sum(c * cmath.exp(-2j * math.pi * (f * b % n) / n)
                for b, c in bins.items())
        power.append(abs(x) ** 2)
    g = max(power) / sum(power)
    m = len(power)
    g_null = (math.log(m) + 0.5772156649015329) / m if m > 1 else 1.0
    return power, min(1.0, g / (g_null * null_scale)), (k_lo, k_hi)


@pytest.mark.parametrize("shape", [_random_sparse_arrivals, _dense_arrivals])
def test_periodogram_methods_match_oracle(shape):
    rnd = random.Random(1717)
    for _ in range(3):
        arrivals = shape(rnd)
        want_power, want, (k_lo, k_hi) = _pgram_oracle(arrivals, 1000, 512, 4)
        bins, counts, n = detect._occupancy(arrivals, 1000)
        for method in (detect._band_power_sparse, detect._band_power_dense):
            got_power = method(bins, counts, n, k_lo, k_hi)
            assert (np.max(np.abs(got_power - want_power))
                    <= 1e-9 * max(want_power))
        got = periodogram_strength(_series(arrivals), 1000, 512,
                                   min_lag_bins=4)
        assert got == pytest.approx(want, abs=1e-9)


def test_periodogram_matches_oracle_on_long_sparse_span():
    rnd = random.Random(31)
    arrivals = sorted(rnd.sample(range(5 * 86_400_000), 40))
    _, want, _ = _pgram_oracle(arrivals, 1000, 4096, 10)
    got = periodogram_strength(_series(arrivals), 1000, 4096)
    assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("method", ["_band_power_sparse", "_band_power_dense"])
def test_periodogram_of_constant_series_is_zero(monkeypatch, method):
    # one arrival in every bin: no spectrum, whichever method runs
    monkeypatch.setattr(detect, "_band_power", getattr(detect, method))
    for seconds in (30, 40, 49):
        series = _series(range(0, seconds * 1000, 1000))
        assert periodogram_strength(series, 1000, 4096) == 0.0


def test_score_cost_follows_events_not_span():
    series = _series([0, 3_000_000_000, 7_000_000_123, 10_000_000_000],
                     sizes=[100, 120, 100, 90])
    tracemalloc.start()
    try:
        score = score_channel(series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert all(math.isfinite(v) for v in (
        score.regularity, score.acf_strength, score.periodogram,
        score.size_uniformity, score.combined))


def test_periodogram_dominant_line_for_clean_train():
    arrivals = list(range(0, 10_800_001, 60_000))
    series = _series(arrivals)
    score = periodogram_strength(series, bin_ms=1000, max_lag_bins=4096)
    assert score > 0.9
    # oracle: the strongest in-band spectral line sits at the train frequency
    counts = np.bincount((np.array(arrivals) // 1000))
    d = counts - counts.mean()
    power = np.abs(np.fft.rfft(d)) ** 2
    n = len(counts)
    k_lo, k_hi = max(1, math.ceil(n / 4096)), n // 10
    k_star = k_lo + int(np.argmax(power[k_lo:k_hi + 1]))
    assert abs(k_star - round(n / 60)) <= 1


def test_periodogram_translation_invariance():
    arrivals = list(range(0, 10_800_001, 60_000))
    shifted = [t + 123_456 for t in arrivals]
    a = periodogram_strength(_series(arrivals), 1000, 4096)
    b = periodogram_strength(_series(shifted), 1000, 4096)
    assert a == b


def test_periodogram_random_arrivals_stay_low():
    worst = 0.0
    for seed in range(10):
        rnd = random.Random(100 + seed)
        arrivals = sorted(rnd.sample(range(86_400_000), 200))
        worst = max(worst, periodogram_strength(_series(arrivals), 1000, 4096))
    assert worst < 0.5


def test_periodogram_degenerate_inputs():
    assert periodogram_strength(_series([7]), 1000, 64) == 0.0
    assert periodogram_strength(_series([0, 1, 2, 3]), 1000, 64) == 0.0


# -- size uniformity ---------------------------------------------------------------


def test_size_uniformity_hand_values():
    assert size_uniformity(_series([1, 2, 3], sizes=[100, 100, 100])) == 1.0
    sizes = [50.0, 100.0, 150.0]
    want = 1.0 / (1.0 + statistics.pstdev(sizes) / statistics.mean(sizes))
    got = size_uniformity(_series([1, 2, 3], sizes=[50, 100, 150]))
    assert got == pytest.approx(want, abs=1e-12)
    assert size_uniformity(_series([1, 2], sizes=[5, 5])) is None


# -- combination -------------------------------------------------------------------


def test_combine_uses_configured_weights():
    w = DetectorConfig().weights
    got = combine({"regularity": 1.0, "acf": 0.0, "periodogram": 0.0,
                   "size": 0.0}, w)
    assert got == pytest.approx(0.35, abs=1e-12)


def test_combine_renormalizes_missing_components():
    w = DetectorConfig().weights
    got = combine({"regularity": 0.8, "acf": None, "periodogram": None,
                   "size": 0.6}, w)
    assert got == pytest.approx((0.35 * 0.8 + 0.15 * 0.6) / 0.5, abs=1e-12)
    assert combine({"regularity": None}, w) is None


def test_score_channel_insufficient_below_three_events():
    assert score_channel(_series([1, 2])) is None
    assert score_channel(_series([1, 2, 3])) is not None


# -- ROC / AUC ---------------------------------------------------------------------


def _mw_auc(scored):
    pos = [s for s, p in scored if p]
    neg = [s for s, p in scored if not p]
    if not pos or not neg:
        return None
    two_u = 0
    for p in pos:
        for n in neg:
            if p > n:
                two_u += 2
            elif p == n:
                two_u += 1
    return two_u / (2 * len(pos) * len(neg))


def test_auc_equals_mann_whitney_exactly_on_random_sets():
    rnd = random.Random(99)
    for _ in range(50):
        n = rnd.randrange(2, 60)
        scored = [(rnd.choice([rnd.random(), 0.25, 0.5]), rnd.random() < 0.5)
                  for _ in range(n)]
        points, pos, neg = _roc_points(scored)
        got = _auc_from_points(points, pos, neg)
        want = _mw_auc(scored)
        if want is None:
            assert got is None
        else:
            assert got == want  # bitwise: both divide the same integers


def test_auc_trivial_cases():
    sep = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
    points, pos, neg = _roc_points(sep)
    assert _auc_from_points(points, pos, neg) == 1.0
    tied = [(0.5, True), (0.5, False), (0.5, True), (0.5, False)]
    points, pos, neg = _roc_points(tied)
    assert _auc_from_points(points, pos, neg) == 0.5


# -- evaluate ----------------------------------------------------------------------


def _mixed_trace():
    flows = []
    cfg = BeaconConfig(interval_ms=60_000, jitter_fraction=0.05,
                       horizon_ms=86_400_000, src="imp-1", dst="c2")
    flows += synth_beacon_trace(cfg, RngStream(1, "b1"))
    rnd = random.Random(7)
    for ch in range(3):
        last = 0
        for _ in range(40):
            last += rnd.randrange(1000, 7_200_000)
            flows.append(_flow(last, f"user-{ch}", "svc",
                               size=rnd.randrange(200, 9000)))
    flows.append(_flow(10, "tiny", "svc"))   # insufficient channel
    flows.append(_flow(20, "tiny", "svc"))
    return flows


def test_evaluate_separates_beacon_from_irregular_channels():
    report = evaluate(_mixed_trace())
    assert report.auc == 1.0
    assert report.tp + report.fn == 1          # one beacon channel
    assert report.fp + report.tn == 4          # three users plus the tiny one
    assert report.insufficient == 1
    assert report.degenerate is None
    total = report.tp + report.fp + report.tn + report.fn
    assert total == len(report.channels)


def test_evaluate_is_order_invariant():
    trace = _mixed_trace()
    shuffled = list(trace)
    random.Random(3).shuffle(shuffled)
    assert evaluate(shuffled) == evaluate(trace)


def test_evaluate_empty_and_degenerate_traces():
    empty = evaluate([])
    assert empty.channels == [] and empty.auc is None
    assert empty.degenerate == "no scorable channels"
    benign_only = evaluate([_flow(t, "u", "svc") for t in range(0, 50_000, 500)])
    assert benign_only.auc is None
    assert benign_only.degenerate == "no positive-labeled channels among scored"


def test_insufficient_channels_count_as_unflagged_negatives():
    trace = [_flow(1, "u", "svc"), _flow(2, "u", "svc")]
    report = evaluate(trace)
    assert report.insufficient == 1
    assert (report.tp, report.fp, report.tn, report.fn) == (0, 0, 1, 0)


def test_report_files_round_trip(tmp_path):
    report = evaluate(_mixed_trace())
    write_report(report, tmp_path / "report.ndjson")
    write_roc_csv(report, tmp_path / "roc.csv")
    import json
    lines = (tmp_path / "report.ndjson").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[-1]["type"] == "summary"
    assert records[-1]["auc"] == 1.0
    assert len(records) == len(report.channels) + 1
    roc_lines = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc_lines[0] == "fpr,tpr,threshold"
    assert len(roc_lines) == len(report.roc) + 1
    fprs = [float(row.split(",")[0]) for row in roc_lines[1:]]
    assert fprs == sorted(fprs)


def test_report_records_mark_insufficient_channels():
    recs = report_records(evaluate([_flow(1, "u", "svc"), _flow(2, "u", "svc")]))
    chan = [r for r in recs if r["type"] == "channel"][0]
    assert chan["insufficient"] is True and chan["flagged"] is False
