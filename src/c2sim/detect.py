"""Beacon detection analytics over labeled flow traces.

Channels are (src, dst) pairs. Each channel with at least three distinct
arrival timestamps gets four component scores in [0, 1]:

  * interval_regularity: 1 / (1 + CV) of inter-arrival gaps;
  * acf_strength: peak of the normalized autocorrelation of the binned
    arrival-count series over a bounded lag band, which also yields the
    period estimate;
  * periodogram_strength: dominance of the strongest spectral line inside
    the same period band, calibrated against the expected maximum for a
    featureless spectrum;
  * size_uniformity: 1 / (1 + CV) of initiator byte counts.

The ACF and the periodogram work from the occupied bins and their counts,
not from a dense series over the channel's span. Each picks, per channel,
the method with less work, counted from the event count, the span and the
band size: an exact sparse method over event positions, or an FFT of the
dense series (ACF, equal to rounding) or a type-1 NUFFT of the band alone
(periodogram, amplitudes within about 1e-12 of the event count). So the
choice changes the cost, not the flags or the periods.

The detector's settings are fixed: one-second bins, a lag band of 10 to
4096 bins (periods of 10 s to about 68 min), an ACF peak floor of 0.1 for
asserting a period, a periodogram null scale of 8, and the weights 0.35
regularity, 0.25 ACF, 0.25 periodogram and 0.15 size. The flagging threshold
(DetectorConfig, `c2sim detect --threshold`) is the only one a user sets.

Channels with fewer than three distinct arrivals are reported as
insufficient data, never scored, and count as not-flagged in the confusion
summary. AUC is computed with integer trapezoid arithmetic so it equals the
Mann-Whitney statistic exactly, not just approximately.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .traffic import LABEL_BEACON, LABEL_CHAFF, LABEL_EVENT, FlowRecord

_EULER = 0.5772156649015329

# The detector's fixed settings, as the module docstring lists them
BIN_MS = 1000
MIN_LAG_BINS = 10
MAX_LAG_BINS = 4096
ACF_PERIOD_FLOOR = 0.1
PGRAM_NULL_SCALE = 8.0
WEIGHTS = {"regularity": 0.35, "acf": 0.25, "periodogram": 0.25, "size": 0.15}
# A channel is scored over at most this many bins; a longer span widens its
# bin to BIN_MS * ceil(n / MAX_BINS), so cost follows events, not the span
MAX_BINS = 1 << 24


@dataclass(frozen=True)
class DetectorConfig:
    # Midpoint of the empirical score gap: on a day-long mixed corpus,
    # jittered beacons combine to >= 0.55 while workday browsing channels
    # top out near 0.45.
    threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be in [0, 1]")


@dataclass
class ChannelSeries:
    key: tuple[str, str]
    arrivals: list[int]       # distinct timestamps, strictly ascending
    sizes: list[int]          # initiator bytes aligned with arrivals
    n_flows: int              # raw flow count before timestamp dedup
    label: str


@dataclass(frozen=True)
class BeaconScore:
    key: tuple[str, str]
    regularity: float
    acf_strength: float
    periodogram: float
    size_uniformity: float
    combined: float
    period_ms: int | None


@dataclass
class ChannelVerdict:
    key: tuple[str, str]
    label: str
    score: BeaconScore | None   # None marks an insufficient-data channel
    flagged: bool


@dataclass
class DetectionReport:
    channels: list[ChannelVerdict]
    threshold: float
    tp: int
    fp: int
    tn: int
    fn: int
    roc: list[tuple[float, float, float]]   # (fpr, tpr, threshold) rows
    auc: float | None
    insufficient: int
    degenerate: str | None


_LABEL_RANK = {LABEL_BEACON: 3, LABEL_EVENT: 2, LABEL_CHAFF: 1}


def group_channels(trace: Iterable[FlowRecord]) -> list[ChannelSeries]:
    """Partition a trace into per-(src, dst) series, deduping equal timestamps."""
    buckets: dict[tuple[str, str], list[FlowRecord]] = {}
    for flow in trace:
        buckets.setdefault((flow.src, flow.dst), []).append(flow)
    series = []
    for key in sorted(buckets):
        flows = sorted(buckets[key], key=lambda f: f.ts_start)
        arrivals: list[int] = []
        sizes: list[int] = []
        for f in flows:
            if arrivals and f.ts_start == arrivals[-1]:
                continue
            arrivals.append(f.ts_start)
            sizes.append(f.bytes_initiator)
        label = max((f.label for f in flows),
                    key=lambda lb: _LABEL_RANK.get(lb, 0))
        series.append(ChannelSeries(key=key, arrivals=arrivals, sizes=sizes,
                                    n_flows=len(flows), label=label))
    return series


def _inverse_cv(values: list[float]) -> float:
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return 1.0 / (1.0 + math.sqrt(var) / mean)


def interval_regularity(series: ChannelSeries) -> float | None:
    """1/(1+CV) of the gaps; None when fewer than two gaps exist."""
    if len(series.arrivals) < 3:
        return None
    gaps = [b - a for a, b in zip(series.arrivals, series.arrivals[1:])]
    return _inverse_cv([float(g) for g in gaps])


_BLOCK_ELEMENTS = 1 << 18   # elements per event chunk: sparse DFT, NUFFT
_SPREAD = 12   # grid points on each side of an event in the NUFFT
# Each detector picks the method with less work, counted in points of an
# FFT per log2 of its length. Measured with numpy's pocketfft and OpenBLAS,
# one element of a sparse ACF pass costs about 8 of those units, and one
# unit of an rfft at an arbitrary length about 8 multiply-adds of the
# blocked DFT; the choices on the benchmark's channels stay the same for any
# value from 5 to 10. The periodogram's FFT side is a NUFFT, whose cost
# follows the events and the band rather than this length-n rfft's count.
_ACF_ELEMENT_WORK = 8.0
_RFFT_UNIT_WORK = 8.0


def _occupancy(arrivals: list[int],
               bin_ms: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Occupied bins (ascending, the first is 0), their arrival counts, and
    the series length n in bins, binned from the first arrival."""
    # The arrivals ascend, so each offset from the first lies in [0, 2^64)
    # and uint64 arithmetic, which wraps modulo 2^64, gives it exactly.
    offsets = np.asarray(arrivals, dtype=np.int64).view(np.uint64)
    bins, counts = np.unique((offsets - offsets[0]) // np.uint64(bin_ms),
                             return_counts=True)
    return bins.astype(np.int64), counts.astype(np.float64), int(bins[-1]) + 1


def _demeaned(bins: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """The dense series of n bin counts, minus its mean."""
    d = np.bincount(bins, weights=counts, minlength=n)
    d -= d.mean()
    return d


def _sum_sq_dev(counts: np.ndarray, n: int) -> float:
    """Sum of squared deviations from the mean over all n bins. The empty
    bins' share is a separate non-negative term, so nothing cancels, and a
    constant series gives exactly 0."""
    mean = counts.sum() / n
    return float(np.sum((counts - mean) ** 2) + (n - len(counts)) * mean * mean)


def _autocov_sparse(bins: np.ndarray, counts: np.ndarray, n: int,
                    lo: int, hi: int) -> np.ndarray:
    """sum_t d[t] * d[t + L] for L in [lo, hi], d = counts - mean, exactly.

    The lagged products of the counts are a histogram of pairwise bin
    differences weighted by count products; offset s pairs each occupied bin
    with the s-th next one. Differences grow with s, so the loop ends once
    the smallest exceeds hi. The mean correction needs only prefix sums:
    sum_t d[t] d[t+L] = R(L) - m (A(L) + B(L)) + m^2 (n - L), where A(L)
    counts arrivals in bins [0, n - L) and B(L) those in [L, n).
    """
    width = hi - lo + 1
    raw = np.zeros(width)
    for s in range(1, len(bins)):
        diff = bins[s:] - bins[:-s]
        if diff.min() > hi:
            break
        keep = (diff >= lo) & (diff <= hi)
        raw += np.bincount(diff[keep] - lo,
                           weights=counts[s:][keep] * counts[:-s][keep],
                           minlength=width)
    mean = counts.sum() / n
    lags = np.arange(lo, hi + 1)
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    head = prefix[np.searchsorted(bins, n - lags)]
    tail = prefix[-1] - prefix[np.searchsorted(bins, lags)]
    return raw - mean * (head + tail) + mean * mean * (n - lags)


def _autocov_dense(bins: np.ndarray, counts: np.ndarray, n: int,
                   lo: int, hi: int) -> np.ndarray:
    """The same lags by FFT of the dense series, zero-padded past 2n - 1 so
    the circular correlation is the linear one."""
    d = _demeaned(bins, counts, n)
    nfft = _fft_length(n)
    spec = np.fft.rfft(d, nfft)
    return np.fft.irfft(spec * np.conj(spec), nfft)[lo:hi + 1]


def _fft_length(n: int) -> int:
    """The least power of two of at least 2n."""
    return 1 << (2 * n - 1).bit_length()


def _autocov(bins: np.ndarray, counts: np.ndarray, n: int,
             lo: int, hi: int) -> np.ndarray:
    """Demeaned autocovariance over [lo, hi] by the method with less work.

    Each pass of the sparse offset loop touches about k elements, and it
    makes as many passes as the most occupied bins any bin has within hi
    after it; the FFT's work is about nfft log2 nfft.
    """
    later = np.searchsorted(bins, bins + hi, side="right")
    passes = int(np.max(later - np.arange(1, len(bins) + 1)))
    nfft = _fft_length(n)
    if _ACF_ELEMENT_WORK * len(bins) * passes <= nfft * math.log2(nfft):
        return _autocov_sparse(bins, counts, n, lo, hi)
    return _autocov_dense(bins, counts, n, lo, hi)


def acf_period(series: ChannelSeries, bin_ms: int, max_lag_bins: int,
               min_lag_bins: int = MIN_LAG_BINS,
               period_floor: float = ACF_PERIOD_FLOOR
               ) -> tuple[float, int | None]:
    """Peak normalized autocorrelation over lags [min_lag, max_lag].

    Counts are binned from the first arrival and demeaned; the peak height is
    clamped to [0, 1]. A series spanning less than twice the lag window has
    no room for a trustworthy peak and scores 0. Peaks below period_floor do
    not assert a period. The work follows the occupied bins, not the span.
    """
    if len(series.arrivals) < 2:
        return 0.0, None
    span = series.arrivals[-1] - series.arrivals[0]
    if span < 2 * max_lag_bins * bin_ms:
        return 0.0, None
    bins, counts, n = _occupancy(series.arrivals, bin_ms)
    lo = min_lag_bins
    hi = min(max_lag_bins, n - 1)
    if lo > hi:
        return 0.0, None
    denom = _sum_sq_dev(counts, n)
    if denom == 0.0:
        return 0.0, None
    window = _autocov(bins, counts, n, lo, hi) / denom
    k = int(np.argmax(window)) + lo
    strength = float(min(1.0, max(0.0, window.max())))
    period = k * bin_ms if strength >= period_floor else None
    return strength, period


def _phasor(phase: np.ndarray, n: int) -> np.ndarray:
    """exp(-2 pi i p / n) for integer phases p in [0, n)."""
    return np.exp(phase * (-2j * math.pi / n))


def _band_power_sparse(bins: np.ndarray, counts: np.ndarray, n: int,
                       f_lo: int, f_hi: int) -> np.ndarray:
    """|X(f)|^2 for f in [f_lo, f_hi], X(f) = sum_i c_i exp(-2 pi i f b_i / n).

    The mean's transform is zero at every f in (0, n), so only the occupied
    bins contribute. Writing f = start_q + r with blocks of about sqrt(M)
    frequencies makes the band one matrix product,
    (block-start phasors * c)^T @ (in-block phasors), and every phasor comes
    from the exact integer phase (f * b) mod n. int64 holds f * b while
    n < 3e9 bins; a band that long would not fit in memory anyway.
    """
    m = f_hi - f_lo + 1
    width = math.isqrt(m - 1) + 1
    rows = -(-m // width)
    starts = f_lo + width * np.arange(rows, dtype=np.int64)
    offsets = np.arange(width, dtype=np.int64)
    spectrum = np.zeros((rows, width), dtype=np.complex128)
    chunk = max(1, _BLOCK_ELEMENTS // (rows + width))
    for i in range(0, len(bins), chunk):
        b = bins[i:i + chunk, None]
        head = _phasor(b * starts % n, n) * counts[i:i + chunk, None]
        spectrum += head.T @ _phasor(b * offsets % n, n)
    return np.abs(spectrum.ravel()[:m]) ** 2


def _band_power_nufft(bins: np.ndarray, counts: np.ndarray, n: int,
                      f_lo: int, f_hi: int) -> np.ndarray:
    """The same band by a type-1 NUFFT with Gaussian gridding (Dutt and
    Rokhlin 1993; Greengard and Lee, SIAM Review 2004), centred on the band.

    Each count is turned by the exact integer phase of the band centre fc,
    which leaves the offsets k = f - fc in [-M/2, M/2). An event at
    x = 2 pi b / n is spread by the Gaussian exp(-x^2 / 4 tau) over the
    2 _SPREAD nearest points of a power-of-two grid of at least 2M points;
    one FFT of the grid gives each X(fc + k) times
    sqrt(tau / pi) exp(-k^2 tau), which is divided out. tau is Greengard
    and Lee's choice for the grid's actual oversampling ratio R in [2, 4),
    so each |X| stays within about 1e-12 of the total count whatever R the
    band gets. Memory follows the grid, not the event count.
    """
    m = f_hi - f_lo + 1
    fc = f_lo + m // 2
    size = _fft_length(m)
    ratio = size / m
    tau = math.pi * _SPREAD / (m * m * ratio * (ratio - 0.5))
    # the Gaussian in grid steps: exp(-x^2 / 4 tau) = exp(-decay * steps^2)
    decay = math.pi * (ratio - 0.5) / (_SPREAD * ratio)
    steps = np.arange(1 - _SPREAD, _SPREAD + 1)
    grid = np.zeros(size, dtype=np.complex128)
    chunk = max(_BLOCK_ELEMENTS, size) // len(steps)
    for i in range(0, len(bins), chunk):
        b = bins[i:i + chunk]
        # grid position b * size / n, split exactly into point and fraction
        near, frac = np.divmod(b * size, n)
        kernel = (np.exp(-decay * (steps - frac[:, None] / n) ** 2)
                  * (counts[i:i + chunk] * _phasor(fc * b % n, n))[:, None])
        at = ((near[:, None] + steps) % size).ravel()
        grid.real += np.bincount(at, kernel.real.ravel(), size)
        grid.imag += np.bincount(at, kernel.imag.ravel(), size)
    k = np.arange(f_lo - fc, f_hi - fc + 1)
    x = np.fft.fft(grid)[k] * np.exp(k * k * tau)
    return (math.pi / tau / (size * size)) * np.abs(x) ** 2


def _band_power(bins: np.ndarray, counts: np.ndarray, n: int,
                f_lo: int, f_hi: int) -> np.ndarray:
    """In-band power by the method with less work: the sparse DFT does about
    k (M + 2 sqrt(M)) multiply-adds and phasors for M band bins, against
    n log2 n units of a length-n rfft. The NUFFT that runs in its place
    spreads each event over 2 _SPREAD grid points, then runs an FFT of about
    4M points: less than that rfft when events fill a small share of the
    bins, as a beacon's do over days, more when they fill most of them."""
    m = f_hi - f_lo + 1
    sparse = len(bins) * (m + 2 * (math.isqrt(m - 1) + 1))
    if sparse <= _RFFT_UNIT_WORK * n * math.log2(n):
        return _band_power_sparse(bins, counts, n, f_lo, f_hi)
    return _band_power_nufft(bins, counts, n, f_lo, f_hi)


def periodogram_strength(series: ChannelSeries, bin_ms: int,
                         max_lag_bins: int,
                         min_lag_bins: int = MIN_LAG_BINS) -> float:
    """Spectral-line dominance within the period band, mapped to [0, 1].

    The statistic is the largest single-bin share of in-band spectral energy
    (Fisher's g restricted to the band). It is divided by the expected
    maximum share of a flat spectrum, (ln M + gamma) / M for M band bins, so
    a featureless channel sits well under 1, then scaled into [0, 1].
    """
    if len(series.arrivals) < 2:
        return 0.0
    bins, counts, n = _occupancy(series.arrivals, bin_ms)
    if n < 4:
        return 0.0
    # band: periods between min_lag and max_lag bins
    k_lo = max(1, -(-n // max_lag_bins))
    k_hi = min(n // 2, n // min_lag_bins)
    if k_hi < k_lo:
        return 0.0
    # a constant series has no spectrum; the sparse DFT would return its
    # rounding noise in place of the exact zeros
    if _sum_sq_dev(counts, n) == 0.0:
        return 0.0
    band = _band_power(bins, counts, n, k_lo, k_hi)
    total = float(band.sum())
    if total == 0.0:
        return 0.0
    g = float(band.max()) / total
    m = len(band)
    g_null = (math.log(m) + _EULER) / m if m > 1 else 1.0
    return min(1.0, g / (g_null * PGRAM_NULL_SCALE))


def size_uniformity(series: ChannelSeries) -> float | None:
    if len(series.sizes) < 3:
        return None
    return _inverse_cv([float(s) for s in series.sizes])


def combine(components: dict[str, float | None], weights: dict[str, float]) -> float | None:
    """Weighted mean over present components, renormalizing absent weight."""
    total_w = 0.0
    acc = 0.0
    for name, w in weights.items():
        v = components.get(name)
        if v is None:
            continue
        acc += w * v
        total_w += w
    if total_w == 0.0:
        return None
    return acc / total_w


def score_channel(series: ChannelSeries) -> BeaconScore | None:
    """Score one channel; None means insufficient data (< 3 distinct arrivals)."""
    if len(series.arrivals) < 3:
        return None
    reg = interval_regularity(series)
    n = (series.arrivals[-1] - series.arrivals[0]) // BIN_MS + 1
    bin_ms = BIN_MS * -(-n // MAX_BINS)
    acf, period = acf_period(series, bin_ms, MAX_LAG_BINS)
    pg = periodogram_strength(series, bin_ms, MAX_LAG_BINS)
    size = size_uniformity(series)
    combined = combine({"regularity": reg, "acf": acf, "periodogram": pg,
                        "size": size}, WEIGHTS)
    return BeaconScore(key=series.key, regularity=reg, acf_strength=acf,
                       periodogram=pg, size_uniformity=size,
                       combined=combined, period_ms=period)


# -- ROC / AUC -----------------------------------------------------------------


def _roc_points(scored: list[tuple[float, bool]]) -> tuple[list, int, int]:
    """Cumulative integer confusion counts per unique threshold, descending."""
    pos = sum(1 for _, is_pos in scored if is_pos)
    neg = len(scored) - pos
    by_score = sorted(scored, key=lambda sv: -sv[0])
    points = []
    tp = fp = 0
    i = 0
    while i < len(by_score):
        t = by_score[i][0]
        while i < len(by_score) and by_score[i][0] == t:
            if by_score[i][1]:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((t, fp, tp))
    return points, pos, neg


def _auc_from_points(points: list, pos: int, neg: int) -> float | None:
    if pos == 0 or neg == 0:
        return None
    # exact trapezoid in integer counts; one float division at the end
    num = 0
    prev_fp, prev_tp = 0, 0
    for _, fp, tp in points:
        num += (fp - prev_fp) * (tp + prev_tp)
        prev_fp, prev_tp = fp, tp
    return num / (2 * neg * pos)


def evaluate(trace: Iterable[FlowRecord],
             config: DetectorConfig = DetectorConfig()) -> DetectionReport:
    """Score every channel in a labeled trace and summarize detection quality.

    Ground-truth positive means the channel carries beacon-labeled flows.
    Insufficient-data channels are never flagged, so they land in the
    false-negative or true-negative cells, and their count is reported
    separately. AUC and the ROC sweep cover scored channels only.
    """
    verdicts: list[ChannelVerdict] = []
    scored: list[tuple[float, bool]] = []
    tp = fp = tn = fn = 0
    insufficient = 0
    for series in group_channels(trace):
        score = score_channel(series)
        is_pos = series.label == LABEL_BEACON
        flagged = score is not None and score.combined >= config.threshold
        verdicts.append(ChannelVerdict(key=series.key, label=series.label,
                                       score=score, flagged=flagged))
        if score is None:
            insufficient += 1
        else:
            scored.append((score.combined, is_pos))
        if is_pos and flagged:
            tp += 1
        elif is_pos:
            fn += 1
        elif flagged:
            fp += 1
        else:
            tn += 1
    points, pos, neg = _roc_points(scored)
    auc = _auc_from_points(points, pos, neg)
    roc = [(fp_i / neg if neg else 0.0, tp_i / pos if pos else 0.0, t)
           for t, fp_i, tp_i in points]
    roc.sort(key=lambda r: (r[0], r[1]))
    degenerate = None
    if not scored:
        degenerate = "no scorable channels"
    elif pos == 0:
        degenerate = "no positive-labeled channels among scored"
    elif neg == 0:
        degenerate = "no negative-labeled channels among scored"
    return DetectionReport(channels=verdicts, threshold=config.threshold,
                           tp=tp, fp=fp, tn=tn, fn=fn, roc=roc, auc=auc,
                           insufficient=insufficient, degenerate=degenerate)


# -- report output --------------------------------------------------------------


def report_records(report: DetectionReport) -> list[dict]:
    """Report as NDJSON-ready records: one per channel plus one summary."""
    records = []
    for v in report.channels:
        rec = {"type": "channel", "src": v.key[0], "dst": v.key[1],
               "label": v.label, "flagged": v.flagged}
        if v.score is None:
            rec["insufficient"] = True
        else:
            rec.update({
                "insufficient": False,
                "regularity": v.score.regularity,
                "acf_strength": v.score.acf_strength,
                "periodogram": v.score.periodogram,
                "size_uniformity": v.score.size_uniformity,
                "combined": v.score.combined,
                "period_ms": v.score.period_ms,
            })
        records.append(rec)
    records.append({
        "type": "summary", "threshold": report.threshold,
        "tp": report.tp, "fp": report.fp, "tn": report.tn, "fn": report.fn,
        "auc": report.auc, "insufficient": report.insufficient,
        "channels": len(report.channels), "degenerate": report.degenerate,
        "sweep": [{"threshold": t, "fpr": f, "tpr": tp_}
                  for f, tp_, t in report.roc],
    })
    return records


def write_report(report: DetectionReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True, separators=(",", ":"))
                      + "\n" for r in report_records(report))


def write_roc_csv(report: DetectionReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["fpr", "tpr", "threshold"])
        w.writerows([repr(fpr), repr(tpr), repr(t)]
                    for fpr, tpr, t in report.roc)
