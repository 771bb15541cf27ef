"""Tests for the DAQ sampling model."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measure.daq import BLOCK_SAMPLES, DaqConfig, DaqSystem
from repro.traces.schema import PowerTimeline


def flat_timeline(watts=1.0, duration_us=1e6):
    tl = PowerTimeline()
    tl.record(0.0, duration_us, watts)
    return tl


class TestConfig:
    def test_paper_defaults(self):
        cfg = DaqConfig()
        assert cfg.sample_rate_hz == 5000.0
        assert cfg.sample_period_s == pytest.approx(0.0002)
        assert cfg.sense_ohms == 0.02
        assert cfg.adc_bits == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            DaqConfig(sample_rate_hz=0.0)
        with pytest.raises(ValueError):
            DaqConfig(sense_ohms=-1.0)
        with pytest.raises(ValueError):
            DaqConfig(adc_bits=0)
        with pytest.raises(ValueError):
            DaqConfig(adc_full_scale_volts=0.0)
        with pytest.raises(ValueError):
            DaqConfig(adc_full_scale_volts=-0.1)
        with pytest.raises(ValueError):
            DaqConfig(supply_volts=math.nan)
        with pytest.raises(ValueError):
            DaqConfig(noise_rms_watts=-0.01)
        with pytest.raises(ValueError):
            DaqConfig(sample_rate_hz=math.inf)


class TestCapture:
    def test_sample_count(self):
        daq = DaqSystem(seed=0)
        cap = daq.capture(flat_timeline(duration_us=1e6))
        assert len(cap) == 5000

    def test_energy_estimator_converges_to_exact(self):
        tl = flat_timeline(watts=1.4, duration_us=2e6)
        daq = DaqSystem(seed=0)
        cap = daq.capture(tl)
        assert cap.energy_joules() == pytest.approx(tl.energy_joules(), rel=1e-3)

    def test_mean_power(self):
        daq = DaqSystem(seed=0)
        cap = daq.capture(flat_timeline(watts=0.9))
        assert cap.mean_power_w() == pytest.approx(0.9, abs=0.005)

    def test_noise_is_zero_mean(self):
        daq = DaqSystem(DaqConfig(noise_rms_watts=0.01), seed=1)
        cap = daq.capture(flat_timeline(watts=1.0, duration_us=4e6))
        assert float(np.mean(cap.power_w)) == pytest.approx(1.0, abs=0.002)

    def test_noiseless_capture_is_quantized_exact(self):
        daq = DaqSystem(DaqConfig(noise_rms_watts=0.0), seed=0)
        cap = daq.capture(flat_timeline(watts=1.0))
        # All samples equal, within one ADC LSB of the true value.
        assert np.ptp(cap.power_w) == 0.0
        lsb = 0.1 / 2**16 / 0.02 * 3.1
        assert abs(cap.power_w[0] - 1.0) <= lsb / 2

    def test_trigger_window(self):
        tl = PowerTimeline()
        tl.record(0.0, 1e6, 0.5)
        tl.record(1e6, 2e6, 2.0)
        daq = DaqSystem(DaqConfig(noise_rms_watts=0.0), seed=0)
        cap = daq.capture(tl, trigger_us=1e6, stop_us=2e6)
        assert cap.mean_power_w() == pytest.approx(2.0, abs=1e-3)

    def test_empty_window_rejected(self):
        daq = DaqSystem(seed=0)
        with pytest.raises(ValueError):
            daq.capture(flat_timeline(), trigger_us=5e5, stop_us=5e5)

    def test_seeded_reproducibility(self):
        tl = flat_timeline()
        a = DaqSystem(seed=7).capture(tl)
        b = DaqSystem(seed=7).capture(tl)
        assert np.array_equal(a.power_w, b.power_w)

    def test_step_change_visible_in_samples(self):
        tl = PowerTimeline()
        tl.record(0.0, 5e5, 0.5)
        tl.record(5e5, 1e6, 1.5)
        daq = DaqSystem(DaqConfig(noise_rms_watts=0.0), seed=0)
        cap = daq.capture(tl)
        first_half = cap.power_w[cap.times_us < 5e5]
        second_half = cap.power_w[cap.times_us >= 5e5]
        assert np.all(first_half < 1.0)
        assert np.all(second_half > 1.0)

    def test_negative_power_clipped_by_quantizer(self):
        tl = flat_timeline(watts=0.0005)
        daq = DaqSystem(DaqConfig(noise_rms_watts=0.01), seed=3)
        cap = daq.capture(tl)
        assert np.all(cap.power_w >= 0.0)


# -- whole-window reference ----------------------------------------------------
#
# The capture as it was before it streamed in blocks: one pass over the
# whole window, with its offset grid, the timeline's vectorized lookup and
# the quantizer copied verbatim.  It is the oracle the blocked capture must
# match bit for bit.


def reference_sample(segments, times_us):
    """``PowerTimeline.sample`` over the full segment list."""
    if not segments:
        return np.zeros(len(times_us))
    starts = np.array([s for s, _, _ in segments])
    ends = np.array([e for _, e, _ in segments])
    watts = np.array([w for _, _, w in segments])
    n = len(times_us)
    m = len(starts)
    if (
        n > m
        and np.all(starts[1:] >= starts[:-1])
        and np.all(times_us[1:] >= times_us[:-1])
    ):
        first = np.searchsorted(times_us, starts, side="left")
        cut = np.searchsorted(times_us, ends, side="left")
        nxt = np.empty_like(first)
        nxt[:-1] = first[1:]
        nxt[-1] = n
        hi = np.minimum(np.maximum(cut, first), nxt)
        vals = np.zeros(2 * m + 1)
        vals[1::2] = watts
        counts = np.empty(2 * m + 1, dtype=np.intp)
        counts[0] = first[0]
        counts[1::2] = hi - first
        counts[2::2] = nxt - hi
        return np.repeat(vals, counts)
    idx = np.searchsorted(starts, times_us, side="right") - 1
    idx_clipped = np.clip(idx, 0, len(starts) - 1)
    inside = (idx >= 0) & (times_us < ends[idx_clipped])
    return np.where(inside, watts[idx_clipped], 0.0)


def reference_quantize(cfg, power_w):
    lsb_amps = cfg.adc_full_scale_volts / (2**cfg.adc_bits) / cfg.sense_ohms
    lsb_watts = lsb_amps * cfg.supply_volts
    np.divide(power_w, lsb_watts, out=power_w)
    np.round(power_w, out=power_w)
    power_w *= lsb_watts
    np.clip(power_w, 0.0, None, out=power_w)
    return power_w


def reference_capture(cfg, rng, timeline, trigger_us=None, stop_us=None):
    """Whole-window capture; returns ``(times_us, power_w)``."""
    start = timeline.start_us if trigger_us is None else trigger_us
    end = timeline.end_us if stop_us is None else stop_us
    if end <= start:
        raise ValueError("capture window is empty")
    period_us = cfg.sample_period_s * 1e6
    n = int((end - start) / period_us)
    times = start + np.arange(n) * period_us
    exact = reference_sample(list(timeline), times)
    noisy = rng.normal(0.0, cfg.noise_rms_watts, size=n)
    noisy += exact
    quantized = reference_quantize(cfg, noisy)
    return times, quantized


def same_bits(a, b):
    """Bitwise equality of two float arrays (or scalars), -0.0 and NaN
    included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_matches_reference(timeline, cfg=DaqConfig(), seed=0, windows=((None, None),)):
    """Capture each window in turn from one DAQ and from the reference,
    sharing a seed, and compare every output bit for bit.  Consecutive
    windows also check that the noise stream continues identically."""
    daq = DaqSystem(cfg, seed=seed)
    rng = np.random.default_rng(seed)
    period_s = cfg.sample_period_s
    for trigger_us, stop_us in windows:
        cap = daq.capture(timeline, trigger_us, stop_us)
        times, power = reference_capture(cfg, rng, timeline, trigger_us, stop_us)
        assert len(cap) == len(power)
        assert same_bits(cap.power_w, power)
        assert same_bits(cap.times_us, times)
        assert same_bits(cap.energy_joules(), float(np.sum(power) * period_s))
        mean = float(np.mean(power)) if len(power) else 0.0
        assert same_bits(cap.mean_power_w(), mean)


def staircase(n_samples, period_us=200.0, seed=0):
    """A gap-free random power staircase ending half a period after sample
    ``n_samples - 1``, so a default capture takes exactly ``n_samples``."""
    rng = np.random.default_rng(seed)
    end = (n_samples + 0.5) * period_us
    tl = PowerTimeline()
    t = 0.0
    while t < end:
        nxt = min(end, t + rng.uniform(1.0, 1800.0))
        tl.record(t, nxt, float(rng.uniform(0.0, 1.5)))
        t = nxt
    return tl


class TestBlockedCaptureOracle:
    @pytest.mark.parametrize(
        "n",
        [
            1,
            BLOCK_SAMPLES - 1,
            BLOCK_SAMPLES,
            BLOCK_SAMPLES + 1,
            3 * BLOCK_SAMPLES - 1,
            3 * BLOCK_SAMPLES,
            3 * BLOCK_SAMPLES + 1,
        ],
    )
    def test_window_lengths_around_the_block(self, n):
        tl = staircase(n, seed=n)
        assert len(DaqSystem().capture(tl)) == n
        assert_matches_reference(tl, seed=n)

    def test_segment_straddles_block_edge(self):
        edge_us = BLOCK_SAMPLES * 200.0
        tl = PowerTimeline()
        tl.record(0.0, edge_us - 1000.0, 0.4)
        tl.record(edge_us - 1000.0, edge_us + 1000.0, 1.7)
        # A boundary exactly on the first sample of the next block.
        tl.record(edge_us + 1000.0, edge_us + 1200.0, 0.9)
        tl.record(edge_us + 1200.0, 2 * edge_us + 100.0, 0.6)
        assert_matches_reference(tl, seed=3)

    def test_gap_between_segments(self):
        edge_us = BLOCK_SAMPLES * 200.0
        tl = PowerTimeline()
        tl.record(0.0, edge_us - 700.0, 1.1)
        # Unrecorded time across the block edge samples as 0 W.
        tl.record(edge_us + 500.0, edge_us + 40_000.0, 0.8)
        tl.record(edge_us + 90_000.0, 1.5 * edge_us, 1.3)
        assert_matches_reference(tl, seed=4)
        cap = DaqSystem(DaqConfig(noise_rms_watts=0.0)).capture(tl)
        in_gap = (cap.times_us >= edge_us - 700.0) & (cap.times_us < edge_us + 500.0)
        assert in_gap.any() and np.all(cap.power_w[in_gap] == 0.0)

    def test_trigger_and_stop_sub_windows(self):
        tl = staircase(2 * BLOCK_SAMPLES + 77, seed=5)
        end = tl.end_us
        assert_matches_reference(
            tl,
            seed=5,
            windows=[
                (12_345.6, end - 9_876.5),
                (0.5 * end, end),
                (-3_000.0, 0.3 * end),  # starts before recorded time
                (0.9 * end, end + 50_000.0),  # runs past recorded time
                (100.0, 100.0 + 3.5 * 200.0),
            ],
        )

    def test_more_segments_than_samples(self):
        # 5000 segments of 20 us under 500 samples: the per-sample lookup.
        tl = PowerTimeline()
        for k in range(5000):
            tl.record(20.0 * k, 20.0 * (k + 1), 0.5 + (k % 7) * 0.1)
        assert len(tl) > len(DaqSystem().capture(tl))
        assert_matches_reference(tl, seed=6, windows=[(None, None), (3_333.3, 77_777.7)])

    def test_unsorted_starts_take_the_fallback(self):
        # record() tolerates a 1e-6 us overlap, so starts can step back.
        tl = PowerTimeline()
        tl.record(0.0, 500.5, 1.0)
        tl.record(500.5, 500.5 + 2e-9, 2.0)
        tl.record(500.5 + 2e-9 - 9e-7, 2e6, 0.7)
        starts = [s for s, _, _ in tl]
        assert starts[2] < starts[1]
        assert_matches_reference(tl, seed=7)

    def test_blocks_query_the_whole_window_time_grid(self):
        # A time one ulp off the grid only shows in the samples when it
        # lands on a segment boundary, so check the queried times directly.
        class SpyTimeline(PowerTimeline):
            def __init__(self):
                super().__init__()
                self.queried = []

            def sample(self, times_us):
                self.queried.append(times_us.copy())
                return super().sample(times_us)

        cfg = DaqConfig(sample_rate_hz=7000.0)
        tl = SpyTimeline()
        tl.record(0.0, 3e7, 1.0)
        trigger, stop = 12_345.6, 2.9e7
        cap = DaqSystem(cfg).capture(tl, trigger, stop)
        times, _ = reference_capture(cfg, np.random.default_rng(0), tl, trigger, stop)
        assert len(tl.queried) == -(-len(cap) // BLOCK_SAMPLES) > 2
        assert same_bits(np.concatenate(tl.queried), times)

    def test_noiseless_config(self):
        tl = staircase(2 * BLOCK_SAMPLES + 5, seed=8)
        assert_matches_reference(tl, cfg=DaqConfig(noise_rms_watts=0.0), seed=8)

    def test_capture_memory_is_the_output_plus_a_block(self):
        tl = staircase(4 * BLOCK_SAMPLES, seed=9)
        # Warm up outside the trace: the segment view and numpy's
        # one-time allocations are not the capture's.
        DaqSystem(seed=9).capture(tl)
        tracemalloc.start()
        try:
            cap = DaqSystem(seed=9).capture(tl)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cap.power_w.nbytes + 8 * BLOCK_SAMPLES * 8

    @settings(max_examples=40, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(
                st.floats(0.0, 3_000.0),  # gap before the segment, us
                st.floats(1.0, 900_000.0),  # segment length, us
                st.floats(0.0, 2.0),  # watts
            ),
            min_size=1,
            max_size=40,
        ),
        trigger_frac=st.floats(-0.1, 0.9),
        length_frac=st.floats(0.05, 1.2),
        rate_hz=st.sampled_from([5000.0, 7000.0, 20_000.0]),
        noise=st.sampled_from([0.0, 0.002, 0.05]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_on_random_timelines(
        self, segments, trigger_frac, length_frac, rate_hz, noise, seed
    ):
        tl = PowerTimeline()
        t = 0.0
        for gap, length, watts in segments:
            t += gap
            tl.record(t, t + length, watts)
            t += length
        span = tl.end_us - tl.start_us
        trigger = tl.start_us + trigger_frac * span
        stop = trigger + length_frac * span
        cfg = DaqConfig(sample_rate_hz=rate_hz, noise_rms_watts=noise)
        if int((stop - trigger) / (cfg.sample_period_s * 1e6)) > 200_000:
            stop = trigger + 200_000 * cfg.sample_period_s * 1e6
        assert_matches_reference(
            tl, cfg=cfg, seed=seed, windows=[(None, None), (trigger, stop)]
        )
