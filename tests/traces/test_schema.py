"""Tests for trace record types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.schema import AppEvent, PowerTimeline, QuantumRecord


class TestQuantumRecord:
    def test_utilization(self):
        q = QuantumRecord(10_000.0, 2_500.0, 10_000.0, 5, 132.7, 1.5)
        assert q.utilization == pytest.approx(0.25)
        assert q.start_us == 0.0

    def test_utilization_clamped(self):
        q = QuantumRecord(10_000.0, 12_000.0, 10_000.0, 5, 132.7, 1.5)
        assert q.utilization == 1.0

    def test_zero_quantum(self):
        q = QuantumRecord(0.0, 0.0, 0.0, 0, 59.0, 1.5)
        assert q.utilization == 0.0


class TestAppEvent:
    def test_on_time(self):
        e = AppEvent(time_us=900.0, pid=1, kind="frame", deadline_us=1000.0)
        assert e.on_time
        assert e.lateness_us == 0.0

    def test_late(self):
        e = AppEvent(time_us=1500.0, pid=1, kind="frame", deadline_us=1000.0)
        assert not e.on_time
        assert e.lateness_us == 500.0

    def test_no_deadline(self):
        e = AppEvent(time_us=1.0, pid=1, kind="tick")
        assert e.on_time


class TestPowerTimeline:
    def test_record_and_query(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        tl.record(100.0, 200.0, 2.0)
        assert tl.power_at(50.0) == 1.0
        assert tl.power_at(150.0) == 2.0
        assert tl.power_at(250.0) == 0.0
        assert tl.power_at(-10.0) == 0.0

    def test_adjacent_equal_segments_merge(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        tl.record(100.0, 200.0, 1.0)
        assert len(tl) == 1

    def test_zero_length_ignored(self):
        tl = PowerTimeline()
        tl.record(5.0, 5.0, 1.0)
        assert len(tl) == 0

    def test_overlap_rejected(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        with pytest.raises(ValueError):
            tl.record(50.0, 150.0, 2.0)

    def test_negative_power_rejected(self):
        tl = PowerTimeline()
        with pytest.raises(ValueError):
            tl.record(0.0, 1.0, -1.0)

    def test_energy_integral(self):
        tl = PowerTimeline()
        tl.record(0.0, 1e6, 2.0)  # 2 W for 1 s
        tl.record(1e6, 2e6, 1.0)  # 1 W for 1 s
        assert tl.energy_joules() == pytest.approx(3.0)
        assert tl.energy_joules(5e5, 1.5e6) == pytest.approx(1.5)
        assert tl.mean_power_w() == pytest.approx(1.5)

    def test_energy_empty_window(self):
        tl = PowerTimeline()
        tl.record(0.0, 1e6, 2.0)
        assert tl.mean_power_w(1e6, 1e6) == 0.0

    def test_bounds(self):
        tl = PowerTimeline()
        assert tl.start_us == 0.0 and tl.end_us == 0.0
        tl.record(10.0, 20.0, 1.0)
        assert tl.start_us == 10.0
        assert tl.end_us == 20.0

    def test_sample_matches_power_at(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        tl.record(100.0, 200.0, 3.0)
        times = np.array([-5.0, 0.0, 99.9, 100.0, 199.9, 200.0, 300.0])
        sampled = tl.sample(times)
        expected = [tl.power_at(t) for t in times]
        assert list(sampled) == pytest.approx(expected)

    def test_sample_empty_timeline(self):
        tl = PowerTimeline()
        assert list(tl.sample(np.array([1.0, 2.0]))) == [0.0, 0.0]

    def test_boundary_belongs_to_next_segment(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        tl.record(100.0, 200.0, 2.0)
        assert tl.power_at(100.0) == 2.0


def loop_energy(segments):
    """The whole-timeline integral as a scalar left-to-right loop (the
    oracle for the vectorized ``energy_joules``)."""
    total = 0.0
    for seg_start, seg_end, watts in segments:
        total += watts * (seg_end - seg_start) * 1e-6
    return total


def bits(x):
    return np.float64(x).tobytes()


segment_lists = st.lists(
    st.tuples(
        st.floats(0.0, 5_000.0),  # gap before the segment, us
        st.floats(1e-3, 2e6),  # segment length, us
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)),  # watts
    ),
    min_size=1,
    max_size=60,
)


def build(segments):
    tl = PowerTimeline()
    t = 0.0
    for gap, length, watts in segments:
        t += gap
        tl.record(t, t + length, watts)
        t += length
    return tl


class TestVectorizedViews:
    @settings(max_examples=200, deadline=None)
    @given(segment_lists)
    def test_whole_timeline_energy_matches_scalar_loop(self, segments):
        tl = build(segments)
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))
        # The window that covers everything takes the same branch.
        assert bits(tl.energy_joules(tl.start_us - 1.0, tl.end_us + 1.0)) == bits(
            loop_energy(list(tl))
        )

    def test_single_and_zero_watt_segments(self):
        tl = PowerTimeline()
        tl.record(3.0, 7.5, 0.0)
        assert bits(tl.energy_joules()) == bits(0.0)
        tl = PowerTimeline()
        tl.record(0.0, 1e6, -0.0)  # -0.0 W passes the negativity check
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))
        tl = PowerTimeline()
        tl.record(10.0, 123_456.7, 1.25)
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))

    @settings(max_examples=100, deadline=None)
    @given(segment_lists, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80))
    def test_sample_matches_power_at(self, segments, fracs):
        tl = build(segments)
        span = tl.end_us - tl.start_us
        times = np.sort(
            np.array([tl.start_us - 10.0 + f * (span + 20.0) for f in fracs])
        )
        expected = [tl.power_at(t) for t in times]
        assert bits(tl.sample(times)) == bits(np.array(expected))
        # Fewer times than segments: the per-sample lookup path.
        assert bits(tl.sample(times[:3])) == bits(np.array(expected[:3]))

    def test_record_after_sample_invalidates_the_view(self):
        tl = PowerTimeline()
        tl.record(0.0, 100.0, 1.0)
        times = np.array([50.0, 150.0])
        assert list(tl.sample(times)) == [1.0, 0.0]
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))
        tl.record(100.0, 200.0, 2.0)  # a new segment
        assert list(tl.sample(times)) == [1.0, 2.0]
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))
        tl.record(200.0, 300.0, 2.0)  # merged into the last segment
        assert len(tl) == 2
        assert list(tl.sample(np.array([250.0]))) == [2.0]
        assert bits(tl.energy_joules()) == bits(loop_energy(list(tl)))
