"""Trace record types.

These mirror the instrumentation the paper added to the Itsy:

- the *process scheduler activity log* (kernel module, §4.3): process id,
  time with microsecond resolution, current clock rate;
- the per-quantum CPU-utilization accounting read by the clock-scaling
  module on every clock interrupt;
- the clock/voltage change history of the governor;
- application-level events (frame displayed, speech chunk played, input
  event handled) used to check the paper's "no visible behaviour change"
  criterion;
- the continuous power signal that the DAQ samples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SchedDecision:
    """One entry of the scheduler activity log (paper §4.3)."""

    time_us: float
    pid: int
    name: str
    mhz: float


@dataclass(frozen=True)
class QuantumRecord:
    """Utilization accounting for one 10 ms scheduling quantum.

    Attributes:
        end_us: time of the clock interrupt closing the quantum.
        busy_us: non-idle execution time within the quantum (includes
            spinning and the forced-scheduler overhead).
        quantum_us: nominal quantum length.
        step_index: clock-step index in effect during the quantum.
        mhz: clock frequency during the quantum.
        volts: core voltage during the quantum.
    """

    end_us: float
    busy_us: float
    quantum_us: float
    step_index: int
    mhz: float
    volts: float

    @property
    def utilization(self) -> float:
        """Busy fraction of the quantum, clamped to [0, 1]."""
        if self.quantum_us <= 0:
            return 0.0
        return max(0.0, min(1.0, self.busy_us / self.quantum_us))

    @property
    def start_us(self) -> float:
        """Start time of the quantum."""
        return self.end_us - self.quantum_us


@dataclass(frozen=True)
class FreqChange:
    """A clock-frequency change applied by the governor."""

    time_us: float
    from_mhz: float
    to_mhz: float
    stall_us: float


@dataclass(frozen=True)
class VoltChange:
    """A core-voltage change applied by the governor."""

    time_us: float
    from_volts: float
    to_volts: float
    settle_us: float


@dataclass(frozen=True)
class AppEvent:
    """An application-level event with deadline bookkeeping.

    Attributes:
        time_us: when the event actually completed.
        pid: process that produced it.
        kind: event name, e.g. ``"frame"``, ``"audio_chunk"``,
            ``"speech_chunk"``, ``"ui_response"``.
        deadline_us: when it should have completed (None if no deadline).
        payload: free-form tag (e.g. frame number).
    """

    time_us: float
    pid: int
    kind: str
    deadline_us: Optional[float] = None
    payload: Optional[float] = None

    @property
    def lateness_us(self) -> float:
        """How late the event was (0 if on time or no deadline)."""
        if self.deadline_us is None:
            return 0.0
        return max(0.0, self.time_us - self.deadline_us)

    @property
    def on_time(self) -> bool:
        """True if the event met its deadline (or had none)."""
        return self.lateness_us <= 0.0


class PowerTimeline:
    """The continuous power signal produced by the simulated machine.

    Stored as contiguous segments ``(start_us, end_us, watts)``.  Adjacent
    segments with equal power are merged, so typical 60 s runs stay small.
    The DAQ model (:mod:`repro.measure.daq`) samples this signal; the exact
    energy integral is also available directly for validation.
    """

    def __init__(self) -> None:
        self._segments: List[Tuple[float, float, float]] = []
        self._columns: Optional[Tuple[np.ndarray, bool]] = None

    def record(self, start_us: float, end_us: float, watts: float) -> None:
        """Append a segment.  Zero-length segments are ignored.

        Raises:
            ValueError: if the segment overlaps or precedes recorded time,
                or has negative power.
        """
        if end_us <= start_us + 1e-9:
            return
        if watts < 0:
            raise ValueError("power cannot be negative")
        self._columns = None
        if self._segments:
            last_start, last_end, last_w = self._segments[-1]
            if start_us < last_end - 1e-6:
                raise ValueError(
                    f"segment at {start_us} overlaps previous ending {last_end}"
                )
            if abs(last_end - start_us) < 1e-6 and abs(last_w - watts) < 1e-12:
                self._segments[-1] = (last_start, end_us, last_w)
                return
        self._segments.append((start_us, end_us, watts))

    def __len__(self) -> int:
        return len(self._segments)

    def __iter__(self) -> Iterator[Tuple[float, float, float]]:
        return iter(self._segments)

    @property
    def start_us(self) -> float:
        """Start of recorded time (0.0 if empty)."""
        return self._segments[0][0] if self._segments else 0.0

    @property
    def end_us(self) -> float:
        """End of recorded time (0.0 if empty)."""
        return self._segments[-1][1] if self._segments else 0.0

    def power_at(self, t_us: float) -> float:
        """Instantaneous power at time ``t_us``.

        Returns 0.0 outside the recorded range.  Gap-free recording is the
        normal case; queries inside an (unexpected) gap return the next
        segment's power only if ``t_us`` falls inside a segment.
        """
        lo, hi = 0, len(self._segments) - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            start, end, watts = self._segments[mid]
            if t_us < start:
                hi = mid - 1
            elif t_us >= end:
                lo = mid + 1
            else:
                return watts
        return 0.0

    def _view(self) -> Tuple[np.ndarray, bool]:
        """The segments as one ``(3, m)`` array, and whether starts ascend.

        Rows are the segment starts, ends and watts (each contiguous).
        Built once from the segment list and cached until the next
        :meth:`record`; every vectorized query reads it.
        """
        if self._columns is None:
            m = len(self._segments)
            flat = np.fromiter(
                itertools.chain.from_iterable(self._segments),
                dtype=float,
                count=3 * m,
            )
            columns = flat.reshape(m, 3).T.copy()
            starts = columns[0]
            self._columns = (columns, bool(np.all(starts[1:] >= starts[:-1])))
        return self._columns

    def sample(self, times_us: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`power_at` for an ascending array of times.

        Times outside the recorded range (or in gaps) sample as 0.0.
        """
        n = len(times_us)
        if not self._segments:
            return np.zeros(n)
        columns, ascending = self._view()
        starts, ends, watts = columns
        if ascending and n and np.all(times_us[1:] >= times_us[:-1]):
            # A sample takes segment j exactly when j is the last segment
            # with start <= t and t < end_j.  With both arrays ascending
            # only segments first_seg..last_seg can qualify: the last one
            # starting at or before the first time, through the last one
            # starting at or before the last time.
            first_seg, last_seg = np.searchsorted(
                starts, (times_us[0], times_us[-1]), side="right"
            ) - 1
            if last_seg < 0:
                return np.zeros(n)
            starts, ends, watts = columns[:, max(first_seg, 0) : last_seg + 1]
            m = len(starts)
            if n > m:
                # Slice-fill: bisect each segment boundary into the time
                # grid once (O(m log n)) instead of bisecting every sample
                # into the segment list (O(n log m)); the filled values
                # are identical to the per-sample lookup below.
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

    def energy_joules(
        self, start_us: Optional[float] = None, end_us: Optional[float] = None
    ) -> float:
        """Exact integral of power over [start_us, end_us], in joules."""
        if start_us is None:
            start_us = self.start_us
        if end_us is None:
            end_us = self.end_us
        segments = self._segments
        if segments and start_us <= segments[0][0] and end_us >= segments[-1][1]:
            # Whole-timeline integral (the common case): segments ascend,
            # so no clamping is needed.  ``cumsum`` adds strictly left to
            # right, the order of a ``total += ...`` loop, so the total is
            # bitwise equal to it; the leading ``0.0 +`` is that loop's
            # initial value (it only turns a sum of -0.0 terms into 0.0).
            starts, ends, watts = self._view()[0]
            return 0.0 + float(np.cumsum(watts * (ends - starts) * 1e-6)[-1])
        total = 0.0
        for seg_start, seg_end, watts in segments:
            a = max(seg_start, start_us)
            b = min(seg_end, end_us)
            if b > a:
                total += watts * (b - a) * 1e-6
        return total

    def mean_power_w(
        self, start_us: Optional[float] = None, end_us: Optional[float] = None
    ) -> float:
        """Average power over the window, in watts."""
        if start_us is None:
            start_us = self.start_us
        if end_us is None:
            end_us = self.end_us
        duration_s = (end_us - start_us) * 1e-6
        if duration_s <= 0:
            return 0.0
        return self.energy_joules(start_us, end_us) / duration_s
