"""The data-acquisition (DAQ) model (§4.1).

The paper's setup: the Itsy runs from an external supply; the DAQ records
the supply voltage and the voltage drop across a 0.02 ohm precision sense
resistor 5000 times per second as 16-bit values, streamed to a host.  The
workload toggles a GPIO wired to the DAQ's external trigger, so recording
windows align with execution.  Instantaneous power is ``V * I``; energy is
the rectangle sum over samples.

Our simulated machine produces an exact power signal
(:class:`~repro.traces.schema.PowerTimeline`); the DAQ model re-creates the
*measurement* of it: periodic sampling, quantization to the 16-bit ADC
grid, and small Gaussian front-end noise.  Tests verify the estimator
converges to the exact integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.traces.schema import PowerTimeline

#: Samples processed per step of :meth:`DaqSystem.capture`.  Each block's
#: times, exact signal and noise (256 KiB apiece) stay cache-sized, so a
#: capture's only window-sized allocation is its ``power_w`` output.
BLOCK_SAMPLES = 1 << 15


@dataclass(frozen=True)
class DaqConfig:
    """DAQ front-end parameters (paper values as defaults).

    Attributes:
        sample_rate_hz: samples per second (5000).
        supply_volts: external supply voltage (3.1 V on the Itsy bench).
        sense_ohms: sense resistor (0.02 ohm).
        adc_bits: converter resolution (16).
        adc_full_scale_volts: ADC input range for the sense-drop channel.
        noise_rms_watts: white measurement noise, as power-equivalent RMS.
    """

    sample_rate_hz: float = 5000.0
    supply_volts: float = 3.1
    sense_ohms: float = 0.02
    adc_bits: int = 16
    adc_full_scale_volts: float = 0.1
    noise_rms_watts: float = 0.002

    def __post_init__(self) -> None:
        values = (
            self.sample_rate_hz,
            self.supply_volts,
            self.sense_ohms,
            self.adc_full_scale_volts,
            self.noise_rms_watts,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError("DAQ parameters must be finite")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if self.sense_ohms <= 0 or self.supply_volts <= 0:
            raise ValueError("supply and sense resistor must be positive")
        if not 1 <= self.adc_bits <= 24:
            raise ValueError("adc_bits out of range")
        if self.adc_full_scale_volts <= 0:
            raise ValueError("ADC full scale must be positive")
        if self.noise_rms_watts < 0:
            raise ValueError("noise RMS cannot be negative")

    @property
    def sample_period_s(self) -> float:
        """Seconds between samples (0.0002 s in the paper)."""
        return 1.0 / self.sample_rate_hz


@dataclass(frozen=True)
class DaqCapture:
    """One triggered recording window.

    Attributes:
        start_us: time of the first sample (the trigger).
        power_w: measured power samples (quantized, noisy).
        config: the DAQ configuration that produced it.
    """

    start_us: float
    power_w: np.ndarray
    config: DaqConfig

    @property
    def times_us(self) -> np.ndarray:
        """Sample timestamps, rebuilt on each access from the trigger time."""
        period_us = self.config.sample_period_s * 1e6
        return self.start_us + np.arange(len(self.power_w)) * period_us

    def __len__(self) -> int:
        return len(self.power_w)

    def energy_joules(self) -> float:
        """The paper's estimator: ``sum(p_i) * sample_period``."""
        return float(np.sum(self.power_w) * self.config.sample_period_s)

    def mean_power_w(self) -> float:
        """Average of the power samples."""
        if len(self.power_w) == 0:
            return 0.0
        return float(np.mean(self.power_w))


class DaqSystem:
    """Samples a simulated power signal the way the paper's DAQ does."""

    def __init__(self, config: DaqConfig = DaqConfig(), seed: Optional[int] = 0):
        self.config = config
        self._rng = np.random.default_rng(seed)

    def capture(
        self,
        timeline: PowerTimeline,
        trigger_us: Optional[float] = None,
        stop_us: Optional[float] = None,
    ) -> DaqCapture:
        """Record the window between the trigger and stop GPIO toggles.

        Args:
            timeline: the machine's exact power signal.
            trigger_us: window start (defaults to the timeline start).
            stop_us: window end (defaults to the timeline end).

        Returns:
            The captured samples, quantized and with front-end noise.
        """
        cfg = self.config
        start = timeline.start_us if trigger_us is None else trigger_us
        end = timeline.end_us if stop_us is None else stop_us
        if end <= start:
            raise ValueError("capture window is empty")
        period_us = cfg.sample_period_s * 1e6
        n = int((end - start) / period_us)
        power_w = np.empty(n)
        # The window is streamed in blocks, the way the bench DAQ streams
        # to its host.  Every sample's value comes from the same
        # operations as in a whole-window pass: its time is
        # ``start + k * period_us`` (a float ``arange`` holds each integer
        # k exactly), its noise the next draw of one generator, and
        # sampling and quantizing are elementwise.  Adding the exact
        # signal into the noise block (float addition commutes bitwise)
        # writes each block straight into its slice of the output.
        for i in range(0, n, BLOCK_SAMPLES):
            j = min(i + BLOCK_SAMPLES, n)
            times = np.arange(i, j, dtype=float)
            times *= period_us
            times += start
            noisy = self._rng.normal(0.0, cfg.noise_rms_watts, size=j - i)
            block = power_w[i:j]
            np.add(noisy, timeline.sample(times), out=block)
            self._quantize(block)
        return DaqCapture(start_us=start, power_w=power_w, config=cfg)

    def _quantize(self, power_w: np.ndarray) -> np.ndarray:
        """Quantize power to the 16-bit sense-channel grid, in place.

        The ADC digitizes the sense-resistor drop ``V_sense = I * R``; the
        power LSB is therefore ``V_supply * full_scale / (R * 2^bits)``.
        The input buffer is consumed as scratch and returned.
        """
        cfg = self.config
        lsb_amps = cfg.adc_full_scale_volts / (2**cfg.adc_bits) / cfg.sense_ohms
        lsb_watts = lsb_amps * cfg.supply_volts
        np.divide(power_w, lsb_watts, out=power_w)
        np.round(power_w, out=power_w)
        power_w *= lsb_watts
        np.clip(power_w, 0.0, None, out=power_w)
        return power_w
