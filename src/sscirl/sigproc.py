"""Signal conditioning for the oscillation-mitigation loop.

Down-sampling with anti-aliasing, Butterworth band-pass filtering, the
filter stage that chains them (a band-pass at a rate, after the
anti-alias low-pass and decimation when that rate is below the trace's),
the observation window type, and the oscillation-energy functional whose
negation is the training reward. One runner, FilterHead, does all the
filtering: it resumes the stage from where it ended on a trace's first
samples, and downsample is its stage with no band-pass. Which band and rate a
run filters at is the configuration's choice (config.filter_band).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import signal


class TraceError(ValueError):
    """Raised on invalid traces or incompatible operator arguments."""


def _as_finite_array(samples) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim != 1:
        raise TraceError(f"trace samples must be 1-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise TraceError("trace contains non-finite samples")
    return arr


@dataclass
class SignalTrace:
    """Uniformly sampled scalar time series.

    samples are per-unit active power; sample_rate in Hz; t0 is the time
    of the first sample in seconds.
    """

    samples: np.ndarray
    sample_rate: float
    t0: float = 0.0

    def __post_init__(self):
        self.samples = _as_finite_array(self.samples)
        if not (self.sample_rate > 0):
            raise TraceError(f"sample_rate must be positive, got {self.sample_rate}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        """Time span from the first to the last sample."""
        return (len(self) - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self)) / self.sample_rate

    def _require_nonempty(self, op: str):
        if len(self) == 0:
            raise TraceError(f"{op}: empty trace")


@dataclass(frozen=True)
class BandpassSpec:
    """Butterworth band-pass design: pass band [f_min, f_max] Hz, even design order."""

    f_min: float
    f_max: float
    order: int = 4

    def __post_init__(self):
        if not (0 < self.f_min < self.f_max):
            raise TraceError(f"need 0 < f_min < f_max, got ({self.f_min}, {self.f_max})")
        if self.order < 2 or self.order % 2 != 0:
            raise TraceError(f"filter order must be a positive even integer, got {self.order}")


@dataclass
class Observation:
    """Fixed-length processed window fed to the policy."""

    values: np.ndarray
    window_start: float

    def __post_init__(self):
        self.values = _as_finite_array(self.values)


# ---------------------------------------------------------------------------
# operators

ANTI_ALIAS_ORDER = 8
ANTI_ALIAS_REL_CUTOFF = 0.45  # of the target rate


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=64)
def _butter(order: int, cutoff, btype: str, sample_rate: float) -> np.ndarray:
    """Memoised Butterworth design as second-order sections, read-only;
    cutoff is a frequency or a (low, high) tuple. scipy's sosfilt needs a
    writeable buffer, so callers filter with a copy."""
    return _read_only(signal.butter(order, cutoff, btype=btype, fs=sample_rate,
                                    output="sos"))


@lru_cache(maxsize=16)
def _anti_alias(sample_rate: float, target_rate: float) -> tuple:
    """(sos, sosfilt_zi(sos)) of the anti-aliasing low-pass for one rate
    pair, read-only. The zi solve runs once per rate pair."""
    sos = _butter(ANTI_ALIAS_ORDER, ANTI_ALIAS_REL_CUTOFF * target_rate,
                  "lowpass", sample_rate)
    return sos, _read_only(signal.sosfilt_zi(sos))


def decimation_factor(sample_rate: float, target_rate: float) -> int:
    """The integer factor from sample_rate down to target_rate; TraceError
    unless target_rate is positive and divides sample_rate."""
    if not (target_rate > 0):
        raise TraceError(f"target_rate must be positive, got {target_rate}")
    factor = sample_rate / target_rate
    if abs(factor - round(factor)) > 1e-9 or round(factor) < 1:
        raise TraceError(
            f"incompatible rates: {sample_rate} Hz is not an integer "
            f"multiple of {target_rate} Hz"
        )
    return int(round(factor))


def downsample(trace: SignalTrace, target_rate: float) -> SignalTrace:
    """Decimate to target_rate after an anti-aliasing low-pass: the filtered
    trace of filter_head with no band-pass.

    The decimation factor must be an integer. The low-pass is an 8th-order
    Butterworth at 0.45*target_rate, initialized at step steady state so a
    constant trace passes through unchanged (unit DC gain, no start-up
    transient). A trace already at target_rate comes back with its own
    samples.
    """
    trace._require_nonempty("downsample")
    return filter_head(trace, None, target_rate)[1]


def design_bandpass(spec: BandpassSpec, sample_rate: float) -> np.ndarray:
    """Second-order sections of the discrete band-pass (bilinear transform
    with frequency pre-warping, as done by scipy's butter)."""
    nyquist = 0.5 * sample_rate
    if spec.f_max >= nyquist:
        raise TraceError(
            f"band-pass upper cutoff {spec.f_max} Hz violates the Nyquist "
            f"frequency {nyquist} Hz at sample rate {sample_rate} Hz"
        )
    try:
        return _butter(spec.order, (spec.f_min, spec.f_max), "bandpass", sample_rate)
    except ValueError as exc:  # edges a few ulps apart meet once normalised
        raise TraceError(f"band-pass [{spec.f_min}, {spec.f_max}] Hz cannot be "
                         f"designed at {sample_rate} Hz: {exc}") from exc


def bandpass(trace: SignalTrace, spec: BandpassSpec) -> SignalTrace:
    """Causal single-pass Butterworth band-pass with zero initial state:
    filter_head's filtered trace at the trace's own rate."""
    trace._require_nonempty("bandpass")
    return filter_head(trace, spec, trace.sample_rate)[1]


def bandpass_gain(spec: BandpassSpec, sample_rate: float, freqs) -> np.ndarray:
    """Analytic magnitude of the designed discrete filter at the given
    frequencies (Hz). Independent of any time-domain filtering path."""
    sos = design_bandpass(spec, sample_rate)
    _, h = signal.sosfreqz(sos, worN=np.atleast_1d(np.asarray(freqs, dtype=float)),
                           fs=sample_rate)
    return np.abs(h)


def energy(samples: np.ndarray, sample_rate: float, p_nom: float = 0.0) -> float:
    """Trapezoidal integral of (x - p_nom)^2 over samples 1/sample_rate s
    apart."""
    dev = samples - p_nom
    return float(np.trapezoid(dev * dev, dx=1.0 / sample_rate))


def oscillation_energy(trace: SignalTrace, p_nom: float, horizon: float) -> float:
    """The energy of the first `horizon` seconds of the trace: its first
    round(horizon * sample_rate) intervals, which the trace must hold."""
    trace._require_nonempty("oscillation_energy")
    if not np.isfinite(p_nom):
        raise TraceError("p_nom must be finite")
    if not 0 <= horizon < np.inf:
        raise TraceError(f"horizon must be finite and non-negative, got {horizon}")
    # capped at the length, which only has to be exceeded: round(inf) overflows
    n_end = round(min(horizon * trace.sample_rate, len(trace)))
    if n_end > len(trace) - 1:
        raise TraceError(
            f"horizon {horizon} s exceeds trace duration {trace.duration} s"
        )
    return energy(trace.samples[:n_end + 1], trace.sample_rate, p_nom)


# ---------------------------------------------------------------------------
# the filter stage

@dataclass(frozen=True, eq=False)
class FilterHead:
    """A filter stage after a trace's first native samples from t = 0 (none
    at t = 0): those samples (read-only), the filtered samples they gave
    (length, at sample_rate), and the (sos, state) of the band-pass (None:
    no band-pass) and, if the stage decimates by factor, of the anti-alias
    low-pass, whose state before any sample is its steady state per unit
    first sample."""

    samples: np.ndarray
    length: int
    sample_rate: float
    band: tuple | None
    alias: tuple | None
    factor: int

    def filter_on(self, samples: np.ndarray) -> np.ndarray:
        """The filtered samples from index length on of the trace that is
        self.samples followed by samples: one pass's, bit for bit."""
        return self._run(samples)[0]

    def _run(self, samples: np.ndarray) -> tuple:
        """(filtered samples, band, alias) after samples, which follow
        self.samples: the stage's one runner (sosfilt refuses no samples)."""
        seen, band, alias = len(self.samples), self.band, self.alias
        if alias is not None and len(samples):
            sos, state = alias
            smooth, state = signal.sosfilt(sos, samples,
                                           zi=state if seen else state * samples[0])
            alias, samples = (sos, _read_only(state)), smooth[-seen % self.factor::self.factor]
        if band is not None and len(samples):
            samples, state = signal.sosfilt(band[0], samples, zi=band[1])
            band = (band[0], _read_only(state))
        return samples, band, alias


def filter_head(trace: SignalTrace, band: BandpassSpec | None,
                rate: float) -> tuple[FilterHead, SignalTrace]:
    """The FilterHead after trace's samples (at t = 0 for none) and the
    filtered trace they gave: every factor-th sample from the first of the
    anti-alias low-pass's output when rate is below the trace's, then
    band-passed at rate from a zero state unless band is None."""
    alias, factor = None, decimation_factor(trace.sample_rate, rate)
    if factor > 1:
        sos, zi_unit = _anti_alias(trace.sample_rate, rate)
        alias = (sos.copy(), zi_unit)
    if band is not None:
        sos = design_bandpass(band, rate).copy()
        band = (sos, _read_only(np.zeros((len(sos), 2))))
    filtered, band, alias = FilterHead(trace.samples[:0], 0, rate, band, alias,
                                       factor)._run(trace.samples)
    return (FilterHead(_read_only(trace.samples.view()), len(filtered), rate, band, alias,
                       factor), SignalTrace(filtered, rate, trace.t0))


# ---------------------------------------------------------------------------
# CSV serialization

CSV_HEADER = "t,value"


def write_trace_csv(trace: SignalTrace, path) -> None:
    """One row per sample, times with full float precision."""
    times = trace.times()
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for t, x in zip(times, trace.samples):
            fh.write(f"{float(t)!r},{float(x)!r}\n")
