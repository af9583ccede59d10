import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscirl import sigproc
from sscirl.config import (FILTER_STAGES, POST_DECIMATION, PRE_DECIMATION, TrainConfig,
                           filter_band, validate)
from sscirl.plant import PlantScenario
from sscirl.sigproc import (BandpassSpec, Observation, SignalTrace, TraceError,
                            bandpass, bandpass_gain, downsample,
                            oscillation_energy)


def sine(freq, rate, duration, amp=1.0):
    t = np.arange(int(round(duration * rate))) / rate
    return SignalTrace(amp * np.sin(2 * np.pi * freq * t), rate)


def steady_amplitude(trace, settle=0.5):
    i = int(settle * trace.sample_rate)
    return np.max(np.abs(trace.samples[i:]))


class TestTraceValidation:
    def test_rejects_nan(self):
        with pytest.raises(TraceError):
            SignalTrace(np.array([0.0, np.nan]), 100.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(TraceError):
            SignalTrace(np.zeros(4), 0.0)

    def test_empty_trace_rejected_by_operators(self):
        empty = SignalTrace(np.array([]), 100.0)
        with pytest.raises(TraceError):
            downsample(empty, 10.0)


class TestDownsample:
    def test_table_rates(self):
        # 5 kHz, 50 000 samples -> 100 Hz, 1 000 samples
        trace = SignalTrace(np.random.default_rng(0).standard_normal(50000), 5000.0)
        out = downsample(trace, 100.0)
        assert out.sample_rate == 100.0
        assert len(out) == 1000

    def test_constant_invariance(self):
        trace = SignalTrace(np.full(5000, 0.7), 5000.0)
        out = downsample(trace, 100.0)
        assert np.allclose(out.samples, 0.7, atol=1e-12)

    def test_low_frequency_sine_preserved(self):
        # 1 Hz is deep inside the 45 Hz anti-aliasing passband
        out = downsample(sine(1.0, 5000.0, 10.0), 100.0)
        assert abs(steady_amplitude(out, settle=1.0) - 1.0) < 0.01

    def test_incompatible_rates(self):
        trace = sine(1.0, 5000.0, 1.0)
        with pytest.raises(TraceError, match="incompatible rates"):
            downsample(trace, 300.0)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(4000), rng.standard_normal(4000)
        a, b = 1.7, -0.4
        lhs = downsample(SignalTrace(a * x + b * y, 2000.0), 100.0).samples
        rhs = (a * downsample(SignalTrace(x, 2000.0), 100.0).samples
               + b * downsample(SignalTrace(y, 2000.0), 100.0).samples)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


class TestBandpass:
    SPEC = BandpassSpec(15.0, 55.0, 4)

    def test_dc_rejection(self):
        out = bandpass(SignalTrace(np.ones(25000), 5000.0), self.SPEC)
        assert steady_amplitude(out, settle=2.0) <= 1e-3

    def test_inband_gain_matches_transfer_function(self):
        # steady-state amplitude of a 48 Hz sine equals |H| of the design
        out = bandpass(sine(48.0, 5000.0, 20.0), self.SPEC)
        expected = bandpass_gain(self.SPEC, 5000.0, 48.0)[0]
        tail = out.samples[len(out) // 2:]
        measured = np.max(np.abs(tail))
        assert abs(measured - expected) < 1e-6

    def test_stopband_attenuation(self):
        out = bandpass(sine(5.0, 5000.0, 20.0), self.SPEC)
        assert steady_amplitude(out, settle=10.0) <= 0.05

    def test_nyquist_guard_names_frequencies(self):
        with pytest.raises(TraceError, match=r"55.*Nyquist.*50"):
            bandpass(sine(5.0, 100.0, 2.0), self.SPEC)

    def test_odd_order_rejected(self):
        with pytest.raises(TraceError):
            BandpassSpec(15.0, 55.0, 3)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal(5000), rng.standard_normal(5000)
        a, b = 0.3, 2.1
        lhs = bandpass(SignalTrace(a * x + b * y, 5000.0), self.SPEC).samples
        rhs = (a * bandpass(SignalTrace(x, 5000.0), self.SPEC).samples
               + b * bandpass(SignalTrace(y, 5000.0), self.SPEC).samples)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))

    @pytest.mark.parametrize("n", [1, 2, 100, 25001])
    def test_is_one_sosfilt_pass_from_rest(self, n):
        # the stage runner's pass equals sosfilt without initial state
        trace = SignalTrace(NOISE[np.arange(n) % len(NOISE)], 5000.0, t0=1.5)
        mine = bandpass(trace, self.SPEC)
        sos = sigproc.design_bandpass(self.SPEC, 5000.0).copy()
        assert mine.samples.tobytes() == sigproc.signal.sosfilt(sos, trace.samples).tobytes()
        assert (mine.sample_rate, mine.t0) == (5000.0, 1.5)

    def test_impulse_response_decays(self):
        rate = 5000.0
        n = int(10 * rate / self.SPEC.f_min)
        impulse = np.zeros(2 * n)
        impulse[0] = 1.0
        h = bandpass(SignalTrace(impulse, rate), self.SPEC).samples
        assert np.max(np.abs(h[n:2 * n])) < np.max(np.abs(h[:n]))


class TestOscillationEnergy:
    def test_zero_signal(self):
        trace = SignalTrace(np.zeros(1000), 100.0)
        assert oscillation_energy(trace, 0.0, 5.0) == 0.0

    def test_unit_sine_integer_periods(self):
        periods = 96  # exactly 2 s of 48 Hz
        horizon = periods / 48.0
        trace = sine(48.0, 5000.0, horizon + 0.01)
        energy = oscillation_energy(trace, 0.0, horizon)
        assert energy == pytest.approx(horizon / 2, rel=5e-3)

    def test_nominal_offset_cancels(self):
        trace = SignalTrace(np.full(500, 0.3), 100.0)
        assert oscillation_energy(trace, 0.3, 3.0) == 0.0

    def test_horizon_exceeds_trace(self):
        trace = SignalTrace(np.zeros(100), 100.0)
        with pytest.raises(TraceError):
            oscillation_energy(trace, 0.0, 2.0)

    def test_integrates_the_samples_within_the_horizon(self):
        # 0.504 s at 100 Hz rounds to 50 intervals: samples 0 to 50
        x = np.arange(100, dtype=float)
        energy = oscillation_energy(SignalTrace(x, 100.0), 1.0, 0.504)
        assert energy == sigproc.energy(x[:51], 100.0, 1.0)
        assert energy == np.trapezoid((x[:51] - 1.0) ** 2, dx=0.01)

    def test_horizon_is_rounded_to_intervals_before_it_is_checked(self):
        # 51 samples at 100 Hz hold 50 intervals: 0.504 s rounds onto them,
        # 0.506 s rounds to a 51st
        x = np.arange(51, dtype=float)
        trace = SignalTrace(x, 100.0)
        assert oscillation_energy(trace, 1.0, 0.504) == sigproc.energy(x, 100.0, 1.0)
        with pytest.raises(TraceError, match="exceeds trace duration"):
            oscillation_energy(trace, 1.0, 0.506)

    @pytest.mark.parametrize("horizon", [-0.5, -0.001, float("nan"), float("inf"),
                                         float("-inf")])
    def test_horizon_must_be_finite_and_non_negative(self, horizon):
        # 101 ones at 100 Hz: -0.5 s would integrate samples[:-49]
        with pytest.raises(TraceError, match="horizon must be finite and non-negative"):
            oscillation_energy(SignalTrace(np.ones(101), 100.0), 0.0, horizon)

    def test_horizon_past_float_range_of_samples_exceeds_trace(self):
        with pytest.raises(TraceError, match="exceeds trace duration"):
            oscillation_energy(SignalTrace(np.ones(101), 100.0), 0.0, 1e307)
        assert oscillation_energy(SignalTrace(np.ones(101), 100.0), 1.0, 0.0) == 0.0

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(2000)
        e1 = oscillation_energy(SignalTrace(x, 1000.0), 0.0, 1.5)
        e3 = oscillation_energy(SignalTrace(3.0 * x, 1000.0), 0.0, 1.5)
        assert abs(e3 - 9.0 * e1) <= 1e-12 * e3
        assert e1 > 0


class TestPipeline:
    def test_filter_then_decimate_commutes_for_inband_signals(self):
        # spectrum inside [15, min(55, 0.45 * target)]: 20 + 48 Hz content
        rate, target = 5000.0, 1000.0
        t = np.arange(100000) / rate
        x = np.sin(2 * np.pi * 20 * t) + 0.5 * np.sin(2 * np.pi * 48 * t)
        trace = SignalTrace(x, rate)
        spec = BandpassSpec(15.0, 55.0, 4)
        a = downsample(bandpass(trace, spec), target)
        b = bandpass(downsample(trace, target), spec)
        tail = slice(len(a) // 2, None)
        ref = np.max(np.abs(a.samples[tail]))
        assert np.max(np.abs(a.samples[tail] - b.samples[tail])) <= 0.02 * ref

    def test_post_decimation_clamps_and_warns(self):
        # config clamps the band and warns; filter_head runs what it is given
        trace = sine(20.0, 5000.0, 4.0)
        cfg = TrainConfig(filter_stage=POST_DECIMATION)
        with pytest.warns(UserWarning, match="clamped"):
            validate(PlantScenario(), cfg)
        band, rate = filter_band(5000.0, cfg)
        assert (band, rate) == (BandpassSpec(15.0, 47.5, 4), 100.0)
        filtered = sigproc.filter_head(trace, band, rate)[1]
        assert filtered.sample_rate == 100.0

    @pytest.mark.parametrize("rate", [5000.0, 100.0])
    def test_filter_head_warns_at_no_rate(self, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigproc.filter_head(sine(20.0, 5000.0, 1.0), BandpassSpec(15.0, 45.0, 4), rate)

    def test_refuses_a_rate_that_does_not_divide_the_trace_rate(self):
        with pytest.raises(TraceError, match="incompatible rates"):
            sigproc.filter_head(sine(20.0, 5000.0, 1.0), BandpassSpec(15.0, 45.0, 4), 300.0)


def stage_band(stage, spec, target_rate):
    """The (band, rate) config.filter_band gives stage for spec at
    target_rate; stage None is the band-less stage at target_rate."""
    if stage is None:
        return None, target_rate
    return filter_band(5000.0, TrainConfig(
        bandpass_low=spec.f_min, bandpass_high=spec.f_max, bandpass_order=spec.order,
        target_rate=target_rate, filter_stage=stage))


def direct_downsample(trace, rate):
    """The anti-alias decimation written out: one sosfilt of the low-pass
    from its steady state per unit first sample, then every factor-th
    sample from the first (a copy of the samples at the trace's rate)."""
    factor = sigproc.decimation_factor(trace.sample_rate, rate)
    if factor == 1:
        return trace.samples.copy()
    sos, zi = sigproc._anti_alias(trace.sample_rate, rate)
    smooth, _ = sigproc.signal.sosfilt(sos.copy(), trace.samples, zi=zi * trace.samples[0])
    return smooth[::factor]


def by_primitives(trace, band, rate):
    """filter_head's filtered trace composed from direct_downsample and
    bandpass (none when band is None)."""
    decimated = SignalTrace(direct_downsample(trace, rate), rate, trace.t0)
    return decimated if band is None else bandpass(decimated, band)


NOISE = np.random.default_rng(11).standard_normal(1234) + 0.3


class TestFilterStage:
    @pytest.mark.parametrize("stage", FILTER_STAGES + (None,))
    @pytest.mark.parametrize("target_rate", [100.0, 5000.0], ids=["decimating", "unit"])
    def test_filtered_trace_is_the_primitives_bit_for_bit(self, stage, target_rate):
        trace = SignalTrace(NOISE, 5000.0, t0=1.5)
        band_rate = stage_band(stage, BandpassSpec(15.0, 55.0, 4), target_rate)
        mine = sigproc.filter_head(trace, *band_rate)[1]
        ref = by_primitives(trace, *band_rate)
        assert mine.samples.tobytes() == ref.samples.tobytes()
        assert (mine.sample_rate, mine.t0) == (ref.sample_rate, ref.t0)
        if stage is None:  # the band-less stage is downsample
            assert downsample(trace, target_rate).samples.tobytes() == ref.samples.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(stage=st.sampled_from(FILTER_STAGES + (None,)),
           k=st.integers(0, len(NOISE)), cut=st.integers(0, len(NOISE)))
    @example(stage=POST_DECIMATION, k=0, cut=len(NOISE))
    @example(stage=POST_DECIMATION, k=537, cut=len(NOISE))
    @example(stage=PRE_DECIMATION, k=537, cut=len(NOISE))
    @example(stage=None, k=537, cut=len(NOISE))
    def test_head_then_filter_on_is_one_pass(self, stage, k, cut):
        # any split, k = 0 and k off the factor-50 decimation grid included;
        # stage None is the band-less stage, downsample's
        samples = NOISE[:max(k, cut)]
        band_rate = stage_band(stage, BandpassSpec(15.0, 45.0, 4), 100.0)
        head, filtered = sigproc.filter_head(SignalTrace(samples[:k], 5000.0), *band_rate)
        whole = sigproc.filter_head(SignalTrace(samples, 5000.0), *band_rate)[1]
        assert head.length == len(filtered)
        assert np.array_equal(head.samples, samples[:k])
        joined = np.concatenate([filtered.samples, head.filter_on(samples[k:])])
        assert joined.tobytes() == whole.samples.tobytes()
        if len(samples):
            assert whole.samples.tobytes() == by_primitives(
                SignalTrace(samples, 5000.0), *band_rate).samples.tobytes()

    @pytest.mark.parametrize("stage", FILTER_STAGES)
    def test_empty_trace_gives_the_stage_at_t0(self, stage):
        # the anti-alias low-pass starts at the steady state of the first
        # sample it is given: a constant passes unchanged, as in downsample
        band_rate = stage_band(stage, BandpassSpec(15.0, 45.0, 4), 100.0)
        head, filtered = sigproc.filter_head(SignalTrace(np.array([]), 5000.0), *band_rate)
        assert len(filtered) == head.length == len(head.samples) == 0
        assert filtered.sample_rate == head.sample_rate == \
            (100.0 if stage == POST_DECIMATION else 5000.0)
        assert head.filter_on(np.array([])).size == 0
        ref = sigproc.filter_head(SignalTrace(NOISE, 5000.0), *band_rate)[1]
        assert head.filter_on(NOISE).tobytes() == ref.samples.tobytes()
        if stage == POST_DECIMATION:
            sos, state = head.alias
            assert np.array_equal(state, sigproc.signal.sosfilt_zi(sos))

    def test_band_less_filter_on_resumes_the_decimation_phase(self):
        # a split at every offset mod the factor 50, in the first and the
        # second decimation period
        whole = direct_downsample(SignalTrace(NOISE, 5000.0), 100.0).tobytes()
        for k in range(101):
            head, filtered = sigproc.filter_head(SignalTrace(NOISE[:k], 5000.0), None, 100.0)
            assert head.length == len(filtered) == -(-k // 50)
            joined = np.concatenate([filtered.samples, head.filter_on(NOISE[k:])])
            assert joined.tobytes() == whole, k

    def test_filtered_trace_refuses_an_empty_trace(self):
        # filter_head takes one, as the stage at t = 0; bandpass does not
        with pytest.raises(TraceError, match="bandpass: empty trace"):
            bandpass(SignalTrace(np.array([]), 5000.0), BandpassSpec(15.0, 45.0, 4))


class TestDesignCache:
    def test_one_butter_call_per_design(self, monkeypatch):
        calls = []
        butter = sigproc.signal.butter

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return butter(*args, **kwargs)

        monkeypatch.setattr(sigproc.signal, "butter", counting)
        sigproc._butter.cache_clear()
        sigproc._anti_alias.cache_clear()
        trace = sine(20.0, 5000.0, 1.0)
        spec = BandpassSpec(15.0, 55.0, 4)

        def conditioned():
            return downsample(sigproc.filter_head(trace, spec, 5000.0)[1], 100.0)

        first = conditioned()
        for _ in range(3):
            again = conditioned()
        assert len(calls) == 2  # the band-pass and the anti-alias low-pass
        assert np.array_equal(first.samples, again.samples)
        bandpass_gain(spec, 5000.0, [48.0])
        downsample(trace, 100.0)
        assert len(calls) == 2
        bandpass(trace, BandpassSpec(10.0, 60.0, 4))
        downsample(trace, 500.0)
        assert len(calls) == 4

    def test_designs_are_read_only(self):
        spec = BandpassSpec(15.0, 55.0, 4)
        sos = sigproc.design_bandpass(spec, 5000.0)
        aa_sos, aa_zi = sigproc._anti_alias(5000.0, 100.0)
        for arr in (sos, aa_sos, aa_zi):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 0.0
        fresh = sigproc.signal.butter(4, [15.0, 55.0], btype="bandpass", fs=5000.0,
                                      output="sos")
        assert np.array_equal(sos, fresh)
        assert np.array_equal(aa_zi, sigproc.signal.sosfilt_zi(aa_sos))


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path):
        trace = sine(7.0, 5000.0, 1.0)
        path = tmp_path / "trace.csv"
        sigproc.write_trace_csv(trace, path)
        assert path.read_text().startswith(sigproc.CSV_HEADER + "\n")
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert back[:, 0].tobytes() == trace.times().tobytes()
        assert back[:, 1].tobytes() == trace.samples.tobytes()
