import math
import sys
import threading
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sscirl import plant
from sscirl.plant import (DivergedError, PlantError, PlantScenario, PlantState,
                          damping_of_gain, initial_state, measure, mode_eigenvalues,
                          run_episode, step, transition)

# the stated calibration anchors: damping ratio 0.05 at the nominal gain
ANCHOR = PlantScenario(zeta_stable=0.05)
DEFAULT = PlantScenario()
# diverges soon after the mistune, before act_time
DIVERGING = {"zeta_stable": 0.05, "diverge_threshold": 20.0}
# unstable above kp 1.0 and mistuned late: diverges after act_time, at kp 2
# near 6.2 s and at kp 1.5 near 7.3 s (seed 3)
MIXED = {"kp_stable": 0.5, "kp_crit": 1.0, "mistune_time": 4.5, "diverge_threshold": 10.0}
K_ACT = round(DEFAULT.act_time / DEFAULT.sim_dt)


class TestDampingMap:
    def test_stable_anchor(self):
        assert damping_of_gain(ANCHOR, 2.0) == pytest.approx(0.05)

    def test_zero_crossing(self):
        assert damping_of_gain(ANCHOR, 3.0) == 0.0

    def test_unstable_anchor(self):
        assert damping_of_gain(ANCHOR, 4.0) == pytest.approx(-0.05)

    def test_strictly_decreasing(self):
        gains = np.linspace(0.5, 4.0, 50)
        zetas = [damping_of_gain(DEFAULT, g) for g in gains]
        assert all(a > b for a, b in zip(zetas, zetas[1:]))


class TestEigenvalues:
    def test_stable_gain(self):
        lam, conj = mode_eigenvalues(ANCHOR, 2.0)
        assert lam.real < 0 and conj == lam.conjugate()

    def test_marginal_gain(self):
        lam, _ = mode_eigenvalues(ANCHOR, 3.0)
        assert abs(lam.real) < 1e-12

    def test_unstable_gain_at_mode_frequency(self):
        lam, conj = mode_eigenvalues(ANCHOR, 4.0)
        assert lam.real > 0
        assert abs(lam.imag) == pytest.approx(2 * math.pi * 48, rel=2e-3)
        assert conj.imag == -lam.imag

    def test_overdamped_gain_gives_real_pair(self):
        scn = PlantScenario(zeta_stable=0.9)
        zeta = damping_of_gain(scn, 0.5)
        assert zeta == pytest.approx(2.25)
        lam1, lam2 = mode_eigenvalues(scn, 0.5)
        w = scn.omega
        assert lam1.imag == lam2.imag == 0.0
        assert lam1.real == pytest.approx(-zeta * w + w * math.sqrt(zeta ** 2 - 1))
        assert lam2.real == pytest.approx(-zeta * w - w * math.sqrt(zeta ** 2 - 1))
        # the characteristic polynomial: product w^2, sum -2*zeta*w
        assert (lam1 * lam2).real == pytest.approx(w * w)
        assert (lam1 + lam2).real == pytest.approx(-2 * zeta * w)

    # zeta = 25,000 and -5,000: -zeta*w + w*sqrt(zeta^2 - 1), the root
    # nearer zero, cancels to a relative error of 1.6e-8 and 5.7e-9
    @pytest.mark.parametrize("kp", [0.5, 3.5])
    def test_strongly_overdamped_roots_match_decimal_reference(self, kp):
        scn = PlantScenario(zeta_stable=1e4)
        zeta, w = damping_of_gain(scn, kp), scn.omega
        with localcontext() as ctx:
            ctx.prec = 50
            z, dw = Decimal(zeta), Decimal(w)
            r = dw * (z * z - 1).sqrt()
            want = (-z * dw + r, -z * dw - r)
            for got, ref in zip(mode_eigenvalues(scn, kp), want):
                assert got.imag == 0.0
                assert abs((Decimal(got.real) - ref) / ref) <= Decimal("1e-14")

    def test_discretization_matches_eigenvalues(self):
        # one-step transition eigenvalue magnitude = exp(-zeta*omega*dt)
        for kp in (0.5, 2.0, 3.0, 4.0):
            a11, a12, a21, a22, _, _ = transition(DEFAULT, kp)
            eig = np.linalg.eigvals(np.array([[a11, a12], [a21, a22]]))
            zeta = damping_of_gain(DEFAULT, kp)
            expected = math.exp(-zeta * DEFAULT.omega * DEFAULT.sim_dt)
            assert np.max(np.abs(np.abs(eig) - expected)) < 1e-10


def _expm_reference(omega, zeta, dt):
    """(a11, a12, a21, a22, b1, b2) from expm of the augmented 3x3 matrix."""
    from scipy import linalg
    m = np.zeros((3, 3))
    m[0, 1] = 1.0
    m[1, 0] = -omega * omega
    m[1, 1] = -2.0 * zeta * omega
    m[1, 2] = 1.0
    em = linalg.expm(m * dt)
    return np.array([em[0, 0], em[0, 1], em[1, 0], em[1, 1], em[0, 2], em[1, 2]])


ZETAS = [float(z) for z in np.linspace(-2.0, 1.5, 15)]  # includes 0 and 1


class TestClosedFormDiscretization:
    @pytest.mark.parametrize("omega, dt", [
        (DEFAULT.omega, DEFAULT.sim_dt),
        (DEFAULT.omega, 5e-3),
        # 1 - a11 ~ 2e-10: (1 - a11)/omega^2 alone would cancel to ~1e-6
        (2.0, 1e-5),
    ])
    def test_matches_expm(self, omega, dt):
        assert 0.0 in ZETAS and 1.0 in ZETAS
        for zeta in ZETAS:
            got = np.array(plant._discretize(omega, zeta, dt))
            ref = _expm_reference(omega, zeta, dt)
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)), (zeta, got, ref)

    def test_default_gains_match_expm(self):
        for kp in np.linspace(0.5, 4.0, 71):
            zeta = damping_of_gain(DEFAULT, kp)
            got = np.array(transition(DEFAULT, kp))
            ref = _expm_reference(DEFAULT.omega, zeta, DEFAULT.sim_dt)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    # zeta_stable at kp_stable, -zeta_stable at kp_unstable; zeta = 25,000
    # at kp_min = 0.5, where cosh(r*dt) alone overflows
    @pytest.mark.parametrize("zeta_stable, kp", [
        (1.05, 2.0), (2.0, 2.0), (50.0, 2.0), (1500.0, 2.0), (1e4, 0.5),
        (1.05, 4.0), (50.0, 4.0)])
    def test_strongly_damped_gains_match_expm(self, zeta_stable, kp):
        scn = PlantScenario(zeta_stable=zeta_stable)
        got = np.array(transition(scn, kp))
        ref = _expm_reference(scn.omega, damping_of_gain(scn, kp), scn.sim_dt)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("zeta_stable, kp", [
        (0.05, 2.0),    # underdamped
        (0.5, 1.0),     # critical: zeta = 1
        (0.9, 0.5),     # overdamped: zeta = 2.25
        (0.05, 4.0),    # unstable
        (0.9, 4.5),     # unstable and overdamped: zeta = -1.35
    ])
    def test_eigenvalues_are_exp_lambda_dt(self, zeta_stable, kp):
        scn = PlantScenario(zeta_stable=zeta_stable)
        a11, a12, a21, a22, _, _ = transition(scn, kp)
        got = np.sort_complex(np.linalg.eigvals(np.array([[a11, a12], [a21, a22]])))
        lam = mode_eigenvalues(scn, kp)
        want = np.sort_complex(np.exp(np.array(lam) * scn.sim_dt))
        # a repeated eigenvalue is perturbed by ~sqrt(eps)
        tol = 1e-7 if damping_of_gain(scn, kp) == 1.0 else 1e-12
        assert np.allclose(got, want, rtol=0, atol=tol)


class TestStep:
    def test_time_bookkeeping(self):
        state = initial_state(DEFAULT)
        out = step(state, DEFAULT)
        assert out.t == state.t + DEFAULT.sim_dt

    def test_envelope_decay_over_one_second(self):
        scn = DEFAULT
        state = PlantState(0.0, np.array([scn.disturbance_amp, 0.0]), 2.0)
        n = int(round(1.0 / scn.sim_dt))
        # track the energy-based envelope a^2 = x^2 + (v/omega)^2
        def envelope(s):
            return math.hypot(s.mode_state[0], s.mode_state[1] / scn.omega)
        start = envelope(state)
        for _ in range(n):
            state = step(state, scn)
        zeta = damping_of_gain(scn, 2.0)
        expected = start * math.exp(-zeta * scn.omega * 1.0)
        assert envelope(state) == pytest.approx(expected, rel=0.01)

    def test_lossless_at_critical_gain(self):
        a11, a12, a21, a22, _, _ = transition(DEFAULT, DEFAULT.kp_crit)
        eig = np.linalg.eigvals(np.array([[a11, a12], [a21, a22]]))
        assert np.max(np.abs(np.abs(eig) - 1.0)) < 1e-12

    def test_divergence_error_carries_time(self):
        scn = PlantScenario(zeta_stable=0.05, diverge_threshold=1e-3)
        state = PlantState(0.0, np.array([0.02, 0.0]), scn.kp_unstable)
        with pytest.raises(DivergedError) as err:
            for _ in range(200000):
                state = step(state, scn)
        assert err.value.t >= 0


class TestApplyGain:
    """A gain switch is the state with another active_kp, as the protocol
    server's set_gain makes it."""

    def test_state_continuous_across_switch(self):
        state = PlantState(1.0, np.array([0.01, -0.3]), 2.0)
        out = replace(state, active_kp=4.0)
        assert out.active_kp == 4.0
        assert np.array_equal(out.mode_state, state.mode_state)
        assert out.t == state.t

    def test_idempotent_reapply(self):
        scn = DEFAULT
        s1 = initial_state(scn)
        s2 = replace(s1, active_kp=s1.active_kp)
        for _ in range(100):
            s1 = step(s1, scn)
            s2 = step(s2, scn)
        assert np.array_equal(s1.mode_state, s2.mode_state)

    def test_mistuned_gain_grows_envelope(self):
        scn = DEFAULT
        state = replace(initial_state(scn), active_kp=scn.kp_unstable)
        start = np.linalg.norm(state.mode_state)
        for _ in range(int(2.0 / scn.sim_dt)):
            state = step(state, scn)
        assert np.linalg.norm(state.mode_state) > start


class TestMeasure:
    def test_zero_mode_reads_nominal(self):
        state = PlantState(0.0, np.zeros(2), 2.0)
        assert measure(state, DEFAULT) == DEFAULT.p_nom

    def test_mode_displacement_added(self):
        state = PlantState(0.0, np.array([0.02, 0.0]), 2.0)
        assert measure(state, DEFAULT) == pytest.approx(DEFAULT.p_nom + 0.02)

    def test_stable_run_oscillates_at_mode_frequency(self):
        result = run_episode(DEFAULT, 2.0, seed=5)
        dev = result.trace.samples - DEFAULT.p_nom
        spectrum = np.abs(np.fft.rfft(dev * np.hanning(len(dev))))
        freqs = np.fft.rfftfreq(len(dev), d=DEFAULT.sim_dt)
        assert freqs[np.argmax(spectrum)] == pytest.approx(48.0, abs=0.5)


class TestRunEpisode:
    def test_sample_count_and_rate(self):
        result = run_episode(DEFAULT, 2.0, seed=0)
        assert len(result.trace) == int(5000 * DEFAULT.horizon)
        assert result.trace.sample_rate == 5000.0
        assert not result.diverged

    def test_mitigated_energy_much_smaller_than_unmitigated(self):
        from sscirl.sigproc import energy
        quiet = plant.PlantScenario(noise_std=0.0)
        good = run_episode(quiet, 2.0, seed=0).trace
        bad = run_episode(quiet, 4.0, seed=0).trace
        def post_energy(tr):
            # from act_time = 5.0 s, sample 25,000 at 5 kHz, to the end
            return energy(tr.samples[25000:], tr.sample_rate, quiet.p_nom)
        assert post_energy(bad) > 10 * post_energy(good)

    def test_unmitigated_envelope_grows_after_mistune(self):
        quiet = plant.PlantScenario(noise_std=0.0)
        trace = run_episode(quiet, 4.0, seed=0).trace
        dev = np.abs(trace.samples - quiet.p_nom)
        # peak envelope per second is monotone after the mistune
        seconds = [dev[int(s * 5000):int((s + 1) * 5000)].max()
                   for s in range(2, 10)]
        assert all(a < b for a, b in zip(seconds, seconds[1:]))

    def test_horizon_at_mistune_is_noise_floor(self):
        from sscirl.sigproc import oscillation_energy
        scn = plant.PlantScenario(mistune_time=0.5, act_time=0.8, horizon=1.0)
        trace = run_episode(scn, 2.0, seed=0).trace
        # only the initial disturbance and noise: bounded well below the
        # unstable-growth scale
        energy = oscillation_energy(trace, scn.p_nom, 0.9)
        assert energy < 1e-3

    def test_determinism_bit_identical(self):
        a = run_episode(DEFAULT, 1.3, seed=99).trace.samples
        b = run_episode(DEFAULT, 1.3, seed=99).trace.samples
        assert np.array_equal(a, b)

    def test_post_activation_energy_increasing_in_gain(self):
        from sscirl.sigproc import energy
        quiet = plant.PlantScenario(noise_std=0.0)
        energies = []
        for kp in np.linspace(0.5, 4.0, 8):
            trace = run_episode(quiet, kp, seed=0).trace
            # from act_time = 5.0 s, sample 25,000 at 5 kHz, to the end
            energies.append(energy(trace.samples[25000:], trace.sample_rate, quiet.p_nom))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    def test_divergence_truncates_trace(self):
        # 0.05 damping magnitude at 48 Hz blows past the bound mid-episode
        scn = plant.PlantScenario(zeta_stable=0.05, diverge_threshold=1e3)
        result = run_episode(scn, 4.0, seed=0)
        assert result.diverged
        assert result.diverged_at is not None
        assert len(result.trace) < int(5000 * scn.horizon)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), kp=st.floats(0.5, 4.0),
       lengths=st.lists(st.integers(K_ACT + 1, DEFAULT.n_samples), min_size=2, max_size=2),
       overrides=st.sampled_from([{}, DIVERGING, MIXED]))
@example(seed=3, kp=1.5, lengths=[35001, 50000], overrides=MIXED)  # diverges in between
@example(seed=3, kp=2.0, lengths=[35001, 50000], overrides=MIXED)  # diverges before both
def test_shorter_horizon_is_a_prefix(seed, kp, lengths, overrides):
    # the noise of both streams is drawn from the episode seed alone, so
    # cutting the horizon cuts the episode and nothing else
    short, long = sorted(lengths)
    scn = replace(DEFAULT, **overrides)
    a, b = (run_episode(replace(scn, horizon=n * scn.sim_dt), kp, seed)
            for n in (short, long))
    assert a.trace.samples.tobytes() == b.trace.samples[:len(a.trace)].tobytes()
    if b.diverged and len(b.trace) < short:
        assert a.diverged and len(a.trace) == len(b.trace)
        assert a.diverged_at == b.diverged_at
    else:
        assert not a.diverged and len(a.trace) == short


def _single_pass(scn, kp, seed):
    """An episode as one simulate_segments pass over all three segments,
    each noise stream drawn in one call: what run_episode resumes from its
    memoised history must equal, bit for bit."""
    n = scn.n_samples
    k_mistune, k_act = (min(round(t / scn.sim_dt), n - 1)
                        for t in (scn.mistune_time, scn.act_time))
    mats = np.array([transition(scn, g) for g in (scn.kp_stable, scn.kp_unstable, kp)])
    w_rng, v_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    w = w_rng.standard_normal(n - 1) * (scn.noise_std / math.sqrt(scn.sim_dt))
    vnoise = v_rng.standard_normal(n) * scn.noise_std
    out = np.empty(n)
    n_valid, _, _, diverged = plant.simulate_segments(
        scn.disturbance_amp, 0.0, mats, [k_mistune, k_act - k_mistune, n - 1 - k_act],
        w, vnoise, scn.p_nom, scn.diverge_threshold, out)
    return out[:n_valid], diverged


def _bits(result):
    return result.trace.samples.tobytes(), result.diverged, result.diverged_at


def _memo_counts():
    """(hits, misses) of the history memo, then of the episode memo."""
    return plant._history.cache_info()[:2] + plant._episode.cache_info()[:2]


def _clear_memos():
    plant._history.cache_clear()
    plant._episode.cache_clear()


def _lfilter_calls(monkeypatch):
    """A list that receives the input length of each lfilter call from now
    on: two for each segment the plant simulates."""
    calls, real = [], plant.signal.lfilter

    def counting(b, a, x, *args, **kwargs):
        calls.append(len(x))
        return real(b, a, x, *args, **kwargs)

    monkeypatch.setattr(plant.signal, "lfilter", counting)
    return calls


@pytest.mark.parametrize("overrides, kp", [
    ({}, 2.0),
    (DIVERGING, 4.0),                  # diverges before act_time
    (MIXED, 2.0),                      # diverges after act_time
    (MIXED, 1.5),
    ({"noise_std": 0.0}, 0.5),
    ({"horizon": DEFAULT.act_time + DEFAULT.sim_dt}, 2.0),     # last sample at act_time
    ({"horizon": DEFAULT.act_time + 2 * DEFAULT.sim_dt}, 2.0),  # one sample past it
    ({"horizon": DEFAULT.act_time + 0.4 * DEFAULT.sim_dt}, 2.0),  # ends one sample short
    # the last sample before act_time, as `until` just above it asks
    ({"act_time": 0.2, "mistune_time": 0.18, "horizon": 0.20000000000000004}, 2.0),
], ids=["default", "diverge_before_act", "diverge_after_act", "diverge_late",
        "zero_noise", "horizon_act", "horizon_act_plus_one", "horizon_act_minus_one",
        "until_above_act"])
def test_memoised_history_is_bit_identical(overrides, kp, monkeypatch):
    scn = replace(DEFAULT, **overrides)
    seed = 3
    _clear_memos()
    cold = run_episode(scn, kp, seed)
    # the history an episode at another gain drew serves this one
    _clear_memos()
    run_episode(scn, scn.kp_stable if kp == scn.kp_unstable else scn.kp_unstable, seed)
    warm = run_episode(scn, kp, seed)
    assert _memo_counts() == (1, 1, 0, 2)
    # seed None draws fresh entropy, here pinned to the seed, and bypasses both memos
    counts = _memo_counts()
    real = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence",
                        lambda entropy=None: real(seed if entropy is None else entropy))
    fresh = run_episode(scn, kp, None)
    assert _memo_counts() == counts
    monkeypatch.undo()

    samples, diverged = _single_pass(scn, kp, seed)
    expected = (samples.tobytes(), diverged,
                len(samples) * scn.sim_dt if diverged else None)
    assert _bits(cold) == _bits(warm) == _bits(fresh) == expected
    k_act = round(scn.act_time / scn.sim_dt)
    if overrides in (DIVERGING, MIXED):
        assert diverged and (len(samples) <= k_act) == (overrides is DIVERGING)

    # a repeat of the gain is the memoised episode: no segment simulated,
    # and a fresh writable copy, so writing over an episode changes no repeat
    calls = _lfilter_calls(monkeypatch)
    for written in (warm, run_episode(scn, kp, seed)):
        assert written.trace.samples.flags.writeable
        written.trace.samples[:] = -1.0
        assert _bits(run_episode(scn, kp, seed)) == expected
    assert calls == [] and _memo_counts() == (*counts[:2], counts[2] + 3, counts[3])
    # seed None keeps nothing: each runs its own history and episode
    kept = plant._episode.cache_info().currsize
    a, b = (run_episode(scn, kp, None) for _ in range(2))
    assert plant._episode.cache_info().currsize == kept
    assert len(calls) >= 2 * 2 and _memo_counts() == (*counts[:2], counts[2] + 3, counts[3])
    if scn.noise_std > 0:
        assert a.trace.samples.tobytes() != b.trace.samples.tobytes()


@pytest.mark.parametrize("overrides", [{}, MIXED], ids=["default", "diverge_after_act"])
def test_memo_keeps_the_most_recently_used_episodes(overrides, monkeypatch):
    scn, seed = replace(DEFAULT, **overrides), 3
    _clear_memos()
    maxsize = plant._episode.cache_info().maxsize
    first, second, *rest = [0.5 + 0.5 * i for i in range(maxsize + 1)]
    for kp in (first, second, *rest[:-1], first, rest[-1]):
        run_episode(scn, kp, seed)
    assert plant._episode.cache_info().currsize == maxsize
    # each kept episode is the history's samples, shared with its entry,
    # and the read-only samples after them
    history = plant._history(scn, seed)
    for kp in (*rest, first):
        samples, tail, *_ = plant._episode(scn, seed, kp)
        assert samples is history[0] and not tail.flags.writeable
        assert tail.tobytes() == run_episode(scn, kp, seed).trace.samples[len(samples):].tobytes()
    calls = _lfilter_calls(monkeypatch)
    run_episode(scn, first, seed)
    assert calls == []
    run_episode(scn, second, seed)  # evicted when rest[-1] was run
    assert calls == [len(history[4][0])] * 2
    assert plant._episode.cache_info().currsize == maxsize


@pytest.mark.parametrize("n", [1, 10_000, 25_000])
@pytest.mark.parametrize("overrides", [{}, {"act_time": 5.003}, {"noise_std": 0.0}],
                         ids=["default", "off_grid_act", "zero_noise"])
def test_suffix_noise_equals_one_pass_draws(overrides, n):
    # the memoised noise of the n samples after the history is what one
    # draw of each stream over the whole episode gives there, and no caller
    # can write it or the history
    scn = replace(DEFAULT, **overrides)
    k_end = round(scn.act_time / scn.sim_dt)
    scn = replace(scn, horizon=(k_end + 1 + n) * scn.sim_dt)
    assert scn.n_samples == k_end + 1 + n
    seed = 7
    plant._history.cache_clear()
    samples, _, _, diverged, (w, vnoise) = plant._history(scn, seed)
    assert not diverged and len(samples) == k_end + 1
    if scn.noise_std > 0:
        w_rng, v_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
        scale = scn.noise_std / math.sqrt(scn.sim_dt)
        one_pass = ((w_rng.standard_normal(k_end + n) * scale)[k_end:],
                    (v_rng.standard_normal(k_end + 1 + n) * scn.noise_std)[k_end + 1:])
    else:
        one_pass = (np.zeros(n), np.zeros(n))
    assert (w.tobytes(), vnoise.tobytes()) == tuple(a.tobytes() for a in one_pass)
    assert not any(a.flags.writeable for a in (samples, w, vnoise))
    again = plant._history(scn, seed)
    assert again[0] is samples and again[4][0] is w and again[4][1] is vnoise
    # 8 bytes a history sample, 16 a sample after it: 360 kB at the training cut
    assert samples.nbytes == 8 * (k_end + 1) and w.nbytes + vnoise.nbytes == 16 * n


def test_memoised_history_is_shared_safely_across_threads():
    # sessions of one server run episodes on threads that share the memos;
    # more histories than the history memo holds (two horizons of each
    # seed), so entries are evicted while others read them, and gains of
    # one seed asked for again and again among more episodes than the
    # episode memo holds, so its entries are evicted while others read them
    horizons = [replace(DEFAULT, horizon=DEFAULT.act_time + t) for t in (0.3, 0.5)]
    n_seeds = plant._history.cache_info().maxsize + 3
    jobs = [(seed, kp, scn) for seed in range(n_seeds) for kp in (0.5, 3.5)
            for scn in horizons]
    repeats = [(0, kp, horizons[0]) for kp in (0.5, 1.0, 1.5, 2.5, 3.5)]
    _clear_memos()
    expected = {job: _bits(run_episode(job[2], job[1], job[0])) for job in jobs + repeats}
    _clear_memos()
    mismatches, errors, start = [], [], threading.Barrier(6)

    def worker(offset):
        try:
            start.wait(timeout=10)
            for i in range(3 * len(jobs)):
                pick = (jobs[(i * 7 + offset) % len(jobs)],
                        repeats[(i + offset) % len(repeats)])
                for seed, kp, scn in pick:
                    if _bits(run_episode(scn, kp, seed)) != expected[seed, kp, scn]:
                        mismatches.append((seed, kp, scn))
        except Exception as exc:  # reported below, not lost with the thread
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert errors == [] and mismatches == []
    info = plant._episode.cache_info()
    assert info.currsize <= info.maxsize


class TestScenarioValidation:
    def test_ordering_enforced(self):
        with pytest.raises(PlantError):
            PlantScenario(kp_stable=3.5)
        with pytest.raises(PlantError):
            PlantScenario(mistune_time=6.0)

    def test_state_rejects_nonfinite(self):
        with pytest.raises(PlantError):
            PlantState(0.0, np.array([np.inf, 0.0]), 2.0)
