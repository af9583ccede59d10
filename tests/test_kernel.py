"""The lfilter episode kernel against the per-sample state-space loop it
replaced (``kernel_reference``): agreement to 1e-10 of the peak mode
amplitude, the same divergence step, and n-step ``plant.step`` against n
single steps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_reference
import sscirl
from sscirl import plant

REL_TOL = 1e-10


def _run(kernel, x0, v0, mats, steps, w, vnoise, p_nom, threshold):
    out = np.full(len(vnoise), np.nan)
    n_valid, x, v, diverged = kernel.simulate_segments(
        x0, v0, np.asarray(mats, dtype=float), np.asarray(steps, dtype=np.int64),
        w, vnoise, p_nom, threshold, out)
    return n_valid, x, v, diverged, out


def _noise(scenario, n_steps, seed):
    w_rng, v_rng = map(np.random.default_rng, np.random.SeedSequence(seed).spawn(2))
    w = w_rng.standard_normal(n_steps) * (scenario.noise_std / math.sqrt(scenario.sim_dt))
    vnoise = v_rng.standard_normal(n_steps + 1) * scenario.noise_std
    return w, vnoise


def _assert_agree(scenario, mats, steps, w, vnoise):
    """Both kernels on one workload, from the scenario's initial state: same
    sample count and flag, samples and final state within REL_TOL of the
    peak mode amplitude."""
    args = (scenario.disturbance_amp, 0.0, mats, steps, w, vnoise, scenario.p_nom,
            scenario.diverge_threshold)
    n_k, x_k, v_k, d_k, out_k = _run(plant, *args)
    n_r, x_r, v_r, d_r, out_r = _run(kernel_reference, *args)
    assert (n_k, d_k) == (n_r, d_r)
    peak = max(np.max(np.abs(out_r[:n_r] - scenario.p_nom)), abs(x_r))
    assert np.max(np.abs(out_k[:n_k] - out_r[:n_r])) <= REL_TOL * peak
    assert abs(x_k - x_r) <= REL_TOL * peak
    assert abs(v_k - v_r) <= REL_TOL * scenario.omega * peak
    assert np.isnan(out_k[n_k:]).all()
    return n_k, d_k


def _episode_workload(scenario, kp, seed):
    """Segments and noise exactly as run_episode builds them."""
    dt = scenario.sim_dt
    n_total = round(scenario.horizon / dt)
    k_mistune = round(scenario.mistune_time / dt)
    k_act = round(scenario.act_time / dt)
    steps = [k_mistune, k_act - k_mistune, n_total - 1 - k_act]
    mats = [plant.transition(scenario, g)
            for g in (scenario.kp_stable, scenario.kp_unstable, kp)]
    return (mats, steps, *_noise(scenario, n_total - 1, seed))


@pytest.mark.parametrize("seed", [0, 5])
def test_episode_agrees_with_reference(seed):
    scn = plant.PlantScenario()
    for kp in (0.5, 1.0, 2.0, 2.5, 3.0, 3.5, 3.9):
        n_valid, diverged = _assert_agree(scn, *_episode_workload(scn, kp, seed))
        assert n_valid == round(scn.horizon / scn.sim_dt) and not diverged


def test_run_episode_uses_the_kernel_workload():
    scn = plant.PlantScenario()
    mats, steps, w, vnoise = _episode_workload(scn, 2.0, 9)
    *_, out = _run(kernel_reference, scn.disturbance_amp, 0.0, mats, steps, w,
                   vnoise, scn.p_nom, scn.diverge_threshold)
    samples = plant.run_episode(scn, 2.0, seed=9).trace.samples
    assert np.max(np.abs(samples - out)) <= REL_TOL * np.max(np.abs(out - scn.p_nom))


@pytest.mark.parametrize("length", [0, 1, 4095, 4096, 4097])
def test_segment_lengths(length):
    scn = plant.PlantScenario(noise_std=1e-3)
    mats = [plant.transition(scn, kp) for kp in (scn.kp_unstable, 2.0, 0.5)]
    steps = [length, 3, length]
    w, vnoise = _noise(scn, sum(steps), seed=length)
    n_valid, diverged = _assert_agree(scn, mats, steps, w, vnoise)
    assert n_valid == sum(steps) + 1 and not diverged


@pytest.mark.parametrize("zeta_stable", [0.05, 0.5, 2.0])
def test_divergence_step_agrees(zeta_stable):
    scn = plant.PlantScenario(zeta_stable=zeta_stable, diverge_threshold=1e3)
    n_valid, diverged = _assert_agree(scn, *_episode_workload(scn, scn.kp_unstable, 0))
    assert diverged and n_valid < round(scn.horizon / scn.sim_dt)


def test_explosive_divergence_found_at_first_crossing():
    # zeta = -50 at kp_unstable: the state grows ~400x per step, so a chunk
    # that runs past the crossing overflows to inf and nan
    scn = plant.PlantScenario(zeta_stable=50.0, noise_std=0.0)
    workload = _episode_workload(scn, scn.kp_unstable, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n_valid, diverged = _assert_agree(scn, *workload)
        result = plant.run_episode(scn, scn.kp_unstable, seed=0)
    assert diverged
    assert round(scn.mistune_time / scn.sim_dt) < n_valid \
        < round(scn.mistune_time / scn.sim_dt) + 100
    assert len(result.trace) == n_valid and result.diverged
    assert np.all(np.isfinite(result.final_state))
    assert np.linalg.norm(result.final_state) > scn.diverge_threshold


def _count_lfilter_pairs(monkeypatch):
    """A list that receives the length of every lfilter call's input, in
    pairs (position, velocity)."""
    sizes = []
    lfilter = plant.signal.lfilter

    def counting(b, a, x, zi):
        sizes.append(len(x))
        return lfilter(b, a, x, zi=zi)

    monkeypatch.setattr(plant.signal, "lfilter", counting)
    return sizes


def test_one_lfilter_pair_per_segment(monkeypatch):
    scn = plant.PlantScenario()
    k_mistune = round(scn.mistune_time / scn.sim_dt)
    k_act = round(scn.act_time / scn.sim_dt)
    sizes = _count_lfilter_pairs(monkeypatch)
    # cold: the two history segments, then the suffix; warm: the suffix
    plant._history.cache_clear()
    plant._episode.cache_clear()
    plant.run_episode(scn, 2.0, seed=0)
    plant.run_episode(scn, 2.5, seed=0)
    assert sizes == [k_mistune] * 2 + [k_act - k_mistune] * 2 \
        + [scn.n_samples - 1 - k_act] * 4
    sizes.clear()
    plant.step(plant.initial_state(scn), scn, np.random.default_rng(0), n_steps=20000)
    assert sizes == [20000] * 2


def test_explosive_divergence_filters_each_segment_once(monkeypatch):
    # the crossing segment is filtered to its end in one pass, and the
    # episode still ends at the step loop's first crossing
    scn = plant.PlantScenario(zeta_stable=50.0, noise_std=0.0)
    mats, steps, w, vnoise = _episode_workload(scn, scn.kp_unstable, 0)
    n_ref, *_ = _run(kernel_reference, scn.disturbance_amp, 0.0, mats, steps, w, vnoise,
                     scn.p_nom, scn.diverge_threshold)
    sizes = _count_lfilter_pairs(monkeypatch)
    plant._history.cache_clear()
    plant._episode.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = plant.run_episode(scn, scn.kp_unstable, seed=0)
    assert sizes == [steps[0]] * 2 + [steps[1]] * 2
    assert result.diverged and len(result.trace) == n_ref


# crossing step of the workload below, whose first segment is 40 steps long
SEGMENT_EDGES = {"first_step": 1, "last_step": 40, "after_switch": 41}


@pytest.mark.parametrize("crossing", SEGMENT_EDGES.values(), ids=SEGMENT_EDGES.keys())
def test_divergence_at_segment_edges(crossing):
    # an overdamped unstable mode (zeta = -1.05, then -1.575 after the gain
    # switch at step 40) that first exceeds every earlier state norm at step
    # `crossing`; put the bound just below it
    scn = plant.PlantScenario(zeta_stable=1.05, noise_std=0.0)
    mats = [plant.transition(scn, kp) for kp in (scn.kp_unstable, 4.5)]
    steps = [40, 40]
    x, v = scn.disturbance_amp, 0.0
    norms = [math.hypot(x, v)]
    for k in range(crossing):
        a11, a12, a21, a22, _, _ = mats[k // steps[0]]
        x, v = a11 * x + a12 * v, a21 * x + a22 * v
        norms.append(math.hypot(x, v))
    assert norms[-1] > max(norms[:-1]) and math.isfinite(norms[-1])
    scn = replace(scn, diverge_threshold=math.sqrt(max(norms[:-1]) * norms[-1]))
    w, vnoise = np.zeros(sum(steps)), np.zeros(sum(steps) + 1)
    n_valid, diverged = _assert_agree(scn, mats, steps, w, vnoise)
    assert diverged and n_valid == crossing


def _chunked_advance(x, v, coeffs, w, thr2, out, vnoise, p_nom, chunk):
    """plant._advance as it was when it filtered a segment in lfilter calls
    of at most chunk samples, carrying the filter state between them."""
    a11, a12, a21, a22, b1, b2 = coeffs
    det = a11 * a22 - a12 * a21
    den = (1.0, -(a11 + a22), det)
    num_x = (b1, a12 * b2 - a22 * b1)
    num_v = (b2, a21 * b1 - a11 * b2)
    zx = np.array([a11 * x + a12 * v, -det * x])
    zv = np.array([a21 * x + a22 * v, -det * v])
    for i in range(0, len(w), chunk):
        wc = w[i:i + chunk]
        xs, zx = plant.signal.lfilter(num_x, den, wc, zi=zx)
        vs, zv = plant.signal.lfilter(num_v, den, wc, zi=zv)
        with np.errstate(over="ignore", invalid="ignore"):
            r2 = xs * xs
            r2 += vs * vs
            crossed = np.flatnonzero(r2 > thr2)
        m = int(crossed[0]) if crossed.size else len(wc)
        np.add(xs[:m], p_nom, out=out[i:i + m])
        out[i:i + m] += vnoise[i:i + m]
        if m:
            x, v = float(xs[m - 1]), float(vs[m - 1])
        if m < len(wc):
            return i + m, x, v, (float(xs[m]), float(vs[m]))
    return len(w), x, v, None


@settings(max_examples=80, deadline=None)
@given(zeta_stable=st.sampled_from([0.002, 0.5, 50.0]), kp=st.floats(0.5, 4.5),
       length=st.integers(1, 3000), chunk_frac=st.floats(0.0, 1.0),
       log_bound=st.floats(-2.0, 8.0), seed=st.integers(0, 2**32 - 1))
@example(zeta_stable=0.002, kp=2.0, length=3000, chunk_frac=0.3, log_bound=0.0, seed=0)
@example(zeta_stable=0.5, kp=4.0, length=3000, chunk_frac=0.3, log_bound=0.0, seed=0)
@example(zeta_stable=50.0, kp=4.0, length=3000, chunk_frac=0.0, log_bound=6.0, seed=0)
def test_one_pass_equals_chunked_segment(zeta_stable, kp, length, chunk_frac,
                                         log_bound, seed):
    # any chunk size from 1 to the segment's length, over segments that
    # cross the bound and segments that do not: samples, step count, state
    # and crossing bit for bit
    scn = plant.PlantScenario(zeta_stable=zeta_stable, noise_std=1e-3)
    chunk = 1 + round(chunk_frac * (length - 1))
    w, vnoise = _noise(scn, length, seed)
    vnoise = vnoise[1:]
    thr2 = (10.0 ** log_bound) ** 2
    args = (scn.disturbance_amp, 0.0, plant.transition(scn, kp), w, thr2)
    mine, ref = np.full(length, np.nan), np.full(length, np.nan)
    got = plant._advance(*args, mine, vnoise, scn.p_nom)
    want = _chunked_advance(*args, ref, vnoise, scn.p_nom, chunk)
    assert got == want
    assert mine.tobytes() == ref.tobytes()


def test_step_n_matches_single_steps_and_draw_order():
    # no initial disturbance: the state is driven by the noise alone, so a
    # different draw order would show in it
    scn = plant.PlantScenario(noise_std=1e-2, disturbance_amp=0.0)
    n = 4100
    start = plant.PlantState(0.0, np.zeros(2), 2.0)
    rng_n, rng_1 = np.random.default_rng(3), np.random.default_rng(3)
    batched = plant.step(start, scn, rng_n, n)
    single = start
    peak = 0.0
    for _ in range(n):
        single = plant.step(single, scn, rng_1)
        peak = max(peak, abs(single.mode_state[0]))
    assert rng_n.standard_normal() == rng_1.standard_normal()
    assert batched.t == pytest.approx(single.t, rel=1e-12)
    assert batched.active_kp == single.active_kp
    assert abs(batched.mode_state[0] - single.mode_state[0]) <= REL_TOL * peak
    assert abs(batched.mode_state[1] - single.mode_state[1]) <= REL_TOL * scn.omega * peak


def test_step_divergence_carries_last_finite_state():
    scn = plant.PlantScenario(zeta_stable=0.05, diverge_threshold=20.0, noise_std=0.0)
    start = plant.PlantState(0.0, np.array([scn.disturbance_amp, 0.0]), scn.kp_unstable)
    with pytest.raises(plant.DivergedError) as err:
        plant.step(start, scn, n_steps=50000)
    last = err.value.state
    single, taken = start, 0
    with pytest.raises(plant.DivergedError) as err_1:
        while True:
            single = plant.step(single, scn)
            taken += 1
    assert taken > 0 and last.t == pytest.approx(taken * scn.sim_dt, rel=1e-12)
    assert err.value.t == last.t and err_1.value.t == single.t
    assert np.linalg.norm(last.mode_state) <= scn.diverge_threshold
    assert np.allclose(last.mode_state, single.mode_state, rtol=REL_TOL, atol=0)


def test_using_compiled_flag_is_false():
    # one kernel, on scipy.signal.lfilter; the flag stays for old readers
    assert sscirl.USING_COMPILED is False
