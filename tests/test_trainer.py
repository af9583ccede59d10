import itertools
import math
import os
import subprocess
import sys
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import epoch_reference
from sscirl import config, envproto, plant, policy as pol, sigproc, trainer
from sscirl.trainer import (EvalCache, LocalPlantEnv, TrainConfig,
                            canonical_observation, clamp, divergence_penalty,
                            episode_reward, evaluate, grid_oracle,
                            observation_starts, reward_scenario, run_epoch, train)

SCN = plant.PlantScenario()
QUIET = plant.PlantScenario(noise_std=0.0)


def small_config(**kw):
    defaults = dict(n_epoch=5, n_iter=4, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def pinned_params(cfg, mu):
    """Policy whose every action is ~mu: mean pinned by the output bias,
    variance at its floor."""
    params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=0)
    params.tensors["b3_mu"][...] = mu
    params.tensors["w3_mu"][:] = 0.0
    params.tensors["b3_var"][...] = -30.0
    return params


def pretrace(scenario, cfg, obs_trace):
    """run_epoch's record of a history: train's, for obs_trace taken from
    scenario's pre-trace, with no head (each episode filters from t = 0)."""
    return trainer._Pretrace(scenario, cfg, trainer._pretrace_seed(cfg.seed), obs_trace)


@pytest.fixture(scope="module")
def obs_trace():
    cfg = TrainConfig()
    result = plant.run_episode(QUIET, plant.GainAction(QUIET.kp_unstable), seed=0)
    return trainer.observation_trace(result.trace, QUIET, cfg)[0]


class TestCache:
    def test_bucket_quantization(self):
        cache = EvalCache(0.05)
        assert cache.bucket(2.0) == cache.bucket(2.01) == cache.bucket(1.99)
        assert cache.bucket(2.0) != cache.bucket(2.06)

    def test_hit_skips_simulation(self, obs_trace):
        cfg = small_config()
        env = LocalPlantEnv(QUIET)
        cache = EvalCache(cfg.cache_resolution)
        cache.store(2.0, -0.123)
        params = pinned_params(cfg, 2.0)
        rng = np.random.default_rng(0)
        _, stats, records = run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg, rng,
                                      cache, epoch=0, worst_reward=None)
        assert all(rec.cached and rec.reward == -0.123 for rec in records)
        assert stats.cache_hit_rate == 1.0
        assert env.episode_count == 0

    def test_soundness_same_bucket_same_reward(self, obs_trace):
        # zero plant noise: reward is a function of the bucket only
        cfg = small_config(cache_enabled=False)
        env = LocalPlantEnv(QUIET)
        r1 = episode_reward(env.run_episode(2.01, 0), QUIET, cfg)
        r2 = episode_reward(env.run_episode(2.01, 1), QUIET, cfg)
        assert r1 == r2


class SpyEnv(LocalPlantEnv):
    """Local plant that records the gain, the seed and the samples of every
    episode it runs."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.gains, self.seeds, self.traces = [], [], []

    def run_episode(self, kp, seed):
        self.gains.append(kp)
        self.seeds.append(seed)
        result = super().run_episode(kp, seed)
        self.traces.append(result.trace.samples)
        return result


# the reward's first and last index in the stage's filtered trace: at 5 kHz
# (pre_decimation) or 100 Hz (post_decimation), from the first sample at or
# after act_time (5.003 s is native sample 25,015, between low-rate samples
# 500 and 501) to t_reward = 2 s on
REWARD_WINDOWS = {("pre_decimation", 5.0): (25000, 35000),
                  ("pre_decimation", 5.003): (25015, 35015),
                  ("post_decimation", 5.0): (500, 700),
                  ("post_decimation", 5.003): (501, 701)}


class TestReward:
    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    @pytest.mark.parametrize("kp", [0.5, 2.0, 4.0])
    @pytest.mark.parametrize("act_time", [5.0, 5.003], ids=["on_grid", "off_grid"])
    def test_prefix_reward_equals_full_trace_reward(self, stage, kp, act_time):
        # the reward filters only the prefix its window reads; both filter
        # stages are causal, so that must equal filtering the whole trace
        scn = replace(SCN, act_time=act_time)
        cfg = TrainConfig(filter_stage=stage)
        first, last = REWARD_WINDOWS[stage, act_time]
        assert config.reward_window(scn, cfg) == range(first, last + 1)
        result = plant.run_episode(scn, plant.GainAction(kp), seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            _, full = sigproc.filter_head(result.trace, cfg.bandpass_spec,
                                          cfg.target_rate, stage)
            reward = episode_reward(result, scn, cfg)
        x = full.samples[first:last + 1]
        assert reward == -np.trapezoid(x * x, dx=1.0 / full.sample_rate)


    def test_trace_short_of_the_last_low_rate_sample_has_no_reward(self):
        # post_decimation, act_time off the 100 Hz grid: the window runs from
        # low-rate sample 501 (5.01 s) to 701, native sample 35,050, so a
        # trace of 35,050 samples (to 7.0098 s, past act_time + t_reward)
        # has none
        scn = replace(SCN, act_time=5.003)
        cfg = TrainConfig(filter_stage="post_decimation")
        full = plant.run_episode(scn, plant.GainAction(2.5), seed=0).trace
        cut = plant.EpisodeResult(sigproc.SignalTrace(full.samples[:35050],
                                                      full.sample_rate),
                                  diverged=True, diverged_at=35050 * scn.sim_dt)
        assert episode_reward(cut, scn, cfg) is None


class TestRewardScenario:
    def test_default_cut_ends_at_the_reward_window(self):
        cut = reward_scenario(SCN, TrainConfig())
        # the sample at act_time + t_reward = 7.0 s is index 35000
        assert cut.n_samples == 35001
        assert cut == replace(SCN, horizon=cut.horizon)

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    @pytest.mark.parametrize("act_time", [5.0, 5.003], ids=["on_grid", "off_grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cut_reward_equals_full_reward(self, stage, act_time, seed):
        scn = replace(SCN, act_time=act_time)
        cfg = TrainConfig(filter_stage=stage)
        cut = reward_scenario(scn, cfg)
        assert cut.n_samples < scn.n_samples
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            rewards = [episode_reward(plant.run_episode(s, plant.GainAction(2.5), seed),
                                      scn, cfg) for s in (scn, cut)]
        assert rewards[0] is not None and rewards[0] == rewards[1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_sample_fewer_misses_the_window(self, seed):
        cfg = TrainConfig()
        cut = reward_scenario(SCN, cfg)
        fewer = replace(cut, horizon=(cut.n_samples - 1) * cut.sim_dt)
        assert fewer.n_samples == cut.n_samples - 1
        result = plant.run_episode(fewer, plant.GainAction(2.5), seed)
        assert episode_reward(result, SCN, cfg) is None

    @pytest.mark.parametrize("stage, t_reward", [("post_decimation", 2.004),
                                                 ("pre_decimation", 2.00005)])
    def test_off_grid_t_reward_reads_only_what_the_reward_integrates(self, stage,
                                                                     t_reward):
        # 200.4 low-rate or 10,000.25 native intervals round to 200 or 10,000:
        # the reward ends at 7.0 s, native sample 35,000, as at t_reward = 2
        scn, cfg = SCN, TrainConfig(filter_stage=stage, t_reward=t_reward)
        assert config.reward_samples(scn, cfg) == 35001
        cut = reward_scenario(scn, cfg)
        assert cut.n_samples == 35001
        full = plant.run_episode(scn, plant.GainAction(2.5), 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            rewards = [episode_reward(full, scn, cfg),
                       episode_reward(plant.run_episode(cut, plant.GainAction(2.5), 1),
                                      scn, cfg),
                       episode_reward(full, scn, replace(cfg, t_reward=2.0))]
        assert rewards[0] is not None and rewards[0] == rewards[1] == rewards[2]

    def test_window_past_the_horizon_keeps_the_scenario(self):
        short = replace(SCN, horizon=6.0)
        assert reward_scenario(short, TrainConfig()) is short

    def test_train_runs_its_own_episodes_on_the_cut(self, monkeypatch):
        lengths = []
        real = plant.run_episode

        def recording(scenario, action, seed=None):
            lengths.append(scenario.n_samples)
            return real(scenario, action, seed)

        monkeypatch.setattr(plant, "run_episode", recording)
        cfg = small_config(n_epoch=2, cache_enabled=False)
        train(SCN, cfg)
        assert lengths == [reward_scenario(SCN, cfg).n_samples] * (1 + 2 * cfg.n_iter)
        lengths.clear()
        grid_oracle(SCN, cfg)
        assert set(lengths) == {reward_scenario(SCN, cfg).n_samples}


# unstable above kp 1.0 and mistuned late: the pre-trace holds, and an
# episode at kp 2 diverges near 6.2 s, inside the reward window
LATE_DIVERGENCE = {"kp_stable": 0.5, "kp_crit": 1.0, "mistune_time": 4.5,
                   "diverge_threshold": 10.0}


def pretrace_head(scn, cfg, seed):
    """What train carries: the filter stage after the samples before
    act_time of the pre-trace at seed."""
    pre = plant.run_episode(replace(scn, horizon=scn.act_time + scn.sim_dt),
                            plant.GainAction(scn.kp_unstable), seed)
    return trainer.observation_trace(pre.trace, scn, cfg)[1]


class TestCarriedFilterState:
    @settings(max_examples=40, deadline=None)
    @given(kp=st.floats(0.5, 4.0), seed=st.integers(0, 2**63 - 1),
           stage=st.sampled_from(sigproc.FILTER_STAGES),
           act_time=st.sampled_from([5.0, 5.003]),
           t_reward=st.sampled_from([2.0, 2.004, 2.00005]),
           overrides=st.sampled_from([{}, LATE_DIVERGENCE]))
    @example(kp=2.0, seed=3, stage="post_decimation", act_time=5.003, t_reward=2.004,
             overrides=LATE_DIVERGENCE)
    @example(kp=2.0, seed=3, stage="pre_decimation", act_time=5.003, t_reward=2.00005,
             overrides=LATE_DIVERGENCE)
    def test_reward_equals_full_filtering(self, kp, seed, stage, act_time, t_reward,
                                          overrides):
        # an episode at the pre-trace's seed starts with the carried samples,
        # and the reward filtered on from their state is the full one, None
        # for an episode that diverges before the window ends included
        scn = replace(SCN, act_time=act_time, **overrides)
        cfg = TrainConfig(filter_stage=stage, t_reward=t_reward)
        cut = reward_scenario(scn, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            head = pretrace_head(scn, cfg, seed)
            result = plant.run_episode(cut, plant.GainAction(kp), seed)
            carried = episode_reward(result, cut, cfg, head)
            full = episode_reward(result, cut, cfg)
        assert np.array_equal(result.trace.samples[:len(head.samples)], head.samples)
        assert head.length <= config.reward_window(scn, cfg).start
        assert repr(carried) == repr(full)
        assert (full is None) == (len(result.trace) < cut.n_samples)

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    def test_head_past_the_window_start_is_not_filtered_on(self, stage):
        # the episode starts with its samples, but filtered on from there the
        # window's first samples would be missing: the reward filters from t = 0
        cfg = TrainConfig(filter_stage=stage)
        cut = reward_scenario(SCN, cfg)
        result = plant.run_episode(cut, plant.GainAction(2.0), 3)
        k = config.first_sample(SCN.act_time + 0.5, SCN.sample_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            head, _ = sigproc.filter_head(sigproc.SignalTrace(
                result.trace.samples[:k], SCN.sample_rate), *trainer._stage(cfg))
            assert head.length > config.reward_window(SCN, cfg).start
            assert repr(episode_reward(result, cut, cfg, head)) == \
                repr(episode_reward(result, cut, cfg))

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    @pytest.mark.parametrize("act_time", [5.0, 5.003], ids=["on_grid", "off_grid"])
    def test_diverged_episode_has_no_reward(self, stage, act_time):
        scn = replace(SCN, act_time=act_time, **LATE_DIVERGENCE)
        cfg = TrainConfig(filter_stage=stage)
        cut = reward_scenario(scn, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            head = pretrace_head(scn, cfg, 3)
            result = plant.run_episode(cut, plant.GainAction(2.0), 3)
            assert result.diverged and len(result.trace) > len(head.samples)
            assert episode_reward(result, cut, cfg, head) is None

    @pytest.mark.parametrize("seedless", [False, True], ids=["local", "ignores_seed"])
    def test_epoch_rewards_equal_full_filtering(self, monkeypatch, seedless):
        # a simulator that ignores the seed gives episodes that do not
        # continue the pre-trace: each filters on from the stage at t = 0,
        # and the log is what filtering each from t = 0 gives
        heads, filter_ons = [], []
        real_head, real_on = sigproc.filter_head, sigproc.FilterHead.filter_on

        def counting_head(trace, *args):
            heads.append(len(trace))
            return real_head(trace, *args)

        def counting_on(head, samples):
            filter_ons.append(len(head.samples))
            return real_on(head, samples)

        cfg = small_config(n_epoch=3, n_iter=4, cache_enabled=False)
        cut = reward_scenario(SCN, cfg)
        env = SeedlessEnv(cut) if seedless else SpyEnv(cut)
        monkeypatch.setattr(sigproc, "filter_head", counting_head)
        monkeypatch.setattr(sigproc.FilterHead, "filter_on", counting_on)
        result = train(SCN, cfg, env=env)
        pre, *episodes = env.traces
        assert len(episodes) == cfg.n_epoch * cfg.n_iter
        # one head over the pre-trace's samples before act_time, from which
        # each episode filters on or, not continuing it, one head at t = 0
        # per episode
        k_act = round(SCN.act_time / SCN.sim_dt)
        assert heads == [k_act] + [0] * len(episodes) * seedless
        assert filter_ons == [0 if seedless else k_act] * len(episodes)
        assert all(np.array_equal(t[:k_act], pre[:k_act]) for t in episodes) != seedless
        for e, row in enumerate(result.stats):
            rewards = np.array([episode_reward(
                plant.EpisodeResult(sigproc.SignalTrace(t, SCN.sample_rate)), cut, cfg)
                for t in episodes[e * cfg.n_iter:(e + 1) * cfg.n_iter]])
            assert (row.mean_reward, row.min_reward, row.max_reward) == \
                (float(rewards.mean()), float(rewards.min()), float(rewards.max()))


class SeedlessEnv(SpyEnv):
    """A simulator that ignores the seed it is asked for: each episode has
    noise of its own, so none continues the pre-trace's history."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.own_seeds = itertools.count(1000)

    def run_episode(self, kp, seed):
        return super().run_episode(kp, next(self.own_seeds))


class TestRunEpoch:
    def test_reward_ordering_between_gains(self):
        cfg = small_config()
        env = LocalPlantEnv(QUIET)
        r_good = episode_reward(env.run_episode(2.0, 0), QUIET, cfg)
        r_bad = episode_reward(env.run_episode(4.0, 0), QUIET, cfg)
        assert r_good > r_bad

    def test_rewards_nonpositive(self, obs_trace):
        cfg = small_config(n_iter=6)
        env = LocalPlantEnv(QUIET)
        cache = EvalCache(cfg.cache_resolution)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1)
        rng = np.random.default_rng(1)
        _, _, records = run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg, rng,
                                  cache, epoch=0, worst_reward=None)
        assert len(records) == 6
        assert all(rec.reward <= 0.0 for rec in records)

    def test_actions_drawn_through_batched_policy(self, obs_trace):
        # iteration j draws its window start, then its noise eps_j; the
        # windows go through one forward pass and a_j = mu_j + sqrt(var_j) eps_j
        cfg = small_config(n_iter=8)
        cache = EvalCache(cfg.cache_resolution)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1)
        rng = np.random.default_rng(4)
        _, _, records = run_epoch(params, LocalPlantEnv(QUIET), pretrace(QUIET, cfg, obs_trace),
                                  cfg, rng, cache, epoch=0, worst_reward=None)

        replay = np.random.default_rng(4)
        starts = observation_starts(QUIET, cfg)
        i0, windows, eps = [], [], []
        for _ in range(cfg.n_iter):
            i0.append(int(replay.integers(starts.start, starts.stop)))
            windows.append(obs_trace.samples[i0[-1]:i0[-1] + cfg.d_obs])
            eps.append(replay.standard_normal())
        assert rng.standard_normal() == replay.standard_normal()  # no other draw

        out = pol.forward(params, np.stack(windows))
        assert [rec.window_start for rec in records] == i0
        for j, rec in enumerate(records):
            assert rec.action_raw == out.mu[j] + math.sqrt(out.var[j]) * eps[j]
            assert rec.var == out.var[j]
            # the one-observation forward pass gives the same action, to rounding
            single = pol.forward(params, windows[j])
            assert rec.action_raw == pytest.approx(
                single.mu + math.sqrt(single.var) * eps[j], rel=1e-12)
            assert rec.log_prob == pytest.approx(
                pol.log_prob(params, windows[j], rec.action_raw), rel=1e-12)

    def test_draws_cover_every_window_start(self, obs_trace):
        # 320 default iterations from a fixed rng draw each start index,
        # 460 (the canonical window's) among them; every bucket is cached
        cfg = TrainConfig()
        cache = EvalCache(cfg.cache_resolution)
        for b in range(cache.bucket(cfg.kp_min), cache.bucket(cfg.kp_max) + 1):
            cache.store(b * cfg.cache_resolution, -1.0)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=0)
        rng = np.random.default_rng(0)
        drawn = set()
        for epoch in range(40):
            _, _, records = run_epoch(params, LocalPlantEnv(QUIET), pretrace(QUIET, cfg, obs_trace),
                                      cfg, rng, cache, epoch, worst_reward=None)
            drawn.update(rec.window_start for rec in records)
        assert sorted(drawn) == list(range(460, 471))

    def test_action_moments_match_the_policy(self, obs_trace, monkeypatch):
        # row by row, the drawn action_raw has the mean and variance of the
        # forward pass that drew it; every bucket is cached, so no episode runs
        cfg = small_config(n_iter=20_000)
        cache = EvalCache(cfg.cache_resolution)
        for b in range(cache.bucket(cfg.kp_min), cache.bucket(cfg.kp_max) + 1):
            cache.store(b * cfg.cache_resolution, -1.0)
        outs = []
        real = pol.forward
        monkeypatch.setattr(pol, "forward", lambda *a: outs.append(real(*a)) or outs[-1])
        env = LocalPlantEnv(QUIET)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=9)
        _, _, records = run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg,
                                  np.random.default_rng(11), cache, epoch=0,
                                  worst_reward=None)
        (out,) = outs
        assert env.episode_count == 0
        resid = np.array([rec.action_raw for rec in records]) - out.mu
        assert abs(resid.mean()) < 3 * math.sqrt(out.var.mean() / len(resid))
        assert (resid ** 2).mean() == pytest.approx(out.var.mean(), rel=0.05)

    def test_every_episode_continues_the_pretrace_seed(self, obs_trace):
        # every action in one bucket: iteration 0 runs, the others hit
        cfg = small_config(n_iter=8)
        seed = trainer._pretrace_seed(cfg.seed)
        env = SpyEnv(QUIET)
        _, _, records = run_epoch(pinned_params(cfg, 2.0), env, pretrace(QUIET, cfg, obs_trace),
                                  cfg, np.random.default_rng(5),
                                  EvalCache(cfg.cache_resolution), epoch=3, worst_reward=None)
        assert [rec.cached for rec in records] == [False] + [True] * 7
        assert env.seeds == [seed]

        # cache off: every iteration runs, each at the same seed
        cfg = small_config(n_iter=8, cache_enabled=False)
        env = SpyEnv(QUIET)
        run_epoch(pol.init_params(cfg.d_obs, cfg.hidden_size, seed=2), env,
                  pretrace(QUIET, cfg, obs_trace), cfg, np.random.default_rng(6),
                  EvalCache(cfg.cache_resolution), epoch=3, worst_reward=None)
        assert env.seeds == [seed] * 8

    def test_training_episodes_start_with_the_pretrace(self):
        # the samples up to act_time of every training episode are the
        # pre-trace's, bit for bit, whatever the gain
        cfg = small_config(n_epoch=3, n_iter=4, cache_enabled=False)
        env = SpyEnv(reward_scenario(SCN, cfg))
        train(SCN, cfg, env=env)
        k_act = round(SCN.act_time / SCN.sim_dt)
        pre, *episodes = env.traces
        assert len(episodes) == cfg.n_epoch * cfg.n_iter
        assert len(set(env.gains[1:])) > 1
        for trace in episodes:
            assert len(trace) > k_act + 1
            assert np.array_equal(trace[:k_act + 1], pre[:k_act + 1])

    def test_clamp_correctness(self, obs_trace):
        cfg = small_config()
        env = LocalPlantEnv(QUIET)
        cache = EvalCache(cfg.cache_resolution)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=2)
        params.tensors["b3_mu"][...] = -10.0  # force clamping low
        rng = np.random.default_rng(2)
        _, stats, records = run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg, rng,
                                      cache, epoch=0, worst_reward=None)
        for rec in records:
            assert rec.action_applied == clamp(rec.action_raw, cfg.kp_min, cfg.kp_max)
            assert rec.action_applied == cfg.kp_min
        assert stats.clamp_rate == 1.0

    @pytest.mark.parametrize("cache_enabled, rewards, cached", [
        # each penalty is 10x the worst reward so far, the epoch's own
        # penalties included
        (False, [-20.0, -200.0, -2000.0, -20000.0], [False] * 4),
        # the first penalty is the bucket's reward, reused by the others
        (True, [-20.0] * 4, [False, True, True, True]),
    ], ids=["cache_off", "cache_on"])
    def test_divergence_penalty_applied(self, obs_trace, cache_enabled, rewards, cached):
        # a violently unstable plant diverges before the reward window
        hot = plant.PlantScenario(zeta_stable=0.05, noise_std=0.0)
        cfg = small_config(cache_enabled=cache_enabled)
        env = LocalPlantEnv(hot)
        result = env.run_episode(4.0, 0)
        assert result.diverged
        assert episode_reward(result, hot, cfg) is None
        assert divergence_penalty(None) == trainer.DIVERGENCE_PENALTY_FLOOR
        assert divergence_penalty(-2.0) == -20.0
        assert divergence_penalty(-1e9) == trainer.DIVERGENCE_PENALTY_FLOOR
        # every action clamps to kp_max and diverges
        params = pinned_params(cfg, 10.0)
        cache = EvalCache(cfg.cache_resolution)
        env = LocalPlantEnv(hot)
        _, _, records = run_epoch(params, env, pretrace(hot, cfg, obs_trace), cfg,
                                  np.random.default_rng(3), cache, epoch=0,
                                  worst_reward=-2.0)
        assert [rec.action_applied for rec in records] == [cfg.kp_max] * 4
        assert [rec.reward for rec in records] == rewards
        assert [rec.cached for rec in records] == cached
        assert env.episode_count == cached.count(False)
        if cache_enabled:
            assert len(cache) == 1 and cache.lookup(cfg.kp_max) == -20.0
        else:
            assert len(cache) == 0

    def test_singleton_epoch_matches_manual_adam(self, obs_trace):
        cfg = small_config(n_iter=1)
        env = LocalPlantEnv(QUIET)
        cache = EvalCache(cfg.cache_resolution)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=5)
        rng = np.random.default_rng(7)
        new_params, stats, records = run_epoch(
            params, env, pretrace(QUIET, cfg, obs_trace), cfg, rng, cache, epoch=0,
            worst_reward=None)
        rec = records[0]
        obs = obs_trace.samples[rec.window_start:rec.window_start + cfg.d_obs]
        grads = pol.grad_weighted_logprob(params, [(obs, rec.action_raw, rec.reward)])
        grad = np.concatenate([grads[name].ravel() for name in pol.PARAM_NAMES])
        expected = pol.adam_step(params, grad, cfg.lr)
        assert np.array_equal(new_params.theta, expected.theta)

    def test_baseline_cancels_constant_rewards(self, obs_trace):
        cfg = small_config(baseline_enabled=True, n_iter=3)
        env = LocalPlantEnv(QUIET)
        cache = EvalCache(cfg.cache_resolution)
        cache.store(2.0, -0.5)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=6)
        params.tensors["b3_mu"][...] = 2.0
        params.tensors["w3_mu"][:] = 0.0
        params.tensors["b3_var"][...] = -30.0  # near-zero spread
        rng = np.random.default_rng(8)
        new_params, stats, _ = run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg,
                                         rng, cache, epoch=0, worst_reward=None)
        assert stats.min_reward == stats.max_reward == -0.5
        assert np.array_equal(new_params.theta, params.theta)


class BatchSpyEnv(LocalPlantEnv):
    """Local plant that records every batch of jobs it is given, and the
    end time each batch asks for."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.batches = []
        self.untils = []

    def run_episodes(self, jobs, until):
        self.batches.append(list(jobs))
        self.untils.append(until)
        return (self.run_episode(kp, seed) for kp, seed in jobs)


class OneByOneEnv:
    """An environment with run_episode only."""

    def __init__(self, scenario):
        self.scenario = scenario

    def run_episode(self, kp, seed):
        return plant.run_episode(self.scenario, plant.GainAction(kp), seed)


class TestEpisodeBatches:
    def test_each_epoch_batches_its_misses_in_iteration_order(self, monkeypatch):
        epochs = []
        real = trainer.run_epoch

        def recording(*args):
            params, stats, records = real(*args)
            epochs.append(records)
            return params, stats, records

        monkeypatch.setattr(trainer, "run_epoch", recording)
        cfg = small_config(n_epoch=4, n_iter=8)
        env = BatchSpyEnv(SCN)
        train(SCN, cfg, env=env)
        # the pre-trace is a batch of one, then one batch per epoch
        assert len(env.batches) == 1 + cfg.n_epoch
        assert env.batches[0] == [(SCN.kp_unstable, trainer._pretrace_seed(cfg.seed))]
        assert set(env.untils) == {trainer.reward_scenario(SCN, cfg).horizon}
        for batch, records in zip(env.batches[1:], epochs):
            assert batch == [(rec.action_applied, trainer._pretrace_seed(cfg.seed))
                             for rec in records if not rec.cached]
        assert sum(map(len, env.batches)) == env.episode_count
        # a bucket first missed in an epoch serves that epoch's later hits
        assert any(rec.cached for rec in epochs[0])

    def test_local_batch_runs_lazily_through_run_episode(self):
        env = SpyEnv(QUIET)
        results = trainer.run_jobs(env, [(2.0, 1), (3.0, 2)], QUIET.horizon)
        assert env.seeds == []
        next(results)
        assert env.seeds == [1]
        next(results)
        assert env.seeds == [1, 2] and env.episode_count == 2

    @pytest.mark.parametrize("cache", [True, False])
    def test_env_without_run_episodes_gives_same_log(self, tmp_path, cache):
        cfg = small_config(cache_enabled=cache)
        train(SCN, cfg, run_dir=tmp_path / "local")
        train(SCN, cfg, run_dir=tmp_path / "one", env=OneByOneEnv(SCN))
        assert (tmp_path / "local" / "training_log.csv").read_bytes() == \
               (tmp_path / "one" / "training_log.csv").read_bytes()

    def test_failed_batch_leaves_no_reserved_bucket(self, obs_trace):
        class Failing(LocalPlantEnv):
            def run_episode(self, kp, seed):
                if self.episode_count:
                    raise RuntimeError("simulator lost")
                return super().run_episode(kp, seed)

        cfg = small_config(n_iter=8)
        cache = EvalCache(cfg.cache_resolution)
        cache.store(100.0, -1.0)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=2)
        params.tensors["b3_mu"][...] = 2.0  # actions spread over buckets
        with pytest.raises(RuntimeError, match="simulator lost"):
            run_epoch(params, Failing(QUIET), pretrace(QUIET, cfg, obs_trace), cfg,
                      np.random.default_rng(6), cache, epoch=0, worst_reward=None)
        assert len(cache) == 1 and cache.lookup(100.0) == -1.0

    def test_every_cache_entry_is_a_finished_reward(self, obs_trace):
        # whenever an episode runs, each bucket the cache holds has a finite
        # reward: an epoch's misses enter it only once the epoch is scored
        cfg = small_config(n_iter=8)
        cache = EvalCache(cfg.cache_resolution)
        buckets = range(cache.bucket(cfg.kp_min), cache.bucket(cfg.kp_max) + 1)
        held = []

        class Checking(LocalPlantEnv):
            def run_episode(self, kp, seed):
                rewards = [cache.lookup(b * cfg.cache_resolution) for b in buckets]
                rewards = [r for r in rewards if r is not None]
                assert len(rewards) == len(cache)
                assert all(isinstance(r, float) and math.isfinite(r) for r in rewards)
                held.append(len(rewards))
                return super().run_episode(kp, seed)

        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=2)
        params.tensors["b3_mu"][...] = 2.0  # actions spread over buckets
        env = Checking(QUIET)
        rng = np.random.default_rng(6)
        epochs = [run_epoch(params, env, pretrace(QUIET, cfg, obs_trace), cfg, rng, cache,
                            epoch, worst_reward=None)[2] for epoch in range(3)]
        # the epochs repeat buckets, within one and across them
        assert any(rec.cached for rec in epochs[0])
        assert held[0] == 0 and max(held) > 0
        assert env.episode_count == len(cache) < 3 * cfg.n_iter


class TestTrain:
    def test_deterministic_log(self, tmp_path):
        cfg = small_config()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        train(SCN, cfg, run_dir=d1)
        train(SCN, cfg, run_dir=d2)
        assert (d1 / "training_log.csv").read_bytes() == \
               (d2 / "training_log.csv").read_bytes()

    def test_log_rows_and_header(self, tmp_path):
        cfg = small_config(n_epoch=7)
        train(SCN, cfg, run_dir=tmp_path)
        lines = (tmp_path / "training_log.csv").read_text().splitlines()
        # the header the README documents
        assert lines[0] == ("epoch,mean_reward,min_reward,max_reward,mean_action,"
                            "mean_var,cache_hit_rate,clamp_rate")
        assert len(lines) == 1 + 7

    def test_best_reward_sequence_strictly_increasing(self, tmp_path):
        cfg = small_config(n_epoch=20)
        result = train(SCN, cfg, run_dir=tmp_path)
        best_seq = []
        best = -math.inf
        for s in result.stats:
            if s.mean_reward > best:
                best = s.mean_reward
                best_seq.append(best)
        assert best_seq == sorted(set(best_seq))
        assert result.best_reward == best

    def test_checkpoints_written_and_loadable(self, tmp_path):
        cfg = small_config()
        result = train(SCN, cfg, run_dir=tmp_path)
        best = pol.load_checkpoint(tmp_path / "best.ckpt", cfg.d_obs,
                                   cfg.hidden_size)
        assert np.array_equal(best.theta, result.best_params.theta)
        pol.load_checkpoint(tmp_path / "last.ckpt", cfg.d_obs, cfg.hidden_size)

    def test_best_is_latest_among_tied_epochs(self, tmp_path, monkeypatch):
        rewards = iter([-3.0, -1.0, -2.0, -1.0, -1.5])
        real = trainer.run_epoch

        def scripted(*args):
            params, stats, records = real(*args)
            return params, replace(stats, mean_reward=next(rewards)), records

        monkeypatch.setattr(trainer, "run_epoch", scripted)
        result = train(SCN, small_config(), run_dir=tmp_path)
        assert result.best_reward == -1.0
        # one Adam step per epoch: epoch 4 ties epoch 2 and wins
        assert result.best_params.step_count == 4
        best = pol.load_checkpoint(tmp_path / "best.ckpt")
        assert best.step_count == 4

    @pytest.mark.parametrize("rewards, best_epoch", [
        ([-3.0, -1.0, -2.0, -1.0, -1.5], 4),  # tied with epoch 2, not last
        ([-3.0, -2.0, -1.5, -1.2, -1.0], 5),  # the last epoch
    ], ids=["tied_not_last", "last"])
    def test_best_params_are_a_copy_of_their_epoch(self, tmp_path, monkeypatch,
                                                   rewards, best_epoch):
        # best_params and last_params share no array with each other or with
        # any epoch's parameters, and no epoch's arrays change afterwards
        scripted, epochs, snapshots = iter(rewards), [], []
        real = trainer.run_epoch

        def recording(*args):
            params, stats, records = real(*args)
            epochs.append(params)
            snapshots.append(params.copy())
            return params, replace(stats, mean_reward=next(scripted)), records

        monkeypatch.setattr(trainer, "run_epoch", recording)
        result = train(SCN, small_config(), run_dir=tmp_path)
        assert result.last_params is epochs[-1]
        best = snapshots[best_epoch - 1]
        saved = pol.load_checkpoint(tmp_path / "best.ckpt")
        for name in ("theta", "m", "v"):
            kept = getattr(result.best_params, name)
            assert not np.shares_memory(kept, getattr(result.last_params, name))
            assert not any(np.shares_memory(kept, getattr(p, name)) for p in epochs)
            assert kept.tobytes() == getattr(best, name).tobytes() \
                == getattr(saved, name).tobytes()
            assert all(getattr(p, name).tobytes() == getattr(q, name).tobytes()
                       for p, q in zip(epochs, snapshots))
        assert result.best_params.step_count == saved.step_count == best_epoch

    def test_best_checkpoint_acts_at_optimum_on_tied_seed(self):
        # at this seed 68+ epochs tie at the top reward; the first of them
        # acted at 2.17, the latest clamps to the most-damped gain kp_min
        cfg = TrainConfig(seed=4246685796)
        result = train(SCN, cfg)
        mu = pol.forward(result.best_params, canonical_observation(SCN, cfg)).mu
        assert clamp(mu, cfg.kp_min, cfg.kp_max) == cfg.kp_min

    @pytest.mark.parametrize("fail_at", [None, 0, 3])
    def test_checkpoints_written_once_per_run(self, tmp_path, monkeypatch, fail_at):
        # best.ckpt and last.ckpt are written once, when the run ends, also
        # when a later epoch raised; nothing is written if no epoch finished
        saved = []
        real = trainer.run_epoch

        def failing(params, env, pretrace, config, rng, cache, epoch, *rest):
            if epoch == fail_at:
                raise RuntimeError("simulator lost")
            return real(params, env, pretrace, config, rng, cache, epoch, *rest)

        monkeypatch.setattr(trainer, "run_epoch", failing)
        monkeypatch.setattr(pol, "save_checkpoint", lambda params, path:
                            saved.append((path.name, params.step_count)))
        cfg = small_config(n_epoch=6)
        if fail_at is None:
            train(SCN, cfg, run_dir=tmp_path)
        else:
            with pytest.raises(RuntimeError, match="simulator lost"):
                train(SCN, cfg, run_dir=tmp_path)
        finished = cfg.n_epoch if fail_at is None else fail_at
        if finished:
            assert [name for name, _ in saved] == ["best.ckpt", "last.ckpt"]
            assert saved[1][1] == finished  # one Adam step per epoch
        else:
            assert saved == []

    @pytest.mark.parametrize("failure", ["diverged", "env_error"])
    def test_failed_pretrace_writes_nothing(self, tmp_path, failure):
        # the pre-trace is conditioned before run_dir is written: a history
        # that diverges before act_time, or an env that fails, leaves no
        # config.cfg and no open training_log.csv
        class Lost(LocalPlantEnv):
            def run_episode(self, kp, seed):
                raise envproto.ProtocolError("connection lost")

        scn = replace(SCN, diverge_threshold=0.05) if failure == "diverged" else SCN
        env = Lost(SCN) if failure == "env_error" else None
        error = sigproc.TraceError if failure == "diverged" else envproto.ProtocolError
        with pytest.raises(error, match="windows need 500|connection lost"):
            train(scn, small_config(n_epoch=1), run_dir=tmp_path / "run", env=env)
        assert not (tmp_path / "run").exists()
        (tmp_path / "run").mkdir()
        (tmp_path / "run" / "training_log.csv").write_text("kept\n")
        with pytest.raises(error):
            train(scn, small_config(n_epoch=1), run_dir=tmp_path / "run", env=env)
        assert [f.name for f in (tmp_path / "run").iterdir()] == ["training_log.csv"]
        assert (tmp_path / "run" / "training_log.csv").read_text() == "kept\n"

    def test_cache_disabled_runs_every_episode(self, tmp_path):
        cfg = small_config(cache_enabled=False)
        result = train(SCN, cfg, run_dir=tmp_path)
        # one pre-activation trace + one episode per iteration
        assert result.plant_episodes == 1 + cfg.n_epoch * cfg.n_iter

    def test_training_stays_on_one_thread(self, tmp_path):
        # CPU used by the process outside its main thread (e.g. BLAS worker
        # threads spinning after a LAPACK call) during a 3-epoch training,
        # in a fresh interpreter
        code = (
            "import sys, time\n"
            "from sscirl import plant, trainer\n"
            "scn = plant.PlantScenario()\n"
            "for cache in (True, False):\n"
            "    cfg = trainer.TrainConfig(n_epoch=3, cache_enabled=cache)\n"
            "    p0, t0 = time.process_time(), time.thread_time()\n"
            "    trainer.train(scn, cfg, run_dir=sys.argv[1] + f'/run{cache}')\n"
            "    p1, t1 = time.process_time(), time.thread_time()\n"
            "    print(cache, (p1 - p0 - (t1 - t0)) / (t1 - t0))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, env=os.environ.copy())
        assert proc.returncode == 0, proc.stderr
        for line in proc.stdout.splitlines():
            cache, share = line.split()
            assert float(share) < 0.05, f"cache {cache}: other threads used {share}"

    def test_cache_enabled_bounds_episodes(self, tmp_path):
        cfg = small_config(n_epoch=30)
        result = train(SCN, cfg, run_dir=tmp_path)
        n_buckets = round((cfg.kp_max - cfg.kp_min) / cfg.cache_resolution) + 1
        assert result.plant_episodes <= n_buckets + cfg.n_epoch


class MemoEnv(LocalPlantEnv):
    """The local plant, running one episode per gain bucket and seed and
    handing it out again for every gain in the bucket: with the cache off,
    an epoch then costs what it does with the cache on."""

    def __init__(self, scenario, resolution):
        super().__init__(scenario)
        self.resolution = resolution
        self.episodes = {}

    def run_episode(self, kp, seed):
        key = (round(kp / self.resolution), seed)
        if key not in self.episodes:
            self.episodes[key] = super().run_episode(kp, seed)
        return self.episodes[key]


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_same_epoch(new, ref):
    """run_epoch's results, bit for bit: the parameters, the log row and
    every record, each field with its type."""
    (p_new, stats_new, records_new), (p_ref, stats_ref, records_ref) = new, ref
    for name in ("theta", "m", "v"):
        assert same_bits(getattr(p_new, name), getattr(p_ref, name)), name
    assert p_new.step_count == p_ref.step_count
    assert repr(astuple(stats_new)) == repr(astuple(stats_ref))
    assert repr([astuple(r) for r in records_new]) == repr([astuple(r) for r in records_ref])


class TestReferenceEpochs:
    """run_epoch, forward, backward and adam_step against the plain form
    they had before they were tuned (tests/epoch_reference.py): the same
    bits, epoch after epoch."""

    # post_decimation clamps the default band below the 50 Hz Nyquist, with a warning
    @pytest.mark.filterwarnings("ignore:band-pass upper cutoff")
    @pytest.mark.parametrize("baseline", [False, True], ids=["raw", "baseline"])
    @pytest.mark.parametrize("cache", [True, False], ids=["cache_on", "cache_off"])
    @pytest.mark.parametrize("stage", ["pre_decimation", "post_decimation"])
    def test_default_run_matches_reference(self, monkeypatch, stage, cache, baseline):
        cfg = TrainConfig(filter_stage=stage, cache_enabled=cache,
                          baseline_enabled=baseline, seed=7)
        cut = reward_scenario(SCN, cfg)
        seed = trainer._pretrace_seed(cfg.seed)
        pre = plant.run_episode(cut, plant.GainAction(SCN.kp_unstable), seed)
        obs_trace, head = trainer.observation_trace(pre.trace, SCN, cfg)
        record = trainer._Pretrace(cut, cfg, seed, obs_trace, head)
        env = MemoEnv(cut, cfg.cache_resolution)
        # one reward per episode the env hands out, shared by both sides
        rewards, real_reward = {}, trainer.episode_reward

        def memo_reward(result, *args):
            if id(result) not in rewards:
                rewards[id(result)] = real_reward(result, *args)
            return rewards[id(result)]

        monkeypatch.setattr(trainer, "episode_reward", memo_reward)
        p_new = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=11)
        p_ref = p_new.copy()
        rng_new, rng_ref = (np.random.default_rng(np.random.SeedSequence((cfg.seed, 1)))
                            for _ in range(2))
        cache_new, cache_ref = EvalCache(cfg.cache_resolution), EvalCache(cfg.cache_resolution)
        worst = None
        for epoch in range(cfg.n_epoch):
            new = run_epoch(p_new, env, record, cfg, rng_new, cache_new, epoch, worst)
            ref = epoch_reference.run_epoch(p_ref, env, cut, cfg, rng_ref, cache_ref,
                                            obs_trace, epoch, worst, head)
            assert_same_epoch(new, ref)
            (p_new, stats, _), (p_ref, _, _) = new, ref
            worst = stats.min_reward if worst is None else min(worst, stats.min_reward)
        assert cfg.n_epoch == 200
        assert repr(cache_new._rewards) == repr(cache_ref._rewards)
        assert len(cache_new) == (len(env.episodes) if cache else 0)
        assert rng_new.standard_normal() == rng_ref.standard_normal()

    @pytest.mark.parametrize("cache", [True, False], ids=["cache_on", "cache_off"])
    def test_divergence_penalty_epoch_matches_reference(self, obs_trace, cache):
        hot = plant.PlantScenario(zeta_stable=0.05, noise_std=0.0)
        cfg = TrainConfig(cache_enabled=cache)
        params = pinned_params(cfg, 10.0)  # every action clamps to kp_max and diverges
        new = run_epoch(params, LocalPlantEnv(hot), pretrace(hot, cfg, obs_trace), cfg,
                        np.random.default_rng(3), EvalCache(cfg.cache_resolution),
                        epoch=0, worst_reward=-2.0)
        ref = epoch_reference.run_epoch(params, LocalPlantEnv(hot), hot, cfg,
                                        np.random.default_rng(3),
                                        EvalCache(cfg.cache_resolution), obs_trace,
                                        epoch=0, worst_reward=-2.0)
        assert_same_epoch(new, ref)
        assert [r.reward for r in new[2]] == \
            ([-20.0] * 8 if cache else [-20.0 * 10 ** k for k in range(5)] + [-1e6] * 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_policy_steps_match_reference(self, seed):
        # batches of 1 to 16 windows, a single window, observations from
        # 1e-8 to 1e4 in scale, parameters and moments away from init
        rng = np.random.default_rng(seed)
        params = pol.init_params(seed=seed)
        params.theta[:] += 3.0 * rng.standard_normal(params.theta.size)
        params = pol.PolicyParameters(params.obs_dim, params.hidden, params.theta,
                                      rng.standard_normal(params.theta.size),
                                      rng.random(params.theta.size), seed * 7)
        for n in (1, 2, 8, 16):
            rows = 10.0 ** rng.uniform(-8, 4) * (rng.standard_normal((n, 30))
                                                 + rng.standard_normal())
            new, ref = pol.forward(params, rows), epoch_reference.forward(params, rows)
            assert same_bits(new.mu, ref.mu) and same_bits(new.var, ref.var)
            assert all(same_bits(new.cache[k], ref.cache[k]) for k in ref.cache)
            single, single_ref = (f(params, rows[0]) for f in (pol.forward,
                                                             epoch_reference.forward))
            assert (single.mu, single.var) == (single_ref.mu, single_ref.var)
            actions = ref.mu + np.sqrt(ref.var) * rng.standard_normal(n)
            weights = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(n)
            grad = pol.backward(params, new, actions, weights)
            assert same_bits(grad, epoch_reference.backward(params, ref, actions, weights))
            lr = 10.0 ** rng.uniform(-5, -1)
            stepped, stepped_ref = (f(params, grad, lr) for f in (pol.adam_step,
                                                                 epoch_reference.adam_step))
            for name in ("theta", "m", "v"):
                assert same_bits(getattr(stepped, name), getattr(stepped_ref, name))
            assert stepped.step_count == stepped_ref.step_count


@pytest.fixture(scope="module")
def oracle_gain():
    return grid_oracle(SCN, TrainConfig())[0]


def start_at_unstable_gain(monkeypatch):
    """Every training starts with the mean head's bias at kp_unstable."""
    real = pol.init_params

    def init_params(*args, **kwargs):
        params = real(*args, **kwargs)
        params.tensors["b3_mu"][...] = SCN.kp_unstable
        return params

    monkeypatch.setattr(pol, "init_params", init_params)


def best_checkpoint_gap(run_dir, seed, oracle_gain):
    """|clamped best.ckpt action on the canonical observation - oracle gain|
    after a default training at seed."""
    cfg = TrainConfig(seed=seed)
    train(SCN, cfg, run_dir=run_dir)
    best = pol.load_checkpoint(run_dir / "best.ckpt", cfg.d_obs, cfg.hidden_size)
    mu = pol.forward(best, canonical_observation(SCN, cfg)).mu
    return abs(clamp(mu, cfg.kp_min, cfg.kp_max) - oracle_gain)


class TestLearning:
    # Training that starts at the unstable gain must end at the oracle's
    # gain; the same start with the gradient reversed must not.
    @pytest.mark.parametrize("seed", range(8))
    def test_best_checkpoint_reaches_oracle_gain(self, tmp_path, monkeypatch, seed,
                                                 oracle_gain):
        start_at_unstable_gain(monkeypatch)
        assert best_checkpoint_gap(tmp_path, seed, oracle_gain) <= 0.25

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reversed_gradient_does_not(self, tmp_path, monkeypatch, seed, oracle_gain):
        start_at_unstable_gain(monkeypatch)
        real = pol.adam_step
        monkeypatch.setattr(pol, "adam_step", lambda params, grad, lr: real(params, -grad, lr))
        assert best_checkpoint_gap(tmp_path, seed, oracle_gain) > 0.25


class PeakEnv(LocalPlantEnv):
    """A plant whose reward peaks inside the gain range, at optimum: every
    episode runs at kp_stable, and its samples from act_time on are scaled
    about p_nom by sqrt(1 + 4 (kp - optimum)^2)."""

    def __init__(self, scenario, optimum):
        super().__init__(scenario)
        self.optimum = optimum
        self.first = config.first_sample(scenario.act_time, scenario.sample_rate)

    def run_episode(self, kp, seed):
        result = super().run_episode(self.scenario.kp_stable, seed)
        samples = result.trace.samples.copy()
        after = samples[self.first:]
        after -= self.scenario.p_nom
        after *= math.sqrt(1.0 + 4.0 * (kp - self.optimum) ** 2)
        after += self.scenario.p_nom
        return replace(result, trace=sigproc.SignalTrace(samples, result.trace.sample_rate))


class TestInteriorOptimum:
    # A constant policy cannot pass for both optima. With the baseline,
    # 8 of 8 seeds land within 0.25 of each; without it (the default), 5.
    @pytest.mark.parametrize("optimum", [1.5, 2.5])
    def test_best_params_find_the_optimum(self, optimum):
        hits = 0
        for seed in range(8):
            cfg = TrainConfig(seed=seed, baseline_enabled=True)
            result = train(SCN, cfg, env=PeakEnv(reward_scenario(SCN, cfg), optimum))
            mu = pol.forward(result.best_params, canonical_observation(SCN, cfg)).mu
            hits += abs(clamp(mu, cfg.kp_min, cfg.kp_max) - optimum) <= 0.25
        assert hits >= 6


class TestWindowing:
    def test_observation_starts_bounds(self):
        # from the sample at act_time - obs_window = 4.6 s to the last
        # window ending at the 500th sample, the last before act_time = 5 s
        assert observation_starts(SCN, TrainConfig()) == range(460, 471)
        assert observation_starts(SCN, TrainConfig(d_obs=40)) == range(460, 461)

    def test_first_start_rounds_up_between_samples(self):
        # act_time - obs_window = 4.605 s falls between samples 460 and 461
        assert observation_starts(SCN, TrainConfig(obs_window=0.395))[0] == 461
        assert observation_starts(replace(SCN, act_time=5.003), TrainConfig())[0] == 461

    def test_pretrace_too_short_for_the_windows_rejected(self):
        # a pre-activation trace that ends (diverges) before act_time
        cfg = TrainConfig()
        result = plant.run_episode(QUIET, plant.GainAction(QUIET.kp_unstable), seed=0)
        short = sigproc.SignalTrace(result.trace.samples[:24_950], result.trace.sample_rate)
        assert len(trainer.observation_trace(result.trace, QUIET, cfg)[0]) == 500
        with pytest.raises(sigproc.TraceError, match="windows need 500"):
            trainer.observation_trace(short, QUIET, cfg)

    def test_canonical_observation_shape_and_content(self):
        cfg = TrainConfig()
        obs = canonical_observation(SCN, cfg)
        assert obs.values.shape == (cfg.d_obs,)
        # band-passed content: near-zero mean relative to peak
        assert abs(obs.values.mean()) < 0.1 * np.max(np.abs(obs.values))

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    def test_canonical_observation_equals_full_horizon_one(self, stage):
        # it runs its episode only to the end of the reward window
        cfg = TrainConfig(filter_stage=stage)
        quiet = replace(SCN, noise_std=0.0)
        full = plant.run_episode(quiet, plant.GainAction(SCN.kp_unstable), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            expected = trainer.observation_trace(full.trace, SCN, cfg)[0].samples[460:490]
            obs = canonical_observation(SCN, cfg)
        assert obs.values.tobytes() == expected.tobytes()
        assert obs.window_start == 4.6


class TestEvaluate:
    def test_zero_init_policy_applies_kp_min(self):
        cfg = small_config()
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=0)
        params.theta[:] = 0.0
        report = evaluate(params, SCN, cfg)
        assert report.applied_gain == cfg.kp_min
        assert report.post_energy >= 0
        assert math.isfinite(report.energy_ratio)

    def test_repeatable(self):
        cfg = small_config()
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1)
        r1 = evaluate(params, SCN, cfg, seed=3)
        r2 = evaluate(params, SCN, cfg, seed=3)
        assert r1.as_dict() == r2.as_dict()

    def test_no_mitigation_baseline(self):
        cfg = small_config()
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1)
        report = evaluate(params, SCN, cfg, mitigate=False)
        assert report.applied_gain == SCN.kp_unstable
        assert report.energy_ratio == pytest.approx(1.0, rel=1e-6)

    def test_band_passes_each_episode_once(self, monkeypatch):
        lengths, continued = [], []
        real_head, real_on = sigproc.filter_head, sigproc.FilterHead.filter_on

        def counting(trace, *args):
            lengths.append(len(trace))
            return real_head(trace, *args)

        def counting_on(head, samples):
            continued.append((len(head.samples), len(samples)))
            return real_on(head, samples)

        monkeypatch.setattr(sigproc, "filter_head", counting)
        monkeypatch.setattr(sigproc.FilterHead, "filter_on", counting_on)
        cfg = small_config()
        evaluate(pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1), SCN, cfg, seed=3)
        # one head over the canonical observation's samples before act_time,
        # one over the mitigated episode's; both episodes filter on from it
        k_act = config.first_sample(SCN.act_time, SCN.sample_rate)
        assert lengths == [k_act, k_act]
        assert continued == [(k_act, SCN.n_samples - k_act)] * 2

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    @pytest.mark.parametrize("act_time", [5.0, 5.003], ids=["on_grid", "off_grid"])
    @pytest.mark.parametrize("seed", [3, None], ids=["shared_history", "fresh_entropy"])
    def test_energies_equal_whole_trace_filtering(self, monkeypatch, stage, act_time, seed):
        # each energy is the one a pass over the whole episode gives, split
        # at reward_window's start, bit for bit; at seed None the episodes
        # share no history, so the unmitigated one filters from t = 0
        scn = replace(SCN, act_time=act_time)
        cfg = small_config(filter_stage=stage)
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=0)
        params.theta[:] = 0.0  # applies kp_min, not kp_unstable
        episodes = []
        real = plant.run_episode

        def recording(*args, **kwargs):
            episodes.append(real(*args, **kwargs))
            return episodes[-1]

        monkeypatch.setattr(plant, "run_episode", recording)
        act = config.reward_window(scn, cfg).start
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            report = evaluate(params, scn, cfg, seed=seed)
            _, mitigated, unmitigated = episodes  # after canonical_observation's
            whole = [sigproc.filter_head(r.trace, *trainer._stage(cfg))[1]
                     for r in (mitigated, unmitigated)]
        assert report.trace is mitigated.trace
        assert not (mitigated.diverged or unmitigated.diverged)
        k_act = config.first_sample(act_time, scn.sample_rate)
        assert np.array_equal(mitigated.trace.samples[:k_act],
                              unmitigated.trace.samples[:k_act]) == (seed is not None)
        energies = [(sigproc.energy(f.samples[:act], f.sample_rate),
                     sigproc.energy(f.samples[act:], f.sample_rate)) for f in whole]
        assert report.pre_energy == energies[0][0]
        assert report.post_energy == energies[0][1]
        assert report.unmitigated_post_energy == energies[1][1]
        assert report.energy_ratio == energies[0][1] / energies[1][1]

    def test_diverged_unmitigated_episode_has_infinite_energy(self):
        # the unmitigated mode grows past 200 after act_time; kp_min damps it
        scn = replace(SCN, diverge_threshold=200.0)
        cfg = small_config()
        params = pol.init_params(cfg.d_obs, cfg.hidden_size, seed=0)
        params.theta[:] = 0.0
        report = evaluate(params, scn, cfg, seed=3)
        assert report.unmitigated_diverged and not report.diverged
        assert report.unmitigated_post_energy == math.inf
        assert math.isfinite(report.post_energy) and report.energy_ratio == 0.0

    def test_diverged_mitigated_episode_has_infinite_ratio(self):
        # unstable above kp 1.0 and mistuned late: at kp_unstable both
        # episodes diverge after act_time, so both post energies are inf
        scn = plant.PlantScenario(kp_stable=0.5, kp_crit=1.0, mistune_time=4.5,
                                  diverge_threshold=10.0)
        cfg = small_config()
        report = evaluate(pol.init_params(cfg.d_obs, cfg.hidden_size, seed=1), scn, cfg,
                          mitigate=False)
        assert report.diverged and report.unmitigated_diverged
        assert report.post_energy == report.unmitigated_post_energy == math.inf
        assert report.energy_ratio == math.inf


class TestOracle:
    def test_unique_optimum_at_lowest_gain(self):
        cfg = TrainConfig()
        best, sweep = grid_oracle(SCN, cfg)
        rewards = [r for _, r in sweep]
        assert best == cfg.kp_min
        assert rewards.count(max(rewards)) == 1
        assert all(a > b for a, b in zip(rewards, rewards[1:]))

    def test_shares_one_history_with_canonical_observation(self):
        cfg = TrainConfig()
        plant._history.cache_clear()
        canonical_observation(SCN, cfg)
        _, sweep = grid_oracle(SCN, cfg)
        # one miss, then a hit for each of the sweep's 71 episodes
        assert plant._history.cache_info()[:2] == (len(sweep), 1) == (71, 1)

    @pytest.mark.parametrize("stage", sigproc.FILTER_STAGES)
    def test_sweep_filters_on_from_one_head(self, stage, monkeypatch):
        # the sweep builds one head, over its history's samples before
        # act_time; no episode filters on from the stage at t = 0, and the
        # sweep is the one that doing so for every episode gives
        cfg = TrainConfig(filter_stage=stage)
        heads = []
        real_head, real_reward = sigproc.filter_head, trainer.episode_reward

        def counting(trace, *args):
            heads.append(len(trace))
            return real_head(trace, *args)

        monkeypatch.setattr(sigproc, "filter_head", counting)
        k_act = config.first_sample(SCN.act_time, SCN.sample_rate)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # post_decimation clamps f_max
            headed = grid_oracle(SCN, cfg)
            assert heads == [k_act]
            heads.clear()
            monkeypatch.setattr(trainer, "episode_reward", lambda *args: real_reward(*args[:3]))
            from_zero = grid_oracle(SCN, cfg)
        assert heads == [k_act] + [0] * len(from_zero[1]) == [k_act] + [0] * 71
        assert repr(headed) == repr(from_zero)

    def test_history_diverged_before_act_time_sweeps_to_minus_inf(self):
        # canonical_observation has no windows there; the sweep still runs,
        # every episode diverging before its reward window ends
        scn = plant.PlantScenario(kp_stable=0.5, kp_crit=1.0, mistune_time=1.0,
                                  diverge_threshold=10.0)
        cfg = TrainConfig(kp_max=1.0)
        with pytest.raises(sigproc.TraceError, match="windows need 500"):
            canonical_observation(scn, cfg)
        best, sweep = grid_oracle(scn, cfg)
        assert best == 0.5 and len(sweep) == 11
        assert all(reward == -math.inf for _, reward in sweep)


def test_unknown_filter_stage_rejected():
    with pytest.raises(ValueError, match="filter_stage"):
        TrainConfig(filter_stage="bogus")
    for stage in sigproc.FILTER_STAGES:
        assert TrainConfig(filter_stage=stage).filter_stage == stage
