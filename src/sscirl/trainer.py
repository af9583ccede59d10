"""Episodic policy-gradient training loop against the surrogate plant.

Each scorer (train, evaluate, grid_oracle, canonical_observation) keeps
one record, _Pretrace, of the history its episodes continue: the filter
stage's one pass over its samples before act_time gives the head they
filter on from, the filtered trace and the observation windows. Each
training iteration samples a gain from the policy on a window, clamps it
into the safe range, and scores it by the negated post-activation
oscillation energy of a plant episode at the pre-trace's seed, so
iterations differ only by their gain. A gain reuses the finished reward
of its cache bucket, or of the epoch's first miss in it. The policy
works per epoch: the epoch's windows go through one batched forward pass
to sample their gains, and after scoring, the whole batch takes one
gradient of the weighted log-probability objective, backpropagated
through that same pass, and one gradient-ascent Adam step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from . import policy as pol
from . import plant, sigproc
from .config import (ConfigError, TrainConfig, filter_band, first_sample,
                     observation_starts, reward_samples, reward_window, validate, write)

DIVERGENCE_PENALTY_FLOOR = -1e6
# the most gains grid_oracle sweeps (the default range and resolution give 71)
ORACLE_MAX_GAINS = 10_001


@dataclass
class EpisodeRecord:
    window_start: int  # index into the observation trace
    action_raw: float
    action_applied: float
    log_prob: float
    reward: float
    var: float
    cached: bool


class EvalCache:
    """Per-gain-bucket reuse of plant evaluations.

    Buckets are uniform at the configured resolution; the finished reward
    (penalty included) of the first run in a bucket stands for all of it.
    """

    def __init__(self, resolution: float):
        self.resolution = resolution
        self._rewards: dict[int, float] = {}

    def bucket(self, kp: float) -> int:
        return int(round(kp / self.resolution))

    def lookup(self, kp: float) -> float | None:
        """The reward of kp's bucket, or None when it holds none."""
        return self._rewards.get(self.bucket(kp))

    def store(self, kp: float, reward: float) -> None:
        self._rewards[self.bucket(kp)] = reward

    def __len__(self) -> int:
        return len(self._rewards)


class LocalPlantEnv:
    """In-process environment: direct surrogate plant episodes."""

    def __init__(self, scenario: plant.PlantScenario):
        self.scenario = scenario
        self.episode_count = 0

    def run_episode(self, kp: float, seed: int | None) -> plant.EpisodeResult:
        self.episode_count += 1
        return plant.run_episode(self.scenario, kp, seed)

    def run_episodes(self, jobs, until: float):
        """run_episode of each (kp, seed) job, in job order, each run as it
        is pulled; every episode runs to the scenario's horizon, whatever
        until asks."""
        return (self.run_episode(kp, seed) for kp, seed in jobs)


def _pretrace_seed(seed: int) -> int:
    """The plant seed of a run's pre-activation trace and of every training
    episode: each continues the history the policy observed."""
    return int(np.random.SeedSequence((seed, 0x9E3779B9)).generate_state(1)[0])


def clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


# ---------------------------------------------------------------------------
# reward and observation plumbing

def _stage_energy(samples: np.ndarray, sample_rate: float, head: sigproc.FilterHead | None,
                  config: TrainConfig, start: int, stop: int | None = None) -> float:
    """The energy over [start, stop) (stop None: to the end) of the filter
    stage's trace of samples, at sample_rate from t = 0: filtered on from
    head when the samples start with head's samples and head ends by
    start, else from the stage at t = 0 (the head of no samples): either
    way, a whole-trace pass's energy bit for bit."""
    if head is None or head.length > start or \
            not np.array_equal(samples[:len(head.samples)], head.samples):
        head, _ = sigproc.filter_head(sigproc.SignalTrace(samples[:0], sample_rate),
                                      *filter_band(sample_rate, config))
    filtered = head.filter_on(samples[len(head.samples):])
    return sigproc.energy(filtered[start - head.length:
                                   None if stop is None else stop - head.length],
                          head.sample_rate)


def episode_reward(result: plant.EpisodeResult, scenario: plant.PlantScenario,
                   config: TrainConfig,
                   head: sigproc.FilterHead | None = None) -> float | None:
    """Negated oscillation energy of the filtered response over its
    reward_window. None when the trace, which starts at t = 0, holds fewer
    than reward_samples (divergence). Only those samples are filtered
    (both filter stages are causal), on from head where _stage_energy can:
    the reward is the same bit for bit."""
    n = reward_samples(scenario, config)
    if len(result.trace) < n:
        return None
    window = reward_window(scenario, config)
    return -_stage_energy(result.trace.samples[:n], result.trace.sample_rate, head, config,
                          window.start, window.stop)


def reward_scenario(scenario: plant.PlantScenario,
                    config: TrainConfig) -> plant.PlantScenario:
    """The scenario cut to reward_samples, or itself when it holds no more.
    Noise is prefix-stable, so a reward on the cut episode equals the
    full-horizon one bit for bit."""
    n = reward_samples(scenario, config)
    if n >= scenario.n_samples:
        return scenario
    return replace(scenario, horizon=n * scenario.sim_dt)


def observation_trace(filtered: sigproc.SignalTrace, scenario: plant.PlantScenario,
                      config: TrainConfig) -> sigproc.SignalTrace:
    """The observation trace of a history: filtered, the filter stage's
    trace of its samples before act_time (a _Pretrace's), downsampled to
    target_rate. TraceError when it is too short for a window at every
    index of observation_starts, as when the history diverged before
    act_time."""
    observed = sigproc.downsample(filtered, config.target_rate)
    need = observation_starts(scenario, config).stop - 1 + config.d_obs
    if len(observed) < need:
        raise sigproc.TraceError(f"pre-activation trace holds {len(observed)} low-rate "
                                 f"samples, its observation windows need {need}")
    return observed


class _Pretrace:
    """The one record of a history: the episodes on scenario at seed that
    continue result's samples before act_time. The filter stage's one pass
    over those samples gives head, which such an episode filters on from,
    and their filtered trace; starts is observation_starts, and row k of
    windows (computed on first use, TraceError when the history ends short
    of them) the d_obs samples of the observation trace from starts[k]."""

    def __init__(self, result: plant.EpisodeResult, scenario: plant.PlantScenario,
                 config: TrainConfig, seed: int):
        self.scenario, self.config, self.seed = scenario, config, seed
        rate = result.trace.sample_rate
        self.head, self.filtered = sigproc.filter_head(sigproc.SignalTrace(
            result.trace.samples[:first_sample(scenario.act_time, rate)], rate),
            *filter_band(rate, config))
        self.starts = observation_starts(scenario, config)

    @cached_property
    def windows(self) -> np.ndarray:
        observed = observation_trace(self.filtered, self.scenario, self.config).samples
        return observed[np.arange(self.starts.start, self.starts.stop)[:, np.newaxis]
                        + np.arange(self.config.d_obs)]

    def reward(self, result: plant.EpisodeResult) -> float | None:
        return episode_reward(result, self.scenario, self.config, self.head)


def canonical_observation(scenario: plant.PlantScenario,
                          config: TrainConfig) -> sigproc.Observation:
    """Deterministic reference observation: zero-noise episode, window at
    the first index of observation_starts. The episode runs on
    grid_oracle's scenario (reward_scenario without noise) at its seed, so
    the two share one plant history; the observation reads only
    [0, act_time)."""
    quiet = replace(reward_scenario(scenario, config), noise_std=0.0)
    history = _Pretrace(plant.run_episode(quiet, quiet.kp_unstable, seed=0), quiet, config, 0)
    return sigproc.Observation(history.windows[0], history.starts[0] / config.target_rate)


# ---------------------------------------------------------------------------
# training loop

def divergence_penalty(worst_reward: float | None) -> float:
    """Penalty reward for episodes that diverge before the reward window:
    10x the worst finite reward seen so far, floored at -1e6."""
    if worst_reward is None:
        return DIVERGENCE_PENALTY_FLOOR
    return max(10.0 * worst_reward, DIVERGENCE_PENALTY_FLOOR)


@dataclass
class EpochStats:
    epoch: int
    mean_reward: float
    min_reward: float
    max_reward: float
    mean_action: float
    mean_var: float
    cache_hit_rate: float
    clamp_rate: float

    def csv_row(self) -> str:
        return ",".join([repr(getattr(self, name)) for name in _LOG_FIELDS])


_LOG_FIELDS = tuple(f.name for f in fields(EpochStats))
LOG_HEADER = ",".join(_LOG_FIELDS)


def run_epoch(params: pol.PolicyParameters, env, pretrace: _Pretrace, config: TrainConfig,
              rng: np.random.Generator, cache: EvalCache, epoch: int,
              worst_reward: float | None,
              ) -> tuple[pol.PolicyParameters, EpochStats, list[EpisodeRecord]]:
    """n_iter iterations followed by one Adam ascent step on
    J = (1/n) sum_j R_j log pi(a_j | o_j), backpropagated from the forward
    pass that drew the actions.

    Iteration j draws a window start, an integer uniform over
    pretrace.starts (both ends included), and then a standard-normal
    eps_j from rng; the start's row of pretrace.windows is its window. The
    n_iter windows go through one batched policy forward pass and act
    a_j = mu_j + sqrt(var_j) * eps_j. Each action is clamped into the
    safe range and takes its bucket's reward from the cache, else from this
    epoch's first miss in the bucket, scored by a plant episode at
    pretrace.seed: every episode continues the history the windows were
    taken from, and episodes differ only by their gain from act_time on
    (common random numbers). The misses go to the environment as one
    batch, in iteration order, so a remote simulator can run the next
    episode while this one is scored; they are asked to end at
    pretrace.scenario's horizon (train's reward_scenario, at whose horizon
    it also ran the pre-trace, so the plant memoises one history), and
    scored by pretrace.reward. Their rewards enter the
    cache once all are scored: an epoch that raises leaves it as it was.
    """
    n = config.n_iter
    lo, hi = config.kp_min, config.kp_max
    first, stop = pretrace.starts.start, pretrace.starts.stop
    draw_start, draw_eps = rng.integers, rng.standard_normal
    # iteration by iteration: the window start, then the action noise
    i0, eps = [], []
    for _ in range(n):
        i0.append(draw_start(first, stop))
        eps.append(draw_eps())
    i0 = np.array(i0)
    out = pol.forward(params, pretrace.windows[i0 - first])
    actions = out.mu + np.sqrt(out.var) * np.array(eps)
    log_probs = pol.gaussian_log_prob(actions, out.mu, out.var)

    raw = actions.tolist()
    applied = [clamp(a, lo, hi) for a in raw]
    # with the cache off, every iteration is a bucket of its own
    keys = list(map(cache.bucket, applied)) if config.cache_enabled else range(n)
    known, first_miss = {}, {}
    for it, (key, kp) in enumerate(zip(keys, applied)):
        reward = cache.lookup(kp) if config.cache_enabled else None
        if reward is None:
            first_miss.setdefault(key, it)
        else:
            known[key] = reward
    # each miss's episode is scored as it is pulled and dropped before the
    # next; list() ends the batch (and so releases it) even when scoring raises
    scores = iter(list(map(pretrace.reward, env.run_episodes(
        [(applied[it], pretrace.seed) for it in first_miss.values()],
        pretrace.scenario.horizon))))

    # in iteration order: a divergence penalty depends on the worst reward before it
    records, rewards = [], []
    worst = worst_reward
    hits = clamped = 0
    for start, a, kp, log_prob, var, key in zip(i0.tolist(), raw, applied,
                                                 log_probs.tolist(), out.var.tolist(), keys):
        cached = key in known
        if cached:
            hits += 1
        else:
            reward = next(scores)
            known[key] = divergence_penalty(worst) if reward is None else reward
        reward = known[key]
        clamped += a != kp
        records.append(EpisodeRecord(start, a, kp, log_prob, reward, var, cached))
        rewards.append(reward)
        worst = reward if worst is None else min(worst, reward)
    if config.cache_enabled:
        for key, it in first_miss.items():
            cache.store(applied[it], known[key])

    rewards = np.array(rewards)
    mean_reward = np.add.reduce(rewards) / n  # ndarray.mean's arithmetic
    weights = rewards - mean_reward if config.baseline_enabled else rewards
    new_params = pol.adam_step(params, pol.backward(params, out, actions, weights),
                               config.lr)

    stats = EpochStats(
        epoch=epoch + 1,
        mean_reward=float(mean_reward),
        min_reward=float(np.minimum.reduce(rewards)),
        max_reward=float(np.maximum.reduce(rewards)),
        mean_action=float(np.add.reduce(applied) / n),
        mean_var=float(np.add.reduce(out.var) / n),
        cache_hit_rate=hits / n,
        clamp_rate=clamped / n,
    )
    return new_params, stats, records


@dataclass
class TrainResult:
    best_params: pol.PolicyParameters
    last_params: pol.PolicyParameters
    best_reward: float
    stats: list[EpochStats]
    run_dir: Path | None
    cache: EvalCache
    plant_episodes: int  # the episodes this run asked its env for


def train(scenario: plant.PlantScenario, config: TrainConfig,
          run_dir=None, env=None) -> TrainResult:
    """Full training run with best-model tracking and CSV logging.

    run_dir (optional) receives training_log.csv, the resolved config
    snapshot, and best.ckpt (the parameters that acted in the latest of
    the epochs tied at the top mean reward) and last.ckpt (those after the
    last Adam step), both written once when the run ends, provided an
    epoch finished. Episodes are read only up to the end of the reward
    window, so they run on reward_scenario(scenario, config).

    env defaults to the in-process plant on that scenario (LocalPlantEnv);
    any object with these works, as the remote protocol adapter does:
    run_episodes(jobs, until), taking a list of (kp, seed) jobs, each kp in
    [kp_min, kp_max], and the time in seconds where the episodes may end,
    and yielding each job's EpisodeResult, its trace starting at t = 0, in
    job order. The pre-activation trace, at kp_unstable clamped into
    [kp_min, kp_max] (no commanded gain reaches the samples it reads), and
    then each epoch's plant episodes go to it as one batch each, all with
    until at the end of the reward window (the pre-trace too, so that the
    plant simulates the history they share once). An episode that runs
    past until, up to its env's own horizon, gives the same log. The pair
    is checked by config.validate before anything runs, and the
    pre-activation trace runs and its observation windows are taken before
    anything is written: if either raises, run_dir is left as it was.
    """
    validate(scenario, config)
    cut = reward_scenario(scenario, config)
    if env is None:
        env = LocalPlantEnv(cut)

    # the canonical pre-activation measurement, shared by all iterations:
    # every training episode continues its seed (from head, or from t = 0
    # when an env ignores the seed) at its horizon, so the plant memoises
    # one history; per-iteration variety comes from the random window start
    seed = _pretrace_seed(config.seed)
    kp = clamp(scenario.kp_unstable, config.kp_min, config.kp_max)
    [pre_result] = env.run_episodes([(kp, seed)], cut.horizon)
    pretrace = _Pretrace(pre_result, cut, config, seed)
    pretrace.windows  # noqa: B018 -- raises here, before run_dir is written
    episodes = 1

    run_dir = Path(run_dir) if run_dir is not None else None
    log_fh = None
    if run_dir is not None:
        run_dir.mkdir(parents=True, exist_ok=True)
        write(run_dir / "config.cfg", "resolved run configuration", scenario, config)
        log_fh = open(run_dir / "training_log.csv", "w")
        log_fh.write(LOG_HEADER + "\n")
        log_fh.flush()

    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    params = pol.init_params(config.d_obs, config.hidden_size,
                             seed=int(np.random.SeedSequence((config.seed, 0)).generate_state(1)[0]))
    cache = EvalCache(config.cache_resolution)

    best_reward = -math.inf
    best_params = params
    stats_rows: list[EpochStats] = []
    worst: float | None = None

    try:
        for epoch in range(config.n_epoch):
            acted = params
            params, stats, records = run_epoch(
                acted, env, pretrace, config, rng, cache, epoch, worst)
            episodes += sum(not record.cached for record in records)
            worst = stats.min_reward if worst is None else min(worst, stats.min_reward)
            stats_rows.append(stats)
            if log_fh is not None:
                log_fh.write(stats.csv_row() + "\n")
                log_fh.flush()
            # keep the parameters that earned the reward, and among epochs
            # tied at the top, the latest: ties are common once every clamped
            # action lands on kp_min. adam_step returns new arrays, so no
            # later epoch changes a kept epoch's
            if stats.mean_reward >= best_reward:
                best_reward = stats.mean_reward
                best_params = acted
    finally:
        if log_fh is not None:
            log_fh.close()
        if run_dir is not None and stats_rows:
            pol.save_checkpoint(best_params, run_dir / "best.ckpt")
            pol.save_checkpoint(params, run_dir / "last.ckpt")

    # the one copy: the result's best_params share no array with an epoch's
    return TrainResult(best_params.copy(), params, best_reward, stats_rows, run_dir,
                       cache, episodes)


# ---------------------------------------------------------------------------
# evaluation and the grid-search oracle

@dataclass
class MitigationReport:
    applied_gain: float
    pre_energy: float
    post_energy: float
    unmitigated_post_energy: float
    energy_ratio: float
    diverged: bool
    unmitigated_diverged: bool
    trace: sigproc.SignalTrace = field(repr=False, default=None)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace"}


def evaluate(params: pol.PolicyParameters, scenario: plant.PlantScenario,
             config: TrainConfig, seed: int | None = 0,
             mitigate: bool = True) -> MitigationReport:
    """Run one deterministic-policy episode and compare its post-activation
    oscillation energy to the unmitigated (gain stays mistuned) episode's:
    the filtered energy before reward_window's start, and from it to the
    episode's end (infinite when it diverged, and so ended early). Both
    episodes run at seed (at seed None, at one seed drawn from fresh
    entropy) and share the history before act_time: the unmitigated one's
    record gives pre_energy, and both filter on from its head."""
    mu = pol.forward(params, canonical_observation(scenario, config)).mu
    applied = clamp(mu, config.kp_min, config.kp_max) if mitigate else scenario.kp_unstable
    if seed is None:
        seed = np.random.SeedSequence().entropy

    mitigated = plant.run_episode(scenario, applied, seed)
    unmitigated = plant.run_episode(scenario, scenario.kp_unstable, seed)
    history = _Pretrace(unmitigated, scenario, config, seed)

    act = reward_window(scenario, config).start
    pre_energy = sigproc.energy(history.filtered.samples[:act], history.filtered.sample_rate)
    post_energy, unmit_energy = (
        math.inf if result.diverged else _stage_energy(
            result.trace.samples, result.trace.sample_rate, history.head, config, act)
        for result in (mitigated, unmitigated))

    ratio = (post_energy / unmit_energy  # finite / inf is 0.0
             if unmit_energy > 0 and not mitigated.diverged else math.inf)
    return MitigationReport(applied, pre_energy, post_energy, unmit_energy,
                            ratio, mitigated.diverged, unmitigated.diverged,
                            mitigated.trace)


def grid_oracle(scenario: plant.PlantScenario,
                config: TrainConfig) -> tuple[float, list[tuple[float, float]]]:
    """Exhaustive zero-noise reward sweep over the gain range at the cache
    resolution; returns (best gain, [(gain, reward), ...]). Every episode
    continues one history, whose record the first episode gives, and each
    scores by its reward. ConfigError, before any episode, when the sweep
    holds more than ORACLE_MAX_GAINS gains."""
    quiet = replace(reward_scenario(scenario, config), noise_std=0.0)
    res = config.cache_resolution
    n = int(round((config.kp_max - config.kp_min) / res))
    if n + 1 > ORACLE_MAX_GAINS:
        raise ConfigError(f"cache_resolution {res!r} sweeps {n + 1} gains over "
                          f"[kp_min, kp_max], more than the oracle's {ORACLE_MAX_GAINS}")
    gains = [min(config.kp_min + i * res, config.kp_max) for i in range(n + 1)]
    episodes = (plant.run_episode(quiet, kp, seed=0) for kp in gains)
    history = _Pretrace(first := next(episodes), quiet, config, 0)
    sweep = [(kp, -math.inf if reward is None else reward)
             for kp, reward in zip(gains, map(history.reward, chain([first], episodes)))]
    best = max(sweep, key=lambda pair: pair[1])[0]
    return best, sweep
