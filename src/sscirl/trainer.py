"""Episodic policy-gradient training loop against the surrogate plant.

Each iteration conditions the pre-activation measurement into an
observation window, samples a gain from the policy, clamps it into the safe
range, and scores it by the negated post-activation oscillation energy of
a plant episode that continues the pre-activation trace (same seed), so
iterations differ only by their gain; the reward filters such an episode
on from where the filter stage ended on the pre-activation samples they
share. A gain proposal reuses the finished reward of its cache bucket, or
of the epoch's first miss in it, instead of simulating again. The policy
works per epoch: the epoch's windows go through one batched forward pass
to sample their gains, and after scoring, the whole batch takes one
gradient of the weighted log-probability objective, backpropagated
through that same pass, and one gradient-ascent Adam step.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import policy as pol
from . import plant, sigproc
from .config import (TrainConfig, first_sample, observation_starts, reward_samples,
                     reward_window, validate, write)

DIVERGENCE_PENALTY_FLOOR = -1e6


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


def run_jobs(env, jobs, until: float):
    """The episode of each (kp, seed) job, in job order: from
    env.run_episodes(jobs, until) if env has it, else env.run_episode's,
    each run as it is pulled. until (seconds) is where the caller stops
    reading; an env may end its episodes there, or run them longer."""
    run_episodes = getattr(env, "run_episodes", None)
    if run_episodes is None:
        return (env.run_episode(kp, seed) for kp, seed in jobs)
    return run_episodes(jobs, until)


class LocalPlantEnv:
    """In-process environment: direct surrogate plant episodes."""

    def __init__(self, scenario: plant.PlantScenario):
        self.scenario = scenario
        self.episode_count = 0

    def run_episode(self, kp: float, seed: int | None) -> plant.EpisodeResult:
        self.episode_count += 1
        return plant.run_episode(self.scenario, plant.GainAction(kp), seed)

    def close(self):
        pass


def _pretrace_seed(seed: int) -> int:
    """The plant seed of a run's pre-activation trace and of every training
    episode: each continues the history the policy observed."""
    return int(np.random.SeedSequence((seed, 0x9E3779B9)).generate_state(1)[0])


def clamp(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


# ---------------------------------------------------------------------------
# reward and observation plumbing

def _stage(config: TrainConfig) -> tuple:
    """The filter stage's settings, as sigproc's stage functions take them."""
    return config.bandpass_spec, config.target_rate, config.filter_stage


def _history_head(trace: sigproc.SignalTrace, act_time: float,
                  config: TrainConfig) -> tuple[sigproc.FilterHead, sigproc.SignalTrace]:
    """filter_head over the samples before act_time of trace, which starts
    at t = 0: the head every episode continuing its history filters on
    from, and the filtered trace that pass gave."""
    rate = trace.sample_rate
    return sigproc.filter_head(sigproc.SignalTrace(
        trace.samples[:first_sample(act_time, rate)], rate), *_stage(config))


def _filter_on(samples: np.ndarray, sample_rate: float, head: sigproc.FilterHead | None,
               config: TrainConfig) -> tuple[np.ndarray, sigproc.FilterHead]:
    """The filtered samples from index head.length on of the trace of
    samples (at sample_rate, from t = 0), one pass's bit for bit, and that
    head: head if the samples start with its samples, else the t = 0 one."""
    if head is None or not np.array_equal(samples[:len(head.samples)], head.samples):
        head, _ = sigproc.filter_head(sigproc.SignalTrace(samples[:0], sample_rate),
                                      *_stage(config))
    return head.filter_on(samples[len(head.samples):]), head


def episode_reward(result: plant.EpisodeResult, scenario: plant.PlantScenario,
                   config: TrainConfig,
                   head: sigproc.FilterHead | None = None) -> float | None:
    """Negated oscillation energy of the filtered response over its
    reward_window. None when the trace, which starts at t = 0, holds fewer
    than reward_samples (divergence). The trace filters on from head
    (_filter_on) when head's filtered samples end before the window:
    the reward is the same bit for bit."""
    n = reward_samples(scenario, config)
    if len(result.trace) < n:
        return None
    # both filter stages are causal: filtering only the window's samples is exact
    window = reward_window(scenario, config)
    filtered, head = _filter_on(result.trace.samples[:n], result.trace.sample_rate,
                                head if head is not None and head.length <= window.start
                                else None, config)
    start = window.start - head.length
    return -sigproc.energy(filtered[start:start + len(window)], head.sample_rate)


def reward_scenario(scenario: plant.PlantScenario,
                    config: TrainConfig) -> plant.PlantScenario:
    """The scenario cut to reward_samples, or itself when it holds no more.
    Noise is prefix-stable, so a reward on the cut episode equals the
    full-horizon one bit for bit."""
    n = reward_samples(scenario, config)
    if n >= scenario.n_samples:
        return scenario
    return replace(scenario, horizon=n * scenario.sim_dt)


def observation_trace(raw: sigproc.SignalTrace, scenario: plant.PlantScenario,
                      config: TrainConfig) -> tuple[sigproc.SignalTrace, sigproc.FilterHead]:
    """Conditioned low-rate trace of raw's samples before act_time and
    _history_head's head, from its one pass. TraceError when the trace is
    too short for a window at every index of observation_starts, as when
    raw diverged before act_time."""
    head, filtered = _history_head(raw, scenario.act_time, config)
    observed = sigproc.observed(filtered, config.target_rate, config.filter_stage)
    need = observation_starts(scenario, config).stop - 1 + config.d_obs
    if len(observed) < need:
        raise sigproc.TraceError(f"pre-activation trace holds {len(observed)} low-rate "
                                 f"samples, its observation windows need {need}")
    return observed, head


def canonical_observation(scenario: plant.PlantScenario,
                          config: TrainConfig) -> sigproc.Observation:
    """Deterministic reference observation: zero-noise episode, window at
    the first index of observation_starts. The episode runs on
    grid_oracle's scenario (reward_scenario without noise) at its seed, so
    the two share one plant history; the observation reads only
    [0, act_time)."""
    quiet = replace(reward_scenario(scenario, config), noise_std=0.0)
    result = plant.run_episode(quiet, plant.GainAction(quiet.kp_unstable), seed=0)
    obs_trace, _ = observation_trace(result.trace, scenario, config)
    i0 = observation_starts(scenario, config)[0]
    return sigproc.Observation(obs_trace.samples[i0:i0 + config.d_obs],
                               obs_trace.t0 + i0 / obs_trace.sample_rate)


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
        return ",".join(map(repr, astuple(self)))


LOG_HEADER = ",".join(f.name for f in fields(EpochStats))


def run_epoch(params: pol.PolicyParameters, env, scenario, config: TrainConfig,
              rng: np.random.Generator, cache: EvalCache,
              obs_trace: sigproc.SignalTrace, epoch: int, worst_reward: float | None,
              head: sigproc.FilterHead | None = None,
              ) -> tuple[pol.PolicyParameters, EpochStats, list[EpisodeRecord]]:
    """n_iter iterations followed by one Adam ascent step on
    J = (1/n) sum_j R_j log pi(a_j | o_j), backpropagated from the forward
    pass that drew the actions.

    Iteration j draws a window start, an integer uniform over
    observation_starts (both ends included), and then a standard-normal
    eps_j from rng. The d_obs samples of obs_trace from each start are its
    window. The n_iter windows go through one batched policy forward pass and
    act a_j = mu_j + sqrt(var_j) * eps_j. Each action is clamped into the
    safe range and takes its bucket's reward from the cache, else from this
    epoch's first miss in the bucket, scored by a plant episode at the
    pre-trace's seed: every episode continues the history obs_trace was
    taken from, and episodes differ only by their gain from act_time on
    (common random numbers). The misses go to the environment as one
    batch, in iteration order, so a remote simulator can run the next
    episode while this one is scored; they are asked to end at
    scenario.horizon (train passes its reward_scenario, at whose horizon
    it also ran the pre-trace, so the plant memoises one history), and
    scored by episode_reward from head (train passes observation_trace's).
    Their rewards enter the cache once all are scored: an epoch that
    raises leaves it as it was.
    """
    starts = observation_starts(scenario, config)
    # iteration by iteration: the window start, then the action noise
    i0, eps = map(np.array, zip(*[(rng.integers(starts.start, starts.stop),
                                   rng.standard_normal()) for _ in range(config.n_iter)]))
    windows = obs_trace.samples[i0[:, None] + np.arange(config.d_obs)]
    out = pol.forward(params, windows)
    actions = out.mu + np.sqrt(out.var) * eps
    log_probs = pol.gaussian_log_prob(actions, out.mu, out.var)

    applied = [clamp(float(a), config.kp_min, config.kp_max) for a in actions]
    # with the cache off, every iteration is a bucket of its own
    keys = [cache.bucket(kp) for kp in applied] if config.cache_enabled \
        else range(len(applied))
    seed = _pretrace_seed(config.seed)
    known, first_miss = {}, {}
    for it, (key, kp) in enumerate(zip(keys, applied)):
        reward = cache.lookup(kp) if config.cache_enabled else None
        if reward is None:
            first_miss.setdefault(key, it)
        else:
            known[key] = reward
    # each miss's episode is scored as it is pulled and dropped before the
    # next; list() ends the batch (and so releases it) even when scoring raises
    scores = iter(list(map(
        lambda result: episode_reward(result, scenario, config, head),
        run_jobs(env, [(applied[it], seed) for it in first_miss.values()],
                 scenario.horizon))))

    # in iteration order: a divergence penalty depends on the worst reward before it
    records = []
    worst = worst_reward
    for it, key in enumerate(keys):
        cached = key in known
        if not cached:
            reward = next(scores)
            known[key] = divergence_penalty(worst) if reward is None else reward
        reward = known[key]
        records.append(EpisodeRecord(int(i0[it]), float(actions[it]), applied[it],
                                     float(log_probs[it]), reward,
                                     float(out.var[it]), cached))
        worst = reward if worst is None else min(worst, reward)
    if config.cache_enabled:
        for key, it in first_miss.items():
            cache.store(applied[it], known[key])

    rewards = np.array([r.reward for r in records])
    weights = rewards - rewards.mean() if config.baseline_enabled else rewards
    new_params = pol.adam_step(params, pol.backward(params, out, actions, weights),
                               config.lr)

    n = len(records)
    stats = EpochStats(
        epoch=epoch + 1,
        mean_reward=float(rewards.mean()),
        min_reward=float(rewards.min()),
        max_reward=float(rewards.max()),
        mean_action=float(np.mean([r.action_applied for r in records])),
        mean_var=float(np.mean([r.var for r in records])),
        cache_hit_rate=sum(r.cached for r in records) / n,
        clamp_rate=sum(r.action_raw != r.action_applied for r in records) / n,
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
    plant_episodes: int


def train(scenario: plant.PlantScenario, config: TrainConfig,
          run_dir=None, env=None) -> TrainResult:
    """Full training run with best-model tracking and CSV logging.

    run_dir (optional) receives training_log.csv, the resolved config
    snapshot, and best.ckpt (the latest of the epochs tied at the top mean
    reward) and last.ckpt, both written once when the run ends, provided an
    epoch finished. Episodes are read only up to the end of the reward
    window, so they run on reward_scenario(scenario, config). env defaults
    to the in-process plant on that scenario; any object with
    run_episode(kp, seed) -> EpisodeResult, its trace starting at t = 0,
    works (e.g. the remote protocol adapter). It may also have
    run_episodes(jobs, until), taking a list of (kp, seed) and the time in
    seconds where the episodes may end, and yielding each job's
    EpisodeResult in order; the pre-activation trace and then each epoch's
    plant episodes go to it as one batch each, all with until at the end
    of the reward window (the pre-trace too, so that the plant simulates
    the history they share once), else run_episode runs them one by one.
    An episode that runs past until, up to its env's own horizon, gives
    the same log. The pair is checked by config.validate before anything
    runs, and the pre-activation trace runs and is conditioned before
    anything is written: if either raises, run_dir is left as it was.
    """
    validate(scenario, config)
    cut = reward_scenario(scenario, config)
    own_env = env is None
    if env is None:
        env = LocalPlantEnv(cut)

    # the canonical pre-activation measurement, shared by all iterations:
    # every training episode continues its seed (from head, or from t = 0
    # when an env ignores the seed) at its horizon, so the plant memoises
    # one history; per-iteration variety comes from the random window start
    [pre_result] = run_jobs(env, [(scenario.kp_unstable, _pretrace_seed(config.seed))],
                            cut.horizon)
    obs_trace, head = observation_trace(pre_result.trace, scenario, config)

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
    best_params = params.copy()
    stats_rows: list[EpochStats] = []
    worst: float | None = None

    try:
        for epoch in range(config.n_epoch):
            params, stats, _ = run_epoch(
                params, env, cut, config, rng, cache, obs_trace, epoch, worst, head)
            worst = stats.min_reward if worst is None else min(worst, stats.min_reward)
            stats_rows.append(stats)
            if log_fh is not None:
                log_fh.write(stats.csv_row() + "\n")
                log_fh.flush()
            # among epochs tied at the top reward, keep the latest: ties are
            # common once every clamped action lands on kp_min
            if stats.mean_reward >= best_reward:
                best_reward = stats.mean_reward
                best_params = params.copy()
    finally:
        if log_fh is not None:
            log_fh.close()
        if run_dir is not None and stats_rows:
            pol.save_checkpoint(best_params, run_dir / "best.ckpt")
            pol.save_checkpoint(params, run_dir / "last.ckpt")
        if own_env:
            env.close()

    episodes = getattr(env, "episode_count", -1)
    return TrainResult(best_params, params, best_reward, stats_rows, run_dir,
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
    episodes run at seed and share the history before act_time, so one
    head over the mitigated one's serves both (_filter_on)."""
    mu = pol.forward(params, canonical_observation(scenario, config)).mu
    applied = clamp(mu, config.kp_min, config.kp_max) if mitigate else scenario.kp_unstable

    mitigated = plant.run_episode(scenario, plant.GainAction(applied), seed)
    unmitigated = plant.run_episode(scenario, plant.GainAction(scenario.kp_unstable), seed)

    act = reward_window(scenario, config).start
    head, filtered = _history_head(mitigated.trace, scenario.act_time, config)
    pre_energy = sigproc.energy(filtered.samples[:act], filtered.sample_rate)

    def post_energy_of(result: plant.EpisodeResult) -> float:
        if result.diverged:
            return math.inf
        on, used = _filter_on(result.trace.samples, result.trace.sample_rate, head, config)
        return sigproc.energy(on[act - used.length:], used.sample_rate)

    post_energy, unmit_energy = map(post_energy_of, (mitigated, unmitigated))

    ratio = (post_energy / unmit_energy  # finite / inf is 0.0
             if unmit_energy > 0 and not mitigated.diverged else math.inf)
    return MitigationReport(applied, pre_energy, post_energy, unmit_energy,
                            ratio, mitigated.diverged, unmitigated.diverged,
                            mitigated.trace)


def grid_oracle(scenario: plant.PlantScenario,
                config: TrainConfig) -> tuple[float, list[tuple[float, float]]]:
    """Exhaustive zero-noise reward sweep over the gain range at the cache
    resolution; returns (best gain, [(gain, reward), ...]). Every episode
    continues one history, and each reward filters on from its _history_head."""
    quiet = replace(reward_scenario(scenario, config), noise_std=0.0)
    res = config.cache_resolution
    n = int(round((config.kp_max - config.kp_min) / res))
    sweep, head = [], None
    for i in range(n + 1):
        kp = min(config.kp_min + i * res, config.kp_max)
        result = plant.run_episode(quiet, plant.GainAction(kp), seed=0)
        if head is None:
            head, _ = _history_head(result.trace, quiet.act_time, config)
        reward = episode_reward(result, quiet, config, head)
        sweep.append((kp, -math.inf if reward is None else reward))
    best = max(sweep, key=lambda pair: pair[1])[0]
    return best, sweep
