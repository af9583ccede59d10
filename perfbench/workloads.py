"""The four workloads.

Each does a fixed number of rounds of fixed work: the number of rounds
comes from ``--seconds`` and the nominal length of a round, and every
input of a round comes from the run's seed. Nothing depends on how long
anything took. ``run_round`` is the timed part; ``check_round`` runs right
after it, untimed, and returns the failed checks; ``check_run`` runs after
the last round and checks what only holds over all of them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from sscirl import envproto, plant, policy, trainer

import reference as ref

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
WARMUP_STREAM = 99


def round_seed(seed: int, stream: int, k: int) -> int:
    """Seed of round k; ``stream`` keeps the workloads' seeds apart."""
    return int(np.random.SeedSequence([seed, stream, k]).generate_state(1)[0])


class ServerProcess:
    """``envserver.py`` in a child process, with its control channel."""

    def __init__(self, spans_path: Path | None):
        cmd = [sys.executable, str(HERE / "envserver.py")]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError("environment server did not start")
        self.port = int(line)

    def command(self, cmd: str) -> str:
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline().strip()

    def usage(self) -> dict:
        return json.loads(self.command("usage"))

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Workload:
    name = ""
    round_s = 1.0  # nominal length of one round on a 2-vCPU host
    seed_stream = 0
    ops_per_round = 0

    def __init__(self, seed: int, seconds: int, workdir: Path, spans_path: Path | None):
        self.rounds = max(1, round(seconds / self.round_s))
        self.seeds = [round_seed(seed, self.seed_stream, k) for k in range(self.rounds)]
        self.warmup_seed = round_seed(seed, WARMUP_STREAM, self.seed_stream)
        self.workdir = workdir
        self.spans_path = spans_path
        self.server: ServerProcess | None = None
        self.env: envproto.RemoteEnv | None = None
        self.scenario = plant.PlantScenario()
        # misses of single rounds that are gated only over the run
        # (see TrainCached.check_run)
        self.notes: list[str] = []

    def setup(self) -> None:
        """Everything before the first timed round, warm-up included."""

    def run_round(self, k: int) -> int:
        """Run round k; return the operations it did."""
        raise NotImplementedError

    def check_round(self, k: int) -> list[str]:
        """Failed checks of the round just run."""
        return []

    def check_run(self) -> list[str]:
        """Failed checks over all the rounds checked."""
        return []

    def server_usage(self) -> dict:
        return self.server.usage() if self.server else {"cpu_s": 0.0, "maxrss_kb": 0}

    def server_trace(self, on: bool) -> None:
        if self.server:
            self.server.command("trace on" if on else "trace off")

    def close(self) -> None:
        if self.env is not None:
            self.env.close()
        if self.server:
            self.server.close()


# ---------------------------------------------------------------------------
# training

class RecordingEnv(trainer.LocalPlantEnv):
    """The in-process plant, keeping the traces of some episodes (by call
    index) and the indices of episodes that diverged."""

    def __init__(self, scenario, keep: range):
        super().__init__(scenario)
        self.keep = keep
        self.kept: list[np.ndarray] = []
        self.diverged: list[int] = []

    def run_episode(self, kp, seed):
        index = self.episode_count
        result = super().run_episode(kp, seed)
        if result.diverged:
            self.diverged.append(index)
        if index in self.keep:
            self.kept.append(result.trace.samples)
        return result


class TrainCached(Workload):
    """``trainer.train`` at the default ``TrainConfig``, as ``sscirl train``
    runs it: cache on, local plant, run directory on disk."""

    name = "train_cached"
    round_s = 1.6
    seed_stream = 1
    config = trainer.TrainConfig()
    ops_per_round = config.n_epoch * config.n_iter

    def setup(self):
        trainer.train(self.scenario, replace(self.config, n_epoch=1, seed=self.warmup_seed),
                      run_dir=self.workdir / "warmup")
        self._obs = None
        self.trainings = 0
        self.at_target = {"best.ckpt": 0, "last.ckpt": 0}

    def run_round(self, k):
        run_dir = self.workdir / f"round{k}"
        result = trainer.train(self.scenario, replace(self.config, seed=self.seeds[k]),
                               run_dir=run_dir)
        self._last = (run_dir, result.plant_episodes, len(result.cache))
        return self.ops_per_round

    def check_round(self, k):
        run_dir, episodes, buckets_used = self._last
        cfg, scn = self.config, self.scenario
        if self._obs is None:
            self._obs = trainer.canonical_observation(scn, cfg)
        target = ref.most_damped_gain(scn, cfg.kp_min, cfg.kp_max)
        params = {ckpt: policy.load_checkpoint(run_dir / ckpt, cfg.d_obs, cfg.hidden_size)
                  for ckpt in ("best.ckpt", "last.ckpt")}
        actions = {ckpt: min(max(policy.forward(p, self._obs).mu, cfg.kp_min), cfg.kp_max)
                   for ckpt, p in params.items()}
        ratio = trainer.evaluate(params["best.ckpt"], scn, cfg,
                                 seed=self.seeds[k]).energy_ratio
        buckets = ref.bucket_count(cfg.kp_min, cfg.kp_max, cfg.cache_resolution)
        shutil.rmtree(run_dir)
        failures = []
        self.trainings += 1
        for ckpt, action in actions.items():
            if abs(action - target) <= 0.25:
                self.at_target[ckpt] += 1
            else:
                self.notes.append(f"round {k} (seed {self.seeds[k]}): {ckpt} acts {action!r} "
                                  f"on canonical_observation, most-damped gain is {target!r}")
        if not (episodes <= buckets_used + 1 and buckets_used <= buckets):
            failures.append(f"round {k}: {episodes} plant episodes for {buckets_used} "
                            f"cache buckets of {buckets}")
        if not ratio <= 0.10:
            failures.append(f"round {k}: evaluate energy ratio {ratio!r} > 0.10")
        return failures

    def check_run(self):
        # Training must leave a policy that acts at the most-damped gain. A
        # single training misses on some seeds: best.ckpt is kept at the
        # first epoch tied for the highest mean reward, which can be an early
        # policy, and on a few seeds the last policy drifts away. So each
        # miss is reported in the notes, and the check fails when a
        # checkpoint misses on half of the run's trainings or more.
        return [f"{ckpt} acts at the most-damped gain after only {hits} of "
                f"{self.trainings} trainings"
                for ckpt, hits in self.at_target.items() if not 2 * hits > self.trainings]


class TrainUncached(Workload):
    """The same training with the cache off and 2 epochs: every iteration
    runs a full plant episode and its reward."""

    name = "train_uncached"
    round_s = 0.55
    seed_stream = 2
    config = trainer.TrainConfig(cache_enabled=False, n_epoch=2)
    ops_per_round = config.n_epoch * config.n_iter

    def setup(self):
        trainer.train(self.scenario, replace(self.config, n_epoch=1, n_iter=1,
                                             seed=self.warmup_seed),
                      run_dir=self.workdir / "warmup")

    def sampled_epoch(self, k: int) -> int:
        return self.seeds[k] % self.config.n_epoch

    def run_round(self, k):
        cfg = replace(self.config, seed=self.seeds[k])
        first = 1 + self.sampled_epoch(k) * cfg.n_iter  # call 0 is the pre-trace
        env = RecordingEnv(self.scenario, range(first, first + cfg.n_iter))
        result = trainer.train(self.scenario, cfg, run_dir=self.workdir / f"round{k}", env=env)
        self._last = (env, result.stats)
        return self.ops_per_round

    def check_round(self, k):
        env, stats = self._last
        cfg, scn = self.config, self.scenario
        failures = []
        expected = cfg.n_epoch * cfg.n_iter + 1
        if env.episode_count != expected:
            failures.append(f"round {k}: {env.episode_count} plant episodes, expected {expected}")
        if env.diverged:
            failures.append(f"round {k}: episodes {env.diverged} diverged")
        sos = ref.bandpass_sos(cfg.bandpass_order, cfg.bandpass_low, cfg.bandpass_high,
                               scn.sample_rate)
        rewards = np.array([ref.episode_reward(s, scn.sample_rate, scn.act_time,
                                               cfg.t_reward, sos) for s in env.kept])
        row = stats[self.sampled_epoch(k)]
        for what, mine, theirs in (("mean", rewards.mean(), row.mean_reward),
                                   ("min", rewards.min(), row.min_reward),
                                   ("max", rewards.max(), row.max_reward)):
            if not abs(mine - theirs) <= 1e-9 * abs(mine):
                failures.append(f"round {k} epoch {row.epoch}: {what} reward {theirs!r}, "
                                f"recomputed {mine!r}")
        return failures


class RemoteTrain(TrainUncached):
    """The rounds of ``train_uncached`` (same config and seeds), with the
    plant behind one protocol connection to a server process."""

    name = "remote_train"
    round_s = 2.2

    def setup(self):
        self.server = ServerProcess(self.spans_path)
        self.env = envproto.RemoteEnv(HOST, self.server.port, scenario=self.scenario)
        self.env.run_episode(self.scenario.kp_stable, self.warmup_seed)

    def run_round(self, k):
        cfg = replace(self.config, seed=self.seeds[k])
        before = self.env.episode_count
        trainer.train(self.scenario, cfg, run_dir=self.workdir / f"round{k}", env=self.env)
        self._last = (self.workdir / f"round{k}", self.env.episode_count - before)
        return self.ops_per_round

    def check_round(self, k):
        remote_dir, episodes = self._last
        cfg = replace(self.config, seed=self.seeds[k])
        failures = []
        expected = cfg.n_epoch * cfg.n_iter + 1
        if episodes != expected:
            failures.append(f"round {k}: {episodes} remote episodes, expected {expected}")
        # the local reference costs a third of a round: compare the first
        # and the last round of each run
        if k not in (0, self.rounds - 1):
            return failures
        local_dir = self.workdir / f"round{k}-local"
        trainer.train(self.scenario, cfg, run_dir=local_dir)
        log = "training_log.csv"
        if (remote_dir / log).read_bytes() != (local_dir / log).read_bytes():
            failures.append(f"round {k}: remote training_log.csv differs from the local one")
        return failures


# ---------------------------------------------------------------------------
# step-level co-simulation

class RemoteStepping(Workload):
    """One connection co-simulating the mistuning timeline: at every
    observation instant a ``step`` of one observation period and a
    ``measure``; ``set_gain`` at mistune_time and act_time."""

    name = "remote_stepping"
    round_s = 0.85
    seed_stream = 3
    config = trainer.TrainConfig()

    def __init__(self, *args):
        super().__init__(*args)
        scn, cfg = self.scenario, self.config
        self.quiet = replace(scn, noise_std=0.0)
        self.steps_per_obs = round(1.0 / (cfg.target_rate * scn.sim_dt))
        self.n_obs = round(scn.horizon * cfg.target_rate)
        self.obs_mistune = round(scn.mistune_time * cfg.target_rate)
        self.obs_act = round(scn.act_time * cfg.target_rate)
        self.ops_per_round = self.n_obs
        # the commanded gain of each round
        self.gains = [float(np.random.default_rng(s).uniform(cfg.kp_min, cfg.kp_max))
                      for s in self.seeds]

    def setup(self):
        self.server = ServerProcess(self.spans_path)
        self.env = envproto.RemoteEnv(HOST, self.server.port)
        self.env.request("reset", scenario={"noise_std": 0.0}, seed=self.warmup_seed)
        for _ in range(5):
            self.env.request("step", n_steps=self.steps_per_obs)
            self.env.request("measure")

    def run_round(self, k):
        env = self.env
        env.request("reset", scenario={"noise_std": 0.0}, seed=self.seeds[k])
        samples = []
        for i in range(self.n_obs):
            if i == self.obs_mistune:
                env.request("set_gain", kp=self.scenario.kp_unstable)
            elif i == self.obs_act:
                env.request("set_gain", kp=self.gains[k])
            env.request("step", n_steps=self.steps_per_obs)
            samples.append(env.request("measure")["samples"][0])
        self._last = np.array(samples)
        return self.n_obs

    def check_round(self, k):
        q = self.quiet
        exact = ref.damped_response(
            q, (q.kp_stable, q.kp_unstable, self.gains[k]),
            (self.obs_mistune * self.steps_per_obs, self.obs_act * self.steps_per_obs),
            self.n_obs, self.steps_per_obs)
        amplitude = float(np.max(np.abs(exact)))
        error = float(np.max(np.abs(self._last - q.p_nom - exact)))
        if not error <= 1e-8 * amplitude:
            return [f"round {k}: co-simulation deviates by {error!r} from the closed form "
                    f"(amplitude {amplitude!r})"]
        return []


WORKLOADS = {cls.name: cls for cls in (TrainCached, TrainUncached, RemoteTrain, RemoteStepping)}
