import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sscirl import config, plant, sigproc, trainer
from sscirl.config import ConfigError, TrainConfig
from sscirl.plant import PlantScenario

SCN = PlantScenario()


class TestScenarioFiles:
    def test_roundtrip(self, tmp_path):
        scn = PlantScenario(f_osc=47.0, kp_crit=2.8, horizon=8.0)
        path = tmp_path / "scenario.cfg"
        config.write(path, scn)
        assert config.resolve(path) == (scn, TrainConfig())

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("f_osc = 48\nbogus_key = 1\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:2: unknown key 'bogus_key'"):
            config.read(path)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("# comment\n\nf_osc = 47.5  # trailing\n")
        assert config.read(path) == {"f_osc": "47.5"}
        assert config.resolve(path)[0].f_osc == 47.5

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("f_osc = 48\n\nf_osc 47\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:3: expected key = value"):
            config.read(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config not found"):
            config.read(tmp_path / "nope.cfg")

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes("f_osc = 48  # Schwingung bei 48 \xb0\n".encode("latin-1"))
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}: ")
                           + ".*utf-8"):
            config.read(path)
        with pytest.raises(ConfigError, match=re.escape(f"cannot read config {tmp_path}: ")):
            config.read(tmp_path)


class TestTrainSnapshot:
    def test_config_snapshot_roundtrip(self, tmp_path):
        cfg = TrainConfig(n_epoch=5, n_iter=4, seed=3, kp_max=3.5)
        scn = PlantScenario(f_osc=47.0)
        trainer.train(scn, cfg, run_dir=tmp_path)
        text = (tmp_path / "config.cfg").read_text()
        assert text.startswith("# resolved run configuration\n")
        assert "filter_stage = 'pre_decimation'\n" in text
        assert config.resolve(tmp_path / "config.cfg") == (scn, cfg)

    def test_mapping_part(self, tmp_path):
        path = tmp_path / "report.txt"
        config.write(path, {"diverged_at": 1.25, "ok": True})
        assert path.read_text() == "diverged_at = 1.25\nok = True\n"


# ---------------------------------------------------------------------------
# write -> read -> resolve on random valid pairs

def _finite(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_pairs(draw):
    kp_stable = draw(_finite(-5.0, 5.0))
    kp_crit = kp_stable + draw(_finite(1e-3, 3.0))
    kp_unstable = kp_crit + draw(_finite(1e-3, 3.0))
    mistune_time = draw(_finite(0.0, 5.0))
    act_time = mistune_time + draw(_finite(1e-2, 5.0))
    t_reward = draw(_finite(1e-2, 5.0))
    sim_dt = draw(_finite(1e-4, 1e-2))
    factor = draw(st.integers(1, 20))
    # room for the reward's samples: each end of the window may round up
    # by one low-rate period, and the window holds its last sample
    room = (2 * factor + 1) * sim_dt
    scenario = PlantScenario(
        f_osc=draw(_finite(1.0, 200.0)), kp_stable=kp_stable,
        kp_unstable=kp_unstable, kp_crit=kp_crit,
        zeta_stable=draw(_finite(1e-4, 1.0)), p_nom=draw(_finite(-10.0, 10.0)),
        sim_dt=sim_dt, horizon=act_time + t_reward + room + draw(_finite(0.0, 5.0)),
        mistune_time=mistune_time, act_time=act_time,
        noise_std=draw(_finite(0.0, 1.0)), disturbance_amp=draw(_finite(0.0, 1.0)),
        diverge_threshold=draw(_finite(1.0, 1e12)))

    target_rate = scenario.sample_rate / factor
    d_obs = draw(st.integers(1, 60))
    lo = d_obs / target_rate
    assume(lo <= act_time)
    stage = draw(st.sampled_from(["pre_decimation", "post_decimation"]))
    top = 0.5 * scenario.sample_rate if stage == "pre_decimation" else 1e4
    # post_decimation clamps the band's top to 0.95x the decimated Nyquist
    floor_top = top if stage == "pre_decimation" else 0.475 * target_rate
    bandpass_low = draw(_finite(0.1, 0.4 * floor_top))
    kp_min = draw(_finite(-5.0, 5.0))
    cfg = TrainConfig(
        n_epoch=draw(st.integers(1, 10**6)), n_iter=draw(st.integers(1, 1000)),
        lr=draw(_finite(1e-9, 1.0)), seed=draw(st.integers(0, 2**64)),
        kp_min=kp_min, kp_max=kp_min + draw(_finite(1e-3, 10.0)),
        cache_resolution=draw(_finite(1e-6, 1.0)),
        obs_window=draw(_finite(lo, act_time)),
        d_obs=d_obs, hidden_size=draw(st.integers(1, 256)),
        bandpass_low=bandpass_low,
        # a band a few ulps wide cannot be designed (UNRUNNABLE)
        bandpass_high=draw(_finite(bandpass_low * (1 + 1e-9), top, exclude_max=True)),
        bandpass_order=draw(st.sampled_from([2, 4, 6, 8])),
        target_rate=target_rate, t_reward=t_reward, filter_stage=stage,
        baseline_enabled=draw(st.booleans()), cache_enabled=draw(st.booleans()))
    # no gain grows the mode past 1e308 in one step (UNRUNNABLE): the
    # fastest-growing one, the highest, grows it by at most exp(600)
    top = max(kp_unstable, cfg.kp_max)
    assume(plant.damping_of_gain(scenario, top) * scenario.omega * sim_dt > -300.0)
    return scenario, cfg


@settings(max_examples=60, deadline=None)
@given(pair=valid_pairs())
def test_write_read_resolve_roundtrip(tmp_path_factory, pair):
    config.validate(*pair)
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    config.write(path, "a header", *pair)
    assert set(config.read(path)) == set(config.KEYS)
    assert config.resolve(path) == pair


def default_mode(scenario):
    """scenario without noise, on the default mode. The windows are a matter
    of the times and rates alone; the default mode, from the drawn initial
    disturbance, stays below the default divergence bound up to act_time."""
    return replace(scenario, noise_std=0.0, diverge_threshold=SCN.diverge_threshold,
                   **{k: getattr(SCN, k) for k in ("f_osc", "kp_stable", "kp_crit",
                                                  "kp_unstable", "zeta_stable")})


@settings(max_examples=40, deadline=None)
@given(pair=valid_pairs())
def test_accepted_pair_rewards_its_episodes(pair):
    # validate, reward_scenario and episode_reward read one sample count:
    # an accepted pair's full episode has a reward, its cut episode the
    # same one bit for bit, and one sample fewer none
    scenario, cfg = pair
    config.validate(scenario, cfg)
    # no noise and no initial disturbance: the mode stays at rest and the
    # episode cannot diverge
    quiet = replace(default_mode(scenario), disturbance_amp=0.0)
    gain = plant.GainAction(quiet.kp_stable)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # post_decimation clamps f_max
        full = plant.run_episode(quiet, gain, seed=0)
        cut = plant.run_episode(trainer.reward_scenario(quiet, cfg), gain, seed=0)
        reward = trainer.episode_reward(full, quiet, cfg)
        assert reward is not None
        assert repr(trainer.episode_reward(cut, quiet, cfg)) == repr(reward)
        short = plant.EpisodeResult(sigproc.SignalTrace(cut.trace.samples[:-1],
                                                        quiet.sample_rate))
        assert trainer.episode_reward(short, quiet, cfg) is None


@settings(max_examples=60, deadline=None)
@given(pair=valid_pairs())
def test_reward_window_starts_at_act_time_and_spans_t_reward(pair):
    # the window indexes the stage's filtered trace: it starts at the first
    # sample of that trace's grid at or after act_time (within 1e-9
    # samples), spans round(t_reward * rate) of its intervals, and ends at
    # the last sample the filtered reward_samples hold
    scenario, cfg = pair
    config.validate(scenario, cfg)
    window = config.reward_window(scenario, cfg)
    raw = sigproc.SignalTrace(np.zeros(config.reward_samples(scenario, cfg)),
                              scenario.sample_rate)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # post_decimation clamps f_max
        _, filtered = sigproc.filter_head(raw, cfg.bandpass_spec, cfg.target_rate,
                                          cfg.filter_stage)
    rate = filtered.sample_rate
    assert window.start - 1 < scenario.act_time * rate - 1e-9 <= window.start
    assert len(window) - 1 == round(cfg.t_reward * rate)
    assert len(filtered) == window.stop


@settings(max_examples=30, deadline=None)
@given(pair=valid_pairs())
def test_accepted_pair_observes_every_window_start(pair):
    # validate, run_epoch and canonical_observation read one range: each
    # of its ends starts a whole window of the pre-activation observation
    # trace, one past the last does not, and the canonical window is the first
    scenario, cfg = pair
    config.validate(scenario, cfg)
    quiet = default_mode(scenario)
    starts = config.observation_starts(quiet, cfg)
    pre = replace(quiet, horizon=quiet.act_time + quiet.sim_dt)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # post_decimation clamps f_max
        result = plant.run_episode(pre, plant.GainAction(pre.kp_unstable), seed=0)
        samples = trainer.observation_trace(result.trace, quiet, cfg)[0].samples
        obs = trainer.canonical_observation(quiet, cfg)
    for first in (starts[0], starts[-1], starts[-1] + 1):
        fits = len(samples[first:first + cfg.d_obs]) == cfg.d_obs
        assert fits == (first in starts)
    assert obs.values.tobytes() == samples[starts[0]:starts[0] + cfg.d_obs].tobytes()


# ---------------------------------------------------------------------------
# coercion: strict booleans, errors that name the field

@pytest.mark.parametrize("text, value", [
    ("1", True), ("true", True), ("Yes", True), ("ON", True), ("True", True),
    ("0", False), ("false", False), ("NO", False), ("Off", False), ("False", False)])
def test_boolean_spellings(text, value):
    assert config.coerce(TrainConfig, {"cache_enabled": text}) == {"cache_enabled": value}


@pytest.mark.parametrize("text", ["ture", "", "2", "enabled", "none"])
def test_other_booleans_rejected(text):
    with pytest.raises(ConfigError, match="cache_enabled"):
        config.resolve(overrides={"cache_enabled": text})


@pytest.mark.parametrize("key, text", [
    ("n_epoch", "1e3"), ("seed", "1.5"), ("f_osc", "fast"), ("lr", "nan"),
    ("horizon", "inf"), ("kp_max", "")])
def test_bad_literal_names_field(key, text):
    with pytest.raises(ConfigError, match=f"^{key}: expected"):
        config.resolve(overrides={key: text})


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        config.resolve(overrides={"bogus": "1"})


def test_constructor_errors_become_config_errors():
    with pytest.raises(ConfigError, match="kp_min < kp_max"):
        config.resolve(overrides={"kp_min": "5", "kp_max": "4"})
    with pytest.raises(ConfigError, match="mistune_time < act_time"):
        config.resolve(overrides={"mistune_time": "6"})


# ---------------------------------------------------------------------------
# validate: values that used to fail mid-run (or silently) fail up front

UNRUNNABLE = [
    ("seed", {"seed": -1}),
    ("hidden_size", {"hidden_size": 0}),
    ("lr", {"lr": math.nan}),
    ("lr", {"lr": -1e-3}),
    ("obs_window", {"d_obs": 50}),
    # one sample past the edge d_obs = 40 of test_defaults_and_edges_accepted
    ("obs_window", {"d_obs": 41}),
    ("obs_window", {"obs_window": 6.0}),
    ("target_rate", {"target_rate": 300.0}),
    ("bandpass_high", {"bandpass_high": 3000.0}),
    # one ulp apart: the edges meet once scipy normalises them by the rate
    ("bandpass_high", {"bandpass_low": 83.42681987093789,
                       "bandpass_high": 83.4268198709379}),
    ("bandpass_order", {"bandpass_order": 3}),
    # post_decimation clamps bandpass_high to 47.5 Hz, below bandpass_low
    ("bandpass_low", {"bandpass_low": 49.0, "filter_stage": "post_decimation"}),
    ("t_reward", {"t_reward": 9.0}),
    # act_time + t_reward = horizon: the reward's last sample is one past
    # the episode's
    ("t_reward", {"t_reward": 5.0}),
    ("t_reward", {"t_reward": 0.0}),
    ("t_reward", {"t_reward": -1.0}),
    # zeta = -10,000 at kp_unstable (+25,000 at kp_min runs), and -2,999:
    # the transition's entries pass 1e308
    ("kp_unstable", {"zeta_stable": 1e4}),
    ("kp_unstable", {"zeta_stable": 1.0, "kp_stable": 0.0, "kp_crit": 0.001,
                     "kp_unstable": 3.0, "f_osc": 200.0, "sim_dt": 0.002,
                     "target_rate": 100.0, "bandpass_high": 45.0, "kp_min": 0.0,
                     "kp_max": 1.0}),
]


@pytest.mark.parametrize("key, changes", UNRUNNABLE,
                         ids=[",".join(f"{k}={v}" for k, v in c.items()) for _, c in UNRUNNABLE])
def test_train_rejects_before_first_episode(tmp_path, key, changes):
    scn = replace(SCN, **{k: v for k, v in changes.items() if k in config.SCENARIO_KEYS})
    cfg = replace(TrainConfig(n_epoch=1, n_iter=1),
                  **{k: v for k, v in changes.items() if k not in config.SCENARIO_KEYS})
    env = trainer.LocalPlantEnv(scn)
    with pytest.raises(ConfigError, match=key):
        trainer.train(scn, cfg, run_dir=tmp_path / "run", env=env)
    assert env.episode_count == 0
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, changes", UNRUNNABLE,
                         ids=[",".join(f"{k}={v}" for k, v in c.items()) for _, c in UNRUNNABLE])
def test_resolve_rejects(key, changes):
    overrides = {k: repr(v) for k, v in changes.items()}
    with pytest.raises(ConfigError, match=key):
        config.resolve(overrides=overrides)


def test_post_decimation_band_is_not_held_to_native_nyquist():
    # post_decimation clamps the band at the decimated rate, with a warning
    cfg = TrainConfig(bandpass_high=3000.0, filter_stage="post_decimation")
    config.validate(SCN, cfg)


def test_defaults_and_edges_accepted():
    config.validate(SCN, TrainConfig())
    # window exactly filling the region; reward window ending at the
    # episode's last sample, index 49,999 = 5.0 s * 5 kHz + 24,999
    config.validate(SCN, TrainConfig(d_obs=40, obs_window=0.4, t_reward=4.9998))
    config.validate(replace(SCN, sim_dt=1e-3), TrainConfig(target_rate=1000.0,
                                                           bandpass_high=450.0))
    # strongly damped, zeta = 25,000 at kp_min, and at most -1 elsewhere
    config.validate(replace(SCN, zeta_stable=1e4, kp_unstable=3.0001),
                    TrainConfig(kp_max=3.0))
