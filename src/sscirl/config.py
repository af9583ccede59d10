"""The flat `key = value` run configuration.

One file covers the plant scenario and the training settings: one
`key = value` per line, `#` starts a comment, every key is a field of
`plant.PlantScenario` or `TrainConfig`, and values are Python literals as
`repr` writes them. Each value is typed by its field's default: bool
(1/true/yes/on or 0/false/no/off, any case), int, float or str (quotes
optional). This module alone reads, writes and types the format; `validate`
checks that a scenario and a training configuration can run together. It
also alone decides the windows: the reward's and the observation's are
sample index ranges computed here by one rule, `first_sample`. And it alone
reads `filter_stage`: `filter_band` turns it into the band and the rate
the reward and the observation filter at, clamping a band-pass edge the
decimated rate cannot carry, which `validate` warns of.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

from . import sigproc
from .plant import PlantScenario, transition


class ConfigError(ValueError):
    """A configuration that cannot be used; the message names the field."""


# band-pass at the native rate, then decimate; or decimate, then band-pass
PRE_DECIMATION = "pre_decimation"
POST_DECIMATION = "post_decimation"
FILTER_STAGES = (PRE_DECIMATION, POST_DECIMATION)


@dataclass(frozen=True)
class TrainConfig:
    n_epoch: int = 200
    n_iter: int = 8
    lr: float = 1e-3
    seed: int = 0
    kp_min: float = 0.5
    kp_max: float = 4.0
    cache_resolution: float = 0.05
    obs_window: float = 0.4
    d_obs: int = 30
    hidden_size: int = 64
    bandpass_low: float = 15.0
    bandpass_high: float = 55.0
    bandpass_order: int = 4
    target_rate: float = 100.0
    t_reward: float = 2.0
    filter_stage: str = PRE_DECIMATION
    baseline_enabled: bool = False
    cache_enabled: bool = True

    def __post_init__(self):
        if self.n_epoch < 1 or self.n_iter < 1:
            raise ValueError("n_epoch and n_iter must be >= 1")
        if not (self.kp_min < self.kp_max):
            raise ValueError("need kp_min < kp_max")
        if self.cache_resolution <= 0:
            raise ValueError("cache_resolution must be positive")
        if self.filter_stage not in FILTER_STAGES:
            raise ValueError(f"filter_stage must be one of {FILTER_STAGES}, "
                             f"got {self.filter_stage!r}")

    @property
    def bandpass_spec(self) -> sigproc.BandpassSpec:
        return sigproc.BandpassSpec(self.bandpass_low, self.bandpass_high,
                                    self.bandpass_order)


SCENARIO_KEYS = tuple(f.name for f in fields(PlantScenario))
KEYS = SCENARIO_KEYS + tuple(f.name for f in fields(TrainConfig))
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def read(path) -> dict[str, str]:
    """The file's values as text by key; a line that is not `key = value`
    or names an unknown key is an error citing path:line."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, eq, value = text.partition("=")
        key = key.strip()
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
        if key not in KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


def write(path, *parts) -> None:
    """Write `key = repr(value)` lines: a dataclass part field by field, a
    mapping item by item, and a str part as a `#` comment line."""
    with open(path, "w") as fh:
        for part in parts:
            if isinstance(part, str):
                fh.write(f"# {part}\n")
                continue
            mapping = part if isinstance(part, Mapping) else asdict(part)
            for key, value in mapping.items():
                fh.write(f"{key} = {value!r}\n")


def coerce(cls, raw: Mapping) -> dict:
    """Type raw values (text, or JSON scalars) by the defaults of the
    dataclass cls's fields. An unknown key, or a value its field's type
    does not take (a float must be finite), is an error naming the key."""
    kinds = {f.name: type(f.default) for f in fields(cls)}
    typed = {}
    for key, value in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown key {key!r}")
        kind, text = kinds[key], str(value).strip()
        if kind is str:
            quoted = len(text) >= 2 and text[0] == text[-1] and text[0] in "'\""
            typed[key] = text[1:-1] if quoted else text
            continue
        try:
            typed[key] = _BOOLS[text.lower()] if kind is bool else kind(text)
            ok = kind is not float or math.isfinite(typed[key])
        except (KeyError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}")
    return typed


def resolve(path=None, overrides: Mapping = {}) -> tuple[PlantScenario, TrainConfig]:
    """The scenario and training configuration of a file (the defaults
    without one) with overrides applied, checked by `validate`."""
    raw = {**(read(path) if path is not None else {}), **overrides}
    scenario = _build(PlantScenario, {k: v for k, v in raw.items() if k in SCENARIO_KEYS})
    # keys of neither dataclass fall to TrainConfig's coercion, which rejects them
    config = _build(TrainConfig, {k: v for k, v in raw.items() if k not in SCENARIO_KEYS})
    validate(scenario, config)
    return scenario, config


def _build(cls, raw: Mapping):
    typed = coerce(cls, raw)
    try:
        return cls(**typed)
    except ValueError as exc:  # PlantError, sigproc.TraceError
        raise ConfigError(str(exc)) from exc


def _named(key: str, check, *args):
    """Run a sigproc check and return its result, naming key in the
    ConfigError it raises."""
    try:
        return check(*args)
    except sigproc.TraceError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def first_sample(t: float, rate: float) -> int:
    """The index of the first sample at or after t seconds on a grid of rate
    Hz from t = 0, within 1e-9 samples: how every window turns a time into
    an index."""
    return math.ceil(t * rate - 1e-9)


def filter_band(sample_rate: float,
                config: TrainConfig) -> tuple[sigproc.BandpassSpec, float]:
    """(band, rate): the band-pass the filter stage runs and the rate it
    runs at, for an episode sampled at sample_rate. pre_decimation gives
    bandpass_spec at sample_rate; post_decimation gives it at target_rate,
    its f_max clamped to 0.95x the decimated Nyquist (TraceError unless
    f_min stays below)."""
    spec = config.bandpass_spec
    if config.filter_stage == PRE_DECIMATION:
        return spec, sample_rate
    f_max = min(spec.f_max, 0.95 * (0.5 * config.target_rate))
    return sigproc.BandpassSpec(spec.f_min, f_max, spec.order), config.target_rate


def reward_window(scenario: PlantScenario, config: TrainConfig) -> range:
    """The indices the reward integrates in the filter stage's trace, at
    filter_band's rate: from the first sample at or after act_time,
    round(t_reward * rate) intervals on."""
    _, rate = filter_band(scenario.sample_rate, config)
    start = first_sample(scenario.act_time, rate)
    return range(start, start + round(config.t_reward * rate) + 1)


def reward_samples(scenario: PlantScenario, config: TrainConfig) -> int:
    """The native samples from t = 0 that an episode's reward reads: to the
    one under reward_window's last index."""
    _, rate = filter_band(scenario.sample_rate, config)
    factor = sigproc.decimation_factor(scenario.sample_rate, rate)
    return (reward_window(scenario, config).stop - 1) * factor + 1


def observation_starts(scenario: PlantScenario, config: TrainConfig) -> range:
    """The low-rate sample indices an observation window may start at: from
    the first at or after act_time - obs_window to the last whose d_obs
    samples end before act_time, in the decimation of the native samples
    before act_time."""
    factor = sigproc.decimation_factor(scenario.sample_rate, config.target_rate)
    n_native = first_sample(scenario.act_time, scenario.sample_rate)
    first = first_sample(scenario.act_time - config.obs_window, config.target_rate)
    return range(first, -(-n_native // factor) - config.d_obs + 1)


def check_gain(scenario: PlantScenario, key: str, kp: float) -> None:
    """Raise ConfigError, naming key, unless the transition at kp is finite."""
    try:
        finite = all(map(math.isfinite, transition(scenario, kp)))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError(f"{key}: the plant's one-step transition at gain {kp} "
                          f"is not finite")


def validate(scenario: PlantScenario, config: TrainConfig) -> None:
    """Raise ConfigError, naming the fields, unless a training of config
    on scenario can run to its end: finite values, a cache_resolution
    giving every gain a finite bucket index and the oracle a finite step
    count, a non-negative seed, a positive learning rate and network, a
    target rate dividing the native rate, a band-pass filter_band's rate
    can carry (post-decimation, clamped with a UserWarning naming
    bandpass_high), a finite plant
    transition at every gain an episode runs, a non-empty
    observation_starts from index 0 or later, and a positive t_reward whose
    reward_samples an episode holds."""
    for part in (scenario, config):
        for key, value in asdict(part).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
    if not all(math.isfinite(kp / config.cache_resolution) for kp in
               (config.kp_min, config.kp_max, config.kp_max - config.kp_min)):
        raise ConfigError(f"cache_resolution {config.cache_resolution!r} puts a cache "
                          "bucket index or the oracle's step count past 1e308")
    # damping is affine in the gain, so these four bound every segment's
    for key, part in (("kp_stable", scenario), ("kp_unstable", scenario),
                      ("kp_min", config), ("kp_max", config)):
        check_gain(scenario, key, getattr(part, key))
    for key, least in (("seed", 0), ("hidden_size", 1), ("d_obs", 1)):
        if getattr(config, key) < least:
            raise ConfigError(f"{key} must be >= {least}, got {getattr(config, key)}")
    if not config.lr > 0:
        raise ConfigError(f"lr must be positive, got {config.lr}")
    _named("target_rate", sigproc.decimation_factor, scenario.sample_rate,
           config.target_rate)
    _named("bandpass_low, bandpass_high or bandpass_order", sigproc.BandpassSpec,
           config.bandpass_low, config.bandpass_high, config.bandpass_order)
    # the native Nyquist bounds f_max; the decimated one clamps it, so f_min
    key = "bandpass_high" if config.filter_stage == PRE_DECIMATION else "bandpass_low"
    band, rate = _named(key, filter_band, scenario.sample_rate, config)
    _named(key, sigproc.design_bandpass, band, rate)
    if band.f_max != config.bandpass_high:  # one line warns: shown once by default
        warnings.warn(f"bandpass_high {config.bandpass_high} Hz is infeasible at target_rate "
                      f"{rate} Hz; clamped to {band.f_max} Hz")
    starts = observation_starts(scenario, config)
    if not 0 <= starts.start < starts.stop:
        raise ConfigError(f"obs_window and d_obs must give 0 <= first <= last window "
                          f"start (low-rate samples), got {starts.start} and {starts.stop - 1}")
    n = reward_samples(scenario, config)
    if not (config.t_reward > 0 and n <= scenario.n_samples):
        raise ConfigError(f"t_reward must be positive and end in the episode (needs {n} "
                          f"samples of {scenario.n_samples}), got {config.t_reward}")
