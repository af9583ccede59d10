"""Reduced-order surrogate grid plant.

A single dq-frame resonant mode (second-order oscillator) whose damping
ratio is an affine, strictly decreasing function of the tunable outer-loop
proportional gain: stable at kp_stable, marginal at kp_crit, unstable at
kp_unstable. The mode displacement rides on the nominal active power as the
measured signal. Episodes replay the mistuning timeline: nominal gain,
mistuned gain at mistune_time, the commanded gain at act_time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache

import numpy as np
# unused here: perfbench's traced run counts calls through plant.linalg
from scipy import linalg  # noqa: F401

from .kernel import simulate_segments
from .sigproc import SignalTrace


class PlantError(ValueError):
    """Invalid scenario or state."""


class DivergedError(RuntimeError):
    """Simulation exceeded the divergence bound; carries the last finite time."""

    def __init__(self, t: float):
        super().__init__(f"plant state diverged at t = {t:.6f} s")
        self.t = t


@dataclass(frozen=True)
class GainAction:
    """Scalar outer-loop proportional gain command."""

    kp: float


@dataclass(frozen=True)
class PlantScenario:
    """Surrogate grid configuration.

    The gain-to-damping map is calibrated to three anchor facts: stable at
    kp_stable, unstable at kp_unstable, resonant mode at f_osc in the dq
    frame. zeta_stable sets the envelope time scale; kp_crit is the
    zero-damping crossing.
    """

    f_osc: float = 48.0
    kp_stable: float = 2.0
    kp_unstable: float = 4.0
    kp_crit: float = 3.0
    zeta_stable: float = 0.002
    p_nom: float = 1.0
    sim_dt: float = 2e-4
    horizon: float = 10.0
    mistune_time: float = 1.0
    act_time: float = 5.0
    noise_std: float = 1e-4
    disturbance_amp: float = 0.02
    diverge_threshold: float = 1e6

    def __post_init__(self):
        if not (self.kp_stable < self.kp_crit < self.kp_unstable):
            raise PlantError("need kp_stable < kp_crit < kp_unstable")
        if not (self.zeta_stable > 0 and self.sim_dt > 0 and self.f_osc > 0):
            raise PlantError("zeta_stable, sim_dt and f_osc must be positive")
        if not (0 <= self.mistune_time < self.act_time < self.horizon):
            raise PlantError("need 0 <= mistune_time < act_time < horizon")
        if self.noise_std < 0 or self.disturbance_amp < 0:
            raise PlantError("noise_std and disturbance_amp must be non-negative")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.f_osc

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.sim_dt


@dataclass
class PlantState:
    """Integrator state: time, resonant mode (position, velocity), active gain."""

    t: float
    mode_state: np.ndarray
    active_kp: float

    def __post_init__(self):
        self.mode_state = np.asarray(self.mode_state, dtype=np.float64)
        if self.mode_state.shape != (2,) or not np.all(np.isfinite(self.mode_state)):
            raise PlantError(f"mode_state must be a finite 2-vector, got {self.mode_state}")


def initial_state(scenario: PlantScenario) -> PlantState:
    return PlantState(0.0, np.array([scenario.disturbance_amp, 0.0]),
                      scenario.kp_stable)


def damping_of_gain(scenario: PlantScenario, kp: float) -> float:
    """Affine damping-ratio map: zeta_stable at kp_stable, zero at kp_crit."""
    return scenario.zeta_stable * (scenario.kp_crit - kp) / (
        scenario.kp_crit - scenario.kp_stable)


def mode_eigenvalues(scenario: PlantScenario, kp: float) -> tuple[complex, complex]:
    """Continuous-time eigenvalues of the mode at the given gain: a complex
    pair for |zeta| <= 1, the real pair -zeta*w +/- w*sqrt(zeta^2 - 1) for
    |zeta| > 1."""
    zeta = damping_of_gain(scenario, kp)
    w = scenario.omega
    if abs(zeta) > 1.0:
        root = w * math.sqrt(zeta * zeta - 1.0)
        return complex(-zeta * w + root, 0.0), complex(-zeta * w - root, 0.0)
    root = w * math.sqrt(1.0 - zeta * zeta)
    lam = complex(-zeta * w, root)
    return lam, lam.conjugate()


# b1 is summed as a series when max(omega, |zeta*omega|) * dt is below this
_SERIES_STEP = 1.0


@lru_cache(maxsize=256)
def _discretize(omega: float, zeta: float, dt: float) -> tuple:
    """Exact one-step discretization of x'' + 2*zeta*omega*x' + omega^2*x = w
    with zero-order hold on the forcing: returns (A_d flattened, b_d).

    Closed form in scalar arithmetic, with sigma = zeta*omega and
    q = omega^2*(1 - zeta^2):
    A_d = exp(-sigma*dt) * [[c + sigma*s, s], [-omega^2*s, c - sigma*s]],
    c = cos(sqrt(q)*dt), s = sin(sqrt(q)*dt)/sqrt(q) (cosh and sinh for
    q < 0; c = 1, s = dt for q = 0), b2 = a12 and b1 = (1 - a11)/omega^2.
    """
    sigma = zeta * omega
    q = omega * omega - sigma * sigma
    if q > 0.0:
        r = math.sqrt(q)
        c, s = math.cos(r * dt), math.sin(r * dt) / r
    elif q < 0.0:
        r = math.sqrt(-q)
        c, s = math.cosh(r * dt), math.sinh(r * dt) / r
    else:
        c, s = 1.0, dt
    decay = math.exp(-sigma * dt)
    a11 = decay * (c + sigma * s)
    a12 = decay * s
    a22 = decay * (c - sigma * s)
    if max(omega, abs(sigma)) * dt < _SERIES_STEP:
        b1 = _zoh_position_gain(omega, sigma, dt)
    else:
        b1 = (1.0 - a11) / (omega * omega)
    return (a11, a12, -omega * omega * a12, a22, b1, a12)


def _zoh_position_gain(omega: float, sigma: float, dt: float) -> float:
    """b1 = sum over k >= 1 of (A^k B)_1 * dt^(k+1)/(k+1)!, for steps short
    against the mode, where 1 - a11 cancels. By Cayley-Hamilton
    A^k = alpha_k*I + beta_k*A with A^2 = -2*sigma*A - omega^2*I, so
    (A^k B)_1 = beta_k."""
    alpha, beta = 0.0, 1.0          # k = 1
    power = 0.5 * dt * dt           # dt^(k+1)/(k+1)!
    total = power
    k, small = 1, 0
    # beta_k vanishes on every other k at sigma = 0: stop on two small terms
    while small < 2 and k < 60:
        alpha, beta = -omega * omega * beta, alpha - 2.0 * sigma * beta
        k += 1
        power *= dt / (k + 1)
        term = beta * power
        total += term
        small = small + 1 if abs(term) <= 1e-18 * abs(total) else 0
    return total


def transition(scenario: PlantScenario, kp: float) -> tuple:
    """One-step transition coefficients (a11, a12, a21, a22, b1, b2) at gain kp."""
    return _discretize(scenario.omega, damping_of_gain(scenario, kp),
                       scenario.sim_dt)


def step(state: PlantState, scenario: PlantScenario, dt: float,
         rng: np.random.Generator | None = None) -> PlantState:
    """Advance one exact-discretization step at the state's active gain."""
    if abs(dt - scenario.sim_dt) > 1e-15:
        raise PlantError(f"dt must equal scenario.sim_dt = {scenario.sim_dt}")
    a11, a12, a21, a22, b1, b2 = transition(scenario, state.active_kp)
    w = 0.0
    if rng is not None and scenario.noise_std > 0:
        w = rng.standard_normal() * scenario.noise_std / math.sqrt(dt)
    x, v = state.mode_state
    xn = a11 * x + a12 * v + b1 * w
    vn = a21 * x + a22 * v + b2 * w
    if xn * xn + vn * vn > scenario.diverge_threshold ** 2:
        raise DivergedError(state.t)
    return PlantState(state.t + dt, np.array([xn, vn]), state.active_kp)


def apply_gain(state: PlantState, action: GainAction) -> PlantState:
    """Switch the active gain; mode state is continuous across the switch."""
    return PlantState(state.t, state.mode_state.copy(), action.kp)


def measure(state: PlantState, scenario: PlantScenario,
            rng: np.random.Generator | None = None) -> float:
    """Per-unit active power sample: nominal point plus the mode displacement."""
    noise = 0.0
    if rng is not None and scenario.noise_std > 0:
        noise = rng.standard_normal() * scenario.noise_std
    return scenario.p_nom + float(state.mode_state[0]) + noise


@dataclass
class EpisodeResult:
    """Measured trace of one episode plus the divergence flag."""

    trace: SignalTrace
    diverged: bool = False
    diverged_at: float | None = None
    final_state: np.ndarray = field(default_factory=lambda: np.zeros(2))


def run_episode(scenario: PlantScenario, action: GainAction,
                seed: int | None = None) -> EpisodeResult:
    """Simulate the full mistuning timeline at the native rate.

    Gains: kp_stable on [0, mistune_time), kp_unstable on
    [mistune_time, act_time), action.kp from act_time on. Deterministic for
    a given seed. On divergence the trace is truncated at the last finite
    sample and the flag is set.
    """
    dt = scenario.sim_dt
    n_total = int(round(scenario.horizon / dt))
    k_mistune = int(round(scenario.mistune_time / dt))
    k_act = int(round(scenario.act_time / dt))

    seg_steps = np.array([k_mistune, k_act - k_mistune, n_total - 1 - k_act],
                         dtype=np.int64)
    gains = (scenario.kp_stable, scenario.kp_unstable, action.kp)
    seg_mats = np.array([transition(scenario, g) for g in gains])

    rng = np.random.default_rng(seed)
    if scenario.noise_std > 0:
        w = rng.standard_normal(n_total - 1) * (scenario.noise_std / math.sqrt(dt))
        vnoise = rng.standard_normal(n_total) * scenario.noise_std
    else:
        w = np.zeros(n_total - 1)
        vnoise = np.zeros(n_total)

    out = np.empty(n_total)
    n_valid, x, v, diverged = simulate_segments(
        scenario.disturbance_amp, 0.0, seg_mats, seg_steps, w, vnoise,
        scenario.p_nom, scenario.diverge_threshold, out)

    trace = SignalTrace(out[:n_valid], scenario.sample_rate, 0.0)
    return EpisodeResult(trace=trace, diverged=bool(diverged),
                         diverged_at=(n_valid * dt) if diverged else None,
                         final_state=np.array([x, v]))


# ---------------------------------------------------------------------------
# scenario files: flat key = value text

def load_scenario(path) -> PlantScenario:
    """Parse a key = value scenario file; unknown keys are an error."""
    raw = parse_kv_file(path, PlantScenario)
    return PlantScenario(**coerce_fields(PlantScenario, raw))


def parse_kv_file(path, dataclass_type, allow_extra: tuple[str, ...] = ()) -> dict:
    """Read `key = value` lines (# comments) typed against a dataclass."""
    known = {f.name: f.type for f in fields(dataclass_type)}
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise PlantError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known and key not in allow_extra:
                raise PlantError(f"{path}:{lineno}: unknown key {key!r}")
            out[key] = value
    return out


def save_scenario(scenario: PlantScenario, path) -> None:
    with open(path, "w") as fh:
        for f in fields(scenario):
            fh.write(f"{f.name} = {getattr(scenario, f.name)!r}\n")


def coerce_fields(dataclass_type, raw: dict) -> dict:
    """Convert string values from a kv file to the dataclass field types."""
    typed = {}
    by_name = {f.name: f for f in fields(dataclass_type)}
    for key, value in raw.items():
        if key not in by_name:
            continue
        default = by_name[key].default
        if isinstance(default, bool):
            typed[key] = str(value).lower() in ("1", "true", "yes", "on")
        elif isinstance(default, int):
            typed[key] = int(value)
        elif isinstance(default, float):
            typed[key] = float(value)
        elif isinstance(default, str):
            text = str(value)
            if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
                text = text[1:-1]
            typed[key] = text
        else:
            typed[key] = value
    return typed
