"""Reduced-order surrogate grid plant.

A single dq-frame resonant mode (second-order oscillator) whose damping
ratio is an affine, strictly decreasing function of the tunable outer-loop
proportional gain: stable at kp_stable, marginal at kp_crit, unstable at
kp_unstable. The mode displacement rides on the nominal active power as the
measured signal. Episodes replay the mistuning timeline: nominal gain,
mistuned gain at mistune_time, the commanded gain at act_time. No
commanded gain reaches the samples before act_time, so a seed's history up
to there is simulated once, and the noise after it drawn once, for every
commanded gain to resume (_history), and a seed's episode at a gain
continues that history once (_episode), so a repeated (seed, gain) is not
simulated again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# unused here: perfbench's traced run counts calls through plant.linalg
from scipy import linalg  # noqa: F401
from scipy import signal

from .sigproc import SignalTrace


class PlantError(ValueError):
    """Invalid scenario or state."""


class DivergedError(RuntimeError):
    """Simulation exceeded the divergence bound; carries the last finite
    time and, from ``step``, the last finite state."""

    def __init__(self, t: float, state: PlantState | None = None):
        super().__init__(f"plant state diverged at t = {t:.6f} s")
        self.t = t
        self.state = state


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

    @property
    def n_samples(self) -> int:
        """Samples in one episode: round(horizon / sim_dt)."""
        return int(round(self.horizon / self.sim_dt))


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
        near, far, _ = _real_roots(w, zeta * w)
        return complex(max(near, far), 0.0), complex(min(near, far), 0.0)
    root = w * math.sqrt(1.0 - zeta * zeta)
    lam = complex(-zeta * w, root)
    return lam, lam.conjugate()


def _real_roots(omega: float, sigma: float) -> tuple[float, float, float]:
    """(near, far, r = sqrt(sigma^2 - omega^2)): the real roots of
    s^2 + 2*sigma*s + omega^2, near the one nearer zero, each found without
    the cancellation of -sigma +/- r: far adds two terms of one sign, and
    near is omega^2 (their product) over far."""
    r = math.sqrt(sigma * sigma - omega * omega)
    far = -sigma - math.copysign(r, sigma)
    return omega * omega / far, far, r


# b1 is summed as a series when max(omega, |zeta*omega|) * dt is below this
_SERIES_STEP = 1.0


@lru_cache(maxsize=256)
def _discretize(omega: float, zeta: float, dt: float) -> tuple:
    """Exact one-step discretization of x'' + 2*zeta*omega*x' + omega^2*x = w
    with zero-order hold on the forcing: returns (A_d flattened, b_d).

    Closed form in scalar arithmetic, with sigma = zeta*omega and
    q = omega^2*(1 - zeta^2):
    A_d = exp(-sigma*dt) * [[c + sigma*s, s], [-omega^2*s, c - sigma*s]],
    c = cos(sqrt(q)*dt), s = sin(sqrt(q)*dt)/sqrt(q) (c = 1, s = dt for
    q = 0), b2 = a12 and b1 = (1 - a11)/omega^2. For q < 0, c and s take in
    exp(-sigma*dt), from exp at the real root nearer zero (_real_roots, which
    does not cancel) and expm1 of the roots' gap 2*sqrt(-q)*dt:
    no factor overflows where A_d does not, and a short step does not cancel.
    """
    sigma = zeta * omega
    q = omega * omega - sigma * sigma
    decay = math.exp(-sigma * dt) if q >= 0.0 else 1.0
    if q > 0.0:
        r = math.sqrt(q)
        c, s = math.cos(r * dt), math.sin(r * dt) / r
    elif q < 0.0:
        near, _, r = _real_roots(omega, sigma)
        gap = math.expm1(-math.copysign(2.0 * r * dt, sigma))  # exp((far - near)*dt) - 1
        decay_near = math.exp(near * dt)
        c, s = 0.5 * decay_near * (2.0 + gap), 0.5 * decay_near * abs(gap) / r
    else:
        c, s = 1.0, dt
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


def _advance(x: float, v: float, coeffs, w: np.ndarray, thr2: float,
             out: np.ndarray | None = None, vnoise: np.ndarray | None = None,
             p_nom: float = 0.0) -> tuple:
    """Advance the mode len(w) steps at one gain, w[j] forcing step j + 1.

    Within a segment the recurrence s' = A s + b w makes x and v order-2
    IIR filters of w with the shared denominator [1, -tr A, det A] and
    numerators [b1, a12*b2 - a22*b1] (x) and [b2, a21*b1 - a11*b2] (v).
    Their initial conditions are those of the back-stepped state A^-1 s
    with a zero past input, which reduce to the zero-input first step
    (A s) and -det A * s. The whole segment is one lfilter call for each;
    past a crossing its samples may run to inf and nan, which nothing
    reads. When out is given, out[j] = p_nom + x + vnoise[j] receives the
    position after step j + 1.

    Returns (n, x, v, crossing): the n steps taken before the first state
    whose squared norm exceeds thr2 (len(w) if none did), the state after
    them, and that crossing state as a pair, or None.
    """
    a11, a12, a21, a22, b1, b2 = coeffs
    det = a11 * a22 - a12 * a21
    den = (1.0, -(a11 + a22), det)
    xs, _ = signal.lfilter((b1, a12 * b2 - a22 * b1), den, w,
                           zi=np.array([a11 * x + a12 * v, -det * x]))
    vs, _ = signal.lfilter((b2, a21 * b1 - a11 * b2), den, w,
                           zi=np.array([a21 * x + a22 * v, -det * v]))
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = xs * xs
        r2 += vs * vs
        crossed = np.flatnonzero(r2 > thr2)
    n = int(crossed[0]) if crossed.size else len(w)
    if out is not None:
        np.add(xs[:n], p_nom, out=out[:n])
        out[:n] += vnoise[:n]
    if n:
        x, v = float(xs[n - 1]), float(vs[n - 1])
    if n < len(w):
        return n, x, v, (float(xs[n]), float(vs[n]))
    return n, x, v, None


def simulate_segments(x, v, seg_mats, seg_steps, w, vnoise, p_nom, threshold, out):
    """Advance the 2-state resonant mode through piecewise-constant-gain segments.

    Parameters
    ----------
    x, v : float
        Initial mode position and velocity.
    seg_mats : (n_seg, 6) float array
        Per segment: a11, a12, a21, a22, b1, b2 of the exact one-step
        discretization (state transition plus zero-order-hold input column).
    seg_steps : (n_seg,) int array
        Steps per segment; must sum to len(out) - 1.
    w : float array, len(out) - 1
        Process-noise force per step.
    vnoise : float array, len(out)
        Measurement noise per sample.
    p_nom : float
        Nominal operating point added to the measured output.
    threshold : float
        Divergence bound on the Euclidean norm of the state.
    out : float array
        Output buffer for measured samples; out[k] is the sample at step k.

    Returns
    -------
    (n_valid, x, v, diverged) : number of valid samples written, final
    state (the one that crossed the bound on divergence), and whether the
    divergence bound was hit.
    """
    thr2 = threshold * threshold
    out[0] = p_nom + x + vnoise[0]
    k = 1
    for coeffs, m in zip(np.asarray(seg_mats, dtype=np.float64).tolist(),
                         np.asarray(seg_steps).tolist()):
        n, x, v, crossing = _advance(x, v, coeffs, w[k - 1:k - 1 + m], thr2,
                                     out[k:k + m], vnoise[k:k + m], p_nom)
        k += n
        if crossing is not None:
            return k, crossing[0], crossing[1], True
    return k, x, v, False


def step(state: PlantState, scenario: PlantScenario,
         rng: np.random.Generator | None = None, n_steps: int = 1) -> PlantState:
    """Advance n_steps exact steps of scenario.sim_dt at the active gain.

    With rng, step j is forced by the j-th of n_steps standard normals
    drawn at once, which is the stream n_steps single steps draw. On
    divergence the raised DivergedError carries the last finite state and
    its time.
    """
    if rng is not None and scenario.noise_std > 0:
        w = rng.standard_normal(n_steps)
        w *= scenario.noise_std
        w /= math.sqrt(scenario.sim_dt)
    else:
        w = np.zeros(n_steps)
    x, v = state.mode_state.tolist()
    n, x, v, crossing = _advance(x, v, transition(scenario, state.active_kp), w,
                                 scenario.diverge_threshold ** 2)
    end = PlantState(state.t + n * scenario.sim_dt, np.array([x, v]), state.active_kp)
    if crossing is not None:
        raise DivergedError(end.t, end)
    return end


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

    @property
    def diverged_at(self) -> float | None:
        """The time the truncated trace of a diverged episode ends at (its
        sample count times dt), or None."""
        return len(self.trace) * self.trace.dt if self.diverged else None


def _draw(scenario: PlantScenario, streams, n_w: int, n_v: int) -> tuple:
    """The next n_w process-noise forces and n_v measurement-noise samples
    of streams (zeros when it is None). A stream drawn in two calls gives
    the numbers one call gives."""
    if streams is None:
        return np.zeros(n_w), np.zeros(n_v)
    w = streams[0].standard_normal(n_w)
    w *= scenario.noise_std / math.sqrt(scenario.sim_dt)
    vnoise = streams[1].standard_normal(n_v)
    vnoise *= scenario.noise_std
    return w, vnoise


# 8 bytes a sample to act_time and 16 after it (a float of each noise
# stream): 360 kB at the training cut (25,001 samples, then 10,000), 600 kB
# at the default 10 s horizon; a training run reads one entry, evaluate's
# pair one, and grid_oracle's sweep with canonical_observation one
@lru_cache(maxsize=3)
def _history(scenario: PlantScenario, seed: int | None) -> tuple:
    """What every episode of scenario at seed shares, whatever its commanded
    gain, which takes over only after sample k_end (act_time in steps, or
    the episode's last sample when that comes first): the samples [0, k_end]
    of the kp_stable and kp_unstable segments, run by simulate_segments, and
    the noise of the samples after them, drawn on from the same streams.

    Returns (samples, x, v, diverged, (w, vnoise)), all arrays read-only:
    the samples (fewer when the mode diverged), the mode state after them
    (the crossing state on divergence), the divergence flag, and the noise
    of the rest of the episode (none after a divergence).
    """
    n_total = scenario.n_samples
    k_end = min(int(round(scenario.act_time / scenario.sim_dt)), n_total - 1)
    k_mistune = min(int(round(scenario.mistune_time / scenario.sim_dt)), k_end)
    seg_mats = np.array([transition(scenario, g)
                         for g in (scenario.kp_stable, scenario.kp_unstable)])
    streams = None  # process and measurement noise: two children of SeedSequence(seed)
    if scenario.noise_std > 0:
        streams = tuple(np.random.default_rng(child)
                        for child in np.random.SeedSequence(seed).spawn(2))
    w, vnoise = _draw(scenario, streams, k_end, k_end + 1)
    out = np.empty(k_end + 1)
    n_valid, x, v, diverged = simulate_segments(
        scenario.disturbance_amp, 0.0, seg_mats, [k_mistune, k_end - k_mistune],
        w, vnoise, scenario.p_nom, scenario.diverge_threshold, out)
    n_tail = 0 if diverged else n_total - n_valid
    samples, tail = out[:n_valid], _draw(scenario, streams, n_tail, n_tail)
    for array in (samples, *tail):
        array.flags.writeable = False
    return samples, x, v, diverged, tail


# 8 bytes a sample after act_time, beside a reference to the history's
# samples: 80 kB at the training cut, 200 kB at 10 s. Two gains for each
# history _history holds; an entry keeps its history's samples alive after
# _history drops them, so at most 6 histories' samples stay (1.2 MB at the
# training cut). Server sessions share the entries: two threads that miss
# on one key compute the same bits, so either one's entry serves
@lru_cache(maxsize=6)
def _episode(scenario: PlantScenario, seed: int | None, kp: float) -> tuple:
    """The episode of scenario at seed and the commanded gain kp, as its
    _history continued at kp on the history's noise.

    Returns (samples, tail, diverged), both arrays read-only: the
    history's samples, the samples after them (fewer when the mode
    diverged, none when the history did) and the divergence flag.
    """
    history = _history if seed is not None else _history.__wrapped__
    samples, x, v, diverged, (w, vnoise) = history(scenario, seed)
    tail = np.empty(len(w))
    if len(w):
        threshold = scenario.diverge_threshold
        n, _, _, crossing = _advance(x, v, transition(scenario, kp), w,
                                     threshold * threshold, tail, vnoise, scenario.p_nom)
        tail, diverged = tail[:n], crossing is not None
    tail.flags.writeable = False
    return samples, tail, diverged


def run_episode(scenario: PlantScenario, kp: float,
                seed: int | None = None) -> EpisodeResult:
    """Simulate the full mistuning timeline at the native rate.

    Gains: kp_stable on [0, mistune_time), kp_unstable on
    [mistune_time, act_time), the commanded kp from act_time on. Deterministic for
    a given seed. The process noise w and the measurement noise vnoise come
    from two child streams of SeedSequence(seed), so an episode at a
    shorter horizon is, bit for bit, the prefix of the same-seed episode at
    a longer one. On divergence the trace is truncated at the last finite
    sample and the flag is set.

    Two memos serve a seed. No gain reaches the samples up to act_time, so
    a seed's history to there, and the noise of the samples after it, are
    simulated and drawn once (_history, on the scenario and the seed); the
    episode at kp continues that history on that noise once (_episode, on
    the scenario, the seed and kp), so a repeat simulates nothing. Either
    way the trace is a fresh writable array, the one a single pass gives,
    bit for bit. Seed None draws fresh entropy and is not memoised.
    """
    if scenario.n_samples < 1:
        raise PlantError(f"horizon {scenario.horizon} holds no sample of "
                         f"{scenario.sim_dt} s")
    episode = _episode if seed is not None else _episode.__wrapped__
    samples, tail, diverged = episode(scenario, seed, kp)
    trace = SignalTrace(np.concatenate((samples, tail)), scenario.sample_rate, 0.0)
    return EpisodeResult(trace=trace, diverged=bool(diverged))
