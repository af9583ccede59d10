"""Results the benchmark checks the program against, computed without it.

Only the scenario's numbers are read from the program's objects; every
formula here is written out again from the model the program implements.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import signal


def damping(scenario, kp: float) -> float:
    """The scenario's affine gain-to-damping map: zeta_stable at kp_stable,
    zero at kp_crit."""
    slope = -scenario.zeta_stable / (scenario.kp_crit - scenario.kp_stable)
    return scenario.zeta_stable + slope * (kp - scenario.kp_stable)


def most_damped_gain(scenario, kp_min: float, kp_max: float) -> float:
    """The gain in [kp_min, kp_max] of largest damping; the map is affine,
    so it is an end of the interval."""
    return kp_min if damping(scenario, kp_min) >= damping(scenario, kp_max) else kp_max


def bucket_count(kp_min: float, kp_max: float, resolution: float) -> int:
    """Distinct gain buckets of width ``resolution`` (rounded to the nearest
    multiple) that the clamped gains can fall into."""
    return round(kp_max / resolution) - round(kp_min / resolution) + 1


def bandpass_sos(order: int, f_low: float, f_high: float, fs: float) -> np.ndarray:
    """Digital Butterworth band-pass from the analog prototype: pre-warp the
    band edges, shift the low-pass poles to the band, bilinear transform."""
    z, p, k = signal.buttap(order)
    lo, hi = (2.0 * fs * math.tan(math.pi * f / fs) for f in (f_low, f_high))
    z, p, k = signal.lp2bp_zpk(z, p, k, wo=math.sqrt(lo * hi), bw=hi - lo)
    z, p, k = signal.bilinear_zpk(z, p, k, fs)
    return signal.zpk2sos(z, p, k)


def episode_reward(samples: np.ndarray, fs: float, act_time: float,
                   t_reward: float, sos: np.ndarray) -> float:
    """Negated energy of the causally band-passed trace over
    [act_time, act_time + t_reward], by the trapezoid rule."""
    y = signal.sosfilt(sos, samples)
    first = math.ceil(act_time * fs - 1e-9)
    y = y[first:first + round(t_reward * fs) + 1]
    y2 = y * y
    return -(y2.sum() - 0.5 * (y2[0] + y2[-1])) / fs


def damped_response(scenario, gains, switch_steps, n_samples: int,
                    every: int) -> np.ndarray:
    """Noise-free mode displacement x(t) at every ``every``-th native step.

    The mode starts at (disturbance_amp, 0) with gains[0]; gain i+1 takes
    over at native step switch_steps[i]. Each segment is the closed-form
    solution of x'' + 2 zeta w x' + w^2 x = 0 from the state the previous
    segment ended in. Returns x at steps every, 2*every, ..., n_samples*every.
    """
    w = 2.0 * math.pi * scenario.f_osc
    dt = scenario.sim_dt
    bounds = [0, *switch_steps, n_samples * every]
    x0, v0 = scenario.disturbance_amp, 0.0
    out = np.empty(n_samples)
    for seg, kp in enumerate(gains):
        zeta = damping(scenario, kp)
        sigma = zeta * w
        wd = w * math.sqrt(1.0 - zeta * zeta)
        s0, s1 = bounds[seg], bounds[seg + 1]
        # sample steps inside (s0, s1]
        first = s0 // every + 1
        steps = np.arange(first, s1 // every + 1) * every
        tau = (steps - s0) * dt
        decay = np.exp(-sigma * tau)
        c = (v0 + sigma * x0) / wd
        out[first - 1:first - 1 + len(steps)] = decay * (
            x0 * np.cos(wd * tau) + c * np.sin(wd * tau))
        tau_end = (s1 - s0) * dt
        decay_end = math.exp(-sigma * tau_end)
        cos_e, sin_e = math.cos(wd * tau_end), math.sin(wd * tau_end)
        x0, v0 = (decay_end * (x0 * cos_e + c * sin_e),
                  decay_end * (v0 * cos_e - (w * w * x0 + sigma * v0) / wd * sin_e))
    return out
