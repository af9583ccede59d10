"""Test-only reference for a training epoch: ``policy.forward``,
``policy.backward``, ``policy.adam_step`` and ``trainer.run_epoch`` in the
plain form they had before they were tuned for speed (two-pass LayerNorm
statistics, ``np.outer``, a gradient written through named views, Adam
with fresh temporaries, records and statistics built from Python lists).
The tuned code must give the same bits.
"""

import math

import numpy as np

from sscirl import policy as pol
from sscirl import trainer
from sscirl.config import observation_starts


def _views(flat, obs_dim, hidden):
    shapes = pol._shapes(obs_dim, hidden)
    out, pos = {}, 0
    for name in pol.PARAM_NAMES:
        size = math.prod(shapes[name])
        out[name] = flat[pos:pos + size].reshape(shapes[name])
        pos += size
    return out


def forward(params, obs):
    o = np.asarray(obs, float)
    single = o.ndim == 1
    rows = o[np.newaxis] if single else o
    t = params.tensors

    mean = rows.mean(axis=1, keepdims=True)
    var_o = rows.var(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var_o + pol.LN_EPS)
    xhat = (rows - mean) * inv_std
    ln = t["ln_gain"] * xhat + t["ln_bias"]

    z1 = ln @ t["w1"].T + t["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ t["w2"].T + t["b2"]
    h2 = np.maximum(z2, 0.0)

    mu = h2 @ t["w3_mu"] + t["b3_mu"]
    raw = h2 @ t["w3_var"] + t["b3_var"]
    var = np.maximum(raw, 0.0) + np.log1p(np.exp(-np.abs(raw))) + pol.VAR_FLOOR

    cache = {"xhat": xhat, "ln": ln, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
             "raw": raw}
    if single:
        return pol.PolicyOutput(float(mu[0]), float(var[0]), cache)
    return pol.PolicyOutput(mu, var, cache)


def backward(params, out, actions, weights):
    c = out.cache
    actions = np.asarray(actions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    t = params.tensors

    scale = weights / len(weights)
    diff = actions - out.mu
    d_mu = scale * diff / out.var
    d_var = scale * (diff * diff / (2.0 * out.var ** 2) - 0.5 / out.var)
    with np.errstate(over="ignore"):
        d_raw = d_var / (1.0 + np.exp(-c["raw"]))

    d_z2 = (np.outer(d_mu, t["w3_mu"]) + np.outer(d_raw, t["w3_var"])) * (c["z2"] > 0.0)
    d_z1 = (d_z2 @ t["w2"]) * (c["z1"] > 0.0)
    d_ln = d_z1 @ t["w1"]
    grad = np.empty_like(params.theta)
    g = _views(grad, params.obs_dim, params.hidden)
    g["ln_gain"][...] = (d_ln * c["xhat"]).sum(axis=0)
    g["ln_bias"][...] = d_ln.sum(axis=0)
    g["w1"][...] = d_z1.T @ c["ln"]
    g["b1"][...] = d_z1.sum(axis=0)
    g["w2"][...] = d_z2.T @ c["h1"]
    g["b2"][...] = d_z2.sum(axis=0)
    g["w3_mu"][...] = d_mu @ c["h2"]
    g["b3_mu"][...] = d_mu.sum()
    g["w3_var"][...] = d_raw @ c["h2"]
    g["b3_var"][...] = d_raw.sum()
    return grad


def adam_step(params, grad, lr, beta1=0.9, beta2=0.999):
    step_count = params.step_count + 1
    bc1 = 1.0 - beta1 ** step_count
    bc2 = 1.0 - beta2 ** step_count
    m = beta1 * params.m + (1.0 - beta1) * grad
    v = beta2 * params.v + (1.0 - beta2) * grad * grad
    with np.errstate(invalid="ignore"):
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + pol.ADAM_EPS)
    return pol.PolicyParameters(params.obs_dim, params.hidden, params.theta + update,
                                m, v, step_count)


def run_epoch(params, env, scenario, config, rng, cache, obs_trace, epoch,
              worst_reward, head=None):
    """trainer.run_epoch's contract, on the arguments it took before the
    run's fixed values moved into one record."""
    starts = observation_starts(scenario, config)
    i0, eps = map(np.array, zip(*[(rng.integers(starts.start, starts.stop),
                                   rng.standard_normal()) for _ in range(config.n_iter)]))
    windows = obs_trace.samples[i0[:, None] + np.arange(config.d_obs)]
    out = forward(params, windows)
    actions = out.mu + np.sqrt(out.var) * eps
    log_probs = pol.gaussian_log_prob(actions, out.mu, out.var)

    applied = [trainer.clamp(float(a), config.kp_min, config.kp_max) for a in actions]
    keys = [cache.bucket(kp) for kp in applied] if config.cache_enabled \
        else range(len(applied))
    seed = trainer._pretrace_seed(config.seed)
    known, first_miss = {}, {}
    for it, (key, kp) in enumerate(zip(keys, applied)):
        reward = cache.lookup(kp) if config.cache_enabled else None
        if reward is None:
            first_miss.setdefault(key, it)
        else:
            known[key] = reward
    scores = iter(list(map(
        lambda result: trainer.episode_reward(result, scenario, config, head),
        env.run_episodes([(applied[it], seed) for it in first_miss.values()],
                         scenario.horizon))))

    records = []
    worst = worst_reward
    for it, key in enumerate(keys):
        cached = key in known
        if not cached:
            reward = next(scores)
            known[key] = trainer.divergence_penalty(worst) if reward is None else reward
        reward = known[key]
        records.append(trainer.EpisodeRecord(int(i0[it]), float(actions[it]), applied[it],
                                             float(log_probs[it]), reward,
                                             float(out.var[it]), cached))
        worst = reward if worst is None else min(worst, reward)
    if config.cache_enabled:
        for key, it in first_miss.items():
            cache.store(applied[it], known[key])

    rewards = np.array([r.reward for r in records])
    weights = rewards - rewards.mean() if config.baseline_enabled else rewards
    new_params = adam_step(params, backward(params, out, actions, weights), config.lr)

    n = len(records)
    stats = trainer.EpochStats(
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
