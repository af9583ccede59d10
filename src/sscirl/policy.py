"""Gaussian MLP policy with hand-derived gradients.

Architecture: LayerNorm on the input, two ReLU hidden layers, a linear
mean head and a Softplus variance head. Sampling uses the
reparameterization a = mu + sqrt(var) * eps. Gradients of the weighted
log-probability objective are computed by explicit reverse-mode
differentiation; the optimizer is Adam in gradient-ascent form. No
autodiff framework is involved anywhere.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .sigproc import Observation

LN_EPS = 1e-5
VAR_FLOOR = 1e-6
ADAM_EPS = 1e-8

CHECKPOINT_MAGIC = b"SSCIPG01"

# serialization order of the learnable tensors
PARAM_NAMES = ("ln_gain", "ln_bias", "w1", "b1", "w2", "b2",
               "w3_mu", "b3_mu", "w3_var", "b3_var")


class PolicyError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class PolicyParameters:
    """All learnable tensors plus Adam moment accumulators."""

    obs_dim: int
    hidden: int
    tensors: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    step_count: int = 0

    def copy(self) -> "PolicyParameters":
        return PolicyParameters(
            self.obs_dim, self.hidden,
            {k: v.copy() for k, v in self.tensors.items()},
            {k: v.copy() for k, v in self.adam_m.items()},
            {k: v.copy() for k, v in self.adam_v.items()},
            self.step_count)


def _shapes(obs_dim: int, hidden: int) -> dict[str, tuple]:
    return {
        "ln_gain": (obs_dim,), "ln_bias": (obs_dim,),
        "w1": (hidden, obs_dim), "b1": (hidden,),
        "w2": (hidden, hidden), "b2": (hidden,),
        "w3_mu": (hidden,), "b3_mu": (),
        "w3_var": (hidden,), "b3_var": (),
    }


def init_params(obs_dim: int = 30, hidden: int = 64,
                seed: int | None = None) -> PolicyParameters:
    """Glorot-uniform weights, zero biases, identity LayerNorm affine."""
    rng = np.random.default_rng(seed)
    shapes = _shapes(obs_dim, hidden)
    tensors = {}
    for name, shape in shapes.items():
        if name.startswith("w"):
            fan_out = shape[0] if len(shape) == 2 else 1
            fan_in = shape[-1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-bound, bound, size=shape)
        elif name == "ln_gain":
            tensors[name] = np.ones(shape)
        else:
            tensors[name] = np.zeros(shape)
    zeros = lambda: {n: np.zeros(s) for n, s in shapes.items()}
    return PolicyParameters(obs_dim, hidden, tensors, zeros(), zeros(), 0)


def zero_like_grads(params: PolicyParameters) -> dict[str, np.ndarray]:
    return {n: np.zeros_like(t) for n, t in params.tensors.items()}


@dataclass
class PolicyOutput:
    """Gaussian head outputs plus cached activations for backprop."""

    mu: float
    var: float
    cache: dict = field(default_factory=dict, repr=False)


@dataclass
class SampledAction:
    """Pre-clamp action sample with its log-probability, the policy's
    variance and the stored noise."""

    a: float
    log_prob: float
    var: float
    epsilon: float


def _obs_values(obs) -> np.ndarray:
    values = obs.values if isinstance(obs, Observation) else np.asarray(obs, float)
    if not np.all(np.isfinite(values)):
        raise PolicyError("observation contains non-finite values")
    return values


def _softplus(x: float) -> float:
    # overflow-safe: softplus(x) = max(x, 0) + log1p(exp(-|x|))
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def forward(params: PolicyParameters, obs) -> PolicyOutput:
    """Evaluate mean and variance heads, retaining intermediates."""
    o = _obs_values(obs)
    if o.shape != (params.obs_dim,):
        raise PolicyError(f"observation length {o.shape} != ({params.obs_dim},)")
    t = params.tensors

    mean = o.mean()
    var_o = o.var()
    inv_std = 1.0 / math.sqrt(var_o + LN_EPS)
    xhat = (o - mean) * inv_std
    ln = t["ln_gain"] * xhat + t["ln_bias"]

    z1 = t["w1"] @ ln + t["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = t["w2"] @ h1 + t["b2"]
    h2 = np.maximum(z2, 0.0)

    mu = float(t["w3_mu"] @ h2 + t["b3_mu"])
    raw = float(t["w3_var"] @ h2 + t["b3_var"])
    var = _softplus(raw) + VAR_FLOOR

    cache = {"xhat": xhat, "ln": ln, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
             "raw": raw}
    return PolicyOutput(mu, var, cache)


def gaussian_log_prob(a: float, mu: float, var: float) -> float:
    return -0.5 * ((a - mu) ** 2 / var + math.log(2.0 * math.pi * var))


def sample(params: PolicyParameters, obs,
           rng: np.random.Generator) -> SampledAction:
    """Draw a ~ N(mu, var) via the reparameterization trick."""
    out = forward(params, obs)
    eps = float(rng.standard_normal())
    a = out.mu + math.sqrt(out.var) * eps
    return SampledAction(a, gaussian_log_prob(a, out.mu, out.var), out.var, eps)


def log_prob(params: PolicyParameters, obs, a: float) -> float:
    out = forward(params, obs)
    return gaussian_log_prob(a, out.mu, out.var)


def grad_weighted_logprob(params: PolicyParameters,
                          batch: list[tuple]) -> dict[str, np.ndarray]:
    """Gradient of (1/n) * sum_j R_j * log pi(a_j | o_j) w.r.t. all tensors.

    batch entries are (obs, action, weight). Raises on a non-finite
    partial, naming the layer it appeared in.
    """
    if not batch:
        raise PolicyError("empty gradient batch")
    t = params.tensors
    grads = zero_like_grads(params)
    n = len(batch)

    for obs, a, weight in batch:
        if not math.isfinite(weight):
            raise PolicyError(f"non-finite weight {weight}")
        out = forward(params, obs)
        c = out.cache
        scale = weight / n

        diff = a - out.mu
        d_mu = scale * diff / out.var
        d_var = scale * (diff * diff / (2.0 * out.var ** 2) - 0.5 / out.var)
        d_raw = d_var / (1.0 + math.exp(-c["raw"]))  # softplus' = sigmoid

        grads["w3_mu"] += d_mu * c["h2"]
        grads["b3_mu"] += d_mu
        grads["w3_var"] += d_raw * c["h2"]
        grads["b3_var"] += d_raw

        d_h2 = d_mu * t["w3_mu"] + d_raw * t["w3_var"]
        d_z2 = d_h2 * (c["z2"] > 0.0)
        grads["w2"] += np.outer(d_z2, c["h1"])
        grads["b2"] += d_z2

        d_h1 = t["w2"].T @ d_z2
        d_z1 = d_h1 * (c["z1"] > 0.0)
        grads["w1"] += np.outer(d_z1, c["ln"])
        grads["b1"] += d_z1

        d_ln = t["w1"].T @ d_z1
        grads["ln_gain"] += d_ln * c["xhat"]
        grads["ln_bias"] += d_ln

    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise PolicyError(f"non-finite gradient in layer {name!r}")
    return grads


def adam_step(params: PolicyParameters, grads: dict[str, np.ndarray],
              lr: float, beta1: float = 0.9, beta2: float = 0.999) -> PolicyParameters:
    """Gradient-ascent Adam update (maximizes the objective).

    Returns updated parameters; on any non-finite update the input is left
    untouched and an error is raised.
    """
    new = params.copy()
    new.step_count = params.step_count + 1
    bc1 = 1.0 - beta1 ** new.step_count
    bc2 = 1.0 - beta2 ** new.step_count
    for name in PARAM_NAMES:
        g = grads[name]
        if g.shape != params.tensors[name].shape:
            raise PolicyError(f"gradient shape mismatch for {name!r}")
        m = beta1 * params.adam_m[name] + (1.0 - beta1) * g
        v = beta2 * params.adam_v[name] + (1.0 - beta2) * g * g
        with np.errstate(invalid="ignore"):  # non-finite handled just below
            update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(update)):
            raise PolicyError(f"non-finite Adam update for {name!r}")
        new.adam_m[name] = m
        new.adam_v[name] = v
        new.tensors[name] = params.tensors[name] + update
    return new


# ---------------------------------------------------------------------------
# checkpoints: versioned binary, little-endian, trailing checksum

def _checkpoint_tensors(params: PolicyParameters) -> list[tuple[str, np.ndarray]]:
    items = [(n, params.tensors[n]) for n in PARAM_NAMES]
    items += [(f"adam_m.{n}", params.adam_m[n]) for n in PARAM_NAMES]
    items += [(f"adam_v.{n}", params.adam_v[n]) for n in PARAM_NAMES]
    items.append(("step_count", np.array(float(params.step_count))))
    return items


def _checksum(arrays) -> int:
    total = 0
    for arr in arrays:
        bits = np.ascontiguousarray(arr, dtype="<f8").view("<u8")
        total = (total + int(bits.sum(dtype=np.uint64) if bits.size else 0)) % (1 << 64)
    return total


def save_checkpoint(params: PolicyParameters, path) -> None:
    items = _checkpoint_tensors(params)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in items:
            encoded = name.encode()
            arr = np.asarray(arr, dtype="<f8")  # keeps 0-d rank
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr).tobytes())
        fh.write(struct.pack("<Q", _checksum(arr for _, arr in items)))


def load_checkpoint(path, obs_dim: int = 30, hidden: int = 64) -> PolicyParameters:
    """Read a checkpoint, validating magic, shapes, and checksum."""
    with open(path, "rb") as fh:
        blob = fh.read()

    def fail(msg):
        raise CheckpointError(f"corrupt checkpoint {path}: {msg}")

    if len(blob) < len(CHECKPOINT_MAGIC) + 8 or blob[:8] != CHECKPOINT_MAGIC:
        fail("bad magic")
    pos = len(CHECKPOINT_MAGIC)
    body_end = len(blob) - 8
    expected = _shapes(obs_dim, hidden)
    found: dict[str, np.ndarray] = {}
    while pos < body_end:
        if pos + 4 > body_end:
            fail("truncated tensor header")
        (name_len,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + name_len + 4 > body_end:
            fail("truncated tensor name")
        name = blob[pos:pos + name_len].decode()
        pos += name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + 4 * rank > body_end:
            fail("truncated dims")
        dims = struct.unpack_from(f"<{rank}I", blob, pos) if rank else ()
        pos += 4 * rank
        count = int(np.prod(dims)) if dims else 1
        if pos + 8 * count > body_end:
            fail(f"truncated values for {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(dims)
        pos += 8 * count
        found[name] = arr.copy()

    (stored_sum,) = struct.unpack_from("<Q", blob, body_end)
    if _checksum(found.values()) != stored_sum:
        fail("checksum mismatch")

    for name, shape in expected.items():
        for key in (name, f"adam_m.{name}", f"adam_v.{name}"):
            if key not in found:
                fail(f"missing tensor {key!r}")
            if found[key].shape != shape:
                raise CheckpointError(
                    f"dimension mismatch for {key!r}: expected {shape}, "
                    f"found {found[key].shape}")
    if "step_count" not in found:
        fail("missing step_count")

    return PolicyParameters(
        obs_dim, hidden,
        {n: found[n] for n in PARAM_NAMES},
        {n: found[f"adam_m.{n}"] for n in PARAM_NAMES},
        {n: found[f"adam_v.{n}"] for n in PARAM_NAMES},
        int(found["step_count"]))
