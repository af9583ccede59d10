"""Gaussian MLP policy with hand-derived gradients.

Architecture: LayerNorm on the input, two ReLU hidden layers, a linear
mean head and a Softplus variance head. The learnable tensors live in one
flat vector, theta; each tensor is a named view into it, and Adam's
moments are flat vectors of the same layout. The network works on
batches: forward takes an (n, obs_dim) stack of observations (one
observation is the n = 1 case) and caches its activations, so a training
epoch draws its n actions (a = mu + sqrt(var) * eps) from one forward pass
and backward differentiates the weighted log-probability objective from
that same pass, by explicit reverse-mode matrix products into a flat
gradient. Adam in gradient-ascent form then updates theta elementwise.
No autodiff framework is involved anywhere.
"""

from __future__ import annotations

import functools
import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

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


@dataclass(frozen=True, eq=False)
class PolicyParameters:
    """All learnable tensors as one flat vector theta, with Adam's first
    and second moments m and v laid out the same way.

    tensors maps each name of PARAM_NAMES to its view into theta. The
    mapping is read-only, so rebinding a name raises TypeError, while a
    write into a view (tensors["b3_mu"][...] = x) changes theta."""

    obs_dim: int
    hidden: int
    theta: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int = 0
    tensors: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "tensors", MappingProxyType(
            _views(self.theta, self.obs_dim, self.hidden)))

    def copy(self) -> "PolicyParameters":
        return PolicyParameters(self.obs_dim, self.hidden, self.theta.copy(),
                                self.m.copy(), self.v.copy(), self.step_count)


def _shapes(obs_dim: int, hidden: int) -> dict[str, tuple]:
    return {
        "ln_gain": (obs_dim,), "ln_bias": (obs_dim,),
        "w1": (hidden, obs_dim), "b1": (hidden,),
        "w2": (hidden, hidden), "b2": (hidden,),
        "w3_mu": (hidden,), "b3_mu": (),
        "w3_var": (hidden,), "b3_var": (),
    }


@functools.cache
def _spans(obs_dim: int, hidden: int) -> dict[str, slice]:
    """Each tensor of PARAM_NAMES as its span of the flat vector, in that
    order."""
    shapes = _shapes(obs_dim, hidden)
    spans, pos = {}, 0
    for name in PARAM_NAMES:
        spans[name] = slice(pos, pos + math.prod(shapes[name]))
        pos = spans[name].stop
    return spans


def _views(flat: np.ndarray, obs_dim: int, hidden: int) -> dict[str, np.ndarray]:
    """Each tensor of PARAM_NAMES as a view into flat, in that order."""
    shapes = _shapes(obs_dim, hidden)
    return {name: flat[span].reshape(shapes[name])
            for name, span in _spans(obs_dim, hidden).items()}


def _tensor_at(params: PolicyParameters, index: int) -> str:
    """Name of the tensor holding entry index of the flat vector."""
    return next(name for name, span in _spans(params.obs_dim, params.hidden).items()
                if index < span.stop)


def init_params(obs_dim: int = 30, hidden: int = 64,
                seed: int | None = None) -> PolicyParameters:
    """Glorot-uniform weights, zero biases, identity LayerNorm affine."""
    rng = np.random.default_rng(seed)
    size = sum(math.prod(s) for s in _shapes(obs_dim, hidden).values())
    params = PolicyParameters(obs_dim, hidden, np.zeros(size), np.zeros(size),
                              np.zeros(size), 0)
    for name, tensor in params.tensors.items():
        if name.startswith("w"):
            fan_out = tensor.shape[0] if tensor.ndim == 2 else 1
            fan_in = tensor.shape[-1]
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            tensor[...] = rng.uniform(-bound, bound, size=tensor.shape)
        elif name == "ln_gain":
            tensor[...] = 1.0
    return params


@dataclass
class PolicyOutput:
    """Gaussian head outputs plus cached activations for backprop.

    mu and var are floats for one observation and length-n arrays for an
    (n, obs_dim) stack; the cached activations always have n rows."""

    mu: float | np.ndarray
    var: float | np.ndarray
    cache: dict = field(default_factory=dict, repr=False)


def _obs_values(obs) -> np.ndarray:
    values = obs.values if isinstance(obs, Observation) else np.asarray(obs, float)
    if not np.isfinite(values).all():
        raise PolicyError("observation contains non-finite values")
    return values


@np.errstate(over="ignore", invalid="ignore")  # a non-finite output raises
def forward(params: PolicyParameters, obs) -> PolicyOutput:
    """Evaluate mean and variance heads, retaining intermediates.

    obs is one observation (an Observation or a length-obs_dim vector) or
    an (n, obs_dim) array of n of them, evaluated in one pass; one
    observation is evaluated as a stack of one; a non-finite output raises.
    """
    o = _obs_values(obs)
    single = o.ndim == 1
    rows = o[np.newaxis] if single else o
    if rows.ndim != 2 or rows.shape[1] != params.obs_dim or not len(rows):
        raise PolicyError(f"observation shape {o.shape} is neither "
                          f"({params.obs_dim},) nor (n, {params.obs_dim})")
    t = params.tensors

    # one pass of ndarray.mean and ndarray.var's arithmetic: the variance
    # is the mean square of the deviations xhat is scaled from
    n = rows.shape[1]
    dev = rows - np.add.reduce(rows, axis=1, keepdims=True) / n
    var_o = np.add.reduce(np.square(dev), axis=1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(var_o + LN_EPS)
    xhat = dev * inv_std
    ln = t["ln_gain"] * xhat
    ln += t["ln_bias"]

    z1 = ln @ t["w1"].T
    z1 += t["b1"]
    h1 = np.maximum(z1, 0.0)
    z2 = h1 @ t["w2"].T
    z2 += t["b2"]
    h2 = np.maximum(z2, 0.0)

    mu = h2 @ t["w3_mu"]
    mu += t["b3_mu"]
    raw = h2 @ t["w3_var"]
    raw += t["b3_var"]
    # overflow-safe softplus: max(x, 0) + log1p(exp(-|x|))
    var = np.maximum(raw, 0.0)
    var += np.log1p(np.exp(-np.abs(raw)))
    var += VAR_FLOOR
    if single:
        mu, var = float(mu[0]), float(var[0])
    if not np.isfinite((mu, var)).all():
        raise PolicyError("non-finite policy output: the weights overflow the layers")

    cache = {"xhat": xhat, "ln": ln, "z1": z1, "h1": h1, "z2": z2, "h2": h2,
             "raw": raw}
    return PolicyOutput(mu, var, cache)


def gaussian_log_prob(a, mu, var):
    """log N(a; mu, var), for floats or elementwise for arrays."""
    return -0.5 * ((a - mu) ** 2 / var + np.log(2.0 * np.pi * var))


def log_prob(params: PolicyParameters, obs, a: float) -> float:
    out = forward(params, obs)
    return float(gaussian_log_prob(a, out.mu, out.var))


def backward(params: PolicyParameters, out: PolicyOutput, actions,
             weights) -> np.ndarray:
    """Gradient of (1/n) * sum_j w_j * log N(a_j; mu_j, var_j) w.r.t. theta.

    out is forward(params, ...) over n observations; its cache holds every
    activation the backward pass reads. actions and weights have one entry
    per row. The batch is backpropagated with matrix products into one flat
    vector laid out as theta. Raises on a non-finite partial, naming the
    layer it appeared in.
    """
    c = out.cache
    actions = np.asarray(actions, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not actions.shape == weights.shape == (len(c["h2"]),):
        raise PolicyError(f"{actions.shape} actions and {weights.shape} weights "
                          f"for {len(c['h2'])} rows")
    if not np.isfinite(weights).all():
        raise PolicyError(f"non-finite weight {weights[~np.isfinite(weights)][0]}")
    t = params.tensors

    scale = weights / len(weights)
    diff = actions - out.mu
    d_mu = scale * diff / out.var
    d_var = scale * (diff * diff / (2.0 * out.var ** 2) - 0.5 / out.var)
    with np.errstate(over="ignore"):  # exp overflow: sigmoid -> 0, exactly
        d_raw = d_var / (1.0 + np.exp(-c["raw"]))  # softplus' = sigmoid

    d_z2 = d_mu[:, np.newaxis] * t["w3_mu"]  # the outer products
    d_z2 += d_raw[:, np.newaxis] * t["w3_var"]
    d_z2 *= c["z2"] > 0.0
    d_z1 = d_z2 @ t["w2"]
    d_z1 *= c["z1"] > 0.0
    d_ln = d_z1 @ t["w1"]
    grad = np.empty_like(params.theta)
    at = _spans(params.obs_dim, params.hidden)
    np.add.reduce(d_ln * c["xhat"], axis=0, out=grad[at["ln_gain"]])
    np.add.reduce(d_ln, axis=0, out=grad[at["ln_bias"]])
    np.matmul(d_z1.T, c["ln"], out=grad[at["w1"]].reshape(t["w1"].shape))
    np.add.reduce(d_z1, axis=0, out=grad[at["b1"]])
    np.matmul(d_z2.T, c["h1"], out=grad[at["w2"]].reshape(t["w2"].shape))
    np.add.reduce(d_z2, axis=0, out=grad[at["b2"]])
    np.matmul(d_mu, c["h2"], out=grad[at["w3_mu"]])
    grad[at["b3_mu"]] = np.add.reduce(d_mu)
    np.matmul(d_raw, c["h2"], out=grad[at["w3_var"]])
    grad[at["b3_var"]] = np.add.reduce(d_raw)
    finite = np.isfinite(grad)
    if not finite.all():
        raise PolicyError("non-finite gradient in layer "
                          f"{_tensor_at(params, int(np.argmin(finite)))!r}")
    return grad


def grad_weighted_logprob(params: PolicyParameters,
                          batch: list[tuple]) -> dict[str, np.ndarray]:
    """backward over a list of (obs, action, weight) entries, run through
    one forward pass; returns the gradient as named views into it."""
    if not batch:
        raise PolicyError("empty gradient batch")
    observations, actions, weights = zip(*batch)
    try:
        rows = np.array([o.values if isinstance(o, Observation) else o
                         for o in observations], dtype=float)
    except ValueError as exc:
        raise PolicyError(f"observations of unequal shape: {exc}") from None
    if rows.ndim != 2:
        raise PolicyError(f"batch observations stack to shape {rows.shape}")
    grad = backward(params, forward(params, rows), actions, weights)
    return _views(grad, params.obs_dim, params.hidden)


def adam_step(params: PolicyParameters, grad: np.ndarray, lr: float,
              beta1: float = 0.9, beta2: float = 0.999) -> PolicyParameters:
    """Gradient-ascent Adam update (maximizes the objective).

    grad is flat, laid out as theta; the update is elementwise, so each
    entry is what a per-tensor update gives. Returns new parameters; on any
    non-finite update the input is left untouched and an error naming the
    tensor is raised.
    """
    if np.shape(grad) != params.theta.shape:
        raise PolicyError(f"gradient shape {np.shape(grad)} is not "
                          f"{params.theta.shape}")
    step_count = params.step_count + 1
    bc1 = 1.0 - beta1 ** step_count
    bc2 = 1.0 - beta2 ** step_count
    # the arithmetic of beta1 * m + (1 - beta1) * g,
    # beta2 * v + (1 - beta2) * g * g and lr * (m / bc1) / (sqrt(v / bc2) + eps),
    # in that order, with the temporaries kept in the new arrays
    m = params.m * beta1
    tmp = grad * (1.0 - beta1)
    m += tmp
    v = params.v * beta2
    np.multiply(grad, 1.0 - beta2, out=tmp)
    tmp *= grad
    v += tmp
    with np.errstate(invalid="ignore"):  # non-finite handled just below
        update = m / bc1
        update *= lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        update /= tmp
    finite = np.isfinite(update)
    if not finite.all():
        raise PolicyError("non-finite Adam update for "
                          f"{_tensor_at(params, int(np.argmin(finite)))!r}")
    update += params.theta
    return PolicyParameters(params.obs_dim, params.hidden, update, m, v, step_count)


# ---------------------------------------------------------------------------
# checkpoints: versioned binary, little-endian, trailing checksum

def _checkpoint_tensors(params: PolicyParameters) -> list[tuple[str, np.ndarray]]:
    items = []
    for prefix, flat in (("", params.theta), ("adam_m.", params.m),
                         ("adam_v.", params.v)):
        views = _views(flat, params.obs_dim, params.hidden)
        items += [(prefix + n, views[n]) for n in PARAM_NAMES]
    items.append(("step_count", np.array(float(params.step_count))))
    return items


def _checksum(arrays) -> int:
    total = 0
    for arr in arrays:
        bits = np.ascontiguousarray(arr, dtype="<f8").view("<u8")
        total = (total + int(bits.sum(dtype=np.uint64) if bits.size else 0)) % (1 << 64)
    return total


def save_checkpoint(params: PolicyParameters, path) -> None:
    """Write the checkpoint in one call: per tensor, its name, rank, dims
    and values, then the checksum of all values (one sum mod 2^64, as
    _checksum takes it tensor by tensor)."""
    parts, values = [CHECKPOINT_MAGIC], []
    for name, arr in _checkpoint_tensors(params):
        encoded = name.encode()
        arr = np.asarray(arr, dtype="<f8")  # keeps 0-d rank
        parts += [struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded,
                              arr.ndim, *arr.shape), arr.tobytes()]
        values.append(arr.ravel())
    parts.append(struct.pack("<Q", _checksum([np.concatenate(values)])))
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_checkpoint(path, obs_dim: int = 30, hidden: int = 64) -> PolicyParameters:
    """Read a checkpoint, validating magic, shapes, and checksum."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(str(exc)) from exc

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
        try:
            name = blob[pos:pos + name_len].decode()
        except UnicodeDecodeError:
            fail("tensor name is not UTF-8")
        pos += name_len
        (rank,) = struct.unpack_from("<I", blob, pos)
        pos += 4
        if pos + 4 * rank > body_end:
            fail("truncated dims")
        dims = struct.unpack_from(f"<{rank}I", blob, pos) if rank else ()
        pos += 4 * rank
        count = math.prod(dims)
        if pos + 8 * count > body_end:
            fail(f"truncated values for {name!r}")
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=pos).reshape(dims)
        pos += 8 * count
        found[name] = arr

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
        if not np.isfinite(found[name]).all():  # Adam's v may hold inf
            fail(f"non-finite entry in {name!r}")
    if "step_count" not in found:
        fail("missing step_count")
    step_count = found["step_count"]
    if step_count.shape != () or not (0 <= step_count < np.inf and step_count % 1 == 0):
        fail(f"step_count {step_count.tolist()!r} is not a non-negative integer")

    theta, m, v = (np.concatenate([found[prefix + n].ravel() for n in PARAM_NAMES])
                   for prefix in ("", "adam_m.", "adam_v."))
    return PolicyParameters(obs_dim, hidden, theta, m, v, int(step_count))
