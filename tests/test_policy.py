import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sscirl import policy as pol
from sscirl.policy import (CheckpointError, PolicyError, adam_step, backward,
                           forward, grad_weighted_logprob, init_params,
                           load_checkpoint, log_prob, save_checkpoint)


def zeroed_params(obs_dim=30, hidden=64):
    params = init_params(obs_dim, hidden, seed=0)
    params.theta[:] = 0.0
    return params


def flat(tensors):
    """Named tensors concatenated in PARAM_NAMES order: the layout of theta."""
    return np.concatenate([np.ravel(tensors[name]) for name in pol.PARAM_NAMES])


def zero_grads(params):
    return {name: np.zeros_like(t) for name, t in params.tensors.items()}


def random_obs(rng, n=30):
    return rng.standard_normal(n)


def reference_forward(params, obs):
    """Independent re-implementation of the forward arithmetic, written
    against the equations rather than the production code."""
    o = np.asarray(obs, dtype=float)
    mu_o = sum(o) / len(o)
    var_o = sum((x - mu_o) ** 2 for x in o) / len(o)
    normed = [(x - mu_o) / math.sqrt(var_o + 1e-5) for x in o]
    t = params.tensors
    ln = [t["ln_gain"][i] * normed[i] + t["ln_bias"][i] for i in range(len(o))]
    h1 = [max(0.0, sum(t["w1"][j][i] * ln[i] for i in range(len(ln))) + t["b1"][j])
          for j in range(params.hidden)]
    h2 = [max(0.0, sum(t["w2"][j][i] * h1[i] for i in range(len(h1))) + t["b2"][j])
          for j in range(params.hidden)]
    mu = sum(t["w3_mu"][i] * h2[i] for i in range(len(h2))) + float(t["b3_mu"])
    raw = sum(t["w3_var"][i] * h2[i] for i in range(len(h2))) + float(t["b3_var"])
    var = math.log(1.0 + math.exp(raw)) + 1e-6
    return mu, var


class TestParameters:
    def test_tensors_cannot_be_rebound(self):
        params = init_params(seed=0)
        with pytest.raises(TypeError):
            params.tensors["b3_mu"] = np.array(4.0)
        with pytest.raises(AttributeError):
            params.theta = np.zeros_like(params.theta)

    def test_write_through_a_view_changes_theta(self):
        params = zeroed_params()
        params.tensors["b3_mu"][...] = 4.0
        params.tensors["w1"][2, 3] = 7.0
        assert sorted(params.theta[params.theta != 0.0]) == [4.0, 7.0]
        assert np.array_equal(params.theta, flat(params.tensors))
        assert all(np.shares_memory(t, params.theta) for t in params.tensors.values())
        assert forward(params, np.arange(30.0)).mu == 4.0

    def test_copy_is_independent(self):
        params = init_params(seed=0)
        before = [a.copy() for a in (params.theta, params.m, params.v)]
        twin = params.copy()
        twin.tensors["w2"][...] += 1.0
        np.atleast_1d(twin.tensors["b3_var"]).ravel()[0] = 5.0
        twin.m[:] = 1.0
        twin.v[:] = 1.0
        for mine, old in zip((params.theta, params.m, params.v), before):
            assert np.array_equal(mine, old)
        assert np.array_equal(twin.theta, flat(twin.tensors))
        assert not np.shares_memory(twin.theta, params.theta)


class TestForward:
    def test_zero_network(self):
        params = zeroed_params()
        out = forward(params, np.random.default_rng(0).standard_normal(30))
        assert out.mu == 0.0
        assert out.var == pytest.approx(math.log(2.0) + 1e-6)

    def test_layernorm_shift_scale_invariance(self):
        rng = np.random.default_rng(1)
        params = init_params(seed=3)
        obs = 2.0 * random_obs(rng)
        base = forward(params, obs)
        shifted = forward(params, 1.5 * obs + 3.0)
        # exact up to the normalization epsilon term
        assert shifted.mu == pytest.approx(base.mu, rel=2e-6, abs=1e-9)
        assert shifted.var == pytest.approx(base.var, rel=2e-6)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(2)
        for seed in range(5):
            params = init_params(seed=seed)
            obs = random_obs(rng)
            out = forward(params, obs)
            mu_ref, var_ref = reference_forward(params, obs)
            assert out.mu == pytest.approx(mu_ref, abs=1e-12)
            assert out.var == pytest.approx(var_ref, abs=1e-12)

    def test_batch_rows_match_independent_reimplementation(self):
        rng = np.random.default_rng(30)
        for seed in range(3):
            params = init_params(seed=seed)
            rows = rng.standard_normal((8, 30))
            out = forward(params, rows)
            assert out.mu.shape == out.var.shape == (8,)
            for j, obs in enumerate(rows):
                mu_ref, var_ref = reference_forward(params, obs)
                assert out.mu[j] == pytest.approx(mu_ref, abs=1e-12)
                assert out.var[j] == pytest.approx(var_ref, abs=1e-12)

    def test_variance_always_positive(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            params = init_params(seed=seed)
            # push the variance head hard negative
            params.tensors["b3_var"][...] = -50.0
            assert forward(params, random_obs(rng)).var > 0

    def test_constant_observation_is_not_an_error(self):
        params = init_params(seed=0)
        out = forward(params, np.full(30, 0.2))
        assert math.isfinite(out.mu) and out.var > 0

    def test_nonfinite_observation_rejected(self):
        params = init_params(seed=0)
        obs = np.zeros(30)
        obs[4] = np.inf
        with pytest.raises(PolicyError):
            forward(params, obs)

    def test_wrong_length_rejected(self):
        with pytest.raises(PolicyError):
            forward(init_params(seed=0), np.zeros(29))
        for shape in ((8, 29), (0, 30), (2, 8, 30)):
            with pytest.raises(PolicyError):
                forward(init_params(seed=0), np.zeros(shape))

    @pytest.mark.parametrize("shape", [(30,), (8, 30)])
    def test_overflowing_output_rejected_without_warnings(self, shape):
        # finite weights so large that the layers overflow: no mean reaches
        # the caller as inf or NaN, and numpy's overflow warnings stay quiet
        params = init_params(seed=0)
        params.theta[...] *= 1e100
        assert np.isfinite(params.theta).all()
        obs = random_obs(np.random.default_rng(4), math.prod(shape))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PolicyError, match="non-finite policy output"):
                forward(params, obs.reshape(shape))


class TestLogProb:
    def test_at_mean(self):
        params = init_params(seed=12)
        obs = random_obs(np.random.default_rng(13))
        out = forward(params, obs)
        assert log_prob(params, obs, out.mu) == pytest.approx(
            -0.5 * math.log(2 * math.pi * out.var))

    def test_one_sigma_point(self):
        params = init_params(seed=12)
        obs = random_obs(np.random.default_rng(13))
        out = forward(params, obs)
        a = out.mu + math.sqrt(out.var)
        assert log_prob(params, obs, a) == pytest.approx(
            -0.5 * (1.0 + math.log(2 * math.pi * out.var)))

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(14)
        for seed in range(5):
            params = init_params(seed=seed)
            obs = random_obs(rng)
            a = float(rng.standard_normal())
            mu_ref, var_ref = reference_forward(params, obs)
            expected = -0.5 * ((a - mu_ref) ** 2 / var_ref
                               + math.log(2 * math.pi * var_ref))
            assert log_prob(params, obs, a) == pytest.approx(expected, abs=1e-12)


def finite_difference_check(params, batch, h=1e-6,
                            rel_tol=1e-5, abs_tol=1e-8, coords_per_tensor=None,
                            rng=None):
    """Compare every (or a sampled subset of) analytic partial against a
    central difference of (1/n) sum_j weight_j * log_prob(a_j | obs_j),
    each term from its own one-observation forward pass."""
    grads = grad_weighted_logprob(params, batch)

    def objective():
        return sum(w * log_prob(params, obs, a) for obs, a, w in batch) / len(batch)

    for name, tensor in params.tensors.items():
        flat = tensor.reshape(-1)
        gflat = grads[name].reshape(-1)
        idx = range(flat.size)
        if coords_per_tensor is not None and flat.size > coords_per_tensor:
            idx = rng.choice(flat.size, size=coords_per_tensor, replace=False)
        for i in idx:
            orig = flat[i]
            flat[i] = orig + h
            up = objective()
            flat[i] = orig - h
            down = objective()
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            analytic = gflat[i]
            if abs(numeric) < abs_tol and abs(analytic) < abs_tol:
                continue
            assert abs(analytic - numeric) <= rel_tol * max(abs(numeric), abs(analytic)), \
                f"{name}[{i}]: analytic {analytic} vs numeric {numeric}"


class TestGradients:
    def test_zero_weights_zero_gradient(self):
        params = init_params(seed=15)
        rng = np.random.default_rng(16)
        batch = [(random_obs(rng), 0.3, 0.0) for _ in range(4)]
        grads = grad_weighted_logprob(params, batch)
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_finite_difference_single_sample(self):
        rng = np.random.default_rng(17)
        params = init_params(seed=18)
        obs = random_obs(rng)
        finite_difference_check(params, [(obs, 0.8, -2.5)],
                                coords_per_tensor=40, rng=rng)

    def test_finite_difference_batch_of_eight(self):
        # the tolerances of acceptance criterion 2 (1e-5 rel / 1e-8 abs)
        rng = np.random.default_rng(31)
        params = init_params(seed=32)
        batch = [(random_obs(rng), float(rng.normal(scale=2.0)), float(rng.normal()))
                 for _ in range(8)]
        finite_difference_check(params, batch, rel_tol=1e-5, abs_tol=1e-8,
                                coords_per_tensor=40, rng=rng)

    def test_batch_is_mean_of_singletons(self):
        rng = np.random.default_rng(19)
        params = init_params(seed=20)
        e1 = (random_obs(rng), 0.5, -1.0)
        e2 = (random_obs(rng), 1.5, -3.0)
        both = grad_weighted_logprob(params, [e1, e2])
        g1 = grad_weighted_logprob(params, [e1])
        g2 = grad_weighted_logprob(params, [e2])
        for name in both:
            mean = (g1[name] + g2[name]) / 2.0
            assert np.max(np.abs(both[name] - mean)) <= 1e-12 * max(
                1.0, np.max(np.abs(mean)))

    def test_empty_batch_rejected(self):
        with pytest.raises(PolicyError):
            grad_weighted_logprob(init_params(seed=0), [])

    def test_backward_of_the_forward_pass(self):
        # backward reads the activations of the pass that drew the actions
        rng = np.random.default_rng(36)
        params = init_params(seed=37)
        rows = rng.standard_normal((5, 30))
        actions, weights = rng.normal(size=5), rng.normal(size=5)
        out = forward(params, rows)
        grad = backward(params, out, actions, weights)
        named = grad_weighted_logprob(params, list(zip(rows, actions, weights)))
        assert grad.shape == params.theta.shape
        assert np.array_equal(grad, flat(named))
        for a, w in ((actions, weights[:4]), (actions[:1], weights),
                     (actions[:4], weights[:4])):
            with pytest.raises(PolicyError, match="rows"):
                backward(params, out, a, w)

    def test_nonfinite_weight_rejected(self):
        params = init_params(seed=0)
        obs = random_obs(np.random.default_rng(0))
        with pytest.raises(PolicyError):
            grad_weighted_logprob(params, [(obs, 0.0, math.nan)])


def reference_adam_step(state, grads, lr, beta1=0.9, beta2=0.999):
    """Ascent Adam written tensor by tensor, the form of the equations.
    state is (step_count, {name: (tensor, m, v)})."""
    step_count, tensors = state
    step_count += 1
    bc1 = 1.0 - beta1 ** step_count
    bc2 = 1.0 - beta2 ** step_count
    new = {}
    for name in pol.PARAM_NAMES:
        tensor, m, v = tensors[name]
        g = grads[name]
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        new[name] = (tensor + lr * (m / bc1) / (np.sqrt(v / bc2) + pol.ADAM_EPS), m, v)
    return step_count, new


class TestAdam:
    def test_matches_per_tensor_reference_bit_for_bit(self):
        rng = np.random.default_rng(33)
        params = init_params(seed=34)
        ref = (0, {name: (t.copy(), np.zeros_like(t), np.zeros_like(t))
                   for name, t in params.tensors.items()})
        for _ in range(5):
            grads = {name: rng.standard_normal(t.shape) * 10.0 ** rng.integers(-6, 3)
                     for name, t in params.tensors.items()}
            params = adam_step(params, flat(grads), lr=1e-3)
            ref = reference_adam_step(ref, grads, lr=1e-3)
            assert params.step_count == ref[0]
            for i, mine in enumerate((params.theta, params.m, params.v)):
                theirs = flat({name: parts[i] for name, parts in ref[1].items()})
                assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("name", ["ln_gain", "w2", "b3_mu", "b3_var"])
    def test_nonfinite_update_names_the_tensor(self, name):
        params = init_params(seed=35)
        grads = zero_grads(params)
        grads[name].reshape(-1)[-1] = np.nan
        with pytest.raises(PolicyError, match=repr(name)):
            adam_step(params, flat(grads), lr=1e-3)

    def test_gradient_must_be_laid_out_as_theta(self):
        params = init_params(seed=35)
        for grad in (np.zeros(params.theta.size - 1), zero_grads(params),
                     np.zeros((1, params.theta.size))):
            with pytest.raises(PolicyError, match="gradient shape"):
                adam_step(params, grad, lr=1e-3)

    def test_zero_gradient_only_advances_step_count(self):
        params = init_params(seed=21)
        out = adam_step(params, np.zeros_like(params.theta), lr=1e-3)
        assert out.step_count == params.step_count + 1
        assert np.array_equal(out.theta, params.theta)

    def test_first_step_magnitude_is_lr(self):
        # bias-corrected first step: |delta| = lr * |g| / (|g| + eps') ~ lr
        params = zeroed_params()
        grads = zero_grads(params)
        grads["b3_mu"] = np.array(0.37)
        out = adam_step(params, flat(grads), lr=1e-3)
        delta = float(out.tensors["b3_mu"]) - float(params.tensors["b3_mu"])
        assert delta == pytest.approx(1e-3, rel=1e-6)
        assert math.copysign(1.0, delta) == math.copysign(1.0, 0.37)

    def test_repeated_gradient_moves_monotonically(self):
        params = zeroed_params()
        grads = zero_grads(params)
        grads["b3_mu"] = np.array(-1.2)
        values = [float(params.tensors["b3_mu"])]
        for _ in range(5):
            params = adam_step(params, flat(grads), lr=1e-2)
            values.append(float(params.tensors["b3_mu"]))
        assert all(a > b for a, b in zip(values, values[1:]))  # ascent along g<0

    def test_step_leaves_its_input_unchanged(self):
        # the trainer keeps its best epoch's parameters by reference: no
        # later step may write into them, nor into the gradient
        rng = np.random.default_rng(23)
        params = init_params(seed=23)
        params = pol.PolicyParameters(params.obs_dim, params.hidden, params.theta,
                                      rng.standard_normal(params.theta.size),
                                      rng.random(params.theta.size), 3)
        grad = rng.standard_normal(params.theta.size)
        before = [a.copy() for a in (params.theta, params.m, params.v, grad)]
        out = adam_step(params, grad, lr=1e-2)
        for mine, old in zip((params.theta, params.m, params.v, grad), before):
            assert mine.tobytes() == old.tobytes()
        assert params.step_count == 3 and out.step_count == 4
        for new in (out.theta, out.m, out.v):
            assert not any(np.shares_memory(new, old)
                           for old in (params.theta, params.m, params.v, grad))

    def test_rejects_nonfinite_update_leaving_params_unchanged(self):
        params = init_params(seed=22)
        before = [a.copy() for a in (params.theta, params.m, params.v)]
        grads = zero_grads(params)
        grads["w1"][0, 0] = np.inf
        with pytest.raises(PolicyError):
            adam_step(params, flat(grads), lr=1e-3)
        for mine, old in zip((params.theta, params.m, params.v), before):
            assert np.array_equal(mine, old)


# sha256 of the checkpoint files, pinned when the tensors were still stored
# as separate arrays: the on-disk format must not move
INIT_CKPT_SHA256 = "f663da5f560c61170b218381a22aff687706a4f5a1f0646579c8ab269528344c"
STEP_CKPT_SHA256 = "3352ca549087760aa093541c29539d3893ee49790626d9298fdb30da6b91172b"


def write_per_tensor(params, path):
    """save_checkpoint as it was when it wrote each field of each tensor in
    a write call of its own and summed the tensors one by one."""
    items = pol._checkpoint_tensors(params)
    with open(path, "wb") as fh:
        fh.write(pol.CHECKPOINT_MAGIC)
        for name, arr in items:
            encoded = name.encode()
            arr = np.asarray(arr, dtype="<f8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr).tobytes())
        total = 0
        for _, arr in items:
            bits = np.ascontiguousarray(arr, dtype="<f8").view("<u8")
            total = (total + int(bits.sum(dtype=np.uint64) if bits.size else 0)) % (1 << 64)
        fh.write(struct.pack("<Q", total))


class TestCheckpoints:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_file_is_a_checkpoint_error(self, tmp_path, kind):
        path = tmp_path / "best.ckpt"
        if kind == "directory":
            path.mkdir()
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    # each example overwrites the files of the last
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(30, 64), (5, 3), (1, 1)]),
           step_count=st.integers(1, 2**40), n_inf=st.integers(1, 3))
    def test_one_write_equals_per_tensor_writes(self, tmp_path, seed, shape, step_count,
                                                n_inf):
        # values of every scale and sign, so the sum wraps mod 2^64, and an
        # inf in Adam's v, as adam_step can leave it
        rng = np.random.default_rng(seed)
        params = init_params(*shape, seed=seed)
        size = params.theta.size
        theta, m, v = (rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
                       for _ in range(3))
        v = np.abs(v)
        v[rng.integers(0, size, n_inf)] = np.inf
        params = pol.PolicyParameters(*shape, theta, m, v, step_count)
        save_checkpoint(params, tmp_path / "one.ckpt")
        write_per_tensor(params, tmp_path / "many.ckpt")
        assert (tmp_path / "one.ckpt").read_bytes() == (tmp_path / "many.ckpt").read_bytes()
        back = load_checkpoint(tmp_path / "one.ckpt", *shape)
        for mine, theirs in ((back.theta, theta), (back.m, m), (back.v, v)):
            assert mine.tobytes() == theirs.tobytes()
        assert back.step_count == step_count

    def test_bytes_pinned(self, tmp_path):
        params = init_params(seed=0)
        save_checkpoint(params, tmp_path / "init.ckpt")
        stepped = adam_step(params, np.full_like(params.theta, 0.01), lr=1e-3)
        save_checkpoint(stepped, tmp_path / "step.ckpt")
        for name, expected in (("init.ckpt", INIT_CKPT_SHA256),
                               ("step.ckpt", STEP_CKPT_SHA256)):
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected

    def test_roundtrip_bit_exact(self, tmp_path):
        params = init_params(seed=23)
        params = adam_step(params, np.full_like(params.theta, 0.01), 1e-3)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        back = load_checkpoint(path)
        assert back.step_count == params.step_count
        for mine, theirs in ((back.theta, params.theta), (back.m, params.m),
                             (back.v, params.v)):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(back.theta, flat(back.tensors))

    def test_dimension_mismatch(self, tmp_path):
        params = init_params(obs_dim=30, hidden=32, seed=24)
        path = tmp_path / "small.ckpt"
        save_checkpoint(params, path)
        with pytest.raises(CheckpointError, match="dimension mismatch"):
            load_checkpoint(path, obs_dim=30, hidden=64)

    def test_truncated_file(self, tmp_path):
        params = init_params(seed=25)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_corrupted_values_fail_checksum(self, tmp_path):
        params = init_params(seed=26)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 64)
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_name_that_is_not_utf8(self, tmp_path):
        # byte 12 is the first byte of the first tensor's name
        params = init_params(seed=27)
        path = tmp_path / "p.ckpt"
        save_checkpoint(params, path)
        blob = bytearray(path.read_bytes())
        blob[12] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(path)

    @staticmethod
    def save_edited(monkeypatch, path, name, edit):
        """A checkpoint with a valid checksum whose tensor name is edit(tensor)."""
        real = pol._checkpoint_tensors
        monkeypatch.setattr(pol, "_checkpoint_tensors", lambda params: [
            (key, edit(arr) if key == name else arr) for key, arr in real(params)])
        params = init_params(seed=28)
        save_checkpoint(adam_step(params, np.full_like(params.theta, 0.01), lr=1e-3), path)

    @pytest.mark.parametrize("name, edit, match", [
        ("step_count", lambda a: np.array(np.nan), "step_count nan is not"),
        ("step_count", lambda a: np.array(np.inf), "step_count inf is not"),
        ("step_count", lambda a: np.array([1.0]), r"step_count \[1.0\] is not"),
        ("step_count", lambda a: np.array(-3.0), "step_count -3.0 is not"),
        ("step_count", lambda a: np.array(2.5), "step_count 2.5 is not"),
        ("b1", lambda a: np.where(np.arange(a.size) == 3, np.nan, a),
         "non-finite entry in 'b1'"),
        ("w3_var", lambda a: np.where(np.arange(a.size) == 0, -np.inf, a),
         "non-finite entry in 'w3_var'"),
    ], ids=["nan_step", "inf_step", "1d_step", "negative_step", "fractional_step",
            "nan_theta", "inf_theta"])
    def test_checksum_valid_unusable_entry_rejected(self, tmp_path, monkeypatch,
                                                    name, edit, match):
        path = tmp_path / "p.ckpt"
        self.save_edited(monkeypatch, path, name, edit)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_infinite_adam_moment_loads(self, tmp_path, monkeypatch):
        # adam_step can leave v at inf, so the moments are loaded as stored
        path = tmp_path / "p.ckpt"
        self.save_edited(monkeypatch, path, "adam_v.b1", lambda a: np.full(a.shape, np.inf))
        back = load_checkpoint(path)
        assert np.isinf(back.v).sum() == back.tensors["b1"].size
        assert back.step_count == 1

    def test_dims_whose_product_overflows_int64(self, tmp_path):
        # (2**32 - 1)**2 values wrap in int64 arithmetic; exactly, they
        # run past the end of the file
        path = tmp_path / "huge.ckpt"
        path.write_bytes(pol.CHECKPOINT_MAGIC + struct.pack("<I", 2) + b"w1"
                         + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1) + b"\0" * 64)
        with pytest.raises(CheckpointError, match="truncated values for 'w1'"):
            load_checkpoint(path)
