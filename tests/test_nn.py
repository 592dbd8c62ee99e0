"""Neural engine tests: init, forward/backward, Adam, soft update, checkpoints."""

import pickle
import warnings

import numpy as np
import pytest

from tscbench import nn
from tscbench.nn import (AdamState, LayerSpec, adam_step, backward, forward,
                         he_init, input_gradient, load_checkpoint,
                         save_checkpoint, soft_update)


def small_net(seed=0, batch_norm=False):
    specs = (LayerSpec(8, "elu", batch_norm=batch_norm),
             LayerSpec(8, "tanh", batch_norm=batch_norm),
             LayerSpec(2, "linear"))
    return he_init(specs, 4, seed)


class TestInit:
    def test_biases_zero(self):
        params = small_net()
        for layer in params.layers:
            assert np.all(layer["b"] == 0.0)

    def test_he_variance(self):
        # fan_in=100 -> weight variance 2/100; 1e5 samples within 5%
        params = he_init((LayerSpec(1000, "elu"),), 100, seed=1)
        w = params.layers[0]["w"]
        assert w.size == 100_000
        assert abs(w.var() - 0.02) < 0.05 * 0.02
        assert abs(w.mean()) < 0.001

    def test_same_seed_same_parameters(self):
        a, b = small_net(3), small_net(3)
        assert a.allclose(b)
        assert not small_net(4).allclose(a)

    def test_batch_norm_state(self):
        params = small_net(batch_norm=True)
        layer = params.layers[0]
        assert np.all(layer["gamma"] == 1.0) and np.all(layer["beta"] == 0.0)
        assert np.all(layer["rmean"] == 0.0) and np.all(layer["rvar"] == 1.0)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            LayerSpec(0, "elu")
        with pytest.raises(ValueError):
            LayerSpec(4, "relu")


class TestFlatBuffer:
    def test_arrays_are_views_trainable_first(self):
        params = small_net(batch_norm=True)
        trainable = [v for k, v in params.arrays() if k in nn.TRAINABLE_KEYS]
        stats = [v for k, v in params.arrays() if k not in nn.TRAINABLE_KEYS]
        assert params.n_trainable == sum(v.size for v in trainable)
        assert np.array_equal(
            params.flat,
            np.concatenate([v.ravel() for v in trainable + stats]))
        for _, v in params.arrays():
            assert np.shares_memory(v, params.flat)
        assert [list(layer) for layer in params.layers] == [
            ["w", "b", "gamma", "beta", "rmean", "rvar"]] * 2 + [["w", "b"]]

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_copy_shares_no_memory(self, batch_norm):
        params = small_net(batch_norm=batch_norm)
        params.version = 7
        dup = params.copy()
        assert dup.version == 7 and dup.specs == params.specs
        assert not np.shares_memory(dup.flat, params.flat)
        for (ka, a), (kb, b) in zip(params.arrays(), dup.arrays()):
            assert ka == kb and np.array_equal(a, b)
            assert not np.shares_memory(a, b)
            assert np.shares_memory(b, dup.flat)
        dup.flat += 1.0
        assert np.array_equal(params.flat, small_net(batch_norm=batch_norm).flat)

    def test_pickle_keeps_views(self):
        params = small_net(batch_norm=True)
        back = pickle.loads(pickle.dumps(params))
        assert np.array_equal(back.flat, params.flat)
        for (_, a), (_, b) in zip(params.arrays(), back.arrays()):
            assert np.array_equal(a, b) and np.shares_memory(b, back.flat)


class TestForward:
    def test_zero_weights_zero_output(self):
        params = small_net()
        for layer in params.layers:
            layer["w"][:] = 0.0
        out, _ = forward(params, np.ones(4))
        assert np.all(out == 0.0)

    def test_identity_linear_layer(self):
        params = he_init((LayerSpec(2, "linear"),), 2, 0)
        params.layers[0]["w"][:] = np.eye(2)
        out, _ = forward(params, np.array([1.0, 2.0]))
        assert np.allclose(out, [1.0, 2.0])

    def test_elu_closed_form(self):
        params = he_init((LayerSpec(1, "elu"),), 1, 0)
        params.layers[0]["w"][:] = 1.0
        out, _ = forward(params, np.array([-1.0]))
        assert out[0] == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            forward(small_net(), np.ones(5))

    def test_batch_norm_needs_batch_in_train(self):
        params = small_net(batch_norm=True)
        with pytest.raises(ValueError):
            forward(params, np.ones(4), "train")
        forward(params, np.ones((2, 4)), "train")

    def test_running_stats_update_flag(self):
        params = small_net(batch_norm=True)
        x = np.random.default_rng(0).normal(size=(16, 4))
        before = params.layers[0]["rmean"].copy()
        forward(params, x, "train", update_running=False)
        assert np.array_equal(params.layers[0]["rmean"], before)
        forward(params, x, "train")
        assert not np.array_equal(params.layers[0]["rmean"], before)

    def test_infer_uses_running_stats(self):
        params = small_net(batch_norm=True)
        x = np.ones(4)
        a, _ = forward(params, x, "infer")
        params.layers[0]["rmean"] += 5.0
        b, _ = forward(params, x, "infer")
        assert not np.allclose(a, b)


def finite_difference_check(params, x, mode="infer", l2=0.0, h=1e-5):
    """Max relative error between analytic and central-difference gradients."""
    out, cache = forward(params, x, mode)
    grad_out = np.ones_like(out)  # loss = sum of outputs
    grads = backward(params, cache, grad_out, l2=l2)
    worst = 0.0
    rng = np.random.default_rng(0)
    for layer, glayer in zip(params.layers, grads.layers):
        for key in glayer:
            flat = layer[key].ravel()
            idxs = rng.choice(flat.size, size=min(10, flat.size),
                              replace=False)
            for i in idxs:
                orig = flat[i]
                flat[i] = orig + h
                up, _ = forward(params, x, mode)
                flat[i] = orig - h
                dn, _ = forward(params, x, mode)
                flat[i] = orig
                num = (up.sum() - dn.sum()) / (2 * h)
                if l2 and key == "w":
                    num += l2 * orig
                ana = glayer[key].ravel()[i]
                denom = max(abs(num), abs(ana), 1e-8)
                worst = max(worst, abs(num - ana) / denom)
    return worst


class TestBackward:
    def test_gradient_oracle_plain(self):
        params = small_net(seed=5)
        x = np.random.default_rng(1).normal(size=(4, 4))
        assert finite_difference_check(params, x) <= 1e-4

    def test_gradient_oracle_batch_norm_train(self):
        params = small_net(seed=6, batch_norm=True)
        x = np.random.default_rng(2).normal(size=(8, 4))
        # freeze running stats during the check: use update_running=False
        out, cache = forward(params, x, "train", update_running=False)
        grads = backward(params, cache, np.ones_like(out))
        h = 1e-5
        worst = 0.0
        for li, layer in enumerate(params.layers):
            flat = layer["w"].ravel()
            for i in range(0, flat.size, max(1, flat.size // 8)):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = forward(params, x, "train", update_running=False)
                flat[i] = orig - h
                dn, _ = forward(params, x, "train", update_running=False)
                flat[i] = orig
                num = (up.sum() - dn.sum()) / (2 * h)
                ana = grads.layers[li]["w"].ravel()[i]
                denom = max(abs(num), abs(ana), 1e-8)
                worst = max(worst, abs(num - ana) / denom)
        assert worst <= 1e-4

    def test_input_gradient(self):
        params = small_net(seed=7)
        x = np.random.default_rng(3).normal(size=4)
        out, cache = forward(params, x)
        grads = backward(params, cache, np.ones_like(out))
        h = 1e-5
        for i in range(4):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            num = (forward(params, xp)[0].sum()
                   - forward(params, xm)[0].sum()) / (2 * h)
            ana = grads.wrt_input[i]
            assert abs(num - ana) / max(abs(num), 1e-8) <= 1e-4

    def test_zero_grad_out(self):
        params = small_net()
        x = np.ones((2, 4))
        out, cache = forward(params, x)
        grads = backward(params, cache, np.zeros_like(out))
        for g in grads.layers:
            for v in g.values():
                assert np.all(v == 0.0)

    def test_l2_term(self):
        params = small_net()
        x = np.ones((2, 4))
        out, cache = forward(params, x)
        lam = 0.01
        g0 = backward(params, cache, np.zeros_like(out), l2=lam)
        for layer, g in zip(params.layers, g0.layers):
            assert np.allclose(g["w"], lam * layer["w"])
            assert np.all(g["b"] == 0.0)


def reference_adam(layers, glayers, state, lr=1e-4, b1=0.9, b2=0.999,
                   eps=1e-8):
    """Per-array Adam over a list of dicts, as the flat update must match."""
    state["step"] += 1
    bc1 = 1.0 - b1 ** state["step"]
    bc2 = 1.0 - b2 ** state["step"]
    for layer, g, m, v in zip(layers, glayers, state["m"], state["v"]):
        for key, gval in g.items():
            m[key] = b1 * m[key] + (1.0 - b1) * gval
            v[key] = b2 * v[key] + (1.0 - b2) * gval * gval
            mhat = m[key] / bc1
            vhat = v[key] / bc2
            layer[key] = layer[key] - lr * mhat / (np.sqrt(vhat) + eps)


class TestAdam:
    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_bit_equal_to_per_array_reference(self, batch_norm):
        params = small_net(seed=4, batch_norm=batch_norm)
        adam = AdamState(params, lr=1e-3)
        ref = [{k: v.copy() for k, v in layer.items()
                if k in nn.TRAINABLE_KEYS} for layer in params.layers]
        state = {"step": 0,
                 "m": [{k: np.zeros_like(v) for k, v in layer.items()}
                       for layer in ref],
                 "v": [{k: np.zeros_like(v) for k, v in layer.items()}
                       for layer in ref]}
        rng = np.random.default_rng(0)
        for step in range(50):
            out, cache = forward(params, rng.normal(size=(6, 4)), "train")
            grads = backward(params, cache, rng.normal(size=out.shape))
            reference_adam(ref, grads.layers, state, lr=1e-3)
            adam_step(params, grads, adam)
            for layer, want in zip(params.layers, ref):
                for key in want:
                    assert np.array_equal(layer[key], want[key]), (step, key)
        assert params.version == 50

    def test_missing_or_misshapen_gradient(self):
        params = small_net()
        adam = AdamState(params)
        grads = [{k: np.zeros_like(v) for k, v in layer.items()}
                 for layer in params.layers]
        del grads[1]["b"]
        with pytest.raises(ValueError, match="no gradient for b"):
            adam_step(params, grads, adam)
        grads[1]["b"] = np.zeros(3)
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, grads, adam)
        with pytest.raises(ValueError):
            adam_step(params, grads[:2], adam)

    def test_first_step_magnitude(self):
        # bias correction makes the first update approximately lr * sign(g)
        params = he_init((LayerSpec(1, "linear"),), 1, 0)
        params.layers[0]["w"][:] = 0.5
        adam = AdamState(params, lr=1e-3)
        grads = [{"w": np.array([[2.0]]), "b": np.array([0.0])}]
        adam_step(params, grads, adam)
        assert params.layers[0]["w"][0, 0] == pytest.approx(0.5 - 1e-3,
                                                            rel=1e-6)

    def test_zero_gradient_no_change(self):
        params = small_net()
        before = params.copy()
        adam = AdamState(params)
        zeros = [{k: np.zeros_like(v) for k, v in layer.items()
                  if k in nn.TRAINABLE_KEYS}
                 for layer in params.layers]
        adam_step(params, zeros, adam)
        assert params.allclose(before)

    def test_version_bumps(self):
        params = small_net()
        adam = AdamState(params)
        zeros = [{k: np.zeros_like(v) for k, v in layer.items()
                  if k in nn.TRAINABLE_KEYS}
                 for layer in params.layers]
        v0 = params.version
        adam_step(params, zeros, adam)
        assert params.version == v0 + 1


# -- the update formulas the lean forward/backward/Adam must match bit for bit --

def _reference_activate(name, z):
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    return np.where(z >= 0.0, z, np.expm1(z))


def reference_forward(params, x, mode):
    """Forward pass with the plain formulas: h @ w + b, np.where ELU."""
    train = mode == "train"
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    h = x[None, :] if squeeze else x
    entries = []
    for spec, layer in zip(params.specs, params.layers):
        z = h @ layer["w"] + layer["b"]
        xhat = inv_std = None
        if spec.batch_norm:
            if train:
                mu, var = z.mean(axis=0), z.var(axis=0)
                layer["rmean"][...] = (layer["rmean"] * nn.BN_MOMENTUM
                                       + (1.0 - nn.BN_MOMENTUM) * mu)
                layer["rvar"][...] = (layer["rvar"] * nn.BN_MOMENTUM
                                      + (1.0 - nn.BN_MOMENTUM) * var)
            else:
                mu, var = layer["rmean"], layer["rvar"]
            inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
            xhat = (z - mu) * inv_std
            a = layer["gamma"] * xhat + layer["beta"]
        else:
            a = z
        y = _reference_activate(spec.activation, a)
        entries.append((h, a, y, xhat, inv_std))
        h = y
    return (h[0] if squeeze else h), (train, squeeze, entries)


def reference_backward(params, cache, grad_out, l2=0.0):
    """Backward pass with the plain formulas: x.T @ grad, grad.sum.

    Returns (list of per-layer gradient dicts, input gradient)."""
    train, squeeze, entries = cache
    grad = np.asarray(grad_out, dtype=float)
    if squeeze and grad.ndim == 1:
        grad = grad[None, :]
    out = [None] * len(params.layers)
    for idx in range(len(params.layers) - 1, -1, -1):
        spec, layer = params.specs[idx], params.layers[idx]
        x, a, y, xhat, inv_std = entries[idx]
        if spec.activation == "tanh":
            grad = grad * (1.0 - y * y)
        elif spec.activation == "elu":
            grad = grad * np.where(a >= 0.0, 1.0, y + 1.0)
        g = {}
        if spec.batch_norm:
            g["gamma"] = (grad * xhat).sum(axis=0)
            g["beta"] = grad.sum(axis=0)
            dxhat = grad * layer["gamma"]
            if train:
                n = grad.shape[0]
                grad = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                        - xhat * (dxhat * xhat).sum(axis=0))
            else:
                grad = dxhat * inv_std
        g["w"] = x.T @ grad
        g["b"] = grad.sum(axis=0)
        if l2:
            g["w"] = g["w"] + l2 * layer["w"]
        grad = grad @ layer["w"].T
        out[idx] = g
    return out, (grad[0] if squeeze else grad)


def value_net(seed=0):
    """The DQN shape: two ELU layers of 3x the input width, linear out."""
    specs = (LayerSpec(33, "elu"), LayerSpec(33, "elu"),
             LayerSpec(4, "linear"))
    return he_init(specs, 11, seed)


def actor_net(seed=0):
    """The DDPG actor shape: two batch-norm ELU layers, one tanh output."""
    specs = (LayerSpec(12, "elu", batch_norm=True),
             LayerSpec(12, "elu", batch_norm=True), LayerSpec(1, "tanh"))
    return he_init(specs, 4, seed)


class TestLeanUpdate:
    NETS = {"plain": (value_net, 32), "batch_norm": (actor_net, 8),
            "mixed": (lambda seed: small_net(seed, batch_norm=True), 6)}

    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("net", sorted(NETS))
    def test_fifty_adam_steps_bit_equal_to_reference(self, net, l2):
        make, batch = self.NETS[net]
        lean = make(3)
        ref = lean.copy()        # reference formulas, gathered into Adam
        default = lean.copy()    # lean formulas without into=
        adams = [AdamState(p, lr=1e-3) for p in (lean, ref, default)]
        rng = np.random.default_rng(1)
        width = lean.input_width
        for step in range(50):
            x = rng.normal(size=(batch, width)) * 3.0
            row = rng.normal(size=width) * 3.0
            got, _ = forward(lean, row, "infer")
            want, _ = reference_forward(ref, row, "infer")
            assert np.array_equal(got, want), step

            out, cache = forward(lean, x, "train")
            rout, rcache = reference_forward(ref, x, "train")
            dout, dcache = forward(default, x, "train")
            assert np.array_equal(out, rout) and np.array_equal(out, dout)
            grad_out = rng.normal(size=out.shape)

            grads = backward(lean, cache, grad_out, l2=l2, into=adams[0])
            assert grads.wrt_input is None
            rgrads, rinput = reference_backward(ref, rcache, grad_out, l2=l2)
            dgrads = backward(default, dcache, grad_out, l2=l2)
            assert np.array_equal(dgrads.wrt_input, rinput), step
            assert np.array_equal(input_gradient(lean, cache, grad_out),
                                  rinput), step
            for g, rg in zip(dgrads.layers, rgrads):
                assert sorted(g) == sorted(rg)
                for key in rg:
                    assert np.array_equal(g[key], rg[key]), (step, key)

            adam_step(lean, grads, adams[0])
            adam_step(ref, rgrads, adams[1])       # list of dicts
            adam_step(default, dgrads, adams[2])   # Gradients of new arrays
            assert np.array_equal(lean.flat, ref.flat), step
            assert np.array_equal(default.flat, ref.flat), step
        assert lean.version == ref.version == default.version == 50

    def test_into_writes_the_optimizer_buffer(self):
        params = value_net()
        adam = AdamState(params)
        out, cache = forward(params, np.ones((3, 11)), "train")
        grads = backward(params, cache, np.ones_like(out), into=adam)
        assert grads.wrt_input is None
        for g, views in zip(grads.layers, adam._grad_views):
            for key, view in views.items():
                assert g[key] is view
        assert np.any(adam._grad != 0.0)

    def test_default_path_returns_input_gradient(self):
        params = value_net()
        x = np.ones(11)
        out, cache = forward(params, x)
        grads = backward(params, cache, np.ones_like(out))
        assert grads.wrt_input.shape == (11,)
        _, want = reference_backward(params, reference_forward(
            params, x, "infer")[1], np.ones_like(out))
        assert np.array_equal(grads.wrt_input, want)
        assert np.array_equal(input_gradient(params, cache,
                                             np.ones_like(out)), want)

    def test_into_a_mismatched_optimizer(self):
        params = value_net()
        other = AdamState(he_init((LayerSpec(4, "linear"),), 11, 0))
        out, cache = forward(params, np.ones((2, 11)), "train")
        with pytest.raises(ValueError, match="does not match"):
            backward(params, cache, np.ones_like(out), into=other)

    def test_huge_pre_activations_do_not_warn(self):
        # expm1 overflows above ~709; ELU's positive side must not call it
        params = he_init((LayerSpec(3, "elu"), LayerSpec(2, "elu")), 2, 0)
        params.layers[0]["w"][...] = [[1.0, -1.0, 2.0], [0.0, 0.0, 0.0]]
        params.layers[1]["w"][...] = 1.0
        x = np.array([[800.0, 1.0], [1e300, -2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, cache = forward(params, x, "train")
            grads = backward(params, cache, np.ones_like(out))
        assert out[0].tolist() == [2399.0, 2399.0]
        assert (out[1] > 1e300).all()
        assert all(np.isfinite(g["w"]).all() for g in grads.layers)


class TestSoftUpdate:
    def test_scalar_oracle(self):
        target = he_init((LayerSpec(1, "linear"),), 1, 0)
        online = target.copy()
        target.layers[0]["w"][:] = 0.0
        online.layers[0]["w"][:] = 1.0
        soft_update(target, online, 0.01)
        assert target.layers[0]["w"][0, 0] == pytest.approx(0.01)

    def test_geometric_contraction(self):
        target = small_net(seed=1, batch_norm=True)
        online = small_net(seed=2, batch_norm=True)
        tau = 0.01
        diff0 = {i: {k: online.layers[i][k] - target.layers[i][k]
                     for k in target.layers[i]}
                 for i in range(len(target.layers))}
        k = 25
        for _ in range(k):
            soft_update(target, online, tau)
        for i, layer in enumerate(target.layers):
            for key in layer:
                expect = online.layers[i][key] - (1 - tau) ** k * diff0[i][key]
                assert np.allclose(layer[key], expect, atol=1e-9, rtol=0)

    def test_tau_one_copies(self):
        target, online = small_net(1), small_net(2)
        soft_update(target, online, 1.0)
        assert target.allclose(online)

    def test_tau_zero_no_change(self):
        target, online = small_net(1), small_net(2)
        before = target.copy()
        soft_update(target, online, 0.0)
        assert target.allclose(before)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            soft_update(small_net(1), small_net(2), 1.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            soft_update(small_net(1), small_net(2, batch_norm=True), 0.5)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        a = small_net(seed=9, batch_norm=True)
        a.version = 1234
        b = small_net(seed=10)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), {"actor": a, "critic": b})
        loaded = load_checkpoint(str(path))
        assert set(loaded) == {"actor", "critic"}
        for orig, back in ((a, loaded["actor"]), (b, loaded["critic"])):
            assert back.version == orig.version
            assert back.specs == orig.specs
            for (ka, va), (kb, vb) in zip(orig.arrays(), back.arrays()):
                assert ka == kb
                assert np.array_equal(va, vb)  # bit-exact

    def test_save_load_save_same_bytes(self, tmp_path):
        named = {"actor": small_net(seed=9, batch_norm=True),
                 "critic": small_net(seed=10)}
        named["actor"].version = 77
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(str(first), named)
        save_checkpoint(str(second), load_checkpoint(str(first)))
        assert first.read_bytes() == second.read_bytes()

    def saved(self, tmp_path):
        """A one-network checkpoint, its bytes, the header length and the
        offset where the first layer's arrays end."""
        params = small_net(seed=9)
        path = tmp_path / "net.ckpt"
        save_checkpoint(str(path), {"actor": params})
        data = path.read_bytes()
        header = len(data) - 8 * sum(v.size for _, v in params.arrays())
        layer_end = header + 8 * sum(v.size
                                     for v in params.layers[0].values())
        return path, data, header, layer_end

    def test_truncated_raises_naming_file(self, tmp_path):
        path, data, header, layer_end = self.saved(tmp_path)
        cuts = {"magic": 5, "count": 10, "header": header - 3,
                "header end": header, "in array": header + 13,
                "in array, whole floats": header + 16,
                "layer boundary": layer_end, "last byte": len(data) - 1}
        for where, cut in cuts.items():
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError) as exc:
                load_checkpoint(str(path))
            assert str(path) in str(exc.value), where

    def test_bad_activation_code(self, tmp_path):
        path, data, _, _ = self.saved(tmp_path)
        data = bytearray(data)
        # magic, count, name length, "actor", header fields, first width
        data[8 + 4 + 2 + 5 + 16 + 4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="activation"):
            load_checkpoint(str(path))

    def test_trailing_bytes_rejected(self, tmp_path):
        path, data, _, _ = self.saved(tmp_path)
        for junk in (b"\x00", b"junk", b"\x00" * 8):
            path.write_bytes(data + junk)
            with pytest.raises(ValueError, match="trailing"):
                load_checkpoint(str(path))
        path.write_bytes(data)
        load_checkpoint(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
