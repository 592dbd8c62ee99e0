"""Minimal dense neural-network engine with backpropagation.

Supports exactly what the value/policy networks need: fully connected
layers, optional batch normalization, ELU / tanh / linear activations,
He initialization, Adam, soft target updates and a binary checkpoint
format. All arithmetic is float64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

BN_EPS = 1e-5
BN_MOMENTUM = 0.99  # running-statistics decay
ACTIVATIONS = ("linear", "elu", "tanh")


@dataclass(frozen=True)
class LayerSpec:
    width: int
    activation: str = "linear"
    batch_norm: bool = False

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("layer width must be >= 1")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


class ParameterSet:
    """Weights, biases and batch-norm state for one network."""

    def __init__(self, input_width: int, specs: tuple, layers: list,
                 version: int = 0):
        self.input_width = input_width
        self.specs = tuple(specs)
        self.layers = layers  # list of dicts of float64 arrays
        self.version = version

    def copy(self) -> "ParameterSet":
        layers = [{k: v.copy() for k, v in layer.items()}
                  for layer in self.layers]
        return ParameterSet(self.input_width, self.specs, layers, self.version)

    def arrays(self):
        for layer in self.layers:
            yield from layer.items()

    def allclose(self, other: "ParameterSet", atol: float = 0.0) -> bool:
        return all(np.allclose(a, b, atol=atol, rtol=0.0)
                   for (_, a), (_, b) in zip(self.arrays(), other.arrays()))


TRAINABLE_KEYS = ("w", "b", "gamma", "beta")


def he_init(specs, input_width: int, seed: int) -> ParameterSet:
    """He-normal weights, zero biases, identity batch-norm."""
    if input_width < 1:
        raise ValueError("input_width must be >= 1")
    rng = np.random.default_rng(seed)
    layers = []
    fan_in = input_width
    for spec in specs:
        layer = {
            "w": rng.normal(0.0, np.sqrt(2.0 / fan_in),
                            size=(fan_in, spec.width)),
            "b": np.zeros(spec.width),
        }
        if spec.batch_norm:
            layer["gamma"] = np.ones(spec.width)
            layer["beta"] = np.zeros(spec.width)
            layer["rmean"] = np.zeros(spec.width)
            layer["rvar"] = np.ones(spec.width)
        layers.append(layer)
        fan_in = spec.width
    return ParameterSet(input_width, tuple(specs), layers)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    return np.where(z >= 0.0, z, np.expm1(z))  # elu


def _activate_grad(name: str, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    if name == "linear":
        return np.ones_like(z)
    if name == "tanh":
        return 1.0 - y * y
    return np.where(z >= 0.0, 1.0, y + 1.0)  # elu'


def forward(params: ParameterSet, x: np.ndarray, mode: str = "infer",
            update_running: bool = True):
    """Run the network; returns (output, cache for backward).

    Train mode normalizes with batch statistics (batch size >= 2 required
    where batch norm is enabled) and, unless `update_running` is False,
    refreshes the running statistics.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != params.input_width:
        raise ValueError(f"input width {x.shape[1]} != {params.input_width}")

    cache = {"mode": mode, "layers": [], "squeeze": squeeze}
    h = x
    for spec, layer in zip(params.specs, params.layers):
        z = h @ layer["w"] + layer["b"]
        entry = {"x": h, "z": z}
        if spec.batch_norm:
            if mode == "train":
                if z.shape[0] < 2:
                    raise ValueError("batch norm in train mode needs batch >= 2")
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                if update_running:
                    layer["rmean"] = (BN_MOMENTUM * layer["rmean"]
                                      + (1.0 - BN_MOMENTUM) * mu)
                    layer["rvar"] = (BN_MOMENTUM * layer["rvar"]
                                     + (1.0 - BN_MOMENTUM) * var)
            else:
                mu = layer["rmean"]
                var = layer["rvar"]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mu) * inv_std
            a = layer["gamma"] * xhat + layer["beta"]
            entry.update(mu=mu, inv_std=inv_std, xhat=xhat)
        else:
            a = z
        y = _activate(spec.activation, a)
        entry["a"] = a
        entry["y"] = y
        cache["layers"].append(entry)
        h = y
    out = h[0] if squeeze else h
    return out, cache


class Gradients:
    def __init__(self, layers: list, wrt_input: np.ndarray):
        self.layers = layers
        self.wrt_input = wrt_input


def backward(params: ParameterSet, cache: dict, grad_out: np.ndarray,
             l2: float = 0.0) -> Gradients:
    """Backpropagate; returns per-parameter gradients and the input gradient.

    `l2` adds weight decay lambda*w to every weight gradient.
    """
    grad = np.asarray(grad_out, dtype=float)
    if cache["squeeze"] and grad.ndim == 1:
        grad = grad[None, :]
    mode = cache["mode"]
    out_layers = [None] * len(params.layers)
    for idx in range(len(params.layers) - 1, -1, -1):
        spec = params.specs[idx]
        layer = params.layers[idx]
        entry = cache["layers"][idx]
        grad = grad * _activate_grad(spec.activation, entry["a"], entry["y"])
        g = {}
        if spec.batch_norm:
            xhat = entry["xhat"]
            inv_std = entry["inv_std"]
            g["gamma"] = (grad * xhat).sum(axis=0)
            g["beta"] = grad.sum(axis=0)
            dxhat = grad * layer["gamma"]
            if mode == "train":
                n = grad.shape[0]
                dz = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                      - xhat * (dxhat * xhat).sum(axis=0))
            else:
                dz = dxhat * inv_std
            grad = dz
        g["w"] = entry["x"].T @ grad
        g["b"] = grad.sum(axis=0)
        if l2:
            g["w"] = g["w"] + l2 * layer["w"]
        grad = grad @ layer["w"].T
        out_layers[idx] = g
    wrt_input = grad[0] if cache["squeeze"] else grad
    return Gradients(out_layers, wrt_input)


class AdamState:
    def __init__(self, params: ParameterSet, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = [{k: np.zeros_like(layer[k]) for k in TRAINABLE_KEYS
                   if k in layer} for layer in params.layers]
        self.v = [{k: np.zeros_like(layer[k]) for k in TRAINABLE_KEYS
                   if k in layer} for layer in params.layers]


def adam_step(params: ParameterSet, grads: Gradients | list,
              adam: AdamState) -> ParameterSet:
    """Bias-corrected Adam update, in place; bumps the parameter version."""
    glayers = grads.layers if isinstance(grads, Gradients) else grads
    adam.step += 1
    b1, b2 = adam.beta1, adam.beta2
    bc1 = 1.0 - b1 ** adam.step
    bc2 = 1.0 - b2 ** adam.step
    for layer, g, m, v in zip(params.layers, glayers, adam.m, adam.v):
        for key, gval in g.items():
            if key not in m:
                continue
            if gval.shape != layer[key].shape:
                raise ValueError(f"gradient shape mismatch for {key}")
            m[key] = b1 * m[key] + (1.0 - b1) * gval
            v[key] = b2 * v[key] + (1.0 - b2) * gval * gval
            mhat = m[key] / bc1
            vhat = v[key] / bc2
            layer[key] = layer[key] - adam.lr * mhat / (np.sqrt(vhat) + adam.eps)
    params.version += 1
    return params


def soft_update(target: ParameterSet, online: ParameterSet,
                tau: float) -> ParameterSet:
    """theta' <- (1 - tau) theta' + tau theta, running statistics included."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    for t_layer, o_layer in zip(target.layers, online.layers):
        for key in t_layer:
            if t_layer[key].shape != o_layer[key].shape:
                raise ValueError(f"shape mismatch for {key}")
            t_layer[key] = (1.0 - tau) * t_layer[key] + tau * o_layer[key]
    target.version += 1
    return target


# -- checkpoint format ----------------------------------------------------------

_MAGIC = b"TSCNET1\n"
_LAYER_KEYS = ("w", "b", "gamma", "beta", "rmean", "rvar")


def save_checkpoint(path, named_params: dict) -> None:
    """Write named parameter sets as a versioned binary blob."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(named_params)))
        for name, params in named_params.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<IQI", params.input_width, params.version,
                                 len(params.specs)))
            for spec in params.specs:
                fh.write(struct.pack("<IBB", spec.width,
                                     ACTIVATIONS.index(spec.activation),
                                     int(spec.batch_norm)))
            for layer in params.layers:
                for key in _LAYER_KEYS:
                    if key in layer:
                        arr = np.ascontiguousarray(layer[key], dtype=float)
                        fh.write(arr.tobytes())


def load_checkpoint(path) -> dict:
    """Inverse of save_checkpoint; a short or overlong file is an error."""
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ValueError(f"{path}: checkpoint truncated ({len(data)} "
                             f"bytes, needs at least {pos + n})")
        pos += n
        return data[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(len(_MAGIC)) != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    (count,) = unpack("<I")
    out = {}
    for _ in range(count):
        (nlen,) = unpack("<H")
        name = take(nlen).decode("utf-8")
        input_width, version, n_layers = unpack("<IQI")
        specs = []
        for _ in range(n_layers):
            width, act, bn = unpack("<IBB")
            if act >= len(ACTIVATIONS):
                raise ValueError(f"{path}: unknown activation code {act}")
            specs.append(LayerSpec(width, ACTIVATIONS[act], bool(bn)))
        layers = []
        fan_in = input_width
        for spec in specs:
            layer = {}
            shapes = [("w", (fan_in, spec.width)), ("b", (spec.width,))]
            if spec.batch_norm:
                shapes += [(k, (spec.width,))
                           for k in ("gamma", "beta", "rmean", "rvar")]
            for key, shape in shapes:
                buf = take(8 * int(np.prod(shape)))
                layer[key] = np.frombuffer(buf, dtype=float).reshape(shape).copy()
            layers.append(layer)
            fan_in = spec.width
        out[name] = ParameterSet(input_width, tuple(specs), layers, version)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after "
                         "the checkpoint")
    return out
