"""Minimal dense neural-network engine with backpropagation.

Supports exactly what the value/policy networks need: fully connected
layers, optional batch normalization, ELU / tanh / linear activations,
He initialization, Adam, soft target updates and a binary checkpoint
format. All arithmetic is float64.
"""

from __future__ import annotations

import functools
import math
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


TRAINABLE_KEYS = ("w", "b", "gamma", "beta")
# the arrays of a batch-norm layer, in checkpoint order
_LAYER_KEYS = TRAINABLE_KEYS + ("rmean", "rvar")


@functools.lru_cache(maxsize=64)
def _layout_for(input_width: int, specs: tuple) -> tuple:
    """Where each array of a network lives in its flat buffer.

    Returns (per layer, (key, start, stop, shape) in checkpoint order;
    the length of the trainable prefix; the buffer length).
    """
    shapes = []
    fan_in = input_width
    for spec in specs:
        keys = _LAYER_KEYS if spec.batch_norm else ("w", "b")
        shapes.append([(k, (fan_in, spec.width) if k == "w" else
                        (spec.width,)) for k in keys])
        fan_in = spec.width
    n_trainable = sum(math.prod(shape) for layer in shapes
                      for key, shape in layer if key in TRAINABLE_KEYS)
    free = [0, n_trainable]  # next offset: trainable, running statistics
    layout = []
    for layer in shapes:
        slots = []
        for key, shape in layer:
            i = key not in TRAINABLE_KEYS
            stop = free[i] + math.prod(shape)
            slots.append((key, free[i], stop, shape))
            free[i] = stop
        layout.append(tuple(slots))
    return tuple(layout), n_trainable, free[1]


class ParameterSet:
    """Weights, biases and batch-norm state for one network.

    Every array is a view into one contiguous float64 buffer, `flat`. The
    trainable arrays (TRAINABLE_KEYS) of all layers fill its first
    `n_trainable` elements, layer by layer; the batch-norm running
    statistics follow. Each layer dict holds w, b and, with batch norm,
    gamma, beta, rmean, rvar, in that (checkpoint) order. Update the
    arrays in place (`arr[...] = x`, `arr += x`): rebinding a dict entry
    would detach it from `flat`.
    """

    def __init__(self, input_width: int, specs: tuple, layers: list,
                 version: int = 0):
        specs = tuple(specs)
        if len(layers) != len(specs):
            raise ValueError(f"{len(layers)} parameter layers for "
                             f"{len(specs)} layer specs")
        self._bind(input_width, specs, version,
                   np.empty(_layout_for(input_width, specs)[2]))
        for views, layer in zip(self.layers, layers):
            for key, view in views.items():
                view[...] = layer[key]

    def _bind(self, input_width, specs, version, flat):
        self.input_width = input_width
        self.specs = specs
        self.version = version
        self.flat = flat
        self._layout, self.n_trainable, _ = _layout_for(input_width, specs)
        self.layers = [{key: flat[a:b].reshape(shape)
                        for key, a, b, shape in layer}
                       for layer in self._layout]

    def __getstate__(self):
        return self.input_width, self.specs, self.version, self.flat

    def __setstate__(self, state):
        self._bind(*state)

    def copy(self) -> "ParameterSet":
        return _viewing(self.flat.copy(), self.input_width, self.specs,
                        self.version)

    def arrays(self):
        for layer in self.layers:
            yield from layer.items()

    def allclose(self, other: "ParameterSet", atol: float = 0.0) -> bool:
        return all(np.allclose(a, b, atol=atol, rtol=0.0)
                   for (_, a), (_, b) in zip(self.arrays(), other.arrays()))


def _viewing(flat: np.ndarray, input_width: int, specs: tuple,
             version: int = 0) -> ParameterSet:
    """A parameter set whose arrays are views into `flat`."""
    params = ParameterSet.__new__(ParameterSet)
    params._bind(input_width, specs, version, flat)
    return params


def he_init(specs, input_width: int, seed: int) -> ParameterSet:
    """He-normal weights, zero biases, identity batch-norm."""
    if input_width < 1:
        raise ValueError("input_width must be >= 1")
    specs = tuple(specs)
    params = _viewing(np.zeros(_layout_for(input_width, specs)[2]),
                      input_width, specs)
    rng = np.random.default_rng(seed)
    fan_in = input_width
    for spec, layer in zip(specs, params.layers):
        layer["w"][...] = rng.normal(0.0, np.sqrt(2.0 / fan_in),
                                     size=(fan_in, spec.width))
        if spec.batch_norm:
            layer["gamma"][...] = 1.0
            layer["rvar"][...] = 1.0
        fan_in = spec.width
    return params


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "linear":
        return z
    if name == "tanh":
        return np.tanh(z)
    # elu: max(z, expm1(min(z, 0))) is z where z > 0 and expm1(z) below,
    # as expm1(z) > z for z < 0; expm1 never sees a positive input, so it
    # cannot overflow. Unlike where(z >= 0, z, expm1(z)), z = -0.0 may
    # come out as +0.0.
    e = np.minimum(z, 0.0)
    np.expm1(e, out=e)
    return np.maximum(z, e, out=e)


def forward(params: ParameterSet, x: np.ndarray, mode: str = "infer",
            update_running: bool = True):
    """Run the network; returns (output, cache for backward).

    Train mode normalizes with batch statistics (batch size >= 2 required
    where batch norm is enabled) and, unless `update_running` is False,
    refreshes the running statistics in place.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != params.input_width:
        raise ValueError(f"input width {x.shape[1]} != {params.input_width}")

    train = mode == "train"
    entries = []  # per layer: (input, pre-activation, output, xhat, inv_std)
    h = x
    for spec, layer in zip(params.specs, params.layers):
        z = np.dot(h, layer["w"])
        z += layer["b"]
        xhat = inv_std = None
        if spec.batch_norm:
            if train:
                if z.shape[0] < 2:
                    raise ValueError("batch norm in train mode needs batch >= 2")
                mu = z.mean(axis=0)
                var = z.var(axis=0)
                if update_running:
                    rmean, rvar = layer["rmean"], layer["rvar"]
                    rmean *= BN_MOMENTUM
                    rmean += (1.0 - BN_MOMENTUM) * mu
                    rvar *= BN_MOMENTUM
                    rvar += (1.0 - BN_MOMENTUM) * var
            else:
                mu = layer["rmean"]
                var = layer["rvar"]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = (z - mu) * inv_std
            a = layer["gamma"] * xhat + layer["beta"]
        else:
            a = z
        y = _activate(spec.activation, a)
        entries.append((h, a, y, xhat, inv_std))
        h = y
    out = h[0] if squeeze else h
    return out, (train, squeeze, entries)


class Gradients:
    def __init__(self, layers: list, wrt_input: np.ndarray | None):
        self.layers = layers
        self.wrt_input = wrt_input


def backward(params: ParameterSet, cache: tuple, grad_out: np.ndarray,
             l2: float = 0.0, into: "AdamState | None" = None) -> Gradients:
    """Backpropagate; returns per-parameter gradients and the input gradient.

    `l2` adds weight decay lambda*w to every weight gradient. With `into`,
    the parameter gradients are written straight into that optimizer's
    gradient buffer, which `adam_step` then reads without a copy, and the
    input gradient is not computed (`wrt_input` is None).
    """
    if into is None:
        out_layers = [{key: np.empty_like(layer[key]) for key in layer
                       if key in TRAINABLE_KEYS} for layer in params.layers]
    elif len(into._grad_views) == len(params.layers):
        out_layers = into._grad_views
    else:
        raise ValueError("optimizer state does not match the network")
    wrt_input = _backprop(params, cache, grad_out, l2, out_layers,
                          with_input=into is None)
    return Gradients(out_layers, wrt_input)


def input_gradient(params: ParameterSet, cache: tuple,
                   grad_out: np.ndarray) -> np.ndarray:
    """The gradient with respect to the network's input alone: the same
    bits as `backward(...).wrt_input`, without the parameter gradients."""
    return _backprop(params, cache, grad_out, 0.0, None, with_input=True)


def _backprop(params, cache, grad_out, l2, out_layers, with_input):
    """The layer loop of `backward`: writes the parameter gradients into
    `out_layers` unless it is None; returns the input gradient if
    `with_input`, else None."""
    train, squeeze, entries = cache
    grad = np.asarray(grad_out, dtype=float)
    if squeeze and grad.ndim == 1:
        grad = grad[None, :]
    for idx in range(len(params.layers) - 1, -1, -1):
        spec = params.specs[idx]
        layer = params.layers[idx]
        g = None if out_layers is None else out_layers[idx]
        x, a, y, xhat, inv_std = entries[idx]
        if spec.activation == "tanh":
            grad = grad * (1.0 - y * y)
        elif spec.activation == "elu":
            # 1 where a >= 0 (there y = a), else y + 1
            d = np.minimum(y, 0.0)
            d += 1.0
            d *= grad
            grad = d
        if spec.batch_norm:
            if g is not None:
                np.add.reduce(grad * xhat, axis=0, out=g["gamma"])
                np.add.reduce(grad, axis=0, out=g["beta"])
            dxhat = grad * layer["gamma"]
            if train:
                n = grad.shape[0]
                dz = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                      - xhat * (dxhat * xhat).sum(axis=0))
            else:
                dz = dxhat * inv_std
            grad = dz
        if g is not None:
            np.dot(x.T, grad, out=g["w"])
            np.add.reduce(grad, axis=0, out=g["b"])
            if l2:
                g["w"] += l2 * layer["w"]
        if idx or with_input:
            grad = grad @ layer["w"].T
    if not with_input:
        return None
    return grad[0] if squeeze else grad


class AdamState:
    """Adam moments over a network's trainable prefix, plus the scratch
    buffers the in-place update works in."""

    def __init__(self, params: ParameterSet, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        n = params.n_trainable
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._tmp = np.empty(n)
        self._tmp2 = np.empty(n)
        # the gradient, gathered into the trainable layout of `params`
        self._grad = np.empty(n)
        self._grad_views = [
            {key: self._grad[a:b].reshape(shape)
             for key, a, b, shape in layer if key in TRAINABLE_KEYS}
            for layer in params._layout]


def adam_step(params: ParameterSet, grads: Gradients | list,
              adam: AdamState) -> ParameterSet:
    """Bias-corrected Adam update, in place; bumps the parameter version.

    Per element: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps). Every trainable array
    needs a gradient; other keys are ignored.
    """
    glayers = grads.layers if isinstance(grads, Gradients) else grads
    if len(glayers) != len(adam._grad_views) or \
            params.n_trainable != adam.m.size:
        raise ValueError("gradients do not match the network")
    for g, views in zip(glayers, adam._grad_views):
        for key, view in views.items():
            gval = g.get(key)
            if gval is None:
                raise ValueError(f"no gradient for {key}")
            if gval is view:  # written by backward(..., into=adam)
                continue
            if gval.shape != view.shape:
                raise ValueError(f"gradient shape mismatch for {key}")
            view[...] = gval
    adam.step += 1
    b1, b2 = adam.beta1, adam.beta2
    bc1 = 1.0 - b1 ** adam.step
    bc2 = 1.0 - b2 ** adam.step
    g, m, v, t, t2 = adam._grad, adam.m, adam.v, adam._tmp, adam._tmp2
    m *= b1
    np.multiply(g, 1.0 - b1, out=t)
    m += t
    v *= b2
    np.multiply(g, 1.0 - b2, out=t)
    t *= g
    v += t
    np.divide(m, bc1, out=t)
    t *= adam.lr
    np.divide(v, bc2, out=t2)
    np.sqrt(t2, out=t2)
    t2 += adam.eps
    t /= t2
    params.flat[:params.n_trainable] -= t
    params.version += 1
    return params


def soft_update(target: ParameterSet, online: ParameterSet,
                tau: float) -> ParameterSet:
    """theta' <- (1 - tau) theta' + tau theta, running statistics included."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    if target._layout != online._layout:
        raise ValueError("soft update between networks of different shapes")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    target.version += 1
    return target


# -- checkpoint format ----------------------------------------------------------

_MAGIC = b"TSCNET1\n"


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
            for _, arr in params.arrays():
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
        specs = tuple(specs)
        layers = [{key: np.frombuffer(take(8 * (b - a)), dtype=float)
                   .reshape(shape) for key, a, b, shape in layer}
                  for layer in _layout_for(input_width, specs)[0]]
        out[name] = ParameterSet(input_width, specs, layers, version)
    if pos != len(data):
        raise ValueError(f"{path}: {len(data) - pos} trailing bytes after "
                         "the checkpoint")
    return out
