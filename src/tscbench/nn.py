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

from .network import read_input, write_output

BN_EPS = 1e-5
BN_MOMENTUM = 0.99  # running-statistics decay
ADAM_BETA1 = 0.9      # Adam's first-moment decay
ADAM_BETA2 = 0.999    # and second-moment decay
ADAM_EPS = 1e-8
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

    A stacked set (`stack`) holds K networks of one layout: `flat` is
    (K, n), every array and the version gain that leading axis, and each
    network's own set is a view of its row. forward, backward, adam_step
    and soft_update run on either.
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
        """View `flat`, (n,) or (K, n), and hold `version`, shaped
        `flat.shape[:-1]`; an int64 array is held, not copied."""
        self.input_width = input_width
        self.specs = specs
        self._version = np.asarray(version, dtype=np.int64)
        self.flat = flat
        self._layout, self.n_trainable, _ = _layout_for(input_width, specs)
        lead = flat.shape[:-1]
        self.layers = [{key: flat[..., a:b].reshape(lead + shape)
                        for key, a, b, shape in layer}
                       for layer in self._layout]

    @property
    def version(self):
        """The network's update count; a (K,) array for a stacked set."""
        v = self._version
        return int(v) if v.ndim == 0 else v

    @version.setter
    def version(self, value):
        self._version[...] = value

    def __getstate__(self):
        return self.input_width, self.specs, self.version, self.flat

    def __setstate__(self, state):
        self._bind(*state)

    def copy(self) -> "ParameterSet":
        return _viewing(self.flat.copy(), self.input_width, self.specs,
                        self._version.copy())

    def assign(self, other: "ParameterSet") -> None:
        """Copy `other`'s values and version into this set's memory."""
        if (other.input_width, other.specs) != (self.input_width,
                                                self.specs):
            raise ValueError("assignment between networks of different "
                             "shapes")
        self.flat[...] = other.flat
        self.version = other.version

    def arrays(self):
        for layer in self.layers:
            yield from layer.items()

    @classmethod
    def stack(cls, sets: list) -> "ParameterSet":
        """A stacked set of `sets`, which share one shape; each of them
        becomes a view of its row, keeping its values and version."""
        first = sets[0]
        if any((p.input_width, p.specs) != (first.input_width, first.specs)
               for p in sets):
            raise ValueError("stacked networks must share one shape")
        stacked = _viewing(np.stack([p.flat for p in sets]),
                           first.input_width, first.specs,
                           [p.version for p in sets])
        for k, p in enumerate(sets):
            p._bind(p.input_width, p.specs, stacked._version[k, ...],
                    stacked.flat[k])
        return stacked

    def rows(self, lo: int, hi: int) -> "ParameterSet":
        """Rows lo..hi-1 of a stacked set, as a stacked set viewing them."""
        return _viewing(self.flat[lo:hi], self.input_width, self.specs,
                        self._version[lo:hi])


def _viewing(flat: np.ndarray, input_width: int, specs: tuple,
             version=0) -> ParameterSet:
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

    `x` is (batch, width), or one row (width,); for a stacked `params` it
    is (K, batch, width), one batch per network. Train mode normalizes
    with batch statistics (batch size >= 2 required where batch norm is
    enabled) and, unless `update_running` is False, refreshes the running
    statistics in place.
    """
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != params.flat.ndim + 1:
        raise ValueError(f"{x.ndim}-d input for {params.flat.ndim}-d "
                         "parameters")
    if x.shape[-1] != params.input_width:
        raise ValueError(f"input width {x.shape[-1]} != {params.input_width}")

    train = mode == "train"
    # a stacked matmul gives each network's np.dot bits
    matmul = np.dot if x.ndim == 2 else np.matmul
    entries = []  # per layer: (input, pre-activation, output, xhat, inv_std)
    h = x
    for spec, layer in zip(params.specs, params.layers):
        z = matmul(h, layer["w"])
        z += layer["b"][..., None, :]
        xhat = inv_std = None
        if spec.batch_norm:
            if train:
                if z.shape[-2] < 2:
                    raise ValueError("batch norm in train mode needs batch >= 2")
                mu = z.mean(axis=-2)
                var = z.var(axis=-2)
                if update_running:
                    rmean, rvar = layer["rmean"], layer["rvar"]
                    rmean *= BN_MOMENTUM
                    rmean += (1.0 - BN_MOMENTUM) * mu
                    rvar *= BN_MOMENTUM
                    rvar += (1.0 - BN_MOMENTUM) * var
            else:
                mu = layer["rmean"]
                var = layer["rvar"]
            inv_std = (1.0 / np.sqrt(var + BN_EPS))[..., None, :]
            xhat = (z - mu[..., None, :]) * inv_std
            a = layer["gamma"][..., None, :] * xhat + layer["beta"][..., None, :]
        else:
            a = z
        y = _activate(spec.activation, a)
        entries.append((h, a, y, xhat, inv_std))
        h = y
    out = h[0] if squeeze else h
    return out, (train, squeeze, entries)


def backward(params: ParameterSet, cache: tuple, grad_out: np.ndarray,
             adam: "AdamState", l2: float = 0.0) -> list:
    """Backpropagate into `adam`'s gradient buffer, which `adam_step` then
    applies; returns the buffer's per-layer views of the gradients.

    `l2` adds weight decay lambda*w to every weight gradient.
    """
    _check_adam(params, adam)
    _backprop(params, cache, grad_out, l2, adam._grad_views)
    return adam._grad_views


def input_gradient(params: ParameterSet, cache: tuple,
                   grad_out: np.ndarray) -> np.ndarray:
    """The gradient with respect to the network's input alone, without the
    parameter gradients."""
    return _backprop(params, cache, grad_out, 0.0, None)


def _backprop(params, cache, grad_out, l2, out_layers):
    """The layer loop of `backward` and `input_gradient`: writes the
    parameter gradients into `out_layers`, or with `out_layers` None
    returns the input gradient instead."""
    train, squeeze, entries = cache
    grad = np.asarray(grad_out, dtype=float)
    if squeeze and grad.ndim == 1:
        grad = grad[None, :]
    matmul = np.dot if grad.ndim == 2 else np.matmul  # as in forward
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
                np.add.reduce(grad * xhat, axis=-2, out=g["gamma"])
                np.add.reduce(grad, axis=-2, out=g["beta"])
            dxhat = grad * layer["gamma"][..., None, :]
            if train:
                n = grad.shape[-2]
                dz = (inv_std / n) * (
                    n * dxhat - dxhat.sum(axis=-2)[..., None, :]
                    - xhat * (dxhat * xhat).sum(axis=-2)[..., None, :])
            else:
                dz = dxhat * inv_std
            grad = dz
        if g is not None:
            matmul(x.swapaxes(-1, -2), grad, out=g["w"])
            np.add.reduce(grad, axis=-2, out=g["b"])
            if l2:
                g["w"] += l2 * layer["w"]
        if idx or g is None:
            grad = np.matmul(grad, layer["w"].swapaxes(-1, -2))
    if out_layers is not None:
        return None
    return grad[0] if squeeze else grad


class AdamState:
    """Adam moments over a network's trainable prefix, plus the scratch
    buffers the in-place update works in. For a stacked parameter set,
    every buffer and the step count carry its stack axis, and `stack`
    makes the states of its rows views of one stacked state."""

    def __init__(self, params: ParameterSet, lr: float = 1e-4):
        lead = params.flat.shape[:-1]
        self._bind(params._layout, lr, np.zeros(lead, dtype=np.int64),
                   np.zeros((len(_ADAM_BUFFERS),) + lead
                            + (params.n_trainable,)))

    def _bind(self, layout, lr, step, bufs):
        """Hold `step` and view `bufs`, shaped (buffers, ..., n_trainable):
        the moments, the scratch pair and the gradient, this last gathered
        into the trainable layout of `layout`. Each buffer is contiguous,
        stack rows included: numpy copies an operand that may overlap its
        output, and interleaved rows may."""
        self._layout = layout
        self.lr = lr
        self._step = step
        self._bufs = bufs
        for name, buf in zip(_ADAM_BUFFERS, bufs):
            setattr(self, name, buf)
        lead = bufs.shape[1:-1]
        self._grad_views = [
            {key: self._grad[..., a:b].reshape(lead + shape)
             for key, a, b, shape in layer if key in TRAINABLE_KEYS}
            for layer in layout]

    @property
    def step(self):
        """The number of steps taken; a (K,) array for a stacked state."""
        s = self._step
        return int(s) if s.ndim == 0 else s

    @step.setter
    def step(self, value):
        self._step[...] = value

    @classmethod
    def stack(cls, states: list) -> "AdamState":
        """A stacked state of `states`, which share one layout and rate;
        each of them becomes a view of its row, keeping its values."""
        first = states[0]
        if any((s._layout, s.lr) != (first._layout, first.lr)
               for s in states):
            raise ValueError("stacked optimizer states must share one "
                             "layout and learning rate")
        stacked = cls.__new__(cls)
        stacked._bind(first._layout, first.lr,
                      np.array([s.step for s in states], dtype=np.int64),
                      np.stack([s._bufs for s in states], axis=1))
        for k, s in enumerate(states):
            s._bind(s._layout, s.lr, stacked._step[k, ...],
                    stacked._bufs[:, k])
        return stacked

    def rows(self, lo: int, hi: int) -> "AdamState":
        """Rows lo..hi-1 of a stacked state, as a stacked state viewing
        them."""
        part = AdamState.__new__(AdamState)
        part._bind(self._layout, self.lr, self._step[lo:hi],
                   self._bufs[:, lo:hi])
        return part


_ADAM_BUFFERS = ("m", "v", "_tmp", "_tmp2", "_grad")


def _check_adam(params: ParameterSet, adam: AdamState) -> None:
    if adam._layout != params._layout or \
            adam._step.shape != params.flat.shape[:-1]:
        raise ValueError("optimizer state does not match the network")


def adam_step(params: ParameterSet, adam: AdamState) -> ParameterSet:
    """Bias-corrected Adam update from the gradient `backward` left in
    `adam`, in place; bumps the parameter version.

    Per element: m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
    p = p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps), with each network's own
    bias corrections bc = 1 - b**step.
    """
    _check_adam(params, adam)
    adam.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    # Python float powers, row by row: numpy's power may round otherwise
    steps = np.ravel(adam._step).tolist()
    shape = adam._step.shape + (1,)
    bc1 = np.array([1.0 - b1 ** s for s in steps]).reshape(shape)
    bc2 = np.array([1.0 - b2 ** s for s in steps]).reshape(shape)
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
    t2 += ADAM_EPS
    t /= t2
    params.flat[..., :params.n_trainable] -= t
    params.version += 1
    return params


def soft_update(target: ParameterSet, online: ParameterSet,
                tau: float) -> ParameterSet:
    """theta' <- (1 - tau) theta' + tau theta, running statistics included."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    if target._layout != online._layout or \
            target.flat.shape != online.flat.shape:
        raise ValueError("soft update between networks of different shapes")
    target.flat *= 1.0 - tau
    target.flat += tau * online.flat
    target.version += 1
    return target


# -- checkpoint format ----------------------------------------------------------

_MAGIC = b"TSCNET1\n"


def save_checkpoint(path, named_params: dict) -> None:
    """Write named parameter sets as a versioned binary blob."""
    parts = [_MAGIC, struct.pack("<I", len(named_params))]
    for name, params in named_params.items():
        raw = name.encode("utf-8")
        parts += [struct.pack("<H", len(raw)), raw,
                  struct.pack("<IQI", params.input_width, params.version,
                              len(params.specs))]
        parts += [struct.pack("<IBB", spec.width,
                              ACTIVATIONS.index(spec.activation),
                              int(spec.batch_norm)) for spec in params.specs]
        parts += [arr.tobytes() for _, arr in params.arrays()]
    write_output(path, b"".join(parts))


def load_checkpoint(path) -> dict:
    """Inverse of save_checkpoint; a short or overlong file is an error."""
    data = read_input(path, binary=True)
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
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: network name is not UTF-8 "
                             f"({exc})") from None
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
