"""Differentiable layer primitives with explicit forward and backward passes.

Tensors are plain float64 numpy arrays.  Every op comes as a forward function
plus a matching ``*_backward`` that maps the output gradient to input and
parameter gradients; there is no graph or tape.  Ops that must not mix packed
items take the item ``bounds`` as a required argument; one item is (0, T).
The norm ops also return the normalized input and inverse standard deviation
they computed; their backward passes take those instead of the input and hold
only for train forwards (``batch_norm(..., train=True)``).  The tests check
every backward pass against central differences of its forward.
A ``ParamStore`` allocates one value and one gradient vector up front, and
each ``Parameter`` is a named pair of views into them.  Parameter values are
kept exactly representable in float32 (arithmetic still runs in float64) so
the 32-bit checkpoint format round-trips bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

Array = np.ndarray

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
GLN_EPS = 1e-8


def f32_clean(a: Array) -> Array:
    """Round to the float32 grid, returned as float64."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


class Parameter(NamedTuple):
    """Immutable (name, value view, grad view); values change in place only."""

    name: str
    value: Array
    grad: Array


class ParamStore:
    """One value and one gradient vector, allocated up front, whose next
    slices each registration hands out with its init (a constant, or a
    uniform fan-in draw that ``draw`` makes); plus non-trainable buffers."""

    def __init__(self, size: int):
        self.values = np.zeros(size)
        self.grads = np.zeros(size)
        self._params: dict[str, Parameter] = {}
        self._fan_ins: list[tuple[Array, int]] = []
        self._buffers: dict[str, Array] = {}
        self._filled = 0

    def _register(self, name: str, shape: tuple[int, ...]) -> Parameter:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        start, stop = self._filled, self._filled + math.prod(shape)
        if stop > self.values.size:
            raise ValueError(f"{name} ends at value {stop} of {self.values.size}")
        self._filled = stop
        views = (v[start:stop].reshape(shape) for v in (self.values, self.grads))
        self._params[name] = p = Parameter(name, *views)
        return p

    def constant(self, name: str, shape: tuple[int, ...], value: float) -> Parameter:
        p = self._register(name, shape)
        p.value[...] = f32_clean(value)
        return p

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Parameter:
        """A parameter that ``draw`` fills from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
        p = self._register(name, shape)
        self._fan_ins.append((p.value, fan_in))
        return p

    def draw(self, rng: np.random.Generator):
        """Draw every uniform parameter, in registration order."""
        for value, fan_in in self._fan_ins:
            a = math.sqrt(1.0 / fan_in)
            value[...] = rng.uniform(-a, a, size=value.shape).astype(np.float32)

    def register_buffer(self, name: str, value: Array) -> Array:
        if name in self._buffers:
            raise ValueError(f"duplicate buffer name: {name}")
        buf = f32_clean(value)
        self._buffers[name] = buf
        return buf

    def views(self, vector: Array):
        """(name, view) pairs splitting a vector laid out like ``values``."""
        start = 0
        for name, p in self._params.items():
            stop = start + p.value.size
            yield name, vector[start:stop].reshape(p.value.shape)
            start = stop

    def params(self):
        return self._params.items()

    def buffers(self):
        return self._buffers.items()

    def count(self) -> int:
        return self._filled


@dataclass
class BatchNormState:
    """Running statistics, updated in place by train-mode forwards."""

    running_mean: Array
    running_var: Array


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def pointwise_conv(x: Array, weight: Array, bias: Array) -> Array:
    """1x1 convolution over channels: y[c,t] = sum_i weight[c,i] x[i,t] + bias[c]."""
    if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ValueError(f"shape mismatch: weight {weight.shape} @ x {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ValueError(f"bias shape {bias.shape} != ({weight.shape[0]},)")
    return weight @ x + bias[:, None]


def pointwise_conv_backward(dy: Array, x: Array, weight: Array):
    dx = weight.T @ dy
    dw = dy @ x.T
    db = dy.sum(axis=1)
    return dx, dw, db


def segments(bounds, t: int) -> tuple[tuple[int, int], ...]:
    """(start, stop) column pairs of the items packed in a (C, t) array.

    ``bounds`` is (0, T_1, T_1 + T_2, ..., t); a single item is (0, t).
    """
    if bounds[0] != 0 or bounds[-1] != t:
        raise ValueError(f"segment bounds {bounds} do not span {t} columns")
    return tuple(zip(bounds[:-1], bounds[1:]))


def _crossing(bounds, offset: int, t: int) -> list[slice]:
    """Output columns whose tap at ``offset`` would read across an interior
    segment boundary; taps beyond the packed array's ends read padding."""
    if offset == 0:
        return []
    if offset > 0:
        return [slice(max(b - offset, 0), b) for b in bounds[1:-1]]
    return [slice(b, min(b - offset, t)) for b in bounds[1:-1]]


def depthwise_dconv(
    x: Array, kernel: Array, bias: Array, dilation: int, bounds
) -> Array:
    """Per-channel dilated convolution, zero-padded so output length equals T.

    Non-causal: tap p looks at offset (p - (P-1)/2) * dilation.  ``bounds``
    (0, T_1, T_1 + T_2, ..., sum T) splits packed items; a tap never reads
    across them, exactly as if each item were padded on its own.
    """
    c, t = x.shape
    if kernel.ndim != 2 or kernel.shape[0] != c:
        raise ValueError(f"kernel shape {kernel.shape} does not match {c} channels")
    p_taps = kernel.shape[1]
    if p_taps % 2 == 0:
        raise ValueError(f"kernel size must be odd, got {p_taps}")
    if dilation < 1:
        raise ValueError(f"dilation must be >= 1, got {dilation}")
    if bias.shape != (c,):
        raise ValueError(f"bias shape {bias.shape} != ({c},)")
    segments(bounds, t)  # validates bounds
    pad = (p_taps - 1) // 2 * dilation
    xp = np.zeros((c, t + 2 * pad))
    xp[:, pad : pad + t] = x
    y = np.tile(bias[:, None], (1, t))
    for p in range(p_taps):
        tap = kernel[:, p : p + 1] * xp[:, p * dilation : p * dilation + t]
        for cols in _crossing(bounds, p * dilation - pad, t):
            tap[:, cols] = 0.0
        y += tap
    return y


def depthwise_dconv_backward(
    dy: Array, x: Array, kernel: Array, dilation: int, bounds
):
    c, t = x.shape
    p_taps = kernel.shape[1]
    pad = (p_taps - 1) // 2 * dilation
    xp = np.zeros((c, t + 2 * pad))
    xp[:, pad : pad + t] = x
    dxp = np.zeros_like(xp)
    dk = np.empty_like(kernel)
    for p in range(p_taps):
        sl = slice(p * dilation, p * dilation + t)
        crossing = _crossing(bounds, p * dilation - pad, t)
        dy_tap = dy.copy() if crossing else dy
        for cols in crossing:
            dy_tap[:, cols] = 0.0
        dxp[:, sl] += kernel[:, p : p + 1] * dy_tap
        dk[:, p] = (dy_tap * xp[:, sl]).sum(axis=1)
    db = dy.sum(axis=1)
    return dxp[:, pad : pad + t], dk, db


def prelu(x: Array, slope: Array) -> Array:
    """Per-channel leaky rectifier: y = x for x >= 0 else slope[c] * x."""
    if slope.shape != (x.shape[0],):
        raise ValueError(f"slope shape {slope.shape} != ({x.shape[0]},)")
    return np.where(x >= 0, x, slope[:, None] * x)


def prelu_backward(dy: Array, x: Array, slope: Array):
    neg = x < 0
    dx = dy * np.where(neg, slope[:, None], 1.0)
    dslope = (dy * x * neg).sum(axis=1)
    return dx, dslope


def batch_norm(
    x: Array, gamma: Array, beta: Array, state: BatchNormState, *, train: bool
) -> tuple[Array, Array, Array]:
    """Per-channel normalization over time: batch statistics that also update
    the running ones when ``train``, else the running statistics.

    Returns ``(y, xhat, inv_std)``; after a train forward the last two are
    what ``batch_norm_backward`` needs.
    """
    if train:
        mean, var = x.mean(axis=1), x.var(axis=1)
        t = x.shape[1]
        unbiased = var * t / (t - 1) if t > 1 else var
        state.running_mean[...] = f32_clean(
            (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        )
        state.running_var[...] = f32_clean(
            (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * unbiased
        )
    else:
        mean, var = state.running_mean, state.running_var
    std = np.sqrt(var + BN_EPS)
    xhat = (x - mean[:, None]) / std[:, None]
    return gamma[:, None] * xhat + beta[:, None], xhat, 1.0 / std


def batch_norm_backward(dy: Array, xhat: Array, inv_std: Array, gamma: Array):
    """Gradients of a train-mode ``batch_norm`` from its saved xhat, inv_std."""
    g = dy * gamma[:, None]
    dx = inv_std[:, None] * (
        g
        - g.mean(axis=1, keepdims=True)
        - xhat * (g * xhat).mean(axis=1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=1), dy.sum(axis=1)


def global_layer_norm(
    x: Array, gamma: Array, beta: Array, bounds
) -> tuple[Array, Array, Array]:
    """Normalize each item by the mean/variance over all its entries jointly;
    affine per row.  ``bounds`` splits packed items (see ``segments``).

    Returns ``(y, xhat, inv_std)`` with one inv_std per item, what
    ``global_layer_norm_backward`` needs.
    """
    items = segments(bounds, x.shape[1])
    xhat = np.empty_like(x)
    inv_std = np.empty(len(items))
    for i, (lo, hi) in enumerate(items):
        seg = x[:, lo:hi]
        std = math.sqrt(seg.var() + GLN_EPS)
        xhat[:, lo:hi] = (seg - seg.mean()) / std
        inv_std[i] = 1.0 / std
    return gamma * xhat + beta, xhat, inv_std


def global_layer_norm_backward(
    dy: Array, xhat: Array, inv_std: Array, gamma: Array, bounds
):
    dx = np.empty_like(dy)
    g = dy * gamma
    for s, (lo, hi) in zip(inv_std, segments(bounds, dy.shape[1])):
        gs, xh = g[:, lo:hi], xhat[:, lo:hi]
        dx[:, lo:hi] = s * (gs - gs.mean() - xh * (gs * xh).mean())
    return dx, (dy * xhat).sum(axis=1, keepdims=True), dy.sum(axis=1, keepdims=True)


def softmax_columns(w: Array) -> Array:
    """Softmax over the first index of each column, max-shifted for stability."""
    e = np.exp(w - w.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


def softmax_columns_backward(dy: Array, y: Array) -> Array:
    return y * (dy - (dy * y).sum(axis=0, keepdims=True))


def sigmoid(x: Array) -> Array:
    """Logistic function, overflow-free: exp only ever sees -|x|."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid_backward(dy: Array, y: Array) -> Array:
    return dy * y * (1.0 - y)


def matmul(a: Array, b: Array) -> Array:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
    return a @ b


def matmul_backward(dy: Array, a: Array, b: Array):
    return dy @ b.T, a.T @ dy


def mean_abs_loss(a: Array, bt: Array) -> float:
    """Mean absolute difference over all entries."""
    if a.shape != bt.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {bt.shape}")
    return float(np.abs(a - bt).mean())


def mean_abs_loss_backward(a: Array, bt: Array, count) -> Array:
    """Gradient w.r.t. the first argument: sign(a - bt) / count.

    ``count`` is the number of entries averaged over; an array broadcast
    against ``a`` gives each packed item its own.
    """
    return np.sign(a - bt) / count
