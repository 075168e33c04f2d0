"""Architecture units: attention block, dilated residual blocks, stage, fusion.

Each unit registers its parameters, constant or uniform, in a shared
ParamStore under a dotted name prefix; the owner draws the uniform ones.
A mini-batch is packed: one (C, sum T_i) array holding the items side by
side along time, plus ``bounds`` = (0, T_1, T_1 + T_2, ..., sum T_i).
Pointwise convolutions, PReLU, batch normalization and the sigmoid run once
over the packed array; batch normalization in train mode therefore takes its
statistics over batch x time per channel.  The dilated depthwise convolution
never reads across an item boundary, and attention and global layer
normalization run per item, so no other layer couples the items.  A batch of
one is the plain (C, T) array with bounds (0, T).  Every block's
``forward(x, bounds, *, train)`` returns ``(y, cache)`` and its
``backward(dy, cache, bounds)`` takes that cache back; ``bounds`` is never
cached.  A train forward uses batch statistics; an eval forward uses running
statistics, returns a None cache and is safe to run concurrently on frozen
parameters.
"""

from __future__ import annotations

import math

import numpy as np

from . import nn
from .nn import Array, ParamStore


def receptive_field(kernel: int, blocks_per_stack: int) -> int:
    """Frames seen by one output of a stack with dilations 1, 2, 4, ...

    Equals ``1 + (kernel - 1) * (2**blocks_per_stack - 1)``.
    """
    if kernel < 1 or blocks_per_stack < 1:
        raise ValueError("kernel and blocks_per_stack must be >= 1")
    return 1 + (kernel - 1) * (2 ** blocks_per_stack - 1)


class Conv1x1:
    """Pointwise channel-mixing convolution with bias."""

    def __init__(self, store: ParamStore, name: str, c_in: int, c_out: int):
        self.weight = store.uniform(f"{name}.weight", (c_out, c_in), c_in)
        self.bias = store.constant(f"{name}.bias", (c_out,), 0.0)

    def forward(self, x: Array) -> Array:
        return nn.pointwise_conv(x, self.weight.value, self.bias.value)

    def backward(self, dy: Array, x: Array) -> Array:
        dx, dw, db = nn.pointwise_conv_backward(dy, x, self.weight.value)
        self.weight.grad[...] += dw
        self.bias.grad[...] += db
        return dx


class PReLULayer:
    def __init__(self, store: ParamStore, name: str, channels: int):
        self.slope = store.constant(f"{name}.slope", (channels,), 0.25)

    def forward(self, x: Array) -> Array:
        return nn.prelu(x, self.slope.value)

    def backward(self, dy: Array, x: Array) -> Array:
        dx, dslope = nn.prelu_backward(dy, x, self.slope.value)
        self.slope.grad[...] += dslope
        return dx


class BatchNormLayer:
    """Batch normalization over batch x time per channel.

    Train statistics cover every column of the packed batch, so a batch of
    one falls back to plain per-utterance time statistics.  ``backward``
    takes the statistics saved by a ``train=True`` forward.
    """

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.gamma = store.constant(f"{name}.gamma", (channels,), 1.0)
        self.beta = store.constant(f"{name}.beta", (channels,), 0.0)
        self.state = nn.BatchNormState(
            store.register_buffer(f"{name}.running_mean", np.zeros(channels)),
            store.register_buffer(f"{name}.running_var", np.ones(channels)),
        )

    def forward(self, x: Array, *, train: bool):
        y, *saved = nn.batch_norm(
            x, self.gamma.value, self.beta.value, self.state, train=train
        )
        return y, saved

    def backward(self, dy: Array, saved) -> Array:
        dx, dgamma, dbeta = nn.batch_norm_backward(dy, *saved, self.gamma.value)
        self.gamma.grad[...] += dgamma
        self.beta.grad[...] += dbeta
        return dx


class GlobalNormLayer:
    """Global layer normalization, per item, with per-row affine parameters."""

    def __init__(self, store: ParamStore, name: str, rows: int):
        self.gamma = store.constant(f"{name}.gamma", (rows, 1), 1.0)
        self.beta = store.constant(f"{name}.beta", (rows, 1), 0.0)

    def forward(self, x: Array, bounds):
        y, *saved = nn.global_layer_norm(x, self.gamma.value, self.beta.value, bounds)
        return y, saved

    def backward(self, dy: Array, saved, bounds) -> Array:
        dx, dgamma, dbeta = nn.global_layer_norm_backward(
            dy, *saved, self.gamma.value, bounds
        )
        self.gamma.grad[...] += dgamma
        self.beta.grad[...] += dbeta
        return dx


class SABlock:
    """Self-attention over frequency with a trainable residual weight.

    Query/key/value come from three pointwise convolutions; attention weights
    are a column-softmax of Q K^T / sqrt(F); the attended value is blended
    back as ``x + delta * A`` with delta starting at zero, so a fresh block
    is exactly the identity.  Attention never crosses batch items: Q K^T
    contracts time, so it is formed per item, and the items' (F, F) weight
    matrices sit side by side for one column softmax.
    """

    def __init__(self, store: ParamStore, name: str, f: int):
        self.wq = Conv1x1(store, f"{name}.wq", f, f)
        self.wk = Conv1x1(store, f"{name}.wk", f, f)
        self.wv = Conv1x1(store, f"{name}.wv", f, f)
        self.delta = store.constant(f"{name}.delta", (1,), 0.0)

    def forward(self, x: Array, bounds, *, train: bool):
        q = self.wq.forward(x)
        k = self.wk.forward(x)
        v = self.wv.forward(x)
        f = x.shape[0]
        scale = 1.0 / math.sqrt(f)
        items = nn.segments(bounds, x.shape[1])
        what = nn.softmax_columns(np.concatenate(
            [nn.matmul(q[:, lo:hi], k[:, lo:hi].T) * scale for lo, hi in items],
            axis=1,
        ))
        a = np.empty_like(x)
        for i, (lo, hi) in enumerate(items):
            a[:, lo:hi] = nn.matmul(what[:, i * f : (i + 1) * f], v[:, lo:hi])
        y = x + self.delta.value[0] * a
        return y, ((x, q, k, v, what, a) if train else None)

    def backward(self, dy: Array, cache, bounds) -> Array:
        x, q, k, v, what, a = cache
        f = x.shape[0]
        scale = 1.0 / math.sqrt(f)
        items = nn.segments(bounds, x.shape[1])
        self.delta.grad[...] += (dy * a).sum()
        da = self.delta.value[0] * dy
        dwhat = np.empty_like(what)
        dq, dk, dv = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        for i, (lo, hi) in enumerate(items):
            cols = slice(i * f, (i + 1) * f)
            dwhat[:, cols], dv[:, lo:hi] = nn.matmul_backward(
                da[:, lo:hi], what[:, cols], v[:, lo:hi]
            )
        dw = nn.softmax_columns_backward(dwhat, what)
        for i, (lo, hi) in enumerate(items):
            cols = slice(i * f, (i + 1) * f)
            dq[:, lo:hi] = dw[:, cols] @ k[:, lo:hi] * scale
            dk[:, lo:hi] = dw[:, cols].T @ q[:, lo:hi] * scale
        return dy + (
            self.wq.backward(dq, x) + self.wk.backward(dk, x) + self.wv.backward(dv, x)
        )


class TCNBlock:
    """Residual unit: 1x1 in, PReLU, BN, dilated depthwise, PReLU, BN, 1x1 out."""

    def __init__(self, store: ParamStore, name: str, width_in: int,
                 width_hidden: int, kernel: int, dilation: int):
        if kernel % 2 == 0:
            raise ValueError(f"kernel size must be odd, got {kernel}")
        self.dilation = dilation
        self.in_conv = Conv1x1(store, f"{name}.in_conv", width_in, width_hidden)
        self.prelu1 = PReLULayer(store, f"{name}.prelu1", width_hidden)
        self.bn1 = BatchNormLayer(store, f"{name}.bn1", width_hidden)
        self.dkernel = store.uniform(f"{name}.dconv.kernel", (width_hidden, kernel),
                                     kernel)
        self.dbias = store.constant(f"{name}.dconv.bias", (width_hidden,), 0.0)
        self.prelu2 = PReLULayer(store, f"{name}.prelu2", width_hidden)
        self.bn2 = BatchNormLayer(store, f"{name}.bn2", width_hidden)
        self.out_conv = Conv1x1(store, f"{name}.out_conv", width_hidden, width_in)

    def forward(self, x: Array, bounds, *, train: bool):
        h0 = self.in_conv.forward(x)
        h1 = self.prelu1.forward(h0)
        h2, bn1 = self.bn1.forward(h1, train=train)
        h3 = nn.depthwise_dconv(
            h2, self.dkernel.value, self.dbias.value, self.dilation, bounds
        )
        h4 = self.prelu2.forward(h3)
        h5, bn2 = self.bn2.forward(h4, train=train)
        y = x + self.out_conv.forward(h5)
        return y, ((x, h0, bn1, h2, h3, bn2, h5) if train else None)

    def backward(self, dy: Array, cache, bounds) -> Array:
        x, h0, bn1, h2, h3, bn2, h5 = cache
        dh5 = self.out_conv.backward(dy, h5)
        dh4 = self.bn2.backward(dh5, bn2)
        dh3 = self.prelu2.backward(dh4, h3)
        dh2, dk, db = nn.depthwise_dconv_backward(
            dh3, h2, self.dkernel.value, self.dilation, bounds
        )
        self.dkernel.grad[...] += dk
        self.dbias.grad[...] += db
        dh1 = self.bn1.backward(dh2, bn1)
        dh0 = self.prelu1.backward(dh1, h0)
        return dy + self.in_conv.backward(dh0, x)


class Stage:
    """One mask predictor: attention, bottleneck, dilated stacks, projection.

    The bottleneck maps F channels down to the stack width; dilations restart
    at 1 in each stack; a pointwise projection restores F channels before the
    sigmoid that produces the (0, 1) mask.
    """

    def __init__(self, store: ParamStore, name: str, f: int, bottleneck: int,
                 hidden: int, kernel: int, stacks: int, blocks_per_stack: int):
        self.sa = SABlock(store, f"{name}.sa", f)
        self.bottleneck = Conv1x1(store, f"{name}.bottleneck", f, bottleneck)
        self.blocks = [
            TCNBlock(store, f"{name}.stack{r + 1}.block{l + 1}", bottleneck, hidden,
                     kernel, 2 ** l)
            for r in range(stacks)
            for l in range(blocks_per_stack)
        ]
        self.out_proj = Conv1x1(store, f"{name}.out_proj", bottleneck, f)

    def forward(self, x: Array, bounds, *, train: bool):
        a, sa = self.sa.forward(x, bounds, train=train)
        h = self.bottleneck.forward(a)
        blocks = []
        for block in self.blocks:
            h, bc = block.forward(h, bounds, train=train)
            blocks.append(bc)
        mask = nn.sigmoid(self.out_proj.forward(h))
        return mask, ((sa, a, blocks, h, mask) if train else None)

    def backward(self, dmask: Array, cache, bounds) -> Array:
        sa, a, blocks, h, mask = cache
        dz = nn.sigmoid_backward(dmask, mask)
        dh = self.out_proj.backward(dz, h)
        for block, bc in zip(reversed(self.blocks), reversed(blocks)):
            dh = block.backward(dh, bc, bounds)
        da = self.bottleneck.backward(dh, a)
        return self.sa.backward(da, sa, bounds)


class _FusionBranch:
    def __init__(self, store: ParamStore, name: str, f: int):
        self.conv = Conv1x1(store, f"{name}.conv", f, f)
        self.prelu = PReLULayer(store, f"{name}.prelu", f)
        self.gln = GlobalNormLayer(store, f"{name}.gln", f)

    def forward(self, x: Array, bounds, *, train: bool):
        c = self.conv.forward(x)
        y, gln = self.gln.forward(self.prelu.forward(c), bounds)
        return y, ((x, c, gln) if train else None)

    def backward(self, dy: Array, cache, bounds) -> Array:
        x, c, gln = cache
        dp = self.gln.backward(dy, gln, bounds)
        dc = self.prelu.backward(dp, c)
        return self.conv.backward(dc, x)


class FusionBlock:
    """Merge the mask-filtered input spectrum with the running estimate.

    Both inputs go through conv/PReLU/global-norm branches, are summed, and
    the sum passes conv, PReLU, global-norm, conv, PReLU.
    """

    def __init__(self, store: ParamStore, name: str, f: int):
        self.branch_a = _FusionBranch(store, f"{name}.branch_a", f)
        self.branch_b = _FusionBranch(store, f"{name}.branch_b", f)
        self.post_conv1 = Conv1x1(store, f"{name}.post.conv1", f, f)
        self.post_prelu1 = PReLULayer(store, f"{name}.post.prelu1", f)
        self.post_gln = GlobalNormLayer(store, f"{name}.post.gln", f)
        self.post_conv2 = Conv1x1(store, f"{name}.post.conv2", f, f)
        self.post_prelu2 = PReLULayer(store, f"{name}.post.prelu2", f)

    def forward(self, masked_orig: Array, prev_est: Array, bounds, *, train: bool):
        if masked_orig.shape != prev_est.shape:
            raise ValueError(
                f"fusion inputs differ: {masked_orig.shape} vs {prev_est.shape}"
            )
        ya, ca = self.branch_a.forward(masked_orig, bounds, train=train)
        yb, cb = self.branch_b.forward(prev_est, bounds, train=train)
        s = ya + yb
        p1 = self.post_conv1.forward(s)
        p3, gln = self.post_gln.forward(self.post_prelu1.forward(p1), bounds)
        p4 = self.post_conv2.forward(p3)
        y = self.post_prelu2.forward(p4)
        return y, ((ca, cb, s, p1, gln, p3, p4) if train else None)

    def backward(self, dy: Array, cache, bounds):
        ca, cb, s, p1, gln, p3, p4 = cache
        dp4 = self.post_prelu2.backward(dy, p4)
        dp3 = self.post_conv2.backward(dp4, p3)
        dp2 = self.post_gln.backward(dp3, gln, bounds)
        dp1 = self.post_prelu1.backward(dp2, p1)
        ds = self.post_conv1.backward(dp1, s)
        da = self.branch_a.backward(ds, ca, bounds)
        return da, self.branch_b.backward(ds, cb, bounds)
