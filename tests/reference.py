"""Independent scalar-loop oracles for the block and model forward passes.

Everything here is written with explicit Python loops over indices and
``math`` scalar functions, deliberately avoiding the vectorized code paths
under test.  These read parameter values from built layers but share no
computation with them.  The two ``*_backward`` references are vectorized:
they are the norm backward passes as written before the forward saved its
statistics, recomputing mean, variance and x-hat from the input.  The
finite-difference checker and the store helpers at the end are the test
equipment every backward pass is checked with; ``run_cli`` runs the command
line in a child process.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from stagemask.nn import BN_EPS, GLN_EPS, ParamStore, f32_clean

SRC = Path(__file__).resolve().parent.parent / "src"


def naive_dft(frame):
    """O(N^2) DFT by definition; returns the full complex spectrum."""
    n = len(frame)
    out = []
    for w in range(n):
        acc = 0j
        for t in range(n):
            acc += frame[t] * complex(
                math.cos(2 * math.pi * w * t / n), -math.sin(2 * math.pi * w * t / n)
            )
        out.append(acc)
    return out


def ref_pointwise_conv(x, weight, bias):
    c_out, c_in = weight.shape
    t_len = x.shape[1]
    y = np.zeros((c_out, t_len))
    for c in range(c_out):
        for t in range(t_len):
            acc = float(bias[c])
            for i in range(c_in):
                acc += float(weight[c, i]) * float(x[i, t])
            y[c, t] = acc
    return y


def ref_dconv(x, kernel, bias, dilation):
    c_ch, t_len = x.shape
    p_taps = kernel.shape[1]
    mid = (p_taps - 1) // 2
    y = np.zeros((c_ch, t_len))
    for c in range(c_ch):
        for t in range(t_len):
            acc = float(bias[c])
            for p in range(p_taps):
                src = t + (p - mid) * dilation
                if 0 <= src < t_len:
                    acc += float(kernel[c, p]) * float(x[c, src])
            y[c, t] = acc
    return y


def ref_prelu(x, slope):
    c_ch, t_len = x.shape
    y = np.zeros_like(x)
    for c in range(c_ch):
        for t in range(t_len):
            v = float(x[c, t])
            y[c, t] = v if v >= 0 else float(slope[c]) * v
    return y


def ref_batch_norm(x, gamma, beta, running_mean, running_var, mode):
    c_ch, t_len = x.shape
    y = np.zeros_like(x)
    for c in range(c_ch):
        if mode == "train":
            mean = sum(float(x[c, t]) for t in range(t_len)) / t_len
            var = sum((float(x[c, t]) - mean) ** 2 for t in range(t_len)) / t_len
        else:
            mean = float(running_mean[c])
            var = float(running_var[c])
        denom = math.sqrt(var + BN_EPS)
        for t in range(t_len):
            y[c, t] = float(gamma[c]) * (float(x[c, t]) - mean) / denom + float(beta[c])
    return y


def ref_gln(x, gamma, beta):
    c_ch, t_len = x.shape
    total = c_ch * t_len
    mean = sum(float(x[c, t]) for c in range(c_ch) for t in range(t_len)) / total
    var = (
        sum((float(x[c, t]) - mean) ** 2 for c in range(c_ch) for t in range(t_len))
        / total
    )
    denom = math.sqrt(var + GLN_EPS)
    y = np.zeros_like(x)
    for c in range(c_ch):
        for t in range(t_len):
            y[c, t] = float(gamma[c, 0]) * (float(x[c, t]) - mean) / denom + float(
                beta[c, 0]
            )
    return y


def ref_batch_norm_backward(dy, x, gamma):
    """Train-mode batch-norm gradients, statistics recomputed from ``x``."""
    mean, var = x.mean(axis=1), x.var(axis=1)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean[:, None]) * inv_std[:, None]
    g = dy * gamma[:, None]
    dx = inv_std[:, None] * (
        g
        - g.mean(axis=1, keepdims=True)
        - xhat * (g * xhat).mean(axis=1, keepdims=True)
    )
    return dx, (dy * xhat).sum(axis=1), dy.sum(axis=1)


def ref_gln_backward(dy, x, gamma, bounds):
    """Packed global-layer-norm gradients, each item's statistics recomputed
    from its columns of ``x``."""
    xhat = np.empty_like(x)
    dx = np.empty_like(x)
    g = dy * gamma
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        seg, gs = x[:, lo:hi], g[:, lo:hi]
        inv_std = 1.0 / math.sqrt(seg.var() + GLN_EPS)
        xh = xhat[:, lo:hi]
        xh[...] = (seg - seg.mean()) * inv_std
        dx[:, lo:hi] = inv_std * (gs - gs.mean() - xh * (gs * xh).mean())
    return dx, (dy * xhat).sum(axis=1, keepdims=True), dy.sum(axis=1, keepdims=True)


def ref_softmax_columns(w):
    f_dim, t_dim = w.shape
    y = np.zeros_like(w)
    for j in range(t_dim):
        col = [math.exp(float(w[i, j])) for i in range(f_dim)]
        s = sum(col)
        for i in range(f_dim):
            y[i, j] = col[i] / s
    return y


def ref_sigmoid(x):
    y = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        y[idx] = 1.0 / (1.0 + math.exp(-float(x[idx])))
    return y


def ref_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    y = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            y[i, j] = sum(float(a[i, p]) * float(b[p, j]) for p in range(k))
    return y


def ref_sa_block(x, block):
    f_dim = x.shape[0]
    q = ref_pointwise_conv(x, block.wq.weight.value, block.wq.bias.value)
    k = ref_pointwise_conv(x, block.wk.weight.value, block.wk.bias.value)
    v = ref_pointwise_conv(x, block.wv.weight.value, block.wv.bias.value)
    w = ref_matmul(q, k.T) / math.sqrt(f_dim)
    what = ref_softmax_columns(w)
    a = ref_matmul(what, v)
    return x + float(block.delta.value[0]) * a


def ref_tcn_block(x, block, mode):
    h0 = ref_pointwise_conv(x, block.in_conv.weight.value, block.in_conv.bias.value)
    h1 = ref_prelu(h0, block.prelu1.slope.value)
    h2 = ref_batch_norm(
        h1,
        block.bn1.gamma.value,
        block.bn1.beta.value,
        block.bn1.state.running_mean,
        block.bn1.state.running_var,
        mode,
    )
    h3 = ref_dconv(h2, block.dkernel.value, block.dbias.value, block.dilation)
    h4 = ref_prelu(h3, block.prelu2.slope.value)
    h5 = ref_batch_norm(
        h4,
        block.bn2.gamma.value,
        block.bn2.beta.value,
        block.bn2.state.running_mean,
        block.bn2.state.running_var,
        mode,
    )
    return x + ref_pointwise_conv(
        h5, block.out_conv.weight.value, block.out_conv.bias.value
    )


def ref_stage(x, stage, mode):
    h = ref_sa_block(x, stage.sa)
    h = ref_pointwise_conv(
        h, stage.bottleneck.weight.value, stage.bottleneck.bias.value
    )
    for block in stage.blocks:
        h = ref_tcn_block(h, block, mode)
    z = ref_pointwise_conv(h, stage.out_proj.weight.value, stage.out_proj.bias.value)
    return ref_sigmoid(z)


def _ref_branch(x, branch):
    c = ref_pointwise_conv(x, branch.conv.weight.value, branch.conv.bias.value)
    p = ref_prelu(c, branch.prelu.slope.value)
    return ref_gln(p, branch.gln.gamma.value, branch.gln.beta.value)


def ref_fusion(masked_orig, prev_est, fusion):
    s = _ref_branch(masked_orig, fusion.branch_a) + _ref_branch(
        prev_est, fusion.branch_b
    )
    p1 = ref_pointwise_conv(
        s, fusion.post_conv1.weight.value, fusion.post_conv1.bias.value
    )
    p2 = ref_prelu(p1, fusion.post_prelu1.slope.value)
    p3 = ref_gln(p2, fusion.post_gln.gamma.value, fusion.post_gln.beta.value)
    p4 = ref_pointwise_conv(
        p3, fusion.post_conv2.weight.value, fusion.post_conv2.bias.value
    )
    return ref_prelu(p4, fusion.post_prelu2.slope.value)


def ref_cascade_loss(masks, x, clean):
    """Recompute the per-stage losses from the masks alone, by loops."""
    f_dim, t_dim = x.shape
    est = x.copy()
    per_stage = []
    for mask in masks:
        nxt = np.zeros_like(est)
        for i in range(f_dim):
            for j in range(t_dim):
                nxt[i, j] = float(mask[i, j]) * float(est[i, j])
        acc = 0.0
        for i in range(f_dim):
            for j in range(t_dim):
                acc += abs(nxt[i, j] - float(clean[i, j]))
        per_stage.append(acc / (f_dim * t_dim))
        est = nxt
    return per_stage, sum(per_stage)


def randomize_params(store, rng, scale=0.3):
    """Put every parameter (including attention deltas) in general position."""
    for _, p in store.params():
        p.value[...] = f32_clean(p.value + rng.uniform(-scale, scale, size=p.value.shape))


def constant_masks(monkeypatch, model, value):
    """Make every stage of ``model`` emit a constant mask (eval forwards)."""
    for stage in model.stages:
        monkeypatch.setattr(
            stage, "forward",
            lambda xin, bounds, *, train: (np.full_like(xin, value), None),
        )


def margined_clean(model, x, rng, margin=0.05):
    """Clean target sitting at least ``margin`` away from every stage
    estimate, entrywise, so the absolute-error loss is smooth around a
    finite-difference evaluation point."""
    trace = model.forward_batch([x], train=False)
    ests = np.stack(trace.estimates[1:])
    above = ests.max(axis=0) + rng.uniform(margin, 3 * margin, size=x.shape)
    below = ests.min(axis=0) - rng.uniform(margin, 3 * margin, size=x.shape)
    pick_above = rng.random(x.shape) < 0.5
    return np.where(pick_above, above, below)


def finite_diff_check(fn, point, h=1e-4):
    """Max relative disagreement between fn's gradient and central differences.

    ``fn(x)`` must return ``(scalar value, gradient array)`` and be a pure,
    deterministic function of x; compose tensor-valued ops with a fixed
    linear functional before checking.
    """
    _, grad = fn(point)
    if grad.shape != point.shape:
        raise ValueError(f"gradient shape {grad.shape} != point shape {point.shape}")
    numeric = np.zeros_like(point)
    flat = numeric.reshape(-1)
    for i in range(point.size):
        xp = point.copy().reshape(-1)
        xp[i] += h
        up, _ = fn(xp.reshape(point.shape))
        xm = point.copy().reshape(-1)
        xm[i] -= h
        down, _ = fn(xm.reshape(point.shape))
        flat[i] = (up - down) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-8)
    return float((np.abs(grad - numeric) / denom).max())


def zero_grads(store):
    """Clear every parameter gradient of ``store``."""
    store.grads[...] = 0.0


def build(make, rng):
    """``make(store)`` run on a store of exactly the size it fills, whose
    uniform init is then drawn from ``rng``; returns (make's result, store).

    A first run on a roomy store measures the size; ``np.zeros`` leaves its
    untouched pages unallocated.
    """
    probe = ParamStore(1 << 20)
    make(probe)
    store = ParamStore(probe.count())
    made = make(store)
    store.draw(rng)
    return made, store


def run_cli(*args):
    """``python -m stagemask ARGS`` in a child process that imports the
    package from this checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "stagemask", *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def prefix_counts(model):
    """Per-component parameter counts of a built model, summed over its
    store by name prefix: the oracle for ``ModelConfig.parameter_counts``."""
    def count(prefix):
        return sum(
            p.value.size for name, p in model.store.params() if name.startswith(prefix)
        )

    return {
        "sa_block": count("stage1.sa."),
        "tcn_blocks": count("stage1.stack"),
        "stage_glue": count("stage1.bottleneck.") + count("stage1.out_proj."),
        "per_stage": count("stage1."),
        "fusion_block": count("fusion3."),
        "total": count(""),
    }
