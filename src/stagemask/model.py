"""Multi-stage mask model: stage chaining, fusion wiring, losses, enhancement.

Stage 1 sees the input magnitude, stage 2 the first estimate, and every later
stage sees a fusion of (previous mask applied to the original magnitude) with
the running estimate.  Estimates cascade multiplicatively, so they can only
shrink: ``est[k] = mask[k] * est[k-1]`` with ``est[0]`` the input.

``forward_batch`` packs a list of (F, T_i) magnitude arrays into one
(F, sum T_i) array with item bounds (see ``blocks``), and every tensor of the
resulting trace is packed the same way.  Its required keyword ``train`` goes
unchanged to every block; a train trace carries the blocks' caches for
``backward_batch``, an eval trace none.  Batch normalization couples the
items in train mode (statistics over batch x time); everything else treats
them independently.  A single utterance is a batch of one: ``enhance`` masks
the magnitude array that ``analyze`` produces through
``forward_batch([mag], train=False)``, resynthesizes with the noisy phase and
hands the trace back, so per-stage losses come from the same forward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from . import dsp, nn
from .blocks import FusionBlock, Stage, receptive_field
from .nn import Array, ParamStore

INT32_MAX = 2**31 - 1


class FieldError(ValueError):
    """An out-of-range config value; ``fields`` names the dataclass fields
    it depends on, so a config file can point at the line that set one."""

    def __init__(self, fields: tuple[str, ...], problem: str):
        super().__init__(f"{'/'.join(fields)}: {problem}")
        self.fields = fields
        self.problem = problem


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyper-parameters plus the STFT geometry and init seed.

    The defaults are the paper geometry, and the only model defaults: config
    files and the CLI fall back to them.  Every field but the seed is an
    int32 in the checkpoint header, the seed an int64, and the receptive
    field must fit in an int32 too.  ``hop`` is at most, and by default,
    ``fft_size // 2``, so every sample lies in at least two frames.
    """

    stages: int = 5
    hidden: int = 256
    bottleneck: int = 128
    stacks: int = 3
    blocks_per_stack: int = 8
    kernel: int = 3
    fft_size: int = 512
    hop: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.hop is None:
            object.__setattr__(self, "hop", max(1, self.fft_size // 2))
        # 31 blocks keep the last dilation, 2**30, in int32, and bound
        # blocks_per_stack before receptive_field evaluates 2**blocks_per_stack
        highs = {"blocks_per_stack": 31, "seed": 2**63 - 1}
        for field in fields(self):
            value = getattr(self, field.name)
            low = 0 if field.name == "seed" else 1
            high = highs.get(field.name, INT32_MAX)
            if not low <= value <= high:
                raise FieldError((field.name,), f"must lie in [{low}, {high}], got {value}")
        if self.kernel % 2 == 0:
            raise FieldError(("kernel",), f"must be odd, got {self.kernel}")
        if self.fft_size < 4 or self.fft_size % 2 != 0:
            raise FieldError(("fft_size",), f"must be even and >= 4, got {self.fft_size}")
        if self.hop > self.fft_size // 2:
            raise FieldError(("hop", "fft_size"),
                             f"hop {self.hop} exceeds fft_size // 2 = {self.fft_size // 2}")
        rf = receptive_field(self.kernel, self.blocks_per_stack)
        if rf > INT32_MAX:
            raise FieldError(("blocks_per_stack", "kernel"),
                             f"receptive field of {rf} frames exceeds {INT32_MAX}")

    @property
    def freq_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def num_fusions(self) -> int:
        return max(0, self.stages - 2)

    def parameter_counts(self) -> dict[str, int]:
        """Exact trainable parameter counts by component, in closed form."""
        f, b, h = self.freq_bins, self.bottleneck, self.hidden
        sa = 3 * (f * f + f) + 1  # query, key and value convs, then delta
        # 1x1 convs in and out, depthwise taps; 8h: its bias, 2 PReLUs, 2 BN affines
        tcn_block = 2 * h * b + b + h * self.kernel + 8 * h
        tcn = self.stacks * self.blocks_per_stack * tcn_block
        glue = 2 * f * b + b + f  # bottleneck and output projection convs
        per_stage = sa + tcn + glue
        fusion = 4 * f * f + 14 * f if self.num_fusions else 0
        return dict(sa_block=sa, tcn_blocks=tcn, stage_glue=glue, per_stage=per_stage,
                    fusion_block=fusion,
                    total=self.stages * per_stage + self.num_fusions * fusion)

    @property
    def state_floats(self) -> int:
        """Parameter plus buffer values of the model this config builds; the
        buffers are the 4 * hidden BN running statistics of each TCN block."""
        tcn_blocks = self.stages * self.stacks * self.blocks_per_stack
        return self.parameter_counts()["total"] + tcn_blocks * 4 * self.hidden


@dataclass
class BatchTrace:
    """Everything one batched forward produced.

    Every array is packed: item i holds columns ``bounds[i]:bounds[i + 1]``.
    ``masks[k]`` is stage k+1's mask; ``estimates[k]`` the cascade after
    stage k, with ``estimates[0]`` the packed input itself.  ``caches`` is
    None after an eval forward, else one (stage, fusion) cache pair per stage.
    """

    bounds: tuple[int, ...]
    masks: list[Array]
    estimates: list[Array]
    caches: list[tuple] | None

    @property
    def n_items(self) -> int:
        return len(self.bounds) - 1


class MultiStageModel:
    def __init__(self, config: ModelConfig):
        """The model of ``config``, its init drawn from ``config.seed``."""
        self._lay_out(config)
        self.store.draw(np.random.default_rng(config.seed))

    @classmethod
    def layout(cls, config: ModelConfig) -> MultiStageModel:
        """The same model without the draw, for ``load_checkpoint`` to fill."""
        model = cls.__new__(cls)
        model._lay_out(config)
        return model

    def _lay_out(self, config: ModelConfig):
        self.config = config
        self.window = dsp.hann_window(config.fft_size, config.hop)
        self.store = store = ParamStore(config.parameter_counts()["total"])
        f = config.freq_bins
        self.stages = [
            Stage(store, f"stage{k + 1}", f, config.bottleneck, config.hidden,
                  config.kernel, config.stacks, config.blocks_per_stack)
            for k in range(config.stages)
        ]
        self.fusions = [
            FusionBlock(store, f"fusion{k}", f) for k in range(3, config.stages + 1)
        ]
        if store.count() != store.values.size:
            raise ValueError(f"layout fills {store.count()} of {store.values.size}")

    # -- forward ------------------------------------------------------------

    def _check_input(self, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.config.freq_bins:
            raise ValueError(
                f"expected ({self.config.freq_bins}, T) input, got {x.shape}"
            )
        if not np.all(np.isfinite(x)):
            raise ValueError("input magnitude contains non-finite values")
        if x.min() < 0:
            raise ValueError("input magnitude must be non-negative")
        return x

    def forward_batch(self, xs: list[Array], *, train: bool) -> BatchTrace:
        """Run all stages once over the packed mini-batch; ``train`` selects
        batch statistics and keeps the caches ``backward_batch`` needs."""
        if not xs:
            raise ValueError("empty batch")
        xs = [self._check_input(x) for x in xs]
        x = np.concatenate(xs, axis=1)
        bounds = (0, *itertools.accumulate(item.shape[1] for item in xs))
        masks: list[Array] = []
        estimates: list[Array] = [x]
        caches = []
        for k, stage in enumerate(self.stages, start=1):
            if k <= 2:  # stage 1 sees the input, stage 2 the first estimate
                xin, fusion_cache = estimates[k - 1], None
            else:
                xin, fusion_cache = self.fusions[k - 3].forward(
                    masks[k - 2] * x, estimates[k - 1], bounds, train=train
                )
            mask, stage_cache = stage.forward(xin, bounds, train=train)
            caches.append((stage_cache, fusion_cache))
            masks.append(mask)
            estimates.append(mask * estimates[k - 1])
        return BatchTrace(bounds, masks, estimates, caches if train else None)

    # -- backward -----------------------------------------------------------

    def backward_batch(self, trace: BatchTrace, cleans: list[Array]) -> Array:
        """Accumulate parameter gradients of the mean per-item total loss and
        return the packed gradient w.r.t. the inputs."""
        if trace.caches is None:
            raise ValueError("backward needs a trace from a train forward")
        cleans = _check_targets(trace, cleans)
        k_stages = self.config.stages
        x = trace.estimates[0]
        est = trace.estimates
        masks = trace.masks
        # each column is averaged over its own item's F x T_i entries
        t_items = np.diff(trace.bounds)
        counts = x.shape[0] * np.repeat(t_items, t_items)
        g_loss = nn.mean_abs_loss_backward(
            np.stack(est[1:]), np.concatenate(cleans, axis=1), counts
        )
        g_est = [np.zeros_like(x)] + list(g_loss * (1.0 / trace.n_items))
        g_masks = [np.zeros_like(x) for _ in range(k_stages)]
        gx = np.zeros_like(x)
        for k in range(k_stages, 0, -1):
            # est[k] = masks[k-1] * est[k-1]
            g_masks[k - 1] += g_est[k] * est[k - 1]
            g_est[k - 1] += g_est[k] * masks[k - 1]
            stage_cache, fusion_cache = trace.caches[k - 1]
            d_xin = self.stages[k - 1].backward(
                g_masks[k - 1], stage_cache, trace.bounds
            )
            if k == 1:
                gx += d_xin
            elif k == 2:
                g_est[1] += d_xin
            else:
                da, db = self.fusions[k - 3].backward(
                    d_xin, fusion_cache, trace.bounds
                )
                g_masks[k - 2] += da * x
                gx += da * masks[k - 2]
                g_est[k - 1] += db
        gx += g_est[0]
        return gx

    # -- inference ----------------------------------------------------------

    def analyze(self, x: dsp.Waveform) -> tuple[Array, Array]:
        """(F, T) magnitude and phase of ``x`` with one hop of zeros on each
        side, which keeps every real sample where frames fully overlap:
        overlap-add division is ill-conditioned for masked spectra where the
        window barely reaches."""
        if len(x) < self.config.fft_size:
            raise dsp.InputError(
                f"input length {len(x)} is shorter than one frame "
                f"({self.config.fft_size})"
            )
        hop = self.config.hop
        padded = np.concatenate([np.zeros(hop), x.samples, np.zeros(hop)])
        return dsp.stft(padded, self.window)

    def enhance(self, x: dsp.Waveform) -> tuple[dsp.Waveform, BatchTrace]:
        """``analyze``, mask through all stages, resynthesize with the input's
        own phase; returns the input-length waveform and the forward's trace."""
        mag, phase = self.analyze(x)
        trace = self.forward_batch([mag], train=False)
        hop = self.config.hop
        out = dsp.istft(trace.estimates[-1], phase, self.window, hop + len(x))
        return dsp.Waveform(out[hop:], x.sample_rate), trace


def _check_targets(trace: BatchTrace, cleans: list[Array]) -> list[Array]:
    """One clean magnitude per item, each shaped like its item."""
    if len(cleans) != trace.n_items:
        raise ValueError(f"{len(cleans)} targets for {trace.n_items} items")
    cleans = [np.asarray(clean, dtype=np.float64) for clean in cleans]
    f_bins = trace.estimates[0].shape[0]
    for i, (clean, t_item) in enumerate(zip(cleans, np.diff(trace.bounds))):
        if clean.shape != (f_bins, t_item):
            raise ValueError(
                f"target {i} has shape {clean.shape}, its item {(f_bins, int(t_item))}"
            )
    return cleans


def total_loss_batch(
    trace: BatchTrace, cleans: list[Array]
) -> tuple[list[float], list[float]]:
    """Stage means over the batch and per-item totals (equal item weight).

    Item i's stage-k loss is the mean absolute error of ``est[k]`` (already
    ``mask[k] * est[k-1]``) against ``cleans[i]``.
    """
    cleans = _check_targets(trace, cleans)
    items = nn.segments(trace.bounds, trace.estimates[0].shape[1])
    per_item_stage = [
        [nn.mean_abs_loss(est[:, lo:hi], clean) for est in trace.estimates[1:]]
        for (lo, hi), clean in zip(items, cleans)
    ]
    stage_means = [
        float(np.mean([row[k] for row in per_item_stage]))
        for k in range(len(per_item_stage[0]))
    ]
    item_totals = [float(sum(row)) for row in per_item_stage]
    return stage_means, item_totals
