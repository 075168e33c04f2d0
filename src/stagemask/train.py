"""Adam optimization, zero-padded batching, the training loop, checkpoints.

Each mini-batch runs as one packed forward/backward over its items'
magnitudes (see ``model``), with gradients scaled by 1/batch, which makes the
batch objective exactly the mean of per-item losses.  Each padded item is
trimmed back to its own frame count before packing, so padding can never leak
into losses or statistics.  Adam updates the store's flat parameter vector
with a few whole-vector operations.  A bad checkpoint file raises
``FormatError``, an ``InputError`` naming the file and the problem's offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import dsp
from .model import FieldError, ModelConfig, MultiStageModel, total_loss_batch
from .nn import Array, ParamStore

CHECKPOINT_MAGIC = b"SATCN001"


class FormatError(dsp.InputError):
    """Malformed checkpoint file; carries the byte offset of the problem."""

    def __init__(self, path: str, problem: str, offset: int):
        super().__init__(f"{path}: {problem} (offset {offset})")
        self.offset = offset


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch: int = 16
    epochs: int = 80
    seed: int = 0
    clip_norm: float | None = None

    def __post_init__(self):
        for name in ("lr", "eps", "clip_norm"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise FieldError((name,), f"must be finite, got {value}")
        checks = (
            ("lr", self.lr >= 0, "be >= 0"),
            ("beta1", 0 < self.beta1 < 1, "lie in (0, 1)"),
            ("beta2", 0 < self.beta2 < 1, "lie in (0, 1)"),
            ("eps", self.eps > 0, "be positive"),
            ("batch", self.batch >= 1, "be >= 1"),
            ("epochs", self.epochs >= 1, "be >= 1"),
            ("seed", self.seed >= 0, "be >= 0"),
            ("clip_norm", self.clip_norm is None or self.clip_norm > 0, "be positive"),
        )
        for name, ok, rule in checks:
            if not ok:
                raise FieldError((name,), f"must {rule}, got {getattr(self, name)}")


class AdamState:
    """First/second moment vectors laid out like the store's flat parameter
    vector (``ParamStore.views`` splits them by name), plus step count."""

    def __init__(self, store: ParamStore):
        self.m = np.zeros_like(store.values)
        self.v = np.zeros_like(store.values)
        self.step = 0


def adam_step(store: ParamStore, state: AdamState, cfg: TrainConfig):
    """One bias-corrected Adam update; gradients are zeroed afterwards."""
    values, grads = store.values, store.grads
    if not np.isfinite(grads).all():
        name = next(n for n, p in store.params() if not np.isfinite(p.grad).all())
        raise ValueError(f"non-finite gradient in parameter {name}")
    if cfg.clip_norm is not None:
        norm = math.sqrt(grads @ grads)
        if norm > cfg.clip_norm:
            grads *= cfg.clip_norm / norm
    state.step += 1
    bc1 = 1.0 - cfg.beta1 ** state.step
    bc2 = 1.0 - cfg.beta2 ** state.step
    state.m *= cfg.beta1
    state.m += (1.0 - cfg.beta1) * grads
    state.v *= cfg.beta2
    state.v += (1.0 - cfg.beta2) * grads ** 2
    values -= cfg.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + cfg.eps)
    values[...] = values.astype(np.float32)  # keep values on the float32 grid
    grads[...] = 0.0


@dataclass
class PaddedBatch:
    """Equal-length sample arrays plus each item's true length."""

    noisy: Array  # (n, max_len)
    clean: Array
    lengths: np.ndarray
    sample_rate: int


def pad_batch(items: list[tuple[dsp.Waveform, dsp.Waveform]]) -> PaddedBatch:
    """Zero-pad every (noisy, clean) pair to the longest utterance."""
    if not items:
        raise ValueError("cannot pad an empty batch")
    rates = {noisy.sample_rate for noisy, _ in items} | {
        clean.sample_rate for _, clean in items
    }
    if len(rates) != 1:
        raise ValueError(f"mixed sample rates in batch: {sorted(rates)}")
    for noisy, clean in items:
        if len(noisy) != len(clean):
            raise ValueError(
                f"noisy/clean length mismatch: {len(noisy)} vs {len(clean)}"
            )
    lengths = np.array([len(noisy) for noisy, _ in items], dtype=np.int64)
    max_len = int(lengths.max())
    noisy_arr = np.zeros((len(items), max_len))
    clean_arr = np.zeros((len(items), max_len))
    for i, (noisy, clean) in enumerate(items):
        noisy_arr[i, : len(noisy)] = noisy.samples
        clean_arr[i, : len(clean)] = clean.samples
    return PaddedBatch(noisy_arr, clean_arr, lengths, items[0][0].sample_rate)


@dataclass(frozen=True)
class StepRecord:
    epoch: int
    step: int
    stage_losses: tuple[float, ...]
    total: float

    def line(self) -> str:
        cols = [str(self.epoch), str(self.step)]
        cols += [repr(v) for v in self.stage_losses]
        cols.append(repr(self.total))
        return "\t".join(cols)


def batch_spectra(
    batch: PaddedBatch, win: dsp.AnalysisWindow
) -> tuple[list, list]:
    """Magnitudes of every item trimmed back to its own frame count, so
    batch padding cannot reach losses or statistics."""
    xs, cleans = [], []
    for i in range(batch.noisy.shape[0]):
        t_frames = dsp.frame_count(int(batch.lengths[i]), win)
        xs.append(dsp.stft(batch.noisy[i], win)[0][:, :t_frames])
        cleans.append(dsp.stft(batch.clean[i], win)[0][:, :t_frames])
    return xs, cleans


def batch_losses_and_grads(
    model: MultiStageModel, batch: PaddedBatch, win: dsp.AnalysisWindow
) -> tuple[list[float], float]:
    """One batched forward/backward; gradients of the mean per-item total
    loss accumulate into the model.  Returns per-stage means and the mean
    total."""
    xs, cleans = batch_spectra(batch, win)
    trace = model.forward_batch(xs, train=True)
    stage_means, item_totals = total_loss_batch(trace, cleans)
    model.backward_batch(trace, cleans)
    return stage_means, float(np.mean(item_totals))


def fit(
    model: MultiStageModel,
    dataset: list[tuple[dsp.Waveform, dsp.Waveform]],
    cfg: TrainConfig,
    checkpoint_path: str,
) -> list[StepRecord]:
    """Seeded-shuffle epoch loop over (noisy, clean) pairs.

    The model with the best epoch-mean total loss seen so far is kept at
    ``checkpoint_path``; on divergence the last good file is preserved and
    TrainingDivergedError is raised.
    """
    if not dataset:
        raise ValueError("dataset is empty")
    rng = np.random.default_rng(cfg.seed)
    state = AdamState(model.store)
    records: list[StepRecord] = []
    best_total = float("inf")
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(dataset))
        epoch_totals = []
        for start in range(0, len(dataset), cfg.batch):
            chunk = order[start : start + cfg.batch]
            batch = pad_batch([dataset[i] for i in chunk])
            stage_means, total_mean = batch_losses_and_grads(model, batch, model.window)
            step += 1
            if not np.isfinite(total_mean):
                raise TrainingDivergedError(
                    f"total loss became non-finite at epoch {epoch} step {step}"
                )
            adam_step(model.store, state, cfg)
            records.append(StepRecord(epoch, step, tuple(stage_means), total_mean))
            epoch_totals.append(total_mean)
        epoch_mean = float(np.mean(epoch_totals))
        if epoch_mean < best_total:
            best_total = epoch_mean
            save_checkpoint(model, checkpoint_path, state)
    return records


# ---------------------------------------------------------------------------
# checkpoint format: little-endian binary
#   magic "SATCN001"
#   8 x int32: the config's _HEADER_FIELDS, in that order
#   1 x int64: seed
#   1 x int32: tensor count
#   per tensor: int32 name length, UTF-8 name, int32 rank, rank x int32 extents,
#               float32 data (row-major)
# The tensors are exactly those of ``_tensors``, in its order.
# ---------------------------------------------------------------------------

_HEADER_FIELDS = ("stages", "hidden", "bottleneck", "stacks", "blocks_per_stack",
                  "kernel", "fft_size", "hop")


def _tensors(model: MultiStageModel, state: AdamState | None):
    """(name, array) of every tensor a checkpoint holds, in file order:
    parameters in store order, then buffers, then with optimizer state the
    Adam moments under "adam.m." / "adam.v." prefixes and a 1-element
    "adam.step"."""
    store = model.store
    yield from ((name, p.value) for name, p in store.params())
    yield from store.buffers()
    if state is not None:
        yield from ((f"adam.m.{name}", m) for name, m in store.views(state.m))
        yield from ((f"adam.v.{name}", v) for name, v in store.views(state.v))
        yield "adam.step", np.array([float(state.step)])


def _tensor_bytes(name: str, value: Array) -> bytes:
    encoded = name.encode("utf-8")
    parts = [struct.pack("<i", len(encoded)), encoded]
    parts.append(struct.pack("<i", value.ndim))
    parts.append(struct.pack(f"<{value.ndim}i", *value.shape))
    parts.append(np.ascontiguousarray(value, dtype="<f4").tobytes())
    return b"".join(parts)


def save_checkpoint(
    model: MultiStageModel, path: str, state: AdamState | None = None
):
    """Write the checkpoint atomically and durably (``dsp.replacing``)."""
    cfg = model.config
    tensors = list(_tensors(model, state))
    fields = (getattr(cfg, name) for name in _HEADER_FIELDS)
    with dsp.replacing(path, fsync=True) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<8iqi", *fields, cfg.seed, len(tensors)))
        for name, value in tensors:
            fh.write(_tensor_bytes(name, value))


class _Reader:
    def __init__(self, path: str, data: bytes):
        self.path = path
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise FormatError(self.path, f"truncated: needed {n} bytes, had "
                              f"{len(self.data) - self.offset}", self.offset)
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def i4(self) -> int:
        return struct.unpack("<i", self.take(4))[0]

    def i8(self) -> int:
        return struct.unpack("<q", self.take(8))[0]


def load_checkpoint(path: str) -> tuple[MultiStageModel, AdamState | None]:
    """Rebuild a model (and optionally its optimizer state) from a file.

    The file must hold exactly the tensors ``_tensors`` lists for the
    header's config, in that order, with matching shapes and finite values,
    and nothing after the last one.
    """
    dsp.require_file(path)
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(path, data)
    if r.take(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
        raise FormatError(path, "bad magic", 0)
    fields = dict(zip(_HEADER_FIELDS, struct.unpack("<8i", r.take(32))))
    seed = r.i8()
    try:
        config = ModelConfig(**fields, seed=seed)
    except ValueError as exc:
        raise FormatError(
            path, f"invalid config: {exc}", len(CHECKPOINT_MAGIC)
        ) from exc
    count_at = r.offset
    n_tensors = r.i4()
    if n_tensors < 0:
        raise FormatError(path, f"negative tensor count {n_tensors}", count_at)
    table = []  # (offset, name, float32 view of the file)
    for _ in range(n_tensors):
        at = r.offset
        name_len = r.i4()
        if name_len <= 0:
            raise FormatError(path, f"bad name length {name_len}", at)
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                path, "tensor name is not UTF-8", r.offset - name_len + exc.start
            ) from exc
        rank = r.i4()
        if rank < 0:
            raise FormatError(path, f"bad rank {rank} for {name}", r.offset - 4)
        extents_at = r.offset
        extents = struct.unpack(f"<{rank}i", r.take(4 * rank))
        for j, extent in enumerate(extents):
            if extent < 0:
                raise FormatError(
                    path, f"negative extent {extent} for {name}", extents_at + 4 * j
                )
        count = math.prod(extents)
        values = np.frombuffer(r.take(4 * count), dtype="<f4")
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            at_bad = r.offset - 4 * (count - bad)
            raise FormatError(
                path, f"non-finite value {values[bad]} in {name}", at_bad
            )
        table.append((at, name, values.reshape(extents)))
    end = len(data)
    if r.offset != end:
        raise FormatError(path, f"{end - r.offset} trailing bytes", r.offset)
    # the header alone must not size an allocation: check it against the table
    floats = sum(v.size for _, name, v in table if not name.startswith("adam."))
    if floats != config.state_floats:
        raise FormatError(
            path, f"tensors hold {floats} model values, the header's config "
            f"needs {config.state_floats}", end,
        )
    model = MultiStageModel.layout(config)
    n_model = len(model.store.params()) + len(model.store.buffers())
    # optimizer state, when present, follows the model's own tensors
    state = AdamState(model.store) if n_tensors > n_model else None
    layout = list(_tensors(model, state))
    if n_tensors != len(layout):
        raise FormatError(
            path, f"expected {len(layout)} tensors, found {n_tensors}", count_at
        )
    for (at, name, values), (want, dest) in zip(table, layout):
        if name != want or values.shape != dest.shape:
            raise FormatError(
                path, f"expected {want} {dest.shape}, found {name} {values.shape}", at
            )
        dest[...] = values  # the one float32 -> float64 copy
    if state is not None:  # the last tensor, adam.step, is now filled in
        step = layout[-1][1][0]
        if step < 0 or not step.is_integer():
            raise FormatError(
                path, f"adam.step must hold one non-negative integer, got {step}",
                table[-1][0],
            )
        state.step = int(step)
    return model, state
