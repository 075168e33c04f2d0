"""In-memory span tracing installed around stagemask's public functions.

A span is one call of a wrapped function: name, start, end (perf_counter
nanoseconds), the index of the enclosing span (-1 at top level) and a request
id (-1 for set-up work, otherwise the index of the timed unit).  Wrappers are
installed from the benchmark's own files, at the names the callers look up:

- ``cli.fit`` and ``cli.load_checkpoint``, because ``cli`` imports them by
  name;
- ``train.*``, ``metrics.*``, ``audio.*``, ``dsp.*`` and ``nn.*`` on the
  module, because callers reach them through the module attribute or the
  defining module's globals;
- ``blocks`` and ``model`` methods, patched on the class.

Computed counters (pointwise-conv FLOP from shapes, elementwise bytes from
array sizes) are added only for spans inside timed units.  This module imports nothing heavy, so the
enhance child process can time ``import stagemask.cli`` on its own.
"""

from __future__ import annotations

import gzip
import json
import time

NN_FORWARD = (
    "pointwise_conv", "depthwise_dconv", "prelu", "batch_norm",
    "global_layer_norm", "softmax_columns", "sigmoid", "matmul", "mean_abs_loss",
)
NN_OPS = NN_FORWARD + tuple(f"{op}_backward" for op in NN_FORWARD)
# Ops whose cost is memory traffic; their bytes moved are computed from the
# sizes of the arrays they read and write.
ELEMENTWISE = {
    op for base in ("depthwise_dconv", "prelu", "batch_norm", "global_layer_norm",
                    "softmax_columns", "sigmoid")
    for op in (base, f"{base}_backward")
}
BLOCK_CLASSES = ("SABlock", "TCNBlock", "FusionBlock", "Stage")

# (module, attribute, span name); module is the stagemask submodule name.
FUNCTION_TARGETS = (
    ("cli", "fit", "train.fit"),
    ("cli", "load_checkpoint", "train.load_checkpoint"),
    ("train", "load_checkpoint", "train.load_checkpoint"),
    ("train", "adam_step", "train.adam_step"),
    ("train", "pad_batch", "train.pad_batch"),
    ("train", "batch_spectra", "train.batch_spectra"),
    ("train", "batch_losses_and_grads", "train.batch_losses_and_grads"),
    ("train", "save_checkpoint", "train.save_checkpoint"),
    ("metrics", "evaluate_set", "metrics.evaluate_set"),
    ("metrics", "si_sdr", "metrics.si_sdr"),
    ("metrics", "snr_db", "metrics.snr_db"),
    ("audio", "read_wav", "audio.read_wav"),
    ("audio", "write_wav", "audio.write_wav"),
    ("dsp", "stft", "dsp.stft"),
    ("dsp", "istft", "dsp.istft"),
) + tuple(("nn", op, f"nn.{op}") for op in NN_OPS)

# (module, class, method, span name).
METHOD_TARGETS = tuple(
    ("blocks", cls, method, f"blocks.{cls}.{method}")
    for cls in BLOCK_CLASSES for method in ("forward", "backward")
) + tuple(
    ("model", "MultiStageModel", method, f"model.{method}")
    for method in ("forward_batch", "backward_batch", "enhance")
)

IMPORT_SPAN = "cli.import"


def installed_names() -> set[str]:
    """Every span name the wrappers (plus the import span) can produce."""
    names = {name for _, _, name in FUNCTION_TARGETS}
    names |= {name for _, _, _, name in METHOD_TARGETS}
    names.add(IMPORT_SPAN)
    return names


_FORWARD = (
    {f"nn.{op}" for op in NN_FORWARD if op != "mean_abs_loss"}
    | {f"blocks.{cls}.forward" for cls in BLOCK_CLASSES}
    | {"model.forward_batch", "dsp.stft"}
)
# Spans each workload must fire (timed or in set-up).  Together they cover
# every installed name, so a renamed function cannot silently drop a layer.
EXPECTED = {
    "train-toy": _FORWARD
    | {f"nn.{op}" for op in NN_OPS}
    | {f"blocks.{cls}.backward" for cls in BLOCK_CLASSES}
    | {"model.backward_batch", "train.fit", "train.adam_step", "train.pad_batch",
       "train.batch_spectra", "train.batch_losses_and_grads",
       "train.save_checkpoint", "audio.read_wav"},
    "enhance-long": _FORWARD
    | {IMPORT_SPAN, "train.load_checkpoint", "audio.read_wav", "audio.write_wav",
       "model.enhance", "dsp.istft"},
    "eval-short": _FORWARD
    | {"nn.mean_abs_loss", "metrics.evaluate_set", "metrics.si_sdr", "metrics.snr_db",
       "model.enhance", "dsp.istft", "audio.read_wav", "train.load_checkpoint"},
}


def missing_spans(workload: str, summary: dict) -> list[str]:
    fired = set(summary["timed"]) | set(summary["setup"])
    return sorted(EXPECTED[workload] - fired)


def _nbytes(value) -> int:
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


def _pointwise_flop(args) -> float:
    x, weight = args[0], args[1]
    return 2.0 * weight.shape[0] * weight.shape[1] * x.shape[1]


class Tracer:
    """Collects spans in memory; ``request`` tags every span opened."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name_id, start, end, parent, request]
        self._stack: list[int] = []
        self.request = -1
        self.flop: dict[str, float] = {}
        self.bytes: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int):
        """Add a span measured outside the wrappers (e.g. a module import)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.name_id(name), start, end, parent, self.request])

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        flop = _pointwise_flop if name == "nn.pointwise_conv" else None
        moves_bytes = name[3:] in ELEMENTWISE if name.startswith("nn.") else False
        tracer = self

        def traced(*args, **kwargs):
            rec = [nid, clock(), 0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if rec[4] >= 0:
                if flop is not None:
                    tracer.flop[name] = tracer.flop.get(name, 0.0) + flop(args)
                if moves_bytes:
                    moved = sum(_nbytes(a) for a in args) + _nbytes(out)
                    tracer.bytes[name] = tracer.bytes.get(name, 0.0) + moved
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str):
        original = getattr(owner, attr)  # AttributeError names a renamed target
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        """Wrap every target; call ``uninstall`` to put the originals back."""
        import importlib

        mods = {}

        def mod(name):
            if name not in mods:
                mods[name] = importlib.import_module(f"stagemask.{name}")
            return mods[name]

        for module, attr, name in FUNCTION_TARGETS:
            self._patch(mod(module), attr, name)
        for module, cls, method, name in METHOD_TARGETS:
            self._patch(getattr(mod(module), cls), method, name)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- export / merge -----------------------------------------------------

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "flop": self.flop,
            "bytes": self.bytes,
        }

    def merge(self, data: dict):
        """Append spans exported by another process (the enhance child)."""
        remap = [self.name_id(n) for n in data["names"]]
        base = len(self.spans)
        for nid, start, end, parent, request in data["spans"]:
            self.spans.append(
                [remap[nid], start, end, parent + base if parent >= 0 else -1, request]
            )
        for src, dst in ((data["flop"], self.flop), (data["bytes"], self.bytes)):
            for name, value in src.items():
                dst[name] = dst.get(name, 0.0) + value

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(self.export(), fh)


def summarize(tracer: Tracer) -> dict:
    """Per-name totals over timed spans, and the same over set-up spans.

    Self time is a span's duration minus the time its direct children cover;
    calls of one process never overlap, so that is the sum of the children's
    durations.  ``top_ns`` sums the top-level timed spans, for coverage.
    """
    n = len(tracer.spans)
    child_ns = [0] * n
    for nid, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    timed: dict[str, dict] = {}
    setup: dict[str, dict] = {}
    top_ns = 0
    for i, (nid, start, end, parent, request) in enumerate(tracer.spans):
        table = timed if request >= 0 else setup
        row = table.setdefault(tracer.names[nid], {"calls": 0, "ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += end - start - child_ns[i]
        if parent < 0 and request >= 0:
            top_ns += end - start
    return {"timed": timed, "setup": setup, "top_ns": top_ns}
