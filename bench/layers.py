"""Per-layer metrics derived from a traced run, normalised per op.

An op is a training step (train-toy), a request (enhance-long) or an item
(eval-short).  ``all_metrics`` gives every named per-layer number for the
printed table and the record file.  ``JSON_PER_LAYER`` is the subset printed
in the result line and listed in BENCHMARK.json, by one rule: an entry is
listed only if it is nonzero on every workload, since every workload must
report every listed metric and a time that reads 0 on every run would read
as unmeasured.  Layers only some workloads reach (backward ops, Adam, ISTFT,
checkpoint I/O, metrics) are in the table and the record only.
Set-up spans (request id -1) are kept apart: on eval-short the checkpoint
load is set-up work and feeds ``setup_s``.
"""

from __future__ import annotations

from spans import BLOCK_CLASSES, ELEMENTWISE, IMPORT_SPAN, NN_FORWARD, NN_OPS

# Forward nn ops every workload runs; enhance-long computes no loss.
_EVERY_WORKLOAD = [op for op in NN_FORWARD if op != "mean_abs_loss"]

JSON_PER_LAYER = (
    [("cli.import_ms", "ms"), ("audio.read_wav.ms", "ms"), ("dsp.stft.ms", "ms"),
     ("nn.self_ms", "ms")]
    + [(f"nn.{op}.self_ms", "ms") for op in _EVERY_WORKLOAD]
    + [(f"blocks.{cls}.forward.self_ms", "ms") for cls in BLOCK_CLASSES]
    + [("model.forward_batch.self_ms", "ms"),
       ("nn.pointwise_conv.gflop_per_s", "GFLOP/s"),
       ("nn.calls", "count")]
    + [(f"nn.{op}.calls", "count") for op in _EVERY_WORKLOAD]
    + [("dsp.stft.calls", "count"), ("model.forward_batch.calls_per_item", "count"),
       ("nn.pointwise_conv.gflop", "GFLOP"), ("nn.elementwise.gbytes_computed", "GB"),
       ("trace.coverage_pct", "%"), ("trace.overhead_pct", "%")]
)

# Units of the counts that must repeat exactly on two runs of one seed.
DETERMINISTIC_UNITS = ("count", "bytes", "GFLOP", "GB")


def all_metrics(summary: dict, tracer, ops: int, items: int, wall_s: float,
                import_ms: float, overhead_pct: float, ckpt_bytes: int) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    timed, setup = summary["timed"], summary["setup"]

    def total(name, key="ns"):
        return timed.get(name, {}).get(key, 0)

    def ms(name, key="ns"):
        return total(name, key) / 1e6 / ops

    def calls(name):
        return total(name, "calls") / ops

    out: dict[str, tuple[float, str]] = {}
    if IMPORT_SPAN in timed:
        import_ms = total(IMPORT_SPAN) / 1e6 / total(IMPORT_SPAN, "calls")
    out["cli.import_ms"] = (import_ms, "ms")
    load = "train.load_checkpoint"
    if load in timed:
        out[f"{load}.ms"] = (total(load) / 1e6 / total(load, "calls"), "ms")
    elif load in setup:
        out[f"{load}.ms"] = (setup[load]["ns"] / 1e6 / setup[load]["calls"], "ms")
    else:
        out[f"{load}.ms"] = (0.0, "ms")
    for name in ("audio.read_wav", "audio.write_wav", "dsp.stft", "dsp.istft"):
        out[f"{name}.ms"] = (ms(name), "ms")
        out[f"{name}.calls"] = (calls(name), "count")

    nn_names = [f"nn.{op}" for op in NN_OPS]
    out["nn.calls"] = (sum(calls(n) for n in nn_names), "count")
    out["nn.self_ms"] = (sum(ms(n, "self_ns") for n in nn_names), "ms")
    for name in nn_names:
        out[f"{name}.self_ms"] = (ms(name, "self_ns"), "ms")
        out[f"{name}.calls"] = (calls(name), "count")
    flop = tracer.flop.get("nn.pointwise_conv", 0.0)
    conv_ns = total("nn.pointwise_conv", "self_ns")
    out["nn.pointwise_conv.gflop"] = (flop / 1e9 / ops, "GFLOP")
    out["nn.pointwise_conv.gflop_per_s"] = (flop / conv_ns if conv_ns else 0.0, "GFLOP/s")
    moved = sum(tracer.bytes.get(f"nn.{op}", 0.0) for op in ELEMENTWISE)
    out["nn.elementwise.gbytes_computed"] = (moved / 1e9 / ops, "GB")

    for cls in BLOCK_CLASSES:
        for method in ("forward", "backward"):
            name = f"blocks.{cls}.{method}"
            out[f"{name}.self_ms"] = (ms(name, "self_ns"), "ms")
    out["model.forward_batch.self_ms"] = (ms("model.forward_batch", "self_ns"), "ms")
    out["model.forward_batch.calls_per_item"] = (
        total("model.forward_batch", "calls") / items, "count")
    out["model.backward_batch.ms"] = (ms("model.backward_batch"), "ms")
    out["model.enhance.ms"] = (ms("model.enhance"), "ms")
    out["model.enhance.first_call_ms"] = (_first_call_ms(tracer, "model.enhance"), "ms")

    out["train.adam_step.ms"] = (ms("train.adam_step"), "ms")
    out["train.adam_step.calls"] = (calls("train.adam_step"), "count")
    out["train.batch_prep.ms"] = (ms("train.pad_batch") + ms("train.batch_spectra"), "ms")
    out["train.save_checkpoint.ms"] = (ms("train.save_checkpoint"), "ms")
    out["train.save_checkpoint.bytes"] = (
        float(ckpt_bytes) if "train.save_checkpoint" in timed else 0.0, "bytes")
    out["metrics.evaluate_set.self_ms"] = (ms("metrics.evaluate_set", "self_ns"), "ms")
    out["metrics.si_sdr.ms"] = (ms("metrics.si_sdr"), "ms")

    out["trace.coverage_pct"] = (100.0 * summary["top_ns"] / 1e9 / wall_s, "%")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def _first_call_ms(tracer, name: str) -> float:
    if name not in tracer.names:
        return 0.0
    nid = tracer.names.index(name)
    for span_nid, start, end, _, request in tracer.spans:
        if span_nid == nid and request >= 0:
            return (end - start) / 1e6
    return 0.0


def span_table(summary: dict, ops: int) -> list[tuple[str, float, float, float]]:
    """(name, calls/op, ms/op, self ms/op) for every timed span, by self time."""
    rows = [
        (name, row["calls"] / ops, row["ns"] / 1e6 / ops, row["self_ns"] / 1e6 / ops)
        for name, row in summary["timed"].items()
    ]
    return sorted(rows, key=lambda r: -r[3])
