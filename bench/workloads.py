"""The three benchmark workloads: set-up, one timed unit, correctness gate.

Each workload is a closed loop with one client in one process.  Inputs come
from ``synth_toy_dataset`` with seed ``variant = seed % VARIANTS``; the
program sees only the WAVs, manifest, config and checkpoint written here.

- ``train-toy``: one unit is ``stagemask train`` (``cli.run`` in this
  process) on the acceptance toy config, TRAIN_EPOCHS epochs over
  TRAIN_ITEMS 0.5 s / 8 kHz items.  An op is one optimizer step.
- ``enhance-long``: one unit is a fresh ``bench/child.py`` process that
  calls ``cli.run(["enhance", ...])`` on a 10 s / 16 kHz utterance with the
  paper-geometry checkpoint.  An op is one request, process start included.
- ``eval-short``: one unit reads the manifest's EVAL_ITEMS 0.5 s / 16 kHz
  pairs and calls ``evaluate_set`` with the paper checkpoint loaded during
  set-up.  An op is one item.

Correctness gates compare against ``reference.json`` (one entry per
variant, written by ``make_reference.py`` at the parent commit).  The
tolerances admit reduction-order changes in the last bits and reject wrong
results:

- training losses: relative 1e-5 (parameters are rounded to float32 after
  every Adam step, which absorbs last-bit gradient changes; perturbing every
  gradient by 1e-13 relative left 50 step losses bit-identical);
- enhanced PCM16 samples: 1 LSB at 256 fixed positions, and the sum of
  absolute sample values within 64 LSB (a last-bit change can only flip the
  rounding of a sample lying on a half-LSB boundary);
- eval SI-SDR/SNR, per item and as means: 1e-6 dB.

Stage-L1 values are not gated, because a planned change to
``evaluate_set`` (one forward per item) changes them by design.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import time
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stagemask import audio, cli, metrics, train

BENCH = Path(__file__).resolve().parent
VARIANTS = 32

TRAIN_EPOCHS = 10
TRAIN_ITEMS = 8
TRAIN_BATCH = 4
TOY_CONFIG = (
    "stages = 3\nhidden = 32\nbottleneck = 16\nstacks = 2\nblocks = 4\n"
    "kernel = 3\nfft_size = 128\nhop = 64\nseed = 11\n"
    f"lr = 0.0002\nbatch = {TRAIN_BATCH}\nepochs = {TRAIN_EPOCHS}\ntrain_seed = 3\n"
)
TRAIN_STAGES = 3
ENHANCE_SYNTH = audio.SynthConfig(duration=10.0, sample_rate=16000)
EVAL_ITEMS = 8
EVAL_SYNTH = audio.SynthConfig(duration=0.5, sample_rate=16000)

LOSS_RTOL = 1e-5
PCM_LSB_TOL = 1
PCM_ABS_SUM_TOL = 64
PCM_POSITIONS = 256
DB_TOL = 1e-6
CHILD_TIMEOUT_S = 120


@dataclass
class Unit:
    """One timed call: wall seconds, ops done, and the gate's verdict."""

    seconds: float
    ops: int
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    probe_s: float = 0.0  # mean machine-speed probe around the unit (calibrate.py)


def load_reference(variant: int) -> dict:
    with open(BENCH / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)["variants"][str(variant)]


def _write_pairs(directory: Path, items) -> Path:
    rows = []
    for i, item in enumerate(items):
        clean, noisy = f"clean_{i:03d}.wav", f"noisy_{i:03d}.wav"
        audio.write_wav(str(directory / clean), item.clean)
        audio.write_wav(str(directory / noisy), item.noisy)
        rows.append((clean, noisy, item.snr_db))
    manifest = directory / "manifest.tsv"
    audio.write_manifest(str(manifest), rows)
    return manifest


def make_paper_checkpoint(path: Path):
    """Seeded fresh paper-geometry weights, written by a child process so
    that building the model does not raise this process's peak RSS."""
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "make-checkpoint", "--out", str(path)],
        check=True, timeout=CHILD_TIMEOUT_S,
    )


# -- train-toy ----------------------------------------------------------------

class TrainToy:
    name = "train-toy"
    op = "step"
    check_unit = "training calls"
    items_per_op = TRAIN_BATCH

    def __init__(self):
        self.first_log: dict[int, str] = {}  # variant -> step log of its first call

    def setup(self, directory: Path, variant: int) -> dict:
        items = audio.synth_toy_dataset(TRAIN_ITEMS, seed=variant)
        manifest = _write_pairs(directory, items)
        config = directory / "toy.conf"
        config.write_text(TOY_CONFIG, encoding="utf-8")
        return {"manifest": manifest, "config": config,
                "ckpt": directory / "model.ckpt", "variant": variant}

    def run(self, state: dict, ref: dict, tracer=None) -> Unit:
        if state["ckpt"].exists():
            state["ckpt"].unlink()
        out = io.StringIO()
        argv = ["train", "--config", str(state["config"]),
                "--data", str(state["manifest"]), "--out", str(state["ckpt"])]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.run(argv)
        seconds = time.perf_counter() - start
        log = out.getvalue()
        steps, first, final, problems = check_train_log(log, rc, ref["train"])
        if log != self.first_log.setdefault(state["variant"], log):
            problems.append("step log differs from the first call of this process")
        info = {"final_loss": final, "first_loss": first,
                "ckpt_bytes": state["ckpt"].stat().st_size if state["ckpt"].exists() else 0,
                "problems": problems}
        return Unit(seconds, max(steps, 1), 1, int(bool(problems)), info)


def parse_train_log(log: str) -> list[tuple[int, int, float]]:
    """(epoch, step, total) per line; raises ValueError on a malformed line."""
    rows = []
    for line in log.splitlines():
        cols = line.split("\t")
        if len(cols) != 3 + TRAIN_STAGES:
            raise ValueError(f"expected {3 + TRAIN_STAGES} columns: {line!r}")
        rows.append((int(cols[0]), int(cols[1]), float(cols[-1])))
    return rows


def check_train_log(log: str, rc: int, ref: dict):
    problems = []
    if rc != 0:
        problems.append(f"train exited {rc}")
    try:
        rows = parse_train_log(log)
    except ValueError as exc:
        return 0, math.nan, math.nan, problems + [f"step log: {exc}"]
    steps_per_epoch = -(-TRAIN_ITEMS // TRAIN_BATCH)
    if len(rows) != TRAIN_EPOCHS * steps_per_epoch:
        problems.append(f"{len(rows)} steps, expected {TRAIN_EPOCHS * steps_per_epoch}")
    if [r[1] for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("step numbers are not 1..n")
    last = [r[2] for r in rows if r[0] == TRAIN_EPOCHS]
    if not rows or not last:
        return len(rows), math.nan, math.nan, problems + ["no final epoch in log"]
    first, final = rows[0][2], float(np.mean(last))
    if not final < first:
        problems.append(f"final loss {final!r} is not below first-step loss {first!r}")
    for key, value in (("first_loss", first), ("final_loss", final)):
        if not math.isclose(value, ref[key], rel_tol=LOSS_RTOL):
            problems.append(f"{key} {value!r} != reference {ref[key]!r}")
    return len(rows), first, final, problems


# -- enhance-long ---------------------------------------------------------------

class EnhanceLong:
    name = "enhance-long"
    op = "request"
    check_unit = "requests"
    items_per_op = 1

    def setup(self, directory: Path, variant: int) -> dict:
        item = audio.synth_toy_dataset(1, ENHANCE_SYNTH, seed=variant)[0]
        noisy = directory / "noisy.wav"
        audio.write_wav(str(noisy), item.noisy)
        ckpt = directory / "paper.ckpt"
        make_paper_checkpoint(ckpt)
        return {"ckpt": ckpt, "in": noisy, "out": directory / "enhanced.wav",
                "stats": directory / "stats.json", "length": len(item.noisy),
                "rate": item.noisy.sample_rate}

    def run(self, state: dict, ref: dict, tracer=None) -> Unit:
        """One fresh process; with a tracer, the child traces itself under
        the tracer's request id and its spans are merged in afterwards."""
        for path in (state["out"], state["stats"]):
            if path.exists():
                path.unlink()
        cmd = [sys.executable, str(BENCH / "child.py"), "enhance",
               "--stats", str(state["stats"])]
        if tracer is not None:
            cmd += ["--trace", "--request", str(tracer.request)]
        cmd += ["--", "enhance", "--ckpt", str(state["ckpt"]),
                "--in", str(state["in"]), "--out", str(state["out"])]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        seconds = time.perf_counter() - start
        problems = []
        stats = {}
        if proc.returncode != 0:
            problems.append(f"enhance exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        else:
            stats = json.loads(state["stats"].read_text(encoding="utf-8"))
            if tracer is not None:
                tracer.merge(stats.pop("trace"))
            problems += check_enhanced(state, ref)
        return Unit(seconds, 1, 1, int(bool(problems)), {"child": stats, "problems": problems})


def read_pcm(path: Path) -> tuple[np.ndarray, int]:
    """PCM16 samples and rate, read with the standard library rather than the
    program's own reader (which is traced)."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono PCM16")
        rate = fh.getframerate()
        frames = fh.readframes(fh.getnframes())
    return np.frombuffer(frames, dtype="<i2").astype(np.int64), rate


def pcm_fingerprint(pcm: np.ndarray, rate: int) -> dict:
    positions = np.linspace(0, len(pcm) - 1, PCM_POSITIONS).astype(np.int64)
    return {"length": len(pcm), "rate": rate,
            "samples": pcm[positions].tolist(), "abs_sum": int(np.abs(pcm).sum())}


def check_enhanced(state: dict, ref: dict) -> list[str]:
    if not state["out"].exists():
        return ["no output file"]
    got = pcm_fingerprint(*read_pcm(state["out"]))
    want = ref["enhance"]
    if got["length"] != state["length"] or got["rate"] != state["rate"]:
        return [f"output {got['length']} samples @ {got['rate']} Hz, input "
                f"{state['length']} @ {state['rate']}"]
    if (np.abs(np.subtract(got["samples"], want["samples"])).max() > PCM_LSB_TOL
            or abs(got["abs_sum"] - want["abs_sum"]) > PCM_ABS_SUM_TOL):
        return ["output differs from the reference beyond tolerance"]
    return []


# -- eval-short -------------------------------------------------------------------

EVAL_MEANS = ("si_sdr_noisy", "si_sdr_enhanced", "snr_noisy", "snr_enhanced")


class EvalShort:
    name = "eval-short"
    op = "item"
    check_unit = "items"
    items_per_op = 1

    def setup(self, directory: Path, variant: int) -> dict:
        items = audio.synth_toy_dataset(EVAL_ITEMS, EVAL_SYNTH, seed=variant)
        manifest = _write_pairs(directory, items)
        ckpt = directory / "paper.ckpt"
        make_paper_checkpoint(ckpt)
        model, _ = train.load_checkpoint(str(ckpt))
        return {"manifest": manifest, "model": model}

    def run(self, state: dict, ref: dict, tracer=None) -> Unit:
        base = state["manifest"].parent
        start = time.perf_counter()
        pairs = [
            (audio.read_wav(str(base / noisy)), audio.read_wav(str(base / clean)))
            for clean, noisy, _ in audio.read_manifest(str(state["manifest"]))
        ]
        report = metrics.evaluate_set(state["model"], pairs)
        seconds = time.perf_counter() - start
        bad_items, problems = check_report(report, ref["eval"])
        failed = EVAL_ITEMS if problems else len(bad_items)
        problems += [f"item {i}: si_sdr_enhanced differs from the reference"
                     for i in bad_items]
        return Unit(seconds, EVAL_ITEMS, EVAL_ITEMS, failed,
                    {"problems": problems, "means": report_means(report),
                     "si_sdr_enhanced": list(report.si_sdr_enhanced)})


def report_means(report) -> dict:
    return {key: report.mean(getattr(report, key)) for key in EVAL_MEANS}


def check_report(report, want: dict) -> tuple[list[int], list[str]]:
    """Items whose SI-SDR misses the reference, and problems that fail the
    whole call (item count, means)."""
    if report.n_items != EVAL_ITEMS:
        return [], [f"{report.n_items} items reported, manifest has {EVAL_ITEMS}"]
    bad_items = [
        i for i, (got, exp) in enumerate(zip(report.si_sdr_enhanced, want["si_sdr_enhanced"]))
        if not abs(got - exp) <= DB_TOL  # a NaN fails too
    ]
    problems = []
    for key, value in report_means(report).items():
        if not abs(value - want["means"][key]) <= DB_TOL:
            problems.append(f"mean {key} {value!r} != reference {want['means'][key]!r}")
    return bad_items, problems


WORKLOADS = {w.name: w for w in (TrainToy(), EnhanceLong(), EvalShort())}


def fresh_dir(parent: Path, name: str) -> Path:
    path = parent / name
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path

