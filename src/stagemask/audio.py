"""WAV persistence, SNR-controlled mixing, toy dataset synthesis, manifests.

Only mono PCM16 RIFF/WAVE files are handled.  Sample values map to [-1, 1]
by 1/32768 in both directions, so data that originated as int16 round-trips
bit-exactly; writing clamps to [-1, 1].  The toy corpus is a pure function of
its item count, ``SynthConfig`` (length and sample rate) and seed; the rest
of the generator is fixed by the module constants below.  Bad input raises
``InputError`` (``WavFormatError`` for WAV files), naming the file where
there is one.
"""

from __future__ import annotations

import io
import os
import wave
from dataclasses import dataclass

import numpy as np

from .dsp import InputError, Waveform, read_text, replacing, require_file

_SCALE = 32768.0


class WavFormatError(InputError):
    """File is not the mono PCM16 flavour this toolkit reads."""


def read_wav(path: str) -> Waveform:
    require_file(path)
    try:
        with wave.open(str(path), "rb") as fh:
            channels, width, rate, n_frames, _, _ = fh.getparams()
            # the file's size, not its header, bounds the read
            cap = os.path.getsize(path) // (channels * width)
            frames = fh.readframes(min(n_frames, cap))
    except wave.Error as exc:
        raise WavFormatError(f"{path}: malformed WAV container: {exc}") from exc
    except (EOFError, RuntimeError) as exc:  # RuntimeError: a chunk past the end
        raise WavFormatError(f"{path}: truncated WAV header") from exc
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise WavFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate <= 0:
        raise WavFormatError(f"{path}: sample rate must be positive, got {rate}")
    if len(frames) % 2:
        raise WavFormatError(f"{path}: truncated sample data ({len(frames)} bytes)")
    samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / _SCALE
    return Waveform(samples, rate)


def write_wav(path: str, wf: Waveform):
    """Write mono PCM16; amplitudes are clamped to [-1, 1]."""
    q = np.clip(np.round(np.clip(wf.samples, -1.0, 1.0) * _SCALE), -32768, 32767)
    with replacing(path, fsync=False) as out, wave.open(out, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wf.sample_rate)
        fh.writeframes(q.astype("<i2").tobytes())


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Scale the noise so the clean-to-noise power ratio hits snr_db exactly.

    Powers are mean squares over the full clean span.  Noise shorter than the
    clean signal is tiled cyclically from its first sample.
    """
    if clean.sample_rate != noise.sample_rate:
        raise InputError(
            f"sample rate mismatch: {clean.sample_rate} vs {noise.sample_rate}"
        )
    if not np.isfinite(snr_db):
        raise InputError(f"snr_db must be finite, got {snr_db}")
    n = len(clean)
    noise_seg = noise.samples
    if not noise_seg.size:
        raise InputError("noise signal is empty; SNR undefined")
    if len(noise_seg) < n:
        noise_seg = np.tile(noise_seg, -(-n // len(noise_seg)))
    noise_seg = noise_seg[:n]
    p_clean = float(np.mean(clean.samples ** 2))
    p_noise = float(np.mean(noise_seg ** 2))
    if p_clean == 0.0:
        raise InputError("clean signal is silent; SNR undefined")
    if p_noise == 0.0:
        raise InputError("noise signal is silent; SNR undefined")
    gain = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    return Waveform(clean.samples + gain * noise_seg, clean.sample_rate)


# The toy corpus: tones sit well above the noise corner so the mixture is
# separable by time-frequency masking, the way speech lines stand out of
# low-frequency ambient noise.
_SYNTH_SNRS = (0.0, 5.0)
_SYNTH_F0_RANGE = (420.0, 620.0)
_SYNTH_TONE_COUNTS = (2, 4)
_SYNTH_CLEAN_RMS = 0.12
_SYNTH_NOISE_CORNER_RANGE = (120.0, 250.0)
_SYNTH_NOISE_FLOOR = 0.02


@dataclass(frozen=True)
class SynthConfig:
    """Length and sample rate of every toy item."""

    duration: float = 0.5
    sample_rate: int = 8000


@dataclass(frozen=True)
class ToyItem:
    clean: Waveform
    noisy: Waveform
    snr_db: float


def synth_toy_dataset(
    n: int, cfg: SynthConfig = SynthConfig(), seed: int = 0
) -> list[ToyItem]:
    """Harmonic-tone clean signals mixed with low-pass filtered white noise.

    Clean items are sums of 2-4 harmonics of a random fundamental, each with
    a slow amplitude envelope, which gives sparse line spectra.  Noise is
    white Gaussian shaped by a low-pass magnitude profile with a random
    corner frequency plus a small broadband floor.  Everything is drawn from
    one seeded generator, so the dataset is a pure function of (n, cfg,
    seed).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    length = int(round(cfg.duration * cfg.sample_rate))
    t = np.arange(length) / cfg.sample_rate
    freqs = np.fft.rfftfreq(length, 1.0 / cfg.sample_rate)
    items = []
    for _ in range(n):
        n_tones = int(rng.integers(_SYNTH_TONE_COUNTS[0], _SYNTH_TONE_COUNTS[1] + 1))
        f0 = rng.uniform(*_SYNTH_F0_RANGE)
        sig = np.zeros(length)
        for k in range(1, n_tones + 1):
            amp = rng.uniform(0.5, 1.0) / k
            env_rate = rng.uniform(0.5, 2.0)
            env_phase = rng.uniform(0.0, 2.0 * np.pi)
            env = 0.55 + 0.45 * np.sin(2.0 * np.pi * env_rate * t + env_phase)
            sig += amp * env * np.sin(2.0 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
        sig *= _SYNTH_CLEAN_RMS / np.sqrt(np.mean(sig ** 2))
        clean = Waveform(sig, cfg.sample_rate)

        corner = rng.uniform(*_SYNTH_NOISE_CORNER_RANGE)
        profile = _SYNTH_NOISE_FLOOR + 1.0 / (1.0 + (freqs / corner) ** 3)
        white = rng.standard_normal(length)
        shaped = np.fft.irfft(np.fft.rfft(white) * profile, n=length)
        noise = Waveform(shaped, cfg.sample_rate)

        snr_db = float(_SYNTH_SNRS[int(rng.integers(len(_SYNTH_SNRS)))])
        noisy = mix_at_snr(clean, noise, snr_db)
        items.append(ToyItem(clean, noisy, snr_db))
    return items


# -- dataset manifest: clean_path<TAB>noisy_path<TAB>snr_db -------------------

def write_manifest(path: str, rows: list[tuple[str, str, float]]):
    with replacing(path, fsync=False) as fh:
        for clean_path, noisy_path, snr_db in rows:
            fh.write(f"{clean_path}\t{noisy_path}\t{snr_db!r}\n".encode("utf-8"))


def read_manifest(path: str) -> list[tuple[str, str, float]]:
    rows = []
    for lineno, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputError(
                f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}"
            )
        try:
            snr_db = float(parts[2])
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad snr value {parts[2]!r}") from exc
        rows.append((parts[0], parts[1], snr_db))
    return rows
