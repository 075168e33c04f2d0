"""STFT analysis and overlap-add synthesis on plain sample arrays.

``stft`` takes a 1-D sample array and returns the (F, T) magnitude and phase
arrays; ``istft`` takes such a pair back to samples.  ``Waveform`` is the
audio I/O type (WAV files, ``enhance``, metrics) and is unwrapped before the
STFT.  Framing is left-aligned (no centering): frame ``tau`` covers samples
``tau*hop .. tau*hop + n - 1``, and the signal tail is zero-padded so the
final partial frame is complete.  Synthesis applies the analysis window a
second time and divides by the accumulated per-sample sum of squared window
values, which makes the round trip exact wherever the window coverage is
non-degenerate, for any window/hop combination.

``InputError`` is the one type for bad input from outside the program; every
reader raises it naming its file, and the CLI maps it to exit code 2.  Every
writer goes through ``replacing``, so no file is left half-written.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np


class InputError(ValueError):
    """A file, manifest row or argument from outside the program is unusable."""


def require_file(path: str):
    if not os.path.isfile(path):
        raise InputError(f"{path}: file not found")


def read_text(path: str) -> str:
    """The UTF-8 text of an input file."""
    require_file(path)
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 at byte offset {exc.start}") from exc


@contextlib.contextmanager
def replacing(path: str, *, fsync: bool):
    """A binary temp file renamed onto ``path`` once the block completes, so
    a failure at any point leaves the previous file and no temp file behind;
    ``fsync`` also makes the data durable before the rename."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# Per-sample floor for the overlap-add normalization denominator.
_DENOM_FLOOR = 1e-8


@dataclass(frozen=True)
class Waveform:
    """1-D sampled audio signal, nominal amplitude range [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if int(self.sample_rate) <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self):
        return self.samples.shape[0]


@dataclass(frozen=True)
class AnalysisWindow:
    """Window coefficients plus the hop used to slide it."""

    coefficients: np.ndarray
    hop: int

    def __post_init__(self):
        w = np.asarray(self.coefficients, dtype=np.float64)
        if w.ndim != 1 or w.shape[0] < 2:
            raise ValueError("window needs at least 2 coefficients")
        if not np.all(np.isfinite(w)):
            raise ValueError("window contains non-finite coefficients")
        if w.min() < 0.0 or w.max() > 1.0:
            raise ValueError("window coefficients must lie in [0, 1]")
        if np.max(np.abs(w - w[::-1])) > 1e-12:
            raise ValueError("window must be symmetric")
        if int(self.hop) < 1:
            raise ValueError(f"hop must be >= 1, got {self.hop}")
        object.__setattr__(self, "coefficients", w)
        object.__setattr__(self, "hop", int(self.hop))

    def __len__(self):
        return self.coefficients.shape[0]


def hann_window(n: int, hop: int) -> AnalysisWindow:
    """Symmetric Hann window ``w[t] = sin^2(pi*t/(n-1))`` slid by ``hop``.

    The second half is mirrored from the first, so the symmetry
    ``w[t] == w[n-1-t]`` holds exactly.
    """
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    half = np.sin(np.pi * np.arange((n + 1) // 2) / (n - 1)) ** 2
    if n % 2 == 0:
        w = np.concatenate([half, half[::-1]])
    else:
        w = np.concatenate([half, half[:-1][::-1]])
    return AnalysisWindow(w, hop)


def frame_count(n_samples: int, win: AnalysisWindow) -> int:
    """Number of analysis frames for a signal, tail padding included."""
    n = len(win)
    if n_samples < n:
        raise InputError(f"signal length {n_samples} is shorter than one frame ({n})")
    return 1 + math.ceil((n_samples - n) / win.hop)


def padded_length(n_samples: int, win: AnalysisWindow) -> int:
    """Length after zero-padding the tail so the last frame is complete."""
    return (frame_count(n_samples, win) - 1) * win.hop + len(win)


def stft(samples: np.ndarray, win: AnalysisWindow) -> tuple[np.ndarray, np.ndarray]:
    """Windowed DFT of every frame of a 1-D sample array.

    Returns ``(mag, phase)``, two (F, T) arrays with F = n/2 + 1; the phase
    of zero-magnitude bins is 0.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {x.shape}")
    n = len(win)
    xp = np.zeros(padded_length(len(x), win))
    xp[: len(x)] = x
    frames = np.lib.stride_tricks.sliding_window_view(xp, n)[:: win.hop]
    spec = np.fft.rfft(frames * win.coefficients, axis=1)
    return np.abs(spec).T, np.angle(spec).T


def istft(
    mag: np.ndarray, phase: np.ndarray, win: AnalysisWindow, out_len: int
) -> np.ndarray:
    """Inverse DFT per (F, T) frame, windowed overlap-add, per-sample
    normalization; returns the first ``out_len`` samples.

    Divides by the accumulated sum of squared window values (floored at 1e-8,
    so edge samples with vanishing coverage decay to zero instead of blowing
    up).  Raises ValueError when out_len extends past the last frame.
    """
    if mag.shape != phase.shape:
        raise ValueError(f"magnitude shape {mag.shape} != phase shape {phase.shape}")
    n = len(win)
    if mag.ndim != 2 or mag.shape[0] != n // 2 + 1:
        raise ValueError(f"expected ({n // 2 + 1}, T) spectra, got {mag.shape}")
    t_frames = mag.shape[1]
    span = (t_frames - 1) * win.hop + n
    if out_len > span:
        raise ValueError(
            f"requested {out_len} samples but frames only cover {span}"
        )

    frames = np.fft.irfft(mag * np.exp(1j * phase), n=n, axis=0)
    out = np.zeros(span)
    denom = np.zeros(span)
    w = win.coefficients
    w_sq = w * w
    for tau in range(t_frames):
        s = tau * win.hop
        out[s : s + n] += w * frames[:, tau]
        denom[s : s + n] += w_sq
    out /= np.maximum(denom, _DENOM_FLOOR)
    return out[:out_len]
