"""Desk-scale objective metrics: SI-SDR, plain SNR, per-stage spectral error.

``si_sdr`` and ``snr_db`` score 1-D sample arrays; ``evaluate_set`` unwraps
the ``Waveform`` pairs it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .model import MultiStageModel, total_loss_batch

# Perfect reconstructions report +100 dB instead of infinity.
CAP_DB = 100.0
_RESIDUAL_REL_FLOOR = 1e-20


def si_sdr(est: np.ndarray, ref: np.ndarray) -> float:
    """Scale-invariant signal-to-distortion ratio in dB of two sample arrays.

    The estimate is projected onto the reference, so any positive rescaling
    of the estimate leaves the value unchanged.  Capped at +100 dB.
    """
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(ref @ ref)
    if ref_energy == 0.0:
        raise ValueError("reference is all zeros; SI-SDR undefined")
    alpha = float(est @ ref) / ref_energy
    proj = alpha * ref
    proj_energy = float(proj @ proj)
    resid = est - proj
    resid_energy = float(resid @ resid)
    if proj_energy == 0.0:
        return -CAP_DB
    if resid_energy <= _RESIDUAL_REL_FLOOR * proj_energy:
        return CAP_DB
    return float(min(10.0 * np.log10(proj_energy / resid_energy), CAP_DB))


def snr_db(est: np.ndarray, ref: np.ndarray) -> float:
    """Plain signal-to-noise ratio in dB of two sample arrays, capped at
    +100 dB."""
    if est.shape != ref.shape:
        raise ValueError(f"length mismatch: {est.shape} vs {ref.shape}")
    ref_energy = float(ref @ ref)
    if ref_energy == 0.0:
        raise ValueError("reference is all zeros; SNR undefined")
    noise = est - ref
    noise_energy = float(noise @ noise)
    if noise_energy <= _RESIDUAL_REL_FLOOR * ref_energy:
        return CAP_DB
    return float(min(10.0 * np.log10(ref_energy / noise_energy), CAP_DB))


@dataclass(frozen=True)
class MetricReport:
    """Per-item metrics plus aggregate means over a test set."""

    si_sdr_noisy: tuple[float, ...]
    si_sdr_enhanced: tuple[float, ...]
    snr_noisy: tuple[float, ...]
    snr_enhanced: tuple[float, ...]
    stage_l1: tuple[tuple[float, ...], ...]  # one row per item, one col per stage

    @property
    def n_items(self) -> int:
        return len(self.si_sdr_noisy)

    @property
    def n_stages(self) -> int:
        return len(self.stage_l1[0])

    def mean(self, values) -> float:
        return float(np.mean(values))

    def stage_l1_means(self) -> list[float]:
        return [float(np.mean([row[k] for row in self.stage_l1]))
                for k in range(self.n_stages)]

    def to_tsv(self) -> str:
        header = ["item", "si_sdr_noisy_db", "si_sdr_enhanced_db",
                  "snr_noisy_db", "snr_enhanced_db"]
        header += [f"stage{k + 1}_l1" for k in range(self.n_stages)]
        lines = ["\t".join(header)]
        for i in range(self.n_items):
            cols = [str(i), repr(self.si_sdr_noisy[i]), repr(self.si_sdr_enhanced[i]),
                    repr(self.snr_noisy[i]), repr(self.snr_enhanced[i])]
            cols += [repr(v) for v in self.stage_l1[i]]
            lines.append("\t".join(cols))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        mean_noisy = self.mean(self.si_sdr_noisy)
        mean_enh = self.mean(self.si_sdr_enhanced)
        lines = [
            f"items: {self.n_items}",
            f"mean_si_sdr_noisy_db: {mean_noisy!r}",
            f"mean_si_sdr_enhanced_db: {mean_enh!r}",
            f"si_sdr_improvement_db: {mean_enh - mean_noisy!r}",
            f"mean_snr_noisy_db: {self.mean(self.snr_noisy)!r}",
            f"mean_snr_enhanced_db: {self.mean(self.snr_enhanced)!r}",
        ]
        for k, v in enumerate(self.stage_l1_means(), start=1):
            lines.append(f"mean_stage{k}_spectral_l1: {v!r}")
        return "\n".join(lines) + "\n"


def evaluate_set(
    model: MultiStageModel, pairs: list[tuple[dsp.Waveform, dsp.Waveform]]
) -> MetricReport:
    """Enhance every (noisy, clean) pair and collect waveform and spectral
    metrics.  One forward per item: each stage-L1 row scores ``enhance``'s own
    trace against the clean magnitude framed the same way (``model.analyze``).
    """
    if not pairs:
        raise ValueError("cannot evaluate an empty set")
    si_noisy, si_enh, sn_noisy, sn_enh, stage_rows = [], [], [], [], []
    for noisy, clean in pairs:
        enhanced, trace = model.enhance(noisy)
        si_noisy.append(si_sdr(noisy.samples, clean.samples))
        si_enh.append(si_sdr(enhanced.samples, clean.samples))
        sn_noisy.append(snr_db(noisy.samples, clean.samples))
        sn_enh.append(snr_db(enhanced.samples, clean.samples))
        stage_l1, _ = total_loss_batch(trace, [model.analyze(clean)[0]])
        stage_rows.append(tuple(stage_l1))
    return MetricReport(
        tuple(si_noisy), tuple(si_enh), tuple(sn_noisy), tuple(sn_enh),
        tuple(stage_rows),
    )
