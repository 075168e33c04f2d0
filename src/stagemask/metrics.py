"""Desk-scale objective metrics: SI-SDR, plain SNR, per-stage spectral error."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dsp
from .model import MultiStageModel, total_loss_batch

# Perfect reconstructions report +100 dB instead of infinity.
CAP_DB = 100.0
_RESIDUAL_REL_FLOOR = 1e-20


def _samples(x) -> np.ndarray:
    return x.samples if isinstance(x, dsp.Waveform) else np.asarray(x, dtype=np.float64)


def si_sdr(est, ref) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is projected onto the reference, so any positive rescaling
    of the estimate leaves the value unchanged.  Capped at +100 dB.
    """
    e = _samples(est)
    r = _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {r.shape}")
    ref_energy = float(r @ r)
    if ref_energy == 0.0:
        raise ValueError("reference is all zeros; SI-SDR undefined")
    alpha = float(e @ r) / ref_energy
    proj = alpha * r
    proj_energy = float(proj @ proj)
    resid = e - proj
    resid_energy = float(resid @ resid)
    if proj_energy == 0.0:
        return -CAP_DB
    if resid_energy <= _RESIDUAL_REL_FLOOR * proj_energy:
        return CAP_DB
    return float(min(10.0 * np.log10(proj_energy / resid_energy), CAP_DB))


def snr_db(est, ref) -> float:
    """Plain signal-to-noise ratio of est against ref, capped at +100 dB."""
    e = _samples(est)
    r = _samples(ref)
    if e.shape != r.shape:
        raise ValueError(f"length mismatch: {e.shape} vs {r.shape}")
    ref_energy = float(r @ r)
    if ref_energy == 0.0:
        raise ValueError("reference is all zeros; SNR undefined")
    noise = e - r
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
        si_noisy.append(si_sdr(noisy, clean))
        si_enh.append(si_sdr(enhanced, clean))
        sn_noisy.append(snr_db(noisy, clean))
        sn_enh.append(snr_db(enhanced, clean))
        stage_l1, _ = total_loss_batch(trace, [model.analyze(clean)[0]])
        stage_rows.append(tuple(stage_l1))
    return MetricReport(
        tuple(si_noisy), tuple(si_enh), tuple(sn_noisy), tuple(sn_enh),
        tuple(stage_rows),
    )
