import numpy as np
import pytest

from stagemask import dsp
from stagemask.audio import SynthConfig, synth_toy_dataset
from stagemask.metrics import evaluate_set, si_sdr, snr_db
from stagemask.model import ModelConfig, MultiStageModel, total_loss_batch

from reference import constant_masks, randomize_params


def _ref(seed=0, n=2048):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n)


class TestSiSdr:
    def test_identical_hits_cap(self):
        r = _ref()
        assert si_sdr(r, r) == 100.0

    def test_scaled_estimate_hits_cap(self):
        r = _ref()
        assert si_sdr(2.0 * r, r) == 100.0

    def test_orthogonal_noise_at_equal_energy_gives_zero_db(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(4096)
        raw = rng.standard_normal(4096)
        n = raw - (raw @ r) / (r @ r) * r  # Gram-Schmidt against r
        assert abs(n @ r) / (np.linalg.norm(n) * np.linalg.norm(r)) < 1e-12
        n *= np.linalg.norm(r) / np.linalg.norm(n)
        assert abs(si_sdr(r + n, r)) < 1e-9

    def test_power_of_two_scale_invariance_exact(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal(1024)
        e = r + 0.3 * rng.standard_normal(1024)
        base = si_sdr(e, r)
        for c in (2.0, 4.0, 0.5):
            assert si_sdr(c * e, r) == base

    def test_general_scale_invariance(self):
        rng = np.random.default_rng(3)
        r = rng.standard_normal(1024)
        e = r + 0.3 * rng.standard_normal(1024)
        assert abs(si_sdr(1.7 * e, r) - si_sdr(e, r)) < 1e-9

    def test_nonzero_residual_below_cap(self):
        rng = np.random.default_rng(4)
        r = rng.standard_normal(1024)
        e = r + 1e-4 * rng.standard_normal(1024)
        assert si_sdr(e, r) < 100.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(16), np.zeros(16))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            si_sdr(np.ones(16), np.ones(17))


class TestSnrDb:
    def test_identical_hits_cap(self):
        r = _ref(6)
        assert snr_db(r, r) == 100.0

    def test_constructed_ten_db(self):
        rng = np.random.default_rng(7)
        r = rng.standard_normal(2048)
        u = rng.standard_normal(2048)
        u /= np.linalg.norm(u)
        e = r + np.linalg.norm(r) * 10 ** (-0.5) * u
        assert abs(snr_db(e, r) - 10.0) < 1e-9

    def test_common_scaling_invariant(self):
        rng = np.random.default_rng(8)
        r = rng.standard_normal(512)
        e = r + 0.1 * rng.standard_normal(512)
        assert abs(snr_db(2.0 * e, 2.0 * r) - snr_db(e, r)) < 1e-12

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            snr_db(np.ones(8), np.zeros(8))

    def test_length_mismatch_rejected(self):
        # a (1,) reference would broadcast against the estimate
        with pytest.raises(ValueError, match="length mismatch"):
            snr_db(np.ones(8), np.ones(1))


class TestEvaluateSet:
    def _model_and_pairs(self):
        cfg = ModelConfig(stages=2, hidden=6, bottleneck=4, stacks=1,
                          blocks_per_stack=2, fft_size=64, hop=32, seed=1)
        model = MultiStageModel(cfg)
        items = synth_toy_dataset(3, SynthConfig(duration=0.25), seed=2)
        return model, [(it.noisy, it.clean) for it in items]

    def test_identity_hook_matches_noisy_metrics(self, monkeypatch):
        # fade edges like real recordings: the first sample falls under the
        # zero of the analysis window and cannot survive a round trip
        model, pairs = self._model_and_pairs()
        ramp = np.ones(len(pairs[0][0]))
        ramp[:16] = np.linspace(0.0, 1.0, 16)
        ramp[-16:] = np.linspace(1.0, 0.0, 16)
        faded = [
            (dsp.Waveform(noisy.samples * ramp, noisy.sample_rate),
             dsp.Waveform(clean.samples * ramp, clean.sample_rate))
            for noisy, clean in pairs
        ]
        constant_masks(monkeypatch, model, 1.0)
        report = evaluate_set(model, faded)
        for noisy_db, enh_db in zip(report.si_sdr_noisy, report.si_sdr_enhanced):
            assert abs(noisy_db - enh_db) < 0.01

    def test_one_forward_per_item(self, monkeypatch):
        model, pairs = self._model_and_pairs()
        batch_sizes = []
        forward_batch = model.forward_batch

        def counted(xs, *, train):
            batch_sizes.append(len(xs))
            return forward_batch(xs, train=train)

        monkeypatch.setattr(model, "forward_batch", counted)
        evaluate_set(model, pairs)
        assert batch_sizes == [1] * len(pairs)

    def test_stage_l1_scores_the_enhance_trace(self):
        # the clean target is framed like the enhanced input: one hop of
        # zeros on each side
        model, pairs = self._model_and_pairs()
        randomize_params(model.store, np.random.default_rng(3))
        report = evaluate_set(model, pairs)
        hop = model.config.hop
        win = dsp.hann_window(model.config.fft_size, hop)
        for row, (noisy, clean) in zip(report.stage_l1, pairs):
            _, trace = model.enhance(noisy)
            padded = np.concatenate([np.zeros(hop), clean.samples, np.zeros(hop)])
            target = dsp.stft(padded, win)[0]
            stage_l1, _ = total_loss_batch(trace, [target])
            assert row == tuple(stage_l1)

    def test_means_are_arithmetic_means(self):
        model, pairs = self._model_and_pairs()
        report = evaluate_set(model, pairs)
        assert report.mean(report.si_sdr_enhanced) == pytest.approx(
            sum(report.si_sdr_enhanced) / len(report.si_sdr_enhanced)
        )

    def test_report_shapes(self):
        model, pairs = self._model_and_pairs()
        report = evaluate_set(model, pairs)
        assert report.n_items == 3
        assert report.n_stages == 2
        assert len(report.stage_l1_means()) == 2

    def test_tsv_and_text_stable(self):
        model, pairs = self._model_and_pairs()
        r1 = evaluate_set(model, pairs)
        r2 = evaluate_set(model, pairs)
        assert r1.to_tsv() == r2.to_tsv()
        assert r1.to_text() == r2.to_text()
        assert r1.to_tsv().startswith("item\tsi_sdr_noisy_db")
        assert "si_sdr_improvement_db: " in r1.to_text()

    def test_empty_set_rejected(self):
        model, _ = self._model_and_pairs()
        with pytest.raises(ValueError):
            evaluate_set(model, [])
