import math

import numpy as np
import pytest

from stagemask import dsp
from stagemask.model import ModelConfig, MultiStageModel

from reference import naive_dft


def _rand_samples(rng, n):
    return rng.standard_normal(n) * 0.1


class TestHannWindow:
    def test_endpoint_zero(self):
        win = dsp.hann_window(512, 256)
        assert win.coefficients[0] == 0.0
        assert win.coefficients[-1] == 0.0

    def test_symmetry_exact(self):
        w = dsp.hann_window(512, 256).coefficients
        assert np.array_equal(w, w[::-1])

    def test_small_window_value(self):
        # sin^2(pi/3) = 3/4 at t=1 for a 4-point window
        w = dsp.hann_window(4, 2).coefficients
        assert w[1] == pytest.approx(0.75, abs=1e-15)

    def test_matches_formula(self):
        n = 33
        w = dsp.hann_window(n, n // 2).coefficients
        expected = [math.sin(math.pi * t / (n - 1)) ** 2 for t in range(n)]
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dsp.hann_window(1, 1)


class TestStft:
    def test_zero_input_zero_mag_zero_phase(self):
        mag, phase = dsp.stft(np.zeros(1024), dsp.hann_window(128, 64))
        assert np.all(mag == 0.0)
        assert np.all(phase == 0.0)

    def test_bin_count(self):
        mag, _ = dsp.stft(np.zeros(2048), dsp.hann_window(512, 256))
        assert mag.shape[0] == 257

    def test_cosine_peaks_at_its_bin(self):
        n, hop, k = 128, 64, 5
        t = np.arange(n * 6)
        mag, _ = dsp.stft(np.cos(2 * np.pi * k * t / n), dsp.hann_window(n, hop))
        # frames fully inside the signal (last frame may cover padding)
        for tau in range(mag.shape[1] - 1):
            assert int(np.argmax(mag[:, tau])) == k

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(3)
        n, hop = 16, 8
        x = _rand_samples(rng, 40)
        win = dsp.hann_window(n, hop)
        mag, phase = dsp.stft(x, win)
        xp = np.zeros(dsp.padded_length(len(x), win))
        xp[: len(x)] = x
        for tau in range(mag.shape[1]):
            frame = [
                win.coefficients[i] * xp[tau * hop + i] for i in range(n)
            ]
            spec = naive_dft(frame)
            for w in range(n // 2 + 1):
                assert abs(abs(spec[w]) - mag[w, tau]) < 1e-9

    def test_parseval_per_frame(self):
        rng = np.random.default_rng(4)
        n = 32
        x = _rand_samples(rng, n)
        win = dsp.hann_window(n, n // 2)
        mag, _ = dsp.stft(x, win)
        windowed = win.coefficients * x
        time_energy = float(np.sum(windowed ** 2))
        m = mag[:, 0]
        spec_energy = (m[0] ** 2 + m[-1] ** 2 + 2 * np.sum(m[1:-1] ** 2)) / n
        assert abs(spec_energy - time_energy) / time_energy < 1e-9

    def test_linear_in_amplitude(self):
        rng = np.random.default_rng(5)
        x = _rand_samples(rng, 1000)
        win = dsp.hann_window(128, 64)
        mag1, ph1 = dsp.stft(x, win)
        mag2, ph2 = dsp.stft(2.5 * x, win)
        np.testing.assert_allclose(mag2, 2.5 * mag1, rtol=1e-12)
        nonzero = mag1 > 1e-12
        np.testing.assert_allclose(ph2[nonzero], ph1[nonzero], atol=1e-9)

    def test_rectangular_window_dc_frame(self):
        n = 64
        win = dsp.AnalysisWindow(np.ones(n), n)
        mag, _ = dsp.stft(np.ones(n), win)
        assert mag[0, 0] == pytest.approx(n, rel=1e-12)
        assert np.all(mag[1:, 0] < 1e-9)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            dsp.stft(np.zeros(100), dsp.hann_window(128, 64))

    def test_two_d_samples_rejected(self):
        # a (1, n) array would otherwise be read as a 1-sample signal
        with pytest.raises(ValueError, match="1-D"):
            dsp.stft(np.zeros((1, 512)), dsp.hann_window(128, 64))


class TestIstft:
    def test_round_trip_interior(self):
        rng = np.random.default_rng(6)
        win = dsp.hann_window(512, 256)
        for _ in range(3):
            n = int(rng.integers(4 * 512, 6 * 512))
            x = _rand_samples(rng, n)
            mag, phase = dsp.stft(x, win)
            y = dsp.istft(mag, phase, win, len(x))
            interior = slice(512, n - 512)
            err = np.linalg.norm(y[interior] - x[interior])
            err /= np.linalg.norm(x[interior])
            assert err < 1e-6

    def test_zero_magnitude_gives_zero(self):
        zeros = np.zeros((65, 10))
        y = dsp.istft(zeros, zeros, dsp.hann_window(128, 64), 500)
        assert np.all(y == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = _rand_samples(rng, 2000)
        win = dsp.hann_window(128, 64)
        mag, phase = dsp.stft(x, win)
        y1 = dsp.istft(mag, phase, win, len(x))
        y2 = dsp.istft(2.0 * mag, phase, win, len(x))
        np.testing.assert_allclose(y2, 2.0 * y1, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsp.istft(
                np.zeros((65, 10)), np.zeros((65, 9)), dsp.hann_window(128, 64), 100
            )

    def test_beyond_span_rejected(self):
        zeros = np.zeros((65, 10))
        span = 9 * 64 + 128
        with pytest.raises(ValueError, match="frames only cover"):
            dsp.istft(zeros, zeros, dsp.hann_window(128, 64), span + 1)


class TestTypes:
    def test_waveform_rejects_nan(self):
        with pytest.raises(ValueError):
            dsp.Waveform(np.array([0.0, np.nan]), 8000)

    def test_spectrogram_rejects_negative(self):
        # magnitudes out of the STFT are never negative; the model's input
        # check rejects one that is
        x = _rand_samples(np.random.default_rng(8), 600)
        mag, _ = dsp.stft(x, dsp.hann_window(16, 8))
        assert mag.min() >= 0.0
        model = MultiStageModel(ModelConfig(stages=1, hidden=2, bottleneck=2, stacks=1,
                                            blocks_per_stack=1, fft_size=16, hop=8))
        with pytest.raises(ValueError, match="non-negative"):
            model.forward_batch([-mag], train=False)

    def test_spectrogram_bin_count_checked(self):
        zeros = np.zeros((64, 4))
        with pytest.raises(ValueError, match="65"):
            dsp.istft(zeros, zeros, dsp.hann_window(128, 64), 100)

    def test_public_names_resolve(self):
        import stagemask

        missing = [name for name in stagemask.__all__ if not hasattr(stagemask, name)]
        assert missing == []

    @pytest.mark.parametrize("samples, rate, problem", [
        (np.zeros((2, 8)), 8000, "1-D"),
        (np.zeros(8), 0, "sample_rate"),
        (np.zeros(8), -8000, "sample_rate"),
    ], ids=["two-d", "zero-rate", "negative-rate"])
    def test_waveform_rejects_shape_and_rate(self, samples, rate, problem):
        with pytest.raises(ValueError, match=problem):
            dsp.Waveform(samples, rate)

    def test_window_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            dsp.AnalysisWindow(np.array([0.0, 0.5, 1.0, 0.2]), 2)

    @pytest.mark.parametrize("coefficients, hop, problem", [
        ([1.0], 1, "at least 2"),
        ([[0.5, 0.5], [0.5, 0.5]], 1, "at least 2"),
        ([0.5, np.nan, 0.5], 1, "non-finite"),
        ([0.5, 1.5, 0.5], 1, r"\[0, 1\]"),
        ([-0.5, 1.0, -0.5], 1, r"\[0, 1\]"),
        ([0.5, 1.0, 0.5], 0, "hop"),
    ], ids=["one-coefficient", "two-d", "nan", "above-one", "negative", "hop-0"])
    def test_window_checks(self, coefficients, hop, problem):
        with pytest.raises(ValueError, match=problem):
            dsp.AnalysisWindow(np.array(coefficients), hop)

    def test_frame_count_formula(self):
        win = dsp.hann_window(512, 256)
        # (4000 - 512) / 256 = 13.625 -> padded to 14 hops + window
        assert dsp.frame_count(4000, win) == 15
        assert dsp.padded_length(4000, win) == 14 * 256 + 512
