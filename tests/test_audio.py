import struct
import tracemalloc
import wave

import numpy as np
import pytest

from stagemask import InputError, cli, dsp
from stagemask.audio import (
    WavFormatError,
    mix_at_snr,
    read_manifest,
    read_wav,
    synth_toy_dataset,
    write_manifest,
    write_wav,
)


def _measured_snr(noisy, clean):
    noise = noisy.samples - clean.samples
    return 10.0 * np.log10(np.mean(clean.samples ** 2) / np.mean(noise ** 2))


class TestWavIO:
    def test_pcm16_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=999, dtype=np.int16)
        wf = dsp.Waveform(ints.astype(np.float64) / 32768.0, 16000)
        path = tmp_path / "x.wav"
        write_wav(path, wf)
        back = read_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, wf.samples)

    def test_float_round_trip_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(1)
        wf = dsp.Waveform(rng.uniform(-0.99, 0.99, size=500), 8000)
        path = tmp_path / "x.wav"
        write_wav(path, wf)
        back = read_wav(path)
        assert np.abs(back.samples - wf.samples).max() <= 1.0 / 32768.0

    def test_clipping_counted(self, tmp_path):
        wf = dsp.Waveform(np.array([0.0, 1.5, -2.0, 0.5, 1.0, -1.0]), 8000)
        write_wav(tmp_path / "c.wav", wf)
        back = read_wav(tmp_path / "c.wav").samples
        top = 32767 / 32768
        np.testing.assert_array_equal(back, [0.0, top, -1.0, 0.5, top, -1.0])

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(2)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(b"\x00\x00" * 64)
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(8000)
            fh.writeframes(b"\x00" * 32)
        with pytest.raises(WavFormatError, match="16-bit"):
            read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not a wav file at all")
        with pytest.raises(WavFormatError):
            read_wav(path)

    def test_sample_rate_surfaced(self, tmp_path):
        wf = dsp.Waveform(np.zeros(100), 16000)
        path = tmp_path / "r.wav"
        write_wav(path, wf)
        assert read_wav(path).sample_rate == 16000

    def test_zero_sample_rate_rejected(self, tmp_path, capsys):
        path = tmp_path / "r0.wav"
        write_wav(path, dsp.Waveform(np.zeros(600), 16000))
        data = bytearray(path.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        path.write_bytes(bytes(data))
        with pytest.raises(WavFormatError, match="sample rate") as exc:
            read_wav(path)
        assert str(path) in str(exc.value)
        rc = cli.run(["spec-dump", "--in", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert str(path) in capsys.readouterr().err

    @staticmethod
    def _chunk_past_end(path):
        # RIFF, WAVE, then an unknown chunk id whose size runs past the end
        path.write_bytes(bytes.fromhex(
            "52494646641fc70057415645fc6d74201000ff00"
            "01000100401f0000803e000002001000"
        ))

    @staticmethod
    def _odd_data_length(path):
        write_wav(path, synth_toy_dataset(1)[0].noisy)
        path.write_bytes(path.read_bytes()[:-1])  # half a sample at the end

    @pytest.mark.parametrize("case", ["chunk-past-end", "odd-data-length"])
    def test_malformed_wav_exits_2_naming_file(self, case, tmp_path, capsys):
        path = tmp_path / "bad.wav"
        {"chunk-past-end": self._chunk_past_end,
         "odd-data-length": self._odd_data_length}[case](path)
        with pytest.raises(WavFormatError, match="truncated") as exc:
            read_wav(path)
        rc = cli.run(["spec-dump", "--in", str(path), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert str(exc.value).startswith(f"{path}: ")

    def test_header_sizes_do_not_size_the_read(self, tmp_path):
        path = tmp_path / "claims-4gb.wav"
        write_wav(path, dsp.Waveform(np.full(5, 0.5), 8000))
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 0xFFFFFFF0)  # the RIFF chunk's size
        struct.pack_into("<I", data, 40, 0xFFFFFFF0)  # the data chunk's size
        path.write_bytes(bytes(data))
        tracemalloc.start()
        try:
            samples = read_wav(path).samples
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 1 << 20
        np.testing.assert_array_equal(samples, 0.5)


class TestMixAtSnr:
    def _signals(self, seed=2, n=4000):
        rng = np.random.default_rng(seed)
        clean = dsp.Waveform(np.sin(2 * np.pi * 440 * np.arange(n) / 8000) * 0.3, 8000)
        noise = dsp.Waveform(rng.standard_normal(n) * 0.2, 8000)
        return clean, noise

    def test_zero_snr_equalizes_power(self):
        clean, noise = self._signals()
        noisy = mix_at_snr(clean, noise, 0.0)
        scaled = noisy.samples - clean.samples
        p_clean = np.mean(clean.samples ** 2)
        p_noise = np.mean(scaled ** 2)
        assert abs(p_noise - p_clean) / p_clean < 1e-9

    def test_high_snr_is_nearly_clean(self):
        clean, noise = self._signals()
        noisy = mix_at_snr(clean, noise, 60.0)
        rel = np.linalg.norm(noisy.samples - clean.samples)
        rel /= np.linalg.norm(clean.samples)
        assert rel < 1.1e-3

    @pytest.mark.parametrize("snr", [-5.0, 0.0, 5.0, 10.0, 15.0])
    def test_measured_snr_matches_request(self, snr):
        clean, noise = self._signals(seed=3)
        noisy = mix_at_snr(clean, noise, snr)
        assert abs(_measured_snr(noisy, clean) - snr) < 1e-6

    def test_short_noise_tiled(self):
        clean, _ = self._signals()
        short = dsp.Waveform(np.random.default_rng(4).standard_normal(700) * 0.1, 8000)
        noisy = mix_at_snr(clean, short, 5.0)
        assert abs(_measured_snr(noisy, clean) - 5.0) < 1e-6

    def test_tiling_offset_seeded(self):
        # no random offset: short noise tiles from its first sample, every time
        clean, _ = self._signals()
        short = dsp.Waveform(np.random.default_rng(5).standard_normal(700) * 0.1, 8000)
        a = mix_at_snr(clean, short, 5.0)
        b = mix_at_snr(clean, short, 5.0)
        assert np.array_equal(a.samples, b.samples)
        tiled = np.tile(short.samples, 6)[: len(clean)]
        gain = np.sqrt(np.mean(clean.samples ** 2) / (np.mean(tiled ** 2) * 10 ** 0.5))
        assert np.array_equal(a.samples, clean.samples + gain * tiled)

    def test_scale_equivariance(self):
        clean, noise = self._signals()
        noisy = mix_at_snr(clean, noise, 7.0)
        scaled_clean = dsp.Waveform(2.0 * clean.samples, 8000)
        noisy2 = mix_at_snr(scaled_clean, noise, 7.0)
        assert abs(_measured_snr(noisy2, scaled_clean) - 7.0) < 1e-6
        np.testing.assert_allclose(
            noisy2.samples - scaled_clean.samples,
            2.0 * (noisy.samples - clean.samples),
            rtol=1e-12,
        )

    def test_silent_inputs_rejected(self):
        clean, noise = self._signals()
        silent = dsp.Waveform(np.zeros(len(clean)), 8000)
        with pytest.raises(ValueError):
            mix_at_snr(silent, noise, 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(clean, silent, 0.0)

    def test_rate_mismatch_rejected(self):
        clean, noise = self._signals()
        other = dsp.Waveform(noise.samples, 16000)
        with pytest.raises(ValueError):
            mix_at_snr(clean, other, 0.0)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf])
    def test_non_finite_snr_rejected(self, snr):
        clean, noise = self._signals()
        with pytest.raises(InputError, match="snr_db must be finite"):
            mix_at_snr(clean, noise, snr)


class TestSynthToyDataset:
    def test_deterministic_per_seed(self):
        a = synth_toy_dataset(3, seed=42)
        b = synth_toy_dataset(3, seed=42)
        for ia, ib in zip(a, b):
            assert np.array_equal(ia.clean.samples, ib.clean.samples)
            assert np.array_equal(ia.noisy.samples, ib.noisy.samples)
            assert ia.snr_db == ib.snr_db

    def test_different_seeds_differ(self):
        a = synth_toy_dataset(1, seed=1)[0]
        b = synth_toy_dataset(1, seed=2)[0]
        assert not np.array_equal(a.clean.samples, b.clean.samples)

    def test_recorded_snr_achieved(self):
        for item in synth_toy_dataset(6, seed=7):
            assert abs(_measured_snr(item.noisy, item.clean) - item.snr_db) < 1e-6
            assert item.snr_db in (0.0, 5.0)

    def test_clean_items_have_line_spectra(self):
        # at least 80% of the energy of every frame in at most 8 bins
        win = dsp.hann_window(128, 64)
        for item in synth_toy_dataset(4, seed=8):
            mag, _ = dsp.stft(item.clean.samples, win)
            power = mag ** 2
            for t in range(power.shape[1]):
                col = np.sort(power[:, t])[::-1]
                total = col.sum()
                if total == 0.0:
                    continue
                assert col[:8].sum() / total >= 0.8

    def test_zero_mean_signals(self):
        item = synth_toy_dataset(1, seed=9)[0]
        assert abs(item.clean.samples.mean()) < 1e-2

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            synth_toy_dataset(0)


class TestManifest:
    def test_round_trip(self, tmp_path):
        rows = [("c0.wav", "n0.wav", 5.0), ("c1.wav", "n1.wav", -5.0)]
        path = tmp_path / "manifest.tsv"
        write_manifest(path, rows)
        assert read_manifest(path) == rows

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("only_two\tcolumns\n")
        with pytest.raises(ValueError, match="3 tab-separated"):
            read_manifest(path)

    def test_bad_snr_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a.wav\tb.wav\tloud\n")
        with pytest.raises(ValueError, match="snr"):
            read_manifest(path)
