import hashlib
import math
import os
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stagemask import cli, dsp, nn
from stagemask.audio import synth_toy_dataset, write_manifest, write_wav
from stagemask.model import ModelConfig, MultiStageModel, total_loss_batch
from stagemask.train import (
    CHECKPOINT_MAGIC,
    AdamState,
    FormatError,
    TrainConfig,
    adam_step,
    batch_losses_and_grads,
    batch_spectra,
    fit,
    load_checkpoint,
    pad_batch,
    save_checkpoint,
)

from reference import zero_grads

TOY = ModelConfig(
    stages=2, hidden=6, bottleneck=4, stacks=1, blocks_per_stack=2,
    fft_size=64, hop=32, seed=3,
)


FIXTURES = Path(__file__).parent / "fixtures"
# toy_satcn001.ckpt was written by the per-tensor implementation that preceded
# the flat parameter buffer: ModelConfig(stages=3, hidden=8, bottleneck=4,
# stacks=1, blocks_per_stack=2, kernel=3, fft_size=32, hop=16, seed=21) fit
# with TrainConfig(lr=1e-3, batch=2, epochs=2, seed=4) on the first 3 items of
# synth_toy_dataset(4, SynthConfig(duration=0.25), seed=31); toy_noisy.wav is
# the 4th item's noisy mix.  The same code recorded both digests below.
FIXTURE_TENSORS_SHA256 = "2ab86d69230a9b28042552f7865565d1618678e711c18f2bd82b404389fa611c"
FIXTURE_ENHANCE_SHA256 = "08e08c3615da89ab0386557b3c37e13adfc114fba646875c2c4a7abc2ea83ebf"


def _toy_pairs(n=4, seed=0, duration=0.2):
    from stagemask.audio import SynthConfig

    items = synth_toy_dataset(n, SynthConfig(duration=duration), seed=seed)
    return [(it.noisy, it.clean) for it in items]


class TestAdam:
    def test_zero_gradients_leave_parameters(self):
        store = nn.ParamStore(2)
        p = store.constant("w", (2,), 0.0)
        p.value[...] = [1.0, -2.0]
        state = AdamState(store)
        before = p.value.copy()
        adam_step(store, state, TrainConfig())
        assert np.array_equal(p.value, before)
        assert state.step == 1

    def test_first_step_moves_by_lr(self):
        store = nn.ParamStore(1)
        p = store.constant("w", (1,), 1.0)
        state = AdamState(store)
        cfg = TrainConfig(lr=2e-4)
        p.grad[...] = 0.5
        adam_step(store, state, cfg)
        # bias-corrected first step is lr * g / (|g| + eps) ~ lr, minus
        # float32 storage rounding
        assert abs((1.0 - p.value[0]) - cfg.lr) < 1e-6

    def test_nan_gradient_aborts_with_name(self):
        store = nn.ParamStore(4)
        store.constant("good", (2,), 0.0)
        bad = store.constant("layer.bad", (2,), 0.0)
        bad.grad[0] = np.nan
        with pytest.raises(ValueError, match="layer.bad"):
            adam_step(store, AdamState(store), TrainConfig())

    def test_gradients_zeroed_after_step(self):
        store = nn.ParamStore(3)
        p = store.constant("w", (3,), 1.0)
        p.grad[...] = 1.0
        adam_step(store, AdamState(store), TrainConfig())
        assert np.all(p.grad == 0.0)

    def test_deterministic_across_runs(self):
        def run():
            store = nn.ParamStore(5)
            p = store.constant("w", (5,), 0.0)
            p.value[...] = nn.f32_clean(np.linspace(-1, 1, 5))
            state = AdamState(store)
            rng = np.random.default_rng(4)
            for _ in range(10):
                p.grad[...] = rng.standard_normal(5)
                adam_step(store, state, TrainConfig(lr=1e-3))
            return p.value

        assert np.array_equal(run(), run())

    def test_clip_norm_scales_gradients(self):
        store = nn.ParamStore(4)
        p = store.constant("w", (4,), 0.0)
        state = AdamState(store)
        p.grad[...] = 3.0  # norm 6
        adam_step(store, state, TrainConfig(clip_norm=1.0))
        # after clipping all coordinates still move equally
        assert np.all(p.value == p.value[0])
        assert p.value[0] != 0.0


def _per_tensor_adam(values, grads, m, v, step, cfg):
    """The former per-tensor Adam loop, kept as the reference; updates the
    name-keyed dicts in place."""
    if cfg.clip_norm is not None:
        norm = sum(float((g ** 2).sum()) for g in grads.values()) ** 0.5
        if norm > cfg.clip_norm:
            for g in grads.values():
                g *= cfg.clip_norm / norm
    bc1 = 1.0 - cfg.beta1 ** step
    bc2 = 1.0 - cfg.beta2 ** step
    for name, g in grads.items():
        m[name] *= cfg.beta1
        m[name] += (1.0 - cfg.beta1) * g
        v[name] *= cfg.beta2
        v[name] += (1.0 - cfg.beta2) * g ** 2
        update = cfg.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + cfg.eps)
        values[name] = nn.f32_clean(values[name] - update)


class TestFlatAdamMatchesPerTensorLoop:
    SHAPES = {"a.weight": (5, 3), "a.bias": (5,), "b.kernel": (4, 3), "delta": (1,)}

    def _run(self, cfg, steps=6):
        rng = np.random.default_rng(17)
        store = nn.ParamStore(sum(math.prod(shape) for shape in self.SHAPES.values()))
        for name, shape in self.SHAPES.items():
            store.constant(name, shape, 0.0).value[...] = nn.f32_clean(
                rng.standard_normal(shape))
        state = AdamState(store)
        values = {name: p.value.copy() for name, p in store.params()}
        m = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        v = {name: np.zeros(shape) for name, shape in self.SHAPES.items()}
        for step in range(1, steps + 1):
            grads = {name: rng.standard_normal(shape) * 3.0
                     for name, shape in self.SHAPES.items()}
            for name, p in store.params():
                p.grad[...] = grads[name]
            adam_step(store, state, cfg)
            _per_tensor_adam(values, grads, m, v, step, cfg)
        new = {name: p.value for name, p in store.params()}
        return (new, dict(store.views(state.m)), dict(store.views(state.v))), (values, m, v)

    def test_bit_equal_without_clipping(self):
        got, want = self._run(TrainConfig(lr=1e-2))
        for got_d, want_d in zip(got, want):
            for name in self.SHAPES:
                np.testing.assert_array_equal(got_d[name], want_d[name])

    def test_close_with_clipping(self):
        # the norm's summation order changed: moments agree to a few float64
        # ulps, values to one float32 ulp (a rounding may flip)
        got, want = self._run(TrainConfig(lr=1e-2, clip_norm=1.0))
        (values, m, v), (ref_values, ref_m, ref_v) = got, want
        for name in self.SHAPES:
            np.testing.assert_allclose(m[name], ref_m[name], rtol=1e-12, atol=0)
            np.testing.assert_allclose(v[name], ref_v[name], rtol=1e-12, atol=0)
            np.testing.assert_allclose(values[name], ref_values[name], rtol=2.0 ** -23)


class TestPadBatch:
    def test_equal_lengths_no_padding(self):
        pairs = _toy_pairs(n=3, seed=1)
        batch = pad_batch(pairs)
        assert batch.noisy.shape == (3, len(pairs[0][0]))
        assert np.all(batch.lengths == len(pairs[0][0]))

    def test_unequal_lengths_padded_to_longest(self):
        rng = np.random.default_rng(2)
        a = dsp.Waveform(rng.standard_normal(3200) * 0.1, 16000)
        b = dsp.Waveform(rng.standard_normal(4800) * 0.1, 16000)
        batch = pad_batch([(a, a), (b, b)])
        assert batch.noisy.shape == (2, 4800)
        assert list(batch.lengths) == [3200, 4800]
        assert np.all(batch.noisy[0, 3200:] == 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pad_batch([])

    def _mixed_length_pairs(self, seed=5):
        rng = np.random.default_rng(seed)
        pairs = []
        for n in (400, 640, 1000):
            noisy = dsp.Waveform(np.abs(rng.standard_normal(n)) * 0.1, 8000)
            clean = dsp.Waveform(np.abs(rng.standard_normal(n)) * 0.1, 8000)
            pairs.append((noisy, clean))
        return pairs

    def test_batch_loss_equals_mean_of_item_losses(self):
        # padding must not leak into the loss: process items of different
        # lengths together and individually (eval mode, where batch
        # composition cannot couple items), compare exactly
        model = MultiStageModel(TOY)
        win = dsp.hann_window(64, 32)
        pairs = self._mixed_length_pairs()
        batch = pad_batch(pairs)
        xs, cleans = batch_spectra(batch, win)
        trace = model.forward_batch(xs, train=False)
        _, item_totals = total_loss_batch(trace, cleans)
        batch_total = np.mean(item_totals)
        singles = []
        for noisy, clean in pairs:
            x_mag, _ = dsp.stft(noisy.samples, win)
            s_mag, _ = dsp.stft(clean.samples, win)
            single = model.forward_batch([x_mag], train=False)
            singles.append(total_loss_batch(single, [s_mag])[1][0])
        assert abs(batch_total - np.mean(singles)) < 1e-12

    def test_train_mode_losses_ignore_padding(self):
        # same batch with and without tail padding gives identical train-mode
        # losses: trimming restores each item's own frames exactly
        model = MultiStageModel(TOY)
        win = dsp.hann_window(64, 32)
        pairs = self._mixed_length_pairs(seed=15)
        batch = pad_batch(pairs)
        xs_padded, cleans_padded = batch_spectra(batch, win)
        xs_direct, cleans_direct = [], []
        for noisy, clean in pairs:
            xs_direct.append(dsp.stft(noisy.samples, win)[0])
            cleans_direct.append(dsp.stft(clean.samples, win)[0])
        for a, b in zip(xs_padded, xs_direct):
            assert np.array_equal(a, b)
        trace_padded = model.forward_batch(xs_padded, train=True)
        stage_a, totals_a = total_loss_batch(trace_padded, cleans_padded)
        trace_direct = model.forward_batch(xs_direct, train=True)
        stage_b, totals_b = total_loss_batch(trace_direct, cleans_direct)
        assert totals_a == totals_b
        assert stage_a == stage_b

    def test_appending_silence_leaves_losses_unchanged(self):
        rng = np.random.default_rng(6)
        model = MultiStageModel(TOY)
        win = dsp.hann_window(64, 32)
        noisy = dsp.Waveform(np.abs(rng.standard_normal(500)) * 0.1, 8000)
        clean = dsp.Waveform(np.abs(rng.standard_normal(500)) * 0.1, 8000)

        def masked_loss(noisy_samples, clean_samples, valid_len):
            t_frames = dsp.frame_count(valid_len, win)
            x_mag, _ = dsp.stft(noisy_samples, win)
            s_mag, _ = dsp.stft(clean_samples, win)
            trace = model.forward_batch([x_mag[:, :t_frames]], train=False)
            return total_loss_batch(trace, [s_mag[:, :t_frames]])[1][0]

        loss_plain = masked_loss(noisy.samples, clean.samples, 500)
        # silence arrives as batch padding next to a longer companion item
        longer = dsp.Waveform(np.zeros(900), 8000)
        longer_clean = dsp.Waveform(
            np.abs(np.random.default_rng(7).standard_normal(900)) * 0.1, 8000
        )
        batch = pad_batch([(noisy, clean), (longer, longer_clean)])
        loss_padded = masked_loss(batch.noisy[0], batch.clean[0], int(batch.lengths[0]))
        assert abs(loss_padded - loss_plain) < 1e-6


class TestFit:
    def test_zero_lr_keeps_losses_constant(self, tmp_path):
        # whole dataset as one batch: shuffling then only reorders the
        # concatenation feeding the norm statistics
        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=4, seed=8)
        records = fit(model, pairs, TrainConfig(lr=0.0, batch=4, epochs=3, seed=1),
                      str(tmp_path / "best.ckpt"))
        totals = [r.total for r in records]
        np.testing.assert_allclose(totals, totals[0], rtol=1e-12)

    def test_log_has_expected_step_count(self, tmp_path):
        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=5, seed=9)
        records = fit(model, pairs, TrainConfig(batch=2, epochs=3, seed=1),
                      str(tmp_path / "best.ckpt"))
        assert len(records) == 3 * 3  # ceil(5/2) = 3 batches per epoch

    def test_loss_decreases_on_toy_data(self, tmp_path):
        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=4, seed=10)
        records = fit(model, pairs, TrainConfig(batch=4, epochs=40, seed=2),
                      str(tmp_path / "best.ckpt"))
        assert records[-1].total < records[0].total

    def test_single_small_step_decreases_frozen_batch_loss(self):
        # 10 random inits, lr tiny, allow one failure
        pairs = _toy_pairs(n=2, seed=11)
        win = dsp.hann_window(64, 32)
        failures = 0
        for seed in range(10):
            cfg = ModelConfig(stages=2, hidden=6, bottleneck=4, stacks=1,
                              blocks_per_stack=2, fft_size=64, hop=32, seed=seed)
            model = MultiStageModel(cfg)
            batch = pad_batch(pairs)
            _, before = batch_losses_and_grads(model, batch, win)
            adam_step(model.store, AdamState(model.store), TrainConfig(lr=1e-5))
            zero_grads(model.store)
            _, after = batch_losses_and_grads(model, batch, win)
            zero_grads(model.store)
            if after >= before:
                failures += 1
        assert failures <= 1

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            fit(MultiStageModel(TOY), [], TrainConfig(), str(tmp_path / "best.ckpt"))

    def test_divergence_stops_and_keeps_last_checkpoint(self, tmp_path, monkeypatch):
        import stagemask.train as train_mod

        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=2, seed=16)
        path = tmp_path / "best.ckpt"
        calls = {"n": 0}
        real = train_mod.batch_losses_and_grads

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 4:
                return [float("nan")] * TOY.stages, float("nan")
            return real(*args, **kwargs)

        monkeypatch.setattr(train_mod, "batch_losses_and_grads", flaky)
        with pytest.raises(train_mod.TrainingDivergedError):
            fit(model, pairs, TrainConfig(batch=1, epochs=5, seed=6),
                checkpoint_path=str(path))
        # epochs 1 completed before the blow-up, so a checkpoint survives
        loaded, _ = load_checkpoint(path)
        assert loaded.config == TOY


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = MultiStageModel(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, state = load_checkpoint(path)
        assert state is None
        assert loaded.config == model.config
        for (n1, p1), (n2, p2) in zip(model.store.params(), loaded.store.params()):
            assert n1 == n2
            assert np.array_equal(p1.value, p2.value)
        path2 = tmp_path / "model2.ckpt"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_optimizer_state_round_trip(self, tmp_path):
        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=2, seed=12)
        fit(model, pairs, TrainConfig(batch=2, epochs=2, seed=3),
            checkpoint_path=str(tmp_path / "best.ckpt"))
        loaded, state = load_checkpoint(tmp_path / "best.ckpt")
        assert state is not None
        assert state.step >= 1

    def test_enhance_identical_after_reload(self, tmp_path):
        model = MultiStageModel(TOY)
        pairs = _toy_pairs(n=2, seed=13)
        fit(model, pairs, TrainConfig(batch=2, epochs=2, seed=4),
            str(tmp_path / "best.ckpt"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        x = pairs[0][0]
        np.testing.assert_array_equal(
            model.enhance(x)[0].samples, loaded.enhance(x)[0].samples
        )

    def test_truncated_file_rejected(self, tmp_path):
        model = MultiStageModel(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        data = path.read_bytes()
        clipped = tmp_path / "clipped.ckpt"
        clipped.write_bytes(data[: len(data) - 7])
        with pytest.raises(FormatError):
            load_checkpoint(clipped)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = MultiStageModel(TOY)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        padded = tmp_path / "padded.ckpt"
        padded.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_checkpoint(padded)

    @pytest.mark.parametrize("fail_at", ["tensor", "fsync", "wav", "manifest", "spec-dump"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, fail_at):
        # every writer: k = 0 writes the previous file, k = 1 fails part-way
        import stagemask.train as train_mod

        inputs = [tmp_path / f"in{k}.wav" for k in (0, 1)]
        for k, wav in enumerate(inputs):
            write_wav(wav, dsp.Waveform(np.full(600, 0.1 + k / 10), 8000))
        out = tmp_path / "out"
        out.mkdir()
        path = out / {"wav": "o.wav", "manifest": "m.tsv", "spec-dump": "o.csv"}.get(
            fail_at, "best.ckpt")
        checkpoint = lambda k: save_checkpoint(MultiStageModel(replace(TOY, seed=3 + k)), path)
        write = {
            "tensor": checkpoint,
            "fsync": checkpoint,
            "wav": lambda k: write_wav(path, dsp.Waveform(np.full(600, 0.1 + k / 10), 8000)),
            "manifest": lambda k: write_manifest(path, [("c.wav", "n.wav", float(k))] * 3),
            "spec-dump": lambda k: cli.cmd_spec_dump(cli.build_parser().parse_args(
                ["spec-dump", "--in", str(inputs[k]), "--out", str(path)])),
        }[fail_at]
        write(0)
        before = path.read_bytes()
        on_disk = []

        def fail(*_):
            on_disk.append(sorted(p.name for p in out.iterdir()))
            raise OSError("disk full")

        if fail_at == "tensor":
            # the header and four tensors are out before the write fails
            real = train_mod._tensor_bytes
            written = []

            def tensor_bytes(name, value):
                written.append(name)
                return fail() if len(written) == 5 else real(name, value)

            monkeypatch.setattr(train_mod, "_tensor_bytes", tensor_bytes)
        elif fail_at == "fsync":
            monkeypatch.setattr(os, "fsync", fail)
        else:
            def second_write_fails(file, mode):
                fh = open(file, mode)
                real, calls = fh.write, []

                def write(data):
                    calls.append(data)
                    return fail() if len(calls) == 2 else real(data)

                fh.write = write
                return fh

            monkeypatch.setattr(dsp, "open", second_write_fails, raising=False)
        with pytest.raises(OSError, match="disk full"):
            write(1)
        assert len(on_disk[0]) == 2  # the partial file sat next to the old one
        assert path.read_bytes() == before
        assert [p.name for p in out.iterdir()] == [path.name]


    def _fixture_tensors_sha256(self, model, state):
        h = hashlib.sha256()
        for _, p in model.store.params():
            h.update(p.value.tobytes())
        for _, b in model.store.buffers():
            h.update(b.tobytes())
        h.update(state.m.tobytes())
        h.update(state.v.tobytes())
        return h.hexdigest()

    def test_earlier_file_loads_bit_exactly(self, tmp_path):
        src = FIXTURES / "toy_satcn001.ckpt"
        model, state = load_checkpoint(src)
        assert state.step == 2
        assert self._fixture_tensors_sha256(model, state) == FIXTURE_TENSORS_SHA256
        save_checkpoint(model, tmp_path / "again.ckpt", state)
        assert (tmp_path / "again.ckpt").read_bytes() == src.read_bytes()

    def test_load_draws_no_random_numbers(self, monkeypatch):
        def no_draw(*_):
            raise AssertionError("load_checkpoint drew a random init")

        monkeypatch.setattr(nn.ParamStore, "draw", no_draw)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        model, state = load_checkpoint(FIXTURES / "toy_satcn001.ckpt")
        assert self._fixture_tensors_sha256(model, state) == FIXTURE_TENSORS_SHA256

    def test_earlier_file_enhances_to_recorded_pcm(self, tmp_path):
        out = tmp_path / "enhanced.wav"
        rc = cli.run(["enhance", "--ckpt", str(FIXTURES / "toy_satcn001.ckpt"),
                      "--in", str(FIXTURES / "toy_noisy.wav"), "--out", str(out)])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXTURE_ENHANCE_SHA256

    def _enhance_corrupt(self, tmp_path, capsys, patch):
        data = bytearray((FIXTURES / "toy_satcn001.ckpt").read_bytes())
        name_len = struct.unpack_from("<i", data, 52)[0]
        patch(data, 56, 56 + name_len + 4)  # first name, first extent
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(data))
        rc = cli.run(["enhance", "--ckpt", str(bad),
                      "--in", str(FIXTURES / "toy_noisy.wav"),
                      "--out", str(tmp_path / "o.wav")])
        return rc, capsys.readouterr().err

    @staticmethod
    def _records(data):
        """(offset, bytes) of each tensor record of a checkpoint."""
        records, at = [], 52
        for _ in range(struct.unpack_from("<i", data, 48)[0]):
            name_len = struct.unpack_from("<i", data, at)[0]
            rank = struct.unpack_from("<i", data, at + 4 + name_len)[0]
            extents = struct.unpack_from(f"<{rank}i", data, at + 8 + name_len)
            size = 8 + name_len + 4 * rank + 4 * math.prod(extents)
            records.append((at, data[at : at + size]))
            at += size
        return records

    def test_swapped_tensors_rejected_at_first_swapped(self, tmp_path):
        data = (FIXTURES / "toy_satcn001.ckpt").read_bytes()
        records = self._records(data)
        (at, first), (_, second) = records[1], records[2]
        bad = tmp_path / "swapped.ckpt"
        bad.write_bytes(data[:at] + second + first + data[at + len(first + second):])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(bad)
        assert str(exc.value) == (
            f"{bad}: expected stage1.sa.wq.bias (17,), found stage1.sa.wk.weight "
            f"(17, 17) (offset {at})"
        )

    def test_dropped_optimizer_tensor_rejected_at_tensor_count(self, tmp_path):
        data = (FIXTURES / "toy_satcn001.ckpt").read_bytes()
        at, last_v = self._records(data)[-2]
        n_tensors = struct.unpack_from("<i", data, 48)[0]
        bad = tmp_path / "dropped.ckpt"
        bad.write_bytes(data[:48] + struct.pack("<i", n_tensors - 1) + data[52:at]
                        + data[at + len(last_v):])
        with pytest.raises(FormatError) as exc:
            load_checkpoint(bad)
        assert str(exc.value) == (
            f"{bad}: expected {n_tensors} tensors, found {n_tensors - 1} (offset 48)"
        )

    @pytest.mark.parametrize("seed", [-5, -(2**63)])
    def test_negative_header_seed_exits_2_naming_file(self, tmp_path, capsys, seed):
        data = bytearray((FIXTURES / "toy_satcn001.ckpt").read_bytes())
        struct.pack_into("<q", data, 40, seed)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(data))
        rc = cli.run(["enhance", "--ckpt", str(bad),
                      "--in", str(FIXTURES / "toy_noisy.wav"),
                      "--out", str(tmp_path / "o.wav")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid config: seed: must lie in "
            f"[0, 9223372036854775807], got {seed} (offset 8)\n"
        )
        assert not (tmp_path / "o.wav").exists()

    def test_header_hop_above_half_frame_exits_2(self, tmp_path, capsys):
        data = bytearray((FIXTURES / "toy_satcn001.ckpt").read_bytes())
        struct.pack_into("<i", data, 8 + 4 * 7, 17)  # hop; the fixture's fft_size is 32
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(data))
        rc = cli.run(["enhance", "--ckpt", str(bad),
                      "--in", str(FIXTURES / "toy_noisy.wav"),
                      "--out", str(tmp_path / "o.wav")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: invalid config: hop/fft_size: hop 17 exceeds "
            f"fft_size // 2 = 16 (offset 8)\n"
        )

    def test_non_utf8_name_exits_2_at_its_offset(self, tmp_path, capsys):
        def patch(data, name_at, _):
            data[name_at + 3] = 0xFF

        rc, err = self._enhance_corrupt(tmp_path, capsys, patch)
        assert rc == 2
        assert "not UTF-8" in err and "(offset 59)" in err

    def test_negative_extent_exits_2_at_its_offset(self, tmp_path, capsys):
        def patch(data, _, extent_at):
            struct.pack_into("<i", data, extent_at, -1)

        rc, err = self._enhance_corrupt(tmp_path, capsys, patch)
        assert rc == 2
        assert "negative extent -1" in err
        # 52-byte header, name length, "stage1.sa.wq.weight" (19 bytes), rank
        assert f"(offset {56 + 19 + 4})" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_exits_2_naming_tensor(self, tmp_path, capsys, value):
        def patch(data, _, extent_at):
            # the first tensor is rank 2; its data follows the two extents
            struct.pack_into("<f", data, extent_at + 8 + 4 * 5, value)

        rc, err = self._enhance_corrupt(tmp_path, capsys, patch)
        assert rc == 2
        assert str(tmp_path / "bad.ckpt") in err
        assert f"non-finite value {value} in stage1.sa.wq.weight" in err
        # 52-byte header, name length, 19-byte name, rank, two extents, 5 values
        assert f"(offset {56 + 19 + 4 + 8 + 4 * 5})" in err

    @pytest.mark.parametrize("values", [
        [], [float("nan")], [-1.0], [2.5], [2.0, 3.0],
    ], ids=["empty", "nan", "negative", "fraction", "two-elements"])
    def test_bad_adam_step_exits_2(self, tmp_path, capsys, values):
        def adam_step_bytes(values):
            head = struct.pack("<i", 9) + b"adam.step" + struct.pack("<ii", 1, len(values))
            return head + np.asarray(values, dtype="<f4").tobytes()

        data = (FIXTURES / "toy_satcn001.ckpt").read_bytes()
        good = adam_step_bytes([2.0])
        assert data.endswith(good)  # the last tensor
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[: -len(good)] + adam_step_bytes(values))
        rc = cli.run(["enhance", "--ckpt", str(bad),
                      "--in", str(FIXTURES / "toy_noisy.wav"),
                      "--out", str(tmp_path / "o.wav")])
        err = capsys.readouterr().err
        assert rc == 2
        assert str(bad) in err and "adam.step" in err


    @pytest.mark.parametrize("config", [
        TOY,
        replace(TOY, stages=1),
        replace(TOY, stages=4, kernel=5, stacks=2),
        ModelConfig(stages=3, hidden=8, bottleneck=4, stacks=1, blocks_per_stack=2,
                    fft_size=32, hop=16),
        ModelConfig(),
    ], ids=["toy", "one-stage", "four-stage", "fixture", "paper"])
    def test_state_floats_counts_params_and_buffers(self, config):
        store = MultiStageModel(config).store
        buffers = sum(b.size for _, b in store.buffers())
        assert config.state_floats == store.count() + buffers

    def test_header_only_file_rejected_before_allocating(self, tmp_path, capsys):
        # stages hidden bottleneck stacks blocks_per_stack kernel fft_size hop,
        # seed, tensor count: a 76 MB model asked for by 52 bytes
        probe = tmp_path / "probe.ckpt"
        probe.write_bytes(CHECKPOINT_MAGIC + struct.pack("<8iqi", 1, 1024, 256, 1, 8,
                                                         3, 512, 256, 0, 0))
        assert probe.stat().st_size == 52
        tracemalloc.start()
        try:
            rc = cli.run(["enhance", "--ckpt", str(probe),
                          "--in", str(FIXTURES / "toy_noisy.wav"),
                          "--out", str(tmp_path / "o.wav")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "tensors hold 0 model values" in capsys.readouterr().err
        assert peak < 1 << 20


class TestDeterminism:
    def test_same_seed_same_checkpoint(self, tmp_path):
        def run(tag):
            model = MultiStageModel(TOY)
            pairs = _toy_pairs(n=4, seed=14)
            path = tmp_path / f"{tag}.ckpt"
            fit(model, pairs, TrainConfig(batch=2, epochs=3, seed=5),
                checkpoint_path=str(path))
            return path.read_bytes()

        assert run("a") == run("b")
