import hashlib
from dataclasses import replace

import numpy as np
import pytest

from stagemask import dsp
from stagemask.model import ModelConfig, MultiStageModel, total_loss_batch

from reference import (
    constant_masks, margined_clean, mean_total_loss, prefix_counts, randomize_params,
    ref_cascade_loss, relative_error, whole_model_fd,
)

TOY = ModelConfig(
    stages=3, hidden=6, bottleneck=4, stacks=2, blocks_per_stack=3,
    fft_size=16, hop=8, seed=5,
)


def _toy_input(rng, t=6, f=9):
    return np.abs(rng.standard_normal((f, t)))


class TestBuild:
    def test_single_stage_has_no_fusions(self):
        cfg = ModelConfig(stages=1, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8)
        assert MultiStageModel(cfg).fusions == []

    def test_five_stages_have_three_fusions(self):
        cfg = ModelConfig(stages=5, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8)
        assert len(MultiStageModel(cfg).fusions) == 3

    def test_same_seed_bit_identical(self):
        m1 = MultiStageModel(TOY)
        m2 = MultiStageModel(TOY)
        for (n1, p1), (n2, p2) in zip(m1.store.params(), m2.store.params()):
            assert n1 == n2
            assert np.array_equal(p1.value, p2.value)

    def test_default_config_is_paper_geometry(self):
        cfg = ModelConfig()
        assert (cfg.stages, cfg.hidden, cfg.bottleneck, cfg.stacks,
                cfg.blocks_per_stack) == (5, 256, 128, 3, 8)
        assert (cfg.kernel, cfg.fft_size, cfg.hop, cfg.freq_bins) == (3, 512, 256, 257)

    def test_delta_starts_at_zero(self):
        model = MultiStageModel(TOY)
        for stage in model.stages:
            assert np.all(stage.sa.delta.value == 0.0)

    @pytest.mark.parametrize("config, digest", [
        (ModelConfig(stages=3, hidden=32, bottleneck=16, stacks=2, blocks_per_stack=4,
                     kernel=3, fft_size=128, hop=64, seed=11),
         "1b8471c3b858b714ef071a71a063b22dcc22dd649b58fe6d38db8c9eee61d4de"),
        (ModelConfig(),
         "8cf4251d6ad8b7db0131a2d98e7ca86df764d912b1b862ec9d0975855c921820"),
    ], ids=["acceptance-toy", "paper"])
    def test_fresh_parameters_pinned(self, config, digest):
        # the init draws keep their order: float64 parameter bytes in store order
        h = hashlib.sha256()
        for _, p in MultiStageModel(config).store.params():
            h.update(p.value.tobytes())
        assert h.hexdigest() == digest

    def test_layout_must_fill_the_closed_form(self, monkeypatch):
        # the store is sized by parameter_counts(); a closed form larger than
        # the blocks' layout fails the build instead of leaving a value
        # that no parameter owns
        counts = TOY.parameter_counts()
        monkeypatch.setattr(ModelConfig, "parameter_counts",
                            lambda self: {**counts, "total": counts["total"] + 1})
        with pytest.raises(ValueError, match="layout fills"):
            MultiStageModel(TOY)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(stages=0, hidden=4, bottleneck=3, stacks=1,
                        blocks_per_stack=2)
        with pytest.raises(ValueError):
            ModelConfig(stages=2, hidden=4, bottleneck=3, stacks=1,
                        blocks_per_stack=2, kernel=4)


class TestForward:
    def test_single_stage_trace(self):
        cfg = ModelConfig(stages=1, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8, seed=2)
        model = MultiStageModel(cfg)
        rng = np.random.default_rng(3)
        x = _toy_input(rng)
        trace = model.forward_batch([x], train=False)
        assert len(trace.masks) == 1
        assert len(trace.estimates) == 2
        np.testing.assert_array_equal(trace.estimates[1], trace.masks[0] * x)

    def test_all_ones_hook_returns_input(self, monkeypatch):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(4)
        x = _toy_input(rng)
        constant_masks(monkeypatch, model, 1.0)
        trace = model.forward_batch([x], train=False)
        np.testing.assert_array_equal(trace.estimates[-1], x)

    def test_cascade_contracts(self):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(6)
        randomize_params(model.store, rng)
        x = _toy_input(rng, t=8)
        trace = model.forward_batch([x], train=False)
        for k in range(1, len(trace.estimates)):
            assert np.all(trace.estimates[k] >= 0.0)
            assert np.all(trace.estimates[k] <= trace.estimates[k - 1])

    def test_eval_forward_is_pure(self):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(7)
        x = _toy_input(rng)
        t1 = model.forward_batch([x], train=False)
        t2 = model.forward_batch([x], train=False)
        assert np.array_equal(t1.estimates[-1], t2.estimates[-1])

    def test_eval_forward_leaves_inputs_unchanged(self):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(8)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=t) for t in (6, 9)]
        before = [x.copy() for x in xs]
        for batch in (xs, xs[:1]):
            model.forward_batch(batch, train=False)
            for x, old in zip(xs, before):
                np.testing.assert_array_equal(x, old)

    def test_rejects_negative_input(self):
        model = MultiStageModel(TOY)
        with pytest.raises(ValueError):
            model.forward_batch([-np.ones((9, 4))], train=False)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        model = MultiStageModel(TOY)
        x = np.ones((9, 4))
        x[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            model.forward_batch([np.ones((9, 3)), x], train=False)

    def test_rejects_wrong_bin_count(self):
        model = MultiStageModel(TOY)
        with pytest.raises(ValueError):
            model.forward_batch([np.ones((8, 4))], train=False)


class TestTotalLoss:
    def test_perfect_mask_zero_loss(self, monkeypatch):
        cfg = ModelConfig(stages=1, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8, seed=8)
        model = MultiStageModel(cfg)
        x = np.full((9, 4), 2.0)
        constant_masks(monkeypatch, model, 0.5)
        trace = model.forward_batch([x], train=False)
        per_stage, (total,) = total_loss_batch(trace, [np.ones((9, 4))])
        assert per_stage == [0.0]
        assert total == 0.0

    def test_matches_scalar_oracle(self):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(9)
        randomize_params(model.store, rng)
        x = _toy_input(rng)
        clean = _toy_input(rng)
        trace = model.forward_batch([x], train=False)
        per_stage, (total,) = total_loss_batch(trace, [clean])
        ref_per, ref_total = ref_cascade_loss(trace.masks, x, clean)
        np.testing.assert_allclose(per_stage, ref_per, atol=1e-10)
        assert abs(total - ref_total) < 1e-10

    def test_shape_mismatch_rejected(self):
        model = MultiStageModel(TOY)
        trace = model.forward_batch([np.ones((9, 4))], train=False)
        with pytest.raises(ValueError):
            total_loss_batch(trace, [np.ones((9, 5))])

    @pytest.mark.parametrize("lengths, targets", [
        ((4,), [(9, 1)]),                 # would broadcast against its item
        ((3, 5), [(9, 5), (9, 3)]),       # lengths swapped between the items
        ((3, 5), [(9, 8)]),               # one target for two items
    ], ids=["broadcast", "swapped", "count"])
    def test_target_shapes_checked(self, lengths, targets):
        # the loss and its gradient reject the same targets
        model = MultiStageModel(TOY)
        trace = model.forward_batch([np.ones((9, t)) for t in lengths], train=True)
        cleans = [np.ones(shape) for shape in targets]
        with pytest.raises(ValueError, match="target"):
            total_loss_batch(trace, cleans)
        with pytest.raises(ValueError, match="target"):
            model.backward_batch(trace, cleans)

    def test_backward_rejects_eval_trace(self):
        model = MultiStageModel(TOY)
        x = np.ones((9, 4))
        trace = model.forward_batch([x], train=False)
        assert trace.caches is None
        with pytest.raises(ValueError, match="train forward"):
            model.backward_batch(trace, [x])

    def test_train_is_keyword_only(self):
        # a positional mode string would be truthy and run a train forward
        # that moves the batch-norm running statistics
        model = MultiStageModel(TOY)
        before = [v.copy() for _, v in model.store.buffers()]
        with pytest.raises(TypeError):
            model.forward_batch([np.ones((9, 4))], "eval")
        with pytest.raises(TypeError):
            model.forward_batch([np.ones((9, 4))])
        for (_, v), old in zip(model.store.buffers(), before):
            assert np.array_equal(v, old)


class TestGradients:
    def test_every_parameter_reached(self):
        cfg = ModelConfig(stages=5, hidden=6, bottleneck=4, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8, seed=10)
        model = MultiStageModel(cfg)
        rng = np.random.default_rng(11)
        randomize_params(model.store, rng)
        x = _toy_input(rng, t=7)
        clean = _toy_input(rng, t=7)
        trace = model.forward_batch([x], train=True)
        model.backward_batch(trace, [clean])
        for name, p in model.store.params():
            assert np.abs(p.grad).max() > 0.0, f"no gradient reached {name}"

    def test_end_to_end_finite_differences(self):
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(12)
        randomize_params(model.store, rng)
        x = _toy_input(rng)
        clean = margined_clean(model, x, rng)
        worst, _ = whole_model_fd(model, [x], [clean], rng, picks=20)
        assert worst < 1e-3

    def test_backward_requires_train_trace(self):
        model = MultiStageModel(TOY)
        trace = model.forward_batch([np.ones((9, 4))], train=False)
        with pytest.raises(ValueError):
            model.backward_batch(trace, [np.ones((9, 4))])

    def test_batched_gradient_includes_norm_coupling(self):
        # batch statistics couple items; finite differences over the batch
        # objective must still agree
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(21)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=5), _toy_input(rng, t=7)]
        cleans = [margined_clean(model, x, rng) for x in xs]
        worst, _ = whole_model_fd(model, xs, cleans, rng, picks=12)
        assert worst < 1e-3

    def test_packed_batch_gradient_three_items(self):
        # three unequal lengths: dilated taps, attention and global norms
        # meet item boundaries, and batch norm couples the items
        model = MultiStageModel(TOY)
        rng = np.random.default_rng(31)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=t) for t in (5, 2, 8)]
        cleans = [margined_clean(model, x, rng) for x in xs]
        buffers = {n: b.copy() for n, b in model.store.buffers()}
        worst, gx = whole_model_fd(model, xs, cleans, rng, picks=20)
        h = 2e-5
        # input gradient at the columns on either side of each item boundary
        # (packed bounds 0, 5, 7, 15)
        for item, local, col in ((0, 4, 4), (1, 0, 5), (1, 1, 6), (2, 0, 7)):
            row = int(rng.integers(9))
            bumped = [x.copy() for x in xs]
            bumped[item][row, local] += h
            up = mean_total_loss(model, bumped, cleans)
            bumped[item][row, local] -= 2 * h
            down = mean_total_loss(model, bumped, cleans)
            worst = max(worst, relative_error(gx[row, col], (up - down) / (2 * h)))
        for n, b in model.store.buffers():
            b[...] = buffers[n]
        assert worst < 1e-3

    def test_four_stages_reach_every_fusion_block(self):
        # a fusion block's backward must update its own parameters: the
        # picks include parameters of both fusion blocks
        model = MultiStageModel(replace(TOY, stages=4))
        rng = np.random.default_rng(41)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=t) for t in (4, 3, 6)]
        cleans = [margined_clean(model, x, rng) for x in xs]
        include = ("fusion3.branch_a.conv.weight", "fusion3.post.prelu2.slope",
                   "fusion4.branch_b.gln.gamma", "fusion4.post.conv1.weight")
        worst, _ = whole_model_fd(model, xs, cleans, rng, picks=8, include=include)
        assert worst < 1e-3


class TestCounts:
    def test_sa_block_paper_geometry(self):
        cfg = ModelConfig(stages=1, hidden=8, bottleneck=4, stacks=1,
                          blocks_per_stack=1, fft_size=512, hop=256)
        counts = cfg.parameter_counts()
        assert counts["sa_block"] == 198_919
        assert counts["sa_block"] == 3 * (257 * 257 + 257) + 1

    def test_tcn_blocks_large_geometry(self):
        cfg = ModelConfig(stages=1, hidden=256, bottleneck=128, stacks=3,
                          blocks_per_stack=8, fft_size=512, hop=256)
        counts = cfg.parameter_counts()
        assert counts["tcn_blocks"] == 1_643_520
        assert counts["tcn_blocks"] == 24 * 68_480

    def test_five_stage_total_near_reported_size(self):
        cfg = ModelConfig(stages=5, hidden=256, bottleneck=128, stacks=3,
                          blocks_per_stack=8, fft_size=512, hop=256)
        counts = cfg.parameter_counts()
        assert abs(counts["total"] - 9_910_000) / 9_910_000 < 0.25

    def test_breakdown_consistent(self):
        counts = TOY.parameter_counts()
        assert counts["per_stage"] == (
            counts["sa_block"] + counts["tcn_blocks"] + counts["stage_glue"]
        )
        assert counts["total"] == (
            TOY.stages * counts["per_stage"]
            + TOY.num_fusions * counts["fusion_block"]
        )

    @pytest.mark.parametrize("cfg", [
        TOY,
        replace(TOY, stages=1),
        replace(TOY, stages=2),
        replace(TOY, stages=4),
        replace(TOY, kernel=5),
        ModelConfig(stages=3, hidden=8, bottleneck=4, stacks=1, blocks_per_stack=2,
                    fft_size=32, hop=16),
        ModelConfig(),
    ], ids=["toy", "one-stage", "two-stage", "four-stage", "kernel-5", "fixture",
            "paper"])
    def test_closed_form_matches_built_store(self, cfg):
        assert cfg.parameter_counts() == prefix_counts(MultiStageModel(cfg))


class TestEnhance:
    def _model(self):
        cfg = ModelConfig(stages=2, hidden=6, bottleneck=4, stacks=1,
                          blocks_per_stack=2, fft_size=64, hop=32, seed=13)
        return MultiStageModel(cfg)

    def test_output_length_matches_input(self):
        model = self._model()
        rng = np.random.default_rng(14)
        x = dsp.Waveform(rng.standard_normal(777) * 0.1, 8000)
        out, _ = model.enhance(x)
        assert len(out) == 777
        assert out.sample_rate == 8000

    def test_all_ones_hook_equals_round_trip(self, monkeypatch):
        # faded edges: the bare round trip cannot reproduce the sample under
        # the analysis window's zero, so make that sample zero
        model = self._model()
        rng = np.random.default_rng(15)
        samples = rng.standard_normal(1200) * 0.1
        samples[:8] *= np.linspace(0.0, 1.0, 8)
        samples[-8:] *= np.linspace(1.0, 0.0, 8)
        x = dsp.Waveform(samples, 8000)
        constant_masks(monkeypatch, model, 1.0)
        out, _ = model.enhance(x)
        win = dsp.hann_window(64, 32)
        mag, phase = dsp.stft(samples, win)
        rt = dsp.istft(mag, phase, win, len(x))
        np.testing.assert_allclose(out.samples, rt, atol=1e-6)
        # with identity masks the padded pipeline reproduces the input itself
        np.testing.assert_allclose(out.samples, x.samples, atol=1e-9)

    def test_zero_input_zero_output(self):
        model = self._model()
        out, _ = model.enhance(dsp.Waveform(np.zeros(500), 8000))
        assert np.all(out.samples == 0.0)

    def test_short_input_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.enhance(dsp.Waveform(np.zeros(63), 8000))
