import numpy as np
import pytest

from stagemask import dsp
from stagemask.model import ModelConfig, build_model, total_loss

from reference import margined_clean, randomize_params, ref_cascade_loss

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
        assert build_model(cfg).fusions == []

    def test_five_stages_have_three_fusions(self):
        cfg = ModelConfig(stages=5, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8)
        assert len(build_model(cfg).fusions) == 3

    def test_same_seed_bit_identical(self):
        m1 = build_model(TOY)
        m2 = build_model(TOY)
        for (n1, p1), (n2, p2) in zip(m1.store.params(), m2.store.params()):
            assert n1 == n2
            assert np.array_equal(p1.value, p2.value)

    def test_delta_starts_at_zero(self):
        model = build_model(TOY)
        for stage in model.stages:
            assert np.all(stage.sa.delta.value == 0.0)

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
        model = build_model(cfg)
        rng = np.random.default_rng(3)
        x = _toy_input(rng)
        trace = model.forward(x, "eval")
        assert len(trace.masks) == 1
        assert len(trace.estimates) == 2
        np.testing.assert_array_equal(trace.estimates[1], trace.masks[0] * x)

    def test_all_ones_hook_returns_input(self):
        model = build_model(TOY)
        rng = np.random.default_rng(4)
        x = _toy_input(rng)
        trace = model.forward(x, "eval", mask_hook=lambda k, m: np.ones_like(m))
        np.testing.assert_array_equal(trace.estimates[-1], x)

    def test_cascade_contracts(self):
        model = build_model(TOY)
        rng = np.random.default_rng(6)
        randomize_params(model.store, rng)
        x = _toy_input(rng, t=8)
        trace = model.forward(x, "eval")
        for k in range(1, len(trace.estimates)):
            assert np.all(trace.estimates[k] >= 0.0)
            assert np.all(trace.estimates[k] <= trace.estimates[k - 1])

    def test_eval_forward_is_pure(self):
        model = build_model(TOY)
        rng = np.random.default_rng(7)
        x = _toy_input(rng)
        t1 = model.forward(x, "eval")
        t2 = model.forward(x, "eval")
        assert np.array_equal(t1.estimates[-1], t2.estimates[-1])

    def test_rejects_negative_input(self):
        model = build_model(TOY)
        with pytest.raises(ValueError):
            model.forward(-np.ones((9, 4)), "eval")

    def test_rejects_wrong_bin_count(self):
        model = build_model(TOY)
        with pytest.raises(ValueError):
            model.forward(np.ones((8, 4)), "eval")


class TestTotalLoss:
    def test_perfect_mask_zero_loss(self):
        cfg = ModelConfig(stages=1, hidden=4, bottleneck=3, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8, seed=8)
        model = build_model(cfg)
        x = np.full((9, 4), 2.0)
        trace = model.forward(x, "eval", mask_hook=lambda k, m: np.full_like(m, 0.5))
        per_stage, total = total_loss(trace, np.ones((9, 4)))
        assert per_stage == [0.0]
        assert total == 0.0

    def test_matches_scalar_oracle(self):
        model = build_model(TOY)
        rng = np.random.default_rng(9)
        randomize_params(model.store, rng)
        x = _toy_input(rng)
        clean = _toy_input(rng)
        trace = model.forward(x, "eval")
        per_stage, total = total_loss(trace, clean)
        ref_per, ref_total = ref_cascade_loss(trace.masks, x, clean)
        np.testing.assert_allclose(per_stage, ref_per, atol=1e-10)
        assert abs(total - ref_total) < 1e-10

    def test_shape_mismatch_rejected(self):
        model = build_model(TOY)
        trace = model.forward(np.ones((9, 4)), "eval")
        with pytest.raises(ValueError):
            total_loss(trace, np.ones((9, 5)))


class TestGradients:
    def test_every_parameter_reached(self):
        cfg = ModelConfig(stages=5, hidden=6, bottleneck=4, stacks=1,
                          blocks_per_stack=2, fft_size=16, hop=8, seed=10)
        model = build_model(cfg)
        rng = np.random.default_rng(11)
        randomize_params(model.store, rng)
        x = _toy_input(rng, t=7)
        clean = _toy_input(rng, t=7)
        trace = model.forward(x, "train")
        model.backward(trace, clean)
        for name, p in model.store.params():
            assert np.abs(p.grad).max() > 0.0, f"no gradient reached {name}"

    def test_end_to_end_finite_differences(self):
        model = build_model(TOY)
        rng = np.random.default_rng(12)
        randomize_params(model.store, rng)
        x = _toy_input(rng)
        clean = margined_clean(model, x, rng)

        def loss_value():
            trace = model.forward(x, "train")
            return total_loss(trace, clean)[1]

        def analytic_grads():
            model.store.zero_grads()
            trace = model.forward(x, "train")
            model.backward(trace, clean)
            return {name: p.grad.copy() for name, p in model.store.params()}

        buffers_before = {n: b.copy() for n, b in model.store.buffers()}
        grads = analytic_grads()
        names = [name for name, _ in model.store.params()]
        picks = rng.choice(len(names), size=20, replace=False)
        # small step: deep compositions put rectifier kinks close together
        h = 2e-5
        worst = 0.0
        for idx in picks:
            p = model.store[names[idx]]
            flat_idx = int(rng.integers(p.value.size))
            orig = p.value.copy()
            p.value = orig.copy()
            p.value.reshape(-1)[flat_idx] += h
            up = loss_value()
            p.value = orig.copy()
            p.value.reshape(-1)[flat_idx] -= h
            down = loss_value()
            p.value = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[names[idx]].reshape(-1)[flat_idx]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
        for n, b in model.store.buffers():
            b[...] = buffers_before[n]
        assert worst < 1e-3

    def test_backward_requires_train_trace(self):
        model = build_model(TOY)
        trace = model.forward(np.ones((9, 4)), "eval")
        with pytest.raises(ValueError):
            model.backward(trace, np.ones((9, 4)))

    def test_batched_gradient_includes_norm_coupling(self):
        # batch statistics couple items; finite differences over the batch
        # objective must still agree
        from stagemask.model import total_loss_batch

        model = build_model(TOY)
        rng = np.random.default_rng(21)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=5), _toy_input(rng, t=7)]
        cleans = [margined_clean(model, x, rng) for x in xs]

        def objective():
            trace = model.forward_batch(xs, "train")
            return float(np.mean(total_loss_batch(trace, cleans)[1]))

        model.store.zero_grads()
        trace = model.forward_batch(xs, "train")
        model.backward_batch(trace, cleans)
        grads = {name: p.grad.copy() for name, p in model.store.params()}
        names = [name for name, _ in model.store.params()]
        # small step: deep compositions put rectifier kinks close together
        h = 2e-5
        worst = 0.0
        for idx in rng.choice(len(names), size=12, replace=False):
            p = model.store[names[idx]]
            flat = int(rng.integers(p.value.size))
            orig = p.value.copy()
            p.value = orig.copy()
            p.value.reshape(-1)[flat] += h
            up = objective()
            p.value = orig.copy()
            p.value.reshape(-1)[flat] -= h
            down = objective()
            p.value = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[names[idx]].reshape(-1)[flat]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
            worst = max(worst, rel)
        assert worst < 1e-3


    def test_packed_batch_gradient_three_items(self):
        # three unequal lengths: dilated taps, attention and global norms
        # meet item boundaries, and batch norm couples the items
        from stagemask.model import total_loss_batch

        model = build_model(TOY)
        rng = np.random.default_rng(31)
        randomize_params(model.store, rng)
        xs = [_toy_input(rng, t=t) for t in (5, 2, 8)]
        cleans = [margined_clean(model, x, rng) for x in xs]
        buffers = {n: b.copy() for n, b in model.store.buffers()}

        def objective():
            trace = model.forward_batch(xs, "train")
            return float(np.mean(total_loss_batch(trace, cleans)[1]))

        model.store.zero_grads()
        trace = model.forward_batch(xs, "train")
        gx = model.backward_batch(trace, cleans)
        grads = {name: p.grad.copy() for name, p in model.store.params()}
        names = [name for name, _ in model.store.params()]
        h = 2e-5
        worst = 0.0
        for idx in rng.choice(len(names), size=20, replace=False):
            p = model.store[names[idx]]
            flat = int(rng.integers(p.value.size))
            orig = p.value.copy()
            p.value.reshape(-1)[flat] += h
            up = objective()
            p.value = orig
            p.value.reshape(-1)[flat] -= h
            down = objective()
            p.value = orig
            numeric = (up - down) / (2 * h)
            analytic = grads[names[idx]].reshape(-1)[flat]
            worst = max(worst, abs(analytic - numeric)
                        / max(abs(analytic), abs(numeric), 1e-8))
        # input gradient at the columns on either side of each item boundary
        # (packed bounds 0, 5, 7, 15)
        for item, local, col in ((0, 4, 4), (1, 0, 5), (1, 1, 6), (2, 0, 7)):
            row = int(rng.integers(9))
            bumped = [x.copy() for x in xs]
            bumped[item][row, local] += h
            trace_up = model.forward_batch(bumped, "train")
            up = float(np.mean(total_loss_batch(trace_up, cleans)[1]))
            bumped[item][row, local] -= 2 * h
            trace_down = model.forward_batch(bumped, "train")
            down = float(np.mean(total_loss_batch(trace_down, cleans)[1]))
            numeric = (up - down) / (2 * h)
            worst = max(worst, abs(gx[row, col] - numeric)
                        / max(abs(gx[row, col]), abs(numeric), 1e-8))
        for n, b in model.store.buffers():
            b[...] = buffers[n]
        assert worst < 1e-3


class TestCounts:
    def test_sa_block_paper_geometry(self):
        cfg = ModelConfig(stages=1, hidden=8, bottleneck=4, stacks=1,
                          blocks_per_stack=1, fft_size=512, hop=256)
        counts = build_model(cfg).count_parameters()
        assert counts["sa_block"] == 198_919
        assert counts["sa_block"] == 3 * (257 * 257 + 257) + 1

    def test_tcn_blocks_large_geometry(self):
        cfg = ModelConfig(stages=1, hidden=256, bottleneck=128, stacks=3,
                          blocks_per_stack=8, fft_size=512, hop=256)
        counts = build_model(cfg).count_parameters()
        assert counts["tcn_blocks"] == 1_643_520
        assert counts["tcn_blocks"] == 24 * 68_480

    def test_five_stage_total_near_reported_size(self):
        cfg = ModelConfig(stages=5, hidden=256, bottleneck=128, stacks=3,
                          blocks_per_stack=8, fft_size=512, hop=256)
        counts = build_model(cfg).count_parameters()
        assert abs(counts["total"] - 9_910_000) / 9_910_000 < 0.25

    def test_breakdown_consistent(self):
        model = build_model(TOY)
        counts = model.count_parameters()
        assert counts["per_stage"] == (
            counts["sa_block"] + counts["tcn_blocks"] + counts["stage_glue"]
        )
        assert counts["total"] == (
            TOY.stages * counts["per_stage"]
            + TOY.num_fusions * counts["fusion_block"]
        )


class TestEnhance:
    def _model(self):
        cfg = ModelConfig(stages=2, hidden=6, bottleneck=4, stacks=1,
                          blocks_per_stack=2, fft_size=64, hop=32, seed=13)
        return build_model(cfg)

    def test_output_length_matches_input(self):
        model = self._model()
        rng = np.random.default_rng(14)
        x = dsp.Waveform(rng.standard_normal(777) * 0.1, 8000)
        out = model.enhance(x)
        assert len(out) == 777
        assert out.sample_rate == 8000

    def test_all_ones_hook_equals_round_trip(self):
        # faded edges: the bare round trip cannot reproduce the sample under
        # the analysis window's zero, so make that sample zero
        model = self._model()
        rng = np.random.default_rng(15)
        samples = rng.standard_normal(1200) * 0.1
        samples[:8] *= np.linspace(0.0, 1.0, 8)
        samples[-8:] *= np.linspace(1.0, 0.0, 8)
        x = dsp.Waveform(samples, 8000)
        out = model.enhance(x, mask_hook=lambda k, m: np.ones_like(m))
        win = dsp.hann_window(64, 32)
        mag, phase = dsp.stft(x, win)
        rt = dsp.istft(mag, phase, win, len(x), 8000)
        np.testing.assert_allclose(out.samples, rt.samples, atol=1e-6)
        # with identity masks the padded pipeline reproduces the input itself
        np.testing.assert_allclose(out.samples, x.samples, atol=1e-9)

    def test_zero_input_zero_output(self):
        model = self._model()
        out = model.enhance(dsp.Waveform(np.zeros(500), 8000))
        assert np.all(out.samples == 0.0)

    def test_short_input_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.enhance(dsp.Waveform(np.zeros(63), 8000))
