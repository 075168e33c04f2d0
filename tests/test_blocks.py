import numpy as np
import pytest

from stagemask.blocks import FusionBlock, SABlock, Stage, TCNBlock, receptive_field

from reference import (
    build,
    finite_diff_check,
    randomize_params,
    ref_fusion,
    ref_sa_block,
    ref_softmax_columns,
    ref_stage,
    ref_tcn_block,
    zero_grads,
)


# three packed items of unequal length
BOUNDS = (0, 5, 7, 12)


def _one(x):
    """Bounds of a batch of one."""
    return (0, x.shape[1])


def _eval(unit, *args):
    """Output of an eval forward (whose cache is None)."""
    y, cache = unit.forward(*args, train=False)
    assert cache is None
    return y


def _sa(f, seed=0):
    return build(lambda store: SABlock(store, "sa", f), np.random.default_rng(seed))


def _tcn(b, h, p, d, seed=0):
    return build(lambda store: TCNBlock(store, "blk", b, h, p, d),
                 np.random.default_rng(seed))


class TestReceptiveField:
    def test_reference_values(self):
        assert receptive_field(3, 5) == 63
        assert receptive_field(3, 8) == 511
        assert receptive_field(1, 7) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            receptive_field(0, 3)

    def test_empirical_propagation_matches(self):
        # one stack of L blocks, eval mode (fresh running stats make the
        # batch norms pure per-channel affine maps, so reach is conv-only)
        p_taps, l_blocks, width = 3, 5, 4
        rf = receptive_field(p_taps, l_blocks)
        half = (rf - 1) // 2
        t_len = 4 * rf
        blocks, _ = build(
            lambda store: [TCNBlock(store, f"b{l}", width, 6, p_taps, 2 ** l)
                           for l in range(l_blocks)],
            np.random.default_rng(11),
        )

        def run(x):
            h = x
            for blk in blocks:
                h = _eval(blk, h, _one(h))
            return h

        rng_x = np.random.default_rng(12)
        x = rng_x.standard_normal((width, t_len))
        base = run(x)
        t0 = t_len // 2
        bumped = x.copy()
        bumped[:, t0] += 10.0
        diff = np.abs(run(bumped) - base).max(axis=0)
        changed = np.nonzero(diff > 1e-12)[0]
        assert changed.min() == t0 - half
        assert changed.max() == t0 + half


class TestSABlock:
    def test_delta_zero_is_identity(self):
        block, _ = _sa(6, seed=3)
        x = np.random.default_rng(4).standard_normal((6, 9))
        np.testing.assert_array_equal(_eval(block, x, _one(x)), x)

    def test_zero_input_zero_bias_gives_zero(self):
        block, store = _sa(5, seed=5)
        block.delta.value[...] = np.array([0.7])
        for name, p in store.params():
            if name.endswith(".bias"):
                p.value[...] = 0.0
        x = np.zeros((5, 4))
        np.testing.assert_array_equal(_eval(block, x, _one(x)), np.zeros((5, 4)))

    def test_identity_projections_formula(self):
        block, _ = _sa(3, seed=6)
        block.wq.weight.value[...] = np.eye(3)
        block.wk.weight.value[...] = np.eye(3)
        block.wv.weight.value[...] = np.eye(3)
        for conv in (block.wq, block.wk, block.wv):
            conv.bias.value[...] = np.zeros(3)
        block.delta.value[...] = np.array([1.0])
        x = np.random.default_rng(7).standard_normal((3, 2))
        expected = x + ref_softmax_columns(x @ x.T / np.sqrt(3.0)) @ x
        np.testing.assert_allclose(_eval(block, x, _one(x)), expected, atol=1e-10)

    def test_matches_scalar_oracle(self):
        block, store = _sa(4, seed=8)
        rng = np.random.default_rng(9)
        randomize_params(store, rng)
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(
            _eval(block, x, _one(x)), ref_sa_block(x, block), atol=1e-10
        )

    def test_grad_full_block(self):
        block, store = _sa(3, seed=10)
        rng = np.random.default_rng(11)
        randomize_params(store, rng)
        c = rng.standard_normal((3, 4))

        def fn(x):
            y, cache = block.forward(x, _one(x), train=True)
            zero_grads(store)
            dx = block.backward(c, cache, _one(x))
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((3, 4))) < 1e-4

    def test_grad_delta(self):
        block, store = _sa(3, seed=12)
        rng = np.random.default_rng(13)
        randomize_params(store, rng)
        x = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 4))

        def fn(delta):
            block.delta.value[...] = delta
            y, cache = block.forward(x, _one(x), train=True)
            zero_grads(store)
            block.backward(c, cache, _one(x))
            return float((c * y).sum()), block.delta.grad.copy()

        assert finite_diff_check(fn, np.array([0.4])) < 1e-5

    def test_packed_items_attend_separately(self):
        block, store = _sa(4, seed=40)
        rng = np.random.default_rng(41)
        randomize_params(store, rng)
        x = rng.standard_normal((4, 12))
        packed = _eval(block, x, BOUNDS)
        for lo, hi in zip(BOUNDS[:-1], BOUNDS[1:]):
            np.testing.assert_allclose(
                packed[:, lo:hi], ref_sa_block(x[:, lo:hi], block), atol=1e-10
            )

    def test_grad_segmented(self):
        block, store = _sa(3, seed=42)
        rng = np.random.default_rng(43)
        randomize_params(store, rng)
        c = rng.standard_normal((3, 12))

        def fn(x):
            y, cache = block.forward(x, BOUNDS, train=True)
            zero_grads(store)
            dx = block.backward(c, cache, BOUNDS)
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((3, 12))) < 1e-4


class TestTCNBlock:
    def test_zero_out_conv_is_identity(self):
        block, _ = _tcn(4, 6, 3, 2, seed=14)
        block.out_conv.weight.value[...] = np.zeros((4, 6))
        block.out_conv.bias.value[...] = np.zeros(4)
        x = np.random.default_rng(15).standard_normal((4, 10))
        np.testing.assert_array_equal(block.forward(x, _one(x), train=True)[0], x)

    @pytest.mark.parametrize("dilation", [1, 2, 8])
    def test_output_shape_preserved(self, dilation):
        block, _ = _tcn(4, 6, 3, dilation, seed=16)
        x = np.random.default_rng(17).standard_normal((4, 7))
        assert _eval(block, x, _one(x)).shape == (4, 7)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_scalar_oracle(self, mode):
        block, store = _tcn(4, 6, 3, 2, seed=18)
        rng = np.random.default_rng(19)
        randomize_params(store, rng)
        x = rng.standard_normal((4, 9))
        expected = ref_tcn_block(x, block, mode)
        y, _ = block.forward(x, _one(x), train=mode == "train")
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_grad_full_block(self):
        block, store = _tcn(4, 6, 3, 2, seed=20)
        rng = np.random.default_rng(21)
        randomize_params(store, rng)
        c = rng.standard_normal((4, 8))

        def fn(x):
            y, cache = block.forward(x, _one(x), train=True)
            zero_grads(store)
            dx = block.backward(c, cache, _one(x))
            return float((c * y).sum()), dx

        assert finite_diff_check(fn, rng.standard_normal((4, 8))) < 1e-3


class TestStage:
    def _stage(self, seed=22):
        return build(lambda store: Stage(store, "stage1", 9, 4, 6, 3, 2, 3),
                     np.random.default_rng(seed))

    def test_mask_strictly_in_unit_interval(self):
        stage, store = self._stage()
        rng = np.random.default_rng(23)
        randomize_params(store, rng)
        mask = _eval(stage, np.abs(rng.standard_normal((9, 6))), (0, 6))
        assert np.all(mask > 0.0)
        assert np.all(mask < 1.0)

    def test_zero_out_proj_gives_half(self):
        stage, _ = self._stage(seed=24)
        stage.out_proj.weight.value[...] = np.zeros((9, 4))
        stage.out_proj.bias.value[...] = np.zeros(9)
        x = np.abs(np.random.default_rng(25).standard_normal((9, 5)))
        np.testing.assert_array_equal(_eval(stage, x, _one(x)), np.full((9, 5), 0.5))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_matches_scalar_oracle(self, mode):
        stage, store = self._stage(seed=26)
        rng = np.random.default_rng(27)
        randomize_params(store, rng, scale=0.2)
        x = np.abs(rng.standard_normal((9, 4)))
        expected = ref_stage(x, stage, mode)
        y, _ = stage.forward(x, _one(x), train=mode == "train")
        np.testing.assert_allclose(y, expected, atol=1e-10)

    def test_dilations_restart_per_stack(self):
        stage, _ = self._stage()
        assert [b.dilation for b in stage.blocks] == [1, 2, 4, 1, 2, 4]


class TestFusionBlock:
    def _fusion(self, f=5, seed=28):
        return build(lambda store: FusionBlock(store, "fusion3", f),
                     np.random.default_rng(seed))

    def test_zero_inputs_zero_biases_gives_zero(self):
        fusion, store = self._fusion()
        for name, p in store.params():
            if name.endswith(".bias") or name.endswith(".beta"):
                p.value[...] = 0.0
        y = _eval(fusion, np.zeros((5, 4)), np.zeros((5, 4)), (0, 4))
        np.testing.assert_array_equal(y, np.zeros((5, 4)))

    def test_output_shape(self):
        fusion, _ = self._fusion()
        rng = np.random.default_rng(29)
        y = _eval(fusion, rng.standard_normal((5, 7)), rng.standard_normal((5, 7)), (0, 7))
        assert y.shape == (5, 7)

    def test_shape_mismatch_rejected(self):
        fusion, _ = self._fusion()
        with pytest.raises(ValueError):
            _eval(fusion, np.zeros((5, 4)), np.zeros((5, 3)), (0, 4))

    def test_matches_scalar_oracle(self):
        fusion, store = self._fusion(seed=30)
        rng = np.random.default_rng(31)
        randomize_params(store, rng)
        a = rng.standard_normal((5, 4))
        b = rng.standard_normal((5, 4))
        np.testing.assert_allclose(
            _eval(fusion, a, b, _one(a)), ref_fusion(a, b, fusion), atol=1e-10
        )

    def test_grad_both_inputs(self):
        fusion, store = self._fusion(f=4, seed=32)
        rng = np.random.default_rng(33)
        randomize_params(store, rng)
        b = rng.standard_normal((4, 5))
        c = rng.standard_normal((4, 5))

        def fn_a(a):
            y, cache = fusion.forward(a, b, _one(a), train=True)
            zero_grads(store)
            da, _ = fusion.backward(c, cache, _one(a))
            return float((c * y).sum()), da

        assert finite_diff_check(fn_a, rng.standard_normal((4, 5))) < 1e-4
